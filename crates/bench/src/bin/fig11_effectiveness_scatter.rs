//! Figure 11: precision of the probability estimates.
//!
//! The sampling approach of the paper (SA) and the snapshot competitor of \[19\]
//! (SS) are compared against a high-budget reference (REF). The paper shows SA
//! hugging the diagonal of the scatter plot while SS systematically
//! underestimates P∀NN and overestimates P∃NN. The harness prints the scatter
//! points followed by summary rows with the mean signed bias and mean absolute
//! error of both estimators.

use ust_bench::datasets::{build_synthetic, ScaleParams};
use ust_bench::effectiveness::{measure_estimate_precision, ScatterOutcome};
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};
use ust_generator::{QueryWorkload, QueryWorkloadConfig};

fn main() {
    let settings = RunSettings::from_env(&[]);
    let mut params = ScaleParams::for_scale(settings.scale);
    // The paper uses v = 0.2 and |T| = 5 for this experiment.
    params.lag = 0.2;
    params.interval_len = 5;
    let (sa_samples, ref_samples, num_objects, num_queries) = match settings.scale {
        RunScale::Quick => (200, 1_000, 50, 3),
        RunScale::Default => (2_000, 20_000, 200, 5),
        RunScale::Paper => (10_000, 100_000, 1_000, 10),
    };
    let dataset = build_synthetic(&params, params.num_states, params.branching, num_objects, settings.seed);
    let queries = QueryWorkload::generate_covered(
        &dataset.network,
        &dataset.database,
        &QueryWorkloadConfig {
            num_queries,
            interval_length: params.interval_len,
            horizon: params.horizon,
            seed: settings.seed.wrapping_add(3),
        },
        2,
    );
    let outcome = measure_estimate_precision(&dataset, &queries, sa_samples, ref_samples, settings.seed);

    let mut report = ExperimentReport::new(
        "figure11_effectiveness_scatter",
        "Estimated vs. reference probabilities for P∀NN and P∃NN \
         (paper: Figure 11; SA = this paper's sampling, SS = snapshot competitor [19], \
         REF = high-budget sampling reference)",
    );
    for p in &outcome.forall {
        report.push(
            Row::new(format!("forall q{} o{}", p.query, p.object))
                .with("REF", p.reference)
                .with("SA", p.sampled)
                .with("SS", p.snapshot),
        );
    }
    for p in &outcome.exists {
        report.push(
            Row::new(format!("exists q{} o{}", p.query, p.object))
                .with("REF", p.reference)
                .with("SA", p.sampled)
                .with("SS", p.snapshot),
        );
    }
    report.push(
        Row::new("summary forall bias")
            .with("SA", ScatterOutcome::mean_bias(&outcome.forall, false))
            .with("SS", ScatterOutcome::mean_bias(&outcome.forall, true))
            .with("points", outcome.forall.len() as f64),
    );
    report.push(
        Row::new("summary exists bias")
            .with("SA", ScatterOutcome::mean_bias(&outcome.exists, false))
            .with("SS", ScatterOutcome::mean_bias(&outcome.exists, true))
            .with("points", outcome.exists.len() as f64),
    );
    report.push(
        Row::new("summary forall mean abs error")
            .with("SA", ScatterOutcome::mean_abs_error(&outcome.forall, false))
            .with("SS", ScatterOutcome::mean_abs_error(&outcome.forall, true))
            .with("points", outcome.forall.len() as f64),
    );
    report.push(
        Row::new("summary exists mean abs error")
            .with("SA", ScatterOutcome::mean_abs_error(&outcome.exists, false))
            .with("SS", ScatterOutcome::mean_abs_error(&outcome.exists, true))
            .with("points", outcome.exists.len() as f64),
    );
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
