//! Figure 12: effectiveness of the forward-backward model adaptation.
//!
//! For every model variant (NO = a-priori only, F = forward-only,
//! FB = forward-backward, U = uniform over reachable states, FBU =
//! forward-backward with uniform transition probabilities) the harness reports
//! the mean distance between the predicted distribution and the held-out
//! ground-truth position, per offset within the observation gap. The paper's
//! qualitative result: NO is worst, F helps but degrades just before an
//! observation, FB is best, FBU is close behind FB, and U lies between FBU
//! and NO.

use ust_bench::datasets::{build_taxi, ScaleParams};
use ust_bench::effectiveness::measure_model_error;
use ust_bench::{ExperimentReport, RunScale, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;

fn main() {
    let settings = RunSettings::from_env(&["--threads"]);
    let params = ScaleParams::for_scale(settings.scale);
    let threads = resolve_adaptation_threads(settings.adaptation_threads.unwrap_or(0));
    let (num_objects, max_evaluated) = match settings.scale {
        RunScale::Quick => (60, 30),
        RunScale::Default => (400, 150),
        RunScale::Paper => (2_000, 500),
    };
    eprintln!("[fig12] building simulated taxi dataset ({num_objects} taxis)");
    let dataset = build_taxi(&params, num_objects, settings.seed);
    eprintln!("[fig12] evaluating {max_evaluated} objects ({threads} adaptation threads)");
    let start = std::time::Instant::now();
    let rows = measure_model_error(&dataset, max_evaluated, threads);
    let elapsed = start.elapsed();
    let mut report = ExperimentReport::new(
        "figure12_model_adaptation_error",
        "Mean prediction error (expected distance to the held-out true position) per offset \
         within the observation gap, for the model variants NO/F/FB/U/FBU \
         (paper: Figure 12, simulated taxi data)",
    )
    .with_meta("adaptation_threads", threads as f64)
    .with_meta("evaluation_seconds", elapsed.as_secs_f64());
    for row in rows {
        report.push(row);
    }
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
