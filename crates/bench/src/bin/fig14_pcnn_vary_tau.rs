//! Figure 14: PCNN query efficiency while varying the probability threshold τ.
//!
//! Paper sweep: τ ∈ {0.1, 0.5, 0.9}. Reported series: the model-adaptation
//! time (TS), the sampling + vertical lattice time (SA), the number of
//! qualifying timestamp sets, the number of validated candidate sets and the
//! lattice observability counters (deepest level, peak frontier width). The
//! paper observes that small thresholds blow up both the lattice
//! (near-exponential in |T|) and the result set, while large thresholds make
//! the query cheap; `MaxLevel`/`FrontierPeak` make that blow-up directly
//! visible in the JSON trajectory.
//!
//! `--threads N` fans the TS phase and the per-candidate lattice runs across
//! `N` workers (0 = available parallelism; default: serial, so timings are
//! comparable with the other paper-series figures).

use std::time::Instant;
use ust_bench::continuous::measure_pcnn;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::{ExperimentReport, Row, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;

fn main() {
    let settings = RunSettings::from_env(&["--threads"]);
    let params = ScaleParams::for_scale(settings.scale);
    let threads = resolve_adaptation_threads(settings.adaptation_threads.unwrap_or(1));
    let dataset = build_synthetic(
        &params,
        params.num_states,
        params.branching,
        params.num_objects,
        settings.seed,
    );
    let queries = build_queries(&dataset, &params, settings.seed);
    let mut report = ExperimentReport::new(
        "figure14_pcnn_vary_tau",
        "PCNN efficiency while varying the probability threshold tau \
         (paper: Figure 14; TS/SA in seconds, timestamp sets = qualifying (object, set) pairs, \
         MaxLevel/FrontierPeak = lattice depth/width observability)",
    )
    .with_meta("threads", threads as f64);
    let wall_start = Instant::now();
    for tau in [0.1, 0.5, 0.9] {
        eprintln!("[fig14] tau = {tau} (threads: {threads})");
        let m = measure_pcnn(&dataset, &queries, params.num_samples, tau, settings.seed, threads);
        report.push(
            Row::new(format!("tau={tau}"))
                .with("TS", m.ts_seconds)
                .with("SA", m.sa_seconds)
                .with("#TimestampSets", m.timestamp_sets)
                .with("#CandidateSets", m.candidate_sets)
                .with("MaxLevel", m.max_level)
                .with("FrontierPeak", m.frontier_peak)
                .with("wall", m.wall_seconds),
        );
    }
    report.set_meta("wall_clock_seconds", wall_start.elapsed().as_secs_f64());
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
