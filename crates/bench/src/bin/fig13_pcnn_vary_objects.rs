//! Figure 13: PCNN query efficiency while varying the number of objects.
//!
//! Paper sweep: |D| ∈ {1k, 10k, 20k} at τ = 0.5. Reported series: the
//! model-adaptation time (TS), the sampling + vertical lattice time (SA,
//! called "NNA" in the paper's left plot), the number of qualifying timestamp
//! sets (right plot) and the lattice observability counters. The paper
//! observes that TS grows with |D| while the number of qualifying timestamp
//! sets shrinks (more pruners -> smaller probabilities -> fewer candidate
//! intervals).
//!
//! `--threads N` fans the TS phase and the per-candidate lattice runs across
//! `N` workers (0 = available parallelism; default: serial).

use std::time::Instant;
use ust_bench::continuous::measure_pcnn;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;

fn main() {
    let settings = RunSettings::from_env(&["--threads"]);
    let params = ScaleParams::for_scale(settings.scale);
    let threads = resolve_adaptation_threads(settings.adaptation_threads.unwrap_or(1));
    let sweep: Vec<usize> = match settings.scale {
        RunScale::Quick => vec![50, 100, 200],
        RunScale::Default => vec![250, 1_000, 4_000],
        RunScale::Paper => vec![1_000, 10_000, 20_000],
    };
    let tau = 0.5;
    let mut report = ExperimentReport::new(
        "figure13_pcnn_vary_objects",
        "PCNN efficiency while varying |D| at tau = 0.5 \
         (paper: Figure 13; TS/SA in seconds, timestamp sets = qualifying (object, set) pairs, \
         MaxLevel/FrontierPeak = lattice depth/width observability)",
    )
    .with_meta("threads", threads as f64);
    let wall_start = Instant::now();
    for d in sweep {
        eprintln!("[fig13] |D| = {d} (threads: {threads})");
        let dataset = build_synthetic(&params, params.num_states, params.branching, d, settings.seed);
        let queries = build_queries(&dataset, &params, settings.seed);
        let m = measure_pcnn(&dataset, &queries, params.num_samples, tau, settings.seed, threads);
        report.push(
            Row::new(format!("|D|={d}"))
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
