//! Emits the sampling-kernel performance snapshot (`BENCH_sampling.json`).
//!
//! Measures alias-table vs inverse-CDF draw throughput per row support and
//! block (SoA) vs per-world world-sampling throughput over adapted models of
//! a synthetic workload, then prints the report table and optionally writes
//! the JSON snapshot.
//!
//! CI runs `--quick --json BENCH_sampling.current.json` and diffs the output
//! against the committed `BENCH_sampling.json` baseline with `bench_diff`;
//! refresh the baseline by re-running this binary with
//! `--quick --json BENCH_sampling.json` on the reference machine (see the
//! README's perf-trajectory section).

use ust_bench::perf::{measure_sampling_perf, SamplingPerfConfig};
use ust_bench::{RunScale, RunSettings};

fn main() {
    let settings = RunSettings::from_env(&[]);
    let cfg = match settings.scale {
        RunScale::Quick => SamplingPerfConfig::quick(settings.seed),
        // The snapshot has no paper-scale variant: the trajectory tracks the
        // kernel itself, not paper figure sizes.
        RunScale::Default | RunScale::Paper => SamplingPerfConfig::default_scale(settings.seed),
    };
    let report = measure_sampling_perf(&cfg);
    report.print();
    report.maybe_write_json(&settings.json_path).expect("writing the JSON snapshot succeeds");
}
