//! Figure 7: P∀NNQ / P∃NNQ efficiency while varying the branching factor `b`.
//!
//! Paper sweep: b ∈ {6, 8, 10} (identical here). Reported series: TS/FA/EX
//! CPU times and candidate/influence set sizes.

use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::measure_efficiency;
use ust_bench::errors::exit_failure;
use ust_bench::{ExperimentReport, Row, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;
use ust_core::{EngineConfig, QueryEngine};

fn main() {
    let settings = RunSettings::from_env(&["--threads"]);
    let params = ScaleParams::for_scale(settings.scale);
    // The paper's TS series is a *serial* adaptation time, so this figure
    // defaults to one TS worker for comparability across machines; parallel
    // adaptation is opt-in via `--threads N` (`0` = available parallelism),
    // recorded in the report meta. fig06 reports the serial/parallel split
    // explicitly.
    let threads = settings.adaptation_threads.map_or(1, resolve_adaptation_threads);
    let mut report = ExperimentReport::new(
        "figure07_vary_branching",
        "Efficiency of P∀NNQ/P∃NNQ while varying the branching factor b \
         (paper: Figure 7; series TS/FA/EX in seconds, |C(q)|/|I(q)| in objects)",
    )
    .with_meta("adaptation_threads", threads as f64);
    for b in [6.0, 8.0, 10.0] {
        eprintln!("[fig07] b = {b}");
        let dataset =
            build_synthetic(&params, params.num_states, b, params.num_objects, settings.seed);
        let queries = build_queries(&dataset, &params, settings.seed);
        let config = EngineConfig {
            num_samples: params.num_samples,
            seed: settings.seed,
            adaptation_threads: threads,
            ..Default::default()
        };
        let engine = QueryEngine::new(&dataset.database, config);
        let m = match measure_efficiency(&engine, &queries) {
            Ok(m) => m,
            Err(error) => exit_failure("fig07_vary_branching", "query evaluation", &error),
        };
        report.push(
            Row::new(format!("b={b}"))
                .with("TS", m.ts_seconds)
                .with("FA", m.fa_seconds)
                .with("EX", m.ex_seconds)
                .with("|C(q)|", m.candidates)
                .with("|I(q)|", m.influencers),
        );
    }
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
