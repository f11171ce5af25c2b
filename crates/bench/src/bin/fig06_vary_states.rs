//! Figure 6: P∀NNQ / P∃NNQ efficiency while varying the number of states `N`.
//!
//! Paper sweep: N ∈ {10k, 100k, 500k}. Default harness sweep: a proportional
//! reduction (see DESIGN.md §3). Reported series: CPU time of the adaptation
//! phase — serially (`TS1`) and fanned out across the configured worker
//! threads (`TSp`, `--threads N`, `0` = available parallelism) — of the
//! P∀NNQ sampling (FA) and of the P∃NNQ sampling (EX), plus the candidate and
//! influence set sizes |C(q)| and |I(q)| and the per-query cold adaptation
//! count. The `TS1/TSp` ratio is the measured TS-phase speedup.
//!
//! `--store <base>` additionally exercises the on-disk store round trip at
//! every sweep point: the engine state is saved to `<base>-n<N>.ustore`, a
//! second engine is cold-started from the file and its result digest must
//! match the fresh engine's; store size and load time land in the meta.

use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::{measure_efficiency, measure_ts_phase};
use ust_bench::errors::exit_failure;
use ust_bench::storecheck::store_roundtrip_check;
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;
use ust_core::{EngineConfig, QueryEngine};

fn main() {
    let settings =
        RunSettings::from_env(&["--threads", "--build-threads", "--store", "--deadline-ms"]);
    let params = ScaleParams::for_scale(settings.scale);
    let threads = resolve_adaptation_threads(settings.adaptation_threads.unwrap_or(0));
    let build_threads = settings.build_threads.unwrap_or(0);
    let sweep: Vec<usize> = match settings.scale {
        RunScale::Quick => vec![1_000, 2_000, 4_000],
        RunScale::Default => vec![2_000, 10_000, 50_000],
        RunScale::Paper => vec![10_000, 100_000, 500_000],
    };
    let mut report = ExperimentReport::new(
        "figure06_vary_states",
        "Efficiency of P∀NNQ/P∃NNQ while varying the number of states N \
         (paper: Figure 6; series TS1 = serial adaptation, TSp = adaptation \
         with the configured thread count, speedup = TS1/TSp, FA/EX in \
         seconds, |C(q)|/|I(q)| in objects, cold = adaptations per query, \
         IDX = UST-tree build seconds at the configured --build-threads)",
    )
    .with_meta("adaptation_threads", threads as f64)
    .with_meta("index_build_threads", ust_index::par::resolve_threads(build_threads) as f64);
    if let Some(ms) = settings.deadline_ms {
        report.set_meta("deadline_ms", ms as f64);
    }
    for n in sweep {
        eprintln!("[fig06] N = {n} (TS threads: {threads})");
        let dataset = build_synthetic(&params, n, params.branching, params.num_objects, settings.seed);
        let queries = build_queries(&dataset, &params, settings.seed);
        // One UST-tree build serves both measurements: the serial TS
        // baseline first — a one-thread engine over the shared index, no
        // Monte-Carlo refinement and no budget — then the full parallel
        // measurement under the `--deadline-ms` budget. The store check
        // replays with `config`, which carries no budget either.
        let config = EngineConfig {
            num_samples: params.num_samples,
            seed: settings.seed,
            adaptation_threads: threads,
            index_build_threads: build_threads,
            ..Default::default()
        };
        let engine = QueryEngine::new(
            &dataset.database,
            EngineConfig { budget: settings.query_budget(), ..config.clone() },
        );
        let build = *engine.index_build_stats().expect("filter step enabled");
        report.set_meta(format!("index_build_seconds_n{n}"), build.build_time.as_secs_f64());
        report.set_meta(format!("reach_memo_hits_n{n}"), build.reach_memo_hits as f64);
        let serial = QueryEngine::with_index(
            &dataset.database,
            engine.shared_index().expect("filter step enabled"),
            EngineConfig { adaptation_threads: 1, ..config.clone() },
        );
        let ts_serial = match measure_ts_phase(&serial, &queries) {
            Ok(ts) => ts,
            Err(error) => exit_failure("fig06_vary_states", "serial TS baseline", &error),
        };
        let m = match measure_efficiency(&engine, &queries) {
            Ok(m) => m,
            Err(error) => exit_failure("fig06_vary_states", "query budget breached", &error),
        };
        report.set_meta(format!("budget_checkpoints_n{n}"), m.budget_checkpoints);
        report.set_meta(format!("worlds_sampled_n{n}"), m.worlds_sampled);
        report.set_meta(format!("worlds_requested_n{n}"), m.worlds_requested);
        report.set_meta(format!("degraded_queries_n{n}"), m.degraded_queries as f64);
        if let Some(base) = &settings.store_path {
            store_roundtrip_check(
                "fig06_vary_states",
                &mut report,
                base,
                &format!("n{n}"),
                &engine,
                config,
                &queries,
                &m,
            );
        }
        let speedup = if m.ts_seconds > 0.0 { ts_serial / m.ts_seconds } else { 1.0 };
        report.push(
            Row::new(format!("|S|={n}"))
                .with("TS1", ts_serial)
                .with("TSp", m.ts_seconds)
                .with("speedup", speedup)
                .with("FA", m.fa_seconds)
                .with("EX", m.ex_seconds)
                .with("|C(q)|", m.candidates)
                .with("|I(q)|", m.influencers)
                .with("cold", m.cold_adaptations)
                .with("IDX", build.build_time.as_secs_f64()),
        );
    }
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
