//! Figure 8: P∀NNQ / P∃NNQ efficiency while varying the number of objects
//! `|D|` on synthetic data.
//!
//! Paper sweep: |D| ∈ {1k, 10k, 20k}. Default harness sweep: a proportional
//! reduction. Reported series: TS/FA/EX CPU times, |C(q)|/|I(q)|, the
//! UST-tree build time (`IDX`) and a thread-independent `digest` of the
//! result sets — CI runs this figure at `--build-threads 1` and
//! `--build-threads 2` and diffs the digests, witnessing that the sharded
//! index build changes no answer.
//!
//! `--store <base>` additionally exercises the on-disk store round trip at
//! every sweep point: the engine state is saved to `<base>-d<D>.ustore`, a
//! second engine is cold-started from the file and its result digest must
//! match the fresh engine's; store size and load time land in the meta.

use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::measure_efficiency;
use ust_bench::errors::exit_failure;
use ust_bench::storecheck::store_roundtrip_check;
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;
use ust_core::{EngineConfig, QueryEngine};

fn main() {
    let settings =
        RunSettings::from_env(&["--threads", "--build-threads", "--store", "--deadline-ms"]);
    let params = ScaleParams::for_scale(settings.scale);
    // The paper's TS series is a *serial* adaptation time, so this figure
    // defaults to one TS worker for comparability across machines; parallel
    // adaptation is opt-in via `--threads N` (`0` = available parallelism),
    // recorded in the report meta. fig06 reports the serial/parallel split
    // explicitly. The index build defaults to available parallelism — it
    // produces a byte-identical index at every thread count.
    let threads = settings.adaptation_threads.map_or(1, resolve_adaptation_threads);
    let build_threads = settings.build_threads.unwrap_or(0);
    let sweep: Vec<usize> = match settings.scale {
        RunScale::Quick => vec![50, 100, 200],
        RunScale::Default => vec![250, 1_000, 4_000],
        RunScale::Paper => vec![1_000, 10_000, 20_000],
    };
    let mut report = ExperimentReport::new(
        "figure08_vary_objects",
        "Efficiency of P∀NNQ/P∃NNQ while varying the number of objects |D| on synthetic data \
         (paper: Figure 8; series TS/FA/EX in seconds, |C(q)|/|I(q)| in objects, IDX = UST-tree \
         build seconds, digest = thread-independent FNV-1a of the result sets)",
    )
    .with_meta("adaptation_threads", threads as f64)
    .with_meta("index_build_threads", ust_index::par::resolve_threads(build_threads) as f64);
    if let Some(ms) = settings.deadline_ms {
        report.set_meta("deadline_ms", ms as f64);
    }
    for d in sweep {
        eprintln!("[fig08] |D| = {d}");
        let dataset = build_synthetic(&params, params.num_states, params.branching, d, settings.seed);
        let queries = build_queries(&dataset, &params, settings.seed);
        // The measured engine runs under the `--deadline-ms` budget; the
        // store check replays with `config`, which carries none.
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
        let m = match measure_efficiency(&engine, &queries) {
            Ok(m) => m,
            Err(error) => exit_failure("fig08_vary_objects", "query budget breached", &error),
        };
        report.set_meta(format!("budget_checkpoints_d{d}"), m.budget_checkpoints);
        report.set_meta(format!("worlds_sampled_d{d}"), m.worlds_sampled);
        report.set_meta(format!("worlds_requested_d{d}"), m.worlds_requested);
        report.set_meta(format!("degraded_queries_d{d}"), m.degraded_queries as f64);
        if let Some(base) = &settings.store_path {
            store_roundtrip_check(
                "fig08_vary_objects",
                &mut report,
                base,
                &format!("d{d}"),
                &engine,
                config,
                &queries,
                &m,
            );
        }
        report.set_meta(format!("index_build_seconds_d{d}"), build.build_time.as_secs_f64());
        report.set_meta(format!("index_diamonds_d{d}"), build.diamonds as f64);
        report.set_meta(format!("reach_memo_hits_d{d}"), build.reach_memo_hits as f64);
        report.push(
            Row::new(format!("|D|={d}"))
                .with("TS", m.ts_seconds)
                .with("FA", m.fa_seconds)
                .with("EX", m.ex_seconds)
                .with("|C(q)|", m.candidates)
                .with("|I(q)|", m.influencers)
                .with("IDX", build.build_time.as_secs_f64())
                // 53-bit truncation keeps the digest exactly representable as
                // an f64 series value.
                .with("digest", (m.digest & ((1 << 53) - 1)) as f64),
        );
    }
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
