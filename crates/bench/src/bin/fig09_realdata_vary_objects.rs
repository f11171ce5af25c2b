//! Figure 9: P∀NNQ / P∃NNQ efficiency on the taxi dataset while varying the
//! number of objects.
//!
//! The paper uses map-matched Beijing T-Drive taxi traces on a 68 902-state
//! road graph. This harness supports both sides of that setup:
//!
//! * `--csv <path>` ingests genuinely T-Drive-formatted traces: the file is
//!   streamed and parsed (`ust_generator::tdrive`), the fixes are snapped
//!   onto the simulated city road graph and discretised into engine tics
//!   (`ust_generator::map_match`), and the shared transition matrix is
//!   learned by aggregating turning counts over the matched traces. Malformed
//!   rows are reported (typed, line-numbered) and skipped. The sweep then
//!   varies how many of the ingested taxis the database contains; requesting
//!   more than the file yields (`--objects N`) surfaces a typed
//!   `UnknownObject` error instead of panicking. Each row carries a `digest`
//!   of the result set (timings excluded), which must be byte-identical
//!   across runs and thread counts — CI asserts exactly that.
//! * without `--csv` the simulated city workload of DESIGN.md §4 is
//!   generated, as before. Paper sweep: |D| ∈ {1k, 10k, 20k}. Reported
//!   series: TS/FA/EX CPU times and |C(q)|/|I(q)|.
//!
//! With `--csv`, three persistence modes ride along (DESIGN.md §10):
//!
//! * `--store <base>` — the fig06/fig08-style round trip: save the engine
//!   state per sweep point, cold-start from the file, digest must match.
//! * `--store <base> --wal` — incremental ingest: hold back each long
//!   trajectory's tail observation, save the shortened store, WAL-append the
//!   tails through `EngineStore::append_batch`, and verify the grown store's
//!   digest against the from-scratch engine. Store + WAL stay on disk.
//! * `--store <base> --wal-recover` — run as a *second process*: load what
//!   `--wal` left behind (replaying the log) and verify the same digest —
//!   the cross-process crash-recovery smoke CI runs on every push.

use ust_bench::datasets::{build_queries, build_taxi, ScaleParams};
use ust_bench::efficiency::measure_efficiency;
use ust_bench::errors::{exit_failure, report_skipped_rows};
use ust_bench::ingest::{ingest_taxi_path, take_objects, IngestedTaxi};
use ust_bench::storecheck::store_roundtrip_check;
use ust_bench::walcheck::{split_holdback, wal_ingest_check, wal_recover_check};
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};
use ust_core::prepare::resolve_adaptation_threads;
use ust_core::{EngineConfig, QueryEngine};
use ust_generator::Dataset;

const BINARY: &str = "fig09_realdata_vary_objects";

fn main() {
    let settings = RunSettings::from_env(&[
        "--threads",
        "--csv",
        "--objects",
        "--store",
        "--wal",
        "--wal-recover",
        "--deadline-ms",
    ]);
    settings.validate_wal_mode();
    if settings.store_path.is_some() && settings.csv_path.is_none() {
        exit_failure(
            BINARY,
            "parsing arguments",
            &"--store on fig09 requires --csv: the store check covers the ingested data",
        );
    }
    let params = ScaleParams::for_scale(settings.scale);
    // The paper's TS series is a *serial* adaptation time, so this figure
    // defaults to one TS worker for comparability across machines; parallel
    // adaptation is opt-in via `--threads N` (`0` = available parallelism),
    // recorded in the report meta. fig06 reports the serial/parallel split
    // explicitly.
    let threads = settings.adaptation_threads.map_or(1, resolve_adaptation_threads);
    let report = match settings.csv_path.clone() {
        Some(path) => run_ingested(&settings, &params, threads, &path),
        None => run_simulated(&settings, &params, threads),
    };
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}

/// The default object sweep of the figure at the given scale.
fn default_sweep(scale: RunScale) -> Vec<usize> {
    match scale {
        RunScale::Quick => vec![50, 100, 200],
        RunScale::Default => vec![250, 1_000, 4_000],
        RunScale::Paper => vec![1_000, 10_000, 20_000],
    }
}

/// The simulated-city path (no `--csv`), unchanged from earlier revisions.
fn run_simulated(settings: &RunSettings, params: &ScaleParams, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "figure09_realdata_vary_objects",
        "Efficiency of P∀NNQ/P∃NNQ on the simulated taxi road network while varying |D| \
         (paper: Figure 9; series TS/FA/EX in seconds, |C(q)|/|I(q)| in objects)",
    )
    .with_meta("adaptation_threads", threads as f64);
    if let Some(ms) = settings.deadline_ms {
        report.set_meta("deadline_ms", ms as f64);
    }
    // `--objects N` pins the sweep in simulated mode too, mirroring --csv.
    let sweep = settings.objects.map_or_else(|| default_sweep(settings.scale), |n| vec![n]);
    for d in sweep {
        eprintln!("[fig09] |D| = {d}");
        let dataset = build_taxi(params, d, settings.seed);
        let queries = build_queries(&dataset, params, settings.seed);
        let config = EngineConfig {
            num_samples: params.num_samples,
            seed: settings.seed,
            adaptation_threads: threads,
            budget: settings.query_budget(),
            ..Default::default()
        };
        let engine = QueryEngine::new(&dataset.database, config);
        let m = match measure_efficiency(&engine, &queries) {
            Ok(m) => m,
            Err(error) => exit_failure(BINARY, "query budget breached", &error),
        };
        report.set_meta(format!("budget_checkpoints_d{d}"), m.budget_checkpoints);
        report.set_meta(format!("worlds_sampled_d{d}"), m.worlds_sampled);
        report.set_meta(format!("degraded_queries_d{d}"), m.degraded_queries as f64);
        report.push(
            Row::new(format!("|D|={d}"))
                .with("TS", m.ts_seconds)
                .with("FA", m.fa_seconds)
                .with("EX", m.ex_seconds)
                .with("|C(q)|", m.candidates)
                .with("|I(q)|", m.influencers),
        );
    }
    report
}

/// The real-data path: ingest a T-Drive CSV and sweep over the ingested taxis.
fn run_ingested(
    settings: &RunSettings,
    params: &ScaleParams,
    threads: usize,
    path: &str,
) -> ExperimentReport {
    let ingested: IngestedTaxi = match ingest_taxi_path(params, path, settings.seed) {
        Ok(i) => i,
        Err(e) => exit_failure(BINARY, &format!("cannot read {path}"), &e),
    };
    report_skipped_rows(BINARY, &ingested.load_errors);
    let summary = ingested.dataset.database.summary();
    if summary.objects == 0 {
        exit_failure(
            BINARY,
            &format!("ingesting {path}"),
            &"no object survived parsing and map matching",
        );
    }
    eprintln!(
        "[fig09] ingested {} objects / {} observations from {path} ({} fixes dropped)",
        summary.objects,
        summary.observations,
        ingested.match_stats.dropped_fixes()
    );

    // With `--objects N` the sweep is exactly N (an over-ask is a typed
    // error); otherwise the scale's default sweep, clamped to the number of
    // ingested taxis and deduplicated.
    let sweep: Vec<usize> = match settings.objects {
        Some(n) => vec![n],
        None => {
            let mut sweep: Vec<usize> = default_sweep(settings.scale)
                .into_iter()
                .map(|d| d.min(summary.objects))
                .collect();
            sweep.dedup();
            sweep
        }
    };

    let mut report = ExperimentReport::new(
        "figure09_realdata_vary_objects",
        "Efficiency of P∀NNQ/P∃NNQ on map-matched T-Drive traces while varying |D| \
         (paper: Figure 9; series TS/FA/EX in seconds, |C(q)|/|I(q)| in objects, \
         digest = thread-independent FNV-1a of the result sets)",
    )
    .with_meta("adaptation_threads", threads as f64)
    .with_meta("csv_lines", ingested.lines as f64)
    .with_meta("load_errors", ingested.load_errors.len() as f64)
    .with_meta("ingested_objects", summary.objects as f64)
    .with_meta("ingested_observations", summary.observations as f64)
    .with_meta("mean_observations", summary.mean_observations())
    .with_meta("dropped_fixes", ingested.match_stats.dropped_fixes() as f64);
    if let Some(ms) = settings.deadline_ms {
        report.set_meta("deadline_ms", ms as f64);
    }
    for d in sweep {
        eprintln!("[fig09] |D| = {d}");
        let database = match take_objects(&ingested.dataset.database, d) {
            Ok(db) => db,
            Err(e) => exit_failure(
                BINARY,
                &format!(
                    "{d} objects requested but only {} were ingested",
                    summary.objects
                ),
                &e,
            ),
        };
        let dataset = Dataset {
            network: ingested.dataset.network.clone(),
            database,
            ground_truth: Default::default(),
        };
        let queries = build_queries(&dataset, params, settings.seed);
        // The measured engine runs under the `--deadline-ms` budget; the
        // store/WAL checks below replay with `config`, which carries none,
        // for their digest comparisons.
        let config = EngineConfig {
            num_samples: params.num_samples,
            seed: settings.seed,
            adaptation_threads: threads,
            ..Default::default()
        };
        let engine = QueryEngine::new(
            &dataset.database,
            EngineConfig { budget: settings.query_budget(), ..config.clone() },
        );
        let m = match measure_efficiency(&engine, &queries) {
            Ok(m) => m,
            Err(error) => exit_failure(BINARY, "query budget breached", &error),
        };
        if let Some(base) = settings.store_path.as_deref() {
            let point = format!("d{d}");
            if settings.wal {
                let holdback = split_holdback(&dataset.database);
                wal_ingest_check(
                    BINARY,
                    &mut report,
                    base,
                    &point,
                    config.clone(),
                    &queries,
                    m.digest,
                    &holdback,
                );
            } else if settings.wal_recover {
                wal_recover_check(
                    BINARY,
                    &mut report,
                    base,
                    &point,
                    config.clone(),
                    &queries,
                    m.digest,
                );
            } else {
                store_roundtrip_check(
                    BINARY, &mut report, base, &point, &engine, config, &queries, &m,
                );
            }
        }
        report.set_meta(format!("budget_checkpoints_d{d}"), m.budget_checkpoints);
        report.set_meta(format!("worlds_sampled_d{d}"), m.worlds_sampled);
        report.set_meta(format!("degraded_queries_d{d}"), m.degraded_queries as f64);
        report.push(
            Row::new(format!("|D|={d}"))
                .with("TS", m.ts_seconds)
                .with("FA", m.fa_seconds)
                .with("EX", m.ex_seconds)
                .with("|C(q)|", m.candidates)
                .with("|I(q)|", m.influencers)
                // 53-bit truncation keeps the digest exactly representable as
                // an f64, so the JSON report round-trips it bit-for-bit.
                .with("digest", (m.digest & ((1 << 53) - 1)) as f64),
        );
    }
    report
}
