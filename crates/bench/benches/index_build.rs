//! Index-build benchmark: the UST-tree build and filter-phase trajectory at
//! the *maxima* of the paper's sweep axes (`--scale paper` = 500k states /
//! 20k objects), which the mid-point figure defaults never reach.
//!
//! Not a criterion micro-bench (`harness = false`): one build at paper scale
//! is minutes of work, so the bench runs each configuration once and reports
//! an [`ExperimentReport`] with the wall times in its meta — the same
//! machine-readable shape as the figure binaries.
//!
//! What perfbench cannot show: its `index.build_ms` times builds of its own
//! fixed-size database, so only this bench reaches the paper-scale sweep
//! maxima, compares the sharded build and the no-memo baseline against the
//! serial one, and times the append path's refresh apart from the engine
//! mint around it.
//!
//! Measured configurations:
//!
//! * `build(serial)` — `build_threads = 1`, reach memo on: the deterministic
//!   baseline every other build must be byte-identical to.
//! * `build(sharded)` — `--build-threads` workers (default: available
//!   parallelism): the scoped per-object fan-out.
//! * `build(no-memo)` — serial with the reach memo disabled: re-runs the
//!   forward/backward BFS for every segment, measuring what the
//!   commute-geometry memo saves (skipped at paper scale, where running the
//!   un-memoized build twice would dominate the bench).
//! * `refresh(append)` / `refresh(replay)` — the append path: a serial tree
//!   over the dataset with every long trajectory's last observation held
//!   back ([`split_holdback`]) is refreshed, on one thread, over the
//!   database grown by that observation for the first
//!   [`APPEND_OBJECTS`] objects (one epoch of appends) or for every object
//!   (a WAL replay before the first mint). Each refresh must equal a serial
//!   full build over the grown database; the row reports the fastest of
//!   [`REFRESH_RUNS`] refreshes, since one takes about a millisecond at
//!   quick scale. Skipped at paper scale with the no-memo row.
//! * `filter` — the streamed `try_prune_knn` (k = 1) over the query workload
//!   on the shared build: the dense-bounds filter phase the engines run.
//!
//! Usage: `cargo bench -p ust-bench --bench index_build -- --scale paper`.

use std::convert::Infallible;
use std::time::Instant;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::{fnv_fold, FNV_OFFSET};
use ust_bench::walcheck::split_holdback;
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};
use ust_core::Query;
use ust_index::{ObjectId, UstTree, UstTreeConfig};

/// Objects the `refresh(append)` row appends to: one epoch of appends.
const APPEND_OBJECTS: usize = 8;

/// Refreshes per refresh row; the row reports the fastest.
const REFRESH_RUNS: usize = 5;

/// FNV-1a digest of the full diamond stream (object ids, time intervals,
/// MBR bit patterns): byte-identical builds have equal digests.
fn index_digest(tree: &UstTree) -> u64 {
    let mut d = FNV_OFFSET;
    for diamond in tree.diamonds() {
        d = fnv_fold(d, u64::from(diamond.object));
        d = fnv_fold(d, u64::from(diamond.t_start));
        d = fnv_fold(d, u64::from(diamond.t_end));
        for r in std::iter::once(&diamond.mbr).chain(&diamond.per_time) {
            for v in r.min.iter().chain(r.max.iter()) {
                d = fnv_fold(d, v.to_bits());
            }
        }
    }
    d
}

fn main() {
    let settings = RunSettings::from_env(&["--build-threads"]);
    let params = ScaleParams::for_scale(settings.scale);
    let (num_states, num_objects) = ScaleParams::index_build_target(settings.scale);
    let build_threads = settings.build_threads.unwrap_or(0);

    eprintln!("[index_build] dataset: {num_states} states, {num_objects} objects");
    let gen_start = Instant::now();
    let dataset =
        build_synthetic(&params, num_states, params.branching, num_objects, settings.seed);
    let queries = build_queries(&dataset, &params, settings.seed);
    eprintln!("[index_build] dataset generated in {:.1}s", gen_start.elapsed().as_secs_f64());

    let mut report = ExperimentReport::new(
        "index_build",
        "UST-tree build and filter phase at the paper sweep maxima (500k states / 20k objects \
         at --scale paper); rows: build(serial) = 1 thread + reach memo, build(sharded) = \
         --build-threads workers, build(no-memo) = serial with the memo disabled (quick/default \
         scales only), refresh(append) / refresh(replay) = a serial refresh after 8 objects' / \
         every object's held-back tail is appended (quick/default scales only, fastest of 5), \
         filter = streamed prune over the query workload; wall times are repeated in the meta \
         section",
    )
    .with_meta("num_states", num_states as f64)
    .with_meta("num_objects", num_objects as f64);

    // Serial baseline.
    let serial_cfg = UstTreeConfig { build_threads: 1, ..Default::default() };
    let serial = UstTree::build_with(&dataset.database, &serial_cfg);
    let serial_stats = *serial.build_stats();
    eprintln!(
        "[index_build] serial build: {:.1}s, {} diamonds, memo hit rate {:.1}%",
        serial_stats.build_time.as_secs_f64(),
        serial_stats.diamonds,
        serial_stats.memo_hit_rate() * 100.0
    );
    let serial_digest = index_digest(&serial);
    report.set_meta("build_seconds_serial", serial_stats.build_time.as_secs_f64());
    report.set_meta("diamonds", serial_stats.diamonds as f64);
    report.set_meta("segments", serial_stats.segments as f64);
    report.set_meta("reach_memo_hits", serial_stats.reach_memo_hits as f64);
    report.set_meta("reach_memo_hit_rate", serial_stats.memo_hit_rate());
    report.set_meta("peak_frontier", serial_stats.peak_frontier as f64);
    report.push(
        Row::new("build(serial)")
            .with("seconds", serial_stats.build_time.as_secs_f64())
            .with("threads", 1.0)
            .with("diamonds", serial_stats.diamonds as f64)
            .with("memo_hits", serial_stats.reach_memo_hits as f64),
    );

    // Sharded build; must be byte-identical to the serial baseline.
    let sharded_cfg = UstTreeConfig { build_threads, ..Default::default() };
    let sharded = UstTree::build_with(&dataset.database, &sharded_cfg);
    let sharded_stats = *sharded.build_stats();
    eprintln!(
        "[index_build] sharded build ({} threads): {:.1}s",
        sharded_stats.build_threads,
        sharded_stats.build_time.as_secs_f64()
    );
    let identical = index_digest(&sharded) == serial_digest;
    assert!(identical, "sharded build diverged from the serial baseline");
    report.set_meta("build_seconds_sharded", sharded_stats.build_time.as_secs_f64());
    report.set_meta("build_threads", sharded_stats.build_threads as f64);
    report.set_meta("sharded_identical", f64::from(identical));
    report.push(
        Row::new("build(sharded)")
            .with("seconds", sharded_stats.build_time.as_secs_f64())
            .with("threads", sharded_stats.build_threads as f64)
            .with("diamonds", sharded_stats.diamonds as f64)
            .with("memo_hits", sharded_stats.reach_memo_hits as f64),
    );

    // No-memo baseline: what the commute-geometry memo saves. Skipped at
    // paper scale — the whole point of the memo is that the un-memoized BFS
    // sweep is too slow there.
    if settings.scale != RunScale::Paper {
        let no_memo_cfg =
            UstTreeConfig { build_threads: 1, reach_memo: false, ..Default::default() };
        let no_memo = UstTree::build_with(&dataset.database, &no_memo_cfg);
        let no_memo_stats = *no_memo.build_stats();
        assert_eq!(index_digest(&no_memo), serial_digest, "memo changed the built index");
        let speedup = no_memo_stats.build_time.as_secs_f64()
            / serial_stats.build_time.as_secs_f64().max(1e-12);
        report.set_meta("build_seconds_no_memo", no_memo_stats.build_time.as_secs_f64());
        report.set_meta("memo_speedup", speedup);
        report.push(
            Row::new("build(no-memo)")
                .with("seconds", no_memo_stats.build_time.as_secs_f64())
                .with("threads", 1.0)
                .with("diamonds", no_memo_stats.diamonds as f64)
                .with("memo_hits", 0.0),
        );
    }

    // Append path: refresh a tree over the held-back database. Skipped at
    // paper scale, like the no-memo row.
    if settings.scale != RunScale::Paper {
        let holdback = split_holdback(&dataset.database);
        let base = UstTree::build_with(&holdback.pre_database, &serial_cfg);
        let epoch = &holdback.batch[..APPEND_OBJECTS.min(holdback.batch.len())];
        for (label, key, entries) in [
            ("refresh(append)", "append", epoch),
            ("refresh(replay)", "replay", &holdback.batch[..]),
        ] {
            let mut grown = holdback.pre_database.clone();
            for (id, obs) in entries {
                grown.append_observations(*id, obs).expect("held-back tails extend their objects");
            }
            let stale: Vec<ObjectId> = entries.iter().map(|(id, _)| *id).collect();
            let refreshed = (0..REFRESH_RUNS)
                .map(|_| base.refresh(&grown, &stale, 1))
                .min_by_key(|tree| tree.build_stats().build_time)
                .expect("at least one refresh");
            let full = UstTree::build_with(&grown, &serial_cfg);
            assert_eq!(
                index_digest(&refreshed),
                index_digest(&full),
                "{label} diverged from a full build over the grown database"
            );
            let stats = *refreshed.build_stats();
            report.set_meta(format!("refresh_seconds_{key}"), stats.build_time.as_secs_f64());
            report.set_meta(format!("refresh_segments_{key}"), stats.segments as f64);
            report.push(
                Row::new(label)
                    .with("seconds", stats.build_time.as_secs_f64())
                    .with("threads", 1.0)
                    .with("diamonds", stats.diamonds as f64)
                    .with("memo_hits", stats.reach_memo_hits as f64),
            );
        }
    }

    // Filter phase: the streamed dense-bounds prune over the workload.
    let start = Instant::now();
    let mut candidates = 0usize;
    let mut influencers = 0usize;
    for spec in &queries.queries {
        let query = Query::at_point(spec.location, spec.times.iter().copied())
            .expect("workload queries are well-formed");
        let Ok(result) = serial.try_prune_knn(
            query.times(),
            |t| query.position_at(t).expect("query validated"),
            1,
            |_| Ok::<(), Infallible>(()),
        );
        candidates += result.num_candidates();
        influencers += result.num_influencers();
    }
    let filter_seconds = start.elapsed().as_secs_f64();
    let n = queries.queries.len().max(1) as f64;
    report.set_meta("filter_seconds_per_query", filter_seconds / n);
    report.push(
        Row::new("filter")
            .with("seconds", filter_seconds / n)
            .with("threads", 1.0)
            .with("|C(q)|", candidates as f64 / n)
            .with("|I(q)|", influencers as f64 / n),
    );

    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
