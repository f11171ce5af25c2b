//! Crash-safe incremental ingest, end to end (DESIGN.md §10).
//!
//! Three contracts over the WAL-backed append path:
//!
//! * **Recovery equivalence** — append N batches to a live store, "kill" the
//!   process after each one (drop the store, reopen from disk), and the
//!   recovered engine's efficiency-workload digest must be bit-identical to
//!   a from-scratch engine over the same grown database, at every TS-phase
//!   worker count.
//! * **Stale-model invalidation** — a store carries adapted models; an
//!   append to an object makes its model stale. The minted engine must not
//!   answer from that stale model even when nothing clears its cache.
//! * **The crash matrix** — for EVERY fault point the persist crate
//!   registers, arm it once, run the full ingest cycle
//!   (load → append → checkpoint), and reopening the store must yield an
//!   engine whose digest equals either the pre-batch or the post-batch
//!   from-scratch engine — never a third state, and never a panic. The
//!   matrix is enumerated from [`ust_persist::FAULT_POINTS`] with a
//!   `panic!` fallback, so registering a new point fails this suite until
//!   the matrix classifies it.
//!
//! Appends keep the store's UST-tree and mark the touched objects stale;
//! the next mint refreshes it. Every store these tests mint from — recovered,
//! settled, checkpointed or live — must mint a tree equal to a from-scratch
//! build over its database.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use ust_bench::args::RunScale;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::measure_efficiency;
use ust_bench::walcheck::split_holdback;
use ust_core::{EngineConfig, EngineStore, Query, QueryEngine};
use ust_fault::{fired, FaultPlan};
use ust_generator::QueryWorkload;
use ust_index::UstTree;
use ust_persist::{wal, StoreError};
use ust_trajectory::{ObjectId, Observation, TrajectoryDatabase};

/// The fault registry is process-global, so every test of this binary that
/// loads or appends serialises on this lock (see `tests/chaos.rs`).
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick_params() -> ScaleParams {
    let mut params = ScaleParams::for_scale(RunScale::Quick);
    params.num_queries = 2;
    params
}

fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        num_samples: 25,
        seed: 0,
        adaptation_threads: threads,
        index_build_threads: 1,
        ..Default::default()
    }
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ust_store_recovery_{}_{tag}.ustore", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal::wal_path(path));
}

/// Asserts the store's current tree equals `full`, the from-scratch build
/// over the store's database: same diamonds in the same order.
fn assert_from_scratch_tree(store: &EngineStore, full: &UstTree, context: &str) {
    let tree = store.index().unwrap_or_else(|| panic!("{context}: no current tree"));
    assert_eq!(tree.num_objects(), store.database().len(), "{context}: object count");
    assert!(tree.diamonds() == full.diamonds(), "{context}: the tree differs from a full build");
    tree.check_invariants().unwrap_or_else(|e| panic!("{context}: {e}"));
}

/// The result digest of the efficiency workload on `engine`.
fn digest_of(engine: &QueryEngine, queries: &QueryWorkload) -> u64 {
    measure_efficiency(engine, queries).expect("unlimited budget").digest
}

/// The from-scratch digest over `db`: what a crash-free engine answers.
fn fresh_digest(db: &TrajectoryDatabase, queries: &QueryWorkload, threads: usize) -> u64 {
    let engine = QueryEngine::new(db, engine_config(threads));
    digest_of(&engine, queries)
}

/// Peels `n` single-observation batches off the tails of `db`'s objects:
/// returns the shortened base database plus the batches that, appended in
/// order, grow it back to `db`.
type Batch = Vec<(ObjectId, Vec<Observation>)>;

fn peel_batches(db: &TrajectoryDatabase, n: usize) -> (TrajectoryDatabase, Vec<Batch>) {
    let mut batches = Vec::with_capacity(n);
    let mut current = split_holdback(db);
    batches.push(current.batch);
    for _ in 1..n {
        let mut next = split_holdback(&current.pre_database);
        batches.push(std::mem::take(&mut next.batch));
        current = next;
    }
    batches.reverse();
    for batch in &batches {
        assert!(!batch.is_empty(), "the synthetic trajectories are long enough to peel");
    }
    (current.pre_database, batches)
}

#[test]
fn appends_survive_kill_and_reopen_at_every_thread_count() {
    let _guard = fault_lock();
    let params = quick_params();
    let dataset = build_synthetic(&params, 400, params.branching, 40, 0);
    let queries = build_queries(&dataset, &params, 0);
    const BATCHES: usize = 3;
    let (base, batches) = peel_batches(&dataset.database, BATCHES);

    // Reference digests per stage, all from scratch: stage k = base plus the
    // first k batches applied in memory.
    let mut stage = base.clone();
    let mut stage_digests: Vec<Vec<u64>> = Vec::new();
    for batch in &batches {
        for (id, obs) in batch {
            stage.append_observations(*id, obs).expect("the peeled batch re-applies");
        }
        stage_digests
            .push([1usize, 2].iter().map(|&t| fresh_digest(&stage, &queries, t)).collect());
    }
    let full: Vec<u64> =
        [1usize, 2].iter().map(|&t| fresh_digest(&dataset.database, &queries, t)).collect();
    assert_eq!(stage_digests.last(), Some(&full), "all batches together restore the original");

    let path = store_path("equivalence");
    cleanup(&path);
    QueryEngine::new(&base, engine_config(1)).save_store(&path).expect("seed store");

    for (k, batch) in batches.iter().enumerate() {
        // Reopen from disk (replaying every batch so far), append one more,
        // then "kill the process" by dropping the store unchecked.
        let mut store = EngineStore::load(&path).expect("reopen after the kill");
        assert_eq!(store.wal_stats().frames, k, "every prior batch is replayed");
        store.append_batch(batch).expect("the append succeeds");
        drop(store);

        // A second reopen — the recovery — must answer like the from-scratch
        // engine over the same grown database, at every thread count.
        let recovered = EngineStore::load(&path).expect("recovery load succeeds");
        assert!(recovered.index().is_none(), "batch {k}: replay leaves the tree stale");
        for (i, &threads) in [1usize, 2].iter().enumerate() {
            let digest = digest_of(&recovered.engine(engine_config(threads)), &queries);
            assert_eq!(
                digest, stage_digests[k][i],
                "batch {k}: recovered digest diverges at {threads} TS threads"
            );
        }
        let full = UstTree::build(recovered.database());
        assert_from_scratch_tree(&recovered, &full, &format!("batch {k}"));
    }

    // A checkpoint folds everything into the container; the WAL is gone and
    // the reloaded store still answers identically.
    let mut store = EngineStore::load(&path).expect("load before checkpoint");
    store.checkpoint().expect("checkpoint succeeds");
    assert!(!wal::wal_path(&path).exists());
    let reloaded = EngineStore::load(&path).expect("load after checkpoint");
    assert_eq!(reloaded.wal_stats().frames, 0);
    // The checkpoint refreshed the stale tree and wrote it: the reloaded
    // store starts with a current tree over the whole database.
    let full_tree = UstTree::build(&dataset.database);
    assert_from_scratch_tree(&reloaded, &full_tree, "checkpointed store");
    let digest = digest_of(&reloaded.engine(engine_config(1)), &queries);
    assert_eq!(digest, full[0], "the checkpointed store answers like the original");
    cleanup(&path);
}

#[test]
fn appends_invalidate_stale_adapted_models() {
    let _guard = fault_lock();
    let params = quick_params();
    let dataset = build_synthetic(&params, 400, params.branching, 40, 2);
    let queries = build_queries(&dataset, &params, 2);
    let (pre, batches) = peel_batches(&dataset.database, 1);
    let batch = &batches[0];

    // Warm the pre-append engine's cache so the saved store carries adapted
    // models — models trained on the *shortened* trajectories. A query
    // caches only the models of its window's observation brackets, which a
    // store does not persist, so `prepare_all` adapts the whole histories.
    let path = store_path("stale_models");
    cleanup(&path);
    let pre_engine = QueryEngine::new(&pre, engine_config(1));
    measure_efficiency(&pre_engine, &queries).expect("unlimited budget");
    let spec = &queries.queries[0];
    let query = Query::at_point(spec.location, spec.times.iter().copied()).expect("valid query");
    pre_engine.pforall_nn(&query, 0.0).expect("warm-up query succeeds");
    pre_engine.prepare_all().expect("warm-up adaptation succeeds");
    pre_engine.save_store(&path).expect("save succeeds");

    let mut store = EngineStore::load(&path).expect("load succeeds");
    assert!(!store.models().is_empty(), "the store carries adapted models");
    assert!(store.index().is_some(), "the store carries the tree");
    store.append_batch(batch).expect("append succeeds");

    // The derived state of the touched objects is stale or gone...
    assert!(store.index().is_none(), "appends leave the tree stale until the next mint");
    let touched: Vec<ObjectId> = batch.iter().map(|(id, _)| *id).collect();
    assert!(
        store.models().iter().all(|(id, _)| !touched.contains(id)),
        "appends drop the adapted models of the touched objects"
    );

    // ...and a query on the minted engine — whose cache starts pre-warmed
    // with the surviving stored models, nothing cleared — answers exactly
    // like a fresh engine over the grown data. (`measure_efficiency`
    // clears the cache per query, so it could not catch a stale preload;
    // this direct query does.)
    let grown = store.engine(engine_config(1));
    let full = UstTree::build(&dataset.database);
    assert_from_scratch_tree(&store, &full, "the mint after the append");
    let recovered = grown.pforall_nn(&query, 0.0).expect("recovered engine answers");
    let fresh_engine = QueryEngine::new(&dataset.database, engine_config(1));
    let fresh = fresh_engine.pforall_nn(&query, 0.0).expect("fresh engine answers");
    let pairs = |o: &ust_core::QueryOutcome| -> Vec<(u64, u64)> {
        o.results.iter().map(|r| (u64::from(r.object), r.probability.to_bits())).collect()
    };
    assert_eq!(pairs(&recovered), pairs(&fresh), "a stale model leaked into the answer");
    cleanup(&path);
}

/// Runs the full ingest cycle against `path`; any step may fail with the
/// typed error of an armed fault.
fn ingest_cycle(
    path: &PathBuf,
    batch: &[(ObjectId, Vec<Observation>)],
) -> Result<(), StoreError> {
    let mut store = EngineStore::load(path)?;
    store.append_batch(batch)?;
    store.checkpoint()?;
    Ok(())
}

#[test]
fn crash_matrix_recovers_pre_or_post_state_for_every_fault_point() {
    let _guard = fault_lock();
    let params = quick_params();
    let dataset = build_synthetic(&params, 400, params.branching, 40, 1);
    let queries = build_queries(&dataset, &params, 1);
    let (pre, batches) = peel_batches(&dataset.database, 1);
    let batch = &batches[0];
    let pre_digest = fresh_digest(&pre, &queries, 1);
    let post_digest = fresh_digest(&dataset.database, &queries, 1);
    assert_ne!(pre_digest, post_digest, "the batch must be observable in the digest");
    let (pre_tree, post_tree) = (UstTree::build(&pre), UstTree::build(&dataset.database));

    // The whole persist catalog must be classified here: a new fault point
    // hits the `unknown` arm and fails the suite until the matrix covers it.
    for expected in [
        "persist.read.file",
        "persist.write.file",
        "persist.write.sync",
        "persist.write.rename",
        "persist.read.section",
        "persist.wal.append.write",
        "persist.wal.append.sync",
        "persist.wal.replay.read",
        "persist.checkpoint.truncate",
    ] {
        assert!(
            ust_persist::FAULT_POINTS.contains(&expected),
            "{expected} vanished from the catalog; update the crash matrix"
        );
    }

    let path = store_path("matrix");
    for &point in ust_persist::FAULT_POINTS {
        // Classify the point: which cycle step owns it and whether the cycle
        // may absorb it (bounded retries) instead of failing typed.
        let absorbed_ok = match point {
            "persist.read.file" | "persist.read.section" | "persist.wal.replay.read" => false,
            "persist.wal.append.write" | "persist.wal.append.sync" => false,
            "persist.write.file" | "persist.write.sync" | "persist.write.rename"
            | "persist.checkpoint.truncate" => false,
            "persist.read.interrupted" | "persist.write.interrupted" => true,
            other => panic!("unknown fault point {other:?}: extend the crash matrix"),
        };

        // Fresh pre-batch store, no leftover WAL, per point.
        cleanup(&path);
        QueryEngine::new(&pre, engine_config(1)).save_store(&path).expect("seed store");

        let armed = FaultPlan::once(point).arm();
        let outcome = ingest_cycle(&path, batch);
        assert_eq!(fired(point), 1, "{point}: the armed fault must actually fire");
        drop(armed);
        match outcome {
            Ok(()) => assert!(absorbed_ok, "{point}: the cycle absorbed a hard fault"),
            Err(StoreError::Io { .. }) => {
                assert!(!absorbed_ok, "{point}: a bounded-retry point failed typed")
            }
            Err(other) => panic!("{point}: expected StoreError::Io, got {other:?}"),
        }

        // The recovery contract: reopening yields the pre- or the post-batch
        // engine — never a third state, never a panic, never a corrupt load.
        let recovered = EngineStore::load(&path)
            .unwrap_or_else(|e| panic!("{point}: the store no longer loads: {e:?}"));
        let digest = digest_of(&recovered.engine(engine_config(1)), &queries);
        assert!(
            digest == pre_digest || digest == post_digest,
            "{point}: recovered to a third state (digest {digest:#x})"
        );
        let full = if digest == pre_digest { &pre_tree } else { &post_tree };
        assert_from_scratch_tree(&recovered, full, &format!("{point}: recovered"));

        // And with the fault gone, the cycle completes and lands on post.
        drop(recovered);
        ingest_cycle(&path, batch).or_else(|e| match e {
            // The batch may already be fully applied (fault hit after the
            // append took effect); re-appending then collides with itself,
            // which the validator rejects. Checkpoint the recovered state
            // instead.
            StoreError::Malformed { .. } => {
                let mut store = EngineStore::load(&path)?;
                store.checkpoint().map(|_| ())
            }
            other => Err(other),
        })
        .unwrap_or_else(|e| panic!("{point}: no clean cycle after the fault: {e:?}"));
        let settled = EngineStore::load(&path).expect("the settled store loads");
        assert_eq!(settled.wal_stats().frames, 0, "{point}: the checkpoint retired the WAL");
        assert!(settled.index().is_some(), "{point}: the checkpoint wrote the tree");
        let digest = digest_of(&settled.engine(engine_config(1)), &queries);
        assert_eq!(digest, post_digest, "{point}: the disarmed cycle must land on post");
        assert_from_scratch_tree(&settled, &post_tree, &format!("{point}: settled"));
    }
    cleanup(&path);
}
