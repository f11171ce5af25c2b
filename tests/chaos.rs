//! Chaos suite (DESIGN.md §8): every registered fault point is armed and
//! fired against the full stack, and the outcome must always be one of
//!
//! * a **typed error** (`StoreError::Io`, a trailing `LoadErrorKind::Io` row,
//!   a propagated worker panic caught at the test boundary), or
//! * a **clean absorbed result** (bounded retries swallow the injected
//!   `Interrupted`), never a hang, and never a poisoned cache or index —
//!
//! and after disarming, the *same* engine (or a rebuild over the same data)
//! must answer exactly like one that never saw a fault.
//!
//! The fault registry is process-global, so every test serialises on
//! [`chaos_lock`]. The per-point drivers are matched by name with a
//! `panic!("unknown fault point")` fallback: registering a new point in any
//! crate's `FAULT_POINTS` catalog fails this suite until a driver exists.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use ust_core::{EngineConfig, EngineStore, Query, QueryEngine};
use ust_fault::{fired, hits, FaultPlan};
use ust_markov::{CsrMatrix, MarkovModel, StateId};
use ust_persist::{read_store, write_store, StoreContents, StoreError};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{Observation, TrajectoryDatabase, UncertainObject};

/// Serialises the chaos tests: exactly one fault plan is armed at a time.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panic inside `catch_unwind` never poisons this guard, but be robust
    // against an assertion failing while held.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Gap between the two observations pinning every object.
const GAP: u32 = 6;

/// The ring-walk fixture of the core test suites, small enough that every
/// clean run completes in milliseconds.
fn ring_db(num_states: usize, num_objects: u32) -> TrajectoryDatabase {
    let points: Vec<Point> = (0..num_states)
        .map(|i| {
            let a = (i as f64) / (num_states as f64) * std::f64::consts::TAU;
            Point::new(a.cos(), a.sin())
        })
        .collect();
    let space = Arc::new(StateSpace::from_points(points));
    let rows: Vec<Vec<(StateId, f64)>> = (0..num_states)
        .map(|i| {
            let fwd = ((i + 1) % num_states) as StateId;
            let bwd = ((i + num_states - 1) % num_states) as StateId;
            vec![(bwd, 0.25), (i as StateId, 0.5), (fwd, 0.25)]
        })
        .collect();
    let model = Arc::new(MarkovModel::homogeneous(CsrMatrix::from_rows(rows)));
    let objects: Vec<UncertainObject> = (1..=num_objects)
        .map(|id| {
            let start = ((id as usize * 7) % num_states) as StateId;
            let end = ((start as usize + 2) % num_states) as StateId;
            UncertainObject::from_pairs(id, vec![(0, start), (GAP, end)])
                .expect("observations are sorted")
        })
        .collect();
    TrajectoryDatabase::with_objects(space, model, objects)
}

fn ring_query() -> Query {
    Query::at_point(Point::new(1.2, 0.0), 0..=GAP).expect("valid query")
}

/// A per-test temp path under the system temp dir.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnnq-chaos-{}-{tag}", std::process::id()))
}

/// A well-formed four-row T-Drive document (two taxis).
const TDRIVE_CSV: &str = "\
1,2008-02-02 15:36:08,116.51172,39.92123
1,2008-02-02 15:46:08,116.51135,39.93883
2,2008-02-02 15:36:08,116.56444,39.92472
2,2008-02-02 15:46:08,116.57361,39.92619
";

/// How one armed fault point is allowed to surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The subsystem returned its typed error.
    TypedError,
    /// Bounded retries absorbed the fault; the result is clean.
    Absorbed,
    /// The injected panic propagated (and is caught at the test boundary).
    Panicked,
}

/// Runs the subsystem that owns `point` with the fault already armed and
/// classifies what happened. Every driver also proves the *clean* half of
/// the contract when called with no plan armed (see
/// [`catalog_sweep_fires_every_registered_point`]).
fn drive(point: &str) -> Outcome {
    match point {
        "core.adapt.worker" => {
            let db = ring_db(48, 6);
            let engine = QueryEngine::new(&db, EngineConfig::with_samples(20));
            match catch_unwind(AssertUnwindSafe(|| engine.pforall_nn(&ring_query(), 0.0))) {
                Ok(Ok(_)) => Outcome::Absorbed,
                Ok(Err(_)) => Outcome::TypedError,
                Err(_) => Outcome::Panicked,
            }
        }
        "index.build.shard" => {
            let db = ring_db(48, 6);
            match catch_unwind(AssertUnwindSafe(|| {
                QueryEngine::new(&db, EngineConfig::with_samples(20))
            })) {
                Ok(_) => Outcome::Absorbed,
                Err(_) => Outcome::Panicked,
            }
        }
        "persist.write.file" | "persist.write.interrupted" | "persist.write.sync"
        | "persist.write.rename" => {
            let db = ring_db(32, 4);
            let path = temp_path(&format!("{point}.ustore"));
            let contents = StoreContents { database: &db, index: None, models: &[] };
            let outcome = match write_store(&path, &contents) {
                Ok(_) => {
                    read_store(&path).expect("an absorbed write leaves a valid store behind");
                    Outcome::Absorbed
                }
                Err(StoreError::Io { .. }) => Outcome::TypedError,
                Err(other) => panic!("{point}: expected StoreError::Io, got {other:?}"),
            };
            let _ = std::fs::remove_file(&path);
            outcome
        }
        "persist.read.file" | "persist.read.interrupted" | "persist.read.section" => {
            let db = ring_db(32, 4);
            let path = temp_path(&format!("{point}.ustore"));
            let contents = StoreContents { database: &db, index: None, models: &[] };
            // The armed plan names a read point, so this write runs clean.
            write_store(&path, &contents).expect("writing the fixture store succeeds");
            let outcome = match read_store(&path) {
                Ok(loaded) => {
                    assert_eq!(loaded.database.len(), db.len(), "absorbed read loads everything");
                    Outcome::Absorbed
                }
                Err(StoreError::Io { .. }) => Outcome::TypedError,
                Err(other) => panic!("{point}: expected StoreError::Io, got {other:?}"),
            };
            let _ = std::fs::remove_file(&path);
            outcome
        }
        "persist.wal.append.write" | "persist.wal.append.sync" | "persist.wal.replay.read"
        | "persist.checkpoint.truncate" => {
            let db = ring_db(32, 4);
            let path = temp_path(&format!("{point}.ustore"));
            let wal = ust_persist::wal::wal_path(&path);
            let _ = std::fs::remove_file(&wal);
            let contents = StoreContents { database: &db, index: None, models: &[] };
            // The armed plan names a WAL point, so this write runs clean.
            write_store(&path, &contents).expect("writing the fixture store succeeds");
            let batch = vec![(1u32, vec![Observation::new(GAP + 1, 0), Observation::new(GAP + 3, 1)])];
            // The ingest cycle the point lives in: load (replays the WAL),
            // append a batch, checkpoint it back into the container. The
            // armed fault surfaces from whichever step owns it.
            let cycle = || -> Result<(), StoreError> {
                let mut store = EngineStore::load(&path)?;
                store.append_batch(&batch)?;
                store.checkpoint()?;
                Ok(())
            };
            let outcome = match cycle() {
                Ok(()) => {
                    let reloaded = EngineStore::load(&path).expect("a clean cycle reloads");
                    assert_eq!(
                        reloaded.database().object(1).map(|o| o.last_time()),
                        Some(GAP + 3),
                        "a clean cycle persisted the appended batch"
                    );
                    Outcome::Absorbed
                }
                Err(StoreError::Io { .. }) => Outcome::TypedError,
                Err(other) => panic!("{point}: expected StoreError::Io, got {other:?}"),
            };
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&wal);
            outcome
        }
        "tdrive.open" | "tdrive.read.line" | "tdrive.read.interrupted" => {
            let path = temp_path(&format!("{point}.csv"));
            std::fs::write(&path, TDRIVE_CSV).expect("writing the fixture CSV succeeds");
            let outcome = match ust_generator::tdrive::load_path(&path) {
                Err(_) => Outcome::TypedError,
                Ok(loaded) if loaded.errors.is_empty() => {
                    assert_eq!(loaded.fixes.len(), 4, "absorbed read parses every row");
                    Outcome::Absorbed
                }
                // A mid-stream read error is a typed, line-numbered row; the
                // fixes before it are kept (degraded, not lost).
                Ok(_) => Outcome::TypedError,
            };
            let _ = std::fs::remove_file(&path);
            outcome
        }
        other => panic!("unknown fault point {other:?}: add a chaos driver for it"),
    }
}

/// The expected failure mode per point. The panic points crash, the
/// `*.interrupted` points are absorbed by their bounded retries, everything
/// else is a typed error.
fn expected(point: &str) -> Outcome {
    if point == "core.adapt.worker" || point == "index.build.shard" {
        Outcome::Panicked
    } else if point.ends_with(".interrupted") {
        Outcome::Absorbed
    } else {
        Outcome::TypedError
    }
}

/// Every crate's catalog, in one place.
fn full_catalog() -> Vec<&'static str> {
    let mut all = Vec::new();
    for catalog in [
        ust_core::FAULT_POINTS,
        ust_index::FAULT_POINTS,
        ust_persist::FAULT_POINTS,
        ust_generator::FAULT_POINTS,
    ] {
        assert!(!catalog.is_empty(), "every instrumented crate registers its points");
        all.extend_from_slice(catalog);
    }
    all
}

#[test]
fn catalog_sweep_fires_every_registered_point() {
    let _guard = chaos_lock();
    for point in full_catalog() {
        assert!(
            point.split('.').count() >= 2 && point.is_ascii(),
            "{point:?} breaks the <area>.<operation>[.<failure>] naming convention"
        );
        let armed = FaultPlan::once(point).arm();
        let outcome = drive(point);
        assert_eq!(
            fired(point),
            1,
            "{point}: the armed occurrence must actually be reached and fire"
        );
        assert_eq!(outcome, expected(point), "{point}: wrong failure mode");
        drop(armed);
        // Recovery: with the plan disarmed, the same driver must run clean —
        // no cache slot, claim or on-disk state left poisoned.
        assert_eq!(drive(point), Outcome::Absorbed, "{point}: no clean rerun after the fault");
    }
}

#[test]
fn interrupted_reads_are_absorbed_then_exhausted() {
    let _guard = chaos_lock();
    let db = ring_db(32, 4);
    let path = temp_path("eintr.ustore");
    let contents = StoreContents { database: &db, index: None, models: &[] };
    write_store(&path, &contents).expect("writing the fixture store succeeds");

    // Three interruptions: under the retry bound, absorbed without a trace.
    let armed = FaultPlan::new().with("persist.read.interrupted", 0, 3).arm();
    read_store(&path).expect("three interruptions are absorbed");
    assert_eq!(fired("persist.read.interrupted"), 3);
    drop(armed);

    // More interruptions than MAX_IO_RETRIES: the typed error surfaces
    // instead of looping forever.
    let armed = FaultPlan::new().with("persist.read.interrupted", 0, 1000).arm();
    let err = read_store(&path).expect_err("a signal storm is bounded, not retried forever");
    assert!(matches!(err, StoreError::Io { .. }), "expected StoreError::Io, got {err:?}");
    drop(armed);

    // Same contract on the T-Drive loader, whose exhaustion surfaces as a
    // trailing line-numbered I/O row with the already-parsed rows kept.
    let csv = temp_path("eintr.csv");
    std::fs::write(&csv, TDRIVE_CSV).expect("writing the fixture CSV succeeds");
    let armed = FaultPlan::new().with("tdrive.read.interrupted", 2, 1000).arm();
    let loaded = ust_generator::tdrive::load_path(&csv).expect("the open itself succeeds");
    assert_eq!(loaded.fixes.len(), 2, "rows before the storm are kept");
    assert_eq!(loaded.errors.len(), 1, "the exhausted retry is one typed trailing row");
    drop(armed);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn worker_panic_releases_claims_and_the_engine_recovers() {
    let _guard = chaos_lock();
    let db = ring_db(48, 12);
    for threads in [1usize, 2] {
        let config = EngineConfig { adaptation_threads: threads, ..EngineConfig::with_samples(20) };
        let engine = QueryEngine::new(&db, config.clone());
        let armed = FaultPlan::once("core.adapt.worker").arm();
        let result = catch_unwind(AssertUnwindSafe(|| engine.pforall_nn(&ring_query(), 0.0)));
        assert!(result.is_err(), "threads={threads}: the injected worker panic propagates");
        drop(armed);
        assert_eq!(
            engine.cache_stats().cached_failures,
            0,
            "threads={threads}: a panicked adaptation must not be cached as a failure"
        );
        // The same engine — panicked claim released — answers exactly like a
        // fresh one over the same data.
        let recovered = engine.pforall_nn(&ring_query(), 0.0).unwrap_or_else(|e| {
            panic!("threads={threads}: the engine answers after the panic: {e:?}")
        });
        let fresh = QueryEngine::new(&db, config)
            .pforall_nn(&ring_query(), 0.0)
            .expect("a fresh engine answers");
        let pairs = |o: &ust_core::QueryOutcome| -> Vec<(u64, u64)> {
            o.results.iter().map(|r| (u64::from(r.object), r.probability.to_bits())).collect()
        };
        assert_eq!(pairs(&recovered), pairs(&fresh), "threads={threads}: answers diverge");
    }
}

#[test]
fn index_build_panic_recovers_on_rebuild() {
    let _guard = chaos_lock();
    let db = ring_db(48, 6);
    let armed = FaultPlan::once("index.build.shard").arm();
    let result = catch_unwind(AssertUnwindSafe(|| {
        QueryEngine::new(&db, EngineConfig::with_samples(20))
    }));
    assert!(result.is_err(), "the injected build panic propagates");
    drop(armed);
    // Nothing survives a failed build: rebuilding over the same database
    // yields a fully working engine.
    let engine = QueryEngine::new(&db, EngineConfig::with_samples(20));
    let outcome = engine.pforall_nn(&ring_query(), 0.0).expect("the rebuilt engine answers");
    assert!(!outcome.results.is_empty() || outcome.stats.candidates == 0);
}

#[test]
fn index_refresh_panic_caches_nothing() {
    let _guard = chaos_lock();
    let db = ring_db(48, 6);
    let path = temp_path("refresh.ustore");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ust_persist::wal::wal_path(&path));
    QueryEngine::new(&db, EngineConfig::with_samples(20))
        .save_store(&path)
        .expect("the initial save succeeds");
    let mut store = EngineStore::load(&path).expect("the store loads");
    // Objects 2 and 3 walk one more state along the ring; object 7 is new.
    let batch = vec![
        (2, vec![Observation::new(GAP + 3, 17)]),
        (3, vec![Observation::new(GAP + 1, 24)]),
        (7, vec![Observation::new(1, 5), Observation::new(4, 6)]),
    ];
    store.append_batch(&batch).expect("the append succeeds");
    let fresh = QueryEngine::new(store.database(), EngineConfig::with_samples(20));
    let expected = fresh.pforall_nn(&ring_query(), 0.0).expect("the fresh engine answers");

    for threads in [1usize, 2] {
        let config =
            EngineConfig { index_build_threads: threads, ..EngineConfig::with_samples(20) };
        let armed = FaultPlan::once("index.build.shard").arm();
        let result = catch_unwind(AssertUnwindSafe(|| drop(store.engine(config.clone()))));
        assert!(result.is_err(), "threads={threads}: the refresh panic propagates out of the mint");
        assert_eq!(fired("index.build.shard"), 1, "threads={threads}: the armed shard fired");
        drop(armed);
        assert!(store.index().is_none(), "threads={threads}: no half-refreshed tree is cached");
    }

    // The disarmed mint refreshes from the intact base: the from-scratch
    // tree, and the from-scratch answers.
    let engine = store.engine(EngineConfig::with_samples(20));
    let tree = store.index().expect("the disarmed mint caches the refreshed tree");
    assert!(tree.diamonds() == fresh.index().expect("indexed").diamonds());
    tree.check_invariants().expect("the refreshed tree is well formed");
    let outcome = engine.pforall_nn(&ring_query(), 0.0).expect("the refreshed engine answers");
    let pairs = |o: &ust_core::QueryOutcome| -> Vec<(u32, u64)> {
        o.results.iter().map(|r| (r.object, r.probability.to_bits())).collect()
    };
    assert_eq!(pairs(&outcome), pairs(&expected));
    drop(engine);
    drop(store);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ust_persist::wal::wal_path(&path));
}

#[test]
fn failed_writes_leave_the_previous_store_intact() {
    let _guard = chaos_lock();
    let db = ring_db(32, 4);
    let path = temp_path("atomic.ustore");
    let contents = StoreContents { database: &db, index: None, models: &[] };

    // Establish a good store via the engine-level save path, then fault
    // every stage of a rewrite: the staged temp-file protocol must never
    // replace (or truncate) the good bytes with a partial write.
    let engine = QueryEngine::new(&db, EngineConfig::with_samples(8));
    engine.save_store(&path).expect("the initial save succeeds");
    let good = std::fs::read(&path).expect("the initial store is readable");
    for point in ["persist.write.file", "persist.write.sync", "persist.write.rename"] {
        let armed = FaultPlan::once(point).arm();
        let err = write_store(&path, &contents).expect_err("the armed write fails");
        assert!(matches!(err, StoreError::Io { .. }), "{point}: expected Io, got {err:?}");
        assert_eq!(fired(point), 1, "{point}: the armed stage fired");
        drop(armed);
        assert_eq!(
            std::fs::read(&path).expect("the store file still exists"),
            good,
            "{point}: a failed rewrite must not disturb the previous store"
        );
        let reloaded = EngineStore::load(&path).expect("the previous store still loads");
        assert_eq!(reloaded.database().len(), db.len());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seeded_plans_are_deterministic_and_stay_typed() {
    let _guard = chaos_lock();
    let catalog: Vec<&str> = ust_persist::FAULT_POINTS.to_vec();
    let db = ring_db(32, 4);
    let path = temp_path("seeded.ustore");
    let contents = StoreContents { database: &db, index: None, models: &[] };
    for seed in 0..16u64 {
        assert_eq!(
            FaultPlan::seeded(seed, &catalog),
            FaultPlan::seeded(seed, &catalog),
            "seed {seed}: the same seed derives the same plan"
        );
        // The same seeded plan must classify the same way on every run: the
        // store round trip either completes or fails with the typed error,
        // deterministically.
        let mut classes = Vec::new();
        for _ in 0..2 {
            let armed = FaultPlan::seeded(seed, &catalog).arm();
            let class = match write_store(&path, &contents).and_then(|_| read_store(&path)) {
                Ok(_) => "ok",
                Err(StoreError::Io { .. }) => "io",
                Err(other) => panic!("seed {seed}: expected StoreError::Io, got {other:?}"),
            };
            drop(armed);
            classes.push(class);
        }
        assert_eq!(classes[0], classes[1], "seed {seed}: nondeterministic outcome");
        // Whatever the seeded plan did, the disarmed round trip is clean.
        write_store(&path, &contents).expect("clean write after the seeded plan");
        read_store(&path).expect("clean read after the seeded plan");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disarmed_faults_are_invisible() {
    let _guard = chaos_lock();
    // No plan armed: the fast path must not even count.
    assert_eq!(hits("core.adapt.worker"), 0);
    assert_eq!(ust_fault::inject("persist.read.file"), None);
    let db = ring_db(48, 6);
    let engine = QueryEngine::new(&db, EngineConfig::with_samples(20));
    engine.pforall_nn(&ring_query(), 0.0).expect("the undisturbed stack answers");
    assert_eq!(hits("core.adapt.worker"), 0, "disarmed polls leave no counter behind");
}
