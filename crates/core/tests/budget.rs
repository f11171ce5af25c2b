//! Budget edge cases (DESIGN.md §8): a breached [`QueryBudget`] must always
//! surface as a typed error or a flagged degraded result — with coherent
//! partial statistics — and must leave the engine fully reusable (no poisoned
//! cache slot, identical answers afterwards).

use std::sync::Arc;
use ust_core::{
    CancelToken, EngineConfig, Query, QueryBudget, QueryEngine, QueryError, QueryPhase,
};
use ust_markov::{CsrMatrix, MarkovModel, StateId};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{TrajectoryDatabase, UncertainObject};

/// Gap between the two observations pinning every object.
const GAP: u32 = 6;

/// A database of `num_objects` random walkers on a ring of `num_states`
/// states, pinned at `t = 0` and `t = GAP` — the same fixture shape as the
/// concurrency suite, small enough that an *unlimited* run always succeeds.
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

/// Asserts the engine still answers correctly once its budget is lifted:
/// same result set as a fresh engine over the same database, and no failure
/// slot left in the cache.
fn assert_reusable(engine: &mut QueryEngine, db: &TrajectoryDatabase) {
    assert_eq!(
        engine.cache_stats().cached_failures,
        0,
        "budget breaches must never be cached as failures"
    );
    engine.set_budget(QueryBudget::unlimited());
    let outcome =
        engine.pforall_nn(&ring_query(), 0.0).expect("the engine answers the next unlimited query");
    let fresh = QueryEngine::new(db, engine.config().clone());
    let expected = fresh.pforall_nn(&ring_query(), 0.0).expect("a fresh engine answers");
    let pairs = |o: &ust_core::QueryOutcome| -> Vec<(u64, u64)> {
        o.results.iter().map(|r| (u64::from(r.object), r.probability.to_bits())).collect()
    };
    assert_eq!(
        pairs(&outcome),
        pairs(&expected),
        "a breached engine must answer exactly like a fresh one"
    );
    assert!(!outcome.stats.degraded);
}

#[test]
fn zero_deadline_is_a_typed_filter_error() {
    let db = ring_db(64, 8);
    let mut engine = QueryEngine::new(&db, EngineConfig::with_samples(50));
    engine.set_budget(QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO));
    let err = engine
        .pforall_nn(&ring_query(), 0.0)
        .expect_err("a zero deadline trips at the query-start checkpoint");
    match &err {
        QueryError::DeadlineExceeded { phase, stats } => {
            assert_eq!(*phase, QueryPhase::Filter, "the first checkpoint is the filter's");
            assert!(stats.budget_checkpoints >= 1, "the tripping checkpoint is counted");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(err.is_transient());
    assert_reusable(&mut engine, &db);
}

#[test]
fn cancel_before_start_is_a_typed_error() {
    let db = ring_db(64, 8);
    let mut engine = QueryEngine::new(&db, EngineConfig::with_samples(50));
    let token = CancelToken::new();
    token.cancel();
    engine.set_budget(QueryBudget::unlimited().with_cancel(&token));
    let err = engine
        .pforall_nn(&ring_query(), 0.0)
        .expect_err("a pre-cancelled token trips at the query-start checkpoint");
    assert!(
        matches!(err, QueryError::Cancelled { phase: QueryPhase::Filter, .. }),
        "expected Cancelled in the filter phase, got {err:?}"
    );
    // Cancellation is sticky: the same budget keeps refusing.
    assert!(engine.pexists_nn(&ring_query(), 0.0).is_err());
    assert_reusable(&mut engine, &db);
}

#[test]
fn cancel_during_prepare_is_deterministic_at_every_thread_count() {
    let db = ring_db(64, 24);
    let ids: Vec<u32> = (1..=24).collect();
    for threads in [1usize, 2, 4] {
        let token = CancelToken::new();
        token.cancel();
        let config = EngineConfig {
            adaptation_threads: threads,
            budget: QueryBudget::unlimited().with_cancel(&token),
            ..EngineConfig::with_samples(50)
        };
        let mut engine = QueryEngine::new(&db, config);
        // The adaptation fan-out polls the gauge once per cold object, so a
        // cancelled token surfaces from the TS phase itself — at any count.
        let err = engine
            .prepare_objects(&ids)
            .expect_err("cancellation surfaces from the adaptation fan-out");
        assert!(
            matches!(err, QueryError::Cancelled { phase: QueryPhase::Adaptation, .. }),
            "threads={threads}: expected Cancelled in adaptation, got {err:?}"
        );
        assert_eq!(
            engine.cache_stats().cached_failures,
            0,
            "threads={threads}: cancellation must release claims, not cache failures"
        );
        // A fresh budget replaces the cancelled one on the same engine.
        engine.set_budget(QueryBudget::unlimited());
        engine.pforall_nn(&ring_query(), 0.0).unwrap_or_else(|e| {
            panic!("threads={threads}: the engine stays usable with a fresh budget: {e:?}")
        });
    }
}

#[test]
fn max_worlds_exactly_at_the_checkpoint_boundary() {
    let db = ring_db(64, 8);
    let mut engine = QueryEngine::new(&db, EngineConfig::with_samples(128));
    // Cap below the request — exactly at the 64-world checkpoint boundary:
    // the run degrades to precisely the cap, never one world more or less.
    engine.set_budget(QueryBudget::unlimited().with_max_worlds(64));
    let capped =
        engine.pforall_nn(&ring_query(), 0.0).expect("a world cap degrades, it does not error");
    assert!(capped.stats.degraded);
    assert_eq!(capped.stats.worlds, 64);
    assert_eq!(capped.stats.worlds_requested, 128);
    for r in &capped.results {
        assert!((0.0..=1.0).contains(&r.probability), "probabilities stay normalised");
    }
    // Cap equal to the request — not a degradation.
    engine.set_budget(QueryBudget::unlimited().with_max_worlds(128));
    let exact = engine.pforall_nn(&ring_query(), 0.0).expect("query succeeds");
    assert!(!exact.stats.degraded);
    assert_eq!(exact.stats.worlds, 128);
    // Cap above the request — no effect at all.
    engine.set_budget(QueryBudget::unlimited().with_max_worlds(500));
    let loose = engine.pforall_nn(&ring_query(), 0.0).expect("query succeeds");
    assert!(!loose.stats.degraded);
    assert_eq!(loose.stats.worlds, 128);
    assert_reusable(&mut engine, &db);
}

#[test]
fn degraded_estimate_equals_a_smaller_honest_run() {
    // Degrading to w worlds must produce the *same* estimate as asking for w
    // worlds up front: the world RNG stream is a prefix, not a reshuffle.
    let db = ring_db(64, 8);
    let mut capped_engine = QueryEngine::new(&db, EngineConfig::with_samples(128));
    capped_engine.set_budget(QueryBudget::unlimited().with_max_worlds(64));
    let capped = capped_engine
        .pforall_nn(&ring_query(), 0.0)
        .expect("a world cap degrades, it does not error");
    let honest_engine = QueryEngine::new(&db, EngineConfig::with_samples(64));
    let honest = honest_engine.pforall_nn(&ring_query(), 0.0).expect("query succeeds");
    let pairs = |o: &ust_core::QueryOutcome| -> Vec<(u64, u64)> {
        o.results.iter().map(|r| (u64::from(r.object), r.probability.to_bits())).collect()
    };
    assert_eq!(pairs(&capped), pairs(&honest));
}

#[test]
fn max_diamonds_is_budget_exhausted_with_partial_stats() {
    let db = ring_db(64, 8);
    let mut engine = QueryEngine::new(&db, EngineConfig::with_samples(50));
    engine.set_budget(QueryBudget::unlimited().with_max_diamonds(0));
    let err = engine
        .pforall_nn(&ring_query(), 0.0)
        .expect_err("a zero diamond cap trips on the first streamed diamond");
    match &err {
        QueryError::BudgetExhausted { phase, resource, limit, stats } => {
            assert_eq!(*phase, QueryPhase::Filter);
            assert_eq!(*resource, "diamonds");
            assert_eq!(*limit, 0);
            assert!(stats.budget_checkpoints >= 1);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(err.is_transient(), "caps are budget errors: transient, never cached");
    assert_reusable(&mut engine, &db);
}

#[test]
fn engine_level_budget_governs_plain_entry_points() {
    let db = ring_db(64, 8);
    let config = EngineConfig {
        budget: QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO),
        ..EngineConfig::with_samples(50)
    };
    let mut engine = QueryEngine::new(&db, config);
    let q = ring_query();
    let deadline = |result: Result<(), QueryError>, entry: &str| {
        let err = result.expect_err(entry);
        assert!(matches!(err, QueryError::DeadlineExceeded { .. }), "{entry}: got {err:?}");
    };
    // Every entry point runs under the one engine budget: the six query
    // methods...
    deadline(engine.pforall_nn(&q, 0.0).map(drop), "pforall_nn");
    deadline(engine.pexists_nn(&q, 0.0).map(drop), "pexists_nn");
    deadline(engine.pcnn(&q, 0.1).map(drop), "pcnn");
    deadline(engine.pforall_knn(&q, 2, 0.0).map(drop), "pforall_knn");
    deadline(engine.pexists_knn(&q, 2, 0.0).map(drop), "pexists_knn");
    deadline(engine.pcknn(&q, 2, 0.1).map(drop), "pcknn");
    // ...the filter step...
    deadline(engine.filter_knn(&q, 1).map(drop), "filter_knn");
    // ...and the TS phase on cold objects.
    let ids: Vec<u32> = (1..=8).collect();
    let err = engine.prepare_objects(&ids).expect_err("prepare_objects");
    assert!(
        matches!(err, QueryError::DeadlineExceeded { phase: QueryPhase::Adaptation, .. }),
        "prepare_objects: got {err:?}"
    );
    assert_eq!(engine.cached_models(), 0, "no cold object was adapted past the deadline");
    // Lifting the budget on the same engine restores exact answers.
    assert_reusable(&mut engine, &db);
}

#[test]
fn pcknn_degrades_under_a_world_cap_and_stays_exact_on_retry() {
    let db = ring_db(64, 8);
    let mut engine = QueryEngine::new(&db, EngineConfig::with_samples(128));
    engine.set_budget(QueryBudget::unlimited().with_max_worlds(64));
    let capped = engine
        .pcknn(&ring_query(), 2, 0.1)
        .expect("a world cap degrades the PCNN estimate, it does not error");
    assert!(capped.stats.degraded);
    assert_eq!(capped.stats.worlds, 64);
    assert_eq!(capped.stats.worlds_requested, 128);
    for r in &capped.results {
        for (times, prob) in &r.sets {
            assert!(!times.is_empty(), "every reported timestamp set is a real one");
            assert!((0.0..=1.0).contains(prob), "probabilities stay normalised");
        }
    }
    // Re-running with the full budget on the same engine is exact again.
    engine.set_budget(QueryBudget::unlimited());
    let full = engine.pcknn(&ring_query(), 2, 0.1).expect("query succeeds");
    assert!(!full.stats.degraded);
    assert_eq!(full.stats.worlds, 128);
    let fresh = QueryEngine::new(&db, engine.config().clone())
        .pcknn(&ring_query(), 2, 0.1)
        .expect("query succeeds");
    assert_eq!(full.total_result_sets(), fresh.total_result_sets());
}

#[test]
fn budget_checkpoint_counts_are_thread_count_independent() {
    // The checkpoint *counter* is observability, but for a completed
    // evaluation it must not depend on the fan-out width — every world and
    // every cold object polls exactly once regardless of interleaving.
    let db = ring_db(64, 16);
    let mut counts = Vec::new();
    for threads in [1usize, 2, 4] {
        let engine = QueryEngine::new(
            &db,
            EngineConfig { adaptation_threads: threads, ..EngineConfig::with_samples(128) },
        );
        let outcome = engine.pforall_nn(&ring_query(), 0.0).expect("query succeeds");
        counts.push(outcome.stats.budget_checkpoints);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[0], counts[2]);
    assert!(counts[0] >= 1, "a completed run polled at least one checkpoint");
}
