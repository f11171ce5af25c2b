//! The window walk samples the right worlds.
//!
//! The engine samples each object only over the query window: the state at
//! `t0 = max(first observation, query start)` is drawn from the a-posteriori
//! marginal `posterior_at(t0)`, and the walk follows the a-posteriori chain
//! `F(t)` from there (`ust_sampling::block`). Worlds are therefore not
//! bit-identical to a walk from the first observation; what this suite pins
//! instead, all at fixed seeds so every run is deterministic:
//!
//! * the window's start states pass a chi-square test against
//!   `posterior_at(t)`, for every object and every start `t`;
//! * each sampled transition `o(t) → o(t+1)` passes a chi-square test against
//!   its row of `F(t)`;
//! * P∃NN, P∀NN and PCNN set probabilities lie within the Hoeffding radius of
//!   the exact values of `exact_pnn`, and P∀NN on two-object databases within
//!   that radius of `domination_probability`;
//! * answers are identical at every adaptation and PCNN thread count, and
//!   from run to run;
//! * an engine that adapts only the observations bracketing each query
//!   window answers every query kind bit for bit like one preloaded with
//!   every whole-history model, repeats hit the cache, a store keeps only
//!   whole-history models, and only a contradiction inside a query's
//!   bracket fails the query.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use ust_core::domination::domination_probability;
use ust_core::exact::exact_pnn;
use ust_core::{
    EngineConfig, EngineStore, ModelKey, ObjectId, Query, QueryEngine, QueryError, QueryStats,
};
use ust_markov::{AdaptError, AdaptedModel, CsrMatrix, MarkovModel, StateId, Timestamp};
use ust_sampling::hoeffding::confidence_radius;
use ust_sampling::{block_seed, WorldBlock, WorldSampler, WORLD_BLOCK_WIDTH};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{TrajectoryDatabase, UncertainObject};

/// Confidence parameter of every Hoeffding check.
const DELTA: f64 = 1e-3;

/// Standard-normal quantile of the chi-square tests' significance, ≈ 1e-4.
const Z: f64 = 3.72;

/// A ring of `num_states` states on the unit circle; each step stays (0.5)
/// or moves one state either way (0.25 each).
fn ring_db(
    num_states: usize,
    objects: Vec<(ObjectId, Vec<(Timestamp, StateId)>)>,
) -> TrajectoryDatabase {
    let points: Vec<Point> = (0..num_states)
        .map(|i| {
            let a = (i as f64) / (num_states as f64) * std::f64::consts::TAU;
            Point::new(a.cos(), a.sin())
        })
        .collect();
    let rows: Vec<Vec<(StateId, f64)>> = (0..num_states)
        .map(|i| {
            let fwd = ((i + 1) % num_states) as StateId;
            let bwd = ((i + num_states - 1) % num_states) as StateId;
            let mut row = vec![(bwd, 0.25), (i as StateId, 0.5), (fwd, 0.25)];
            row.sort_unstable_by_key(|&(s, _)| s);
            row
        })
        .collect();
    let objects = objects
        .into_iter()
        .map(|(id, pairs)| UncertainObject::from_pairs(id, pairs).expect("sorted observations"))
        .collect();
    TrajectoryDatabase::with_objects(
        Arc::new(StateSpace::from_points(points)),
        Arc::new(MarkovModel::homogeneous(CsrMatrix::from_rows(rows))),
        objects,
    )
}

/// The adapted models of every database object, in id order.
fn models(db: &TrajectoryDatabase) -> Vec<(ObjectId, Arc<AdaptedModel>)> {
    db.objects()
        .iter()
        .map(|o| {
            let model = AdaptedModel::build(db.model_for(o.id()).as_ref(), &o.observation_pairs())
                .expect("observations lie on the ring");
            (o.id(), Arc::new(model))
        })
        .collect()
}

/// `blocks` full blocks over `window`, seeded like the engine with `seed`,
/// each handed to `visit` after its fill.
fn sample_blocks(
    sampler: &WorldSampler,
    window: (Timestamp, Timestamp),
    seed: u64,
    blocks: usize,
    mut visit: impl FnMut(&WorldBlock),
) {
    let mut block = WorldBlock::for_window(sampler, window.0..=window.1, WORLD_BLOCK_WIDTH);
    for b in 0..blocks {
        block.fill(&mut StdRng::seed_from_u64(block_seed(seed, b)), WORLD_BLOCK_WIDTH);
        visit(&block);
    }
}

/// Pearson's chi-square test of `counts` against `probs` (state,
/// probability; summing to one): bins expecting fewer than 5 draws are
/// pooled. Fails on any draw outside the support, and when the statistic
/// exceeds the Wilson–Hilferty quantile at [`Z`].
fn assert_chi_square(probs: &[(StateId, f64)], counts: &FxHashMap<StateId, usize>, what: &str) {
    let n: usize = counts.values().sum();
    for state in counts.keys() {
        let inside = probs.iter().any(|&(s, _)| s == *state);
        assert!(inside, "{what}: state {state} outside the support");
    }
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let mut pooled = (0.0, 0.0);
    for &(state, p) in probs {
        let bin = (counts.get(&state).copied().unwrap_or(0) as f64, p * n as f64);
        if bin.1 >= 5.0 {
            bins.push(bin);
        } else {
            pooled = (pooled.0 + bin.0, pooled.1 + bin.1);
        }
    }
    if pooled.1 > 0.0 {
        bins.push(pooled);
    }
    if bins.len() < 2 {
        return;
    }
    let stat: f64 = bins.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let df = (bins.len() - 1) as f64;
    let h = 2.0 / (9.0 * df);
    let critical = df * (1.0 - h + Z * h.sqrt()).powi(3);
    assert!(stat < critical, "{what}: chi-square {stat:.2} ≥ {critical:.2} (df {df}, n {n})");
}

/// Three objects on a 16-state ring with long unobserved stretches and one
/// intermediate observation.
fn wandering_db() -> TrajectoryDatabase {
    ring_db(
        16,
        vec![
            (1, vec![(0, 0), (9, 3)]),
            (2, vec![(2, 8), (6, 9), (12, 6)]),
            (3, vec![(1, 12), (10, 12)]),
        ],
    )
}

#[test]
fn window_start_states_follow_the_posterior_marginal() {
    let db = wandering_db();
    let sampler = WorldSampler::from_models(models(&db));
    for from in 0..=12 {
        let mut counts: Vec<FxHashMap<StateId, usize>> = vec![FxHashMap::default(); sampler.len()];
        sample_blocks(&sampler, (from, 12), 11 + u64::from(from), 48, |block| {
            for (obj, count) in counts.iter_mut().enumerate() {
                let first = (from..=12).find(|&t| block.states_at(obj, t).is_some());
                for &s in first.and_then(|t| block.states_at(obj, t)).unwrap_or(&[]) {
                    *count.entry(s).or_insert(0) += 1;
                }
            }
        });
        for (obj, (id, model)) in sampler.models().iter().enumerate() {
            let t0 = model.start().max(from);
            if t0 > model.end() {
                assert!(counts[obj].is_empty(), "object {id} does not overlap [{from}, 12]");
                continue;
            }
            let marginal = model.posterior_at(t0).expect("t0 lies in the model's interval");
            assert_chi_square(marginal.entries(), &counts[obj], &format!("object {id}, t0 = {t0}"));
        }
    }
}

#[test]
fn window_walk_transitions_follow_the_a_posteriori_chain() {
    let db = wandering_db();
    let sampler = WorldSampler::from_models(models(&db));
    for from in [0, 3, 5] {
        // counts[(object, t, source)][target]
        let mut counts: FxHashMap<(usize, Timestamp, StateId), FxHashMap<StateId, usize>> =
            FxHashMap::default();
        sample_blocks(&sampler, (from, 12), 101 + u64::from(from), 32, |block| {
            for obj in 0..block.num_objects() {
                for t in from..12 {
                    let (Some(here), Some(there)) =
                        (block.states_at(obj, t), block.states_at(obj, t + 1))
                    else {
                        continue;
                    };
                    for (&s, &next) in here.iter().zip(there) {
                        *counts.entry((obj, t, s)).or_default().entry(next).or_insert(0) += 1;
                    }
                }
            }
        });
        assert!(!counts.is_empty());
        for ((obj, t, s), targets) in &counts {
            let (id, model) = &sampler.models()[*obj];
            let row = model.transition_row(*t, *s).expect("a sampled state has a row");
            let probs: Vec<(StateId, f64)> = row.iter().collect();
            assert_chi_square(&probs, targets, &format!("object {id}, {t}: {s} →"));
        }
    }
}

/// Every non-empty subset of `0..n`, as sorted index lists.
fn subsets(n: usize) -> impl Iterator<Item = Vec<usize>> {
    (1u32..(1 << n)).map(move |mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
}

#[test]
fn engine_probabilities_agree_with_exact_enumeration() {
    // Windows that start after every first observation, so each object's
    // walk opens with a draw from its a-posteriori marginal.
    let db = ring_db(
        12,
        vec![(1, vec![(0, 0), (5, 1)]), (2, vec![(0, 2), (5, 3)]), (3, vec![(1, 10), (5, 11)])],
    );
    let models = models(&db);
    let num_samples = 4096;
    let radius = confidence_radius(num_samples, DELTA);
    let tau = 0.2;
    for (times, location) in [
        (vec![2, 3, 4], Point::new(1.1, 0.2)),
        (vec![3, 5], Point::new(0.9, 0.6)),
        (vec![2, 4, 5], Point::new(0.2, -1.1)),
    ] {
        let query = Query::at_point(location, times.clone()).expect("valid query");
        let exact = exact_pnn(&models, db.state_space(), &query, 200_000).expect("small instance");
        let engine = QueryEngine::new(
            &db,
            EngineConfig { num_samples, seed: 5, ..Default::default() },
        );
        let forall = engine.pforall_nn(&query, 0.0).expect("query succeeds");
        let exists = engine.pexists_nn(&query, 0.0).expect("query succeeds");
        let pcnn = engine.pcnn(&query, tau).expect("query succeeds");
        for &(id, _) in &models {
            let what = format!("object {id}, T = {times:?}");
            let forall_error = (forall.probability_of(id) - exact.forall_of(id)).abs();
            assert!(forall_error <= radius, "P∀NN {what}");
            let exists_error = (exists.probability_of(id) - exact.exists_of(id)).abs();
            assert!(exists_error <= radius, "P∃NN {what}");
            let reported = pcnn.sets_of(id).cloned().unwrap_or_default();
            for indices in subsets(times.len()) {
                let set: Vec<Timestamp> = indices.iter().map(|&i| times[i]).collect();
                let p = exact.forall_subset_of(id, times.len(), &indices);
                match reported.iter().find(|(ts, _)| *ts == set) {
                    Some((_, estimate)) => assert!(
                        (estimate - p).abs() <= radius,
                        "PCNN {what}, {set:?}: {estimate} vs {p}"
                    ),
                    None => assert!(p < tau + radius, "PCNN {what}, {set:?} missing (exact {p})"),
                }
            }
        }
    }
}

#[test]
fn two_object_forall_agrees_with_the_domination_probability() {
    let db = ring_db(10, vec![(1, vec![(0, 0), (6, 2)]), (2, vec![(0, 3), (7, 1)])]);
    let models = models(&db);
    let num_samples = 4096;
    let radius = confidence_radius(num_samples, DELTA);
    for times in [vec![2, 3, 4], vec![4, 5, 6], vec![1, 6]] {
        let query = Query::at_point(Point::new(0.8, 0.7), times.clone()).expect("valid query");
        let engine = QueryEngine::new(
            &db,
            EngineConfig { num_samples, seed: 9, ..Default::default() },
        );
        let forall = engine.pforall_nn(&query, 0.0).expect("query succeeds");
        for (o, other) in [(&models[0], &models[1]), (&models[1], &models[0])] {
            let exact = domination_probability(&o.1, &other.1, db.state_space(), &query);
            let estimate = forall.probability_of(o.0);
            assert!(
                (estimate - exact).abs() <= radius,
                "object {}, T = {times:?}: {estimate} vs {exact}",
                o.0
            );
        }
    }
}

#[test]
fn answers_are_identical_at_every_thread_count_and_from_run_to_run() {
    let objects = (1..=10u32)
        .map(|id| {
            let start = (id * 5 % 24) as StateId;
            (id, vec![(id % 3, start), (9 + id % 2, (start + 2) % 24)])
        })
        .collect();
    let db = ring_db(24, objects);
    let query = Query::at_point(Point::new(1.1, 0.1), 4..=8).expect("valid query");
    let answers = |threads: usize| {
        let engine = QueryEngine::new(
            &db,
            EngineConfig {
                num_samples: 300,
                seed: 3,
                adaptation_threads: threads,
                pcnn_threads: threads,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        for k in [1, 2] {
            let exists = engine.pexists_knn(&query, k, 0.05).expect("query succeeds");
            let forall = engine.pforall_knn(&query, k, 0.05).expect("query succeeds");
            let pcnn = engine.pcknn(&query, k, 0.2).expect("query succeeds");
            out.push(format!("{:?} {:?}", exists.results, forall.results));
            out.push(format!("{:?}", pcnn.results));
        }
        out
    };
    let serial = answers(1);
    assert!(serial.iter().any(|a| a.contains("object")), "the scenario answers something");
    assert_eq!(answers(1), serial, "run to run");
    assert_eq!(answers(2), serial, "2 threads");
    assert_eq!(answers(4), serial, "4 threads");
}

/// Eight objects on a 24-state ring, observed every three timestamps from
/// `t = id mod 4` on, four to six times each.
fn observed_db() -> TrajectoryDatabase {
    let objects = (1..=8u32)
        .map(|id| {
            let (first, state) = (id % 4, id * 5 % 24);
            (id, (0..4 + id % 3).map(|k| (first + 3 * k, (state + k) % 24)).collect())
        })
        .collect();
    ring_db(24, objects)
}

/// Query windows over [`observed_db`]: one starting before most lifetimes,
/// two ending exactly on observations, one ending after every lifetime, one
/// starting after some lifetimes, and one whose bracket is every object's
/// whole history.
fn observed_queries() -> Vec<Query> {
    [
        (vec![0, 1, 2, 3, 4], Point::new(0.9, 0.3)),
        (vec![5, 6, 7, 8], Point::new(-0.2, 1.0)),
        (vec![6, 9], Point::new(-1.0, -0.1)),
        ((11..=20).collect(), Point::new(0.3, -0.9)),
        ((14..=19).collect(), Point::new(0.7, 0.7)),
        (vec![1, 16], Point::new(1.0, 0.0)),
    ]
    .into_iter()
    .map(|(times, location)| Query::at_point(location, times).expect("valid query"))
    .collect()
}

/// The counts of `stats` that are answers: candidates, influencers, worlds.
fn answer_counts(stats: &QueryStats) -> [u64; 3] {
    [stats.candidates as u64, stats.influencers as u64, stats.worlds as u64]
}

/// Every answer of the six query kinds on `query`, as bits: per probability
/// answer its ids and probability bits, per PCNN answer each object's sets
/// with their probability bits, and every outcome's answer counts. Also
/// returns each outcome's stats.
fn answer_bits(engine: &QueryEngine, query: &Query) -> (Vec<u64>, Vec<QueryStats>) {
    let (mut bits, mut stats) = (Vec::new(), Vec::new());
    for k in [1, 2] {
        let exists = engine.pexists_knn(query, k, 0.05).expect("P∃kNN answers");
        let forall = engine.pforall_knn(query, k, 0.05).expect("P∀kNN answers");
        for outcome in [exists, forall] {
            for r in &outcome.results {
                bits.extend([u64::from(r.object), r.probability.to_bits()]);
            }
            bits.extend(answer_counts(&outcome.stats));
            stats.push(outcome.stats);
        }
        let pcnn = engine.pcknn(query, k, 0.1).expect("PCkNN answers");
        for r in &pcnn.results {
            bits.push(u64::from(r.object));
            for (times, p) in &r.sets {
                bits.extend(times.iter().map(|&t| u64::from(t)));
                bits.push(p.to_bits());
            }
        }
        bits.push(pcnn.candidate_sets_evaluated as u64);
        bits.extend(answer_counts(&pcnn.stats));
        stats.push(pcnn.stats);
    }
    (bits, stats)
}

#[test]
fn bracket_models_answer_exactly_like_whole_history_models() {
    let db = observed_db();
    let config = EngineConfig { num_samples: 256, seed: 13, ..Default::default() };
    let cold = QueryEngine::new(&db, config.clone());
    let warm = QueryEngine::new(&db, config);
    warm.prepare_all().expect("every object adapts");
    let mut shorter = 0;
    for query in observed_queries() {
        let window = query.start()..=query.end();
        let influencers = cold.filter_knn(&query, 2).expect("filter").1;
        shorter += influencers
            .iter()
            .map(|&id| db.object(id).expect("known id"))
            .filter(|o| ModelKey::bracket(o, &window) != ModelKey::whole(o))
            .count();
        let (cold_bits, cold_stats) = answer_bits(&cold, &query);
        let (warm_bits, warm_stats) = answer_bits(&warm, &query);
        assert_eq!(cold_bits, warm_bits, "window {window:?}");
        assert!(warm_stats.iter().all(|s| s.cold_adaptations == 0 && s.cache_hits == s.influencers));
        assert!(cold_stats.iter().all(|s| s.cache_hits + s.cold_adaptations == s.influencers));
    }
    assert!(shorter > 0, "some bracket is strictly shorter than its object's history");
    assert_eq!(warm.cache_stats().cold_adaptations, db.len() as u64, "warm adapted nothing more");
}

#[test]
fn repeated_queries_hit_and_a_store_keeps_only_whole_histories() {
    let db = observed_db();
    let engine = QueryEngine::new(&db, EngineConfig { num_samples: 64, ..Default::default() });
    let mut whole: BTreeSet<ObjectId> = BTreeSet::new();
    for query in observed_queries() {
        let first = engine.pforall_nn(&query, 0.0).expect("query answers");
        assert_eq!(first.stats.cache_hits + first.stats.cold_adaptations, first.stats.influencers);
        let again = engine.pforall_nn(&query, 0.0).expect("query answers");
        assert_eq!(again.stats.cold_adaptations, 0);
        assert_eq!(again.stats.cache_hits, again.stats.influencers);
        assert_eq!(again.stats.adaptation_time, Duration::ZERO);
        let window = query.start()..=query.end();
        for id in engine.filter_knn(&query, 1).expect("filter").1 {
            let object = db.object(id).expect("known id");
            if ModelKey::bracket(object, &window) == ModelKey::whole(object) {
                whole.insert(id);
            }
        }
    }
    let path = std::env::temp_dir()
        .join(format!("ust_window_equivalence_{}.ustore", std::process::id()));
    engine.save_store(&path).expect("save succeeds");
    let store = EngineStore::load(&path).expect("load succeeds");
    let _ = std::fs::remove_file(&path);
    let stored: BTreeSet<ObjectId> = store.models().iter().map(|(id, _)| *id).collect();
    assert_eq!(stored, whole, "the store holds exactly the whole-history models");
    for (id, model) in store.models() {
        let object = db.object(*id).expect("known id");
        assert_eq!((model.start(), model.end()), (object.first_time(), object.last_time()));
    }
    assert!(!whole.is_empty() && engine.cached_models() > whole.len(), "brackets stay unstored");
}

#[test]
fn only_a_contradiction_inside_the_bracket_fails_a_query() {
    // Object 1 cannot step from state 3 at t = 8 to state 9 at t = 9. The
    // filter runs without the index, which builds no diamond for that
    // segment, so object 1 influences every window it overlaps.
    let db = ring_db(12, vec![(1, vec![(0, 0), (4, 2), (8, 3), (9, 9)]), (2, vec![(0, 6), (9, 7)])]);
    let engine = QueryEngine::new(
        &db,
        EngineConfig { num_samples: 64, use_index: false, ..Default::default() },
    );
    let contradiction = QueryError::Adaptation {
        object: 1,
        error: AdaptError::ContradictoryObservations { time: 9 },
    };
    assert_eq!(engine.adapted_model(1).unwrap_err(), contradiction);
    assert_eq!(engine.prepare_objects(&[2, 1]).unwrap_err(), contradiction);
    let query = |times: Vec<Timestamp>| Query::at_point(Point::new(1.0, 0.0), times).unwrap();
    // Brackets 0..=4, 4..=8, 4..=8 and the lone observation at t = 9.
    for times in [vec![1, 2, 3], vec![5, 8], vec![7, 8], vec![9]] {
        let outcome = engine.pforall_nn(&query(times.clone()), 0.0);
        let outcome = outcome.unwrap_or_else(|e| panic!("T = {times:?}: {e:?}"));
        assert_eq!(outcome.stats.influencers, 2, "T = {times:?}");
    }
    // Brackets 8..=9 and 4..=9 hold the contradiction.
    for times in [vec![8, 9], vec![5, 9]] {
        let err = engine.pexists_nn(&query(times.clone()), 0.0).unwrap_err();
        assert_eq!(err, contradiction, "T = {times:?}");
    }
    assert_eq!(engine.adapted_model(1).unwrap_err(), contradiction);
}
