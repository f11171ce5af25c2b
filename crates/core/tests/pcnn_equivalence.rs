//! Equivalence and determinism tests for the vertical PCNN miner.
//!
//! The vertical bitset miner (`vertical_timesets` over a `WorldSet`) must be
//! indistinguishable from the horizontal Apriori oracle (`apriori_timesets`
//! over per-world masks, in `common/`): byte-identical qualifying sets,
//! probabilities and lattice counters, on hand-built lattices and across
//! random world distributions, thresholds, the maximal-only switch and
//! timestamp counts on both sides of the 64-timestamp word boundary. On top
//! of that, the engine's block sampling loop must reproduce exactly what a
//! plain `NnTimeProfile`-based loop computes on the same worlds, and
//! `pcnn_threads` must never change query output.

mod common;

use common::{apriori_timesets, masks, subset_probability, world_set};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ust_core::pcnn::{vertical_timesets, PcnnConfig, PcnnResult, WorldSet};
use ust_core::{EngineConfig, PcnnOutcome, Query, QueryEngine};
use ust_markov::{CsrMatrix, MarkovModel, StateId};
use ust_sampling::{block_seed, WorldBlock, WorldSampler, WORLD_BLOCK_WIDTH};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{NnTimeProfile, TimeMask, Trajectory, TrajectoryDatabase};

/// Thresholds the equivalence sweep checks, including values whose product
/// with small world counts sits exactly on (or numerically near) an integer.
const TAUS: [f64; 4] = [0.1, 0.3, 0.5, 0.9];

/// Runs both miners and asserts they agree byte for byte; returns the
/// vertical result.
fn both(world_masks: &[TimeMask], num_times: usize, cfg: &PcnnConfig) -> PcnnResult {
    let reference = apriori_timesets(world_masks, num_times, cfg);
    let ws = world_set(num_times, world_masks);
    let vertical = vertical_timesets(&ws, cfg, None).unwrap();
    assert_eq!(vertical.sets, reference.sets, "qualifying sets must match the reference");
    assert_eq!(vertical.candidate_sets_evaluated, reference.candidate_sets_evaluated);
    assert_eq!(vertical.max_level, reference.max_level);
    assert_eq!(vertical.frontier_peak, reference.frontier_peak);
    vertical
}

#[test]
fn vertical_miner_matches_reference_on_random_worldsets() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ca11);
    let mut trials: Vec<(usize, Vec<TimeMask>)> = Vec::new();
    for trial in 0..60 {
        let num_times = rng.gen_range(1usize..=8);
        let num_worlds = rng.gen_range(1usize..=130);
        // Mix dense and sparse membership so lattices of very different
        // depths are exercised.
        let density = [0.15, 0.4, 0.7, 0.95][trial % 4];
        let masks: Vec<TimeMask> = (0..num_worlds)
            .map(|_| {
                TimeMask::from_indices(
                    num_times,
                    (0..num_times).filter(|_| rng.gen::<f64>() < density),
                )
            })
            .collect();
        trials.push((num_times, masks));
    }
    // Lattices over 60 to 140 timestamps: a few dense columns around the
    // word boundary among sparse ones, so qualifying sets hold timestamps on
    // both sides of bit 63/64. In "good" worlds the dense columns are almost
    // always NN, which carries the lattice several levels deep.
    for _ in 0..80 {
        let num_times = rng.gen_range(60usize..=140);
        let num_worlds = rng.gen_range(40usize..=130);
        let dense: Vec<usize> =
            (0..rng.gen_range(4..=8)).map(|_| rng.gen_range(56..num_times.min(72))).collect();
        let masks: Vec<TimeMask> = (0..num_worlds)
            .map(|_| {
                let dense_density = if rng.gen::<f64>() < 0.6 { 0.95 } else { 0.3 };
                let hits = (0..num_times).filter(|t| {
                    rng.gen::<f64>() < if dense.contains(t) { dense_density } else { 0.05 }
                });
                TimeMask::from_indices(num_times, hits)
            })
            .collect();
        trials.push((num_times, masks));
    }
    for (trial, (num_times, masks)) in trials.iter().enumerate() {
        let (num_times, num_worlds) = (*num_times, masks.len());
        let worldset = world_set(num_times, masks);
        for tau in TAUS {
            for maximal_only in [false, true] {
                let cfg = PcnnConfig { tau, maximal_only };
                let reference = apriori_timesets(masks, num_times, &cfg);
                let vertical =
                    vertical_timesets(&worldset, &cfg, None).expect("no gauge, no error");
                assert_eq!(
                    vertical.sets, reference.sets,
                    "sets diverged (trial {trial}, tau {tau}, maximal {maximal_only}, \
                     |T| {num_times}, worlds {num_worlds})"
                );
                assert_eq!(
                    vertical.candidate_sets_evaluated, reference.candidate_sets_evaluated,
                    "lattice explored a different number of candidates (trial {trial})"
                );
                assert_eq!(vertical.max_level, reference.max_level, "trial {trial}");
                assert_eq!(vertical.frontier_peak, reference.frontier_peak, "trial {trial}");
            }
        }
    }
}

/// A small ring-walk database with enough uncertainty that PCNN lattices get
/// several levels deep.
fn ring_db(num_states: usize, num_objects: u32, gap: u32) -> TrajectoryDatabase {
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
    let objects = (1..=num_objects)
        .map(|id| {
            let start = ((id as usize * 5) % num_states) as StateId;
            let end = ((start as usize + 2) % num_states) as StateId;
            ust_trajectory::UncertainObject::from_pairs(id, vec![(0, start), (gap, end)])
                .expect("observations are sorted")
        })
        .collect();
    TrajectoryDatabase::with_objects(space, model, objects)
}

/// Re-runs the engine's Monte-Carlo pass the plain way — the worlds rebuilt
/// from the window kernel with the engine's per-block seeds, one
/// `NnTimeProfile` + per-world mask per world, `apriori_timesets` per object —
/// and checks that the engine's outcome is identical, with and without the
/// UST-tree filter.
#[test]
fn engine_sampling_matches_the_mask_based_reference() {
    let gap = 6u32;
    let db = ring_db(24, 8, gap);
    let num_samples = 150usize;
    let seed = 42u64;
    let tau = 0.1;
    let query = Query::at_point(Point::new(1.1, 0.1), 0..=gap).expect("valid query");
    let times = query.times();
    let space = db.state_space();
    // Without the index every covering object is a ∀-candidate; with it the
    // candidates shrink and PCNN mines objects outside C∀(q) too.
    for use_index in [false, true] {
        let engine = QueryEngine::new(
            &db,
            EngineConfig { num_samples, seed, use_index, ..Default::default() },
        );
        let outcome = engine.pcnn(&query, tau).expect("query succeeds");
        let forall = engine.pforall_nn(&query, 0.0).expect("query succeeds");
        let exists = engine.pexists_nn(&query, 0.0).expect("query succeeds");

        // Reference pass: identical seeds, identical influencer order.
        let (candidates, influencers) = engine.filter_knn(&query, 1).expect("filter succeeds");
        let prepared = engine.prepare_objects(&influencers).expect("adaptation succeeds");
        let sampler = WorldSampler::from_models(prepared.models);
        let mut block =
            WorldBlock::for_window(&sampler, query.start()..=query.end(), WORLD_BLOCK_WIDTH);
        let mut masks: Vec<(u32, Vec<TimeMask>)> =
            influencers.iter().map(|&id| (id, Vec::with_capacity(num_samples))).collect();
        let mut exists_counts: Vec<(u32, usize)> =
            influencers.iter().map(|&id| (id, 0)).collect();
        for (b, first) in (0..num_samples).step_by(WORLD_BLOCK_WIDTH).enumerate() {
            let count = WORLD_BLOCK_WIDTH.min(num_samples - first);
            block.fill(&mut StdRng::seed_from_u64(block_seed(seed, b)), count);
            for w in 0..count {
                let world: Vec<(u32, Trajectory)> = (0..block.num_objects())
                    .filter_map(|obj| {
                        let mut covered = (query.start()..=query.end())
                            .filter_map(|t| block.state(obj, t, w).map(|s| (t, s)));
                        let (start, state) = covered.next()?;
                        let states = std::iter::once(state).chain(covered.map(|(_, s)| s));
                        Some((block.object_id(obj)?, Trajectory::new(start, states.collect())))
                    })
                    .collect();
                let profile = NnTimeProfile::compute(&world, space, times, |t| {
                    query.position_at(t).expect("static query")
                });
                for (id, count) in exists_counts.iter_mut() {
                    if profile.mask(*id).map(|m| m.any()).unwrap_or(false) {
                        *count += 1;
                    }
                }
                for (id, object_masks) in masks.iter_mut() {
                    object_masks.push(
                        profile.mask(*id).cloned().unwrap_or_else(|| TimeMask::new(times.len())),
                    );
                }
            }
        }

        // P∀NN (candidates only) / P∃NN probabilities must match exactly.
        for (id, object_masks) in &masks {
            let hits = object_masks.iter().filter(|m| m.all()).count();
            let expected = hits as f64 / num_samples as f64;
            let expected = if expected > 0.0 && candidates.contains(id) { expected } else { 0.0 };
            assert_eq!(forall.probability_of(*id), expected, "index {use_index}, object {id}");
        }
        for (id, hits) in &exists_counts {
            let expected = *hits as f64 / num_samples as f64;
            assert_eq!(exists.probability_of(*id), if expected > 0.0 { expected } else { 0.0 });
        }

        // PCNN sets, probabilities and per-object counters must match
        // exactly, over every influence object.
        let cfg = PcnnConfig::new(tau);
        let mut total_evaluated = 0usize;
        for (id, object_masks) in &masks {
            let reference = apriori_timesets(object_masks, times.len(), &cfg);
            total_evaluated += reference.candidate_sets_evaluated;
            let expected: Vec<(Vec<u32>, f64)> = reference
                .sets
                .iter()
                .map(|(indices, p)| {
                    (indices.iter().map(|&i| times[i]).collect::<Vec<_>>(), *p)
                })
                .collect();
            match outcome.sets_of(*id) {
                Some(sets) => {
                    assert_eq!(sets, expected.as_slice(), "object {id} sets diverged");
                    let result = outcome.results.iter().find(|r| r.object == *id).unwrap();
                    assert_eq!(result.candidate_sets_evaluated, reference.candidate_sets_evaluated);
                }
                None => assert!(expected.is_empty(), "object {id} missing from the outcome"),
            }
        }
        assert_eq!(outcome.candidate_sets_evaluated, total_evaluated);
        assert_eq!(outcome.stats.candidates, candidates.len(), "stats count C∀(q)");
        assert!(outcome.max_level() >= 1, "the lattice qualified at least singletons");
        assert!(outcome.frontier_peak() >= 1);
        if use_index {
            assert!(
                outcome.results.iter().any(|r| !candidates.contains(&r.object)),
                "the index run must report an object outside C∀(q)"
            );
        }
    }
}

fn assert_same_outcome(a: &PcnnOutcome, b: &PcnnOutcome) {
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.object, rb.object);
        assert_eq!(ra.sets, rb.sets);
        assert_eq!(ra.candidate_sets_evaluated, rb.candidate_sets_evaluated);
    }
    assert_eq!(a.candidate_sets_evaluated, b.candidate_sets_evaluated);
    assert_eq!(a.max_level(), b.max_level());
    assert_eq!(a.frontier_peak(), b.frontier_peak());
}

#[test]
fn pcnn_output_is_identical_at_every_thread_count() {
    let gap = 6u32;
    let db = ring_db(24, 10, gap);
    let query = Query::at_point(Point::new(1.1, 0.1), 0..=gap).expect("valid query");
    let outcomes: Vec<PcnnOutcome> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let engine = QueryEngine::new(
                &db,
                EngineConfig {
                    num_samples: 120,
                    seed: 7,
                    pcnn_threads: threads,
                    adaptation_threads: threads,
                    use_index: false,
                    ..Default::default()
                },
            );
            engine.pcnn(&query, 0.2).expect("query succeeds")
        })
        .collect();
    assert!(
        !outcomes[0].results.is_empty(),
        "the scenario must actually produce qualifying sets"
    );
    assert_same_outcome(&outcomes[0], &outcomes[1]);
    assert_same_outcome(&outcomes[0], &outcomes[2]);
}

#[test]
fn subset_probability_counts_containing_worlds() {
    let m = masks(3, &[&[0, 1, 2], &[0, 1], &[2], &[]]);
    assert_eq!(subset_probability(&m, &[0]), 0.5);
    assert_eq!(subset_probability(&m, &[0, 1]), 0.5);
    assert_eq!(subset_probability(&m, &[0, 1, 2]), 0.25);
    assert_eq!(subset_probability(&m, &[]), 1.0, "empty set is contained everywhere");
    assert_eq!(subset_probability(&[], &[0]), 0.0);
}

#[test]
fn nan_threshold_rejects_everything_like_the_reference() {
    // The engine validates τ, but direct calls can pass NaN; both miners
    // must then agree that nothing qualifies (`p >= NaN` is false).
    let m = masks(3, &[&[0, 1, 2], &[0, 1, 2]]);
    let result = both(&m, 3, &PcnnConfig::new(f64::NAN));
    assert!(result.sets.is_empty());
    assert_eq!(ust_core::pcnn::support_threshold(f64::NAN, 10), 11);
    assert_eq!(ust_core::pcnn::support_threshold(f64::NAN, 0), 1);
}

#[test]
fn lattice_finds_all_qualifying_sets() {
    // Object is NN at {0,1} in 60% of worlds, at {2} in 40%, at all three
    // in 20%.
    let m = masks(
        3,
        &[
            &[0, 1, 2],
            &[0, 1, 2],
            &[0, 1],
            &[0, 1],
            &[0, 1],
            &[0, 1],
            &[2],
            &[2],
            &[],
            &[],
        ],
    );
    let result = both(&m, 3, &PcnnConfig::new(0.5));
    let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
    assert!(sets.contains(&vec![0]));
    assert!(sets.contains(&vec![1]));
    assert!(sets.contains(&vec![0, 1]));
    assert!(!sets.contains(&vec![2]), "{{2}} has probability 0.4 < 0.5");
    assert!(!sets.contains(&vec![0, 1, 2]));
    // Probabilities attached to the sets are the world fractions.
    let p01 = result.sets.iter().find(|(s, _)| s == &vec![0, 1]).unwrap().1;
    assert!((p01 - 0.6).abs() < 1e-12);
    assert_eq!(result.max_level, 2);
    assert_eq!(result.frontier_peak, 2, "both levels hold two qualifying sets");
}

#[test]
fn anti_monotonicity_prunes_supersets_without_evaluation() {
    // Only timestamp 0 ever qualifies; the lattice must stop after level 1
    // and evaluate exactly num_times candidate sets.
    let m = masks(4, &[&[0], &[0], &[0], &[1]]);
    let result = both(&m, 4, &PcnnConfig::new(0.5));
    assert_eq!(result.sets.len(), 1);
    assert_eq!(result.candidate_sets_evaluated, 4);
    assert_eq!(result.max_level, 1);
    assert_eq!(result.frontier_peak, 1);
}

#[test]
fn low_threshold_reaches_the_full_set() {
    let m = masks(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 2]]);
    let result = both(&m, 3, &PcnnConfig::new(0.1));
    let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
    assert!(sets.contains(&vec![0, 1, 2]));
    // All 7 non-empty subsets qualify at tau = 0.1.
    assert_eq!(sets.len(), 7);
    assert_eq!(result.max_level, 3);
    assert_eq!(result.frontier_peak, 3, "levels 1 and 2 both hold three sets");
}

#[test]
fn maximal_only_removes_subsumed_sets() {
    let m = masks(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
    let all = both(&m, 3, &PcnnConfig::new(0.5));
    assert_eq!(all.sets.len(), 7);
    let maximal = both(&m, 3, &PcnnConfig::maximal(0.5));
    assert_eq!(maximal.sets.len(), 1);
    assert_eq!(maximal.sets[0].0, vec![0, 1, 2]);
    assert_eq!(maximal.max_level, 3, "observability reflects the unfiltered lattice");
    assert_eq!(maximal.frontier_peak, 3);
}

#[test]
fn maximal_only_keeps_incomparable_sets_across_levels() {
    // {0,1} qualifies as a pair; {2} qualifies alone and is in no
    // qualifying pair, so both must survive the maximality filter.
    let m = masks(3, &[&[0, 1], &[0, 1], &[0, 1, 2], &[2], &[2]]);
    let result = both(&m, 3, &PcnnConfig::maximal(0.5));
    let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
    assert_eq!(sets, vec![vec![2], vec![0, 1]]);
}

#[test]
fn qualifying_sets_need_not_be_contiguous() {
    // NN at times 0 and 2 but never at 1: the qualifying pair is {0, 2}.
    let m = masks(3, &[&[0, 2], &[0, 2], &[0, 1]]);
    let result = both(&m, 3, &PcnnConfig::new(0.6));
    let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
    assert!(sets.contains(&vec![0, 2]));
    assert!(!sets.contains(&vec![0, 1]));
}

#[test]
fn sets_beyond_64_timestamps_match_the_reference() {
    // A 70-column input: candidate sets take two words, and the qualifying
    // ones join timestamps on both sides of the word boundary.
    let m = masks(70, &[&[0, 1, 65, 69], &[0, 1, 65], &[1, 65, 69], &[0, 1, 65, 69]]);
    let result = both(&m, 70, &PcnnConfig::new(0.5));
    let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
    assert!(sets.contains(&vec![0, 1, 65]));
    assert!(sets.contains(&vec![1, 65, 69]));
    assert!(sets.contains(&vec![0, 1, 65, 69]), "holds in exactly half the worlds");
    assert_eq!(result.max_level, 4);
}

#[test]
fn empty_or_degenerate_inputs() {
    let result = apriori_timesets(&[], 3, &PcnnConfig::new(0.5));
    assert!(result.sets.is_empty());
    assert_eq!(result.max_level, 0);
    assert_eq!(result.frontier_peak, 0);
    let empty = vertical_timesets(&WorldSet::new(3, 0), &PcnnConfig::new(0.5), None).unwrap();
    assert!(empty.sets.is_empty());
    assert_eq!(empty.candidate_sets_evaluated, result.candidate_sets_evaluated);
    let m = masks(1, &[&[0], &[]]);
    let result = both(&m, 1, &PcnnConfig::new(0.5));
    assert_eq!(result.sets.len(), 1);
}
