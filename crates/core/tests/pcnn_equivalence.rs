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
use ust_core::{
    EngineConfig, PcnnOutcome, Query, QueryBudget, QueryEngine, Timestamp, TimestampSets,
};
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

/// The qualifying sets of a miner result as index lists, in order.
fn set_lists(result: &PcnnResult) -> Vec<Vec<Timestamp>> {
    result.sets.iter().map(|(s, _)| s.to_vec()).collect()
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

/// Per-world masks of `num_times` columns of which `live` carry worlds: each
/// live column is a full column or a copy of one of a few random templates,
/// and the rest are empty, so identical columns abound, as in the engine's
/// PC2NN world sets. Live columns sit at random positions, on both sides of
/// the 64-timestamp word boundary when `num_times` reaches past it.
fn templated_masks(
    rng: &mut StdRng,
    num_times: usize,
    num_worlds: usize,
    live: usize,
) -> Vec<TimeMask> {
    let templates: Vec<Vec<bool>> = (0..rng.gen_range(1..=4))
        .map(|_| {
            let density = [0.2, 0.5, 0.8, 0.95][rng.gen_range(0usize..4)];
            (0..num_worlds).map(|_| rng.gen::<f64>() < density).collect()
        })
        .collect();
    let mut columns: Vec<Option<&Vec<bool>>> = vec![None; num_times];
    let mut full = vec![false; num_times];
    for _ in 0..live {
        let t = rng.gen_range(0..num_times);
        if rng.gen::<f64>() < 0.3 {
            full[t] = true;
        } else {
            columns[t] = Some(&templates[rng.gen_range(0..templates.len())]);
        }
    }
    (0..num_worlds)
        .map(|w| {
            let hits = (0..num_times).filter(|&t| full[t] || columns[t].is_some_and(|c| c[w]));
            TimeMask::from_indices(num_times, hits)
        })
        .collect()
}

/// Asserts that the miner's result equals the oracle's: the same sets in the
/// same order, the same probability bits and the same three counters.
fn assert_same_as_reference(vertical: &PcnnResult, reference: &PcnnResult, what: &str) {
    let bits = |r: &PcnnResult| -> Vec<(Vec<Timestamp>, u64)> {
        r.sets.iter().map(|(s, p)| (s.to_vec(), p.to_bits())).collect()
    };
    assert_eq!(bits(vertical), bits(reference), "sets or probability bits diverged ({what})");
    assert_eq!(
        vertical.candidate_sets_evaluated, reference.candidate_sets_evaluated,
        "candidate count diverged ({what})"
    );
    assert_eq!(vertical.max_level, reference.max_level, "max_level diverged ({what})");
    assert_eq!(vertical.frontier_peak, reference.frontier_peak, "frontier diverged ({what})");
}

/// The mining checkpoint count of an unbreached run: one per emitted level
/// and one per multiple of `MINING_CHECK_INTERVAL` the candidate count
/// passes above level 1.
fn expected_checkpoints(result: &PcnnResult, num_times: usize) -> u64 {
    let interval = ust_core::govern::MINING_CHECK_INTERVAL;
    (result.max_level + result.candidate_sets_evaluated / interval - num_times / interval) as u64
}

/// Runs the miner with an unlimited gauge and asserts it returns `free`
/// with the checkpoint count of [`expected_checkpoints`].
fn assert_governed_matches(ws: &WorldSet, cfg: &PcnnConfig, free: &PcnnResult, what: &str) {
    let gauge = QueryBudget::unlimited().start();
    let governed = vertical_timesets(ws, cfg, Some(&gauge)).expect("an unlimited budget");
    assert!(!governed.degraded, "{what}");
    assert_eq!(governed.sets, free.sets, "{what}");
    assert_eq!(governed.candidate_sets_evaluated, free.candidate_sets_evaluated, "{what}");
    assert_eq!(gauge.checkpoints(), expected_checkpoints(free, ws.num_times()), "{what}");
}

/// Identical columns are mined once, as one class: the answer, its order,
/// its probability bits and all three counters must still be the
/// timestamp-level oracle's, with duplicate, full and empty columns mixed,
/// at `|T|` up to 16 and from 60 to 140, with and without `maximal_only`.
#[test]
fn vertical_miner_matches_reference_on_duplicate_and_full_columns() {
    let mut rng = StdRng::seed_from_u64(0x0c1a_55e5);
    let mut trials: Vec<(usize, Vec<TimeMask>)> = Vec::new();
    for _ in 0..90 {
        let num_times = rng.gen_range(1usize..=16);
        let num_worlds = rng.gen_range(1usize..=200);
        let live = rng.gen_range(1..=num_times.min(10));
        trials.push((num_times, templated_masks(&mut rng, num_times, num_worlds, live)));
    }
    for _ in 0..30 {
        let num_times = rng.gen_range(60usize..=140);
        let num_worlds = rng.gen_range(1usize..=200);
        let live = rng.gen_range(1usize..=10);
        trials.push((num_times, templated_masks(&mut rng, num_times, num_worlds, live)));
    }
    for (trial, (num_times, masks)) in trials.iter().enumerate() {
        let num_times = *num_times;
        let worldset = world_set(num_times, masks);
        // At τ = 0 every empty column qualifies too, so only the small
        // lattices run it.
        let zero = if num_times <= 10 { &[0.0][..] } else { &[] };
        for &tau in zero.iter().chain(&[0.05, 0.1, 0.3, 0.5, 0.9]) {
            for maximal_only in [false, true] {
                let cfg = PcnnConfig { tau, maximal_only };
                let what = format!(
                    "trial {trial}, tau {tau}, maximal {maximal_only}, |T| {num_times}, \
                     worlds {}",
                    masks.len()
                );
                let reference = apriori_timesets(masks, num_times, &cfg);
                let vertical = vertical_timesets(&worldset, &cfg, None).expect("no gauge");
                assert_same_as_reference(&vertical, &reference, &what);
                assert_governed_matches(&worldset, &cfg, &vertical, &what);
            }
        }
    }
}

/// More than 64 distinct qualifying columns take the multi-word class-set;
/// duplicates and full columns ride along, and the run validates well over
/// 1 024 candidates, so the within-level checkpoints fire.
#[test]
fn more_than_64_classes_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x64c1);
    let (num_times, num_worlds) = (96usize, 200usize);
    // 70 distinct half-density columns, 3 full ones, 20 copies of the first
    // 20 and 3 empty ones, shuffled.
    let mut distinct: Vec<Vec<bool>> =
        (0..70).map(|_| (0..num_worlds).map(|_| rng.gen::<f64>() < 0.5).collect()).collect();
    let copies: Vec<Vec<bool>> = distinct[..20].to_vec();
    distinct.extend(copies);
    distinct.extend((0..3).map(|_| vec![true; num_worlds]));
    distinct.extend((0..3).map(|_| vec![false; num_worlds]));
    for i in (1..distinct.len()).rev() {
        distinct.swap(i, rng.gen_range(0..=i));
    }
    let masks: Vec<TimeMask> = (0..num_worlds)
        .map(|w| TimeMask::from_indices(num_times, (0..num_times).filter(|&t| distinct[t][w])))
        .collect();
    let worldset = world_set(num_times, &masks);
    for maximal_only in [false, true] {
        let cfg = PcnnConfig { tau: 0.3, maximal_only };
        let what = format!("maximal {maximal_only}");
        let reference = apriori_timesets(&masks, num_times, &cfg);
        let vertical = vertical_timesets(&worldset, &cfg, None).expect("no gauge");
        assert_same_as_reference(&vertical, &reference, &what);
        assert!(vertical.candidate_sets_evaluated > 1024, "{what}: the checkpoints fire");
        assert!(vertical.max_level >= 4, "{what}: full columns extend every set");
        assert_governed_matches(&worldset, &cfg, &vertical, &what);
    }
}

/// The checkpoint identity on large lattices the oracle cannot afford in a
/// test: 14 copies of one full column among 16 (every subset of the copies
/// qualifies, and nothing fails above level 1), and 11 full columns among
/// 1 100, where `⌊|T|/1024⌋` is 1.
#[test]
fn mining_checkpoints_follow_the_expanded_candidate_count() {
    let full_among = |num_times: usize, full: usize| {
        let mut ws = WorldSet::new(num_times, 100);
        for t in 0..full {
            for w in 0..100 {
                ws.record(num_times - 1 - 3 * t, w);
            }
        }
        ws
    };
    for (ws, full) in [(full_among(16, 5), 5), (full_among(1_100, 11), 11)] {
        let num_times = ws.num_times();
        let cfg = PcnnConfig::new(0.5);
        let free = vertical_timesets(&ws, &cfg, None).expect("no gauge");
        let sets = (1usize << full) - 1;
        assert_eq!(free.sets.len(), sets, "|T| {num_times}: every subset of the full columns");
        assert_eq!(free.candidate_sets_evaluated, num_times + sets - full);
        assert_eq!(free.max_level, full);
        assert_governed_matches(&ws, &cfg, &free, &format!("|T| {num_times}"));
    }
    let mut copies = WorldSet::new(16, 100);
    for t in 1..15 {
        for w in 0..100 {
            copies.record(t, w);
        }
    }
    let free = vertical_timesets(&copies, &PcnnConfig::new(0.5), None).expect("no gauge");
    assert_eq!(free.sets.len(), (1 << 14) - 1);
    assert_eq!(free.candidate_sets_evaluated, 16 + (1 << 14) - 1 - 14);
    assert_eq!((free.max_level, free.frontier_peak), (14, 3432), "C(14, 7) sets of size 7");
    assert_governed_matches(&copies, &PcnnConfig::new(0.5), &free, "14 copies");
    let reference = apriori_timesets(&[], 0, &PcnnConfig::new(0.5));
    assert_eq!(reference.candidate_sets_evaluated, 0);
}

/// A deadline that passes mid-mining keeps whole levels: the degraded answer
/// is the full answer cut after its `max_level`-th level (for
/// `maximal_only`, the level-wise maximal sets of that cut), whichever
/// checkpoint tripped.
#[test]
fn degraded_mining_keeps_whole_levels_of_the_full_answer() {
    // Columns 0, 2, .., 10 (one class, worlds 0-79) and 1, 3, .., 11 (one
    // class, worlds 0-69) qualify together; column 12 (worlds 80-99)
    // qualifies alone but with neither, so {12} is maximal below every cut.
    // Column 13 is empty.
    let mut ws = WorldSet::new(14, 100);
    for t in 0..13 {
        let worlds = match t {
            12 => 80..100,
            t if t % 2 == 0 => 0..80,
            _ => 0..70,
        };
        for w in worlds {
            ws.record(t, w);
        }
    }
    let full = vertical_timesets(&ws, &PcnnConfig::new(0.15), None).expect("no gauge");
    assert_eq!(full.max_level, 12);
    let full_sets: Vec<(Vec<Timestamp>, u64)> =
        full.sets.iter().map(|(s, p)| (s.to_vec(), p.to_bits())).collect();
    let mut saw_degraded = false;
    for micros in [0u64, 1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 100_000] {
        for maximal_only in [false, true] {
            let gauge = QueryBudget::unlimited()
                .with_deadline(std::time::Duration::from_micros(micros))
                .start();
            let cfg = PcnnConfig { tau: 0.15, maximal_only };
            let run = vertical_timesets(&ws, &cfg, Some(&gauge)).expect("a deadline degrades");
            saw_degraded |= run.degraded;
            let top = run.max_level;
            let cut: Vec<&(Vec<Timestamp>, u64)> =
                full_sets.iter().filter(|(s, _)| s.len() <= top).collect();
            // The level-wise maximal filter: a set below `top` goes iff a set
            // one larger in the cut contains it.
            let contains = |o: &[Timestamp], s: &[Timestamp]| s.iter().all(|t| o.contains(t));
            let subsumed = |s: &[Timestamp]| {
                s.len() < top && cut.iter().any(|(o, _)| o.len() == s.len() + 1 && contains(o, s))
            };
            let expected: Vec<(Vec<Timestamp>, u64)> = cut
                .iter()
                .filter(|(s, _)| !(maximal_only && subsumed(s)))
                .map(|&set| set.clone())
                .collect();
            let got: Vec<(Vec<Timestamp>, u64)> =
                run.sets.iter().map(|(s, p)| (s.to_vec(), p.to_bits())).collect();
            let what = format!("deadline {micros} µs, maximal {maximal_only}, top {top}");
            assert_eq!(got, expected, "{what}");
            let widest = (1..=top).map(|k| cut.iter().filter(|(s, _)| s.len() == k).count());
            assert_eq!(run.frontier_peak, widest.max().unwrap_or(0), "{what}");
            assert!(run.candidate_sets_evaluated <= full.candidate_sets_evaluated, "{what}");
            if !run.degraded {
                assert_eq!(top, full.max_level, "{what}");
                assert_eq!(run.candidate_sets_evaluated, full.candidate_sets_evaluated, "{what}");
            }
        }
    }
    assert!(saw_degraded, "a zero deadline degrades at the first level");
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
/// and checks that the engine's outcome is identical, for k = 1 and 2, with
/// and without the UST-tree filter. The engine answers P∃kNN, P∀kNN and
/// PCkNN from one world set per influence object; the reference reduces its
/// per-world masks independently (any, all, Apriori).
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
    for (use_index, k) in [(false, 1), (true, 1), (false, 2), (true, 2)] {
        let engine = QueryEngine::new(
            &db,
            EngineConfig { num_samples, seed, use_index, ..Default::default() },
        );
        let outcome = engine.pcknn(&query, k, tau).expect("query succeeds");
        let forall = engine.pforall_knn(&query, k, 0.0).expect("query succeeds");
        let exists = engine.pexists_knn(&query, k, 0.0).expect("query succeeds");

        // Reference pass: identical seeds, identical influencer order.
        let (candidates, influencers) = engine.filter_knn(&query, k).expect("filter succeeds");
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
                let profile =
                    NnTimeProfile::compute_knn(&world, space, times, query.positions(), k);
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
            assert_eq!(forall.probability_of(*id), expected, "index {use_index}, k {k}, object {id}");
        }
        for (id, hits) in &exists_counts {
            let expected = *hits as f64 / num_samples as f64;
            assert_eq!(exists.probability_of(*id), expected, "index {use_index}, k {k}, object {id}");
        }

        // PCNN sets, probabilities and per-object counters must match
        // exactly, over every influence object.
        let cfg = PcnnConfig::new(tau);
        let mut total_evaluated = 0usize;
        for (id, object_masks) in &masks {
            let reference = apriori_timesets(object_masks, times.len(), &cfg);
            total_evaluated += reference.candidate_sets_evaluated;
            let mut expected = TimestampSets::default();
            for (indices, p) in &reference.sets {
                let set: Vec<Timestamp> = indices.iter().map(|&i| times[i as usize]).collect();
                expected.push(&set, *p);
            }
            match outcome.sets_of(*id) {
                Some(sets) => {
                    assert_eq!(sets, &expected, "index {use_index}, k {k}: object {id} sets diverged");
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
    let sets = set_lists(&result);
    assert!(sets.contains(&vec![0]));
    assert!(sets.contains(&vec![1]));
    assert!(sets.contains(&vec![0, 1]));
    assert!(!sets.contains(&vec![2]), "{{2}} has probability 0.4 < 0.5");
    assert!(!sets.contains(&vec![0, 1, 2]));
    // Probabilities attached to the sets are the world fractions.
    let p01 = result.sets.iter().find(|(s, _)| *s == [0, 1]).unwrap().1;
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
    let sets = set_lists(&result);
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
    assert_eq!(set_lists(&maximal), [vec![0, 1, 2]]);
    assert_eq!(maximal.max_level, 3, "observability reflects the unfiltered lattice");
    assert_eq!(maximal.frontier_peak, 3);
}

#[test]
fn maximal_only_keeps_incomparable_sets_across_levels() {
    // {0,1} qualifies as a pair; {2} qualifies alone and is in no
    // qualifying pair, so both must survive the maximality filter.
    let m = masks(3, &[&[0, 1], &[0, 1], &[0, 1, 2], &[2], &[2]]);
    let result = both(&m, 3, &PcnnConfig::maximal(0.5));
    assert_eq!(set_lists(&result), [vec![2], vec![0, 1]]);
}

#[test]
fn qualifying_sets_need_not_be_contiguous() {
    // NN at times 0 and 2 but never at 1: the qualifying pair is {0, 2}.
    let m = masks(3, &[&[0, 2], &[0, 2], &[0, 1]]);
    let result = both(&m, 3, &PcnnConfig::new(0.6));
    let sets = set_lists(&result);
    assert!(sets.contains(&vec![0, 2]));
    assert!(!sets.contains(&vec![0, 1]));
}

#[test]
fn sets_beyond_64_timestamps_match_the_reference() {
    // A 70-column input: candidate sets take two words, and the qualifying
    // ones join timestamps on both sides of the word boundary.
    let m = masks(70, &[&[0, 1, 65, 69], &[0, 1, 65], &[1, 65, 69], &[0, 1, 65, 69]]);
    let result = both(&m, 70, &PcnnConfig::new(0.5));
    let sets = set_lists(&result);
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
