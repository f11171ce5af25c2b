//! A refreshed UST-tree must equal a from-scratch build over the grown
//! database: same diamonds in the same order, same R-tree shape, same
//! pruning results — at every `build_threads` setting and at both diamond
//! granularities.
//!
//! Each seeded case builds a random database on a line of states, then
//! grows it by a few append batches, refreshing the previous tree after each
//! one. The first batch of every case covers each way an append can change
//! a run: an existing object's tail grows; a new object arrives; a
//! single-observation object gets its second observation, so its degenerate
//! diamond must go; a hop-infeasible segment yields no diamond; and an object
//! with its own a-priori model is touched. Later batches touch random
//! objects.

mod common;

use common::{assert_identical_trees, prune_at};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ust_index::{ObjectId, Timestamp, UstTree, UstTreeConfig};
use ust_markov::{CsrMatrix, MarkovModel};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{Observation, TrajectoryDatabase, UncertainObject};

const STATES: u32 = 16;
const CASES: u64 = 24;
const WINDOWS: &[(u32, u32)] = &[(0, 400), (0, 5), (10, 30), (40, 41)];

/// Object 0 moves by the override model; object 1 starts with one
/// observation.
const OVERRIDE: ObjectId = 0;
const SINGLE: ObjectId = 1;

type Batch = Vec<(ObjectId, Vec<Observation>)>;

/// A chain on a line of `STATES` states where an object moves at most
/// `reach` states per tick.
fn line_model(reach: u32) -> Arc<MarkovModel> {
    let rows = (0..STATES)
        .map(|i| {
            (i.saturating_sub(reach)..=(i + reach).min(STATES - 1))
                .map(|j| (j, 1.0 + f64::from(i ^ j)))
                .collect()
        })
        .collect();
    Arc::new(MarkovModel::homogeneous(
        CsrMatrix::stochastic_from_weights(rows),
    ))
}

/// `count` observations after `(time, state)` that a walk of at most
/// `reach` states per tick can make.
fn walk(
    rng: &mut StdRng,
    mut time: Timestamp,
    mut state: u32,
    reach: u32,
    count: usize,
) -> Vec<Observation> {
    (0..count)
        .map(|_| {
            let gap = rng.gen_range(1..=4u32);
            let span = gap * reach;
            let lo = state.saturating_sub(span);
            let hi = (state + span).min(STATES - 1);
            time += gap;
            state = rng.gen_range(lo..=hi);
            Observation::new(time, state)
        })
        .collect()
}

fn reach_of(id: ObjectId) -> u32 {
    if id == OVERRIDE {
        2
    } else {
        1
    }
}

/// A continuation of `id`'s trajectory in `db` (a fresh start for a new id).
fn extend(
    rng: &mut StdRng,
    db: &TrajectoryDatabase,
    id: ObjectId,
    count: usize,
) -> Vec<Observation> {
    match db.object(id) {
        Some(o) => {
            let last = o.observations()[o.num_observations() - 1];
            walk(rng, last.time, last.state, reach_of(id), count)
        }
        None => {
            let start = Observation::new(rng.gen_range(0..20u32), rng.gen_range(0..STATES));
            let mut obs = vec![start];
            obs.extend(walk(rng, start.time, start.state, 1, count - 1));
            obs
        }
    }
}

/// A random database plus the append batches that grow it.
fn case(seed: u64) -> (TrajectoryDatabase, Vec<Batch>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space =
        StateSpace::from_points((0..STATES).map(|i| Point::new(f64::from(i), 0.0)).collect());
    let mut db = TrajectoryDatabase::new(Arc::new(space), line_model(1));
    db.set_object_model(OVERRIDE, line_model(2));
    let num_objects = rng.gen_range(4..=8u32);
    for id in 0..num_objects {
        let observations = if id == SINGLE {
            1
        } else {
            rng.gen_range(1..=4usize)
        };
        let obs = extend(&mut rng, &db, id, observations);
        db.insert(UncertainObject::new(id, obs).expect("a generated walk is valid"));
    }

    let mut grown = db.clone();
    let mut batches: Vec<Batch> = Vec::new();
    for b in 0..3u32 {
        let mut ids: Vec<ObjectId> = if b == 0 {
            // Override object, single-observation object, a plain extension,
            // a hop-infeasible append and a new object.
            vec![OVERRIDE, SINGLE, 2, 3, 100]
        } else {
            let mut ids: Vec<ObjectId> = (0..num_objects).filter(|_| rng.gen_bool(0.4)).collect();
            if rng.gen_bool(0.5) {
                ids.push(100 + b);
            }
            ids
        };
        if ids.is_empty() {
            ids.push(rng.gen_range(0..num_objects));
        }
        let mut batch = Batch::new();
        for id in ids {
            let count = if id == SINGLE && b == 0 {
                1
            } else {
                rng.gen_range(1..=2usize)
            };
            let mut obs = extend(&mut rng, &grown, id, count);
            if id == 3 && b == 0 {
                // One tick is too short to cross half the line.
                let last = *obs.last().expect("non-empty");
                let far = if last.state < STATES / 2 {
                    STATES - 1
                } else {
                    0
                };
                obs.push(Observation::new(last.time + 1, far));
            }
            grown
                .append_observations(id, &obs)
                .expect("appended times are increasing");
            batch.push((id, obs));
        }
        batches.push(batch);
    }
    (db, batches)
}

fn cfg(per_timestamp_mbrs: bool, build_threads: usize) -> UstTreeConfig {
    UstTreeConfig {
        per_timestamp_mbrs,
        build_threads,
        ..Default::default()
    }
}

/// Same filter results, bit for bit, on a spread of point queries.
fn assert_same_pruning(a: &UstTree, b: &UstTree, rng: &mut StdRng) {
    for _ in 0..6 {
        let from = rng.gen_range(0..40u32);
        let times: Vec<Timestamp> = (from..from + rng.gen_range(1..=8u32)).collect();
        let q = Point::new(rng.gen_range(0.0..f64::from(STATES)), 0.0);
        for k in [1usize, 2] {
            let x = prune_at(a, &times, q, k);
            let y = prune_at(b, &times, q, k);
            assert_eq!(x.candidates, y.candidates);
            assert_eq!(x.influencers, y.influencers);
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.prune_distances), bits(&y.prune_distances));
        }
    }
}

fn refresh_equals_build(per_timestamp_mbrs: bool) {
    let (mut degenerate_dropped, mut infeasible_skipped) = (false, false);
    for seed in 0..CASES {
        let (mut db, batches) = case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut tree = UstTree::build_with(&db, &cfg(per_timestamp_mbrs, 1));
        for batch in &batches {
            let single_before = db.object(SINGLE).map(|o| o.num_observations()) == Some(1);
            for (id, obs) in batch {
                db.append_observations(*id, obs)
                    .expect("the batch re-applies");
            }
            let stale: Vec<ObjectId> = batch.iter().map(|(id, _)| *id).collect();
            // A run has one segment per observation pair, or one degenerate
            // segment for a single observation.
            let rebuilt_segments: usize = stale
                .iter()
                .filter_map(|&id| db.object(id))
                .map(|o| o.num_observations().saturating_sub(1).max(1))
                .sum();
            let full = UstTree::build_with(&db, &cfg(per_timestamp_mbrs, 1));
            full.check_invariants()
                .expect("a full build is well formed");
            let mut refreshed: Vec<UstTree> = [1usize, 2, 4]
                .iter()
                .map(|&t| tree.refresh(&db, &stale, t))
                .collect();
            for r in &refreshed {
                assert_identical_trees(r, &full, WINDOWS);
                r.check_invariants()
                    .expect("a refreshed tree is well formed");
                assert_same_pruning(r, &full, &mut rng);
                let stats = r.build_stats();
                assert_eq!(
                    (stats.objects, stats.diamonds),
                    (db.len(), full.num_diamonds())
                );
                assert_eq!(
                    stats.segments, rebuilt_segments,
                    "only the stale runs are rebuilt"
                );
                assert_eq!(
                    stats.reach_memo_hits + stats.reach_memo_misses,
                    stats.segments
                );
            }
            assert!(full
                .diamonds()
                .iter()
                .all(|d| d.per_time.is_some() == per_timestamp_mbrs));
            degenerate_dropped |= single_before
                && stale.contains(&SINGLE)
                && !full
                    .diamonds()
                    .iter()
                    .any(|d| d.object == SINGLE && d.t_start == d.t_end);
            infeasible_skipped |= full.build_stats().diamonds < full.build_stats().segments;
            tree = refreshed.swap_remove(0);
        }

        // Nothing stale: the arena is copied whole and no BFS runs.
        let copy = tree.refresh(&db, &[], 2);
        assert_identical_trees(&copy, &tree, WINDOWS);
        let stats = copy.build_stats();
        assert_eq!(
            (
                stats.segments,
                stats.reach_memo_hits + stats.reach_memo_misses
            ),
            (0, 0)
        );
    }
    assert!(degenerate_dropped, "no case dropped a degenerate diamond");
    assert!(
        infeasible_skipped,
        "no case appended a hop-infeasible segment"
    );
}

#[test]
fn refresh_equals_a_from_scratch_build() {
    refresh_equals_build(true);
}

#[test]
fn coarse_trees_refresh_coarse() {
    refresh_equals_build(false);
}
