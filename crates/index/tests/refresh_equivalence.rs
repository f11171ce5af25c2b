//! A refreshed UST-tree must equal a from-scratch build over the grown
//! database: same diamonds in the same order, same R-tree shape, same
//! pruning results — at every `build_threads` setting. And it must build
//! exactly the segments its plan asks for: a stale object's segments from τ
//! on, the end of its last hop-feasible segment before the append, or its
//! whole run when it is new, had a single observation or had no feasible
//! segment.
//!
//! Each seeded case builds a random database on a line of states, then
//! grows it by a few append batches, refreshing the previous tree after each
//! one. The first batch of every case covers each way an append can change
//! a run: an existing object's tail grows; a new object arrives; a
//! single-observation object gets its second observation, so its degenerate
//! diamond must go; a hop-infeasible segment yields no diamond; and an object
//! with its own a-priori model is touched. The second batch extends that
//! hop-infeasible tail and the new object, appends to one object twice (the
//! shape of a WAL replay, many frames before one refresh) and adds an object
//! whose only segment is hop-infeasible; the third extends that empty run
//! and adds an object that is appended to twice. Each batch also touches
//! random objects. One more refresh per case starts from a tree that went
//! through `encode_store` and `decode_store`.

mod common;

use common::{assert_identical_trees, prune_at};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ust_index::{ObjectId, Timestamp, UstTree, UstTreeConfig};
use ust_markov::reachability::segment;
use ust_markov::{CsrMatrix, MarkovModel};
use ust_persist::{decode_store, encode_store, StoreContents};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{Observation, TrajectoryDatabase, UncertainObject};

const STATES: u32 = 16;
const CASES: u64 = 24;
const WINDOWS: &[(u32, u32)] = &[(0, 400), (0, 5), (10, 30), (40, 41)];

/// Object 0 moves by the override model; object 1 starts with one
/// observation; object 3 gets a hop-infeasible tail in the first batch.
const OVERRIDE: ObjectId = 0;
const SINGLE: ObjectId = 1;
const INFEASIBLE_TAIL: ObjectId = 3;
/// New objects: one arrives in each batch.
const NEW_IN_FIRST: ObjectId = 100;
const NEW_EMPTY_RUN: ObjectId = 101;
const NEW_TWICE: ObjectId = 102;

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

/// `obs` plus one observation a tick after its last, across half the line:
/// one tick is too short to get there, so the new segment is hop-infeasible.
fn push_infeasible(obs: &mut Vec<Observation>) {
    let last = *obs.last().expect("non-empty");
    let far = if last.state < STATES / 2 {
        STATES - 1
    } else {
        0
    };
    obs.push(Observation::new(last.time + 1, far));
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
        let mut ids: Vec<ObjectId> = match b {
            // Override object, single-observation object, a plain extension,
            // a hop-infeasible append and a new object.
            0 => vec![OVERRIDE, SINGLE, 2, INFEASIBLE_TAIL, NEW_IN_FIRST],
            // The infeasible tail and the first batch's new object extended,
            // two appends to one object, a new object without a feasible
            // segment.
            1 => vec![INFEASIBLE_TAIL, NEW_IN_FIRST, 2, 2, NEW_EMPTY_RUN],
            // That empty run extended; a new object appended to twice.
            _ => vec![NEW_EMPTY_RUN, NEW_TWICE, NEW_TWICE],
        };
        ids.extend((0..num_objects).filter(|_| rng.gen_bool(0.4)));
        let mut batch = Batch::new();
        for id in ids {
            let count = if id == SINGLE && b == 0 {
                1
            } else {
                rng.gen_range(1..=2usize)
            };
            let mut obs = extend(&mut rng, &grown, id, count);
            if (id == INFEASIBLE_TAIL && b == 0) || (id == NEW_EMPTY_RUN && b == 1) {
                push_infeasible(&mut obs);
                if id == NEW_EMPTY_RUN {
                    // Only the infeasible pair: the new object has no diamond.
                    obs.drain(..obs.len() - 2);
                }
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

fn cfg(build_threads: usize) -> UstTreeConfig {
    UstTreeConfig { build_threads, ..Default::default() }
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

/// Segments of `id` in `grown`, counted from observation `first` on (a
/// single observation counts its degenerate segment).
fn segments_from(grown: &TrajectoryDatabase, id: ObjectId, first: usize) -> usize {
    let n = grown.object(id).expect("stale objects exist").num_observations();
    if n == 1 {
        1
    } else {
        n - 1 - first
    }
}

/// The segments a refresh from a tree over `old` builds for the stale
/// object `id` of `grown`: those from τ on, the end of its last hop-feasible
/// segment in `old`; its whole run when `old` does not know it, holds a
/// single observation of it or no feasible segment.
fn planned_segments(old: &TrajectoryDatabase, grown: &TrajectoryDatabase, id: ObjectId) -> usize {
    let Some(before) = old.object(id) else {
        return segments_from(grown, id, 0);
    };
    let model = old.model_for(id);
    let last_feasible = before.observations().windows(2).rposition(|pair| {
        segment(model, (pair[0].time, pair[0].state), (pair[1].time, pair[1].state))
            .is_consistent()
    });
    match last_feasible {
        Some(i) => segments_from(grown, id, i + 1),
        None => segments_from(grown, id, 0),
    }
}

/// Refreshes `tree`, built over `old`, over `grown` at 1, 2 and 4 threads
/// and checks each against a from-scratch build and the plan's segment
/// count. Returns the refresh and the full build.
fn check_refresh(
    tree: &UstTree,
    old: &TrajectoryDatabase,
    grown: &TrajectoryDatabase,
    stale: &[ObjectId],
    rng: &mut StdRng,
) -> (UstTree, UstTree) {
    let mut distinct = stale.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let planned: usize = distinct.iter().map(|&id| planned_segments(old, grown, id)).sum();
    let full = UstTree::build_with(grown, &cfg(1));
    full.check_invariants()
        .expect("a full build is well formed");
    let mut refreshed: Vec<UstTree> = [1usize, 2, 4]
        .iter()
        .map(|&t| tree.refresh(grown, stale, t))
        .collect();
    for r in &refreshed {
        assert_identical_trees(r, &full, WINDOWS);
        r.check_invariants()
            .expect("a refreshed tree is well formed");
        assert_same_pruning(r, &full, rng);
        let stats = r.build_stats();
        assert_eq!(
            (stats.objects, stats.diamonds),
            (grown.len(), full.num_diamonds())
        );
        assert_eq!(stats.segments, planned, "only the planned segments are built");
        assert_eq!(
            stats.reach_memo_hits + stats.reach_memo_misses,
            stats.segments
        );
    }
    (refreshed.swap_remove(0), full)
}

/// Whether `id`'s last segment in `db` is hop-infeasible.
fn infeasible_tail(db: &TrajectoryDatabase, id: ObjectId) -> bool {
    let object = db.object(id).expect("known object");
    let model = db.model_for(id);
    object
        .segments()
        .last()
        .is_some_and(|(a, b)| !segment(model, (a.time, a.state), (b.time, b.state)).is_consistent())
}

#[test]
fn refresh_equals_a_from_scratch_build() {
    let (mut degenerate_dropped, mut infeasible_skipped) = (false, false);
    let (mut infeasible_tail_extended, mut empty_run_extended) = (false, false);
    for seed in 0..CASES {
        let (mut db, batches) = case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut tree = UstTree::build_with(&db, &cfg(1));
        for batch in &batches {
            let old = db.clone();
            for (id, obs) in batch {
                db.append_observations(*id, obs)
                    .expect("the batch re-applies");
            }
            let stale: Vec<ObjectId> = batch.iter().map(|(id, _)| *id).collect();
            let (refreshed, full) = check_refresh(&tree, &old, &db, &stale, &mut rng);
            degenerate_dropped |= old.object(SINGLE).map(|o| o.num_observations()) == Some(1)
                && stale.contains(&SINGLE)
                && !full
                    .diamonds()
                    .iter()
                    .any(|d| d.object == SINGLE && d.t_start == d.t_end);
            infeasible_skipped |= full.build_stats().diamonds < full.build_stats().segments;
            infeasible_tail_extended |=
                stale.contains(&INFEASIBLE_TAIL) && infeasible_tail(&old, INFEASIBLE_TAIL);
            empty_run_extended |= stale.contains(&NEW_EMPTY_RUN)
                && old.object(NEW_EMPTY_RUN).is_some()
                && !tree.diamonds().iter().any(|d| d.object == NEW_EMPTY_RUN);
            tree = refreshed;
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
    assert!(
        infeasible_tail_extended,
        "no case extended a hop-infeasible tail"
    );
    assert!(empty_run_extended, "no case extended an empty run");
}

/// A base tree that went through the store codec refreshes like the tree it
/// was encoded from.
#[test]
fn a_decoded_base_refreshes_like_a_built_one() {
    for seed in 0..CASES {
        let (db, batches) = case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0de);
        let built = UstTree::build_with(&db, &cfg(1));
        let bytes = encode_store(&StoreContents {
            database: &db,
            index: Some(&built),
            models: &[],
        });
        let loaded = decode_store(&bytes).expect("a fresh encode decodes");
        let base = loaded.index.expect("the store carries the tree");
        let old = loaded.database;
        let mut grown = old.clone();
        for (id, obs) in &batches[0] {
            grown
                .append_observations(*id, obs)
                .expect("the batch applies to the decoded database");
        }
        let stale: Vec<ObjectId> = batches[0].iter().map(|(id, _)| *id).collect();
        check_refresh(&base, &old, &grown, &stale, &mut rng);
    }
}
