//! Shared workload builder for the persist integration tests: a seeded,
//! fully deterministic database + UST-tree + adapted-model triple, built
//! from the crate's own dependencies (no generator crate involved).

// Each integration-test binary compiles its own copy of this module and not
// all of them touch every helper.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ust_index::{UstTree, UstTreeConfig};
use ust_markov::{AdaptedModel, CsrMatrix, MarkovModel};
use ust_spatial::{Point, StateId, StateSpace};
use ust_trajectory::{ObjectId, Timestamp, TrajectoryDatabase, UncertainObject};

/// A complete store workload.
pub struct Workload {
    pub db: TrajectoryDatabase,
    pub tree: UstTree,
    pub models: Vec<(ObjectId, Arc<AdaptedModel>)>,
}

/// Builds a strongly connected sparse chain over `num_states` grid states:
/// every state keeps a self-loop, an edge to its ring successor and one
/// seeded extra edge, so random walks always have somewhere to go and the
/// forward–backward adaptation of walk observations cannot hit a
/// contradiction.
fn chain(num_states: usize, rng: &mut StdRng) -> CsrMatrix {
    let rows: Vec<Vec<(StateId, f64)>> = (0..num_states)
        .map(|i| {
            let succ = ((i + 1) % num_states) as StateId;
            let extra = rng.gen_range(0..num_states) as StateId;
            let mut row = vec![(i as StateId, 0.2), (succ, 0.5), (extra, 0.3)];
            row.sort_unstable_by_key(|&(s, _)| s);
            row.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
            row
        })
        .collect();
    CsrMatrix::from_rows(rows)
}

/// A copy of `matrix` with the same support but freshly seeded positive
/// weights. Used as a per-object model override: sharing the support keeps
/// every walk of the original chain realizable under the override, so
/// adaptation still succeeds.
fn perturb(matrix: &CsrMatrix, rng: &mut StdRng) -> CsrMatrix {
    let rows: Vec<Vec<(StateId, f64)>> = (0..matrix.num_states())
        .map(|i| {
            let (cols, _) = matrix.row(i as StateId);
            cols.iter().map(|&c| (c, rng.gen_range(0.1f64..1.0))).collect()
        })
        .collect();
    CsrMatrix::from_rows(rows)
}

/// Walks the chain from a random start, recording every `gap`-th state as an
/// observation — observations lie on a realizable path, so adaptation always
/// succeeds.
fn walk(
    matrix: &CsrMatrix,
    rng: &mut StdRng,
    num_obs: usize,
    gap: u32,
) -> Vec<(Timestamp, StateId)> {
    let mut state = rng.gen_range(0..matrix.num_states()) as StateId;
    let mut t: Timestamp = rng.gen_range(0u32..5);
    let mut obs = Vec::with_capacity(num_obs);
    obs.push((t, state));
    for _ in 1..num_obs {
        for _ in 0..gap {
            let (cols, _) = matrix.row(state);
            state = cols[rng.gen_range(0..cols.len())];
        }
        t += gap;
        obs.push((t, state));
    }
    obs
}

/// Builds a deterministic workload: `num_objects` random walks over a
/// `num_states`-state chain, the UST-tree over them (serial build for
/// machine-independent stats), adapted models for the first half of the
/// objects, and one per-object a-priori model override.
pub fn build_workload(
    num_states: usize,
    num_objects: usize,
    obs_per_object: usize,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (num_states as f64).sqrt().ceil() as usize;
    let positions: Vec<Point> = (0..num_states)
        .map(|i| Point::new((i % side) as f64, (i / side) as f64))
        .collect();
    let space = Arc::new(StateSpace::from_points(positions));
    let matrix = chain(num_states, &mut rng);
    let shared = Arc::new(MarkovModel::homogeneous(matrix.clone()));

    let objects: Vec<UncertainObject> = (0..num_objects)
        .map(|i| {
            let pairs = walk(&matrix, &mut rng, obs_per_object, 1 + (i as u32 % 3));
            UncertainObject::from_pairs(i as ObjectId * 3 + 1, pairs).expect("walks are valid")
        })
        .collect();
    let ids: Vec<ObjectId> = objects.iter().map(|o| o.id()).collect();
    let mut db = TrajectoryDatabase::with_objects(space, shared, objects);
    db.set_object_model(ids[0], Arc::new(MarkovModel::homogeneous(perturb(&matrix, &mut rng))));

    let tree = UstTree::build_with(&db, &UstTreeConfig { build_threads: 1, ..Default::default() });

    let models: Vec<(ObjectId, Arc<AdaptedModel>)> = ids
        .iter()
        .take(num_objects.div_ceil(2))
        .map(|&id| {
            let pairs = db.object(id).expect("just inserted").observation_pairs();
            let model = AdaptedModel::build(db.model_for(id).as_ref(), &pairs)
                .expect("walk observations adapt cleanly");
            (id, Arc::new(model))
        })
        .collect();

    Workload { db, tree, models }
}
