//! Nearest-neighbor primitives on certain trajectories.
//!
//! Inside one *possible world* every object has a certain trajectory, and the
//! classic trajectory-NN questions of [5, 6, 7, 8, 20, 21] apply:
//!
//! * which objects are nearest neighbors of the query at a timestamp `t`,
//! * which objects are nearest neighbors at *all* / *some* timestamps of `T`,
//! * which objects belong to the k-nearest-neighbor set at a timestamp.
//!
//! Ties are handled according to the paper's definitions, which use
//! `d(q(t), o(t)) ≤ d(q(t), o'(t))`: every object achieving the minimum
//! distance *is* a nearest neighbor. An object whose trajectory does not
//! cover `t` neither qualifies nor prunes at that timestamp.
//!
//! These are the per-world reference semantics: `ust-core`'s exact oracle
//! and the tests evaluate them once per enumerated or sampled world. The
//! Monte-Carlo engine applies the same tie rule to a whole 64-world block at
//! once and does not call them.

use crate::certain::Trajectory;
use crate::object::ObjectId;
use crate::timemask::TimeMask;
use crate::Timestamp;
use rustc_hash::FxHashMap;
use std::borrow::Borrow;
use ust_spatial::{Point, StateSpace};

/// All objects that are nearest neighbors of `q` at time `t` in the given
/// world (ties included). Objects not covering `t` are ignored.
///
/// The world is generic over [`Borrow<Trajectory>`], so both borrowed views
/// (`&[(ObjectId, &Trajectory)]`) and owned possible-world storage
/// (`&[(ObjectId, Trajectory)]`) are accepted without building an
/// intermediate reference `Vec` per world.
pub fn nn_objects_at<T: Borrow<Trajectory>>(
    world: &[(ObjectId, T)],
    space: &StateSpace,
    q: &Point,
    t: Timestamp,
) -> Vec<ObjectId> {
    let mut best = f64::INFINITY;
    let mut out: Vec<ObjectId> = Vec::new();
    for (id, tr) in world {
        let (id, tr) = (*id, tr.borrow());
        let Some(s) = tr.state_at(t) else { continue };
        let d = space.position(s).dist2(q);
        if d < best {
            best = d;
            out.clear();
            out.push(id);
        } else if d == best {
            out.push(id);
        }
    }
    out
}

/// All objects in the k-nearest-neighbor set of `q` at time `t`: every object
/// whose distance is at most the k-th smallest distance (so ties at the
/// boundary are included). Objects not covering `t` are ignored.
pub fn knn_members_at<T: Borrow<Trajectory>>(
    world: &[(ObjectId, T)],
    space: &StateSpace,
    q: &Point,
    t: Timestamp,
    k: usize,
) -> Vec<ObjectId> {
    if k == 0 {
        return Vec::new();
    }
    let mut dists: Vec<(f64, ObjectId)> = world
        .iter()
        .filter_map(|(id, tr)| {
            tr.borrow().state_at(t).map(|s| (space.position(s).dist2(q), *id))
        })
        .collect();
    if dists.is_empty() {
        return Vec::new();
    }
    dists.sort_by(|a, b| a.0.total_cmp(&b.0));
    let cutoff = dists[(k - 1).min(dists.len() - 1)].0;
    dists.into_iter().filter(|&(d, _)| d <= cutoff).map(|(_, id)| id).collect()
}

/// Per-object nearest-neighbor membership over a set of query timestamps,
/// evaluated inside one possible world.
#[derive(Debug, Clone)]
pub struct NnTimeProfile {
    times: Vec<Timestamp>,
    masks: FxHashMap<ObjectId, TimeMask>,
}

impl NnTimeProfile {
    /// Computes the profile for `k = 1` (plain nearest neighbors).
    pub fn compute<T: Borrow<Trajectory>>(
        world: &[(ObjectId, T)],
        space: &StateSpace,
        times: &[Timestamp],
        positions: &[Point],
    ) -> Self {
        Self::compute_knn(world, space, times, positions, 1)
    }

    /// Computes the profile for general `k`: bit `i` of an object's mask is
    /// set iff the object belongs to the kNN set of the query at position
    /// `positions[i]` and time `times[i]`.
    ///
    /// Like [`nn_objects_at`], the world is generic over
    /// [`Borrow<Trajectory>`] so a sampled possible world's owned trajectory
    /// storage can be evaluated without first materialising a reference `Vec`.
    pub fn compute_knn<T: Borrow<Trajectory>>(
        world: &[(ObjectId, T)],
        space: &StateSpace,
        times: &[Timestamp],
        positions: &[Point],
        k: usize,
    ) -> Self {
        assert_eq!(positions.len(), times.len(), "one query position per timestamp");
        let mut masks: FxHashMap<ObjectId, TimeMask> = FxHashMap::default();
        for (i, (&t, q)) in times.iter().zip(positions).enumerate() {
            let members = if k == 1 {
                nn_objects_at(world, space, q, t)
            } else {
                knn_members_at(world, space, q, t, k)
            };
            for id in members {
                masks
                    .entry(id)
                    .or_insert_with(|| TimeMask::new(times.len()))
                    .set(i);
            }
        }
        NnTimeProfile { times: times.to_vec(), masks }
    }

    /// The query timestamps this profile covers.
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// The membership mask of an object (`None` if it is never a NN).
    pub fn mask(&self, id: ObjectId) -> Option<&TimeMask> {
        self.masks.get(&id)
    }

    /// Objects that are a nearest neighbor at least once, with their masks.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &TimeMask)> {
        self.masks.iter().map(|(&id, m)| (id, m))
    }

    /// Whether `id` is a nearest neighbor at *every* query timestamp
    /// (the ∀ event of Definition 2, evaluated in this world).
    pub fn is_forall_nn(&self, id: ObjectId) -> bool {
        self.masks.get(&id).map(|m| m.all()).unwrap_or(false)
    }

    /// Whether `id` is a nearest neighbor at *some* query timestamp
    /// (the ∃ event of Definition 1, evaluated in this world).
    pub fn is_exists_nn(&self, id: ObjectId) -> bool {
        self.masks.get(&id).map(|m| m.any()).unwrap_or(false)
    }

    /// Whether `id` is a nearest neighbor at every timestamp indexed by the
    /// set bits of `subset` (used by the PCNN Apriori lattice).
    pub fn covers_subset(&self, id: ObjectId, subset: &TimeMask) -> bool {
        match self.masks.get(&id) {
            Some(m) => m.contains_all(subset),
            None => !subset.any(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four states on a line at x = 0, 1, 2, 3.
    fn space() -> StateSpace {
        StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ])
    }

    #[test]
    fn nn_at_single_timestamp() {
        let sp = space();
        let a = Trajectory::new(0, vec![0, 1, 2]);
        let b = Trajectory::new(0, vec![3, 3, 3]);
        let world = vec![(1u32, &a), (2u32, &b)];
        let q = Point::new(0.0, 0.0);
        assert_eq!(nn_objects_at(&world, &sp, &q, 0), vec![1]);
        assert_eq!(nn_objects_at(&world, &sp, &q, 2), vec![1]);
        // Query at x=2.5: a is at x=2, b at x=3 -> a closer at t=2.
        assert_eq!(nn_objects_at(&world, &sp, &Point::new(2.6, 0.0), 2), vec![2]);
    }

    #[test]
    fn ties_make_both_objects_nearest_neighbors() {
        let sp = space();
        let a = Trajectory::new(0, vec![0]);
        let b = Trajectory::new(0, vec![2]);
        let world = vec![(1u32, &a), (2u32, &b)];
        let q = Point::new(1.0, 0.0);
        let mut nn = nn_objects_at(&world, &sp, &q, 0);
        nn.sort_unstable();
        assert_eq!(nn, vec![1, 2]);
    }

    #[test]
    fn objects_outside_their_lifetime_are_ignored() {
        let sp = space();
        let a = Trajectory::new(5, vec![0, 0]);
        let b = Trajectory::new(0, vec![3, 3, 3, 3, 3, 3, 3]);
        let world = vec![(1u32, &a), (2u32, &b)];
        let q = Point::new(0.0, 0.0);
        // At t=0 only b exists even though a would be closer.
        assert_eq!(nn_objects_at(&world, &sp, &q, 0), vec![2]);
        assert_eq!(nn_objects_at(&world, &sp, &q, 5), vec![1]);
        // At a time no object covers, nobody is NN.
        assert!(nn_objects_at(&world, &sp, &q, 20).is_empty());
    }

    #[test]
    fn knn_membership_with_ties() {
        let sp = space();
        let a = Trajectory::new(0, vec![0]);
        let b = Trajectory::new(0, vec![1]);
        let c = Trajectory::new(0, vec![2]);
        let d = Trajectory::new(0, vec![2]);
        let world = vec![(1u32, &a), (2u32, &b), (3u32, &c), (4u32, &d)];
        let q = Point::new(0.0, 0.0);
        assert_eq!(knn_members_at(&world, &sp, &q, 0, 1), vec![1]);
        let mut k2 = knn_members_at(&world, &sp, &q, 0, 2);
        k2.sort_unstable();
        assert_eq!(k2, vec![1, 2]);
        // k = 3: the third-smallest distance is shared by c and d, both join.
        let mut k3 = knn_members_at(&world, &sp, &q, 0, 3);
        k3.sort_unstable();
        assert_eq!(k3, vec![1, 2, 3, 4]);
        assert!(knn_members_at(&world, &sp, &q, 0, 0).is_empty());
        // k larger than the world size returns everyone alive.
        assert_eq!(knn_members_at(&world, &sp, &q, 0, 10).len(), 4);
    }

    #[test]
    fn time_profile_forall_and_exists() {
        let sp = space();
        // a stays at x=0, b walks 3,2,1 -> at t=2 b (x=1) is closer to q=x1.1? Let's use q at x=0.
        let a = Trajectory::new(0, vec![0, 0, 0]);
        let b = Trajectory::new(0, vec![3, 2, 0]);
        let world = vec![(1u32, &a), (2u32, &b)];
        let times = vec![0, 1, 2];
        let profile = NnTimeProfile::compute(&world, &sp, &times, &[Point::ORIGIN; 3]);
        assert!(profile.is_forall_nn(1));
        assert!(profile.is_exists_nn(1));
        assert!(!profile.is_forall_nn(2));
        assert!(profile.is_exists_nn(2), "b ties with a at t=2");
        assert!(!profile.is_exists_nn(99));
        assert_eq!(profile.mask(1).unwrap().count_ones(), 3);
        assert_eq!(profile.mask(2).unwrap().count_ones(), 1);
    }

    #[test]
    fn time_profile_subset_and_intervals() {
        let sp = space();
        // b is NN at times 0,1 and 3 (non-contiguous).
        let a = Trajectory::new(0, vec![3, 3, 0, 3]);
        let b = Trajectory::new(0, vec![0, 0, 3, 0]);
        let world = vec![(1u32, &a), (2u32, &b)];
        let times = vec![0, 1, 2, 3];
        let profile = NnTimeProfile::compute(&world, &sp, &times, &[Point::ORIGIN; 4]);
        let subset01 = TimeMask::from_indices(4, [0, 1]);
        let subset02 = TimeMask::from_indices(4, [0, 2]);
        assert!(profile.covers_subset(2, &subset01));
        assert!(!profile.covers_subset(2, &subset02));
        assert_eq!(profile.mask(2), Some(&TimeMask::from_indices(4, [0, 1, 3])));
        assert_eq!(profile.mask(1), Some(&TimeMask::from_indices(4, [2])));
        assert!(profile.mask(42).is_none());
    }

    #[test]
    fn owned_trajectory_worlds_need_no_reference_vec() {
        let sp = space();
        // The same world twice: once as owned pairs (the possible-world
        // storage), once as the classic borrowed view. Results must agree.
        let owned: Vec<(ObjectId, Trajectory)> = vec![
            (1, Trajectory::new(0, vec![0, 0, 0])),
            (2, Trajectory::new(0, vec![3, 2, 0])),
        ];
        let borrowed: Vec<(ObjectId, &Trajectory)> =
            owned.iter().map(|(id, tr)| (*id, tr)).collect();
        let q = Point::new(0.0, 0.0);
        assert_eq!(
            nn_objects_at(&owned, &sp, &q, 1),
            nn_objects_at(&borrowed, &sp, &q, 1)
        );
        assert_eq!(
            knn_members_at(&owned, &sp, &q, 0, 2),
            knn_members_at(&borrowed, &sp, &q, 0, 2)
        );
        let times = vec![0, 1, 2];
        let a = NnTimeProfile::compute(&owned, &sp, &times, &[q; 3]);
        let b = NnTimeProfile::compute(&borrowed, &sp, &times, &[q; 3]);
        for id in [1u32, 2] {
            assert_eq!(a.mask(id), b.mask(id));
        }
    }

    #[test]
    fn time_profile_with_gap_in_query_times() {
        let sp = space();
        // Object 1 is alive only at t = 5 and 6, the last two query times.
        let a = Trajectory::new(5, vec![0, 0]);
        let b = Trajectory::new(0, vec![3; 10]);
        let world = vec![(1u32, &a), (2u32, &b)];
        // Non-contiguous query times: mask bits index `times`, not timestamps.
        let times = vec![0, 1, 5, 6];
        let profile = NnTimeProfile::compute(&world, &sp, &times, &[Point::ORIGIN; 4]);
        assert_eq!(profile.mask(1), Some(&TimeMask::from_indices(4, [2, 3])));
        assert_eq!(profile.mask(2), Some(&TimeMask::from_indices(4, [0, 1])));
    }
}
