//! Integration test: Example 1 / Figure 1 of the paper.
//!
//! The paper's worked example: two uncertain objects over the state space
//! {s1, s2, s3, s4} (ordered by increasing distance from the query q) and the
//! query interval T = {1, 2, 3}.
//!
//! * o1 has three possible trajectories: (s2,s1,s1) with probability 0.5,
//!   (s2,s3,s1) with 0.25 and (s2,s3,s3) with 0.25.
//! * o2 has two possible trajectories: (s3,s2,s2) and (s3,s4,s4), each 0.5.
//!
//! The paper states: P∃NN(o2, q, D, T) = 0.25, P∀NN(o1, q, D, T) = 0.75, and
//! PCNNQ(q, D, T, 0.1) returns o1 with {1,2,3} and o2 with {2,3}.
//!
//! The test reproduces the possible worlds with the workspace's own Markov and
//! NN machinery (chains → enumerated worlds → `NnTimeProfile`) and checks all
//! published numbers, including through the PCNN subset probabilities.

use ust_markov::{CsrMatrix, MarkovModel, StateId, Timestamp};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{NnTimeProfile, TimeMask, Trajectory};

/// s1..s4 at increasing distance from the query located at the origin.
fn space() -> StateSpace {
    StateSpace::from_points(vec![
        Point::new(1.0, 0.0), // s1
        Point::new(2.0, 0.0), // s2
        Point::new(3.0, 0.0), // s3
        Point::new(4.0, 0.0), // s4
    ])
}

/// o1's chain: s2 -> {s1, s3}, s3 -> {s1, s3}, s1/s4 absorbing (each split 0.5).
fn o1_chain() -> MarkovModel {
    MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
        vec![(0, 1.0)],
        vec![(0, 0.5), (2, 0.5)],
        vec![(0, 0.5), (2, 0.5)],
        vec![(3, 1.0)],
    ]))
}

/// o2's chain: s3 -> {s2, s4}, s2/s4 absorbing (each split 0.5).
fn o2_chain() -> MarkovModel {
    MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
        vec![(0, 1.0)],
        vec![(1, 1.0)],
        vec![(1, 0.5), (3, 0.5)],
        vec![(3, 1.0)],
    ]))
}

/// Enumerates all trajectories of a chain starting at `start_state` at time 1
/// over T = {1, 2, 3}, with their probabilities.
fn enumerate(model: &MarkovModel, start_state: StateId) -> Vec<(Trajectory, f64)> {
    let mut worlds: Vec<(Vec<StateId>, f64)> = vec![(vec![start_state], 1.0)];
    for t in 1..3u32 {
        let mut next = Vec::new();
        for (states, p) in &worlds {
            let cur = *states.last().unwrap();
            for (s, w) in model.matrix_at(t).row_iter(cur) {
                let mut ns = states.clone();
                ns.push(s);
                next.push((ns, p * w));
            }
        }
        worlds = next;
    }
    worlds.into_iter().map(|(states, p)| (Trajectory::new(1, states), p)).collect()
}

struct Figure1 {
    space: StateSpace,
    o1_worlds: Vec<(Trajectory, f64)>,
    o2_worlds: Vec<(Trajectory, f64)>,
}

impl Figure1 {
    fn new() -> Self {
        Figure1 {
            space: space(),
            o1_worlds: enumerate(&o1_chain(), 1),
            o2_worlds: enumerate(&o2_chain(), 2),
        }
    }

    /// Sums the probabilities of the possible worlds in which `predicate`
    /// holds, where the predicate receives the NN time profile of the world.
    fn probability_of(&self, times: &[Timestamp], predicate: impl Fn(&NnTimeProfile) -> bool) -> f64 {
        let positions = vec![Point::new(0.0, 0.0); times.len()];
        let mut total = 0.0;
        for (tr1, p1) in &self.o1_worlds {
            for (tr2, p2) in &self.o2_worlds {
                let world = vec![(1u32, tr1), (2u32, tr2)];
                let profile = NnTimeProfile::compute(&world, &self.space, times, &positions);
                if predicate(&profile) {
                    total += p1 * p2;
                }
            }
        }
        total
    }
}

#[test]
fn object_trajectory_distributions_match_figure_1() {
    let fig = Figure1::new();
    assert_eq!(fig.o1_worlds.len(), 3, "o1 has three possible trajectories");
    assert_eq!(fig.o2_worlds.len(), 2, "o2 has two possible trajectories");
    let probability_of = |worlds: &[(Trajectory, f64)], states: &[StateId]| {
        worlds
            .iter()
            .find(|(tr, _)| tr.states() == states)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    };
    assert!((probability_of(&fig.o1_worlds, &[1, 0, 0]) - 0.5).abs() < 1e-12);
    assert!((probability_of(&fig.o1_worlds, &[1, 2, 0]) - 0.25).abs() < 1e-12);
    assert!((probability_of(&fig.o1_worlds, &[1, 2, 2]) - 0.25).abs() < 1e-12);
    assert!((probability_of(&fig.o2_worlds, &[2, 1, 1]) - 0.5).abs() < 1e-12);
    assert!((probability_of(&fig.o2_worlds, &[2, 3, 3]) - 0.5).abs() < 1e-12);
}

#[test]
fn exists_nn_probability_of_o2_is_a_quarter() {
    let fig = Figure1::new();
    let p = fig.probability_of(&[1, 2, 3], |profile| profile.is_exists_nn(2));
    assert!((p - 0.25).abs() < 1e-12, "paper: P∃NN(o2) = 0.25, got {p}");
}

#[test]
fn forall_nn_probability_of_o1_is_three_quarters() {
    let fig = Figure1::new();
    let p = fig.probability_of(&[1, 2, 3], |profile| profile.is_forall_nn(1));
    assert!((p - 0.75).abs() < 1e-12, "paper: P∀NN(o1) = 0.75, got {p}");
}

#[test]
fn forall_and_exists_are_complementary_for_two_objects() {
    // With exactly two objects and no ties, o1 fails to be the ∀-NN exactly
    // when o2 is the NN at some timestamp.
    let fig = Figure1::new();
    let p_forall_o1 = fig.probability_of(&[1, 2, 3], |p| p.is_forall_nn(1));
    let p_exists_o2 = fig.probability_of(&[1, 2, 3], |p| p.is_exists_nn(2));
    assert!((p_forall_o1 + p_exists_o2 - 1.0).abs() < 1e-12);
}

#[test]
fn pcnn_result_of_the_paper_example() {
    let fig = Figure1::new();
    let times = vec![1, 2, 3];
    // o1 qualifies for the full interval at tau = 0.1 (probability 0.75).
    let full = TimeMask::from_indices(3, [0, 1, 2]);
    let p_o1_full = fig.probability_of(&times, |p| p.covers_subset(1, &full));
    assert!(p_o1_full >= 0.1);
    assert!((p_o1_full - 0.75).abs() < 1e-12);
    // o2 qualifies for {2, 3} (probability 0.125 >= 0.1) ...
    let t23 = TimeMask::from_indices(3, [1, 2]);
    let p_o2_23 = fig.probability_of(&times, |p| p.covers_subset(2, &t23));
    assert!((p_o2_23 - 0.125).abs() < 1e-12, "P∀NN(o2, {{2,3}}) = 0.125, got {p_o2_23}");
    assert!(p_o2_23 >= 0.1);
    // ... but not for the full interval (o1 is strictly closer at t=1).
    let p_o2_full = fig.probability_of(&times, |p| p.covers_subset(2, &full));
    assert!(p_o2_full < 0.1);
    assert!(p_o2_full.abs() < 1e-12);
}

#[test]
fn anti_monotonicity_holds_on_the_example() {
    let fig = Figure1::new();
    let times = vec![1, 2, 3];
    for object in [1u32, 2u32] {
        let singles: Vec<f64> = (0..3)
            .map(|i| {
                let m = TimeMask::from_indices(3, [i]);
                fig.probability_of(&times, |p| p.covers_subset(object, &m))
            })
            .collect();
        let full = TimeMask::from_indices(3, [0, 1, 2]);
        let p_full = fig.probability_of(&times, |p| p.covers_subset(object, &full));
        for p_single in singles {
            assert!(p_single >= p_full - 1e-12);
        }
    }
}
