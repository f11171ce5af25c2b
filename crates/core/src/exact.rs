//! Exact query evaluation by possible-world enumeration.
//!
//! Example 1 of the paper computes the query probabilities of the toy scenario
//! "by explicit consideration of all possible worlds". This module implements
//! exactly that: it enumerates, per object, every trajectory realisable under
//! its a-posteriori model together with its probability, forms the cartesian
//! product of the per-object trajectory sets, and sums the probabilities of
//! the worlds in which the query predicate holds.
//!
//! The cost is exponential in both the time horizon and the number of objects
//! (the paper proves P∃NN computation NP-hard, Section 4.1), so the engine
//! enforces an explicit budget. Its purpose is to provide ground truth for
//! unit/property tests and for the effectiveness study of Figure 11, where it
//! plays the role of the `REF` reference probabilities on small instances.

use crate::query::Query;
use crate::ObjectId;
use rustc_hash::FxHashMap;
use std::sync::Arc;
use ust_markov::AdaptedModel;
use ust_spatial::StateSpace;
use ust_trajectory::{NnTimeProfile, TimeMask, Trajectory};

/// Errors of the exact engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The number of possible trajectories of one object exceeded the budget.
    TooManyTrajectories {
        /// The offending object.
        object: ObjectId,
        /// The configured budget.
        limit: usize,
    },
    /// The total number of possible worlds exceeded the budget.
    TooManyWorlds {
        /// The configured budget.
        limit: usize,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::TooManyTrajectories { object, limit } => {
                write!(f, "object {object} has more than {limit} possible trajectories")
            }
            ExactError::TooManyWorlds { limit } => {
                write!(f, "more than {limit} possible worlds; use the sampling engine instead")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Exact query probabilities obtained from full possible-world enumeration.
#[derive(Debug, Clone, Default)]
pub struct ExactResult {
    /// `P∀NN(o, q, D, T)` (or the k-NN generalisation) per object.
    pub forall: FxHashMap<ObjectId, f64>,
    /// `P∃NN(o, q, D, T)` per object.
    pub exists: FxHashMap<ObjectId, f64>,
    /// Probability, per object and per subset of `T` (represented as a mask
    /// over the query timestamps), that the object is a NN at every timestamp
    /// of the subset. Only subsets with non-zero probability are stored.
    pub forall_subsets: FxHashMap<ObjectId, FxHashMap<TimeMask, f64>>,
    /// Number of possible worlds enumerated.
    pub worlds: usize,
}

impl ExactResult {
    /// `P∀NN` of an object (zero if it never qualifies).
    pub fn forall_of(&self, id: ObjectId) -> f64 {
        self.forall.get(&id).copied().unwrap_or(0.0)
    }

    /// `P∃NN` of an object (zero if it never qualifies).
    pub fn exists_of(&self, id: ObjectId) -> f64 {
        self.exists.get(&id).copied().unwrap_or(0.0)
    }

    /// Probability that the object is a NN at every timestamp of the subset
    /// given by indices into the query timestamp list.
    pub fn forall_subset_of(&self, id: ObjectId, num_times: usize, indices: &[usize]) -> f64 {
        let Some(per_subset) = self.forall_subsets.get(&id) else { return 0.0 };
        let target = TimeMask::from_indices(num_times, indices.iter().copied());
        per_subset
            .iter()
            .filter(|(mask, _)| mask.contains_all(&target))
            .map(|(_, p)| p)
            .sum()
    }
}

/// Enumerates every trajectory realisable under an adapted model, with its
/// conditional probability. Probabilities sum to one.
pub fn enumerate_trajectories(
    model: &AdaptedModel,
    limit: usize,
) -> Result<Vec<(Trajectory, f64)>, ExactError> {
    let start = model.start();
    let end = model.end();
    let first_state = model.observations()[0].1;
    let mut partial: Vec<(Vec<u32>, f64)> = vec![(vec![first_state], 1.0)];
    for t in start..end {
        let mut next: Vec<(Vec<u32>, f64)> = Vec::new();
        for (states, p) in &partial {
            let current = *states.last().expect("non-empty");
            let row = model
                .transition_row(t, current)
                .expect("reachable state has a transition row");
            for (s, w) in row.iter() {
                let mut ns = states.clone();
                ns.push(s);
                next.push((ns, p * w));
            }
        }
        partial = next;
        if partial.len() > limit {
            return Err(ExactError::TooManyTrajectories { object: 0, limit });
        }
    }
    Ok(partial
        .into_iter()
        .map(|(states, p)| (Trajectory::new(start, states), p))
        .collect())
}

/// Exhaustively evaluates the query over the given objects (each with its
/// adapted model) under k-NN semantics.
///
/// `limit` bounds both the per-object trajectory count and the total number of
/// possible worlds.
pub fn exact_pknn(
    models: &[(ObjectId, Arc<AdaptedModel>)],
    space: &StateSpace,
    query: &Query,
    k: usize,
    limit: usize,
) -> Result<ExactResult, ExactError> {
    // Enumerate per-object trajectory distributions.
    let mut per_object: Vec<(ObjectId, Vec<(Trajectory, f64)>)> = Vec::with_capacity(models.len());
    let mut total_worlds: f64 = 1.0;
    for (id, model) in models {
        let mut trajs = enumerate_trajectories(model, limit)
            .map_err(|_| ExactError::TooManyTrajectories { object: *id, limit })?;
        // Drop numerically impossible branches.
        trajs.retain(|(_, p)| *p > 0.0);
        total_worlds *= trajs.len().max(1) as f64;
        if total_worlds > limit as f64 {
            return Err(ExactError::TooManyWorlds { limit });
        }
        per_object.push((*id, trajs));
    }

    let times = query.times();
    let mut result = ExactResult::default();
    let mut indices = vec![0usize; per_object.len()];
    let mut worlds = 0usize;
    loop {
        // Build the current world.
        let mut world_prob = 1.0;
        let mut refs: Vec<(ObjectId, &Trajectory)> = Vec::with_capacity(per_object.len());
        for (slot, (id, trajs)) in per_object.iter().enumerate() {
            if trajs.is_empty() {
                continue;
            }
            let (tr, p) = &trajs[indices[slot]];
            world_prob *= p;
            refs.push((*id, tr));
        }
        worlds += 1;
        if world_prob > 0.0 {
            let profile =
                NnTimeProfile::compute_knn(&refs, space, times, query.positions(), k);
            for (id, mask) in profile.iter() {
                if mask.all() {
                    *result.forall.entry(id).or_insert(0.0) += world_prob;
                }
                if mask.any() {
                    *result.exists.entry(id).or_insert(0.0) += world_prob;
                }
                *result
                    .forall_subsets
                    .entry(id)
                    .or_default()
                    .entry(mask.clone())
                    .or_insert(0.0) += world_prob;
            }
        }
        // Advance the mixed-radix counter.
        let mut slot = 0usize;
        loop {
            if slot == per_object.len() {
                result.worlds = worlds;
                return Ok(result);
            }
            if per_object[slot].1.is_empty() {
                slot += 1;
                continue;
            }
            indices[slot] += 1;
            if indices[slot] < per_object[slot].1.len() {
                break;
            }
            indices[slot] = 0;
            slot += 1;
        }
    }
}

/// Exhaustive evaluation under plain NN semantics (`k = 1`).
pub fn exact_pnn(
    models: &[(ObjectId, Arc<AdaptedModel>)],
    space: &StateSpace,
    query: &Query,
    limit: usize,
) -> Result<ExactResult, ExactError> {
    exact_pknn(models, space, query, 1, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::Point;

    /// Figure 1 of the paper. States s1..s4 = ids 0..3 at increasing distance
    /// from q. Object o1: observed at s2 at t=1, transitions
    /// s2 -> {s1 (0.5), s3 (0.5)}, s1 -> s1, s3 -> {s1 (0.5), s3 (0.5)}.
    /// Object o2: observed at s3 at t=1, transitions s3 -> {s2 (0.5), s4 (0.5)},
    /// s2 -> s2, s4 -> s4.
    fn figure1() -> (StateSpace, Vec<(ObjectId, Arc<AdaptedModel>)>, Query) {
        let space = StateSpace::from_points(vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(4.0, 0.0),
        ]);
        let o1_model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]));
        let o2_model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(1, 0.5), (3, 0.5)],
            vec![(3, 1.0)],
        ]));
        // Adapted models require a covering observation interval, so the
        // engine-facing models here span only the observed instant t = 1; the
        // full Figure 1 interval {1, 2, 3} is checked against the a-priori
        // chains in `figure1_reference_probabilities` below.
        let q = Query::at_point(Point::new(0.0, 0.0), vec![1]).unwrap();
        let a1 = Arc::new(AdaptedModel::build(&o1_model, &[(1, 1)]).unwrap());
        let a2 = Arc::new(AdaptedModel::build(&o2_model, &[(1, 2)]).unwrap());
        (space, vec![(1, a1), (2, a2)], q)
    }

    /// Enumerates the a-priori chain of an object from `(t_start, state)` for
    /// `t_end - t_start` steps. Returns (trajectory states, probability).
    fn enumerate_apriori(
        model: &MarkovModel,
        t_start: u32,
        t_end: u32,
        start_state: u32,
    ) -> Vec<(Vec<u32>, f64)> {
        let mut partial = vec![(vec![start_state], 1.0)];
        for t in t_start..t_end {
            let mut next = Vec::new();
            for (states, p) in &partial {
                let cur = *states.last().unwrap();
                for (s, w) in model.matrix_at(t).row_iter(cur) {
                    let mut ns = states.clone();
                    ns.push(s);
                    next.push((ns, p * w));
                }
            }
            partial = next;
        }
        partial
    }

    /// Computes the Figure 1 probabilities by brute force over the a-priori
    /// chains (the "possible worlds" listed in the paper) and checks the
    /// published numbers.
    #[test]
    fn figure1_reference_probabilities() {
        let (space, _, _) = figure1();
        let o1_model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]));
        let o2_model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(1, 0.5), (3, 0.5)],
            vec![(3, 1.0)],
        ]));
        let worlds1 = enumerate_apriori(&o1_model, 1, 3, 1);
        let worlds2 = enumerate_apriori(&o2_model, 1, 3, 2);
        assert_eq!(worlds1.len(), 3, "o1 has the 3 possible trajectories listed in the paper");
        assert_eq!(worlds2.len(), 2, "o2 has 2 possible trajectories");
        let q = Point::new(0.0, 0.0);
        let mut p_exists_o2 = 0.0;
        let mut p_forall_o1 = 0.0;
        for (tr1, p1) in &worlds1 {
            for (tr2, p2) in &worlds2 {
                let p = p1 * p2;
                // o2 closer than o1 at some t?
                let exists_o2 = (0..3).any(|i| {
                    space.position(tr2[i]).dist(&q) <= space.position(tr1[i]).dist(&q)
                });
                let forall_o1 = (0..3).all(|i| {
                    space.position(tr1[i]).dist(&q) <= space.position(tr2[i]).dist(&q)
                });
                if exists_o2 {
                    p_exists_o2 += p;
                }
                if forall_o1 {
                    p_forall_o1 += p;
                }
            }
        }
        assert!((p_exists_o2 - 0.25).abs() < 1e-12, "paper: P∃NN(o2) = 0.25, got {p_exists_o2}");
        assert!((p_forall_o1 - 0.75).abs() < 1e-12, "paper: P∀NN(o1) = 0.75, got {p_forall_o1}");
    }

    #[test]
    fn enumeration_of_adapted_models_sums_to_one() {
        let model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]));
        let adapted = AdaptedModel::build(&model, &[(0, 1), (4, 0)]).unwrap();
        let trajs = enumerate_trajectories(&adapted, 10_000).unwrap();
        let total: f64 = trajs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (tr, p) in &trajs {
            assert!(*p > 0.0);
            assert!(tr.consistent_with(adapted.observations()));
        }
    }

    #[test]
    fn exact_engine_on_single_timestamp_matches_hand_computation() {
        let (space, models, q) = figure1();
        let result = exact_pnn(&models, &space, &q, 10_000).unwrap();
        // At t=1 o1 is at s2 (distance 2) and o2 at s3 (distance 3).
        assert!((result.forall_of(1) - 1.0).abs() < 1e-12);
        assert!((result.exists_of(1) - 1.0).abs() < 1e-12);
        assert_eq!(result.forall_of(2), 0.0);
        assert_eq!(result.worlds, 1);
    }

    #[test]
    fn exact_knn_includes_both_objects_for_k2() {
        let (space, models, q) = figure1();
        let result = exact_pknn(&models, &space, &q, 2, 10_000).unwrap();
        assert!((result.forall_of(1) - 1.0).abs() < 1e-12);
        assert!((result.forall_of(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_violations_are_reported() {
        let (space, models, q) = figure1();
        let err = exact_pnn(&models, &space, &q, 0).unwrap_err();
        assert!(matches!(err, ExactError::TooManyWorlds { .. } | ExactError::TooManyTrajectories { .. }));
    }

    #[test]
    fn subset_probabilities_are_consistent_with_forall() {
        let space = StateSpace::from_points(vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(4.0, 0.0),
        ]);
        let model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]));
        let a1 = Arc::new(AdaptedModel::build(&model, &[(0, 1), (2, 0)]).unwrap());
        let a2 = Arc::new(AdaptedModel::build(&model, &[(0, 2), (2, 2)]).unwrap());
        let q = Query::at_point(Point::new(0.0, 0.0), vec![0, 1, 2]).unwrap();
        let result = exact_pnn(&[(1, a1), (2, a2)], &space, &q, 100_000).unwrap();
        // The probability of covering the full timestamp set equals P∀NN.
        let full = result.forall_subset_of(1, 3, &[0, 1, 2]);
        assert!((full - result.forall_of(1)).abs() < 1e-12);
        // Subset probabilities are anti-monotone.
        let single = result.forall_subset_of(1, 3, &[1]);
        let pair = result.forall_subset_of(1, 3, &[1, 2]);
        assert!(single >= pair - 1e-12);
        assert!(pair >= full - 1e-12);
    }
}
