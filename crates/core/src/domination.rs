//! Exact pairwise domination probabilities (Lemma 2 of the paper).
//!
//! Section 4.2 defines the random predicate `o ≺_q^T o_a` — "object `o` is
//! closer to `q` than `o_a` at every timestamp of `T`" — and shows (Lemma 2)
//! that its probability can be computed in polynomial time by treating the two
//! objects as one joint random variable over `S × S`:
//!
//! > "Starting at t = t_start, time transitions of J(t) are performed
//! > iteratively. In each iteration, any entry of J(t) corresponding to a
//! > possible world where o does not dominate o_a are set to zero. At time
//! > t_end, the total probability of remaining worlds in J(t_end) equals the
//! > probability that o dominates o_a over the whole duration of T."
//!
//! The paper then shows that this *pairwise* result does not extend to the
//! full P∀NN probability, because conditioning the chain of `o` on the
//! domination event destroys the Markov property — which is why the query
//! engine falls back to sampling. The pairwise computation is still useful:
//! it provides exact reference values for tests, and for a database of exactly
//! two objects it *is* the exact P∀NN probability.
//!
//! The implementation keeps the joint distribution sparse (only reachable
//! `(state of o, state of o_a)` pairs are stored), so the cost is
//! `O(|T| · k_o · k_a)` where `k_x` bounds the per-timestamp support sizes.

use crate::query::Query;
use rustc_hash::FxHashMap;
use ust_markov::{AdaptedModel, StateId, Timestamp};
use ust_spatial::StateSpace;

/// Exact probability that `o` dominates (is at least as close as) `other` with
/// respect to the query at every timestamp of the query's time set.
///
/// Both objects must cover the whole query interval; timestamps outside an
/// object's covered interval make the result `0` (the object cannot dominate
/// at a timestamp where it does not exist).
///
/// Ties (`d(q, o) == d(q, other)`) count as domination, matching the `≤` in
/// Definitions 1 and 2.
pub fn domination_probability(
    o: &AdaptedModel,
    other: &AdaptedModel,
    space: &StateSpace,
    query: &Query,
) -> f64 {
    let times = query.times();
    let Some(&first) = times.first() else { return 1.0 };
    if !times.iter().all(|&t| o.covers(t) && other.covers(t)) {
        return 0.0;
    }

    // Joint distribution over (state of o, state of other), kept sparse.
    let mut joint: FxHashMap<(StateId, StateId), f64> = FxHashMap::default();
    {
        let po = o.posterior_at(first).expect("covered");
        // The two objects are independent given their own observations, so the
        // initial joint distribution is the product of the marginals -- but we
        // must start the *processes* at `first`, and from then on evolve each
        // object with its own adapted chain (which already encodes all of its
        // observations). Starting from the posterior marginals at `first` and
        // evolving with the adapted chains yields exactly the joint law of the
        // two trajectories restricted to [first, last].
        let pa = other.posterior_at(first).expect("covered");
        for (so, wo) in po.iter() {
            for (sa, wa) in pa.iter() {
                joint.insert((so, sa), wo * wa);
            }
        }
    }

    let last = *times.last().expect("non-empty");
    // At each query timestamp the walk reaches, keep only the joint states
    // in which `o` is at least as close to that timestamp's query position.
    let mut stops = times.iter().zip(query.positions()).peekable();
    let mut filter_at = |t: Timestamp, joint: &mut FxHashMap<(StateId, StateId), f64>| {
        if let Some((_, q)) = stops.next_if(|&(&stop, _)| stop == t) {
            joint.retain(|&(so, sa), _| {
                space.position(so).dist2(q) <= space.position(sa).dist2(q)
            });
        }
    };
    filter_at(first, &mut joint);

    let mut t = first;
    while t < last {
        let mut next: FxHashMap<(StateId, StateId), f64> = FxHashMap::default();
        // Evolve in key order, not hash order: f64 accumulation is
        // order-sensitive at the last bit, and this probability feeds the
        // exact-result path, which must not depend on hash-map internals.
        let mut entries: Vec<((StateId, StateId), f64)> = joint.into_iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        for ((so, sa), w) in entries {
            let row_o = o.transition_row(t, so).expect("reachable state has a row");
            let row_a = other.transition_row(t, sa).expect("reachable state has a row");
            for (no, wo) in row_o.iter() {
                for (na, wa) in row_a.iter() {
                    let mass = w * wo * wa;
                    if mass > 0.0 {
                        *next.entry((no, na)).or_insert(0.0) += mass;
                    }
                }
            }
        }
        t += 1;
        filter_at(t, &mut next);
        joint = next;
    }
    // Same discipline for the final reduction: sum the surviving mass in key
    // order so the result is bit-stable across hash-map implementations.
    let mut survivors: Vec<((StateId, StateId), f64)> = joint.into_iter().collect();
    survivors.sort_unstable_by_key(|&(key, _)| key);
    survivors.into_iter().map(|(_, mass)| mass).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_pnn;
    use std::sync::Arc;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::Point;

    fn line_space(n: usize) -> StateSpace {
        StateSpace::from_points((0..n).map(|i| Point::new(i as f64, 0.0)).collect())
    }

    /// Random-walk chain on a line with stay/left/right moves.
    fn walk_chain(n: usize) -> MarkovModel {
        let rows = (0..n as i64)
            .map(|i| {
                let mut row = vec![(i as StateId, 1.0)];
                if i > 0 {
                    row.push((i as StateId - 1, 1.0));
                }
                if (i as usize) < n - 1 {
                    row.push((i as StateId + 1, 1.0));
                }
                row
            })
            .collect();
        MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(rows))
    }

    #[test]
    fn deterministic_objects_dominate_with_certainty() {
        let space = line_space(6);
        let model = MarkovModel::homogeneous(CsrMatrix::identity(6));
        let near = AdaptedModel::build(&model, &[(0, 1), (3, 1)]).unwrap();
        let far = AdaptedModel::build(&model, &[(0, 4), (3, 4)]).unwrap();
        let q = Query::at_point(Point::new(0.0, 0.0), vec![0, 1, 2, 3]).unwrap();
        assert!((domination_probability(&near, &far, &space, &q) - 1.0).abs() < 1e-12);
        assert!(domination_probability(&far, &near, &space, &q).abs() < 1e-12);
    }

    #[test]
    fn ties_count_as_domination() {
        let space = line_space(4);
        let model = MarkovModel::homogeneous(CsrMatrix::identity(4));
        let a = AdaptedModel::build(&model, &[(0, 2), (2, 2)]).unwrap();
        let b = AdaptedModel::build(&model, &[(0, 2), (2, 2)]).unwrap();
        let q = Query::at_point(Point::new(0.0, 0.0), vec![0, 1, 2]).unwrap();
        assert!((domination_probability(&a, &b, &space, &q) - 1.0).abs() < 1e-12);
        assert!((domination_probability(&b, &a, &space, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn objects_not_covering_the_interval_cannot_dominate() {
        let space = line_space(4);
        let model = MarkovModel::homogeneous(CsrMatrix::identity(4));
        let a = AdaptedModel::build(&model, &[(0, 1), (1, 1)]).unwrap();
        let b = AdaptedModel::build(&model, &[(0, 3), (5, 3)]).unwrap();
        let q = Query::at_point(Point::new(0.0, 0.0), vec![0, 1, 2]).unwrap();
        assert_eq!(domination_probability(&a, &b, &space, &q), 0.0);
    }

    #[test]
    fn two_object_domination_equals_exact_forall_probability() {
        // With exactly two objects, P∀NN(o) = P(o dominates the other over T).
        let space = line_space(8);
        let chain = walk_chain(8);
        let o1 = Arc::new(AdaptedModel::build(&chain, &[(0, 2), (4, 3)]).unwrap());
        let o2 = Arc::new(AdaptedModel::build(&chain, &[(0, 5), (4, 4)]).unwrap());
        let q = Query::at_point(Point::new(0.0, 0.0), vec![0, 1, 2, 3, 4]).unwrap();
        let exact = exact_pnn(
            &[(1, o1.clone()), (2, o2.clone())],
            &space,
            &q,
            1_000_000,
        )
        .unwrap();
        let dom_1 = domination_probability(&o1, &o2, &space, &q);
        let dom_2 = domination_probability(&o2, &o1, &space, &q);
        assert!(
            (dom_1 - exact.forall_of(1)).abs() < 1e-9,
            "P(o1 ≺ o2) = {dom_1} vs exact P∀NN(o1) = {}",
            exact.forall_of(1)
        );
        assert!((dom_2 - exact.forall_of(2)).abs() < 1e-9);
    }

    #[test]
    fn domination_is_anti_monotone_in_the_time_set() {
        let space = line_space(8);
        let chain = walk_chain(8);
        let o1 = AdaptedModel::build(&chain, &[(0, 2), (4, 3)]).unwrap();
        let o2 = AdaptedModel::build(&chain, &[(0, 5), (4, 4)]).unwrap();
        let short = Query::at_point(Point::new(0.0, 0.0), vec![1, 2]).unwrap();
        let long = Query::at_point(Point::new(0.0, 0.0), vec![1, 2, 3]).unwrap();
        let p_short = domination_probability(&o1, &o2, &space, &short);
        let p_long = domination_probability(&o1, &o2, &space, &long);
        assert!(p_long <= p_short + 1e-12);
    }

    #[test]
    fn domination_over_non_query_gaps_still_propagates_the_chain() {
        // Query timestamps {0, 4}: the joint chain must be propagated through
        // the intermediate (unconstrained) timestamps without filtering there.
        let space = line_space(8);
        let chain = walk_chain(8);
        let o1 = Arc::new(AdaptedModel::build(&chain, &[(0, 2), (4, 2)]).unwrap());
        let o2 = Arc::new(AdaptedModel::build(&chain, &[(0, 5), (4, 5)]).unwrap());
        let q = Query::at_point(Point::new(0.0, 0.0), vec![0, 4]).unwrap();
        let dom = domination_probability(&o1, &o2, &space, &q);
        let exact = exact_pnn(&[(1, o1), (2, o2)], &space, &q, 1_000_000).unwrap();
        assert!((dom - exact.forall_of(1)).abs() < 1e-9);
    }
}
