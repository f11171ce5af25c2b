//! Property-based tests over the core data structures and invariants.
//!
//! The strategies generate small random Markov chains, observation sets and
//! geometric workloads; the properties encode the paper's structural
//! guarantees: adapted models stay stochastic and agree with the dense
//! reference implementation, sampled trajectories always honour the
//! observations, the R-tree returns exactly the brute-force answer, NN
//! probabilities respect the ∃/∀ ordering and anti-monotonicity, and pruning
//! never loses a possible result.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::Infallible;
use std::sync::Arc;
use ust_core::exact::exact_pnn;
use ust_core::Query;
use ust_markov::dense::{adapt_dense, DenseMatrix};
use ust_markov::{AdaptedModel, CsrMatrix, MarkovModel, StateId, Timestamp};
use ust_sampling::PosteriorSampler;
use ust_spatial::{Point, RTree, Rect2, StateSpace};
use ust_trajectory::TimeMask;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A random small row-stochastic chain over `n` states where every state can
/// reach its neighbors on a ring (guaranteeing connectivity).
fn chain_strategy(max_states: usize) -> impl Strategy<Value = (usize, Vec<Vec<(StateId, f64)>>)> {
    (3..=max_states).prop_flat_map(|n| {
        let rows = proptest::collection::vec(
            proptest::collection::vec(0.05f64..1.0, 3),
            n,
        )
        .prop_map(move |weights| {
            weights
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let fwd = ((i + 1) % n) as StateId;
                    let bwd = ((i + n - 1) % n) as StateId;
                    vec![(i as StateId, w[0]), (fwd, w[1]), (bwd, w[2])]
                })
                .collect::<Vec<_>>()
        });
        (Just(n), rows)
    })
}

/// A random consistent observation set for the given chain: a random walk is
/// simulated and observed at a few timestamps.
fn observations_for(
    matrix: &CsrMatrix,
    seed: u64,
    horizon: u32,
    num_obs: usize,
) -> Vec<(Timestamp, StateId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let mut state: StateId = rng.gen_range(0..matrix.num_states() as StateId);
    let mut walk = vec![state];
    for _ in 0..horizon {
        let (cols, vals) = matrix.row(state);
        let total: f64 = vals.iter().sum();
        let mut target = rng.gen::<f64>() * total;
        let mut next = cols[0];
        for (c, v) in cols.iter().zip(vals) {
            if target < *v {
                next = *c;
                break;
            }
            target -= *v;
        }
        state = next;
        walk.push(state);
    }
    // Observe the walk at `num_obs` distinct, sorted timestamps including the endpoints.
    let mut times: Vec<u32> = vec![0, horizon];
    for k in 1..num_obs.saturating_sub(1) {
        times.push((k as u32 * horizon) / num_obs as u32);
    }
    times.sort_unstable();
    times.dedup();
    times.into_iter().map(|t| (t, walk[t as usize])).collect()
}

/// Every item the R-tree walk visits for `q`, sorted.
fn intersecting(tree: &RTree<2, usize>, q: &Rect2) -> Vec<usize> {
    let mut got = Vec::new();
    let Ok(()) = tree.try_for_each_intersecting(q, |_, &i| {
        got.push(i);
        Ok::<(), Infallible>(())
    });
    got.sort_unstable();
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // -----------------------------------------------------------------
    // Forward-backward adaptation
    // -----------------------------------------------------------------

    /// The sparse adaptation agrees with the dense reference implementation
    /// and produces normalized posteriors and stochastic transition rows.
    #[test]
    fn adaptation_matches_dense_reference((n, rows) in chain_strategy(8), seed in 0u64..1000) {
        let sparse = CsrMatrix::stochastic_from_weights(rows.clone());
        let mut dense = DenseMatrix::zeros(n);
        for i in 0..n {
            for (j, v) in sparse.row_iter(i as StateId) {
                dense.set(i, j as usize, v);
            }
        }
        let obs = observations_for(&sparse, seed, 8, 3);
        let model = MarkovModel::homogeneous(sparse);
        let adapted = AdaptedModel::build(&model, &obs).expect("walk-derived observations are consistent");
        prop_assert!(adapted.check_invariants().is_ok());
        let dense_adapted = adapt_dense(&dense, &obs).expect("dense adaptation succeeds");
        for t in adapted.start()..=adapted.end() {
            let post = adapted.posterior_at(t).unwrap();
            for s in 0..n as StateId {
                let expected = dense_adapted.posterior[(t - adapted.start()) as usize][s as usize];
                prop_assert!((post.prob(s) - expected).abs() < 1e-9,
                    "posterior mismatch at t={t}, s={s}");
            }
        }
    }

    /// Every trajectory drawn from the a-posteriori model passes through all
    /// observations and stays inside the posterior support.
    #[test]
    fn posterior_samples_honour_observations((_n, rows) in chain_strategy(8), seed in 0u64..1000) {
        let sparse = CsrMatrix::stochastic_from_weights(rows);
        let obs = observations_for(&sparse, seed, 10, 4);
        let model = MarkovModel::homogeneous(sparse);
        let adapted = AdaptedModel::build(&model, &obs).expect("consistent");
        let sampler = PosteriorSampler::new(&adapted);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..20 {
            let tr = sampler.sample(&mut rng);
            prop_assert!(tr.consistent_with(&obs));
            for (t, s) in tr.iter() {
                prop_assert!(adapted.posterior_at(t).unwrap().prob(s) > 0.0,
                    "sampled state outside the posterior support");
            }
        }
    }

    // -----------------------------------------------------------------
    // R-tree
    // -----------------------------------------------------------------

    /// Intersection queries on the STR-packed R-tree return exactly the
    /// brute-force answer.
    #[test]
    fn rtree_matches_brute_force(
        boxes in proptest::collection::vec(((0.0f64..100.0), (0.0f64..100.0), (0.1f64..8.0), (0.1f64..8.0)), 1..120),
        query in ((0.0f64..100.0), (0.0f64..100.0), (1.0f64..40.0), (1.0f64..40.0)),
    ) {
        let rects: Vec<(Rect2, usize)> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| (Rect2::new([x, y], [x + w, y + h]), i))
            .collect();
        let q = Rect2::new([query.0, query.1], [query.0 + query.2, query.1 + query.3]);
        let mut expected: Vec<usize> = rects.iter().filter(|(r, _)| r.intersects(&q)).map(|&(_, i)| i).collect();
        expected.sort_unstable();

        let bulk = RTree::bulk_load(rects, 8);
        prop_assert!(bulk.check_invariants().is_ok());
        prop_assert_eq!(intersecting(&bulk, &q), expected);
    }

    /// STR bulk loading keeps the structural invariants (node fill, MBR
    /// consistency, uniform leaf depth) exactly at and around the node
    /// capacity boundaries — item counts of `capacity^level ± delta`, where
    /// slicing off one item flips the number of tiles/levels. These shapes
    /// back the paper-scale UST-tree build, which STR-loads hundreds of
    /// thousands of diamonds in one call.
    #[test]
    fn bulk_load_keeps_invariants_at_capacity_boundaries(
        capacity in 4usize..=9,
        level in 1u32..=2,
        delta in -2isize..=2,
        seed in 0u64..1000,
    ) {
        let base = capacity.pow(level) as isize;
        let n = (base + delta).max(1) as usize;
        // Deterministic xorshift layout seeded by the proptest case, so
        // shrinking stays reproducible.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xDEAD_BEEF);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rects: Vec<(Rect2, usize)> = (0..n)
            .map(|i| {
                let (x, y) = (next() * 100.0, next() * 100.0);
                (Rect2::new([x, y], [x + 0.5, y + 0.5]), i)
            })
            .collect();
        let tree = RTree::bulk_load(rects, capacity);
        prop_assert_eq!(tree.len(), n);
        if let Err(violation) = tree.check_invariants() {
            return Err(TestCaseError::fail(format!(
                "capacity {capacity}, n {n}: {violation}"
            )));
        }
        // Every stored item is reachable through the directory.
        let everything = Rect2::new([0.0, 0.0], [101.0, 101.0]);
        prop_assert_eq!(intersecting(&tree, &everything), (0..n).collect::<Vec<_>>());
    }

    // -----------------------------------------------------------------
    // TimeMask
    // -----------------------------------------------------------------

    /// TimeMask behaves like a reference set of indices.
    #[test]
    fn timemask_behaves_like_a_set(
        len in 1usize..100,
        indices in proptest::collection::vec(0usize..100, 0..40),
        other in proptest::collection::vec(0usize..100, 0..40),
    ) {
        use std::collections::BTreeSet;
        let a_set: BTreeSet<usize> = indices.iter().copied().filter(|&i| i < len).collect();
        let b_set: BTreeSet<usize> = other.iter().copied().filter(|&i| i < len).collect();
        let a = TimeMask::from_indices(len, a_set.iter().copied());
        let b = TimeMask::from_indices(len, b_set.iter().copied());
        prop_assert_eq!(a.count_ones(), a_set.len());
        prop_assert_eq!(a.any(), !a_set.is_empty());
        prop_assert_eq!(a.all(), a_set.len() == len);
        prop_assert_eq!(a.contains_all(&b), b_set.is_subset(&a_set));
        prop_assert_eq!(a.iter_ones().collect::<Vec<_>>(), a_set.iter().copied().collect::<Vec<_>>());
        let mut union = a.clone();
        union.union_with(&b);
        prop_assert_eq!(union.count_ones(), a_set.union(&b_set).count());
        let mut inter = a.clone();
        inter.intersect_with(&b);
        prop_assert_eq!(inter.count_ones(), a_set.intersection(&b_set).count());
        prop_assert_eq!(a.intersection_count(&b), a_set.intersection(&b_set).count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    // -----------------------------------------------------------------
    // Query semantics on random small instances (exact enumeration)
    // -----------------------------------------------------------------

    /// On random small instances: P∃NN ≥ P∀NN per object, Σ P∀NN ≤ 1,
    /// and P∀NN is anti-monotone under growing timestamp sets.
    #[test]
    fn exact_query_semantics_invariants(seed in 0u64..500) {
        // Geometry: 9 states on a 3x3 grid.
        let space = StateSpace::from_points(
            (0..9).map(|i| Point::new((i % 3) as f64, (i / 3) as f64)).collect(),
        );
        // Chain: move to a 4-neighbor or stay, uniform.
        let rows: Vec<Vec<(StateId, f64)>> = (0..9i64)
            .map(|i| {
                let (x, y) = (i % 3, i / 3);
                let mut row = vec![(i as StateId, 1.0)];
                if x > 0 { row.push((i as StateId - 1, 1.0)); }
                if x < 2 { row.push((i as StateId + 1, 1.0)); }
                if y > 0 { row.push((i as StateId - 3, 1.0)); }
                if y < 2 { row.push((i as StateId + 3, 1.0)); }
                row
            })
            .collect();
        let matrix = CsrMatrix::stochastic_from_weights(rows);
        let model = MarkovModel::homogeneous(matrix.clone());

        // Three objects with walk-derived observations over [0, 4].
        let mut models = Vec::new();
        for k in 0..3u32 {
            let obs = observations_for(&matrix, seed.wrapping_mul(31).wrapping_add(k as u64), 4, 3);
            let adapted = AdaptedModel::build(&model, &obs).expect("consistent");
            models.push((k, Arc::new(adapted)));
        }
        let q = Query::at_point(Point::new(1.0, 1.0), vec![0, 1, 2, 3, 4]).unwrap();
        let exact = exact_pnn(&models, &space, &q, 500_000);
        let exact = match exact { Ok(e) => e, Err(_) => return Ok(()) };

        let mut sum_forall = 0.0;
        for k in 0..3u32 {
            let pf = exact.forall_of(k);
            let pe = exact.exists_of(k);
            prop_assert!(pf <= pe + 1e-9, "object {k}: P∀ {pf} > P∃ {pe}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&pf));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&pe));
            sum_forall += pf;
            // Anti-monotonicity of subset probabilities.
            let p_single = exact.forall_subset_of(k, 5, &[2]);
            let p_pair = exact.forall_subset_of(k, 5, &[2, 3]);
            let p_triple = exact.forall_subset_of(k, 5, &[1, 2, 3]);
            prop_assert!(p_single >= p_pair - 1e-9);
            prop_assert!(p_pair >= p_triple - 1e-9);
        }
        // Ties can make several objects simultaneous ∀-NNs, but on this
        // geometry ties have positive probability only between objects at the
        // same state, which still yields a joint event counted for both; allow
        // a small tolerance above 1.
        prop_assert!(sum_forall <= 2.0 + 1e-9);
    }

    /// UST-tree pruning never discards an object that the exact evaluation
    /// assigns a non-zero ∃-probability.
    #[test]
    fn pruning_is_sound(seed in 0u64..300) {
        use ust_generator::{Dataset, ObjectWorkloadConfig, SyntheticNetworkConfig};
        use ust_index::UstTree;

        let ds = Dataset::synthetic(
            &SyntheticNetworkConfig { num_states: 250, branching_factor: 6.0, seed },
            &ObjectWorkloadConfig {
                num_objects: 12,
                lifetime: 4,
                horizon: 10,
                observation_interval: 2,
                lag: 0.6,
                standing_fraction: 0.0,
                seed: seed.wrapping_add(1),
            },
            1.0,
        );
        let tree = UstTree::build(&ds.database);
        let q_state = (seed % 250) as StateId;
        let q_point = ds.network.position(q_state);
        let times: Vec<Timestamp> = vec![1, 2, 3];
        let Ok(pruning) =
            tree.try_prune_knn(&times, &[q_point; 3], 1, |_| Ok::<(), Infallible>(()));

        // Exact evaluation over all objects overlapping the interval.
        let overlapping = ds.database.objects_overlapping(1, 3);
        let mut models = Vec::new();
        for id in overlapping {
            let object = ds.database.object(id).unwrap();
            let adapted = AdaptedModel::build(
                ds.database.model_for(id).as_ref(),
                &object.observation_pairs(),
            ).expect("generated observations are consistent");
            models.push((id, Arc::new(adapted)));
        }
        let query = Query::at_point(q_point, times.clone()).unwrap();
        let exact = match exact_pnn(&models, ds.database.state_space(), &query, 1_000_000) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        for (&id, &p) in &exact.exists {
            if p > 1e-12 {
                prop_assert!(
                    pruning.is_influencer(id),
                    "object {id} has P∃NN = {p} but was pruned from the influence set"
                );
            }
        }
        for (&id, &p) in &exact.forall {
            if p > 1e-12 {
                prop_assert!(
                    pruning.is_candidate(id),
                    "object {id} has P∀NN = {p} but was pruned from the candidate set"
                );
            }
        }
    }
}
