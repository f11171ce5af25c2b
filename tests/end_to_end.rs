//! End-to-end integration tests spanning the whole stack:
//! generator → trajectory database → UST-tree → model adaptation → sampling →
//! query semantics.

use pnnq::prelude::*;
use ust_core::exact::exact_pnn;
use ust_core::snapshot::{snapshot_exists_nn, snapshot_forall_nn};

/// A small but non-trivial synthetic dataset shared by the tests.
fn dataset() -> Dataset {
    Dataset::synthetic(
        &SyntheticNetworkConfig { num_states: 800, branching_factor: 8.0, seed: 42 },
        &ObjectWorkloadConfig {
            num_objects: 60,
            lifetime: 40,
            horizon: 120,
            observation_interval: 5,
            lag: 0.6,
            standing_fraction: 0.0,
            seed: 43,
        },
        1.0,
    )
}

fn covered_query(ds: &Dataset, seed: u64, len: u32) -> Query {
    let workload = QueryWorkload::generate_covered(
        &ds.network,
        &ds.database,
        &QueryWorkloadConfig { num_queries: 1, interval_length: len, horizon: 120, seed },
        3,
    );
    let spec = &workload.queries[0];
    Query::at_point(spec.location, spec.times.iter().copied()).unwrap()
}

#[test]
fn query_semantics_are_mutually_consistent() {
    let ds = dataset();
    let engine = QueryEngine::new(&ds.database, EngineConfig { num_samples: 800, seed: 1, ..Default::default() });
    let query = covered_query(&ds, 7, 8);

    let forall = engine.pforall_nn(&query, 0.0).unwrap();
    let exists = engine.pexists_nn(&query, 0.0).unwrap();

    // Every ∀-result is also an ∃-result with at least the same probability.
    for r in &forall.results {
        let pe = exists.probability_of(r.object);
        assert!(
            pe >= r.probability - 1e-9,
            "object {}: P∃NN {pe} < P∀NN {}",
            r.object,
            r.probability
        );
    }
    // ∀-probabilities sum to at most 1 + ties tolerance: at every timestamp at
    // most one object is strictly closest, ties are rare on continuous
    // coordinates, so the sum over disjoint ∀ events stays near or below 1.
    let sum_forall: f64 = forall.results.iter().map(|r| r.probability).sum();
    assert!(sum_forall <= 1.0 + 1e-6, "sum of P∀NN = {sum_forall}");
    // Filter statistics are coherent.
    assert!(forall.stats.candidates <= forall.stats.influencers);
    assert!(forall.stats.influencers <= ds.database.len());
}

#[test]
fn same_seed_gives_identical_results_and_different_seeds_agree_approximately() {
    let ds = dataset();
    let query = covered_query(&ds, 11, 6);
    let a = QueryEngine::new(&ds.database, EngineConfig { num_samples: 600, seed: 5, ..Default::default() })
        .pforall_nn(&query, 0.0)
        .unwrap();
    let b = QueryEngine::new(&ds.database, EngineConfig { num_samples: 600, seed: 5, ..Default::default() })
        .pforall_nn(&query, 0.0)
        .unwrap();
    assert_eq!(a.results.len(), b.results.len());
    for r in &a.results {
        assert_eq!(r.probability, b.probability_of(r.object), "same seed must be deterministic");
    }
    let c = QueryEngine::new(&ds.database, EngineConfig { num_samples: 4_000, seed: 99, ..Default::default() })
        .pforall_nn(&query, 0.0)
        .unwrap();
    for r in &a.results {
        assert!(
            (r.probability - c.probability_of(r.object)).abs() < 0.15,
            "different seeds should agree within Monte-Carlo error"
        );
    }
}

#[test]
fn index_and_full_scan_agree() {
    let ds = dataset();
    let query = covered_query(&ds, 13, 6);
    let with_index = QueryEngine::new(&ds.database, EngineConfig { num_samples: 1_500, seed: 2, ..Default::default() });
    let without_index = QueryEngine::new(
        &ds.database,
        EngineConfig { num_samples: 1_500, seed: 2, use_index: false, ..Default::default() },
    );
    let a = with_index.pexists_nn(&query, 0.02).unwrap();
    let b = without_index.pexists_nn(&query, 0.02).unwrap();
    // Pruning must not lose any result: every object reported by the full scan
    // with a comfortable margin above the threshold is also reported with the
    // index (and vice versa), with similar probabilities.
    for r in b.results.iter().filter(|r| r.probability > 0.1) {
        assert!(
            a.contains(r.object),
            "object {} (P = {}) lost by the indexed evaluation",
            r.object,
            r.probability
        );
        assert!((a.probability_of(r.object) - r.probability).abs() < 0.1);
    }
    for r in a.results.iter().filter(|r| r.probability > 0.1) {
        assert!(b.contains(r.object));
    }
}

#[test]
fn knn_generalisation_is_monotone_in_k() {
    let ds = dataset();
    let engine = QueryEngine::new(&ds.database, EngineConfig { num_samples: 800, seed: 3, ..Default::default() });
    let query = covered_query(&ds, 17, 5);
    let k1 = engine.pforall_knn(&query, 1, 0.0).unwrap();
    let k3 = engine.pforall_knn(&query, 3, 0.0).unwrap();
    // Being among the 3 nearest neighbors is implied by being the nearest
    // neighbor, so per-object probabilities can only grow with k.
    for r in &k1.results {
        assert!(
            k3.probability_of(r.object) >= r.probability - 0.05,
            "object {}: P∀3NN {} < P∀NN {}",
            r.object,
            k3.probability_of(r.object),
            r.probability
        );
    }
    // And k = 1 coincides with the plain NN query.
    let nn = engine.pforall_nn(&query, 0.0).unwrap();
    assert_eq!(nn.results.len(), k1.results.len());
    for r in &nn.results {
        assert_eq!(k1.probability_of(r.object), r.probability);
    }
}

#[test]
fn pcnn_sets_are_anti_monotone_and_contain_the_forall_results() {
    let ds = dataset();
    let engine = QueryEngine::new(&ds.database, EngineConfig { num_samples: 800, seed: 4, ..Default::default() });
    let query = covered_query(&ds, 19, 6);
    let tau = 0.3;
    let forall = engine.pforall_nn(&query, tau).unwrap();
    let pcnn = engine.pcnn(&query, tau).unwrap();
    // Every object qualifying for the full interval must appear in the PCNN
    // result with the full timestamp set.
    for r in &forall.results {
        let sets = pcnn.sets_of(r.object).expect("object must appear in the PCNN result");
        assert!(
            sets.iter().any(|(ts, _)| ts.len() == query.len()),
            "object {} qualifies for the whole interval but PCNN misses it",
            r.object
        );
    }
    // Anti-monotonicity: each reported superset's probability never exceeds
    // the probability of its subsets (checked pairwise within one object).
    for obj in &pcnn.results {
        for (set_a, p_a) in &obj.sets {
            for (set_b, p_b) in &obj.sets {
                if set_a.len() < set_b.len() && set_a.iter().all(|t| set_b.contains(t)) {
                    assert!(
                        p_b <= &(p_a + 1e-9),
                        "object {}: superset {:?} (P={p_b}) more likely than subset {:?} (P={p_a})",
                        obj.object,
                        set_b,
                        set_a
                    );
                }
            }
        }
    }
}

#[test]
fn sampling_agrees_with_exact_enumeration_on_a_restricted_instance() {
    // A deliberately small instance (short lifetimes, tight observation
    // spacing) so that exact possible-world enumeration is feasible; the
    // Monte-Carlo estimates must agree with the exact probabilities.
    let ds = Dataset::synthetic(
        &SyntheticNetworkConfig { num_states: 400, branching_factor: 6.0, seed: 77 },
        &ObjectWorkloadConfig {
            num_objects: 25,
            lifetime: 4,
            horizon: 20,
            observation_interval: 2,
            lag: 0.6,
            standing_fraction: 0.0,
            seed: 78,
        },
        1.0,
    );
    let engine = QueryEngine::new(&ds.database, EngineConfig { num_samples: 6_000, seed: 8, ..Default::default() });
    let workload = QueryWorkload::generate_covered(
        &ds.network,
        &ds.database,
        &QueryWorkloadConfig { num_queries: 1, interval_length: 3, horizon: 16, seed: 23 },
        2,
    );
    let spec = &workload.queries[0];
    let query = Query::at_point(spec.location, spec.times.iter().copied()).unwrap();
    let (_, influencers) = engine.filter_knn(&query, 1).unwrap();
    let models: Vec<_> = influencers
        .iter()
        .map(|&id| (id, engine.adapted_model(id).unwrap()))
        .collect();
    let exact = match exact_pnn(&models, ds.database.state_space(), &query, 2_000_000) {
        Ok(result) => result,
        Err(_) => return, // instance too large for exact enumeration: skip
    };
    let forall = engine.pforall_nn(&query, 0.0).unwrap();
    let exists = engine.pexists_nn(&query, 0.0).unwrap();
    for (&id, &p_exact) in &exact.forall {
        assert!(
            (forall.probability_of(id) - p_exact).abs() < 0.05,
            "P∀NN mismatch for object {id}: sampled {} vs exact {p_exact}",
            forall.probability_of(id)
        );
    }
    for (&id, &p_exact) in &exact.exists {
        assert!(
            (exists.probability_of(id) - p_exact).abs() < 0.05,
            "P∃NN mismatch for object {id}: sampled {} vs exact {p_exact}",
            exists.probability_of(id)
        );
    }
}

#[test]
fn snapshot_competitor_is_biased_in_the_documented_direction_on_average() {
    let ds = dataset();
    let engine = QueryEngine::new(&ds.database, EngineConfig { num_samples: 4_000, seed: 10, ..Default::default() });
    let query = covered_query(&ds, 29, 6);
    let (_, influencers) = engine.filter_knn(&query, 1).unwrap();
    let models: Vec<_> = influencers
        .iter()
        .map(|&id| (id, engine.adapted_model(id).unwrap()))
        .collect();
    let space = ds.database.state_space();
    let forall_sampled = engine.pforall_nn(&query, 0.0).unwrap();
    let exists_sampled = engine.pexists_nn(&query, 0.0).unwrap();
    let forall_snapshot = snapshot_forall_nn(&models, space, &query);
    let exists_snapshot = snapshot_exists_nn(&models, space, &query);
    let lookup = |v: &Vec<ObjectProbability>, id| {
        v.iter().find(|r| r.object == id).map(|r| r.probability).unwrap_or(0.0)
    };
    // Average over the reported objects: the snapshot ∀-estimate does not
    // exceed the sampled estimate, and the ∃-estimate does not fall below it
    // (allowing Monte-Carlo noise per object, hence the aggregate check).
    let mut forall_diff = 0.0;
    for r in &forall_sampled.results {
        forall_diff += lookup(&forall_snapshot, r.object) - r.probability;
    }
    let mut exists_diff = 0.0;
    for r in &exists_sampled.results {
        exists_diff += lookup(&exists_snapshot, r.object) - r.probability;
    }
    assert!(
        forall_diff <= 0.05 * forall_sampled.results.len().max(1) as f64,
        "snapshot ∀ estimates should underestimate on average (diff {forall_diff})"
    );
    assert!(
        exists_diff >= -0.05 * exists_sampled.results.len().max(1) as f64,
        "snapshot ∃ estimates should overestimate on average (diff {exists_diff})"
    );
}

#[test]
fn taxi_dataset_end_to_end() {
    let ds = Dataset::taxi(
        &RoadNetworkConfig { grid_width: 25, grid_height: 25, seed: 3, ..Default::default() },
        &TaxiWorkloadConfig {
            num_objects: 80,
            lifetime: 40,
            horizon: 150,
            observation_interval: 8,
            training_trips: 300,
            ..Default::default()
        },
    );
    let engine = QueryEngine::new(&ds.database, EngineConfig { num_samples: 500, seed: 6, ..Default::default() });
    let query = covered_query(&ds, 31, 6);
    let exists = engine.pexists_nn(&query, 0.0).unwrap();
    assert!(!exists.results.is_empty(), "some taxi must be a possible nearest neighbor");
    let forall = engine.pforall_nn(&query, 0.0).unwrap();
    let sum: f64 = forall.results.iter().map(|r| r.probability).sum();
    assert!(sum <= 1.0 + 1e-6);
    // UST-tree statistics: one diamond per observation segment.
    let tree = engine.index().expect("index enabled");
    let expected: usize = ds
        .database
        .objects()
        .iter()
        .map(|o| o.num_observations().saturating_sub(1).max(1))
        .sum();
    assert_eq!(tree.num_diamonds(), expected);
}
