//! Round-trip property tests: arbitrary seeded workloads are encoded,
//! decoded and re-encoded, and the second encode must be byte-identical to
//! the first — the store is lossless and canonical, with no hidden
//! hash-map-order or floating-point drift anywhere in the pipeline.

mod common;

use proptest::prelude::*;
use ust_persist::{decode_store, encode_store, StoreContents};

/// Encodes a workload, decodes the bytes, re-encodes the decoded value and
/// checks the two byte strings match. Returns the decoded store for extra
/// structural assertions.
fn assert_canonical_roundtrip(w: &common::Workload, with_tree: bool) -> ust_persist::LoadedStore {
    let bytes = encode_store(&StoreContents {
        database: &w.db,
        index: with_tree.then_some(&w.tree),
        models: &w.models,
    });
    let loaded = decode_store(&bytes).expect("a fresh encode must decode");
    let again = encode_store(&StoreContents {
        database: &loaded.database,
        index: loaded.index.as_ref(),
        models: &loaded.models,
    });
    assert_eq!(bytes, again, "re-encode of a decoded store must be byte-identical");
    assert_eq!(loaded.stats.bytes, bytes.len() as u64);
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn full_store_roundtrips_bit_identically(
        num_states in 9usize..48,
        num_objects in 1usize..6,
        obs in 2usize..10,
        seed in 0u64..1_000_000,
    ) {
        let w = common::build_workload(num_states, num_objects, obs, seed);
        let loaded = assert_canonical_roundtrip(&w, true);

        // Structural spot checks on top of the byte identity.
        prop_assert_eq!(loaded.database.len(), w.db.len());
        prop_assert_eq!(loaded.database.state_space().len(), num_states);
        let tree = loaded.index.as_ref().expect("tree section present");
        prop_assert_eq!(tree.diamonds().len(), w.tree.diamonds().len());
        prop_assert_eq!(tree.rtree_capacity(), w.tree.rtree_capacity());
        prop_assert_eq!(tree.build_stats().diamonds, w.tree.build_stats().diamonds);
        let ids: Vec<_> = loaded.models.iter().map(|(id, _)| *id).collect();
        let expect: Vec<_> = w.models.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(ids, expect);
    }

    #[test]
    fn database_only_store_roundtrips(
        num_states in 9usize..32,
        num_objects in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut w = common::build_workload(num_states, num_objects, 3, seed);
        w.models.clear();
        let loaded = assert_canonical_roundtrip(&w, false);
        prop_assert!(loaded.index.is_none());
        prop_assert!(loaded.models.is_empty());
        prop_assert_eq!(loaded.stats.sections, 1);
    }
}

#[test]
fn two_builds_of_one_database_save_identical_bytes() {
    // Each workload build runs its own serial UST-tree build, so the two
    // trees differ in their wall-clock build time and nothing else.
    let encode = |w: &common::Workload| {
        encode_store(&StoreContents { database: &w.db, index: Some(&w.tree), models: &w.models })
    };
    let first = common::build_workload(25, 4, 8, 42);
    let second = common::build_workload(25, 4, 8, 42);
    assert_eq!(encode(&first), encode(&second));
    let loaded = decode_store(&encode(&first)).expect("a fresh encode must decode");
    let stats = *loaded.index.expect("tree section present").build_stats();
    assert_eq!(
        (stats.build_time, stats.reach_memo_hits, stats.reach_memo_misses),
        (std::time::Duration::ZERO, 0, 0),
        "a decoded tree reports no build work"
    );
}

#[test]
fn decoded_observations_match_the_originals_exactly() {
    let w = common::build_workload(25, 4, 8, 42);
    let loaded = assert_canonical_roundtrip(&w, true);
    for (orig, back) in w.db.objects().iter().zip(loaded.database.objects()) {
        assert_eq!(orig.id(), back.id());
        assert_eq!(orig.observation_pairs(), back.observation_pairs());
    }
    // The model override registered by the builder survives, bit for bit.
    let orig = w.db.model_overrides();
    let back = loaded.database.model_overrides();
    assert_eq!(orig.len(), 1);
    assert_eq!(back.len(), 1);
    assert_eq!(orig[0].0, back[0].0);
}

#[test]
fn loaded_models_rebuild_an_identical_sampling_kernel() {
    // The alias-table kernel is not serialized; `AliasKernel::from_rows`
    // rebuilds it from the decoded transition rows. Since the rows round-trip
    // bit-identically and the kernel construction is deterministic, the
    // loaded kernel must equal the fresh one slot for slot — thresholds,
    // alias offsets and the successor links a walk follows — so every draw
    // a store-loaded model answers is bit-identical to the original model's.
    let w = common::build_workload(20, 3, 6, 99);
    let loaded = assert_canonical_roundtrip(&w, true);
    for ((_, fresh), (_, back)) in w.models.iter().zip(&loaded.models) {
        assert_eq!(fresh.alias_kernel(), back.alias_kernel());
        for t in fresh.start()..fresh.end() {
            for s in fresh.support_at(t) {
                for u in [0.0, 0.31, 0.77, 1.0 - f64::EPSILON / 2.0] {
                    assert_eq!(
                        fresh.sample_transition(t, s, u),
                        back.sample_transition(t, s, u),
                        "t={t} s={s} u={u}"
                    );
                }
            }
        }
    }
}

#[test]
fn adapted_models_survive_with_their_distributions() {
    let w = common::build_workload(16, 3, 6, 7);
    let loaded = assert_canonical_roundtrip(&w, true);
    assert_eq!(loaded.models.len(), w.models.len());
    for ((id_a, model_a), (id_b, model_b)) in w.models.iter().zip(&loaded.models) {
        assert_eq!(id_a, id_b);
        assert_eq!(model_a.start(), model_b.start());
        assert_eq!(model_a.end(), model_b.end());
        for t in model_a.start()..=model_a.end() {
            let a = model_a.posterior_at(t).expect("covered timestamp");
            let b = model_b.posterior_at(t).expect("covered timestamp");
            // Bit-level equality on the entries, not approximate.
            let bits_a: Vec<(u32, u64)> = a.iter().map(|(s, p)| (s, p.to_bits())).collect();
            let bits_b: Vec<(u32, u64)> = b.iter().map(|(s, p)| (s, p.to_bits())).collect();
            assert_eq!(bits_a, bits_b);
        }
    }
}
