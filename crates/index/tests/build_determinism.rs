//! The sharded UST-tree build must be byte-identical to the serial one:
//! same diamond stream, same R\*-tree shape, same pruning results — at every
//! `build_threads` setting and with or without the reach-geometry memo.

mod common;

use common::assert_identical_trees;
use std::sync::OnceLock;
use ust_generator::{Dataset, ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_index::{UstTree, UstTreeConfig};
use ust_spatial::Point;

/// A synthetic workload large enough that worker chunks are non-trivial and
/// commutes actually repeat, generated once and shared across the tests.
fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        let net = SyntheticNetworkConfig { num_states: 600, branching_factor: 8.0, seed: 11 };
        let obj = ObjectWorkloadConfig {
            num_objects: 48,
            lifetime: 50,
            horizon: 160,
            observation_interval: 10,
            lag: 0.5,
            standing_fraction: 0.2,
            seed: 12,
        };
        Dataset::synthetic(&net, &obj, 1.0)
    })
}

/// Windows sweeping the dataset's horizon, for the traversal-order check.
const WINDOWS: &[(u32, u32)] = &[(0, 200), (0, 10), (45, 90), (120, 121)];

#[test]
fn sharded_build_is_byte_identical_to_serial() {
    let ds = dataset();
    let serial =
        UstTree::build_with(&ds.database, &UstTreeConfig { build_threads: 1, ..Default::default() });
    assert!(serial.num_diamonds() > 100, "workload must be non-trivial");
    for threads in [2usize, 4] {
        let sharded = UstTree::build_with(
            &ds.database,
            &UstTreeConfig { build_threads: threads, ..Default::default() },
        );
        assert_identical_trees(&serial, &sharded, WINDOWS);
    }
}

#[test]
fn pruning_results_are_identical_at_every_thread_count() {
    let ds = dataset();
    let trees: Vec<UstTree> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            UstTree::build_with(
                &ds.database,
                &UstTreeConfig { build_threads: threads, ..Default::default() },
            )
        })
        .collect();
    let times: Vec<u32> = (40..50).collect();
    for (qx, qy, k) in [(0.2, 0.3, 1usize), (0.7, 0.7, 1), (0.5, 0.1, 3)] {
        let q = Point::new(qx, qy);
        let reference = trees[0].prune_knn(&times, |_| q, k);
        for tree in &trees[1..] {
            let result = tree.prune_knn(&times, |_| q, k);
            assert_eq!(reference.candidates, result.candidates);
            assert_eq!(reference.influencers, result.influencers);
            let bits_a: Vec<u64> =
                reference.prune_distances.iter().map(|d| d.to_bits()).collect();
            let bits_b: Vec<u64> = result.prune_distances.iter().map(|d| d.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "pruning distances must be bit-identical");
        }
    }
}

#[test]
fn reach_memo_does_not_change_the_index() {
    let ds = dataset();
    let memoized =
        UstTree::build_with(&ds.database, &UstTreeConfig { build_threads: 1, ..Default::default() });
    let direct = UstTree::build_with(
        &ds.database,
        &UstTreeConfig { build_threads: 1, reach_memo: false, ..Default::default() },
    );
    assert_identical_trees(&memoized, &direct, WINDOWS);
    assert!(
        memoized.build_stats().reach_memo_hits > 0,
        "the workload repeats commutes, so the memo must hit"
    );
    assert_eq!(direct.build_stats().reach_memo_hits, 0);
    assert_eq!(
        direct.build_stats().reach_memo_misses,
        memoized.build_stats().segments,
        "without the memo every segment runs its own BFS"
    );
}

#[test]
fn coarse_diamonds_share_the_determinism_guarantee() {
    // per_timestamp_mbrs = false exercises the geometry path that drops the
    // per-time rectangles.
    let ds = dataset();
    let cfg = UstTreeConfig { per_timestamp_mbrs: false, build_threads: 1, ..Default::default() };
    let serial = UstTree::build_with(&ds.database, &cfg);
    let sharded = UstTree::build_with(
        &ds.database,
        &UstTreeConfig { build_threads: 3, ..cfg },
    );
    assert_identical_trees(&serial, &sharded, WINDOWS);
    assert!(serial.diamonds().iter().all(|d| d.per_time.is_none()));
}
