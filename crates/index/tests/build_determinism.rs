//! The sharded UST-tree build must be byte-identical to the serial one:
//! same diamond stream, same R-tree shape, same pruning results — at every
//! `build_threads` setting and with or without the reach-geometry memo. On
//! trees several levels deep, the overlap walk and the filter must also
//! equal an index-free scan of the diamond arena.

mod common;

use common::{assert_identical_trees, prune_at};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use ust_generator::{Dataset, ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_index::{Diamond, ObjectId, Timestamp, UstTree, UstTreeConfig};
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

/// Windows sweeping the dataset's horizon, for the walk-order check.
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
        let reference = prune_at(&trees[0], &times, q, k);
        for tree in &trees[1..] {
            let result = prune_at(tree, &times, q, k);
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

/// Serial builds of the dataset at a node capacity of 4 (a tree several
/// levels deep over the >100 diamonds) and at the default 32.
fn trees_by_capacity() -> Vec<(usize, UstTree)> {
    [4usize, 32]
        .into_iter()
        .map(|rtree_capacity| {
            let cfg = UstTreeConfig { rtree_capacity, build_threads: 1, ..Default::default() };
            (rtree_capacity, UstTree::build_with(&dataset().database, &cfg))
        })
        .collect()
}

#[test]
fn overlap_walk_visits_exactly_the_overlapping_diamonds() {
    for (capacity, tree) in trees_by_capacity() {
        let diamonds = tree.diamonds();
        assert!(diamonds.len() > 100, "workload must be non-trivial");
        // An object's diamonds have distinct start times, so this key names
        // one diamond: equal sorted key lists mean each visited exactly once.
        let key = |d: &Diamond| (d.object, d.t_start, d.t_end);
        let mut keys: Vec<_> = diamonds.iter().map(key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), diamonds.len(), "diamond keys must be unique");

        let first = diamonds.iter().map(|d| d.t_start).min().expect("non-empty");
        let last = diamonds.iter().map(|d| d.t_end).max().expect("non-empty");
        assert!(first > 0, "the sweep needs a window before the first diamond");
        let mut windows = vec![(0, first - 1), (0, last + 10), (last + 1, last + 40), (last, last)];
        // Single-tick windows and sliding windows across the horizon.
        for from in (first..=last).step_by(7) {
            for len in [0, 1, 6, 25] {
                windows.push((from, from + len));
            }
        }
        // Windows whose ends fall on a diamond's t_start or t_end.
        for d in diamonds.iter().step_by(5) {
            windows.extend([
                (d.t_start, d.t_start),
                (d.t_end, d.t_end),
                (d.t_start.saturating_sub(4), d.t_start),
                (d.t_end, d.t_end + 4),
                (d.t_start, d.t_end),
                (d.t_end + 1, d.t_end + 3),
            ]);
        }
        for (from, to) in windows {
            let mut visited = Vec::new();
            tree.for_each_overlapping(from, to, |d| visited.push(key(d)));
            visited.sort_unstable();
            let mut expected: Vec<_> =
                diamonds.iter().filter(|d| d.t_start <= to && d.t_end >= from).map(key).collect();
            expected.sort_unstable();
            assert_eq!(visited, expected, "capacity {capacity}, window [{from}, {to}]");
        }
    }
}

/// The filter computed from the diamond arena alone, without the R-tree:
/// per object and query timestamp, the largest `dmin` and the smallest
/// `dmax` of the object's diamonds that cover the timestamp; the pruning
/// distance is the k-th smallest `dmax` (the largest, where fewer than k
/// objects are alive). Returns candidates, influencers and distances.
fn brute_force_filter(
    diamonds: &[Diamond],
    times: &[Timestamp],
    q: Point,
    k: usize,
) -> (Vec<ObjectId>, Vec<ObjectId>, Vec<f64>) {
    let mut bounds: BTreeMap<ObjectId, Vec<Option<(f64, f64)>>> = BTreeMap::new();
    for d in diamonds {
        for (i, &t) in times.iter().enumerate() {
            if let (Some(lo), Some(hi)) = (d.dmin(t, &q), d.dmax(t, &q)) {
                let row = bounds.entry(d.object).or_insert_with(|| vec![None; times.len()]);
                row[i] = Some(match row[i] {
                    Some((a, b)) => (a.max(lo), b.min(hi)),
                    None => (lo, hi),
                });
            }
        }
    }
    let prune: Vec<f64> = (0..times.len())
        .map(|i| {
            let mut dmaxs: Vec<f64> =
                bounds.values().filter_map(|row| row[i]).map(|b| b.1).collect();
            dmaxs.sort_by(f64::total_cmp);
            dmaxs.get(k - 1).or(dmaxs.last()).copied().unwrap_or(f64::INFINITY)
        })
        .collect();
    let qualifies = |b: Option<(f64, f64)>, i: usize| b.is_some_and(|(lo, _)| lo <= prune[i]);
    let (mut candidates, mut influencers) = (Vec::new(), Vec::new());
    for (&object, row) in &bounds {
        if row.iter().enumerate().any(|(i, &b)| qualifies(b, i)) {
            influencers.push(object);
        }
        if row.iter().enumerate().all(|(i, &b)| qualifies(b, i)) {
            candidates.push(object);
        }
    }
    (candidates, influencers, prune)
}

#[test]
fn filter_equals_a_brute_force_scan_of_the_arena() {
    let time_sets: Vec<Vec<Timestamp>> =
        vec![(40..50).collect(), (0..12).collect(), (90..160).step_by(6).collect(), vec![75]];
    let mut pruned_somewhere = false;
    for (capacity, tree) in trees_by_capacity() {
        for times in &time_sets {
            for (qx, qy) in [(0.2, 0.3), (0.7, 0.7), (0.5, 0.1)] {
                let q = Point::new(qx, qy);
                for k in [1usize, 2] {
                    let result = prune_at(&tree, times, q, k);
                    let (candidates, influencers, prune) =
                        brute_force_filter(tree.diamonds(), times, q, k);
                    let context = format!("capacity {capacity}, times {times:?}, q {q:?}, k {k}");
                    assert!(!influencers.is_empty(), "{context}: some object is alive");
                    assert_eq!(result.candidates, candidates, "{context}");
                    assert_eq!(result.influencers, influencers, "{context}");
                    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&result.prune_distances), bits(&prune), "{context}");
                    pruned_somewhere |= candidates.len() < influencers.len();
                }
            }
        }
    }
    assert!(pruned_somewhere, "the filter must separate candidates from influencers");
}
