//! Tree-identity assertions and the budget-free filter shared by the
//! build-determinism and refresh suites.

use std::convert::Infallible;
use ust_index::{Diamond, PruningResult, Timestamp, UstTree};
use ust_spatial::Point;

/// The filter without a budget: `UstTree::try_prune_knn` for a static query
/// point, under a guard that never trips.
pub fn prune_at(tree: &UstTree, times: &[Timestamp], q: Point, k: usize) -> PruningResult {
    let positions = vec![q; times.len()];
    let Ok(result) = tree.try_prune_knn(times, &positions, k, |_| Ok::<(), Infallible>(()));
    result
}

/// Field-by-field, bit-exact diamond equality: the f64 payloads must be the
/// same computation in the same order, not merely close.
pub fn assert_same_diamond(a: &Diamond, b: &Diamond) {
    assert_eq!(a.object, b.object);
    assert_eq!((a.t_start, a.t_end), (b.t_start, b.t_end));
    assert_eq!(a.mbr.min.map(f64::to_bits), b.mbr.min.map(f64::to_bits));
    assert_eq!(a.mbr.max.map(f64::to_bits), b.mbr.max.map(f64::to_bits));
    assert_eq!(a.per_time.len(), b.per_time.len());
    for (x, y) in a.per_time.iter().zip(&b.per_time) {
        assert_eq!(x.min.map(f64::to_bits), y.min.map(f64::to_bits));
        assert_eq!(x.max.map(f64::to_bits), y.max.map(f64::to_bits));
    }
}

/// Same diamonds in the same order, and the same R-tree shape: identical
/// overlap streams (walk order included) for every window in `windows`.
pub fn assert_identical_trees(a: &UstTree, b: &UstTree, windows: &[(u32, u32)]) {
    assert_eq!(a.num_diamonds(), b.num_diamonds());
    assert_eq!(a.num_objects(), b.num_objects());
    for (x, y) in a.diamonds().iter().zip(b.diamonds()) {
        assert_same_diamond(x, y);
    }
    for &(from, to) in windows {
        let stream = |tree: &UstTree| {
            let mut keys = Vec::new();
            tree.for_each_overlapping(from, to, |d| keys.push((d.object, d.t_start, d.t_end)));
            keys
        };
        assert_eq!(stream(a), stream(b), "walk order differs for window [{from}, {to}]");
    }
}
