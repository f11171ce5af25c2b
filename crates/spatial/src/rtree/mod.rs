//! A from-scratch, STR-packed R-tree.
//!
//! The UST-tree (Section 6, reference \[25\] of the paper) indexes the
//! rectangular approximations of uncertain trajectories "using an R*-tree
//! \[31\]". Here that index is static between refreshes: a build, an
//! append-time refresh and a store load each pack the whole diamond arena at
//! once. So the tree is always bulk-loaded by sort-tile-recursive (STR)
//! packing [Leutenegger et al., ICDE 1997] and never grown by insertion, and
//! the R\* insertion heuristics (choose-subtree, the topological split) would
//! have nothing to do. The module keeps
//!
//! * one constructor, [`RTree::bulk_load`], and
//! * one walk, [`RTree::try_for_each_intersecting`], which the UST-tree's
//!   time-window filter runs.
//!
//! The tree is generic over the dimension `D`, so the same code serves the
//! 2-d spatial MBRs and the 3-d space-time boxes of the UST-tree.

mod bulk;
mod node;

use crate::rect::Rect;
use node::Node;

/// An in-memory R-tree storing items of type `T` under `D`-dimensional
/// bounding boxes, packed once by [`RTree::bulk_load`].
#[derive(Debug, Clone)]
pub struct RTree<const D: usize, T> {
    root: Node<D, T>,
    len: usize,
    max_entries: usize,
}

impl<const D: usize, T> RTree<D, T> {
    /// Builds a tree from a collection of `(rect, item)` pairs using STR
    /// (sort-tile-recursive) bulk loading, with at most `max_entries`
    /// entries per node.
    ///
    /// This packs a well-clustered tree in `O(n log n)`. Packing is
    /// deterministic: the same items in the same order at the same capacity
    /// always give the same tree shape, and so the same walk order.
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    pub fn bulk_load(items: Vec<(Rect<D>, T)>, max_entries: usize) -> Self {
        bulk::bulk_load(items, max_entries)
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum node capacity this tree was packed with.
    #[inline]
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Height of the tree (a tree holding only a root leaf has height 1).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        self.root.height()
    }

    /// Calls `f(rect, item)` for every stored item whose box intersects
    /// `query` (touching boundaries count). The walk stops at the first `Err`
    /// the visitor returns and propagates it. The visit order is a pure
    /// function of the packed tree, so the UST-tree filter's budget
    /// checkpoints fire on the same item every run. A visitor that cannot
    /// fail returns `Result<(), Infallible>`.
    pub fn try_for_each_intersecting<'a, E>(
        &'a self,
        query: &Rect<D>,
        mut f: impl FnMut(&'a Rect<D>, &'a T) -> Result<(), E>,
    ) -> Result<(), E> {
        self.root.try_for_each_intersecting(query, &mut f)
    }

    /// Iterates over all `(rect, item)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Rect<D>, &T)> {
        let mut out: Vec<(&Rect<D>, &T)> = Vec::with_capacity(self.len);
        self.root.collect_all(&mut out);
        out.into_iter()
    }

    /// Checks the structural invariants of the tree (node fill, MBR
    /// consistency, uniform leaf depth). Used by tests and property checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.len == 0 {
            return Ok(());
        }
        self.root.check_invariants(true, self.max_entries)?;
        let mut count = 0usize;
        self.root.collect_count(&mut count);
        if count != self.len {
            return Err(format!("tree len {} does not match stored count {count}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect2;
    use std::convert::Infallible;

    fn unit_rect(x: f64, y: f64) -> Rect2 {
        Rect::new([x, y], [x + 0.5, y + 0.5])
    }

    /// Every item the walk visits for `q`, sorted.
    fn intersecting<const D: usize, T: Copy + Ord>(t: &RTree<D, T>, q: &Rect<D>) -> Vec<T> {
        let mut got = Vec::new();
        let Ok(()) = t.try_for_each_intersecting(q, |_, &item| {
            got.push(item);
            Ok::<(), Infallible>(())
        });
        got.sort_unstable();
        got
    }

    /// Brute-force reference used to validate query results.
    fn brute_force(items: &[(Rect2, usize)], q: &Rect2) -> Vec<usize> {
        let mut v: Vec<usize> =
            items.iter().filter(|(r, _)| r.intersects(q)).map(|(_, i)| *i).collect();
        v.sort_unstable();
        v
    }

    fn pseudo_random_items(n: usize) -> Vec<(Rect2, usize)> {
        // Deterministic pseudo-random layout (LCG) so the test needs no RNG dependency.
        let mut state = 88172645463325252u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|i| (unit_rect(next() * 100.0, next() * 100.0), i)).collect()
    }

    #[test]
    fn empty_tree_behaves() {
        let t: RTree<2, usize> = RTree::bulk_load(Vec::new(), 4);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(intersecting(&t, &Rect::new([0.0, 0.0], [1.0, 1.0])).is_empty());
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = pseudo_random_items(2000);
        let t = RTree::bulk_load(items.clone(), 16);
        assert_eq!(t.len(), items.len());
        assert!(t.check_invariants().is_ok());
        for k in 0..20 {
            let c = 4.0 * k as f64;
            let q = Rect::new([c, 100.0 - c - 10.0], [c + 25.0, 100.0 - c]);
            assert_eq!(intersecting(&t, &q), brute_force(&items, &q));
        }
    }

    #[test]
    fn bulk_load_small_and_empty() {
        let t: RTree<2, usize> = RTree::bulk_load(Vec::new(), 32);
        assert!(t.is_empty());
        let t = RTree::bulk_load(vec![(unit_rect(0.0, 0.0), 7usize)], 32);
        assert_eq!(t.len(), 1);
        assert_eq!(intersecting(&t, &unit_rect(0.0, 0.0)), vec![7]);
    }

    #[test]
    fn three_dimensional_boxes() {
        // Space-time boxes as used by the UST-tree: (x, y, t).
        let t: RTree<3, &str> = RTree::bulk_load(
            vec![
                (Rect::new([0.0, 0.0, 0.0], [1.0, 1.0, 5.0]), "a"),
                (Rect::new([2.0, 2.0, 5.0], [3.0, 3.0, 10.0]), "b"),
                (Rect::new([0.0, 0.0, 8.0], [1.0, 1.0, 12.0]), "c"),
            ],
            4,
        );
        // Query: anything alive during time [6, 9] anywhere in space.
        let q = Rect::new([-10.0, -10.0, 6.0], [10.0, 10.0, 9.0]);
        assert_eq!(intersecting(&t, &q), vec!["b", "c"]);
    }

    #[test]
    fn walk_stops_at_the_first_error() {
        let t = RTree::bulk_load(pseudo_random_items(300), 8);
        let everything = Rect::new([0.0, 0.0], [101.0, 101.0]);
        let mut order = Vec::new();
        let Ok(()) = t.try_for_each_intersecting(&everything, |_, &i| {
            order.push(i);
            Ok::<(), Infallible>(())
        });
        assert_eq!(order.len(), 300);
        // A visitor that fails on its 100th item sees exactly the first 100
        // items of the full walk, in the same order.
        let mut prefix = Vec::new();
        let stopped = t.try_for_each_intersecting(&everything, |_, &i| {
            prefix.push(i);
            if prefix.len() == 100 {
                Err(i)
            } else {
                Ok(())
            }
        });
        assert_eq!(stopped, Err(order[99]));
        assert_eq!(prefix, order[..100]);
    }

    #[test]
    fn iter_visits_everything_once() {
        let items = pseudo_random_items(128);
        let t = RTree::bulk_load(items.clone(), 6);
        let mut seen: Vec<usize> = t.iter().map(|(_, i)| *i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
    }
}
