//! Sort-tile-recursive (STR) bulk loading.
//!
//! The UST-tree indexes one box per observation segment per object — up to
//! hundreds of thousands of boxes — and packs them all at once. STR packing
//! [Leutenegger et al., ICDE 1997] produces a compact, well-clustered tree in
//! `O(n log n)`.

use super::node::{Child, Entry, Node};
use super::RTree;
use crate::rect::Rect;

/// Builds an R-tree by STR packing.
pub(super) fn bulk_load<const D: usize, T>(
    items: Vec<(Rect<D>, T)>,
    max_entries: usize,
) -> RTree<D, T> {
    assert!(max_entries >= 4, "R-tree nodes need a capacity of at least 4");
    let len = items.len();
    if len == 0 {
        return RTree { root: Node::Leaf(Vec::new()), len: 0, max_entries };
    }

    // Pack leaf entries into leaves.
    let entries: Vec<Entry<D, T>> =
        items.into_iter().map(|(rect, item)| Entry { rect, item }).collect();
    let leaf_groups = str_pack(entries, max_entries, |e| e.rect);
    let mut level: Vec<Child<D, T>> = leaf_groups
        .into_iter()
        .map(|group| {
            let node = Node::Leaf(group);
            Child { rect: node.mbr(), node: Box::new(node) }
        })
        .collect();

    // Pack upwards until a single root remains.
    while level.len() > 1 {
        let groups = str_pack(level, max_entries, |c| c.rect);
        level = groups
            .into_iter()
            .map(|group| {
                let node = Node::Internal(group);
                Child { rect: node.mbr(), node: Box::new(node) }
            })
            .collect();
    }

    let root = *level.pop().expect("at least one node").node;
    RTree { root, len, max_entries }
}

/// Groups `items` into chunks of at most `capacity` elements using the STR
/// tiling order: sort by center of axis 0, slice into vertical slabs, sort
/// each slab by center of axis 1, and so on through the remaining axes.
fn str_pack<const D: usize, E>(
    items: Vec<E>,
    capacity: usize,
    rect_of: impl Fn(&E) -> Rect<D> + Copy,
) -> Vec<Vec<E>> {
    let mut out = Vec::new();
    str_pack_rec(items, capacity, 0, rect_of, &mut out);
    out
}

fn str_pack_rec<const D: usize, E>(
    mut items: Vec<E>,
    capacity: usize,
    axis: usize,
    rect_of: impl Fn(&E) -> Rect<D> + Copy,
    out: &mut Vec<Vec<E>>,
) {
    if items.len() <= capacity {
        if !items.is_empty() {
            out.push(items);
        }
        return;
    }
    if axis + 1 >= D {
        // Last axis: sort and chunk.
        items.sort_by(|a, b| rect_of(a).center()[axis].total_cmp(&rect_of(b).center()[axis]));
        let mut iter = items.into_iter().peekable();
        while iter.peek().is_some() {
            out.push(iter.by_ref().take(capacity).collect());
        }
        return;
    }

    // Number of leaf pages needed and slab count along this axis:
    // P = ceil(n / capacity), slabs = ceil(P^(1/(D - axis))).
    let n = items.len();
    let pages = n.div_ceil(capacity);
    let remaining_axes = (D - axis) as f64;
    let slabs = (pages as f64).powf(1.0 / remaining_axes).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));

    items.sort_by(|a, b| rect_of(a).center()[axis].total_cmp(&rect_of(b).center()[axis]));
    let mut iter = items.into_iter().peekable();
    while iter.peek().is_some() {
        let slab: Vec<E> = iter.by_ref().take(slab_size).collect();
        str_pack_rec(slab, capacity, axis + 1, rect_of, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect2;

    #[test]
    fn str_pack_respects_capacity_and_loses_nothing() {
        let items: Vec<Rect2> = (0..137)
            .map(|i| {
                let x = (i % 17) as f64;
                let y = (i / 17) as f64;
                Rect::new([x, y], [x + 0.5, y + 0.5])
            })
            .collect();
        let groups = str_pack(items.clone(), 10, |r| *r);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, items.len());
        assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= 10));
    }

    #[test]
    fn bulk_loaded_tree_has_expected_height() {
        let items: Vec<(Rect2, usize)> = (0..1000)
            .map(|i| {
                let x = (i % 50) as f64;
                let y = (i / 50) as f64;
                (Rect::new([x, y], [x + 0.5, y + 0.5]), i)
            })
            .collect();
        let tree = bulk_load(items, 25);
        assert_eq!(tree.len(), 1000);
        // 1000 items at fanout 25: 40 leaves, 2 internal nodes, 1 root => height 3.
        assert!(tree.height() <= 3, "height {}", tree.height());
        assert!(tree.check_invariants().is_ok());
    }
}
