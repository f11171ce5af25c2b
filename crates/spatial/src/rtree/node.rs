//! R-tree node representation and recursive algorithms.

use crate::rect::Rect;

/// A leaf entry: one stored item and its bounding box.
#[derive(Debug, Clone)]
pub(super) struct Entry<const D: usize, T> {
    pub(super) rect: Rect<D>,
    pub(super) item: T,
}

/// An internal entry: a child node and the MBR of everything below it.
#[derive(Debug, Clone)]
pub(super) struct Child<const D: usize, T> {
    pub(super) rect: Rect<D>,
    pub(super) node: Box<Node<D, T>>,
}

/// A node of the R-tree.
#[derive(Debug, Clone)]
pub(super) enum Node<const D: usize, T> {
    Leaf(Vec<Entry<D, T>>),
    Internal(Vec<Child<D, T>>),
}

impl<const D: usize, T> Node<D, T> {
    /// Height of the subtree rooted at this node (leaf = 1).
    #[cfg(test)]
    pub(super) fn height(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal(children) => {
                1 + children.first().map(|c| c.node.height()).unwrap_or(0)
            }
        }
    }

    /// MBR of everything in this subtree.
    pub(super) fn mbr(&self) -> Rect<D> {
        let mut r = Rect::empty();
        match self {
            Node::Leaf(entries) => {
                for e in entries {
                    r.extend(&e.rect);
                }
            }
            Node::Internal(children) => {
                for c in children {
                    r.extend(&c.rect);
                }
            }
        }
        r
    }

    /// Calls `f` for every item whose rectangle intersects `query`, stopping
    /// the traversal at the first `Err` and propagating it.
    pub(super) fn try_for_each_intersecting<'a, E>(
        &'a self,
        query: &Rect<D>,
        f: &mut impl FnMut(&'a Rect<D>, &'a T) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Node::Leaf(entries) => {
                for e in entries {
                    if e.rect.intersects(query) {
                        f(&e.rect, &e.item)?;
                    }
                }
            }
            Node::Internal(children) => {
                for c in children {
                    if c.rect.intersects(query) {
                        c.node.try_for_each_intersecting(query, f)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Collects references to all `(rect, item)` pairs in this subtree.
    pub(super) fn collect_all<'a>(&'a self, out: &mut Vec<(&'a Rect<D>, &'a T)>) {
        match self {
            Node::Leaf(entries) => {
                for e in entries {
                    out.push((&e.rect, &e.item));
                }
            }
            Node::Internal(children) => {
                for c in children {
                    c.node.collect_all(out);
                }
            }
        }
    }

    /// Counts stored items.
    pub(super) fn collect_count(&self, out: &mut usize) {
        match self {
            Node::Leaf(entries) => *out += entries.len(),
            Node::Internal(children) => {
                for c in children {
                    c.node.collect_count(out);
                }
            }
        }
    }

    /// Validates structural invariants; see [`super::RTree::check_invariants`].
    pub(super) fn check_invariants(
        &self,
        is_root: bool,
        max_entries: usize,
    ) -> Result<usize, String> {
        match self {
            Node::Leaf(entries) => {
                if entries.len() > max_entries {
                    return Err(format!("leaf overfull: {}", entries.len()));
                }
                // STR packing may leave a tail node nearly empty, so only
                // emptiness is an error here.
                if !is_root && entries.is_empty() {
                    return Err("empty non-root leaf".to_string());
                }
                Ok(1)
            }
            Node::Internal(children) => {
                if children.is_empty() {
                    return Err("internal node without children".to_string());
                }
                if children.len() > max_entries {
                    return Err(format!("internal node overfull: {}", children.len()));
                }
                let mut depth = None;
                for c in children {
                    let child_mbr = c.node.mbr();
                    if !c.rect.contains(&child_mbr) {
                        return Err("child MBR not contained in stored rect".to_string());
                    }
                    let d = c.node.check_invariants(false, max_entries)?;
                    match depth {
                        None => depth = Some(d),
                        Some(prev) if prev != d => {
                            return Err("leaves at different depths".to_string())
                        }
                        _ => {}
                    }
                }
                Ok(depth.unwrap_or(0) + 1)
            }
        }
    }
}
