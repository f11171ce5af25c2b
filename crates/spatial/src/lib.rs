//! # ust-spatial
//!
//! Spatial substrate for probabilistic nearest-neighbor queries on uncertain
//! moving-object trajectories (Niedermayer et al., PVLDB 7(3), 2013).
//!
//! The paper assumes a *discrete* state space `S = {s_1, ..., s_|S|} ⊂ R^d`
//! (Section 3): road crossings, RFID reader positions, or grid cells. This
//! crate provides
//!
//! * [`Point`] — a position in the plane together with Euclidean distance
//!   helpers (the paper's distance function `d`),
//! * [`Rect`] — axis-aligned minimum bounding rectangles of arbitrary constant
//!   dimension, with the `dmin`/`dmax` distance bounds used by the UST-tree
//!   pruning rules of Section 6,
//! * [`StateSpace`] — the finite alphabet of possible locations, mapping
//!   [`StateId`]s to points,
//! * [`rtree::RTree`] — a from-scratch R-tree, the secondary index underneath
//!   the UST-tree. The paper indexes diamonds in an R\*-tree (reference
//!   \[31\]); here the index is static between refreshes, so the tree is
//!   always bulk-loaded by STR packing [Leutenegger et al., ICDE 1997] and
//!   never grown by R\* insertion.
//!
//! Everything in this crate is deterministic and purely geometric; all
//! probabilistic machinery lives in `ust-markov` and above.

pub mod point;
pub mod rect;
pub mod rtree;
pub mod state_space;

pub use point::Point;
pub use rect::{Rect, Rect2, Rect3};
pub use rtree::RTree;
pub use state_space::{StateId, StateSpace};
