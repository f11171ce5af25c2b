//! # ust-index
//!
//! The UST-tree (Section 6 of the paper, originally introduced in \[25\]): a
//! spatio-temporal index over uncertain trajectories used to prune the vast
//! majority of database objects before any expensive probability computation.
//!
//! For every pair of consecutive observations of an object, the set of
//! possible `(time, location)` pairs (the "diamond") is conservatively
//! approximated by minimum bounding rectangles; the resulting space-time boxes
//! are indexed in an STR-packed R-tree. A probabilistic NN query then uses
//! classic `dmin`/`dmax` reasoning:
//!
//! * an object can only be a ∀-nearest-neighbor **candidate** if, at *every*
//!   query timestamp, its minimum possible distance does not exceed the
//!   smallest maximum distance of any object (`C∀(q)` in the paper),
//! * an object can **influence** the result (reduce other objects'
//!   probabilities, or be a P∃NN result) if that holds at *some* timestamp
//!   (`I∀(q)`).
//!
//! The pruned candidate/influence sets are exactly what the sampling engine of
//! `ust-core` refines.

pub mod diamond;
pub mod par;
pub mod pruning;
pub mod tree;

pub use diamond::Diamond;
pub use pruning::PruningResult;
pub use tree::{IndexBuildStats, UstTree, UstTreeConfig};

pub use ust_markov::Timestamp;
pub use ust_spatial::StateId;
pub use ust_trajectory::ObjectId;

/// The fault points this crate registers with [`ust_fault`] (see the chaos
/// suite at the workspace root). `index.build.shard` panics inside one
/// UST-tree build shard, exercising the panic propagation of the scoped
/// fan-out in [`par`].
pub const FAULT_POINTS: &[&str] = &["index.build.shard"];
