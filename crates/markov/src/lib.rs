//! # ust-markov
//!
//! Markov-chain machinery for uncertain moving-object trajectories
//! (Niedermayer et al., PVLDB 7(3), 2013, Sections 3 and 5).
//!
//! An uncertain trajectory is modelled as a stochastic process over a discrete
//! time domain `T = {0, ..., n}` and a discrete state space `S`: the position
//! `o(t)` of object `o` at time `t` is a random variable, and the process is a
//! (first-order, possibly time-inhomogeneous) Markov chain with transition
//! matrices `M^o(t)`. The database additionally stores a set of *observations*
//! `Θ^o = {(t_i, θ_i)}` — certain positions at certain times.
//!
//! The crate provides:
//!
//! * [`sparse`] — compressed sparse-row transition matrices and sparse
//!   probability distributions (the state spaces of the paper have up to
//!   500 000 states, so dense `|S|²` matrices are out of the question),
//! * [`model`] — the a-priori Markov model `M^o(t)` (homogeneous or
//!   time-varying),
//! * [`adapt`] — the *forward–backward model adaptation* of Section 5.2
//!   (Algorithm 2): Bayesian inference that turns the a-priori chain plus the
//!   observations into an a-posteriori chain `F^o(t)` whose realisations are
//!   exactly the possible trajectories consistent with all observations,
//! * [`alias`] — the a-posteriori rows in flat CSR arenas with a
//!   precomputed Walker/Vose alias table per row: the O(1)-per-draw
//!   Monte-Carlo sampling kernel, and the only copy of `F^o(t)` an adapted
//!   model keeps,
//! * [`reachability`] — support-only propagation used to compute the
//!   "diamond" space-time approximations indexed by the UST-tree (Section 6),
//! * [`dense`] — a small dense reference implementation of Algorithm 2 used to
//!   cross-check the sparse code in tests and as an ablation baseline.

pub mod adapt;
pub mod alias;
pub mod dense;
pub mod model;
pub mod reachability;
pub mod sparse;

pub use adapt::{AdaptError, AdaptedModel, ModelAdaptation};
pub use alias::{AliasKernel, StepRows, TransitionRow};
pub use model::{MarkovModel, TransitionModel};
pub use reachability::ReachabilityIndex;
pub use sparse::{CsrMatrix, SparseDist};

/// Discrete timestamp ("tic") in the database time horizon.
///
/// The paper discretises time application-dependently (e.g. one tic every
/// 10 seconds for the taxi data); all algorithms only rely on the ordinal
/// structure.
pub type Timestamp = u32;

/// Re-export of the state identifier used throughout the workspace.
pub use ust_spatial::StateId;
