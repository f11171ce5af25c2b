//! # ust-core
//!
//! Probabilistic nearest-neighbor query processing over uncertain moving
//! object trajectories — the primary contribution of Niedermayer et al.,
//! PVLDB 7(3), 2013.
//!
//! ## Query semantics (Section 3.2)
//!
//! Given a certain query state or trajectory `q`, a set of timestamps `T` and
//! a probability threshold `τ`:
//!
//! * **P∃NNQ** (Definition 1) returns every object whose probability of being
//!   a nearest neighbor of `q` at *at least one* timestamp of `T` is at least
//!   `τ`.
//! * **P∀NNQ** (Definition 2) returns every object whose probability of being
//!   a nearest neighbor at *every* timestamp of `T` is at least `τ`.
//! * **PCNNQ** (Definition 3) returns, per object, the timestamp subsets
//!   `T_i ⊆ T` during which the object is a ∀-nearest-neighbor with
//!   probability at least `τ`.
//! * Section 8 generalises all three to `k` nearest neighbors.
//!
//! ## Evaluation strategies
//!
//! * [`engine::QueryEngine`] — the paper's practical algorithm: UST-tree
//!   pruning (`ust-index`), forward–backward model adaptation (`ust-markov`,
//!   batched and parallelised by the stampede-free [`prepare`] subsystem),
//!   Monte-Carlo sampling of possible worlds (`ust-sampling`) and
//!   certain-world NN evaluation (`ust-trajectory`). PCNN uses the
//!   Apriori-style lattice of Algorithm 1, mined vertically over classes of
//!   identical per-timestamp world bitsets ([`pcnn`], [`pcnn::WorldSet`]),
//!   with each object's sets in one flat [`TimestampSets`] arena.
//! * [`exact`] — exponential possible-world enumeration, feasible only for
//!   tiny instances; serves as the correctness reference (P∃NN is NP-hard,
//!   Section 4.1).
//! * [`snapshot`] — the competitor approach of \[19\] adapted to NN queries:
//!   per-timestamp probabilities combined under temporal independence. It is
//!   biased (Figure 11); implemented for the effectiveness comparison.
//! * [`effectiveness`] — the model-adaptation error study of Figure 12
//!   (a-priori vs. forward vs. forward–backward vs. uniform models).

pub mod domination;
pub mod effectiveness;
pub mod engine;
pub mod exact;
pub mod govern;
pub mod pcnn;
pub mod prepare;
pub mod query;
pub mod results;
pub mod sat;
pub mod snapshot;
pub mod store;

pub use engine::{EngineConfig, QueryEngine};
pub use govern::{BudgetGauge, CancelToken, QueryBudget, QueryPhase, Verdict};
pub use prepare::{AdaptationCache, CacheStats, ModelKey, PrepareOutcome};
pub use store::{EngineStore, WalReplayStats};
pub use exact::{ExactError, ExactResult};
pub use pcnn::{PcnnConfig, PcnnResult, WorldSet};
pub use query::{Query, QueryError};
pub use results::{ObjectProbability, PcnnOutcome, QueryOutcome, QueryStats, TimestampSets};

/// The fault points this crate registers with [`ust_fault`] (see the chaos
/// suite at the workspace root). `core.adapt.worker` panics inside a live
/// adaptation worker, exercising the claim-release path of
/// [`prepare::AdaptationCache`] under real threads.
pub const FAULT_POINTS: &[&str] = &["core.adapt.worker"];

pub use ust_markov::Timestamp;
pub use ust_spatial::StateId;
pub use ust_trajectory::{DatabaseSummary, ObjectId};
