//! Query governance (DESIGN.md §8): budgets, cancellation and the
//! deterministic checkpoints that enforce them.
//!
//! Every query phase runs open-loop without this module — a runaway
//! Monte-Carlo loop or a pathological lattice expansion can only be stopped
//! by killing the process. A [`QueryBudget`] bounds one evaluation four ways:
//! a wall-clock **deadline**, a cooperative **cancel token**, and two
//! deterministic resource caps (**max_worlds**, **max_diamonds**). The engine
//! starts a [`BudgetGauge`] per evaluation and polls it at *checkpoints* —
//! every N iterations of each phase's hot loop, never per item — so the
//! disabled cost is a handful of branches per thousands of iterations.
//!
//! ## Degradation contract
//!
//! A breach does not always abort. The contract, phase by phase:
//!
//! * **Filter / adaptation** — nothing partial is usable (a truncated
//!   candidate set would silently change the result set), so a breach is a
//!   typed error: [`QueryError::DeadlineExceeded`] / [`QueryError::Cancelled`]
//!   / [`QueryError::BudgetExhausted`], each carrying the partial
//!   [`QueryStats`] gathered so far.
//! * **Sampling** — fewer worlds is a *coarser estimate*, not a wrong one
//!   (the Monte-Carlo bound of DESIGN.md §2 just widens): a deadline breach
//!   stops the world loop early and the outcome reports
//!   `worlds` < `worlds_requested` with `degraded: true`. `max_worlds`
//!   truncates the loop up front the same way.
//! * **PCNN mining** — the lattice is explored bottom-up, so stopping at a
//!   level keeps every already-validated set exact; a deadline breach ends
//!   the expansion and flags the outcome degraded (an under-approximation:
//!   sets that would have qualified deeper are missing, never wrong ones).
//! * **Cancellation** is always an error: the caller asked for the result to
//!   be thrown away, so there is nothing worth degrading toward.
//!
//! Budget errors are transient by construction (re-running with a fresh
//! deadline can succeed), so they are **never** cached by the adaptation
//! cache — see [`QueryError::is_transient`] and the `Failed`-slot rules in
//! [`crate::prepare`].

use crate::query::QueryError;
use crate::results::QueryStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checkpoint spacing of the filter phase: the gauge is polled every this
/// many diamonds streamed out of the UST-tree.
pub const FILTER_CHECK_INTERVAL: usize = 256;

/// Checkpoint spacing of the sampling phase: the gauge is polled every this
/// many sampled worlds.
pub const WORLD_CHECK_INTERVAL: usize = 64;

/// Checkpoint spacing of the PCNN mining phase: the gauge is polled at every
/// lattice level and every this many validated candidates within a level.
pub const MINING_CHECK_INTERVAL: usize = 1024;

/// The query phase a budget checkpoint fired in, carried by the budget error
/// variants so callers know how far the evaluation got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPhase {
    /// UST-tree pruning (diamond streaming).
    Filter,
    /// Forward–backward model adaptation (the "TS" phase).
    Adaptation,
    /// Monte-Carlo world sampling.
    Sampling,
    /// PCNN lattice expansion.
    Mining,
}

impl std::fmt::Display for QueryPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            QueryPhase::Filter => "filter",
            QueryPhase::Adaptation => "adaptation",
            QueryPhase::Sampling => "sampling",
            QueryPhase::Mining => "mining",
        };
        f.write_str(name)
    }
}

/// A cooperative cancellation handle. Clones share one flag; any clone can
/// cancel, and every gauge holding a clone observes it at its next
/// checkpoint. Cancellation is sticky — there is deliberately no `reset`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Running queries observe it at their next
    /// budget checkpoint and return [`QueryError::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Bounds one query evaluation. The default is unlimited — identical to the
/// pre-governance engine. A budget lives only in
/// [`EngineConfig::budget`](crate::EngineConfig), which every query method,
/// the filter step and the TS phase run under; change it between queries
/// with [`QueryEngine::set_budget`](crate::QueryEngine::set_budget).
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Wall-clock deadline, measured from the start of the evaluation. A
    /// zero deadline trips deterministically at the query-start checkpoint.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token.
    pub cancel: Option<CancelToken>,
    /// Upper bound on sampled worlds. Capping below the configured
    /// `num_samples` degrades the estimate (see the module docs), it does
    /// not error.
    pub max_worlds: Option<usize>,
    /// Upper bound on diamonds streamed by the filter phase. Exceeding it is
    /// [`QueryError::BudgetExhausted`]: a partial filter pass is unusable.
    pub max_diamonds: Option<usize>,
}

impl QueryBudget {
    /// The unlimited budget (identical to [`QueryBudget::default`]).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Sets the wall-clock deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// [`with_deadline`](Self::with_deadline) in milliseconds, for flag
    /// plumbing.
    #[must_use]
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Attaches a cancellation token (builder style). The token is cloned;
    /// the caller keeps the original to call [`CancelToken::cancel`] on.
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Caps the number of sampled worlds (builder style).
    #[must_use]
    pub fn with_max_worlds(mut self, max_worlds: usize) -> Self {
        self.max_worlds = Some(max_worlds);
        self
    }

    /// Caps the number of diamonds the filter phase may stream (builder
    /// style).
    #[must_use]
    pub fn with_max_diamonds(mut self, max_diamonds: usize) -> Self {
        self.max_diamonds = Some(max_diamonds);
        self
    }

    /// Whether this budget can never trip (no deadline, no token, no caps).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.max_worlds.is_none()
            && self.max_diamonds.is_none()
    }

    /// Starts the per-evaluation gauge: the deadline clock begins now.
    pub fn start(&self) -> BudgetGauge {
        BudgetGauge {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            max_worlds: self.max_worlds,
            max_diamonds: self.max_diamonds,
            started: Instant::now(),
            checkpoints: AtomicU64::new(0),
        }
    }
}

/// What a soft checkpoint ([`BudgetGauge::probe`]) decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No breach: keep going.
    Continue,
    /// The deadline passed. Phases with a degradation semantics stop early
    /// and flag the outcome; the others convert this to
    /// [`QueryError::DeadlineExceeded`] via [`BudgetGauge::check`].
    Degrade,
}

/// The live measurement of one evaluation against its [`QueryBudget`]:
/// the deadline clock, the shared cancel flag and the checkpoint counter.
/// Shared by reference across the phase fan-outs (it is `Sync`); the
/// checkpoint counter is the only mutable state and is atomic.
#[derive(Debug)]
pub struct BudgetGauge {
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    max_worlds: Option<usize>,
    max_diamonds: Option<usize>,
    started: Instant,
    checkpoints: AtomicU64,
}

impl BudgetGauge {
    /// A soft checkpoint: cancellation is a typed error, a passed deadline
    /// is [`Verdict::Degrade`] (the caller decides what that means for its
    /// phase), anything else continues. The comparison is `elapsed >=
    /// deadline`, so a zero deadline trips deterministically at the very
    /// first checkpoint regardless of clock resolution.
    pub fn probe(&self, phase: QueryPhase) -> Result<Verdict, QueryError> {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(QueryError::Cancelled { phase, stats: self.partial_stats() });
            }
        }
        if let Some(deadline) = self.deadline {
            if self.elapsed() >= deadline {
                return Ok(Verdict::Degrade);
            }
        }
        Ok(Verdict::Continue)
    }

    /// A hard checkpoint: like [`probe`](Self::probe), but a passed deadline
    /// is [`QueryError::DeadlineExceeded`] — for phases where a partial
    /// result is unusable (filter, adaptation).
    pub fn check(&self, phase: QueryPhase) -> Result<(), QueryError> {
        match self.probe(phase)? {
            Verdict::Continue => Ok(()),
            Verdict::Degrade => {
                Err(QueryError::DeadlineExceeded { phase, stats: self.partial_stats() })
            }
        }
    }

    /// Builds the typed error for a blown resource cap.
    pub fn exhausted(&self, phase: QueryPhase, resource: &'static str, limit: usize) -> QueryError {
        QueryError::BudgetExhausted { phase, resource, limit, stats: self.partial_stats() }
    }

    /// Wall-clock time since [`QueryBudget::start`]. This is the one clock of
    /// an evaluation: the engine times each phase in
    /// [`QueryStats`] as a difference of two readings.
    pub fn elapsed(&self) -> Duration {
        // lint T001 waiver (lint.toml): the deadline clock is governance and
        // phase-timing observability; it never feeds result bytes.
        self.started.elapsed()
    }

    /// Number of checkpoints polled so far. Under a parallel fan-out the
    /// exact interleaving varies, but every completed evaluation of the same
    /// query polls the same total.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// The world cap of the underlying budget, if any.
    pub fn max_worlds(&self) -> Option<usize> {
        self.max_worlds
    }

    /// The diamond cap of the underlying budget, if any.
    pub fn max_diamonds(&self) -> Option<usize> {
        self.max_diamonds
    }

    /// The seed of the partial stats every budget error carries: the
    /// checkpoint count is known here, everything else is filled in by the
    /// engine layer that owns those numbers.
    fn partial_stats(&self) -> Box<QueryStats> {
        Box::new(QueryStats {
            budget_checkpoints: self.checkpoints() as usize,
            ..QueryStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = QueryBudget::unlimited();
        assert!(budget.is_unlimited());
        let gauge = budget.start();
        for _ in 0..100 {
            assert_eq!(gauge.probe(QueryPhase::Sampling).unwrap(), Verdict::Continue);
        }
        assert!(gauge.check(QueryPhase::Filter).is_ok());
        assert_eq!(gauge.checkpoints(), 101);
        assert_eq!(gauge.max_worlds(), None);
        assert_eq!(gauge.max_diamonds(), None);
    }

    #[test]
    fn zero_deadline_trips_at_the_first_checkpoint() {
        let gauge = QueryBudget::unlimited().with_deadline(Duration::ZERO).start();
        let err = gauge.check(QueryPhase::Filter).unwrap_err();
        match err {
            QueryError::DeadlineExceeded { phase, stats } => {
                assert_eq!(phase, QueryPhase::Filter);
                assert_eq!(stats.budget_checkpoints, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Soft checkpoints degrade instead.
        assert_eq!(gauge.probe(QueryPhase::Sampling).unwrap(), Verdict::Degrade);
    }

    #[test]
    fn cancellation_beats_the_deadline_and_is_sticky() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let gauge = QueryBudget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_cancel(&token)
            .start();
        token.cancel();
        // Even with an already-expired deadline, cancellation wins: the
        // caller asked for the work to stop, not for a degraded result.
        let err = gauge.probe(QueryPhase::Mining).unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { phase: QueryPhase::Mining, .. }));
        let clone = token.clone();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn caps_are_carried_to_the_gauge() {
        let budget = QueryBudget::unlimited().with_max_worlds(128).with_max_diamonds(9);
        assert!(!budget.is_unlimited());
        let gauge = budget.start();
        assert_eq!(gauge.max_worlds(), Some(128));
        assert_eq!(gauge.max_diamonds(), Some(9));
        let err = gauge.exhausted(QueryPhase::Filter, "diamonds", 9);
        match err {
            QueryError::BudgetExhausted { phase, resource, limit, .. } => {
                assert_eq!(phase, QueryPhase::Filter);
                assert_eq!(resource, "diamonds");
                assert_eq!(limit, 9);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn deadline_ms_builder_and_display_names() {
        let budget = QueryBudget::unlimited().with_deadline_ms(5);
        assert_eq!(budget.deadline, Some(Duration::from_millis(5)));
        assert_eq!(QueryPhase::Filter.to_string(), "filter");
        assert_eq!(QueryPhase::Adaptation.to_string(), "adaptation");
        assert_eq!(QueryPhase::Sampling.to_string(), "sampling");
        assert_eq!(QueryPhase::Mining.to_string(), "mining");
    }
}
