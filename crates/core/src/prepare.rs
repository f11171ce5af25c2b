//! The parallel, stampede-free model-preparation ("TS") subsystem.
//!
//! The forward–backward adaptation of Section 5.2 dominates query time (the
//! fig06 runs spend ~100 ms adapting 150 objects vs ~5 ms sampling), and each
//! object's adaptation is independent of every other object's — the phase is
//! embarrassingly parallel. This module provides the two pieces the engine
//! builds on:
//!
//! * [`AdaptationCache`] — a sharded cache of a-posteriori models whose
//!   per-object slots guarantee that every adaptation runs **exactly once**,
//!   even when many threads miss on the same object concurrently. A miss
//!   claims the slot; later arrivals block on the claiming thread's result
//!   instead of recomputing (the classic anti-stampede discipline, in contrast
//!   to the old check-then-recompute under separate `RwLock` acquisitions).
//! * [`adapt_batch_governed`] — a batched fan-out that partitions cold
//!   object ids across [`std::thread::scope`] workers, polling the query's
//!   budget gauge once per object. With
//!   [`EngineConfig::adaptation_threads`](crate::EngineConfig) set to `1` the
//!   fan-out degenerates to the exact serial loop the engine used before, so
//!   results are bit-for-bit identical; any other thread count produces the
//!   same models too (adaptation is deterministic per object), just faster.

use crate::engine::AdaptedModels;
use crate::govern::{BudgetGauge, QueryPhase};
use crate::query::QueryError;
use crate::ObjectId;
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;
use ust_markov::AdaptedModel;

/// Number of independent shards of an [`AdaptationCache`]. A power of two so
/// shard selection is a mask; 16 shards keep lock contention negligible for
/// any realistic `adaptation_threads` while costing only a few hundred bytes.
const NUM_SHARDS: usize = 16;

/// State of one per-object cache slot.
enum Slot {
    /// A thread has claimed the slot and is running the adaptation; waiters
    /// block on the shard's condition variable until it completes.
    InFlight,
    /// The adaptation succeeded.
    Ready(std::sync::Arc<AdaptedModel>),
    /// The adaptation failed. The database is immutable for the engine's
    /// lifetime, so the error is deterministic and can be cached like a
    /// success (retrying could not produce a different outcome).
    Failed(QueryError),
}

/// One shard: a map of object slots plus the condition variable in-flight
/// waiters block on.
#[derive(Default)]
struct Shard {
    slots: Mutex<FxHashMap<ObjectId, Slot>>,
    ready: Condvar,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, FxHashMap<ObjectId, Slot>> {
        // The map's invariants hold even if a panic unwinds mid-update (the
        // claim guard below repairs in-flight slots), so poison is harmless.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Removes the `InFlight` claim again if the adaptation closure panics, so
/// waiters wake up and retry instead of deadlocking on a slot that will never
/// complete.
struct ClaimGuard<'a> {
    shard: &'a Shard,
    id: ObjectId,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.lock().remove(&self.id);
            self.shard.ready.notify_all();
        }
    }
}

/// Lifetime counters of an [`AdaptationCache`], exposed for tests and
/// benchmark reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from an already-adapted model.
    pub hits: u64,
    /// Adaptations actually executed (each object counts once, no matter how
    /// many threads raced on it).
    pub cold_adaptations: u64,
    /// Models currently cached.
    pub cached_models: usize,
    /// Cached *failure* slots. Errors are cached like successes (they are
    /// deterministic for an immutable database) and are excluded from
    /// `cached_models`, so this counter is the only way to observe their
    /// memory footprint; `clear()` drops them together with the models.
    pub cached_failures: usize,
}

/// A sharded, stampede-free cache of adapted (a-posteriori) models.
///
/// Concurrent misses on the same object id are serialised through a per-slot
/// claim: the first thread adapts, everyone else blocks on the result. Misses
/// on *different* objects proceed in parallel (different slots, and usually
/// different shards).
pub struct AdaptationCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    cold: AtomicU64,
}

impl Default for AdaptationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AdaptationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptationCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl AdaptationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        AdaptationCache {
            shards: (0..NUM_SHARDS).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            cold: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, id: ObjectId) -> &Shard {
        let mut hasher = rustc_hash::FxHasher::default();
        id.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (NUM_SHARDS - 1)]
    }

    /// Non-blocking lookup: the model if it is already adapted, `None` if the
    /// slot is empty, in flight, or failed.
    pub fn peek(&self, id: ObjectId) -> Option<std::sync::Arc<AdaptedModel>> {
        match self.shard_for(id).lock().get(&id) {
            Some(Slot::Ready(m)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(m.clone())
            }
            _ => None,
        }
    }

    /// Returns the cached model of `id`, running `adapt` to produce it if no
    /// thread has yet. The boolean is `true` iff *this* call executed the
    /// adaptation (a "cold" miss); callers that lose the race to another
    /// thread block until that thread finishes and get `false`.
    pub fn get_or_adapt(
        &self,
        id: ObjectId,
        adapt: impl FnOnce() -> Result<AdaptedModel, QueryError>,
    ) -> Result<(std::sync::Arc<AdaptedModel>, bool), QueryError> {
        let shard = self.shard_for(id);
        let mut slots = shard.lock();
        loop {
            match slots.get(&id) {
                Some(Slot::Ready(m)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((m.clone(), false));
                }
                Some(Slot::Failed(e)) => return Err(e.clone()),
                Some(Slot::InFlight) => {
                    slots = shard.ready.wait(slots).unwrap_or_else(|e| e.into_inner());
                }
                None => break,
            }
        }
        // Claim the slot, then adapt *outside* the lock so other objects of
        // the same shard are not serialised behind this adaptation.
        slots.insert(id, Slot::InFlight);
        drop(slots);
        let mut guard = ClaimGuard { shard, id, armed: true };
        let result = adapt();
        guard.armed = false;
        let mut slots = shard.lock();
        let out = match result {
            Ok(model) => {
                self.cold.fetch_add(1, Ordering::Relaxed);
                let model = std::sync::Arc::new(model);
                slots.insert(id, Slot::Ready(model.clone()));
                Ok((model, true))
            }
            Err(error) if error.is_transient() => {
                // Budget breaches are tied to one evaluation's deadline or
                // token, not to the (immutable) data: caching one would
                // poison every later query with a healthier budget. Release
                // the claim instead, like the panic guard does.
                slots.remove(&id);
                Err(error)
            }
            Err(error) => {
                slots.insert(id, Slot::Failed(error.clone()));
                Err(error)
            }
        };
        drop(slots);
        shard.ready.notify_all();
        out
    }

    /// All successfully adapted models currently cached, sorted by object id.
    /// This is the persistence hand-off: the pairs go straight into the
    /// MODELS section of an on-disk store, and the sort makes the listing
    /// deterministic across the sharded hash maps.
    pub fn snapshot_models(&self) -> Vec<(ObjectId, std::sync::Arc<AdaptedModel>)> {
        let mut out: Vec<(ObjectId, std::sync::Arc<AdaptedModel>)> = Vec::new();
        for shard in &self.shards {
            for (&id, slot) in shard.lock().iter() {
                if let Slot::Ready(model) = slot {
                    out.push((id, model.clone()));
                }
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Seeds the cache with already-adapted models (the load half of the
    /// persistence hand-off). Preloaded slots behave exactly like slots this
    /// cache adapted itself — later lookups are warm hits — but preloading
    /// bumps neither the hit nor the cold-adaptation counters: the stats keep
    /// describing work done *through* this cache. An id that is already
    /// resident (any slot state) is left untouched; the exactly-once claim
    /// discipline owns it.
    pub fn preload(
        &self,
        models: impl IntoIterator<Item = (ObjectId, std::sync::Arc<AdaptedModel>)>,
    ) {
        for (id, model) in models {
            let shard = self.shard_for(id);
            let mut slots = shard.lock();
            slots.entry(id).or_insert(Slot::Ready(model));
        }
    }

    /// Number of successfully adapted models currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().values().filter(|v| matches!(v, Slot::Ready(_))).count())
            .sum()
    }

    /// Whether no model is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards every completed slot (successes and cached failures). Slots
    /// that are currently in flight are kept so the exactly-once guarantee is
    /// not voided mid-adaptation; the claimant's completion re-inserts them.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().retain(|_, slot| matches!(slot, Slot::InFlight));
        }
    }

    /// Lifetime hit/miss counters plus the current cache size.
    pub fn stats(&self) -> CacheStats {
        let mut cached_models = 0;
        let mut cached_failures = 0;
        for shard in &self.shards {
            for slot in shard.lock().values() {
                match slot {
                    Slot::Ready(_) => cached_models += 1,
                    Slot::Failed(_) => cached_failures += 1,
                    Slot::InFlight => {}
                }
            }
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            cold_adaptations: self.cold.load(Ordering::Relaxed),
            cached_models,
            cached_failures,
        }
    }
}

/// The workspace's one implementation of the chunked ordered fan-out lives in
/// [`ust_index::par`] (the UST-tree build shards through it too); the TS
/// phase ([`adapt_batch_governed`]), the PCNN per-candidate runs and the bench
/// harness's per-object loops all re-use it through this re-export.
pub use ust_index::par::parallel_map_ordered;

/// Resolves a configured [`adaptation_threads`](crate::EngineConfig) value:
/// `0` means "use the machine's available parallelism".
pub fn resolve_adaptation_threads(configured: usize) -> usize {
    ust_index::par::resolve_threads(configured)
}

/// Adapts a batch of (cold) object ids through the cache, fanning the work out
/// across at most `threads` scoped workers via [`parallel_map_ordered`].
///
/// Every worker polls the query's [`BudgetGauge`] *before* each adaptation.
/// One adaptation is a coarse unit of work (a full forward–backward run), so
/// the per-item poll is both cheap and the natural deterministic checkpoint
/// granularity of this phase. The poll happens outside
/// [`AdaptationCache::get_or_adapt`], so a breach can never be mistaken for
/// a per-object failure and cached.
pub fn adapt_batch_governed<F>(
    cache: &AdaptationCache,
    ids: &[ObjectId],
    threads: usize,
    adapt: F,
    gauge: &BudgetGauge,
) -> Vec<Result<(std::sync::Arc<AdaptedModel>, bool), QueryError>>
where
    F: Fn(ObjectId) -> Result<AdaptedModel, QueryError> + Sync,
{
    parallel_map_ordered(ids, threads, |&id| {
        gauge.check(QueryPhase::Adaptation)?;
        cache.get_or_adapt(id, || adapt(id))
    })
}

/// Outcome of a [`QueryEngine::prepare_objects`](crate::QueryEngine) call: the
/// working set of adapted models handed to the samplers, plus the TS-phase
/// accounting that [`QueryStats`](crate::QueryStats) reports.
#[derive(Debug, Clone)]
pub struct PrepareOutcome {
    /// The adapted models, in the requested object order.
    pub models: AdaptedModels,
    /// Objects answered from the cache (no adaptation work done).
    pub cache_hits: usize,
    /// Objects whose forward–backward adaptation actually ran during this
    /// call. Under concurrency, objects adapted by *another* thread while this
    /// call waited count as hits, not cold adaptations.
    pub cold_adaptations: usize,
    /// Wall-clock time of the cold fan-out only. Warm lookups cost hash-map
    /// reads, not TS work, and are excluded — `Duration::ZERO` on a fully
    /// warm cache. If a *concurrent* query claimed some of the requested
    /// slots first, the time this call spent blocking on those in-flight
    /// adaptations is included (the query really did wait that long for its
    /// TS phase), even though the work is billed to the other call's
    /// `cold_adaptations` — so summing `cold_time` across concurrent queries
    /// can count a shared adaptation twice.
    pub cold_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use ust_markov::{CsrMatrix, MarkovModel};

    fn toy_model() -> MarkovModel {
        MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 0.5), (1, 0.5)],
            vec![(0, 0.5), (1, 0.5)],
        ]))
    }

    fn toy_adapt() -> Result<AdaptedModel, QueryError> {
        AdaptedModel::build(&toy_model(), &[(0, 0), (2, 1)])
            .map_err(|error| QueryError::Adaptation { object: 0, error })
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = AdaptationCache::new();
        assert!(cache.is_empty());
        let (_, cold) = cache.get_or_adapt(7, toy_adapt).unwrap();
        assert!(cold);
        let (_, cold) = cache.get_or_adapt(7, || panic!("must not re-adapt")).unwrap();
        assert!(!cold);
        assert!(cache.peek(7).is_some());
        assert!(cache.peek(8).is_none());
        let stats = cache.stats();
        assert_eq!(stats.cold_adaptations, 1);
        assert_eq!(stats.hits, 2, "one get_or_adapt hit plus one peek hit");
        assert_eq!(stats.cached_models, 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn failures_are_cached_and_cloned_to_later_callers() {
        let cache = AdaptationCache::new();
        let err = QueryError::UnknownObject { object: 3 };
        let calls = AtomicUsize::new(0);
        let attempt = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(err.clone())
        };
        assert_eq!(cache.get_or_adapt(3, attempt).unwrap_err(), err);
        assert_eq!(cache.get_or_adapt(3, attempt).unwrap_err(), err);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the failure is cached");
        assert_eq!(cache.len(), 0, "failed slots are not counted as models");
        assert_eq!(cache.stats().cached_failures, 1, "but they are observable");
        cache.clear();
        assert_eq!(cache.stats().cached_failures, 0);
        assert_eq!(cache.get_or_adapt(3, attempt).unwrap_err(), err);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "clear() also drops failures");
    }

    #[test]
    fn concurrent_misses_adapt_exactly_once() {
        let cache = AdaptationCache::new();
        let executions = AtomicUsize::new(0);
        let n = 8;
        let barrier = Barrier::new(n);
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    barrier.wait();
                    let (model, _) = cache
                        .get_or_adapt(42, || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            toy_adapt()
                        })
                        .unwrap();
                    assert_eq!(model.start(), 0);
                });
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "stampede: adaptation duplicated");
        assert_eq!(cache.stats().cold_adaptations, 1);
        assert_eq!(cache.stats().hits, n as u64 - 1);
    }

    #[test]
    fn panicking_adaptation_releases_the_claim() {
        let cache = AdaptationCache::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_adapt(5, || panic!("boom"));
        }));
        assert!(caught.is_err());
        // The slot must be claimable again, not wedged in flight.
        let (_, cold) = cache.get_or_adapt(5, toy_adapt).unwrap();
        assert!(cold);
    }

    #[test]
    fn adapt_batch_is_ordered_and_exactly_once_per_id() {
        let cache = AdaptationCache::new();
        let executions = AtomicUsize::new(0);
        let ids: Vec<ObjectId> = (0..64).collect();
        let gauge = crate::govern::QueryBudget::unlimited().start();
        for threads in [1usize, 4] {
            let results = adapt_batch_governed(
                &cache,
                &ids,
                threads,
                |_| {
                    executions.fetch_add(1, Ordering::SeqCst);
                    toy_adapt()
                },
                &gauge,
            );
            assert_eq!(results.len(), ids.len());
            for r in &results {
                assert!(r.is_ok());
            }
        }
        assert_eq!(executions.load(Ordering::SeqCst), 64, "second sweep was fully warm");
    }

    #[test]
    fn transient_errors_are_not_cached_and_release_the_claim() {
        let cache = AdaptationCache::new();
        let budget_err = QueryError::Cancelled {
            phase: crate::govern::QueryPhase::Adaptation,
            stats: Box::default(),
        };
        assert!(budget_err.is_transient());
        let err = cache.get_or_adapt(9, || Err(budget_err.clone())).unwrap_err();
        assert_eq!(err, budget_err);
        assert_eq!(cache.stats().cached_failures, 0, "budget errors must not poison the cache");
        // The slot is claimable again and a healthy retry succeeds.
        let (_, cold) = cache.get_or_adapt(9, toy_adapt).unwrap();
        assert!(cold);
    }

    #[test]
    fn governed_batch_cancels_deterministically_and_caches_nothing() {
        use crate::govern::{CancelToken, QueryBudget};
        let ids: Vec<ObjectId> = (0..32).collect();
        for threads in [1usize, 2, 4] {
            let cache = AdaptationCache::new();
            let token = CancelToken::new();
            token.cancel();
            let gauge = QueryBudget::unlimited().with_cancel(&token).start();
            let results = adapt_batch_governed(&cache, &ids, threads, |_| toy_adapt(), &gauge);
            assert_eq!(results.len(), ids.len());
            for r in results {
                assert!(matches!(
                    r.unwrap_err(),
                    QueryError::Cancelled { phase: QueryPhase::Adaptation, .. }
                ));
            }
            let stats = cache.stats();
            assert_eq!(stats.cold_adaptations, 0, "no adaptation may run after cancel");
            assert_eq!(stats.cached_failures, 0);
            assert_eq!(stats.cached_models, 0);
        }
    }

    #[test]
    fn resolve_threads_maps_zero_to_available_parallelism() {
        // Thin delegation to `ust_index::par::resolve_threads`, which has the
        // full edge-case coverage.
        assert!(resolve_adaptation_threads(0) >= 1);
        assert_eq!(resolve_adaptation_threads(3), 3);
    }
}
