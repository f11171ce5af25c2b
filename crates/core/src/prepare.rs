//! The parallel, stampede-free model-preparation ("TS") subsystem.
//!
//! The forward–backward adaptation of Section 5.2 dominates query time (the
//! fig06 runs spend ~100 ms adapting 150 objects vs ~5 ms sampling), and each
//! object's adaptation is independent of every other object's — the phase is
//! embarrassingly parallel. This module provides the pieces the engine
//! builds on:
//!
//! * [`ModelKey`] — what a model is cached under: its object and the first
//!   and last time of the observation range `observations[a..=b]` it was
//!   adapted over. Observations are certain, so the a-posteriori chain splits
//!   at them (Lemma 5): a range's model holds, bit for bit, the marginals and
//!   `F(t)` rows the whole-history model has between the range's ends. A
//!   query reads only its window, so it adapts only the observations that
//!   bracket the window ([`ModelKey::bracket`]); the whole history is the
//!   bracket of the unbounded window.
//! * [`AdaptationCache`] — a sharded cache of a-posteriori models whose
//!   per-key slots guarantee that every adaptation runs **exactly once**,
//!   even when many threads miss on the same key concurrently. A miss
//!   claims the slot; later arrivals block on the claiming thread's result
//!   instead of recomputing (the classic anti-stampede discipline, in contrast
//!   to the old check-then-recompute under separate `RwLock` acquisitions).
//! * [`adapt_batch_governed`] — a batched fan-out that partitions cold keys
//!   across [`std::thread::scope`] workers, polling the query's budget gauge
//!   once per key. With
//!   [`EngineConfig::adaptation_threads`](crate::EngineConfig) set to `1` the
//!   fan-out degenerates to the exact serial loop the engine used before, so
//!   results are bit-for-bit identical; any other thread count produces the
//!   same models too (adaptation is deterministic per range), just faster.

use crate::engine::AdaptedModels;
use crate::govern::{BudgetGauge, QueryPhase};
use crate::query::QueryError;
use crate::ObjectId;
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;
use ust_markov::{AdaptedModel, Timestamp};
use ust_trajectory::{Observation, UncertainObject};

/// Number of independent shards of an [`AdaptationCache`]. A power of two so
/// shard selection is a mask; 16 shards keep lock contention negligible for
/// any realistic `adaptation_threads` while costing only a few hundred bytes.
const NUM_SHARDS: usize = 16;

/// The key an adapted model is cached under: its object and the times of
/// the first and last observation of the range it was adapted over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey {
    /// The object.
    pub object: ObjectId,
    /// Time of the range's first observation.
    pub first: Timestamp,
    /// Time of the range's last observation.
    pub last: Timestamp,
}

impl ModelKey {
    /// The key of `object`'s whole observation history.
    pub fn whole(object: &UncertainObject) -> Self {
        ModelKey { object: object.id(), first: object.first_time(), last: object.last_time() }
    }

    /// The key of the observations that bracket a walk over `window =
    /// [ts, te]`: `observations[a..=b]`, where `a` is the last observation at
    /// or before `max(ts, θ₀)` and `b` the first at or after `min(te, θₙ)`.
    /// The walk reads the a-posteriori marginal at `max(ts, θ₀)` and the
    /// `F(t)` rows up to `min(te, θₙ)`, all inside `[θ_a, θ_b]`. A window
    /// outside the lifetime brackets the nearest observation alone, and the
    /// unbounded window brackets the whole history.
    pub fn bracket(object: &UncertainObject, window: &RangeInclusive<Timestamp>) -> Self {
        let observations = object.observations();
        let lo = (*window.start()).max(object.first_time());
        let hi = (*window.end()).min(object.last_time());
        let a = observations.partition_point(|o| o.time <= lo) - 1;
        let b = observations.partition_point(|o| o.time < hi).max(a);
        ModelKey { object: object.id(), first: observations[a].time, last: observations[b].time }
    }

    /// The key of `model`, adapted for `object`: its covered interval.
    pub fn of(object: ObjectId, model: &AdaptedModel) -> Self {
        ModelKey { object, first: model.start(), last: model.end() }
    }

    /// The observations of `object` this key's model is adapted over.
    pub fn observations<'o>(&self, object: &'o UncertainObject) -> &'o [Observation] {
        let observations = object.observations();
        let from = observations.partition_point(|o| o.time < self.first);
        let to = observations.partition_point(|o| o.time <= self.last);
        &observations[from..to]
    }
}

/// State of one per-key cache slot.
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

/// One shard: a map of model slots plus the condition variable in-flight
/// waiters block on.
#[derive(Default)]
struct Shard {
    slots: Mutex<FxHashMap<ModelKey, Slot>>,
    ready: Condvar,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, FxHashMap<ModelKey, Slot>> {
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
    key: ModelKey,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.lock().remove(&self.key);
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
    /// Adaptations actually executed (each key counts once, no matter how
    /// many threads raced on it).
    pub cold_adaptations: u64,
    /// Models currently cached, one per [`ModelKey`]: per object its
    /// whole-history model and the brackets queries adapted, at most one
    /// model per range of its observations.
    pub cached_models: usize,
    /// Cached *failure* slots. Errors are cached like successes (they are
    /// deterministic for an immutable database) and are excluded from
    /// `cached_models`, so this counter is the only way to observe their
    /// memory footprint; `clear()` drops them together with the models.
    pub cached_failures: usize,
}

/// A sharded, stampede-free cache of adapted (a-posteriori) models, keyed by
/// [`ModelKey`].
///
/// Concurrent misses on the same key are serialised through a per-slot
/// claim: the first thread adapts, everyone else blocks on the result. Misses
/// on *different* keys proceed in parallel (different slots, and usually
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

    fn shard_for(&self, key: ModelKey) -> &Shard {
        let mut hasher = rustc_hash::FxHasher::default();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (NUM_SHARDS - 1)]
    }

    /// Non-blocking lookup: the model if it is already adapted, `None` if the
    /// slot is empty, in flight, or failed.
    pub fn peek(&self, key: ModelKey) -> Option<std::sync::Arc<AdaptedModel>> {
        match self.shard_for(key).lock().get(&key) {
            Some(Slot::Ready(m)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(m.clone())
            }
            _ => None,
        }
    }

    /// Returns the cached model of `key`, running `adapt` to produce it if no
    /// thread has yet. The boolean is `true` iff *this* call executed the
    /// adaptation (a "cold" miss); callers that lose the race to another
    /// thread block until that thread finishes and get `false`.
    pub fn get_or_adapt(
        &self,
        key: ModelKey,
        adapt: impl FnOnce() -> Result<AdaptedModel, QueryError>,
    ) -> Result<(std::sync::Arc<AdaptedModel>, bool), QueryError> {
        let shard = self.shard_for(key);
        let mut slots = shard.lock();
        loop {
            match slots.get(&key) {
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
        // Claim the slot, then adapt *outside* the lock so other keys of the
        // same shard are not serialised behind this adaptation.
        slots.insert(key, Slot::InFlight);
        drop(slots);
        let mut guard = ClaimGuard { shard, key, armed: true };
        let result = adapt();
        guard.armed = false;
        let mut slots = shard.lock();
        let out = match result {
            Ok(model) => {
                self.cold.fetch_add(1, Ordering::Relaxed);
                let model = std::sync::Arc::new(model);
                slots.insert(key, Slot::Ready(model.clone()));
                Ok((model, true))
            }
            Err(error) if error.is_transient() => {
                // Budget breaches are tied to one evaluation's deadline or
                // token, not to the (immutable) data: caching one would
                // poison every later query with a healthier budget. Release
                // the claim instead, like the panic guard does.
                slots.remove(&key);
                Err(error)
            }
            Err(error) => {
                slots.insert(key, Slot::Failed(error.clone()));
                Err(error)
            }
        };
        drop(slots);
        shard.ready.notify_all();
        out
    }

    /// All successfully adapted models currently cached, sorted by key. The
    /// persistence hand-off picks the whole-history ones for the MODELS
    /// section of an on-disk store; the sort makes the listing deterministic
    /// across the sharded hash maps.
    pub fn snapshot_models(&self) -> Vec<(ModelKey, std::sync::Arc<AdaptedModel>)> {
        let mut out: Vec<(ModelKey, std::sync::Arc<AdaptedModel>)> = Vec::new();
        for shard in &self.shards {
            for (&key, slot) in shard.lock().iter() {
                if let Slot::Ready(model) = slot {
                    out.push((key, model.clone()));
                }
            }
        }
        out.sort_unstable_by_key(|&(key, _)| key);
        out
    }

    /// Seeds the cache with already-adapted models (the load half of the
    /// persistence hand-off), each keyed by its own covered interval
    /// ([`ModelKey::of`]). Preloaded slots behave exactly like slots this
    /// cache adapted itself — later lookups are warm hits — but preloading
    /// bumps neither the hit nor the cold-adaptation counters: the stats keep
    /// describing work done *through* this cache. A key that is already
    /// resident (any slot state) is left untouched; the exactly-once claim
    /// discipline owns it.
    pub fn preload(
        &self,
        models: impl IntoIterator<Item = (ObjectId, std::sync::Arc<AdaptedModel>)>,
    ) {
        for (id, model) in models {
            let key = ModelKey::of(id, &model);
            self.shard_for(key).lock().entry(key).or_insert(Slot::Ready(model));
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

/// Adapts a batch of (cold) keys through the cache, fanning the work out
/// across at most `threads` scoped workers via [`parallel_map_ordered`].
///
/// Every worker polls the query's [`BudgetGauge`] *before* each adaptation.
/// One adaptation is a coarse unit of work (a full forward–backward run over
/// the key's range), so the per-item poll is both cheap and the natural
/// deterministic checkpoint granularity of this phase. The poll happens
/// outside [`AdaptationCache::get_or_adapt`], so a breach can never be
/// mistaken for a per-key failure and cached.
pub fn adapt_batch_governed<F>(
    cache: &AdaptationCache,
    keys: &[ModelKey],
    threads: usize,
    adapt: F,
    gauge: &BudgetGauge,
) -> Vec<Result<(std::sync::Arc<AdaptedModel>, bool), QueryError>>
where
    F: Fn(ModelKey) -> Result<AdaptedModel, QueryError> + Sync,
{
    parallel_map_ordered(keys, threads, |&key| {
        gauge.check(QueryPhase::Adaptation)?;
        cache.get_or_adapt(key, || adapt(key))
    })
}

/// Outcome of a [`QueryEngine::prepare_objects`](crate::QueryEngine) call: the
/// working set of adapted models handed to the samplers, plus the TS-phase
/// accounting that [`QueryStats`](crate::QueryStats) reports.
#[derive(Debug, Clone)]
pub struct PrepareOutcome {
    /// The adapted models, in the requested object order.
    pub models: AdaptedModels,
    /// Objects answered from the cache (no adaptation work done): by their
    /// whole-history model or by a model of the requested bracket.
    pub cache_hits: usize,
    /// Ranges whose forward–backward adaptation actually ran during this
    /// call, one per cold object: its bracket for a query, its whole history
    /// for [`prepare_objects`](crate::QueryEngine::prepare_objects). Under
    /// concurrency, ranges adapted by *another* thread while this call
    /// waited count as hits, not cold adaptations.
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

    /// The key of object `id`'s toy model.
    fn key(id: ObjectId) -> ModelKey {
        ModelKey { object: id, first: 0, last: 2 }
    }

    #[test]
    fn brackets_are_the_observations_around_the_window() {
        let object = UncertainObject::from_pairs(4, [(2, 0), (5, 1), (9, 0), (12, 1)]).unwrap();
        let whole = ModelKey::whole(&object);
        assert_eq!(whole, ModelKey { object: 4, first: 2, last: 12 });
        for (window, (first, last)) in [
            (0..=1, (2, 2)),
            (0..=3, (2, 5)),
            (3..=4, (2, 5)),
            (5..=9, (5, 9)),
            (6..=10, (5, 12)),
            (12..=12, (12, 12)),
            (13..=20, (12, 12)),
            (0..=20, (2, 12)),
            (Timestamp::MIN..=Timestamp::MAX, (2, 12)),
        ] {
            let key = ModelKey::bracket(&object, &window);
            assert_eq!((key.object, key.first, key.last), (4, first, last), "{window:?}");
            let times: Vec<Timestamp> = key.observations(&object).iter().map(|o| o.time).collect();
            assert_eq!((times.first(), times.last()), (Some(&first), Some(&last)), "{window:?}");
        }
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = AdaptationCache::new();
        assert!(cache.is_empty());
        let (_, cold) = cache.get_or_adapt(key(7), toy_adapt).unwrap();
        assert!(cold);
        let (_, cold) = cache.get_or_adapt(key(7), || panic!("must not re-adapt")).unwrap();
        assert!(!cold);
        assert!(cache.peek(key(7)).is_some());
        assert!(cache.peek(key(8)).is_none());
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
        assert_eq!(cache.get_or_adapt(key(3), attempt).unwrap_err(), err);
        assert_eq!(cache.get_or_adapt(key(3), attempt).unwrap_err(), err);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the failure is cached");
        assert_eq!(cache.len(), 0, "failed slots are not counted as models");
        assert_eq!(cache.stats().cached_failures, 1, "but they are observable");
        cache.clear();
        assert_eq!(cache.stats().cached_failures, 0);
        assert_eq!(cache.get_or_adapt(key(3), attempt).unwrap_err(), err);
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
                        .get_or_adapt(key(42), || {
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
            let _ = cache.get_or_adapt(key(5), || panic!("boom"));
        }));
        assert!(caught.is_err());
        // The slot must be claimable again, not wedged in flight.
        let (_, cold) = cache.get_or_adapt(key(5), toy_adapt).unwrap();
        assert!(cold);
    }

    #[test]
    fn adapt_batch_is_ordered_and_exactly_once_per_id() {
        let cache = AdaptationCache::new();
        let executions = AtomicUsize::new(0);
        let keys: Vec<ModelKey> = (0..64).map(key).collect();
        let gauge = crate::govern::QueryBudget::unlimited().start();
        for threads in [1usize, 4] {
            let results = adapt_batch_governed(
                &cache,
                &keys,
                threads,
                |_| {
                    executions.fetch_add(1, Ordering::SeqCst);
                    toy_adapt()
                },
                &gauge,
            );
            assert_eq!(results.len(), keys.len());
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
        let err = cache.get_or_adapt(key(9), || Err(budget_err.clone())).unwrap_err();
        assert_eq!(err, budget_err);
        assert_eq!(cache.stats().cached_failures, 0, "budget errors must not poison the cache");
        // The slot is claimable again and a healthy retry succeeds.
        let (_, cold) = cache.get_or_adapt(key(9), toy_adapt).unwrap();
        assert!(cold);
    }

    #[test]
    fn governed_batch_cancels_deterministically_and_caches_nothing() {
        use crate::govern::{CancelToken, QueryBudget};
        let keys: Vec<ModelKey> = (0..32).map(key).collect();
        for threads in [1usize, 2, 4] {
            let cache = AdaptationCache::new();
            let token = CancelToken::new();
            token.cancel();
            let gauge = QueryBudget::unlimited().with_cancel(&token).start();
            let results = adapt_batch_governed(&cache, &keys, threads, |_| toy_adapt(), &gauge);
            assert_eq!(results.len(), keys.len());
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
