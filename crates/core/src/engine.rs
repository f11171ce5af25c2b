//! The sampling-based query engine (Sections 3.3, 5 and 6 of the paper).
//!
//! Evaluation of a query proceeds in three phases:
//!
//! 1. **Filter** — the UST-tree prunes objects that can never be a nearest
//!    neighbor during the query interval, producing the ∀-candidate set
//!    `C(q)` and the influence set `I(q)`.
//! 2. **Model adaptation ("TS")** — for every remaining object the
//!    forward–backward adaptation turns the a-priori chain plus observations
//!    into the a-posteriori chain. A query reads the chain only inside its
//!    window, so it adapts only the observations that bracket the window
//!    ([`ModelKey::bracket`]); the chain splits at observations, so those
//!    are bit for bit the whole-history model's marginals and rows there.
//!    Adapted models are cached by object and observation range, since "this
//!    phase can be performed once and used for all queries": an object's
//!    whole-history model (preloaded, or adapted by
//!    [`QueryEngine::prepare_objects`]) serves every window, and a bracket
//!    model serves every window with the same bracket. Cold ranges are
//!    fanned out across [`EngineConfig::adaptation_threads`] workers through
//!    the stampede-free [`crate::prepare`] subsystem.
//! 3. **Refinement ("FA"/"EX"/"SA")** — possible worlds are sampled from the
//!    a-posteriori models, and in each world a k-th-smallest-distance cutoff
//!    per query timestamp decides which objects are (k-)nearest neighbors
//!    there. That one indicator lands in one [`WorldSet`] per influence
//!    object, and every semantics reads its answer from those sets (Section
//!    5.2.3): P∃NN counts the worlds whose marks hold at some timestamp, P∀NN
//!    those whose marks hold at every timestamp, and PCNN mines the subsets
//!    `T_i` on which they hold. The shares are compared against `τ`.
//!
//! Every phase time in [`QueryStats`] is a difference of the evaluation's one
//! clock, [`BudgetGauge::elapsed`].

use crate::govern::{
    BudgetGauge, QueryBudget, QueryPhase, Verdict, FILTER_CHECK_INTERVAL, WORLD_CHECK_INTERVAL,
};
use crate::pcnn::{vertical_timesets, PcnnConfig, PcnnResult, WorldSet};
use crate::prepare::{
    adapt_batch_governed, parallel_map_ordered, AdaptationCache, CacheStats, ModelKey,
    PrepareOutcome,
};
use crate::query::{Query, QueryError};
use crate::results::{ObjectProbability, PcnnObjectResult, PcnnOutcome, QueryOutcome, QueryStats};
use crate::ObjectId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Duration;
use ust_index::{IndexBuildStats, UstTree, UstTreeConfig};
use ust_markov::{AdaptedModel, ModelAdaptation, Timestamp};
use ust_sampling::{block_seed, WorldBlock, WorldSampler, WORLD_BLOCK_WIDTH};
use ust_trajectory::TrajectoryDatabase;

/// Configuration of the query engine.
///
/// Not `Copy` since the governance work: the [`QueryBudget`] can hold an
/// [`Arc`]-backed cancel token. Clone it where a second owned copy is needed.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of possible worlds sampled per query (the paper uses 10 000
    /// samples per object).
    pub num_samples: usize,
    /// RNG seed, so query results are reproducible.
    pub seed: u64,
    /// Whether to build and use the UST-tree filter step. Disabling it turns
    /// every object overlapping the query interval into an influence object
    /// (the ablation discussed in DESIGN.md).
    pub use_index: bool,
    /// Report only maximal qualifying timestamp sets from PCNN queries.
    pub maximal_pcnn_sets: bool,
    /// Number of worker threads the model-adaptation ("TS") phase fans cold
    /// objects out across. `0` (the default) uses the machine's available
    /// parallelism; `1` reproduces the serial adaptation loop bit-for-bit.
    /// Query *results* are identical for every setting — adaptation is
    /// deterministic per object — only wall-clock time changes.
    pub adaptation_threads: usize,
    /// Number of worker threads the PCNN lattice phase fans candidate objects
    /// out across (each candidate's Apriori lattice is mined independently).
    /// `0` (the default) uses the machine's available parallelism; `1` is the
    /// serial loop. Per-object results are merged back in ascending object
    /// order, so query output is byte-identical at every thread count.
    pub pcnn_threads: usize,
    /// Number of worker threads the UST-tree build (the filter-phase index)
    /// fans per-object diamond construction out across. `0` (the default)
    /// uses the machine's available parallelism; `1` is the exact serial
    /// build. The built index is byte-identical at every setting (see
    /// [`ust_index::UstTreeConfig::build_threads`]); only build wall-clock
    /// time changes.
    pub index_build_threads: usize,
    /// The [`QueryBudget`] every evaluation on this engine runs under: each
    /// query method, [`QueryEngine::filter_knn`] and
    /// [`QueryEngine::prepare_objects`]. It is the only budget — there is no
    /// per-call override; change it between queries with
    /// [`QueryEngine::set_budget`]. The default is unlimited, exactly the
    /// pre-governance behaviour. The degradation contract is documented in
    /// [`crate::govern`].
    pub budget: QueryBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_samples: 10_000,
            seed: 0,
            use_index: true,
            maximal_pcnn_sets: false,
            adaptation_threads: 0,
            pcnn_threads: 0,
            index_build_threads: 0,
            budget: QueryBudget::default(),
        }
    }
}

impl EngineConfig {
    /// Convenience constructor overriding the number of sampled worlds.
    pub fn with_samples(num_samples: usize) -> Self {
        EngineConfig { num_samples, ..Default::default() }
    }
}

/// Adapted a-posteriori models of a set of objects, as `(id, model)` pairs —
/// the working set handed from the preparation ("TS") phase to the samplers.
pub type AdaptedModels = Vec<(ObjectId, Arc<AdaptedModel>)>;

/// The window whose bracket is every object's whole history: what
/// [`QueryEngine::prepare_objects`] and [`QueryEngine::adapted_model`]
/// prepare for.
const WHOLE_HISTORY: RangeInclusive<Timestamp> = Timestamp::MIN..=Timestamp::MAX;

/// The probabilistic NN query engine over one trajectory database.
///
/// The UST-tree is held behind an [`Arc`], so one (potentially paper-scale)
/// build can be shared across many engines and threads without a clone:
/// build once, then hand [`QueryEngine::shared_index`] to
/// [`QueryEngine::with_index`] on every further engine.
pub struct QueryEngine<'a> {
    db: &'a TrajectoryDatabase,
    index: Option<Arc<UstTree>>,
    config: EngineConfig,
    cache: AdaptationCache,
}

impl std::fmt::Debug for QueryEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("objects", &self.db.objects().len())
            .field("indexed", &self.index.is_some())
            .field("config", &self.config)
            .field("cache", &self.cache)
            .finish()
    }
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine, building the UST-tree if the configuration enables
    /// the filter step (the build fans out across
    /// [`EngineConfig::index_build_threads`] workers).
    pub fn new(db: &'a TrajectoryDatabase, config: EngineConfig) -> Self {
        let index = config.use_index.then(|| {
            let tree_cfg =
                UstTreeConfig { build_threads: config.index_build_threads, ..Default::default() };
            Arc::new(UstTree::build_with(db, &tree_cfg))
        });
        QueryEngine { db, index, config, cache: AdaptationCache::new() }
    }

    /// Creates an engine reusing a pre-built UST-tree. The `Arc` makes the
    /// share explicit: any number of engines (across threads) can serve
    /// queries from the same build.
    pub fn with_index(
        db: &'a TrajectoryDatabase,
        index: Arc<UstTree>,
        config: EngineConfig,
    ) -> Self {
        QueryEngine { db, index: Some(index), config, cache: AdaptationCache::new() }
    }

    /// The underlying database.
    pub fn database(&self) -> &TrajectoryDatabase {
        self.db
    }

    /// The UST-tree, if the filter step is enabled.
    pub fn index(&self) -> Option<&UstTree> {
        self.index.as_deref()
    }

    /// A shareable handle to the UST-tree (if the filter step is enabled),
    /// for building further engines over the same index without re-building:
    /// `QueryEngine::with_index(db, engine.shared_index().unwrap(), cfg)`.
    pub fn shared_index(&self) -> Option<Arc<UstTree>> {
        self.index.clone()
    }

    /// Observability counters of the UST-tree build (wall time, diamond
    /// count, reach-memo hits, peak BFS frontier), if the filter step is
    /// enabled. The bench harness surfaces these in its report meta.
    pub fn index_build_stats(&self) -> Option<&IndexBuildStats> {
        self.index.as_deref().map(UstTree::build_stats)
    }

    /// Persists this engine's state — the database, the UST-tree (if built)
    /// and every whole-history model currently cached — as an on-disk store
    /// (see [`ust_persist`]). A store holds whole-object models, so the
    /// models queries adapted over the observations bracketing their window
    /// are not written; call [`Self::prepare_all`] first to store every
    /// object. A later [`EngineStore::load`](crate::EngineStore) skips the
    /// index build and the TS phase for the stored objects entirely. The
    /// write stages through a `<path>.tmp` sibling and lands with an atomic
    /// rename, so a crash mid-save never clobbers (or truncates) a store
    /// already at `path`.
    pub fn save_store(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ust_persist::StoreStats, ust_persist::StoreError> {
        let is_whole = |key: &ModelKey| {
            self.db.object(key.object).is_some_and(|object| *key == ModelKey::whole(object))
        };
        let models: AdaptedModels = self
            .cache
            .snapshot_models()
            .into_iter()
            .filter(|(key, _)| is_whole(key))
            .map(|(key, model)| (key.object, model))
            .collect();
        ust_persist::write_store(
            path,
            &ust_persist::StoreContents {
                database: self.db,
                index: self.index.as_deref(),
                models: &models,
            },
        )
    }

    /// Seeds the adaptation cache with already-adapted models (typically the
    /// MODELS section of a loaded store), each under its own observation
    /// range. A preloaded whole-history model serves every window of its
    /// object; cache statistics are not affected (see
    /// [`AdaptationCache::preload`]).
    pub fn preload_models(
        &self,
        models: impl IntoIterator<Item = (ObjectId, Arc<AdaptedModel>)>,
    ) {
        self.cache.preload(models);
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replaces [`EngineConfig::budget`] for every later evaluation, keeping
    /// the UST-tree and the model cache. A budget breach never poisons the
    /// cache, so after one a caller can lift or widen the budget and re-run
    /// the same query on the same, still warm, engine.
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.config.budget = budget;
    }

    /// Discards all cached a-posteriori models (useful for benchmarking the
    /// adaptation phase in isolation).
    pub fn clear_model_cache(&self) {
        self.cache.clear();
    }

    /// Number of currently cached a-posteriori models: whole-history and
    /// bracket models alike, one per cached observation range.
    pub fn cached_models(&self) -> usize {
        self.cache.len()
    }

    /// Lifetime hit/cold counters of the model cache (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // ------------------------------------------------------------------
    // Model adaptation ("TS" phase)
    // ------------------------------------------------------------------

    /// Runs the forward–backward adaptation of one object's observation
    /// range, bypassing the cache. This is the closure handed to the
    /// anti-stampede slots.
    fn adapt_uncached(&self, key: ModelKey) -> Result<AdaptedModel, QueryError> {
        // Chaos hook: lets the chaos suite crash a live adaptation worker and
        // prove the claim-release path with real threads (see tests/chaos.rs
        // at the workspace root). Disarmed, this is one relaxed atomic load.
        ust_fault::panic_point("core.adapt.worker");
        let id = key.object;
        let object = self.db.object(id).ok_or(QueryError::UnknownObject { object: id })?;
        let observations: Vec<_> =
            key.observations(object).iter().map(|o| (o.time, o.state)).collect();
        ModelAdaptation::new()
            .adapt(self.db.model_for(id).as_ref(), &observations)
            .map_err(|error| QueryError::Adaptation { object: id, error })
    }

    /// Returns (building and caching if necessary) the whole-history
    /// a-posteriori model of an object: [`Self::prepare_objects`] of one id,
    /// without a budget.
    ///
    /// Concurrent calls for the same uncached object never duplicate the
    /// forward–backward work: the first caller adapts, later callers block on
    /// its result (see [`crate::prepare::AdaptationCache`]).
    pub fn adapted_model(&self, id: ObjectId) -> Result<Arc<AdaptedModel>, QueryError> {
        let gauge = QueryBudget::unlimited().start();
        let mut prepared = self.prepare_governed(&[id], &WHOLE_HISTORY, &gauge)?;
        Ok(prepared.models.pop().expect("one model per id").1)
    }

    /// Adapts (or fetches from the cache) the whole-history models of the
    /// given objects, under [`EngineConfig::budget`]: the query path's TS
    /// phase over the unbounded window, whose bracket is every object's
    /// whole history.
    ///
    /// Cold objects are fanned out across
    /// [`adaptation_threads`](EngineConfig::adaptation_threads) scoped worker
    /// threads; warm objects are answered from the cache and excluded from the
    /// reported [`PrepareOutcome::cold_time`]. The returned model order always
    /// matches `ids`, independent of the thread count.
    pub fn prepare_objects(&self, ids: &[ObjectId]) -> Result<PrepareOutcome, QueryError> {
        self.prepare_governed(ids, &WHOLE_HISTORY, &self.config.budget.start())
    }

    /// The TS phase for walks over `window`, under an already-started
    /// [`BudgetGauge`]. Per id it looks up the object's whole-history model
    /// first, which serves every window, then the model of the observations
    /// that bracket `window` ([`ModelKey::bracket`]); a miss on both claims
    /// and adapts the bracket. An unknown id is an error before any lookup.
    /// Every worker polls the gauge once per cold bracket before adapting,
    /// so a cancel or deadline breach surfaces as a typed error without
    /// poisoning the cache (transient errors release the anti-stampede claim
    /// instead of being cached, see [`AdaptationCache::get_or_adapt`]).
    fn prepare_governed(
        &self,
        ids: &[ObjectId],
        window: &RangeInclusive<Timestamp>,
        gauge: &BudgetGauge,
    ) -> Result<PrepareOutcome, QueryError> {
        let mut slots: Vec<Option<Arc<AdaptedModel>>> = vec![None; ids.len()];
        let mut cold: Vec<(usize, ModelKey)> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let object = self.db.object(id).ok_or(QueryError::UnknownObject { object: id })?;
            let (whole, bracket) = (ModelKey::whole(object), ModelKey::bracket(object, window));
            match self.cache.peek(whole).or_else(|| self.cache.peek(bracket)) {
                Some(model) => slots[i] = Some(model),
                None => cold.push((i, bracket)),
            }
        }
        let mut cold_adaptations = 0usize;
        let mut cold_time = Duration::ZERO;
        if !cold.is_empty() {
            let cold_keys: Vec<ModelKey> = cold.iter().map(|&(_, key)| key).collect();
            let start = gauge.elapsed();
            let results = adapt_batch_governed(
                &self.cache,
                &cold_keys,
                self.config.adaptation_threads,
                |key| self.adapt_uncached(key),
                gauge,
            );
            cold_time = gauge.elapsed().saturating_sub(start);
            for (&(i, _), result) in cold.iter().zip(results) {
                let (model, was_cold) = result?;
                cold_adaptations += usize::from(was_cold);
                slots[i] = Some(model);
            }
        }
        let models: AdaptedModels = ids
            .iter()
            .zip(slots)
            .map(|(&id, slot)| (id, slot.expect("every id resolved above")))
            .collect();
        let cache_hits = ids.len() - cold_adaptations;
        Ok(PrepareOutcome { models, cache_hits, cold_adaptations, cold_time })
    }

    /// Adapts the models of *all* database objects (the full "TS" phase of the
    /// experiments).
    pub fn prepare_all(&self) -> Result<PrepareOutcome, QueryError> {
        let ids: Vec<ObjectId> = self.db.objects().iter().map(|o| o.id()).collect();
        self.prepare_objects(&ids)
    }

    // ------------------------------------------------------------------
    // Filter step
    // ------------------------------------------------------------------

    /// The filter step for k-NN queries, under [`EngineConfig::budget`]:
    /// returns `(candidates, influencers)`.
    ///
    /// With the UST-tree enabled this is the `dmin`/`dmax` pruning of
    /// Section 6, the pruning distance being the k-th smallest `dmax` per
    /// timestamp; without it, every object covering (overlapping) the query
    /// interval is a candidate (influencer).
    pub fn filter_knn(
        &self,
        query: &Query,
        k: usize,
    ) -> Result<(Vec<ObjectId>, Vec<ObjectId>), QueryError> {
        self.filter_knn_governed(query, k, &self.config.budget.start())
    }

    /// The filter step under an already-started [`BudgetGauge`]: one
    /// query-start checkpoint (where a zero deadline or an already-cancelled
    /// token trips deterministically, before any phase runs), one poll every
    /// [`FILTER_CHECK_INTERVAL`] streamed diamonds, and the `max_diamonds`
    /// cap. Pruning cannot degrade — a partial filter pass would silently
    /// drop result objects — so any breach here is a typed error.
    fn filter_knn_governed(
        &self,
        query: &Query,
        k: usize,
        gauge: &BudgetGauge,
    ) -> Result<(Vec<ObjectId>, Vec<ObjectId>), QueryError> {
        gauge.check(QueryPhase::Filter)?;
        match &self.index {
            Some(tree) => {
                let cap = gauge.max_diamonds();
                let pruning = tree.try_prune_knn(
                    query.times(),
                    query.positions(),
                    k,
                    |streamed| {
                        if let Some(cap) = cap {
                            if streamed > cap {
                                return Err(gauge.exhausted(QueryPhase::Filter, "diamonds", cap));
                            }
                        }
                        if streamed.is_multiple_of(FILTER_CHECK_INTERVAL) {
                            gauge.check(QueryPhase::Filter)?;
                        }
                        Ok(())
                    },
                )?;
                Ok((pruning.candidates, pruning.influencers))
            }
            None => {
                let from = query.start();
                let to = query.end();
                let mut candidates = self.db.objects_covering(from, to);
                let mut influencers = self.db.objects_overlapping(from, to);
                candidates.sort_unstable();
                influencers.sort_unstable();
                Ok((candidates, influencers))
            }
        }
    }

    // ------------------------------------------------------------------
    // Refinement (Monte-Carlo sampling)
    // ------------------------------------------------------------------

    /// Samples possible worlds over the influence set and returns one
    /// [`WorldSet`] per influence object, in `influencers` (= sampler)
    /// order: per query timestamp, the bitset of worlds in which the object
    /// is a k-nearest neighbor there. Every query semantics reads its answer
    /// from these sets and nothing else.
    ///
    /// Worlds are drawn in blocks of [`WORLD_BLOCK_WIDTH`] = 64 into a
    /// structure-of-arrays [`WorldBlock`] over the query window
    /// `[query.start(), query.end()]`: each object's walk starts at the
    /// window (or its first observation) with a state drawn from the
    /// a-posteriori marginal there, then takes O(1) alias-table steps
    /// (`ust-markov`) to the window's end; for every `(object, timestamp)`
    /// the 64 worlds of a block sit in one contiguous row. Block `b` draws
    /// from its own generator, seeded with
    /// [`block_seed`]`(config.seed, b)`, so a capped or degraded run holds
    /// exactly the first worlds of the uncapped one. The NN evaluation
    /// accumulates one `u64` of hit bits per influence object per timestamp
    /// per block and lands it with a single [`WorldSet::or_word`]. The block
    /// width equals [`WORLD_CHECK_INTERVAL`], so the budget is probed once
    /// per block.
    ///
    /// The influence objects' models come from the TS phase over the query
    /// window (brackets, see [`ModelKey::bracket`]); the adaptation and
    /// sampling fields of `stats` are filled in as the phases finish.
    fn sample(
        &self,
        query: &Query,
        influencers: &[ObjectId],
        k: usize,
        gauge: &BudgetGauge,
        stats: &mut QueryStats,
    ) -> Result<Vec<WorldSet>, QueryError> {
        let window = query.start()..=query.end();
        let prepared = self.prepare_governed(influencers, &window, gauge)?;
        stats.adaptation_time = prepared.cold_time;
        stats.cache_hits = prepared.cache_hits;
        stats.cold_adaptations = prepared.cold_adaptations;
        let sampler = WorldSampler::from_models(prepared.models);
        let times = query.times();
        let space = self.db.state_space();

        let sampling_start = gauge.elapsed();
        let requested = self.config.num_samples;
        // A `max_worlds` cap truncates the run up front: blocks are seeded
        // by index and filled world-major, so the first `cap` worlds of the
        // capped run are bit-identical to the first `cap` worlds of an
        // uncapped one, and the estimate is unbiased — just coarser, which
        // the `degraded` flag reports.
        let mut degraded = false;
        let mut num_worlds = requested;
        if let Some(cap) = gauge.max_worlds() {
            if cap < num_worlds {
                num_worlds = cap;
                degraded = true;
            }
        }
        let mut worlds: Vec<WorldSet> =
            (0..sampler.len()).map(|_| WorldSet::new(times.len(), num_worlds)).collect();
        // Scratch: distances of the objects alive at the current timestamp,
        // as (distance², world position) pairs.
        let mut alive: Vec<(f64, usize)> = Vec::with_capacity(sampler.len());

        // One 64-world SoA block over the query window, refilled per
        // iteration; its width matches the budget-probe interval.
        const _: () = assert!(WORLD_BLOCK_WIDTH == WORLD_CHECK_INTERVAL);
        let mut block = WorldBlock::for_window(&sampler, window, WORLD_BLOCK_WIDTH);
        let mut world_generation_time = Duration::ZERO;
        // Per block and timestamp: one word of hits per influence object.
        let mut hit_words: Vec<u64> = vec![0; sampler.len()];
        let mut worlds_done = 0usize;
        while worlds_done < num_worlds {
            // Deadline breaches degrade: the worlds sampled so far are a
            // valid (smaller) Monte-Carlo run. Cancellation always errors.
            if worlds_done > 0 {
                match gauge.probe(QueryPhase::Sampling)? {
                    Verdict::Continue => {}
                    Verdict::Degrade => {
                        degraded = true;
                        break;
                    }
                }
            }
            let count = WORLD_BLOCK_WIDTH.min(num_worlds - worlds_done);
            // Block `b` is word `b` of every world set.
            let word_index = worlds_done / WORLD_BLOCK_WIDTH;
            let mut rng = StdRng::seed_from_u64(block_seed(self.config.seed, word_index));
            let fill_start = gauge.elapsed();
            block.fill(&mut rng, count);
            world_generation_time += gauge.elapsed().saturating_sub(fill_start);
            // Per-object world rows of the current timestamp, hoisted out of
            // the 64-world scan.
            let mut rows: Vec<Option<&[u32]>> = Vec::with_capacity(sampler.len());
            for (i, (&t, q)) in times.iter().zip(query.positions()).enumerate() {
                if k == 0 {
                    break;
                }
                hit_words.fill(0);
                rows.clear();
                rows.extend((0..sampler.len()).map(|j| block.states_at(j, t)));
                for w in 0..count {
                    alive.clear();
                    for (j, row) in rows.iter().enumerate() {
                        if let Some(row) = row {
                            alive.push((space.position(row[w]).dist2(q), j));
                        }
                    }
                    if alive.is_empty() {
                        continue;
                    }
                    // NN membership cutoff: the k-th smallest distance; every
                    // object at or below it is in the kNN set (boundary ties
                    // included), matching the tie semantics of
                    // `ust_trajectory::nn`.
                    let cutoff = if k == 1 {
                        alive.iter().map(|&(d, _)| d).fold(f64::INFINITY, f64::min)
                    } else {
                        let nth = (k - 1).min(alive.len() - 1);
                        alive.select_nth_unstable_by(nth, |a, b| a.0.total_cmp(&b.0));
                        alive[nth].0
                    };
                    let bit = 1u64 << w;
                    for &(d, j) in &alive {
                        if d <= cutoff {
                            hit_words[j] |= bit;
                        }
                    }
                }
                for (set, &bits) in worlds.iter_mut().zip(&hit_words) {
                    if bits != 0 {
                        set.or_word(i, word_index, bits);
                    }
                }
            }
            worlds_done += count;
        }
        stats.sampling_time = gauge.elapsed().saturating_sub(sampling_start);
        stats.world_generation_time = world_generation_time;
        stats.worlds = worlds_done;
        stats.worlds_requested = requested;
        stats.degraded = degraded;
        if worlds_done < num_worlds {
            // Shrink every world set to the worlds actually sampled, so
            // supports and probability denominators agree.
            for set in &mut worlds {
                set.truncate_worlds(worlds_done);
            }
        }
        Ok(worlds)
    }

    // ------------------------------------------------------------------
    // Query semantics
    // ------------------------------------------------------------------

    /// The steps every query semantics opens with, run once under
    /// [`EngineConfig::budget`]: validate `tau`, start the gauge, run the
    /// filter, then adapt and sample one world set per influence object. A
    /// budget error from these phases carries the filter's counts and time
    /// in its partial stats.
    fn evaluate(&self, query: &Query, k: usize, tau: f64) -> Result<Evaluation, QueryError> {
        Query::validate_threshold(tau)?;
        let gauge = self.config.budget.start();
        let (candidates, influencers) = self.filter_knn_governed(query, k, &gauge)?;
        let mut stats = QueryStats {
            candidates: candidates.len(),
            influencers: influencers.len(),
            filter_time: gauge.elapsed(),
            ..Default::default()
        };
        match self.sample(query, &influencers, k, &gauge, &mut stats) {
            Ok(worlds) => {
                let worlds = influencers.into_iter().zip(worlds).collect();
                Ok(Evaluation { gauge, stats, candidates, worlds })
            }
            Err(error) => Err(enrich_partial(error, &stats)),
        }
    }

    /// P∀NNQ (Definition 2): objects that are the nearest neighbor of `q` at
    /// every timestamp of `T` with probability at least `tau`.
    pub fn pforall_nn(&self, query: &Query, tau: f64) -> Result<QueryOutcome, QueryError> {
        self.pforall_knn(query, 1, tau)
    }

    /// P∃NNQ (Definition 1): objects that are the nearest neighbor of `q` at
    /// some timestamp of `T` with probability at least `tau`.
    pub fn pexists_nn(&self, query: &Query, tau: f64) -> Result<QueryOutcome, QueryError> {
        self.pexists_knn(query, 1, tau)
    }

    /// P∀kNNQ (Section 8): objects that belong to the k-NN set of `q` at every
    /// timestamp of `T` with probability at least `tau`.
    ///
    /// Only the ∀-candidates `C∀(q)` are read: an influence object the filter
    /// rules out at some timestamp cannot be a kNN there.
    pub fn pforall_knn(
        &self,
        query: &Query,
        k: usize,
        tau: f64,
    ) -> Result<QueryOutcome, QueryError> {
        let run = self.evaluate(query, k, tau)?;
        // The ∀ event is one AND-reduction over the candidate's world-set
        // columns — no per-world mask is ever materialised.
        let hits = run
            .worlds
            .iter()
            .filter(|(o, _)| run.candidates.binary_search(o).is_ok())
            .map(|(o, w)| (*o, w.forall_support()));
        Ok(run.answer(hits, tau))
    }

    /// P∃kNNQ (Section 8): objects that belong to the k-NN set of `q` at some
    /// timestamp of `T` with probability at least `tau`.
    pub fn pexists_knn(
        &self,
        query: &Query,
        k: usize,
        tau: f64,
    ) -> Result<QueryOutcome, QueryError> {
        let run = self.evaluate(query, k, tau)?;
        // The ∃ event is one OR-reduction over the world-set columns.
        let hits = run.worlds.iter().map(|(o, w)| (*o, w.exists_support()));
        Ok(run.answer(hits, tau))
    }

    /// PCNNQ (Definition 3, Algorithm 1): per object, the timestamp subsets of
    /// `T` on which it is a ∀-nearest-neighbor with probability at least `tau`.
    pub fn pcnn(&self, query: &Query, tau: f64) -> Result<PcnnOutcome, QueryError> {
        self.pcknn(query, 1, tau)
    }

    /// PCkNNQ (Section 8): the continuous query under k-NN semantics.
    ///
    /// Definition 3 admits every object with a qualifying timestamp subset,
    /// not only the ∀-candidates: an object pruned or absent at some
    /// `t ∉ T_i` can still be the NN on all of `T_i`. So every influence
    /// object's lattice is mined; at a timestamp where the object is pruned
    /// or absent its support is 0, and the lattice's first level drops it.
    /// `stats.candidates` still counts `C∀(q)`.
    ///
    /// Each object's lattice is mined vertically ([`vertical_timesets`])
    /// and the per-object runs are fanned out across
    /// [`pcnn_threads`](EngineConfig::pcnn_threads) scoped workers. Each
    /// worker maps its object's set indices to timestamps in place, so
    /// `stats.mining_time` covers the whole answer. Results are merged back
    /// in ascending object order, so the outcome is byte-identical at every
    /// thread count. A deadline breach during mining
    /// degrades — the lattice stops expanding and the sets validated so far
    /// (an exact under-approximation of the full answer) are returned with
    /// `stats.degraded` set; cancellation is always a typed error.
    pub fn pcknn(&self, query: &Query, k: usize, tau: f64) -> Result<PcnnOutcome, QueryError> {
        let run = self.evaluate(query, k, tau)?;
        let cfg = if self.config.maximal_pcnn_sets {
            PcnnConfig::maximal(tau)
        } else {
            PcnnConfig::new(tau)
        };
        let times = query.times();
        let mine_start = run.gauge.elapsed();
        let lattices: Vec<Result<PcnnResult, QueryError>> =
            parallel_map_ordered(&run.worlds, self.config.pcnn_threads, |(_, worlds)| {
                let mut lattice = vertical_timesets(worlds, &cfg, Some(&run.gauge))?;
                lattice.sets.map_timestamps(|i| times[i as usize]);
                Ok(lattice)
            });
        let mining_time = run.gauge.elapsed().saturating_sub(mine_start);
        let mut candidate_sets_evaluated = 0usize;
        let mut max_level = 0usize;
        let mut frontier_peak = 0usize;
        let mut mining_degraded = false;
        let mut results: Vec<PcnnObjectResult> = Vec::new();
        for ((object, _), lattice) in run.worlds.iter().zip(lattices) {
            let lattice = lattice.map_err(|e| enrich_partial(e, &run.stats))?;
            candidate_sets_evaluated += lattice.candidate_sets_evaluated;
            max_level = max_level.max(lattice.max_level);
            frontier_peak = frontier_peak.max(lattice.frontier_peak);
            mining_degraded |= lattice.degraded;
            if lattice.sets.is_empty() {
                continue;
            }
            results.push(PcnnObjectResult {
                object: *object,
                sets: lattice.sets,
                candidate_sets_evaluated: lattice.candidate_sets_evaluated,
            });
        }
        let mut stats = run.stats_now();
        stats.max_level = max_level;
        stats.frontier_peak = frontier_peak;
        stats.mining_time = mining_time;
        stats.degraded |= mining_degraded;
        Ok(PcnnOutcome { results, stats, candidate_sets_evaluated })
    }
}

/// Fills the engine-level fields of the partial stats a budget error carries:
/// the gauge only knows its checkpoint count, while the filter's counts and
/// time (the same fields of `filtered`) live up here.
fn enrich_partial(mut error: QueryError, filtered: &QueryStats) -> QueryError {
    if let Some(stats) = error.partial_stats_mut() {
        stats.candidates = filtered.candidates;
        stats.influencers = filtered.influencers;
        stats.filter_time = filtered.filter_time;
    }
    error
}

/// One evaluation after its shared opening steps: the live gauge, the
/// filter and sampling stats, and the sampled worlds every semantics reads
/// its answer from.
struct Evaluation {
    gauge: BudgetGauge,
    /// Every [`QueryStats`] field the filter and sampling phases own;
    /// `budget_checkpoints` is read from the gauge by
    /// [`stats_now`](Self::stats_now).
    stats: QueryStats,
    /// The ∀-candidates `C∀(q)`, ascending: the only objects P∀kNN reports.
    candidates: Vec<ObjectId>,
    /// One world set per influence object, by ascending object id.
    worlds: Vec<(ObjectId, WorldSet)>,
}

impl Evaluation {
    /// The stats so far, with every checkpoint polled up to now counted.
    fn stats_now(&self) -> QueryStats {
        QueryStats { budget_checkpoints: self.gauge.checkpoints() as usize, ..self.stats.clone() }
    }

    /// The answer of a probability semantics from its per-object world hit
    /// counts: every object whose estimate is non-zero and at least `tau`,
    /// by descending probability, then ascending id.
    fn answer(&self, hits: impl Iterator<Item = (ObjectId, usize)>, tau: f64) -> QueryOutcome {
        let worlds = self.stats.worlds.max(1) as f64;
        let mut results: Vec<ObjectProbability> = hits
            .map(|(object, hits)| ObjectProbability { object, probability: hits as f64 / worlds })
            .filter(|r| r.probability >= tau && r.probability > 0.0)
            .collect();
        results.sort_by(|a, b| {
            b.probability.total_cmp(&a.probability).then_with(|| a.object.cmp(&b.object))
        });
        QueryOutcome { results, stats: self.stats_now() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::{Point, StateSpace};
    use ust_trajectory::UncertainObject;

    /// The example of Figure 1: states s1..s4 at increasing distance from the
    /// query q, objects o1 (three possible trajectories) and o2 (two possible
    /// trajectories) over T = {1, 2, 3}.
    fn figure1_db() -> TrajectoryDatabase {
        // Distances from q: s1 < s2 < s3 < s4. Place them on a line with q at x=0.
        let space = StdArc::new(StateSpace::from_points(vec![
            Point::new(1.0, 0.0), // s1
            Point::new(2.0, 0.0), // s2
            Point::new(3.0, 0.0), // s3
            Point::new(4.0, 0.0), // s4
        ]));
        // o1: starts at s2 (t=1); s2 -> {s1, s3} each 0.5; s1 absorbing; s3 -> {s1, s3}.
        let o1_model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]));
        // o2: starts at s3 (t=1); s3 -> {s2, s4} each 0.5; s2 -> s2; s4 -> s4.
        let o2_model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(1, 0.5), (3, 0.5)],
            vec![(3, 1.0)],
        ]));
        let objects = vec![
            UncertainObject::from_pairs(1, vec![(1, 1)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(1, 2)]).unwrap(),
        ];
        let mut db = TrajectoryDatabase::with_objects(
            space,
            StdArc::new(o1_model),
            objects,
        );
        db.set_object_model(2, StdArc::new(o2_model));
        db
    }

    fn query() -> Query {
        Query::at_point(Point::new(0.0, 0.0), vec![1, 2, 3]).unwrap()
    }

    /// With a single observation at t=1 the adapted model equals the a-priori
    /// forward propagation only over [1,1]; to make the Figure 1 example work
    /// over T={1,2,3} the observations must cover the interval. We therefore
    /// additionally pin the final states in a way that preserves the paper's
    /// possible worlds: o1 is left unpinned (single observation covers only
    /// t=1), so for the full Figure 1 semantics we instead use the exact
    /// engine in `exact.rs` tests. Here we verify engine-level behaviour on a
    /// database where coverage spans the query interval.
    fn covered_db() -> TrajectoryDatabase {
        let space = StdArc::new(StateSpace::from_points(vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(4.0, 0.0),
        ]));
        let model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]));
        let objects = vec![
            // o1 starts at s2, ends (pinned) at s1.
            UncertainObject::from_pairs(1, vec![(1, 1), (3, 0)]).unwrap(),
            // o2 sits at s4 the whole time: never the NN.
            UncertainObject::from_pairs(2, vec![(1, 3), (3, 3)]).unwrap(),
        ];
        TrajectoryDatabase::with_objects(space, StdArc::new(model), objects)
    }

    #[test]
    fn forall_and_exists_on_a_dominant_object() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig { num_samples: 2_000, ..Default::default() });
        let q = query();
        let forall = engine.pforall_nn(&q, 0.0).unwrap();
        assert_eq!(forall.results.len(), 1);
        assert_eq!(forall.results[0].object, 1);
        assert!((forall.results[0].probability - 1.0).abs() < 1e-9);
        let exists = engine.pexists_nn(&q, 0.0).unwrap();
        assert!(exists.contains(1));
        assert!(!exists.contains(2), "object 2 is never the nearest neighbor");
        assert_eq!(forall.stats.worlds, 2_000);
        assert!(forall.stats.candidates >= 1);
        assert!(forall.stats.influencers >= forall.stats.candidates);
    }

    #[test]
    fn figure1_database_builds_and_filters() {
        let db = figure1_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(100));
        // Query restricted to t=1 (both objects observed there).
        let q = Query::at_point(Point::new(0.0, 0.0), vec![1]).unwrap();
        let outcome = engine.pforall_nn(&q, 0.0).unwrap();
        // At t=1, o1 is at s2 (dist 2) and o2 at s3 (dist 3): o1 is certainly the NN.
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(outcome.results[0].object, 1);
        assert!((outcome.results[0].probability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_filters_results() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(500));
        let q = query();
        let exists = engine.pexists_nn(&q, 0.9).unwrap();
        assert!(exists.contains(1));
        let exists_strict = engine.pexists_nn(&q, 1.1);
        assert!(exists_strict.is_err(), "invalid threshold must be rejected");
    }

    #[test]
    fn knn_with_k2_admits_both_objects() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(500));
        let q = query();
        let forall_k2 = engine.pforall_knn(&q, 2, 0.5).unwrap();
        assert!(forall_k2.contains(1));
        assert!(forall_k2.contains(2), "with k=2 both objects are always in the kNN set");
        let forall_k1 = engine.pforall_knn(&q, 1, 0.5).unwrap();
        assert!(!forall_k1.contains(2));
    }

    #[test]
    fn pcnn_returns_full_interval_for_dominant_object() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(500));
        let q = query();
        let outcome = engine.pcnn(&q, 0.5).unwrap();
        let sets = outcome.sets_of(1).expect("object 1 qualifies");
        assert!(sets.iter().any(|(ts, p)| ts == [1, 2, 3] && *p > 0.99));
        assert!(outcome.sets_of(2).is_none());
        assert!(outcome.candidate_sets_evaluated >= 3);
        assert!(outcome.total_result_sets() >= 7, "all subsets of {{1,2,3}} qualify");
    }

    #[test]
    fn pcnn_reports_an_object_that_is_alive_on_part_of_the_query_window() {
        // T = {1, 2, 3, 4}. Object 1 stands on s1, the state nearest q, at
        // t = 1 and 2 and is gone after; object 2 stands on s4 throughout.
        // Object 1 is no ∀-candidate, yet it is the certain NN on {1, 2}.
        let space = StdArc::new(StateSpace::from_points(
            (1..=4).map(|x| Point::new(f64::from(x), 0.0)).collect(),
        ));
        let objects = vec![
            UncertainObject::from_pairs(1, vec![(1, 0), (2, 0)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(1, 3), (4, 3)]).unwrap(),
        ];
        let model = StdArc::new(MarkovModel::homogeneous(CsrMatrix::identity(4)));
        let db = TrajectoryDatabase::with_objects(space, model, objects);
        let q = Query::at_point(Point::new(0.0, 0.0), vec![1, 2, 3, 4]).unwrap();
        for use_index in [true, false] {
            let engine = QueryEngine::new(
                &db,
                EngineConfig { num_samples: 200, use_index, ..Default::default() },
            );
            let outcome = engine.pcnn(&q, 0.5).unwrap();
            let first = outcome.sets_of(1).expect("object 1 is the NN on {1, 2}");
            assert!(
                first.iter().any(|(ts, &p)| ts == [1, 2] && p == 1.0),
                "index {use_index}: {first:?}"
            );
            assert!(first.iter().all(|(ts, _)| ts.iter().all(|&t| t <= 2)));
            let second = outcome.sets_of(2).expect("object 2 is the NN on {3, 4}");
            assert!(
                second.iter().any(|(ts, &p)| ts == [3, 4] && p == 1.0),
                "index {use_index}: {second:?}"
            );
            // Without the index object 2 covers T and counts as a
            // candidate; the index prunes it at t = 1 and 2.
            assert_eq!(outcome.stats.candidates, usize::from(!use_index));
        }
    }

    #[test]
    fn maximal_pcnn_reports_only_the_largest_sets() {
        let db = covered_db();
        let engine = QueryEngine::new(
            &db,
            EngineConfig { num_samples: 500, maximal_pcnn_sets: true, ..Default::default() },
        );
        let q = query();
        let outcome = engine.pcnn(&q, 0.5).unwrap();
        let sets = outcome.sets_of(1).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets.iter().next().map(|(ts, _)| ts), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn engine_without_index_gives_same_probabilities() {
        let db = covered_db();
        let q = query();
        let with_index = QueryEngine::new(&db, EngineConfig::with_samples(1_000));
        let without_index = QueryEngine::new(
            &db,
            EngineConfig { num_samples: 1_000, use_index: false, ..Default::default() },
        );
        let a = with_index.pforall_nn(&q, 0.0).unwrap();
        let b = without_index.pforall_nn(&q, 0.0).unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for r in &a.results {
            assert!((r.probability - b.probability_of(r.object)).abs() < 0.05);
        }
        assert!(without_index.index().is_none());
        assert!(with_index.index().is_some());
    }

    #[test]
    fn a_time_varying_model_is_indexed_by_its_own_steps() {
        // Four states on a line; everything shifts right at t = 0 and stands
        // still from t = 1 on. Object 7 goes s0 → s1 and stays, so at
        // q = (1, 0) it is certainly the nearest neighbour at t = 1 and 2. A
        // diamond built from step 0's matrix alone would find s1 unreachable
        // in two steps and drop the object from the filter.
        let space = StdArc::new(StateSpace::from_points(
            (0..4).map(|x| Point::new(f64::from(x), 0.0)).collect(),
        ));
        let shift = CsrMatrix::from_rows(vec![
            vec![(1, 1.0)],
            vec![(2, 1.0)],
            vec![(3, 1.0)],
            vec![(3, 1.0)],
        ]);
        let model = MarkovModel::time_varying(vec![shift, CsrMatrix::identity(4)]);
        let object = UncertainObject::from_pairs(7, vec![(0, 0), (2, 1)]).unwrap();
        let db = TrajectoryDatabase::with_objects(space, StdArc::new(model), vec![object]);
        let q = Query::at_point(Point::new(1.0, 0.0), vec![1, 2]).unwrap();
        let answer = |use_index| {
            let config = EngineConfig { num_samples: 100, use_index, ..Default::default() };
            let engine = QueryEngine::new(&db, config);
            (engine.pforall_nn(&q, 0.5).unwrap(), engine.index().map(UstTree::num_diamonds))
        };
        let (scanned, _) = answer(false);
        let (indexed, diamonds) = answer(true);
        assert_eq!(scanned.results.len(), 1);
        assert_eq!((scanned.results[0].object, scanned.results[0].probability), (7, 1.0));
        assert_eq!(indexed.results, scanned.results);
        assert_eq!(diamonds, Some(1));
    }

    #[test]
    fn model_cache_is_reused_across_queries() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(100));
        assert_eq!(engine.cached_models(), 0);
        let q = query();
        engine.pforall_nn(&q, 0.0).unwrap();
        let cached = engine.cached_models();
        assert!(cached >= 1);
        engine.pexists_nn(&q, 0.0).unwrap();
        assert_eq!(engine.cached_models(), cached, "second query reuses the cache");
        engine.clear_model_cache();
        assert_eq!(engine.cached_models(), 0);
        let outcome = engine.prepare_all().unwrap();
        assert!(outcome.cold_time >= Duration::ZERO);
        assert_eq!(outcome.cold_adaptations, db.len());
        assert_eq!(outcome.cache_hits, 0);
        assert_eq!(engine.cached_models(), db.len());
        let warm = engine.prepare_all().unwrap();
        assert_eq!(warm.cold_adaptations, 0);
        assert_eq!(warm.cache_hits, db.len());
        assert_eq!(warm.cold_time, Duration::ZERO, "warm lookups are not TS work");
    }

    #[test]
    fn one_index_build_serves_many_engines() {
        let db = covered_db();
        let first = QueryEngine::new(&db, EngineConfig::with_samples(300));
        let shared = first.shared_index().expect("filter step enabled by default");
        let second = QueryEngine::with_index(&db, shared, EngineConfig::with_samples(300));
        assert!(
            std::ptr::eq(first.index().unwrap(), second.index().unwrap()),
            "the second engine must serve queries from the same build, not a clone"
        );
        let q = query();
        let a = first.pforall_nn(&q, 0.0).unwrap();
        let b = second.pforall_nn(&q, 0.0).unwrap();
        assert_eq!(a.results, b.results);
        let stats = first.index_build_stats().expect("index stats available");
        assert!(stats.diamonds >= 1);
        assert!(stats.build_threads >= 1);
        let no_index = QueryEngine::new(
            &db,
            EngineConfig { use_index: false, num_samples: 10, ..Default::default() },
        );
        assert!(no_index.shared_index().is_none());
        assert!(no_index.index_build_stats().is_none());
    }

    #[test]
    fn index_build_thread_count_does_not_change_results() {
        let db = covered_db();
        let q = query();
        let serial = QueryEngine::new(
            &db,
            EngineConfig { num_samples: 400, index_build_threads: 1, ..Default::default() },
        );
        let sharded = QueryEngine::new(
            &db,
            EngineConfig { num_samples: 400, index_build_threads: 4, ..Default::default() },
        );
        assert_eq!(
            serial.pforall_nn(&q, 0.0).unwrap().results,
            sharded.pforall_nn(&q, 0.0).unwrap().results,
            "build thread count must not change query results"
        );
    }

    #[test]
    fn unknown_object_id_is_reported_as_such() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(100));
        let err = engine.adapted_model(99).unwrap_err();
        assert_eq!(err, QueryError::UnknownObject { object: 99 });
        assert!(err.to_string().contains("no object with id 99"));
    }

    #[test]
    fn warm_queries_report_hits_and_zero_adaptation_time() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(200));
        let q = query();
        let first = engine.pforall_nn(&q, 0.0).unwrap();
        assert_eq!(first.stats.cold_adaptations, first.stats.influencers);
        assert_eq!(first.stats.cache_hits, 0);
        let second = engine.pforall_nn(&q, 0.0).unwrap();
        assert_eq!(second.stats.cold_adaptations, 0);
        assert_eq!(second.stats.cache_hits, second.stats.influencers);
        assert_eq!(
            second.stats.adaptation_time,
            Duration::ZERO,
            "warm cache lookups must not count as TS time"
        );
    }

    #[test]
    fn serial_and_parallel_adaptation_agree() {
        let db = covered_db();
        let q = query();
        let serial = QueryEngine::new(
            &db,
            EngineConfig { num_samples: 500, adaptation_threads: 1, ..Default::default() },
        );
        let parallel = QueryEngine::new(
            &db,
            EngineConfig { num_samples: 500, adaptation_threads: 4, ..Default::default() },
        );
        let a = serial.pforall_nn(&q, 0.0).unwrap();
        let b = parallel.pforall_nn(&q, 0.0).unwrap();
        assert_eq!(a.results, b.results, "thread count must not change query results");
    }

    #[test]
    fn queries_outside_any_objects_lifetime_return_nothing() {
        let db = covered_db();
        let engine = QueryEngine::new(&db, EngineConfig::with_samples(100));
        let q = Query::at_point(Point::new(0.0, 0.0), vec![50, 51]).unwrap();
        let outcome = engine.pforall_nn(&q, 0.0).unwrap();
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.candidates, 0);
        assert_eq!(outcome.stats.influencers, 0);
    }
}
