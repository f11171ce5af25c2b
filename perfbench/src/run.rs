//! The closed-loop client: one process, one client, the next op issued when
//! the previous one returns. The same loop serves the untraced pass and the
//! traced pass; with a [`TraceState`] it also records spans around each
//! layer call and replays made only to time a layer.

use crate::inputs::{Inputs, Kind, Op, QuerySpec, PRELOGGED_BATCHES, WORLDS};
use crate::stats::clock;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use ust_bench::efficiency::{fnv_fold, FNV_OFFSET};
use ust_core::engine::AdaptedModels;
use ust_core::{
    EngineConfig, EngineStore, PcnnOutcome, Query, QueryEngine, QueryError, QueryOutcome,
    QueryStats,
};
use ust_index::IndexBuildStats;
use ust_persist::WalAppendStats;
use ust_sampling::{WorldBlock, WorldSampler, WORLD_BLOCK_WIDTH};
use ust_trajectory::ObjectId;

/// The answer to one query op, reduced to what the gate checks. PCNN
/// results can hold thousands of timestamp sets, so only their digest is
/// kept: retaining them would grow the measured process's resident set.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Phase statistics the engine reported.
    pub stats: QueryStats,
    /// `(object, probability)` of P∃NN / P∀NN / P∀kNN results.
    pub probs: Vec<(ObjectId, f64)>,
    /// A reported probability outside [0, 1], if any.
    pub out_of_range: Option<f64>,
    /// Candidate timestamp sets the PCNN lattice validated.
    pub sets_evaluated: usize,
    /// FNV-1a over the filter counts, the worlds and every result bit.
    pub digest: u64,
}

/// An engine answer before [`Raw::reduce`].
#[derive(Debug)]
pub enum Raw {
    /// P∃NN / P∀NN / P∀kNN.
    Probs(QueryOutcome),
    /// PCkNN.
    Sets(PcnnOutcome),
}

impl Raw {
    /// Reduces the answer to its digest and the values the gate checks.
    pub fn reduce(self) -> Answer {
        let (stats, probs, sets, sets_evaluated) = match self {
            Raw::Probs(out) => {
                let probs = out
                    .results
                    .iter()
                    .map(|r| (r.object, r.probability))
                    .collect();
                (out.stats, probs, Vec::new(), 0)
            }
            Raw::Sets(out) => (
                out.stats,
                Vec::new(),
                out.results,
                out.candidate_sets_evaluated,
            ),
        };
        let mut d = FNV_OFFSET;
        for word in [stats.candidates, stats.influencers, stats.worlds] {
            d = fnv_fold(d, word as u64);
        }
        let mut out_of_range = None;
        let mut fold_p = |d: u64, p: f64| {
            if !(0.0..=1.0).contains(&p) {
                out_of_range = Some(p);
            }
            fnv_fold(d, p.to_bits())
        };
        for &(object, p) in &probs {
            d = fold_p(fnv_fold(d, u64::from(object)), p);
        }
        for r in &sets {
            d = fnv_fold(d, u64::from(r.object));
            for (times, p) in &r.sets {
                d = fnv_fold(d, times.len() as u64);
                for &t in times {
                    d = fnv_fold(d, u64::from(t));
                }
                d = fold_p(d, *p);
            }
        }
        Answer {
            stats,
            probs,
            out_of_range,
            sets_evaluated,
            digest: d,
        }
    }
}

/// What one op produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A query answer.
    Query(Answer),
    /// A durable append.
    Appended,
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The op.
    pub op: Op,
    /// Wall time from issue to return.
    pub latency: Duration,
    /// Its result; an error is a failed op.
    pub outcome: Result<Outcome, String>,
}

impl OpRecord {
    /// The answer of a successful query op.
    pub fn answer(&self) -> Option<&Answer> {
        match &self.outcome {
            Ok(Outcome::Query(a)) => Some(a),
            _ => None,
        }
    }
}

/// When a pass stops replaying its plan: once `after` has passed and at
/// least `min_ops` ops ran (at an epoch boundary in `append_query`), or when
/// the plan runs out.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Run time the pass lasts at least.
    pub after: Duration,
    /// Ops the pass makes at least.
    pub min_ops: usize,
}

impl Stop {
    fn reached(self, start: Instant, ops: usize) -> bool {
        ops >= self.min_ops && start.elapsed() >= self.after
    }
}

/// The records of one pass over an op sequence.
#[derive(Debug)]
pub struct Pass {
    /// One record per op, in op order.
    pub records: Vec<OpRecord>,
    /// Wall time of the whole loop.
    pub wall: Duration,
}

/// Answers `kind` on `query`.
pub fn answer(engine: &QueryEngine, query: &Query, kind: Kind) -> Result<Raw, QueryError> {
    let (k, tau) = (kind.k(), kind.tau());
    Ok(match kind {
        Kind::Exists => Raw::Probs(engine.pexists_knn(query, k, tau)?),
        Kind::Forall | Kind::ForallK2 => Raw::Probs(engine.pforall_knn(query, k, tau)?),
        Kind::PcnnK2 => Raw::Sets(engine.pcknn(query, k, tau)?),
        Kind::Append => unreachable!("appends are not queries"),
    })
}

/// Per query op of the traced pass: the counts recorded at the layer
/// boundaries, and the replays made outside the op span.
#[derive(Debug, Clone, Default)]
pub struct QueryLayers {
    /// Op kind.
    pub kind: Option<Kind>,
    /// `|C(q)|` and `|I(q)|` from `QueryEngine::filter_knn`.
    pub candidates: usize,
    /// Influence objects.
    pub influencers: usize,
    /// Objects whose observations overlap the query interval.
    pub overlapping: usize,
    /// `PrepareOutcome::cold_time`.
    pub cold_time: Duration,
    /// Models adapted by `prepare_objects`.
    pub cold_adaptations: usize,
    /// Models `prepare_objects` found cached.
    pub cache_hits: usize,
    /// The evaluate call's `QueryStats`.
    pub stats: QueryStats,
    /// PCNN candidate sets validated.
    pub sets_evaluated: usize,
    /// Replayed `UstTree::for_each_overlapping` over the query interval.
    pub probe: Duration,
    /// Diamonds that probe streamed.
    pub diamonds_streamed: usize,
    /// Replayed `WorldBlock::fill` of all the op's worlds.
    pub fill: Duration,
    /// Blocks that replay filled.
    pub fill_blocks: usize,
}

/// One `EngineStore::engine` call of the traced pass.
#[derive(Debug, Clone)]
pub struct MintSample {
    /// Whether the store had no index, so the mint built one.
    pub rebuilt: bool,
    /// Build statistics of the minted engine's index.
    pub build: Option<IndexBuildStats>,
    /// Diamonds in the minted engine's index.
    pub diamonds: usize,
}

/// Span recorder plus layer counts of the traced pass.
#[derive(Debug, Default)]
pub struct TraceState {
    /// The spans.
    pub tracer: Tracer,
    /// One entry per query op.
    pub queries: Vec<QueryLayers>,
    /// One entry per mint.
    pub mints: Vec<MintSample>,
    /// Stats of every append.
    pub appends: Vec<WalAppendStats>,
}

impl TraceState {
    /// The traced mint: a `store.mint` span under `parent`.
    pub fn mint<'s>(
        &mut self,
        store: &'s EngineStore,
        config: EngineConfig,
        op: usize,
        parent: usize,
    ) -> QueryEngine<'s> {
        let rebuilt = store.index().is_none();
        let span = self.tracer.begin("store.mint", op, Some(parent));
        let engine = store.engine(config);
        self.tracer.end(span);
        self.mints.push(MintSample {
            rebuilt,
            build: engine.index_build_stats().copied(),
            diamonds: engine.index().map_or(0, |t| t.num_diamonds()),
        });
        engine
    }

    /// The traced query: the filter, the model preparation and the
    /// evaluation, each in its own span under `root`.
    fn query(
        &mut self,
        engine: &QueryEngine,
        query: &Query,
        kind: Kind,
        op: usize,
        root: usize,
    ) -> (Result<Raw, QueryError>, Option<AdaptedModels>) {
        let mut layers = QueryLayers {
            kind: Some(kind),
            ..QueryLayers::default()
        };
        let result = (|| {
            let (candidates, influencers) = self.tracer.span("index.prune", op, root, || {
                engine.filter_knn(query, kind.k())
            })?;
            layers.candidates = candidates.len();
            layers.influencers = influencers.len();
            let prepared = self
                .tracer
                .span("prepare", op, root, || engine.prepare_objects(&influencers))?;
            layers.cold_time = prepared.cold_time;
            layers.cold_adaptations = prepared.cold_adaptations;
            layers.cache_hits = prepared.cache_hits;
            let raw = self
                .tracer
                .span("engine.evaluate", op, root, || answer(engine, query, kind))?;
            Ok((raw, prepared.models))
        })();
        self.queries.push(layers);
        match result {
            Ok((raw, models)) => (Ok(raw), Some(models)),
            Err(e) => (Err(e), None),
        }
    }

    /// Completes the op's layer record outside every op span: the evaluate
    /// call's statistics, and replays made only to time a layer — the
    /// spatial probe over the query interval and the world-block fills of
    /// the op's models, seeded like the engine.
    fn replay(
        &mut self,
        engine: &QueryEngine,
        query: &Query,
        models: AdaptedModels,
        answer: &Answer,
    ) {
        let layers = self
            .queries
            .last_mut()
            .expect("replay follows a traced query");
        layers.stats = answer.stats.clone();
        layers.sets_evaluated = answer.sets_evaluated;
        layers.overlapping = engine
            .database()
            .objects_overlapping(query.start(), query.end())
            .len();
        if let Some(tree) = engine.index() {
            let t = clock();
            let mut streamed = 0usize;
            tree.for_each_overlapping(query.start(), query.end(), |_| streamed += 1);
            layers.probe = t.elapsed();
            layers.diamonds_streamed = streamed;
        }
        let sampler = WorldSampler::from_models(models);
        let mut block = WorldBlock::for_sampler(&sampler, query.end(), WORLD_BLOCK_WIDTH);
        let mut rng = StdRng::seed_from_u64(engine.config().seed);
        let t = clock();
        for _ in 0..WORLDS / WORLD_BLOCK_WIDTH {
            block.fill(&mut rng, WORLD_BLOCK_WIDTH);
        }
        layers.fill = t.elapsed();
        layers.fill_blocks = WORLDS / WORLD_BLOCK_WIDTH;
        std::hint::black_box(&block);
    }
}

/// The timing of one op: its start, and its root span when traced.
struct OpTimer {
    start: Instant,
    root: Option<usize>,
}

fn open(trace: &mut Option<&mut TraceState>, kind: Kind, op: usize) -> OpTimer {
    let root = trace
        .as_deref_mut()
        .map(|ts| ts.tracer.begin(kind.span_name(), op, None));
    OpTimer {
        start: clock(),
        root,
    }
}

fn close(trace: &mut Option<&mut TraceState>, timer: OpTimer) -> Duration {
    let latency = timer.start.elapsed();
    if let (Some(ts), Some(root)) = (trace.as_deref_mut(), timer.root) {
        ts.tracer.end(root);
    }
    latency
}

/// One query op: untraced, a single engine call; traced, the layer calls of
/// [`TraceState::query`] followed (outside the op span) by the replays.
fn query_op(
    engine: &QueryEngine,
    spec: &QuerySpec,
    op: Op,
    id: usize,
    timer: OpTimer,
    trace: &mut Option<&mut TraceState>,
) -> OpRecord {
    let query = spec.query(op.kind);
    let (result, models) = match (trace.as_deref_mut(), timer.root) {
        (Some(ts), Some(root)) => ts.query(engine, &query, op.kind, id, root),
        _ => (answer(engine, &query, op.kind), None),
    };
    let latency = close(trace, timer);
    let result = result.map(Raw::reduce);
    if let (Some(ts), Some(models), Ok(answer)) = (trace.as_deref_mut(), models, &result) {
        ts.replay(engine, &query, models, answer);
    }
    OpRecord {
        op,
        latency,
        outcome: result.map(Outcome::Query).map_err(|e| e.to_string()),
    }
}

/// Runs the query-cycle ops of `warm_query` / `cold_query` on one engine.
/// With `cold`, the model cache is cleared before each op, outside its
/// timing.
pub fn run_queries(
    engine: &QueryEngine,
    inputs: &Inputs,
    plan: &[Op],
    cold: bool,
    stop: Stop,
    mut trace: Option<&mut TraceState>,
) -> Pass {
    let mut records = Vec::new();
    let start = clock();
    for (i, &op) in plan.iter().enumerate() {
        if stop.reached(start, i) {
            break;
        }
        if cold {
            engine.clear_model_cache();
        }
        let timer = open(&mut trace, op.kind, i + 1);
        let spec = &inputs.queries[op.index];
        records.push(query_op(engine, spec, op, i + 1, timer, &mut trace));
    }
    Pass {
        records,
        wall: start.elapsed(),
    }
}

/// Runs `append_query`: per epoch, one durable append, then the query
/// cycle on a freshly minted engine. The mint is charged to the epoch's
/// first query. When a round of held-back batches is used up, `restore`
/// replaces the store with a fresh copy; the restore is set-up, not part of
/// any op or of the pass's wall time.
pub fn run_append(
    store: &mut EngineStore,
    restore: &mut dyn FnMut() -> Result<EngineStore, String>,
    inputs: &Inputs,
    plan: &[Op],
    config: &EngineConfig,
    stop: Stop,
    mut trace: Option<&mut TraceState>,
) -> Result<Pass, String> {
    let mut records = Vec::new();
    let start = clock();
    let mut restoring = Duration::ZERO;
    for (e, epoch) in plan.chunks(crate::inputs::CYCLE.len() + 1).enumerate() {
        if stop.reached(start, records.len()) {
            break;
        }
        let base = e * epoch.len();
        let (append, queries) = epoch.split_first().expect("epochs are non-empty");
        if append.index == 0 && e > 0 {
            let t = clock();
            *store = restore()?;
            restoring += t.elapsed();
        }
        let batch = &inputs.batches[PRELOGGED_BATCHES + append.index];
        let timer = open(&mut trace, Kind::Append, base + 1);
        let appended = match (trace.as_deref_mut(), timer.root) {
            (Some(ts), Some(root)) => {
                let r = ts
                    .tracer
                    .span("store.append", base + 1, root, || store.append_batch(batch));
                if let Ok(stats) = &r {
                    ts.appends.push(*stats);
                }
                r
            }
            _ => store.append_batch(batch),
        };
        let latency = close(&mut trace, timer);
        records.push(OpRecord {
            op: *append,
            latency,
            outcome: appended
                .map(|_| Outcome::Appended)
                .map_err(|e| e.to_string()),
        });

        let store: &EngineStore = store;
        let mut engine = None;
        for (j, &op) in queries.iter().enumerate() {
            let id = base + j + 2;
            let timer = open(&mut trace, op.kind, id);
            let engine = engine.get_or_insert_with(|| match (trace.as_deref_mut(), timer.root) {
                (Some(ts), Some(root)) => ts.mint(store, config.clone(), id, root),
                _ => store.engine(config.clone()),
            });
            let spec = &inputs.queries[op.index];
            records.push(query_op(engine, spec, op, id, timer, &mut trace));
        }
    }
    Ok(Pass {
        records,
        wall: start.elapsed() - restoring,
    })
}
