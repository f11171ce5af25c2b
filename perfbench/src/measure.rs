//! The measured process: loads a seed's cached inputs, sets up, replays the
//! op sequence, runs the gate and prints the metrics.

use crate::gate;
use crate::inputs::{
    self, engine_config, Inputs, Kind, Op, Workload, PRELOGGED_BATCHES, STORE_FILE,
};
use crate::run::{answer, run_append, run_queries, Pass, QueryLayers, Raw, Stop, TraceState};
use crate::stats::{self, clock, mean, ms, ratio, Value};
use crate::trace::{self, Span};
use std::path::{Path, PathBuf};
use std::time::Duration;
use ust_core::{EngineConfig, EngineStore, QueryEngine, QueryStats};

/// Store loads (and, for the query workloads, engine mints) per untraced
/// run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// The query ops answered again with the opposite cache state (and, in
/// `append_query`, by an engine built from scratch): four of every kind.
const SAMPLE_OPS: usize = 16;

/// Query specs on which P∀NN ≤ P∃NN is checked after the loop.
const INVARIANT_SPECS: usize = 8;

/// Least share of op time, in percent, that the layer shares of a traced
/// run must account for.
const MIN_ACCOUNTED_PCT: f64 = 90.0;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Input and engine seed.
    pub seed: u64,
    /// How long the timed loop replays the op sequence (it makes at least
    /// `MIN_OPS` ops).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The seed's cached inputs.
    pub inputs: PathBuf,
    /// Scratch directory for the copies an append run mutates.
    pub run_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

/// The contract's result line plus the run's meta.
#[derive(Debug)]
pub struct Report {
    /// Whether every gate check passed.
    pub correct: bool,
    /// Ops attempted in the timed loops.
    pub attempted: usize,
    /// Ops that returned an error.
    pub failed: usize,
    /// `(name, value, unit)` of every metric.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Settings and counts describing the run.
    pub meta: Vec<(String, Value)>,
    /// Every gate violation.
    pub violations: Vec<String>,
}

/// One pass: its set-ups, its records and what the gate found.
struct PassRun {
    pass: Pass,
    setups: Vec<Duration>,
    peak_rss_mb: f64,
    violations: Vec<String>,
    setup: SetupSample,
}

/// Layer numbers of the last set-up of a pass.
#[derive(Debug, Default, Clone, Copy)]
struct SetupSample {
    load: Duration,
    frames: usize,
    store_bytes: u64,
    model_slots: f64,
}

/// The store a pass loads: the cached one, or for `append_query` a fresh
/// copy of it and its prelogged WAL, because appends mutate both.
fn store_for(settings: &Settings, inputs: &Inputs, name: &str) -> Result<PathBuf, String> {
    if settings.workload != Workload::Append {
        return Ok(inputs.store());
    }
    let dir = settings.run_dir.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let store = dir.join(STORE_FILE);
    std::fs::copy(inputs.store(), &store).map_err(|e| format!("copying the store: {e}"))?;
    std::fs::copy(inputs.prelog(), ust_persist::wal::wal_path(&store))
        .map_err(|e| format!("copying the WAL: {e}"))?;
    Ok(store)
}

fn load(path: &Path) -> Result<EngineStore, String> {
    EngineStore::load(path).map_err(|e| format!("loading {}: {e}", path.display()))
}

/// Sets up `repeats` times (the last set-up is kept), replays `plan` until
/// `stop` and runs the gate checks that need the live engine or store.
/// `name` keeps the store copies of different passes apart.
fn run_pass(
    settings: &Settings,
    inputs: &Inputs,
    plan: &[Op],
    stop: Stop,
    name: &str,
    repeats: usize,
    mut trace: Option<&mut TraceState>,
) -> Result<PassRun, String> {
    let config = engine_config(settings.seed);
    let append = settings.workload == Workload::Append;
    let store_path = store_for(settings, inputs, name)?;
    let mut setups = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        let t = clock();
        let store = load(&store_path)?;
        let engine = (!append).then(|| store.engine(config.clone()));
        setups.push(t.elapsed());
        drop(engine);
    }
    let setup_root = trace
        .as_deref_mut()
        .map(|ts| ts.tracer.begin("setup", 0, None));
    let t = clock();
    let load_span = trace
        .as_deref_mut()
        .map(|ts| ts.tracer.begin("store.load", 0, setup_root));
    let mut store = load(&store_path)?;
    let load_time = t.elapsed();
    if let (Some(ts), Some(id)) = (trace.as_deref_mut(), load_span) {
        ts.tracer.end(id);
    }
    let setup = SetupSample {
        load: load_time,
        frames: store.wal_stats().frames,
        store_bytes: store.stats().bytes,
        model_slots: mean(
            store
                .models()
                .iter()
                .map(|(_, m)| m.alias_kernel().num_slots() as f64),
        ),
    };
    let mut violations = Vec::new();
    let (pass, peak_rss_mb) = if append {
        setups.push(t.elapsed());
        if let (Some(ts), Some(root)) = (trace.as_deref_mut(), setup_root) {
            ts.tracer.end(root);
        }
        // Each round restores the store from a fresh copy; its load is one
        // more set-up sample.
        let mut restore = || {
            let path = store_for(settings, inputs, name)?;
            let t = clock();
            let store = load(&path)?;
            setups.push(t.elapsed());
            Ok(store)
        };
        let pass = run_append(&mut store, &mut restore, inputs, plan, &config, stop, trace)?;
        let rss = stats::peak_rss_mb()?;
        violations.extend(append_final_check(&store, inputs, &config, &pass)?);
        (pass, rss)
    } else {
        let engine = match (trace.as_deref_mut(), setup_root) {
            (Some(ts), Some(root)) => ts.mint(&store, config.clone(), 0, root),
            _ => store.engine(config.clone()),
        };
        setups.push(t.elapsed());
        if let (Some(ts), Some(root)) = (trace.as_deref_mut(), setup_root) {
            ts.tracer.end(root);
        }
        let cold = settings.workload == Workload::Cold;
        let pass = run_queries(&engine, inputs, plan, cold, stop, trace);
        let rss = stats::peak_rss_mb()?;
        violations.extend(opposite_cache_check(&engine, &store, inputs, &pass, cold)?);
        (pass, rss)
    };
    Ok(PassRun {
        pass,
        setups,
        peak_rss_mb,
        violations,
        setup,
    })
}

/// Answers P∃NN and P∀NN on the same queries and checks P∀NN ≤ P∃NN per
/// object.
fn forall_within_exists(engine: &QueryEngine, inputs: &Inputs) -> Result<Vec<String>, String> {
    let mut v = Vec::new();
    for (m, spec) in inputs.queries.iter().take(INVARIANT_SPECS).enumerate() {
        let get = |kind| {
            answer(engine, &spec.query(kind), kind)
                .map(Raw::reduce)
                .map_err(|e| e.to_string())
        };
        v.extend(gate::forall_within_exists(
            &format!("query {m}"),
            &get(Kind::Exists)?,
            &get(Kind::Forall)?,
        ));
    }
    Ok(v)
}

/// Answers the sample ops again with the opposite cache state — cold for
/// `warm_query`, every stored model preloaded for `cold_query` — and
/// requires bit-identical answers; then checks P∀NN ≤ P∃NN.
fn opposite_cache_check(
    engine: &QueryEngine,
    store: &EngineStore,
    inputs: &Inputs,
    pass: &Pass,
    cold: bool,
) -> Result<Vec<String>, String> {
    if cold {
        engine.preload_models(store.models().iter().cloned());
    }
    let sample = &pass.records[..SAMPLE_OPS.min(pass.records.len())];
    let mut again = Vec::new();
    for r in sample {
        if !cold {
            engine.clear_model_cache();
        }
        let query = inputs.queries[r.op.index].query(r.op.kind);
        let raw = answer(engine, &query, r.op.kind)
            .map_err(|e| format!("re-answering {:?}: {e}", r.op))?;
        again.push((r.op, raw.reduce().digest));
    }
    let label = if cold {
        "warm re-answer"
    } else {
        "cold re-answer"
    };
    let mut v = gate::compare(label, &gate::digests(sample), &again);
    v.extend(forall_within_exists(engine, inputs)?);
    Ok(v)
}

/// After the last epoch: an engine built from scratch over the stored
/// database plus every appended batch must answer the last epoch's ops as
/// they were answered in the loop, and the sample ops as the grown store
/// answers them.
fn append_final_check(
    store: &EngineStore,
    inputs: &Inputs,
    config: &EngineConfig,
    pass: &Pass,
) -> Result<Vec<String>, String> {
    // Batches the current round appended (earlier rounds used other copies).
    let appended = pass
        .records
        .iter()
        .rev()
        .find(|r| r.op.kind == Kind::Append)
        .map_or(0, |r| r.op.index + 1);
    let mut db = ust_persist::read_store(inputs.store())
        .map_err(|e| format!("reading the pristine store: {e}"))?
        .database;
    for batch in &inputs.batches[..PRELOGGED_BATCHES + appended] {
        for (id, obs) in batch {
            db.append_observations(*id, obs)
                .map_err(|e| e.to_string())?;
        }
    }
    // Build threads change how fast the index is built, not the index.
    let fresh = QueryEngine::new(
        &db,
        EngineConfig {
            index_build_threads: 0,
            ..config.clone()
        },
    );
    let grown = store.engine(config.clone());
    let answers = |engine: &QueryEngine, ops: &[Op]| -> Result<Vec<(Op, u64)>, String> {
        ops.iter()
            .map(|&op| {
                let query = inputs.queries[op.index].query(op.kind);
                answer(engine, &query, op.kind)
                    .map(|raw| (op, raw.reduce().digest))
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    let last: Vec<Op> = pass
        .records
        .iter()
        .rev()
        .take(inputs::CYCLE.len())
        .rev()
        .map(|r| r.op)
        .collect();
    let tail = &pass.records[pass.records.len() - last.len()..];
    let mut v = gate::compare(
        "last epoch vs from-scratch",
        &gate::digests(tail),
        &answers(&fresh, &last)?,
    );
    let sample: Vec<Op> = Workload::Warm
        .plan(0)?
        .into_iter()
        .take(SAMPLE_OPS)
        .collect();
    v.extend(gate::compare(
        "grown store vs from-scratch",
        &answers(&fresh, &sample)?,
        &answers(&grown, &sample)?,
    ));
    v.extend(forall_within_exists(&fresh, inputs)?);
    Ok(v)
}

fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Runs one invocation.
pub fn measure(settings: &Settings) -> Result<Report, String> {
    let inputs = inputs::read(&settings.inputs)?;
    let plan = settings.workload.plan(inputs.batches.len())?;
    let append = settings.workload == Workload::Append;
    let mut violations = Vec::new();

    let repeats = if settings.trace { 1 } else { SETUP_REPEATS };
    let stop = Stop {
        after: Duration::from_secs(settings.seconds),
        min_ops: stats::MIN_OPS,
    };
    let untraced = run_pass(settings, &inputs, &plan, stop, "untraced", repeats, None)?;
    violations.extend(untraced.violations.iter().cloned());
    violations.extend(gate::check_records(
        &untraced.pass.records,
        append,
        &inputs.filter,
    ));
    let expected = gate::committed(gate::COMMITTED, settings.seed, append)?;
    let committed = gate::check_committed(expected, &untraced.pass.records, &mut violations);

    let mut attempted = untraced.pass.records.len();
    let mut failed = untraced
        .pass
        .records
        .iter()
        .filter(|r| r.outcome.is_err())
        .count();
    let latencies: Vec<f64> = untraced
        .pass
        .records
        .iter()
        .map(|r| ms(r.latency))
        .collect();
    let (p50, p90) = stats::p50_p90(&latencies)?;

    let metrics = if settings.trace {
        let mut ts = TraceState::default();
        // The traced pass replays exactly the ops the untraced pass made.
        let ops = &plan[..untraced.pass.records.len()];
        let stop = Stop {
            after: Duration::ZERO,
            min_ops: ops.len(),
        };
        let traced = run_pass(settings, &inputs, ops, stop, "traced", 1, Some(&mut ts))?;
        violations.extend(traced.violations.iter().cloned());
        violations.extend(gate::compare(
            "traced vs untraced",
            &gate::digests(&untraced.pass.records),
            &gate::digests(&traced.pass.records),
        ));
        attempted += traced.pass.records.len();
        failed += traced
            .pass
            .records
            .iter()
            .filter(|r| r.outcome.is_err())
            .count();
        let decode = decode_time(&inputs.store())?;
        ts.tracer
            .write_jsonl(&settings.spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        let shares = layer_shares(ts.tracer.spans(), &ts.queries);
        violations.extend(check_accounted(unaccounted_pct(&shares)));
        layer_metrics(&ts, &traced, &untraced, decode, &shares)
    } else {
        let setup_s: Vec<f64> = untraced.setups.iter().map(Duration::as_secs_f64).collect();
        vec![
            ("setup_s".to_string(), stats::median(&setup_s), "s"),
            ("latency_p50_ms".to_string(), p50, "ms"),
            ("latency_p90_ms".to_string(), p90, "ms"),
            (
                "qps".to_string(),
                latencies.len() as f64 / untraced.pass.wall.as_secs_f64(),
                "1/s",
            ),
            ("peak_rss_mb".to_string(), untraced.peak_rss_mb, "MB"),
        ]
    };

    let answers = gate::digests(&untraced.pass.records)
        .iter()
        .fold(ust_bench::efficiency::FNV_OFFSET, |d, (_, a)| {
            ust_bench::efficiency::fnv_fold(d, *a)
        });
    let config = engine_config(settings.seed);
    let epochs = untraced
        .pass
        .records
        .iter()
        .filter(|r| r.op.kind == Kind::Append)
        .count();
    let num = |v: usize| Value::Num(v as f64);
    let meta = vec![
        (
            "workload".to_string(),
            Value::Str(settings.workload.name().into()),
        ),
        ("seed".to_string(), Value::Num(settings.seed as f64)),
        ("seconds".to_string(), Value::Num(settings.seconds as f64)),
        ("trace".to_string(), Value::Bool(settings.trace)),
        ("nproc".to_string(), num(nproc())),
        (
            "available_parallelism".to_string(),
            num(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        (
            "adaptation_threads".to_string(),
            num(config.adaptation_threads),
        ),
        ("pcnn_threads".to_string(), num(config.pcnn_threads)),
        (
            "index_build_threads".to_string(),
            num(config.index_build_threads),
        ),
        ("scale".to_string(), Value::Str("quick".into())),
        (
            "dataset_seed".to_string(),
            Value::Num(inputs::DATASET_SEED as f64),
        ),
        ("states".to_string(), num(inputs::NUM_STATES)),
        ("objects".to_string(), num(inputs::NUM_OBJECTS)),
        ("worlds".to_string(), num(config.num_samples)),
        ("ops".to_string(), num(untraced.pass.records.len())),
        ("epochs".to_string(), num(epochs)),
        ("latency_samples".to_string(), num(latencies.len())),
        ("setup_repeats".to_string(), num(untraced.setups.len())),
        ("committed_reference".to_string(), Value::Bool(committed)),
        (
            "answers_digest".to_string(),
            Value::Str(format!("{answers:#018x}")),
        ),
        ("violations".to_string(), num(violations.len())),
    ];
    Ok(Report {
        correct: violations.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        meta,
        violations,
    })
}

/// Wall time of `ust_persist::decode_store` on the store's bytes.
fn decode_time(path: &Path) -> Result<Duration, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let t = clock();
    let loaded = ust_persist::decode_store(&bytes).map_err(|e| e.to_string())?;
    let elapsed = t.elapsed();
    drop(std::hint::black_box(loaded));
    Ok(elapsed)
}

/// Each layer's share of all op time, in percent: the self time of its
/// spans inside ops and, for sampling and mining, the engine's own timers
/// inside `engine.evaluate`. The shares cover disjoint intervals.
fn layer_shares(spans: &[Span], queries: &[QueryLayers]) -> Vec<(&'static str, f64)> {
    let selfs = trace::self_times(spans);
    let op_total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.op > 0)
        .map(|s| ms(s.duration()))
        .sum();
    let span = |name: &str| {
        let own: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.op > 0 && s.name == name)
            .map(|(_, d)| ms(*d))
            .sum();
        100.0 * ratio(own, op_total)
    };
    let timer = |time: fn(&QueryStats) -> Duration| {
        let own: f64 = queries.iter().map(|l| ms(time(&l.stats))).sum();
        100.0 * ratio(own, op_total)
    };
    vec![
        ("share.prune_pct", span("index.prune")),
        ("share.prepare_pct", span("prepare")),
        ("share.sample_pct", timer(|s| s.sampling_time)),
        ("share.mine_pct", timer(|s| s.mining_time)),
        ("share.mint_pct", span("store.mint")),
        ("share.append_pct", span("store.append")),
    ]
}

/// The share of op time no layer share accounts for: `engine.evaluate`'s
/// own filter and cached-model lookup, result assembly and call overhead.
fn unaccounted_pct(shares: &[(&str, f64)]) -> f64 {
    100.0 - shares.iter().map(|s| s.1).sum::<f64>()
}

/// The gate on a traced run's layer split.
fn check_accounted(unaccounted_pct: f64) -> Option<String> {
    (unaccounted_pct > 100.0 - MIN_ACCOUNTED_PCT).then(|| {
        format!(
            "the layer shares account for only {:.1}% of op time",
            100.0 - unaccounted_pct
        )
    })
}

/// The per-layer metrics of a traced pass (see README.md for the map from
/// each metric to the layer call it times and the end-to-end metric it
/// should move).
fn layer_metrics(
    ts: &TraceState,
    traced: &PassRun,
    untraced: &PassRun,
    decode: Duration,
    shares: &[(&'static str, f64)],
) -> Vec<(String, f64, &'static str)> {
    let span_mean = |name: &str| {
        mean(
            ts.tracer
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| ms(s.duration())),
        )
    };
    let q = &ts.queries;
    let pcnn: Vec<_> = q.iter().filter(|l| l.kind == Some(Kind::PcnnK2)).collect();
    let rebuilt: Vec<_> = ts
        .mints
        .iter()
        .filter(|m| m.rebuilt)
        .filter_map(|m| m.build)
        .collect();
    let sum = |f: &dyn Fn(&crate::run::QueryLayers) -> f64| q.iter().map(f).sum::<f64>();
    let cold_ms = sum(&|l| ms(l.cold_time));
    let cold_n = sum(&|l| l.cold_adaptations as f64);
    let fill_s = sum(&|l| l.fill.as_secs_f64());
    let blocks = sum(&|l| l.fill_blocks as f64);
    let untraced_ms: f64 = untraced.pass.records.iter().map(|r| ms(r.latency)).sum();
    let traced_ms: f64 = traced.pass.records.iter().map(|r| ms(r.latency)).sum();

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("persist.decode_ms".into(), ms(decode), "ms"),
        (
            "persist.store_mb".into(),
            traced.setup.store_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        (
            "markov.model_slots".into(),
            traced.setup.model_slots,
            "count",
        ),
        (
            "store.replay_ms".into(),
            ms(traced.setup.load) - ms(decode),
            "ms",
        ),
        (
            "store.replay_frames".into(),
            traced.setup.frames as f64,
            "count",
        ),
        (
            "index.prune_us".into(),
            1e3 * span_mean("index.prune"),
            "us",
        ),
        (
            "index.candidates".into(),
            mean(q.iter().map(|l| l.candidates as f64)),
            "count",
        ),
        (
            "index.influencers".into(),
            mean(q.iter().map(|l| l.influencers as f64)),
            "count",
        ),
        (
            "index.prune_ratio".into(),
            ratio(
                sum(&|l| l.influencers as f64),
                sum(&|l| l.overlapping as f64),
            ),
            "ratio",
        ),
        (
            "spatial.probe_us".into(),
            mean(q.iter().map(|l| 1e3 * ms(l.probe))),
            "us",
        ),
        (
            "spatial.diamonds_streamed".into(),
            mean(q.iter().map(|l| l.diamonds_streamed as f64)),
            "count",
        ),
        (
            "prepare.cold_ms".into(),
            mean(q.iter().map(|l| ms(l.cold_time))),
            "ms",
        ),
        (
            "prepare.cold_adaptations".into(),
            mean(q.iter().map(|l| l.cold_adaptations as f64)),
            "count",
        ),
        (
            "prepare.hit_ratio".into(),
            ratio(
                sum(&|l| l.cache_hits as f64),
                sum(&|l| (l.cache_hits + l.cold_adaptations) as f64),
            ),
            "ratio",
        ),
        (
            "markov.adapt_ms".into(),
            ratio(cold_ms, cold_n),
            "ms/object",
        ),
        (
            "engine.sample_ms".into(),
            mean(q.iter().map(|l| ms(l.stats.sampling_time))),
            "ms",
        ),
        (
            "sampling.block_fill_us".into(),
            1e6 * ratio(fill_s, blocks),
            "us/block",
        ),
        (
            "sampling.worlds_per_s".into(),
            ratio(blocks * ust_sampling::WORLD_BLOCK_WIDTH as f64, fill_s),
            "1/s",
        ),
        (
            "engine.nn_eval_ms".into(),
            mean(q.iter().map(|l| ms(l.stats.sampling_time) - ms(l.fill))),
            "ms",
        ),
        (
            "pcnn.mine_ms".into(),
            mean(pcnn.iter().map(|l| ms(l.stats.mining_time))),
            "ms",
        ),
        (
            "pcnn.sets_evaluated".into(),
            mean(pcnn.iter().map(|l| l.sets_evaluated as f64)),
            "count",
        ),
        (
            "pcnn.max_level".into(),
            mean(pcnn.iter().map(|l| l.stats.max_level as f64)),
            "count",
        ),
        (
            "pcnn.frontier_peak".into(),
            mean(pcnn.iter().map(|l| l.stats.frontier_peak as f64)),
            "count",
        ),
        (
            "govern.checkpoints".into(),
            mean(q.iter().map(|l| l.stats.budget_checkpoints as f64)),
            "count",
        ),
        ("store.append_ms".into(), span_mean("store.append"), "ms"),
        (
            "store.wal_frame_bytes".into(),
            mean(ts.appends.iter().map(|a| a.frame_bytes as f64)),
            "bytes",
        ),
        ("store.mint_ms".into(), span_mean("store.mint"), "ms"),
        (
            "index.build_ms".into(),
            mean(rebuilt.iter().map(|b| ms(b.build_time))),
            "ms",
        ),
        (
            "index.diamonds".into(),
            ts.mints.last().map_or(0.0, |m| m.diamonds as f64),
            "count",
        ),
        (
            "index.memo_hit_ratio".into(),
            mean(rebuilt.iter().map(|b| b.memo_hit_rate())),
            "ratio",
        ),
    ];
    for kind in inputs::CYCLE.iter().chain([&Kind::Append]) {
        m.push((
            format!("engine.op_ms.{}", kind.name()),
            span_mean(kind.span_name()),
            "ms",
        ));
    }
    m.extend([
        (
            "trace.overhead_pct".into(),
            100.0 * ratio(traced_ms - untraced_ms, untraced_ms),
            "%",
        ),
        ("trace.unaccounted_pct".into(), unaccounted_pct(shares), "%"),
    ]);
    m.extend(shares.iter().map(|&(name, v)| (name.into(), v, "%")));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, from_ms: u64, to_ms: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start: Duration::from_millis(from_ms),
            end: Duration::from_millis(to_ms),
        }
    }

    fn layers(sampling_ms: u64, mining_ms: u64) -> Vec<QueryLayers> {
        let stats = QueryStats {
            sampling_time: Duration::from_millis(sampling_ms),
            mining_time: Duration::from_millis(mining_ms),
            ..QueryStats::default()
        };
        vec![QueryLayers {
            stats,
            ..QueryLayers::default()
        }]
    }

    #[test]
    fn the_layer_split_must_account_for_op_time() {
        // One 100 ms op: a 2 ms prune, an 8 ms prepare and a 90 ms evaluate
        // that wraps the whole engine query.
        let spans = [
            span("op.pcnn_k2", None, 0, 100),
            span("index.prune", Some(0), 0, 2),
            span("prepare", Some(0), 2, 10),
            span("engine.evaluate", Some(0), 10, 100),
        ];
        // The engine's timers cover 85 of the evaluate's 90 ms.
        let shares = layer_shares(&spans, &layers(70, 15));
        let share = |name| shares.iter().find(|s| s.0 == name).unwrap().1;
        assert!((share("share.prune_pct") - 2.0).abs() < 1e-9);
        assert!((share("share.prepare_pct") - 8.0).abs() < 1e-9);
        assert!((share("share.mine_pct") - 15.0).abs() < 1e-9);
        assert!((unaccounted_pct(&shares) - 5.0).abs() < 1e-9);
        assert_eq!(check_accounted(unaccounted_pct(&shares)), None);
        // Timers covering only 40 ms leave half the op unaccounted, although
        // the op span itself has no self time left.
        let shares = layer_shares(&spans, &layers(30, 10));
        assert!((unaccounted_pct(&shares) - 50.0).abs() < 1e-9);
        assert!(check_accounted(unaccounted_pct(&shares)).is_some());
    }
}
