//! The seeded inputs and the op sequences every run replays.
//!
//! Inputs are generated once per seed and build by a separate process and
//! cached on disk, so the measured process only reads files: its set-up time
//! and peak resident set exclude generation.

use std::fs;
use std::path::{Path, PathBuf};
use ust_bench::args::RunScale;
use ust_bench::datasets::{build_synthetic, ScaleParams};
use ust_bench::efficiency::{fnv_fold, FNV_OFFSET};
use ust_bench::walcheck::split_holdback;
use ust_core::{EngineConfig, EngineStore, Query, QueryEngine, Timestamp};
use ust_generator::{QueryWorkload, QueryWorkloadConfig};
use ust_spatial::Point;
use ust_trajectory::{ObjectId, Observation, TrajectoryDatabase};

/// Seed of the synthetic dataset, the same for every workload seed. The
/// dataset's density sets the cost of every query and index build, so
/// per-seed datasets moved all of a run's figures together and widened
/// their spread over seeds two- to four-fold (see README.md).
pub const DATASET_SEED: u64 = 1;
/// States of the quick-scale synthetic network.
pub const NUM_STATES: usize = 2_000;
/// Average branching factor `b`.
pub const BRANCHING: f64 = 8.0;
/// Database objects.
pub const NUM_OBJECTS: usize = 200;
/// Possible worlds per query: 16 blocks of 64.
pub const WORLDS: usize = 1_024;
/// Query specs generated per seed, one per query op of the longest run.
pub const NUM_QUERIES: usize = 4_096;
/// `|T|` of the P∃NN / P∀NN / P∀kNN ops.
pub const SHORT_T: usize = 10;
/// `|T|` of the PCkNN op (and of every generated query interval).
pub const LONG_T: usize = 16;
/// Objects per appended batch.
pub const BATCH_OBJECTS: usize = 8;
/// Batches already in the WAL when an `append_query` run starts: the first
/// tier of held-back observations, one per object. Replaying them drops
/// every stored model, so the run starts where a store that has taken
/// appends for a while stands, and every epoch costs the same.
pub const PRELOGGED_BATCHES: usize = NUM_OBJECTS / BATCH_OBJECTS;
/// Fewest epochs an `append_query` run has: 5 ops each, so at least 100 ops.
pub const MIN_EPOCHS: usize = crate::stats::MIN_OPS / (CYCLE.len() + 1);

/// File names inside one seed's input directory.
pub const STORE_FILE: &str = "store.ustore";
const PRELOG_FILE: &str = "prelog.wal";
const QUERIES_FILE: &str = "queries.tsv";
const BATCHES_FILE: &str = "batches.tsv";
const FILTER_FILE: &str = "filter_ref.tsv";

/// One append: per object, the observations added to its tail.
pub type Batch = Vec<(ObjectId, Vec<Observation>)>;

/// The engine settings of every measured run: one thread per phase, so a
/// shared two-vCPU machine does not add scheduling noise, and an unlimited
/// budget.
pub fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        num_samples: WORLDS,
        seed,
        adaptation_threads: 1,
        pcnn_threads: 1,
        index_build_threads: 1,
        ..EngineConfig::default()
    }
}

/// The workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every adapted model preloaded from the store.
    Warm,
    /// The model cache cleared before each op.
    Cold,
    /// Appends through the WAL beside queries on freshly minted engines.
    Append,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "warm_query" => Some(Workload::Warm),
            "cold_query" => Some(Workload::Cold),
            "append_query" => Some(Workload::Append),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Warm => "warm_query",
            Workload::Cold => "cold_query",
            Workload::Append => "append_query",
        }
    }

    /// The op sequence every run of the workload replays from its start,
    /// for as long as the run lasts: one query op per query spec. In
    /// `append_query` an append precedes every query cycle, and the epochs
    /// form rounds of one per held-back batch after the prelogged ones; each
    /// round starts from a fresh copy of the store and WAL.
    pub fn plan(self, batches: usize) -> Result<Vec<Op>, String> {
        if self != Workload::Append {
            return Ok((0..NUM_QUERIES)
                .map(|i| Op {
                    kind: CYCLE[i % CYCLE.len()],
                    index: i,
                })
                .collect());
        }
        let epochs = batches.saturating_sub(PRELOGGED_BATCHES);
        if epochs < MIN_EPOCHS {
            return Err(format!(
                "{epochs} held-back batches after the prelogged ones"
            ));
        }
        let cycles = NUM_QUERIES / CYCLE.len();
        Ok((0..cycles - cycles % epochs)
            .flat_map(|cycle| {
                let queries = CYCLE.iter().enumerate().map(move |(i, &kind)| Op {
                    kind,
                    index: cycle * CYCLE.len() + i,
                });
                std::iter::once(Op {
                    kind: Kind::Append,
                    index: cycle % epochs,
                })
                .chain(queries)
            })
            .collect())
    }
}

/// The kind of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// P∃NN, k = 1, τ = 0.1, |T| = 10.
    Exists,
    /// P∀NN, k = 1, τ = 0.1, |T| = 10.
    Forall,
    /// P∀kNN, k = 2, τ = 0.1, |T| = 10.
    ForallK2,
    /// PCkNN, k = 2, τ = 0.05, |T| = 16.
    PcnnK2,
    /// One `EngineStore::append_batch`.
    Append,
}

/// The query cycle every workload shares, in op order.
pub const CYCLE: [Kind; 4] = [Kind::Exists, Kind::Forall, Kind::ForallK2, Kind::PcnnK2];

impl Kind {
    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Exists => "exists",
            Kind::Forall => "forall",
            Kind::ForallK2 => "forall_k2",
            Kind::PcnnK2 => "pcnn_k2",
            Kind::Append => "append",
        }
    }

    /// Name of the op's root span.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Exists => "op.exists",
            Kind::Forall => "op.forall",
            Kind::ForallK2 => "op.forall_k2",
            Kind::PcnnK2 => "op.pcnn_k2",
            Kind::Append => "op.append",
        }
    }

    /// `k` of the query.
    pub fn k(self) -> usize {
        match self {
            Kind::Exists | Kind::Forall => 1,
            _ => 2,
        }
    }

    /// Probability threshold τ.
    pub fn tau(self) -> f64 {
        if self == Kind::PcnnK2 {
            0.05
        } else {
            0.1
        }
    }

    /// Query timestamps used, a prefix of the generated interval.
    pub fn times(self) -> usize {
        if self == Kind::PcnnK2 {
            LONG_T
        } else {
            SHORT_T
        }
    }
}

/// One op of a sequence: query op number `index`, or (for [`Kind::Append`])
/// the append of batch `PRELOGGED_BATCHES + index`. Query ops are numbered
/// in plan order, appends skipped; query op `m` has kind `CYCLE[m % 4]` and
/// asks query spec `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What the op does.
    pub kind: Kind,
    /// Query op number, which is also the query spec it asks (or held-back
    /// batch after the prelogged ones).
    pub index: usize,
}

/// A generated query: a fixed location over `LONG_T` timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Query location.
    pub location: Point,
    /// First query timestamp.
    pub start: Timestamp,
}

impl QuerySpec {
    /// The engine query for an op of `kind`.
    pub fn query(&self, kind: Kind) -> Query {
        Query::at_point(
            self.location,
            self.start..self.start + kind.times() as Timestamp,
        )
        .expect("generated query intervals are non-empty")
    }
}

/// Everything derived from a seed before a store is written.
#[derive(Debug)]
pub struct Seeded {
    /// The database the store holds: the dataset minus held-back tails.
    pub database: TrajectoryDatabase,
    /// Held-back observations in append order, `BATCH_OBJECTS` objects each.
    pub batches: Vec<Batch>,
    /// The query specs.
    pub queries: Vec<QuerySpec>,
}

impl Seeded {
    /// Builds the quick-scale dataset of [`DATASET_SEED`], holds back the
    /// last two observations of every object long enough to spare them (the
    /// `split_holdback` rule, applied twice), generates the covered queries
    /// of `seed` over what remains and orders them with [`stratify`].
    pub fn new(seed: u64) -> Result<Self, String> {
        let params = ScaleParams::for_scale(RunScale::Quick);
        let dataset = build_synthetic(&params, NUM_STATES, BRANCHING, NUM_OBJECTS, DATASET_SEED);
        let last = split_holdback(&dataset.database);
        let second_last = split_holdback(&last.pre_database);
        // Every object's second-last observation precedes its last one.
        let batches = [second_last.batch, last.batch]
            .iter()
            .flat_map(|tier| tier.chunks(BATCH_OBJECTS).map(<[_]>::to_vec))
            .collect();
        let cfg = QueryWorkloadConfig {
            num_queries: NUM_QUERIES,
            interval_length: LONG_T as u32,
            horizon: params.horizon,
            seed: seed.wrapping_add(3),
        };
        let workload =
            QueryWorkload::generate_covered(&dataset.network, &second_last.pre_database, &cfg, 1);
        let specs: Vec<QuerySpec> = workload
            .queries
            .iter()
            .map(|q| QuerySpec {
                location: q.location,
                start: q.times[0],
            })
            .collect();
        // A query's difficulty: the influence set of the widest query an op
        // asks on its spec (PCkNN, over all `LONG_T` timestamps).
        let engine = QueryEngine::new(&second_last.pre_database, EngineConfig::default());
        let difficulty = specs
            .iter()
            .map(|spec| {
                let kind = Kind::PcnnK2;
                let (_, influencers) = engine
                    .filter_knn(&spec.query(kind), kind.k())
                    .map_err(|e| e.to_string())?;
                Ok(influencers.len())
            })
            .collect::<Result<Vec<_>, String>>()?;
        drop(engine);
        Ok(Seeded {
            database: second_last.pre_database,
            batches,
            queries: stratify(&specs, &difficulty),
        })
    }
}

/// Orders `specs` so that query op `m` asks the spec of difficulty rank
/// `4 r + m % 4`, where `r` is the op's cycle `m / 4` with its bits
/// reversed. Every kind then meets the same mix of easy and hard queries,
/// and a run samples difficulty evenly over the whole workload however many
/// cycles it makes: its first `2^j` cycles take one spec from each of `2^j`
/// equal difficulty strata. The cost of an op grows with its influence set,
/// so this keeps the query mix of runs of different seeds alike.
fn stratify(specs: &[QuerySpec], difficulty: &[usize]) -> Vec<QuerySpec> {
    let cycles = specs.len() / CYCLE.len();
    assert!(
        cycles.is_power_of_two() && cycles * CYCLE.len() == specs.len(),
        "stratify needs a power-of-two number of query cycles"
    );
    let bits = cycles.trailing_zeros();
    let mut ranked: Vec<usize> = (0..specs.len()).collect();
    ranked.sort_by_key(|&i| (difficulty[i], i));
    (0..specs.len())
        .map(|m| {
            let r = (m / CYCLE.len())
                .reverse_bits()
                .checked_shr(usize::BITS - bits)
                .unwrap_or(0);
            specs[ranked[r * CYCLE.len() + m % CYCLE.len()]]
        })
        .collect()
}

/// Per query op, the filter counts `(candidates, influencers)` of an engine
/// built from scratch, indexed by the op's number: one list for the query
/// workloads, one for `append_query`, whose database grows by one batch per
/// epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterRef {
    /// Query ops of `warm_query` and `cold_query`.
    pub query: Vec<(usize, usize)>,
    /// Query ops of `append_query`.
    pub append: Vec<(usize, usize)>,
}

fn filter_counts(
    engine: &QueryEngine,
    spec: &QuerySpec,
    kind: Kind,
) -> Result<(usize, usize), String> {
    let (c, i) = engine
        .filter_knn(&spec.query(kind), kind.k())
        .map_err(|e| e.to_string())?;
    Ok((c.len(), i.len()))
}

impl FilterRef {
    /// Filter counts from engines built from scratch: `engine` over the
    /// stored database for the first `queries` query ops, and one engine per
    /// epoch over the database grown by the prelogged batches plus one batch
    /// per epoch, for the first `cycles` epochs of the `append_query` plan
    /// (whose rounds replay the same batches).
    pub fn compute(
        seeded: &Seeded,
        engine: &QueryEngine,
        queries: usize,
        cycles: usize,
    ) -> Result<Self, String> {
        let query = (0..queries)
            .map(|m| filter_counts(engine, &seeded.queries[m], CYCLE[m % CYCLE.len()]))
            .collect::<Result<_, _>>()?;
        let epochs = seeded.batches.len().saturating_sub(PRELOGGED_BATCHES);
        let mut append = vec![(0, 0); cycles * CYCLE.len()];
        let mut db = seeded.database.clone();
        for (b, batch) in seeded
            .batches
            .iter()
            .enumerate()
            .take(PRELOGGED_BATCHES + cycles.min(epochs))
        {
            for (id, obs) in batch {
                db.append_observations(*id, obs)
                    .map_err(|e| e.to_string())?;
            }
            if b >= PRELOGGED_BATCHES {
                let grown = QueryEngine::new(&db, EngineConfig::default());
                for cycle in (b - PRELOGGED_BATCHES..cycles).step_by(epochs) {
                    for (i, &kind) in CYCLE.iter().enumerate() {
                        let m = cycle * CYCLE.len() + i;
                        append[m] = filter_counts(&grown, &seeded.queries[m], kind)?;
                    }
                }
            }
        }
        Ok(FilterRef { query, append })
    }

    /// Counts of query op `op` of the query workloads or of `append_query`.
    pub fn get(&self, append: bool, op: Op) -> Option<(usize, usize)> {
        let counts = if append { &self.append } else { &self.query };
        counts.get(op.index).copied()
    }

    /// FNV-1a digest of the counts of the query ops among the first
    /// `MIN_OPS` ops of `plan`, with their sums — the committed form.
    pub fn digest(&self, append: bool, plan: &[Op]) -> Option<CountDigest> {
        let mut d = CountDigest::default();
        for op in plan
            .iter()
            .take(crate::stats::MIN_OPS)
            .filter(|op| op.kind != Kind::Append)
        {
            let (c, i) = self.get(append, *op)?;
            d.add(c, i);
        }
        Some(d)
    }
}

/// A digest of a prefix of per-op filter counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountDigest {
    /// Query ops folded in.
    pub ops: usize,
    /// FNV-1a over `(candidates, influencers)` in op order.
    pub digest: u64,
    /// Sum of candidate counts.
    pub candidates: usize,
    /// Sum of influencer counts.
    pub influencers: usize,
}

impl Default for CountDigest {
    fn default() -> Self {
        CountDigest {
            ops: 0,
            digest: FNV_OFFSET,
            candidates: 0,
            influencers: 0,
        }
    }
}

impl CountDigest {
    /// Folds one op's counts in.
    pub fn add(&mut self, candidates: usize, influencers: usize) {
        self.ops += 1;
        self.digest = fnv_fold(fnv_fold(self.digest, candidates as u64), influencers as u64);
        self.candidates += candidates;
        self.influencers += influencers;
    }
}

/// A seed's cached input files, read back by the measured process.
#[derive(Debug)]
pub struct Inputs {
    /// Directory holding the files.
    pub dir: PathBuf,
    /// Query specs.
    pub queries: Vec<QuerySpec>,
    /// Held-back batches in append order.
    pub batches: Vec<Batch>,
    /// Filter counts of engines built from scratch.
    pub filter: FilterRef,
}

impl Inputs {
    /// The stored index plus all adapted models.
    pub fn store(&self) -> PathBuf {
        self.dir.join(STORE_FILE)
    }

    /// The WAL holding the first `PRELOGGED_BATCHES` batches.
    pub fn prelog(&self) -> PathBuf {
        self.dir.join(PRELOG_FILE)
    }
}

/// Generates the inputs of `seed` into `out`: the store of the shortened
/// database with its index and every adapted model, a WAL prelogged with the
/// first batches, the query specs, the batches, and from-scratch filter
/// counts for every query op a run can make. Generation is not measured, so
/// its engines keep the default thread counts: the index and the models are
/// the same at every thread count.
pub fn generate(seed: u64, out: &Path) -> Result<(), String> {
    let seeded = Seeded::new(seed)?;
    let engine = QueryEngine::new(&seeded.database, EngineConfig::default());
    engine
        .prepare_all()
        .map_err(|e| format!("adapting every model: {e}"))?;
    let store = out.join(STORE_FILE);
    engine
        .save_store(&store)
        .map_err(|e| format!("writing {}: {e}", store.display()))?;

    // The prelogged WAL is made by appending through a scratch copy of the
    // store, then kept under its own name.
    let scratch = out.join("prelog.ustore");
    fs::copy(&store, &scratch).map_err(|e| e.to_string())?;
    let mut grown = EngineStore::load(&scratch).map_err(|e| e.to_string())?;
    for batch in &seeded.batches[..PRELOGGED_BATCHES] {
        grown
            .append_batch(batch)
            .map_err(|e| format!("prelogging a batch: {e}"))?;
    }
    drop(grown);
    fs::rename(ust_persist::wal::wal_path(&scratch), out.join(PRELOG_FILE))
        .map_err(|e| e.to_string())?;
    fs::remove_file(&scratch).map_err(|e| e.to_string())?;

    let filter = FilterRef::compute(&seeded, &engine, NUM_QUERIES, NUM_QUERIES / CYCLE.len())?;
    write_queries(&out.join(QUERIES_FILE), &seeded.queries)?;
    write_batches(&out.join(BATCHES_FILE), &seeded.batches)?;
    write_filter(&out.join(FILTER_FILE), &filter)
}

/// Reads a seed's inputs from `dir`.
pub fn read(dir: &Path) -> Result<Inputs, String> {
    Ok(Inputs {
        dir: dir.to_path_buf(),
        queries: read_queries(&dir.join(QUERIES_FILE))?,
        batches: read_batches(&dir.join(BATCHES_FILE))?,
        filter: read_filter(&dir.join(FILTER_FILE))?,
    })
}

fn write_text(path: &Path, text: String) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_rows(path: &Path) -> Result<Vec<Vec<String>>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect())
}

fn num<T: std::str::FromStr>(row: &[String], i: usize) -> Result<T, String> {
    row.get(i)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad field {i} in {row:?}"))
}

// Coordinates are stored as their IEEE bits so queries read back exactly.
fn write_queries(path: &Path, queries: &[QuerySpec]) -> Result<(), String> {
    let text: String = queries
        .iter()
        .map(|q| {
            format!(
                "{}\t{}\t{}\n",
                q.location.x.to_bits(),
                q.location.y.to_bits(),
                q.start
            )
        })
        .collect();
    write_text(path, text)
}

fn read_queries(path: &Path) -> Result<Vec<QuerySpec>, String> {
    read_rows(path)?
        .iter()
        .map(|r| {
            let (x, y) = (f64::from_bits(num(r, 0)?), f64::from_bits(num(r, 1)?));
            Ok(QuerySpec {
                location: Point::new(x, y),
                start: num(r, 2)?,
            })
        })
        .collect()
}

fn write_batches(path: &Path, batches: &[Batch]) -> Result<(), String> {
    let mut text = String::new();
    for (b, batch) in batches.iter().enumerate() {
        for (id, obs) in batch {
            for o in obs {
                text.push_str(&format!("{b}\t{id}\t{}\t{}\n", o.time, o.state));
            }
        }
    }
    write_text(path, text)
}

fn read_batches(path: &Path) -> Result<Vec<Batch>, String> {
    let mut batches: Vec<Batch> = Vec::new();
    for r in read_rows(path)? {
        let b: usize = num(&r, 0)?;
        let id: ObjectId = num(&r, 1)?;
        let o = Observation {
            time: num(&r, 2)?,
            state: num(&r, 3)?,
        };
        if b == batches.len() {
            batches.push(Vec::new());
        }
        let batch = batches.get_mut(b).ok_or("batches out of order")?;
        match batch.last_mut() {
            Some((last, obs)) if *last == id => obs.push(o),
            _ => batch.push((id, vec![o])),
        }
    }
    Ok(batches)
}

fn write_filter(path: &Path, filter: &FilterRef) -> Result<(), String> {
    let mut text = String::new();
    for (seq, counts) in [("query", &filter.query), ("append", &filter.append)] {
        for (c, i) in counts {
            text.push_str(&format!("{seq}\t{c}\t{i}\n"));
        }
    }
    write_text(path, text)
}

fn read_filter(path: &Path) -> Result<FilterRef, String> {
    let mut filter = FilterRef::default();
    for r in read_rows(path)? {
        let counts = (num(&r, 1)?, num(&r, 2)?);
        match r[0].as_str() {
            "query" => filter.query.push(counts),
            "append" => filter.append.push(counts),
            other => return Err(format!("unknown filter sequence {other:?}")),
        }
    }
    Ok(filter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_number_query_ops_and_replay_batches_in_rounds() {
        let warm = Workload::Warm.plan(50).unwrap();
        assert_eq!(warm.len(), NUM_QUERIES);
        assert_eq!(
            warm[5],
            Op {
                kind: Kind::Forall,
                index: 5
            }
        );
        let append = Workload::Append.plan(50).unwrap();
        let epochs = 50 - PRELOGGED_BATCHES;
        let cycles = NUM_QUERIES / CYCLE.len();
        assert_eq!(append.len(), (cycles - cycles % epochs) * 5);
        assert_eq!(
            append[5],
            Op {
                kind: Kind::Append,
                index: 1
            }
        );
        assert_eq!(
            append[6],
            Op {
                kind: Kind::Exists,
                index: 4
            }
        );
        assert_eq!(
            append[9],
            Op {
                kind: Kind::PcnnK2,
                index: 7
            }
        );
        assert_eq!(
            append[5 * epochs],
            Op {
                kind: Kind::Append,
                index: 0
            },
            "rounds replay the batches"
        );
        assert_eq!(
            append[5 * epochs + 1].index,
            4 * epochs,
            "with new query specs"
        );
        assert!(Workload::Append
            .plan(PRELOGGED_BATCHES + MIN_EPOCHS - 1)
            .is_err());
    }

    #[test]
    fn stratified_runs_sample_every_difficulty_stratum() {
        let specs: Vec<QuerySpec> = (0..64)
            .map(|i| QuerySpec {
                location: Point::new(f64::from(i), 0.0),
                start: 0,
            })
            .collect();
        // Spec i has difficulty rank 63 - i.
        let difficulty: Vec<usize> = (0..64).rev().collect();
        let order = stratify(&specs, &difficulty);
        let rank = |m: usize| 63 - order[m].location.x as usize;
        // Cycles 0, 1, 2, 3 take the strata at r = 0, 8, 4, 12 (bits of
        // 0..16 reversed), and the kinds of one cycle take adjacent ranks.
        let ranks: Vec<usize> = (0..16).map(rank).collect();
        assert_eq!(ranks[..4], [0, 1, 2, 3]);
        assert_eq!(ranks[4..8], [32, 33, 34, 35]);
        assert_eq!(ranks[8..12], [16, 17, 18, 19]);
        assert_eq!(ranks[12..16], [48, 49, 50, 51]);
        // Any first 2^j cycles hold one spec of every kind from each of 2^j
        // equal strata.
        for j in 0..=4 {
            let cycles = 1usize << j;
            let mut strata: Vec<usize> = (0..4 * cycles).map(|m| rank(m) / (64 / cycles)).collect();
            strata.sort_unstable();
            let expected: Vec<usize> = (0..cycles).flat_map(|s| [s; 4]).collect();
            assert_eq!(strata, expected);
        }
        let mut all: Vec<usize> = (0..64).map(rank).collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn count_digest_depends_on_every_count() {
        let mut a = CountDigest::default();
        let mut b = a;
        a.add(3, 7);
        b.add(7, 3);
        assert_ne!(a.digest, b.digest);
        assert_eq!((a.candidates, a.influencers), (b.influencers, b.candidates));
    }
}
