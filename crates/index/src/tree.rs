//! The UST-tree: diamond approximations indexed in an STR-packed R-tree.
//!
//! The build fans the per-object diamond construction out across scoped
//! worker shards ([`UstTreeConfig::build_threads`]) and memoizes the
//! reachability geometry of repeated commutes, so paper-scale databases
//! (hundreds of thousands of states, tens of thousands of objects) index in
//! parallel. Shards emit their diamond runs in object order and the runs are
//! concatenated before one STR bulk load, so the resulting index — diamond
//! order, R-tree shape, every pruning result — is byte-identical at every
//! thread count.
//!
//! Appends only add segments at the touched objects' tails, so
//! [`UstTree::refresh`] re-derives a tree over a grown database by keeping
//! every diamond the old arena already has and building only the segments
//! that start at or after each touched object's old tail. The spliced arena
//! is the one a full build would concatenate, and the same single STR bulk
//! load packs it, so a refreshed tree is identical to a from-scratch
//! [`UstTree::build_with`] — which is itself the refresh in which every
//! object keeps nothing.

use crate::diamond::Diamond;
use crate::par::{parallel_map_ordered, resolve_threads};
use crate::pruning::{BoundsTable, PruningResult};
use crate::{ObjectId, StateId, Timestamp};
use rustc_hash::FxHashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ust_markov::{reachability, MarkovModel};
use ust_spatial::{Point, RTree, Rect2, Rect3, StateSpace};
use ust_trajectory::{TrajectoryDatabase, UncertainObject};

/// Build-time configuration of the UST-tree.
#[derive(Debug, Clone, Copy)]
pub struct UstTreeConfig {
    /// Node capacity of the underlying R-tree.
    pub rtree_capacity: usize,
    /// Number of worker threads the per-object diamond construction fans out
    /// across. `0` (the default) uses the machine's available parallelism;
    /// `1` is the exact serial loop. The built index is byte-identical at
    /// every setting — shards emit ordered diamond runs that are concatenated
    /// in object order before the bulk load — only wall-clock time changes.
    pub build_threads: usize,
    /// Memoize the reachability geometry of repeated commutes (same a-priori
    /// model, same endpoint states, same time gap, and the same start time
    /// when the model is time-varying), so only the first occurrence runs the
    /// reachability BFS. The geometry is a pure function of the commute, so
    /// this never changes the built index; the switch exists for the
    /// `index_build` benchmark's no-memo baseline.
    pub reach_memo: bool,
}

impl Default for UstTreeConfig {
    fn default() -> Self {
        UstTreeConfig { rtree_capacity: 32, build_threads: 0, reach_memo: true }
    }
}

/// Observability counters of one UST-tree build, surfaced through
/// `QueryEngine` and the bench harness so the paper-scale build trajectory is
/// measurable.
///
/// For a tree made by [`UstTree::refresh`] the counters describe the refresh:
/// its wall time, the threads it fanned out across, and only the segments it
/// built (`segments`, `reach_memo_hits`, `reach_memo_misses`,
/// `peak_frontier`), not the diamonds it kept from the old arena. `objects`
/// and `diamonds` stay totals over the whole tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexBuildStats {
    /// Wall-clock time of the whole build (reachability, diamonds, bulk load).
    pub build_time: Duration,
    /// Resolved worker-thread count the diamond construction fanned out
    /// across (after `0` → available parallelism).
    pub build_threads: usize,
    /// Objects indexed.
    pub objects: usize,
    /// Observation segments built (one reachability commute each).
    pub segments: usize,
    /// Diamonds indexed (segments with consistent observations).
    pub diamonds: usize,
    /// Segments whose geometry was answered from the reach memo (no BFS run).
    pub reach_memo_hits: usize,
    /// Segments whose geometry ran the reachability BFS.
    pub reach_memo_misses: usize,
    /// Largest per-timestamp reachable-state set encountered across the
    /// built segments — the peak BFS frontier, the quantity that blows up
    /// first when the state space or the observation gap grows.
    pub peak_frontier: usize,
}

impl IndexBuildStats {
    /// Memo hit rate in `[0, 1]` (zero for an empty build).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.reach_memo_hits + self.reach_memo_misses;
        if total == 0 {
            0.0
        } else {
            self.reach_memo_hits as f64 / total as f64
        }
    }
}

/// The time-shifted geometry of one commute: everything a [`Diamond`] needs
/// except the object id and the absolute timestamps. A pure function of
/// [`GeoKey`], which is what makes it memoizable across objects.
#[derive(Debug, Clone)]
struct DiamondGeometry {
    /// MBR over all states reachable anywhere in the commute.
    mbr: Rect2,
    /// Per relative timestamp (0 ..= gap), the MBR of the reachable states.
    per_time: Vec<Rect2>,
    /// Largest per-timestamp reachable-state count of this commute.
    peak_frontier: usize,
}

/// Memo key: the a-priori model (by address — the database's `Arc`s live
/// for the whole build, so addresses are stable and unique), the commute's
/// endpoint states, its time gap and, for a time-varying model only, its
/// start time (0 for a homogeneous one, whose geometry does not depend on
/// it).
type GeoKey = (usize, StateId, StateId, u32, Timestamp);

/// Number of memo shards; a power of two so shard selection is a mask.
const MEMO_SHARDS: usize = 16;

/// A sharded memo of commute geometries shared across build workers.
///
/// Geometry is a pure function of the key, so the memo needs no anti-stampede
/// claim discipline: two workers racing on the same cold commute both compute
/// the same value and the second insert is a no-op. Hit/miss counters feed
/// [`IndexBuildStats`].
struct GeometryMemo {
    shards: Vec<Mutex<FxHashMap<GeoKey, Arc<Option<DiamondGeometry>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    enabled: bool,
}

impl GeometryMemo {
    fn new(enabled: bool) -> Self {
        GeometryMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(FxHashMap::default())).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            enabled,
        }
    }

    /// Returns the geometry of a commute, computing (and caching) it on the
    /// first occurrence. `None` means the commute is inconsistent (the target
    /// is unreachable in the given gap) and yields no diamond.
    fn geometry(
        &self,
        model: &Arc<MarkovModel>,
        space: &StateSpace,
        from: (Timestamp, StateId),
        to: (Timestamp, StateId),
    ) -> Arc<Option<DiamondGeometry>> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute_geometry(model, space, from, to));
        }
        let start = match model.as_ref() {
            MarkovModel::Homogeneous(_) => 0,
            MarkovModel::TimeVarying(_) => from.0,
        };
        let key: GeoKey = (Arc::as_ptr(model) as usize, from.1, to.1, to.0 - from.0, start);
        let mut hasher = rustc_hash::FxHasher::default();
        key.hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) & (MEMO_SHARDS - 1)];
        if let Some(geo) = shard.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return geo.clone();
        }
        // Compute outside the lock: a BFS can be long, and a racing duplicate
        // computation of the same pure value is cheaper than serialising all
        // cold commutes of the shard behind it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let geo = Arc::new(compute_geometry(model, space, from, to));
        shard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| geo.clone())
            .clone()
    }
}

/// Runs the reachability BFS of one commute and boxes the reachable sets.
fn compute_geometry(
    model: &MarkovModel,
    space: &StateSpace,
    from: (Timestamp, StateId),
    to: (Timestamp, StateId),
) -> Option<DiamondGeometry> {
    let sets = reachability::segment(model, from, to);
    if !sets.is_consistent() {
        return None;
    }
    let mut mbr = Rect2::empty();
    let mut per_time = Vec::with_capacity(sets.per_time.len());
    let mut peak_frontier = 0usize;
    for states in &sets.per_time {
        peak_frontier = peak_frontier.max(states.len());
        let r = space.mbr_of(states.iter().copied());
        mbr.extend(&r);
        per_time.push(r);
    }
    Some(DiamondGeometry { mbr, per_time, peak_frontier })
}

/// What a build or refresh does with one object's diamond run.
struct RunPlan<'t> {
    /// Diamonds kept from the old arena, in segment order.
    kept: &'t [Diamond],
    /// Build the segments whose first observation is at or after this time
    /// (for a single observation, its degenerate diamond); `None` builds
    /// nothing.
    build_from: Option<Timestamp>,
}

impl<'t> RunPlan<'t> {
    /// Keeps nothing and builds the object's whole run.
    fn whole(object: &UncertainObject) -> Self {
        RunPlan { kept: &[], build_from: Some(object.first_time()) }
    }

    /// The plan of a stale object the old tree indexed as `run`: keep its
    /// segment diamonds and build from τ, the last kept diamond's `t_end`
    /// (the end of its last feasible segment). A single observation's
    /// degenerate diamond at `t` is dropped and the run built from `t`. An
    /// empty run, or a grown object without an observation at τ (its history
    /// was not just extended), is built whole.
    fn extend(run: &'t [Diamond], object: &UncertainObject) -> Self {
        let (kept, tau) = match run {
            [] => return Self::whole(object),
            [d] if d.t_start == d.t_end => (&run[..0], d.t_start),
            _ => (run, run[run.len() - 1].t_end),
        };
        if object.observations().binary_search_by_key(&tau, |o| o.time).is_err() {
            return Self::whole(object);
        }
        RunPlan { kept, build_from: Some(tau) }
    }
}

/// Diamond run of one object plus the per-object stats to merge.
struct ObjectRun {
    diamonds: Vec<Diamond>,
    segments: usize,
    peak_frontier: usize,
}

/// The UST-tree over a trajectory database.
#[derive(Debug)]
pub struct UstTree {
    diamonds: Vec<Diamond>,
    rtree: RTree<3, usize>,
    num_objects: usize,
    build_stats: IndexBuildStats,
}

impl UstTree {
    /// Builds the index over all objects of the database with default
    /// configuration.
    pub fn build(db: &TrajectoryDatabase) -> Self {
        Self::build_with(db, &UstTreeConfig::default())
    }

    /// Builds the index with an explicit configuration.
    ///
    /// The per-object diamond construction is fanned out across
    /// [`build_threads`](UstTreeConfig::build_threads) scoped workers; each
    /// worker emits its objects' diamonds in segment order and the ordered
    /// runs are concatenated in object order before a single STR bulk load,
    /// so the index is byte-identical at every thread count.
    pub fn build_with(db: &TrajectoryDatabase, cfg: &UstTreeConfig) -> Self {
        // Every object keeps nothing and builds its whole run.
        Self::splice(db, db.objects().iter().map(RunPlan::whole).collect(), cfg)
    }

    /// Re-derives this tree over `db`, a database that has grown only by
    /// tail appends since this tree was built over it: no observation was
    /// removed or changed, and every appended one is later than its object's
    /// last. `stale` lists the objects appended to (duplicates and any order
    /// are fine); objects added to the database since are stale whether
    /// listed or not.
    ///
    /// Every untouched object keeps its diamond run. A stale object keeps its
    /// segment diamonds and builds only the segments that start at or after
    /// τ, its last kept diamond's `t_end`: the appended ones, plus a trailing
    /// hop-infeasible segment, which again yields no diamond. A single
    /// observation's degenerate diamond is dropped and the object's run built
    /// from that observation; an object with an empty run, one this tree does
    /// not know, or one without an observation at τ builds its whole run. The
    /// runs are spliced in database object order before one STR bulk load.
    /// The result therefore equals `build_with(db, cfg)` — same diamonds,
    /// same order, same R-tree shape, same pruning results — where `cfg`
    /// keeps this tree's node capacity and builds on `build_threads`
    /// workers. Its cost is the new segments plus one re-pack, and its
    /// [`IndexBuildStats`] describe just the segments built.
    ///
    /// An arena that is not grouped in database object order (a decoded one
    /// whose source no longer matches `db`, say) cannot be spliced; the
    /// refresh then falls back to the full build.
    pub fn refresh(
        &self,
        db: &TrajectoryDatabase,
        stale: &[ObjectId],
        build_threads: usize,
    ) -> Self {
        let rtree_capacity = self.rtree_capacity();
        let cfg = UstTreeConfig { rtree_capacity, build_threads, ..Default::default() };
        let mut stale = stale.to_vec();
        stale.sort_unstable();
        match self.plan(db, &stale) {
            Some(plan) => Self::splice(db, plan, &cfg),
            None => Self::build_with(db, &cfg),
        }
    }

    /// One [`RunPlan`] per object of `db`, in database order. `None` when
    /// the arena is not the concatenation of per-object runs in database
    /// order.
    fn plan<'t>(
        &'t self,
        db: &TrajectoryDatabase,
        sorted_stale: &[ObjectId],
    ) -> Option<Vec<RunPlan<'t>>> {
        let mut plan = Vec::with_capacity(db.len());
        let mut cursor = 0usize;
        for (i, object) in db.objects().iter().enumerate() {
            let start = cursor;
            while self.diamonds.get(cursor).is_some_and(|d| d.object == object.id()) {
                cursor += 1;
            }
            let run = &self.diamonds[start..cursor];
            // Objects past this tree's count were added since it was built.
            plan.push(if i >= self.num_objects {
                RunPlan::whole(object)
            } else if sorted_stale.binary_search(&object.id()).is_ok() {
                RunPlan::extend(run, object)
            } else {
                RunPlan { kept: run, build_from: None }
            });
        }
        (cursor == self.diamonds.len()).then_some(plan)
    }

    /// The one diamond-construction path: builds the segments `plan` asks
    /// for (fanned out across `cfg.build_threads` workers), splices them
    /// after the kept diamonds in database object order and bulk-loads the
    /// arena.
    fn splice(db: &TrajectoryDatabase, plan: Vec<RunPlan<'_>>, cfg: &UstTreeConfig) -> Self {
        // lint: allow(T001) build_time is BuildStats observability; the index bytes are clock-free
        let start = Instant::now();
        let space = db.state_space();

        // Each segment walks its object's own a-priori chain.
        let work: Vec<(&UncertainObject, Timestamp, &Arc<MarkovModel>)> = db
            .objects()
            .iter()
            .zip(&plan)
            .filter_map(|(object, entry)| {
                Some((object, entry.build_from?, db.model_for(object.id())))
            })
            .collect();

        // Resolve once, with the same per-item clamp the fan-out applies, so
        // the reported thread count is what actually ran.
        let build_threads = resolve_threads(cfg.build_threads).min(work.len()).max(1);
        let memo = GeometryMemo::new(cfg.reach_memo);
        let runs: Vec<ObjectRun> =
            parallel_map_ordered(&work, build_threads, |&(object, from, model)| {
                build_object_run(object, from, model, space, &memo)
            });

        let mut stats = IndexBuildStats {
            build_threads,
            objects: db.len(),
            reach_memo_hits: memo.hits.load(Ordering::Relaxed),
            reach_memo_misses: memo.misses.load(Ordering::Relaxed),
            ..Default::default()
        };
        let kept: usize = plan.iter().map(|entry| entry.kept.len()).sum();
        let built: usize = runs.iter().map(|r| r.diamonds.len()).sum();
        let mut diamonds: Vec<Diamond> = Vec::with_capacity(kept + built);
        let mut runs = runs.into_iter();
        for entry in plan {
            diamonds.extend_from_slice(entry.kept);
            if entry.build_from.is_some() {
                let run = runs.next().expect("one built run per object that builds");
                stats.segments += run.segments;
                stats.peak_frontier = stats.peak_frontier.max(run.peak_frontier);
                diamonds.extend(run.diamonds);
            }
        }
        stats.diamonds = diamonds.len();

        let mut tree = Self::from_parts(diamonds, db.len(), cfg.rtree_capacity, stats);
        tree.build_stats.build_time = start.elapsed();
        tree
    }

    /// Reassembles a tree from a stored diamond arena without re-running the
    /// Markov-chain build. The R-tree is *not* part of the stored form: STR
    /// bulk loading is deterministic, so rebuilding it here from the same
    /// diamonds with the same node capacity reproduces the original tree
    /// shape exactly.
    ///
    /// # Panics
    ///
    /// Panics if `rtree_capacity < 4` or if a diamond's space-time box is
    /// degenerate (inverted or non-finite bounds). Callers decoding untrusted
    /// bytes must validate first — the `ust-persist` decoder does.
    pub fn from_parts(
        diamonds: Vec<Diamond>,
        num_objects: usize,
        rtree_capacity: usize,
        build_stats: IndexBuildStats,
    ) -> Self {
        let items: Vec<(Rect3, usize)> = diamonds
            .iter()
            .enumerate()
            .map(|(i, d)| (d.space_time_box(), i))
            .collect();
        let rtree = RTree::bulk_load(items, rtree_capacity);
        UstTree { diamonds, rtree, num_objects, build_stats }
    }

    /// Checks that the R-tree is well formed and indexes exactly the arena:
    /// one entry per diamond, each under the diamond's own space-time box,
    /// and build stats that count the same diamonds. For tests and property
    /// checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.rtree.check_invariants()?;
        if self.build_stats.diamonds != self.diamonds.len() {
            return Err(format!(
                "build stats count {} diamonds, the arena holds {}",
                self.build_stats.diamonds,
                self.diamonds.len()
            ));
        }
        let mut seen = vec![false; self.diamonds.len()];
        for (rect, &i) in self.rtree.iter() {
            let Some(diamond) = self.diamonds.get(i) else {
                return Err(format!("R-tree entry {i} is past the arena"));
            };
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("diamond {i} is indexed twice"));
            }
            if *rect != diamond.space_time_box() {
                return Err(format!("diamond {i} is indexed under the wrong box"));
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(i) => Err(format!("diamond {i} is not indexed")),
            None => Ok(()),
        }
    }

    /// Node capacity of the underlying R-tree (the bulk-load fan-out).
    pub fn rtree_capacity(&self) -> usize {
        self.rtree.max_entries()
    }

    /// Number of indexed diamonds (one per observation segment).
    pub fn num_diamonds(&self) -> usize {
        self.diamonds.len()
    }

    /// Number of objects of the database the index was built over.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Observability counters of the build (wall time, memo hit/miss, peak
    /// BFS frontier — see [`IndexBuildStats`]).
    pub fn build_stats(&self) -> &IndexBuildStats {
        &self.build_stats
    }

    /// All diamonds (for diagnostics and tests).
    pub fn diamonds(&self) -> &[Diamond] {
        &self.diamonds
    }

    /// Calls `f` for every diamond whose time interval overlaps
    /// `[t_from, t_to]` (`t_start <= t_to && t_end >= t_from`), in the
    /// deterministic R-tree walk order.
    pub fn for_each_overlapping<'s>(
        &'s self,
        t_from: Timestamp,
        t_to: Timestamp,
        mut f: impl FnMut(&'s Diamond),
    ) {
        let Ok(()) = self.rtree.try_for_each_intersecting(&time_window(t_from, t_to), |_, &i| {
            f(&self.diamonds[i]);
            Ok::<(), Infallible>(())
        });
    }

    /// Runs the filter step of Section 6 for a k-NN query given by
    /// per-timestamp positions: returns the ∀-candidates, the influence
    /// objects and the per-timestamp pruning distances, the k-th smallest
    /// `dmax` over all alive objects (`k = 1` is the plain NN filter).
    ///
    /// `query_pos(t)` must be defined for every `t` in `times`, and `times`
    /// must be ascending (as produced by `Query::times`): the streamed probe
    /// below relies on the covered timestamps of each diamond forming a
    /// contiguous subrange.
    ///
    /// Diamonds are streamed straight out of the R-tree into a dense
    /// per-query bounds arena (the slot-interned `BoundsTable` of
    /// `pruning.rs`): the object slot is interned once per diamond, and only
    /// the query timestamps inside the diamond's time interval are probed.
    ///
    /// `guard` is called once per streamed diamond with the running stream
    /// count (1-based) *before* the diamond is probed; returning `Err` aborts
    /// the pruning pass and propagates the error. Diamonds stream in the
    /// deterministic R-tree walk order, so a guard that trips at count `n`
    /// always trips on the same diamond. A caller without a budget passes a
    /// guard that returns `Result<(), Infallible>`.
    pub fn try_prune_knn<E>(
        &self,
        times: &[Timestamp],
        query_pos: impl Fn(Timestamp) -> Point,
        k: usize,
        mut guard: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<PruningResult, E> {
        debug_assert!(times.is_sorted(), "query timestamps must be ascending");
        if times.is_empty() {
            return Ok(PruningResult {
                times: Vec::new(),
                candidates: Vec::new(),
                influencers: Vec::new(),
                prune_distances: Vec::new(),
            });
        }
        let t_from = *times.first().expect("non-empty");
        let t_to = *times.last().expect("non-empty");
        let positions: Vec<Point> = times.iter().map(|&t| query_pos(t)).collect();
        let mut table = BoundsTable::new(times.len());
        let mut streamed = 0usize;
        self.rtree.try_for_each_intersecting(&time_window(t_from, t_to), |_, &index| {
            let diamond = &self.diamonds[index];
            streamed += 1;
            guard(streamed)?;
            // Probe only the query timestamps the diamond actually covers
            // (times are ascending, so the covered ones form a subrange).
            let lo = times.partition_point(|&t| t < diamond.t_start);
            let hi = times.partition_point(|&t| t <= diamond.t_end);
            if lo == hi {
                return Ok(());
            }
            let slot = table.slot(diamond.object);
            for i in lo..hi {
                let rect = diamond
                    .rect_at(times[i])
                    .expect("timestamp inside the diamond's interval");
                table.record_at(slot, i, rect.min_dist(&positions[i]), rect.max_dist(&positions[i]));
            }
            Ok(())
        })?;
        Ok(table.evaluate_knn(times, k))
    }
}

/// The space-time query box of the time window `[t_from, t_to]`: unbounded
/// in space, so it selects diamonds by their time interval alone.
fn time_window(t_from: Timestamp, t_to: Timestamp) -> Rect3 {
    Rect3::new(
        [f64::NEG_INFINITY, f64::NEG_INFINITY, t_from as f64],
        [f64::INFINITY, f64::INFINITY, t_to as f64],
    )
}

/// Builds the ordered diamonds of one object's segments that start at or
/// after `from` (for a single observation at or after `from`, its
/// degenerate diamond).
fn build_object_run(
    object: &UncertainObject,
    from: Timestamp,
    model: &Arc<MarkovModel>,
    space: &StateSpace,
    memo: &GeometryMemo,
) -> ObjectRun {
    // Chaos hook: lets the chaos suite crash one build shard mid-flight and
    // prove the scoped fan-out propagates the panic instead of wedging.
    ust_fault::panic_point("index.build.shard");
    let mut run = ObjectRun { diamonds: Vec::new(), segments: 0, peak_frontier: 0 };
    let mut push = |t_start: Timestamp, from_state: StateId, t_end: Timestamp, to_state: StateId| {
        run.segments += 1;
        let geo = memo.geometry(model, space, (t_start, from_state), (t_end, to_state));
        if let Some(geo) = geo.as_ref() {
            run.peak_frontier = run.peak_frontier.max(geo.peak_frontier);
            run.diamonds.push(Diamond {
                object: object.id(),
                t_start,
                t_end,
                mbr: geo.mbr,
                per_time: geo.per_time.clone(),
            });
        }
    };
    let observations = object.observations();
    let first = observations.partition_point(|o| o.time < from);
    if let [obs] = observations {
        // Degenerate segment: the object exists only at its single
        // observation instant.
        if first == 0 {
            push(obs.time, obs.state, obs.time, obs.state);
        }
    } else {
        for pair in observations[first..].windows(2) {
            push(pair[0].time, pair[0].state, pair[1].time, pair[1].state);
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectId;
    use ust_markov::CsrMatrix;
    use ust_spatial::StateSpace;
    use ust_trajectory::UncertainObject;

    /// The filter without a budget: [`UstTree::try_prune_knn`] for a static
    /// query point, under a guard that never trips.
    fn prune_at(tree: &UstTree, times: &[Timestamp], q: Point, k: usize) -> PruningResult {
        let Ok(result) = tree.try_prune_knn(times, |_| q, k, |_| Ok::<(), Infallible>(()));
        result
    }

    /// Database over a 1-d line of 10 states at x = 0..9 where objects can
    /// stay or move one step left/right per tic.
    fn line_db(objects: Vec<UncertainObject>) -> TrajectoryDatabase {
        let n = 10usize;
        let space = Arc::new(StateSpace::from_points(
            (0..n).map(|i| Point::new(i as f64, 0.0)).collect(),
        ));
        let rows = (0..n as i64)
            .map(|i| {
                let mut row = vec![(i as u32, 1.0)];
                if i > 0 {
                    row.push((i as u32 - 1, 1.0));
                }
                if (i as usize) < n - 1 {
                    row.push((i as u32 + 1, 1.0));
                }
                row
            })
            .collect();
        let model = Arc::new(MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(rows)));
        TrajectoryDatabase::with_objects(space, model, objects)
    }

    fn example_db() -> TrajectoryDatabase {
        line_db(vec![
            // Object 1 hovers around x=1.
            UncertainObject::from_pairs(1, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            // Object 2 hovers around x=5.
            UncertainObject::from_pairs(2, vec![(0, 5), (4, 5), (8, 5)]).unwrap(),
            // Object 3 sits far away at x=9.
            UncertainObject::from_pairs(3, vec![(0, 9), (4, 9), (8, 9)]).unwrap(),
            // Object 4 only exists late (t in [6, 8]) near x=0.
            UncertainObject::from_pairs(4, vec![(6, 0), (8, 0)]).unwrap(),
        ])
    }

    #[test]
    fn build_creates_one_diamond_per_segment() {
        let db = example_db();
        let tree = UstTree::build(&db);
        // Objects 1-3 have 2 segments each, object 4 has 1.
        assert_eq!(tree.num_diamonds(), 7);
        assert_eq!(tree.num_objects(), 4);
        let stats = tree.build_stats();
        assert_eq!(stats.objects, 4);
        assert_eq!(stats.segments, 7);
        assert_eq!(stats.diamonds, 7);
        assert!(stats.build_threads >= 1);
        assert!(stats.peak_frontier >= 1);
        assert_eq!(stats.reach_memo_hits + stats.reach_memo_misses, 7);
    }

    #[test]
    fn reach_memo_deduplicates_repeated_commutes() {
        // Three objects commuting identically: 1 miss, 5 hits for the
        // (1 -> 1, gap 4) commute plus 1 miss for the distinct one.
        let db = line_db(vec![
            UncertainObject::from_pairs(1, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(3, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(4, vec![(0, 2), (4, 3)]).unwrap(),
        ]);
        let cfg = UstTreeConfig { build_threads: 1, ..Default::default() };
        let tree = UstTree::build_with(&db, &cfg);
        let stats = tree.build_stats();
        assert_eq!(stats.segments, 7);
        assert_eq!(stats.reach_memo_misses, 2, "two distinct commutes");
        assert_eq!(stats.reach_memo_hits, 5);
        assert!(stats.memo_hit_rate() > 0.7);
    }

    #[test]
    fn memo_and_no_memo_builds_are_identical() {
        let db = example_db();
        let with_memo =
            UstTree::build_with(&db, &UstTreeConfig { build_threads: 1, ..Default::default() });
        let without_memo = UstTree::build_with(
            &db,
            &UstTreeConfig { build_threads: 1, reach_memo: false, ..Default::default() },
        );
        assert_eq!(without_memo.build_stats().reach_memo_hits, 0);
        assert_eq!(with_memo.num_diamonds(), without_memo.num_diamonds());
        for (a, b) in with_memo.diamonds().iter().zip(without_memo.diamonds()) {
            assert_eq!(a.object, b.object);
            assert_eq!((a.t_start, a.t_end), (b.t_start, b.t_end));
            assert_eq!(a.mbr, b.mbr);
            assert_eq!(a.per_time, b.per_time);
        }
    }

    #[test]
    fn diamonds_overlapping_respects_time() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let mut early: Vec<ObjectId> = Vec::new();
        tree.for_each_overlapping(0, 3, |d| early.push(d.object));
        assert!(!early.contains(&4), "object 4 does not exist before t=6");
        let mut late: Vec<ObjectId> = Vec::new();
        tree.for_each_overlapping(6, 8, |d| late.push(d.object));
        assert!(late.contains(&4));
    }

    #[test]
    fn pruning_near_object_one() {
        let db = example_db();
        let tree = UstTree::build(&db);
        // Query at x=1 over t in [1,3]: object 1 is the only candidate; object
        // 2 can drift at most 3 to x=2 > dmax(o1) bounds? o1 dmax <= 1+3=4,
        // o2 dmin >= 5-3=2 ... both may overlap; the important checks are that
        // the far object 3 is pruned and object 1 is a candidate.
        let result = prune_at(&tree, &[1, 2, 3], Point::new(1.0, 0.0), 1);
        assert!(result.is_candidate(1));
        assert!(!result.is_influencer(3), "object 3 can never be within reach");
        assert!(!result.is_candidate(4), "object 4 does not exist in the interval");
        assert!(result.num_candidates() <= result.num_influencers());
    }

    #[test]
    fn pruning_includes_late_object_only_when_alive() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let q = Point::new(0.0, 0.0);
        // Interval [6,8]: object 4 sits exactly at the query, object 1 nearby.
        let result = prune_at(&tree, &[6, 7, 8], q, 1);
        assert!(result.is_candidate(4));
        assert!(result.is_influencer(1));
        // Interval [2,3]: object 4 is not alive and must not appear at all.
        let result = prune_at(&tree, &[2, 3], q, 1);
        assert!(!result.is_influencer(4));
        assert!(result.is_candidate(1));
    }

    #[test]
    fn pruning_never_discards_true_candidates_vs_bruteforce() {
        // Compare against a brute-force bound computation over the reachable
        // sets (ground truth for the filter step).
        let db = example_db();
        let tree = UstTree::build(&db);
        let times: Vec<Timestamp> = vec![1, 2, 3, 4, 5];
        let q = Point::new(4.0, 0.0);
        let result = prune_at(&tree, &times, q, 1);

        // Brute force: per object per time min/max distance over reachable states.
        let space = db.state_space();
        let mut table = BoundsTable::new(times.len());
        for o in db.objects() {
            for (a, b) in o.segments() {
                let model = db.model_for(o.id());
                let sets = reachability::segment(model, (a.time, a.state), (b.time, b.state));
                for (i, &t) in times.iter().enumerate() {
                    let states = sets.at(t);
                    if states.is_empty() {
                        continue;
                    }
                    let dmin = states
                        .iter()
                        .map(|&s| space.position(s).dist(&q))
                        .fold(f64::INFINITY, f64::min);
                    let dmax = states
                        .iter()
                        .map(|&s| space.position(s).dist(&q))
                        .fold(0.0f64, f64::max);
                    table.record(o.id(), i, dmin, dmax);
                }
            }
        }
        let brute = table.evaluate(&times);
        // The UST-tree bounds are exactly the MBR-based bounds over the same
        // reachable sets, so the classifications must agree on this instance.
        assert_eq!(result.candidates, brute.candidates);
        assert_eq!(result.influencers, brute.influencers);
    }

    #[test]
    fn knn_pruning_keeps_more_objects_than_nn_pruning() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let q = Point::new(1.0, 0.0);
        let times: Vec<Timestamp> = vec![1, 2, 3];
        let k1 = prune_at(&tree, &times, q, 1);
        let k3 = prune_at(&tree, &times, q, 3);
        assert!(k3.num_candidates() >= k1.num_candidates());
        assert!(k3.num_influencers() >= k1.num_influencers());
        // With k equal to the number of alive objects, every alive object is
        // a candidate.
        assert!(k3.is_candidate(1) && k3.is_candidate(2) && k3.is_candidate(3));
    }

    #[test]
    fn empty_time_set_returns_empty_result() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let result = prune_at(&tree, &[], Point::new(0.0, 0.0), 1);
        assert!(result.candidates.is_empty());
        assert!(result.influencers.is_empty());
    }

    #[test]
    fn single_observation_objects_are_indexed() {
        let db = line_db(vec![
            UncertainObject::from_pairs(1, vec![(5, 3)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(0, 9), (9, 9)]).unwrap(),
        ]);
        let tree = UstTree::build(&db);
        assert_eq!(tree.num_diamonds(), 2);
        let result = prune_at(&tree, &[5], Point::new(3.0, 0.0), 1);
        assert!(result.is_candidate(1));
    }

    #[test]
    fn refresh_builds_only_new_segments_and_equals_a_full_build() {
        let mut db = example_db();
        let cfg = UstTreeConfig { build_threads: 1, ..Default::default() };
        let old = UstTree::build_with(&db, &cfg);
        db.append_observations(2, &[ust_trajectory::Observation::new(12, 6)]).unwrap();
        db.append_observations(5, &[ust_trajectory::Observation::new(3, 4)]).unwrap();
        // Object 5 is new: stale without being listed.
        let refreshed = old.refresh(&db, &[2, 2], 1);
        let full = UstTree::build_with(&db, &cfg);
        assert_eq!(refreshed.diamonds(), full.diamonds());
        assert_eq!(refreshed.num_objects(), 5);
        refreshed.check_invariants().unwrap();
        let stats = refreshed.build_stats();
        assert_eq!((stats.objects, stats.diamonds), (5, full.num_diamonds()));
        assert_eq!(stats.segments, 1 + 1, "object 2's new segment and object 5's one");
        assert_eq!(stats.reach_memo_hits + stats.reach_memo_misses, 2);
    }

    #[test]
    fn refresh_builds_whole_a_history_that_does_not_extend_the_old_one() {
        let cfg = UstTreeConfig { build_threads: 1, ..Default::default() };
        let old = UstTree::build_with(&example_db(), &cfg);
        // Object 2's observations at 4 and 8 were replaced, so there is no
        // observation at τ = 8 to build on from.
        let mut db = example_db();
        db.insert(UncertainObject::from_pairs(2, vec![(0, 5), (3, 4), (7, 5), (9, 6)]).unwrap());
        let refreshed = old.refresh(&db, &[2], 1);
        assert_eq!(refreshed.diamonds(), UstTree::build_with(&db, &cfg).diamonds());
        assert_eq!(refreshed.build_stats().segments, 3, "object 2's whole run");
    }

    #[test]
    fn refresh_of_an_arena_out_of_database_order_falls_back_to_a_full_build() {
        let db = example_db();
        let built = UstTree::build(&db);
        let mut shuffled = built.diamonds().to_vec();
        shuffled.reverse();
        let decoded = UstTree::from_parts(shuffled, db.len(), 32, *built.build_stats());
        let refreshed = decoded.refresh(&db, &[], 1);
        assert_eq!(refreshed.diamonds(), built.diamonds());
        assert_eq!(refreshed.build_stats().segments, 7, "every run was rebuilt");
    }

    #[test]
    fn check_invariants_rejects_stats_that_miscount_the_arena() {
        let tree = UstTree::build(&example_db());
        tree.check_invariants().unwrap();
        let stats = IndexBuildStats { diamonds: 3, ..*tree.build_stats() };
        let bad = UstTree::from_parts(tree.diamonds().to_vec(), 4, 32, stats);
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let db = example_db();
        let serial =
            UstTree::build_with(&db, &UstTreeConfig { build_threads: 1, ..Default::default() });
        for threads in [2usize, 4] {
            let sharded = UstTree::build_with(
                &db,
                &UstTreeConfig { build_threads: threads, ..Default::default() },
            );
            assert_eq!(serial.num_diamonds(), sharded.num_diamonds());
            for (a, b) in serial.diamonds().iter().zip(sharded.diamonds()) {
                assert_eq!(a.object, b.object);
                assert_eq!((a.t_start, a.t_end), (b.t_start, b.t_end));
                assert_eq!(a.mbr, b.mbr);
                assert_eq!(a.per_time, b.per_time);
            }
        }
    }
}
