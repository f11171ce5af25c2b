//! Per-structure encoders and validating decoders.
//!
//! Encoders write one canonical byte form per value: keyed structures
//! (per-object model overrides, transition-table rows) are emitted in
//! ascending key order, so encode→decode→encode is byte-identical. The
//! decoders validate every structural invariant the in-memory constructors
//! rely on — sortedness, positivity, finiteness, ids in range — *before*
//! handing values to those constructors, so a decoded store can never smuggle
//! a panic into later query processing (`CsrMatrix::row`,
//! `StateSpace::position`, `Rect::new` and friends all index or assert on
//! exactly the invariants checked here).

use crate::error::StoreError;
use crate::format::{ByteReader, ByteWriter};
use rustc_hash::FxHashSet;
use std::sync::Arc;
use ust_index::{Diamond, IndexBuildStats, UstTree};
use ust_markov::{AdaptedModel, AliasKernel, CsrMatrix, MarkovModel, SparseDist};
use ust_markov::{StepRows, TransitionRow};
use ust_spatial::{Point, Rect2, StateId, StateSpace};
use ust_trajectory::{ObjectId, Timestamp, TrajectoryDatabase, UncertainObject};

/// Model-kind tag: homogeneous (one matrix for all timestamps).
const MODEL_HOMOGENEOUS: u8 = 0;
/// Model-kind tag: time-varying (one matrix per timestamp offset).
const MODEL_TIME_VARYING: u8 = 1;

// ---------------------------------------------------------------------------
// State space
// ---------------------------------------------------------------------------

pub(crate) fn encode_state_space(w: &mut ByteWriter, space: &StateSpace) {
    w.u64(space.len() as u64);
    for p in space.positions() {
        w.f64(p.x);
        w.f64(p.y);
    }
}

pub(crate) fn decode_state_space(r: &mut ByteReader<'_>) -> Result<StateSpace, StoreError> {
    r.set_context("state space");
    let n = r.count("state positions", 16)?;
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.f64()?;
        let y = r.f64()?;
        if !x.is_finite() || !y.is_finite() {
            return Err(StoreError::Malformed { context: "state position is not finite" });
        }
        positions.push(Point::new(x, y));
    }
    Ok(StateSpace::from_points(positions))
}

// ---------------------------------------------------------------------------
// Transition matrices and models
// ---------------------------------------------------------------------------

pub(crate) fn encode_csr(w: &mut ByteWriter, m: &CsrMatrix) {
    w.u64(m.num_states() as u64);
    for i in 0..m.num_states() {
        let (cols, vals) = m.row(i as StateId);
        w.u64(cols.len() as u64);
        for (&c, &v) in cols.iter().zip(vals) {
            w.u32(c);
            w.f64(v);
        }
    }
}

pub(crate) fn decode_csr(r: &mut ByteReader<'_>) -> Result<CsrMatrix, StoreError> {
    r.set_context("transition matrix");
    let num_states = r.count("matrix rows", 8)?;
    let mut rows: Vec<Vec<(StateId, f64)>> = Vec::with_capacity(num_states);
    for _ in 0..num_states {
        let n = r.count("matrix row entries", 12)?;
        let mut row = Vec::with_capacity(n);
        let mut prev: Option<StateId> = None;
        for _ in 0..n {
            let col = r.u32()?;
            let val = r.f64()?;
            if col as usize >= num_states {
                return Err(StoreError::Malformed { context: "matrix column out of range" });
            }
            if prev.is_some_and(|p| p >= col) {
                return Err(StoreError::Malformed {
                    context: "matrix columns not strictly increasing",
                });
            }
            if !val.is_finite() || val <= 0.0 {
                return Err(StoreError::Malformed {
                    context: "matrix value not positive and finite",
                });
            }
            prev = Some(col);
            row.push((col, val));
        }
        rows.push(row);
    }
    // The input is sorted, duplicate-free and strictly positive, so
    // `from_rows` stores it verbatim: the CSR layout is bit-identical to the
    // encoded matrix.
    Ok(CsrMatrix::from_rows(rows))
}

pub(crate) fn encode_model(w: &mut ByteWriter, model: &MarkovModel) {
    match model {
        MarkovModel::Homogeneous(m) => {
            w.u8(MODEL_HOMOGENEOUS);
            encode_csr(w, m);
        }
        MarkovModel::TimeVarying(ms) => {
            w.u8(MODEL_TIME_VARYING);
            w.u64(ms.len() as u64);
            for m in ms.iter() {
                encode_csr(w, m);
            }
        }
    }
}

pub(crate) fn decode_model(
    r: &mut ByteReader<'_>,
    num_states: usize,
) -> Result<MarkovModel, StoreError> {
    r.set_context("a-priori model");
    let check = |m: &CsrMatrix| {
        if m.num_states() == num_states {
            Ok(())
        } else {
            Err(StoreError::Malformed {
                context: "model state count disagrees with the state space",
            })
        }
    };
    match r.u8()? {
        MODEL_HOMOGENEOUS => {
            let m = decode_csr(r)?;
            check(&m)?;
            Ok(MarkovModel::homogeneous(m))
        }
        MODEL_TIME_VARYING => {
            let n = r.count("time-varying matrices", 8)?;
            if n == 0 {
                return Err(StoreError::Malformed {
                    context: "time-varying model has no matrices",
                });
            }
            let mut ms = Vec::with_capacity(n);
            for _ in 0..n {
                let m = decode_csr(r)?;
                check(&m)?;
                ms.push(m);
            }
            Ok(MarkovModel::time_varying(ms))
        }
        _ => Err(StoreError::Malformed { context: "unknown model kind tag" }),
    }
}

// ---------------------------------------------------------------------------
// Sparse distributions and transition tables
// ---------------------------------------------------------------------------

pub(crate) fn encode_dist(w: &mut ByteWriter, d: &SparseDist) {
    encode_entries(w, d.support_size(), d.iter());
}

/// The entry-list form shared by distributions and transition rows: a count,
/// then `(state, probability)` pairs.
fn encode_entries(w: &mut ByteWriter, n: usize, entries: impl Iterator<Item = (StateId, f64)>) {
    w.u64(n as u64);
    for (s, p) in entries {
        w.u32(s);
        w.f64(p);
    }
}

/// Reads `n` entries of an entry list, validating each before handing it to
/// `push`: state in range, states strictly increasing, probability positive
/// and finite.
fn decode_entries(
    r: &mut ByteReader<'_>,
    num_states: usize,
    n: usize,
    mut push: impl FnMut(StateId, f64),
) -> Result<(), StoreError> {
    let mut prev: Option<StateId> = None;
    for _ in 0..n {
        let state = r.u32()?;
        let prob = r.f64()?;
        if state as usize >= num_states {
            return Err(StoreError::Malformed { context: "distribution state out of range" });
        }
        if prev.is_some_and(|p| p >= state) {
            return Err(StoreError::Malformed {
                context: "distribution states not strictly increasing",
            });
        }
        if !prob.is_finite() || prob <= 0.0 {
            return Err(StoreError::Malformed {
                context: "distribution probability not positive and finite",
            });
        }
        prev = Some(state);
        push(state, prob);
    }
    Ok(())
}

pub(crate) fn decode_dist(
    r: &mut ByteReader<'_>,
    num_states: usize,
) -> Result<SparseDist, StoreError> {
    let n = r.count("distribution entries", 12)?;
    let mut entries = Vec::with_capacity(n);
    decode_entries(r, num_states, n, |state, prob| entries.push((state, prob)))?;
    // Sorted, duplicate-free, strictly positive: `from_sorted` adopts the
    // entries verbatim and recomputes the cached mass with the same
    // left-to-right fold the original used — bit-identical round trip.
    Ok(SparseDist::from_sorted(entries))
}

/// Writes one step of transition rows, already in increasing source order.
pub(crate) fn encode_table<'a>(
    w: &mut ByteWriter,
    rows: impl ExactSizeIterator<Item = (StateId, TransitionRow<'a>)>,
) {
    w.u64(rows.len() as u64);
    for (state, row) in rows {
        w.u32(state);
        encode_entries(w, row.len(), row.iter());
    }
}

/// Reads one step of transition rows straight into `rows`. The rows were
/// stored normalized and are adopted as they are: renormalizing them would
/// change their bits.
pub(crate) fn decode_table(
    r: &mut ByteReader<'_>,
    num_states: usize,
    rows: &mut StepRows,
) -> Result<(), StoreError> {
    let n = r.count("transition-table rows", 12)?;
    let mut prev: Option<StateId> = None;
    for _ in 0..n {
        let state = r.u32()?;
        if state as usize >= num_states {
            return Err(StoreError::Malformed {
                context: "transition-table source state out of range",
            });
        }
        if prev.is_some_and(|p| p >= state) {
            return Err(StoreError::Malformed {
                context: "transition-table rows not strictly increasing",
            });
        }
        prev = Some(state);
        let entries = r.count("distribution entries", 12)?;
        decode_entries(r, num_states, entries, |target, prob| rows.push_slot(target, prob))?;
        rows.finish_row(state);
    }
    rows.finish_step();
    Ok(())
}

// ---------------------------------------------------------------------------
// Adapted models
// ---------------------------------------------------------------------------

pub(crate) fn encode_adapted(w: &mut ByteWriter, m: &AdaptedModel) {
    let obs = m.observations();
    w.u64(obs.len() as u64);
    for &(t, s) in obs {
        w.u32(t);
        w.u32(s);
    }
    for t in m.start()..=m.end() {
        // lint: allow(P001) encode side: t iterates the model's own [start, end] range
        encode_dist(w, m.posterior_at(t).expect("t inside the covered interval"));
    }
    for t in m.start()..m.end() {
        // lint: allow(P001) encode side: t iterates the model's own [start, end) range
        encode_table(w, m.transition_table(t).expect("t inside [start, end)"));
    }
}

pub(crate) fn decode_adapted(
    r: &mut ByteReader<'_>,
    num_states: usize,
) -> Result<AdaptedModel, StoreError> {
    r.set_context("adapted model");
    let n = r.count("adapted-model observations", 8)?;
    if n == 0 {
        return Err(StoreError::Malformed { context: "adapted model has no observations" });
    }
    let mut observations: Vec<(Timestamp, StateId)> = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.u32()?;
        let s = r.u32()?;
        if s as usize >= num_states {
            return Err(StoreError::Malformed { context: "observation state out of range" });
        }
        if observations.last().is_some_and(|&(prev, _)| prev >= t) {
            return Err(StoreError::Malformed {
                context: "observation times not strictly increasing",
            });
        }
        observations.push((t, s));
    }
    let Some((&(start, _), &(end, _))) = observations.first().zip(observations.last()) else {
        return Err(StoreError::Malformed { context: "adapted model has no observations" });
    };
    let horizon = (end - start) as u64;
    // The marginal and table vectors are sized from the observation span, not
    // from a stored count — prove the input can back them (each of the
    // horizon + 1 marginals and the horizon tables costs at least its 8-byte
    // length field) before allocating.
    let min_needed = (horizon + 1) * 8 + horizon * 8;
    if min_needed > r.remaining() as u64 {
        return Err(StoreError::CountOverflow {
            context: "adapted-model horizon",
            count: horizon + 1,
        });
    }
    let horizon = horizon as usize;
    // lint: allow(A001) horizon is pre-checked against remaining() by the min_needed guard above
    let mut posterior = Vec::with_capacity(horizon + 1);
    for _ in 0..=horizon {
        posterior.push(decode_dist(r, num_states)?);
    }
    let mut transitions = StepRows::new();
    for _ in 0..horizon {
        decode_table(r, num_states, &mut transitions)?;
    }
    // The alias tables are NOT part of the MODELS section: they are a
    // deterministic pure function of the transition rows, rebuilt here from
    // the decoded rows — so a store-loaded model samples identically to the
    // freshly adapted one it was encoded from, with zero format change.
    // `from_parts` also rejects rows that leave a walk without a way on.
    AdaptedModel::from_parts(observations, posterior, AliasKernel::from_rows(transitions))
        .map_err(|context| StoreError::Malformed { context })
}

// ---------------------------------------------------------------------------
// Objects and the trajectory database
// ---------------------------------------------------------------------------

pub(crate) fn encode_object(w: &mut ByteWriter, o: &UncertainObject) {
    w.u32(o.id());
    w.u64(o.num_observations() as u64);
    for obs in o.observations() {
        w.u32(obs.time);
        w.u32(obs.state);
    }
}

pub(crate) fn decode_object(
    r: &mut ByteReader<'_>,
    num_states: usize,
) -> Result<UncertainObject, StoreError> {
    let id = r.u32()?;
    let n = r.count("object observations", 8)?;
    let mut pairs: Vec<(Timestamp, StateId)> = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.u32()?;
        let s = r.u32()?;
        if s as usize >= num_states {
            return Err(StoreError::Malformed { context: "observation state out of range" });
        }
        pairs.push((t, s));
    }
    UncertainObject::from_pairs(id, pairs).map_err(|e| match e {
        ust_trajectory::ObservationError::Empty => {
            StoreError::Malformed { context: "object has no observations" }
        }
        ust_trajectory::ObservationError::NotStrictlyIncreasing { .. } => {
            StoreError::Malformed { context: "observation times not strictly increasing" }
        }
    })
}

pub(crate) fn encode_database(w: &mut ByteWriter, db: &TrajectoryDatabase) {
    encode_state_space(w, db.state_space());
    encode_model(w, db.shared_model());
    w.u64(db.len() as u64);
    for o in db.objects() {
        encode_object(w, o);
    }
    let overrides = db.model_overrides();
    w.u64(overrides.len() as u64);
    for (id, model) in overrides {
        w.u32(id);
        encode_model(w, model);
    }
}

pub(crate) fn decode_database(
    r: &mut ByteReader<'_>,
) -> Result<TrajectoryDatabase, StoreError> {
    let space = decode_state_space(r)?;
    let num_states = space.len();
    let shared = decode_model(r, num_states)?;
    r.set_context("objects");
    let n = r.count("objects", 20)?;
    let mut objects = Vec::with_capacity(n);
    let mut seen: FxHashSet<ObjectId> = FxHashSet::default();
    for _ in 0..n {
        let o = decode_object(r, num_states)?;
        if !seen.insert(o.id()) {
            return Err(StoreError::Malformed { context: "duplicate object id" });
        }
        objects.push(o);
    }
    let mut db =
        TrajectoryDatabase::with_objects(Arc::new(space), Arc::new(shared), objects);
    r.set_context("model overrides");
    let n = r.count("model overrides", 12)?;
    let mut prev: Option<ObjectId> = None;
    for _ in 0..n {
        let id = r.u32()?;
        if prev.is_some_and(|p| p >= id) {
            return Err(StoreError::Malformed {
                context: "model overrides not strictly increasing",
            });
        }
        prev = Some(id);
        let model = decode_model(r, num_states)?;
        db.set_object_model(id, Arc::new(model));
    }
    Ok(db)
}

// ---------------------------------------------------------------------------
// Diamonds and the UST-tree
// ---------------------------------------------------------------------------

fn encode_rect2(w: &mut ByteWriter, rect: &Rect2) {
    w.f64(rect.min[0]);
    w.f64(rect.min[1]);
    w.f64(rect.max[0]);
    w.f64(rect.max[1]);
}

fn decode_rect2(r: &mut ByteReader<'_>) -> Result<Rect2, StoreError> {
    let min = [r.f64()?, r.f64()?];
    let max = [r.f64()?, r.f64()?];
    let valid = min.iter().zip(&max).all(|(lo, hi)| lo.is_finite() && hi.is_finite() && lo <= hi);
    if !valid {
        return Err(StoreError::Malformed { context: "diamond rectangle" });
    }
    Ok(Rect2 { min, max })
}

pub(crate) fn encode_tree(w: &mut ByteWriter, tree: &UstTree) {
    w.u64(tree.rtree_capacity() as u64);
    w.u64(tree.num_objects() as u64);
    let stats = tree.build_stats();
    // The wall-clock build time and the reach-memo hit/miss counts (raced
    // between build threads) are written as 0, so saving one database twice
    // gives the same bytes; a decoded tree reports no build work. The
    // decoder still accepts the non-zero values older stores hold.
    w.u64(0);
    w.u64(stats.build_threads as u64);
    w.u64(stats.objects as u64);
    w.u64(stats.segments as u64);
    w.u64(stats.diamonds as u64);
    w.u64(0);
    w.u64(0);
    w.u64(stats.peak_frontier as u64);
    w.u64(tree.num_diamonds() as u64);
    for d in tree.diamonds() {
        w.u32(d.object);
        w.u32(d.t_start);
        w.u32(d.t_end);
        encode_rect2(w, &d.mbr);
        for rect in &d.per_time {
            encode_rect2(w, rect);
        }
    }
}

pub(crate) fn decode_tree(
    r: &mut ByteReader<'_>,
    db: &TrajectoryDatabase,
) -> Result<UstTree, StoreError> {
    r.set_context("tree header");
    let capacity = read_usize(r)?;
    if capacity < 4 {
        return Err(StoreError::Malformed { context: "R*-tree capacity below minimum" });
    }
    let num_objects = read_usize(r)?;
    if num_objects != db.len() {
        return Err(StoreError::Malformed {
            context: "tree object count disagrees with the database",
        });
    }
    let stats = IndexBuildStats {
        build_time: std::time::Duration::from_nanos(r.u64()?),
        build_threads: read_usize(r)?,
        objects: read_usize(r)?,
        segments: read_usize(r)?,
        diamonds: read_usize(r)?,
        reach_memo_hits: read_usize(r)?,
        reach_memo_misses: read_usize(r)?,
        peak_frontier: read_usize(r)?,
    };
    r.set_context("diamonds");
    let known: FxHashSet<ObjectId> = db.objects().iter().map(|o| o.id()).collect();
    // A diamond is at least its object and interval (12 bytes), its MBR and
    // one per-time rectangle (32 bytes each).
    let n = r.count("diamonds", 76)?;
    if stats.diamonds != n {
        return Err(StoreError::Malformed {
            context: "tree stats disagree with the diamond count",
        });
    }
    let mut diamonds = Vec::with_capacity(n);
    for _ in 0..n {
        let object = r.u32()?;
        if !known.contains(&object) {
            return Err(StoreError::Malformed { context: "diamond references unknown object" });
        }
        let t_start = r.u32()?;
        let t_end = r.u32()?;
        if t_start > t_end {
            return Err(StoreError::Malformed { context: "diamond time interval inverted" });
        }
        let mbr = decode_rect2(r)?;
        // One rect per covered timestamp — the count is implied by the time
        // interval, so bound it against the remaining input before
        // allocating.
        let count = u64::from(t_end - t_start) + 1;
        if count * 32 > r.remaining() as u64 {
            return Err(StoreError::CountOverflow { context: "diamond per-time rectangles", count });
        }
        let mut per_time = Vec::with_capacity(count as usize);
        for _ in 0..count {
            per_time.push(decode_rect2(r)?);
        }
        diamonds.push(Diamond { object, t_start, t_end, mbr, per_time });
    }
    // The R-tree itself is not stored: STR bulk loading is deterministic, so
    // rebuilding it from the validated diamond arena reproduces the original
    // tree shape exactly (see `UstTree::from_parts`).
    Ok(UstTree::from_parts(diamonds, num_objects, capacity, stats))
}

/// Reads a `u64` that must fit a `usize` (counters, capacities).
fn read_usize(r: &mut ByteReader<'_>) -> Result<usize, StoreError> {
    usize::try_from(r.u64()?)
        .map_err(|_| StoreError::Malformed { context: "counter exceeds the address space" })
}

// ---------------------------------------------------------------------------
// Adapted-model section
// ---------------------------------------------------------------------------

pub(crate) fn encode_models(w: &mut ByteWriter, models: &[(ObjectId, Arc<AdaptedModel>)]) {
    let mut sorted: Vec<&(ObjectId, Arc<AdaptedModel>)> = models.iter().collect();
    sorted.sort_unstable_by_key(|&&(id, _)| id);
    w.u64(sorted.len() as u64);
    for &(id, ref model) in sorted {
        w.u32(id);
        encode_adapted(w, model);
    }
}

pub(crate) fn decode_models(
    r: &mut ByteReader<'_>,
    db: &TrajectoryDatabase,
) -> Result<Vec<(ObjectId, Arc<AdaptedModel>)>, StoreError> {
    r.set_context("adapted models");
    let num_states = db.state_space().len();
    let known: FxHashSet<ObjectId> = db.objects().iter().map(|o| o.id()).collect();
    let n = r.count("adapted models", 12)?;
    let mut models = Vec::with_capacity(n);
    let mut prev: Option<ObjectId> = None;
    for _ in 0..n {
        let id = r.u32()?;
        if prev.is_some_and(|p| p >= id) {
            return Err(StoreError::Malformed {
                context: "adapted models not strictly increasing",
            });
        }
        if !known.contains(&id) {
            return Err(StoreError::Malformed {
                context: "adapted model references unknown object",
            });
        }
        prev = Some(id);
        models.push((id, Arc::new(decode_adapted(r, num_states)?)));
    }
    Ok(models)
}
