//! Spatial pruning with `dmin`/`dmax` bounds (Section 6).
//!
//! For a query `q` with timestamps `T`, pruning classifies database objects:
//!
//! * **Candidates** `C∀(q)`: objects that can possibly be the nearest neighbor
//!   of `q` at *every* timestamp of `T`,
//!   `C∀(q) = {o | ∀t ∈ T: dmin(o(t), q(t)) ≤ min_{o'} dmax(o'(t), q(t))}`.
//! * **Influence objects** `I∀(q)`: objects that can possibly be the nearest
//!   neighbor at *some* timestamp; these may reduce the probabilities of
//!   candidates (and are the refinement set of the P∃NN query),
//!   `I∀(q) = {o | ∃t ∈ T: dmin(o(t), q(t)) ≤ min_{o'} dmax(o'(t), q(t))}`.
//!
//! Objects that are not alive (have no observation segment) at a timestamp
//! neither prune nor qualify at that timestamp; objects that are not alive at
//! *every* timestamp cannot be ∀-candidates.

use crate::{ObjectId, Timestamp};
use rustc_hash::FxHashMap;

/// Outcome of the UST-tree filter step for one query.
#[derive(Debug, Clone)]
pub struct PruningResult {
    /// The query timestamps (ascending) the pruning was computed for.
    pub times: Vec<Timestamp>,
    /// Objects that may be the NN at every timestamp (`C∀(q)`).
    pub candidates: Vec<ObjectId>,
    /// Objects that may be the NN at some timestamp (`I∀(q)`), a superset of
    /// `candidates`.
    pub influencers: Vec<ObjectId>,
    /// Per timestamp, the pruning distance `min_o dmax(o(t), q(t))`
    /// (`f64::INFINITY` where no object is alive).
    pub prune_distances: Vec<f64>,
}

impl PruningResult {
    /// Number of ∀-candidates, `|C(q)|` in the figures of the paper.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of influence objects, `|I(q)|` in the figures of the paper.
    pub fn num_influencers(&self) -> usize {
        self.influencers.len()
    }

    /// Whether an object survived as a ∀-candidate.
    pub fn is_candidate(&self, id: ObjectId) -> bool {
        self.candidates.contains(&id)
    }

    /// Whether an object survived as an influence object.
    pub fn is_influencer(&self, id: ObjectId) -> bool {
        self.influencers.contains(&id)
    }
}

/// Sentinel for "object not alive at this query timestamp": no real record
/// can produce it, since distances are non-negative (`dmin ≥ 0 > -∞`).
const ABSENT: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// Per-object distance bounds collected from the index, used to evaluate the
/// pruning predicates.
///
/// Bounds live in one flat arena `bounds[slot * num_times + time_idx]`
/// indexed by a per-query object-slot interner, so the filter hot loop
/// (one entry per diamond per covered timestamp) costs a vector write
/// instead of a hash lookup. Slots are handed out in first-touch order —
/// the deterministic R-tree walk order — and the evaluated
/// candidate/influence sets are sorted by object id, so results are
/// independent of the interning order.
#[derive(Debug, Default)]
pub(crate) struct BoundsTable {
    /// Object id → arena slot, interned once per diamond (not per timestamp).
    slot_of: FxHashMap<ObjectId, u32>,
    /// Arena slot → object id.
    objects: Vec<ObjectId>,
    /// `num_times` bounds per slot; [`ABSENT`] where the object has none.
    bounds: Vec<(f64, f64)>,
    num_times: usize,
}

impl BoundsTable {
    pub(crate) fn new(num_times: usize) -> Self {
        BoundsTable {
            slot_of: FxHashMap::default(),
            objects: Vec::new(),
            bounds: Vec::new(),
            num_times,
        }
    }

    /// Interns an object into its arena slot (one hash lookup per *diamond*;
    /// the per-timestamp records then index the arena directly).
    pub(crate) fn slot(&mut self, object: ObjectId) -> u32 {
        match self.slot_of.entry(object) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let slot = self.objects.len() as u32;
                e.insert(slot);
                self.objects.push(object);
                self.bounds.extend(std::iter::repeat_n(ABSENT, self.num_times));
                slot
            }
        }
    }

    /// Records bounds for `(slot, time index)`. If the slot already has
    /// bounds at that index (e.g. two adjacent segments sharing an observation
    /// timestamp), the tighter bounds are kept — which is also what turns the
    /// [`ABSENT`] sentinel into the recorded bounds on first touch.
    #[inline]
    pub(crate) fn record_at(&mut self, slot: u32, time_idx: usize, dmin: f64, dmax: f64) {
        let b = &mut self.bounds[slot as usize * self.num_times + time_idx];
        b.0 = b.0.max(dmin);
        b.1 = b.1.min(dmax);
    }

    /// [`Self::slot`] + [`Self::record_at`] in one call, for callers (tests,
    /// the brute-force reference) that do not batch per object.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn record(&mut self, object: ObjectId, time_idx: usize, dmin: f64, dmax: f64) {
        let slot = self.slot(object);
        self.record_at(slot, time_idx, dmin, dmax);
    }

    /// Evaluates the pruning predicates for 1-NN queries.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn evaluate(&self, times: &[Timestamp]) -> PruningResult {
        self.evaluate_knn(times, 1)
    }

    /// Evaluates the pruning predicates for k-NN queries: the pruning distance
    /// at every timestamp is the k-th smallest `dmax` (an object can only be
    /// part of the k-NN set if its `dmin` does not exceed it), selected in
    /// `O(n)` via `select_nth_unstable` instead of a full sort.
    pub(crate) fn evaluate_knn(&self, times: &[Timestamp], k: usize) -> PruningResult {
        if self.num_times == 0 {
            return PruningResult {
                times: Vec::new(),
                candidates: Vec::new(),
                influencers: Vec::new(),
                prune_distances: Vec::new(),
            };
        }
        let k = k.max(1);
        let mut prune_distances = vec![f64::INFINITY; self.num_times];
        let mut column: Vec<f64> = Vec::with_capacity(self.objects.len());
        for (i, prune) in prune_distances.iter_mut().enumerate() {
            column.clear();
            column.extend(
                self.bounds
                    .iter()
                    .skip(i)
                    .step_by(self.num_times)
                    .filter(|b| b.0 >= 0.0)
                    .map(|b| b.1),
            );
            if column.is_empty() {
                continue;
            }
            let nth = (k - 1).min(column.len() - 1);
            column.select_nth_unstable_by(nth, f64::total_cmp);
            *prune = column[nth];
        }
        let mut candidates = Vec::new();
        let mut influencers = Vec::new();
        for (slot, &object) in self.objects.iter().enumerate() {
            let row = &self.bounds[slot * self.num_times..(slot + 1) * self.num_times];
            let mut qualifies_everywhere = true;
            let mut qualifies_somewhere = false;
            for (i, b) in row.iter().enumerate() {
                if b.0 >= 0.0 && b.0 <= prune_distances[i] {
                    qualifies_somewhere = true;
                } else {
                    qualifies_everywhere = false;
                }
            }
            if qualifies_somewhere {
                influencers.push(object);
                if qualifies_everywhere {
                    candidates.push(object);
                }
            }
        }
        candidates.sort_unstable();
        influencers.sort_unstable();
        PruningResult { times: times.to_vec(), candidates, influencers, prune_distances }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_requires_qualification_at_every_time() {
        let times = vec![10, 11, 12];
        let mut table = BoundsTable::new(3);
        // Object 1: close at every time.
        for i in 0..3 {
            table.record(1, i, 0.0, 1.0);
        }
        // Object 2: close at time 0 only, far otherwise.
        table.record(2, 0, 0.5, 2.0);
        table.record(2, 1, 5.0, 6.0);
        table.record(2, 2, 5.0, 6.0);
        // Object 3: always far.
        for i in 0..3 {
            table.record(3, i, 10.0, 11.0);
        }
        let result = table.evaluate(&times);
        assert_eq!(result.candidates, vec![1]);
        assert_eq!(result.influencers, vec![1, 2]);
        assert!(result.is_candidate(1));
        assert!(!result.is_candidate(2));
        assert!(result.is_influencer(2));
        assert!(!result.is_influencer(3));
        assert_eq!(result.num_candidates(), 1);
        assert_eq!(result.num_influencers(), 2);
        // Pruning distances are the minima of the dmax values.
        assert_eq!(result.prune_distances, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn objects_missing_a_timestamp_cannot_be_candidates() {
        let times = vec![0, 1];
        let mut table = BoundsTable::new(2);
        table.record(1, 0, 0.0, 1.0);
        // Object 1 has no bounds at time 1 (not alive there).
        table.record(2, 0, 0.2, 3.0);
        table.record(2, 1, 0.2, 3.0);
        let result = table.evaluate(&times);
        assert_eq!(result.candidates, vec![2]);
        let mut inf = result.influencers.clone();
        inf.sort_unstable();
        assert_eq!(inf, vec![1, 2]);
    }

    #[test]
    fn tie_on_the_pruning_distance_keeps_both_objects() {
        let times = vec![0];
        let mut table = BoundsTable::new(1);
        table.record(1, 0, 1.0, 1.0);
        table.record(2, 0, 1.0, 1.0);
        let result = table.evaluate(&times);
        assert_eq!(result.candidates, vec![1, 2]);
    }

    #[test]
    fn overlapping_segment_bounds_are_tightened() {
        let mut table = BoundsTable::new(1);
        table.record(1, 0, 0.0, 5.0);
        table.record(1, 0, 1.0, 3.0);
        let result = table.evaluate(&[7]);
        assert_eq!(result.prune_distances, vec![3.0]);
    }

    #[test]
    fn empty_table_prunes_everything() {
        let table = BoundsTable::new(2);
        let result = table.evaluate(&[0, 1]);
        assert!(result.candidates.is_empty());
        assert!(result.influencers.is_empty());
        assert!(result.prune_distances.iter().all(|d| d.is_infinite()));
    }
}
