//! Result and statistics types shared by the query algorithms.

use crate::{ObjectId, Timestamp};
use std::time::Duration;

/// One object together with its estimated result probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectProbability {
    /// The database object.
    pub object: ObjectId,
    /// The estimated probability (P∃NN or P∀NN, depending on the query).
    pub probability: f64,
}

/// Phase timings and filter statistics of one query evaluation. These are the
/// quantities plotted in the efficiency figures of the paper: the adaptation
/// time ("TS"), the sampling/refinement time ("FA"/"EX"/"SA"), and the sizes
/// of the candidate and influence sets (`|C(q)|`, `|I(q)|`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Number of ∀-candidates after pruning (`|C(q)|`).
    pub candidates: usize,
    /// Number of influence objects after pruning (`|I(q)|`).
    pub influencers: usize,
    /// Wall-clock time spent adapting transition matrices (the "TS" phase)
    /// over the observations that bracket the query window. Only *cold*
    /// work counts: influence objects answered from the model cache cost a
    /// lookup, not TS work, so a repeated query reports `Duration::ZERO`
    /// here instead of silently inflating the TS column. Time spent
    /// blocking on adaptations a *concurrent* query claimed first is
    /// included (this query waited that long for its TS phase) even though
    /// the work counts toward the other query's `cold_adaptations`.
    pub adaptation_time: Duration,
    /// Influence objects whose adapted model came from the cache: their
    /// whole-history model, or a model of the same observation bracket an
    /// earlier query adapted.
    pub cache_hits: usize,
    /// Influence objects whose forward–backward adaptation actually ran for
    /// this query, one bracket each (`cache_hits + cold_adaptations ==
    /// influencers`). A model adapted for one window is cold again for a
    /// window that brackets the object differently.
    pub cold_adaptations: usize,
    /// Wall-clock time spent sampling possible worlds and evaluating them
    /// (the "FA"/"EX"/"SA" phase): the sum of
    /// [`world_generation_time`](Self::world_generation_time) and the NN
    /// evaluation of the sampled worlds.
    pub sampling_time: Duration,
    /// The world-generation part of [`sampling_time`](Self::sampling_time):
    /// the block fills that draw the possible worlds. The rest is NN
    /// evaluation.
    pub world_generation_time: Duration,
    /// Number of possible worlds sampled.
    pub worlds: usize,
    /// Deepest lattice level reached by a PCNN query, i.e. the size of the
    /// largest qualifying timestamp set across all candidates. Zero for
    /// non-PCNN semantics.
    pub max_level: usize,
    /// Peak Apriori frontier width of a PCNN query: the largest number of
    /// qualifying sets on one lattice level of one candidate. Together with
    /// [`max_level`](Self::max_level) this makes the small-τ lattice blow-up
    /// of Section 4.3 (Figure 14) observable. Zero for non-PCNN semantics.
    pub frontier_peak: usize,
    /// Wall-clock time of the filter (pruning) phase.
    pub filter_time: Duration,
    /// Wall-clock time of the PCNN lattice expansion. Zero for non-PCNN
    /// semantics (their refinement cost is all in
    /// [`sampling_time`](Self::sampling_time)).
    pub mining_time: Duration,
    /// Number of budget checkpoints polled during the evaluation (see
    /// [`crate::govern`]). Zero when the engine runs with an unlimited
    /// budget is *not* guaranteed — checkpoints are polled either way; the
    /// counter measures governance overhead, not whether a budget was set.
    pub budget_checkpoints: usize,
    /// Number of worlds the evaluation *asked* for
    /// ([`EngineConfig::num_samples`](crate::EngineConfig)).
    /// [`worlds`](Self::worlds) is what it actually sampled; the two differ
    /// exactly when [`degraded`](Self::degraded) is set or a `max_worlds`
    /// cap truncated the run.
    pub worlds_requested: usize,
    /// Whether any phase degraded instead of completing: the sampling loop
    /// stopped before `worlds_requested` (deadline or `max_worlds` cap), or
    /// the PCNN lattice stopped expanding early. Degraded probabilities are
    /// unbiased but coarser (fewer worlds ⇒ wider Monte-Carlo confidence
    /// interval); degraded PCNN results are an exact under-approximation.
    pub degraded: bool,
}

/// Outcome of a P∃NNQ / P∀NNQ (or their kNN generalisations).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Qualifying objects (probability ≥ τ), sorted by decreasing probability.
    pub results: Vec<ObjectProbability>,
    /// Evaluation statistics.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// Probability of a specific object among the results (zero if absent).
    pub fn probability_of(&self, id: ObjectId) -> f64 {
        self.results
            .iter()
            .find(|r| r.object == id)
            .map(|r| r.probability)
            .unwrap_or(0.0)
    }

    /// Whether the object qualified.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.results.iter().any(|r| r.object == id)
    }
}

/// The qualifying timestamp sets of one object, back to back in one flat
/// arena: every set's timestamps in one vector, each set's end offset in a
/// second and its probability in a third. At small `τ` one object qualifies
/// tens of thousands of sets (Figure 14), so the arena replaces one
/// allocation per set with three growing vectors.
///
/// Iteration (`iter()` or `for (set, p) in &sets`) yields
/// `(&[Timestamp], &f64)` pairs in insertion order; the PCNN miner inserts in
/// Apriori order, by set size and then lexicographically.
#[derive(Clone, Default, PartialEq)]
pub struct TimestampSets {
    items: Vec<Timestamp>,
    ends: Vec<usize>,
    probabilities: Vec<f64>,
}

impl TimestampSets {
    /// Number of sets.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the arena holds no set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The sets with their probabilities, in insertion order.
    pub fn iter(&self) -> TimestampSetsIter<'_> {
        TimestampSetsIter {
            items: &self.items,
            start: 0,
            ends: self.ends.iter(),
            probabilities: self.probabilities.iter(),
        }
    }

    /// Appends one set with its probability.
    pub fn push(&mut self, set: &[Timestamp], probability: f64) {
        self.items.extend_from_slice(set);
        self.close(probability);
    }

    /// Appends set `i` extended by `last`, which must exceed every element
    /// of set `i` for the result to stay ascending.
    #[inline]
    pub(crate) fn push_extension(&mut self, i: usize, last: Timestamp, probability: f64) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        self.items.extend_from_within(start..self.ends[i]);
        self.items.push(last);
        self.close(probability);
    }

    /// Keeps the first `len` sets.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.items.truncate(if len == 0 { 0 } else { self.ends[len - 1] });
            self.ends.truncate(len);
            self.probabilities.truncate(len);
        }
    }

    /// Replaces every timestamp `t` of every set by `f(t)`, in place.
    pub(crate) fn map_timestamps(&mut self, f: impl Fn(Timestamp) -> Timestamp) {
        for t in &mut self.items {
            *t = f(*t);
        }
    }

    /// Ends the set whose timestamps were just appended.
    #[inline]
    fn close(&mut self, probability: f64) {
        self.ends.push(self.items.len());
        self.probabilities.push(probability);
    }
}

impl std::fmt::Debug for TimestampSets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a TimestampSets {
    type Item = (&'a [Timestamp], &'a f64);
    type IntoIter = TimestampSetsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the sets of a [`TimestampSets`] arena.
#[derive(Debug, Clone)]
pub struct TimestampSetsIter<'a> {
    items: &'a [Timestamp],
    start: usize,
    ends: std::slice::Iter<'a, usize>,
    probabilities: std::slice::Iter<'a, f64>,
}

impl<'a> Iterator for TimestampSetsIter<'a> {
    type Item = (&'a [Timestamp], &'a f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let end = *self.ends.next()?;
        let set = &self.items[self.start..end];
        self.start = end;
        Some((set, self.probabilities.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

/// One PCNN result entry: an object together with the qualifying timestamp
/// sets and their probabilities (Definition 3).
#[derive(Debug, Clone)]
pub struct PcnnObjectResult {
    /// The database object.
    pub object: ObjectId,
    /// Qualifying timestamp sets `T_i` with `P∀NN(o, q, T_i) ≥ τ`, each with
    /// its estimated probability, by set size and then lexicographically.
    pub sets: TimestampSets,
    /// Number of candidate sets the lattice validated for *this* object.
    ///
    /// Candidates whose lattice qualified no set at all get no
    /// [`PcnnObjectResult`] row, so summing this field over the results can
    /// fall short of [`PcnnOutcome::candidate_sets_evaluated`], which also
    /// counts the validation work those empty-handed candidates cost.
    pub candidate_sets_evaluated: usize,
}

/// Outcome of a PCNNQ.
#[derive(Debug, Clone)]
pub struct PcnnOutcome {
    /// Per-object qualifying timestamp sets.
    pub results: Vec<PcnnObjectResult>,
    /// Evaluation statistics.
    pub stats: QueryStats,
    /// Number of candidate timestamp sets generated by the Apriori lattice
    /// (all validation steps performed).
    pub candidate_sets_evaluated: usize,
}

impl PcnnOutcome {
    /// Total number of qualifying `(object, timestamp set)` pairs — the
    /// "#Timestamp Sets" series of Figures 13 and 14.
    pub fn total_result_sets(&self) -> usize {
        self.results.iter().map(|r| r.sets.len()).sum()
    }

    /// The qualifying sets of a specific object.
    pub fn sets_of(&self, id: ObjectId) -> Option<&TimestampSets> {
        self.results.iter().find(|r| r.object == id).map(|r| &r.sets)
    }

    /// Deepest lattice level reached (size of the largest qualifying set).
    pub fn max_level(&self) -> usize {
        self.stats.max_level
    }

    /// Peak Apriori frontier width across all candidates.
    pub fn frontier_peak(&self) -> usize {
        self.stats.frontier_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_lookup_helpers() {
        let outcome = QueryOutcome {
            results: vec![
                ObjectProbability { object: 3, probability: 0.8 },
                ObjectProbability { object: 5, probability: 0.4 },
            ],
            stats: QueryStats::default(),
        };
        assert_eq!(outcome.probability_of(3), 0.8);
        assert_eq!(outcome.probability_of(9), 0.0);
        assert!(outcome.contains(5));
        assert!(!outcome.contains(9));
    }

    fn arena(sets: &[(&[Timestamp], f64)]) -> TimestampSets {
        let mut arena = TimestampSets::default();
        for &(set, p) in sets {
            arena.push(set, p);
        }
        arena
    }

    #[test]
    fn timestamp_sets_keep_boundaries_and_order() {
        let empty = TimestampSets::default();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.iter().next(), None);
        assert_eq!(format!("{empty:?}"), "[]");

        // An empty set between two others keeps both neighbours' bounds.
        let mut sets = arena(&[(&[4], 0.5), (&[], 1.0), (&[1, 7, 9], 0.25)]);
        assert!(!sets.is_empty());
        assert_eq!(sets.len(), 3);
        let seen: Vec<(&[Timestamp], f64)> = sets.iter().map(|(s, &p)| (s, p)).collect();
        assert_eq!(seen, [(&[4][..], 0.5), (&[][..], 1.0), (&[1, 7, 9][..], 0.25)]);
        assert_eq!(format!("{sets:?}"), "[([4], 0.5), ([], 1.0), ([1, 7, 9], 0.25)]");

        sets.push_extension(0, 6, 0.125);
        sets.push_extension(2, 11, 0.0625);
        let last: Vec<Vec<Timestamp>> =
            (&sets).into_iter().skip(3).map(|(s, _)| s.to_vec()).collect();
        assert_eq!(last, [vec![4, 6], vec![1, 7, 9, 11]]);

        sets.map_timestamps(|t| 10 * t);
        assert_eq!(
            sets,
            arena(&[
                (&[40], 0.5),
                (&[], 1.0),
                (&[10, 70, 90], 0.25),
                (&[40, 60], 0.125),
                (&[10, 70, 90, 110], 0.0625),
            ])
        );

        sets.truncate(5);
        assert_eq!(sets.len(), 5, "truncating to the length keeps everything");
        sets.truncate(2);
        assert_eq!(sets, arena(&[(&[40], 0.5), (&[], 1.0)]));
        sets.push(&[3], 0.75);
        assert_eq!(sets, arena(&[(&[40], 0.5), (&[], 1.0), (&[3], 0.75)]), "no stale items");
        sets.truncate(0);
        assert_eq!(sets, TimestampSets::default());
    }

    #[test]
    fn pcnn_outcome_counts_sets() {
        let outcome = PcnnOutcome {
            results: vec![
                PcnnObjectResult {
                    object: 1,
                    sets: arena(&[(&[1], 0.9), (&[1, 2], 0.6)]),
                    candidate_sets_evaluated: 5,
                },
                PcnnObjectResult {
                    object: 2,
                    sets: arena(&[(&[3], 0.5)]),
                    candidate_sets_evaluated: 2,
                },
            ],
            stats: QueryStats { max_level: 2, frontier_peak: 2, ..Default::default() },
            candidate_sets_evaluated: 7,
        };
        assert_eq!(outcome.total_result_sets(), 3);
        assert_eq!(outcome.sets_of(1).unwrap().len(), 2);
        assert_eq!(outcome.sets_of(2), Some(&arena(&[(&[3], 0.5)])));
        assert!(outcome.sets_of(4).is_none());
        assert_eq!(outcome.max_level(), 2);
        assert_eq!(outcome.frontier_peak(), 2);
        // The outcome total may exceed the per-object sum: candidates whose
        // lattice qualified nothing still cost validation work but get no
        // result row.
        let per_object: usize = outcome.results.iter().map(|r| r.candidate_sets_evaluated).sum();
        assert!(per_object <= outcome.candidate_sets_evaluated);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let stats = QueryStats::default();
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.influencers, 0);
        assert_eq!(stats.worlds, 0);
        assert_eq!(stats.adaptation_time, Duration::ZERO);
        assert_eq!(stats.sampling_time, Duration::ZERO);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cold_adaptations, 0);
        assert_eq!(stats.max_level, 0);
        assert_eq!(stats.frontier_peak, 0);
        assert_eq!(stats.filter_time, Duration::ZERO);
        assert_eq!(stats.mining_time, Duration::ZERO);
        assert_eq!(stats.budget_checkpoints, 0);
        assert_eq!(stats.worlds_requested, 0);
        assert!(!stats.degraded);
    }
}
