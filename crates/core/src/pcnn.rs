//! The Apriori-style lattice of Algorithm 1 (PCτNN), mined vertically.
//!
//! The PCNN query asks, per object, for the timestamp subsets `T_i ⊆ T` on
//! which the object is a ∀-nearest-neighbor with probability at least `τ`.
//! The number of subsets is exponential, but the probability
//! `P∀NN(o, q, T_i)` is *anti-monotone*: if `T_j ⊆ T_i` then
//! `P∀NN(o, q, T_i) ≤ P∀NN(o, q, T_j)`. Algorithm 1 therefore explores the
//! subset lattice level by level exactly like the Apriori frequent-itemset
//! algorithm \[27\]: a `k`-subset is only generated (and validated) if all of
//! its `(k-1)`-subsets qualified.
//!
//! ## Vertical representation
//!
//! The validation step — estimating `P∀NN(o, q, T_k)` — uses the Monte-Carlo
//! machinery. The *horizontal* layout stores, per sampled world, the set of
//! query timestamps at which the object is a nearest neighbor (a
//! [`TimeMask`]); validating one candidate set then costs a containment test
//! against **every** world mask, i.e. `O(worlds · |T|/64)` per candidate.
//! At small `τ` the lattice approaches the full subset lattice of `T`
//! (Section 4.3, Figure 14) and that cost dominates the query.
//!
//! [`vertical_timesets`] instead mines the Eclat-style *vertical* layout
//! ([`WorldSet`]): one bitset **over worlds** per timestamp. The worlds
//! supporting a candidate set are the intersection of its timestamps'
//! world-sets, and — crucially — the intersection of its two Apriori parents'
//! world-sets. Each frontier node carries its intersected world-set, so
//! extending a `k`-set costs one AND + popcount over `worlds/64` words, and
//! the support is compared against the integer threshold
//! [`support_threshold`]`(τ, worlds)` instead of a per-candidate `f64`
//! division. Candidates are generated once each from prefix classes (no
//! quadratic join, no hash-set dedup), and the maximal-set filter works level
//! by level instead of all-pairs.
//!
//! The horizontal implementation is retained as [`apriori_timesets`]: it is
//! the executable reference the randomized equivalence tests compare the
//! vertical miner against, bit for bit.

use crate::govern::{BudgetGauge, QueryPhase, Verdict, MINING_CHECK_INTERVAL};
use crate::query::QueryError;
use rustc_hash::FxHashSet;
use ust_trajectory::{iter_set_bits, TimeMask};

/// Configuration of the PCNN lattice expansion.
#[derive(Debug, Clone, Copy)]
pub struct PcnnConfig {
    /// Probability threshold `τ`.
    pub tau: f64,
    /// If set, only *maximal* qualifying sets are reported, i.e. sets that are
    /// not a subset of another qualifying set (the redundancy-reducing variant
    /// of Definition 3).
    pub maximal_only: bool,
}

impl PcnnConfig {
    /// Standard configuration: report all qualifying sets.
    pub fn new(tau: f64) -> Self {
        PcnnConfig { tau, maximal_only: false }
    }

    /// Report only maximal qualifying sets.
    pub fn maximal(tau: f64) -> Self {
        PcnnConfig { tau, maximal_only: true }
    }
}

/// Result of the lattice expansion for a single object.
#[derive(Debug, Clone)]
pub struct PcnnResult {
    /// Qualifying timestamp sets, each as sorted indices into the query's
    /// timestamp list, together with their estimated probability.
    pub sets: Vec<(Vec<usize>, f64)>,
    /// Number of candidate sets whose probability was evaluated (the number
    /// of validation steps of Algorithm 1).
    pub candidate_sets_evaluated: usize,
    /// Deepest reached lattice level, i.e. the size of the largest qualifying
    /// set (`0` if nothing qualified). Computed before the maximality filter.
    pub max_level: usize,
    /// Largest number of qualifying sets on any single lattice level — the
    /// peak width of the Apriori frontier. Computed before the maximality
    /// filter.
    pub frontier_peak: usize,
    /// Whether a budget checkpoint stopped the expansion before the frontier
    /// emptied ([`vertical_timesets`]). Everything in
    /// [`sets`](Self::sets) is still exactly validated — a degraded result
    /// is an under-approximation, never a wrong set. Always `false` without
    /// a gauge.
    pub degraded: bool,
}

/// The transposed ("vertical") world-membership of one candidate object: for
/// every query timestamp, the bitset of sampled worlds in which the object is
/// a nearest neighbor at that timestamp.
///
/// Columns are stored contiguously as `Vec<u64>` words (column `t` occupies
/// `words[t*stride .. (t+1)*stride]`, bit `w` of a column = world `w`). The
/// query engine fills the columns directly while iterating worlds — no
/// per-world mask is materialised — and the PCNN miner intersects them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSet {
    num_times: usize,
    num_worlds: usize,
    stride: usize,
    words: Vec<u64>,
}

impl WorldSet {
    /// Creates an all-zero world-set for `num_times` columns over
    /// `num_worlds` worlds.
    pub fn new(num_times: usize, num_worlds: usize) -> Self {
        let stride = num_worlds.div_ceil(64);
        WorldSet { num_times, num_worlds, stride, words: vec![0; num_times * stride] }
    }

    /// Number of timestamp columns.
    #[inline]
    pub fn num_times(&self) -> usize {
        self.num_times
    }

    /// Number of worlds each column ranges over.
    #[inline]
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// Shrinks the logical world count to `n` after a degraded sampling run:
    /// the sampler stopped early, so bits `n..` of every column were never
    /// set, and supports as well as probability denominators must range over
    /// the worlds actually sampled. The backing words keep their allocated
    /// stride; only the logical count changes.
    ///
    /// # Panics
    /// Panics if `n` exceeds the current world count (a world-set cannot
    /// grow).
    pub fn truncate_worlds(&mut self, n: usize) {
        assert!(n <= self.num_worlds, "cannot grow a world-set ({n} > {})", self.num_worlds);
        self.num_worlds = n;
    }

    /// Marks the object as a nearest neighbor at timestamp index `time` in
    /// world `world`.
    ///
    /// # Panics
    /// Panics if `time` or `world` is out of range.
    #[inline]
    pub fn record(&mut self, time: usize, world: usize) {
        assert!(time < self.num_times, "time index {time} out of range ({})", self.num_times);
        assert!(world < self.num_worlds, "world index {world} out of range ({})", self.num_worlds);
        self.words[time * self.stride + world / 64] |= 1u64 << (world % 64);
    }

    /// ORs a whole word of world bits into the column of timestamp index
    /// `time`: bit `b` of `bits` marks world `word_index * 64 + b`. This is
    /// the block-sampling feed — the engine builds one `u64` of hits per
    /// candidate per timestamp per 64-world block and lands it with a single
    /// OR instead of 64 [`record`](Self::record) calls.
    ///
    /// # Panics
    /// Panics if `time` or `word_index` is out of range, or if `bits` sets a
    /// bit at or beyond the world count.
    #[inline]
    pub fn or_word(&mut self, time: usize, word_index: usize, bits: u64) {
        assert!(time < self.num_times, "time index {time} out of range ({})", self.num_times);
        assert!(word_index < self.stride, "word index {word_index} out of range ({})", self.stride);
        let valid = self.num_worlds.saturating_sub(word_index * 64);
        if valid < 64 {
            assert_eq!(bits >> valid, 0, "bits beyond the world count ({}) must be zero", self.num_worlds);
        }
        self.words[time * self.stride + word_index] |= bits;
    }

    /// Marks every timestamp set in `mask` for the given world (the bridge
    /// from the horizontal per-world representation).
    ///
    /// # Panics
    /// Panics if the mask length differs from the number of columns or
    /// `world` is out of range.
    pub fn record_mask(&mut self, world: usize, mask: &TimeMask) {
        assert_eq!(mask.len(), self.num_times, "mask length must equal the column count");
        for t in mask.iter_ones() {
            self.record(t, world);
        }
    }

    /// Builds the vertical representation from horizontal per-world masks
    /// (used by tests and the reference-path comparisons).
    pub fn from_world_masks(num_times: usize, masks: &[TimeMask]) -> Self {
        let mut ws = WorldSet::new(num_times, masks.len());
        for (w, mask) in masks.iter().enumerate() {
            ws.record_mask(w, mask);
        }
        ws
    }

    /// Converts back to horizontal per-world masks (the reference layout).
    pub fn world_masks(&self) -> Vec<TimeMask> {
        let mut masks = vec![TimeMask::new(self.num_times); self.num_worlds];
        for t in 0..self.num_times {
            for w in iter_set_bits(self.column(t)) {
                masks[w].set(t);
            }
        }
        masks
    }

    /// The world bitset of one timestamp column.
    #[inline]
    pub fn column(&self, time: usize) -> &[u64] {
        &self.words[time * self.stride..(time + 1) * self.stride]
    }

    /// Number of worlds in which the object is a NN at timestamp `time` (the
    /// level-1 support of the lattice).
    pub fn column_support(&self, time: usize) -> usize {
        self.column(time).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of worlds in which the object is a NN at **every** timestamp —
    /// the ∀-event count of Definition 2, one AND-reduction over the columns.
    /// With zero columns every world qualifies vacuously.
    pub fn forall_support(&self) -> usize {
        if self.num_times == 0 {
            return self.num_worlds;
        }
        let mut acc = self.column(0).to_vec();
        for t in 1..self.num_times {
            for (a, b) in acc.iter_mut().zip(self.column(t)) {
                *a &= b;
            }
        }
        acc.iter().map(|w| w.count_ones() as usize).sum()
    }

}

/// The smallest integer support `h` such that `h / worlds ≥ τ` under the
/// *same `f64` semantics* the reference path uses for its per-candidate
/// `hits as f64 / worlds as f64 ≥ τ` comparison — so the vertical miner can
/// compare supports as integers and still accept exactly the same sets.
///
/// With zero worlds the reference estimates every probability as `0.0`, so
/// the threshold is `0` iff `0.0 ≥ τ` and unattainable otherwise. A `τ`
/// outside `[0, 1]` (rejected by the engine, but reachable through direct
/// calls) yields `0` (below) or `worlds + 1` (above): everything / nothing.
pub fn support_threshold(tau: f64, worlds: usize) -> usize {
    if tau.is_nan() {
        // The reference's `p >= NaN` is false for every candidate.
        return worlds + 1;
    }
    if worlds == 0 {
        return if 0.0 >= tau { 0 } else { 1 };
    }
    let w = worlds as f64;
    let mut h = (tau * w).ceil().clamp(0.0, w) as usize;
    // `ceil` on the f64 product can land one off from the comparison the
    // reference path performs; nudge to the exact crossover.
    while h > 0 && ((h - 1) as f64 / w) >= tau {
        h -= 1;
    }
    while h <= worlds && ((h as f64 / w) < tau) {
        h += 1;
    }
    h
}

/// One frontier node of the vertical miner: the candidate timestamp set as a
/// `u64` bit mask (bit `t` = timestamp index `t`) plus the offset of its
/// world bitset inside the level's shared word arena.
struct Node {
    set: u64,
    offset: usize,
    support: usize,
}

/// The mask with the highest set bit of `m` cleared — the Apriori "prefix"
/// (all but the last element of the sorted set) in mask form.
#[inline]
fn clear_highest(m: u64) -> u64 {
    debug_assert!(m != 0);
    m & !(1u64 << (63 - m.leading_zeros()))
}

/// Sorted indices of a set mask.
fn mask_to_indices(mask: u64) -> Vec<usize> {
    let mut out = Vec::with_capacity(mask.count_ones() as usize);
    let mut rest = mask;
    while rest != 0 {
        out.push(rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
    out
}

/// Runs Algorithm 1 for one object over the vertical representation.
///
/// Accepts exactly the sets [`apriori_timesets`] accepts (same candidate
/// generation, same pruning, same probabilities, same order) but validates
/// each candidate with one AND + popcount over its parents' world-sets
/// instead of a containment scan over all per-world masks. Frontier sets are
/// `u64` bit masks and each level's world bitsets live in one shared arena,
/// so the per-candidate bookkeeping is branch-light and allocation-free.
///
/// With a [`BudgetGauge`] the gauge is polled at every lattice level and
/// every [`MINING_CHECK_INTERVAL`] validated candidates within a level.
/// Cancellation is a typed error; a passed deadline *degrades* — the
/// expansion stops, every set validated so far is kept (exact, see the
/// anti-monotonicity argument in the module docs) and the result is flagged
/// [`PcnnResult::degraded`]. With `gauge = None` no checkpoint exists, so
/// the result is always `Ok`.
///
/// Timestamp sets beyond 64 elements cannot be packed into the mask; since a
/// 2⁶⁴-node lattice is unreachable anyway, inputs with more than 64 columns
/// take the (equivalent) reference path instead. They are polled once up
/// front (a breach there degrades to an empty lattice) and then run
/// ungoverned — the case exists for API totality, not performance.
pub fn vertical_timesets(
    worlds: &WorldSet,
    cfg: &PcnnConfig,
    gauge: Option<&BudgetGauge>,
) -> Result<PcnnResult, QueryError> {
    let num_times = worlds.num_times();
    if num_times > 64 {
        if let Some(g) = gauge {
            if g.probe(QueryPhase::Mining)? == Verdict::Degrade {
                return Ok(PcnnResult {
                    sets: Vec::new(),
                    candidate_sets_evaluated: 0,
                    max_level: 0,
                    frontier_peak: 0,
                    degraded: true,
                });
            }
        }
        return Ok(apriori_timesets(&worlds.world_masks(), num_times, cfg));
    }
    let num_worlds = worlds.num_worlds();
    let stride = worlds.stride;
    let threshold = support_threshold(cfg.tau, num_worlds);
    let probability = |support: usize| {
        if num_worlds == 0 {
            0.0
        } else {
            support as f64 / num_worlds as f64
        }
    };

    let mut evaluated = 0usize;
    let mut max_level = 0usize;
    let mut frontier_peak = 0usize;
    let mut degraded = false;
    // Qualifying set masks per level, in generation order; converted (or
    // maximality-filtered) at the end. Levels are generated in lexicographic
    // order, which matches the reference path's join order exactly.
    let mut levels: Vec<Vec<(u64, f64)>> = Vec::new();

    // L1: singleton timestamp sets (line 1 of Algorithm 1) straight from the
    // column supports.
    let mut current: Vec<Node> = Vec::new();
    let mut cur_words: Vec<u64> = Vec::new();
    for t in 0..num_times {
        evaluated += 1;
        let support = worlds.column_support(t);
        if support >= threshold {
            let offset = cur_words.len();
            cur_words.extend_from_slice(worlds.column(t));
            current.push(Node { set: 1u64 << t, offset, support });
        }
    }

    // Lk from Lk-1 (lines 2-5): prefix-class join + one AND per candidate.
    while !current.is_empty() {
        max_level = current[0].set.count_ones() as usize;
        frontier_peak = frontier_peak.max(current.len());
        let mut next: Vec<Node> = Vec::new();
        let mut next_words: Vec<u64> = Vec::new();
        // Level checkpoint: the frontier sets reached here are validated, so
        // a deadline breach keeps them and just stops going deeper.
        if let Some(g) = gauge {
            if g.probe(QueryPhase::Mining)? == Verdict::Degrade {
                degraded = true;
            }
        }
        if !degraded && current.len() > 1 {
            let prev_sets: FxHashSet<u64> = current.iter().map(|n| n.set).collect();
            let mut class_start = 0usize;
            'join: while class_start < current.len() {
                // A prefix class: the maximal run of frontier nodes agreeing
                // on all but their last (= highest) element. Within a class
                // the last elements are strictly increasing, so every
                // (k+1)-candidate `prefix ∪ {i, j}` is generated exactly once
                // — no global pair scan, no dedup set.
                let prefix = clear_highest(current[class_start].set);
                let mut class_end = class_start + 1;
                while class_end < current.len() && clear_highest(current[class_end].set) == prefix
                {
                    class_end += 1;
                }
                for a in class_start..class_end {
                    for b in (a + 1)..class_end {
                        let joined = current[a].set | current[b].set;
                        // Apriori prune: every k-subset must have qualified.
                        // Dropping either of the two highest bits yields the
                        // parents (frontier nodes by construction), so only
                        // the prefix bits need a lookup.
                        let mut rest = prefix;
                        let mut all_subsets_qualify = true;
                        while rest != 0 {
                            let bit = rest & rest.wrapping_neg();
                            rest &= rest - 1;
                            if !prev_sets.contains(&(joined & !bit)) {
                                all_subsets_qualify = false;
                                break;
                            }
                        }
                        if !all_subsets_qualify {
                            continue;
                        }
                        evaluated += 1;
                        // Mid-level checkpoint: a breach discards only the
                        // partially generated next level — the current
                        // (fully validated) frontier is still reported.
                        if evaluated.is_multiple_of(MINING_CHECK_INTERVAL) {
                            if let Some(g) = gauge {
                                if g.probe(QueryPhase::Mining)? == Verdict::Degrade {
                                    degraded = true;
                                    next.clear();
                                    next_words.clear();
                                    break 'join;
                                }
                            }
                        }
                        // worlds(A) ∩ worlds(B) = worlds(A ∪ B): one
                        // AND+popcount, written straight into the next
                        // level's arena and kept only if it qualifies.
                        let offset = next_words.len();
                        let mut support = 0usize;
                        for i in 0..stride {
                            let w = cur_words[current[a].offset + i]
                                & cur_words[current[b].offset + i];
                            next_words.push(w);
                            support += w.count_ones() as usize;
                        }
                        if support >= threshold {
                            next.push(Node { set: joined, offset, support });
                        } else {
                            next_words.truncate(offset);
                        }
                    }
                }
                class_start = class_end;
            }
        }
        levels.push(current.iter().map(|n| (n.set, probability(n.support))).collect());
        current = next;
        cur_words = next_words;
    }

    let masked = if cfg.maximal_only { keep_maximal_levels(&levels) } else { levels.concat() };
    let sets = masked.into_iter().map(|(m, p)| (mask_to_indices(m), p)).collect();
    Ok(PcnnResult { sets, candidate_sets_evaluated: evaluated, max_level, frontier_peak, degraded })
}

/// Maximality filter over the per-level results: a qualifying `k`-set is
/// subsumed iff some qualifying `(k+1)`-set contains it (Apriori results are
/// downward closed, so subsumption by *any* larger set implies subsumption by
/// one exactly one level up). One pass over each level replaces the reference
/// path's all-pairs scan.
fn keep_maximal_levels(levels: &[Vec<(u64, f64)>]) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for (k, level) in levels.iter().enumerate() {
        match levels.get(k + 1) {
            None => out.extend(level.iter().copied()),
            Some(next_level) => {
                let mut subsumed: FxHashSet<u64> = FxHashSet::default();
                for &(s, _) in next_level {
                    let mut rest = s;
                    while rest != 0 {
                        let bit = rest & rest.wrapping_neg();
                        rest &= rest - 1;
                        subsumed.insert(s & !bit);
                    }
                }
                out.extend(level.iter().filter(|(s, _)| !subsumed.contains(s)).copied());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reference path (horizontal representation)
// ---------------------------------------------------------------------------

/// Estimates `P∀NN(o, q, T_k)` for the timestamp subset given by `indices`
/// (sorted indices into the query timestamps) from per-world membership masks.
///
/// Part of the retained reference path; the engine validates candidates
/// through [`WorldSet`] intersections instead.
pub fn subset_probability(world_masks: &[TimeMask], indices: &[usize]) -> f64 {
    if world_masks.is_empty() {
        return 0.0;
    }
    let num_times = world_masks[0].len();
    let subset = TimeMask::from_indices(num_times, indices.iter().copied());
    let hits = world_masks.iter().filter(|m| m.contains_all(&subset)).count();
    hits as f64 / world_masks.len() as f64
}

/// Runs Algorithm 1 for one object over horizontal per-world masks.
///
/// `world_masks` holds, for every sampled possible world, the set of query
/// timestamps (as indices `0..num_times`) at which the object was a nearest
/// neighbor. Returns all qualifying timestamp sets.
///
/// This is the **reference implementation** the vertical miner is tested
/// against ([`vertical_timesets`] must return byte-identical sets,
/// probabilities and counters); the engine no longer calls it.
pub fn apriori_timesets(
    world_masks: &[TimeMask],
    num_times: usize,
    cfg: &PcnnConfig,
) -> PcnnResult {
    let mut evaluated = 0usize;
    let mut max_level = 0usize;
    let mut frontier_peak = 0usize;
    let mut all_results: Vec<(Vec<usize>, f64)> = Vec::new();

    // L1: singleton timestamp sets (line 1 of Algorithm 1).
    let mut current_level: Vec<(Vec<usize>, f64)> = Vec::new();
    for i in 0..num_times {
        evaluated += 1;
        let p = subset_probability(world_masks, &[i]);
        if p >= cfg.tau {
            current_level.push((vec![i], p));
        }
    }
    if !current_level.is_empty() {
        max_level = 1;
        frontier_peak = current_level.len();
    }
    all_results.extend(current_level.iter().cloned());

    // Lk from Lk-1 (lines 2-5).
    while current_level.len() > 1 {
        let prev_sets: FxHashSet<Vec<usize>> =
            current_level.iter().map(|(s, _)| s.clone()).collect();
        let mut next_level: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut generated: FxHashSet<Vec<usize>> = FxHashSet::default();
        for a in 0..current_level.len() {
            for b in (a + 1)..current_level.len() {
                let (sa, _) = &current_level[a];
                let (sb, _) = &current_level[b];
                // Apriori join: both sets must agree on all but the last element.
                if sa[..sa.len() - 1] != sb[..sb.len() - 1] {
                    continue;
                }
                let mut joined = sa.clone();
                joined.push(*sb.last().expect("non-empty"));
                joined.sort_unstable();
                if !generated.insert(joined.clone()) {
                    continue;
                }
                // Prune: every (k-1)-subset must have qualified.
                let all_subsets_qualify = (0..joined.len()).all(|drop| {
                    let mut sub = joined.clone();
                    sub.remove(drop);
                    prev_sets.contains(&sub)
                });
                if !all_subsets_qualify {
                    continue;
                }
                evaluated += 1;
                let p = subset_probability(world_masks, &joined);
                if p >= cfg.tau {
                    next_level.push((joined, p));
                }
            }
        }
        if next_level.is_empty() {
            break;
        }
        max_level = next_level[0].0.len();
        frontier_peak = frontier_peak.max(next_level.len());
        all_results.extend(next_level.iter().cloned());
        current_level = next_level;
    }

    if cfg.maximal_only {
        all_results = keep_maximal(all_results);
    }
    PcnnResult {
        sets: all_results,
        candidate_sets_evaluated: evaluated,
        max_level,
        frontier_peak,
        degraded: false,
    }
}

/// Removes every set that is a proper subset of another qualifying set
/// (reference-path implementation of the maximality filter).
fn keep_maximal(sets: Vec<(Vec<usize>, f64)>) -> Vec<(Vec<usize>, f64)> {
    let mut keep = Vec::new();
    for (i, (s, p)) in sets.iter().enumerate() {
        let is_subsumed = sets.iter().enumerate().any(|(j, (other, _))| {
            i != j && other.len() > s.len() && s.iter().all(|x| other.contains(x))
        });
        if !is_subsumed {
            keep.push((s.clone(), *p));
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds world masks from explicit per-world index lists.
    fn masks(num_times: usize, worlds: &[&[usize]]) -> Vec<TimeMask> {
        worlds
            .iter()
            .map(|w| TimeMask::from_indices(num_times, w.iter().copied()))
            .collect()
    }

    /// Runs both miners and asserts they agree byte for byte; returns the
    /// vertical result.
    fn both(world_masks: &[TimeMask], num_times: usize, cfg: &PcnnConfig) -> PcnnResult {
        let reference = apriori_timesets(world_masks, num_times, cfg);
        let ws = WorldSet::from_world_masks(num_times, world_masks);
        let vertical = vertical_timesets(&ws, cfg, None).unwrap();
        assert_eq!(vertical.sets, reference.sets, "qualifying sets must match the reference");
        assert_eq!(vertical.candidate_sets_evaluated, reference.candidate_sets_evaluated);
        assert_eq!(vertical.max_level, reference.max_level);
        assert_eq!(vertical.frontier_peak, reference.frontier_peak);
        vertical
    }

    #[test]
    fn subset_probability_counts_containing_worlds() {
        let m = masks(3, &[&[0, 1, 2], &[0, 1], &[2], &[]]);
        assert_eq!(subset_probability(&m, &[0]), 0.5);
        assert_eq!(subset_probability(&m, &[0, 1]), 0.5);
        assert_eq!(subset_probability(&m, &[0, 1, 2]), 0.25);
        assert_eq!(subset_probability(&m, &[]), 1.0, "empty set is contained everywhere");
        assert_eq!(subset_probability(&[], &[0]), 0.0);
    }

    #[test]
    fn worldset_columns_transpose_the_masks() {
        let m = masks(3, &[&[0, 1, 2], &[0, 1], &[2], &[]]);
        let ws = WorldSet::from_world_masks(3, &m);
        assert_eq!(ws.num_times(), 3);
        assert_eq!(ws.num_worlds(), 4);
        assert_eq!(ws.column_support(0), 2);
        assert_eq!(ws.column_support(1), 2);
        assert_eq!(ws.column_support(2), 2);
        assert_eq!(ws.column(0), &[0b0011]);
        assert_eq!(ws.column(2), &[0b0101]);
        assert_eq!(ws.forall_support(), 1, "only world 0 contains all timestamps");
        assert_eq!(ws.world_masks(), m, "round trip back to the horizontal layout");
    }

    #[test]
    fn worldset_spans_multiple_words() {
        // 70 worlds forces two words per column.
        let mut ws = WorldSet::new(2, 70);
        for w in 0..70 {
            ws.record(0, w);
            if w % 2 == 0 {
                ws.record(1, w);
            }
        }
        assert_eq!(ws.column_support(0), 70);
        assert_eq!(ws.column_support(1), 35);
        assert_eq!(ws.forall_support(), 35);
        let masks = ws.world_masks();
        assert_eq!(masks.len(), 70);
        assert!(masks[68].get(1) && !masks[69].get(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worldset_rejects_out_of_range_worlds() {
        let mut ws = WorldSet::new(2, 65);
        ws.record(0, 65);
    }

    #[test]
    fn support_threshold_matches_float_comparison() {
        for &worlds in &[1usize, 2, 3, 7, 10, 64, 100, 333] {
            for &tau in &[0.0, 0.1, 0.3, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.999, 1.0] {
                let h = support_threshold(tau, worlds);
                // h is the smallest support whose probability clears tau.
                assert!(h as f64 / worlds as f64 >= tau, "h={h} worlds={worlds} tau={tau}");
                if h > 0 {
                    assert!(
                        ((h - 1) as f64 / worlds as f64) < tau,
                        "h={h} is not minimal for worlds={worlds} tau={tau}"
                    );
                }
            }
        }
        assert_eq!(support_threshold(0.0, 0), 0, "zero worlds qualify at tau = 0");
        assert_eq!(support_threshold(0.5, 0), 1, "zero worlds never qualify at tau > 0");
    }

    #[test]
    fn nan_threshold_rejects_everything_like_the_reference() {
        // The engine validates τ, but direct calls can pass NaN; both miners
        // must then agree that nothing qualifies (`p >= NaN` is false).
        let m = masks(3, &[&[0, 1, 2], &[0, 1, 2]]);
        let result = both(&m, 3, &PcnnConfig::new(f64::NAN));
        assert!(result.sets.is_empty());
        assert_eq!(support_threshold(f64::NAN, 10), 11);
        assert_eq!(support_threshold(f64::NAN, 0), 1);
    }

    #[test]
    fn lattice_finds_all_qualifying_sets() {
        // Object is NN at {0,1} in 60% of worlds, at {2} in 40%, at all three
        // in 20%.
        let m = masks(
            3,
            &[
                &[0, 1, 2],
                &[0, 1, 2],
                &[0, 1],
                &[0, 1],
                &[0, 1],
                &[0, 1],
                &[2],
                &[2],
                &[],
                &[],
            ],
        );
        let result = both(&m, 3, &PcnnConfig::new(0.5));
        let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
        assert!(sets.contains(&vec![0]));
        assert!(sets.contains(&vec![1]));
        assert!(sets.contains(&vec![0, 1]));
        assert!(!sets.contains(&vec![2]), "{{2}} has probability 0.4 < 0.5");
        assert!(!sets.contains(&vec![0, 1, 2]));
        // Probabilities attached to the sets are the world fractions.
        let p01 = result.sets.iter().find(|(s, _)| s == &vec![0, 1]).unwrap().1;
        assert!((p01 - 0.6).abs() < 1e-12);
        assert_eq!(result.max_level, 2);
        assert_eq!(result.frontier_peak, 2, "both levels hold two qualifying sets");
    }

    #[test]
    fn anti_monotonicity_prunes_supersets_without_evaluation() {
        // Only timestamp 0 ever qualifies; the lattice must stop after level 1
        // and evaluate exactly num_times candidate sets.
        let m = masks(4, &[&[0], &[0], &[0], &[1]]);
        let result = both(&m, 4, &PcnnConfig::new(0.5));
        assert_eq!(result.sets.len(), 1);
        assert_eq!(result.candidate_sets_evaluated, 4);
        assert_eq!(result.max_level, 1);
        assert_eq!(result.frontier_peak, 1);
    }

    #[test]
    fn low_threshold_reaches_the_full_set() {
        let m = masks(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 2]]);
        let result = both(&m, 3, &PcnnConfig::new(0.1));
        let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
        assert!(sets.contains(&vec![0, 1, 2]));
        // All 7 non-empty subsets qualify at tau = 0.1.
        assert_eq!(sets.len(), 7);
        assert_eq!(result.max_level, 3);
        assert_eq!(result.frontier_peak, 3, "levels 1 and 2 both hold three sets");
    }

    #[test]
    fn maximal_only_removes_subsumed_sets() {
        let m = masks(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let all = both(&m, 3, &PcnnConfig::new(0.5));
        assert_eq!(all.sets.len(), 7);
        let maximal = both(&m, 3, &PcnnConfig::maximal(0.5));
        assert_eq!(maximal.sets.len(), 1);
        assert_eq!(maximal.sets[0].0, vec![0, 1, 2]);
        assert_eq!(maximal.max_level, 3, "observability reflects the unfiltered lattice");
        assert_eq!(maximal.frontier_peak, 3);
    }

    #[test]
    fn maximal_only_keeps_incomparable_sets_across_levels() {
        // {0,1} qualifies as a pair; {2} qualifies alone and is in no
        // qualifying pair, so both must survive the maximality filter.
        let m = masks(3, &[&[0, 1], &[0, 1], &[0, 1, 2], &[2], &[2]]);
        let result = both(&m, 3, &PcnnConfig::maximal(0.5));
        let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(sets, vec![vec![2], vec![0, 1]]);
    }

    #[test]
    fn qualifying_sets_need_not_be_contiguous() {
        // NN at times 0 and 2 but never at 1: the qualifying pair is {0, 2}.
        let m = masks(3, &[&[0, 2], &[0, 2], &[0, 1]]);
        let result = both(&m, 3, &PcnnConfig::new(0.6));
        let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
        assert!(sets.contains(&vec![0, 2]));
        assert!(!sets.contains(&vec![0, 1]));
    }

    #[test]
    fn more_than_64_timestamps_take_the_fallback_path() {
        // A 70-column input cannot pack sets into the u64 mask; the vertical
        // entry point must still agree with the reference (it delegates).
        let m = masks(70, &[&[0, 1, 65, 69], &[0, 1, 65], &[1, 65, 69], &[0, 1, 65, 69]]);
        let result = both(&m, 70, &PcnnConfig::new(0.5));
        let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
        assert!(sets.contains(&vec![0, 1, 65]));
        assert!(sets.contains(&vec![1, 65, 69]));
        assert!(sets.contains(&vec![0, 1, 65, 69]), "holds in exactly half the worlds");
        assert_eq!(result.max_level, 4);
    }

    #[test]
    fn governed_miner_with_unlimited_budget_matches_ungoverned() {
        use crate::govern::QueryBudget;
        let m = masks(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 2]]);
        let ws = WorldSet::from_world_masks(3, &m);
        let cfg = PcnnConfig::new(0.1);
        let gauge = QueryBudget::unlimited().start();
        let governed = vertical_timesets(&ws, &cfg, Some(&gauge)).unwrap();
        let free = vertical_timesets(&ws, &cfg, None).unwrap();
        assert_eq!(governed.sets, free.sets);
        assert_eq!(governed.candidate_sets_evaluated, free.candidate_sets_evaluated);
        assert!(!governed.degraded);
        assert!(gauge.checkpoints() > 0, "the lattice polled its level checkpoints");
    }

    #[test]
    fn governed_miner_degrades_on_deadline_keeping_validated_singletons() {
        use crate::govern::QueryBudget;
        use std::time::Duration;
        let m = masks(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let ws = WorldSet::from_world_masks(3, &m);
        let gauge = QueryBudget::unlimited().with_deadline(Duration::ZERO).start();
        let result = vertical_timesets(&ws, &PcnnConfig::new(0.5), Some(&gauge)).unwrap();
        assert!(result.degraded);
        // The zero deadline trips at the first level checkpoint: the L1
        // singletons were already validated and survive; nothing deeper does.
        let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(sets, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(result.max_level, 1);
    }

    #[test]
    fn governed_miner_cancellation_is_a_typed_error() {
        use crate::govern::{CancelToken, QueryBudget, QueryPhase};
        let m = masks(3, &[&[0, 1, 2], &[0, 1, 2]]);
        let ws = WorldSet::from_world_masks(3, &m);
        let token = CancelToken::new();
        token.cancel();
        let gauge = QueryBudget::unlimited().with_cancel(&token).start();
        let err = vertical_timesets(&ws, &PcnnConfig::new(0.5), Some(&gauge)).unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { phase: QueryPhase::Mining, .. }));
    }

    #[test]
    fn empty_or_degenerate_inputs() {
        let result = apriori_timesets(&[], 3, &PcnnConfig::new(0.5));
        assert!(result.sets.is_empty());
        assert_eq!(result.max_level, 0);
        assert_eq!(result.frontier_peak, 0);
        let empty = vertical_timesets(&WorldSet::new(3, 0), &PcnnConfig::new(0.5), None).unwrap();
        assert!(empty.sets.is_empty());
        assert_eq!(empty.candidate_sets_evaluated, result.candidate_sets_evaluated);
        let m = masks(1, &[&[0], &[]]);
        let result = both(&m, 1, &PcnnConfig::new(0.5));
        assert_eq!(result.sets.len(), 1);
    }
}
