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
//! The validation step — estimating `P∀NN(o, q, T_k)` — counts the sampled
//! worlds in which the object is a nearest neighbor at every timestamp of
//! `T_k`. At small `τ` the lattice approaches the full subset lattice of `T`
//! (Section 4.3, Figure 14), so this per-candidate cost dominates the query.
//!
//! [`vertical_timesets`] mines the Eclat-style *vertical* layout
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
//! The lattice loop exists once, generic over how a candidate timestamp set
//! is stored: one `u64` mask when `|T| ≤ 64`, one word per 64 timestamps
//! above. The *horizontal* Apriori of the paper — per world the mask of
//! timestamps at which the object is a NN, one containment scan over every
//! world per candidate — is the test oracle in `crates/core/tests/common/`,
//! which the equivalence tests compare this miner against, bit for bit.

use crate::govern::{BudgetGauge, QueryPhase, Verdict, MINING_CHECK_INTERVAL};
use crate::query::QueryError;
use rustc_hash::FxHashSet;
use std::hash::Hash;
use ust_trajectory::iter_set_bits;

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
/// *same `f64` semantics* as Algorithm 1's per-candidate
/// `hits as f64 / worlds as f64 ≥ τ` comparison — so the vertical miner can
/// compare supports as integers and still accept exactly the same sets.
///
/// With zero worlds every probability estimate is `0.0`, so
/// the threshold is `0` iff `0.0 ≥ τ` and unattainable otherwise. A `τ`
/// outside `[0, 1]` (rejected by the engine, but reachable through direct
/// calls) yields `0` (below) or `worlds + 1` (above): everything / nothing.
pub fn support_threshold(tau: f64, worlds: usize) -> usize {
    if tau.is_nan() {
        // `p >= NaN` is false for every candidate.
        return worlds + 1;
    }
    if worlds == 0 {
        return if 0.0 >= tau { 0 } else { 1 };
    }
    let w = worlds as f64;
    let mut h = (tau * w).ceil().clamp(0.0, w) as usize;
    // `ceil` on the f64 product can land one off from the per-candidate
    // comparison; nudge to the exact crossover.
    while h > 0 && ((h - 1) as f64 / w) >= tau {
        h -= 1;
    }
    while h <= worlds && ((h as f64 / w) < tau) {
        h += 1;
    }
    h
}

/// A candidate timestamp set of the lattice: a bit set over timestamp
/// indices, so that the one lattice loop runs over a single `u64` when
/// `|T| ≤ 64` (bit operations and `FxHashSet<u64>` probes) and over one word
/// per 64 timestamps above.
trait TimeSet: Clone + Eq + Hash {
    /// The set `{t}` of a lattice over `num_times` timestamps.
    fn singleton(t: usize, num_times: usize) -> Self;
    /// `self ∪ other`.
    fn union(&self, other: &Self) -> Self;
    /// `self \ {t}`.
    fn without(&self, t: usize) -> Self;
    /// The elements, ascending.
    fn elements(&self) -> impl Iterator<Item = usize> + '_;
    /// The largest element of a non-empty set.
    fn highest(&self) -> usize;
}

impl TimeSet for u64 {
    #[inline]
    fn singleton(t: usize, _num_times: usize) -> Self {
        1 << t
    }

    #[inline]
    fn union(&self, other: &Self) -> Self {
        self | other
    }

    #[inline]
    fn without(&self, t: usize) -> Self {
        self & !(1 << t)
    }

    // Its own one-word loop: `iter_set_bits` over a one-word slice made the
    // subset prune measurably slower.
    #[inline]
    fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = *self;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let t = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                t
            })
        })
    }

    #[inline]
    fn highest(&self) -> usize {
        debug_assert!(*self != 0);
        63 - self.leading_zeros() as usize
    }
}

/// Above 64 timestamps: word `i` holds timestamp indices `64 i .. 64 i + 64`.
/// Every set of one lattice has the same `⌈|T| / 64⌉` words.
impl TimeSet for Box<[u64]> {
    fn singleton(t: usize, num_times: usize) -> Self {
        let mut words = vec![0; num_times.div_ceil(64)].into_boxed_slice();
        words[t / 64] = 1 << (t % 64);
        words
    }

    fn union(&self, other: &Self) -> Self {
        self.iter().zip(other.iter()).map(|(a, b)| a | b).collect()
    }

    fn without(&self, t: usize) -> Self {
        let mut words = self.clone();
        words[t / 64] &= !(1 << (t % 64));
        words
    }

    fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        iter_set_bits(self)
    }

    fn highest(&self) -> usize {
        let i = self.iter().rposition(|&w| w != 0).expect("a lattice set is non-empty");
        64 * i + self[i].highest()
    }
}

/// One frontier node of the miner: the candidate timestamp set plus the
/// offset of its world bitset inside the level's shared word arena.
struct Node<S> {
    set: S,
    offset: usize,
    support: usize,
}

/// Runs Algorithm 1 for one object over the vertical representation.
///
/// Each candidate is generated once by the prefix-class join, pruned unless
/// all its `(k-1)`-subsets qualified, and validated with one AND + popcount
/// over its two parents' world-sets, which each level keeps in one shared
/// word arena. Candidate sets are `u64` bit masks when `|T| ≤ 64`, so no
/// candidate allocates, and one word per 64 timestamps above. The lattice
/// holds only qualifying sets and their joins, so its size depends on the
/// worlds, not on `2^|T|`.
///
/// With a [`BudgetGauge`] the gauge is polled at every lattice level and
/// every [`MINING_CHECK_INTERVAL`] validated candidates within a level, for
/// every `|T|`. Cancellation is a typed error; a passed deadline *degrades* —
/// the expansion stops, every set validated so far is kept (exact, see the
/// anti-monotonicity argument in the module docs) and the result is flagged
/// [`PcnnResult::degraded`]. With `gauge = None` no checkpoint exists, so
/// the result is always `Ok`.
pub fn vertical_timesets(
    worlds: &WorldSet,
    cfg: &PcnnConfig,
    gauge: Option<&BudgetGauge>,
) -> Result<PcnnResult, QueryError> {
    if worlds.num_times() <= 64 {
        mine::<u64>(worlds, cfg, gauge)
    } else {
        mine::<Box<[u64]>>(worlds, cfg, gauge)
    }
}

/// The lattice of [`vertical_timesets`] over candidate sets of type `S`.
fn mine<S: TimeSet>(
    worlds: &WorldSet,
    cfg: &PcnnConfig,
    gauge: Option<&BudgetGauge>,
) -> Result<PcnnResult, QueryError> {
    let num_times = worlds.num_times();
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
    // Qualifying sets per level, in generation order; converted (or
    // maximality-filtered) at the end. Levels are generated in lexicographic
    // order, which is the order Algorithm 1's pairwise join produces.
    let mut levels: Vec<Vec<(S, f64)>> = Vec::new();

    // L1: singleton timestamp sets (line 1 of Algorithm 1) straight from the
    // column supports.
    let mut current: Vec<Node<S>> = Vec::new();
    let mut cur_words: Vec<u64> = Vec::new();
    for t in 0..num_times {
        evaluated += 1;
        let support = worlds.column_support(t);
        if support >= threshold {
            let offset = cur_words.len();
            cur_words.extend_from_slice(worlds.column(t));
            current.push(Node { set: S::singleton(t, num_times), offset, support });
        }
    }

    // Lk from Lk-1 (lines 2-5): prefix-class join + one AND per candidate.
    while !current.is_empty() {
        max_level += 1;
        frontier_peak = frontier_peak.max(current.len());
        let mut next: Vec<Node<S>> = Vec::new();
        let mut next_words: Vec<u64> = Vec::new();
        // Level checkpoint: the frontier sets reached here are validated, so
        // a deadline breach keeps them and just stops going deeper.
        if let Some(g) = gauge {
            if g.probe(QueryPhase::Mining)? == Verdict::Degrade {
                degraded = true;
            }
        }
        if !degraded && current.len() > 1 {
            let prev_sets: FxHashSet<S> = current.iter().map(|n| n.set.clone()).collect();
            let prefix_of = |set: &S| set.without(set.highest());
            let mut class_start = 0usize;
            'join: while class_start < current.len() {
                // A prefix class: the maximal run of frontier nodes agreeing
                // on all but their last (= highest) element. Within a class
                // the last elements are strictly increasing, so every
                // (k+1)-candidate `prefix ∪ {i, j}` is generated exactly once
                // — no global pair scan, no dedup set.
                let prefix = prefix_of(&current[class_start].set);
                let mut class_end = class_start + 1;
                while class_end < current.len() && prefix_of(&current[class_end].set) == prefix {
                    class_end += 1;
                }
                for a in class_start..class_end {
                    for b in (a + 1)..class_end {
                        let joined = current[a].set.union(&current[b].set);
                        // Apriori prune: every k-subset must have qualified.
                        // Dropping either of the two highest elements yields
                        // the parents (frontier nodes by construction), so
                        // only the prefix elements need a lookup.
                        if !prefix.elements().all(|t| prev_sets.contains(&joined.without(t))) {
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
        levels.push(current.into_iter().map(|n| (n.set, probability(n.support))).collect());
        current = next;
        cur_words = next_words;
    }

    // Maximality, level by level: Apriori results are downward closed, so a
    // qualifying k-set is subsumed by some larger qualifying set iff a
    // qualifying (k+1)-set contains it.
    let mut sets = Vec::new();
    for (k, level) in levels.iter().enumerate() {
        let subsumed: FxHashSet<S> = match levels.get(k + 1) {
            Some(above) if cfg.maximal_only => {
                above.iter().flat_map(|(s, _)| s.elements().map(move |t| s.without(t))).collect()
            }
            _ => FxHashSet::default(),
        };
        for (s, p) in level.iter().filter(|(s, _)| !subsumed.contains(s)) {
            let mut indices = Vec::with_capacity(k + 1);
            indices.extend(s.elements());
            sets.push((indices, *p));
        }
    }
    Ok(PcnnResult { sets, candidate_sets_evaluated: evaluated, max_level, frontier_peak, degraded })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a world-set from explicit per-world lists of NN timestamps.
    fn world_set(num_times: usize, worlds: &[&[usize]]) -> WorldSet {
        let mut ws = WorldSet::new(num_times, worlds.len());
        for (w, times) in worlds.iter().enumerate() {
            for &t in *times {
                ws.record(t, w);
            }
        }
        ws
    }

    /// A 76-column input whose qualifying sets straddle the word boundary at
    /// timestamp 63/64: at τ = 0.5 the lattice reaches `{0, 63, 64, 75}`.
    fn wide_world_set() -> WorldSet {
        world_set(76, &[&[0, 63, 64, 75], &[0, 63, 64, 75], &[63, 64, 70], &[0, 64, 75]])
    }

    #[test]
    fn worldset_columns_transpose_the_masks() {
        let ws = world_set(3, &[&[0, 1, 2], &[0, 1], &[2], &[]]);
        assert_eq!(ws.num_times(), 3);
        assert_eq!(ws.num_worlds(), 4);
        assert_eq!(ws.column_support(0), 2);
        assert_eq!(ws.column_support(1), 2);
        assert_eq!(ws.column_support(2), 2);
        assert_eq!(ws.column(0), &[0b0011]);
        assert_eq!(ws.column(1), &[0b0011]);
        assert_eq!(ws.column(2), &[0b0101]);
        assert_eq!(ws.forall_support(), 1, "only world 0 contains all timestamps");
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
        assert_eq!(ws.num_worlds(), 70);
        assert_eq!(ws.column(1)[1], 0b01_0101, "worlds 64, 66 and 68 of column 1");
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
    fn governed_miner_with_unlimited_budget_matches_ungoverned() {
        use crate::govern::QueryBudget;
        let narrow = world_set(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 2]]);
        for (ws, tau) in [(narrow, 0.1), (wide_world_set(), 0.5)] {
            let cfg = PcnnConfig::new(tau);
            let gauge = QueryBudget::unlimited().start();
            let governed = vertical_timesets(&ws, &cfg, Some(&gauge)).unwrap();
            let free = vertical_timesets(&ws, &cfg, None).unwrap();
            assert_eq!(governed.sets, free.sets);
            assert_eq!(governed.candidate_sets_evaluated, free.candidate_sets_evaluated);
            assert!(!governed.degraded);
            assert!(governed.max_level > 1, "|T| = {}: the lattice went deeper", ws.num_times());
            // Fewer than MINING_CHECK_INTERVAL candidates: exactly the level
            // checkpoints.
            assert_eq!(
                gauge.checkpoints(),
                governed.max_level as u64,
                "|T| = {}: one checkpoint per lattice level",
                ws.num_times()
            );
        }
    }

    #[test]
    fn governed_miner_degrades_on_deadline_keeping_validated_singletons() {
        use crate::govern::QueryBudget;
        use std::time::Duration;
        let narrow = world_set(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let wide = wide_world_set();
        for (ws, singletons) in [(narrow, vec![0, 1, 2]), (wide, vec![0, 63, 64, 75])] {
            let gauge = QueryBudget::unlimited().with_deadline(Duration::ZERO).start();
            let result = vertical_timesets(&ws, &PcnnConfig::new(0.5), Some(&gauge)).unwrap();
            assert!(result.degraded);
            // The zero deadline trips at the first level checkpoint: the L1
            // singletons were already validated and survive; nothing deeper
            // does.
            let sets: Vec<Vec<usize>> = result.sets.iter().map(|(s, _)| s.clone()).collect();
            let expected: Vec<Vec<usize>> = singletons.iter().map(|&t| vec![t]).collect();
            assert_eq!(sets, expected);
            assert_eq!(result.max_level, 1);
        }
    }

    #[test]
    fn governed_miner_cancellation_is_a_typed_error() {
        use crate::govern::{CancelToken, QueryBudget, QueryPhase};
        for ws in [world_set(3, &[&[0, 1, 2], &[0, 1, 2]]), wide_world_set()] {
            let token = CancelToken::new();
            token.cancel();
            let gauge = QueryBudget::unlimited().with_cancel(&token).start();
            let err = vertical_timesets(&ws, &PcnnConfig::new(0.5), Some(&gauge)).unwrap_err();
            assert!(matches!(err, QueryError::Cancelled { phase: QueryPhase::Mining, .. }));
        }
    }
}
