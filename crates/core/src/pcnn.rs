//! The Apriori-style lattice of Algorithm 1 (PCτNN), mined vertically over
//! classes of identical columns.
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
//! `T_k`. [`vertical_timesets`] reads the Eclat-style *vertical* layout
//! ([`WorldSet`]): one bitset **over worlds** per timestamp. The worlds
//! supporting a set are the intersection of its columns, so a lattice node
//! extends with one AND + popcount over `worlds/64` words, and supports are
//! compared against the integer threshold [`support_threshold`]`(τ, worlds)`
//! instead of a per-candidate `f64` division.
//!
//! ## Classes of identical columns
//!
//! At small `τ` the lattice approaches the full subset lattice of `T`
//! (Section 4.3, Figure 14), and many of an object's columns are identical:
//! full columns (a NN in every world) and copies. ANDing a column twice
//! changes nothing, so a set's support depends only on *which classes of
//! identical columns* it touches. The miner therefore
//!
//! 1. groups the columns that reach the threshold into classes, numbered in
//!    order of their first member (a failing column joins no class);
//! 2. mines Apriori's lattice over *class-sets* — prefix-class join, subset
//!    prune, one AND + popcount per candidate — and keeps the probability of
//!    every qualifying class-set;
//! 3. emits the timestamp sets level by level: the qualifying `k`-sets are
//!    the qualifying `(k-1)`-sets, each extended by one larger qualifying
//!    column whose class-set still qualifies. Only a column that adds a new
//!    class costs a lookup. A `k`-set touches at most `k` classes, so class
//!    level `k` is mined just before timestamp level `k` is emitted.
//!
//! Extending the previous level in order emits every level
//! lexicographically, the order Algorithm 1's join produces, with no sort.
//! The sets go straight into one flat [`TimestampSets`] arena per object.
//! Sets, order, probabilities, counters and budget checkpoints all equal a
//! timestamp-level Apriori's (see [`vertical_timesets`] for why).
//!
//! The *horizontal* Apriori of the paper — per world the mask of timestamps
//! at which the object is a NN, one containment scan over every world per
//! candidate — is the test oracle in `crates/core/tests/common/`, which the
//! equivalence tests compare this miner against, bit for bit.

use crate::govern::{BudgetGauge, QueryPhase, Verdict, MINING_CHECK_INTERVAL};
use crate::query::QueryError;
use crate::results::TimestampSets;
use crate::Timestamp;
use rustc_hash::FxHashMap;
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
    /// Qualifying timestamp sets, each as ascending indices into the query's
    /// timestamp list, with their estimated probability: by set size, then
    /// lexicographically. The engine maps the indices to timestamps in
    /// place.
    pub sets: TimestampSets,
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

/// The transposed ("vertical") world-membership of one influence object: for
/// every query timestamp, the bitset of sampled worlds in which the object is
/// a (k-)nearest neighbor at that timestamp.
///
/// Columns are stored contiguously as `Vec<u64>` words (column `t` occupies
/// `words[t*stride .. (t+1)*stride]`, bit `w` of a column = world `w`). The
/// query engine fills the columns directly while iterating worlds — no
/// per-world mask is materialised — and every semantics reads the same set:
/// P∃NN its OR-reduction ([`exists_support`](Self::exists_support)), P∀NN
/// its AND-reduction ([`forall_support`](Self::forall_support)), and the
/// PCNN miner intersects subsets of its columns.
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
    /// influence object per timestamp per 64-world block and lands it with a
    /// single OR instead of 64 [`record`](Self::record) calls.
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

    /// Number of worlds in which the object is a NN at **some** timestamp —
    /// the ∃-event count of Definition 1, one OR-reduction over the columns.
    /// With zero columns no world qualifies.
    pub fn exists_support(&self) -> usize {
        let mut acc = vec![0u64; self.stride];
        for t in 0..self.num_times {
            for (a, b) in acc.iter_mut().zip(self.column(t)) {
                *a |= b;
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

/// A class-set of the lattice: a bit set over class indices, so that the
/// lattice runs over a single `u64` when an object has at most 64 classes of
/// qualifying columns (bit operations and `FxHashMap<u64, _>` probes) and
/// over one word per 64 classes above.
trait ClassSet: Clone + Eq + Hash {
    /// The empty set of a lattice over `num_classes` classes.
    fn empty(num_classes: usize) -> Self;
    /// `self ∪ {c}`.
    fn with(&self, c: usize) -> Self;
    /// `self \ {c}`.
    fn without(&self, c: usize) -> Self;
    /// Whether `c ∈ self`.
    fn contains(&self, c: usize) -> bool;
    /// The elements, ascending.
    fn elements(&self) -> impl Iterator<Item = usize> + '_;
    /// The largest element of a non-empty set.
    fn highest(&self) -> usize;
}

impl ClassSet for u64 {
    #[inline]
    fn empty(_num_classes: usize) -> Self {
        0
    }

    #[inline]
    fn with(&self, c: usize) -> Self {
        self | 1 << c
    }

    #[inline]
    fn without(&self, c: usize) -> Self {
        self & !(1 << c)
    }

    #[inline]
    fn contains(&self, c: usize) -> bool {
        self >> c & 1 == 1
    }

    // Its own one-word loop: `iter_set_bits` over a one-word slice made the
    // subset prune measurably slower.
    #[inline]
    fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = *self;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let c = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                c
            })
        })
    }

    #[inline]
    fn highest(&self) -> usize {
        debug_assert!(*self != 0);
        63 - self.leading_zeros() as usize
    }
}

/// Above 64 classes: word `i` holds class indices `64 i .. 64 i + 64`. Every
/// set of one lattice has the same `⌈classes / 64⌉` words.
impl ClassSet for Box<[u64]> {
    fn empty(num_classes: usize) -> Self {
        vec![0; num_classes.div_ceil(64)].into_boxed_slice()
    }

    fn with(&self, c: usize) -> Self {
        let mut words = self.clone();
        words[c / 64] |= 1 << (c % 64);
        words
    }

    fn without(&self, c: usize) -> Self {
        let mut words = self.clone();
        words[c / 64] &= !(1 << (c % 64));
        words
    }

    fn contains(&self, c: usize) -> bool {
        self[c / 64].contains(c % 64)
    }

    fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        iter_set_bits(self)
    }

    fn highest(&self) -> usize {
        let i = self.iter().rposition(|&w| w != 0).expect("a lattice set is non-empty");
        64 * i + self[i].highest()
    }
}

/// The columns of one world-set that reach the support threshold, grouped
/// into classes of identical world bitsets.
struct Columns<'w> {
    /// The qualifying columns, ascending: timestamp index and class.
    qualifying: Vec<(Timestamp, usize)>,
    /// The classes, in order of their first member.
    classes: Vec<Class<'w>>,
}

/// One class of identical qualifying columns.
struct Class<'w> {
    /// The world bitset every member shares.
    column: &'w [u64],
    support: usize,
    members: usize,
}

impl<'w> Columns<'w> {
    fn group(worlds: &'w WorldSet, threshold: usize) -> Self {
        let mut by_content: FxHashMap<&[u64], usize> = FxHashMap::default();
        let mut qualifying = Vec::new();
        let mut classes: Vec<Class<'w>> = Vec::new();
        for t in 0..worlds.num_times() {
            let support = worlds.column_support(t);
            if support < threshold {
                continue;
            }
            let column = worlds.column(t);
            let c = *by_content.entry(column).or_insert_with(|| {
                classes.push(Class { column, support, members: 0 });
                classes.len() - 1
            });
            classes[c].members += 1;
            let t = Timestamp::try_from(t).expect("a query holds fewer than 2^32 timestamps");
            qualifying.push((t, c));
        }
        Columns { qualifying, classes }
    }
}

/// Algorithm 1's candidate count (`candidate_sets_evaluated`) and the mining
/// budget checkpoints on it: one probe each time the count reaches a
/// multiple of [`MINING_CHECK_INTERVAL`], as if every timestamp-level
/// candidate above level 1 were validated one by one.
struct Candidates<'g> {
    evaluated: usize,
    gauge: Option<&'g BudgetGauge>,
}

impl Candidates<'_> {
    /// Counts `n` more candidates. A degrading probe stops the count at its
    /// multiple, where a one-by-one validation would have stopped.
    #[inline]
    fn add(&mut self, n: usize) -> Result<Verdict, QueryError> {
        let before = self.evaluated;
        self.evaluated = before.saturating_add(n);
        if let Some(gauge) = self.gauge {
            let first = before / MINING_CHECK_INTERVAL + 1;
            for check in first..=self.evaluated / MINING_CHECK_INTERVAL {
                if gauge.probe(QueryPhase::Mining)? == Verdict::Degrade {
                    self.evaluated = check * MINING_CHECK_INTERVAL;
                    return Ok(Verdict::Degrade);
                }
            }
        }
        Ok(Verdict::Continue)
    }
}

/// One frontier node of the class lattice: the class-set plus the offset of
/// its world bitset inside the level's shared word arena.
struct Node<S> {
    set: S,
    offset: usize,
}

/// Apriori's lattice over class-sets, mined one level at a time.
struct ClassLattice<S> {
    /// Every qualifying class-set mined so far, with its probability: the
    /// probability of every timestamp set touching exactly those classes.
    probabilities: FxHashMap<S, f64>,
    /// The qualifying class-sets of the deepest level, lexicographic.
    frontier: Vec<Node<S>>,
    /// Their world bitsets, one column stride each.
    words: Vec<u64>,
}

impl<S: ClassSet> ClassLattice<S> {
    /// Level 1: every class qualifies by construction.
    fn new(classes: &[Class<'_>], probability: impl Fn(usize) -> f64) -> Self {
        let mut lattice = ClassLattice {
            probabilities: FxHashMap::default(),
            frontier: Vec::with_capacity(classes.len()),
            words: Vec::new(),
        };
        for (c, class) in classes.iter().enumerate() {
            let set = S::empty(classes.len()).with(c);
            lattice.probabilities.insert(set.clone(), probability(class.support));
            lattice.frontier.push(Node { set, offset: lattice.words.len() });
            lattice.words.extend_from_slice(class.column);
        }
        lattice
    }

    /// Mines the next level (lines 2-5 of Algorithm 1 over class-sets).
    ///
    /// Each candidate is generated once by the prefix-class join, pruned
    /// unless every subset one class smaller qualified, and validated with
    /// one AND + popcount over its two parents' world bitsets. A failing
    /// candidate `C` is counted as `Π_{c∈C} |c|` timestamp-level candidates
    /// (see [`vertical_timesets`]). On a degrading checkpoint the partial
    /// level is dropped and the frontier stays where it was.
    fn grow(
        &mut self,
        classes: &[Class<'_>],
        stride: usize,
        threshold: usize,
        probability: impl Fn(usize) -> f64,
        candidates: &mut Candidates<'_>,
    ) -> Result<Verdict, QueryError> {
        let mut next = Vec::new();
        let mut next_words = Vec::new();
        let prefix_of = |set: &S| set.without(set.highest());
        let mut class_start = 0usize;
        while class_start < self.frontier.len() {
            // A prefix class: the maximal run of frontier nodes agreeing on
            // all but their last (= highest) element. Within a class the last
            // elements are strictly increasing, so every candidate
            // `prefix ∪ {i, j}` is generated exactly once — no global pair
            // scan, no dedup set.
            let prefix = prefix_of(&self.frontier[class_start].set);
            let mut class_end = class_start + 1;
            while class_end < self.frontier.len()
                && prefix_of(&self.frontier[class_end].set) == prefix
            {
                class_end += 1;
            }
            for a in class_start..class_end {
                for b in (a + 1)..class_end {
                    let (na, nb) = (&self.frontier[a], &self.frontier[b]);
                    let joined = na.set.with(nb.set.highest());
                    // Apriori prune: every subset one smaller must have
                    // qualified. Dropping either of the two highest elements
                    // yields the parents, so only the prefix elements need a
                    // lookup.
                    if !prefix
                        .elements()
                        .all(|c| self.probabilities.contains_key(&joined.without(c)))
                    {
                        continue;
                    }
                    // worlds(A) ∩ worlds(B) = worlds(A ∪ B): one
                    // AND+popcount, written straight into the next level's
                    // arena and kept only if it qualifies.
                    let offset = next_words.len();
                    let mut support = 0usize;
                    for i in 0..stride {
                        let w = self.words[na.offset + i] & self.words[nb.offset + i];
                        next_words.push(w);
                        support += w.count_ones() as usize;
                    }
                    if support >= threshold {
                        self.probabilities.insert(joined.clone(), probability(support));
                        next.push(Node { set: joined, offset });
                    } else {
                        next_words.truncate(offset);
                        let expanded = joined
                            .elements()
                            .map(|c| classes[c].members)
                            .fold(1usize, usize::saturating_mul);
                        if candidates.add(expanded)? == Verdict::Degrade {
                            return Ok(Verdict::Degrade);
                        }
                    }
                }
            }
            class_start = class_end;
        }
        self.frontier = next;
        self.words = next_words;
        Ok(Verdict::Continue)
    }
}

/// One set of the timestamp level being extended: the class-set it
/// touches, its probability, and the position of its last (largest) column
/// in [`Columns::qualifying`].
struct Prefix<S> {
    touched: S,
    probability: f64,
    last: usize,
}

/// Runs Algorithm 1 for one object over the vertical representation.
///
/// The columns that reach [`support_threshold`] are grouped into classes of
/// identical world bitsets. Apriori's lattice runs over class-sets (a `u64`
/// up to 64 classes, one word per 64 classes above), and each timestamp
/// level `k` is emitted from level `k - 1` right after class level `k` is
/// mined (module docs). The answer is the one a timestamp-level Apriori
/// gives, down to the order and the probability bits, because a set's
/// support is its class-set's. The counters are too, by closed forms:
///
/// * `candidate_sets_evaluated` is `|T|`, plus the qualifying sets above
///   level 1, plus `Π_{c∈C} |c|` for every class candidate `C` that survives
///   the subset prune but fails the threshold. A failing timestamp set whose
///   one-smaller subsets all qualify holds exactly one member of each class
///   it touches: dropping a second member of a class would leave the same,
///   failing class-set. Every such choice of members is one candidate.
/// * `max_level` and `frontier_peak` are the deepest and widest emitted
///   levels.
///
/// With a [`BudgetGauge`] the gauge is polled after every emitted level and
/// each time the candidate count above reaches a multiple of
/// [`MINING_CHECK_INTERVAL`] (a failing class candidate advances it by its
/// product, an emitted set by 1), so an unbreached run polls
/// `max_level + ⌊E/1024⌋ − ⌊|T|/1024⌋` times at every `|T|`.
/// Cancellation is a typed error; a passed deadline *degrades* — a level
/// checkpoint keeps its level, a checkpoint within a level drops that
/// partial level, every set kept is exact (the anti-monotonicity argument
/// in the module docs), and the result is flagged [`PcnnResult::degraded`].
/// With `gauge = None` no checkpoint exists, so the result is always `Ok`.
pub fn vertical_timesets(
    worlds: &WorldSet,
    cfg: &PcnnConfig,
    gauge: Option<&BudgetGauge>,
) -> Result<PcnnResult, QueryError> {
    let threshold = support_threshold(cfg.tau, worlds.num_worlds());
    let columns = Columns::group(worlds, threshold);
    if columns.classes.len() <= 64 {
        mine::<u64>(worlds, &columns, threshold, cfg, gauge)
    } else {
        mine::<Box<[u64]>>(worlds, &columns, threshold, cfg, gauge)
    }
}

/// The lattice of [`vertical_timesets`] over class-sets of type `S`.
fn mine<S: ClassSet>(
    worlds: &WorldSet,
    columns: &Columns<'_>,
    threshold: usize,
    cfg: &PcnnConfig,
    gauge: Option<&BudgetGauge>,
) -> Result<PcnnResult, QueryError> {
    let num_worlds = worlds.num_worlds();
    let probability = |support: usize| {
        if num_worlds == 0 {
            0.0
        } else {
            support as f64 / num_worlds as f64
        }
    };
    let mut lattice = ClassLattice::<S>::new(&columns.classes, probability);
    // Level 1 (line 1 of Algorithm 1) validated every column.
    let mut candidates = Candidates { evaluated: worlds.num_times(), gauge };
    let mut sets = TimestampSets::default();
    let mut max_level = 0usize;
    let mut frontier_peak = 0usize;
    let mut degraded = false;

    // L1: the qualifying columns, ascending.
    let mut level: Vec<Prefix<S>> = Vec::with_capacity(columns.qualifying.len());
    for (last, &(t, c)) in columns.qualifying.iter().enumerate() {
        let probability = probability(columns.classes[c].support);
        sets.push(&[t], probability);
        level.push(Prefix { touched: S::empty(columns.classes.len()).with(c), probability, last });
    }

    while !level.is_empty() {
        max_level += 1;
        frontier_peak = frontier_peak.max(level.len());
        // Level checkpoint: this level is complete, so a deadline breach
        // keeps it and just stops going deeper.
        if let Some(g) = gauge {
            if g.probe(QueryPhase::Mining)? == Verdict::Degrade {
                degraded = true;
                break;
            }
        }
        // The next level: its class level first, then its sets. A breach
        // within it discards the partial level — the current (complete)
        // level is still reported.
        let level_end = sets.len();
        let first = level_end - level.len();
        if lattice.grow(&columns.classes, worlds.stride, threshold, probability, &mut candidates)?
            == Verdict::Degrade
        {
            degraded = true;
            break;
        }
        let mut next = Vec::new();
        'extend: for (i, prefix) in level.iter().enumerate() {
            for (last, &(t, c)) in columns.qualifying.iter().enumerate().skip(prefix.last + 1) {
                let (touched, probability) = if prefix.touched.contains(c) {
                    (prefix.touched.clone(), prefix.probability)
                } else {
                    let touched = prefix.touched.with(c);
                    match lattice.probabilities.get(&touched) {
                        Some(&probability) => (touched, probability),
                        None => continue,
                    }
                };
                if candidates.add(1)? == Verdict::Degrade {
                    sets.truncate(level_end);
                    degraded = true;
                    break 'extend;
                }
                sets.push_extension(first + i, t, probability);
                next.push(Prefix { touched, probability, last });
            }
        }
        if degraded {
            break;
        }
        level = next;
    }

    if cfg.maximal_only {
        sets = keep_maximal(&sets, max_level, columns, &lattice.probabilities);
    }
    Ok(PcnnResult {
        sets,
        candidate_sets_evaluated: candidates.evaluated,
        max_level,
        frontier_peak,
        degraded,
    })
}

/// The maximal-only variant over the emitted levels `1..=top`. A set below
/// `top` is subsumed iff it stays qualifying with one more qualifying
/// column: always for a column of a class it touches, and for any other
/// column iff the grown class-set qualifies (class levels up to `top` are
/// complete). Level `top` — the deepest kept, also after a degraded run —
/// has nothing above it and stays whole.
fn keep_maximal<S: ClassSet>(
    sets: &TimestampSets,
    top: usize,
    columns: &Columns<'_>,
    class_sets: &FxHashMap<S, f64>,
) -> TimestampSets {
    let mut kept = TimestampSets::default();
    for (set, &p) in sets {
        let subsumed = set.len() < top && {
            let touched = columns
                .qualifying
                .iter()
                .filter(|(t, _)| set.contains(t))
                .fold(S::empty(columns.classes.len()), |touched, &(_, c)| touched.with(c));
            columns.qualifying.iter().any(|&(t, c)| {
                !set.contains(&t)
                    && (touched.contains(c) || class_sets.contains_key(&touched.with(c)))
            })
        };
        if !subsumed {
            kept.push(set, p);
        }
    }
    kept
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

    /// 70 distinct columns, each holding worlds `t` and `t + 70` of 140: at
    /// τ = 0.01 every column qualifies alone and no two together, so the
    /// class-sets take two words and the 2 415 failing pairs pass two
    /// within-level checkpoints.
    fn many_classes_world_set() -> WorldSet {
        let mut ws = WorldSet::new(70, 140);
        for t in 0..70 {
            ws.record(t, t);
            ws.record(t, t + 70);
        }
        ws
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
    fn exists_support_counts_every_world_with_some_nn_timestamp_once() {
        // World 0 is a NN at all three timestamps and counts once.
        let ws = world_set(3, &[&[0, 1, 2], &[0, 1], &[2], &[]]);
        assert_eq!(ws.exists_support(), 3);

        // 130 worlds: a stride of three words.
        let mut wide = WorldSet::new(2, 130);
        for w in 0..130 {
            if w % 3 == 0 {
                wide.record(0, w);
            }
            if w % 2 == 0 {
                wide.record(1, w);
            }
        }
        let expected = (0..130).filter(|w| w % 3 == 0 || w % 2 == 0).count();
        assert_eq!(wide.exists_support(), expected);

        // A degraded run: 70 of 130 worlds sampled, every one a NN at one of
        // the two timestamps.
        let mut cut = WorldSet::new(2, 130);
        for w in 0..70 {
            cut.record(w % 2, w);
        }
        cut.truncate_worlds(70);
        assert_eq!((cut.exists_support(), cut.forall_support()), (70, 0));

        // No timestamp: no world is a NN at some timestamp, while every
        // world is one at all of them.
        let empty = WorldSet::new(0, 100);
        assert_eq!((empty.exists_support(), empty.forall_support()), (0, 100));
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
        let ws = many_classes_world_set();
        let cfg = PcnnConfig::new(0.01);
        let gauge = QueryBudget::unlimited().start();
        let governed = vertical_timesets(&ws, &cfg, Some(&gauge)).unwrap();
        let free = vertical_timesets(&ws, &cfg, None).unwrap();
        assert_eq!(governed.sets, free.sets);
        assert_eq!((governed.sets.len(), governed.max_level), (70, 1));
        assert_eq!(governed.candidate_sets_evaluated, 70 + 70 * 69 / 2);
        assert!(!governed.degraded);
        // The level checkpoint plus the ones at candidates 1 024 and 2 048.
        assert_eq!(gauge.checkpoints(), 3);
    }

    #[test]
    fn governed_miner_degrades_on_deadline_keeping_validated_singletons() {
        use crate::govern::QueryBudget;
        use std::time::Duration;
        let narrow = world_set(3, &[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let wide = wide_world_set();
        for (ws, tau, singletons) in [
            (narrow, 0.5, vec![0, 1, 2]),
            (wide, 0.5, vec![0, 63, 64, 75]),
            (many_classes_world_set(), 0.01, (0..70).collect()),
        ] {
            let gauge = QueryBudget::unlimited().with_deadline(Duration::ZERO).start();
            let result = vertical_timesets(&ws, &PcnnConfig::new(tau), Some(&gauge)).unwrap();
            assert!(result.degraded);
            // The zero deadline trips at the first level checkpoint: the L1
            // singletons were already validated and survive; nothing deeper
            // does.
            let sets: Vec<Vec<Timestamp>> = result.sets.iter().map(|(s, _)| s.to_vec()).collect();
            let expected: Vec<Vec<Timestamp>> = singletons.iter().map(|&t| vec![t]).collect();
            assert_eq!(sets, expected);
            assert_eq!(result.max_level, 1);
        }
    }

    #[test]
    fn governed_miner_cancellation_is_a_typed_error() {
        use crate::govern::{CancelToken, QueryBudget, QueryPhase};
        for (ws, tau) in [
            (world_set(3, &[&[0, 1, 2], &[0, 1, 2]]), 0.5),
            (wide_world_set(), 0.5),
            (many_classes_world_set(), 0.01),
        ] {
            let token = CancelToken::new();
            token.cancel();
            let gauge = QueryBudget::unlimited().with_cancel(&token).start();
            let err = vertical_timesets(&ws, &PcnnConfig::new(tau), Some(&gauge)).unwrap_err();
            assert!(matches!(err, QueryError::Cancelled { phase: QueryPhase::Mining, .. }));
        }
    }
}
