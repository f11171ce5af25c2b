//! Walker/Vose alias tables over CSR-laid-out adapted transition rows.
//!
//! The Monte-Carlo refinement phase draws one transition per object per chain
//! step per sampled world — at paper scale (10 000 worlds, hundreds of
//! influence objects, tens of timestamps) that is easily 10⁷–10⁸ categorical
//! draws per query. [`crate::SparseDist::sample_with`] answers each draw with
//! a linear inverse-CDF scan, O(support) per draw.
//!
//! An [`AliasKernel`] holds, once per [`crate::AdaptedModel`], every
//! a-posteriori transition row together with its Walker/Vose alias table, all
//! laid out in flat CSR-style arenas:
//!
//! * `step_starts` — per chain step `k`, the range of rows of `F(start+k)`,
//! * `sources` / `row_starts` — per row, its source state (sorted within the
//!   step) and the range of its slots,
//! * `cols` / `probs` — per slot, the target state and its probability: the
//!   row itself, read through [`TransitionRow`] by the exact oracles and the
//!   store encoder,
//! * `threshold` / `alias` — per slot, the Vose acceptance threshold and the
//!   in-row slot offset of its alias,
//! * `next_row` — per slot, the successor link: the row of the slot's target
//!   at step `k + 1`, or [`AliasKernel::NO_ROW`] at the last step and where
//!   that target has no non-empty row.
//!
//! The first five arrays are a [`StepRows`] arena; the adaptation fills one
//! with `F(t)` and the store decoder fills one with the stored rows, and
//! [`AliasKernel::from_rows`] adds the alias tables and the links on top, so
//! fresh and decoded models get the same kernel and the store format holds
//! no kernel bytes. The kernel is the only copy of `F(t)` a model keeps. The
//! links cost 4 bytes per slot.
//!
//! **A walk searches once.** [`AliasKernel::row_of`] finds the row of a
//! walk's first state by one binary search over the step's sources; every
//! later step is one O(1) [`AliasKernel::draw`], which returns the drawn
//! target together with its row at the next step. A draw uses exactly one
//! uniform `u ∈ [0, 1)`: `u · n` selects a slot, its fractional part is
//! compared against the slot's threshold, and either the slot itself or its
//! alias wins. [`AliasKernel::sample`] is `row_of` followed by `draw`, so
//! every path picks a target from `u` the same way, and one uniform per
//! transition is the same RNG-draw discipline as the inverse-CDF path.
//!
//! Alias draws consume `u` differently from inverse-CDF draws, so the two
//! paths are *not* bit-identical per world; they are distributionally
//! identical (each target is selected with exactly its row probability, up to
//! f64 rounding of `p·n/mass`), which the equivalence suite in
//! `tests/alias_equivalence.rs` pins by construction checks and frequency
//! comparison on shared `u` streams; it also checks every link against a
//! fresh row search.
//!
//! Construction is deterministic: rows are laid out in (step, source-id)
//! order, each row's mass is the left-to-right fold of its probabilities, and
//! the Vose small/large worklists are filled in increasing slot order and
//! drained LIFO, so equal rows produce byte-equal kernels on every platform
//! and thread count.

use crate::StateId;
use std::cell::Cell;
use std::ops::Range;

/// Per-step transition rows in CSR arenas, filled row by row.
///
/// A row is built by [`push_slot`](Self::push_slot) calls for its entries and
/// closed by [`finish_row`](Self::finish_row) with its source state; a step is
/// closed by [`finish_step`](Self::finish_step). Within a step, sources must
/// be strictly increasing (row lookup is a binary search); within a row,
/// targets are kept in push order.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRows {
    /// `step_starts[k]..step_starts[k+1]` indexes the rows of step `k` in
    /// `sources`/`row_starts`. Length `num_steps + 1`.
    step_starts: Vec<u32>,
    /// Source state of each row, strictly increasing within a step.
    sources: Vec<StateId>,
    /// `row_starts[r]..row_starts[r+1]` indexes the slots of row `r` in
    /// `cols`/`probs`. Length `sources.len() + 1`.
    row_starts: Vec<u32>,
    /// Target state of each slot (the CSR column array).
    cols: Vec<StateId>,
    /// Probability of each slot's target (the CSR value array).
    probs: Vec<f64>,
}

impl Default for StepRows {
    fn default() -> Self {
        StepRows {
            step_starts: vec![0],
            sources: Vec::new(),
            row_starts: vec![0],
            cols: Vec::new(),
            probs: Vec::new(),
        }
    }
}

impl StepRows {
    /// An arena with no steps.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the arena, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.step_starts.truncate(1);
        self.sources.clear();
        self.row_starts.truncate(1);
        self.cols.clear();
        self.probs.clear();
    }

    /// Appends one `(target, probability)` slot to the open row.
    #[inline]
    pub fn push_slot(&mut self, target: StateId, prob: f64) {
        self.cols.push(target);
        self.probs.push(prob);
    }

    /// Closes the open row — the slots pushed since the last closed row —
    /// under `source`.
    #[inline]
    pub fn finish_row(&mut self, source: StateId) {
        debug_assert!(
            self.sources.len() == self.step_starts[self.step_starts.len() - 1] as usize
                || self.sources.last().is_none_or(|&prev| prev < source),
            "rows of a step must arrive in strictly increasing source order"
        );
        self.sources.push(source);
        self.row_starts.push(self.cols.len() as u32);
    }

    /// Closes the open step: the rows finished since the last closed step.
    pub fn finish_step(&mut self) {
        self.step_starts.push(self.sources.len() as u32);
    }

    /// Number of closed steps.
    #[inline]
    fn num_steps(&self) -> usize {
        self.step_starts.len() - 1
    }

    /// The row indices of `step`, or `None` past the last step.
    #[inline]
    fn step_range(&self, step: usize) -> Option<Range<usize>> {
        let lo = *self.step_starts.get(step)? as usize;
        let hi = *self.step_starts.get(step + 1)? as usize;
        Some(lo..hi)
    }

    /// The slot indices of row `r`.
    #[inline]
    fn slots(&self, r: usize) -> Range<usize> {
        self.row_starts[r] as usize..self.row_starts[r + 1] as usize
    }

    /// The slot indices of every row of the row range `rows`.
    #[inline]
    fn slots_of(&self, rows: &Range<usize>) -> Range<usize> {
        self.row_starts[rows.start] as usize..self.row_starts[rows.end] as usize
    }

    /// The row index of `(step, source)`, found by binary search over the
    /// step's sorted sources. `None` if the step is out of range or the
    /// source has no row there.
    #[inline]
    fn row_index(&self, step: usize, source: StateId) -> Option<usize> {
        let rows = self.step_range(step)?;
        Some(rows.start + self.sources[rows].binary_search(&source).ok()?)
    }

    /// The slot window of `(step, source)`, if it has a row.
    #[inline]
    fn row_slots(&self, step: usize, source: StateId) -> Option<Range<usize>> {
        self.row_index(step, source).map(|r| self.slots(r))
    }

    /// The row view over a slot window.
    #[inline]
    fn view(&self, slots: Range<usize>) -> TransitionRow<'_> {
        TransitionRow { targets: &self.cols[slots.clone()], probs: &self.probs[slots] }
    }

    /// The row of `(step, source)`, if it exists.
    #[inline]
    pub(crate) fn row(&self, step: usize, source: StateId) -> Option<TransitionRow<'_>> {
        self.row_slots(step, source).map(|slots| self.view(slots))
    }

    /// The rows of `step` in increasing source order (empty past the last
    /// step).
    pub(crate) fn step_rows(
        &self,
        step: usize,
    ) -> impl ExactSizeIterator<Item = (StateId, TransitionRow<'_>)> + '_ {
        self.step_range(step)
            .unwrap_or(0..0)
            .map(move |r| (self.sources[r], self.view(self.slots(r))))
    }

    /// This arena with its steps in reverse order — rows within a step and
    /// slots within a row keep theirs — allocated at its exact size.
    pub(crate) fn reversed(&self) -> StepRows {
        let mut out = StepRows {
            step_starts: Vec::with_capacity(self.step_starts.len()),
            sources: Vec::with_capacity(self.sources.len()),
            row_starts: Vec::with_capacity(self.row_starts.len()),
            cols: Vec::with_capacity(self.cols.len()),
            probs: Vec::with_capacity(self.probs.len()),
        };
        out.step_starts.push(0);
        out.row_starts.push(0);
        for step in (0..self.num_steps()).rev() {
            let rows = self.step_range(step).expect("step in range");
            let slots = self.slots_of(&rows);
            let shift = out.cols.len() as u32;
            out.sources.extend_from_slice(&self.sources[rows.clone()]);
            out.row_starts.extend(
                self.row_starts[rows.start + 1..=rows.end]
                    .iter()
                    .map(|&end| end - slots.start as u32 + shift),
            );
            out.cols.extend_from_slice(&self.cols[slots.clone()]);
            out.probs.extend_from_slice(&self.probs[slots]);
            out.step_starts.push(out.sources.len() as u32);
        }
        out
    }
}

/// A borrowed transition row: parallel target and probability slices, in
/// increasing target order for every row an adaptation or a store produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRow<'a> {
    targets: &'a [StateId],
    probs: &'a [f64],
}

impl<'a> TransitionRow<'a> {
    /// The target states.
    #[inline]
    pub fn targets(&self) -> &'a [StateId] {
        self.targets
    }

    /// The probabilities, parallel to [`targets`](Self::targets).
    #[inline]
    pub fn probs(&self) -> &'a [f64] {
        self.probs
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the row has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterator over `(target, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, f64)> + 'a {
        self.targets.iter().copied().zip(self.probs.iter().copied())
    }

    /// Probability of `target` (zero if the row does not reach it).
    pub fn prob(&self, target: StateId) -> f64 {
        match self.targets.binary_search(&target) {
            Ok(i) => self.probs[i],
            Err(_) => 0.0,
        }
    }
}

/// Precomputed O(1) sampling kernel of an adapted model: per chain step, the
/// rows of every reachable state with their Walker/Vose alias tables and
/// successor links, in flat CSR arenas.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasKernel {
    /// The rows themselves (`step_starts`, `sources`, `row_starts`, `cols`,
    /// `probs`).
    rows: StepRows,
    /// Vose acceptance threshold of each slot, in `[0, 1]`.
    threshold: Vec<f64>,
    /// In-row offset of each slot's alias: the slot drawn when the fractional
    /// part of `u·n` lands at or above the threshold.
    alias: Vec<u32>,
    /// Row of each slot's target at the next step, or
    /// [`NO_ROW`](Self::NO_ROW).
    next_row: Vec<u32>,
}

impl Default for AliasKernel {
    fn default() -> Self {
        AliasKernel::from_rows(StepRows::new())
    }
}

thread_local! {
    /// Per state, its non-empty row at the step being linked to, else
    /// `NO_ROW`; all `NO_ROW` between uses and grown once per thread, so a
    /// kernel build neither allocates nor clears an array as long as the
    /// state space (up to 500 000 states at paper scale).
    static ROW_OF_STATE: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

impl AliasKernel {
    /// The successor link of a slot a walk cannot go on from: every slot of
    /// the last step, and a slot whose target has no non-empty row at the
    /// next step.
    pub const NO_ROW: u32 = u32::MAX;

    /// Builds the kernel over `rows`: runs Vose's O(n) alias construction on
    /// every row, in arena order, and links every slot to its target's row
    /// at the next step.
    pub fn from_rows(rows: StepRows) -> Self {
        let mut threshold = vec![1.0; rows.cols.len()];
        let mut alias = vec![0; rows.cols.len()];
        let mut vose = Vose::default();
        for r in 0..rows.sources.len() {
            let slots = rows.slots(r);
            vose.build(
                &rows.probs[slots.clone()],
                &mut threshold[slots.clone()],
                &mut alias[slots],
            );
        }
        let next_row = successor_links(&rows);
        AliasKernel { rows, threshold, alias, next_row }
    }

    /// Builds the kernel from per-step `(source, entries)` lists, each row's
    /// entries a `(target, probability)` slice such as
    /// [`SparseDist::entries`](crate::SparseDist::entries).
    ///
    /// Each step's rows must be sorted by strictly increasing source state,
    /// so the row search and the deterministic layout hold.
    pub fn from_steps<'a, I, R>(steps: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = (StateId, &'a [(StateId, f64)])>,
    {
        let mut rows = StepRows::new();
        for step in steps {
            for (source, entries) in step {
                for &(target, p) in entries {
                    rows.push_slot(target, p);
                }
                rows.finish_row(source);
            }
            rows.finish_step();
        }
        AliasKernel::from_rows(rows)
    }

    /// Number of chain steps covered.
    #[inline]
    pub fn num_steps(&self) -> usize {
        self.rows.num_steps()
    }

    /// Total number of stored rows across all steps.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.sources.len()
    }

    /// Total number of slots (non-zero transition entries) across all rows.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.rows.cols.len()
    }

    /// The row of `(step, source)`, or `None` if the step is out of range or
    /// the source has no row there.
    pub fn row(&self, step: usize, source: StateId) -> Option<TransitionRow<'_>> {
        self.rows.row(step, source)
    }

    /// The rows of `step` in increasing source order (empty past the last
    /// step).
    pub(crate) fn step_rows(
        &self,
        step: usize,
    ) -> impl ExactSizeIterator<Item = (StateId, TransitionRow<'_>)> + '_ {
        self.rows.step_rows(step)
    }

    /// The first step at which a walk that starts in `first` can stand on a
    /// state with no non-empty row, so that a draw would find nowhere to go:
    /// `Some(0)` when `first` has none at step 0, `Some(k + 1)` when a target
    /// of some step-`k` row has none at step `k + 1`, and `None` when every
    /// walk can always move on. Rows of states no walk reaches are checked
    /// too. One scan of the links: before the last step, a
    /// [`NO_ROW`](Self::NO_ROW) link is exactly such a target.
    pub(crate) fn uncovered_step(&self, first: StateId) -> Option<usize> {
        let rows = &self.rows;
        if rows.num_steps() == 0 {
            return None;
        }
        if self.row_of(0, first).is_none() {
            return Some(0);
        }
        (1..rows.num_steps()).find(|&next| {
            let here = rows.step_range(next - 1).expect("step in range");
            self.next_row[rows.slots_of(&here)].contains(&Self::NO_ROW)
        })
    }

    /// The row a walk standing on `source` at `step` draws from: one binary
    /// search over the step's sources. `None` if the step is out of range or
    /// the source has no row there, or only an empty one.
    #[inline]
    pub fn row_of(&self, step: usize, source: StateId) -> Option<u32> {
        let r = self.rows.row_index(step, source)?;
        (!self.rows.slots(r).is_empty()).then_some(r as u32)
    }

    /// Draws from `row` with one uniform `u ∈ [0, 1)`: an O(1) alias pick.
    /// Returns the drawn target and its row at the next step, which is the
    /// next draw's `row`, or [`NO_ROW`](Self::NO_ROW) when no walk goes on
    /// from the target.
    ///
    /// `row` must come from [`row_of`](Self::row_of) or from an earlier
    /// draw's link; another value may panic or draw from an unrelated row.
    /// `u` obeys the same `[0, 1)` contract as
    /// [`SparseDist::sample_with`](crate::SparseDist::sample_with).
    #[inline]
    pub fn draw(&self, row: u32, u: f64) -> (StateId, u32) {
        debug_assert!(
            u.is_finite() && (0.0..1.0).contains(&u),
            "alias draw requires u in [0, 1), got {u}"
        );
        let row = row as usize;
        let lo = self.rows.row_starts[row] as usize;
        let n = self.rows.row_starts[row + 1] as usize - lo;
        debug_assert!(n > 0, "draw from an empty row");
        let scaled = u * n as f64;
        // `u` close to 1 can round `u·n` up to `n` for large rows; clamp to
        // the last slot (the standard guard of the alias method).
        let idx = (scaled as usize).min(n - 1);
        let frac = scaled - idx as f64;
        let slot = lo + idx;
        let pick = if frac < self.threshold[slot] { slot } else { lo + self.alias[slot] as usize };
        (self.rows.cols[pick], self.next_row[pick])
    }

    /// Draws from the row of `(step, source)` with one uniform `u ∈ [0, 1)`:
    /// [`row_of`](Self::row_of), then [`draw`](Self::draw). Returns `None`
    /// if the row does not exist or is empty.
    #[inline]
    pub fn sample(&self, step: usize, source: StateId, u: f64) -> Option<StateId> {
        Some(self.draw(self.row_of(step, source)?, u).0)
    }

    /// The exact probability the alias table assigns to `target` in the row
    /// of `(step, source)` under a uniform `u`: the Lebesgue measure of the
    /// `u`-values that select it. Used by the equivalence tests to prove the
    /// table is a faithful encoding of the row, independent of sampling.
    pub fn table_probability(&self, step: usize, source: StateId, target: StateId) -> f64 {
        let Some(range) = self.rows.row_slots(step, source) else { return 0.0 };
        let n = range.end - range.start;
        if n == 0 {
            return 0.0;
        }
        let mut measure = 0.0;
        for slot in range.clone() {
            if self.rows.cols[slot] == target {
                measure += self.threshold[slot];
            }
            if self.rows.cols[range.start + self.alias[slot] as usize] == target {
                measure += 1.0 - self.threshold[slot];
            }
        }
        measure / n as f64
    }
}

/// The successor link of every slot of `rows`: per step, the non-empty rows
/// of the next step go into a dense state → row scratch, every slot of the
/// step reads its target's entry, and the entries are reset.
fn successor_links(rows: &StepRows) -> Vec<u32> {
    let mut next_row = vec![AliasKernel::NO_ROW; rows.cols.len()];
    // The scratch leaves its slot for the call: a panic drops it rather than
    // leaving entries set.
    let mut row_of = ROW_OF_STATE.take();
    // A step's sources are sorted, so its last is its largest.
    let states = (1..rows.num_steps())
        .filter_map(|k| rows.sources[rows.step_range(k).expect("step in range")].last())
        .max()
        .map_or(0, |&s| s as usize + 1);
    if row_of.len() < states {
        row_of.resize(states, AliasKernel::NO_ROW);
    }
    for next in 1..rows.num_steps() {
        let there = rows.step_range(next).expect("step in range");
        for r in there.clone().filter(|&r| !rows.slots(r).is_empty()) {
            row_of[rows.sources[r] as usize] = r as u32;
        }
        let here = rows.slots_of(&rows.step_range(next - 1).expect("step in range"));
        for (link, &target) in next_row[here.clone()].iter_mut().zip(&rows.cols[here]) {
            *link = row_of.get(target as usize).copied().unwrap_or(AliasKernel::NO_ROW);
        }
        for &source in &rows.sources[there] {
            row_of[source as usize] = AliasKernel::NO_ROW;
        }
    }
    ROW_OF_STATE.set(row_of);
    next_row
}

/// Worklists of Vose's construction, reused across the rows of one kernel.
#[derive(Debug, Default)]
struct Vose {
    scaled: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

impl Vose {
    /// Fills one row's `threshold`/`alias` slots, which arrive initialised to
    /// 1.0 and 0; every slot starts as its own alias. Vose: scale each
    /// probability by n/mass, split slots into "small" (< 1) and "large"
    /// (≥ 1), and repeatedly pair one of each — the small slot keeps itself
    /// below its threshold and borrows the large slot above it. Worklists
    /// are filled in slot order and drained from the back, so the
    /// construction is deterministic.
    fn build(&mut self, probs: &[f64], threshold: &mut [f64], alias: &mut [u32]) {
        let n = probs.len();
        if n == 0 {
            return;
        }
        for (i, slot) in alias.iter_mut().enumerate() {
            *slot = i as u32;
        }
        let mass: f64 = probs.iter().sum();
        let Vose { scaled, small, large } = self;
        scaled.clear();
        scaled.extend(probs.iter().map(|&p| p * n as f64 / mass));
        small.clear();
        large.clear();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            threshold[s] = scaled[s];
            alias[s] = l as u32;
            // The large slot donated `1 - scaled[s]` of its mass.
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (all ≈ 1 up to rounding) keep threshold 1.0 / self-alias
        // from the initialisation: they always accept themselves.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseDist;

    fn kernel_of(rows: Vec<(StateId, SparseDist)>) -> AliasKernel {
        AliasKernel::from_steps([rows.iter().map(|(s, d)| (*s, d.entries()))])
    }

    #[test]
    fn empty_kernel_has_no_rows() {
        let k = AliasKernel::from_steps(Vec::<Vec<(StateId, &[(StateId, f64)])>>::new());
        assert_eq!(k.num_steps(), 0);
        assert_eq!(k.num_rows(), 0);
        assert!(k.sample(0, 0, 0.5).is_none());
        assert_eq!(k, AliasKernel::default());
    }

    #[test]
    fn delta_row_always_returns_its_single_target() {
        let k = kernel_of(vec![(3, SparseDist::delta(7))]);
        assert_eq!(k.num_slots(), 1);
        for u in [0.0, 0.25, 0.999] {
            assert_eq!(k.sample(0, 3, u), Some(7));
        }
        assert_eq!(k.sample(0, 4, 0.5), None, "missing source has no row");
        assert_eq!(k.sample(1, 3, 0.5), None, "step out of range");
    }

    #[test]
    fn table_measure_reproduces_row_probabilities_exactly() {
        // Probabilities with exact binary representations, so the Vose
        // scaling is lossless and the slot measures must recover them
        // bit-for-bit.
        let row = SparseDist::from_pairs(vec![(10, 0.5), (20, 0.25), (30, 0.125), (40, 0.125)]);
        let k = kernel_of(vec![(0, row.clone())]);
        for (state, p) in row.iter() {
            assert_eq!(k.table_probability(0, 0, state), p, "state {state}");
        }
        assert_eq!(k.table_probability(0, 0, 99), 0.0);
    }

    #[test]
    fn heavy_tail_row_measures_match_within_rounding() {
        let row = SparseDist::from_pairs((0..64u32).map(|s| (s, 0.97f64.powi(s as i32))));
        let k = kernel_of(vec![(0, row.clone())]);
        let mass = row.total_mass();
        for (state, p) in row.iter() {
            let want = p / mass;
            let got = k.table_probability(0, 0, state);
            assert!((got - want).abs() < 1e-12, "state {state}: {got} vs {want}");
        }
    }

    #[test]
    fn sampling_never_leaves_the_support_and_hits_every_state() {
        let row = SparseDist::from_pairs(vec![(2, 0.1), (5, 0.6), (9, 0.3)]);
        let k = kernel_of(vec![(1, row.clone())]);
        let support: Vec<StateId> = row.support().collect();
        let mut seen = [false; 3];
        // A deterministic low-discrepancy sweep of u.
        for i in 0..10_000 {
            let u = (i as f64 + 0.5) / 10_000.0;
            let s = k.sample(0, 1, u).unwrap();
            let pos = support.binary_search(&s).expect("target inside the support");
            seen[pos] = true;
        }
        assert!(seen.iter().all(|&b| b), "every support state is reachable");
    }

    #[test]
    fn top_of_range_u_is_clamped_to_the_last_slot() {
        let row = SparseDist::uniform(0..1000u32);
        let k = kernel_of(vec![(0, row)]);
        let max_u = 1.0 - f64::EPSILON / 2.0;
        assert!(k.sample(0, 0, max_u).is_some(), "u → 1 must not index past the slots");
    }

    #[test]
    fn multi_step_layout_keeps_rows_separate() {
        let (d1, d2, d3) = (SparseDist::delta(1), SparseDist::delta(2), SparseDist::delta(3));
        let k = AliasKernel::from_steps(vec![
            vec![(0u32, d1.entries()), (2, d3.entries())],
            vec![(1u32, d2.entries())],
        ]);
        assert_eq!(k.num_steps(), 2);
        assert_eq!(k.num_rows(), 3);
        assert_eq!(k.sample(0, 0, 0.5), Some(1));
        assert_eq!(k.sample(0, 2, 0.5), Some(3));
        assert_eq!(k.sample(1, 1, 0.5), Some(2));
        assert_eq!(k.sample(1, 0, 0.5), None);
        let row = k.row(0, 2).unwrap();
        assert_eq!(row.targets(), &[3]);
        assert_eq!(row.probs(), &[1.0]);
        let step: Vec<StateId> = k.step_rows(0).map(|(s, _)| s).collect();
        assert_eq!(step, vec![0, 2]);
        assert_eq!(k.step_rows(2).len(), 0, "past the last step");
    }

    #[test]
    fn links_lead_to_the_next_steps_row_or_nowhere() {
        let (d1, d2, d3) = (SparseDist::delta(1), SparseDist::delta(2), SparseDist::delta(3));
        let empty: &[(StateId, f64)] = &[];
        // Step 0: 0 → 1, 2 → 3, 4 → 2; step 1: 1 → 2, 2 → nothing (empty row).
        let k = AliasKernel::from_steps(vec![
            vec![(0u32, d1.entries()), (2, d3.entries()), (4, d2.entries())],
            vec![(1u32, d2.entries()), (2, empty)],
        ]);
        let at = |step, source| k.row_of(step, source);
        assert_eq!(k.draw(at(0, 0).unwrap(), 0.5), (1, at(1, 1).unwrap()));
        assert_eq!(k.draw(at(0, 2).unwrap(), 0.5), (3, AliasKernel::NO_ROW), "3 has no row");
        assert_eq!(k.draw(at(0, 4).unwrap(), 0.5), (2, AliasKernel::NO_ROW), "2's row is empty");
        assert_eq!(k.draw(at(1, 1).unwrap(), 0.5), (2, AliasKernel::NO_ROW), "last step");
        assert_eq!(at(1, 2), None, "an empty row is no row to draw from");
        assert_eq!((at(1, 0), at(2, 1)), (None, None));
        // A walk from 0 always moves on, but the rows out of 2 and 4 are
        // checked too.
        assert_eq!(k.uncovered_step(0), Some(1));
    }

    #[test]
    fn construction_is_deterministic() {
        let rows: Vec<(StateId, SparseDist)> = (0..20u32)
            .map(|s| (s, SparseDist::from_pairs((0..8u32).map(|t| (t, (s + t + 1) as f64)))))
            .collect();
        let a = kernel_of(rows.clone());
        let b = kernel_of(rows);
        assert_eq!(a, b, "equal inputs must produce byte-equal kernels");
    }

    #[test]
    fn reversing_steps_keeps_rows_and_exact_sizes() {
        let mut rows = StepRows::new();
        for (step, sources) in [vec![1u32, 4], vec![], vec![0, 2, 3]].into_iter().enumerate() {
            for source in sources {
                rows.push_slot(source + 10, 0.5);
                rows.push_slot(source + 20 + step as StateId, 0.5);
                rows.finish_row(source);
            }
            rows.finish_step();
        }
        let back = rows.reversed();
        assert_eq!(back.num_steps(), 3);
        for step in 0..3 {
            let want: Vec<_> =
                rows.step_rows(2 - step).map(|(s, r)| (s, r.iter().collect::<Vec<_>>())).collect();
            let got: Vec<_> =
                back.step_rows(step).map(|(s, r)| (s, r.iter().collect::<Vec<_>>())).collect();
            assert_eq!(got, want, "step {step}");
        }
        assert_eq!(back.reversed(), rows, "reversing twice is the identity");
        assert_eq!(back.cols.capacity(), back.cols.len());
    }

    #[test]
    fn uncovered_step_finds_the_first_dead_end() {
        let delta = |s: StateId| SparseDist::delta(s);
        let (d1, d2) = (delta(1), delta(2));
        // 0 → 1 → 2: every walk from 0 can move on.
        let k = AliasKernel::from_steps(vec![vec![(0u32, d1.entries())], vec![(1, d2.entries())]]);
        assert_eq!(k.uncovered_step(0), None);
        assert_eq!(k.uncovered_step(5), Some(0), "the first state has no row at step 0");
        // 0 → 1, but step 1 only has a row for 2.
        let k = AliasKernel::from_steps(vec![vec![(0u32, d1.entries())], vec![(2, d2.entries())]]);
        assert_eq!(k.uncovered_step(0), Some(1));
        // An empty row is no way on either.
        let empty: &[(StateId, f64)] = &[];
        let k = AliasKernel::from_steps(vec![vec![(0u32, d1.entries())], vec![(1, empty)]]);
        assert_eq!(k.uncovered_step(0), Some(1));
        assert_eq!(AliasKernel::default().uncovered_step(0), None, "no steps, no walk");
    }
}
