//! Sparse probability distributions and compressed sparse-row matrices.
//!
//! The transition matrices of the paper's experiments are extremely sparse:
//! the synthetic networks connect each state to `b ≈ 6..10` neighbors, the
//! road network of the taxi data to the adjacent crossings. A dense
//! `|S| × |S|` representation would need 2 × 10¹¹ entries at the paper's
//! largest configuration; the CSR representation stores only the non-zero
//! entries, and the forward–backward adaptation (Section 5.2.3) touches only
//! the reachable rows, which is exactly how the paper obtains its
//! `O(|T| · |S|²)` worst-case / near-linear practical behaviour.

use crate::StateId;
use rustc_hash::FxHashMap;

/// Numerical tolerance used for stochasticity checks.
pub const PROB_EPSILON: f64 = 1e-9;

/// Smallest total mass [`SparseDist::normalize`] accepts.
///
/// Dividing by a (near-)subnormal mass can overflow entries to `inf` while
/// the division itself "succeeds"; the guard is drawn from the same tolerance
/// family as [`PROB_EPSILON`]: any mass small enough that `entry / mass`
/// could exceed `1 / PROB_EPSILON` × the largest finite ratio is treated as
/// zero. `f64::MIN_POSITIVE / PROB_EPSILON` ≈ 2.2e-299 keeps every division
/// on normalized floats with lossless headroom.
pub const MIN_NORMALIZABLE_MASS: f64 = f64::MIN_POSITIVE * (1.0 / PROB_EPSILON);

/// Whether [`SparseDist::normalize`] divides by `mass` rather than refusing
/// it: not NaN and at least [`MIN_NORMALIZABLE_MASS`].
#[inline]
pub(crate) fn normalizable(mass: f64) -> bool {
    // NaN fails the comparison, so it is refused too.
    mass >= MIN_NORMALIZABLE_MASS
}

// ---------------------------------------------------------------------------
// SparseDist
// ---------------------------------------------------------------------------

/// A sparse probability distribution over states.
///
/// Entries are stored sorted by state id with strictly positive probability.
/// The distribution of an uncertain object at one timestamp (`~s^o(t)` in the
/// paper) has support bounded by the states reachable between the two
/// enclosing observations, which is tiny compared to `|S|`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDist {
    entries: Vec<(StateId, f64)>,
    /// Cached sum of all probabilities, kept in sync by every constructor and
    /// by [`normalize`](Self::normalize) — always computed by the same
    /// left-to-right fold over `entries`, so it is bit-identical to summing on
    /// demand. [`sample_with`](Self::sample_with) runs once per chain step of
    /// every sampled possible world; re-summing there dominated the draw.
    mass: f64,
}

/// The left-to-right probability fold shared by the `mass` cache and the
/// pre-cache `total_mass()`.
fn mass_of(entries: &[(StateId, f64)]) -> f64 {
    entries.iter().map(|&(_, p)| p).sum()
}

impl Default for SparseDist {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseDist {
    /// The empty (all-zero) distribution.
    pub fn new() -> Self {
        SparseDist { entries: Vec::new(), mass: mass_of(&[]) }
    }

    /// A point mass (Dirac delta) on `state`.
    pub fn delta(state: StateId) -> Self {
        let entries = vec![(state, 1.0)];
        let mass = mass_of(&entries);
        SparseDist { entries, mass }
    }

    /// Builds a distribution from `(state, weight)` pairs.
    ///
    /// Duplicate states are summed, zero or negative weights dropped, and the
    /// result is *not* normalized (use [`SparseDist::normalize`]).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (StateId, f64)>) -> Self {
        let mut map: FxHashMap<StateId, f64> = FxHashMap::default();
        for (s, w) in pairs {
            if w > 0.0 {
                *map.entry(s).or_insert(0.0) += w;
            }
        }
        let mut entries: Vec<(StateId, f64)> = map.into_iter().collect();
        entries.sort_unstable_by_key(|&(s, _)| s);
        let mass = mass_of(&entries);
        SparseDist { entries, mass }
    }

    /// Uniform distribution over the given support.
    pub fn uniform(support: impl IntoIterator<Item = StateId>) -> Self {
        let mut states: Vec<StateId> = support.into_iter().collect();
        states.sort_unstable();
        states.dedup();
        if states.is_empty() {
            return SparseDist::new();
        }
        let p = 1.0 / states.len() as f64;
        let entries: Vec<(StateId, f64)> = states.into_iter().map(|s| (s, p)).collect();
        let mass = mass_of(&entries);
        SparseDist { entries, mass }
    }

    /// Number of states with non-zero probability.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Whether the distribution has empty support.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probability of `state` (zero if outside the support).
    pub fn prob(&self, state: StateId) -> f64 {
        match self.entries.binary_search_by_key(&state, |&(s, _)| s) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(state, probability)` pairs in increasing state order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The support (states with non-zero probability), sorted.
    pub fn support(&self) -> impl Iterator<Item = StateId> + '_ {
        self.entries.iter().map(|&(s, _)| s)
    }

    /// Sum of all probabilities (cached; see the `mass` field).
    #[inline]
    pub fn total_mass(&self) -> f64 {
        debug_assert_eq!(self.mass.to_bits(), mass_of(&self.entries).to_bits());
        self.mass
    }

    /// Scales all probabilities so they sum to one.
    ///
    /// Returns `false` (and leaves the distribution untouched) if the total
    /// mass is zero, NaN, or too small to divide by without producing
    /// non-finite entries ([`MIN_NORMALIZABLE_MASS`]).
    pub fn normalize(&mut self) -> bool {
        let mass = self.total_mass();
        if !normalizable(mass) {
            return false;
        }
        for (_, p) in &mut self.entries {
            *p /= mass;
        }
        self.mass = mass_of(&self.entries);
        true
    }

    /// Whether the distribution sums to one within [`PROB_EPSILON`].
    pub fn is_normalized(&self) -> bool {
        (self.total_mass() - 1.0).abs() < PROB_EPSILON
    }

    /// The most likely state, or `None` for an empty distribution.
    ///
    /// Probability ties resolve to the **lowest** state id. (`max_by` alone
    /// would return the last maximum, i.e. the highest id — an arbitrary
    /// winner nothing downstream pins; the explicit tiebreak keeps argmax
    /// tracks deterministic and documented.)
    pub fn argmax(&self) -> Option<StateId> {
        self.entries
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|&(s, _)| s)
    }

    /// Consumes a uniform random number `u ∈ [0, 1)` and returns the sampled
    /// state (inverse-CDF sampling). Returns `None` for an empty distribution.
    ///
    /// `u` **must** lie in `[0, 1)`: a `u ≥ 1` or NaN fails every
    /// `target < acc` comparison and would be silently mapped to the last
    /// support state by the numerical-slack fallback below, skewing the
    /// distribution. The contract is asserted in debug builds; every
    /// `ust-sampling` call site draws `u` via `rand`'s `gen::<f64>()`, whose
    /// `(next_u64() >> 11) · 2⁻⁵³` construction is confined to
    /// `[0, 1 − 2⁻⁵³] ⊂ [0, 1)`.
    ///
    /// Keeping the RNG outside this crate keeps `ust-markov` free of any
    /// randomness dependency; the samplers in `ust-sampling` provide `u`.
    pub fn sample_with(&self, u: f64) -> Option<StateId> {
        debug_assert!(
            u.is_finite() && (0.0..1.0).contains(&u),
            "sample_with requires u in [0, 1), got {u}"
        );
        if self.entries.is_empty() {
            return None;
        }
        let target = u * self.total_mass();
        let mut acc = 0.0;
        for &(s, p) in &self.entries {
            acc += p;
            if target < acc {
                return Some(s);
            }
        }
        // Numerical slack: for a valid `u` this is reachable only when the
        // mass is (near-)subnormal, so that `u * mass` rounds up to the final
        // `acc` (both are the same left-to-right fold; see the pinning test
        // `float_slack_fallback_is_reachable_only_at_subnormal_mass`). Fall
        // back to the last state.
        self.entries.last().map(|&(s, _)| s)
    }

    /// Adopts entries already sorted by strictly increasing state, each with
    /// a positive probability, verbatim. For such entries this is exactly
    /// [`from_pairs`](Self::from_pairs) — same entries, same cached mass —
    /// without its hash map and sort. The order is checked in debug builds.
    pub fn from_sorted(entries: Vec<(StateId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be sorted");
        let mass = mass_of(&entries);
        SparseDist { entries, mass }
    }

    /// Access to the raw entries.
    pub fn entries(&self) -> &[(StateId, f64)] {
        &self.entries
    }
}

impl FromIterator<(StateId, f64)> for SparseDist {
    fn from_iter<T: IntoIterator<Item = (StateId, f64)>>(iter: T) -> Self {
        SparseDist::from_pairs(iter)
    }
}

// ---------------------------------------------------------------------------
// CsrMatrix
// ---------------------------------------------------------------------------

/// A row-sparse matrix over the state space: `M[i][j] = P(o(t+1)=s_j | o(t)=s_i)`.
///
/// Rows are stored contiguously (CSR layout): `row_offsets[i]..row_offsets[i+1]`
/// indexes into the parallel `cols`/`vals` arrays.
#[derive(Debug, Clone, Default)]
pub struct CsrMatrix {
    num_states: usize,
    row_offsets: Vec<usize>,
    cols: Vec<StateId>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from per-row `(column, value)` lists.
    ///
    /// Rows are sorted by column; duplicate columns within a row are summed;
    /// non-positive values are dropped.
    pub fn from_rows(rows: Vec<Vec<(StateId, f64)>>) -> Self {
        let num_states = rows.len();
        let mut row_offsets = Vec::with_capacity(num_states + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_offsets.push(0);
        for mut row in rows {
            row.retain(|&(_, v)| v > 0.0);
            row.sort_unstable_by_key(|&(c, _)| c);
            // Merge duplicates.
            let mut merged: Vec<(StateId, f64)> = Vec::with_capacity(row.len());
            for (c, v) in row {
                match merged.last_mut() {
                    Some(last) if last.0 == c => last.1 += v,
                    _ => merged.push((c, v)),
                }
            }
            for (c, v) in merged {
                cols.push(c);
                vals.push(v);
            }
            row_offsets.push(cols.len());
        }
        CsrMatrix { num_states, row_offsets, cols, vals }
    }

    /// Builds a row-stochastic matrix from per-row `(column, weight)` lists by
    /// normalizing every non-empty row. Empty rows are given a self-loop so
    /// that every state has *some* outgoing transition (an object must be
    /// somewhere at each point in time).
    pub fn stochastic_from_weights(rows: Vec<Vec<(StateId, f64)>>) -> Self {
        let n = rows.len();
        let mut fixed = Vec::with_capacity(n);
        for (i, row) in rows.into_iter().enumerate() {
            let mass: f64 = row.iter().filter(|&&(_, w)| w > 0.0).map(|&(_, w)| w).sum();
            if mass <= 0.0 {
                fixed.push(vec![(i as StateId, 1.0)]);
            } else {
                fixed.push(row.into_iter().map(|(c, w)| (c, w / mass)).collect());
            }
        }
        CsrMatrix::from_rows(fixed)
    }

    /// Identity matrix (every state keeps its position with probability one).
    pub fn identity(num_states: usize) -> Self {
        CsrMatrix::from_rows((0..num_states).map(|i| vec![(i as StateId, 1.0)]).collect())
    }

    /// Number of states (rows and columns).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The non-zero entries of row `i` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, i: StateId) -> (&[StateId], &[f64]) {
        let lo = self.row_offsets[i as usize];
        let hi = self.row_offsets[i as usize + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Iterator over the `(column, value)` entries of row `i`.
    pub fn row_iter(&self, i: StateId) -> impl Iterator<Item = (StateId, f64)> + '_ {
        let (c, v) = self.row(i);
        c.iter().copied().zip(v.iter().copied())
    }

    /// Entry `(i, j)`, zero if not stored.
    pub fn get(&self, i: StateId, j: StateId) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Whether every row sums to one within [`PROB_EPSILON`] (rows summing to
    /// zero are also accepted, as states may be unreachable sinks).
    pub fn is_row_stochastic(&self) -> bool {
        (0..self.num_states).all(|i| {
            let (_, vals) = self.row(i as StateId);
            let sum: f64 = vals.iter().sum();
            sum.abs() < PROB_EPSILON || (sum - 1.0).abs() < PROB_EPSILON
        })
    }

    /// One forward transition: given the distribution of `o(t)`, returns the
    /// distribution of `o(t+1)`, i.e. `~s(t+1) = M^T · ~s(t)`.
    pub fn propagate(&self, dist: &SparseDist) -> SparseDist {
        let mut acc: FxHashMap<StateId, f64> = FxHashMap::default();
        for (j, pj) in dist.iter() {
            for (i, m_ji) in self.row_iter(j) {
                *acc.entry(i).or_insert(0.0) += m_ji * pj;
            }
        }
        let mut entries: Vec<(StateId, f64)> = acc.into_iter().filter(|&(_, p)| p > 0.0).collect();
        entries.sort_unstable_by_key(|&(s, _)| s);
        SparseDist::from_sorted(entries)
    }

    /// The set of successor states of `s` (states reachable in one step).
    pub fn successors(&self, s: StateId) -> &[StateId] {
        self.row(s).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_distribution() {
        let d = SparseDist::delta(3);
        assert_eq!(d.prob(3), 1.0);
        assert_eq!(d.prob(2), 0.0);
        assert!(d.is_normalized());
        assert_eq!(d.argmax(), Some(3));
    }

    #[test]
    fn from_pairs_merges_and_sorts() {
        let d = SparseDist::from_pairs(vec![(5, 0.25), (1, 0.5), (5, 0.25), (7, 0.0), (2, -1.0)]);
        let entries: Vec<_> = d.iter().collect();
        assert_eq!(entries, vec![(1, 0.5), (5, 0.5)]);
        assert!(d.is_normalized());
    }

    #[test]
    fn normalize_and_mass() {
        let mut d = SparseDist::from_pairs(vec![(0, 2.0), (1, 6.0)]);
        assert_eq!(d.total_mass(), 8.0);
        assert!(d.normalize());
        assert!((d.prob(0) - 0.25).abs() < 1e-12);
        assert!((d.prob(1) - 0.75).abs() < 1e-12);
        let mut empty = SparseDist::new();
        assert!(!empty.normalize());
    }

    #[test]
    fn uniform_support() {
        let d = SparseDist::uniform(vec![4, 2, 4, 9]);
        assert_eq!(d.support_size(), 3);
        assert!((d.prob(2) - 1.0 / 3.0).abs() < 1e-12);
        assert!(d.is_normalized());
    }

    #[test]
    fn inverse_cdf_sampling_hits_all_states() {
        let d = SparseDist::from_pairs(vec![(10, 0.2), (20, 0.3), (30, 0.5)]);
        assert_eq!(d.sample_with(0.0), Some(10));
        assert_eq!(d.sample_with(0.19), Some(10));
        assert_eq!(d.sample_with(0.21), Some(20));
        assert_eq!(d.sample_with(0.49), Some(20));
        assert_eq!(d.sample_with(0.51), Some(30));
        assert_eq!(d.sample_with(0.999999), Some(30));
        assert_eq!(SparseDist::new().sample_with(0.5), None);
    }

    #[test]
    fn argmax_ties_resolve_to_the_lowest_state_id() {
        // Exact ties in both directions of entry order.
        let d = SparseDist::from_pairs(vec![(3, 0.25), (9, 0.25), (5, 0.5)]);
        assert_eq!(d.argmax(), Some(5));
        let tied = SparseDist::from_pairs(vec![(2, 0.5), (7, 0.5)]);
        assert_eq!(tied.argmax(), Some(2), "probability ties pick the lowest id");
        let all_tied = SparseDist::uniform(vec![11, 4, 8]);
        assert_eq!(all_tied.argmax(), Some(4));
        assert_eq!(SparseDist::new().argmax(), None);
    }

    #[test]
    fn normalize_rejects_subnormal_mass_untouched() {
        // Two minimal subnormals: total mass 1e-323. The old code divided by
        // it (yielding inf/NaN entries) while still returning `true`.
        let mut d = SparseDist::from_pairs(vec![(0, 5e-324), (1, 5e-324)]);
        let before: Vec<_> = d.iter().collect();
        assert!(!d.normalize(), "subnormal mass must be treated as zero");
        assert_eq!(d.iter().collect::<Vec<_>>(), before, "distribution left untouched");
        assert!(d.iter().all(|(_, p)| p.is_finite()));

        // Just above the guard the division is safe and must still work.
        let mut ok = SparseDist::from_pairs(vec![(0, MIN_NORMALIZABLE_MASS)]);
        assert!(ok.normalize());
        assert!(ok.is_normalized());
    }

    #[test]
    fn float_slack_fallback_is_reachable_only_at_subnormal_mass() {
        // For a *normal* total mass the slack fallback is dead code: the scan
        // accumulates the exact same left-to-right fold as the cached mass,
        // and `fl(u · mass) < mass` for every u ∈ [0, 1) on normalized
        // floats. Exhaust the worst case — u at the top of the range — over
        // distributions with awkward masses.
        let max_u = 1.0 - f64::EPSILON / 2.0; // largest f64 below 1.0
        for mass in [1.0, 0.1 + 0.2, 3.0, 1e-300, 1e308] {
            let d = SparseDist::from_pairs(vec![(0, mass * 0.5), (1, mass * 0.5)]);
            // The scan's final accumulator is the same fold as the cached
            // mass, so `target < mass` proves the loop returns before the
            // fallback line.
            assert!(
                max_u * d.total_mass() < d.total_mass(),
                "normal mass {mass}: u·mass must stay below the final accumulator"
            );
            assert_eq!(d.sample_with(max_u), Some(1), "top-of-range u picks the last state");
        }
        // A genuinely subnormal mass *does* reach the fallback: the product
        // `u · mass` rounds up to the full mass, so no prefix satisfies
        // `target < acc` and the documented last-state fallback fires.
        let d = SparseDist::from_pairs(vec![(0, 5e-324), (1, 5e-324)]);
        let target = max_u * d.total_mass();
        assert_eq!(
            target.to_bits(),
            d.total_mass().to_bits(),
            "u · mass rounds up to the exact total at subnormal scale"
        );
        assert_eq!(d.sample_with(max_u), Some(1), "fallback maps to the last state");
    }

    #[test]
    #[should_panic(expected = "sample_with requires u in [0, 1)")]
    #[cfg(debug_assertions)]
    fn sample_with_rejects_out_of_contract_u() {
        SparseDist::delta(0).sample_with(1.0);
    }

    fn small_chain() -> CsrMatrix {
        // 0 -> {0: .5, 1: .5}, 1 -> {2: 1.0}, 2 -> {2: 1.0}
        CsrMatrix::from_rows(vec![
            vec![(0, 0.5), (1, 0.5)],
            vec![(2, 1.0)],
            vec![(2, 1.0)],
        ])
    }

    #[test]
    fn csr_layout_and_access() {
        let m = small_chain();
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.successors(1), &[2]);
        assert!(m.is_row_stochastic());
    }

    #[test]
    fn from_rows_merges_duplicates_and_drops_zeros() {
        let m = CsrMatrix::from_rows(vec![vec![(1, 0.25), (1, 0.25), (0, 0.0)], vec![]]);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.nnz(), 1);
        // Row 0 sums to 0.5, so the matrix is not row-stochastic (the empty
        // second row alone would have been acceptable).
        assert!(!m.is_row_stochastic());
    }

    #[test]
    fn stochastic_from_weights_normalizes_and_fills_empty_rows() {
        let m = CsrMatrix::stochastic_from_weights(vec![vec![(1, 2.0), (2, 6.0)], vec![]]);
        assert!((m.get(0, 1) - 0.25).abs() < 1e-12);
        assert!((m.get(0, 2) - 0.75).abs() < 1e-12);
        assert_eq!(m.get(1, 1), 1.0, "empty row becomes a self-loop");
        assert!(m.is_row_stochastic());
    }

    #[test]
    fn propagate_matches_manual_matrix_vector_product() {
        let m = small_chain();
        let d0 = SparseDist::delta(0);
        let d1 = m.propagate(&d0);
        assert!((d1.prob(0) - 0.5).abs() < 1e-12);
        assert!((d1.prob(1) - 0.5).abs() < 1e-12);
        let d2 = m.propagate(&d1);
        assert!((d2.prob(0) - 0.25).abs() < 1e-12);
        assert!((d2.prob(1) - 0.25).abs() < 1e-12);
        assert!((d2.prob(2) - 0.5).abs() < 1e-12);
        assert!(d2.is_normalized());
    }

    #[test]
    fn identity_propagation_is_noop() {
        let id = CsrMatrix::identity(4);
        let d = SparseDist::from_pairs(vec![(0, 0.3), (3, 0.7)]);
        assert_eq!(id.propagate(&d), d);
    }
}
