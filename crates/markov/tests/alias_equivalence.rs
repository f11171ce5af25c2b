//! Equivalence suite for the alias-table sampling kernel.
//!
//! The Monte-Carlo engine switched from inverse-CDF scans
//! ([`SparseDist::sample_with`]) to Walker/Vose alias draws
//! ([`AliasKernel::sample`]). The two consume one uniform `u ∈ [0, 1)` per
//! draw but map it to states differently, so individual draws are *not*
//! bit-identical; what must hold — and what this suite pins — is
//! **distributional equivalence**:
//!
//! 1. exactly, by construction: the Lebesgue measure of `u`-values the alias
//!    table maps to each state equals the row's probability (up to f64
//!    rounding of the `p·n/mass` scaling), for random rows and the edge
//!    shapes (empty / delta / single-entry / heavy-tail);
//! 2. empirically: on one shared seeded `u` stream, both samplers' frequency
//!    vectors pass a chi-square-style goodness-of-fit check against the row.
//!
//! A walk searches a row once, at its start ([`AliasKernel::row_of`]), and
//! then follows the successor link every [`AliasKernel::draw`] returns. On
//! random multi-step chains the suite checks that a draw picks what
//! [`AliasKernel::sample`] picks and that its link is the row a fresh search
//! finds at the next step ([`AliasKernel::NO_ROW`] at the last step).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ust_markov::alias::AliasKernel;
use ust_markov::{SparseDist, StateId};

/// Builds a one-step kernel holding `row` for source state 0.
fn kernel_of(row: &SparseDist) -> AliasKernel {
    AliasKernel::from_steps([[(0u32, row.entries())]])
}

/// A normalized distribution from raw `(state, weight)` pairs; `None` if the
/// weights carry too little mass to normalize.
fn dist_of(pairs: &[(StateId, f64)]) -> Option<SparseDist> {
    let mut d = SparseDist::from_pairs(pairs.iter().copied());
    d.normalize().then_some(d)
}

/// Asserts that for every support state the alias table's selection measure
/// equals the row probability to within `tol`, and that no foreign state has
/// positive measure.
fn assert_measure_matches(row: &SparseDist, tol: f64) {
    let kernel = kernel_of(row);
    let mut covered = 0.0;
    for (state, p) in row.iter() {
        let measure = kernel.table_probability(0, 0, state);
        assert!(
            (measure - p).abs() <= tol,
            "state {state}: alias measure {measure} vs row probability {p}"
        );
        covered += measure;
    }
    assert!((covered - 1.0).abs() <= tol, "total alias measure {covered} must be 1");
}

/// Draws `n` samples with each sampler from one shared `u` stream and
/// returns the per-state counts `(alias, inverse_cdf)` in support order.
fn paired_frequencies(row: &SparseDist, n: usize, seed: u64) -> Vec<(StateId, usize, usize)> {
    let kernel = kernel_of(row);
    let support: Vec<StateId> = row.support().collect();
    let mut counts: Vec<(StateId, usize, usize)> = support.iter().map(|&s| (s, 0, 0)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let u = rng.gen::<f64>();
        let a = kernel.sample(0, 0, u).expect("non-empty row");
        let c = row.sample_with(u).expect("non-empty row");
        let ia = support.binary_search(&a).expect("alias draw inside the support");
        let ic = support.binary_search(&c).expect("CDF draw inside the support");
        counts[ia].1 += 1;
        counts[ic].2 += 1;
    }
    counts
}

/// Chi-square statistic of observed counts against the row's probabilities.
fn chi_square(row: &SparseDist, counts: impl Iterator<Item = (StateId, usize)>, n: usize) -> f64 {
    let mut stat = 0.0;
    for (state, observed) in counts {
        let expected = row.prob(state) * n as f64;
        if expected > 0.0 {
            let d = observed as f64 - expected;
            stat += d * d / expected;
        }
    }
    stat
}

// ---------------------------------------------------------------------------
// Edge shapes
// ---------------------------------------------------------------------------

#[test]
fn empty_row_has_no_kernel_row_and_no_cdf_sample() {
    let empty = SparseDist::new();
    assert_eq!(empty.sample_with(0.5), None);
    let kernel = AliasKernel::from_steps([[(0u32, empty.entries())]]);
    assert_eq!(kernel.sample(0, 0, 0.5), None, "empty row yields no draw");
}

#[test]
fn delta_and_single_entry_rows_agree_bit_for_bit() {
    // With one support state both samplers are forced onto it for every u,
    // so here (and only here) bit-identity holds trivially.
    for row in [SparseDist::delta(11), dist_of(&[(4, 0.35)]).unwrap()] {
        let kernel = kernel_of(&row);
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            assert_eq!(kernel.sample(0, 0, u), row.sample_with(u));
        }
    }
}

#[test]
fn heavy_tail_row_is_distributionally_equivalent() {
    // Geometric-style tail over 48 states: p(s) ∝ 0.82^s spans ~4 orders of
    // magnitude, the shape that stresses Vose's small/large pairing most.
    let row = dist_of(
        &(0..48u32).map(|s| (s * 3, 0.82f64.powi(s as i32))).collect::<Vec<_>>(),
    )
    .unwrap();
    assert_measure_matches(&row, 1e-12);
    let n = 200_000;
    let counts = paired_frequencies(&row, n, 0x5eed);
    // 99.9%-ile of chi-square with 47 degrees of freedom is ≈ 84; both
    // samplers must sit far under a generous 120.
    let stat_alias = chi_square(&row, counts.iter().map(|&(s, a, _)| (s, a)), n);
    let stat_cdf = chi_square(&row, counts.iter().map(|&(s, _, c)| (s, c)), n);
    assert!(stat_alias < 120.0, "alias chi-square {stat_alias}");
    assert!(stat_cdf < 120.0, "inverse-CDF chi-square {stat_cdf}");
}

#[test]
fn top_of_range_u_stays_in_support_for_both_samplers() {
    let row = dist_of(&[(1, 0.2), (2, 0.3), (3, 0.5)]).unwrap();
    let kernel = kernel_of(&row);
    let support: Vec<StateId> = row.support().collect();
    let max_u = 1.0 - f64::EPSILON / 2.0;
    for u in [0.0, f64::MIN_POSITIVE, 0.999_999, max_u] {
        for s in [kernel.sample(0, 0, u).unwrap(), row.sample_with(u).unwrap()] {
            assert!(support.contains(&s), "u={u} produced out-of-support state {s}");
        }
    }
}

// ---------------------------------------------------------------------------
// Random rows
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Construction faithfulness on random rows: the alias table's selection
    /// measure reproduces every probability of the normalized row.
    #[test]
    fn alias_measure_matches_row_probabilities(
        weights in proptest::collection::vec(1e-6f64..1.0, 1..40),
        stride in 1u32..9,
    ) {
        let pairs: Vec<(StateId, f64)> =
            weights.iter().enumerate().map(|(i, &w)| (i as u32 * stride, w)).collect();
        let row = dist_of(&pairs).expect("weights are bounded away from zero");
        assert_measure_matches(&row, 1e-9);
    }

    /// Frequency sanity on random rows: both samplers, fed the same seeded
    /// `u` stream, stay within a chi-square bound of the row.
    #[test]
    fn shared_u_stream_frequencies_match_the_row(
        weights in proptest::collection::vec(0.05f64..1.0, 2..12),
        seed in 0u64..1_000_000,
    ) {
        let pairs: Vec<(StateId, f64)> =
            weights.iter().enumerate().map(|(i, &w)| (i as u32, w)).collect();
        let row = dist_of(&pairs).expect("weights are bounded away from zero");
        let n = 20_000;
        let counts = paired_frequencies(&row, n, seed);
        // 99.99%-ile of chi-square with 11 degrees of freedom is ≈ 33.
        let stat_alias = chi_square(&row, counts.iter().map(|&(s, a, _)| (s, a)), n);
        let stat_cdf = chi_square(&row, counts.iter().map(|&(s, _, c)| (s, c)), n);
        prop_assert!(stat_alias < 45.0, "alias chi-square {}", stat_alias);
        prop_assert!(stat_cdf < 45.0, "inverse-CDF chi-square {}", stat_cdf);
    }
}

// ---------------------------------------------------------------------------
// Successor links on random chains
// ---------------------------------------------------------------------------

/// A `u` grid over `[0, 1)` that includes the values just below 1, where
/// `u·n` can round up to `n`.
fn u_grid() -> Vec<f64> {
    let mut grid: Vec<f64> = (0..64).map(|i| i as f64 / 64.0).collect();
    grid.extend([1.0 / 3.0, 0.999_999, 1.0 - f64::EPSILON, 1.0 - f64::EPSILON / 2.0]);
    grid
}

/// Per step, `(source, raw (target, weight) pairs)`, sources in any order.
type RawChain = [Vec<(StateId, Vec<(StateId, f64)>)>];

/// Per step, rows keyed by strictly increasing source; rows may be empty.
fn chain_of(raw: &RawChain) -> Vec<Vec<(StateId, SparseDist)>> {
    raw.iter()
        .map(|step| {
            let mut rows: Vec<(StateId, SparseDist)> = step
                .iter()
                .map(|(source, pairs)| (*source, SparseDist::from_pairs(pairs.iter().copied())))
                .collect();
            rows.sort_by_key(|(source, _)| *source);
            rows.dedup_by_key(|(source, _)| *source);
            rows
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every row of a random chain: `draw(row_of(k, s), u)` returns the
    /// target `sample(k, s, u)` returns, inside the row, and the link to
    /// that target's row at step `k + 1` — `NO_ROW` at the last step and
    /// where the target has no row or an empty one there.
    #[test]
    fn draws_follow_links_to_the_rows_a_search_finds(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                (0u32..12, proptest::collection::vec((0u32..12, 0.0f64..1.0), 0..6)),
                0..10,
            ),
            1..6,
        ),
    ) {
        let chain = chain_of(&raw);
        let kernel = AliasKernel::from_steps(
            chain.iter().map(|step| step.iter().map(|(source, row)| (*source, row.entries()))),
        );
        let last = chain.len() - 1;
        for (k, step) in chain.iter().enumerate() {
            for (source, dist) in step {
                let Some(row) = kernel.row_of(k, *source) else {
                    prop_assert!(dist.is_empty(), "step {} source {} has a row", k, source);
                    prop_assert_eq!(kernel.sample(k, *source, 0.5), None);
                    continue;
                };
                for u in u_grid() {
                    let (target, next) = kernel.draw(row, u);
                    prop_assert_eq!(Some(target), kernel.sample(k, *source, u));
                    prop_assert!(dist.prob(target) > 0.0, "target {} outside the row", target);
                    let searched = kernel.row_of(k + 1, target).unwrap_or(AliasKernel::NO_ROW);
                    prop_assert!(next == searched, "step {} source {} u {}: link {} vs {}",
                        k, source, u, next, searched);
                    if k == last {
                        prop_assert_eq!(next, AliasKernel::NO_ROW);
                    }
                }
            }
        }
    }
}
