//! Bit-identity of the forward–backward adaptation against its hash-map
//! reference.
//!
//! [`ModelAdaptation::adapt`] groups each step's products with a counting
//! sort and writes `F(t)` straight into CSR arenas. The reference below is
//! the construction it replaced, kept as a test-only oracle: one `FxHashMap`
//! accumulator and one `FxHashMap` of rows per step, every row normalized
//! through [`SparseDist::from_pairs`]. On random homogeneous and
//! time-varying chains, for the FB and FBU variants, single observations,
//! adjacent observations and random gaps, the two must agree bit for bit:
//! every posterior marginal, every `F(t)` row, the alias kernel (`==`), and
//! every error with its time; and the forward-only pass,
//! [`ModelAdaptation::forward_marginals`], must give every forward marginal
//! and fail where the adaptation's forward phase does.
//!
//! The same chains also pin the split at observations that lets a query
//! adapt only the observations bracketing its window: for every contiguous
//! range `a..=b` of an observation set, `adapt(&obs[a..=b])` equals the
//! whole-history model on `[θ_a, θ_b]` bit for bit (posterior marginals
//! with their `total_mass`, `F(t)` rows, alias-table measures). A range
//! holding the set's contradiction fails with the same error and time; a
//! range beside it adapts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;
use ust_markov::{
    AdaptError, AdaptedModel, AliasKernel, CsrMatrix, MarkovModel, ModelAdaptation, SparseDist,
    StateId, Timestamp, TransitionModel,
};

// ---------------------------------------------------------------------------
// The hash-map reference
// ---------------------------------------------------------------------------

/// What the reference computes: the marginals and, per step, the rows of
/// `F(t)` in increasing source order.
#[derive(Debug)]
struct Reference {
    forward: Vec<SparseDist>,
    posterior: Vec<SparseDist>,
    transitions: Vec<Vec<(StateId, SparseDist)>>,
}

/// Normalizes every accumulated row, dropping the rows whose mass
/// `normalize` refuses.
fn rows_from_weights(
    rows: FxHashMap<StateId, Vec<(StateId, f64)>>,
) -> FxHashMap<StateId, SparseDist> {
    let mut out: FxHashMap<StateId, SparseDist> = FxHashMap::default();
    for (state, weights) in rows {
        let mut dist = SparseDist::from_pairs(weights);
        if dist.normalize() {
            out.insert(state, dist);
        }
    }
    out
}

/// Algorithm 2 with per-step hash maps.
fn reference_adapt<M: TransitionModel>(
    model: &M,
    observations: &[(Timestamp, StateId)],
    uniform_transitions: bool,
) -> Result<Reference, AdaptError> {
    let first = *observations.first().ok_or(AdaptError::NoObservations)?;
    if observations.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(AdaptError::UnsortedObservations);
    }
    for &(time, state) in observations {
        if (state as usize) >= model.num_states() {
            return Err(AdaptError::StateOutOfRange { time, state });
        }
    }
    let last = *observations.last().expect("non-empty");
    let start = first.0;
    let horizon = (last.0 - start) as usize;
    let obs_at: FxHashMap<Timestamp, StateId> = observations.iter().copied().collect();

    let mut forward: Vec<SparseDist> = Vec::with_capacity(horizon + 1);
    let mut reversed: Vec<FxHashMap<StateId, SparseDist>> = Vec::with_capacity(horizon);
    let mut belief = SparseDist::delta(first.1);
    forward.push(belief.clone());
    for step in 1..=horizon {
        let t = start + step as Timestamp;
        let mut acc: FxHashMap<StateId, f64> = FxHashMap::default();
        let mut back_rows: FxHashMap<StateId, Vec<(StateId, f64)>> = FxHashMap::default();
        for (j, pj) in belief.iter() {
            let (cols, vals) = model.row(j, t - 1);
            if cols.is_empty() {
                continue;
            }
            let uniform = 1.0 / cols.len() as f64;
            for (idx, &i) in cols.iter().enumerate() {
                let m_ji = if uniform_transitions { uniform } else { vals[idx] };
                let w = m_ji * pj;
                if w > 0.0 {
                    *acc.entry(i).or_insert(0.0) += w;
                    back_rows.entry(i).or_default().push((j, w));
                }
            }
        }
        if acc.is_empty() {
            return Err(AdaptError::ContradictoryObservations { time: t });
        }
        reversed.push(rows_from_weights(back_rows));
        let mut new_belief = SparseDist::from_pairs(acc);
        new_belief.normalize();
        if let Some(&theta) = obs_at.get(&t) {
            if new_belief.prob(theta) <= 0.0 {
                return Err(AdaptError::ContradictoryObservations { time: t });
            }
            belief = SparseDist::delta(theta);
        } else {
            belief = new_belief;
        }
        forward.push(belief.clone());
    }

    let mut posterior: Vec<SparseDist> = vec![SparseDist::new(); horizon + 1];
    let mut transitions: Vec<FxHashMap<StateId, SparseDist>> = vec![FxHashMap::default(); horizon];
    posterior[horizon] = SparseDist::delta(last.1);
    for step in (0..horizon).rev() {
        let next_post = posterior[step + 1].clone();
        let mut acc: FxHashMap<StateId, f64> = FxHashMap::default();
        let mut fwd_rows: FxHashMap<StateId, Vec<(StateId, f64)>> = FxHashMap::default();
        for (j, pj) in next_post.iter() {
            let Some(row) = reversed[step].get(&j) else {
                continue;
            };
            for (i, r_ji) in row.iter() {
                let w = r_ji * pj;
                if w > 0.0 {
                    *acc.entry(i).or_insert(0.0) += w;
                    fwd_rows.entry(i).or_default().push((j, w));
                }
            }
        }
        if acc.is_empty() {
            return Err(AdaptError::ContradictoryObservations { time: start + step as Timestamp });
        }
        transitions[step] = rows_from_weights(fwd_rows);
        let mut dist = SparseDist::from_pairs(acc);
        dist.normalize();
        posterior[step] = dist;
    }
    let transitions = transitions
        .into_iter()
        .map(|table| {
            let mut rows: Vec<(StateId, SparseDist)> = table.into_iter().collect();
            rows.sort_unstable_by_key(|&(s, _)| s);
            rows
        })
        .collect();
    Ok(Reference { forward, posterior, transitions })
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

type Bits = Vec<(StateId, u64)>;

fn bits(entries: impl Iterator<Item = (StateId, f64)>) -> Bits {
    entries.map(|(s, p)| (s, p.to_bits())).collect()
}

/// Asserts that the adapted model and its forward marginals agree with the
/// reference bit for bit.
fn assert_identical(
    m: &AdaptedModel,
    forward: &[SparseDist],
    r: &Reference,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.horizon(), r.transitions.len());
    prop_assert_eq!(forward.len(), r.forward.len());
    for (k, (belief, expected)) in forward.iter().zip(&r.forward).enumerate() {
        prop_assert_eq!(bits(belief.iter()), bits(expected.iter()));
        let t = m.start() + k as Timestamp;
        prop_assert_eq!(bits(m.posterior_at(t).unwrap().iter()), bits(r.posterior[k].iter()));
        let masses = (m.posterior_at(t).unwrap().total_mass(), r.posterior[k].total_mass());
        prop_assert_eq!(masses.0.to_bits(), masses.1.to_bits());
    }
    for (k, rows) in r.transitions.iter().enumerate() {
        let t = m.start() + k as Timestamp;
        let got: Vec<(StateId, Bits)> =
            m.transition_table(t).unwrap().map(|(s, row)| (s, bits(row.iter()))).collect();
        let want: Vec<(StateId, Bits)> = rows.iter().map(|(s, d)| (*s, bits(d.iter()))).collect();
        prop_assert!(got == want, "F({t}) rows differ:\n{got:?}\n{want:?}");
    }
    let kernel = AliasKernel::from_steps(
        r.transitions.iter().map(|rows| rows.iter().map(|(s, d)| (*s, d.entries()))),
    );
    prop_assert!(*m.alias_kernel() == kernel, "alias kernels differ");
    Ok(())
}

/// Runs both constructions and compares their results, errors included.
/// Returns whether the adaptation succeeded.
fn check<M: TransitionModel>(
    model: &M,
    observations: &[(Timestamp, StateId)],
    uniform: bool,
) -> Result<bool, TestCaseError> {
    let adaptation = ModelAdaptation { uniform_transitions: uniform };
    let forward = adaptation.forward_marginals(model, observations);
    match (adaptation.adapt(model, observations), reference_adapt(model, observations, uniform)) {
        (Ok(m), Ok(r)) => {
            let forward = forward.map_err(|e| TestCaseError::fail(format!("forward pass: {e}")))?;
            assert_identical(&m, &forward, &r).map(|()| true)
        }
        (Err(a), Err(b)) => {
            // Every error of these chains is raised by the forward phase.
            prop_assert_eq!(forward.err(), Some(a.clone()));
            prop_assert_eq!(a, b);
            Ok(false)
        }
        (a, b) => Err(TestCaseError::fail(format!(
            "outcomes differ: adapt {:?}, reference {:?}",
            a.map(|_| ()),
            b.map(|_| ())
        ))),
    }
}

// ---------------------------------------------------------------------------
// Random chains and observation sets
// ---------------------------------------------------------------------------

/// A random sparse chain over `n` states: a self-loop per state plus up to
/// `extra` seeded targets, with weights over four orders of magnitude so
/// that summation order shows in the last bits.
fn random_matrix(n: usize, extra: usize, rng: &mut StdRng) -> CsrMatrix {
    let rows = (0..n)
        .map(|i| {
            let mut row = vec![(i as StateId, rng.gen_range(0.01..1.0))];
            for _ in 0..rng.gen_range(0..=extra) {
                let weight = rng.gen_range(0.001..1.0) * 10f64.powi(-rng.gen_range(0..4i32));
                row.push((rng.gen_range(0..n) as StateId, weight));
            }
            row
        })
        .collect();
    CsrMatrix::stochastic_from_weights(rows)
}

/// A homogeneous chain, or a time-varying one of up to three matrices.
fn random_model(n: usize, extra: usize, time_varying: bool, rng: &mut StdRng) -> MarkovModel {
    if time_varying {
        let count = rng.gen_range(1..=3usize);
        MarkovModel::time_varying((0..count).map(|_| random_matrix(n, extra, rng)).collect())
    } else {
        MarkovModel::homogeneous(random_matrix(n, extra, rng))
    }
}

/// How an observation set is drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One observation.
    Single,
    /// Observations at every timestamp of a walk.
    Adjacent,
    /// Observations of a walk at random gaps of 1–6 timestamps.
    Gapped,
    /// A gapped walk with one later observation moved to a random state,
    /// which often contradicts the chain.
    Perturbed,
    /// A gapped walk whose last two observations share a timestamp.
    Unsorted,
    /// A gapped walk with one observation outside the state space.
    OutOfRange,
}

const SHAPES: [Shape; 6] = [
    Shape::Single,
    Shape::Adjacent,
    Shape::Gapped,
    Shape::Perturbed,
    Shape::Unsorted,
    Shape::OutOfRange,
];

/// Walks the chain from a random state and records observations of the
/// given shape.
fn observations(model: &MarkovModel, shape: Shape, rng: &mut StdRng) -> Vec<(Timestamp, StateId)> {
    let n = model.num_states();
    let mut t: Timestamp = rng.gen_range(0..4u32);
    let mut state = rng.gen_range(0..n) as StateId;
    let mut obs = vec![(t, state)];
    let count = match shape {
        Shape::Single => 1,
        _ => rng.gen_range(2..=6usize),
    };
    for _ in 1..count {
        let gap = if matches!(shape, Shape::Adjacent) { 1 } else { rng.gen_range(1..=6u32) };
        for _ in 0..gap {
            let (cols, vals) = model.row(state, t);
            let mut u = rng.gen::<f64>() * vals.iter().sum::<f64>();
            state = cols[cols.len() - 1];
            for (&c, &v) in cols.iter().zip(vals) {
                if u < v {
                    state = c;
                    break;
                }
                u -= v;
            }
            t += 1;
        }
        obs.push((t, state));
    }
    let last = obs.len() - 1;
    match shape {
        Shape::Perturbed => obs[rng.gen_range(1..=last)].1 = rng.gen_range(0..n) as StateId,
        Shape::Unsorted => obs[last].0 = obs[last - 1].0,
        Shape::OutOfRange => {
            obs[rng.gen_range(0..=last)].1 = (n + rng.gen_range(0..3usize)) as StateId
        }
        Shape::Single | Shape::Adjacent | Shape::Gapped => {}
    }
    obs
}

/// The chain and observation set of one seeded case.
fn generate(
    seed: u64,
    n: usize,
    shape: Shape,
    time_varying: bool,
) -> (MarkovModel, Vec<(Timestamp, StateId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = random_model(n, 5, time_varying, &mut rng);
    let obs = observations(&model, shape, &mut rng);
    (model, obs)
}

/// One seeded case: its chain, observation set and variant.
fn case(
    seed: u64,
    n: usize,
    shape: Shape,
    time_varying: bool,
    uniform: bool,
) -> Result<bool, TestCaseError> {
    let (model, obs) = generate(seed, n, shape, time_varying);
    check(&model, &obs, uniform)
}

// ---------------------------------------------------------------------------
// Observation ranges: the a-posteriori chain splits at observations
// ---------------------------------------------------------------------------

/// Asserts that `part`, adapted over a range of the observations `whole` was
/// adapted over, equals `whole` on the range's interval bit for bit: every
/// posterior marginal with its `total_mass`, every `F(t)` row, and the
/// alias table's measure of every slot. Successor links are left out:
/// `part`'s last step links nowhere, and a window walk never follows the
/// link of its last draw.
fn assert_restriction(part: &AdaptedModel, whole: &AdaptedModel) -> Result<(), TestCaseError> {
    for t in part.start()..=part.end() {
        let (p, w) = (part.posterior_at(t).unwrap(), whole.posterior_at(t).unwrap());
        prop_assert!(bits(p.iter()) == bits(w.iter()), "posterior at {t}: {p:?} vs {w:?}");
        prop_assert!(p.total_mass().to_bits() == w.total_mass().to_bits(), "mass at {t}");
    }
    let (part_kernel, whole_kernel) = (part.alias_kernel(), whole.alias_kernel());
    for t in part.start()..part.end() {
        let rows = |m: &AdaptedModel| -> Vec<(StateId, Bits)> {
            m.transition_table(t).unwrap().map(|(s, row)| (s, bits(row.iter()))).collect()
        };
        let (got, want) = (rows(part), rows(whole));
        prop_assert!(got == want, "F({t}) rows differ:\n{got:?}\n{want:?}");
        let steps = ((t - part.start()) as usize, (t - whole.start()) as usize);
        for (source, row) in &got {
            for &(target, _) in row {
                let measures = (
                    part_kernel.table_probability(steps.0, *source, target),
                    whole_kernel.table_probability(steps.1, *source, target),
                );
                prop_assert!(
                    measures.0.to_bits() == measures.1.to_bits(),
                    "alias table of {source} → {target} at {t}: {measures:?}"
                );
            }
        }
    }
    Ok(())
}

/// How the ranges of one observation set compared.
#[derive(Debug, Default, Clone, Copy)]
struct Ranges {
    /// Ranges that adapted and equal their whole-history model.
    equal: usize,
    /// Ranges that failed with the whole set's contradiction.
    failed: usize,
}

/// Adapts every contiguous range `a..=b` of `obs` and checks it against the
/// whole set. If the whole set adapts, every range equals it on
/// `[θ_a, θ_b]`. If it contradicts the chain at the observation `θ_i`, every
/// range from before `θ_i` to `θ_i` or later fails with the same error, the
/// prefix before `θ_i` adapts, and the ranges of `obs[..i]` and `obs[i..]`
/// are checked against those two sets in turn. Sets the adaptation rejects
/// outright (unsorted, out of range) have no ranges to check.
fn check_ranges<M: TransitionModel>(
    model: &M,
    obs: &[(Timestamp, StateId)],
    adaptation: ModelAdaptation,
) -> Result<Ranges, TestCaseError> {
    let n = obs.len();
    let mut ranges = Ranges::default();
    match adaptation.adapt(model, obs) {
        Ok(whole) => {
            for a in 0..n {
                for b in a..n {
                    match adaptation.adapt(model, &obs[a..=b]) {
                        Ok(part) => assert_restriction(&part, &whole)?,
                        Err(e) => prop_assert!(false, "range {a}..={b} fails: {e:?}"),
                    }
                    ranges.equal += 1;
                }
            }
        }
        Err(error @ AdaptError::ContradictoryObservations { time }) => {
            let i = obs.partition_point(|&(t, _)| t < time);
            prop_assert!(i > 0 && i < n && obs[i].0 == time, "{error:?} is not at an observation");
            for a in 0..i {
                for b in i..n {
                    let got = adaptation.adapt(model, &obs[a..=b]).map(|_| ()).unwrap_err();
                    prop_assert!(got == error, "range {a}..={b}: {got:?} vs {error:?}");
                    ranges.failed += 1;
                }
            }
            prop_assert!(adaptation.adapt(model, &obs[..i]).is_ok(), "the prefix before {time}");
            for side in [&obs[..i], &obs[i..]] {
                let inner = check_ranges(model, side, adaptation)?;
                ranges.equal += inner.equal;
                ranges.failed += inner.failed;
            }
        }
        Err(_) => {}
    }
    Ok(ranges)
}

/// One seeded case of the range check.
fn range_case(
    seed: u64,
    n: usize,
    shape: Shape,
    time_varying: bool,
    uniform: bool,
) -> Result<Ranges, TestCaseError> {
    let (model, obs) = generate(seed, n, shape, time_varying);
    check_ranges(&model, &obs, ModelAdaptation { uniform_transitions: uniform })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn adaptation_matches_the_hash_map_reference_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 2usize..40,
        shape in 0usize..SHAPES.len(),
        time_varying in 0u8..2,
        uniform in 0u8..2,
    ) {
        case(seed, n, SHAPES[shape], time_varying == 1, uniform == 1)?;
    }

    #[test]
    fn every_observation_range_adapts_like_the_whole_history_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 2usize..40,
        shape in 0usize..SHAPES.len(),
        time_varying in 0u8..2,
        uniform in 0u8..2,
    ) {
        range_case(seed, n, SHAPES[shape], time_varying == 1, uniform == 1)?;
    }
}

#[test]
fn range_checks_cover_single_observations_and_both_sides_of_a_contradiction() {
    // Over a fixed seed range: walks check every range, single observations
    // included, and perturbed walks meet contradictions with ranges both
    // across them (failing) and beside them (adapting).
    for (index, &shape) in SHAPES.iter().enumerate() {
        let (mut total, mut split) = (Ranges::default(), 0);
        for seed in 0..48u64 {
            let (time_varying, uniform) = (seed % 2 == 1, seed % 4 >= 2);
            let ranges = range_case(seed * 11 + index as u64, 12, shape, time_varying, uniform)
                .unwrap_or_else(|e| panic!("{shape:?}, seed {seed}: {e:?}"));
            total.equal += ranges.equal;
            total.failed += ranges.failed;
            split += usize::from(ranges.equal > 0 && ranges.failed > 0);
        }
        match shape {
            Shape::Single => assert_eq!((total.equal, total.failed), (48, 0)),
            Shape::Adjacent | Shape::Gapped => {
                assert!(total.equal >= 48 * 3 && total.failed == 0, "{shape:?}: {total:?}")
            }
            Shape::Perturbed => assert!(split > 0, "{shape:?}: {total:?}, {split} split sets"),
            Shape::Unsorted | Shape::OutOfRange => {}
        }
    }
}

#[test]
fn every_shape_and_variant_is_exercised_with_both_outcomes() {
    // The property above is only as strong as its cases: over a fixed seed
    // range every shape must agree with the reference, walks must adapt and
    // perturbed ones must sometimes contradict the chain.
    for (index, &shape) in SHAPES.iter().enumerate() {
        let (mut adapted, mut failed) = (0, 0);
        for seed in 0..48u64 {
            let (time_varying, uniform) = (seed % 2 == 1, seed % 4 >= 2);
            match case(seed * 7 + index as u64, 12, shape, time_varying, uniform) {
                Ok(true) => adapted += 1,
                Ok(false) => failed += 1,
                Err(e) => panic!("{shape:?}, seed {seed}: {e:?}"),
            }
        }
        match shape {
            Shape::Single | Shape::Adjacent | Shape::Gapped => {
                assert_eq!(failed, 0, "{shape:?}: walks always adapt")
            }
            Shape::Perturbed => assert!(adapted > 0 && failed > 0, "{shape:?}: {adapted}/{failed}"),
            Shape::Unsorted | Shape::OutOfRange => {
                assert_eq!(adapted, 0, "{shape:?}: always rejected")
            }
        }
    }
}

#[test]
fn contradiction_times_match_the_reference() {
    // s0 → s1 → s2 → s2; s3 is unreachable from s0.
    let m = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
        vec![(1, 1.0)],
        vec![(2, 1.0)],
        vec![(2, 1.0)],
        vec![(3, 1.0)],
    ]));
    for obs in [vec![(0u32, 0u32), (2, 3)], vec![(0, 0), (1, 1), (3, 0)], vec![(5, 0), (6, 2)]] {
        let got = ModelAdaptation::new().adapt(&m, &obs).unwrap_err();
        assert_eq!(Err(got.clone()), reference_adapt(&m, &obs, false).map(|_| ()));
        assert!(matches!(got, AdaptError::ContradictoryObservations { .. }), "{got:?}");
    }
    assert_eq!(
        ModelAdaptation::new().adapt(&m, &[]).unwrap_err(),
        reference_adapt(&m, &[], false).unwrap_err()
    );
}

#[test]
fn scratch_reuse_across_state_spaces_and_threads_stays_identical() {
    // The grouping scratch is per thread and outlives each call: a small
    // chain after a large one (stale stamps past its state space) and the
    // same calls on a second thread must still match the reference.
    let run = || {
        for (seed, n) in [(1u64, 60usize), (2, 5), (3, 60), (4, 3)] {
            case(seed, n, Shape::Gapped, seed % 2 == 0, false).expect("identical");
        }
    };
    run();
    std::thread::scope(|s| {
        s.spawn(run);
    });
    run();
}
