//! Forward–backward model adaptation (Section 5.2, Algorithm 2 of the paper).
//!
//! A traditional Monte-Carlo sampler that only uses the a-priori chain and the
//! first observation produces trajectories that almost never pass through the
//! later observations (Section 5.1, Figure 3): the expected number of attempts
//! per valid sample grows exponentially in the number of observations.
//!
//! The paper instead *adapts the model itself*: Bayesian inference transforms
//! the a-priori chain `M^o(t)` and the observations `Θ^o` into an
//! a-posteriori chain `F^o(t)` with
//!
//! ```text
//! F^o_ij(t) = P(o(t+1) = s_j | o(t) = s_i, Θ^o)
//! ```
//!
//! so that *every* realisation of the adapted chain is a possible trajectory
//! consistent with all observations, drawn exactly with its possible-world
//! probability.
//!
//! The construction has two phases (both `O(|T| · nnz)` with the sparse
//! representation used here):
//!
//! 1. **Forward phase** — walk time forward from the first observation,
//!    propagating the belief state and materialising the *time-reversed*
//!    chain `R^o(t)_{ij} = P(o(t-1)=s_j | o(t)=s_i, past^o(t))` via Bayes'
//!    theorem (Lemma 4). Each observation reached collapses the belief to the
//!    observed state.
//! 2. **Backward phase** — walk time backwards from the last observation
//!    using `R^o(t)`, which (by the reverse Markov property, Lemma 5)
//!    propagates the information of *future* observations into the past and
//!    yields both the a-posteriori transition matrices `F^o(t)` and the
//!    a-posteriori marginals `P(o(t) = s | Θ^o)`.
//!
//! # One step, without hash maps
//!
//! Both phases have the same step shape: every `(state, weight)` entry of a
//! marginal is multiplied into that state's row, and the positive products
//! `(row, col, w)` are grouped by `row`. A group's left fold of `w` is at
//! once the unnormalised marginal entry of `row` at the next time and the
//! mass its chain row is divided by; the row is dropped when
//! [`SparseDist::normalize`] would refuse that mass. Products are generated
//! in increasing `col` order, so each group is already a sorted row.
//!
//! The grouping is a counting sort over a per-thread scratch: a stamp per
//! state marks the rows seen in this step, the distinct rows are sorted, and
//! one scatter pass lays the products out group by group. Nothing is sized
//! by `|S|` per call and no hash map is built. `R(t)` lives in that scratch
//! as CSR rows for the backward phase; `F(t)` is emitted last step first into
//! a second CSR scratch and copied once, in step order and at its exact size,
//! into the [`AliasKernel`] — the only copy of `F(t)` an [`AdaptedModel`]
//! keeps.

use crate::alias::{AliasKernel, StepRows, TransitionRow};
use crate::model::TransitionModel;
use crate::sparse::{normalizable, SparseDist, PROB_EPSILON};
use crate::{StateId, Timestamp};
use std::cell::Cell;

/// Errors produced by the model adaptation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// The observation set was empty.
    NoObservations,
    /// Observation timestamps were not strictly increasing.
    UnsortedObservations,
    /// An observation referenced a state outside the model's state space.
    StateOutOfRange {
        /// The offending observation time.
        time: Timestamp,
        /// The offending state.
        state: StateId,
    },
    /// The observations contradict the a-priori model: no possible trajectory
    /// of the chain visits all of them (Section 5.2.1 requires observations to
    /// be non-contradicting).
    ContradictoryObservations {
        /// The first time at which the belief state became incompatible.
        time: Timestamp,
    },
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NoObservations => write!(f, "object has no observations"),
            AdaptError::UnsortedObservations => {
                write!(f, "observation timestamps must be strictly increasing")
            }
            AdaptError::StateOutOfRange { time, state } => {
                write!(f, "observation at time {time} references unknown state {state}")
            }
            AdaptError::ContradictoryObservations { time } => {
                write!(f, "observations contradict the a-priori model at time {time}")
            }
        }
    }
}

impl std::error::Error for AdaptError {}

/// Configuration of the model adaptation.
///
/// The default configuration is the full forward–backward adaptation (the
/// "FB" model of Figure 12). Setting [`ModelAdaptation::uniform_transitions`]
/// reproduces the "FBU" ablation: the *support* of the a-priori chain is kept
/// but every transition out of a state is considered equally likely, as if the
/// turning probabilities had not been learned.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelAdaptation {
    /// Replace every a-priori row by a uniform distribution over its support
    /// ("FBU" in Figure 12).
    pub uniform_transitions: bool,
}

/// Groups weighted products `(row, col, w)` by `row`, keeping generation
/// order within a group (a counting sort).
#[derive(Debug, Default)]
struct Grouper {
    /// Per state: the stamp of the last grouping that saw it as a row, and
    /// its rank among that grouping's rows (later: its scatter cursor).
    marks: Vec<(u32, u32)>,
    /// Stamp of the current grouping; 0 is never a live stamp.
    stamp: u32,
    /// The step's products, in generation order.
    products: Vec<(StateId, StateId, f64)>,
    /// The distinct rows, ascending.
    rows: Vec<StateId>,
    /// Group `r` is `grouped[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    /// `(col, w)` per product, group by group.
    grouped: Vec<(StateId, f64)>,
}

impl Grouper {
    /// Lays the products out group by group.
    fn group(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: old stamps could collide with new ones.
            self.marks.fill((0, 0));
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.rows.clear();
        for &(row, _, _) in &self.products {
            let idx = row as usize;
            if idx >= self.marks.len() {
                self.marks.resize(idx + 1, (0, 0));
            }
            if self.marks[idx].0 != stamp {
                self.marks[idx] = (stamp, 0);
                self.rows.push(row);
            }
        }
        self.rows.sort_unstable();
        for (rank, &row) in self.rows.iter().enumerate() {
            self.marks[row as usize].1 = rank as u32;
        }
        self.starts.clear();
        self.starts.resize(self.rows.len() + 1, 0);
        for &(row, _, _) in &self.products {
            self.starts[self.marks[row as usize].1 as usize + 1] += 1;
        }
        for r in 1..self.starts.len() {
            self.starts[r] += self.starts[r - 1];
        }
        for (&row, &start) in self.rows.iter().zip(&self.starts) {
            self.marks[row as usize].1 = start;
        }
        self.grouped.clear();
        self.grouped.resize(self.products.len(), (0, 0.0));
        for &(row, col, w) in &self.products {
            let cursor = &mut self.marks[row as usize].1;
            self.grouped[*cursor as usize] = (col, w);
            *cursor += 1;
        }
    }

    /// Groups the products and closes one step of `chain`: per row, in
    /// increasing state order, the left fold of its weights is its marginal
    /// entry and its mass; the row divided by that mass joins `chain` unless
    /// the mass is not normalizable. Returns the unnormalised marginal.
    fn fold_step(&mut self, chain: &mut StepRows) -> SparseDist {
        self.group();
        let mut marginal = Vec::with_capacity(self.rows.len());
        for (r, &row) in self.rows.iter().enumerate() {
            let group = &self.grouped[self.starts[r] as usize..self.starts[r + 1] as usize];
            let mass: f64 = group.iter().map(|&(_, w)| w).sum();
            marginal.push((row, mass));
            if normalizable(mass) {
                for &(col, w) in group {
                    chain.push_slot(col, w / mass);
                }
                chain.finish_row(row);
            }
        }
        chain.finish_step();
        SparseDist::from_sorted(marginal)
    }
}

/// Working memory of [`ModelAdaptation::adapt`], reused by later calls on
/// the same thread.
#[derive(Debug, Default)]
struct Scratch {
    groups: Grouper,
    /// `R(start + k + 1)` at step `k`, rows keyed by the state at that time.
    reversed: StepRows,
    /// `F(t)`, last step first.
    transitions: StepRows,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

impl ModelAdaptation {
    /// The standard forward–backward adaptation.
    pub fn new() -> Self {
        Self::default()
    }

    /// The "FBU" ablation (uniform transition probabilities, learned support).
    pub fn with_uniform_transitions() -> Self {
        ModelAdaptation { uniform_transitions: true }
    }

    /// Runs Algorithm 2 for one object.
    ///
    /// `observations` must be sorted by strictly increasing time; each
    /// observation is a certain `(time, state)` pair.
    pub fn adapt<M: TransitionModel>(
        &self,
        model: &M,
        observations: &[(Timestamp, StateId)],
    ) -> Result<AdaptedModel, AdaptError> {
        if observations.is_empty() {
            return Err(AdaptError::NoObservations);
        }
        if observations.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(AdaptError::UnsortedObservations);
        }
        for &(time, state) in observations {
            if (state as usize) >= model.num_states() {
                return Err(AdaptError::StateOutOfRange { time, state });
            }
        }
        // The scratch leaves its slot for the call: a panic drops it rather
        // than leaving it half-written, and a nested call gets a fresh one.
        let mut scratch = SCRATCH.take();
        let adapted = self.forward_backward(model, observations, &mut scratch);
        SCRATCH.set(scratch);
        adapted
    }

    /// Both phases over validated observations.
    fn forward_backward<M: TransitionModel>(
        &self,
        model: &M,
        observations: &[(Timestamp, StateId)],
        scratch: &mut Scratch,
    ) -> Result<AdaptedModel, AdaptError> {
        let Scratch { groups, reversed, transitions } = scratch;
        let (start, first) = observations[0];
        let (end, last) = observations[observations.len() - 1];
        let horizon = (end - start) as usize;

        // ------------------------------------------------------------------
        // Forward phase: belief propagation + time-reversed chain R(t).
        // ------------------------------------------------------------------
        let mut forward: Vec<SparseDist> = Vec::with_capacity(horizon + 1);
        forward.push(SparseDist::delta(first));
        reversed.clear();
        let mut pending = observations[1..].iter().peekable();
        for step in 1..=horizon {
            let t = start + step as Timestamp;
            groups.products.clear();
            for (j, pj) in forward[step - 1].iter() {
                let (cols, vals) = model.row(j, t - 1);
                if cols.is_empty() {
                    continue;
                }
                let uniform = 1.0 / cols.len() as f64;
                for (idx, &i) in cols.iter().enumerate() {
                    let m_ji = if self.uniform_transitions { uniform } else { vals[idx] };
                    let w = m_ji * pj;
                    if w > 0.0 {
                        groups.products.push((i, j, w));
                    }
                }
            }
            if groups.products.is_empty() {
                return Err(AdaptError::ContradictoryObservations { time: t });
            }
            let mut belief = groups.fold_step(reversed);
            belief.normalize();
            if let Some(&(_, theta)) = pending.next_if(|&&(time, _)| time == t) {
                if belief.prob(theta) <= 0.0 {
                    return Err(AdaptError::ContradictoryObservations { time: t });
                }
                belief = SparseDist::delta(theta);
            }
            forward.push(belief);
        }

        // ------------------------------------------------------------------
        // Backward phase: a-posteriori marginals and transitions F(t).
        // ------------------------------------------------------------------
        let mut posterior: Vec<SparseDist> = vec![SparseDist::new(); horizon + 1];
        posterior[horizon] = SparseDist::delta(last);
        transitions.clear();
        for step in (0..horizon).rev() {
            groups.products.clear();
            for (j, pj) in posterior[step + 1].iter() {
                // R(start + step + 1) is the forward phase's step `step`.
                let Some(row) = reversed.row(step, j) else { continue };
                for (i, r_ji) in row.iter() {
                    let w = r_ji * pj;
                    if w > 0.0 {
                        groups.products.push((i, j, w));
                    }
                }
            }
            if groups.products.is_empty() {
                // The forward phase guarantees a consistent corridor, so this
                // can only be triggered by numerical underflow.
                return Err(AdaptError::ContradictoryObservations {
                    time: start + step as Timestamp,
                });
            }
            let mut marginal = groups.fold_step(transitions);
            marginal.normalize();
            posterior[step] = marginal;
        }

        Ok(AdaptedModel {
            start,
            end,
            forward,
            posterior,
            kernel: AliasKernel::from_rows(transitions.reversed()),
            observations: observations.to_vec(),
        })
    }
}

/// The a-posteriori model of one uncertain object: the output of Algorithm 2.
///
/// It covers the closed timestamp interval `[start, end]` spanned by the
/// object's observations.
#[derive(Debug, Clone)]
pub struct AdaptedModel {
    start: Timestamp,
    end: Timestamp,
    /// `forward[k]`: P(o(start+k) = s | observations at times ≤ start+k).
    forward: Vec<SparseDist>,
    /// `posterior[k]`: P(o(start+k) = s | all observations Θ).
    posterior: Vec<SparseDist>,
    /// `F(start+k)` at step `k` — rows P(o(start+k+1) = s_j | o(start+k) =
    /// s_i, Θ) — with the Walker/Vose alias table of every row: the O(1)
    /// sampling kernel behind [`AdaptedModel::sample_transition`]. The alias
    /// tables are a deterministic function of the rows, rebuilt on store
    /// load rather than serialized.
    kernel: AliasKernel,
    observations: Vec<(Timestamp, StateId)>,
}

impl AdaptedModel {
    /// Convenience constructor using the default [`ModelAdaptation`].
    pub fn build<M: TransitionModel>(
        model: &M,
        observations: &[(Timestamp, StateId)],
    ) -> Result<Self, AdaptError> {
        ModelAdaptation::new().adapt(model, observations)
    }

    /// Reassembles a model from its stored parts (the store-loading
    /// counterpart of [`AdaptedModel::build`]). The covered interval is
    /// derived from the first and last observation; `forward` and `posterior`
    /// must hold one marginal per covered timestamp and `kernel` one step per
    /// covered step. Every walk from the first observed state must find a
    /// non-empty row at every step, and so must a walk started anywhere in
    /// the window: every posterior marginal is non-empty, and each of its
    /// states before the last step has a non-empty row at its step. No
    /// probabilistic post-processing happens here — the parts are adopted
    /// bit-for-bit.
    pub fn from_parts(
        observations: Vec<(Timestamp, StateId)>,
        forward: Vec<SparseDist>,
        posterior: Vec<SparseDist>,
        kernel: AliasKernel,
    ) -> Result<Self, &'static str> {
        let Some(&(start, first)) = observations.first() else {
            return Err("adapted model needs at least one observation");
        };
        let (end, _) = observations[observations.len() - 1];
        if observations.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("observation times must be strictly increasing");
        }
        let horizon = (end - start) as usize;
        if forward.len() != horizon + 1 {
            return Err("forward marginal count must equal horizon + 1");
        }
        if posterior.len() != horizon + 1 {
            return Err("posterior marginal count must equal horizon + 1");
        }
        if kernel.num_steps() != horizon {
            return Err("transition-table count must equal the horizon");
        }
        // A sampled walk must never stand on a state without a way on.
        match kernel.uncovered_step(first) {
            None => {}
            Some(0) => return Err("first observed state has no transition row at the first step"),
            Some(_) => return Err("a transition target has no row at the next step"),
        }
        // A window walk starts on any state of a posterior marginal.
        if posterior.iter().any(SparseDist::is_empty) {
            return Err("an a-posteriori marginal is empty");
        }
        if (0..horizon).any(|k| !rows_cover(&kernel, k, &posterior[k])) {
            return Err("an a-posteriori state has no transition row at its step");
        }
        Ok(AdaptedModel { start, end, forward, posterior, kernel, observations })
    }

    /// First observed timestamp.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Last observed timestamp.
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Number of transitions covered (`end - start`).
    #[inline]
    pub fn horizon(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether timestamp `t` lies in the covered interval `[start, end]`.
    #[inline]
    pub fn covers(&self, t: Timestamp) -> bool {
        t >= self.start && t <= self.end
    }

    /// The observations this model was conditioned on.
    pub fn observations(&self) -> &[(Timestamp, StateId)] {
        &self.observations
    }

    /// A-posteriori marginal `P(o(t) = · | Θ)`, or `None` outside `[start, end]`.
    pub fn posterior_at(&self, t: Timestamp) -> Option<&SparseDist> {
        self.index_of(t).map(|k| &self.posterior[k])
    }

    /// Forward-only marginal `P(o(t) = · | observations up to t)` — the "F"
    /// model of Figure 12.
    pub fn forward_at(&self, t: Timestamp) -> Option<&SparseDist> {
        self.index_of(t).map(|k| &self.forward[k])
    }

    /// The step index of `t → t+1`, if `t` lies in `[start, end)`.
    #[inline]
    fn step_of(&self, t: Timestamp) -> Option<usize> {
        (t >= self.start && t < self.end).then(|| (t - self.start) as usize)
    }

    /// The a-posteriori transition distribution out of `state` for the step
    /// `t → t+1`, or `None` if `t` is outside `[start, end)` or `state` is not
    /// reachable at `t`.
    pub fn transition_row(&self, t: Timestamp, state: StateId) -> Option<TransitionRow<'_>> {
        self.kernel.row(self.step_of(t)?, state)
    }

    /// The rows of the step `t → t+1` in increasing source order, or `None`
    /// if `t` is outside `[start, end)`.
    pub fn transition_table(
        &self,
        t: Timestamp,
    ) -> Option<impl ExactSizeIterator<Item = (StateId, TransitionRow<'_>)> + '_> {
        self.step_of(t).map(|step| self.kernel.step_rows(step))
    }

    /// Draws the next state for the step `t → t+1` out of `state` with one
    /// uniform `u ∈ [0, 1)`, answered in O(1) by the precomputed alias
    /// kernel after a binary row search. A walk of many steps searches once
    /// instead: [`AliasKernel::row_of`] at its start, then
    /// [`AliasKernel::draw`] along the successor links.
    ///
    /// Returns `None` under exactly the conditions where
    /// [`AdaptedModel::transition_row`] does (step outside `[start, end)` or
    /// `state` unreachable at `t`), and draws each target with exactly the
    /// probability of that row — distributionally equivalent to an
    /// inverse-CDF scan via [`SparseDist::sample_with`], though the
    /// individual `u → state` mapping differs.
    #[inline]
    pub fn sample_transition(&self, t: Timestamp, state: StateId, u: f64) -> Option<StateId> {
        self.kernel.sample(self.step_of(t)?, state, u)
    }

    /// The a-posteriori chain with its O(1) alias-table sampling kernel.
    pub fn alias_kernel(&self) -> &AliasKernel {
        &self.kernel
    }

    /// States with non-zero a-posteriori probability at time `t`.
    pub fn support_at(&self, t: Timestamp) -> impl Iterator<Item = StateId> + '_ {
        self.posterior_at(t).into_iter().flat_map(|d| d.support())
    }

    /// The a-posteriori most likely state at time `t`.
    pub fn most_likely_state(&self, t: Timestamp) -> Option<StateId> {
        self.posterior_at(t).and_then(|d| d.argmax())
    }

    /// Internal index of timestamp `t`.
    fn index_of(&self, t: Timestamp) -> Option<usize> {
        if self.covers(t) {
            Some((t - self.start) as usize)
        } else {
            None
        }
    }

    /// Validates the stochastic invariants of the adapted model:
    /// * every posterior and forward marginal is a probability distribution,
    /// * every transition row is a probability distribution,
    /// * the support of each transition row at time `t` is contained in the
    ///   posterior support at `t+1`,
    /// * every posterior state at `t < end` has a non-empty transition row at
    ///   `t`, so a walk can start on it,
    /// * posteriors at observation times are point masses on the observation.
    ///
    /// Intended for tests and debugging; returns a human-readable description
    /// of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (k, dist) in self.posterior.iter().enumerate() {
            if !dist.is_normalized() {
                return Err(format!("posterior at offset {k} is not normalized"));
            }
        }
        for (k, dist) in self.forward.iter().enumerate() {
            if !dist.is_normalized() {
                return Err(format!("forward marginal at offset {k} is not normalized"));
            }
        }
        for k in 0..self.horizon() {
            if !rows_cover(&self.kernel, k, &self.posterior[k]) {
                return Err(format!("a posterior state at offset {k} has no transition row"));
            }
            let next_support: Vec<StateId> = self.posterior[k + 1].support().collect();
            for (src, row) in self.kernel.step_rows(k) {
                let mass: f64 = row.probs().iter().sum();
                let normalized = (mass - 1.0).abs() < PROB_EPSILON;
                if !normalized {
                    return Err(format!("transition row ({k}, {src}) is not normalized"));
                }
                for &dst in row.targets() {
                    if next_support.binary_search(&dst).is_err() {
                        return Err(format!(
                            "transition row ({k}, {src}) reaches state {dst} outside the posterior support"
                        ));
                    }
                }
            }
        }
        for &(t, theta) in &self.observations {
            let post = self.posterior_at(t).expect("observation inside the covered interval");
            if (post.prob(theta) - 1.0).abs() > 1e-6 {
                return Err(format!(
                    "posterior at observation time {t} is not concentrated on the observed state"
                ));
            }
        }
        Ok(())
    }
}

/// Whether every state of `marginal` has a non-empty row at `step` of
/// `kernel`: one linear merge of the two sorted state lists.
fn rows_cover(kernel: &AliasKernel, step: usize, marginal: &SparseDist) -> bool {
    let mut rows = kernel.step_rows(step);
    marginal.support().all(|state| {
        rows.find(|&(source, _)| source >= state)
            .is_some_and(|(source, row)| source == state && !row.is_empty())
    })
}

// The query engine shares adapted models across its TS-phase worker threads
// (`Arc<AdaptedModel>` handed between scoped threads), so these types must
// stay `Send + Sync`. The assertion is compile-time: adding interior
// mutability or non-atomic shared state to any of them breaks the build here
// rather than at the distant engine call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AdaptedModel>();
    assert_send_sync::<ModelAdaptation>();
    assert_send_sync::<AdaptError>();
    assert_send_sync::<AliasKernel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MarkovModel;
    use crate::sparse::CsrMatrix;
    use rustc_hash::FxHashMap;

    /// The running example of the paper (Figure 1): object o1 starts at s2
    /// and can reach {s1, s3}; from s3 it reaches {s1, s3}. All branches have
    /// probability 0.5. States: s1=0, s2=1, s3=2, s4=3.
    fn example_o1_model() -> MarkovModel {
        MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],             // s1 -> s1
            vec![(0, 0.5), (2, 0.5)],   // s2 -> {s1, s3}
            vec![(0, 0.5), (2, 0.5)],   // s3 -> {s1, s3}
            vec![(3, 1.0)],             // s4 -> s4
        ]))
    }

    #[test]
    fn rejects_bad_observation_sets() {
        let m = example_o1_model();
        assert_eq!(
            ModelAdaptation::new().adapt(&m, &[]).unwrap_err(),
            AdaptError::NoObservations
        );
        assert_eq!(
            ModelAdaptation::new().adapt(&m, &[(3, 0), (3, 1)]).unwrap_err(),
            AdaptError::UnsortedObservations
        );
        assert_eq!(
            ModelAdaptation::new().adapt(&m, &[(0, 99)]).unwrap_err(),
            AdaptError::StateOutOfRange { time: 0, state: 99 }
        );
    }

    #[test]
    fn detects_contradictory_observations() {
        let m = example_o1_model();
        // From s2 the object can never reach s4.
        let err = ModelAdaptation::new().adapt(&m, &[(1, 1), (3, 3)]).unwrap_err();
        assert_eq!(err, AdaptError::ContradictoryObservations { time: 3 });
    }

    #[test]
    fn single_observation_is_a_point_mass() {
        let m = example_o1_model();
        let adapted = AdaptedModel::build(&m, &[(5, 1)]).unwrap();
        assert_eq!(adapted.start(), 5);
        assert_eq!(adapted.end(), 5);
        assert_eq!(adapted.horizon(), 0);
        assert_eq!(adapted.posterior_at(5).unwrap(), &SparseDist::delta(1));
        assert!(adapted.posterior_at(6).is_none());
        assert!(adapted.check_invariants().is_ok());
    }

    #[test]
    fn unconstrained_endpoint_matches_forward_propagation() {
        // With observations only at the start and end, the posterior at the
        // end time must equal the delta of the final observation, and the
        // posterior at the start the delta of the first.
        let m = example_o1_model();
        let adapted = AdaptedModel::build(&m, &[(0, 1), (2, 0)]).unwrap();
        assert_eq!(adapted.posterior_at(0).unwrap(), &SparseDist::delta(1));
        assert_eq!(adapted.posterior_at(2).unwrap(), &SparseDist::delta(0));
        assert!(adapted.check_invariants().is_ok());
    }

    /// Brute-force reference: enumerate all trajectories of the a-priori
    /// chain starting at the first observation, keep the ones hitting all
    /// observations, normalize, and compute marginals / transition
    /// probabilities from them.
    fn brute_force_posterior(
        model: &MarkovModel,
        obs: &[(Timestamp, StateId)],
    ) -> (Vec<FxHashMap<StateId, f64>>, f64) {
        let start = obs[0].0;
        let end = obs[obs.len() - 1].0;
        let horizon = (end - start) as usize;
        let mut paths: Vec<(Vec<StateId>, f64)> = vec![(vec![obs[0].1], 1.0)];
        for step in 0..horizon {
            let t = start + step as Timestamp;
            let mut next = Vec::new();
            for (path, p) in &paths {
                let last = *path.last().unwrap();
                for (s, w) in model.matrix_at(t).row_iter(last) {
                    let mut np = path.clone();
                    np.push(s);
                    next.push((np, p * w));
                }
            }
            paths = next;
        }
        // Filter on all observations.
        let mut total = 0.0;
        let mut kept: Vec<(Vec<StateId>, f64)> = Vec::new();
        for (path, p) in paths {
            let ok = obs.iter().all(|&(t, s)| path[(t - start) as usize] == s);
            if ok {
                total += p;
                kept.push((path, p));
            }
        }
        let mut marginals: Vec<FxHashMap<StateId, f64>> =
            vec![FxHashMap::default(); horizon + 1];
        for (path, p) in &kept {
            for (k, &s) in path.iter().enumerate() {
                *marginals[k].entry(s).or_insert(0.0) += p / total;
            }
        }
        (marginals, total)
    }

    #[test]
    fn posterior_matches_possible_world_enumeration() {
        let m = example_o1_model();
        // o1 of Figure 1: observed at s2 (t=1); additionally pin t=3 to s1 so
        // that non-trivial inference happens at t=2.
        let obs = vec![(1u32, 1u32), (3, 0)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();
        assert!(adapted.check_invariants().is_ok());
        let (marginals, _) = brute_force_posterior(&m, &obs);
        for (k, marginal) in marginals.iter().enumerate() {
            let t = 1 + k as Timestamp;
            let post = adapted.posterior_at(t).unwrap();
            for s in 0..4u32 {
                let expected = marginal.get(&s).copied().unwrap_or(0.0);
                assert!(
                    (post.prob(s) - expected).abs() < 1e-9,
                    "t={t} s={s}: adapted {} vs brute force {expected}",
                    post.prob(s)
                );
            }
        }
    }

    #[test]
    fn adapted_transitions_reproduce_world_probabilities() {
        // Sampling-free check: multiplying adapted transition probabilities
        // along a path must give exactly the conditional possible-world
        // probability P(path | observations).
        let m = example_o1_model();
        let obs = vec![(1u32, 1u32), (3, 2)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();

        // Enumerate a-priori paths consistent with observations.
        let (_, total) = brute_force_posterior(&m, &obs);
        // Path s2 -> s3 -> s3 has a-priori probability 0.25, conditioned 0.25/total.
        let path = [1u32, 2, 2];
        let mut p_adapted = 1.0;
        for (k, w) in path.windows(2).enumerate() {
            let t = 1 + k as Timestamp;
            let row = adapted.transition_row(t, w[0]).expect("row exists");
            p_adapted *= row.prob(w[1]);
        }
        let expected = 0.25 / total;
        assert!((p_adapted - expected).abs() < 1e-9, "{p_adapted} vs {expected}");
    }

    #[test]
    fn intermediate_observations_pin_the_posterior() {
        let m = example_o1_model();
        let obs = vec![(0u32, 1u32), (2, 2), (4, 0)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();
        assert_eq!(adapted.posterior_at(2).unwrap(), &SparseDist::delta(2));
        assert!(adapted.check_invariants().is_ok());
        // All transition rows out of the observation state at t=2 exist.
        assert!(adapted.transition_row(2, 2).is_some());
        assert!(adapted.transition_row(2, 0).is_none(), "unreachable state has no row");
    }

    #[test]
    fn uniform_transition_variant_differs_but_is_consistent() {
        // A chain with non-uniform probabilities.
        let m = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 0.9), (1, 0.1)],
            vec![(0, 0.2), (1, 0.8)],
        ]));
        let obs = vec![(0u32, 0u32), (3, 1)];
        let fb = ModelAdaptation::new().adapt(&m, &obs).unwrap();
        let fbu = ModelAdaptation::with_uniform_transitions().adapt(&m, &obs).unwrap();
        assert!(fb.check_invariants().is_ok());
        assert!(fbu.check_invariants().is_ok());
        // Both must have the same support but different probabilities at t=1.
        let support_fb: Vec<_> = fb.support_at(1).collect();
        let support_fbu: Vec<_> = fbu.support_at(1).collect();
        assert_eq!(support_fb, support_fbu);
        let p_fb = fb.posterior_at(1).unwrap().prob(0);
        let p_fbu = fbu.posterior_at(1).unwrap().prob(0);
        assert!((p_fb - p_fbu).abs() > 1e-3, "FB {p_fb} and FBU {p_fbu} should differ");
    }

    #[test]
    fn forward_marginals_differ_from_posterior_before_an_observation() {
        // Directly before the final observation the forward-only model is
        // still spread out while the posterior is already pinned; this is the
        // effect visible in Figure 12.
        let m = example_o1_model();
        let obs = vec![(0u32, 1u32), (4, 0)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();
        let fwd = adapted.forward_at(3).unwrap();
        let post = adapted.posterior_at(3).unwrap();
        assert!(fwd.support_size() >= post.support_size());
        // The posterior at t=3 can only contain states that reach s1 in one step.
        for (s, _) in post.iter() {
            assert!(
                m.matrix_at(3).get(s, 0) > 0.0,
                "state {s} cannot reach the final observation"
            );
        }
    }
}
