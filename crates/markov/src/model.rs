//! The a-priori Markov model `M^o(t)` of an uncertain moving object.
//!
//! Section 3.1 of the paper: "The probability `M^o_ij(t) = P(o(t+1) = s_j |
//! o(t) = s_i)` is the transition probability of a given object `o` from state
//! `s_i` to state `s_j` at a given time `t`. [...] In general, every object
//! `o` might have a different transition matrix, and the transition matrix of
//! an object might vary over time."
//!
//! In the paper's experiments all objects share one *homogeneous* chain
//! (learned from the road network or derived from the synthetic graph), but
//! the NP-hardness construction of Section 4.1 requires *time-inhomogeneous*
//! chains, so both are supported here.

use crate::sparse::{CsrMatrix, SparseDist};
use crate::{StateId, Timestamp};
use std::sync::Arc;

/// Abstraction over anything that can act as an a-priori transition model.
///
/// The adaptation and sampling algorithms only need row access at a given
/// time, so they are generic over this trait.
pub trait TransitionModel {
    /// Number of states of the underlying state space.
    fn num_states(&self) -> usize;

    /// The transition distribution out of `state` at time `t`
    /// (`P(o(t+1) = · | o(t) = state)`), as `(columns, values)` slices.
    /// Columns are distinct, as in every [`CsrMatrix`] row.
    fn row(&self, state: StateId, t: Timestamp) -> (&[StateId], &[f64]);

    /// Convenience iterator over the row entries.
    fn row_iter(&self, state: StateId, t: Timestamp) -> RowIter<'_> {
        let (cols, vals) = self.row(state, t);
        RowIter { cols, vals, idx: 0 }
    }

    /// One forward transition of a distribution: `~s(t+1) = M(t)^T · ~s(t)`.
    fn propagate(&self, dist: &SparseDist, t: Timestamp) -> SparseDist {
        let mut acc: rustc_hash::FxHashMap<StateId, f64> = rustc_hash::FxHashMap::default();
        for (j, pj) in dist.iter() {
            for (i, m_ji) in self.row_iter(j, t) {
                *acc.entry(i).or_insert(0.0) += m_ji * pj;
            }
        }
        SparseDist::from_pairs(acc)
    }
}

/// Iterator over the non-zero entries of a transition row.
#[derive(Debug)]
pub struct RowIter<'a> {
    cols: &'a [StateId],
    vals: &'a [f64],
    idx: usize,
}

impl Iterator for RowIter<'_> {
    type Item = (StateId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx < self.cols.len() {
            let out = (self.cols[self.idx], self.vals[self.idx]);
            self.idx += 1;
            Some(out)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.len() - self.idx;
        (rem, Some(rem))
    }
}

/// The a-priori Markov chain of an object (or, typically, of the whole
/// database — the paper's experiments assume all objects share one model).
#[derive(Debug, Clone)]
pub enum MarkovModel {
    /// One transition matrix used at every timestamp.
    Homogeneous(Arc<CsrMatrix>),
    /// A different matrix per timestamp offset. `matrices[t]` is used for the
    /// transition from time `t` to `t + 1`; timestamps beyond the last matrix
    /// reuse the final one.
    TimeVarying(Arc<Vec<CsrMatrix>>),
}

impl MarkovModel {
    /// Creates a homogeneous model from a transition matrix.
    pub fn homogeneous(matrix: CsrMatrix) -> Self {
        MarkovModel::Homogeneous(Arc::new(matrix))
    }

    /// Creates a time-inhomogeneous model; `matrices[t]` governs the
    /// transition from `t` to `t + 1`.
    ///
    /// # Panics
    /// Panics if `matrices` is empty or the matrices disagree on `num_states`.
    pub fn time_varying(matrices: Vec<CsrMatrix>) -> Self {
        assert!(!matrices.is_empty(), "time-varying model needs at least one matrix");
        let n = matrices[0].num_states();
        assert!(
            matrices.iter().all(|m| m.num_states() == n),
            "all matrices must share the same state space"
        );
        MarkovModel::TimeVarying(Arc::new(matrices))
    }

    /// The matrix that governs the transition from time `t` to `t + 1`.
    pub fn matrix_at(&self, t: Timestamp) -> &CsrMatrix {
        match self {
            MarkovModel::Homogeneous(m) => m,
            MarkovModel::TimeVarying(ms) => {
                let idx = (t as usize).min(ms.len() - 1);
                &ms[idx]
            }
        }
    }

    /// Whether all transition matrices are row-stochastic.
    pub fn is_valid(&self) -> bool {
        match self {
            MarkovModel::Homogeneous(m) => m.is_row_stochastic(),
            MarkovModel::TimeVarying(ms) => ms.iter().all(|m| m.is_row_stochastic()),
        }
    }

    /// Total number of stored non-zero transition probabilities.
    pub fn nnz(&self) -> usize {
        match self {
            MarkovModel::Homogeneous(m) => m.nnz(),
            MarkovModel::TimeVarying(ms) => ms.iter().map(|m| m.nnz()).sum(),
        }
    }

    /// Propagates a distribution `steps` times starting at time `t0`, without
    /// incorporating any observation. This is the "NO adaptation" baseline of
    /// Figure 12 (a-priori model, first observation only).
    pub fn propagate_steps(&self, dist: &SparseDist, t0: Timestamp, steps: usize) -> SparseDist {
        let mut d = dist.clone();
        for k in 0..steps {
            d = self.propagate(&d, t0 + k as Timestamp);
        }
        d
    }
}

impl TransitionModel for MarkovModel {
    fn num_states(&self) -> usize {
        match self {
            MarkovModel::Homogeneous(m) => m.num_states(),
            MarkovModel::TimeVarying(ms) => ms[0].num_states(),
        }
    }

    fn row(&self, state: StateId, t: Timestamp) -> (&[StateId], &[f64]) {
        self.matrix_at(t).row(state)
    }
}

impl TransitionModel for CsrMatrix {
    fn num_states(&self) -> usize {
        CsrMatrix::num_states(self)
    }

    fn row(&self, state: StateId, _t: Timestamp) -> (&[StateId], &[f64]) {
        CsrMatrix::row(self, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> CsrMatrix {
        CsrMatrix::from_rows(vec![
            vec![(1, 1.0)],
            vec![(2, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
        ])
    }

    #[test]
    fn homogeneous_model_rows() {
        let m = MarkovModel::homogeneous(chain());
        assert_eq!(m.num_states(), 3);
        assert!(m.is_valid());
        assert_eq!(m.row(0, 0), (&[1u32][..], &[1.0][..]));
        assert_eq!(m.row(0, 99), (&[1u32][..], &[1.0][..]));
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn time_varying_model_switches_matrices() {
        let identity = CsrMatrix::identity(3);
        let m = MarkovModel::time_varying(vec![chain(), identity]);
        // At t=0 the chain moves 0 -> 1; from t=1 on the identity holds.
        assert_eq!(m.row(0, 0).0, &[1u32][..]);
        assert_eq!(m.row(0, 1).0, &[0u32][..]);
        assert_eq!(m.row(0, 5).0, &[0u32][..], "timestamps beyond the last matrix reuse it");
        assert!(m.is_valid());
    }

    #[test]
    #[should_panic(expected = "at least one matrix")]
    fn time_varying_requires_matrices() {
        let _ = MarkovModel::time_varying(vec![]);
    }

    #[test]
    fn propagate_steps_matches_repeated_propagation() {
        let m = MarkovModel::homogeneous(chain());
        let d0 = SparseDist::delta(0);
        let via_steps = m.propagate_steps(&d0, 0, 3);
        let mut manual = d0;
        for t in 0..3 {
            manual = m.propagate(&manual, t);
        }
        for s in 0..3u32 {
            assert!((via_steps.prob(s) - manual.prob(s)).abs() < 1e-12);
        }
    }

    #[test]
    fn trait_impl_for_raw_matrix() {
        let c = chain();
        let d = TransitionModel::propagate(&c, &SparseDist::delta(2), 0);
        assert!((d.prob(0) - 0.5).abs() < 1e-12);
        assert!((d.prob(2) - 0.5).abs() < 1e-12);
    }
}
