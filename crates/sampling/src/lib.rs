//! # ust-sampling
//!
//! Trajectory sampling for uncertain moving objects (Section 5 of the paper).
//!
//! Probabilistic NN queries are `NP`-hard (P∃NN) or have no known
//! polynomial-time algorithm (P∀NN), so the paper answers them by Monte-Carlo
//! simulation: draw possible worlds (one certain trajectory per object,
//! consistent with its observations), run certain-trajectory NN algorithms on
//! every world and average.
//!
//! Three samplers are provided:
//!
//! * [`rejection::RejectionSampler`] — "TS1": forward simulation of the
//!   a-priori chain from the first observation, discarding every trajectory
//!   that misses a later observation. The expected number of attempts per
//!   valid sample grows exponentially in the number of observations
//!   (Section 5.1, Figure 10).
//! * [`rejection::SegmentedSampler`] — "TS2": segment-wise rejection between
//!   consecutive observations, reducing the expected cost to linear in the
//!   number of observations (still typically > 10⁵ attempts, Figure 10).
//! * [`posterior::PosteriorSampler`] — the paper's contribution: sampling
//!   from the forward–backward adapted a-posteriori chain (`ust-markov`),
//!   which needs exactly **one** attempt per sample and still draws each
//!   possible trajectory with its correct conditional probability.
//!
//! [`world::WorldSampler`] combines per-object samplers into possible worlds,
//! and [`hoeffding`] provides the sample-size / confidence bounds the paper
//! refers to (\[29\]).

pub mod block;
pub mod hoeffding;
pub mod posterior;
pub mod rejection;
pub mod world;

pub use block::{block_seed, WorldBlock, WORLD_BLOCK_WIDTH};
pub use hoeffding::{confidence_radius, required_samples};
pub use posterior::PosteriorSampler;
pub use rejection::{RejectionOutcome, RejectionSampler, SegmentedSampler};
pub use world::{PossibleWorld, WorldSampler};

pub use ust_markov::Timestamp;
pub use ust_spatial::StateId;

use rand::Rng;

/// Samples an index from parallel `(values, weights)` slices proportionally to
/// the weights, using inverse-CDF sampling. Returns `None` for empty input.
pub(crate) fn sample_weighted<R: Rng>(
    states: &[StateId],
    weights: &[f64],
    rng: &mut R,
) -> Option<StateId> {
    if states.is_empty() {
        return None;
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let target = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            return Some(states[i]);
        }
    }
    states.last().copied()
}
