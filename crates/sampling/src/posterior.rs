//! Sampling from the a-posteriori (forward–backward adapted) model.
//!
//! Section 5.2.3: "Once the transition matrices F^o(t) for each point of time
//! t have been computed, the actual sampling process is simple: For each
//! object o, each sampling iteration starts at the initial position θ_1 at
//! time t_1. Then, random transitions are performed, using F^o(t) until the
//! final observation of o is reached."
//!
//! Every draw needs exactly one pass over the covered interval and is, by
//! construction, consistent with all observations.

use rand::Rng;
use ust_markov::AdaptedModel;
use ust_trajectory::Trajectory;

/// Samples certain trajectories from an object's a-posteriori model.
#[derive(Debug, Clone)]
pub struct PosteriorSampler<'a> {
    model: &'a AdaptedModel,
}

impl<'a> PosteriorSampler<'a> {
    /// Creates a sampler over the given adapted model.
    pub fn new(model: &'a AdaptedModel) -> Self {
        PosteriorSampler { model }
    }

    /// Draws one trajectory covering `[start, end]` of the adapted model: one
    /// RNG draw per chain step from the first observation to the last.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Trajectory {
        let start = self.model.start();
        let end = self.model.end();
        let mut current = self.model.observations()[0].1;
        let mut states = Vec::with_capacity((end - start) as usize + 1);
        states.push(current);
        for t in start..end {
            // `rng.gen::<f64>()` yields u ∈ [0, 1) (53-bit mantissa over
            // 2⁻⁵³ steps), satisfying the alias kernel's contract.
            current = self
                .model
                .sample_transition(t, current, rng.gen::<f64>())
                .expect("reachable states always have an adapted transition row");
            states.push(current);
        }
        Trajectory::new(start, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rustc_hash::FxHashMap;
    use ust_markov::{CsrMatrix, MarkovModel};

    /// The Figure 1 chain of object o1: s2 -> {s1, s3}, s3 -> {s1, s3},
    /// s1 and s4 absorbing; states s1=0, s2=1, s3=2, s4=3.
    fn o1_model() -> MarkovModel {
        MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
        ]))
    }

    #[test]
    fn samples_start_and_end_at_the_observations() {
        let model = o1_model();
        let adapted = AdaptedModel::build(&model, &[(1, 1), (3, 0)]).unwrap();
        let sampler = PosteriorSampler::new(&adapted);
        let mut rng = StdRng::seed_from_u64(0);
        for tr in (0..200).map(|_| sampler.sample(&mut rng)) {
            assert_eq!(tr.start(), 1);
            assert_eq!(tr.end(), 3);
            assert_eq!(tr.state_at(1), Some(1));
            assert_eq!(tr.state_at(3), Some(0));
            assert!(tr.consistent_with(adapted.observations()));
        }
    }

    #[test]
    fn samples_pass_through_intermediate_observations() {
        let model = o1_model();
        let adapted = AdaptedModel::build(&model, &[(0, 1), (2, 2), (4, 0)]).unwrap();
        let sampler = PosteriorSampler::new(&adapted);
        let mut rng = StdRng::seed_from_u64(7);
        for tr in (0..100).map(|_| sampler.sample(&mut rng)) {
            assert_eq!(tr.state_at(2), Some(2));
        }
    }

    #[test]
    fn empirical_frequencies_match_conditional_world_probabilities() {
        // o1 of Figure 1 observed only at t=1 (state s2). The three possible
        // trajectories and their probabilities are listed in the paper:
        // (s2,s1,s1) -> 0.5, (s2,s3,s1) -> 0.25, (s2,s3,s3) -> 0.25.
        let model = o1_model();
        let adapted = AdaptedModel::build(&model, &[(1, 1), (3, 0)]);
        // With an end observation at s1 the conditional probabilities change;
        // use only one observation via a trick: first and last are the same
        // single observation, so instead adapt over [1,1] -- horizon 0. To
        // exercise real sampling use the two-observation case and compare to
        // hand-computed conditional probabilities.
        let adapted = match adapted {
            Ok(a) => a,
            Err(e) => panic!("adaptation failed: {e}"),
        };
        // Given the final observation s1 at t=3, possible worlds are
        // (s2,s1,s1) with prior 0.5 and (s2,s3,s1) with prior 0.25; conditioned
        // probabilities are 2/3 and 1/3.
        let sampler = PosteriorSampler::new(&adapted);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 30_000;
        let mut counts: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        for tr in (0..n).map(|_| sampler.sample(&mut rng)) {
            *counts.entry(tr.states().to_vec()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 2, "exactly two possible worlds");
        let p_direct = counts.get(&vec![1, 0, 0]).copied().unwrap_or(0) as f64 / n as f64;
        let p_detour = counts.get(&vec![1, 2, 0]).copied().unwrap_or(0) as f64 / n as f64;
        assert!((p_direct - 2.0 / 3.0).abs() < 0.02, "p_direct = {p_direct}");
        assert!((p_detour - 1.0 / 3.0).abs() < 0.02, "p_detour = {p_detour}");
    }

    #[test]
    fn single_observation_model_yields_degenerate_trajectory() {
        let model = o1_model();
        let adapted = AdaptedModel::build(&model, &[(7, 2)]).unwrap();
        let sampler = PosteriorSampler::new(&adapted);
        let mut rng = StdRng::seed_from_u64(1);
        let tr = sampler.sample(&mut rng);
        assert_eq!(tr.start(), 7);
        assert_eq!(tr.end(), 7);
        assert_eq!(tr.state_at(7), Some(2));
    }
}
