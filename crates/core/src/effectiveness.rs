//! Effectiveness of the model adaptation (Figure 12 of the paper).
//!
//! The experiment measures how well different uncertainty models predict the
//! *true* (held-out) position of an object in between its observations. For
//! every timestamp the model under test yields a probability distribution over
//! states; the error is the expected distance between the predicted state and
//! the ground-truth position. Five models are compared:
//!
//! | label | model |
//! |-------|-------|
//! | `NO`  | a-priori chain propagated from the first observation only |
//! | `F`   | forward-only adaptation (all past observations) |
//! | `FB`  | forward–backward adaptation (all observations) — the paper's approach |
//! | `U`   | uniform distribution over all reachable states (cylinder/bead-style approximations [13, 16]) |
//! | `FBU` | forward–backward adaptation with uniform (unlearned) transition probabilities |

use crate::ObjectId;
use ust_markov::{AdaptedModel, MarkovModel, ModelAdaptation, SparseDist, Timestamp};
use ust_spatial::{Point, StateSpace};
use ust_trajectory::{Trajectory, UncertainObject};

/// The uncertainty-model variants compared in Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelVariant {
    /// A-priori model, first observation only ("NO").
    NoAdaptation,
    /// Forward-only adaptation ("F").
    ForwardOnly,
    /// Full forward–backward adaptation ("FB").
    ForwardBackward,
    /// Uniform distribution over the reachable states ("U").
    UniformReachable,
    /// Forward–backward adaptation over a uniform-transition chain ("FBU").
    ForwardBackwardUniform,
}

impl ModelVariant {
    /// All variants in the order they appear in Figure 12.
    pub const ALL: [ModelVariant; 5] = [
        ModelVariant::NoAdaptation,
        ModelVariant::ForwardOnly,
        ModelVariant::ForwardBackward,
        ModelVariant::UniformReachable,
        ModelVariant::ForwardBackwardUniform,
    ];

    /// The short label used in the paper's plot.
    pub fn label(&self) -> &'static str {
        match self {
            ModelVariant::NoAdaptation => "NO",
            ModelVariant::ForwardOnly => "F",
            ModelVariant::ForwardBackward => "FB",
            ModelVariant::UniformReachable => "U",
            ModelVariant::ForwardBackwardUniform => "FBU",
        }
    }
}

/// Expected distance between a predicted state distribution and the true
/// position: `Σ_s P(s) · d(pos(s), truth)`.
pub fn expected_error(dist: &SparseDist, space: &StateSpace, truth: &Point) -> f64 {
    dist.iter().map(|(s, p)| p * space.position(s).dist(truth)).sum()
}

/// Per-timestamp prediction errors of one model variant for one object.
#[derive(Debug, Clone)]
pub struct ObjectErrorSeries {
    /// The evaluated object.
    pub object: ObjectId,
    /// The model variant.
    pub variant: ModelVariant,
    /// `(timestamp, expected error)` pairs over the object's covered interval.
    pub errors: Vec<(Timestamp, f64)>,
}

impl ObjectErrorSeries {
    /// Mean error over all evaluated timestamps.
    pub fn mean_error(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().map(|&(_, e)| e).sum::<f64>() / self.errors.len() as f64
    }
}

/// Evaluates one model variant for one object against its ground truth.
///
/// The object's own discarded positions serve as ground truth (leave-one-out:
/// the evaluated object's trajectory was not used to *train* the shared model
/// when the dataset generator is configured accordingly).
pub fn evaluate_variant(
    model: &MarkovModel,
    object: &UncertainObject,
    ground_truth: &Trajectory,
    space: &StateSpace,
    variant: ModelVariant,
) -> Result<ObjectErrorSeries, ust_markov::AdaptError> {
    let observations = object.observation_pairs();
    let adaptation = if variant == ModelVariant::ForwardBackwardUniform {
        ModelAdaptation::with_uniform_transitions()
    } else {
        ModelAdaptation::new()
    };
    // "F" reads the forward beliefs alone, "NO" only the a-priori chain.
    let forward: Vec<SparseDist> = match variant {
        ModelVariant::ForwardOnly => adaptation.forward_marginals(model, &observations)?,
        _ => Vec::new(),
    };
    let adapted: Option<AdaptedModel> = match variant {
        ModelVariant::NoAdaptation | ModelVariant::ForwardOnly => None,
        _ => Some(adaptation.adapt(model, &observations)?),
    };
    let start = object.first_time();
    let end = object.last_time();
    let first_state = observations[0].1;
    let mut errors = Vec::with_capacity((end - start) as usize + 1);
    for t in start..=end {
        let truth = match ground_truth.position_at(t, space) {
            Some(p) => p,
            None => continue,
        };
        let dist: SparseDist = match (variant, &adapted) {
            (ModelVariant::NoAdaptation, _) => model.propagate_steps(
                &SparseDist::delta(first_state),
                start,
                (t - start) as usize,
            ),
            (ModelVariant::ForwardOnly, _) => forward[(t - start) as usize].clone(),
            (ModelVariant::UniformReachable, Some(a)) => {
                SparseDist::uniform(a.support_at(t))
            }
            (_, Some(a)) => a.posterior_at(t).cloned().unwrap_or_default(),
            _ => unreachable!("adapted model exists for all adapted variants"),
        };
        errors.push((t, expected_error(&dist, space, &truth)));
    }
    Ok(ObjectErrorSeries { object: object.id(), variant, errors })
}

/// Evaluates all five variants for one object.
pub fn evaluate_all_variants(
    model: &MarkovModel,
    object: &UncertainObject,
    ground_truth: &Trajectory,
    space: &StateSpace,
) -> Result<Vec<ObjectErrorSeries>, ust_markov::AdaptError> {
    ModelVariant::ALL
        .iter()
        .map(|&v| evaluate_variant(model, object, ground_truth, space, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::CsrMatrix;

    /// Line of 7 states; the object walks right at every tic.
    fn setup() -> (StateSpace, MarkovModel, UncertainObject, Trajectory) {
        let space = StateSpace::from_points((0..7).map(|i| Point::new(i as f64, 0.0)).collect());
        // Strongly biased walk to the right with a small chance of waiting.
        let rows = (0..7i64)
            .map(|i| {
                let mut row = vec![(i as u32, 0.2)];
                if i < 6 {
                    row.push((i as u32 + 1, 0.8));
                }
                row
            })
            .collect();
        let model = MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(rows));
        // True motion: one step right per tic, observed at t=0 and t=6.
        let truth = Trajectory::new(0, (0..7).collect());
        let object = UncertainObject::from_pairs(9, vec![(0, 0), (6, 6)]).unwrap();
        (space, model, object, truth)
    }

    #[test]
    fn expected_error_of_a_point_mass_is_the_distance() {
        let space = StateSpace::from_points(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        let d = SparseDist::delta(1);
        assert!((expected_error(&d, &space, &Point::new(0.0, 0.0)) - 5.0).abs() < 1e-12);
        let mix = SparseDist::from_pairs(vec![(0, 0.5), (1, 0.5)]);
        assert!((expected_error(&mix, &space, &Point::new(0.0, 0.0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn variant_labels_are_unique() {
        let labels: Vec<&str> = ModelVariant::ALL.iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), 5);
        assert_eq!(labels, dedup);
    }

    #[test]
    fn forward_backward_beats_the_unadapted_model() {
        let (space, model, object, truth) = setup();
        let series = evaluate_all_variants(&model, &object, &truth, &space).unwrap();
        let mean = |v: ModelVariant| {
            series.iter().find(|s| s.variant == v).unwrap().mean_error()
        };
        let fb = mean(ModelVariant::ForwardBackward);
        let no = mean(ModelVariant::NoAdaptation);
        let f = mean(ModelVariant::ForwardOnly);
        let u = mean(ModelVariant::UniformReachable);
        // The orderings highlighted by Figure 12.
        assert!(fb <= f + 1e-9, "FB ({fb}) should not be worse than forward-only ({f})");
        assert!(fb <= no + 1e-9, "FB ({fb}) should not be worse than no adaptation ({no})");
        assert!(fb <= u + 1e-9, "FB ({fb}) should not be worse than uniform ({u})");
        // Errors vanish at the observation endpoints for all adapted variants.
        let fb_series = series.iter().find(|s| s.variant == ModelVariant::ForwardBackward).unwrap();
        assert!(fb_series.errors.first().unwrap().1 < 1e-9);
        assert!(fb_series.errors.last().unwrap().1 < 1e-9);
    }

    #[test]
    fn per_variant_series_cover_the_whole_interval() {
        let (space, model, object, truth) = setup();
        let s = evaluate_variant(&model, &object, &truth, &space, ModelVariant::UniformReachable)
            .unwrap();
        assert_eq!(s.errors.len(), 7);
        assert_eq!(s.object, 9);
        assert_eq!(s.errors[0].0, 0);
        assert_eq!(s.errors[6].0, 6);
    }

    #[test]
    fn fbu_is_consistent_but_generally_worse_than_fb() {
        let (space, model, object, truth) = setup();
        let fb = evaluate_variant(&model, &object, &truth, &space, ModelVariant::ForwardBackward)
            .unwrap()
            .mean_error();
        let fbu = evaluate_variant(
            &model,
            &object,
            &truth,
            &space,
            ModelVariant::ForwardBackwardUniform,
        )
        .unwrap()
        .mean_error();
        // The learned transition probabilities strongly favour the true
        // rightward motion, so FB must not be worse than FBU here.
        assert!(fb <= fbu + 1e-9, "FB ({fb}) vs FBU ({fbu})");
    }
}
