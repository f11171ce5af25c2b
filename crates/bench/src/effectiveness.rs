//! Effectiveness experiments (Figures 11 and 12 of the paper).
//!
//! * **Figure 11** — precision of the probability estimates: the sampling
//!   approach of the paper (SA) and the snapshot competitor \[19\] (SS) are
//!   compared against reference probabilities (REF) obtained with a much
//!   larger sample budget. The paper plots the estimates against the
//!   reference as a scatter plot; the harness reports one row per
//!   (query, object) pair plus aggregated bias/deviation statistics.
//! * **Figure 12** — effectiveness of the model adaptation: the mean distance
//!   between the predicted distribution and the held-out ground-truth position
//!   for the five model variants NO / F / FB / U / FBU, reported per offset
//!   within the observation gap.

use crate::report::Row;
use rustc_hash::FxHashMap;
use ust_core::effectiveness::{evaluate_variant, ModelVariant};
use ust_core::snapshot::{snapshot_exists_nn, snapshot_forall_nn};
use ust_core::{EngineConfig, Query, QueryEngine};
use ust_generator::{Dataset, QueryWorkload};

/// One scatter point of the Figure 11 experiment.
#[derive(Debug, Clone, Copy)]
pub struct ScatterPoint {
    /// Query index within the workload.
    pub query: usize,
    /// Database object.
    pub object: u32,
    /// Reference probability (high-budget sampling).
    pub reference: f64,
    /// Paper's sampling estimate.
    pub sampled: f64,
    /// Snapshot-competitor estimate.
    pub snapshot: f64,
}

/// Result of the Figure 11 experiment: scatter points for P∀NN and P∃NN.
#[derive(Debug, Clone, Default)]
pub struct ScatterOutcome {
    /// Scatter points of the P∀NN estimates.
    pub forall: Vec<ScatterPoint>,
    /// Scatter points of the P∃NN estimates.
    pub exists: Vec<ScatterPoint>,
}

impl ScatterOutcome {
    /// Mean signed error of the given estimates against the reference.
    pub fn mean_bias(points: &[ScatterPoint], snapshot: bool) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        points
            .iter()
            .map(|p| if snapshot { p.snapshot - p.reference } else { p.sampled - p.reference })
            .sum::<f64>()
            / points.len() as f64
    }

    /// Mean absolute error of the given estimates against the reference.
    pub fn mean_abs_error(points: &[ScatterPoint], snapshot: bool) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        points
            .iter()
            .map(|p| {
                if snapshot {
                    (p.snapshot - p.reference).abs()
                } else {
                    (p.sampled - p.reference).abs()
                }
            })
            .sum::<f64>()
            / points.len() as f64
    }
}

/// Runs the Figure 11 precision experiment.
///
/// `sa_samples` is the sample budget of the estimate under test,
/// `ref_samples` the budget of the reference (the paper uses 10⁴ vs 10⁶; the
/// harness scales both down proportionally).
pub fn measure_estimate_precision(
    dataset: &Dataset,
    workload: &QueryWorkload,
    sa_samples: usize,
    ref_samples: usize,
    seed: u64,
) -> ScatterOutcome {
    let sa_engine = QueryEngine::new(
        &dataset.database,
        EngineConfig { num_samples: sa_samples, seed, ..Default::default() },
    );
    let ref_engine = QueryEngine::new(
        &dataset.database,
        EngineConfig { num_samples: ref_samples, seed: seed.wrapping_add(77), ..Default::default() },
    );
    let mut outcome = ScatterOutcome::default();
    for (qi, spec) in workload.queries.iter().enumerate() {
        let query = Query::at_point(spec.location, spec.times.iter().copied())
            .expect("workload queries are well-formed");
        let ref_forall = ref_engine.pforall_nn(&query, 0.0).expect("query succeeds");
        let ref_exists = ref_engine.pexists_nn(&query, 0.0).expect("query succeeds");
        let sa_forall = sa_engine.pforall_nn(&query, 0.0).expect("query succeeds");
        let sa_exists = sa_engine.pexists_nn(&query, 0.0).expect("query succeeds");
        // Snapshot estimates over the influence set's adapted models.
        let (_, influencers) = sa_engine.filter_knn(&query, 1).expect("filter succeeds");
        let models: Vec<_> = influencers
            .iter()
            .map(|&id| (id, sa_engine.adapted_model(id).expect("adaptation succeeds")))
            .collect();
        let ss_forall = snapshot_forall_nn(&models, dataset.database.state_space(), &query);
        let ss_exists = snapshot_exists_nn(&models, dataset.database.state_space(), &query);
        let ss_forall: FxHashMap<u32, f64> =
            ss_forall.into_iter().map(|r| (r.object, r.probability)).collect();
        let ss_exists: FxHashMap<u32, f64> =
            ss_exists.into_iter().map(|r| (r.object, r.probability)).collect();

        for r in &ref_forall.results {
            outcome.forall.push(ScatterPoint {
                query: qi,
                object: r.object,
                reference: r.probability,
                sampled: sa_forall.probability_of(r.object),
                snapshot: ss_forall.get(&r.object).copied().unwrap_or(0.0),
            });
        }
        for r in &ref_exists.results {
            outcome.exists.push(ScatterPoint {
                query: qi,
                object: r.object,
                reference: r.probability,
                sampled: sa_exists.probability_of(r.object),
                snapshot: ss_exists.get(&r.object).copied().unwrap_or(0.0),
            });
        }
    }
    outcome
}

/// Runs the Figure 12 model-adaptation error experiment.
///
/// For up to `max_objects` objects of the dataset, every model variant is
/// evaluated against the held-out ground truth; errors are aggregated by the
/// offset within the observation gap (error is zero at observations and peaks
/// in the middle of the gap). Returns one [`Row`] per offset with one column
/// per variant.
///
/// Each object's evaluation is independent (it runs five model adaptations),
/// so the per-object work fans out across `threads` scoped workers (`0` =
/// available parallelism). Per-object error samples are folded serially in
/// object order afterwards, so the reported means are bit-identical for every
/// thread count.
pub fn measure_model_error(dataset: &Dataset, max_objects: usize, threads: usize) -> Vec<Row> {
    let space = dataset.database.state_space();
    let gap = dataset
        .database
        .objects()
        .first()
        .and_then(|o| o.segments().next().map(|(a, b)| b.time - a.time))
        .unwrap_or(1) as usize;
    let objects = &dataset.database.objects()[..max_objects.min(dataset.database.objects().len())];
    // Per-object error samples `(variant, gap offset, error)`.
    type ErrorSamples = Vec<(&'static str, usize, f64)>;
    let evaluate = |object: &ust_trajectory::UncertainObject| {
        let mut samples: ErrorSamples = Vec::new();
        let Some(truth) = dataset.ground_truth_of(object.id()) else { return samples };
        let model = dataset.database.model_for(object.id());
        let start = object.first_time();
        for &variant in &ModelVariant::ALL {
            let Ok(series) = evaluate_variant(model, object, truth, space, variant) else {
                continue;
            };
            for (t, err) in series.errors {
                samples.push((variant.label(), ((t - start) as usize) % gap.max(1), err));
            }
        }
        samples
    };
    let partials = ust_core::prepare::parallel_map_ordered(objects, threads, evaluate);
    // accumulated[variant][offset] = (sum of errors, count)
    let mut accumulated: FxHashMap<&'static str, Vec<(f64, usize)>> = ModelVariant::ALL
        .iter()
        .map(|v| (v.label(), vec![(0.0, 0usize); gap.max(1)]))
        .collect();
    for samples in partials {
        for (label, offset, err) in samples {
            let acc = accumulated.get_mut(label).expect("all variants present");
            acc[offset].0 += err;
            acc[offset].1 += 1;
        }
    }
    (0..gap.max(1))
        .map(|offset| {
            let mut row = Row::new(format!("offset {offset}"));
            for &variant in &ModelVariant::ALL {
                let (sum, count) = accumulated[variant.label()][offset];
                let mean = if count > 0 { sum / count as f64 } else { 0.0 };
                row = row.with(variant.label(), mean);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunScale;
    use crate::datasets::{build_queries, build_synthetic, ScaleParams};

    fn tiny_dataset() -> (Dataset, ScaleParams) {
        let mut params = ScaleParams::for_scale(RunScale::Quick);
        params.num_queries = 2;
        params.interval_len = 4;
        let ds = build_synthetic(&params, 500, 8.0, 30, 5);
        (ds, params)
    }

    #[test]
    fn scatter_outcome_has_points_and_sane_biases() {
        let (ds, params) = tiny_dataset();
        let queries = build_queries(&ds, &params, 5);
        let outcome = measure_estimate_precision(&ds, &queries, 100, 400, 5);
        // There is at least one qualifying (query, object) pair.
        assert!(!outcome.exists.is_empty());
        for p in outcome.forall.iter().chain(&outcome.exists) {
            assert!((0.0..=1.0).contains(&p.reference));
            assert!((0.0..=1.0).contains(&p.sampled));
            assert!((0.0..=1.0).contains(&p.snapshot));
        }
        let bias = ScatterOutcome::mean_bias(&outcome.forall, false);
        assert!(bias.abs() <= 1.0);
    }

    #[test]
    fn model_error_is_identical_for_any_thread_count() {
        let (ds, _) = tiny_dataset();
        let serial = measure_model_error(&ds, 8, 1);
        let parallel = measure_model_error(&ds, 8, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            for &variant in &ModelVariant::ALL {
                assert_eq!(
                    a.value(variant.label()),
                    b.value(variant.label()),
                    "fan-out must not change the fold order of the error sums"
                );
            }
        }
    }

    #[test]
    fn model_error_rows_cover_the_observation_gap() {
        let (ds, _) = tiny_dataset();
        let rows = measure_model_error(&ds, 10, 0);
        assert_eq!(rows.len(), 10, "observation interval of the quick scale is 10 tics");
        for row in &rows {
            for &variant in &ModelVariant::ALL {
                assert!(row.value(variant.label()).is_some());
            }
        }
        // At offset 0 (an observation instant) the adapted models are exact.
        let fb_at_obs = rows[0].value("FB").unwrap();
        assert!(fb_at_obs < 1e-9);
        // The unadapted model has a larger mean error than FB in the middle of
        // the gap.
        let mid = rows.len() / 2;
        assert!(rows[mid].value("NO").unwrap() >= rows[mid].value("FB").unwrap() - 1e-12);
    }
}
