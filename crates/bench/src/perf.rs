//! Sampling-kernel performance trajectory (`BENCH_sampling.json`).
//!
//! The repository commits one performance snapshot per tracked subsystem as a
//! `BENCH_*.json` file at the repo root; CI re-measures the same quick-scale
//! configuration on every push and diffs it against the committed baseline
//! with generous tolerances, so a silent order-of-magnitude regression in a
//! hot loop fails the build instead of landing unnoticed. This module holds
//! the first such trajectory: the Monte-Carlo sampling kernel.
//!
//! Two measurement families feed the snapshot:
//!
//! * **draws/sec** — raw categorical-draw throughput on synthetic rows of
//!   support 4 / 32 / 256, alias-table ([`AliasKernel`]) vs. the reference
//!   inverse-CDF scan ([`SparseDist::sample_with`]), both fed the identical
//!   pre-drawn `u` buffer. The `alias_speedup` column is the headline number:
//!   O(1) vs. O(support) shows up as a speedup that grows with the support.
//! * **worlds/sec** — end-to-end possible-world sampling over adapted models
//!   of a synthetic workload: the block (SoA, [`WorldBlock`]) path the engine
//!   uses vs. per-world [`WorldSampler::sample_world_into`] draws, both
//!   walking every object from its first observation to its last.
//!
//! Per-phase wall times (adaptation incl. alias construction, the draw
//! micro-bench, both world loops) land in the report `meta`.
//!
//! [`diff_reports`] implements the CI gate: throughputs may wobble by the
//! configured factors across runner generations, but a drop beyond them — or
//! an alias speedup at the largest support falling under its absolute floor —
//! is a regression finding.

use crate::json::Json;
use crate::report::{ExperimentReport, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use ust_generator::{ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_markov::{AdaptedModel, AliasKernel, SparseDist};
use ust_sampling::{PossibleWorld, WorldBlock, WorldSampler, WORLD_BLOCK_WIDTH};

/// Configuration of the sampling-kernel performance snapshot.
#[derive(Debug, Clone)]
pub struct SamplingPerfConfig {
    /// Row supports the draw micro-bench sweeps over.
    pub supports: Vec<usize>,
    /// Categorical draws per support (per sampler).
    pub draws: usize,
    /// Number of states of the synthetic network behind the world bench.
    pub num_states: usize,
    /// Objects per possible world.
    pub num_objects: usize,
    /// Possible worlds sampled per world-bench path.
    pub worlds: usize,
    /// RNG seed for workload generation and the `u` buffers.
    pub seed: u64,
}

impl SamplingPerfConfig {
    /// The CI / smoke configuration: runs in well under a second but still
    /// separates O(1) alias draws from O(support) scans cleanly.
    pub fn quick(seed: u64) -> Self {
        SamplingPerfConfig {
            supports: vec![4, 32, 256],
            draws: 400_000,
            num_states: 800,
            num_objects: 12,
            worlds: 1024,
            seed,
        }
    }

    /// The default laptop-scale configuration.
    pub fn default_scale(seed: u64) -> Self {
        SamplingPerfConfig {
            draws: 4_000_000,
            num_states: 2_000,
            num_objects: 24,
            worlds: 8_192,
            ..Self::quick(seed)
        }
    }
}

/// A synthetic normalized row of the given support with uneven probabilities.
fn synthetic_row(support: usize, seed: u64) -> SparseDist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dist =
        SparseDist::from_pairs((0..support as u32).map(|s| (s, rng.gen::<f64>() + 0.01)));
    assert!(dist.normalize(), "synthetic weights always carry mass");
    dist
}

/// Times `draws` samples of `f` over the pre-drawn `u` buffer and returns
/// draws per second. The state sum is black-boxed so the loop cannot be
/// optimised away.
fn time_draws(us: &[f64], mut f: impl FnMut(f64) -> u32) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for &u in us {
        acc = acc.wrapping_add(f(u) as u64);
    }
    black_box(acc);
    us.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the full measurement and assembles the `sampling_perf` report.
pub fn measure_sampling_perf(cfg: &SamplingPerfConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "sampling_perf",
        "Monte-Carlo sampling kernel trajectory: alias vs inverse-CDF draws/sec per row \
         support, and block (SoA) vs per-world worlds/sec over adapted models",
    );
    report.set_meta("seed", cfg.seed as f64);
    report.set_meta("draws_per_support", cfg.draws as f64);
    report.set_meta("worlds", cfg.worlds as f64);
    report.set_meta("num_objects", cfg.num_objects as f64);

    // ------------------------------------------------------------------
    // Draw micro-bench: alias vs inverse-CDF on one shared u buffer.
    // ------------------------------------------------------------------
    let draw_bench_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD2A3);
    let us: Vec<f64> = (0..cfg.draws).map(|_| rng.gen::<f64>()).collect();
    for &support in &cfg.supports {
        let row = synthetic_row(support, cfg.seed.wrapping_add(support as u64));
        let kernel = AliasKernel::from_steps([[(0u32, row.entries())]]);
        let alias = time_draws(&us, |u| kernel.sample(0, 0, u).expect("non-empty row"));
        let cdf = time_draws(&us, |u| row.sample_with(u).expect("non-empty row"));
        report.push(
            Row::new(format!("support={support}"))
                .with("alias_draws_per_sec", alias)
                .with("cdf_draws_per_sec", cdf)
                .with("alias_speedup", alias / cdf),
        );
    }
    report.set_meta("draw_bench_ms", draw_bench_start.elapsed().as_secs_f64() * 1e3);

    // ------------------------------------------------------------------
    // World bench: block (SoA) vs per-world sampling over adapted models.
    // ------------------------------------------------------------------
    let network = SyntheticNetworkConfig {
        num_states: cfg.num_states,
        branching_factor: 8.0,
        seed: cfg.seed,
    }
    .generate();
    let model = network.distance_weighted_model(1.0);
    let objects = ust_generator::objects::generate_objects(
        &network,
        &ObjectWorkloadConfig {
            num_objects: cfg.num_objects,
            lifetime: 48,
            horizon: 64,
            observation_interval: 12,
            lag: 0.5,
            standing_fraction: 0.0,
            seed: cfg.seed.wrapping_add(1),
        },
        0,
    );
    let adapt_start = Instant::now();
    let models: Vec<_> = objects
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let obs = g.object.observation_pairs();
            let adapted = AdaptedModel::build(&model, &obs).expect("generated observations adapt");
            (i as u32, std::sync::Arc::new(adapted))
        })
        .collect();
    report.set_meta("adapt_ms", adapt_start.elapsed().as_secs_f64() * 1e3);
    let horizon = models.iter().map(|(_, m)| m.end()).max().unwrap_or(0);
    let sampler = WorldSampler::from_models(models);

    let block_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut block = WorldBlock::for_sampler(&sampler, horizon, WORLD_BLOCK_WIDTH);
    let mut remaining = cfg.worlds;
    let mut checksum = 0u64;
    while remaining > 0 {
        let count = WORLD_BLOCK_WIDTH.min(remaining);
        block.fill(&mut rng, count);
        checksum = checksum.wrapping_add(block.state(0, horizon.min(1), 0).unwrap_or(0) as u64);
        remaining -= count;
    }
    black_box(checksum);
    let block_elapsed = block_start.elapsed();
    report.set_meta("block_sample_ms", block_elapsed.as_secs_f64() * 1e3);

    let per_world_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut world = PossibleWorld::empty();
    for _ in 0..cfg.worlds {
        sampler.sample_world_into(&mut rng, &mut world);
        black_box(world.len());
    }
    let per_world_elapsed = per_world_start.elapsed();
    report.set_meta("perworld_sample_ms", per_world_elapsed.as_secs_f64() * 1e3);

    let block_wps = cfg.worlds as f64 / block_elapsed.as_secs_f64().max(1e-9);
    let per_world_wps = cfg.worlds as f64 / per_world_elapsed.as_secs_f64().max(1e-9);
    report.push(
        Row::new("worlds")
            .with("block_worlds_per_sec", block_wps)
            .with("perworld_worlds_per_sec", per_world_wps),
    );
    report
}

/// Tolerances of the perf-trajectory diff.
///
/// Throughputs vary a lot across CI runner generations and load, so the
/// factors are deliberately generous — the gate exists to catch
/// order-of-magnitude regressions, not 10% wobble. The absolute
/// `min_top_alias_speedup` floor is machine-independent: both samplers run on
/// the same machine in the same process, so their *ratio* is stable, and the
/// alias kernel beating the linear scan at the largest support is the very
/// property the kernel exists for.
#[derive(Debug, Clone, Copy)]
pub struct DiffTolerance {
    /// A `*_per_sec` metric may drop to `baseline / throughput_factor`.
    pub throughput_factor: f64,
    /// A `*_speedup` metric may drop to `baseline / speedup_factor`.
    pub speedup_factor: f64,
    /// Absolute floor for `alias_speedup` on the largest-support row.
    pub min_top_alias_speedup: f64,
}

impl Default for DiffTolerance {
    fn default() -> Self {
        DiffTolerance { throughput_factor: 5.0, speedup_factor: 2.0, min_top_alias_speedup: 1.2 }
    }
}

/// The floor a metric may sink to before the diff flags it, `None` if the
/// metric kind is informational only.
fn metric_floor(name: &str, baseline: f64, tol: &DiffTolerance) -> Option<f64> {
    if name.ends_with("_per_sec") {
        Some(baseline / tol.throughput_factor)
    } else if name.ends_with("_speedup") {
        Some(baseline / tol.speedup_factor)
    } else {
        None
    }
}

/// Diffs a current `sampling_perf` report against the committed baseline.
/// Returns one human-readable finding per regression; an empty vector means
/// the trajectory holds.
pub fn diff_reports(baseline: &Json, current: &Json, tol: &DiffTolerance) -> Vec<String> {
    let mut findings = Vec::new();
    let Some(base_rows) = baseline.get("rows").as_array() else {
        return vec!["baseline has no rows array".to_string()];
    };
    let Some(cur_rows) = current.get("rows").as_array() else {
        return vec!["current report has no rows array".to_string()];
    };
    let find_row = |rows: &'_ [Json], label: &str| -> Option<usize> {
        rows.iter().position(|r| r.get("label").as_str() == Some(label))
    };
    let mut top_support: Option<(usize, String)> = None;
    for base_row in base_rows {
        let Some(label) = base_row.get("label").as_str() else {
            findings.push("baseline row without a label".to_string());
            continue;
        };
        if let Some(support) = label.strip_prefix("support=").and_then(|s| s.parse().ok()) {
            if top_support.as_ref().is_none_or(|(s, _)| *s < support) {
                top_support = Some((support, label.to_string()));
            }
        }
        let Some(cur_idx) = find_row(cur_rows, label) else {
            findings.push(format!("row '{label}' missing from the current report"));
            continue;
        };
        let cur_values = cur_rows[cur_idx].get("values");
        let Json::Object(base_values) = base_row.get("values") else {
            findings.push(format!("baseline row '{label}' has no values object"));
            continue;
        };
        for (name, value) in base_values {
            let Some(base) = value.as_f64() else { continue };
            let Some(floor) = metric_floor(name, base, tol) else { continue };
            match cur_values.get(name).as_f64() {
                Some(cur) if cur < floor => findings.push(format!(
                    "{label}/{name} regressed: {cur:.2} vs baseline {base:.2} \
                     (floor {floor:.2})"
                )),
                Some(_) => {}
                None => findings.push(format!("{label}/{name} missing from the current report")),
            }
        }
    }
    // The headline property gets an absolute, machine-independent gate.
    if let Some((_, label)) = top_support {
        if let Some(idx) = find_row(cur_rows, &label) {
            match cur_rows[idx].get("values").get("alias_speedup").as_f64() {
                Some(speedup) if speedup < tol.min_top_alias_speedup => findings.push(format!(
                    "{label}/alias_speedup {speedup:.2} is under the absolute floor {:.2}: \
                     the alias kernel no longer beats the linear CDF scan",
                    tol.min_top_alias_speedup
                )),
                Some(_) => {}
                None => findings
                    .push(format!("{label}/alias_speedup missing from the current report")),
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_the_expected_shape() {
        let cfg = SamplingPerfConfig {
            supports: vec![4, 64],
            draws: 20_000,
            num_states: 200,
            num_objects: 3,
            worlds: 128,
            seed: 5,
        };
        let report = measure_sampling_perf(&cfg);
        assert_eq!(report.rows.len(), 3);
        for support_row in &report.rows[..2] {
            assert!(support_row.value("alias_draws_per_sec").unwrap() > 0.0);
            assert!(support_row.value("cdf_draws_per_sec").unwrap() > 0.0);
            assert!(support_row.value("alias_speedup").unwrap() > 0.0);
        }
        let worlds = &report.rows[2];
        assert!(worlds.value("block_worlds_per_sec").unwrap() > 0.0);
        assert!(worlds.value("perworld_worlds_per_sec").unwrap() > 0.0);
        for key in ["adapt_ms", "draw_bench_ms", "block_sample_ms", "perworld_sample_ms"] {
            assert!(
                report.meta.iter().any(|(n, v)| n == key && *v >= 0.0),
                "meta key {key} present"
            );
        }
    }

    fn report_json(alias: f64, cdf: f64, block: f64) -> Json {
        let mut r = ExperimentReport::new("sampling_perf", "test");
        r.push(
            Row::new("support=256")
                .with("alias_draws_per_sec", alias)
                .with("cdf_draws_per_sec", cdf)
                .with("alias_speedup", alias / cdf),
        );
        r.push(Row::new("worlds").with("block_worlds_per_sec", block));
        Json::parse(&r.to_json()).expect("report JSON parses")
    }

    #[test]
    fn identical_reports_pass_the_diff() {
        let base = report_json(8e7, 2e7, 1e5);
        assert!(diff_reports(&base, &base, &DiffTolerance::default()).is_empty());
    }

    #[test]
    fn wobble_within_tolerance_passes() {
        let base = report_json(8e7, 2e7, 1e5);
        let current = report_json(4e7, 1e7, 0.5e5);
        assert!(diff_reports(&base, &current, &DiffTolerance::default()).is_empty());
    }

    #[test]
    fn throughput_collapse_is_flagged() {
        let base = report_json(8e7, 2e7, 1e5);
        let current = report_json(8e6, 2e7, 1e5);
        let findings = diff_reports(&base, &current, &DiffTolerance::default());
        assert!(
            findings.iter().any(|f| f.contains("support=256/alias_draws_per_sec")),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn losing_the_top_support_speedup_is_flagged_absolutely() {
        let base = report_json(8e7, 2e7, 1e5);
        // Current run: alias barely faster than CDF everywhere (speedup 1.05
        // < the 1.2 floor), even though the relative factor-2 tolerance on
        // the ratio would let it slide.
        let current = report_json(2.1e7, 2e7, 1e5);
        let findings = diff_reports(&base, &current, &DiffTolerance::default());
        assert!(
            findings.iter().any(|f| f.contains("absolute floor")),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn missing_rows_and_metrics_are_flagged() {
        let base = report_json(8e7, 2e7, 1e5);
        let mut current = ExperimentReport::new("sampling_perf", "test");
        current.push(Row::new("support=256").with("alias_draws_per_sec", 8e7));
        let current = Json::parse(&current.to_json()).unwrap();
        let findings = diff_reports(&base, &current, &DiffTolerance::default());
        assert!(findings.iter().any(|f| f.contains("row 'worlds' missing")));
        assert!(findings.iter().any(|f| f.contains("cdf_draws_per_sec missing")));
    }
}
