//! The `--store` round trip of the efficiency figures (fig06/fig08).
//!
//! At every sweep point the figure saves its freshly built engine state to a
//! derived path, cold-starts a *second* engine from the written file via
//! [`EngineStore`], re-runs the whole query workload on it and insists the
//! result digest is bit-identical to the fresh engine's. Store size and load
//! wall time land in the report meta next to the index-build time, so one
//! report answers "what does the store cost and what does it save" — the
//! load should be a few percent of the build it replaces.

use crate::efficiency::{measure_efficiency, EfficiencyOutcome};
use crate::errors::exit_failure;
use crate::report::ExperimentReport;
use ust_core::{EngineConfig, EngineStore, QueryEngine};
use ust_generator::QueryWorkload;

/// Derives the per-sweep-point store file from the `--store` base path:
/// `fig08.ustore` + `d1000` → `fig08-d1000.ustore` (a missing `.ustore`
/// suffix is appended).
pub fn store_point_path(base: &str, point: &str) -> String {
    let stem = base.strip_suffix(".ustore").unwrap_or(base);
    format!("{stem}-{point}.ustore")
}

/// Saves `engine`'s state to [`store_point_path`]`(base, point)`, cold-starts
/// an engine from the written store with `config`, re-measures the workload
/// on it and verifies the result digest matches the `fresh` measurement
/// bit-for-bit. The figures pass a `config` without their `--deadline-ms`
/// budget, so the replay always runs to completion.
/// Writes `store_bytes_<point>`, `store_sections_<point>` and
/// `store_load_seconds_<point>` into the report meta. Any failure — write,
/// load, or a digest mismatch — is fatal via [`exit_failure`].
#[allow(clippy::too_many_arguments)]
pub fn store_roundtrip_check(
    binary: &str,
    report: &mut ExperimentReport,
    base: &str,
    point: &str,
    engine: &QueryEngine<'_>,
    config: EngineConfig,
    workload: &QueryWorkload,
    fresh: &EfficiencyOutcome,
) {
    let path = store_point_path(base, point);
    let written = match engine.save_store(&path) {
        Ok(stats) => stats,
        Err(e) => exit_failure(binary, &format!("cannot write store {path}"), &e),
    };
    let store = match EngineStore::load(&path) {
        Ok(store) => store,
        Err(e) => exit_failure(binary, &format!("cannot load store {path}"), &e),
    };
    let cold = store.engine(config);
    let replay = match measure_efficiency(&cold, workload) {
        Ok(replay) => replay,
        Err(e) => exit_failure(binary, &format!("replay of store {path}"), &e),
    };
    if replay.digest != fresh.digest {
        exit_failure(
            binary,
            &format!("store round trip at {path}"),
            &"cold-start result digest differs from the fresh engine",
        );
    }
    let load_seconds = store.stats().load_time.as_secs_f64();
    eprintln!(
        "[{binary}] store {path}: {} bytes, {} sections, loaded in {:.1} ms, digest verified",
        written.bytes,
        written.sections,
        load_seconds * 1e3,
    );
    report.set_meta(format!("store_bytes_{point}"), written.bytes as f64);
    report.set_meta(format!("store_sections_{point}"), written.sections as f64);
    report.set_meta(format!("store_load_seconds_{point}"), load_seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_path_inserts_before_the_suffix() {
        assert_eq!(store_point_path("fig08.ustore", "d1000"), "fig08-d1000.ustore");
        assert_eq!(store_point_path("/tmp/fig06", "n2000"), "/tmp/fig06-n2000.ustore");
    }
}
