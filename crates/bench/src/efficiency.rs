//! Efficiency measurements for the P∀NNQ / P∃NNQ experiments
//! (Figures 6, 7, 8 and 9 of the paper).
//!
//! Per query the harness measures, exactly as the paper's plots do:
//!
//! * **TS** — the time to compute the adapted (a-posteriori) transition
//!   matrices of all objects relevant to the query,
//! * **FA** — the time to sample possible worlds and evaluate the P∀NNQ,
//! * **EX** — the time to evaluate the P∃NNQ on the same sampled worlds
//!   (re-sampled with a warm model cache),
//! * **|C(q)|** and **|I(q)|** — the candidate and influence set sizes after
//!   UST-tree pruning.
//!
//! The harness measures the engine it is handed, under that engine's
//! configuration. The query budget lives only in
//! [`EngineConfig::budget`](ust_core::EngineConfig::budget): a figure that
//! honours `--deadline-ms` puts the deadline there when it builds the
//! measured engine, and a caller that needs another budget on the same
//! engine changes it between runs with
//! [`QueryEngine::set_budget`](ust_core::QueryEngine::set_budget).

use ust_core::{Query, QueryEngine, QueryError};
use ust_generator::QueryWorkload;

/// Averaged efficiency measurements over a query workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct EfficiencyOutcome {
    /// Mean model-adaptation time per query, seconds (cold adaptations only —
    /// warm cache lookups are excluded by the engine).
    pub ts_seconds: f64,
    /// Mean P∀NNQ sampling/refinement time per query, seconds.
    pub fa_seconds: f64,
    /// Mean P∃NNQ sampling/refinement time per query, seconds.
    pub ex_seconds: f64,
    /// Mean candidate-set size `|C(q)|`.
    pub candidates: f64,
    /// Mean influence-set size `|I(q)|`.
    pub influencers: f64,
    /// Mean number of influence objects answered from the model cache per
    /// P∀NNQ evaluation.
    pub cache_hits: f64,
    /// Mean number of cold forward–backward adaptations per P∀NNQ evaluation.
    pub cold_adaptations: f64,
    /// Number of queries measured.
    pub queries: usize,
    /// FNV-1a digest of the *result sets*: every query's P∀NN and P∃NN
    /// outcome (object ids, probability bit patterns, candidate/influence
    /// counts), in evaluation order. Timings are excluded, so two runs over
    /// the same data at any thread count must produce the same digest — the
    /// determinism witness of the real-data (`--csv`) harness.
    pub digest: u64,
    /// Mean number of budget checkpoints polled per query pair (P∀NN + P∃NN)
    /// — the governance-overhead observability of `QueryStats`.
    pub budget_checkpoints: f64,
    /// Mean number of worlds actually sampled per P∀NNQ. Equals the
    /// configured sample count unless a deadline or `max_worlds` cap degraded
    /// the run.
    pub worlds_sampled: f64,
    /// Mean number of worlds each P∀NNQ asked for.
    pub worlds_requested: f64,
    /// Number of query evaluations (P∀NN and P∃NN counted separately) that
    /// completed degraded — fewer worlds than requested — instead of failing.
    pub degraded_queries: usize,
}

/// Folds one 64-bit word into an FNV-1a digest. The one digest primitive of
/// the harness — the result-set digests here and the index digest of the
/// `index_build` bench both build on it.
pub fn fnv_fold(digest: u64, word: u64) -> u64 {
    let mut d = digest;
    for byte in word.to_le_bytes() {
        d ^= u64::from(byte);
        d = d.wrapping_mul(0x0000_0100_0000_01B3);
    }
    d
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the P∀NNQ / P∃NNQ efficiency measurement over a query workload on
/// `engine`, whose model cache is cleared before every P∀NNQ.
///
/// `tau = 0` is used, as in the paper's efficiency experiments, so that no
/// result is cut off by the threshold. Every query runs under the engine's
/// budget: a breach the engine cannot absorb by degrading (deadline during
/// the filter or TS phase, exhausted caps) surfaces as the typed
/// [`QueryError`]; sampling-phase deadline breaches degrade instead and are
/// tallied in [`EfficiencyOutcome::degraded_queries`].
pub fn measure_efficiency(
    engine: &QueryEngine,
    workload: &QueryWorkload,
) -> Result<EfficiencyOutcome, QueryError> {
    let mut out = EfficiencyOutcome { digest: FNV_OFFSET, ..Default::default() };
    for spec in &workload.queries {
        let query = Query::at_point(spec.location, spec.times.iter().copied())
            .expect("workload queries are well-formed");
        // Cold model cache: the adaptation time of this query is the TS phase.
        engine.clear_model_cache();
        let forall = engine.pforall_nn(&query, 0.0)?;
        // Warm cache: the P∃NNQ measures only the sampling/refinement cost.
        let exists = engine.pexists_nn(&query, 0.0)?;
        for outcome in [&forall, &exists] {
            out.digest = fnv_fold(out.digest, outcome.stats.candidates as u64);
            out.digest = fnv_fold(out.digest, outcome.stats.influencers as u64);
            for r in &outcome.results {
                out.digest = fnv_fold(out.digest, u64::from(r.object));
                out.digest = fnv_fold(out.digest, r.probability.to_bits());
            }
        }
        out.ts_seconds += forall.stats.adaptation_time.as_secs_f64();
        out.fa_seconds += forall.stats.sampling_time.as_secs_f64();
        out.ex_seconds += exists.stats.sampling_time.as_secs_f64();
        out.candidates += forall.stats.candidates as f64;
        out.influencers += forall.stats.influencers as f64;
        out.cache_hits += forall.stats.cache_hits as f64;
        out.cold_adaptations += forall.stats.cold_adaptations as f64;
        out.budget_checkpoints +=
            (forall.stats.budget_checkpoints + exists.stats.budget_checkpoints) as f64;
        out.worlds_sampled += forall.stats.worlds as f64;
        out.worlds_requested += forall.stats.worlds_requested as f64;
        out.degraded_queries +=
            usize::from(forall.stats.degraded) + usize::from(exists.stats.degraded);
        out.queries += 1;
    }
    if out.queries > 0 {
        let n = out.queries as f64;
        out.ts_seconds /= n;
        out.fa_seconds /= n;
        out.ex_seconds /= n;
        out.candidates /= n;
        out.influencers /= n;
        out.cache_hits /= n;
        out.cold_adaptations /= n;
        out.budget_checkpoints /= n;
        out.worlds_sampled /= n;
        out.worlds_requested /= n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunScale;
    use crate::datasets::{build_queries, build_synthetic, ScaleParams};
    use ust_core::{EngineConfig, QueryBudget};

    fn config(adaptation_threads: usize) -> EngineConfig {
        EngineConfig { num_samples: 50, seed: 3, adaptation_threads, ..Default::default() }
    }

    #[test]
    fn efficiency_measurement_produces_sane_numbers() {
        let mut params = ScaleParams::for_scale(RunScale::Quick);
        params.num_queries = 2;
        let ds = build_synthetic(&params, 600, 8.0, 40, 3);
        let queries = build_queries(&ds, &params, 3);
        let engine = QueryEngine::new(&ds.database, config(1));
        let outcome = measure_efficiency(&engine, &queries).expect("unlimited budget");
        assert_eq!(outcome.queries, 2);
        assert!(outcome.ts_seconds >= 0.0);
        assert!(outcome.fa_seconds > 0.0);
        assert!(outcome.ex_seconds > 0.0);
        assert!(outcome.influencers >= outcome.candidates);
        // The cache is cleared before every P∀NNQ, so its influence set is
        // adapted cold and the P∃NNQ right after runs fully warm.
        assert_eq!(outcome.cold_adaptations, outcome.influencers);
        assert_eq!(outcome.cache_hits, 0.0);
    }

    #[test]
    fn efficiency_is_thread_count_independent() {
        let mut params = ScaleParams::for_scale(RunScale::Quick);
        params.num_queries = 1;
        let ds = build_synthetic(&params, 600, 8.0, 40, 3);
        let queries = build_queries(&ds, &params, 3);
        let measure = |threads| {
            let engine = QueryEngine::new(&ds.database, config(threads));
            measure_efficiency(&engine, &queries).expect("unlimited budget")
        };
        let serial = measure(1);
        let parallel = measure(4);
        assert_eq!(serial.candidates, parallel.candidates);
        assert_eq!(serial.influencers, parallel.influencers);
        assert_eq!(serial.cold_adaptations, parallel.cold_adaptations);
        assert_eq!(serial.digest, parallel.digest, "result digest is thread-count independent");
        assert_ne!(serial.digest, 0, "digest folds real data");
    }

    #[test]
    fn measurement_runs_under_the_engine_budget() {
        let mut params = ScaleParams::for_scale(RunScale::Quick);
        params.num_queries = 1;
        let ds = build_synthetic(&params, 600, 8.0, 40, 3);
        let queries = build_queries(&ds, &params, 3);
        let deadline = QueryBudget::unlimited().with_deadline_ms(0);
        let mut engine =
            QueryEngine::new(&ds.database, EngineConfig { budget: deadline, ..config(1) });
        let err = measure_efficiency(&engine, &queries).expect_err("a zero deadline trips");
        assert!(matches!(err, QueryError::DeadlineExceeded { .. }), "got {err:?}");
        engine.set_budget(QueryBudget::unlimited());
        let lifted = measure_efficiency(&engine, &queries).expect("the same engine recovers");
        assert_eq!(lifted.degraded_queries, 0);
    }
}
