//! Determinism tests for the real-data (fig09 `--csv`) pipeline.
//!
//! The ingested workload must be a pure function of the file bytes and the
//! seed: re-running the full parse → map-match → learn → query pipeline must
//! produce byte-identical result sets, and so must changing the TS-phase
//! (`adaptation_threads`) or PCNN-lattice (`pcnn_threads`) worker counts —
//! the same style of equivalence checks as `crates/core/tests/
//! pcnn_equivalence.rs`, but over the checked-in T-Drive fixture and the
//! fig09 measurement path instead of synthetic world sets.

use ust_bench::args::RunScale;
use ust_bench::datasets::{build_queries, ScaleParams};
use ust_bench::efficiency::measure_efficiency;
use ust_bench::ingest::{ingest_taxi_csv, IngestedTaxi};
use ust_core::{EngineConfig, PcnnOutcome, Query, QueryEngine, QueryOutcome};

/// The checked-in golden fixture that also drives the CI smoke run.
const FIXTURE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/tdrive_small.csv"
));

fn quick_params() -> ScaleParams {
    let mut params = ScaleParams::for_scale(RunScale::Quick);
    params.num_queries = 3;
    params
}

fn ingest() -> IngestedTaxi {
    ingest_taxi_csv(&quick_params(), FIXTURE, 0)
}

fn assert_same_nn_outcome(a: &QueryOutcome, b: &QueryOutcome) {
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.object, rb.object);
        assert_eq!(
            ra.probability.to_bits(),
            rb.probability.to_bits(),
            "probability of object {} diverged",
            ra.object
        );
    }
    assert_eq!(a.stats.candidates, b.stats.candidates);
    assert_eq!(a.stats.influencers, b.stats.influencers);
}

fn assert_same_pcnn_outcome(a: &PcnnOutcome, b: &PcnnOutcome) {
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.object, rb.object);
        assert_eq!(ra.sets.len(), rb.sets.len());
        for ((ta, pa), (tb, pb)) in ra.sets.iter().zip(&rb.sets) {
            assert_eq!(ta, tb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        assert_eq!(ra.candidate_sets_evaluated, rb.candidate_sets_evaluated);
    }
    assert_eq!(a.candidate_sets_evaluated, b.candidate_sets_evaluated);
    assert_eq!(a.max_level(), b.max_level());
    assert_eq!(a.frontier_peak(), b.frontier_peak());
}

#[test]
fn ingested_fixture_has_the_expected_shape() {
    let ingested = ingest();
    assert_eq!(ingested.lines, 67);
    assert_eq!(ingested.load_errors.len(), 7, "the fixture carries 7 malformed rows");
    assert_eq!(
        ingested.match_stats.objects_in, 5,
        "5 taxis (malformed rows never become objects)"
    );
    assert_eq!(ingested.match_stats.objects_matched, 5);
    assert!(ingested.dataset.database.shared_model().is_valid());
    // Every ingested object admits the forward–backward adaptation under the
    // model learned from its own matched traces.
    let engine = QueryEngine::new(&ingested.dataset.database, EngineConfig::with_samples(1));
    for o in ingested.dataset.database.objects() {
        assert!(engine.adapted_model(o.id()).is_ok(), "object {} fails to adapt", o.id());
    }
}

#[test]
fn fig09_measurement_is_identical_across_runs_and_thread_counts() {
    let params = quick_params();
    let run = |threads: usize| {
        let ingested = ingest();
        let queries = build_queries(&ingested.dataset, &params, 0);
        let config = EngineConfig {
            num_samples: params.num_samples,
            seed: 0,
            adaptation_threads: threads,
            ..Default::default()
        };
        let engine = QueryEngine::new(&ingested.dataset.database, config);
        measure_efficiency(&engine, &queries).expect("unlimited budget")
    };
    let a = run(1);
    let b = run(1); // identical re-run, fresh ingest
    let c = run(2); // different TS-phase worker count
    assert_ne!(a.digest, 0);
    assert_eq!(a.digest, b.digest, "re-running the pipeline must not change the result set");
    assert_eq!(a.digest, c.digest, "the TS worker count must not change the result set");
    assert_eq!(a.candidates.to_bits(), c.candidates.to_bits());
    assert_eq!(a.influencers.to_bits(), c.influencers.to_bits());
    assert_eq!(a.cold_adaptations.to_bits(), c.cold_adaptations.to_bits());
}

#[test]
fn queries_on_ingested_data_are_thread_count_invariant() {
    let ingested = ingest();
    let params = quick_params();
    let queries = build_queries(&ingested.dataset, &params, 1);
    let spec = &queries.queries[0];
    let query = Query::at_point(spec.location, spec.times.iter().copied()).expect("valid query");
    let outcomes: Vec<(QueryOutcome, QueryOutcome, PcnnOutcome)> = [1usize, 2]
        .iter()
        .map(|&threads| {
            let engine = QueryEngine::new(
                &ingested.dataset.database,
                EngineConfig {
                    num_samples: 200,
                    seed: 5,
                    adaptation_threads: threads,
                    pcnn_threads: threads,
                    ..Default::default()
                },
            );
            (
                engine.pforall_nn(&query, 0.0).expect("P∀NN succeeds"),
                engine.pexists_nn(&query, 0.0).expect("P∃NN succeeds"),
                engine.pcnn(&query, 0.1).expect("PCNN succeeds"),
            )
        })
        .collect();
    assert_same_nn_outcome(&outcomes[0].0, &outcomes[1].0);
    assert_same_nn_outcome(&outcomes[0].1, &outcomes[1].1);
    assert_same_pcnn_outcome(&outcomes[0].2, &outcomes[1].2);
}
