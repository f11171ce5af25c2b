//! Pins the answers of every query semantics bit for bit.
//!
//! The dataset is the quick-scale one the end-to-end benchmark and
//! `model_digest.rs` use (2 000 states, b = 8, 200 objects, seed 1), with a
//! dozen `build_queries` specs. One engine (256 worlds, seed 7) asks each
//! spec as P∃NN, P∀NN, PCNN, P∃2NN, P∀2NN and PC2NN at τ = 0.05, and the
//! digest folds, in that order: the object ids and probability bits of every
//! answer, every PCNN timestamp set with its probability and the per-object
//! and per-outcome `candidate_sets_evaluated`, and the `candidates`,
//! `influencers`, `worlds` and `budget_checkpoints` counts of every
//! `QueryStats`.
//!
//! The constant was last re-pinned when two answer changes landed together:
//! PCkNN mines every influence object instead of only the ∀-candidates
//! (SETS rose from 22 111 to 24 277 on the old world stream), and the engine
//! samples only the query window, one RNG stream per 64-world block (SETS
//! 24 679; OBJECTS stayed 124 throughout). A change that alters answers on
//! purpose (a different world stream, a different candidate set) re-pins it
//! and says so; it is never re-pinned silently.

use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::{fnv_fold, FNV_OFFSET};
use ust_bench::RunScale;
use ust_core::{EngineConfig, Query, QueryEngine, QueryStats};

/// The digest, and two totals that make a mismatch readable: objects
/// reported by the probability answers and timestamp sets reported by the
/// PCNN answers.
const DIGEST: u64 = 0x149a_afb5_e555_f70c;
const OBJECTS: usize = 124;
const SETS: usize = 24_679;

const TAU: f64 = 0.05;

fn fold_stats(d: u64, stats: &QueryStats) -> u64 {
    [stats.candidates, stats.influencers, stats.worlds, stats.budget_checkpoints]
        .into_iter()
        .fold(d, |d, v| fnv_fold(d, v as u64))
}

#[test]
fn quick_scale_answers_are_bit_identical_to_the_pinned_digest() {
    let mut params = ScaleParams::for_scale(RunScale::Quick);
    params.num_queries = 12;
    let dataset = build_synthetic(&params, 2_000, 8.0, 200, 1);
    let workload = build_queries(&dataset, &params, 1);
    assert_eq!(workload.queries.len(), 12);
    let engine = QueryEngine::new(
        &dataset.database,
        EngineConfig { num_samples: 256, seed: 7, ..Default::default() },
    );
    let mut d = FNV_OFFSET;
    let (mut objects, mut sets) = (0, 0);
    for spec in &workload.queries {
        let query = Query::at_point(spec.location, spec.times.iter().copied())
            .expect("workload queries are well-formed");
        for k in [1, 2] {
            let exists = engine.pexists_knn(&query, k, TAU).expect("P∃kNN answers");
            let forall = engine.pforall_knn(&query, k, TAU).expect("P∀kNN answers");
            for outcome in [&exists, &forall] {
                for r in &outcome.results {
                    d = fnv_fold(d, u64::from(r.object));
                    d = fnv_fold(d, r.probability.to_bits());
                }
                objects += outcome.results.len();
                d = fold_stats(d, &outcome.stats);
            }
            let pcnn = engine.pcknn(&query, k, TAU).expect("PCkNN answers");
            for r in &pcnn.results {
                d = fnv_fold(d, u64::from(r.object));
                d = fnv_fold(d, r.candidate_sets_evaluated as u64);
                for (times, p) in &r.sets {
                    d = fnv_fold(d, times.len() as u64);
                    d = times.iter().fold(d, |d, &t| fnv_fold(d, u64::from(t)));
                    d = fnv_fold(d, p.to_bits());
                }
                sets += r.sets.len();
            }
            d = fnv_fold(d, pcnn.candidate_sets_evaluated as u64);
            d = fold_stats(d, &pcnn.stats);
        }
    }
    assert_eq!((objects, sets), (OBJECTS, SETS));
    assert_eq!(d, DIGEST, "got {d:#018x}");
}
