//! Pins the answers of every query semantics bit for bit.
//!
//! The dataset is the quick-scale one the end-to-end benchmark and
//! `model_digest.rs` use (2 000 states, b = 8, 200 objects, seed 1), with a
//! dozen `build_queries` specs. One engine (256 worlds, seed 7) asks each
//! spec as P∃NN, P∀NN, PCNN, P∃2NN, P∀2NN and PC2NN at τ = 0.05. Two
//! digests fold, in that order: the object ids and probability bits of every
//! answer, every PCNN timestamp set with its probability and the per-object
//! and per-outcome `candidate_sets_evaluated`, and the `candidates`,
//! `influencers` and `worlds` counts of every `QueryStats`. [`DIGEST`] also
//! folds each `QueryStats::budget_checkpoints` after them; [`ANSWERS`] does
//! not, so it pins the answers apart from how the engine polls its budget.
//!
//! The answer constants were last re-pinned when two answer changes landed
//! together: PCkNN mines every influence object instead of only the
//! ∀-candidates (SETS rose from 22 111 to 24 277 on the old world stream),
//! and the engine samples only the query window, one RNG stream per 64-world
//! block (SETS 24 679; OBJECTS stayed 124 throughout). A change that alters
//! answers on purpose (a different world stream, a different candidate set)
//! re-pins them and says so; they are never re-pinned silently.
//!
//! [`DIGEST`] alone was re-pinned when queries began to adapt only the
//! observations that bracket their window: the adaptation phase polls the
//! budget once per cold bracket, and a later spec whose window brackets an
//! object differently adapts it again, so `budget_checkpoints` rose while
//! [`ANSWERS`], OBJECTS and SETS held.

use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::{fnv_fold, FNV_OFFSET};
use ust_bench::RunScale;
use ust_core::{EngineConfig, Query, QueryEngine, QueryStats};

/// The digests, and two totals that make a mismatch readable: objects
/// reported by the probability answers and timestamp sets reported by the
/// PCNN answers.
const DIGEST: u64 = 0xed78_81f0_609e_4ddd;
const ANSWERS: u64 = 0x2f2a_ba7a_5fed_fc75;
const OBJECTS: usize = 124;
const SETS: usize = 24_679;

const TAU: f64 = 0.05;

/// [`DIGEST`] and [`ANSWERS`], folded side by side.
struct Digests {
    all: u64,
    answers: u64,
}

impl Digests {
    fn fold(&mut self, v: u64) {
        self.all = fnv_fold(self.all, v);
        self.answers = fnv_fold(self.answers, v);
    }

    fn fold_stats(&mut self, stats: &QueryStats) {
        for v in [stats.candidates, stats.influencers, stats.worlds] {
            self.fold(v as u64);
        }
        self.all = fnv_fold(self.all, stats.budget_checkpoints as u64);
    }
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
    let mut d = Digests { all: FNV_OFFSET, answers: FNV_OFFSET };
    let (mut objects, mut sets) = (0, 0);
    for spec in &workload.queries {
        let query = Query::at_point(spec.location, spec.times.iter().copied())
            .expect("workload queries are well-formed");
        for k in [1, 2] {
            let exists = engine.pexists_knn(&query, k, TAU).expect("P∃kNN answers");
            let forall = engine.pforall_knn(&query, k, TAU).expect("P∀kNN answers");
            for outcome in [&exists, &forall] {
                for r in &outcome.results {
                    d.fold(u64::from(r.object));
                    d.fold(r.probability.to_bits());
                }
                objects += outcome.results.len();
                d.fold_stats(&outcome.stats);
            }
            let pcnn = engine.pcknn(&query, k, TAU).expect("PCkNN answers");
            for r in &pcnn.results {
                d.fold(u64::from(r.object));
                d.fold(r.candidate_sets_evaluated as u64);
                for (times, p) in &r.sets {
                    d.fold(times.len() as u64);
                    for &t in times {
                        d.fold(u64::from(t));
                    }
                    d.fold(p.to_bits());
                }
                sets += r.sets.len();
            }
            d.fold(pcnn.candidate_sets_evaluated as u64);
            d.fold_stats(&pcnn.stats);
        }
    }
    assert_eq!((objects, sets), (OBJECTS, SETS));
    assert_eq!(d.answers, ANSWERS, "answers {:#018x}", d.answers);
    assert_eq!(d.all, DIGEST, "got {:#018x}", d.all);
}
