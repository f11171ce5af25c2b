//! Micro-benchmark: forward-backward model adaptation (Algorithm 2).
//!
//! Compares the production sparse implementation against the literal dense
//! transcription of the paper's pseudo-code (the `O(|T| · |S|²)` formulation),
//! measures the sparse adaptation on a realistic synthetic network object, and
//! measures the full-database TS phase (`QueryEngine::prepare_all`) across the
//! `adaptation_threads` axis — the speedup of the parallel fan-out over the
//! serial loop on the fig06/quickstart scale (150 objects).
//!
//! What perfbench cannot show: it adapts with the sparse implementation on
//! one thread only, so the dense reference and the thread sweep live here.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ust_bench::datasets::{build_synthetic, ScaleParams};
use ust_bench::RunScale;
use ust_core::{EngineConfig, QueryEngine};
use ust_generator::{ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_markov::dense::{adapt_dense, DenseMatrix};
use ust_markov::{AdaptedModel, CsrMatrix, MarkovModel, StateId};

/// A ring chain of `n` states with stay/forward/backward moves.
fn ring(n: usize) -> (CsrMatrix, DenseMatrix) {
    let mut dense = DenseMatrix::zeros(n);
    let mut rows: Vec<Vec<(StateId, f64)>> = Vec::with_capacity(n);
    for i in 0..n {
        let fwd = (i + 1) % n;
        let bwd = (i + n - 1) % n;
        dense.set(i, fwd, 0.5);
        dense.set(i, i, 0.3);
        dense.set(i, bwd, 0.2);
        rows.push(vec![(fwd as StateId, 0.5), (i as StateId, 0.3), (bwd as StateId, 0.2)]);
    }
    (CsrMatrix::from_rows(rows), dense)
}

fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptation_sparse_vs_dense");
    for n in [50usize, 200] {
        let (sparse, dense) = ring(n);
        let model = MarkovModel::homogeneous(sparse);
        // The ring advances at most one state per tic, so the intermediate
        // observation must stay within 20 steps of both endpoints.
        let obs = vec![(0u32, 0u32), (20, 10), (40, 0)];
        group.bench_function(format!("sparse_{n}_states"), |b| {
            b.iter(|| AdaptedModel::build(&model, &obs).expect("consistent"))
        });
        group.bench_function(format!("dense_{n}_states"), |b| {
            b.iter(|| adapt_dense(&dense, &obs).expect("consistent"))
        });
    }
    group.finish();
}

fn bench_synthetic_object(c: &mut Criterion) {
    let network = SyntheticNetworkConfig { num_states: 5_000, branching_factor: 8.0, seed: 1 }
        .generate();
    let model = network.distance_weighted_model(1.0);
    let objects = ust_generator::objects::generate_objects(
        &network,
        &ObjectWorkloadConfig {
            num_objects: 8,
            lifetime: 100,
            horizon: 200,
            observation_interval: 10,
            lag: 0.5,
            standing_fraction: 0.0,
            seed: 2,
        },
        0,
    );
    let mut group = c.benchmark_group("adaptation_synthetic");
    group.sample_size(20);
    group.bench_function("adapt_one_object_5k_states", |b| {
        b.iter_batched(
            || objects[0].object.observation_pairs(),
            |obs| AdaptedModel::build(&model, &obs).expect("consistent"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_prepare_all_threads(c: &mut Criterion) {
    // The fig06 default / quickstart scale: 2 000 states, 150 objects.
    let params = ScaleParams::for_scale(RunScale::Quick);
    let dataset = build_synthetic(&params, 2_000, params.branching, 150, 1);
    let mut group = c.benchmark_group("adaptation_prepare_all");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let engine = QueryEngine::new(
            &dataset.database,
            // No UST-tree: this benchmark isolates the TS phase.
            EngineConfig { use_index: false, adaptation_threads: threads, ..Default::default() },
        );
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                engine.clear_model_cache();
                engine.prepare_all().expect("adaptation succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sparse_vs_dense, bench_synthetic_object, bench_prepare_all_threads);
criterion_main!(benches);
