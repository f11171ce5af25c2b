//! Micro-benchmark: the UST-tree filter's selectivity benefit — P∀NN query
//! evaluation with and without the index (the pruning ablation called out in
//! DESIGN.md).
//!
//! What perfbench cannot show: its engines always run with the index
//! (`use_index: true`), so only this bench measures the index-free
//! baseline. The build and per-query prune costs are perfbench's
//! `index.build_ms` and `index.prune_us`.

use criterion::{criterion_group, criterion_main, Criterion};
use ust_bench::args::RunScale;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_core::{EngineConfig, Query, QueryEngine};

fn bench_pruning(c: &mut Criterion) {
    let mut params = ScaleParams::for_scale(RunScale::Quick);
    params.num_queries = 4;
    let dataset = build_synthetic(&params, 2_000, 8.0, 200, 7);
    let workload = build_queries(&dataset, &params, 7);
    let spec = &workload.queries[0];

    let mut group = c.benchmark_group("pruning_ablation");
    group.sample_size(10);
    let with_index =
        QueryEngine::new(&dataset.database, EngineConfig { num_samples: 200, ..Default::default() });
    let without_index = QueryEngine::new(
        &dataset.database,
        EngineConfig { num_samples: 200, use_index: false, ..Default::default() },
    );
    let query = Query::at_point(spec.location, spec.times.iter().copied()).unwrap();
    group.bench_function("pforall_with_index", |b| {
        b.iter(|| with_index.pforall_nn(&query, 0.0).unwrap())
    });
    group.bench_function("pforall_without_index", |b| {
        b.iter(|| without_index.pforall_nn(&query, 0.0).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
