//! Micro-benchmark: PCNN queries (Algorithm 1) at different thresholds.
//!
//! Small thresholds force the Apriori lattice towards the full subset lattice
//! of the query interval, which is the worst case the paper discusses in
//! Section 4.3. The `miner` group isolates the lattice itself: the vertical
//! bitset miner (`vertical_timesets`, one AND + popcount per candidate)
//! against the retained horizontal reference (`apriori_timesets`, one
//! containment scan over all per-world masks per candidate) on identical
//! world data.
//!
//! What perfbench cannot show: it mines with the production miner at one
//! fixed τ, so the τ sweep and the miner-against-reference comparison live
//! here.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ust_bench::args::RunScale;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_core::pcnn::{apriori_timesets, vertical_timesets, PcnnConfig, WorldSet};
use ust_core::{EngineConfig, Query, QueryEngine};
use ust_trajectory::TimeMask;

fn bench_pcnn(c: &mut Criterion) {
    let mut params = ScaleParams::for_scale(RunScale::Quick);
    params.num_queries = 2;
    params.interval_len = 8;
    let dataset = build_synthetic(&params, 2_000, 8.0, 150, 13);
    let workload = build_queries(&dataset, &params, 13);
    let engine = QueryEngine::new(
        &dataset.database,
        EngineConfig { num_samples: 300, ..Default::default() },
    );
    engine.prepare_all().expect("adaptation succeeds");
    let spec = &workload.queries[0];
    let query = Query::at_point(spec.location, spec.times.iter().copied()).unwrap();

    let mut group = c.benchmark_group("pcnn");
    group.sample_size(10);
    for tau in [0.1, 0.5, 0.9] {
        group.bench_function(format!("pcnn_tau_{tau}"), |b| {
            b.iter(|| engine.pcnn(&query, tau).unwrap())
        });
    }
    group.bench_function("pc2nn_tau_0.5", |b| {
        b.iter(|| engine.pcknn(&query, 2, 0.5).unwrap())
    });
    group.finish();
}

/// Lattice-only comparison on synthetic world data: 10 timestamps over 2 000
/// worlds with correlated per-timestamp NN membership, dense enough that the
/// τ = 0.1 lattice approaches the full subset lattice.
fn bench_miner(c: &mut Criterion) {
    let num_times = 10usize;
    let num_worlds = 2_000usize;
    let mut rng = StdRng::seed_from_u64(29);
    let masks: Vec<TimeMask> = (0..num_worlds)
        .map(|_| {
            // Each world is "good" or "bad" for the object; good worlds are NN
            // almost everywhere, which sustains deep lattice levels.
            let density = if rng.gen::<f64>() < 0.5 { 0.9 } else { 0.2 };
            TimeMask::from_indices(
                num_times,
                (0..num_times).filter(|_| rng.gen::<f64>() < density),
            )
        })
        .collect();
    let worldset = WorldSet::from_world_masks(num_times, &masks);

    let mut group = c.benchmark_group("miner");
    group.sample_size(10);
    for tau in [0.1, 0.5] {
        let cfg = PcnnConfig::new(tau);
        group.bench_function(format!("vertical_tau_{tau}"), |b| {
            b.iter(|| vertical_timesets(&worldset, &cfg, None))
        });
        group.bench_function(format!("reference_tau_{tau}"), |b| {
            b.iter(|| apriori_timesets(&masks, num_times, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pcnn, bench_miner);
criterion_main!(benches);
