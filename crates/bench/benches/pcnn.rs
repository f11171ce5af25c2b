//! Micro-benchmark: PCNN queries (Algorithm 1) at different thresholds.
//!
//! Small thresholds force the Apriori lattice towards the full subset lattice
//! of the query interval, which is the worst case the paper discusses in
//! Section 4.3. The `miner` group isolates the lattice itself
//! (`vertical_timesets`) on synthetic world sets:
//!
//! * `vertical_tau_*`: 10 random, all-distinct columns over 2 000 worlds at
//!   two thresholds. Each class of identical columns holds one column, so
//!   the class lattice is the timestamp lattice and merging saves nothing.
//! * `vertical_tau_0.1_70_columns`: the same worlds in the last 10 of 70
//!   columns. The 60 empty columns fail the threshold and join no class, so
//!   the lattice is the 10-column one.
//! * `vertical_tau_0.05_16_columns_duplicates`: shaped like one PC2NN object
//!   of perfbench's `warm_query` (16 columns, 1 024 worlds, τ = 0.05, full
//!   and duplicate columns): 15 qualifying columns in 6 classes, 16 415
//!   qualifying sets.
//!
//! What perfbench cannot show: it mines at one fixed τ and never with more
//! than 64 query timestamps, so the τ sweep and the wide lattice live here,
//! and it times the miner only together with the sampling that feeds it.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ust_bench::args::RunScale;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_core::pcnn::{vertical_timesets, PcnnConfig, WorldSet};
use ust_core::{EngineConfig, Query, QueryEngine};

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

/// The lattice alone on synthetic world data: 10 timestamps over 2 000
/// worlds with correlated per-timestamp NN membership, dense enough that the
/// τ = 0.1 lattice approaches the full subset lattice.
fn bench_miner(c: &mut Criterion) {
    let num_times = 10usize;
    let num_worlds = 2_000usize;
    // The same worlds in columns 0..10 of a 10-column set and in columns
    // 60..70 of a 70-column one.
    let mut narrow = WorldSet::new(num_times, num_worlds);
    let mut wide = WorldSet::new(70, num_worlds);
    let mut rng = StdRng::seed_from_u64(29);
    for w in 0..num_worlds {
        // Each world is "good" or "bad" for the object; good worlds are NN
        // almost everywhere, which sustains deep lattice levels.
        let density = if rng.gen::<f64>() < 0.5 { 0.9 } else { 0.2 };
        for t in 0..num_times {
            if rng.gen::<f64>() < density {
                narrow.record(t, w);
                wide.record(60 + t, w);
            }
        }
    }

    let mut group = c.benchmark_group("miner");
    group.sample_size(10);
    for tau in [0.1, 0.5] {
        let cfg = PcnnConfig::new(tau);
        group.bench_function(format!("vertical_tau_{tau}"), |b| {
            b.iter(|| vertical_timesets(&narrow, &cfg, None))
        });
    }
    let cfg = PcnnConfig::new(0.1);
    group.bench_function("vertical_tau_0.1_70_columns", |b| {
        b.iter(|| vertical_timesets(&wide, &cfg, None))
    });
    let traffic = traffic_world_set();
    let cfg = PcnnConfig::new(0.05);
    group.bench_function("vertical_tau_0.05_16_columns_duplicates", |b| {
        b.iter(|| vertical_timesets(&traffic, &cfg, None))
    });
    group.finish();
}

/// A world set shaped like one PC2NN object of perfbench's `warm_query`
/// (τ = 0.05, 1 024 worlds, 16 query timestamps): 5 full columns (a NN in
/// every world), 8 copies of three templates, one more distinct column, one
/// rare column and one empty column, so its 15 qualifying columns fall into
/// 6 classes. As along a real trajectory, the templates hit together in
/// "good" worlds, so nearly every subset of 14 columns qualifies; the rare
/// column qualifies only beside the full ones.
fn traffic_world_set() -> WorldSet {
    let num_worlds = 1_024usize;
    let mut rng = StdRng::seed_from_u64(31);
    let good: Vec<bool> = (0..num_worlds).map(|_| rng.gen::<f64>() < 0.55).collect();
    let mut template = |in_good: f64, in_bad: f64| -> Vec<bool> {
        good.iter().map(|&g| rng.gen::<f64>() < if g { in_good } else { in_bad }).collect()
    };
    let (a, b, c, d) =
        (template(0.95, 0.2), template(0.9, 0.1), template(0.85, 0.05), template(0.8, 0.3));
    let rare = template(0.07, 0.07);
    let full = vec![true; num_worlds];
    let empty = vec![false; num_worlds];
    let columns =
        [&full, &a, &a, &b, &full, &d, &c, &a, &empty, &full, &b, &rare, &c, &b, &full, &full];
    let mut ws = WorldSet::new(columns.len(), num_worlds);
    for (t, column) in columns.iter().enumerate() {
        for (w, _) in column.iter().enumerate().filter(|(_, &hit)| hit) {
            ws.record(t, w);
        }
    }
    ws
}

criterion_group!(benches, bench_pcnn, bench_miner);
criterion_main!(benches);
