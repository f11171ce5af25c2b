//! Micro-benchmark: trajectory sampling throughput.
//!
//! Measures the a-posteriori sampler (one attempt per trajectory) against the
//! segment-wise rejection sampler on the same object, and the engine's world
//! fill: a block of 64 possible worlds over a query window that opens between
//! observations, one RNG stream per fill.
//!
//! What perfbench cannot show: it draws worlds only through the alias kernel
//! of the a-posteriori models, so the rejection sampler and the
//! alias-against-CDF draw live here.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ust_generator::{ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_markov::{AdaptedModel, AliasKernel, SparseDist};
use ust_sampling::{
    block_seed, PosteriorSampler, SegmentedSampler, WorldBlock, WorldSampler, WORLD_BLOCK_WIDTH,
};

fn setup() -> (ust_markov::MarkovModel, Vec<Vec<(u32, u32)>>) {
    let network = SyntheticNetworkConfig { num_states: 2_000, branching_factor: 8.0, seed: 3 }
        .generate();
    let model = network.distance_weighted_model(1.0);
    let objects = ust_generator::objects::generate_objects(
        &network,
        &ObjectWorkloadConfig {
            num_objects: 16,
            lifetime: 60,
            horizon: 100,
            observation_interval: 10,
            lag: 0.5,
            standing_fraction: 0.0,
            seed: 4,
        },
        0,
    );
    let obs = objects.iter().map(|g| g.object.observation_pairs()).collect();
    (model, obs)
}

fn bench_posterior_sampler(c: &mut Criterion) {
    let (model, obs) = setup();
    let adapted = AdaptedModel::build(&model, &obs[0]).expect("consistent");
    let mut group = c.benchmark_group("sampling");
    group.bench_function("posterior_sample_one_trajectory", |b| {
        let sampler = PosteriorSampler::new(&adapted);
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| sampler.sample(&mut rng))
    });
    group.bench_function("segmented_rejection_one_trajectory", |b| {
        let sampler = SegmentedSampler::new(&model, &obs[0]);
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| sampler.sample_one(&mut rng, 1_000_000))
    });
    group.finish();
}

fn bench_alias_vs_cdf_draws(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    for support in [4usize, 32, 256] {
        let mut seed_rng = StdRng::seed_from_u64(support as u64);
        let mut row = SparseDist::from_pairs(
            (0..support as u32).map(|s| (s, seed_rng.gen::<f64>() + 0.01)),
        );
        assert!(row.normalize());
        let kernel = AliasKernel::from_steps([[(0u32, row.entries())]]);
        group.bench_function(format!("alias_draw_support_{support}"), |b| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| kernel.sample(0, 0, rng.gen::<f64>()).expect("non-empty row"))
        });
        group.bench_function(format!("cdf_draw_support_{support}"), |b| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| row.sample_with(rng.gen::<f64>()).expect("non-empty row"))
        });
    }
    group.finish();
}

fn bench_world_sampler(c: &mut Criterion) {
    let (model, obs) = setup();
    let models: Vec<_> = obs
        .iter()
        .enumerate()
        .map(|(i, o)| (i as u32, Arc::new(AdaptedModel::build(&model, o).expect("consistent"))))
        .collect();
    let sampler = WorldSampler::from_models(models);
    let mut group = c.benchmark_group("sampling");
    let horizon = sampler.models().iter().map(|(_, m)| m.end()).max().unwrap_or(0);
    // Objects live 60 of 100 ticks, are born at ticks 0-40 and are observed
    // every 10, so a window opening at a quarter of the horizon starts more
    // than half of the walks between two observations, on a drawn state, as
    // the engine's query windows do.
    let window = horizon / 4..=horizon;
    group.bench_function("window_block_64_worlds_16_objects", |b| {
        let mut block = WorldBlock::for_window(&sampler, window.clone(), WORLD_BLOCK_WIDTH);
        let mut next = 0usize;
        b.iter(|| {
            block.fill(&mut StdRng::seed_from_u64(block_seed(1, next)), WORLD_BLOCK_WIDTH);
            next += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_posterior_sampler, bench_alias_vs_cdf_draws, bench_world_sampler);
criterion_main!(benches);
