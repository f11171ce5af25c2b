//! Block (structure-of-arrays) possible-world sampling over a time window.
//!
//! The query engine's Monte-Carlo loop evaluates every sampled world at every
//! query timestamp. Sampling worlds one at a time stores each world as an
//! array-of-structures (one [`ust_trajectory::Trajectory`] per object), so
//! the per-timestamp evaluation strides across trajectories and the PCNN
//! world set's columns (`ust_core::pcnn::WorldSet`) are written one bit at a
//! time.
//!
//! A [`WorldBlock`] instead samples a *block* of worlds (typically
//! [`WORLD_BLOCK_WIDTH`] = 64, one per bit of a `u64` word) into a
//! structure-of-arrays arena: for each object and each stored timestamp, the
//! states of all worlds in the block sit contiguously. The engine then scans
//! `states_at(object, t)` — one cache-friendly 64-wide row — to build a whole
//! `u64` of world-hit bits at once and feed it to the world set word-wise.
//!
//! **The window walk.** A block covers a time window `[from, to]`; the
//! engine passes the query's first and last timestamps. Per object it stores
//! only `[t0, t1]`, with `t0 = max(first observation, from)` and
//! `t1 = min(last observation, to)`; an object that does not overlap the
//! window stores nothing. [`WorldBlock::fill`] draws `o(t0)` from the
//! a-posteriori marginal `posterior_at(t0)` and then walks the a-posteriori
//! chain `F(t)` to `t1`. `F(t)` is a Markov chain whose marginals are the
//! a-posteriori marginals (Algorithm 2, Lemma 5 of the paper), so the walk
//! has exactly the joint law of a full walk from the first observation,
//! restricted to the window. States outside the window, which no query
//! reads, are neither drawn nor stored. A marginal that is a point mass
//! (always so at an observation) gives its state without spending a draw.
//!
//! **RNG streams.** A world spends one uniform per random start and one per
//! chain step, world-major: world 0's objects in sampler order, then world
//! 1's, …, so the first `n` worlds of a fill do not depend on how many
//! follow. The engine seeds each block's generator with
//! [`block_seed`]`(seed, block index)`: blocks are independent of each other,
//! and a run stopped after any number of worlds (a world cap, a deadline)
//! holds exactly the first worlds of the uncapped run.
//!
//! **Object-major fill.** `fill` first draws the block's uniforms into a
//! buffer the block owns, in that world-major order, and then walks object by
//! object and, within an object, step by step across the block's worlds: one
//! model's kernel stays hot, and each world carries its row id from one step
//! to the next through the kernel's successor links ([`AliasKernel::draw`]).
//! Rows are searched only when the block is built: per object, the row of
//! each state its walks can start on ([`AliasKernel::row_of`]), next to the
//! running masses of `posterior_at(t0)`, so a random start is one binary
//! search for the state [`SparseDist::sample_with`] picks. Each world reads
//! the uniform the world-major order gives it, so the worlds are bit for bit
//! those of a scalar walk drawing world by world with `sample_with` and
//! [`AdaptedModel::sample_transition`]
//! (`block_fill_matches_a_scalar_window_walk`).
//!
//! [`SparseDist::sample_with`]: ust_markov::SparseDist::sample_with

use crate::world::WorldSampler;
use rand::Rng;
use std::ops::RangeInclusive;
use std::sync::Arc;
use ust_markov::{AdaptedModel, AliasKernel, Timestamp};
use ust_spatial::StateId;
use ust_trajectory::ObjectId;

/// Worlds per block: one per bit of a `u64`, matching the word width of the
/// PCNN world set and the engine's budget-probe interval.
pub const WORLD_BLOCK_WIDTH: usize = 64;

/// The RNG seed of world block `block` in a run seeded with `seed`:
/// `mix(seed ^ mix(block))`, where `mix` is the SplitMix64 output function
/// (add `0x9E37_79B9_7F4A_7C15`, then the two xor-shift-multiply rounds and
/// the final xor-shift). The query engine seeds block `b` of every query
/// with `StdRng::seed_from_u64(block_seed(config.seed, b))`.
pub fn block_seed(seed: u64, block: usize) -> u64 {
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed ^ mix(block as u64))
}

/// Per-object layout and model of a block: the arena window of one object.
#[derive(Debug, Clone)]
struct BlockObject {
    id: ObjectId,
    model: Arc<AdaptedModel>,
    /// First stored timestamp `t0`.
    from: Timestamp,
    /// Last stored timestamp `t1`; below `from` when the object does not
    /// overlap the window.
    to: Timestamp,
    /// Start of this object's rows in the state arena.
    offset: usize,
    /// How each world's walk starts at `t0`; `None` when the object does not
    /// overlap the window.
    start: Option<Start>,
    /// Position of this object's first uniform among one world's draws.
    first_draw: usize,
}

/// The start of an object's walks: `o(t0)` with its kernel row at `t0`'s
/// step ([`AliasKernel::NO_ROW`] when the walk takes no step).
#[derive(Debug, Clone)]
enum Start {
    /// `posterior_at(t0)` is a point mass: every world starts on it without
    /// spending a draw.
    Fixed((StateId, u32)),
    /// One draw `u` per world, inverted exactly as
    /// [`SparseDist::sample_with`](ust_markov::SparseDist::sample_with)
    /// inverts it: the first state whose running mass exceeds
    /// `u · total_mass`, else the last one.
    Drawn {
        /// `posterior_at(t0).total_mass()`.
        mass: f64,
        /// Per state, the left-to-right fold of the probabilities up to it.
        running: Vec<f64>,
        /// The marginal's states with their rows.
        support: Vec<(StateId, u32)>,
    },
}

impl Start {
    /// The start of the walks of `model` over `[from, to]`.
    fn of(model: &AdaptedModel, from: Timestamp, to: Timestamp) -> Start {
        let marginal = model.posterior_at(from).expect("t0 lies in the model's interval");
        let (kernel, step) = (model.alias_kernel(), (from - model.start()) as usize);
        let with_row = |state| {
            let row =
                if from < to { kernel.row_of(step, state) } else { Some(AliasKernel::NO_ROW) };
            (state, row.expect("every a-posteriori state has a transition row at its step"))
        };
        if let [(only, _)] = marginal.entries() {
            return Start::Fixed(with_row(*only));
        }
        let mut acc = 0.0;
        let running = marginal.iter().map(|(_, p)| {
            acc += p;
            acc
        });
        Start::Drawn {
            mass: marginal.total_mass(),
            running: running.collect(),
            support: marginal.support().map(with_row).collect(),
        }
    }
}

/// A structure-of-arrays block of sampled possible worlds.
///
/// Layout: object-major, then timestamp-major, then world-minor —
/// `states[offset(obj) + k · capacity + w]` holds the state of world `w` for
/// object `obj` at its `k`-th stored timestamp, so for a fixed `(obj, t)`
/// the worlds of the block are one contiguous slice.
#[derive(Debug, Clone)]
pub struct WorldBlock {
    capacity: usize,
    count: usize,
    objects: Vec<BlockObject>,
    states: Vec<StateId>,
    /// Uniforms one world spends: a random start plus the chain steps, over
    /// every object.
    draws_per_world: usize,
    /// The last fill's uniforms, world-major: world `w`'s `d`-th draw at
    /// `w · draws_per_world + d`.
    uniforms: Vec<f64>,
    /// Per world, the kernel row its walk of the current object draws from
    /// next.
    rows: Vec<u32>,
}

impl WorldBlock {
    /// Builds an (empty) block over the sampler's objects that stores each
    /// object's states in `window` and holds up to `capacity` worlds per
    /// fill. The query engine passes `query.start()..=query.end()`.
    pub fn for_window(
        sampler: &WorldSampler,
        window: RangeInclusive<Timestamp>,
        capacity: usize,
    ) -> Self {
        let (lo, hi) = window.into_inner();
        let mut objects = Vec::with_capacity(sampler.len());
        let mut offset = 0usize;
        let mut draws_per_world = 0usize;
        for (id, model) in sampler.models() {
            let from = model.start().max(lo);
            let to = model.end().min(hi);
            let start = (from <= to).then(|| Start::of(model, from, to));
            // Per world: a random start spends one draw, each step one more.
            let (stored, draws) = match &start {
                Some(start) => (
                    ((to - from) as usize + 1) * capacity,
                    (to - from) as usize + usize::from(matches!(start, Start::Drawn { .. })),
                ),
                None => (0, 0),
            };
            objects.push(BlockObject {
                id: *id,
                model: Arc::clone(model),
                from,
                to,
                offset,
                start,
                first_draw: draws_per_world,
            });
            offset += stored;
            draws_per_world += draws;
        }
        WorldBlock {
            capacity,
            count: 0,
            objects,
            states: vec![0; offset],
            draws_per_world,
            uniforms: Vec::new(),
            rows: vec![0; capacity],
        }
    }

    /// The block over the window `[0, horizon]`: each object is stored from
    /// its first observation to `min(last observation, horizon)`.
    pub fn for_sampler(sampler: &WorldSampler, horizon: Timestamp, capacity: usize) -> Self {
        Self::for_window(sampler, 0..=horizon, capacity)
    }

    /// Samples `count ≤ capacity` fresh worlds into the block, replacing its
    /// previous contents: per world and object one draw for `o(t0)` from
    /// `posterior_at(t0)` (none for a point mass) and one per step of `F(t)`
    /// up to `t1`, spent world-major (module doc). The first `n` worlds are
    /// the same whatever `count ≥ n`.
    pub fn fill<R: Rng>(&mut self, rng: &mut R, count: usize) {
        assert!(count <= self.capacity, "block fill of {count} exceeds capacity {}", self.capacity);
        self.count = count;
        if count == 0 {
            return;
        }
        let draws = self.draws_per_world;
        self.uniforms.clear();
        // `rng.gen::<f64>()` yields u ∈ [0, 1), the alias kernel's contract.
        self.uniforms.extend((0..count * draws).map(|_| rng.gen::<f64>()));
        let WorldBlock { capacity, objects, states, uniforms, rows, .. } = self;
        let rows = &mut rows[..count];
        for obj in objects.iter() {
            let Some(start) = &obj.start else { continue };
            let kernel = obj.model.alias_kernel();
            // World `w`'s `d`-th uniform of this object.
            let column = |d: usize| uniforms[obj.first_draw + d..].iter().step_by(draws);
            let mut d = 0;
            let starts = &mut states[obj.offset..obj.offset + count];
            match start {
                Start::Fixed((state, row)) => {
                    starts.fill(*state);
                    rows.fill(*row);
                }
                Start::Drawn { mass, running, support } => {
                    for ((start, row), &u) in starts.iter_mut().zip(rows.iter_mut()).zip(column(d))
                    {
                        let target = u * mass;
                        let i = running.partition_point(|&m| m <= target).min(support.len() - 1);
                        (*start, *row) = support[i];
                    }
                    d += 1;
                }
            }
            let mut at = obj.offset;
            for _ in obj.from..obj.to {
                at += *capacity;
                let step_states = &mut states[at..at + count];
                for ((state, row), &u) in step_states.iter_mut().zip(rows.iter_mut()).zip(column(d))
                {
                    (*state, *row) = kernel.draw(*row, u);
                }
                d += 1;
            }
        }
    }

    /// Number of worlds currently held (set by the last [`fill`](Self::fill)).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Maximum number of worlds per fill.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of objects per world.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// The object id at block index `obj` (sampler order).
    pub fn object_id(&self, obj: usize) -> Option<ObjectId> {
        self.objects.get(obj).map(|o| o.id)
    }

    /// The states of all held worlds for object index `obj` at timestamp `t`:
    /// a contiguous slice of length [`count`](Self::count), world `w` at
    /// position `w`. `None` if `t` is outside the object's stored interval
    /// `[t0, t1]`, and always for an object that does not overlap the window.
    #[inline]
    pub fn states_at(&self, obj: usize, t: Timestamp) -> Option<&[StateId]> {
        let o = self.objects.get(obj)?;
        if t < o.from || t > o.to {
            return None;
        }
        let base = o.offset + (t - o.from) as usize * self.capacity;
        Some(&self.states[base..base + self.count])
    }

    /// The state of one world for object index `obj` at timestamp `t`.
    pub fn state(&self, obj: usize, t: Timestamp, world: usize) -> Option<StateId> {
        self.states_at(obj, t).and_then(|row| row.get(world).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ust_markov::{CsrMatrix, MarkovModel};

    fn sampler() -> WorldSampler {
        let model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(1, 0.5), (3, 0.5)],
        ]));
        let o1 = Arc::new(AdaptedModel::build(&model, &[(1, 1)]).unwrap());
        let o2 = Arc::new(AdaptedModel::build(&model, &[(0, 2), (4, 0)]).unwrap());
        let o3 = Arc::new(AdaptedModel::build(&model, &[(2, 3)]).unwrap());
        WorldSampler::from_models(vec![(1, o1), (2, o2), (3, o3)])
    }

    /// One world drawn the way the module doc specifies, object by object:
    /// per object its stored interval and states, `None` if it does not
    /// overlap `[from, to]`.
    fn scalar_window_walk(
        sampler: &WorldSampler,
        from: Timestamp,
        to: Timestamp,
        rng: &mut StdRng,
    ) -> Vec<Option<(Timestamp, Vec<StateId>)>> {
        sampler
            .models()
            .iter()
            .map(|(_, model)| {
                let (t0, t1) = (model.start().max(from), model.end().min(to));
                if t0 > t1 {
                    return None;
                }
                let marginal = model.posterior_at(t0).unwrap();
                let mut state = match marginal.entries() {
                    [(only, _)] => *only,
                    _ => marginal.sample_with(rng.gen::<f64>()).unwrap(),
                };
                let mut states = vec![state];
                for t in t0..t1 {
                    state = model.sample_transition(t, state, rng.gen::<f64>()).unwrap();
                    states.push(state);
                }
                Some((t0, states))
            })
            .collect()
    }

    #[test]
    fn block_fill_matches_a_scalar_window_walk() {
        let sampler = sampler();
        // Windows before, inside, across and after the objects' lifetimes;
        // [2, 4] starts o2 off its first observation, [3, 9] misses o1 and o3.
        for (from, to) in [(0u32, 0u32), (0, 4), (1, 3), (2, 4), (3, 9), (5, 9)] {
            let mut rng_block = StdRng::seed_from_u64(42);
            let mut rng_scalar = StdRng::seed_from_u64(42);
            let mut block = WorldBlock::for_window(&sampler, from..=to, WORLD_BLOCK_WIDTH);
            // Two full blocks and one partial block.
            for count in [WORLD_BLOCK_WIDTH, WORLD_BLOCK_WIDTH, 13] {
                block.fill(&mut rng_block, count);
                assert_eq!(block.count(), count);
                for w in 0..count {
                    let world = scalar_window_walk(&sampler, from, to, &mut rng_scalar);
                    for (obj, walk) in world.iter().enumerate() {
                        for t in 0..=10u32 {
                            let expected = walk.as_ref().and_then(|(t0, states)| {
                                t.checked_sub(*t0).and_then(|k| states.get(k as usize)).copied()
                            });
                            let at = format!("[{from}, {to}] w={w} obj={obj} t={t}");
                            assert_eq!(block.state(obj, t, w), expected, "{at}");
                        }
                    }
                }
            }
            // Both walks consumed the same number of draws.
            assert_eq!(rng_block.gen::<u64>(), rng_scalar.gen::<u64>(), "[{from}, {to}]");
        }
    }

    /// Five objects on a six-state ring (stay 1/2, step either way 1/4) whose
    /// lifetimes start, end and hold observations at different times, so one
    /// window mixes point-mass and random starts, walks that end at an
    /// object's last observation and walks that stop short of it.
    fn mixed_sampler() -> WorldSampler {
        let ring = MarkovModel::homogeneous(CsrMatrix::from_rows(
            (0..6u32).map(|s| vec![((s + 5) % 6, 0.25), (s, 0.5), ((s + 1) % 6, 0.25)]).collect(),
        ));
        let observed: [&[(Timestamp, StateId)]; 5] = [
            &[(0, 0), (6, 0)],
            &[(2, 3), (9, 1)],
            &[(4, 5)],
            &[(1, 2), (3, 2), (12, 4)],
            &[(7, 1), (8, 2)],
        ];
        let models = observed.iter().enumerate().map(|(i, obs)| {
            (i as ObjectId + 10, Arc::new(AdaptedModel::build(&ring, obs).unwrap()))
        });
        WorldSampler::from_models(models.collect())
    }

    #[test]
    fn object_major_fill_matches_the_scalar_walk_on_mixed_windows() {
        let sampler = mixed_sampler();
        // [3, 7] starts objects 10 and 11 on random states and 12, 13 and 14
        // on point masses (one draw each for 10 and 11, then 3 + 4 + 4 chain
        // steps), ends past 10's last observation and short of 11's and
        // 13's; [0, 20] runs every lifetime to its end.
        assert_eq!(WorldBlock::for_window(&sampler, 3..=7, 1).draws_per_world, 13);
        for (from, to) in [(3u32, 7u32), (2, 10), (5, 5), (8, 20), (0, 20)] {
            let mut rng_block = StdRng::seed_from_u64(block_seed(from.into(), to as usize));
            let mut rng_scalar = rng_block.clone();
            let mut block = WorldBlock::for_window(&sampler, from..=to, WORLD_BLOCK_WIDTH);
            for count in [WORLD_BLOCK_WIDTH, 13] {
                block.fill(&mut rng_block, count);
                for w in 0..count {
                    let world = scalar_window_walk(&sampler, from, to, &mut rng_scalar);
                    for (obj, walk) in world.iter().enumerate() {
                        for t in 0..=21u32 {
                            let expected = walk.as_ref().and_then(|(t0, states)| {
                                t.checked_sub(*t0).and_then(|k| states.get(k as usize)).copied()
                            });
                            let at = format!("[{from}, {to}] count={count} w={w} obj={obj} t={t}");
                            assert_eq!(block.state(obj, t, w), expected, "{at}");
                        }
                    }
                }
            }
            assert_eq!(rng_block.gen::<u64>(), rng_scalar.gen::<u64>(), "[{from}, {to}]");
        }
    }

    #[test]
    fn a_partial_fill_is_a_prefix_of_a_full_one() {
        let sampler = sampler();
        let mut full = WorldBlock::for_window(&sampler, 2..=4, WORLD_BLOCK_WIDTH);
        let mut partial = full.clone();
        full.fill(&mut StdRng::seed_from_u64(block_seed(5, 3)), WORLD_BLOCK_WIDTH);
        partial.fill(&mut StdRng::seed_from_u64(block_seed(5, 3)), 13);
        for obj in 0..sampler.len() {
            for t in 2..=4 {
                assert_eq!(
                    partial.states_at(obj, t),
                    full.states_at(obj, t).map(|row| &row[..13]),
                    "obj={obj} t={t}"
                );
            }
        }
    }

    #[test]
    fn block_seeds_differ_across_seeds_and_blocks() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            for block in 0..64usize {
                assert!(seen.insert(block_seed(seed, block)), "seed={seed} block={block}");
            }
        }
    }

    #[test]
    fn states_at_rows_are_world_contiguous() {
        let sampler = sampler();
        let mut rng = StdRng::seed_from_u64(7);
        let mut block = WorldBlock::for_sampler(&sampler, 4, WORLD_BLOCK_WIDTH);
        block.fill(&mut rng, 64);
        let row = block.states_at(1, 2).expect("object 2 covers t=2");
        assert_eq!(row.len(), 64);
        for (w, &s) in row.iter().enumerate() {
            assert_eq!(block.state(1, 2, w), Some(s));
        }
    }

    #[test]
    fn refilling_replaces_previous_contents() {
        let sampler = sampler();
        let mut rng = StdRng::seed_from_u64(9);
        let mut block = WorldBlock::for_sampler(&sampler, 4, WORLD_BLOCK_WIDTH);
        block.fill(&mut rng, 64);
        block.fill(&mut rng, 5);
        assert_eq!(block.count(), 5);
        assert_eq!(block.states_at(0, 1).unwrap().len(), 5);
        assert_eq!(block.state(0, 1, 5), None, "world index past count");
    }

    #[test]
    fn empty_sampler_produces_an_empty_block() {
        let block = WorldBlock::for_sampler(&WorldSampler::default(), 10, WORLD_BLOCK_WIDTH);
        assert_eq!(block.num_objects(), 0);
        assert_eq!(block.states_at(0, 0), None);
        assert_eq!(block.object_id(0), None);
    }
}
