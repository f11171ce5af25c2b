//! Block (structure-of-arrays) possible-world sampling.
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
//! structure-of-arrays arena: for each object and each covered timestamp, the
//! states of all worlds in the block sit contiguously. The engine then scans
//! `states_at(object, t)` — one cache-friendly 64-wide row — to build a whole
//! `u64` of world-hit bits at once and feed it to the world set word-wise.
//!
//! **Bit-identity.** `fill` draws worlds in world-major order (world 0's
//! objects in sampler order, then world 1's, …) and walks each object's chain
//! with the same one-`u`-per-transition discipline as
//! [`PosteriorSampler::sample_prefix_into`](crate::posterior::PosteriorSampler::sample_prefix_into).
//! Filling a block therefore consumes the RNG exactly like the same number of
//! consecutive [`WorldSampler::sample_world_prefix_into`] calls, and every
//! stored state is bit-identical to the per-world path — only the memory
//! layout changes. The tests pin this.

use crate::world::WorldSampler;
use rand::Rng;
use std::sync::Arc;
use ust_markov::{AdaptedModel, Timestamp};
use ust_spatial::StateId;
use ust_trajectory::ObjectId;

/// Worlds per block: one per bit of a `u64`, matching the word width of the
/// PCNN world set and the engine's budget-probe interval.
pub const WORLD_BLOCK_WIDTH: usize = 64;

/// Per-object layout and model of a block: the arena window of one object.
#[derive(Debug, Clone)]
struct BlockObject {
    id: ObjectId,
    model: Arc<AdaptedModel>,
    /// First covered timestamp (= the model's first observation time).
    start: Timestamp,
    /// Last *materialised* timestamp: `max(start, min(end, horizon))`. Chain
    /// steps past it burn their RNG draw without storing a state.
    prefix_end: Timestamp,
    /// Start of this object's rows in the state arena.
    offset: usize,
}

/// A structure-of-arrays block of sampled possible worlds.
///
/// Layout: object-major, then timestamp-major, then world-minor —
/// `states[offset(obj) + k · capacity + w]` holds the state of world `w` for
/// object `obj` at its `k`-th covered timestamp, so for a fixed `(obj, t)`
/// the worlds of the block are one contiguous slice.
#[derive(Debug, Clone)]
pub struct WorldBlock {
    capacity: usize,
    count: usize,
    horizon: Timestamp,
    objects: Vec<BlockObject>,
    states: Vec<StateId>,
}

impl WorldBlock {
    /// Builds an (empty) block over the sampler's objects, materialising
    /// states up to `horizon` (the engine passes its last query timestamp)
    /// and holding up to `capacity` worlds per fill.
    pub fn for_sampler(sampler: &WorldSampler, horizon: Timestamp, capacity: usize) -> Self {
        let mut objects = Vec::with_capacity(sampler.len());
        let mut offset = 0usize;
        for (id, model) in sampler.models() {
            let start = model.start();
            let keep_until = horizon.min(model.end());
            let kept_steps = keep_until.saturating_sub(start) as usize;
            objects.push(BlockObject {
                id: *id,
                model: Arc::clone(model),
                start,
                prefix_end: start + kept_steps as Timestamp,
                offset,
            });
            offset += (kept_steps + 1) * capacity;
        }
        WorldBlock { capacity, count: 0, horizon, objects, states: vec![0; offset] }
    }

    /// Samples `count ≤ capacity` fresh worlds into the block, replacing its
    /// previous contents. Worlds are drawn in world-major order with one RNG
    /// draw per chain step, so the RNG stream — and every stored state — is
    /// bit-identical to `count` consecutive
    /// [`WorldSampler::sample_world_prefix_into`] calls at this horizon.
    pub fn fill<R: Rng>(&mut self, rng: &mut R, count: usize) {
        assert!(count <= self.capacity, "block fill of {count} exceeds capacity {}", self.capacity);
        self.count = count;
        let capacity = self.capacity;
        let horizon = self.horizon;
        let states = &mut self.states;
        for w in 0..count {
            for obj in &self.objects {
                let start = obj.start;
                let end = obj.model.end();
                let keep_until = horizon.min(end);
                let first = obj.model.observations()[0].1;
                states[obj.offset + w] = first;
                let mut current = first;
                for t in start..end {
                    let u = rng.gen::<f64>();
                    if t >= keep_until {
                        // Draw consumed, state not materialised — same
                        // prefix discipline as the per-world sampler.
                        continue;
                    }
                    let next = obj
                        .model
                        .sample_transition(t, current, u)
                        .expect("reachable states always have an adapted transition row");
                    states[obj.offset + (t + 1 - start) as usize * capacity + w] = next;
                    current = next;
                }
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
    /// position `w`. `None` if `t` is outside the object's materialised
    /// interval `[start, prefix_end]` (exactly when the per-world trajectory
    /// would not cover `t` either).
    #[inline]
    pub fn states_at(&self, obj: usize, t: Timestamp) -> Option<&[StateId]> {
        let o = self.objects.get(obj)?;
        if t < o.start || t > o.prefix_end {
            return None;
        }
        let base = o.offset + (t - o.start) as usize * self.capacity;
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
    use crate::world::PossibleWorld;
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

    #[test]
    fn block_fill_is_bit_identical_to_per_world_prefix_sampling() {
        let sampler = sampler();
        for horizon in [0u32, 2, 4, 100] {
            let mut rng_block = StdRng::seed_from_u64(42);
            let mut rng_world = StdRng::seed_from_u64(42);
            let mut block = WorldBlock::for_sampler(&sampler, horizon, WORLD_BLOCK_WIDTH);
            let mut world = PossibleWorld::empty();
            // Two full blocks and one partial block.
            for count in [WORLD_BLOCK_WIDTH, WORLD_BLOCK_WIDTH, 13] {
                block.fill(&mut rng_block, count);
                assert_eq!(block.count(), count);
                for w in 0..count {
                    sampler.sample_world_prefix_into(&mut rng_world, &mut world, horizon);
                    for (obj, (id, tr)) in world.trajectories().iter().enumerate() {
                        assert_eq!(block.object_id(obj), Some(*id));
                        for t in tr.start()..=tr.end() {
                            assert_eq!(
                                block.state(obj, t, w),
                                tr.state_at(t),
                                "horizon={horizon} w={w} obj={obj} t={t}"
                            );
                        }
                        // And nothing outside the trajectory's coverage.
                        assert_eq!(block.states_at(obj, tr.end() + 1), None);
                        assert_eq!(
                            block.states_at(obj, tr.start().wrapping_sub(1)),
                            None,
                            "before start"
                        );
                    }
                }
            }
            // Both paths consumed the same number of RNG draws.
            use rand::Rng as _;
            assert_eq!(rng_block.gen::<u64>(), rng_world.gen::<u64>(), "horizon={horizon}");
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
        let block = WorldBlock::for_sampler(&WorldSampler::new(), 10, WORLD_BLOCK_WIDTH);
        assert_eq!(block.num_objects(), 0);
        assert_eq!(block.states_at(0, 0), None);
        assert_eq!(block.object_id(0), None);
    }
}
