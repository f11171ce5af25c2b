//! Possible-world sampling.
//!
//! "Doing this for each object o ∈ D yields a (certain) trajectory database,
//! on which exact NN-queries can be answered using previous work"
//! (Section 5.2.3). A [`WorldSampler`] holds the adapted models of all objects
//! relevant to a query (candidates plus influence objects after pruning) and
//! draws complete possible worlds; objects are sampled independently, matching
//! the paper's object-independence assumption.

use crate::posterior::PosteriorSampler;
use rand::Rng;
use std::sync::Arc;
use ust_markov::AdaptedModel;
use ust_trajectory::{ObjectId, Trajectory};

/// One sampled possible world: a certain trajectory per object.
#[derive(Debug, Clone)]
pub struct PossibleWorld {
    trajectories: Vec<(ObjectId, Trajectory)>,
}

impl PossibleWorld {
    /// Creates a world with no objects, to be filled by
    /// [`WorldSampler::sample_world_into`].
    pub fn empty() -> Self {
        PossibleWorld { trajectories: Vec::new() }
    }

    /// The sampled trajectories, in the sampler's object order.
    pub fn trajectories(&self) -> &[(ObjectId, Trajectory)] {
        &self.trajectories
    }

    /// View as `(id, &Trajectory)` pairs.
    ///
    /// The certain-world NN primitives in `ust-trajectory` are generic over
    /// `Borrow<Trajectory>`, so [`PossibleWorld::trajectories`] can be handed
    /// to them directly; this allocating view only remains for callers that
    /// need to mix trajectories from several worlds into one slice.
    pub fn as_refs(&self) -> Vec<(ObjectId, &Trajectory)> {
        self.trajectories.iter().map(|(id, tr)| (*id, tr)).collect()
    }

    /// The trajectory of a specific object, if it is part of this world.
    pub fn trajectory_of(&self, id: ObjectId) -> Option<&Trajectory> {
        self.trajectories.iter().find(|(oid, _)| *oid == id).map(|(_, tr)| tr)
    }

    /// Number of objects in the world.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the world contains no objects.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }
}

/// Draws possible worlds from the adapted models of a set of objects.
#[derive(Debug, Clone, Default)]
pub struct WorldSampler {
    models: Vec<(ObjectId, Arc<AdaptedModel>)>,
}

impl WorldSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        WorldSampler { models: Vec::new() }
    }

    /// Creates a sampler over the given adapted models.
    pub fn from_models(models: Vec<(ObjectId, Arc<AdaptedModel>)>) -> Self {
        WorldSampler { models }
    }

    /// Adds an object.
    pub fn push(&mut self, id: ObjectId, model: Arc<AdaptedModel>) {
        self.models.push((id, model));
    }

    /// The objects this sampler covers.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.models.iter().map(|(id, _)| *id)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the sampler has no objects.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The adapted model of an object.
    pub fn model_of(&self, id: ObjectId) -> Option<&Arc<AdaptedModel>> {
        self.models.iter().find(|(oid, _)| *oid == id).map(|(_, m)| m)
    }

    /// The `(object, adapted model)` pairs in sampler order — the object
    /// order every world is sampled in. [`crate::block::WorldBlock`] snapshots
    /// this to lay out its per-object arenas.
    pub fn models(&self) -> &[(ObjectId, Arc<AdaptedModel>)] {
        &self.models
    }

    /// Draws one possible world (each object sampled independently).
    pub fn sample_world<R: Rng>(&self, rng: &mut R) -> PossibleWorld {
        let trajectories = self
            .models
            .iter()
            .map(|(id, model)| (*id, PosteriorSampler::new(model).sample(rng)))
            .collect();
        PossibleWorld { trajectories }
    }

    /// Draws `n` independent possible worlds.
    pub fn sample_worlds<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<PossibleWorld> {
        (0..n).map(|_| self.sample_world(rng)).collect()
    }

    /// Draws one possible world *into* an existing buffer, reusing each
    /// trajectory's state allocation across draws. Consumes the RNG exactly
    /// like [`sample_world`](Self::sample_world), so a loop that switches to
    /// this method observes bit-identical worlds without one trajectory
    /// allocation per object per world.
    pub fn sample_world_into<R: Rng>(&self, rng: &mut R, world: &mut PossibleWorld) {
        world.trajectories.truncate(self.models.len());
        for (i, (id, model)) in self.models.iter().enumerate() {
            let sampler = PosteriorSampler::new(model);
            match world.trajectories.get_mut(i) {
                Some((slot_id, trajectory)) => {
                    *slot_id = *id;
                    sampler.sample_into(rng, trajectory);
                }
                None => {
                    let mut trajectory = Trajectory::new(model.start(), vec![0]);
                    sampler.sample_into(rng, &mut trajectory);
                    world.trajectories.push((*id, trajectory));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ust_markov::{CsrMatrix, MarkovModel};

    fn two_object_sampler() -> WorldSampler {
        // Figure 1: o1 over states {s1..s4} = {0..3}, o2 over the same space.
        let model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(1, 0.5), (3, 0.5)],
        ]));
        let o1 = Arc::new(AdaptedModel::build(&model, &[(1, 1)]).unwrap());
        let o2 = Arc::new(AdaptedModel::build(&model, &[(1, 2), (3, 0)]).unwrap());
        WorldSampler::from_models(vec![(1, o1), (2, o2)])
    }

    #[test]
    fn worlds_contain_every_object_with_consistent_trajectories() {
        let sampler = two_object_sampler();
        let mut rng = StdRng::seed_from_u64(0);
        for world in sampler.sample_worlds(50, &mut rng) {
            assert_eq!(world.len(), 2);
            assert!(!world.is_empty());
            let t1 = world.trajectory_of(1).unwrap();
            let t2 = world.trajectory_of(2).unwrap();
            assert!(t1.consistent_with(sampler.model_of(1).unwrap().observations()));
            assert!(t2.consistent_with(sampler.model_of(2).unwrap().observations()));
            assert!(world.trajectory_of(3).is_none());
        }
    }

    #[test]
    fn as_refs_preserves_order_and_ids() {
        let sampler = two_object_sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let world = sampler.sample_world(&mut rng);
        let refs = world.as_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].0, 1);
        assert_eq!(refs[1].0, 2);
    }

    #[test]
    fn sample_world_into_is_bit_identical_to_sample_world() {
        let sampler = two_object_sampler();
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut reused = PossibleWorld::empty();
        for _ in 0..40 {
            let fresh = sampler.sample_world(&mut rng_a);
            sampler.sample_world_into(&mut rng_b, &mut reused);
            assert_eq!(fresh.trajectories(), reused.trajectories());
        }
    }

    #[test]
    fn empty_sampler_yields_empty_worlds() {
        let sampler = WorldSampler::new();
        let mut rng = StdRng::seed_from_u64(2);
        let world = sampler.sample_world(&mut rng);
        assert!(world.is_empty());
        assert_eq!(sampler.len(), 0);
        assert!(sampler.is_empty());
    }

    #[test]
    fn push_and_lookup() {
        let mut sampler = WorldSampler::new();
        let model = MarkovModel::homogeneous(CsrMatrix::identity(2));
        let adapted = Arc::new(AdaptedModel::build(&model, &[(0, 1), (2, 1)]).unwrap());
        sampler.push(7, adapted);
        assert_eq!(sampler.len(), 1);
        assert_eq!(sampler.object_ids().collect::<Vec<_>>(), vec![7]);
        assert!(sampler.model_of(7).is_some());
        assert!(sampler.model_of(8).is_none());
    }
}
