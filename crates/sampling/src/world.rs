//! Possible-world sampling.
//!
//! "Doing this for each object o ∈ D yields a (certain) trajectory database,
//! on which exact NN-queries can be answered using previous work"
//! (Section 5.2.3). A [`WorldSampler`] holds the adapted models of all objects
//! relevant to a query (candidates plus influence objects after pruning);
//! [`WorldBlock`](crate::block::WorldBlock) draws possible worlds from them, 64
//! at a time. Objects are sampled independently, matching the paper's
//! object-independence assumption.

use std::sync::Arc;
use ust_markov::AdaptedModel;
use ust_trajectory::ObjectId;

/// The adapted models possible worlds are drawn from, in the object order
/// every world is sampled in.
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

    /// The `(object, adapted model)` pairs in sampler order — the object
    /// order every world is sampled in. [`crate::block::WorldBlock`] snapshots
    /// this to lay out its per-object arenas.
    pub fn models(&self) -> &[(ObjectId, Arc<AdaptedModel>)] {
        &self.models
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{WorldBlock, WORLD_BLOCK_WIDTH};
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
        let mut block = WorldBlock::for_window(&sampler, 0..=3, WORLD_BLOCK_WIDTH);
        block.fill(&mut StdRng::seed_from_u64(0), 50);
        assert_eq!(block.num_objects(), 2);
        assert_eq!(sampler.object_ids().collect::<Vec<_>>(), vec![1, 2]);
        for (obj, (id, model)) in sampler.models().iter().enumerate() {
            assert_eq!(block.object_id(obj), Some(*id));
            for w in 0..50 {
                for &(t, s) in model.observations() {
                    assert_eq!(block.state(obj, t, w), Some(s), "object {id} world {w} t={t}");
                }
            }
        }
        assert_eq!(block.object_id(2), None);
    }

    #[test]
    fn empty_sampler_yields_empty_worlds() {
        let sampler = WorldSampler::new();
        let mut block = WorldBlock::for_window(&sampler, 0..=10, WORLD_BLOCK_WIDTH);
        block.fill(&mut StdRng::seed_from_u64(2), WORLD_BLOCK_WIDTH);
        assert_eq!(block.count(), WORLD_BLOCK_WIDTH);
        assert_eq!(block.num_objects(), 0);
        assert_eq!(sampler.len(), 0);
        assert!(sampler.is_empty());
    }
}
