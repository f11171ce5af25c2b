//! # pnnq — Probabilistic Nearest Neighbor Queries on Uncertain Moving Object Trajectories
//!
//! A from-scratch Rust reproduction of Niedermayer, Züfle, Emrich, Renz,
//! Mamoulis, Chen, Kriegel: *Probabilistic Nearest Neighbor Queries on
//! Uncertain Moving Object Trajectories*, PVLDB 7(3), 2013.
//!
//! This facade crate re-exports the full public API of the workspace:
//!
//! * [`spatial`] — geometry, discrete state spaces and the STR-packed R-tree
//!   (static between index refreshes, so always bulk-loaded),
//! * [`markov`] — sparse Markov chains and the forward–backward model
//!   adaptation (Algorithm 2),
//! * [`trajectory`] — observations, uncertain objects, the trajectory
//!   database and certain-world NN primitives,
//! * [`sampling`] — rejection and a-posteriori trajectory samplers,
//! * [`index`] — the UST-tree with `dmin`/`dmax` pruning,
//! * [`persist`] — versioned, checksummed on-disk stores for the database,
//!   the UST-tree and adapted models, behind a fuzz-hardened decoder,
//! * [`core`] — the P∃NN / P∀NN / PCNN / kNN query semantics (sampling-based,
//!   exact and snapshot evaluation) plus cold-starting engines from a store,
//! * [`generator`] — synthetic and simulated-taxi workload generators, the
//!   T-Drive-format loader and the map-matching real-data ingestion pipeline.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough and `DESIGN.md`
//! for the architecture and the per-experiment index.

pub use ust_core as core;
pub use ust_generator as generator;
pub use ust_index as index;
pub use ust_markov as markov;
pub use ust_persist as persist;
pub use ust_sampling as sampling;
pub use ust_spatial as spatial;
pub use ust_trajectory as trajectory;

/// Commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use ust_core::{
        AdaptationCache, CacheStats, DatabaseSummary, EngineConfig, EngineStore,
        ObjectProbability, PcnnOutcome, PrepareOutcome, Query, QueryEngine, QueryOutcome,
    };
    pub use ust_persist::{StoreError, StoreStats};
    pub use ust_generator::{
        learn_model_from_matches, map_match, Dataset, GeoFrame, LoadError, LoadErrorKind,
        LoadOutcome, MapMatchConfig, MapMatchOutcome, MatchStats, MatchedObject,
        ObjectWorkloadConfig, QueryWorkload, QueryWorkloadConfig, RawFix, RoadNetworkConfig,
        SyntheticNetworkConfig, TaxiWorkloadConfig,
    };
    pub use ust_index::{IndexBuildStats, UstTree, UstTreeConfig};
    pub use ust_markov::{AdaptedModel, CsrMatrix, MarkovModel, ModelAdaptation, Timestamp};
    pub use ust_sampling::{PosteriorSampler, WorldSampler};
    pub use ust_spatial::{Point, Rect2, Rect3, StateId, StateSpace};
    pub use ust_trajectory::{ObjectId, Observation, Trajectory, TrajectoryDatabase, UncertainObject};
}
