//! Durable on-disk stores for the pnnq workspace.
//!
//! A *store* is a single file holding the expensive-to-build state of a query
//! session: the [`TrajectoryDatabase`](ust_trajectory::TrajectoryDatabase)
//! (required), the built [`UstTree`](ust_index::UstTree) and the adapted
//! (a-posteriori) Markov models (both optional). Loading a store skips the
//! model-adaptation and index-build phases entirely — a cold start becomes a
//! read-and-go.
//!
//! # Format
//!
//! The container (see [`mod@format`]) is versioned and checksummed:
//!
//! ```text
//! "USTSTORE" version(u32) section_count(u32)
//!   { id(u32) payload_len(u64) fnv1a64(u64) payload }*
//! ```
//!
//! All integers are little-endian; floats travel as IEEE-754 bit patterns, so
//! encode→decode→encode is byte-identical. Hash-map-backed structures are
//! written in sorted key order for the same reason. Each section holds what
//! queries read and nothing they can recompute. The R-tree is *not*
//! serialized: STR bulk loading is deterministic, so the tree section stores
//! only the diamond arena (each diamond with its per-timestamp rectangles)
//! plus the node capacity and rebuilds the rest. A stored adapted model is
//! its observations, a-posteriori marginals and `F(t)` rows; the alias
//! tables are rebuilt from the rows on load, and the forward beliefs, which
//! no query reads, are not kept at all.
//!
//! A build reads exactly one format version,
//! [`FORMAT_VERSION`](format::FORMAT_VERSION) (2): any other, version 1
//! included, is [`StoreError::UnsupportedVersion`].
//!
//! # Incremental ingest
//!
//! A store file is complemented by an optional sidecar write-ahead log
//! (`<store>.wal`, see [`mod@wal`]): observation appends land there as
//! checksummed, fsynced frames instead of rewriting the container, and
//! `ust_core::EngineStore` replays the log on load — truncating a torn tail
//! at the last valid frame. [`write_store`] itself stages through a
//! `<path>.tmp` sibling plus atomic rename, so checkpoints can never leave a
//! truncated container behind.
//!
//! # Hostile input
//!
//! [`decode_store`] treats its input as untrusted: every length and count is
//! proved against the remaining bytes before it sizes an allocation, every
//! structural invariant the in-memory types rely on is validated before
//! their constructors run, and every rejection is a typed [`StoreError`] —
//! never a panic. The [`fuzz`] module ships the deterministic mutator the
//! fuzz-smoke tests drive against this promise.
//!
//! # Not a competitor snapshot
//!
//! `ust_core::snapshot` serializes *query results* for golden tests; this
//! crate serializes the *engine state itself*. The two formats share nothing
//! but the FNV digest primitive.

mod codec;
pub mod error;
pub mod format;
pub mod fuzz;
pub mod store;
pub mod wal;

pub use error::StoreError;
pub use fuzz::Mutator;
pub use store::{
    decode_store, encode_store, read_store, write_store, LoadedStore, StoreContents, StoreStats,
};
pub use wal::{WalAppendStats, WalBatch, WalContents};

/// The fault points this crate registers with [`ust_fault`] (see the chaos
/// suite at the workspace root and the crash matrix in
/// `crates/bench/tests/store_recovery.rs`):
///
/// * the store write path — a hard failure, a synthetic signal interruption
///   feeding the bounded retry loop, the staging fsync and the atomic rename
///   of the temp-file protocol;
/// * the store read path — a hard failure, a retried interruption and a torn
///   section read surfacing mid-container decode;
/// * the WAL — the append write, the append fsync, the replay read and the
///   post-checkpoint truncation.
pub const FAULT_POINTS: &[&str] = &[
    "persist.read.file",
    "persist.read.interrupted",
    "persist.write.file",
    "persist.write.interrupted",
    "persist.write.sync",
    "persist.write.rename",
    "persist.read.section",
    "persist.wal.append.write",
    "persist.wal.append.sync",
    "persist.wal.replay.read",
    "persist.checkpoint.truncate",
];
