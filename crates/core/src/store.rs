//! Cold-starting a query engine from an on-disk store, and growing that
//! store incrementally through the write-ahead log.
//!
//! [`QueryEngine`] borrows its database, so something has
//! to *own* the state a store file yields. That is [`EngineStore`]: it holds
//! the decoded database, the UST-tree behind an [`Arc`], and the adapted
//! models, and mints borrowing engines on demand. Every engine minted from
//! one store shares the same tree allocation (no per-engine rebuild or
//! clone), and its adaptation cache starts pre-warmed with the stored
//! models — the two expensive start-up phases the store exists to skip.
//! A store holds whole-history models, one per object: each serves every
//! query window of its object, while a query adapts only the observations
//! that bracket its window for an object without one, and
//! [`QueryEngine::save_store`] leaves those bracket models out.
//!
//! ```no_run
//! use ust_core::{EngineConfig, EngineStore};
//!
//! let store = EngineStore::load("fig06.ustore")?;
//! let engine = store.engine(EngineConfig::default());
//! # Ok::<(), ust_persist::StoreError>(())
//! ```
//!
//! # Incremental ingest
//!
//! A file-backed store also accepts appends without rewriting the container:
//! [`EngineStore::append_batch`] durably logs one batch of observations to
//! the sidecar WAL (`<store>.wal`, see [`ust_persist::wal`]) *before*
//! applying it in memory, and [`EngineStore::checkpoint`] folds the log back
//! into a freshly written container (temp file + atomic rename) and drops
//! it. [`EngineStore::load`] replays whatever the log holds — truncating a
//! torn tail at the last valid frame — so a crash at any point recovers to
//! either the pre-batch or the post-batch state, never a third one. The
//! crash matrix in `crates/bench/tests/store_recovery.rs` proves exactly
//! that for every cataloged fault point.
//!
//! Appends keep the UST-tree but mark the touched objects stale in it: only
//! their diamond runs no longer cover their grown trajectories. The next
//! [`EngineStore::engine`] mint refreshes the tree once — keeping every
//! diamond it has, building only the segments appended since and re-packing
//! the arena, see [`UstTree::refresh`] — at a cost proportional to the new
//! segments plus one STR bulk load, and every later mint shares the
//! refreshed tree.
//! The refreshed tree equals a from-scratch build over the grown database,
//! so answers do not depend on how the store grew. A checkpoint writes the
//! current tree, refreshing it first if appends made it stale. Appends also
//! drop the adapted models of every touched object (their observation
//! history changed, so the cached a-posteriori matrices are stale; untouched
//! objects keep their models).

use crate::engine::{AdaptedModels, EngineConfig, QueryEngine};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use ust_index::{UstTree, UstTreeConfig};
use ust_persist::{wal, LoadedStore, StoreContents, StoreError, StoreStats, WalAppendStats};
use ust_trajectory::{ObjectId, Observation, TrajectoryDatabase};

/// What [`EngineStore::load`] replayed from the sidecar WAL (all zero when
/// no WAL was present).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplayStats {
    /// Valid frames replayed.
    pub frames: usize,
    /// Observations actually applied to the database.
    pub observations: usize,
    /// Observations skipped because the container already held them (the
    /// idempotent-replay rule: a checkpoint that crashed before truncating
    /// its WAL leaves frames behind that are already folded in).
    pub skipped_observations: usize,
    /// Bytes of torn tail truncated off the WAL during recovery.
    pub torn_bytes: u64,
    /// Valid WAL bytes after recovery (0 when no WAL was present).
    pub wal_bytes: u64,
}

/// The store's UST-tree across appends: the current tree once one is known,
/// otherwise the last current tree and the objects appended to since.
#[derive(Debug, Default)]
struct StoreIndex {
    /// The tree over the current database: decoded, or cached by the first
    /// mint (or checkpoint) after an append. A refresh that panics leaves it
    /// unset, so no half-refreshed tree is ever cached.
    current: OnceLock<Arc<UstTree>>,
    /// The last current tree while `current` is unset: the start of the next
    /// refresh, which releases it (`None` when the store has never had a
    /// tree). Behind a lock because the refresh runs under `&self`.
    base: Mutex<Option<Arc<UstTree>>>,
    /// Objects appended to since `base` was current.
    stale: Vec<ObjectId>,
}

impl StoreIndex {
    fn new(tree: Option<UstTree>) -> Self {
        let current = tree.map_or_else(OnceLock::new, |tree| OnceLock::from(Arc::new(tree)));
        StoreIndex { current, ..Self::default() }
    }

    /// The stale base. Every update replaces the whole value, so a poisoned
    /// lock still guards a valid one.
    fn base(&self) -> MutexGuard<'_, Option<Arc<UstTree>>> {
        self.base.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the store has a tree to keep: a current one or a stale base.
    fn has_tree(&self) -> bool {
        self.current.get().is_some() || self.base().is_some()
    }

    /// Marks `touched` stale: the current tree becomes the next refresh's base.
    fn mark_stale(&mut self, touched: &[ObjectId]) {
        if let Some(tree) = self.current.take() {
            *self.base() = Some(tree);
            self.stale.clear();
        }
        self.stale.extend_from_slice(touched);
        self.stale.sort_unstable();
        self.stale.dedup();
    }

    /// The tree over `db`: the current one, else the base refreshed over the
    /// stale objects (or, for a store that never had a tree, a full build),
    /// cached for every later call.
    fn get_or_refresh(&self, db: &TrajectoryDatabase, build_threads: usize) -> &Arc<UstTree> {
        self.current.get_or_init(|| {
            let base = self.base().clone();
            let tree = match base {
                Some(base) => base.refresh(db, &self.stale, build_threads),
                None => {
                    UstTree::build_with(db, &UstTreeConfig { build_threads, ..Default::default() })
                }
            };
            // Only a finished refresh releases the base: the store then holds
            // one tree, not two.
            *self.base() = None;
            Arc::new(tree)
        })
    }
}

/// An owning, ready-to-query view of a decoded store: the counterpart of
/// [`QueryEngine::save_store`](crate::QueryEngine::save_store).
#[derive(Debug)]
pub struct EngineStore {
    database: TrajectoryDatabase,
    index: StoreIndex,
    models: AdaptedModels,
    stats: StoreStats,
    path: Option<PathBuf>,
    wal: WalReplayStats,
}

impl EngineStore {
    /// Reads, decodes and validates a store file, then replays its sidecar
    /// WAL (if one exists) into the database. A torn WAL tail is truncated
    /// at the last valid frame — on disk too, so subsequent appends land on
    /// a frame boundary. Corruption beyond a torn tail is a typed error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let mut store = Self::from_loaded(ust_persist::read_store(path)?);
        store.path = Some(path.to_path_buf());
        store.replay_wal()?;
        Ok(store)
    }

    /// Decodes and validates a store from raw bytes. The result is not
    /// file-backed: [`Self::append_batch`] and [`Self::checkpoint`] return
    /// [`StoreError::NotFileBacked`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Ok(Self::from_loaded(ust_persist::decode_store(bytes)?))
    }

    fn from_loaded(loaded: LoadedStore) -> Self {
        EngineStore {
            database: loaded.database,
            index: StoreIndex::new(loaded.index),
            models: loaded.models,
            stats: loaded.stats,
            path: None,
            wal: WalReplayStats::default(),
        }
    }

    /// Replays the sidecar WAL into the in-memory database and repairs a
    /// torn tail on disk. Called once from [`Self::load`].
    fn replay_wal(&mut self) -> Result<(), StoreError> {
        let Some(path) = self.path.clone() else { return Ok(()) };
        let wal_file = wal::wal_path(&path);
        let Some(contents) = wal::read_wal(&wal_file)? else { return Ok(()) };
        if contents.torn_bytes() > 0 {
            wal::repair_wal(&wal_file, contents.valid_len)?;
        }
        let mut stats = WalReplayStats {
            frames: contents.batches.len(),
            torn_bytes: contents.torn_bytes(),
            wal_bytes: contents.valid_len,
            ..WalReplayStats::default()
        };
        let mut touched: Vec<ObjectId> = Vec::new();
        for batch in &contents.batches {
            for (id, observations) in batch {
                let (applied, skipped) = replay_append(&mut self.database, *id, observations)?;
                stats.observations += applied;
                stats.skipped_observations += skipped;
                if applied > 0 {
                    touched.push(*id);
                }
            }
        }
        self.invalidate(&touched);
        self.wal = stats;
        Ok(())
    }

    /// Durably appends one batch of observations: the batch is validated
    /// against the current database, written to the WAL as one fsynced frame
    /// (the atomic unit), and only then applied in memory. Per entry, the
    /// observations extend the identified object's chronological tail — or
    /// create the object if the id is new. A rejected batch (typed error)
    /// leaves the log, the database and the derived state untouched.
    ///
    /// Appending marks the touched objects stale in the UST-tree, so
    /// [`Self::index`] reads `None` until the next [`Self::engine`] mint
    /// refreshes it, and drops the touched objects' adapted models, which
    /// minted engines re-adapt lazily (see the module docs).
    /// [`Self::checkpoint`] folds the log back into the container once the
    /// batch stream quiets down.
    pub fn append_batch(
        &mut self,
        batch: &[(ObjectId, Vec<Observation>)],
    ) -> Result<WalAppendStats, StoreError> {
        let Some(path) = self.path.clone() else { return Err(StoreError::NotFileBacked) };
        self.validate_batch(batch)?;
        // Durability first: the frame hits the log (write + fsync) before
        // memory changes. A fault between the two is recovered by replay.
        let stats = wal::append_frame(&wal::wal_path(&path), batch)?;
        let mut touched: Vec<ObjectId> = Vec::with_capacity(batch.len());
        for (id, observations) in batch {
            // validate_batch proved every entry; a failure here would mean
            // the validation and application disagree — surface it as the
            // typed error rather than panicking.
            self.database
                .append_observations(*id, observations)
                .map_err(|_| StoreError::Malformed { context: "wal batch failed to apply" })?;
            touched.push(*id);
        }
        self.invalidate(&touched);
        Ok(stats)
    }

    /// Folds the WAL back into the container: rewrites the `.ustore` with
    /// the current state (staged temp file + fsync + atomic rename, see
    /// [`ust_persist::write_store`]), then removes the log. A fault after
    /// the rename but before the removal leaves a stale WAL whose frames the
    /// container already holds — harmless, because replay skips exact
    /// duplicates (and errs on any disagreement).
    ///
    /// The container carries the current UST-tree: a tree that appends made
    /// stale is refreshed first (and cached for later mints), so a reloaded
    /// store starts with a tree over its whole database. A store that has
    /// never had a tree writes none.
    pub fn checkpoint(&mut self) -> Result<StoreStats, StoreError> {
        let Some(path) = self.path.clone() else { return Err(StoreError::NotFileBacked) };
        let index =
            self.index.has_tree().then(|| self.index.get_or_refresh(&self.database, 0).as_ref());
        let contents = StoreContents { database: &self.database, index, models: &self.models };
        let written = ust_persist::write_store(&path, &contents)?;
        wal::truncate_wal(&wal::wal_path(&path))?;
        self.stats = written.clone();
        self.wal = WalReplayStats::default();
        Ok(written)
    }

    /// Validates a whole batch against the current database without touching
    /// it: every entry non-empty, every state inside the state space, every
    /// time strictly increasing — within the entry, past the object's stored
    /// tail, and past earlier entries of the same batch that touch the same
    /// object.
    fn validate_batch(&self, batch: &[(ObjectId, Vec<Observation>)]) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Err(StoreError::Malformed { context: "wal frame with zero appends" });
        }
        let num_states = self.database.state_space().len();
        for (i, (id, observations)) in batch.iter().enumerate() {
            let Some(first) = observations.first() else {
                return Err(StoreError::Malformed { context: "wal append with zero observations" });
            };
            for w in observations.windows(2) {
                if let [a, b] = w {
                    if a.time >= b.time {
                        return Err(StoreError::Malformed {
                            context: "wal append times not strictly increasing",
                        });
                    }
                }
            }
            for o in observations {
                if (o.state as usize) >= num_states {
                    return Err(StoreError::Malformed { context: "wal append state out of range" });
                }
            }
            let prior_in_batch = batch
                .iter()
                .take(i)
                .filter(|(pid, _)| pid == id)
                .filter_map(|(_, obs)| obs.last().map(|o| o.time))
                .max();
            let stored = self.database.object(*id).map(|o| o.last_time());
            if let Some(last) = prior_in_batch.into_iter().chain(stored).max() {
                if first.time <= last {
                    return Err(StoreError::Malformed {
                        context: "appended observation time not after the object's last",
                    });
                }
            }
        }
        Ok(())
    }

    /// Records appends to `touched`: marks them stale in the UST-tree (their
    /// diamonds no longer cover the grown trajectories; the next mint
    /// refreshes them) and drops the adapted models of exactly those objects.
    fn invalidate(&mut self, touched: &[ObjectId]) {
        if touched.is_empty() {
            return;
        }
        let mut ids: Vec<ObjectId> = touched.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.index.mark_stale(&ids);
        self.models.retain(|(id, _)| ids.binary_search(id).is_err());
    }

    /// The decoded trajectory database (with any WAL frames replayed).
    pub fn database(&self) -> &TrajectoryDatabase {
        &self.database
    }

    /// The current UST-tree: the decoded one, or the one the last mint (or
    /// checkpoint) refreshed or built. `None` between an append and the next
    /// mint, and for a tree-less store before its first indexed mint. The
    /// `Arc` is the same allocation every engine minted since shares.
    pub fn index(&self) -> Option<&Arc<UstTree>> {
        self.index.current.get()
    }

    /// The decoded whole-history models, sorted by object id (minus those
    /// dropped by appends to their objects).
    pub fn models(&self) -> &AdaptedModels {
        &self.models
    }

    /// Size, shape and load timing of the store this was decoded from (or
    /// last checkpointed to).
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// What [`Self::load`] replayed from the WAL, plus what
    /// [`Self::append_batch`] has since appended to it. Reset to zero by a
    /// successful [`Self::checkpoint`].
    pub fn wal_stats(&self) -> &WalReplayStats {
        &self.wal
    }

    /// The store file backing this instance (`None` when decoded from raw
    /// bytes via [`Self::from_bytes`]).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Mints a query engine over the stored state. With `config.use_index`
    /// set, the engine shares the store's current UST-tree (no rebuild). The
    /// first mint after appends (or after a load that replayed the WAL)
    /// refreshes the stale tree on `config.index_build_threads` workers —
    /// building only the segments appended since, then one STR re-pack — and
    /// caches it for every later mint; a tree-less store builds the whole
    /// tree the same way, exactly like [`QueryEngine::new`]. A panic inside
    /// the refresh propagates and caches nothing. The engine's adaptation
    /// cache starts pre-warmed with the stored whole-history models.
    pub fn engine(&self, config: EngineConfig) -> QueryEngine<'_> {
        let engine = if config.use_index {
            let tree = self.index.get_or_refresh(&self.database, config.index_build_threads);
            QueryEngine::with_index(&self.database, tree.clone(), config)
        } else {
            QueryEngine::new(&self.database, config)
        };
        engine.preload_models(self.models.iter().cloned());
        engine
    }
}

/// Applies one replayed WAL entry to the database, idempotently: a leading
/// run of observations at or before the object's stored tail must match the
/// stored values exactly (the checkpoint already holds them — skipped), the
/// rest is appended. Any disagreement with the stored data, an out-of-range
/// state, or a tail the append API rejects is a typed error — a
/// checksum-valid frame that contradicts its own store is corruption, not a
/// torn write. Returns `(applied, skipped)` observation counts.
fn replay_append(
    db: &mut TrajectoryDatabase,
    id: ObjectId,
    observations: &[Observation],
) -> Result<(usize, usize), StoreError> {
    let num_states = db.state_space().len();
    for o in observations {
        if (o.state as usize) >= num_states {
            return Err(StoreError::Malformed { context: "wal append state out of range" });
        }
    }
    let skipped = match db.object(id) {
        Some(existing) => {
            let last = existing.last_time();
            let skipped = observations.partition_point(|o| o.time <= last);
            for o in observations.iter().take(skipped) {
                if existing.observed_state_at(o.time) != Some(o.state) {
                    return Err(StoreError::Malformed {
                        context: "wal frame disagrees with the stored database",
                    });
                }
            }
            skipped
        }
        None => 0,
    };
    let fresh = observations.get(skipped..).unwrap_or(&[]);
    if fresh.is_empty() {
        return Ok((0, skipped));
    }
    db.append_observations(id, fresh)
        .map_err(|_| StoreError::Malformed { context: "wal batch failed to apply" })?;
    Ok((fresh.len(), skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::{Point, StateSpace};
    use ust_trajectory::UncertainObject;

    fn tiny_database() -> TrajectoryDatabase {
        let space = StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        let matrix = CsrMatrix::from_rows(vec![
            vec![(0, 0.5), (1, 0.5)],
            vec![(1, 0.25), (2, 0.75)],
            vec![(0, 1.0)],
        ]);
        let objects = vec![
            UncertainObject::from_pairs(7, vec![(0, 0), (2, 2), (5, 1)]).unwrap(),
            UncertainObject::from_pairs(9, vec![(1, 1), (3, 0)]).unwrap(),
        ];
        TrajectoryDatabase::with_objects(
            Arc::new(space),
            Arc::new(MarkovModel::homogeneous(matrix)),
            objects,
        )
    }

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ust_core_store_{}_{tag}.ustore", std::process::id()))
    }

    fn write_tiny_store(path: &Path) {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        ust_persist::write_store(path, &contents).unwrap();
    }

    fn write_tiny_store_with_tree(path: &Path) {
        let db = tiny_database();
        let tree = UstTree::build(&db);
        let contents = StoreContents { database: &db, index: Some(&tree), models: &[] };
        ust_persist::write_store(path, &contents).unwrap();
    }

    /// Asserts `tree` is the from-scratch build over `db`.
    fn assert_from_scratch(tree: &UstTree, db: &TrajectoryDatabase) {
        let full = UstTree::build(db);
        assert_eq!(tree.diamonds(), full.diamonds());
        assert_eq!(tree.num_objects(), db.len());
        assert_eq!(tree.build_stats().diamonds, tree.num_diamonds());
        tree.check_invariants().unwrap();
    }

    fn obs(pairs: &[(u32, u32)]) -> Vec<Observation> {
        pairs.iter().map(|&(t, s)| Observation::new(t, s)).collect()
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal::wal_path(path));
    }

    #[test]
    fn append_batch_logs_then_applies_and_reload_replays() {
        let path = temp_store("append");
        cleanup(&path);
        write_tiny_store(&path);

        let mut store = EngineStore::load(&path).unwrap();
        assert_eq!(store.wal_stats(), &WalReplayStats::default());
        let batch = vec![(7u32, obs(&[(6, 2), (8, 0)])), (21u32, obs(&[(1, 1)]))];
        let stats = store.append_batch(&batch).unwrap();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.observations, 3);
        assert!(wal::wal_path(&path).exists(), "the batch hit the log");
        assert_eq!(store.database().object(7).unwrap().last_time(), 8);
        assert_eq!(store.database().object(21).unwrap().first_time(), 1);

        // "Kill" the process: a fresh load replays the WAL into the same state.
        drop(store);
        let recovered = EngineStore::load(&path).unwrap();
        assert_eq!(recovered.wal_stats().frames, 1);
        assert_eq!(recovered.wal_stats().observations, 3);
        assert_eq!(recovered.wal_stats().skipped_observations, 0);
        assert_eq!(recovered.database().object(7).unwrap().last_time(), 8);
        assert_eq!(recovered.database().object(21).unwrap().first_time(), 1);
        assert_eq!(recovered.database().len(), 3);
        cleanup(&path);
    }

    #[test]
    fn rejected_batches_leave_log_and_memory_untouched() {
        let path = temp_store("reject");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();

        // Object 7's tail is t=5: an append at t=5 must be rejected.
        let err = store.append_batch(&[(7, obs(&[(5, 1)]))]).unwrap_err();
        assert!(matches!(err, StoreError::Malformed { .. }));
        // Batch-internal ordering across entries of the same object.
        let err = store
            .append_batch(&[(7, obs(&[(6, 1)])), (7, obs(&[(6, 2)]))])
            .unwrap_err();
        assert!(matches!(err, StoreError::Malformed { .. }));
        // Out-of-range state.
        let err = store.append_batch(&[(7, obs(&[(6, 99)]))]).unwrap_err();
        assert_eq!(err, StoreError::Malformed { context: "wal append state out of range" });
        // Empty batch and empty entry.
        assert!(store.append_batch(&[]).is_err());
        assert!(store.append_batch(&[(7, vec![])]).is_err());

        assert!(!wal::wal_path(&path).exists(), "no rejected batch reached the log");
        assert_eq!(store.database().object(7).unwrap().num_observations(), 3);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_folds_the_log_into_the_container() {
        let path = temp_store("checkpoint");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(9, obs(&[(10, 2)]))]).unwrap();
        let written = store.checkpoint().unwrap();
        assert!(written.bytes > 0);
        assert!(!wal::wal_path(&path).exists(), "a checkpoint retires the log");
        assert_eq!(store.wal_stats(), &WalReplayStats::default());

        let reloaded = EngineStore::load(&path).unwrap();
        assert_eq!(reloaded.database().object(9).unwrap().last_time(), 10);
        assert_eq!(reloaded.wal_stats().frames, 0);
        cleanup(&path);
    }

    #[test]
    fn mints_refresh_a_stale_tree_once_and_share_it() {
        let path = temp_store("refresh");
        cleanup(&path);
        write_tiny_store_with_tree(&path);
        let mut store = EngineStore::load(&path).unwrap();
        let decoded = Arc::downgrade(store.index().expect("the store carries a tree"));
        store.append_batch(&[(7, obs(&[(6, 2), (8, 0)])), (21, obs(&[(1, 1)]))]).unwrap();
        assert!(store.index().is_none(), "an append leaves the tree stale");
        assert!(decoded.upgrade().is_some(), "the stale tree is the next refresh's base");

        let first = store.engine(EngineConfig::with_samples(10));
        assert!(decoded.upgrade().is_none(), "the refresh released the stale tree");
        let tree = store.index().expect("the mint refreshed the tree").clone();
        assert_from_scratch(&tree, store.database());
        let stats = tree.build_stats();
        assert_eq!(stats.segments, 2 + 1, "object 7's two new segments and object 21's one");
        assert_eq!(stats.objects, 3);
        let second = store.engine(EngineConfig::with_samples(10));
        assert!(std::ptr::eq(first.index().unwrap(), second.index().unwrap()));
        assert!(std::ptr::eq(first.index().unwrap(), tree.as_ref()), "one refresh, cached");

        // Replay marks the same objects stale: a reload mints the same tree.
        drop((first, second));
        drop(store);
        let recovered = EngineStore::load(&path).unwrap();
        assert!(recovered.index().is_none(), "replayed frames leave the tree stale");
        let engine = recovered.engine(EngineConfig::with_samples(10));
        assert_from_scratch(engine.index().unwrap(), recovered.database());
        cleanup(&path);
    }

    #[test]
    fn checkpoint_after_appends_writes_the_refreshed_tree() {
        let path = temp_store("checkpoint_tree");
        cleanup(&path);
        write_tiny_store_with_tree(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(9, obs(&[(10, 2)])), (30, obs(&[(4, 0), (6, 1)]))]).unwrap();
        store.checkpoint().unwrap();
        let refreshed = store.index().expect("the checkpoint refreshed the tree");
        assert_from_scratch(refreshed, store.database());

        let reloaded = EngineStore::load(&path).unwrap();
        assert_eq!(reloaded.wal_stats().frames, 0);
        let tree = reloaded.index().expect("the container carries the tree");
        assert_from_scratch(tree, reloaded.database());
        cleanup(&path);
    }

    #[test]
    fn tree_less_stores_build_one_tree_and_checkpoint_none_until_then() {
        let path = temp_store("tree_less");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(9, obs(&[(10, 2)]))]).unwrap();
        store.checkpoint().unwrap();
        let mut reloaded = EngineStore::load(&path).unwrap();
        assert!(reloaded.index().is_none(), "no tree to refresh, none written");

        let unindexed = reloaded.engine(EngineConfig { use_index: false, ..Default::default() });
        assert!(unindexed.index().is_none());
        drop(unindexed);
        assert!(reloaded.index().is_none(), "an unindexed mint builds nothing");
        drop(reloaded.engine(EngineConfig::with_samples(10)));
        assert_from_scratch(reloaded.index().expect("the mint built one"), reloaded.database());
        reloaded.checkpoint().unwrap();
        assert!(EngineStore::load(&path).unwrap().index().is_some());
        cleanup(&path);
    }

    #[test]
    fn stale_wal_replay_after_checkpoint_is_idempotent() {
        let path = temp_store("stale");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(7, obs(&[(6, 2), (9, 1)]))]).unwrap();

        // Simulate a checkpoint that crashed after the rename but before the
        // WAL removal: keep the log aside, checkpoint, put it back.
        let wal_file = wal::wal_path(&path);
        let stale = std::fs::read(&wal_file).unwrap();
        store.checkpoint().unwrap();
        std::fs::write(&wal_file, &stale).unwrap();

        let recovered = EngineStore::load(&path).unwrap();
        assert_eq!(recovered.wal_stats().frames, 1);
        assert_eq!(recovered.wal_stats().observations, 0, "everything already checkpointed");
        assert_eq!(recovered.wal_stats().skipped_observations, 2);
        assert_eq!(recovered.database().object(7).unwrap().num_observations(), 5);

        // A frame that *disagrees* with the store is corruption, not a skip.
        let mut bytes = ust_persist::wal::encode_wal_header();
        bytes.extend_from_slice(&ust_persist::wal::encode_frame(&[(7, obs(&[(6, 0)]))]));
        std::fs::write(&wal_file, &bytes).unwrap();
        let err = EngineStore::load(&path).unwrap_err();
        assert_eq!(
            err,
            StoreError::Malformed { context: "wal frame disagrees with the stored database" }
        );
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_load() {
        let path = temp_store("torn");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(7, obs(&[(6, 2)]))]).unwrap();
        store.append_batch(&[(9, obs(&[(11, 0)]))]).unwrap();
        drop(store);

        // Tear mid-way through the second frame.
        let wal_file = wal::wal_path(&path);
        let full = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &full[..full.len() - 2]).unwrap();

        let recovered = EngineStore::load(&path).unwrap();
        assert_eq!(recovered.wal_stats().frames, 1, "the torn frame is gone");
        assert_eq!(recovered.wal_stats().torn_bytes, full.len() as u64 - 2 - recovered.wal_stats().wal_bytes);
        assert_eq!(recovered.database().object(7).unwrap().last_time(), 6);
        assert_eq!(recovered.database().object(9).unwrap().last_time(), 3, "torn batch not applied");
        // The file itself was repaired: a second load sees a clean log.
        assert_eq!(
            std::fs::metadata(&wal_file).unwrap().len(),
            recovered.wal_stats().wal_bytes
        );
        let again = EngineStore::load(&path).unwrap();
        assert_eq!(again.wal_stats().torn_bytes, 0);
        cleanup(&path);
    }

    #[test]
    fn byte_backed_stores_reject_appends_and_checkpoints() {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        let bytes = ust_persist::encode_store(&contents);
        let mut store = EngineStore::from_bytes(&bytes).unwrap();
        assert_eq!(store.path(), None);
        assert_eq!(
            store.append_batch(&[(7, obs(&[(6, 1)]))]).unwrap_err(),
            StoreError::NotFileBacked
        );
        assert_eq!(store.checkpoint().unwrap_err(), StoreError::NotFileBacked);
    }
}
