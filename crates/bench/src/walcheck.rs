//! The `--wal` / `--wal-recover` incremental-ingest check of fig09.
//!
//! The `--store` round trip ([`crate::storecheck`]) proves a *full* engine
//! state survives the disk; this module proves the *incremental* path does
//! too. At every sweep point the `--wal` half holds back the tail
//! observation of every sufficiently long trajectory, saves a store built
//! from the shortened database, WAL-appends the held-back batch through
//! [`EngineStore::append_batch`], and insists the minted engine's workload
//! digest is bit-identical to a from-scratch engine over the full data. The
//! store and its WAL are deliberately left on disk: a second process running
//! `--wal-recover` loads them cold — replaying the log — and must reproduce
//! the same digests, which is exactly the crash-recovery contract of
//! DESIGN.md §10 exercised across a real process boundary.

use crate::efficiency::measure_efficiency;
use crate::errors::exit_failure;
use crate::report::ExperimentReport;
use crate::storecheck::store_point_path;
use std::path::Path;
use ust_core::{EngineConfig, EngineStore, QueryEngine};
use ust_generator::QueryWorkload;
use ust_trajectory::{ObjectId, Observation, TrajectoryDatabase, UncertainObject};

/// A database split for the ingest check: the shortened database plus the
/// held-back batch that grows it back to the original.
#[derive(Debug)]
pub struct Holdback {
    /// The original database with the held-back observations removed.
    pub pre_database: TrajectoryDatabase,
    /// One append entry per shortened object: its last observation.
    pub batch: Vec<(ObjectId, Vec<Observation>)>,
}

/// Splits `db` into a shortened copy plus the append batch restoring it:
/// every object with at least three observations gives up its last one.
/// Objects shorter than that are kept whole (an object needs two
/// observations to span an interval worth querying).
pub fn split_holdback(db: &TrajectoryDatabase) -> Holdback {
    let mut objects = Vec::with_capacity(db.len());
    let mut batch: Vec<(ObjectId, Vec<Observation>)> = Vec::new();
    for o in db.objects() {
        let obs = o.observations();
        if obs.len() >= 3 {
            let (head, tail) = obs.split_at(obs.len() - 1);
            objects.push(
                UncertainObject::new(o.id(), head.to_vec())
                    .expect("a prefix of a valid observation sequence is valid"),
            );
            batch.push((o.id(), tail.to_vec()));
        } else {
            objects.push(o.clone());
        }
    }
    let pre_database = TrajectoryDatabase::with_objects(
        db.state_space().clone(),
        db.shared_model().clone(),
        objects,
    );
    Holdback { pre_database, batch }
}

/// The `--wal` half: saves a store of `holdback.pre_database`, WAL-appends
/// `holdback.batch`, re-measures the workload on the grown store's engine
/// and verifies its digest equals `fresh_digest` (the from-scratch engine
/// over the full data). Writes `wal_bytes_<point>` and
/// `wal_observations_<point>` into the report meta and leaves the store and
/// its WAL on disk for a later `--wal-recover` process. Any failure — write,
/// append, or a digest mismatch — is fatal via [`exit_failure`].
#[allow(clippy::too_many_arguments)]
pub fn wal_ingest_check(
    binary: &str,
    report: &mut ExperimentReport,
    base: &str,
    point: &str,
    config: EngineConfig,
    workload: &QueryWorkload,
    fresh_digest: u64,
    holdback: &Holdback,
) {
    let path = store_point_path(base, point);
    if holdback.batch.is_empty() {
        exit_failure(
            binary,
            &format!("incremental ingest at {path}"),
            &"no ingested object has enough observations to hold one back; \
              --wal needs trajectories of at least three observations",
        );
    }
    // A store (or WAL) left behind by an unrelated earlier run would make
    // replay disagree with the batch; start every point from a clean slate.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ust_persist::wal::wal_path(Path::new(&path)));

    let pre_engine = QueryEngine::new(&holdback.pre_database, config.clone());
    if let Err(e) = pre_engine.save_store(&path) {
        exit_failure(binary, &format!("cannot write store {path}"), &e);
    }
    let mut store = match EngineStore::load(&path) {
        Ok(store) => store,
        Err(e) => exit_failure(binary, &format!("cannot load store {path}"), &e),
    };
    let appended = match store.append_batch(&holdback.batch) {
        Ok(stats) => stats,
        Err(e) => exit_failure(binary, &format!("cannot append to store {path}"), &e),
    };
    let grown = store.engine(config);
    let replay = match measure_efficiency(&grown, workload) {
        Ok(replay) => replay,
        Err(e) => exit_failure(binary, &format!("replay of store {path}"), &e),
    };
    if replay.digest != fresh_digest {
        exit_failure(
            binary,
            &format!("incremental ingest at {path}"),
            &"appended-store result digest differs from the from-scratch engine",
        );
    }
    eprintln!(
        "[{binary}] wal {path}.wal: appended {} observations ({} bytes logged), digest verified",
        appended.observations, appended.wal_bytes,
    );
    report.set_meta(format!("wal_bytes_{point}"), appended.wal_bytes as f64);
    report.set_meta(format!("wal_observations_{point}"), appended.observations as f64);
}

/// The `--wal-recover` half: loads the store a previous `--wal` process left
/// behind — which replays its WAL — and verifies the recovered engine's
/// workload digest equals `fresh_digest`. A store with nothing to replay is
/// fatal: this check exists to prove cross-process WAL recovery, so it
/// refuses to silently pass on a bare container. Writes
/// `wal_replayed_frames_<point>` and `wal_torn_bytes_<point>` into the
/// report meta.
pub fn wal_recover_check(
    binary: &str,
    report: &mut ExperimentReport,
    base: &str,
    point: &str,
    config: EngineConfig,
    workload: &QueryWorkload,
    fresh_digest: u64,
) {
    let path = store_point_path(base, point);
    let store = match EngineStore::load(&path) {
        Ok(store) => store,
        Err(e) => exit_failure(
            binary,
            &format!("cannot load store {path} (run --wal first to create it)"),
            &e,
        ),
    };
    let wal = *store.wal_stats();
    if wal.frames == 0 {
        exit_failure(
            binary,
            &format!("recovery at {path}"),
            &"the store has no WAL frames to replay; run --wal first",
        );
    }
    let recovered = store.engine(config);
    let replay = match measure_efficiency(&recovered, workload) {
        Ok(replay) => replay,
        Err(e) => exit_failure(binary, &format!("replay of recovered store {path}"), &e),
    };
    if replay.digest != fresh_digest {
        exit_failure(
            binary,
            &format!("recovery at {path}"),
            &"recovered result digest differs from the from-scratch engine",
        );
    }
    eprintln!(
        "[{binary}] wal {path}.wal: replayed {} frames / {} observations, digest verified",
        wal.frames, wal.observations,
    );
    report.set_meta(format!("wal_replayed_frames_{point}"), wal.frames as f64);
    report.set_meta(format!("wal_torn_bytes_{point}"), wal.torn_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunScale;
    use crate::datasets::{build_queries, build_synthetic, ScaleParams};
    use ust_core::EngineConfig;

    #[test]
    fn holdback_splits_tails_and_restores_through_append() {
        let mut params = ScaleParams::for_scale(RunScale::Quick);
        params.num_queries = 2;
        let ds = build_synthetic(&params, 400, params.branching, 40, 7);
        let holdback = split_holdback(&ds.database);
        assert!(!holdback.batch.is_empty(), "the synthetic objects are long enough");
        assert_eq!(holdback.pre_database.len(), ds.database.len(), "no object disappears");
        for (id, obs) in &holdback.batch {
            assert_eq!(obs.len(), 1, "exactly the last observation is held back");
            let pre = holdback.pre_database.object(*id).unwrap();
            let full = ds.database.object(*id).unwrap();
            assert_eq!(pre.num_observations() + 1, full.num_observations());
            assert_eq!(obs[0], *full.observations().last().unwrap());
        }

        // Applying the batch in memory restores the original database: the
        // digest over a query workload agrees with the full build.
        let mut grown = split_holdback(&ds.database).pre_database;
        for (id, obs) in &holdback.batch {
            grown.append_observations(*id, obs).expect("the holdback batch applies");
        }
        let queries = build_queries(&ds, &params, 7);
        let config =
            EngineConfig { num_samples: 30, seed: 7, adaptation_threads: 1, ..Default::default() };
        let measure = |db| {
            measure_efficiency(&QueryEngine::new(db, config.clone()), &queries).expect("unlimited")
        };
        let full = measure(&ds.database);
        let regrown = measure(&grown);
        assert_eq!(full.digest, regrown.digest, "holdback + append is lossless");
    }
}
