//! Whole-store encoding, decoding and file I/O.
//!
//! A store is the magic/version header followed by checksummed sections (see
//! [`crate::format`]): the trajectory database (required), the built UST-tree
//! and the adapted-model cache (both optional). Sections may appear in any
//! order on disk; decoding always resolves the database first because the
//! tree and the models are validated against it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::codec;
use crate::error::StoreError;
use crate::format::{fnv1a64, section, ByteReader, ByteWriter, FORMAT_VERSION, MAGIC};
use ust_index::UstTree;
use ust_markov::AdaptedModel;
use ust_trajectory::{ObjectId, TrajectoryDatabase};

/// Borrowed view of everything one store can hold. The database is required;
/// the index and the adapted models ride along when present (an empty model
/// slice writes no MODELS section at all).
#[derive(Debug, Clone, Copy)]
pub struct StoreContents<'a> {
    /// The trajectory database (state space, a-priori models, objects).
    pub database: &'a TrajectoryDatabase,
    /// The built UST-tree, if one should be persisted.
    pub index: Option<&'a UstTree>,
    /// Adapted models to persist, `(object id, model)` pairs: typically the
    /// whole-history models of `AdaptationCache::snapshot_models`.
    pub models: &'a [(ObjectId, Arc<AdaptedModel>)],
}

/// Size and shape of a store, plus the wall time of the operation that
/// produced these stats (decode/read time for loads, zero for writes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total container size in bytes.
    pub bytes: u64,
    /// Number of sections present.
    pub sections: usize,
    /// Objects in the database section.
    pub objects: usize,
    /// Diamonds in the tree section (0 if absent).
    pub diamonds: usize,
    /// Adapted models in the models section (0 if absent).
    pub models: usize,
    /// Wall time spent loading (decode plus file read, where applicable).
    pub load_time: Duration,
}

/// A fully decoded and validated store, ready to query.
#[derive(Debug)]
pub struct LoadedStore {
    /// The trajectory database.
    pub database: TrajectoryDatabase,
    /// The UST-tree, if the store carried one.
    pub index: Option<UstTree>,
    /// Adapted models, sorted by object id (empty if the store carried none).
    pub models: Vec<(ObjectId, Arc<AdaptedModel>)>,
    /// Size, shape and load timing.
    pub stats: StoreStats,
}

/// Encodes `contents` into the versioned, checksummed container format.
pub fn encode_store(contents: &StoreContents<'_>) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(3);
    let mut sw = ByteWriter::new();
    codec::encode_database(&mut sw, contents.database);
    sections.push((section::DATABASE, sw.into_bytes()));
    if let Some(tree) = contents.index {
        let mut sw = ByteWriter::new();
        codec::encode_tree(&mut sw, tree);
        sections.push((section::TREE, sw.into_bytes()));
    }
    if !contents.models.is_empty() {
        let mut sw = ByteWriter::new();
        codec::encode_models(&mut sw, contents.models);
        sections.push((section::MODELS, sw.into_bytes()));
    }

    let mut w = ByteWriter::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(sections.len() as u32);
    for (id, payload) in sections {
        w.u32(id);
        w.u64(payload.len() as u64);
        w.u64(fnv1a64(&payload));
        w.bytes(&payload);
    }
    w.into_bytes()
}

/// Decodes and validates a store from raw bytes.
///
/// Hostile input yields a typed [`StoreError`]; this function never panics
/// and never sizes an allocation from a length the input cannot back.
pub fn decode_store(bytes: &[u8]) -> Result<LoadedStore, StoreError> {
    let started = Instant::now();
    let mut r = ByteReader::new(bytes, "store header");
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let section_count = r.u32()?;

    // Each frame consumes at least 20 bytes of input, so pushing per parsed
    // frame (instead of pre-allocating `section_count` slots) keeps a hostile
    // count from turning into a giant reservation.
    let mut frames: Vec<(u32, &[u8])> = Vec::new();
    for _ in 0..section_count {
        // Chaos hook: a torn read surfacing mid-container, after the header
        // already validated (see tests/chaos.rs at the workspace root).
        if let Some(message) = ust_fault::inject("persist.read.section") {
            return Err(StoreError::Io { message });
        }
        r.set_context("section frame");
        let id = r.u32()?;
        let length = r.u64()?;
        let checksum = r.u64()?;
        if !matches!(id, section::DATABASE | section::TREE | section::MODELS) {
            return Err(StoreError::UnknownSection { section: id });
        }
        if frames.iter().any(|&(seen, _)| seen == id) {
            return Err(StoreError::DuplicateSection { section: id });
        }
        if length > r.remaining() as u64 {
            return Err(StoreError::SectionOverflow { section: id, length });
        }
        let payload = r.bytes(length as usize)?;
        if fnv1a64(payload) != checksum {
            return Err(StoreError::ChecksumMismatch { section: id });
        }
        frames.push((id, payload));
    }
    r.expect_end("store container")?;

    let find = |id: u32| frames.iter().find(|&&(fid, _)| fid == id).map(|&(_, p)| p);
    let db_payload = find(section::DATABASE)
        .ok_or(StoreError::MissingSection { section: section::DATABASE })?;
    let mut dr = ByteReader::new(db_payload, "database section");
    let database = codec::decode_database(&mut dr)?;
    dr.expect_end("database section")?;

    let index = match find(section::TREE) {
        Some(payload) => {
            let mut tr = ByteReader::new(payload, "tree section");
            let tree = codec::decode_tree(&mut tr, &database)?;
            tr.expect_end("tree section")?;
            Some(tree)
        }
        None => None,
    };
    let models = match find(section::MODELS) {
        Some(payload) => {
            let mut mr = ByteReader::new(payload, "models section");
            let models = codec::decode_models(&mut mr, &database)?;
            mr.expect_end("models section")?;
            models
        }
        None => Vec::new(),
    };

    let stats = StoreStats {
        bytes: bytes.len() as u64,
        sections: frames.len(),
        objects: database.len(),
        diamonds: index.as_ref().map_or(0, UstTree::num_diamonds),
        models: models.len(),
        load_time: started.elapsed(),
    };
    Ok(LoadedStore { database, index, models, stats })
}

/// Upper bound on transparent retries of an I/O operation that failed with
/// [`std::io::ErrorKind::Interrupted`]. Signal-interrupted reads and writes
/// are transient by contract (the kernel made no progress), so retrying is
/// always safe; the bound keeps a pathological signal storm — or an armed
/// `persist.*.interrupted` fault with a large `times` — from looping forever.
const MAX_IO_RETRIES: usize = 8;

/// Runs `op`, transparently retrying up to [`MAX_IO_RETRIES`] times while it
/// fails with `ErrorKind::Interrupted`. `fault` names the injection point
/// that feeds synthetic interruptions into the same retry path the real
/// signal would take, so the chaos suite can prove both the absorb case
/// (few injections → `Ok`) and the exhaustion case (typed error, no hang).
fn retry_interrupted<T>(
    fault: &'static str,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut retries = 0usize;
    loop {
        let result = match ust_fault::inject(fault) {
            Some(message) => Err(std::io::Error::new(std::io::ErrorKind::Interrupted, message)),
            None => op(),
        };
        match result {
            Err(error)
                if error.kind() == std::io::ErrorKind::Interrupted
                    && retries < MAX_IO_RETRIES =>
            {
                retries += 1;
            }
            other => return other,
        }
    }
}

/// The temp-file sibling a store write stages its bytes in:
/// `fig08.ustore` → `fig08.ustore.tmp`.
fn tmp_write_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// The crash-safe body of [`write_store`]: stage the bytes in the temp file,
/// fsync, then atomically rename over the destination. Fault points:
/// `persist.write.interrupted` (feeds the temp write's retry loop),
/// `persist.write.sync` (before the fsync) and `persist.write.rename`
/// (before the rename). A failure at any step leaves a pre-existing store at
/// `path` untouched.
fn stage_sync_rename(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    retry_interrupted("persist.write.interrupted", || std::fs::write(tmp, bytes))?;
    if let Some(message) = ust_fault::inject("persist.write.sync") {
        return Err(StoreError::Io { message });
    }
    std::fs::File::open(tmp)?.sync_data()?;
    if let Some(message) = ust_fault::inject("persist.write.rename") {
        return Err(StoreError::Io { message });
    }
    std::fs::rename(tmp, path)?;
    Ok(())
}

/// Encodes `contents` and writes the store to `path` crash-safely: the bytes
/// are staged in a `<path>.tmp` sibling, fsynced and atomically renamed into
/// place, so a crash (or injected fault) at any point leaves either the old
/// store or the new one — never a truncated hybrid. Signal-interrupted
/// writes are retried (see `retry_interrupted`); other I/O failures surface
/// as [`StoreError::Io`], with the staging file best-effort removed.
pub fn write_store(
    path: impl AsRef<Path>,
    contents: &StoreContents<'_>,
) -> Result<StoreStats, StoreError> {
    let path = path.as_ref();
    let bytes = encode_store(contents);
    if let Some(message) = ust_fault::inject("persist.write.file") {
        return Err(StoreError::Io { message });
    }
    let tmp = tmp_write_path(path);
    let staged = stage_sync_rename(&tmp, path, &bytes);
    if staged.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    staged?;
    Ok(StoreStats {
        bytes: bytes.len() as u64,
        sections: 1
            + usize::from(contents.index.is_some())
            + usize::from(!contents.models.is_empty()),
        objects: contents.database.len(),
        diamonds: contents.index.map_or(0, UstTree::num_diamonds),
        models: contents.models.len(),
        load_time: Duration::ZERO,
    })
}

/// Reads, decodes and validates a store file. The returned
/// [`StoreStats::load_time`] covers the file read plus the decode.
/// Signal-interrupted reads are retried (see `retry_interrupted`); other
/// I/O failures surface as [`StoreError::Io`].
pub fn read_store(path: impl AsRef<Path>) -> Result<LoadedStore, StoreError> {
    let started = Instant::now();
    if let Some(message) = ust_fault::inject("persist.read.file") {
        return Err(StoreError::Io { message });
    }
    let bytes = retry_interrupted("persist.read.interrupted", || std::fs::read(&path))?;
    let mut loaded = decode_store(&bytes)?;
    loaded.stats.load_time = started.elapsed();
    Ok(loaded)
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
        let mut db = TrajectoryDatabase::with_objects(
            Arc::new(space),
            Arc::new(MarkovModel::homogeneous(matrix)),
            objects,
        );
        db.set_object_model(
            9,
            Arc::new(MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
                vec![(1, 1.0)],
                vec![(2, 1.0)],
                vec![(0, 1.0)],
            ]))),
        );
        db
    }

    #[test]
    fn database_only_store_roundtrips_to_identical_bytes() {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        let bytes = encode_store(&contents);
        let loaded = decode_store(&bytes).unwrap();
        assert!(loaded.index.is_none());
        assert!(loaded.models.is_empty());
        assert_eq!(loaded.stats.sections, 1);
        assert_eq!(loaded.stats.objects, 2);
        let again = encode_store(&StoreContents {
            database: &loaded.database,
            index: None,
            models: &[],
        });
        assert_eq!(bytes, again);
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(
            decode_store(b"USTST").unwrap_err(),
            StoreError::Truncated { context: "store header" }
        );
        assert_eq!(
            decode_store(b"NOTSTORE\x01\x00\x00\x00\x00\x00\x00\x00").unwrap_err(),
            StoreError::BadMagic
        );
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION + 41);
        w.u32(0);
        assert_eq!(
            decode_store(&w.into_bytes()).unwrap_err(),
            StoreError::UnsupportedVersion { found: FORMAT_VERSION + 41 }
        );
    }

    #[test]
    fn frame_errors_are_typed() {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        let good = encode_store(&contents);

        // A frame announcing more payload than the store holds.
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(1);
        w.u32(section::DATABASE);
        w.u64(u64::MAX / 2);
        w.u64(0);
        assert_eq!(
            decode_store(&w.into_bytes()).unwrap_err(),
            StoreError::SectionOverflow { section: section::DATABASE, length: u64::MAX / 2 }
        );

        // A flipped payload bit fails the checksum.
        let mut corrupt = good.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert_eq!(
            decode_store(&corrupt).unwrap_err(),
            StoreError::ChecksumMismatch { section: section::DATABASE }
        );

        // Trailing garbage after the last section.
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode_store(&trailing).unwrap_err(),
            StoreError::Malformed { context: "store container" }
        );

        // A store with zero sections is missing its database.
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(0);
        assert_eq!(
            decode_store(&w.into_bytes()).unwrap_err(),
            StoreError::MissingSection { section: section::DATABASE }
        );
    }

    #[test]
    fn file_roundtrip_reports_stats() {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        let dir = std::env::temp_dir();
        let path = dir.join("ust_persist_store_unit_test.ustore");
        let written = write_store(&path, &contents).unwrap();
        assert!(written.bytes > 0);
        assert_eq!(written.sections, 1);
        let loaded = read_store(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.stats.bytes, written.bytes);
        assert_eq!(loaded.stats.objects, 2);
        assert!(loaded.stats.load_time > Duration::ZERO);
    }

    #[test]
    fn write_stages_through_a_temp_file_and_replaces_atomically() {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ust_persist_atomic_{}.ustore", std::process::id()));
        let tmp = tmp_write_path(&path);
        write_store(&path, &contents).unwrap();
        assert!(!tmp.exists(), "the staging file is renamed away on success");
        let first = std::fs::read(&path).unwrap();
        // Overwriting an existing store goes through the same staged path.
        write_store(&path, &contents).unwrap();
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&path).unwrap(), first, "canonical encode is byte-stable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_store("/nonexistent/ust-persist-test.ustore").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }
}
