//! Golden corpus of hostile store files. Every fixture under
//! `tests/data/stores/` is checked in and pinned to one exact typed
//! [`StoreError`] — a refactor that changes which error a corruption class
//! yields (or worse, panics) fails here, not in production.
//!
//! The fixtures derive from one deterministic database-only store of the
//! current format version (the workload builder is fully seeded and the
//! DATABASE section contains no wall-clock data, so regeneration is
//! byte-reproducible). A version bump that leaves the DATABASE layout alone
//! changes each fixture that carries the version field in that field only.
//! A store of any other version, the previous one included, is
//! [`StoreError::UnsupportedVersion`]: there is no read path for old
//! versions. To regenerate after a deliberate format change:
//!
//! ```text
//! cargo test -p ust-persist --test hostile_corpus -- --ignored
//! ```

mod common;

use std::path::PathBuf;

use ust_persist::format::{fnv1a64, section, ByteWriter, FORMAT_VERSION, MAGIC};
use ust_persist::{decode_store, encode_store, StoreContents, StoreError};

/// Directory holding the checked-in fixtures.
fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/stores"))
}

/// Reads one fixture, with a pointer at the regen command when absent.
fn fixture(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {} ({e}); regenerate the corpus with \
             `cargo test -p ust-persist --test hostile_corpus -- --ignored`",
            path.display()
        )
    })
}

/// The deterministic base store every fixture derives from: database only —
/// the TREE section embeds build wall time, which would make the bytes
/// machine-dependent.
fn base_store() -> Vec<u8> {
    let w = common::build_workload(16, 3, 5, 11);
    encode_store(&StoreContents { database: &w.db, index: None, models: &[] })
}

/// Byte offset where the DATABASE payload starts in the base store:
/// magic (8) + version (4) + section count (4) + frame id (4) +
/// payload length (8) + checksum (8).
const PAYLOAD_OFFSET: usize = 36;

/// All hostile fixtures: file name, bytes, and the exact pinned error.
fn hostile_fixtures() -> Vec<(&'static str, Vec<u8>, StoreError)> {
    let base = base_store();

    let truncated_header = base[..6].to_vec();

    let mut bad_magic = base.clone();
    bad_magic[..8].copy_from_slice(b"NOTSTORE");

    let mut future_version = base.clone();
    future_version[8..12].copy_from_slice(&99u32.to_le_bytes());

    let mut checksum_flip = base.clone();
    let last = checksum_flip.len() - 1;
    checksum_flip[last] ^= 0x20;

    // A frame announcing far more payload than the container holds.
    let mut w = ByteWriter::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(1);
    w.u32(section::DATABASE);
    w.u64(1 << 62);
    w.u64(0);
    let section_overflow = w.into_bytes();

    // The DATABASE payload cut off mid-structure, with the frame length and
    // checksum fixed up so the corruption reaches the codec layer instead of
    // the checksum gate.
    let cut = &base[PAYLOAD_OFFSET..PAYLOAD_OFFSET + 4];
    let mut w = ByteWriter::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(1);
    w.u32(section::DATABASE);
    w.u64(cut.len() as u64);
    w.u64(fnv1a64(cut));
    w.bytes(cut);
    let truncated_body = w.into_bytes();

    vec![
        (
            "truncated_header.ustore",
            truncated_header,
            StoreError::Truncated { context: "store header" },
        ),
        ("bad_magic.ustore", bad_magic, StoreError::BadMagic),
        (
            "future_version.ustore",
            future_version,
            StoreError::UnsupportedVersion { found: 99 },
        ),
        (
            "checksum_flip.ustore",
            checksum_flip,
            StoreError::ChecksumMismatch { section: section::DATABASE },
        ),
        (
            "section_overflow.ustore",
            section_overflow,
            StoreError::SectionOverflow { section: section::DATABASE, length: 1 << 62 },
        ),
        (
            "truncated_body.ustore",
            truncated_body,
            StoreError::Truncated { context: "state space" },
        ),
    ]
}

#[test]
fn valid_fixture_decodes() {
    let loaded = decode_store(&fixture("valid_database_only.ustore")).expect("valid fixture");
    assert_eq!(loaded.stats.sections, 1);
    assert_eq!(loaded.stats.objects, 3);
    assert!(loaded.index.is_none());
    assert!(loaded.models.is_empty());
}

#[test]
fn every_hostile_fixture_yields_its_pinned_error() {
    for (name, _, expected) in hostile_fixtures() {
        let bytes = fixture(name);
        let err = decode_store(&bytes)
            .map(|_| ())
            .expect_err(&format!("{name} must not decode"));
        assert_eq!(err, expected, "fixture {name} drifted from its pinned error");
    }
}

#[test]
fn a_store_of_the_previous_version_is_unsupported() {
    let mut v1 = base_store();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(FORMAT_VERSION, 2);
    assert_eq!(
        decode_store(&v1).map(|_| ()),
        Err(StoreError::UnsupportedVersion { found: 1 })
    );
}

#[test]
fn checked_in_fixtures_match_their_generators() {
    // The files on disk are the authority, but they must not silently drift
    // from the construction documented here.
    assert_eq!(
        fixture("valid_database_only.ustore"),
        base_store(),
        "valid fixture drifted; regenerate with -- --ignored"
    );
    for (name, bytes, _) in hostile_fixtures() {
        assert_eq!(fixture(name), bytes, "fixture {name} drifted; regenerate with -- --ignored");
    }
}

/// Writes the whole corpus. Run once (and re-check in the files) after a
/// deliberate format change; ignored in normal runs so the checked-in corpus
/// stays the authority.
#[test]
#[ignore = "writes the fixture corpus; run explicitly after a format change"]
fn regenerate_fixtures() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    std::fs::write(dir.join("valid_database_only.ustore"), base_store()).unwrap();
    for (name, bytes, expected) in hostile_fixtures() {
        // A regen that would pin a wrong expectation refuses to write.
        let err = decode_store(&bytes).map(|_| ()).expect_err(name);
        assert_eq!(err, expected, "generator for {name} does not yield its pinned error");
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}
