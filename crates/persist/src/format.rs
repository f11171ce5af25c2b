//! The binary container format: magic, version gate, section framing and the
//! bounds-checked primitive reader/writer.
//!
//! ```text
//! store   := magic(8) version(u32) section_count(u32) section*
//! section := id(u32) payload_len(u64) checksum(u64) payload(payload_len)
//! ```
//!
//! All integers are little-endian and fixed-width; `f64`s travel as their IEEE
//! bit patterns, so encode→decode→encode is byte-identical. The checksum is
//! FNV-1a 64 over the payload bytes — the same digest primitive the bench
//! harness uses for result sets. Trailing bytes after the last section are an
//! error: a store is exactly its announced sections, nothing more.
//!
//! The reader never trusts a length before checking it against the remaining
//! input (`checked_mul`, no saturation), so a hostile 2⁶⁰ element count is a
//! typed [`StoreError::CountOverflow`] — not a giant `Vec::with_capacity`.

use crate::error::StoreError;

/// The eight magic bytes every store starts with.
pub const MAGIC: [u8; 8] = *b"USTSTORE";

/// The store format version this build writes and reads. Decoders reject any
/// other version outright ([`StoreError::UnsupportedVersion`]), version 1
/// included; there is no cross-version "best effort" path.
///
/// Version 2 dropped the forward marginals from every MODELS entry and the
/// per-time presence byte from every TREE diamond.
pub const FORMAT_VERSION: u32 = 2;

/// Known section ids of format version 2.
pub mod section {
    /// The trajectory database (state space, a-priori models, objects).
    /// Required — every store has one.
    pub const DATABASE: u32 = 1;
    /// The built UST-tree (diamond arena + build stats; the R-tree is
    /// rebuilt by a deterministic STR bulk load on decode). Optional.
    pub const TREE: u32 = 2;
    /// Adapted (a-posteriori) Markov models from the adaptation cache.
    /// Optional.
    pub const MODELS: u32 = 3;
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over a byte slice — the per-section content checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut digest = FNV_OFFSET;
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

// ---------------------------------------------------------------------------
// ByteWriter
// ---------------------------------------------------------------------------

/// Append-only little-endian writer backing the encoders.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

// ---------------------------------------------------------------------------
// ByteReader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice.
///
/// Every primitive read checks the remaining length first and returns
/// [`StoreError::Truncated`] (tagged with the structure under decode) instead
/// of slicing out of bounds. Element counts go through [`ByteReader::count`],
/// which proves `count × min_element_size` bytes are actually present before
/// the caller sizes any allocation from it.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`; `context` tags truncation errors.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader { buf, pos: 0, context }
    }

    /// Re-tags subsequent errors (cheap, call on entering a substructure).
    pub fn set_context(&mut self, context: &'static str) {
        self.context = context;
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context: self.context });
        }
        // The check above proves the range is in bounds (and pos + n cannot
        // overflow); `get` keeps the read panic-free even if a future edit
        // breaks that invariant.
        let out = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(StoreError::Truncated { context: self.context })?;
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an element count and proves the input can back it: the count
    /// times `min_element_size` (the smallest possible encoding of one
    /// element) must not exceed the remaining bytes. Returns the count as
    /// `usize`, safe to pass to `Vec::with_capacity`.
    pub fn count(
        &mut self,
        context: &'static str,
        min_element_size: usize,
    ) -> Result<usize, StoreError> {
        let raw = self.u64()?;
        let needed = raw.checked_mul(min_element_size as u64);
        match needed {
            Some(needed) if needed <= self.remaining() as u64 => Ok(raw as usize),
            _ => Err(StoreError::CountOverflow { context, count: raw }),
        }
    }

    /// Rejects the input if any bytes remain (`context` names the structure
    /// that should have consumed them).
    pub fn expect_end(&self, context: &'static str) -> Result<(), StoreError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::Malformed { context })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.bytes(3).unwrap(), b"xyz");
        assert!(r.is_empty());
        r.expect_end("test").unwrap();
    }

    #[test]
    fn truncation_is_typed_and_tagged() {
        let mut r = ByteReader::new(&[1, 2], "header");
        assert_eq!(r.u32().unwrap_err(), StoreError::Truncated { context: "header" });
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn counts_are_checked_before_allocation() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // a count no input can back
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(
            r.count("entries", 8).unwrap_err(),
            StoreError::CountOverflow { context: "entries", count: u64::MAX }
        );
        // A plausible count passes.
        let mut w = ByteWriter::new();
        w.u64(2);
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.count("entries", 8).unwrap(), 2);
    }

    #[test]
    fn fnv_checksum_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = ByteReader::new(&[0], "x");
        assert_eq!(
            r.expect_end("section payload").unwrap_err(),
            StoreError::Malformed { context: "section payload" }
        );
    }
}
