//! Streaming loader and writer for T-Drive-format trajectory CSV.
//!
//! The paper's real-data experiments use the Microsoft T-Drive taxi logs:
//! one GPS fix per line in the format
//!
//! ```text
//! id,datetime,longitude,latitude
//! 1,2008-02-02 15:36:08,116.51172,39.92123
//! ```
//!
//! This module implements the *data-organisation* half of the real-data
//! pipeline (DESIGN.md §4): a streaming, line-by-line parser that never holds
//! more than one line in memory, typed and line-numbered [`LoadError`]s for
//! every way a row can be malformed (so ingestion failures are diagnosable
//! and testable), and the inverse direction — a deterministic fixture writer
//! that renders a workload of [`UncertainObject`]s back into T-Drive CSV so
//! the full parse→match→query pipeline can be exercised offline in tests and
//! CI. Timestamps are civil `YYYY-MM-DD HH:MM:SS` datetimes converted to Unix
//! seconds with a proleptic-Gregorian day count (no external time crate is
//! available offline).
//!
//! Snapping fixes onto a road network and discretising their timestamps into
//! engine tics is the job of the sibling [`mod@crate::map_match`] module.

use crate::map_match::GeoFrame;
use std::io::BufRead;
use std::path::Path;
use ust_spatial::StateSpace;
use ust_trajectory::{ObjectId, UncertainObject};

/// One raw GPS fix parsed from a T-Drive row, before map matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawFix {
    /// Taxi identifier (first CSV field).
    pub object: ObjectId,
    /// Fix time as Unix seconds (parsed from the civil datetime field).
    pub seconds: i64,
    /// WGS84 longitude in degrees.
    pub lon: f64,
    /// WGS84 latitude in degrees.
    pub lat: f64,
}

/// Everything that can be wrong with one T-Drive row.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadErrorKind {
    /// The row did not have exactly four comma-separated fields.
    FieldCount {
        /// Number of fields found.
        found: usize,
    },
    /// The id field was not a non-negative integer fitting an [`ObjectId`].
    BadObjectId {
        /// The offending field text.
        field: String,
    },
    /// The datetime field was not a valid `YYYY-MM-DD HH:MM:SS` civil time
    /// (wrong shape, or an out-of-range month/day/hour/minute/second).
    BadTimestamp {
        /// The offending field text.
        field: String,
    },
    /// A coordinate field was not a finite decimal number.
    BadCoordinate {
        /// The offending field text.
        field: String,
    },
    /// The longitude was outside `[-180, 180]` degrees.
    LonOutOfRange {
        /// The parsed longitude.
        lon: f64,
    },
    /// The latitude was outside `[-90, 90]` degrees.
    LatOutOfRange {
        /// The parsed latitude.
        lat: f64,
    },
    /// The line was not valid UTF-8; the stream continues with the next line.
    InvalidUtf8,
    /// The underlying reader failed; the stream ends after this error.
    Io {
        /// The I/O error message.
        message: String,
    },
}

/// A typed, line-numbered ingestion error.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What was wrong with the line.
    pub kind: LoadErrorKind,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            LoadErrorKind::FieldCount { found } => {
                write!(f, "expected 4 comma-separated fields, found {found}")
            }
            LoadErrorKind::BadObjectId { field } => write!(f, "bad object id {field:?}"),
            LoadErrorKind::BadTimestamp { field } => {
                write!(f, "bad datetime {field:?} (expected YYYY-MM-DD HH:MM:SS)")
            }
            LoadErrorKind::BadCoordinate { field } => write!(f, "bad coordinate {field:?}"),
            LoadErrorKind::LonOutOfRange { lon } => {
                write!(f, "longitude {lon} outside [-180, 180]")
            }
            LoadErrorKind::LatOutOfRange { lat } => {
                write!(f, "latitude {lat} outside [-90, 90]")
            }
            LoadErrorKind::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
            LoadErrorKind::Io { message } => write!(f, "read failed: {message}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Parses one T-Drive row (without its trailing newline).
pub fn parse_line(line_number: usize, line: &str) -> Result<RawFix, LoadError> {
    let err = |kind| LoadError { line: line_number, kind };
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 4 {
        return Err(err(LoadErrorKind::FieldCount { found: fields.len() }));
    }
    let object: ObjectId = parse_object_id(fields[0])
        .ok_or_else(|| err(LoadErrorKind::BadObjectId { field: fields[0].to_string() }))?;
    let seconds = parse_datetime(fields[1])
        .ok_or_else(|| err(LoadErrorKind::BadTimestamp { field: fields[1].to_string() }))?;
    let lon = parse_coordinate(fields[2])
        .ok_or_else(|| err(LoadErrorKind::BadCoordinate { field: fields[2].to_string() }))?;
    let lat = parse_coordinate(fields[3])
        .ok_or_else(|| err(LoadErrorKind::BadCoordinate { field: fields[3].to_string() }))?;
    if !(-180.0..=180.0).contains(&lon) {
        return Err(err(LoadErrorKind::LonOutOfRange { lon }));
    }
    if !(-90.0..=90.0).contains(&lat) {
        return Err(err(LoadErrorKind::LatOutOfRange { lat }));
    }
    Ok(RawFix { object, seconds, lon, lat })
}

fn parse_object_id(field: &str) -> Option<ObjectId> {
    if field.is_empty() || !field.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    field.parse::<ObjectId>().ok()
}

fn parse_coordinate(field: &str) -> Option<f64> {
    field.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// A streaming iterator over the fixes of a T-Drive CSV reader.
///
/// Yields one `Result<RawFix, LoadError>` per non-empty line; malformed rows
/// — including lines that are not valid UTF-8 — produce an error and the
/// stream continues with the next line, so a single bad row never aborts an
/// ingestion run. Only a true I/O failure yields one [`LoadErrorKind::Io`]
/// error and ends the stream. Lines are read as raw bytes (one line in
/// memory at a time), so a corrupted byte mid-file loses exactly that line,
/// not the rest of the file.
#[derive(Debug)]
pub struct FixStream<R> {
    reader: R,
    buf: Vec<u8>,
    line: usize,
    done: bool,
}

impl<R: BufRead> FixStream<R> {
    /// Creates a stream over the given reader.
    pub fn new(reader: R) -> Self {
        FixStream { reader, buf: Vec::new(), line: 0, done: false }
    }

    /// Number of lines consumed so far (including empty and malformed ones).
    pub fn lines_read(&self) -> usize {
        self.line
    }
}

/// Upper bound on transparent retries of a read that failed with
/// [`std::io::ErrorKind::Interrupted`]. Signal-interrupted reads made no
/// progress by contract, so retrying is always safe; the bound keeps a
/// signal storm — or an armed `tdrive.read.interrupted` fault with a large
/// `times` — from looping forever.
const MAX_READ_RETRIES: usize = 8;

/// Reads one `\n`-terminated line into `buf`, transparently retrying up to
/// [`MAX_READ_RETRIES`] signal interruptions. `read_until` appends, so a
/// retry after a partial read continues the same line instead of losing the
/// bytes already buffered. The two fault points feed the chaos suite:
/// `tdrive.read.interrupted` takes the retry path, `tdrive.read.line` is a
/// hard read error that surfaces as a trailing [`LoadErrorKind::Io`] row.
fn read_line_retrying<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut retries = 0usize;
    loop {
        let result = match ust_fault::inject("tdrive.read.interrupted") {
            Some(message) => Err(std::io::Error::new(std::io::ErrorKind::Interrupted, message)),
            None => match ust_fault::inject("tdrive.read.line") {
                Some(message) => Err(std::io::Error::other(message)),
                None => reader.read_until(b'\n', buf),
            },
        };
        match result {
            Err(error)
                if error.kind() == std::io::ErrorKind::Interrupted
                    && retries < MAX_READ_RETRIES =>
            {
                retries += 1;
            }
            other => return other,
        }
    }
}

impl<R: BufRead> Iterator for FixStream<R> {
    type Item = Result<RawFix, LoadError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.buf.clear();
            match read_line_retrying(&mut self.reader, &mut self.buf) {
                Ok(0) => self.done = true,
                Ok(_) => {
                    self.line += 1;
                    let Ok(text) = std::str::from_utf8(&self.buf) else {
                        return Some(Err(LoadError {
                            line: self.line,
                            kind: LoadErrorKind::InvalidUtf8,
                        }));
                    };
                    let line = text.trim();
                    if line.is_empty() {
                        continue;
                    }
                    return Some(parse_line(self.line, line));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(LoadError {
                        line: self.line + 1,
                        kind: LoadErrorKind::Io { message: e.to_string() },
                    }));
                }
            }
        }
        None
    }
}

/// The collected result of loading a whole T-Drive input.
#[derive(Debug, Clone, Default)]
pub struct LoadOutcome {
    /// Successfully parsed fixes, in input order.
    pub fixes: Vec<RawFix>,
    /// Typed errors of the malformed rows, in input order.
    pub errors: Vec<LoadError>,
    /// Total number of input lines (valid + malformed + empty).
    pub lines: usize,
}

impl LoadOutcome {
    /// Collects a [`FixStream`].
    pub fn collect<R: BufRead>(mut stream: FixStream<R>) -> Self {
        let mut out = LoadOutcome::default();
        for item in &mut stream {
            match item {
                Ok(fix) => out.fixes.push(fix),
                Err(e) => out.errors.push(e),
            }
        }
        out.lines = stream.lines_read();
        out
    }
}

/// Parses an in-memory T-Drive document.
pub fn parse_str(csv: &str) -> LoadOutcome {
    LoadOutcome::collect(FixStream::new(csv.as_bytes()))
}

/// Streams a T-Drive file from disk. Opening errors are returned directly;
/// read errors mid-file become a trailing [`LoadErrorKind::Io`] entry.
pub fn load_path(path: impl AsRef<Path>) -> std::io::Result<LoadOutcome> {
    // Chaos hook: a failed open (permissions, vanished file) before any
    // bytes stream (see tests/chaos.rs at the workspace root).
    if let Some(message) = ust_fault::inject("tdrive.open") {
        return Err(std::io::Error::other(message));
    }
    let file = std::fs::File::open(path)?;
    Ok(LoadOutcome::collect(FixStream::new(std::io::BufReader::new(file))))
}

/// Groups fixes by object id (ascending) and sorts each group
/// chronologically. Both sorts are stable, so rows of one taxi that share a
/// timestamp keep their input order and interleaved ("shuffled") ids are
/// untangled deterministically.
pub fn group_fixes(fixes: &[RawFix]) -> Vec<(ObjectId, Vec<RawFix>)> {
    let mut groups: Vec<(ObjectId, Vec<RawFix>)> = Vec::new();
    let mut sorted: Vec<&RawFix> = fixes.iter().collect();
    sorted.sort_by_key(|f| f.object);
    for fix in sorted {
        match groups.last_mut() {
            Some((id, group)) if *id == fix.object => group.push(*fix),
            _ => groups.push((fix.object, vec![*fix])),
        }
    }
    for (_, group) in &mut groups {
        group.sort_by_key(|f| f.seconds);
    }
    groups
}

// ---------------------------------------------------------------------------
// Civil datetime <-> Unix seconds
// ---------------------------------------------------------------------------

const SECONDS_PER_DAY: i64 = 86_400;

fn is_leap_year(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: i64) -> i64 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since 1970-01-01 of the civil date (proleptic Gregorian; Howard
/// Hinnant's `days_from_civil` algorithm).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = y - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = mp + if mp < 10 { 3 } else { -9 };
    (y + i64::from(m <= 2), m, d)
}

/// Parses a `YYYY-MM-DD HH:MM:SS` civil datetime into Unix seconds,
/// validating every component (including month lengths and leap years).
pub fn parse_datetime(field: &str) -> Option<i64> {
    let b = field.as_bytes();
    if b.len() != 19
        || b[4] != b'-'
        || b[7] != b'-'
        || b[10] != b' '
        || b[13] != b':'
        || b[16] != b':'
    {
        return None;
    }
    let digits = |range: std::ops::Range<usize>| -> Option<i64> {
        let mut v: i64 = 0;
        for &c in b.get(range)? {
            if !c.is_ascii_digit() {
                return None;
            }
            v = v * 10 + i64::from(c - b'0');
        }
        Some(v)
    };
    let (y, mo, d) = (digits(0..4)?, digits(5..7)?, digits(8..10)?);
    let (h, mi, s) = (digits(11..13)?, digits(14..16)?, digits(17..19)?);
    if !(1..=12).contains(&mo) || d < 1 || d > days_in_month(y, mo) {
        return None;
    }
    if h > 23 || mi > 59 || s > 59 {
        return None;
    }
    Some(days_from_civil(y, mo, d) * SECONDS_PER_DAY + h * 3_600 + mi * 60 + s)
}

/// Renders Unix seconds back to the `YYYY-MM-DD HH:MM:SS` format
/// (inverse of [`parse_datetime`]).
pub fn format_datetime(seconds: i64) -> String {
    let days = seconds.div_euclid(SECONDS_PER_DAY);
    let sod = seconds.rem_euclid(SECONDS_PER_DAY);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}",
        sod / 3_600,
        (sod % 3_600) / 60,
        sod % 60
    )
}

// ---------------------------------------------------------------------------
// Fixture writer
// ---------------------------------------------------------------------------

/// Renders one fix as a T-Drive row (5 decimal places, like the original
/// dataset).
pub fn format_fix(fix: &RawFix) -> String {
    format!(
        "{},{},{:.5},{:.5}",
        fix.object,
        format_datetime(fix.seconds),
        fix.lon,
        fix.lat
    )
}

/// Deterministic fixture writer: renders a workload of uncertain objects back
/// into T-Drive format, so tests and CI can exercise the full
/// parse→match→query pipeline without any external dataset.
///
/// Each observation `(t, θ)` becomes one CSV row: the object's id, the civil
/// datetime of `origin_seconds + t · tick_seconds`, and the position of state
/// `θ` projected from network coordinates to lon/lat through `frame`. Objects
/// are rendered in the order given, observations chronologically; the output
/// is byte-identical across runs and platforms.
pub fn render_workload(
    space: &StateSpace,
    objects: &[UncertainObject],
    frame: &GeoFrame,
    tick_seconds: i64,
    origin_seconds: i64,
) -> String {
    assert!(tick_seconds > 0, "tick_seconds must be positive");
    let mut out = String::new();
    for object in objects {
        for obs in object.observations() {
            let (lon, lat) = frame.to_lonlat(&space.position(obs.state));
            let fix = RawFix {
                object: object.id(),
                seconds: origin_seconds + i64::from(obs.time) * tick_seconds,
                lon,
                lat,
            };
            out.push_str(&format_fix(&fix));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_canonical_tdrive_row() {
        let fix = parse_line(1, "1,2008-02-02 15:36:08,116.51172,39.92123").unwrap();
        assert_eq!(fix.object, 1);
        assert_eq!(fix.lon, 116.51172);
        assert_eq!(fix.lat, 39.92123);
        assert_eq!(format_datetime(fix.seconds), "2008-02-02 15:36:08");
    }

    #[test]
    fn datetime_roundtrips_and_validates() {
        for s in [
            "1970-01-01 00:00:00",
            "2008-02-29 23:59:59", // leap day
            "1969-12-31 23:59:59", // negative epoch seconds
            "2100-02-28 12:00:00", // 2100 is not a leap year
        ] {
            let secs = parse_datetime(s).unwrap_or_else(|| panic!("{s} should parse"));
            assert_eq!(format_datetime(secs), s, "roundtrip of {s}");
        }
        assert_eq!(parse_datetime("1970-01-01 00:00:01"), Some(1));
        assert_eq!(parse_datetime("1969-12-31 23:59:59"), Some(-1));
        for bad in [
            "2008-02-30 00:00:00", // no Feb 30
            "2100-02-29 00:00:00", // 2100 is not a leap year
            "2008-13-01 00:00:00", // month 13
            "2008-00-10 00:00:00", // month 0
            "2008-01-00 00:00:00", // day 0
            "2008-01-01 24:00:00", // hour 24
            "2008-01-01 00:60:00", // minute 60
            "2008-01-01 00:00:60", // second 60
            "2008-1-01 00:00:00",  // wrong shape
            "2008-01-01T00:00:00", // ISO separator
            "2008-01-01 00:00:0x", // non-digit
        ] {
            assert_eq!(parse_datetime(bad), None, "{bad} must be rejected");
        }
    }

    #[test]
    fn malformed_rows_yield_typed_line_numbered_errors() {
        let csv = "1,2008-02-02 15:36:08,116.5,39.9\n\
                   1,2008-02-02 15:46:08,116.5\n\
                   x,2008-02-02 15:46:08,116.5,39.9\n\
                   2,2008-02-30 15:46:08,116.5,39.9\n\
                   2,2008-02-02 15:46:08,abc,39.9\n\
                   2,2008-02-02 15:46:08,216.5,39.9\n\
                   2,2008-02-02 15:46:08,116.5,99.9\n";
        let out = parse_str(csv);
        assert_eq!(out.fixes.len(), 1);
        assert_eq!(out.lines, 7);
        assert_eq!(
            out.errors,
            vec![
                LoadError { line: 2, kind: LoadErrorKind::FieldCount { found: 3 } },
                LoadError { line: 3, kind: LoadErrorKind::BadObjectId { field: "x".into() } },
                LoadError {
                    line: 4,
                    kind: LoadErrorKind::BadTimestamp { field: "2008-02-30 15:46:08".into() },
                },
                LoadError {
                    line: 5,
                    kind: LoadErrorKind::BadCoordinate { field: "abc".into() },
                },
                LoadError { line: 6, kind: LoadErrorKind::LonOutOfRange { lon: 216.5 } },
                LoadError { line: 7, kind: LoadErrorKind::LatOutOfRange { lat: 99.9 } },
            ]
        );
    }

    #[test]
    fn empty_lines_and_crlf_are_tolerated() {
        let csv = "\n1,2008-02-02 15:36:08,116.5,39.9\r\n\n2,2008-02-02 15:36:09,116.6,39.8\n";
        let out = parse_str(csv);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.fixes.len(), 2);
        assert_eq!(out.lines, 4);
    }

    #[test]
    fn non_finite_coordinates_are_rejected() {
        let err = parse_line(9, "1,2008-02-02 15:36:08,NaN,39.9").unwrap_err();
        assert_eq!(err.line, 9);
        assert_eq!(err.kind, LoadErrorKind::BadCoordinate { field: "NaN".into() });
        let err = parse_line(9, "1,2008-02-02 15:36:08,116.5,inf").unwrap_err();
        assert_eq!(err.kind, LoadErrorKind::BadCoordinate { field: "inf".into() });
    }

    #[test]
    fn invalid_utf8_loses_one_line_not_the_rest_of_the_file() {
        let mut bytes = b"1,2008-02-02 15:36:08,116.5,39.9\n".to_vec();
        bytes.extend_from_slice(b"2,2008-02-02 15:36:08,116.5,\xff\xfe39.9\n");
        bytes.extend_from_slice(b"3,2008-02-02 15:36:08,116.5,39.9\n");
        let out = LoadOutcome::collect(FixStream::new(bytes.as_slice()));
        assert_eq!(out.lines, 3);
        assert_eq!(out.fixes.len(), 2, "the rows after the corrupted one survive");
        assert_eq!(out.fixes[1].object, 3);
        assert_eq!(out.errors, vec![LoadError { line: 2, kind: LoadErrorKind::InvalidUtf8 }]);
    }

    #[test]
    fn grouping_untangles_shuffled_ids_and_sorts_by_time() {
        let csv = "7,2008-02-02 15:36:28,116.52,39.92\n\
                   3,2008-02-02 15:36:08,116.51,39.91\n\
                   7,2008-02-02 15:36:08,116.50,39.90\n\
                   3,2008-02-02 15:36:18,116.53,39.93\n";
        let out = parse_str(csv);
        let groups = group_fixes(&out.fixes);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 3);
        assert_eq!(groups[1].0, 7);
        for (_, group) in &groups {
            assert_eq!(group.len(), 2);
            assert!(group[0].seconds < group[1].seconds);
        }
        assert_eq!(groups[1].1[0].lon, 116.50, "taxi 7's fixes are re-sorted by time");
    }

    #[test]
    fn fix_rendering_roundtrips_through_the_parser() {
        let fixes = vec![
            RawFix { object: 12, seconds: 1_201_966_568, lon: 116.51172, lat: 39.92123 },
            RawFix { object: 3, seconds: 1_201_966_600, lon: -0.12345, lat: 51.5 },
        ];
        let csv: String = fixes.iter().map(|fix| format_fix(fix) + "\n").collect();
        let out = parse_str(&csv);
        assert!(out.errors.is_empty());
        assert_eq!(out.fixes, fixes);
    }

    #[test]
    fn load_path_streams_a_file() {
        let path = std::env::temp_dir().join("pnnq_tdrive_loader_smoke.csv");
        std::fs::write(&path, "5,2008-02-02 15:36:08,116.5,39.9\nbad line\n").unwrap();
        let out = load_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out.fixes.len(), 1);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].line, 2);
        assert!(load_path("/nonexistent/pnnq/tdrive.csv").is_err());
    }
}
