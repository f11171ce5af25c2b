//! The correctness gate. It checks only what a legitimate change to the
//! Monte-Carlo RNG stream cannot move: the filter counts (the filter never
//! draws a random number), answers that must not depend on cache state or
//! on how the store grew, and invariants every estimate obeys. Any
//! violation fails the run.

use crate::inputs::{CountDigest, FilterRef, Kind, Op, WORLDS};
use crate::run::{Answer, OpRecord, Outcome};

/// Committed digests of the filter counts of each seed's first ops, as
/// `seed  sequence  ops  digest  candidates  influencers` lines. Written by
/// `perfbench reference`; see README.md.
pub const COMMITTED: &str = include_str!("../reference/filter_counts.tsv");

/// The committed digest of `seed`'s `query` or `append` sequence, if the
/// seed is in [`COMMITTED`].
pub fn committed(table: &str, seed: u64, append: bool) -> Result<Option<CountDigest>, String> {
    let seq = if append { "append" } else { "query" };
    for line in table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let parse = |i: usize| -> Result<u64, String> {
            let v = f
                .get(i)
                .ok_or_else(|| format!("short reference line {line:?}"))?;
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|_| format!("bad reference field {v:?}"))
        };
        if parse(0)? == seed && f.get(1) == Some(&seq) {
            return Ok(Some(CountDigest {
                ops: parse(2)? as usize,
                digest: parse(3)?,
                candidates: parse(4)? as usize,
                influencers: parse(5)? as usize,
            }));
        }
    }
    Ok(None)
}

/// Renders one committed-reference line.
pub fn committed_line(seed: u64, append: bool, d: &CountDigest) -> String {
    let seq = if append { "append" } else { "query" };
    format!(
        "{seed}\t{seq}\t{}\t{:#018x}\t{}\t{}",
        d.ops, d.digest, d.candidates, d.influencers
    )
}

/// Checks every record of a pass: no failed op, no degraded answer, every
/// probability in [0, 1], and per-op filter counts equal to those of
/// engines built from scratch.
pub fn check_records(records: &[OpRecord], append: bool, filter: &FilterRef) -> Vec<String> {
    let mut v = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let at = format!("op {i} ({} on {})", r.op.kind.name(), r.op.index);
        let a = match &r.outcome {
            Err(e) => {
                v.push(format!("{at} failed: {e}"));
                continue;
            }
            Ok(Outcome::Appended) => continue,
            Ok(Outcome::Query(a)) => a,
        };
        if a.stats.degraded || a.stats.worlds != WORLDS {
            v.push(format!(
                "{at} degraded: {} of {WORLDS} worlds",
                a.stats.worlds
            ));
        }
        if let Some(p) = a.out_of_range {
            v.push(format!("{at} probability {p} outside [0, 1]"));
        }
        match filter.get(append, r.op) {
            Some(counts) if counts == (a.stats.candidates, a.stats.influencers) => {}
            expected => v.push(format!(
                "{at} filter counts {:?}, reference {expected:?}",
                (a.stats.candidates, a.stats.influencers)
            )),
        }
    }
    v
}

/// P∀NN ≤ P∃NN per object for the same query: both are estimated from the
/// same worlds, and an object that is the NN at every timestamp of a world
/// is the NN at some timestamp of it.
pub fn forall_within_exists(label: &str, exists: &Answer, forall: &Answer) -> Vec<String> {
    forall
        .probs
        .iter()
        .filter_map(|&(object, p_forall)| {
            let p_exists = exists
                .probs
                .iter()
                .find(|e| e.0 == object)
                .map_or(0.0, |e| e.1);
            (p_forall > p_exists)
                .then(|| format!("{label}: P∀NN({object}) = {p_forall} exceeds P∃NN = {p_exists}"))
        })
        .collect()
}

/// The observed digest of the filter counts of the query ops among the
/// first `MIN_OPS` ops, comparable with [`committed`].
pub fn observed_digest(records: &[OpRecord]) -> Option<CountDigest> {
    let mut d = CountDigest::default();
    for r in records.iter().take(crate::stats::MIN_OPS) {
        match (&r.outcome, r.op.kind) {
            (_, Kind::Append) => {}
            (Ok(Outcome::Query(a)), _) => d.add(a.stats.candidates, a.stats.influencers),
            _ => return None,
        }
    }
    Some(d)
}

/// Compares the observed digest with the committed one, when the seed has
/// one. Returns whether a committed digest was found.
pub fn check_committed(
    expected: Option<CountDigest>,
    records: &[OpRecord],
    v: &mut Vec<String>,
) -> bool {
    let Some(expected) = expected else {
        return false;
    };
    match observed_digest(records) {
        Some(observed) if observed == expected => {}
        observed => v.push(format!(
            "filter counts of the first ops {observed:?} differ from the committed reference {expected:?}"
        )),
    }
    true
}

/// Compares the answer digests of the same ops computed two ways.
pub fn compare(label: &str, expected: &[(Op, u64)], actual: &[(Op, u64)]) -> Vec<String> {
    if expected.len() != actual.len() {
        return vec![format!(
            "{label}: {} answers, expected {}",
            actual.len(),
            expected.len()
        )];
    }
    expected
        .iter()
        .zip(actual)
        .filter(|(e, a)| e != a)
        .map(|(e, a)| {
            format!(
                "{label}: {} on {} answered {:#x}, expected {:#x}",
                e.0.kind.name(),
                e.0.index,
                a.1,
                e.1
            )
        })
        .collect()
}

/// `(op, answer digest)` of the successful query ops among `records`.
pub fn digests(records: &[OpRecord]) -> Vec<(Op, u64)> {
    records
        .iter()
        .filter_map(|r| r.answer().map(|a| (r.op, a.digest)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::CYCLE;
    use std::time::Duration;
    use ust_core::QueryStats;

    fn record(
        kind: Kind,
        index: usize,
        counts: (usize, usize),
        probs: Vec<(u32, f64)>,
    ) -> OpRecord {
        let stats = QueryStats {
            candidates: counts.0,
            influencers: counts.1,
            worlds: WORLDS,
            worlds_requested: WORLDS,
            ..QueryStats::default()
        };
        let out_of_range = probs.iter().map(|p| p.1).find(|p| !(0.0..=1.0).contains(p));
        let answer = Answer {
            stats,
            probs,
            out_of_range,
            sets_evaluated: 0,
            digest: 1,
        };
        OpRecord {
            op: Op { kind, index },
            latency: Duration::from_millis(1),
            outcome: Ok(Outcome::Query(answer)),
        }
    }

    fn sample() -> (Vec<OpRecord>, FilterRef) {
        let counts = [(2, 5), (3, 6), (4, 9), (4, 8)];
        let records = CYCLE
            .iter()
            .zip(counts)
            .enumerate()
            .map(|(m, (&k, c))| record(k, m, c, vec![(1, 0.5)]))
            .collect();
        let filter = FilterRef {
            query: counts.to_vec(),
            append: Vec::new(),
        };
        (records, filter)
    }

    #[test]
    fn clean_records_pass() {
        let (records, filter) = sample();
        assert_eq!(
            check_records(&records, false, &filter),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_corrupted_reference_fails_the_gate() {
        let (records, mut filter) = sample();
        filter.query[2].1 += 1;
        assert_eq!(check_records(&records, false, &filter).len(), 1);
        // A reference with no row for an op fails too, rather than passing.
        assert!(!check_records(&records, true, &filter).is_empty());

        let observed = observed_digest(&records).unwrap();
        let mut v = Vec::new();
        assert!(check_committed(Some(observed), &records, &mut v));
        assert!(v.is_empty());
        let corrupted = CountDigest {
            digest: observed.digest ^ 1,
            ..observed
        };
        assert!(check_committed(Some(corrupted), &records, &mut v));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn estimates_are_checked() {
        let (mut records, filter) = sample();
        records[2] = record(Kind::ForallK2, 2, (4, 9), vec![(3, 1.5)]);
        let v = check_records(&records, false, &filter);
        assert_eq!(v.len(), 1, "{v:?}");
        records[0].outcome = Err("deadline".into());
        assert!(check_records(&records, false, &filter)
            .iter()
            .any(|m| m.contains("failed")));

        let exists = records[1].answer().unwrap().clone();
        let forall = |p| Answer {
            probs: vec![(1, p)],
            ..exists.clone()
        };
        assert!(forall_within_exists("q", &exists, &forall(0.5)).is_empty());
        assert_eq!(forall_within_exists("q", &exists, &forall(0.75)).len(), 1);
        let stranger = Answer {
            probs: vec![(9, 0.2)],
            ..exists.clone()
        };
        assert_eq!(forall_within_exists("q", &exists, &stranger).len(), 1);
    }

    #[test]
    fn committed_lines_round_trip() {
        let d = CountDigest {
            ops: 100,
            digest: 0xdead_beef,
            candidates: 3,
            influencers: 4,
        };
        let table = format!("# header\n{}\n", committed_line(7, true, &d));
        assert_eq!(committed(&table, 7, true).unwrap(), Some(d));
        assert_eq!(committed(&table, 7, false).unwrap(), None);
        assert_eq!(committed(&table, 8, true).unwrap(), None);
        assert!(
            committed(COMMITTED, 0, false).is_ok(),
            "the committed table parses"
        );
    }
}
