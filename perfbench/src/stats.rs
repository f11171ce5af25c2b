//! Order statistics, the process's peak resident set and the one-line JSON
//! the benchmark prints.

use std::time::{Duration, Instant};

/// The fewest timed ops a run may report percentiles over: with 100 ops the
/// 90th percentile still has ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// The benchmark's one wall-clock read; every timing goes through it.
pub fn clock() -> Instant {
    // lint: allow(T001) the benchmark is a timing harness; no clock value feeds an answer
    Instant::now()
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median and 90th percentile of per-op latencies. Errors when the run
/// has fewer than [`MIN_OPS`] ops, because p90 would then rest on fewer than
/// ten samples beyond it.
pub fn p50_p90(latencies: &[f64]) -> Result<(f64, f64), String> {
    if latencies.len() < MIN_OPS {
        return Err(format!(
            "{} timed ops; p90 needs at least {MIN_OPS} so that ten lie beyond it",
            latencies.len()
        ));
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok((percentile(&sorted, 0.5), percentile(&sorted, 0.9)))
}

/// The median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of a sample, zero when it is empty (a layer that never ran).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, zero when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A value of a one-line JSON object.
#[derive(Debug, Clone)]
pub enum Value {
    /// A number, printed with all its digits.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A nested object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        match self {
            Value::Num(x) if x.is_finite() => format!("{x}"),
            Value::Num(_) => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Value::Obj(pairs) => {
                let body: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{}:{}", Value::Str(k.clone()).render(), v.render()))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_errors_below_one_hundred_ops() {
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(p50_p90(&short).is_err());
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p50, p90) = p50_p90(&enough).unwrap();
        assert_eq!(p50, 50.0);
        assert_eq!(p90, 90.0);
        assert_eq!(
            enough.iter().filter(|&&v| v > p90).count(),
            10,
            "ten samples beyond p90"
        );
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_is_one_line() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(1.25)),
            (
                "b".into(),
                Value::Obj(vec![("u".into(), Value::Str("m\"s".into()))]),
            ),
            ("c".into(), Value::Bool(true)),
        ]);
        assert_eq!(v.render(), r#"{"a":1.25,"b":{"u":"m\"s"},"c":true}"#);
    }
}
