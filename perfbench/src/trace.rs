//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer. It
//! holds a name, start and end (as offsets from the tracer's origin), its
//! parent span and the id of the op it belongs to. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use crate::stats::{clock, Value};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `index.prune`.
    pub name: &'static str,
    /// Op the span belongs to (shared by every span of one op).
    pub op: usize,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Start offset from the tracer's origin.
    pub start: Duration,
    /// End offset from the tracer's origin (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: clock(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line (times in microseconds).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(i as f64)),
                ("name".into(), Value::Str(s.name.into())),
                ("op".into(), Value::Num(s.op as f64)),
                (
                    "parent".into(),
                    Value::Num(s.parent.map_or(-1.0, |p| p as f64)),
                ),
                ("start_us".into(), Value::Num(s.start.as_secs_f64() * 1e6)),
                ("end_us".into(), Value::Num(s.end.as_secs_f64() * 1e6)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span of `spans` (indexed as a [`Tracer`] records
/// them): its duration minus the part of it that its children cover (see
/// [`self_time`]).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| self_time((s.start, s.end), c))
        .collect()
}

/// The part of `parent` not covered by any of `children`. Children are
/// clipped to the parent, and overlapping children are counted once: only
/// the union of the intervals they cover is subtracted.
pub fn self_time(parent: (Duration, Duration), children: &[(Duration, Duration)]) -> Duration {
    let (lo, hi) = parent;
    let mut clipped: Vec<(Duration, Duration)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut covered = Duration::ZERO;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    hi.saturating_sub(lo).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn self_time_subtracts_only_covered_intervals() {
        let parent = (us(0), us(100));
        // No children: all of it is self time.
        assert_eq!(self_time(parent, &[]), us(100));
        // Disjoint children leave the gaps.
        assert_eq!(
            self_time(parent, &[(us(10), us(20)), (us(50), us(70))]),
            us(70)
        );
        // Overlapping children are not subtracted twice.
        assert_eq!(
            self_time(parent, &[(us(10), us(30)), (us(20), us(40))]),
            us(70)
        );
        // A child nested in another child counts once.
        assert_eq!(
            self_time(parent, &[(us(10), us(60)), (us(20), us(30))]),
            us(50)
        );
        // Parts of a child outside the parent are clipped away.
        assert_eq!(self_time(parent, &[(us(90), us(150))]), us(90));
        assert_eq!(self_time(parent, &[(us(200), us(300))]), us(100));
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let mut t = Tracer::default();
        let root = t.begin("op.exists", 1, None);
        let v = t.span("index.prune", 1, root, || 7);
        t.end(root);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + spans[1].duration(), spans[0].duration());
    }
}
