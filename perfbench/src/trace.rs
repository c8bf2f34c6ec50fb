//! In-memory spans recorded by the benchmark around its calls into the
//! library's public functions.
//!
//! A span is `(name, start, end, parent, request id)`. Spans live in a
//! per-thread [`Tracer`] and are merged and written out once the run
//! ends, so recording costs two clock reads and a `Vec` push. A span's
//! self time is its duration minus the part of its interval covered by
//! its children; overlapping children are counted once.

use std::io::Write;
use std::time::Instant;

use serde::Serialize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.roundtrip`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (equal to `start` while still open).
    pub end: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (share one epoch between
    /// threads so merged spans are comparable).
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now();
        self.spans.push(Span { name, start: t, end: t, parent, req });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let t = self.now();
        self.spans[id].end = t;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// A tracer holding `spans` as recorded.
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Self { epoch: Instant::now(), spans }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans, re-basing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = SpanLine {
                id,
                name: s.name.into(),
                start_ns: s.start,
                end_ns: s.end,
                parent: s.parent,
                req: s.req,
            };
            writeln!(out, "{}", crate::json(&line))?;
        }
        out.flush()
    }
}

/// A span as written to the trace file.
#[derive(Serialize)]
struct SpanLine {
    id: usize,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur().saturating_sub(covered(s.start, s.end, kids)))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start, end, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ b [15,20); c [50,60).
        let spans =
            vec![span(0, 100, None), span(10, 30, Some(0)), span(15, 20, Some(1)), span(50, 60, Some(0))];
        assert_eq!(self_times(&spans), vec![70, 15, 5, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [10,40) and [30,60) overlap on [30,40): union is 50.
        let spans = vec![span(0, 100, None), span(10, 40, Some(0)), span(30, 60, Some(0))];
        assert_eq!(self_times(&spans)[0], 50);
        // A child fully inside another adds nothing.
        let spans = vec![span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child running past its parent's end (a worker thread that
        // outlived the call) only covers the shared part.
        let spans = vec![span(0, 50, None), span(40, 80, Some(0)), span(60, 70, None)];
        assert_eq!(self_times(&spans), vec![40, 40, 10]);
    }

    #[test]
    fn absorb_rebases_parents_and_time_records() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("root", None, 1);
        a.time("child", Some(root), 1, || std::hint::black_box(3) + 1);
        a.close(root);
        let mut b = Tracer::new(epoch);
        let r = b.open("root", None, 2);
        b.time("child", Some(r), 2, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.durations_us("child").len(), 2);
        let selfs = self_times(a.spans());
        assert!(selfs[0] <= a.spans()[0].dur());
    }
}
