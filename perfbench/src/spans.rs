//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: a name (`<layer>.<op>`), a start
//! and end on one monotonic clock, the span that caused it, and the job it
//! belongs to. Spans stay in memory while the run executes and are written
//! out once at the end, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<op>`, e.g. `dram.replay` or `sim.run_rate_mode`.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (simulation or replay) this span belongs to.
    pub job: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `job`, nested under the
    /// innermost open span.
    pub fn span<R>(&mut self, name: &str, job: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records a span measured elsewhere (e.g. on a worker thread) from
    /// `start` to `end`, nested under the innermost open span.
    pub fn push_closed(&mut self, name: &str, job: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start, s.end
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover. Children of one parent may overlap
/// (spans recorded on several threads), so coverage is the length of the
/// union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Self time summed per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root.run", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            span("b.y", 50, 60, Some(0)),
            span("c.z", 15, 35, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root.run", 0, 100, None),
            span("a.x", 10, 50, Some(0)),
            span("a.x", 30, 70, Some(0)),
            span("a.x", 40, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root.run", 10, 20, None), span("a.x", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn totals_by_name() {
        let spans = vec![
            span("root.run", 0, 100, None),
            span("a.x", 0, 30, Some(0)),
            span("a.x", 30, 50, Some(0)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["a.x"], 50);
        assert_eq!(by_name["root.run"], 50);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::new();
        rec.span("outer.run", 7, |rec| rec.span("inner.op", 7, |_| ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let self_ns = self_times(spans);
        assert_eq!(self_ns[0] + self_ns[1], spans[0].duration());
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }
}
