//! In-memory spans for the traced run.
//!
//! Each call the traced loop makes into a layer is wrapped in a span
//! holding its name, start, end, parent, and the query it serves. Spans
//! stay in memory and are aggregated when the run ends. A span's self
//! time is its duration minus the part of its interval that its child
//! spans cover (children may nest, abut, or overlap; covered time counts
//! once).

use std::collections::BTreeMap;
use std::time::Instant;

/// Query id for spans that serve no single query.
pub const NO_QUERY: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `service.plane.admit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The query (arrival index) this call serves, or [`NO_QUERY`].
    pub query: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans; the most recently opened unclosed span is the parent
/// of the next one opened.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, query: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: 0, parent, query });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, query);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span (same indexing as `spans`): duration minus the
/// union of its children's intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration().saturating_sub(covered(s.start, s.end, kids)))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans with this name.
    pub calls: u64,
    /// Total self time, nanoseconds.
    pub self_ns: u64,
    /// Each span's full duration, nanoseconds (for percentiles).
    pub durations: Vec<f64>,
}

/// Aggregates spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.self_ns += own;
        a.durations.push(s.duration() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name: "x", start, end, parent, query: NO_QUERY }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(10, 25, None)]), vec![15]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100] > mid [10,60] > leaf [20,30]
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn adjacent_and_overlapping_children_count_covered_time_once() {
        // Adjacent [10,20] + [20,35], a gap, then overlapping [50,70] +
        // [60,80], and one child running past the parent's end.
        let spans = [
            span(0, 90, None),
            span(10, 20, Some(0)),
            span(20, 35, Some(0)),
            span(50, 70, Some(0)),
            span(60, 80, Some(0)),
            span(85, 95, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Covered: 25 + 30 + 5 = 60 of the parent's 90.
        assert_eq!(selfs[0], 30);
        assert_eq!(&selfs[1..], &[10, 15, 20, 20, 10]);
    }

    #[test]
    fn tracer_nests_by_open_order_and_aggregates_by_name() {
        let mut tr = Tracer::new();
        let outer = tr.open("outer", 7);
        let inner = tr.time("inner", 7, || 3);
        assert_eq!(inner, 3);
        tr.close(outer);
        tr.time("inner", NO_QUERY, || ());
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[0].query, 7);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let agg = aggregate(spans);
        assert_eq!(agg["inner"].calls, 2);
        assert_eq!(agg["outer"].calls, 1);
        let outer_self = agg["outer"].self_ns;
        assert_eq!(outer_self, spans[0].duration() - spans[1].duration());
    }
}
