//! The flight recorder: a bounded ring of slow-request span trees.
//!
//! Attach one to a [`Tracer`](crate::trace::Tracer) and every *root* span
//! that finishes at or above the threshold captures the full span tree of
//! its trace — router hops, server handlers, WAL-shipping acks — into the
//! ring. This is the slow-request log: when p99 moves, the recorder holds
//! complete traces of the requests that moved it, without paying to keep
//! every fast request. Capture happens on root-span finish because in a
//! distributed trace the client's root span closes last, so by then every
//! downstream span the tracer ring still holds is already recorded.

use crate::metrics::Counter;
use crate::trace::SpanRecord;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// One captured slow request: the root span's identity plus every span of
/// its trace that the tracer ring still held at capture time.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowCapture {
    pub trace_id: u64,
    /// Name of the root span that crossed the threshold.
    pub root_name: String,
    /// Root span duration in ms — the value compared to the threshold.
    pub duration_ms: i64,
    /// The trace's spans in finish order; children finish before their
    /// parent, so the root is last.
    pub spans: Vec<SpanRecord>,
}

struct FlightInner {
    ring: VecDeque<SlowCapture>,
    dropped: u64,
    total: u64,
}

/// Bounded ring of [`SlowCapture`]s; the tracer drives captures on
/// root-span finish. Construct directly with an explicit threshold and
/// capacity, or through
/// [`Telemetry::attach_flight_recorder`](crate::Telemetry::attach_flight_recorder),
/// which also wires ring evictions to the
/// `gallery_flight_captures_dropped_total` counter.
pub struct FlightRecorder {
    threshold_ms: i64,
    capacity: usize,
    /// Incremented alongside the internal drop count, so evictions show
    /// up in the metrics exposition without polling the recorder.
    dropped_counter: Option<Arc<Counter>>,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Capture any request whose root span takes `threshold_ms` or longer.
    pub fn new(threshold_ms: i64) -> Self {
        Self::with_capacity(threshold_ms, Self::DEFAULT_CAPACITY)
    }

    pub fn with_capacity(threshold_ms: i64, capacity: usize) -> Self {
        FlightRecorder {
            threshold_ms,
            capacity: capacity.max(1),
            dropped_counter: None,
            inner: Mutex::new(FlightInner {
                ring: VecDeque::new(),
                dropped: 0,
                total: 0,
            }),
        }
    }

    /// Mirror ring evictions into `counter` (builder-style, before the
    /// recorder is shared).
    pub fn with_dropped_counter(mut self, counter: Arc<Counter>) -> Self {
        self.dropped_counter = Some(counter);
        self
    }

    pub fn threshold_ms(&self) -> i64 {
        self.threshold_ms
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one capture. Normally the tracer calls this; tests may call
    /// it directly.
    pub fn record(&self, capture: SlowCapture) {
        let evicted = {
            let mut inner = self.inner.lock();
            inner.total += 1;
            let evicted = inner.ring.len() == self.capacity;
            if evicted {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(capture);
            evicted
        };
        // The counter touches a foreign lock-free-but-shared structure;
        // keep the ring's critical section to pure ring bookkeeping.
        if evicted {
            if let Some(counter) = &self.dropped_counter {
                counter.inc();
            }
        }
    }

    /// Retained captures, oldest first.
    pub fn captures(&self) -> Vec<SlowCapture> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Captures ever recorded, including ones the ring has since dropped.
    pub fn total_captured(&self) -> u64 {
        self.inner.lock().total
    }

    /// How many captures fell off the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn clear(&self) {
        self.inner.lock().ring.clear();
    }
}

/// Render a captured span tree for humans: parents before children,
/// indented, with durations and attributes. Spans whose parent is missing
/// from the capture (evicted from the tracer ring) print at top level.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    fn walk(out: &mut String, spans: &[SpanRecord], node: &SpanRecord, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}ms]",
            node.name,
            node.end_ms - node.start_ms
        ));
        for (k, v) in &node.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for child in spans
            .iter()
            .filter(|s| s.parent_span_id == Some(node.span_id))
        {
            walk(out, spans, child, depth + 1);
        }
    }
    let mut out = String::new();
    for root in spans.iter().filter(|s| match s.parent_span_id {
        None => true,
        Some(p) => !spans.iter().any(|q| q.span_id == p),
    }) {
        walk(&mut out, spans, root, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, trace: u64, id: u64, parent: Option<u64>, dur: i64) -> SpanRecord {
        SpanRecord {
            name,
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            start_ms: 0,
            end_ms: dur,
            attrs: vec![],
        }
    }

    fn capture(trace_id: u64) -> SlowCapture {
        SlowCapture {
            trace_id,
            root_name: "root".into(),
            duration_ms: 100,
            spans: vec![span("root", trace_id, 1, None, 100)],
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(50, 2);
        for i in 0..5 {
            rec.record(capture(i));
        }
        let kept = rec.captures();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].trace_id, 3);
        assert_eq!(kept[1].trace_id, 4);
        assert_eq!(rec.total_captured(), 5);
        assert_eq!(rec.dropped(), 3);
        rec.clear();
        assert!(rec.captures().is_empty());
        assert_eq!(rec.total_captured(), 5, "totals survive clear");
    }

    #[test]
    fn evictions_mirror_into_the_dropped_counter() {
        let counter = Counter::standalone();
        let rec = FlightRecorder::with_capacity(50, 2).with_dropped_counter(Arc::clone(&counter));
        for i in 0..5 {
            rec.record(capture(i));
        }
        assert_eq!(rec.dropped(), 3);
        assert_eq!(counter.get(), 3);
    }

    #[test]
    fn render_tree_indents_children_under_parents() {
        let spans = vec![
            span("server", 7, 3, Some(2), 10),
            span("ship", 7, 4, Some(2), 5),
            span("apply", 7, 5, Some(4), 2),
            span("client", 7, 2, None, 20),
        ];
        let tree = render_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "client [20ms]");
        assert_eq!(lines[1], "  server [10ms]");
        assert_eq!(lines[2], "  ship [5ms]");
        assert_eq!(lines[3], "    apply [2ms]");
    }

    #[test]
    fn render_tree_orphans_print_at_top_level() {
        let spans = vec![span("orphan", 1, 9, Some(999), 3)];
        assert_eq!(render_tree(&spans), "orphan [3ms]\n");
    }
}
