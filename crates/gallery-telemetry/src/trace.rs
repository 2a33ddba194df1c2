//! Span-based tracing with deterministic IDs and injectable time.
//!
//! The tracer is deliberately minimal: spans carry a trace ID, a span ID,
//! an optional parent link, and start/end timestamps taken from a
//! [`Clock`]. IDs come from a per-tracer counter, so a tracer driven
//! by a manual time source produces byte-identical span records run after
//! run — the property the determinism tests pin down.
//!
//! [`Clock`] is the one time abstraction of the whole workspace. It lives
//! here because `gallery-telemetry` sits below every crate that tells the
//! time; `gallery-core` re-exports it next to its `ManualClock`.

use crate::flight::{FlightRecorder, SlowCapture};
use gallery_sync::{rank, OrderedMutex};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

thread_local! {
    /// Spans started on this thread and not yet finished, innermost last:
    /// `(tracer identity, span_id, trace_id)`. This is the ambient context
    /// behind [`Tracer::current_trace_id`] — how the store stamps
    /// slow-query captures and histogram exemplars with the trace that was
    /// active when no one threaded a `SpanContext` down to it.
    static ACTIVE_SPANS: RefCell<Vec<(usize, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A source of timestamps (milliseconds since the UNIX epoch), injectable
/// so tests and simulations can drive it.
pub trait Clock: Send + Sync {
    fn now_ms(&self) -> i64;
}

/// Wall-clock time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_ms(&self) -> i64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0)
    }
}

/// The propagatable identity of a span: enough to stitch a child (possibly
/// on the other side of an RPC) into the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    pub trace_id: u64,
    pub span_id: u64,
}

/// A completed span as stored by the tracer. The name is a literal (the
/// RPC names come from the message table), and an attribute value borrows
/// when it is one too, so recording a span copies no text it does not
/// have to.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: Option<u64>,
    pub start_ms: i64,
    pub end_ms: i64,
    pub attrs: Vec<(&'static str, Cow<'static, str>)>,
}

struct TracerInner {
    finished: VecDeque<SpanRecord>,
    dropped: u64,
}

/// Mints spans and keeps a bounded ring of finished ones.
pub struct Tracer {
    time: Arc<dyn Clock>,
    next_id: AtomicU64,
    inner: OrderedMutex<TracerInner>,
    capacity: usize,
    enabled: bool,
    flight: OrderedMutex<Option<Arc<FlightRecorder>>>,
}

impl Tracer {
    pub const DEFAULT_CAPACITY: usize = 4096;

    pub fn new(time: Arc<dyn Clock>) -> Self {
        Self::with_capacity(time, Self::DEFAULT_CAPACITY)
    }

    pub fn with_capacity(time: Arc<dyn Clock>, capacity: usize) -> Self {
        Tracer {
            time,
            next_id: AtomicU64::new(1),
            inner: OrderedMutex::new(
                rank::TRACER,
                TracerInner {
                    finished: VecDeque::new(),
                    dropped: 0,
                },
            ),
            capacity: capacity.max(1),
            enabled: true,
            flight: OrderedMutex::new(rank::TRACER_FLIGHT, None),
        }
    }

    /// Attach a flight recorder: from now on, every finished *root* span
    /// at least `recorder.threshold_ms()` long captures its whole trace
    /// (as retained by this tracer's ring) into the recorder.
    pub fn attach_flight_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.flight.lock() = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.lock().clone()
    }

    /// A tracer that mints contexts but records nothing.
    pub fn disabled(time: Arc<dyn Clock>) -> Self {
        let mut t = Self::new(time);
        t.enabled = false;
        t
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a root span: a fresh trace.
    pub fn start_span(self: &Arc<Self>, name: &'static str) -> Span {
        let trace_id = self.next_id();
        self.start_with(name, trace_id, None)
    }

    /// Start a child span under an existing context (same trace).
    pub fn start_child(self: &Arc<Self>, name: &'static str, parent: SpanContext) -> Span {
        self.start_with(name, parent.trace_id, Some(parent.span_id))
    }

    fn start_with(
        self: &Arc<Self>,
        name: &'static str,
        trace_id: u64,
        parent_span_id: Option<u64>,
    ) -> Span {
        let span_id = self.next_id();
        if self.enabled {
            let tracer = Arc::as_ptr(self) as usize;
            ACTIVE_SPANS.with(|s| s.borrow_mut().push((tracer, span_id, trace_id)));
        }
        Span {
            tracer: Arc::clone(self),
            ctx: SpanContext { trace_id, span_id },
            parent_span_id,
            name,
            start_ms: self.time.now_ms(),
            attrs: Vec::new(),
            finished: false,
        }
    }

    /// Trace ID of the innermost span started *by this tracer, on this
    /// thread* and not yet finished; 0 when none. A span that migrates to
    /// another thread before finishing is invisible here — ambient context
    /// is strictly thread-local.
    pub fn current_trace_id(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let tracer = self as *const Tracer as usize;
        ACTIVE_SPANS.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _, _)| *t == tracer)
                .map(|(_, _, trace_id)| *trace_id)
                .unwrap_or(0)
        })
    }

    fn record(&self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        // Only root spans can trip the flight recorder: the root closes
        // last, so its trace is complete in the ring at this moment.
        let recorder = if span.parent_span_id.is_none() {
            self.flight.lock().clone()
        } else {
            None
        };
        let trace_id = span.trace_id;
        let duration_ms = span.end_ms - span.start_ms;
        let capture = {
            let mut inner = self.inner.lock();
            if inner.finished.len() == self.capacity {
                inner.finished.pop_front();
                inner.dropped += 1;
            }
            inner.finished.push_back(span);
            match &recorder {
                Some(rec) if duration_ms >= rec.threshold_ms() => Some(
                    inner
                        .finished
                        .iter()
                        .filter(|s| s.trace_id == trace_id)
                        .cloned()
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            }
        };
        // The recorder takes its own lock; call it outside ours.
        if let (Some(rec), Some(spans)) = (recorder, capture) {
            let root_name = spans.last().map(|s| s.name.to_owned()).unwrap_or_default();
            rec.record(SlowCapture {
                trace_id,
                root_name,
                duration_ms,
                spans,
            });
        }
    }

    /// All finished spans currently retained, oldest first.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().finished.iter().cloned().collect()
    }

    /// Finished spans belonging to one trace, oldest first.
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .finished
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Distinct trace IDs among retained spans, in first-seen order.
    pub fn trace_ids(&self) -> Vec<u64> {
        let inner = self.inner.lock();
        let mut ids = Vec::new();
        for s in &inner.finished {
            if !ids.contains(&s.trace_id) {
                ids.push(s.trace_id);
            }
        }
        ids
    }

    /// How many finished spans fell off the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.finished.clear();
        inner.dropped = 0;
    }
}

/// A live span. Finish it explicitly with [`Span::finish`]; dropping it
/// unfinished records it too (so early-return paths are still traced).
pub struct Span {
    tracer: Arc<Tracer>,
    ctx: SpanContext,
    parent_span_id: Option<u64>,
    name: &'static str,
    start_ms: i64,
    attrs: Vec<(&'static str, Cow<'static, str>)>,
    finished: bool,
}

impl Span {
    /// The propagatable identity of this span.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Attach a key/value attribute (e.g. `("outcome", "ok")`). A literal
    /// value is borrowed, a computed `String` is moved in. A disabled
    /// tracer records nothing, so it keeps nothing here either.
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<Cow<'static, str>>) {
        if self.tracer.enabled {
            self.attrs.push((key, value.into()));
        }
    }

    /// Close the span, stamping the end time.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.tracer.enabled {
            let tracer = Arc::as_ptr(&self.tracer) as usize;
            ACTIVE_SPANS.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack
                    .iter()
                    .rposition(|(t, id, _)| *t == tracer && *id == self.ctx.span_id)
                {
                    stack.remove(pos);
                }
            });
        }
        let record = SpanRecord {
            name: self.name,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.parent_span_id,
            start_ms: self.start_ms,
            end_ms: self.tracer.time.now_ms(),
            attrs: std::mem::take(&mut self.attrs),
        };
        self.tracer.record(record);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic time source: starts at `t0`, each reading advances
    /// by `step` (mirrors core's `ManualClock` contract of strictly
    /// increasing readings without depending on gallery-core).
    struct StepClock {
        now: AtomicU64,
        step: u64,
    }

    impl StepClock {
        fn new(t0: i64, step: u64) -> Arc<Self> {
            Arc::new(StepClock {
                now: AtomicU64::new(t0 as u64),
                step,
            })
        }
    }

    impl Clock for StepClock {
        fn now_ms(&self) -> i64 {
            self.now.fetch_add(self.step, Ordering::Relaxed) as i64
        }
    }

    #[test]
    fn parent_links_and_trace_grouping() {
        let tracer = Arc::new(Tracer::new(StepClock::new(1000, 1)));
        let root = tracer.start_span("request");
        let root_ctx = root.context();
        let child = tracer.start_child("handler", root_ctx);
        let child_ctx = child.context();
        child.finish();
        root.finish();

        let spans = tracer.spans_for_trace(root_ctx.trace_id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "handler");
        assert_eq!(spans[0].parent_span_id, Some(root_ctx.span_id));
        assert_eq!(spans[1].name, "request");
        assert_eq!(spans[1].parent_span_id, None);
        assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
        assert_ne!(child_ctx.span_id, root_ctx.span_id);
    }

    #[test]
    fn deterministic_under_manual_time() {
        let run = || {
            let tracer = Arc::new(Tracer::new(StepClock::new(5000, 10)));
            let mut root = tracer.start_span("op");
            root.set_attr("outcome", "ok");
            let child = tracer.start_child("inner", root.context());
            child.finish();
            root.finish();
            tracer.finished_spans()
        };
        assert_eq!(run(), run(), "same time source → identical span records");
    }

    #[test]
    fn drop_records_unfinished_spans() {
        let tracer = Arc::new(Tracer::new(StepClock::new(0, 1)));
        {
            let _span = tracer.start_span("early-return");
        }
        assert_eq!(tracer.finished_spans().len(), 1);
    }

    #[test]
    fn ring_capacity_drops_oldest() {
        let tracer = Arc::new(Tracer::with_capacity(StepClock::new(0, 1), 2));
        for name in ["s0", "s1", "s2", "s3"] {
            tracer.start_span(name).finish();
        }
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "s2");
        assert_eq!(tracer.dropped(), 2);
    }

    #[test]
    fn flight_recorder_captures_slow_root_with_whole_trace() {
        // step=10 and three spans: root start, child start, child end,
        // root end → root duration 30ms, child 10ms.
        let tracer = Arc::new(Tracer::new(StepClock::new(0, 10)));
        let recorder = Arc::new(FlightRecorder::new(30));
        tracer.attach_flight_recorder(Arc::clone(&recorder));

        let root = tracer.start_span("slow-request");
        let child = tracer.start_child("handler", root.context());
        child.finish();
        root.finish();

        let captures = recorder.captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].root_name, "slow-request");
        assert_eq!(captures[0].duration_ms, 30);
        let names: Vec<&str> = captures[0].spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["handler", "slow-request"]);
    }

    #[test]
    fn flight_recorder_ignores_fast_roots_and_slow_children() {
        let tracer = Arc::new(Tracer::new(StepClock::new(0, 10)));
        let recorder = Arc::new(FlightRecorder::new(25));
        tracer.attach_flight_recorder(Arc::clone(&recorder));

        // Fast root: start/end one step apart → 10ms < 25ms.
        tracer.start_span("fast").finish();
        // Slow child under a fast root: the child alone never triggers.
        let root = tracer.start_span("parent");
        let ctx = root.context();
        root.finish(); // 10ms
        let slow_child = tracer.start_child("slow-child", ctx);
        for _ in 0..5 {
            tracer.start_span("noise").finish();
        }
        slow_child.finish(); // well over threshold, but not a root
        assert_eq!(recorder.total_captured(), 0);
    }

    #[test]
    fn current_trace_id_tracks_innermost_open_span() {
        let tracer = Arc::new(Tracer::new(StepClock::new(0, 1)));
        assert_eq!(tracer.current_trace_id(), 0);
        let root = tracer.start_span("outer");
        let root_trace = root.context().trace_id;
        assert_eq!(tracer.current_trace_id(), root_trace);
        {
            // A fresh root on the same thread shadows the outer one...
            let inner = tracer.start_span("inner-root");
            assert_eq!(tracer.current_trace_id(), inner.context().trace_id);
        }
        // ...and finishing it restores the outer trace.
        assert_eq!(tracer.current_trace_id(), root_trace);
        root.finish();
        assert_eq!(tracer.current_trace_id(), 0);

        // Two tracers on one thread never see each other's spans.
        let other = Arc::new(Tracer::new(StepClock::new(0, 1)));
        let _span = tracer.start_span("mine");
        assert_eq!(other.current_trace_id(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Arc::new(Tracer::disabled(StepClock::new(0, 1)));
        let span = tracer.start_span("invisible");
        let ctx = span.context();
        span.finish();
        assert_ne!(ctx.trace_id, 0, "contexts still minted when disabled");
        assert!(tracer.finished_spans().is_empty());
    }
}
