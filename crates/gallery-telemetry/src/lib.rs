//! Telemetry substrate for the Gallery reproduction.
//!
//! Three pillars, one bundle:
//!
//! - **Metrics** ([`metrics`]): a registry of counters, gauges, and
//!   fixed-bucket histograms with p50/p95/p99 estimates, rendered in the
//!   Prometheus text exposition format.
//! - **Traces** ([`trace`]): spans with trace/span IDs and parent links,
//!   timestamped by an injectable [`Clock`] so manual-clock tests get
//!   deterministic records. Span contexts are small enough to ride in the
//!   RPC wire envelope, which is how a client span and the server handler
//!   span end up in one trace.
//! - **Events** ([`events`]): a bounded ring of discrete occurrences
//!   (breaker transitions, retry attempts, WAL flushes, degraded reads,
//!   cache evictions) with an optional JSONL mirror.
//!
//! Components default to the process-wide [`global()`] bundle and accept an
//! explicit [`Telemetry`] handle for isolated tests and for E15's
//! overhead measurements against a [`Telemetry::disabled()`] bundle.
//!
//! This crate is a workspace *leaf*: it depends only on the vendored
//! `parking_lot`, so every other gallery crate — including `gallery-store`
//! at the bottom of the stack — can be instrumented without dependency
//! cycles.

pub mod alerts;
pub mod events;
pub mod flight;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use alerts::{
    AlertCondition, AlertEngine, AlertRule, AlertState, AlertStatus, AlertTransition, BurnWindow,
    Cmp, MetricSelector,
};
pub use events::{kinds, EventSink, TelemetryEvent};
pub use flight::{render_tree, FlightRecorder, SlowCapture};
pub use metrics::{
    default_duration_buckets_ms, default_size_buckets_bytes, parse_exemplars, parse_exposition,
    parse_samples, relabel_exposition, Counter, ExpositionSummary, FamilyKind, FamilyMeta, Gauge,
    Histogram, Registry, Sample,
};
pub use profile::{FrameStats, Profile};
pub use trace::{Clock, Span, SpanContext, SpanRecord, SystemClock, Tracer};

use std::sync::{Arc, OnceLock};

/// The three telemetry pillars behind one handle.
pub struct Telemetry {
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    events: Arc<EventSink>,
    time: Arc<dyn Clock>,
}

impl Telemetry {
    /// Fully enabled bundle on wall-clock time.
    pub fn new() -> Arc<Self> {
        Self::with_time_source(Arc::new(SystemClock))
    }

    /// Fully enabled bundle on a caller-supplied time source (deterministic
    /// spans/events under a manual clock).
    pub fn with_time_source(time: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Telemetry {
            registry: Arc::new(Registry::new()),
            tracer: Arc::new(Tracer::new(Arc::clone(&time))),
            events: Arc::new(EventSink::new(Arc::clone(&time))),
            time,
        })
    }

    /// A bundle whose every record call is a single branch and a return —
    /// the baseline E15 compares against to measure overhead.
    pub fn disabled() -> Arc<Self> {
        let time: Arc<dyn Clock> = Arc::new(SystemClock);
        Arc::new(Telemetry {
            registry: Arc::new(Registry::disabled()),
            tracer: Arc::new(Tracer::disabled(Arc::clone(&time))),
            events: Arc::new(EventSink::disabled(Arc::clone(&time))),
            time,
        })
    }

    /// Assemble a bundle from explicit parts. The cluster uses this to
    /// give each node a *private* metrics [`Registry`] — so federation can
    /// tell the nodes apart when it scrapes them — while every node shares
    /// one tracer, event ring, and time source, which is what lets a
    /// cross-node trace land in a single place.
    pub fn from_parts(
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
        events: Arc<EventSink>,
        time: Arc<dyn Clock>,
    ) -> Arc<Self> {
        Arc::new(Telemetry {
            registry,
            tracer,
            events,
            time,
        })
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The time source every pillar (and the alert engine) shares.
    pub fn time_source(&self) -> &Arc<dyn Clock> {
        &self.time
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    pub fn events(&self) -> &Arc<EventSink> {
        &self.events
    }

    /// Shorthand for `registry().render_text()`.
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }

    /// Attach a flight recorder with an explicit threshold and capacity —
    /// the configuration seam the recorder itself lacks (its knobs are
    /// fixed at construction). Ring evictions are mirrored into the
    /// `gallery_flight_captures_dropped_total` counter of this bundle's
    /// registry. Returns the recorder so callers can inspect captures.
    pub fn attach_flight_recorder(
        &self,
        threshold_ms: i64,
        capacity: usize,
    ) -> Arc<FlightRecorder> {
        let dropped = self
            .registry
            .counter("gallery_flight_captures_dropped_total", &[]);
        let recorder = Arc::new(
            FlightRecorder::with_capacity(threshold_ms, capacity).with_dropped_counter(dropped),
        );
        self.tracer.attach_flight_recorder(Arc::clone(&recorder));
        recorder
    }

    /// Fold the tracer's retained spans into a [`Profile`] (self/total
    /// time per stack) — the artifact behind `Probe{"profile"}` and
    /// `gallery profile`.
    pub fn profile(&self) -> Profile {
        Profile::fold(&self.tracer.finished_spans())
    }
}

/// The process-wide telemetry bundle. Components that are not handed an
/// explicit [`Telemetry`] record here, which is what `gallery stats` and
/// the service's exposition endpoint read.
pub fn global() -> &'static Arc<Telemetry> {
    static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_one_time_source() {
        struct Fixed;
        impl Clock for Fixed {
            fn now_ms(&self) -> i64 {
                777
            }
        }
        let t = Telemetry::with_time_source(Arc::new(Fixed));
        t.events().emit(kinds::WAL_FLUSH, vec![]);
        assert_eq!(t.events().recent()[0].ts_ms, 777);
        let span = t.tracer().start_span("x");
        span.finish();
        assert_eq!(t.tracer().finished_spans()[0].start_ms, 777);
    }

    #[test]
    fn from_parts_shares_tracer_but_not_registry() {
        let shared = Telemetry::new();
        let node = Telemetry::from_parts(
            Arc::new(Registry::new()),
            Arc::clone(shared.tracer()),
            Arc::clone(shared.events()),
            Arc::clone(shared.time_source()),
        );
        // Same span ring: a span opened on the node bundle is visible on
        // the shared one.
        node.tracer().start_span("cross-node").finish();
        assert_eq!(shared.tracer().finished_spans().len(), 1);
        // Separate registries: node counters never leak into the shared
        // exposition.
        node.registry().counter("node_only_total", &[]).add(3);
        assert!(!shared.render_text().contains("node_only_total"));
        assert!(node.render_text().contains("node_only_total 3"));
    }

    #[test]
    fn bundle_attaches_configured_flight_recorder_with_drop_counter() {
        struct Fixed;
        impl Clock for Fixed {
            fn now_ms(&self) -> i64 {
                0
            }
        }
        let t = Telemetry::with_time_source(Arc::new(Fixed));
        let rec = t.attach_flight_recorder(0, 2);
        assert_eq!(rec.threshold_ms(), 0);
        assert_eq!(rec.capacity(), 2);
        assert!(Arc::ptr_eq(&rec, &t.tracer().flight_recorder().unwrap()));
        // Threshold 0 captures every root span; capacity 2 evicts the rest.
        for name in ["r0", "r1", "r2", "r3", "r4"] {
            t.tracer().start_span(name).finish();
        }
        assert_eq!(rec.captures().len(), 2);
        assert_eq!(
            t.registry()
                .sample_value("gallery_flight_captures_dropped_total", &[]),
            Some(3.0)
        );
    }

    #[test]
    fn global_is_singleton_and_enabled() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.registry().is_enabled());
    }

    #[test]
    fn disabled_bundle_renders_empty_families() {
        let t = Telemetry::disabled();
        let c = t.registry().counter("noop_total", &[]);
        c.add(9);
        assert_eq!(c.get(), 0);
        let text = t.render_text();
        assert!(text.contains("noop_total 0"));
        parse_exposition(&text).unwrap();
    }
}
