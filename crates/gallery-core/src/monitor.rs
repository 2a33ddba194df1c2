//! Continuous model-health monitoring (§3.6, made live).
//!
//! [`crate::health`] computes *point-in-time* health reports from stored
//! metrics. This module closes the loop the paper sketches for Gallery's
//! health service: a [`ModelMonitor`] ingests a stream of per-prediction
//! [`ScoringEvent`]s for one deployed model instance, maintains a sliding
//! window on an injectable [`Clock`], and on every [`ModelMonitor::
//! evaluate`] tick publishes the derived health signals as telemetry
//! gauges/histograms — the surface the `gallery-telemetry` alert engine
//! watches. A `drift > τ` alert firing off these gauges can then invoke
//! lifecycle actions (deprecate, roll the production pointer back) via
//! the `gallery-rules` bridge, completing monitor → alert → react.
//!
//! Published families (all labelled `instance=<id>`):
//!
//! | family                                  | kind      | meaning |
//! |-----------------------------------------|-----------|---------|
//! | `gallery_monitor_events_total`          | counter   | scoring events ingested |
//! | `gallery_monitor_errors_total`          | counter   | events flagged as errors |
//! | `gallery_monitor_drift_score`           | gauge ×1e6| drift statistic of the prediction stream vs the training baseline |
//! | `gallery_monitor_feature_completeness`  | gauge ×1e6| fraction of non-missing feature values in the window |
//! | `gallery_monitor_staleness_ms`          | gauge     | now − newest event's timestamp |
//! | `gallery_monitor_window_events`         | gauge     | events currently inside the window |
//! | `gallery_monitor_abs_error`             | histogram | per-event absolute error, carrying trace exemplars |
//!
//! Gauges are integers, so real-valued signals are published scaled by
//! [`SCALE`] (1e6); alert thresholds on these families must use the same
//! scale (the `gallery-rules` bridge does this automatically).

use crate::clock::Clock;
use crate::health::drift::WindowMeanShift;
use crate::id::InstanceId;
use gallery_telemetry::{Counter, Gauge, Histogram, Telemetry};
use std::collections::VecDeque;
use std::sync::Arc;

/// Fixed-point scale for real-valued signals published through integer
/// gauges: a drift score of 0.25 is exported as 250_000.
pub const SCALE: f64 = 1e6;

/// Catalog of the metric families the monitor exports, with their scales
/// and declared (descaled) value ranges. The rule analyzer resolves alert
/// conditions against this; `docs/metrics.md` documents the same names.
pub const FAMILIES: &[gallery_telemetry::FamilyMeta] = &[
    gallery_telemetry::FamilyMeta::counter("gallery_monitor_events_total"),
    gallery_telemetry::FamilyMeta::counter("gallery_monitor_errors_total"),
    gallery_telemetry::FamilyMeta::gauge(
        "gallery_monitor_drift_score",
        SCALE,
        f64::NEG_INFINITY,
        f64::INFINITY,
    ),
    gallery_telemetry::FamilyMeta::gauge("gallery_monitor_feature_completeness", SCALE, 0.0, 1.0),
    gallery_telemetry::FamilyMeta::gauge("gallery_monitor_staleness_ms", 1.0, 0.0, f64::INFINITY),
    gallery_telemetry::FamilyMeta::gauge("gallery_monitor_window_events", 1.0, 0.0, f64::INFINITY),
    gallery_telemetry::FamilyMeta::histogram("gallery_monitor_abs_error"),
];

/// One scored request observed in production.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringEvent {
    pub ts_ms: i64,
    /// Model output.
    pub predicted: f64,
    /// Ground truth, when the label has arrived (absent labels count
    /// against feature completeness but not error).
    pub actual: Option<f64>,
    /// Feature vector as (name, value) pairs; `None` marks a missing value.
    pub features: Vec<(String, Option<f64>)>,
    /// Trace that produced the score; becomes the histogram exemplar an
    /// alert links back to. 0 = no trace.
    pub trace_id: u64,
}

impl ScoringEvent {
    pub fn new(ts_ms: i64, predicted: f64) -> Self {
        ScoringEvent {
            ts_ms,
            predicted,
            actual: None,
            features: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn actual(mut self, v: f64) -> Self {
        self.actual = Some(v);
        self
    }

    pub fn feature(mut self, name: impl Into<String>, value: Option<f64>) -> Self {
        self.features.push((name.into(), value));
        self
    }

    pub fn trace(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sliding-window span; events older than `now - window_ms` fall out.
    pub window_ms: i64,
    /// Mean and standard deviation of the model's prediction stream at
    /// training time — the reference the drift detector tests against.
    pub baseline_mean: f64,
    pub baseline_std: f64,
    /// Z-score above which the window mean counts as drifted.
    pub drift_z_threshold: f64,
    /// |predicted − actual| above which an event counts as an error.
    pub error_tolerance: f64,
    /// Upper bucket edges for the absolute-error histogram.
    pub error_buckets: Vec<f64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_ms: 60_000,
            baseline_mean: 0.0,
            baseline_std: 1.0,
            drift_z_threshold: 3.0,
            error_tolerance: 0.5,
            error_buckets: vec![0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0],
        }
    }
}

/// Signals derived from the current window by one evaluation tick.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    pub instance_id: InstanceId,
    pub ts_ms: i64,
    /// Events inside the window.
    pub window_events: usize,
    /// Drift statistic (z-score of the window's prediction mean against
    /// the training baseline); `None` while the window is empty.
    pub drift_score: Option<f64>,
    pub drifted: bool,
    /// Fraction of present feature values (and labels) in the window;
    /// 1.0 for an empty window — nothing observed is nothing missing.
    pub feature_completeness: f64,
    /// now − newest event timestamp; `window_ms` when the window is empty.
    pub staleness_ms: i64,
}

/// Pre-minted per-instance telemetry handles.
struct MonitorMetrics {
    events_total: Arc<Counter>,
    errors_total: Arc<Counter>,
    drift_score: Arc<Gauge>,
    completeness: Arc<Gauge>,
    staleness_ms: Arc<Gauge>,
    window_events: Arc<Gauge>,
    abs_error: Arc<Histogram>,
}

/// Sliding-window health monitor for one model instance.
pub struct ModelMonitor {
    instance_id: InstanceId,
    config: MonitorConfig,
    clock: Arc<dyn Clock>,
    window: VecDeque<ScoringEvent>,
    metrics: MonitorMetrics,
}

impl ModelMonitor {
    pub fn new(
        instance_id: InstanceId,
        config: MonitorConfig,
        clock: Arc<dyn Clock>,
        telemetry: &Arc<Telemetry>,
    ) -> Self {
        let r = telemetry.registry();
        let labels = &[("instance", instance_id.as_str())][..];
        let metrics = MonitorMetrics {
            events_total: r.counter("gallery_monitor_events_total", labels),
            errors_total: r.counter("gallery_monitor_errors_total", labels),
            drift_score: r.gauge("gallery_monitor_drift_score", labels),
            completeness: r.gauge("gallery_monitor_feature_completeness", labels),
            staleness_ms: r.gauge("gallery_monitor_staleness_ms", labels),
            window_events: r.gauge("gallery_monitor_window_events", labels),
            abs_error: r.histogram("gallery_monitor_abs_error", labels, &config.error_buckets),
        };
        ModelMonitor {
            instance_id,
            config,
            clock,
            window: VecDeque::new(),
            metrics,
        }
    }

    pub fn instance_id(&self) -> &InstanceId {
        &self.instance_id
    }

    /// The absolute-error histogram handle — what an alert rule passes to
    /// [`AlertRule::exemplar_from`](gallery_telemetry::AlertRule) to link
    /// firings to breaching traces.
    pub fn error_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.metrics.abs_error)
    }

    /// Ingest one scoring event. Counters and the error histogram update
    /// immediately (with the event's trace as exemplar); windowed gauges
    /// update on the next [`ModelMonitor::evaluate`] tick.
    pub fn record(&mut self, event: ScoringEvent) {
        self.metrics.events_total.inc();
        if let Some(actual) = event.actual {
            let abs_err = (event.predicted - actual).abs();
            self.metrics
                .abs_error
                .observe_with_exemplar(abs_err, event.trace_id);
            if abs_err > self.config.error_tolerance {
                self.metrics.errors_total.inc();
            }
        }
        self.window.push_back(event);
    }

    /// Drop events older than the window, recompute every signal, publish
    /// the gauges, and return the snapshot.
    pub fn evaluate(&mut self) -> MonitorSnapshot {
        let now = self.clock.now_ms();
        let cutoff = now - self.config.window_ms;
        while self.window.front().is_some_and(|e| e.ts_ms < cutoff) {
            self.window.pop_front();
        }

        // Drift: z-test of the window's prediction mean against the
        // training baseline, via the §3.6 WindowMeanShift detector seeded
        // with the baseline as its reference window.
        let (drift_score, drifted) = if self.window.is_empty() {
            (None, false)
        } else {
            let n = self.window.len().max(2);
            let mut shift = WindowMeanShift::new(n, self.config.drift_z_threshold);
            // Reference: a synthetic baseline window of the same length,
            // alternating mean ± std so it reproduces the configured
            // training-time moments.
            for i in 0..n {
                let sign = if i % 2 == 0 { -1.0 } else { 1.0 };
                shift.observe(self.config.baseline_mean + sign * self.config.baseline_std);
            }
            for e in &self.window {
                shift.observe(e.predicted);
            }
            let verdict = shift.check();
            (Some(verdict.statistic), verdict.drifted)
        };

        let (present, expected) = self.window.iter().fold((0usize, 0usize), |acc, e| {
            let present = e.features.iter().filter(|(_, v)| v.is_some()).count();
            (acc.0 + present, acc.1 + e.features.len())
        });
        let feature_completeness = if expected == 0 {
            1.0
        } else {
            present as f64 / expected as f64
        };

        let staleness_ms = self
            .window
            .back()
            .map(|e| now - e.ts_ms)
            .unwrap_or(self.config.window_ms);

        if let Some(score) = drift_score {
            self.metrics.drift_score.set((score * SCALE) as i64);
        }
        self.metrics
            .completeness
            .set((feature_completeness * SCALE) as i64);
        self.metrics.staleness_ms.set(staleness_ms);
        self.metrics.window_events.set(self.window.len() as i64);

        MonitorSnapshot {
            instance_id: self.instance_id.clone(),
            ts_ms: now,
            window_events: self.window.len(),
            drift_score,
            drifted,
            feature_completeness,
            staleness_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use gallery_telemetry::MetricSelector;

    fn setup() -> (Arc<ManualClock>, Arc<Telemetry>, ModelMonitor) {
        let clock = Arc::new(ManualClock::new(1_000_000));
        let telemetry = Telemetry::new();
        let monitor = ModelMonitor::new(
            InstanceId("i-test".into()),
            MonitorConfig {
                window_ms: 1_000,
                baseline_mean: 0.0,
                baseline_std: 1.0,
                drift_z_threshold: 3.0,
                ..MonitorConfig::default()
            },
            clock.clone(),
            &telemetry,
        );
        (clock, telemetry, monitor)
    }

    #[test]
    fn stable_stream_does_not_drift() {
        let (clock, _t, mut m) = setup();
        for i in 0..50 {
            m.record(ScoringEvent::new(
                clock.now_ms(),
                (i % 5) as f64 / 5.0 - 0.4,
            ));
            clock.advance(10);
        }
        let snap = m.evaluate();
        assert!(!snap.drifted, "in-distribution stream drifted: {snap:?}");
        assert_eq!(snap.window_events, 50);
    }

    #[test]
    fn shifted_stream_drifts_and_publishes_gauge() {
        let (clock, t, mut m) = setup();
        for _ in 0..50 {
            m.record(ScoringEvent::new(clock.now_ms(), 8.0));
            clock.advance(10);
        }
        let snap = m.evaluate();
        assert!(snap.drifted);
        let gauge = t
            .registry()
            .sample_value("gallery_monitor_drift_score", &[("instance", "i-test")])
            .unwrap();
        assert!(
            gauge > 3.0 * SCALE,
            "gauge {gauge} must exceed z-threshold at SCALE"
        );
        // The selector the alert bridge uses sees the same value.
        let sel = MetricSelector::family("gallery_monitor_drift_score");
        assert_eq!(sel.value(t.registry()), Some(gauge));
    }

    #[test]
    fn window_slides_and_staleness_grows() {
        let (clock, _t, mut m) = setup();
        m.record(ScoringEvent::new(clock.now_ms(), 0.1));
        let snap = m.evaluate();
        assert_eq!(snap.window_events, 1);
        // ManualClock issues strictly monotonic stamps, so "now" is one
        // tick past the event.
        assert!(
            snap.staleness_ms <= 1,
            "fresh event, got {}",
            snap.staleness_ms
        );
        clock.advance(2_000);
        let snap = m.evaluate();
        assert_eq!(snap.window_events, 0, "event aged out");
        assert_eq!(snap.drift_score, None, "empty window has no drift score");
        assert_eq!(snap.staleness_ms, 1_000, "empty window reports window span");
    }

    #[test]
    fn completeness_counts_missing_features_and_errors_count() {
        let (clock, t, mut m) = setup();
        m.record(
            ScoringEvent::new(clock.now_ms(), 1.0)
                .actual(1.05)
                .feature("city", Some(1.0))
                .feature("surge", None),
        );
        m.record(
            ScoringEvent::new(clock.now_ms(), 1.0)
                .actual(9.0) // error far past tolerance
                .feature("city", Some(2.0))
                .feature("surge", Some(0.5))
                .trace(77),
        );
        let snap = m.evaluate();
        assert!((snap.feature_completeness - 0.75).abs() < 1e-9);
        let errors = t
            .registry()
            .sample_value("gallery_monitor_errors_total", &[("instance", "i-test")]);
        assert_eq!(errors, Some(1.0));
        assert_eq!(m.error_histogram().tail_exemplar(), Some(77));
    }
}
