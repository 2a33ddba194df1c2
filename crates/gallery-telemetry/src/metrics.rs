//! Process-wide metrics: counters, gauges, and fixed-bucket histograms.
//!
//! The registry hands out `Arc` handles that instrumented components cache
//! at construction time, so the hot path never touches the registry lock —
//! a counter increment is one relaxed atomic add, a histogram observation
//! is a binary search over the bucket bounds plus two atomic adds. A
//! registry (and every handle minted from it) can be created *disabled*,
//! which turns each record call into a single branch; E15 uses that to
//! measure instrumentation overhead.
//!
//! Exposition follows the Prometheus text format (`# TYPE` comments,
//! `name{label="v"} value` samples, `_bucket`/`_sum`/`_count` histogram
//! series) and [`parse_exposition`] is the matching line-format lint used
//! by tests and CI.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What kind of instrument a metric family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

/// Static description of a metric family: its exposition name, instrument
/// kind, fixed-point scale (1.0 when values are exported as-is), and the
/// declared range of the *descaled* value (`f64::INFINITY` bounds when
/// unbounded). Producers export catalogs of these so rule analyzers can
/// resolve identifiers and check thresholds against declared ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyMeta {
    pub name: &'static str,
    pub kind: FamilyKind,
    pub scale: f64,
    pub lo: f64,
    pub hi: f64,
}

impl FamilyMeta {
    pub const fn counter(name: &'static str) -> Self {
        FamilyMeta {
            name,
            kind: FamilyKind::Counter,
            scale: 1.0,
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }

    pub const fn gauge(name: &'static str, scale: f64, lo: f64, hi: f64) -> Self {
        FamilyMeta {
            name,
            kind: FamilyKind::Gauge,
            scale,
            lo,
            hi,
        }
    }

    pub const fn histogram(name: &'static str) -> Self {
        FamilyMeta {
            name,
            kind: FamilyKind::Histogram,
            scale: 1.0,
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }
}

/// Monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: bool,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Counter {
            value: AtomicU64::new(0),
            enabled,
        }
    }

    /// A counter not attached to any registry (always enabled). Useful for
    /// components that want tallies even before telemetry is wired in.
    pub fn standalone() -> Arc<Self> {
        Arc::new(Counter::new(true))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if self.enabled {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (e.g. bytes currently cached).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    enabled: bool,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Gauge {
            value: AtomicI64::new(0),
            enabled,
        }
    }

    pub fn standalone() -> Arc<Self> {
        Arc::new(Gauge::new(true))
    }

    pub fn set(&self, v: i64) {
        if self.enabled {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    pub fn add(&self, delta: i64) {
        if self.enabled {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram with cheap quantile estimates.
///
/// Bounds are *upper* bucket edges; an implicit `+Inf` bucket catches the
/// tail. Quantiles are estimated by linear interpolation inside the bucket
/// containing the requested rank, so the estimate is always within one
/// bucket of the exact order statistic (the property `tests/` proptests).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the +Inf overflow slot.
    buckets: Vec<AtomicU64>,
    /// Last exemplar trace ID per bucket (0 = none), parallel to `buckets`.
    exemplars: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits, updated with a CAS loop; Relaxed is fine — the sum is
    /// only read for exposition, never for control flow.
    sum_bits: AtomicU64,
    enabled: bool,
}

impl Histogram {
    fn new(bounds: Vec<f64>, enabled: bool) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let exemplars = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            exemplars,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            enabled,
        }
    }

    pub fn standalone(bounds: Vec<f64>) -> Arc<Self> {
        Arc::new(Histogram::new(bounds, true))
    }

    /// Record one observation, returning the bucket it landed in.
    fn record(&self, v: f64) -> usize {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        idx
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if !self.enabled {
            return;
        }
        self.record(v);
    }

    /// Record one observation and remember `trace_id` as the bucket's
    /// exemplar — the trace an alert on this histogram will link to. A
    /// trace ID of 0 records the value but leaves the exemplar untouched.
    pub fn observe_with_exemplar(&self, v: f64, trace_id: u64) {
        if !self.enabled {
            return;
        }
        let idx = self.record(v);
        if trace_id != 0 {
            self.exemplars[idx].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Record the elapsed time since `start` in milliseconds.
    pub fn observe_since(&self, start: Instant) {
        if self.enabled {
            self.observe(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts, including the +Inf slot.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-bucket exemplar trace IDs (0 = none), parallel to
    /// [`Histogram::bucket_counts`].
    pub fn bucket_exemplars(&self) -> Vec<u64> {
        self.exemplars
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .collect()
    }

    /// Exemplar of the highest (tail) bucket that has one: the trace that
    /// most recently produced an extreme observation. This is what a
    /// firing alert links to.
    pub fn tail_exemplar(&self) -> Option<u64> {
        self.exemplars.iter().rev().find_map(|e| {
            let v = e.load(Ordering::Relaxed);
            (v != 0).then_some(v)
        })
    }

    /// Estimated value at quantile `q` in `[0, 1]`, or `None` if empty.
    ///
    /// Linear interpolation between the bucket's lower and upper edge;
    /// observations in the +Inf bucket report the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested order statistic, 1-based.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += c;
            if cumulative >= rank {
                let upper = match self.bounds.get(i) {
                    Some(&b) => b,
                    None => return Some(*self.bounds.last()?), // +Inf bucket
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let within = (rank - prev) as f64 / c as f64;
                return Some(lower + (upper - lower) * within);
            }
        }
        self.bounds.last().copied()
    }
}

/// Default bucket edges for operation durations in milliseconds: roughly
/// exponential from 1µs to 10s, fine enough that interpolated quantiles
/// stay meaningful for both in-memory ops and simulated network latency.
pub fn default_duration_buckets_ms() -> Vec<f64> {
    DURATION_BUCKETS_MS.to_vec()
}

const DURATION_BUCKETS_MS: [f64; 22] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Default bucket edges for payload sizes in bytes (64 B – 64 MiB).
pub fn default_size_buckets_bytes() -> Vec<f64> {
    let mut v = Vec::new();
    let mut b = 64.0;
    while b <= 64.0 * 1024.0 * 1024.0 {
        v.push(b);
        b *= 4.0;
    }
    v
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn metric_value(m: &Metric) -> f64 {
    match m {
        Metric::Counter(c) => c.get() as f64,
        Metric::Gauge(g) => g.get() as f64,
        Metric::Histogram(h) => h.count() as f64,
    }
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Default)]
struct RegistryInner {
    entries: Vec<Entry>,
    /// (name + rendered labels) → index into `entries`.
    index: HashMap<String, usize>,
}

/// Metric registry: mints and owns handles, renders the exposition text.
pub struct Registry {
    inner: Mutex<RegistryInner>,
    enabled: bool,
}

impl Registry {
    /// Longest label value accepted for registration. Label values are
    /// bounded enums (shapes, outcomes, stripe indices); anything longer
    /// is almost certainly user data leaking into the label space.
    pub const MAX_LABEL_VALUE_LEN: usize = 128;
    /// Most series one family may hold. Generous — the widest legitimate
    /// family is per-stripe at 32 series — but finite, so an unbounded
    /// label can never OOM the registry.
    pub const MAX_SERIES_PER_FAMILY: usize = 128;

    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(RegistryInner::default()),
            enabled: true,
        }
    }

    /// A registry whose handles drop every record on the floor after one
    /// branch. Used to measure instrumentation overhead (E15).
    pub fn disabled() -> Self {
        Registry {
            inner: Mutex::new(RegistryInner::default()),
            enabled: false,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> String {
        let mut k = String::from(name);
        for (lk, lv) in labels {
            k.push('\u{1}');
            k.push_str(lk);
            k.push('\u{2}');
            k.push_str(lv);
        }
        k
    }

    /// Record one rejected registration in the
    /// `gallery_metric_series_capped_total` counter, registering the
    /// counter on first use. Runs under the registry lock, so it inserts
    /// the entry directly instead of re-entering `get_or_insert`.
    fn bump_capped(inner: &mut RegistryInner, enabled: bool) {
        const NAME: &str = "gallery_metric_series_capped_total";
        let key = Self::key(NAME, &[]);
        let idx = match inner.index.get(&key) {
            Some(&i) => i,
            None => {
                let idx = inner.entries.len();
                inner.entries.push(Entry {
                    name: NAME.to_string(),
                    labels: Vec::new(),
                    metric: Metric::Counter(Arc::new(Counter::new(enabled))),
                });
                inner.index.insert(key, idx);
                idx
            }
        };
        if let Metric::Counter(c) = &inner.entries[idx].metric {
            c.inc();
        }
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        extract: F,
        create: G,
    ) -> Arc<T>
    where
        F: Fn(&Metric) -> Option<Arc<T>>,
        G: FnOnce(bool) -> Metric,
    {
        let key = Self::key(name, labels);
        let mut inner = self.inner.lock();
        if let Some(&i) = inner.index.get(&key) {
            return extract(&inner.entries[i].metric).unwrap_or_else(|| {
                panic!(
                    "metric {name} already registered as {}",
                    inner.entries[i].metric.type_name()
                )
            });
        }
        // Cardinality guard: a label value that looks like user data (too
        // long to be a bounded enum) or a family already at its series cap
        // never registers. The caller still gets a working handle — it
        // just isn't wired into the exposition — and the rejection is
        // counted. Oversized label values additionally assert in debug
        // builds: they are always a bug, not load.
        let oversized = labels
            .iter()
            .any(|(_, v)| v.len() > Self::MAX_LABEL_VALUE_LEN);
        let at_cap =
            inner.entries.iter().filter(|e| e.name == name).count() >= Self::MAX_SERIES_PER_FAMILY;
        if oversized || at_cap {
            Self::bump_capped(&mut inner, self.enabled);
            debug_assert!(
                !oversized,
                "metric {name}: label value exceeds {} bytes — label values must be \
                 bounded enums, never user data",
                Self::MAX_LABEL_VALUE_LEN
            );
            let metric = create(self.enabled);
            return extract(&metric).expect("freshly created metric has the requested type");
        }
        let metric = create(self.enabled);
        let handle = extract(&metric).expect("freshly created metric has the requested type");
        let idx = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric,
        });
        inner.index.insert(key, idx);
        handle
    }

    /// Get or create a counter. Re-registering the same name+labels returns
    /// the same handle; re-registering with a different metric type panics.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            |enabled| Metric::Counter(Arc::new(Counter::new(enabled))),
        )
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            |enabled| Metric::Gauge(Arc::new(Gauge::new(enabled))),
        )
    }

    /// Get or create a histogram. The bounds are copied only when the
    /// series is created; looking up an existing one allocates nothing
    /// for them.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            |enabled| Metric::Histogram(Arc::new(Histogram::new(bounds.to_vec(), enabled))),
        )
    }

    /// Histogram with the default millisecond duration buckets.
    pub fn duration_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(name, labels, &DURATION_BUCKETS_MS)
    }

    /// Current value of the series registered under exactly `name` +
    /// `labels`: a counter's count, a gauge's value, or a histogram's
    /// observation count. `None` if no such series exists — readers (the
    /// alert engine) must not mint series as a side effect of looking.
    pub fn sample_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = Self::key(name, labels);
        let inner = self.inner.lock();
        let &i = inner.index.get(&key)?;
        Some(metric_value(&inner.entries[i].metric))
    }

    /// Sum of [`Registry::sample_value`] across every label set of the
    /// family `name`, or `None` if the family was never registered.
    pub fn family_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.lock();
        let mut sum = 0.0;
        let mut seen = false;
        for entry in inner.entries.iter().filter(|e| e.name == name) {
            seen = true;
            sum += metric_value(&entry.metric);
        }
        seen.then_some(sum)
    }

    /// Handle of an already-registered histogram, or `None`. Unlike
    /// [`Registry::histogram`] this never creates the series.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Arc<Histogram>> {
        let key = Self::key(name, labels);
        let inner = self.inner.lock();
        let &i = inner.index.get(&key)?;
        match &inner.entries[i].metric {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        }
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format. Families keep first-registration order; a `# TYPE` comment
    /// is emitted once per family.
    pub fn render_text(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        let mut typed: HashMap<&str, ()> = HashMap::new();
        for entry in &inner.entries {
            if typed.insert(entry.name.as_str(), ()).is_none() {
                out.push_str("# TYPE ");
                out.push_str(&entry.name);
                out.push(' ');
                out.push_str(entry.metric.type_name());
                out.push('\n');
            }
            match &entry.metric {
                Metric::Counter(c) => {
                    render_sample(&mut out, &entry.name, &entry.labels, None, c.get() as f64);
                }
                Metric::Gauge(g) => {
                    render_sample(&mut out, &entry.name, &entry.labels, None, g.get() as f64);
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let exemplars = h.bucket_exemplars();
                    let mut cumulative = 0u64;
                    let bucket_name = format!("{}_bucket", entry.name);
                    for (i, c) in counts.iter().enumerate() {
                        cumulative += c;
                        let le = match h.bounds.get(i) {
                            Some(b) => format_f64(*b),
                            None => "+Inf".to_string(),
                        };
                        render_sample(
                            &mut out,
                            &bucket_name,
                            &entry.labels,
                            Some(("le", &le)),
                            cumulative as f64,
                        );
                        if exemplars[i] != 0 {
                            // Exemplars ride as comments so plain text-format
                            // consumers (and the CI awk lint) skip them.
                            let mut series = String::new();
                            render_series_ref(
                                &mut series,
                                &bucket_name,
                                &entry.labels,
                                ("le", &le),
                            );
                            out.push_str("# EXEMPLAR ");
                            out.push_str(&series);
                            out.push_str(&format!(" trace_id={}\n", exemplars[i]));
                        }
                    }
                    render_sample(
                        &mut out,
                        &format!("{}_sum", entry.name),
                        &entry.labels,
                        None,
                        h.sum(),
                    );
                    render_sample(
                        &mut out,
                        &format!("{}_count", entry.name),
                        &entry.labels,
                        None,
                        h.count() as f64,
                    );
                }
            }
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

fn format_f64(v: f64) -> String {
    if v.is_nan() {
        // Spec spellings: Rust's `{}` would print "NaN" but "inf"/"-inf"
        // for the infinities, which the text format does not accept.
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Write `name{label="v",...}` (the series identifier without a value).
fn render_series(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
}

fn render_series_ref(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: (&str, &str),
) {
    render_series(out, name, labels, Some(extra));
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: f64,
) {
    render_series(out, name, labels, extra);
    out.push(' ');
    out.push_str(&format_f64(value));
    out.push('\n');
}

/// Summary returned by [`parse_exposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    pub families: usize,
    pub samples: usize,
    /// `# EXEMPLAR` comment lines (trace links on histogram buckets).
    pub exemplars: usize,
}

/// One parsed sample line: the structured counterpart of
/// [`render_text`](Registry::render_text)'s `name{label="v"} value`
/// output, with label values unescaped — so render → parse round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// Value of a named label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Line-format lint for the Prometheus text exposition. Returns how many
/// metric families and sample lines were seen, or a description of the
/// first malformed line. CI runs this over the live `render_text()` output
/// so the format cannot silently regress.
pub fn parse_exposition(text: &str) -> Result<ExpositionSummary, String> {
    let mut families = 0usize;
    let mut samples = 0usize;
    let mut exemplars = 0usize;
    for (line_no, line) in text.lines().enumerate() {
        let n = line_no + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                    if !is_valid_metric_name(name) {
                        return Err(format!("line {n}: invalid metric name {name:?}"));
                    }
                    match parts.next() {
                        Some("counter") | Some("gauge") | Some("histogram") | Some("summary")
                        | Some("untyped") => {}
                        other => {
                            return Err(format!("line {n}: invalid metric type {other:?}"));
                        }
                    }
                    families += 1;
                }
                Some("HELP") => {}
                Some("EXEMPLAR") => {
                    parse_exemplar_line(rest).map_err(|e| format!("line {n}: {e}"))?;
                    exemplars += 1;
                }
                _ => return Err(format!("line {n}: unknown comment form: {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: comment must start with '# '"));
        }
        parse_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        samples += 1;
    }
    Ok(ExpositionSummary {
        families,
        samples,
        exemplars,
    })
}

/// Parse every sample line of an exposition into structured [`Sample`]s
/// (comments skipped, label values unescaped). The round-trip property
/// `parse_samples(render_text())` recovers exactly the registered series.
pub fn parse_samples(text: &str) -> Result<Vec<Sample>, String> {
    parse_exposition(text)?;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample_line(line)?);
    }
    Ok(out)
}

/// Exemplar trace links parsed back out of an exposition: one
/// `(series, trace_id)` pair per `# EXEMPLAR` comment, where `series` is
/// the parsed bucket sample with its `le` label (value is unused and 0).
pub fn parse_exemplars(text: &str) -> Result<Vec<(Sample, u64)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# EXEMPLAR ") {
            out.push(parse_exemplar_line_body(rest)?);
        }
    }
    Ok(out)
}

/// Re-render an exposition with `extra` labels spliced into every sample
/// and `# EXEMPLAR` line — how federation tags each node's scrape with
/// `node="N"` before concatenating them. `# TYPE`/`# HELP` comments pass
/// through untouched. Extra labels come first in the re-rendered series
/// and replace any same-named label already present. The output parses
/// under [`parse_exposition`] whenever the input did.
pub fn relabel_exposition(text: &str, extra: &[(&str, &str)]) -> Result<String, String> {
    let mut out = String::new();
    for (line_no, line) in text.lines().enumerate() {
        let n = line_no + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix("# EXEMPLAR ") {
            let (sample, trace_id) =
                parse_exemplar_line_body(body).map_err(|e| format!("line {n}: {e}"))?;
            out.push_str("# EXEMPLAR ");
            render_series(
                &mut out,
                &sample.name,
                &merge_labels(&sample.labels, extra),
                None,
            );
            out.push_str(&format!(" trace_id={trace_id}\n"));
            continue;
        }
        if line.starts_with('#') {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let sample = parse_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        render_sample(
            &mut out,
            &sample.name,
            &merge_labels(&sample.labels, extra),
            None,
            sample.value,
        );
    }
    Ok(out)
}

/// Extra labels first (a stable federation key order), then the series'
/// own labels minus any the extras replace.
fn merge_labels(own: &[(String, String)], extra: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut merged: Vec<(String, String)> = extra
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    merged.extend(
        own.iter()
            .filter(|(k, _)| !extra.iter().any(|(ek, _)| ek == k))
            .cloned(),
    );
    merged
}

fn parse_exemplar_line(rest: &str) -> Result<(), String> {
    let body = rest
        .strip_prefix("EXEMPLAR ")
        .ok_or_else(|| "malformed EXEMPLAR comment".to_string())?;
    parse_exemplar_line_body(body).map(|_| ())
}

fn parse_exemplar_line_body(body: &str) -> Result<(Sample, u64), String> {
    let at = body
        .rfind(" trace_id=")
        .ok_or_else(|| "EXEMPLAR without trace_id".to_string())?;
    let trace_id: u64 = body[at + " trace_id=".len()..]
        .parse()
        .map_err(|_| format!("unparseable exemplar trace_id in {body:?}"))?;
    // Reuse the sample grammar for the series part by appending a value.
    let sample = parse_sample_line(&format!("{} 0", &body[..at]))?;
    Ok((sample, trace_id))
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Invert [`escape_label_value`]: `\\` → `\`, `\"` → `"`, `\n` → newline.
/// Unknown escape sequences keep the backslash verbatim.
fn unescape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let (name_part, labels, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label block".to_string())?;
            if close < brace {
                return Err("mismatched braces".to_string());
            }
            let labels = parse_labels(&line[brace + 1..close])?;
            (&line[..brace], labels, line[close + 1..].trim_start())
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| "missing value field".to_string())?;
            (&line[..sp], Vec::new(), line[sp + 1..].trim_start())
        }
    };
    if !is_valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    let mut fields = rest.split_whitespace();
    let value = fields.next().ok_or_else(|| "missing value".to_string())?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("unparseable value {v:?}"))?,
    };
    if let Some(ts) = fields.next() {
        // Optional timestamp must be an integer.
        ts.parse::<i64>()
            .map_err(|_| format!("unparseable timestamp {ts:?}"))?;
    }
    if fields.next().is_some() {
        return Err("trailing garbage after value".to_string());
    }
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    if body.trim().is_empty() {
        return Ok(labels);
    }
    // Split on commas that are not inside a quoted value.
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim();
        if key.is_empty() || !is_valid_metric_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value for {key:?} must be quoted"));
        }
        // Scan for the closing quote, honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in after[1..].char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i + 1);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for {key:?}"))?;
        labels.push((key.to_string(), unescape_label_value(&after[1..end])));
        let tail = after[end + 1..].trim_start();
        if tail.is_empty() {
            return Ok(labels);
        }
        rest = tail
            .strip_prefix(',')
            .ok_or_else(|| format!("expected ',' between labels, found {tail:?}"))?
            .trim_start();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("test_total", &[("op", "get")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let again = reg.counter("test_total", &[("op", "get")]);
        again.inc();
        assert_eq!(c.get(), 6, "same handle for same name+labels");

        let g = reg.gauge("test_bytes", &[]);
        g.set(100);
        g.add(20);
        g.sub(50);
        assert_eq!(g.get(), 70);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("x_total", &[]);
        c.add(10);
        let h = reg.duration_histogram("x_ms", &[]);
        h.observe(5.0);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let reg = Registry::new();
        reg.counter("dual", &[]);
        reg.gauge("dual", &[]);
    }

    #[test]
    fn histogram_quantiles_simple() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ms", &[], &[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 13.6).abs() < 1e-9);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 > 1.0 && p50 <= 2.0, "p50={p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > 4.0 && p99 <= 8.0, "p99={p99}");
        // Overflow values report the largest finite bound.
        h.observe(100.0);
        assert_eq!(h.quantile(1.0), Some(8.0));
    }

    #[test]
    fn render_and_lint_roundtrip() {
        let reg = Registry::new();
        reg.counter("ops_total", &[("op", "get")]).add(3);
        reg.counter("ops_total", &[("op", "put")]).add(1);
        reg.gauge("bytes_cached", &[]).set(4096);
        let h = reg.histogram("dur_ms", &[("op", "get")], &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(20.0);
        let text = reg.render_text();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{op=\"get\"} 3"));
        assert!(text.contains("dur_ms_bucket{op=\"get\",le=\"+Inf\"} 2"));
        assert!(text.contains("dur_ms_count{op=\"get\"} 2"));
        let summary = parse_exposition(&text).expect("lint-clean exposition");
        assert_eq!(summary.families, 3);
        // 2 counters + 1 gauge + (2 buckets + Inf + sum + count).
        assert_eq!(summary.samples, 8);
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        assert!(parse_exposition("bad name 1\n").is_err());
        assert!(parse_exposition("name{op=unquoted} 1\n").is_err());
        assert!(parse_exposition("name 1 2 3\n").is_err());
        assert!(parse_exposition("name notanumber\n").is_err());
        assert!(parse_exposition("#bad comment\n").is_err());
        assert!(parse_exposition("# TYPE name flavor\n").is_err());
        assert!(parse_exposition("ok_total{l=\"a,b\"} 7\n").is_ok());
        assert!(parse_exposition("ok_total{l=\"a\\\"b\"} 7\n").is_ok());
    }

    #[test]
    fn escaped_label_values_render_lintable() {
        let reg = Registry::new();
        reg.counter("weird_total", &[("path", "a\"b\\c\nd")]).inc();
        let text = reg.render_text();
        parse_exposition(&text).expect("escaped values must stay parseable");
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let reg = Registry::new();
        let hairy = "a\"b\\c\nd,e=\"f\\\\g";
        reg.counter("weird_total", &[("path", hairy)]).add(2);
        reg.counter("plain_total", &[]).add(1);
        let samples = parse_samples(&reg.render_text()).expect("structured parse");
        let weird = samples.iter().find(|s| s.name == "weird_total").unwrap();
        assert_eq!(weird.label("path"), Some(hairy), "unescape inverts escape");
        assert_eq!(weird.value, 2.0);
        let plain = samples.iter().find(|s| s.name == "plain_total").unwrap();
        assert!(plain.labels.is_empty(), "empty label set stays empty");
    }

    #[test]
    fn unescape_keeps_unknown_escapes_verbatim() {
        assert_eq!(unescape_label_value(r"a\\b"), r"a\b");
        assert_eq!(unescape_label_value(r#"q\""#), "q\"");
        assert_eq!(unescape_label_value(r"nl\n"), "nl\n");
        assert_eq!(unescape_label_value(r"odd\t"), r"odd\t");
        assert_eq!(unescape_label_value(r"tail\"), r"tail\");
    }

    #[test]
    fn non_finite_sums_render_spec_spellings() {
        let reg = Registry::new();
        let h = reg.histogram("inf_ms", &[], &[1.0]);
        h.observe(f64::INFINITY);
        let h2 = reg.histogram("nan_ms", &[], &[1.0]);
        h2.observe(f64::NAN);
        reg.gauge("neg_inf", &[]).set(i64::MIN); // stays finite: gauges are i64
        let text = reg.render_text();
        assert!(text.contains("inf_ms_sum +Inf"), "not +Inf: {text}");
        assert!(text.contains("nan_ms_sum NaN"), "not NaN: {text}");
        assert!(
            !text.contains(" inf\n"),
            "Rust's default inf spelling leaked"
        );
        let samples = parse_samples(&text).expect("non-finite values parse back");
        let sum = samples.iter().find(|s| s.name == "inf_ms_sum").unwrap();
        assert!(sum.value.is_infinite() && sum.value > 0.0);
        let sum = samples.iter().find(|s| s.name == "nan_ms_sum").unwrap();
        assert!(sum.value.is_nan());
        assert_eq!(format_f64(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn exemplars_render_and_parse_back() {
        let reg = Registry::new();
        let h = reg.histogram("err_abs", &[("instance", "i-1")], &[1.0, 10.0]);
        h.observe_with_exemplar(0.5, 41);
        h.observe_with_exemplar(50.0, 42);
        h.observe_with_exemplar(60.0, 43); // same tail bucket: last wins
        h.observe_with_exemplar(5.0, 0); // 0 records no exemplar
        assert_eq!(h.tail_exemplar(), Some(43));
        assert_eq!(h.bucket_exemplars(), vec![41, 0, 43]);
        let text = reg.render_text();
        let summary = parse_exposition(&text).expect("exemplar comments lint clean");
        assert_eq!(summary.exemplars, 2);
        let exemplars = parse_exemplars(&text).unwrap();
        let tail = exemplars
            .iter()
            .find(|(s, _)| s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(tail.1, 43);
        assert_eq!(tail.0.label("instance"), Some("i-1"));
    }

    #[test]
    fn relabel_splices_node_label_into_every_series() {
        let reg = Registry::new();
        reg.counter("ops_total", &[("op", "get")]).add(3);
        reg.counter("bare_total", &[]).add(1);
        let h = reg.histogram("dur_ms", &[], &[1.0]);
        h.observe_with_exemplar(0.5, 77);
        let text = reg.render_text();

        let tagged = relabel_exposition(&text, &[("node", "2")]).expect("relabel");
        parse_exposition(&tagged).expect("relabeled output still lints clean");
        assert!(tagged.contains("ops_total{node=\"2\",op=\"get\"} 3"));
        assert!(tagged.contains("bare_total{node=\"2\"} 1"));
        assert!(tagged.contains("# TYPE ops_total counter"), "comments pass");
        let samples = parse_samples(&tagged).unwrap();
        assert!(samples.iter().all(|s| s.label("node") == Some("2")));
        let exemplars = parse_exemplars(&tagged).unwrap();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].0.label("node"), Some("2"));
        assert_eq!(exemplars[0].1, 77);
    }

    #[test]
    fn relabel_replaces_clashing_labels_and_keeps_nonfinite_values() {
        let text = "x_sum +Inf\nx_nan NaN\ny_total{node=\"old\",op=\"a\"} 4\n";
        let tagged = relabel_exposition(text, &[("node", "new")]).unwrap();
        assert!(tagged.contains("x_sum{node=\"new\"} +Inf"));
        assert!(tagged.contains("x_nan{node=\"new\"} NaN"));
        assert!(tagged.contains("y_total{node=\"new\",op=\"a\"} 4"));
        assert!(!tagged.contains("old"), "clashing label replaced");
        assert!(relabel_exposition("garbage line\n", &[("n", "1")]).is_err());
    }

    #[test]
    fn per_family_series_cap_rejects_overflow_with_counter() {
        let reg = Registry::new();
        for i in 0..Registry::MAX_SERIES_PER_FAMILY + 8 {
            reg.counter("burst_total", &[("i", &i.to_string())]).inc();
        }
        // Exactly the cap registered; the rest were counted and rejected.
        let text = reg.render_text();
        let series = text
            .lines()
            .filter(|l| l.starts_with("burst_total{"))
            .count();
        assert_eq!(series, Registry::MAX_SERIES_PER_FAMILY);
        assert_eq!(
            reg.sample_value("gallery_metric_series_capped_total", &[]),
            Some(8.0)
        );
        // Existing series still resolve to their shared handle past the cap.
        reg.counter("burst_total", &[("i", "0")]).inc();
        assert_eq!(reg.sample_value("burst_total", &[("i", "0")]), Some(2.0));
        // Rejected registrations still hand back working (orphan) handles.
        let orphan = reg.counter("burst_total", &[("i", "999")]);
        orphan.inc();
        assert_eq!(orphan.get(), 1);
        assert!(reg.sample_value("burst_total", &[("i", "999")]).is_none());
    }

    #[test]
    fn oversized_label_values_are_rejected_and_assert_in_debug() {
        let reg = Registry::new();
        let huge = "x".repeat(Registry::MAX_LABEL_VALUE_LEN + 1);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected assert
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.counter("leak_total", &[("pk", &huge)])
        }));
        std::panic::set_hook(prev);
        if cfg!(debug_assertions) {
            assert!(
                result.is_err(),
                "debug builds assert on unbounded label values"
            );
        } else {
            // Release builds degrade to an orphan handle instead.
            let c = result.unwrap();
            c.inc();
            assert_eq!(c.get(), 1);
        }
        // Either way: nothing registered, and the rejection was counted.
        assert!(reg.sample_value("leak_total", &[("pk", &huge)]).is_none());
        assert_eq!(
            reg.sample_value("gallery_metric_series_capped_total", &[]),
            Some(1.0)
        );
        assert!(!reg.render_text().contains(&huge));
    }

    #[test]
    fn introspection_families_round_trip_byte_stable() {
        // Mirror the families the introspection layer mints — per-stripe
        // wait histograms with exemplars, hold counters, commit-queue
        // occupancy, per-shape query latency — and pin the full
        // render → parse → relabel loop down to the byte.
        let reg = Registry::new();
        for stripe in 0..4 {
            let s = stripe.to_string();
            let h = reg.histogram(
                "gallery_store_stripe_lock_wait_ms",
                &[("stripe", &s)],
                &[0.001, 0.01, 0.1, 1.0, 10.0, 100.0],
            );
            h.observe_with_exemplar(0.05 * (stripe + 1) as f64, 100 + stripe as u64);
            reg.counter("gallery_store_stripe_lock_hold_us_total", &[("stripe", &s)])
                .add(17 * (stripe as u64 + 1));
        }
        let occ = reg.histogram(
            "gallery_wal_commit_queue_batch_occupancy",
            &[],
            &[0.0625, 0.125, 0.25, 0.5, 0.75, 1.0],
        );
        occ.observe(0.25);
        occ.observe(1.0);
        for shape in ["pk", "index_eq", "index_range", "full_scan"] {
            reg.duration_histogram("gallery_store_query_duration_ms", &[("shape", shape)])
                .observe_with_exemplar(1.5, 7);
        }

        let text = reg.render_text();
        let summary = parse_exposition(&text).expect("new families lint clean");
        assert!(summary.exemplars >= 5, "stripe + shape exemplars survive");

        // render_text is a pure function of registry state.
        assert_eq!(text, reg.render_text(), "rendering is stable");

        // Relabel: still lintable, every series tagged, exemplars intact,
        // histogram bucket structure untouched.
        let tagged = relabel_exposition(&text, &[("node", "n1")]).expect("relabel");
        parse_exposition(&tagged).expect("relabeled text lints clean");
        let samples = parse_samples(&tagged).unwrap();
        assert!(samples.iter().all(|s| s.label("node") == Some("n1")));
        let buckets = samples
            .iter()
            .filter(|s| s.name == "gallery_wal_commit_queue_batch_occupancy_bucket")
            .count();
        assert_eq!(buckets, 7, "6 bounds + the +Inf bucket");
        let exemplars = parse_exemplars(&tagged).unwrap();
        assert!(exemplars
            .iter()
            .any(|(s, id)| { s.label("stripe") == Some("3") && *id == 103 }));

        // Relabeling is idempotent: applying the same extras again is a
        // byte-for-byte no-op.
        let tagged_again = relabel_exposition(&tagged, &[("node", "n1")]).unwrap();
        assert_eq!(tagged, tagged_again, "relabel is byte-stable");

        // And the untagged text survives a full parse → re-render loop at
        // the sample level: same names, labels, and values.
        let before = parse_samples(&text).unwrap();
        let after = parse_samples(&reg.render_text()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn sample_and_family_values() {
        let reg = Registry::new();
        reg.counter("ops_total", &[("op", "get")]).add(3);
        reg.counter("ops_total", &[("op", "put")]).add(4);
        reg.gauge("depth", &[]).set(-2);
        reg.histogram("h_ms", &[], &[1.0]).observe(0.5);
        assert_eq!(reg.sample_value("ops_total", &[("op", "get")]), Some(3.0));
        assert_eq!(reg.family_value("ops_total"), Some(7.0));
        assert_eq!(reg.family_value("depth"), Some(-2.0));
        assert_eq!(reg.family_value("h_ms"), Some(1.0), "histogram counts");
        assert_eq!(reg.family_value("missing"), None);
        assert_eq!(reg.sample_value("ops_total", &[("op", "del")]), None);
        assert!(reg.find_histogram("h_ms", &[]).is_some());
        assert!(reg.find_histogram("depth", &[]).is_none());
    }
}
