//! Alerting engine: threshold and multi-window burn-rate rules over the
//! metric registry, with a pending → firing → resolved state machine.
//!
//! The engine is **tick-driven**: nothing happens until [`AlertEngine::
//! evaluate`] is called, which samples every rule's condition against the
//! registry at the shared [`Clock`]'s current time. Under a manual
//! clock an evaluation schedule is therefore fully deterministic — the
//! property E17 leans on to measure detection latency in *ticks*.
//!
//! Three condition families:
//!
//! - [`AlertCondition::Threshold`] — instantaneous comparison of one
//!   metric series (or a whole family summed) against a constant.
//! - [`AlertCondition::BurnRate`] — the SRE multi-window pattern: the
//!   ratio of a "bad" counter's increase to a "total" counter's increase
//!   must exceed a floor over *every* configured window (e.g. 5m **and**
//!   1h) before the rule breaches. Short windows give fast detection,
//!   long windows suppress blips — both must agree, which is what keeps
//!   the fault-free false-positive rate at zero.
//! - [`AlertCondition::Predicate`] — an opaque closure over the registry,
//!   the hook `gallery-rules` uses to compile JEXL rule text into alert
//!   conditions without this leaf crate depending on the rules crate.
//!
//! A firing rule can carry an exemplar histogram: the engine attaches the
//! histogram's tail-bucket trace ID to the firing event, linking the alert
//! to a trace that actually breached it. Firing also invokes any
//! registered action hooks named by the rule — how a `drift > τ` alert
//! ends up deprecating an instance or rolling the production pointer back.

use crate::events::{kinds, EventSink};
use crate::metrics::{Counter, FamilyMeta, Gauge, Histogram, Registry};
use crate::trace::Clock;
use crate::Telemetry;
use gallery_sync::{rank, OrderedMutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// The metric families the alert engine itself exports (documented in
/// `docs/metrics.md`), for rule analyzers that resolve identifiers.
pub const FAMILIES: &[FamilyMeta] = &[
    FamilyMeta::counter("gallery_alert_evals_total"),
    FamilyMeta::counter("gallery_alert_transitions_total"),
    FamilyMeta::gauge("gallery_alerts_firing", 1.0, 0.0, f64::INFINITY),
    FamilyMeta::counter("gallery_alert_actions_total"),
];

/// Comparison operator for threshold conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Cmp {
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// Which series a condition reads: one exact series, or a family summed
/// across all of its label sets.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSelector {
    pub name: String,
    /// `None` sums the family; `Some(labels)` selects one series exactly.
    pub labels: Option<Vec<(String, String)>>,
}

impl MetricSelector {
    /// Sum across every label set of `name`.
    pub fn family(name: impl Into<String>) -> Self {
        MetricSelector {
            name: name.into(),
            labels: None,
        }
    }

    /// One exact series.
    pub fn series(name: impl Into<String>, labels: &[(&str, &str)]) -> Self {
        MetricSelector {
            name: name.into(),
            labels: Some(
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            ),
        }
    }

    /// Current value, or `None` if the series is not registered yet.
    pub fn value(&self, registry: &Registry) -> Option<f64> {
        match &self.labels {
            None => registry.family_value(&self.name),
            Some(labels) => {
                let borrowed: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                registry.sample_value(&self.name, &borrowed)
            }
        }
    }
}

/// One burn-rate window: over the trailing `window_ms`, the bad/total
/// ratio must reach `min_rate` for the window to count as breaching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    pub window_ms: i64,
    pub min_rate: f64,
}

impl BurnWindow {
    pub fn new(window_ms: i64, min_rate: f64) -> Self {
        BurnWindow {
            window_ms,
            min_rate,
        }
    }
}

/// Opaque condition over the registry; `None` means "can't evaluate yet"
/// (e.g. a referenced metric has not been minted) and is treated as not
/// breaching.
pub type AlertPredicate = Arc<dyn Fn(&Registry) -> Option<bool> + Send + Sync>;

/// What makes a rule breach.
#[derive(Clone)]
pub enum AlertCondition {
    /// `metric cmp threshold`, evaluated instantaneously each tick.
    Threshold {
        metric: MetricSelector,
        cmp: Cmp,
        threshold: f64,
    },
    /// Multi-window burn rate: `(Δbad / Δtotal) >= min_rate` over every
    /// window. Counter snapshots are taken at each evaluation tick.
    BurnRate {
        bad: MetricSelector,
        total: MetricSelector,
        windows: Vec<BurnWindow>,
    },
    /// Compiled external condition (the `gallery-rules` bridge).
    Predicate { describe: String, f: AlertPredicate },
}

impl std::fmt::Debug for AlertCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlertCondition::Threshold {
                metric,
                cmp,
                threshold,
            } => write!(f, "{} {} {threshold}", metric.name, cmp.symbol()),
            AlertCondition::BurnRate {
                bad,
                total,
                windows,
            } => {
                write!(
                    f,
                    "burn_rate({}/{}, {} windows)",
                    bad.name,
                    total.name,
                    windows.len()
                )
            }
            AlertCondition::Predicate { describe, .. } => write!(f, "expr({describe})"),
        }
    }
}

/// Lifecycle of one alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition not breaching.
    Inactive,
    /// Breaching, but not yet for the rule's `for` hold time.
    Pending,
    /// Breaching and held; actions have been invoked.
    Firing,
    /// Was firing, condition cleared on the last tick.
    Resolved,
}

impl AlertState {
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One alert rule.
#[derive(Clone)]
pub struct AlertRule {
    pub id: String,
    pub condition: AlertCondition,
    /// How long the condition must hold before Pending becomes Firing.
    /// 0 fires on the first breaching tick.
    pub for_ms: i64,
    /// Free-form annotations carried on every transition (model, instance,
    /// environment, severity, …). Action hooks read these.
    pub annotations: Vec<(String, String)>,
    /// Histogram whose tail exemplar links the alert to a breaching trace.
    pub exemplar_from: Option<Arc<Histogram>>,
    /// Names of action hooks to invoke when the rule fires.
    pub actions: Vec<String>,
}

impl AlertRule {
    pub fn new(id: impl Into<String>, condition: AlertCondition) -> Self {
        AlertRule {
            id: id.into(),
            condition,
            for_ms: 0,
            annotations: Vec::new(),
            exemplar_from: None,
            actions: Vec::new(),
        }
    }

    pub fn for_ms(mut self, ms: i64) -> Self {
        self.for_ms = ms;
        self
    }

    pub fn annotate(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.annotations.push((key.into(), value.into()));
        self
    }

    pub fn exemplar_from(mut self, histogram: Arc<Histogram>) -> Self {
        self.exemplar_from = Some(histogram);
        self
    }

    pub fn action(mut self, name: impl Into<String>) -> Self {
        self.actions.push(name.into());
        self
    }
}

/// One state-machine transition, as recorded in the engine's history and
/// handed to action hooks.
#[derive(Debug, Clone)]
pub struct AlertTransition {
    pub ts_ms: i64,
    pub rule_id: String,
    pub from: AlertState,
    pub to: AlertState,
    /// The observed value that drove the transition (threshold value, or
    /// the worst window's burn rate), when the condition produces one.
    pub value: Option<f64>,
    pub annotations: Vec<(String, String)>,
    /// Tail exemplar of the rule's linked histogram at transition time.
    pub exemplar_trace_id: Option<u64>,
}

impl AlertTransition {
    /// Value of a named annotation, if present.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Current status of one rule, for display (`gallery alerts`).
#[derive(Debug, Clone)]
pub struct AlertStatus {
    pub rule_id: String,
    pub state: AlertState,
    /// When the current state was entered.
    pub since_ms: i64,
    pub last_value: Option<f64>,
    pub annotations: Vec<(String, String)>,
}

/// Action hook invoked on firing transitions. The `&AlertTransition` is
/// the full firing context, annotations and exemplar included.
pub type ActionHook = Arc<dyn Fn(&AlertTransition) -> Result<(), String> + Send + Sync>;

/// Counter snapshots for one burn-rate rule: (ts_ms, bad, total) rings.
struct BurnHistory {
    samples: VecDeque<(i64, f64, f64)>,
}

impl BurnHistory {
    /// Snapshot at or before `cutoff_ts`, preferring the latest such; the
    /// oldest retained snapshot when history is shorter than the window
    /// (partial-window extrapolation, like `increase()`).
    fn baseline(&self, cutoff_ts: i64) -> Option<(i64, f64, f64)> {
        let mut best = None;
        for &s in &self.samples {
            if s.0 <= cutoff_ts {
                best = Some(s);
            } else {
                break;
            }
        }
        best.or_else(|| self.samples.front().copied())
    }
}

struct RuleRuntime {
    rule: AlertRule,
    state: AlertState,
    since_ms: i64,
    pending_since_ms: i64,
    last_value: Option<f64>,
    burn: Option<BurnHistory>,
}

/// A firing rule's action names, each with its hook if one is registered.
type ResolvedActions = Vec<(String, Option<ActionHook>)>;

struct EngineInner {
    rules: Vec<RuleRuntime>,
    actions: Vec<(String, ActionHook)>,
    history: VecDeque<AlertTransition>,
}

/// Pre-minted engine self-telemetry.
struct EngineMetrics {
    evals: Arc<Counter>,
    transitions: Arc<Counter>,
    firing: Arc<Gauge>,
    actions_invoked: Arc<Counter>,
}

/// The tick-driven alert engine. See the module docs.
pub struct AlertEngine {
    time: Arc<dyn Clock>,
    registry: Arc<Registry>,
    events: Arc<EventSink>,
    inner: OrderedMutex<EngineInner>,
    metrics: EngineMetrics,
    history_capacity: usize,
}

impl AlertEngine {
    pub const DEFAULT_HISTORY: usize = 1024;

    /// Engine over a telemetry bundle: conditions read the bundle's
    /// registry, transitions land in its event sink, timestamps come from
    /// its time source.
    pub fn new(telemetry: &Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        AlertEngine {
            time: Arc::clone(telemetry.time_source()),
            registry: Arc::clone(r),
            events: Arc::clone(telemetry.events()),
            inner: OrderedMutex::new(
                rank::ALERT_ENGINE,
                EngineInner {
                    rules: Vec::new(),
                    actions: Vec::new(),
                    history: VecDeque::new(),
                },
            ),
            metrics: EngineMetrics {
                evals: r.counter("gallery_alert_evals_total", &[]),
                transitions: r.counter("gallery_alert_transitions_total", &[]),
                firing: r.gauge("gallery_alerts_firing", &[]),
                actions_invoked: r.counter("gallery_alert_actions_total", &[]),
            },
            history_capacity: Self::DEFAULT_HISTORY,
        }
    }

    /// Register a rule. Rules are evaluated in registration order.
    pub fn add_rule(&self, rule: AlertRule) {
        let now = self.time.now_ms();
        let burn = matches!(rule.condition, AlertCondition::BurnRate { .. }).then(|| BurnHistory {
            samples: VecDeque::new(),
        });
        self.inner.lock().rules.push(RuleRuntime {
            rule,
            state: AlertState::Inactive,
            since_ms: now,
            pending_since_ms: now,
            last_value: None,
            burn,
        });
    }

    /// Register an action hook under `name`; rules reference it by name in
    /// [`AlertRule::actions`]. Re-registering a name replaces the hook.
    pub fn register_action(&self, name: impl Into<String>, hook: ActionHook) {
        let name = name.into();
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.actions.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = hook;
        } else {
            inner.actions.push((name, hook));
        }
    }

    /// Names of all registered action hooks.
    pub fn action_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .actions
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Evaluate every rule once at the current time. Returns the
    /// transitions that happened this tick (empty when nothing changed).
    ///
    /// States advance under the engine's lock; the transition events and
    /// the firing rules' action hooks run after it is released, in rule
    /// order, so a hook may take any lock and may call back into the
    /// engine.
    pub fn evaluate(&self) -> Vec<AlertTransition> {
        let now = self.time.now_ms();
        self.metrics.evals.inc();
        let mut changed: Vec<(AlertTransition, ResolvedActions)> = Vec::new();
        let mut inner = self.inner.lock();
        let EngineInner {
            rules,
            actions,
            history,
        } = &mut *inner;
        for rt in rules.iter_mut() {
            let (breach, value) = Self::check(&self.registry, rt, now);
            rt.last_value = value;
            let from = rt.state;
            let to = match (from, breach) {
                (AlertState::Inactive | AlertState::Resolved, true) => {
                    rt.pending_since_ms = now;
                    if rt.rule.for_ms <= 0 {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                (AlertState::Pending, true) => {
                    if now - rt.pending_since_ms >= rt.rule.for_ms {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                (AlertState::Firing, true) => AlertState::Firing,
                (AlertState::Pending, false) => AlertState::Inactive,
                (AlertState::Firing, false) => AlertState::Resolved,
                (AlertState::Resolved, false) => AlertState::Inactive,
                (AlertState::Inactive, false) => AlertState::Inactive,
            };
            if to == from {
                continue;
            }
            rt.state = to;
            rt.since_ms = now;
            let transition = AlertTransition {
                ts_ms: now,
                rule_id: rt.rule.id.clone(),
                from,
                to,
                value,
                annotations: rt.rule.annotations.clone(),
                exemplar_trace_id: rt
                    .rule
                    .exemplar_from
                    .as_ref()
                    .and_then(|h| h.tail_exemplar()),
            };
            let hooks = if to == AlertState::Firing {
                rt.rule
                    .actions
                    .iter()
                    .map(|name| {
                        let hook = actions
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, h)| Arc::clone(h));
                        (name.clone(), hook)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            if history.len() == self.history_capacity {
                history.pop_front();
            }
            history.push_back(transition.clone());
            changed.push((transition, hooks));
        }
        let firing = rules
            .iter()
            .filter(|r| r.state == AlertState::Firing)
            .count();
        self.metrics.firing.set(firing as i64);
        drop(inner);
        let mut fired = Vec::with_capacity(changed.len());
        for (transition, hooks) in changed {
            self.metrics.transitions.inc();
            let kind = match transition.to {
                AlertState::Pending => Some(kinds::ALERT_PENDING),
                AlertState::Firing => Some(kinds::ALERT_FIRING),
                AlertState::Resolved => Some(kinds::ALERT_RESOLVED),
                AlertState::Inactive => None,
            };
            if let Some(kind) = kind {
                let mut fields = vec![("rule", transition.rule_id.clone().into())];
                if let Some(v) = transition.value {
                    fields.push(("value", format!("{v}").into()));
                }
                self.events
                    .emit_traced(kind, transition.exemplar_trace_id, fields);
            }
            for (action_name, hook) in hooks {
                let outcome = match hook {
                    Some(h) => {
                        self.metrics.actions_invoked.inc();
                        match h(&transition) {
                            Ok(()) => "ok".to_string(),
                            Err(e) => format!("error: {e}"),
                        }
                    }
                    None => "unregistered".to_string(),
                };
                self.events.emit_traced(
                    kinds::ALERT_ACTION,
                    transition.exemplar_trace_id,
                    vec![
                        ("rule", transition.rule_id.clone().into()),
                        ("action", action_name.into()),
                        ("outcome", outcome.into()),
                    ],
                );
            }
            fired.push(transition);
        }
        fired
    }

    /// Breach check for one rule; also advances burn-rate history.
    fn check(registry: &Registry, rt: &mut RuleRuntime, now: i64) -> (bool, Option<f64>) {
        match &rt.rule.condition {
            AlertCondition::Threshold {
                metric,
                cmp,
                threshold,
            } => match metric.value(registry) {
                Some(v) => (cmp.holds(v, *threshold), Some(v)),
                None => (false, None),
            },
            AlertCondition::BurnRate {
                bad,
                total,
                windows,
            } => {
                let bad_now = bad.value(registry).unwrap_or(0.0);
                let total_now = total.value(registry).unwrap_or(0.0);
                let hist = rt.burn.as_mut().expect("burn rule has history");
                let mut breach = !windows.is_empty();
                let mut worst_rate: Option<f64> = None;
                for w in windows {
                    let (_, bad_then, total_then) = hist
                        .baseline(now - w.window_ms)
                        .unwrap_or((now, bad_now, total_now));
                    let d_total = total_now - total_then;
                    let rate = if d_total > 0.0 {
                        (bad_now - bad_then) / d_total
                    } else {
                        0.0
                    };
                    worst_rate = Some(worst_rate.map_or(rate, |r: f64| r.min(rate)));
                    if rate < w.min_rate {
                        breach = false;
                    }
                }
                hist.samples.push_back((now, bad_now, total_now));
                let horizon = windows.iter().map(|w| w.window_ms).max().unwrap_or(0);
                while hist
                    .samples
                    .front()
                    .is_some_and(|&(ts, _, _)| ts < now - 2 * horizon)
                {
                    hist.samples.pop_front();
                }
                (breach, worst_rate)
            }
            AlertCondition::Predicate { f, .. } => match f(registry) {
                Some(b) => (b, None),
                None => (false, None),
            },
        }
    }

    /// Current status of every rule, in registration order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.inner
            .lock()
            .rules
            .iter()
            .map(|rt| AlertStatus {
                rule_id: rt.rule.id.clone(),
                state: rt.state,
                since_ms: rt.since_ms,
                last_value: rt.last_value,
                annotations: rt.rule.annotations.clone(),
            })
            .collect()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> Vec<AlertStatus> {
        self.statuses()
            .into_iter()
            .filter(|s| s.state == AlertState::Firing)
            .collect()
    }

    /// Transition history, oldest first (bounded ring).
    pub fn history(&self) -> Vec<AlertTransition> {
        self.inner.lock().history.iter().cloned().collect()
    }

    /// Human-readable status board: one line per rule, then the recent
    /// transition history. This is what `gallery alerts` and the service's
    /// probe endpoint print.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# alert rules\n");
        for s in self.statuses() {
            out.push_str(&format!(
                "{:<10} {} since={}ms",
                s.state.as_str(),
                s.rule_id,
                s.since_ms
            ));
            if let Some(v) = s.last_value {
                out.push_str(&format!(" value={v}"));
            }
            for (k, v) in &s.annotations {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out.push_str("# transitions\n");
        for t in self.history() {
            out.push_str(&format!(
                "{}ms {} {} -> {}",
                t.ts_ms,
                t.rule_id,
                t.from.as_str(),
                t.to.as_str()
            ));
            if let Some(v) = t.value {
                out.push_str(&format!(" value={v}"));
            }
            if let Some(id) = t.exemplar_trace_id {
                out.push_str(&format!(" trace_id={id}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    struct ManualTime(AtomicI64);

    impl ManualTime {
        fn advance(&self, ms: i64) {
            self.0.fetch_add(ms, Ordering::SeqCst);
        }
    }

    impl Clock for ManualTime {
        fn now_ms(&self) -> i64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn setup() -> (Arc<Telemetry>, Arc<ManualTime>, AlertEngine) {
        let time = Arc::new(ManualTime(AtomicI64::new(1_000)));
        let telemetry = Telemetry::with_time_source(time.clone() as Arc<dyn Clock>);
        let engine = AlertEngine::new(&telemetry);
        (telemetry, time, engine)
    }

    #[test]
    fn threshold_rule_fires_and_resolves() {
        let (t, clock, engine) = setup();
        let g = t.registry().gauge("drift", &[]);
        engine.add_rule(
            AlertRule::new(
                "drift-high",
                AlertCondition::Threshold {
                    metric: MetricSelector::family("drift"),
                    cmp: Cmp::Gt,
                    threshold: 5.0,
                },
            )
            .annotate("instance", "i-1"),
        );
        g.set(3);
        assert!(engine.evaluate().is_empty(), "below threshold: no change");
        g.set(9);
        clock.advance(10);
        let fired = engine.evaluate();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].to, AlertState::Firing);
        assert_eq!(fired[0].value, Some(9.0));
        assert_eq!(fired[0].annotation("instance"), Some("i-1"));
        assert_eq!(engine.firing().len(), 1);
        assert_eq!(
            t.registry().sample_value("gallery_alerts_firing", &[]),
            Some(1.0)
        );
        assert_eq!(t.events().of_kind(kinds::ALERT_FIRING).len(), 1);
        g.set(1);
        clock.advance(10);
        let resolved = engine.evaluate();
        assert_eq!(resolved[0].to, AlertState::Resolved);
        clock.advance(10);
        engine.evaluate();
        assert_eq!(engine.statuses()[0].state, AlertState::Inactive);
    }

    #[test]
    fn for_hold_goes_through_pending() {
        let (t, clock, engine) = setup();
        let g = t.registry().gauge("lag_ms", &[]);
        engine.add_rule(
            AlertRule::new(
                "lag",
                AlertCondition::Threshold {
                    metric: MetricSelector::series("lag_ms", &[]),
                    cmp: Cmp::Ge,
                    threshold: 100.0,
                },
            )
            .for_ms(50),
        );
        g.set(500);
        let t1 = engine.evaluate();
        assert_eq!(t1[0].to, AlertState::Pending);
        clock.advance(20);
        assert!(engine.evaluate().is_empty(), "still pending");
        clock.advance(40);
        let t2 = engine.evaluate();
        assert_eq!(t2[0].to, AlertState::Firing, "held past for_ms");
        // Flap back below before firing must reset the hold.
        let g2 = t.registry().gauge("lag2_ms", &[]);
        engine.add_rule(
            AlertRule::new(
                "lag2",
                AlertCondition::Threshold {
                    metric: MetricSelector::series("lag2_ms", &[]),
                    cmp: Cmp::Ge,
                    threshold: 100.0,
                },
            )
            .for_ms(50),
        );
        g2.set(500);
        engine.evaluate();
        g2.set(0);
        clock.advance(10);
        engine.evaluate(); // pending → inactive
        g2.set(500);
        clock.advance(10);
        engine.evaluate(); // pending again, hold restarts
        clock.advance(20);
        engine.evaluate();
        let lag2 = engine
            .statuses()
            .into_iter()
            .find(|s| s.rule_id == "lag2")
            .unwrap();
        assert_eq!(lag2.state, AlertState::Pending, "hold restarted after flap");
    }

    #[test]
    fn burn_rate_needs_every_window() {
        let (t, clock, engine) = setup();
        let bad = t.registry().counter("errs_total", &[]);
        let total = t.registry().counter("reqs_total", &[]);
        engine.add_rule(AlertRule::new(
            "error-burn",
            AlertCondition::BurnRate {
                bad: MetricSelector::family("errs_total"),
                total: MetricSelector::family("reqs_total"),
                windows: vec![BurnWindow::new(50, 0.1), BurnWindow::new(500, 0.1)],
            },
        ));
        // Clean traffic: rate 0 in both windows, never fires.
        for _ in 0..20 {
            total.add(10);
            clock.advance(25);
            assert!(engine.evaluate().is_empty(), "clean run must stay silent");
        }
        // A short error blip breaches the 50ms window but not the 500ms one
        // immediately... keep erroring long enough and both agree.
        let mut fired_at = None;
        for tick in 0..40 {
            total.add(10);
            bad.add(3); // 30% error rate
            clock.advance(25);
            let fired = engine.evaluate();
            if fired.iter().any(|tr| tr.to == AlertState::Firing) {
                fired_at = Some(tick);
                break;
            }
        }
        let fired_at = fired_at.expect("sustained errors must fire");
        assert!(
            fired_at > 0,
            "long window must delay firing past the first breach tick"
        );
        assert!(engine.statuses()[0].last_value.unwrap() > 0.1);
    }

    #[test]
    fn predicate_and_actions_and_exemplar() {
        let (t, clock, engine) = setup();
        let h = t.registry().histogram("abs_err", &[], &[1.0, 10.0]);
        type Seen = Vec<(String, Option<u64>)>;
        let seen: Arc<std::sync::Mutex<Seen>> = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        engine.register_action(
            "rollback",
            Arc::new(move |tr: &AlertTransition| {
                seen2
                    .lock()
                    .unwrap()
                    .push((tr.rule_id.clone(), tr.exemplar_trace_id));
                Ok(())
            }),
        );
        engine.add_rule(
            AlertRule::new(
                "bad-preds",
                AlertCondition::Predicate {
                    describe: "abs_err count > 2".into(),
                    f: Arc::new(|reg: &Registry| Some(reg.family_value("abs_err")? > 2.0)),
                },
            )
            .exemplar_from(Arc::clone(&h))
            .action("rollback")
            .action("unknown-action"),
        );
        h.observe_with_exemplar(0.5, 7);
        engine.evaluate();
        assert_eq!(engine.statuses()[0].state, AlertState::Inactive);
        h.observe_with_exemplar(50.0, 99);
        h.observe(0.2);
        clock.advance(5);
        let fired = engine.evaluate();
        assert_eq!(fired[0].to, AlertState::Firing);
        assert_eq!(
            fired[0].exemplar_trace_id,
            Some(99),
            "tail exemplar rides along"
        );
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[("bad-preds".to_string(), Some(99))]
        );
        let actions = t.events().of_kind(kinds::ALERT_ACTION);
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0].field("outcome"), Some("ok"));
        assert_eq!(actions[1].field("outcome"), Some("unregistered"));
        // The firing event is stitched to the exemplar's trace.
        assert_eq!(t.events().for_trace(99).len(), 3);
    }

    /// Hooks run after the engine's lock is released: one that reads the
    /// engine back returns instead of deadlocking on that lock. The
    /// engine runs on its own thread, so a regression fails the timeout
    /// below rather than hanging the suite.
    #[test]
    fn hook_may_call_back_into_the_engine() {
        let (t, _clock, engine) = setup();
        let engine = Arc::new(engine);
        let seen: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
        {
            let engine_ref = Arc::downgrade(&engine);
            let seen = Arc::clone(&seen);
            engine.register_action(
                "introspect",
                Arc::new(move |_tr: &AlertTransition| {
                    if let Some(engine) = engine_ref.upgrade() {
                        *seen.lock().unwrap() = engine.action_names();
                    }
                    Ok(())
                }),
            );
        }
        engine.add_rule(
            AlertRule::new(
                "always",
                AlertCondition::Predicate {
                    describe: "always breached".into(),
                    f: Arc::new(|_: &Registry| Some(true)),
                },
            )
            .action("introspect"),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let evaluator = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let _ = tx.send(engine.evaluate().len());
            })
        };
        let fired = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a hook that calls back into the engine must not deadlock evaluate");
        evaluator.join().unwrap();
        assert_eq!(fired, 1);
        assert_eq!(*seen.lock().unwrap(), vec!["introspect".to_string()]);
        let actions = t.events().of_kind(kinds::ALERT_ACTION);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].field("outcome"), Some("ok"));
    }

    #[test]
    fn unminted_metric_is_not_a_breach() {
        let (_t, _clock, engine) = setup();
        engine.add_rule(AlertRule::new(
            "ghost",
            AlertCondition::Threshold {
                metric: MetricSelector::family("never_registered"),
                cmp: Cmp::Gt,
                threshold: 0.0,
            },
        ));
        assert!(engine.evaluate().is_empty());
        assert_eq!(engine.statuses()[0].state, AlertState::Inactive);
    }
}
