//! E17 — continuous model-health monitoring: detection latency, alert
//! precision, and rule-driven auto-rollback, all on seeded manual clocks.
//!
//! Part 1 streams scored predictions through a sliding-window
//! [`ModelMonitor`]: an in-distribution phase must produce zero drift
//! verdicts (no false positives), and after an injected mean shift the
//! drift gauge must cross the z-threshold within a bounded number of
//! ticks. Repeated across seeds.
//!
//! Part 2 drives a multi-window burn-rate SLO rule (5 m fast window + 1 h
//! blip suppressor over an error-rate counter pair): a clean run with
//! 0.1% errors must never leave `inactive`, a chaos phase at 50% errors
//! must reach `firing` within a bounded number of ticks, and recovery
//! must resolve the alert.
//!
//! Part 3 wires the whole loop the issue describes: monitor gauges feed a
//! rule authored in the `gallery-rules` expression language; when it
//! breaches, the alert fires with the breaching trace's exemplar attached
//! and the registered lifecycle action rolls the production pointer back
//! along the §3.4 deployment lineage — metric breach → alert event →
//! lifecycle action → exemplar trace id, end to end.
//!
//! Part 4 measures the alert-engine + monitor overhead on the E15
//! storage/registry workload against a `Telemetry::disabled()` baseline
//! and asserts it stays under the 5% budget.
//!
//! `--smoke` shrinks seeds/repeats for CI.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::monitor::{ModelMonitor, MonitorConfig, ScoringEvent, SCALE};
use gallery_core::{Clock, Gallery, InstanceId, InstanceSpec, ManualClock, ModelSpec, SystemClock};
use gallery_rules::{compile_condition, register_lifecycle_actions, ACTION_ROLLBACK_PRODUCTION};
use gallery_service::{DirectTransport, GalleryClient, GalleryServer};
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::{Dal, MetadataStore};
use gallery_telemetry::{
    kinds, AlertCondition, AlertEngine, AlertRule, AlertState, BurnWindow, MetricSelector,
    Telemetry,
};
use std::sync::Arc;
use std::time::Instant;

const TICK_MS: i64 = 10_000;

/// Tiny deterministic LCG so streams vary per seed without `rand`.
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64) / ((1u64 << 31) as f64) // [0, 1)
    }

    /// Zero-mean, unit-ish-variance sample in [-√3, √3).
    fn centered(&mut self) -> f64 {
        (self.next_unit() - 0.5) * 2.0 * 3f64.sqrt()
    }
}

/// Part 1: drift detection latency, bounded; clean phase silent.
fn run_drift_latency(smoke: bool) {
    let seeds: &[u64] = if smoke {
        &[7, 21]
    } else {
        &[7, 21, 99, 1234, 5150]
    };
    let window = 30usize;
    let clean_ticks = 60;
    let max_detection_ticks = 10;

    let mut table = TextTable::new(&["seed", "clean false positives", "detection ticks"]);
    for &seed in seeds {
        let clock = Arc::new(ManualClock::new(1_000_000));
        let telemetry = Telemetry::with_time_source(clock.clone());
        let mut monitor = ModelMonitor::new(
            InstanceId::from(format!("seed-{seed}").as_str()),
            MonitorConfig {
                window_ms: window as i64 * TICK_MS,
                baseline_mean: 0.0,
                baseline_std: 1.0,
                drift_z_threshold: 3.0,
                ..MonitorConfig::default()
            },
            clock.clone(),
            &telemetry,
        );
        let mut rng = Lcg(seed);

        let mut false_positives = 0;
        for _ in 0..clean_ticks {
            monitor.record(ScoringEvent::new(clock.now_ms(), rng.centered()));
            clock.advance(TICK_MS);
            if monitor.evaluate().drifted {
                false_positives += 1;
            }
        }
        assert_eq!(
            false_positives, 0,
            "seed {seed}: in-distribution stream must never read as drifted"
        );

        // Inject a 4σ mean shift and count ticks to detection.
        let mut detection = None;
        for tick in 1..=window {
            monitor.record(ScoringEvent::new(clock.now_ms(), 4.0 + rng.centered()));
            clock.advance(TICK_MS);
            if monitor.evaluate().drifted {
                detection = Some(tick);
                break;
            }
        }
        let detection = detection.expect("shift must be detected within one window");
        assert!(
            detection <= max_detection_ticks,
            "seed {seed}: detected after {detection} ticks, budget {max_detection_ticks}"
        );
        table.add_row(vec![seed.to_string(), "0".into(), detection.to_string()]);
    }
    println!("{}", table.render());
    println!(
        "✓ drift detected within {max_detection_ticks} ticks of a 4σ shift; \
         {clean_ticks} clean ticks silent on every seed\n"
    );
}

/// Part 2: multi-window burn-rate SLO — silent on clean traffic, bounded
/// detection under chaos, resolves on recovery.
fn run_burn_rate(smoke: bool) {
    let seeds: &[u64] = if smoke { &[3] } else { &[3, 17, 404] };
    let mut table = TextTable::new(&["seed", "phase", "ticks", "state"]);
    for &seed in seeds {
        let clock = Arc::new(ManualClock::new(5_000_000));
        let telemetry = Telemetry::with_time_source(clock.clone());
        let reg = telemetry.registry();
        let bad = reg.counter("e17_errors_total", &[]);
        let total = reg.counter("e17_requests_total", &[]);
        let engine = AlertEngine::new(&telemetry);
        engine.add_rule(AlertRule::new(
            "error-burn",
            AlertCondition::BurnRate {
                bad: MetricSelector::family("e17_errors_total"),
                total: MetricSelector::family("e17_requests_total"),
                windows: vec![
                    BurnWindow::new(5 * 60 * 1000, 0.05),  // fast detection
                    BurnWindow::new(60 * 60 * 1000, 0.05), // blip suppression
                ],
            },
        ));
        let mut rng = Lcg(seed);
        let mut tick = |error_rate: f64| {
            let requests = 90 + (rng.next_unit() * 20.0) as u64;
            let errors = (requests as f64 * error_rate).round() as u64;
            total.add(requests);
            bad.add(errors);
            clock.advance(TICK_MS);
            engine.evaluate();
            engine.statuses()[0].state
        };

        // Clean hour: 0.1% error rate must never leave inactive.
        let clean_ticks = if smoke { 90 } else { 360 };
        for i in 0..clean_ticks {
            let state = tick(0.001);
            assert_eq!(
                state,
                AlertState::Inactive,
                "seed {seed}: clean traffic raised {state:?} at tick {i}"
            );
        }
        table.add_row(vec![
            seed.to_string(),
            "clean".into(),
            clean_ticks.to_string(),
            "inactive".into(),
        ]);

        // Chaos: 50% errors. Both windows must agree before firing.
        let mut fired_after = None;
        for i in 1..=60 {
            if tick(0.5) == AlertState::Firing {
                fired_after = Some(i);
                break;
            }
        }
        let fired_after = fired_after.expect("burn-rate alert must fire under 50% errors");
        assert!(
            fired_after <= 40,
            "seed {seed}: fired after {fired_after} ticks, budget 40"
        );
        table.add_row(vec![
            seed.to_string(),
            "chaos 50%".into(),
            fired_after.to_string(),
            "firing".into(),
        ]);

        // Recovery: error-free traffic drains both windows → resolved.
        let mut resolved_after = None;
        for i in 1..=500 {
            let state = tick(0.0);
            if state == AlertState::Resolved || state == AlertState::Inactive {
                resolved_after = Some(i);
                break;
            }
        }
        let resolved_after = resolved_after.expect("alert must resolve after recovery");
        table.add_row(vec![
            seed.to_string(),
            "recovery".into(),
            resolved_after.to_string(),
            "resolved".into(),
        ]);
    }
    println!("{}", table.render());
    println!("✓ burn-rate SLO: zero false positives clean, bounded detection, resolves\n");
}

/// Part 3: metric breach → alert event → lifecycle rollback → exemplar.
fn run_auto_rollback() {
    let clock = Arc::new(ManualClock::new(9_000_000));
    let telemetry = Telemetry::with_time_source(clock.clone());
    let gallery = Arc::new(
        Gallery::in_memory_with_clock(clock.clone()).with_telemetry(Arc::clone(&telemetry)),
    );
    let model = gallery
        .create_model(ModelSpec::new("e17", "demand"))
        .unwrap();
    let good = gallery
        .upload_instance(&model.id, InstanceSpec::new(), Bytes::from_static(b"good"))
        .unwrap();
    let bad = gallery
        .upload_instance(&model.id, InstanceSpec::new(), Bytes::from_static(b"bad"))
        .unwrap();
    gallery.deploy(&model.id, &good.id, "production").unwrap();
    gallery.deploy(&model.id, &bad.id, "production").unwrap();

    let mut monitor = ModelMonitor::new(
        bad.id.clone(),
        MonitorConfig {
            window_ms: 40 * TICK_MS,
            ..MonitorConfig::default()
        },
        clock.clone(),
        &telemetry,
    );
    let engine = AlertEngine::new(&telemetry);
    register_lifecycle_actions(&engine, Arc::clone(&gallery));
    engine.add_rule(
        AlertRule::new(
            "drift-rollback",
            compile_condition("gallery_monitor_drift_score > 3.0").unwrap(),
        )
        .annotate("model", model.id.as_str())
        .annotate("environment", "production")
        .annotate("instance", bad.id.as_str())
        .exemplar_from(monitor.error_histogram())
        .action(ACTION_ROLLBACK_PRODUCTION),
    );

    // Healthy phase: scores on-baseline, engine silent.
    for i in 0..30 {
        monitor.record(
            ScoringEvent::new(clock.now_ms(), if i % 2 == 0 { -1.0 } else { 1.0 })
                .actual(if i % 2 == 0 { -1.1 } else { 1.1 })
                .trace(1000 + i),
        );
        clock.advance(TICK_MS);
        monitor.evaluate();
        assert!(
            engine.evaluate().is_empty(),
            "healthy phase must stay silent"
        );
    }
    assert_eq!(
        gallery.deployed_instance(&model.id, "production").unwrap(),
        Some(bad.id.clone())
    );

    // The deployed instance degrades: predictions shift, errors grow.
    let mut ticks_to_rollback = None;
    let breach_trace = 4242;
    for i in 1..=40 {
        monitor.record(
            ScoringEvent::new(clock.now_ms(), 8.0)
                .actual(6.0)
                .trace(breach_trace + i),
        );
        clock.advance(TICK_MS);
        monitor.evaluate();
        let transitions = engine.evaluate();
        if transitions.iter().any(|t| t.to == AlertState::Firing) {
            ticks_to_rollback = Some((i, transitions));
            break;
        }
    }
    let (ticks, transitions) = ticks_to_rollback.expect("drift alert must fire");
    let firing = transitions
        .iter()
        .find(|t| t.to == AlertState::Firing)
        .unwrap();

    // Chain link 1: the alert carries the breaching trace's exemplar.
    let exemplar = firing
        .exemplar_trace_id
        .expect("firing carries an exemplar");
    assert!(
        exemplar > breach_trace,
        "exemplar {exemplar} must point at a degraded-phase trace"
    );
    // Chain link 2: the alert event landed in the event sink.
    let fired_events = telemetry.events().of_kind(kinds::ALERT_FIRING);
    assert_eq!(fired_events.len(), 1);
    let action_events = telemetry.events().of_kind(kinds::ALERT_ACTION);
    assert_eq!(action_events[0].field("outcome"), Some("ok"));
    // Chain link 3: the lifecycle action moved the production pointer back.
    assert_eq!(
        gallery.deployed_instance(&model.id, "production").unwrap(),
        Some(good.id.clone()),
        "rollback must land on the prior lineage version"
    );
    // Chain link 4: `gallery alerts` output shows the linked trace.
    let board = engine.render_text();
    assert!(board.contains(&format!("trace_id={exemplar}")), "{board}");

    println!("degraded instance detected after {ticks} ticks;");
    println!("  alert `drift-rollback` fired with exemplar trace_id={exemplar},");
    println!("  production pointer rolled back {} -> {}", bad.id, good.id);
    println!("✓ metric breach → alert event → lifecycle rollback → exemplar, end to end\n");
}

/// One E15-shaped storage + registry workload against `telemetry`, with
/// the monitor + alert engine ticking alongside when `alerts` is Some.
fn workload(telemetry: &Arc<Telemetry>, alerts: Option<(&mut ModelMonitor, &AlertEngine)>) {
    let dal = Arc::new(
        Dal::new(
            Arc::new(MetadataStore::in_memory()),
            Arc::new(LocalFsBlobStore::in_memory()),
        )
        .with_telemetry(Arc::clone(telemetry)),
    );
    let gallery = Gallery::open(dal, Arc::new(SystemClock))
        .expect("open")
        .with_telemetry(Arc::clone(telemetry));
    let model = gallery
        .create_model(ModelSpec::new("bench", "base"))
        .unwrap();
    let mut last = None;
    for _ in 0..60 {
        last = Some(
            gallery
                .upload_instance(&model.id, InstanceSpec::new(), Bytes::from(vec![1u8; 4096]))
                .unwrap(),
        );
    }
    let inst = last.unwrap();
    let mut alerts = alerts;
    for i in 0..400u64 {
        gallery.fetch_instance_blob(&inst.id).unwrap();
        gallery.get_model(&model.id).unwrap();
        if let Some((monitor, engine)) = alerts.as_mut() {
            monitor.record(ScoringEvent::new(i as i64 * 100, 0.1).trace(i + 1));
            if i % 10 == 0 {
                monitor.evaluate();
                engine.evaluate();
            }
        }
    }
    for _ in 0..30 {
        gallery.model_query(&[]).unwrap().to_instances().unwrap();
    }
}

/// Part 4: instrumented run (monitor + 3-rule alert engine ticking every
/// 10 ops) vs `Telemetry::disabled()`, best-of-N interleaved.
fn run_overhead(smoke: bool) {
    let repeats = if smoke { 3 } else { 9 };
    let timed = |enabled: bool| -> f64 {
        let telemetry = if enabled {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let mut monitor_engine = enabled.then(|| {
            let monitor = ModelMonitor::new(
                InstanceId::from("bench-i"),
                MonitorConfig::default(),
                Arc::new(SystemClock),
                &telemetry,
            );
            let engine = AlertEngine::new(&telemetry);
            engine.add_rule(AlertRule::new(
                "overhead-threshold",
                AlertCondition::Threshold {
                    metric: MetricSelector::family("gallery_monitor_drift_score"),
                    cmp: gallery_telemetry::Cmp::Gt,
                    threshold: 3.0 * SCALE,
                },
            ));
            engine.add_rule(AlertRule::new(
                "overhead-burn",
                AlertCondition::BurnRate {
                    bad: MetricSelector::family("gallery_monitor_errors_total"),
                    total: MetricSelector::family("gallery_monitor_events_total"),
                    windows: vec![
                        BurnWindow::new(300_000, 0.1),
                        BurnWindow::new(3_600_000, 0.1),
                    ],
                },
            ));
            engine.add_rule(AlertRule::new(
                "overhead-expr",
                compile_condition("gallery_monitor_staleness_ms > 60000").unwrap(),
            ));
            (monitor, engine)
        });
        let t0 = Instant::now();
        workload(
            &telemetry,
            monitor_engine.as_mut().map(|(m, e)| (&mut *m, &*e)),
        );
        t0.elapsed().as_secs_f64() * 1e3
    };
    workload(&Telemetry::disabled(), None);
    workload(&Telemetry::new(), None);
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..repeats {
        disabled_ms = disabled_ms.min(timed(false));
        enabled_ms = enabled_ms.min(timed(true));
    }
    let overhead = (enabled_ms - disabled_ms) / disabled_ms * 100.0;

    let mut table = TextTable::new(&["bundle", &format!("best-of-{repeats} ms")]);
    table.add_row(vec![
        "disabled, no engine".into(),
        format!("{disabled_ms:.2}"),
    ]);
    table.add_row(vec![
        "enabled + monitor + 3 alert rules".into(),
        format!("{enabled_ms:.2}"),
    ]);
    println!("{}", table.render());
    println!("alert-engine overhead: {overhead:+.2}% on the E15 workload");
    assert!(
        overhead < 5.0,
        "monitoring must cost <5%, measured {overhead:.2}%"
    );
    println!("✓ overhead under the 5% budget\n");
}

/// Sanity: the probe endpoint serves both sections over the wire.
fn run_probe_roundtrip() {
    let telemetry = Telemetry::new();
    let gallery = Arc::new(Gallery::in_memory());
    let alerts = Arc::new(AlertEngine::new(&telemetry));
    alerts.add_rule(AlertRule::new(
        "probe",
        compile_condition("gallery_rpc_server_requests_total >= 1").unwrap(),
    ));
    let server = Arc::new(
        GalleryServer::new(gallery)
            .with_telemetry(Arc::clone(&telemetry))
            .with_alerts(alerts),
    );
    let client = GalleryClient::new(Arc::new(DirectTransport::new(server)));
    let first = client.probe("all").expect("probe");
    assert!(first.contains("# alert rules"));
    // The first probe minted the request counter; the second sees it ≥ 1
    // and the board reflects the (now firing) rule.
    let second = client.probe("alerts").expect("probe");
    assert!(second.contains("firing"), "{second}");
    println!("✓ probe endpoint serves exposition + live alert board over the wire\n");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E17: continuous model-health monitoring",
        "drift latency, burn-rate precision, rule-driven rollback, overhead",
    );
    run_drift_latency(smoke);
    run_burn_rate(smoke);
    run_auto_rollback();
    run_probe_roundtrip();
    run_overhead(smoke);
    println!("E17 ✓ all monitoring criteria hold");
}
