//! E11 — §3.6 model health insights: drift detection and production skew.
//!
//! Streams synthetic production metrics with an injected regime change
//! through the three drift detectors, reports detection delay and
//! false-positive behaviour, then demonstrates production-skew detection
//! on stored Gallery metrics, wired to a retraining rule.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::health::drift::{Cusum, PopulationStabilityIndex, WindowMeanShift};
use gallery_core::health::skew::{default_direction, detect_skew_from_records};
use gallery_core::metadata::fields;
use gallery_core::{Gallery, InstanceSpec, Metadata, MetricScope, MetricSpec, ModelSpec};
use gallery_rules::{ActionRegistry, CompiledRule, RuleBody, RuleDoc, RuleEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::sync::Mutex;

/// Daily production MAPE stream: stable around `base`, jumping to
/// `base + shift` at `change_point`.
fn mape_stream(n: usize, base: f64, shift: f64, change_point: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let level = if i < change_point { base } else { base + shift };
            level + (rng.gen::<f64>() - 0.5) * 0.02
        })
        .collect()
}

fn main() {
    banner(
        "E11: drift + production-skew insights",
        "§3.6 Model Drift / Production Skew",
    );

    // ---- Drift detectors over the same stream ---------------------------
    let n = 120;
    let change_point = 60;
    let stream = mape_stream(n, 0.10, 0.08, change_point, 3);
    let clean = mape_stream(n, 0.10, 0.0, usize::MAX, 4);

    let mut table = TextTable::new(&[
        "detector",
        "fired on drifted stream",
        "detection delay (days)",
        "false positive on clean stream",
    ]);

    // Window mean shift
    let run_mean_shift = |stream: &[f64]| -> Option<usize> {
        let mut d = WindowMeanShift::new(14, 5.0);
        for (i, &v) in stream.iter().enumerate() {
            d.observe(v);
            if d.check().drifted {
                return Some(i);
            }
        }
        None
    };
    let fired = run_mean_shift(&stream);
    let fp = run_mean_shift(&clean);
    table.add_row(vec![
        "window mean shift (z=5, w=14)".into(),
        fired.is_some().to_string(),
        fired
            .map(|i| (i - change_point).to_string())
            .unwrap_or("-".into()),
        fp.is_some().to_string(),
    ]);
    assert!(fired.is_some() && fp.is_none());

    // CUSUM
    let run_cusum = |stream: &[f64]| -> Option<usize> {
        let mut d = Cusum::new(0.10, 0.02, 0.25);
        for (i, &v) in stream.iter().enumerate() {
            d.observe(v);
            if d.check().drifted {
                return Some(i);
            }
        }
        None
    };
    let fired = run_cusum(&stream);
    let fp = run_cusum(&clean);
    table.add_row(vec![
        "CUSUM (slack=0.02, h=0.25)".into(),
        fired.is_some().to_string(),
        fired
            .map(|i| (i - change_point).to_string())
            .unwrap_or("-".into()),
        fp.is_some().to_string(),
    ]);
    assert!(fired.is_some() && fp.is_none());

    // PSI is a distribution-level test: it needs larger samples than the
    // per-day detectors, so it runs on finer-grained (per-interval) streams.
    let psi = PopulationStabilityIndex::new(10, 0.25);
    let fine_drift = mape_stream(1200, 0.10, 0.08, 600, 13);
    let fine_clean = mape_stream(1200, 0.10, 0.0, usize::MAX, 14);
    let reference = &fine_drift[..600];
    let drifted_window = &fine_drift[700..1100];
    let clean_window = &fine_clean[700..1100];
    let v_drift = psi.compute(reference, drifted_window);
    let v_clean = psi.compute(&fine_clean[..600], clean_window);
    table.add_row(vec![
        "PSI (10 bins, 0.25)".into(),
        v_drift.drifted.to_string(),
        format!("psi={:.2}", v_drift.statistic),
        v_clean.drifted.to_string(),
    ]);
    assert!(v_drift.drifted && !v_clean.drifted);
    println!("{}", table.render());

    // ---- Drift triggers retraining through the rule engine -------------
    let gallery = Arc::new(Gallery::in_memory());
    let retrains: Arc<Mutex<u64>> = Arc::default();
    let actions = ActionRegistry::new();
    {
        let retrains = Arc::clone(&retrains);
        actions.register("trigger_retraining", move |_| {
            *retrains.lock().unwrap() += 1;
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
    engine.register(
        CompiledRule::compile(&RuleDoc {
            team: "forecasting".into(),
            uuid: "drift-retrain".into(),
            rule: RuleBody {
                given: r#"model_name == "ridge""#.into(),
                when: "metrics.drift_z > 5".into(),
                environment: "production".into(),
                model_selection: None,
                callback_actions: vec!["trigger_retraining".into()],
            },
        })
        .unwrap(),
    );
    engine.attach();

    let model = gallery
        .create_model(ModelSpec::new("marketplace", "health_demo").name("ridge"))
        .unwrap();
    let inst = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(Metadata::new().with(fields::MODEL_NAME, "ridge")),
            Bytes::from_static(b"w"),
        )
        .unwrap();
    let mut detector = WindowMeanShift::new(14, 5.0);
    for &mape in &stream {
        detector.observe(mape);
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("mape", MetricScope::Production, mape),
            )
            .unwrap();
        let verdict = detector.check();
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("drift_z", MetricScope::Production, verdict.statistic),
            )
            .unwrap();
    }
    engine.drain();
    println!(
        "drift z-score metrics triggered the retraining rule {} time(s) ✓",
        retrains.lock().unwrap()
    );
    assert!(*retrains.lock().unwrap() > 0);

    // ---- Production skew on stored metrics ------------------------------
    gallery
        .insert_metric(
            &inst.id,
            MetricSpec::new("mape", MetricScope::Validation, 0.10),
        )
        .unwrap();
    let records = gallery.metrics_of_instance(&inst.id).unwrap();
    let verdicts = detect_skew_from_records(&records, default_direction, 0.25);
    let mape_verdict = verdicts.iter().find(|v| v.metric_name == "mape").unwrap();
    println!(
        "\nproduction skew on mape: offline {:.3} vs production {:.3} -> {:.0}% degradation, skewed={}",
        mape_verdict.offline_value,
        mape_verdict.production_value,
        100.0 * mape_verdict.relative_degradation,
        mape_verdict.skewed
    );
    assert!(
        mape_verdict.skewed,
        "the post-drift production MAPE is skewed vs validation"
    );

    let health = gallery.health_report(&inst.id).unwrap();
    println!(
        "health report: score {:.2}, skewed metrics {:?}",
        health.score(),
        health
            .skew
            .iter()
            .filter(|s| s.skewed)
            .map(|s| s.metric_name.clone())
            .collect::<Vec<_>>()
    );
    println!("\npaper shape: drift detected shortly after the regime change with no false");
    println!("positives on a stable stream; skew surfaces the train/serve gap ✓");
}
