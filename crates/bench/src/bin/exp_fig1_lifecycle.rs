//! E2 — Figure 1: the model lifecycle, orchestrated end to end.
//!
//! One demand model walks the full loop: exploration → training →
//! evaluation → deployment → monitoring → (drift) → retraining →
//! deprecation of the old instance — with every hop recorded in Gallery's
//! lifecycle table and the retrain triggered by a rule, not a human.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::health::drift::WindowMeanShift;
use gallery_core::metadata::fields;
use gallery_core::{Gallery, InstanceSpec, Metadata, MetricScope, MetricSpec, ModelSpec, Stage};
use gallery_forecast::{
    backtest, AnyForecaster, CityConfig, EventWindow, FeatureSpec, Forecaster, RidgeForecaster,
};
use gallery_rules::{ActionRegistry, CompiledRule, RuleBody, RuleDoc, RuleEngine};
use std::sync::Arc;
use std::sync::Mutex;

fn main() {
    banner("E2: the model lifecycle, end to end", "Figure 1");
    let gallery = Arc::new(Gallery::in_memory());

    // A market whose demand regime shifts at week 5 (persistent drift).
    let city = CityConfig::new("lifecycle", 777);
    let day = city.samples_per_day();
    let shifted = city.clone().with_event(EventWindow {
        start: day * 28,
        end: day * 42,
        multiplier: 1.5,
    });
    let series = shifted.generate(day * 42, 0);

    // Retraining rule: production MAPE above threshold -> retrain.
    let retrain_flag: Arc<Mutex<bool>> = Arc::default();
    let actions = ActionRegistry::new();
    {
        let retrain_flag = Arc::clone(&retrain_flag);
        actions.register("trigger_retraining", move |_| {
            *retrain_flag.lock().unwrap() = true;
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
    engine.register(
        CompiledRule::compile(&RuleDoc {
            team: "forecasting".into(),
            uuid: "lifecycle-retrain".into(),
            rule: RuleBody {
                given: r#"city == "lifecycle""#.into(),
                when: "metrics.production_mape > 0.16".into(),
                environment: "production".into(),
                model_selection: None,
                callback_actions: vec!["trigger_retraining".into()],
            },
        })
        .unwrap(),
    );
    engine.attach();

    let mut log: Vec<(String, String)> = Vec::new();
    let mut push = |stage: &str, note: String| log.push((stage.to_string(), note));

    // 1. Exploration: register the modeling approach.
    let model = gallery
        .create_model(
            ModelSpec::new("marketplace", "lifecycle_demand")
                .name("ridge")
                .owner("forecasting"),
        )
        .unwrap();
    push(
        "exploration",
        format!("model registered: base {}", model.base_version_id),
    );

    // 2. Training on weeks 1-3. Day-scale lags: the model forecasts from
    //    the daily pattern, so the regime change genuinely degrades it.
    let day_spec = FeatureSpec {
        lags: vec![day, 2 * day],
        samples_per_day: day,
        weekly: true,
        event_flag: false,
    };
    let (train, _) = series.split_at(day * 21);
    let mut v1_model = AnyForecaster::Ridge(RidgeForecaster::new(day_spec.clone(), 1.0));
    v1_model.fit(&train).unwrap();
    let v1 = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(Metadata::new().with(fields::CITY, "lifecycle")),
            Bytes::from(v1_model.to_blob()),
        )
        .unwrap();
    push(
        "trained",
        format!("instance {} (v{})", v1.id, v1.display_version),
    );

    // 3. Evaluation (backtest week 4).
    let eval = {
        let (head, _) = series.split_at(day * 28);
        backtest(&v1_model, &head, day * 21)
    };
    gallery
        .insert_metric(
            &v1.id,
            MetricSpec::new("mape", MetricScope::Validation, eval.mape),
        )
        .unwrap();
    gallery.set_stage(&v1.id, Stage::Evaluated).unwrap();
    push(
        "evaluated",
        format!("validation mape {:.2}%", 100.0 * eval.mape),
    );

    // 4. Deployment.
    gallery.deploy(&model.id, &v1.id, "production").unwrap();
    gallery.set_stage(&v1.id, Stage::Deployed).unwrap();
    gallery.set_stage(&v1.id, Stage::Monitoring).unwrap();
    push("deployed+monitoring", "serving production".into());

    // 5. Monitoring weeks 4-6 (one pre-drift week seeds the detector's
    //    reference window): daily production MAPE into Gallery; the regime
    //    change degrades it; the rule fires.
    let mut detector = WindowMeanShift::new(7, 4.0);
    let mut drift_day = None;
    for d in 0..21 {
        let t0 = day * (21 + d);
        let (head, _) = series.split_at(t0 + day);
        let daily = backtest(&v1_model, &head, t0);
        gallery
            .insert_metric(
                &v1.id,
                MetricSpec::new("production_mape", MetricScope::Production, daily.mape),
            )
            .unwrap();
        detector.observe(daily.mape);
        if drift_day.is_none() && detector.check().drifted {
            drift_day = Some(d);
        }
    }
    engine.drain();
    push(
        "monitoring",
        format!(
            "drift detector fired on monitoring day {:?} (drift began day 7); rule fired: {}",
            drift_day,
            retrain_flag.lock().unwrap()
        ),
    );
    assert!(
        *retrain_flag.lock().unwrap(),
        "rule must request retraining"
    );
    assert!(
        drift_day.is_some(),
        "mean-shift detector must flag the regime change"
    );

    // 6. Retraining on fresh data (weeks 1-6).
    gallery.set_stage(&v1.id, Stage::Retraining).unwrap();
    let (fresh, _) = series.split_at(day * 35);
    let mut v2_model = AnyForecaster::Ridge(RidgeForecaster::new(day_spec, 1.0));
    v2_model.fit(&fresh).unwrap();
    let v2 = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(Metadata::new().with(fields::CITY, "lifecycle")),
            Bytes::from(v2_model.to_blob()),
        )
        .unwrap();
    let v2_eval = backtest(&v2_model, &series, day * 35);
    let v1_eval = backtest(&v1_model, &series, day * 35);
    gallery
        .insert_metric(
            &v2.id,
            MetricSpec::new("mape", MetricScope::Validation, v2_eval.mape),
        )
        .unwrap();
    gallery.set_stage(&v2.id, Stage::Evaluated).unwrap();
    push(
        "retrained",
        format!(
            "v{}: mape {:.2}% (stale v1: {:.2}%)",
            v2.display_version,
            100.0 * v2_eval.mape,
            100.0 * v1_eval.mape
        ),
    );
    assert!(v2_eval.mape < v1_eval.mape, "retrain must help after drift");

    // 7. Deploy v2, deprecate v1.
    gallery.deploy(&model.id, &v2.id, "production").unwrap();
    gallery.set_stage(&v2.id, Stage::Deployed).unwrap();
    gallery.set_stage(&v1.id, Stage::Deprecated).unwrap();
    push(
        "deprecated",
        format!("old instance {} flagged, kept for consumers", v1.id),
    );

    let mut table = TextTable::new(&["lifecycle stage", "what happened"]);
    for (stage, note) in &log {
        table.add_row(vec![stage.clone(), note.clone()]);
    }
    println!("{}", table.render());

    let history: Vec<String> = gallery
        .stage_history(&v1.id)
        .unwrap()
        .into_iter()
        .map(|(s, _)| s.to_string())
        .collect();
    println!("v1 stage history: {}", history.join(" -> "));
    assert_eq!(
        gallery.deployed_instance(&model.id, "production").unwrap(),
        Some(v2.id)
    );
    println!("\npaper shape (Fig 1): explore -> train -> evaluate -> deploy -> monitor ->");
    println!("detect degradation -> retrain -> deploy new, deprecate old — all recorded");
    println!("in Gallery, with the retrain decision made by a rule ✓");
}
