//! Figure 1 end-to-end: a model's full lifecycle driven by real
//! components across crates — training (gallery-forecast), evaluation and
//! deployment (gallery-core), monitoring with drift detection
//! (gallery-core::health), retraining triggered through the rule engine
//! (gallery-rules), and deprecation of the old instance.

use bytes::Bytes;
use gallery_core::health::drift::WindowMeanShift;
use gallery_core::metadata::fields;
use gallery_core::{Gallery, InstanceSpec, Metadata, MetricScope, MetricSpec, ModelSpec, Stage};
use gallery_forecast::{
    backtest, AnyForecaster, CityConfig, EventWindow, FeatureSpec, Forecaster, RidgeForecaster,
};
use gallery_rules::{ActionRegistry, CompiledRule, RuleBody, RuleDoc, RuleEngine};
use std::sync::Arc;
use std::sync::Mutex;

#[test]
fn full_lifecycle_with_drift_and_retraining() {
    let gallery = Arc::new(Gallery::in_memory());

    // --- Exploration → Training -----------------------------------------
    let city = CityConfig::new("lifecycle_city", 99);
    let day = city.samples_per_day();
    // Weeks 1-4 stationary; a persistent demand regime change (e.g. a new
    // transit line) begins at week 5 — that's the drift.
    let drifted_city = city.clone().with_event(EventWindow {
        start: day * 28,
        end: day * 42,
        multiplier: 1.6,
    });
    let series = drifted_city.generate(day * 42, 0);

    let model = gallery
        .create_model(
            ModelSpec::new("marketplace", "demand_lifecycle")
                .name("ridge")
                .owner("forecasting"),
        )
        .unwrap();

    // Day-scale lags: the model forecasts from the daily pattern, so a
    // persistent regime change genuinely degrades it (short lags would
    // adapt within one step and mask the drift).
    let day_spec = FeatureSpec {
        lags: vec![day, 2 * day],
        samples_per_day: day,
        weekly: true,
        event_flag: false,
    };
    let (train, _) = series.split_at(day * 21);
    let mut forecaster = AnyForecaster::Ridge(RidgeForecaster::new(day_spec.clone(), 1.0));
    forecaster.fit(&train).unwrap();
    let v1 = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::MODEL_NAME, "ridge")
                    .with(fields::CITY, city.name.clone()),
            ),
            Bytes::from(forecaster.to_blob()),
        )
        .unwrap();
    assert_eq!(gallery.stage_of(&v1.id).unwrap(), Stage::Trained);

    // --- Evaluation → Deployment ----------------------------------------
    // Validation window = week 4, still pre-drift.
    let eval = {
        let (head, _) = series.split_at(day * 28);
        backtest(&forecaster, &head, day * 21)
    };
    gallery
        .insert_metric_blob(
            &v1.id,
            MetricScope::Validation,
            &gallery_core::metrics::format_metric_blob(&eval.to_pairs()),
        )
        .unwrap();
    assert!(
        eval.mape < 0.2,
        "initial model is deployable: {}",
        eval.mape
    );
    gallery.set_stage(&v1.id, Stage::Evaluated).unwrap();
    gallery.deploy(&model.id, &v1.id, "production").unwrap();
    gallery.set_stage(&v1.id, Stage::Deployed).unwrap();
    gallery.set_stage(&v1.id, Stage::Monitoring).unwrap();

    // --- Monitoring: a retraining rule watches production MAPE ----------
    let retrain_requests: Arc<Mutex<Vec<String>>> = Arc::default();
    let actions = ActionRegistry::new();
    {
        let retrain_requests = Arc::clone(&retrain_requests);
        actions.register("trigger_retraining", move |inv| {
            retrain_requests
                .lock()
                .unwrap()
                .push(inv.instance_id.to_string());
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
    engine.register(
        CompiledRule::compile(&RuleDoc {
            team: "forecasting".into(),
            uuid: "retrain-on-degradation".into(),
            rule: RuleBody {
                given: r#"model_name == "ridge""#.into(),
                when: "metrics.production_mape > 0.18".into(),
                environment: "production".into(),
                model_selection: None,
                callback_actions: vec!["trigger_retraining".into()],
            },
        })
        .unwrap(),
    );
    engine.attach();

    // Production monitoring: daily MAPE readings flow into Gallery and a
    // drift detector. Weeks 4-6: regime change degrades the served model.
    let mut detector = WindowMeanShift::new(7, 4.0);
    let mut drift_seen = false;
    for week_day in 0..21 {
        let t0 = day * (21 + week_day);
        let window_eval = {
            // daily production MAPE of the *deployed* model
            let served =
                AnyForecaster::from_blob(&gallery.fetch_instance_blob(&v1.id).unwrap()).unwrap();
            let (head, _) = series.split_at(t0 + day);
            backtest(&served, &head, t0)
        };
        gallery
            .insert_metric(
                &v1.id,
                MetricSpec::new("production_mape", MetricScope::Production, window_eval.mape),
            )
            .unwrap();
        detector.observe(window_eval.mape);
        if detector.check().drifted {
            drift_seen = true;
        }
    }
    engine.drain();
    assert!(drift_seen, "the regime change must register as drift");
    assert!(
        !retrain_requests.lock().unwrap().is_empty(),
        "degraded production MAPE must trigger the retraining rule"
    );

    // --- Retraining: new instance on fresh data -------------------------
    gallery.set_stage(&v1.id, Stage::Retraining).unwrap();
    let (fresh_train, _) = series.split_at(day * 35);
    let mut retrained = AnyForecaster::Ridge(RidgeForecaster::new(day_spec, 1.0));
    retrained.fit(&fresh_train).unwrap();
    let v2 = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::MODEL_NAME, "ridge")
                    .with(fields::CITY, city.name.clone()),
            ),
            Bytes::from(retrained.to_blob()),
        )
        .unwrap();
    assert_eq!(v2.display_version.to_string(), "1.1");

    // Retrained model beats the stale one on the drifted window.
    let stale_eval = backtest(&forecaster, &series, day * 35);
    let fresh_eval = backtest(&retrained, &series, day * 35);
    assert!(
        fresh_eval.mape < stale_eval.mape,
        "retrained {} must beat stale {}",
        fresh_eval.mape,
        stale_eval.mape
    );

    // --- Deploy v2, deprecate v1 ----------------------------------------
    gallery.set_stage(&v2.id, Stage::Evaluated).unwrap();
    gallery.deploy(&model.id, &v2.id, "production").unwrap();
    gallery.set_stage(&v2.id, Stage::Deployed).unwrap();
    gallery.set_stage(&v1.id, Stage::Deprecated).unwrap();

    assert_eq!(
        gallery.deployed_instance(&model.id, "production").unwrap(),
        Some(v2.id.clone())
    );
    assert!(gallery.get_instance(&v1.id).unwrap().deprecated);
    // deprecated instance hidden from search but still fetchable (§3.7)
    let live = gallery
        .find_instances(
            &gallery_store::Query::all()
                .and(gallery_store::Constraint::eq("model_id", model.id.as_str())),
        )
        .unwrap();
    assert_eq!(live.len(), 1);
    assert!(gallery.fetch_instance_blob(&v1.id).is_ok());

    // Lifecycle history of v1 covers the Figure 1 loop.
    let history: Vec<Stage> = gallery
        .stage_history(&v1.id)
        .unwrap()
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    assert_eq!(
        history,
        vec![
            Stage::Evaluated,
            Stage::Deployed,
            Stage::Monitoring,
            Stage::Retraining,
            Stage::Deprecated
        ]
    );
}
