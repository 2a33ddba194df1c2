//! The whole program under one lock order. With rank checking on, three
//! paths that cross every layer run in one process, and the checker must
//! record zero `GLnnnn` diagnostics while its acquired-before graph
//! reaches the registry's version lock, the event bus, the rule engine
//! and telemetry:
//!
//! - an upload into a Fig 5 dependency graph, so Fig 6 propagation mints
//!   an automatic downstream version under the version lock and publishes
//!   it to an attached rule engine;
//! - a metric insert that fires an action rule through that engine;
//! - an `AlertEngine` rule whose hook rolls the production pointer back
//!   through the store.
//!
//! Two storage arms follow: the in-memory gallery's store compacts its
//! log, and a blob written to a `SimFs` disk is read back after a
//! simulated crash and recovery.
//!
//! The checker's graph is process-global, so this file holds one test.

use bytes::Bytes;
use gallery_core::metadata::{fields, Metadata};
use gallery_core::sync::{checker, rank};
use gallery_core::{Gallery, InstanceSpec, MetricScope, MetricSpec, ModelSpec};
use gallery_rules::{
    register_lifecycle_actions, ActionRegistry, CompiledRule, RuleBody, RuleDoc, RuleEngine,
    ACTION_ROLLBACK_PRODUCTION,
};
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::{ObjectStore, SimFs};
use gallery_telemetry::{AlertCondition, AlertEngine, AlertRule, AlertState, Cmp, MetricSelector};
use gallery_telemetry::{Telemetry, TelemetryEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn three_cross_layer_paths_record_no_lock_diagnostics() {
    checker::enable();
    checker::reset();

    let gallery = Arc::new(Gallery::in_memory());

    // Fig 5: `demand` feeds `pricing`.
    let demand = gallery
        .create_model(ModelSpec::new("marketplace", "demand").owner("fc"))
        .unwrap();
    let pricing = gallery
        .create_model(ModelSpec::new("marketplace", "pricing").owner("fc"))
        .unwrap();
    gallery.add_dependency(&pricing.id, &demand.id).unwrap();

    // An action rule on production MAPE, behind an attached engine.
    let fired = Arc::new(AtomicU64::new(0));
    let actions = ActionRegistry::new();
    {
        let fired = Arc::clone(&fired);
        actions.register("retrain", move |_| {
            fired.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 2);
    engine.register(
        CompiledRule::compile(&RuleDoc {
            team: "forecasting".into(),
            uuid: "retrain-on-mape".into(),
            rule: RuleBody {
                given: r#"model_name == "ridge""#.into(),
                when: "metrics.production_mape > 0.2".into(),
                environment: "production".into(),
                model_selection: None,
                callback_actions: vec!["retrain".into()],
            },
        })
        .unwrap(),
    );
    engine.attach();

    // Path 1: an upload that propagates down the dependency graph.
    let pricing_versions = gallery.instances_of_model(&pricing.id).unwrap().len();
    let d1 = gallery
        .upload_instance(
            &demand.id,
            InstanceSpec::new().metadata(Metadata::new().with(fields::MODEL_NAME, "ridge")),
            Bytes::from_static(b"demand-v1"),
        )
        .unwrap();
    assert_eq!(
        gallery.instances_of_model(&pricing.id).unwrap().len(),
        pricing_versions + 1,
        "the upload minted an automatic downstream version"
    );

    // Path 2: a metric insert that fires the action rule.
    gallery
        .insert_metric(
            &d1.id,
            MetricSpec::new("production_mape", MetricScope::Production, 0.35),
        )
        .unwrap();
    engine.drain();
    assert_eq!(fired.load(Ordering::SeqCst), 1, "the action rule fired");

    // Path 3: an alert whose hook rolls production back.
    let d2 = gallery
        .upload_instance(
            &demand.id,
            InstanceSpec::new(),
            Bytes::from_static(b"demand-v2"),
        )
        .unwrap();
    gallery.deploy(&demand.id, &d1.id, "production").unwrap();
    gallery.deploy(&demand.id, &d2.id, "production").unwrap();
    let telemetry = Telemetry::new();
    let alerts = AlertEngine::new(&telemetry);
    register_lifecycle_actions(&alerts, Arc::clone(&gallery));
    alerts.add_rule(
        AlertRule::new(
            "drift-rollback",
            AlertCondition::Threshold {
                metric: MetricSelector::family("demand_drift"),
                cmp: Cmp::Gt,
                threshold: 3.0,
            },
        )
        .annotate("model", demand.id.as_str())
        .annotate("environment", "production")
        .action(ACTION_ROLLBACK_PRODUCTION),
    );
    telemetry.registry().gauge("demand_drift", &[]).set(8);
    let transitions = alerts.evaluate();
    assert!(transitions.iter().any(|t| t.to == AlertState::Firing));
    assert_eq!(
        gallery.deployed_instance(&demand.id, "production").unwrap(),
        Some(d1.id.clone()),
        "the firing alert rolled production back"
    );
    let outcomes: Vec<Option<String>> = telemetry
        .events()
        .of_kind(gallery_telemetry::kinds::ALERT_ACTION)
        .iter()
        .map(|e: &TelemetryEvent| e.field("outcome").map(str::to_owned))
        .collect();
    assert_eq!(outcomes, vec![Some("ok".to_string())]);

    // Compaction reads every stripe while writers are held off.
    let entries = gallery.dal().metadata().compact().unwrap();
    assert!(entries > 0, "the in-memory store has a log to compact");

    // Write, crash and recover a disk, then read through the new image.
    let disk = SimFs::new();
    let blobs = LocalFsBlobStore::open_with_fs(Arc::new(disk.clone()), "/blobs").unwrap();
    let info = blobs.put(Bytes::from_static(b"survives")).unwrap();
    let recovered = LocalFsBlobStore::open_with_fs(Arc::new(disk.recover()), "/blobs").unwrap();
    assert_eq!(
        recovered.get(&info.location).unwrap(),
        Bytes::from_static(b"survives")
    );

    drop(engine);
    let report = checker::report();
    checker::reset_mode();
    assert!(
        report.is_clean(),
        "the composed paths must record no lock diagnostics:\n{}",
        report.render_text()
    );
    let reached = |name: &str| report.edges.iter().any(|e| e.from == name || e.to == name);
    for required in [
        rank::VERSION_LOCK,
        rank::EVENT_BUS,
        rank::ENGINE_RULES,
        rank::METRIC_REGISTRY,
    ] {
        assert!(
            reached(required.name),
            "the acquired-before graph never reached {}:\n{}",
            required.name,
            report.render_text()
        );
    }
}
