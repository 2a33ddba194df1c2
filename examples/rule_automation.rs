//! The orchestration rule engine end-to-end (§3.7, Listings 1–2).
//!
//! Checks the paper's two example rules into a versioned rule repo (with
//! validation and peer review), loads them into the engine, and shows:
//! 1. the action rule auto-deploying a Random Forest instance the moment a
//!    within-corridor bias metric is recorded (Listing 2);
//! 2. the selection rule answering "which linear_regression should I
//!    serve?" at serving time (Listing 1).
//!
//! Run with: `cargo run --example rule_automation`

use bytes::Bytes;
use gallery::core::metadata::fields;
use gallery::prelude::*;
use gallery::rules::rule::{listing1_selection_rule, listing2_action_rule};
use std::sync::Arc;
use std::sync::Mutex;

fn main() {
    let gallery = Arc::new(Gallery::in_memory());

    // --- Rule repo: validated, peer-reviewed, versioned (§3.7.2) -------
    let repo = RuleRepo::new();
    let selection_json = serde_json::to_string_pretty(&listing1_selection_rule()).unwrap();
    let action_json = serde_json::to_string_pretty(&listing2_action_rule()).unwrap();
    repo.commit_rule("alice", "bob", "forecasting/champion.json", &selection_json)
        .expect("valid rule commits");
    repo.commit_rule("alice", "bob", "forecasting/auto_deploy.json", &action_json)
        .expect("valid rule commits");
    // A broken rule never lands:
    let err = repo.commit_rule("mallory", "bob", "forecasting/bad.json", "{ not json");
    println!("broken rule rejected before production: {}", err.is_err());
    // Self-review is rejected too:
    let err = repo.commit_rule("alice", "alice", "forecasting/x.json", &selection_json);
    println!("self-review rejected: {}", err.is_err());

    // --- Engine with a real deployment callback ------------------------
    let (actions, _log) = ActionRegistry::with_defaults();
    let deployed: Arc<Mutex<Vec<String>>> = Arc::default();
    {
        let gallery = Arc::clone(&gallery);
        let deployed = Arc::clone(&deployed);
        actions.register("forecasting_deployment", move |inv| {
            // The paper's deployment action flips the served version via a
            // config change; here it is a real Gallery deployment.
            gallery
                .deploy(&inv.model_id, &inv.instance_id, &inv.environment)
                .map_err(|e| gallery::rules::EngineError::ActionFailed(e.to_string()))?;
            deployed.lock().unwrap().push(inv.instance_id.to_string());
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 2);
    engine.register_all(repo.load_rules().expect("repo rules compile"));
    engine.attach(); // event-driven triggering from here on

    // --- Listing 2 in action: metric insert fires auto-deployment ------
    let rf = gallery
        .create_model(ModelSpec::new("forecasting", "rf_demand").name("Random Forest"))
        .unwrap();
    let rf_instance = gallery
        .upload_instance(
            &rf.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::MODEL_NAME, "Random Forest")
                    .with(fields::MODEL_DOMAIN, "UberX"),
            ),
            Bytes::from_static(b"rf weights"),
        )
        .unwrap();
    gallery
        .insert_metric(
            &rf_instance.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.05),
        )
        .unwrap();
    engine.drain();
    println!(
        "auto-deployed after in-corridor bias metric: {:?}",
        deployed.lock().unwrap().clone()
    );
    assert_eq!(
        gallery.deployed_instance(&rf.id, "production").unwrap(),
        Some(rf_instance.id.clone())
    );

    // Out-of-corridor bias does NOT deploy.
    let rf_bad = gallery
        .upload_instance(
            &rf.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::MODEL_NAME, "Random Forest")
                    .with(fields::MODEL_DOMAIN, "UberX"),
            ),
            Bytes::from_static(b"biased weights"),
        )
        .unwrap();
    gallery
        .insert_metric(
            &rf_bad.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.4),
        )
        .unwrap();
    engine.drain();
    assert_eq!(
        gallery.deployed_instance(&rf.id, "production").unwrap(),
        Some(rf_instance.id.clone()),
        "production pointer unchanged for the biased instance"
    );
    println!("out-of-corridor instance was not deployed");

    // --- Listing 1 in action: champion selection ------------------------
    let lr = gallery
        .create_model(ModelSpec::new("forecasting", "lr_demand").name("linear_regression"))
        .unwrap();
    for (r2, label) in [
        (0.85, "older"),
        (0.88, "newer"),
        (0.95, "too-good-to-trust"),
    ] {
        let inst = gallery
            .upload_instance(
                &lr.id,
                InstanceSpec::new().metadata(
                    Metadata::new()
                        .with(fields::MODEL_NAME, "linear_regression")
                        .with(fields::MODEL_DOMAIN, "UberX")
                        .with("label", label),
                ),
                Bytes::from(format!("lr weights {label}")),
            )
            .unwrap();
        gallery
            .insert_metric(&inst.id, MetricSpec::new("r2", MetricScope::Validation, r2))
            .unwrap();
        // metric inserts re-trigger the action rule; drain between uploads
        engine.drain();
    }
    let champion = engine
        .select(&listing1_selection_rule().uuid)
        .expect("selection runs")
        .expect("a champion exists");
    println!(
        "selection rule champion: label={:?} (latest instance with r2 <= 0.9)",
        champion.metadata.get_str("label")
    );
    assert_eq!(champion.metadata.get_str("label"), Some("newer"));

    let stats = engine.stats();
    println!(
        "engine stats: triggered={} fired={} actions={} errors={} mean latency {:?}",
        stats.triggered,
        stats.fired,
        stats.actions_executed,
        stats.errors,
        stats.mean_latency()
    );
}
