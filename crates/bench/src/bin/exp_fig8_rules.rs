//! E5 — Figure 8 + Listings 1–2: the rule engine end to end, with SLA
//! numbers.
//!
//! Client 1 (selection): the Listing 1 rule is sent to the trigger and the
//! champion comes back through the job queue. Client 2 (action): the
//! Listing 2 rule is checked into the Git-style repo; metric updates
//! trigger evaluation; the deployment callback fires. We then push 10k
//! metric events through and report trigger→completion latency.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::metadata::fields;
use gallery_core::{Gallery, InstanceSpec, Metadata, MetricScope, MetricSpec, ModelSpec};
use gallery_rules::rule::{listing1_selection_rule, listing2_action_rule};
use gallery_rules::{ActionRegistry, RuleEngine, RuleRepo};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

fn main() {
    banner("E5: rule engine workflow + SLA", "Figure 8, Listings 1-2");
    let gallery = Arc::new(Gallery::in_memory());

    // Rule repo (Git stand-in): validated, peer-reviewed commits.
    let repo = RuleRepo::new();
    repo.commit_rule(
        "alice",
        "bob",
        "forecasting/selection.json",
        &serde_json::to_string(&listing1_selection_rule()).unwrap(),
    )
    .unwrap();
    repo.commit_rule(
        "alice",
        "bob",
        "forecasting/deploy.json",
        &serde_json::to_string(&listing2_action_rule()).unwrap(),
    )
    .unwrap();

    let (actions, _log) = ActionRegistry::with_defaults();
    let deployments: Arc<Mutex<u64>> = Arc::default();
    {
        let gallery = Arc::clone(&gallery);
        let deployments = Arc::clone(&deployments);
        actions.register("forecasting_deployment", move |inv| {
            gallery
                .deploy(&inv.model_id, &inv.instance_id, &inv.environment)
                .map_err(|e| gallery_rules::EngineError::ActionFailed(e.to_string()))?;
            *deployments.lock().unwrap() += 1;
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 4);
    engine.register_all(repo.load_rules().unwrap());
    engine.attach();

    // --- Client 2: action rule fires on metric insert -------------------
    let rf = gallery
        .create_model(ModelSpec::new("forecasting", "rf").name("Random Forest"))
        .unwrap();
    let rf_meta = || {
        Metadata::new()
            .with(fields::MODEL_NAME, "Random Forest")
            .with(fields::MODEL_DOMAIN, "UberX")
    };
    let inst = gallery
        .upload_instance(
            &rf.id,
            InstanceSpec::new().metadata(rf_meta()),
            Bytes::from_static(b"rf"),
        )
        .unwrap();
    gallery
        .insert_metric(
            &inst.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.05),
        )
        .unwrap();
    engine.drain();
    println!(
        "action rule: in-corridor bias deployed the instance ({} deployment)",
        deployments.lock().unwrap()
    );
    assert_eq!(*deployments.lock().unwrap(), 1);

    // --- Client 1: selection rule through the queue ----------------------
    let lr = gallery
        .create_model(ModelSpec::new("forecasting", "lr").name("linear_regression"))
        .unwrap();
    for r2 in [0.70, 0.85, 0.95] {
        let inst = gallery
            .upload_instance(
                &lr.id,
                InstanceSpec::new().metadata(
                    Metadata::new()
                        .with(fields::MODEL_NAME, "linear_regression")
                        .with(fields::MODEL_DOMAIN, "UberX"),
                ),
                Bytes::from(format!("lr-{r2}")),
            )
            .unwrap();
        gallery
            .insert_metric(&inst.id, MetricSpec::new("r2", MetricScope::Validation, r2))
            .unwrap();
    }
    let champion = engine
        .select(&listing1_selection_rule().uuid)
        .unwrap()
        .expect("champion exists");
    println!(
        "selection rule: champion is the latest instance with r2 <= 0.9 (version {})",
        champion.display_version
    );

    // --- SLA: 10k metric events through the queue ------------------------
    let n_events = 10_000u64;
    let started = Instant::now();
    for i in 0..n_events {
        // Alternate in/out of the bias corridor.
        let bias = if i % 2 == 0 { 0.05 } else { 0.5 };
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("bias", MetricScope::Production, bias),
            )
            .unwrap();
    }
    engine.drain();
    let elapsed = started.elapsed();
    let stats = engine.stats();

    let mut table = TextTable::new(&["measure", "value"]);
    table.add_row(vec!["metric events pushed".into(), n_events.to_string()]);
    table.add_row(vec![
        "rule evaluations triggered".into(),
        stats.triggered.to_string(),
    ]);
    table.add_row(vec![
        "rules fired (conditions held)".into(),
        stats.fired.to_string(),
    ]);
    table.add_row(vec![
        "actions executed".into(),
        stats.actions_executed.to_string(),
    ]);
    table.add_row(vec!["errors".into(), stats.errors.to_string()]);
    table.add_row(vec![
        "throughput (events/s)".into(),
        format!("{:.0}", n_events as f64 / elapsed.as_secs_f64()),
    ]);
    table.add_row(vec![
        "mean trigger->completion latency".into(),
        format!("{:?}", stats.mean_latency()),
    ]);
    table.add_row(vec![
        "max trigger->completion latency".into(),
        format!("{:?}", stats.max_latency),
    ]);
    println!("\n{}", table.render());
    println!(
        "each evaluation judges the metric observation that triggered it (§3.7.2),\n\
         so exactly the in-corridor half of the events fires the deployment action."
    );
    assert_eq!(stats.errors, 0);
    // setup: 1 action fire + 1 selection; SLA loop: half of n_events fire.
    assert_eq!(stats.fired, n_events / 2 + 1);
}
