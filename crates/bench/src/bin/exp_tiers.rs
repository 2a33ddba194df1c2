//! E12 — §6.3 tiered service offering.
//!
//! "Gallery features are broken up into four groups that are built on top
//! of one another: 1) model storage and retrieval; 2) metadata storage and
//! search; 3) metric storage and search; and 4) rule engine automation."
//! Each tier is exercised using only that tier's API surface (plus the
//! tiers below it), demonstrating that a team can onboard incrementally.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::metadata::fields;
use gallery_core::{Gallery, InstanceSpec, Metadata, MetricScope, MetricSpec, ModelSpec};
use gallery_rules::{ActionRegistry, CompiledRule, RuleBody, RuleDoc, RuleEngine};
use gallery_store::{Constraint, Query};
use std::sync::Arc;
use std::sync::Mutex;

fn main() {
    banner(
        "E12: tiered service offering",
        "§6.3 'four groups built on top of one another'",
    );
    let gallery = Arc::new(Gallery::in_memory());
    let mut table = TextTable::new(&["tier", "capability", "exercised with"]);

    // ---- Tier 1: model storage and retrieval ---------------------------
    // "Teams doing experimentation ... only need a place to dump models."
    let model = gallery
        .create_model(ModelSpec::new("new-team", "experiment_1").name("prototype"))
        .unwrap();
    let inst = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new(),
            Bytes::from_static(b"prototype-v1"),
        )
        .unwrap();
    let blob = gallery.fetch_instance_blob(&inst.id).unwrap();
    assert_eq!(blob, Bytes::from_static(b"prototype-v1"));
    table.add_row(vec![
        "1".into(),
        "model storage & retrieval".into(),
        "upload_instance + fetch_instance_blob (no metadata, no metrics, no rules)".into(),
    ]);

    // ---- Tier 2: metadata storage and search ---------------------------
    let inst2 = gallery
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::CITY, "sf")
                    .with(fields::MODEL_NAME, "prototype"),
            ),
            Bytes::from_static(b"prototype-v2"),
        )
        .unwrap();
    let found = gallery
        .find_instances(&Query::all().and(Constraint::eq("city", "sf")))
        .unwrap();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].id, inst2.id);
    table.add_row(vec![
        "2".into(),
        "metadata storage & search".into(),
        "instance metadata + find_instances by indexed field".into(),
    ]);

    // ---- Tier 3: metric storage and search ------------------------------
    gallery
        .insert_metric(
            &inst2.id,
            MetricSpec::new("mape", MetricScope::Validation, 0.09),
        )
        .unwrap();
    let found = gallery
        .model_query(&[
            Constraint::eq("metricName", "mape"),
            Constraint::lt("metricValue", 0.1),
        ])
        .unwrap();
    assert_eq!(found.len(), 1);
    table.add_row(vec![
        "3".into(),
        "metric storage & search".into(),
        "insert_metric + model_query joining metric constraints".into(),
    ]);

    // ---- Tier 4: rule engine automation ---------------------------------
    let fired: Arc<Mutex<u64>> = Arc::default();
    let actions = ActionRegistry::new();
    {
        let fired = Arc::clone(&fired);
        actions.register("notify", move |_| {
            *fired.lock().unwrap() += 1;
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
    engine.register(
        CompiledRule::compile(&RuleDoc {
            team: "new-team".into(),
            uuid: "tier4-demo".into(),
            rule: RuleBody {
                given: r#"model_name == "prototype""#.into(),
                when: "metrics.mape < 0.1".into(),
                environment: "staging".into(),
                model_selection: None,
                callback_actions: vec!["notify".into()],
            },
        })
        .unwrap(),
    );
    engine.attach();
    gallery
        .insert_metric(
            &inst2.id,
            MetricSpec::new("mape", MetricScope::Validation, 0.08),
        )
        .unwrap();
    engine.drain();
    assert_eq!(*fired.lock().unwrap(), 1);
    table.add_row(vec![
        "4".into(),
        "rule engine automation".into(),
        "action rule fires on metric insert (built on tiers 1-3)".into(),
    ]);

    println!("{}", table.render());
    println!("paper shape: each tier unlocks with 'only an incremental additional effort',");
    println!("lower tiers usable without ever touching the tiers above ✓");
}
