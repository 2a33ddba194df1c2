//! Cross-crate integration: a forecasting fleet managed entirely through
//! the wire protocol — multiple stateless server replicas, multiple client
//! threads, one shared store. Exercises the full §4.1 API surface end to
//! end over encode/decode.

use bytes::Bytes;
use gallery_core::Gallery;
use gallery_forecast::{AnyForecaster, CityConfig, Forecaster, MeanOfLastK};
use gallery_rules::{ActionRegistry, CompiledRule, RuleEngine};
use gallery_service::{
    GalleryClient, GalleryServer, InProcCluster, WireConstraint, WireOp, WireValue,
};
use std::sync::Arc;

fn cluster(gallery: Arc<Gallery>, replicas: usize) -> InProcCluster {
    InProcCluster::start(move || GalleryServer::new(Arc::clone(&gallery)), replicas).unwrap()
}

#[test]
fn concurrent_clients_share_one_fleet() {
    let gallery = Arc::new(Gallery::in_memory());
    let cluster = cluster(Arc::clone(&gallery), 4);

    let mut handles = Vec::new();
    for t in 0..4 {
        let client = GalleryClient::new(cluster.connect());
        handles.push(std::thread::spawn(move || {
            let mut instance_ids = Vec::new();
            for i in 0..10 {
                let model = client
                    .create_model(
                        "fleet",
                        &format!("demand/city_{t}_{i}"),
                        "heuristic",
                        "fc",
                        "",
                        "{}",
                    )
                    .unwrap();
                let inst = client
                    .upload_model(
                        &model.id,
                        &format!(r#"{{"city":"city_{t}_{i}","model_name":"heuristic"}}"#),
                        Bytes::from(format!("weights {t}/{i}")),
                    )
                    .unwrap();
                client
                    .insert_metric(&inst.id, "mape", "validation", 0.05 + 0.01 * i as f64)
                    .unwrap();
                instance_ids.push(inst.id);
            }
            instance_ids
        }));
    }
    let all_ids: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(all_ids.len(), 40);

    // Any client sees all 40 through search.
    let client = GalleryClient::new(cluster.connect());
    let found = client
        .model_query(vec![
            WireConstraint::new("modelName", WireOp::Eq, WireValue::Str("heuristic".into())),
            WireConstraint::new("metricName", WireOp::Eq, WireValue::Str("mape".into())),
            WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(1.0)),
        ])
        .unwrap();
    assert_eq!(found.len(), 40);
    // tighter threshold prunes
    let good = client
        .model_query(vec![
            WireConstraint::new("metricName", WireOp::Eq, WireValue::Str("mape".into())),
            WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(0.08)),
        ])
        .unwrap();
    assert!(good.len() < 40 && !good.is_empty());
}

#[test]
fn real_model_blob_served_over_the_wire() {
    let gallery = Arc::new(Gallery::in_memory());
    let cluster = cluster(Arc::clone(&gallery), 2);
    let client = GalleryClient::new(cluster.connect());

    // Offline: train a real forecaster and upload its blob via the client.
    let city = CityConfig::new("wire_city", 5);
    let series = city.generate(city.samples_per_day() * 7, 0);
    let mut trained = AnyForecaster::MeanOfLastK(MeanOfLastK::new(5));
    trained.fit(&series).unwrap();
    let model = client
        .create_model("sim", "wire_demand", "heuristic", "sim-team", "", "{}")
        .unwrap();
    let inst = client
        .upload_model(&model.id, "{}", Bytes::from(trained.to_blob()))
        .unwrap();

    // Serving side: fetch, deserialize, predict — identical to local.
    let blob = client.fetch_blob(&inst.id).unwrap();
    let served = AnyForecaster::from_blob(&blob).unwrap();
    let p_local = trained.forecast_next(&series.values, series.len(), false);
    let p_wire = served.forecast_next(&series.values, series.len(), false);
    assert_eq!(p_local, p_wire);
}

#[test]
fn rule_engine_behind_the_service() {
    let gallery = Arc::new(Gallery::in_memory());
    let (actions, log) = ActionRegistry::with_defaults();
    let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
    let mut doc = gallery_rules::rule::listing2_action_rule();
    doc.rule.callback_actions = vec!["alert".into()];
    engine.register(CompiledRule::compile(&doc).unwrap());
    engine.attach();

    let engine_for_server = Arc::clone(&engine);
    let gallery_for_server = Arc::clone(&gallery);
    let cluster = InProcCluster::start(
        move || {
            GalleryServer::new(Arc::clone(&gallery_for_server))
                .with_engine(Arc::clone(&engine_for_server))
        },
        2,
    )
    .unwrap();
    let client = GalleryClient::new(cluster.connect());
    let model = client
        .create_model("forecasting", "svc_rf", "Random Forest", "fc", "", "{}")
        .unwrap();
    let inst = client
        .upload_model(
            &model.id,
            r#"{"model_name":"Random Forest","model_domain":"UberX"}"#,
            Bytes::from_static(b"rf"),
        )
        .unwrap();
    // metric via the wire triggers the rule engine via events
    client
        .insert_metric(&inst.id, "bias", "validation", 0.02)
        .unwrap();
    engine.drain();
    assert_eq!(log.len(), 1, "alert action fired once");

    // direct trigger via the service API also works
    client.trigger_rule(&doc.uuid, &inst.id).unwrap();
    engine.drain();
    assert_eq!(log.len(), 2);
}
