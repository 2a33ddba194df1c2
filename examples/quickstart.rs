//! Quickstart: the paper's Listings 3–5 as a runnable program.
//!
//! Creates a Gallery, registers a model, uploads a trained instance with
//! metadata (Listing 3), records a validation metric (Listing 4), and
//! searches for instances by project/model/metric constraints (Listing 5).
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use gallery::core::metadata::fields;
use gallery::prelude::*;

fn main() {
    let g = Gallery::in_memory();

    // Listing 3: create a model and upload a trained instance.
    // (The "SparkML pipeline" is any serialized bytes — Gallery is
    // model-neutral and never interprets the blob.)
    let model = g
        .create_model(
            ModelSpec::new("example-project", "supply_rejection")
                .name("random_forest")
                .owner("marketplace-forecasting")
                .description("per-city supply rejection classifier"),
        )
        .expect("create model");
    println!(
        "created model {} (base {})",
        model.id, model.base_version_id
    );

    let model_blob = Bytes::from_static(b"<serialized model bytes>");
    let instance = g
        .upload_instance(
            &model.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::MODEL_NAME, "random_forest")
                    .with(fields::CITY, "New York City")
                    .with(fields::MODEL_TYPE, "SparkML")
                    .with(fields::TRAINING_FRAMEWORK, "sparkml-2.4")
                    .with(fields::TRAINING_DATA, "hdfs://warehouse/trips/2026-06")
                    .with(fields::TRAINING_DATA_VERSION, "v42")
                    .with(
                        fields::TRAINING_CODE,
                        "git://models/supply_rejection@abc123",
                    )
                    .with(fields::FEATURES, "hour_of_week,weather,events")
                    .with(fields::HYPERPARAMETERS, "trees=100,depth=12"),
            ),
            model_blob.clone(),
        )
        .expect("upload instance");
    println!(
        "uploaded instance {} as version {}",
        instance.id, instance.display_version
    );

    // Listing 4: record a validation metric.
    g.insert_metric(
        &instance.id,
        MetricSpec::new("bias", MetricScope::Validation, 0.05),
    )
    .expect("insert metric");
    println!("recorded bias=0.05 (validation)");

    // Listing 5: search by project + model name + metric threshold.
    let found = g
        .model_query(&[
            Constraint::eq("projectName", "example-project"),
            Constraint::eq("modelName", "random_forest"),
            Constraint::eq("metricName", "bias"),
            Constraint::lt("metricValue", 0.25),
        ])
        .expect("model query")
        .to_instances()
        .expect("stored instances");
    println!("search matched {} instance(s)", found.len());
    assert_eq!(found.len(), 1);

    // Serving: fetch the opaque blob back.
    let blob = g.fetch_instance_blob(&found[0].id).expect("fetch blob");
    assert_eq!(blob, model_blob);
    println!("fetched {} blob bytes for serving", blob.len());

    // Model health: the instance carries full reproducibility metadata.
    let health = g.health_report(&instance.id).expect("health");
    println!(
        "health: reproducibility={:.0}%, missing fields: {:?}",
        100.0 * health.reproducibility_score,
        health.missing_fields
    );
    assert!(health.missing_fields.is_empty());
}
