//! Registry-level telemetry: `gallery_registry_*` counters/histograms and
//! the `registry/upload_instance` → `registry/propagate` span parentage,
//! recorded into an isolated bundle via `Gallery::with_telemetry`.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_core::{Gallery, InstanceSpec, ModelSpec};
use gallery_store::Constraint;
use gallery_telemetry::Telemetry;
use std::sync::Arc;

#[test]
fn registry_ops_counted_and_upload_spans_parent_propagation() {
    let telemetry = Telemetry::new();
    let g = Gallery::in_memory().with_telemetry(Arc::clone(&telemetry));

    let a = g.create_model(ModelSpec::new("p", "model_a")).unwrap();
    let b = g.create_model(ModelSpec::new("p", "model_b")).unwrap();
    // b consumes a: a retrain of a must ripple into b.
    g.add_dependency(&b.id, &a.id).unwrap();
    g.upload_instance(&a.id, InstanceSpec::new(), Bytes::from_static(b"w"))
        .unwrap();

    let reg = telemetry.registry();
    assert_eq!(
        reg.counter("gallery_registry_ops_total", &[("op", "create_model")])
            .get(),
        2
    );
    assert_eq!(
        reg.counter("gallery_registry_ops_total", &[("op", "upload_instance")])
            .get(),
        1
    );
    // add_dependency bumps b directly (not via propagation); only the
    // upload's ripple into b counts as a propagated instance.
    assert_eq!(
        reg.counter("gallery_registry_propagated_instances_total", &[])
            .get(),
        1
    );
    assert_eq!(
        reg.duration_histogram(
            "gallery_registry_op_duration_ms",
            &[("op", "upload_instance")]
        )
        .count(),
        1
    );

    let spans = telemetry.tracer().finished_spans();
    let upload = spans
        .iter()
        .find(|s| s.name == "registry/upload_instance")
        .expect("upload span");
    assert!(upload
        .attrs
        .contains(&("model_id", a.id.as_str().to_owned().into())));
    let propagate = spans
        .iter()
        .find(|s| s.name == "registry/propagate" && s.parent_span_id.is_some())
        .expect("propagate child span");
    assert_eq!(propagate.parent_span_id, Some(upload.span_id));
    assert_eq!(propagate.trace_id, upload.trace_id);
    assert!(propagate.attrs.contains(&("bumped", "1".into())));
}

#[test]
fn model_query_is_timed_and_span_carries_result_count() {
    let telemetry = Telemetry::new();
    let g = Gallery::in_memory().with_telemetry(Arc::clone(&telemetry));
    let m = g.create_model(ModelSpec::new("proj", "demand")).unwrap();
    g.upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"w"))
        .unwrap();

    let found = g
        .model_query(&[Constraint::eq("projectName", "proj")])
        .unwrap();
    assert_eq!(found.len(), 1);

    let reg = telemetry.registry();
    assert_eq!(
        reg.counter("gallery_registry_ops_total", &[("op", "model_query")])
            .get(),
        1
    );
    assert_eq!(
        reg.duration_histogram("gallery_registry_op_duration_ms", &[("op", "model_query")])
            .count(),
        1
    );
    let spans = telemetry.tracer().finished_spans();
    let query = spans
        .iter()
        .find(|s| s.name == "registry/model_query")
        .expect("query span");
    assert!(query.attrs.contains(&("constraints", "1".into())));
    assert!(query.attrs.contains(&("results", "1".into())));
}
