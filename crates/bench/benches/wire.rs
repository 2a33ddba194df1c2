//! Wire protocol benches: encode/decode round-trips for the hot message
//! shapes (metric insert, model query, blob upload) and full
//! client→cluster→client calls.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gallery_core::Gallery;
use gallery_service::{
    GalleryClient, GalleryServer, InProcCluster, Request, WireConstraint, WireOp, WireValue,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_roundtrip");
    let requests: Vec<(&str, Request)> = vec![
        (
            "insert_metric",
            Request::InsertMetric {
                instance_id: "0e9c2b4a-aaaa-4bbb-8ccc-123456789abc".into(),
                name: "bias".into(),
                scope: "validation".into(),
                value: 0.05,
                metadata_json: "{}".into(),
            },
        ),
        (
            "model_query",
            Request::ModelQuery {
                constraints: vec![
                    WireConstraint::new("projectName", WireOp::Eq, WireValue::Str("p".into())),
                    WireConstraint::new("modelName", WireOp::Eq, WireValue::Str("rf".into())),
                    WireConstraint::new("metricName", WireOp::Eq, WireValue::Str("bias".into())),
                    WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(0.25)),
                ],
            },
        ),
        (
            "upload_64k_blob",
            Request::UploadModel {
                model_id: "model".into(),
                metadata_json: r#"{"city":"sf"}"#.into(),
                blob: Bytes::from(vec![0u8; 64 * 1024]),
            },
        ),
    ];
    for (name, request) in requests {
        group.bench_function(BenchmarkId::new("encode", name), |b| {
            b.iter(|| black_box(request.encode()))
        });
        let frame = request.encode();
        group.bench_function(BenchmarkId::new("decode", name), |b| {
            b.iter(|| black_box(Request::decode(frame.clone()).unwrap()))
        });
    }
    group.finish();
}

fn bench_full_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_call");
    group.sample_size(20);
    let gallery = Arc::new(Gallery::in_memory());
    let cluster = InProcCluster::start(
        {
            let gallery = Arc::clone(&gallery);
            move || GalleryServer::new(Arc::clone(&gallery))
        },
        2,
    )
    .unwrap();
    let client = GalleryClient::new(cluster.connect());
    let model = client
        .create_model("bench", "wire", "rf", "o", "", "{}")
        .unwrap();
    let inst = client
        .upload_model(&model.id, "{}", Bytes::from_static(b"weights"))
        .unwrap();

    group.bench_function("get_instance", |b| {
        b.iter(|| black_box(client.get_instance(&inst.id).unwrap()))
    });
    group.bench_function("fetch_blob", |b| {
        b.iter(|| black_box(client.fetch_blob(&inst.id).unwrap()))
    });
    group.bench_function("insert_metric", |b| {
        b.iter(|| {
            client
                .insert_metric(&inst.id, "mape", "production", 0.1)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encode_decode, bench_full_call);
criterion_main!(benches);
