//! Golden wire bytes: one fixed sample per `Request` and `Response`
//! variant plus the envelope forms, asserted against hex literals
//! captured from the codec as it stood before the table-driven rewrite of
//! `messages.rs`. A round-trip test cannot see a field-order or tag
//! change because encoder and decoder move together; this one can.
//!
//! The byte after the four-byte length prefix is the variant tag, which is
//! how the tests check that every tag is covered.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_core::schemas::tables;
use gallery_core::Gallery;
use gallery_service::messages::{decode_sharded, encode_sharded};
use gallery_service::telemetry::SpanContext;
use gallery_service::{
    ErrorCode, GalleryServer, HealthDto, InstanceDto, ModelDto, Request, Response, WireConstraint,
    WireDiagnostic, WireOp, WireValue, WireWalFrame,
};
use gallery_store::{Record, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Bytes {
    let bytes: Vec<u8> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect();
    Bytes::from(bytes)
}

fn s(v: &str) -> String {
    v.to_string()
}

fn instance() -> InstanceDto {
    InstanceDto {
        id: s("i-1"),
        model_id: s("m-1"),
        base_version_id: s("supply_rejection"),
        display_version: s("2.1"),
        blob_location: Some(s("mem://abc")),
        metadata_json: s(r#"{"city":"nyc"}"#),
        created_at: 1_600_000_000_123,
        trigger: s("trained"),
        parent: None,
        deprecated: false,
    }
}

fn child_instance() -> InstanceDto {
    InstanceDto {
        id: s("i-2"),
        blob_location: None,
        created_at: -7,
        trigger: s("retrained"),
        parent: Some(s("i-1")),
        deprecated: true,
        ..instance()
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::CreateModel {
                project: s("example-project"),
                base_version_id: s("supply_rejection"),
                name: s("Random Forest"),
                owner: s("fc"),
                description: s("café ☕"),
                metadata_json: s("{}"),
            },
            "40000000010f6578616d706c652d70726f6a65637410737570706c795f72656a656374696f6e0d52616e646f6d20466f7265737402666309636166c3a920e29895027b7d",
        ),
        (Request::GetModel { model_id: s("m-1") }, "0500000002036d2d31"),
        (
            Request::UploadModel {
                model_id: s("m-1"),
                metadata_json: s(r#"{"city":"New York City"}"#),
                blob: Bytes::from((0u8..=199).collect::<Vec<u8>>()),
            },
            "e800000003036d2d31187b2263697479223a224e657720596f726b2043697479227dc801000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7",
        ),
        (
            Request::GetInstance {
                instance_id: s("i-1"),
            },
            "050000000403692d31",
        ),
        (
            Request::FetchBlob {
                instance_id: s("i-1"),
            },
            "050000000503692d31",
        ),
        (
            Request::InsertMetric {
                instance_id: s("i-1"),
                name: s("bias"),
                scope: s("validation"),
                value: -0.05,
                metadata_json: s("{}"),
            },
            "200000000603692d3104626961730a76616c69646174696f6e9a9999999999a9bf027b7d",
        ),
        (
            Request::ModelQuery {
                constraints: vec![
                    WireConstraint::new("projectName", WireOp::Eq, WireValue::Str(s("p"))),
                    WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(0.25)),
                    WireConstraint::new("count", WireOp::Ge, WireValue::Int(-300)),
                    WireConstraint::new("flag", WireOp::Ne, WireValue::Bool(true)),
                    WireConstraint::new("x", WireOp::Le, WireValue::Null),
                    WireConstraint::new("y", WireOp::Gt, WireValue::Int(i64::MAX)),
                    WireConstraint::new("name", WireOp::Contains, WireValue::Str(s("rf"))),
                    WireConstraint::new("name", WireOp::StartsWith, WireValue::Str(s(""))),
                ],
            },
            "5e00000007080b70726f6a6563744e616d65000401700b6d657472696356616c75650203000000000000d03f05636f756e740502d70404666c61670101010178030001790402feffffffffffffffff01046e616d650604027266046e616d65070400",
        ),
        (
            Request::InstancesOfBaseVersion {
                base_version_id: s("b"),
            },
            "03000000080162",
        ),
        (Request::LatestInstance { model_id: s("m-1") }, "0500000009036d2d31"),
        (
            Request::Deploy {
                model_id: s("m-1"),
                instance_id: s("i-1"),
                environment: s("production"),
            },
            "140000000a036d2d3103692d310a70726f64756374696f6e",
        ),
        (
            Request::DeployedInstance {
                model_id: s("m-1"),
                environment: s("staging"),
            },
            "0d0000000b036d2d310773746167696e67",
        ),
        (
            Request::AddDependency {
                model_id: s("m-1"),
                upstream_id: s("m-0"),
            },
            "090000000c036d2d31036d2d30",
        ),
        (
            Request::RemoveDependency {
                model_id: s("m-1"),
                upstream_id: s("m-0"),
            },
            "090000000d036d2d31036d2d30",
        ),
        (Request::UpstreamOf { model_id: s("m-1") }, "050000000e036d2d31"),
        (Request::DownstreamOf { model_id: s("m-1") }, "050000000f036d2d31"),
        (Request::DeprecateModel { model_id: s("m-1") }, "0500000010036d2d31"),
        (
            Request::DeprecateInstance {
                instance_id: s("i-1"),
            },
            "050000001103692d31",
        ),
        (
            Request::SetStage {
                instance_id: s("i-1"),
                stage: s("deployed"),
            },
            "0e0000001203692d31086465706c6f796564",
        ),
        (
            Request::StageOf {
                instance_id: s("i-1"),
            },
            "050000001303692d31",
        ),
        (Request::SelectChampion { rule_id: s("r-1") }, "050000001403722d31"),
        (
            Request::TriggerRule {
                rule_id: s("r-1"),
                instance_id: s("i-1"),
            },
            "090000001503722d3103692d31",
        ),
        (
            Request::HealthReport {
                instance_id: s("i-1"),
            },
            "050000001603692d31",
        ),
        (
            Request::Probe {
                section: s("alerts"),
            },
            "080000001706616c65727473",
        ),
        (
            Request::Validate {
                kind: s("condition"),
                content: s("gallery_monitor_drift_score > 3.0"),
            },
            "2d0000001809636f6e646974696f6e2167616c6c6572795f6d6f6e69746f725f64726966745f73636f7265203e20332e30",
        ),
        (
            Request::ShipWal {
                from_seq: 42,
                max: u64::MAX,
            },
            "0c000000192affffffffffffffffff01",
        ),
        (
            Request::ApplyWal {
                frames: vec![
                    WireWalFrame {
                        seq: 43,
                        op: Bytes::from_static(br#"{"Insert":{}}"#),
                    },
                    WireWalFrame {
                        seq: 16_384,
                        op: Bytes::from_static(b"{}"),
                    },
                ],
            },
            "170000001a022b0d7b22496e73657274223a7b7d7d808001027b7d",
        ),
        (Request::ReplStatus, "010000001b"),
        (Request::SetShardRole { role: s("leader") }, "080000001c066c6561646572"),
    ]
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok, "0100000000"),
        (
            Response::Err {
                code: ErrorCode::NotFound,
                message: s("no such model"),
            },
            "1000000001010d6e6f2073756368206d6f64656c",
        ),
        (
            Response::Err {
                code: ErrorCode::WrongShard,
                message: s("shard 3 moved"),
            },
            "1000000001060d73686172642033206d6f766564",
        ),
        (
            Response::ModelInfo(ModelDto {
                id: s("m-1"),
                base_version_id: s("demand"),
                project: s("p"),
                name: s("lr"),
                owner: s("o"),
                description: s("d"),
                metadata_json: s("{}"),
                created_at: -5,
                prev: Some(s("m-0")),
                deprecated: true,
            }),
            "1f00000002036d2d310664656d616e640170026c72016f0164027b7d0901036d2d3001",
        ),
        (Response::InstanceInfo(Box::new(instance())), "480000000303692d31036d2d3110737570706c795f72656a656374696f6e03322e3101096d656d3a2f2f6162630e7b2263697479223a226e7963227df681f4f6905d07747261696e65640000"),
        (Response::MaybeInstance(None), "020000000400"),
        (
            Response::MaybeInstance(Some(Box::new(child_instance()))),
            "40000000040103692d32036d2d3110737570706c795f72656a656374696f6e03322e31000e7b2263697479223a226e7963227d0d097265747261696e65640103692d3101",
        ),
        (
            Response::Instances(vec![instance(), child_instance()]),
            "87000000050203692d31036d2d3110737570706c795f72656a656374696f6e03322e3101096d656d3a2f2f6162630e7b2263697479223a226e7963227df681f4f6905d07747261696e6564000003692d32036d2d3110737570706c795f72656a656374696f6e03322e31000e7b2263697479223a226e7963227d0d097265747261696e65640103692d3101",
        ),
        (Response::Instances(vec![]), "020000000500"),
        (Response::Blob(Bytes::from_static(b"weights\x00\xff")), "0b00000006097765696768747300ff"),
        (Response::MaybeId(Some(s("i-1"))), "06000000070103692d31"),
        (Response::MaybeId(None), "020000000700"),
        (Response::Ids(vec![s("a"), s(""), s("ccc")]), "09000000080301610003636363"),
        (Response::Stage(s("monitoring")), "0c000000090a6d6f6e69746f72696e67"),
        (
            Response::Health(HealthDto {
                reproducibility_score: 0.5,
                missing_fields: vec![s("training_data"), s("seed")],
                has_training: true,
                has_validation: false,
                has_production: true,
                skewed_metrics: vec![s("mape")],
                score: 0.42,
            }),
            "2e0000000a000000000000e03f020d747261696e696e675f64617461047365656401000101046d617065e17a14ae47e1da3f",
        ),
        (
            Response::Text(s("# TYPE gallery_alerts_firing gauge\n")),
            "250000000b232320545950452067616c6c6572795f616c657274735f666972696e672067617567650a",
        ),
        (
            Response::Diagnostics(vec![
                WireDiagnostic {
                    origin: s("WHEN"),
                    source: s("metrics.auc > 1.5"),
                    code: s("RL0303"),
                    severity: 1,
                    start: 0,
                    end: 17,
                    message: s("comparison is always false"),
                    help: Some(s("no value can satisfy this")),
                },
                WireDiagnostic {
                    origin: s("GIVEN"),
                    source: s("custom == 1"),
                    code: s("RL0101"),
                    severity: 0,
                    start: 200,
                    end: u32::MAX,
                    message: s("unknown identifier"),
                    help: None,
                },
            ]),
            "8e0000000c02045748454e116d6574726963732e617563203e20312e3506524c303330330100111a636f6d70617269736f6e20697320616c776179732066616c736501196e6f2076616c75652063616e2073617469736679207468697305474956454e0b637573746f6d203d3d203106524c3031303100c801ffffffff0f12756e6b6e6f776e206964656e74696669657200",
        ),
        (
            Response::WalFrames {
                leader_seq: 99,
                frames: vec![WireWalFrame {
                    seq: 7,
                    op: Bytes::from_static(b"{}"),
                }],
            },
            "070000000d630107027b7d",
        ),
        (
            Response::ReplInfo {
                applied_seq: 300,
                role: s("follower"),
            },
            "0c0000000eac0208666f6c6c6f776572",
        ),
    ]
}

#[test]
fn every_request_variant_has_golden_bytes() {
    let mut tags = BTreeSet::new();
    for (request, golden) in requests() {
        let frame = request.encode();
        assert_eq!(hex(&frame), golden, "{}", request.method_name());
        assert_eq!(Request::decode(unhex(golden)).unwrap(), request);
        tags.insert(frame[4]);
    }
    assert_eq!(tags, (1..=28).collect::<BTreeSet<u8>>());
}

#[test]
fn every_response_variant_has_golden_bytes() {
    let mut tags = BTreeSet::new();
    for (response, golden) in responses() {
        let frame = response.encode();
        assert_eq!(hex(&frame), golden, "{response:?}");
        assert_eq!(Response::decode(unhex(golden)).unwrap(), response);
        tags.insert(frame[4]);
    }
    assert_eq!(tags, (0..=14).collect::<BTreeSet<u8>>());
}

#[test]
fn envelopes_have_golden_bytes() {
    let request = Request::GetModel { model_id: s("m-1") };
    let ctx = SpanContext {
        trace_id: 77,
        span_id: 1_000_000,
    };

    let keyed = request.encode_keyed("client-7-op-42");
    assert_eq!(
        hex(&keyed),
        "15000000000e636c69656e742d372d6f702d343202036d2d31"
    );

    let traced = request.encode_with(None, Some(ctx));
    assert_eq!(hex(&traced), "0a000000fe4dc0843d02036d2d31");

    let signed = request.encode_with(Some("client-7-op-42"), Some(ctx));
    assert_eq!(
        hex(&signed),
        "1a000000fe4dc0843d000e636c69656e742d372d6f702d343202036d2d31"
    );
    let decoded = Request::decode_full(signed.clone()).unwrap();
    assert_eq!(decoded.trace, Some(ctx));
    assert_eq!(decoded.key.as_deref(), Some("client-7-op-42"));
    assert_eq!(decoded.request, request);

    let sharded = encode_sharded(300, signed.clone());
    assert_eq!(
        hex(&sharded),
        "22000000fdac021e1a000000fe4dc0843d000e636c69656e742d372d6f702d343202036d2d31"
    );
    assert_eq!(decode_sharded(sharded).unwrap(), Some((300, signed)));
}

/// The server writes instance lists from the stored rows, not through
/// `InstanceDto`: a row holding `instance()`'s values frames to what
/// `Response::Instances(vec![instance()])` encodes to.
#[test]
fn a_stored_instance_row_frames_to_golden_bytes() {
    let golden = "490000000501\
        03692d31036d2d3110737570706c795f72656a656374696f6e03322e3101096d656d3a2f2f6162630e7b\
        2263697479223a226e7963227df681f4f6905d07747261696e65640000";
    assert_eq!(hex(&Response::Instances(vec![instance()]).encode()), golden);

    let gallery = Gallery::in_memory();
    let i = instance();
    let row = Record::new()
        .set("id", i.id)
        .set("model_id", i.model_id)
        .set("base_version_id", i.base_version_id)
        .set("display_version", i.display_version)
        .set("blob_location", i.blob_location.unwrap())
        .set("metadata", i.metadata_json)
        .set("created", Value::Timestamp(i.created_at))
        .set("trigger", i.trigger);
    gallery.dal().put(tables::INSTANCES, row).unwrap();
    let server = GalleryServer::new(Arc::new(gallery));
    let request = Request::InstancesOfBaseVersion {
        base_version_id: s("supply_rejection"),
    };
    assert_eq!(hex(&server.handle_frame(request.encode())), golden);
}
