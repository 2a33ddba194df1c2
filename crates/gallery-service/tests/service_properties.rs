//! Property tests for the service layer: DTO conversions and the
//! dispatch path never panic, and every successful write through the wire
//! is immediately readable through the wire.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_core::Gallery;
use gallery_service::messages::{decode_sharded, encode_sharded};
use gallery_service::telemetry::SpanContext;
use gallery_service::{
    GalleryServer, HealthDto, InstanceDto, Request, Response, WireConstraint, WireDiagnostic,
    WireOp, WireValue, WireWalFrame,
};
use proptest::prelude::*;
use std::sync::Arc;

fn server() -> GalleryServer {
    GalleryServer::new(Arc::new(Gallery::in_memory()))
}

/// What `dispatch` answers, decoded.
fn answer(s: &GalleryServer, request: Request) -> Response {
    Response::decode(s.dispatch(request).frame).unwrap()
}

fn wal_frame() -> WireWalFrame {
    WireWalFrame {
        seq: 7,
        op: Bytes::from_static(b"{}"),
    }
}

/// Valid request frames that carry a collection, each with the payload
/// offset of the collection's (one-byte) element count.
fn request_frames_with_counts() -> Vec<(Bytes, usize)> {
    let constraint = WireConstraint::new("city", WireOp::Eq, WireValue::Str("nyc".into()));
    let query = Request::ModelQuery {
        constraints: vec![constraint.clone(), constraint],
    };
    let ctx = SpanContext {
        trace_id: 9,
        span_id: 10,
    };
    vec![
        // [tag][count]..
        (query.encode(), 1),
        // [254][trace][span][0]["k" = len + byte][tag][count]..
        (query.encode_with(Some("k"), Some(ctx)), 7),
        (
            Request::ApplyWal {
                frames: vec![wal_frame()],
            }
            .encode(),
            1,
        ),
    ]
}

/// The same for responses.
fn response_frames_with_counts() -> Vec<(Bytes, usize)> {
    let instance = InstanceDto {
        id: "i-1".into(),
        model_id: "m-1".into(),
        base_version_id: "b".into(),
        display_version: "1.0".into(),
        blob_location: Some("mem://abc".into()),
        metadata_json: "{}".into(),
        created_at: 1234,
        trigger: "trained".into(),
        parent: None,
        deprecated: false,
    };
    let diagnostic = WireDiagnostic {
        origin: "WHEN".into(),
        source: "metrics.auc > 1.5".into(),
        code: "RL0303".into(),
        severity: 1,
        start: 0,
        end: 17,
        message: "always false".into(),
        help: None,
    };
    // Payload layout: [tag][count].. unless noted.
    vec![
        (
            Response::Instances(vec![instance.clone(), instance]).encode(),
            1,
        ),
        (Response::Ids(vec!["a".into(), "b".into()]).encode(), 1),
        (Response::Diagnostics(vec![diagnostic]).encode(), 1),
        // [tag][leader_seq][count]
        (
            Response::WalFrames {
                leader_seq: 99,
                frames: vec![wal_frame()],
            }
            .encode(),
            2,
        ),
        // [tag][f64][count]
        (
            Response::Health(HealthDto {
                reproducibility_score: 0.5,
                missing_fields: vec!["seed".into()],
                has_training: true,
                has_validation: false,
                has_production: true,
                skewed_metrics: vec![],
                score: 0.4,
            })
            .encode(),
            9,
        ),
    ]
}

/// Frame a payload with a length prefix that matches it, so the mutation
/// under test reaches the field decoders instead of the frame check.
fn reframe(payload: &[u8]) -> Bytes {
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(payload);
    Bytes::from(framed)
}

/// Every decoder entry point takes the frame without panicking; a
/// shard envelope carries it opaquely whatever it holds.
fn decode_everywhere(frame: &Bytes) {
    let _ = Request::decode_full(frame.clone());
    let _ = Response::decode(frame.clone());
    if let Ok(Some((_, inner))) = decode_sharded(frame.clone()) {
        let _ = Request::decode_full(inner);
    }
    assert_eq!(
        decode_sharded(encode_sharded(3, frame.clone())),
        Ok(Some((3, frame.clone())))
    );
}

proptest! {
    /// Dispatch never panics on arbitrary (decodable) requests against an
    /// empty store — every failure is a structured Err response.
    #[test]
    fn dispatch_never_panics(
        model_id in "[a-zA-Z0-9-]{0,40}",
        name in "[a-zA-Z0-9_ ]{0,20}",
        scope in "[a-z]{0,12}",
        value in any::<f64>(),
        stage in "[a-z]{0,12}",
    ) {
        let s = server();
        let requests = vec![
            Request::GetModel { model_id: model_id.clone() },
            Request::GetInstance { instance_id: model_id.clone() },
            Request::FetchBlob { instance_id: model_id.clone() },
            Request::InsertMetric {
                instance_id: model_id.clone(),
                name: name.clone(),
                scope,
                value,
                metadata_json: "{}".into(),
            },
            Request::SetStage { instance_id: model_id.clone(), stage },
            Request::DeployedInstance { model_id: model_id.clone(), environment: name.clone() },
            Request::UpstreamOf { model_id: model_id.clone() },
            Request::DeprecateModel { model_id },
        ];
        for request in requests {
            let frame = request.encode();
            let reply = s.handle_frame(frame);
            // must decode to *something*
            prop_assert!(Response::decode(reply).is_ok());
        }
    }

    /// Write-then-read coherence over the wire: any uploaded blob with any
    /// metric value round-trips and is findable by exact metric threshold.
    #[test]
    fn wire_write_read_coherence(
        blob in proptest::collection::vec(any::<u8>(), 0..256),
        metric in 0.0f64..100.0,
    ) {
        let s = server();
        let Response::ModelInfo(model) = answer(&s, Request::CreateModel {
            project: "p".into(),
            base_version_id: "b".into(),
            name: "m".into(),
            owner: "o".into(),
            description: "".into(),
            metadata_json: "{}".into(),
        }) else { panic!("create failed") };
        let Response::InstanceInfo(inst) = answer(&s, Request::UploadModel {
            model_id: model.id.clone(),
            metadata_json: r#"{"model_name":"m"}"#.into(),
            blob: Bytes::from(blob.clone()),
        }) else { panic!("upload failed") };
        let Response::Blob(back) = answer(&s, Request::FetchBlob {
            instance_id: inst.id.clone(),
        }) else { panic!("fetch failed") };
        prop_assert_eq!(&back[..], &blob[..]);

        let inserted = matches!(
            answer(&s, Request::InsertMetric {
                instance_id: inst.id.clone(),
                name: "mape".into(),
                scope: "validation".into(),
                value: metric,
                metadata_json: "{}".into(),
            }),
            Response::Ok
        );
        prop_assert!(inserted);
        let Response::Instances(found) = answer(&s, Request::ModelQuery {
            constraints: vec![
                WireConstraint::new("metricName", WireOp::Eq, WireValue::Str("mape".into())),
                WireConstraint::new("metricValue", WireOp::Le, WireValue::Float(metric)),
            ],
        }) else { panic!("query failed") };
        prop_assert_eq!(found.len(), 1);
        prop_assert_eq!(&found[0].id, &inst.id);
    }

    /// Hostile input (ROADMAP 4a): arbitrary bytes, and valid frames that
    /// are truncated, bit-flipped or have a collection count inflated to
    /// 2^62, decode to `Ok` or a `WireError` — never a panic. An inflated
    /// count must fail where the buffer runs out; reserving for it would
    /// overflow the allocator and panic.
    #[test]
    fn decoders_survive_hostile_frames(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        decode_everywhere(&Bytes::from(garbage.clone()));
        decode_everywhere(&reframe(&garbage));

        let requests = request_frames_with_counts();
        let responses = response_frames_with_counts();
        let sharded = encode_sharded(5, requests[1].0.clone());
        for (frame, _) in requests.iter().chain(&responses).chain([&(sharded, 0)]) {
            let payload = &frame[4..];
            decode_everywhere(&reframe(&payload[..cut.index(payload.len())]));
            let mut flipped = payload.to_vec();
            flipped[flip.index(payload.len())] ^= 1 << bit;
            decode_everywhere(&reframe(&flipped));
        }

        // Replace the one-byte count at `count_at` with another varint.
        let recount = |frame: &Bytes, count_at: usize, varint: &[u8]| {
            let payload = &frame[4..];
            let mut recounted = payload[..count_at].to_vec();
            recounted.extend_from_slice(varint);
            recounted.extend_from_slice(&payload[count_at + 1..]);
            let recounted = reframe(&recounted);
            decode_everywhere(&recounted);
            recounted
        };
        // uvarint(2^62): eight continuation bytes, then 0x40.
        let inflate = |frame: &Bytes, count_at: usize| {
            recount(frame, count_at, &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40])
        };
        // The same count spelt in ten bytes, the tenth with bits that do
        // not fit a u64: shifting them away used to make this a second
        // spelling of a valid frame.
        let overlong = |frame: &Bytes, count_at: usize| {
            let low = frame[4 + count_at] | 0x80;
            recount(frame, count_at, &[low, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7E])
        };
        for (frame, count_at) in &requests {
            prop_assert!(Request::decode_full(frame.clone()).is_ok());
            prop_assert!(Request::decode_full(inflate(frame, *count_at)).is_err());
            let err = Request::decode_full(overlong(frame, *count_at)).unwrap_err();
            prop_assert_eq!(err.message, "varint overflow");
        }
        for (frame, count_at) in &responses {
            prop_assert!(Response::decode(frame.clone()).is_ok());
            prop_assert!(Response::decode(inflate(frame, *count_at)).is_err());
            let err = Response::decode(overlong(frame, *count_at)).unwrap_err();
            prop_assert_eq!(err.message, "varint overflow");
        }
    }
}
