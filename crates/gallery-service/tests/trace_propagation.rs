//! Cross-wire trace stitching: a client span, its per-attempt events, and
//! the server handler span must all land in ONE trace even when the
//! transport eats attempts — the E15 acceptance scenario, pinned as a
//! test. Also pins span-timestamp determinism under a `ManualClock` and
//! the observability of breaker flips and idempotent replays.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_core::clock::{ManualClock, SimulatedSleeper};
use gallery_core::Gallery;
use gallery_service::telemetry::{kinds, parse_samples, Telemetry};
use gallery_service::{
    BreakerConfig, BreakerState, CircuitBreaker, ClusterConfig, DirectTransport, FlakyTransport,
    GalleryClient, GalleryServer, Resilience, RetryPolicy, SimCluster,
};
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::Query;
use std::sync::{Arc, Barrier};

/// Client + server sharing one isolated telemetry bundle, wired through a
/// flaky transport driven by `plan`, with simulated-time retries.
fn rig(telemetry: &Arc<Telemetry>, plan: FaultPlan) -> (GalleryClient, Arc<Gallery>) {
    let gallery = Arc::new(Gallery::in_memory());
    let server =
        Arc::new(GalleryServer::new(Arc::clone(&gallery)).with_telemetry(Arc::clone(telemetry)));
    let flaky = Arc::new(FlakyTransport::new(
        Arc::new(DirectTransport::new(server)),
        plan,
    ));
    let clock = ManualClock::new(0);
    let resilience = Arc::new(
        Resilience::new(
            RetryPolicy::standard(),
            Arc::new(clock.clone()),
            Arc::new(SimulatedSleeper::new(clock)),
            7,
        )
        .with_telemetry(Arc::clone(telemetry)),
    );
    let client = GalleryClient::new(flaky)
        .with_resilience(resilience)
        .with_telemetry(Arc::clone(telemetry));
    (client, gallery)
}

/// The headline criterion: two injected send-faults, one logical call ⇒
/// one trace holding the client span, three `rpc.attempt` events, and the
/// server handler span parented under the client span.
#[test]
fn retried_call_stitches_one_trace_across_the_wire() {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::none();
    plan.fail_first_n(sites::RPC_SEND, 2);
    let (client, _gallery) = rig(&telemetry, plan);

    client.create_model("p", "b", "m", "o", "", "{}").unwrap();

    let traces = telemetry.tracer().trace_ids();
    assert_eq!(traces.len(), 1, "everything belongs to one trace");
    let trace_id = traces[0];

    let spans = telemetry.tracer().spans_for_trace(trace_id);
    let client_span = spans
        .iter()
        .find(|s| s.name == "rpc.client/createGalleryModel")
        .expect("client span");
    let server_span = spans
        .iter()
        .find(|s| s.name == "rpc.server/createGalleryModel")
        .expect("server span");
    assert_eq!(server_span.parent_span_id, Some(client_span.span_id));
    assert_eq!(client_span.parent_span_id, None);

    let attempts = telemetry.events().of_kind(kinds::RPC_ATTEMPT);
    assert_eq!(attempts.len(), 3, "two faults + one success");
    assert!(attempts.iter().all(|e| e.trace_id == Some(trace_id)));
    assert_eq!(attempts[0].field("outcome"), Some("transport_error"));
    assert_eq!(attempts[1].field("outcome"), Some("transport_error"));
    assert_eq!(attempts[2].field("outcome"), Some("ok"));
    assert_eq!(attempts[2].field("attempt"), Some("3"));
    // Backoff before the retries is visible on the events.
    assert_eq!(attempts[0].field("delay_ms"), Some("0"));
    assert_ne!(attempts[1].field("delay_ms"), Some("0"));

    let reg = telemetry.registry();
    assert_eq!(
        reg.counter(
            "gallery_rpc_client_attempts_total",
            &[("method", "createGalleryModel")],
        )
        .get(),
        3
    );
    assert_eq!(
        reg.counter(
            "gallery_rpc_client_calls_total",
            &[("method", "createGalleryModel"), ("outcome", "ok")],
        )
        .get(),
        1
    );
    assert_eq!(
        reg.counter(
            "gallery_rpc_server_requests_total",
            &[("method", "createGalleryModel")],
        )
        .get(),
        1,
        "the server only ever saw the surviving attempt"
    );
    assert_eq!(client.resilience().unwrap().stats().attempts, 3);
}

/// A lost *response* (recv fault) forces a retry the server has already
/// applied; the idempotency replay must be visible as a counter and a
/// traced event, and the duplicate handler span still joins the one trace.
#[test]
fn lost_response_replay_is_observable() {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::none();
    plan.fail_first_n(sites::RPC_RECV, 1);
    let (client, gallery) = rig(&telemetry, plan);

    client.create_model("p", "b", "m", "o", "", "{}").unwrap();
    assert_eq!(
        gallery.find_models(&Query::all()).unwrap().len(),
        1,
        "applied exactly once despite the duplicate delivery"
    );

    let reg = telemetry.registry();
    assert_eq!(
        reg.counter(
            "gallery_rpc_idempotent_replays_total",
            &[("method", "createGalleryModel")],
        )
        .get(),
        1
    );
    let replays = telemetry.events().of_kind(kinds::IDEMPOTENT_REPLAY);
    assert_eq!(replays.len(), 1);
    assert_eq!(replays[0].field("method"), Some("createGalleryModel"));
    assert_eq!(telemetry.tracer().trace_ids().len(), 1);
    // Both server handler spans (first execution + replay) are children of
    // the same client span.
    let spans = telemetry.tracer().finished_spans();
    let servers: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "rpc.server/createGalleryModel")
        .collect();
    assert_eq!(servers.len(), 2);
    assert_eq!(servers[0].parent_span_id, servers[1].parent_span_id);
    assert!(servers
        .iter()
        .any(|s| s.attrs.contains(&("replay", "true".into()))));
}

/// Same workload, same manual clock ⇒ byte-identical span records. The
/// tracer takes its time from the injected `Clock`, so nothing
/// wall-clock leaks into the records.
#[test]
fn span_timestamps_deterministic_under_manual_clock() {
    let run = || {
        let clock = ManualClock::new(50_000);
        let telemetry = Telemetry::with_time_source(Arc::new(clock.clone()));
        let gallery = Arc::new(Gallery::in_memory_with_clock(Arc::new(clock)));
        let server = Arc::new(GalleryServer::new(gallery).with_telemetry(Arc::clone(&telemetry)));
        let client = GalleryClient::new(Arc::new(DirectTransport::new(server)))
            .with_telemetry(Arc::clone(&telemetry));
        let model = client.create_model("p", "b", "m", "o", "", "{}").unwrap();
        client.get_model(&model.id).unwrap();
        let _ = client.get_model("ghost");
        telemetry.tracer().finished_spans()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same clock, same IDs, same records");
    assert_eq!(a.len(), 6, "three calls, each a client + server span");
    assert!(a
        .iter()
        .all(|s| s.start_ms >= 50_000 && s.end_ms >= s.start_ms));
}

/// One mutation through a 3-node replicated cluster lands in ONE trace
/// covering the client, the router's route/ship spans, the leader's
/// handler, and a handler span per follower ack — and the whole record
/// set is deterministic under a `ManualClock`.
#[test]
fn cluster_mutation_stitches_one_trace_across_router_leader_and_followers() {
    let run = || {
        let clock = ManualClock::new(10_000);
        let telemetry = Telemetry::with_time_source(Arc::new(clock.clone()));
        let cluster = SimCluster::start_with(
            ClusterConfig::new(3)
                .with_shards(3)
                .with_replication(3)
                .with_follower_reads(true, 0),
            Arc::new(clock),
            telemetry,
        );
        let client =
            GalleryClient::new(cluster.transport()).with_telemetry(Arc::clone(cluster.telemetry()));
        client
            .create_model("p", "bv-trace", "m", "o", "", "{}")
            .unwrap();
        let tracer = cluster.telemetry().tracer();
        assert_eq!(tracer.trace_ids().len(), 1, "one logical call, one trace");
        tracer.finished_spans()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same clock, same IDs, same records");

    let root = a
        .iter()
        .find(|s| s.name == "rpc.client/createGalleryModel")
        .expect("client root span");
    assert_eq!(root.parent_span_id, None);
    assert!(a.iter().all(|s| s.trace_id == root.trace_id));
    // Every non-root span's parent is in the same capture: the tree is
    // connected, client → router → leader → followers.
    for s in &a {
        if let Some(parent) = s.parent_span_id {
            assert!(
                a.iter().any(|x| x.span_id == parent),
                "orphan span {} in {a:#?}",
                s.name
            );
        }
    }
    let names: Vec<&str> = a.iter().map(|s| s.name).collect();
    let count = |n: &str| names.iter().filter(|x| **x == n).count();
    assert_eq!(count("cluster/route"), 1, "{names:?}");
    assert_eq!(count("rpc.server/createGalleryModel"), 1, "{names:?}");
    assert_eq!(count("cluster/ship"), 1, "{names:?}");
    assert!(count("rpc.server/shipWal") >= 1, "{names:?}");
    assert_eq!(
        count("rpc.server/applyWal"),
        2,
        "3-way replication: one handler span per follower ack: {names:?}"
    );
    // Per-request timing segments ride as span attributes.
    let server = a
        .iter()
        .find(|s| s.name == "rpc.server/createGalleryModel")
        .unwrap();
    for key in ["decode_ms", "store_ms", "encode_ms"] {
        assert!(
            server.attrs.iter().any(|(k, _)| *k == key),
            "server span missing {key}: {:?}",
            server.attrs
        );
    }
    let route = a.iter().find(|s| s.name == "cluster/route").unwrap();
    assert!(
        route.attrs.iter().any(|(k, _)| *k == "ship_ms"),
        "route span missing ship_ms: {:?}",
        route.attrs
    );
}

/// The per-method series are resolved on a method's first call. When
/// that first call is made by many threads at once, each series must
/// still be registered exactly once and count every call.
#[test]
fn concurrent_first_calls_register_each_series_once_and_count_exactly() {
    const THREADS: usize = 8;
    const CALLS: usize = 25;
    let telemetry = Telemetry::new();
    let gallery = Arc::new(Gallery::in_memory());
    let server =
        Arc::new(GalleryServer::new(Arc::clone(&gallery)).with_telemetry(Arc::clone(&telemetry)));
    let client = GalleryClient::new(Arc::new(DirectTransport::new(server)))
        .with_telemetry(Arc::clone(&telemetry));
    let model = client.create_model("p", "b", "m", "o", "", "{}").unwrap();
    let instance = client
        .upload_model(&model.id, "{}", bytes::Bytes::from_static(b"w"))
        .unwrap();

    // Nobody has called getInstance or latestInstance yet.
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            // Clones share the handle table, as the threads of one
            // serving host do.
            let client = client.clone();
            let (barrier, model, instance) = (&barrier, &model, &instance);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..CALLS {
                    client.get_instance(&instance.id).unwrap();
                    client.latest_instance(&model.id).unwrap();
                }
            });
        }
    });

    let text = telemetry.render_text();
    let samples = parse_samples(&text).unwrap();
    let expected = (THREADS * CALLS) as f64;
    for method in ["getInstance", "latestInstance"] {
        for (family, outcome) in [
            ("gallery_rpc_client_calls_total", Some("ok")),
            ("gallery_rpc_client_attempts_total", None),
            ("gallery_rpc_server_requests_total", None),
            ("gallery_rpc_client_call_duration_ms_count", None),
            ("gallery_rpc_server_handle_duration_ms_count", None),
        ] {
            let series: Vec<_> = samples
                .iter()
                .filter(|s| s.name == family && s.label("method") == Some(method))
                .collect();
            assert_eq!(series.len(), 1, "{family}{{{method}}} appears once");
            assert_eq!(series[0].label("outcome"), outcome);
            assert_eq!(series[0].value, expected, "{family}{{{method}}}");
        }
    }
    // No call failed, so no error series was minted.
    assert!(!text.contains("outcome=\"error\""), "{text}");
}

/// What one plain read leaves behind: the span names come from the
/// message table, and the attribute values are the ones a reader of the
/// trace sees.
#[test]
fn get_instance_span_names_and_attr_values() {
    let clock = ManualClock::new(1_000);
    let telemetry = Telemetry::with_time_source(Arc::new(clock.clone()));
    let gallery = Arc::new(Gallery::in_memory_with_clock(Arc::new(clock)));
    let server = Arc::new(GalleryServer::new(gallery).with_telemetry(Arc::clone(&telemetry)));
    let client = GalleryClient::new(Arc::new(DirectTransport::new(server)))
        .with_telemetry(Arc::clone(&telemetry));
    let model = client.create_model("p", "b", "m", "o", "", "{}").unwrap();
    let instance = client
        .upload_model(&model.id, "{}", bytes::Bytes::from_static(b"w"))
        .unwrap();
    telemetry.tracer().clear();

    client.get_instance(&instance.id).unwrap();
    assert!(client.get_instance("ghost").is_err());

    let spans = telemetry.tracer().finished_spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "rpc.server/getInstance",
            "rpc.client/getInstance",
            "rpc.server/getInstance",
            "rpc.client/getInstance",
        ]
    );
    let (server_span, client_span) = (&spans[0], &spans[1]);
    assert_eq!(server_span.parent_span_id, Some(client_span.span_id));
    assert_eq!(
        client_span.attrs,
        [("method", "getInstance".into()), ("outcome", "ok".into())]
    );
    // A manual clock moves one tick per reading, so every segment of the
    // handler (two readings each) took 1 ms.
    assert_eq!(
        server_span.attrs,
        [
            ("method", "getInstance".into()),
            ("decode_ms", "1".into()),
            ("store_ms", "1".into()),
            ("encode_ms", "1".into()),
        ]
    );
    // A server verdict is an error outcome on the client span only.
    assert_eq!(
        spans[3].attrs,
        [
            ("method", "getInstance".into()),
            ("outcome", "error".into())
        ]
    );
    assert_eq!(spans[2].attrs, server_span.attrs);

    let attempts = telemetry.events().of_kind(kinds::RPC_ATTEMPT);
    let last_two = &attempts[attempts.len() - 2..];
    assert_eq!(
        last_two[0].fields,
        [
            ("method", "getInstance".into()),
            ("attempt", "1".into()),
            ("delay_ms", "0".into()),
            ("outcome", "ok".into()),
        ]
    );
    assert_eq!(last_two[1].field("outcome"), Some("remote_error"));
}

/// Breaker state flips surface as `breaker.transition` events and a
/// per-endpoint/state counter, with the full Open → HalfOpen → Closed
/// story in order.
#[test]
fn breaker_transitions_emit_events() {
    let telemetry = Telemetry::new();
    let clock = ManualClock::new(0);
    let breaker = CircuitBreaker::new(
        BreakerConfig {
            window: 8,
            min_calls: 4,
            failure_threshold: 0.5,
            open_ms: 1_000,
        },
        Arc::new(clock.clone()),
    )
    .with_telemetry(Arc::clone(&telemetry));

    for _ in 0..4 {
        breaker.admit("uploadModel");
        breaker.record("uploadModel", false);
    }
    clock.advance(1_500);
    assert!(breaker.admit("uploadModel"));
    breaker.record("uploadModel", true);
    assert_eq!(breaker.state("uploadModel"), BreakerState::Closed);

    let events = telemetry.events().of_kind(kinds::BREAKER_TRANSITION);
    let tos: Vec<&str> = events.iter().filter_map(|e| e.field("to")).collect();
    assert_eq!(tos, vec!["open", "half_open", "closed"]);
    assert!(events
        .iter()
        .all(|e| e.field("endpoint") == Some("uploadModel")));
    let reg = telemetry.registry();
    for state in ["open", "half_open", "closed"] {
        assert_eq!(
            reg.counter(
                "gallery_breaker_transitions_total",
                &[("endpoint", "uploadModel"), ("to", state)],
            )
            .get(),
            1
        );
    }
}
