//! E15 — observability: cross-wire trace stitching and instrumentation
//! overhead.
//!
//! Part 1 drives one logical client call through a `FlakyTransport` that
//! eats the first two send attempts, then reads the telemetry back: the
//! client span, all three per-attempt events, and the server handler span
//! must share ONE trace id, with the server span parented under the
//! client span — the trace context rode the wire envelope through every
//! retry. Runs on a manual clock, so the printed trace is deterministic.
//!
//! Part 2 runs a full-stack workload (durable WAL store, LRU blob cache,
//! RPC client/server, dependency propagation, rule engine) against one
//! telemetry bundle and proves every subsystem shows up non-zero in the
//! Prometheus-style exposition.
//!
//! Part 3 times an uninstrumented (`Telemetry::disabled()`) run of the
//! same storage + registry workload against the fully enabled bundle and
//! asserts the instrumentation overhead stays under 5%.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::{
    Gallery, InstanceSpec, ManualClock, MetricScope, MetricSpec, ModelSpec, SimulatedSleeper,
};
use gallery_rules::{ActionRegistry, CompiledRule, RuleEngine};
use gallery_service::{
    DirectTransport, FlakyTransport, GalleryClient, GalleryServer, Resilience, RetryPolicy,
};
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::{Dal, MetadataStore, SyncPolicy};
use gallery_telemetry::{kinds, parse_exposition, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Part 1: one retried RPC, one trace, fully stitched across the wire.
fn run_trace_stitching() {
    let clock = ManualClock::new(10_000);
    let telemetry = Telemetry::with_time_source(Arc::new(clock.clone()));

    let gallery = Arc::new(Gallery::in_memory_with_clock(Arc::new(clock.clone())));
    let server =
        Arc::new(GalleryServer::new(Arc::clone(&gallery)).with_telemetry(Arc::clone(&telemetry)));
    let plan = FaultPlan::none();
    plan.fail_first_n(sites::RPC_SEND, 2);
    let flaky = Arc::new(FlakyTransport::new(
        Arc::new(DirectTransport::new(server)),
        plan,
    ));
    let resilience = Arc::new(
        Resilience::new(
            RetryPolicy::standard(),
            Arc::new(clock.clone()),
            Arc::new(SimulatedSleeper::new(clock)),
            7,
        )
        .with_telemetry(Arc::clone(&telemetry)),
    );
    let client = GalleryClient::new(flaky)
        .with_resilience(resilience)
        .with_telemetry(Arc::clone(&telemetry));

    client
        .create_model("obs", "base-1", "model-1", "sre", "", "{}")
        .expect("third attempt lands");

    let traces = telemetry.tracer().trace_ids();
    assert_eq!(traces.len(), 1, "one logical call ⇒ one trace");
    let trace_id = traces[0];
    let spans = telemetry.tracer().spans_for_trace(trace_id);
    let client_span = spans
        .iter()
        .find(|s| s.name.starts_with("rpc.client/"))
        .expect("client span");
    let server_span = spans
        .iter()
        .find(|s| s.name.starts_with("rpc.server/"))
        .expect("server span");
    assert_eq!(
        server_span.parent_span_id,
        Some(client_span.span_id),
        "server span must hang off the client span via the wire envelope"
    );
    let attempts = telemetry.events().of_kind(kinds::RPC_ATTEMPT);
    assert_eq!(attempts.len(), 3, "two eaten sends + one success");
    assert!(attempts.iter().all(|e| e.trace_id == Some(trace_id)));
    assert_eq!(attempts[2].field("outcome"), Some("ok"));

    println!("trace {trace_id} — one logical createGalleryModel with 2 injected send faults:\n");
    let mut table = TextTable::new(&[
        "kind",
        "name/outcome",
        "span",
        "parent",
        "start ms",
        "end ms",
    ]);
    for s in &spans {
        table.add_row(vec![
            "span".into(),
            s.name.into(),
            s.span_id.to_string(),
            s.parent_span_id
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into()),
            s.start_ms.to_string(),
            s.end_ms.to_string(),
        ]);
    }
    for e in &attempts {
        table.add_row(vec![
            "event".into(),
            format!(
                "rpc.attempt #{} → {}",
                e.field("attempt").unwrap_or("?"),
                e.field("outcome").unwrap_or("?")
            ),
            "-".into(),
            client_span.span_id.to_string(),
            e.ts_ms.to_string(),
            "-".into(),
        ]);
    }
    println!("{}", table.render());
    println!("✓ client span, 3 attempt events, and the server span share trace {trace_id}\n");
}

/// Part 2: every layer of the stack lands non-zero samples in one registry.
fn run_metric_surface() {
    let telemetry = Telemetry::new();
    let dir = std::env::temp_dir().join(format!("gallery-e15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Durable WAL metadata store + LRU blob cache (64 bytes forces
    // evictions) + DAL, all recording into the same bundle.
    let meta = MetadataStore::durable(dir.join("wal.log"), SyncPolicy::Always)
        .expect("open wal")
        .with_telemetry(Arc::clone(&telemetry));
    let blobs = CachedBlobStore::new(Arc::new(LocalFsBlobStore::in_memory()), 64)
        .with_telemetry(Arc::clone(&telemetry));
    let dal =
        Arc::new(Dal::new(Arc::new(meta), Arc::new(blobs)).with_telemetry(Arc::clone(&telemetry)));
    let gallery = Arc::new(
        Gallery::open(dal, Arc::new(gallery_core::SystemClock))
            .expect("open gallery")
            .with_telemetry(Arc::clone(&telemetry)),
    );

    // Registry + dependency propagation.
    let up = gallery
        .create_model(ModelSpec::new("obs", "upstream"))
        .unwrap();
    let down = gallery
        .create_model(ModelSpec::new("obs", "downstream"))
        .unwrap();
    gallery.add_dependency(&down.id, &up.id).unwrap();
    let inst = gallery
        .upload_instance(&up.id, InstanceSpec::new(), Bytes::from(vec![7u8; 48]))
        .unwrap();
    for _ in 0..4 {
        gallery.fetch_instance_blob(&inst.id).unwrap(); // cache hits
    }
    // Second blob overflows the 64-byte cache → eviction.
    gallery
        .upload_instance(&down.id, InstanceSpec::new(), Bytes::from(vec![8u8; 48]))
        .unwrap();
    gallery.model_query(&[]).unwrap().to_instances().unwrap();

    // Rule engine on the same bundle.
    let (actions, _log) = ActionRegistry::with_defaults();
    let engine =
        RuleEngine::new_with_telemetry(Arc::clone(&gallery), actions, 1, Arc::clone(&telemetry));
    engine.register(
        CompiledRule::compile(&gallery_rules::rule::listing2_action_rule()).expect("compile rule"),
    );
    engine.attach();
    gallery
        .insert_metric(
            &inst.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.05),
        )
        .unwrap();
    engine.drain();

    // One RPC round-trip so the service families are populated too.
    let server =
        Arc::new(GalleryServer::new(Arc::clone(&gallery)).with_telemetry(Arc::clone(&telemetry)));
    let client = GalleryClient::new(Arc::new(DirectTransport::new(server)))
        .with_telemetry(Arc::clone(&telemetry));
    client.get_model(up.id.as_str()).unwrap();

    let text = telemetry.render_text();
    parse_exposition(&text).expect("exposition parses");

    let value_of = |needle: &str| -> u64 {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter(|l| l.starts_with(needle))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<f64>().ok())
            .sum::<f64>() as u64
    };
    let probes: &[(&str, &str)] = &[
        ("WAL", "gallery_wal_appends_total"),
        ("DAL", "gallery_dal_ops_total"),
        ("blob", "gallery_blob_ops_total"),
        ("cache hits", "gallery_cache_hits_total"),
        ("cache evictions", "gallery_cache_evictions_total"),
        ("registry ops", "gallery_registry_ops_total"),
        ("propagated", "gallery_registry_propagated_instances_total"),
        ("rule evals", "gallery_rules_evals_total"),
        ("RPC client", "gallery_rpc_client_calls_total"),
        ("RPC server", "gallery_rpc_server_requests_total"),
    ];
    let mut table = TextTable::new(&["subsystem", "metric family", "samples"]);
    for (label, family) in probes {
        let v = value_of(family);
        table.add_row(vec![label.to_string(), family.to_string(), v.to_string()]);
        assert!(v > 0, "{family} must be non-zero after the workload");
    }
    println!("{}", table.render());
    println!(
        "✓ all {} subsystem families non-zero in one {}-line exposition\n",
        probes.len(),
        text.lines().count()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// One storage + registry workload iteration against `telemetry`.
fn workload(telemetry: &Arc<Telemetry>) {
    let dal = Arc::new(
        Dal::new(
            Arc::new(MetadataStore::in_memory()),
            Arc::new(LocalFsBlobStore::in_memory()),
        )
        .with_telemetry(Arc::clone(telemetry)),
    );
    let gallery = Gallery::open(dal, Arc::new(gallery_core::SystemClock))
        .expect("open")
        .with_telemetry(Arc::clone(telemetry));
    let model = gallery
        .create_model(ModelSpec::new("bench", "base"))
        .unwrap();
    let mut last = None;
    for _ in 0..60 {
        last = Some(
            gallery
                .upload_instance(&model.id, InstanceSpec::new(), Bytes::from(vec![1u8; 4096]))
                .unwrap(),
        );
    }
    let inst = last.unwrap();
    for _ in 0..400 {
        gallery.fetch_instance_blob(&inst.id).unwrap();
        gallery.get_model(&model.id).unwrap();
    }
    for _ in 0..30 {
        gallery.model_query(&[]).unwrap().to_instances().unwrap();
    }
}

/// Part 3: best-of-N wall time, enabled vs disabled bundle. Repeats are
/// interleaved (disabled, enabled, disabled, ...) so frequency drift and
/// background noise hit both configurations evenly, and best-of-N throws
/// away the outliers noise creates.
fn run_overhead() {
    let repeats = 9;
    let timed = |enabled: bool| -> f64 {
        let telemetry = if enabled {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let t0 = Instant::now();
        workload(&telemetry);
        t0.elapsed().as_secs_f64() * 1e3
    };
    // Warm-up evens out first-touch allocator costs.
    workload(&Telemetry::disabled());
    workload(&Telemetry::new());
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..repeats {
        disabled_ms = disabled_ms.min(timed(false));
        enabled_ms = enabled_ms.min(timed(true));
    }
    let overhead = (enabled_ms - disabled_ms) / disabled_ms * 100.0;

    let mut table = TextTable::new(&["bundle", "best-of-9 ms"]);
    table.add_row(vec!["disabled".into(), format!("{disabled_ms:.2}")]);
    table.add_row(vec!["enabled".into(), format!("{enabled_ms:.2}")]);
    println!("{}", table.render());
    println!(
        "instrumentation overhead: {overhead:+.2}% (60 uploads + 800 reads + 30 queries per run)"
    );
    assert!(
        overhead < 5.0,
        "instrumentation must cost <5%, measured {overhead:.2}%"
    );
    println!("✓ overhead under the 5% budget\n");
}

fn main() {
    banner(
        "E15: observability — trace stitching, metric surface, overhead",
        "telemetry across the reproduction of §3.5/§4.1",
    );
    run_trace_stitching();
    run_metric_surface();
    run_overhead();
    println!("E15 ✓ all observability criteria hold");
}
