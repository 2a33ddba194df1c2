//! E20 — open-loop cluster load: sustained throughput and tail latency
//! under a target arrival rate, plus the flight-recorder acceptance
//! scenario (docs/observability.md, "Cluster tracing & federation").
//!
//! Open-loop means arrivals are scheduled by a clock, not by completions:
//! request `i` is due at `start + i/target_rps` and is sent then whether
//! or not earlier requests have returned, so queueing delay shows up in
//! the measured latency instead of silently throttling the offered load —
//! the methodology difference that keeps p99 honest near saturation
//! (latency is measured from the *scheduled* arrival, not the send).
//!
//! Part 2 replays the deterministic slow-request scenario: one request
//! out of ten is delayed past the flight-recorder threshold on a manual
//! clock, and the recorder must hold exactly that request with a complete
//! client → router → leader → follower span tree.
//!
//! Emits `BENCH_exp_clusterload.json` (uploaded as a CI artifact)
//! alongside the human-readable tables.

use gallery_bench::{arr, banner, obj, write_bench_json, TextTable};
use gallery_core::ManualClock;
use gallery_service::telemetry::{
    parse_exposition, parse_samples, render_tree, FlightRecorder, Telemetry,
};
use gallery_service::{ClusterConfig, GalleryClient, SimCluster, Transport, TransportError};
use serde::Content;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const SHARDS: u32 = 8;
const REPLICATION: usize = 2;
const WORKERS: usize = 8;

const ENDPOINTS: [&str; 3] = ["createGalleryModel", "getModel", "modelQuery"];

/// Latency distribution of one endpoint at one load level.
struct EndpointStats {
    endpoint: &'static str,
    latencies_ms: Vec<f64>,
    errors: usize,
}

impl EndpointStats {
    fn percentile(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_ms.len() as f64 - 1.0) * q).round() as usize;
        self.latencies_ms[idx]
    }
}

struct LevelReport {
    target_rps: u64,
    offered: usize,
    completed: usize,
    errors: usize,
    duration_s: f64,
    endpoints: Vec<EndpointStats>,
}

impl LevelReport {
    fn achieved_rps(&self) -> f64 {
        self.completed as f64 / self.duration_s.max(1e-9)
    }
}

/// Drive one open-loop level: `target_rps` for `duration`, with the 1:8:1
/// create/get/query mix decided by arrival index. Worker `w` owns the
/// arrivals `i ≡ w (mod WORKERS)` so the schedule needs no shared queue.
fn run_level(
    cluster: &Arc<SimCluster>,
    ids: &Arc<Vec<String>>,
    target_rps: u64,
    duration: Duration,
) -> LevelReport {
    let total = (target_rps as f64 * duration.as_secs_f64()) as usize;
    // Small headroom so every worker thread exists before arrival 0 is due.
    let start = Instant::now() + Duration::from_millis(50);
    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let cluster = Arc::clone(cluster);
        let ids = Arc::clone(ids);
        handles.push(std::thread::spawn(move || {
            let client = GalleryClient::new(cluster.transport());
            let mut samples: Vec<(usize, f64, bool)> = Vec::new();
            let mut i = w;
            while i < total {
                let due = start + Duration::from_secs_f64(i as f64 / target_rps as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let kind = match i % 10 {
                    0 => 0, // create
                    9 => 2, // scatter-gather modelQuery
                    _ => 1, // point read
                };
                let ok = match kind {
                    0 => client
                        .create_model(
                            "load",
                            &format!("bv-{target_rps}-{i}"),
                            "m",
                            "bench",
                            "",
                            "{}",
                        )
                        .is_ok(),
                    1 => client.get_model(&ids[i % ids.len()]).is_ok(),
                    _ => client.model_query(Vec::new()).is_ok(),
                };
                // Open-loop latency: measured from when the request was
                // *scheduled*, so time spent waiting behind slow earlier
                // requests counts.
                let latency_ms = (Instant::now() - due).as_secs_f64() * 1e3;
                samples.push((kind, latency_ms, ok));
                i += WORKERS;
            }
            samples
        }));
    }
    let all: Vec<(usize, f64, bool)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap_or_default())
        .collect();
    let duration_s = (Instant::now() - start).as_secs_f64();

    let mut endpoints: Vec<EndpointStats> = ENDPOINTS
        .iter()
        .map(|e| EndpointStats {
            endpoint: e,
            latencies_ms: Vec::new(),
            errors: 0,
        })
        .collect();
    let mut errors = 0usize;
    for (kind, latency_ms, ok) in &all {
        if *ok {
            endpoints[*kind].latencies_ms.push(*latency_ms);
        } else {
            endpoints[*kind].errors += 1;
            errors += 1;
        }
    }
    for e in &mut endpoints {
        e.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    }
    LevelReport {
        target_rps,
        offered: total,
        completed: all.len() - errors,
        errors,
        duration_s,
        endpoints,
    }
}

/// A transport decorator that advances a manual clock once, on the
/// `at`-th frame it forwards: the one injected slow request of part 2.
struct SlowOnce {
    inner: Arc<dyn Transport>,
    clock: ManualClock,
    at: usize,
    advance_ms: i64,
    seen: AtomicUsize,
}

impl Transport for SlowOnce {
    fn call(&self, frame: bytes::Bytes) -> Result<bytes::Bytes, TransportError> {
        if self.seen.fetch_add(1, Ordering::SeqCst) == self.at {
            self.clock.advance(self.advance_ms);
        }
        self.inner.call(frame)
    }
}

/// Part 2: ten writes through a 3-node replication-3 cluster on a manual
/// clock; request 7 is delayed past the threshold. Returns (complete,
/// captures, span names of the capture, rendered tree).
fn flight_scenario() -> (bool, usize, Vec<String>, String) {
    // Threshold far above manual-clock tick noise (every clock reading
    // advances ≥1ms); the injected advance is far above the threshold.
    const THRESHOLD_MS: i64 = 5_000;
    const ADVANCE_MS: i64 = 10_000;
    let clock = ManualClock::new(10_000);
    let telemetry = Telemetry::with_time_source(Arc::new(clock.clone()));
    let cluster = SimCluster::start_with(
        ClusterConfig::new(3)
            .with_shards(3)
            .with_replication(3)
            .with_follower_reads(true, 0),
        Arc::new(clock.clone()),
        Arc::clone(&telemetry),
    );
    let recorder = Arc::new(FlightRecorder::new(THRESHOLD_MS));
    telemetry
        .tracer()
        .attach_flight_recorder(Arc::clone(&recorder));
    let slow = Arc::new(SlowOnce {
        inner: cluster.transport(),
        clock: clock.clone(),
        at: 7,
        advance_ms: ADVANCE_MS,
        seen: AtomicUsize::new(0),
    });
    let client = GalleryClient::new(slow).with_telemetry(Arc::clone(&telemetry));
    for i in 0..10 {
        if client
            .create_model("flight", &format!("bv-{i}"), "m", "bench", "", "{}")
            .is_err()
        {
            return (false, 0, Vec::new(), String::new());
        }
    }
    let captures = recorder.captures();
    let Some(capture) = captures.first() else {
        return (false, 0, Vec::new(), String::new());
    };
    let names: Vec<String> = capture.spans.iter().map(|s| s.name.to_owned()).collect();
    let count = |n: &str| names.iter().filter(|name| name.as_str() == n).count();
    // The complete client → router → leader → follower tree: the client
    // root, the router's route+ship spans, the leader's handler and
    // shipWal spans, and one applyWal server span per follower ack.
    let complete = captures.len() == 1
        && capture.duration_ms >= THRESHOLD_MS
        && capture.root_name == "rpc.client/createGalleryModel"
        && count("cluster/route") == 1
        && count("rpc.server/createGalleryModel") == 1
        && count("cluster/ship") == 1
        && count("rpc.server/shipWal") >= 1
        && count("rpc.server/applyWal") == 2; // 3-way replication: 2 follower acks
    (complete, captures.len(), names, render_tree(&capture.spans))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E20: open-loop cluster load — sustained throughput, tail latency, flight recorder",
        "§4.1 serving scale; docs/observability.md (cluster tracing & federation)",
    );

    // Part 1 — open-loop load levels against a threaded cluster.
    let (levels, secs, preload): (&[u64], f64, usize) = if smoke {
        (&[300, 600], 2.0, 100)
    } else {
        (&[500, 1_000, 2_000, 4_000], 6.0, 400)
    };
    let cluster = Arc::new(SimCluster::start(
        ClusterConfig::new(NODES)
            .with_shards(SHARDS)
            .with_replication(REPLICATION)
            .threaded(),
    ));
    let setup = GalleryClient::new(cluster.transport());
    let mut ids = Vec::with_capacity(preload);
    for i in 0..preload {
        match setup.create_model("seed", &format!("bv-seed-{i}"), "m", "bench", "", "{}") {
            Ok(m) => ids.push(m.id),
            Err(e) => {
                eprintln!("FAIL: preload write {i} rejected: {e}");
                std::process::exit(1);
            }
        }
    }
    let ids = Arc::new(ids);

    let mut table = TextTable::new(&[
        "target_rps",
        "offered",
        "achieved_rps",
        "errors",
        "endpoint",
        "n",
        "p50_ms",
        "p95_ms",
        "p99_ms",
    ]);
    let mut level_rows = Vec::new();
    let mut total_errors = 0usize;
    for &target in levels {
        let report = run_level(&cluster, &ids, target, Duration::from_secs_f64(secs));
        total_errors += report.errors;
        for e in &report.endpoints {
            table.add_row(vec![
                report.target_rps.to_string(),
                report.offered.to_string(),
                format!("{:.0}", report.achieved_rps()),
                report.errors.to_string(),
                e.endpoint.to_string(),
                e.latencies_ms.len().to_string(),
                format!("{:.3}", e.percentile(0.50)),
                format!("{:.3}", e.percentile(0.95)),
                format!("{:.3}", e.percentile(0.99)),
            ]);
        }
        level_rows.push(obj(vec![
            ("target_rps", Content::U64(report.target_rps)),
            ("offered", Content::U64(report.offered as u64)),
            ("completed", Content::U64(report.completed as u64)),
            ("errors", Content::U64(report.errors as u64)),
            ("duration_s", Content::F64(report.duration_s)),
            ("achieved_rps", Content::F64(report.achieved_rps())),
            (
                "endpoints",
                arr(report
                    .endpoints
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("endpoint", Content::Str(e.endpoint.to_string())),
                            ("count", Content::U64(e.latencies_ms.len() as u64)),
                            ("errors", Content::U64(e.errors as u64)),
                            ("p50_ms", Content::F64(e.percentile(0.50))),
                            ("p95_ms", Content::F64(e.percentile(0.95))),
                            ("p99_ms", Content::F64(e.percentile(0.99))),
                            ("max_ms", Content::F64(e.percentile(1.0))),
                        ])
                    })
                    .collect()),
            ),
        ]));
    }
    println!(
        "-- part 1: open-loop load, {NODES} nodes / {SHARDS} shards / replication {REPLICATION}, {WORKERS} workers, {secs:.0}s per level"
    );
    println!("{}", table.render());
    println!("   latency measured from each request's *scheduled* arrival (queueing included)");
    println!();

    // Federated exposition under load: every live node visible by label.
    let (fed_families, fed_samples, fed_nodes) = match setup.probe("cluster") {
        Ok(text) => {
            let summary = match parse_exposition(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("FAIL: federated exposition does not lint: {e}");
                    std::process::exit(1);
                }
            };
            let samples = parse_samples(&text).unwrap_or_default();
            let mut nodes: Vec<String> = samples
                .iter()
                .filter_map(|s| s.label("node").map(str::to_string))
                .collect();
            nodes.sort();
            nodes.dedup();
            (summary.families, summary.samples, nodes)
        }
        Err(e) => {
            eprintln!("FAIL: cluster probe failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "-- federation: {fed_families} families / {fed_samples} samples across node labels {fed_nodes:?}"
    );
    println!();

    // Part 2 — deterministic flight-recorder scenario.
    let (flight_complete, flight_captures, flight_spans, tree) = flight_scenario();
    println!("-- part 2: flight recorder (manual clock, 1 of 10 requests delayed past threshold)");
    println!("   captures: {flight_captures} (want exactly 1)");
    print!("{tree}");
    println!();

    let results = obj(vec![
        ("smoke", Content::Bool(smoke)),
        ("nodes", Content::U64(NODES as u64)),
        ("shards", Content::U64(SHARDS as u64)),
        ("replication", Content::U64(REPLICATION as u64)),
        ("workers", Content::U64(WORKERS as u64)),
        ("levels", arr(level_rows)),
        (
            "federation",
            obj(vec![
                ("families", Content::U64(fed_families as u64)),
                ("samples", Content::U64(fed_samples as u64)),
                (
                    "node_labels",
                    arr(fed_nodes.iter().map(|n| Content::Str(n.clone())).collect()),
                ),
            ]),
        ),
        (
            "flight",
            obj(vec![
                ("captures", Content::U64(flight_captures as u64)),
                ("complete", Content::Bool(flight_complete)),
                (
                    "spans",
                    arr(flight_spans
                        .iter()
                        .map(|n| Content::Str(n.clone()))
                        .collect()),
                ),
            ]),
        ),
    ]);
    match write_bench_json("E20", "exp_clusterload", results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_exp_clusterload.json: {e}");
            std::process::exit(1);
        }
    }

    if total_errors > 0 {
        eprintln!("FAIL: {total_errors} requests errored under open-loop load");
        std::process::exit(1);
    }
    if !flight_complete {
        eprintln!(
            "FAIL: flight recorder did not capture a single complete span tree (spans: {flight_spans:?})"
        );
        std::process::exit(1);
    }
    println!(
        "all levels error-free; slow request captured with a complete client→router→leader→follower tree"
    );
}
