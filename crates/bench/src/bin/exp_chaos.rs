//! E14 — chaos sweep over the resilience layer.
//!
//! The paper's Gallery service must stay available while the network
//! under it misbehaves (§4.1 stateless replicas, §3.5 failure handling).
//! This experiment drives a client through a chaos transport stack —
//! `FlakyTransport` dropping frames at `rpc.send`/`rpc.recv`,
//! `LatentTransport` charging simulated network time to a `ManualClock` —
//! and sweeps injected fault probability × retry policy. Everything runs
//! on the simulated clock with a seeded RNG, so the whole experiment is
//! deterministic and costs zero wall-clock sleep time.
//!
//! Part 2 exercises the circuit breaker: a hard outage (`fail_always` at
//! `rpc.send`) must trip the per-endpoint breaker Closed→Open, and once
//! the fault clears and the cool-down elapses, a half-open probe must
//! close it again.

use gallery_bench::{banner, TextTable};
use gallery_core::{Clock, Gallery, ManualClock, SimulatedSleeper};
use gallery_service::transport::DirectTransport;
use gallery_service::{
    BreakerConfig, BreakerState, ClientError, FlakyTransport, GalleryClient, GalleryServer,
    IdempotencyCache, LatentTransport, Resilience, RetryPolicy,
};
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::LatencyModel;
use std::sync::Arc;
use std::time::Duration;

struct CellOutcome {
    calls: usize,
    ok: usize,
    retries: u64,
    p50_ms: u64,
    p99_ms: u64,
    breaker_transitions: usize,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One sweep cell: `calls` mutating requests through the chaos stack with
/// fault probability `fault_p` split evenly across the send and receive
/// sites (so the per-call loss rate without retries is ≈ `fault_p`).
fn run_cell(policy: RetryPolicy, fault_p: f64, calls: usize, seed: u64) -> CellOutcome {
    let gallery = Arc::new(Gallery::in_memory());
    let server = Arc::new(
        GalleryServer::new(Arc::clone(&gallery)).with_idempotency(IdempotencyCache::default()),
    );

    let clock = ManualClock::new(1_000);
    let model = LatencyModel {
        per_request: Duration::from_millis(2),
        per_byte_ns: 100.0,
    };
    let plan = FaultPlan::with_seed(seed);
    plan.fail_with_probability(sites::RPC_SEND, fault_p / 2.0);
    plan.fail_with_probability(sites::RPC_RECV, fault_p / 2.0);

    let latent = LatentTransport::new(Arc::new(DirectTransport::new(server)), clock.clone(), model);
    let flaky = FlakyTransport::new(Arc::new(latent), plan);

    // Short cool-down relative to the 20 ms client think time below, so a
    // breaker tripped by an unlucky failure streak recovers within the
    // sweep instead of shedding every remaining call.
    let breaker_config = BreakerConfig {
        open_ms: 100,
        ..BreakerConfig::default()
    };
    let resilience = Arc::new(
        Resilience::new(
            policy,
            Arc::new(clock.clone()),
            Arc::new(SimulatedSleeper::new(clock.clone())),
            seed,
        )
        .with_breaker(breaker_config),
    );
    let client = GalleryClient::new(Arc::new(flaky)).with_resilience(Arc::clone(&resilience));

    let mut ok = 0usize;
    let mut latencies = Vec::with_capacity(calls);
    for i in 0..calls {
        clock.advance(20); // client think time between calls
        let t0 = clock.now_ms();
        let outcome = client.create_model(
            "chaos",
            &format!("bv-{i:05}"),
            &format!("model-{i:05}"),
            "sre",
            "chaos sweep",
            "{}",
        );
        let t1 = clock.now_ms();
        latencies.push((t1 - t0) as u64);
        if outcome.is_ok() {
            ok += 1;
        }
    }
    latencies.sort_unstable();
    let stats = resilience.stats();
    CellOutcome {
        calls,
        ok,
        retries: stats.retries,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        breaker_transitions: resilience
            .breaker()
            .map(|b| b.transition_count())
            .unwrap_or(0),
    }
}

/// Part 2: hard outage trips the breaker; clearing the fault and letting
/// the cool-down elapse recovers it via a half-open probe.
fn run_breaker_scenario(seed: u64) -> (usize, usize, Vec<BreakerState>) {
    let gallery = Arc::new(Gallery::in_memory());
    let server = Arc::new(
        GalleryServer::new(Arc::clone(&gallery)).with_idempotency(IdempotencyCache::default()),
    );
    let clock = ManualClock::new(1_000);
    let plan = FaultPlan::with_seed(seed);
    plan.fail_always(sites::RPC_SEND);

    let flaky = FlakyTransport::new(Arc::new(DirectTransport::new(server)), plan.clone());
    let config = BreakerConfig::default();
    let open_ms = config.open_ms;
    let resilience = Arc::new(
        Resilience::new(
            RetryPolicy::no_retry(),
            Arc::new(clock.clone()),
            Arc::new(SimulatedSleeper::new(clock.clone())),
            seed,
        )
        .with_breaker(config),
    );
    let client = GalleryClient::new(Arc::new(flaky)).with_resilience(Arc::clone(&resilience));

    let mut transport_failures = 0usize;
    let mut rejections = 0usize;
    for i in 0..24 {
        match client.create_model(
            "chaos",
            &format!("o-{i}"),
            &format!("m-{i}"),
            "sre",
            "",
            "{}",
        ) {
            Err(ClientError::CircuitOpen { .. }) => rejections += 1,
            Err(_) => transport_failures += 1,
            Ok(_) => {}
        }
    }
    let breaker = resilience.breaker().expect("breaker attached");
    assert_eq!(breaker.state("createGalleryModel"), BreakerState::Open);

    // Outage ends; after the cool-down a single probe is let through.
    // Set the clock absolutely from the latest reading: the strictly
    // increasing clock has drifted past its base, so a relative advance
    // of exactly `open_ms` would land short of the cool-down.
    plan.clear(sites::RPC_SEND);
    let now = clock.now_ms();
    clock.set(now + open_ms as i64 + 1);
    client
        .create_model("chaos", "recovered", "m-recovered", "sre", "", "{}")
        .expect("probe after recovery succeeds");
    assert_eq!(breaker.state("createGalleryModel"), BreakerState::Closed);

    let states = breaker
        .transitions("createGalleryModel")
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    (transport_failures, rejections, states)
}

fn main() {
    banner(
        "E14: chaos sweep — retries, deadlines, circuit breaking",
        "§3.5 failure handling + §4.1 service availability",
    );

    let calls = 400;
    let seed = 42;
    let sweep_p = [0.0, 0.05, 0.10, 0.20];

    let mut table = TextTable::new(&[
        "fault p",
        "policy",
        "calls",
        "ok",
        "success %",
        "retries",
        "p50 ms",
        "p99 ms",
        "breaker transitions",
    ]);
    let mut at_10_no_retry = 0.0f64;
    let mut at_10_standard = 0.0f64;
    for &p in &sweep_p {
        for (name, policy) in [
            ("no-retry", RetryPolicy::no_retry()),
            ("standard", RetryPolicy::standard()),
        ] {
            let o = run_cell(policy, p, calls, seed);
            let success = o.ok as f64 / o.calls as f64 * 100.0;
            if (p - 0.10).abs() < 1e-9 {
                if name == "no-retry" {
                    at_10_no_retry = success;
                } else {
                    at_10_standard = success;
                }
            }
            table.add_row(vec![
                format!("{:.0}%", p * 100.0),
                name.into(),
                o.calls.to_string(),
                o.ok.to_string(),
                format!("{success:.1}"),
                o.retries.to_string(),
                o.p50_ms.to_string(),
                o.p99_ms.to_string(),
                o.breaker_transitions.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "at 10% injected faults: no-retry {:.1}% vs standard policy {:.1}% success\n\
         (all latencies are simulated-clock deltas including backoff; zero wall sleeps)",
        at_10_no_retry, at_10_standard
    );
    assert!(
        at_10_no_retry < 96.0,
        "no-retry should visibly suffer at 10% faults, got {at_10_no_retry:.1}%"
    );
    assert!(
        at_10_standard >= 99.0,
        "standard policy must recover ≥99% at 10% faults, got {at_10_standard:.1}%"
    );

    let (failures, rejections, states) = run_breaker_scenario(seed);
    println!(
        "breaker scenario: {failures} transport failures tripped the breaker, then \
         {rejections} calls were rejected without touching the wire;\n\
         after the outage cleared and the cool-down elapsed, a half-open probe \
         closed it again.\n\
         transition log: {states:?} ✓"
    );
    assert!(rejections > 0, "open breaker must shed load");
    assert_eq!(
        states,
        vec![
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed
        ],
        "breaker must walk Open → HalfOpen → Closed"
    );
}
