//! End-to-end resilience tests: a real client/server pair under a chaos
//! transport, all on a simulated clock — no wall-clock sleeps anywhere.
//!
//! The properties checked here are the ones `docs/resilience.md` promises:
//! transient transport faults are retried to success, a lost *response*
//! (the ambiguous failure) is replayed without duplicating the side
//! effect, remote application errors are never retried, deadlines bound
//! the retry budget, and a hard outage trips the circuit breaker which
//! then recovers through a half-open probe.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_core::{Clock, Gallery, InstanceId, ManualClock, ModelId, SimulatedSleeper};
use gallery_service::transport::DirectTransport;
use gallery_service::{
    BreakerConfig, BreakerState, ClientError, FlakyTransport, GalleryClient, GalleryServer,
    IdempotencyCache, Resilience, RetryPolicy,
};
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::Query;
use proptest::prelude::*;
use std::sync::Arc;

struct Chaos {
    gallery: Arc<Gallery>,
    plan: FaultPlan,
    clock: ManualClock,
    resilience: Arc<Resilience>,
    client: GalleryClient,
}

fn chaos(policy: RetryPolicy, seed: u64) -> Chaos {
    let gallery = Arc::new(Gallery::in_memory());
    let server = Arc::new(
        GalleryServer::new(Arc::clone(&gallery)).with_idempotency(IdempotencyCache::default()),
    );
    let clock = ManualClock::new(1_000);
    let plan = FaultPlan::with_seed(seed);
    let flaky = FlakyTransport::new(Arc::new(DirectTransport::new(server)), plan.clone());
    let resilience = Arc::new(
        Resilience::new(
            policy,
            Arc::new(clock.clone()),
            Arc::new(SimulatedSleeper::new(clock.clone())),
            seed,
        )
        .with_breaker(BreakerConfig::default()),
    );
    let client = GalleryClient::new(Arc::new(flaky)).with_resilience(Arc::clone(&resilience));
    Chaos {
        gallery,
        plan,
        clock,
        resilience,
        client,
    }
}

#[test]
fn transient_send_faults_are_retried_to_success() {
    let h = chaos(RetryPolicy::standard(), 7);
    h.plan.fail_first_n(sites::RPC_SEND, 2);

    let model = h
        .client
        .create_model("proj", "bv-1", "m", "owner", "", "{}")
        .expect("third attempt lands");
    assert!(!model.id.is_empty());

    let stats = h.resilience.stats();
    assert_eq!(stats.calls, 1);
    assert_eq!(stats.attempts, 3);
    assert_eq!(stats.retries, 2);
    // The two backoff sleeps elapsed on the simulated clock.
    assert!(stats.backoff_ms_total > 0);
    assert!(h.clock.now_ms() >= 1_000 + stats.backoff_ms_total as i64);
}

/// A lost response means the server already performed the mutation; the
/// retry carries the same idempotency key, so the server must replay the
/// recorded response instead of mutating twice. One scenario per mutating
/// request family.
#[test]
fn lost_response_replays_without_duplicate_side_effects() {
    // CreateModel
    let h = chaos(RetryPolicy::standard(), 11);
    h.plan.fail_first_n(sites::RPC_RECV, 1);
    let m = h
        .client
        .create_model("proj", "bv-1", "m", "owner", "", "{}")
        .expect("retry replays the recorded response");
    assert_eq!(h.gallery.find_models(&Query::all()).unwrap().len(), 1);
    assert_eq!(h.resilience.stats().retries, 1);

    // UploadModel against the model created above (faults already spent).
    h.plan.fail_first_n(sites::RPC_RECV, 1);
    let inst = h
        .client
        .upload_model(&m.id, "{}", Bytes::from_static(b"weights"))
        .expect("upload replayed");
    let model_id = ModelId::from(m.id.as_str());
    assert_eq!(h.gallery.instances_of_model(&model_id).unwrap().len(), 1);

    // InsertMetric
    h.plan.fail_first_n(sites::RPC_RECV, 1);
    h.client
        .insert_metric(&inst.id, "auc", "validation", 0.92)
        .expect("metric replayed");
    let instance_id = InstanceId::from(inst.id.as_str());
    assert_eq!(
        h.gallery.metrics_of_instance(&instance_id).unwrap().len(),
        1
    );

    // Deploy
    h.plan.fail_first_n(sites::RPC_RECV, 1);
    h.client
        .deploy(&m.id, &inst.id, "production")
        .expect("deploy replayed");
    assert_eq!(h.gallery.deployment_history(&model_id).unwrap().len(), 1);

    // AddDependency
    let up = h
        .client
        .create_model("proj", "bv-up", "upstream", "owner", "", "{}")
        .unwrap();
    h.plan.fail_first_n(sites::RPC_RECV, 1);
    h.client
        .add_dependency(&m.id, &up.id)
        .expect("dependency replayed");
    assert_eq!(h.client.upstream_of(&m.id).unwrap(), vec![up.id.clone()]);
}

#[test]
fn remote_errors_are_never_retried() {
    let h = chaos(RetryPolicy::standard(), 3);
    let err = h.client.get_model("no-such-model").unwrap_err();
    assert!(matches!(err, ClientError::Remote { .. }));
    assert!(!err.is_retryable());

    let stats = h.resilience.stats();
    assert_eq!(stats.calls, 1);
    assert_eq!(stats.attempts, 1, "remote errors must not be retried");
    assert_eq!(stats.retries, 0);
}

#[test]
fn deadline_bounds_the_retry_budget() {
    // Budget is smaller than the first backoff delay, so the loop must
    // give up after one attempt instead of sleeping past the deadline.
    let policy = RetryPolicy::standard().with_deadline_ms(5);
    let h = chaos(policy, 5);
    h.plan.fail_always(sites::RPC_SEND);

    let err = h.client.get_model("whatever").unwrap_err();
    assert!(matches!(err, ClientError::Transport { .. }));
    let stats = h.resilience.stats();
    assert_eq!(stats.deadline_exhausted, 1);
    assert_eq!(stats.attempts, 1);
}

#[test]
fn breaker_opens_under_outage_and_recovers_after_probe() {
    let h = chaos(RetryPolicy::no_retry(), 9);
    h.plan.fail_always(sites::RPC_SEND);

    let mut transport_failures = 0;
    let mut rejections = 0;
    for _ in 0..20 {
        match h.client.get_model("m") {
            Err(ClientError::CircuitOpen { .. }) => rejections += 1,
            Err(_) => transport_failures += 1,
            Ok(_) => panic!("no call can succeed during the outage"),
        }
    }
    let breaker = h.resilience.breaker().expect("breaker attached");
    assert_eq!(breaker.state("getModel"), BreakerState::Open);
    assert!(transport_failures >= 8, "window must fill before tripping");
    assert!(rejections > 0, "open breaker sheds load");
    assert_eq!(h.resilience.stats().breaker_rejections, rejections);

    // Outage ends; jump the clock past the cool-down (set absolutely —
    // the strictly increasing clock has drifted past its base).
    h.plan.clear(sites::RPC_SEND);
    let now = h.clock.now_ms();
    h.clock
        .set(now + BreakerConfig::default().open_ms as i64 + 1);

    let err = h.client.get_model("m").unwrap_err();
    assert!(
        matches!(err, ClientError::Remote { .. }),
        "probe reaches the healthy server (which reports no such model)"
    );
    assert_eq!(breaker.state("getModel"), BreakerState::Closed);
    let states: Vec<BreakerState> = breaker
        .transitions("getModel")
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    assert_eq!(
        states,
        vec![
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once under random fault rates: however many times a
    /// logical create was dropped and replayed, it lands in the registry
    /// at most once; and every create the client reports as successful
    /// did land. (A call that exhausts its budget after the server
    /// mutated but before any response arrived may land while being
    /// reported failed — that is the at-least-once residue idempotency
    /// keys cannot remove, only deduplicate.)
    #[test]
    fn retried_writes_are_exactly_once(
        seed in 0u64..1_000,
        send_p in 0.0f64..0.3,
        recv_p in 0.0f64..0.3,
    ) {
        let h = chaos(RetryPolicy::standard().with_max_attempts(8), seed);
        h.plan.fail_with_probability(sites::RPC_SEND, send_p);
        h.plan.fail_with_probability(sites::RPC_RECV, recv_p);

        let mut ok_bases = Vec::new();
        for i in 0..20 {
            let r = h.client.create_model(
                "proj",
                &format!("bv-{i}"),
                &format!("m-{i}"),
                "owner",
                "",
                "{}",
            );
            if r.is_ok() {
                ok_bases.push(format!("bv-{i}"));
            }
        }
        let models = h.gallery.find_models(&Query::all()).unwrap();
        let mut bases: Vec<String> =
            models.iter().map(|m| m.base_version_id.as_str().to_owned()).collect();
        bases.sort();
        let before_dedup = bases.len();
        bases.dedup();
        prop_assert_eq!(before_dedup, bases.len(), "no logical call may land twice");
        for base in &ok_bases {
            prop_assert!(bases.contains(base), "reported success {} must exist", base);
        }
        prop_assert!(models.len() >= ok_bases.len());
    }
}
