//! Kill-a-node failover drills against the sharded, replicated cluster
//! (docs/replication.md): deterministic chaos on a manual clock proving
//! the invariants the subsystem exists for — zero lost acknowledged
//! writes, bounded follower-read staleness, convergence after resync.

use gallery_core::{ManualClock, SimulatedSleeper};
use gallery_service::telemetry::{kinds, parse_exposition, parse_samples, SpanContext, Telemetry};
use gallery_service::{
    run_drill, ClusterConfig, DrillAction, DrillPlan, GalleryClient, ReplicaRole, Request,
    Resilience, RetryPolicy, SimCluster,
};
use std::sync::Arc;

fn drill_cluster(nodes: usize, replication: usize, clock: &ManualClock) -> SimCluster {
    SimCluster::start_with(
        ClusterConfig::new(nodes)
            .with_shards(nodes as u32 * 2)
            .with_replication(replication)
            .with_follower_reads(true, 0),
        Arc::new(clock.clone()),
        Telemetry::new(),
    )
}

fn resilient_client(cluster: &SimCluster, clock: &ManualClock, seed: u64) -> GalleryClient {
    let resilience = Arc::new(Resilience::new(
        RetryPolicy::standard()
            .with_max_attempts(8)
            .with_deadline_ms(60_000),
        Arc::new(clock.clone()),
        Arc::new(SimulatedSleeper::new(clock.clone())),
        seed,
    ));
    GalleryClient::new(cluster.transport()).with_resilience(resilience)
}

#[test]
fn kill_a_node_drill_loses_no_acked_writes_across_seeds() {
    for seed in 1..=5u64 {
        let clock = ManualClock::new(0);
        let cluster = drill_cluster(3, 2, &clock);
        // Kill node 0 — it leads a third of the shards — then revive it.
        let plan = DrillPlan::kill_one(seed, 30, 0);
        let report = run_drill(&cluster, &clock, &plan);
        assert!(
            report.holds(),
            "seed {seed}: invariants violated: {report:?}"
        );
        assert_eq!(report.lost, 0, "seed {seed}: {report:?}");
        assert_eq!(report.diverged, 0, "seed {seed}: {report:?}");
        // The client retried across the failover: most writes acked.
        assert!(
            report.acked >= report.attempted * 2 / 3,
            "seed {seed}: too many rejections: {report:?}"
        );
        // Killing a leader-bearing node must have forced promotions.
        assert!(report.failovers > 0, "seed {seed}: {report:?}");
    }
}

#[test]
fn every_replica_logs_what_it_applied_after_a_drill() {
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(3, 2, &clock);
    let report = run_drill(&cluster, &clock, &DrillPlan::kill_one(4, 30, 0));
    assert!(report.holds(), "{report:?}");
    let map = cluster.router().map_snapshot();
    for node in (0..3).filter(|&n| !cluster.node(n).is_down()) {
        for shard in map.shards_of(node) {
            let store = cluster.node(node).replica(shard).unwrap();
            let store = store.gallery().dal().metadata();
            assert!(store.applied_seq() > 0, "node {node} shard {shard}");
            assert_eq!(
                store.wal_entries(),
                store.applied_seq(),
                "node {node} shard {shard}: every applied op is in its own log"
            );
        }
    }
}

#[test]
fn drill_is_deterministic_for_a_seed() {
    let run = |seed: u64| {
        let clock = ManualClock::new(0);
        let cluster = drill_cluster(3, 2, &clock);
        let report = run_drill(&cluster, &clock, &DrillPlan::kill_one(seed, 24, 1));
        (
            report.acked,
            report.rejected,
            report.failovers,
            report.max_follower_lag_ops,
        )
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn retry_rides_through_a_failover() {
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(3, 2, &clock);
    let client = resilient_client(&cluster, &clock, 7);
    // Warm write, then kill every node once the map says who leads what.
    let before = client
        .create_model("p", "bv-before", "m", "o", "", "{}")
        .unwrap();
    cluster.kill_node(0);
    // Every subsequent write still succeeds: the router fails shards led
    // by node 0 over to their followers and the client's retry re-sends
    // the same idempotency key to the new leader.
    for i in 0..10 {
        client
            .create_model("p", &format!("bv-{i}"), "m", "o", "", "{}")
            .unwrap();
    }
    // Reads of pre-kill state survive too (served by the promoted
    // follower, which had the write replicated before the ack).
    assert_eq!(client.get_model(&before.id).unwrap().id, before.id);
    let telemetry = cluster.telemetry();
    assert!(
        telemetry
            .registry()
            .counter("gallery_cluster_failovers_total", &[])
            .get()
            > 0,
        "killing a leader-bearing node must fail over"
    );
}

#[test]
fn revived_node_is_resynced_and_serves_again() {
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(2, 2, &clock);
    let client = resilient_client(&cluster, &clock, 9);
    cluster.kill_node(1);
    let mut ids = Vec::new();
    for i in 0..8 {
        ids.push(
            client
                .create_model("p", &format!("bv-{i}"), "m", "o", "", "{}")
                .unwrap()
                .id,
        );
    }
    cluster.revive_node(1);
    // After resync every write is on every replica of its shard.
    let map = cluster.router().map_snapshot();
    for id in &ids {
        let shard = gallery_core::shard_of(id, map.shard_count());
        for node in map.replicas(shard).all() {
            let server = cluster.node(node).replica(shard).unwrap();
            assert!(
                server
                    .gallery()
                    .get_model(&gallery_core::ModelId(id.clone()))
                    .is_ok(),
                "node {node} shard {shard} missing {id} after resync"
            );
        }
    }
    for shard in 0..map.shard_count() {
        assert_eq!(cluster.router().follower_lag(shard), 0, "shard {shard}");
    }
}

#[test]
fn follower_reads_stay_within_the_staleness_budget() {
    let clock = ManualClock::new(0);
    let cluster = SimCluster::start_with(
        ClusterConfig::new(3)
            .with_shards(6)
            .with_replication(3)
            .with_follower_reads(true, 4),
        Arc::new(clock.clone()),
        Telemetry::new(),
    );
    let client = resilient_client(&cluster, &clock, 11);
    let mut ids = Vec::new();
    for i in 0..12 {
        let id = client
            .create_model("p", &format!("bv-{i}"), "m", "o", "", "{}")
            .unwrap()
            .id;
        // Reads round-robin over leader + in-budget followers, and every
        // replica already has the write (pump-before-ack): read-your-write
        // holds even from a follower.
        for _ in 0..3 {
            assert_eq!(client.get_model(&id).unwrap().id, id);
        }
        ids.push(id);
    }
    let follower_reads = cluster
        .telemetry()
        .registry()
        .counter("gallery_cluster_follower_reads_total", &[])
        .get();
    assert!(follower_reads > 0, "round-robin must hit followers");
    for shard in 0..cluster.router().shard_count() {
        assert!(cluster.router().follower_lag(shard) <= 4, "shard {shard}");
    }
}

#[test]
fn double_fault_drill_still_holds_with_three_replicas() {
    // Kill two different nodes at different times with replication=3 —
    // there is always a live replica, so no acked write may be lost.
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(3, 3, &clock);
    let plan = DrillPlan {
        seed: 21,
        writes: 30,
        events: vec![
            (5, DrillAction::Kill(0)),
            (15, DrillAction::Revive(0)),
            (20, DrillAction::Kill(2)),
            (26, DrillAction::Revive(2)),
        ],
        step_ms: 10,
    };
    let report = run_drill(&cluster, &clock, &plan);
    assert!(report.holds(), "{report:?}");
    assert!(report.failovers > 0, "{report:?}");
}

// ---- Cluster-wide tracing & federation (docs/observability.md) ----

/// The router forwards the *client's* frame byte-for-byte inside the
/// shard envelope — so the trace envelope (and the idempotency key it
/// shares the preamble with) must survive unwrapping unchanged.
#[test]
fn trace_envelope_rides_the_shard_envelope_byte_for_byte() {
    use gallery_service::messages::{decode_sharded, encode_sharded};
    let ctx = SpanContext {
        trace_id: 0xFEED_F00D,
        span_id: 42,
    };
    let inner = Request::ReplStatus.encode_with(Some("key-1"), Some(ctx));
    let (shard, unwrapped) = decode_sharded(encode_sharded(5, inner.clone()))
        .unwrap()
        .unwrap();
    assert_eq!(shard, 5);
    assert_eq!(
        unwrapped, inner,
        "shard forwarding must not re-encode the inner frame"
    );
    let decoded = Request::decode_full(unwrapped).unwrap();
    assert_eq!(decoded.trace, Some(ctx));
    assert_eq!(decoded.key.as_deref(), Some("key-1"));
    assert!(matches!(decoded.request, Request::ReplStatus));
}

/// A write that rides through a failover stays ONE trace: the client
/// re-sends the identical frame (same trace envelope, same idempotency
/// key), so the failed attempt, the failover election, and the retry
/// that lands on the promoted leader all share a trace_id.
#[test]
fn failover_retry_keeps_one_trace_across_attempts() {
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(3, 2, &clock);
    let resilience = Arc::new(Resilience::new(
        RetryPolicy::standard()
            .with_max_attempts(8)
            .with_deadline_ms(60_000),
        Arc::new(clock.clone()),
        Arc::new(SimulatedSleeper::new(clock.clone())),
        23,
    ));
    let client = GalleryClient::new(cluster.transport())
        .with_resilience(resilience)
        .with_telemetry(Arc::clone(cluster.telemetry()));
    client
        .create_model("p", "bv-warm", "m", "o", "", "{}")
        .unwrap();
    // Pick a base version whose shard node 0 leads, so the write below is
    // guaranteed to hit the dead leader on its first attempt.
    let map = cluster.router().map_snapshot();
    let bv = (0..)
        .map(|i| format!("bv-f{i}"))
        .find(|bv| map.leader_of(gallery_core::shard_of(bv, map.shard_count())) == 0)
        .unwrap();
    cluster.kill_node(0);
    client.create_model("p", &bv, "m", "o", "", "{}").unwrap();

    let events = cluster.telemetry().events();
    let failovers = events.of_kind(kinds::CLUSTER_FAILOVER);
    assert!(!failovers.is_empty(), "killing the leader must fail over");
    let failover = &failovers[0];
    let trace_id = failover
        .trace_id
        .expect("failover event carries the triggering write's trace");
    for field in ["shard", "from", "to", "epoch"] {
        assert!(failover.field(field).is_some(), "missing {field}");
    }
    // Both physical attempts of the one logical call emitted rpc.attempt
    // on that same trace.
    let attempts = events
        .for_trace(trace_id)
        .iter()
        .filter(|e| e.kind == kinds::RPC_ATTEMPT)
        .count();
    assert!(attempts >= 2, "expected a retry, saw {attempts} attempt(s)");
    // And the trace's spans cover the whole story: client root, the
    // failed and retried route, the election, and the handler on the
    // promoted leader.
    let spans = cluster.telemetry().tracer().spans_for_trace(trace_id);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    for expected in [
        "rpc.client/createGalleryModel",
        "cluster/route",
        "cluster/failover",
        "rpc.server/createGalleryModel",
    ] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
}

/// Wiping a follower replica behind the router's back opens a WAL
/// sequence gap. The next ship detects it, emits exactly one
/// cluster.ship_gap event (shard + node + epoch + seqs), resets shipping
/// progress to the follower's truth, and re-ships the full log — the
/// follower converges and stays in service.
#[test]
fn ship_gap_emits_one_event_and_self_heals() {
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(3, 2, &clock);
    let client = resilient_client(&cluster, &clock, 13);
    let first = client
        .create_model("p", "bv-gap", "m", "o", "", "{}")
        .unwrap();
    let map = cluster.router().map_snapshot();
    let shard = gallery_core::shard_of(&first.id, map.shard_count());
    let follower = map.replicas(shard).followers[0];
    cluster
        .node(follower)
        .reset_replica(shard, ReplicaRole::Follower);
    // A second write to the SAME shard triggers the ship that trips over
    // the gap.
    let bv2 = (0..)
        .map(|i| format!("bv-gap2-{i}"))
        .find(|bv| gallery_core::shard_of(bv, map.shard_count()) == shard)
        .unwrap();
    let second = client.create_model("p", &bv2, "m", "o", "", "{}").unwrap();

    let gaps = cluster
        .telemetry()
        .events()
        .of_kind(kinds::CLUSTER_SHIP_GAP);
    assert_eq!(gaps.len(), 1, "exactly one gap event: {gaps:?}");
    assert_eq!(gaps[0].field("shard"), Some(shard.to_string().as_str()));
    assert_eq!(gaps[0].field("node"), Some(follower.to_string().as_str()));
    assert!(gaps[0].field("epoch").is_some());
    // The wiped replica restarts at its schema-bootstrap sequence, which
    // is strictly behind where the router thought shipping had reached.
    let from_seq: u64 = gaps[0].field("from_seq").unwrap().parse().unwrap();
    let applied_seq: u64 = gaps[0].field("applied_seq").unwrap().parse().unwrap();
    assert!(applied_seq < from_seq, "{applied_seq} vs {from_seq}");
    // Self-healed within the same pump: zero lag, both writes on the
    // wiped follower, node still up.
    assert_eq!(cluster.router().follower_lag(shard), 0);
    let server = cluster.node(follower).replica(shard).unwrap();
    for id in [&first.id, &second.id] {
        assert!(
            server
                .gallery()
                .get_model(&gallery_core::ModelId(id.clone()))
                .is_ok(),
            "follower missing {id} after gap recovery"
        );
    }
}

/// `Probe{section:"cluster"}` answers with the federated exposition:
/// lint-clean text format, a `node="<id>"` section per live node plus the
/// router's own, and derived liveness gauges that track a kill on the
/// very next scrape.
#[test]
fn federated_exposition_relabels_nodes_and_tracks_liveness() {
    let clock = ManualClock::new(0);
    let cluster = drill_cluster(3, 2, &clock);
    let client = resilient_client(&cluster, &clock, 17);
    for i in 0..6 {
        client
            .create_model("p", &format!("bv-{i}"), "m", "o", "", "{}")
            .unwrap();
    }
    let text = client.probe("cluster").unwrap();
    parse_exposition(&text).unwrap();
    let samples = parse_samples(&text).unwrap();
    let live = samples
        .iter()
        .find(|s| s.name == "gallery_cluster_live_nodes")
        .unwrap();
    assert_eq!(live.value, 3.0);
    let nodes: std::collections::BTreeSet<&str> =
        samples.iter().filter_map(|s| s.label("node")).collect();
    for expected in ["router", "0", "1", "2"] {
        assert!(nodes.contains(expected), "missing node={expected}");
    }

    cluster.kill_node(2);
    let text = client.probe("cluster").unwrap();
    let samples = parse_samples(&text).unwrap();
    assert_eq!(
        samples
            .iter()
            .find(|s| s.name == "gallery_cluster_live_nodes")
            .unwrap()
            .value,
        2.0,
        "the scrape itself discovers the dead node"
    );
    let up = samples
        .iter()
        .find(|s| s.name == "gallery_cluster_node_up" && s.label("node") == Some("2"))
        .unwrap();
    assert_eq!(up.value, 0.0);
    // The dead node contributes no scraped section — only the derived
    // gauges may still mention it.
    assert!(
        samples
            .iter()
            .all(|s| s.name.starts_with("gallery_cluster_") || s.label("node") != Some("2")),
        "dead node must not contribute scraped series"
    );
}
