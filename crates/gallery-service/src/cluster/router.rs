//! The gallery-service router: a [`Transport`] that fronts a sharded,
//! replicated cluster of Gallery nodes (docs/replication.md).
//!
//! Clients speak to the router exactly as they would to a single server —
//! typed client, resilience bundle, idempotency keys all unchanged. The
//! router:
//!
//! - picks the target shard from the request's routing key with the same
//!   fixed-slot hash the shards mint their ids under ([`shard_of`]), so
//!   point lookups never consult a directory;
//! - forwards the client's frame *byte-for-byte* inside the shard
//!   envelope (never re-encoding what the client keyed);
//! - after every successful mutation, synchronously pumps WAL shipping
//!   from the shard's leader to its live followers **before** acking —
//!   the invariant behind "zero lost acknowledged writes": an op is only
//!   acked once every replica that could be promoted holds it;
//! - serves `modelQuery` by scatter-gather over all shards, optionally
//!   from bounded-staleness followers;
//! - health-checks leaders by their failures: a dead leader is demoted
//!   and the most caught-up live follower is promoted, after which the
//!   client's transport-level retry lands on the new leader.

use crate::cluster::ring::ShardMap;
use crate::messages::{encode_sharded, ErrorCode, Request, Response};
use crate::transport::{Transport, TransportError, TransportErrorKind};
use bytes::Bytes;
use gallery_core::shard_of;
use gallery_sync::locks::{OrderedMutex, OrderedRwLock};
use gallery_sync::rank;
use gallery_telemetry::{
    kinds, relabel_exposition, Counter, Registry, Span, SpanContext, Telemetry,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many frames one `ShipWal`/`ApplyWal` exchange carries.
const SHIP_BATCH: u64 = 256;

/// Where a request must go.
enum Route {
    /// Hash this key to a shard; mutations go to its leader.
    Key(String),
    /// Fan out to every shard and merge (modelQuery).
    Scatter,
    /// Cluster-level control/observability: shard 0's leader.
    Control,
}

fn route_of(request: &Request) -> Route {
    match request {
        Request::CreateModel {
            base_version_id, ..
        }
        | Request::InstancesOfBaseVersion { base_version_id } => {
            Route::Key(base_version_id.clone())
        }
        Request::GetModel { model_id }
        | Request::UploadModel { model_id, .. }
        | Request::LatestInstance { model_id }
        | Request::Deploy { model_id, .. }
        | Request::DeployedInstance { model_id, .. }
        | Request::AddDependency { model_id, .. }
        | Request::RemoveDependency { model_id, .. }
        | Request::UpstreamOf { model_id }
        | Request::DownstreamOf { model_id }
        | Request::DeprecateModel { model_id } => Route::Key(model_id.clone()),
        Request::GetInstance { instance_id }
        | Request::FetchBlob { instance_id }
        | Request::InsertMetric { instance_id, .. }
        | Request::DeprecateInstance { instance_id }
        | Request::SetStage { instance_id, .. }
        | Request::StageOf { instance_id }
        | Request::HealthReport { instance_id } => Route::Key(instance_id.clone()),
        Request::SelectChampion { rule_id } | Request::TriggerRule { rule_id, .. } => {
            Route::Key(rule_id.clone())
        }
        Request::ModelQuery { .. } => Route::Scatter,
        Request::Probe { .. }
        | Request::Validate { .. }
        | Request::ShipWal { .. }
        | Request::ApplyWal { .. }
        | Request::ReplStatus
        | Request::SetShardRole { .. } => Route::Control,
    }
}

/// The series the router records on every forwarded request and every
/// shipped batch, resolved once at construction. The rare ones (failovers,
/// wrong-shard re-resolutions, the per-shard lag gauge) stay by-name.
struct RouterMetrics {
    forwards_leader: Arc<Counter>,
    forwards_follower: Arc<Counter>,
    follower_reads: Arc<Counter>,
    replication_frames: Arc<Counter>,
}

impl RouterMetrics {
    fn new(r: &Registry) -> Self {
        RouterMetrics {
            forwards_leader: r.counter("gallery_cluster_forwards_total", &[("target", "leader")]),
            forwards_follower: r
                .counter("gallery_cluster_forwards_total", &[("target", "follower")]),
            follower_reads: r.counter("gallery_cluster_follower_reads_total", &[]),
            replication_frames: r.counter("gallery_cluster_replication_frames_total", &[]),
        }
    }
}

/// Router over per-node transports. Cheap to share: all state is behind
/// locks, and `Transport::call` takes `&self`.
pub struct ClusterRouter {
    transports: Vec<Arc<dyn Transport>>,
    map: OrderedRwLock<ShardMap>,
    node_up: Vec<std::sync::atomic::AtomicBool>,
    /// Last applied sequence we shipped each (shard, node) follower to.
    progress: OrderedMutex<HashMap<(u32, usize), u64>>,
    /// Last observed leader sequence per shard (updated by every pump).
    leader_seq: OrderedMutex<HashMap<u32, u64>>,
    follower_reads: bool,
    staleness_budget_ops: u64,
    reads_rr: AtomicU64,
    telemetry: Arc<Telemetry>,
    metrics: RouterMetrics,
}

impl ClusterRouter {
    pub fn new(
        transports: Vec<Arc<dyn Transport>>,
        map: ShardMap,
        follower_reads: bool,
        staleness_budget_ops: u64,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let nodes = transports.len();
        telemetry
            .registry()
            .gauge("gallery_cluster_nodes_up", &[])
            .set(nodes as i64);
        ClusterRouter {
            transports,
            map: OrderedRwLock::new(rank::SHARD_MAP, map),
            node_up: (0..nodes)
                .map(|_| std::sync::atomic::AtomicBool::new(true))
                .collect(),
            progress: OrderedMutex::new(rank::PROGRESS, HashMap::new()),
            leader_seq: OrderedMutex::new(rank::LEADER_SEQ, HashMap::new()),
            follower_reads,
            staleness_budget_ops,
            reads_rr: AtomicU64::new(0),
            metrics: RouterMetrics::new(telemetry.registry()),
            telemetry,
        }
    }

    pub fn map_snapshot(&self) -> ShardMap {
        self.map.read().clone()
    }

    pub fn shard_count(&self) -> u32 {
        self.map.read().shard_count()
    }

    pub fn node_count(&self) -> usize {
        self.transports.len()
    }

    pub fn is_up(&self, node: usize) -> bool {
        self.node_up[node].load(Ordering::SeqCst)
    }

    /// The follower-read staleness budget, in oplog ops.
    pub fn staleness_budget(&self) -> u64 {
        self.staleness_budget_ops
    }

    fn nodes_up_gauge(&self) {
        let up = (0..self.node_count()).filter(|n| self.is_up(*n)).count();
        self.telemetry
            .registry()
            .gauge("gallery_cluster_nodes_up", &[])
            .set(up as i64);
    }

    /// Record a node as unhealthy (a call to it failed at the transport).
    pub fn mark_node_down(&self, node: usize, reason: &str) {
        if self.node_up[node].swap(false, Ordering::SeqCst) {
            self.telemetry.events().emit(
                kinds::CLUSTER_NODE_DOWN,
                vec![
                    ("node", node.to_string().into()),
                    ("reason", reason.to_owned().into()),
                ],
            );
            self.nodes_up_gauge();
        }
    }

    /// Record a node as healthy again (after the drill revives it and its
    /// replicas have been re-seeded).
    pub fn mark_node_up(&self, node: usize) {
        self.node_up[node].store(true, Ordering::SeqCst);
        self.nodes_up_gauge();
    }

    /// Forget shipping progress for a follower that was re-seeded with an
    /// empty store: the next pump re-ships its shard's log from scratch.
    pub fn reset_progress(&self, shard: u32, node: usize) {
        self.progress.lock().insert((shard, node), 0);
    }

    /// The replication lag (in oplog ops) of the worst live follower of a
    /// shard, as of the last pump. 0 when every live follower is caught
    /// up — which pump-before-ack guarantees between writes.
    pub fn follower_lag(&self, shard: u32) -> u64 {
        let leader_seq = self.leader_seq.lock().get(&shard).copied().unwrap_or(0);
        let map = self.map.read();
        let progress = self.progress.lock();
        map.replicas(shard)
            .followers
            .iter()
            .filter(|f| self.is_up(**f))
            .map(|f| leader_seq.saturating_sub(progress.get(&(shard, *f)).copied().unwrap_or(0)))
            .max()
            .unwrap_or(0)
    }

    fn counter(&self, name: &'static str) {
        self.telemetry.registry().counter(name, &[]).inc();
    }

    fn call_node(&self, node: usize, frame: Bytes) -> Result<Bytes, TransportError> {
        match self.transports[node].call(frame) {
            Ok(bytes) => Ok(bytes),
            Err(e) => {
                self.mark_node_down(node, &e.message);
                Err(e)
            }
        }
    }

    /// Router-minted request to one node. When `trace` is given, the frame
    /// carries it in the trace envelope, so the node's `rpc.server/*` span
    /// joins the same trace as the client call that caused this hop.
    fn request_to(
        &self,
        node: usize,
        shard: u32,
        request: &Request,
        trace: Option<SpanContext>,
    ) -> Result<Response, TransportError> {
        let bytes = self.call_node(
            node,
            encode_sharded(shard, request.encode_with(None, trace)),
        )?;
        Response::decode(bytes).map_err(|e| {
            TransportError::new(TransportErrorKind::RequestDropped, format!("protocol: {e}"))
        })
    }

    /// Open a span that is a child of `parent` when one exists (a traced
    /// client call) and a root otherwise (internal housekeeping).
    fn span(&self, name: &'static str, parent: Option<SpanContext>) -> Span {
        let tracer = self.telemetry.tracer();
        match parent {
            Some(ctx) => tracer.start_child(name, ctx),
            None => tracer.start_span(name),
        }
    }

    /// Ship the leader's oplog to every live follower of `shard` until
    /// they are caught up. Follower failures mark the follower down and
    /// move on (a dead follower must not block acks); a leader failure is
    /// returned (the caller must not ack).
    pub fn pump(&self, shard: u32) -> Result<(), TransportError> {
        self.pump_traced(shard, None)
    }

    /// [`pump`](Self::pump) under a `cluster/ship` span. When `parent` is
    /// the mutation's route span, the whole shipping exchange — the
    /// leader's `shipWal` and each follower's `applyWal` server spans —
    /// stitches into the mutation's trace, which is what makes an acked
    /// write's trace cover every follower ack.
    fn pump_traced(&self, shard: u32, parent: Option<SpanContext>) -> Result<(), TransportError> {
        let mut span = self.span("cluster/ship", parent);
        span.set_attr("shard", shard.to_string());
        let ship_ctx = span.context();
        let (leader, followers) = {
            let map = self.map.read();
            let replicas = map.replicas(shard);
            (replicas.leader, replicas.followers.clone())
        };
        let mut observed_leader_seq = None;
        let mut frames_shipped = 0u64;
        for follower in followers {
            if !self.is_up(follower) {
                continue;
            }
            let mut from = self
                .progress
                .lock()
                .get(&(shard, follower))
                .copied()
                .unwrap_or(0);
            let mut stalled = 0u32;
            loop {
                let shipped = self.request_to(
                    leader,
                    shard,
                    &Request::ShipWal {
                        from_seq: from,
                        max: SHIP_BATCH,
                    },
                    Some(ship_ctx),
                )?;
                let Response::WalFrames { leader_seq, frames } = shipped else {
                    return Err(TransportError::new(
                        TransportErrorKind::LeaderUnavailable,
                        format!("shard {shard} leader answered shipWal with {shipped:?}"),
                    ));
                };
                observed_leader_seq = Some(leader_seq);
                if frames.is_empty() {
                    self.progress.lock().insert((shard, follower), from);
                    break;
                }
                let count = frames.len() as u64;
                let applied = match self.request_to(
                    follower,
                    shard,
                    &Request::ApplyWal { frames },
                    Some(ship_ctx),
                ) {
                    Ok(Response::ReplInfo { applied_seq, .. }) => applied_seq,
                    Ok(other) => {
                        // A verdict other than ReplInfo means the replica
                        // cannot apply (diverging): stop serving it.
                        self.mark_node_down(follower, &format!("applyWal: {other:?}"));
                        break;
                    }
                    Err(_) => break, // already marked down
                };
                self.metrics.replication_frames.add(count);
                frames_shipped += count;
                if applied <= from {
                    // The follower applied less than we shipped it to: a
                    // sequence gap (e.g. a replica reset behind our back).
                    // The next batch resends from the follower's truth.
                    stalled += 1;
                    let epoch = self.map.read().epoch();
                    self.telemetry.events().emit_traced(
                        kinds::CLUSTER_SHIP_GAP,
                        Some(ship_ctx.trace_id),
                        vec![
                            ("shard", shard.to_string().into()),
                            ("node", follower.to_string().into()),
                            ("epoch", epoch.to_string().into()),
                            ("from_seq", from.to_string().into()),
                            ("applied_seq", applied.to_string().into()),
                        ],
                    );
                    if stalled > 2 {
                        self.mark_node_down(follower, "applyWal makes no progress");
                        break;
                    }
                } else {
                    stalled = 0;
                }
                from = applied;
                self.progress.lock().insert((shard, follower), from);
                if applied >= leader_seq {
                    break;
                }
            }
        }
        span.set_attr("frames", frames_shipped.to_string());
        if let Some(seq) = observed_leader_seq {
            self.leader_seq.lock().insert(shard, seq);
        }
        let shard_label = shard.to_string();
        self.telemetry
            .registry()
            .gauge(
                "gallery_cluster_replication_lag_ops",
                &[("shard", shard_label.as_str())],
            )
            .set(self.follower_lag(shard) as i64);
        Ok(())
    }

    /// Demote a dead leader: promote the most caught-up live follower.
    /// Holding the map write lock across the election keeps concurrent
    /// failovers of the same shard from double-promoting. When `parent` is
    /// the failing request's span, the election — its `replStatus` probes,
    /// the promotion RPC, and the `cluster.promote`/`cluster.failover`
    /// events — lands in that request's trace.
    fn failover(&self, shard: u32, parent: Option<SpanContext>) {
        let mut span = self.span("cluster/failover", parent);
        span.set_attr("shard", shard.to_string());
        let ctx = span.context();
        let mut map = self.map.write();
        let leader = map.leader_of(shard);
        if self.is_up(leader) {
            span.set_attr("outcome", "already-led");
            return; // someone already failed this shard over
        }
        let mut best: Option<(usize, u64)> = None;
        for follower in map.replicas(shard).followers.clone() {
            if !self.is_up(follower) {
                continue;
            }
            if let Ok(Response::ReplInfo { applied_seq, .. }) =
                self.request_to(follower, shard, &Request::ReplStatus, Some(ctx))
            {
                if best.is_none_or(|(_, seq)| applied_seq > seq) {
                    best = Some((follower, applied_seq));
                }
            }
        }
        let Some((node, applied_seq)) = best else {
            span.set_attr("outcome", "no-live-replica");
            return; // no live replica to promote; the shard is offline
        };
        match self.request_to(
            node,
            shard,
            &Request::SetShardRole {
                role: "leader".into(),
            },
            Some(ctx),
        ) {
            Ok(Response::ReplInfo { .. }) => {}
            _ => {
                span.set_attr("outcome", "promotion-failed");
                return; // promotion did not land; retry on next failure
            }
        }
        map.promote(shard, node);
        let epoch = map.epoch();
        self.counter("gallery_cluster_failovers_total");
        self.telemetry.events().emit_traced(
            kinds::CLUSTER_PROMOTE,
            Some(ctx.trace_id),
            vec![
                ("shard", shard.to_string().into()),
                ("node", node.to_string().into()),
                ("applied_seq", applied_seq.to_string().into()),
            ],
        );
        self.telemetry.events().emit_traced(
            kinds::CLUSTER_FAILOVER,
            Some(ctx.trace_id),
            vec![
                ("shard", shard.to_string().into()),
                ("from", leader.to_string().into()),
                ("to", node.to_string().into()),
                ("epoch", epoch.to_string().into()),
            ],
        );
        span.set_attr("from", leader.to_string());
        span.set_attr("to", node.to_string());
        span.set_attr("epoch", epoch.to_string());
        span.set_attr("outcome", "promoted");
    }

    /// The answering replica disagreed with our map about who leads the
    /// shard. Re-elect from live replicas' own claims.
    fn resolve(&self, shard: u32, parent: Option<SpanContext>) {
        self.counter("gallery_cluster_wrong_shard_total");
        let claimed: Option<usize> = {
            let map = self.map.read();
            map.replicas(shard).all().into_iter().find(|node| {
                self.is_up(*node)
                    && matches!(
                        self.request_to(*node, shard, &Request::ReplStatus, parent),
                        Ok(Response::ReplInfo { ref role, .. }) if role == "leader"
                    )
            })
        };
        match claimed {
            Some(node) => self.map.write().promote(shard, node),
            None => self.failover(shard, parent),
        }
    }

    fn is_wrong_shard(bytes: &Bytes) -> bool {
        matches!(
            Response::decode(bytes.clone()),
            Ok(Response::Err {
                code: ErrorCode::WrongShard,
                ..
            })
        )
    }

    /// Forward a mutation to the shard leader and pump replication before
    /// acking. Any failure surfaces as a retryable transport error; the
    /// retried frame carries the same idempotency key, so the leader
    /// replays instead of re-executing.
    fn forward_mutation(
        &self,
        shard: u32,
        frame: Bytes,
        span: &mut Span,
    ) -> Result<Bytes, TransportError> {
        let ctx = span.context();
        let leader = self.map.read().leader_of(shard);
        if !self.is_up(leader) {
            self.failover(shard, Some(ctx));
            return Err(TransportError::new(
                TransportErrorKind::LeaderUnavailable,
                format!("shard {shard} leader {leader} is down; failed over"),
            ));
        }
        span.set_attr("leader", leader.to_string());
        self.metrics.forwards_leader.inc();
        let response = match self.call_node(leader, encode_sharded(shard, frame)) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.failover(shard, Some(ctx));
                return Err(TransportError::new(
                    TransportErrorKind::LeaderUnavailable,
                    format!(
                        "shard {shard} leader {leader} failed mid-write: {}",
                        e.message
                    ),
                ));
            }
        };
        if Self::is_wrong_shard(&response) {
            self.resolve(shard, Some(ctx));
            return Err(TransportError::new(
                TransportErrorKind::WrongShard,
                format!("shard {shard}: node {leader} no longer leads; map re-resolved"),
            ));
        }
        // Pump BEFORE acking. If the leader dies here the client never
        // sees an ack, so the write is not "lost" even if the op vanishes
        // with the dead leader. The ship segment is annotated on the route
        // span — time the ack spent waiting on follower replication.
        let time = Arc::clone(self.telemetry.time_source());
        let ship_start = time.now_ms();
        let pumped = self.pump_traced(shard, Some(ctx));
        span.set_attr("ship_ms", (time.now_ms() - ship_start).to_string());
        pumped?;
        Ok(response)
    }

    /// Pick the replica to serve a read: the leader, or — when follower
    /// reads are on — round-robin over the leader and every live follower
    /// within the staleness budget.
    fn pick_read_target(&self, shard: u32) -> (usize, bool) {
        let map = self.map.read();
        let replicas = map.replicas(shard);
        let leader = replicas.leader;
        if !self.follower_reads {
            return (leader, false);
        }
        let leader_seq = self.leader_seq.lock().get(&shard).copied().unwrap_or(0);
        let progress = self.progress.lock();
        let mut candidates: Vec<(usize, bool)> = vec![(leader, false)];
        for f in &replicas.followers {
            if !self.is_up(*f) {
                continue;
            }
            let lag = leader_seq.saturating_sub(progress.get(&(shard, *f)).copied().unwrap_or(0));
            if lag <= self.staleness_budget_ops {
                candidates.push((*f, true));
            }
        }
        let pick = self.reads_rr.fetch_add(1, Ordering::Relaxed) as usize % candidates.len();
        candidates[pick]
    }

    fn forward_read(
        &self,
        shard: u32,
        frame: Bytes,
        span: &mut Span,
    ) -> Result<Bytes, TransportError> {
        let ctx = span.context();
        let (target, is_follower) = self.pick_read_target(shard);
        if !self.is_up(target) {
            if !is_follower {
                self.failover(shard, Some(ctx));
            }
            return Err(TransportError::new(
                TransportErrorKind::LeaderUnavailable,
                format!("shard {shard} read target {target} is down"),
            ));
        }
        if is_follower {
            self.metrics.follower_reads.inc();
            self.metrics.forwards_follower.inc();
        } else {
            self.metrics.forwards_leader.inc();
        }
        let response = match self.call_node(target, encode_sharded(shard, frame)) {
            Ok(bytes) => bytes,
            Err(e) => {
                if !is_follower {
                    self.failover(shard, Some(ctx));
                }
                return Err(TransportError::new(
                    TransportErrorKind::LeaderUnavailable,
                    format!("shard {shard} read failed on node {target}: {}", e.message),
                ));
            }
        };
        if Self::is_wrong_shard(&response) {
            self.resolve(shard, Some(ctx));
            return Err(TransportError::new(
                TransportErrorKind::WrongShard,
                format!("shard {shard}: stale read routing; map re-resolved"),
            ));
        }
        Ok(response)
    }

    /// modelQuery across every shard, merged into one response. Each
    /// shard's slice may come from a bounded-staleness follower; the
    /// merged result is sorted by creation time then id so the output is
    /// deterministic regardless of shard visit order.
    fn scatter(&self, frame: Bytes, span: &mut Span) -> Result<Bytes, TransportError> {
        let shards = self.shard_count();
        let mut merged = Vec::new();
        for shard in 0..shards {
            let bytes = self.forward_read(shard, frame.clone(), span)?;
            match Response::decode(bytes.clone()) {
                Ok(Response::Instances(list)) => merged.extend(list),
                Ok(Response::Err { .. }) => return Ok(bytes),
                Ok(other) => {
                    return Err(TransportError::new(
                        TransportErrorKind::RequestDropped,
                        format!("shard {shard} answered modelQuery with {other:?}"),
                    ))
                }
                Err(e) => {
                    return Err(TransportError::new(
                        TransportErrorKind::RequestDropped,
                        format!("protocol: {e}"),
                    ))
                }
            }
        }
        merged.sort_by(|a, b| a.created_at.cmp(&b.created_at).then(a.id.cmp(&b.id)));
        Ok(Response::Instances(merged).encode())
    }

    /// Federate the cluster's metrics into one exposition: scrape every
    /// live node's Prometheus text over the wire (`Probe{"metrics"}`),
    /// re-label each node's series with `node="<id>"` (the router's own
    /// registry as `node="router"`), and prepend cluster-level derived
    /// gauges — liveness, per-follower applied-seq lag, follower-read
    /// staleness. A node that fails its scrape is skipped (and marked
    /// down), visible as `gallery_cluster_node_up{node} 0` rather than an
    /// error. The output parses under `parse_exposition`; `# TYPE` lines
    /// are deduped across sections since every node exports the same
    /// families.
    pub fn federate(&self) -> String {
        let map = self.map.read().clone();
        // Scrape first: failures update liveness, so the derived gauges
        // below describe the cluster as seen by *this* scrape.
        let mut sections: Vec<(String, String)> = Vec::new();
        for node in 0..self.node_count() {
            if !self.is_up(node) {
                continue;
            }
            let Some(&shard) = map.shards_of(node).first() else {
                continue;
            };
            let request = Request::Probe {
                section: "metrics".into(),
            };
            match self.request_to(node, shard, &request, None) {
                Ok(Response::Text(text)) => sections.push((node.to_string(), text)),
                _ => continue, // marked down by call_node; skipped below
            }
        }

        let derived = Registry::new();
        let live = (0..self.node_count()).filter(|n| self.is_up(*n)).count();
        derived
            .gauge("gallery_cluster_live_nodes", &[])
            .set(live as i64);
        for node in 0..self.node_count() {
            let node_label = node.to_string();
            derived
                .gauge("gallery_cluster_node_up", &[("node", node_label.as_str())])
                .set(i64::from(self.is_up(node)));
        }
        {
            let leader_seq = self.leader_seq.lock().clone();
            let progress = self.progress.lock().clone();
            for shard in 0..map.shard_count() {
                let shard_label = shard.to_string();
                let lseq = leader_seq.get(&shard).copied().unwrap_or(0);
                let mut staleness = 0u64;
                for f in &map.replicas(shard).followers {
                    let lag = lseq.saturating_sub(progress.get(&(shard, *f)).copied().unwrap_or(0));
                    let node_label = f.to_string();
                    derived
                        .gauge(
                            "gallery_cluster_shard_applied_lag_ops",
                            &[
                                ("shard", shard_label.as_str()),
                                ("node", node_label.as_str()),
                            ],
                        )
                        .set(lag as i64);
                    // Staleness of follower reads: the worst lag among the
                    // followers reads may actually land on (live and within
                    // budget).
                    if self.follower_reads && self.is_up(*f) && lag <= self.staleness_budget_ops {
                        staleness = staleness.max(lag);
                    }
                }
                derived
                    .gauge(
                        "gallery_cluster_read_staleness_ops",
                        &[("shard", shard_label.as_str())],
                    )
                    .set(staleness as i64);
            }
        }

        let mut out = String::new();
        let mut typed = HashSet::new();
        append_exposition_section(&mut out, &mut typed, &derived.render_text());
        if let Ok(text) = relabel_exposition(&self.telemetry.render_text(), &[("node", "router")]) {
            append_exposition_section(&mut out, &mut typed, &text);
        }
        for (node_label, text) in &sections {
            if let Ok(text) = relabel_exposition(text, &[("node", node_label.as_str())]) {
                append_exposition_section(&mut out, &mut typed, &text);
            }
        }
        out
    }
}

/// Append one exposition section, keeping only the first `# TYPE` line
/// per family: federated output concatenates many nodes that all export
/// the same families.
fn append_exposition_section(out: &mut String, typed: &mut HashSet<String>, section: &str) {
    for line in section.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap_or_default();
            if !typed.insert(name.to_string()) {
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
}

impl Transport for ClusterRouter {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError> {
        let decoded = match Request::decode_full(frame.clone()) {
            Ok(d) => d,
            Err(e) => {
                return Ok(Response::Err {
                    code: ErrorCode::Invalid,
                    message: e.to_string(),
                }
                .encode())
            }
        };
        // The route span: child of the client's span when the frame
        // carries a trace envelope, a fresh root otherwise. The inner
        // frame is still forwarded byte-for-byte, so the node's server
        // span parents to the *client* span — route and server spans are
        // siblings under the same root, and the shipping/failover work
        // hangs off the route span.
        let mut span = self.span("cluster/route", decoded.trace);
        span.set_attr("method", decoded.request.method_name());
        // A cluster-section probe is answered by the router itself: shard
        // state, liveness, and every node's registry are only visible
        // here.
        if matches!(&decoded.request, Request::Probe { section } if section == "cluster") {
            span.set_attr("route", "router");
            span.set_attr("outcome", "ok");
            let text = self.federate();
            span.finish();
            return Ok(Response::Text(text).encode());
        }
        let shards = self.shard_count();
        let result = match route_of(&decoded.request) {
            Route::Scatter => {
                span.set_attr("route", "scatter");
                self.scatter(frame, &mut span)
            }
            Route::Control => {
                span.set_attr("route", "control");
                if decoded.request.is_mutating() {
                    self.forward_mutation(0, frame, &mut span)
                } else {
                    self.forward_read(0, frame, &mut span)
                }
            }
            Route::Key(key) => {
                let shard = shard_of(&key, shards);
                span.set_attr("route", "key");
                span.set_attr("shard", shard.to_string());
                if decoded.request.is_mutating() {
                    self.forward_mutation(shard, frame, &mut span)
                } else {
                    self.forward_read(shard, frame, &mut span)
                }
            }
        };
        span.set_attr("outcome", if result.is_ok() { "ok" } else { "error" });
        span.finish();
        result
    }
}
