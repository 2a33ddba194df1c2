//! Sharded, replicated multi-node Gallery (docs/replication.md).
//!
//! The paper runs Gallery as a stateless service tier over shared MySQL +
//! HDFS; this module scales the *stateful* tier out instead: model state
//! is consistent-hash-sharded across N nodes by entity UUID, each shard
//! is replicated leader → followers by WAL shipping, and a
//! [`ClusterRouter`] — itself just a [`crate::Transport`] — fronts the
//! whole thing so the typed client, resilience bundle, idempotency keys,
//! and chaos decorators all work unchanged against a cluster.
//!
//! Pieces:
//! - [`ring`]: shard → replica-set placement ([`ShardMap`]);
//! - [`node`]: a [`ClusterNode`] hosting one [`crate::GalleryServer`]
//!   replica per shard it participates in;
//! - [`router`]: routing, forwarding, synchronous replication pumping,
//!   failover;
//! - [`drill`]: deterministic kill-a-node drills asserting zero lost
//!   acknowledged writes and bounded follower staleness.

pub mod drill;
pub mod node;
pub mod ring;
pub mod router;

pub use drill::{run_drill, DrillAction, DrillPlan, DrillReport};
pub use node::{ClusterNode, NodeTransport, ThreadedNodeTransport};
pub use ring::{ShardMap, ShardReplicas};
pub use router::ClusterRouter;

use crate::server::{GalleryServer, IdempotencyCache, ReplicaRole};
use crate::transport::Transport;
use gallery_core::{Clock, Gallery, IdPolicy, SystemClock};
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::{Dal, MetadataStore, ObjectStore};
use gallery_telemetry::{kinds, Registry, Telemetry};
use std::sync::Arc;

/// Shape of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node (process) count.
    pub nodes: usize,
    /// Fixed shard count — the unit of placement. More shards than nodes
    /// keeps rebalancing granular (Redis-slot style).
    pub shards: u32,
    /// Replicas per shard (1 = leader only, no fault tolerance).
    pub replication: usize,
    /// Serve eligible reads from followers within the staleness budget.
    pub follower_reads: bool,
    /// Max follower lag, in oplog ops, a follower read may observe.
    pub staleness_budget_ops: u64,
    /// One worker thread per node (throughput experiments) instead of
    /// direct same-thread dispatch (deterministic drills).
    pub threaded: bool,
}

impl ClusterConfig {
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes: nodes.max(1),
            shards: (nodes.max(1) as u32) * 2,
            replication: 2.min(nodes.max(1)),
            follower_reads: true,
            staleness_budget_ops: 0,
            threaded: false,
        }
    }

    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    pub fn with_follower_reads(mut self, on: bool, staleness_budget_ops: u64) -> Self {
        self.follower_reads = on;
        self.staleness_budget_ops = staleness_budget_ops;
        self
    }

    pub fn threaded(mut self) -> Self {
        self.threaded = true;
        self
    }
}

/// An in-process cluster: N [`ClusterNode`]s, a shared blob store, and a
/// [`ClusterRouter`] fronting them. "Sim" because nodes are structs and
/// the network is a function call — but every byte still crosses the
/// full wire encode/decode path, per-node metadata stores are disjoint,
/// and liveness is a real flag the drills flip.
pub struct SimCluster {
    nodes: Vec<Arc<ClusterNode>>,
    router: Arc<ClusterRouter>,
    telemetry: Arc<Telemetry>,
    node_telemetry: Vec<Arc<Telemetry>>,
}

impl SimCluster {
    pub fn start(config: ClusterConfig) -> Self {
        Self::start_with(config, Arc::new(SystemClock), Telemetry::new())
    }

    /// Start with an explicit clock (drills pass a [`gallery_core::ManualClock`])
    /// and telemetry bundle.
    pub fn start_with(
        config: ClusterConfig,
        clock: Arc<dyn Clock>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let map = ShardMap::new(config.shards, config.nodes, config.replication);
        // One blob store for the whole cluster — the stand-in for the
        // shared HDFS/Terrablob tier: blob files on one shared SimFs disk
        // behind one cache. WAL shipping replicates metadata only; blob
        // bytes are durable the moment the leader writes them.
        let blobs: Arc<dyn ObjectStore> = Arc::new(CachedBlobStore::in_memory());
        let shard_total = config.shards;
        // Each node gets a *private* metrics registry — federation
        // (`ClusterRouter::federate`) scrapes the nodes separately and
        // tells them apart by `node` label — but shares the cluster's
        // tracer, event ring, and time source, so a mutation's spans land
        // in one trace no matter how many nodes it crosses.
        let node_telemetry: Vec<Arc<Telemetry>> = (0..config.nodes)
            .map(|_| {
                Telemetry::from_parts(
                    Arc::new(Registry::new()),
                    Arc::clone(telemetry.tracer()),
                    Arc::clone(telemetry.events()),
                    Arc::clone(telemetry.time_source()),
                )
            })
            .collect();
        let nodes: Vec<Arc<ClusterNode>> = (0..config.nodes)
            .map(|id| {
                let shards: Vec<(u32, ReplicaRole)> = map
                    .shards_of(id)
                    .into_iter()
                    .map(|s| {
                        let role = if map.leader_of(s) == id {
                            ReplicaRole::Leader
                        } else {
                            ReplicaRole::Follower
                        };
                        (s, role)
                    })
                    .collect();
                let blobs = Arc::clone(&blobs);
                let clock = Arc::clone(&clock);
                let telemetry = Arc::clone(&node_telemetry[id]);
                Arc::new(ClusterNode::new(
                    id,
                    &shards,
                    Box::new(move |shard, role| {
                        // Each replica writes its own log, on its own
                        // in-memory disk; a revived node starts a fresh one.
                        let dal = Arc::new(
                            Dal::new(Arc::new(MetadataStore::in_memory()), Arc::clone(&blobs))
                                .with_telemetry(Arc::clone(&telemetry)),
                        );
                        // A fresh store + static schemas cannot fail; a
                        // panic here is a schema bug the schema tests own.
                        #[allow(clippy::disallowed_methods)]
                        let gallery = Gallery::open(dal, Arc::clone(&clock))
                            .expect("fresh in-memory replica store cannot fail")
                            .with_id_policy(IdPolicy::new(shard, shard_total))
                            .with_telemetry(Arc::clone(&telemetry));
                        Arc::new(
                            GalleryServer::new(Arc::new(gallery))
                                .with_telemetry(Arc::clone(&telemetry))
                                .with_idempotency(
                                    IdempotencyCache::default().with_telemetry(&telemetry),
                                )
                                .with_role(role),
                        )
                    }),
                ))
            })
            .collect();
        let transports: Vec<Arc<dyn Transport>> = nodes
            .iter()
            .map(|node| {
                if config.threaded {
                    Arc::new(ThreadedNodeTransport::start(Arc::clone(node))) as Arc<dyn Transport>
                } else {
                    Arc::new(NodeTransport::new(Arc::clone(node))) as Arc<dyn Transport>
                }
            })
            .collect();
        let router = Arc::new(ClusterRouter::new(
            transports,
            map,
            config.follower_reads,
            config.staleness_budget_ops,
            Arc::clone(&telemetry),
        ));
        SimCluster {
            nodes,
            router,
            telemetry,
            node_telemetry,
        }
    }

    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// The cluster as a client transport.
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.router) as Arc<dyn Transport>
    }

    pub fn node(&self, id: usize) -> &Arc<ClusterNode> {
        &self.nodes[id]
    }

    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One node's telemetry bundle: its private metrics registry plus the
    /// shared tracer/event ring (see `start_with`).
    pub fn node_telemetry(&self, id: usize) -> &Arc<Telemetry> {
        &self.node_telemetry[id]
    }

    /// Kill a node: every call to it fails at the transport from now on.
    /// The router notices on its next forward and fails affected shards
    /// over — the drill does not tip it off out of band.
    pub fn kill_node(&self, id: usize) {
        self.nodes[id].set_down(true);
    }

    /// Revive a node. Replicas of shards the node still *leads* (no
    /// failover happened while it was down — followers rejected writes,
    /// so no divergence is possible) keep their state. Replicas of shards
    /// it follows are reset to an empty store and re-shipped from the
    /// current leader's log, which resolves any divergent never-acked
    /// suffix a demoted leader may hold.
    pub fn revive_node(&self, id: usize) {
        self.nodes[id].set_down(false);
        self.router.mark_node_up(id);
        let map = self.router.map_snapshot();
        let mut reshipped = 0u64;
        for shard in map.shards_of(id) {
            if map.leader_of(shard) == id {
                continue;
            }
            self.nodes[id].reset_replica(shard, ReplicaRole::Follower);
            self.router.reset_progress(shard, id);
            let _ = self.router.pump(shard);
            reshipped += 1;
        }
        self.telemetry.events().emit(
            kinds::CLUSTER_RESYNC,
            vec![
                ("node", id.to_string().into()),
                ("shipped", reshipped.to_string().into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GalleryClient;

    #[test]
    fn sharded_cluster_serves_the_full_client_surface() {
        let cluster = SimCluster::start(ClusterConfig::new(3).with_shards(6).with_replication(2));
        let client = GalleryClient::new(cluster.transport());
        // Writes land on different shards; reads route back by id alone.
        let mut ids = Vec::new();
        for i in 0..12 {
            let model = client
                .create_model("p", &format!("bv-{i}"), "m", "o", "", "{}")
                .unwrap();
            ids.push(model.id);
        }
        for id in &ids {
            assert_eq!(client.get_model(id).unwrap().id, *id);
        }
        // Minted ids hash to the shard their base version routed to.
        let shards = cluster.router().shard_count();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                gallery_core::shard_of(id, shards),
                gallery_core::shard_of(&format!("bv-{i}"), shards),
                "model id colocated with its base version"
            );
        }
        // Blobs ride the shared store: upload + fetch round-trips.
        let instance = client
            .upload_model(&ids[0], "{}", bytes::Bytes::from_static(b"weights"))
            .unwrap();
        assert_eq!(&client.fetch_blob(&instance.id).unwrap()[..], b"weights");
        // Scatter-gather modelQuery sees every shard's instances.
        let all = client.model_query(Vec::new()).unwrap();
        assert_eq!(all.len(), 1);
        // Writes were pumped to followers before acking: zero lag.
        for shard in 0..shards {
            assert_eq!(cluster.router().follower_lag(shard), 0, "shard {shard}");
        }
    }

    #[test]
    fn replicas_converge_after_each_ack() {
        let cluster = SimCluster::start(ClusterConfig::new(2).with_shards(4).with_replication(2));
        let client = GalleryClient::new(cluster.transport());
        let model = client
            .create_model("p", "bv-x", "m", "o", "", "{}")
            .unwrap();
        let shard = gallery_core::shard_of(&model.id, cluster.router().shard_count());
        let map = cluster.router().map_snapshot();
        for node in map.replicas(shard).all() {
            let server = cluster.node(node).replica(shard).unwrap();
            assert!(
                server
                    .gallery()
                    .get_model(&gallery_core::ModelId(model.id.clone()))
                    .is_ok(),
                "replica on node {node} has the model"
            );
        }
    }
}
