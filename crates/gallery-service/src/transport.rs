//! Transports carrying framed messages between clients and servers.
//!
//! Production Gallery speaks Thrift over the network; this reproduction
//! ships an in-process transport that still round-trips every message
//! through the full binary encode/decode path, preserving the serialization
//! boundary (no shared memory shortcuts). Because the server is stateless,
//! multiple server instances can drain the same listener queue — the
//! "horizontally scalable across different data centers" property, scaled
//! down to threads.

use crate::server::GalleryServer;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gallery_core::clock::ManualClock;
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::LatencyModel;
use std::fmt;
use std::sync::Arc;

/// A client-side connection: sends a framed request, receives a framed
/// response.
pub trait Transport: Send + Sync {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError>;
}

/// What went wrong at the transport layer. Every kind is *transient* —
/// the defining property of a transport error is that the remote
/// application never returned a verdict, so a retry may succeed. Errors
/// the server did decide on travel as [`crate::messages::Response::Err`],
/// not as transport errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The connection (queue) to the cluster is gone.
    ConnectionLost,
    /// The request was accepted but dropped before a response was sent.
    RequestDropped,
    /// An injected fault fired at a chaos site.
    Injected,
    /// The node that answered no longer owns the target shard (stale
    /// shard map, mid-failover role change). Retrying through the router
    /// re-resolves the shard map, so this is transient by construction.
    WrongShard,
    /// The shard's leader is down or mid-failover and no replica can
    /// accept the write yet. Transient: a retry after the router promotes
    /// a follower succeeds.
    LeaderUnavailable,
}

/// Transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    pub kind: TransportErrorKind,
    pub message: String,
}

impl TransportError {
    pub fn new(kind: TransportErrorKind, message: impl Into<String>) -> Self {
        TransportError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transport error: {}", self.message)
    }
}

impl std::error::Error for TransportError {}

enum Envelope {
    Request(Bytes, Sender<Bytes>),
    Shutdown,
}

/// An in-process "service cluster": N server replicas, each on its own
/// thread, draining one shared queue.
pub struct InProcCluster {
    tx: Sender<Envelope>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl InProcCluster {
    /// Start `replicas` stateless servers over the same Gallery. Fails if
    /// a replica's thread cannot be spawned; the replicas already started
    /// are shut down.
    pub fn start(
        make_server: impl Fn() -> GalleryServer,
        replicas: usize,
    ) -> std::io::Result<Self> {
        let (tx, rx) = unbounded::<Envelope>();
        let mut cluster = InProcCluster {
            tx,
            workers: Vec::new(),
        };
        for i in 0..replicas.max(1) {
            let rx: Receiver<Envelope> = rx.clone();
            let server = make_server();
            let worker = std::thread::Builder::new()
                .name(format!("gallery-server-{i}"))
                .spawn(move || {
                    while let Ok(envelope) = rx.recv() {
                        match envelope {
                            Envelope::Shutdown => break,
                            Envelope::Request(frame, reply) => {
                                let response = server.handle_frame(frame);
                                let _ = reply.send(response);
                            }
                        }
                    }
                })?;
            cluster.workers.push(worker);
        }
        Ok(cluster)
    }

    /// Open a client connection to the cluster.
    pub fn connect(&self) -> Arc<dyn Transport> {
        Arc::new(InProcTransport {
            tx: self.tx.clone(),
        })
    }

    pub fn replica_count(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for InProcCluster {
    fn drop(&mut self) {
        // One poison pill per replica; clients may still hold senders, so
        // the queue itself never closes — workers exit on the pill.
        for _ in &self.workers {
            let _ = self.tx.send(Envelope::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct InProcTransport {
    tx: Sender<Envelope>,
}

impl Transport for InProcTransport {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError> {
        let (reply_tx, reply_rx) = unbounded();
        self.tx
            .send(Envelope::Request(frame, reply_tx))
            .map_err(|_| {
                TransportError::new(TransportErrorKind::ConnectionLost, "cluster is down")
            })?;
        reply_rx.recv().map_err(|_| {
            TransportError::new(
                TransportErrorKind::RequestDropped,
                "server dropped the request",
            )
        })
    }
}

/// A zero-thread transport that dispatches directly into one server (used
/// by benchmarks to isolate encode/decode cost from queue hops).
pub struct DirectTransport {
    server: Arc<GalleryServer>,
}

impl DirectTransport {
    pub fn new(server: Arc<GalleryServer>) -> Self {
        DirectTransport { server }
    }
}

impl Transport for DirectTransport {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError> {
        Ok(self.server.handle_frame(frame))
    }
}

/// Chaos decorator: injects faults from a [`FaultPlan`] around any inner
/// transport. Two sites with very different semantics:
///
/// - [`sites::RPC_SEND`] fires *before* the inner call — the request never
///   reached the server. A retry is trivially safe.
/// - [`sites::RPC_RECV`] fires *after* the inner call — the server
///   processed the request but the response was lost. This is the
///   ambiguous failure that makes blind retry of mutating requests unsafe
///   and is exactly what idempotency keys exist for.
pub struct FlakyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
}

impl FlakyTransport {
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> Self {
        FlakyTransport { inner, plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Transport for FlakyTransport {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError> {
        if self.plan.should_fail(sites::RPC_SEND) {
            return Err(TransportError::new(
                TransportErrorKind::Injected,
                format!("injected fault at {}", sites::RPC_SEND),
            ));
        }
        let reply = self.inner.call(frame)?;
        if self.plan.should_fail(sites::RPC_RECV) {
            // The request WAS processed; only the response is lost.
            return Err(TransportError::new(
                TransportErrorKind::Injected,
                format!("injected fault at {}", sites::RPC_RECV),
            ));
        }
        Ok(reply)
    }
}

/// Latency decorator: charges a [`LatencyModel`] cost for each request and
/// response by advancing a shared [`ManualClock`] — simulated network time
/// with zero wall-clock cost, so chaos experiments can measure
/// latency-with-retries deterministically.
pub struct LatentTransport {
    inner: Arc<dyn Transport>,
    clock: ManualClock,
    model: LatencyModel,
}

impl LatentTransport {
    pub fn new(inner: Arc<dyn Transport>, clock: ManualClock, model: LatencyModel) -> Self {
        LatentTransport {
            inner,
            clock,
            model,
        }
    }
}

impl Transport for LatentTransport {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError> {
        self.clock
            .advance(self.model.cost(frame.len()).as_millis() as i64);
        let reply = self.inner.call(frame)?;
        self.clock
            .advance(self.model.cost(reply.len()).as_millis() as i64);
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Request, Response};
    use gallery_core::{Clock, Gallery};

    #[test]
    fn cluster_round_trip() {
        let gallery = Arc::new(Gallery::in_memory());
        let cluster = InProcCluster::start(
            {
                let gallery = Arc::clone(&gallery);
                move || GalleryServer::new(Arc::clone(&gallery))
            },
            3,
        )
        .unwrap();
        assert_eq!(cluster.replica_count(), 3);
        let transport = cluster.connect();
        let resp = transport
            .call(
                Request::CreateModel {
                    project: "p".into(),
                    base_version_id: "b".into(),
                    name: "m".into(),
                    owner: "o".into(),
                    description: "".into(),
                    metadata_json: "{}".into(),
                }
                .encode(),
            )
            .unwrap();
        assert!(matches!(
            Response::decode(resp).unwrap(),
            Response::ModelInfo(_)
        ));
    }

    #[test]
    fn replicas_share_state() {
        // Two clients, many requests: whichever replica serves a request,
        // the data written through one connection is visible through the
        // other (statelessness).
        let gallery = Arc::new(Gallery::in_memory());
        let cluster = InProcCluster::start(
            {
                let gallery = Arc::clone(&gallery);
                move || GalleryServer::new(Arc::clone(&gallery))
            },
            4,
        )
        .unwrap();
        let c1 = cluster.connect();
        let c2 = cluster.connect();
        let resp = c1
            .call(
                Request::CreateModel {
                    project: "p".into(),
                    base_version_id: "shared".into(),
                    name: "m".into(),
                    owner: "o".into(),
                    description: "".into(),
                    metadata_json: "{}".into(),
                }
                .encode(),
            )
            .unwrap();
        let Response::ModelInfo(model) = Response::decode(resp).unwrap() else {
            panic!("expected model");
        };
        let resp = c2
            .call(Request::GetModel { model_id: model.id }.encode())
            .unwrap();
        assert!(matches!(
            Response::decode(resp).unwrap(),
            Response::ModelInfo(_)
        ));
    }

    #[test]
    fn flaky_send_fault_blocks_request_recv_fault_loses_response() {
        let gallery = Arc::new(Gallery::in_memory());
        let server = Arc::new(GalleryServer::new(Arc::clone(&gallery)));
        let plan = FaultPlan::none();
        let flaky = FlakyTransport::new(Arc::new(DirectTransport::new(server)), plan.clone());
        let create = Request::CreateModel {
            project: "p".into(),
            base_version_id: "b".into(),
            name: "m".into(),
            owner: "o".into(),
            description: "".into(),
            metadata_json: "{}".into(),
        };
        // rpc.send: server never sees the request.
        let all = gallery_store::Query::all;
        plan.fail_first_n(sites::RPC_SEND, 1);
        let err = flaky.call(create.encode()).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Injected);
        assert!(gallery.find_models(&all()).unwrap().is_empty());
        // rpc.recv: server processed it, response lost.
        plan.fail_first_n(sites::RPC_RECV, 1);
        let err = flaky.call(create.encode()).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Injected);
        assert_eq!(gallery.find_models(&all()).unwrap().len(), 1);
    }

    #[test]
    fn latent_transport_advances_clock() {
        let server = Arc::new(GalleryServer::new(Arc::new(Gallery::in_memory())));
        let clock = ManualClock::new(0);
        let model = LatencyModel {
            per_request: std::time::Duration::from_millis(10),
            per_byte_ns: 0.0,
        };
        let t = LatentTransport::new(Arc::new(DirectTransport::new(server)), clock.clone(), model);
        let _ = t
            .call(
                Request::GetModel {
                    model_id: "ghost".into(),
                }
                .encode(),
            )
            .unwrap();
        // 10ms out + 10ms back.
        assert!(clock.now_ms() >= 20);
    }

    #[test]
    fn direct_transport() {
        let server = Arc::new(GalleryServer::new(Arc::new(Gallery::in_memory())));
        let t = DirectTransport::new(server);
        let resp = t
            .call(
                Request::GetModel {
                    model_id: "ghost".into(),
                }
                .encode(),
            )
            .unwrap();
        assert!(matches!(
            Response::decode(resp).unwrap(),
            Response::Err { .. }
        ));
    }
}
