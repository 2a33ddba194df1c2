//! # gallery-service
//!
//! The service layer of Gallery (§4.1 of the paper): a compact binary wire
//! protocol standing in for Thrift, a stateless [`server::GalleryServer`]
//! dispatching requests against the shared registry, and a typed
//! [`client::GalleryClient`] mirroring the paper's language-specific
//! clients (Listings 3–5).
//!
//! Transports ([`transport`]) carry framed messages; the in-process
//! cluster runs several stateless replicas over one store, preserving the
//! paper's horizontal-scalability property at thread scale.
//!
//! The [`resilience`] module hardens the client side: bounded retries
//! with deterministic jittered backoff, per-call deadlines, per-endpoint
//! circuit breakers, and idempotency-keyed mutations deduped by the
//! server's [`server::IdempotencyCache`]. See `docs/resilience.md`.
//!
//! The whole layer is instrumented through [`gallery_telemetry`]
//! (re-exported as [`telemetry`]): every logical client call opens a
//! `rpc.client/<method>` span whose context rides the wire in the trace
//! envelope, every physical attempt emits a `rpc.attempt` event, breaker
//! flips emit `breaker.transition` events, and the server records a
//! `rpc.server/<method>` child span plus `gallery_rpc_*` counters and
//! latency histograms. See `docs/observability.md`.

// Tests may unwrap freely; non-test code is held to the clippy.toml
// disallowed-methods ban (no unwrap/expect on a request's path).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod client;
pub mod cluster;
pub mod messages;
pub mod resilience;
pub mod server;
pub mod transport;
pub mod wire;

pub use gallery_telemetry as telemetry;

/// Decimal text of a number for a span attribute or an event field.
/// Nearly every such number on the request path is 0 or 1 (whole
/// milliseconds spent, the attempt number), and those borrow a literal.
pub(crate) fn decimal<T>(n: T) -> std::borrow::Cow<'static, str>
where
    T: std::fmt::Display + PartialEq + From<u8>,
{
    if n == T::from(0) {
        "0".into()
    } else if n == T::from(1) {
        "1".into()
    } else {
        n.to_string().into()
    }
}

pub use client::{ClientError, GalleryClient};
pub use cluster::{
    run_drill, ClusterConfig, ClusterRouter, DrillAction, DrillPlan, DrillReport, SimCluster,
};
pub use messages::{
    DecodedRequest, ErrorCode, HealthDto, InstanceDto, ModelDto, Request, Response, WireConstraint,
    WireDiagnostic, WireOp, WireValue, WireWalFrame,
};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, Resilience, ResilienceStats, RetryPolicy,
};
pub use server::{GalleryServer, IdempotencyCache, ReplicaRole, Reply};
pub use transport::{
    DirectTransport, FlakyTransport, InProcCluster, LatentTransport, Transport, TransportError,
    TransportErrorKind,
};
pub use wire::{Reader, WireError, Writer};
