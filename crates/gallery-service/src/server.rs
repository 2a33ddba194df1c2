//! The stateless Gallery service (§4): decodes wire requests, dispatches
//! against the shared registry (and optional rule engine), encodes wire
//! responses. "Gallery was ... built as a stateless microservice": all
//! state lives in the storage layer, so any number of `GalleryServer`
//! instances can serve the same store.

use crate::decimal;
use crate::messages::{
    instances_frame, ErrorCode, HealthDto, InstanceDto, ModelDto, PerMethod, Request, Response,
    WireConstraint, WireDiagnostic, WireOp, WireValue,
};
use bytes::Bytes;
use gallery_core::metadata::Metadata;
use gallery_core::{
    Gallery, GalleryError, InstanceId, InstanceRows, InstanceSpec, MetricScope, MetricSpec, Model,
    ModelId, ModelInstance, ModelSpec, Stage,
};
use gallery_rules::RuleEngine;
use gallery_store::{Constraint, Op, StoreError, Value};
use gallery_sync::locks::OrderedMutex;
use gallery_sync::rank;
use gallery_telemetry::{kinds, AlertEngine, Counter, Histogram, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Server-side idempotency-key dedupe (the other half of the client's
/// keyed-request envelope). Maps key → the encoded response of the first
/// execution; a replayed key returns the recorded response without
/// re-dispatching, making client retries after lost responses safe.
///
/// Only *successful* responses are recorded: a server-side failure leaves
/// the key unclaimed so the client's retry gets a fresh execution.
///
/// The cache is bounded two ways: an LRU capacity (replays touch their
/// key, so keys a client is actively retrying survive even when the cache
/// churns at capacity — a FIFO would evict exactly the hot keys under
/// write bursts) and an optional TTL (a retry older than the client's own
/// give-up horizon no longer needs dedupe). Either bound re-opens the
/// (remote) possibility of double execution for very old retries;
/// capacity should comfortably exceed the number of in-flight mutations.
///
/// Cloning shares state — hand one cache to every replica of a *stateless*
/// server pool so a retry landing on a different replica still dedupes
/// (the role a shared Redis/MySQL table plays in production). Do NOT
/// share one cache across replicas with *distinct* stores (e.g. the
/// shard replicas of docs/replication.md): a cached response would then
/// claim an op that the replica's own store never saw.
#[derive(Clone)]
pub struct IdempotencyCache {
    inner: Arc<OrderedMutex<IdempotencyInner>>,
}

struct IdempotencyEntry {
    response: Bytes,
    /// Recency token; key into `recency`.
    touch: u64,
    /// Absolute expiry (clock ms), when a TTL is configured.
    expires_at: Option<i64>,
}

struct IdempotencyInner {
    by_key: HashMap<String, IdempotencyEntry>,
    /// Recency index: monotone touch token → key. The smallest token is
    /// the least recently used key (a BTreeMap stands in for an intrusive
    /// LRU list; entries are few and operations are O(log n)).
    recency: BTreeMap<u64, String>,
    next_touch: u64,
    capacity: usize,
    ttl_ms: Option<i64>,
    clock: Option<Arc<dyn gallery_core::Clock>>,
    evictions: u64,
    evictions_metric: Option<Arc<gallery_telemetry::Counter>>,
}

impl IdempotencyInner {
    fn now(&self) -> i64 {
        self.clock.as_ref().map(|c| c.now_ms()).unwrap_or(0)
    }

    /// Remove `key` from the cache. Returns whether an entry was
    /// evicted; the *caller* mirrors evictions into the telemetry counter
    /// after releasing the cache lock — the counter is shared process
    /// state and has no business inside this critical section.
    fn evict(&mut self, key: &str) -> bool {
        if let Some(entry) = self.by_key.remove(key) {
            self.recency.remove(&entry.touch);
            self.evictions += 1;
            true
        } else {
            false
        }
    }
}

impl IdempotencyCache {
    /// Bounded LRU cache: beyond `capacity` keys the least recently used
    /// (inserted or replayed) are evicted.
    pub fn with_capacity(capacity: usize) -> Self {
        IdempotencyCache {
            inner: Arc::new(OrderedMutex::new(
                rank::IDEMPOTENCY,
                IdempotencyInner {
                    by_key: HashMap::new(),
                    recency: BTreeMap::new(),
                    next_touch: 0,
                    capacity: capacity.max(1),
                    ttl_ms: None,
                    clock: None,
                    evictions: 0,
                    evictions_metric: None,
                },
            )),
        }
    }

    /// Expire entries `ttl_ms` after they were recorded. Needs a clock;
    /// pass a `ManualClock` in tests for deterministic expiry.
    pub fn with_ttl(self, ttl_ms: i64, clock: Arc<dyn gallery_core::Clock>) -> Self {
        {
            let mut inner = self.inner.lock();
            inner.ttl_ms = Some(ttl_ms.max(1));
            inner.clock = Some(clock);
        }
        self
    }

    /// Count evictions into `gallery_idempotency_evictions_total` in the
    /// given telemetry bundle (the in-struct [`IdempotencyCache::evictions`]
    /// count is always kept).
    pub fn with_telemetry(self, telemetry: &Telemetry) -> Self {
        self.inner.lock().evictions_metric = Some(
            telemetry
                .registry()
                .counter("gallery_idempotency_evictions_total", &[]),
        );
        self
    }

    fn get(&self, key: &str) -> Option<Bytes> {
        let mut evicted = 0u64;
        let mut metric = None;
        let result = {
            let mut inner = self.inner.lock();
            let now = inner.now();
            match inner.by_key.get(key) {
                None => None,
                Some(entry) if entry.expires_at.is_some_and(|at| now >= at) => {
                    if inner.evict(key) {
                        evicted += 1;
                        metric = inner.evictions_metric.clone();
                    }
                    None
                }
                Some(entry) => {
                    let response = entry.response.clone();
                    let old_touch = entry.touch;
                    // Replay = use: bump the key to most recently used.
                    let touch = inner.next_touch;
                    inner.next_touch += 1;
                    inner.recency.remove(&old_touch);
                    inner.recency.insert(touch, key.to_owned());
                    if let Some(entry) = inner.by_key.get_mut(key) {
                        entry.touch = touch;
                    }
                    Some(response)
                }
            }
        };
        if evicted > 0 {
            if let Some(m) = metric {
                m.add(evicted);
            }
        }
        result
    }

    fn put(&self, key: String, response: Bytes) {
        let mut evicted = 0u64;
        let metric = {
            let mut inner = self.inner.lock();
            if inner.by_key.contains_key(&key) {
                return;
            }
            while inner.by_key.len() >= inner.capacity {
                match inner.recency.values().next().cloned() {
                    Some(lru) => {
                        if inner.evict(&lru) {
                            evicted += 1;
                        }
                    }
                    None => break,
                }
            }
            let touch = inner.next_touch;
            inner.next_touch += 1;
            let expires_at = inner.ttl_ms.map(|ttl| inner.now() + ttl);
            inner.recency.insert(touch, key.clone());
            inner.by_key.insert(
                key,
                IdempotencyEntry {
                    response,
                    touch,
                    expires_at,
                },
            );
            inner.evictions_metric.clone()
        };
        if evicted > 0 {
            if let Some(m) = metric {
                m.add(evicted);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().by_key.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total keys evicted (capacity or TTL) over this cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }
}

impl Default for IdempotencyCache {
    fn default() -> Self {
        Self::with_capacity(4096)
    }
}

/// A replica's role for the shard it serves (docs/replication.md). The
/// role lives on the server so the write gate and the replication
/// handlers agree without a second source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Accepts client mutations; its oplog is the shard's history.
    Leader,
    /// Applies shipped WAL frames only; client mutations are rejected
    /// with [`ErrorCode::WrongShard`] so the router re-resolves.
    Follower,
}

impl ReplicaRole {
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicaRole::Leader => "leader",
            ReplicaRole::Follower => "follower",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "leader" => Some(ReplicaRole::Leader),
            "follower" => Some(ReplicaRole::Follower),
            _ => None,
        }
    }
}

/// Convert a wire constraint triple into a store constraint, moving its
/// strings.
fn to_store_constraint(c: WireConstraint) -> Constraint {
    let op = match c.op {
        WireOp::Eq => Op::Eq,
        WireOp::Ne => Op::Ne,
        WireOp::Lt => Op::Lt,
        WireOp::Le => Op::Le,
        WireOp::Gt => Op::Gt,
        WireOp::Ge => Op::Ge,
        WireOp::Contains => Op::Contains,
        WireOp::StartsWith => Op::StartsWith,
    };
    let value = match c.value {
        WireValue::Null => Value::Null,
        WireValue::Bool(b) => Value::Bool(b),
        WireValue::Int(i) => Value::Int(i),
        WireValue::Float(x) => Value::Float(x),
        WireValue::Str(s) => Value::Str(s),
    };
    Constraint {
        field: c.field,
        op,
        value,
    }
}

fn model_dto(m: Model) -> ModelDto {
    ModelDto {
        id: m.id.0,
        base_version_id: m.base_version_id.0,
        project: m.project,
        name: m.name,
        owner: m.owner,
        description: m.description,
        metadata_json: m.metadata.to_json(),
        created_at: m.created_at,
        prev: m.prev.map(|p| p.0),
        deprecated: m.deprecated,
    }
}

fn instance_dto(i: ModelInstance) -> InstanceDto {
    InstanceDto {
        id: i.id.0,
        model_id: i.model_id.0,
        base_version_id: i.base_version_id.0,
        display_version: i.display_version.to_string(),
        blob_location: i.blob_location.map(|l| l.0),
        metadata_json: i.metadata.to_json(),
        created_at: i.created_at,
        trigger: i.trigger.encode(),
        parent: i.parent.map(|p| p.0),
        deprecated: i.deprecated,
    }
}

fn error_response(e: GalleryError) -> Response {
    let code = match &e {
        GalleryError::NoSuchModel(_)
        | GalleryError::NoSuchInstance(_)
        | GalleryError::NoSuchDependency { .. }
        | GalleryError::Store(StoreError::NoSuchKey(_))
        | GalleryError::Store(StoreError::NoSuchTable(_))
        | GalleryError::Store(StoreError::NoSuchBlob(_)) => ErrorCode::NotFound,
        GalleryError::ModelExists(_)
        | GalleryError::DuplicateDependency { .. }
        | GalleryError::DependencyCycle { .. }
        | GalleryError::Store(StoreError::DuplicateKey(_)) => ErrorCode::Conflict,
        GalleryError::Invalid(_)
        | GalleryError::IllegalTransition { .. }
        | GalleryError::Deprecated(_)
        | GalleryError::NoCandidates(_) => ErrorCode::Invalid,
        GalleryError::Store(_) => ErrorCode::Storage,
    };
    Response::Err {
        code,
        message: e.to_string(),
    }
}

/// What a request answers before it is framed.
enum Answer {
    Response(Response),
    /// A list of stored instances, framed from their rows
    /// ([`instances_frame`]).
    Instances(InstanceRows),
}

/// A request's framed reply, as [`GalleryServer::dispatch`] returns it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub frame: Bytes,
    /// Whether `frame` is a [`Response::Err`].
    pub is_err: bool,
    /// Time spent answering, in the telemetry clock's milliseconds: in
    /// the registry and the store ...
    pub store_ms: i64,
    /// ... and writing the frame.
    pub encode_ms: i64,
}

/// One method's server-side series, looked up in the registry when the
/// method is first handled (so a series still appears on first use) and
/// recorded through the handle from then on.
#[derive(Default)]
struct MethodSeries {
    requests: OnceLock<Arc<Counter>>,
    handle_ms: OnceLock<Arc<Histogram>>,
}

impl MethodSeries {
    fn requests(&self, telemetry: &Telemetry, method: &str) -> &Counter {
        self.requests.get_or_init(|| {
            telemetry
                .registry()
                .counter("gallery_rpc_server_requests_total", &[("method", method)])
        })
    }

    fn handle_ms(&self, telemetry: &Telemetry, method: &str) -> &Histogram {
        self.handle_ms.get_or_init(|| {
            telemetry.registry().duration_histogram(
                "gallery_rpc_server_handle_duration_ms",
                &[("method", method)],
            )
        })
    }
}

/// A stateless Gallery server.
pub struct GalleryServer {
    gallery: Arc<Gallery>,
    engine: Option<Arc<RuleEngine>>,
    alerts: Option<Arc<AlertEngine>>,
    idempotency: IdempotencyCache,
    telemetry: Arc<Telemetry>,
    /// Handles into `telemetry`'s registry.
    series: PerMethod<MethodSeries>,
    role: OrderedMutex<ReplicaRole>,
}

impl GalleryServer {
    pub fn new(gallery: Arc<Gallery>) -> Self {
        GalleryServer {
            gallery,
            engine: None,
            alerts: None,
            idempotency: IdempotencyCache::default(),
            telemetry: Arc::clone(gallery_telemetry::global()),
            series: PerMethod::default(),
            role: OrderedMutex::new(rank::REPLICA_ROLE, ReplicaRole::Leader),
        }
    }

    /// Record server-side RPC telemetry into an explicit bundle instead of
    /// the global one. Each handled frame gets a `rpc.server/<method>`
    /// span, stitched under the caller's span when the frame carries a
    /// trace envelope.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self.series = PerMethod::default();
        self
    }

    /// Attach a rule engine so that `SelectChampion` / `TriggerRule`
    /// requests can be served.
    pub fn with_engine(mut self, engine: Arc<RuleEngine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attach an alert engine so `Probe { section: "alerts" }` can render
    /// the live status board. Each probe also runs one evaluation tick, so
    /// a pull-only deployment (no background loop) still advances the
    /// alert state machines.
    pub fn with_alerts(mut self, alerts: Arc<AlertEngine>) -> Self {
        self.alerts = Some(alerts);
        self
    }

    /// Share an idempotency cache (use one cache across all replicas of a
    /// cluster so retries dedupe regardless of which replica they hit).
    pub fn with_idempotency(mut self, cache: IdempotencyCache) -> Self {
        self.idempotency = cache;
        self
    }

    /// Start this server in a replica role other than the standalone
    /// default ([`ReplicaRole::Leader`]).
    pub fn with_role(self, role: ReplicaRole) -> Self {
        *self.role.lock() = role;
        self
    }

    pub fn gallery(&self) -> &Arc<Gallery> {
        &self.gallery
    }

    pub fn idempotency(&self) -> &IdempotencyCache {
        &self.idempotency
    }

    pub fn role(&self) -> ReplicaRole {
        *self.role.lock()
    }

    /// The metadata oplog sequence this replica has committed — what WAL
    /// shipping advances and failover compares.
    pub fn applied_seq(&self) -> u64 {
        self.gallery.dal().metadata().applied_seq()
    }

    /// Handle one framed request, producing a framed response. Malformed
    /// frames produce an `Err` response rather than tearing the connection.
    /// Keyed requests replay the recorded response when the key was seen.
    /// Frames carrying a trace envelope get their handler span stitched
    /// into the caller's trace.
    pub fn handle_frame(&self, frame: Bytes) -> Bytes {
        // Timing segments come from the telemetry time source (not
        // `Instant`): real durations under a wall clock, flat zeros under
        // a test's manual clock — which keeps traced runs deterministic.
        let time = self.telemetry.time_source();
        let t_recv = time.now_ms();
        let decoded = match Request::decode_full(frame) {
            Ok(d) => d,
            Err(e) => {
                self.telemetry
                    .registry()
                    .counter("gallery_rpc_server_decode_errors_total", &[])
                    .inc();
                return Response::Err {
                    code: ErrorCode::Invalid,
                    message: e.to_string(),
                }
                .encode();
            }
        };
        let decode_ms = time.now_ms() - t_recv;
        let method = decoded.request.method_name();
        let series = self.series.of(&decoded.request);
        let started = Instant::now();
        let tracer = self.telemetry.tracer();
        let span_name = decoded.request.server_span_name();
        let mut span = match decoded.trace {
            Some(remote) => tracer.start_child(span_name, remote),
            None => tracer.start_span(span_name),
        };
        span.set_attr("method", method);
        let trace_id = span.context().trace_id;
        let reply = match decoded.key {
            Some(key) => {
                if let Some(recorded) = self.idempotency.get(&key) {
                    self.telemetry
                        .registry()
                        .counter(
                            "gallery_rpc_idempotent_replays_total",
                            &[("method", method)],
                        )
                        .inc();
                    self.telemetry.events().emit_traced(
                        kinds::IDEMPOTENT_REPLAY,
                        Some(trace_id),
                        vec![("method", method.into()), ("key", key.into())],
                    );
                    span.set_attr("replay", "true");
                    Reply {
                        frame: recorded,
                        is_err: false,
                        store_ms: 0,
                        encode_ms: 0,
                    }
                } else {
                    let reply = self.dispatch(decoded.request);
                    if !reply.is_err {
                        self.idempotency.put(key, reply.frame.clone());
                    }
                    reply
                }
            }
            None => self.dispatch(decoded.request),
        };
        // Per-request server-side timing segments as span annotations:
        // where inside the node a slow request spent its time. (The ship
        // segment is router-side, on the route span.)
        span.set_attr("decode_ms", decimal(decode_ms));
        span.set_attr("store_ms", decimal(reply.store_ms));
        span.set_attr("encode_ms", decimal(reply.encode_ms));
        series.requests(&self.telemetry, method).inc();
        series
            .handle_ms(&self.telemetry, method)
            .observe_since(started);
        span.finish();
        reply.frame
    }

    /// Dispatch a decoded request and frame its reply, timing the two
    /// apart. Client mutations are gated on the replica role: a follower
    /// answers them with `WrongShard` so the router (or a direct client)
    /// re-resolves who leads the shard.
    pub fn dispatch(&self, request: Request) -> Reply {
        let time = self.telemetry.time_source();
        let t0 = time.now_ms();
        let answer = if request.is_mutating() && self.role() == ReplicaRole::Follower {
            Ok(Answer::Response(Response::Err {
                code: ErrorCode::WrongShard,
                message: format!(
                    "{} requires the shard leader; this replica is a follower",
                    request.method_name()
                ),
            }))
        } else {
            self.try_dispatch(request)
        };
        let t1 = time.now_ms();
        let (frame, is_err) = match answer {
            Ok(Answer::Instances(rows)) => match instances_frame(&rows) {
                Ok(frame) => (frame, false),
                Err(e) => (error_response(e).encode(), true),
            },
            Ok(Answer::Response(response)) => {
                let is_err = matches!(response, Response::Err { .. });
                (response.encode(), is_err)
            }
            Err(e) => (error_response(e).encode(), true),
        };
        Reply {
            frame,
            is_err,
            store_ms: t1 - t0,
            encode_ms: time.now_ms() - t1,
        }
    }

    /// This replica's `ReplInfo` response.
    fn repl_info(&self) -> Response {
        Response::ReplInfo {
            applied_seq: self.applied_seq(),
            role: self.role().as_str().to_owned(),
        }
    }

    fn try_dispatch(&self, request: Request) -> Result<Answer, GalleryError> {
        Ok(Answer::Response(match request {
            Request::CreateModel {
                project,
                base_version_id,
                name,
                owner,
                description,
                metadata_json,
            } => {
                let metadata = Metadata::from_json(&metadata_json).unwrap_or_default();
                let model = self.gallery.create_model(
                    ModelSpec::new(project, base_version_id)
                        .name(name)
                        .owner(owner)
                        .description(description)
                        .metadata(metadata),
                )?;
                Response::ModelInfo(model_dto(model))
            }
            Request::GetModel { model_id } => {
                let model = self.gallery.get_model(&ModelId(model_id))?;
                Response::ModelInfo(model_dto(model))
            }
            Request::UploadModel {
                model_id,
                metadata_json,
                blob,
            } => {
                let metadata = Metadata::from_json(&metadata_json).ok_or_else(|| {
                    GalleryError::Invalid("metadata_json must be a JSON object".into())
                })?;
                let instance = self.gallery.upload_instance(
                    &ModelId(model_id),
                    InstanceSpec::new().metadata(metadata),
                    blob,
                )?;
                Response::InstanceInfo(Box::new(instance_dto(instance)))
            }
            Request::GetInstance { instance_id } => {
                let instance = self.gallery.get_instance(&InstanceId(instance_id))?;
                Response::InstanceInfo(Box::new(instance_dto(instance)))
            }
            Request::FetchBlob { instance_id } => {
                let blob = self.gallery.fetch_instance_blob(&InstanceId(instance_id))?;
                Response::Blob(blob)
            }
            Request::InsertMetric {
                instance_id,
                name,
                scope,
                value,
                metadata_json,
            } => {
                let scope = MetricScope::parse(&scope)?;
                let metadata = Metadata::from_json(&metadata_json).unwrap_or_default();
                self.gallery.insert_metric(
                    &InstanceId(instance_id),
                    MetricSpec::new(name, scope, value).metadata(metadata),
                )?;
                Response::Ok
            }
            // The two instance lists leave as rows, framed by `dispatch`.
            Request::ModelQuery { constraints } => {
                let constraints: Vec<Constraint> =
                    constraints.into_iter().map(to_store_constraint).collect();
                return Ok(Answer::Instances(self.gallery.model_query(&constraints)?));
            }
            Request::InstancesOfBaseVersion { base_version_id } => {
                let rows = self.gallery.instances_of_base_version(&base_version_id)?;
                return Ok(Answer::Instances(rows));
            }
            Request::LatestInstance { model_id } => {
                let latest = self.gallery.latest_instance(&ModelId(model_id))?;
                Response::MaybeInstance(latest.map(|i| Box::new(instance_dto(i))))
            }
            Request::Deploy {
                model_id,
                instance_id,
                environment,
            } => {
                self.gallery
                    .deploy(&ModelId(model_id), &InstanceId(instance_id), &environment)?;
                Response::Ok
            }
            Request::DeployedInstance {
                model_id,
                environment,
            } => {
                let deployed = self
                    .gallery
                    .deployed_instance(&ModelId(model_id), &environment)?;
                Response::MaybeId(deployed.map(|i| i.to_string()))
            }
            Request::AddDependency {
                model_id,
                upstream_id,
            } => {
                self.gallery
                    .add_dependency(&ModelId(model_id), &ModelId(upstream_id))?;
                Response::Ok
            }
            Request::RemoveDependency {
                model_id,
                upstream_id,
            } => {
                self.gallery
                    .remove_dependency(&ModelId(model_id), &ModelId(upstream_id))?;
                Response::Ok
            }
            Request::UpstreamOf { model_id } => {
                let ids = self.gallery.upstream_of(&ModelId(model_id))?;
                Response::Ids(ids.into_iter().map(|i| i.0).collect())
            }
            Request::DownstreamOf { model_id } => {
                let ids = self.gallery.downstream_of(&ModelId(model_id))?;
                Response::Ids(ids.into_iter().map(|i| i.0).collect())
            }
            Request::DeprecateModel { model_id } => {
                self.gallery.deprecate_model(&ModelId(model_id))?;
                Response::Ok
            }
            Request::DeprecateInstance { instance_id } => {
                self.gallery.deprecate_instance(&InstanceId(instance_id))?;
                Response::Ok
            }
            Request::SetStage { instance_id, stage } => {
                let stage = Stage::parse(&stage)?;
                let new_stage = self.gallery.set_stage(&InstanceId(instance_id), stage)?;
                Response::Stage(new_stage.as_str().to_owned())
            }
            Request::StageOf { instance_id } => {
                let stage = self.gallery.stage_of(&InstanceId(instance_id))?;
                Response::Stage(stage.as_str().to_owned())
            }
            Request::SelectChampion { rule_id } => {
                let engine = self.engine.as_ref().ok_or_else(|| {
                    GalleryError::Invalid("no rule engine attached to this server".into())
                })?;
                match engine.select(&rule_id) {
                    Ok(champion) => {
                        Response::MaybeInstance(champion.map(|i| Box::new(instance_dto(i))))
                    }
                    Err(e) => Response::Err {
                        code: ErrorCode::Invalid,
                        message: e.to_string(),
                    },
                }
            }
            Request::TriggerRule {
                rule_id,
                instance_id,
            } => {
                let engine = self.engine.as_ref().ok_or_else(|| {
                    GalleryError::Invalid("no rule engine attached to this server".into())
                })?;
                match engine.trigger(&rule_id, &InstanceId(instance_id)) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Err {
                        code: ErrorCode::Invalid,
                        message: e.to_string(),
                    },
                }
            }
            Request::HealthReport { instance_id } => {
                let report = self.gallery.health_report(&InstanceId(instance_id))?;
                Response::Health(HealthDto {
                    reproducibility_score: report.reproducibility_score,
                    missing_fields: report.missing_fields.clone(),
                    has_training: report.has_training_metrics,
                    has_validation: report.has_validation_metrics,
                    has_production: report.has_production_metrics,
                    skewed_metrics: report
                        .skew
                        .iter()
                        .filter(|s| s.skewed)
                        .map(|s| s.metric_name.clone())
                        .collect(),
                    score: report.score(),
                })
            }
            Request::Probe { section } => {
                let mut out = String::new();
                let mut matched = false;
                if section == "metrics" || section == "all" {
                    matched = true;
                    // Storage gauges are pull-based: refresh at read time
                    // instead of taxing every write.
                    self.gallery.dal().refresh_storage_gauges();
                    let registry = self.telemetry.registry();
                    registry
                        .gauge("gallery_sync_lock_wait_ms", &[])
                        .set(gallery_sync::checker::lock_wait_ms() as i64);
                    registry
                        .gauge("gallery_sync_held_across_io_total", &[])
                        .set(gallery_sync::checker::held_across_io_total() as i64);
                    out.push_str(&self.telemetry.render_text());
                }
                if section == "alerts" || section == "all" {
                    matched = true;
                    match self.alerts.as_ref() {
                        Some(alerts) => {
                            alerts.evaluate();
                            out.push_str(&alerts.render_text());
                        }
                        None => out.push_str("# no alert engine attached\n"),
                    }
                }
                if section == "slowlog" || section == "all" {
                    matched = true;
                    out.push_str(&self.gallery.dal().metadata().slow_log().render_text());
                }
                if section == "profile" || section == "all" {
                    matched = true;
                    // Collapsed-stack text, directly consumable by
                    // flamegraph tooling.
                    let collapsed = self.telemetry.profile().collapsed();
                    if collapsed.is_empty() {
                        out.push_str("# span profile: no finished spans\n");
                    } else {
                        out.push_str(&collapsed);
                    }
                }
                if section == "lockgraph" || section == "all" {
                    matched = true;
                    // Diagnostics and the acquired-before graph accumulated
                    // since process start (or the last reset). Empty unless
                    // rank checking is on — debug builds, or GALLERY_LOCKCHECK.
                    out.push_str(&gallery_sync::report().render_text());
                }
                if !matched {
                    return Err(GalleryError::Invalid(format!(
                        "unknown probe section `{section}` (expected metrics, alerts, \
                         slowlog, profile, lockgraph, or all)"
                    )));
                }
                Response::Text(out)
            }
            Request::Validate { kind, content } => {
                let report = match kind.as_str() {
                    "condition" => gallery_rules::analyze_condition(&content),
                    "rule" => gallery_rules::analyze_rule_json(&content),
                    "rules" => {
                        match serde_json::from_str::<Vec<gallery_rules::RuleDoc>>(&content) {
                            Ok(docs) => gallery_rules::analyze_rule_set(&docs),
                            Err(e) => {
                                return Err(GalleryError::Invalid(format!(
                                    "not a JSON array of rule documents: {e}"
                                )))
                            }
                        }
                    }
                    other => {
                        return Err(GalleryError::Invalid(format!(
                            "unknown validate kind `{other}` (expected condition, rule, or rules)"
                        )))
                    }
                };
                Response::Diagnostics(report.findings.into_iter().map(wire_diagnostic).collect())
            }
            Request::ShipWal { from_seq, max } => {
                let (leader_seq, frames) = self
                    .gallery
                    .dal()
                    .metadata()
                    .ship_since(from_seq, (max as usize).min(65_536));
                Response::WalFrames {
                    leader_seq,
                    frames: frames
                        .into_iter()
                        .map(|f| crate::messages::WireWalFrame {
                            seq: f.seq,
                            op: f.op,
                        })
                        .collect(),
                }
            }
            Request::ApplyWal { frames } => {
                let frames: Vec<gallery_store::ShipFrame> = frames
                    .into_iter()
                    .map(|f| gallery_store::ShipFrame {
                        seq: f.seq,
                        op: f.op,
                    })
                    .collect();
                // A gap is not an error: the response carries the applied
                // sequence, which tells the shipper where to resume.
                self.gallery.dal().metadata().apply_ship(&frames)?;
                self.repl_info()
            }
            Request::ReplStatus => self.repl_info(),
            Request::SetShardRole { role } => {
                let role = ReplicaRole::parse(&role).ok_or_else(|| {
                    GalleryError::Invalid(format!(
                        "unknown replica role `{role}` (expected leader or follower)"
                    ))
                })?;
                *self.role.lock() = role;
                self.repl_info()
            }
        }))
    }
}

/// Flatten a lint finding into its wire form.
fn wire_diagnostic(f: gallery_rules::Finding) -> WireDiagnostic {
    WireDiagnostic {
        origin: f.origin,
        source: f.source,
        code: f.diag.code.to_owned(),
        severity: match f.diag.severity {
            gallery_rules::Severity::Warning => 0,
            gallery_rules::Severity::Error => 1,
        },
        start: f.diag.span.start,
        end: f.diag.span.end,
        message: f.diag.message,
        help: f.diag.help,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> GalleryServer {
        GalleryServer::new(Arc::new(Gallery::in_memory()))
    }

    impl GalleryServer {
        /// What `dispatch` answers, decoded.
        fn answer(&self, request: Request) -> Response {
            Response::decode(self.dispatch(request).frame).unwrap()
        }
    }

    #[test]
    fn create_and_get_model_via_frames() {
        let s = server();
        let resp = s.handle_frame(
            Request::CreateModel {
                project: "example-project".into(),
                base_version_id: "supply_rejection".into(),
                name: "Random Forest".into(),
                owner: "fc".into(),
                description: "".into(),
                metadata_json: "{}".into(),
            }
            .encode(),
        );
        let Response::ModelInfo(model) = Response::decode(resp).unwrap() else {
            panic!("expected ModelInfo");
        };
        let resp = s.handle_frame(
            Request::GetModel {
                model_id: model.id.clone(),
            }
            .encode(),
        );
        let Response::ModelInfo(back) = Response::decode(resp).unwrap() else {
            panic!("expected ModelInfo");
        };
        assert_eq!(back, model);
    }

    #[test]
    fn errors_map_to_codes() {
        let s = server();
        let resp = s.answer(Request::GetModel {
            model_id: "ghost".into(),
        });
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::NotFound,
                ..
            }
        ));
        // invalid spec
        let resp = s.answer(Request::CreateModel {
            project: "".into(),
            base_version_id: "".into(),
            name: "".into(),
            owner: "".into(),
            description: "".into(),
            metadata_json: "{}".into(),
        });
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::Invalid,
                ..
            }
        ));
    }

    #[test]
    fn probe_renders_metrics_and_alerts() {
        use gallery_telemetry::{AlertCondition, AlertRule, Cmp, MetricSelector};
        let telemetry = Telemetry::new();
        let alerts = Arc::new(AlertEngine::new(&telemetry));
        alerts.add_rule(AlertRule::new(
            "probe-rule",
            AlertCondition::Threshold {
                metric: MetricSelector::family("probe_gauge"),
                cmp: Cmp::Gt,
                threshold: 5.0,
            },
        ));
        let s = GalleryServer::new(Arc::new(Gallery::in_memory()))
            .with_telemetry(Arc::clone(&telemetry))
            .with_alerts(Arc::clone(&alerts));

        telemetry.registry().gauge("probe_gauge", &[]).set(9);
        let Response::Text(text) = s.answer(Request::Probe {
            section: "all".into(),
        }) else {
            panic!("expected Text");
        };
        assert!(text.contains("probe_gauge 9"), "exposition rendered");
        assert!(text.contains("# alert rules"));
        // The probe's evaluation tick advanced the rule to firing.
        assert!(
            text.contains("firing") && text.contains("probe-rule"),
            "{text}"
        );

        let resp = s.answer(Request::Probe {
            section: "bogus".into(),
        });
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::Invalid,
                ..
            }
        ));
    }

    #[test]
    fn probe_serves_slowlog_and_profile() {
        let telemetry = Telemetry::new();
        let s = GalleryServer::new(Arc::new(Gallery::in_memory()))
            .with_telemetry(Arc::clone(&telemetry));

        // Drive one query through the store so the slow-query ring (default
        // threshold 0: capture everything) has an entry to serve.
        s.gallery
            .dal()
            .query("models", &gallery_store::Query::all())
            .unwrap();
        let Response::Text(text) = s.answer(Request::Probe {
            section: "slowlog".into(),
        }) else {
            panic!("expected Text");
        };
        assert!(text.starts_with("# slow-query log:"), "{text}");
        assert!(text.contains("table=models shape=full_scan"), "{text}");

        // No finished spans yet: the profile section says so rather than
        // returning an empty body.
        let Response::Text(text) = s.answer(Request::Probe {
            section: "profile".into(),
        }) else {
            panic!("expected Text");
        };
        assert!(text.contains("# span profile: no finished spans"), "{text}");

        // Finish a span tree and the probe serves collapsed stacks.
        let root = telemetry.tracer().start_span("request");
        telemetry
            .tracer()
            .start_child("handler", root.context())
            .finish();
        root.finish();
        let Response::Text(text) = s.answer(Request::Probe {
            section: "profile".into(),
        }) else {
            panic!("expected Text");
        };
        assert!(text.contains("request;handler "), "{text}");

        // `all` includes the new sections after metrics and alerts.
        let Response::Text(text) = s.answer(Request::Probe {
            section: "all".into(),
        }) else {
            panic!("expected Text");
        };
        assert!(text.contains("# slow-query log:"), "{text}");
        assert!(text.contains("request;handler "), "{text}");
    }

    #[test]
    fn probe_serves_lockgraph() {
        let s = server();
        let Response::Text(text) = s.answer(Request::Probe {
            section: "lockgraph".into(),
        }) else {
            panic!("expected Text");
        };
        assert!(text.starts_with("# lock graph:"), "{text}");
    }

    #[test]
    fn malformed_frame_is_error_response() {
        let s = server();
        let resp = s.handle_frame(Bytes::from_static(&[0, 1, 2]));
        assert!(matches!(
            Response::decode(resp).unwrap(),
            Response::Err { .. }
        ));
    }

    #[test]
    fn rule_requests_require_engine() {
        let s = server();
        let resp = s.answer(Request::SelectChampion {
            rule_id: "r".into(),
        });
        assert!(matches!(resp, Response::Err { .. }));
    }

    fn create_frame(n: usize) -> Bytes {
        Request::CreateModel {
            project: "p".into(),
            base_version_id: format!("bv-{n}"),
            name: "m".into(),
            owner: "o".into(),
            description: "".into(),
            metadata_json: "{}".into(),
        }
        .encode_keyed(&format!("key-{n}"))
    }

    #[test]
    fn full_cache_still_dedupes_recent_keys() {
        let telemetry = Telemetry::new();
        let cache = IdempotencyCache::with_capacity(4).with_telemetry(&telemetry);
        let s = GalleryServer::new(Arc::new(Gallery::in_memory()))
            .with_idempotency(cache.clone())
            .with_telemetry(Arc::clone(&telemetry));
        // Fill the cache: keys 0..4 recorded.
        let first: Vec<Bytes> = (0..4).map(|n| s.handle_frame(create_frame(n))).collect();
        assert_eq!(cache.len(), 4);
        // Replay key-0 — that touch makes it the MOST recently used.
        assert_eq!(s.handle_frame(create_frame(0)), first[0]);
        // Two more writes at capacity evict the LRU keys, which are now
        // key-1 and key-2 — NOT the just-replayed key-0 (a FIFO would
        // have evicted key-0 first).
        s.handle_frame(create_frame(4));
        s.handle_frame(create_frame(5));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(
            s.handle_frame(create_frame(0)),
            first[0],
            "recently replayed key survives a full cache"
        );
        // key-1 was evicted: its retry re-executes and mints a NEW model
        // id — dedupe is gone for evicted keys.
        let original = match Response::decode(first[1].clone()).unwrap() {
            Response::ModelInfo(m) => m.id,
            other => panic!("unexpected: {other:?}"),
        };
        let retried = match Response::decode(s.handle_frame(create_frame(1))).unwrap() {
            Response::ModelInfo(m) => m.id,
            other => panic!("unexpected: {other:?}"),
        };
        assert_ne!(original, retried, "evicted key re-executes");
        // The eviction counter is exported (the key-1 retry above evicted
        // a third entry when its new response was cached).
        let text = telemetry.render_text();
        assert!(
            text.contains("gallery_idempotency_evictions_total 3"),
            "{text}"
        );
    }

    #[test]
    fn ttl_expires_stale_keys() {
        use gallery_core::ManualClock;
        let clock = ManualClock::new(0);
        let cache =
            IdempotencyCache::with_capacity(16).with_ttl(1_000, Arc::new(clock.clone()) as _);
        let s = GalleryServer::new(Arc::new(Gallery::in_memory())).with_idempotency(cache.clone());
        let first = s.handle_frame(create_frame(0));
        // Within the TTL the retry replays.
        clock.advance(999);
        assert_eq!(s.handle_frame(create_frame(0)), first);
        // Past the TTL the key is expired: re-execution mints a new model
        // id, counted as an eviction.
        clock.advance(2);
        let original = match Response::decode(first.clone()).unwrap() {
            Response::ModelInfo(m) => m.id,
            other => panic!("unexpected: {other:?}"),
        };
        let retried = match Response::decode(s.handle_frame(create_frame(0))).unwrap() {
            Response::ModelInfo(m) => m.id,
            other => panic!("unexpected: {other:?}"),
        };
        assert_ne!(original, retried, "expired key re-executes");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn follower_rejects_mutations_with_wrong_shard() {
        let s = server().with_role(ReplicaRole::Follower);
        let resp = s.answer(Request::CreateModel {
            project: "p".into(),
            base_version_id: "b".into(),
            name: "m".into(),
            owner: "o".into(),
            description: "".into(),
            metadata_json: "{}".into(),
        });
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::WrongShard,
                ..
            }
        ));
        // Reads still work on a follower (bounded-staleness reads).
        let resp = s.answer(Request::ModelQuery {
            constraints: vec![],
        });
        assert!(matches!(resp, Response::Instances(_)));
        // Role flips are idempotent and reflected in ReplInfo.
        let resp = s.answer(Request::SetShardRole {
            role: "leader".into(),
        });
        assert!(matches!(
            resp,
            Response::ReplInfo { ref role, .. } if role == "leader"
        ));
        assert_eq!(s.role(), ReplicaRole::Leader);
    }

    #[test]
    fn wal_ships_between_two_servers() {
        let leader = server();
        let follower = server().with_role(ReplicaRole::Follower);
        for n in 0..3 {
            leader.handle_frame(create_frame(n));
        }
        // Pump: ask the leader for frames, apply on the follower.
        let resp = leader.answer(Request::ShipWal {
            from_seq: follower.applied_seq(),
            max: 1_000,
        });
        let Response::WalFrames { leader_seq, frames } = resp else {
            panic!("expected WalFrames");
        };
        assert_eq!(leader_seq, leader.applied_seq());
        assert!(!frames.is_empty());
        let resp = follower.answer(Request::ApplyWal { frames });
        let Response::ReplInfo { applied_seq, role } = resp else {
            panic!("expected ReplInfo");
        };
        assert_eq!(role, "follower");
        assert_eq!(applied_seq, leader.applied_seq());
        // The follower now serves the same models.
        let Response::Instances(instances) = follower.answer(Request::ModelQuery {
            constraints: vec![],
        }) else {
            panic!("expected Instances");
        };
        assert!(instances.is_empty()); // no instances uploaded, only models
        let all = gallery_store::Query::all;
        assert_eq!(
            follower.gallery().find_models(&all()).unwrap().len(),
            leader.gallery().find_models(&all()).unwrap().len()
        );
    }

    /// What the server sent for an instance list before replies were
    /// written from rows: each row converted to a `ModelInstance`, then to
    /// an `InstanceDto`, then the derived encoding.
    fn reference(rows: gallery_core::InstanceRows) -> Bytes {
        let instances = rows.to_instances().unwrap();
        Response::Instances(instances.into_iter().map(instance_dto).collect()).encode()
    }

    /// Put an `instances` row through the store, bypassing the registry's
    /// conversions: `columns` are `(name, value)`, absent ones are null.
    fn put_row(g: &Gallery, columns: &[(&'static str, Value)]) {
        let record = columns
            .iter()
            .fold(gallery_store::Record::new(), |r, (name, value)| {
                r.set(*name, value.clone())
            });
        g.dal()
            .put(gallery_core::schemas::tables::INSTANCES, record)
            .unwrap();
    }

    fn eq(field: &str, value: &str) -> WireConstraint {
        WireConstraint::new(field, WireOp::Eq, WireValue::Str(value.into()))
    }

    /// A fleet with every shape a stored instance takes: the three
    /// trigger kinds, stored and absent metadata, blob and parent present
    /// and absent, versions with multi-digit parts (`12.10`, `3.25`), and
    /// a deprecated instance, which both instance lists skip (so every
    /// `deprecated` they carry is false).
    fn fleet() -> Arc<Gallery> {
        let g = Gallery::in_memory();
        let demand = ModelSpec::new("p", "demand").name("rf");
        let a = g.create_model_with_major(demand, 12).unwrap().id;
        let b = g.create_model(ModelSpec::new("p", "supply")).unwrap().id;
        let mut uploaded = Vec::new();
        for n in 0..11 {
            let metadata = match n % 3 {
                0 => Metadata::new(),
                1 => Metadata::new().with("city", "nyc"),
                _ => Metadata::new()
                    .with("model_name", "rf")
                    .with("epochs", 20i64),
            };
            let spec = InstanceSpec::new().metadata(metadata);
            let blob = Bytes::from(vec![n as u8; 8]);
            uploaded.push(g.upload_instance(&a, spec, blob).unwrap().id);
        }
        // `dep_added:` on `b`, then a retrain of `a` versions `b` again
        // with `dep_update:`; neither carries a blob.
        g.add_dependency(&b, &a).unwrap();
        let blob = Bytes::from_static(b"retrained");
        uploaded.push(g.upload_instance(&a, InstanceSpec::new(), blob).unwrap().id);
        g.deprecate_instance(&uploaded[4]).unwrap();
        put_row(
            &g,
            &[
                ("id", "i-direct".into()),
                ("model_id", b.as_str().into()),
                ("base_version_id", "supply".into()),
                // Stored unlike the registry writes it; replies carry `3.25`.
                ("display_version", "03.025".into()),
                ("created", Value::Timestamp(-7)),
                ("trigger", "dep_added:upstream".into()),
                ("project", "p".into()),
            ],
        );
        for (n, id) in uploaded.iter().enumerate() {
            let spec = MetricSpec::new("bias", MetricScope::Validation, n as f64 / 10.0);
            g.insert_metric(id, spec).unwrap();
        }
        Arc::new(g)
    }

    #[test]
    fn instance_lists_are_the_bytes_the_converted_reply_encodes_to() {
        let g = fleet();
        let s = GalleryServer::new(Arc::clone(&g));
        let bias = |op, x| WireConstraint::new("metricValue", op, WireValue::Float(x));
        let queries: Vec<Vec<WireConstraint>> = vec![
            vec![],
            vec![eq("projectName", "p")],
            vec![eq("modelName", "rf")],
            vec![eq("metricName", "bias"), bias(WireOp::Lt, 0.45)],
            vec![eq("projectName", "p"), bias(WireOp::Ge, 0.75)],
            vec![eq("projectName", "nobody")],
            vec![bias(WireOp::Gt, 5.0)],
        ];
        let mut frames = Vec::new();
        for constraints in queries {
            let store: Vec<Constraint> = constraints
                .iter()
                .cloned()
                .map(to_store_constraint)
                .collect();
            let rows = g.model_query(&store).unwrap();
            let expected = reference(rows.clone());
            let frame = s.handle_frame(Request::ModelQuery { constraints }.encode());
            assert_eq!(frame, expected, "{store:?}");
            frames.push((rows, frame));
        }
        for base in ["demand", "supply", "nothing"] {
            let rows = g.instances_of_base_version(base).unwrap();
            let expected = reference(rows.clone());
            let request = Request::InstancesOfBaseVersion {
                base_version_id: base.into(),
            };
            let frame = s.handle_frame(request.encode());
            assert_eq!(frame, expected, "{base}");
            frames.push((rows, frame));
        }
        // Each frame was allocated at its final size.
        for (rows, frame) in &frames {
            let fields: Vec<_> = rows.fields().map(Result::unwrap).collect();
            assert_eq!(frame.len(), 4 + crate::messages::instances_len(&fields));
        }

        // The fleet has the shapes it claims: the unfiltered query sees
        // them all, and the deprecated instance is skipped.
        let Response::Instances(all) = Response::decode(frames[0].1.clone()).unwrap() else {
            panic!("expected Instances");
        };
        assert_eq!(
            all.len(),
            14,
            "12 uploads, 1 deprecated, 2 automatic, 1 direct"
        );
        let has = |f: &dyn Fn(&InstanceDto) -> bool| all.iter().any(f);
        for prefix in ["trained", "dep_added:", "dep_update:"] {
            assert!(has(&|i| i.trigger.starts_with(prefix)), "{prefix}");
        }
        assert!(has(&|i| i.display_version == "12.10"));
        assert!(has(
            &|i| i.display_version == "3.25" && i.metadata_json == "{}"
        ));
        assert!(has(&|i| i.metadata_json.contains("epochs")));
        assert!(has(&|i| i.blob_location.is_some()) && has(&|i| i.blob_location.is_none()));
        assert!(has(&|i| i.parent.is_some()) && has(&|i| i.parent.is_none()));
        assert!(all.iter().all(|i| !i.deprecated));
        let empty = Response::Instances(Vec::new()).encode();
        assert_eq!(frames.iter().filter(|(_, f)| *f == empty).count(), 3);
    }

    #[test]
    fn a_malformed_row_answers_invalid_as_its_conversion_did() {
        for (column, bad, message) in [
            (
                "display_version",
                "1.x",
                "invalid input: bad display version: 1.x",
            ),
            (
                "trigger",
                "retrained",
                "invalid input: bad instance trigger: retrained",
            ),
        ] {
            let g = Gallery::in_memory();
            let mut columns = vec![
                ("id", Value::from("i-good")),
                ("model_id", "m-1".into()),
                ("base_version_id", "b".into()),
                ("display_version", "1.0".into()),
                ("created", Value::Timestamp(1)),
                ("trigger", "trained".into()),
            ];
            put_row(&g, &columns);
            columns[0].1 = "i-bad".into();
            for c in columns.iter_mut().filter(|c| c.0 == column) {
                c.1 = bad.into();
            }
            put_row(&g, &columns);
            let converted = g.model_query(&[]).unwrap().to_instances().unwrap_err();
            assert_eq!(converted.to_string(), message);

            let s = GalleryServer::new(Arc::new(g));
            for request in [
                Request::ModelQuery {
                    constraints: vec![],
                },
                Request::InstancesOfBaseVersion {
                    base_version_id: "b".into(),
                },
            ] {
                let reply = s.dispatch(request);
                assert!(reply.is_err);
                let expected = Response::Err {
                    code: ErrorCode::Invalid,
                    message: message.into(),
                };
                assert_eq!(reply.frame, expected.encode(), "{column}");
            }
        }
    }
}
