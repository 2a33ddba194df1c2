//! Typed Gallery client (§4.1).
//!
//! Mirrors the paper's language-specific Thrift clients: each method
//! encodes a request frame, sends it through a [`Transport`], and decodes
//! the response. Listing 3–5 workflows map 1:1 onto
//! [`GalleryClient::create_model`], [`GalleryClient::upload_model`],
//! [`GalleryClient::insert_metric`], and [`GalleryClient::model_query`].

use crate::decimal;
use crate::messages::{
    ErrorCode, HealthDto, InstanceDto, ModelDto, PerMethod, Request, Response, WireConstraint,
    WireDiagnostic,
};
use crate::resilience::Resilience;
use crate::transport::{Transport, TransportErrorKind};
use crate::wire::WireError;
use bytes::Bytes;
use gallery_telemetry::{kinds, Counter, Histogram, SpanContext, Telemetry};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Client-side error, classified for retry decisions.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The server returned an error response: a *verdict*, never retried.
    Remote { code: ErrorCode, message: String },
    /// Transport failure: the server never returned a verdict, so a retry
    /// may succeed. The kind records what went wrong on the way.
    Transport {
        kind: TransportErrorKind,
        message: String,
    },
    /// The response could not be decoded or had an unexpected shape. A
    /// bug or version skew, not a transient condition: never retried.
    Protocol(String),
    /// The circuit breaker for this endpoint is open; the call failed
    /// fast without touching the wire.
    CircuitOpen { endpoint: String },
}

impl ClientError {
    /// Whether the resilient call loop may retry this failure. Exactly the
    /// transport class: everything else is either a server verdict, a
    /// protocol bug, or the breaker telling us to stop trying. The
    /// cluster-routing kinds ([`TransportErrorKind::WrongShard`],
    /// [`TransportErrorKind::LeaderUnavailable`]) are retryable by design:
    /// the router re-resolves its shard map on every attempt, so the retry
    /// is what picks up a moved shard or a freshly promoted leader.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Transport { .. })
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Remote { code, message } => {
                write!(f, "remote error ({code:?}): {message}")
            }
            ClientError::Transport { kind, message } => {
                write!(f, "transport ({kind:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::CircuitOpen { endpoint } => {
                write!(f, "circuit breaker open for {endpoint}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// One method's client-side series. Each is looked up in the registry
/// the first time it is recorded — so it appears in the exposition on
/// first use, as it always has — and every later call goes through the
/// handle: no key string, no registry lock, no hashing.
#[derive(Default)]
struct MethodSeries {
    attempts: OnceLock<Arc<Counter>>,
    calls_ok: OnceLock<Arc<Counter>>,
    calls_error: OnceLock<Arc<Counter>>,
    call_ms: OnceLock<Arc<Histogram>>,
}

impl MethodSeries {
    fn attempts(&self, telemetry: &Telemetry, method: &str) -> &Counter {
        self.attempts.get_or_init(|| {
            telemetry
                .registry()
                .counter("gallery_rpc_client_attempts_total", &[("method", method)])
        })
    }

    fn calls(&self, telemetry: &Telemetry, method: &str, outcome: &str) -> &Counter {
        let slot = match outcome {
            "ok" => &self.calls_ok,
            _ => &self.calls_error,
        };
        slot.get_or_init(|| {
            telemetry.registry().counter(
                "gallery_rpc_client_calls_total",
                &[("method", method), ("outcome", outcome)],
            )
        })
    }

    fn call_ms(&self, telemetry: &Telemetry, method: &str) -> &Histogram {
        self.call_ms.get_or_init(|| {
            telemetry
                .registry()
                .duration_histogram("gallery_rpc_client_call_duration_ms", &[("method", method)])
        })
    }
}

/// Typed client over any transport, optionally wrapped in a
/// [`Resilience`] bundle (retries, deadlines, circuit breaking,
/// idempotency keys).
#[derive(Clone)]
pub struct GalleryClient {
    transport: Arc<dyn Transport>,
    resilience: Option<Arc<Resilience>>,
    telemetry: Arc<Telemetry>,
    /// Handles into `telemetry`'s registry; clones share them.
    series: Arc<PerMethod<MethodSeries>>,
}

impl GalleryClient {
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        GalleryClient {
            transport,
            resilience: None,
            telemetry: Arc::clone(gallery_telemetry::global()),
            series: Arc::default(),
        }
    }

    /// Enable the resilient call path. Mutating requests are automatically
    /// sent in the idempotency-key envelope so the retry loop is
    /// exactly-once end to end.
    pub fn with_resilience(mut self, resilience: Arc<Resilience>) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Record client RPC telemetry into an explicit bundle instead of the
    /// global one. Every logical call opens a `rpc.client/<method>` span
    /// whose context rides in the wire envelope, and every physical
    /// attempt emits a `rpc.attempt` event on that trace.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self.series = Arc::default();
        self
    }

    pub fn resilience(&self) -> Option<&Arc<Resilience>> {
        self.resilience.as_ref()
    }

    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    fn call(&self, request: Request) -> Result<Response, ClientError> {
        let method = request.method_name();
        let series = self.series.of(&request);
        let started = Instant::now();
        let mut span = self
            .telemetry
            .tracer()
            .start_span(request.client_span_name());
        span.set_attr("method", method);
        let trace = span.context();
        let result = match &self.resilience {
            None => {
                let outcome = self.call_once(request.encode_with(None, Some(trace)));
                self.observe_attempt(series, method, trace, 1, 0, &outcome);
                outcome
            }
            Some(r) => self.call_resilient(r, request, series, trace),
        };
        let outcome = if result.is_ok() { "ok" } else { "error" };
        series.calls(&self.telemetry, method, outcome).inc();
        series
            .call_ms(&self.telemetry, method)
            .observe_since(started);
        span.set_attr("outcome", outcome);
        span.finish();
        result
    }

    /// Count one physical attempt and emit its `rpc.attempt` event on the
    /// call's trace. `delay_ms` is the backoff slept before this attempt
    /// (0 for the first).
    fn observe_attempt(
        &self,
        series: &MethodSeries,
        method: &'static str,
        trace: SpanContext,
        attempt: u32,
        delay_ms: u64,
        outcome: &Result<Response, ClientError>,
    ) {
        series.attempts(&self.telemetry, method).inc();
        let events = self.telemetry.events();
        if !events.is_enabled() {
            return;
        }
        let verdict = match outcome {
            Ok(_) => "ok",
            Err(ClientError::Transport { .. }) => "transport_error",
            Err(ClientError::Remote { .. }) => "remote_error",
            Err(ClientError::Protocol(_)) => "protocol_error",
            Err(ClientError::CircuitOpen { .. }) => "circuit_open",
        };
        events.emit_traced(
            kinds::RPC_ATTEMPT,
            Some(trace.trace_id),
            vec![
                ("method", method.into()),
                ("attempt", decimal(attempt)),
                ("delay_ms", decimal(delay_ms)),
                ("outcome", verdict.into()),
            ],
        );
    }

    /// One attempt: encode → transport → decode → unwrap server errors.
    fn call_once(&self, frame: Bytes) -> Result<Response, ClientError> {
        let reply = self
            .transport
            .call(frame)
            .map_err(|e| ClientError::Transport {
                kind: e.kind,
                message: e.message,
            })?;
        let response = Response::decode(reply)?;
        if let Response::Err { code, message } = response {
            return Err(ClientError::Remote { code, message });
        }
        Ok(response)
    }

    /// The retry loop. Encodes once (mutating requests get a fresh
    /// idempotency key that every retry re-sends verbatim, and the trace
    /// context rides in the envelope so every attempt — and the server
    /// handler span — lands in one trace), then: breaker admit → attempt →
    /// classify → backoff within deadline.
    fn call_resilient(
        &self,
        r: &Arc<Resilience>,
        request: Request,
        series: &MethodSeries,
        trace: SpanContext,
    ) -> Result<Response, ClientError> {
        let endpoint = request.method_name();
        let key = request.is_mutating().then(|| r.next_key());
        let frame = request.encode_with(key.as_deref(), Some(trace));
        let policy = r.policy().clone();
        let started = r.clock().now_ms();
        r.stats_mut().calls += 1;
        let mut retry: u32 = 0;
        let mut slept_ms: u64 = 0;
        loop {
            if let Some(breaker) = r.breaker() {
                if !breaker.admit(endpoint) {
                    r.stats_mut().breaker_rejections += 1;
                    self.telemetry
                        .registry()
                        .counter(
                            "gallery_rpc_breaker_rejections_total",
                            &[("method", endpoint)],
                        )
                        .inc();
                    return Err(ClientError::CircuitOpen {
                        endpoint: endpoint.to_owned(),
                    });
                }
            }
            r.stats_mut().attempts += 1;
            let outcome = self.call_once(frame.clone());
            self.observe_attempt(series, endpoint, trace, retry + 1, slept_ms, &outcome);
            // Remote and Protocol errors mean the transport did its job.
            let transport_ok = !matches!(outcome, Err(ClientError::Transport { .. }));
            if let Some(breaker) = r.breaker() {
                breaker.record(endpoint, transport_ok);
            }
            let err = match outcome {
                Ok(response) => return Ok(response),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(e) => e,
            };
            if retry + 1 >= policy.max_attempts {
                return Err(err);
            }
            let delay = r.next_delay_ms(retry);
            if let Some(budget) = policy.deadline_ms {
                let elapsed = (r.clock().now_ms() - started).max(0) as u64;
                if elapsed + delay > budget {
                    r.stats_mut().deadline_exhausted += 1;
                    return Err(err);
                }
            }
            {
                let mut stats = r.stats_mut();
                stats.retries += 1;
                stats.backoff_ms_total += delay;
            }
            r.sleeper().sleep_ms(delay);
            slept_ms = delay;
            retry += 1;
        }
    }

    fn unexpected(response: Response) -> ClientError {
        ClientError::Protocol(format!("unexpected response shape: {response:?}"))
    }

    /// Listing 3: `createGalleryModel(project=..., base_version_id=...)`.
    pub fn create_model(
        &self,
        project: &str,
        base_version_id: &str,
        name: &str,
        owner: &str,
        description: &str,
        metadata_json: &str,
    ) -> Result<ModelDto, ClientError> {
        match self.call(Request::CreateModel {
            project: project.into(),
            base_version_id: base_version_id.into(),
            name: name.into(),
            owner: owner.into(),
            description: description.into(),
            metadata_json: metadata_json.into(),
        })? {
            Response::ModelInfo(m) => Ok(m),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn get_model(&self, model_id: &str) -> Result<ModelDto, ClientError> {
        match self.call(Request::GetModel {
            model_id: model_id.into(),
        })? {
            Response::ModelInfo(m) => Ok(m),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Listing 3: `uploadModel(...)` — serialize your model to bytes, add
    /// instance metadata, upload.
    pub fn upload_model(
        &self,
        model_id: &str,
        metadata_json: &str,
        blob: Bytes,
    ) -> Result<InstanceDto, ClientError> {
        match self.call(Request::UploadModel {
            model_id: model_id.into(),
            metadata_json: metadata_json.into(),
            blob,
        })? {
            Response::InstanceInfo(i) => Ok(*i),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn get_instance(&self, instance_id: &str) -> Result<InstanceDto, ClientError> {
        match self.call(Request::GetInstance {
            instance_id: instance_id.into(),
        })? {
            Response::InstanceInfo(i) => Ok(*i),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn fetch_blob(&self, instance_id: &str) -> Result<Bytes, ClientError> {
        match self.call(Request::FetchBlob {
            instance_id: instance_id.into(),
        })? {
            Response::Blob(b) => Ok(b),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Listing 4: `insertModelInstanceMetric(...)`.
    pub fn insert_metric(
        &self,
        instance_id: &str,
        name: &str,
        scope: &str,
        value: f64,
    ) -> Result<(), ClientError> {
        match self.call(Request::InsertMetric {
            instance_id: instance_id.into(),
            name: name.into(),
            scope: scope.into(),
            value,
            metadata_json: "{}".into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Listing 5: `modelQuery(searchConstraint)`.
    pub fn model_query(
        &self,
        constraints: Vec<WireConstraint>,
    ) -> Result<Vec<InstanceDto>, ClientError> {
        match self.call(Request::ModelQuery { constraints })? {
            Response::Instances(list) => Ok(list),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn instances_of_base_version(
        &self,
        base_version_id: &str,
    ) -> Result<Vec<InstanceDto>, ClientError> {
        match self.call(Request::InstancesOfBaseVersion {
            base_version_id: base_version_id.into(),
        })? {
            Response::Instances(list) => Ok(list),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn latest_instance(&self, model_id: &str) -> Result<Option<InstanceDto>, ClientError> {
        match self.call(Request::LatestInstance {
            model_id: model_id.into(),
        })? {
            Response::MaybeInstance(i) => Ok(i.map(|b| *b)),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn deploy(
        &self,
        model_id: &str,
        instance_id: &str,
        environment: &str,
    ) -> Result<(), ClientError> {
        match self.call(Request::Deploy {
            model_id: model_id.into(),
            instance_id: instance_id.into(),
            environment: environment.into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn deployed_instance(
        &self,
        model_id: &str,
        environment: &str,
    ) -> Result<Option<String>, ClientError> {
        match self.call(Request::DeployedInstance {
            model_id: model_id.into(),
            environment: environment.into(),
        })? {
            Response::MaybeId(id) => Ok(id),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn add_dependency(&self, model_id: &str, upstream_id: &str) -> Result<(), ClientError> {
        match self.call(Request::AddDependency {
            model_id: model_id.into(),
            upstream_id: upstream_id.into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn remove_dependency(&self, model_id: &str, upstream_id: &str) -> Result<(), ClientError> {
        match self.call(Request::RemoveDependency {
            model_id: model_id.into(),
            upstream_id: upstream_id.into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn upstream_of(&self, model_id: &str) -> Result<Vec<String>, ClientError> {
        match self.call(Request::UpstreamOf {
            model_id: model_id.into(),
        })? {
            Response::Ids(ids) => Ok(ids),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn downstream_of(&self, model_id: &str) -> Result<Vec<String>, ClientError> {
        match self.call(Request::DownstreamOf {
            model_id: model_id.into(),
        })? {
            Response::Ids(ids) => Ok(ids),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn deprecate_model(&self, model_id: &str) -> Result<(), ClientError> {
        match self.call(Request::DeprecateModel {
            model_id: model_id.into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn deprecate_instance(&self, instance_id: &str) -> Result<(), ClientError> {
        match self.call(Request::DeprecateInstance {
            instance_id: instance_id.into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn set_stage(&self, instance_id: &str, stage: &str) -> Result<String, ClientError> {
        match self.call(Request::SetStage {
            instance_id: instance_id.into(),
            stage: stage.into(),
        })? {
            Response::Stage(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn stage_of(&self, instance_id: &str) -> Result<String, ClientError> {
        match self.call(Request::StageOf {
            instance_id: instance_id.into(),
        })? {
            Response::Stage(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn select_champion(&self, rule_id: &str) -> Result<Option<InstanceDto>, ClientError> {
        match self.call(Request::SelectChampion {
            rule_id: rule_id.into(),
        })? {
            Response::MaybeInstance(i) => Ok(i.map(|b| *b)),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn trigger_rule(&self, rule_id: &str, instance_id: &str) -> Result<(), ClientError> {
        match self.call(Request::TriggerRule {
            rule_id: rule_id.into(),
            instance_id: instance_id.into(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    pub fn health_report(&self, instance_id: &str) -> Result<HealthDto, ClientError> {
        match self.call(Request::HealthReport {
            instance_id: instance_id.into(),
        })? {
            Response::Health(h) => Ok(h),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Render the server's telemetry: `section` is `"metrics"`,
    /// `"alerts"`, or `"all"`.
    pub fn probe(&self, section: &str) -> Result<String, ClientError> {
        match self.call(Request::Probe {
            section: section.into(),
        })? {
            Response::Text(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Run the server-side rule static analyzer without registering
    /// anything. `kind` is `"condition"`, `"rule"`, or `"rules"`; the
    /// returned diagnostics are empty when the content is clean.
    pub fn validate(&self, kind: &str, content: &str) -> Result<Vec<WireDiagnostic>, ClientError> {
        match self.call(Request::Validate {
            kind: kind.into(),
            content: content.into(),
        })? {
            Response::Diagnostics(list) => Ok(list),
            other => Err(Self::unexpected(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{WireOp, WireValue};
    use crate::server::GalleryServer;
    use crate::transport::{DirectTransport, InProcCluster};
    use gallery_core::{Gallery, ManualClock};
    use gallery_store::AccessPath;

    fn client() -> (GalleryClient, InProcCluster) {
        let gallery = Arc::new(Gallery::in_memory());
        let cluster = InProcCluster::start(
            {
                let gallery = Arc::clone(&gallery);
                move || GalleryServer::new(Arc::clone(&gallery))
            },
            2,
        )
        .unwrap();
        (GalleryClient::new(cluster.connect()), cluster)
    }

    /// The full Listing 3 → 4 → 5 workflow over the wire.
    #[test]
    fn paper_listings_end_to_end() {
        let (client, _cluster) = client();
        // Listing 3: create model + upload trained instance with metadata.
        let model = client
            .create_model(
                "example-project",
                "supply_rejection",
                "Random Forest",
                "fc",
                "",
                "{}",
            )
            .unwrap();
        let instance = client
            .upload_model(
                &model.id,
                r#"{"model_name":"random_forest","city":"New York City","model_type":"SparkML"}"#,
                Bytes::from_static(b"serialized sparkml pipeline"),
            )
            .unwrap();
        assert_eq!(instance.display_version, "1.0");
        // Listing 4: upload a validation bias metric.
        client
            .insert_metric(&instance.id, "bias", "validation", 0.05)
            .unwrap();
        // Listing 5: query with the paper's constraints.
        let found = client
            .model_query(vec![
                WireConstraint::new(
                    "projectName",
                    WireOp::Eq,
                    WireValue::Str("example-project".into()),
                ),
                WireConstraint::new(
                    "modelName",
                    WireOp::Eq,
                    WireValue::Str("random_forest".into()),
                ),
                WireConstraint::new("metricName", WireOp::Eq, WireValue::Str("bias".into())),
                WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(0.25)),
            ])
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, instance.id);
        // And the blob round-trips.
        let blob = client.fetch_blob(&instance.id).unwrap();
        assert_eq!(&blob[..], b"serialized sparkml pipeline");
    }

    /// The wire has no timestamp value, so `created` bounds arrive as
    /// `Int`; they must still split rows by time, through the btree index.
    #[test]
    fn created_range_over_the_wire_splits_rows_at_t() {
        let clock = Arc::new(ManualClock::new(1_000));
        let gallery = Arc::new(Gallery::in_memory_with_clock(clock.clone()));
        let server = Arc::new(GalleryServer::new(Arc::clone(&gallery)));
        let client = GalleryClient::new(Arc::new(DirectTransport::new(server)));
        let model = client
            .create_model("p", "base", "rf", "fc", "", "{}")
            .unwrap();
        let ids: Vec<String> = (0..6)
            .map(|_| {
                clock.advance(10);
                let uploaded = client.upload_model(&model.id, "{}", Bytes::from_static(b"w"));
                uploaded.unwrap().id
            })
            .collect();
        let t = 1_040; // the fourth upload's timestamp
        for (op, expected) in [(WireOp::Ge, &ids[3..]), (WireOp::Lt, &ids[..3])] {
            let found = client
                .model_query(vec![WireConstraint::new("created", op, WireValue::Int(t))])
                .unwrap();
            let found: Vec<&str> = found.iter().map(|i| i.id.as_str()).collect();
            assert_eq!(found, expected);
            let logged = gallery.dal().metadata().slow_log().entries();
            assert_eq!(
                logged.last().unwrap().explain.path,
                AccessPath::IndexRange {
                    column: "created".into()
                }
            );
        }
    }

    #[test]
    fn remote_errors_surface() {
        let (client, _cluster) = client();
        let err = client.get_model("ghost").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Remote {
                code: ErrorCode::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn lifecycle_via_client() {
        let (client, _cluster) = client();
        let model = client.create_model("p", "b", "m", "o", "", "{}").unwrap();
        let inst = client
            .upload_model(&model.id, "{}", Bytes::from_static(b"w"))
            .unwrap();
        assert_eq!(client.stage_of(&inst.id).unwrap(), "trained");
        assert_eq!(
            client.set_stage(&inst.id, "evaluated").unwrap(),
            "evaluated"
        );
        assert_eq!(client.set_stage(&inst.id, "deployed").unwrap(), "deployed");
        // illegal transition surfaces as remote invalid
        let err = client.set_stage(&inst.id, "trained").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Remote {
                code: ErrorCode::Invalid,
                ..
            }
        ));
    }

    #[test]
    fn deploy_and_dependencies_via_client() {
        let (client, _cluster) = client();
        let a = client.create_model("p", "a", "a", "o", "", "{}").unwrap();
        let b = client.create_model("p", "b", "b", "o", "", "{}").unwrap();
        let ia = client
            .upload_model(&a.id, "{}", Bytes::from_static(b"a"))
            .unwrap();
        client
            .upload_model(&b.id, "{}", Bytes::from_static(b"b"))
            .unwrap();
        client.deploy(&a.id, &ia.id, "production").unwrap();
        assert_eq!(
            client.deployed_instance(&a.id, "production").unwrap(),
            Some(ia.id.clone())
        );
        client.add_dependency(&a.id, &b.id).unwrap();
        assert_eq!(client.upstream_of(&a.id).unwrap(), vec![b.id.clone()]);
        assert_eq!(client.downstream_of(&b.id).unwrap(), vec![a.id.clone()]);
        client.remove_dependency(&a.id, &b.id).unwrap();
        assert!(client.upstream_of(&a.id).unwrap().is_empty());
    }

    #[test]
    fn health_via_client() {
        let (client, _cluster) = client();
        let model = client.create_model("p", "b", "m", "o", "", "{}").unwrap();
        let inst = client
            .upload_model(&model.id, "{}", Bytes::from_static(b"w"))
            .unwrap();
        let health = client.health_report(&inst.id).unwrap();
        assert_eq!(health.reproducibility_score, 0.0);
        assert_eq!(health.missing_fields.len(), 6);
    }

    #[test]
    fn validate_via_client_reports_diagnostics() {
        let (client, _cluster) = client();
        // Clean condition: no findings.
        assert!(client
            .validate("condition", "gallery_monitor_drift_score > 3.0")
            .unwrap()
            .is_empty());
        // Raw-gauge threshold against a descaled binding: warning.
        let diags = client
            .validate("condition", "gallery_monitor_drift_score > 3000000")
            .unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL0304");
        assert!(!diags[0].is_error());
        // Ill-typed rule document: error-severity findings with spans.
        let rule = r#"{
            "team": "t", "uuid": "u",
            "rule": {
                "GIVEN": "modelNmae == \"x\"",
                "WHEN": "metrics[\"r2\"] <= 0.9",
                "ENVIRONMENT": "production",
                "CALLBACK_ACTIONS": ["noop"]
            }
        }"#;
        let diags = client.validate("rule", rule).unwrap();
        assert!(diags.iter().any(|d| d.code == "RL0102" && d.is_error()));
        let typo = diags.iter().find(|d| d.code == "RL0102").unwrap();
        assert_eq!(
            &typo.source[typo.start as usize..typo.end as usize],
            "modelNmae"
        );
        // Unknown kind is an invalid request, not a transport failure.
        assert!(client.validate("nonsense", "true").is_err());
    }

    #[test]
    fn cluster_routing_outcomes_are_retryable() {
        // The retry loop must re-resolve after a stale shard map or a
        // mid-failover leader gap; both are transport-class by design.
        for kind in [
            TransportErrorKind::WrongShard,
            TransportErrorKind::LeaderUnavailable,
            TransportErrorKind::ConnectionLost,
            TransportErrorKind::RequestDropped,
            TransportErrorKind::Injected,
        ] {
            let err = ClientError::Transport {
                kind,
                message: "x".into(),
            };
            assert!(err.is_retryable(), "{kind:?} must be retryable");
        }
        // Server verdicts — including WrongShard as a *remote* code before
        // the router converts it — are not blindly retried by the client.
        assert!(!ClientError::Remote {
            code: ErrorCode::WrongShard,
            message: "x".into(),
        }
        .is_retryable());
        assert!(!ClientError::Protocol("x".into()).is_retryable());
    }
}
