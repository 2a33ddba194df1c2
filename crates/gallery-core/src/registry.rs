//! The Gallery registry: the system's main API surface (§3.3–§3.6, §4.1).
//!
//! A [`Gallery`] wraps the storage DAL and exposes the operations the
//! paper's Listings 3–5 show: registering models, uploading trained
//! instances (blob-first), recording metrics, constraint search, lineage
//! traversal, deployment pointers, lifecycle stages, and deprecation.
//! Dependency management lives in [`crate::deps`] (a second `impl Gallery`
//! block); model health in [`crate::health`].

use crate::clock::{Clock, SystemClock, TimestampMs};
use crate::error::{GalleryError, Result};
use crate::events::{EventBus, GalleryEvent};
use crate::id::{DeploymentId, InstanceId, MetricId, ModelId};
use crate::instance::{InstanceSpec, ModelInstance};
use crate::lifecycle::Stage;
use crate::metrics::{parse_metric_blob, MetricRecord, MetricScope, MetricSpec};
use crate::model::{Model, ModelSpec};
use crate::schemas::{
    self, deployments_from_rows, instance_from_row, instances_from_rows, metric_from_row,
    metrics_from_rows, model_from_row, models_from_rows, tables, Deployment, InstanceRows,
};
use crate::version::{DisplayVersion, InstanceTrigger};
use bytes::Bytes;
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::{BlobLocation, Constraint, Dal, MetadataStore, Query, Record, Value};
use gallery_sync::{rank, OrderedMutex};
use gallery_telemetry::{Counter, Histogram, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Pre-minted registry telemetry handles, one set per [`Gallery`]
/// (`gallery_registry_*`). Handles are resolved once at construction so
/// the operation paths never touch the registry lock.
pub(crate) struct RegistryMetrics {
    pub(crate) telemetry: Arc<Telemetry>,
    create_model: Arc<Counter>,
    upload_instance: Arc<Counter>,
    model_query: Arc<Counter>,
    pub(crate) propagated: Arc<Counter>,
    rollback: Arc<Counter>,
    upload_ms: Arc<Histogram>,
    query_ms: Arc<Histogram>,
}

impl RegistryMetrics {
    fn new(telemetry: Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        RegistryMetrics {
            create_model: r.counter("gallery_registry_ops_total", &[("op", "create_model")]),
            upload_instance: r.counter("gallery_registry_ops_total", &[("op", "upload_instance")]),
            model_query: r.counter("gallery_registry_ops_total", &[("op", "model_query")]),
            propagated: r.counter("gallery_registry_propagated_instances_total", &[]),
            rollback: r.counter(
                "gallery_registry_ops_total",
                &[("op", "rollback_production")],
            ),
            upload_ms: r.duration_histogram(
                "gallery_registry_op_duration_ms",
                &[("op", "upload_instance")],
            ),
            query_ms: r
                .duration_histogram("gallery_registry_op_duration_ms", &[("op", "model_query")]),
            telemetry,
        }
    }
}

/// The Gallery model-management system.
pub struct Gallery {
    dal: Arc<Dal>,
    clock: Arc<dyn Clock>,
    events: EventBus,
    /// Serializes read-latest-then-insert version assignment so display
    /// versions are unique per model under concurrent uploads (UUIDs are
    /// the identity; display versions are the human-facing counter and
    /// must not collide).
    version_lock: OrderedMutex<()>,
    /// When set (sharded deployments), minted model/instance ids are
    /// rejection-sampled until they hash onto this registry's shard, so
    /// the cluster router can locate any entity from its id alone.
    id_policy: Option<crate::shard::IdPolicy>,
    metrics: RegistryMetrics,
}

impl Gallery {
    /// Open a Gallery over an existing DAL, creating any missing tables.
    pub fn open(dal: Arc<Dal>, clock: Arc<dyn Clock>) -> Result<Self> {
        for schema in schemas::all_schemas() {
            if !dal.metadata().has_table(&schema.name) {
                dal.create_table(schema)?;
            }
        }
        Ok(Gallery {
            // Strictly increasing timestamps: "latest" queries (stage,
            // production pointer, newest instance) order by created-time.
            clock: crate::clock::MonotonicClock::wrap(clock),
            dal,
            events: EventBus::new(),
            version_lock: OrderedMutex::new(rank::VERSION_LOCK, ()),
            id_policy: None,
            metrics: RegistryMetrics::new(Arc::clone(gallery_telemetry::global())),
        })
    }

    /// Constrain minted model/instance ids to one shard of a sharded
    /// deployment (see [`crate::shard::IdPolicy`]).
    pub fn with_id_policy(mut self, policy: crate::shard::IdPolicy) -> Self {
        self.id_policy = Some(policy);
        self
    }

    /// Mint a model id honoring the shard id-policy, if any.
    pub(crate) fn mint_model_id(&self) -> ModelId {
        loop {
            let id = ModelId::generate();
            match &self.id_policy {
                Some(p) if !p.accepts(id.as_str()) => continue,
                _ => return id,
            }
        }
    }

    /// Mint an instance id honoring the shard id-policy, if any.
    pub(crate) fn mint_instance_id(&self) -> InstanceId {
        loop {
            let id = InstanceId::generate();
            match &self.id_policy {
                Some(p) if !p.accepts(id.as_str()) => continue,
                _ => return id,
            }
        }
    }

    /// Record registry-level telemetry (`gallery_registry_*` metrics and
    /// `registry/*` spans) into an explicit bundle instead of the global
    /// one. Storage-level metrics follow the DAL's own bundle — attach the
    /// same one via [`Dal::with_telemetry`] before [`Gallery::open`] to get
    /// a single registry end to end.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.metrics = RegistryMetrics::new(telemetry);
        self
    }

    pub(crate) fn registry_metrics(&self) -> &RegistryMetrics {
        &self.metrics
    }

    /// Fully in-memory Gallery with the system clock — the common test and
    /// example entry point.
    pub fn in_memory() -> Self {
        Self::in_memory_with_clock(Arc::new(SystemClock))
    }

    /// In-memory Gallery with a caller-supplied clock (deterministic tests).
    ///
    /// The stack a deployment records through, over RAM: the metadata
    /// WAL and the blob files live on [`gallery_store::SimFs`] disks, and
    /// blobs are read through [`CachedBlobStore::in_memory`]'s cache.
    // Opening a freshly created in-memory store applies the static schemas
    // to empty tables; the only failure mode is a schema bug, which the
    // schema tests catch.
    #[allow(clippy::disallowed_methods)]
    pub fn in_memory_with_clock(clock: Arc<dyn Clock>) -> Self {
        let dal = Arc::new(Dal::new(
            Arc::new(MetadataStore::in_memory()),
            Arc::new(CachedBlobStore::in_memory()),
        ));
        Self::open(dal, clock).expect("fresh in-memory store cannot fail")
    }

    pub fn dal(&self) -> &Arc<Dal> {
        &self.dal
    }

    pub fn events(&self) -> &EventBus {
        &self.events
    }

    pub fn now_ms(&self) -> TimestampMs {
        self.clock.now_ms()
    }

    // ------------------------------------------------------------------
    // Models
    // ------------------------------------------------------------------

    /// Register a new model (Listing 3's `createGalleryModel`). The
    /// optional `display_major` seeds the compact version counter used in
    /// the paper's dependency figures; defaults to 1.
    pub fn create_model(&self, spec: ModelSpec) -> Result<Model> {
        self.create_model_with_major(spec, 1)
    }

    /// Register a new model with an explicit display-major (used by the
    /// figure-reproduction experiments to match the paper's numbering).
    pub fn create_model_with_major(&self, spec: ModelSpec, display_major: u32) -> Result<Model> {
        self.metrics.create_model.inc();
        if spec.base_version_id.is_empty() || spec.project.is_empty() {
            return Err(GalleryError::Invalid(
                "model spec requires project and base_version_id".into(),
            ));
        }
        if let Some(prev) = &spec.prev {
            // The predecessor must exist for lineage to be traversable.
            self.get_model(prev)?;
        }
        let model = Model {
            id: self.mint_model_id(),
            base_version_id: spec.base_version_id.as_str().into(),
            project: spec.project,
            name: if spec.name.is_empty() {
                "unnamed".into()
            } else {
                spec.name
            },
            owner: spec.owner,
            description: spec.description,
            metadata: spec.metadata,
            created_at: self.clock.now_ms(),
            prev: spec.prev,
            deprecated: false,
        };
        self.dal.put(
            tables::MODELS,
            schemas::model_to_record(&model, display_major),
        )?;
        self.events.publish(&GalleryEvent::ModelCreated {
            model_id: model.id.clone(),
        });
        Ok(model)
    }

    pub fn get_model(&self, id: &ModelId) -> Result<Model> {
        let record = self
            .dal
            .get(tables::MODELS, id.as_str())?
            .ok_or_else(|| GalleryError::NoSuchModel(id.to_string()))?;
        model_from_row(&record)
    }

    fn model_display_major(&self, id: &ModelId) -> Result<u32> {
        let record = self
            .dal
            .get(tables::MODELS, id.as_str())?
            .ok_or_else(|| GalleryError::NoSuchModel(id.to_string()))?;
        Ok(record
            .get("display_major")
            .and_then(|v| v.as_int())
            .unwrap_or(1) as u32)
    }

    /// Search models by constraints over the `models` table columns.
    pub fn find_models(&self, query: &Query) -> Result<Vec<Model>> {
        let rows = self.dal.query(tables::MODELS, query)?;
        models_from_rows(&rows)
    }

    /// Models that evolved *from* the given model (the derived `next`
    /// pointers of Fig 3).
    pub fn next_models(&self, id: &ModelId) -> Result<Vec<Model>> {
        self.find_models(&Query::all().and(Constraint::eq("prev", id.as_str())))
    }

    /// Walk `prev` pointers back to the root of the evolution lineage.
    pub fn model_lineage(&self, id: &ModelId) -> Result<Vec<Model>> {
        let mut chain = vec![self.get_model(id)?];
        let mut guard = 0;
        while let Some(prev) = chain.last().and_then(|m| m.prev.clone()) {
            chain.push(self.get_model(&prev)?);
            guard += 1;
            if guard > 10_000 {
                return Err(GalleryError::Invalid("model lineage cycle".into()));
            }
        }
        Ok(chain)
    }

    /// Flag a model as deprecated (kept, skipped in search — §3.7).
    pub fn deprecate_model(&self, id: &ModelId) -> Result<()> {
        if self.dal.get(tables::MODELS, id.as_str())?.is_none() {
            return Err(GalleryError::NoSuchModel(id.to_string()));
        }
        self.dal
            .set_flag(tables::MODELS, id.as_str(), "deprecated", true)?;
        self.events.publish(&GalleryEvent::Deprecated {
            kind: "model",
            id: id.to_string(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Instances
    // ------------------------------------------------------------------

    /// Upload a trained model instance with its opaque blob (Listing 3's
    /// `uploadModel`). Blob-first write ordering is enforced by the DAL.
    pub fn upload_instance(
        &self,
        model_id: &ModelId,
        spec: InstanceSpec,
        blob: Bytes,
    ) -> Result<ModelInstance> {
        self.metrics.upload_instance.inc();
        let started = Instant::now();
        let mut span = self
            .metrics
            .telemetry
            .tracer()
            .start_span("registry/upload_instance");
        span.set_attr("model_id", model_id.to_string());
        let model = self.get_model(model_id)?;
        if model.deprecated {
            return Err(GalleryError::Deprecated(model_id.to_string()));
        }
        // Scope the version lock tightly: `propagate_from` below re-enters
        // version assignment for downstream models and must not deadlock.
        let instance = {
            let _version_guard = self.version_lock.lock();
            let (display_version, live_parent) = self.claim_version(model_id)?;
            let parent = spec.parent.or(live_parent);
            let instance = ModelInstance {
                id: self.mint_instance_id(),
                model_id: model_id.clone(),
                base_version_id: model.base_version_id.clone(),
                display_version,
                blob_location: None, // filled by the DAL
                metadata: spec.metadata,
                created_at: self.clock.now_ms(),
                trigger: InstanceTrigger::Trained,
                parent,
                deprecated: false,
            };
            let record = schemas::instance_to_record(&instance, &model.project);
            let stored = self.dal.put_with_blob(tables::INSTANCES, record, blob)?;
            let mut instance = instance;
            instance.blob_location = Some(stored.blob.location);
            instance
        };
        self.events.publish(&GalleryEvent::InstanceCreated {
            model_id: model_id.clone(),
            instance_id: instance.id.clone(),
            automatic: false,
        });
        // A real retrain ripples through the dependency graph (Fig 6).
        self.propagate_from(model_id, Some(span.context()))?;
        self.metrics.upload_ms.observe_since(started);
        Ok(instance)
    }

    /// Internal: create an automatic (dependency bookkeeping) instance
    /// version. No blob; production pointers untouched.
    pub(crate) fn create_automatic_instance(
        &self,
        model_id: &ModelId,
        trigger: InstanceTrigger,
    ) -> Result<ModelInstance> {
        debug_assert!(trigger.is_automatic());
        let model = self.get_model(model_id)?;
        let _version_guard = self.version_lock.lock();
        // A model with no instances yet has nothing to version-bump, but
        // we still materialize a 1st version so the owner sees the
        // dependency change.
        let (display_version, parent) = self.claim_version(model_id)?;
        let instance = ModelInstance {
            id: self.mint_instance_id(),
            model_id: model_id.clone(),
            base_version_id: model.base_version_id.clone(),
            display_version,
            blob_location: None,
            metadata: crate::metadata::Metadata::new(),
            created_at: self.clock.now_ms(),
            trigger,
            parent,
            deprecated: false,
        };
        self.dal.put(
            tables::INSTANCES,
            schemas::instance_to_record(&instance, &model.project),
        )?;
        self.events.publish(&GalleryEvent::InstanceCreated {
            model_id: model_id.clone(),
            instance_id: instance.id.clone(),
            automatic: true,
        });
        Ok(instance)
    }

    /// The next display version of a model and the parent of the instance
    /// that takes it. The version bumps the newest instance, deprecated
    /// ones included, so no number is handed out twice; the parent is the
    /// newest live instance, which takes a second lookup only when the
    /// newest one is deprecated. The caller holds the version lock.
    fn claim_version(&self, model_id: &ModelId) -> Result<(DisplayVersion, Option<InstanceId>)> {
        let rows = self.dal.query(
            tables::INSTANCES,
            &Query::all()
                .and(Constraint::eq("model_id", model_id.as_str()))
                .order_by("created", true)
                .limit(1)
                .with_deprecated(),
        )?;
        let Some(newest) = rows.first().map(|r| instance_from_row(r)).transpose()? else {
            return Ok((
                DisplayVersion::new(self.model_display_major(model_id)?, 0),
                None,
            ));
        };
        let parent = if newest.deprecated {
            self.latest_instance(model_id)?.map(|i| i.id)
        } else {
            Some(newest.id)
        };
        Ok((newest.display_version.bump_minor(), parent))
    }

    pub fn get_instance(&self, id: &InstanceId) -> Result<ModelInstance> {
        let record = self
            .dal
            .get(tables::INSTANCES, id.as_str())?
            .ok_or_else(|| GalleryError::NoSuchInstance(id.to_string()))?;
        instance_from_row(&record)
    }

    /// All instances of a model, oldest first.
    pub fn instances_of_model(&self, model_id: &ModelId) -> Result<Vec<ModelInstance>> {
        let rows = self.dal.query(
            tables::INSTANCES,
            &Query::all()
                .and(Constraint::eq("model_id", model_id.as_str()))
                .order_by("created", false),
        )?;
        instances_from_rows(&rows)
    }

    /// Fig 4's traversal: "users can ... traverse the evolution of their
    /// model by following all instances linked to a given base version id",
    /// sorted by time.
    pub fn instances_of_base_version(&self, base: &str) -> Result<InstanceRows> {
        let rows = self.dal.query(
            tables::INSTANCES,
            &Query::all()
                .and(Constraint::eq("base_version_id", base))
                .order_by("created", false),
        )?;
        Ok(InstanceRows::new(rows))
    }

    /// Latest (most recently created) non-deprecated instance of a model.
    pub fn latest_instance(&self, model_id: &ModelId) -> Result<Option<ModelInstance>> {
        let rows = self.dal.query(
            tables::INSTANCES,
            &Query::all()
                .and(Constraint::eq("model_id", model_id.as_str()))
                .order_by("created", true)
                .limit(1),
        )?;
        rows.first().map(|r| instance_from_row(r)).transpose()
    }

    /// Fetch the serving blob of an instance. Automatic versions carry no
    /// blob of their own; the lineage is walked to the nearest trained
    /// ancestor's blob (that is what "no real change of Model A" means in
    /// Fig 6 — the served artifact is unchanged).
    ///
    /// Each hop reads `blob_location` and `parent` from the stored row; no
    /// [`ModelInstance`] is built along the way.
    pub fn fetch_instance_blob(&self, id: &InstanceId) -> Result<Bytes> {
        let row_of = |instance_id: &str| {
            self.dal
                .get(tables::INSTANCES, instance_id)?
                .ok_or_else(|| GalleryError::NoSuchInstance(instance_id.to_owned()))
        };
        let mut current = row_of(id.as_str())?;
        let mut guard = 0;
        loop {
            if let Some(loc) = schemas::opt(&current, "blob_location") {
                return Ok(self.dal.fetch_blob(&BlobLocation::new(loc))?);
            }
            current = match schemas::opt(&current, "parent") {
                Some(parent) => row_of(parent)?,
                None => {
                    return Err(GalleryError::Invalid(format!(
                        "instance {id} has no blob anywhere in its lineage"
                    )))
                }
            };
            guard += 1;
            if guard > 10_000 {
                return Err(GalleryError::Invalid("instance lineage cycle".into()));
            }
        }
    }

    /// Instance lineage: this instance, its parent, grandparent, ...
    pub fn instance_lineage(&self, id: &InstanceId) -> Result<Vec<ModelInstance>> {
        let mut chain = vec![self.get_instance(id)?];
        let mut guard = 0;
        while let Some(parent) = chain.last().and_then(|i| i.parent.clone()) {
            chain.push(self.get_instance(&parent)?);
            guard += 1;
            if guard > 10_000 {
                return Err(GalleryError::Invalid("instance lineage cycle".into()));
            }
        }
        Ok(chain)
    }

    /// `NoSuchInstance` unless the row exists. The writes that only need
    /// to know that much ask the row store and stop: [`Gallery::get_instance`]
    /// would build a whole `ModelInstance` (ids, version parse, metadata
    /// string) to have it dropped.
    fn require_instance(&self, id: &InstanceId) -> Result<()> {
        match self.dal.get(tables::INSTANCES, id.as_str())? {
            Some(_) => Ok(()),
            None => Err(GalleryError::NoSuchInstance(id.to_string())),
        }
    }

    pub fn deprecate_instance(&self, id: &InstanceId) -> Result<()> {
        self.require_instance(id)?;
        self.dal
            .set_flag(tables::INSTANCES, id.as_str(), "deprecated", true)?;
        self.events.publish(&GalleryEvent::Deprecated {
            kind: "instance",
            id: id.to_string(),
        });
        Ok(())
    }

    /// Search instances by constraints over the `instances` table columns.
    pub fn find_instances(&self, query: &Query) -> Result<Vec<ModelInstance>> {
        let rows = self.dal.query(tables::INSTANCES, query)?;
        instances_from_rows(&rows)
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Record a metric for an instance (Listing 4).
    pub fn insert_metric(
        &self,
        instance_id: &InstanceId,
        spec: MetricSpec,
    ) -> Result<MetricRecord> {
        self.require_instance(instance_id)?;
        if !spec.value.is_finite() {
            return Err(GalleryError::Invalid(format!(
                "metric {} value must be finite, got {}",
                spec.name, spec.value
            )));
        }
        let metric = MetricRecord {
            id: MetricId::generate(),
            instance_id: instance_id.clone(),
            name: spec.name,
            value: spec.value,
            scope: spec.scope,
            metadata: spec.metadata,
            created_at: self.clock.now_ms(),
        };
        self.dal
            .put(tables::METRICS, schemas::metric_to_record(&metric))?;
        self.events.publish(&GalleryEvent::MetricInserted {
            instance_id: instance_id.clone(),
            metric_name: metric.name.clone(),
            scope: metric.scope,
            value: metric.value,
        });
        Ok(metric)
    }

    /// Record a whole `<metric>:<value>` blob at once (§3.3.3).
    pub fn insert_metric_blob(
        &self,
        instance_id: &InstanceId,
        scope: MetricScope,
        blob: &str,
    ) -> Result<Vec<MetricRecord>> {
        let pairs = parse_metric_blob(blob)?;
        pairs
            .into_iter()
            .map(|(name, value)| {
                self.insert_metric(instance_id, MetricSpec::new(name, scope, value))
            })
            .collect()
    }

    /// All metrics recorded for an instance, oldest first.
    pub fn metrics_of_instance(&self, instance_id: &InstanceId) -> Result<Vec<MetricRecord>> {
        let rows = self.dal.query(
            tables::METRICS,
            &Query::all()
                .and(Constraint::eq("instance_id", instance_id.as_str()))
                .order_by("created", false),
        )?;
        metrics_from_rows(&rows)
    }

    /// Latest value of a named metric for an instance in a scope.
    pub fn latest_metric(
        &self,
        instance_id: &InstanceId,
        name: &str,
        scope: MetricScope,
    ) -> Result<Option<MetricRecord>> {
        let rows = self.dal.query(
            tables::METRICS,
            &Query::all()
                .and(Constraint::eq("instance_id", instance_id.as_str()))
                .and(Constraint::eq("name", name))
                .and(Constraint::eq("scope", scope.as_str()))
                .order_by("created", true)
                .limit(1),
        )?;
        rows.first().map(|r| metric_from_row(r)).transpose()
    }

    /// Latest stored value of a named metric for an instance across all
    /// scopes (the rule engine's hot lookup).
    pub fn latest_metric_any_scope(
        &self,
        instance_id: &InstanceId,
        name: &str,
    ) -> Result<Option<f64>> {
        let rows = self.dal.query(
            tables::METRICS,
            &Query::all()
                .and(Constraint::eq("instance_id", instance_id.as_str()))
                .and(Constraint::eq("name", name))
                .order_by("created", true)
                .limit(1),
        )?;
        Ok(rows
            .first()
            .and_then(|r| r.get("value"))
            .and_then(Value::as_float))
    }

    /// The Listing 5 search: constraints over instance columns plus
    /// `metricName` / `metricValue` constraints joined against the metrics
    /// table. Instance-side fields use the instances schema names
    /// (`project`, `model_name`, `city`, ...); metric-side constraints use
    /// the reserved fields `metricName`, `metricValue`, `metricScope`.
    ///
    /// With metric-side constraints an instance is kept when **any one** of
    /// its metric observations — not only the newest of a name — satisfies
    /// all of them at once: several `metricValue` constraints are a range
    /// that one row has to fall in. `metricName` and `metricScope` may be
    /// given once each. Results come in the instances' insertion order, as
    /// the stored rows: a malformed row is found when they are read.
    pub fn model_query(&self, constraints: &[Constraint]) -> Result<InstanceRows> {
        self.metrics.model_query.inc();
        let started = Instant::now();
        let mut span = self
            .metrics
            .telemetry
            .tracer()
            .start_span("registry/model_query");
        span.set_attr("constraints", constraints.len().to_string());
        let result = self.model_query_inner(constraints);
        if let Ok(instances) = &result {
            span.set_attr("results", instances.len().to_string());
        }
        self.metrics.query_ms.observe_since(started);
        result
    }

    fn model_query_inner(&self, constraints: &[Constraint]) -> Result<InstanceRows> {
        let mut instance_side = Vec::new();
        let mut metric_side = Vec::new();
        // `metricName` / `metricScope`: equality on a string column of the
        // metrics table. Given twice, neither value is the one meant.
        let metric_eq = |column: &str, c: &Constraint, so_far: &[Constraint]| {
            let field = &c.field;
            let value = c.value.as_str();
            let value =
                value.ok_or_else(|| GalleryError::Invalid(format!("{field} must be a string")))?;
            if so_far.iter().any(|m| m.field == column) {
                let twice = format!("{field} given more than once");
                return Err(GalleryError::Invalid(twice));
            }
            Ok(Constraint::eq(column, value))
        };
        let renamed = |field: &str, c: &Constraint| Constraint {
            field: field.into(),
            op: c.op,
            value: c.value.clone(),
        };
        for c in constraints {
            match c.field.as_str() {
                "metricName" => metric_side.push(metric_eq("name", c, &metric_side)?),
                "metricScope" => metric_side.push(metric_eq("scope", c, &metric_side)?),
                "metricValue" => metric_side.push(renamed("value", c)),
                // Accept the paper's camelCase aliases.
                "projectName" => instance_side.push(renamed("project", c)),
                "modelName" => instance_side.push(renamed("model_name", c)),
                _ => instance_side.push(c.clone()),
            }
        }
        let rows = self
            .dal
            .query(tables::INSTANCES, &Query::new(instance_side))?;
        if metric_side.is_empty() || rows.is_empty() {
            return Ok(InstanceRows::new(rows));
        }
        // Join: keep instances with at least one metric row matching all
        // metric-side constraints — any observation, not the latest of its
        // name. One store call answers for all candidates.
        let id = rows[0].schema().positions(["id"]);
        let ids: Vec<&Value> = rows.iter().map(|r| r.values_at(&id)[0]).collect();
        let keep = self.dal.semi_join(
            tables::METRICS,
            "instance_id",
            &ids,
            &Query::new(metric_side),
        )?;
        let kept = rows.into_iter().zip(keep).filter(|(_, keep)| *keep);
        Ok(InstanceRows::new(kept.map(|(r, _)| r).collect()))
    }

    // ------------------------------------------------------------------
    // Deployments
    // ------------------------------------------------------------------

    /// Deploy an instance of a model to an environment. Deployments are an
    /// append-only history; the current production pointer is the latest
    /// row for (model, environment).
    pub fn deploy(
        &self,
        model_id: &ModelId,
        instance_id: &InstanceId,
        environment: &str,
    ) -> Result<DeploymentId> {
        let instance = self.get_instance(instance_id)?;
        if &instance.model_id != model_id {
            return Err(GalleryError::Invalid(format!(
                "instance {instance_id} belongs to model {}, not {model_id}",
                instance.model_id
            )));
        }
        if instance.deprecated {
            return Err(GalleryError::Deprecated(instance_id.to_string()));
        }
        let d = Deployment {
            id: DeploymentId::generate(),
            model_id: model_id.clone(),
            instance_id: instance_id.clone(),
            environment: environment.to_owned(),
            created_at: self.clock.now_ms(),
        };
        self.dal
            .put(tables::DEPLOYMENTS, schemas::deployment_to_record(&d))?;
        self.events.publish(&GalleryEvent::Deployed {
            model_id: model_id.clone(),
            instance_id: instance_id.clone(),
            environment: environment.to_owned(),
        });
        Ok(d.id)
    }

    /// Currently deployed instance for (model, environment), if any.
    pub fn deployed_instance(
        &self,
        model_id: &ModelId,
        environment: &str,
    ) -> Result<Option<InstanceId>> {
        let rows = self.dal.query(
            tables::DEPLOYMENTS,
            &Query::all()
                .and(Constraint::eq("model_id", model_id.as_str()))
                .and(Constraint::eq("environment", environment))
                .order_by("created", true)
                .limit(1),
        )?;
        Ok(rows
            .first()
            .and_then(|r| r.get("instance_id"))
            .and_then(Value::as_str)
            .map(InstanceId::from))
    }

    /// Full deployment history for a model, newest first.
    pub fn deployment_history(&self, model_id: &ModelId) -> Result<Vec<Deployment>> {
        let rows = self.dal.query(
            tables::DEPLOYMENTS,
            &Query::all()
                .and(Constraint::eq("model_id", model_id.as_str()))
                .order_by("created", true),
        )?;
        deployments_from_rows(&rows)
    }

    /// Roll the production pointer for (model, environment) back to the
    /// previous *distinct* instance in the deployment history. Instances
    /// are immutable and permanently addressable (§3.4), so a rollback is
    /// just a fresh deployment of the prior pointer — the history keeps
    /// the full audit trail, including the rollback itself. Returns the
    /// instance the pointer now targets.
    ///
    /// This is the lifecycle action a firing model-health alert invokes
    /// through the rules bridge (monitor gauge breach → alert → rollback).
    pub fn rollback_production(&self, model_id: &ModelId, environment: &str) -> Result<InstanceId> {
        let history = self.deployment_history(model_id)?;
        let mut in_env = history.iter().filter(|d| d.environment == environment);
        let current = in_env.next().ok_or_else(|| {
            GalleryError::Invalid(format!(
                "no deployment of model {model_id} in environment {environment} to roll back"
            ))
        })?;
        let previous = in_env
            .find(|d| d.instance_id != current.instance_id)
            .ok_or_else(|| {
                GalleryError::Invalid(format!(
                    "no earlier distinct instance of model {model_id} in environment \
                     {environment} to roll back to"
                ))
            })?;
        let target = previous.instance_id.clone();
        self.deploy(model_id, &target, environment)?;
        self.metrics.rollback.inc();
        Ok(target)
    }

    // ------------------------------------------------------------------
    // Lifecycle stages
    // ------------------------------------------------------------------

    /// Current lifecycle stage of an instance. A freshly uploaded trained
    /// instance with no explicit stage history is implicitly `Trained`;
    /// automatic versions are implicitly `Exploration` (they have not been
    /// trained).
    pub fn stage_of(&self, instance_id: &InstanceId) -> Result<Stage> {
        let instance = self.get_instance(instance_id)?;
        let rows = self.dal.query(
            tables::LIFECYCLE,
            &Query::all()
                .and(Constraint::eq("instance_id", instance_id.as_str()))
                .order_by("created", true)
                .limit(1),
        )?;
        match rows
            .first()
            .and_then(|r| r.get("stage"))
            .and_then(Value::as_str)
        {
            Some(s) => Stage::parse(s),
            None => Ok(if instance.is_trained() {
                Stage::Trained
            } else {
                Stage::Exploration
            }),
        }
    }

    /// Transition an instance's lifecycle stage, enforcing Figure 1's
    /// legal edges.
    pub fn set_stage(&self, instance_id: &InstanceId, next: Stage) -> Result<Stage> {
        let current = self.stage_of(instance_id)?;
        let next = current.transition_to(next)?;
        let record = Record::new()
            .set("id", MetricId::generate().0)
            .set("instance_id", instance_id.as_str())
            .set("stage", next.as_str())
            .set("created", Value::Timestamp(self.clock.now_ms()));
        self.dal.put(tables::LIFECYCLE, record)?;
        self.events.publish(&GalleryEvent::StageChanged {
            instance_id: instance_id.clone(),
            stage: next.as_str().to_owned(),
        });
        if next == Stage::Deprecated {
            self.deprecate_instance(instance_id)?;
        }
        Ok(next)
    }

    /// Full stage history of an instance, oldest first.
    pub fn stage_history(&self, instance_id: &InstanceId) -> Result<Vec<(Stage, TimestampMs)>> {
        let rows = self.dal.query(
            tables::LIFECYCLE,
            &Query::all()
                .and(Constraint::eq("instance_id", instance_id.as_str()))
                .order_by("created", false),
        )?;
        rows.iter()
            .map(|r| {
                let stage = Stage::parse(
                    r.get("stage")
                        .and_then(Value::as_str)
                        .ok_or_else(|| GalleryError::Invalid("bad lifecycle row".into()))?,
                )?;
                let ts = r
                    .get("created")
                    .and_then(Value::as_int)
                    .ok_or_else(|| GalleryError::Invalid("bad lifecycle row".into()))?;
                Ok((stage, ts))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::metadata::{fields, Metadata};

    fn gallery() -> Gallery {
        Gallery::in_memory_with_clock(Arc::new(ManualClock::new(1_000)))
    }

    fn spec(base: &str) -> ModelSpec {
        ModelSpec::new("example-project", base)
            .name("random_forest")
            .owner("forecasting")
    }

    #[test]
    fn create_and_get_model() {
        let g = gallery();
        let m = g.create_model(spec("supply_rejection")).unwrap();
        let back = g.get_model(&m.id).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn create_model_requires_project_and_base() {
        let g = gallery();
        assert!(g.create_model(ModelSpec::default()).is_err());
    }

    #[test]
    fn upload_instance_and_fetch_blob() {
        let g = gallery();
        let m = g.create_model(spec("supply_rejection")).unwrap();
        let inst = g
            .upload_instance(
                &m.id,
                InstanceSpec::new().metadata(Metadata::new().with(fields::CITY, "New York City")),
                Bytes::from_static(b"serialized model"),
            )
            .unwrap();
        assert_eq!(inst.display_version, DisplayVersion::new(1, 0));
        let blob = g.fetch_instance_blob(&inst.id).unwrap();
        assert_eq!(blob, Bytes::from_static(b"serialized model"));
    }

    #[test]
    fn fetching_the_blob_of_a_missing_instance_names_it() {
        let g = gallery();
        assert_eq!(
            g.fetch_instance_blob(&InstanceId::from("no-such-instance"))
                .unwrap_err(),
            GalleryError::NoSuchInstance("no-such-instance".into())
        );
    }

    #[test]
    fn versions_bump_on_retrain() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let i1 = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"v1"))
            .unwrap();
        let i2 = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"v2"))
            .unwrap();
        assert_eq!(i1.display_version, DisplayVersion::new(1, 0));
        assert_eq!(i2.display_version, DisplayVersion::new(1, 1));
        assert_eq!(i2.parent, Some(i1.id));
    }

    #[test]
    fn uploads_at_one_timestamp_get_distinct_versions() {
        // Two registries on one store (or a restart inside a millisecond):
        // each issues increasing times of its own, so `created` can tie
        // across them, and "latest" must still be the newest commit — or
        // the next upload is handed a version that exists.
        struct Wall(std::sync::atomic::AtomicI64);
        impl Clock for Wall {
            fn now_ms(&self) -> TimestampMs {
                self.0.load(std::sync::atomic::Ordering::SeqCst)
            }
        }
        let wall = Arc::new(Wall(1_000.into()));
        let a = Gallery::in_memory_with_clock(Arc::clone(&wall) as Arc<dyn Clock>);
        let b = Gallery::open(Arc::clone(a.dal()), Arc::clone(&wall) as Arc<dyn Clock>).unwrap();
        let m = a.create_model(spec("demand")).unwrap();
        let mut uploads = Vec::new();
        for now in [2_000, 3_000, 4_000] {
            wall.0.store(now, std::sync::atomic::Ordering::SeqCst);
            for g in [&a, &b] {
                let inst = g
                    .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"w"))
                    .unwrap();
                assert_eq!(g.latest_instance(&m.id).unwrap().unwrap().id, inst.id);
                uploads.push((inst.created_at, inst.display_version));
            }
        }
        let expected: Vec<_> = [2_000, 2_000, 3_000, 3_000, 4_000, 4_000]
            .into_iter()
            .zip((0..6).map(|minor| DisplayVersion::new(1, minor)))
            .collect();
        assert_eq!(uploads, expected);
    }

    #[test]
    fn a_deprecated_version_number_is_not_handed_out_again() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let upload = || {
            g.upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"w"))
                .unwrap()
        };
        let v10 = upload();
        let v11 = upload();
        g.deprecate_instance(&v11.id).unwrap();
        let next = upload();
        assert_eq!(next.display_version, DisplayVersion::new(1, 2));
        // The lineage skips the deprecated row: its parent is the newest
        // live instance.
        assert_eq!(next.parent, Some(v10.id.clone()));
        // So does an automatic instance claimed after another deprecation.
        let up = g.create_model(spec("upstream")).unwrap();
        g.add_dependency(&m.id, &up.id).unwrap();
        let newest = g.latest_instance(&m.id).unwrap().unwrap();
        g.deprecate_instance(&newest.id).unwrap();
        g.upload_instance(&up.id, InstanceSpec::new(), Bytes::from_static(b"u"))
            .unwrap();
        let auto = g.latest_instance(&m.id).unwrap().unwrap();
        assert!(auto.trigger.is_automatic());
        assert_eq!(auto.display_version, newest.display_version.bump_minor());
        assert_eq!(auto.parent, newest.parent);
    }

    #[test]
    fn base_version_traversal_is_time_ordered() {
        let g = gallery();
        let m = g.create_model(spec("supply_cancellation")).unwrap();
        let mut ids = Vec::new();
        for v in 0..4 {
            let inst = g
                .upload_instance(
                    &m.id,
                    InstanceSpec::new(),
                    Bytes::from(format!("weights-{v}")),
                )
                .unwrap();
            ids.push(inst.id);
        }
        let instances = g
            .instances_of_base_version("supply_cancellation")
            .unwrap()
            .to_instances()
            .unwrap();
        assert_eq!(instances.len(), 4);
        let got: Vec<_> = instances.iter().map(|i| i.id.clone()).collect();
        assert_eq!(got, ids);
        assert!(instances
            .windows(2)
            .all(|w| w[0].created_at < w[1].created_at));
    }

    #[test]
    fn metrics_roundtrip_and_latest() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"w"))
            .unwrap();
        g.insert_metric(
            &inst.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.05),
        )
        .unwrap();
        g.insert_metric(
            &inst.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.03),
        )
        .unwrap();
        let latest = g
            .latest_metric(&inst.id, "bias", MetricScope::Validation)
            .unwrap()
            .unwrap();
        assert_eq!(latest.value, 0.03);
        assert_eq!(g.metrics_of_instance(&inst.id).unwrap().len(), 2);
    }

    #[test]
    fn metric_blob_insert() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"w"))
            .unwrap();
        let metrics = g
            .insert_metric_blob(&inst.id, MetricScope::Training, "mae:0.2\nmape:0.12")
            .unwrap();
        assert_eq!(metrics.len(), 2);
    }

    #[test]
    fn writes_to_a_missing_instance_or_model_name_it() {
        let g = gallery();
        let ghost = InstanceId::from("no-such-instance");
        let spec = MetricSpec::new("mape", MetricScope::Validation, 0.1);
        assert_eq!(
            g.insert_metric(&ghost, spec).unwrap_err(),
            GalleryError::NoSuchInstance("no-such-instance".into())
        );
        assert_eq!(
            g.deprecate_instance(&ghost).unwrap_err(),
            GalleryError::NoSuchInstance("no-such-instance".into())
        );
        assert_eq!(
            g.deprecate_model(&ModelId::from("no-such-model"))
                .unwrap_err(),
            GalleryError::NoSuchModel("no-such-model".into())
        );
    }

    #[test]
    fn nonfinite_metric_rejected() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"w"))
            .unwrap();
        assert!(g
            .insert_metric(
                &inst.id,
                MetricSpec::new("mae", MetricScope::Training, f64::NAN)
            )
            .is_err());
    }

    #[test]
    fn listing5_model_query() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let good = g
            .upload_instance(
                &m.id,
                InstanceSpec::new()
                    .metadata(Metadata::new().with(fields::MODEL_NAME, "random_forest")),
                Bytes::from_static(b"g"),
            )
            .unwrap();
        let bad = g
            .upload_instance(
                &m.id,
                InstanceSpec::new()
                    .metadata(Metadata::new().with(fields::MODEL_NAME, "random_forest")),
                Bytes::from_static(b"b"),
            )
            .unwrap();
        g.insert_metric(
            &good.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.05),
        )
        .unwrap();
        g.insert_metric(
            &bad.id,
            MetricSpec::new("bias", MetricScope::Validation, 0.9),
        )
        .unwrap();
        // Listing 5: projectName == example-project, modelName ==
        // random_forest, metricName == bias, metricValue < 0.25.
        let found = g
            .model_query(&[
                Constraint::eq("projectName", "example-project"),
                Constraint::eq("modelName", "random_forest"),
                Constraint::eq("metricName", "bias"),
                Constraint::lt("metricValue", 0.25),
            ])
            .unwrap()
            .to_instances()
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, good.id);
    }

    /// Upload an instance of `model` and record `(name, scope, value)`
    /// observations for it, oldest first.
    fn observed(
        g: &Gallery,
        model: &ModelId,
        observations: &[(&str, MetricScope, f64)],
    ) -> InstanceId {
        let inst = g
            .upload_instance(model, InstanceSpec::new(), Bytes::from_static(b"w"))
            .unwrap();
        for &(name, scope, value) in observations {
            g.insert_metric(&inst.id, MetricSpec::new(name, scope, value))
                .unwrap();
        }
        inst.id
    }

    fn found(g: &Gallery, constraints: &[Constraint]) -> Vec<InstanceId> {
        let instances = g.model_query(constraints).unwrap().to_instances().unwrap();
        instances.into_iter().map(|i| i.id).collect()
    }

    #[test]
    fn model_query_keeps_an_instance_for_any_matching_observation() {
        use MetricScope::{Production, Validation};
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap().id;
        // Newest bias above the threshold, an older one below it.
        let regressed = observed(
            &g,
            &m,
            &[("bias", Validation, 0.1), ("bias", Validation, 0.9)],
        );
        let other_metric = observed(
            &g,
            &m,
            &[("mape", Production, 0.2), ("bias", Validation, 0.9)],
        );
        let middling = observed(&g, &m, &[("bias", Production, 0.3)]);
        let unmeasured = observed(&g, &m, &[]);
        let low_bias = [
            Constraint::eq("metricName", "bias"),
            Constraint::lt("metricValue", 0.25),
        ];
        assert_eq!(found(&g, &low_bias), std::slice::from_ref(&regressed));
        // Metric-side fields filter without a `metricName` too.
        assert_eq!(
            found(&g, &[Constraint::lt("metricValue", 0.25)]),
            [regressed.clone(), other_metric.clone()]
        );
        assert_eq!(
            found(&g, &[Constraint::eq("metricScope", "production")]),
            [other_metric.clone(), middling.clone()]
        );
        // A range holds on one row: 0.1 and 0.9 do not add up to 0.3.
        let band = [
            Constraint::gt("metricValue", 0.25),
            Constraint::lt("metricValue", 0.5),
        ];
        assert_eq!(found(&g, &band), std::slice::from_ref(&middling));
        // Without metric-side fields nothing is joined, nothing dropped.
        let all = found(&g, &[Constraint::eq("projectName", "example-project")]);
        assert_eq!(all, [regressed, other_metric, middling, unmeasured]);
    }

    #[test]
    fn model_query_joins_in_one_store_call_and_none_without_candidates() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap().id;
        for _ in 0..3 {
            observed(&g, &m, &[("bias", MetricScope::Validation, 0.1)]);
        }
        let reads = || {
            let stats = g.dal().metadata().table_stats(tables::METRICS).unwrap();
            stats.index_queries + stats.full_scans + stats.pk_lookups
        };
        let low_bias = |project: &str| {
            [
                Constraint::eq("projectName", project),
                Constraint::lt("metricValue", 0.25),
            ]
        };
        let before = reads();
        assert_eq!(found(&g, &low_bias("example-project")).len(), 3);
        assert_eq!(reads(), before + 1);
        assert!(found(&g, &low_bias("another-project")).is_empty());
        assert_eq!(reads(), before + 1);
    }

    #[test]
    fn model_query_rejects_a_metric_field_given_twice() {
        let g = gallery();
        for field in ["metricName", "metricScope"] {
            let twice = [Constraint::eq(field, "a"), Constraint::eq(field, "b")];
            match g.model_query(&twice) {
                Err(GalleryError::Invalid(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field} twice: {other:?}"),
            }
            let number = [Constraint::eq(field, 1i64)];
            assert!(matches!(
                g.model_query(&number),
                Err(GalleryError::Invalid(_))
            ));
        }
    }

    #[test]
    fn model_query_fails_whole_when_the_join_read_fails() {
        use gallery_store::blob::localfs::LocalFsBlobStore;
        use gallery_store::fault::{sites, FaultPlan};
        let faults = FaultPlan::none();
        let meta = MetadataStore::in_memory().with_faults(faults.clone());
        let dal = Dal::new(Arc::new(meta), Arc::new(LocalFsBlobStore::in_memory()));
        let g = Gallery::open(Arc::new(dal), Arc::new(ManualClock::new(1_000))).unwrap();
        let m = g.create_model(spec("demand")).unwrap().id;
        observed(&g, &m, &[("bias", MetricScope::Validation, 0.1)]);
        let low_bias = [Constraint::lt("metricValue", 0.25)];
        assert_eq!(found(&g, &low_bias).len(), 1);
        // The instance query (call 0) passes, the join's one read does not.
        faults.fail_nth_call(sites::META_QUERY, 1);
        assert!(g.model_query(&low_bias).is_err());
        assert_eq!(found(&g, &low_bias).len(), 1);
    }

    #[test]
    fn deploy_and_pointer() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let i1 = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"1"))
            .unwrap();
        let i2 = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"2"))
            .unwrap();
        g.deploy(&m.id, &i1.id, "production").unwrap();
        assert_eq!(
            g.deployed_instance(&m.id, "production").unwrap(),
            Some(i1.id.clone())
        );
        g.deploy(&m.id, &i2.id, "production").unwrap();
        assert_eq!(
            g.deployed_instance(&m.id, "production").unwrap(),
            Some(i2.id.clone())
        );
        assert_eq!(g.deployment_history(&m.id).unwrap().len(), 2);
        // other environments unaffected
        assert_eq!(g.deployed_instance(&m.id, "staging").unwrap(), None);
    }

    #[test]
    fn rollback_production_returns_to_prior_distinct_instance() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let i1 = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"1"))
            .unwrap();
        let i2 = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"2"))
            .unwrap();
        // Nothing deployed yet — nothing to roll back.
        assert!(g.rollback_production(&m.id, "production").is_err());
        g.deploy(&m.id, &i1.id, "production").unwrap();
        // Only one instance ever deployed — no distinct predecessor.
        assert!(g.rollback_production(&m.id, "production").is_err());
        g.deploy(&m.id, &i2.id, "production").unwrap();
        let back = g.rollback_production(&m.id, "production").unwrap();
        assert_eq!(back, i1.id);
        assert_eq!(
            g.deployed_instance(&m.id, "production").unwrap(),
            Some(i1.id.clone())
        );
        // The rollback is itself a deployment: full audit trail retained.
        assert_eq!(g.deployment_history(&m.id).unwrap().len(), 3);
        // Rolling back again flips to i2 (the previous distinct pointer).
        let forward = g.rollback_production(&m.id, "production").unwrap();
        assert_eq!(forward, i2.id);
    }

    #[test]
    fn deploy_rejects_foreign_instance() {
        let g = gallery();
        let m1 = g.create_model(spec("a")).unwrap();
        let m2 = g.create_model(spec("b")).unwrap();
        let i = g
            .upload_instance(&m2.id, InstanceSpec::new(), Bytes::from_static(b"x"))
            .unwrap();
        assert!(g.deploy(&m1.id, &i.id, "production").is_err());
    }

    #[test]
    fn deprecation_hides_from_search_but_keeps_record() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"x"))
            .unwrap();
        g.deprecate_instance(&inst.id).unwrap();
        // hidden from default search
        let found = g
            .find_instances(&Query::all().and(Constraint::eq("model_id", m.id.as_str())))
            .unwrap();
        assert!(found.is_empty());
        // still fetchable directly ("any application depending on these
        // deprecated models ... can still use them")
        let direct = g.get_instance(&inst.id).unwrap();
        assert!(direct.deprecated);
        assert!(g.fetch_instance_blob(&inst.id).is_ok());
    }

    #[test]
    fn deprecated_model_rejects_uploads() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        g.deprecate_model(&m.id).unwrap();
        assert!(g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"x"))
            .is_err());
    }

    #[test]
    fn lifecycle_stage_transitions() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(g.stage_of(&inst.id).unwrap(), Stage::Trained);
        g.set_stage(&inst.id, Stage::Evaluated).unwrap();
        g.set_stage(&inst.id, Stage::Deployed).unwrap();
        g.set_stage(&inst.id, Stage::Monitoring).unwrap();
        assert_eq!(g.stage_of(&inst.id).unwrap(), Stage::Monitoring);
        // illegal jump
        assert!(g.set_stage(&inst.id, Stage::Exploration).is_err());
        let history = g.stage_history(&inst.id).unwrap();
        assert_eq!(history.len(), 3);
        assert!(history.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn stage_deprecation_sets_flag() {
        let g = gallery();
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"x"))
            .unwrap();
        g.set_stage(&inst.id, Stage::Deprecated).unwrap();
        assert!(g.get_instance(&inst.id).unwrap().deprecated);
    }

    #[test]
    fn model_evolution_lineage() {
        let g = gallery();
        let v1 = g.create_model(spec("demand")).unwrap();
        let v2 = g
            .create_model(spec("demand").evolved_from(v1.id.clone()))
            .unwrap();
        let v3 = g
            .create_model(spec("demand").evolved_from(v2.id.clone()))
            .unwrap();
        let lineage = g.model_lineage(&v3.id).unwrap();
        assert_eq!(
            lineage.iter().map(|m| m.id.clone()).collect::<Vec<_>>(),
            vec![v3.id.clone(), v2.id.clone(), v1.id.clone()]
        );
        let next = g.next_models(&v1.id).unwrap();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].id, v2.id);
    }

    #[test]
    fn events_published() {
        use std::sync::Mutex;
        let g = gallery();
        let events: Arc<Mutex<Vec<String>>> = Arc::default();
        {
            let events = Arc::clone(&events);
            g.events().subscribe(Arc::new(move |e| {
                events.lock().unwrap().push(format!("{e:?}"));
            }));
        }
        let m = g.create_model(spec("demand")).unwrap();
        let inst = g
            .upload_instance(&m.id, InstanceSpec::new(), Bytes::from_static(b"x"))
            .unwrap();
        g.insert_metric(&inst.id, MetricSpec::new("mae", MetricScope::Training, 0.1))
            .unwrap();
        let log = events.lock().unwrap();
        assert!(log.iter().any(|e| e.contains("ModelCreated")));
        assert!(log.iter().any(|e| e.contains("InstanceCreated")));
        assert!(log.iter().any(|e| e.contains("MetricInserted")));
    }
}
