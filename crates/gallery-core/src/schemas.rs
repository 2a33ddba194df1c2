//! Table schemas backing the Gallery data model (Fig 3), and the
//! record<->domain-type conversions.

// The `.expect("… statically valid")` calls below parse compile-time
// constant schemas; schema-construction tests cover every table, so a
// panic here cannot be reached from user input.
#![allow(clippy::disallowed_methods)]

use crate::clock::TimestampMs;
use crate::error::{GalleryError, Result};
use crate::id::{BaseVersionId, DeploymentId, InstanceId, MetricId, ModelId};
use crate::instance::ModelInstance;
use crate::metadata::{fields, Metadata};
use crate::metrics::{MetricRecord, MetricScope};
use crate::model::Model;
use crate::version::{DisplayVersion, InstanceTrigger};
use gallery_store::{BlobLocation, ColumnDef, Record, TableSchema, Value, ValueType};

/// Table names.
pub mod tables {
    pub const MODELS: &str = "models";
    pub const INSTANCES: &str = "instances";
    pub const METRICS: &str = "metrics";
    pub const DEPENDENCIES: &str = "dependencies";
    pub const DEPLOYMENTS: &str = "deployments";
    pub const LIFECYCLE: &str = "lifecycle_events";
}

/// Schema of the `models` table.
pub fn models_schema() -> TableSchema {
    TableSchema::new(
        tables::MODELS,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("base_version_id", ValueType::Str).hash_indexed(),
            ColumnDef::new("project", ValueType::Str).hash_indexed(),
            ColumnDef::new("name", ValueType::Str).hash_indexed(),
            ColumnDef::new("owner", ValueType::Str).hash_indexed(),
            ColumnDef::new("description", ValueType::Str).nullable(),
            ColumnDef::new("metadata", ValueType::Str).nullable(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
            ColumnDef::new("prev", ValueType::Str)
                .nullable()
                .hash_indexed(),
            ColumnDef::new("display_major", ValueType::Int),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ],
    )
    .expect("models schema is statically valid")
}

/// Schema of the `instances` table. `city`, `model_name`, `model_type` and
/// `project` are denormalized from metadata into indexed columns because
/// they are the paper's canonical search keys (Listings 3 & 5). The
/// ordered index `model_id → created` answers "the latest instance of
/// this model" — what serving hosts ask, and what every upload asks first.
pub fn instances_schema() -> TableSchema {
    TableSchema::new(
        tables::INSTANCES,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("model_id", ValueType::Str),
            ColumnDef::new("base_version_id", ValueType::Str).hash_indexed(),
            ColumnDef::new("display_version", ValueType::Str),
            ColumnDef::new("blob_location", ValueType::Str).nullable(),
            ColumnDef::new("metadata", ValueType::Str).nullable(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
            ColumnDef::new("trigger", ValueType::Str),
            ColumnDef::new("parent", ValueType::Str).nullable(),
            ColumnDef::new("city", ValueType::Str)
                .nullable()
                .hash_indexed(),
            ColumnDef::new("model_name", ValueType::Str)
                .nullable()
                .hash_indexed(),
            ColumnDef::new("model_type", ValueType::Str)
                .nullable()
                .hash_indexed(),
            ColumnDef::new("project", ValueType::Str)
                .nullable()
                .hash_indexed(),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ],
    )
    .and_then(|s| s.ordered_by("model_id", "created"))
    .expect("instances schema is statically valid")
}

/// Schema of the `metrics` table; `instance_id → created` serves the
/// latest-metric lookups of the rule engine.
pub fn metrics_schema() -> TableSchema {
    TableSchema::new(
        tables::METRICS,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("instance_id", ValueType::Str),
            ColumnDef::new("name", ValueType::Str).hash_indexed(),
            ColumnDef::new("value", ValueType::Float).btree_indexed(),
            ColumnDef::new("scope", ValueType::Str).hash_indexed(),
            ColumnDef::new("metadata", ValueType::Str).nullable(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
        ],
    )
    .and_then(|s| s.ordered_by("instance_id", "created"))
    .expect("metrics schema is statically valid")
}

/// Schema of the `dependencies` edge table: `model` depends on `upstream`.
pub fn dependencies_schema() -> TableSchema {
    TableSchema::new(
        tables::DEPENDENCIES,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("model", ValueType::Str).hash_indexed(),
            ColumnDef::new("upstream", ValueType::Str).hash_indexed(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ],
    )
    .expect("dependencies schema is statically valid")
}

/// Schema of the `deployments` table (append-only deployment history; the
/// production pointer of a model+environment is the latest row).
pub fn deployments_schema() -> TableSchema {
    TableSchema::new(
        tables::DEPLOYMENTS,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("model_id", ValueType::Str),
            ColumnDef::new("instance_id", ValueType::Str).hash_indexed(),
            ColumnDef::new("environment", ValueType::Str).hash_indexed(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
        ],
    )
    .and_then(|s| s.ordered_by("model_id", "created"))
    .expect("deployments schema is statically valid")
}

/// Schema of the `lifecycle_events` table (append-only stage history; an
/// instance's current stage is its latest event).
pub fn lifecycle_schema() -> TableSchema {
    TableSchema::new(
        tables::LIFECYCLE,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("instance_id", ValueType::Str),
            ColumnDef::new("stage", ValueType::Str).hash_indexed(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
        ],
    )
    .and_then(|s| s.ordered_by("instance_id", "created"))
    .expect("lifecycle schema is statically valid")
}

/// All Gallery table schemas, in creation order.
pub fn all_schemas() -> Vec<TableSchema> {
    vec![
        models_schema(),
        instances_schema(),
        metrics_schema(),
        dependencies_schema(),
        deployments_schema(),
        lifecycle_schema(),
    ]
}

fn req<'r>(record: &'r Record, field: &str) -> Result<&'r str> {
    record
        .get(field)
        .and_then(|v| v.as_str())
        .ok_or_else(|| GalleryError::Invalid(format!("record missing string field {field}")))
}

fn req_str(record: &Record, field: &str) -> Result<String> {
    req(record, field).map(str::to_owned)
}

/// A nullable string column, borrowed from the row.
pub(crate) fn opt<'r>(record: &'r Record, field: &str) -> Option<&'r str> {
    record.get(field).and_then(|v| v.as_str())
}

fn opt_str(record: &Record, field: &str) -> Option<String> {
    opt(record, field).map(str::to_owned)
}

fn req_ts(record: &Record, field: &str) -> Result<TimestampMs> {
    record
        .get(field)
        .and_then(|v| v.as_int())
        .ok_or_else(|| GalleryError::Invalid(format!("record missing timestamp field {field}")))
}

fn flag(record: &Record, field: &str) -> bool {
    matches!(record.get(field), Some(Value::Bool(true)))
}

fn metadata_of(record: &Record) -> Metadata {
    record
        .get("metadata")
        .and_then(|v| v.as_str())
        .map(Metadata::from_stored)
        .unwrap_or_default()
}

/// Convert a `models` row into a [`Model`].
pub fn model_from_record(record: &Record) -> Result<Model> {
    Ok(Model {
        id: ModelId(req_str(record, "id")?),
        base_version_id: BaseVersionId(req_str(record, "base_version_id")?),
        project: req_str(record, "project")?,
        name: req_str(record, "name")?,
        owner: req_str(record, "owner")?,
        description: opt_str(record, "description").unwrap_or_default(),
        metadata: metadata_of(record),
        created_at: req_ts(record, "created")?,
        prev: opt_str(record, "prev").map(ModelId),
        deprecated: flag(record, "deprecated"),
    })
}

/// Convert a [`Model`] plus its display major into a `models` row.
pub fn model_to_record(model: &Model, display_major: u32) -> Record {
    let mut r = Record::new()
        .set("id", model.id.as_str())
        .set("base_version_id", model.base_version_id.as_str())
        .set("project", model.project.clone())
        .set("name", model.name.clone())
        .set("owner", model.owner.clone())
        .set("description", model.description.clone())
        .set("metadata", model.metadata.to_json())
        .set("created", Value::Timestamp(model.created_at))
        .set("display_major", display_major as i64);
    if let Some(prev) = &model.prev {
        r = r.set("prev", prev.as_str());
    }
    r
}

/// Convert an `instances` row into a [`ModelInstance`].
pub fn instance_from_record(record: &Record) -> Result<ModelInstance> {
    Ok(ModelInstance {
        id: InstanceId(req_str(record, "id")?),
        model_id: ModelId(req_str(record, "model_id")?),
        base_version_id: BaseVersionId(req_str(record, "base_version_id")?),
        display_version: DisplayVersion::parse(req(record, "display_version")?)?,
        blob_location: opt_str(record, "blob_location").map(BlobLocation::new),
        metadata: metadata_of(record),
        created_at: req_ts(record, "created")?,
        trigger: InstanceTrigger::decode(req(record, "trigger")?)?,
        parent: opt_str(record, "parent").map(InstanceId),
        deprecated: flag(record, "deprecated"),
    })
}

/// Convert a [`ModelInstance`] into an `instances` row (blob_location is
/// filled by the DAL when a blob accompanies the write).
pub fn instance_to_record(instance: &ModelInstance, project: &str) -> Record {
    let mut r = Record::new()
        .set("id", instance.id.as_str())
        .set("model_id", instance.model_id.as_str())
        .set("base_version_id", instance.base_version_id.as_str())
        .set("display_version", instance.display_version.to_string())
        .set("metadata", instance.metadata.to_json())
        .set("created", Value::Timestamp(instance.created_at))
        .set("trigger", instance.trigger.encode())
        .set("project", project);
    if let Some(loc) = &instance.blob_location {
        r = r.set("blob_location", loc.as_str());
    }
    if let Some(parent) = &instance.parent {
        r = r.set("parent", parent.as_str());
    }
    // Denormalize canonical search keys out of the metadata.
    if let Some(city) = instance.metadata.get_str(fields::CITY) {
        r = r.set("city", city);
    }
    if let Some(name) = instance.metadata.get_str(fields::MODEL_NAME) {
        r = r.set("model_name", name);
    }
    if let Some(ty) = instance.metadata.get_str(fields::MODEL_TYPE) {
        r = r.set("model_type", ty);
    }
    r
}

/// Convert a `metrics` row into a [`MetricRecord`].
pub fn metric_from_record(record: &Record) -> Result<MetricRecord> {
    Ok(MetricRecord {
        id: MetricId(req_str(record, "id")?),
        instance_id: InstanceId(req_str(record, "instance_id")?),
        name: req_str(record, "name")?,
        value: record
            .get("value")
            .and_then(|v| v.as_float())
            .ok_or_else(|| GalleryError::Invalid("metric missing value".into()))?,
        scope: MetricScope::parse(req(record, "scope")?)?,
        metadata: metadata_of(record),
        created_at: req_ts(record, "created")?,
    })
}

/// Convert a [`MetricRecord`] into a `metrics` row.
pub fn metric_to_record(metric: &MetricRecord) -> Record {
    Record::new()
        .set("id", metric.id.as_str())
        .set("instance_id", metric.instance_id.as_str())
        .set("name", metric.name.clone())
        .set("value", metric.value)
        .set("scope", metric.scope.as_str())
        .set("metadata", metric.metadata.to_json())
        .set("created", Value::Timestamp(metric.created_at))
}

/// A deployment row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    pub id: DeploymentId,
    pub model_id: ModelId,
    pub instance_id: InstanceId,
    pub environment: String,
    pub created_at: TimestampMs,
}

pub fn deployment_from_record(record: &Record) -> Result<Deployment> {
    Ok(Deployment {
        id: DeploymentId(req_str(record, "id")?),
        model_id: ModelId(req_str(record, "model_id")?),
        instance_id: InstanceId(req_str(record, "instance_id")?),
        environment: req_str(record, "environment")?,
        created_at: req_ts(record, "created")?,
    })
}

pub fn deployment_to_record(d: &Deployment) -> Record {
    Record::new()
        .set("id", d.id.as_str())
        .set("model_id", d.model_id.as_str())
        .set("instance_id", d.instance_id.as_str())
        .set("environment", d.environment.clone())
        .set("created", Value::Timestamp(d.created_at))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemas_build_and_are_distinct() {
        let schemas = all_schemas();
        assert_eq!(schemas.len(), 6);
        let names: std::collections::HashSet<_> = schemas.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn model_record_roundtrip() {
        let model = Model {
            id: ModelId::from("m-1"),
            base_version_id: BaseVersionId::new("demand_conversion"),
            project: "marketplace".into(),
            name: "linear_regression".into(),
            owner: "forecasting".into(),
            description: "lr for demand".into(),
            metadata: Metadata::new().with(fields::MODEL_DOMAIN, "UberX"),
            created_at: 123,
            prev: Some(ModelId::from("m-0")),
            deprecated: false,
        };
        let record = model_to_record(&model, 4);
        let back = model_from_record(&record).unwrap();
        assert_eq!(back, model);
        assert_eq!(record.get("display_major"), Some(&Value::Int(4)));
    }

    #[test]
    fn instance_record_roundtrip() {
        let inst = ModelInstance {
            id: InstanceId::from("i-1"),
            model_id: ModelId::from("m-1"),
            base_version_id: BaseVersionId::new("supply_cancellation"),
            display_version: DisplayVersion::new(2, 1),
            blob_location: Some(BlobLocation::new("mem://x")),
            metadata: Metadata::new()
                .with(fields::CITY, "New York City")
                .with(fields::MODEL_NAME, "Random Forest")
                .with(fields::MODEL_TYPE, "SparkML"),
            created_at: 99,
            trigger: InstanceTrigger::Trained,
            parent: None,
            deprecated: false,
        };
        let record = instance_to_record(&inst, "example-project");
        let back = instance_from_record(&record).unwrap();
        assert_eq!(back, inst);
        // Search keys denormalized:
        assert_eq!(record.get("city"), Some(&Value::from("New York City")));
        assert_eq!(
            record.get("model_name"),
            Some(&Value::from("Random Forest"))
        );
        assert_eq!(record.get("project"), Some(&Value::from("example-project")));
    }

    #[test]
    fn metric_record_roundtrip() {
        let m = MetricRecord {
            id: MetricId::from("mt-1"),
            instance_id: InstanceId::from("i-1"),
            name: "bias".into(),
            value: 0.05,
            scope: MetricScope::Validation,
            metadata: Metadata::new(),
            created_at: 7,
        };
        let record = metric_to_record(&m);
        assert_eq!(metric_from_record(&record).unwrap(), m);
    }

    #[test]
    fn deployment_record_roundtrip() {
        let d = Deployment {
            id: DeploymentId::from("d-1"),
            model_id: ModelId::from("m-1"),
            instance_id: InstanceId::from("i-1"),
            environment: "production".into(),
            created_at: 42,
        };
        let record = deployment_to_record(&d);
        assert_eq!(deployment_from_record(&record).unwrap(), d);
    }

    #[test]
    fn malformed_record_rejected() {
        let r = Record::new().set("id", "m-1");
        assert!(model_from_record(&r).is_err());
    }
}
