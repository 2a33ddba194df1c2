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
use gallery_store::{BlobLocation, ColumnDef, Record, Row, TableSchema, Value, ValueType};
use std::sync::Arc;

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
/// latest-metric lookups of the rule engine. It is the table's only
/// index: every read of `metrics` keys on `instance_id`.
pub fn metrics_schema() -> TableSchema {
    TableSchema::new(
        tables::METRICS,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("instance_id", ValueType::Str),
            ColumnDef::new("name", ValueType::Str),
            ColumnDef::new("value", ValueType::Float),
            ColumnDef::new("scope", ValueType::Str),
            ColumnDef::new("metadata", ValueType::Str).nullable(),
            ColumnDef::new("created", ValueType::Timestamp),
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

/// The values of `columns` in each row of one table: the columns are found
/// in the first row's schema, once — every row of a table shares it — and
/// each row is then read by position.
fn by_position<'r, const N: usize>(
    rows: impl IntoIterator<Item = &'r Arc<Row>>,
    columns: [&'static str; N],
) -> impl Iterator<Item = [&'r Value; N]> {
    let mut at = None;
    rows.into_iter().map(move |row| {
        let at = at.get_or_insert_with(|| row.schema().positions(columns));
        row.values_at(at)
    })
}

/// Converts rows of one table, reading them [`by_position`].
fn from_rows<'r, T, const N: usize>(
    rows: impl IntoIterator<Item = &'r Arc<Row>>,
    columns: [&'static str; N],
    convert: fn([&'r Value; N]) -> Result<T>,
) -> Result<Vec<T>> {
    by_position(rows, columns).map(convert).collect()
}

/// [`from_rows`] for one row.
fn from_row<'r, T, const N: usize>(
    row: &'r Row,
    columns: [&str; N],
    convert: fn([&'r Value; N]) -> Result<T>,
) -> Result<T> {
    convert(row.values_at(&row.schema().positions(columns)))
}

fn req<'r>(value: &'r Value, field: &str) -> Result<&'r str> {
    value
        .as_str()
        .ok_or_else(|| GalleryError::Invalid(format!("record missing string field {field}")))
}

fn req_str(value: &Value, field: &str) -> Result<String> {
    req(value, field).map(str::to_owned)
}

/// A nullable string column of a row, borrowed from it.
pub(crate) fn opt<'r>(row: &'r Row, field: &str) -> Option<&'r str> {
    row.get(field).and_then(Value::as_str)
}

fn opt_str(value: &Value) -> Option<String> {
    value.as_str().map(str::to_owned)
}

fn req_ts(value: &Value, field: &str) -> Result<TimestampMs> {
    value
        .as_int()
        .ok_or_else(|| GalleryError::Invalid(format!("record missing timestamp field {field}")))
}

fn flag(value: &Value) -> bool {
    matches!(value, Value::Bool(true))
}

fn metadata_of(value: &Value) -> Metadata {
    value
        .as_str()
        .map(Metadata::from_stored)
        .unwrap_or_default()
}

/// The `models` columns [`model_from_row`] reads, in the order it reads them.
const MODEL: [&str; 10] = [
    "id",
    "base_version_id",
    "project",
    "name",
    "owner",
    "description",
    "metadata",
    "created",
    "prev",
    "deprecated",
];

fn model(values: [&Value; 10]) -> Result<Model> {
    let [id, base, project, name, owner, description, metadata, created, prev, deprecated] = values;
    Ok(Model {
        id: ModelId(req_str(id, "id")?),
        base_version_id: BaseVersionId(req_str(base, "base_version_id")?),
        project: req_str(project, "project")?,
        name: req_str(name, "name")?,
        owner: req_str(owner, "owner")?,
        description: opt_str(description).unwrap_or_default(),
        metadata: metadata_of(metadata),
        created_at: req_ts(created, "created")?,
        prev: opt_str(prev).map(ModelId),
        deprecated: flag(deprecated),
    })
}

/// Convert a `models` row into a [`Model`].
pub fn model_from_row(row: &Row) -> Result<Model> {
    from_row(row, MODEL, model)
}

/// Convert the `models` rows of one result into [`Model`]s.
pub fn models_from_rows<'r>(rows: impl IntoIterator<Item = &'r Arc<Row>>) -> Result<Vec<Model>> {
    from_rows(rows, MODEL, model)
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

/// The `instances` columns [`instance_from_row`] reads, in the order it
/// reads them.
const INSTANCE: [&str; 10] = [
    "id",
    "model_id",
    "base_version_id",
    "display_version",
    "blob_location",
    "metadata",
    "created",
    "trigger",
    "parent",
    "deprecated",
];

/// One `instances` row's reply columns, borrowed from the row. Reading
/// them checks the row as converting it to a [`ModelInstance`] does, with
/// the same errors: that conversion starts here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceFields<'r> {
    pub id: &'r str,
    pub model_id: &'r str,
    pub base_version_id: &'r str,
    pub display_version: DisplayVersion,
    pub blob_location: Option<&'r str>,
    /// The stored metadata JSON; absent reads as the empty map.
    pub metadata: Option<&'r str>,
    pub created_at: TimestampMs,
    /// The stored trigger text, checked to decode.
    pub trigger: &'r str,
    pub parent: Option<&'r str>,
    pub deprecated: bool,
}

fn instance_fields(values: [&Value; 10]) -> Result<InstanceFields<'_>> {
    let [id, model_id, base, version, blob, metadata, created, trigger, parent, deprecated] =
        values;
    // Checked in this order, so a row with several faults names the first.
    let id = req(id, "id")?;
    let model_id = req(model_id, "model_id")?;
    let base_version_id = req(base, "base_version_id")?;
    let display_version = DisplayVersion::parse(req(version, "display_version")?)?;
    let created_at = req_ts(created, "created")?;
    let trigger = req(trigger, "trigger")?;
    InstanceTrigger::check(trigger)?;
    Ok(InstanceFields {
        id,
        model_id,
        base_version_id,
        display_version,
        blob_location: blob.as_str(),
        metadata: metadata.as_str(),
        created_at,
        trigger,
        parent: parent.as_str(),
        deprecated: flag(deprecated),
    })
}

fn instance(values: [&Value; 10]) -> Result<ModelInstance> {
    let f = instance_fields(values)?;
    Ok(ModelInstance {
        id: InstanceId(f.id.to_owned()),
        model_id: ModelId(f.model_id.to_owned()),
        base_version_id: BaseVersionId(f.base_version_id.to_owned()),
        display_version: f.display_version,
        blob_location: f.blob_location.map(BlobLocation::new),
        metadata: f.metadata.map(Metadata::from_stored).unwrap_or_default(),
        created_at: f.created_at,
        trigger: InstanceTrigger::decode(f.trigger)?,
        parent: f.parent.map(|p| InstanceId(p.to_owned())),
        deprecated: f.deprecated,
    })
}

/// The `instances` rows of one result, in result order, as the store holds
/// them. A reply is written from [`InstanceRows::fields`] without building
/// a [`ModelInstance`] per row; in-process callers convert once, with
/// [`InstanceRows::to_instances`].
#[derive(Debug, Clone, Default)]
pub struct InstanceRows(Vec<Arc<Row>>);

impl InstanceRows {
    pub(crate) fn new(rows: Vec<Arc<Row>>) -> Self {
        InstanceRows(rows)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Convert every row into a [`ModelInstance`]; the first malformed row
    /// fails the whole result.
    pub fn to_instances(&self) -> Result<Vec<ModelInstance>> {
        instances_from_rows(&self.0)
    }

    /// Each row's reply columns, borrowed, in result order.
    pub fn fields(&self) -> impl Iterator<Item = Result<InstanceFields<'_>>> {
        by_position(&self.0, INSTANCE).map(instance_fields)
    }
}

/// Convert an `instances` row into a [`ModelInstance`].
pub fn instance_from_row(row: &Row) -> Result<ModelInstance> {
    from_row(row, INSTANCE, instance)
}

/// Convert the `instances` rows of one result into [`ModelInstance`]s.
pub fn instances_from_rows<'r>(
    rows: impl IntoIterator<Item = &'r Arc<Row>>,
) -> Result<Vec<ModelInstance>> {
    from_rows(rows, INSTANCE, instance)
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

/// The `metrics` columns [`metric_from_row`] reads, in the order it reads
/// them.
const METRIC: [&str; 7] = [
    "id",
    "instance_id",
    "name",
    "value",
    "scope",
    "metadata",
    "created",
];

fn metric(values: [&Value; 7]) -> Result<MetricRecord> {
    let [id, instance_id, name, value, scope, metadata, created] = values;
    Ok(MetricRecord {
        id: MetricId(req_str(id, "id")?),
        instance_id: InstanceId(req_str(instance_id, "instance_id")?),
        name: req_str(name, "name")?,
        value: value
            .as_float()
            .ok_or_else(|| GalleryError::Invalid("metric missing value".into()))?,
        scope: MetricScope::parse(req(scope, "scope")?)?,
        metadata: metadata_of(metadata),
        created_at: req_ts(created, "created")?,
    })
}

/// Convert a `metrics` row into a [`MetricRecord`].
pub fn metric_from_row(row: &Row) -> Result<MetricRecord> {
    from_row(row, METRIC, metric)
}

/// Convert the `metrics` rows of one result into [`MetricRecord`]s.
pub fn metrics_from_rows<'r>(
    rows: impl IntoIterator<Item = &'r Arc<Row>>,
) -> Result<Vec<MetricRecord>> {
    from_rows(rows, METRIC, metric)
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

/// The `deployments` columns [`deployments_from_rows`] reads, in order.
const DEPLOYMENT: [&str; 5] = ["id", "model_id", "instance_id", "environment", "created"];

fn deployment(values: [&Value; 5]) -> Result<Deployment> {
    let [id, model_id, instance_id, environment, created] = values;
    Ok(Deployment {
        id: DeploymentId(req_str(id, "id")?),
        model_id: ModelId(req_str(model_id, "model_id")?),
        instance_id: InstanceId(req_str(instance_id, "instance_id")?),
        environment: req_str(environment, "environment")?,
        created_at: req_ts(created, "created")?,
    })
}

pub fn deployments_from_rows<'r>(
    rows: impl IntoIterator<Item = &'r Arc<Row>>,
) -> Result<Vec<Deployment>> {
    from_rows(rows, DEPLOYMENT, deployment)
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

    /// `record` as the table `schema` declares stores it.
    fn stored(schema: TableSchema, record: Record) -> Row {
        Arc::new(schema).place(record).unwrap()
    }

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
        let row = stored(models_schema(), model_to_record(&model, 4));
        let back = model_from_row(&row).unwrap();
        assert_eq!(back, model);
        assert_eq!(row.get("display_major"), Some(&Value::Int(4)));
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
        let row = stored(
            instances_schema(),
            instance_to_record(&inst, "example-project"),
        );
        let back = instance_from_row(&row).unwrap();
        assert_eq!(back, inst);
        // Search keys denormalized:
        assert_eq!(row.get("city"), Some(&Value::from("New York City")));
        assert_eq!(row.get("model_name"), Some(&Value::from("Random Forest")));
        assert_eq!(row.get("project"), Some(&Value::from("example-project")));
    }

    #[test]
    fn instance_fields_borrow_each_row_and_check_it_as_conversion_does() {
        let schema = Arc::new(instances_schema());
        let inst = ModelInstance {
            id: InstanceId::from("i-1"),
            model_id: ModelId::from("m-1"),
            base_version_id: BaseVersionId::new("demand"),
            display_version: DisplayVersion::new(12, 10),
            blob_location: Some(BlobLocation::new("mem://x")),
            metadata: Metadata::new().with(fields::CITY, "nyc"),
            created_at: 99,
            trigger: InstanceTrigger::Trained,
            parent: Some(InstanceId::from("i-0")),
            deprecated: true,
        };
        let record = instance_to_record(&inst, "p").set("deprecated", true);
        let bare = Record::new()
            .set("id", "i-2")
            .set("model_id", "m-1")
            .set("base_version_id", "demand")
            .set("display_version", "07.3")
            .set("created", Value::Timestamp(100))
            .set("trigger", "dep_update:m-0");
        let place = |r: Record| Arc::new(schema.place(r).unwrap());
        let rows = InstanceRows::new(vec![place(record), place(bare)]);
        let fields: Vec<InstanceFields> = rows.fields().map(Result::unwrap).collect();
        assert_eq!(fields[0].metadata, Some(r#"{"city":"nyc"}"#));
        assert_eq!(fields[0].parent, Some("i-0"));
        assert!(fields[0].deprecated);
        assert_eq!(fields[1].display_version, DisplayVersion::new(7, 3));
        assert_eq!(fields[1].metadata, None);
        assert_eq!(fields[1].trigger, "dep_update:m-0");
        assert_eq!((fields[1].blob_location, fields[1].parent), (None, None));
        let instances = rows.to_instances().unwrap();
        assert_eq!(instances[0], inst);
        assert_eq!(instances[1].metadata, Metadata::new());

        // A malformed row fails both readings with one error.
        for (column, bad) in [("display_version", "7"), ("trigger", "bogus")] {
            let record = instance_to_record(&inst, "p").set(column, bad);
            let rows = InstanceRows::new(vec![place(record)]);
            let err = rows.to_instances().unwrap_err();
            assert_eq!(rows.fields().next().unwrap().unwrap_err(), err);
        }
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
        let row = stored(metrics_schema(), metric_to_record(&m));
        assert_eq!(metric_from_row(&row).unwrap(), m);
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
        let row = Arc::new(stored(deployments_schema(), deployment_to_record(&d)));
        assert_eq!(deployments_from_rows([&row]).unwrap(), [d]);
    }

    #[test]
    fn malformed_record_rejected() {
        // A table with the key alone: every other column reads `Null`.
        let bare = TableSchema::new("models", "id", vec![ColumnDef::new("id", ValueType::Str)]);
        let row = stored(bare.unwrap(), Record::new().set("id", "m-1"));
        assert!(model_from_row(&row).is_err());
    }

    #[test]
    fn a_result_converts_by_positions_found_once() {
        let schema = Arc::new(metrics_schema());
        let rows: Vec<Arc<Row>> = (0..3)
            .map(|i| {
                let m = MetricRecord {
                    id: MetricId::from(format!("mt-{i}").as_str()),
                    instance_id: InstanceId::from("i-1"),
                    name: "bias".into(),
                    value: i as f64,
                    scope: MetricScope::Validation,
                    metadata: Metadata::new(),
                    created_at: i,
                };
                Arc::new(schema.place(metric_to_record(&m)).unwrap())
            })
            .collect();
        let metrics = metrics_from_rows(&rows).unwrap();
        let one_by_one: Vec<MetricRecord> =
            rows.iter().map(|r| metric_from_row(r).unwrap()).collect();
        assert_eq!(metrics, one_by_one);
        assert_eq!(metrics[2].value, 2.0);
    }
}
