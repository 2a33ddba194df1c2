//! The unified Data Access Layer (DAL) of §3.5.
//!
//! All Gallery reads and writes go through here. The DAL enforces the
//! paper's crash-consistency discipline: *blob first, metadata second* —
//! "we always write model blobs first and only write the model metadata
//! after the model blobs are successfully stored. If the model blob of a
//! model instance is saved but the metadata fails to save, then the model
//! instance will not be available in the system." Orphan blobs are
//! tolerated; dangling metadata is not.

use crate::blob::{BlobInfo, BlobLocation, ObjectStore};
use crate::error::{Result, StoreError};
use crate::meta::MetadataStore;
use crate::query::{Explain, Query};
use crate::record::{Record, Row};
use crate::schema::TableSchema;
use crate::value::Value;
use bytes::Bytes;
use gallery_telemetry::{kinds, Counter, Gauge, Histogram, Telemetry};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Write ordering for blob+metadata pairs. `BlobFirst` is the paper's
/// choice; `MetadataFirst` exists only as the ablation arm of experiment
/// E10 and is deliberately unsafe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOrdering {
    BlobFirst,
    MetadataFirst,
}

/// Result of a combined blob+metadata write.
#[derive(Debug, Clone)]
pub struct StoredEntity {
    pub blob: BlobInfo,
}

/// Outcome of a consistency audit over the whole store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Metadata rows whose `blob_location` points at a missing blob. Under
    /// `BlobFirst` this must always be empty.
    pub dangling_metadata: Vec<String>,
    /// Blobs not referenced by any metadata row. Expected crash artifacts.
    pub orphan_blobs: Vec<BlobLocation>,
    pub rows_checked: usize,
    pub blobs_checked: usize,
}

impl ConsistencyReport {
    /// The §3.5 invariant: every metadata row resolves to a blob.
    pub fn is_consistent(&self) -> bool {
        self.dangling_metadata.is_empty()
    }
}

/// Outcome of an orphan-blob repair pass ([`Dal::repair_orphans`]).
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Orphan blobs successfully garbage-collected.
    pub deleted: Vec<BlobLocation>,
    /// Orphans whose deletion failed (left in place for a later pass).
    pub failed: Vec<(BlobLocation, StoreError)>,
    /// The audit that drove the repair.
    pub audit: ConsistencyReport,
}

/// A blob read that may have been served from cache while the backend was
/// unavailable. `stale` means the bytes bypassed backend verification —
/// blobs are immutable so the content is correct, but the caller is on
/// notice that the authoritative store did not confirm it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedRead {
    pub data: Bytes,
    pub stale: bool,
}

/// Run `f` up to `max_attempts` times, retrying only *transient* errors
/// (see [`StoreError::is_transient`]). Semantic errors surface immediately.
/// Store-level fault sites fire before any mutation, so a retried write
/// never double-applies.
fn with_retry<T>(max_attempts: u32, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut left = max_attempts.max(1);
    loop {
        match f() {
            Err(e) if e.is_transient() && left > 1 => left -= 1,
            outcome => return outcome,
        }
    }
}

/// Pre-minted telemetry handles for the DAL hot paths. Registered once at
/// construction so an instrumented operation costs an atomic add and a
/// histogram observation, never a registry lookup.
struct DalMetrics {
    telemetry: Arc<Telemetry>,
    get_total: Arc<Counter>,
    put_total: Arc<Counter>,
    put_blob_total: Arc<Counter>,
    query_total: Arc<Counter>,
    set_flag_total: Arc<Counter>,
    fetch_blob_total: Arc<Counter>,
    degraded_total: Arc<Counter>,
    stale_total: Arc<Counter>,
    get_ms: Arc<Histogram>,
    put_blob_ms: Arc<Histogram>,
    query_ms: Arc<Histogram>,
    fetch_blob_ms: Arc<Histogram>,
    blob_read_total: Arc<Counter>,
    blob_write_total: Arc<Counter>,
    blob_delete_total: Arc<Counter>,
    orphans_repaired_total: Arc<Counter>,
    blob_read_bytes: Arc<Counter>,
    blob_write_bytes: Arc<Counter>,
    blob_read_ms: Arc<Histogram>,
    blob_write_ms: Arc<Histogram>,
    wal_size_bytes: Arc<Gauge>,
    meta_records: Arc<Gauge>,
    blob_bytes_resident: Arc<Gauge>,
}

impl DalMetrics {
    fn new(telemetry: Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        DalMetrics {
            get_total: r.counter("gallery_dal_ops_total", &[("op", "get")]),
            put_total: r.counter("gallery_dal_ops_total", &[("op", "put")]),
            put_blob_total: r.counter("gallery_dal_ops_total", &[("op", "put_with_blob")]),
            query_total: r.counter("gallery_dal_ops_total", &[("op", "query")]),
            set_flag_total: r.counter("gallery_dal_ops_total", &[("op", "set_flag")]),
            fetch_blob_total: r.counter("gallery_dal_ops_total", &[("op", "fetch_blob")]),
            degraded_total: r.counter("gallery_dal_degraded_reads_total", &[]),
            stale_total: r.counter("gallery_dal_stale_reads_total", &[]),
            get_ms: r.duration_histogram("gallery_dal_op_duration_ms", &[("op", "get")]),
            put_blob_ms: r
                .duration_histogram("gallery_dal_op_duration_ms", &[("op", "put_with_blob")]),
            query_ms: r.duration_histogram("gallery_dal_op_duration_ms", &[("op", "query")]),
            fetch_blob_ms: r
                .duration_histogram("gallery_dal_op_duration_ms", &[("op", "fetch_blob")]),
            blob_read_total: r.counter("gallery_blob_ops_total", &[("op", "read")]),
            blob_write_total: r.counter("gallery_blob_ops_total", &[("op", "write")]),
            blob_delete_total: r.counter("gallery_blob_ops_total", &[("op", "delete")]),
            orphans_repaired_total: r.counter("gallery_dal_orphans_repaired_total", &[]),
            blob_read_bytes: r.counter("gallery_blob_bytes_total", &[("op", "read")]),
            blob_write_bytes: r.counter("gallery_blob_bytes_total", &[("op", "write")]),
            blob_read_ms: r.duration_histogram("gallery_blob_op_duration_ms", &[("op", "read")]),
            blob_write_ms: r.duration_histogram("gallery_blob_op_duration_ms", &[("op", "write")]),
            wal_size_bytes: r.gauge("gallery_wal_size_bytes", &[]),
            meta_records: r.gauge("gallery_meta_records", &[]),
            blob_bytes_resident: r.gauge("gallery_blob_bytes_resident", &[]),
            telemetry,
        }
    }
}

/// Unified data access layer.
pub struct Dal {
    meta: Arc<MetadataStore>,
    blobs: Arc<dyn ObjectStore>,
    ordering: WriteOrdering,
    metrics: DalMetrics,
}

impl Dal {
    pub fn new(meta: Arc<MetadataStore>, blobs: Arc<dyn ObjectStore>) -> Self {
        Dal {
            meta,
            blobs,
            ordering: WriteOrdering::BlobFirst,
            metrics: DalMetrics::new(Arc::clone(gallery_telemetry::global())),
        }
    }

    /// Ablation hook for E10: switch to the unsafe ordering.
    pub fn with_ordering(mut self, ordering: WriteOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Record DAL/blob metrics and degraded-read events into `telemetry`
    /// instead of the process global.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.metrics = DalMetrics::new(telemetry);
        self
    }

    /// Instrumented blob write: counts ops/bytes and times the backend.
    fn blob_put(&self, blob: Bytes) -> Result<BlobInfo> {
        let len = blob.len() as u64;
        let start = Instant::now();
        let info = self.blobs.put(blob)?;
        self.metrics.blob_write_ms.observe_since(start);
        self.metrics.blob_write_total.inc();
        self.metrics.blob_write_bytes.add(len);
        Ok(info)
    }

    /// Instrumented blob read.
    fn blob_get(&self, location: &BlobLocation) -> Result<Bytes> {
        let start = Instant::now();
        let data = self.blobs.get(location)?;
        self.metrics.blob_read_ms.observe_since(start);
        self.metrics.blob_read_total.inc();
        self.metrics.blob_read_bytes.add(data.len() as u64);
        Ok(data)
    }

    pub fn ordering(&self) -> WriteOrdering {
        self.ordering
    }

    pub fn metadata(&self) -> &Arc<MetadataStore> {
        &self.meta
    }

    /// Refresh the storage-size gauges (`gallery_wal_size_bytes`,
    /// `gallery_meta_records`, `gallery_blob_bytes_resident`) from the
    /// current store state. Sizes are pulled, not pushed: callers that
    /// expose metrics (`gallery stats`, the service probe, the alert
    /// engine's users) refresh right before reading the registry instead
    /// of taxing every write with a size computation.
    pub fn refresh_storage_gauges(&self) {
        self.metrics
            .wal_size_bytes
            .set(self.meta.wal_size_bytes().unwrap_or(0) as i64);
        self.metrics.meta_records.set(self.meta.total_rows() as i64);
        self.metrics
            .blob_bytes_resident
            .set(self.blobs.total_bytes() as i64);
    }

    pub fn blobs(&self) -> &Arc<dyn ObjectStore> {
        &self.blobs
    }

    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.meta.create_table(schema)
    }

    /// Store a blob together with its metadata record. The record's
    /// `blob_location` column is filled in by the DAL. Under `BlobFirst`,
    /// a metadata failure after a successful blob write leaves only an
    /// orphan blob (harmless); under `MetadataFirst` (ablation), a blob
    /// failure leaves dangling metadata (the failure mode the paper's
    /// ordering prevents).
    pub fn put_with_blob(&self, table: &str, record: Record, blob: Bytes) -> Result<StoredEntity> {
        self.metrics.put_blob_total.inc();
        let start = Instant::now();
        let result = self.put_with_blob_inner(table, record, blob);
        self.metrics.put_blob_ms.observe_since(start);
        result
    }

    fn put_with_blob_inner(
        &self,
        table: &str,
        record: Record,
        blob: Bytes,
    ) -> Result<StoredEntity> {
        match self.ordering {
            WriteOrdering::BlobFirst => {
                let info = self.blob_put(blob)?;
                let record = record.set("blob_location", info.location.as_str());
                self.meta.insert(table, record)?;
                Ok(StoredEntity { blob: info })
            }
            WriteOrdering::MetadataFirst => {
                // Deliberately unsafe: reserve the location up front, write
                // metadata referencing it, then try the blob. A failure (or
                // crash) between the two writes leaves dangling metadata —
                // the hazard §3.5's blob-first rule prevents. Records are
                // immutable, so the location cannot be fixed up afterwards.
                let location = self.blobs.reserve()?;
                let record = record.set("blob_location", location.as_str());
                self.meta.insert(table, record)?;
                let info = self.blobs.put_at(&location, blob)?;
                Ok(StoredEntity { blob: info })
            }
        }
    }

    /// [`Dal::put_with_blob`] with bounded retry of each leg. Only
    /// `BlobFirst` gets retries: each leg is individually idempotent-safe
    /// (blob `put` mints a fresh location per call and fault sites fire
    /// before mutation; metadata `insert` rejects duplicates), so retrying
    /// a transiently failed leg cannot double-apply. The `MetadataFirst`
    /// ablation is deliberately unsafe and is left un-retried.
    pub fn put_with_blob_retrying(
        &self,
        table: &str,
        record: Record,
        blob: Bytes,
        max_attempts: u32,
    ) -> Result<StoredEntity> {
        if self.ordering != WriteOrdering::BlobFirst {
            return self.put_with_blob(table, record, blob);
        }
        self.metrics.put_blob_total.inc();
        let start = Instant::now();
        let result = (|| {
            let info = with_retry(max_attempts, || self.blob_put(blob.clone()))?;
            let record = record.set("blob_location", info.location.as_str());
            with_retry(max_attempts, || self.meta.insert(table, record.clone()))?;
            Ok(StoredEntity { blob: info })
        })();
        self.metrics.put_blob_ms.observe_since(start);
        result
    }

    /// Insert a metadata-only record (no blob).
    pub fn put(&self, table: &str, record: Record) -> Result<()> {
        self.metrics.put_total.inc();
        self.meta.insert(table, record)
    }

    /// Insert a batch of metadata-only records through the store's group
    /// commit, normally one WAL write + fsync for the whole batch. All
    /// records are validated before any commits; not a transaction (see
    /// [`MetadataStore::insert_many`]).
    pub fn put_many(&self, table: &str, records: Vec<Record>) -> Result<usize> {
        let n = self.meta.insert_many(table, records)?;
        self.metrics.put_total.add(n as u64);
        Ok(n)
    }

    pub fn get(&self, table: &str, pk: &str) -> Result<Option<Arc<Row>>> {
        self.metrics.get_total.inc();
        let start = Instant::now();
        let result = self.meta.get(table, pk);
        self.metrics.get_ms.observe_since(start);
        result
    }

    pub fn query(&self, table: &str, query: &Query) -> Result<Vec<Arc<Row>>> {
        self.metrics.query_total.inc();
        let start = Instant::now();
        let result = self.meta.query(table, query);
        self.metrics.query_ms.observe_since(start);
        result
    }

    /// [`Dal::query`] plus the full [`Explain`] artifact: chosen path,
    /// estimated vs. actual rows, tail-merge size, per-stage timings.
    pub fn query_explain_full(
        &self,
        table: &str,
        query: &Query,
    ) -> Result<(Vec<Arc<Row>>, Explain)> {
        self.metrics.query_total.inc();
        let start = Instant::now();
        let result = self.meta.query_explain_full(table, query);
        self.metrics.query_ms.observe_since(start);
        result
    }

    /// [`MetadataStore::semi_join`], counted and timed as the one query it
    /// is: which of `keys` have a row with `column == key` that `residual`
    /// accepts, one flag per key.
    pub fn semi_join(
        &self,
        table: &str,
        column: &str,
        keys: &[&Value],
        residual: &Query,
    ) -> Result<Vec<bool>> {
        self.metrics.query_total.inc();
        let start = Instant::now();
        let result = self.meta.semi_join(table, column, keys, residual);
        self.metrics.query_ms.observe_since(start);
        Ok(result?.0)
    }

    pub fn set_flag(&self, table: &str, pk: &str, column: &str, value: bool) -> Result<()> {
        self.metrics.set_flag_total.inc();
        self.meta.set_flag(table, pk, column, value)
    }

    /// Resolve a record's blob: read metadata, follow `blob_location`,
    /// fetch bytes. This is the paper's two-hop read path (§3.5): "the
    /// request first goes to MySQL to get the location of the model blob,
    /// and then the model is directly accessed via the storage location."
    pub fn fetch_blob_of(&self, table: &str, pk: &str) -> Result<Bytes> {
        self.metrics.fetch_blob_total.inc();
        let start = Instant::now();
        let result = (|| {
            let record = self
                .meta
                .get(table, pk)?
                .ok_or_else(|| StoreError::NoSuchKey(pk.to_owned()))?;
            let loc = record
                .get("blob_location")
                .and_then(|v| v.as_str())
                .ok_or_else(|| {
                    StoreError::BadQuery(format!("{table}/{pk} has no blob_location"))
                })?;
            self.blob_get(&BlobLocation::new(loc))
        })();
        self.metrics.fetch_blob_ms.observe_since(start);
        result
    }

    pub fn fetch_blob(&self, location: &BlobLocation) -> Result<Bytes> {
        self.blob_get(location)
    }

    /// [`Dal::fetch_blob_of`] with bounded retry and graceful degradation:
    /// both hops retry transient failures, and if the blob backend stays
    /// down after the retry budget, the read falls back to the LRU cache
    /// (when the store has one) and is flagged `stale`.
    pub fn fetch_blob_of_degraded(
        &self,
        table: &str,
        pk: &str,
        max_attempts: u32,
    ) -> Result<DegradedRead> {
        let record = with_retry(max_attempts, || self.meta.get(table, pk))?
            .ok_or_else(|| StoreError::NoSuchKey(pk.to_owned()))?;
        let loc = record
            .get("blob_location")
            .and_then(|v| v.as_str())
            .ok_or_else(|| StoreError::BadQuery(format!("{table}/{pk} has no blob_location")))?;
        let loc = BlobLocation::new(loc);
        self.metrics.degraded_total.inc();
        match with_retry(max_attempts, || self.blob_get(&loc)) {
            Ok(data) => Ok(DegradedRead { data, stale: false }),
            Err(e) if e.is_transient() => match self.blobs.get_cached_only(&loc) {
                Some(data) => {
                    self.metrics.stale_total.inc();
                    self.metrics.telemetry.events().emit(
                        kinds::DEGRADED_READ,
                        vec![
                            ("table", table.to_string().into()),
                            ("pk", pk.to_string().into()),
                            ("stale", "true".into()),
                        ],
                    );
                    Ok(DegradedRead { data, stale: true })
                }
                None => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    /// Garbage-collect orphan blobs: audit, then delete every blob no
    /// metadata row references. Safe by construction — under blob-first
    /// ordering an orphan can never become referenced later, because
    /// records are immutable and blob locations are minted fresh per
    /// `put`. Failed deletions are reported, not fatal.
    pub fn repair_orphans(&self, tables: &[&str]) -> Result<RepairReport> {
        let audit = self.audit_consistency(tables)?;
        let mut report = RepairReport {
            audit: audit.clone(),
            ..Default::default()
        };
        for loc in &audit.orphan_blobs {
            match self.blobs.delete(loc) {
                Ok(()) => {
                    self.metrics.blob_delete_total.inc();
                    self.metrics.orphans_repaired_total.inc();
                    self.metrics.telemetry.events().emit(
                        kinds::ORPHAN_REPAIRED,
                        vec![("location", loc.to_string().into())],
                    );
                    report.deleted.push(loc.clone());
                }
                Err(e) => report.failed.push((loc.clone(), e)),
            }
        }
        Ok(report)
    }

    /// Audit referential integrity between metadata and blob store across
    /// the given tables (checking each table's `blob_location` column).
    pub fn audit_consistency(&self, tables: &[&str]) -> Result<ConsistencyReport> {
        let mut report = ConsistencyReport::default();
        let mut referenced: HashSet<BlobLocation> = HashSet::new();
        for table in tables {
            let rows = self.meta.query(table, &Query::all().with_deprecated())?;
            for row in rows {
                report.rows_checked += 1;
                if let Some(loc) = row.get("blob_location").and_then(|v| v.as_str()) {
                    let loc = BlobLocation::new(loc);
                    if !self.blobs.contains(&loc) {
                        let pk = row
                            .get("id")
                            .and_then(|v| v.as_str())
                            .unwrap_or("<unknown>")
                            .to_owned();
                        report.dangling_metadata.push(format!("{table}/{pk}"));
                    }
                    referenced.insert(loc);
                }
            }
        }
        for loc in self.blobs.list() {
            report.blobs_checked += 1;
            if !referenced.contains(&loc) {
                report.orphan_blobs.push(loc);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::memory::MemoryBlobStore;
    use crate::fault::{sites, FaultPlan};
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "instances",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("blob_location", ValueType::Str).nullable(),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ],
        )
        .unwrap()
    }

    fn dal_with(meta_faults: Option<FaultPlan>, blob_faults: Option<FaultPlan>) -> Dal {
        let meta = match meta_faults {
            Some(p) => MetadataStore::in_memory().with_faults(p),
            None => MetadataStore::in_memory(),
        };
        let blobs = match blob_faults {
            Some(p) => MemoryBlobStore::new().with_faults(p),
            None => MemoryBlobStore::new(),
        };
        let dal = Dal::new(Arc::new(meta), Arc::new(blobs));
        dal.create_table(schema()).unwrap();
        dal
    }

    #[test]
    fn put_with_blob_roundtrip() {
        let dal = dal_with(None, None);
        let stored = dal
            .put_with_blob(
                "instances",
                Record::new().set("id", "i1"),
                Bytes::from_static(b"w"),
            )
            .unwrap();
        assert!(dal.blobs().contains(&stored.blob.location));
        let bytes = dal.fetch_blob_of("instances", "i1").unwrap();
        assert_eq!(bytes, Bytes::from_static(b"w"));
    }

    #[test]
    fn blob_first_metadata_failure_leaves_no_dangling() {
        let plan = FaultPlan::none();
        plan.fail_always(sites::META_INSERT);
        let dal = dal_with(Some(plan), None);
        // create_table already done without faults on meta? create_table is
        // not fault-injected (only insert is), so the table exists.
        let err = dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"w"),
        );
        assert!(err.is_err());
        let report = dal.audit_consistency(&["instances"]).unwrap();
        assert!(report.is_consistent());
        assert_eq!(report.orphan_blobs.len(), 1); // harmless orphan
    }

    #[test]
    fn blob_first_blob_failure_writes_nothing() {
        let plan = FaultPlan::none();
        plan.fail_always(sites::BLOB_PUT);
        let dal = dal_with(None, Some(plan));
        let err = dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"w"),
        );
        assert!(err.is_err());
        assert_eq!(dal.metadata().row_count("instances").unwrap(), 0);
        assert_eq!(dal.blobs().blob_count(), 0);
    }

    #[test]
    fn metadata_first_ablation_produces_dangling() {
        let plan = FaultPlan::none();
        plan.fail_always(sites::BLOB_PUT);
        let dal = dal_with(None, Some(plan)).with_ordering(WriteOrdering::MetadataFirst);
        let err = dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"w"),
        );
        assert!(err.is_err());
        let report = dal.audit_consistency(&["instances"]).unwrap();
        assert!(!report.is_consistent());
        assert_eq!(report.dangling_metadata, vec!["instances/i1".to_string()]);
    }

    #[test]
    fn fetch_blob_of_missing_row() {
        let dal = dal_with(None, None);
        assert!(matches!(
            dal.fetch_blob_of("instances", "nope"),
            Err(StoreError::NoSuchKey(_))
        ));
    }

    #[test]
    fn fetch_blob_of_row_without_blob() {
        let dal = dal_with(None, None);
        dal.put("instances", Record::new().set("id", "i1")).unwrap();
        assert!(dal.fetch_blob_of("instances", "i1").is_err());
    }

    #[test]
    fn retrying_write_survives_transient_faults() {
        let plan = FaultPlan::none();
        plan.fail_first_n(sites::BLOB_PUT, 2);
        plan.fail_first_n(sites::META_INSERT, 2);
        let dal = dal_with(Some(plan.clone()), Some(plan));
        let stored = dal
            .put_with_blob_retrying(
                "instances",
                Record::new().set("id", "i1"),
                Bytes::from_static(b"w"),
                4,
            )
            .unwrap();
        // Exactly once despite retries: one row, one referenced blob.
        assert_eq!(dal.metadata().row_count("instances").unwrap(), 1);
        assert_eq!(dal.blobs().blob_count(), 1);
        assert_eq!(
            dal.fetch_blob_of("instances", "i1").unwrap(),
            Bytes::from_static(b"w")
        );
        assert!(dal.blobs().contains(&stored.blob.location));
    }

    #[test]
    fn retrying_write_does_not_retry_semantic_errors() {
        let dal = dal_with(None, None);
        dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"a"),
        )
        .unwrap();
        // Duplicate key is permanent; the retried write must fail once and
        // leave only the orphan blob from its own blob-first leg.
        let err = dal.put_with_blob_retrying(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"b"),
            8,
        );
        assert!(matches!(err, Err(StoreError::DuplicateKey(_))));
        assert_eq!(dal.metadata().row_count("instances").unwrap(), 1);
    }

    #[test]
    fn retrying_write_exhausts_budget() {
        let plan = FaultPlan::none();
        plan.fail_first_n(sites::BLOB_PUT, 5);
        let dal = dal_with(None, Some(plan));
        let err = dal.put_with_blob_retrying(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"w"),
            3,
        );
        assert!(matches!(err, Err(StoreError::InjectedFault(_))));
        assert_eq!(dal.blobs().blob_count(), 0);
    }

    #[test]
    fn degraded_read_falls_back_to_cache() {
        use crate::blob::cache::CachedBlobStore;
        let plan = FaultPlan::none();
        let backend = Arc::new(MemoryBlobStore::new().with_faults(plan.clone()));
        let cached: Arc<dyn ObjectStore> = Arc::new(CachedBlobStore::new(backend, 1 << 20));
        let dal = Dal::new(Arc::new(MetadataStore::in_memory()), cached);
        dal.create_table(schema()).unwrap();
        dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"w"),
        )
        .unwrap();
        // put warmed the LRU; CachedBlobStore::get serves the hit before
        // ever touching the failing backend, so this read is NOT stale.
        plan.fail_always(sites::BLOB_GET);
        let read = dal.fetch_blob_of_degraded("instances", "i1", 2).unwrap();
        assert_eq!(read.data, Bytes::from_static(b"w"));
        assert!(!read.stale);
    }

    #[test]
    fn degraded_read_flags_stale_when_backend_down() {
        // The stale flag fires when get() fails but the cache peek
        // succeeds. A warm CachedBlobStore serves get() from its LRU, so
        // to exercise the path we need a store whose get() always fails
        // while its peek still works: a facade over the warm cache.
        use crate::blob::cache::CachedBlobStore;
        let plan = FaultPlan::none();
        let backend = Arc::new(MemoryBlobStore::new().with_faults(plan.clone()));
        let cache = Arc::new(CachedBlobStore::new(backend, 1 << 20));
        let cached: Arc<dyn ObjectStore> = cache.clone();
        let dal = Dal::new(Arc::new(MetadataStore::in_memory()), cached);
        dal.create_table(schema()).unwrap();
        dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"w"),
        )
        .unwrap();
        struct DownFacade(Arc<CachedBlobStore>);
        impl ObjectStore for DownFacade {
            fn put(&self, data: Bytes) -> Result<BlobInfo> {
                self.0.put(data)
            }
            fn get(&self, _location: &BlobLocation) -> Result<Bytes> {
                Err(StoreError::Io("backend unreachable".into()))
            }
            fn get_cached_only(&self, location: &BlobLocation) -> Option<Bytes> {
                self.0.get_cached_only(location)
            }
            fn contains(&self, location: &BlobLocation) -> bool {
                self.0.contains(location)
            }
            fn blob_count(&self) -> usize {
                self.0.blob_count()
            }
            fn total_bytes(&self) -> u64 {
                self.0.total_bytes()
            }
            fn list(&self) -> Vec<BlobLocation> {
                self.0.list()
            }
        }
        let down = Dal::new(
            Arc::clone(dal.metadata()),
            Arc::new(DownFacade(cache)) as Arc<dyn ObjectStore>,
        );
        let read = down.fetch_blob_of_degraded("instances", "i1", 3).unwrap();
        assert_eq!(read.data, Bytes::from_static(b"w"));
        assert!(read.stale);
        // A location that was never cached cannot degrade: error surfaces.
        down.metadata()
            .insert(
                "instances",
                Record::new()
                    .set("id", "i2")
                    .set("blob_location", "mem://cold"),
            )
            .unwrap();
        assert!(down.fetch_blob_of_degraded("instances", "i2", 2).is_err());
    }

    #[test]
    fn repair_deletes_orphans_and_keeps_referenced() {
        let plan = FaultPlan::none();
        plan.fail_nth_call(sites::META_INSERT, 1);
        let dal = dal_with(Some(plan), None);
        dal.put_with_blob(
            "instances",
            Record::new().set("id", "ok"),
            Bytes::from_static(b"keep"),
        )
        .unwrap();
        // Second write: blob lands, metadata fails -> orphan.
        assert!(dal
            .put_with_blob(
                "instances",
                Record::new().set("id", "crash"),
                Bytes::from_static(b"gc")
            )
            .is_err());
        assert_eq!(dal.blobs().blob_count(), 2);

        let report = dal.repair_orphans(&["instances"]).unwrap();
        assert_eq!(report.deleted.len(), 1);
        assert!(report.failed.is_empty());
        assert_eq!(dal.blobs().blob_count(), 1);
        // Referenced blob still resolves; store is now fully consistent.
        assert_eq!(
            dal.fetch_blob_of("instances", "ok").unwrap(),
            Bytes::from_static(b"keep")
        );
        let audit = dal.audit_consistency(&["instances"]).unwrap();
        assert!(audit.is_consistent() && audit.orphan_blobs.is_empty());
    }

    #[test]
    fn repair_reports_failed_deletes() {
        let plan = FaultPlan::none();
        plan.fail_nth_call(sites::META_INSERT, 0);
        plan.fail_always(sites::BLOB_DELETE);
        let dal = dal_with(Some(plan.clone()), Some(plan));
        assert!(dal
            .put_with_blob(
                "instances",
                Record::new().set("id", "i1"),
                Bytes::from_static(b"x")
            )
            .is_err());
        let report = dal.repair_orphans(&["instances"]).unwrap();
        assert!(report.deleted.is_empty());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(dal.blobs().blob_count(), 1); // orphan left for next pass
    }

    #[test]
    fn audit_counts() {
        let dal = dal_with(None, None);
        dal.put_with_blob(
            "instances",
            Record::new().set("id", "i1"),
            Bytes::from_static(b"a"),
        )
        .unwrap();
        dal.put_with_blob(
            "instances",
            Record::new().set("id", "i2"),
            Bytes::from_static(b"b"),
        )
        .unwrap();
        let report = dal.audit_consistency(&["instances"]).unwrap();
        assert_eq!(report.rows_checked, 2);
        assert_eq!(report.blobs_checked, 2);
        assert!(report.orphan_blobs.is_empty());
        assert!(report.is_consistent());
    }
}
