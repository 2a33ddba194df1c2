//! End-to-end telemetry over the storage layer: an isolated `Telemetry`
//! bundle wired through DAL, cache, and WAL must expose every path in
//! `render_text()` and carry degraded-read / eviction / flush events.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::memory::MemoryBlobStore;
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::telemetry::{kinds, parse_exposition, Telemetry};
use gallery_store::{
    ColumnDef, Dal, MetadataStore, Query, Record, SyncPolicy, TableSchema, ValueType,
};
use std::sync::Arc;

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

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gallery-telem-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn storage_paths_land_in_one_registry() {
    let telemetry = Telemetry::new();
    let dir = tmp("paths");
    let meta = MetadataStore::durable(dir.join("wal.log"), SyncPolicy::Always)
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry));
    let backend = Arc::new(MemoryBlobStore::new());
    backend.meter().attach_histogram(
        telemetry
            .registry()
            .duration_histogram("gallery_backend_sim_latency_ms", &[]),
    );
    let cache = Arc::new(CachedBlobStore::new(backend, 256).with_telemetry(Arc::clone(&telemetry)));
    let dal = Dal::new(Arc::new(meta), cache.clone()).with_telemetry(Arc::clone(&telemetry));
    dal.create_table(schema()).unwrap();

    // Exercise DAL put/get/query, blob read/write, cache, WAL.
    for i in 0..4 {
        dal.put_with_blob(
            "instances",
            Record::new().set("id", format!("i{i}")),
            Bytes::from(vec![i as u8; 128]),
        )
        .unwrap();
    }
    for i in 0..4 {
        dal.fetch_blob_of("instances", &format!("i{i}")).unwrap();
    }
    dal.get("instances", "i0").unwrap();
    dal.query("instances", &Query::all()).unwrap();
    dal.set_flag("instances", "i0", "deprecated", true).unwrap();

    let reg = telemetry.registry();
    assert_eq!(
        reg.counter("gallery_dal_ops_total", &[("op", "put_with_blob")])
            .get(),
        4
    );
    assert_eq!(
        reg.counter("gallery_dal_ops_total", &[("op", "fetch_blob")])
            .get(),
        4
    );
    assert_eq!(
        reg.counter("gallery_blob_ops_total", &[("op", "write")])
            .get(),
        4
    );
    assert_eq!(
        reg.counter("gallery_blob_bytes_total", &[("op", "write")])
            .get(),
        4 * 128
    );
    // WAL: 1 create_table + 4 inserts + 1 set_flag, Always policy => as many flushes.
    assert_eq!(reg.counter("gallery_wal_appends_total", &[]).get(), 6);
    assert_eq!(reg.counter("gallery_wal_flushes_total", &[]).get(), 6);
    // Cache: 128-byte blobs under a 256-byte budget -> evictions happened,
    // and stats() reads the very same counters the registry renders.
    let stats = cache.stats();
    assert!(stats.evictions > 0);
    assert_eq!(
        reg.counter("gallery_cache_evictions_total", &[]).get(),
        stats.evictions
    );
    assert!(!telemetry.events().of_kind(kinds::CACHE_EVICT).is_empty());

    let text = telemetry.render_text();
    let summary = parse_exposition(&text).expect("exposition must lint clean");
    assert!(summary.families >= 8, "families: {}", summary.families);
    assert!(text.contains("gallery_dal_op_duration_ms_bucket"));
    assert!(text.contains("gallery_cache_bytes"));
}

#[test]
fn degraded_read_counts_and_emits_event() {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::none();
    let backend = Arc::new(MemoryBlobStore::new().with_faults(plan.clone()));
    let cache = Arc::new(CachedBlobStore::new(backend, 1 << 20));
    let dal = Dal::new(Arc::new(MetadataStore::in_memory()), cache.clone())
        .with_telemetry(Arc::clone(&telemetry));
    dal.create_table(schema()).unwrap();
    dal.put_with_blob(
        "instances",
        Record::new().set("id", "i1"),
        Bytes::from_static(b"w"),
    )
    .unwrap();

    // Same facade trick as the DAL unit tests: reads fail, the cache peek
    // survives, so the degraded read must flag stale and emit an event.
    struct Down(Arc<CachedBlobStore>);
    impl gallery_store::ObjectStore for Down {
        fn put(&self, data: Bytes) -> gallery_store::Result<gallery_store::BlobInfo> {
            self.0.put(data)
        }
        fn get(&self, _location: &gallery_store::BlobLocation) -> gallery_store::Result<Bytes> {
            Err(gallery_store::StoreError::Io("backend unreachable".into()))
        }
        fn get_cached_only(&self, location: &gallery_store::BlobLocation) -> Option<Bytes> {
            self.0.get_cached_only(location)
        }
        fn contains(&self, location: &gallery_store::BlobLocation) -> bool {
            self.0.contains(location)
        }
        fn blob_count(&self) -> usize {
            self.0.blob_count()
        }
        fn total_bytes(&self) -> u64 {
            self.0.total_bytes()
        }
        fn list(&self) -> Vec<gallery_store::BlobLocation> {
            self.0.list()
        }
    }
    let down = Dal::new(Arc::clone(dal.metadata()), Arc::new(Down(cache)))
        .with_telemetry(Arc::clone(&telemetry));
    let read = down.fetch_blob_of_degraded("instances", "i1", 2).unwrap();
    assert!(read.stale);

    let reg = telemetry.registry();
    assert_eq!(
        reg.counter("gallery_dal_degraded_reads_total", &[]).get(),
        1
    );
    assert_eq!(reg.counter("gallery_dal_stale_reads_total", &[]).get(), 1);
    let events = telemetry.events().of_kind(kinds::DEGRADED_READ);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].field("pk"), Some("i1"));
    assert_eq!(events[0].field("stale"), Some("true"));
}

#[test]
fn wal_flush_event_on_compaction() {
    let telemetry = Telemetry::new();
    let dir = tmp("compact");
    let meta = MetadataStore::durable(dir.join("wal.log"), SyncPolicy::Never)
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry));
    meta.create_table(schema()).unwrap();
    meta.insert("instances", Record::new().set("id", "a"))
        .unwrap();
    meta.compact().unwrap();
    let events = telemetry.events().of_kind(kinds::WAL_FLUSH);
    assert!(events.iter().any(|e| e.field("reason") == Some("compact")));
    // Appends after compaction still count into the same registry.
    meta.insert("instances", Record::new().set("id", "b"))
        .unwrap();
    assert!(
        telemetry
            .registry()
            .counter("gallery_wal_appends_total", &[])
            .get()
            >= 3
    );
}

#[test]
fn injected_faults_do_not_skew_success_byte_counters() {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::none();
    plan.fail_first_n(sites::BLOB_PUT, 2);
    let backend = Arc::new(MemoryBlobStore::new().with_faults(plan));
    let dal = Dal::new(Arc::new(MetadataStore::in_memory()), backend)
        .with_telemetry(Arc::clone(&telemetry));
    dal.create_table(schema()).unwrap();
    dal.put_with_blob_retrying(
        "instances",
        Record::new().set("id", "i1"),
        Bytes::from(vec![7u8; 64]),
        4,
    )
    .unwrap();
    let reg = telemetry.registry();
    // Two failed attempts never counted as writes; one success did.
    assert_eq!(
        reg.counter("gallery_blob_ops_total", &[("op", "write")])
            .get(),
        1
    );
    assert_eq!(
        reg.counter("gallery_blob_bytes_total", &[("op", "write")])
            .get(),
        64
    );
    // But the put_with_blob op itself was one logical call.
    assert_eq!(
        reg.counter("gallery_dal_ops_total", &[("op", "put_with_blob")])
            .get(),
        1
    );
}
