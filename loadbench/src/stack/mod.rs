//! The adapter: every call the benchmark makes into Gallery is in this
//! module (and its `seams` child, which implements the program's traits).
//!
//! The rest of the benchmark sees ids as strings, result sizes as
//! `usize`, and instances through [`InstanceView`]. Return values of the
//! program are touched only through `len()`, `is_some()`, `is_ok()` and
//! DTO or `Explain` field reads, so a change to what `Dal` or
//! `MetadataStore` return (ROADMAP item 2) needs no edit outside here.
//!
//! The stack is the paper's three APIs end to end, in one process:
//! `GalleryClient` → `Request`/`Response` codec → `DirectTransport` →
//! `GalleryServer::handle_frame` → `Gallery` → `Dal` → `MetadataStore`
//! (default `StoreConfig`, `SyncPolicy::Always`, blob-first) +
//! `CachedBlobStore` over `LocalFsBlobStore`, both on a [`MemFs`].

pub mod seams;

use crate::memfs::MemFs;
use crate::trace::SpanSink;
use bytes::Bytes;
use gallery_core::schemas::tables;
use gallery_core::{Gallery, InstanceId, ModelId, SystemClock};
use gallery_service::{
    DirectTransport, GalleryClient, GalleryServer, Request, Response, Transport, WireConstraint,
    WireOp, WireValue,
};
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::{
    BlobLocation, Constraint, Dal, FileSystem, MetadataStore, ObjectStore, Query, StoreConfig,
    SyncPolicy,
};
use gallery_telemetry::{Counter, Telemetry};
use seams::{TimedFs, TimedObjectStore, TimedTransport, BLOB_FS, WAL_FS};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// An instance as the client sees it. Field reads only.
pub type InstanceView = gallery_service::InstanceDto;

const WAL_PATH: &str = "data/meta.wal";
const BLOB_ROOT: &str = "data/blobs";

/// The three tables the workloads write.
pub const TABLES: [&str; 3] = [tables::MODELS, tables::INSTANCES, tables::METRICS];

pub struct StackOptions {
    pub cache_bytes: usize,
    /// `false` puts `Telemetry::disabled()` at every `with_telemetry`
    /// seam (the `telemetry.overhead_ratio` arm).
    pub telemetry: bool,
    /// `Some` wraps the three trait seams in timing wrappers.
    pub sink: Option<Arc<SpanSink>>,
}

/// How long each part of opening a stack took.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenTimes {
    /// `MetadataStore::durable_with_config`: WAL replay into tables.
    pub meta_s: f64,
    /// `LocalFsBlobStore::open_with_fs`: directory scan and tmp sweep.
    pub blob_s: f64,
    /// Everything until the client can issue its first request.
    pub total_s: f64,
}

pub struct Stack {
    pub wal_fs: Arc<MemFs>,
    pub blob_fs: Arc<MemFs>,
    meta: Arc<MetadataStore>,
    cache: Arc<CachedBlobStore>,
    dal: Arc<Dal>,
    gallery: Arc<Gallery>,
    server: Arc<GalleryServer>,
    client: GalleryClient,
    index_flushes: Arc<Counter>,
}

/// Cache counters at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// One search of the `search` workload, by field values.
#[derive(Debug, Clone, PartialEq)]
pub enum Search {
    City(String),
    ProjectType {
        project: String,
        model_type: String,
    },
    Project(String),
    /// `instances_of_base_version`.
    Base(String),
}

/// A read request with every argument already in the type each layer's
/// entry takes, so that replaying a layer times that layer and not the
/// conversion its caller does.
pub struct PreparedRead {
    kind: ReadKind,
    wire: Vec<WireConstraint>,
    instance_id: InstanceId,
    model_id: ModelId,
    base: String,
    registry_constraints: Vec<Constraint>,
    store_query: Query,
    join_metric: Option<(String, f64)>,
}

#[derive(Clone, Copy, PartialEq)]
enum ReadKind {
    Get,
    Latest,
    Query,
    Base,
    Join,
}

/// What the DAL-level replay of a read learned from the store's
/// `Explain` artefacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadPlanStats {
    pub rows: usize,
    pub rows_scanned: usize,
    pub tail_merge_rows: usize,
    pub store_queries: usize,
}

/// Codec times of one captured request/reply pair, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecTimes {
    pub request_encode_ns: u64,
    pub request_decode_ns: u64,
    pub response_encode_ns: u64,
    pub response_decode_ns: u64,
}

impl CodecTimes {
    pub fn total_ns(&self) -> u64 {
        self.client_side_ns() + self.server_side_ns()
    }
    pub fn client_side_ns(&self) -> u64 {
        self.request_encode_ns + self.response_decode_ns
    }
    pub fn server_side_ns(&self) -> u64 {
        self.request_decode_ns + self.response_encode_ns
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn eq(field: &str, value: &str) -> WireConstraint {
    WireConstraint::new(field, WireOp::Eq, WireValue::Str(value.to_owned()))
}

impl Stack {
    /// Open Gallery on the two file systems: empty ones for a fresh
    /// stack, a crash image's for recovery. Same code either way.
    pub fn open(
        wal_fs: Arc<MemFs>,
        blob_fs: Arc<MemFs>,
        opts: &StackOptions,
    ) -> Result<(Stack, OpenTimes), String> {
        let started = Instant::now();
        let telemetry = if opts.telemetry {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let timed_fs = |fs: &Arc<MemFs>, names| -> Arc<dyn FileSystem> {
            match &opts.sink {
                Some(sink) => Arc::new(TimedFs::new(Arc::clone(fs) as _, Arc::clone(sink), names)),
                None => Arc::clone(fs) as _,
            }
        };
        let meta = Arc::new(
            MetadataStore::durable_with_config(
                timed_fs(&wal_fs, WAL_FS),
                Path::new(WAL_PATH),
                SyncPolicy::Always,
                Arc::clone(&telemetry),
                StoreConfig::default(),
            )
            .map_err(err)?,
        );
        let meta_s = started.elapsed().as_secs_f64();
        let blob_started = Instant::now();
        let local =
            LocalFsBlobStore::open_with_fs(timed_fs(&blob_fs, BLOB_FS), Path::new(BLOB_ROOT))
                .map_err(err)?;
        let blob_s = blob_started.elapsed().as_secs_f64();
        let local: Arc<dyn ObjectStore> = match &opts.sink {
            Some(sink) => Arc::new(TimedObjectStore::inner(Arc::new(local), Arc::clone(sink))),
            None => Arc::new(local),
        };
        let cache = Arc::new(
            CachedBlobStore::new(local, opts.cache_bytes).with_telemetry(Arc::clone(&telemetry)),
        );
        let blobs: Arc<dyn ObjectStore> = match &opts.sink {
            Some(sink) => Arc::new(TimedObjectStore::outer(
                Arc::clone(&cache) as _,
                Arc::clone(sink),
            )),
            None => Arc::clone(&cache) as _,
        };
        let dal =
            Arc::new(Dal::new(Arc::clone(&meta), blobs).with_telemetry(Arc::clone(&telemetry)));
        let gallery = Arc::new(
            Gallery::open(Arc::clone(&dal), Arc::new(SystemClock))
                .map_err(err)?
                .with_telemetry(Arc::clone(&telemetry)),
        );
        let server = Arc::new(
            GalleryServer::new(Arc::clone(&gallery)).with_telemetry(Arc::clone(&telemetry)),
        );
        let direct: Arc<dyn Transport> = Arc::new(DirectTransport::new(Arc::clone(&server)));
        let transport: Arc<dyn Transport> = match &opts.sink {
            Some(sink) => Arc::new(TimedTransport::new(direct, Arc::clone(sink))),
            None => direct,
        };
        let client = GalleryClient::new(transport).with_telemetry(Arc::clone(&telemetry));
        let index_flushes = telemetry
            .registry()
            .counter("gallery_meta_index_delta_flushes_total", &[]);
        let times = OpenTimes {
            meta_s,
            blob_s,
            total_s: started.elapsed().as_secs_f64(),
        };
        let stack = Stack {
            wal_fs,
            blob_fs,
            meta,
            cache,
            dal,
            gallery,
            server,
            client,
            index_flushes,
        };
        Ok((stack, times))
    }

    // ---- the client API: what the end-to-end metrics time ----

    pub fn create_model(
        &self,
        project: &str,
        base_version_id: &str,
        name: &str,
    ) -> Result<String, String> {
        self.client
            .create_model(project, base_version_id, name, "loadbench", "", "{}")
            .map(|m| m.id)
            .map_err(err)
    }

    pub fn upload(
        &self,
        model_id: &str,
        metadata_json: &str,
        blob: Bytes,
    ) -> Result<InstanceView, String> {
        self.client
            .upload_model(model_id, metadata_json, blob)
            .map_err(err)
    }

    pub fn metric(
        &self,
        instance_id: &str,
        name: &str,
        scope: &str,
        value: f64,
    ) -> Result<(), String> {
        self.client
            .insert_metric(instance_id, name, scope, value)
            .map_err(err)
    }

    pub fn get(&self, instance_id: &str) -> Result<InstanceView, String> {
        self.client.get_instance(instance_id).map_err(err)
    }

    pub fn latest(&self, model_id: &str) -> Result<Option<InstanceView>, String> {
        self.client.latest_instance(model_id).map_err(err)
    }

    pub fn blob(&self, instance_id: &str) -> Result<Bytes, String> {
        self.client.fetch_blob(instance_id).map_err(err)
    }

    pub fn search(&self, read: &PreparedRead) -> Result<Vec<InstanceView>, String> {
        match read.kind {
            ReadKind::Base => self
                .client
                .instances_of_base_version(&read.base)
                .map_err(err),
            _ => self.client.model_query(read.wire.clone()).map_err(err),
        }
    }

    // ---- preparing reads for replay ----

    pub fn prepare_get(instance_id: &str) -> PreparedRead {
        let mut p = PreparedRead::empty(ReadKind::Get);
        p.instance_id = InstanceId(instance_id.to_owned());
        p
    }

    pub fn prepare_latest(model_id: &str) -> PreparedRead {
        let mut p = PreparedRead::empty(ReadKind::Latest);
        p.model_id = ModelId(model_id.to_owned());
        // What `Gallery::latest_instance` asks the DAL.
        p.store_query = Query::all()
            .and(Constraint::eq("model_id", model_id))
            .order_by("created", true)
            .limit(1);
        p
    }

    pub fn prepare_search(search: &Search) -> PreparedRead {
        let pairs: Vec<(&str, &str, &str)> = match search {
            Search::City(city) => vec![("city", "city", city)],
            Search::ProjectType {
                project,
                model_type,
            } => vec![
                ("projectName", "project", project),
                ("model_type", "model_type", model_type),
            ],
            Search::Project(project) => vec![("projectName", "project", project)],
            Search::Base(base) => {
                let mut p = PreparedRead::empty(ReadKind::Base);
                p.base = base.clone();
                // What `Gallery::instances_of_base_version` asks the DAL.
                p.store_query = Query::all()
                    .and(Constraint::eq("base_version_id", base.as_str()))
                    .order_by("created", false);
                return p;
            }
        };
        let mut p = PreparedRead::empty(ReadKind::Query);
        p.wire = pairs.iter().map(|(wire, _, v)| eq(wire, v)).collect();
        p.registry_constraints = pairs
            .iter()
            .map(|(wire, _, v)| Constraint::eq(*wire, *v))
            .collect();
        p.store_query = Query::new(
            pairs
                .iter()
                .map(|(_, col, v)| Constraint::eq(*col, *v))
                .collect(),
        );
        p
    }

    /// The Listing-5 join: instances of `model_name` with a `metric`
    /// observation below `threshold`.
    pub fn prepare_join(model_name: &str, metric: &str, threshold: f64) -> PreparedRead {
        let mut p = PreparedRead::empty(ReadKind::Join);
        p.wire = vec![
            eq("modelName", model_name),
            eq("metricName", metric),
            WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(threshold)),
        ];
        p.registry_constraints = vec![
            Constraint::eq("modelName", model_name),
            Constraint::eq("metricName", metric),
            Constraint::lt("metricValue", threshold),
        ];
        p.store_query = Query::new(vec![Constraint::eq("model_name", model_name)]);
        p.join_metric = Some((metric.to_owned(), threshold));
        p
    }

    // ---- onion replay: the same read at each deeper public entry ----

    /// The client entry again (the original call was the measured one).
    pub fn client_read(&self, read: &PreparedRead) -> usize {
        match read.kind {
            ReadKind::Get => self.client.get_instance(read.instance_id.as_str()).is_ok() as usize,
            ReadKind::Latest => {
                self.client.latest_instance(read.model_id.as_str()).is_ok() as usize
            }
            ReadKind::Base => self
                .client
                .instances_of_base_version(&read.base)
                .map_or(0, |v| v.len()),
            ReadKind::Query | ReadKind::Join => self
                .client
                .model_query(read.wire.clone())
                .map_or(0, |v| v.len()),
        }
    }

    /// `GalleryServer::handle_frame` on a captured request frame.
    pub fn server_frame(&self, frame: Bytes) -> usize {
        self.server.handle_frame(frame).len()
    }

    /// The `Gallery` method the server dispatches to.
    pub fn registry_read(&self, read: &PreparedRead) -> usize {
        match read.kind {
            ReadKind::Get => self.gallery.get_instance(&read.instance_id).is_ok() as usize,
            ReadKind::Latest => self
                .gallery
                .latest_instance(&read.model_id)
                .map_or(0, |l| l.is_some() as usize),
            ReadKind::Base => self
                .gallery
                .instances_of_base_version(&read.base)
                .map_or(0, |v| v.len()),
            ReadKind::Query | ReadKind::Join => self
                .gallery
                .model_query(&read.registry_constraints)
                .map_or(0, |v| v.len()),
        }
    }

    /// The `Dal` call the registry makes (for a join: the instance query,
    /// then one metric query per candidate, as `model_query` does), with
    /// the store's `Explain` for each.
    pub fn dal_read(&self, read: &PreparedRead) -> ReadPlanStats {
        let mut stats = ReadPlanStats::default();
        if read.kind == ReadKind::Get {
            stats.rows = self
                .dal
                .get(tables::INSTANCES, read.instance_id.as_str())
                .map_or(0, |r| r.is_some() as usize);
            return stats;
        }
        let Ok((rows, explain)) = self
            .dal
            .query_explain_full(tables::INSTANCES, &read.store_query)
        else {
            return stats;
        };
        stats.store_queries = 1;
        stats.rows = rows.len();
        stats.rows_scanned = explain.rows_scanned;
        stats.tail_merge_rows = explain.tail_merge_rows;
        if let Some((metric, threshold)) = &read.join_metric {
            stats.rows = 0;
            for row in &rows {
                let Some(id) = row.get("id").and_then(|v| v.as_str()) else {
                    continue;
                };
                let q = Query::all()
                    .and(Constraint::eq("instance_id", id))
                    .and(Constraint::eq("name", metric.as_str()))
                    .and(Constraint::lt("value", *threshold))
                    .limit(1);
                if let Ok((matches, explain)) = self.dal.query_explain_full(tables::METRICS, &q) {
                    stats.store_queries += 1;
                    stats.rows_scanned += explain.rows_scanned;
                    stats.tail_merge_rows += explain.tail_merge_rows;
                    stats.rows += (!matches.is_empty()) as usize;
                }
            }
        }
        stats
    }

    /// The `MetadataStore` call the DAL makes (not defined for a join).
    pub fn meta_read(&self, read: &PreparedRead) -> usize {
        match read.kind {
            ReadKind::Get => self
                .meta
                .get(tables::INSTANCES, read.instance_id.as_str())
                .map_or(0, |r| r.is_some() as usize),
            _ => self
                .meta
                .query(tables::INSTANCES, &read.store_query)
                .map_or(0, |v| v.len()),
        }
    }

    /// `Gallery::latest_instance`, the lookup every upload starts with.
    pub fn registry_latest(&self, model_id: &ModelId) -> bool {
        self.gallery.latest_instance(model_id).is_ok()
    }

    pub fn model_id(id: &str) -> ModelId {
        ModelId(id.to_owned())
    }

    /// Time the four codec steps on a captured request frame and reply.
    pub fn codec_times(frame: &Bytes, reply: &Bytes) -> Option<CodecTimes> {
        let t0 = Instant::now();
        let decoded = Request::decode_full(frame.clone()).ok()?;
        let t1 = Instant::now();
        let encoded = decoded
            .request
            .encode_with(decoded.key.as_deref(), decoded.trace);
        let t2 = Instant::now();
        let response = Response::decode(reply.clone()).ok()?;
        let t3 = Instant::now();
        let reencoded = response.encode();
        let t4 = Instant::now();
        std::hint::black_box((encoded.len(), reencoded.len()));
        Some(CodecTimes {
            request_decode_ns: (t1 - t0).as_nanos() as u64,
            request_encode_ns: (t2 - t1).as_nanos() as u64,
            response_decode_ns: (t3 - t2).as_nanos() as u64,
            response_encode_ns: (t4 - t3).as_nanos() as u64,
        })
    }

    // ---- counts the program keeps, read from outside ----

    /// Apply every pending secondary-index delta (set-up only).
    pub fn flush_index_deltas(&self) -> usize {
        self.meta.flush_index_deltas()
    }

    pub fn cache_counts(&self) -> CacheCounts {
        let s = self.cache.stats();
        CacheCounts {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
        }
    }

    /// Queries the store has executed (the slow-query log counts every
    /// one at the default threshold of 0 ms).
    pub fn store_queries(&self) -> u64 {
        self.meta.slow_log().total()
    }

    /// Times a stripe applied its pending index delta (telemetry counter;
    /// stays 0 when telemetry is disabled).
    pub fn index_flushes(&self) -> u64 {
        self.index_flushes.get()
    }

    pub fn approx_meta_bytes(&self) -> usize {
        self.meta.approx_size()
    }

    pub fn total_rows(&self) -> usize {
        self.meta.total_rows()
    }

    pub fn wal_bytes(&self) -> u64 {
        self.meta.wal_size_bytes().unwrap_or(0)
    }

    pub fn row_count(&self, table: &str) -> usize {
        self.meta.row_count(table).unwrap_or(0)
    }

    /// Whether a row with this primary key exists.
    pub fn has_row(&self, table: &str, pk: &str) -> bool {
        self.dal.get(table, pk).is_ok_and(|r| r.is_some())
    }

    /// Whether a blob can be fetched and verified at this location.
    pub fn blob_len_at(&self, location: &str) -> Option<usize> {
        self.dal
            .fetch_blob(&BlobLocation::new(location))
            .ok()
            .map(|b| b.len())
    }

    /// `Dal::audit_consistency` over the instances table: every metadata
    /// row must resolve to a blob (§3.5). Returns (consistent, rows
    /// checked, orphan blobs).
    pub fn audit(&self) -> Result<(bool, usize, usize), String> {
        let report = self
            .dal
            .audit_consistency(&[tables::INSTANCES])
            .map_err(err)?;
        Ok((
            report.is_consistent(),
            report.rows_checked,
            report.orphan_blobs.len(),
        ))
    }
}

impl PreparedRead {
    fn empty(kind: ReadKind) -> Self {
        PreparedRead {
            kind,
            wire: Vec::new(),
            instance_id: InstanceId(String::new()),
            model_id: ModelId(String::new()),
            base: String::new(),
            registry_constraints: Vec::new(),
            store_query: Query::all(),
            join_metric: None,
        }
    }

    /// Whether the `MetadataStore` entry is defined for this read.
    pub fn has_meta_entry(&self) -> bool {
        self.kind != ReadKind::Join
    }
}
