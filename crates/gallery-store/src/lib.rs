//! # gallery-store
//!
//! Storage substrate for the Gallery model-management system (reproduction
//! of *Gallery: A Machine Learning Model Management System at Uber*,
//! EDBT 2020, §3.5).
//!
//! Gallery stores structured metadata in a relational database (MySQL at
//! Uber) and opaque model blobs in a large object store (S3/HDFS at Uber),
//! joined by a unified data access layer (DAL). This crate provides
//! embedded, from-scratch equivalents:
//!
//! - [`meta::MetadataStore`] — typed tables with hash/btree secondary
//!   indexes and ordered ("latest of X") indexes, constraint queries with
//!   a small planner, and WAL-based durability;
//! - [`blob`] — an [`blob::ObjectStore`] trait with in-memory and local-FS
//!   backends, CRC-32 integrity, an LRU byte-budget cache, simulated
//!   backend latency, and fault injection;
//! - [`dal::Dal`] — the unified access layer enforcing the paper's
//!   blob-first write ordering and auditing referential integrity.
//!
//! Every layer is instrumented through [`gallery_telemetry`] (re-exported
//! as [`telemetry`]): DAL and blob operations count into
//! `gallery_dal_*`/`gallery_blob_*`, the WAL into `gallery_wal_*`, and the
//! LRU cache into `gallery_cache_*`. Constructors default to the
//! process-global bundle; `with_telemetry` builders swap in an isolated
//! one.

#![cfg_attr(test, allow(clippy::disallowed_methods))]
// No `unsafe` outside the CRC-32 kernel (`blob::checksum`), which allows
// it for itself; every `unsafe` block says why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod blob;
pub mod dal;
pub mod error;
pub mod fault;
pub mod index;
pub mod latency;
pub mod meta;
pub mod query;
pub mod record;
pub mod schema;
pub mod ship;
pub mod simfs;
pub mod table;
// Test support: crash matrices, schedule perturbation and workloads that
// only tests and experiments drive.
#[allow(clippy::disallowed_methods)]
pub mod testkit;
pub mod value;
pub mod wal;

pub use gallery_telemetry as telemetry;

pub use blob::{BlobInfo, BlobLocation, ObjectStore};
pub use dal::{ConsistencyReport, Dal, DegradedRead, RepairReport, StoredEntity, WriteOrdering};
pub use error::{Result, StoreError};
pub use fault::FaultPlan;
pub use latency::{LatencyMeter, LatencyModel};
pub use meta::{MetadataStore, ShipApply, SlowQueryEntry, SlowQueryLog, StoreConfig};
pub use query::{AccessPath, Constraint, Explain, Op, OrderBy, Query};
pub use record::{Record, Row};
pub use schema::{ColumnDef, IndexKind, OrderedIndexDef, TableSchema};
pub use ship::{ShipFrame, ShipReport};
pub use simfs::{real_fs, FileSystem, FsFile, RealFs, SimFaultPlan, SimFs};
pub use value::{Value, ValueType};
pub use wal::{SyncPolicy, WalOp};
