//! # gallery-core
//!
//! Core of the Gallery model lifecycle management system — a from-scratch
//! Rust reproduction of *Gallery: A Machine Learning Model Management
//! System at Uber* (Sun, Azari, Turakhia; EDBT 2020).
//!
//! Gallery manages machine learning models across their lifecycle:
//!
//! - **data model** (§3.3, Fig 3): [`model::Model`],
//!   [`instance::ModelInstance`] (opaque, model-neutral blobs), and
//!   [`metrics::MetricRecord`] — each with searchable [`metadata`];
//! - **versioning** (§3.4, Fig 4): UUID-identified immutable instances
//!   linked to a human-meaningful base version id ([`id`], [`version`]),
//!   with the pre-Gallery semantic-versioning baseline kept in [`semver`];
//! - **dependency management** (§3.4.2, Figs 5–7): upstream/downstream
//!   tracking with automatic version propagation ([`deps`]);
//! - **model health** (§3.6): completeness scoring, drift detection, and
//!   production-skew detection ([`health`]);
//! - **lifecycle orchestration** (Fig 1): an enforced stage state machine
//!   ([`lifecycle`]);
//! - the **registry** (§4.1, Listings 3–5): the main API ([`registry::Gallery`]).
//!
//! Storage is provided by the [`gallery_store`] substrate (a stand-in for
//! Uber's MySQL + S3/HDFS infrastructure); orchestration rules live in the
//! `gallery-rules` crate.

// Tests may unwrap freely and use raw std locks; non-test code is held to
// the clippy.toml disallowed-methods ban (no unwrap/expect on
// user-reachable paths) and disallowed-types ban (every lock is ranked).
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod clock;
pub mod deps;
pub mod error;
pub mod events;
pub mod health;
pub mod id;
pub mod instance;
pub mod lifecycle;
pub mod metadata;
pub mod metrics;
pub mod model;
pub mod monitor;
pub mod registry;
pub mod reproduce;
pub mod schemas;
pub mod semver;
pub mod shard;
pub mod version;

/// Rank-checked synchronization primitives (the lock-rank analyzer).
/// Lives in its own leaf crate so `gallery-store` can use the wrappers
/// too; re-exported here as the canonical `gallery_core::sync` path.
pub use gallery_sync as sync;

pub use clock::{
    Clock, ManualClock, SimulatedSleeper, Sleeper, SystemClock, SystemSleeper, TimestampMs,
};
pub use error::{GalleryError, Result};
pub use events::{EventBus, GalleryEvent};
pub use id::{BaseVersionId, DeploymentId, InstanceId, MetricId, ModelId, Uuid};
pub use instance::{InstanceSpec, ModelInstance};
pub use lifecycle::Stage;
pub use metadata::{MetaValue, Metadata};
pub use metrics::{MetricRecord, MetricScope, MetricSpec};
pub use model::{Model, ModelSpec};
pub use monitor::{ModelMonitor, MonitorConfig, MonitorSnapshot, ScoringEvent};
pub use registry::Gallery;
pub use reproduce::{ReproductionMatch, ReproductionPlan};
pub use schemas::{Deployment, InstanceFields, InstanceRows};
pub use semver::{ChangeKind, SemVer, SemVerFleet};
pub use shard::{shard_of, IdPolicy};
pub use version::{DisplayVersion, InstanceTrigger};
