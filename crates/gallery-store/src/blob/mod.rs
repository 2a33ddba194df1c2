//! Blob storage: Gallery's stand-in for Uber's S3/HDFS-backed large data
//! storage service (§3.5).
//!
//! Model instance blobs are opaque binaries (model-neutral, §3.1). The
//! store hands back an opaque [`BlobLocation`] which the metadata layer
//! records next to the instance; at serving time the location is resolved
//! back to bytes, optionally through an LRU cache.

pub mod cache;
pub mod checksum;
pub mod localfs;

use crate::error::Result;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Opaque blob address, e.g. `fs://00000000000000af`.
/// Analogous to the HDFS/S3 path stored in instance metadata in the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlobLocation(pub String);

impl BlobLocation {
    pub fn new(s: impl Into<String>) -> Self {
        BlobLocation(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlobLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Metadata about one stored blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobInfo {
    pub location: BlobLocation,
    pub size: usize,
    pub crc32: u32,
}

/// Abstract object store. The one on-disk format is
/// [`localfs::LocalFsBlobStore`] (sharded directories, header and CRC per
/// file, fault injection), over a real directory or, in memory, a
/// [`crate::simfs::SimFs`]; [`cache::CachedBlobStore`] fronts it.
///
/// Blobs are immutable: `put` always creates a new location; there is no
/// overwrite or delete in the public API (deprecation is a metadata flag,
/// §3.7). Implementations must verify checksums on `get`.
pub trait ObjectStore: Send + Sync {
    /// Store a blob, returning its new, unique location.
    fn put(&self, data: Bytes) -> Result<BlobInfo>;

    /// Mint a fresh location without storing anything (needed by the
    /// unsafe metadata-first ordering ablation, where the location must be
    /// known before the blob exists). Backends may not support this.
    fn reserve(&self) -> Result<BlobLocation> {
        Err(crate::error::StoreError::Io(
            "backend does not support location reservation".to_string(),
        ))
    }

    /// Store a blob at a caller-chosen location (the counterpart of
    /// [`ObjectStore::reserve`]). Backends may not support this.
    fn put_at(&self, location: &BlobLocation, _data: Bytes) -> Result<BlobInfo> {
        Err(crate::error::StoreError::Io(format!(
            "backend does not support caller-chosen locations ({location})"
        )))
    }

    /// Fetch a blob by location, verifying integrity.
    fn get(&self, location: &BlobLocation) -> Result<Bytes>;

    /// Delete the blob at `location`. Blobs referenced by metadata are
    /// immutable and never deleted (deprecation is a metadata flag, §3.7);
    /// this exists solely so the repair pass can garbage-collect *orphan*
    /// blobs left behind by interrupted blob-first writes. Backends may
    /// not support it.
    fn delete(&self, location: &BlobLocation) -> Result<()> {
        Err(crate::error::StoreError::Io(format!(
            "backend does not support delete ({location})"
        )))
    }

    /// Best-effort cache peek: return the blob only if it can be served
    /// without touching the (possibly failing) backend. The default store
    /// has no cache and returns `None`; [`cache::CachedBlobStore`]
    /// overrides this to serve from its LRU. Used for graceful degradation
    /// — callers must treat the result as potentially stale.
    fn get_cached_only(&self, _location: &BlobLocation) -> Option<Bytes> {
        None
    }

    /// Whether a blob exists at the location.
    fn contains(&self, location: &BlobLocation) -> bool;

    /// Number of blobs stored.
    fn blob_count(&self) -> usize;

    /// Total payload bytes stored.
    fn total_bytes(&self) -> u64;

    /// Locations of every stored blob (used by the consistency checker to
    /// find orphans). Order unspecified.
    fn list(&self) -> Vec<BlobLocation>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_display_roundtrip() {
        let loc = BlobLocation::new("mem://abc");
        assert_eq!(loc.to_string(), "mem://abc");
        assert_eq!(loc.as_str(), "mem://abc");
    }
}
