//! Durable blob store over a local directory, sharded like object stores
//! shard keys: `<root>/<first two hex chars>/<id>.blob`. Each file carries a
//! small header (magic, crc, length) so integrity survives restarts.
//!
//! Crash discipline: every blob is written to a same-directory `.tmp` file,
//! fsynced, and atomically renamed to its final `.blob` name — a crash
//! mid-write can never leave a half-written blob under a resolvable key.
//! Stale `.tmp` files (crash artifacts) are swept on open. All IO goes
//! through [`FileSystem`] so the crash-consistency harness can run this
//! store over a simulated disk.

use super::checksum::crc32;
use super::{BlobInfo, BlobLocation, ObjectStore};
use crate::error::{Result, StoreError};
use crate::simfs::{real_fs, FileSystem};
use bytes::Bytes;
use gallery_sync::locks::OrderedMutex;
use gallery_sync::rank;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"GBL1";

pub struct LocalFsBlobStore {
    root: PathBuf,
    fs: Arc<dyn FileSystem>,
    next_id: AtomicU64,
    // serializes directory creation; file writes are already unique-path
    dir_lock: OrderedMutex<()>,
    swept_tmp: u64,
}

impl LocalFsBlobStore {
    /// Open (creating) a blob root directory. Existing blobs are respected;
    /// the id counter resumes above the highest existing id.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_fs(real_fs(), root)
    }

    /// [`LocalFsBlobStore::open`] over an explicit file system. Sweeps
    /// stale `.tmp` files left by a crash mid-`put` (they were never
    /// renamed, so no metadata can reference them).
    pub fn open_with_fs(fs: Arc<dyn FileSystem>, root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs.create_dir_all(&root)?;
        let mut max_id = 0u64;
        let mut stale_tmp: Vec<PathBuf> = Vec::new();
        for shard in fs.list_dir(&root)? {
            if !fs.is_dir(&shard) {
                continue;
            }
            for entry in fs.list_dir(&shard)? {
                let ext = entry.extension().and_then(|e| e.to_str());
                if let Some(stem) = entry.file_stem().and_then(|s| s.to_str()) {
                    // Count both .blob and .tmp stems toward the id floor so
                    // a swept tmp's id is never re-minted for a new blob.
                    if let Ok(id) = u64::from_str_radix(stem, 16) {
                        max_id = max_id.max(id + 1);
                    }
                }
                if ext == Some("tmp") {
                    stale_tmp.push(entry);
                }
            }
        }
        let swept_tmp = stale_tmp.len() as u64;
        for tmp in stale_tmp {
            fs.remove_file(&tmp)?;
        }
        Ok(LocalFsBlobStore {
            root,
            fs,
            next_id: AtomicU64::new(max_id),
            dir_lock: OrderedMutex::new(rank::BLOB_STORE, ()),
            swept_tmp,
        })
    }

    /// Crash-artifact `.tmp` files removed by [`LocalFsBlobStore::open`].
    pub fn swept_tmp_files(&self) -> u64 {
        self.swept_tmp
    }

    fn path_for(&self, id: u64) -> PathBuf {
        let hex = format!("{id:016x}");
        self.root.join(&hex[..2]).join(format!("{hex}.blob"))
    }

    fn location_for(&self, id: u64) -> BlobLocation {
        BlobLocation::new(format!("fs://{:016x}", id))
    }

    fn id_of(location: &BlobLocation) -> Result<u64> {
        let hex = location
            .as_str()
            .strip_prefix("fs://")
            .ok_or_else(|| StoreError::NoSuchBlob(location.to_string()))?;
        u64::from_str_radix(hex, 16).map_err(|_| StoreError::NoSuchBlob(location.to_string()))
    }

    /// Write `data` under id `id` with the tmp-file + fsync + atomic-rename
    /// discipline shared by `put` and `put_at`.
    fn write_blob(&self, id: u64, data: &Bytes) -> Result<BlobInfo> {
        let path = self.path_for(id);
        {
            let _g = self.dir_lock.lock();
            if let Some(parent) = path.parent() {
                self.fs.create_dir_all(parent)?;
            }
        }
        let crc = crc32(data);
        // The tmp name embeds the (unique, never reused) blob id, so
        // concurrent writers cannot collide and a crash leaves at most one
        // orphaned tmp per interrupted put.
        let tmp = path.with_extension("tmp");
        {
            let mut f = self.fs.create(&tmp)?;
            f.write_all(MAGIC)?;
            f.write_all(&crc.to_le_bytes())?;
            f.write_all(&(data.len() as u64).to_le_bytes())?;
            f.write_all(data)?;
            // fsync BEFORE the rename: once the blob is visible under its
            // final key its bytes must already be durable, otherwise a
            // post-rename crash could expose a key with vanished content.
            f.sync_data()?;
        }
        self.fs.rename(&tmp, &path)?;
        Ok(BlobInfo {
            location: self.location_for(id),
            size: data.len(),
            crc32: crc,
        })
    }
}

impl ObjectStore for LocalFsBlobStore {
    fn put(&self, data: Bytes) -> Result<BlobInfo> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.write_blob(id, &data)
    }

    fn reserve(&self) -> Result<BlobLocation> {
        Ok(self.location_for(self.next_id.fetch_add(1, Ordering::Relaxed)))
    }

    fn put_at(&self, location: &BlobLocation, data: Bytes) -> Result<BlobInfo> {
        let id = Self::id_of(location)?;
        if self.fs.exists(&self.path_for(id)) {
            return Err(StoreError::Io(format!("blob already exists at {location}")));
        }
        self.write_blob(id, &data)
    }

    fn get(&self, location: &BlobLocation) -> Result<Bytes> {
        let id = Self::id_of(location)?;
        let path = self.path_for(id);
        let raw = match self.fs.read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NoSuchBlob(location.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let mismatch = || StoreError::ChecksumMismatch {
            location: location.to_string(),
        };
        // Magic, CRC-32 and payload length, then the payload.
        let Some((&[m0, m1, m2, m3, c0, c1, c2, c3, len @ ..], data)) =
            raw.split_first_chunk::<16>()
        else {
            return Err(mismatch());
        };
        let (crc, len) = (
            u32::from_le_bytes([c0, c1, c2, c3]),
            u64::from_le_bytes(len),
        );
        if [m0, m1, m2, m3] != *MAGIC || data.len() as u64 != len || crc32(data) != crc {
            return Err(mismatch());
        }
        // The verified payload is handed out as a view of the buffer the
        // file was read into, not copied out of it.
        Ok(Bytes::from(raw).slice(16..))
    }

    fn delete(&self, location: &BlobLocation) -> Result<()> {
        let id = Self::id_of(location)?;
        match self.fs.remove_file(&self.path_for(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NoSuchBlob(location.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn contains(&self, location: &BlobLocation) -> bool {
        Self::id_of(location)
            .map(|id| self.fs.exists(&self.path_for(id)))
            .unwrap_or(false)
    }

    fn blob_count(&self) -> usize {
        self.list().len()
    }

    fn total_bytes(&self) -> u64 {
        let mut total = 0u64;
        for loc in self.list() {
            if let Ok(id) = Self::id_of(&loc) {
                if let Ok(len) = self.fs.len(&self.path_for(id)) {
                    total += len.saturating_sub(16);
                }
            }
        }
        total
    }

    fn list(&self) -> Vec<BlobLocation> {
        let mut out = Vec::new();
        let Ok(shards) = self.fs.list_dir(&self.root) else {
            return out;
        };
        for shard in shards {
            if !self.fs.is_dir(&shard) {
                continue;
            }
            let Ok(entries) = self.fs.list_dir(&shard) else {
                continue;
            };
            for path in entries {
                if path.extension().and_then(|e| e.to_str()) != Some("blob") {
                    continue;
                }
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if let Ok(id) = u64::from_str_radix(stem, 16) {
                        out.push(self.location_for(id));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simfs::SimFs;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gallery-blobfs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip() {
        let store = LocalFsBlobStore::open(tmp("rt")).unwrap();
        let info = store.put(Bytes::from_static(b"weights")).unwrap();
        assert_eq!(
            store.get(&info.location).unwrap(),
            Bytes::from_static(b"weights")
        );
        assert!(store.contains(&info.location));
    }

    #[test]
    fn survives_reopen() {
        let root = tmp("reopen");
        let loc = {
            let store = LocalFsBlobStore::open(&root).unwrap();
            store
                .put(Bytes::from_static(b"persisted"))
                .unwrap()
                .location
        };
        let store = LocalFsBlobStore::open(&root).unwrap();
        assert_eq!(store.get(&loc).unwrap(), Bytes::from_static(b"persisted"));
        // new ids don't collide with old
        let info = store.put(Bytes::from_static(b"more")).unwrap();
        assert_ne!(info.location, loc);
    }

    #[test]
    fn detects_on_disk_corruption() {
        let root = tmp("corrupt");
        let store = LocalFsBlobStore::open(&root).unwrap();
        let info = store.put(Bytes::from_static(b"fragile")).unwrap();
        // Flip a payload byte on disk.
        let id =
            u64::from_str_radix(info.location.as_str().strip_prefix("fs://").unwrap(), 16).unwrap();
        let path = store.path_for(id);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(
            store.get(&info.location),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn reads_a_blob_file_written_before_the_sliced_crc() {
        // The 16 header bytes are what the commit before the slice-by-8
        // kernel wrote for this payload (taken from a file its CLI
        // produced): same polynomial, same value, old blobs still verify.
        let header: [u8; 16] = [
            b'G', b'B', b'L', b'1', 0xb1, 0xa6, 0xd7, 0xbb, 0x24, 0, 0, 0, 0, 0, 0, 0,
        ];
        let payload = b"weights written by the parent commit";
        let root = tmp("parent-blob");
        let store = LocalFsBlobStore::open(&root).unwrap();
        let path = store.path_for(7);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, [&header[..], payload].concat()).unwrap();
        let got = store.get(&store.location_for(7)).unwrap();
        assert_eq!(got, Bytes::from_static(payload));
    }

    #[test]
    fn missing_blob() {
        let store = LocalFsBlobStore::open(tmp("missing")).unwrap();
        assert!(matches!(
            store.get(&BlobLocation::new("fs://00000000000000ff")),
            Err(StoreError::NoSuchBlob(_))
        ));
        assert!(matches!(
            store.get(&BlobLocation::new("garbage")),
            Err(StoreError::NoSuchBlob(_))
        ));
    }

    #[test]
    fn delete_removes_file() {
        let store = LocalFsBlobStore::open(tmp("delete")).unwrap();
        let info = store.put(Bytes::from_static(b"gone soon")).unwrap();
        store.delete(&info.location).unwrap();
        assert!(!store.contains(&info.location));
        assert!(matches!(
            store.delete(&info.location),
            Err(StoreError::NoSuchBlob(_))
        ));
    }

    #[test]
    fn list_and_accounting() {
        let store = LocalFsBlobStore::open(tmp("list")).unwrap();
        store.put(Bytes::from(vec![1u8; 10])).unwrap();
        store.put(Bytes::from(vec![2u8; 20])).unwrap();
        assert_eq!(store.blob_count(), 2);
        assert_eq!(store.total_bytes(), 30);
    }

    #[test]
    fn reserve_then_put_at() {
        let store = LocalFsBlobStore::open(tmp("reserve")).unwrap();
        let loc = store.reserve().unwrap();
        assert!(!store.contains(&loc));
        let info = store.put_at(&loc, Bytes::from_static(b"late")).unwrap();
        assert_eq!(info.location, loc);
        assert_eq!(store.get(&loc).unwrap(), Bytes::from_static(b"late"));
        // Double put_at at the same location is refused (immutability).
        assert!(store.put_at(&loc, Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn stale_tmp_swept_on_open_and_invisible_to_list() {
        let root = tmp("sweep");
        {
            let store = LocalFsBlobStore::open(&root).unwrap();
            store.put(Bytes::from_static(b"good")).unwrap();
        }
        // Simulate a crash mid-put: a half-written tmp file next to a real
        // blob in the same shard.
        let shard = fs::read_dir(&root).unwrap().next().unwrap().unwrap().path();
        fs::write(shard.join("00000000000000aa.tmp"), b"GBL1half").unwrap();
        {
            let store = LocalFsBlobStore::open(&root).unwrap();
            assert_eq!(store.swept_tmp_files(), 1);
            assert_eq!(store.blob_count(), 1, "tmp must never surface as a blob");
            // The tmp's id is not re-minted for new blobs.
            let info = store.put(Bytes::from_static(b"new")).unwrap();
            assert_ne!(info.location.as_str(), "fs://00000000000000aa");
            assert!(!shard.join("00000000000000aa.tmp").exists());
        }
    }

    #[test]
    fn crash_mid_put_leaves_no_resolvable_blob() {
        // Crash the SimFs at every IO op inside a put: recovery must never
        // observe a readable-but-wrong blob at the final key.
        let payload = Bytes::from_static(b"crash-window payload");
        // put over SimFs costs: create(tmp) + 4 writes + sync + rename = 7 ops.
        for crash_at in 0..7 {
            let fs = SimFs::with_plan(crate::simfs::SimFaultPlan {
                crash_at_op: Some(crash_at),
                ..Default::default()
            });
            let store = LocalFsBlobStore::open_with_fs(Arc::new(fs.clone()), "/blobs").unwrap();
            let err = store.put(payload.clone());
            assert!(err.is_err(), "crash at op {crash_at} must fail the put");
            let after = fs.recover();
            let store = LocalFsBlobStore::open_with_fs(Arc::new(after), "/blobs").unwrap();
            for loc in store.list() {
                // A blob visible after recovery must be intact: the rename
                // happened, so the fsync before it made the bytes durable.
                assert_eq!(store.get(&loc).unwrap(), payload);
            }
        }
        // Sanity: without a crash the put lands and survives recovery.
        let fs = SimFs::new();
        let store = LocalFsBlobStore::open_with_fs(Arc::new(fs.clone()), "/blobs").unwrap();
        let info = store.put(payload.clone()).unwrap();
        let store = LocalFsBlobStore::open_with_fs(Arc::new(fs.recover()), "/blobs").unwrap();
        assert_eq!(store.get(&info.location).unwrap(), payload);
    }
}
