//! LRU read-through cache in front of an [`ObjectStore`].
//!
//! §3.5: "The cache is updated with the requested blob and then is
//! subsequently returned to the user." The budget is in bytes because model
//! blobs range "from a few KBs to 10s GBs" (§3.3.2) — counting entries
//! would let one huge deep-learning blob evict nothing.

use super::localfs::LocalFsBlobStore;
use super::{BlobInfo, BlobLocation, ObjectStore};
use crate::error::Result;
use bytes::Bytes;
use gallery_sync::locks::OrderedMutex;
use gallery_sync::rank;
use gallery_telemetry::{kinds, Counter, Gauge, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Doubly-linked LRU implemented over a slab of entries.
struct LruList {
    entries: Vec<LruEntry>,
    head: Option<usize>, // most recently used
    tail: Option<usize>, // least recently used
    free: Vec<usize>,
}

struct LruEntry {
    location: BlobLocation,
    data: Bytes,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruList {
    fn new() -> Self {
        LruList {
            entries: Vec::new(),
            head: None,
            tail: None,
            free: Vec::new(),
        }
    }

    fn push_front(&mut self, location: BlobLocation, data: Bytes) -> usize {
        let entry = LruEntry {
            location,
            data,
            prev: None,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx] = entry;
                idx
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        if let Some(h) = self.head {
            self.entries[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        idx
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        match prev {
            Some(p) => self.entries[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.entries[n].prev = prev,
            None => self.tail = prev,
        }
        self.entries[idx].prev = None;
        self.entries[idx].next = None;
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == Some(idx) {
            return;
        }
        self.unlink(idx);
        let old_head = self.head;
        self.entries[idx].next = old_head;
        if let Some(h) = old_head {
            self.entries[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    fn pop_back(&mut self) -> Option<(BlobLocation, usize)> {
        let idx = self.tail?;
        self.unlink(idx);
        self.free.push(idx);
        let size = self.entries[idx].data.len();
        let loc = self.entries[idx].location.clone();
        self.entries[idx].data = Bytes::new();
        Some((loc, size))
    }
}

/// Cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_cached: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheInner {
    lru: LruList,
    by_location: HashMap<BlobLocation, usize>,
    bytes: usize,
}

/// Telemetry handles behind [`CacheStats`]. These are the *only* tallies —
/// the ad-hoc counters that used to live inside the cache lock are gone,
/// so the exposition and `stats()` can never disagree. Handles are
/// standalone (per-instance) by default and registry-minted after
/// [`CachedBlobStore::with_telemetry`].
struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    bytes_cached: Arc<Gauge>,
    telemetry: Arc<Telemetry>,
}

impl CacheMetrics {
    fn standalone() -> Self {
        CacheMetrics {
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            evictions: Counter::standalone(),
            bytes_cached: Gauge::standalone(),
            telemetry: Arc::clone(gallery_telemetry::global()),
        }
    }

    fn registered(telemetry: Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        CacheMetrics {
            hits: r.counter("gallery_cache_hits_total", &[]),
            misses: r.counter("gallery_cache_misses_total", &[]),
            evictions: r.counter("gallery_cache_evictions_total", &[]),
            bytes_cached: r.gauge("gallery_cache_bytes", &[]),
            telemetry,
        }
    }
}

/// Budget of [`CachedBlobStore::in_memory`]'s cache.
const IN_MEMORY_CACHE_BYTES: usize = 32 << 20;

/// Read-through LRU blob cache wrapping any [`ObjectStore`].
pub struct CachedBlobStore {
    backend: Arc<dyn ObjectStore>,
    capacity_bytes: usize,
    inner: OrderedMutex<CacheInner>,
    metrics: CacheMetrics,
}

impl CachedBlobStore {
    pub fn new(backend: Arc<dyn ObjectStore>, capacity_bytes: usize) -> Self {
        CachedBlobStore {
            backend,
            capacity_bytes,
            inner: OrderedMutex::new(
                rank::BLOB_CACHE,
                CacheInner {
                    lru: LruList::new(),
                    by_location: HashMap::new(),
                    bytes: 0,
                },
            ),
            metrics: CacheMetrics::standalone(),
        }
    }

    /// The in-memory blob tier: blob files in the on-disk format on a
    /// fresh `SimFs` ([`LocalFsBlobStore::in_memory`]) behind a 32 MiB
    /// cache. A file on a `SimFs` is copied out on every read; the cache
    /// serves repeat fetches without the copy.
    pub fn in_memory() -> Self {
        Self::new(
            Arc::new(LocalFsBlobStore::in_memory()),
            IN_MEMORY_CACHE_BYTES,
        )
    }

    /// Record hit/miss/eviction tallies into `telemetry`'s registry (as
    /// `gallery_cache_*`) and emit eviction events to its sink, instead of
    /// per-instance standalone handles. Call before first use.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.metrics = CacheMetrics::registered(telemetry);
        self
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            evictions: self.metrics.evictions.get(),
            bytes_cached: self.metrics.bytes_cached.get() as u64,
        }
    }

    pub fn backend(&self) -> &Arc<dyn ObjectStore> {
        &self.backend
    }

    fn admit(&self, inner: &mut CacheInner, location: BlobLocation, data: Bytes) {
        if data.len() > self.capacity_bytes {
            return; // larger than the whole cache: don't thrash
        }
        while inner.bytes + data.len() > self.capacity_bytes {
            match inner.lru.pop_back() {
                Some((loc, size)) => {
                    inner.by_location.remove(&loc);
                    inner.bytes -= size;
                    self.metrics.evictions.inc();
                    self.metrics.telemetry.events().emit(
                        kinds::CACHE_EVICT,
                        vec![
                            ("location", loc.to_string().into()),
                            ("bytes", size.to_string().into()),
                        ],
                    );
                }
                None => break,
            }
        }
        inner.bytes += data.len();
        self.metrics.bytes_cached.set(inner.bytes as i64);
        let idx = inner.lru.push_front(location.clone(), data);
        inner.by_location.insert(location, idx);
    }
}

impl ObjectStore for CachedBlobStore {
    fn put(&self, data: Bytes) -> Result<BlobInfo> {
        let info = self.backend.put(data.clone())?;
        // Write-through admit: freshly trained models are usually served
        // immediately (champion selection), so warm the cache on put.
        let mut inner = self.inner.lock();
        self.admit(&mut inner, info.location.clone(), data);
        Ok(info)
    }

    fn reserve(&self) -> Result<BlobLocation> {
        self.backend.reserve()
    }

    fn put_at(&self, location: &BlobLocation, data: Bytes) -> Result<BlobInfo> {
        let info = self.backend.put_at(location, data.clone())?;
        let mut inner = self.inner.lock();
        self.admit(&mut inner, info.location.clone(), data);
        Ok(info)
    }

    fn get(&self, location: &BlobLocation) -> Result<Bytes> {
        {
            let mut inner = self.inner.lock();
            if let Some(&idx) = inner.by_location.get(location) {
                inner.lru.move_to_front(idx);
                self.metrics.hits.inc();
                return Ok(inner.lru.entries[idx].data.clone());
            }
            self.metrics.misses.inc();
        }
        let data = self.backend.get(location)?;
        let mut inner = self.inner.lock();
        if !inner.by_location.contains_key(location) {
            self.admit(&mut inner, location.clone(), data.clone());
        }
        Ok(data)
    }

    fn delete(&self, location: &BlobLocation) -> Result<()> {
        // Invalidate the cache entry first so a failed backend delete never
        // leaves us serving bytes the caller believes are gone.
        {
            let mut inner = self.inner.lock();
            if let Some(idx) = inner.by_location.remove(location) {
                inner.lru.unlink(idx);
                inner.lru.free.push(idx);
                let size = inner.lru.entries[idx].data.len();
                inner.lru.entries[idx].data = Bytes::new();
                inner.bytes -= size;
                self.metrics.bytes_cached.set(inner.bytes as i64);
            }
        }
        self.backend.delete(location)
    }

    fn get_cached_only(&self, location: &BlobLocation) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        let &idx = inner.by_location.get(location)?;
        inner.lru.move_to_front(idx);
        Some(inner.lru.entries[idx].data.clone())
    }

    fn contains(&self, location: &BlobLocation) -> bool {
        self.inner.lock().by_location.contains_key(location) || self.backend.contains(location)
    }

    fn blob_count(&self) -> usize {
        self.backend.blob_count()
    }

    fn total_bytes(&self) -> u64 {
        self.backend.total_bytes()
    }

    fn list(&self) -> Vec<BlobLocation> {
        self.backend.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached(capacity: usize) -> CachedBlobStore {
        CachedBlobStore::new(Arc::new(LocalFsBlobStore::in_memory()), capacity)
    }

    #[test]
    fn read_through_and_hit() {
        let store = cached(1024);
        let info = store.backend.put(Bytes::from_static(b"blob")).unwrap();
        assert_eq!(
            store.get(&info.location).unwrap(),
            Bytes::from_static(b"blob")
        );
        assert_eq!(store.stats().misses, 1);
        let _ = store.get(&info.location).unwrap();
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn put_warms_cache() {
        let store = cached(1024);
        let info = store.put(Bytes::from_static(b"warm")).unwrap();
        let _ = store.get(&info.location).unwrap();
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 0);
    }

    #[test]
    fn eviction_by_byte_budget() {
        let store = cached(100);
        let a = store.put(Bytes::from(vec![1u8; 60])).unwrap();
        let _b = store.put(Bytes::from(vec![2u8; 60])).unwrap(); // evicts a
        assert_eq!(store.stats().evictions, 1);
        let _ = store.get(&a.location).unwrap(); // miss, refetch
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn lru_order_respected() {
        let store = cached(100);
        let a = store.put(Bytes::from(vec![1u8; 40])).unwrap();
        let b = store.put(Bytes::from(vec![2u8; 40])).unwrap();
        let _ = store.get(&a.location).unwrap(); // a is now MRU
        let _c = store.put(Bytes::from(vec![3u8; 40])).unwrap(); // evicts b
        {
            let inner = store.inner.lock();
            assert!(inner.by_location.contains_key(&a.location));
            assert!(!inner.by_location.contains_key(&b.location));
        }
    }

    #[test]
    fn oversized_blob_not_admitted() {
        let store = cached(10);
        let info = store.put(Bytes::from(vec![0u8; 100])).unwrap();
        assert_eq!(store.stats().bytes_cached, 0);
        // still retrievable from backend
        assert_eq!(store.get(&info.location).unwrap().len(), 100);
    }

    #[test]
    fn cached_only_peek_serves_without_backend() {
        use crate::fault::{sites, FaultPlan};
        let plan = FaultPlan::none();
        let backend = Arc::new(LocalFsBlobStore::in_memory().with_faults(plan.clone()));
        let store = CachedBlobStore::new(backend, 1024);
        let info = store.put(Bytes::from_static(b"degraded")).unwrap();
        // Take the backend down entirely: normal reads fail, peek survives.
        plan.fail_always(sites::BLOB_GET);
        assert_eq!(
            store.get_cached_only(&info.location),
            Some(Bytes::from_static(b"degraded"))
        );
        assert_eq!(
            store.get_cached_only(&BlobLocation::new("fs://00000000000000ff")),
            None
        );
    }

    #[test]
    fn delete_invalidates_cache_entry() {
        let store = cached(1024);
        let info = store.put(Bytes::from_static(b"orphan")).unwrap();
        store.delete(&info.location).unwrap();
        assert_eq!(store.get_cached_only(&info.location), None);
        assert!(!store.contains(&info.location));
        assert_eq!(store.stats().bytes_cached, 0);
    }

    #[test]
    fn hit_rate() {
        let store = cached(1024);
        let info = store.backend.put(Bytes::from_static(b"x")).unwrap();
        let _ = store.get(&info.location);
        let _ = store.get(&info.location);
        let _ = store.get(&info.location);
        let s = store.stats();
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod put_at_tests {
    use super::*;
    use crate::blob::localfs::LocalFsBlobStore;

    #[test]
    fn put_at_delegates_and_warms_cache() {
        let cache = CachedBlobStore::new(Arc::new(LocalFsBlobStore::in_memory()), 1024);
        let loc = cache.reserve().unwrap();
        cache.put_at(&loc, Bytes::from_static(b"pinned")).unwrap();
        let _ = cache.get(&loc).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }
}
