//! Timing wrappers at the three trait seams the program exposes:
//! [`Transport`], [`ObjectStore`] and [`FileSystem`]. Each records a span
//! around the inner call while the calling thread runs a sampled
//! operation, and is a plain forward otherwise.

use crate::trace::{sampling, SpanSink};
use bytes::Bytes;
use gallery_service::{Transport, TransportError};
use gallery_store::{BlobInfo, BlobLocation, FileSystem, FsFile, ObjectStore};
use std::cell::RefCell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Wraps the client's transport. The span it records is the server's
/// whole handling time, because `DirectTransport` runs `handle_frame` on
/// the caller's thread. It also keeps the last sampled frame and reply
/// so that the codec and the server can be replayed on real messages.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    sink: Arc<SpanSink>,
}

thread_local! {
    /// Request frame and reply of this thread's last sampled call.
    static CAPTURED: RefCell<Option<(Bytes, Bytes)>> = const { RefCell::new(None) };
}

/// The request frame and reply of the calling thread's last sampled call.
pub fn take_captured() -> Option<(Bytes, Bytes)> {
    CAPTURED.with(|c| c.borrow_mut().take())
}

impl TimedTransport {
    pub fn new(inner: Arc<dyn Transport>, sink: Arc<SpanSink>) -> Self {
        TimedTransport { inner, sink }
    }
}

impl Transport for TimedTransport {
    fn call(&self, frame: Bytes) -> Result<Bytes, TransportError> {
        if !sampling() {
            return self.inner.call(frame);
        }
        let request = frame.clone();
        let reply = self.sink.span("transport", || self.inner.call(frame))?;
        CAPTURED.with(|c| *c.borrow_mut() = Some((request, reply.clone())));
        Ok(reply)
    }
}

/// Wraps an object store; one sits around the blob cache (`blob.outer.*`)
/// and one between the cache and the local-fs store (`blob.inner.*`). An
/// outer `get` with no inner `get` beneath it was a cache hit.
pub struct TimedObjectStore {
    inner: Arc<dyn ObjectStore>,
    sink: Arc<SpanSink>,
    put_name: &'static str,
    get_name: &'static str,
}

impl TimedObjectStore {
    pub fn outer(inner: Arc<dyn ObjectStore>, sink: Arc<SpanSink>) -> Self {
        TimedObjectStore {
            inner,
            sink,
            put_name: "blob.outer.put",
            get_name: "blob.outer.get",
        }
    }

    pub fn inner(inner: Arc<dyn ObjectStore>, sink: Arc<SpanSink>) -> Self {
        TimedObjectStore {
            inner,
            sink,
            put_name: "blob.inner.put",
            get_name: "blob.inner.get",
        }
    }
}

impl ObjectStore for TimedObjectStore {
    fn put(&self, data: Bytes) -> gallery_store::Result<BlobInfo> {
        self.sink.span(self.put_name, || self.inner.put(data))
    }
    fn reserve(&self) -> gallery_store::Result<BlobLocation> {
        self.inner.reserve()
    }
    fn put_at(&self, location: &BlobLocation, data: Bytes) -> gallery_store::Result<BlobInfo> {
        self.sink
            .span(self.put_name, || self.inner.put_at(location, data))
    }
    fn get(&self, location: &BlobLocation) -> gallery_store::Result<Bytes> {
        self.sink.span(self.get_name, || self.inner.get(location))
    }
    fn delete(&self, location: &BlobLocation) -> gallery_store::Result<()> {
        self.inner.delete(location)
    }
    fn get_cached_only(&self, location: &BlobLocation) -> Option<Bytes> {
        self.inner.get_cached_only(location)
    }
    fn contains(&self, location: &BlobLocation) -> bool {
        self.inner.contains(location)
    }
    fn blob_count(&self) -> usize {
        self.inner.blob_count()
    }
    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
    fn list(&self) -> Vec<BlobLocation> {
        self.inner.list()
    }
}

/// Span names of one file system: the WAL's or the blob store's.
#[derive(Clone, Copy)]
pub struct FsSpanNames {
    pub write: &'static str,
    pub sync: &'static str,
    pub rename: &'static str,
    pub create: &'static str,
    pub read: &'static str,
}

pub const WAL_FS: FsSpanNames = FsSpanNames {
    write: "fs.wal.write",
    sync: "fs.wal.sync",
    rename: "fs.wal.rename",
    create: "fs.wal.create",
    read: "fs.wal.read",
};

pub const BLOB_FS: FsSpanNames = FsSpanNames {
    write: "fs.blob.write",
    sync: "fs.blob.sync",
    rename: "fs.blob.rename",
    create: "fs.blob.create",
    read: "fs.blob.read",
};

/// Wraps a file system: spans around create, write, sync, rename, read.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    sink: Arc<SpanSink>,
    names: FsSpanNames,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn FileSystem>, sink: Arc<SpanSink>, names: FsSpanNames) -> Self {
        TimedFs { inner, sink, names }
    }

    fn wrap(&self, file: Box<dyn FsFile>) -> Box<dyn FsFile> {
        Box::new(TimedFile {
            inner: file,
            sink: Arc::clone(&self.sink),
            names: self.names,
        })
    }
}

struct TimedFile {
    inner: Box<dyn FsFile>,
    sink: Arc<SpanSink>,
    names: FsSpanNames,
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        self.sink.span(self.names.write, || inner.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl FsFile for TimedFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.sink.span(self.names.sync, || inner.sync_data())
    }
}

impl FileSystem for TimedFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(self.wrap(self.inner.open_append(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let file = self
            .sink
            .span(self.names.create, || self.inner.create(path))?;
        Ok(self.wrap(file))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.sink.span(self.names.read, || self.inner.read(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.sink
            .span(self.names.rename, || self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        self.inner.is_dir(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}
