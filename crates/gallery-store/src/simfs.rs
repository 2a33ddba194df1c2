//! File-system abstraction with a deterministic simulated implementation.
//!
//! Durability code is only as good as its behaviour at the worst possible
//! instant, so the WAL ([`crate::wal::Wal`]) and the local blob backend
//! ([`crate::blob::localfs::LocalFsBlobStore`]) perform all file IO through
//! the [`FileSystem`] trait. Production uses [`RealFs`] (thin wrappers over
//! `std::fs`, same syscalls as before); tests use [`SimFs`], an in-memory
//! file system that models the durability semantics crash-consistency
//! testing cares about:
//!
//! - written bytes are *visible* immediately but only become *durable* on
//!   `sync_data` (matching an OS page cache);
//! - directory-shape operations (create, rename, remove) are modelled as
//!   immediately durable — the simplification is documented in
//!   `docs/testing.md`;
//! - an injectable [`SimFaultPlan`] can crash the process at the Nth
//!   mutating IO operation, tear the final write (persist only a prefix),
//!   silently drop fsyncs on matching paths, and flip bits in durable data
//!   at recovery time;
//! - every mutating operation advances a counter, and a [`SimFs::recording`]
//!   disk also keeps an op log of them, so a harness can enumerate *all*
//!   crash points of a workload and classify them by site.
//!
//! After a simulated crash, [`SimFs::recover`] produces the disk as a
//! rebooted machine would see it: durable bytes only, volatile state gone.

use gallery_sync::locks::OrderedMutex;
use gallery_sync::rank;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A writable file handle produced by a [`FileSystem`].
pub trait FsFile: Write + Send + Sync {
    /// Flush application buffers and force written bytes to stable storage
    /// (fsync). On [`SimFs`] this is the only operation that makes file
    /// *contents* survive a crash.
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The file operations the storage layer performs, abstracted so tests can
/// substitute a simulated disk. Implementations must be thread-safe.
pub trait FileSystem: Send + Sync {
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Open `path` for appending, creating it if missing.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Create `path` for writing, truncating any existing content.
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Read the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    fn exists(&self, path: &Path) -> bool;
    fn is_dir(&self, path: &Path) -> bool;
    /// Length of the file in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Truncate an existing file to `len` bytes (WAL torn-tail recovery).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Entries (files and directories) directly under `path`. Missing
    /// directories yield an error, like `std::fs::read_dir`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The default [`FileSystem`]: `std::fs` on the host, shared as a
/// singleton so constructors don't allocate per store.
pub fn real_fs() -> Arc<dyn FileSystem> {
    static REAL: std::sync::OnceLock<Arc<RealFs>> = std::sync::OnceLock::new();
    REAL.get_or_init(|| Arc::new(RealFs)).clone() as Arc<dyn FileSystem>
}

/// Production file system: forwards to `std::fs`, buffering writes like the
/// pre-abstraction code did (`BufWriter` + explicit `sync_data`).
#[derive(Debug, Default)]
pub struct RealFs;

struct RealFile(io::BufWriter<std::fs::File>);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl FsFile for RealFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.get_ref().sync_data()
    }
}

impl FileSystem for RealFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealFile(io::BufWriter::new(f))))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(io::BufWriter::new(f))))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }
}

/// Kinds of mutating operations [`SimFs`] counts toward the crash clock and
/// a recording disk keeps in its op log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoOp {
    Create,
    Write,
    Sync,
    Rename,
    Remove,
    Truncate,
}

impl IoOp {
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
            IoOp::Truncate => "truncate",
        }
    }
}

/// One entry of the [`SimFs`] op log: what happened, to which file, and how
/// many payload bytes were involved (writes only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoOpRecord {
    pub op: IoOp,
    pub path: PathBuf,
    pub bytes: usize,
    /// Whole WAL frames in the write payload ([`crate::wal::frames_in`]).
    /// The WAL writes one frame per op, so `frames > 1` marks a
    /// group-commit batch — the crash matrix uses this to target mid-batch
    /// crash points. Zero for anything that is not a WAL write.
    pub frames: usize,
}

/// Deterministic fault plan for a [`SimFs`]. All fields compose; the
/// default plan injects nothing.
#[derive(Debug, Clone, Default)]
pub struct SimFaultPlan {
    /// Crash when the Nth (0-based) mutating operation is attempted: the
    /// operation fails with [`SIM_CRASH_MSG`], volatile state is dropped,
    /// and every later operation fails too.
    pub crash_at_op: Option<u64>,
    /// When the crashing operation is a write, persist this many bytes of
    /// its payload (after the file's already-buffered tail) — a torn final
    /// write. Ignored for non-write crash points.
    pub torn_write_keep: Option<usize>,
    /// Silently drop `sync_data` on paths whose string form contains this
    /// substring: the call reports success but nothing becomes durable (a
    /// lying disk).
    pub drop_sync_on: Option<String>,
    /// After recovery, XOR the byte at `(offset % len)` of the first
    /// durable file whose path contains the substring (bit-rot injection).
    pub bit_flip: Option<(String, usize)>,
}

/// Error text used for injected crashes; [`SimFs::crashed`] is the
/// programmatic signal.
pub const SIM_CRASH_MSG: &str = "simulated crash";

#[derive(Debug, Clone, Default)]
struct SimFileState {
    /// Bytes guaranteed to survive a crash. Shared so a read can take the
    /// image under the disk lock and copy it after releasing the lock; a
    /// sync that lands meanwhile copies on write.
    durable: Arc<Vec<u8>>,
    /// Bytes written but not yet fsynced: visible to reads, lost on crash.
    volatile: Vec<u8>,
}

impl SimFileState {
    fn visible(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.durable.len() + self.volatile.len());
        v.extend_from_slice(&self.durable);
        v.extend_from_slice(&self.volatile);
        v
    }

    /// Move the volatile tail (and `extra` bytes after it) to durable.
    fn persist(&mut self, extra: &[u8]) {
        if self.volatile.is_empty() && extra.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.volatile);
        let durable = Arc::make_mut(&mut self.durable);
        durable.extend_from_slice(&tail);
        durable.extend_from_slice(extra);
    }
}

#[derive(Default)]
struct SimState {
    files: BTreeMap<PathBuf, SimFileState>,
    dirs: BTreeSet<PathBuf>,
    plan: SimFaultPlan,
    ops: u64,
    /// `Some` only on a [`SimFs::recording`] disk: a store that writes for
    /// as long as it lives must not grow a record per write.
    op_log: Option<Vec<IoOpRecord>>,
    crashed: bool,
}

/// Deterministic in-memory file system. Cloning shares state (it is the
/// same disk).
#[derive(Clone)]
pub struct SimFs {
    state: Arc<OrderedMutex<SimState>>,
}

impl Default for SimFs {
    fn default() -> Self {
        SimFs {
            state: Arc::new(OrderedMutex::new(rank::SIM_FS, SimState::default())),
        }
    }
}

impl std::fmt::Debug for SimFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("SimFs")
            .field("files", &s.files.len())
            .field("ops", &s.ops)
            .field("crashed", &s.crashed)
            .finish()
    }
}

impl SimFs {
    pub fn new() -> Self {
        Self::default()
    }

    /// A disk that also keeps the op log ([`SimFs::op_log`]), for
    /// harnesses that enumerate a workload's crash points.
    pub fn recording() -> Self {
        let fs = Self::default();
        fs.state.lock().op_log = Some(Vec::new());
        fs
    }

    pub fn with_plan(plan: SimFaultPlan) -> Self {
        let fs = Self::default();
        fs.state.lock().plan = plan;
        fs
    }

    /// Install a new fault plan (op counter keeps running).
    pub fn set_plan(&self, plan: SimFaultPlan) {
        self.state.lock().plan = plan;
    }

    /// Whether an injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Copy of the mutating-op log, in execution order. Empty unless the
    /// disk was made by [`SimFs::recording`].
    pub fn op_log(&self) -> Vec<IoOpRecord> {
        self.state.lock().op_log.clone().unwrap_or_default()
    }

    /// The disk as a machine rebooted after a crash (or clean shutdown)
    /// would see it: durable content only, volatile bytes gone, op counter
    /// reset, no fault plan. Applies the plan's `bit_flip`, if any, to the
    /// recovered image.
    pub fn recover(&self) -> SimFs {
        // Copy the image out and release the crashed disk's lock before
        // the recovered one is built: the two share a rank, so nesting
        // them would be a same-rank re-acquisition.
        let (mut files, dirs, bit_flip) = {
            let s = self.state.lock();
            let files: BTreeMap<PathBuf, SimFileState> = s
                .files
                .iter()
                .map(|(p, f)| {
                    (
                        p.clone(),
                        SimFileState {
                            durable: Arc::clone(&f.durable),
                            volatile: Vec::new(),
                        },
                    )
                })
                .collect();
            (files, s.dirs.clone(), s.plan.bit_flip.clone())
        };
        if let Some((needle, offset)) = &bit_flip {
            for (path, f) in files.iter_mut() {
                if path.to_string_lossy().contains(needle.as_str()) && !f.durable.is_empty() {
                    let at = offset % f.durable.len();
                    Arc::make_mut(&mut f.durable)[at] ^= 0x40;
                    break;
                }
            }
        }
        SimFs {
            state: Arc::new(OrderedMutex::new(
                rank::SIM_FS,
                SimState {
                    files,
                    dirs,
                    ..SimState::default()
                },
            )),
        }
    }

    /// Durable bytes of `path` (what a crash would leave), for assertions.
    pub fn durable_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.state
            .lock()
            .files
            .get(path)
            .map(|f| f.durable.to_vec())
    }

    fn err_crashed() -> io::Error {
        io::Error::other(SIM_CRASH_MSG)
    }

    /// Count one mutating op; returns Err if this op is the crash point or
    /// the fs already crashed. `payload` is the bytes of a write (used for
    /// torn-write persistence).
    fn gate(s: &mut SimState, op: IoOp, path: &Path, payload: Option<&[u8]>) -> io::Result<()> {
        if s.crashed {
            return Err(Self::err_crashed());
        }
        if s.plan.crash_at_op == Some(s.ops) {
            // Crash *during* this operation. For a torn write, the target
            // file's OS-buffered tail plus a prefix of the in-flight
            // payload reach the platter; everything else volatile is lost.
            let keep = s.plan.torn_write_keep.unwrap_or(0);
            if let (Some(buf), true) = (payload, keep > 0) {
                if let Some(f) = s.files.get_mut(path) {
                    f.persist(&buf[..keep.min(buf.len())]);
                }
            }
            for f in s.files.values_mut() {
                f.volatile.clear();
            }
            s.crashed = true;
            return Err(Self::err_crashed());
        }
        s.ops += 1;
        if let Some(log) = &mut s.op_log {
            log.push(IoOpRecord {
                op,
                path: path.to_path_buf(),
                bytes: payload.map(<[u8]>::len).unwrap_or(0),
                frames: payload.map(crate::wal::frames_in).unwrap_or(0),
            });
        }
        Ok(())
    }
}

/// Write handle into a [`SimFs`] file.
struct SimFile {
    fs: SimFs,
    path: PathBuf,
}

impl Write for SimFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.fs.state.lock();
        SimFs::gate(&mut s, IoOp::Write, &self.path, Some(buf))?;
        let f = s
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        f.volatile.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Application-buffer flush: SimFile writes straight into the
        // simulated page cache, so there is nothing to move.
        if self.fs.state.lock().crashed {
            return Err(SimFs::err_crashed());
        }
        Ok(())
    }
}

impl FsFile for SimFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let mut s = self.fs.state.lock();
        SimFs::gate(&mut s, IoOp::Sync, &self.path, None)?;
        let dropped = s
            .plan
            .drop_sync_on
            .as_ref()
            .is_some_and(|needle| self.path.to_string_lossy().contains(needle.as_str()));
        if !dropped {
            if let Some(f) = s.files.get_mut(&self.path) {
                f.persist(&[]);
            }
        }
        Ok(())
    }
}

impl FileSystem for SimFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.crashed {
            return Err(Self::err_crashed());
        }
        // Directory creation is modelled as free and durable: it never
        // advances the crash clock (real systems fsync the parent dir; we
        // document the simplification instead of simulating it).
        let mut p = path.to_path_buf();
        loop {
            s.dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let mut s = self.state.lock();
        if s.crashed {
            return Err(Self::err_crashed());
        }
        if !s.files.contains_key(path) {
            SimFs::gate(&mut s, IoOp::Create, path, None)?;
            s.files.insert(path.to_path_buf(), SimFileState::default());
        }
        Ok(Box::new(SimFile {
            fs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let mut s = self.state.lock();
        SimFs::gate(&mut s, IoOp::Create, path, None)?;
        s.files.insert(path.to_path_buf(), SimFileState::default());
        Ok(Box::new(SimFile {
            fs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Only the volatile tail is copied under the disk lock; a synced
        // file (every blob) is copied after it is released.
        let image = {
            let s = self.state.lock();
            if s.crashed {
                return Err(Self::err_crashed());
            }
            let f = s
                .files
                .get(path)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")))?;
            SimFileState {
                durable: Arc::clone(&f.durable),
                volatile: f.volatile.clone(),
            }
        };
        Ok(image.visible())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        SimFs::gate(&mut s, IoOp::Rename, to, None)?;
        let f = s
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{from:?}")))?;
        s.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        SimFs::gate(&mut s, IoOp::Remove, path, None)?;
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")))
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock();
        !s.crashed && (s.files.contains_key(path) || s.dirs.contains(path))
    }

    fn is_dir(&self, path: &Path) -> bool {
        let s = self.state.lock();
        !s.crashed && s.dirs.contains(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let s = self.state.lock();
        if s.crashed {
            return Err(Self::err_crashed());
        }
        s.files
            .get(path)
            .map(|f| (f.durable.len() + f.volatile.len()) as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.state.lock();
        SimFs::gate(&mut s, IoOp::Truncate, path, None)?;
        let f = s
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")))?;
        let len = len as usize;
        // Truncation applies to the visible image and is made durable (the
        // WAL recovery path fsyncs after truncating).
        let mut v = f.visible();
        v.truncate(len);
        f.durable = Arc::new(v);
        f.volatile.clear();
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock();
        if s.crashed {
            return Err(Self::err_crashed());
        }
        if !s.dirs.contains(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")));
        }
        let mut out = BTreeSet::new();
        for candidate in s.files.keys().chain(s.dirs.iter()) {
            if let Some(parent) = candidate.parent() {
                if parent == path {
                    out.insert(candidate.clone());
                }
            }
        }
        Ok(out.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_read_roundtrip_and_visibility() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/a/x")).unwrap();
        f.write_all(b"hello").unwrap();
        // Visible before sync, but not durable.
        assert_eq!(fs.read(&p("/a/x")).unwrap(), b"hello");
        assert_eq!(fs.durable_bytes(&p("/a/x")).unwrap(), b"");
        f.sync_data().unwrap();
        assert_eq!(fs.durable_bytes(&p("/a/x")).unwrap(), b"hello");
    }

    #[test]
    fn recover_drops_unsynced_bytes() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/x")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all(b" volatile").unwrap();
        let after = fs.recover();
        assert_eq!(after.read(&p("/x")).unwrap(), b"durable");
    }

    #[test]
    fn crash_at_op_fails_everything_after() {
        let plan = SimFaultPlan {
            crash_at_op: Some(2),
            ..Default::default()
        };
        let fs = SimFs::with_plan(plan);
        let mut f = fs.create(&p("/x")).unwrap(); // op 0
        f.write_all(b"a").unwrap(); // op 1
        assert!(f.write_all(b"b").is_err()); // op 2: crash
        assert!(fs.crashed());
        assert!(fs.read(&p("/x")).is_err());
        assert!(fs.create(&p("/y")).is_err());
    }

    #[test]
    fn torn_write_persists_prefix() {
        let plan = SimFaultPlan {
            crash_at_op: Some(3),
            torn_write_keep: Some(2),
            ..Default::default()
        };
        let fs = SimFs::with_plan(plan);
        let mut f = fs.create(&p("/x")).unwrap(); // 0
        f.write_all(b"abc").unwrap(); // 1
        f.sync_data().unwrap(); // 2
        assert!(f.write_all(b"defgh").is_err()); // 3: torn
        let after = fs.recover();
        assert_eq!(after.read(&p("/x")).unwrap(), b"abcde");
    }

    #[test]
    fn dropped_sync_loses_data_on_crash() {
        let plan = SimFaultPlan {
            drop_sync_on: Some("wal".into()),
            ..Default::default()
        };
        let fs = SimFs::with_plan(plan);
        let mut f = fs.create(&p("/db/wal.log")).unwrap();
        f.write_all(b"entry").unwrap();
        f.sync_data().unwrap(); // silently dropped
        assert_eq!(fs.read(&p("/db/wal.log")).unwrap(), b"entry"); // still visible
        let after = fs.recover();
        assert_eq!(after.read(&p("/db/wal.log")).unwrap(), b""); // gone
    }

    #[test]
    fn bit_flip_corrupts_recovered_image() {
        let plan = SimFaultPlan {
            bit_flip: Some(("blob".into(), 1)),
            ..Default::default()
        };
        let fs = SimFs::with_plan(plan);
        let mut f = fs.create(&p("/blobs/aa.blob")).unwrap();
        f.write_all(b"ABCD").unwrap();
        f.sync_data().unwrap();
        let after = fs.recover();
        assert_eq!(after.read(&p("/blobs/aa.blob")).unwrap(), b"A\x02CD");
    }

    #[test]
    fn rename_is_atomic_and_durable() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/t.tmp")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_data().unwrap();
        fs.rename(&p("/t.tmp"), &p("/t.final")).unwrap();
        let after = fs.recover();
        assert!(!after.exists(&p("/t.tmp")));
        assert_eq!(after.read(&p("/t.final")).unwrap(), b"x");
    }

    #[test]
    fn op_log_records_mutations() {
        let fs = SimFs::recording();
        let mut f = fs.create(&p("/x")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        fs.rename(&p("/x"), &p("/y")).unwrap();
        fs.remove_file(&p("/y")).unwrap();
        let kinds: Vec<IoOp> = fs.op_log().iter().map(|r| r.op).collect();
        assert_eq!(
            kinds,
            vec![
                IoOp::Create,
                IoOp::Write,
                IoOp::Sync,
                IoOp::Rename,
                IoOp::Remove
            ]
        );
        assert_eq!(fs.op_log()[1].bytes, 3);
    }

    #[test]
    fn plain_disk_counts_ops_without_logging_them() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/x")).unwrap();
        for _ in 0..1_000 {
            f.write_all(b"abc").unwrap();
        }
        assert_eq!(fs.ops(), 1_001);
        assert!(fs.op_log().is_empty());
    }

    #[test]
    fn list_dir_sees_children() {
        let fs = SimFs::new();
        fs.create_dir_all(&p("/root/aa")).unwrap();
        fs.create(&p("/root/aa/x.blob")).unwrap();
        fs.create(&p("/root/aa/y.blob")).unwrap();
        let entries = fs.list_dir(&p("/root/aa")).unwrap();
        assert_eq!(entries.len(), 2);
        let shards = fs.list_dir(&p("/root")).unwrap();
        assert_eq!(shards, vec![p("/root/aa")]);
        assert!(fs.is_dir(&p("/root/aa")));
    }

    #[test]
    fn truncate_cuts_visible_and_durable() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/w")).unwrap();
        f.write_all(b"keepdrop").unwrap();
        f.sync_data().unwrap();
        fs.truncate(&p("/w"), 4).unwrap();
        assert_eq!(fs.read(&p("/w")).unwrap(), b"keep");
        assert_eq!(fs.recover().read(&p("/w")).unwrap(), b"keep");
    }
}
