//! Write-ahead log for the metadata store.
//!
//! The paper's metadata lives in an HA MySQL deployment; our embedded
//! stand-in gains durability through a simple append-only log. Each entry
//! is a CRC-framed JSON line; replay stops cleanly at a torn tail (the
//! standard WAL contract) but reports corruption in the middle of the log.
//!
//! All file IO goes through the [`FileSystem`] abstraction so the
//! crash-consistency harness ([`crate::testkit`]) can run the WAL over a
//! simulated disk ([`crate::simfs::SimFs`]) and crash it at every IO
//! operation. Production paths use [`real_fs`] and perform the same
//! syscalls as before.

use crate::blob::checksum::crc32;
use crate::error::{Result, StoreError};
use crate::record::{EncodeBuf, Record};
use crate::schema::TableSchema;
use crate::simfs::{real_fs, FileSystem, FsFile};
use gallery_sync::locks::{OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use gallery_sync::{io_section, rank};
use gallery_telemetry::{kinds, Counter, EventSink, Gauge, Histogram, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One logical operation recorded in the WAL.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalOp {
    CreateTable {
        schema: TableSchema,
    },
    Insert {
        table: String,
        /// Shared with the table's row storage: the oplog keeps an `Arc`
        /// clone of the same allocation instead of a deep copy, halving
        /// the write path's memory traffic. Flag writes copy-on-write
        /// (`Arc::make_mut`) so logged history is never mutated.
        record: Arc<Record>,
    },
    SetFlag {
        table: String,
        pk: String,
        column: String,
        value: bool,
    },
}

/// When to fsync the log file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append (durable, slow).
    Always,
    /// Let the OS flush (fast, loses the tail on crash).
    Never,
}

/// Telemetry handles for one WAL instance (absent until
/// [`Wal::with_telemetry`] attaches them).
struct WalTelemetry {
    appends: Arc<Counter>,
    flushes: Arc<Counter>,
    append_ms: Arc<Histogram>,
    group_commit_batches: Arc<Counter>,
    group_commit_ops: Arc<Counter>,
    group_commit_batch_size: Arc<Histogram>,
    events: Arc<EventSink>,
}

/// Append-only write-ahead log.
pub struct Wal {
    path: PathBuf,
    writer: Box<dyn FsFile>,
    sync: SyncPolicy,
    entries_written: u64,
    telemetry: Option<WalTelemetry>,
    /// Reused across batches: framed lines accumulate here so one batch is
    /// one `write` syscall and (at most) one fsync.
    encode_buf: EncodeBuf,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("entries_written", &self.entries_written)
            .finish()
    }
}

/// What [`Wal::replay_report`] found at the end of the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the end of the last intact entry: truncating the log
    /// to this length removes the crash artifact.
    pub valid_len: u64,
    /// Garbage bytes after `valid_len`.
    pub dropped_bytes: u64,
}

/// Outcome of replaying a log file: the intact operations plus, when the
/// final record was torn by a crash, where the tear begins.
#[derive(Debug, Default)]
pub struct ReplayReport {
    pub ops: Vec<WalOp>,
    pub torn_tail: Option<TornTail>,
}

impl Wal {
    /// Open (creating if necessary) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self> {
        Self::open_with_fs(real_fs(), path, sync)
    }

    /// [`Wal::open`] over an explicit file system.
    pub fn open_with_fs(
        fs: Arc<dyn FileSystem>,
        path: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            fs.create_dir_all(parent)?;
        }
        let writer = fs.open_append(&path)?;
        Ok(Wal {
            path,
            writer,
            sync,
            entries_written: 0,
            telemetry: None,
            encode_buf: EncodeBuf::new(),
        })
    }

    /// Create a fresh log at `path`, truncating anything already there
    /// (used when writing a compacted log to a temporary file).
    pub fn create(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self> {
        Self::create_with_fs(real_fs(), path, sync)
    }

    /// [`Wal::create`] over an explicit file system.
    pub fn create_with_fs(
        fs: Arc<dyn FileSystem>,
        path: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            fs.create_dir_all(parent)?;
        }
        let writer = fs.create(&path)?;
        Ok(Wal {
            path,
            writer,
            sync,
            entries_written: 0,
            telemetry: None,
            encode_buf: EncodeBuf::new(),
        })
    }

    /// Count appends/flushes and time appends against `telemetry`
    /// (`gallery_wal_*`), and report explicit flushes as `wal.flush`
    /// events.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// In-place variant of [`Wal::with_telemetry`] (used when the WAL is
    /// already mounted inside a store's committer).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let r = telemetry.registry();
        self.telemetry = Some(WalTelemetry {
            appends: r.counter("gallery_wal_appends_total", &[]),
            flushes: r.counter("gallery_wal_flushes_total", &[]),
            append_ms: r.duration_histogram("gallery_wal_append_duration_ms", &[]),
            group_commit_batches: r.counter("gallery_wal_group_commit_batches_total", &[]),
            group_commit_ops: r.counter("gallery_wal_group_commit_ops_total", &[]),
            group_commit_batch_size: r.histogram(
                "gallery_wal_group_commit_batch_size",
                &[],
                vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
            ),
            events: Arc::clone(telemetry.events()),
        });
    }

    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// Flush and fsync everything written so far.
    pub fn sync_all(&mut self) -> Result<()> {
        self.writer.flush()?;
        io_section("wal.sync_all", || self.writer.sync_data())?;
        if let Some(t) = &self.telemetry {
            t.flushes.inc();
            t.events.emit(
                kinds::WAL_FLUSH,
                vec![
                    ("entries", self.entries_written.to_string()),
                    ("reason", "sync_all".to_string()),
                ],
            );
        }
        Ok(())
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn entries_written(&self) -> u64 {
        self.entries_written
    }

    /// Append one operation. The entry is flushed to the OS; whether it is
    /// fsynced depends on the [`SyncPolicy`].
    pub fn append(&mut self, op: &WalOp) -> Result<()> {
        self.append_batch(&[op])
    }

    /// Append a whole commit batch: every entry is framed into one reused
    /// buffer, handed to the file in a *single* buffered write, and made
    /// durable with (at most) a *single* fsync. This is the group-commit
    /// primitive — N coalesced commits cost one write + one sync instead
    /// of N of each. The batch buffer is one write syscall, so a crash can
    /// tear it mid-batch; replay then recovers a clean prefix of the batch
    /// (entries are self-framed lines) and none of them were acked.
    pub fn append_batch(&mut self, ops: &[&WalOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        self.encode_buf.reset();
        for op in ops {
            let json = serde_json::to_string(op)
                .map_err(|e| StoreError::Io(format!("wal encode: {e}")))?;
            let crc = crc32(json.as_bytes());
            let line = self.encode_buf.buf_mut();
            let _ = writeln!(line, "{crc:08x} {json}");
        }
        self.writer.write_all(self.encode_buf.as_bytes())?;
        self.writer.flush()?;
        if self.sync == SyncPolicy::Always {
            io_section("wal.append_batch", || self.writer.sync_data())?;
        }
        self.entries_written += ops.len() as u64;
        if let Some(t) = &self.telemetry {
            t.appends.add(ops.len() as u64);
            if self.sync == SyncPolicy::Always {
                t.flushes.inc();
            }
            t.group_commit_batches.inc();
            t.group_commit_ops.add(ops.len() as u64);
            t.group_commit_batch_size.observe(ops.len() as f64);
            t.append_ms.observe_since(start);
        }
        Ok(())
    }

    /// Replay all intact entries from a log file. A torn final line is
    /// tolerated (it is the expected crash artifact); a CRC mismatch on a
    /// non-final line is reported as corruption.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalOp>> {
        Ok(Self::replay_report(&*real_fs(), path)?.ops)
    }

    /// [`Wal::replay`] over an explicit file system.
    pub fn replay_with_fs(fs: &dyn FileSystem, path: impl AsRef<Path>) -> Result<Vec<WalOp>> {
        Ok(Self::replay_report(fs, path)?.ops)
    }

    /// Replay, additionally reporting whether (and where) the final record
    /// was torn. Does not modify the log.
    pub fn replay_report(fs: &dyn FileSystem, path: impl AsRef<Path>) -> Result<ReplayReport> {
        let path = path.as_ref();
        if !fs.exists(path) {
            return Ok(ReplayReport::default());
        }
        let data = fs.read(path)?;
        Self::replay_bytes(&data)
    }

    /// Replay and *heal*: when the log ends in a torn record, truncate the
    /// tail so the artifact cannot confuse later readers, count it as
    /// `gallery_wal_torn_tail_truncated_total`, and emit a structured
    /// [`kinds::WAL_TORN_TAIL`] event. This is the recovery entry point
    /// used by [`crate::meta::MetadataStore::durable`].
    pub fn recover(
        fs: &dyn FileSystem,
        path: impl AsRef<Path>,
        telemetry: &Telemetry,
    ) -> Result<Vec<WalOp>> {
        let path = path.as_ref();
        let report = Self::replay_report(fs, path)?;
        if let Some(torn) = &report.torn_tail {
            fs.truncate(path, torn.valid_len)?;
            telemetry
                .registry()
                .counter("gallery_wal_torn_tail_truncated_total", &[])
                .inc();
            telemetry.events().emit(
                kinds::WAL_TORN_TAIL,
                vec![
                    ("path", path.display().to_string()),
                    ("valid_len", torn.valid_len.to_string()),
                    ("dropped_bytes", torn.dropped_bytes.to_string()),
                ],
            );
        }
        Ok(report.ops)
    }

    fn replay_bytes(data: &[u8]) -> Result<ReplayReport> {
        let mut ops = Vec::new();
        let mut offset = 0usize;
        let mut line_no = 0usize;
        let mut torn = false;
        while offset < data.len() {
            let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
                // Trailing bytes without a newline: the classic torn tail.
                torn = true;
                break;
            };
            line_no += 1;
            let line = &data[offset..offset + nl];
            let parsed = std::str::from_utf8(line)
                .map_err(|e| format!("invalid utf-8: {e}"))
                .and_then(Self::parse_entry);
            match parsed {
                Ok(op) => {
                    ops.push(op);
                    offset += nl + 1;
                }
                Err(e) => {
                    // A complete-but-bad line: torn tail if nothing but
                    // whitespace follows, mid-log corruption otherwise.
                    let rest = &data[offset + nl + 1..];
                    if rest.iter().all(u8::is_ascii_whitespace) {
                        torn = true;
                        break;
                    }
                    return Err(StoreError::WalCorrupt(format!("line {line_no}: {e}")));
                }
            }
        }
        let torn_tail = torn.then(|| TornTail {
            valid_len: offset as u64,
            dropped_bytes: (data.len() - offset) as u64,
        });
        Ok(ReplayReport { ops, torn_tail })
    }

    fn parse_entry(line: &str) -> std::result::Result<WalOp, String> {
        let (crc_hex, json) = line
            .split_once(' ')
            .ok_or_else(|| "missing crc frame".to_string())?;
        let expected =
            u32::from_str_radix(crc_hex, 16).map_err(|e| format!("bad crc field: {e}"))?;
        let actual = crc32(json.as_bytes());
        if expected != actual {
            return Err(format!(
                "crc mismatch: expected {expected:08x}, got {actual:08x}"
            ));
        }
        serde_json::from_str(json).map_err(|e| format!("bad json: {e}"))
    }
}

/// The oplog's shared handle: every holder locks it at [`rank::OPLOG`],
/// the innermost rank of the write path.
pub type SharedOplog = Arc<OrderedMutex<Oplog>>;

/// Fresh, empty, correctly ranked oplog handle.
pub fn new_shared_oplog() -> SharedOplog {
    Arc::new(OrderedMutex::new(rank::OPLOG, Oplog::new()))
}

/// In-memory operation log shared between the committer (producer) and the
/// store/shipping layers (readers). Position `i` holds the op with sequence
/// number `i + 1`; sequence order always equals WAL order.
pub type Oplog = Vec<Arc<WalOp>>;

/// Largest number of operations flushed in one WAL write + fsync. A
/// leader flushes whatever is queued the moment it takes over, up to this
/// many — concurrency alone provides the batching.
const MAX_BATCH: usize = 256;

/// Pending commits plus the results the leader publishes back to waiters.
/// All of it lives behind one mutex paired with one condvar: waiters block
/// on the condvar and each wake re-checks (a) "are my tickets done?" and
/// (b) "should I become the leader?" — so leadership always lands on some
/// live waiter and a finished leader can hand off without a dedicated
/// wake-the-next-leader dance.
struct CommitQueue {
    pending: Vec<(u64, Arc<WalOp>)>,
    results: HashMap<u64, std::result::Result<u64, String>>,
    next_ticket: u64,
    flushing: bool,
}

/// Group-commit front end for a durable store: concurrent committers
/// enqueue operations, one of them becomes the batch leader, and the whole
/// batch hits the WAL as a single buffered write + single fsync
/// ([`Wal::append_batch`]). After the WAL write the leader appends the
/// batch to the shared [`Oplog`] in batch order, which assigns each op its
/// sequence number — so oplog order, sequence order, and WAL order are the
/// same by construction.
///
/// Error fan-out: a failed batch write fails every commit in the batch
/// (the WAL file position is undefined after a mid-batch IO error, exactly
/// like a failed single append before group commit existed).
pub(crate) struct Committer {
    wal: OrderedMutex<Wal>,
    queue: OrderedMutex<CommitQueue>,
    cv: OrderedCondvar,
    oplog: SharedOplog,
    telemetry: OrderedMutex<Option<CommitterTelemetry>>,
}

/// Telemetry handles for the group-commit queue itself (absent until
/// [`Committer::set_telemetry`] attaches them): queue depth, who led vs.
/// followed each flush, how full batches ran relative to [`MAX_BATCH`], and
/// the time to make a batch durable (`gallery_wal_commit_queue_*`).
struct CommitterTelemetry {
    queue_depth: Arc<Gauge>,
    leaders: Arc<Counter>,
    followers: Arc<Counter>,
    batch_occupancy: Arc<Histogram>,
    fsync_ms: Arc<Histogram>,
}

impl std::fmt::Debug for Committer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Committer").finish_non_exhaustive()
    }
}

impl Committer {
    pub(crate) fn new(wal: Wal, oplog: SharedOplog) -> Self {
        Committer {
            wal: OrderedMutex::new(rank::WAL, wal),
            queue: OrderedMutex::new(
                rank::COMMIT_QUEUE,
                CommitQueue {
                    pending: Vec::new(),
                    results: HashMap::new(),
                    next_ticket: 0,
                    flushing: false,
                },
            ),
            cv: OrderedCondvar::new(),
            oplog,
            telemetry: OrderedMutex::new(rank::COMMITTER_STATS, None),
        }
    }

    /// Attach (or replace) commit-queue telemetry
    /// (`gallery_wal_commit_queue_*`). Single-series families: the queue
    /// is one per store, so label cardinality is constant.
    pub(crate) fn set_telemetry(&self, telemetry: &Telemetry) {
        let r = telemetry.registry();
        *self.telemetry.lock() = Some(CommitterTelemetry {
            queue_depth: r.gauge("gallery_wal_commit_queue_depth", &[]),
            leaders: r.counter("gallery_wal_commit_queue_leader_total", &[]),
            followers: r.counter("gallery_wal_commit_queue_follower_total", &[]),
            batch_occupancy: r.histogram(
                "gallery_wal_commit_queue_batch_occupancy",
                &[],
                vec![0.0625, 0.125, 0.25, 0.5, 0.75, 1.0],
            ),
            fsync_ms: r.duration_histogram("gallery_wal_commit_queue_fsync_ms", &[]),
        });
    }

    /// The WAL behind this committer. Callers locking it must not hold the
    /// commit queue lock (compaction quiesces commits via the store gate
    /// instead).
    pub(crate) fn wal(&self) -> &OrderedMutex<Wal> {
        &self.wal
    }

    /// Durably commit one operation; returns its sequence number.
    pub(crate) fn commit(&self, op: WalOp) -> Result<u64> {
        let seqs = self.commit_many(vec![op])?;
        Ok(seqs[0])
    }

    /// Durably commit several operations as one unit of enqueueing: they
    /// enter the queue atomically (preserving their relative order) and
    /// normally flush in a single batch, though [`MAX_BATCH`] may split
    /// them. Returns each op's sequence number, in input order.
    pub(crate) fn commit_many(&self, ops: Vec<WalOp>) -> Result<Vec<u64>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let mut q = self.queue.lock();
        let tickets: Vec<u64> = ops
            .into_iter()
            .map(|op| {
                let t = q.next_ticket;
                q.next_ticket += 1;
                q.pending.push((t, Arc::new(op)));
                t
            })
            .collect();
        if let Some(t) = &*self.telemetry.lock() {
            t.queue_depth.set(q.pending.len() as i64);
        }
        // Whether this call ever blocked behind another leader's flush —
        // counted once per commit, not once per condvar wakeup.
        let mut was_follower = false;
        loop {
            if tickets.iter().all(|t| q.results.contains_key(t)) {
                let mut seqs = Vec::with_capacity(tickets.len());
                let mut first_err = None;
                for t in &tickets {
                    match q.results.remove(t) {
                        Some(Ok(seq)) => seqs.push(seq),
                        Some(Err(msg)) => {
                            if first_err.is_none() {
                                first_err = Some(msg);
                            }
                        }
                        None => unreachable!("ticket result vanished"),
                    }
                }
                return match first_err {
                    Some(msg) => Err(StoreError::Io(msg)),
                    None => Ok(seqs),
                };
            }
            if !q.flushing && !q.pending.is_empty() {
                q.flushing = true;
                if let Some(t) = &*self.telemetry.lock() {
                    t.leaders.inc();
                }
                q = self.lead_flush(q);
                self.cv.notify_all();
                continue;
            }
            if !was_follower {
                was_follower = true;
                if let Some(t) = &*self.telemetry.lock() {
                    t.followers.inc();
                }
            }
            q = self.cv.wait(q);
        }
    }

    /// Leader path: drain up to [`MAX_BATCH`] ops, flush them outside the
    /// queue lock, publish results. Called with `flushing` already set;
    /// returns with it cleared and the queue re-locked.
    fn lead_flush<'a>(
        &'a self,
        mut q: OrderedMutexGuard<'a, CommitQueue>,
    ) -> OrderedMutexGuard<'a, CommitQueue> {
        let take = q.pending.len().min(MAX_BATCH);
        let batch: Vec<(u64, Arc<WalOp>)> = q.pending.drain(..take).collect();
        if let Some(t) = &*self.telemetry.lock() {
            t.queue_depth.set(q.pending.len() as i64);
            t.batch_occupancy.observe(take as f64 / MAX_BATCH as f64);
        }
        drop(q);

        let flush_started = Instant::now();
        let flush_res = self.flush_batch(&batch);
        if let Some(t) = &*self.telemetry.lock() {
            t.fsync_ms.observe_since(flush_started);
        }

        let mut q = self.queue.lock();
        match flush_res {
            Ok(first_seq) => {
                for (i, (t, _)) in batch.iter().enumerate() {
                    q.results.insert(*t, Ok(first_seq + i as u64));
                }
            }
            Err(msg) => {
                for (t, _) in &batch {
                    q.results.insert(*t, Err(msg.clone()));
                }
            }
        }
        q.flushing = false;
        q
    }

    /// One WAL write + one fsync for the whole batch, then append to the
    /// oplog in batch order. Returns the sequence number of the first op.
    fn flush_batch(&self, batch: &[(u64, Arc<WalOp>)]) -> std::result::Result<u64, String> {
        {
            let mut wal = self.wal.lock();
            let refs: Vec<&WalOp> = batch.iter().map(|(_, op)| op.as_ref()).collect();
            wal.append_batch(&refs).map_err(|e| e.to_string())?;
        }
        let mut oplog = self.oplog.lock();
        let first_seq = oplog.len() as u64 + 1;
        oplog.extend(batch.iter().map(|(_, op)| Arc::clone(op)));
        Ok(first_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::simfs::SimFs;
    use crate::value::ValueType;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gallery-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<WalOp> {
        let schema =
            TableSchema::new("t", "id", vec![ColumnDef::new("id", ValueType::Str)]).unwrap();
        vec![
            WalOp::CreateTable { schema },
            WalOp::Insert {
                table: "t".into(),
                record: Arc::new(Record::new().set("id", "x")),
            },
            WalOp::SetFlag {
                table: "t".into(),
                pk: "x".into(),
                column: "deprecated".into(),
                value: true,
            },
        ]
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            for op in sample_ops() {
                wal.append(&op).unwrap();
            }
            assert_eq!(wal.entries_written(), 3);
        }
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], WalOp::CreateTable { .. }));
        assert!(
            matches!(ops[2], WalOp::SetFlag { ref column, value: true, .. } if column == "deprecated")
        );
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tmpdir("missing");
        let ops = Wal::replay(dir.join("nope.log")).unwrap();
        assert!(ops.is_empty());
    }

    #[test]
    fn torn_tail_tolerated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            for op in sample_ops() {
                wal.append(&op).unwrap();
            }
        }
        // Simulate a crash mid-append: garbage partial line at the end.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "deadbeef {{\"Ins").unwrap();
        }
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn recover_truncates_torn_tail_and_counts_it() {
        let dir = tmpdir("heal");
        let path = dir.join("wal.log");
        let clean_len;
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            for op in sample_ops() {
                wal.append(&op).unwrap();
            }
            wal.sync_all().unwrap();
            clean_len = std::fs::metadata(&path).unwrap().len();
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "deadbeef {{\"Ins").unwrap();
        }
        let telemetry = Telemetry::new();
        let ops = Wal::recover(&*real_fs(), &path, &telemetry).unwrap();
        assert_eq!(ops.len(), 3);
        // The tail is physically gone and the healing was observable.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(
            telemetry
                .registry()
                .counter("gallery_wal_torn_tail_truncated_total", &[])
                .get(),
            1
        );
        let events = telemetry.events().of_kind(kinds::WAL_TORN_TAIL);
        assert_eq!(events.len(), 1);
        // Healing is idempotent: a second recovery sees a clean log.
        let telemetry2 = Telemetry::new();
        assert_eq!(
            Wal::recover(&*real_fs(), &path, &telemetry2).unwrap().len(),
            3
        );
        assert_eq!(
            telemetry2
                .registry()
                .counter("gallery_wal_torn_tail_truncated_total", &[])
                .get(),
            0
        );
    }

    #[test]
    fn mid_log_corruption_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            for op in sample_ops() {
                wal.append(&op).unwrap();
            }
        }
        // Flip a byte in the first line's JSON payload.
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(String::from).collect();
        lines[0] = lines[0].replace("CreateTable", "CreateTabl3");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = Wal::replay(&path);
        assert!(matches!(err, Err(StoreError::WalCorrupt(_))));
    }

    #[test]
    fn append_after_reopen_preserves_existing() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(&sample_ops()[0]).unwrap();
        }
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(&sample_ops()[1]).unwrap();
        }
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
    }

    #[test]
    fn wal_over_simfs_loses_unsynced_tail_on_crash() {
        let fs = SimFs::new();
        let path = PathBuf::from("/db/wal.log");
        {
            let mut wal =
                Wal::open_with_fs(Arc::new(fs.clone()), &path, SyncPolicy::Never).unwrap();
            wal.append(&sample_ops()[0]).unwrap();
            wal.sync_all().unwrap();
            wal.append(&sample_ops()[1]).unwrap(); // never synced
        }
        let after = fs.recover();
        let ops = Wal::replay_with_fs(&after, &path).unwrap();
        assert_eq!(ops.len(), 1, "unsynced append must not survive the crash");
        // With SyncPolicy::Always both entries survive.
        let fs2 = SimFs::new();
        {
            let mut wal =
                Wal::open_with_fs(Arc::new(fs2.clone()), &path, SyncPolicy::Always).unwrap();
            wal.append(&sample_ops()[0]).unwrap();
            wal.append(&sample_ops()[1]).unwrap();
        }
        let ops = Wal::replay_with_fs(&fs2.recover(), &path).unwrap();
        assert_eq!(ops.len(), 2);
    }

    fn test_committer(dir: &Path) -> (Committer, Arc<Telemetry>) {
        let telemetry = Telemetry::new();
        let wal = Wal::open(dir.join("wal.log"), SyncPolicy::Always)
            .unwrap()
            .with_telemetry(&telemetry);
        (Committer::new(wal, new_shared_oplog()), telemetry)
    }

    fn insert_op(i: usize) -> WalOp {
        WalOp::Insert {
            table: "t".into(),
            record: Arc::new(Record::new().set("id", format!("row-{i}"))),
        }
    }

    #[test]
    fn commit_many_is_one_batch_with_contiguous_seqs() {
        let dir = tmpdir("commit-batch");
        let (committer, telemetry) = test_committer(&dir);
        let seqs = committer
            .commit_many((0..10).map(insert_op).collect())
            .unwrap();
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
        // The whole call coalesced into a single WAL write + fsync.
        let r = telemetry.registry();
        assert_eq!(
            r.counter("gallery_wal_group_commit_batches_total", &[])
                .get(),
            1
        );
        assert_eq!(
            r.counter("gallery_wal_group_commit_ops_total", &[]).get(),
            10
        );
        assert_eq!(r.counter("gallery_wal_flushes_total", &[]).get(), 1);
        // Oplog order == WAL order.
        let replayed = Wal::replay(dir.join("wal.log")).unwrap();
        assert_eq!(replayed.len(), 10);
        let oplog = committer.oplog.lock();
        for (i, op) in oplog.iter().enumerate() {
            match (op.as_ref(), &replayed[i]) {
                (WalOp::Insert { record: a, .. }, WalOp::Insert { record: b, .. }) => {
                    assert_eq!(a, b)
                }
                other => panic!("unexpected op pair {other:?}"),
            }
        }
    }

    #[test]
    fn max_batch_splits_large_commits() {
        let dir = tmpdir("commit-split");
        let (committer, telemetry) = test_committer(&dir);
        let seqs = committer
            .commit_many((0..600).map(insert_op).collect())
            .unwrap();
        assert_eq!(seqs, (1..=600).collect::<Vec<u64>>());
        // 600 ops under MAX_BATCH=256 → 3 batches (256 + 256 + 88), 3 fsyncs.
        let r = telemetry.registry();
        assert_eq!(
            r.counter("gallery_wal_group_commit_batches_total", &[])
                .get(),
            3
        );
        assert_eq!(r.counter("gallery_wal_flushes_total", &[]).get(), 3);
        assert_eq!(Wal::replay(dir.join("wal.log")).unwrap().len(), 600);
    }

    #[test]
    fn commit_queue_telemetry_tracks_leaders_and_occupancy() {
        let dir = tmpdir("commit-telemetry");
        let (committer, telemetry) = test_committer(&dir);
        committer.set_telemetry(&telemetry);
        committer
            .commit_many((0..600).map(insert_op).collect())
            .unwrap();
        let r = telemetry.registry();
        // One caller, 600 ops, MAX_BATCH=256: it led all 3 flushes itself
        // (256 + 256 + 88) and never waited behind another leader.
        assert_eq!(
            r.counter("gallery_wal_commit_queue_leader_total", &[])
                .get(),
            3
        );
        assert_eq!(
            r.counter("gallery_wal_commit_queue_follower_total", &[])
                .get(),
            0
        );
        let occ = r
            .find_histogram("gallery_wal_commit_queue_batch_occupancy", &[])
            .unwrap();
        assert_eq!(occ.count(), 3);
        assert!(
            (occ.sum() - 2.34375).abs() < 1e-9,
            "occupancies 1.0 + 1.0 + 88/256, got sum {}",
            occ.sum()
        );
        let fsync = r
            .find_histogram("gallery_wal_commit_queue_fsync_ms", &[])
            .unwrap();
        assert_eq!(fsync.count(), 3);
        assert_eq!(r.gauge("gallery_wal_commit_queue_depth", &[]).get(), 0);
    }

    #[test]
    fn concurrent_commits_coalesce_and_stay_ordered() {
        let dir = tmpdir("commit-threads");
        let (committer, telemetry) = test_committer(&dir);
        let committer = Arc::new(committer);
        let threads = 8;
        let per_thread = 50;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = Arc::clone(&committer);
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|i| c.commit(insert_op(t * 1000 + i)).unwrap())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all_seqs: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all_seqs.sort_unstable();
        let total = (threads * per_thread) as u64;
        assert_eq!(all_seqs, (1..=total).collect::<Vec<u64>>());
        // Durable and ordered: replay sees every op, in oplog order.
        let replayed = Wal::replay(dir.join("wal.log")).unwrap();
        assert_eq!(replayed.len(), total as usize);
        // Group commit must have coalesced at least some of the 400
        // concurrent fsync-policy commits into shared flushes.
        let batches = telemetry
            .registry()
            .counter("gallery_wal_group_commit_batches_total", &[])
            .get();
        assert!(batches <= total, "batches {batches} > ops {total}");
        // Per-commit seq matches oplog position.
        let oplog = committer.oplog.lock();
        assert_eq!(oplog.len(), total as usize);
    }
}
