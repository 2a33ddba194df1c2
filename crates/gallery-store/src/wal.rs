//! Write-ahead log for the metadata store.
//!
//! The paper's metadata lives in an HA MySQL deployment; our embedded
//! stand-in gains durability through a simple append-only log of binary
//! frames, one per operation:
//!
//! ```text
//! [len u32 LE][!len u32 LE][crc32(payload) u32 LE][payload: len bytes]
//! ```
//!
//! The payload is the op codec below (`encode_op` / `decode_op`), the
//! same bytes a [`crate::ship::ShipFrame`] carries between nodes. Replay
//! stops cleanly at a torn tail (the standard WAL contract) but reports
//! corruption in the middle of the log. The length carries its complement
//! because the length alone decides where the next frame starts: without
//! it, one flipped length bit mid-log would point past end of file, read
//! as a torn tail, and silently drop every frame after it.
//!
//! All file IO goes through the [`FileSystem`] abstraction so the
//! crash-consistency harness ([`crate::testkit`]) can run the WAL over a
//! simulated disk ([`crate::simfs::SimFs`]) and crash it at every IO
//! operation. Production paths use [`real_fs`] and perform the same
//! syscalls as before.

use crate::blob::checksum::crc32;
use crate::error::{Result, StoreError};
use crate::record::Row;
use crate::schema::{ColumnDef, IndexKind, Placement, Repeated, TableSchema};
use crate::simfs::{real_fs, FileSystem, FsFile};
use crate::value::{Value, ValueType};
use gallery_sync::locks::{OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use gallery_sync::{io_section, rank};
use gallery_telemetry::{kinds, Counter, EventSink, Gauge, Histogram, Telemetry};
use serde::Serialize;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One logical operation recorded in the WAL. `Serialize` is for people
/// (`gallery wal-dump`); the log and the wire use `encode_op`.
#[derive(Debug, Clone, Serialize)]
pub enum WalOp {
    CreateTable {
        /// Shared with the table and every row placed in it.
        schema: Arc<TableSchema>,
    },
    Insert {
        table: String,
        /// Shared with the table's row storage: the oplog keeps an `Arc`
        /// clone of the same allocation instead of a deep copy, halving
        /// the write path's memory traffic. Flag writes copy-on-write
        /// (`Arc::make_mut`) so logged history is never mutated.
        row: Arc<Row>,
    },
    SetFlag {
        table: String,
        pk: String,
        column: String,
        value: bool,
    },
}

/// Bytes of a frame header: payload length, its complement, payload CRC.
pub(crate) const FRAME_HEADER: usize = 12;

const OP_CREATE_TABLE: u8 = 1;
const OP_INSERT: u8 = 2;
const OP_SET_FLAG: u8 = 3;

/// Value tags; the six typed ones double as [`ValueType`] tags in a
/// `CreateTable` payload.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;

const INDEX_NONE: u8 = 0;
const INDEX_HASH: u8 = 1;
const INDEX_BTREE: u8 = 2;

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Bool => TAG_BOOL,
        ValueType::Int => TAG_INT,
        ValueType::Float => TAG_FLOAT,
        ValueType::Str => TAG_STR,
        ValueType::Bytes => TAG_BYTES,
        ValueType::Timestamp => TAG_TIMESTAMP,
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        // The bit pattern, not the number: NaN payloads, infinities and
        // the sign of zero all survive.
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_bytes(out, s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_bytes(out, b);
        }
        Value::Timestamp(t) => {
            out.push(TAG_TIMESTAMP);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

/// Append the self-describing encoding of `op` to `out`: an op tag, then
/// uvarint-length-prefixed names and one tag byte per value. These bytes
/// are the payload of a WAL frame and of a shipped frame alike. Encoding
/// cannot fail — whatever the tables accept, the log accepts.
///
/// An insert is its row's present columns as `(name, value)` pairs, in
/// schema order, the names taken from the schema: the pairs a row built
/// by name was always logged as, so frames keep their size and logs
/// written before rows were positional replay as they always did
/// (DESIGN.md §7, "Row layout").
pub(crate) fn encode_op(op: &WalOp, out: &mut Vec<u8>) {
    match op {
        WalOp::CreateTable { schema } => {
            out.push(OP_CREATE_TABLE);
            put_bytes(out, schema.name.as_bytes());
            put_bytes(out, schema.primary_key.as_bytes());
            put_uvarint(out, schema.columns.len() as u64);
            for col in &schema.columns {
                put_bytes(out, col.name.as_bytes());
                out.extend_from_slice(&[
                    type_tag(col.ty),
                    u8::from(col.nullable),
                    match col.index {
                        None => INDEX_NONE,
                        Some(IndexKind::Hash) => INDEX_HASH,
                        Some(IndexKind::BTree) => INDEX_BTREE,
                    },
                ]);
            }
            // Ordered indexes trail the columns, and only when there are
            // any: a schema without them is the bytes it always was, and a
            // log written before they existed decodes as having none.
            if !schema.ordered.is_empty() {
                put_uvarint(out, schema.ordered.len() as u64);
                for def in &schema.ordered {
                    put_bytes(out, def.by.as_bytes());
                    put_bytes(out, def.order.as_bytes());
                }
            }
        }
        WalOp::Insert { table, row } => {
            out.push(OP_INSERT);
            put_bytes(out, table.as_bytes());
            put_uvarint(out, row.fields().count() as u64);
            for (name, value) in row.fields() {
                put_bytes(out, name.as_bytes());
                put_value(out, value);
            }
        }
        WalOp::SetFlag {
            table,
            pk,
            column,
            value,
        } => {
            out.push(OP_SET_FLAG);
            put_bytes(out, table.as_bytes());
            put_bytes(out, pk.as_bytes());
            put_bytes(out, column.as_bytes());
            out.push(u8::from(*value));
        }
    }
}

/// A decoding step; the error says why the payload did not decode (the
/// caller adds which frame, and where).
type Decoded<T> = std::result::Result<T, &'static str>;

/// Bounds-checked reads over untrusted payload bytes: the log after bit
/// rot, or whatever a peer shipped.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.0.len() {
            return Err("payload ends early");
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bool byte is neither 0 nor 1"),
        }
    }

    fn u64_le(&mut self) -> Decoded<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn uvarint(&mut self) -> Decoded<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            // The tenth byte has room for bit 63 alone.
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint overflows 64 bits")
    }

    /// A length-prefixed byte string. The length is checked against what
    /// is left before anything is sliced or allocated.
    fn bytes(&mut self) -> Decoded<&'a [u8]> {
        let n = self.uvarint()?;
        self.take(usize::try_from(n).map_err(|_| "length overflows usize")?)
    }

    fn str(&mut self) -> Decoded<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| "string is not utf-8")
    }

    fn string(&mut self) -> Decoded<String> {
        self.str().map(str::to_owned)
    }

    /// An item count, and how many items to reserve room for: never more
    /// than the rest of the payload could hold at `min_item_bytes` each. A
    /// count inflated to 2^62 then fails on the item where the bytes run
    /// out, having reserved no more items than the input has bytes.
    fn count(&mut self, min_item_bytes: usize) -> Decoded<(u64, usize)> {
        let n = self.uvarint()?;
        let fit = self.0.len() / min_item_bytes;
        Ok((n, usize::try_from(n).map_or(fit, |n| n.min(fit))))
    }

    fn value_type(&mut self) -> Decoded<ValueType> {
        Ok(match self.u8()? {
            TAG_BOOL => ValueType::Bool,
            TAG_INT => ValueType::Int,
            TAG_FLOAT => ValueType::Float,
            TAG_STR => ValueType::Str,
            TAG_BYTES => ValueType::Bytes,
            TAG_TIMESTAMP => ValueType::Timestamp,
            _ => return Err("unknown column type tag"),
        })
    }

    fn value(&mut self) -> Decoded<Value> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.bool()?),
            TAG_INT => Value::Int(self.u64_le()? as i64),
            TAG_FLOAT => Value::Float(f64::from_bits(self.u64_le()?)),
            TAG_STR => Value::Str(self.string()?),
            TAG_BYTES => Value::Bytes(self.bytes()?.to_vec()),
            TAG_TIMESTAMP => Value::Timestamp(self.u64_le()? as i64),
            _ => return Err("unknown value tag"),
        })
    }
}

/// Why a payload is not an op.
#[derive(Debug)]
pub(crate) enum Undecoded {
    /// The bytes do not decode: damage, or a frame torn mid-write.
    Malformed(&'static str),
    /// A well-formed insert the table refuses, with the error inserting
    /// the row directly would get (`NoSuchTable`, `NoSuchColumn`, ...).
    Refused(StoreError),
}

impl From<&'static str> for Undecoded {
    fn from(why: &'static str) -> Self {
        Undecoded::Malformed(why)
    }
}

/// The schema an insert into a table is decoded against, if the table
/// exists: the store's own table for a shipped frame, the log's earlier
/// `CreateTable` on replay.
pub(crate) type SchemaOf<'s> = &'s dyn Fn(&str) -> Option<Arc<TableSchema>>;

/// Decode one op payload (inverse of [`encode_op`]). The payload must be
/// consumed exactly: trailing bytes are as much an error as missing ones.
///
/// An insert's columns are resolved against `schema_of(table)` as they
/// are read and placed by position — no name is copied — through the
/// same validate-and-place pass a local insert takes. A column the frame
/// names twice keeps its first value, which is what a reader of the log
/// saw when it was written.
pub(crate) fn decode_op(
    payload: &[u8],
    schema_of: SchemaOf<'_>,
) -> std::result::Result<WalOp, Undecoded> {
    let mut c = Cursor(payload);
    let op = match c.u8()? {
        OP_CREATE_TABLE => {
            let name = c.string()?;
            let primary_key = c.string()?;
            // A column is at least an empty name's length byte + 3 tags.
            let (n, reserve) = c.count(4)?;
            let mut columns = Vec::with_capacity(reserve);
            for _ in 0..n {
                columns.push(ColumnDef {
                    name: c.string()?,
                    ty: c.value_type()?,
                    nullable: c.bool()?,
                    index: match c.u8()? {
                        INDEX_NONE => None,
                        INDEX_HASH => Some(IndexKind::Hash),
                        INDEX_BTREE => Some(IndexKind::BTree),
                        _ => return Err("unknown index tag".into()),
                    },
                });
            }
            let mut schema = TableSchema {
                name,
                primary_key,
                columns,
                ordered: Vec::new(),
            };
            if !c.0.is_empty() {
                // A declaration is at least two empty names' length bytes.
                let (n, _) = c.count(2)?;
                if n == 0 {
                    return Err("empty ordered-index section".into());
                }
                // Through the checked builder: a recovered or following
                // store plans from these, so they must name real columns.
                for _ in 0..n {
                    schema = schema
                        .ordered_by(c.string()?, c.string()?)
                        .map_err(|_| "ordered index the columns do not allow")?;
                }
            }
            WalOp::CreateTable {
                schema: Arc::new(schema),
            }
        }
        OP_INSERT => {
            let table = c.string()?;
            let schema = schema_of(&table);
            let mut placement = schema.as_ref().map(Placement::new);
            // Each field is at least an empty name's length byte + a value
            // tag: a hostile count fails where the bytes run out.
            let (n, _) = c.count(2)?;
            for _ in 0..n {
                let (name, value) = (c.str()?, c.value()?);
                if let Some(placement) = &mut placement {
                    placement.give(name, value);
                }
            }
            // Every byte is accounted for before the table has its say: a
            // frame that is not an op is malformed, whatever it names.
            if !c.0.is_empty() {
                return Err(Undecoded::Malformed("bytes left over after the op"));
            }
            let row = match placement {
                Some(placement) => placement.finish(Repeated::KeepFirst),
                None => Err(StoreError::NoSuchTable(table.clone())),
            };
            let row = row.map_err(Undecoded::Refused)?;
            WalOp::Insert {
                table,
                row: Arc::new(row),
            }
        }
        OP_SET_FLAG => WalOp::SetFlag {
            table: c.string()?,
            pk: c.string()?,
            column: c.string()?,
            value: c.bool()?,
        },
        _ => return Err(Undecoded::Malformed("unknown op tag")),
    };
    if !c.0.is_empty() {
        return Err(Undecoded::Malformed("bytes left over after the op"));
    }
    Ok(op)
}

/// What the bytes at a frame boundary hold, structurally (the CRC and the
/// payload's meaning are replay's job).
enum Framing<'a> {
    /// Fewer bytes than a header, or than the header's length announces:
    /// what a crash mid-append leaves.
    Short,
    /// The length disagrees with its complement.
    BadLength,
    Whole {
        payload: &'a [u8],
        crc: u32,
    },
}

fn framing(buf: &[u8]) -> Framing<'_> {
    let Some(h) = buf.get(..FRAME_HEADER) else {
        return Framing::Short;
    };
    let field = |i: usize| u32::from_le_bytes([h[i], h[i + 1], h[i + 2], h[i + 3]]);
    let (len, not_len, crc) = (field(0), field(4), field(8));
    if len != !not_len {
        return Framing::BadLength;
    }
    match usize::try_from(len)
        .ok()
        .and_then(|len| buf[FRAME_HEADER..].get(..len))
    {
        Some(payload) => Framing::Whole { payload, crc },
        None => Framing::Short,
    }
}

/// Whole length (header + payload) of the frame at the start of `buf`, if
/// its header is intact and the payload it announces is all there.
pub(crate) fn frame_len(buf: &[u8]) -> Option<usize> {
    match framing(buf) {
        Framing::Whole { payload, .. } => Some(FRAME_HEADER + payload.len()),
        Framing::Short | Framing::BadLength => None,
    }
}

/// How many whole WAL frames `buf` starts with, found by walking frame
/// headers. One frame per op, so a single write holding more than one is a
/// group-commit batch — which is how the crash matrix finds batches.
pub fn frames_in(buf: &[u8]) -> usize {
    let mut offset = 0;
    let mut frames = 0;
    while let Some(whole) = frame_len(&buf[offset..]) {
        offset += whole;
        frames += 1;
    }
    frames
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
/// [`Wal::with_telemetry`] attaches them). Each batch is recorded once:
/// the batch-size histogram's `_count` is the number of batches (one per
/// group-commit flush) and its `_sum` the ops they carried.
struct WalTelemetry {
    appends: Arc<Counter>,
    flushes: Arc<Counter>,
    append_ms: Arc<Histogram>,
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
    /// Reused across batches: frames accumulate here so one batch is one
    /// `write` syscall and (at most) one fsync, and steady-state appends
    /// stop allocating once it has grown to the largest batch seen.
    frame_buf: Vec<u8>,
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
            frame_buf: Vec::new(),
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
            frame_buf: Vec::new(),
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
            group_commit_batch_size: r.histogram(
                "gallery_wal_group_commit_batch_size",
                &[],
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
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
                    ("entries", self.entries_written.to_string().into()),
                    ("reason", "sync_all".into()),
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
    /// (every op is its own frame) and none of them were acked.
    pub fn append_batch(&mut self, ops: &[&WalOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        // Only a batch that is fsynced is timed: without the sync the
        // write is a copy into the page cache, and the clock reads would
        // cost more than that copy tells.
        let fsync_started = (self.sync == SyncPolicy::Always).then(Instant::now);
        self.frame_buf.clear();
        for op in ops {
            let header_at = self.frame_buf.len();
            self.frame_buf.extend_from_slice(&[0; FRAME_HEADER]);
            encode_op(op, &mut self.frame_buf);
            let payload = &self.frame_buf[header_at + FRAME_HEADER..];
            let len = u32::try_from(payload.len())
                .map_err(|_| StoreError::Io("wal frame exceeds 4 GiB".to_string()))?;
            let crc = crc32(payload);
            let header = &mut self.frame_buf[header_at..header_at + FRAME_HEADER];
            header[..4].copy_from_slice(&len.to_le_bytes());
            header[4..8].copy_from_slice(&(!len).to_le_bytes());
            header[8..].copy_from_slice(&crc.to_le_bytes());
        }
        self.writer.write_all(&self.frame_buf)?;
        self.writer.flush()?;
        if fsync_started.is_some() {
            io_section("wal.append_batch", || self.writer.sync_data())?;
        }
        self.entries_written += ops.len() as u64;
        if let Some(t) = &self.telemetry {
            t.appends.add(ops.len() as u64);
            t.group_commit_batch_size.observe(ops.len() as f64);
            if let Some(started) = fsync_started {
                t.flushes.inc();
                t.append_ms.observe_since(started);
            }
        }
        Ok(())
    }

    /// Replay all intact entries from a log file. A torn final frame is
    /// tolerated (it is the expected crash artifact); damage with bytes
    /// after it is reported as corruption.
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
                    ("path", path.display().to_string().into()),
                    ("valid_len", torn.valid_len.to_string().into()),
                    ("dropped_bytes", torn.dropped_bytes.to_string().into()),
                ],
            );
        }
        Ok(report.ops)
    }

    /// Three outcomes, decided by these bytes alone. **Clean**: every
    /// frame verifies and the last one ends the file. **Torn tail**: fewer
    /// than a header's bytes are left, or the length runs past end of file,
    /// or the frame that ends the file fails its CRC or does not decode —
    /// what a crash mid-append leaves; the caller may truncate it away.
    /// **Corrupt**: a length that disagrees with its complement, or a bad
    /// CRC / undecodable payload with more bytes after it — damage to
    /// history, which truncation would silently discard.
    ///
    /// Inserts are decoded against the schemas the log's own `CreateTable`
    /// frames declared before them. A whole, verified insert its table
    /// refuses fails the replay with the table's error, wherever it is:
    /// it is history, not a torn write.
    fn replay_bytes(data: &[u8]) -> Result<ReplayReport> {
        let mut ops = Vec::new();
        let mut schemas: HashMap<String, Arc<TableSchema>> = HashMap::new();
        let mut offset = 0usize;
        let mut torn = false;
        while offset < data.len() {
            let rest = &data[offset..];
            let corrupt = |why: &str| {
                StoreError::WalCorrupt(format!("frame {} at offset {offset}: {why}", ops.len() + 1))
            };
            let (payload, crc) = match framing(rest) {
                Framing::Whole { payload, crc } => (payload, crc),
                Framing::Short => {
                    torn = true;
                    break;
                }
                Framing::BadLength => {
                    return Err(corrupt("length does not match its complement"));
                }
            };
            let decoded = if crc32(payload) == crc {
                decode_op(payload, &|table| schemas.get(table).cloned())
            } else {
                Err(Undecoded::Malformed("crc mismatch"))
            };
            let end = FRAME_HEADER + payload.len();
            match decoded {
                Ok(op) => {
                    if let WalOp::CreateTable { schema } = &op {
                        schemas.insert(schema.name.clone(), Arc::clone(schema));
                    }
                    ops.push(op);
                    offset += end;
                }
                Err(Undecoded::Refused(e)) => return Err(e),
                Err(_) if end == rest.len() => {
                    torn = true;
                    break;
                }
                Err(Undecoded::Malformed(why)) => return Err(corrupt(why)),
            }
        }
        let torn_tail = torn.then(|| TornTail {
            valid_len: offset as u64,
            dropped_bytes: (data.len() - offset) as u64,
        });
        Ok(ReplayReport { ops, torn_tail })
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
    telemetry: Option<CommitterTelemetry>,
}

/// Telemetry handles for the group-commit queue itself (absent until
/// [`Committer::set_telemetry`] attaches them): queue depth and the
/// commits that waited behind another caller's flush
/// (`gallery_wal_commit_queue_*`). Each flush — its size and its
/// duration — is recorded once, by the WAL it writes.
struct CommitterTelemetry {
    queue_depth: Arc<Gauge>,
    followers: Arc<Counter>,
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
            telemetry: None,
        }
    }

    /// Attach (or replace) commit-queue telemetry
    /// (`gallery_wal_commit_queue_*`). Single-series families: the queue
    /// is one per store, so label cardinality is constant.
    pub(crate) fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let r = telemetry.registry();
        self.telemetry = Some(CommitterTelemetry {
            queue_depth: r.gauge("gallery_wal_commit_queue_depth", &[]),
            followers: r.counter("gallery_wal_commit_queue_follower_total", &[]),
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
        if let Some(t) = &self.telemetry {
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
                q = self.lead_flush(q);
                self.cv.notify_all();
                continue;
            }
            if !was_follower {
                was_follower = true;
                if let Some(t) = &self.telemetry {
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
        if let Some(t) = &self.telemetry {
            t.queue_depth.set(q.pending.len() as i64);
        }
        drop(q);

        let flush_res = self.flush_batch(&batch);

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
    use crate::record::Record;
    use crate::simfs::SimFs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gallery-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `t(id, score, n)`: a key, and two nullable columns.
    fn t_schema() -> Arc<TableSchema> {
        let columns = vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("score", ValueType::Float).nullable(),
            ColumnDef::new("n", ValueType::Int).nullable(),
        ];
        Arc::new(TableSchema::new("t", "id", columns).unwrap())
    }

    /// An insert into `t`.
    fn insert_into_t(record: Record) -> WalOp {
        WalOp::Insert {
            table: "t".into(),
            row: Arc::new(t_schema().place(record).unwrap()),
        }
    }

    /// What a shipped frame is decoded against on a store with no tables.
    fn no_tables(_: &str) -> Option<Arc<TableSchema>> {
        None
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateTable { schema: t_schema() },
            insert_into_t(Record::new().set("id", "x")),
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

    /// `ops` framed the way `append_batch` frames them.
    fn log_of(ops: &[WalOp]) -> Vec<u8> {
        let fs = SimFs::new();
        let path = Path::new("/wal.log");
        let mut wal = Wal::open_with_fs(Arc::new(fs.clone()), path, SyncPolicy::Never).unwrap();
        wal.append_batch(&ops.iter().collect::<Vec<_>>()).unwrap();
        fs.read(path).unwrap()
    }

    /// A log file holding `sample_ops()`, and its bytes.
    fn sample_log(name: &str) -> (PathBuf, Vec<u8>) {
        let path = tmpdir(name).join("wal.log");
        let bytes = log_of(&sample_ops());
        std::fs::write(&path, &bytes).unwrap();
        (path, bytes)
    }

    fn frame_starts(log: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut at = 0;
        while let Some(whole) = frame_len(&log[at..]) {
            starts.push(at);
            at += whole;
        }
        starts
    }

    /// What a crash mid-append leaves: a whole header announcing more
    /// payload than made it to disk.
    fn torn_frame() -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&40u32.to_le_bytes());
        frame.extend_from_slice(&(!40u32).to_le_bytes());
        frame.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        frame.extend_from_slice(b"\x02\x01t\x01");
        frame
    }

    #[test]
    fn torn_tail_tolerated() {
        let (path, mut log) = sample_log("torn");
        // Simulate a crash mid-append: a partial frame at the end.
        log.extend_from_slice(&torn_frame());
        std::fs::write(&path, &log).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn recover_truncates_torn_tail_and_counts_it() {
        let (path, mut log) = sample_log("heal");
        let clean_len = log.len() as u64;
        log.extend_from_slice(&torn_frame());
        std::fs::write(&path, &log).unwrap();
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
        let (path, log) = sample_log("corrupt");
        // Flip a byte in the first frame's payload.
        let mut flipped = log.clone();
        flipped[FRAME_HEADER + 3] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(Wal::replay(&path), Err(StoreError::WalCorrupt(_))));
        // Flip a bit in the first frame's *length*: the complement catches
        // it. Without one the length would run past end of file, read as a
        // torn tail, and recovery would quietly drop the whole log.
        let mut flipped = log.clone();
        flipped[1] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(Wal::replay(&path), Err(StoreError::WalCorrupt(_))));
    }

    #[test]
    fn every_tear_of_the_last_frame_heals_to_the_frames_before_it() {
        let log = log_of(&sample_ops());
        let last_start = frame_starts(&log)[2];
        for cut in last_start..log.len() {
            let report = Wal::replay_bytes(&log[..cut]).unwrap();
            assert_eq!(report.ops.len(), 2, "cut at {cut}");
            let torn = report.torn_tail;
            if cut == last_start {
                assert_eq!(torn, None);
            } else {
                assert_eq!(
                    torn,
                    Some(TornTail {
                        valid_len: last_start as u64,
                        dropped_bytes: (cut - last_start) as u64,
                    }),
                    "cut at {cut}"
                );
            }
        }
        // A whole last frame with a damaged payload is a torn tail too:
        // nothing follows it, so nothing but the crash's own write is lost.
        let mut flipped = log.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        let report = Wal::replay_bytes(&flipped).unwrap();
        assert_eq!(report.ops.len(), 2);
        assert_eq!(report.torn_tail.unwrap().valid_len, last_start as u64);
    }

    #[test]
    fn a_json_lines_log_is_corrupt_and_left_untouched() {
        // The format this one replaced. No reader is kept for it, and it
        // must never be "healed" into an empty log.
        let path = tmpdir("jsonl").join("wal.log");
        let old = b"5d0b8a6c {\"SetFlag\":{\"table\":\"t\",\"pk\":\"x\",\"column\":\"deprecated\",\"value\":true}}\n";
        std::fs::write(&path, old).unwrap();
        let telemetry = Telemetry::new();
        assert!(matches!(
            Wal::recover(&*real_fs(), &path, &telemetry),
            Err(StoreError::WalCorrupt(_))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), old);
    }

    #[test]
    fn frames_in_walks_headers() {
        let log = log_of(&sample_ops());
        assert_eq!(frames_in(&log), 3);
        assert_eq!(frames_in(&log[..log.len() - 1]), 2);
        assert_eq!(frames_in(&log[..FRAME_HEADER - 1]), 0);
        assert_eq!(frames_in(b""), 0);
        assert_eq!(frames_in(b"GBL1 not a wal frame at all"), 0);
        let mut bad_len = log.clone();
        bad_len[0] ^= 0x01;
        assert_eq!(frames_in(&bad_len), 0);
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

    /// A committer over a log that starts with `t`'s `CreateTable`
    /// (written before the telemetry is attached, and outside the oplog).
    fn test_committer(dir: &Path) -> (Committer, Arc<Telemetry>) {
        let telemetry = Telemetry::new();
        let mut wal = Wal::open(dir.join("wal.log"), SyncPolicy::Always).unwrap();
        wal.append(&sample_ops()[0]).unwrap();
        let wal = wal.with_telemetry(&telemetry);
        (Committer::new(wal, new_shared_oplog()), telemetry)
    }

    /// The committed inserts of a `test_committer` log.
    fn replayed_inserts(dir: &Path) -> Vec<WalOp> {
        let mut ops = Wal::replay(dir.join("wal.log")).unwrap();
        assert!(matches!(ops.remove(0), WalOp::CreateTable { .. }));
        ops
    }

    fn insert_op(i: usize) -> WalOp {
        insert_into_t(Record::new().set("id", format!("row-{i}")))
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
        let batches = r
            .find_histogram("gallery_wal_group_commit_batch_size", &[])
            .unwrap();
        assert_eq!(batches.count(), 1);
        assert_eq!(batches.sum(), 10.0);
        assert_eq!(r.counter("gallery_wal_appends_total", &[]).get(), 10);
        assert_eq!(r.counter("gallery_wal_flushes_total", &[]).get(), 1);
        // Oplog order == WAL order.
        let replayed = replayed_inserts(&dir);
        assert_eq!(replayed.len(), 10);
        let oplog = committer.oplog.lock();
        for (i, op) in oplog.iter().enumerate() {
            match (op.as_ref(), &replayed[i]) {
                (WalOp::Insert { row: a, .. }, WalOp::Insert { row: b, .. }) => {
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
        let batches = r
            .find_histogram("gallery_wal_group_commit_batch_size", &[])
            .unwrap();
        assert_eq!(batches.count(), 3);
        assert_eq!(r.counter("gallery_wal_flushes_total", &[]).get(), 3);
        assert_eq!(replayed_inserts(&dir).len(), 600);
    }

    #[test]
    fn commit_queue_telemetry_records_each_flush_once() {
        let dir = tmpdir("commit-telemetry");
        let (mut committer, telemetry) = test_committer(&dir);
        committer.set_telemetry(&telemetry);
        committer
            .commit_many((0..600).map(insert_op).collect())
            .unwrap();
        let r = telemetry.registry();
        // One caller, 600 ops, MAX_BATCH=256: it led all 3 flushes itself
        // (256 + 256 + 88) and never waited behind another leader.
        assert_eq!(
            r.counter("gallery_wal_commit_queue_follower_total", &[])
                .get(),
            0
        );
        let sizes = r
            .find_histogram("gallery_wal_group_commit_batch_size", &[])
            .unwrap();
        assert_eq!(sizes.count(), 3);
        assert_eq!(sizes.sum(), 600.0);
        assert_eq!(sizes.bucket_counts()[7..9], [1, 2], "88 | 256, 256");
        let durations = r
            .find_histogram("gallery_wal_append_duration_ms", &[])
            .unwrap();
        assert_eq!(durations.count(), 3);
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
        let replayed = replayed_inserts(&dir);
        assert_eq!(replayed.len(), total as usize);
        // Group commit must have coalesced at least some of the 400
        // concurrent fsync-policy commits into shared flushes.
        let batches = telemetry
            .registry()
            .find_histogram("gallery_wal_group_commit_batch_size", &[])
            .unwrap()
            .count();
        assert!(batches <= total, "batches {batches} > ops {total}");
        // Per-commit seq matches oplog position.
        let oplog = committer.oplog.lock();
        assert_eq!(oplog.len(), total as usize);
    }
    #[test]
    fn non_finite_floats_do_not_poison_a_group_commit() {
        // One writer's row carries a NaN. The JSON encoder refused it, and
        // the refusal failed every other commit in the same batch.
        let dir = tmpdir("commit-nan");
        let (committer, _) = test_committer(&dir);
        let committer = Arc::new(committer);
        let start = Arc::new(std::sync::Barrier::new(6));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let c = Arc::clone(&committer);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let score = if t == 3 { f64::NAN } else { t as f64 };
                    let row = Record::new()
                        .set("id", format!("row-{t}"))
                        .set("score", score);
                    c.commit(insert_into_t(row))
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let replayed = replayed_inserts(&dir);
        assert_eq!(replayed.len(), 6);
        let nans = replayed
            .iter()
            .filter(|op| match op {
                WalOp::Insert { row, .. } => {
                    matches!(row.get("score"), Some(Value::Float(x)) if x.is_nan())
                }
                _ => false,
            })
            .count();
        assert_eq!(nans, 1);
    }

    fn encoded(op: &WalOp) -> Vec<u8> {
        let mut out = Vec::new();
        encode_op(op, &mut out);
        out
    }

    mod codec_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> BoxedStrategy<Value> {
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                // Every bit pattern: NaN payloads, infinities, -0.0.
                any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
                "[a-zé]{0,12}".prop_map(Value::Str),
                // Arbitrary bytes, so mostly not UTF-8.
                proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
                any::<i64>().prop_map(Value::Timestamp),
            ]
            .boxed()
        }

        fn arb_column() -> BoxedStrategy<ColumnDef> {
            ("[a-z_]{0,8}", 0usize..6, any::<bool>(), 0usize..3)
                .prop_map(|(name, ty, nullable, index)| ColumnDef {
                    name,
                    ty: [
                        ValueType::Bool,
                        ValueType::Int,
                        ValueType::Float,
                        ValueType::Str,
                        ValueType::Bytes,
                        ValueType::Timestamp,
                    ][ty],
                    nullable,
                    index: [None, Some(IndexKind::Hash), Some(IndexKind::BTree)][index],
                })
                .boxed()
        }

        fn arb_op() -> BoxedStrategy<WalOp> {
            prop_oneof![
                (
                    "[a-z]{0,8}",
                    "[a-z]{0,8}",
                    proptest::collection::vec(arb_column(), 0..8),
                    proptest::collection::vec(
                        (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                        0..3,
                    ),
                )
                    .prop_map(|(name, primary_key, columns, picks)| {
                        let mut schema = TableSchema {
                            name,
                            primary_key,
                            columns,
                            ordered: Vec::new(),
                        };
                        // Whichever picked column pairs the builder allows.
                        let names: Vec<String> =
                            schema.columns.iter().map(|c| c.name.clone()).collect();
                        for (by, order) in picks.iter().filter(|_| !names.is_empty()) {
                            let name_of =
                                |i: &prop::sample::Index| names[i.index(names.len())].clone();
                            if let Ok(with) = schema.clone().ordered_by(name_of(by), name_of(order))
                            {
                                schema = with;
                            }
                        }
                        WalOp::CreateTable {
                            schema: Arc::new(schema),
                        }
                    }),
                arb_insert(),
                ("[a-z]{0,8}", "[a-z0-9-]{0,12}", "[a-z]{0,8}", any::<bool>()).prop_map(
                    |(table, pk, column, value)| WalOp::SetFlag {
                        table,
                        pk,
                        column,
                        value,
                    }
                ),
            ]
            .boxed()
        }

        /// An insert into a table of its own: a key, then a column per
        /// generated value, typed as the value and nullable where it is
        /// `Null` (so absent from the row) or where the draw says so.
        fn arb_insert() -> BoxedStrategy<WalOp> {
            (
                "[a-z]{0,8}",
                "[a-z0-9-]{0,12}",
                proptest::collection::vec(("[a-z_]{1,8}", arb_value(), any::<bool>()), 0..10),
            )
                .prop_map(|(table, pk, fields)| {
                    let mut columns = vec![ColumnDef::new("id", ValueType::Str)];
                    let mut record = Record::new().set("id", pk);
                    for (name, value, nullable) in fields {
                        if columns.iter().any(|c| c.name == name) {
                            continue;
                        }
                        let mut column = ColumnDef::new(
                            name.clone(),
                            value.value_type().unwrap_or(ValueType::Str),
                        );
                        column.nullable = nullable || value.is_null();
                        columns.push(column);
                        record = record.set(name, value);
                    }
                    let schema = Arc::new(TableSchema::new(table.clone(), "id", columns).unwrap());
                    WalOp::Insert {
                        table,
                        row: Arc::new(schema.place(record).unwrap()),
                    }
                })
                .boxed()
        }

        /// `op` as a log holds it: an insert after its table's creation.
        fn logged(op: WalOp) -> Vec<WalOp> {
            match &op {
                WalOp::Insert { row, .. } => vec![
                    WalOp::CreateTable {
                        schema: Arc::clone(row.schema()),
                    },
                    op,
                ],
                _ => vec![op],
            }
        }

        /// Replay and shipped-frame decoding, the two places untrusted op
        /// bytes enter. Returning at all is the property (no panic, no
        /// allocation sized by a hostile count); the outcome is clean, a
        /// torn tail, or `WalCorrupt`.
        fn decode_everywhere(bytes: &[u8]) -> Result<ReplayReport> {
            let _ = decode_op(bytes, &no_tables);
            let fs = SimFs::new();
            let path = Path::new("/wal.log");
            fs.create(path).unwrap().write_all(bytes).unwrap();
            let report = Wal::replay_report(&fs, path);
            assert!(
                matches!(report, Ok(_) | Err(StoreError::WalCorrupt(_))),
                "{report:?}"
            );
            if let Ok(r) = &report {
                let kept = r.torn_tail.as_ref().map_or(bytes.len() as u64, |t| {
                    assert_eq!(t.valid_len + t.dropped_bytes, bytes.len() as u64);
                    t.valid_len
                });
                assert_eq!(frames_in(&bytes[..kept as usize]), r.ops.len());
            }
            report
        }

        proptest! {
            // Miri interprets every step; it is after the decoder's bounds,
            // which a handful of cases already walk.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            #[test]
            fn ops_round_trip_bit_for_bit(op in arb_op()) {
                let bytes = encoded(&op);
                // An insert decodes against its table's schema.
                let schema = match &op {
                    WalOp::Insert { row, .. } => Some(Arc::clone(row.schema())),
                    _ => None,
                };
                let schema_of = |_: &str| schema.clone();
                let decode = |bytes: &[u8]| decode_op(bytes, &schema_of);
                let back = decode(&bytes).unwrap();
                // `Value`'s `==` is numeric across Int/Float, and NaN prints
                // the same whatever its payload: the re-encoding pins bits
                // and variants, the Debug form the structure around them.
                prop_assert_eq!(encoded(&back), bytes.clone());
                prop_assert_eq!(format!("{back:?}"), format!("{op:?}"));
                // Exact consumption: a byte more or a byte less is an error.
                let mut longer = bytes.clone();
                longer.push(0);
                prop_assert!(decode(&longer).is_err());
                prop_assert!(decode(&bytes[..bytes.len() - 1]).is_err());
            }

            #[test]
            fn decoders_survive_hostile_logs(
                garbage in proptest::collection::vec(any::<u8>(), 0..256),
                ops in proptest::collection::vec(arb_op(), 1..5),
                cut in any::<prop::sample::Index>(),
                flip in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let _ = decode_everywhere(&garbage);

                let ops: Vec<WalOp> = ops.into_iter().flat_map(logged).collect();
                let log = log_of(&ops);
                prop_assert_eq!(decode_everywhere(&log).unwrap().ops.len(), ops.len());
                // Every truncation is a clean prefix or a torn tail, never
                // corruption: a crash may stop a write anywhere.
                let cut = cut.index(log.len());
                let report = decode_everywhere(&log[..cut]).unwrap();
                prop_assert_eq!(report.torn_tail.is_some(), frame_starts(&log).binary_search(&cut).is_err());

                // One flipped bit never passes: the ops before it survive,
                // and the flip is either corruption or the torn last frame.
                let at = flip.index(log.len());
                let mut flipped = log.clone();
                flipped[at] ^= 1 << bit;
                let starts = frame_starts(&log);
                let hit = starts.partition_point(|s| *s <= at) - 1;
                match decode_everywhere(&flipped) {
                    Ok(report) => {
                        prop_assert_eq!(hit, starts.len() - 1, "a mid-log flip passed as a torn tail");
                        prop_assert_eq!(report.ops.len(), hit);
                        prop_assert_eq!(report.torn_tail.unwrap().valid_len, starts[hit] as u64);
                    }
                    Err(e) => prop_assert!(matches!(e, StoreError::WalCorrupt(_))),
                }
            }

            #[test]
            fn a_stored_row_logs_the_pairs_its_builder_did(
                picks in proptest::collection::vec(any::<prop::sample::Index>(), 8..9),
                present in proptest::collection::vec(any::<bool>(), 8..9),
                bits in any::<u64>(),
                text in "[a-zé]{0,12}",
            ) {
                let schema = metrics_like();
                let by_column = [
                    Value::from(format!("m-{text}")),
                    Value::from("i-1"),
                    Value::from(text),
                    Value::Float(f64::from_bits(bits)),
                    Value::from("validation"),
                    Value::from("{}"),
                    Value::Timestamp(bits as i64),
                    Value::Bool(bits % 2 == 0),
                ];
                // The builder sets its columns in a shuffled order, and the
                // nullable ones only where `present` says so.
                let mut order: Vec<usize> = (0..8).collect();
                for (i, pick) in picks.iter().enumerate() {
                    order.swap(i, i + pick.index(8 - i));
                }
                let given = order.iter().filter(|&&i| !schema.columns[i].nullable || present[i]);
                let record = given.fold(Record::new(), |r, &i| {
                    r.set(schema.columns[i].name.clone(), by_column[i].clone())
                });
                let parent = parent_encoding("metrics", &record);
                let row = Arc::new(schema.place(record).unwrap());
                let bytes = encoded(&WalOp::Insert { table: "metrics".into(), row: Arc::clone(&row) });
                // The same pairs, in schema order: the same length.
                prop_assert_eq!(bytes.len(), parent.len());
                let (mut now, mut then) = (pairs_of(&bytes), pairs_of(&parent));
                now.sort();
                then.sort();
                prop_assert_eq!(now, then);
                // And they decode to the row they came from.
                let back = decode_op(&bytes, &|_| Some(Arc::clone(&schema))).unwrap();
                let WalOp::Insert { row: back, .. } = back else {
                    panic!("not an insert: {back:?}");
                };
                prop_assert!(Arc::ptr_eq(back.schema(), &schema));
                prop_assert_eq!(&back, &row);
                prop_assert_eq!(encoded(&WalOp::Insert { table: "metrics".into(), row: back }), bytes);
            }
        }

        /// `metrics`' columns, and a nullable flag.
        fn metrics_like() -> Arc<TableSchema> {
            let str_col = |name: &str| ColumnDef::new(name, ValueType::Str);
            let columns = vec![
                str_col("id"),
                str_col("instance_id"),
                str_col("name"),
                ColumnDef::new("value", ValueType::Float),
                str_col("scope"),
                str_col("metadata").nullable(),
                ColumnDef::new("created", ValueType::Timestamp),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ];
            Arc::new(TableSchema::new("metrics", "id", columns).unwrap())
        }

        /// How an insert built by name was logged before rows were stored
        /// by position: the builder's pairs, in the builder's order.
        fn parent_encoding(table: &str, record: &Record) -> Vec<u8> {
            let mut out = vec![OP_INSERT];
            put_bytes(&mut out, table.as_bytes());
            put_uvarint(&mut out, record.len() as u64);
            for (name, value) in record.fields() {
                put_bytes(&mut out, name.as_bytes());
                put_value(&mut out, value);
            }
            out
        }

        /// An insert payload's `(name, value bytes)` pairs, as logged.
        fn pairs_of(payload: &[u8]) -> Vec<(String, Vec<u8>)> {
            let mut c = Cursor(payload);
            assert_eq!(c.u8(), Ok(OP_INSERT));
            c.string().unwrap();
            let n = c.uvarint().unwrap();
            let pairs = (0..n).map(|_| {
                let name = c.string().unwrap();
                let mut value = Vec::new();
                put_value(&mut value, &c.value().unwrap());
                (name, value)
            });
            let pairs = pairs.collect();
            assert!(c.0.is_empty());
            pairs
        }

        /// `t(id, g, s)` with the ordered index `g → s`. `s` is an `int`:
        /// an ordered index refuses a `str` order column, whose eight-byte
        /// sort key does not decide the order of its values.
        fn ordered_create() -> WalOp {
            let columns = vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("g", ValueType::Str),
                ColumnDef::new("s", ValueType::Int),
            ];
            let schema = TableSchema::new("t", "id", columns).unwrap();
            WalOp::CreateTable {
                schema: Arc::new(schema.ordered_by("g", "s").unwrap()),
            }
        }

        /// `payload` decoded on a store whose one table is `t_schema()`'s.
        fn decode_t(payload: &[u8]) -> std::result::Result<WalOp, Undecoded> {
            decode_op(payload, &|table| (table == "t").then(t_schema))
        }

        /// What the commit before ordered indexes wrote for `t(id, g, s)`.
        const PARENT_CREATE: [u8; 23] = [
            1, 1, b't', 2, b'i', b'd', 3, // op, "t", "id", three columns:
            2, b'i', b'd', 4, 0, 0, // "id" str, not nullable, no index
            1, b'g', 4, 0, 0, // "g" str
            1, b's', 2, 0, 0, // "s" int
        ];

        #[test]
        fn a_parent_create_table_decodes_and_the_ordered_section_trails_it() {
            let WalOp::CreateTable { schema } = decode_t(&PARENT_CREATE).unwrap() else {
                panic!("not a CreateTable");
            };
            assert!(schema.ordered.is_empty());
            assert_eq!(schema.columns.len(), 3);
            // Without ordered indexes the encoding is what it always was...
            assert_eq!(encoded(&WalOp::CreateTable { schema }), PARENT_CREATE);
            // ...and with them, the same bytes and then the section.
            let with = encoded(&ordered_create());
            assert_eq!(with[..23], PARENT_CREATE);
            assert_eq!(with[23..], [1, 1, b'g', 1, b's']);
            let WalOp::CreateTable { schema } = decode_t(&with).unwrap() else {
                panic!("not a CreateTable");
            };
            assert_eq!(schema.ordered_on("g"), Some(0));
            assert_eq!(schema.ordered[0].order, "s");

            // A section is never empty, holds what it announces, and names
            // a pair of columns the schema allows.
            let section = |bytes: &[u8]| decode_t(&[&PARENT_CREATE[..], bytes].concat());
            assert!(section(&[1, 2, b'i', b'd', 1, b's']).is_ok());
            for hostile in [
                &[0][..],                                 // announced, empty
                &[2, 1, b'g', 1, b's'],                   // one short
                &[1, 1, b'g'],                            // half a pair
                &[1, 1, b'g', 1, b's', 0],                // a byte over
                &[1, 1, b'g', 1, b'x'],                   // no such column
                &[1, 1, b'g', 1, b'g'],                   // ordered by itself
                &[1, 1, b's', 1, b'g'],                   // ordered by a str
                &[2, 1, b'g', 1, b's', 1, b'g', 1, b'i'], // `g` grouped twice
            ] {
                assert!(section(hostile).is_err(), "{hostile:?}");
            }
            // A grouping column that already carries a hash index.
            let mut indexed = PARENT_CREATE.to_vec();
            indexed[17] = INDEX_HASH;
            indexed.extend_from_slice(&[1, 1, b'g', 1, b's']);
            assert!(decode_t(&indexed).is_err());
        }

        #[test]
        fn a_logged_str_order_column_is_malformed_not_a_panic() {
            // `t(id, g, s)` with `s` a str, ordered `g → s`: what a log
            // written before such a declaration was refused may hold.
            let mut create = PARENT_CREATE.to_vec();
            create[20] = TAG_STR;
            create.extend_from_slice(&[1, 1, b'g', 1, b's']);
            assert!(matches!(
                decode_t(&create),
                Err(Undecoded::Malformed(
                    "ordered index the columns do not allow"
                ))
            ));
            // In a log, with a frame after it: corruption, not a table.
            let mut log = (create.len() as u32).to_le_bytes().to_vec();
            log.extend_from_slice(&(!(create.len() as u32)).to_le_bytes());
            log.extend_from_slice(&crc32(&create).to_le_bytes());
            log.extend_from_slice(&create);
            log.extend_from_slice(&log_of(&sample_ops()[..1]));
            assert!(matches!(
                decode_everywhere(&log),
                Err(StoreError::WalCorrupt(_))
            ));
        }

        #[test]
        fn inflated_counts_and_lengths_fail_without_allocating_for_them() {
            // uvarint(2^62): eight continuation bytes, then 0x40.
            const HUGE: [u8; 9] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
            let insert = insert_into_t(Record::new().set("id", "x").set("n", 1i64));
            let create = sample_ops().remove(0);
            let ordered = ordered_create();
            // (op, offset of a one-byte count or length in its payload)
            for (op, at) in [
                (&insert, 1),   // table name length
                (&insert, 3),   // field count
                (&insert, 4),   // first field's name length
                (&insert, 8),   // string value's length
                (&create, 1),   // table name length
                (&create, 6),   // column count
                (&ordered, 23), // ordered-index count
                (&ordered, 24), // grouping column's name length
                (&ordered, 26), // order column's name length
            ] {
                let payload = encoded(op);
                assert!(decode_t(&payload).is_ok());
                let mut inflated = payload[..at].to_vec();
                inflated.extend_from_slice(&HUGE);
                inflated.extend_from_slice(&payload[at + 1..]);
                assert!(decode_t(&inflated).is_err(), "offset {at} of {op:?}");
                // The same payload in a frame whose CRC vouches for it: the
                // decoder is the last line, and it holds.
                let mut frame = (inflated.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(&(!(inflated.len() as u32)).to_le_bytes());
                frame.extend_from_slice(&crc32(&inflated).to_le_bytes());
                frame.extend_from_slice(&inflated);
                let torn = decode_everywhere(&frame).unwrap();
                assert_eq!((torn.ops.len(), torn.torn_tail.unwrap().valid_len), (0, 0));
                frame.extend_from_slice(&log_of(std::slice::from_ref(&insert)));
                assert!(decode_everywhere(&frame).is_err());
            }
            // A frame length inflated to the maximum, complement and all,
            // announces 4 GiB that are not there: a torn tail, not a read.
            let mut frame = u32::MAX.to_le_bytes().to_vec();
            frame.extend_from_slice(&0u32.to_le_bytes());
            frame.extend_from_slice(&[0; 20]);
            assert!(decode_everywhere(&frame).unwrap().torn_tail.is_some());
        }
    }
}
