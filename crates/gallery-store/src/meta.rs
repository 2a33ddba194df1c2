//! The metadata store: named tables, sharded internal locking, group
//! commit, durable through a [`Wal`] (on a [`SimFs`] in RAM for
//! in-memory stores). This is Gallery's stand-in for the HA MySQL
//! service of §3.5 — it provides typed rows,
//! secondary indexes, flexible constraint queries, and durability;
//! replication/HA is out of scope (see DESIGN.md substitutions).
//!
//! ## Write path
//!
//! A local mutation (a) takes the *commit gate* read lock (compaction
//! quiesces writers by taking it in write mode), (b) validates against the
//! schema and checks duplicates under the row's *stripe* write lock (see
//! [`Table`] for the striping), (c) commits the op through the group
//! [`Committer`] — which coalesces concurrent commits into one WAL write +
//! one fsync and assigns the op its global sequence number — and (d)
//! applies the op to the stripe, still under the stripe lock. Because the
//! stripe lock spans steps (b)–(d), per-stripe apply order equals WAL
//! order and the WAL never contains an op that fails on replay.
//!
//! Lock order (outer to inner): gate → catalog → stripe → oplog/commit
//! queue. The committer itself never takes catalog or stripe locks.

use crate::error::{Result, StoreError};
use crate::fault::{sites, FaultPlan};
use crate::query::{Explain, Query};
use crate::record::{Record, Row};
use crate::schema::TableSchema;
use crate::simfs::{real_fs, FileSystem, SimFs};
use crate::table::{StripeLockMetrics, Table, TableStats};
use crate::value::Value;
use crate::wal::{new_shared_oplog, Committer, SharedOplog, SyncPolicy, Wal, WalOp};
use gallery_sync::locks::{OrderedMutex, OrderedRwLock};
use gallery_sync::rank;
use gallery_telemetry::{kinds, Counter, Histogram, Telemetry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for the store's write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Lock stripes per table (clamped to
    /// [`crate::table::MAX_LOCK_STRIPES`]). 1 reproduces the old
    /// store-wide single lock.
    pub lock_stripes: usize,
    /// Queries at least this slow (total executor milliseconds) are
    /// captured into the slow-query ring. 0 captures *every* query,
    /// turning the ring into a recent-query log — the default, so
    /// `gallery slowlog` has something to show on an idle dev store.
    pub slow_query_ms: u64,
    /// Bounded capacity of the slow-query ring.
    pub slow_query_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            lock_stripes: 16,
            slow_query_ms: 0,
            slow_query_capacity: SlowQueryLog::DEFAULT_CAPACITY,
        }
    }
}

/// Outcome of [`MetadataStore::apply_shipped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipApply {
    /// The op was committed at the given sequence.
    Applied,
    /// The local log already contains this sequence; nothing was done.
    AlreadyApplied,
    /// The op is ahead of the local log; the shipper must resend from
    /// `expected`.
    Gap { expected: u64 },
}

/// The six values [`AccessPath::shape`] can take. Per-shape metric
/// cardinality is bounded by this list — shapes are plan classes, never
/// user data. A shape missing here would be planned and never counted
/// (`every_access_path_shape_is_minted` keeps the list whole).
const QUERY_SHAPES: [&str; 6] = [
    "pk",
    "index_eq",
    "index_range",
    "index_top",
    "semi_join",
    "full_scan",
];

/// Wait-time bucket bounds for stripe lock acquisition, in ms. Coarser
/// than the default duration buckets: there are up to
/// [`crate::table::MAX_LOCK_STRIPES`] stripes, and lock contention is an
/// order-of-magnitude question.
const STRIPE_WAIT_BUCKETS_MS: [f64; 6] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0];

/// Store-level metric handles (`gallery_meta_*`, `gallery_store_*`),
/// re-minted whenever the telemetry sink changes.
struct MetaMetrics {
    /// Per-stripe lock contention handles; the `stripe` label is the
    /// stripe index, so cardinality is capped at the configured (clamped)
    /// stripe count.
    stripe_locks: StripeLockMetrics,
    /// Per-plan-shape query counter + latency histogram, pre-minted for
    /// every possible shape so the query hot path never touches the
    /// registry's mint lock.
    query_shapes: Vec<(&'static str, Arc<Counter>, Arc<Histogram>)>,
    /// Queries captured into the slow-query ring.
    slow_queries: Arc<Counter>,
}

impl MetaMetrics {
    fn query_shape(&self, shape: &str) -> Option<(&Arc<Counter>, &Arc<Histogram>)> {
        self.query_shapes
            .iter()
            .find(|(s, _, _)| *s == shape)
            .map(|(_, c, h)| (c, h))
    }
}

fn mint_metrics(telemetry: &Telemetry, cfg: &StoreConfig) -> MetaMetrics {
    let r = telemetry.registry();
    let stripes = cfg.lock_stripes.clamp(1, crate::table::MAX_LOCK_STRIPES);
    r.gauge("gallery_meta_lock_stripes", &[])
        .set(stripes as i64);
    let stripe_locks = StripeLockMetrics {
        wait_ms: (0..stripes)
            .map(|i| {
                r.histogram(
                    "gallery_store_stripe_lock_wait_ms",
                    &[("stripe", &i.to_string())],
                    &STRIPE_WAIT_BUCKETS_MS,
                )
            })
            .collect(),
        hold_us_total: (0..stripes)
            .map(|i| {
                r.counter(
                    "gallery_store_stripe_lock_hold_us_total",
                    &[("stripe", &i.to_string())],
                )
            })
            .collect(),
    };
    MetaMetrics {
        stripe_locks,
        query_shapes: QUERY_SHAPES
            .iter()
            .map(|s| {
                (
                    *s,
                    r.counter("gallery_store_query_total", &[("shape", s)]),
                    r.duration_histogram("gallery_store_query_duration_ms", &[("shape", s)]),
                )
            })
            .collect(),
        slow_queries: r.counter("gallery_store_slow_queries_total", &[]),
    }
}

/// One capture in the slow-query ring: where the query ran, its full
/// [`Explain`] artifact, and the trace active on the calling thread when
/// it executed (0 when none).
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    pub table: String,
    pub explain: Explain,
    pub total_ms: f64,
    pub trace_id: u64,
}

struct SlowLogInner {
    ring: VecDeque<SlowQueryEntry>,
    total: u64,
    dropped: u64,
}

/// Bounded ring of recent slow queries — FlightRecorder-style: always on,
/// cheap to keep, inspected after the fact via `Probe{"slowlog"}` or
/// `gallery slowlog`. Threshold and capacity come from [`StoreConfig`].
pub struct SlowQueryLog {
    threshold_ms: u64,
    capacity: usize,
    inner: OrderedMutex<SlowLogInner>,
}

impl SlowQueryLog {
    pub const DEFAULT_CAPACITY: usize = 64;

    fn new(threshold_ms: u64, capacity: usize) -> Self {
        SlowQueryLog {
            threshold_ms,
            capacity: capacity.max(1),
            inner: OrderedMutex::new(
                rank::SLOW_LOG,
                SlowLogInner {
                    ring: VecDeque::new(),
                    total: 0,
                    dropped: 0,
                },
            ),
        }
    }

    /// Queries at or above this total latency are captured; 0 captures
    /// every query.
    pub fn threshold_ms(&self) -> u64 {
        self.threshold_ms
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn record(&self, entry: SlowQueryEntry) {
        let mut inner = self.inner.lock();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(entry);
        inner.total += 1;
    }

    /// Retained captures, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Captures ever recorded, including evicted ones.
    pub fn total(&self) -> u64 {
        self.inner.lock().total
    }

    /// Captures evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.ring.clear();
        inner.total = 0;
        inner.dropped = 0;
    }

    /// Human-readable dump, newest first — the payload behind
    /// `Probe{"slowlog"}` and `gallery slowlog`.
    pub fn render_text(&self) -> String {
        // Snapshot under the lock, format outside it: rendering a full
        // dump (explain artifacts included) is milliseconds of string
        // work, and the ring lock sits on the query hot path.
        let (entries, total, dropped) = {
            let inner = self.inner.lock();
            (
                inner.ring.iter().cloned().collect::<Vec<_>>(),
                inner.total,
                inner.dropped,
            )
        };
        let mut out = format!(
            "# slow-query log: {} retained, {} captured, {} evicted, threshold {} ms\n",
            entries.len(),
            total,
            dropped,
            self.threshold_ms
        );
        for (i, e) in entries.iter().rev().enumerate() {
            let _ = writeln!(
                out,
                "[{}] table={} shape={} total_ms={:.3} trace_id={}",
                i + 1,
                e.table,
                e.explain.shape(),
                e.total_ms,
                e.trace_id
            );
            for line in e.explain.render().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

/// Thread-safe metadata store, durable through its WAL.
pub struct MetadataStore {
    /// Table name -> table. Tables are internally striped, so the catalog
    /// lock is only held to look up or create tables, never across a
    /// commit (except by `create_table`, which must be atomic with its
    /// duplicate check).
    catalog: OrderedRwLock<HashMap<String, Arc<Table>>>,
    /// The logical operation log, in commit order. Sequence numbers are
    /// 1-based positions into this vector. This is what WAL shipping
    /// replicates: a leader serves `ops_since`, a follower applies through
    /// `apply_shipped`. Recovery seeds it from the physical WAL, so a
    /// restarted follower resumes at exactly the sequence its disk holds.
    oplog: SharedOplog,
    /// Group-commit front end over the WAL (in RAM, on a [`SimFs`], for
    /// in-memory stores).
    committer: Committer,
    /// Commit gate: every mutation holds it in read mode for its full
    /// duration; compaction takes write mode to quiesce the write path.
    gate: OrderedRwLock<()>,
    /// Serializes `apply_shipped` callers so the seq check and commit are
    /// atomic. A store is a shipping leader XOR a follower: local writes
    /// and `apply_shipped` must not interleave (see docs/replication.md).
    ship_lock: OrderedMutex<()>,
    cfg: StoreConfig,
    faults: FaultPlan,
    telemetry: Arc<Telemetry>,
    fs: Arc<dyn FileSystem>,
    metrics: OrderedRwLock<MetaMetrics>,
    slow_log: SlowQueryLog,
}

impl MetadataStore {
    /// Store whose log lives in RAM: the durable write path over its own
    /// fresh [`SimFs`], never fsynced. Every commit is framed, CRC'd and
    /// group-committed exactly as on disk.
    pub fn in_memory() -> Self {
        Self::in_memory_with_config(StoreConfig::default())
    }

    /// [`MetadataStore::in_memory`] with explicit write-path tuning.
    // Recovering an empty, fresh SimFs replays nothing and opening its log
    // cannot fail; a panic here is a bug in SimFs.
    #[allow(clippy::disallowed_methods)]
    pub fn in_memory_with_config(cfg: StoreConfig) -> Self {
        Self::durable_with_config(
            Arc::new(SimFs::new()),
            "/wal.log",
            SyncPolicy::Never,
            Arc::clone(gallery_telemetry::global()),
            cfg,
        )
        .expect("a fresh SimFs log cannot fail to open")
    }

    /// Store durable through a WAL at `path`. Replays any existing log;
    /// a torn final record (the expected crash artifact) is truncated away
    /// and surfaced through telemetry (see [`Wal::recover`]).
    pub fn durable(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self> {
        Self::durable_with(
            real_fs(),
            path,
            sync,
            Arc::clone(gallery_telemetry::global()),
        )
    }

    /// [`MetadataStore::durable`] over an explicit file system (the
    /// crash-consistency harness passes a [`crate::simfs::SimFs`]).
    pub fn durable_with_fs(
        fs: Arc<dyn FileSystem>,
        path: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<Self> {
        Self::durable_with(fs, path, sync, Arc::clone(gallery_telemetry::global()))
    }

    /// Fully explicit durable constructor: file system *and* telemetry.
    /// Recovery-time events (torn-tail truncation) land in `telemetry`,
    /// which `with_telemetry` — running after the fact — could not capture.
    pub fn durable_with(
        fs: Arc<dyn FileSystem>,
        path: impl AsRef<Path>,
        sync: SyncPolicy,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self> {
        Self::durable_with_config(fs, path, sync, telemetry, StoreConfig::default())
    }

    /// [`MetadataStore::durable_with`] with explicit write-path tuning.
    /// The config must be supplied at construction because recovery
    /// replay already builds (striped) tables.
    pub fn durable_with_config(
        fs: Arc<dyn FileSystem>,
        path: impl AsRef<Path>,
        sync: SyncPolicy,
        telemetry: Arc<Telemetry>,
        cfg: StoreConfig,
    ) -> Result<Self> {
        let path = path.as_ref();
        let ops = Wal::recover(&*fs, path, &telemetry)?;
        let metrics = mint_metrics(&telemetry, &cfg);
        let oplog = new_shared_oplog();
        let wal = Wal::open_with_fs(Arc::clone(&fs), path, sync)?.with_telemetry(&telemetry);
        let mut committer = Committer::new(wal, Arc::clone(&oplog));
        committer.set_telemetry(&telemetry);
        let store = MetadataStore {
            catalog: OrderedRwLock::new(rank::CATALOG, HashMap::new()),
            oplog,
            committer,
            gate: OrderedRwLock::new(rank::GATE, ()),
            ship_lock: OrderedMutex::new(rank::SHIP_LOCK, ()),
            cfg,
            faults: FaultPlan::none(),
            telemetry,
            fs,
            metrics: OrderedRwLock::new(rank::META_METRICS, metrics),
            slow_log: SlowQueryLog::new(cfg.slow_query_ms, cfg.slow_query_capacity),
        };
        {
            // The oplog ranks after the stripes, so it is locked briefly
            // per op rather than held across `apply_to_tables` (which
            // takes stripe locks). Recovery is single-threaded; this is
            // purely lock-order hygiene.
            let mut catalog = store.catalog.write();
            for (i, op) in ops.into_iter().enumerate() {
                store.apply_to_tables(&mut catalog, &op, i as u64 + 1)?;
                store.oplog.lock().push(Arc::new(op));
            }
        }
        Ok(store)
    }

    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Route WAL metrics/events to `telemetry` instead of the process
    /// global (isolated tests, E15 overhead baselines).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.committer.wal().lock().set_telemetry(&telemetry);
        self.committer.set_telemetry(&telemetry);
        let metrics = mint_metrics(&telemetry, &self.cfg);
        for table in self.catalog.read().values() {
            table.set_lock_metrics(metrics.stripe_locks.clone());
        }
        *self.metrics.write() = metrics;
        MetadataStore { telemetry, ..self }
    }

    /// The store's write-path configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    fn new_table(&self, schema: Arc<TableSchema>) -> Arc<Table> {
        let table = Table::with_config(schema, self.cfg.lock_stripes);
        table.set_lock_metrics(self.metrics.read().stripe_locks.clone());
        Arc::new(table)
    }

    fn table_arc(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    /// Apply an op directly to the tables (recovery replay: the op is
    /// already durable, so there is nothing to commit).
    fn apply_to_tables(
        &self,
        catalog: &mut HashMap<String, Arc<Table>>,
        op: &WalOp,
        seq: u64,
    ) -> Result<()> {
        match op {
            WalOp::CreateTable { schema } => {
                if catalog.contains_key(&schema.name) {
                    return Err(StoreError::TableExists(schema.name.clone()));
                }
                catalog.insert(schema.name.clone(), self.new_table(Arc::clone(schema)));
                Ok(())
            }
            WalOp::Insert { table, row } => {
                let t = catalog
                    .get(table)
                    .ok_or_else(|| StoreError::NoSuchTable(table.clone()))?;
                // Replay decoded the row against this table's schema: it
                // was placed, and checked, as it was read.
                let row = t.adopt(Arc::clone(row))?;
                let pk = t.key_of(&row);
                let mut token = t.lock_stripe(pk);
                if token.contains(pk) {
                    return Err(StoreError::DuplicateKey(pk.to_owned()));
                }
                token.apply_insert(Arc::clone(&row), seq);
                Ok(())
            }
            WalOp::SetFlag {
                table,
                pk,
                column,
                value,
            } => {
                let t = catalog
                    .get(table)
                    .ok_or_else(|| StoreError::NoSuchTable(table.clone()))?;
                t.set_flag(pk, column, *value)
            }
        }
    }

    /// Number of operations committed to this store, ever (1-based
    /// sequence of the newest op). Followers report this as their applied
    /// sequence; `leader.applied_seq() - follower.applied_seq()` is the
    /// replication lag in ops.
    pub fn applied_seq(&self) -> u64 {
        self.oplog.lock().len() as u64
    }

    /// Ops with sequence numbers in `(from_seq, from_seq + max]` — what a
    /// leader ships to a follower that has applied `from_seq`.
    pub fn ops_since(&self, from_seq: u64, max: usize) -> Vec<(u64, WalOp)> {
        let oplog = self.oplog.lock();
        let start = (from_seq as usize).min(oplog.len());
        oplog[start..]
            .iter()
            .take(max)
            .enumerate()
            .map(|(i, op)| ((start + i + 1) as u64, (**op).clone()))
            .collect()
    }

    /// Apply one shipped op at sequence `seq`. Replay-idempotent: a seq at
    /// or below the local applied sequence is skipped (the follower
    /// already has it — e.g. both sides bootstrapped the same schema ops,
    /// or a re-ship overlapped), a seq exactly one past it is committed
    /// through the same WAL-first path as local writes, and a seq further
    /// ahead reports the gap so the shipper can rewind.
    pub fn apply_shipped(&self, seq: u64, op: WalOp) -> Result<ShipApply> {
        let _gate = self.gate.read();
        let _ship = self.ship_lock.lock();
        let applied = self.applied_seq();
        if seq <= applied {
            return Ok(ShipApply::AlreadyApplied);
        }
        if seq > applied + 1 {
            return Ok(ShipApply::Gap {
                expected: applied + 1,
            });
        }
        let committed = match op {
            WalOp::CreateTable { schema } => self.create_table_inner(schema)?,
            WalOp::Insert { table, row } => {
                let t = self.table_arc(&table)?;
                let row = t.adopt(row)?;
                self.insert_row(&t, table, row)?
            }
            WalOp::SetFlag {
                table,
                pk,
                column,
                value,
            } => self.set_flag_inner(&table, &pk, &column, value)?,
        };
        debug_assert_eq!(
            committed, seq,
            "shipped seq must match committed seq (leader-XOR-follower violated?)"
        );
        Ok(ShipApply::Applied)
    }

    /// Create a table.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let _gate = self.gate.read();
        self.create_table_inner(Arc::new(schema))?;
        Ok(())
    }

    fn create_table_inner(&self, schema: Arc<TableSchema>) -> Result<u64> {
        // Hold the catalog write lock across the commit so the duplicate
        // check and the insert are atomic.
        let mut catalog = self.catalog.write();
        if catalog.contains_key(&schema.name) {
            return Err(StoreError::TableExists(schema.name.clone()));
        }
        let seq = self.committer.commit(WalOp::CreateTable {
            schema: Arc::clone(&schema),
        })?;
        catalog.insert(schema.name.clone(), self.new_table(schema));
        Ok(seq)
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().contains_key(name)
    }

    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().keys().cloned().collect()
    }

    /// The schema of `table`, shared with its rows; what a shipped frame's
    /// insert is decoded against.
    pub(crate) fn schema_of(&self, table: &str) -> Option<Arc<TableSchema>> {
        let catalog = self.catalog.read();
        catalog.get(table).map(|t| Arc::clone(t.schema()))
    }

    /// Insert an immutable record. WAL-first so that an acknowledged insert
    /// survives restart. The row's stripe stays locked from the duplicate
    /// check through the commit and apply, so concurrent inserts to other
    /// stripes proceed in parallel while same-key races are impossible.
    pub fn insert(&self, table: &str, record: Record) -> Result<()> {
        if self.faults.should_fail(sites::META_INSERT) {
            return Err(StoreError::InjectedFault(sites::META_INSERT));
        }
        let _gate = self.gate.read();
        let t = self.table_arc(table)?;
        // Validated and placed before logging, so the WAL never contains
        // an op that fails on replay.
        let row = Arc::new(t.schema().place(record)?);
        self.insert_row(&t, table.to_owned(), row)?;
        Ok(())
    }

    /// Commit and apply a row placed against `t`'s schema.
    fn insert_row(&self, t: &Table, table: String, row: Arc<Row>) -> Result<u64> {
        let pk = t.key_of(&row);
        let mut token = t.lock_stripe(pk);
        if token.contains(pk) {
            return Err(StoreError::DuplicateKey(pk.to_owned()));
        }
        // The oplog entry and the table row share one allocation.
        let seq = self.committer.commit(WalOp::Insert {
            table,
            row: Arc::clone(&row),
        })?;
        token.apply_insert(Arc::clone(&row), seq);
        Ok(seq)
    }

    /// Insert a batch of records. All rows are validated (schema,
    /// duplicate keys — within the batch and against the table) before
    /// anything commits; the involved stripes are locked in index order;
    /// the whole batch is enqueued to the group committer at once, so it
    /// normally lands in a single WAL write + fsync.
    ///
    /// Not a transaction: on a mid-batch crash a *prefix* of the batch may
    /// survive recovery — but the call only returns `Ok` after every row
    /// is durable, so no acknowledged row can be lost.
    pub fn insert_many(&self, table: &str, records: Vec<Record>) -> Result<usize> {
        if records.is_empty() {
            return Ok(0);
        }
        if self.faults.should_fail(sites::META_INSERT) {
            return Err(StoreError::InjectedFault(sites::META_INSERT));
        }
        let _gate = self.gate.read();
        let t = self.table_arc(table)?;
        let rows = records
            .into_iter()
            .map(|record| t.schema().place(record).map(Arc::new))
            .collect::<Result<Vec<Arc<Row>>>>()?;
        let pks: Vec<&str> = rows.iter().map(|row| t.key_of(row)).collect();
        let mut seen = HashSet::with_capacity(pks.len());
        for pk in &pks {
            if !seen.insert(*pk) {
                return Err(StoreError::DuplicateKey((*pk).to_owned()));
            }
        }
        let mut token = t.lock_stripe_set(&pks);
        for pk in &pks {
            if token.contains(pk)? {
                return Err(StoreError::DuplicateKey((*pk).to_owned()));
            }
        }
        let ops: Vec<WalOp> = rows
            .iter()
            .map(|row| WalOp::Insert {
                table: table.to_owned(),
                row: Arc::clone(row),
            })
            .collect();
        let seqs = self.committer.commit_many(ops)?;
        for (row, seq) in rows.iter().zip(seqs) {
            token.apply_insert(Arc::clone(row), seq)?;
        }
        Ok(rows.len())
    }

    /// Point lookup by primary key: the stored row itself, shared, not a
    /// copy. It is an immutable snapshot — a later `set_flag` copies the
    /// row on write and this handle keeps reading the old value.
    pub fn get(&self, table: &str, pk: &str) -> Result<Option<Arc<Row>>> {
        let t = self.table_arc(table)?;
        Ok(t.peek(pk))
    }

    /// Set a mutable flag column (e.g. `deprecated`).
    pub fn set_flag(&self, table: &str, pk: &str, column: &str, value: bool) -> Result<()> {
        let _gate = self.gate.read();
        self.set_flag_inner(table, pk, column, value)?;
        Ok(())
    }

    fn set_flag_inner(&self, table: &str, pk: &str, column: &str, value: bool) -> Result<u64> {
        let t = self.table_arc(table)?;
        // Validate everything before logging.
        let at = t.check_flag_column(column)?;
        let mut token = t.lock_stripe(pk);
        if !token.contains(pk) {
            return Err(StoreError::NoSuchKey(pk.to_owned()));
        }
        let seq = self.committer.commit(WalOp::SetFlag {
            table: table.to_owned(),
            pk: pk.to_owned(),
            column: column.to_owned(),
            value,
        })?;
        token.apply_set_flag(pk, at, value);
        Ok(seq)
    }

    /// Execute a constraint query. Rows are shared immutable snapshots,
    /// as for [`MetadataStore::get`].
    pub fn query(&self, table: &str, query: &Query) -> Result<Vec<Arc<Row>>> {
        Ok(self.query_explain_full(table, query)?.0)
    }

    /// Execute a query and return the full [`Explain`] artifact: chosen
    /// path, estimated vs. actual rows scanned, and per-stage timings.
    /// Every query — whichever entry point it arrived through — funnels
    /// here, so the per-shape metrics and the slow-query ring see all of
    /// them.
    pub fn query_explain_full(
        &self,
        table: &str,
        query: &Query,
    ) -> Result<(Vec<Arc<Row>>, Explain)> {
        if self.faults.should_fail(sites::META_QUERY) {
            return Err(StoreError::InjectedFault(sites::META_QUERY));
        }
        let t = self.table_arc(table)?;
        let started = Instant::now();
        let (rows, explain) = t.execute_explain(query)?;
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        self.record_query(table, &explain, total_ms);
        Ok((rows, explain))
    }

    /// Feed one finished query into the per-shape metrics and (if it
    /// clears the threshold) the slow-query ring. A disabled telemetry
    /// bundle skips everything — the introspection layer must cost nothing
    /// when it is off (E21's overhead gate).
    fn record_query(&self, table: &str, explain: &Explain, total_ms: f64) {
        if !self.telemetry.registry().is_enabled() {
            return;
        }
        let trace_id = self.telemetry.tracer().current_trace_id();
        let capture = {
            let metrics = self.metrics.read();
            if let Some((counter, histogram)) = metrics.query_shape(explain.shape()) {
                counter.inc();
                histogram.observe_with_exemplar(total_ms, trace_id);
            }
            let capture = total_ms >= self.slow_log.threshold_ms() as f64;
            if capture {
                metrics.slow_queries.inc();
            }
            capture
        };
        if capture {
            self.slow_log.record(SlowQueryEntry {
                table: table.to_owned(),
                explain: explain.clone(),
                total_ms,
                trace_id,
            });
        }
    }

    /// [`Table::semi_join`] on `table`: which of `keys` have a row with
    /// `column == key` that `residual` accepts. One fault check, one entry
    /// in the per-shape metrics and the slow-query ring for the whole key
    /// set — and none where there are no keys, for nothing is read.
    pub fn semi_join(
        &self,
        table: &str,
        column: &str,
        keys: &[&Value],
        residual: &Query,
    ) -> Result<(Vec<bool>, Explain)> {
        if self.faults.should_fail(sites::META_QUERY) {
            return Err(StoreError::InjectedFault(sites::META_QUERY));
        }
        let t = self.table_arc(table)?;
        let started = Instant::now();
        let (hits, explain) = t.semi_join(column, keys, residual)?;
        if !keys.is_empty() {
            let total_ms = started.elapsed().as_secs_f64() * 1e3;
            self.record_query(table, &explain, total_ms);
        }
        Ok((hits, explain))
    }

    /// The slow-query ring: plan, timings, and trace id per capture.
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow_log
    }

    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table_arc(table)?.len())
    }

    pub fn table_stats(&self, table: &str) -> Result<TableStats> {
        Ok(self.table_arc(table)?.stats())
    }

    /// Does nothing and returns 0: every index is current at insert, so
    /// there is no pending index work to apply. Kept because the load
    /// benchmark (`loadbench/`) still calls it.
    pub fn flush_index_deltas(&self) -> usize {
        0
    }

    /// Approximate resident bytes across all tables.
    pub fn approx_size(&self) -> usize {
        let catalog = self.catalog.read();
        catalog.values().map(|t| t.approx_size()).sum()
    }

    /// Total live records across all tables (the `gallery_meta_records`
    /// gauge behind `gallery stats`).
    pub fn total_rows(&self) -> usize {
        let catalog = self.catalog.read();
        catalog.values().map(|t| t.len()).sum()
    }

    /// Entries appended to the WAL by this store instance.
    pub fn wal_entries(&self) -> u64 {
        self.committer.wal().lock().entries_written()
    }

    /// WAL size in bytes; `None` if the file system cannot stat the log.
    pub fn wal_size_bytes(&self) -> Option<u64> {
        let path = self.committer.wal().lock().path().to_path_buf();
        self.fs.len(&path).ok()
    }

    /// Compact the WAL: rewrite it as the minimal operation sequence that
    /// reproduces the current state (one `CreateTable` per table and one
    /// `Insert` per live row — flag mutations are already materialized in
    /// the rows). The compacted log is written to a temporary file, fsynced,
    /// and atomically renamed over the old log, so a crash at any point
    /// leaves a replayable log.
    ///
    /// Takes the commit gate in write mode, which quiesces every writer
    /// (all mutations hold the gate in read mode across their commit), so
    /// the snapshot is consistent and no commit can race the WAL swap.
    ///
    /// Compaction rewrites the *physical* log only; the in-memory oplog
    /// (replication sequence) is untouched. A restart after compaction
    /// reseeds the oplog from the compacted WAL, which renumbers the
    /// sequence — so compact a replicated shard store only when its
    /// followers will be re-seeded from scratch (see docs/replication.md).
    pub fn compact(&self) -> Result<u64> {
        let _quiesce = self.gate.write();
        // Catalog before WAL, per the declared rank order: create_table
        // holds the catalog across its commit (catalog → wal), so taking
        // the WAL lock first here would close an acquired-before cycle.
        let catalog = self.catalog.read();
        let (path, sync) = {
            let wal = self.committer.wal().lock();
            (wal.path().to_path_buf(), wal.sync_policy())
        };
        // The snapshot reads every stripe, which rank before the WAL, so
        // the compacted file is written without it: the gate and the
        // catalog lock already keep every writer out.
        let tmp = path.with_extension("compacting");
        let mut compacted = Wal::create_with_fs(Arc::clone(&self.fs), &tmp, SyncPolicy::Never)?;
        let mut table_names: Vec<&String> = catalog.keys().collect();
        table_names.sort();
        let mut entries = 0u64;
        for name in table_names {
            let table = &catalog[name];
            compacted.append(&WalOp::CreateTable {
                schema: Arc::clone(table.schema()),
            })?;
            entries += 1;
            for row in table.snapshot_seq_order() {
                compacted.append(&WalOp::Insert {
                    table: name.clone(),
                    row,
                })?;
                entries += 1;
            }
        }
        compacted.sync_all()?;
        drop(compacted);
        {
            let mut wal = self.committer.wal().lock();
            self.fs.rename(&tmp, &path)?;
            *wal = Wal::open_with_fs(Arc::clone(&self.fs), &path, sync)?
                .with_telemetry(&self.telemetry);
        }
        self.telemetry.events().emit(
            kinds::WAL_FLUSH,
            vec![
                ("entries", entries.to_string().into()),
                ("reason", "compact".into()),
            ],
        );
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Constraint;
    use crate::schema::ColumnDef;
    use crate::value::{Value, ValueType};
    use std::path::PathBuf;

    fn schema() -> TableSchema {
        TableSchema::new(
            "models",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("name", ValueType::Str).hash_indexed(),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ],
        )
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gallery-meta-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn create_insert_query() {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        store
            .insert("models", Record::new().set("id", "m1").set("name", "rf"))
            .unwrap();
        let rows = store
            .query("models", &Query::all().and(Constraint::eq("name", "rf")))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(store.row_count("models").unwrap(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        assert!(matches!(
            store.create_table(schema()),
            Err(StoreError::TableExists(_))
        ));
    }

    #[test]
    fn missing_table_errors() {
        let store = MetadataStore::in_memory();
        assert!(matches!(
            store.insert("nope", Record::new().set("id", "x")),
            Err(StoreError::NoSuchTable(_))
        ));
        assert!(store.get("nope", "x").is_err());
        assert!(store.query("nope", &Query::all()).is_err());
    }

    #[test]
    fn durability_roundtrip() {
        let path = tmp("durable");
        {
            let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
            store.create_table(schema()).unwrap();
            store
                .insert("models", Record::new().set("id", "m1").set("name", "rf"))
                .unwrap();
            store.set_flag("models", "m1", "deprecated", true).unwrap();
        }
        let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.row_count("models").unwrap(), 1);
        let rec = store.get("models", "m1").unwrap().unwrap();
        assert_eq!(rec.get("deprecated"), Some(&Value::Bool(true)));
    }

    #[test]
    fn readers_keep_snapshots_across_set_flag() {
        let path = tmp("snapshots");
        let deprecated = |r: &Row| r.get("deprecated") == Some(&Value::Bool(true));
        let all = Query::all().with_deprecated();
        {
            let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
            store.create_table(schema()).unwrap();
            let row = Record::new()
                .set("id", "m1")
                .set("name", "rf")
                .set("deprecated", false);
            store.insert("models", row).unwrap();
            let queried = store.query("models", &all).unwrap();
            let got = store.get("models", "m1").unwrap().unwrap();
            let [at] = got.schema().positions(["deprecated"]);
            store.set_flag("models", "m1", "deprecated", true).unwrap();
            // Rows handed out before the write are unchanged, by name and
            // by position; so is the oplog's copy of the insert, which
            // shared their allocation.
            assert_eq!(queried[0].get("deprecated"), Some(&Value::Bool(false)));
            assert_eq!(got.values_at(&[at]), [&Value::Bool(false)]);
            let logged = store.ops_since(0, usize::MAX);
            assert!(logged.iter().any(|(_, op)| matches!(
                op,
                WalOp::Insert { row, .. } if Arc::ptr_eq(row, &got) && !deprecated(row)
            )));
            // A fresh read sees the flag.
            assert!(deprecated(&store.query("models", &all).unwrap()[0]));
            assert!(deprecated(&store.get("models", "m1").unwrap().unwrap()));
        }
        // Replay reaches the same state: insert without the flag, then the flag.
        let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert!(deprecated(&store.get("models", "m1").unwrap().unwrap()));
        assert_eq!(store.applied_seq(), 3);
    }

    #[test]
    fn rejected_writes_not_logged() {
        let path = tmp("rejects");
        {
            let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
            store.create_table(schema()).unwrap();
            store
                .insert("models", Record::new().set("id", "m1").set("name", "rf"))
                .unwrap();
            // Duplicate key: must not reach the WAL.
            assert!(store
                .insert("models", Record::new().set("id", "m1").set("name", "x"))
                .is_err());
            // Type error: must not reach the WAL.
            assert!(store
                .insert("models", Record::new().set("id", "m2").set("name", 5i64))
                .is_err());
        }
        // Replay must succeed (a bad op in the log would fail).
        let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.row_count("models").unwrap(), 1);
    }

    #[test]
    fn injected_insert_fault() {
        let plan = FaultPlan::none();
        plan.fail_always(sites::META_INSERT);
        let store = MetadataStore::in_memory().with_faults(plan);
        store.create_table(schema()).unwrap();
        assert!(matches!(
            store.insert("models", Record::new().set("id", "m1").set("name", "rf")),
            Err(StoreError::InjectedFault(_))
        ));
        assert_eq!(store.row_count("models").unwrap(), 0);
    }

    #[test]
    fn concurrent_inserts() {
        let store = Arc::new(MetadataStore::in_memory());
        store.create_table(schema()).unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    store
                        .insert(
                            "models",
                            Record::new()
                                .set("id", format!("m{t}-{i}"))
                                .set("name", "rf"),
                        )
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.row_count("models").unwrap(), 1000);
        assert_eq!(store.applied_seq(), 1001);
    }

    #[test]
    fn concurrent_durable_inserts_group_commit() {
        let path = tmp("group-commit");
        let store = Arc::new(MetadataStore::durable(&path, SyncPolicy::Always).unwrap());
        store.create_table(schema()).unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    store
                        .insert(
                            "models",
                            Record::new()
                                .set("id", format!("g{t}-{i}"))
                                .set("name", "rf"),
                        )
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.row_count("models").unwrap(), 400);
        assert_eq!(store.wal_entries(), 401);
        drop(store);
        // Everything durable and replayable.
        let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(restored.row_count("models").unwrap(), 400);
        assert_eq!(restored.applied_seq(), 401);
    }

    #[test]
    fn insert_many_batch() {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        let records: Vec<Record> = (0..10)
            .map(|i| Record::new().set("id", format!("b{i}")).set("name", "rf"))
            .collect();
        assert_eq!(store.insert_many("models", records).unwrap(), 10);
        assert_eq!(store.row_count("models").unwrap(), 10);
        assert_eq!(store.applied_seq(), 11);
        // Query sees all batch rows.
        let rows = store
            .query("models", &Query::all().and(Constraint::eq("name", "rf")))
            .unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn insert_many_rejects_dups_atomically() {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        store
            .insert("models", Record::new().set("id", "x").set("name", "rf"))
            .unwrap();
        // Duplicate against the table.
        let batch = vec![
            Record::new().set("id", "a").set("name", "rf"),
            Record::new().set("id", "x").set("name", "rf"),
        ];
        assert!(matches!(
            store.insert_many("models", batch),
            Err(StoreError::DuplicateKey(_))
        ));
        // Duplicate within the batch.
        let batch = vec![
            Record::new().set("id", "b").set("name", "rf"),
            Record::new().set("id", "b").set("name", "rf"),
        ];
        assert!(matches!(
            store.insert_many("models", batch),
            Err(StoreError::DuplicateKey(_))
        ));
        // Nothing from either rejected batch landed.
        assert_eq!(store.row_count("models").unwrap(), 1);
        assert_eq!(store.applied_seq(), 2);
    }

    #[test]
    fn a_logged_row_that_repeats_a_column_replays_with_its_first_value() {
        // Hand-built: what a writer logged before such rows were refused.
        // Op, "models", three fields: id "m1", name "rf", then name "lr".
        let payload = [
            &[2, 6][..],
            b"models",
            &[3, 2],
            b"id",
            &[4, 2],
            b"m1",
            &[4],
            b"name",
            &[4, 2],
            b"rf",
            &[4],
            b"name",
            &[4, 2],
            b"lr",
        ]
        .concat();
        let path = tmp("repeated");
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        wal.append(&WalOp::CreateTable {
            schema: Arc::new(schema()),
        })
        .unwrap();
        drop(wal);
        let len = payload.len() as u32;
        let mut log = std::fs::read(&path).unwrap();
        log.extend_from_slice(&len.to_le_bytes());
        log.extend_from_slice(&(!len).to_le_bytes());
        log.extend_from_slice(&crate::blob::checksum::crc32(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        std::fs::write(&path, &log).unwrap();
        let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        let row = store.get("models", "m1").unwrap().unwrap();
        assert_eq!(row.get("name"), Some(&Value::from("rf")));
        assert_eq!(std::fs::read(&path).unwrap(), log, "nothing healed away");
    }

    #[test]
    fn a_column_given_twice_is_refused_before_the_log_sees_it() {
        fn refused<T>(result: Result<T>) -> bool {
            matches!(result, Err(StoreError::DuplicateColumn { column, .. }) if column == "name")
        }
        let twice = |id: &str| -> Record {
            let name = |n: &str| ("name", Value::from(n));
            [("id", Value::from(id)), name("rf"), name("lr")]
                .into_iter()
                .collect()
        };
        let path = tmp("twice");
        {
            let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
            store.create_table(schema()).unwrap();
            let row = Record::new().set("id", "m0").set("name", "rf");
            store.insert("models", row).unwrap();
            let logged = (store.applied_seq(), store.wal_size_bytes());
            assert!(refused(store.insert("models", twice("m1"))));
            let fine = Record::new().set("id", "m2").set("name", "rf");
            assert!(refused(
                store.insert_many("models", vec![fine, twice("m3")])
            ));
            assert_eq!((store.applied_seq(), store.wal_size_bytes()), logged);
            assert_eq!(store.row_count("models").unwrap(), 1);
        }
        let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(restored.row_count("models").unwrap(), 1);
    }

    #[test]
    fn insert_many_durable_roundtrip() {
        let path = tmp("many-durable");
        {
            let store = MetadataStore::durable(&path, SyncPolicy::Always).unwrap();
            store.create_table(schema()).unwrap();
            let records: Vec<Record> = (0..20)
                .map(|i| Record::new().set("id", format!("d{i}")).set("name", "rf"))
                .collect();
            store.insert_many("models", records).unwrap();
        }
        let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(restored.row_count("models").unwrap(), 20);
    }
}

#[cfg(test)]
mod oplog_tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{Value, ValueType};
    use std::path::PathBuf;

    fn schema() -> TableSchema {
        TableSchema::new(
            "models",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("name", ValueType::Str).hash_indexed(),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ],
        )
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gallery-oplog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn leader_with_ops() -> MetadataStore {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        for i in 0..5 {
            store
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        store.set_flag("models", "m2", "deprecated", true).unwrap();
        store
    }

    #[test]
    fn every_commit_advances_the_sequence() {
        let leader = leader_with_ops();
        // 1 create-table + 5 inserts + 1 set-flag.
        assert_eq!(leader.applied_seq(), 7);
        let all = leader.ops_since(0, 100);
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].0, 1);
        assert_eq!(all[6].0, 7);
        // Windowing.
        let tail = leader.ops_since(5, 100);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 6);
        assert_eq!(leader.ops_since(7, 100).len(), 0);
        assert_eq!(leader.ops_since(999, 100).len(), 0);
        assert_eq!(leader.ops_since(0, 3).len(), 3);
    }

    #[test]
    fn rejected_writes_do_not_advance_the_sequence() {
        let leader = leader_with_ops();
        let seq = leader.applied_seq();
        assert!(leader
            .insert("models", Record::new().set("id", "m0").set("name", "x"))
            .is_err());
        assert!(leader.insert("nope", Record::new().set("id", "z")).is_err());
        assert_eq!(leader.applied_seq(), seq);
    }

    #[test]
    fn shipped_ops_replicate_a_leader() {
        let leader = leader_with_ops();
        let follower = MetadataStore::in_memory();
        for (seq, op) in leader.ops_since(0, 1000) {
            assert_eq!(follower.apply_shipped(seq, op).unwrap(), ShipApply::Applied);
        }
        assert_eq!(follower.applied_seq(), leader.applied_seq());
        assert_eq!(follower.row_count("models").unwrap(), 5);
        let rec = follower.get("models", "m2").unwrap().unwrap();
        assert_eq!(rec.get("deprecated"), Some(&Value::Bool(true)));
    }

    #[test]
    fn apply_shipped_is_replay_idempotent_and_detects_gaps() {
        let leader = leader_with_ops();
        let follower = MetadataStore::in_memory();
        let ops = leader.ops_since(0, 1000);
        // A gap is reported, not applied.
        assert_eq!(
            follower.apply_shipped(3, ops[2].1.clone()).unwrap(),
            ShipApply::Gap { expected: 1 }
        );
        assert_eq!(follower.applied_seq(), 0);
        // Normal apply, then replay the same frames: all skipped.
        for (seq, op) in &ops {
            follower.apply_shipped(*seq, op.clone()).unwrap();
        }
        for (seq, op) in &ops {
            assert_eq!(
                follower.apply_shipped(*seq, op.clone()).unwrap(),
                ShipApply::AlreadyApplied
            );
        }
        assert_eq!(follower.applied_seq(), leader.applied_seq());
        assert_eq!(follower.row_count("models").unwrap(), 5);
    }

    #[test]
    fn durable_follower_resumes_sequence_after_restart() {
        let path = tmp("resume");
        let leader = leader_with_ops();
        let ops = leader.ops_since(0, 1000);
        {
            let follower = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
            for (seq, op) in ops.iter().take(4) {
                follower.apply_shipped(*seq, op.clone()).unwrap();
            }
            assert_eq!(follower.applied_seq(), 4);
        }
        // Restart: the WAL holds exactly the shipped prefix, so the oplog
        // reseeds to sequence 4 and shipping resumes from there.
        let follower = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(follower.applied_seq(), 4);
        for (seq, op) in ops.iter().skip(4) {
            assert_eq!(
                follower.apply_shipped(*seq, op.clone()).unwrap(),
                ShipApply::Applied
            );
        }
        assert_eq!(follower.applied_seq(), leader.applied_seq());
        assert_eq!(follower.row_count("models").unwrap(), 5);
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use crate::query::Constraint;
    use crate::schema::ColumnDef;
    use crate::value::{Value, ValueType};
    use std::path::PathBuf;

    fn schema() -> TableSchema {
        TableSchema::new(
            "models",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("name", ValueType::Str).hash_indexed(),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ],
        )
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gallery-compact-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_state() {
        let path = tmp("shrink");
        let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        store.create_table(schema()).unwrap();
        // Many flag flips blow up the raw log relative to the live state.
        for i in 0..50 {
            store
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        for _ in 0..10 {
            for i in 0..50 {
                store
                    .set_flag("models", &format!("m{i}"), "deprecated", true)
                    .unwrap();
                store
                    .set_flag("models", &format!("m{i}"), "deprecated", false)
                    .unwrap();
            }
        }
        store.set_flag("models", "m7", "deprecated", true).unwrap();
        let before = store.wal_size_bytes().unwrap();
        let entries = store.compact().unwrap();
        let after = store.wal_size_bytes().unwrap();
        assert_eq!(entries, 1 + 50);
        assert!(after < before / 5, "log must shrink: {before} -> {after}");

        // State survives compaction + restart, including the final flags.
        drop(store);
        let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(restored.row_count("models").unwrap(), 50);
        let rec = restored.get("models", "m7").unwrap().unwrap();
        assert_eq!(rec.get("deprecated"), Some(&Value::Bool(true)));
        let rec = restored.get("models", "m8").unwrap().unwrap();
        assert_eq!(rec.get("deprecated"), Some(&Value::Bool(false)));
        // Indexes rebuilt correctly.
        let rows = restored
            .query(
                "models",
                &Query::all()
                    .and(Constraint::eq("name", "rf"))
                    .with_deprecated(),
            )
            .unwrap();
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn writes_continue_after_compaction() {
        let path = tmp("continue");
        let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        store.create_table(schema()).unwrap();
        store
            .insert("models", Record::new().set("id", "a").set("name", "x"))
            .unwrap();
        store.compact().unwrap();
        store
            .insert("models", Record::new().set("id", "b").set("name", "y"))
            .unwrap();
        drop(store);
        let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        assert_eq!(restored.row_count("models").unwrap(), 2);
    }

    #[test]
    fn in_memory_compaction_shrinks_log_and_preserves_state() {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        for i in 0..20 {
            store
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        for _ in 0..10 {
            store.set_flag("models", "m3", "deprecated", true).unwrap();
            store.set_flag("models", "m3", "deprecated", false).unwrap();
        }
        store.set_flag("models", "m7", "deprecated", true).unwrap();
        let before = store.wal_size_bytes().unwrap();
        assert_eq!(store.compact().unwrap(), 1 + 20);
        let after = store.wal_size_bytes().unwrap();
        assert!(after < before, "log must shrink: {before} -> {after}");
        assert_eq!(store.row_count("models").unwrap(), 20);
        let rec = store.get("models", "m7").unwrap().unwrap();
        assert_eq!(rec.get("deprecated"), Some(&Value::Bool(true)));
        let rec = store.get("models", "m3").unwrap().unwrap();
        assert_eq!(rec.get("deprecated"), Some(&Value::Bool(false)));
        // The swapped-in log takes new writes.
        store
            .insert("models", Record::new().set("id", "late").set("name", "x"))
            .unwrap();
        assert_eq!(store.wal_entries(), 1);
        assert!(store.wal_size_bytes().unwrap() > after);
    }

    #[test]
    fn in_memory_log_replays() {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        store
            .insert("models", Record::new().set("id", "a").set("name", "x"))
            .unwrap();
        assert_eq!(store.wal_entries(), store.applied_seq());
        assert!(store.wal_size_bytes().unwrap() > 0);

        // The same write path over a disk the test holds: a second store
        // opened on it replays the first one's log.
        let fs = SimFs::new();
        let first =
            MetadataStore::durable_with_fs(Arc::new(fs.clone()), "/wal.log", SyncPolicy::Never)
                .unwrap();
        first.create_table(schema()).unwrap();
        for i in 0..10 {
            first
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        first.set_flag("models", "m4", "deprecated", true).unwrap();
        let second =
            MetadataStore::durable_with_fs(Arc::new(fs), "/wal.log", SyncPolicy::Never).unwrap();
        assert_eq!(second.applied_seq(), first.applied_seq());
        let rows = |s: &MetadataStore| {
            let mut rows = s.query("models", &Query::all().with_deprecated()).unwrap();
            rows.sort_by(|a, b| a.get("id").cmp(&b.get("id")));
            rows
        };
        assert_eq!(rows(&second), rows(&first));
        assert_eq!(rows(&second).len(), 10);
    }

    /// An in-memory store writes for as long as it lives, so its disk must
    /// hold the log and nothing per write besides: the op counter runs,
    /// no op record accumulates.
    #[test]
    fn in_memory_disk_keeps_no_record_per_write() {
        let fs = SimFs::new();
        let store =
            MetadataStore::durable_with_fs(Arc::new(fs.clone()), "/wal.log", SyncPolicy::Never)
                .unwrap();
        store.create_table(schema()).unwrap();
        for i in 0..5_000 {
            store
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        assert!(fs.ops() > 5_000, "every commit is a counted write");
        assert!(fs.op_log().is_empty());
        assert_eq!(fs.list_dir(Path::new("/")).unwrap().len(), 1);
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::query::Constraint;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "models",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("name", ValueType::Str).hash_indexed(),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn one_lock_stripe_answers_as_sixteen_do() {
        let one = MetadataStore::in_memory_with_config(StoreConfig {
            lock_stripes: 1,
            ..StoreConfig::default()
        });
        let striped = MetadataStore::in_memory();
        for store in [&one, &striped] {
            store.create_table(schema()).unwrap();
            for i in 0..100 {
                store
                    .insert(
                        "models",
                        Record::new()
                            .set("id", format!("m{i}"))
                            .set("name", if i % 3 == 0 { "rf" } else { "lr" }),
                    )
                    .unwrap();
            }
        }
        let q = Query::all().and(Constraint::eq("name", "rf"));
        assert_eq!(
            one.query("models", &q).unwrap(),
            striped.query("models", &q).unwrap()
        );
        // Every index is current at insert: nothing is left to apply.
        assert_eq!(striped.flush_index_deltas(), 0);
    }

    #[test]
    fn query_explain_full_records_shapes_and_slowlog() {
        let telemetry = Telemetry::new();
        let store = MetadataStore::in_memory().with_telemetry(Arc::clone(&telemetry));
        store.create_table(schema()).unwrap();
        for i in 0..10 {
            store
                .insert(
                    "models",
                    Record::new()
                        .set("id", format!("m{i}"))
                        .set("name", if i % 2 == 0 { "rf" } else { "lr" }),
                )
                .unwrap();
        }
        let q = Query::all().and(Constraint::eq("name", "rf"));
        let (rows, explain) = store.query_explain_full("models", &q).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(explain.shape(), "index_eq");
        // The index is current at insert: it reads just the bucket.
        assert_eq!(explain.rows_scanned, rows.len());
        assert_eq!(explain.tail_merge_rows, 0);

        let r = telemetry.registry();
        assert_eq!(
            r.sample_value("gallery_store_query_total", &[("shape", "index_eq")]),
            Some(1.0)
        );
        assert_eq!(
            r.sample_value("gallery_store_query_total", &[("shape", "full_scan")]),
            Some(0.0)
        );

        // Threshold 0 (default): the query is also in the slow-query ring.
        assert_eq!(store.slow_log().total(), 1);
        let entries = store.slow_log().entries();
        assert_eq!(entries[0].table, "models");
        assert_eq!(entries[0].explain.shape(), "index_eq");
        assert!(entries[0].total_ms >= 0.0);
        let text = store.slow_log().render_text();
        assert!(text.contains("table=models shape=index_eq"), "{text}");
        assert!(text.contains("scanned=5 matched=5\n"), "{text}");
        assert_eq!(
            r.sample_value("gallery_store_slow_queries_total", &[]),
            Some(1.0)
        );
    }

    #[test]
    fn semi_join_is_one_query_to_faults_metrics_and_slowlog() {
        let telemetry = Telemetry::new();
        let faults = FaultPlan::none();
        let store = MetadataStore::in_memory()
            .with_telemetry(Arc::clone(&telemetry))
            .with_faults(faults.clone());
        store.create_table(schema()).unwrap();
        for i in 0..10 {
            let name = if i % 2 == 0 { "rf" } else { "lr" };
            let row = Record::new().set("id", format!("m{i}")).set("name", name);
            store.insert("models", row).unwrap();
        }
        let keys = ["rf", "gbm", "lr"].map(Value::from);
        let keys: Vec<&Value> = keys.iter().collect();
        let residual = Query::all().and(Constraint::eq("id", "m3"));
        let (hits, explain) = store.semi_join("models", "name", &keys, &residual).unwrap();
        assert_eq!(hits, [false, false, true]);
        assert_eq!(explain.shape(), "semi_join");
        assert_eq!(explain.tail_merge_rows, 0);
        let joins = || {
            telemetry
                .registry()
                .sample_value("gallery_store_query_total", &[("shape", "semi_join")])
        };
        assert_eq!(joins(), Some(1.0));
        assert_eq!(store.slow_log().total(), 1);
        let text = store.slow_log().render_text();
        assert!(text.contains("table=models shape=semi_join"), "{text}");
        // No keys: nothing read, nothing logged.
        let (hits, _) = store.semi_join("models", "name", &[], &residual).unwrap();
        assert!(hits.is_empty());
        assert_eq!((joins(), store.slow_log().total()), (Some(1.0), 1));
        // It fails where a query fails, whole.
        assert!(matches!(
            store.semi_join("nope", "name", &keys, &residual),
            Err(StoreError::NoSuchTable(_))
        ));
        faults.fail_always(sites::META_QUERY);
        assert!(matches!(
            store.semi_join("models", "name", &keys, &residual),
            Err(StoreError::InjectedFault(sites::META_QUERY))
        ));
        assert_eq!(store.slow_log().total(), 1);
    }

    #[test]
    fn every_access_path_shape_is_minted() {
        use crate::query::AccessPath;
        let name = || "c".to_string();
        let paths = [
            AccessPath::PrimaryKey,
            AccessPath::IndexEq { column: name() },
            AccessPath::IndexRange { column: name() },
            AccessPath::IndexTop {
                column: name(),
                order: name(),
            },
            AccessPath::SemiJoin { column: name() },
            AccessPath::FullScan,
        ];
        let metrics = mint_metrics(&Telemetry::new(), &StoreConfig::default());
        for path in &paths {
            // A variant added to `AccessPath` stops compiling here until it
            // joins `paths` above — and then has to be in `QUERY_SHAPES`.
            match path {
                AccessPath::PrimaryKey
                | AccessPath::IndexEq { .. }
                | AccessPath::IndexRange { .. }
                | AccessPath::IndexTop { .. }
                | AccessPath::SemiJoin { .. }
                | AccessPath::FullScan => {}
            }
            assert!(
                metrics.query_shape(path.shape()).is_some(),
                "{path:?} would be planned and never counted"
            );
        }
        assert_eq!(paths.len(), QUERY_SHAPES.len());
    }

    #[test]
    fn slow_query_ring_is_bounded_and_threshold_filters() {
        let telemetry = Telemetry::new();
        let store = MetadataStore::in_memory_with_config(StoreConfig {
            slow_query_capacity: 4,
            ..StoreConfig::default()
        })
        .with_telemetry(Arc::clone(&telemetry));
        store.create_table(schema()).unwrap();
        for _ in 0..10 {
            store.query("models", &Query::all()).unwrap();
        }
        assert_eq!(store.slow_log().total(), 10);
        assert_eq!(store.slow_log().entries().len(), 4);
        assert_eq!(store.slow_log().dropped(), 6);

        // An unreachable threshold captures nothing, but per-shape metrics
        // still see every query.
        let telemetry = Telemetry::new();
        let quiet = MetadataStore::in_memory_with_config(StoreConfig {
            slow_query_ms: u64::MAX,
            ..StoreConfig::default()
        })
        .with_telemetry(Arc::clone(&telemetry));
        quiet.create_table(schema()).unwrap();
        quiet.query("models", &Query::all()).unwrap();
        assert_eq!(quiet.slow_log().total(), 0);
        assert_eq!(
            telemetry
                .registry()
                .sample_value("gallery_store_query_total", &[("shape", "full_scan")]),
            Some(1.0)
        );
    }

    #[test]
    fn stripe_lock_metrics_surface_contention_per_stripe() {
        let telemetry = Telemetry::new();
        let store = MetadataStore::in_memory_with_config(StoreConfig {
            lock_stripes: 4,
            ..StoreConfig::default()
        })
        .with_telemetry(Arc::clone(&telemetry));
        store.create_table(schema()).unwrap();
        for i in 0..20 {
            store
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        let r = telemetry.registry();
        // Every insert acquires exactly one stripe write lock; the waits
        // land somewhere across the four per-stripe histograms.
        let total_waits: f64 = (0..4)
            .filter_map(|i| {
                r.find_histogram(
                    "gallery_store_stripe_lock_wait_ms",
                    &[("stripe", &i.to_string())],
                )
                .map(|h| h.count() as f64)
            })
            .sum();
        assert_eq!(total_waits, 20.0);
        // Hold time is credited on release (µs granularity, may be 0 for
        // very fast holds — only the label set is asserted here).
        assert!(r
            .sample_value(
                "gallery_store_stripe_lock_hold_us_total",
                &[("stripe", "0")]
            )
            .is_some());
        // No stripe label beyond the configured count was ever minted.
        assert!(r
            .find_histogram("gallery_store_stripe_lock_wait_ms", &[("stripe", "4")])
            .is_none());
    }
}
