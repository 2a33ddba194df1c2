//! A single metadata table: striped row arenas + primary key maps +
//! secondary indexes + a constraint-query executor with a tiny planner.
//!
//! ## Lock striping
//!
//! Rows are partitioned into N stripes by the FNV-1a hash of their primary
//! key — the same hash family the cluster layer uses for shard routing —
//! and every stripe sits behind its own `RwLock`. A stripe holds its rows,
//! their primary-key map and its shard of every hash and btree index. Writers
//! touching different stripes proceed in parallel; a writer holds exactly
//! its stripe's write lock across validate → duplicate-check → WAL commit
//! → in-memory apply, so per-stripe apply order always equals WAL order
//! and duplicate-key races are impossible. Index and scan queries take all
//! stripe read locks (in index order, the global lock order) for a
//! consistent snapshot; a primary-key lookup takes only the owning
//! stripe's. Readers receive the `Arc<Row>` the stripe holds — an
//! immutable snapshot, since flag mutations copy-on-write.
//!
//! ## Rows by position
//!
//! A stored [`Row`] is its values in schema order; the column names are
//! the schema's, once per table. A query names its columns, and
//! [`Table::typed`] turns every name into a position once per query.
//! From there nothing here looks a column up by name: predicates,
//! `order_by`, index maintenance, the semi-join and `set_flag` read
//! `row.at(position)`.
//!
//! ## Secondary indexes
//!
//! Every index is current when an insert returns, as a MySQL secondary
//! index is when its insert commits. A hash or btree index is sharded by
//! stripe: the insert adds the row's non-null value to its stripe's shard
//! after pushing the row, under the stripe write lock it already holds, so
//! a reader holding the stripe's read lock sees exactly the rows the
//! stripe holds, in its index as in its arena.
//!
//! ## Ordered indexes
//!
//! An ordered index (`TableSchema::ordered_by`) keeps each group sorted,
//! which is what lets `by == v ORDER BY order LIMIT k`
//! ([`AccessPath::IndexTop`]) read the k rows it returns and stop, instead
//! of sorting the group. It is not striped: the table holds one per
//! declaration, behind a lock of its own (`rank::ORDERED_INDEX`), and a
//! group holds its value's rows from every stripe, each entry carrying its
//! exact `(order value, commit sequence)` key. So a latest-of-X lookup,
//! and each key of a semi-join, probes one group. An insert adds its entry
//! after pushing the row, under the stripe write lock it already holds and
//! never across its commit; a reader takes the index's lock after every
//! stripe read lock, and so sees exactly the rows those stripes hold.

use crate::error::{Result, StoreError};
use crate::index::{BTreeIndex, Entry, GroupHasher, HashIndex, Index, OrderedIndex, RowId};
use crate::query::{AccessPath, Explain, Op, Query};
use crate::record::{Record, Row};
use crate::schema::{ColumnDef, IndexKind, Placement, Repeated, TableSchema};
use crate::value::{Value, ValueType};
use gallery_sync::locks::{
    OrderedRwLock, OrderedRwLockReadGuard as RwLockReadGuard,
    OrderedRwLockWriteGuard as RwLockWriteGuard,
};
use gallery_sync::rank;
use gallery_telemetry::{Counter, Histogram};
use std::borrow::Cow;
use std::cmp::Ordering as RowOrder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Columns that the store treats as in-place mutable flags. Everything else
/// is immutable after insert (paper §3.1 "Immutable").
pub const MUTABLE_FLAG_COLUMNS: &[&str] = &["deprecated"];

/// Low bits of a [`RowId`] hold the slot within a stripe; the high bits
/// hold the stripe number.
const SLOT_BITS: u32 = 27;
const SLOT_MASK: RowId = (1 << SLOT_BITS) - 1;

/// Upper bound on `lock_stripes` imposed by the [`RowId`] packing.
pub const MAX_LOCK_STRIPES: usize = 1 << (32 - SLOT_BITS);

fn pack(stripe: usize, slot: usize) -> RowId {
    debug_assert!(slot <= SLOT_MASK as usize, "stripe overflow: slot {slot}");
    ((stripe as RowId) << SLOT_BITS) | slot as RowId
}

fn unpack(id: RowId) -> (usize, usize) {
    ((id >> SLOT_BITS) as usize, (id & SLOT_MASK) as usize)
}

/// FNV-1a over the primary key — the same hash family `gallery-core`'s
/// shard router uses, replicated here because `gallery-store` sits below
/// `gallery-core` in the crate graph.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// `literal` as its column's type, where it is one of the numbers that
/// read differently as given: the wire has no timestamp value, so `created`
/// bounds arrive as `Int`, which orders against `Timestamp` by variant
/// rank and not by number; an `Int` against a `Float` hash index compares
/// equal but hashes apart.
fn coerce(literal: &Value, ty: ValueType) -> Option<Value> {
    match (literal, ty) {
        (Value::Int(t), ValueType::Timestamp) => Some(Value::Timestamp(*t)),
        (Value::Int(x), ValueType::Float) => Some(Value::Float(*x as f64)),
        _ => None,
    }
}

/// Counters describing how queries were executed; used by benchmarks and
/// the scale experiment to show index-vs-scan behaviour.
#[derive(Debug, Default, Clone, Copy)]
pub struct TableStats {
    pub inserts: u64,
    pub pk_lookups: u64,
    pub index_queries: u64,
    pub full_scans: u64,
    pub rows_examined: u64,
}

#[derive(Debug, Default)]
struct AtomicStats {
    inserts: AtomicU64,
    pk_lookups: AtomicU64,
    index_queries: AtomicU64,
    full_scans: AtomicU64,
    rows_examined: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> TableStats {
        TableStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            pk_lookups: self.pk_lookups.load(Ordering::Relaxed),
            index_queries: self.index_queries.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
            rows_examined: self.rows_examined.load(Ordering::Relaxed),
        }
    }
}

/// Per-stripe write-lock contention handles, one slot per stripe index
/// (`gallery_store_stripe_lock_wait_ms{stripe}` /
/// `gallery_store_stripe_lock_hold_us_total{stripe}`). Label cardinality
/// is bounded by construction: the minting side allocates exactly one
/// series per configured stripe, and [`MAX_LOCK_STRIPES`] caps that at 32.
#[derive(Clone)]
pub struct StripeLockMetrics {
    /// Time writers spent waiting to *acquire* each stripe's write lock.
    pub wait_ms: Vec<Arc<Histogram>>,
    /// Cumulative time each stripe's write lock was *held*, in µs.
    pub hold_us_total: Vec<Arc<Counter>>,
}

impl std::fmt::Debug for StripeLockMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripeLockMetrics")
            .field("stripes", &self.wait_ms.len())
            .finish()
    }
}

/// One row plus its global commit sequence. Sequence order is insertion
/// order across the whole store, so queries merge stripes by `seq`.
///
/// The row is behind an `Arc` shared with the store's oplog entry for the
/// same insert and with every reader that was handed the row — one
/// allocation serves all. Flag mutations go through `Arc::make_mut`,
/// which copies only if the oplog or a reader still holds another
/// reference, so logged history and returned rows stay immutable.
#[derive(Debug)]
struct StoredRow {
    seq: u64,
    row: Arc<Row>,
}

/// `order_by`'s total order on column `at`: by value, then by commit
/// sequence. Descending is the exact reverse. An ordered index keeps its
/// groups in the same order ([`Entry`]).
fn order_cmp(a: &StoredRow, b: &StoredRow, at: usize) -> RowOrder {
    a.row.at(at).total_cmp(b.row.at(at)).then(a.seq.cmp(&b.seq))
}

/// One lock stripe: a row arena, the primary-key map for rows hashed
/// here, and this stripe's shard of every hash and btree index.
#[derive(Debug)]
struct Stripe {
    rows: Vec<StoredRow>,
    /// pk -> slot in `rows`.
    pk_map: HashMap<String, usize>,
    /// This stripe's shard of every hash and btree index, with its
    /// column's position, in schema order. Row ids are packed
    /// `(stripe, slot)`.
    indexes: Vec<(usize, Index)>,
}

/// One declared ordered index: the positions of its grouping and order
/// columns, and the index itself, table-wide. Always current: an insert
/// adds its entry before it returns.
#[derive(Debug)]
struct Ordered {
    by: usize,
    order: usize,
    index: OrderedRwLock<OrderedIndex>,
}

/// How a `column == value` lookup reads the table (see
/// [`Table::eq_probe`]): through an ordered index, one group, or through
/// the column's hash or btree index, stripe by stripe.
enum EqProbe<'q> {
    Ordered { index: usize, key: u64 },
    Striped { at: usize, value: &'q Value },
}

impl Stripe {
    /// This stripe's shard of the index on column `at`.
    fn index(&self, at: usize) -> Result<&Index> {
        self.indexes
            .iter()
            .find(|(column, _)| *column == at)
            .map(|(_, index)| index)
            .ok_or_else(|| StoreError::BadQuery(format!("no index on column {at}")))
    }
}

/// One constraint as a table evaluates it: its column's position, the
/// operator, and the literal as the column's type ([`coerce`]).
struct Pred<'q> {
    at: usize,
    op: Op,
    value: Cow<'q, Value>,
}

/// A query as a table runs it, every column it names a position: built
/// once per query by [`Table::typed`].
struct Typed<'q> {
    preds: Vec<Pred<'q>>,
    /// `order_by`'s column, and whether descending.
    order: Option<(usize, bool)>,
    limit: Option<usize>,
    include_deprecated: bool,
}

/// An `IndexTop` plan's parameters: which ordered index, which end to
/// start from, and when to stop.
#[derive(Clone, Copy)]
struct Top {
    index: usize,
    descending: bool,
    limit: usize,
}

/// What the planner chose: the access path, the constraint that path is
/// served by (none for a full scan), the candidate estimate, and the walk
/// an `IndexTop` path makes.
struct Plan<'q> {
    path: AccessPath,
    by: Option<&'q Pred<'q>>,
    estimated_rows: usize,
    top: Option<Top>,
}

#[derive(Debug)]
pub struct Table {
    /// Shared with every row the table holds: where column names live.
    schema: Arc<TableSchema>,
    /// Position of the primary key, and of the `deprecated` flag (if the
    /// table has one), which queries skip rows by.
    key: Option<usize>,
    deprecated: Option<usize>,
    /// Every ordered index, in `schema.ordered` order.
    ordered: Vec<Ordered>,
    /// Keys the groups of every ordered index.
    group_hasher: GroupHasher,
    stripes: Vec<OrderedRwLock<Stripe>>,
    stats: AtomicStats,
    row_count: AtomicUsize,
    /// Sequence source for standalone (non-store) tables only; tables
    /// mounted in a [`crate::meta::MetadataStore`] get their sequence from
    /// the store's commit log.
    next_seq: AtomicU64,
    lock_metrics: OrderedRwLock<Option<StripeLockMetrics>>,
}

impl Table {
    pub fn new(schema: impl Into<Arc<TableSchema>>) -> Self {
        Self::with_config(schema, 16)
    }

    /// `lock_stripes` is clamped to `1..=MAX_LOCK_STRIPES`.
    pub fn with_config(schema: impl Into<Arc<TableSchema>>, lock_stripes: usize) -> Self {
        let schema = schema.into();
        let n = lock_stripes.clamp(1, MAX_LOCK_STRIPES);
        // `ordered_by` checked both columns exist; a schema built by hand
        // that names others keeps no index for them.
        let ordered: Vec<Ordered> = schema
            .ordered
            .iter()
            .filter_map(|o| {
                Some(Ordered {
                    by: schema.column_index(&o.by)?,
                    order: schema.column_index(&o.order)?,
                    index: OrderedRwLock::new(rank::ORDERED_INDEX, OrderedIndex::new()),
                })
            })
            .collect();
        let stripes = (0..n)
            .map(|i| {
                let indexes = schema.columns.iter().enumerate();
                let indexes = indexes.filter_map(|(at, col)| {
                    let index = match col.index? {
                        IndexKind::Hash => Index::Hash(HashIndex::new()),
                        IndexKind::BTree => Index::BTree(BTreeIndex::new()),
                    };
                    Some((at, index))
                });
                OrderedRwLock::new(
                    rank::stripe(i),
                    Stripe {
                        rows: Vec::new(),
                        pk_map: HashMap::new(),
                        indexes: indexes.collect(),
                    },
                )
            })
            .collect();
        Table {
            key: schema.key_position(),
            deprecated: schema.column_index("deprecated"),
            ordered,
            schema,
            group_hasher: GroupHasher::default(),
            stripes,
            stats: AtomicStats::default(),
            row_count: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
            lock_metrics: OrderedRwLock::new(rank::STRIPE_METRICS, None),
        }
    }

    /// Attach (or replace) the per-stripe lock-contention handles. Handle
    /// vectors shorter than the stripe count leave the excess stripes
    /// uninstrumented rather than panicking.
    pub fn set_lock_metrics(&self, metrics: StripeLockMetrics) {
        *self.lock_metrics.write() = Some(metrics);
    }

    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    pub fn lock_stripes(&self) -> usize {
        self.stripes.len()
    }

    pub fn len(&self) -> usize {
        self.row_count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> TableStats {
        self.stats.snapshot()
    }

    /// The primary key of a row placed in this table (placement checked
    /// that it is a string).
    pub fn key_of<'r>(&self, row: &'r Row) -> &'r str {
        let key = self.key.map(|k| row.at(k));
        key.and_then(Value::as_str).unwrap_or_default()
    }

    /// `row` as this table stores it. A row placed against this table's
    /// schema — a local insert, or a frame decoded against it — is taken
    /// as it is; one from another copy of the schema (an op read off
    /// another store's log) is placed again, by name, and checked again.
    pub(crate) fn adopt(&self, row: Arc<Row>) -> Result<Arc<Row>> {
        if Arc::ptr_eq(row.schema(), &self.schema) {
            return Ok(row);
        }
        let mut placement = Placement::new(&self.schema);
        for (name, value) in row.fields() {
            placement.give(name, value.clone());
        }
        placement.finish(Repeated::Refuse).map(Arc::new)
    }

    /// Which stripe a primary key hashes to.
    pub fn stripe_of(&self, pk: &str) -> usize {
        (fnv1a64(pk.as_bytes()) % self.stripes.len() as u64) as usize
    }

    /// Observe one stripe write-lock acquisition wait, when handles are
    /// attached.
    fn observe_lock_wait(&self, stripe: usize, waited: Instant) {
        if let Some(m) = &*self.lock_metrics.read() {
            if let Some(h) = m.wait_ms.get(stripe) {
                h.observe(waited.elapsed().as_secs_f64() * 1e3);
            }
        }
    }

    /// Credit one stripe's hold-time counter, when handles are attached.
    fn observe_lock_hold(&self, stripe: usize, held: Instant) {
        if let Some(m) = &*self.lock_metrics.read() {
            if let Some(c) = m.hold_us_total.get(stripe) {
                c.add(held.elapsed().as_micros() as u64);
            }
        }
    }

    /// Take the write lock on the stripe owning `pk`. The token pins the
    /// stripe across duplicate-check → commit → apply, so no competing
    /// writer can interleave on this stripe.
    pub fn lock_stripe(&self, pk: &str) -> StripeToken<'_> {
        let stripe = self.stripe_of(pk);
        let waited = Instant::now();
        let guard = self.stripes[stripe].write();
        self.observe_lock_wait(stripe, waited);
        StripeToken {
            table: self,
            stripe,
            guard,
            acquired: Instant::now(),
        }
    }

    /// Lock every stripe owning any of `pks`, in index order (the global
    /// lock order), for a multi-row insert.
    pub fn lock_stripe_set<K: AsRef<str>>(&self, pks: &[K]) -> StripeSetToken<'_> {
        let mut idxs: Vec<usize> = pks.iter().map(|pk| self.stripe_of(pk.as_ref())).collect();
        idxs.sort_unstable();
        idxs.dedup();
        let guards = idxs
            .into_iter()
            .map(|i| {
                let waited = Instant::now();
                let g = self.stripes[i].write();
                self.observe_lock_wait(i, waited);
                (i, g)
            })
            .collect();
        StripeSetToken {
            table: self,
            guards,
            acquired: Instant::now(),
        }
    }

    /// Insert an immutable record (standalone-table path: validates and
    /// places it, checks duplicates, and self-assigns a sequence).
    /// Duplicate primary keys are rejected — updates must create new
    /// versions (new keys).
    pub fn insert(&self, record: Record) -> Result<RowId> {
        let row = Arc::new(self.schema.place(record)?);
        let pk = self.key_of(&row);
        let mut token = self.lock_stripe(pk);
        if token.contains(pk) {
            return Err(StoreError::DuplicateKey(pk.to_owned()));
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(token.apply_insert(Arc::clone(&row), seq))
    }

    /// Point lookup by primary key. The returned row is a shared,
    /// immutable snapshot (see [`Table::execute_explain`]).
    pub fn get(&self, pk: &str) -> Option<Arc<Row>> {
        self.stats.pk_lookups.fetch_add(1, Ordering::Relaxed);
        self.peek(pk)
    }

    /// Non-stat-mutating lookup (for internal use and read-only callers).
    pub fn peek(&self, pk: &str) -> Option<Arc<Row>> {
        let stripe = self.stripes[self.stripe_of(pk)].read();
        stripe
            .pk_map
            .get(pk)
            .map(|&slot| Arc::clone(&stripe.rows[slot].row))
    }

    pub fn contains(&self, pk: &str) -> bool {
        let stripe = self.stripes[self.stripe_of(pk)].read();
        stripe.pk_map.contains_key(pk)
    }

    /// Set one of the explicitly mutable flag columns (e.g. `deprecated`).
    /// All other columns are immutable; attempting to touch them is an error.
    pub fn set_flag(&self, pk: &str, column: &str, value: bool) -> Result<()> {
        let at = self.check_flag_column(column)?;
        let mut token = self.lock_stripe(pk);
        if !token.contains(pk) {
            return Err(StoreError::NoSuchKey(pk.to_owned()));
        }
        token.apply_set_flag(pk, at, value);
        Ok(())
    }

    /// Validate that `column` may be mutated in place (exists and is a
    /// flag column) *before* anything is committed; returns its position.
    pub(crate) fn check_flag_column(&self, column: &str) -> Result<usize> {
        if !MUTABLE_FLAG_COLUMNS.contains(&column) {
            return Err(StoreError::BadQuery(format!(
                "column {column} is immutable; only flag columns {MUTABLE_FLAG_COLUMNS:?} may be set in place"
            )));
        }
        Ok(self.column(column)?.0)
    }

    /// Plan a query: prefer primary-key equality, then the end of an
    /// ordered index, then an indexed equality constraint, then an indexed
    /// range constraint, else a full scan.
    pub fn plan(&self, query: &Query) -> Result<AccessPath> {
        let query = self.typed(query)?;
        let guards: Vec<RwLockReadGuard<'_, Stripe>> =
            self.stripes.iter().map(|s| s.read()).collect();
        Ok(self.plan_with(&guards, &query)?.path)
    }

    /// The name of the column at `at`.
    fn name_of(&self, at: usize) -> &str {
        self.schema.columns.get(at).map_or("", |c| c.name.as_str())
    }

    /// `p` as the constraint it was written as, for an error message.
    fn describe(&self, p: &Pred<'_>) -> String {
        format!("{} {} {}", self.name_of(p.at), p.op, p.value)
    }

    /// The index of ordered index grouping by column `at`, if any.
    fn ordered_on(&self, at: usize) -> Option<usize> {
        self.ordered.iter().position(|o| o.by == at)
    }

    /// The index that answers `column == value`, if the column has one.
    fn eq_probe<'q>(&self, at: usize, value: &'q Value) -> Option<EqProbe<'q>> {
        match self.ordered_on(at) {
            Some(index) => Some(EqProbe::Ordered {
                index,
                key: self.group_hasher.key(value),
            }),
            None => self
                .striped_on(at)
                .then_some(EqProbe::Striped { at, value }),
        }
    }

    /// Does column `at` carry a hash or btree index?
    fn striped_on(&self, at: usize) -> bool {
        let column = self.schema.columns.get(at);
        column.is_some_and(|c| c.index.is_some())
    }

    /// The walk that answers `query` off one end of an ordered index, if
    /// it has the shape: equality on the index's grouping column,
    /// `order_by` its order column, and a `limit`.
    fn top_of<'t>(&self, query: &'t Typed<'_>) -> Option<(&'t Pred<'t>, Top)> {
        let ((order, descending), limit) = (query.order?, query.limit?);
        let ordered = self.ordered.iter().enumerate();
        ordered
            .filter(|(_, o)| o.order == order)
            .find_map(|(index, o)| {
                let p = query
                    .preds
                    .iter()
                    .find(|p| p.op == Op::Eq && p.at == o.by)?;
                let top = Top {
                    index,
                    descending,
                    limit,
                };
                Some((p, top))
            })
    }

    /// The equality constraint on the primary key, if the query has one:
    /// it decides the plan without looking at any stripe.
    fn pk_eq<'t>(&self, query: &'t Typed<'_>) -> Option<&'t Pred<'t>> {
        let key = self.key?;
        query.preds.iter().find(|p| p.at == key && p.op == Op::Eq)
    }

    /// [`Table::plan`] over stripes the caller already holds (none are
    /// needed, or read, when the plan is `PrimaryKey`). The
    /// candidate estimate: PrimaryKey resolves at most one row; IndexTop
    /// means to stop at `limit`; IndexEq counts the ordered index's group,
    /// or the buckets of the column's index in every stripe; a range
    /// scan has no value-distribution statistics, so it is bounded by the
    /// full row count, as is a full scan.
    fn plan_with<'t>(
        &self,
        guards: &[RwLockReadGuard<'_, Stripe>],
        query: &'t Typed<'_>,
    ) -> Result<Plan<'t>> {
        let plan = |path, by, estimated_rows| Plan {
            path,
            by,
            estimated_rows,
            top: None,
        };
        if let Some(p) = self.pk_eq(query) {
            return Ok(plan(AccessPath::PrimaryKey, Some(p), 1));
        }
        if let Some((p, top)) = self.top_of(query) {
            let path = AccessPath::IndexTop {
                column: self.name_of(p.at).to_owned(),
                order: self.name_of(self.ordered[top.index].order).to_owned(),
            };
            return Ok(Plan {
                top: Some(top),
                ..plan(path, Some(p), top.limit)
            });
        }
        // Indexed equality first; among several indexed eq constraints pick
        // the smallest candidate set.
        let mut best_eq: Option<(&Pred<'_>, usize)> = None;
        for p in query.preds.iter().filter(|p| p.op.index_eq_usable()) {
            let len = match self.eq_probe(p.at, &p.value) {
                Some(EqProbe::Ordered { index, key }) => {
                    self.ordered[index].index.read().group(key).len()
                }
                Some(EqProbe::Striped { at, value }) => {
                    let mut len = 0;
                    for g in guards {
                        len += g.index(at)?.lookup_eq(value).len();
                    }
                    len
                }
                None => continue,
            };
            if best_eq.map(|(_, b)| len < b).unwrap_or(true) {
                best_eq = Some((p, len));
            }
        }
        if let Some((p, estimated_rows)) = best_eq {
            let path = AccessPath::IndexEq {
                column: self.name_of(p.at).to_owned(),
            };
            return Ok(plan(path, Some(p), estimated_rows));
        }
        // Every stripe holds the same kinds of index; any one of them tells.
        let ranged = |at: usize| {
            let shard = guards.first().and_then(|g| g.index(at).ok());
            shard.is_some_and(Index::supports_range)
        };
        let by = query
            .preds
            .iter()
            .find(|p| p.op.index_range_usable() && ranged(p.at));
        let path = match by {
            Some(p) => AccessPath::IndexRange {
                column: self.name_of(p.at).to_owned(),
            },
            None => AccessPath::FullScan,
        };
        Ok(plan(path, by, guards.iter().map(|g| g.rows.len()).sum()))
    }

    /// Walk the group of `value` in ordered index `top.index` from one end,
    /// evaluating `query` on every row visited, until `top.limit` rows
    /// matched. Returns them in result order, and how many rows were
    /// visited. The group's entries come from every stripe, and `guards`
    /// holds every stripe.
    fn index_top(
        &self,
        guards: &[RwLockReadGuard<'_, Stripe>],
        top: Top,
        value: &Value,
        query: &Typed<'_>,
    ) -> (Vec<Arc<Row>>, usize) {
        let index = self.ordered[top.index].index.read();
        let mut rest = index.group(self.group_hasher.key(value)).iter();
        let mut out = Vec::new();
        let mut scanned = 0;
        while out.len() < top.limit {
            let next = if top.descending {
                rest.next_back()
            } else {
                rest.next()
            };
            let Some(entry) = next else { break };
            let (stripe, slot) = unpack(entry.row);
            let row = &guards[stripe].rows[slot].row;
            scanned += 1;
            if self.row_matches(row, query) {
                out.push(Arc::clone(row));
            }
        }
        (out, scanned)
    }

    /// The constraints first: a row they reject — most rows a residual
    /// sees — is not looked at for a flag it rarely has.
    fn row_matches(&self, row: &Row, query: &Typed<'_>) -> bool {
        query
            .preds
            .iter()
            .all(|p| p.op.eval(row.at(p.at), &p.value))
            && (query.include_deprecated
                || !self
                    .deprecated
                    .is_some_and(|d| matches!(row.at(d), Value::Bool(true))))
    }

    fn no_column(&self, column: &str) -> StoreError {
        StoreError::NoSuchColumn {
            table: self.schema.name.clone(),
            column: column.to_owned(),
        }
    }

    /// Column `name`'s position and declaration.
    fn column(&self, name: &str) -> Result<(usize, &ColumnDef)> {
        let mut columns = self.schema.columns.iter().enumerate();
        columns
            .find(|(_, c)| c.name == name)
            .ok_or_else(|| self.no_column(name))
    }

    /// Resolve every column a query names to its position and give each
    /// constraint literal its column's type ([`coerce`]) — the one place
    /// a query's column names are looked up. A literal is borrowed unless
    /// its type changed.
    fn typed<'q>(&self, query: &'q Query) -> Result<Typed<'q>> {
        let mut preds = Vec::with_capacity(query.constraints.len());
        for c in &query.constraints {
            let (at, col) = self.column(&c.field)?;
            let value = coerce(&c.value, col.ty).map_or(Cow::Borrowed(&c.value), Cow::Owned);
            preds.push(Pred {
                at,
                op: c.op,
                value,
            });
        }
        let order = match &query.order_by {
            Some(ob) => Some((self.column(&ob.field)?.0, ob.descending)),
            None => None,
        };
        Ok(Typed {
            preds,
            order,
            limit: query.limit,
            include_deprecated: query.include_deprecated,
        })
    }

    /// Execute a query, returning matching rows and the access path the
    /// planner chose. Thin wrapper over [`Table::execute_explain`] for
    /// callers that only care about rows and plan shape.
    pub fn execute(&self, query: &Query) -> Result<(Vec<Arc<Row>>, AccessPath)> {
        let (rows, explain) = self.execute_explain(query)?;
        Ok((rows, explain.path))
    }

    /// Execute a query, returning matching rows and the full [`Explain`]
    /// artifact (plan, estimated vs. actual rows, per-stage timings). Rows
    /// are the `Arc`s the stripes hold, not copies: each is an immutable
    /// snapshot, because `set_flag` copies a row on write while anyone else
    /// holds it. A primary-key plan takes
    /// the read lock of the owning stripe only; index and scan plans take
    /// every stripe read lock (in index order) for a consistent snapshot,
    /// and then the lock of the ordered index they read, if they read one.
    /// The result is built under the guards and returned after they drop,
    /// in `order_by`'s `(value, sequence)` order, or merged in sequence
    /// (= insertion) order without one.
    pub fn execute_explain(&self, query: &Query) -> Result<(Vec<Arc<Row>>, Explain)> {
        let query = &self.typed(query)?;
        let plan_started = Instant::now();
        let guards: Vec<RwLockReadGuard<'_, Stripe>> = match self.pk_eq(query) {
            // Only the stripe the key hashes to; a key that is not a
            // string matches nothing and needs none.
            Some(p) => {
                let pk = p.value.as_str();
                let owner = pk.map(|pk| self.stripes[self.stripe_of(pk)].read());
                owner.into_iter().collect()
            }
            None => self.stripes.iter().map(|s| s.read()).collect(),
        };
        let Plan {
            path,
            by,
            estimated_rows,
            top,
        } = self.plan_with(&guards, query)?;
        let plan_ms = plan_started.elapsed().as_secs_f64() * 1e3;
        let scan_started = Instant::now();
        if let (Some(top), Some(p)) = (top, by) {
            self.stats.index_queries.fetch_add(1, Ordering::Relaxed);
            let (rows, rows_scanned) = self.index_top(&guards, top, &p.value, query);
            self.stats
                .rows_examined
                .fetch_add(rows_scanned as u64, Ordering::Relaxed);
            let explain = Explain {
                path,
                estimated_rows,
                rows_scanned,
                matched_rows: rows.len(),
                tail_merge_rows: 0,
                plan_ms,
                scan_ms: scan_started.elapsed().as_secs_f64() * 1e3,
                sort_ms: 0.0,
            };
            return Ok((rows, explain));
        }
        // Candidates as (position in `guards`, slot) — the position is the
        // stripe number on every path but PrimaryKey, which holds one
        // guard.
        let mut cands: Vec<(usize, usize)> = Vec::new();
        match (&path, by) {
            (AccessPath::PrimaryKey, Some(p)) => {
                self.stats.pk_lookups.fetch_add(1, Ordering::Relaxed);
                if let (Some(g), Some(pk)) = (guards.first(), p.value.as_str()) {
                    if let Some(&slot) = g.pk_map.get(pk) {
                        cands.push((0, slot));
                    }
                }
            }
            (AccessPath::IndexEq { .. }, Some(p)) => {
                self.stats.index_queries.fetch_add(1, Ordering::Relaxed);
                let probe = self.eq_probe(p.at, &p.value).ok_or_else(|| {
                    StoreError::BadQuery(format!("no index serves `{}`", self.describe(p)))
                })?;
                cands.reserve(estimated_rows);
                match probe {
                    EqProbe::Ordered { index, key } => {
                        let index = self.ordered[index].index.read();
                        cands.extend(index.group(key).iter().map(|e| unpack(e.row)));
                    }
                    EqProbe::Striped { at, value } => {
                        for g in &guards {
                            let ids = g.index(at)?.lookup_eq(value);
                            cands.extend(ids.iter().map(|&id| unpack(id)));
                        }
                    }
                }
            }
            (AccessPath::IndexRange { .. }, Some(p)) => {
                self.stats.index_queries.fetch_add(1, Ordering::Relaxed);
                let no_range =
                    || StoreError::BadQuery(format!("no range scan serves `{}`", self.describe(p)));
                let (lo, hi) = p.op.bounds(&p.value).ok_or_else(no_range)?;
                for g in &guards {
                    let ids = g.index(p.at)?.lookup_range(lo, hi).ok_or_else(no_range)?;
                    cands.extend(ids.map(unpack));
                }
            }
            // Scanning every row is exact whatever the planner chose.
            (
                AccessPath::FullScan | AccessPath::IndexTop { .. } | AccessPath::SemiJoin { .. },
                _,
            )
            | (_, None) => {
                self.stats.full_scans.fetch_add(1, Ordering::Relaxed);
                for (si, g) in guards.iter().enumerate() {
                    for slot in 0..g.rows.len() {
                        cands.push((si, slot));
                    }
                }
            }
        }
        // A row enters a column's index once.
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                cands.iter().all(|c| seen.insert(*c))
            },
            "duplicate candidate under {path:?}"
        );
        self.stats
            .rows_examined
            .fetch_add(cands.len() as u64, Ordering::Relaxed);
        let rows_scanned = cands.len();

        let mut matches: Vec<&StoredRow> = cands
            .into_iter()
            .map(|(gi, slot)| &guards[gi].rows[slot])
            .filter(|stored| self.row_matches(&stored.row, query))
            .collect();
        let matched_rows = matches.len();
        let scan_ms = scan_started.elapsed().as_secs_f64() * 1e3;
        let sort_started = Instant::now();

        match query.order {
            Some((at, descending)) => {
                let cmp = |a: &&StoredRow, b: &&StoredRow| {
                    let ord = order_cmp(a, b, at);
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                };
                // Partial selection: a LIMIT far below the match count
                // avoids a full sort. The order is total, so what is
                // selected is exactly the sorted result's prefix.
                if let Some(limit) = query.limit {
                    if limit > 0 && limit < matches.len() {
                        matches.select_nth_unstable_by(limit - 1, cmp);
                        matches.truncate(limit);
                    }
                }
                matches.sort_unstable_by(cmp);
            }
            // Sequence order = insertion order, across stripes.
            None => matches.sort_unstable_by_key(|stored| stored.seq),
        }
        if let Some(limit) = query.limit {
            matches.truncate(limit);
        }
        let sort_ms = sort_started.elapsed().as_secs_f64() * 1e3;
        let explain = Explain {
            path,
            estimated_rows,
            rows_scanned,
            matched_rows,
            tail_merge_rows: 0,
            plan_ms,
            scan_ms,
            sort_ms,
        };
        let rows = matches
            .iter()
            .map(|stored| Arc::clone(&stored.row))
            .collect();
        Ok((rows, explain))
    }

    /// Semi-join: which of `keys` have at least one row with
    /// `column == key` that `residual` accepts — one flag per key, in
    /// `keys`' order, a repeated key answered each time — and one
    /// [`Explain`] ([`AccessPath::SemiJoin`]) for the whole key set. The
    /// flags are those of `Query { column == key, residual.., limit 1 }`
    /// run per key, off one type check of the residual, one taking of the
    /// stripe read locks and so one snapshot: each key probes the index on
    /// `column` (there has to be one) — one group of an ordered index,
    /// oldest row first, or a hash or btree index stripe by stripe — and
    /// stops at its first match. `residual` carries constraints and
    /// `include_deprecated`, nothing else. No keys: no lock taken.
    pub fn semi_join(
        &self,
        column: &str,
        keys: &[&Value],
        residual: &Query,
    ) -> Result<(Vec<bool>, Explain)> {
        if residual.order_by.is_some() || residual.limit.is_some() {
            return Err(StoreError::BadQuery(
                "a semi-join residual takes no order_by and no limit".into(),
            ));
        }
        let plan_started = Instant::now();
        let residual = &self.typed(residual)?;
        let (at, col) = self.column(column)?;
        let ordered = self.ordered_on(at);
        if ordered.is_none() && !self.striped_on(at) {
            return Err(StoreError::BadQuery(format!(
                "no index serves a semi-join on `{column}`"
            )));
        }
        let keys: Vec<Cow<'_, Value>> = keys
            .iter()
            .map(|&k| coerce(k, col.ty).map_or(Cow::Borrowed(k), Cow::Owned))
            .collect();
        let mut hits = vec![false; keys.len()];
        let mut explain = Explain {
            path: AccessPath::SemiJoin {
                column: column.to_owned(),
            },
            estimated_rows: 0,
            rows_scanned: 0,
            matched_rows: 0,
            tail_merge_rows: 0,
            plan_ms: 0.0,
            scan_ms: 0.0,
            sort_ms: 0.0,
        };
        if keys.is_empty() {
            return Ok((hits, explain));
        }
        let guards: Vec<RwLockReadGuard<'_, Stripe>> =
            self.stripes.iter().map(|s| s.read()).collect();
        explain.plan_ms = plan_started.elapsed().as_secs_f64() * 1e3;
        let scan_started = Instant::now();
        self.stats.index_queries.fetch_add(1, Ordering::Relaxed);
        // After the stripes, as every reader of an ordered index.
        let ordered = ordered.map(|index| self.ordered[index].index.read());
        let mut scanned = 0;
        // The equality too, on the few rows the residual lets through: a
        // group of an ordered index may hold another value's rows.
        let mut matches = |id: RowId, key: &Value| {
            let (stripe, slot) = unpack(id);
            let row = &guards[stripe].rows[slot].row;
            scanned += 1;
            self.row_matches(row, residual) && Op::Eq.eval(row.at(at), key)
        };
        for (key, hit) in keys.iter().zip(&mut hits) {
            if let Some(index) = &ordered {
                let group = index.group(self.group_hasher.key(key));
                explain.estimated_rows += group.len();
                *hit = group.iter().any(|e| matches(e.row, key));
                continue;
            }
            for g in &guards {
                let ids = g.index(at)?.lookup_eq(key);
                explain.estimated_rows += ids.len();
                if ids.iter().any(|&id| matches(id, key)) {
                    *hit = true;
                    break;
                }
            }
        }
        explain.rows_scanned = scanned;
        self.stats
            .rows_examined
            .fetch_add(explain.rows_scanned as u64, Ordering::Relaxed);
        explain.matched_rows = hits.iter().filter(|hit| **hit).count();
        explain.scan_ms = scan_started.elapsed().as_secs_f64() * 1e3;
        Ok((hits, explain))
    }

    /// All rows (shared handles, not deep copies) in sequence
    /// (= insertion) order. Compaction uses this to rewrite the WAL as a
    /// replayable op sequence.
    pub fn snapshot_seq_order(&self) -> Vec<Arc<Row>> {
        let mut rows: Vec<(u64, Arc<Row>)> = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            let s = stripe.read();
            rows.extend(s.rows.iter().map(|r| (r.seq, Arc::clone(&r.row))));
        }
        rows.sort_unstable_by_key(|(seq, _)| *seq);
        rows.into_iter().map(|(_, r)| r).collect()
    }

    /// Approximate memory footprint of all rows ([`Row::approx_size`]).
    pub fn approx_size(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.read()
                    .rows
                    .iter()
                    .map(|r| r.row.approx_size())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Write lock on one stripe, pinning it across duplicate-check → commit →
/// apply. Obtained from [`Table::lock_stripe`].
pub struct StripeToken<'a> {
    table: &'a Table,
    stripe: usize,
    guard: RwLockWriteGuard<'a, Stripe>,
    /// When the write lock was acquired; credited to the stripe's
    /// hold-time counter on release.
    acquired: Instant,
}

impl Drop for StripeToken<'_> {
    fn drop(&mut self) {
        self.table.observe_lock_hold(self.stripe, self.acquired);
    }
}

impl StripeToken<'_> {
    pub fn contains(&self, pk: &str) -> bool {
        self.guard.pk_map.contains_key(pk)
    }

    /// Apply a committed insert at sequence `seq`. The caller placed the
    /// row against this table's schema and checked key uniqueness under
    /// this token.
    pub fn apply_insert(&mut self, row: Arc<Row>, seq: u64) -> RowId {
        apply_insert_inner(self.table, self.stripe, &mut self.guard, row, seq)
    }

    /// Apply a validated, committed flag mutation of the column at `at`.
    /// The caller has already checked (under this token) that `pk` exists
    /// and that the column is a mutable flag column, so this cannot fail.
    pub fn apply_set_flag(&mut self, pk: &str, at: usize, value: bool) {
        apply_set_flag_inner(self.stripe, &mut self.guard, pk, at, value);
    }
}

/// Write locks on the set of stripes owning a batch of primary keys, in
/// stripe-index order. Obtained from [`Table::lock_stripe_set`].
pub struct StripeSetToken<'a> {
    table: &'a Table,
    guards: Vec<(usize, RwLockWriteGuard<'a, Stripe>)>,
    /// When the last write lock of the set was acquired; credited to every
    /// locked stripe's hold-time counter on release.
    acquired: Instant,
}

impl Drop for StripeSetToken<'_> {
    fn drop(&mut self) {
        for (i, _) in &self.guards {
            self.table.observe_lock_hold(*i, self.acquired);
        }
    }
}

impl StripeSetToken<'_> {
    /// Whether the table holds `pk`, which has to be one of the keys the
    /// set was locked for.
    pub fn contains(&self, pk: &str) -> Result<bool> {
        let i = self.position(pk)?;
        Ok(self.guards[i].1.pk_map.contains_key(pk))
    }

    /// Apply one placed, committed insert from the batch.
    pub fn apply_insert(&mut self, row: Arc<Row>, seq: u64) -> Result<RowId> {
        let table = self.table;
        let i = self.position(table.key_of(&row))?;
        let (si, stripe) = &mut self.guards[i];
        Ok(apply_insert_inner(table, *si, stripe, row, seq))
    }

    /// Where in `guards` the stripe of `pk` is.
    fn position(&self, pk: &str) -> Result<usize> {
        let stripe = self.table.stripe_of(pk);
        let found = self.guards.binary_search_by_key(&stripe, |(s, _)| *s);
        found.map_err(|_| StoreError::BadQuery(format!("the stripe of {pk} is not locked")))
    }
}

fn apply_insert_inner(
    table: &Table,
    stripe_idx: usize,
    s: &mut Stripe,
    row: Arc<Row>,
    seq: u64,
) -> RowId {
    debug_assert!(
        Arc::ptr_eq(row.schema(), &table.schema),
        "a row placed against another schema"
    );
    let slot = s.rows.len();
    let id = pack(stripe_idx, slot);
    s.pk_map.insert(table.key_of(&row).to_owned(), slot);
    s.rows.push(StoredRow { seq, row });
    // The row first, then its entries: the stripe's own indexes under the
    // stripe's write lock, each ordered index under its lock alone (the
    // stripe's write lock excludes every reader of the index: they take it
    // after all the stripes' read locks).
    let row = &s.rows[slot].row;
    for (at, index) in &mut s.indexes {
        let v = row.at(*at);
        if !v.is_null() {
            index.insert(v.clone(), id);
        }
    }
    for o in &table.ordered {
        let v = row.at(o.by);
        if !v.is_null() {
            let entry = Entry::new(row.at(o.order), seq, id);
            o.index.write().insert(table.group_hasher.key(v), entry);
        }
    }
    table.row_count.fetch_add(1, Ordering::Relaxed);
    table.stats.inserts.fetch_add(1, Ordering::Relaxed);
    id
}

fn apply_set_flag_inner(stripe_idx: usize, s: &mut Stripe, pk: &str, at: usize, value: bool) {
    let Stripe {
        rows,
        pk_map,
        indexes,
    } = s;
    let slot = pk_map[pk];
    if let Some((_, index)) = indexes.iter_mut().find(|(column, _)| *column == at) {
        let (old, id) = (rows[slot].row.at(at), pack(stripe_idx, slot));
        if !old.is_null() {
            index.remove(old, id);
        }
        index.insert(Value::Bool(value), id);
    }
    // Copy-on-write: clones the row only if the oplog or a reader still
    // shares the allocation, so neither the logged insert op nor a row
    // already handed out ever sees the mutation.
    Arc::make_mut(&mut rows[slot].row).set_at(at, Value::Bool(value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Constraint;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "instances",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("model", ValueType::Str).hash_indexed(),
                ColumnDef::new("city", ValueType::Str).hash_indexed(),
                ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
                ColumnDef::new("mape", ValueType::Float)
                    .nullable()
                    .btree_indexed(),
                ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ],
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(id: &str, model: &str, city: &str, created: i64, mape: f64) -> Record {
        Record::new()
            .set("id", id)
            .set("model", model)
            .set("city", city)
            .set("created", Value::Timestamp(created))
            .set("mape", mape)
    }

    /// `record` as `t` stores it, for the stripe tokens.
    fn placed(t: &Table, record: Record) -> Arc<Row> {
        Arc::new(t.schema().place(record).unwrap())
    }

    #[test]
    fn a_column_given_twice_is_refused_before_anything_is_stored() {
        let t = table();
        let twice: Record = row("i1", "rf", "sf", 1, 0.1)
            .into_fields()
            .into_iter()
            .chain([("city".into(), Value::from("nyc"))])
            .collect();
        assert!(matches!(
            t.insert(twice),
            Err(StoreError::DuplicateColumn { column, .. }) if column == "city"
        ));
        assert_eq!((t.len(), t.get("i1")), (0, None));
        assert_eq!(t.stats().inserts, 0);
    }

    #[test]
    fn insert_and_get() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        assert_eq!(t.get("i1").unwrap().get("model"), Some(&Value::from("rf")));
        assert!(t.get("nope").is_none());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        let err = t.insert(row("i1", "rf", "sf", 2, 0.2));
        assert!(matches!(err, Err(StoreError::DuplicateKey(_))));
    }

    #[test]
    fn planner_prefers_pk() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        let q = Query::all().and(Constraint::eq("id", "i1"));
        let (rows, path) = t.execute(&q).unwrap();
        assert_eq!(path, AccessPath::PrimaryKey);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn planner_uses_hash_index_for_eq() {
        let t = table();
        for i in 0..100 {
            t.insert(row(
                &format!("i{i}"),
                if i % 2 == 0 { "rf" } else { "lr" },
                "sf",
                i,
                0.1,
            ))
            .unwrap();
        }
        let q = Query::all().and(Constraint::eq("model", "rf"));
        let (rows, path) = t.execute(&q).unwrap();
        assert_eq!(
            path,
            AccessPath::IndexEq {
                column: "model".into()
            }
        );
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn planner_uses_btree_for_range() {
        let t = table();
        for i in 0..10 {
            t.insert(row(&format!("i{i}"), "rf", "sf", i, 0.01 * i as f64))
                .unwrap();
        }
        let q = Query::all().and(Constraint::lt("mape", 0.05));
        let (rows, path) = t.execute(&q).unwrap();
        assert_eq!(
            path,
            AccessPath::IndexRange {
                column: "mape".into()
            }
        );
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn full_scan_for_unindexed() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        // contains is not index-servable
        let q = Query::all().and(Constraint::new("model", Op::Contains, "r"));
        let (rows, path) = t.execute(&q).unwrap();
        assert_eq!(path, AccessPath::FullScan);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn residual_constraints_filtered() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        t.insert(row("i2", "rf", "nyc", 2, 0.2)).unwrap();
        let q = Query::all()
            .and(Constraint::eq("model", "rf"))
            .and(Constraint::eq("city", "nyc"));
        let (rows, _) = t.execute(&q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("id"), Some(&Value::from("i2")));
    }

    #[test]
    fn order_by_and_limit() {
        let t = table();
        for i in 0..5 {
            t.insert(row(&format!("i{i}"), "rf", "sf", 10 - i, 0.1))
                .unwrap();
        }
        let q = Query::all().order_by("created", false).limit(2);
        let (rows, _) = t.execute(&q).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("created"), Some(&Value::Timestamp(6)));
    }

    #[test]
    fn deprecated_rows_skipped_by_default() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        t.insert(row("i2", "rf", "sf", 2, 0.2)).unwrap();
        t.set_flag("i2", "deprecated", true).unwrap();
        let q = Query::all().and(Constraint::eq("model", "rf"));
        let (rows, _) = t.execute(&q).unwrap();
        assert_eq!(rows.len(), 1);
        let q = q.with_deprecated();
        let (rows, _) = t.execute(&q).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn set_flag_rejects_non_flag_columns() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        assert!(t.set_flag("i1", "model", true).is_err());
        assert!(t.set_flag("missing", "deprecated", true).is_err());
    }

    #[test]
    fn unknown_query_column_is_error() {
        let t = table();
        let q = Query::all().and(Constraint::eq("bogus", "x"));
        assert!(matches!(
            t.execute(&q),
            Err(StoreError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn stats_track_access_paths() {
        let t = table();
        for i in 0..10 {
            t.insert(row(&format!("i{i}"), "rf", "sf", i, 0.1)).unwrap();
        }
        let _ = t.execute(&Query::all().and(Constraint::eq("model", "rf")));
        let _ = t.execute(&Query::all().and(Constraint::new("model", Op::Contains, "r")));
        let s = t.stats();
        assert_eq!(s.inserts, 10);
        assert_eq!(s.index_queries, 1);
        assert_eq!(s.full_scans, 1);
    }

    #[test]
    fn rows_spread_across_stripes() {
        let t = table();
        for i in 0..200 {
            t.insert(row(&format!("i{i}"), "rf", "sf", i, 0.1)).unwrap();
        }
        assert_eq!(t.len(), 200);
        let touched = (0..200)
            .map(|i| t.stripe_of(&format!("i{i}")))
            .collect::<std::collections::HashSet<_>>();
        assert!(
            touched.len() > 1,
            "FNV-1a striping must spread keys over stripes"
        );
        // Every row still reachable by pk and by full query.
        for i in 0..200 {
            assert!(t.contains(&format!("i{i}")));
        }
        let (rows, _) = t
            .execute(&Query::all().and(Constraint::eq("model", "rf")))
            .unwrap();
        assert_eq!(rows.len(), 200);
    }

    #[test]
    fn query_results_in_insertion_order_across_stripes() {
        let t = table();
        for i in 0..50 {
            t.insert(row(&format!("i{i}"), "rf", "sf", i, 0.1)).unwrap();
        }
        let (rows, _) = t.execute(&Query::all()).unwrap();
        let ids: Vec<String> = rows
            .iter()
            .map(|r| r.get("id").unwrap().as_str().unwrap().to_owned())
            .collect();
        let expected: Vec<String> = (0..50).map(|i| format!("i{i}")).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn a_flag_write_keeps_an_index_on_the_flag_exact() {
        let schema = TableSchema::new(
            "m",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("deprecated", ValueType::Bool)
                    .nullable()
                    .hash_indexed(),
            ],
        )
        .unwrap();
        let t = Table::with_config(schema, 2);
        t.insert(Record::new().set("id", "a")).unwrap();
        t.insert(Record::new().set("id", "b").set("deprecated", false))
            .unwrap();
        let flagged = |value: bool| -> Vec<String> {
            let q = Query::all()
                .and(Constraint::eq("deprecated", value))
                .with_deprecated();
            let (rows, path) = t.execute(&q).unwrap();
            let by_flag = AccessPath::IndexEq {
                column: "deprecated".into(),
            };
            assert_eq!(path, by_flag);
            ids(&rows).into_iter().map(str::to_owned).collect()
        };
        // `a` has no flag yet, so no entry.
        assert_eq!((flagged(true), flagged(false)), (vec![], vec!["b".into()]));
        // From no flag, from `false`, and back: each write moves the entry.
        t.set_flag("a", "deprecated", true).unwrap();
        assert_eq!(flagged(true), ["a"]);
        t.set_flag("b", "deprecated", true).unwrap();
        assert_eq!(
            (flagged(true), flagged(false)),
            (vec!["a".into(), "b".into()], vec![])
        );
        t.set_flag("a", "deprecated", false).unwrap();
        assert_eq!(
            (flagged(true), flagged(false)),
            (vec!["b".into()], vec!["a".into()])
        );
    }

    #[test]
    fn returned_rows_are_snapshots_across_set_flag() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1).set("deprecated", false))
            .unwrap();
        let q = Query::all().and(Constraint::eq("model", "rf"));
        let (queried, _) = t.execute(&q).unwrap();
        let got = t.get("i1").unwrap();
        let [at] = t.schema().positions(["deprecated"]);
        t.set_flag("i1", "deprecated", true).unwrap();
        // Rows handed out before the write still read the old value, by
        // name and by position...
        let not_yet = Some(&Value::Bool(false));
        assert_eq!(queried[0].get("deprecated"), not_yet);
        assert_eq!(got.values_at(&[at]), [&Value::Bool(false)]);
        // ...and a fresh read sees the new one.
        let fresh = t.get("i1").unwrap();
        assert_eq!(fresh.get("deprecated"), Some(&Value::Bool(true)));
        assert!(!Arc::ptr_eq(&fresh, &got), "the write copied the row");
        assert!(t.execute(&q).unwrap().0.is_empty());
        assert_eq!(t.execute(&q.with_deprecated()).unwrap().0, vec![fresh]);
    }

    #[test]
    fn pk_query_reads_only_the_owning_stripe() {
        let t = table();
        t.insert(row("i1", "rf", "sf", 1, 0.1)).unwrap();
        let elsewhere = (0..)
            .map(|i| format!("other{i}"))
            .find(|pk| t.stripe_of(pk) != t.stripe_of("i1"))
            .unwrap();
        // A writer holds another stripe for the whole query: only a plan
        // that takes every stripe would wait for it.
        let _writer = t.lock_stripe(&elsewhere);
        let (rows, ex) = t
            .execute_explain(&Query::all().and(Constraint::eq("id", "i1")))
            .unwrap();
        assert_eq!(ex.path, AccessPath::PrimaryKey);
        assert_eq!(rows.len(), 1);
        // A key of the wrong type matches nothing and locks nothing.
        let (rows, ex) = t
            .execute_explain(&Query::all().and(Constraint::eq("id", 7i64)))
            .unwrap();
        assert_eq!((ex.path, rows.len()), (AccessPath::PrimaryKey, 0));
    }

    #[test]
    fn int_literals_take_the_column_type() {
        let t = table();
        for i in 0..10 {
            t.insert(row(&format!("i{i}"), "rf", "sf", i, i as f64))
                .unwrap();
        }
        let ids = |q: &Query| -> Vec<String> {
            let (rows, _) = t.execute(q).unwrap();
            rows.iter()
                .map(|r| r.get("id").unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        // Int against a timestamp column orders by number, through the index.
        let q = Query::all().and(Constraint::ge("created", 7i64));
        assert_eq!(ids(&q), ["i7", "i8", "i9"]);
        assert_eq!(
            t.execute(&q).unwrap().1,
            AccessPath::IndexRange {
                column: "created".into()
            }
        );
        assert_eq!(
            ids(&Query::all().and(Constraint::lt("created", 2i64))),
            ["i0", "i1"]
        );
        assert_eq!(
            ids(&Query::all().and(Constraint::eq("created", 4i64))),
            ["i4"]
        );
        // Int against a float column finds the same rows as the float.
        assert_eq!(
            ids(&Query::all().and(Constraint::eq("mape", 3i64))),
            ids(&Query::all().and(Constraint::eq("mape", 3.0)))
        );
    }

    #[test]
    fn row_id_packing_roundtrip() {
        for (stripe, slot) in [(0, 0), (3, 17), (31, (1 << 27) - 1)] {
            assert_eq!(unpack(pack(stripe, slot)), (stripe, slot));
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vector() {
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn execute_explain_reports_estimates() {
        let t = Table::with_config(table().schema.clone(), 4);
        for i in 0..100 {
            t.insert(row(
                &format!("i{i}"),
                if i % 2 == 0 { "rf" } else { "lr" },
                "sf",
                i,
                0.01 * i as f64,
            ))
            .unwrap();
        }
        let q_eq = Query::all().and(Constraint::eq("model", "rf"));
        let (rows, ex) = t.execute_explain(&q_eq).unwrap();
        assert_eq!(
            ex.path,
            AccessPath::IndexEq {
                column: "model".into()
            }
        );
        // Current at insert: the index serves exactly the bucket.
        assert_eq!(ex.tail_merge_rows, 0);
        assert_eq!(ex.rows_scanned, 50);
        assert_eq!(ex.estimated_rows, 50);
        assert_eq!(ex.matched_rows, 50);
        assert_eq!(rows.len(), 50);
        assert!(ex.plan_ms >= 0.0 && ex.scan_ms >= 0.0 && ex.sort_ms >= 0.0);

        let (_, ex) = t
            .execute_explain(&Query::all().and(Constraint::eq("id", "i7")))
            .unwrap();
        assert_eq!(ex.path, AccessPath::PrimaryKey);
        assert_eq!(
            (ex.estimated_rows, ex.rows_scanned, ex.matched_rows),
            (1, 1, 1)
        );
        assert_eq!(ex.tail_merge_rows, 0);

        let (_, ex) = t
            .execute_explain(&Query::all().and(Constraint::new("model", Op::Contains, "r")))
            .unwrap();
        assert_eq!(ex.path, AccessPath::FullScan);
        assert_eq!(ex.estimated_rows, 100);
        assert_eq!(ex.rows_scanned, 100);
        assert_eq!(ex.tail_merge_rows, 0);

        let (_, ex) = t
            .execute_explain(&Query::all().and(Constraint::lt("mape", 0.25)))
            .unwrap();
        assert_eq!(
            ex.path,
            AccessPath::IndexRange {
                column: "mape".into()
            }
        );
        assert_eq!(
            ex.estimated_rows, 100,
            "range estimate is the row-count bound"
        );
        assert_eq!(ex.rows_scanned, 25);
        assert_eq!(ex.matched_rows, 25);
        assert_eq!(ex.tail_merge_rows, 0);
    }

    /// `table()` with the hash index on `model` replaced by the ordered
    /// index `model → created`.
    fn ordered_table(lock_stripes: usize) -> Table {
        let mut schema = (*table().schema).clone();
        schema.columns[1].index = None;
        let schema = schema.ordered_by("model", "created").unwrap();
        Table::with_config(schema, lock_stripes)
    }

    fn ids(rows: &[Arc<Row>]) -> Vec<&str> {
        rows.iter()
            .map(|r| r.get("id").unwrap().as_str().unwrap())
            .collect()
    }

    fn top_path() -> AccessPath {
        AccessPath::IndexTop {
            column: "model".into(),
            order: "created".into(),
        }
    }

    #[test]
    fn order_by_breaks_ties_by_commit_sequence() {
        // Same `created` everywhere: commit order is all that tells rows
        // apart. Through the sort path (no ordered index) and IndexTop.
        for t in [table(), ordered_table(16)] {
            for i in 0..9 {
                t.insert(row(&format!("i{i}"), "rf", "sf", 7, 0.1)).unwrap();
            }
            let by_model = Query::all().and(Constraint::eq("model", "rf"));
            for descending in [false, true] {
                let q = by_model.clone().order_by("created", descending);
                let (all, _) = t.execute(&q).unwrap();
                let mut expected: Vec<String> = (0..9).map(|i| format!("i{i}")).collect();
                if descending {
                    expected.reverse();
                }
                assert_eq!(ids(&all), expected, "descending={descending}");
                // Every limit is a prefix of the unlimited result.
                for k in [0, 1, 3, 9, 100] {
                    let (some, _) = t.execute(&q.clone().limit(k)).unwrap();
                    assert_eq!(some[..], all[..k.min(9)], "limit {k}");
                }
            }
        }
    }

    #[test]
    fn index_top_reads_what_it_returns() {
        let t = ordered_table(4);
        for i in 0..100 {
            let model = if i % 2 == 0 { "rf" } else { "lr" };
            t.insert(row(&format!("i{i:02}"), model, "sf", i, 0.1))
                .unwrap();
        }
        let latest = Query::all()
            .and(Constraint::eq("model", "rf"))
            .order_by("created", true)
            .limit(1);
        let (rows, ex) = t.execute_explain(&latest).unwrap();
        assert_eq!(ids(&rows), ["i98"]);
        assert_eq!(ex.path, top_path());
        assert_eq!(
            (
                ex.estimated_rows,
                ex.rows_scanned,
                ex.matched_rows,
                ex.tail_merge_rows
            ),
            (1, 1, 1, 0)
        );
        // Oldest three, from the other end.
        let (rows, ex) = t
            .execute_explain(&latest.clone().order_by("created", false).limit(3))
            .unwrap();
        assert_eq!(ids(&rows), ["i00", "i02", "i04"]);
        assert_eq!((ex.rows_scanned, ex.matched_rows), (3, 3));
        // Deprecated rows on top are walked past, and counted.
        t.set_flag("i98", "deprecated", true).unwrap();
        t.set_flag("i96", "deprecated", true).unwrap();
        let (rows, ex) = t.execute_explain(&latest).unwrap();
        assert_eq!(ids(&rows), ["i94"]);
        assert_eq!((ex.rows_scanned, ex.matched_rows), (3, 1));
        let (rows, ex) = t
            .execute_explain(&latest.clone().with_deprecated())
            .unwrap();
        assert_eq!(ids(&rows), ["i98"]);
        assert_eq!(ex.rows_scanned, 1);
        // A residual constraint is evaluated on the way down.
        let (rows, ex) = t
            .execute_explain(&latest.clone().and(Constraint::lt("created", 50i64)))
            .unwrap();
        assert_eq!(ids(&rows), ["i48"]);
        assert_eq!(
            ex.rows_scanned, 26,
            "25 skipped (i98 ... i50), i48 returned"
        );
        // A group that is not there, a limit of nothing, a limit of everything.
        let absent = Query::all()
            .and(Constraint::eq("model", "gbm"))
            .order_by("created", true)
            .limit(1);
        let (rows, ex) = t.execute_explain(&absent).unwrap();
        assert_eq!((rows.len(), ex.rows_scanned, &ex.path), (0, 0, &top_path()));
        let (rows, ex) = t.execute_explain(&latest.clone().limit(0)).unwrap();
        assert_eq!((rows.len(), ex.rows_scanned), (0, 0));
        let (rows, ex) = t.execute_explain(&latest.clone().limit(1_000)).unwrap();
        assert_eq!((rows.len(), ex.rows_scanned), (48, 50));
    }

    #[test]
    fn groups_that_share_a_key_cost_rows_read_not_wrong_answers() {
        let mut t = ordered_table(4);
        t.group_hasher.collide = true;
        for i in 0..40 {
            let model = ["rf", "lr", "gbm", "svm"][i % 4];
            t.insert(row(&format!("i{i:02}"), model, "sf", i as i64, 0.1))
                .unwrap();
        }
        let by_model = Query::all().and(Constraint::eq("model", "lr"));
        let (rows, ex) = t.execute_explain(&by_model).unwrap();
        assert!(matches!(ex.path, AccessPath::IndexEq { .. }));
        assert_eq!(rows.len(), 10);
        assert_eq!(
            ex.rows_scanned, 40,
            "every model's rows sit in the one group"
        );
        let (rows, ex) = t
            .execute_explain(&by_model.clone().order_by("created", true).limit(2))
            .unwrap();
        assert_eq!(ex.path, top_path());
        assert_eq!(ids(&rows), ["i37", "i33"]);
        assert_eq!(ex.rows_scanned, 7, "i39 down to i33");
    }

    #[test]
    fn index_top_needs_equality_order_and_limit() {
        let t = ordered_table(4);
        for i in 0..20 {
            t.insert(row(&format!("i{i:02}"), "rf", "sf", i, 0.01 * i as f64))
                .unwrap();
        }
        let by_model = Query::all().and(Constraint::eq("model", "rf"));
        let eq_path = AccessPath::IndexEq {
            column: "model".into(),
        };
        // No limit, no order, or another order: the same index, as IndexEq.
        for q in [
            by_model.clone(),
            by_model.clone().order_by("created", true),
            by_model.clone().limit(1),
            by_model.clone().order_by("mape", true).limit(1),
        ] {
            let (rows, ex) = t.execute_explain(&q).unwrap();
            assert_eq!(ex.path, eq_path, "{q:?}");
            assert_eq!((ex.estimated_rows, ex.rows_scanned), (20, 20));
            assert_eq!(ex.tail_merge_rows, 0);
            assert_eq!(rows.len(), q.limit.unwrap_or(20));
        }
        // A range on the grouping column is not an equality.
        let q = Query::all()
            .and(Constraint::ge("model", "rf"))
            .order_by("created", true)
            .limit(1);
        assert_eq!(t.plan(&q).unwrap(), AccessPath::FullScan);
        // The primary key still wins.
        let q = by_model
            .and(Constraint::eq("id", "i07"))
            .order_by("created", true)
            .limit(1);
        assert_eq!(t.plan(&q).unwrap(), AccessPath::PrimaryKey);
    }

    #[test]
    fn ordered_index_places_late_and_null_rows() {
        let mut schema = (*table().schema).clone();
        schema.columns[1].index = None;
        // Order by the nullable column; created times arrive out of order.
        let schema = schema.ordered_by("model", "mape").unwrap();
        let t = Table::with_config(schema, 4);
        for (i, mape) in [0.5, 0.1, 0.9, 0.1, 0.3].into_iter().enumerate() {
            t.insert(row(&format!("i{i}"), "rf", "sf", i as i64, mape))
                .unwrap();
        }
        // No `mape` at all: Null sorts first, as in the sort path.
        let without = Record::new()
            .set("id", "i5")
            .set("model", "rf")
            .set("city", "sf")
            .set("created", Value::Timestamp(5));
        t.insert(without).unwrap();
        let q = Query::all()
            .and(Constraint::eq("model", "rf"))
            .order_by("mape", false);
        let (sorted, path) = t.execute(&q).unwrap();
        assert!(matches!(path, AccessPath::IndexEq { .. }));
        assert_eq!(ids(&sorted), ["i5", "i1", "i3", "i4", "i0", "i2"]);
        let (walked, ex) = t.execute_explain(&q.clone().limit(6)).unwrap();
        assert!(matches!(ex.path, AccessPath::IndexTop { .. }));
        assert_eq!(walked, sorted);
        let (walked, _) = t.execute(&q.order_by("mape", true).limit(6)).unwrap();
        assert_eq!(ids(&walked), ["i2", "i0", "i4", "i3", "i1", "i5"]);
    }

    /// 100 rows, `i00`…`i99`: models alternate `rf`/`lr`, cities cycle
    /// `sf`/`nyc`/`la`, `created` = the row's number.
    fn joined(t: &Table) {
        for i in 0..100 {
            let model = ["rf", "lr"][i % 2];
            let city = ["sf", "nyc", "la"][i % 3];
            t.insert(row(&format!("i{i:02}"), model, city, i as i64, 0.1))
                .unwrap();
        }
    }

    fn join_path(column: &str) -> AccessPath {
        AccessPath::SemiJoin {
            column: column.into(),
        }
    }

    #[test]
    fn semi_join_stops_each_key_at_its_first_match() {
        let t = ordered_table(4);
        joined(&t);
        let keys = ["rf", "gbm", "lr", "rf"].map(Value::from);
        let keys: Vec<&Value> = keys.iter().collect();
        let before = Query::all().and(Constraint::lt("created", 1i64));
        let (hits, ex) = t.semi_join("model", &keys, &before).unwrap();
        // `i00` is an `rf`; every `lr` row is read and rejected.
        assert_eq!(hits, [true, false, false, true]);
        assert_eq!(ex.path, join_path("model"));
        assert_eq!(ex.matched_rows, 2);
        assert_eq!(ex.tail_merge_rows, 0);
        assert!(ex.rows_scanned >= 50 + 2, "{ex}");
        assert!(ex.rows_scanned <= ex.estimated_rows, "{ex}");
        // Everything matches: one row read per key that has any.
        let (hits, ex) = t.semi_join("model", &keys, &Query::all()).unwrap();
        assert_eq!(hits, [true, false, true, true]);
        assert_eq!((ex.rows_scanned, ex.matched_rows), (3, 3));
        // A deprecated row answers only a residual that asks for them.
        let only = Query::all().and(Constraint::eq("created", 7i64));
        t.set_flag("i07", "deprecated", true).unwrap();
        let (hits, _) = t.semi_join("model", &keys, &only).unwrap();
        assert_eq!(hits, [false; 4]);
        let (hits, _) = t
            .semi_join("model", &keys, &only.with_deprecated())
            .unwrap();
        assert_eq!(hits, [false, false, true, false]);
        let stats = t.stats();
        assert_eq!((stats.index_queries, stats.full_scans), (4, 0));
    }

    #[test]
    fn semi_join_probes_a_hash_index_stripe_by_stripe() {
        let t = Table::with_config(table().schema.clone(), 4);
        joined(&t);
        let keys = [
            Value::from("nyc"),
            Value::from("sf"),
            Value::Null,
            Value::from("sea"),
            Value::from("nyc"),
        ];
        let keys: Vec<&Value> = keys.iter().collect();
        // `i04` is the one `nyc` row under 5; `sf` has `i00` and `i03`.
        let early = Query::all().and(Constraint::lt("created", 5i64));
        let (hits, ex) = t.semi_join("city", &keys, &early).unwrap();
        assert_eq!(hits, [true, true, false, false, true]);
        assert_eq!(ex.path, join_path("city"));
        assert_eq!(ex.tail_merge_rows, 0);
        // The buckets, each up to its first match, stripe by stripe.
        assert_eq!(ex.matched_rows, 3);
        assert!((3..=ex.estimated_rows).contains(&ex.rows_scanned), "{ex}");
        assert!(ex.estimated_rows <= 33 + 34 + 33, "{ex}");
        // Int keys take the column's type, as a query's literals do.
        let (hits, _) = t
            .semi_join(
                "created",
                &[&Value::Int(7), &Value::Int(700)],
                &Query::all(),
            )
            .unwrap();
        assert_eq!(hits, [true, false]);
    }

    #[test]
    fn semi_join_survives_groups_that_share_a_key() {
        let mut t = ordered_table(4);
        t.group_hasher.collide = true;
        joined(&t);
        let keys = [Value::from("lr"), Value::from("gbm")];
        let keys: Vec<&Value> = keys.iter().collect();
        let (hits, ex) = t.semi_join("model", &keys, &Query::all()).unwrap();
        assert_eq!(hits, [true, false]);
        assert!(ex.rows_scanned > 100, "gbm reads every row and keeps none");
    }

    #[test]
    fn semi_join_rejects_what_it_cannot_serve_and_locks_nothing_for_no_keys() {
        let t = table();
        joined(&t);
        let key = Value::from("rf");
        let join = |column: &str, residual: &Query| t.semi_join(column, &[&key], residual);
        let bogus = Query::all().and(Constraint::eq("bogus", 1i64));
        assert!(matches!(
            join("model", &bogus),
            Err(StoreError::NoSuchColumn { column, .. }) if column == "bogus"
        ));
        assert!(matches!(
            join("bogus", &Query::all()),
            Err(StoreError::NoSuchColumn { .. })
        ));
        // The primary key has a map, not an index.
        for (column, residual) in [
            ("id", Query::all()),
            ("model", Query::all().limit(1)),
            ("model", Query::all().order_by("created", true)),
        ] {
            let err = join(column, &residual);
            assert!(matches!(err, Err(StoreError::BadQuery(_))), "{err:?}");
        }
        // A writer holds a stripe: a join that took any lock would wait.
        let _writer = t.lock_stripe("i00");
        let (hits, ex) = t.semi_join("model", &[], &Query::all()).unwrap();
        assert!(hits.is_empty());
        assert_eq!((ex.rows_scanned, ex.path), (0, join_path("model")));
    }

    #[test]
    fn stripe_lock_metrics_record_waits_and_holds() {
        let t = Table::with_config(table().schema.clone(), 4);
        let metrics = StripeLockMetrics {
            wait_ms: (0..4)
                .map(|_| Histogram::standalone(vec![1.0, 10.0]))
                .collect(),
            hold_us_total: (0..4).map(|_| Counter::standalone()).collect(),
        };
        t.set_lock_metrics(metrics.clone());
        for i in 0..20 {
            t.insert(row(&format!("i{i}"), "rf", "sf", i, 0.1)).unwrap();
        }
        let single_waits: u64 = metrics.wait_ms.iter().map(|h| h.count()).sum();
        assert_eq!(single_waits, 20, "one wait observation per insert");

        let pks: Vec<String> = (0..10).map(|i| format!("b{i}")).collect();
        let stripes_locked = {
            let mut token = t.lock_stripe_set(&pks);
            for (i, pk) in pks.iter().enumerate() {
                let placed = placed(&t, row(pk, "rf", "sf", i as i64, 0.1));
                token.apply_insert(placed, 100 + i as u64).unwrap();
            }
            token.guards.len() as u64
        };
        let total_waits: u64 = metrics.wait_ms.iter().map(|h| h.count()).sum();
        assert_eq!(
            total_waits,
            20 + stripes_locked,
            "one wait per locked stripe"
        );
    }

    #[test]
    fn stripe_set_token_batch_insert() {
        let t = table();
        let pks: Vec<String> = (0..10).map(|i| format!("b{i}")).collect();
        {
            let mut token = t.lock_stripe_set(&pks);
            for (i, pk) in pks.iter().enumerate() {
                assert!(!token.contains(pk).unwrap());
                let placed = placed(&t, row(pk, "rf", "sf", i as i64, 0.1));
                token.apply_insert(placed, i as u64 + 1).unwrap();
            }
            // A key the set was not locked for is refused, not looked up.
            let outside = (0..)
                .map(|i| format!("x{i}"))
                .find(|pk| !token.guards.iter().any(|(s, _)| *s == t.stripe_of(pk)))
                .unwrap();
            assert!(matches!(
                token.contains(&outside),
                Err(StoreError::BadQuery(_))
            ));
            let row = placed(&t, row(&outside, "rf", "sf", 0, 0.1));
            assert!(token.apply_insert(row, 99).is_err());
        }
        assert_eq!(t.len(), 10);
        for pk in &pks {
            assert!(t.contains(pk));
        }
    }
}
