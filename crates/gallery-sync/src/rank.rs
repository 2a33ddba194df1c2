//! The declared lock-rank table.
//!
//! Every ordered lock in the workspace carries one of these ranks. The
//! total order is the documented acquisition order (outer locks first,
//! inner locks last, docs/concurrency.md): a thread may only acquire a
//! lock whose rank is strictly greater than every rank it already holds.
//! Stripes are a rank *family* — sixteen-plus locks at one level, ordered
//! among themselves by stripe index, which is exactly the
//! `StripeSetToken` sort order in `gallery-store::table`.
//!
//! The table is static and closed: acquiring a lock whose rank is not
//! declared here is itself a diagnostic ([`crate::diag::codes::UNDECLARED`]),
//! so new locks must be added to the table (and to the docs) before they
//! can be used.

use std::fmt;

/// A position in the global acquisition order.
///
/// `level` is the coarse position; `index` orders members of a rank
/// family (stripes) within one level. The acquisition rule compares the
/// pair `(level, index)` lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank {
    pub level: u32,
    pub index: u32,
    pub name: &'static str,
}

impl Rank {
    pub const fn new(level: u32, name: &'static str) -> Self {
        Rank {
            level,
            index: 0,
            name,
        }
    }

    pub const fn indexed(level: u32, index: u32, name: &'static str) -> Self {
        Rank { level, index, name }
    }

    /// The lexicographic key the acquisition check compares.
    pub const fn key(&self) -> u64 {
        ((self.level as u64) << 32) | self.index as u64
    }

    /// Display label: `Stripe[3]` for family members, `Catalog` otherwise.
    pub fn label(&self) -> String {
        if self.index != 0 || self.level == STRIPE_LEVEL {
            format!("{}[{}]", self.name, self.index)
        } else {
            self.name.to_string()
        }
    }

    /// May this rank be held while the WAL fsyncs? The write path holds
    /// the gate, the catalog (DDL), and row stripes across group commit
    /// *by design* — that is what makes commit ordering equal apply
    /// ordering. Everything else held across an fsync is a latency bug at
    /// best and a deadlock ingredient at worst (GL0301).
    pub fn allowed_across_wal_fsync(&self) -> bool {
        matches!(
            self.level,
            GATE_LEVEL | SHIP_LEVEL | CATALOG_LEVEL | STRIPE_LEVEL | WAL_LEVEL
        )
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

// --- Cluster / service layer (outermost: held across RPCs into nodes) ---

/// The router's shard map; failover holds its write half across probe and
/// role-change RPCs, so everything a node can touch ranks after it.
pub const SHARD_MAP: Rank = Rank::new(10, "ShardMap");
/// Router's per-shard leader oplog high-water marks.
pub const LEADER_SEQ: Rank = Rank::new(20, "LeaderSeq");
/// Router's per-(shard, node) follower shipping progress.
pub const PROGRESS: Rank = Rank::new(30, "Progress");
/// A node's shard → replica server map.
pub const NODE_REPLICAS: Rank = Rank::new(40, "NodeReplicas");
/// A replica's leader/follower role flag.
pub const REPLICA_ROLE: Rank = Rank::new(50, "ReplicaRole");
/// The server-side idempotency dedupe cache.
pub const IDEMPOTENCY: Rank = Rank::new(60, "Idempotency");
/// Client-side per-endpoint circuit breakers.
pub const BREAKER: Rank = Rank::new(70, "Breaker");

// --- DAL / blob layer (above the metadata store in the call stack) ---

/// The blob LRU cache's internal state.
pub const BLOB_CACHE: Rank = Rank::new(80, "BlobCache");
/// A blob backend's internal map / directory lock.
pub const BLOB_STORE: Rank = Rank::new(85, "BlobStore");

// --- Metadata store write path (documented order in meta.rs) ---

const GATE_LEVEL: u32 = 100;
const SHIP_LEVEL: u32 = 110;
const CATALOG_LEVEL: u32 = 120;
pub(crate) const STRIPE_LEVEL: u32 = 200;
const ORDERED_INDEX_LEVEL: u32 = 260;
const COMMIT_QUEUE_LEVEL: u32 = 300;
const WAL_LEVEL: u32 = 310;
const OPLOG_LEVEL: u32 = 320;

/// The store's commit gate (compaction vs. writers).
pub const GATE: Rank = Rank::new(GATE_LEVEL, "Gate");
/// Serializes shipped-frame application on follower replicas.
pub const SHIP_LOCK: Rank = Rank::new(SHIP_LEVEL, "ShipLock");
/// The table catalog.
pub const CATALOG: Rank = Rank::new(CATALOG_LEVEL, "Catalog");
/// Row stripe `i` of a table; stripes acquire in ascending index order.
pub const fn stripe(index: usize) -> Rank {
    Rank::indexed(STRIPE_LEVEL, index as u32, "Stripe")
}
/// One ordered index of a table. Taken after the table's stripes — by a
/// writer inside the apply its stripe write lock covers, by a reader
/// after every stripe read lock — and never across a commit, nor for two
/// tables (or two indexes) at once.
pub const ORDERED_INDEX: Rank = Rank::new(ORDERED_INDEX_LEVEL, "OrderedIndex");
/// The group-commit queue (leader/follower protocol).
pub const COMMIT_QUEUE: Rank = Rank::new(COMMIT_QUEUE_LEVEL, "CommitQueue");
/// The WAL file itself (append + fsync).
pub const WAL: Rank = Rank::new(WAL_LEVEL, "Wal");
/// The oplog: sequence assignment follows WAL order, so it locks after.
pub const OPLOG: Rank = Rank::new(OPLOG_LEVEL, "Oplog");

// --- Leaf observers (nothing may be acquired while holding these) ---

/// Store-level operation metrics.
pub const META_METRICS: Rank = Rank::new(900, "MetaMetrics");
/// The slow-query capture ring.
pub const SLOW_LOG: Rank = Rank::new(905, "SlowLog");
/// Per-table stripe-lock wait/hold metrics.
pub const STRIPE_METRICS: Rank = Rank::new(910, "StripeMetrics");
/// Deferred-index delta counters.
pub const INDEX_DELTAS: Rank = Rank::new(915, "IndexDeltas");
/// Group-commit batch statistics.
pub const COMMITTER_STATS: Rank = Rank::new(920, "CommitterStats");
/// Simulated-latency meter state.
pub const LATENCY_METER: Rank = Rank::new(925, "LatencyMeter");
/// The simulated crash-testing filesystem.
pub const SIM_FS: Rank = Rank::new(930, "SimFs");
/// The fault-injection plan.
pub const FAULT_PLAN: Rank = Rank::new(935, "FaultPlan");
/// Client resilience statistics.
pub const RESILIENCE_STATS: Rank = Rank::new(940, "ResilienceStats");
/// Retry-jitter RNG state.
pub const RETRY_RNG: Rank = Rank::new(945, "RetryRng");
/// A transport's worker-thread join handle.
pub const WORKER_HANDLE: Rank = Rank::new(950, "WorkerHandle");

/// Highest stripe index the declared table covers (the store caps
/// `MAX_LOCK_STRIPES` at 32; leave headroom).
pub const MAX_STRIPE_INDEX: u32 = 63;

/// Every declared non-family rank, in acquisition order. The stripe
/// family sits between [`CATALOG`] and [`ORDERED_INDEX`].
pub const DECLARED: &[Rank] = &[
    SHARD_MAP,
    LEADER_SEQ,
    PROGRESS,
    NODE_REPLICAS,
    REPLICA_ROLE,
    IDEMPOTENCY,
    BREAKER,
    BLOB_CACHE,
    BLOB_STORE,
    GATE,
    SHIP_LOCK,
    CATALOG,
    ORDERED_INDEX,
    COMMIT_QUEUE,
    WAL,
    OPLOG,
    META_METRICS,
    SLOW_LOG,
    STRIPE_METRICS,
    INDEX_DELTAS,
    COMMITTER_STATS,
    LATENCY_METER,
    SIM_FS,
    FAULT_PLAN,
    RESILIENCE_STATS,
    RETRY_RNG,
    WORKER_HANDLE,
];

/// Is `rank` in the declared table (including the stripe family)?
pub fn is_declared(rank: &Rank) -> bool {
    if rank.level == STRIPE_LEVEL {
        return rank.name == "Stripe" && rank.index <= MAX_STRIPE_INDEX;
    }
    DECLARED
        .iter()
        .any(|d| d.level == rank.level && d.index == rank.index && d.name == rank.name)
}

/// The one-line order summary diagnostics render and underline — the
/// "source text" of a lock-rank finding.
pub fn order_line() -> String {
    "ShardMap < LeaderSeq < Progress < NodeReplicas < ReplicaRole < Idempotency < Breaker \
     < BlobCache < BlobStore < Gate < ShipLock < Catalog < Stripe(i) < OrderedIndex \
     < CommitQueue < Wal < Oplog < leaf observers"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_table_is_strictly_ascending_and_unique() {
        for pair in DECLARED.windows(2) {
            assert!(
                pair[0].key() < pair[1].key(),
                "{} must order before {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn stripes_order_by_index_between_catalog_and_ordered_index() {
        assert!(CATALOG.key() < stripe(0).key());
        assert!(stripe(0).key() < stripe(1).key());
        assert!(stripe(MAX_STRIPE_INDEX as usize).key() < ORDERED_INDEX.key());
        assert!(ORDERED_INDEX.key() < COMMIT_QUEUE.key());
    }

    #[test]
    fn declaration_check_covers_families_and_rejects_strangers() {
        assert!(is_declared(&GATE));
        assert!(is_declared(&stripe(31)));
        assert!(!is_declared(&Rank::indexed(STRIPE_LEVEL, 64, "Stripe")));
        assert!(!is_declared(&Rank::new(77, "Rogue")));
    }

    #[test]
    fn fsync_allowance_matches_the_write_path() {
        for ok in [GATE, SHIP_LOCK, CATALOG, stripe(5), WAL] {
            assert!(ok.allowed_across_wal_fsync(), "{ok}");
        }
        for bad in [
            SHARD_MAP,
            IDEMPOTENCY,
            ORDERED_INDEX,
            COMMIT_QUEUE,
            OPLOG,
            META_METRICS,
        ] {
            assert!(!bad.allowed_across_wal_fsync(), "{bad}");
        }
    }

    #[test]
    fn labels_show_family_indices() {
        assert_eq!(stripe(7).label(), "Stripe[7]");
        assert_eq!(CATALOG.label(), "Catalog");
        assert_eq!(order_line().split('<').count(), 18);
    }
}
