//! Seeded random DAL workloads.
//!
//! A workload is a flat list of logical operations against one `instances`
//! table. Two properties make workloads usable for crash testing:
//!
//! 1. **Determinism** — `Workload::generate(seed, len)` always produces the
//!    same op list, so a failing crash scenario is reproduced from its seed
//!    alone.
//! 2. **Self-describing payloads** — the blob for instance `id` is
//!    `payload_for(seed, id)`, a pure function. After a crash + recovery,
//!    any surviving row's blob can be checked byte-for-byte without
//!    replaying the workload.
//!
//! Flag mutation is deliberately monotone (instances are only ever
//! *deprecated*, never un-deprecated, matching §3.7's immutability story).
//! A recovered store holds a prefix of the workload, so a monotone flag
//! admits a simple invariant: a recovered `deprecated = true` implies the
//! full workload deprecated that instance too.

use crate::dal::Dal;
use crate::error::StoreError;
use crate::query::{Constraint, Query};
use crate::record::Record;
use crate::schema::{ColumnDef, TableSchema};
use crate::value::{Value, ValueType};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The single table crash workloads run against (mirrors the `instances`
/// schema used throughout the test suite).
pub const TABLE: &str = "instances";

/// Schema for [`TABLE`]: primary key, nullable blob pointer, nullable
/// deprecation flag, nullable group (see [`group_for`]; a row without one
/// is in no group), nullable score (see [`score_for`]), and the ordered
/// index `group → score` behind the workload's top-k reads.
pub fn instance_schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("blob_location", ValueType::Str).nullable(),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
            ColumnDef::new("group", ValueType::Str).nullable(),
            ColumnDef::new("score", ValueType::Float).nullable(),
        ],
    )
    .and_then(|s| s.ordered_by("group", "score"))
    .expect("static schema is valid")
}

/// The groups instances fall into.
pub const GROUPS: [&str; 3] = ["g0", "g1", "g2"];

/// A group no instance falls into.
pub const NO_GROUP: &str = "g9";

/// Deterministic `group` of an instance: one of three, so a group holds
/// rows with every kind of score (and mostly none — only
/// [`WorkloadOp::PutMeta`] rows carry one; the rest tie on `Null` and are
/// told apart by commit order alone).
pub fn group_for(id: &str) -> &'static str {
    GROUPS[id.bytes().fold(0usize, |h, b| h * 17 + usize::from(b)) % GROUPS.len()]
}

/// The row every insert op writes for `id`, before its score or blob.
fn row_for(id: &str) -> Record {
    Record::new().set("id", id).set("group", group_for(id))
}

/// Deterministic `score` of a metadata-only instance. Four in five are the
/// floats a text encoding loses — a NaN with a payload, both infinities,
/// negative zero — so every store under test has to carry them bit for
/// bit, through its log and back.
pub fn score_for(id: &str) -> f64 {
    let pick = id.bytes().fold(0usize, |h, b| h * 31 + usize::from(b)) % 5;
    [
        f64::from_bits(0x7ff8_0000_0000_0bad),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.5,
    ][pick]
}

/// Deterministic blob payload for instance `id` under `seed`: 16–135 bytes
/// derived from an FNV-mixed per-id RNG.
pub fn payload_for(seed: u64, id: &str) -> Vec<u8> {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in id.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut rng = StdRng::seed_from_u64(h);
    let len = 16 + rng.gen_range(0..120u64) as usize;
    (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect()
}

/// One logical DAL operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOp {
    /// `put_with_blob`: new instance with payload `payload_for(seed, id)`.
    PutWithBlob { id: String },
    /// Metadata-only insert (no blob), e.g. a registered-but-unmaterialised
    /// instance. Carries `score_for(id)`.
    PutMeta { id: String },
    /// Batched metadata-only insert through the store's group commit —
    /// `put_many`, one WAL batch for all ids. Acknowledged atomically from
    /// the caller's view, but a crash mid-batch may persist a prefix.
    PutMany { ids: Vec<String> },
    /// Monotone flag write: `set_flag(id, "deprecated", true)`.
    Deprecate { id: String },
    /// Point read of the metadata row.
    Get { id: String },
    /// Two-hop read: metadata row, then blob bytes.
    FetchBlob { id: String },
    /// Top-k read off the ordered index: the first `limit` live rows of
    /// `group` by score, from the high end or the low.
    Top {
        group: &'static str,
        descending: bool,
        limit: usize,
    },
    /// Semi-join read off the same index: which of `groups` — one of them
    /// twice, one that no row is in — hold a live row scoring at least the
    /// float with these bits.
    SemiJoin {
        groups: [&'static str; 4],
        min_score_bits: u64,
    },
    /// Orphan GC pass over [`TABLE`].
    RepairOrphans,
}

impl WorkloadOp {
    /// The instance this op targets, if any (batch ops target many; see
    /// [`WorkloadOp::inserted_ids`]).
    pub fn id(&self) -> Option<&str> {
        match self {
            WorkloadOp::PutWithBlob { id }
            | WorkloadOp::PutMeta { id }
            | WorkloadOp::Deprecate { id }
            | WorkloadOp::Get { id }
            | WorkloadOp::FetchBlob { id } => Some(id),
            WorkloadOp::PutMany { .. }
            | WorkloadOp::Top { .. }
            | WorkloadOp::SemiJoin { .. }
            | WorkloadOp::RepairOrphans => None,
        }
    }

    /// Ids this op inserts (empty for reads/flags/repair). The crash
    /// matrix's acked-durability invariant walks these.
    pub fn inserted_ids(&self) -> &[String] {
        match self {
            WorkloadOp::PutWithBlob { id } | WorkloadOp::PutMeta { id } => std::slice::from_ref(id),
            WorkloadOp::PutMany { ids } => ids,
            _ => &[],
        }
    }
}

/// A reproducible op sequence. The seed is carried along because payloads
/// ([`payload_for`]) and hence all content checks depend on it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub seed: u64,
    pub ops: Vec<WorkloadOp>,
}

impl Workload {
    /// Generate `len` operations from `seed`. Ids are unique per workload
    /// (the store's records are immutable; duplicate-key probing belongs to
    /// the differential model, not the crash matrix).
    pub fn generate(seed: u64, len: usize) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<String> = Vec::new();
        let mut next = 0u32;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let roll = rng.gen_range(0..100u64);
            let op = if ids.is_empty() || roll < 40 {
                next += 1;
                let id = format!("inst-{next:04}");
                ids.push(id.clone());
                WorkloadOp::PutWithBlob { id }
            } else if roll < 50 {
                next += 1;
                let id = format!("inst-{next:04}");
                ids.push(id.clone());
                WorkloadOp::PutMeta { id }
            } else if roll < 58 {
                let n = 2 + rng.gen_range(0..4u64) as usize;
                let batch: Vec<String> = (0..n)
                    .map(|_| {
                        next += 1;
                        let id = format!("inst-{next:04}");
                        ids.push(id.clone());
                        id
                    })
                    .collect();
                WorkloadOp::PutMany { ids: batch }
            } else if roll < 70 {
                WorkloadOp::Deprecate {
                    id: pick(&mut rng, &ids),
                }
            } else if roll < 76 {
                WorkloadOp::Get {
                    id: pick(&mut rng, &ids),
                }
            } else if roll < 82 {
                // Half of what used to be point reads, and like them one
                // draw: write ops (and so the crash points) of a seed are
                // what they were before this read existed.
                WorkloadOp::Top {
                    group: group_for(&pick(&mut rng, &ids)),
                    descending: roll % 2 == 0,
                    limit: [1, 3, 100][(roll / 2 % 3) as usize],
                }
            } else if roll < 90 {
                WorkloadOp::FetchBlob {
                    id: pick(&mut rng, &ids),
                }
            } else if roll < 94 {
                // A third of what used to be blob fetches, and like them
                // one draw and no write to any file: the crash points of a
                // seed stay what they were.
                let of_pick = group_for(&pick(&mut rng, &ids));
                WorkloadOp::SemiJoin {
                    groups: [of_pick, NO_GROUP, GROUPS[(roll % 3) as usize], of_pick],
                    min_score_bits: [f64::NEG_INFINITY, 0.5][(roll % 2) as usize].to_bits(),
                }
            } else {
                WorkloadOp::RepairOrphans
            };
            ops.push(op);
        }
        Workload { seed, ops }
    }
}

fn pick(rng: &mut StdRng, ids: &[String]) -> String {
    ids[rng.gen_range(0..ids.len() as u64) as usize].clone()
}

/// The query a [`WorkloadOp::Top`] runs.
pub fn top_query(group: &str, descending: bool, limit: usize) -> Query {
    Query::all()
        .and(Constraint::eq("group", group))
        .order_by("score", descending)
        .limit(limit)
}

/// The residual a [`WorkloadOp::SemiJoin`] runs with: rows scoring
/// `min_score` or more, as `Value` orders floats (`f64::total_cmp`). A row
/// without a score passes none.
pub fn min_score_residual(min_score: f64) -> Query {
    Query::all().and(Constraint::ge("score", min_score))
}

/// Run a [`WorkloadOp::SemiJoin`]: one flag per group.
pub fn semi_join(dal: &Dal, groups: &[&str], min_score: f64) -> crate::error::Result<Vec<bool>> {
    let keys: Vec<Value> = groups.iter().map(|&g| Value::from(g)).collect();
    let keys: Vec<&Value> = keys.iter().collect();
    dal.semi_join(TABLE, "group", &keys, &min_score_residual(min_score))
}

/// Whether an error from [`apply`] means the *storage layer* failed (crash,
/// injected fault, corruption) as opposed to an expected semantic outcome
/// of the op mix (e.g. fetching the blob of a metadata-only instance).
pub fn is_storage_failure(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Io(_)
            | StoreError::InjectedFault(_)
            | StoreError::WalCorrupt(_)
            | StoreError::ChecksumMismatch { .. }
    )
}

/// Apply one op to a DAL. Semantic errors (no such key, no blob on a
/// metadata-only row) are swallowed — they are legitimate outcomes of a
/// random op mix. Storage failures propagate so a crash-matrix run stops at
/// its injected crash.
pub fn apply(dal: &Dal, seed: u64, op: &WorkloadOp) -> crate::error::Result<()> {
    let outcome = match op {
        WorkloadOp::PutWithBlob { id } => dal
            .put_with_blob(TABLE, row_for(id), Bytes::from(payload_for(seed, id)))
            .map(|_| ()),
        WorkloadOp::PutMeta { id } => dal.put(TABLE, row_for(id).set("score", score_for(id))),
        WorkloadOp::PutMany { ids } => dal
            .put_many(TABLE, ids.iter().map(|id| row_for(id)).collect())
            .map(|_| ()),
        WorkloadOp::Deprecate { id } => dal.set_flag(TABLE, id, "deprecated", true),
        WorkloadOp::Get { id } => dal.get(TABLE, id).map(|_| ()),
        WorkloadOp::FetchBlob { id } => dal.fetch_blob_of(TABLE, id).map(|_| ()),
        WorkloadOp::Top {
            group,
            descending,
            limit,
        } => dal
            .query(TABLE, &top_query(group, *descending, *limit))
            .map(|_| ()),
        WorkloadOp::SemiJoin {
            groups,
            min_score_bits,
        } => semi_join(dal, groups, f64::from_bits(*min_score_bits)).map(|_| ()),
        WorkloadOp::RepairOrphans => dal.repair_orphans(&[TABLE]).map(|_| ()),
    };
    match outcome {
        Ok(()) => Ok(()),
        Err(e) if is_storage_failure(&e) => Err(e),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(42, 64);
        let b = Workload::generate(42, 64);
        assert_eq!(a.ops, b.ops);
        let c = Workload::generate(43, 64);
        assert_ne!(a.ops, c.ops, "different seeds should differ");
    }

    #[test]
    fn payloads_are_stable_and_id_sensitive() {
        assert_eq!(payload_for(7, "inst-0001"), payload_for(7, "inst-0001"));
        assert_ne!(payload_for(7, "inst-0001"), payload_for(7, "inst-0002"));
        assert_ne!(payload_for(7, "inst-0001"), payload_for(8, "inst-0001"));
        assert!(payload_for(7, "inst-0001").len() >= 16);
    }

    #[test]
    fn ids_are_unique_within_a_workload() {
        let w = Workload::generate(11, 200);
        let mut seen = std::collections::HashSet::new();
        for op in &w.ops {
            for id in op.inserted_ids() {
                assert!(seen.insert(id.clone()), "duplicate insert id {id}");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn workloads_include_top_reads_of_every_group_from_both_ends() {
        let w = Workload::generate(11, 400);
        let mut seen = std::collections::BTreeSet::new();
        for op in &w.ops {
            if let WorkloadOp::Top {
                group, descending, ..
            } = op
            {
                seen.insert((*group, *descending));
            }
        }
        assert_eq!(seen.len(), 6, "{seen:?}");
    }

    #[test]
    fn workloads_include_semi_joins_with_both_floors() {
        let w = Workload::generate(11, 400);
        let mut floors = std::collections::BTreeSet::new();
        for op in &w.ops {
            if let WorkloadOp::SemiJoin {
                groups,
                min_score_bits,
            } = op
            {
                assert_eq!((groups[0], groups[1]), (groups[3], NO_GROUP));
                floors.insert(*min_score_bits);
            }
        }
        assert_eq!(floors.len(), 2, "{floors:?}");
    }

    #[test]
    fn workloads_include_batch_inserts() {
        let w = Workload::generate(11, 200);
        let batches: Vec<&WorkloadOp> = w
            .ops
            .iter()
            .filter(|op| matches!(op, WorkloadOp::PutMany { .. }))
            .collect();
        assert!(!batches.is_empty(), "op mix must exercise put_many");
        for op in batches {
            let WorkloadOp::PutMany { ids } = op else {
                unreachable!()
            };
            assert!((2..=5).contains(&ids.len()));
        }
    }
}
