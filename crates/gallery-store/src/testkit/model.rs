//! In-memory reference model of DAL semantics, plus a differential runner.
//!
//! [`RefModel`] is the *obviously correct* implementation: a map from
//! instance id to `{has_blob, deprecated, score_bits}`. It ignores storage entirely —
//! no WAL, no blob store, no caching — which is exactly what makes it a
//! useful oracle. [`run_differential`] drives a real DAL and the model with
//! the same seeded workload and reports every observable divergence:
//! presence, flag state, blob bytes, and referential integrity.
//!
//! The crash matrix ([`super::crashmatrix`]) reuses the model differently:
//! a recovered store holds a *prefix* of the workload, so it is checked
//! against the model's final state with prefix-tolerant invariants
//! (monotone flags, no phantom rows) rather than strict equality.

use super::workload::{
    self, group_for, instance_schema, payload_for, score_for, top_query, Workload, WorkloadOp,
    GROUPS, NO_GROUP, TABLE,
};
use crate::blob::localfs::LocalFsBlobStore;
use crate::dal::Dal;
use crate::meta::MetadataStore;
use crate::query::Query;
use crate::record::Row;
use crate::value::Value;
use gallery_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Reference state for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefRow {
    pub has_blob: bool,
    pub deprecated: bool,
    /// Bit pattern of the row's `score`, if it was written with one. Bits,
    /// because the scores are mostly non-finite (`score_for`) and must
    /// come back exactly.
    pub score_bits: Option<u64>,
}

impl RefRow {
    /// Whether a stored row carries exactly this row's score.
    pub fn score_matches(&self, row: &Row) -> bool {
        let stored = match row.get("score") {
            Some(Value::Float(x)) => Some(x.to_bits()),
            _ => None,
        };
        stored == self.score_bits
    }
}

/// Reference implementation of the DAL's observable state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefModel {
    pub rows: BTreeMap<String, RefRow>,
}

impl RefModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror one workload op. Reads and repair are state-neutral; inserts
    /// of an existing id are rejected (records are immutable) and so leave
    /// the model unchanged too.
    pub fn apply(&mut self, op: &WorkloadOp) {
        match op {
            WorkloadOp::PutWithBlob { id } => {
                self.rows.entry(id.clone()).or_insert(RefRow {
                    has_blob: true,
                    deprecated: false,
                    score_bits: None,
                });
            }
            WorkloadOp::PutMeta { id } => {
                self.rows.entry(id.clone()).or_insert(RefRow {
                    has_blob: false,
                    deprecated: false,
                    score_bits: Some(score_for(id).to_bits()),
                });
            }
            WorkloadOp::PutMany { ids } => {
                for id in ids {
                    self.rows.entry(id.clone()).or_insert(RefRow {
                        has_blob: false,
                        deprecated: false,
                        score_bits: None,
                    });
                }
            }
            WorkloadOp::Deprecate { id } => {
                if let Some(row) = self.rows.get_mut(id) {
                    row.deprecated = true;
                }
            }
            WorkloadOp::Get { .. }
            | WorkloadOp::FetchBlob { .. }
            | WorkloadOp::Top { .. }
            | WorkloadOp::SemiJoin { .. }
            | WorkloadOp::RepairOrphans => {}
        }
    }

    /// Ids a [`WorkloadOp::Top`] must return. The workload numbers its ids
    /// in commit order, so the map's order is the tie-break.
    pub fn top(&self, group: &str, descending: bool, limit: usize) -> Vec<String> {
        let live = self.rows.iter().filter(|(_, row)| !row.deprecated);
        top_ids(
            live.map(|(id, row)| (id.as_str(), row.score_bits)),
            group,
            descending,
            limit,
        )
    }

    /// Flags a [`WorkloadOp::SemiJoin`] must return: per group, whether a
    /// live row of it has a score of `min_score` or more.
    pub fn semi_join(&self, groups: &[&str], min_score: f64) -> Vec<bool> {
        let live = self.rows.iter().filter(|(_, row)| !row.deprecated);
        any_scoring(
            live.map(|(id, row)| (id.as_str(), row.score_bits)),
            groups,
            min_score,
        )
    }

    /// Replay a whole workload into a fresh model.
    pub fn of_workload(w: &Workload) -> RefModel {
        let mut m = RefModel::new();
        for op in &w.ops {
            m.apply(op);
        }
        m
    }
}

/// The first `limit` ids of `group`, by `(score, commit order)` from the
/// low end or — exactly reversed — the high end. `rows` are `(id, score
/// bits)` in commit order. No score sorts first; scores sort as
/// `f64::total_cmp` has them, which is where the workload's NaNs,
/// infinities and negative zero each get a place.
pub fn top_ids<'a>(
    rows: impl Iterator<Item = (&'a str, Option<u64>)>,
    group: &str,
    descending: bool,
    limit: usize,
) -> Vec<String> {
    let mut of_group: Vec<(usize, &str, Option<f64>)> = rows
        .filter(|(id, _)| group_for(id) == group)
        .enumerate()
        .map(|(seq, (id, bits))| (seq, id, bits.map(f64::from_bits)))
        .collect();
    of_group.sort_by(|a, b| {
        let by_score = match (a.2, b.2) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (x, y) => x.is_some().cmp(&y.is_some()),
        };
        by_score.then(a.0.cmp(&b.0))
    });
    if descending {
        of_group.reverse();
    }
    of_group.truncate(limit);
    of_group
        .into_iter()
        .map(|(_, id, _)| id.to_owned())
        .collect()
}

/// Per group, whether one of `rows` — `(id, score bits)` — is in it with a
/// score that `f64::total_cmp` puts at `min_score` or above. No score is
/// above nothing.
pub fn any_scoring<'a>(
    rows: impl Iterator<Item = (&'a str, Option<u64>)>,
    groups: &[&str],
    min_score: f64,
) -> Vec<bool> {
    let scoring: Vec<&str> = rows
        .filter(|(_, bits)| bits.is_some_and(|b| f64::from_bits(b).total_cmp(&min_score).is_ge()))
        .map(|(id, _)| group_for(id))
        .collect();
    groups.iter().map(|g| scoring.contains(g)).collect()
}

/// Ids of queried rows, in result order.
pub fn ids_of(rows: &[Arc<Row>]) -> Vec<String> {
    rows.iter()
        .filter_map(|r| r.get("id").and_then(|v| v.as_str()).map(str::to_owned))
        .collect()
}

/// Outcome of one differential run.
#[derive(Debug, Default)]
pub struct DiffReport {
    pub seed: u64,
    pub ops_applied: usize,
    /// Human-readable divergence descriptions; empty means the DAL agreed
    /// with the reference model on every check.
    pub divergences: Vec<String>,
}

impl DiffReport {
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Diff a live DAL against a model: same rows, same flags, matching blob
/// bytes, clean referential integrity. Returns divergence descriptions.
pub fn diff_against_model(dal: &Dal, model: &RefModel, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    let rows = match dal.query(TABLE, &Query::all().with_deprecated()) {
        Ok(rows) => rows,
        Err(e) => return vec![format!("query all failed: {e}")],
    };
    if rows.len() != model.rows.len() {
        out.push(format!(
            "row count: dal={} model={}",
            rows.len(),
            model.rows.len()
        ));
    }
    for row in &rows {
        let Some(pk) = row.get("id").and_then(|v| v.as_str()) else {
            out.push("row without id".to_string());
            continue;
        };
        let Some(expected) = model.rows.get(pk) else {
            out.push(format!("{pk}: present in dal, absent in model"));
            continue;
        };
        let deprecated = row
            .get("deprecated")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        if deprecated != expected.deprecated {
            out.push(format!(
                "{pk}: deprecated dal={deprecated} model={}",
                expected.deprecated
            ));
        }
        if !expected.score_matches(row) {
            out.push(format!(
                "{pk}: score dal={:?} model bits={:x?}",
                row.get("score"),
                expected.score_bits
            ));
        }
        let has_blob = row.get("blob_location").and_then(|v| v.as_str()).is_some();
        if has_blob != expected.has_blob {
            out.push(format!(
                "{pk}: has_blob dal={has_blob} model={}",
                expected.has_blob
            ));
        }
        if expected.has_blob {
            match dal.fetch_blob_of(TABLE, pk) {
                Ok(bytes) if bytes[..] == payload_for(seed, pk)[..] => {}
                Ok(_) => out.push(format!("{pk}: blob bytes differ from payload_for")),
                Err(e) => out.push(format!("{pk}: fetch_blob_of failed: {e}")),
            }
        }
    }
    for group in GROUPS {
        for descending in [false, true] {
            let expected = model.top(group, descending, 3);
            match dal.query(TABLE, &top_query(group, descending, 3)) {
                Ok(rows) if ids_of(&rows) == expected => {}
                Ok(rows) => out.push(format!(
                    "top 3 of {group} (descending={descending}): dal={:?} model={expected:?}",
                    ids_of(&rows)
                )),
                Err(e) => out.push(format!("top 3 of {group} failed: {e}")),
            }
        }
    }
    let groups = [GROUPS[0], NO_GROUP, GROUPS[1], GROUPS[2], GROUPS[0]];
    for min_score in [f64::NEG_INFINITY, 0.5] {
        let expected = model.semi_join(&groups, min_score);
        match workload::semi_join(dal, &groups, min_score) {
            Ok(flags) if flags == expected => {}
            got => out.push(format!(
                "semi-join at {min_score}: dal={got:?} model={expected:?}"
            )),
        }
    }
    match dal.audit_consistency(&[TABLE]) {
        Ok(audit) => {
            if !audit.is_consistent() {
                out.push(format!("dangling metadata: {:?}", audit.dangling_metadata));
            }
            // Fault-free run over unique ids: every blob is referenced.
            if !audit.orphan_blobs.is_empty() {
                out.push(format!("unexpected orphans: {:?}", audit.orphan_blobs));
            }
        }
        Err(e) => out.push(format!("audit failed: {e}")),
    }
    out
}

/// Run a seeded workload against a real in-memory DAL and the reference
/// model in lockstep, diffing observable state as it goes and deeply at the
/// end.
pub fn run_differential(seed: u64, len: usize) -> DiffReport {
    let w = Workload::generate(seed, len);
    let telemetry = Telemetry::new();
    let meta = Arc::new(MetadataStore::in_memory().with_telemetry(Arc::clone(&telemetry)));
    let blobs = Arc::new(LocalFsBlobStore::in_memory());
    let dal = Dal::new(meta, blobs).with_telemetry(telemetry);
    let mut report = DiffReport {
        seed,
        ..Default::default()
    };
    if let Err(e) = dal.create_table(instance_schema()) {
        report.divergences.push(format!("create_table failed: {e}"));
        return report;
    }
    let mut model = RefModel::new();
    for (i, op) in w.ops.iter().enumerate() {
        // Observable comparison on reads, before state changes below.
        if let WorkloadOp::Get { id } = op {
            // Point lookups see deprecated rows (only queries filter them),
            // so visibility is plain existence.
            let dal_has = matches!(dal.get(TABLE, id), Ok(Some(_)));
            let model_has = model.rows.contains_key(id);
            if dal_has != model_has {
                report
                    .divergences
                    .push(format!("op {i}: get({id}) dal={dal_has} model={model_has}"));
            }
        }
        if let WorkloadOp::Top {
            group,
            descending,
            limit,
        } = op
        {
            let expected = model.top(group, *descending, *limit);
            match dal.query(TABLE, &top_query(group, *descending, *limit)) {
                Ok(rows) if ids_of(&rows) == expected => {}
                Ok(rows) => report.divergences.push(format!(
                    "op {i}: {op:?} dal={:?} model={expected:?}",
                    ids_of(&rows)
                )),
                Err(e) => report
                    .divergences
                    .push(format!("op {i}: {op:?} failed: {e}")),
            }
        }
        if let WorkloadOp::SemiJoin {
            groups,
            min_score_bits,
        } = op
        {
            let min_score = f64::from_bits(*min_score_bits);
            let expected = model.semi_join(groups, min_score);
            match workload::semi_join(&dal, groups, min_score) {
                Ok(flags) if flags == expected => {}
                got => report
                    .divergences
                    .push(format!("op {i}: {op:?} dal={got:?} model={expected:?}")),
            }
        }
        if let Err(e) = workload::apply(&dal, seed, op) {
            report
                .divergences
                .push(format!("op {i}: {op:?} storage failure: {e}"));
            return report;
        }
        model.apply(op);
        report.ops_applied += 1;
    }
    report
        .divergences
        .extend(diff_against_model(&dal, &model, seed));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_runs_clean_on_many_seeds() {
        for seed in [1u64, 7, 42, 1234, 99999] {
            let report = run_differential(seed, 120);
            assert!(
                report.is_clean(),
                "seed {seed} diverged: {:?}",
                report.divergences
            );
            assert_eq!(report.ops_applied, 120);
            // Each run carried rows whose score no text encoding keeps,
            // and read a group's top through the ordered index.
            let w = Workload::generate(seed, 120);
            assert!(w.ops.iter().any(|op| matches!(op, WorkloadOp::Top { .. })));
            assert!(w
                .ops
                .iter()
                .any(|op| matches!(op, WorkloadOp::SemiJoin { .. })));
            assert!(w
                .ops
                .iter()
                .any(|op| matches!(op, WorkloadOp::PutMeta { id } if !score_for(id).is_finite())));
        }
    }

    #[test]
    fn model_tracks_monotone_deprecation() {
        let mut m = RefModel::new();
        m.apply(&WorkloadOp::PutWithBlob { id: "a".into() });
        m.apply(&WorkloadOp::Deprecate { id: "a".into() });
        m.apply(&WorkloadOp::Deprecate {
            id: "missing".into(),
        });
        assert!(m.rows["a"].deprecated);
        assert_eq!(m.rows.len(), 1);
    }

    #[test]
    fn diff_catches_a_seeded_divergence() {
        // A model that disagrees with what the workload actually did must
        // produce divergences — the oracle itself is being tested here.
        let w = Workload::generate(5, 40);
        let telemetry = Telemetry::new();
        let meta = Arc::new(MetadataStore::in_memory().with_telemetry(Arc::clone(&telemetry)));
        let blobs = Arc::new(LocalFsBlobStore::in_memory());
        let dal = Dal::new(meta, blobs).with_telemetry(telemetry);
        dal.create_table(instance_schema()).unwrap();
        for op in &w.ops {
            workload::apply(&dal, w.seed, op).unwrap();
        }
        let mut model = RefModel::of_workload(&w);
        let first = model.rows.keys().next().unwrap().clone();
        model.rows.remove(&first);
        let divergences = diff_against_model(&dal, &model, w.seed);
        assert!(!divergences.is_empty());
    }
}
