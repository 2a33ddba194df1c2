//! The crash-point matrix checker.
//!
//! Strategy: run a seeded workload once over a clean [`SimFs`] to record
//! the full IO-operation trace, then re-run it once *per crash point* —
//! every mutating IO op the trace recorded — with a [`SimFaultPlan`] that
//! crashes there. Each crashed disk is recovered the way a restarted
//! process would recover it (WAL heal + replay, stale-tmp sweep) and the
//! survivor is checked against the paper's §3.5 invariants:
//!
//! - **No dangling metadata** — every recovered row's `blob_location`
//!   resolves (blob-first ordering's whole point). The deliberately unsafe
//!   `MetadataFirst` ablation *must* trip this check, which is how the
//!   harness proves it can catch the bug it exists to catch.
//! - **No silent corruption** — a recovered blob read either returns
//!   exactly `payload_for(seed, id)` or a detected error
//!   (checksum/missing); wrong bytes are never served quietly.
//! - **WAL replay is idempotent** — replaying the healed log twice yields
//!   identical operation sequences, and a second recovery pass finds
//!   nothing left to heal.
//! - **Flags are prefix-consistent** — `deprecated = true` on a survivor
//!   implies the full workload deprecated that instance (flags are
//!   monotone, so any durable prefix agrees).
//! - **Orphans are repairable** — `repair_orphans` deletes every orphan
//!   blob and a re-audit comes back clean.
//! - **Acked ops are durable** — every op the DAL acknowledged before the
//!   crash survives recovery (rows present, acked deprecations set). With
//!   group commit in the write path this is the load-bearing check: a
//!   crash *inside* a batched WAL write may lose or tear the in-flight
//!   batch (none of it acked yet), but must never lose an acknowledged
//!   row. Applies to clean-crash and torn-write scenarios; lossy
//!   scenarios (lying fsync, bit rot) legitimately lose acked data.
//!
//! Beyond clean crashes the matrix optionally tears the final write
//! (prefix-persisted), drops fsyncs on a matching path (lying disk), and
//! flips bits in the durable image. Lossy scenarios get weaker-but-still-
//! strong invariants: data may be *lost*, corruption must be *detected*,
//! silent wrong answers are violations everywhere.

use super::model::{any_scoring, ids_of, top_ids, RefModel};
use super::workload::{self, instance_schema, payload_for, top_query, Workload, TABLE};
use crate::blob::localfs::LocalFsBlobStore;
use crate::blob::BlobLocation;
use crate::dal::{Dal, WriteOrdering};
use crate::error::StoreError;
use crate::meta::MetadataStore;
use crate::query::Query;
use crate::simfs::{FileSystem, IoOp, IoOpRecord, SimFaultPlan, SimFs};
use crate::wal::{encode_op, frame_len, SyncPolicy, Wal, WalOp, FRAME_HEADER};
use gallery_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// WAL path used by matrix runs (inside the simulated fs).
pub const WAL_PATH: &str = "/db/wal.log";
/// Blob root used by matrix runs (inside the simulated fs).
pub const BLOB_ROOT: &str = "/db/blobs";

/// Configuration of one matrix run. Everything is derived from `seed`;
/// repeating a config reproduces the identical matrix.
#[derive(Debug, Clone)]
pub struct CrashMatrixConfig {
    pub seed: u64,
    /// Logical DAL ops in the generated workload.
    pub workload_len: usize,
    /// Write ordering under test. `BlobFirst` must produce zero violations;
    /// `MetadataFirst` must not.
    pub ordering: WriteOrdering,
    /// Also run a torn-write variant of every multi-byte write crash point.
    pub torn_writes: bool,
    /// Also run lying-fsync scenarios (drop syncs on the WAL / on blobs).
    pub drop_sync: bool,
    /// Number of bit-flip-at-recovery scenarios (alternating WAL/blobs:
    /// WAL length field, blob payload, WAL payload, blob header, ...).
    pub bit_flips: usize,
    /// Test every `stride`-th crash point (1 = exhaustive; smoke uses more).
    pub stride: usize,
}

impl CrashMatrixConfig {
    /// Exhaustive configuration: every IO op is a crash point.
    pub fn new(seed: u64) -> Self {
        CrashMatrixConfig {
            seed,
            workload_len: 64,
            ordering: WriteOrdering::BlobFirst,
            torn_writes: true,
            drop_sync: true,
            bit_flips: 4,
            stride: 1,
        }
    }

    /// Bounded configuration for CI smoke runs: shorter workload, sampled
    /// crash points. Still covers all scenario kinds.
    pub fn smoke(seed: u64) -> Self {
        CrashMatrixConfig {
            workload_len: 28,
            bit_flips: 3,
            stride: 3,
            ..Self::new(seed)
        }
    }

    pub fn with_ordering(mut self, ordering: WriteOrdering) -> Self {
        self.ordering = ordering;
        self
    }
}

/// One invariant breach, tagged with the scenario that produced it. The
/// scenario string plus the config seed fully reproduce the failure.
#[derive(Debug, Clone)]
pub struct Violation {
    pub scenario: String,
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.scenario, self.invariant, self.detail)
    }
}

/// Invariant names used in [`Violation::invariant`].
pub mod invariants {
    pub const FAULT_FREE_RUN: &str = "fault-free-run";
    pub const RECOVERY_SUCCEEDS: &str = "recovery-succeeds";
    pub const ACKED_DURABLE: &str = "acked-ops-durable";
    pub const NO_DANGLING_METADATA: &str = "no-dangling-metadata";
    pub const NO_SILENT_CORRUPTION: &str = "no-silent-corruption";
    pub const BLOB_READABLE: &str = "blob-readable-after-clean-crash";
    pub const REPLAY_IDEMPOTENT: &str = "wal-replay-idempotent";
    pub const FLAG_MONOTONE: &str = "deprecated-flag-monotone";
    pub const NO_PHANTOM_ROWS: &str = "no-phantom-rows";
    pub const ORPHANS_REPAIRABLE: &str = "orphans-repairable";
    pub const TOP_MATCHES_ROWS: &str = "ordered-index-matches-rows";
}

/// Aggregate outcome of a matrix run.
#[derive(Debug, Default)]
pub struct CrashMatrixReport {
    pub seed: u64,
    /// Mutating IO ops in the fault-free trace.
    pub io_ops_traced: usize,
    /// Scenarios executed (crash points plus bit-flip runs).
    pub scenarios_run: usize,
    /// Distinct crash-point scenarios (clean + torn + lying-fsync).
    pub crash_points: usize,
    /// Crash points per IO site classification (`wal.append`,
    /// `blob.publish`, ...).
    pub sites: BTreeMap<String, usize>,
    pub violations: Vec<Violation>,
    /// Orphan blobs garbage-collected across all recoveries.
    pub orphans_repaired: u64,
    /// Torn WAL tails healed across all recoveries.
    pub torn_tails_truncated: u64,
    /// Stale `.tmp` blobs swept across all recoveries.
    pub tmp_files_swept: u64,
    /// Lossy-scenario corruptions that were *detected* (the required
    /// outcome; silent wrong bytes would be violations instead).
    pub corruption_detected: u64,
    pub recovered_rows_total: u64,
    pub recovered_blobs_total: u64,
}

impl CrashMatrixReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any violation breaches the §3.5 referential-integrity
    /// invariant (what the MetadataFirst ablation must trip).
    pub fn caught_dangling_metadata(&self) -> bool {
        self.violations
            .iter()
            .any(|v| v.invariant == invariants::NO_DANGLING_METADATA)
    }
}

/// Classify an IO-trace record into the site it belongs to. `wal.commit`
/// (the fsync making a metadata record durable) and `blob.publish` (the
/// rename exposing a blob under its final key) are the two commit points
/// §3.5's ordering argument is about. A WAL write carrying more than one
/// frame is a group-commit batch (`wal.append.batch`) — crashing there is
/// the mid-batch crash the acked-durability invariant targets.
pub fn classify(rec: &IoOpRecord) -> &'static str {
    let wal = rec.path.to_string_lossy().contains("wal");
    match (wal, rec.op) {
        (true, IoOp::Write) if rec.frames > 1 => "wal.append.batch",
        (true, IoOp::Write) => "wal.append",
        (true, IoOp::Sync) => "wal.commit",
        (true, _) => "wal.other",
        (false, IoOp::Create) => "blob.create",
        (false, IoOp::Write) => "blob.write",
        (false, IoOp::Sync) => "blob.sync",
        (false, IoOp::Rename) => "blob.publish",
        (false, IoOp::Remove) => "blob.delete",
        (false, IoOp::Truncate) => "blob.other",
    }
}

/// How strictly a scenario's survivor is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rigor {
    /// Clean crash / torn final write: full invariants — durable rows must
    /// have intact, readable blobs.
    Strict,
    /// Lying fsync: content may be lost, but loss must surface as a
    /// detected error, never as wrong bytes.
    LossySync,
    /// Bit rot at recovery: corruption must be detected (checksum / WAL
    /// CRC), never served.
    BitFlip,
}

/// Run the full matrix for `cfg`.
pub fn run_crash_matrix(cfg: &CrashMatrixConfig) -> CrashMatrixReport {
    let w = Workload::generate(cfg.seed, cfg.workload_len);
    let model = RefModel::of_workload(&w);
    let mut report = CrashMatrixReport {
        seed: cfg.seed,
        ..Default::default()
    };

    // Pass 1: fault-free trace enumerating every mutating IO op.
    let trace_fs = SimFs::recording();
    if let (_, Err(e)) = run_workload(&trace_fs, &w, cfg.ordering) {
        report.violations.push(Violation {
            scenario: "trace".to_string(),
            invariant: invariants::FAULT_FREE_RUN,
            detail: e.to_string(),
        });
        return report;
    }
    let trace = trace_fs.op_log();
    report.io_ops_traced = trace.len();
    // Where each WAL write starts in the fault-free log: the workload only
    // ever appends to it, so write k begins where the earlier ones end.
    let wal_image = trace_fs.read(Path::new(WAL_PATH)).unwrap_or_default();
    let mut wal_end = 0;
    let wal_starts: Vec<usize> = trace
        .iter()
        .map(|rec| {
            let start = wal_end;
            if classify(rec).starts_with("wal.append") {
                wal_end += rec.bytes;
            }
            start
        })
        .collect();

    // Pass 2: crash at every (stride-sampled) IO op, plus a torn variant
    // for multi-byte writes. Group-commit batch writes are always crash
    // points, even when the stride would skip them — mid-batch crashes are
    // what the acked-durability invariant exists to judge.
    let stride = cfg.stride.max(1);
    for (k, rec) in trace
        .iter()
        .enumerate()
        .filter(|(k, rec)| k % stride == 0 || classify(rec) == "wal.append.batch")
    {
        *report.sites.entry(classify(rec).to_string()).or_insert(0) += 1;
        let name = format!("crash@{k}/{}:{}", rec.op.name(), rec.path.display());
        let plan = SimFaultPlan {
            crash_at_op: Some(k as u64),
            ..Default::default()
        };
        run_scenario(cfg, &w, &model, &mut report, name, plan, Rigor::Strict);
        report.crash_points += 1;
        if cfg.torn_writes && rec.op == IoOp::Write && rec.bytes > 1 {
            let mut tears = vec![("torn", rec.bytes / 2)];
            // Torn *batch*: a multi-frame group-commit write torn inside
            // its second frame's header, inside that frame's payload, and
            // one byte short of whole. The frames before the tear persist
            // whole, the torn one heals away as a torn tail. None of the
            // batch was acked, so losing its suffix must be invisible to
            // the acked-durability check.
            if rec.frames > 1 {
                let batch = &wal_image[wal_starts[k]..wal_starts[k] + rec.bytes];
                let second = frame_len(batch).expect("a batch starts with a whole frame");
                let second_len = frame_len(&batch[second..]).expect("and holds a second one");
                tears.extend([
                    ("torn-batch-header", second + FRAME_HEADER / 2),
                    (
                        "torn-batch-payload",
                        second + (FRAME_HEADER + second_len) / 2,
                    ),
                    ("torn-batch", rec.bytes - 1),
                ]);
            }
            for (what, keep) in tears {
                let name = format!("{what}@{k}(keep={keep}):{}", rec.path.display());
                let plan = SimFaultPlan {
                    crash_at_op: Some(k as u64),
                    torn_write_keep: Some(keep),
                    ..Default::default()
                };
                run_scenario(cfg, &w, &model, &mut report, name, plan, Rigor::Strict);
                report.crash_points += 1;
            }
        }
    }

    // Pass 3: lying-fsync crash points, sampled across the trace, once per
    // target (the WAL, then the blob tree).
    if cfg.drop_sync {
        let step = (trace.len() / 6).max(1);
        for needle in ["wal.log", "blobs"] {
            for k in (0..trace.len()).step_by(step) {
                let name = format!("drop-sync({needle})+crash@{k}");
                let plan = SimFaultPlan {
                    crash_at_op: Some(k as u64),
                    drop_sync_on: Some(needle.to_string()),
                    ..Default::default()
                };
                run_scenario(cfg, &w, &model, &mut report, name, plan, Rigor::LossySync);
                report.crash_points += 1;
            }
        }
    }

    // Pass 4: bit rot — run to completion, flip a durable byte at
    // recovery. The targets take turns: the first WAL frame's length field
    // (caught by its complement — alone it would read as a torn tail and
    // drop the whole log), a blob's payload, the first WAL frame's payload
    // (caught by its CRC, with frames after it), a blob's header.
    let targets = [
        ("wal.log", 1),
        ("blobs", 16 + 3),
        ("wal.log", FRAME_HEADER + 9),
        ("blobs", 5),
    ];
    for (needle, offset) in targets.into_iter().cycle().take(cfg.bit_flips) {
        let name = format!("bit-flip({needle}@{offset})");
        let plan = SimFaultPlan {
            bit_flip: Some((needle.to_string(), offset)),
            ..Default::default()
        };
        run_scenario(cfg, &w, &model, &mut report, name, plan, Rigor::BitFlip);
    }

    report
}

/// Build the store stack over `fs` and run the workload, stopping at the
/// first storage failure (the injected crash). Returns how many ops were
/// *acknowledged* (applied successfully, all durability syncs included)
/// before the failure, plus the failure itself if any — the acked prefix
/// feeds the acked-durability invariant.
fn run_workload(
    fs: &SimFs,
    w: &Workload,
    ordering: WriteOrdering,
) -> (usize, crate::error::Result<()>) {
    let fs_arc: Arc<dyn FileSystem> = Arc::new(fs.clone());
    let telemetry = Telemetry::new();
    let setup = || -> crate::error::Result<Dal> {
        let meta = Arc::new(MetadataStore::durable_with(
            Arc::clone(&fs_arc),
            WAL_PATH,
            SyncPolicy::Always,
            Arc::clone(&telemetry),
        )?);
        let blobs = Arc::new(LocalFsBlobStore::open_with_fs(
            Arc::clone(&fs_arc),
            BLOB_ROOT,
        )?);
        let dal = Dal::new(meta, blobs)
            .with_ordering(ordering)
            .with_telemetry(Arc::clone(&telemetry));
        dal.create_table(instance_schema())?;
        Ok(dal)
    };
    let dal = match setup() {
        Ok(d) => d,
        Err(e) => return (0, Err(e)),
    };
    for (i, op) in w.ops.iter().enumerate() {
        if let Err(e) = workload::apply(&dal, w.seed, op) {
            return (i, Err(e));
        }
    }
    (w.ops.len(), Ok(()))
}

fn run_scenario(
    cfg: &CrashMatrixConfig,
    w: &Workload,
    model: &RefModel,
    report: &mut CrashMatrixReport,
    name: String,
    plan: SimFaultPlan,
    rigor: Rigor,
) {
    report.scenarios_run += 1;
    let fs = SimFs::with_plan(plan);
    // The run is expected to die at the crash point (bit-flip scenarios
    // run to completion); either way the recovered image is what matters.
    let (acked, _) = run_workload(&fs, w, cfg.ordering);
    let recovered = fs.recover();
    check_recovery(cfg, w, acked, model, report, &name, rigor, &recovered);
}

/// Recover stores from a post-crash disk image and check every invariant.
/// `acked` is the count of workload ops the crashed run acknowledged.
#[allow(clippy::too_many_arguments)]
fn check_recovery(
    cfg: &CrashMatrixConfig,
    w: &Workload,
    acked: usize,
    model: &RefModel,
    report: &mut CrashMatrixReport,
    scenario: &str,
    rigor: Rigor,
    fs: &SimFs,
) {
    let fail = |invariant: &'static str, detail: String| Violation {
        scenario: scenario.to_string(),
        invariant,
        detail,
    };
    let fs_arc: Arc<dyn FileSystem> = Arc::new(fs.clone());
    let telemetry = Telemetry::new();

    // Recovery must succeed: torn tails heal, crashes never brick the
    // store. The one sanctioned exception is bit rot *inside* the log,
    // which must surface as detected corruption.
    let meta = match MetadataStore::durable_with(
        Arc::clone(&fs_arc),
        WAL_PATH,
        SyncPolicy::Always,
        Arc::clone(&telemetry),
    ) {
        Ok(m) => Arc::new(m),
        Err(StoreError::WalCorrupt(_)) if rigor == Rigor::BitFlip => {
            report.corruption_detected += 1;
            return;
        }
        Err(e) => {
            report
                .violations
                .push(fail(invariants::RECOVERY_SUCCEEDS, e.to_string()));
            return;
        }
    };
    report.torn_tails_truncated += telemetry
        .registry()
        .counter("gallery_wal_torn_tail_truncated_total", &[])
        .get();

    // WAL replay idempotence: the healed log replays to the same op
    // sequence every time, and a second recovery finds nothing to heal.
    match (
        Wal::replay_with_fs(&*fs_arc, WAL_PATH),
        Wal::replay_with_fs(&*fs_arc, WAL_PATH),
    ) {
        (Ok(a), Ok(b)) => {
            // Compared in the log's own encoding: it is total (JSON has no
            // NaN, and the workload's scores are mostly that) and exact.
            let encoded = |ops: &[WalOp]| {
                let mut out = Vec::new();
                ops.iter().for_each(|op| encode_op(op, &mut out));
                out
            };
            if encoded(&a) != encoded(&b) {
                report.violations.push(fail(
                    invariants::REPLAY_IDEMPOTENT,
                    "two replays of the healed log disagree".to_string(),
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            report.violations.push(fail(
                invariants::REPLAY_IDEMPOTENT,
                format!("replay of healed log failed: {e}"),
            ));
        }
    }

    let blobs = match LocalFsBlobStore::open_with_fs(Arc::clone(&fs_arc), BLOB_ROOT) {
        Ok(b) => Arc::new(b),
        Err(e) => {
            report
                .violations
                .push(fail(invariants::RECOVERY_SUCCEEDS, e.to_string()));
            return;
        }
    };
    report.tmp_files_swept += blobs.swept_tmp_files();
    let dal = Dal::new(Arc::clone(&meta), blobs).with_telemetry(telemetry);

    if !meta.has_table(TABLE) {
        // Crashed before CreateTable became durable: the store is empty and
        // any blobs on disk are unreferenced artifacts. Nothing to check.
        return;
    }

    // §3.5: no recovered row may point at a missing blob.
    let audit = match dal.audit_consistency(&[TABLE]) {
        Ok(a) => a,
        Err(e) => {
            report
                .violations
                .push(fail(invariants::RECOVERY_SUCCEEDS, e.to_string()));
            return;
        }
    };
    report.recovered_rows_total += audit.rows_checked as u64;
    report.recovered_blobs_total += audit.blobs_checked as u64;
    if !audit.is_consistent() {
        report.violations.push(fail(
            invariants::NO_DANGLING_METADATA,
            format!("{:?}", audit.dangling_metadata),
        ));
    }

    // Per-row content and flag checks against the reference model.
    let rows = match meta.query(TABLE, &Query::all().with_deprecated()) {
        Ok(r) => r,
        Err(e) => {
            report
                .violations
                .push(fail(invariants::RECOVERY_SUCCEEDS, e.to_string()));
            return;
        }
    };
    for row in &rows {
        let pk = row
            .get("id")
            .and_then(|v| v.as_str())
            .unwrap_or("<no-id>")
            .to_owned();
        let expected = model.rows.get(&pk);
        if expected.is_none() {
            report.violations.push(fail(
                invariants::NO_PHANTOM_ROWS,
                format!("{pk} recovered but never written by the workload"),
            ));
            continue;
        }
        // Scores are mostly non-finite floats; the log has to hand back the
        // bits it was given.
        if expected.is_some_and(|r| !r.score_matches(row)) {
            report.violations.push(fail(
                invariants::NO_SILENT_CORRUPTION,
                format!("{pk}: score recovered as {:?}", row.get("score")),
            ));
        }
        if let Some(loc) = row.get("blob_location").and_then(|v| v.as_str()) {
            match dal.fetch_blob(&BlobLocation::new(loc)) {
                Ok(bytes) => {
                    if bytes[..] != payload_for(cfg.seed, &pk)[..] {
                        report.violations.push(fail(
                            invariants::NO_SILENT_CORRUPTION,
                            format!("{pk}: blob bytes differ from the written payload"),
                        ));
                    }
                }
                Err(
                    StoreError::ChecksumMismatch { .. }
                    | StoreError::NoSuchBlob(_)
                    | StoreError::Io(_),
                ) if rigor != Rigor::Strict || cfg.ordering == WriteOrdering::MetadataFirst => {
                    // Lossy scenarios (and the unsafe ordering, whose
                    // dangling rows were already flagged above): loss is
                    // permitted as long as it is *detected*.
                    report.corruption_detected += 1;
                }
                Err(e) => {
                    report
                        .violations
                        .push(fail(invariants::BLOB_READABLE, format!("{pk}: {e}")));
                }
            }
        }
        // Monotone flag: a recovered prefix can only under-report
        // deprecation, never invent it.
        let deprecated = row
            .get("deprecated")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        if deprecated && !expected.is_some_and(|r| r.deprecated) {
            report.violations.push(fail(
                invariants::FLAG_MONOTONE,
                format!("{pk}: deprecated after recovery but not in the full workload"),
            ));
        }
    }

    // The ordered index is rebuilt by replay, insert by insert: what it
    // answers must be what the recovered rows themselves say.
    let live = || {
        rows.iter().filter_map(|row| {
            let deprecated = row.get("deprecated").and_then(|v| v.as_bool()) == Some(true);
            let bits = row
                .get("score")
                .and_then(|v| v.as_float())
                .map(f64::to_bits);
            let id = row.get("id").and_then(|v| v.as_str())?;
            (!deprecated).then_some((id, bits))
        })
    };
    for group in workload::GROUPS {
        for descending in [false, true] {
            let expected = top_ids(live(), group, descending, 3);
            let got = meta
                .query_explain_full(TABLE, &top_query(group, descending, 3))
                .map(|(top, explain)| (ids_of(&top), explain.shape()));
            if !matches!(&got, Ok((ids, "index_top")) if *ids == expected) {
                report.violations.push(fail(
                    invariants::TOP_MATCHES_ROWS,
                    format!("{group} descending={descending}: {got:?}, rows say {expected:?}"),
                ));
            }
        }
    }
    let groups = [workload::GROUPS, [workload::NO_GROUP; 3]].concat();
    for min_score in [f64::NEG_INFINITY, 0.5] {
        let expected = any_scoring(live(), &groups, min_score);
        let got = workload::semi_join(&dal, &groups, min_score);
        if !matches!(&got, Ok(flags) if *flags == expected) {
            report.violations.push(fail(
                invariants::TOP_MATCHES_ROWS,
                format!("semi-join at {min_score}: {got:?}, rows say {expected:?}"),
            ));
        }
    }

    // Acked durability: everything the DAL acknowledged before the crash
    // must have survived. Only sound under Strict rigor — lying fsyncs and
    // bit rot lose acked data by design (detected, not denied).
    if rigor == Rigor::Strict {
        let recovered: BTreeMap<&str, bool> = rows
            .iter()
            .filter_map(|row| {
                row.get("id").and_then(|v| v.as_str()).map(|pk| {
                    (
                        pk,
                        row.get("deprecated")
                            .and_then(|v| v.as_bool())
                            .unwrap_or(false),
                    )
                })
            })
            .collect();
        for op in &w.ops[..acked] {
            for id in op.inserted_ids() {
                if !recovered.contains_key(id.as_str()) {
                    report.violations.push(fail(
                        invariants::ACKED_DURABLE,
                        format!("{id}: insert was acknowledged but lost by recovery"),
                    ));
                }
            }
            if let workload::WorkloadOp::Deprecate { id } = op {
                // Deprecate on a not-yet-inserted id is a swallowed
                // semantic no-op; only check ids the acked prefix created.
                let inserted = w.ops[..acked]
                    .iter()
                    .any(|o| o.inserted_ids().iter().any(|i| i == id));
                if inserted && recovered.get(id.as_str()) != Some(&true) {
                    report.violations.push(fail(
                        invariants::ACKED_DURABLE,
                        format!("{id}: acknowledged deprecation lost by recovery"),
                    ));
                }
            }
        }
    }

    // Orphans (interrupted blob-first writes) must be fully repairable.
    match dal.repair_orphans(&[TABLE]) {
        Ok(rep) => {
            report.orphans_repaired += rep.deleted.len() as u64;
            if !rep.failed.is_empty() {
                report.violations.push(fail(
                    invariants::ORPHANS_REPAIRABLE,
                    format!("{} deletions failed", rep.failed.len()),
                ));
            }
            match dal.audit_consistency(&[TABLE]) {
                Ok(after) if after.orphan_blobs.is_empty() => {}
                Ok(after) => {
                    report.violations.push(fail(
                        invariants::ORPHANS_REPAIRABLE,
                        format!("{} orphans survived repair", after.orphan_blobs.len()),
                    ));
                }
                Err(e) => {
                    report
                        .violations
                        .push(fail(invariants::ORPHANS_REPAIRABLE, e.to_string()));
                }
            }
        }
        Err(e) => {
            report
                .violations
                .push(fail(invariants::ORPHANS_REPAIRABLE, e.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_clean_under_blob_first() {
        let report = run_crash_matrix(&CrashMatrixConfig::smoke(0xC0FFEE));
        assert!(
            report.is_clean(),
            "seed {:#x} violations: {:#?}",
            report.seed,
            report.violations
        );
        assert!(report.crash_points > 0);
        assert!(report.io_ops_traced > 0);
    }

    #[test]
    fn matrix_catches_metadata_first_ordering() {
        let cfg = CrashMatrixConfig {
            torn_writes: false,
            drop_sync: false,
            bit_flips: 0,
            ..CrashMatrixConfig::smoke(7)
        }
        .with_ordering(WriteOrdering::MetadataFirst);
        let report = run_crash_matrix(&cfg);
        assert!(
            report.caught_dangling_metadata(),
            "the harness must catch the deliberately unsafe ordering"
        );
    }

    #[test]
    fn every_bit_flip_target_is_detected() {
        // Bit flips alone (plus the handful of crash points no stride
        // skips). A flipped WAL length field and a flipped WAL payload byte
        // each stop recovery with `WalCorrupt`; a flipped blob payload byte
        // and a flipped blob header byte each fail the read of the one row
        // that points there. Four flips, four detections, nothing served.
        let cfg = CrashMatrixConfig {
            torn_writes: false,
            drop_sync: false,
            bit_flips: 4,
            stride: usize::MAX,
            ..CrashMatrixConfig::smoke(0xB17)
        };
        let report = run_crash_matrix(&cfg);
        assert!(report.is_clean(), "violations: {:#?}", report.violations);
        assert_eq!(report.corruption_detected, 4);
    }

    #[test]
    fn classify_covers_both_trees() {
        use std::path::PathBuf;
        let wal = IoOpRecord {
            op: IoOp::Sync,
            path: PathBuf::from(WAL_PATH),
            bytes: 0,
            frames: 0,
        };
        assert_eq!(classify(&wal), "wal.commit");
        let blob = IoOpRecord {
            op: IoOp::Rename,
            path: PathBuf::from("/db/blobs/00/x.blob"),
            bytes: 0,
            frames: 0,
        };
        assert_eq!(classify(&blob), "blob.publish");
        // One frame per op: multi-frame writes are group-commit batches.
        let single = IoOpRecord {
            op: IoOp::Write,
            path: PathBuf::from(WAL_PATH),
            bytes: 64,
            frames: 1,
        };
        assert_eq!(classify(&single), "wal.append");
        let batch = IoOpRecord {
            op: IoOp::Write,
            path: PathBuf::from(WAL_PATH),
            bytes: 256,
            frames: 4,
        };
        assert_eq!(classify(&batch), "wal.append.batch");
    }

    #[test]
    fn matrix_exercises_mid_batch_crash_points() {
        // The workload mix includes put_many, so the fault-free trace must
        // contain multi-record WAL batch writes, and the matrix must have
        // crashed inside them (clean + torn-batch) without violations.
        let report = run_crash_matrix(&CrashMatrixConfig::smoke(0xBA7C4));
        assert!(
            report.sites.contains_key("wal.append.batch"),
            "trace sites: {:?}",
            report.sites
        );
        assert!(report.is_clean(), "violations: {:#?}", report.violations);
    }
}
