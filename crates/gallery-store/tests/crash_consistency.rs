//! End-to-end crash-consistency checks: the crash-point matrix over the
//! simulated file system, the model-based differential tester, and the
//! orphan-repair path under injected delete faults. Everything is seeded —
//! a failure message carries the seed needed to reproduce it exactly.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::fault::{sites, FaultPlan};
use gallery_store::telemetry::{kinds, Telemetry};
use gallery_store::testkit::{
    instance_schema, run_crash_matrix, run_differential, CrashMatrixConfig, TABLE,
};
use gallery_store::{Dal, MetadataStore, Record, WriteOrdering};
use std::sync::Arc;

#[test]
fn crash_matrix_blob_first_has_zero_violations() {
    let report = run_crash_matrix(&CrashMatrixConfig::smoke(0xDEAD_BEEF));
    assert!(
        report.is_clean(),
        "seed {:#x}: {:#?}",
        report.seed,
        report.violations
    );
    // The matrix must actually have explored crash points at both commit
    // sites (WAL append/commit and blob write/publish).
    assert!(report.crash_points >= 50, "only {}", report.crash_points);
    assert!(report.sites.keys().any(|s| s.starts_with("wal.")));
    assert!(report.sites.keys().any(|s| s.starts_with("blob.")));
    // Crash artifacts were produced and healed along the way: torn WAL
    // tails truncated, orphan blobs garbage-collected, stale tmp files
    // swept.
    assert!(report.torn_tails_truncated > 0);
    assert!(report.orphans_repaired > 0);
    assert!(report.tmp_files_swept > 0);
}

#[test]
fn crash_matrix_catches_metadata_first_ordering() {
    // Regression arm: with the deliberately unsafe write ordering the same
    // harness must report dangling metadata — proof it can catch the bug
    // class it exists for.
    let cfg = CrashMatrixConfig {
        torn_writes: false,
        drop_sync: false,
        bit_flips: 0,
        ..CrashMatrixConfig::smoke(0xBAD_0BDE)
    }
    .with_ordering(WriteOrdering::MetadataFirst);
    let report = run_crash_matrix(&cfg);
    assert!(
        report.caught_dangling_metadata(),
        "metadata-first ordering went undetected (seed {:#x})",
        report.seed
    );
}

#[test]
fn differential_model_agrees_across_seeds() {
    for seed in 200..208u64 {
        let report = run_differential(seed, 150);
        assert!(
            report.is_clean(),
            "seed {seed} diverged: {:#?}",
            report.divergences
        );
        assert_eq!(report.ops_applied, 150);
    }
}

#[test]
fn orphan_repair_under_delete_fault_is_observable() {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::none();
    plan.fail_first_n(sites::BLOB_DELETE, 1);
    let blobs = Arc::new(LocalFsBlobStore::in_memory().with_faults(plan));
    let meta = Arc::new(MetadataStore::in_memory());
    let dal = Dal::new(meta, blobs).with_telemetry(Arc::clone(&telemetry));
    dal.create_table(instance_schema()).unwrap();

    // Two orphans (blobs no metadata references — interrupted blob-first
    // writes) plus one live instance.
    dal.blobs().put(Bytes::from_static(b"orphan-1")).unwrap();
    dal.blobs().put(Bytes::from_static(b"orphan-2")).unwrap();
    dal.put_with_blob(
        TABLE,
        Record::new().set("id", "live"),
        Bytes::from_static(b"live"),
    )
    .unwrap();

    // First pass: one delete hits the injected fault and is reported (not
    // fatal), the other orphan is repaired and counted.
    let rep = dal.repair_orphans(&[TABLE]).unwrap();
    assert_eq!(rep.audit.orphan_blobs.len(), 2);
    assert_eq!(rep.deleted.len(), 1);
    assert_eq!(rep.failed.len(), 1);
    let reg = telemetry.registry();
    assert_eq!(
        reg.counter("gallery_dal_orphans_repaired_total", &[]).get(),
        1
    );
    let events = telemetry.events().of_kind(kinds::ORPHAN_REPAIRED);
    assert_eq!(events.len(), 1);
    assert!(events[0].field("location").is_some());

    // Second pass finishes the job; the live instance is untouched.
    let rep2 = dal.repair_orphans(&[TABLE]).unwrap();
    assert_eq!(rep2.deleted.len(), 1);
    assert!(rep2.failed.is_empty());
    assert_eq!(
        reg.counter("gallery_dal_orphans_repaired_total", &[]).get(),
        2
    );
    let after = dal.audit_consistency(&[TABLE]).unwrap();
    assert!(after.is_consistent());
    assert!(after.orphan_blobs.is_empty());
    assert!(dal.fetch_blob_of(TABLE, "live").is_ok());
}
