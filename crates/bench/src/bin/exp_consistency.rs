//! E10 — §3.5 blob-first write ordering under failure injection.
//!
//! "To handle cases of inconsistent data due to system failures ... we
//! always write model blobs first and only write the model metadata after
//! the model blobs are successfully stored." 10k combined writes run with
//! injected faults at both the blob-put and metadata-insert sites, under
//! both orderings; the consistency audit counts dangling metadata (fatal)
//! and orphan blobs (harmless).

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::fault::sites;
use gallery_store::{
    ColumnDef, Dal, FaultPlan, MetadataStore, Record, TableSchema, ValueType, WriteOrdering,
};
use std::sync::Arc;

fn schema() -> TableSchema {
    TableSchema::new(
        "instances",
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("blob_location", ValueType::Str).nullable(),
        ],
    )
    .expect("static schema")
}

struct Outcome {
    attempted: usize,
    succeeded: usize,
    failed: usize,
    dangling: usize,
    orphans: usize,
}

fn run(ordering: WriteOrdering, writes: usize, fault_p: f64, seed: u64) -> Outcome {
    let plan = FaultPlan::with_seed(seed);
    plan.fail_with_probability(sites::BLOB_PUT, fault_p);
    plan.fail_with_probability(sites::META_INSERT, fault_p);
    let meta = MetadataStore::in_memory().with_faults(plan.clone());
    let blobs = LocalFsBlobStore::in_memory().with_faults(plan);
    let dal = Dal::new(Arc::new(meta), Arc::new(blobs)).with_ordering(ordering);
    dal.create_table(schema()).unwrap();

    let mut succeeded = 0usize;
    let mut failed = 0usize;
    for i in 0..writes {
        let record = Record::new().set("id", format!("inst-{i:06}"));
        match dal.put_with_blob("instances", record, Bytes::from(format!("weights-{i}"))) {
            Ok(_) => succeeded += 1,
            Err(_) => failed += 1,
        }
    }
    let report = dal.audit_consistency(&["instances"]).unwrap();
    Outcome {
        attempted: writes,
        succeeded,
        failed,
        dangling: report.dangling_metadata.len(),
        orphans: report.orphan_blobs.len(),
    }
}

fn main() {
    banner(
        "E10: crash consistency of blob+metadata writes",
        "§3.5 blob-first write ordering",
    );
    let writes = 10_000;
    let fault_p = 0.10;

    let blob_first = run(WriteOrdering::BlobFirst, writes, fault_p, 11);
    let meta_first = run(WriteOrdering::MetadataFirst, writes, fault_p, 11);

    let mut table = TextTable::new(&[
        "ordering",
        "writes",
        "ok",
        "failed",
        "dangling metadata",
        "orphan blobs",
        "invariant",
    ]);
    for (name, o) in [
        ("blob-first (paper)", &blob_first),
        ("metadata-first (ablation)", &meta_first),
    ] {
        table.add_row(vec![
            name.into(),
            o.attempted.to_string(),
            o.succeeded.to_string(),
            o.failed.to_string(),
            o.dangling.to_string(),
            o.orphans.to_string(),
            if o.dangling == 0 {
                "HOLDS".into()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper shape: with ~{:.0}% faults at each write site, blob-first never leaves a\n\
         metadata row pointing at a missing blob ('the model instance will not be\n\
         available in the system'); orphan blobs are the harmless crash artifact.\n\
         The metadata-first ablation violates the invariant {} times ✓",
        fault_p * 100.0,
        meta_first.dangling
    );
    assert_eq!(blob_first.dangling, 0, "blob-first must keep the invariant");
    assert!(
        meta_first.dangling > 0,
        "the ablation must demonstrate the hazard"
    );
    assert!(blob_first.failed > 0, "faults must actually fire");
}
