//! Property tests for the metadata store: query planning must never change
//! results (index vs scan equivalence), WAL replay must reproduce state
//! exactly, the DAL's blob-first invariant must hold under arbitrary fault
//! schedules, and degraded reads must never silently serve wrong bytes.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::memory::MemoryBlobStore;
use gallery_store::blob::ObjectStore as _;
use gallery_store::fault::sites;
use gallery_store::{
    ColumnDef, Constraint, Dal, FaultPlan, MetadataStore, Op, Query, Record, SyncPolicy,
    TableSchema, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema(indexed: bool) -> TableSchema {
    let mut a = ColumnDef::new("a", ValueType::Int);
    let mut b = ColumnDef::new("b", ValueType::Str);
    if indexed {
        a = a.btree_indexed();
        b = b.hash_indexed();
    }
    TableSchema::new("t", "id", vec![ColumnDef::new("id", ValueType::Str), a, b]).unwrap()
}

fn load(store: &MetadataStore, rows: &[(i64, u8)]) {
    for (i, (a, b)) in rows.iter().enumerate() {
        store
            .insert(
                "t",
                Record::new()
                    .set("id", format!("r{i}"))
                    .set("a", *a)
                    .set("b", format!("s{b}")),
            )
            .unwrap();
    }
}

proptest! {
    /// Indexed execution returns exactly the same rows as full-scan
    /// execution for every conjunctive query.
    #[test]
    fn index_and_scan_agree(
        rows in proptest::collection::vec((-20i64..20, 0u8..6), 0..60),
        threshold in -20i64..20,
        needle in 0u8..6,
    ) {
        let indexed = MetadataStore::in_memory();
        indexed.create_table(schema(true)).unwrap();
        load(&indexed, &rows);
        let plain = MetadataStore::in_memory();
        plain.create_table(schema(false)).unwrap();
        load(&plain, &rows);

        for q in [
            Query::all().and(Constraint::new("a", Op::Lt, threshold)),
            Query::all().and(Constraint::new("a", Op::Ge, threshold)),
            Query::all().and(Constraint::eq("b", format!("s{needle}"))),
            Query::all()
                .and(Constraint::eq("b", format!("s{needle}")))
                .and(Constraint::new("a", Op::Gt, threshold)),
        ] {
            let mut from_indexed: Vec<String> = indexed
                .query("t", &q)
                .unwrap()
                .iter()
                .map(|r| r.get("id").unwrap().as_str().unwrap().to_owned())
                .collect();
            let mut from_plain: Vec<String> = plain
                .query("t", &q)
                .unwrap()
                .iter()
                .map(|r| r.get("id").unwrap().as_str().unwrap().to_owned())
                .collect();
            from_indexed.sort();
            from_plain.sort();
            prop_assert_eq!(from_indexed, from_plain, "query {:?}", q.constraints);
        }
    }

    /// WAL replay reconstructs exactly the pre-crash state.
    #[test]
    fn wal_replay_reproduces_state(
        rows in proptest::collection::vec((-50i64..50, 0u8..4), 1..40),
        flags in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gallery-prop-wal-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        {
            let store = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
            let mut s = schema(true);
            s.columns.push(ColumnDef::new("deprecated", ValueType::Bool).nullable());
            store.create_table(s).unwrap();
            load(&store, &rows);
            for ix in &flags {
                let pk = format!("r{}", ix.index(rows.len()));
                store.set_flag("t", &pk, "deprecated", true).unwrap();
            }
        }
        let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
        prop_assert_eq!(restored.row_count("t").unwrap(), rows.len());
        for (i, (a, _)) in rows.iter().enumerate() {
            let rec = restored.get("t", &format!("r{i}")).unwrap().unwrap();
            prop_assert_eq!(rec.get("a"), Some(&Value::Int(*a)));
        }
        for ix in &flags {
            let pk = format!("r{}", ix.index(rows.len()));
            let rec = restored.get("t", &pk).unwrap().unwrap();
            prop_assert_eq!(rec.get("deprecated"), Some(&Value::Bool(true)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under any probabilistic fault schedule, blob-first ordering never
    /// produces dangling metadata.
    #[test]
    fn blob_first_invariant_under_faults(
        seed in any::<u64>(),
        blob_p in 0.0f64..0.5,
        meta_p in 0.0f64..0.5,
        writes in 1usize..60,
    ) {
        let plan = FaultPlan::with_seed(seed);
        plan.fail_with_probability(sites::BLOB_PUT, blob_p);
        plan.fail_with_probability(sites::META_INSERT, meta_p);
        let dal = Dal::new(
            Arc::new(MetadataStore::in_memory().with_faults(plan.clone())),
            Arc::new(MemoryBlobStore::new().with_faults(plan)),
        );
        dal.create_table(TableSchema::new(
            "instances",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("blob_location", ValueType::Str).nullable(),
            ],
        ).unwrap()).unwrap();
        let mut ok = 0usize;
        for i in 0..writes {
            if dal
                .put_with_blob(
                    "instances",
                    Record::new().set("id", format!("i{i}")),
                    Bytes::from(format!("blob-{i}")),
                )
                .is_ok()
            {
                ok += 1;
            }
        }
        let report = dal.audit_consistency(&["instances"]).unwrap();
        prop_assert!(report.is_consistent(), "dangling: {:?}", report.dangling_metadata);
        prop_assert_eq!(report.rows_checked, ok);
        // every successful write's blob resolves
        for i in 0..writes {
            let pk = format!("i{i}");
            if dal.get("instances", &pk).unwrap().is_some() {
                prop_assert!(dal.fetch_blob_of("instances", &pk).is_ok());
            }
        }
    }

    /// After the backing object of one instance is corrupted or deleted, a
    /// degraded read of *any* instance either returns exactly the bytes
    /// originally written (a correct cache/backend hit — the `stale` flag
    /// marks backend-unverified data) or a detected error. It never serves
    /// wrong bytes as a success.
    #[test]
    fn degraded_reads_never_silently_wrong(
        n in 1usize..10,
        victim in any::<prop::sample::Index>(),
        delete_instead in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let backend = Arc::new(MemoryBlobStore::new());
        let store: Arc<dyn gallery_store::ObjectStore> = if cached {
            let inner: Arc<dyn gallery_store::ObjectStore> = Arc::clone(&backend) as _;
            Arc::new(CachedBlobStore::new(inner, 1 << 20))
        } else {
            Arc::clone(&backend) as _
        };
        let dal = Dal::new(Arc::new(MetadataStore::in_memory()), store);
        dal.create_table(TableSchema::new(
            "instances",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("blob_location", ValueType::Str).nullable(),
            ],
        ).unwrap()).unwrap();
        let mut payloads = Vec::new();
        for i in 0..n {
            let body = format!("payload-{i}-{}", "x".repeat(i));
            dal.put_with_blob(
                "instances",
                Record::new().set("id", format!("i{i}")),
                Bytes::from(body.clone()),
            ).unwrap();
            payloads.push(body);
        }
        // Damage one instance's backing object behind the DAL's back.
        let victim = victim.index(n);
        let loc = {
            let rec = dal.get("instances", &format!("i{victim}")).unwrap().unwrap();
            gallery_store::BlobLocation::new(rec.get("blob_location").unwrap().as_str().unwrap())
        };
        if delete_instead {
            backend.delete(&loc).unwrap();
        } else {
            backend.corrupt(&loc);
        }
        for (i, payload) in payloads.iter().enumerate() {
            match dal.fetch_blob_of_degraded("instances", &format!("i{i}"), 2) {
                Ok(read) => prop_assert_eq!(
                    &read.data[..],
                    payload.as_bytes(),
                    "instance i{} served wrong bytes (stale={})",
                    i,
                    read.stale
                ),
                Err(e) => prop_assert!(
                    i == victim,
                    "undamaged instance i{} failed: {}",
                    i,
                    e
                ),
            }
        }
    }
}
