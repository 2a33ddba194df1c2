//! Concurrency soak for the sharded-lock write path.
//!
//! N threads hammer one table through the striped locks with a seeded
//! per-thread op mix: mostly inserts into a thread-owned id namespace,
//! plus duplicate-insert probes (must fail with `DuplicateKey`, exactly
//! once succeeding), deprecation flags, batch inserts through group
//! commit, and full queries raced against the writers. Afterwards the
//! store is checked against a deterministic reference state: no lost
//! rows, no duplicate ids, exact query results, and — for the durable
//! arm — identical state after a WAL-replay restart. The ordered index
//! `key → rank` rides along: every insert maintains it under its stripe
//! lock, `verify` reads each owner's latest row through it, and under the
//! schedule shaker a reader watches one key's latest row while a writer
//! moves it, and another semi-joins a set of keys — through the ordered
//! index and through the hash index on `owner` — while a writer appends
//! to them. A third watches
//! one key that two writers on different stripes append to at once: the
//! ordered index is one per table, so their applies reach one group, and
//! in any order.
//!
//! The default tests are CI-sized smoke runs; `soak_full` is the long
//! variant (`cargo test -- --ignored`).

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::error::StoreError;
use gallery_store::table::Table;
use gallery_store::{
    ColumnDef, Constraint, MetadataStore, Query, Record, SyncPolicy, TableSchema, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

const TABLE: &str = "instances";

fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("owner", ValueType::Str).hash_indexed(),
            // The owner again, grouped by the ordered index.
            ColumnDef::new("key", ValueType::Str),
            ColumnDef::new("rank", ValueType::Int).btree_indexed(),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ],
    )
    .and_then(|s| s.ordered_by("key", "rank"))
    .unwrap()
}

/// Rank of the newest row of `owner` read off the ordered index, if the
/// owner has a (live, unless `with_deprecated`) row.
fn latest_rank(store: &MetadataStore, owner: usize, with_deprecated: bool) -> Option<i64> {
    let mut q = Query::all()
        .and(Constraint::eq("key", format!("owner-{owner}")))
        .order_by("rank", true)
        .limit(1);
    if with_deprecated {
        q = q.with_deprecated();
    }
    let (rows, explain) = store.query_explain_full(TABLE, &q).unwrap();
    assert_eq!(explain.shape(), "index_top");
    rows.first()
        .map(|r| r.get("rank").and_then(|v| v.as_int()).unwrap())
}

fn record(owner: usize, n: usize) -> Record {
    Record::new()
        .set("id", format!("t{owner}-{n:05}"))
        .set("owner", format!("owner-{owner}"))
        .set("key", format!("owner-{owner}"))
        .set("rank", n as i64)
        .set("deprecated", false)
}

/// What one thread is expected to have done, reconstructed determinist-
/// ically from its seed after the threads join.
#[derive(Default)]
struct Expected {
    inserted: usize,
    deprecated: HashSet<usize>,
}

/// Drive one thread's op mix. Returns the number of rows it inserted and
/// which of its own rows it deprecated.
fn drive(store: &MetadataStore, owner: usize, ops: usize, seed: u64) -> Expected {
    let mut rng = StdRng::seed_from_u64(seed ^ owner as u64);
    let mut exp = Expected::default();
    let mut next = 0usize;
    for _ in 0..ops {
        let roll = rng.gen_range(0..100u64);
        if next == 0 || roll < 55 {
            store.insert(TABLE, record(owner, next)).unwrap();
            next += 1;
        } else if roll < 65 {
            // Batch insert through group commit.
            let n = 2 + rng.gen_range(0..3u64) as usize;
            let batch: Vec<Record> = (0..n).map(|i| record(owner, next + i)).collect();
            assert_eq!(store.insert_many(TABLE, batch).unwrap(), n);
            next += n;
        } else if roll < 75 {
            // Duplicate-insert probe on a row this thread already owns:
            // must fail, must not corrupt anything.
            let dup = rng.gen_range(0..next as u64) as usize;
            match store.insert(TABLE, record(owner, dup)) {
                Err(StoreError::DuplicateKey(_)) => {}
                other => panic!("duplicate insert must fail with DuplicateKey, got {other:?}"),
            }
        } else if roll < 85 {
            let victim = rng.gen_range(0..next as u64) as usize;
            let id = format!("t{owner}-{victim:05}");
            // A row held across the write is a snapshot: it keeps the
            // flag it was read with, by name and by position, while the
            // stripe copies the row and moves on.
            let held = store.get(TABLE, &id).unwrap().unwrap();
            let at = held.schema().positions(["deprecated"]);
            store.set_flag(TABLE, &id, "deprecated", true).unwrap();
            let was = Value::Bool(exp.deprecated.contains(&victim));
            assert_eq!(
                (held.get("deprecated"), held.values_at(&at)),
                (Some(&was), [&was]),
                "thread {owner}: held row {id} changed under set_flag"
            );
            exp.deprecated.insert(victim);
        } else {
            // Race a query against the other writers. Counts can't be
            // asserted mid-flight; exactness is judged after the join.
            let q = Query::all()
                .and(Constraint::eq("owner", format!("owner-{owner}")))
                .with_deprecated();
            let rows = store.query(TABLE, &q).unwrap();
            assert!(
                rows.len() <= next,
                "thread {owner} saw {} of its rows mid-run but only inserted {next}",
                rows.len()
            );
            // Own-writes visibility: everything this thread inserted
            // before the query must already be visible.
            assert!(
                rows.len() >= next,
                "thread {owner} lost sight of its own writes: {} < {next}",
                rows.len()
            );
        }
    }
    exp.inserted = next;
    exp
}

/// Check the final store state against each thread's expected state.
fn verify(store: &MetadataStore, expected: &[Expected], seed: u64) {
    let total: usize = expected.iter().map(|e| e.inserted).sum();
    assert_eq!(
        store.row_count(TABLE).unwrap(),
        total,
        "seed {seed:#x}: lost or duplicated rows"
    );
    // Global id uniqueness straight from a full scan.
    let all = store.query(TABLE, &Query::all().with_deprecated()).unwrap();
    let mut seen = HashSet::new();
    for row in &all {
        let id = row.get("id").and_then(|v| v.as_str()).unwrap().to_owned();
        assert!(seen.insert(id.clone()), "seed {seed:#x}: duplicate id {id}");
    }
    assert_eq!(seen.len(), total);
    for (owner, exp) in expected.iter().enumerate() {
        // Per-owner query exactness through the hash index.
        let q = Query::all()
            .and(Constraint::eq("owner", format!("owner-{owner}")))
            .with_deprecated();
        let rows = store.query(TABLE, &q).unwrap();
        assert_eq!(rows.len(), exp.inserted, "seed {seed:#x} owner {owner}");
        for row in &rows {
            let n = row.get("rank").and_then(|v| v.as_int()).unwrap() as usize;
            let deprecated = row
                .get("deprecated")
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            assert_eq!(
                deprecated,
                exp.deprecated.contains(&n),
                "seed {seed:#x}: t{owner}-{n:05} flag state wrong"
            );
        }
        // The newest row, off the end of the ordered index.
        assert_eq!(
            latest_rank(store, owner, true),
            exp.inserted.checked_sub(1).map(|n| n as i64),
            "seed {seed:#x} owner {owner} latest"
        );
        // Range query through the btree index agrees with the count.
        let half = (exp.inserted / 2) as i64;
        let ranged = store
            .query(
                TABLE,
                &Query::all()
                    .and(Constraint::eq("owner", format!("owner-{owner}")))
                    .and(Constraint::new("rank", gallery_store::Op::Ge, half))
                    .with_deprecated(),
            )
            .unwrap();
        assert_eq!(
            ranged.len(),
            exp.inserted - half as usize,
            "seed {seed:#x} owner {owner} range"
        );
    }
}

fn soak_in_memory(threads: usize, ops: usize, seed: u64) {
    let store = Arc::new(MetadataStore::in_memory());
    store.create_table(schema()).unwrap();
    let expected: Vec<Expected> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|owner| {
                let store = Arc::clone(&store);
                s.spawn(move || drive(&store, owner, ops, seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    verify(&store, &expected, seed);
}

fn soak_durable(threads: usize, ops: usize, seed: u64) {
    let dir = std::env::temp_dir().join(format!(
        "gallery-soak-{seed:x}-{}-{}",
        std::process::id(),
        threads
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let store = Arc::new(MetadataStore::durable(&path, SyncPolicy::Always).unwrap());
    store.create_table(schema()).unwrap();
    let expected: Vec<Expected> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|owner| {
                let store = Arc::clone(&store);
                s.spawn(move || drive(&store, owner, ops, seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    verify(&store, &expected, seed);
    drop(store);
    // Restart: WAL replay must reproduce the exact same state.
    let restored = MetadataStore::durable(&path, SyncPolicy::Never).unwrap();
    verify(&restored, &expected, seed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One key's latest row, watched by a reader while a writer moves it: the
/// writer appends ranks 0, 1, 2, ... and deprecates each row once two newer
/// ones exist, so both the live latest and the latest counting deprecated
/// rows only ever grow. The rendezvous in the middle makes the overlap
/// certain: the writer does not pass it until the reader has looked.
fn latest_never_moves_backwards(rows: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let store = MetadataStore::in_memory();
    store.create_table(schema()).unwrap();
    let (looked_tx, looked_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let done = AtomicBool::new(false);
    let (store, done) = (&store, &done);
    thread::scope(|s| {
        s.spawn(move || {
            for n in 0..rows {
                store.insert(TABLE, record(0, n)).unwrap();
                if n >= 2 {
                    let old = format!("t0-{:05}", n - 2);
                    store.set_flag(TABLE, &old, "deprecated", true).unwrap();
                }
                if n == rows / 2 {
                    looked_rx.recv().unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        s.spawn(move || {
            let mut looked = Some(looked_tx);
            let mut last = (None, None);
            loop {
                let finished = done.load(Ordering::SeqCst);
                let now = (latest_rank(store, 0, false), latest_rank(store, 0, true));
                assert!(
                    now.0 >= last.0 && now.1 >= last.1,
                    "latest moved backwards: {last:?} then {now:?}"
                );
                // Read second, and never behind the live one.
                assert!(now.1 >= now.0, "{now:?}");
                last = now;
                if now.0.is_some() {
                    if let Some(tx) = looked.take() {
                        tx.send(()).unwrap();
                    }
                }
                if finished {
                    let newest = Some(rows as i64 - 1);
                    assert_eq!(now, (newest, newest));
                    break;
                }
            }
        });
    });
}

/// A semi-join beside a writer that only appends: rows of four owners
/// arrive round-robin with growing ranks, and nothing is deprecated, so a
/// key that once had a row ranked `floor` or higher has one for good. A
/// flag that went from `true` to `false` would be a row its index lost.
/// The rendezvous makes the overlap certain.
fn a_joined_key_stays_joined(rows: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let store = MetadataStore::in_memory();
    store.create_table(schema()).unwrap();
    let (looked_tx, looked_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let done = AtomicBool::new(false);
    let (store, done) = (&store, &done);
    let floor = (rows / 8) as i64;
    thread::scope(|s| {
        s.spawn(move || {
            for n in 0..rows {
                store.insert(TABLE, record(n % 4, n / 4)).unwrap();
                if n == rows / 2 {
                    looked_rx.recv().unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        s.spawn(move || {
            // Owner 9 has no rows; owner 1 is asked about twice.
            let keys = [0, 1, 9, 2, 3, 1].map(|o| Value::from(format!("owner-{o}")));
            let keys: Vec<&Value> = keys.iter().collect();
            let residual = Query::all().and(Constraint::ge("rank", floor));
            let mut looked = Some(looked_tx);
            let mut last = [vec![false; keys.len()], vec![false; keys.len()]];
            loop {
                let finished = done.load(Ordering::SeqCst);
                for (column, last) in ["key", "owner"].into_iter().zip(&mut last) {
                    let (now, explain) = store.semi_join(TABLE, column, &keys, &residual).unwrap();
                    assert_eq!(explain.shape(), "semi_join");
                    let kept = last.iter().zip(&now).all(|(before, now)| *now || !*before);
                    assert!(kept, "{column}: {last:?} then {now:?}");
                    assert_eq!((now[1], now[2]), (now[5], false), "{column}: {now:?}");
                    *last = now;
                }
                if last[0][0] {
                    if let Some(tx) = looked.take() {
                        tx.send(()).unwrap();
                    }
                }
                if finished {
                    let all = vec![true, true, false, true, true, true];
                    assert_eq!(last, [all.clone(), all]);
                    break;
                }
            }
        });
    });
}

/// Two writers append to one key, each from ids that hash to a stripe of
/// its own (of the default sixteen), taking ranks from one counter: a
/// writer may apply its rank after the other applied a higher one, so
/// entries reach the key's group out of sequence order. A reader watches
/// the key's latest rank and semi-joins the key meanwhile: the latest never
/// moves backwards, the key once joined stays joined, and at the end the
/// latest is the highest rank and the whole group, walked from its top,
/// is every rank in order. The rendezvous makes the overlap certain.
fn two_writers_one_group(rows_per_writer: usize) {
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
    let store = MetadataStore::in_memory();
    store.create_table(schema()).unwrap();
    let striping = Table::new(schema());
    let ids: Vec<Vec<String>> = (0..2)
        .map(|w| {
            let candidates = (0..).map(|n| format!("w{w}-{n:06}"));
            let own = candidates.filter(|id| striping.stripe_of(id) == w);
            own.take(rows_per_writer).collect()
        })
        .collect();
    let (looked_tx, looked_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let (next, finished) = (AtomicI64::new(0), AtomicUsize::new(0));
    let start = std::sync::Barrier::new(2);
    let (store, next, finished, start) = (&store, &next, &finished, &start);
    let floor = rows_per_writer as i64 / 2;
    thread::scope(|s| {
        let mut looked_rx = Some(looked_rx);
        for ids in &ids {
            let looked_rx = looked_rx.take();
            s.spawn(move || {
                start.wait();
                for (n, id) in ids.iter().enumerate() {
                    let rank = next.fetch_add(1, Ordering::SeqCst);
                    // Between taking a rank and applying it: the other
                    // writer may take the next and apply it first.
                    thread::yield_now();
                    let record = Record::new()
                        .set("id", id.as_str())
                        .set("owner", "owner-0")
                        .set("key", "owner-0")
                        .set("rank", rank)
                        .set("deprecated", false);
                    store.insert(TABLE, record).unwrap();
                    if n == ids.len() / 2 {
                        if let Some(rx) = &looked_rx {
                            rx.recv().unwrap();
                        }
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        s.spawn(move || {
            let key = Value::from("owner-0");
            let residual = Query::all().and(Constraint::ge("rank", floor));
            let mut looked = Some(looked_tx);
            let (mut last, mut joined) = (None, false);
            loop {
                let done = finished.load(Ordering::SeqCst) == 2;
                let now = latest_rank(store, 0, true);
                assert!(now >= last, "latest moved backwards: {last:?} then {now:?}");
                last = now;
                let (flags, _) = store.semi_join(TABLE, "key", &[&key], &residual).unwrap();
                assert!(flags[0] || !joined, "a joined key left the join");
                joined = flags[0];
                if now.is_some() {
                    if let Some(tx) = looked.take() {
                        tx.send(()).unwrap();
                    }
                }
                if done {
                    assert_eq!(now, Some(2 * rows_per_writer as i64 - 1));
                    assert!(joined);
                    break;
                }
            }
        });
    });
    let every = Query::all()
        .and(Constraint::eq("key", "owner-0"))
        .order_by("rank", true)
        .limit(2 * rows_per_writer);
    let (rows, explain) = store.query_explain_full(TABLE, &every).unwrap();
    assert_eq!(explain.shape(), "index_top");
    let ranks: Vec<i64> = rows
        .iter()
        .map(|r| r.get("rank").and_then(|v| v.as_int()).unwrap())
        .collect();
    let expected: Vec<i64> = (0..2 * rows_per_writer as i64).rev().collect();
    assert_eq!(ranks, expected);
}

#[test]
fn two_writers_append_to_one_group() {
    two_writers_one_group(300);
}

#[test]
fn soak_smoke_in_memory() {
    soak_in_memory(8, 120, 0x50AC);
}

#[test]
fn soak_smoke_durable_group_commit() {
    soak_durable(8, 60, 0xD0C5);
}

/// Clean-tree gate: the full soak under rank checking *and* seeded
/// schedule perturbation must produce zero `GL` diagnostics. The shaker
/// widens race windows at every lock boundary, so an ordering bug that
/// only bites in rare interleavings still has to survive this to land.
#[test]
fn soak_rank_checked_is_diagnostic_free() {
    use gallery_store::testkit::schedule::ScheduleShaker;
    let shaker = ScheduleShaker::install(0x10C4);
    soak_in_memory(4, 80, 0x50AC);
    soak_durable(4, 40, 0xD0C5);
    latest_never_moves_backwards(200);
    a_joined_key_stays_joined(200);
    two_writers_one_group(150);
    let report = gallery_sync::checker::report();
    assert!(
        report.is_clean(),
        "lock-order diagnostics on the clean tree: {:?}",
        report.diagnostics
    );
    assert!(report.acquisitions > 0, "checker was not actually on");
    assert!(shaker.injections() > 0, "shaker never perturbed a schedule");
}

#[test]
#[ignore = "long soak; run with --ignored"]
fn soak_full() {
    for seed in [0x50AC_u64, 0xFEED, 0xBEEF] {
        soak_in_memory(16, 1500, seed);
    }
    soak_durable(16, 500, 0xD0C5);
}
