//! Memory guard for the stored row (DESIGN.md §7, "Row layout").
//!
//! A stored row is its values in schema order behind a handle to its
//! table's schema; no row carries a column name. A counting global
//! allocator (this test is its own binary) tracks live heap bytes while
//! 10,000 rows go into a table shaped like `gallery-core`'s `metrics` —
//! row, primary-key map, ordered index (the table's only index) and oplog
//! entry all counted — and bounds the bytes per row. The store logs to a
//! WAL on the real file system, so the log's bytes are on disk, not in the
//! count: over `MetadataStore::in_memory` the log lives on a `SimFs` in
//! RAM and adds about 190 B per row.
//!
//! Counted as the bytes requested of the allocator, on x86-64 Linux: the
//! same inserts held 1,246 B per row when a row was a vector of
//! `(name, value)` pairs, 944 B per row positionally while `name`,
//! `value`, `scope` and `created` carried hash and btree indexes too, and
//! hold 686 B per row with the ordered index alone. The bound is that
//! measured value, so a row that carried its names again, or an index
//! back on any of those columns, would fail it. The lock-rank checker
//! keeps books in debug builds, so the
//! bound is asserted only in release builds (`cargo test --release`); a
//! debug build merely runs the inserts.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::{ColumnDef, MetadataStore, Record, SyncPolicy, TableSchema, Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Heap bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic add that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TABLE: &str = "metrics";
const ROWS: usize = 10_000;

/// The columns and the index of `gallery-core`'s `metrics` table.
fn schema() -> TableSchema {
    let str_col = |name: &str| ColumnDef::new(name, ValueType::Str);
    TableSchema::new(
        TABLE,
        "id",
        vec![
            str_col("id"),
            str_col("instance_id"),
            str_col("name"),
            ColumnDef::new("value", ValueType::Float),
            str_col("scope"),
            str_col("metadata").nullable(),
            ColumnDef::new("created", ValueType::Timestamp),
        ],
    )
    .and_then(|s| s.ordered_by("instance_id", "created"))
    .unwrap()
}

/// Observation `i`: three metrics per instance, ids shaped like UUIDs.
fn row(i: usize) -> Record {
    let uuid = |n: usize| format!("{n:08x}-0000-4000-8000-{n:012x}");
    Record::new()
        .set("id", uuid(i))
        .set("instance_id", uuid((1 << 20) | (i / 3)))
        .set("name", ["bias", "mape", "rmse"][i % 3])
        .set("value", i as f64 / 1e3)
        .set("scope", "validation")
        .set("metadata", "{}")
        .set("created", Value::Timestamp(1_700_000_000_000 + i as i64))
}

#[test]
fn a_stored_metric_row_costs_what_its_values_do() {
    let dir = std::env::temp_dir().join(format!("gallery-row-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = MetadataStore::durable(dir.join("wal.log"), SyncPolicy::Never).unwrap();
    store.create_table(schema()).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..ROWS {
        store.insert(TABLE, row(i)).unwrap();
    }
    let per_row = (LIVE.load(Ordering::Relaxed) - before) / ROWS as isize;
    println!("live bytes per stored metric row: {per_row}");
    assert_eq!(store.row_count(TABLE).unwrap(), ROWS);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if cfg!(debug_assertions) {
        return;
    }
    assert!(per_row <= 686, "{per_row} B per row");
}
