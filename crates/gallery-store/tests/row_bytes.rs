//! Memory guard for the stored row (DESIGN.md §7, "Row layout").
//!
//! A stored row is its values in schema order behind a handle to its
//! table's schema; no row carries a column name. A counting global
//! allocator (this test is its own binary) tracks live heap bytes while
//! 10,000 rows go into an in-memory table shaped like `gallery-core`'s
//! `metrics` — row, primary-key map, deferred indexes flushed, ordered
//! index and oplog entry all counted — and bounds the bytes per row.
//!
//! Counted as the bytes requested of the allocator, on x86-64 Linux: the
//! same inserts held 1,246 B per row when a row was a vector of
//! `(name, value)` pairs, and hold 964 B per row positionally. The bound
//! sits between the two, so a row that carried its names again would
//! fail it. The lock-rank checker keeps books in debug builds, so the
//! bound is asserted only in release builds (`cargo test --release`); a
//! debug build merely runs the inserts.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::{ColumnDef, MetadataStore, Record, TableSchema, Value, ValueType};
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

/// The columns and indexes of `gallery-core`'s `metrics` table.
fn schema() -> TableSchema {
    let str_col = |name: &str| ColumnDef::new(name, ValueType::Str);
    TableSchema::new(
        TABLE,
        "id",
        vec![
            str_col("id"),
            str_col("instance_id"),
            str_col("name").hash_indexed(),
            ColumnDef::new("value", ValueType::Float).btree_indexed(),
            str_col("scope").hash_indexed(),
            str_col("metadata").nullable(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
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
    let store = MetadataStore::in_memory();
    store.create_table(schema()).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..ROWS {
        store.insert(TABLE, row(i)).unwrap();
    }
    store.flush_index_deltas();
    let per_row = (LIVE.load(Ordering::Relaxed) - before) / ROWS as isize;
    println!("live bytes per stored metric row: {per_row}");
    assert_eq!(store.row_count(TABLE).unwrap(), ROWS);
    if cfg!(debug_assertions) {
        return;
    }
    assert!(per_row <= 1_100, "{per_row} B per row");
}
