//! Allocation guard for the read path (ROADMAP item 2: "allocations per
//! PK read = 0 beyond the result").
//!
//! Readers are handed the `Arc<Row>` a stripe already holds, so what a
//! read allocates must not grow with rows × columns. A counting global
//! allocator (this test is its own binary) counts the calling thread's
//! allocations around a point read, two index queries, a "latest of this
//! model" lookup and two semi-joins on an instances-shaped table of 1,600
//! rows.
//!
//! The lock-rank checker keeps books in debug builds, so the counts are
//! asserted only in release builds (`cargo test --release`); a debug build
//! merely runs the reads.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::{
    AccessPath, ColumnDef, Constraint, MetadataStore, Query, Record, TableSchema, Value, ValueType,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so the allocator can touch it at any point of a
    /// thread's life without allocating or re-entering itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds (`try_with` turns access during
// thread teardown into a no-op).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const TABLE: &str = "instances";

/// The 14 columns of `gallery-core`'s `instances` table, and its ordered
/// index.
fn schema() -> TableSchema {
    let str_col = |name: &str| ColumnDef::new(name, ValueType::Str);
    TableSchema::new(
        TABLE,
        "id",
        vec![
            str_col("id"),
            str_col("model_id"),
            str_col("base_version_id").hash_indexed(),
            str_col("display_version"),
            str_col("blob_location").nullable(),
            str_col("metadata").nullable(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
            str_col("trigger"),
            str_col("parent").nullable(),
            str_col("city").nullable().hash_indexed(),
            str_col("model_name").nullable().hash_indexed(),
            str_col("model_type").nullable().hash_indexed(),
            str_col("project").nullable().hash_indexed(),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ],
    )
    .and_then(|s| s.ordered_by("model_id", "created"))
    .unwrap()
}

/// Row `i` of 1,600: 40 models of 40 instances, 4 projects of 400.
fn row(i: usize) -> Record {
    Record::new()
        .set("id", format!("inst-{i:05}"))
        .set("model_id", format!("model-{:02}", i % 40))
        .set("base_version_id", format!("base-{:02}", i % 40))
        .set("display_version", format!("1.{}", i / 40))
        .set("blob_location", format!("mem://blob/{i:05}"))
        .set(
            "metadata",
            r#"{"city":"san_francisco","model_name":"rf","model_type":"sparkml"}"#,
        )
        .set("created", Value::Timestamp(1_000 + i as i64))
        .set("trigger", "trained")
        .set("city", "san_francisco")
        .set("model_name", "rf")
        .set("model_type", "sparkml")
        .set("project", format!("project-{}", i % 4))
}

#[test]
fn reads_do_not_allocate_per_row_and_column() {
    let store = MetadataStore::in_memory();
    store.create_table(schema()).unwrap();
    store
        .insert_many(TABLE, (0..1_600).map(row).collect())
        .unwrap();

    let measured = |q: &Query, path: AccessPath| {
        // Once unmeasured: the slow-query ring grows to its working size.
        store.query_explain_full(TABLE, q).unwrap();
        let ((rows, explain), allocations) =
            allocations_in(|| store.query_explain_full(TABLE, q).unwrap());
        assert_eq!(explain.path, path);
        assert_eq!(explain.rows_scanned, rows.len());
        (rows.len(), allocations)
    };
    let query = |column: &str, value: &str| {
        let by_index = AccessPath::IndexEq {
            column: column.into(),
        };
        measured(&Query::all().and(Constraint::eq(column, value)), by_index)
    };

    let (got, get_allocations) = allocations_in(|| store.get(TABLE, "inst-00777").unwrap());
    assert_eq!(got.unwrap().get("model_id"), Some(&Value::from("model-17")));
    let (rows_40, allocations_40) = query("model_id", "model-17");
    let (rows_400, allocations_400) = query("project", "project-1");
    assert_eq!((rows_40, rows_400), (40, 400));
    let latest = Query::all()
        .and(Constraint::eq("model_id", "model-17"))
        .order_by("created", true)
        .limit(1);
    let top = AccessPath::IndexTop {
        column: "model_id".into(),
        order: "created".into(),
    };
    let (rows_latest, allocations_latest) = measured(&latest, top);
    assert_eq!(rows_latest, 1);

    // Which of these models have an instance in project 1: a quarter do.
    let in_project = Query::all().and(Constraint::eq("project", "project-1"));
    let joined = |models: usize| {
        let keys: Vec<Value> = (0..models)
            .map(|m| Value::from(format!("model-{m:02}")))
            .collect();
        let keys: Vec<&Value> = keys.iter().collect();
        let join = || {
            store
                .semi_join(TABLE, "model_id", &keys, &in_project)
                .unwrap()
        };
        join();
        let ((flags, explain), allocations) = allocations_in(join);
        assert_eq!(explain.shape(), "semi_join");
        assert_eq!(flags.len(), models);
        assert_eq!(explain.matched_rows, models / 4);
        allocations
    };
    let (join_allocations_4, join_allocations_40) = (joined(4), joined(40));

    println!(
        "allocations: get {get_allocations}, latest {allocations_latest}, \
         40-row query {allocations_40}, 400-row query {allocations_400}, \
         40-key semi-join {join_allocations_40}"
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert_eq!(get_allocations, 0, "a point read shares the stored row");
    // A deep copy of 40 rows × 14 columns makes over 1,000, and a copy
    // of each stripe's index bucket 16 more: what is left is the guards,
    // the candidates, the matches, the result and the `Explain` (here and
    // in the slow-query ring), whatever the row count.
    assert!(
        allocations_40 <= 8,
        "40-row query: {allocations_40} allocations"
    );
    assert!(
        allocations_400 <= allocations_40,
        "400 rows: {allocations_400} allocations against {allocations_40} for 40"
    );
    // The same, with one walk down one group in place of the candidates:
    // 8, where a cursor per stripe (the commit before the ordered index
    // was one per table) made 9.
    assert!(
        allocations_latest <= 8,
        "latest: {allocations_latest} allocations"
    );
    // The typed keys, the guards, the flags and the `Explain`: per call,
    // not per key.
    assert!(
        join_allocations_40 <= 8,
        "40-key semi-join: {join_allocations_40} allocations"
    );
    assert_eq!(join_allocations_40, join_allocations_4, "40 keys against 4");
}
