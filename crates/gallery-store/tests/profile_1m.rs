//! Manual profiling harness for the 1M-row write path (not a test of
//! behaviour): `cargo test --release -p gallery-store --test profile_1m
//! -- --ignored --nocapture` prints per-decade rates for each layer so a
//! throughput collapse can be attributed.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::meta::StoreConfig;
use gallery_store::table::Table;
use gallery_store::{ColumnDef, MetadataStore, Record, TableSchema, Value, ValueType};
use std::time::Instant;

fn schema() -> TableSchema {
    TableSchema::new(
        "instances",
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("model_name", ValueType::Str).hash_indexed(),
            ColumnDef::new("city", ValueType::Str).hash_indexed(),
            ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
            ColumnDef::new("mape", ValueType::Float).btree_indexed(),
            ColumnDef::new("notes", ValueType::Str).nullable(),
        ],
    )
    .unwrap()
}

fn record_for(i: usize) -> Record {
    Record::new()
        .set("id", format!("inst-{i:08}"))
        .set("model_name", "seasonal")
        .set("city", format!("city_{:03}", i % 400))
        .set("created", Value::Timestamp(1_700_000_000_000 + i as i64))
        .set("mape", (i % 1000) as f64 / 1000.0)
        .set("notes", format!("retrain #{i}"))
}

fn decades(label: &str, mut f: impl FnMut(usize)) {
    let mut from = 0usize;
    for to in [10_000usize, 100_000, 1_000_000] {
        let started = Instant::now();
        for i in from..to {
            f(i);
        }
        let rate = (to - from) as f64 / started.elapsed().as_secs_f64();
        println!("{label}: decade {to}: {rate:.0} rows/s");
        from = to;
    }
}

#[test]
#[ignore = "profiling harness, run manually with --nocapture"]
fn profile_layers() {
    println!("-- layer 1: record construction only --");
    let mut sink = 0usize;
    decades("construct", |i| {
        sink += record_for(i).len();
    });
    println!("sink {sink}");

    println!("-- layer 2: construct + keep (Vec) --");
    let mut kept = Vec::new();
    decades("vec-keep", |i| kept.push(record_for(i)));
    drop(kept);

    println!("-- layer 3: table only (striped, indexes current at insert) --");
    let table = Table::with_config(schema(), 16);
    decades("table", |i| {
        table.insert(record_for(i)).unwrap();
    });
    drop(table);

    println!("-- layer 4: full store (oplog + commit path) --");
    let store = MetadataStore::in_memory_with_config(StoreConfig::default());
    store.create_table(schema()).unwrap();
    decades("store", |i| {
        store.insert("instances", record_for(i)).unwrap();
    });
}
