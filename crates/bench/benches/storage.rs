//! Storage benches (ablation arms for DESIGN.md §6.3/§6.5): index vs
//! full-scan search, blob cache hit vs backend miss, and WAL fsync policy.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::{
    ColumnDef, Constraint, MetadataStore, ObjectStore, Op, Query, Record, SyncPolicy, TableSchema,
    ValueType,
};
use std::hint::black_box;
use std::sync::Arc;

fn schema() -> TableSchema {
    TableSchema::new(
        "instances",
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("city", ValueType::Str).hash_indexed(),
            ColumnDef::new("mape", ValueType::Float).btree_indexed(),
            ColumnDef::new("notes", ValueType::Str),
        ],
    )
    .unwrap()
}

fn populated(n: usize) -> MetadataStore {
    let store = MetadataStore::in_memory();
    store.create_table(schema()).unwrap();
    for i in 0..n {
        store
            .insert(
                "instances",
                Record::new()
                    .set("id", format!("i{i:07}"))
                    .set("city", format!("city_{:03}", i % 200))
                    .set("mape", (i % 1000) as f64 / 1000.0)
                    .set("notes", format!("note {i}")),
            )
            .unwrap();
    }
    store
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    for n in [1_000usize, 10_000, 100_000] {
        let store = populated(n);
        group.bench_with_input(BenchmarkId::new("indexed_eq", n), &n, |b, _| {
            let q = Query::all().and(Constraint::eq("city", "city_042"));
            b.iter(|| black_box(store.query("instances", &q).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("indexed_range", n), &n, |b, _| {
            let q = Query::all().and(Constraint::lt("mape", 0.01));
            b.iter(|| black_box(store.query("instances", &q).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            let q = Query::all().and(Constraint::new("notes", Op::Contains, "note 999999"));
            b.iter(|| black_box(store.query("instances", &q).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("pk_lookup", n), &n, |b, _| {
            b.iter(|| black_box(store.get("instances", "i0000042").unwrap()))
        });
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert");
    group.bench_function("in_memory_100rows", |b| {
        b.iter_batched(
            || {
                let store = MetadataStore::in_memory();
                store.create_table(schema()).unwrap();
                store
            },
            |store| {
                for i in 0..100 {
                    store
                        .insert(
                            "instances",
                            Record::new()
                                .set("id", format!("i{i}"))
                                .set("city", "sf")
                                .set("mape", 0.1)
                                .set("notes", "n"),
                        )
                        .unwrap();
                }
                store
            },
            criterion::BatchSize::SmallInput,
        )
    });
    for (name, sync) in [
        ("wal_nosync_10rows", SyncPolicy::Never),
        ("wal_fsync_10rows", SyncPolicy::Always),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let dir = std::env::temp_dir().join(format!(
                        "gallery-bench-wal-{name}-{}",
                        rand::random::<u64>()
                    ));
                    std::fs::create_dir_all(&dir).unwrap();
                    let store = MetadataStore::durable(dir.join("wal.log"), sync).unwrap();
                    store.create_table(schema()).unwrap();
                    (store, dir)
                },
                |(store, dir)| {
                    for i in 0..10 {
                        store
                            .insert(
                                "instances",
                                Record::new()
                                    .set("id", format!("i{i}"))
                                    .set("city", "sf")
                                    .set("mape", 0.1)
                                    .set("notes", "n"),
                            )
                            .unwrap();
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                    store
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_blob_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("blob_cache");
    let backend = Arc::new(LocalFsBlobStore::in_memory());
    let cache = CachedBlobStore::new(backend.clone() as Arc<dyn ObjectStore>, 64 * 1024 * 1024);
    let blob = Bytes::from(vec![7u8; 256 * 1024]);
    let hot = cache.put(blob.clone()).unwrap().location;
    let cold: Vec<_> = (0..64)
        .map(|_| backend.put(blob.clone()).unwrap().location)
        .collect();

    group.bench_function("hit", |b| b.iter(|| black_box(cache.get(&hot).unwrap())));
    let mut i = 0usize;
    group.bench_function("backend_direct", |b| {
        b.iter(|| {
            i = (i + 1) % cold.len();
            black_box(backend.get(&cold[i]).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search, bench_insert, bench_blob_cache);
criterion_main!(benches);
