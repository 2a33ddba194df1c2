//! Property tests for the store's indexes.
//!
//! Every index is current when an insert returns, so for any history of
//! inserts and flag writes every read must equal a reference computed from
//! a full scan of every row in commit order: filter, then order by
//! `(value, commit order)`, then limit. The suite reads through every plan
//! a query can take: the hash index on `tag` (`IndexEq`), the btree index
//! on `score` (`IndexRange`), the ordered index `group → score` (`IndexEq`,
//! and its top-k as `IndexTop`), and a full scan.
//!
//! The semi-join reads both kinds of index — `group` through the ordered
//! one, `tag` through the hash one — and is held to its definition: the
//! flag of a key is whether `Query { column == key, residual.., limit 1 }`
//! finds a row, and whether a full scan does.
//!
//! Striping is unobservable too: a store of one stripe and one of sixteen
//! (the default) give the same plans and rows, byte for byte, and both
//! give the full-scan reference. `score` is nullable, so a group holds rows
//! without an order value, which sort first.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::meta::StoreConfig;
use gallery_store::{
    ColumnDef, Constraint, MetadataStore, Op, Query, Record, Row, TableSchema, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            // Grouped by the ordered index; `tag` carries the same value
            // under a hash index.
            ColumnDef::new("group", ValueType::Str),
            ColumnDef::new("tag", ValueType::Str).hash_indexed(),
            ColumnDef::new("score", ValueType::Int)
                .nullable()
                .btree_indexed(),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ],
    )
    .and_then(|s| s.ordered_by("group", "score"))
    .unwrap()
}

fn record(n: usize, group: u8, score: Option<i64>) -> Record {
    let record = Record::new()
        .set("id", format!("r{n:04}"))
        .set("group", format!("g{group}"))
        .set("tag", format!("g{group}"));
    match score {
        Some(score) => record.set("score", score),
        None => record,
    }
}

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Step {
    /// Insert row `n` (ids are dense, so `n` = current row count).
    Insert { group: u8, score: Option<i64> },
    /// Batch-insert rows through `insert_many` (lands as one commit).
    InsertMany { rows: Vec<(u8, Option<i64>)> },
    /// Flip `deprecated` on row `pick % count`, if any rows exist.
    Deprecate { pick: usize },
}

/// Scores spread over a range, crowded onto three values so that most of
/// a group ties, or absent.
fn score_strategy() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        (-50i64..50).prop_map(Some),
        (0i64..3).prop_map(Some),
        Just(None)
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..5, score_strategy()).prop_map(|(group, score)| Step::Insert { group, score }),
        (0u8..5, score_strategy()).prop_map(|(group, score)| Step::Insert { group, score }),
        proptest::collection::vec((0u8..5, score_strategy()), 2..6)
            .prop_map(|rows| Step::InsertMany { rows }),
        (0usize..1000).prop_map(|pick| Step::Deprecate { pick }),
    ]
}

fn apply(store: &MetadataStore, steps: &[Step]) {
    let mut count = 0usize;
    for step in steps {
        match step {
            Step::Insert { group, score } => {
                store.insert("t", record(count, *group, *score)).unwrap();
                count += 1;
            }
            Step::InsertMany { rows } => {
                let records: Vec<Record> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, (group, score))| record(count + i, *group, *score))
                    .collect();
                count += records.len();
                store.insert_many("t", records).unwrap();
            }
            Step::Deprecate { pick } => {
                if count > 0 {
                    store
                        .set_flag("t", &format!("r{:04}", pick % count), "deprecated", true)
                        .unwrap();
                }
            }
        }
    }
}

/// `query`, with the rows deprecation hides when `with_deprecated`.
fn hiding(query: Query, with_deprecated: bool) -> Query {
    if with_deprecated {
        query.with_deprecated()
    } else {
        query
    }
}

/// The query suite, each query with the plan shape it must run as: top-k
/// of every group (and `g9`, which has no rows) from both ends, for limits
/// below, at and far above a group's size — deprecated rows sit anywhere,
/// on top included, and have to be walked past; equality on the hash and
/// the ordered index; btree ranges; combinations; and a full scan.
fn queries() -> Vec<(&'static str, Query)> {
    let mut qs = Vec::new();
    for group in [0, 1, 2, 3, 4, 9] {
        for descending in [true, false] {
            for limit in [0, 1, 3, 100] {
                for with_deprecated in [false, true] {
                    let top = Query::all()
                        .and(Constraint::eq("group", format!("g{group}")))
                        .order_by("score", descending)
                        .limit(limit);
                    qs.push(("index_top", hiding(top, with_deprecated)));
                }
            }
        }
    }
    for g in 0..5u8 {
        for column in ["tag", "group"] {
            for with_deprecated in [false, true] {
                let q = Query::all().and(Constraint::eq(column, format!("g{g}")));
                qs.push(("index_eq", hiding(q, with_deprecated)));
            }
        }
    }
    for threshold in [-25i64, 0, 25] {
        let at_least = Query::all().and(Constraint::new("score", Op::Ge, threshold));
        let below = Query::all().and(Constraint::new("score", Op::Lt, threshold));
        qs.push(("index_range", at_least));
        qs.push(("index_range", below.with_deprecated()));
    }
    qs.push((
        "index_eq",
        Query::all()
            .and(Constraint::eq("tag", "g2"))
            .and(Constraint::new("score", Op::Ge, 0i64))
            .with_deprecated(),
    ));
    // Top-k with a residual constraint to evaluate on the way.
    qs.push((
        "index_top",
        Query::all()
            .and(Constraint::eq("group", "g2"))
            .and(Constraint::new("score", Op::Lt, 1i64))
            .order_by("score", true)
            .limit(2),
    ));
    qs.push((
        "full_scan",
        Query::all()
            .with_deprecated()
            .order_by("score", true)
            .limit(7),
    ));
    qs.push((
        "full_scan",
        Query::all().and(Constraint::new("tag", Op::StartsWith, "g1")),
    ));
    qs
}

/// Whether `query`'s constraints and deprecated filter accept `row`,
/// evaluated on the row itself: the full-scan reference.
fn accepts(query: &Query, row: &Row) -> bool {
    let deprecated = row.get("deprecated").and_then(|v| v.as_bool()) == Some(true);
    let field = |name: &str| row.get(name).cloned().unwrap_or(Value::Null);
    (query.include_deprecated || !deprecated)
        && query
            .constraints
            .iter()
            .all(|c| c.op.eval(&field(&c.field), &c.value))
}

/// What `query` must return, from every row in commit order (`all`):
/// filter, then order, then limit. The suite orders by `score` only, an
/// `Int`: a row without one sorts first (`None < Some`), as `Null` does,
/// and equal scores keep commit order.
fn reference(query: &Query, all: &[Arc<Row>]) -> Vec<Arc<Row>> {
    let mut rows: Vec<(usize, &Arc<Row>)> = all
        .iter()
        .enumerate()
        .filter(|(_, r)| accepts(query, r))
        .collect();
    if let Some(order) = &query.order_by {
        rows.sort_by_key(|(seq, r)| (r.get(&order.field).and_then(|v| v.as_int()), *seq));
        if order.descending {
            rows.reverse();
        }
    }
    rows.truncate(query.limit.unwrap_or(usize::MAX));
    rows.into_iter().map(|(_, r)| Arc::clone(r)).collect()
}

/// Key lists for a semi-join: groups with rows, `g9` and `Null` without,
/// a key twice, and no keys at all.
fn key_lists() -> Vec<Vec<Value>> {
    let g = |n: u8| Value::from(format!("g{n}"));
    vec![
        vec![],
        vec![g(0), g(1), g(2), g(3), g(4)],
        vec![g(9), g(3), Value::Null, g(3), g(0), g(9)],
    ]
}

/// Residuals that keep nothing, everything, a band of scores, or exactly
/// the row `r0000` — which a history may have deprecated, so each comes
/// with and without deprecated rows.
fn residuals() -> Vec<Query> {
    let plain = [
        Query::all().and(Constraint::lt("score", -1000i64)),
        Query::all(),
        Query::all()
            .and(Constraint::ge("score", 0i64))
            .and(Constraint::lt("score", 2i64)),
        Query::all().and(Constraint::eq("id", "r0000")),
    ];
    let with_deprecated = plain.clone().map(Query::with_deprecated);
    plain.into_iter().chain(with_deprecated).collect()
}

/// Every query of the suite on `store` against the full-scan reference
/// over `all` (every row, in commit order), planned as the suite says.
fn check_reads(store: &MetadataStore, all: &[Arc<Row>]) -> Result<(), TestCaseError> {
    for (shape, q) in queries() {
        let (rows, explain) = store.query_explain_full("t", &q).unwrap();
        prop_assert_eq!(explain.shape(), shape, "{:?}", q);
        prop_assert_eq!(&rows, &reference(&q, all), "{:?}", q);
        prop_assert_eq!(explain.tail_merge_rows, 0);
        prop_assert!(explain.rows_scanned >= rows.len());
    }
    Ok(())
}

/// Every semi-join of the suite on `store`, through the ordered and the
/// hash index, against one `limit 1` query per key on the same store and
/// against a full scan over `all`.
fn check_joins(store: &MetadataStore, all: &[Arc<Row>]) -> Result<(), TestCaseError> {
    for column in ["group", "tag"] {
        for keys in key_lists() {
            let keys: Vec<&Value> = keys.iter().collect();
            for residual in residuals() {
                let (flags, explain) = store.semi_join("t", column, &keys, &residual).unwrap();
                prop_assert_eq!(explain.shape(), "semi_join");
                prop_assert_eq!(flags.iter().filter(|f| **f).count(), explain.matched_rows);
                prop_assert_eq!(explain.tail_merge_rows, 0);
                let per_key: Vec<bool> = keys
                    .iter()
                    .map(|&key| {
                        let q = residual.clone().and(Constraint::eq(column, key.clone()));
                        !store.query("t", &q.limit(1)).unwrap().is_empty()
                    })
                    .collect();
                prop_assert_eq!(&flags, &per_key, "{} {:?} {:?}", column, keys, residual);
                let scanned: Vec<bool> = keys
                    .iter()
                    .map(|&key| {
                        let on =
                            |r: &&Arc<Row>| Op::Eq.eval(r.get(column).unwrap_or(&Value::Null), key);
                        all.iter().filter(on).any(|r| accepts(&residual, r))
                    })
                    .collect();
                prop_assert_eq!(flags, scanned, "{} {:?} {:?}", column, keys, residual);
            }
        }
    }
    Ok(())
}

/// Every query's plan and rows, serialized, so that two stores compare
/// byte for byte.
fn observe(store: &MetadataStore) -> Vec<String> {
    queries()
        .iter()
        .map(|(_, q)| {
            let (rows, explain) = store.query_explain_full("t", q).unwrap();
            format!(
                "{:?}:{}",
                explain.path,
                serde_json::to_string(&rows).unwrap()
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One stripe or sixteen: the same plans and rows, byte for byte, and
    /// the full-scan reference from each, for every query and semi-join.
    /// With sixteen, a group of the ordered index holds rows of many
    /// stripes, and a hash or btree lookup reads every stripe's shard.
    #[test]
    fn striping_is_unobservable(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let stores = [1, 16].map(|lock_stripes| {
            let store = MetadataStore::in_memory_with_config(StoreConfig {
                lock_stripes,
                ..StoreConfig::default()
            });
            store.create_table(schema()).unwrap();
            apply(&store, &steps);
            store
        });
        let [one, sixteen] = &stores;
        prop_assert_eq!(observe(one), observe(sixteen));
        let all = one.query("t", &Query::all().with_deprecated()).unwrap();
        prop_assert_eq!(&all, &sixteen.query("t", &Query::all().with_deprecated()).unwrap());
        for store in &stores {
            check_reads(store, &all)?;
            check_joins(store, &all)?;
        }
    }
}
