//! Property tests for deferred secondary-index maintenance.
//!
//! The store batches index updates per stripe and merges the un-indexed
//! tail back into reads, so deferral must be *observationally invisible*:
//! for any sequence of inserts and flag writes, every query's results with
//! a pending index delta are byte-identical (JSON-serialized) to the same
//! query's results after a forced flush — and to an eager store
//! (`index_batch = 1`) that indexed every row at insert time.
//!
//! The ordered index `group → score` is never deferred, but it answers
//! through a plan of its own (`IndexTop`), so its top-k reads go through
//! the same three stores and, besides, against a reference computed from a
//! full scan: filter, sort by `(score, commit order)`, cut.
//!
//! The semi-join reads both kinds of index — `group` through the ordered
//! one, `tag` through the deferred one, whose tail it has to walk — and is
//! held to the same three stores and to its definition: the flag of a key
//! is whether `Query { column == key, residual.., limit 1 }` finds a row.
//!
//! Striping is unobservable too: a store of one stripe and one of sixteen
//! (the default) give the same reads, and both give the full-scan
//! reference for the ordered index's top-k, equality and semi-join reads.
//! `score` is nullable, so a group holds rows without an order value,
//! which sort first.

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
            // under a (deferred) hash index.
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

/// One "top k of a group" read.
#[derive(Debug, Clone, Copy)]
struct Top {
    group: u8,
    descending: bool,
    limit: usize,
    with_deprecated: bool,
}

impl Top {
    fn query(self) -> Query {
        let q = Query::all()
            .and(Constraint::eq("group", format!("g{}", self.group)))
            .order_by("score", self.descending)
            .limit(self.limit);
        if self.with_deprecated {
            q.with_deprecated()
        } else {
            q
        }
    }

    /// What the read must return, from every row in commit order. A row
    /// without a score sorts first (`None < Some`), as `Null` does.
    fn reference(self, all: &[Arc<Row>]) -> Vec<Arc<Row>> {
        let in_group = Query::all().and(Constraint::eq("group", format!("g{}", self.group)));
        let in_group = if self.with_deprecated {
            in_group.with_deprecated()
        } else {
            in_group
        };
        let mut rows: Vec<(Option<i64>, usize, &Arc<Row>)> = all
            .iter()
            .enumerate()
            .filter(|(_, r)| accepts(&in_group, r))
            .map(|(seq, r)| (r.get("score").and_then(|v| v.as_int()), seq, r))
            .collect();
        rows.sort_by_key(|(score, seq, _)| (*score, *seq));
        if self.descending {
            rows.reverse();
        }
        rows.truncate(self.limit);
        rows.into_iter().map(|(_, _, r)| Arc::clone(r)).collect()
    }
}

/// Every group (and `g9`, which has no rows) from both ends, for limits
/// below, at and far above a group's size, with and without the rows that
/// deprecation hides — those sit anywhere, on top included, and have to be
/// walked past.
fn tops() -> Vec<Top> {
    let mut tops = Vec::new();
    for group in [0, 1, 2, 3, 4, 9] {
        for descending in [true, false] {
            for limit in [0, 1, 3, 100] {
                for with_deprecated in [false, true] {
                    tops.push(Top {
                        group,
                        descending,
                        limit,
                        with_deprecated,
                    });
                }
            }
        }
    }
    tops
}

/// The query suite exercised against every store state: hash-index
/// equality, ordered-index equality and top-k, btree ranges, combinations,
/// ordering, limits, and the deprecated filter (whose flag writes race
/// the pending delta).
fn queries() -> Vec<Query> {
    let mut qs: Vec<Query> = tops().into_iter().map(Top::query).collect();
    for g in 0..5u8 {
        for column in ["tag", "group"] {
            qs.push(Query::all().and(Constraint::eq(column, format!("g{g}"))));
            qs.push(
                Query::all()
                    .and(Constraint::eq(column, format!("g{g}")))
                    .with_deprecated(),
            );
        }
    }
    for threshold in [-25i64, 0, 25] {
        qs.push(Query::all().and(Constraint::new("score", Op::Ge, threshold)));
        qs.push(
            Query::all()
                .and(Constraint::new("score", Op::Lt, threshold))
                .with_deprecated(),
        );
    }
    qs.push(
        Query::all()
            .and(Constraint::eq("tag", "g2"))
            .and(Constraint::new("score", Op::Ge, 0i64))
            .with_deprecated(),
    );
    // Top-k with a residual constraint to evaluate on the way.
    qs.push(
        Query::all()
            .and(Constraint::eq("group", "g2"))
            .and(Constraint::new("score", Op::Lt, 1i64))
            .order_by("score", true)
            .limit(2),
    );
    qs.push(
        Query::all()
            .with_deprecated()
            .order_by("score", true)
            .limit(7),
    );
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

/// Every semi-join of the suite on `store`, each checked against one
/// `limit 1` query per key on the same store; the flags, serialized.
fn observe_joins(store: &MetadataStore) -> Vec<String> {
    let mut out = Vec::new();
    for column in ["group", "tag"] {
        for keys in key_lists() {
            let keys: Vec<&Value> = keys.iter().collect();
            for residual in residuals() {
                let (flags, explain) = store.semi_join("t", column, &keys, &residual).unwrap();
                assert_eq!(explain.shape(), "semi_join");
                assert_eq!(flags.iter().filter(|f| **f).count(), explain.matched_rows);
                if column == "group" {
                    assert_eq!(explain.tail_merge_rows, 0, "an ordered index has no tail");
                }
                let per_key: Vec<bool> = keys
                    .iter()
                    .map(|&key| {
                        let q = residual.clone().and(Constraint::eq(column, key.clone()));
                        !store.query("t", &q.limit(1)).unwrap().is_empty()
                    })
                    .collect();
                assert_eq!(flags, per_key, "{column} {keys:?} {residual:?}");
                out.push(serde_json::to_string(&flags).unwrap());
            }
        }
    }
    out
}

/// The ordered index's reads on `store` against the full-scan reference
/// over `all` (every row, in commit order): every top-k read, every
/// equality on the grouping column, every semi-join on it.
fn check_ordered_reads(store: &MetadataStore, all: &[Arc<Row>]) -> Result<(), TestCaseError> {
    for top in tops() {
        let (rows, explain) = store.query_explain_full("t", &top.query()).unwrap();
        prop_assert_eq!(explain.shape(), "index_top");
        prop_assert_eq!(&rows, &top.reference(all), "{:?}", top);
        prop_assert_eq!(explain.tail_merge_rows, 0);
        prop_assert!(explain.rows_scanned >= rows.len());
    }
    for g in 0..5u8 {
        let q = Query::all().and(Constraint::eq("group", format!("g{g}")));
        for q in [q.clone(), q.with_deprecated()] {
            let (rows, explain) = store.query_explain_full("t", &q).unwrap();
            prop_assert_eq!(explain.shape(), "index_eq");
            let expected: Vec<Arc<Row>> = all.iter().filter(|r| accepts(&q, r)).cloned().collect();
            prop_assert_eq!(rows, expected, "{:?}", q);
        }
    }
    for keys in key_lists() {
        let keys: Vec<&Value> = keys.iter().collect();
        for residual in residuals() {
            let (flags, _) = store.semi_join("t", "group", &keys, &residual).unwrap();
            let expected: Vec<bool> = keys
                .iter()
                .map(|&key| {
                    let on =
                        |r: &&Arc<Row>| Op::Eq.eval(r.get("group").unwrap_or(&Value::Null), key);
                    all.iter().filter(on).any(|r| accepts(&residual, r))
                })
                .collect();
            prop_assert_eq!(flags, expected, "{:?} {:?}", keys, residual);
        }
    }
    Ok(())
}

/// Serialize results so the comparison is byte-identical, not just
/// structurally equal.
fn observe(store: &MetadataStore) -> Vec<String> {
    queries()
        .iter()
        .map(|q| {
            let (rows, explain) = store.query_explain_full("t", q).unwrap();
            format!(
                "{:?}:{}",
                explain.path,
                serde_json::to_string(&rows).unwrap()
            )
        })
        .collect()
}

/// Results only (access paths will legitimately differ between deferred
/// and eager stores once deltas change planner cost estimates).
fn observe_rows(store: &MetadataStore) -> Vec<String> {
    queries()
        .iter()
        .map(|q| serde_json::to_string(&store.query("t", q).unwrap()).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pending-delta reads == post-flush reads, byte for byte, and both ==
    /// an eager store's reads.
    #[test]
    fn deferred_index_delta_is_invisible(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        // Deferred: nothing auto-flushes within this test's row counts.
        let deferred = MetadataStore::in_memory_with_config(StoreConfig {
            index_batch: usize::MAX,
            ..StoreConfig::default()
        });
        deferred.create_table(schema()).unwrap();
        apply(&deferred, &steps);

        // Eager: every insert indexes immediately (the old write path).
        let eager = MetadataStore::in_memory_with_config(StoreConfig {
            index_batch: 1,
            ..StoreConfig::default()
        });
        eager.create_table(schema()).unwrap();
        apply(&eager, &steps);

        let pending = observe(&deferred);
        let pending_joins = observe_joins(&deferred);
        prop_assert_eq!(observe_rows(&deferred), observe_rows(&eager),
            "deferred store disagrees with eager store");
        prop_assert_eq!(&pending_joins, &observe_joins(&eager),
            "deferred store's semi-joins disagree with the eager store's");

        let applied = deferred.flush_index_deltas();
        let flushed = observe(&deferred);
        prop_assert_eq!(&pending, &flushed,
            "flushing the index delta changed query results (applied {} rows)", applied);
        prop_assert_eq!(&pending_joins, &observe_joins(&deferred),
            "flushing the index delta changed semi-join flags");

        // The ordered index's reads against the full-scan reference.
        let all = eager.query("t", &Query::all().with_deprecated()).unwrap();
        check_ordered_reads(&deferred, &all)?;
        check_ordered_reads(&eager, &all)?;
    }

    /// One stripe or sixteen: the same plans, rows and flags, byte for
    /// byte, and the full-scan reference from each. With sixteen, a group
    /// of the ordered index holds rows of many stripes.
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
        prop_assert_eq!(observe_joins(one), observe_joins(sixteen));
        let all = one.query("t", &Query::all().with_deprecated()).unwrap();
        prop_assert_eq!(&all, &sixteen.query("t", &Query::all().with_deprecated()).unwrap());
        for store in &stores {
            check_ordered_reads(store, &all)?;
        }
    }

    /// Auto-flush thresholds mid-history are equally invisible: a tiny
    /// index_batch makes stripes flush at arbitrary points between steps.
    #[test]
    fn auto_flush_boundaries_are_invisible(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        batch in 1usize..8,
    ) {
        let auto = MetadataStore::in_memory_with_config(StoreConfig {
            index_batch: batch,
            ..StoreConfig::default()
        });
        auto.create_table(schema()).unwrap();
        apply(&auto, &steps);

        let eager = MetadataStore::in_memory_with_config(StoreConfig {
            index_batch: 1,
            ..StoreConfig::default()
        });
        eager.create_table(schema()).unwrap();
        apply(&eager, &steps);

        prop_assert_eq!(observe_rows(&auto), observe_rows(&eager));
        prop_assert_eq!(observe_joins(&auto), observe_joins(&eager));
    }
}
