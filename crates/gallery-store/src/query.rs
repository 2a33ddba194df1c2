//! Constraint-based queries over metadata tables.
//!
//! Gallery's search API (paper §4.1, Listing 5) expresses queries as lists
//! of `(field, operator, value)` constraints, implicitly conjoined. The
//! planner picks an index for the most selective indexable constraint and
//! filters residual constraints row-by-row.
//!
//! `order_by` is a total order: rows sort by `(value, commit sequence)`,
//! and descending is the exact reverse — so among rows with equal values
//! the newest commit is the latest, and `limit k` is always a prefix of
//! the unlimited result.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Bound;

/// Comparison operator usable in a search constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Substring match on string columns.
    Contains,
    /// Prefix match on string columns.
    StartsWith,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Contains => "contains",
            Op::StartsWith => "starts_with",
        };
        f.write_str(s)
    }
}

impl Op {
    /// Evaluate `lhs OP rhs`. Null never satisfies any predicate except
    /// `Ne` against a non-null value (SQL-ish semantics kept simple).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() {
            return self == Op::Ne && !rhs.is_null();
        }
        match self {
            Op::Eq => lhs == rhs,
            Op::Ne => lhs != rhs,
            Op::Lt => lhs < rhs,
            Op::Le => lhs <= rhs,
            Op::Gt => lhs > rhs,
            Op::Ge => lhs >= rhs,
            Op::Contains => match (lhs.as_str(), rhs.as_str()) {
                (Some(a), Some(b)) => a.contains(b),
                _ => false,
            },
            Op::StartsWith => match (lhs.as_str(), rhs.as_str()) {
                (Some(a), Some(b)) => a.starts_with(b),
                _ => false,
            },
        }
    }

    /// Whether an equality (hash or btree) index can serve this operator.
    pub fn index_eq_usable(self) -> bool {
        self == Op::Eq
    }

    /// Whether an ordered index can serve this operator via a range scan.
    pub fn index_range_usable(self) -> bool {
        matches!(self, Op::Eq | Op::Lt | Op::Le | Op::Gt | Op::Ge)
    }

    /// Bounds for a btree range scan implementing this operator.
    pub fn bounds(self, v: &Value) -> Option<(Bound<&Value>, Bound<&Value>)> {
        match self {
            Op::Eq => Some((Bound::Included(v), Bound::Included(v))),
            Op::Lt => Some((Bound::Unbounded, Bound::Excluded(v))),
            Op::Le => Some((Bound::Unbounded, Bound::Included(v))),
            Op::Gt => Some((Bound::Excluded(v), Bound::Unbounded)),
            Op::Ge => Some((Bound::Included(v), Bound::Unbounded)),
            _ => None,
        }
    }
}

/// One `(field, operator, value)` constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    pub field: String,
    pub op: Op,
    pub value: Value,
}

impl Constraint {
    pub fn new(field: impl Into<String>, op: Op, value: impl Into<Value>) -> Self {
        Constraint {
            field: field.into(),
            op,
            value: value.into(),
        }
    }

    pub fn eq(field: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(field, Op::Eq, value)
    }

    pub fn lt(field: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(field, Op::Lt, value)
    }

    pub fn gt(field: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(field, Op::Gt, value)
    }

    pub fn le(field: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(field, Op::Le, value)
    }

    pub fn ge(field: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(field, Op::Ge, value)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.field, self.op, self.value)
    }
}

/// A conjunctive query: all constraints must hold. `limit` bounds the number
/// of returned rows; `order_by` optionally sorts by one column.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Query {
    pub constraints: Vec<Constraint>,
    pub order_by: Option<OrderBy>,
    pub limit: Option<usize>,
    /// When false (the default) rows whose `deprecated` column is true are
    /// skipped, implementing §3.7 "Model Deprecation": deprecated entries
    /// are flagged, not deleted, and skipped during fetching/searching.
    pub include_deprecated: bool,
}

/// Sort specification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderBy {
    pub field: String,
    pub descending: bool,
}

impl Query {
    pub fn new(constraints: Vec<Constraint>) -> Self {
        Query {
            constraints,
            ..Default::default()
        }
    }

    pub fn all() -> Self {
        Query::default()
    }

    pub fn and(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    pub fn order_by(mut self, field: impl Into<String>, descending: bool) -> Self {
        self.order_by = Some(OrderBy {
            field: field.into(),
            descending,
        });
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    pub fn with_deprecated(mut self) -> Self {
        self.include_deprecated = true;
        self
    }
}

/// How the planner decided to execute a query — the plan-shape half of an
/// [`Explain`], also surfaced on its own for tests, benchmarks, and the E9
/// scale experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPath {
    /// Full table scan, filtering every row.
    FullScan,
    /// Served by the index on the named column; residual constraints filtered.
    IndexEq { column: String },
    /// Range scan over the btree index on the named column.
    IndexRange { column: String },
    /// `column == v ORDER BY order LIMIT k` read off one end of the ordered
    /// index `column → order`: only rows up to the `limit`-th match are
    /// visited, residual constraints filtered along the way.
    IndexTop { column: String, order: String },
    /// Direct primary-key lookup.
    PrimaryKey,
    /// `Table::semi_join`: a list of keys, each probed in the index on the
    /// named column until its first row that passes the residual
    /// constraints. One of these describes the whole key set.
    SemiJoin { column: String },
}

impl AccessPath {
    /// Bounded-cardinality shape label for per-shape metrics: one of
    /// `pk`, `index_eq`, `index_range`, `index_top`, `semi_join`,
    /// `full_scan`.
    pub fn shape(&self) -> &'static str {
        match self {
            AccessPath::FullScan => "full_scan",
            AccessPath::IndexEq { .. } => "index_eq",
            AccessPath::IndexRange { .. } => "index_range",
            AccessPath::IndexTop { .. } => "index_top",
            AccessPath::PrimaryKey => "pk",
            AccessPath::SemiJoin { .. } => "semi_join",
        }
    }
}

/// EXPLAIN artifact for one executed query: the chosen access path, the
/// planner's row estimate vs. what the scan actually touched, and the
/// per-stage timings. Produced by `Table::execute_explain` and
/// `Table::semi_join`, and recorded into the slow-query ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explain {
    /// The plan the planner chose.
    pub path: AccessPath,
    /// Rows the planner expected the access path to yield as candidates
    /// (`IndexTop`: the query's `limit`; `SemiJoin`: the sizes of the index
    /// groups it probed).
    pub estimated_rows: usize,
    /// Candidate rows the executor actually examined (before residual
    /// filtering). `IndexTop`: the rows it evaluated the predicate on —
    /// those returned plus those skipped on the way; `SemiJoin` likewise,
    /// each key's rows up to its first match.
    pub rows_scanned: usize,
    /// Rows that survived every constraint (before `limit`; `IndexTop`
    /// stops at `limit`, so for it this is the rows returned; `SemiJoin`:
    /// the keys kept).
    pub matched_rows: usize,
    /// Always 0: every index is current at insert, so no plan merges
    /// unindexed rows. Kept, and not rendered, because the load benchmark
    /// (`loadbench/`) still reads it.
    pub tail_merge_rows: usize,
    /// Time spent choosing the plan, in milliseconds.
    pub plan_ms: f64,
    /// Time spent collecting and filtering candidates, in milliseconds.
    pub scan_ms: f64,
    /// Time spent ordering/truncating the result, in milliseconds.
    pub sort_ms: f64,
}

impl Explain {
    /// Bounded-cardinality shape label, forwarded from the access path.
    pub fn shape(&self) -> &'static str {
        self.path.shape()
    }

    /// Total executor time (plan + scan + sort), in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.plan_ms + self.scan_ms + self.sort_ms
    }

    /// Multi-line human-readable rendering, used by `gallery explain` and
    /// the slow-query log.
    pub fn render(&self) -> String {
        let path = match &self.path {
            AccessPath::FullScan => "FullScan".to_string(),
            AccessPath::IndexEq { column } => format!("IndexEq({column})"),
            AccessPath::IndexRange { column } => format!("IndexRange({column})"),
            AccessPath::IndexTop { column, order } => format!("IndexTop({column}, {order})"),
            AccessPath::PrimaryKey => "PrimaryKey".to_string(),
            AccessPath::SemiJoin { column } => format!("SemiJoin({column})"),
        };
        format!(
            "path: {path} [{}]\n\
             rows: estimated={} scanned={} matched={}\n\
             timings_ms: plan={:.3} scan={:.3} sort={:.3} total={:.3}",
            self.shape(),
            self.estimated_rows,
            self.rows_scanned,
            self.matched_rows,
            self.plan_ms,
            self.scan_ms,
            self.sort_ms,
            self.total_ms(),
        )
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_eval_basics() {
        assert!(Op::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(Op::Ne.eval(&Value::Int(1), &Value::Int(2)));
        assert!(Op::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(Op::Ge.eval(&Value::Float(2.0), &Value::Int(2)));
        assert!(Op::Contains.eval(&Value::from("hello"), &Value::from("ell")));
        assert!(Op::StartsWith.eval(&Value::from("hello"), &Value::from("he")));
        assert!(!Op::StartsWith.eval(&Value::from("hello"), &Value::from("lo")));
    }

    #[test]
    fn null_semantics() {
        assert!(!Op::Eq.eval(&Value::Null, &Value::Null));
        assert!(!Op::Lt.eval(&Value::Null, &Value::Int(1)));
        assert!(Op::Ne.eval(&Value::Null, &Value::Int(1)));
        assert!(!Op::Ne.eval(&Value::Null, &Value::Null));
    }

    #[test]
    fn op_index_usability() {
        assert!(Op::Eq.index_eq_usable());
        assert!(!Op::Lt.index_eq_usable());
        assert!(Op::Lt.index_range_usable());
        assert!(!Op::Contains.index_range_usable());
    }

    #[test]
    fn bounds_for_range_ops() {
        let v = Value::Int(5);
        assert!(Op::Eq.bounds(&v).is_some());
        assert!(Op::Contains.bounds(&v).is_none());
        let (lo, hi) = Op::Gt.bounds(&v).unwrap();
        assert_eq!(lo, Bound::Excluded(&v));
        assert_eq!(hi, Bound::Unbounded);
    }

    #[test]
    fn explain_shapes_and_render() {
        assert_eq!(AccessPath::PrimaryKey.shape(), "pk");
        assert_eq!(
            AccessPath::IndexEq { column: "c".into() }.shape(),
            "index_eq"
        );
        assert_eq!(
            AccessPath::IndexRange { column: "c".into() }.shape(),
            "index_range"
        );
        let top = AccessPath::IndexTop {
            column: "model_id".into(),
            order: "created".into(),
        };
        assert_eq!(top.shape(), "index_top");
        assert_eq!(AccessPath::FullScan.shape(), "full_scan");
        let join = AccessPath::SemiJoin {
            column: "instance_id".into(),
        };
        assert_eq!(join.shape(), "semi_join");
        let ex = Explain {
            path: AccessPath::IndexEq {
                column: "city".into(),
            },
            estimated_rows: 12,
            rows_scanned: 10,
            matched_rows: 7,
            tail_merge_rows: 0,
            plan_ms: 0.5,
            scan_ms: 1.5,
            sort_ms: 0.25,
        };
        assert_eq!(ex.shape(), "index_eq");
        assert!((ex.total_ms() - 2.25).abs() < 1e-9);
        let text = ex.render();
        assert!(text.contains("IndexEq(city)"), "{text}");
        assert!(
            text.contains("estimated=12 scanned=10 matched=7\n"),
            "{text}"
        );
        assert_eq!(format!("{ex}"), text);
        let ex = Explain { path: top, ..ex };
        let text = ex.to_string();
        assert!(
            text.contains("IndexTop(model_id, created) [index_top]"),
            "{text}"
        );
        let ex = Explain { path: join, ..ex };
        let text = ex.to_string();
        assert!(text.contains("SemiJoin(instance_id) [semi_join]"), "{text}");
    }

    #[test]
    fn query_builder() {
        let q = Query::all()
            .and(Constraint::eq("name", "rf"))
            .and(Constraint::lt("bias", 0.25))
            .order_by("created", true)
            .limit(10);
        assert_eq!(q.constraints.len(), 2);
        assert_eq!(q.limit, Some(10));
        assert!(q.order_by.as_ref().unwrap().descending);
        assert!(!q.include_deprecated);
    }
}
