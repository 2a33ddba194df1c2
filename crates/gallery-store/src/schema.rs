//! Table schemas for the embedded metadata store.

use crate::error::{Result, StoreError};
use crate::record::{Record, Row};
use crate::table::MUTABLE_FLAG_COLUMNS;
use crate::value::{Value, ValueType};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Kind of secondary index maintained over a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexKind {
    /// Hash index: O(1) equality lookups.
    Hash,
    /// Ordered index: equality plus range scans.
    BTree,
}

/// Declaration of one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ValueType,
    pub nullable: bool,
    /// `Some(kind)` if a secondary index should be maintained on this column.
    pub index: Option<IndexKind>,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
            index: None,
        }
    }

    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }

    pub fn hash_indexed(mut self) -> Self {
        self.index = Some(IndexKind::Hash);
        self
    }

    pub fn btree_indexed(mut self) -> Self {
        self.index = Some(IndexKind::BTree);
        self
    }
}

/// Declaration of an ordered index: rows grouped by the value of `by`,
/// each group kept in `(order value, commit sequence)` order. It serves
/// `by == v` lookups and, walked from either end, `by == v ORDER BY order
/// LIMIT k` — the "latest of X" shape. Unlike a column's [`IndexKind`]
/// index it is maintained at insert, never deferred, and held once per
/// table rather than per stripe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderedIndexDef {
    pub by: String,
    pub order: String,
}

/// Schema of a table: a named, ordered collection of columns with a
/// designated string primary-key column.
///
/// Records in the metadata store are immutable (paper §3.1): there is no
/// UPDATE; new versions are new rows keyed by new primary keys. The only
/// in-place mutation the store supports is setting flag columns that the
/// data model explicitly declares mutable (e.g. the `deprecated` flag of
/// §3.7 "Model Deprecation"), which is modeled as a separate operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    /// Name of the primary-key column; must be a non-nullable `Str` column.
    pub primary_key: String,
    pub columns: Vec<ColumnDef>,
    /// Ordered indexes, at most one per `by` column (see
    /// [`TableSchema::ordered_by`]).
    pub ordered: Vec<OrderedIndexDef>,
}

impl TableSchema {
    /// Build a schema. The primary key column must exist, be of type `Str`,
    /// and be non-nullable; this is validated eagerly.
    pub fn new(
        name: impl Into<String>,
        primary_key: impl Into<String>,
        columns: Vec<ColumnDef>,
    ) -> Result<Self> {
        let name = name.into();
        let primary_key = primary_key.into();
        let pk = columns
            .iter()
            .find(|c| c.name == primary_key)
            .ok_or_else(|| StoreError::NoSuchColumn {
                table: name.clone(),
                column: primary_key.clone(),
            })?;
        if pk.ty != ValueType::Str {
            return Err(StoreError::TypeMismatch {
                column: primary_key.clone(),
                expected: "str",
                got: pk.ty.name(),
            });
        }
        if pk.nullable {
            return Err(StoreError::BadQuery(format!(
                "primary key column {primary_key} must be non-nullable"
            )));
        }
        // Reject duplicate column names.
        for (i, a) in columns.iter().enumerate() {
            if columns[i + 1..].iter().any(|b| b.name == a.name) {
                return Err(StoreError::BadQuery(format!(
                    "duplicate column name {} in table {}",
                    a.name, name
                )));
            }
        }
        Ok(TableSchema {
            name,
            primary_key,
            columns,
            ordered: Vec::new(),
        })
    }

    /// Declare an ordered index `by → order`. Both columns must exist and
    /// be immutable; `by` carries no other index (this one answers its
    /// equality lookups) and groups at most one ordered index. `order` is
    /// not a `str` or `bytes` column: an entry's place in its group is its
    /// [`Value::order_prefix`] and commit sequence alone, so that a writer
    /// can place its row among other stripes' rows without reading them,
    /// and eight bytes decide the order of those types' values only
    /// sometimes.
    pub fn ordered_by(mut self, by: impl Into<String>, order: impl Into<String>) -> Result<Self> {
        let def = OrderedIndexDef {
            by: by.into(),
            order: order.into(),
        };
        let bad = |why: &str| {
            StoreError::BadQuery(format!(
                "ordered index {} -> {} on table {}: {why}",
                def.by, def.order, self.name
            ))
        };
        for name in [&def.by, &def.order] {
            if self.column(name).is_none() {
                return Err(StoreError::NoSuchColumn {
                    table: self.name.clone(),
                    column: name.clone(),
                });
            }
            if MUTABLE_FLAG_COLUMNS.contains(&name.as_str()) {
                return Err(bad("a flag column changes under the index"));
            }
        }
        if def.by == def.order {
            return Err(bad("groups and orders by the same column"));
        }
        if let Some(ty @ (ValueType::Str | ValueType::Bytes)) =
            self.column(&def.order).map(|c| c.ty)
        {
            return Err(bad(&format!(
                "a {ty} order column has no exact eight-byte sort key"
            )));
        }
        if self.column(&def.by).is_some_and(|c| c.index.is_some()) {
            return Err(bad("the grouping column already has an index"));
        }
        if self.ordered_on(&def.by).is_some() {
            return Err(bad("the grouping column already has an ordered index"));
        }
        self.ordered.push(def);
        Ok(self)
    }

    /// Position in `ordered` of the index grouping by `column`, if any.
    pub fn ordered_on(&self, column: &str) -> Option<usize> {
        self.ordered.iter().position(|o| o.by == column)
    }

    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Position of column `name`, looked for at `hint` first: names given
    /// in schema order are found one comparison each.
    fn position_from(&self, hint: usize, name: &str) -> Option<usize> {
        match self.columns.get(hint) {
            Some(c) if c.name == name => Some(hint),
            _ => self.column_index(name),
        }
    }

    /// Positions of `names`, `None` for a name the table has no column
    /// for: a reader of many rows looks its columns up once, here, and
    /// then reads each row with [`Row::values_at`].
    pub fn positions<const N: usize>(&self, names: [&str; N]) -> [Option<usize>; N] {
        let mut next = 0;
        names.map(|name| {
            let at = self.position_from(next, name);
            next = at.map_or(next, |at| at + 1);
            at
        })
    }

    /// Position of the primary-key column.
    pub fn key_position(&self) -> Option<usize> {
        self.column_index(&self.primary_key)
    }

    /// Validate `record` and place its values in schema order: the row a
    /// table stores, built once, at insert. Fails with the first of: a
    /// required column absent or `Null` (`MissingColumn`), a value of the
    /// wrong type (`TypeMismatch`) — both in schema order — a name the
    /// table has no column for (`NoSuchColumn`), a column given twice
    /// (`DuplicateColumn`).
    pub fn place(self: &Arc<Self>, record: Record) -> Result<Row> {
        let mut placement = Placement::new(self);
        for (name, value) in record.into_fields() {
            placement.give(&name, value);
        }
        placement.finish(Repeated::Refuse)
    }
}

/// What the validate-and-place pass does with a second value for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repeated {
    /// Refuse the row ([`TableSchema::place`]).
    Refuse,
    /// Keep the first value. A log written before such rows were refused
    /// may hold one, and its readers saw the first.
    KeepFirst,
}

/// The validate-and-place pass: `(name, value)` pairs in, a [`Row`] out.
/// Each name is resolved to its column as it arrives, with no copy of it
/// kept; [`Placement::finish`] then checks every column's nullability and
/// type in one walk, and the primary key with them.
pub(crate) struct Placement<'s> {
    schema: &'s Arc<TableSchema>,
    values: Vec<Value>,
    given: Vec<bool>,
    /// Where the next name is looked for first: builders and logs mostly
    /// give columns in schema order ([`TableSchema::position_from`]).
    next: usize,
    /// The first name the table has no column for, and the first column
    /// given twice.
    unknown: Option<String>,
    repeated: Option<String>,
}

impl<'s> Placement<'s> {
    pub(crate) fn new(schema: &'s Arc<TableSchema>) -> Self {
        let n = schema.columns.len();
        Placement {
            schema,
            values: vec![Value::Null; n],
            given: vec![false; n],
            next: 0,
            unknown: None,
            repeated: None,
        }
    }

    pub(crate) fn give(&mut self, name: &str, value: Value) {
        let Some(at) = self.schema.position_from(self.next, name) else {
            self.unknown.get_or_insert_with(|| name.to_owned());
            return;
        };
        self.next = at + 1;
        if std::mem::replace(&mut self.given[at], true) {
            self.repeated.get_or_insert_with(|| name.to_owned());
        } else {
            self.values[at] = value;
        }
    }

    /// The row, or why there is none (see [`TableSchema::place`]).
    pub(crate) fn finish(self, repeated: Repeated) -> Result<Row> {
        let schema = self.schema;
        for (col, v) in schema.columns.iter().zip(&self.values) {
            if v.is_null() {
                if !col.nullable {
                    return Err(StoreError::MissingColumn(col.name.clone()));
                }
            } else if !v.conforms_to(col.ty) {
                return Err(StoreError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                    got: v.type_name(),
                });
            }
        }
        if let Some(column) = self.unknown {
            let table = schema.name.clone();
            return Err(StoreError::NoSuchColumn { table, column });
        }
        if let (Some(column), Repeated::Refuse) = (self.repeated, repeated) {
            let table = schema.name.clone();
            return Err(StoreError::DuplicateColumn { table, column });
        }
        // `TableSchema::new` makes the key a required `str` column, but a
        // schema read back from a log is taken as it was declared there.
        let key = schema.key_position().and_then(|k| self.values.get(k));
        match key {
            Some(Value::Str(_)) => {}
            Some(Value::Null) | None => {
                return Err(StoreError::MissingColumn(schema.primary_key.clone()))
            }
            Some(v) => {
                return Err(StoreError::TypeMismatch {
                    column: schema.primary_key.clone(),
                    expected: "str",
                    got: v.type_name(),
                })
            }
        }
        Ok(Row::new(Arc::clone(schema), self.values.into_boxed_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "models",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str).hash_indexed(),
                ColumnDef::new("owner", ValueType::Str),
                ColumnDef::new("created", ValueType::Timestamp).btree_indexed(),
                ColumnDef::new("note", ValueType::Str).nullable(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_schema_builds() {
        let s = schema();
        assert_eq!(s.columns.len(), 4);
        assert_eq!(s.primary_key, "id");
    }

    #[test]
    fn pk_must_exist() {
        let err = TableSchema::new("t", "missing", vec![ColumnDef::new("a", ValueType::Str)]);
        assert!(matches!(err, Err(StoreError::NoSuchColumn { .. })));
    }

    #[test]
    fn pk_must_be_str() {
        let err = TableSchema::new("t", "a", vec![ColumnDef::new("a", ValueType::Int)]);
        assert!(matches!(err, Err(StoreError::TypeMismatch { .. })));
    }

    #[test]
    fn pk_must_be_non_nullable() {
        let err = TableSchema::new(
            "t",
            "a",
            vec![ColumnDef::new("a", ValueType::Str).nullable()],
        );
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            "a",
            vec![
                ColumnDef::new("a", ValueType::Str),
                ColumnDef::new("a", ValueType::Int),
            ],
        );
        assert!(err.is_err());
    }

    #[test]
    fn ordered_index_declaration_is_checked() {
        let s = schema().ordered_by("owner", "created").unwrap();
        assert_eq!(s.ordered_on("owner"), Some(0));
        assert_eq!(s.ordered_on("created"), None);
        // One per grouping column, and not beside another index on it.
        assert!(s.clone().ordered_by("owner", "created").is_err());
        assert!(schema().ordered_by("id", "created").is_err());
        assert!(schema().ordered_by("owner", "owner").is_err());
        assert!(matches!(
            schema().ordered_by("owner", "bogus"),
            Err(StoreError::NoSuchColumn { .. })
        ));
        // A flag column is rewritten in place: it can neither group nor order.
        let flagged = |by: &str, order: &str| {
            TableSchema::new(
                "t",
                "id",
                vec![
                    ColumnDef::new("id", ValueType::Str),
                    ColumnDef::new("owner", ValueType::Str),
                    ColumnDef::new("deprecated", ValueType::Bool).nullable(),
                ],
            )
            .unwrap()
            .ordered_by(by, order)
        };
        assert!(flagged("deprecated", "owner").is_err());
        assert!(flagged("owner", "deprecated").is_err());
    }

    #[test]
    fn an_order_column_must_have_an_exact_eight_byte_key() {
        let with = |ty: ValueType| {
            TableSchema::new(
                "t",
                "id",
                vec![
                    ColumnDef::new("id", ValueType::Str),
                    ColumnDef::new("owner", ValueType::Str),
                    ColumnDef::new("rank", ty).nullable(),
                ],
            )
            .unwrap()
            .ordered_by("owner", "rank")
        };
        // Two strings that share eight bytes would need their rows read to
        // be told apart; bytes the same.
        for ty in [ValueType::Str, ValueType::Bytes] {
            let err = with(ty).unwrap_err();
            assert!(
                matches!(&err, StoreError::BadQuery(m) if m.contains(ty.name())),
                "{err:?}"
            );
        }
        for ty in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Float,
            ValueType::Timestamp,
        ] {
            assert_eq!(with(ty).unwrap().ordered_on("owner"), Some(0), "{ty}");
        }
        // A string column may group; it may not order.
        assert!(schema().ordered_by("owner", "note").is_err());
    }

    fn place(fields: Vec<(&'static str, Value)>) -> Result<Row> {
        Arc::new(schema()).place(fields.into_iter().collect())
    }

    #[test]
    fn place_catches_missing_required() {
        let row = vec![("id", Value::from("m1"))];
        assert!(matches!(place(row), Err(StoreError::MissingColumn(_))));
    }

    #[test]
    fn place_catches_type_mismatch() {
        let row = vec![
            ("id", Value::from("m1")),
            ("owner", Value::Int(3)),
            ("created", Value::Timestamp(1)),
        ];
        assert!(matches!(place(row), Err(StoreError::TypeMismatch { .. })));
    }

    #[test]
    fn place_catches_unknown_column() {
        let row = vec![
            ("id", Value::from("m1")),
            ("owner", Value::from("o")),
            ("created", Value::Timestamp(1)),
            ("bogus", Value::Int(0)),
        ];
        assert!(matches!(place(row), Err(StoreError::NoSuchColumn { .. })));
    }

    #[test]
    fn place_reports_column_faults_before_unknown_and_repeated_names() {
        // Column faults first, in schema order; then an unknown name.
        let row = vec![
            ("bogus", Value::Int(0)),
            ("id", Value::from("m1")),
            ("id", Value::from("m2")),
            ("owner", Value::Int(3)),
            ("created", Value::Timestamp(1)),
        ];
        assert!(matches!(place(row), Err(StoreError::TypeMismatch { .. })));
        let row = vec![
            ("id", Value::from("m1")),
            ("owner", Value::from("o")),
            ("owner", Value::from("p")),
            ("created", Value::Timestamp(1)),
            ("bogus", Value::Int(0)),
        ];
        assert!(matches!(place(row), Err(StoreError::NoSuchColumn { .. })));
    }

    #[test]
    fn a_repeated_column_keeps_its_first_value_where_a_log_is_replayed() {
        let s = Arc::new(schema());
        let mut placement = Placement::new(&s);
        for (name, value) in [
            ("created", Value::Timestamp(1)),
            ("owner", Value::from("first")),
            ("id", Value::from("m1")),
            ("owner", Value::from("second")),
        ] {
            placement.give(name, value);
        }
        let row = placement.finish(Repeated::KeepFirst).unwrap();
        assert_eq!(row.get("owner"), Some(&Value::from("first")));
    }

    #[test]
    fn a_key_the_columns_do_not_declare_is_checked_at_placement() {
        // Not through `TableSchema::new`: the way a log's schema arrives.
        let s = Arc::new(TableSchema {
            name: "t".into(),
            primary_key: "id".into(),
            columns: vec![ColumnDef::new("id", ValueType::Int).nullable()],
            ordered: Vec::new(),
        });
        let record = |v: Value| Record::new().set("id", v);
        assert!(matches!(
            s.place(record(Value::Int(1))),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.place(Record::new()),
            Err(StoreError::MissingColumn(_))
        ));
    }

    #[test]
    fn nullable_columns_may_be_absent_or_null() {
        let row = vec![
            ("id", Value::from("m1")),
            ("owner", Value::from("o")),
            ("created", Value::Timestamp(1)),
            ("note", Value::Null),
        ];
        assert!(place(row).is_ok());
    }
}
