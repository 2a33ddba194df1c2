//! Table schemas for the embedded metadata store.

use crate::error::{Result, StoreError};
use crate::table::MUTABLE_FLAG_COLUMNS;
use crate::value::{Value, ValueType};
use serde::{Deserialize, Serialize};

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
/// index it is maintained at insert, never deferred.
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
    /// equality lookups) and groups at most one ordered index.
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

    /// Validate a full row of values against this schema.
    pub fn validate_row(&self, values: &[(String, Value)]) -> Result<()> {
        for col in &self.columns {
            match values.iter().find(|(n, _)| n == &col.name) {
                None => {
                    if !col.nullable {
                        return Err(StoreError::MissingColumn(col.name.clone()));
                    }
                }
                Some((_, v)) => {
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
            }
        }
        for (n, _) in values {
            if self.column(n).is_none() {
                return Err(StoreError::NoSuchColumn {
                    table: self.name.clone(),
                    column: n.clone(),
                });
            }
        }
        Ok(())
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
        assert!(s.clone().ordered_by("owner", "note").is_err());
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
    fn validate_row_catches_missing_required() {
        let s = schema();
        let row = vec![("id".to_string(), Value::from("m1"))];
        assert!(matches!(
            s.validate_row(&row),
            Err(StoreError::MissingColumn(_))
        ));
    }

    #[test]
    fn validate_row_catches_type_mismatch() {
        let s = schema();
        let row = vec![
            ("id".to_string(), Value::from("m1")),
            ("owner".to_string(), Value::Int(3)),
            ("created".to_string(), Value::Timestamp(1)),
        ];
        assert!(matches!(
            s.validate_row(&row),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn validate_row_catches_unknown_column() {
        let s = schema();
        let row = vec![
            ("id".to_string(), Value::from("m1")),
            ("owner".to_string(), Value::from("o")),
            ("created".to_string(), Value::Timestamp(1)),
            ("bogus".to_string(), Value::Int(0)),
        ];
        assert!(matches!(
            s.validate_row(&row),
            Err(StoreError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn nullable_columns_may_be_absent_or_null() {
        let s = schema();
        let row = vec![
            ("id".to_string(), Value::from("m1")),
            ("owner".to_string(), Value::from("o")),
            ("created".to_string(), Value::Timestamp(1)),
            ("note".to_string(), Value::Null),
        ];
        assert!(s.validate_row(&row).is_ok());
    }
}
