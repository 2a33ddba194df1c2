//! Rows: the by-name [`Record`] callers build, and the positional [`Row`] a
//! table stores.
//!
//! A table declares its columns once (§3.5 keeps records in a relational
//! store), so a stored row does not carry column names: it is a handle to
//! its table's [`TableSchema`] plus one value per column, in schema order.
//! [`TableSchema::place`] turns a builder into a row, once, at insert.

use crate::schema::TableSchema;
use crate::value::Value;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A row as a caller builds it: `(column, value)` pairs in any order.
/// Column names are usually literals, held without a copy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(Cow<'static, str>, Value)>,
}

impl Record {
    pub fn new() -> Self {
        Record { fields: Vec::new() }
    }

    /// Builder-style field setter. Setting the same field twice replaces the
    /// earlier value (records themselves are immutable once stored; this
    /// only affects construction).
    pub fn set(mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Value>) -> Self {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
        self
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    pub fn fields(&self) -> &[(Cow<'static, str>, Value)] {
        &self.fields
    }

    pub fn into_fields(self) -> Vec<(Cow<'static, str>, Value)> {
        self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// Pairs as given, a name given twice kept twice: inserting such a record
/// fails ([`crate::StoreError::DuplicateColumn`]).
impl<N: Into<Cow<'static, str>>> FromIterator<(N, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (N, Value)>>(iter: T) -> Self {
        Record {
            fields: iter.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }
}

/// A stored row: a handle to its table's schema, where the column names
/// live once per table, and one value per column in schema order — `Null`
/// where a nullable column is absent. Built by [`TableSchema::place`] and
/// immutable from then on, except for the flag columns a table rewrites
/// copy-on-write.
///
/// "Present" below means non-null: a row cannot tell a column given as
/// `Null` from one not given, and neither can its log encoding.
#[derive(Clone)]
pub struct Row {
    schema: Arc<TableSchema>,
    values: Box<[Value]>,
}

impl Row {
    /// `values` must hold one value per column of `schema`, in its order.
    pub(crate) fn new(schema: Arc<TableSchema>, values: Box<[Value]>) -> Self {
        debug_assert_eq!(values.len(), schema.columns.len());
        Row { schema, values }
    }

    /// The schema of the table the row was placed in.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// The value in column `position`; `Null` past the last column.
    pub fn at(&self, position: usize) -> &Value {
        self.values.get(position).unwrap_or(&Value::Null)
    }

    /// The value of column `name`, if the table has that column and the
    /// row a value in it. Resolves the name through the schema: a reader
    /// of many rows resolves once ([`TableSchema::positions`]) and reads
    /// [`Row::values_at`].
    pub fn get(&self, name: &str) -> Option<&Value> {
        let value = self.at(self.schema.column_index(name)?);
        (!value.is_null()).then_some(value)
    }

    /// The values at `positions` (from [`TableSchema::positions`] on this
    /// row's schema), `Null` where a position is `None`.
    pub fn values_at<const N: usize>(&self, positions: &[Option<usize>; N]) -> [&Value; N] {
        positions.map(|p| p.map_or(&Value::Null, |p| self.at(p)))
    }

    /// The present columns as `(name, value)`, in schema order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        let names = self.schema.columns.iter().map(|c| c.name.as_str());
        names.zip(self.values.iter()).filter(|(_, v)| !v.is_null())
    }

    /// Overwrite column `position` (a flag column; the table checked it).
    pub(crate) fn set_at(&mut self, position: usize, value: Value) {
        if let Some(slot) = self.values.get_mut(position) {
            *slot = value;
        }
    }

    /// Approximate resident bytes: the shared allocation's counts and the
    /// row itself, then every value with its heap payload. Column names are
    /// the schema's, paid once per table, and not counted here.
    pub fn approx_size(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Self>()
            + self.values.iter().map(Value::approx_size).sum::<usize>()
    }
}

/// Rows are equal when their present columns are, name for name and value
/// for value (rows of two copies of a schema compare as rows of one).
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.fields().eq(other.fields())
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.fields()).finish()
    }
}

/// `{column: value}` over the present columns, for `gallery wal-dump`.
impl serde::Serialize for Row {
    fn to_content(&self) -> serde::Content {
        let fields = self.fields().map(|(n, v)| (n.to_owned(), v.to_content()));
        serde::Content::Map(fields.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;
    use proptest::prelude::*;

    #[test]
    fn set_and_get() {
        let r = Record::new().set("a", 1i64).set("b", "x");
        assert_eq!(r.get("a"), Some(&Value::Int(1)));
        assert_eq!(r.get("b"), Some(&Value::Str("x".into())));
        assert_eq!(r.get("c"), None);
    }

    #[test]
    fn set_twice_replaces() {
        let r = Record::new().set("a", 1i64).set("a", 2i64);
        assert_eq!(r.get("a"), Some(&Value::Int(2)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_iterator_keeps_what_it_is_given() {
        let r: Record = [("k", Value::Int(9)), ("k", Value::Int(8))]
            .into_iter()
            .collect();
        assert_eq!(r.get("k"), Some(&Value::Int(9)));
        assert_eq!(r.len(), 2);
    }

    /// `id` (key), `n`, and a nullable `note`.
    fn schema(names: [&str; 3]) -> Arc<TableSchema> {
        let [id, n, note] = names;
        let columns = vec![
            ColumnDef::new(id, ValueType::Str),
            ColumnDef::new(n, ValueType::Int),
            ColumnDef::new(note, ValueType::Str).nullable(),
        ];
        Arc::new(TableSchema::new("t", id, columns).unwrap())
    }

    #[test]
    fn approx_size_counts_values_and_overhead_not_names() {
        let short = schema(["id", "n", "note"]);
        let row = short
            .place(Record::new().set("n", 1i64).set("id", "ab"))
            .unwrap();
        let value = std::mem::size_of::<Value>();
        let overhead = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Row>();
        // Three value slots, the absent `note` among them, and the key's
        // two bytes of text.
        assert_eq!(row.approx_size(), overhead + 3 * value + 2);
        let long = schema(["identifier", "number_of_things", "annotation"]);
        let same = long
            .place(
                Record::new()
                    .set("identifier", "ab")
                    .set("number_of_things", 1i64),
            )
            .unwrap();
        assert_eq!(same.approx_size(), row.approx_size());
    }

    #[test]
    fn a_row_reads_by_name_by_position_and_as_its_present_fields() {
        let s = schema(["id", "n", "note"]);
        let row = s
            .place(Record::new().set("n", 7i64).set("id", "x"))
            .unwrap();
        let values = [row.at(0), row.at(1), row.at(2)];
        assert_eq!(values, [&Value::from("x"), &Value::Int(7), &Value::Null]);
        assert_eq!(
            (row.get("n"), row.at(1)),
            (Some(&Value::Int(7)), &Value::Int(7))
        );
        assert_eq!((row.get("note"), row.get("bogus")), (None, None));
        assert_eq!(row.at(3), &Value::Null);
        let at = s.positions(["note", "id", "bogus"]);
        assert_eq!(at, [Some(2), Some(0), None]);
        assert_eq!(
            row.values_at(&at),
            [&Value::Null, &Value::from("x"), &Value::Null]
        );
        let fields: Vec<(&str, &Value)> = row.fields().collect();
        assert_eq!(fields, [("id", &Value::from("x")), ("n", &Value::Int(7))]);
        assert_eq!(format!("{row:?}"), r#"{"id": Str("x"), "n": Int(7)}"#);
        // An explicit `Null` is an absent column.
        let null = s
            .place(
                Record::new()
                    .set("id", "x")
                    .set("n", 7i64)
                    .set("note", Value::Null),
            )
            .unwrap();
        assert_eq!(null, row);
    }

    #[test]
    fn a_column_given_twice_is_refused_by_name() {
        let s = schema(["id", "n", "note"]);
        let twice: Record = [
            ("id", Value::from("x")),
            ("n", Value::Int(1)),
            ("n", Value::Int(2)),
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            s.place(twice),
            Err(StoreError::DuplicateColumn { column, .. }) if column == "n"
        ));
    }

    /// The nullable columns of a `metrics`-shaped table, and the rest.
    fn metrics() -> Arc<TableSchema> {
        let columns = vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("instance_id", ValueType::Str),
            ColumnDef::new("name", ValueType::Str),
            ColumnDef::new("value", ValueType::Float),
            ColumnDef::new("scope", ValueType::Str).nullable(),
            ColumnDef::new("metadata", ValueType::Str).nullable(),
            ColumnDef::new("created", ValueType::Timestamp),
            ColumnDef::new("deprecated", ValueType::Bool).nullable(),
        ];
        Arc::new(TableSchema::new("metrics", "id", columns).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        #[test]
        fn a_row_built_in_any_order_reads_back_every_column(
            picks in proptest::collection::vec(any::<prop::sample::Index>(), 8..9),
            present in proptest::collection::vec(any::<bool>(), 8..9),
            value in any::<f64>(),
            text in "[a-z]{0,6}",
        ) {
            let s = metrics();
            // The order the builder sets the columns in: a shuffle.
            let mut order: Vec<usize> = (0..8).collect();
            for (i, pick) in picks.iter().enumerate() {
                order.swap(i, i + pick.index(8 - i));
            }
            let by_column: Vec<Value> = vec![
                Value::from(format!("m-{text}")),
                Value::from("i-1"),
                Value::from(text.clone()),
                Value::Float(value),
                Value::from("validation"),
                Value::from("{}"),
                Value::Timestamp(42),
                Value::Bool(true),
            ];
            let given = |i: usize| !s.columns[i].nullable || present[i];
            let record = order.iter().filter(|&&i| given(i)).fold(Record::new(), |r, &i| {
                r.set(s.columns[i].name.clone(), by_column[i].clone())
            });
            prop_assert_eq!(record.len(), (0..8).filter(|&i| given(i)).count());
            let row = s.place(record).unwrap();
            for (i, column) in s.columns.iter().enumerate() {
                let expected = given(i).then_some(&by_column[i]);
                prop_assert_eq!(row.get(&column.name), expected);
                prop_assert_eq!(row.at(i), expected.unwrap_or(&Value::Null));
                let [at] = s.positions([column.name.as_str()]);
                prop_assert_eq!(at, Some(i));
            }
            let names: Vec<&str> = row.fields().map(|(n, _)| n).collect();
            let expected: Vec<&str> = (0..8)
                .filter(|&i| given(i))
                .map(|i| s.columns[i].name.as_str())
                .collect();
            prop_assert_eq!(names, expected);
        }
    }
}
