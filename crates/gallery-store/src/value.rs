//! Dynamically typed values stored in metadata-store columns.
//!
//! The metadata store is Gallery's stand-in for the MySQL service described
//! in §3.5 of the paper. Columns are typed; [`Value`] is the runtime
//! representation of a cell.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Column type declared in a table schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    Bool,
    Int,
    Float,
    Str,
    Bytes,
    /// Milliseconds since the UNIX epoch.
    Timestamp,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ValueType {
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
            ValueType::Bytes => "bytes",
            ValueType::Timestamp => "timestamp",
        }
    }
}

/// A single cell value.
///
/// `Null` is permitted only in nullable columns. `Float` cells use a total
/// ordering (NaN sorts greatest) so they can participate in btree indexes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
    Timestamp(i64),
}

impl Value {
    /// The runtime type of this value, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bytes(_) => Some(ValueType::Bytes),
            Value::Timestamp(_) => Some(ValueType::Timestamp),
        }
    }

    pub fn type_name(&self) -> &'static str {
        self.value_type().map(ValueType::name).unwrap_or("null")
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this value can be stored in a column of the given type.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        match self.value_type() {
            None => true, // null-ness is checked against nullability, not type
            Some(t) => t == ty,
        }
    }

    /// Approximate in-memory footprint in bytes; used by cache budgets and
    /// the simulator's memory accounting.
    pub fn approx_size(&self) -> usize {
        let base = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => base + s.len(),
            Value::Bytes(b) => base + b.len(),
            _ => base,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            // Hash floats by their canonical bit pattern so that values
            // comparing equal under total_cmp hash identically.
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Timestamp(t) => t.hash(state),
        }
    }
}

impl Value {
    /// Total ordering across all value variants. Values of different
    /// variants order by variant rank; `Null` sorts first. Numeric
    /// cross-variant comparison (Int vs Float) compares numerically so
    /// query predicates behave intuitively.
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    /// Eight bytes' worth of this value's place in [`Value::total_cmp`]'s
    /// order among values of one column (one variant, or `Null`):
    /// `a.total_cmp(b) == Less` implies `a.order_prefix() <= b.order_prefix()`.
    /// Exact for booleans, integers, timestamps and floats; the first
    /// eight bytes for strings and byte strings. Equal prefixes decide
    /// nothing — compare the values.
    pub fn order_prefix(&self) -> i64 {
        // Unsigned order, moved onto i64.
        let leading = |bytes: &[u8]| {
            let mut head = [0u8; 8];
            let n = bytes.len().min(8);
            head[..n].copy_from_slice(&bytes[..n]);
            (u64::from_be_bytes(head) ^ (1 << 63)) as i64
        };
        match self {
            Value::Null => i64::MIN,
            Value::Bool(b) => i64::from(*b),
            Value::Int(i) | Value::Timestamp(i) => *i,
            // `f64::total_cmp`'s own mapping of bit patterns to integers.
            Value::Float(x) => {
                let bits = x.to_bits() as i64;
                bits ^ (((bits >> 63) as u64) >> 1) as i64
            }
            Value::Str(s) => leading(s.as_bytes()),
            Value::Bytes(b) => leading(b),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // shares rank with Int for numeric compare
            Value::Timestamp(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Timestamp(t) => write!(f, "ts:{t}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Str("x".into()).type_name(), "str");
    }

    #[test]
    fn conformance() {
        assert!(Value::Int(5).conforms_to(ValueType::Int));
        assert!(!Value::Int(5).conforms_to(ValueType::Str));
        assert!(Value::Null.conforms_to(ValueType::Str));
    }

    #[test]
    fn ordering_within_variant() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Timestamp(10) < Value::Timestamp(20));
    }

    #[test]
    fn order_prefix_never_contradicts_total_cmp() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0bad);
        let columns: Vec<Vec<Value>> = vec![
            vec![false.into(), true.into()],
            [i64::MIN, -1, 0, 1, i64::MAX].map(Value::Int).to_vec(),
            [i64::MIN, 0, 1_700_000_000_000]
                .map(Value::Timestamp)
                .to_vec(),
            [
                -nan,
                f64::NEG_INFINITY,
                -1.5,
                -0.0,
                0.0,
                1e-300,
                2.5,
                f64::INFINITY,
                nan,
            ]
            .map(Value::Float)
            .to_vec(),
            [
                "",
                "a",
                "a\0",
                "abcdefgh",
                "abcdefghi",
                "abcdefgz",
                "b",
                "é",
            ]
            .map(Value::from)
            .to_vec(),
            vec![
                Value::Bytes(vec![]),
                Value::Bytes(vec![0]),
                Value::Bytes(vec![0xff; 9]),
            ],
        ];
        for mut column in columns {
            // A nullable column: Null sorts first.
            column.push(Value::Null);
            for a in &column {
                for b in &column {
                    let (by_value, by_prefix) =
                        (a.total_cmp(b), a.order_prefix().cmp(&b.order_prefix()));
                    assert!(
                        by_prefix == by_value || by_prefix == Ordering::Equal,
                        "{a:?} vs {b:?}: values {by_value:?}, prefixes {by_prefix:?}"
                    );
                }
            }
        }
        // Exact where eight bytes hold the whole value.
        assert!(Value::Float(-0.0).order_prefix() < Value::Float(0.0).order_prefix());
        assert!(Value::Int(-1).order_prefix() < Value::Int(0).order_prefix());
        assert_eq!(
            Value::from("abcdefgh").order_prefix(),
            Value::from("abcdefghi").order_prefix()
        );
    }

    #[test]
    fn numeric_cross_variant_ordering() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn nan_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn equal_values_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Int(7)));
        assert_eq!(h(&Value::Float(1.0)), h(&Value::Float(1.0)));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn approx_size_counts_payload() {
        assert!(Value::Str("hello world".into()).approx_size() > Value::Int(0).approx_size());
    }
}
