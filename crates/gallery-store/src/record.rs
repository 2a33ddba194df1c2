//! Records (rows) stored in metadata tables.

use crate::value::Value;
use serde::{Deserialize, Serialize};

/// One immutable row. Field order follows the table schema after insertion;
/// builders may supply fields in any order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    pub fn new() -> Self {
        Record { fields: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        Record {
            fields: Vec::with_capacity(n),
        }
    }

    /// Builder-style field setter. Setting the same field twice replaces the
    /// earlier value (records themselves are immutable once stored; this
    /// only affects construction).
    pub fn set(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
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

    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    pub fn into_fields(self) -> Vec<(String, Value)> {
        self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Approximate in-memory footprint (names + values).
    pub fn approx_size(&self) -> usize {
        self.fields
            .iter()
            .map(|(n, v)| n.len() + v.approx_size())
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

impl Default for Record {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<(String, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Record {
            fields: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn from_iterator() {
        let r: Record = vec![("k".to_string(), Value::Int(9))].into_iter().collect();
        assert_eq!(r.get("k"), Some(&Value::Int(9)));
    }
}
