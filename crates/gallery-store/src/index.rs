//! Secondary indexes over metadata tables.
//!
//! Three kinds are supported, mirroring what a MySQL deployment gives
//! Gallery (§3.5 "model metadata searchability"): hash indexes for equality
//! lookups, btree indexes for range predicates such as `created_time > t`
//! or `metricValue < 0.25`, and ordered indexes — the composite
//! `(model_id, created)` key — for "the newest row of X".
//!
//! Hash and btree indexes are maintained *deferred*:
//! [`crate::table::Table`] accumulates newly inserted rows as an un-indexed
//! tail per stripe and applies them here in one pass
//! ([`Index::insert_many`]) once the tail crosses the configured batch
//! size. Their lookups therefore under-approximate — they may miss tail
//! rows, never return stale ones for inserts — and the table merges the
//! un-indexed tail back into every access path they drive, so query
//! results stay exact at all times. An [`OrderedIndex`] is current after
//! every insert and has no tail.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::ops::Bound;

/// Row identifiers are dense offsets into the table's row arena.
pub type RowId = u32;

/// A hash index: value -> set of row ids.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<RowId>>,
}

impl HashIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, value: Value, row: RowId) {
        self.map.entry(value).or_default().push(row);
    }

    pub fn get(&self, value: &Value) -> &[RowId] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    pub fn remove(&mut self, value: &Value, row: RowId) {
        if let Some(rows) = self.map.get_mut(value) {
            rows.retain(|r| *r != row);
            if rows.is_empty() {
                self.map.remove(value);
            }
        }
    }
}

/// An ordered index: value -> set of row ids, supporting range scans.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<RowId>>,
}

impl BTreeIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, value: Value, row: RowId) {
        self.map.entry(value).or_default().push(row);
    }

    pub fn get(&self, value: &Value) -> &[RowId] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn remove(&mut self, value: &Value, row: RowId) {
        if let Some(rows) = self.map.get_mut(value) {
            rows.retain(|r| *r != row);
            if rows.is_empty() {
                self.map.remove(value);
            }
        }
    }

    /// Row ids whose indexed value lies within the given bounds.
    pub fn range<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = RowId> + 'a {
        self.map
            .range::<Value, _>((lo, hi))
            .flat_map(|(_, rows)| rows.iter().copied())
    }

    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Smallest and largest indexed values, if any.
    pub fn min_max(&self) -> Option<(&Value, &Value)> {
        let min = self.map.keys().next()?;
        let max = self.map.keys().next_back()?;
        Some((min, max))
    }
}

/// Either kind of index, chosen per-column by the schema.
#[derive(Debug)]
pub enum Index {
    Hash(HashIndex),
    BTree(BTreeIndex),
}

impl Index {
    pub fn insert(&mut self, value: Value, row: RowId) {
        match self {
            Index::Hash(ix) => ix.insert(value, row),
            Index::BTree(ix) => ix.insert(value, row),
        }
    }

    pub fn remove(&mut self, value: &Value, row: RowId) {
        match self {
            Index::Hash(ix) => ix.remove(value, row),
            Index::BTree(ix) => ix.remove(value, row),
        }
    }

    /// The bucket of `value`, in place. A row enters a column's index
    /// once, so a bucket holds no duplicates.
    pub fn lookup_eq(&self, value: &Value) -> &[RowId] {
        match self {
            Index::Hash(ix) => ix.get(value),
            Index::BTree(ix) => ix.get(value),
        }
    }

    /// Range lookup; only btree indexes support this.
    pub fn lookup_range<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> Option<impl Iterator<Item = RowId> + 'a> {
        match self {
            Index::Hash(_) => None,
            Index::BTree(ix) => Some(ix.range(lo, hi)),
        }
    }

    pub fn supports_range(&self) -> bool {
        matches!(self, Index::BTree(_))
    }

    /// Apply a batch of pending entries in one pass — the flush half of
    /// deferred index maintenance. Equivalent to `insert` per entry but
    /// hashes/rebalances against a warm map in a tight loop.
    pub fn insert_many<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (Value, RowId)>,
    {
        match self {
            Index::Hash(ix) => {
                for (value, row) in entries {
                    ix.insert(value, row);
                }
            }
            Index::BTree(ix) => {
                for (value, row) in entries {
                    ix.insert(value, row);
                }
            }
        }
    }
}

/// One group of an [`OrderedIndex`]: its rows, ascending, and the order
/// prefixes ([`Value::order_prefix`]) of the first and the last of them —
/// so that finding which stripe holds the newest row of a group, and
/// appending a newer one, read no row at all.
#[derive(Debug)]
pub struct Group {
    rows: Vec<RowId>,
    first: i64,
    last: i64,
}

impl Group {
    pub fn rows(&self) -> &[RowId] {
        &self.rows
    }

    /// Order prefix of the row at the end a walk starts from.
    pub fn end_prefix(&self, descending: bool) -> i64 {
        if descending {
            self.last
        } else {
            self.first
        }
    }
}

/// Rows grouped by one column's value, each group sorted by another
/// column's value and then by commit sequence (see
/// [`crate::schema::OrderedIndexDef`]). A group holds row ids and two
/// prefixes: the table that owns the rows supplies the comparison.
///
/// Groups are keyed by a 64-bit keyed hash of their value
/// ([`GroupHasher`]), not by a copy of it: an insert allocates no key, a
/// probe compares no string, and a query hashes its value once for all
/// stripes. Two values whose hashes collide would share a group; that is
/// allowed, because the executor evaluates every constraint — the equality
/// this index serves included — on every row it visits, so a shared group
/// costs rows read and rejected, never a wrong answer.
#[derive(Debug, Default)]
pub struct OrderedIndex {
    groups: HashMap<u64, Group>,
}

/// Hashes group values to [`OrderedIndex`] keys; one per table, so that
/// every stripe's shard of an index agrees on a value's key. Randomly
/// keyed, like the maps of the other indexes.
#[derive(Debug, Default)]
pub struct GroupHasher {
    state: RandomState,
    /// Tests only: give every value the same key, to show that sharing a
    /// group is harmless.
    #[cfg(test)]
    pub(crate) collide: bool,
}

impl GroupHasher {
    pub fn key(&self, value: &Value) -> u64 {
        #[cfg(test)]
        if self.collide {
            return 0;
        }
        self.state.hash_one(value)
    }
}

impl OrderedIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn group(&self, key: u64) -> Option<&Group> {
        self.groups.get(&key)
    }

    /// The rows of the group `key`, ascending.
    pub fn rows(&self, key: u64) -> &[RowId] {
        self.group(key).map_or(&[], Group::rows)
    }

    /// Add `row`, whose order value has the prefix `prefix`, to the group
    /// `key`. `to_new(r)` orders the row already in the group as `r`
    /// against the new one; it is asked only where prefixes do not decide.
    /// Rows mostly arrive in order (`created` only grows), which makes this
    /// a probe and a push; a late row is placed by binary search.
    pub fn insert(
        &mut self,
        key: u64,
        row: RowId,
        prefix: i64,
        to_new: impl Fn(RowId) -> Ordering,
    ) {
        let group = match self.groups.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Group {
                    rows: vec![row],
                    first: prefix,
                    last: prefix,
                });
                return;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        let newest = match prefix.cmp(&group.last) {
            Ordering::Equal => group
                .rows
                .last()
                .is_none_or(|&r| to_new(r) != Ordering::Greater),
            decided => decided == Ordering::Greater,
        };
        if newest {
            group.rows.push(row);
            group.last = prefix;
            return;
        }
        let at = group
            .rows
            .partition_point(|&r| to_new(r) != Ordering::Greater);
        group.rows.insert(at, row);
        if at == 0 {
            group.first = prefix;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_equality() {
        let mut ix = HashIndex::new();
        ix.insert(Value::from("a"), 0);
        ix.insert(Value::from("a"), 1);
        ix.insert(Value::from("b"), 2);
        assert_eq!(ix.get(&Value::from("a")), &[0, 1]);
        assert_eq!(ix.get(&Value::from("b")), &[2]);
        assert!(ix.get(&Value::from("c")).is_empty());
        assert_eq!(ix.distinct_values(), 2);
    }

    #[test]
    fn hash_index_remove() {
        let mut ix = HashIndex::new();
        ix.insert(Value::from("a"), 0);
        ix.insert(Value::from("a"), 1);
        ix.remove(&Value::from("a"), 0);
        assert_eq!(ix.get(&Value::from("a")), &[1]);
        ix.remove(&Value::from("a"), 1);
        assert_eq!(ix.distinct_values(), 0);
    }

    #[test]
    fn btree_index_range() {
        let mut ix = BTreeIndex::new();
        for i in 0..10i64 {
            ix.insert(Value::Int(i), i as RowId);
        }
        let rows = ix.range(
            Bound::Included(&Value::Int(3)),
            Bound::Excluded(&Value::Int(7)),
        );
        assert_eq!(rows.collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        let rows = ix.range(Bound::Unbounded, Bound::Included(&Value::Int(1)));
        assert_eq!(rows.collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn btree_min_max() {
        let mut ix = BTreeIndex::new();
        ix.insert(Value::Int(5), 0);
        ix.insert(Value::Int(2), 1);
        let (min, max) = ix.min_max().unwrap();
        assert_eq!(min, &Value::Int(2));
        assert_eq!(max, &Value::Int(5));
    }

    #[test]
    fn index_enum_dispatch() {
        let mut ix = Index::Hash(HashIndex::new());
        ix.insert(Value::Int(1), 7);
        assert_eq!(ix.lookup_eq(&Value::Int(1)), &[7]);
        assert!(ix
            .lookup_range(Bound::Unbounded, Bound::Unbounded)
            .is_none());
        assert!(!ix.supports_range());

        let mut ix = Index::BTree(BTreeIndex::new());
        ix.insert(Value::Int(1), 7);
        assert!(ix.supports_range());
        let all = ix.lookup_range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.collect::<Vec<_>>(), vec![7]);
    }

    /// The group the tests below fill.
    const G: u64 = 7;

    /// Row `r` carries the key `keys[r]`; the row id breaks ties, as the
    /// commit sequence does in a table.
    fn ordered_of(keys: &[i64]) -> OrderedIndex {
        let mut ix = OrderedIndex::new();
        for (row, key) in keys.iter().enumerate() {
            let to_new = |r: RowId| (keys[r as usize], r).cmp(&(*key, row as RowId));
            // A prefix that ties often, as eight bytes of a string would.
            ix.insert(G, row as RowId, key / 2, to_new);
        }
        ix
    }

    #[test]
    fn ordered_index_pushes_in_order_arrivals() {
        let ix = ordered_of(&[1, 2, 2, 5]);
        assert_eq!(ix.rows(G), &[0, 1, 2, 3]);
        assert!(ix.rows(G + 1).is_empty());
        let group = ix.group(G).unwrap();
        assert_eq!((group.end_prefix(false), group.end_prefix(true)), (0, 2));
    }

    #[test]
    fn ordered_index_places_late_rows_by_key_then_arrival() {
        // Row 3 (key 2) arrives after row 2 (key 9): it goes behind the
        // earlier key-2 row, in front of the 9. Row 4 goes to the front.
        let ix = ordered_of(&[1, 2, 9, 2, 0]);
        assert_eq!(ix.rows(G), &[4, 0, 1, 3, 2]);
        let group = ix.group(G).unwrap();
        assert_eq!((group.end_prefix(false), group.end_prefix(true)), (0, 4));
    }

    #[test]
    fn ordered_index_keeps_groups_apart() {
        let hasher = GroupHasher::default();
        let (a, b) = (hasher.key(&Value::from("a")), hasher.key(&Value::from("b")));
        assert_eq!(a, hasher.key(&Value::from("a")));
        assert_ne!(a, b);
        let mut ix = OrderedIndex::new();
        ix.insert(a, 0, 7, |_| unreachable!("first of its group"));
        ix.insert(b, 1, 7, |_| unreachable!("first of its group"));
        ix.insert(a, 2, 8, |_| unreachable!("the prefix decides"));
        assert_eq!(ix.rows(a), &[0, 2]);
        assert_eq!(ix.rows(b), &[1]);
    }
}
