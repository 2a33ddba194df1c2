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
use std::collections::hash_map::RandomState;
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

/// One row of an [`OrderedIndex`] group, with its place in `order_by`'s
/// total order on the order column: `Null` first, then the value, then
/// the commit sequence. The place is exact on its own — no row is read to
/// compare two entries — which is why an order column must be one whose
/// [`Value::order_prefix`] is the whole value (not `str`, not `bytes`).
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    present: bool,
    order: i64,
    seq: u64,
    pub row: RowId,
}

impl Entry {
    /// The entry of row `row`, committed at `seq`, whose order column holds
    /// `order`.
    pub fn new(order: &Value, seq: u64, row: RowId) -> Self {
        Entry {
            present: !order.is_null(),
            order: order.order_prefix(),
            seq,
            row,
        }
    }

    fn key(&self) -> (bool, i64, u64) {
        (self.present, self.order, self.seq)
    }
}

/// Rows grouped by one column's value, each group sorted by another
/// column's value and then by commit sequence (see
/// [`crate::schema::OrderedIndexDef`]). One per declared index per table:
/// a group holds the table's rows of its value whatever stripe they live
/// in, each as an [`Entry`] that carries its own sort key.
///
/// Groups are keyed by a 64-bit keyed hash of their value
/// ([`GroupHasher`]), not by a copy of it: an insert allocates no key and
/// a probe compares no string. Two values whose hashes collide would share
/// a group; that is allowed, because the executor evaluates every
/// constraint — the equality this index serves included — on every row it
/// visits, so a shared group costs rows read and rejected, never a wrong
/// answer.
#[derive(Debug, Default)]
pub struct OrderedIndex {
    groups: HashMap<u64, Vec<Entry>>,
}

/// Hashes group values to [`OrderedIndex`] keys; one per table, shared by
/// its ordered indexes. Randomly keyed, like the maps of the other indexes.
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

    /// The group `key`, ascending.
    pub fn group(&self, key: u64) -> &[Entry] {
        self.groups.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Add `entry` to the group `key`. Entries mostly arrive in order
    /// (`created` only grows, and commits are applied about in sequence),
    /// which makes this a probe and a push; a late one is placed by binary
    /// search over the entries' keys.
    pub fn insert(&mut self, key: u64, entry: Entry) {
        let group = self.groups.entry(key).or_default();
        match group.last() {
            Some(last) if last.key() > entry.key() => {
                let at = group.partition_point(|e| e.key() < entry.key());
                group.insert(at, entry);
            }
            _ => group.push(entry),
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

    /// Row `r` has the order value `values[r]` and commits at `seqs[r]`.
    fn ordered_of(values: &[Value], seqs: &[u64]) -> OrderedIndex {
        let mut ix = OrderedIndex::new();
        for (row, (value, seq)) in values.iter().zip(seqs).enumerate() {
            ix.insert(G, Entry::new(value, *seq, row as RowId));
        }
        ix
    }

    fn rows(ix: &OrderedIndex, key: u64) -> Vec<RowId> {
        ix.group(key).iter().map(|e| e.row).collect()
    }

    #[test]
    fn ordered_index_pushes_in_order_arrivals() {
        let values = [1, 2, 2, 5].map(Value::Int);
        let ix = ordered_of(&values, &[1, 2, 3, 4]);
        assert_eq!(rows(&ix, G), [0, 1, 2, 3]);
        assert!(ix.group(G + 1).is_empty());
    }

    #[test]
    fn ordered_index_places_late_rows_by_value_then_sequence() {
        // Row 3 (value 2) arrives after row 2 (value 9): it goes behind the
        // earlier value-2 row, in front of the 9. Row 4 goes to the front.
        let values = [1, 2, 9, 2, 0].map(Value::Int);
        let ix = ordered_of(&values, &[1, 2, 3, 4, 5]);
        assert_eq!(rows(&ix, G), [4, 0, 1, 3, 2]);
        // Applies that reach the group out of sequence order: row 1
        // committed first, so it goes first among equal values.
        let ix = ordered_of(&[Value::Int(3), Value::Int(3)], &[8, 7]);
        assert_eq!(rows(&ix, G), [1, 0]);
    }

    #[test]
    fn ordered_index_sorts_null_first_and_floats_by_total_order() {
        // `Null`'s prefix is the most negative NaN's: the entry tells them
        // apart, as the sort path does.
        let nan = f64::from_bits(u64::MAX);
        assert_eq!(Value::Float(nan).order_prefix(), Value::Null.order_prefix());
        let values = [
            Value::Float(nan),
            Value::Float(0.0),
            Value::Null,
            Value::Float(-0.0),
            Value::Float(f64::NEG_INFINITY),
        ];
        let ix = ordered_of(&values, &[1, 2, 3, 4, 5]);
        assert_eq!(rows(&ix, G), [2, 0, 4, 3, 1]);
        let mut sorted: Vec<RowId> = (0..5).collect();
        sorted.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
        assert_eq!(rows(&ix, G), sorted);
    }

    #[test]
    fn ordered_index_keeps_groups_apart() {
        let hasher = GroupHasher::default();
        let (a, b) = (hasher.key(&Value::from("a")), hasher.key(&Value::from("b")));
        assert_eq!(a, hasher.key(&Value::from("a")));
        assert_ne!(a, b);
        let mut ix = OrderedIndex::new();
        ix.insert(a, Entry::new(&Value::Int(7), 1, 0));
        ix.insert(b, Entry::new(&Value::Int(7), 2, 1));
        ix.insert(a, Entry::new(&Value::Int(8), 3, 2));
        assert_eq!(rows(&ix, a), [0, 2]);
        assert_eq!(rows(&ix, b), [1]);
    }
}
