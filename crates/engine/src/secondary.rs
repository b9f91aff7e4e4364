//! Non-clustered secondary indexes.
//!
//! A secondary index maps an `Int` column's value to the set of primary
//! keys holding it, stored as a B+tree whose payloads are sorted lists of
//! primary keys. It is maintained transparently by every DML path (and
//! bulk load), and read through [`crate::db::Database::index_lookup`] or a
//! SQL `WHERE <indexed column> = ?` predicate.
//!
//! The payload representation bounds the number of rows per indexed value
//! (a slotted-page payload is at most 1 KiB ≈ 120 keys). That comfortably
//! covers the workload's shapes — an order has ~10 orderlines — and the
//! bound is enforced loudly rather than silently degrading.

use cb_store::PageStore;

use crate::btree::{BTree, PageSink, Uncharged};

/// Maximum primary keys per indexed value (payload-size bound).
pub(crate) const MAX_KEYS_PER_VALUE: usize = 120;

/// A secondary index over one `Int` column.
#[derive(Clone)]
pub struct SecondaryIndex {
    column: usize,
    tree: BTree,
}

fn decode_pks(payload: &[u8]) -> Vec<i64> {
    payload
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn encode_pks(pks: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pks.len() * 8);
    for pk in pks {
        out.extend_from_slice(&pk.to_le_bytes());
    }
    out
}

impl SecondaryIndex {
    /// An empty index over column `column`.
    pub fn create(store: &mut PageStore, column: usize) -> Self {
        SecondaryIndex {
            column,
            tree: BTree::create(store),
        }
    }

    /// The indexed column.
    pub(crate) fn column(&self) -> usize {
        self.column
    }

    /// Register `pk` under `value`.
    pub fn add(&mut self, store: &mut PageStore, value: i64, pk: i64, alog: &mut impl PageSink) {
        // Decode the posting list to owned keys first: the borrowed payload
        // must be released before the tree (hence the store) is mutated.
        match self.tree.get(store, value, alog).map(decode_pks) {
            None => {
                self.tree
                    .insert(store, value, &encode_pks(&[pk]), alog)
                    .expect("value was absent");
            }
            Some(mut pks) => {
                match pks.binary_search(&pk) {
                    Ok(_) => panic!("duplicate (value {value}, pk {pk}) in secondary index"),
                    Err(pos) => pks.insert(pos, pk),
                }
                assert!(
                    pks.len() <= MAX_KEYS_PER_VALUE,
                    "secondary index overflow: value {value} has more than \
                     {MAX_KEYS_PER_VALUE} rows"
                );
                let updated = self.tree.update(store, value, &encode_pks(&pks), alog);
                debug_assert!(updated);
            }
        }
    }

    /// Remove `pk` from `value`'s posting list.
    pub fn remove(&mut self, store: &mut PageStore, value: i64, pk: i64, alog: &mut impl PageSink) {
        let mut pks = decode_pks(
            self.tree
                .get(store, value, alog)
                .unwrap_or_else(|| panic!("secondary index missing value {value}")),
        );
        let pos = pks
            .binary_search(&pk)
            .unwrap_or_else(|_| panic!("secondary index missing pk {pk} under {value}"));
        pks.remove(pos);
        if pks.is_empty() {
            self.tree.delete(store, value, alog);
        } else {
            let updated = self.tree.update(store, value, &encode_pks(&pks), alog);
            debug_assert!(updated);
        }
    }

    /// All primary keys registered under `value`, ascending.
    pub fn lookup(&self, store: &PageStore, value: i64, alog: &mut impl PageSink) -> Vec<i64> {
        self.tree
            .get(store, value, alog)
            .map(decode_pks)
            .unwrap_or_default()
    }

    /// Number of distinct indexed values (O(n) scan; diagnostics).
    pub fn distinct_values(&self, store: &PageStore) -> u64 {
        self.tree.count(store, &mut Uncharged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::AccessLog;

    fn setup() -> (PageStore, SecondaryIndex, AccessLog) {
        let mut store = PageStore::new();
        let idx = SecondaryIndex::create(&mut store, 1);
        (store, idx, AccessLog::new())
    }

    #[test]
    fn add_lookup_remove_cycle() {
        let (mut store, mut idx, mut alog) = setup();
        idx.add(&mut store, 10, 100, &mut alog);
        idx.add(&mut store, 10, 50, &mut alog);
        idx.add(&mut store, 20, 77, &mut alog);
        assert_eq!(idx.lookup(&store, 10, &mut alog), vec![50, 100]);
        assert_eq!(idx.lookup(&store, 20, &mut alog), vec![77]);
        assert_eq!(idx.lookup(&store, 99, &mut alog), Vec::<i64>::new());
        idx.remove(&mut store, 10, 100, &mut alog);
        assert_eq!(idx.lookup(&store, 10, &mut alog), vec![50]);
        idx.remove(&mut store, 10, 50, &mut alog);
        assert_eq!(idx.lookup(&store, 10, &mut alog), Vec::<i64>::new());
        assert_eq!(idx.distinct_values(&store), 1);
    }

    #[test]
    fn posting_lists_stay_sorted() {
        let (mut store, mut idx, mut alog) = setup();
        for pk in [9, 3, 7, 1, 5] {
            idx.add(&mut store, 42, pk, &mut alog);
        }
        assert_eq!(idx.lookup(&store, 42, &mut alog), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_pk_panics() {
        let (mut store, mut idx, mut alog) = setup();
        idx.add(&mut store, 1, 1, &mut alog);
        idx.add(&mut store, 1, 1, &mut alog);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_is_loud() {
        let (mut store, mut idx, mut alog) = setup();
        for pk in 0..=MAX_KEYS_PER_VALUE as i64 {
            idx.add(&mut store, 7, pk, &mut alog);
        }
    }

    #[test]
    fn many_values_split_pages() {
        let (mut store, mut idx, mut alog) = setup();
        for v in 0..20_000i64 {
            idx.add(&mut store, v, v * 10, &mut alog);
        }
        assert_eq!(idx.lookup(&store, 12_345, &mut alog), vec![123_450]);
        assert_eq!(idx.distinct_values(&store), 20_000);
    }
}
