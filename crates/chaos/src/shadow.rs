//! The shadow model: a trivially-correct replica of committed state.
//!
//! The harness mirrors every transaction it runs into staged [`ShadowOp`]s
//! and applies them to plain `BTreeMap`s only when the engine acknowledges
//! the commit. After recovery, the real `Database` must agree with the
//! shadow exactly — any divergence is classified by direction: a row the
//! shadow has but the database lost is a **durability** violation (acked
//! work vanished), a row the database has but the shadow doesn't is an
//! **atomicity** violation (loser effect survived), and a row present on
//! both sides with different bytes is an **equivalence** violation.
//!
//! The shadow holds every row as its encoded image. The encoding is
//! canonical — a count byte, then per value a tag and a payload the value
//! alone determines, with a schema capped at 255 columns — so a byte
//! comparison of two images is exactly a comparison of their rows.

use std::collections::BTreeMap;

use cb_engine::{Database, RowRef};
use cb_store::TableId;

/// One mirrored effect of a transaction, staged until commit-ack.
#[derive(Clone, Debug)]
pub(crate) enum ShadowOp {
    /// Insert or overwrite the row at `key` with this encoded image.
    Put(TableId, i64, Vec<u8>),
    /// Remove the row at `key`.
    Delete(TableId, i64),
}

/// Where a database diverged from the shadow.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShadowDiff {
    /// Keys the shadow holds but the database lost: `(table, key)`.
    pub missing: Vec<(String, i64)>,
    /// Keys the database holds but the shadow doesn't.
    pub extra: Vec<(String, i64)>,
    /// Keys present on both sides with different row bytes.
    pub mismatched: Vec<(String, i64)>,
}

impl ShadowDiff {
    /// True when the database matches the shadow exactly.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty() && self.mismatched.is_empty()
    }

    /// A short human-readable summary (first few divergences per class).
    pub fn summary(&self) -> String {
        fn head(label: &str, xs: &[(String, i64)]) -> String {
            if xs.is_empty() {
                return String::new();
            }
            let shown: Vec<String> = xs
                .iter()
                .take(3)
                .map(|(t, k)| format!("{t}[{k}]"))
                .collect();
            let more = if xs.len() > 3 {
                format!(" (+{} more)", xs.len() - 3)
            } else {
                String::new()
            };
            format!("{label}: {}{more}; ", shown.join(", "))
        }
        let mut s = String::new();
        s.push_str(&head("missing", &self.missing));
        s.push_str(&head("extra", &self.extra));
        s.push_str(&head("mismatched", &self.mismatched));
        s.trim_end_matches("; ").to_string()
    }
}

/// Committed state mirrored per table as `key -> row image`.
pub struct ShadowModel {
    tables: Vec<(String, TableId, BTreeMap<i64, Vec<u8>>)>,
}

impl ShadowModel {
    /// Snapshot the current (fully committed) state of `db`.
    pub fn from_db(db: &Database) -> Self {
        let tables = db
            .tables()
            .iter()
            .map(|t| {
                let mut rows = Vec::with_capacity(t.rows() as usize);
                db.for_each_row(t.id(), |key, row| rows.push((key, row.image().to_vec())));
                (t.name().to_string(), t.id(), BTreeMap::from_iter(rows))
            })
            .collect();
        ShadowModel { tables }
    }

    fn table_mut(&mut self, id: TableId) -> &mut BTreeMap<i64, Vec<u8>> {
        &mut self.tables[id.0 as usize].2
    }

    /// Apply one committed effect.
    pub(crate) fn apply(&mut self, op: ShadowOp) {
        match op {
            ShadowOp::Put(t, key, image) => {
                self.table_mut(t).insert(key, image);
            }
            ShadowOp::Delete(t, key) => {
                self.table_mut(t).remove(&key);
            }
        }
    }

    /// The committed (acknowledged) image of one row, if present. The
    /// snapshot-consistency oracle compares MVCC snapshot reads against
    /// this: a snapshot taken now must see exactly the acked state, never
    /// a commit whose ack is still pending in an open group-commit batch.
    pub(crate) fn get(&self, table: TableId, key: i64) -> Option<RowRef<'_>> {
        self.tables[table.0 as usize]
            .2
            .get(&key)
            .map(|image| RowRef::new(image))
    }

    /// The acked row images of `table` in `[lo, hi]`, in key order. The
    /// scan branch of the snapshot-consistency oracle compares an MVCC
    /// snapshot range scan against this window.
    pub(crate) fn range(
        &self,
        table: TableId,
        lo: i64,
        hi: i64,
    ) -> impl Iterator<Item = (i64, &[u8])> {
        self.tables[table.0 as usize]
            .2
            .range(lo..=hi)
            .map(|(&k, image)| (k, image.as_slice()))
    }

    /// Total rows across all tables.
    pub fn rows(&self) -> usize {
        self.tables.iter().map(|(_, _, m)| m.len()).sum()
    }

    /// Compare `db` against the shadow, classifying every divergence: one
    /// merge-walk per table of the model's images against the database's
    /// latest images, both in key order. Every row of both sides is
    /// compared on every call, byte for byte; the images stay on their
    /// pages, so a database that agrees costs the walk and nothing else.
    pub fn diff(&self, db: &Database) -> ShadowDiff {
        let mut d = ShadowDiff::default();
        for (name, id, model) in &self.tables {
            let mut expected = model.iter().peekable();
            db.for_each_row(*id, |key, actual| {
                while let Some((&k, _)) = expected.next_if(|(&k, _)| k < key) {
                    d.missing.push((name.clone(), k));
                }
                match expected.next_if(|(&k, _)| k == key) {
                    Some((_, image)) if actual.image() == image.as_slice() => {}
                    Some(_) => d.mismatched.push((name.clone(), key)),
                    None => d.extra.push((name.clone(), key)),
                }
            });
            d.missing.extend(expected.map(|(&k, _)| (name.clone(), k)));
        }
        d
    }

    /// The dump-and-look-up comparison [`ShadowModel::diff`] replaced, kept
    /// as the reference the merge-walk is tested against. It compares owned
    /// rows value by value, which holds the byte comparison to the value
    /// comparison.
    #[cfg(test)]
    fn diff_reference(&self, db: &Database) -> ShadowDiff {
        use cb_engine::Row;
        let mut d = ShadowDiff::default();
        for (name, id, model) in &self.tables {
            let actual: BTreeMap<i64, Row> = db
                .dump_table(*id)
                .into_iter()
                .map(|r| (r.key(), r))
                .collect();
            for (k, image) in model {
                match actual.get(k) {
                    None => d.missing.push((name.clone(), *k)),
                    Some(r) if *r != Row::decode(image) => d.mismatched.push((name.clone(), *k)),
                    Some(_) => {}
                }
            }
            for k in actual.keys() {
                if !model.contains_key(k) {
                    d.extra.push((name.clone(), *k));
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{ColumnDef, DataType, Row, Schema, Value};
    use proptest::prelude::*;

    fn db_with_rows() -> Database {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("V", DataType::Int),
            ]),
        );
        db.load_bulk(
            t,
            (1..=3).map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 10)])),
        );
        db
    }

    #[test]
    fn snapshot_matches_itself() {
        let db = db_with_rows();
        let shadow = ShadowModel::from_db(&db);
        assert_eq!(shadow.rows(), 3);
        assert!(shadow.diff(&db).is_empty());
    }

    #[test]
    fn diff_classifies_by_direction() {
        let db = db_with_rows();
        let t = db.table_id("t").unwrap();
        let mut shadow = ShadowModel::from_db(&db);
        // Shadow thinks key 4 was committed (db lost it) => durability.
        shadow.apply(ShadowOp::Put(
            t,
            4,
            Row::new(vec![Value::Int(4), Value::Int(40)]).encode(),
        ));
        // Shadow thinks key 1 was deleted (db kept it) => atomicity.
        shadow.apply(ShadowOp::Delete(t, 1));
        // Shadow thinks key 2 has a different value => equivalence.
        shadow.apply(ShadowOp::Put(
            t,
            2,
            Row::new(vec![Value::Int(2), Value::Int(-2)]).encode(),
        ));
        let d = shadow.diff(&db);
        assert_eq!(d.missing, vec![("t".to_string(), 4)]);
        assert_eq!(d.extra, vec![("t".to_string(), 1)]);
        assert_eq!(d.mismatched, vec![("t".to_string(), 2)]);
        let s = d.summary();
        assert!(s.contains("missing: t[4]"), "{s}");
        assert!(s.contains("extra: t[1]"), "{s}");
    }

    /// How one key of the property below sits on the two sides; 0 and 1
    /// are the same row on both.
    const DB_ONLY: u8 = 2;
    const MODEL_ONLY: u8 = 3;
    const OTHER_VALUE: u8 = 4;
    const OTHER_TYPE: u8 = 5;
    const OTHER_ARITY: u8 = 6;
    const OTHER_TEXT: u8 = 7;
    const OTHER_TEXT_LEN: u8 = 8;

    /// The text column of key `k`: one to five bytes, so neighbouring rows
    /// differ in length.
    fn text_of(k: i64) -> String {
        "t".repeat(1 + k.rem_euclid(5) as usize)
    }

    proptest! {
        /// The merge-walk reports exactly what the dump-and-look-up
        /// comparison does, element order included. Keys come from a range
        /// small enough that every class of divergence lands on the first,
        /// a middle and the last key of either table, runs of them sit next
        /// to each other, and `empty` wipes one side of one table. The text
        /// column's length varies per key, and a text divergence keeps or
        /// changes that length.
        #[test]
        fn merge_walk_diff_equals_the_reference(
            a in prop::collection::vec((0i64..24, 0u8..9), 0..30),
            b in prop::collection::vec((0i64..24, 0u8..9), 0..30),
            empty in 0u8..8,
        ) {
            let schema = || Schema::new(vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("V", DataType::Int),
                ColumnDef::new("S", DataType::Text),
            ]);
            let mut db = Database::new();
            let tables = [db.create_table("a", schema()), db.create_table("b", schema())];
            let mut shadow = ShadowModel::from_db(&db);
            for (i, (t, cells)) in tables.into_iter().zip([a, b]).enumerate() {
                let (no_db, no_model) = (empty == 2 * i as u8 + 1, empty == 2 * i as u8 + 2);
                // The last draw of a key decides its state.
                let cells: BTreeMap<i64, u8> = cells.into_iter().collect();
                db.load_bulk(
                    t,
                    cells
                        .iter()
                        .filter(|&(_, &state)| state != MODEL_ONLY && !no_db)
                        .map(|(&k, _)| Row::new(vec![
                            Value::Int(k),
                            Value::Int(k * 10),
                            Value::Text(text_of(k)),
                        ])),
                );
                for (&k, &state) in cells.iter().filter(|_| !no_model) {
                    let mut text = text_of(k);
                    match state {
                        OTHER_TEXT => text.replace_range(..1, "u"),
                        OTHER_TEXT_LEN => text.push('t'),
                        _ => {}
                    }
                    let mut values = vec![Value::Int(k), Value::Int(k * 10), Value::Text(text)];
                    match state {
                        DB_ONLY => continue,
                        OTHER_VALUE => values[1] = Value::Int(-1),
                        OTHER_TYPE => values[1] = Value::Timestamp(k * 10),
                        OTHER_ARITY => values.push(Value::Int(0)),
                        _ => {}
                    }
                    shadow.apply(ShadowOp::Put(t, k, Row::new(values).encode()));
                }
            }
            prop_assert_eq!(shadow.diff(&db), shadow.diff_reference(&db));
        }
    }
}
