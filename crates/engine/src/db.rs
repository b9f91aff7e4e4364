//! The database facade: tables, transactions, WAL, checkpoints.
//!
//! A [`Database`] owns the canonical durable state of one cluster — page
//! store, log store, catalog — while per-node concerns (buffer pools, CPU)
//! are passed in through an [`ExecCtx`] per operation. Transactions follow
//! strict WAL discipline: every DML appends a logical record with before/
//! after images at operation time, commit appends a commit record and pays
//! the durable log append, abort applies undo images in reverse.
//!
//! Cost accounting is charge-as-you-walk: the context is the
//! [`crate::btree::PageSink`] the trees report to, so a page is charged to
//! the buffer pool at the moment the tree touches it. Work that nobody is
//! billed for (bulk load, index back-fill, oracles, recovery) passes
//! [`Uncharged`] instead.

use cb_sim::SimTime;
use cb_store::{LogStore, Lsn, PageStore, StorageService, TableId, TxnId, WalOp};

use crate::btree::{BTree, BatchIngest, PageSink, Uncharged};
use crate::bufferpool::BufferPool;
use crate::exec::ExecCtx;
use crate::inline::InlineVec;
use crate::locks::{LockTable, RowKey};
use crate::mvcc::{VersionStore, Visibility};
use crate::secondary::SecondaryIndex;
use crate::value::{encode_values_into, Row, RowRef, Schema, SchemaError, Value};

/// Engine-level errors surfaced to the benchmark driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Insert of an existing primary key.
    Duplicate {
        /// Target table.
        table: TableId,
        /// Conflicting key.
        key: i64,
    },
    /// Row violates the table schema.
    Schema(SchemaError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Duplicate { table, key } => {
                write!(f, "duplicate key {key} in table {table:?}")
            }
            EngineError::Schema(e) => write!(f, "schema violation: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Schema(e)
    }
}

/// One table: schema + clustered B+tree + counters + secondary indexes.
#[derive(Clone)]
pub struct TableMeta {
    id: TableId,
    name: String,
    schema: Schema,
    tree: BTree,
    secondaries: Vec<SecondaryIndex>,
    /// Next auto-assigned key for `DEFAULT` inserts.
    auto_key: i64,
    rows: u64,
}

impl TableMeta {
    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The key the next `DEFAULT` insert will receive.
    pub fn next_auto_key(&self) -> i64 {
        self.auto_key
    }

    /// Columns covered by a secondary index.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.secondaries.iter().map(|s| s.column()).collect()
    }

    /// True if `column` has a secondary index.
    pub fn has_index(&self, column: usize) -> bool {
        self.secondaries.iter().any(|s| s.column() == column)
    }
}

/// The row keys a transaction wrote, one per DML. The paper's point
/// transactions write at most two rows, so the set lives inline.
pub type WriteSet = InlineVec<RowKey, 4>;

/// The LSNs of a transaction's DML records, aligned with its [`WriteSet`].
/// The records themselves stay in the WAL — abort and version publication
/// read them back — which holds because nothing truncates the log under an
/// open transaction: checkpoints run between transactions and keep at least
/// the tail since the previous checkpoint.
pub type UndoLsns = InlineVec<Lsn, 4>;

/// An open transaction: its undo log and write set.
pub struct TxnHandle {
    id: TxnId,
    /// Row keys written (for lock registration by the driver).
    writes: WriteSet,
    /// DML records to undo, applied in reverse on abort.
    undo: UndoLsns,
    /// Bytes of WAL generated (paid as one durable append at commit).
    wal_bytes: u64,
    begun: bool,
    finished: bool,
}

impl TxnHandle {
    /// Transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Row keys written so far.
    pub fn writes(&self) -> &[RowKey] {
        &self.writes
    }

    /// WAL bytes generated so far.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }
}

/// The outcome of a commit, for the driver to finish bookkeeping.
pub struct Committed {
    /// LSN of the commit record.
    pub lsn: Lsn,
    /// Row keys to lock until the commit's virtual completion time.
    pub writes: WriteSet,
    /// Where the transaction's DML records sit in the WAL, so the driver
    /// can publish version-chain pre-images once it knows the commit's
    /// virtual completion time (see [`Database::publish_versions`]).
    pub undo: UndoLsns,
}

/// The canonical database of one simulated cluster.
///
/// `Clone` is a deep copy — pages, log, locks, version chains, counters —
/// and the two copies share nothing afterwards: a clone taken before the
/// first transaction is the backup that crash recovery restores.
#[derive(Clone)]
pub struct Database {
    pages: PageStore,
    log: LogStore,
    locks: LockTable,
    versions: VersionStore,
    tables: Vec<TableMeta>,
    next_txn: u64,
    last_checkpoint: Lsn,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            pages: PageStore::new(),
            log: LogStore::new(),
            locks: LockTable::new(),
            versions: VersionStore::new(),
            tables: Vec::new(),
            next_txn: 1,
            last_checkpoint: Lsn::ZERO,
        }
    }

    /// Create a table; returns its id. Names must be unique.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> TableId {
        assert!(self.table_id(name).is_none(), "table {name} already exists");
        let id = TableId(self.tables.len() as u16);
        let tree = BTree::create(&mut self.pages);
        self.tables.push(TableMeta {
            id,
            name: name.to_string(),
            schema,
            tree,
            secondaries: Vec::new(),
            auto_key: 1,
            rows: 0,
        });
        id
    }

    /// Look up a table id by name (case-insensitive).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
            .map(|t| t.id)
    }

    /// Table metadata.
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.0 as usize]
    }

    /// All tables.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// The lock table (driver-managed virtual-time 2PL).
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// The version overlay (snapshot reads, chain stats).
    pub fn versions(&self) -> &VersionStore {
        &self.versions
    }

    /// Mutable version-overlay access (GC, tests).
    pub fn versions_mut(&mut self) -> &mut VersionStore {
        &mut self.versions
    }

    /// The WAL.
    pub fn log(&self) -> &LogStore {
        &self.log
    }

    /// Mutable WAL access (cluster-level truncation).
    pub fn log_mut(&mut self) -> &mut LogStore {
        &mut self.log
    }

    /// The page store (size accounting, recovery).
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// LSN of the last checkpoint.
    pub fn last_checkpoint(&self) -> Lsn {
        self.last_checkpoint
    }

    /// Create a secondary index over an `Int` column (not the primary key),
    /// back-filling it from existing rows. Panics on misuse — index
    /// declarations are programmer decisions, not user input.
    pub fn create_index(&mut self, table: TableId, column: &str) {
        let t = &mut self.tables[table.0 as usize];
        let col = t
            .schema
            .column_index(column)
            .unwrap_or_else(|| panic!("no column {column} in table {}", t.name));
        assert!(col != 0, "the primary key is already the clustered index");
        assert_eq!(
            t.schema.columns()[col].ty,
            crate::value::DataType::Int,
            "secondary indexes cover Int columns"
        );
        assert!(!t.has_index(col), "column {column} is already indexed");
        let mut idx = SecondaryIndex::create(&mut self.pages, col);
        // Back-fill from the clustered tree.
        let mut entries = Vec::new();
        t.tree.scan_range(
            &self.pages,
            i64::MIN,
            i64::MAX,
            &mut Uncharged,
            |pk, img| {
                entries.push((RowRef::new(img).int(col), pk));
                true
            },
        );
        for (value, pk) in entries {
            idx.add(&mut self.pages, value, pk, &mut Uncharged);
        }
        t.secondaries.push(idx);
    }

    fn index_add(
        pages: &mut PageStore,
        t: &mut TableMeta,
        row: RowRef<'_>,
        pk: i64,
        sink: &mut impl PageSink,
    ) {
        for idx in &mut t.secondaries {
            idx.add(pages, row.int(idx.column()), pk, sink);
        }
    }

    fn index_remove(
        pages: &mut PageStore,
        t: &mut TableMeta,
        row: RowRef<'_>,
        pk: i64,
        sink: &mut impl PageSink,
    ) {
        for idx in &mut t.secondaries {
            idx.remove(pages, row.int(idx.column()), pk, sink);
        }
    }

    fn index_transition(
        pages: &mut PageStore,
        t: &mut TableMeta,
        before: RowRef<'_>,
        after: RowRef<'_>,
        pk: i64,
        sink: &mut impl PageSink,
    ) {
        for idx in &mut t.secondaries {
            let col = idx.column();
            let old = before.int(col);
            let new = after.int(col);
            if old != new {
                idx.remove(pages, old, pk, sink);
                idx.add(pages, new, pk, sink);
            }
        }
    }

    /// Fetch all rows whose indexed `column` equals `value`, in primary-key
    /// order, charging `ctx` for the index probe and each row fetch.
    pub fn index_lookup(
        &self,
        ctx: &mut ExecCtx<'_>,
        table: TableId,
        column: usize,
        value: i64,
    ) -> Vec<Row> {
        let t = &self.tables[table.0 as usize];
        let idx = t
            .secondaries
            .iter()
            .find(|s| s.column() == column)
            .unwrap_or_else(|| panic!("column {column} of {} is not indexed", t.name));
        ctx.charge_stmt();
        let pks = idx.lookup(&self.pages, value, ctx);
        let mut rows = Vec::with_capacity(pks.len());
        for pk in pks {
            if let Some(img) = t.tree.get(&self.pages, pk, ctx) {
                rows.push(Row::decode(img));
            }
        }
        ctx.charge_rows(rows.len() as u64);
        rows
    }

    /// Begin a transaction. The `Begin` WAL record is written lazily before
    /// the first DML so read-only transactions leave no trace in the log.
    pub fn begin(&mut self) -> TxnHandle {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        TxnHandle {
            id,
            writes: WriteSet::new(),
            undo: UndoLsns::new(),
            wal_bytes: 0,
            begun: false,
            finished: false,
        }
    }

    fn ensure_begun(&mut self, txn: &mut TxnHandle) {
        if !txn.begun {
            txn.begun = true;
            let lsn = self.log.append(txn.id, WalOp::Begin);
            txn.wal_bytes += self.log.get(lsn).expect("just appended").approx_bytes();
        }
    }

    /// Append one DML record for `txn` and remember where it sits.
    fn log_dml(&mut self, txn: &mut TxnHandle, row: RowKey, op: WalOp) {
        let lsn = self.log.append(txn.id, op);
        txn.wal_bytes += self.log.get(lsn).expect("just appended").approx_bytes();
        txn.writes.push(row);
        txn.undo.push(lsn);
    }

    /// Bulk-load rows without WAL or cost accounting (initial data
    /// generation — the paper's "data generator" phase is not measured).
    /// A row is anything that lends its values as a slice: a [`Row`], or an
    /// array a generator fills without a heap `Vec`.
    pub fn load_bulk<R: AsRef<[Value]>>(
        &mut self,
        table: TableId,
        rows: impl IntoIterator<Item = R>,
    ) -> u64 {
        // One scratch image buffer for the whole load: dataset generation
        // encodes millions of rows, and this loop is its only allocation-free
        // path (Value::encode_into appends; no per-row Vec). The ingest
        // cursor makes the (typically ascending-key) generated stream skip
        // the per-row root-to-leaf descent.
        let mut image = Vec::new();
        let mut cur = BatchIngest::new();
        let mut n = 0u64;
        for row in rows {
            self.load_row(table, row.as_ref(), &mut image, &mut cur);
            n += 1;
        }
        n
    }

    /// One row of [`load_bulk`](Self::load_bulk): check, encode, append,
    /// count. Not generic, so it is compiled once, here, whatever the
    /// caller's rows are; only the loop above is instantiated in the
    /// calling crate, and load speed does not hang on where that lands.
    fn load_row(
        &mut self,
        table: TableId,
        values: &[Value],
        image: &mut Vec<u8>,
        cur: &mut BatchIngest,
    ) {
        let t = &mut self.tables[table.0 as usize];
        t.schema
            .validate_values(values)
            .expect("bulk rows must fit schema");
        let key = values[0].expect_int();
        image.clear();
        encode_values_into(values, image);
        t.tree
            .insert_sorted(&mut self.pages, cur, key, image, &mut Uncharged)
            .expect("bulk load keys must be unique");
        Self::index_add(&mut self.pages, t, RowRef::new(image), key, &mut Uncharged);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
    }

    /// Insert `row` with an explicit key (column 0).
    pub fn insert(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        row: Row,
    ) -> Result<i64, EngineError> {
        self.tables[table.0 as usize].schema.validate(&row)?;
        self.insert_image(ctx, txn, table, row.key(), row.encode())
    }

    /// Insert a row given as its encoded image, which the caller has
    /// already checked against the schema and which becomes the WAL
    /// record's image as it is — the one allocation an insert needs.
    pub(crate) fn insert_image(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        key: i64,
        image: Vec<u8>,
    ) -> Result<i64, EngineError> {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let t = &mut self.tables[table.0 as usize];
        ctx.charge_stmt();
        if t.tree.insert(&mut self.pages, key, &image, ctx).is_err() {
            return Err(EngineError::Duplicate { table, key });
        }
        Self::index_add(&mut self.pages, t, RowRef::new(&image), key, ctx);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
        ctx.charge_rows(1);
        let op = WalOp::Insert {
            table,
            key,
            row: image,
        };
        self.log_dml(txn, (table, key), op);
        Ok(key)
    }

    /// Insert with an auto-assigned key (`INSERT ... VALUES (DEFAULT, ...)`);
    /// `rest` are the non-key columns.
    pub fn insert_auto(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        rest: Vec<Value>,
    ) -> Result<i64, EngineError> {
        let key = self.tables[table.0 as usize].auto_key;
        let mut values = Vec::with_capacity(rest.len() + 1);
        values.push(Value::Int(key));
        values.extend(rest);
        self.insert(ctx, txn, table, Row::new(values))
    }

    /// Point lookup. Under a versioned isolation level the read resolves
    /// against the snapshot at `ctx.now`: the common case (the row's latest
    /// image committed at-or-before the snapshot) is one overlay probe and
    /// then the unchanged zero-copy tree path; otherwise the in-memory
    /// version chain serves the historical image directly — no page
    /// traffic, no lock-table contact, never blocking. READ COMMITTED
    /// bypasses the overlay entirely and is bit-identical to the
    /// single-version engine. Either way the row comes back as a view
    /// borrowed from the page or the chain; callers that keep it call
    /// [`RowRef::to_row`].
    pub fn get(&self, ctx: &mut ExecCtx<'_>, table: TableId, key: i64) -> Option<RowRef<'_>> {
        if ctx.isolation.is_versioned() {
            match self.versions.visible((table, key), ctx.now) {
                Visibility::Latest => {}
                Visibility::Image(img) => {
                    ctx.charge_stmt();
                    ctx.charge_rows(1);
                    return Some(RowRef::new(img));
                }
                Visibility::Absent => {
                    ctx.charge_stmt();
                    return None;
                }
            }
        }
        let t = &self.tables[table.0 as usize];
        ctx.charge_stmt();
        let image = t.tree.get(&self.pages, key, ctx);
        image.map(|img| {
            ctx.charge_rows(1);
            RowRef::new(img)
        })
    }

    /// Snapshot point read at `ts` with no cost accounting: the overlay
    /// resolves visibility, falling through to the tree's latest image.
    /// For oracles, tests, and microbenches — served reads go through
    /// [`Database::get`].
    pub fn get_at(&self, table: TableId, key: i64, ts: SimTime) -> Option<Row> {
        match self.versions.visible((table, key), ts) {
            Visibility::Latest => {
                let t = &self.tables[table.0 as usize];
                t.tree
                    .get(&self.pages, key, &mut Uncharged)
                    .map(Row::decode)
            }
            Visibility::Image(img) => Some(Row::decode(img)),
            Visibility::Absent => None,
        }
    }

    /// Read-modify-write a row in place. Returns `false` if absent.
    pub fn update(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        key: i64,
        f: impl FnOnce(&mut Row),
    ) -> Result<bool, EngineError> {
        self.update_image(ctx, txn, table, key, |schema, before, after| {
            let mut row = before.to_row();
            f(&mut row);
            schema.validate(&row)?;
            assert_eq!(row.key(), key, "updates must not change the primary key");
            row.encode_into(after);
            Ok(())
        })
    }

    /// The update every caller funnels into: `build` sees the row as it
    /// stands and appends the image it should become, checked against the
    /// schema it is handed and keeping the key. The before-image is copied
    /// out of the page once (it must outlive the page mutation) and both
    /// images move into the WAL record: two allocations per update.
    pub(crate) fn update_image<E: From<EngineError>>(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        key: i64,
        build: impl FnOnce(&Schema, RowRef<'_>, &mut Vec<u8>) -> Result<(), E>,
    ) -> Result<bool, E> {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let t = &mut self.tables[table.0 as usize];
        ctx.charge_stmt();
        let Some(before_img) = t.tree.get(&self.pages, key, ctx).map(<[u8]>::to_vec) else {
            return Ok(false);
        };
        let mut after_img = Vec::with_capacity(before_img.len() + 8);
        build(&t.schema, RowRef::new(&before_img), &mut after_img)?;
        let updated = t.tree.update(&mut self.pages, key, &after_img, ctx);
        debug_assert!(updated, "row existed moments ago");
        Self::index_transition(
            &mut self.pages,
            t,
            RowRef::new(&before_img),
            RowRef::new(&after_img),
            key,
            ctx,
        );
        ctx.charge_rows(1);
        let op = WalOp::Update {
            table,
            key,
            before: before_img,
            after: after_img,
        };
        self.log_dml(txn, (table, key), op);
        Ok(true)
    }

    /// Delete a row. Returns `false` if absent.
    pub fn delete(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        table: TableId,
        key: i64,
    ) -> bool {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let t = &mut self.tables[table.0 as usize];
        ctx.charge_stmt();
        let Some(before) = t.tree.delete(&mut self.pages, key, ctx) else {
            return false;
        };
        Self::index_remove(&mut self.pages, t, RowRef::new(&before), key, ctx);
        t.rows -= 1;
        ctx.charge_rows(1);
        self.log_dml(txn, (table, key), WalOp::Delete { table, key, before });
        true
    }

    /// Range scan, charging pages and rows to `ctx`. Under a versioned
    /// isolation level each key resolves against the snapshot at `ctx.now`
    /// exactly like [`Database::get`]: rows whose latest image committed
    /// after the snapshot serve their chain image instead, rows inserted
    /// after it are skipped, and rows deleted after it are resurrected from
    /// their chains. READ COMMITTED keeps the original single-version walk
    /// bit-identical.
    pub fn scan_range(
        &self,
        ctx: &mut ExecCtx<'_>,
        table: TableId,
        lo: i64,
        hi: i64,
        mut f: impl FnMut(i64, RowRef<'_>) -> bool,
    ) {
        ctx.charge_stmt();
        let rows = if ctx.isolation.is_versioned() {
            let snapshot = ctx.now;
            self.scan_range_versioned(table, lo, hi, snapshot, ctx, f)
        } else {
            let t = &self.tables[table.0 as usize];
            let mut rows = 0u64;
            t.tree.scan_range(&self.pages, lo, hi, ctx, |k, img| {
                rows += 1;
                f(k, RowRef::new(img))
            });
            rows
        };
        ctx.charge_rows(rows);
    }

    /// Snapshot range scan at `ts` with no cost accounting — the range
    /// analogue of [`Database::get_at`], for oracles, tests, and
    /// microbenches. Served scans go through [`Database::scan_range`].
    pub fn scan_range_at(
        &self,
        table: TableId,
        lo: i64,
        hi: i64,
        ts: SimTime,
        f: impl FnMut(i64, RowRef<'_>) -> bool,
    ) {
        self.scan_range_versioned(table, lo, hi, ts, &mut Uncharged, f);
    }

    /// The shared snapshot-scan merge: walk the tree and the version
    /// overlay over `[lo, hi]` side by side, resolving every key's
    /// visibility at `ts`. Overlay keys missing from the tree are rows
    /// deleted after `ts` whose chain still holds the visible image.
    /// Returns the number of rows emitted.
    fn scan_range_versioned(
        &self,
        table: TableId,
        lo: i64,
        hi: i64,
        ts: SimTime,
        sink: &mut impl PageSink,
        mut f: impl FnMut(i64, RowRef<'_>) -> bool,
    ) -> u64 {
        let t = &self.tables[table.0 as usize];
        let mut overlay = self.versions.overlay_keys(table, lo, hi).peekable();
        let mut rows = 0u64;
        let mut stop = false;
        t.tree.scan_range(&self.pages, lo, hi, sink, |k, img| {
            // Overlay keys sorting before `k` have no tree row any more:
            // deleted after `ts`, resurrected from the chain if visible.
            while let Some(&(_, ok)) = overlay.peek() {
                if ok >= k {
                    break;
                }
                overlay.next();
                if let Visibility::Image(older) = self.versions.visible((table, ok), ts) {
                    rows += 1;
                    if !f(ok, RowRef::new(older)) {
                        stop = true;
                        return false;
                    }
                }
            }
            if overlay.peek() == Some(&(table, k)) {
                overlay.next();
            }
            match self.versions.visible((table, k), ts) {
                Visibility::Latest => {
                    rows += 1;
                    if !f(k, RowRef::new(img)) {
                        stop = true;
                        return false;
                    }
                }
                Visibility::Image(older) => {
                    rows += 1;
                    if !f(k, RowRef::new(older)) {
                        stop = true;
                        return false;
                    }
                }
                // Inserted after the snapshot: invisible, keep walking.
                Visibility::Absent => {}
            }
            true
        });
        if !stop {
            // Deleted-row tail past the last tree key in range.
            for (_, ok) in overlay {
                if let Visibility::Image(older) = self.versions.visible((table, ok), ts) {
                    rows += 1;
                    if !f(ok, RowRef::new(older)) {
                        break;
                    }
                }
            }
        }
        rows
    }

    /// Two-phase commit, phase one: append this participant's `Prepare`
    /// vote for global transaction `gid` and pay the durable flush of the
    /// transaction's WAL up to and including it. The transaction stays open
    /// — the caller finishes it with [`Database::commit`] (coordinator
    /// decided commit) or [`Database::abort`] (decided abort), which then
    /// pays only the decision record. A crash after the prepare flushed but
    /// before the decision record leaves the transaction *in doubt*:
    /// recovery holds it until the coordinator's decision resolves it, and
    /// presumes abort when no decision survives (see
    /// [`crate::recovery::in_doubt_txns`]).
    pub fn prepare(&mut self, ctx: &mut ExecCtx<'_>, txn: &mut TxnHandle, gid: u64) -> Lsn {
        debug_assert!(!txn.finished, "use of finished transaction");
        self.ensure_begun(txn);
        let lsn = self.log.append(txn.id, WalOp::Prepare { gid });
        let bytes = txn.wal_bytes + self.log.get(lsn).expect("just appended").approx_bytes();
        ctx.charge_commit(bytes);
        // The prepare made everything so far durable; the decision record
        // is the only WAL the commit/abort still has to pay for.
        txn.wal_bytes = 0;
        lsn
    }

    /// Commit: append the commit record, pay the durable commit — through
    /// the group-commit pipeline when the context carries one, else a
    /// per-commit flush. The driver must then register `writes` in the lock
    /// table with the transaction's virtual completion time.
    pub fn commit(&mut self, ctx: &mut ExecCtx<'_>, mut txn: TxnHandle) -> Committed {
        debug_assert!(!txn.finished);
        txn.finished = true;
        if !txn.begun {
            // Read-only: nothing to make durable.
            return Committed {
                lsn: self.log.head(),
                writes: WriteSet::new(),
                undo: UndoLsns::new(),
            };
        }
        let lsn = self.log.append(txn.id, WalOp::Commit);
        let bytes = txn.wal_bytes + self.log.get(lsn).expect("just appended").approx_bytes();
        ctx.charge_commit(bytes);
        Committed {
            lsn,
            writes: txn.writes,
            undo: txn.undo,
        }
    }

    /// Publish the version-chain pre-images of a committed transaction,
    /// visible from `commit_ts` (the commit's virtual completion time —
    /// group-commit ack or commit-latency end). Only the *first* undo
    /// record per row matters: it carries the image the row had before the
    /// transaction touched it. Must be called atomically with the logical
    /// execution (the tree already holds the post-images), so snapshot
    /// readers between now and `commit_ts` resolve to the pre-image.
    pub fn publish_versions(&mut self, committed: &Committed, commit_ts: SimTime) {
        let mut seen = WriteSet::new();
        for &lsn in committed.undo.iter() {
            let rec = self.log.get(lsn).expect("DML record of a live commit");
            let (key, pre): (RowKey, Option<&[u8]>) = match &rec.op {
                WalOp::Insert { table, key, .. } => ((*table, *key), None),
                WalOp::Update {
                    table, key, before, ..
                } => ((*table, *key), Some(before)),
                WalOp::Delete { table, key, before } => ((*table, *key), Some(before)),
                _ => continue,
            };
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            self.versions.publish(key, pre, commit_ts);
        }
    }

    /// Abort: apply undo images in reverse, append the abort record.
    pub fn abort(&mut self, ctx: &mut ExecCtx<'_>, mut txn: TxnHandle) {
        debug_assert!(!txn.finished);
        txn.finished = true;
        for &lsn in txn.undo.iter().rev() {
            let rec = self
                .log
                .get(lsn)
                .expect("DML record of an open transaction");
            match &rec.op {
                WalOp::Insert { table, key, row } => {
                    let t = &mut self.tables[table.0 as usize];
                    let removed = t.tree.delete(&mut self.pages, *key, ctx);
                    debug_assert!(removed.is_some(), "undo of insert: row must exist");
                    Self::index_remove(&mut self.pages, t, RowRef::new(row), *key, ctx);
                    t.rows -= 1;
                }
                WalOp::Update {
                    table,
                    key,
                    before,
                    after,
                } => {
                    let t = &mut self.tables[table.0 as usize];
                    let ok = t.tree.update(&mut self.pages, *key, before, ctx);
                    debug_assert!(ok, "undo of update: row must exist");
                    Self::index_transition(
                        &mut self.pages,
                        t,
                        RowRef::new(after),
                        RowRef::new(before),
                        *key,
                        ctx,
                    );
                }
                WalOp::Delete { table, key, before } => {
                    let t = &mut self.tables[table.0 as usize];
                    t.tree
                        .insert(&mut self.pages, *key, before, ctx)
                        .expect("undo of delete: key must be free");
                    Self::index_add(&mut self.pages, t, RowRef::new(before), *key, ctx);
                    t.rows += 1;
                }
                other => unreachable!("non-DML in undo chain: {other:?}"),
            }
            ctx.charge_rows(1);
        }
        if txn.begun {
            self.log.append(txn.id, WalOp::Abort);
        }
    }

    /// Take a checkpoint on behalf of the node owning `pool`: flush its
    /// dirty pages through `storage`, record the checkpoint in the WAL.
    /// Returns the number of pages flushed (the caller derives timing from
    /// the charged I/O).
    pub fn checkpoint(
        &mut self,
        pool: &mut BufferPool,
        storage: &mut StorageService,
        now: SimTime,
    ) -> (Lsn, u64, cb_sim::SimDuration) {
        let dirty = pool.flush_dirty();
        let mut io = cb_sim::SimDuration::ZERO;
        for _ in &dirty {
            io += storage.page_write_cost(now + io);
        }
        let lsn = self.log.append(
            TxnId(0),
            WalOp::Checkpoint {
                dirty_pages: dirty.len() as u64,
            },
        );
        self.last_checkpoint = lsn;
        (lsn, dirty.len() as u64, io)
    }

    /// Crash simulation: wipe all volatile coordination state (the lock
    /// table and the version overlay — both live in node memory and die
    /// with the process) and return the WAL head at the instant of the
    /// crash. Page/log/catalog state is left exactly as it was: the caller
    /// decides how much of the log tail survived (see
    /// [`LogStore::discard_after`]) and what recovery path to run. A
    /// recovered database serves every row at `SimTime::ZERO` — versions
    /// collapse to the latest committed image, which keeps net-effect redo
    /// a pure function of the log.
    pub fn simulate_crash(&mut self) -> Lsn {
        self.locks.clear();
        self.versions.clear();
        self.log.head()
    }

    /// Ensure future [`Database::begin`] calls assign transaction ids
    /// strictly greater than `beyond`. Used when a recovered database
    /// replaces a crashed one: the archive still holds records from the old
    /// incarnation, and reusing a TxnId would make an old loser's DML look
    /// committed to a later replay.
    pub fn fast_forward_txns(&mut self, beyond: TxnId) {
        self.next_txn = self.next_txn.max(beyond.0 + 1);
    }

    /// Recovery/replication internal: apply an insert image directly (no
    /// WAL, no cost charging). Panics on duplicate keys — replay from a
    /// consistent base never sees one.
    pub fn apply_insert_raw(
        &mut self,
        table: TableId,
        key: i64,
        image: &[u8],
        sink: &mut impl PageSink,
    ) {
        let t = &mut self.tables[table.0 as usize];
        t.tree
            .insert(&mut self.pages, key, image, sink)
            .expect("redo insert must not collide");
        Self::index_add(&mut self.pages, t, RowRef::new(image), key, sink);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
    }

    /// [`apply_insert_raw`](Self::apply_insert_raw) through a [`BatchIngest`]
    /// cursor: sorted redo/replay streams amortize the B-tree descent. The
    /// cursor is only valid for consecutive inserts into `table`; callers
    /// must invalidate it around any other mutation of the same tree.
    pub fn apply_insert_raw_batched(
        &mut self,
        table: TableId,
        key: i64,
        image: &[u8],
        cur: &mut crate::btree::BatchIngest,
        sink: &mut impl PageSink,
    ) {
        let t = &mut self.tables[table.0 as usize];
        t.tree
            .insert_sorted(&mut self.pages, cur, key, image, sink)
            .expect("redo insert must not collide");
        Self::index_add(&mut self.pages, t, RowRef::new(image), key, sink);
        t.rows += 1;
        t.auto_key = t.auto_key.max(key + 1);
    }

    /// Recovery/replication internal: apply an update image directly.
    pub fn apply_update_raw(
        &mut self,
        table: TableId,
        key: i64,
        image: &[u8],
        sink: &mut impl PageSink,
    ) {
        let (pages, t) = (&mut self.pages, &mut self.tables[table.0 as usize]);
        // The before-image lives in the page the update rewrites, so it is
        // copied out first — and only when an index is there to read it.
        let before = (!t.secondaries.is_empty()).then(|| {
            t.tree
                .get(pages, key, sink)
                .unwrap_or_else(|| panic!("redo update of missing key {key}"))
                .to_vec()
        });
        let ok = t.tree.update(pages, key, image, sink);
        assert!(ok, "redo update of missing key {key}");
        if let Some(before) = before {
            Self::index_transition(
                pages,
                t,
                RowRef::new(&before),
                RowRef::new(image),
                key,
                sink,
            );
        }
    }

    /// Recovery/replication internal: apply a delete directly.
    pub fn apply_delete_raw(&mut self, table: TableId, key: i64, sink: &mut impl PageSink) {
        let (pages, t) = (&mut self.pages, &mut self.tables[table.0 as usize]);
        let removed = t.tree.delete(pages, key, sink);
        let Some(before) = removed else {
            panic!("redo delete of missing key {key}");
        };
        Self::index_remove(pages, t, RowRef::new(&before), key, sink);
        t.rows -= 1;
    }

    /// Recovery internal: ensure `table`'s next auto-assigned key is past
    /// `key`. Net-effect replay applies only each key's final image, so
    /// inserts that were later deleted never reach [`apply_insert_raw`];
    /// this keeps the auto-key watermark identical to sequential redo.
    pub fn bump_auto_key(&mut self, table: TableId, key: i64) {
        let t = &mut self.tables[table.0 as usize];
        t.auto_key = t.auto_key.max(key + 1);
    }

    /// Total data size in bytes (for storage cost accounting).
    pub fn data_bytes(&self) -> u64 {
        self.pages.size_bytes()
    }

    /// Visit every row of a table in key order: the latest images, borrowed
    /// straight off the pages, with no cost accounting (oracles, tests and
    /// recovery checks).
    pub fn for_each_row(&self, table: TableId, mut f: impl FnMut(i64, RowRef<'_>)) {
        let t = &self.tables[table.0 as usize];
        t.tree
            .scan_range(&self.pages, i64::MIN, i64::MAX, &mut Uncharged, |k, img| {
                f(k, RowRef::new(img));
                true
            });
    }

    /// Collect the full contents of a table as owned rows.
    pub fn dump_table(&self, table: TableId) -> Vec<Row> {
        let mut out = Vec::new();
        self.for_each_row(table, |_, row| out.push(row.to_row()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CostModel;
    use crate::value::{ColumnDef, DataType};
    use cb_sim::{Device, DeviceKind, SimDuration};
    use cb_store::StorageArch;

    fn storage() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn orders_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("O_ID", DataType::Int),
            ColumnDef::new("O_STATUS", DataType::Text),
            ColumnDef::new("O_TOTAL", DataType::Int),
        ])
    }

    fn order_row(id: i64, status: &str, total: i64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Text(status.into()),
            Value::Int(total),
        ])
    }

    struct Env {
        pool: BufferPool,
        storage: StorageService,
        model: CostModel,
    }

    impl Env {
        fn new() -> Self {
            Env {
                pool: BufferPool::new(1024),
                storage: storage(),
                model: CostModel::default(),
            }
        }

        fn ctx(&mut self) -> ExecCtx<'_> {
            ExecCtx::new(
                SimTime::ZERO,
                &mut self.pool,
                None,
                &mut self.storage,
                &self.model,
            )
        }
    }

    #[test]
    fn insert_get_commit_cycle() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 100))
            .unwrap();
        let c = db.commit(&mut ctx, txn);
        assert_eq!(&c.writes[..], [(orders, 1)]);
        assert!(ctx.cpu > SimDuration::ZERO);
        assert!(ctx.io > SimDuration::ZERO, "commit pays a durable append");
        let got = db.get(&mut ctx, orders, 1).unwrap();
        assert_eq!(got.to_row(), order_row(1, "NEW", 100));
        assert_eq!(db.table(orders).rows(), 1);
    }

    #[test]
    fn auto_increment_keys() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=10).map(|i| order_row(i, "NEW", i * 10)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let k = db
            .insert_auto(
                &mut ctx,
                &mut txn,
                orders,
                vec![Value::Text("NEW".into()), Value::Int(7)],
            )
            .unwrap();
        assert_eq!(k, 11, "auto key continues after bulk load");
        db.commit(&mut ctx, txn);
    }

    #[test]
    fn duplicate_insert_surfaces_error() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 1))
            .unwrap();
        let err = db
            .insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 2))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Duplicate {
                table: orders,
                key: 1
            }
        );
        db.commit(&mut ctx, txn);
    }

    #[test]
    fn update_read_modify_write() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, [order_row(5, "NEW", 100)]);
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let hit = db
            .update(&mut ctx, &mut txn, orders, 5, |row| {
                row.values[1] = Value::Text("PAID".into());
                row.values[2] = Value::Int(row.values[2].expect_int() + 50);
            })
            .unwrap();
        assert!(hit);
        let miss = db.update(&mut ctx, &mut txn, orders, 99, |_| {}).unwrap();
        assert!(!miss);
        db.commit(&mut ctx, txn);
        assert_eq!(
            db.get(&mut ctx, orders, 5).unwrap().to_row(),
            order_row(5, "PAID", 150)
        );
    }

    #[test]
    fn delete_and_row_count() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=3).map(|i| order_row(i, "NEW", i)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        assert!(db.delete(&mut ctx, &mut txn, orders, 2));
        assert!(!db.delete(&mut ctx, &mut txn, orders, 2));
        db.commit(&mut ctx, txn);
        assert_eq!(db.table(orders).rows(), 2);
        assert!(db.get(&mut ctx, orders, 2).is_none());
    }

    #[test]
    fn abort_undoes_everything_in_reverse() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, [order_row(1, "NEW", 100), order_row(2, "NEW", 200)]);
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(3, "NEW", 300))
            .unwrap();
        db.update(&mut ctx, &mut txn, orders, 1, |r| {
            r.values[1] = Value::Text("PAID".into());
        })
        .unwrap();
        db.delete(&mut ctx, &mut txn, orders, 2);
        // Touch the same row twice to exercise ordered undo.
        db.update(&mut ctx, &mut txn, orders, 1, |r| {
            r.values[2] = Value::Int(999);
        })
        .unwrap();
        db.abort(&mut ctx, txn);
        assert_eq!(
            db.dump_table(orders),
            vec![order_row(1, "NEW", 100), order_row(2, "NEW", 200)]
        );
        assert_eq!(db.table(orders).rows(), 2);
    }

    #[test]
    fn scan_range_charges_rows() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=100).map(|i| order_row(i, "NEW", i)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut seen = 0;
        db.scan_range(&mut ctx, orders, 10, 19, |_, _| {
            seen += 1;
            true
        });
        assert_eq!(seen, 10);
        assert_eq!(ctx.stats.rows, 10);
    }

    #[test]
    fn snapshot_scan_hides_future_versions_and_resurrects_deletes() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=5).map(|i| order_row(i, "NEW", i * 10)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.update(&mut ctx, &mut txn, orders, 2, |r| {
            r.values[1] = Value::Text("PAID".into());
        })
        .unwrap();
        db.delete(&mut ctx, &mut txn, orders, 3);
        db.insert(&mut ctx, &mut txn, orders, order_row(6, "NEW", 60))
            .unwrap();
        let c = db.commit(&mut ctx, txn);
        // The commit's ack lands at t=100ms; until then a snapshot must see
        // the pre-image world.
        db.publish_versions(&c, SimTime::from_millis(100));

        let collect_at = |db: &Database, ts: SimTime| {
            let mut got = Vec::new();
            db.scan_range_at(orders, 1, 10, ts, |k, row| {
                got.push((k, row.value(1)));
                true
            });
            got
        };
        // Before the ack: update invisible, delete resurrected, insert absent.
        assert_eq!(
            collect_at(&db, SimTime::from_millis(50)),
            vec![
                (1, Value::Text("NEW".into())),
                (2, Value::Text("NEW".into())),
                (3, Value::Text("NEW".into())),
                (4, Value::Text("NEW".into())),
                (5, Value::Text("NEW".into())),
            ]
        );
        // At the ack instant the snapshot collapses to the tree.
        assert_eq!(
            collect_at(&db, SimTime::from_millis(100)),
            vec![
                (1, Value::Text("NEW".into())),
                (2, Value::Text("PAID".into())),
                (4, Value::Text("NEW".into())),
                (5, Value::Text("NEW".into())),
                (6, Value::Text("NEW".into())),
            ]
        );
        // The versioned ctx scan path agrees with the oracle path.
        let mut env2 = Env::new();
        let mut vctx = env2.ctx();
        vctx.isolation = crate::mvcc::IsolationLevel::Snapshot;
        vctx.now = SimTime::from_millis(50);
        let mut seen = Vec::new();
        db.scan_range(&mut vctx, orders, 1, 10, |k, _| {
            seen.push(k);
            true
        });
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(vctx.stats.rows, 5);
    }

    #[test]
    fn snapshot_scan_early_stop_spans_resurrected_rows() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        db.load_bulk(orders, (1..=6).map(|i| order_row(i, "NEW", i * 10)));
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.delete(&mut ctx, &mut txn, orders, 2);
        db.delete(&mut ctx, &mut txn, orders, 6);
        let c = db.commit(&mut ctx, txn);
        db.publish_versions(&c, SimTime::from_millis(100));
        // Stop after two rows: the resurrected key 2 must count.
        let mut got = Vec::new();
        db.scan_range_at(orders, 1, 10, SimTime::from_millis(10), |k, _| {
            got.push(k);
            got.len() < 2
        });
        assert_eq!(got, vec![1, 2]);
        // Stop inside the overlay tail past the last tree key.
        let mut tail = Vec::new();
        db.scan_range_at(orders, 5, 10, SimTime::from_millis(10), |k, _| {
            tail.push(k);
            true
        });
        assert_eq!(tail, vec![5, 6], "deleted tail row must be resurrected");
    }

    #[test]
    fn checkpoint_flushes_and_records() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        {
            let mut ctx = env.ctx();
            let mut txn = db.begin();
            for i in 1..=50 {
                db.insert(&mut ctx, &mut txn, orders, order_row(i, "NEW", i))
                    .unwrap();
            }
            db.commit(&mut ctx, txn);
        }
        assert!(env.pool.dirty_count() > 0);
        let (lsn, flushed, io) = db.checkpoint(&mut env.pool, &mut env.storage, SimTime::ZERO);
        assert!(flushed > 0);
        assert!(io > SimDuration::ZERO);
        assert_eq!(db.last_checkpoint(), lsn);
        assert_eq!(env.pool.dirty_count(), 0);
    }

    #[test]
    fn clone_is_deep() {
        // Everything an outside reader can see of one copy.
        fn observe(db: &Database, t: TableId) -> (Vec<Row>, u64, i64, Lsn, usize) {
            let meta = db.table(t);
            (
                db.dump_table(t),
                meta.rows(),
                meta.next_auto_key(),
                db.log().head(),
                db.pages().live_pages(),
            )
        }
        // Inserts enough to split leaves, an update, a delete, and the WAL
        // records of all of them.
        fn churn(db: &mut Database, t: TableId, status: &str) {
            let mut env = Env::new();
            let mut ctx = env.ctx();
            let mut txn = db.begin();
            for i in 0..400 {
                db.insert_auto(
                    &mut ctx,
                    &mut txn,
                    t,
                    vec![Value::Text(status.into()), Value::Int(i)],
                )
                .unwrap();
            }
            db.update(&mut ctx, &mut txn, t, 2, |r| {
                r.values[1] = Value::Text(status.into())
            })
            .unwrap();
            assert!(db.delete(&mut ctx, &mut txn, t, 3));
            db.commit(&mut ctx, txn);
        }

        let mut original = Database::new();
        let orders = original.create_table("orders", orders_schema());
        original.load_bulk(orders, (1..=200).map(|i| order_row(i, "NEW", i)));
        let mut copy = original.clone();
        let loaded = observe(&original, orders);
        assert_eq!(observe(&copy, orders), loaded);

        churn(&mut copy, orders, "COPY");
        assert_eq!(observe(&original, orders), loaded);
        let churned = observe(&copy, orders);
        assert_ne!(churned.0, loaded.0);
        assert!(churned.1 > loaded.1 && churned.2 > loaded.2);
        assert!(churned.3 > loaded.3 && churned.4 > loaded.4);

        churn(&mut original, orders, "ORIGINAL");
        assert_eq!(observe(&copy, orders), churned);
    }

    #[test]
    fn wal_records_full_transaction_story() {
        let mut db = Database::new();
        let orders = db.create_table("orders", orders_schema());
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, orders, order_row(1, "NEW", 1))
            .unwrap();
        db.commit(&mut ctx, txn);
        let ops: Vec<_> = db
            .log()
            .records_after(Lsn::ZERO)
            .map(|r| std::mem::discriminant(&r.op))
            .collect();
        assert_eq!(ops.len(), 3); // Begin, Insert, Commit
        let kinds: Vec<_> = db.log().records_after(Lsn::ZERO).map(|r| &r.op).collect();
        assert!(matches!(kinds[0], WalOp::Begin));
        assert!(matches!(kinds[1], WalOp::Insert { key: 1, .. }));
        assert!(matches!(kinds[2], WalOp::Commit));
    }
}
