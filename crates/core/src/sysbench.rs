//! A SysBench-style OLTP workload (`oltp_read_write` flavour).
//!
//! Three `sbtest` tables of 300,000 rows each (the paper's Fig 9 setup:
//! "a 226 MB dataset with 3 tables, each of size 300000"). Each transaction
//! is the classic mix of point selects plus an index update and a non-index
//! update — simple single-table operations with no correlation, which is
//! exactly why it exercises elasticity so poorly.

use cb_engine::sql::StmtRegistry;
use cb_engine::DataType::{Int, Text};
use cb_engine::{ColumnDef, Database, ExecCtx, Schema, TxnHandle, Value};
use cb_sim::DetRng;
use cb_store::{PageStore, TableId};

use crate::driver::Body;
use crate::workload::TxnMix;

/// Rows per table at full scale.
const ROWS_PER_TABLE: u64 = 300_000;
/// Number of sbtest tables.
const TABLES: usize = 3;
/// Point selects per transaction (the SysBench default).
const POINT_SELECTS: u32 = 10;
/// Updates per transaction (one index, one non-index).
const UPDATES: u32 = 2;

/// The SysBench-style workload: its loaded tables and their row count.
pub(crate) struct Sysbench {
    tables: Vec<TableId>,
    rows: i64,
}

impl Sysbench {
    /// Create the `sbtest` tables in `db` and load them (sim-scaled).
    pub(crate) fn setup(db: &mut Database, sim_scale: u64, rng: &mut DetRng) -> Self {
        let rows = (ROWS_PER_TABLE / sim_scale.max(1)).max(100) as i64;
        let columns = [("ID", Int), ("K", Int), ("C", Text), ("PAD", Text)];
        let schema = Schema::new(columns.map(|(c, ty)| ColumnDef::new(c, ty)).to_vec());
        let tables = (1..=TABLES)
            .map(|i| {
                let t = db.create_table(&format!("sbtest{i}"), schema.clone());
                db.load_bulk(
                    t,
                    (1..=rows).map(|id| {
                        [
                            Value::Int(id),
                            Value::Int(rng.range_inclusive(1, rows)),
                            Value::Text(format!("{id:0>32}")),
                            Value::Text(format!("{:0>16}", id % 97)),
                        ]
                    }),
                );
                t
            })
            .collect();
        PageStore::release_spare_frames();
        Sysbench { tables, rows }
    }
}

/// One transaction shape, so nothing is drawn before the node gates.
impl Body for Sysbench {
    type Kind = ();
    type Params = ();

    fn pick(&self, _: &TxnMix, _: &mut DetRng) {}

    fn statements(
        &self,
        db: &mut Database,
        _: &StmtRegistry,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        _: (),
        _: (),
        rng: &mut DetRng,
    ) {
        let table = self.tables[rng.below(self.tables.len() as u64) as usize];
        for _ in 0..POINT_SELECTS {
            let id = rng.range_inclusive(1, self.rows);
            let _ = db.get(ctx, table, id);
        }
        for _ in 0..UPDATES {
            let id = rng.range_inclusive(1, self.rows);
            let delta = rng.range_inclusive(-100, 100);
            db.update(ctx, txn, table, id, |row| {
                row.values[1] = Value::Int(row.values[1].expect_int() + delta);
            })
            .expect("sbtest update");
        }
    }

    fn label(_: ()) -> &'static str {
        "sysbench-oltp-rw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_three_scaled_tables() {
        let mut db = Database::new();
        Sysbench::setup(&mut db, 1000, &mut DetRng::seeded(1));
        for name in ["sbtest1", "sbtest2", "sbtest3"] {
            let t = db.table_id(name).expect(name);
            assert_eq!(db.table(t).rows(), 300);
        }
    }

    /// Every page image the sysbench loader writes, with the `K` column
    /// drawn from the seed, pinned at two scales (300 and 30 000 rows a
    /// table), so a loader change that moves one byte or one draw fails here.
    #[test]
    fn loaded_page_images_are_pinned() {
        let digest = |sim_scale, seed| {
            let mut db = Database::new();
            Sysbench::setup(&mut db, sim_scale, &mut DetRng::seeded(seed));
            crate::schema::page_images_digest(&db)
        };
        assert_eq!(digest(1000, 2025), (21, 0x3566_4bbf_7508_3270));
        assert_eq!(digest(10, 7), (1_881, 0x82ce_1b97_66c3_2e89));
    }

    #[test]
    fn transaction_reads_and_writes() {
        use cb_engine::{BufferPool, CostModel};
        use cb_sim::SimTime;
        let mut db = Database::new();
        let mut rng = DetRng::seeded(1);
        let w = Sysbench::setup(&mut db, 3000, &mut rng);
        let mut pool = BufferPool::new(256);
        let mut storage = cb_sut::SutProfile::aws_rds().storage_service();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        let mut txn = db.begin();
        w.statements(
            &mut db,
            &StmtRegistry::new(),
            &mut ctx,
            &mut txn,
            (),
            (),
            &mut rng,
        );
        db.commit(&mut ctx, txn);
        assert_eq!(ctx.stats.statements, 12, "10 selects + 2 updates");
        assert!(ctx.cpu > cb_sim::SimDuration::ZERO);
    }
}
