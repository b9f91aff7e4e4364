//! A SysBench-style OLTP workload (`oltp_read_write` flavour).
//!
//! Three `sbtest` tables of 300,000 rows each (the paper's Fig 9 setup:
//! "a 226 MB dataset with 3 tables, each of size 300000"). Each transaction
//! is the classic mix of point selects plus an index update and a non-index
//! update — simple single-table operations with no correlation, which is
//! exactly why it exercises elasticity so poorly.

use cb_engine::{ColumnDef, DataType, Database, ExecCtx, Row, Schema, Value};
use cb_sim::DetRng;
use cb_store::TableId;

use crate::runner::Workload;

/// Rows per table at full scale.
pub(crate) const ROWS_PER_TABLE: u64 = 300_000;
/// Number of sbtest tables.
pub(crate) const TABLES: usize = 3;

/// The SysBench-style workload.
pub struct Sysbench {
    tables: Vec<TableId>,
    rows: i64,
    /// Point selects per transaction (SysBench default 10).
    pub point_selects: u32,
    /// Updates per transaction (index + non-index).
    pub updates: u32,
}

impl Default for Sysbench {
    fn default() -> Self {
        Sysbench {
            tables: Vec::new(),
            rows: 0,
            point_selects: 10,
            updates: 2,
        }
    }
}

fn sbtest_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("ID", DataType::Int),
        ColumnDef::new("K", DataType::Int),
        ColumnDef::new("C", DataType::Text),
        ColumnDef::new("PAD", DataType::Text),
    ])
}

impl Workload for Sysbench {
    fn setup(&mut self, db: &mut Database, sim_scale: u64, rng: &mut DetRng) {
        let rows = (ROWS_PER_TABLE / sim_scale.max(1)).max(100) as i64;
        self.rows = rows;
        for i in 0..TABLES {
            let t = db.create_table(&format!("sbtest{}", i + 1), sbtest_schema());
            let mut batch = Vec::with_capacity(rows as usize);
            for id in 1..=rows {
                batch.push(Row::new(vec![
                    Value::Int(id),
                    Value::Int(rng.range_inclusive(1, rows)),
                    Value::Text(format!("{:0>32}", id)),
                    Value::Text(format!("{:0>16}", id % 97)),
                ]));
            }
            db.load_bulk(t, batch);
            self.tables.push(t);
        }
    }

    fn transaction(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        let table = self.tables[rng.below(self.tables.len() as u64) as usize];
        let mut txn = db.begin();
        for _ in 0..self.point_selects {
            let id = rng.range_inclusive(1, self.rows);
            let _ = db.get(ctx, table, id);
        }
        for _ in 0..self.updates {
            let id = rng.range_inclusive(1, self.rows);
            let delta = rng.range_inclusive(-100, 100);
            let _ = db
                .update(ctx, &mut txn, table, id, |row| {
                    row.values[1] = Value::Int(row.values[1].expect_int() + delta);
                })
                .expect("sbtest update");
        }
        db.commit(ctx, txn);
    }

    fn name(&self) -> &'static str {
        "sysbench-oltp-rw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_three_scaled_tables() {
        let mut db = Database::new();
        let mut w = Sysbench::default();
        let mut rng = DetRng::seeded(1);
        w.setup(&mut db, 1000, &mut rng);
        for name in ["sbtest1", "sbtest2", "sbtest3"] {
            let t = db.table_id(name).expect(name);
            assert_eq!(db.table(t).rows(), 300);
        }
    }

    #[test]
    fn transaction_reads_and_writes() {
        use cb_engine::{BufferPool, CostModel};
        use cb_sim::SimTime;
        let mut db = Database::new();
        let mut w = Sysbench::default();
        let mut rng = DetRng::seeded(1);
        w.setup(&mut db, 3000, &mut rng);
        let mut pool = BufferPool::new(256);
        let mut storage = cb_sut::SutProfile::aws_rds().storage_service();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        w.transaction(&mut db, &mut ctx, &mut rng);
        assert_eq!(ctx.stats.statements, 12, "10 selects + 2 updates");
        assert!(ctx.cpu > cb_sim::SimDuration::ZERO);
    }
}
