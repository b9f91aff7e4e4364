//! A compact TPC-C implementation ("TPC-C lite").
//!
//! The five classic transactions over the warehouse schema, with composite
//! keys packed into the engine's `i64` clustered keys. Used as the second
//! baseline of Fig 9 (the paper drives it through OLTP-Bench at scale
//! factor 1 with 44 threads) and as a second OLTP workload demonstrating
//! the testbed's extensibility.

use cb_engine::{ColumnDef, DataType, Database, ExecCtx, Row, Schema, Value};
use cb_sim::DetRng;
use cb_store::TableId;

use crate::runner::Workload;

/// Districts per warehouse.
pub(crate) const DISTRICTS_PER_W: i64 = 10;
/// Customers per district at full scale.
pub(crate) const CUSTOMERS_PER_D: i64 = 3_000;
/// Items at full scale.
pub(crate) const ITEMS: i64 = 100_000;

/// Pack a (warehouse, district) pair into a district key.
pub(crate) fn district_key(w: i64, d: i64) -> i64 {
    w * 100 + d
}

/// Pack a (warehouse, district, customer) triple into a customer key.
pub(crate) fn customer_key(w: i64, d: i64, c: i64) -> i64 {
    district_key(w, d) * 100_000 + c
}

/// Pack a (warehouse, item) pair into a stock key.
pub(crate) fn stock_key(w: i64, i: i64) -> i64 {
    w * 1_000_000 + i
}

struct Tables {
    warehouse: TableId,
    district: TableId,
    customer: TableId,
    item: TableId,
    stock: TableId,
    orders: TableId,
    orderline: TableId,
}

/// The TPC-C lite workload.
pub struct TpccLite {
    tables: Option<Tables>,
    warehouses: i64,
    customers_per_d: i64,
    items: i64,
    /// Statistics: transactions executed by type.
    pub executed: [u64; 5],
}

impl TpccLite {
    /// A workload with `warehouses` warehouses (the paper uses SF 1).
    pub fn new(warehouses: i64) -> Self {
        assert!(warehouses >= 1);
        TpccLite {
            tables: None,
            warehouses,
            customers_per_d: CUSTOMERS_PER_D,
            items: ITEMS,
            executed: [0; 5],
        }
    }

    fn t(&self) -> &Tables {
        self.tables.as_ref().expect("setup ran")
    }

    fn pick_wdc(&self, rng: &mut DetRng) -> (i64, i64, i64) {
        let w = rng.range_inclusive(1, self.warehouses);
        let d = rng.range_inclusive(1, DISTRICTS_PER_W);
        let c = rng.range_inclusive(1, self.customers_per_d);
        (w, d, c)
    }

    fn new_order(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        let (w, d, c) = self.pick_wdc(rng);
        let t = self.tables.as_ref().expect("setup ran");
        let (warehouse, district, customer, item, stock, orders, orderline) = (
            t.warehouse,
            t.district,
            t.customer,
            t.item,
            t.stock,
            t.orders,
            t.orderline,
        );
        let mut txn = db.begin();
        let _ = db.get(ctx, warehouse, w);
        let _ = db.get(ctx, customer, customer_key(w, d, c));
        // Take the district's next order id.
        let mut next_o_id = 0i64;
        db.update(ctx, &mut txn, district, district_key(w, d), |row| {
            next_o_id = row.values[2].expect_int();
            row.values[2] = Value::Int(next_o_id + 1);
        })
        .expect("district exists")
        .then_some(())
        .expect("district row present");
        let o_id = district_key(w, d) * 1_000_000 + next_o_id;
        let n_lines = rng.range_inclusive(5, 15);
        db.insert(
            ctx,
            &mut txn,
            orders,
            Row::new(vec![
                Value::Int(o_id),
                Value::Int(customer_key(w, d, c)),
                Value::Int(n_lines),
                Value::Timestamp(0),
            ]),
        )
        .expect("fresh order id");
        for l in 0..n_lines {
            let i = rng.range_inclusive(1, self.items);
            let _ = db.get(ctx, item, i);
            let qty = rng.range_inclusive(1, 10);
            db.update(ctx, &mut txn, stock, stock_key(w, i), |row| {
                let s = row.values[1].expect_int();
                row.values[1] = Value::Int(if s >= qty + 10 { s - qty } else { s - qty + 91 });
            })
            .expect("stock exists");
            db.insert(
                ctx,
                &mut txn,
                orderline,
                Row::new(vec![
                    Value::Int(o_id * 100 + l),
                    Value::Int(o_id),
                    Value::Int(i),
                    Value::Int(qty),
                ]),
            )
            .expect("fresh orderline id");
        }
        db.commit(ctx, txn);
        self.executed[0] += 1;
    }

    fn payment(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        let (w, d, c) = self.pick_wdc(rng);
        let t = self.t();
        let (warehouse, district, customer) = (t.warehouse, t.district, t.customer);
        let amount = rng.range_inclusive(100, 500_000);
        let mut txn = db.begin();
        db.update(ctx, &mut txn, warehouse, w, |row| {
            row.values[2] = Value::Int(row.values[2].expect_int() + amount);
        })
        .expect("warehouse exists");
        db.update(ctx, &mut txn, district, district_key(w, d), |row| {
            row.values[1] = Value::Int(row.values[1].expect_int() + amount);
        })
        .expect("district exists");
        db.update(ctx, &mut txn, customer, customer_key(w, d, c), |row| {
            row.values[1] = Value::Int(row.values[1].expect_int() - amount);
        })
        .expect("customer exists");
        db.commit(ctx, txn);
        self.executed[1] += 1;
    }

    fn order_status(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        let (w, d, c) = self.pick_wdc(rng);
        let t = self.t();
        let (customer, orders) = (t.customer, t.orders);
        let txn = db.begin();
        let _ = db.get(ctx, customer, customer_key(w, d, c));
        // Scan this district's most recent orders.
        let base = district_key(w, d) * 1_000_000;
        let mut seen = 0;
        db.scan_range(ctx, orders, base, base + 999_999, |_, _| {
            seen += 1;
            seen < 20
        });
        let ctx2 = ctx;
        db.commit(ctx2, txn);
        self.executed[2] += 1;
    }

    fn delivery(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        let (w, d, _) = self.pick_wdc(rng);
        let t = self.t();
        let orders = t.orders;
        // Find the oldest undelivered order of the district and stamp it.
        let base = district_key(w, d) * 1_000_000;
        let mut first = None;
        {
            let tmp_txn = db.begin();
            db.scan_range(ctx, orders, base, base + 999_999, |k, row| {
                if row.timestamp(3) == 0 {
                    first = Some(k);
                    false
                } else {
                    true
                }
            });
            db.commit(ctx, tmp_txn);
        }
        if let Some(o_id) = first {
            let mut txn = db.begin();
            db.update(ctx, &mut txn, orders, o_id, |row| {
                row.values[3] = Value::Timestamp(1);
            })
            .expect("order exists");
            db.commit(ctx, txn);
        }
        self.executed[3] += 1;
    }

    fn stock_level(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        let (w, d, _) = self.pick_wdc(rng);
        let t = self.t();
        let (district, stock) = (t.district, t.stock);
        let txn = db.begin();
        let _ = db.get(ctx, district, district_key(w, d));
        // Probe 20 random stock entries for low quantity.
        let mut low = 0;
        for _ in 0..20 {
            let i = rng.range_inclusive(1, self.items);
            if let Some(row) = db.get(ctx, stock, stock_key(w, i)) {
                if row.int(1) < 15 {
                    low += 1;
                }
            }
        }
        let _ = low;
        db.commit(ctx, txn);
        self.executed[4] += 1;
    }
}

impl Workload for TpccLite {
    fn setup(&mut self, db: &mut Database, sim_scale: u64, _rng: &mut DetRng) {
        let div = sim_scale.max(1) as i64;
        self.customers_per_d = (CUSTOMERS_PER_D / div).max(30);
        self.items = (ITEMS / div).max(1_000);
        let warehouse = db.create_table(
            "warehouse",
            Schema::new(vec![
                ColumnDef::new("W_ID", DataType::Int),
                ColumnDef::new("W_NAME", DataType::Text),
                ColumnDef::new("W_YTD", DataType::Int),
            ]),
        );
        let district = db.create_table(
            "district",
            Schema::new(vec![
                ColumnDef::new("D_KEY", DataType::Int),
                ColumnDef::new("D_YTD", DataType::Int),
                ColumnDef::new("D_NEXT_O_ID", DataType::Int),
            ]),
        );
        let customer = db.create_table(
            "tpcc_customer",
            Schema::new(vec![
                ColumnDef::new("C_KEY", DataType::Int),
                ColumnDef::new("C_BALANCE", DataType::Int),
                ColumnDef::new("C_DATA", DataType::Text),
            ]),
        );
        let item = db.create_table(
            "item",
            Schema::new(vec![
                ColumnDef::new("I_ID", DataType::Int),
                ColumnDef::new("I_PRICE", DataType::Int),
                ColumnDef::new("I_NAME", DataType::Text),
            ]),
        );
        let stock = db.create_table(
            "stock",
            Schema::new(vec![
                ColumnDef::new("S_KEY", DataType::Int),
                ColumnDef::new("S_QTY", DataType::Int),
            ]),
        );
        let orders = db.create_table(
            "tpcc_orders",
            Schema::new(vec![
                ColumnDef::new("O_KEY", DataType::Int),
                ColumnDef::new("O_C_KEY", DataType::Int),
                ColumnDef::new("O_OL_CNT", DataType::Int),
                ColumnDef::new("O_DELIVERED", DataType::Timestamp),
            ]),
        );
        let orderline = db.create_table(
            "tpcc_orderline",
            Schema::new(vec![
                ColumnDef::new("OL_KEY", DataType::Int),
                ColumnDef::new("OL_O_KEY", DataType::Int),
                ColumnDef::new("OL_I_ID", DataType::Int),
                ColumnDef::new("OL_QTY", DataType::Int),
            ]),
        );
        db.load_bulk(
            warehouse,
            (1..=self.warehouses).map(|w| {
                Row::new(vec![
                    Value::Int(w),
                    Value::Text(format!("WH{w}")),
                    Value::Int(0),
                ])
            }),
        );
        let mut districts = Vec::new();
        let mut customers = Vec::new();
        for w in 1..=self.warehouses {
            for d in 1..=DISTRICTS_PER_W {
                districts.push(Row::new(vec![
                    Value::Int(district_key(w, d)),
                    Value::Int(0),
                    Value::Int(1),
                ]));
                for c in 1..=self.customers_per_d {
                    customers.push(Row::new(vec![
                        Value::Int(customer_key(w, d, c)),
                        Value::Int(0),
                        Value::Text(format!("C{w}-{d}-{c}")),
                    ]));
                }
            }
        }
        db.load_bulk(district, districts);
        db.load_bulk(customer, customers);
        db.load_bulk(
            item,
            (1..=self.items).map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(100 + i % 9900),
                    Value::Text(format!("item-{i}")),
                ])
            }),
        );
        let mut stocks = Vec::new();
        for w in 1..=self.warehouses {
            for i in 1..=self.items {
                stocks.push(Row::new(vec![Value::Int(stock_key(w, i)), Value::Int(50)]));
            }
        }
        db.load_bulk(stock, stocks);
        self.tables = Some(Tables {
            warehouse,
            district,
            customer,
            item,
            stock,
            orders,
            orderline,
        });
    }

    fn transaction(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
        // Standard TPC-C mix: 45/43/4/4/4.
        match rng.pick_weighted(&[45.0, 43.0, 4.0, 4.0, 4.0]) {
            0 => self.new_order(db, ctx, rng),
            1 => self.payment(db, ctx, rng),
            2 => self.order_status(db, ctx, rng),
            3 => self.delivery(db, ctx, rng),
            _ => self.stock_level(db, ctx, rng),
        }
    }

    fn name(&self) -> &'static str {
        "tpcc-lite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{BufferPool, CostModel};
    use cb_sim::SimTime;

    fn env() -> (Database, TpccLite, DetRng) {
        let mut db = Database::new();
        let mut w = TpccLite::new(1);
        let mut rng = DetRng::seeded(1);
        w.setup(&mut db, 100, &mut rng);
        (db, w, rng)
    }

    #[test]
    fn setup_loads_all_tables() {
        let (db, w, _) = env();
        let t = w.t();
        assert_eq!(db.table(t.warehouse).rows(), 1);
        assert_eq!(db.table(t.district).rows(), 10);
        assert_eq!(db.table(t.customer).rows(), 10 * w.customers_per_d as u64);
        assert_eq!(db.table(t.stock).rows(), w.items as u64);
    }

    #[test]
    fn key_packing_is_injective() {
        let mut seen = std::collections::HashSet::new();
        for w in 1..=3 {
            for d in 1..=10 {
                assert!(seen.insert(district_key(w, d)));
                for c in 1..=5 {
                    assert!(seen.insert(customer_key(w, d, c)));
                }
            }
        }
    }

    #[test]
    fn hundred_transactions_execute() {
        let (mut db, mut w, mut rng) = env();
        let mut pool = BufferPool::new(4096);
        let mut storage = cb_sut::SutProfile::aws_rds().storage_service();
        let model = CostModel::default();
        for _ in 0..100 {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
            w.transaction(&mut db, &mut ctx, &mut rng);
        }
        assert_eq!(w.executed.iter().sum::<u64>(), 100);
        assert!(
            w.executed[0] > 20,
            "new-order should dominate: {:?}",
            w.executed
        );
        // New orders actually landed.
        let t = w.t();
        assert!(db.table(t.orders).rows() > 20);
        assert!(db.table(t.orderline).rows() > 100);
    }
}
