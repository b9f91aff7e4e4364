//! A compact TPC-C implementation ("TPC-C lite").
//!
//! The five classic transactions over the warehouse schema at one
//! warehouse, with composite keys packed into the engine's `i64` clustered
//! keys. The second baseline of Fig 9 (the paper drives it through
//! OLTP-Bench at scale factor 1 with 44 threads).

use cb_engine::sql::StmtRegistry;
use cb_engine::{ColumnDef, DataType, Database, ExecCtx, Row, Schema, TxnHandle, Value};
use cb_sim::DetRng;
use cb_store::{PageStore, TableId};

use crate::driver::Body;
use crate::workload::TxnMix;

/// The one warehouse (the paper runs TPC-C at scale factor 1).
const W: i64 = 1;
/// Districts per warehouse.
const DISTRICTS_PER_W: i64 = 10;
/// Customers per district at full scale.
const CUSTOMERS_PER_D: i64 = 3_000;
/// Items at full scale.
const ITEMS: i64 = 100_000;

/// Pack a (warehouse, district) pair into a district key.
fn district_key(w: i64, d: i64) -> i64 {
    w * 100 + d
}

/// Pack a (warehouse, district, customer) triple into a customer key.
fn customer_key(w: i64, d: i64, c: i64) -> i64 {
    district_key(w, d) * 100_000 + c
}

/// Pack a (warehouse, item) pair into a stock key.
fn stock_key(w: i64, i: i64) -> i64 {
    w * 1_000_000 + i
}

/// The five TPC-C transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TpccTxn {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

/// The TPC-C lite workload: its loaded tables and sim-scaled sizes.
pub(crate) struct TpccLite {
    warehouse: TableId,
    district: TableId,
    customer: TableId,
    item: TableId,
    stock: TableId,
    orders: TableId,
    orderline: TableId,
    customers_per_d: i64,
    items: i64,
}

impl TpccLite {
    /// Create the warehouse schema in `db` and load it (sim-scaled).
    pub(crate) fn setup(db: &mut Database, sim_scale: u64) -> Self {
        use DataType::{Int, Text, Timestamp};
        let div = sim_scale.max(1) as i64;
        let customers_per_d = (CUSTOMERS_PER_D / div).max(30);
        let items = (ITEMS / div).max(1_000);
        let mut table = |name: &str, columns: &[(&str, DataType)]| {
            let columns = columns.iter().map(|&(c, ty)| ColumnDef::new(c, ty));
            db.create_table(name, Schema::new(columns.collect()))
        };
        let t = TpccLite {
            warehouse: table(
                "warehouse",
                &[("W_ID", Int), ("W_NAME", Text), ("W_YTD", Int)],
            ),
            district: table(
                "district",
                &[("D_KEY", Int), ("D_YTD", Int), ("D_NEXT_O_ID", Int)],
            ),
            customer: table(
                "tpcc_customer",
                &[("C_KEY", Int), ("C_BALANCE", Int), ("C_DATA", Text)],
            ),
            item: table("item", &[("I_ID", Int), ("I_PRICE", Int), ("I_NAME", Text)]),
            stock: table("stock", &[("S_KEY", Int), ("S_QTY", Int)]),
            orders: table(
                "tpcc_orders",
                &[
                    ("O_KEY", Int),
                    ("O_C_KEY", Int),
                    ("O_OL_CNT", Int),
                    ("O_DELIVERED", Timestamp),
                ],
            ),
            orderline: table(
                "tpcc_orderline",
                &[
                    ("OL_KEY", Int),
                    ("OL_O_KEY", Int),
                    ("OL_I_ID", Int),
                    ("OL_QTY", Int),
                ],
            ),
            customers_per_d,
            items,
        };
        db.load_bulk(
            t.warehouse,
            [[Value::Int(W), Value::Text(format!("WH{W}")), Value::Int(0)]],
        );
        let districts = 1..=DISTRICTS_PER_W;
        db.load_bulk(
            t.district,
            districts
                .clone()
                .map(|d| [Value::Int(district_key(W, d)), Value::Int(0), Value::Int(1)]),
        );
        db.load_bulk(
            t.customer,
            districts.flat_map(|d| {
                (1..=customers_per_d).map(move |c| {
                    [
                        Value::Int(customer_key(W, d, c)),
                        Value::Int(0),
                        Value::Text(format!("C{W}-{d}-{c}")),
                    ]
                })
            }),
        );
        db.load_bulk(
            t.item,
            (1..=items).map(|i| {
                [
                    Value::Int(i),
                    Value::Int(100 + i % 9900),
                    Value::Text(format!("item-{i}")),
                ]
            }),
        );
        db.load_bulk(
            t.stock,
            (1..=items).map(|i| [Value::Int(stock_key(W, i)), Value::Int(50)]),
        );
        PageStore::release_spare_frames();
        t
    }

    /// A random district and customer of the warehouse.
    fn pick_dc(&self, rng: &mut DetRng) -> (i64, i64) {
        let d = rng.range_inclusive(1, DISTRICTS_PER_W);
        let c = rng.range_inclusive(1, self.customers_per_d);
        (d, c)
    }
}

impl Body for TpccLite {
    type Kind = TpccTxn;
    type Params = ();

    fn pick(&self, _: &TxnMix, rng: &mut DetRng) -> TpccTxn {
        // The standard TPC-C mix: 45/43/4/4/4.
        match rng.pick_weighted(&[45.0, 43.0, 4.0, 4.0, 4.0]) {
            0 => TpccTxn::NewOrder,
            1 => TpccTxn::Payment,
            2 => TpccTxn::OrderStatus,
            3 => TpccTxn::Delivery,
            _ => TpccTxn::StockLevel,
        }
    }

    fn statements(
        &self,
        db: &mut Database,
        _: &StmtRegistry,
        ctx: &mut ExecCtx<'_>,
        txn: &mut TxnHandle,
        kind: TpccTxn,
        _: (),
        rng: &mut DetRng,
    ) {
        let (d, c) = self.pick_dc(rng);
        // A district's orders: its key times a million plus the order id.
        let orders_lo = district_key(W, d) * 1_000_000;
        match kind {
            TpccTxn::NewOrder => {
                let _ = db.get(ctx, self.warehouse, W);
                let _ = db.get(ctx, self.customer, customer_key(W, d, c));
                // Take the district's next order id.
                let mut next_o_id = 0i64;
                let found = db
                    .update(ctx, txn, self.district, district_key(W, d), |row| {
                        next_o_id = row.values[2].expect_int();
                        row.values[2] = Value::Int(next_o_id + 1);
                    })
                    .expect("district exists");
                assert!(found, "district row present");
                let o_id = orders_lo + next_o_id;
                let n_lines = rng.range_inclusive(5, 15);
                let order = Row::new(vec![
                    Value::Int(o_id),
                    Value::Int(customer_key(W, d, c)),
                    Value::Int(n_lines),
                    Value::Timestamp(0),
                ]);
                db.insert(ctx, txn, self.orders, order)
                    .expect("fresh order id");
                for l in 0..n_lines {
                    let i = rng.range_inclusive(1, self.items);
                    let _ = db.get(ctx, self.item, i);
                    let qty = rng.range_inclusive(1, 10);
                    db.update(ctx, txn, self.stock, stock_key(W, i), |row| {
                        let s = row.values[1].expect_int();
                        row.values[1] =
                            Value::Int(if s >= qty + 10 { s - qty } else { s - qty + 91 });
                    })
                    .expect("stock exists");
                    let line = Row::new(vec![
                        Value::Int(o_id * 100 + l),
                        Value::Int(o_id),
                        Value::Int(i),
                        Value::Int(qty),
                    ]);
                    db.insert(ctx, txn, self.orderline, line)
                        .expect("fresh orderline id");
                }
            }
            TpccTxn::Payment => {
                let amount = rng.range_inclusive(100, 500_000);
                let mut add = |table, key, col: usize, delta: i64| {
                    db.update(ctx, txn, table, key, |row| {
                        row.values[col] = Value::Int(row.values[col].expect_int() + delta);
                    })
                    .expect("payment row exists");
                };
                add(self.warehouse, W, 2, amount);
                add(self.district, district_key(W, d), 1, amount);
                add(self.customer, customer_key(W, d, c), 1, -amount);
            }
            TpccTxn::OrderStatus => {
                let _ = db.get(ctx, self.customer, customer_key(W, d, c));
                // Scan this district's most recent orders.
                let mut seen = 0;
                db.scan_range(ctx, self.orders, orders_lo, orders_lo + 999_999, |_, _| {
                    seen += 1;
                    seen < 20
                });
            }
            TpccTxn::Delivery => {
                // Find the oldest undelivered order of the district and
                // stamp it.
                let mut first = None;
                db.scan_range(
                    ctx,
                    self.orders,
                    orders_lo,
                    orders_lo + 999_999,
                    |k, row| {
                        let undelivered = row.timestamp(3) == 0;
                        if undelivered {
                            first = Some(k);
                        }
                        !undelivered
                    },
                );
                if let Some(o_id) = first {
                    db.update(ctx, txn, self.orders, o_id, |row| {
                        row.values[3] = Value::Timestamp(1);
                    })
                    .expect("order exists");
                }
            }
            TpccTxn::StockLevel => {
                let _ = db.get(ctx, self.district, district_key(W, d));
                // Probe 20 random stock entries for low quantity.
                for _ in 0..20 {
                    let i = rng.range_inclusive(1, self.items);
                    let _ = db.get(ctx, self.stock, stock_key(W, i));
                }
            }
        }
    }

    fn label(kind: TpccTxn) -> &'static str {
        match kind {
            TpccTxn::NewOrder => "new-order",
            TpccTxn::Payment => "payment",
            TpccTxn::OrderStatus => "order-status",
            TpccTxn::Delivery => "delivery",
            TpccTxn::StockLevel => "stock-level",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{BufferPool, CostModel};
    use cb_sim::SimTime;

    fn env() -> (Database, TpccLite, DetRng) {
        let mut db = Database::new();
        let w = TpccLite::setup(&mut db, 100);
        (db, w, DetRng::seeded(1))
    }

    #[test]
    fn setup_loads_all_tables() {
        let (db, w, _) = env();
        assert_eq!(db.table(w.warehouse).rows(), 1);
        assert_eq!(db.table(w.district).rows(), 10);
        assert_eq!(db.table(w.customer).rows(), 10 * w.customers_per_d as u64);
        assert_eq!(db.table(w.stock).rows(), w.items as u64);
    }

    /// Every page image TPC-C-lite's loader writes, pinned at two scales
    /// (300 and 30 000 customers), so a loader change that moves one byte
    /// fails here.
    #[test]
    fn loaded_page_images_are_pinned() {
        let digest = |sim_scale| {
            let mut db = Database::new();
            TpccLite::setup(&mut db, sim_scale);
            crate::schema::page_images_digest(&db)
        };
        assert_eq!(digest(100), (27, 0x88c6_798f_fed5_25b3));
        assert_eq!(digest(1), (2_173, 0xa345_b407_8775_47fe));
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
        let (mut db, w, mut rng) = env();
        let mut pool = BufferPool::new(4096);
        let mut storage = cb_sut::SutProfile::aws_rds().storage_service();
        let model = CostModel::default();
        let mut executed = [0u64; 5];
        for _ in 0..100 {
            let kind = w.pick(&TxnMix::read_write(), &mut rng);
            executed[kind as usize] += 1;
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
            let mut txn = db.begin();
            w.statements(
                &mut db,
                &StmtRegistry::new(),
                &mut ctx,
                &mut txn,
                kind,
                (),
                &mut rng,
            );
            db.commit(&mut ctx, txn);
        }
        assert!(
            executed[TpccTxn::NewOrder as usize] > 20,
            "new-order should dominate: {executed:?}"
        );
        // New orders actually landed.
        assert!(db.table(w.orders).rows() > 20);
        assert!(db.table(w.orderline).rows() > 100);
    }
}
