//! The sales-microservice schema and data generation.
//!
//! CloudyBench models the sales service of a SaaS ERP application (paper
//! Fig. 2): three tables — CUSTOMER, ORDERS, ORDERLINE — where ORDERLINE is
//! an order of magnitude larger than the other two. At scale factor 1 the
//! paper uses 300 k customers, 300 k orders and ~3 M orderlines (194 MB raw).
//!
//! The generator accepts a *simulation scale divisor*: rows and buffer pools
//! shrink together (see `Deployment`), preserving every cache-pressure ratio
//! while letting the full experiment grid run in seconds.

use cb_engine::sql::{StmtId, StmtRegistry};
use cb_engine::{ColumnDef, DataType, Database, Schema, Value};
use cb_sim::DetRng;
use cb_store::TableId;

/// Rows per table at scale factor 1 (paper values).
pub const SF1_CUSTOMERS: u64 = 300_000;
/// Orders at scale factor 1.
pub const SF1_ORDERS: u64 = 300_000;
/// Orderlines at scale factor 1 (an order of magnitude larger).
pub const SF1_ORDERLINES: u64 = 3_000_000;

/// Table ids of the sales service.
#[derive(Clone, Copy, Debug)]
pub struct SalesTables {
    /// CUSTOMER.
    pub customer: TableId,
    /// ORDERS.
    pub orders: TableId,
    /// ORDERLINE.
    pub orderline: TableId,
}

/// Row counts of one generated dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetShape {
    /// CUSTOMER rows.
    pub customers: u64,
    /// ORDERS rows.
    pub orders: u64,
    /// ORDERLINE rows.
    pub orderlines: u64,
}

impl DatasetShape {
    /// The shape for `scale_factor`, shrunk by `sim_scale`.
    pub fn new(scale_factor: u64, sim_scale: u64) -> Self {
        let div = sim_scale.max(1);
        DatasetShape {
            customers: (SF1_CUSTOMERS * scale_factor / div).max(100),
            orders: (SF1_ORDERS * scale_factor / div).max(100),
            orderlines: (SF1_ORDERLINES * scale_factor / div).max(1000),
        }
    }

    /// Total rows.
    pub fn total_rows(&self) -> u64 {
        self.customers + self.orders + self.orderlines
    }
}

/// CUSTOMER schema: C_ID, C_NAME, C_CREDIT, C_UPDATEDDATE.
pub fn customer_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("C_ID", DataType::Int),
        ColumnDef::new("C_NAME", DataType::Text),
        ColumnDef::new("C_CREDIT", DataType::Int),
        ColumnDef::new("C_UPDATEDDATE", DataType::Timestamp),
    ])
}

/// ORDERS schema: O_ID, O_C_ID, O_STATUS, O_TOTALAMOUNT, O_DATE,
/// O_UPDATEDDATE.
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("O_ID", DataType::Int),
        ColumnDef::new("O_C_ID", DataType::Int),
        ColumnDef::new("O_STATUS", DataType::Text),
        ColumnDef::new("O_TOTALAMOUNT", DataType::Int),
        ColumnDef::new("O_DATE", DataType::Timestamp),
        ColumnDef::new("O_UPDATEDDATE", DataType::Timestamp),
    ])
}

/// ORDERLINE schema: OL_ID, OL_O_ID, OL_PRODUCT, OL_QTY, OL_AMOUNT.
pub fn orderline_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("OL_ID", DataType::Int),
        ColumnDef::new("OL_O_ID", DataType::Int),
        ColumnDef::new("OL_PRODUCT", DataType::Int),
        ColumnDef::new("OL_QTY", DataType::Int),
        ColumnDef::new("OL_AMOUNT", DataType::Int),
    ])
}

/// Create the three tables in `db`.
pub fn create_tables(db: &mut Database) -> SalesTables {
    SalesTables {
        customer: db.create_table("customer", customer_schema()),
        orders: db.create_table("orders", orders_schema()),
        orderline: db.create_table("orderline", orderline_schema()),
    }
}

/// Order statuses used by the generator and T2.
pub const STATUSES: [&str; 3] = ["NEW", "PAID", "SHIPPED"];

/// Generate and bulk-load the dataset. Deterministic for a given seed.
///
/// Rows stream into the loader as fixed-size arrays, so generating an
/// orderline allocates nothing and a customer or order only its one text
/// value.
pub fn load_dataset(
    db: &mut Database,
    tables: SalesTables,
    shape: DatasetShape,
    seed: u64,
) -> DatasetShape {
    let mut rng = DetRng::seeded(seed);
    db.load_bulk(
        tables.customer,
        (1..=shape.customers as i64).map(|c_id| {
            [
                Value::Int(c_id),
                Value::Text(format!("Customer#{c_id:09}")),
                Value::Int(1_000 + (c_id % 9_000)), // opening credit in cents
                Value::Timestamp(0),
            ]
        }),
    );
    // Orders and orderlines stream into the loader too: each generator
    // borrows `rng` in turn, so every order is drawn before the first
    // orderline.
    db.load_bulk(
        tables.orders,
        (1..=shape.orders as i64).map(|o_id| {
            let c_id = rng.range_inclusive(1, shape.customers as i64);
            let status = STATUSES[rng.below(STATUSES.len() as u64) as usize];
            [
                Value::Int(o_id),
                Value::Int(c_id),
                Value::Text(status.to_string()),
                Value::Int(rng.range_inclusive(100, 100_000)),
                Value::Timestamp(o_id * 1_000),
                Value::Timestamp(o_id * 1_000),
            ]
        }),
    );
    db.load_bulk(
        tables.orderline,
        (1..=shape.orderlines as i64).map(|ol_id| {
            let o_id = rng.range_inclusive(1, shape.orders as i64);
            [
                Value::Int(ol_id),
                Value::Int(o_id),
                Value::Int(rng.range_inclusive(1, 100_000)),
                Value::Int(rng.range_inclusive(1, 10)),
                Value::Int(rng.range_inclusive(100, 50_000)),
            ]
        }),
    );
    shape
}

/// The statement registry document for the CloudyBench OLTP workload
/// (paper Table II) — the contents of `stmt_db.toml`.
pub const STMT_DB_TOML: &str = r#"
# CloudyBench OLTP statements (paper Table II)
[statements]
t1_new_orderline = "INSERT INTO orderline VALUES (DEFAULT, ?, ?, ?, ?)"
t2_select_order = "SELECT O_ID, O_C_ID, O_TOTALAMOUNT, O_UPDATEDDATE FROM orders WHERE O_ID = ?"
t2_pay_order = "UPDATE orders SET O_UPDATEDDATE = ?, O_STATUS = 'PAID' WHERE O_ID = ?"
t2_credit_customer = "UPDATE customer SET C_CREDIT = C_CREDIT + ?, C_UPDATEDDATE = ? WHERE C_ID = ?"
t3_order_status = "SELECT O_ID, O_DATE, O_STATUS FROM orders WHERE O_ID = ?"
t4_delete_orderline = "DELETE FROM orderline WHERE OL_ID = ?"
"#;

/// Handles to the six [`STMT_DB_TOML`] statements, resolved once when a
/// deployment is assembled so the per-transaction path indexes the registry
/// instead of hashing a statement name.
#[derive(Clone, Copy, Debug)]
pub struct SalesStmts {
    /// T1 `INSERT INTO orderline`.
    pub t1_new_orderline: StmtId,
    /// T2 `SELECT … FROM orders`.
    pub t2_select_order: StmtId,
    /// T2 `UPDATE orders`.
    pub t2_pay_order: StmtId,
    /// T2 `UPDATE customer`.
    pub t2_credit_customer: StmtId,
    /// T3 `SELECT … FROM orders`.
    pub t3_order_status: StmtId,
    /// T4 `DELETE FROM orderline`.
    pub t4_delete_orderline: StmtId,
}

impl SalesStmts {
    /// Resolve the six names in a registry that loaded [`STMT_DB_TOML`].
    pub fn resolve(registry: &StmtRegistry) -> Self {
        let id = |name: &str| {
            registry
                .id(name)
                .unwrap_or_else(|| panic!("built-in statement {name} is registered"))
        };
        SalesStmts {
            t1_new_orderline: id("t1_new_orderline"),
            t2_select_order: id("t2_select_order"),
            t2_pay_order: id("t2_pay_order"),
            t2_credit_customer: id("t2_credit_customer"),
            t3_order_status: id("t3_order_status"),
            t4_delete_orderline: id("t4_delete_orderline"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::Row;

    #[test]
    fn shapes_scale_linearly() {
        let sf1 = DatasetShape::new(1, 1);
        assert_eq!(sf1.customers, SF1_CUSTOMERS);
        assert_eq!(sf1.orderlines, SF1_ORDERLINES);
        let sf10 = DatasetShape::new(10, 1);
        assert_eq!(sf10.orders, 10 * SF1_ORDERS);
        // Sim scale shrinks proportionally.
        let scaled = DatasetShape::new(1, 10);
        assert_eq!(scaled.customers, SF1_CUSTOMERS / 10);
        assert_eq!(scaled.orderlines, SF1_ORDERLINES / 10);
        // Floors keep tiny configurations workable.
        let tiny = DatasetShape::new(1, 1_000_000);
        assert!(tiny.customers >= 100 && tiny.orderlines >= 1000);
    }

    #[test]
    fn dataset_loads_and_counts_match() {
        let mut db = Database::new();
        let tables = create_tables(&mut db);
        let shape = DatasetShape::new(1, 1000); // 300/300/3000
        load_dataset(&mut db, tables, shape, 42);
        assert_eq!(db.table(tables.customer).rows(), shape.customers);
        assert_eq!(db.table(tables.orders).rows(), shape.orders);
        assert_eq!(db.table(tables.orderline).rows(), shape.orderlines);
        // Orderline is an order of magnitude larger.
        assert_eq!(shape.orderlines / shape.customers, 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let build = || {
            let mut db = Database::new();
            let tables = create_tables(&mut db);
            load_dataset(&mut db, tables, DatasetShape::new(1, 3000), 7);
            db.dump_table(tables.orders)
        };
        assert_eq!(build(), build());
    }

    /// Values captured at `266d397`, before the loader streamed its rows:
    /// unlike `generation_is_deterministic`, this fails if a single draw
    /// moves.
    #[test]
    fn generated_dataset_is_pinned() {
        let mut db = Database::new();
        let tables = create_tables(&mut db);
        load_dataset(&mut db, tables, DatasetShape::new(1, 3000), 7);
        let orders = db.dump_table(tables.orders);
        let lines = db.dump_table(tables.orderline);
        let sum = |rows: &[Row], col: usize| -> i64 {
            rows.iter().map(|r| r.values[col].expect_int()).sum()
        };
        assert_eq!(db.table(tables.customer).rows(), 100);
        assert_eq!((orders.len(), lines.len()), (100, 1000));
        assert_eq!(sum(&orders, 1), 4_755, "sum of O_C_ID");
        assert_eq!(sum(&orders, 3), 5_162_222, "sum of O_TOTALAMOUNT");
        let per_status = STATUSES.map(|s| {
            orders
                .iter()
                .filter(|r| r.values[2].expect_text() == s)
                .count()
        });
        assert_eq!(per_status, [39, 28, 33], "NEW / PAID / SHIPPED");
        assert_eq!(sum(&lines, 1), 48_229, "sum of OL_O_ID");
        assert_eq!(sum(&lines, 2), 50_004_304, "sum of OL_PRODUCT");
        assert_eq!(sum(&lines, 3), 5_545, "sum of OL_QTY");
        assert_eq!(sum(&lines, 4), 24_495_834, "sum of OL_AMOUNT");
        assert_eq!(
            orders[0],
            Row::new(vec![
                Value::Int(1),
                Value::Int(6),
                Value::Text("NEW".into()),
                Value::Int(71_786),
                Value::Timestamp(1_000),
                Value::Timestamp(1_000),
            ])
        );
        assert_eq!(
            lines.last(),
            Some(&Row::new(vec![
                Value::Int(1_000),
                Value::Int(78),
                Value::Int(66_902),
                Value::Int(9),
                Value::Int(11_797),
            ]))
        );
    }

    /// `(live_pages, digest)` of the loaded dataset: FNV-1a-64 over every
    /// page's 1024 little-endian `u64` words, pages in id order.
    fn page_digest(shape: DatasetShape, seed: u64) -> (usize, u64) {
        let mut db = Database::new();
        let tables = create_tables(&mut db);
        load_dataset(&mut db, tables, shape, seed);
        let pages = db.pages();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut seen = 0;
        let mut id = 0u64;
        while seen < pages.live_pages() {
            let page = cb_store::PageId(id);
            id += 1;
            if !pages.contains(page) {
                continue;
            }
            seen += 1;
            for word in pages.read(page).as_bytes().chunks_exact(8) {
                let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (seen, h)
    }

    /// Every page image the loader writes — ids, fill, separators, sibling
    /// links — pinned at two shapes, so a loader change that moves one byte
    /// (and with it which rows share a page, hence every pool hit ratio)
    /// fails here.
    #[test]
    fn loaded_page_images_are_pinned() {
        assert_eq!(
            page_digest(DatasetShape::new(1, 3000), 2025),
            (17, 0x976f_9286_c14c_6747)
        );
    }

    /// The 3.6 M-row shape: inner-node splits and a three-level tree.
    #[test]
    fn loaded_page_images_are_pinned_at_sf10() {
        assert_eq!(
            page_digest(DatasetShape::new(10, 10), 2025),
            (52_450, 0xb20b_7fec_8473_6815)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let build = |seed| {
            let mut db = Database::new();
            let tables = create_tables(&mut db);
            load_dataset(&mut db, tables, DatasetShape::new(1, 3000), seed);
            db.dump_table(tables.orders)
        };
        assert_ne!(build(1), build(2));
    }

    #[test]
    fn stmt_db_document_binds_against_schema() {
        let mut db = Database::new();
        create_tables(&mut db);
        let mut reg = StmtRegistry::new();
        let n = reg.load(STMT_DB_TOML, &db).unwrap();
        assert_eq!(n, 6);
        for name in [
            "t1_new_orderline",
            "t2_select_order",
            "t2_pay_order",
            "t2_credit_customer",
            "t3_order_status",
            "t4_delete_orderline",
        ] {
            assert!(reg.get(name).is_some(), "missing {name}");
        }
        // A handle reaches the statement its name does, and the resolved
        // struct holds the six handles under the right names.
        for name in reg.names() {
            let id = reg.id(name).expect("listed name resolves");
            assert_eq!(Some(&reg[id]), reg.get(name), "{name}");
        }
        assert_eq!(reg.id("t9_unknown"), None);
        let ids = SalesStmts::resolve(&reg);
        for (id, name) in [
            (ids.t1_new_orderline, "t1_new_orderline"),
            (ids.t2_select_order, "t2_select_order"),
            (ids.t2_pay_order, "t2_pay_order"),
            (ids.t2_credit_customer, "t2_credit_customer"),
            (ids.t3_order_status, "t3_order_status"),
            (ids.t4_delete_orderline, "t4_delete_orderline"),
        ] {
            assert_eq!(Some(&reg[id]), reg.get(name), "{name}");
        }
    }

    #[test]
    fn paper_scale_data_size_is_plausible() {
        // At sim_scale 100 the SF1 dataset should be around 2 MB of pages
        // (paper: 194 MB at full scale).
        let mut db = Database::new();
        let tables = create_tables(&mut db);
        load_dataset(&mut db, tables, DatasetShape::new(1, 100), 42);
        let bytes = db.data_bytes();
        assert!(
            (1_000_000..8_000_000).contains(&bytes),
            "unexpected data size: {bytes}"
        );
    }
}
