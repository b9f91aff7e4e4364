//! The inventory + manufacturing extension (the paper's Fig 2 "future
//! work" microservices) running alongside the sales service: reservations
//! drain stock, low stock opens work orders, completed work orders restock.
//!
//! ```text
//! cargo run --release --example inventory_service
//! ```

use cb_engine::sql::StmtRegistry;
use cb_engine::{BufferPool, Database, ExecCtx};
use cb_sim::{DetRng, SimTime};
use cb_sut::SutProfile;
use cloudybench::microservices::{install, load_extension_data, run_ext_txn, ExtTxn};
use cloudybench::report::Table;
use cloudybench::schema::{create_tables, STMT_DB_TOML};

fn main() {
    // One shared database hosts all three microservices (the paper's
    // shared-schema tenancy model).
    let mut db = Database::new();
    let _sales = create_tables(&mut db);
    let mut registry = StmtRegistry::new();
    registry.load(STMT_DB_TOML, &db).expect("sales statements");
    let ext = install(&mut db, &mut registry);
    let mut rng = DetRng::seeded(99);
    load_extension_data(&mut db, ext.tables, 200, &mut rng);
    println!(
        "installed {} statements over {} tables\n",
        registry.len(),
        db.tables().len()
    );

    let profile = SutProfile::cdb3();
    let mut pool = BufferPool::new(4096);
    let mut storage = profile.storage_service();

    // A day of inventory traffic: checks, reservations, work-order
    // completions.
    let mut opened = 0u64;
    let mut executed = [0u64; 3];
    for i in 0..20_000 {
        let mut ctx = ExecCtx::new(
            SimTime::from_millis(i),
            &mut pool,
            None,
            &mut storage,
            &profile.cost_model,
        );
        let kind = match rng.below(10) {
            0..=4 => ExtTxn::CheckAvailability,
            5..=8 => ExtTxn::ReserveStock,
            _ => ExtTxn::CompleteWorkOrder,
        };
        let product = rng.range_inclusive(1, 200);
        let out = run_ext_txn(
            &mut db,
            &mut ctx,
            &registry,
            &ext,
            kind,
            product,
            i as i64 * 1000,
            &mut rng,
        )
        .expect("extension transaction");
        if out.opened_workorder {
            opened += 1;
        }
        executed[match kind {
            ExtTxn::CheckAvailability => 0,
            ExtTxn::ReserveStock => 1,
            ExtTxn::CompleteWorkOrder => 2,
        }] += 1;
    }

    let workorders = db.dump_table(ext.tables.workorder);
    let open = workorders
        .iter()
        .filter(|r| r.values[3].expect_text() == "OPEN")
        .count();
    let done = workorders.len() - open;
    let stock = db.dump_table(ext.tables.stockitem);
    let total_qty: i64 = stock.iter().map(|r| r.values[1].expect_int()).sum();
    let total_reserved: i64 = stock.iter().map(|r| r.values[2].expect_int()).sum();

    let mut t = Table::new("Inventory service — end of day", &["Metric", "Value"]);
    t.row(&["availability checks".into(), executed[0].to_string()]);
    t.row(&["reservations".into(), executed[1].to_string()]);
    t.row(&[
        "work-order completions attempted".into(),
        executed[2].to_string(),
    ]);
    t.row(&["work orders opened (low stock)".into(), opened.to_string()]);
    t.row(&["work orders still open".into(), open.to_string()]);
    t.row(&["work orders done".into(), done.to_string()]);
    t.row(&["total stock on hand".into(), total_qty.to_string()]);
    t.row(&["total reserved".into(), total_reserved.to_string()]);
    println!("{t}");
    println!("the manufacturing loop keeps restocking what sales reserves —");
    println!("all through registry statements, no engine changes.");
}
