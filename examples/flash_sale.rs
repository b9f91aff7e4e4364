//! Flash sale: a hot-selling product drives a large spike of traffic, and
//! everyone hammers the same few orders (the paper's `latest-N` skew).
//!
//! Compares a fixed-capacity system (AWS RDS) against a serverless one
//! (CDB3) on the same spike: the serverless tier saves money but pays a
//! scaling lag, and the hot-row contention throttles both.
//!
//! The second act scales the sale out: a tenant fleet sharded across
//! engine instances (hash vs range routing), the flash-sale tenant pinned
//! to one hot shard, a mid-run workload shift to write-heavy traffic, and
//! cross-shard order/customer transfers two-phase committed on the
//! virtual clock.
//!
//! ```text
//! cargo run --release --example flash_sale
//! ```

use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::cost::{ruc_cost, RucRates};
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::sharded::ShardMap;
use cloudybench::{
    run, run_fleet, AccessDistribution, Deployment, FleetSpec, KeyPartition, RunOptions,
    ShiftEvent, TenantSpec, TxnMix,
};

fn spike(profile: &SutProfile, dist: AccessDistribution) -> (f64, f64, u64) {
    let mut dep = Deployment::new(profile.clone(), 1, 200, 0, 7);
    // One-minute slots: calm, spike, calm — the paper's Large Spike.
    let spec = TenantSpec {
        slots: vec![11, 88, 11],
        slot_len: SimDuration::from_secs(60),
        mix: TxnMix::new(10.0, 30.0, 60.0, 0.0), // payment-heavy sale traffic
        dist,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let result = run(&mut dep, &[spec], &RunOptions::default());
    let end = SimTime::ZERO + SimDuration::from_secs(180);
    let usage = dep.usage(SimTime::ZERO, end);
    let cost = ruc_cost(&usage, &RucRates::default());
    (
        result.avg_tps(SimTime::ZERO, end),
        cost.total(),
        result.lock_conflicts,
    )
}

fn main() {
    println!("flash sale: 3-minute spike (11 -> 88 -> 11 clients), payment-heavy mix\n");
    let mut t = Table::new(
        "Flash sale — fixed vs serverless, uniform vs hot-item skew",
        &[
            "System",
            "Distribution",
            "Avg TPS",
            "Cost (3 min)",
            "Lock conflicts",
        ],
    );
    for profile in [SutProfile::aws_rds(), SutProfile::cdb3()] {
        for (label, dist) in [
            ("uniform", AccessDistribution::Uniform),
            ("latest-10 (hot items)", AccessDistribution::Latest(10)),
        ] {
            let (tps, cost, conflicts) = spike(&profile, dist);
            t.row(&[
                profile.display.to_string(),
                label.to_string(),
                fnum(tps),
                fmoney(cost),
                format!("{conflicts}"),
            ]);
        }
    }
    println!("{t}");
    println!("note how the latest-10 skew serializes payments on ten hot orders,");
    println!("and how the serverless tier trades peak throughput for cost.");

    sharded_fleet();
}

/// Act two: the same sale, scaled out across a sharded tenant fleet.
fn sharded_fleet() {
    const SHARDS: usize = 2;
    let profile = SutProfile::cdb4();
    let sim_scale = 200;
    let spec = FleetSpec {
        tenants_per_shard: 8,
        clients_per_tenant: 1,
        hot_clients: 16,
        slot_len: SimDuration::from_secs(20),
        transfers: 64,
        // Mid-run the whole fleet turns write-heavy — the sale opens.
        shifts: vec![ShiftEvent::at(SimTime::ZERO + SimDuration::from_secs(30))
            .mix(TxnMix::new(10.0, 30.0, 60.0, 0.0))
            .dist(AccessDistribution::Latest(10))],
    };
    let shape = cloudybench::DatasetShape::new(1, sim_scale);
    let keyspace = shape.orders.min(shape.customers) as i64;
    println!(
        "\nsharded fleet: {} tenants across {SHARDS} shards of {}, hot shard 0,",
        spec.tenants_per_shard * SHARDS,
        profile.display
    );
    println!(
        "write-heavy shift at t=30s, {} cross-shard 2PC transfers\n",
        spec.transfers
    );
    let mut t = Table::new(
        "Scale-out flash sale — hash vs range sharding",
        &["Map", "Shard", "Committed", "TPS", "p95 ms", "P-Score"],
    );
    for map in [
        ShardMap::hash(SHARDS),
        ShardMap::range_even(keyspace, SHARDS),
    ] {
        let r = run_fleet(&profile, &map, &spec, sim_scale, 7, SHARDS);
        for s in &r.per_shard {
            let tag = if s.shard == r.hot_shard { "*" } else { "" };
            t.row(&[
                r.map_label.clone(),
                format!("{}{tag}", s.shard),
                format!("{}", s.committed),
                fnum(s.tps),
                fnum(s.p95_ms),
                fnum(s.p_score),
            ]);
        }
        t.row(&[
            r.map_label.clone(),
            "all".into(),
            String::new(),
            fnum(r.aggregate_tps),
            String::new(),
            fnum(r.aggregate_p),
        ]);
        let tp = r.two_phase;
        println!(
            "{}: 2PC committed={} aborted={} single-shard={} prepares={}",
            r.map_label, tp.committed, tp.aborted, tp.single_shard, tp.prepares
        );
    }
    println!("\n{t}");
    println!("the starred shard carries the flash-sale tenant. tenant traffic is");
    println!("identical under both maps (tenants ride their home shard); only the");
    println!("transfer stream feels the routing, via which key pairs collide.");
}
