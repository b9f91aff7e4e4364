//! The layer probes of the traced run: every `*_ns` line, each timed from
//! outside through the layer's public functions by the honest sampler.
//!
//! Probes that need a loaded database run against the post-run deployment of
//! the traced run's driver cell, with that cell's key distribution, so cache
//! footprint and tree shape are the workload's own. Probes of stateless
//! layers build the smallest state the call needs.

use std::hint::black_box;

use cb_engine::sql::execute;
use cb_engine::{BufferPool, Database, ExecCtx, LockTable, RemoteTier, Row, Value};
use cb_load::{ArrivalGen, ArrivalProcess};
use cb_obs::{chrome_trace_json, Category, LogHistogram, ObsSink};
use cb_sim::{
    CpuResource, DetRng, Device, DeviceKind, EventQueue, SimDuration, SimTime, TpsRecorder,
};
use cb_store::{
    decode_record, encode_record, encode_record_into, LogStore, PageId, TableId, TxnId, WalOp,
    WalRecord,
};
use cloudybench::{Deployment, KeyPartition};

use crate::report::Line;
use crate::sampler::{Sampler, BATCHES, MIN_BATCH_OPS};
use crate::spans::SpanLog;
use crate::workloads::DriverCell;

/// Operations per timed batch for the cheap probes.
const OPS: usize = 2_000;
/// Rows one range-scan operation sweeps (the driver's `SCAN_SPAN`).
const SCAN_ROWS: i64 = cloudybench::driver::SCAN_SPAN;
/// An instant after every run's horizon, so probes never queue behind it.
const AFTER_RUN: SimTime = SimTime::from_secs(100_000);

/// Collects the per-layer lines of one traced run; every probe is a span.
pub struct Probes<'a> {
    /// The calibrated batch timer.
    pub sampler: Sampler,
    /// The traced run's span log.
    pub spans: &'a mut SpanLog,
    /// The lines measured so far.
    pub lines: Vec<Line>,
}

impl Probes<'_> {
    /// Time `batch(ops)` and record it as `name` (a `*_ns` metric).
    fn probe(&mut self, name: &str, ops: usize, batch: impl FnMut(usize)) {
        let sampler = self.sampler;
        let sample = self
            .spans
            .scope(&format!("probe.{name}"), |_| sampler.measure(ops, batch));
        self.lines.push(Line::probe(name, &sample));
    }

    /// Record a single measured or counted value.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.lines.push(Line::single(name, unit, value));
    }

    /// Value of an already-recorded line.
    pub fn value(&self, name: &str) -> f64 {
        self.lines
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("line {name} has not been recorded"))
            .value
    }
}

/// What the deployment probes learn besides timings: pool touches per
/// operation, for the attribution of the run's touch counters.
#[derive(Clone, Copy, Debug)]
pub struct TreeShape {
    /// Pool touches one point read makes (the tree height it descends).
    pub pages_per_get: f64,
    /// Pool touches per row of a range sweep.
    pub pages_per_scanned_row: f64,
}

/// Probes of the SQL, B-tree, buffer-pool, lock and replication layers on a
/// post-run deployment.
pub fn deployment_probes(
    p: &mut Probes<'_>,
    dep: &mut Deployment,
    cell: &DriverCell,
    seed: u64,
) -> TreeShape {
    let part = KeyPartition::whole(dep.shape.orders, dep.shape.customers);
    let (lo, hi) = (part.orders_lo, part.orders_hi);
    let mut rng = DetRng::seeded(seed ^ 0x9E37_79B9_7F4A_7C15);
    let orders = dep.tables.orders;
    // Keys are drawn up front so a probe times its layer, not the key
    // distribution (a Zipfian draw costs more than a lock registration).
    let keys: Vec<i64> = (0..OPS * (BATCHES + 1))
        .map(|_| cell.dist.pick_order(&mut rng, lo, hi))
        .collect();
    let mut cursor = 0usize;
    let mut next_key = move || {
        cursor = (cursor + 1) % keys.len();
        keys[cursor]
    };

    p.probe("engine.sql.registry_get_ns", OPS, |ops| {
        for _ in 0..ops {
            black_box(dep.registry.get(black_box("t3_order_status")));
        }
    });

    // T3 (order status) and T5 (range sweep) the way `attempt_txn` runs
    // them: an `ExecCtx` on the node's own pool at the cell's isolation
    // level, begin, execute, commit; keys from the workload's distribution.
    let shape = {
        let Deployment {
            db,
            nodes,
            storage,
            remote_pool,
            registry,
            profile,
            ..
        } = &mut *dep;
        let isolation = cell.isolation.unwrap_or(profile.default_isolation);
        let stmt = registry.get("t3_order_status").expect("built-in statement");
        let pool = &mut nodes[0].pool;
        let touches = |pool: &BufferPool| (pool.hits() + pool.misses()) as f64;

        let before = touches(pool);
        let mut executed = 0usize;
        p.probe("engine.sql.execute_ns", OPS, |ops| {
            for _ in 0..ops {
                let remote = remote_pool.as_mut().map(|pool| RemoteTier { pool });
                let mut ctx = ExecCtx::new(AFTER_RUN, pool, remote, storage, &profile.cost_model)
                    .with_isolation(isolation);
                let mut txn = db.begin();
                let out = execute(db, &mut ctx, &mut txn, stmt, &[Value::Int(next_key())]);
                black_box(out.expect("t3 must execute"));
                db.commit(&mut ctx, txn);
            }
            executed += ops;
        });
        let pages_per_get = (touches(pool) - before) / executed as f64;

        // Uniform sweep starts, as T5 draws them; every sweep visits `span`
        // rows because orders are never deleted.
        let span = SCAN_ROWS.min(hi - lo + 1);
        let sweeps = MIN_BATCH_OPS.div_ceil(span as usize);
        let rows_per_batch = sweeps * span as usize;
        let before = touches(pool);
        let mut scanned = 0usize;
        p.probe("engine.btree.scan_ns_per_row", rows_per_batch, |_| {
            for _ in 0..sweeps {
                let start = rng.range_inclusive(lo, hi - span + 1);
                let remote = remote_pool.as_mut().map(|pool| RemoteTier { pool });
                let mut ctx = ExecCtx::new(AFTER_RUN, pool, remote, storage, &profile.cost_model)
                    .with_isolation(isolation);
                let mut rows = 0i64;
                db.scan_range(&mut ctx, orders, start, start + span - 1, |_, _| {
                    rows += 1;
                    true
                });
                assert_eq!(black_box(rows), span, "a sweep inside the table is full");
            }
            scanned += rows_per_batch;
        });
        TreeShape {
            pages_per_get,
            pages_per_scanned_row: (touches(pool) - before) / scanned as f64,
        }
    };

    let db = &mut dep.db;
    p.probe("engine.btree.get_ns", OPS, |ops| {
        for _ in 0..ops {
            black_box(db.get_at(orders, next_key(), AFTER_RUN));
        }
    });

    // Insert + delete of a fresh key above the loaded range: the tree work
    // of T1/T4 without WAL or cost accounting (the recovery entry points).
    let template = db
        .get_at(orders, lo, AFTER_RUN)
        .expect("first order exists");
    let mut fresh_key = hi + 1_000_000;
    let mut alog = cb_engine::AccessLog::new();
    p.probe("engine.btree.insert_delete_ns", OPS, |ops| {
        for _ in 0..ops {
            fresh_key += 1;
            let mut row = template.clone();
            row.values[0] = Value::Int(fresh_key);
            db.apply_insert_raw(orders, fresh_key, &row.encode(), &mut alog);
            db.apply_delete_raw(orders, fresh_key, &mut alog);
            alog.clear();
        }
    });

    // A fresh pool of the node's capacity and policy: the run's own pool
    // stays as the run left it for the counters read before this.
    let capacity = dep.nodes[0].pool.capacity().max(2);
    let policy = dep.nodes[0].pool.policy_kind();
    let mut pool = BufferPool::with_policy(capacity, policy);
    for i in 0..capacity as u64 {
        pool.touch(PageId(i), false);
    }
    let mut i = 0u64;
    p.probe("engine.bufferpool.touch_hit_ns", OPS, |ops| {
        for _ in 0..ops {
            i = (i + 7919) % capacity as u64;
            black_box(pool.touch(PageId(i), false));
        }
    });
    let mut cold = capacity as u64;
    p.probe("engine.bufferpool.touch_evict_ns", OPS, |ops| {
        for _ in 0..ops {
            cold += 1;
            black_box(pool.touch(PageId(cold), cold.is_multiple_of(3)));
        }
    });

    let mut locks = LockTable::new();
    let mut release = AFTER_RUN;
    p.probe("engine.locks.register_ns", OPS, |ops| {
        for _ in 0..ops {
            release += SimDuration::from_micros(50);
            locks.register(&[(orders, next_key())], release);
        }
    });
    // Half the probed keys are held (abort), half are free (proceed).
    let mut held = LockTable::new();
    for k in 0..64i64 {
        held.register(&[(orders, k)], SimTime::MAX);
    }
    let mut k = 0i64;
    p.probe("engine.locks.conflict_probe_ns", OPS, |ops| {
        for _ in 0..ops {
            k += 1;
            black_box(held.conflict_probe(&[(orders, k & 127)], AFTER_RUN));
        }
    });

    let mut stream = dep.profile.replication_stream();
    let mut lsn = 0u64;
    let mut at = AFTER_RUN;
    p.probe("cluster.replication.on_commit_ns", OPS, |ops| {
        for _ in 0..ops {
            lsn += 3;
            at += SimDuration::from_micros(60);
            black_box(stream.on_commit(cb_store::Lsn(lsn), at, 2));
        }
    });

    shape
}

/// `Database::get_at` against 32-deep version chains on a 64-row hot set:
/// the state back-to-back hot writers leave between GC sweeps. The snapshot
/// sits mid-chain, so a read walks half the versions and decodes one.
pub fn mvcc_probe(p: &mut Probes<'_>) {
    use cb_engine::{ColumnDef, DataType, Schema};
    let mut db = Database::new();
    let t = db.create_table(
        "hot",
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
        ]),
    );
    db.load_bulk(
        t,
        (0..64i64).map(|k| Row::new(vec![Value::Int(k), Value::Int(0)])),
    );
    for ts in 1..=32u64 {
        for k in 0..64i64 {
            let pre = Row::new(vec![Value::Int(k), Value::Int(ts as i64 - 1)]).encode();
            db.versions_mut()
                .publish((t, k), Some(&pre), SimTime::from_millis(ts * 10));
        }
    }
    let mut k = 0i64;
    p.probe("engine.mvcc.get_at_ns", OPS, |ops| {
        for _ in 0..ops {
            k += 1;
            black_box(db.get_at(t, k & 63, SimTime::from_millis(165)));
        }
    });
}

/// WAL append and the wire codec. `records` are real records from a run's
/// log (the codec probes cycle through them).
pub fn wal_probes(p: &mut Probes<'_>, records: &[WalRecord]) {
    assert!(!records.is_empty(), "codec probes need log records");
    // Payloads are built up front so a batch times `append` alone; the log
    // grows across batches, so every 1024th append pays its segment seal.
    let mut payloads: Vec<WalOp> = (0..(OPS * (BATCHES + 1)) as i64)
        .map(|k| WalOp::Insert {
            table: TableId(1),
            key: k,
            row: vec![0u8; 64],
        })
        .collect();
    let mut log = LogStore::new();
    p.probe("store.wal.append_ns", OPS, |ops| {
        for _ in 0..ops {
            let op = payloads.pop().expect("one payload per timed append");
            black_box(log.append(TxnId(1), op));
        }
    });

    let mut scratch = Vec::with_capacity(4096);
    let mut i = 0usize;
    p.probe("store.codec.encode_ns_per_record", OPS, |ops| {
        for _ in 0..ops {
            i = (i + 1) % records.len();
            scratch.clear();
            encode_record_into(&records[i], &mut scratch);
            black_box(scratch.len());
        }
    });
    let frames: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
    p.probe("store.codec.decode_ns_per_record", OPS, |ops| {
        for _ in 0..ops {
            i = (i + 1) % frames.len();
            black_box(decode_record(&frames[i], 0).expect("own frames decode"));
        }
    });
}

/// cb-sim, cb-obs and cb-load: stateless layers paid once or more per
/// simulated transaction.
pub fn substrate_probes(p: &mut Probes<'_>, seed: u64) {
    // 64 clients contend for 4 vCores, each re-arming after its slot ends.
    let mut cpu = CpuResource::new(4.0);
    let mut clients = [SimTime::ZERO; 64];
    let mut c = 0usize;
    p.probe("sim.cpu.reserve_ns", OPS, |ops| {
        for _ in 0..ops {
            c = (c + 1) & 63;
            let slot = cpu.reserve(clients[c], SimDuration::from_micros(40));
            clients[c] = slot.end + SimDuration::from_micros(1200);
        }
    });

    let mut events: EventQueue<u32> = EventQueue::new();
    for i in 0..64u32 {
        events.schedule(SimTime::from_micros(u64::from(i) * 17), i);
    }
    p.probe("sim.events.schedule_pop_ns", OPS, |ops| {
        for _ in 0..ops {
            let (at, id) = events.pop().expect("64 events stay pending");
            events.schedule(at + SimDuration::from_micros(1000 + u64::from(id)), id);
        }
    });

    let mut rng = DetRng::seeded(seed);
    p.probe("sim.rng.draw_ns", OPS, |ops| {
        for _ in 0..ops {
            black_box(rng.range_inclusive(1, 300_000));
        }
    });

    let horizon = SimDuration::from_secs(3600);
    let mut tps = TpsRecorder::with_horizon(SimDuration::from_secs(1), horizon);
    let mut at = SimTime::ZERO;
    p.probe("sim.series.tps_record_ns", OPS, |ops| {
        for _ in 0..ops {
            at += SimDuration::from_micros(30);
            tps.record(at);
        }
    });

    let mut device = Device::with_defaults(DeviceKind::NetworkSsd, Some(20_000));
    let mut at = SimTime::ZERO;
    p.probe("sim.device.submit_ns", OPS, |ops| {
        for _ in 0..ops {
            at += SimDuration::from_micros(40);
            black_box(device.access(at));
        }
    });

    let mut hist = LogHistogram::new();
    let mut v = 1u64;
    p.probe("obs.hist.record_ns", OPS, |ops| {
        for _ in 0..ops {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(1_000_000 + (v >> 44));
        }
    });

    let mut at = SimTime::ZERO;
    for (name, sink) in [
        ("obs.sink.disabled_span_ns", ObsSink::disabled()),
        ("obs.sink.enabled_span_ns", ObsSink::enabled()),
    ] {
        p.probe(name, OPS, |ops| {
            for _ in 0..ops {
                at += SimDuration::from_micros(30);
                sink.span(
                    Category::Txn,
                    "t3",
                    1,
                    at,
                    at + SimDuration::from_micros(25),
                );
            }
        });
    }

    // One export of a 20 000-span journal per batch.
    let events_per_export = 20_000usize;
    let sink = ObsSink::enabled();
    for i in 0..events_per_export as u64 {
        let at = SimTime::from_micros(i * 30);
        sink.span(
            Category::Txn,
            "t3",
            i & 63,
            at,
            at + SimDuration::from_micros(25),
        );
    }
    p.probe(
        "obs.export.chrome_trace_ns_per_event",
        events_per_export,
        |_| {
            black_box(sink.with(chrome_trace_json));
        },
    );

    let mut arrivals = ArrivalGen::new(ArrivalProcess::poisson(16_000.0), seed);
    p.probe("load.process.poisson_next_ns", OPS, |ops| {
        for _ in 0..ops {
            black_box(arrivals.next_arrival());
        }
    });
}
