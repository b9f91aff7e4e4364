//! Criterion microbenchmarks of the storage-engine hot paths: B+tree point
//! operations, buffer-pool touches, WAL appends, and row codec throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cb_engine::btree::{AccessLog, BTree, BatchIngest};
use cb_engine::{BufferPool, EvictionPolicyKind, Row, Value};
use cb_store::{LogStore, PageId, PageStore, TxnId, WalOp, DEFAULT_SEGMENT_RECORDS};

fn bench_btree(c: &mut Criterion) {
    let mut store = PageStore::new();
    let mut tree = BTree::create(&mut store);
    let mut log = AccessLog::new();
    for k in 0..100_000i64 {
        tree.insert(&mut store, k, format!("value-{k}").as_bytes(), &mut log)
            .expect("unique keys");
        log.clear();
    }
    c.bench_function("btree_get_100k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            let mut alog = AccessLog::new();
            black_box(tree.get(&store, k, &mut alog))
        })
    });
    c.bench_function("btree_insert_delete", |b| {
        let mut k = 200_000i64;
        b.iter(|| {
            k += 1;
            let mut alog = AccessLog::new();
            tree.insert(&mut store, k, b"payload", &mut alog)
                .expect("fresh key");
            tree.delete(&mut store, k, &mut alog);
        })
    });
    c.bench_function("btree_scan_1k", |b| {
        let mut lo = 0i64;
        b.iter(|| {
            lo = (lo + 7919) % 99_000;
            let mut alog = AccessLog::new();
            let mut sum = 0u64;
            tree.scan_range(&store, lo, lo + 999, &mut alog, |k, p| {
                sum = sum.wrapping_add(k as u64).wrapping_add(p.len() as u64);
                true
            });
            black_box(sum)
        })
    });
}

fn bench_btree_ingest(c: &mut Criterion) {
    // Directly comparable to `btree_insert_delete`: same pre-seeded tree,
    // same ascending keys, but inserts ride the BatchIngest right-edge
    // cursor (and are not deleted — sorted ingest grows the tree, which
    // only penalizes this bench as leaves keep splitting).
    let mut store = PageStore::new();
    let mut tree = BTree::create(&mut store);
    let mut log = AccessLog::new();
    for k in 0..100_000i64 {
        tree.insert(&mut store, k, format!("value-{k}").as_bytes(), &mut log)
            .expect("unique keys");
        log.clear();
    }
    c.bench_function("btree_ingest_sorted", |b| {
        let mut cur = BatchIngest::new();
        let mut k = 200_000i64;
        b.iter(|| {
            k += 1;
            let mut alog = AccessLog::new();
            tree.insert_sorted(&mut store, &mut cur, k, b"payload", &mut alog)
                .expect("fresh key");
        })
    });
}

fn bench_secondary(c: &mut Criterion) {
    use cb_engine::secondary::SecondaryIndex;
    let mut store = PageStore::new();
    let mut idx = SecondaryIndex::create(&mut store, 1);
    let mut alog = AccessLog::new();
    for pk in 0..50_000i64 {
        idx.add(&mut store, pk % 5_000, pk, &mut alog);
        alog.clear();
    }
    c.bench_function("secondary_lookup_10", |b| {
        let mut v = 0i64;
        b.iter(|| {
            v = (v + 97) % 5_000;
            let mut alog = AccessLog::new();
            black_box(idx.lookup(&store, v, &mut alog))
        })
    });
}

fn bench_bufferpool(c: &mut Criterion) {
    c.bench_function("bufferpool_touch_hit", |b| {
        let mut pool = BufferPool::new(1024);
        for i in 0..1024u64 {
            pool.touch(PageId(i), false);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 1024;
            black_box(pool.touch(PageId(i), false))
        })
    });
    c.bench_function("bufferpool_touch_evict", |b| {
        let mut pool = BufferPool::new(256);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(pool.touch(PageId(i), i.is_multiple_of(3)))
        })
    });
    // Per-policy touch cost under mixed hit/evict traffic: a hot stride
    // plus a cold streaming component, so every policy exercises its hit
    // path, its insert path, and its victim selection (the SIEVE/CLOCK
    // sweep, LRU-K's two lists) in one routine. All four must stay O(1).
    for (kind, name) in [
        (EvictionPolicyKind::Lru, "bufferpool_touch_lru"),
        (EvictionPolicyKind::Sieve, "bufferpool_touch_sieve"),
        (EvictionPolicyKind::Clock, "bufferpool_touch_clock"),
        (EvictionPolicyKind::LruK, "bufferpool_touch_lruk"),
    ] {
        c.bench_function(name, |b| {
            let mut pool = BufferPool::with_policy(256, kind);
            for i in 0..256u64 {
                pool.touch(PageId(i), false);
            }
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                // 3 hot re-touches within the resident stride, then one
                // cold page that forces an eviction.
                let id = if i.is_multiple_of(4) {
                    1_000_000 + i
                } else {
                    (i * 13) % 192
                };
                black_box(pool.touch(PageId(id), i.is_multiple_of(3)))
            })
        });
    }
}

fn bench_wal(c: &mut Criterion) {
    // Payload construction (the row image a txn hands the WAL) happens in
    // untimed setup; the routine times the append path itself — 64 appends
    // into the preallocated active tail, no reallocation anywhere.
    fn ops(n: i64) -> Vec<WalOp> {
        (0..n)
            .map(|k| WalOp::Insert {
                table: cb_store::TableId(1),
                key: k,
                row: vec![0u8; 64],
            })
            .collect()
    }
    c.bench_function("wal_append_insert", |b| {
        b.iter_batched(
            || (LogStore::new(), ops(64)),
            |(mut log, ops)| {
                for op in ops {
                    log.append(TxnId(1), op);
                }
                log
            },
            BatchSize::SmallInput,
        )
    });
    // A full segment plus change per iteration: the run seals the
    // preallocated tail once and keeps appending into the next segment,
    // so the per-append cost includes its amortized share of a seal.
    c.bench_function("wal_append_batch", |b| {
        let n = (DEFAULT_SEGMENT_RECORDS + 64) as i64;
        b.iter_batched(
            || (LogStore::new(), ops(n)),
            |(mut log, ops)| {
                for op in ops {
                    log.append(TxnId(1), op);
                }
                log
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_replay(c: &mut Criterion) {
    use cb_engine::recovery::redo_committed;
    use cb_engine::Database;
    use cb_sim::{Device, DeviceKind, SimDuration, SimTime};
    use cb_store::{Lsn, StorageArch, StorageService, WalRecord};
    use cloudybench::replay::redo_committed_parallel;

    fn schema() -> cb_engine::Schema {
        use cb_engine::{ColumnDef, DataType};
        cb_engine::Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
        ])
    }
    fn base() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", schema());
        // A 10k-row hot set the update traffic lands on.
        db.load_bulk(
            t,
            (0..10_000).map(|k| Row::new(vec![Value::Int(k), Value::Int(k)])),
        );
        db
    }
    // Build a 100k-committed-DML-record log once (setup, untimed): each txn
    // inserts five fresh rows and updates five hot ones — the shape of the
    // testbed's insert/update OLTP mixes, and what a recovery tail looks
    // like.
    let mut db = base();
    let t = db.table_id("t").unwrap();
    let mut pool = BufferPool::new(4096);
    let mut st = StorageService::new(
        StorageArch::Coupled,
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
        None,
        1,
        SimDuration::ZERO,
    );
    let model = cb_engine::CostModel::default();
    let mut ctx = cb_engine::ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
    let mut k = 10_000i64;
    for i in 0..10_000i64 {
        let mut txn = db.begin();
        for _ in 0..5 {
            db.insert(
                &mut ctx,
                &mut txn,
                t,
                Row::new(vec![Value::Int(k), Value::Int(k)]),
            )
            .expect("unique keys");
            k += 1;
        }
        for j in 0..5i64 {
            let hot = (i * 7 + j * 13) % 10_000;
            db.update(&mut ctx, &mut txn, t, hot, |r| r.values[1] = Value::Int(i))
                .expect("hot key present");
        }
        db.commit(&mut ctx, txn);
    }
    let records: Vec<&WalRecord> = db.log().records_after(Lsn::ZERO).collect();

    // Same worker count the chaos campaigns and experiment scheduler use:
    // the machine's available parallelism (lanes degrade to an inline
    // single scan on a 1-core host).
    let jobs = cloudybench::parallel::default_jobs();
    c.bench_function("replay_100k", |b| {
        b.iter_batched(
            base,
            |mut fresh| {
                black_box(redo_committed_parallel(
                    &mut fresh,
                    &records,
                    &std::collections::HashSet::new(),
                    jobs,
                ));
                fresh
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("replay_100k_seq", |b| {
        b.iter_batched(
            base,
            |mut fresh| {
                black_box(redo_committed(&mut fresh, records.iter().copied()));
                fresh
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_mvcc(c: &mut Criterion) {
    use cb_engine::{Database, LockTable};
    use cb_sim::SimTime;

    fn schema() -> cb_engine::Schema {
        use cb_engine::{ColumnDef, DataType};
        cb_engine::Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
        ])
    }
    // A T2-style hot set: 64 rows, each carrying a 32-deep version chain —
    // the state back-to-back hot payments leave behind between GC sweeps.
    let mut db = Database::new();
    let t = db.create_table("hot", schema());
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
    // A snapshot in the middle of the chain: the read walks ~half the
    // versions before it finds the first image at or below its timestamp,
    // then decodes it — the full hot-read path under write contention.
    c.bench_function("mvcc_read_hot_write", |b| {
        let mut k = 0i64;
        b.iter(|| {
            let key = k & 63;
            k += 1;
            black_box(db.get_at(t, key, SimTime::from_millis(165)))
        })
    });

    // The first-committer-wins decision: probe a lock table where half the
    // keys are held by concurrent writers (abort) and half are free
    // (proceed) — the per-attempt overhead SI adds to every write txn.
    let mut locks = LockTable::new();
    for k in 0..64i64 {
        locks.register(&[(t, k)], SimTime::from_secs(3600));
    }
    c.bench_function("si_abort_rate", |b| {
        let mut k = 0i64;
        b.iter(|| {
            let key = k & 127;
            k += 1;
            black_box(locks.conflict_probe(&[(t, key)], SimTime::from_millis(1)))
        })
    });
}

fn bench_shard(c: &mut Criterion) {
    use cb_sim::SimTime;
    use cb_sut::SutProfile;
    use cloudybench::sharded::{ShardMap, ShardedDeployment, TwoPhaseCoordinator};

    // Routing: pure arithmetic per key — the per-statement overhead a
    // sharded deployment adds to every primary-key access.
    let hash = ShardMap::hash(8);
    let range = ShardMap::range_even(100_000, 8);
    c.bench_function("shard_route_hash", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(hash.shard_of(k))
        })
    });
    c.bench_function("shard_route_range", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(range.shard_of(k))
        })
    });

    // 16 cross-shard transfers through the production coordinator on a
    // two-shard fleet (100 orders / 100 customers per engine, split at 50):
    // SQL execute + prepare on both participants, the decision log entry,
    // then the commit fan-out.
    c.bench_function("sharded_2pc_commit", |b| {
        b.iter_batched(
            || {
                let map = ShardMap::range_even(100, 2);
                ShardedDeployment::new(SutProfile::aws_rds(), 1, 3000, map, 1)
            },
            |mut sd| {
                let mut coord = TwoPhaseCoordinator::new();
                for i in 1..=16i64 {
                    let p = coord
                        .begin_transfer(&mut sd, i, 100 - i, 100, SimTime::ZERO)
                        .expect("keys straddle the split");
                    coord.decide(&mut sd, p, true, SimTime::ZERO);
                }
                (sd, coord.stats)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_row_codec(c: &mut Criterion) {
    let row = Row::new(vec![
        Value::Int(42),
        Value::Int(77),
        Value::Text("PAID".into()),
        Value::Int(123_456),
        Value::Timestamp(1_700_000_000_000),
        Value::Timestamp(1_700_000_000_001),
    ]);
    let encoded = row.encode();
    c.bench_function("row_encode", |b| b.iter(|| black_box(row.encode())));
    c.bench_function("row_decode", |b| {
        b.iter(|| black_box(Row::decode(&encoded)))
    });
}

criterion_group!(
    benches,
    bench_btree,
    bench_btree_ingest,
    bench_secondary,
    bench_bufferpool,
    bench_wal,
    bench_replay,
    bench_mvcc,
    bench_shard,
    bench_row_codec
);
criterion_main!(benches);
