//! Property tests for the storage substrate.

use cb_store::{LogStore, Lsn, PageBuf, PageStore, TableId, TxnId, WalOp};
use proptest::prelude::*;

fn insert_op(key: i64, len: usize) -> WalOp {
    WalOp::Insert {
        table: TableId(0),
        key,
        row: vec![0u8; len % 256],
    }
}

proptest! {
    /// The log's LSNs are dense and ascending across appends and
    /// truncations, and `records_after` returns exactly the retained tail.
    #[test]
    fn log_append_truncate_invariants(
        ops in prop::collection::vec((0i64..100, 0usize..256, prop::bool::ANY), 1..200),
    ) {
        let mut log = LogStore::new();
        let mut expected_head = 0u64;
        for (key, len, truncate) in ops {
            let lsn = log.append(TxnId(1), insert_op(key, len));
            expected_head += 1;
            prop_assert_eq!(lsn, Lsn(expected_head));
            prop_assert_eq!(log.head(), Lsn(expected_head));
            if truncate && expected_head > 2 {
                let through = Lsn(expected_head - 2);
                log.truncate_through(through);
                prop_assert_eq!(log.records_after(through).len(), 2);
                prop_assert_eq!(log.oldest_retained(), Some(Lsn(expected_head - 1)));
            }
        }
    }

    /// The segmented log is observationally equivalent to a flat
    /// `Vec<WalRecord>` model under any interleaving of appends,
    /// checkpoint truncations, and crash discards — with a tiny segment
    /// capacity so every few operations cross a seal, recycle, or
    /// mid-segment boundary.
    #[test]
    fn segmented_log_matches_flat_vec_model(
        cap in 1usize..6,
        ops in prop::collection::vec((0u8..4, 0u64..8, 0i64..100, 0usize..64), 1..300),
    ) {
        use cb_store::WalRecord;

        let mut log = LogStore::with_segment_capacity(cap);
        // Model: every record ever appended, indexed by lsn - 1, plus the
        // truncation horizon. (`discard_after` pops; `truncate_through`
        // only moves the horizon.)
        let mut model: Vec<WalRecord> = Vec::new();
        let mut truncated = 0u64;

        for (kind, pick, key, len) in ops {
            match kind {
                0 | 1 => {
                    let lsn = log.append(TxnId(1 + pick), insert_op(key, len));
                    model.push(WalRecord { lsn, txn: TxnId(1 + pick), op: insert_op(key, len) });
                    prop_assert_eq!(lsn.0, truncated + model.len() as u64);
                }
                2 => {
                    // Checkpoint truncation at an arbitrary retained point.
                    let head = log.head().0;
                    let through = truncated + pick.min(head - truncated);
                    log.truncate_through(Lsn(through));
                    truncated = truncated.max(through);
                }
                _ => {
                    // Crash: discard an arbitrary suffix of the live tail.
                    let head = log.head().0;
                    let after = head.saturating_sub(pick).max(truncated);
                    let expect_dropped = head - after;
                    prop_assert_eq!(log.discard_after(Lsn(after)), expect_dropped);
                    model.truncate((after - model.first().map_or(after, |r| r.lsn.0 - 1)) as usize);
                }
            }
            // Model bookkeeping: drop the dead prefix so model[i] is the
            // record at lsn = first_live + i.
            let first_live = model.first().map_or(truncated, |r| r.lsn.0 - 1);
            if truncated > first_live {
                model.drain(..(truncated - first_live) as usize);
            }

            // Observational equivalence at every step.
            prop_assert_eq!(log.head().0, truncated + model.len() as u64);
            prop_assert_eq!(log.retained(), model.len());
            prop_assert_eq!(
                log.oldest_retained(),
                model.first().map(|r| r.lsn)
            );
            // records_after from the oldest horizon, a mid-segment one, and
            // the (empty) head horizon.
            let head = log.head().0;
            for after in [truncated, truncated + (head - truncated) / 2, head] {
                let iter = log.records_after(Lsn(after));
                prop_assert_eq!(iter.len(), (head - after) as usize, "exact-size hint");
                let got: Vec<&WalRecord> = iter.collect();
                let want: Vec<&WalRecord> =
                    model.iter().filter(|r| r.lsn.0 > after).collect();
                prop_assert_eq!(got, want);
            }
            // Point lookups: every live LSN resolves, horizons miss.
            for r in &model {
                prop_assert_eq!(log.get(r.lsn), Some(r));
            }
            prop_assert_eq!(log.get(Lsn(truncated)), None);
            prop_assert_eq!(log.get(Lsn(log.head().0 + 1)), None);
        }
    }

    /// Page scalar accessors round-trip at arbitrary aligned offsets.
    #[test]
    fn page_scalars_round_trip(off in 0usize..8000, v in any::<u64>()) {
        let off = off.min(8192 - 8);
        let mut p = PageBuf::zeroed();
        p.put_u64(off, v);
        prop_assert_eq!(p.get_u64(off), v);
        p.put_i64(off, v as i64);
        prop_assert_eq!(p.get_i64(off), v as i64);
    }

    /// Allocation never hands out the same page twice, and a page is zero
    /// when handed out, also when its frame comes from a dropped store.
    #[test]
    fn page_store_unique_allocation(drops in prop::collection::vec(prop::bool::ANY, 1..100)) {
        let mut store = PageStore::new();
        let mut live = Vec::new();
        for d in drops {
            if d {
                store = PageStore::new();
                live.clear();
            } else {
                let id = store.allocate();
                prop_assert!(store.contains(id));
                prop_assert!(!live.contains(&id));
                prop_assert!(store.read(id).as_bytes().iter().all(|&b| b == 0));
                store.write(id).as_bytes_mut().fill(0xA5);
                live.push(id);
            }
        }
        prop_assert_eq!(store.live_pages(), live.len());
    }
}

mod codec_props {
    use cb_store::{
        decode_record, decode_segment, encode_segment, Lsn, TableId, TxnId, WalOp, WalRecord,
    };
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = WalOp> {
        let blob = prop::collection::vec(any::<u8>(), 0..200);
        prop_oneof![
            Just(WalOp::Begin),
            Just(WalOp::Commit),
            Just(WalOp::Abort),
            any::<u64>().prop_map(|dirty_pages| WalOp::Checkpoint { dirty_pages }),
            (any::<u16>(), any::<i64>(), blob.clone()).prop_map(|(t, key, row)| WalOp::Insert {
                table: TableId(t),
                key,
                row
            }),
            (any::<u16>(), any::<i64>(), blob.clone(), blob.clone()).prop_map(
                |(t, key, before, after)| WalOp::Update {
                    table: TableId(t),
                    key,
                    before,
                    after
                }
            ),
            (any::<u16>(), any::<i64>(), blob).prop_map(|(t, key, before)| WalOp::Delete {
                table: TableId(t),
                key,
                before
            }),
        ]
    }

    proptest! {
        /// Any record sequence survives the wire intact, and any strict
        /// prefix cut mid-frame is flagged rather than misread.
        #[test]
        fn codec_round_trip(ops in prop::collection::vec(arb_op(), 0..40)) {
            let records: Vec<WalRecord> = ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| WalRecord { lsn: Lsn(i as u64 + 1), txn: TxnId(7), op })
                .collect();
            let bytes = encode_segment(&records);
            prop_assert_eq!(decode_segment(&bytes).unwrap(), records.clone());
            if !bytes.is_empty() {
                // Cutting one byte off must not decode to the same records.
                let r = decode_segment(&bytes[..bytes.len() - 1]).ok();
                prop_assert_ne!(r, Some(records));
            }
        }

        /// Torn-tail recovery: cutting a segment at an arbitrary byte and
        /// decoding frame-by-frame yields exactly the longest record prefix
        /// whose frames survived intact — never a corrupt or phantom record.
        /// This is precisely what crash recovery does with a torn WAL write.
        #[test]
        fn torn_tail_decodes_to_an_exact_record_prefix(
            ops in prop::collection::vec(arb_op(), 1..30),
            cut_frac in 0.0f64..1.0,
        ) {
            let records: Vec<WalRecord> = ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| WalRecord { lsn: Lsn(i as u64 + 1), txn: TxnId(3), op })
                .collect();
            let bytes = encode_segment(&records);
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let torn = &bytes[..cut];
            // Frame-by-frame decode until the first error.
            let mut survivors = Vec::new();
            let mut pos = 0usize;
            while pos < torn.len() {
                match decode_record(torn, pos) {
                    Ok((rec, next)) => {
                        survivors.push(rec);
                        pos = next;
                    }
                    Err(_) => break,
                }
            }
            // The survivors are an exact prefix of the original sequence.
            prop_assert!(survivors.len() <= records.len());
            prop_assert_eq!(&records[..survivors.len()], survivors.as_slice());
            // Nothing torn ever decodes past the cut, and an uncut segment
            // survives whole.
            if cut == bytes.len() {
                prop_assert_eq!(survivors.len(), records.len());
            }
        }
    }
}
