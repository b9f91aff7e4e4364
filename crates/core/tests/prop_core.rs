//! Property tests for CloudyBench's generators: elasticity patterns,
//! tenancy patterns, key partitions, props files.

use cloudybench::config::Props;
use cloudybench::elasticity::{assemble, ElasticPattern};
use cloudybench::tenancy::TenancyPattern;
use cloudybench::workload::KeyPartition;
use proptest::prelude::*;

proptest! {
    /// Pattern concurrencies are the rounded proportions of tau and never
    /// exceed it.
    #[test]
    fn elastic_concurrency_is_proportional(tau in 1u32..5000) {
        for pattern in ElasticPattern::all() {
            let slots = pattern.concurrency(tau);
            let props = pattern.proportions();
            prop_assert_eq!(slots.len(), props.len());
            for (s, p) in slots.iter().zip(props.iter()) {
                prop_assert!(*s <= tau);
                prop_assert_eq!(*s, (p * tau as f64).round() as u32);
            }
        }
        // Assembly preserves order and length.
        let all = assemble(&ElasticPattern::all(), tau);
        prop_assert_eq!(all.len(), 12);
    }

    /// Tenancy tuples scale monotonically and zeros are invariant.
    #[test]
    fn tenancy_slots_scale_monotone(scale in 0.01f64..4.0) {
        for pattern in TenancyPattern::all() {
            let base = pattern.tenant_slots(1.0);
            let scaled = pattern.tenant_slots(scale);
            for (b_row, s_row) in base.iter().zip(&scaled) {
                for (b, s) in b_row.iter().zip(s_row) {
                    if *b == 0 {
                        prop_assert_eq!(*s, 0u32);
                    } else {
                        prop_assert!(*s >= 1, "positives never vanish");
                        if scale >= 1.0 {
                            prop_assert!(*s >= *b);
                        } else {
                            prop_assert!(*s <= *b);
                        }
                    }
                }
            }
        }
    }

    /// Tenant key slices are disjoint and jointly cover the key space.
    #[test]
    fn key_partitions_cover_without_overlap(
        orders in 10u64..100_000,
        customers in 10u64..100_000,
        n in 1usize..12,
    ) {
        let slices: Vec<KeyPartition> = (0..n)
            .map(|i| KeyPartition::tenant_slice(orders, customers, i, n))
            .collect();
        prop_assert_eq!(slices[0].orders_lo, 1);
        prop_assert_eq!(slices[n - 1].orders_hi, orders as i64);
        for w in slices.windows(2) {
            prop_assert_eq!(w[0].orders_hi + 1, w[1].orders_lo, "contiguous, disjoint");
            prop_assert_eq!(w[0].customers_hi + 1, w[1].customers_lo);
        }
        for s in &slices {
            prop_assert!(s.orders_lo <= s.orders_hi);
            prop_assert!(s.customers_lo <= s.customers_hi);
        }
    }

    /// Props files round-trip arbitrary sane keys and values.
    #[test]
    fn props_round_trip(
        pairs in prop::collection::hash_map("[a-zA-Z_][a-zA-Z0-9_]{0,20}", "[ -<>-~]{0,30}", 0..20),
    ) {
        let text: String = pairs
            .iter()
            .map(|(k, v)| format!("{k} = {v}\n"))
            .collect();
        let props = Props::parse(&text).expect("well-formed lines");
        prop_assert_eq!(props.len(), pairs.len());
        for (k, v) in &pairs {
            prop_assert_eq!(props.get(k), Some(v.trim()));
        }
    }
}
