//! Property tests for the simulation kernel.

use cb_sim::{CpuResource, DetRng, Device, GaugeSeries, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Gauge integrals are additive: ∫[a,c] = ∫[a,b] + ∫[b,c].
    #[test]
    fn gauge_integral_additive(
        points in prop::collection::vec((0u64..10_000, 0.0f64..16.0), 1..40),
        split in 0u64..10_000,
        end in 0u64..10_000,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let mut g = GaugeSeries::starting_at(1.0);
        let mut last = 0u64;
        for (t, v) in sorted {
            let t = t.max(last);
            g.set(SimTime::from_millis(t), v);
            last = t;
        }
        let (b, c) = if split <= end { (split, end) } else { (end, split) };
        let a = SimTime::ZERO;
        let tb = SimTime::from_millis(b);
        let tc = SimTime::from_millis(c);
        let whole = g.integral(a, tc);
        let parts = g.integral(a, tb) + g.integral(tb, tc);
        prop_assert!((whole - parts).abs() < 1e-6, "{whole} vs {parts}");
    }

    /// Gauge value_at returns the most recent set value.
    #[test]
    fn gauge_value_is_right_continuous(v1 in 0.0f64..8.0, v2 in 0.0f64..8.0) {
        let mut g = GaugeSeries::starting_at(v1);
        g.set(SimTime::from_secs(10), v2);
        prop_assert_eq!(g.value_at(SimTime::from_secs(9)), v1);
        prop_assert_eq!(g.value_at(SimTime::from_secs(10)), v2);
        prop_assert_eq!(g.value_at(SimTime::from_secs(11)), v2);
    }

    /// CPU reservations: the slot never starts before the request, service
    /// time scales with capacity, and busy accounting sums the demands.
    #[test]
    fn cpu_reservation_invariants(
        vcores in 0.25f64..8.0,
        demands in prop::collection::vec(1u64..5_000, 1..50),
    ) {
        let mut cpu = CpuResource::new(vcores);
        let mut total = SimDuration::ZERO;
        let mut makespan = SimTime::ZERO;
        for d in &demands {
            let demand = SimDuration::from_micros(*d);
            let slot = cpu.reserve(SimTime::ZERO, demand);
            prop_assert!(slot.end > slot.start);
            total += demand;
            makespan = makespan.max(slot.end);
        }
        prop_assert!((cpu.busy_core_secs() - total.as_secs_f64()).abs() < 1e-9);
        // Work conservation: makespan can never beat total_demand / capacity.
        let lower_bound = total.as_secs_f64() / vcores;
        prop_assert!(
            makespan.as_secs_f64() >= lower_bound * 0.999,
            "makespan {} < bound {}", makespan.as_secs_f64(), lower_bound
        );
    }

    /// Devices never complete an op before its issue time + latency, and an
    /// IOPS-capped device spaces operations at least 1/IOPS apart.
    #[test]
    fn device_spacing(iops in 100u64..100_000, n in 1u64..200) {
        let mut d = Device::new(SimDuration::from_micros(100), Some(iops));
        let mut last_delay = SimDuration::ZERO;
        for _ in 0..n {
            let delay = d.access(SimTime::ZERO);
            prop_assert!(delay >= SimDuration::from_micros(100));
            prop_assert!(delay >= last_delay);
            last_delay = delay;
        }
        // n ops at the same instant: the last waits ~ (n-1)/iops.
        let expected = SimDuration::from_nanos((n - 1) * (1_000_000_000 / iops));
        prop_assert!(last_delay >= expected);
    }

    /// Deterministic RNG forks reproduce exactly.
    #[test]
    fn rng_fork_determinism(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = DetRng::seeded(seed).fork(stream);
        let mut b = DetRng::seeded(seed).fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }
}
