//! A multi-server virtual CPU with fractional capacity and exact accounting.
//!
//! Each compute node owns one [`CpuResource`]. A transaction that needs `d`
//! nanoseconds of CPU work reserves the earliest free slot among the node's
//! virtual cores; with `v` allocated vCores the node's aggregate service rate
//! is exactly `v` core-seconds per second, so throughput saturates naturally
//! at `v / d` — the same closed-loop behaviour the paper's concurrency sweeps
//! exercise on real instances.
//!
//! Fractional allocations (Neon-style 0.25 CU, Hyperscale-style 0.5 vCore)
//! are modelled as `ceil(v)` servers each running at speed `v / ceil(v)`.

use crate::time::{SimDuration, SimTime};

/// Outcome of a CPU reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSlot {
    /// When the work actually starts (>= the requested instant).
    pub start: SimTime,
    /// When the work completes.
    pub end: SimTime,
}

/// A virtual CPU with a dynamic number of (possibly fractional) vCores.
#[derive(Clone, Debug)]
pub struct CpuResource {
    vcores: f64,
    /// Next-free instant per virtual server.
    servers: Vec<SimTime>,
    /// Service speed of each server (1.0 = a full physical core).
    speed: f64,
    /// Total busy core-nanoseconds (for utilization sampling).
    busy_ns: f64,
}

impl CpuResource {
    /// A CPU with `vcores` of capacity (must be positive).
    pub fn new(vcores: f64) -> Self {
        assert!(vcores > 0.0, "CPU must start with positive capacity");
        let n = vcores.ceil() as usize;
        CpuResource {
            vcores,
            servers: vec![SimTime::ZERO; n],
            speed: vcores / n as f64,
            busy_ns: 0.0,
        }
    }

    /// Currently allocated vCores.
    pub fn vcores(&self) -> f64 {
        self.vcores
    }

    /// True if the node is paused (scaled to zero).
    pub fn is_paused(&self) -> bool {
        self.vcores == 0.0
    }

    /// Reserve `demand` core-nanoseconds of work starting no earlier than
    /// `now`. Panics if the node is paused — callers must resume first.
    pub fn reserve(&mut self, now: SimTime, demand: SimDuration) -> CpuSlot {
        assert!(!self.is_paused(), "reserve() on a paused CPU");
        // Earliest-free server wins; ties resolve to the lowest index, which
        // keeps runs deterministic.
        let (idx, _) = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .expect("at least one server");
        let start = now.max(self.servers[idx]);
        let service = demand.div_f64(self.speed);
        let end = start + service;
        self.servers[idx] = end;
        // `demand` core-ns of real work were performed regardless of speed.
        self.busy_ns += demand.as_nanos() as f64;
        CpuSlot { start, end }
    }

    /// Change the allocation to `vcores` at instant `now`. `0.0` pauses the
    /// node (Neon-style scale-to-zero); work already reserved is unaffected.
    pub fn set_vcores(&mut self, now: SimTime, vcores: f64) {
        assert!(vcores >= 0.0, "negative vCores");
        self.vcores = vcores;
        if vcores == 0.0 {
            self.servers.clear();
            self.speed = 0.0;
            return;
        }
        let n = vcores.ceil() as usize;
        // Preserve the busiest in-flight horizons so scaling down does not
        // erase queued work; new servers become free immediately.
        self.servers.sort_unstable_by(|a, b| b.cmp(a));
        self.servers.truncate(n);
        while self.servers.len() < n {
            self.servers.push(now);
        }
        for s in &mut self.servers {
            *s = (*s).max(now);
        }
        self.speed = vcores / n as f64;
    }

    /// Total busy core-seconds so far.
    pub fn busy_core_secs(&self) -> f64 {
        self.busy_ns / 1e9
    }

    /// Utilization over a sampling window: the busy core-seconds observed
    /// between its edges over the vCore-seconds allocated in it, clamped to
    /// [0, 1]; 0 for a window with (next to) no allocation.
    pub fn utilization(busy_delta_core_secs: f64, vcore_secs: f64) -> f64 {
        if vcore_secs > 1e-9 {
            (busy_delta_core_secs / vcore_secs).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn single_core_serializes_work() {
        let mut cpu = CpuResource::new(1.0);
        let a = cpu.reserve(SimTime::ZERO, MS);
        let b = cpu.reserve(SimTime::ZERO, MS);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_millis(1));
        assert_eq!(b.start, SimTime::from_millis(1));
        assert_eq!(b.end, SimTime::from_millis(2));
    }

    #[test]
    fn multi_core_runs_in_parallel() {
        let mut cpu = CpuResource::new(4.0);
        for _ in 0..4 {
            let s = cpu.reserve(SimTime::ZERO, MS);
            assert_eq!(s.start, SimTime::ZERO);
        }
        // Fifth request queues behind one of the four.
        let s = cpu.reserve(SimTime::ZERO, MS);
        assert_eq!(s.start, SimTime::from_millis(1));
    }

    #[test]
    fn fractional_capacity_slows_service() {
        let mut cpu = CpuResource::new(0.5);
        let s = cpu.reserve(SimTime::ZERO, MS);
        // Half a core => the 1ms demand takes 2ms of wall time.
        assert_eq!(s.end, SimTime::from_millis(2));
    }

    #[test]
    fn throughput_saturates_at_capacity() {
        // 2 vCores, 1ms demand => at most 2000 txn/s regardless of clients.
        let mut cpu = CpuResource::new(2.0);
        let mut done = 0u64;
        let horizon = SimTime::from_secs(1);
        let mut clients = vec![SimTime::ZERO; 64];
        loop {
            let (i, t) = clients
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(i, t)| (*t, *i))
                .unwrap();
            if t >= horizon {
                break;
            }
            let slot = cpu.reserve(t, MS);
            clients[i] = slot.end;
            if slot.end <= horizon {
                done += 1;
            }
        }
        assert!((1990..=2000).contains(&done), "done = {done}");
    }

    #[test]
    fn scaling_down_preserves_queued_work() {
        let mut cpu = CpuResource::new(4.0);
        for _ in 0..8 {
            cpu.reserve(SimTime::ZERO, MS);
        }
        cpu.set_vcores(SimTime::from_micros(100), 1.0);
        // The surviving server keeps the deepest backlog.
        let s = cpu.reserve(SimTime::from_micros(100), MS);
        assert!(s.start >= SimTime::from_millis(2));
    }

    #[test]
    fn pause_and_resume() {
        let mut cpu = CpuResource::new(2.0);
        cpu.set_vcores(SimTime::from_secs(1), 0.0);
        assert!(cpu.is_paused());
        cpu.set_vcores(SimTime::from_secs(2), 1.0);
        let s = cpu.reserve(SimTime::from_secs(2), MS);
        assert_eq!(s.start, SimTime::from_secs(2));
    }

    #[test]
    fn utilization_is_clamped() {
        assert_eq!(CpuResource::utilization(10.0, 5.0), 1.0);
        assert_eq!(CpuResource::utilization(0.0, 5.0), 0.0);
        assert_eq!(CpuResource::utilization(2.5, 0.0), 0.0);
        let u = CpuResource::utilization(2.5, 5.0);
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_accounting_tracks_demand() {
        let mut cpu = CpuResource::new(2.0);
        for _ in 0..10 {
            cpu.reserve(SimTime::ZERO, MS);
        }
        assert!((cpu.busy_core_secs() - 0.010).abs() < 1e-9);
    }
}
