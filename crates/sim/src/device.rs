//! I/O device and network models.
//!
//! A [`Device`] is a latency + IOPS-throttled queue: every access pays the
//! device latency, and back-to-back accesses are spaced at least `1/IOPS`
//! apart, so a saturated device exhibits queueing delay exactly like a real
//! provisioned-IOPS volume. A [`NetworkLink`] pays propagation latency plus
//! serialization time for the transferred bytes.

use crate::time::{SimDuration, SimTime};

/// The kind of device, which sets its class-default latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Instance-local NVMe SSD (AWS RDS style).
    LocalNvme,
    /// Network-attached replicated SSD (disaggregated page/log stores).
    NetworkSsd,
    /// Remote memory reached over RDMA (memory disaggregation).
    RemoteMemory,
    /// Cloud object storage (cold tier).
    ObjectStore,
}

impl DeviceKind {
    /// A reasonable default access latency for the device class.
    pub(crate) fn default_latency(self) -> SimDuration {
        match self {
            DeviceKind::LocalNvme => SimDuration::from_micros(90),
            DeviceKind::NetworkSsd => SimDuration::from_micros(450),
            DeviceKind::RemoteMemory => SimDuration::from_micros(4),
            DeviceKind::ObjectStore => SimDuration::from_millis(25),
        }
    }
}

/// A single I/O device with a fixed access latency and an IOPS ceiling.
#[derive(Clone, Debug)]
pub struct Device {
    latency: SimDuration,
    /// Minimum spacing between operation starts (`1e9 / IOPS` ns); zero means
    /// unthrottled.
    min_gap: SimDuration,
    next_slot: SimTime,
    ops: u64,
}

impl Device {
    /// A device with explicit `latency` and `iops` ceiling (`None` =
    /// unthrottled).
    pub fn new(latency: SimDuration, iops: Option<u64>) -> Self {
        let min_gap = match iops {
            Some(iops) if iops > 0 => SimDuration::from_nanos(1_000_000_000 / iops),
            _ => SimDuration::ZERO,
        };
        Device {
            latency,
            min_gap,
            next_slot: SimTime::ZERO,
            ops: 0,
        }
    }

    /// A device of `kind` with its class-default latency.
    pub fn with_defaults(kind: DeviceKind, iops: Option<u64>) -> Self {
        Device::new(kind.default_latency(), iops)
    }

    /// Perform one access starting no earlier than `now`; returns the delay
    /// until completion as seen by the caller (queueing + latency).
    pub fn access(&mut self, now: SimTime) -> SimDuration {
        let start = now.max(self.next_slot);
        self.next_slot = start + self.min_gap;
        self.ops += 1;
        (start + self.latency).saturating_since(now)
    }

    /// Total operations served.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// A network link with propagation latency and bandwidth.
#[derive(Clone, Copy, Debug)]
pub struct NetworkLink {
    latency: SimDuration,
    gbps: f64,
}

impl NetworkLink {
    /// TCP/IP datacenter link defaults: 120us RTT-ish one-way latency.
    pub fn tcp(gbps: f64) -> Self {
        NetworkLink {
            latency: SimDuration::from_micros(120),
            gbps,
        }
    }

    /// RDMA link defaults: ~3us one-way latency.
    pub fn rdma(gbps: f64) -> Self {
        NetworkLink {
            latency: SimDuration::from_micros(3),
            gbps,
        }
    }

    /// Time to move `bytes` across the link: latency + serialization.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        let ser_secs = (bytes as f64 * 8.0) / (self.gbps * 1e9);
        self.latency + SimDuration::from_secs_f64(ser_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_device_is_pure_latency() {
        let mut d = Device::new(SimDuration::from_micros(100), None);
        assert_eq!(d.access(SimTime::ZERO), SimDuration::from_micros(100));
        assert_eq!(d.access(SimTime::ZERO), SimDuration::from_micros(100));
        assert_eq!(d.ops(), 2);
    }

    #[test]
    fn iops_cap_spaces_operations() {
        // 1000 IOPS => 1ms spacing.
        let mut d = Device::new(SimDuration::from_micros(500), Some(1000));
        assert_eq!(d.access(SimTime::ZERO), SimDuration::from_micros(500));
        // Second op at t=0 must wait until t=1ms to start.
        assert_eq!(d.access(SimTime::ZERO), SimDuration::from_micros(1500));
        // An op arriving after the backlog drains pays only latency.
        assert_eq!(
            d.access(SimTime::from_millis(10)),
            SimDuration::from_micros(500)
        );
    }

    #[test]
    fn default_latencies_rank_sanely() {
        assert!(
            DeviceKind::RemoteMemory.default_latency() < DeviceKind::LocalNvme.default_latency()
        );
        assert!(DeviceKind::LocalNvme.default_latency() < DeviceKind::NetworkSsd.default_latency());
        assert!(
            DeviceKind::NetworkSsd.default_latency() < DeviceKind::ObjectStore.default_latency()
        );
    }

    #[test]
    fn network_transfer_includes_serialization() {
        let link = NetworkLink::tcp(10.0);
        // 125 MB at 10 Gbps = 0.1s serialization.
        let d = link.transfer(125_000_000);
        assert_eq!(
            d,
            SimDuration::from_micros(120) + SimDuration::from_millis(100)
        );
        // RDMA beats TCP for the same payload.
        assert!(NetworkLink::rdma(10.0).transfer(8192) < NetworkLink::tcp(10.0).transfer(8192));
    }
}
