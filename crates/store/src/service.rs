//! Storage service topologies and their simulated access costs.
//!
//! The five systems-under-test differ mostly in *where* logs and pages live
//! and what a compute node pays to reach them. [`StorageService`] captures
//! that: a page device, a log device, an optional network hop (coupled
//! storage has none), a replication factor (cost accounting) and a quorum
//! overhead added to commit-path log appends.

use cb_sim::{Device, NetworkLink, SimDuration, SimTime};

use crate::page::PAGE_SIZE;

/// The storage architecture of a system under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StorageArch {
    /// Compute and storage coupled on the instance (AWS RDS).
    Coupled,
    /// Disaggregated smart storage with redo pushdown (CDB1 / Aurora-like).
    SmartStorage,
    /// Separate log service and page service (CDB2 / Hyperscale-like).
    LogPageSplit,
    /// Safekeeper WAL quorum + pageservers + object-store cold tier
    /// (CDB3 / Neon-like).
    SafekeeperPageserver,
    /// Distributed storage plus a shared remote memory pool (CDB4 /
    /// PolarDB-MP-like).
    MemoryDisagg,
}

impl StorageArch {
    /// True if the architecture disaggregates compute from storage.
    pub fn is_disaggregated(self) -> bool {
        self != StorageArch::Coupled
    }

    /// True if redo processing happens inside the storage tier, so the
    /// compute node never writes dirty pages back (Aurora's "the log is the
    /// database").
    pub fn redo_pushdown(self) -> bool {
        matches!(
            self,
            StorageArch::SmartStorage
                | StorageArch::SafekeeperPageserver
                | StorageArch::LogPageSplit
        )
    }
}

/// A storage service with simulated access costs.
pub struct StorageService {
    arch: StorageArch,
    page_dev: Device,
    log_dev: Device,
    net: Option<NetworkLink>,
    replication_factor: u32,
    quorum_extra: SimDuration,
}

impl StorageService {
    /// Build a service; `net == None` means storage is instance-local.
    pub fn new(
        arch: StorageArch,
        page_dev: Device,
        log_dev: Device,
        net: Option<NetworkLink>,
        replication_factor: u32,
        quorum_extra: SimDuration,
    ) -> Self {
        assert!(replication_factor >= 1, "replication factor must be >= 1");
        assert_eq!(
            arch.is_disaggregated(),
            net.is_some(),
            "disaggregated storage needs a network link; coupled storage must not have one"
        );
        StorageService {
            arch,
            page_dev,
            log_dev,
            net,
            replication_factor,
            quorum_extra,
        }
    }

    /// Architecture of this service.
    pub fn arch(&self) -> StorageArch {
        self.arch
    }

    /// Number of data replicas the service maintains (for storage cost).
    pub fn replication_factor(&self) -> u32 {
        self.replication_factor
    }

    /// Cost of durably appending `bytes` of WAL on the commit path.
    ///
    /// This is the legacy *per-commit* flush: one device access and one
    /// quorum ack per transaction. The group-commit pipeline
    /// ([`crate::GroupCommit`]) decomposes it into [`Self::log_stage_cost`]
    /// per commit plus [`Self::log_flush_cost`] once per batch.
    pub fn log_append_cost(&mut self, now: SimTime, bytes: u64) -> SimDuration {
        let wire = self.net.map_or(SimDuration::ZERO, |n| n.transfer(bytes));
        wire + self.log_dev.access(now + wire) + self.quorum_extra
    }

    /// Cost of shipping `bytes` of commit WAL into an open commit batch:
    /// wire transfer only. The durable flush is paid once per batch by
    /// [`Self::log_flush_cost`].
    pub fn log_stage_cost(&mut self, bytes: u64) -> SimDuration {
        self.net.map_or(SimDuration::ZERO, |n| n.transfer(bytes))
    }

    /// Cost of durably flushing one commit batch at `now`: a single
    /// log-device access plus the quorum ack overhead, regardless of how
    /// many commits the batch holds — this is where group commit amortizes
    /// the device's IOPS gap.
    pub fn log_flush_cost(&mut self, now: SimTime) -> SimDuration {
        self.log_dev.access(now) + self.quorum_extra
    }

    /// Cost of fetching one page the compute node does not have cached.
    pub fn page_read_cost(&mut self, now: SimTime) -> SimDuration {
        let wire = self
            .net
            .map_or(SimDuration::ZERO, |n| n.transfer(PAGE_SIZE as u64));
        wire + self.page_dev.access(now + wire)
    }

    /// Cost of writing one dirty page back. Panics for redo-pushdown
    /// architectures: their compute tier never writes pages, and a call here
    /// would mean the engine's flushing logic is wired to the wrong profile.
    pub fn page_write_cost(&mut self, now: SimTime) -> SimDuration {
        assert!(
            !self.arch.redo_pushdown(),
            "{:?} pushes redo down to storage; compute must not write pages",
            self.arch
        );
        let wire = self
            .net
            .map_or(SimDuration::ZERO, |n| n.transfer(PAGE_SIZE as u64));
        wire + self.page_dev.access(now + wire)
    }

    /// Page-device operations served so far.
    pub fn page_ops(&self) -> u64 {
        self.page_dev.ops()
    }

    /// Log-device operations served so far.
    pub fn log_ops(&self) -> u64 {
        self.log_dev.ops()
    }

    /// Latency of the page device (for replay cost models).
    pub fn page_latency(&self) -> SimDuration {
        self.page_dev.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sim::DeviceKind;

    fn nvme() -> Device {
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None)
    }

    fn net_ssd() -> Device {
        Device::new(DeviceKind::NetworkSsd, SimDuration::from_micros(450), None)
    }

    fn coupled() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            nvme(),
            nvme(),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn smart() -> StorageService {
        StorageService::new(
            StorageArch::SmartStorage,
            net_ssd(),
            net_ssd(),
            Some(NetworkLink::tcp(10.0)),
            6,
            SimDuration::from_micros(50),
        )
    }

    #[test]
    fn coupled_storage_is_cheapest_to_reach() {
        let mut c = coupled();
        let mut s = smart();
        assert!(c.page_read_cost(SimTime::ZERO) < s.page_read_cost(SimTime::ZERO));
        assert!(c.log_append_cost(SimTime::ZERO, 100) < s.log_append_cost(SimTime::ZERO, 100));
    }

    #[test]
    fn coupled_storage_allows_page_writes() {
        let mut c = coupled();
        let cost = c.page_write_cost(SimTime::ZERO);
        assert!(cost >= SimDuration::from_micros(90));
        assert_eq!(c.page_ops(), 1);
    }

    #[test]
    #[should_panic(expected = "redo")]
    fn redo_pushdown_rejects_page_writes() {
        let mut s = smart();
        let _ = s.page_write_cost(SimTime::ZERO);
    }

    #[test]
    fn quorum_extra_applies_to_commits() {
        let mut a = StorageService::new(
            StorageArch::SafekeeperPageserver,
            net_ssd(),
            net_ssd(),
            Some(NetworkLink::tcp(10.0)),
            3,
            SimDuration::from_micros(200),
        );
        let mut b = StorageService::new(
            StorageArch::SafekeeperPageserver,
            net_ssd(),
            net_ssd(),
            Some(NetworkLink::tcp(10.0)),
            3,
            SimDuration::ZERO,
        );
        let ca = a.log_append_cost(SimTime::ZERO, 64);
        let cb = b.log_append_cost(SimTime::ZERO, 64);
        assert_eq!(ca, cb + SimDuration::from_micros(200));
    }

    #[test]
    #[should_panic(expected = "network link")]
    fn disaggregated_without_network_is_rejected() {
        let _ = StorageService::new(
            StorageArch::SmartStorage,
            net_ssd(),
            net_ssd(),
            None,
            6,
            SimDuration::ZERO,
        );
    }

    #[test]
    fn arch_classification() {
        assert!(!StorageArch::Coupled.is_disaggregated());
        assert!(StorageArch::MemoryDisagg.is_disaggregated());
        assert!(StorageArch::SmartStorage.redo_pushdown());
        assert!(!StorageArch::Coupled.redo_pushdown());
        assert!(!StorageArch::MemoryDisagg.redo_pushdown());
    }

    #[test]
    fn op_counters_track_usage() {
        let mut s = smart();
        for _ in 0..3 {
            s.page_read_cost(SimTime::ZERO);
        }
        s.log_append_cost(SimTime::ZERO, 128);
        assert_eq!(s.page_ops(), 3);
        assert_eq!(s.log_ops(), 1);
    }
}
