//! Resource metering: what did a run actually consume?
//!
//! The paper's Resource Unit Cost model (Table III) prices five resource
//! classes — CPU, memory, storage, IOPS, network — per hour. The meter
//! integrates each over a measurement window, turning node gauges and SUT
//! configuration into a [`ResourceUsage`] that the core crate prices.

use cb_sim::{SimDuration, SimTime};

use crate::node::Node;

/// Static resource configuration of a SUT deployment.
#[derive(Clone, Copy, Debug)]
pub struct MeterConfig {
    /// GB of RAM per vCore for serverless tiers (memory scales with CPU), or
    /// `None` when `fixed_mem_gb` applies.
    pub gb_per_vcore: Option<f64>,
    /// Fixed memory for provisioned tiers.
    pub fixed_mem_gb: f64,
    /// Remote (disaggregated) memory in GB, if any (CDB4's shared pool).
    pub remote_mem_gb: f64,
    /// Logical data size in GB.
    pub data_gb: f64,
    /// Storage replication factor (Aurora-style six-way vs three-way).
    pub storage_replication: u32,
    /// Provisioned IOPS.
    pub provisioned_iops: u64,
    /// Network bandwidth in Gbps.
    pub network_gbps: f64,
    /// True if the network is RDMA (priced higher in Table III).
    pub rdma: bool,
}

/// Integrated resource consumption over a window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceUsage {
    /// Average allocated vCores over the window.
    pub avg_vcores: f64,
    /// Average memory in GB (local + remote).
    pub avg_mem_gb: f64,
    /// Billable storage in GB (data x replication).
    pub storage_gb: f64,
    /// Provisioned IOPS.
    pub iops: u64,
    /// Average I/O operations per second *actually issued* over the window
    /// (page + log device ops), or 0 when the deployment was not metered at
    /// the device level. When non-zero, billing charges these instead of the
    /// provisioned figure — see [`Self::billable_iops`]. Group commit lowers
    /// this directly: one batch flush replaces `batch_size` log ops.
    pub observed_iops: u64,
    /// Network bandwidth in Gbps.
    pub network_gbps: f64,
    /// True if RDMA pricing applies.
    pub rdma: bool,
    /// Window length.
    pub window: SimDuration,
}

/// Integrate consumption of `nodes` under `cfg` over `[from, to)`.
pub fn measure(nodes: &[&Node], cfg: &MeterConfig, from: SimTime, to: SimTime) -> ResourceUsage {
    let window = to.saturating_since(from);
    let secs = window.as_secs_f64();
    if secs <= 0.0 {
        return ResourceUsage {
            window,
            ..Default::default()
        };
    }
    let vcore_seconds: f64 = nodes.iter().map(|n| n.vcore_gauge.integral(from, to)).sum();
    let avg_vcores = vcore_seconds / secs;
    let local_mem = match cfg.gb_per_vcore {
        Some(per) => avg_vcores * per,
        None => cfg.fixed_mem_gb * nodes.len() as f64,
    };
    ResourceUsage {
        avg_vcores,
        avg_mem_gb: local_mem + cfg.remote_mem_gb,
        storage_gb: cfg.data_gb * cfg.storage_replication as f64,
        iops: cfg.provisioned_iops,
        observed_iops: 0,
        network_gbps: cfg.network_gbps,
        rdma: cfg.rdma,
        window,
    }
}

impl ResourceUsage {
    /// IOPS the billing model charges: the observed average when the run
    /// was metered at the device level, else the provisioned figure. This
    /// is what makes group commit *visible* in the C-score IO component —
    /// batching cuts observed log ops without changing provisioning.
    pub fn billable_iops(&self) -> u64 {
        if self.observed_iops > 0 {
            self.observed_iops
        } else {
            self.iops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, NodeRole};

    fn cfg() -> MeterConfig {
        MeterConfig {
            gb_per_vcore: None,
            fixed_mem_gb: 16.0,
            remote_mem_gb: 0.0,
            data_gb: 21.0,
            storage_replication: 3,
            provisioned_iops: 1000,
            network_gbps: 10.0,
            rdma: false,
        }
    }

    #[test]
    fn fixed_capacity_measures_flat() {
        let node = Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 16);
        let u = measure(&[&node], &cfg(), SimTime::ZERO, SimTime::from_secs(600));
        assert!((u.avg_vcores - 4.0).abs() < 1e-9);
        assert!((u.avg_mem_gb - 16.0).abs() < 1e-9);
        assert!((u.storage_gb - 63.0).abs() < 1e-9);
        assert_eq!(u.iops, 1000);
    }

    #[test]
    fn serverless_memory_tracks_vcores() {
        let mut node = Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 16);
        // Half the window at 4 vCores, half at 2.
        node.set_vcores(SimTime::from_secs(300), 2.0);
        let mut c = cfg();
        c.gb_per_vcore = Some(2.0);
        let u = measure(&[&node], &c, SimTime::ZERO, SimTime::from_secs(600));
        assert!((u.avg_vcores - 3.0).abs() < 1e-9);
        assert!((u.avg_mem_gb - 6.0).abs() < 1e-9, "2 GB per average vCore");
    }

    #[test]
    fn pause_costs_nothing_while_paused() {
        let mut node = Node::new(NodeId(0), NodeRole::ReadWrite, 2.0, 16);
        node.pause(SimTime::from_secs(100));
        let u = measure(&[&node], &cfg(), SimTime::ZERO, SimTime::from_secs(200));
        assert!(
            (u.avg_vcores - 1.0).abs() < 1e-9,
            "2 vCores for half the window"
        );
    }

    #[test]
    fn multiple_nodes_sum() {
        let a = Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 16);
        let b = Node::new(NodeId(1), NodeRole::ReadOnly, 4.0, 16);
        let u = measure(&[&a, &b], &cfg(), SimTime::ZERO, SimTime::from_secs(60));
        assert!((u.avg_vcores - 8.0).abs() < 1e-9);
        assert!((u.avg_mem_gb - 32.0).abs() < 1e-9);
    }

    #[test]
    fn observed_iops_take_billing_precedence() {
        let node = Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 16);
        let mut u = measure(&[&node], &cfg(), SimTime::ZERO, SimTime::from_secs(60));
        assert_eq!(u.billable_iops(), 1000, "unmetered runs bill provisioned");
        u.observed_iops = 220;
        assert_eq!(u.billable_iops(), 220, "metered runs bill what they used");
    }

    #[test]
    fn empty_window_is_zero() {
        let node = Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 16);
        let u = measure(
            &[&node],
            &cfg(),
            SimTime::from_secs(5),
            SimTime::from_secs(5),
        );
        assert_eq!(u.avg_vcores, 0.0);
    }
}
