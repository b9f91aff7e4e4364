//! Resource metering: what did a run actually consume?
//!
//! The paper's Resource Unit Cost model (Table III) prices five resource
//! classes — CPU, memory, storage, IOPS, network — per hour. A
//! [`ResourceUsage`] holds each over a measurement window; the SUT profile
//! fills it from node gauges and its own configuration, and the core crate
//! prices it.

use cb_sim::SimDuration;

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
