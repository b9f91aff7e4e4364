//! Compute nodes: a CPU, a buffer pool, a role, and a lifecycle.

use cb_engine::BufferPool;
use cb_sim::{CpuResource, GaugeSeries, SimDuration, SimTime};

/// Node identifier within a cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// The role of a compute node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// The primary read-write node.
    ReadWrite,
    /// A read-only replica.
    ReadOnly,
}

/// Lifecycle state of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum NodeStatus {
    /// Serving requests.
    Up,
    /// Restarting; unavailable until the contained instant.
    Restarting {
        /// When the restart completes.
        until: SimTime,
    },
    /// Paused (scaled to zero); resumes on demand.
    Paused,
}

/// A compute node of the simulated cluster.
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Current role (fail-over can promote ReadOnly to ReadWrite).
    pub role: NodeRole,
    /// The node's CPU.
    pub cpu: CpuResource,
    /// The node's local buffer pool.
    pub pool: BufferPool,
    status: NodeStatus,
    /// Allocated vCores over time (for cost integration and Fig 9).
    pub vcore_gauge: GaugeSeries,
    /// End of the post-restart warm-up ramp (cold-cache penalty window).
    warmup_until: SimTime,
    warmup_len: SimDuration,
}

impl Node {
    /// A node with `vcores` of CPU and a `pool_pages`-page buffer pool.
    pub fn new(id: NodeId, role: NodeRole, vcores: f64, pool_pages: usize) -> Self {
        Node {
            id,
            role,
            cpu: CpuResource::new(vcores),
            pool: BufferPool::new(pool_pages),
            status: NodeStatus::Up,
            vcore_gauge: GaugeSeries::starting_at(vcores),
            warmup_until: SimTime::ZERO,
            warmup_len: SimDuration::ZERO,
        }
    }

    /// True if the node can serve a request at `now`.
    pub fn is_available(&self, now: SimTime) -> bool {
        match self.status {
            NodeStatus::Up => true,
            NodeStatus::Restarting { until } => now >= until,
            NodeStatus::Paused => false,
        }
    }

    /// Collapse `Restarting` into `Up` once its deadline passed.
    pub fn refresh_status(&mut self, now: SimTime) {
        if let NodeStatus::Restarting { until } = self.status {
            if now >= until {
                self.status = NodeStatus::Up;
            }
        }
    }

    /// The instant this node next becomes available (now if already up).
    pub fn available_at(&self, now: SimTime) -> Option<SimTime> {
        match self.status {
            NodeStatus::Up => Some(now),
            NodeStatus::Restarting { until } => Some(until.max(now)),
            NodeStatus::Paused => None,
        }
    }

    /// Begin a restart at `now` lasting `service_downtime`; the cache is
    /// lost and a `warmup` ramp of elevated latency follows.
    pub fn restart(&mut self, now: SimTime, service_downtime: SimDuration, warmup: SimDuration) {
        let until = now + service_downtime;
        self.status = NodeStatus::Restarting { until };
        self.pool.clear();
        self.warmup_until = until + warmup;
        self.warmup_len = warmup;
    }

    /// Pause the node (scale to zero).
    pub fn pause(&mut self, now: SimTime) {
        self.status = NodeStatus::Paused;
        self.cpu.set_vcores(now, 0.0);
        self.vcore_gauge.set(now, 0.0);
    }

    /// Resume a paused node with `vcores`, available after `resume_delay`.
    pub fn resume(&mut self, now: SimTime, vcores: f64, resume_delay: SimDuration) {
        assert!(vcores > 0.0, "resume needs positive capacity");
        let until = now + resume_delay;
        self.status = NodeStatus::Restarting { until };
        self.cpu.set_vcores(now, vcores);
        self.vcore_gauge.set(now, vcores);
    }

    /// Change the CPU allocation at `now`.
    pub fn set_vcores(&mut self, now: SimTime, vcores: f64) {
        if vcores == 0.0 {
            self.pause(now);
            return;
        }
        if self.status == NodeStatus::Paused {
            self.status = NodeStatus::Up;
        }
        self.cpu.set_vcores(now, vcores);
        self.vcore_gauge.set(now, vcores);
    }

    /// Extra latency from the post-restart warm-up ramp at `now`: starts at
    /// `peak` right after restart and decays linearly to zero.
    pub fn warmup_penalty(&self, now: SimTime, peak: SimDuration) -> SimDuration {
        if now >= self.warmup_until || self.warmup_len.is_zero() {
            return SimDuration::ZERO;
        }
        let remaining = self.warmup_until.saturating_since(now);
        peak.mul_f64(remaining.as_secs_f64() / self.warmup_len.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 100)
    }

    #[test]
    fn fresh_node_is_up() {
        let n = node();
        assert_eq!(n.status, NodeStatus::Up);
        assert!(n.is_available(SimTime::ZERO));
        assert_eq!(n.available_at(SimTime::ZERO), Some(SimTime::ZERO));
    }

    #[test]
    fn restart_loses_cache_and_blocks_service() {
        let mut n = node();
        n.pool.touch(cb_store::PageId(1), false);
        n.restart(
            SimTime::from_secs(10),
            SimDuration::from_secs(6),
            SimDuration::from_secs(20),
        );
        assert!(n.pool.is_empty());
        assert!(!n.is_available(SimTime::from_secs(12)));
        assert!(n.is_available(SimTime::from_secs(16)));
        assert_eq!(
            n.available_at(SimTime::from_secs(12)),
            Some(SimTime::from_secs(16))
        );
        n.refresh_status(SimTime::from_secs(16));
        assert_eq!(n.status, NodeStatus::Up);
    }

    #[test]
    fn warmup_penalty_decays_linearly() {
        let mut n = node();
        n.restart(
            SimTime::ZERO,
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
        );
        let peak = SimDuration::from_millis(10);
        // Right after service resumption: full penalty.
        let p0 = n.warmup_penalty(SimTime::from_secs(5), peak);
        assert_eq!(p0, peak);
        // Halfway: half.
        let p1 = n.warmup_penalty(SimTime::from_secs(10), peak);
        assert_eq!(p1, SimDuration::from_millis(5));
        // After: zero.
        assert_eq!(
            n.warmup_penalty(SimTime::from_secs(15), peak),
            SimDuration::ZERO
        );
    }

    #[test]
    fn pause_and_resume_cycle() {
        let mut n = node();
        n.pause(SimTime::from_secs(1));
        assert_eq!(n.status, NodeStatus::Paused);
        assert!(n.cpu.is_paused());
        assert_eq!(n.available_at(SimTime::from_secs(2)), None);
        n.resume(SimTime::from_secs(5), 2.0, SimDuration::from_secs(3));
        assert!(!n.is_available(SimTime::from_secs(6)));
        assert!(n.is_available(SimTime::from_secs(8)));
        assert_eq!(n.cpu.vcores(), 2.0);
    }

    #[test]
    fn vcore_gauge_tracks_scaling() {
        let mut n = node();
        n.set_vcores(SimTime::from_secs(60), 2.0);
        n.set_vcores(SimTime::from_secs(120), 0.0); // pause
        n.resume(SimTime::from_secs(180), 1.0, SimDuration::ZERO);
        assert_eq!(n.vcore_gauge.value_at(SimTime::from_secs(30)), 4.0);
        assert_eq!(n.vcore_gauge.value_at(SimTime::from_secs(90)), 2.0);
        assert_eq!(n.vcore_gauge.value_at(SimTime::from_secs(150)), 0.0);
        assert_eq!(n.vcore_gauge.value_at(SimTime::from_secs(200)), 1.0);
    }
}
