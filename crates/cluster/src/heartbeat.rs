//! Heartbeat-based failure detection.
//!
//! The paper's fail-over evaluator observes a detection delay before any
//! recovery work starts (CDB4's cluster manager "detects a failure via
//! heartbeat signals"). [`HeartbeatMonitor`] makes that delay mechanical: a
//! node is declared failed after `misses_allowed + 1` consecutive absent
//! beats, so the worst-case detection latency is
//! `(misses_allowed + 1) * interval` and the best case just over
//! `misses_allowed * interval`. SUT profiles with fast RDMA heartbeats
//! (CDB4) detect in ~0.5 s; TCP-managed services take a couple of seconds.

use cb_sim::{SimDuration, SimTime};

/// Verdict for one node at an evaluation instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeHealth {
    /// Beats arriving on schedule.
    Healthy,
    /// Some beats missed but below the threshold.
    Suspect {
        /// Consecutive misses so far.
        misses: u32,
    },
    /// Declared failed at the contained instant.
    Failed {
        /// When the threshold was crossed.
        at: SimTime,
    },
}

/// A per-node heartbeat monitor.
#[derive(Clone, Debug)]
pub struct HeartbeatMonitor {
    interval: SimDuration,
    misses_allowed: u32,
    last_beat: SimTime,
    declared: Option<SimTime>,
}

impl HeartbeatMonitor {
    /// A monitor expecting a beat every `interval`, tolerating
    /// `misses_allowed` consecutive misses before declaring failure.
    pub fn new(interval: SimDuration, misses_allowed: u32) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        HeartbeatMonitor {
            interval,
            misses_allowed,
            last_beat: SimTime::ZERO,
            declared: None,
        }
    }

    /// The worst-case detection latency this configuration can exhibit.
    pub(crate) fn max_detection_latency(&self) -> SimDuration {
        self.interval * u64::from(self.misses_allowed + 1)
    }

    /// Record a beat received at `at`. Beats clear suspicion but cannot
    /// un-declare a failure (fail-over has already started).
    pub fn beat(&mut self, at: SimTime) {
        debug_assert!(at >= self.last_beat, "beats must be time-ordered");
        if self.declared.is_none() {
            self.last_beat = at;
        }
    }

    /// Evaluate health at `now`, declaring failure if the miss threshold is
    /// crossed. Idempotent: once failed, always failed (until reset).
    pub fn check(&mut self, now: SimTime) -> NodeHealth {
        if let Some(at) = self.declared {
            return NodeHealth::Failed { at };
        }
        let silent = now.saturating_since(self.last_beat);
        let misses = (silent.as_nanos() / self.interval.as_nanos()) as u32;
        if misses > self.misses_allowed {
            // The failure is declared at the instant the threshold was
            // crossed, not when we happened to look.
            let at = self.last_beat + self.interval * u64::from(self.misses_allowed + 1);
            self.declared = Some(at);
            NodeHealth::Failed { at }
        } else if misses > 0 {
            NodeHealth::Suspect { misses }
        } else {
            NodeHealth::Healthy
        }
    }

    /// Simulate a node that stopped beating at `stopped_at`: the instant
    /// failure would be detected.
    pub fn detection_instant(&self, stopped_at: SimTime) -> SimTime {
        stopped_at + self.max_detection_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HeartbeatMonitor {
        // 500ms beats, 3 misses allowed => detect within 2s.
        HeartbeatMonitor::new(SimDuration::from_millis(500), 3)
    }

    #[test]
    fn healthy_while_beating() {
        let mut m = monitor();
        for i in 0..10 {
            m.beat(SimTime::from_millis(i * 500));
            assert_eq!(
                m.check(SimTime::from_millis(i * 500 + 100)),
                NodeHealth::Healthy
            );
        }
    }

    #[test]
    fn suspicion_before_declaration() {
        let mut m = monitor();
        m.beat(SimTime::from_secs(10));
        assert_eq!(
            m.check(SimTime::from_secs(10) + SimDuration::from_millis(1100)),
            NodeHealth::Suspect { misses: 2 }
        );
        // A beat clears suspicion.
        m.beat(SimTime::from_secs(12));
        assert_eq!(m.check(SimTime::from_secs(12)), NodeHealth::Healthy);
    }

    #[test]
    fn failure_declared_at_threshold_instant() {
        let mut m = monitor();
        m.beat(SimTime::from_secs(10));
        // Checked long after the fact: the declared instant is still the
        // threshold crossing (10s + 4 * 500ms = 12s).
        match m.check(SimTime::from_secs(60)) {
            NodeHealth::Failed { at } => assert_eq!(at, SimTime::from_secs(12)),
            other => panic!("expected failure, got {other:?}"),
        }
        // Late beats cannot resurrect it.
        m.beat(SimTime::from_secs(61));
        assert!(matches!(
            m.check(SimTime::from_secs(62)),
            NodeHealth::Failed { .. }
        ));
    }

    #[test]
    fn detection_latency_matches_profile_expectations() {
        // CDB4-style: 100ms RDMA beats, 4 misses => 0.5s detection.
        let fast = HeartbeatMonitor::new(SimDuration::from_millis(100), 4);
        assert_eq!(fast.max_detection_latency(), SimDuration::from_millis(500));
        assert_eq!(
            fast.detection_instant(SimTime::from_secs(45)),
            SimTime::from_secs(45) + SimDuration::from_millis(500)
        );
        // Managed-service style: 500ms beats, 3 misses => 2s.
        assert_eq!(monitor().max_detection_latency(), SimDuration::from_secs(2));
    }
}
