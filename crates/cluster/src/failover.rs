//! Fail-over models: from failure injection to service resumption.
//!
//! The paper's fail-over evaluator injects a node failure with the *restart
//! model* (the managed service's restart API) and measures two phases:
//! F-Score (injection → service resumes) and R-Score (service resumes →
//! original TPS recovered). What differs per system is the recovery route:
//!
//! * **ARIES** (AWS RDS): scan WAL since the checkpoint, redo, undo losers —
//!   time grows with the log tail.
//! * **Replay-from-storage** (CDB1/2/3): page servers already materialized
//!   the pages; compute recovery fetches a consistent state, paying one
//!   network round per hop in the storage path (CDB2's split log/page
//!   service has the longest route).
//! * **Remote-buffer switch-over** (CDB4): promote an RO node; the remote
//!   buffer pool preserves hot state, so only prepare/switch/undo-scan
//!   phases remain — the fastest path.

use cb_engine::recovery::AriesAnalysis;
use cb_sim::{SimDuration, SimTime};

use crate::replication::ReplayPolicy;

/// The recovery route after the failed node restarts.
#[derive(Clone, Copy, Debug)]
pub enum RecoveryKind {
    /// Full ARIES: redo + undo from the last checkpoint.
    Aries {
        /// Cost to process one log record (redo or undo).
        per_record: SimDuration,
        /// Fixed analysis-pass overhead.
        base: SimDuration,
    },
    /// Pages are already materialized in the storage tier.
    ReplayFromStorage {
        /// Fixed overhead to re-establish a consistent view.
        base: SimDuration,
        /// Network hops in the recovery route (log service, page service…).
        hops: u32,
        /// Cost per hop.
        per_hop: SimDuration,
        /// Loser transactions still need undo, per record.
        undo_per_record: SimDuration,
    },
    /// Promote an RO node over the shared remote buffer pool.
    RemoteBufferSwitch {
        /// Notify nodes, collect latest LSN / checkpoint version.
        prepare: SimDuration,
        /// Promote RO -> RW and demote the old primary.
        switchover: SimDuration,
        /// Rebuild active transactions and roll back losers.
        recovering: SimDuration,
    },
}

/// Fail-over behaviour of one system under test.
#[derive(Clone, Copy, Debug)]
pub struct FailoverModel {
    /// Failure detection time (heartbeat interval + confirmation).
    pub detection: SimDuration,
    /// Process/service restart time of the failed node.
    pub restart: SimDuration,
    /// The recovery route.
    pub kind: RecoveryKind,
    /// Length of the post-resumption warm-up ramp (drives R-Score).
    pub warmup: SimDuration,
    /// Peak extra per-transaction latency at the start of the ramp.
    pub warmup_peak: SimDuration,
}

/// One named phase of a fail-over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverPhase {
    /// Phase name ("detect", "restart", "redo", …).
    pub name: &'static str,
    /// Phase start.
    pub start: SimTime,
    /// Phase end.
    pub end: SimTime,
}

impl FailoverPhase {
    /// Phase length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The planned timeline of one fail-over.
#[derive(Clone, Debug)]
pub struct FailoverTimeline {
    /// When the failure was injected.
    pub injected_at: SimTime,
    /// When the service accepts requests again (end of F-Score window).
    pub service_resumed_at: SimTime,
    /// The phases in order.
    pub phases: Vec<FailoverPhase>,
}

impl FailoverTimeline {
    /// The F-Score contribution: injection → service resumption.
    pub fn downtime(&self) -> SimDuration {
        self.service_resumed_at.saturating_since(self.injected_at)
    }

    /// Find a phase by name.
    #[cfg(test)]
    pub(crate) fn phase(&self, name: &str) -> Option<&FailoverPhase> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Plan a fail-over injected at `inject` and detected at `detected_at`,
/// given the WAL analysis at the moment of failure (ARIES cost depends on
/// it). The nominal detection instant is `inject + model.detection`; a
/// chaos schedule that delays detection past the model's window (silent
/// heartbeat loss) supplies its own. The "detect" phase spans
/// `inject → detected_at`; everything after it follows the model's
/// recovery route unchanged.
///
/// `replay` is the system's log-replay policy, the one its replicas run
/// (CDB3's pageservers fan records across lanes): the *recovering* node
/// replays with the same engine. Its [`lanes`](ReplayPolicy::lanes) divide
/// the record-proportional redo/undo phase costs — checkpoint-partitioned
/// replay splits the scan, while fixed overheads (restart, reattach hops,
/// analysis base) stay single-lane.
pub fn plan_failover(
    model: &FailoverModel,
    replay: &ReplayPolicy,
    inject: SimTime,
    detected_at: SimTime,
    analysis: &AriesAnalysis,
) -> FailoverTimeline {
    assert!(
        detected_at >= inject,
        "failure cannot be detected before it is injected"
    );
    fn push(
        phases: &mut Vec<FailoverPhase>,
        name: &'static str,
        len: SimDuration,
        t: &mut SimTime,
    ) {
        let start = *t;
        *t = start + len;
        phases.push(FailoverPhase {
            name,
            start,
            end: *t,
        });
    }

    let mut phases = Vec::new();
    let mut t = inject;
    push(
        &mut phases,
        "detect",
        detected_at.saturating_since(inject),
        &mut t,
    );
    // Partitioned replay splits record-proportional work across lanes; the
    // analysis scan and all fixed overheads remain single-lane.
    let lanes = replay.lanes();
    match model.kind {
        RecoveryKind::Aries { per_record, base } => {
            push(&mut phases, "restart", model.restart, &mut t);
            push(
                &mut phases,
                "analysis",
                base + per_record * analysis.scanned,
                &mut t,
            );
            push(
                &mut phases,
                "redo",
                per_record * analysis.redo_records / lanes,
                &mut t,
            );
            push(
                &mut phases,
                "undo",
                per_record * analysis.undo_records * 2 / lanes,
                &mut t,
            );
        }
        RecoveryKind::ReplayFromStorage {
            base,
            hops,
            per_hop,
            undo_per_record,
        } => {
            push(&mut phases, "restart", model.restart, &mut t);
            push(
                &mut phases,
                "reattach",
                base + per_hop * hops as u64,
                &mut t,
            );
            // The storage tier serves a consistent view only once it has
            // applied the committed tail up to the crash LSN; that catch-up
            // runs at the replicas' replay speed — CDB3's pageservers fan
            // it across lanes, CDB1/2 grind through it sequentially.
            push(
                &mut phases,
                "catchup",
                replay.per_record() * analysis.redo_records / lanes,
                &mut t,
            );
            push(
                &mut phases,
                "undo",
                undo_per_record * analysis.undo_records / lanes,
                &mut t,
            );
        }
        RecoveryKind::RemoteBufferSwitch {
            prepare,
            switchover,
            recovering,
        } => {
            push(&mut phases, "prepare", prepare, &mut t);
            push(&mut phases, "switchover", switchover, &mut t);
            // The promoted RW accepts requests right after switch-over; the
            // undo scan of in-flight transactions proceeds in the background
            // (it only touches the remote buffer pool).
            let resumed = t;
            push(&mut phases, "recovering", recovering, &mut t);
            return FailoverTimeline {
                injected_at: inject,
                service_resumed_at: resumed,
                phases,
            };
        }
    }
    FailoverTimeline {
        injected_at: inject,
        service_resumed_at: t,
        phases,
    }
}

/// Plan an *RO-replica* fail-over: the replica restarts and re-attaches to
/// the shared storage, but no log tail is redone, no losers are undone and
/// no promotion happens — which is why the paper's F(RO) values are
/// uniformly small.
pub fn plan_ro_failover(model: &FailoverModel, inject: SimTime) -> FailoverTimeline {
    let detect_end = inject + model.detection;
    let restart_end = detect_end + model.restart;
    FailoverTimeline {
        injected_at: inject,
        service_resumed_at: restart_end,
        phases: vec![
            FailoverPhase {
                name: "detect",
                start: inject,
                end: detect_end,
            },
            FailoverPhase {
                name: "restart",
                start: detect_end,
                end: restart_end,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis(scanned: u64, redo: u64, undo: u64) -> AriesAnalysis {
        AriesAnalysis {
            scanned,
            redo_records: redo,
            undo_records: undo,
            loser_txns: u64::from(undo > 0),
            in_doubt_txns: 0,
        }
    }

    const SEQ: ReplayPolicy = ReplayPolicy::Sequential {
        per_record: SimDuration::from_micros(5),
        batch_interval: SimDuration::from_millis(10),
    };

    fn par_replay(lanes: u32) -> ReplayPolicy {
        ReplayPolicy::Parallel {
            per_record: SimDuration::from_micros(5),
            lanes,
            batch_interval: SimDuration::from_millis(10),
        }
    }

    /// The plan with the model's own detection delay.
    fn nominal(
        m: &FailoverModel,
        replay: ReplayPolicy,
        inject: SimTime,
        a: &AriesAnalysis,
    ) -> FailoverTimeline {
        plan_failover(m, &replay, inject, inject + m.detection, a)
    }

    fn aries_model() -> FailoverModel {
        FailoverModel {
            detection: SimDuration::from_secs(2),
            restart: SimDuration::from_secs(5),
            kind: RecoveryKind::Aries {
                per_record: SimDuration::from_micros(200),
                base: SimDuration::from_secs(1),
            },
            warmup: SimDuration::from_secs(20),
            warmup_peak: SimDuration::from_millis(5),
        }
    }

    #[test]
    fn aries_downtime_grows_with_log_tail() {
        let m = aries_model();
        let small = nominal(&m, SEQ, SimTime::ZERO, &analysis(1_000, 800, 10));
        let large = nominal(&m, SEQ, SimTime::ZERO, &analysis(100_000, 80_000, 500));
        assert!(large.downtime() > small.downtime());
        assert!(small.downtime() >= SimDuration::from_secs(8));
        assert_eq!(small.phases.len(), 5);
        assert_eq!(small.phases[0].name, "detect");
    }

    #[test]
    fn delayed_detection_shifts_the_whole_timeline() {
        let m = aries_model();
        let inject = SimTime::from_secs(50);
        let on_time = nominal(&m, SEQ, inject, &analysis(1_000, 800, 10));
        // A chaos scenario where heartbeats were lost for 9s before anyone
        // noticed: detection takes 9s instead of the model's 2s.
        let late = plan_failover(
            &m,
            &SEQ,
            inject,
            inject + SimDuration::from_secs(9),
            &analysis(1_000, 800, 10),
        );
        assert_eq!(
            late.phase("detect").unwrap().duration(),
            SimDuration::from_secs(9)
        );
        assert_eq!(
            late.downtime(),
            on_time.downtime() + SimDuration::from_secs(7),
            "everything after detection is unchanged"
        );
        assert_eq!(on_time.phase("detect").unwrap().duration(), m.detection);
    }

    #[test]
    fn replay_from_storage_pays_catchup_at_replay_speed() {
        let m = FailoverModel {
            detection: SimDuration::from_secs(2),
            restart: SimDuration::from_secs(3),
            kind: RecoveryKind::ReplayFromStorage {
                base: SimDuration::from_secs(1),
                hops: 2,
                per_hop: SimDuration::from_millis(500),
                undo_per_record: SimDuration::from_micros(100),
            },
            warmup: SimDuration::from_secs(10),
            warmup_peak: SimDuration::from_millis(3),
        };
        // The storage tier applies the committed tail to the crash LSN
        // before serving a view: downtime grows with the tail, charged at
        // the replicas' replay cost — not at an ARIES per-record cost.
        let small = nominal(&m, SEQ, SimTime::ZERO, &analysis(1_000, 800, 0));
        let large = nominal(&m, SEQ, SimTime::ZERO, &analysis(1_000_000, 800_000, 0));
        assert!(large.downtime() > small.downtime());
        assert_eq!(
            small.phase("catchup").unwrap().duration(),
            SimDuration::from_micros(5) * 800u64
        );
        assert_eq!(
            large.phase("catchup").unwrap().duration(),
            SimDuration::from_micros(5) * 800_000u64
        );
        // Parallel replay lanes divide the catch-up (the CDB3 story).
        let p = nominal(
            &m,
            par_replay(8),
            SimTime::ZERO,
            &analysis(1_000_000, 800_000, 0),
        );
        assert_eq!(
            p.phase("catchup").unwrap().duration(),
            SimDuration::from_micros(5) * 800_000u64 / 8
        );
        // More hops => longer route (the CDB2 story).
        let m_long = FailoverModel {
            kind: RecoveryKind::ReplayFromStorage {
                base: SimDuration::from_secs(1),
                hops: 4,
                per_hop: SimDuration::from_millis(500),
                undo_per_record: SimDuration::from_micros(100),
            },
            ..m
        };
        let long = nominal(&m_long, SEQ, SimTime::ZERO, &analysis(1_000, 800, 0));
        assert!(long.downtime() > small.downtime());
    }

    #[test]
    fn parallel_replay_divides_record_costs_only() {
        let m = aries_model();
        let a = analysis(100_000, 80_000, 4_000);
        let ts = nominal(&m, SEQ, SimTime::ZERO, &a);
        let tp = nominal(&m, par_replay(8), SimTime::ZERO, &a);
        // Fixed phases are identical lane-for-lane.
        for name in ["detect", "restart", "analysis"] {
            assert_eq!(
                ts.phase(name).unwrap().duration(),
                tp.phase(name).unwrap().duration(),
                "{name} is not record-proportional"
            );
        }
        // Record-proportional phases shrink by exactly the lane count.
        assert_eq!(
            tp.phase("redo").unwrap().duration(),
            ts.phase("redo").unwrap().duration() / 8
        );
        assert_eq!(
            tp.phase("undo").unwrap().duration(),
            ts.phase("undo").unwrap().duration() / 8
        );
        assert!(tp.downtime() < ts.downtime());
        // Replay-from-storage route: lanes divide the undo scan.
        let rfs = FailoverModel {
            kind: RecoveryKind::ReplayFromStorage {
                base: SimDuration::from_secs(1),
                hops: 2,
                per_hop: SimDuration::from_millis(500),
                undo_per_record: SimDuration::from_micros(100),
            },
            ..m
        };
        let t = nominal(&rfs, par_replay(8), SimTime::ZERO, &a);
        assert_eq!(
            t.phase("undo").unwrap().duration(),
            SimDuration::from_micros(100) * 4_000 / 8
        );
        // Degenerate lane counts behave like sequential.
        assert_eq!(par_replay(0).lanes(), 1);
        assert_eq!(SEQ.lanes(), 1);
    }

    #[test]
    fn remote_buffer_switch_has_three_phases() {
        let m = FailoverModel {
            detection: SimDuration::from_millis(500),
            restart: SimDuration::from_secs(2),
            kind: RecoveryKind::RemoteBufferSwitch {
                prepare: SimDuration::from_secs(1),
                switchover: SimDuration::from_secs(2),
                recovering: SimDuration::from_secs(3),
            },
            warmup: SimDuration::from_secs(3),
            warmup_peak: SimDuration::from_millis(1),
        };
        let t = nominal(
            &m,
            SEQ,
            SimTime::from_secs(100),
            &analysis(10_000, 9_000, 100),
        );
        assert_eq!(
            t.phases.iter().map(|p| p.name).collect::<Vec<_>>(),
            vec!["detect", "prepare", "switchover", "recovering"]
        );
        assert_eq!(
            t.downtime(),
            SimDuration::from_millis(3500),
            "service resumes after switch-over"
        );
        assert_eq!(
            t.phase("switchover").unwrap().duration(),
            SimDuration::from_secs(2)
        );
        // Phases are contiguous.
        for w in t.phases.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(
            t.phases.last().unwrap().end > t.service_resumed_at,
            "undo runs past resumption"
        );
    }
}
