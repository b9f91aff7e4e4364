//! Log shipping and replay: when does a committed change become visible on
//! a read-only replica?
//!
//! Each replica runs a [`ReplicationStream`]: commits arrive after a
//! shipping delay (network), then a replay policy determines when the
//! changes are applied. The three policies mirror the paper's systems:
//! sequential replay (CDB1, CDB2 — one record at a time, backlog builds
//! under write bursts), parallel replay (CDB3's pageservers fan records
//! across lanes), and on-demand replay (CDB4 materializes on access after
//! an RDMA ship, giving millisecond lag).

use cb_sim::{SimDuration, SimTime};
use cb_store::Lsn;

/// How a replica applies shipped log records.
///
/// Replay on real replicas keeps up with the primary in steady state (or
/// the replica would diverge forever); what dominates the observed lag is
/// the *apply batching interval* — how often the replica folds accumulated
/// records into visible pages — plus queueing when a burst momentarily
/// outruns the replayer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayPolicy {
    /// One record at a time on a single replayer, applied in batches.
    Sequential {
        /// Cost to replay one record.
        per_record: SimDuration,
        /// Apply batching interval (visibility quantum).
        batch_interval: SimDuration,
    },
    /// Records fan out over `lanes` parallel replayers, applied in batches.
    Parallel {
        /// Cost to replay one record.
        per_record: SimDuration,
        /// Number of replay lanes.
        lanes: u32,
        /// Apply batching interval (visibility quantum).
        batch_interval: SimDuration,
    },
    /// Records are applied when first accessed; visibility lags only by the
    /// ship latency plus a small bookkeeping cost.
    OnDemand {
        /// Bookkeeping cost per batch.
        per_batch: SimDuration,
    },
}

impl ReplayPolicy {
    /// Parallel replay lanes: the divisor for record-proportional replay
    /// work. 1 for the single-lane policies (sequential replay and CDB4's
    /// on-demand materialization).
    pub fn lanes(&self) -> u64 {
        match self {
            ReplayPolicy::Parallel { lanes, .. } => u64::from((*lanes).max(1)),
            ReplayPolicy::Sequential { .. } | ReplayPolicy::OnDemand { .. } => 1,
        }
    }

    /// Cost to replay one record, ZERO for on-demand materialization
    /// (there is no upfront apply to wait for).
    pub(crate) fn per_record(&self) -> SimDuration {
        match self {
            ReplayPolicy::Sequential { per_record, .. }
            | ReplayPolicy::Parallel { per_record, .. } => *per_record,
            ReplayPolicy::OnDemand { .. } => SimDuration::ZERO,
        }
    }

    fn batch_interval(&self) -> SimDuration {
        match self {
            ReplayPolicy::Sequential { batch_interval, .. }
            | ReplayPolicy::Parallel { batch_interval, .. } => *batch_interval,
            ReplayPolicy::OnDemand { .. } => SimDuration::ZERO,
        }
    }
}

/// Extra commit-path latency of a `required`-of-`total` quorum append: the
/// flush is acknowledged when the `required`-th fastest replica confirms,
/// so the batch waits on the `required`-th smallest one-way ack spread
/// (Aurora's 4/6 segment quorum, Neon's 2/3 safekeeper quorum).
///
/// `spreads` holds each replica's ack latency *beyond* the base log-service
/// hop the profile already charges; the slice need not be sorted. Panics if
/// `required` is zero or exceeds the replica count — a quorum that can
/// never assemble is a misconfigured profile, not a runtime condition.
pub fn quorum_ack_latency(spreads: &[SimDuration], required: usize) -> SimDuration {
    assert!(
        required >= 1 && required <= spreads.len(),
        "quorum {required} of {} can never assemble",
        spreads.len()
    );
    let mut sorted = spreads.to_vec();
    sorted.sort();
    sorted[required - 1]
}

/// The next apply boundary at or after `t` for a batching quantum `b`.
fn next_boundary(t: SimTime, b: SimDuration) -> SimTime {
    if b.is_zero() {
        return t;
    }
    let n = t.as_nanos().div_ceil(b.as_nanos());
    SimTime::from_nanos(n * b.as_nanos())
}

/// The replication pipeline to one replica.
pub struct ReplicationStream {
    /// One-way log shipping latency (network + log-service hop).
    ship_latency: SimDuration,
    policy: ReplayPolicy,
    /// Next-free instant per replay lane.
    lanes: Vec<SimTime>,
    /// Highest LSN applied and when.
    applied: (Lsn, SimTime),
    records: u64,
}

impl ReplicationStream {
    /// A stream with the given shipping latency and replay policy.
    pub fn new(ship_latency: SimDuration, policy: ReplayPolicy) -> Self {
        let lane_count = match policy {
            ReplayPolicy::Sequential { .. } => 1,
            ReplayPolicy::Parallel { lanes, .. } => lanes.max(1) as usize,
            ReplayPolicy::OnDemand { .. } => 1,
        };
        ReplicationStream {
            ship_latency,
            policy,
            lanes: vec![SimTime::ZERO; lane_count],
            applied: (Lsn::ZERO, SimTime::ZERO),
            records: 0,
        }
    }

    /// Process one committed batch of `dml_records` ending at `up_to`,
    /// committed at `commit_time`. Returns the instant the batch is fully
    /// applied (visible) on the replica.
    pub fn on_commit(&mut self, up_to: Lsn, commit_time: SimTime, dml_records: u64) -> SimTime {
        self.records += dml_records;
        let arrival = commit_time + self.ship_latency;
        // Visibility waits for the next apply boundary after arrival.
        let eligible = next_boundary(arrival, self.policy.batch_interval());
        let done = match self.policy {
            ReplayPolicy::Sequential { per_record, .. } => {
                let start = eligible.max(self.lanes[0]);
                let end = start + per_record * dml_records.max(1);
                self.lanes[0] = end;
                end
            }
            ReplayPolicy::Parallel { per_record, .. } => {
                // Distribute the batch's records over lanes; the batch is
                // applied when the slowest lane finishes its share.
                let lanes = self.lanes.len() as u64;
                let per_lane = dml_records.max(1).div_ceil(lanes);
                let mut done = eligible;
                for lane in &mut self.lanes {
                    let start = eligible.max(*lane);
                    let end = start + per_record * per_lane;
                    *lane = end;
                    done = done.max(end);
                }
                done
            }
            ReplayPolicy::OnDemand { per_batch } => arrival + per_batch,
        };
        if up_to > self.applied.0 {
            self.applied = (up_to, done);
        }
        done
    }

    /// The replication lag of a batch: visibility instant minus commit.
    pub fn lag_of(&mut self, up_to: Lsn, commit_time: SimTime, dml_records: u64) -> SimDuration {
        self.on_commit(up_to, commit_time, dml_records)
            .saturating_since(commit_time)
    }

    /// Highest LSN applied so far and when it became visible.
    pub fn applied(&self) -> (Lsn, SimTime) {
        self.applied
    }

    /// Total DML records replayed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Reset lane backlog (replica restart re-provisions from storage).
    pub fn reset(&mut self, now: SimTime) {
        for lane in &mut self.lanes {
            *lane = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    fn seq(per_record: SimDuration, batch: SimDuration) -> ReplayPolicy {
        ReplayPolicy::Sequential {
            per_record,
            batch_interval: batch,
        }
    }

    #[test]
    fn sequential_builds_backlog_within_a_batch_window() {
        let mut s = ReplicationStream::new(MS, seq(MS, SimDuration::ZERO));
        // Three commits at the same instant, 5 records each.
        let t = SimTime::from_secs(1);
        let a = s.on_commit(Lsn(5), t, 5);
        let b = s.on_commit(Lsn(10), t, 5);
        let c = s.on_commit(Lsn(15), t, 5);
        assert_eq!(a, t + MS + MS * 5);
        assert_eq!(b, a + MS * 5, "second batch queues behind the first");
        assert_eq!(c, b + MS * 5);
        assert_eq!(s.applied(), (Lsn(15), c));
        assert_eq!(s.records(), 15);
    }

    #[test]
    fn batch_interval_quantizes_visibility() {
        let batch = SimDuration::from_millis(100);
        let mut s = ReplicationStream::new(MS, seq(SimDuration::from_micros(10), batch));
        // Commit at 110ms: arrival 111ms, next boundary 200ms.
        let done = s.on_commit(Lsn(1), SimTime::from_millis(110), 1);
        assert!(done >= SimTime::from_millis(200), "done = {done:?}");
        assert!(done < SimTime::from_millis(201));
        // Commit exactly on a boundary (minus ship) applies at the boundary.
        let done = s.on_commit(Lsn(2), SimTime::from_millis(299), 1);
        assert!(done >= SimTime::from_millis(300) && done < SimTime::from_millis(301));
    }

    #[test]
    fn parallel_beats_sequential() {
        let mut seq_s = ReplicationStream::new(MS, seq(MS, SimDuration::ZERO));
        let mut par = ReplicationStream::new(
            MS,
            ReplayPolicy::Parallel {
                per_record: MS,
                lanes: 4,
                batch_interval: SimDuration::ZERO,
            },
        );
        let t = SimTime::from_secs(1);
        let a = seq_s.on_commit(Lsn(8), t, 8);
        let b = par.on_commit(Lsn(8), t, 8);
        assert!(b < a);
        assert_eq!(b, t + MS + MS * 2, "8 records over 4 lanes = 2 per lane");
    }

    #[test]
    fn on_demand_lag_is_ship_plus_epsilon() {
        let mut s = ReplicationStream::new(
            SimDuration::from_micros(5),
            ReplayPolicy::OnDemand {
                per_batch: SimDuration::from_micros(100),
            },
        );
        let lag = s.lag_of(Lsn(100), SimTime::from_secs(1), 100);
        assert_eq!(lag, SimDuration::from_micros(105));
        // Lag does not grow with batch size.
        let lag2 = s.lag_of(Lsn(1000), SimTime::from_secs(1), 10_000);
        assert_eq!(lag2, SimDuration::from_micros(105));
    }

    #[test]
    fn idle_stream_has_minimal_lag() {
        let mut s = ReplicationStream::new(MS, seq(MS, SimDuration::ZERO));
        s.on_commit(Lsn(1), SimTime::from_secs(1), 1);
        // A commit long after the backlog drained pays no queueing.
        let lag = s.lag_of(Lsn(2), SimTime::from_secs(100), 1);
        assert_eq!(lag, MS + MS);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut s = ReplicationStream::new(MS, seq(MS, SimDuration::ZERO));
        s.on_commit(Lsn(1000), SimTime::from_secs(1), 1000); // 1s of backlog
        s.reset(SimTime::from_secs(2));
        let lag = s.lag_of(Lsn(1001), SimTime::from_secs(2), 1);
        assert_eq!(lag, MS + MS);
    }

    #[test]
    fn applied_lsn_is_monotonic() {
        let mut s = ReplicationStream::new(MS, seq(MS, SimDuration::ZERO));
        s.on_commit(Lsn(10), SimTime::from_secs(1), 1);
        s.on_commit(Lsn(5), SimTime::from_secs(1), 1); // out-of-order ack
        assert_eq!(s.applied().0, Lsn(10));
    }

    #[test]
    fn quorum_waits_on_the_kth_fastest_replica() {
        let us = SimDuration::from_micros;
        let spreads = [us(130), us(60), us(100), us(180), us(70), us(85)];
        // Aurora-style 4/6: the 4th-smallest spread gates the ack.
        assert_eq!(quorum_ack_latency(&spreads, 4), us(100));
        // Unanimous write waits on the straggler; a single ack on the fastest.
        assert_eq!(quorum_ack_latency(&spreads, 6), us(180));
        assert_eq!(quorum_ack_latency(&spreads, 1), us(60));
    }

    #[test]
    #[should_panic(expected = "never assemble")]
    fn impossible_quorum_is_rejected() {
        let _ = quorum_ack_latency(&[SimDuration::ZERO], 2);
    }
}
