//! Group-commit WAL pipeline.
//!
//! Production cloud databases do not fsync once per transaction: commits
//! arriving close together are staged into a *commit batch* that is durably
//! flushed as a single log-device operation when either a time window
//! elapses or the batch fills, and every transaction in the batch is
//! acknowledged at flush completion. This amortization is exactly what
//! separates the paper's high-concurrency Fig 5 curves: a per-commit fsync
//! serializes on the log device's IOPS gap, while a batched flush pays that
//! gap once per *batch*.
//!
//! [`GroupCommit`] models the pipeline in virtual time and is fully
//! deterministic: the batch leader (first commit after the previous batch
//! sealed) fixes the flush deadline at `arrival + window` and pays the
//! single device access there; followers stage their WAL bytes (wire cost
//! only) and free-ride to the same ack instant. Flush completions are
//! clamped monotonic because a WAL is flushed in order.
//!
//! The degenerate config `window = 0, max_batch = 1` reproduces the legacy
//! per-commit flush bit-for-bit (every commit is its own leader), which the
//! commit-path microbench uses as its baseline.

use cb_sim::{SimDuration, SimTime};

use crate::service::StorageService;

/// How a profile's storage tier acknowledges a durable commit batch.
///
/// The variants mirror Table IV's commit paths; the *cost* of each ack is
/// already captured by the profile's log-device latency and quorum
/// overhead — this enum threads the semantics (who must confirm the flush)
/// through to docs, traces, and the chaos durability oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityAck {
    /// Local fsync on the instance volume (AWS RDS).
    LocalFsync,
    /// `required`-of-`total` replica segment acks (CDB1 / Aurora-like 4/6).
    QuorumAppend {
        /// Acks needed before the batch is durable.
        required: u8,
        /// Total replicas the append is shipped to.
        total: u8,
    },
    /// Dedicated log-service append (CDB2 / Hyperscale-like).
    LogService,
    /// `required`-of-`total` safekeeper acks (CDB3 / Neon-like 2/3).
    SafekeeperQuorum {
        /// Acks needed before the batch is durable.
        required: u8,
        /// Total safekeepers in the WAL quorum.
        total: u8,
    },
    /// RDMA replication into the shared memory pool (CDB4 / PolarDB-MP).
    RdmaReplicated,
}

/// Per-profile group-commit tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Maximum time a batch leader waits for followers before flushing.
    pub window: SimDuration,
    /// Batch seals early once it holds this many commits.
    pub max_batch: usize,
    /// Who must confirm the flush before commits are acknowledged.
    pub ack: DurabilityAck,
}

impl GroupCommitConfig {
    /// The degenerate config: every commit is its own batch, flushed
    /// immediately — bit-identical to the legacy per-commit fsync path.
    pub fn per_commit(ack: DurabilityAck) -> Self {
        GroupCommitConfig {
            window: SimDuration::ZERO,
            max_batch: 1,
            ack,
        }
    }
}

/// What [`GroupCommit::enqueue`] tells the caller about one commit.
#[derive(Clone, Copy, Debug)]
pub struct CommitAck {
    /// Virtual time at which this commit's batch is durably flushed and
    /// the transaction may be acknowledged to the client.
    pub ack_at: SimTime,
    /// `ack_at - enqueue time`: the wait this commit spends in the pipeline.
    pub wait: SimDuration,
    /// `Some((opened_at, flushed_at))` iff this commit opened a new batch
    /// (it is the batch leader). Used to emit one obs span per batch.
    pub opened_batch: Option<(SimTime, SimTime)>,
}

/// One open commit batch.
#[derive(Clone, Copy, Debug)]
struct OpenBatch {
    deadline: SimTime,
    completion: SimTime,
    commits: usize,
}

/// The group-commit pipeline state machine (one per deployment).
#[derive(Clone, Debug)]
pub struct GroupCommit {
    cfg: GroupCommitConfig,
    batch: Option<OpenBatch>,
    last_completion: SimTime,
    // lifetime stats
    enqueued: u64,
    batches: u64,
    last_ack: SimTime,
    last_wait: SimDuration,
}

impl GroupCommit {
    /// Fresh pipeline with no open batch.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        GroupCommit {
            cfg,
            batch: None,
            last_completion: SimTime::ZERO,
            enqueued: 0,
            batches: 0,
            last_ack: SimTime::ZERO,
            last_wait: SimDuration::ZERO,
        }
    }

    /// Stage `bytes` of commit WAL into the pipeline at virtual time `at`
    /// and return when (and how) the commit will be acknowledged.
    ///
    /// The first commit after the previous batch sealed becomes the batch
    /// *leader*: it fixes the flush deadline at `arrival + window` and pays
    /// the single log-device access there (plus the quorum ack overhead).
    /// Later commits whose wire transfer lands before the deadline join the
    /// open batch for free and share the leader's ack instant. A commit
    /// arriving past the deadline — or overflowing `max_batch` — seals the
    /// batch and leads the next one.
    pub fn enqueue(&mut self, storage: &mut StorageService, at: SimTime, bytes: u64) -> CommitAck {
        let wire = storage.log_stage_cost(bytes);
        let arrival = at + wire;
        if let Some(b) = self.batch {
            if arrival >= b.deadline || b.commits >= self.cfg.max_batch {
                self.seal();
            }
        }
        let mut opened = None;
        match &mut self.batch {
            Some(b) => b.commits += 1,
            None => {
                let deadline = arrival + self.cfg.window;
                let flush = storage.log_flush_cost(deadline);
                // A WAL is flushed in order: a batch never completes before
                // its predecessor even when device slots would allow it.
                let completion = (deadline + flush).max(self.last_completion);
                self.last_completion = completion;
                self.batches += 1;
                opened = Some((arrival, completion));
                self.batch = Some(OpenBatch {
                    deadline,
                    completion,
                    commits: 1,
                });
            }
        }
        let b = self.batch.expect("batch just ensured");
        self.enqueued += 1;
        self.last_ack = b.completion;
        self.last_wait = b.completion.saturating_since(at);
        CommitAck {
            ack_at: b.completion,
            wait: self.last_wait,
            opened_batch: opened,
        }
    }

    /// Drop the open batch without flushing it — the node crashed and the
    /// staged (unacknowledged) commits died with it.
    pub fn crash_abort(&mut self) {
        self.batch = None;
    }

    /// Total commits ever enqueued.
    pub fn commits(&self) -> u64 {
        self.enqueued
    }

    /// Total batches ever opened.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Ack instant handed to the most recent enqueue.
    pub fn last_ack(&self) -> SimTime {
        self.last_ack
    }

    /// Pipeline wait of the most recent enqueue.
    pub fn last_wait(&self) -> SimDuration {
        self.last_wait
    }

    fn seal(&mut self) {
        self.batch = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::StorageArch;
    use cb_sim::Device;

    fn storage() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            Device::new(SimDuration::from_micros(80), None),
            Device::new(SimDuration::from_micros(80), Some(15_000)),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn cfg(window_us: u64, max_batch: usize) -> GroupCommitConfig {
        GroupCommitConfig {
            window: SimDuration::from_micros(window_us),
            max_batch,
            ack: DurabilityAck::LocalFsync,
        }
    }

    #[test]
    fn followers_share_the_leaders_ack() {
        let mut st = storage();
        let mut gc = GroupCommit::new(cfg(500, 64));
        let t0 = SimTime::from_millis(1);
        let lead = gc.enqueue(&mut st, t0, 100);
        assert!(lead.opened_batch.is_some());
        let follow = gc.enqueue(&mut st, t0 + SimDuration::from_micros(100), 100);
        assert!(follow.opened_batch.is_none());
        assert_eq!(lead.ack_at, follow.ack_at);
        assert_eq!(gc.batches(), 1);
        assert_eq!(gc.commits(), 2);
        // leader ack = arrival + window + device latency (no net, no quorum)
        assert_eq!(
            lead.ack_at,
            t0 + SimDuration::from_micros(500) + SimDuration::from_micros(80)
        );
    }

    #[test]
    fn window_expiry_seals_the_batch() {
        let mut st = storage();
        let mut gc = GroupCommit::new(cfg(500, 64));
        let a = gc.enqueue(&mut st, SimTime::from_millis(1), 64);
        let b = gc.enqueue(&mut st, SimTime::from_millis(10), 64);
        assert!(b.opened_batch.is_some(), "past-deadline commit leads anew");
        assert!(b.ack_at > a.ack_at);
        assert_eq!(gc.batches(), 2);
    }

    #[test]
    fn batch_cap_seals_the_batch() {
        let mut st = storage();
        let mut gc = GroupCommit::new(cfg(10_000, 2));
        let t0 = SimTime::from_millis(1);
        let us = SimDuration::from_micros(1);
        let a = gc.enqueue(&mut st, t0, 10);
        let b = gc.enqueue(&mut st, t0 + us, 10);
        let c = gc.enqueue(&mut st, t0 + us + us, 10);
        assert_eq!(a.ack_at, b.ack_at);
        assert!(c.opened_batch.is_some());
        assert_eq!(gc.batches(), 2);
    }

    #[test]
    fn per_commit_config_matches_legacy_append_cost() {
        // window = 0, cap = 1 must reproduce StorageService::log_append_cost
        // exactly, commit for commit, on an identical device.
        let mut st_old = storage();
        let mut st_new = storage();
        let mut gc = GroupCommit::new(GroupCommitConfig::per_commit(DurabilityAck::LocalFsync));
        let mut t = SimTime::from_micros(10);
        for i in 0..50u64 {
            let bytes = 60 + (i % 7) * 13;
            let legacy = st_old.log_append_cost(t, bytes);
            let ack = gc.enqueue(&mut st_new, t, bytes);
            assert_eq!(ack.wait, legacy, "commit {i}");
            t += SimDuration::from_micros(20 + (i % 5) * 9);
        }
        assert_eq!(gc.batches(), 50);
    }

    #[test]
    fn batching_amortizes_the_iops_gap() {
        // 64 commits arriving 10us apart: per-commit flushing serializes on
        // the 15k-IOPS gap (66.6us/op); one batch acks them all at
        // window + one access.
        let arrivals: Vec<SimTime> = (0..64)
            .map(|i| SimTime::from_millis(1) + SimDuration::from_micros(10 * i))
            .collect();
        let mut st = storage();
        let mut grouped = GroupCommit::new(cfg(800, 64));
        let grouped_done = arrivals
            .iter()
            .map(|&t| grouped.enqueue(&mut st, t, 100).ack_at)
            .max()
            .unwrap();
        let mut st = storage();
        let mut single = GroupCommit::new(GroupCommitConfig::per_commit(DurabilityAck::LocalFsync));
        let single_done = arrivals
            .iter()
            .map(|&t| single.enqueue(&mut st, t, 100).ack_at)
            .max()
            .unwrap();
        assert_eq!(grouped.batches(), 1);
        assert!(
            grouped_done + SimDuration::from_millis(2) < single_done,
            "grouped {grouped_done:?} should beat serialized {single_done:?} by >2ms"
        );
    }

    #[test]
    fn completions_are_monotonic_even_when_cap_reorders_deadlines() {
        // Seal by cap, then lead a new batch with an *earlier* arrival: the
        // WAL still flushes in order, so acks never go backwards.
        let mut st = storage();
        let mut gc = GroupCommit::new(cfg(5_000, 2));
        let t0 = SimTime::from_millis(5);
        let a = gc.enqueue(&mut st, t0, 10);
        let _ = gc.enqueue(&mut st, t0 + SimDuration::from_micros(1), 10);
        let late = gc.enqueue(&mut st, t0 + SimDuration::from_micros(2), 10);
        assert!(late.ack_at >= a.ack_at);
    }

    #[test]
    fn crash_abort_drops_the_open_batch() {
        let mut st = storage();
        let mut gc = GroupCommit::new(cfg(500, 64));
        gc.enqueue(&mut st, SimTime::from_millis(1), 10);
        assert!(gc.batch.is_some());
        gc.crash_abort();
        assert!(gc.batch.is_none());
        // next commit leads a fresh batch
        let next = gc.enqueue(&mut st, SimTime::from_millis(2), 10);
        assert!(next.opened_batch.is_some());
    }
}
