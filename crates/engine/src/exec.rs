//! Execution context: where logical work meets simulated cost.
//!
//! Every engine operation runs *logically for real* (B+tree pages change)
//! while an [`ExecCtx`] accumulates what the operation would have cost on
//! the node executing it: CPU demand (later reserved on the node's
//! [`cb_sim::CpuResource`]) and I/O wait (buffer misses, write-backs, WAL
//! appends). The cache hierarchy is local buffer pool → optional shared
//! remote pool (memory disaggregation) → storage service.

use cb_obs::{Category, ObsSink};
use cb_sim::{SimDuration, SimTime};
use cb_store::{GroupCommit, PageId, StorageService};

use crate::btree::PageSink;
use crate::bufferpool::{BufferPool, EvictionPolicyKind};
use crate::mvcc::IsolationLevel;

/// Per-policy obs counter names (static so the hot path never allocates):
/// `(bufpool.hit.*, bufpool.miss.*, bufpool.dirty_evict.*)`. These sit
/// alongside the policy-agnostic `bufferpool.*` counters so a trace always
/// shows which replacement policy produced its hit/miss profile.
fn policy_counters(kind: EvictionPolicyKind) -> (&'static str, &'static str, &'static str) {
    match kind {
        EvictionPolicyKind::Lru => (
            "bufpool.hit.lru",
            "bufpool.miss.lru",
            "bufpool.dirty_evict.lru",
        ),
        EvictionPolicyKind::Sieve => (
            "bufpool.hit.sieve",
            "bufpool.miss.sieve",
            "bufpool.dirty_evict.sieve",
        ),
        EvictionPolicyKind::LruK => (
            "bufpool.hit.lru-k",
            "bufpool.miss.lru-k",
            "bufpool.dirty_evict.lru-k",
        ),
    }
}

/// Tunable CPU/cache cost constants. One per SUT profile.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Parse/plan/dispatch cost per SQL statement.
    pub cpu_per_stmt: SimDuration,
    /// CPU cost per page touched (latch, search within page).
    pub cpu_per_page: SimDuration,
    /// CPU cost per row materialized or modified.
    pub cpu_per_row: SimDuration,
    /// CPU cost of commit bookkeeping.
    pub cpu_per_commit: SimDuration,
    /// Extra latency of a local buffer hit (beyond CPU), effectively memory.
    pub local_hit: SimDuration,
    /// Latency of a remote-buffer-pool hit (RDMA round trip), when present.
    pub remote_hit: SimDuration,
    /// CPU consumed handling a storage miss (buffer replacement, I/O
    /// submission/completion) — why saturated throughput still drops when
    /// the working set outgrows the buffer pool.
    pub cpu_per_storage_read: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_per_stmt: SimDuration::from_micros(10),
            cpu_per_page: SimDuration::from_nanos(1500),
            cpu_per_row: SimDuration::from_micros(2),
            cpu_per_commit: SimDuration::from_micros(5),
            local_hit: SimDuration::from_nanos(200),
            remote_hit: SimDuration::from_micros(5),
            cpu_per_storage_read: SimDuration::from_micros(25),
        }
    }
}

/// Per-operation statistics, useful for assertions and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Pages served from the local buffer pool.
    pub local_hits: u64,
    /// Pages served from the shared remote pool.
    pub remote_hits: u64,
    /// Pages fetched from the storage service.
    pub storage_reads: u64,
    /// Dirty pages written back (evictions + flushes).
    pub page_writebacks: u64,
    /// Rows processed.
    pub rows: u64,
    /// Statements executed.
    pub statements: u64,
}

/// The shared remote buffer tier of a memory-disaggregated SUT.
pub struct RemoteTier<'a> {
    /// The shared pool (one per cluster, passed in by the driver).
    pub pool: &'a mut BufferPool,
}

/// Execution environment for one transaction on one node.
pub struct ExecCtx<'a> {
    /// Virtual start instant of the operation.
    pub now: SimTime,
    /// The node's local buffer pool.
    pub pool: &'a mut BufferPool,
    /// Optional shared remote buffer pool (CDB4-style).
    pub remote: Option<RemoteTier<'a>>,
    /// The cluster's storage service.
    pub storage: &'a mut StorageService,
    /// Cost constants for this SUT.
    pub model: &'a CostModel,
    /// Accumulated CPU demand.
    pub cpu: SimDuration,
    /// Accumulated I/O + remote-memory wait.
    pub io: SimDuration,
    /// Counters.
    pub stats: ExecStats,
    /// Isolation level the transaction reads under. At the default
    /// [`IsolationLevel::ReadCommitted`] the version store is never
    /// consulted and the read path is bit-identical to the single-version
    /// engine; versioned levels resolve reads against the snapshot at
    /// [`ExecCtx::now`].
    pub isolation: IsolationLevel,
    /// Group-commit pipeline (attach via [`ExecCtx::with_group_commit`]).
    /// When absent, [`ExecCtx::charge_commit`] falls back to the legacy
    /// per-commit flush.
    group_commit: Option<&'a mut GroupCommit>,
    /// Observability sink (no-op unless enabled via [`ExecCtx::with_obs`]).
    obs: &'a ObsSink,
    /// Track id for emitted events (the executing node).
    track: u64,
}

impl<'a> ExecCtx<'a> {
    /// A fresh context for a transaction starting at `now`.
    pub fn new(
        now: SimTime,
        pool: &'a mut BufferPool,
        remote: Option<RemoteTier<'a>>,
        storage: &'a mut StorageService,
        model: &'a CostModel,
    ) -> Self {
        ExecCtx {
            now,
            pool,
            remote,
            storage,
            model,
            cpu: SimDuration::ZERO,
            io: SimDuration::ZERO,
            stats: ExecStats::default(),
            isolation: IsolationLevel::ReadCommitted,
            group_commit: None,
            obs: &ObsSink::DISABLED,
            track: 0,
        }
    }

    /// Route commits through `gc` instead of the legacy per-commit flush.
    pub fn with_group_commit(mut self, gc: &'a mut GroupCommit) -> Self {
        self.group_commit = Some(gc);
        self
    }

    /// Read under `isolation`. Snapshot levels resolve point reads against
    /// the version store at the transaction's start instant instead of the
    /// tree's latest image.
    pub fn with_isolation(mut self, isolation: IsolationLevel) -> Self {
        self.isolation = isolation;
        self
    }

    /// Attach an observability sink; `track` identifies the executing node
    /// in emitted events. Cache misses, write-backs and WAL appends are
    /// then journaled and aggregated into histograms.
    pub fn with_obs(mut self, obs: &'a ObsSink, track: u64) -> Self {
        self.obs = obs;
        self.track = track;
        self
    }

    /// The virtual instant the accumulated I/O has reached (device queues
    /// are charged at this point in time).
    fn io_now(&self) -> SimTime {
        self.now + self.io
    }

    /// Charge one page access. `write` marks intent to modify; whether that
    /// dirties the cache depends on the storage architecture (redo-pushdown
    /// tiers never hold dirty pages on compute).
    pub fn charge_page(&mut self, id: PageId, write: bool) {
        self.cpu += self.model.cpu_per_page;
        let mark_dirty = write && !self.storage.arch().redo_pushdown();
        let (hit_ctr, miss_ctr, dirty_ctr) = policy_counters(self.pool.policy_kind());
        let access = self.pool.touch(id, mark_dirty);
        if access.hit {
            self.stats.local_hits += 1;
            self.io += self.model.local_hit;
            self.obs.add("bufferpool.hits", 1);
            self.obs.add(hit_ctr, 1);
            return;
        }
        self.obs.add(miss_ctr, 1);
        // Local miss: try the remote tier, then storage.
        let mut served_remote = false;
        if let Some(remote) = self.remote.as_mut() {
            let r = remote.pool.touch(id, mark_dirty);
            if r.hit {
                served_remote = true;
                self.stats.remote_hits += 1;
                self.io += self.model.remote_hit;
                self.obs.add("bufferpool.remote_hits", 1);
            }
            // A dirty page falling out of the (huge) remote pool goes to
            // storage; rare, but account for it.
            if r.evicted_dirty.is_some() {
                let at = self.io_now();
                self.io += self.storage.page_write_cost(at);
                self.stats.page_writebacks += 1;
                self.obs.add("bufferpool.writebacks", 1);
            }
        }
        if !served_remote {
            let at = self.io_now();
            let cost = self.storage.page_read_cost(at);
            self.io += cost;
            self.cpu += self.model.cpu_per_storage_read;
            self.stats.storage_reads += 1;
            self.obs.add("bufferpool.misses", 1);
            self.obs.record("bufferpool.miss_ns", cost.as_nanos());
            self.obs
                .instant(Category::BufferPool, "miss", self.track, at);
        }
        // Local eviction write-back: to the remote tier if present (cheap),
        // otherwise to storage.
        if let Some(victim) = access.evicted_dirty {
            if let Some(remote) = self.remote.as_mut() {
                remote.pool.touch(victim, true);
                self.io += self.model.remote_hit;
            } else {
                let at = self.io_now();
                self.io += self.storage.page_write_cost(at);
                self.obs
                    .instant(Category::BufferPool, "flush", self.track, at);
            }
            self.stats.page_writebacks += 1;
            self.obs.add("bufferpool.writebacks", 1);
            self.obs.add(dirty_ctr, 1);
        }
    }

    /// Resize the local pool, routing dirty shrink-evictions through the
    /// same write-back accounting as touch-evictions: the remote tier
    /// absorbs them when present (at remote-hit latency), otherwise each
    /// one pays a storage page write. Calling [`BufferPool::resize`]
    /// directly drops those write-backs on the floor — use this instead
    /// whenever a context is live.
    pub fn resize_pool(&mut self, capacity: usize) {
        let (_, _, dirty_ctr) = policy_counters(self.pool.policy_kind());
        for victim in self.pool.resize(capacity) {
            if let Some(remote) = self.remote.as_mut() {
                remote.pool.touch(victim, true);
                self.io += self.model.remote_hit;
            } else {
                let at = self.io_now();
                self.io += self.storage.page_write_cost(at);
                self.obs
                    .instant(Category::BufferPool, "flush", self.track, at);
            }
            self.stats.page_writebacks += 1;
            self.obs.add("bufferpool.writebacks", 1);
            self.obs.add(dirty_ctr, 1);
        }
    }

    /// Charge statement dispatch.
    pub fn charge_stmt(&mut self) {
        self.cpu += self.model.cpu_per_stmt;
        self.stats.statements += 1;
    }

    /// Charge `n` rows of processing.
    pub fn charge_rows(&mut self, n: u64) {
        self.cpu += self.model.cpu_per_row * n;
        self.stats.rows += n;
    }

    /// Charge a durable WAL append of `bytes` (the commit path).
    pub fn charge_log_append(&mut self, bytes: u64) {
        self.cpu += self.model.cpu_per_commit;
        let at = self.io_now();
        let cost = self.storage.log_append_cost(at, bytes);
        self.io += cost;
        self.obs.add("wal.appends", 1);
        self.obs.record("wal.append_ns", cost.as_nanos());
        self.obs.instant(Category::Wal, "append", self.track, at);
    }

    /// Charge the durable commit of `bytes` of WAL. With a group-commit
    /// pipeline attached the commit stages into the open batch and waits
    /// for the batch's flush ack (enqueue → flush → ack, each journaled);
    /// without one it degenerates to [`ExecCtx::charge_log_append`].
    pub fn charge_commit(&mut self, bytes: u64) {
        let Some(gc) = self.group_commit.as_deref_mut() else {
            self.charge_log_append(bytes);
            return;
        };
        self.cpu += self.model.cpu_per_commit;
        let at = self.now + self.io;
        let ack = gc.enqueue(self.storage, at, bytes);
        self.io += ack.wait;
        self.obs.add("wal.gc.commits", 1);
        self.obs.record("wal.gc.wait_ns", ack.wait.as_nanos());
        self.obs
            .instant(Category::Wal, "gc-enqueue", self.track, at);
        if let Some((opened_at, flushed_at)) = ack.opened_batch {
            self.obs.add("wal.gc.batches", 1);
            self.obs
                .span(Category::Wal, "gc-batch", self.track, opened_at, flushed_at);
        }
        self.obs
            .instant(Category::Wal, "gc-ack", self.track, ack.ack_at);
    }
}

/// The sink served statements use: the tree reports a page and the context
/// charges it to the pool, the remote tier and storage before the walk moves
/// on. Charges land in the order the tree touches pages, which is the order
/// a recorded [`crate::AccessLog`] replayed through [`ExecCtx::charge_page`]
/// would produce them in.
impl PageSink for ExecCtx<'_> {
    #[inline]
    fn touch(&mut self, page: PageId, write: bool) {
        self.charge_page(page, write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sim::{Device, DeviceKind, NetworkLink};
    use cb_store::StorageArch;

    fn coupled_storage() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn pushdown_storage() -> StorageService {
        StorageService::new(
            StorageArch::SmartStorage,
            Device::new(DeviceKind::NetworkSsd, SimDuration::from_micros(450), None),
            Device::new(DeviceKind::NetworkSsd, SimDuration::from_micros(450), None),
            Some(NetworkLink::tcp(10.0)),
            6,
            SimDuration::ZERO,
        )
    }

    fn memdisagg_storage() -> StorageService {
        StorageService::new(
            StorageArch::MemoryDisagg,
            Device::new(DeviceKind::NetworkSsd, SimDuration::from_micros(450), None),
            Device::new(DeviceKind::NetworkSsd, SimDuration::from_micros(450), None),
            Some(NetworkLink::rdma(10.0)),
            3,
            SimDuration::ZERO,
        )
    }

    #[test]
    fn hit_is_cheaper_than_miss() {
        let mut pool = BufferPool::new(8);
        let mut storage = coupled_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        ctx.charge_page(PageId(1), false); // miss
        let miss_io = ctx.io;
        ctx.charge_page(PageId(1), false); // hit
        let hit_io = ctx.io - miss_io;
        assert!(hit_io < miss_io / 10);
        assert_eq!(ctx.stats.local_hits, 1);
        assert_eq!(ctx.stats.storage_reads, 1);
    }

    #[test]
    fn redo_pushdown_never_dirties() {
        let mut pool = BufferPool::new(1);
        let mut storage = pushdown_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        ctx.charge_page(PageId(1), true);
        ctx.charge_page(PageId(2), true); // evicts page 1 — must not write back
        assert_eq!(ctx.stats.page_writebacks, 0);
        assert_eq!(ctx.pool.dirty_count(), 0);
    }

    #[test]
    fn coupled_storage_pays_dirty_evictions() {
        let mut pool = BufferPool::new(1);
        let mut storage = coupled_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        ctx.charge_page(PageId(1), true);
        let before = ctx.io;
        ctx.charge_page(PageId(2), false); // evicts dirty page 1
        assert_eq!(ctx.stats.page_writebacks, 1);
        // Paid a storage read *and* a write-back.
        assert!(ctx.io - before >= SimDuration::from_micros(180));
    }

    #[test]
    fn remote_tier_serves_local_misses() {
        let mut local = BufferPool::new(1);
        let mut remote_pool = BufferPool::new(1024);
        remote_pool.touch(PageId(7), false); // pre-warm the remote tier
        let mut storage = memdisagg_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(
            SimTime::ZERO,
            &mut local,
            Some(RemoteTier {
                pool: &mut remote_pool,
            }),
            &mut storage,
            &model,
        );
        ctx.charge_page(PageId(7), false);
        assert_eq!(ctx.stats.remote_hits, 1);
        assert_eq!(ctx.stats.storage_reads, 0);
        assert!(ctx.io <= SimDuration::from_micros(10), "io = {}", ctx.io);
    }

    #[test]
    fn remote_tier_absorbs_dirty_evictions() {
        let mut local = BufferPool::new(1);
        let mut remote_pool = BufferPool::new(1024);
        let mut storage = memdisagg_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(
            SimTime::ZERO,
            &mut local,
            Some(RemoteTier {
                pool: &mut remote_pool,
            }),
            &mut storage,
            &model,
        );
        ctx.charge_page(PageId(1), true); // dirty
        ctx.charge_page(PageId(2), false); // evicts 1 into the remote pool
        assert_eq!(ctx.stats.page_writebacks, 1);
        // Subsequent access to page 1 is a remote hit, not a storage read.
        ctx.charge_page(PageId(1), false);
        assert_eq!(ctx.stats.remote_hits, 1);
        let _ = ctx;
        assert!(remote_pool.contains(PageId(1)));
    }

    #[test]
    fn resize_shrink_charges_dirty_writebacks() {
        // Regression: pool shrinks used to call BufferPool::resize directly
        // and silently drop the dirty evictions — no I/O wait, no
        // page_writebacks. The context-level resize must charge them
        // exactly like touch-evictions.
        let mut pool = BufferPool::new(4);
        let mut storage = coupled_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        ctx.charge_page(PageId(1), true);
        ctx.charge_page(PageId(2), true);
        ctx.charge_page(PageId(3), false);
        let before_io = ctx.io;
        ctx.resize_pool(1);
        assert_eq!(ctx.pool.capacity(), 1);
        assert_eq!(ctx.pool.len(), 1);
        assert_eq!(ctx.stats.page_writebacks, 2, "both dirty victims charged");
        // Two storage page writes' worth of I/O was actually paid.
        assert!(
            ctx.io - before_io >= SimDuration::from_micros(180),
            "io delta = {}",
            ctx.io - before_io
        );
    }

    #[test]
    fn resize_shrink_writes_back_into_remote_tier() {
        let mut local = BufferPool::new(4);
        let mut remote_pool = BufferPool::new(1024);
        let mut storage = memdisagg_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(
            SimTime::ZERO,
            &mut local,
            Some(RemoteTier {
                pool: &mut remote_pool,
            }),
            &mut storage,
            &model,
        );
        ctx.charge_page(PageId(1), true);
        ctx.charge_page(PageId(2), false);
        ctx.resize_pool(1);
        assert_eq!(ctx.stats.page_writebacks, 1);
        let _ = ctx;
        assert!(
            remote_pool.contains(PageId(1)),
            "dirty shrink-eviction lands in the remote tier"
        );
    }

    #[test]
    fn charge_commit_without_pipeline_is_the_legacy_flush() {
        let mut pool_a = BufferPool::new(8);
        let mut pool_b = BufferPool::new(8);
        let mut st_a = coupled_storage();
        let mut st_b = coupled_storage();
        let model = CostModel::default();
        let mut legacy = ExecCtx::new(SimTime::ZERO, &mut pool_a, None, &mut st_a, &model);
        let mut fallback = ExecCtx::new(SimTime::ZERO, &mut pool_b, None, &mut st_b, &model);
        legacy.charge_log_append(256);
        fallback.charge_commit(256);
        assert_eq!(legacy.io, fallback.io);
        assert_eq!(legacy.cpu, fallback.cpu);
    }

    #[test]
    fn grouped_commits_share_one_flush() {
        use cb_store::{DurabilityAck, GroupCommitConfig};
        let mut gc = GroupCommit::new(GroupCommitConfig {
            window: SimDuration::from_micros(500),
            max_batch: 64,
            ack: DurabilityAck::LocalFsync,
        });
        let mut storage = coupled_storage();
        let model = CostModel::default();
        let mut pool = BufferPool::new(8);
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model)
                .with_group_commit(&mut gc);
            ctx.charge_commit(128);
            // leader waits out the window plus the device access
            assert!(ctx.io >= SimDuration::from_micros(500));
        }
        {
            let mut ctx = ExecCtx::new(
                SimTime::from_micros(100),
                &mut pool,
                None,
                &mut storage,
                &model,
            )
            .with_group_commit(&mut gc);
            ctx.charge_commit(128);
        }
        assert_eq!(gc.commits(), 2);
        assert_eq!(gc.batches(), 1, "second commit joined the open batch");
        assert_eq!(storage.log_ops(), 1, "one device flush for the batch");
    }

    #[test]
    fn cpu_and_io_accumulate_separately() {
        let mut pool = BufferPool::new(8);
        let mut storage = coupled_storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        ctx.charge_stmt();
        ctx.charge_rows(3);
        let cpu_only = ctx.cpu;
        assert_eq!(cpu_only, model.cpu_per_stmt + model.cpu_per_row * 3);
        assert_eq!(ctx.io, SimDuration::ZERO);
        ctx.charge_log_append(256);
        assert!(ctx.io >= SimDuration::from_micros(90));
        assert_eq!(ctx.cpu, cpu_only + model.cpu_per_commit);
    }
}
