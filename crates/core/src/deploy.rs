//! Deployment assembly: one SUT profile turned into a running simulated
//! cluster — database, storage service, compute nodes, replication streams,
//! optional remote buffer pool, and the prepared statement registry.

use cb_cluster::{Node, NodeId, NodeRole, ReplicationStream, ResourceUsage};
use cb_engine::sql::StmtRegistry;
use cb_engine::{BufferPool, Database};
use cb_sim::SimTime;
use cb_store::{GroupCommit, StorageService};
use cb_sut::SutProfile;

use crate::schema::{
    create_tables, load_dataset, DatasetShape, SalesStmts, SalesTables, STMT_DB_TOML,
};

/// A fully assembled system under test, ready to drive.
pub struct Deployment {
    /// The SUT profile this deployment instantiates.
    pub profile: SutProfile,
    /// Simulation scale divisor (data and caches shrink together).
    pub sim_scale: u64,
    /// Benchmark scale factor (1, 10, 100).
    pub scale_factor: u64,
    /// The canonical database.
    pub db: Database,
    /// Sales-service table ids.
    pub tables: SalesTables,
    /// Generated dataset shape.
    pub shape: DatasetShape,
    /// The shared storage service.
    pub storage: StorageService,
    /// The primary's group-commit pipeline (commit batching state).
    pub group_commit: GroupCommit,
    /// Compute nodes; index 0 is the RW primary.
    pub nodes: Vec<Node>,
    /// Replication streams, one per RO node (aligned with `nodes[1..]`).
    pub streams: Vec<ReplicationStream>,
    /// Shared remote buffer pool (memory disaggregation), if the SUT has one.
    pub remote_pool: Option<BufferPool>,
    /// Prepared statements (the `stmt_db.toml` registry).
    pub registry: StmtRegistry,
    /// Handles to the six sales statements in `registry`.
    pub stmts: SalesStmts,
    /// Seed the initial dataset was generated from — kept so recovery tests
    /// can reconstruct the exact pre-WAL base snapshot.
    pub dataset_seed: u64,
}

impl Deployment {
    /// Build a deployment: create tables, load the dataset, spin up one RW
    /// node plus `ro_nodes` read-only replicas.
    pub fn new(
        profile: SutProfile,
        scale_factor: u64,
        sim_scale: u64,
        ro_nodes: usize,
        seed: u64,
    ) -> Self {
        let mut db = Database::new();
        let tables = create_tables(&mut db);
        let shape = DatasetShape::new(scale_factor, sim_scale);
        load_dataset(&mut db, tables, shape, seed);
        let mut registry = StmtRegistry::new();
        registry
            .load(STMT_DB_TOML, &db)
            .expect("built-in statements must load");
        let stmts = SalesStmts::resolve(&registry);
        let storage = profile.storage_service();
        let pool_pages = profile.buffer_pages(sim_scale);
        let mut nodes = vec![Node::new(
            NodeId(0),
            NodeRole::ReadWrite,
            profile.max_vcores,
            pool_pages,
        )];
        let mut streams = Vec::new();
        for i in 0..ro_nodes {
            nodes.push(Node::new(
                NodeId(i as u32 + 1),
                NodeRole::ReadOnly,
                profile.max_vcores,
                pool_pages,
            ));
            streams.push(profile.replication_stream());
        }
        let remote_pool = profile.remote_pages(sim_scale).map(BufferPool::new);
        let group_commit = profile.group_commit_pipeline();
        Deployment {
            profile,
            sim_scale,
            scale_factor,
            db,
            tables,
            shape,
            storage,
            group_commit,
            nodes,
            streams,
            remote_pool,
            registry,
            stmts,
            dataset_seed: seed,
        }
    }

    /// Reconstruct the base snapshot this deployment's WAL began from: fresh
    /// tables plus the same seeded dataset, no log records. This is the
    /// `base` that [`cb_engine::recovery::rebuild`] rolls the archived log
    /// forward over — the "restore from backup" half of crash recovery.
    pub fn base_database(&self) -> Database {
        let mut db = Database::new();
        let tables = create_tables(&mut db);
        load_dataset(&mut db, tables, self.shape, self.dataset_seed);
        db
    }

    /// Number of read-only nodes.
    pub(crate) fn ro_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The logical data size in *paper-scale* GB (the simulation divisor is
    /// undone so billing matches the real deployment it models).
    pub(crate) fn data_gb_paper(&self) -> f64 {
        (self.db.data_bytes() * self.sim_scale) as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Reset all *runtime* state to virtual time zero so the deployment can
    /// be driven again: CPU queues, allocation gauges, node status, lock
    /// table, storage device queues, replication lanes. Durable state (data
    /// content, WAL) and buffer-pool contents survive — re-running on a
    /// warmed deployment mirrors how the paper reruns mixes on a live
    /// service.
    pub fn reset_runtime(&mut self) {
        for node in &mut self.nodes {
            let vcores = self.profile.max_vcores;
            let pool_pages = node.pool.capacity();
            let role = node.role;
            let id = node.id;
            let mut fresh = Node::new(id, role, vcores, pool_pages);
            std::mem::swap(&mut fresh.pool, &mut node.pool);
            *node = fresh;
        }
        self.storage = self.profile.storage_service();
        self.group_commit = self.profile.group_commit_pipeline();
        self.streams = (0..self.streams.len())
            .map(|_| self.profile.replication_stream())
            .collect();
        self.db.locks_mut().clear();
        // Version chains are runtime state like locks: a fresh run must not
        // see snapshots published by the previous one.
        self.db.versions_mut().clear();
    }

    /// Meter resource consumption over `[from, to)`. Device-level I/O is
    /// metered from the storage service's op counters, so the billed IOPS
    /// reflect what the run actually issued — group commit's batched
    /// flushes directly shrink this figure (see
    /// [`ResourceUsage::billable_iops`]).
    pub fn usage(&self, from: SimTime, to: SimTime) -> ResourceUsage {
        let mut u = self
            .profile
            .usage(&self.nodes, self.data_gb_paper(), from, to);
        let secs = to.saturating_since(from).as_secs_f64();
        if secs > 0.0 {
            let ops = self.storage.page_ops() + self.storage.log_ops();
            u.observed_iops = (ops as f64 / secs).round() as u64;
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(profile: SutProfile) -> Deployment {
        // sim_scale 1000 => 300/300/3000 rows; instant to build.
        Deployment::new(profile, 1, 1000, 1, 42)
    }

    #[test]
    fn builds_all_five_suts() {
        for p in SutProfile::all() {
            let d = tiny(p);
            assert_eq!(d.nodes.len(), 2);
            assert_eq!(d.streams.len(), 1);
            assert_eq!(d.registry.len(), 6);
            assert_eq!(d.db.table(d.tables.orders).rows(), d.shape.orders);
        }
    }

    #[test]
    fn remote_pool_only_for_memory_disaggregation() {
        assert!(tiny(SutProfile::cdb4()).remote_pool.is_some());
        assert!(tiny(SutProfile::aws_rds()).remote_pool.is_none());
        assert!(tiny(SutProfile::cdb1()).remote_pool.is_none());
    }

    #[test]
    fn scale_out_adds_nodes_and_streams() {
        assert_eq!(tiny(SutProfile::cdb1()).ro_count(), 1);
        let d = Deployment::new(SutProfile::cdb1(), 1, 1000, 3, 42);
        assert_eq!(d.ro_count(), 3);
        assert_eq!(d.streams.len(), 3);
        assert_eq!(d.nodes[3].role, NodeRole::ReadOnly);
    }

    #[test]
    fn paper_scale_billing_undoes_sim_scale() {
        let d = tiny(SutProfile::aws_rds());
        let gb = d.data_gb_paper();
        // 300/300/3000 rows ~ a few hundred KB of pages, x1000 scale ~ 0.1-1 GB.
        assert!(gb > 0.05 && gb < 5.0, "gb = {gb}");
    }

    #[test]
    fn reset_runtime_allows_rerunning() {
        use crate::driver::{run, RunOptions, TenantSpec, VcoreControl};
        use crate::workload::{AccessDistribution, KeyPartition, TxnMix};
        use cb_sim::SimDuration;
        let mut d = tiny(SutProfile::aws_rds());
        let mk = |d: &Deployment| {
            TenantSpec::constant(
                5,
                SimDuration::from_secs(2),
                TxnMix::read_only(),
                AccessDistribution::Uniform,
                KeyPartition::whole(d.shape.orders, d.shape.customers),
            )
        };
        let opts = RunOptions {
            vcores: VcoreControl::Fixed,
            ..RunOptions::default()
        };
        let spec = mk(&d);
        let first = run(&mut d, &[spec], &opts).overall_tps();
        // Without a reset, the second run would find the CPU queued past
        // its whole horizon and record nothing.
        d.reset_runtime();
        let spec = mk(&d);
        let second = run(&mut d, &[spec], &opts).overall_tps();
        assert!(first > 100.0);
        assert!(
            second > first * 0.5,
            "second run healthy: {second} vs {first}"
        );
    }

    #[test]
    fn base_database_reproduces_the_initial_snapshot() {
        // A copy of a fresh deployment's database and a regenerated base are
        // the same snapshot: the chaos harness restores the former where it
        // used to build the latter.
        let d = tiny(SutProfile::cdb2());
        let copy = d.db.clone();
        let base = d.base_database();
        for (live, rebuilt) in copy.tables().iter().zip(base.tables()) {
            assert_eq!(live.name(), rebuilt.name());
            assert_eq!(
                copy.dump_table(live.id()),
                base.dump_table(rebuilt.id()),
                "table {} must match before any transactions ran",
                live.name()
            );
            assert_eq!(live.rows(), rebuilt.rows());
            assert_eq!(live.next_auto_key(), rebuilt.next_auto_key());
        }
        assert_eq!(copy.tables().len(), base.tables().len());
        assert_eq!(copy.pages().live_pages(), base.pages().live_pages());
        assert_eq!(base.log().retained(), 0, "a base snapshot has no WAL");
        assert_eq!(copy.log().retained(), 0, "nor has a freshly loaded one");
    }

    #[test]
    fn usage_measures_all_nodes() {
        let d = tiny(SutProfile::aws_rds());
        let u = d.usage(SimTime::ZERO, SimTime::from_secs(60));
        assert!((u.avg_vcores - 8.0).abs() < 1e-9, "RW + 1 RO at 4 vCores");
    }
}
