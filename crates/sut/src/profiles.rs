//! The five systems under test, configured to mirror the paper's Table IV
//! deployments and the architectural behaviours of Section III.
//!
//! Every number a SUT needs lives here: buffer sizes, device latencies,
//! replication topology, replay policy, scaling policy, fail-over model,
//! cost-relevant resources, and both pricing models (resource-unit and
//! vendor-actual). The benchmark core consumes these profiles; nothing else
//! in the workspace hard-codes per-system behaviour.

use cb_cluster::{
    quorum_ack_latency, FailoverModel, MeterConfig, RecoveryKind, ReplayPolicy, ReplicationStream,
    ScalingKind,
};
use cb_engine::{CostModel, IsolationLevel};
use cb_sim::{Device, NetworkLink, SimDuration};
use cb_store::{DurabilityAck, GroupCommit, GroupCommitConfig, StorageArch, StorageService};

/// Vendor-style "actual" pricing, for the paper's starred metrics
/// (P-Score*, E1-Score*, T-Score*, O-Score*).
#[derive(Clone, Copy, Debug)]
pub struct ActualPricing {
    /// $ per vCore-hour.
    pub vcore_hour: f64,
    /// $ per GB-hour of memory.
    pub mem_gb_hour: f64,
    /// $ per GB-hour of storage.
    pub storage_gb_hour: f64,
    /// $ per 100 IOPS-hour.
    pub iops_100_hour: f64,
    /// $ per Gbps-hour of network.
    pub network_gbps_hour: f64,
    /// Minimum billed duration per usage period (RDS bills at least ten
    /// minutes; CDB2's elastic pool bills at least an hour).
    pub min_billing: SimDuration,
}

/// A fully configured system under test.
#[derive(Clone, Debug)]
pub struct SutProfile {
    /// Short identifier ("aws-rds", "cdb1", …).
    pub name: &'static str,
    /// Display name as in the paper ("AWS RDS", "CDB1", …).
    pub display: &'static str,
    /// Engine label from Table IV.
    pub engine: &'static str,
    /// Storage architecture.
    pub arch: StorageArch,

    // -- compute --
    /// Maximum (provisioned) vCores.
    pub max_vcores: f64,
    /// Minimum vCores for autoscaled tiers (equal to `max_vcores` for
    /// [`ScalingKind::Fixed`]).
    pub min_vcores: f64,
    /// Local buffer size in bytes (paper Table IV).
    pub local_buffer_bytes: u64,
    /// Shared remote buffer pool in bytes (CDB4's 24 GB), if any.
    pub remote_buffer_bytes: Option<u64>,
    /// Local RAM in GB for cost accounting.
    pub local_mem_gb: f64,
    /// GB of RAM per vCore when memory scales with serverless CPU.
    pub gb_per_vcore: Option<f64>,

    // -- storage --
    /// Data replicas maintained by the storage service.
    pub storage_replication: u32,
    /// Page-device access latency.
    pub page_latency: SimDuration,
    /// Log-device access latency.
    pub log_latency: SimDuration,
    /// Page-device IOPS ceiling, if throttled.
    pub page_iops: Option<u64>,
    /// Commit-path log throughput ceiling (group-commit rate), if any.
    pub log_iops: Option<u64>,
    /// Provisioned IOPS for billing (Table V).
    pub billed_iops: u64,
    /// Network bandwidth in Gbps.
    pub network_gbps: f64,
    /// True if the compute-storage fabric is RDMA.
    pub rdma: bool,
    /// Extra commit-path latency for quorum acknowledgement.
    pub quorum_extra: SimDuration,
    /// Group-commit pipeline tuning: flush window, batch cap, and who must
    /// acknowledge durability (Section III commit paths).
    pub group_commit: GroupCommitConfig,

    // -- replication to read-only nodes --
    /// One-way log shipping latency to a replica.
    pub ship_latency: SimDuration,
    /// Replay policy on the replica.
    pub replay: ReplayPolicy,

    // -- behaviour --
    /// Engine cost constants.
    pub cost_model: CostModel,
    /// Fail-over model.
    pub failover: FailoverModel,
    /// Autoscaling behaviour; the scaler's tuning is a constant of the kind,
    /// bounded by `min_vcores` / `max_vcores`.
    pub scaling: ScalingKind,
    /// Service disruption at each scaling point (CDB1's serverless tier
    /// pauses connections while it finds a scaling point — the paper
    /// measures an 82% throughput degradation under elastic patterns).
    pub scale_disruption: SimDuration,
    /// Checkpoint interval for architectures that flush dirty pages.
    pub checkpoint_interval: Option<SimDuration>,
    /// Default transaction isolation. Every modeled vendor ships READ
    /// COMMITTED out of the box (PostgreSQL and the MySQL-family services
    /// configure away from InnoDB's REPEATABLE READ default in their cloud
    /// tiers), so all five profiles default to
    /// [`IsolationLevel::ReadCommitted`]; runs opt into SI/SER via
    /// `RunOptions::isolation`.
    pub default_isolation: IsolationLevel,
    // No per-profile eviction policy: every modeled vendor ships an
    // LRU-approximating replacement scheme (PostgreSQL clocks, InnoDB
    // midpoint LRU, SQL Server LRU-K2 — all of which the pool's exact LRU
    // stands in for), so all five run `EvictionPolicyKind::default()` (LRU);
    // runs opt into SIEVE / LRU-K via `RunOptions::eviction`.
    /// Vendor-style pricing for the starred metrics.
    pub actual_pricing: ActualPricing,
}

fn base_cost_model() -> CostModel {
    // Calibrated so a 4-vCore node peaks at roughly the paper's TPS range
    // (tens of thousands for point transactions): ~165 us of CPU per simple
    // statement including parse/plan/executor overhead.
    CostModel {
        cpu_per_stmt: SimDuration::from_micros(150),
        cpu_per_page: SimDuration::from_micros(2),
        cpu_per_row: SimDuration::from_micros(8),
        cpu_per_commit: SimDuration::from_micros(15),
        local_hit: SimDuration::from_nanos(300),
        remote_hit: SimDuration::from_micros(5),
        cpu_per_storage_read: SimDuration::from_micros(25),
    }
}

const GB: u64 = 1024 * 1024 * 1024;
const MB: u64 = 1024 * 1024;

impl SutProfile {
    /// AWS RDS: coupled compute/storage on local NVMe, ARIES recovery,
    /// provisioned 4 vCores / 16 GB, 128 MB buffer.
    pub fn aws_rds() -> Self {
        SutProfile {
            name: "aws-rds",
            display: "AWS RDS",
            engine: "PostgreSQL 15",
            arch: StorageArch::Coupled,
            max_vcores: 4.0,
            min_vcores: 4.0,
            local_buffer_bytes: 128 * MB,
            remote_buffer_bytes: None,
            local_mem_gb: 16.0,
            gb_per_vcore: None,
            storage_replication: 2, // primary + standby volume
            page_latency: SimDuration::from_micros(90),
            log_latency: SimDuration::from_micros(80),
            page_iops: Some(50_000),
            log_iops: Some(15_000),
            billed_iops: 1_000,
            network_gbps: 10.0,
            rdma: false,
            quorum_extra: SimDuration::ZERO,
            // Postgres-style commit_delay: the leader holds the WAL open a
            // short window so concurrent commits share one local fsync.
            group_commit: GroupCommitConfig {
                window: SimDuration::from_micros(500),
                max_batch: 64,
                ack: DurabilityAck::LocalFsync,
            },
            ship_latency: SimDuration::from_millis(2),
            replay: ReplayPolicy::Sequential {
                per_record: SimDuration::from_micros(5),
                batch_interval: SimDuration::from_millis(6),
            },
            cost_model: base_cost_model(),
            failover: FailoverModel {
                detection: SimDuration::from_secs(2),
                restart: SimDuration::from_secs(6),
                kind: RecoveryKind::Aries {
                    per_record: SimDuration::from_micros(35),
                    base: SimDuration::from_secs(2),
                },
                // Single-threaded crash recovery, like the replicas' replay.
                replay: ReplayPolicy::Sequential {
                    per_record: SimDuration::from_micros(5),
                    batch_interval: SimDuration::from_millis(6),
                },
                warmup: SimDuration::from_secs(24),
                warmup_peak: SimDuration::from_millis(8),
            },
            scaling: ScalingKind::Fixed,
            scale_disruption: SimDuration::ZERO,
            checkpoint_interval: Some(SimDuration::from_secs(30)),
            default_isolation: IsolationLevel::ReadCommitted,
            actual_pricing: ActualPricing {
                vcore_hour: 0.30,
                mem_gb_hour: 0.020,
                storage_gb_hour: 0.0015,
                iops_100_hour: 0.0002,
                network_gbps_hour: 0.010,
                min_billing: SimDuration::from_secs(600), // 10-minute minimum
            },
        }
    }

    /// CDB1 (Aurora-like): storage disaggregation with redo pushdown,
    /// six-way replicated storage, serverless 1–4 vCores with gradual
    /// scale-down.
    pub fn cdb1() -> Self {
        SutProfile {
            name: "cdb1",
            display: "CDB1",
            engine: "PostgreSQL 15",
            arch: StorageArch::SmartStorage,
            max_vcores: 4.0,
            min_vcores: 1.0,
            local_buffer_bytes: 128 * MB,
            remote_buffer_bytes: None,
            local_mem_gb: 32.0, // 1:8 CPU:memory ratio
            gb_per_vcore: Some(8.0),
            storage_replication: 6,
            page_latency: SimDuration::from_micros(450),
            log_latency: SimDuration::from_micros(150), // smart-storage fast log path
            page_iops: Some(80_000),
            log_iops: Some(13_000),
            billed_iops: 1_000,
            network_gbps: 10.0,
            rdma: false,
            // 4-of-6 segment quorum: the batch ack waits on the 4th-fastest
            // replica's spread beyond the base smart-storage log hop.
            quorum_extra: quorum_ack_latency(
                &[60, 70, 85, 100, 130, 180].map(SimDuration::from_micros),
                4,
            ),
            group_commit: GroupCommitConfig {
                window: SimDuration::from_micros(300),
                max_batch: 128,
                ack: DurabilityAck::QuorumAppend {
                    required: 4,
                    total: 6,
                },
            },
            ship_latency: SimDuration::from_millis(5),
            replay: ReplayPolicy::Sequential {
                per_record: SimDuration::from_micros(10),
                batch_interval: SimDuration::from_millis(110),
            },
            cost_model: base_cost_model(),
            failover: FailoverModel {
                detection: SimDuration::from_secs(2),
                restart: SimDuration::from_secs(3),
                kind: RecoveryKind::ReplayFromStorage {
                    base: SimDuration::from_millis(800),
                    hops: 1,
                    per_hop: SimDuration::from_millis(200),
                    undo_per_record: SimDuration::from_micros(100),
                },
                replay: ReplayPolicy::Sequential {
                    per_record: SimDuration::from_micros(10),
                    batch_interval: SimDuration::from_millis(110),
                },
                warmup: SimDuration::from_secs(9),
                warmup_peak: SimDuration::from_millis(4),
            },
            scaling: ScalingKind::GradualDown,
            scale_disruption: SimDuration::from_secs(25),
            checkpoint_interval: None,
            default_isolation: IsolationLevel::ReadCommitted,
            actual_pricing: ActualPricing {
                vcore_hour: 0.28,
                mem_gb_hour: 0.018,
                storage_gb_hour: 0.0010,
                iops_100_hour: 0.0002,
                network_gbps_hour: 0.010,
                min_billing: SimDuration::from_secs(60),
            },
        }
    }

    /// CDB2 (Hyperscale-like): log service + page service separation, a
    /// small 44 MB buffer, elastic-pool multi-tenancy, on-demand scaling.
    pub fn cdb2() -> Self {
        SutProfile {
            name: "cdb2",
            display: "CDB2",
            engine: "SQL Server 12",
            arch: StorageArch::LogPageSplit,
            max_vcores: 4.0,
            min_vcores: 0.5,
            local_buffer_bytes: 44 * MB,
            remote_buffer_bytes: None,
            local_mem_gb: 20.0,
            gb_per_vcore: Some(3.0),
            storage_replication: 3,
            page_latency: SimDuration::from_micros(500),
            log_latency: SimDuration::from_micros(120), // dedicated fast log service
            page_iops: Some(60_000),
            log_iops: Some(9_000),
            billed_iops: 327_680,
            network_gbps: 10.0,
            rdma: false,
            quorum_extra: SimDuration::from_micros(80),
            // The dedicated log service batches landing appends itself; a
            // slightly wider window than RDS compensates its lower IOPS cap.
            group_commit: GroupCommitConfig {
                window: SimDuration::from_micros(400),
                max_batch: 128,
                ack: DurabilityAck::LogService,
            },
            ship_latency: SimDuration::from_millis(20), // log service -> page service -> replica
            replay: ReplayPolicy::Sequential {
                per_record: SimDuration::from_micros(20),
                batch_interval: SimDuration::from_millis(680),
            },
            // A heavier per-statement engine path: the paper observes
            // CDB2's throughput is bounded well below the others at every
            // scale factor.
            cost_model: CostModel {
                cpu_per_stmt: SimDuration::from_micros(450),
                ..base_cost_model()
            },
            failover: FailoverModel {
                detection: SimDuration::from_secs(2),
                restart: SimDuration::from_secs(2),
                kind: RecoveryKind::ReplayFromStorage {
                    base: SimDuration::from_millis(600),
                    hops: 3, // log service, page service, object tier
                    per_hop: SimDuration::from_millis(400),
                    undo_per_record: SimDuration::from_micros(100),
                },
                replay: ReplayPolicy::Sequential {
                    per_record: SimDuration::from_micros(20),
                    batch_interval: SimDuration::from_millis(680),
                },
                warmup: SimDuration::from_secs(27),
                warmup_peak: SimDuration::from_millis(6),
            },
            scaling: ScalingKind::OnDemand,
            scale_disruption: SimDuration::ZERO,
            checkpoint_interval: None,
            default_isolation: IsolationLevel::ReadCommitted,
            actual_pricing: ActualPricing {
                vcore_hour: 0.42,
                mem_gb_hour: 0.020,
                storage_gb_hour: 0.0010,
                iops_100_hour: 0.00015,
                network_gbps_hour: 0.010,
                min_billing: SimDuration::from_secs(3600), // pool bills by the hour
            },
        }
    }

    /// CDB3 (Neon-like): safekeeper WAL quorum + pageservers with parallel
    /// replay, Local File Cache, 0.25-CU granularity with pause-and-resume,
    /// git-style branches for tenants.
    pub fn cdb3() -> Self {
        SutProfile {
            name: "cdb3",
            display: "CDB3",
            engine: "PostgreSQL 15",
            arch: StorageArch::SafekeeperPageserver,
            max_vcores: 4.0,
            min_vcores: 0.25,
            local_buffer_bytes: 128 * MB,
            remote_buffer_bytes: None,
            local_mem_gb: 16.0,
            gb_per_vcore: Some(4.0),
            storage_replication: 3,
            page_latency: SimDuration::from_micros(400),
            log_latency: SimDuration::from_micros(140),
            page_iops: Some(70_000),
            log_iops: Some(14_000),
            billed_iops: 1_000,
            network_gbps: 10.0,
            rdma: false,
            // 2-of-3 safekeeper quorum: the ack waits on the 2nd-fastest
            // safekeeper's spread beyond the base log hop.
            quorum_extra: quorum_ack_latency(&[90, 120, 160].map(SimDuration::from_micros), 2),
            group_commit: GroupCommitConfig {
                window: SimDuration::from_micros(300),
                max_batch: 128,
                ack: DurabilityAck::SafekeeperQuorum {
                    required: 2,
                    total: 3,
                },
            },
            ship_latency: SimDuration::from_millis(2),
            replay: ReplayPolicy::Parallel {
                per_record: SimDuration::from_micros(5),
                lanes: 8,
                batch_interval: SimDuration::from_millis(5),
            },
            cost_model: base_cost_model(),
            failover: FailoverModel {
                detection: SimDuration::from_secs(2),
                restart: SimDuration::from_secs(4), // k8s pod reschedule
                kind: RecoveryKind::ReplayFromStorage {
                    base: SimDuration::from_millis(700),
                    hops: 2, // safekeeper + pageserver
                    per_hop: SimDuration::from_millis(300),
                    undo_per_record: SimDuration::from_micros(100),
                },
                // The recovering pageserver runs the same checkpoint-
                // partitioned 8-lane replay as the RO replicas, dividing
                // the record-proportional undo scan.
                replay: ReplayPolicy::Parallel {
                    per_record: SimDuration::from_micros(5),
                    lanes: 8,
                    batch_interval: SimDuration::from_millis(5),
                },
                warmup: SimDuration::from_secs(18),
                warmup_peak: SimDuration::from_millis(5),
            },
            scaling: ScalingKind::QuantPauseResume,
            scale_disruption: SimDuration::ZERO,
            checkpoint_interval: None,
            default_isolation: IsolationLevel::ReadCommitted,
            actual_pricing: ActualPricing {
                vcore_hour: 0.16, // startup pricing, ~3x cheaper CPU
                mem_gb_hour: 0.008,
                storage_gb_hour: 0.0008,
                iops_100_hour: 0.0001,
                network_gbps_hour: 0.005,
                min_billing: SimDuration::from_secs(60),
            },
        }
    }

    /// CDB4 (PolarDB-MP-like): memory disaggregation — 10 GB local buffer
    /// plus a 24 GB shared remote pool over RDMA, on-demand log replay,
    /// switch-over fail-over via the remote pool.
    pub fn cdb4() -> Self {
        SutProfile {
            name: "cdb4",
            display: "CDB4",
            engine: "MySQL 8",
            arch: StorageArch::MemoryDisagg,
            max_vcores: 4.0,
            min_vcores: 4.0,
            local_buffer_bytes: 10 * GB,
            remote_buffer_bytes: Some(24 * GB),
            local_mem_gb: 16.0,
            gb_per_vcore: None,
            storage_replication: 3,
            page_latency: SimDuration::from_micros(450),
            log_latency: SimDuration::from_micros(40), // RDMA log ship
            page_iops: Some(80_000),
            log_iops: None,
            billed_iops: 84_000,
            network_gbps: 10.0,
            rdma: true,
            quorum_extra: SimDuration::from_micros(20),
            // RDMA appends are cheap enough that only a sliver of batching
            // pays off; a long window would just add commit latency.
            group_commit: GroupCommitConfig {
                window: SimDuration::from_micros(60),
                max_batch: 32,
                ack: DurabilityAck::RdmaReplicated,
            },
            ship_latency: SimDuration::from_micros(200),
            replay: ReplayPolicy::OnDemand {
                per_batch: SimDuration::from_micros(300),
            },
            cost_model: CostModel {
                remote_hit: SimDuration::from_micros(4),
                ..base_cost_model()
            },
            failover: FailoverModel {
                detection: SimDuration::from_millis(500), // fast heartbeats
                restart: SimDuration::from_secs(2),
                kind: RecoveryKind::RemoteBufferSwitch {
                    prepare: SimDuration::from_secs(1),
                    switchover: SimDuration::from_secs(2),
                    recovering: SimDuration::from_secs(3),
                },
                replay: ReplayPolicy::OnDemand {
                    per_batch: SimDuration::from_micros(300),
                },
                warmup: SimDuration::from_millis(3500),
                warmup_peak: SimDuration::from_millis(2),
            },
            scaling: ScalingKind::Fixed,
            scale_disruption: SimDuration::ZERO,
            checkpoint_interval: Some(SimDuration::from_secs(60)),
            default_isolation: IsolationLevel::ReadCommitted,
            actual_pricing: ActualPricing {
                vcore_hour: 0.35,
                mem_gb_hour: 0.025,
                storage_gb_hour: 0.0010,
                iops_100_hour: 0.0003,
                network_gbps_hour: 0.050, // RDMA fabric premium
                min_billing: SimDuration::from_secs(60),
            },
        }
    }

    /// All five systems, in the paper's presentation order.
    pub fn all() -> Vec<SutProfile> {
        vec![
            SutProfile::aws_rds(),
            SutProfile::cdb1(),
            SutProfile::cdb2(),
            SutProfile::cdb3(),
            SutProfile::cdb4(),
        ]
    }

    /// Look up a profile by its short name.
    pub fn by_name(name: &str) -> Option<SutProfile> {
        SutProfile::all().into_iter().find(|p| p.name == name)
    }

    /// Construct the storage service for this SUT.
    pub fn storage_service(&self) -> StorageService {
        let page_dev = Device::new(self.page_latency, self.page_iops);
        let log_dev = Device::new(self.log_latency, self.log_iops);
        let net = match self.arch {
            StorageArch::Coupled => None,
            _ if self.rdma => Some(NetworkLink::rdma(self.network_gbps)),
            _ => Some(NetworkLink::tcp(self.network_gbps)),
        };
        StorageService::new(
            self.arch,
            page_dev,
            log_dev,
            net,
            self.storage_replication,
            self.quorum_extra,
        )
    }

    /// Construct a fresh group-commit pipeline for this SUT's commit path.
    pub fn group_commit_pipeline(&self) -> GroupCommit {
        GroupCommit::new(self.group_commit)
    }

    /// Construct a fresh replication stream to one replica.
    pub fn replication_stream(&self) -> ReplicationStream {
        ReplicationStream::new(self.ship_latency, self.replay)
    }

    /// Meter configuration given the logical data size.
    pub fn meter_config(&self, data_gb: f64) -> MeterConfig {
        MeterConfig {
            gb_per_vcore: self.gb_per_vcore,
            fixed_mem_gb: self.local_mem_gb,
            remote_mem_gb: self
                .remote_buffer_bytes
                .map_or(0.0, |b| b as f64 / GB as f64),
            data_gb,
            storage_replication: self.storage_replication,
            provisioned_iops: self.billed_iops,
            network_gbps: self.network_gbps,
            rdma: self.rdma,
        }
    }

    /// Buffer pool pages for a node, honouring the simulation scale divisor
    /// (data and caches shrink together so hit ratios are preserved).
    pub fn buffer_pages(&self, sim_scale: u64) -> usize {
        ((self.local_buffer_bytes / sim_scale.max(1)) / cb_store::PAGE_SIZE as u64).max(1) as usize
    }

    /// Remote pool pages under the simulation scale, if this SUT has one.
    pub fn remote_pages(&self, sim_scale: u64) -> Option<usize> {
        self.remote_buffer_bytes
            .map(|b| ((b / sim_scale.max(1)) / cb_store::PAGE_SIZE as u64).max(1) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_ack_paths_match_the_architectures() {
        use cb_store::DurabilityAck as Ack;
        let kinds: Vec<Ack> = SutProfile::all()
            .iter()
            .map(|p| p.group_commit.ack)
            .collect();
        assert_eq!(
            kinds,
            vec![
                Ack::LocalFsync,
                Ack::QuorumAppend {
                    required: 4,
                    total: 6
                },
                Ack::LogService,
                Ack::SafekeeperQuorum {
                    required: 2,
                    total: 3
                },
                Ack::RdmaReplicated,
            ]
        );
        for p in SutProfile::all() {
            assert!(p.group_commit.max_batch >= 2, "{}", p.name);
            assert!(!p.group_commit.window.is_zero(), "{}", p.name);
        }
        // The quorum spreads reproduce the pinned commit-path overheads.
        let cdb1 = SutProfile::cdb1();
        let cdb3 = SutProfile::cdb3();
        assert_eq!(cdb1.quorum_extra, SimDuration::from_micros(100));
        assert_eq!(cdb3.quorum_extra, SimDuration::from_micros(120));
    }

    #[test]
    fn all_five_systems_present() {
        let all = SutProfile::all();
        assert_eq!(all.len(), 5);
        let names: Vec<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["aws-rds", "cdb1", "cdb2", "cdb3", "cdb4"]);
        assert!(SutProfile::by_name("cdb3").is_some());
        assert!(SutProfile::by_name("oracle").is_none());
    }

    #[test]
    fn table4_configuration_facts() {
        let rds = SutProfile::aws_rds();
        assert_eq!(rds.scaling, ScalingKind::Fixed);
        assert_eq!(rds.local_buffer_bytes, 128 * MB);
        assert_eq!(rds.arch, StorageArch::Coupled);

        let cdb2 = SutProfile::cdb2();
        assert_eq!(cdb2.local_buffer_bytes, 44 * MB);
        assert_eq!(cdb2.min_vcores, 0.5);

        let cdb3 = SutProfile::cdb3();
        assert_eq!(cdb3.min_vcores, 0.25, "0.25 CU minimum");

        let cdb4 = SutProfile::cdb4();
        assert_eq!(cdb4.local_buffer_bytes, 10 * GB);
        assert_eq!(cdb4.remote_buffer_bytes, Some(24 * GB));
        assert!(cdb4.rdma);
    }

    #[test]
    fn storage_services_match_architecture() {
        for p in SutProfile::all() {
            let s = p.storage_service();
            assert_eq!(s.arch(), p.arch);
            assert_eq!(s.replication_factor(), p.storage_replication);
        }
        // Six-way vs three-way replication (Table V storage costs).
        assert_eq!(SutProfile::cdb1().storage_replication, 6);
        assert_eq!(SutProfile::cdb3().storage_replication, 3);
    }

    #[test]
    fn scaling_policies_match_kind() {
        let kinds: Vec<ScalingKind> = SutProfile::all().iter().map(|p| p.scaling).collect();
        assert_eq!(
            kinds,
            vec![
                ScalingKind::Fixed,
                ScalingKind::GradualDown,
                ScalingKind::OnDemand,
                ScalingKind::QuantPauseResume,
                ScalingKind::Fixed,
            ]
        );
        // Fixed tiers are provisioned at their one size; only the
        // autoscaled ones span a range.
        for p in SutProfile::all() {
            let fixed = p.scaling == ScalingKind::Fixed;
            assert_eq!(fixed, p.min_vcores == p.max_vcores, "{}", p.name);
        }
    }

    #[test]
    fn lag_order_matches_paper() {
        // Ship + single-record replay lag ordering: CDB4 < CDB3 ~ RDS << CDB1 << CDB2.
        let lag = |p: &SutProfile| {
            let mut s = p.replication_stream();
            s.lag_of(cb_store::Lsn(1), cb_sim::SimTime::from_secs(1), 10)
        };
        let rds = lag(&SutProfile::aws_rds());
        let c1 = lag(&SutProfile::cdb1());
        let c2 = lag(&SutProfile::cdb2());
        let c3 = lag(&SutProfile::cdb3());
        let c4 = lag(&SutProfile::cdb4());
        assert!(c4 < c3, "memory disaggregation has the lowest lag");
        assert!(c3 < c1, "parallel replay beats sequential");
        assert!(c1 < c2, "log/page split has the longest path");
        assert!(rds < c1);
    }

    #[test]
    fn buffer_pages_respect_sim_scale() {
        let rds = SutProfile::aws_rds();
        assert_eq!(rds.buffer_pages(1), (128 * MB / 8192) as usize);
        assert_eq!(rds.buffer_pages(10), (128 * MB / 10 / 8192) as usize);
        let cdb4 = SutProfile::cdb4();
        assert!(cdb4.remote_pages(10).unwrap() > cdb4.buffer_pages(10));
        assert_eq!(SutProfile::cdb1().remote_pages(10), None);
    }

    #[test]
    fn meter_config_reflects_deployment() {
        let m = SutProfile::cdb4().meter_config(21.0);
        assert!((m.remote_mem_gb - 24.0).abs() < 1e-9);
        assert_eq!(m.provisioned_iops, 84_000);
        assert!(m.rdma);
        let m1 = SutProfile::cdb1().meter_config(21.0);
        assert_eq!(m1.storage_replication, 6);
        assert_eq!(m1.gb_per_vcore, Some(8.0));
    }

    #[test]
    fn failover_speed_order_matches_paper() {
        use cb_cluster::plan_failover;
        use cb_engine::recovery::AriesAnalysis;
        let analysis = AriesAnalysis {
            scanned: 50_000,
            redo_records: 40_000,
            undo_records: 200,
            loser_txns: 50,
            in_doubt_txns: 0,
        };
        let downtime = |p: &SutProfile| {
            plan_failover(&p.failover, cb_sim::SimTime::ZERO, &analysis).downtime()
        };
        let rds = downtime(&SutProfile::aws_rds());
        let c4 = downtime(&SutProfile::cdb4());
        let c1 = downtime(&SutProfile::cdb1());
        let _c2 = downtime(&SutProfile::cdb2());
        assert!(c4 < c1, "remote buffer switch-over is fastest");
        assert!(c1 < rds, "log-replay recovery beats ARIES");
        // F-Scores of CDB1 and CDB2 are close (paper: 6s and 6s); the longer
        // log/page recovery route shows up in total recovery time (F + R).
        let total = |p: &SutProfile| downtime(p) + p.failover.warmup;
        assert!(total(&SutProfile::cdb1()) < total(&SutProfile::cdb2()));
        assert!(total(&SutProfile::cdb4()) < total(&SutProfile::cdb1()));
        assert!(total(&SutProfile::cdb3()) < total(&SutProfile::aws_rds()));
    }
}
