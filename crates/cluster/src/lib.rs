//! # cb-cluster — cloud-native database cluster substrate
//!
//! The components that turn the `cb-engine` storage engine into a simulated
//! cloud-native database cluster:
//!
//! * `node` — compute nodes (CPU + buffer pool + lifecycle: restart,
//!   pause/resume, warm-up ramps).
//! * `replication` — log shipping with sequential / parallel / on-demand
//!   replay (the replication-lag story).
//! * `autoscale` — the per-node autoscaler of the four scaling kinds:
//!   fixed, on-demand, gradual-down, and quantized pause/resume.
//! * `heartbeat` — heartbeat-based failure detection (the mechanism
//!   behind each profile's detection delay).
//! * `failover` — fail-over planning: ARIES vs replay-from-storage vs
//!   remote-buffer switch-over.
//! * `shard` — hash/range key-space sharding: deterministic routing of
//!   every primary key to exactly one engine instance.
//! * `tenancy` — the elastic-pool (water-filling) scheduler of a shared
//!   vCore pool (CDB2's multi-tenant deployment).
//! * `metering` — integrate vCores/memory/storage/IOPS/network consumption
//!   for the Resource Unit Cost model.

#![warn(missing_docs)]

mod autoscale;
mod failover;
mod heartbeat;
mod metering;
mod node;
mod replication;
mod shard;
mod tenancy;

pub use autoscale::{Autoscaler, ScaleDecision, ScalingKind};
pub use failover::{
    plan_failover, plan_failover_with_detection, plan_ro_failover, FailoverModel, FailoverPhase,
    FailoverTimeline, RecoveryKind,
};
pub use heartbeat::{HeartbeatMonitor, NodeHealth};
pub use metering::{measure, MeterConfig, ResourceUsage};
pub use node::{Node, NodeId, NodeRole};
pub use replication::{quorum_ack_latency, ReplayPolicy, ReplicationStream};
pub use shard::{shard_of_hash, ShardMap, ShardStrategy};
pub use tenancy::elastic_pool_allocate;
