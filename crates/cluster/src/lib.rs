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
//! * `failover` — fail-over planning: ARIES vs replay-from-storage vs
//!   remote-buffer switch-over.
//! * `shard` — hash/range key-space sharding: deterministic routing of
//!   every primary key to exactly one engine instance.
//! * `elastic_pool` — the elastic-pool (water-filling) scheduler of a shared
//!   vCore pool (CDB2's multi-tenant deployment).
//! * `metering` — the vCores/memory/storage/IOPS/network record a window
//!   consumed, which the Resource Unit Cost model prices.

#![warn(missing_docs)]

mod autoscale;
mod elastic_pool;
mod failover;
mod metering;
mod node;
mod replication;
mod shard;

pub use autoscale::{Autoscaler, ScaleDecision, ScalingKind};
pub use elastic_pool::elastic_pool_allocate;
pub use failover::{
    plan_failover, plan_ro_failover, FailoverModel, FailoverPhase, FailoverTimeline, RecoveryKind,
};
pub use metering::ResourceUsage;
pub use node::{Node, NodeId, NodeRole};
pub use replication::{quorum_ack_latency, ReplayPolicy, ReplicationStream};
pub use shard::{shard_of_hash, ShardMap, ShardStrategy};
