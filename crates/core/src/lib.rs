//! # CloudyBench — a testbed for comprehensive evaluation of cloud-native
//! databases
//!
//! A from-scratch reproduction of the CloudyBench benchmark (ICDE 2025) on
//! top of a simulated cloud-native database substrate:
//!
//! * [`schema`] — the SaaS sales-microservice schema and data generator.
//! * [`workload`] — transactions T1–T4, mixes, uniform/latest distributions.
//! * `deploy` — assemble a SUT profile into a running cluster.
//! * `testbed` — the one-stop [`Testbed`] facade (paper Fig 1).
//! * [`driver`] — the virtual-time workload driver: the single run loop and
//!   its closed-loop client source.
//! * `openloop` — the arrival-driven (open-loop) source for that loop.
//! * [`baselines`] — Fig 9's constant-load SysBench and TPC-C lite, run
//!   through that loop; their transaction bodies live in the private
//!   `sysbench` and `tpcc` modules.
//! * [`elasticity`] — peak/valley patterns and the elasticity evaluator.
//! * [`tenancy`] — contention patterns and the multi-tenancy evaluator.
//! * [`failover_eval`] — failure injection, F-Score and R-Score.
//! * [`lagtime`] — replication lag probes and C-Score.
//! * [`cost`] — the Resource Unit Cost model (Table III) + actual pricing.
//! * [`metrics`] — the PERFECT scores and the unified O-Score.
//! * [`parallel`] — deterministic scoped-thread fan-out of independent
//!   experiment cells (grids, chaos seeds) with canonical-order merging.
//! * `replay` — restore-and-roll-forward through the engine's net-effect
//!   redo.
//! * [`sharded`] — hash/range-sharded deployments: tenant fleets, cross-shard
//!   two-phase commit on the virtual clock, mid-run workload shifts.
//! * [`config`] — the props-file configuration format.
//! * [`report`] — ASCII tables for the bench harness.

#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod cost;
mod deploy;
pub mod driver;
pub mod elasticity;
pub mod failover_eval;
pub mod lagtime;
pub mod metrics;
mod openloop;
pub mod parallel;
mod replay;
pub mod report;
pub mod schema;
pub mod sharded;
mod sysbench;
pub mod tenancy;
mod testbed;
mod tpcc;
pub mod workload;

pub use deploy::Deployment;
pub use driver::{
    run, FailurePlan, LagSamples, NodeMapping, RunOptions, RunResult, ShiftEvent, TenantResult,
    TenantSpec, VcoreControl, CLIENT_RTT,
};
pub use openloop::{
    aggregate, run_open_loop, run_open_loop_seeds, OpenLoopAggregate, OpenLoopConfig,
    OpenLoopResult, OpenLoopSpec, SeedOutcome,
};
pub use replay::rebuild_parallel;
pub use schema::{create_tables, load_dataset, DatasetShape, SalesTables};
pub use sharded::{
    run_fleet, FleetReport, FleetSpec, ShardScore, ShardedDeployment, TwoPhaseCoordinator,
    TwoPhaseStats,
};
pub use testbed::{oltp_cell, OltpReport, Testbed};
pub use workload::{AccessDistribution, KeyPartition, TxnMix};
