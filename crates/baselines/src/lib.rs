//! # cb-baselines — baseline benchmarks for comparison experiments
//!
//! SysBench-style OLTP and a compact TPC-C, used by the paper's Fig 9 to
//! show that constant-load benchmarks barely exercise a cloud database's
//! elasticity, plus a minimal closed-loop `runner` they share.

#![warn(missing_docs)]

mod runner;
mod sysbench;
mod tpcc;

pub use runner::{run_constant, BaselineRun, Workload};
pub use sysbench::Sysbench;
pub use tpcc::TpccLite;
