//! Host-time benchmark of the CloudyBench simulator.
//!
//! It measures what the simulator costs to run (host CPU seconds, set-up
//! seconds, peak memory), checks that the simulated statistics stay
//! bit-identical, and in a separate traced run times every layer from
//! outside through its public functions. `README.md` beside this crate is
//! the glossary; `BENCHMARK.json` at the repository root is the contract.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod clock;
pub mod compare;
pub mod json;
pub mod probes;
pub mod report;
pub mod runner;
pub mod sampler;
pub mod spans;
pub mod spec;
pub mod workloads;
