//! # cb-sim — deterministic virtual-time simulation kernel
//!
//! CloudyBench evaluates cloud-native databases over workloads that span
//! simulated *minutes* (elasticity patterns, fail-over recovery windows,
//! multi-tenant schedules). Running those against real wall-clock time would
//! make the benchmark suite take hours and be non-deterministic, so the
//! entire testbed runs on a virtual clock:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — deterministic timestamped events (autoscaler samples,
//!   heartbeats, failure injections) with FIFO tie-breaking.
//! * [`CpuResource`] — a multi-server CPU with fractional vCores, natural
//!   saturation, and busy core-second accounting.
//! * [`Device`] / [`NetworkLink`] — latency + IOPS-throttled I/O devices and
//!   latency + bandwidth network links.
//! * [`DetRng`] — seeded randomness so every run reproduces exactly.
//! * [`TpsRecorder`] / [`GaugeSeries`] — the measurement substrate for the
//!   performance collector.

#![warn(missing_docs)]

mod cpu;
mod device;
mod events;
mod rng;
mod series;
pub mod time;

pub use cpu::{CpuResource, CpuSlot};
pub use device::{Device, DeviceKind, NetworkLink};
pub use events::EventQueue;
pub use rng::DetRng;
pub use series::{geomean, GaugeSeries, TpsRecorder};
pub use time::{SimDuration, SimTime};
