//! # cb-sut — the systems under test
//!
//! Five fully configured cloud-database profiles matching the paper's
//! anonymized systems: AWS RDS (coupled), CDB1 (storage disaggregation with
//! redo pushdown), CDB2 (log/page split + elastic pool), CDB3 (safekeeper +
//! pageserver + pause/resume), CDB4 (memory disaggregation over RDMA).
//! Every per-system constant lives in [`SutProfile`].

#![warn(missing_docs)]

mod profiles;

pub use profiles::{ActualPricing, SutProfile, NETWORK_GBPS};
