//! The Resource Unit Cost model (paper Table III) and vendor-style actual
//! pricing.
//!
//! RUC normalizes heterogeneous cloud offerings to standard per-hour unit
//! prices — 1 vCore, 1 GB RAM, 1 GB storage, 100 IOPS, 1 Gbps of TCP or
//! RDMA network — so different providers can be compared on equal footing.
//! The "actual" model instead applies each vendor's own rates and billing
//! minimums, reproducing the paper's starred metrics.

use cb_cluster::ResourceUsage;
use cb_sim::SimDuration;
use cb_sut::ActualPricing;

use crate::config::{ConfigError, Props};

/// Paper Table III: standard unit prices per hour.
#[derive(Clone, Copy, Debug)]
pub struct RucRates {
    /// CPU, $ per vCore-hour.
    pub cpu_vcore_hour: f64,
    /// Memory, $ per GB-hour.
    pub mem_gb_hour: f64,
    /// Storage, $ per GB-hour.
    pub storage_gb_hour: f64,
    /// IOPS, $ per 100-IOPS-hour.
    pub iops_100_hour: f64,
    /// TCP/IP network, $ per Gbps-hour.
    pub tcp_gbps_hour: f64,
    /// RDMA network, $ per Gbps-hour.
    pub rdma_gbps_hour: f64,
}

impl Default for RucRates {
    fn default() -> Self {
        // Exactly Table III.
        RucRates {
            cpu_vcore_hour: 0.1847,
            mem_gb_hour: 0.0095,
            storage_gb_hour: 0.000853,
            iops_100_hour: 0.00015,
            tcp_gbps_hour: 0.07696,
            rdma_gbps_hour: 0.23088,
        }
    }
}

impl RucRates {
    /// Calibrate the unit prices from a props file (the paper: "for the
    /// cases that CDBs have different hardware, we can calibrate the price
    /// with the actual cost"). Missing keys keep their Table III defaults.
    ///
    /// Keys: `ruc_cpu_vcore_hour`, `ruc_mem_gb_hour`, `ruc_storage_gb_hour`,
    /// `ruc_iops_100_hour`, `ruc_tcp_gbps_hour`, `ruc_rdma_gbps_hour`. Each
    /// must be a finite price >= 0.
    pub fn from_props(props: &Props) -> Result<RucRates, ConfigError> {
        let d = RucRates::default();
        let price = |key: &str, default: f64| match props.get_f64(key, default)? {
            v if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err(ConfigError::Invalid {
                key: key.into(),
                value: props.get(key).unwrap_or_default().into(),
                expected: "finite price >= 0",
            }),
        };
        Ok(RucRates {
            cpu_vcore_hour: price("ruc_cpu_vcore_hour", d.cpu_vcore_hour)?,
            mem_gb_hour: price("ruc_mem_gb_hour", d.mem_gb_hour)?,
            storage_gb_hour: price("ruc_storage_gb_hour", d.storage_gb_hour)?,
            iops_100_hour: price("ruc_iops_100_hour", d.iops_100_hour)?,
            tcp_gbps_hour: price("ruc_tcp_gbps_hour", d.tcp_gbps_hour)?,
            rdma_gbps_hour: price("ruc_rdma_gbps_hour", d.rdma_gbps_hour)?,
        })
    }
}

/// A per-resource cost breakdown in dollars over some window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// CPU dollars.
    pub cpu: f64,
    /// Memory dollars.
    pub mem: f64,
    /// Storage dollars.
    pub storage: f64,
    /// IOPS dollars.
    pub iops: f64,
    /// Network dollars.
    pub network: f64,
}

impl CostBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.cpu + self.mem + self.storage + self.iops + self.network
    }

    /// Scale every component (e.g. to a per-minute figure).
    pub fn scaled(&self, f: f64) -> CostBreakdown {
        CostBreakdown {
            cpu: self.cpu * f,
            mem: self.mem * f,
            storage: self.storage * f,
            iops: self.iops * f,
            network: self.network * f,
        }
    }
}

fn hours(window: SimDuration) -> f64 {
    window.as_secs_f64() / 3600.0
}

/// Price `usage` with the standard Resource Unit Cost rates.
///
/// The IOPS component bills [`ResourceUsage::billable_iops`]: the observed
/// device-op rate when the run was metered (group commit's batched flushes
/// lower it directly), else the provisioned figure — which keeps the
/// Table V reproductions, built from static configurations, unchanged.
pub fn ruc_cost(usage: &ResourceUsage, rates: &RucRates) -> CostBreakdown {
    let h = hours(usage.window);
    let net_rate = if usage.rdma {
        rates.rdma_gbps_hour
    } else {
        rates.tcp_gbps_hour
    };
    CostBreakdown {
        cpu: usage.avg_vcores * rates.cpu_vcore_hour * h,
        mem: usage.avg_mem_gb * rates.mem_gb_hour * h,
        storage: usage.storage_gb * rates.storage_gb_hour * h,
        iops: usage.billable_iops() as f64 / 100.0 * rates.iops_100_hour * h,
        network: usage.network_gbps * net_rate * h,
    }
}

/// Price `usage` with a vendor's actual rates, honouring the billing
/// minimum (a 5-minute burst on RDS is billed as 10 minutes; an hour-long
/// pool minimum dominates short runs on CDB2).
pub fn actual_cost(usage: &ResourceUsage, pricing: &ActualPricing) -> CostBreakdown {
    let billed = usage.window.max(pricing.min_billing);
    let h = hours(billed);
    CostBreakdown {
        cpu: usage.avg_vcores * pricing.vcore_hour * h,
        mem: usage.avg_mem_gb * pricing.mem_gb_hour * h,
        storage: usage.storage_gb * pricing.storage_gb_hour * h,
        iops: usage.billable_iops() as f64 / 100.0 * pricing.iops_100_hour * h,
        network: usage.network_gbps * pricing.network_gbps_hour * h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(
        vcores: f64,
        mem: f64,
        storage: f64,
        iops: u64,
        gbps: f64,
        rdma: bool,
    ) -> ResourceUsage {
        ResourceUsage {
            avg_vcores: vcores,
            avg_mem_gb: mem,
            storage_gb: storage,
            iops,
            observed_iops: 0,
            network_gbps: gbps,
            rdma,
            window: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn observed_iops_shrink_the_io_bill() {
        // A metered run that actually issued 200 ops/s bills those, not the
        // 1000 provisioned — this is how group commit shows up in C-score.
        let provisioned = usage(4.0, 16.0, 42.0, 1000, 10.0, false);
        let mut metered = provisioned;
        metered.observed_iops = 200;
        let rates = RucRates::default();
        let a = ruc_cost(&provisioned, &rates);
        let b = ruc_cost(&metered, &rates);
        assert!(
            (b.iops - a.iops / 5.0).abs() < 1e-12,
            "{} vs {}",
            b.iops,
            a.iops
        );
        assert_eq!(a.cpu, b.cpu, "only the IO component moves");
    }

    #[test]
    fn table5_rds_row_reproduces() {
        // Paper Table V, AWS RDS per-minute costs: CPU 0.0123, Mem 0.0025,
        // Storage 0.0006, IOPS 0.000025, Network 0.0128, total $0.0437.
        let u = usage(4.0, 16.0, 42.0, 1000, 10.0, false);
        let c = ruc_cost(&u, &RucRates::default());
        assert!((c.cpu - 0.0123).abs() < 0.0002, "cpu {}", c.cpu);
        assert!((c.mem - 0.0025).abs() < 0.0002, "mem {}", c.mem);
        assert!((c.storage - 0.0006).abs() < 0.0002, "storage {}", c.storage);
        assert!((c.iops - 0.000025).abs() < 0.00001, "iops {}", c.iops);
        assert!((c.network - 0.0128).abs() < 0.0003, "net {}", c.network);
        // Note: the paper prints a $0.0437 total, but its own per-component
        // cells sum to ~$0.0283; we assert self-consistency instead.
        let sum = c.cpu + c.mem + c.storage + c.iops + c.network;
        assert!((c.total() - sum).abs() < 1e-12);
    }

    #[test]
    fn table5_cdb4_row_reproduces() {
        // CDB4: 4 vCores, 40 GB, 63 GB storage, 84000 IOPS, 10 Gbps RDMA,
        // total $0.0797/min.
        let u = usage(4.0, 40.0, 63.0, 84_000, 10.0, true);
        let c = ruc_cost(&u, &RucRates::default());
        assert!((c.network - 0.0385).abs() < 0.0005, "net {}", c.network);
        assert!((c.iops - 0.0021).abs() < 0.0001, "iops {}", c.iops);
        assert!((c.mem - 0.0063).abs() < 0.0002, "mem {}", c.mem);
        // As with the RDS row, the paper's printed total ($0.0797) exceeds
        // the sum of its own components (~$0.0601); we check the components.
        assert!(
            c.total() > 0.055 && c.total() < 0.065,
            "total {}",
            c.total()
        );
    }

    #[test]
    fn rdma_costs_three_times_tcp() {
        let rates = RucRates::default();
        assert!((rates.rdma_gbps_hour / rates.tcp_gbps_hour - 3.0).abs() < 0.01);
        let tcp = ruc_cost(&usage(0.0, 0.0, 0.0, 0, 10.0, false), &rates);
        let rdma = ruc_cost(&usage(0.0, 0.0, 0.0, 0, 10.0, true), &rates);
        assert!(rdma.network > tcp.network * 2.9);
    }

    #[test]
    fn iops_dominance_story() {
        // Paper: CDB2 has 327x the IOPS cost of RDS.
        let rds = ruc_cost(
            &usage(4.0, 16.0, 42.0, 1_000, 10.0, false),
            &RucRates::default(),
        );
        let cdb2 = ruc_cost(
            &usage(4.0, 20.0, 63.0, 327_680, 10.0, false),
            &RucRates::default(),
        );
        let ratio = cdb2.iops / rds.iops;
        assert!((ratio - 327.68).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn actual_pricing_minimum_billing() {
        let pricing = ActualPricing {
            vcore_hour: 0.30,
            mem_gb_hour: 0.02,
            storage_gb_hour: 0.0015,
            iops_100_hour: 0.0002,
            network_gbps_hour: 0.01,
            min_billing: SimDuration::from_secs(600),
        };
        // A 1-minute burst bills as 10 minutes.
        let burst = usage(4.0, 16.0, 42.0, 1000, 10.0, false);
        let c = actual_cost(&burst, &pricing);
        let mut long = burst;
        long.window = SimDuration::from_secs(600);
        let c10 = actual_cost(&long, &pricing);
        assert!((c.total() - c10.total()).abs() < 1e-12);
        // A 20-minute run bills as 20 minutes.
        let mut longer = burst;
        longer.window = SimDuration::from_secs(1200);
        assert!(actual_cost(&longer, &pricing).total() > c10.total() * 1.9);
    }

    #[test]
    fn ruc_rates_calibrate_from_props() {
        let props = crate::config::Props::parse(
            "ruc_cpu_vcore_hour = 0.25
ruc_rdma_gbps_hour = 0.5",
        )
        .unwrap();
        let r = RucRates::from_props(&props).unwrap();
        assert_eq!(r.cpu_vcore_hour, 0.25);
        assert_eq!(r.rdma_gbps_hour, 0.5);
        // Untouched keys keep Table III values.
        assert_eq!(r.mem_gb_hour, RucRates::default().mem_gb_hour);
        // Bad values are reported.
        let bad = crate::config::Props::parse("ruc_mem_gb_hour = cheap").unwrap();
        assert!(RucRates::from_props(&bad).is_err());
    }

    #[test]
    fn breakdown_arithmetic() {
        let c = CostBreakdown {
            cpu: 1.0,
            mem: 2.0,
            storage: 3.0,
            iops: 4.0,
            network: 5.0,
        };
        assert_eq!(c.total(), 15.0);
        assert_eq!(c.scaled(2.0).total(), 30.0);
    }
}
