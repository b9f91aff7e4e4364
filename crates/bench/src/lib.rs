//! # cb-bench — shared harness utilities for the paper-reproduction benches
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the CloudyBench paper. This library holds the glue they share: standard
//! OLTP measurement runs, score assembly, and the experiment-wide defaults
//! (simulation scale, run windows) documented in EXPERIMENTS.md.

#![warn(missing_docs)]

use cb_engine::EvictionPolicyKind;
use cb_load::{ArrivalPlan, ArrivalProcess, PhasePlan};
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::cost::{ruc_cost, CostBreakdown, RucRates};
use cloudybench::driver::VcoreControl;
use cloudybench::{
    run, run_open_loop, AccessDistribution, Deployment, KeyPartition, OpenLoopSpec, RunOptions,
    TenantSpec, TxnMix,
};

/// Default simulation scale divisor: data and buffer pools shrink by this
/// factor together, preserving cache-pressure ratios (see DESIGN.md §5).
pub const SIM_SCALE: u64 = 100;

/// Default measurement window for throughput cells.
pub const MEASURE_SECS: u64 = 20;

/// Default workload seed.
pub const SEED: u64 = 2025;

/// The outcome of one OLTP measurement cell.
pub struct OltpCell {
    /// Average TPS over the window.
    pub avg_tps: f64,
    /// RUC cost per minute.
    pub cost_per_min: CostBreakdown,
}

/// Run one fixed-capacity OLTP cell: `concurrency` clients, the given mix,
/// against an existing deployment.
pub fn oltp_cell(
    dep: &mut Deployment,
    mix: TxnMix,
    concurrency: u32,
    dist: AccessDistribution,
) -> OltpCell {
    let cell = policy_cell_seeded(
        dep,
        mix,
        concurrency,
        dist,
        EvictionPolicyKind::default(),
        SEED,
    );
    OltpCell {
        avg_tps: cell.avg_tps,
        cost_per_min: cell.cost_per_min,
    }
}

/// One cell of the eviction-policy grid: throughput, cost, and the primary
/// node's buffer-pool statistics over this cell's run (counter deltas — the
/// pool object survives [`Deployment::reset_runtime`], so totals span runs).
pub struct PolicyCell {
    /// Average TPS over the window.
    pub avg_tps: f64,
    /// Buffer-pool hit percentage on the primary during this cell.
    pub hit_pct: f64,
    /// Dirty pages written back during this cell.
    pub dirty_writebacks: u64,
    /// RUC cost per minute.
    pub cost_per_min: CostBreakdown,
}

/// Run one fixed-capacity OLTP cell — [`MEASURE_SECS`] of `concurrency`
/// closed-loop clients — under an explicit eviction policy and workload
/// seed (`CB_SEED` in `fig8_policy_grid` drives the seed-stability check),
/// reporting the primary's hit rate alongside throughput. [`oltp_cell`] is
/// this cell at the default policy; `eviction` feeds `RunOptions::eviction`.
pub fn policy_cell_seeded(
    dep: &mut Deployment,
    mix: TxnMix,
    concurrency: u32,
    dist: AccessDistribution,
    eviction: EvictionPolicyKind,
    seed: u64,
) -> PolicyCell {
    dep.reset_runtime();
    let duration = SimDuration::from_secs(MEASURE_SECS);
    let spec = TenantSpec::constant(
        concurrency,
        duration,
        mix,
        dist,
        KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    );
    let opts = RunOptions {
        seed,
        vcores: VcoreControl::Fixed,
        eviction,
        ..RunOptions::default()
    };
    let (h0, m0) = (dep.nodes[0].pool.hits(), dep.nodes[0].pool.misses());
    let d0 = dep.nodes[0].pool.dirty_evictions();
    let result = run(dep, &[spec], &opts);
    let (h1, m1) = (dep.nodes[0].pool.hits(), dep.nodes[0].pool.misses());
    let d1 = dep.nodes[0].pool.dirty_evictions();
    let avg_tps = result.avg_tps(SimTime::ZERO, SimTime::ZERO + duration);
    let usage = dep.usage(SimTime::ZERO, SimTime::ZERO + duration);
    let cost = ruc_cost(&usage, &RucRates::default());
    let minutes = duration.as_secs_f64() / 60.0;
    let touches = (h1 - h0) + (m1 - m0);
    PolicyCell {
        avg_tps,
        hit_pct: if touches == 0 {
            0.0
        } else {
            100.0 * (h1 - h0) as f64 / touches as f64
        },
        dirty_writebacks: d1 - d0,
        cost_per_min: cost.scaled(1.0 / minutes),
    }
}

/// Build the standard 1 RW + 1 RO deployment for throughput experiments.
pub fn standard_deployment(profile: &SutProfile, scale_factor: u64) -> Deployment {
    Deployment::new(profile.clone(), scale_factor, SIM_SCALE, 1, SEED)
}

/// One independent slab of an OLTP grid: a (profile, scale-factor) pair
/// measured on its own private deployment. The mixes x concurrencies loop
/// inside a slab runs sequentially on that deployment, exactly as the
/// original single-threaded figure loop did, so a slab's numbers do not
/// depend on which worker ran it or when.
pub struct OltpSlab {
    /// The SUT profile this slab measured.
    pub profile: SutProfile,
    /// The scale factor this slab measured.
    pub scale_factor: u64,
    /// `cells[mix_idx][con_idx]`, in the order the mixes/concurrencies
    /// were given.
    pub cells: Vec<Vec<OltpCell>>,
}

/// Run a full (scale factor x profile x mix x concurrency) OLTP grid,
/// fanning the independent (scale factor, profile) slabs across `jobs`
/// scoped worker threads. Every slab owns its deployment, seed, and
/// `ObsSink`; results come back in canonical (scale factor, then profile)
/// order, so any report built from them is byte-identical to a
/// `jobs = 1` run.
pub fn oltp_grid(
    scale_factors: &[u64],
    sim_scale: u64,
    mixes: &[(&'static str, TxnMix)],
    concurrencies: &[u32],
    jobs: usize,
) -> Vec<OltpSlab> {
    let slabs: Vec<(u64, SutProfile)> = scale_factors
        .iter()
        .flat_map(|&sf| SutProfile::all().into_iter().map(move |p| (sf, p)))
        .collect();
    cloudybench::parallel::par_map(&slabs, jobs, |_, (sf, profile)| {
        let mut dep = Deployment::new(profile.clone(), *sf, sim_scale, 1, SEED);
        let cells = mixes
            .iter()
            .map(|(_, mix)| {
                concurrencies
                    .iter()
                    .map(|&con| oltp_cell(&mut dep, *mix, con, AccessDistribution::Uniform))
                    .collect()
            })
            .collect();
        OltpSlab {
            profile: profile.clone(),
            scale_factor: *sf,
            cells,
        }
    })
}

/// Logical client population attributed to open-loop arrival plans. Large on
/// purpose: idle clients cost nothing on the arrival heap, and the figure
/// should demonstrate that.
pub const OPEN_LOOP_CLIENTS: u64 = 100_000;

/// One cell of an open-loop latency-throughput curve.
pub struct OpenLoopCell {
    /// Offered arrival rate (ops/s).
    pub offered_rate: f64,
    /// Committed TPS over the measurement window.
    pub measured_tps: f64,
    /// Mean coordinated-omission-correct response time, ms.
    pub mean_ms: f64,
    /// Median response time, ms.
    pub p50_ms: f64,
    /// p99 response time, ms.
    pub p99_ms: f64,
    /// p99.9 response time, ms.
    pub p999_ms: f64,
    /// p99 service time (start → completion), ms.
    pub service_p99_ms: f64,
    /// p99 scheduled-vs-actual-start lag, ms.
    pub sched_lag_p99_ms: f64,
    /// Peak queue depth during the run.
    pub queue_depth_max: u64,
}

/// Run one open-loop Poisson cell at `rate` ops/s against an existing
/// deployment: 2s warmup, 2s ramp, [`MEASURE_SECS`] measured.
pub fn open_loop_cell(dep: &mut Deployment, mix: TxnMix, rate: f64) -> OpenLoopCell {
    dep.reset_runtime();
    let spec = OpenLoopSpec {
        plan: ArrivalPlan::fixed_rate(
            ArrivalProcess::poisson(rate),
            PhasePlan::new(
                SimDuration::from_secs(2),
                SimDuration::from_secs(2),
                SimDuration::from_secs(MEASURE_SECS),
            ),
            OPEN_LOOP_CLIENTS,
        ),
        mix,
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let opts = RunOptions {
        seed: SEED,
        vcores: VcoreControl::Fixed,
        ..RunOptions::default()
    };
    let r = run_open_loop(dep, &spec, &opts);
    OpenLoopCell {
        offered_rate: rate,
        measured_tps: r.measured_tps(),
        mean_ms: r.mean_response_ms(),
        p50_ms: r.response_percentile_ms(50.0),
        p99_ms: r.response_percentile_ms(99.0),
        p999_ms: r.response_percentile_ms(99.9),
        service_p99_ms: r.service_percentile_ms(99.0),
        sched_lag_p99_ms: r.sched_lag_percentile_ms(99.0),
        queue_depth_max: r.queue_depth_max,
    }
}

/// The open-loop companion to the Fig 5 grid: sweep offered rates against a
/// profile, one fresh deployment per rate cell, fanned over `jobs` workers
/// in canonical order (byte-identical results for any `jobs`).
pub fn open_loop_curve(
    profile: &SutProfile,
    scale_factor: u64,
    sim_scale: u64,
    mix: TxnMix,
    rates: &[f64],
    jobs: usize,
) -> Vec<OpenLoopCell> {
    cloudybench::parallel::par_map(rates, jobs, |_, &rate| {
        let mut dep = Deployment::new(profile.clone(), scale_factor, sim_scale, 1, SEED);
        open_loop_cell(&mut dep, mix, rate)
    })
}

/// The paper's three transaction-ratio modes.
pub fn paper_mixes() -> [(&'static str, TxnMix); 3] {
    [
        ("RO", TxnMix::read_only()),
        ("RW", TxnMix::read_write()),
        ("WO", TxnMix::write_only()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oltp_grid_is_deterministic_across_jobs() {
        let mixes = [("RO", TxnMix::read_only())];
        let cons = [10u32];
        let seq = oltp_grid(&[1], 4000, &mixes, &cons, 1);
        let par = oltp_grid(&[1], 4000, &mixes, &cons, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.profile.name, b.profile.name);
            assert_eq!(a.scale_factor, b.scale_factor);
            for (ra, rb) in a.cells.iter().zip(&b.cells) {
                for (ca, cb) in ra.iter().zip(rb) {
                    assert_eq!(ca.avg_tps.to_bits(), cb.avg_tps.to_bits());
                    assert_eq!(
                        ca.cost_per_min.total().to_bits(),
                        cb.cost_per_min.total().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn oltp_cell_equals_policy_cell_at_the_default_policy() {
        // Data and pool contents survive `reset_runtime`, so each side gets
        // its own copy of the one deployment.
        let profile = SutProfile::cdb2();
        let fresh = || Deployment::new(profile.clone(), 1, 2000, 1, SEED);
        let (mix, dist) = (TxnMix::read_write(), AccessDistribution::Uniform);
        let plain = oltp_cell(&mut fresh(), mix, 10, dist);
        let policy = policy_cell_seeded(
            &mut fresh(),
            mix,
            10,
            dist,
            EvictionPolicyKind::default(),
            SEED,
        );
        assert_eq!(plain.avg_tps.to_bits(), policy.avg_tps.to_bits());
        assert_eq!(
            plain.cost_per_min.total().to_bits(),
            policy.cost_per_min.total().to_bits()
        );
    }

    #[test]
    fn oltp_cell_produces_sane_numbers() {
        let profile = SutProfile::aws_rds();
        let mut dep = Deployment::new(profile.clone(), 1, 2000, 1, SEED);
        let cell = oltp_cell(
            &mut dep,
            TxnMix::read_only(),
            10,
            AccessDistribution::Uniform,
        );
        assert!(cell.avg_tps > 100.0);
        assert!(cell.cost_per_min.total() > 0.0);
    }
}
