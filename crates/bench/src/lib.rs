//! # cb-bench — shared harness utilities for the paper-reproduction benches
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the CloudyBench paper. This library holds the glue they share: the
//! standard deployment, the parallel OLTP grid over
//! [`cloudybench::oltp_cell`], the open-loop cell, and the experiment-wide
//! defaults (simulation scale, run window, seed) documented in
//! EXPERIMENTS.md.

#![warn(missing_docs)]

use cb_load::{ArrivalPlan, ArrivalProcess, PhasePlan};
use cb_sim::SimDuration;
use cb_sut::SutProfile;
use cloudybench::driver::VcoreControl;
use cloudybench::{
    oltp_cell, run_open_loop, AccessDistribution, Deployment, KeyPartition, OltpReport,
    OpenLoopSpec, RunOptions, SeedOutcome, TxnMix,
};

/// Default simulation scale divisor: data and buffer pools shrink by this
/// factor together, preserving cache-pressure ratios (see DESIGN.md §5).
pub const SIM_SCALE: u64 = 100;

/// Default measurement window for throughput cells.
pub const MEASURE: SimDuration = SimDuration::from_secs(20);

/// Default workload seed.
pub const SEED: u64 = 2025;

/// The options every cell starts from: [`SEED`], the rest default.
pub fn base_options() -> RunOptions {
    RunOptions {
        seed: SEED,
        ..RunOptions::default()
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
    pub cells: Vec<Vec<OltpReport>>,
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
        let (uniform, base) = (AccessDistribution::Uniform, base_options());
        let cells = mixes
            .iter()
            .map(|(_, mix)| {
                concurrencies
                    .iter()
                    .map(|&con| oltp_cell(&mut dep, con, MEASURE, *mix, uniform, &base))
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

/// Run one open-loop Poisson cell at `rate` ops/s against an existing
/// deployment: 2s warmup, 2s ramp, [`MEASURE`] measured.
pub fn open_loop_cell(dep: &mut Deployment, mix: TxnMix, rate: f64) -> SeedOutcome {
    dep.reset_runtime();
    let spec = OpenLoopSpec {
        plan: ArrivalPlan::fixed_rate(
            ArrivalProcess::poisson(rate),
            PhasePlan::new(
                SimDuration::from_secs(2),
                SimDuration::from_secs(2),
                MEASURE,
            ),
            OPEN_LOOP_CLIENTS,
        ),
        mix,
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let opts = RunOptions {
        vcores: VcoreControl::Fixed,
        ..base_options()
    };
    SeedOutcome::of(SEED, &run_open_loop(dep, &spec, &opts))
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
) -> Vec<SeedOutcome> {
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
    fn oltp_cell_produces_sane_numbers() {
        let profile = SutProfile::aws_rds();
        let mut dep = Deployment::new(profile.clone(), 1, 2000, 1, SEED);
        let (mix, uniform) = (TxnMix::read_only(), AccessDistribution::Uniform);
        let cell = oltp_cell(&mut dep, 10, MEASURE, mix, uniform, &base_options());
        assert!(cell.avg_tps > 100.0);
        assert!(cell.cost_per_min.total() > 0.0);
    }
}
