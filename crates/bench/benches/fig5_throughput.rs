//! Figure 5 — Transaction processing performance of the five cloud
//! databases: TPS for every (scale factor, mix, concurrency) cell with one
//! RW node and one RO node.
//!
//! Paper shapes to reproduce: CDB4 highest overall (≈3× CDB2); CDB3 above
//! CDB1 and CDB2; CDB2 capped by its 44 MB buffer as data grows; AWS RDS
//! best on small-SF read-write at low concurrency but degrading at SF100 /
//! high concurrency (dirty-page flushing and checkpointing).
//!
//! The grid's (scale factor, profile) slabs are independent — each owns its
//! deployment and seed — so they fan out across a worker pool
//! (`CB_JOBS=N` to override, default: available parallelism). Results are
//! merged in canonical order: the printed tables are byte-identical to a
//! `CB_JOBS=1` run.

use cb_bench::{oltp_grid, paper_mixes, OltpSlab, SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::report::{fnum, Table};

const CONCURRENCIES: [u32; 4] = [50, 100, 150, 200];
const SCALE_FACTORS: [u64; 3] = [1, 10, 100];

fn main() {
    let jobs = std::env::var("CB_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map(|j| j.max(1))
        .unwrap_or_else(cloudybench::parallel::default_jobs);
    println!("=== Figure 5: transaction processing performance ===");
    println!(
        "(sim_scale {SIM_SCALE}, {}s windows, seed {SEED}; 1 RW + 1 RO; {jobs} jobs)\n",
        cb_bench::MEASURE.as_secs()
    );
    let mixes = paper_mixes();
    let slabs = oltp_grid(&SCALE_FACTORS, SIM_SCALE, &mixes, &CONCURRENCIES, jobs);
    let mut grand: Vec<(String, f64, u32)> = Vec::new(); // (sut, sum, cells)
    let per_sf = SutProfile::all().len();
    for (sf_idx, sf) in SCALE_FACTORS.iter().enumerate() {
        let mut table = Table::new(
            &format!("Figure 5 — SF{sf}: TPS by mix and concurrency"),
            &["System", "Mix", "con=50", "con=100", "con=150", "con=200"],
        );
        for slab in &slabs[sf_idx * per_sf..(sf_idx + 1) * per_sf] {
            let OltpSlab { profile, cells, .. } = slab;
            for ((label, _), row) in mixes.iter().zip(cells) {
                let mut out = vec![profile.display.to_string(), label.to_string()];
                for cell in row {
                    out.push(fnum(cell.avg_tps));
                    match grand.iter_mut().find(|(n, _, _)| n == profile.display) {
                        Some((_, sum, n)) => {
                            *sum += cell.avg_tps;
                            *n += 1;
                        }
                        None => grand.push((profile.display.to_string(), cell.avg_tps, 1)),
                    }
                }
                table.row(&out);
            }
        }
        println!("{table}");
    }
    let mut avg = Table::new(
        "Figure 5 — average TPS across all patterns and scale factors",
        &["System", "Avg TPS"],
    );
    for (name, sum, n) in &grand {
        avg.row(&[name.clone(), fnum(sum / *n as f64)]);
    }
    println!("{avg}");
}
