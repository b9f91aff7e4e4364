//! SaaS multi-tenancy: three tenants with staggered busy hours share one
//! database service. Should you buy isolated instances, an elastic pool,
//! or copy-on-write branches?
//!
//! ```text
//! cargo run --release --example saas_tenants
//! ```

use cb_sut::SutProfile;
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::RunOptions;

fn main() {
    let base = RunOptions {
        seed: 7,
        ..RunOptions::default()
    };
    println!("three SaaS tenants, staggered busy hours (paper pattern (d))\n");
    let mut t = Table::new(
        "Multi-tenancy deployment models",
        &["System", "Model", "TPS t1/t2/t3", "Cost$/min", "T-Score"],
    );
    for (profile, model) in [
        (SutProfile::aws_rds(), "isolated instances"),
        (SutProfile::cdb2(), "elastic pool"),
        (SutProfile::cdb3(), "copy-on-write branches"),
    ] {
        let r = evaluate_tenancy(&profile, TenancyPattern::StaggeredLow, 1.0, 200, &base);
        let minutes = r.usage.window.as_secs_f64() / 60.0;
        t.row(&[
            profile.display.to_string(),
            model.to_string(),
            format!(
                "{} / {} / {}",
                fnum(r.tenant_tps[0]),
                fnum(r.tenant_tps[1]),
                fnum(r.tenant_tps[2])
            ),
            fmoney(r.cost.total() / minutes),
            fnum(r.t_score),
        ]);
    }
    println!("{t}");
    println!("the elastic pool shifts its whole budget to whichever tenant is");
    println!("busy; isolated instances waste two idle machines; branches are");
    println!("cheap but capped at their own slice of compute.");
}
