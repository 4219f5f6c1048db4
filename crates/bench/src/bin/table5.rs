//! Table 5: SPEC CPU2006 coefficients of correlation (Pentium 4 with
//! hardware prefetching enabled).

use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::scale_from_env;
use umi_core::{pearson, UmiConfig, UmiRuntime};
use umi_hw::{Platform, PrefetchSetting};
use umi_prefetch::harness::run_native;
use umi_vm::NullSink;
use umi_workloads::{spec2006, Suite};

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let data: Vec<(Suite, f64, f64)> = run_cells(jobs, &spec2006(), |spec| {
        let program = spec.build(scale);
        let native = run_native(&program, Platform::pentium4(), PrefetchSetting::Full);
        let hw = native.counters.l2_miss_ratio();
        let umi = UmiRuntime::new(&program, UmiConfig::no_sampling())
            .run(&mut NullSink, u64::MAX)
            .umi_miss_ratio;
        (spec.suite, umi, hw)
    });
    for (spec, (_, umi, hw)) in spec2006().iter().zip(&data) {
        println!("{:<16} hw {:>7.4} umi {:>7.4}", spec.name, hw, umi);
    }
    let corr = |suite: Option<Suite>| {
        let (xs, ys): (Vec<f64>, Vec<f64>) = data
            .iter()
            .filter(|(s, _, _)| suite.is_none_or(|want| *s == want))
            .map(|(_, u, h)| (*u, *h))
            .unzip();
        pearson(&xs, &ys)
    };
    println!("\nTable 5 — SPEC2006 coefficients of correlation (P4, HW prefetch on)");
    println!("{:>10} {:>10} {:>10}", "CFP2006", "CINT2006", "SPEC2006");
    println!(
        "{:>10.2} {:>10.2} {:>10.2}",
        corr(Some(Suite::Cfp2006)),
        corr(Some(Suite::Cint2006)),
        corr(None)
    );
    println!("\n(paper: 0.94 / 0.79 / 0.85)");
}
