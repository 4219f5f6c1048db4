//! Table 3: profiling statistics per benchmark, without sample-based
//! reinforcement — the empirical upper bound on instrumentation overhead.

use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::scale_from_env;
use umi_core::{UmiConfig, UmiReport, UmiRuntime};
use umi_vm::NullSink;
use umi_workloads::all32;

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let reports: Vec<UmiReport> = run_cells(jobs, &all32(), |spec| {
        let program = spec.build(scale);
        UmiRuntime::new(&program, UmiConfig::no_sampling()).run(&mut NullSink, u64::MAX)
    });

    println!("Table 3 — Profiling statistics (sampling off)");
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "benchmark", "loads", "stores", "profiled", "%profiled", "profiles", "invocations"
    );
    let mut pct = Vec::new();
    for (spec, report) in all32().iter().zip(&reports) {
        pct.push(report.percent_profiled());
        println!(
            "{:<14} {:>8} {:>8} {:>10} {:>9.2}% {:>10} {:>12}",
            spec.name,
            report.static_loads,
            report.static_stores,
            report.profiled_ops,
            report.percent_profiled(),
            report.profiles_collected,
            report.analyzer_invocations,
        );
    }
    println!(
        "\naverage % profiled: {:.2}%  (paper: 19.42%, i.e. ~80% of candidates filtered)",
        umi_bench::mean(&pct)
    );
}
