//! Figure 2: runtime overhead on Pentium 4 (HW prefetching enabled) —
//! DynamoRIO alone, UMI without sampling, and UMI with sampling, each
//! normalized to native execution.

use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::{geomean, sampled_config, scale_from_env};
use umi_core::UmiConfig;
use umi_hw::{Platform, PrefetchSetting};
use umi_prefetch::harness::{run_dbi, run_native, run_umi};
use umi_workloads::all32;

struct Row {
    dbi: f64,
    nosamp: f64,
    sampled: f64,
    residency: f64,
    traces: u64,
}

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let rows: Vec<Row> = run_cells(jobs, &all32(), |spec| {
        let program = spec.build(scale);
        let platform = Platform::pentium4();
        let setting = PrefetchSetting::Full;

        let native = run_native(&program, platform.clone(), setting);
        let (dbi, dbi_stats) = run_dbi(&program, platform.clone(), setting);
        let (nos, _) = run_umi(
            &program,
            UmiConfig::no_sampling(),
            platform.clone(),
            setting,
        );
        let (smp, smp_report) = run_umi(&program, sampled_config(scale), platform, setting);

        Row {
            dbi: dbi.relative_to(&native),
            nosamp: nos.relative_to(&native),
            sampled: smp.relative_to(&native),
            residency: dbi_stats.trace_cache_residency(),
            traces: smp_report.dbi_stats.traces_built,
        }
    });

    println!("Figure 2 — Runtime overhead on Pentium 4 (HW prefetch on)");
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>10} {:>10}",
        "benchmark", "DBI", "UMI nosamp", "UMI sampled", "residency", "traces"
    );
    let (mut dbi_rel, mut nos_rel, mut smp_rel) = (Vec::new(), Vec::new(), Vec::new());
    for (spec, r) in all32().iter().zip(&rows) {
        println!(
            "{:<14} {:>8.3} {:>10.3} {:>12.3} {:>9.1}% {:>10}",
            spec.name,
            r.dbi,
            r.nosamp,
            r.sampled,
            100.0 * r.residency,
            r.traces,
        );
        dbi_rel.push(r.dbi);
        nos_rel.push(r.nosamp);
        smp_rel.push(r.sampled);
    }
    println!(
        "\ngeomean: DBI {:.3}  UMI-no-sampling {:.3}  UMI-sampled {:.3}",
        geomean(&dbi_rel),
        geomean(&nos_rel),
        geomean(&smp_rel)
    );
    println!("(paper: DBI < 1.13 average; UMI with sampling ~1.14, i.e. +1% over DBI;");
    println!(" sampling helps most where trace-cache residency is poor, e.g. gcc)");
}
