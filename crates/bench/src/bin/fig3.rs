//! Figure 3: running time on Pentium 4 with hardware prefetching
//! disabled — UMI introspection alone vs introspection + software
//! prefetching, normalized to native execution (lower is better).

use umi_bench::engine::jobs_from_env;
use umi_bench::study::prefetch_cells;
use umi_bench::{geomean, sampled_config, scale_from_env};
use umi_hw::Platform;
use umi_workloads::all32;

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let rows = prefetch_cells(
        &all32(),
        scale,
        &Platform::pentium4(),
        &sampled_config(scale),
        false,
        jobs,
    );
    println!("Figure 3 — Running time on Pentium 4, HW prefetch disabled");
    println!(
        "{:<14} {:>10} {:>14} {:>8}",
        "benchmark", "UMI only", "UMI+SW prefetch", "planned"
    );
    let (mut only, mut sw) = (Vec::new(), Vec::new());
    for r in &rows {
        let a = r.umi_only_off.relative_to(&r.native_off);
        let b = r.umi_sw_off.relative_to(&r.native_off);
        println!(
            "{:<14} {:>10.3} {:>14.3} {:>8}",
            r.spec.name, a, b, r.planned
        );
        only.push(a);
        sw.push(b);
    }
    println!(
        "\n{} workloads with prefetching opportunities (paper: 11 of 32)",
        rows.len()
    );
    println!(
        "geomean normalized time: UMI only {:.3}, UMI+SW {:.3}",
        geomean(&only),
        geomean(&sw)
    );
    println!("(paper: 11% average improvement; 64% best case, ft)");
}
