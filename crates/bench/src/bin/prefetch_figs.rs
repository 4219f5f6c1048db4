//! Figures 3, 4, 5 and 6 from two shared study passes (one per platform).
//! `fig3` prints Figure 3 alone and is the golden-gated one.

use umi_bench::engine::jobs_from_env;
use umi_bench::study::{prefetch_cells, PrefetchRow};
use umi_bench::{geomean, mean, sampled_config, scale_from_env};
use umi_hw::Platform;
use umi_workloads::all32;

fn fig34(title: &str, rows: &[PrefetchRow]) {
    println!("{title}");
    println!(
        "{:<14} {:>10} {:>14}",
        "benchmark", "UMI only", "UMI+SW prefetch"
    );
    let (mut only, mut sw) = (Vec::new(), Vec::new());
    for r in rows {
        let a = r.umi_only_off.relative_to(&r.native_off);
        let b = r.umi_sw_off.relative_to(&r.native_off);
        println!("{:<14} {:>10.3} {:>14.3}", r.spec.name, a, b);
        only.push(a);
        sw.push(b);
    }
    println!(
        "geomean: UMI only {:.3}, UMI+SW {:.3}\n",
        geomean(&only),
        geomean(&sw)
    );
}

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    // The P4 pass needs the HW-prefetch variants (Figures 5/6); the K7
    // pass feeds only Figure 4, so it skips them.
    let suite = all32();
    let p4 = prefetch_cells(
        &suite,
        scale,
        &Platform::pentium4(),
        &sampled_config(scale),
        true,
        jobs,
    );
    let k7 = prefetch_cells(
        &suite,
        scale,
        &Platform::k7(),
        &sampled_config(scale),
        false,
        jobs,
    );

    println!(
        "{} workloads with prefetching opportunities on P4, {} on K7 (paper: 11 of 32)\n",
        p4.len(),
        k7.len()
    );

    fig34(
        "Figure 3 — Running time, Pentium 4, HW prefetch disabled",
        &p4,
    );
    fig34("Figure 4 — Running time, AMD K7", &k7);

    println!("Figure 5 — Running time, Pentium 4, normalized to native (no prefetch)");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "benchmark", "UMI+SW", "HW", "UMI+SW+HW"
    );
    let (mut sw, mut hw, mut both) = (Vec::new(), Vec::new(), Vec::new());
    for r in &p4 {
        let native_hw = r.native_hw.expect("P4 study ran with hw variants");
        let umi_sw_hw = r.umi_sw_hw.expect("P4 study ran with hw variants");
        let s = r.umi_sw_off.relative_to(&r.native_off);
        let h = native_hw.relative_to(&r.native_off);
        let b = umi_sw_hw.relative_to(&r.native_off);
        println!("{:<14} {:>10.3} {:>10.3} {:>10.3}", r.spec.name, s, h, b);
        sw.push(s);
        hw.push(h);
        both.push(b);
    }
    println!(
        "geomean: SW {:.3}  HW {:.3}  SW+HW {:.3}\n",
        geomean(&sw),
        geomean(&hw),
        geomean(&both)
    );

    println!("Figure 6 — L2 misses, Pentium 4, normalized to native (no prefetch)");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "benchmark", "SW", "HW", "SW+HW"
    );
    let (mut msw, mut mhw, mut mboth) = (Vec::new(), Vec::new(), Vec::new());
    for r in &p4 {
        let native_hw = r.native_hw.expect("P4 study ran with hw variants");
        let umi_sw_hw = r.umi_sw_hw.expect("P4 study ran with hw variants");
        let base = r.native_off.counters.l2_misses.max(1) as f64;
        let s = r.umi_sw_off.counters.l2_misses as f64 / base;
        let h = native_hw.counters.l2_misses as f64 / base;
        let b = umi_sw_hw.counters.l2_misses as f64 / base;
        println!("{:<14} {:>10.3} {:>10.3} {:>10.3}", r.spec.name, s, h, b);
        msw.push(s);
        mhw.push(h);
        mboth.push(b);
    }
    println!(
        "mean normalized misses: SW {:.3}  HW {:.3}  SW+HW {:.3}",
        mean(&msw),
        mean(&mhw),
        mean(&mboth)
    );
}
