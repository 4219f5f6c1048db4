//! §7.2 sensitivity analysis: the frequency threshold and the address
//! profile length, studied on the paper's two representative benchmarks —
//! 181.mcf (memory-intensive, stable loops) and 197.parser (dynamic
//! control flow, short loops).

use std::fmt::Write as _;

use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::scale_from_env;
use umi_cache::FullSimulator;
use umi_core::{PredictionQuality, SamplingMode, UmiConfig, UmiRuntime};
use umi_ir::Program;
use umi_vm::{NullSink, Vm};
use umi_workloads::build;

fn quality(program: &Program, config: UmiConfig, full: &FullSimulator) -> PredictionQuality {
    let truth = full.delinquent_set(0.90);
    let report = UmiRuntime::new(program, config).run(&mut NullSink, u64::MAX);
    PredictionQuality::compute(
        &report.predicted,
        &truth,
        full.per_pc(),
        program.static_loads(),
    )
}

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    // One cell per benchmark: the cell owns its full-simulation ground
    // truth, so both sweeps over it stay inside the cell.
    let sections: Vec<String> = run_cells(jobs, &["181.mcf", "197.parser"], |name| {
        let program = build(name, scale).expect("known workload");
        let mut full = FullSimulator::pentium4();
        Vm::new(&program).run(&mut full, u64::MAX);
        let mut out = String::new();

        writeln!(
            out,
            "=== {name}: frequency threshold sweep (sampled mode) ==="
        )
        .unwrap();
        writeln!(
            out,
            "{:>10} {:>8} {:>10}",
            "threshold", "recall", "false-pos"
        )
        .unwrap();
        let mut t = 1u32;
        while t <= 1024 {
            let mut cfg = UmiConfig::sampled();
            cfg.sampling = SamplingMode::Periodic { period_insns: 500 };
            cfg.frequency_threshold = t;
            let q = quality(&program, cfg, &full);
            writeln!(
                out,
                "{:>10} {:>7.1}% {:>9.1}%",
                t,
                100.0 * q.recall,
                100.0 * q.false_positive
            )
            .unwrap();
            t *= 4;
        }

        writeln!(
            out,
            "\n=== {name}: address profile length sweep (no sampling) ==="
        )
        .unwrap();
        writeln!(out, "{:>10} {:>8} {:>10}", "rows", "recall", "false-pos").unwrap();
        for rows in [64usize, 256, 1024, 4096, 16384, 32768] {
            let mut cfg = UmiConfig::no_sampling();
            cfg.addr_profile_rows = rows;
            cfg.trace_profile_capacity = cfg.trace_profile_capacity.max(rows * 2);
            let q = quality(&program, cfg, &full);
            writeln!(
                out,
                "{:>10} {:>7.1}% {:>9.1}%",
                rows,
                100.0 * q.recall,
                100.0 * q.false_positive
            )
            .unwrap();
        }
        out
    });
    for section in &sections {
        print!("{section}");
        println!();
    }
    println!("(paper: mcf recall flat up to threshold 256, then drops; parser's");
    println!(" recall collapses as the threshold grows; longer address profiles");
    println!(" lower parser's recall but improve its false positives)");
}
