//! table_profile — self-profile of the decoded engine across the suite.
//!
//! UMI's thesis is that cheap, always-available profiles should drive
//! optimization; this harness closes that loop on the interpreter itself.
//! Every workload of the main evaluation runs twice under the `op-profile`
//! opcode profiler (one counter increment per dispatched block — see
//! `umi_vm::OpProfile`): once with the decoded cache lowered at
//! [`FusionLevel::Baseline`] (PR 2 fusions only) and once at
//! [`FusionLevel::Full`] (the profile-guided superinstructions and
//! effective-address specializations this very table selected).
//!
//! Stdout is deterministic — opcode mixes are architectural counts, so
//! the output is golden in `scripts/smoke.sh`. It prints no wall-clock;
//! the benchmark (`perfbench/`) measures the engine's speed.

use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::scale_from_env;
use umi_ir::FusionLevel;
use umi_vm::{NullSink, OpProfile, Vm};
use umi_workloads::all32;

/// Both profiles of one workload plus the per-workload summary numbers.
struct Row {
    name: &'static str,
    insns: u64,
    base: OpProfile,
    full: OpProfile,
}

fn profile(program: &umi_ir::Program, level: FusionLevel) -> (u64, OpProfile) {
    let mut vm = Vm::with_fusion_level(program, level);
    vm.enable_op_profile();
    let r = vm.run(&mut NullSink, u64::MAX);
    assert!(r.finished, "workload did not finish");
    let prof = vm.op_profile().expect("profiler enabled");
    (r.stats.insns, prof)
}

fn share(count: u64, total: u64) -> f64 {
    100.0 * count as f64 / total as f64
}

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let specs = all32();
    let rows: Vec<Row> = run_cells(jobs, &specs, |spec| {
        let program = spec.build(scale);
        let (insns, base) = profile(&program, FusionLevel::Baseline);
        let (full_insns, full) = profile(&program, FusionLevel::Full);
        assert_eq!(insns, full_insns, "{}: retired-insn divergence", spec.name);
        assert_eq!(
            base.blocks, full.blocks,
            "{}: block-count divergence",
            spec.name
        );
        Row {
            name: spec.name,
            insns,
            base,
            full,
        }
    });

    println!("table_profile — decoded-engine self-profile, baseline vs fused lowering");
    println!("(dynamic micro-op counts; fusion levels differ only in lowering,");
    println!(" retired instructions and the access stream are identical)");
    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>11} {:>11} {:>8}",
        "workload", "insns", "blocks", "uops/insn", "fused u/i", "Δuops"
    );
    let mut base_total = OpProfile::default();
    let mut full_total = OpProfile::default();
    let mut insn_total = 0u64;
    for r in &rows {
        let ub = r.base.total_ops as f64 / r.insns as f64;
        let uf = r.full.total_ops as f64 / r.insns as f64;
        let cut = share(r.base.total_ops - r.full.total_ops, r.base.total_ops);
        println!(
            "{:<14} {:>12} {:>12} {:>11.3} {:>11.3} {:>7.1}%",
            r.name, r.insns, r.base.blocks, ub, uf, cut
        );
        base_total.merge(&r.base);
        full_total.merge(&r.full);
        insn_total += r.insns;
    }
    println!(
        "{:<14} {:>12} {:>12} {:>11.3} {:>11.3} {:>7.1}%",
        "TOTAL",
        insn_total,
        base_total.blocks,
        base_total.total_ops as f64 / insn_total as f64,
        full_total.total_ops as f64 / insn_total as f64,
        share(
            base_total.total_ops - full_total.total_ops,
            base_total.total_ops
        )
    );

    println!();
    println!("hot opcodes, baseline lowering (suite aggregate):");
    for (i, (name, count)) in base_total.top_ops(12).into_iter().enumerate() {
        println!(
            "  {:>2}. {:<14} {:>14}  {:>6.2}%",
            i + 1,
            name,
            count,
            share(count, base_total.total_ops)
        );
    }

    println!();
    println!("hot adjacent pairs, baseline lowering (fusion candidates):");
    for (i, ((a, b), count)) in base_total.top_pairs(12).into_iter().enumerate() {
        println!(
            "  {:>2}. {:<28} {:>14}  {:>6.2}%",
            i + 1,
            format!("{a} + {b}"),
            count,
            share(count, base_total.total_ops)
        );
    }

    println!();
    println!("hot opcodes, fused lowering (what the engine now dispatches):");
    for (i, (name, count)) in full_total.top_ops(12).into_iter().enumerate() {
        println!(
            "  {:>2}. {:<14} {:>14}  {:>6.2}%",
            i + 1,
            name,
            count,
            share(count, full_total.total_ops)
        );
    }

    println!();
    println!("generic effective-address computations by shape (baseline -> fused;");
    println!(" specialized base/base+disp forms no longer compute a generic EA):");
    for (shape, &count) in &base_total.ea_shapes {
        let after = full_total.ea_shapes.get(shape).copied().unwrap_or(0);
        println!("  {shape:<12} {count:>14} -> {after:>14}");
    }
    for (shape, &after) in &full_total.ea_shapes {
        if !base_total.ea_shapes.contains_key(shape) {
            println!("  {shape:<12} {:>14} -> {after:>14}", 0);
        }
    }
}
