//! `table_static`: the static affine classifier of `umi-analyze`
//! cross-checked against UMI's dynamic per-operation reference patterns
//! on all 32 workloads — the paper's static-vs-dynamic argument (§1)
//! made quantitative.
//!
//! Every program is first put through the IR verifier; a rejection is a
//! bug and aborts the harness. The static side labels each unfiltered
//! memory operation constant-stride / loop-invariant / irregular (or
//! no-loop when the op is outside every natural loop); the dynamic side
//! is the runtime's per-column [`umi_core::PatternTally`] vote, enabled
//! via `UmiConfig::classify_patterns`. Agreement maps
//! `ConstantStride↔Strided`, `LoopInvariant↔Constant` and
//! `Irregular↔Irregular{Local,Wide}`; `stride=` additionally requires
//! the dominant dynamic stride to equal the static one.

use std::collections::HashMap;

use umi_analyze::{classify_program, render_errors, verify, StaticClass};
use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::scale_from_env;
use umi_core::{RefPattern, UmiConfig, UmiRuntime};
use umi_vm::NullSink;
use umi_workloads::all32;

/// Per-workload cross-check counts over unfiltered memory operations.
#[derive(Default)]
struct Row {
    /// Unfiltered static memory operations.
    ops: usize,
    /// Static verdicts.
    stride: usize,
    invariant: usize,
    irregular: usize,
    no_loop: usize,
    /// Operations with a dominant dynamic pattern.
    dynamic: usize,
    /// Both sides definite and compatible / incompatible.
    agree: usize,
    disagree: usize,
    /// Static verdict but never classified dynamically (not selected,
    /// filtered by the region selector, or columns too short).
    static_only: usize,
    /// Dynamic verdict where the static side had none (`no-loop`).
    dynamic_only: usize,
    /// Ops both sides call strided.
    stride_both: usize,
    /// Agreeing strided ops whose dominant dynamic stride equals the
    /// static one.
    stride_eq: usize,
}

/// Whether a static and a dynamic verdict name the same behavior.
fn agrees(class: StaticClass, pattern: RefPattern) -> bool {
    matches!(
        (class, pattern),
        (StaticClass::ConstantStride(_), RefPattern::Strided)
            | (StaticClass::LoopInvariant, RefPattern::Constant)
            | (StaticClass::Irregular, RefPattern::IrregularLocal)
            | (StaticClass::Irregular, RefPattern::IrregularWide)
    )
}

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let rows: Vec<Row> = run_cells(jobs, &all32(), |spec| {
        let program = spec.build(scale);
        if let Err(errs) = verify(&program) {
            panic!(
                "{}: verifier rejected the program:\n{}",
                spec.name,
                render_errors(&errs)
            );
        }

        let mut config = UmiConfig::no_sampling();
        config.classify_patterns = true;
        let mut umi = UmiRuntime::new(&program, config);
        let report = umi.run(&mut NullSink, u64::MAX);
        let tallies: HashMap<_, _> = report
            .patterns
            .iter()
            .filter_map(|(pc, t)| t.dominant().map(|p| (*pc, (p, t.dominant_stride()))))
            .collect();

        let mut row = Row::default();
        // classify_program returns refs sorted by pc, so every count
        // below is accumulated in a deterministic order.
        for r in classify_program(&program).iter().filter(|r| !r.filtered) {
            row.ops += 1;
            match r.class {
                StaticClass::ConstantStride(_) => row.stride += 1,
                StaticClass::LoopInvariant => row.invariant += 1,
                StaticClass::Irregular => row.irregular += 1,
                StaticClass::NotInLoop => row.no_loop += 1,
            }
            let dynamic = tallies.get(&r.pc).copied();
            if dynamic.is_some() {
                row.dynamic += 1;
            }
            match (r.class, dynamic) {
                (StaticClass::NotInLoop, Some(_)) => row.dynamic_only += 1,
                (StaticClass::NotInLoop, None) => {}
                (_, None) => row.static_only += 1,
                (class, Some((pattern, dyn_stride))) => {
                    if agrees(class, pattern) {
                        row.agree += 1;
                        if let StaticClass::ConstantStride(s) = class {
                            row.stride_both += 1;
                            if dyn_stride == Some(s) {
                                row.stride_eq += 1;
                            }
                        }
                    } else {
                        row.disagree += 1;
                    }
                }
            }
        }
        row
    });

    println!("Static (umi-analyze) vs dynamic (UMI profiles) reference classification");
    println!(
        "{:<14} {:>4} {:>7} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7} {:>7} {:>7} {:>8}",
        "benchmark",
        "ops",
        "stride",
        "inv",
        "irreg",
        "no-loop",
        "dyn",
        "agree",
        "disagr",
        "s-only",
        "d-only",
        "stride="
    );
    let mut total = Row::default();
    for (spec, row) in all32().iter().zip(&rows) {
        println!(
            "{:<14} {:>4} {:>7} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7} {:>7} {:>7} {:>8}",
            spec.name,
            row.ops,
            row.stride,
            row.invariant,
            row.irregular,
            row.no_loop,
            row.dynamic,
            row.agree,
            row.disagree,
            row.static_only,
            row.dynamic_only,
            row.stride_eq,
        );
        total.ops += row.ops;
        total.stride += row.stride;
        total.invariant += row.invariant;
        total.irregular += row.irregular;
        total.no_loop += row.no_loop;
        total.dynamic += row.dynamic;
        total.agree += row.agree;
        total.disagree += row.disagree;
        total.static_only += row.static_only;
        total.dynamic_only += row.dynamic_only;
        total.stride_both += row.stride_both;
        total.stride_eq += row.stride_eq;
    }
    println!(
        "{:<14} {:>4} {:>7} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7} {:>7} {:>7} {:>8}",
        "total",
        total.ops,
        total.stride,
        total.invariant,
        total.irregular,
        total.no_loop,
        total.dynamic,
        total.agree,
        total.disagree,
        total.static_only,
        total.dynamic_only,
        total.stride_eq,
    );
    let both = total.agree + total.disagree;
    if both > 0 {
        println!(
            "\nagreement where both sides are definite: {}/{} ({:.1}%)",
            total.agree,
            both,
            100.0 * total.agree as f64 / both as f64
        );
    }
    if total.stride_both > 0 {
        println!(
            "dominant dynamic stride equals the static stride on {}/{} agreeing strided ops",
            total.stride_eq, total.stride_both
        );
    }
    println!("\n(static-only ops were never profiled to a verdict; dynamic-only ops sit outside");
    println!(" every natural loop yet show a pattern at run time — the introspection UMI adds)");
}
