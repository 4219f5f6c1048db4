//! Shared measurement procedure for the prefetching figures (3–6).

use crate::engine::run_cells;
use umi_core::{UmiConfig, UmiReport, UmiRuntime};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_ir::Program;
use umi_prefetch::harness::RunOutcome;
use umi_prefetch::{inject_prefetches, PrefetchPlan};
use umi_vm::Tee;
use umi_workloads::{Scale, WorkloadSpec};

/// Measurements for one prefetch-friendly workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRow {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Number of loads the plan prefetches.
    pub planned: usize,
    /// Native, all prefetching off — the normalization baseline.
    pub native_off: RunOutcome,
    /// UMI introspection only, HW prefetch off (Fig. 3/4, first bar).
    pub umi_only_off: RunOutcome,
    /// UMI + SW prefetch, HW prefetch off (Fig. 3/4, second bar; Fig. 5
    /// "SW" bar).
    pub umi_sw_off: RunOutcome,
    /// Native with the platform's HW prefetchers (Fig. 5 "HW" bar).
    /// `None` when the study ran with `hw_variants` off (Figs. 3/4 never
    /// read it, and on the K7 it would equal `native_off` anyway).
    pub native_hw: Option<RunOutcome>,
    /// UMI + SW prefetch with HW prefetch on (Fig. 5 "SW+HW" bar);
    /// `None` under the same conditions as `native_hw`.
    pub umi_sw_hw: Option<RunOutcome>,
}

/// One introspection pass over `program` into the prefetch-off machine
/// `off`, with the prefetch-on machine `on` (when given) riding the same
/// stream through a [`Tee`]: the setting changes only machine-internal
/// behaviour, never the stream the machine receives.
fn introspect_pass(
    program: &Program,
    config: &UmiConfig,
    off: &mut Machine,
    on: Option<&mut Machine>,
) -> UmiReport {
    let mut umi = UmiRuntime::new(program, config.clone());
    let report = match on {
        Some(on) => umi.run(&mut Tee(off, on), u64::MAX),
        None => umi.run(off, u64::MAX),
    };
    assert!(umi.finished(), "workload {} did not finish", program.name);
    report
}

/// One workload's §8 measurement; `None` when the planner found no
/// prefetching opportunity (the workload is then not a study row).
fn study_cell(
    spec: &WorkloadSpec,
    scale: Scale,
    platform: &Platform,
    config: &UmiConfig,
    hw_variants: bool,
) -> Option<PrefetchRow> {
    let program = spec.build(scale);
    // Pass 1: introspection over the unmodified program with the HW
    // model riding as the sink (prefetch off — prefetch does not change
    // what UMI sees anyway; it ignores prefetch side effects). The DBI
    // forwards the exact native demand stream, so this one pass yields
    // the "UMI only" outcome, the plan, AND the native baseline — same
    // machine state, minus the runtime-overhead cycles. The native-HW
    // bar's prefetch-on machine rides the same pass. Workloads without
    // a plan are rejected before any further run.
    let mut machine_off = Machine::new(platform.clone(), PrefetchSetting::Off);
    let mut native_hw = hw_variants.then(|| Machine::new(platform.clone(), PrefetchSetting::Full));
    let report = introspect_pass(&program, config, &mut machine_off, native_hw.as_mut());
    let pass_insns = report.vm_stats.insns;
    let native_off = RunOutcome {
        cycles: machine_off.total_cycles(pass_insns),
        counters: machine_off.counters(),
        insns: pass_insns,
    };
    let umi_only_off = RunOutcome {
        cycles: native_off.cycles + report.dbi_overhead_cycles + report.umi_overhead_cycles,
        counters: native_off.counters,
        insns: pass_insns,
    };
    let plan = PrefetchPlan::from_report(&report, 32);
    if plan.is_empty() {
        return None;
    }
    let optimized = inject_prefetches(&program, &plan);
    // Pass 2: introspection over the optimized program, with both
    // SW-prefetch bars' machines riding it the same way.
    let mut sw_off = Machine::new(platform.clone(), PrefetchSetting::Off);
    let mut sw_hw = hw_variants.then(|| Machine::new(platform.clone(), PrefetchSetting::Full));
    let report2 = introspect_pass(&optimized, config, &mut sw_off, sw_hw.as_mut());
    let overhead2 = report2.dbi_overhead_cycles + report2.umi_overhead_cycles;
    let pass2_insns = report2.vm_stats.insns;
    let umi_sw_off = RunOutcome {
        cycles: sw_off.total_cycles(pass2_insns) + overhead2,
        counters: sw_off.counters(),
        insns: pass2_insns,
    };
    let umi_sw_hw = sw_hw.map(|hw| RunOutcome {
        cycles: hw.total_cycles(pass2_insns) + overhead2,
        counters: hw.counters(),
        insns: pass2_insns,
    });
    let native_hw = native_hw.map(|hw| RunOutcome {
        cycles: hw.total_cycles(pass_insns),
        counters: hw.counters(),
        insns: pass_insns,
    });
    Some(PrefetchRow {
        spec: *spec,
        planned: plan.len(),
        native_off,
        umi_only_off,
        umi_sw_off,
        native_hw,
        umi_sw_hw,
    })
}

/// Runs the §8 study on every workload of `specs` with a prefetching
/// opportunity, fanned out over `jobs` engine workers (cells are
/// per-workload and independent; rows come back in `specs` order at any
/// job count). The harnesses pass the full suite; tests study a subset.
///
/// "Of the 32 benchmarks in our suite, we discovered prefetching
/// opportunities for 11 of them" — here the set is whatever the planner
/// finds a confident stride for. With `hw_variants` off the rows carry
/// only the prefetch-off measurements (all Figures 3/4 need).
pub fn prefetch_cells(
    specs: &[WorkloadSpec],
    scale: Scale,
    platform: &Platform,
    config: &UmiConfig,
    hw_variants: bool,
    jobs: usize,
) -> Vec<PrefetchRow> {
    run_cells(jobs, specs, |spec| {
        study_cell(spec, scale, platform, config, hw_variants)
    })
    .into_iter()
    .flatten()
    .collect()
}
