//! End-to-end experiment runners: native, DBI, UMI, and UMI + software
//! prefetching, each over a simulated hardware platform.
//!
//! These are the measurement procedures behind Figures 2–6; the
//! `umi-bench` binaries are thin tables over these functions.

use crate::plan::PrefetchPlan;
use crate::rewrite::inject_prefetches;
use umi_core::{UmiConfig, UmiReport, UmiRuntime};
use umi_dbi::{CostModel, DbiRuntime, DbiStats};
use umi_hw::{HwCounters, Machine, Platform, PrefetchSetting};
use umi_ir::Program;
use umi_vm::Vm;

/// The outcome of one measured run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total running time in cycles (base + memory stalls + any runtime
    /// overhead).
    pub cycles: u64,
    /// Hardware-counter values.
    pub counters: HwCounters,
    /// Instructions retired.
    pub insns: u64,
}

impl RunOutcome {
    /// Running time relative to a baseline (>1 = slower).
    pub fn relative_to(&self, baseline: &RunOutcome) -> f64 {
        self.cycles as f64 / baseline.cycles as f64
    }
}

/// Native execution: the program straight through the machine model.
pub fn run_native(program: &Program, platform: Platform, setting: PrefetchSetting) -> RunOutcome {
    let mut machine = Machine::new(platform, setting);
    let mut vm = Vm::new(program);
    let r = vm.run(&mut machine, u64::MAX);
    assert!(r.finished, "workload {} did not finish", program.name);
    RunOutcome {
        cycles: machine.total_cycles(r.stats.insns),
        counters: machine.counters(),
        insns: r.stats.insns,
    }
}

/// Execution under the DBI alone (the first bar of Figure 2).
pub fn run_dbi(
    program: &Program,
    platform: Platform,
    setting: PrefetchSetting,
) -> (RunOutcome, DbiStats) {
    let mut machine = Machine::new(platform, setting);
    let mut rt = DbiRuntime::new(program, CostModel::default());
    let stats = rt.run(&mut machine, u64::MAX);
    assert!(rt.finished(), "workload {} did not finish", program.name);
    (
        RunOutcome {
            cycles: machine.total_cycles(stats.insns) + rt.overhead_cycles(),
            counters: machine.counters(),
            insns: stats.insns,
        },
        rt.stats(),
    )
}

/// Execution under DBI + UMI introspection (the second/third bars of
/// Figure 2, depending on the config's sampling mode).
pub fn run_umi(
    program: &Program,
    config: UmiConfig,
    platform: Platform,
    setting: PrefetchSetting,
) -> (RunOutcome, UmiReport) {
    let mut machine = Machine::new(platform, setting);
    let mut umi = UmiRuntime::new(program, config);
    let report = umi.run(&mut machine, u64::MAX);
    assert!(umi.finished(), "workload {} did not finish", program.name);
    (
        RunOutcome {
            cycles: machine.total_cycles(report.vm_stats.insns)
                + report.dbi_overhead_cycles
                + report.umi_overhead_cycles,
            counters: machine.counters(),
            insns: report.vm_stats.insns,
        },
        report,
    )
}

/// The full §8 pipeline: introspect, plan, inject software prefetches, and
/// measure the optimized program (still under introspection, as in the
/// paper's single online run — see DESIGN.md for the two-pass
/// substitution).
///
/// Returns the optimized outcome, the profiling report, and the plan.
pub fn run_umi_prefetch(
    program: &Program,
    config: UmiConfig,
    platform: Platform,
    setting: PrefetchSetting,
    distance_refs: i64,
) -> (RunOutcome, UmiReport, PrefetchPlan) {
    let (_, report) = run_umi(program, config.clone(), platform.clone(), setting);
    let plan = PrefetchPlan::from_report(&report, distance_refs);
    let optimized = inject_prefetches(program, &plan);
    let (outcome, _) = run_umi(&optimized, config, platform, setting);
    (outcome, report, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_workloads::{build, Scale};

    #[test]
    fn umi_costs_more_than_dbi_costs_more_than_native() {
        let p = build("179.art", Scale::Test).expect("art");
        let native = run_native(&p, Platform::pentium4(), PrefetchSetting::Off);
        let (dbi, _) = run_dbi(&p, Platform::pentium4(), PrefetchSetting::Off);
        let (umi, report) = run_umi(
            &p,
            UmiConfig::no_sampling(),
            Platform::pentium4(),
            PrefetchSetting::Off,
        );
        assert!(dbi.cycles >= native.cycles);
        assert!(umi.cycles >= dbi.cycles);
        assert!(report.umi_overhead_cycles > 0);
        // Architectural behaviour identical everywhere.
        assert_eq!(native.insns, dbi.insns);
        assert_eq!(native.insns, umi.insns);
        assert_eq!(native.counters.l2_refs, umi.counters.l2_refs);
    }

    #[test]
    fn software_prefetch_speeds_up_strided_misses() {
        let p = build("ft", Scale::Test).expect("ft");
        let native = run_native(&p, Platform::pentium4(), PrefetchSetting::Off);
        let (opt, report, plan) = run_umi_prefetch(
            &p,
            UmiConfig::no_sampling(),
            Platform::pentium4(),
            PrefetchSetting::Off,
            32,
        );
        assert!(
            !report.predicted.is_empty(),
            "ft's stream must be predicted"
        );
        assert!(!plan.is_empty(), "ft has a perfect stride");
        assert!(
            opt.counters.l2_misses * 2 < native.counters.l2_misses,
            "prefetching must hide most misses: {} vs {}",
            opt.counters.l2_misses,
            native.counters.l2_misses
        );
        assert!(
            opt.cycles < native.cycles,
            "optimized {} should beat native {} despite introspection overhead",
            opt.cycles,
            native.cycles
        );
    }

    #[test]
    fn pointer_chase_offers_no_prefetching_opportunity() {
        let p = build("181.mcf", Scale::Test).expect("mcf");
        let (_, report, plan) = run_umi_prefetch(
            &p,
            UmiConfig::no_sampling(),
            Platform::pentium4(),
            PrefetchSetting::Off,
            32,
        );
        assert!(
            !report.predicted.is_empty(),
            "mcf's chase load is delinquent"
        );
        assert!(plan.is_empty(), "a random chase has no stride to prefetch");
    }

    #[test]
    fn k7_ignores_hw_prefetch_requests() {
        let p = build("179.art", Scale::Test).expect("art");
        let off = run_native(&p, Platform::k7(), PrefetchSetting::Off);
        let full = run_native(&p, Platform::k7(), PrefetchSetting::Full);
        assert_eq!(off.counters.l2_misses, full.counters.l2_misses);
    }
}
