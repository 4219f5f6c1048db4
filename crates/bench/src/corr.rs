//! The per-workload measurement behind Table 4 (and the determinism
//! tests): simulated miss ratios from every predictor next to the
//! hardware counters they are correlated against.

use umi_cache::{CacheConfig, FullSimulator};
use umi_core::{UmiConfig, UmiRuntime};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_vm::Tee;
use umi_workloads::{Scale, WorkloadSpec};

/// One workload's miss ratios under every measurement in Table 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrRow {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Hardware L2 miss ratio, Pentium 4, prefetch off.
    pub hw_p4_off: f64,
    /// Hardware L2 miss ratio, Pentium 4, prefetch on.
    pub hw_p4_on: f64,
    /// Hardware L2 miss ratio, AMD K7.
    pub hw_k7: f64,
    /// Cachegrind-equivalent full simulation, P4 geometry.
    pub cachegrind: f64,
    /// UMI mini-simulation miss ratio, P4 geometry.
    pub umi_p4: f64,
    /// UMI mini-simulation miss ratio, K7 geometry.
    pub umi_k7: f64,
}

/// Measures one workload — three hardware platforms, the full
/// simulation, and both UMI mini-simulation geometries — in a single
/// interpreter pass. Pure in its inputs, so cells can run on any engine
/// thread.
///
/// The pass is the UMI introspection run; the passive models ride its
/// access stream through a [`Tee`] fan-out. The DBI forwards the
/// program's unmodified demand stream to the sink, so each model
/// finishes in exactly the state its dedicated run would reach — the
/// batched sinks consume whole blocks per call — and the K7
/// mini-simulation is a shadow geometry on the same analyzer invocations
/// ([`umi_core::UmiRuntime::add_shadow_sim`]). Previously this cell
/// re-interpreted
/// the workload six times; the ratios are bit-identical either way.
///
/// Only the prefetch-*on* platform needs a [`Machine`]: with hardware
/// prefetch off, a machine's L2 counters are the same simulation as a
/// [`FullSimulator`] over the same geometry (identical hierarchy
/// implementation, identical demand stream; the stall model the machine
/// additionally runs is never read here). That identity is what makes
/// Table 4's "Cachegrind vs P4, no HW prefetch" correlation exactly
/// 1.000 — so the P4-off counters are read from the Cachegrind model and
/// the K7-off counters from a K7-geometry full simulation, dropping two
/// redundant per-reference machine simulations from the suite's hottest
/// cell. The printed ratios are bit-identical.
pub fn corr_cell(spec: &WorkloadSpec, scale: Scale) -> CorrRow {
    let program = spec.build(scale);

    // Ratios-only: this cell reads nothing but aggregate L2 miss ratios
    // off the full simulators, so per-instruction attribution is skipped.
    let mut hw_p4_on = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let mut cg = FullSimulator::pentium4().ratios_only();
    let mut cg_k7 = FullSimulator::k7().ratios_only();

    // Bursty (no-sampling) introspection: at our scaled-down run lengths
    // the sampled duty cycle is too thin for the analyzer's reuse-based
    // accounting; the bursty mode is the same mechanism at the duty the
    // paper's minutes-long runs would deliver.
    let mut k7_cfg = UmiConfig::no_sampling().sim_cache(CacheConfig::k7_l2());
    k7_cfg.sim_l1_filter = CacheConfig::k7_l1d();

    let mut umi = UmiRuntime::new(&program, UmiConfig::no_sampling());
    let k7 = umi.add_shadow_sim(&k7_cfg);
    let report = {
        let mut pair = Tee(&mut cg, &mut cg_k7);
        umi.run(&mut Tee(&mut hw_p4_on, &mut pair), u64::MAX)
    };

    CorrRow {
        spec: *spec,
        hw_p4_off: cg.l2_miss_ratio(),
        hw_p4_on: hw_p4_on.counters().l2_miss_ratio(),
        hw_k7: cg_k7.l2_miss_ratio(),
        cachegrind: cg.l2_miss_ratio(),
        umi_p4: report.umi_miss_ratio,
        umi_k7: umi.shadow_sims()[k7].miss_ratio(),
    }
}
