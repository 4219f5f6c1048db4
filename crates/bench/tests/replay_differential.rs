//! Suite-wide differential test: for every workload, an introspection
//! run over a replayed trace must be *byte-identical* to the live run
//! that captured it — same UMI report, same shadow mini-simulator ratio,
//! same full-simulator statistics, same prefetch-on machine state.
//!
//! It also pins the §8 study's native-HW bar to the stream it used to be
//! measured from: a prefetch-on machine riding the live introspection
//! pass through a `Tee` must end in exactly the state that replaying the
//! captured trace into a fresh machine reaches.

use std::sync::Arc;
use umi_cache::{CacheConfig, FullSimulator};
use umi_core::{UmiConfig, UmiReport, UmiRuntime};
use umi_dbi::{CostModel, DbiRuntime};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_trace::{store, ReplayCursor, TraceWriter};
use umi_vm::{BlockSource, Tee};
use umi_workloads::{all32, Scale};

/// What one introspection pass produced.
struct Pass {
    report: UmiReport,
    /// L2 miss ratio of the K7-geometry shadow mini-simulator.
    shadow_ratio: f64,
    full: FullSimulator,
    machine: Machine,
}

/// Runs no-sampling introspection over `dbi`'s block source with a K7
/// shadow mini-simulator, teeing the stream into a P4 full simulator and
/// a P4 prefetch-on machine.
fn introspect<'p, X: BlockSource<'p>>(dbi: DbiRuntime<'p, X>) -> (UmiRuntime<'p, X>, Pass) {
    let mut k7 = UmiConfig::no_sampling().sim_cache(CacheConfig::k7_l2());
    k7.sim_l1_filter = CacheConfig::k7_l1d();
    let mut umi = UmiRuntime::with_dbi(dbi, UmiConfig::no_sampling());
    let shadow = umi.add_shadow_sim(&k7);
    let mut full = FullSimulator::pentium4();
    let mut machine = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let report = umi.run(&mut Tee(&mut full, &mut machine), u64::MAX);
    assert!(umi.finished());
    let shadow_ratio = umi.shadow_sims()[shadow].miss_ratio();
    let pass = Pass {
        report,
        shadow_ratio,
        full,
        machine,
    };
    (umi, pass)
}

#[test]
fn replay_is_byte_identical_to_live_for_all_workloads() {
    for spec in all32() {
        let program = spec.build(Scale::Test);
        let name = spec.name;

        let mut dbi = DbiRuntime::new(&program, CostModel::default());
        dbi.attach_tracer(TraceWriter::new());
        let (mut umi, live) = introspect(dbi);
        let writer = umi.dbi_mut().take_tracer().expect("tracer attached");
        let trace = Arc::new(writer.finish(store::program_key(&program), live.report.vm_stats));

        let cursor = ReplayCursor::new(&program, Arc::clone(&trace)).expect("trace fits program");
        let (_, replay) = introspect(DbiRuntime::from_source(cursor, CostModel::default()));

        // The whole introspection result is identical.
        assert_eq!(
            live.report.canonical(),
            replay.report.canonical(),
            "{name}: UMI report diverged under replay"
        );
        assert_eq!(
            live.shadow_ratio, replay.shadow_ratio,
            "{name}: shadow mini-sim diverged under replay"
        );

        // So is everything the full simulator saw.
        assert_eq!(
            live.full.l1_stats(),
            replay.full.l1_stats(),
            "{name}: L1 diverged"
        );
        assert_eq!(
            live.full.l2_stats(),
            replay.full.l2_stats(),
            "{name}: L2 diverged"
        );
        assert_eq!(
            live.full.l2_writebacks(),
            replay.full.l2_writebacks(),
            "{name}: writebacks diverged"
        );

        // The machine that rode the live pass agrees with the one that
        // rode the replayed pass, and with one driven purely from the
        // trace (no DBI stack at all).
        let mut from_trace = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
        let summary = trace.replay_into(&mut from_trace);
        assert_eq!(
            summary.stats, live.report.vm_stats,
            "{name}: trace summary disagrees with live stats"
        );
        for (what, other) in [("replayed pass", &replay.machine), ("trace", &from_trace)] {
            assert_eq!(
                live.machine.counters(),
                other.counters(),
                "{name}: machine counters diverged from the {what}"
            );
            assert_eq!(
                live.machine.stall_cycles(),
                other.stall_cycles(),
                "{name}: machine stalls diverged from the {what}"
            );
        }
    }
}
