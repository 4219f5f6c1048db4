//! Cross-layer oracle: introspection over a replayed execution trace is
//! indistinguishable from the live run that captured it.
//!
//! The live run interprets the program (`umi-vm`) under the DBI and UMI
//! with a tracer attached; the replay run steps the captured trace
//! (`umi-trace`) through the same DBI and UMI stack. Both feed a
//! prefetch-on Pentium 4 machine (`umi-hw`, `umi-cache`). The workloads
//! cover indirect-jump dispatch (gcc, parser), streaming (art) and a
//! pointer chase (mcf).

use std::sync::Arc;
use umi::core::{UmiConfig, UmiReport, UmiRuntime};
use umi::dbi::{CostModel, DbiRuntime};
use umi::hw::{Machine, Platform, PrefetchSetting};
use umi::vm::BlockSource;
use umi::workloads::{build, Scale};
use umi_trace::{store, ReplayCursor, TraceWriter};

fn introspect<'p, X: BlockSource<'p>>(
    dbi: DbiRuntime<'p, X>,
) -> (UmiRuntime<'p, X>, UmiReport, Machine) {
    let mut umi = UmiRuntime::with_dbi(dbi, UmiConfig::no_sampling());
    let mut machine = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let report = umi.run(&mut machine, u64::MAX);
    assert!(umi.finished());
    (umi, report, machine)
}

#[test]
fn replayed_introspection_matches_live() {
    for name in ["176.gcc", "197.parser", "179.art", "181.mcf"] {
        let program = build(name, Scale::Test).expect("workload");

        let mut dbi = DbiRuntime::new(&program, CostModel::default());
        dbi.attach_tracer(TraceWriter::new());
        let (mut umi, live, live_hw) = introspect(dbi);
        let writer = umi.dbi_mut().take_tracer().expect("tracer attached");
        let trace = Arc::new(writer.finish(store::program_key(&program), live.vm_stats));
        assert!(trace.summary().accesses > 0, "{name}: empty trace");

        let cursor = ReplayCursor::new(&program, trace).expect("trace fits program");
        let (_, replay, replay_hw) =
            introspect(DbiRuntime::from_source(cursor, CostModel::default()));

        assert_eq!(
            live.canonical(),
            replay.canonical(),
            "{name}: UMI report diverged under replay"
        );
        assert_eq!(
            live_hw.counters(),
            replay_hw.counters(),
            "{name}: machine counters diverged under replay"
        );
        assert_eq!(
            live_hw.stall_cycles(),
            replay_hw.stall_cycles(),
            "{name}: machine stalls diverged under replay"
        );
    }
}
