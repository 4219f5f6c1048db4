//! Cross-layer oracle: the pre-decoded engine is indistinguishable from
//! the instruction-tree walker.
//!
//! Each workload is built (`umi-workloads`), lowered into the decoded
//! micro-op cache at both fusion levels (`umi-ir`) and run by both
//! engines (`umi-vm`). Completion, the architectural statistics and the
//! dynamic access stream must agree access by access. The workloads
//! cover indirect jumps (gcc), a pointer chase (mcf), a stencil (swim)
//! and a byte copy (gzip).

use umi::ir::FusionLevel;
use umi::vm::{CollectSink, Vm};
use umi::workloads::{build, Scale};

/// Per-run fuel cap, as in the workspace's all-workload differential.
/// Both engines check it at the same block boundaries, so a capped run
/// stops at the identical point in each.
const MAX_INSNS: u64 = 2_000_000;

#[test]
fn decoded_engine_matches_tree_walk() {
    for name in ["176.gcc", "181.mcf", "171.swim", "164.gzip"] {
        let program = build(name, Scale::Test).expect("workload");
        let mut tree_sink = CollectSink::default();
        let tree = Vm::new(&program).run_tree(&mut tree_sink, MAX_INSNS);
        assert!(tree.stats.insns > 0, "{name}: nothing retired");
        assert!(!tree_sink.accesses.is_empty(), "{name}: no accesses");

        for level in [FusionLevel::Baseline, FusionLevel::Full] {
            let mut sink = CollectSink::default();
            let decoded = Vm::with_fusion_level(&program, level).run(&mut sink, MAX_INSNS);
            assert_eq!(
                decoded.finished, tree.finished,
                "{name}: finished diverges at {level:?}"
            );
            assert_eq!(
                decoded.stats, tree.stats,
                "{name}: VmStats diverge at {level:?}"
            );
            assert_eq!(
                sink.accesses.len(),
                tree_sink.accesses.len(),
                "{name}: access counts diverge at {level:?}"
            );
            if let Some(i) = sink
                .accesses
                .iter()
                .zip(&tree_sink.accesses)
                .position(|(a, b)| a != b)
            {
                panic!(
                    "{name}: access streams diverge at {level:?}, index {i}: decoded={:?} tree={:?}",
                    sink.accesses[i], tree_sink.accesses[i]
                );
            }
        }
    }
}
