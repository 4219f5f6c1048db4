//! Cross-layer oracle: the static half's claims hold against exact
//! simulation.
//!
//! The audit composes once (`umi-analyze`: verifier-clean IR, absint
//! verdicts, trip bounds, composed intervals) and simulates once
//! (`umi-vm` into the exact `umi-cache` simulator with its L1 audit).
//! Every must-cache verdict check, every per-PC interval and the
//! aggregate interval must hold. Every workload audits a Persistent
//! sweep; art streams, bzip2 and treeadd reuse, and vpr has groups whose
//! intervals have no finite upper bound.

use umi::analyze::Verdict;
use umi::core::UmiConfig;
use umi::workloads::{build, Scale};
use umi_bench::staticplan_audit::audit_staticplan;

#[test]
fn static_verdicts_and_intervals_hold() {
    let floor = UmiConfig::no_sampling().delinquency_floor;
    // (workload, whether some of its groups lack a finite upper bound)
    for (name, unbounded) in [
        ("256.bzip2", false),
        ("treeadd", false),
        ("179.art", false),
        ("175.vpr", true),
    ] {
        let program = build(name, Scale::Test).expect("workload");
        let audit = audit_staticplan(&program, floor);

        let checks = audit.verdict_checks();
        if let Some(v) = checks.iter().find(|c| !c.ok) {
            panic!("{name}: {:#x} {}", v.pc.0, v.violation_message());
        }
        if let Some(v) = audit.violations().next() {
            panic!("{name}: {:#x} {}", v.bound.pc.0, v.violation_message());
        }
        assert!(audit.aggregate_ok, "{name}: aggregate interval violated");

        // Keep the oracle from going vacuous: each workload audits a
        // Persistent sweep, and vpr's unbounded groups stay unbounded.
        assert!(
            checks.iter().any(|c| c.verdict == Verdict::Persistent),
            "{name}: no Persistent verdict audited"
        );
        assert_eq!(
            audit.checked.iter().any(|c| !c.bound.bounded),
            unbounded,
            "{name}: unexpected interval boundedness"
        );
    }
}
