//! Dynamic multi-phase kernel (`197.parser`, `300.twolf`-class).

use umi_ir::{Program, ProgramBuilder, Reg, Width};
use umi_testkit::Xoshiro256pp;

/// Parameters of the multi-phase kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhasesParams {
    /// Outer "sentences" to process.
    pub sentences: usize,
    /// Phase-loop variants (distinct short loops; ≥ 1). More variants
    /// spread the heat thinner, the `197.parser` effect.
    pub variants: usize,
    /// Per-variant working-set slots (8 bytes; power of two).
    pub slots: usize,
    /// Maximum inner-loop trip count (actual trips are data-driven in
    /// `1..=max_trip`).
    pub max_trip: usize,
}

/// Builds a `197.parser`-like program: an outer loop reads a control word
/// from a table and indirect-jumps to one of many short phase loops; each
/// runs only a *data-dependent handful of iterations* over its own small
/// array. "Many loops run for only a few iterations" — plenty of trace
/// heads, each individually lukewarm, which is why parser's recall is so
/// sensitive to the frequency threshold (§7.2).
pub fn phases(name: &str, p: PhasesParams) -> Program {
    assert!(p.slots.is_power_of_two(), "slots must be a power of two");
    assert!(
        p.sentences > 0 && p.max_trip > 0 && p.variants > 0,
        "degenerate phases"
    );
    let mut pb = ProgramBuilder::new();
    pb.name(name);
    let f = pb.begin_func("main");

    let mut rng = Xoshiro256pp::from_name(name);
    let control: Vec<u64> = (0..p.sentences).map(|_| rng.below(u64::MAX)).collect();
    let control_seg = pb.data_words(&control);
    let arenas: Vec<u64> = (0..p.variants).map(|_| pb.bss(p.slots * 8)).collect();

    let outer = pb.new_block();
    let select = pb.new_block();
    let next = pb.new_block();
    let done = pb.new_block();
    let phase: Vec<_> = (0..p.variants).map(|_| pb.new_block()).collect();

    // R8 = sentence index, EDX = control word, ECX = trip counter.
    pb.block(f.entry()).movi(Reg::R8, 0).jmp(outer);
    pb.block(outer)
        .movi(Reg::ESI, control_seg as i64)
        .load(Reg::EDX, Reg::ESI + (Reg::R8, 8), Width::W8)
        // trip = (control >> 8) % max_trip + 1
        .mov(Reg::ECX, Reg::EDX)
        .shr(Reg::ECX, 8)
        .rem(Reg::ECX, p.max_trip as i64)
        .addi(Reg::ECX, 1)
        .jmp(select);
    pb.block(select)
        .mov(Reg::EDI, Reg::EDX)
        .jmp_ind(Reg::EDI, phase.clone());

    for (v, &block) in phase.iter().enumerate() {
        let stores = v % 2 == 1;
        let mut bb = pb
            .block(block)
            .movi(Reg::ESI, arenas[v] as i64)
            .mov(Reg::EAX, Reg::EDX)
            .shr(Reg::EAX, 7)
            .and(Reg::EAX, (p.slots - 1) as i64)
            .load(Reg::EBX, Reg::ESI + (Reg::EAX, 8), Width::W8)
            .add(Reg::EBX, Reg::ECX);
        if stores {
            bb = bb.store(Reg::ESI + (Reg::EAX, 8), Reg::EBX, Width::W8);
        }
        bb.addi(Reg::EDX, 0x9e37 + v as i64)
            .addi(Reg::ECX, -1)
            .cmpi(Reg::ECX, 0)
            .br_gt(block, next);
    }

    pb.block(next)
        .addi(Reg::R8, 1)
        .cmpi(Reg::R8, p.sentences as i64)
        .br_lt(outer, done);
    pb.block(done).ret();
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{p4_l2_miss_ratio, run_to_end};
    use umi_dbi::{CostModel, DbiRuntime};
    use umi_vm::NullSink;

    fn params(sentences: usize) -> PhasesParams {
        PhasesParams {
            sentences,
            variants: 12,
            slots: 1024,
            max_trip: 5,
        }
    }

    #[test]
    fn terminates_with_bounded_work() {
        let p = phases("ph", params(1000));
        let stats = run_to_end(&p);
        // Each sentence: 1 control load + trips in [1, 5] phase loads.
        assert!(stats.loads >= 2 * 1000);
        assert!(stats.loads <= 1000 + 6 * 1000, "loads {}", stats.loads);
    }

    #[test]
    fn heat_is_spread_over_many_short_traces() {
        let p = phases("parser-like", params(30_000));
        let mut rt = DbiRuntime::new(&p, CostModel::default());
        rt.run(&mut NullSink, u64::MAX);
        assert!(
            rt.traces().len() >= 6,
            "many lukewarm loops: {}",
            rt.traces().len()
        );
    }

    #[test]
    fn miss_ratio_is_low_but_nonzero() {
        let p = phases("tw", params(50_000));
        let r = p4_l2_miss_ratio(&p);
        assert!(r < 0.2, "phase working sets are smallish: {r}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_variants() {
        let _ = phases(
            "bad",
            PhasesParams {
                sentences: 1,
                variants: 0,
                slots: 8,
                max_trip: 1,
            },
        );
    }
}
