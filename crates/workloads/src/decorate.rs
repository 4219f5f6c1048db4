//! ABI-style reference noise.
//!
//! Real x86 binaries are full of stack traffic (spills, locals through
//! `ebp`/`esp`) and static-address references — which is exactly why the
//! paper's operation filter removes ~80% of candidate memory operations
//! (§4.1, Table 3). The raw kernels compute through registers, so this
//! pass decorates every memory-touching block with:
//!
//! * `ebp`-relative spill/reload pairs through the reserved scratch
//!   register `R12` (stack-classified, filtered by UMI);
//! * occasional absolute loads of a small "globals" area into `R13`
//!   (static-classified, filtered by UMI).
//!
//! The noise is deterministic per workload name, cache-hot (a few stack
//! lines), and touches only `R12`/`R13`, which no kernel uses.

use umi_ir::{Insn, MemRef, Operand, Program, Reg, Width};
use umi_testkit::Xoshiro256pp;

/// Number of 8-byte scratch slots below `ebp` used by the spill noise.
const SPILL_SLOTS: i64 = 8;

/// Slots of the shared "global array" (8 bytes each): 128 KB — larger
/// than either platform's L1, comfortably inside both L2s. Its scattered
/// accesses are the L1-miss/L2-hit traffic that real programs have in
/// abundance, and which keeps hardware L2 miss *ratios* away from the
/// degenerate 0/1 endpoints.
const GLOBAL_SLOTS: u64 = 16 * 1024;

/// Decorates `program` in place with stack and static reference noise;
/// the mix is chosen so that roughly one in four or five memory
/// operations survives UMI's filter, as in the paper's Table 3.
pub fn add_abi_noise(program: &mut Program, name: &str) {
    let mut rng = Xoshiro256pp::from_name(name);
    let globals = program.reserve_static(64 * 8);
    let global_array = program.reserve_static((GLOBAL_SLOTS * 8) as usize);
    for block in &mut program.blocks {
        if !block.insns.iter().any(Insn::accesses_memory) {
            continue;
        }
        let mut decorated = Vec::with_capacity(block.insns.len() + 10);
        // Reload a "local" at block entry.
        let slot = 8 * (1 + rng.below(SPILL_SLOTS as u64) as i64);
        decorated.push(Insn::Load {
            dst: Reg::R13,
            mem: MemRef::base_disp(Reg::EBP, -slot),
            width: Width::W8,
        });
        // Every decorated block also touches the shared global array at a
        // pseudo-random slot (register-indexed: *kept* by the filter, like
        // any real global-array access) — the steady L1-miss/L2-hit
        // traffic that keeps hardware L2 ratios conditioned even for
        // otherwise cache-resident programs. R12 holds a pure LCG chain —
        // only these steps ever write it, so the index stream stays well
        // distributed; R13 is the disposable scratch.
        {
            decorated.push(Insn::Binary {
                op: umi_ir::BinOp::Mul,
                dst: Reg::R12,
                src: Operand::Imm(6_364_136_223_846_793_005),
            });
            decorated.push(Insn::Binary {
                op: umi_ir::BinOp::Add,
                dst: Reg::R12,
                src: Operand::Imm(1_442_695_040_888_963_407),
            });
            decorated.push(Insn::Mov {
                dst: Reg::R13,
                src: Operand::Reg(Reg::R12),
            });
            decorated.push(Insn::Binary {
                op: umi_ir::BinOp::Shr,
                dst: Reg::R13,
                src: Operand::Imm(21),
            });
            decorated.push(Insn::Binary {
                op: umi_ir::BinOp::And,
                dst: Reg::R13,
                src: Operand::Imm((GLOBAL_SLOTS - 1) as i64),
            });
            decorated.push(Insn::Load {
                dst: Reg::R13,
                mem: MemRef {
                    base: None,
                    index: Some((Reg::R13, 8)),
                    disp: global_array as i64,
                },
                width: Width::W8,
            });
        }
        for insn in block.insns.drain(..) {
            let was_mem = insn.accesses_memory();
            decorated.push(insn);
            if was_mem {
                // After each real reference: a spill, and sometimes a
                // static table touch.
                let slot = 8 * (1 + rng.below(SPILL_SLOTS as u64) as i64);
                decorated.push(Insn::Store {
                    mem: MemRef::base_disp(Reg::EBP, -slot),
                    src: Operand::Reg(Reg::R12),
                    width: Width::W8,
                });
                if rng.below(2) == 0 {
                    let off = 8 * rng.below(64);
                    decorated.push(Insn::Load {
                        dst: Reg::R13,
                        mem: MemRef::absolute(globals + off),
                        width: Width::W8,
                    });
                }
                if rng.below(2) == 0 {
                    let slot = 8 * (1 + rng.below(SPILL_SLOTS as u64) as i64);
                    decorated.push(Insn::Load {
                        dst: Reg::R13,
                        mem: MemRef::base_disp(Reg::EBP, -slot),
                        width: Width::W8,
                    });
                }
            }
        }
        block.insns = decorated;
    }
    program.relayout();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{stream, StreamParams};
    use umi_vm::{NullSink, Vm};

    fn plain() -> Program {
        stream(
            "noise-test",
            StreamParams {
                elems: 1024,
                passes: 2,
                stride: 1,
                stores: true,
                compute_nops: 0,
            },
        )
    }

    #[test]
    fn noise_adds_filtered_references_only() {
        let base = plain();
        let mut noisy = plain();
        add_abi_noise(&mut noisy, "noise-test");
        let filtered = |p: &Program| {
            p.blocks
                .iter()
                .flat_map(|b| &b.insns)
                .flat_map(Insn::mem_refs)
                .filter(|(m, _)| m.is_filtered())
                .count()
        };
        let unfiltered = |p: &Program| {
            p.blocks
                .iter()
                .flat_map(|b| &b.insns)
                .flat_map(Insn::mem_refs)
                .filter(|(m, _)| !m.is_filtered())
                .count()
        };
        // Kernel refs survive; the only unfiltered additions are the
        // register-indexed global-array touches (profiled, like real
        // global-array accesses).
        assert!(unfiltered(&noisy) >= unfiltered(&base), "kernel refs lost");
        assert!(
            unfiltered(&noisy) <= unfiltered(&base) + noisy.blocks.len(),
            "at most one global touch per block"
        );
        assert!(
            filtered(&noisy) > filtered(&base) + 2,
            "noise must be filtered class"
        );
        assert_eq!(noisy.validate(), Ok(()));
    }

    #[test]
    fn noise_preserves_architectural_results() {
        let base = plain();
        let mut noisy = plain();
        add_abi_noise(&mut noisy, "noise-test");
        let mut a = Vm::new(&base);
        let mut b = Vm::new(&noisy);
        a.run(&mut NullSink, u64::MAX);
        let rb = b.run(&mut NullSink, u64::MAX);
        assert!(rb.finished);
        assert_eq!(
            a.reg(Reg::EDX),
            b.reg(Reg::EDX),
            "kernel result must not change"
        );
        assert!(rb.stats.loads > a.stats().loads, "noise adds dynamic loads");
    }

    #[test]
    fn noise_is_deterministic() {
        let mut a = plain();
        let mut b = plain();
        add_abi_noise(&mut a, "x");
        add_abi_noise(&mut b, "x");
        assert_eq!(a.blocks, b.blocks);
    }
}
