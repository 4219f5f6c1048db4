//! Pointer-chasing kernel (`181.mcf`, Olden `em3d`/`health`-class).

use umi_ir::{Program, ProgramBuilder, Reg, Width, STATIC_BASE};
use umi_testkit::Xoshiro256pp;

/// Parameters of the pointer-chase kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseParams {
    /// Number of list nodes.
    pub nodes: usize,
    /// Bytes per node (≥ 16; first word is the next pointer).
    pub node_bytes: usize,
    /// Total pointer dereferences to perform.
    pub steps: usize,
    /// Whether the list order is a random permutation (true) or sequential
    /// (false — prefetch-friendly).
    pub shuffled: bool,
    /// Extra payload words loaded from each visited node (0..=2).
    pub payload_loads: usize,
}

/// Builds a linked-list traversal. Node images (with embedded absolute
/// `next` pointers) are laid out in a static segment; traversal uses
/// register-indirect loads, so the chase load is profiled by UMI. With a
/// shuffled list larger than L2, nearly every dereference misses and *no
/// stride exists* — the delinquent-but-unprefetchable case.
pub fn chase(name: &str, p: ChaseParams) -> Program {
    assert!(p.nodes >= 2, "need at least two nodes");
    assert!(
        p.node_bytes >= 16 && p.node_bytes.is_multiple_of(8),
        "node too small"
    );
    assert!(p.payload_loads <= 2, "at most two payload loads");

    let mut pb = ProgramBuilder::new();
    pb.name(name);
    let f = pb.begin_func("main");

    // Build the node arena. The arena base is the *next* 64-aligned
    // address in the static region; `ProgramBuilder::data` guarantees it.
    let mut rng = Xoshiro256pp::from_name(name);
    let order = if p.shuffled {
        rng.permutation(p.nodes)
    } else {
        (0..p.nodes as u64).collect()
    };
    let arena_len = p.nodes * p.node_bytes;
    let mut arena = vec![0u8; arena_len];
    // Predict the base address: segments are 64-aligned, and this is the
    // first segment, so it lands at STATIC_BASE.
    let base = STATIC_BASE;
    for k in 0..p.nodes {
        let this = order[k] as usize;
        let next = order[(k + 1) % p.nodes] as usize;
        let next_addr = base + (next * p.node_bytes) as u64;
        let off = this * p.node_bytes;
        arena[off..off + 8].copy_from_slice(&next_addr.to_le_bytes());
        // Payload words carry the node id.
        for w in 1..(p.node_bytes / 8).min(3) {
            arena[off + w * 8..off + w * 8 + 8].copy_from_slice(&(this as u64).to_le_bytes());
        }
    }
    let actual = pb.data(arena);
    assert_eq!(actual, base, "arena must be the first static segment");

    let head = base + (order[0] as usize * p.node_bytes) as u64;
    let walk = pb.new_block();
    let done = pb.new_block();

    pb.block(f.entry())
        .movi(Reg::ESI, head as i64)
        .movi(Reg::ECX, 0)
        .movi(Reg::EDX, 0)
        .jmp(walk);
    {
        let mut bb = pb.block(walk);
        for w in 0..p.payload_loads {
            bb = bb
                .load(Reg::EAX, Reg::ESI + (8 + 8 * w as i64), Width::W8)
                .add(Reg::EDX, Reg::EAX);
        }
        bb.load(Reg::ESI, Reg::ESI + 0, Width::W8) // the chase
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, p.steps as i64)
            .br_lt(walk, done);
    }
    pb.block(done).ret();
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{p4_l2_miss_ratio, run_to_end};
    use umi_vm::{NullSink, Vm};

    fn params(nodes: usize, steps: usize, shuffled: bool) -> ChaseParams {
        ChaseParams {
            nodes,
            node_bytes: 64,
            steps,
            shuffled,
            payload_loads: 1,
        }
    }

    #[test]
    fn list_is_a_cycle_over_all_nodes() {
        // After exactly `nodes` steps the walker is back at the head.
        let n = 257;
        let p = chase("cycle", params(n, n, true));
        let mut vm = Vm::new(&p);
        vm.run(&mut NullSink, u64::MAX);
        let esi = vm.reg(Reg::ESI) as u64;
        // Recompute the head.
        let mut rng = Xoshiro256pp::from_name("cycle");
        let order = rng.permutation(n);
        let head = STATIC_BASE + order[0] * 64;
        assert_eq!(esi, head, "walker did not complete the cycle");
    }

    #[test]
    fn counts_match() {
        let p = chase("c", params(64, 1000, true));
        let stats = run_to_end(&p);
        assert_eq!(stats.loads, 2 * 1000, "chase + one payload per step");
    }

    #[test]
    fn shuffled_large_list_misses() {
        // 64K nodes * 64 B = 4 MB >> L2, random order.
        let p = chase("mcf-like", params(65_536, 200_000, true));
        let r = p4_l2_miss_ratio(&p);
        assert!(r > 0.15, "random chase should miss hard, got {r}");
    }

    #[test]
    fn sequential_list_is_prefetchable_shuffled_is_not() {
        // Both layouts miss a cold cache equally; the difference is that a
        // hardware stride prefetcher rescues only the sequential one.
        use umi_hw::{Machine, Platform, PrefetchSetting};
        let run = |shuffled: bool| {
            let p = chase("s1", params(65_536, 200_000, shuffled));
            let mut m = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
            umi_vm::Vm::new(&p).run(&mut m, u64::MAX);
            m.counters().l2_misses
        };
        let seq = run(false);
        let shuf = run(true);
        assert!(
            seq * 2 < shuf,
            "prefetcher should rescue sequential: {seq} vs {shuf}"
        );
    }

    #[test]
    fn small_list_is_resident() {
        let p = chase("small", params(256, 100_000, true));
        let r = p4_l2_miss_ratio(&p);
        assert!(r < 0.01, "16 KB list must be L2-resident, got {r}");
    }
}
