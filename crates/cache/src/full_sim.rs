//! The Cachegrind-equivalent full-trace simulator.

use crate::config::CacheConfig;
use crate::delinquent::{delinquent_set, DelinquentSet};
use crate::hierarchy::{Hierarchy, HitLevel};
use crate::per_insn::PerPcStats;
use crate::stats::CacheStats;
use umi_vm::AccessSink;

/// A complete-trace, per-instruction cache simulator — this repo's stand-in
/// for the modified Cachegrind the paper uses as ground truth (§7: "We
/// modified Cachegrind to report the number of cache misses for individual
/// memory references").
///
/// It simulates *every* demand reference through an L1+L2 hierarchy and
/// attributes L2 misses to the issuing instruction. Prefetch hints are
/// ignored, as in Cachegrind ("the UMI and Cachegrind miss ratios are
/// unchanged since they ignore any prefetching side effects", §6.2).
///
/// # Batched consumption
///
/// The simulator overrides [`AccessSink::access_batch`]: a whole block's
/// accesses are consumed in one call, and consecutive references to the
/// same L1 line are coalesced into one set lookup plus a deferred bulk
/// update ([`Hierarchy::l1_reuse_mru`]). [`AccessSink::access`] is a batch
/// of one through the same loop. The run detector carries across calls,
/// so a unit-stride loop that touches a line once per block still
/// coalesces. Outcomes, statistics, and replacement state are identical
/// to simulating every reference (run tails are L1 hits by
/// construction); the batch differential test pins this against an
/// independent per-item loop.
///
/// Feed it to a [`Vm`](umi_vm::Vm) run as the access sink, then extract the
/// delinquent set:
///
/// ```
/// use umi_cache::FullSimulator;
/// use umi_ir::{ProgramBuilder, Reg, Width};
/// use umi_vm::Vm;
///
/// let mut pb = ProgramBuilder::new();
/// let main = pb.begin_func("main");
/// pb.block(main.entry())
///     .alloc(Reg::ESI, 4096)
///     .load(Reg::EAX, Reg::ESI + 0, Width::W8)
///     .ret();
/// let program = pb.finish();
///
/// let mut sim = FullSimulator::pentium4();
/// Vm::new(&program).run(&mut sim, 10_000);
/// let delinquent = sim.delinquent_set(0.90);
/// assert_eq!(delinquent.len(), 1); // the one (compulsory-missing) load
/// ```
#[derive(Clone, Debug)]
pub struct FullSimulator {
    hierarchy: Hierarchy,
    per_pc: PerPcStats,
    /// L2 statistics restricted to loads.
    l2_loads: CacheStats,
    /// L2 statistics restricted to stores.
    l2_stores: CacheStats,
    /// `log2(l1 line size)`, for same-line run detection.
    l1_shift: u32,
    /// L1 line number of the most recent demand reference
    /// (`u64::MAX` = none yet). A reference to the same line is a
    /// guaranteed L1 hit: the previous reference left the line resident
    /// and nothing evicted it since.
    cur_block: u64,
    /// Whether per-instruction attribution is maintained (the default).
    /// See [`ratios_only`](Self::ratios_only).
    track_per_pc: bool,
    /// Whether per-instruction *L1* attribution is maintained (off by
    /// default). See [`with_l1_audit`](Self::with_l1_audit).
    track_l1: bool,
    /// Per-instruction L1 statistics (misses = L1 misses, not L2).
    /// Empty unless [`with_l1_audit`](Self::with_l1_audit) was requested.
    l1_per_pc: PerPcStats,
}

impl FullSimulator {
    /// Creates a simulator over the given L1/L2 geometry.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> FullSimulator {
        let hierarchy = Hierarchy::new(l1, l2);
        let l1_shift = hierarchy.l1_line_shift();
        FullSimulator {
            hierarchy,
            per_pc: PerPcStats::new(),
            l2_loads: CacheStats::default(),
            l2_stores: CacheStats::default(),
            l1_shift,
            cur_block: u64::MAX,
            track_per_pc: true,
            track_l1: false,
            l1_per_pc: PerPcStats::new(),
        }
    }

    /// Drops per-instruction attribution: only the aggregate L1/L2
    /// statistics (and thus the miss ratios) are maintained, and
    /// [`per_pc`](Self::per_pc) stays empty. For consumers that never read
    /// the per-pc table — `corr_cell`'s prefetch-off hardware stand-ins
    /// read nothing but `l2_miss_ratio` — this removes a hash-table
    /// update per simulated reference from the demand path. Cache
    /// contents, replacement state, and every aggregate statistic are
    /// unchanged.
    #[must_use]
    pub fn ratios_only(mut self) -> FullSimulator {
        self.track_per_pc = false;
        self
    }

    /// Additionally attributes **L1** outcomes per instruction (the
    /// default per-pc table counts L2/memory misses, the paper's
    /// delinquency metric). The static must-analysis in `umi-analyze`
    /// proves *L1* verdicts (AlwaysHit / Persistent), so its soundness
    /// audits need exact per-pc L1 miss counts to compare against. Off by
    /// default — the demand path is unchanged unless requested.
    #[must_use]
    pub fn with_l1_audit(mut self) -> FullSimulator {
        self.track_l1 = true;
        self
    }

    /// Per-instruction **L1** statistics (misses count L1 misses).
    /// Empty unless built [`with_l1_audit`](Self::with_l1_audit).
    pub fn l1_per_pc(&self) -> &PerPcStats {
        &self.l1_per_pc
    }

    /// A simulator of the paper's Pentium 4 memory system.
    pub fn pentium4() -> FullSimulator {
        FullSimulator::new(CacheConfig::pentium4_l1d(), CacheConfig::pentium4_l2())
    }

    /// A simulator of the paper's AMD Athlon K7 memory system.
    pub fn k7() -> FullSimulator {
        FullSimulator::new(CacheConfig::k7_l1d(), CacheConfig::k7_l2())
    }

    /// Per-instruction statistics accumulated so far.
    pub fn per_pc(&self) -> &PerPcStats {
        &self.per_pc
    }

    /// Overall L2 statistics (loads + stores), as the paper computes miss
    /// ratios: L2 misses over L2 references.
    pub fn l2_stats(&self) -> CacheStats {
        let mut s = self.l2_loads;
        s.merge(self.l2_stores);
        s
    }

    /// Overall L2 miss ratio ("L2 Cache Miss Ratio (Cachegrind)", Table 6).
    pub fn l2_miss_ratio(&self) -> f64 {
        self.l2_stats().miss_ratio()
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.hierarchy.l1_stats()
    }

    /// Write-backs from the L2 (dirty evictions toward memory).
    pub fn l2_writebacks(&self) -> u64 {
        self.hierarchy.l2_stats().writebacks
    }

    /// The delinquent set `C` at coverage target `x` (e.g. `0.90`).
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `(0, 1]`.
    pub fn delinquent_set(&self, x: f64) -> DelinquentSet {
        delinquent_set(&self.per_pc, x)
    }

    /// The simulator's one loop, behind both [`AccessSink`] methods.
    /// Prefetch hints are skipped; the hierarchy is consulted once per
    /// same-line run. The run detector (`cur_block`) spans calls, so the
    /// per-block batches of a streaming loop coalesce into one lookup per
    /// line, not one per block. The deferred run's L1 bookkeeping
    /// (`pending`) lives in locals and is settled before returning, so
    /// every public accessor observes settled state between calls.
    fn run(&mut self, batch: &[umi_ir::MemAccess]) {
        let mut cur_block = self.cur_block;
        let mut pending = 0u64;
        let mut pending_write = false;
        for a in batch {
            if !a.is_demand() {
                continue;
            }
            let is_store = a.kind == umi_ir::AccessKind::Store;
            let block = a.addr >> self.l1_shift;
            let level = if block == cur_block {
                // Same L1 line as the previous simulated reference: a
                // guaranteed L1 hit that never reaches L2. Defer the L1
                // bookkeeping; only the per-pc tables need the item.
                pending += 1;
                pending_write |= is_store;
                HitLevel::L1
            } else {
                if pending > 0 {
                    self.hierarchy.l1_reuse_mru(pending, pending_write);
                    pending = 0;
                    pending_write = false;
                }
                cur_block = block;
                self.hierarchy.access_rw(a.addr, is_store)
            };
            let l2_miss = level == HitLevel::Memory;
            if self.track_per_pc {
                self.per_pc.record(a.pc, is_store, l2_miss);
            }
            if self.track_l1 {
                self.l1_per_pc.record(a.pc, is_store, level != HitLevel::L1);
            }
            if level != HitLevel::L1 {
                let l2 = if is_store {
                    &mut self.l2_stores
                } else {
                    &mut self.l2_loads
                };
                l2.accesses += 1;
                l2.misses += l2_miss as u64;
            }
        }
        if pending > 0 {
            self.hierarchy.l1_reuse_mru(pending, pending_write);
        }
        self.cur_block = cur_block;
    }
}

impl AccessSink for FullSimulator {
    /// A batch of one through [`access_batch`](Self::access_batch)'s loop.
    #[inline]
    fn access(&mut self, access: umi_ir::MemAccess) {
        self.run(std::slice::from_ref(&access));
    }

    fn access_batch(&mut self, batch: &[umi_ir::MemAccess]) {
        self.run(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{AccessKind, MemAccess, Pc};

    fn acc(pc: u64, addr: u64, kind: AccessKind) -> MemAccess {
        MemAccess {
            pc: Pc(pc),
            addr,
            width: 8,
            kind,
        }
    }

    #[test]
    fn attributes_misses_to_instructions() {
        let mut sim = FullSimulator::pentium4();
        // pc 1 streams over fresh lines (always misses); pc 2 re-reads one.
        for i in 0..100u64 {
            sim.access(acc(1, 0x100_0000 + i * 64, AccessKind::Load));
            sim.access(acc(2, 0x200_0000, AccessKind::Load));
        }
        let s1 = sim.per_pc().get(Pc(1));
        let s2 = sim.per_pc().get(Pc(2));
        assert_eq!(s1.load_misses, 100);
        assert_eq!(s2.load_misses, 1, "only the compulsory miss");
        let c = sim.delinquent_set(0.90);
        assert!(c.contains(Pc(1)));
        assert!(!c.contains(Pc(2)));
    }

    #[test]
    fn prefetches_are_ignored() {
        let mut sim = FullSimulator::pentium4();
        sim.access(acc(1, 0x1000, AccessKind::Prefetch));
        assert!(sim.per_pc().is_empty());
        assert_eq!(sim.l2_stats().accesses, 0);
        // And the prefetch must not have warmed the cache.
        sim.access(acc(2, 0x1000, AccessKind::Load));
        assert_eq!(sim.per_pc().get(Pc(2)).load_misses, 1);
    }

    #[test]
    fn l2_references_are_l1_filtered() {
        let mut sim = FullSimulator::pentium4();
        sim.access(acc(1, 0x1000, AccessKind::Load)); // miss both
        sim.access(acc(1, 0x1000, AccessKind::Load)); // L1 hit
        sim.access(acc(1, 0x1008, AccessKind::Store)); // L1 hit (same line)
        let l2 = sim.l2_stats();
        assert_eq!(l2.accesses, 1);
        assert_eq!(l2.misses, 1);
        assert_eq!(sim.l1_stats().accesses, 3);
        assert_eq!(sim.l2_miss_ratio(), 1.0);
    }

    #[test]
    fn batch_equals_per_item_on_runs() {
        // One batch holding a same-line run (with a store), a prefetch in
        // the middle of a run, and a line change.
        let batch = [
            acc(1, 0x1000, AccessKind::Load),
            acc(2, 0x1008, AccessKind::Store),
            acc(3, 0x1010, AccessKind::Prefetch),
            acc(4, 0x1018, AccessKind::Load),
            acc(5, 0x2000, AccessKind::Load),
            acc(6, 0x1020, AccessKind::Load), // back: L1 hit, not a run tail
        ];
        let mut batched = FullSimulator::pentium4();
        batched.access_batch(&batch);
        let mut itemized = FullSimulator::pentium4();
        for &a in &batch {
            AccessSink::access(&mut itemized, a);
        }
        assert_eq!(batched.l1_stats(), itemized.l1_stats());
        assert_eq!(batched.l2_stats(), itemized.l2_stats());
        for pc in 1..=6u64 {
            assert_eq!(batched.per_pc().get(Pc(pc)), itemized.per_pc().get(Pc(pc)));
        }
    }

    #[test]
    fn l1_audit_counts_l1_misses_not_l2() {
        let mut sim = FullSimulator::pentium4().with_l1_audit();
        // pc 1: compulsory L1+L2 miss, then two same-line run-tail hits;
        // pc 2 touches a fresh line (misses both levels); pc 1 re-reads
        // its line: an L1 hit (still resident in the 4-way set), but not
        // a run tail, so it exercises the simulated branch.
        let batch = [
            acc(1, 0x1000, AccessKind::Load),
            acc(1, 0x1008, AccessKind::Load),
            acc(1, 0x1010, AccessKind::Store),
            acc(2, 0x2000, AccessKind::Load),
            acc(1, 0x1018, AccessKind::Load),
        ];
        sim.access_batch(&batch);
        let s1 = sim.l1_per_pc().get(Pc(1));
        assert_eq!(s1.load_accesses, 3);
        assert_eq!(s1.load_misses, 1, "run tails and re-reads are L1 hits");
        assert_eq!(s1.store_accesses, 1);
        assert_eq!(s1.store_misses, 0);
        let s2 = sim.l1_per_pc().get(Pc(2));
        assert_eq!((s2.load_accesses, s2.load_misses), (1, 1));
        // The L2-level table counts the same accesses but only memory
        // misses — and agrees item-for-item with the per-item path.
        assert_eq!(sim.per_pc().get(Pc(1)).load_accesses, 3);
        let mut itemized = FullSimulator::pentium4().with_l1_audit();
        for &a in &batch {
            AccessSink::access(&mut itemized, a);
        }
        for pc in 1..=2u64 {
            assert_eq!(
                sim.l1_per_pc().get(Pc(pc)),
                itemized.l1_per_pc().get(Pc(pc))
            );
        }
        // Default builds keep the audit table empty.
        let mut plain = FullSimulator::pentium4();
        plain.access_batch(&batch);
        assert!(plain.l1_per_pc().is_empty());
    }

    #[test]
    fn ratios_only_matches_aggregate_stats_exactly() {
        let mut full = FullSimulator::pentium4();
        let mut lean = FullSimulator::pentium4().ratios_only();
        // Mix of streaming misses, run tails (with stores), and a re-read.
        let mut stream = Vec::new();
        for i in 0..200u64 {
            stream.push(acc(1, 0x100_0000 + i * 64, AccessKind::Load));
            stream.push(acc(2, 0x100_0008 + i * 64, AccessKind::Store));
            stream.push(acc(3, 0x200_0000, AccessKind::Load));
        }
        full.access_batch(&stream);
        lean.access_batch(&stream);
        assert_eq!(full.l1_stats(), lean.l1_stats());
        assert_eq!(full.l2_stats(), lean.l2_stats());
        assert_eq!(full.l2_miss_ratio(), lean.l2_miss_ratio());
        assert!(lean.per_pc().is_empty(), "ratios-only must not attribute");
        assert!(!full.per_pc().is_empty());
    }
}
