//! A two-level data-cache hierarchy.

use crate::config::CacheConfig;
use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;

/// Where a reference was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Satisfied by the L1 data cache.
    L1,
    /// Missed L1, satisfied by the unified L2.
    L2,
    /// Missed both levels; served from memory.
    Memory,
}

/// An L1-data + unified-L2 hierarchy, the structure of both evaluation
/// platforms in the paper (§6).
///
/// The model looks up L1 first; only L1 misses reach L2 (so L2 reference
/// counts are L1-miss filtered, matching how the paper computes L2 miss
/// ratios: "dividing the number of L2 miss counts by the number of L2
/// references").
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
}

impl Hierarchy {
    /// Creates an empty hierarchy from the two geometries.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Hierarchy {
        Hierarchy {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
        }
    }

    /// References `addr` as a read and reports the level that satisfied
    /// it.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> HitLevel {
        self.access_rw(addr, false)
    }

    /// References `addr` as a write (write-back, write-allocate at both
    /// levels) and reports the level that satisfied it.
    #[inline(always)]
    pub fn access_write(&mut self, addr: u64) -> HitLevel {
        self.access_rw(addr, true)
    }

    /// References `addr` as a write if `write`, else as a read: the one
    /// path behind [`access`](Self::access) and
    /// [`access_write`](Self::access_write). Always inlined, with both
    /// levels' lookups, into each simulator's batch loop; only `hit` is
    /// read, so the lookup's evicted-address return compiles away.
    #[inline(always)]
    pub fn access_rw(&mut self, addr: u64, write: bool) -> HitLevel {
        if self.l1.lookup::<true>(addr, write).hit {
            HitLevel::L1
        } else if self.l2.lookup::<true>(addr, write).hit {
            HitLevel::L2
        } else {
            HitLevel::Memory
        }
    }

    /// Re-references the most recently accessed L1 line `n` more times
    /// (`any_write` = whether any of them writes) without a set scan — the
    /// batch sinks' run-coalescing primitive.
    ///
    /// Sound whenever the previous demand reference through this hierarchy
    /// touched the same L1 line: that reference left the line resident in
    /// L1 (hit or fill), nothing evicted it since, so each of the `n`
    /// repeats would be an L1 hit that never reaches L2. See
    /// [`SetAssocCache::reuse_mru`] for the per-line equivalence argument.
    #[inline(always)]
    pub fn l1_reuse_mru(&mut self, n: u64, any_write: bool) {
        self.l1.reuse_mru(n, any_write);
    }

    /// `log2(l1 line size)` — the shift batch sinks use to detect
    /// same-line runs (run tails are L1-resident by construction, so L1
    /// geometry is the right granularity).
    pub fn l1_line_shift(&self) -> u32 {
        self.l1.line_shift()
    }

    /// Installs the line containing `addr` into L2 only, without counting
    /// demand statistics — the effect of an L2 prefetch (both the Pentium 4
    /// hardware prefetcher and the paper's software prefetcher target L2).
    /// A line already resident is left as it is (its replacement state
    /// included). Returns whether the line was installed.
    pub fn prefetch_fill_l2(&mut self, addr: u64) -> bool {
        let absent = !self.l2.probe(addr);
        if absent {
            self.l2.fill(addr);
        }
        absent
    }

    /// Whether the line is resident in L2 (no state disturbed).
    pub fn probe_l2(&self, addr: u64) -> bool {
        self.l2.probe(addr)
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics (accesses = L1 misses).
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// L1 geometry.
    pub fn l1_config(&self) -> &CacheConfig {
        self.l1.config()
    }

    /// L2 geometry.
    pub fn l2_config(&self) -> &CacheConfig {
        self.l2.config()
    }

    /// Flushes both levels.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// Resets statistics at both levels, keeping contents.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4() -> Hierarchy {
        Hierarchy::new(CacheConfig::pentium4_l1d(), CacheConfig::pentium4_l2())
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = p4();
        assert_eq!(h.access(0x1000), HitLevel::Memory);
        assert_eq!(h.access(0x1000), HitLevel::L1);
        assert_eq!(h.l1_stats().accesses, 2);
        assert_eq!(h.l2_stats().accesses, 1, "L2 sees only L1 misses");
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = p4();
        let l1 = *h.l1_config();
        // Fill one L1 set beyond associativity with same-set lines.
        let stride = l1.sets as u64 * l1.line_size;
        let base = 0x10_0000u64;
        for i in 0..=l1.ways as u64 {
            h.access(base + i * stride);
        }
        // First line evicted from L1 but still in the much larger L2.
        assert_eq!(h.access(base), HitLevel::L2);
    }

    #[test]
    fn prefetch_fill_turns_memory_into_l2_hit() {
        let mut h = p4();
        h.prefetch_fill_l2(0x4000);
        assert!(h.probe_l2(0x4000));
        assert_eq!(h.access(0x4000), HitLevel::L2);
        assert_eq!(h.l2_stats().misses, 0);
    }

    #[test]
    fn writes_generate_writebacks_on_eviction() {
        let mut h = p4();
        let l1 = *h.l1_config();
        let stride = l1.sets as u64 * l1.line_size;
        // Dirty one L1 set beyond associativity: evictions write back.
        for i in 0..=(l1.ways as u64) {
            h.access_write(0x40_0000 + i * stride);
        }
        assert!(
            h.l1_stats().writebacks >= 1,
            "dirty eviction must write back"
        );
        // Reads alone never write back.
        let mut r = p4();
        for i in 0..=(l1.ways as u64) {
            r.access(0x40_0000 + i * stride);
        }
        assert_eq!(r.l1_stats().writebacks, 0);
    }

    #[test]
    fn flush_and_reset() {
        let mut h = p4();
        h.access(0x1000);
        h.flush();
        assert_eq!(h.access(0x1000), HitLevel::Memory);
        h.reset_stats();
        assert_eq!(h.l1_stats(), CacheStats::default());
    }
}
