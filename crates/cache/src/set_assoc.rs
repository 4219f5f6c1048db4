//! The set-associative cache.
//!
//! State lives in a data-oriented (SoA) layout: one flat `u64` tag array
//! scanned way-contiguously per set, logical LRU/FIFO time in its own
//! array, and validity as one bitmask word per set. A set probe
//! therefore touches a single host cache line of tags instead of a strided
//! walk over four-field `Line` structs, and the victim scan only loads the
//! time array on an actual miss.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::stats::CacheStats;

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the reference hit.
    pub hit: bool,
    /// Line-aligned address of a line evicted to make room, if any.
    pub evicted: Option<u64>,
}

/// A set-associative cache over line-aligned addresses.
///
/// Mirrors the paper's mini-simulator (§5): each reference maps to a set,
/// the tag is compared against every line in the set; on a hit the line's
/// recorded time is updated; on a miss an empty or the oldest line receives
/// the tag. Time is a logical counter.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per-line tags, sets back to back, ways contiguous within a set.
    tags: Vec<u64>,
    /// Per-line logical time (LRU refresh time / FIFO insertion time).
    times: Vec<u64>,
    /// Per-line dirty flag, indexed like `tags`; meaningful only while
    /// the line is valid.
    dirty: Vec<bool>,
    /// Per-set validity bitmask: bit `w` of `valid[s]` is way `w` of set
    /// `s` (associativity is capped at 64 ways by [`SetAssocCache::new`]).
    valid: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    /// xorshift state for [`ReplacementPolicy::Random`].
    rng: u64,
    /// `log2(line_size)`, precomputed: the access path runs once per
    /// simulated reference and the geometry divisions dominated it.
    line_shift: u32,
    /// `sets - 1` (sets is a power of two).
    set_mask: usize,
    /// `log2(sets)`.
    set_bits: u32,
    /// Bitmask with one bit per way (`(1 << ways) - 1`, saturated).
    ways_full: u64,
    /// Index into `tags`/`times`/`dirty` of the line the latest access hit
    /// or filled: the line [`reuse_mru`](Self::reuse_mru) re-references.
    mru: usize,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_size` are powers of two and the
    /// associativity is within `1..=64` (the per-set valid state is one
    /// bitmask word). `CacheConfig`'s fields are public, so a literal can
    /// bypass [`CacheConfig::new`]'s checks; the set mask and shifts
    /// below are only correct for such geometries.
    pub fn new(config: CacheConfig) -> SetAssocCache {
        assert!(
            config.sets.is_power_of_two(),
            "cache set count {} is not a power of two",
            config.sets
        );
        assert!(
            config.line_size.is_power_of_two(),
            "cache line size {} is not a power of two",
            config.line_size
        );
        assert!(
            (1..=64).contains(&config.ways),
            "associativity {} outside 1..=64",
            config.ways
        );
        let lines = config.sets * config.ways;
        SetAssocCache {
            config,
            tags: vec![0; lines],
            times: vec![0; lines],
            dirty: vec![false; lines],
            valid: vec![0; config.sets],
            clock: 0,
            stats: CacheStats::default(),
            rng: 0x9e37_79b9_7f4a_7c15,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: config.sets - 1,
            set_bits: config.sets.trailing_zeros(),
            ways_full: if config.ways == 64 {
                u64::MAX
            } else {
                (1u64 << config.ways) - 1
            },
            mru: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics, keeping cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `log2(line_size)` — the shift that turns an address into a line
    /// (block) number. Batch consumers use it to detect same-line runs.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// References `addr` as a read, updating replacement state and
    /// statistics.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.lookup::<true>(addr, false)
    }

    /// References `addr` as a write: like [`access`](Self::access), and
    /// additionally marks the line dirty (write-back, write-allocate).
    #[inline(always)]
    pub fn access_write(&mut self, addr: u64) -> AccessOutcome {
        self.lookup::<true>(addr, true)
    }

    /// The one lookup every access path shares. `COUNT` selects whether
    /// the access updates demand statistics: the demand path counts, the
    /// prefetch-fill path does not. Replacement state, the logical clock,
    /// and the Random-policy rng advance identically either way.
    ///
    /// Always inlined, so each simulator's loop carries its own copy of
    /// the set probe; a caller that reads only `hit` (the [`Hierarchy`])
    /// lets the compiler drop the evicted-address reconstruction.
    ///
    /// [`Hierarchy`]: crate::Hierarchy
    #[inline(always)]
    pub(crate) fn lookup<const COUNT: bool>(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let block = addr >> self.line_shift;
        let tag = block >> self.set_bits;
        let set = block as usize & self.set_mask;
        let base = set * self.config.ways;
        let vword = self.valid[set];

        if COUNT {
            self.stats.accesses += 1;
        }
        // Hit scan: every valid way's tag is compared (at most one
        // matches), so the loop runs as many times as the set holds lines
        // — steady once it has filled — instead of exiting at the
        // matching way, which is data-dependent and mispredicts.
        let mut hit = None;
        let mut m = vword;
        while m != 0 {
            let slot = base + m.trailing_zeros() as usize;
            if self.tags[slot] == tag {
                hit = Some(slot);
            }
            m &= m - 1;
        }
        if let Some(slot) = hit {
            if self.config.policy == ReplacementPolicy::Lru {
                self.times[slot] = clock; // LRU refresh; FIFO keeps insert time
            }
            self.dirty[slot] |= write;
            self.mru = slot;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        if COUNT {
            self.stats.misses += 1;
        }

        // Miss: prefer the first invalid way, else the policy's victim
        // (for LRU/FIFO the first way with the minimal time — the time
        // array is only read here, on the miss path).
        let ways = self.config.ways;
        let victim = if vword != self.ways_full {
            (!vword).trailing_zeros() as usize
        } else {
            match self.config.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let times = &self.times[base..base + ways];
                    let mut oldest = 0usize;
                    for (w, &t) in times.iter().enumerate().skip(1) {
                        if t < times[oldest] {
                            oldest = w;
                        }
                    }
                    oldest
                }
                ReplacementPolicy::Random => {
                    // xorshift64*
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    (self.rng % ways as u64) as usize
                }
            }
        };
        let slot = base + victim;
        let bit = 1u64 << victim;
        let old_valid = vword & bit != 0;
        if COUNT && old_valid && self.dirty[slot] {
            self.stats.writebacks += 1;
        }
        let evicted =
            old_valid.then(|| ((self.tags[slot] << self.set_bits) | set as u64) << self.line_shift);
        self.tags[slot] = tag;
        self.times[slot] = clock;
        self.dirty[slot] = write;
        self.valid[set] = vword | bit;
        self.mru = slot;
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Re-references the most recently accessed line `n` more times
    /// (`any_write` = whether any of them writes), without scanning the
    /// set: the batch consumers' run-coalescing primitive.
    ///
    /// Equivalent to `n` calls of [`access`](Self::access) /
    /// [`access_write`](Self::access_write) on that line — all guaranteed
    /// hits — provided the line was hit or filled by the immediately
    /// preceding access to *this* cache: each per-item call would bump the
    /// clock and the access counter, OR the dirty bit, and leave the LRU
    /// time at the final clock value, which is exactly what one bulk
    /// update does.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the MRU line is still valid (it cannot have
    /// been evicted, since no access intervened).
    #[inline(always)]
    pub fn reuse_mru(&mut self, n: u64, any_write: bool) {
        debug_assert!(
            self.valid[self.mru / self.config.ways] & (1 << (self.mru % self.config.ways)) != 0,
            "reuse_mru without a preceding access"
        );
        self.clock += n;
        self.stats.accesses += n;
        if self.config.policy == ReplacementPolicy::Lru {
            self.times[self.mru] = self.clock;
        }
        self.dirty[self.mru] |= any_write;
    }

    /// Inserts the line containing `addr` without counting an access, a
    /// miss, or a writeback — used to model prefetch fills, which are not
    /// demand traffic. Replacement state (clock, LRU times, Random rng,
    /// MRU line) advances exactly as a demand read would.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.lookup::<false>(addr, false).evicted
    }

    /// Whether the line containing `addr` is present, without touching
    /// replacement state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let tag = block >> self.set_bits;
        let set = block as usize & self.set_mask;
        let base = set * self.config.ways;
        let mut m = self.valid[set];
        while m != 0 {
            if self.tags[base + m.trailing_zeros() as usize] == tag {
                return true;
            }
            m &= m - 1;
        }
        false
    }

    /// Invalidates every line (the analyzer's periodic flush, §5).
    pub fn flush(&mut self) {
        self.valid.fill(0);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: ReplacementPolicy) -> SetAssocCache {
        // 2 sets, 2 ways, 64B lines: easy to force conflicts.
        SetAssocCache::new(CacheConfig::new(2, 2, 64).policy(policy))
    }

    /// Address landing in set 0 with distinct tag `t`.
    fn set0(t: u64) -> u64 {
        t * 2 * 64
    }

    /// A geometry built as a literal, bypassing `CacheConfig::new`.
    fn literal(sets: usize, ways: usize, line_size: u64) -> CacheConfig {
        CacheConfig {
            sets,
            ways,
            line_size,
            policy: ReplacementPolicy::Lru,
        }
    }

    #[test]
    #[should_panic(expected = "cache set count 6 is not a power of two")]
    fn rejects_non_power_of_two_sets() {
        SetAssocCache::new(literal(6, 2, 64));
    }

    #[test]
    #[should_panic(expected = "cache set count 0 is not a power of two")]
    fn rejects_zero_sets() {
        SetAssocCache::new(literal(0, 2, 64));
    }

    #[test]
    #[should_panic(expected = "cache line size 48 is not a power of two")]
    fn rejects_non_power_of_two_line_size() {
        SetAssocCache::new(literal(4, 2, 48));
    }

    #[test]
    #[should_panic(expected = "associativity 0 outside 1..=64")]
    fn rejects_zero_ways() {
        SetAssocCache::new(literal(4, 0, 64));
    }

    #[test]
    #[should_panic(expected = "associativity 65 outside 1..=64")]
    fn rejects_more_than_64_ways() {
        SetAssocCache::new(literal(4, 65, 64));
    }

    #[test]
    fn accepts_64_ways() {
        let mut c = SetAssocCache::new(literal(1, 64, 64));
        for t in 0..65u64 {
            c.access(t * 64);
        }
        assert_eq!(c.resident_lines(), 64);
        assert!(!c.probe(0), "the 65th line evicts the oldest");
    }

    #[test]
    fn compulsory_miss_then_hit() {
        let mut c = tiny(ReplacementPolicy::Lru);
        assert!(!c.access(0x0).hit);
        assert!(c.access(0x3f).hit, "same line");
        assert!(!c.access(0x40).hit, "next line misses");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(set0(1));
        c.access(set0(2));
        c.access(set0(1)); // refresh tag 1
        let out = c.access(set0(3)); // evicts tag 2
        assert_eq!(out.evicted, Some(set0(2)));
        assert!(c.probe(set0(1)));
        assert!(!c.probe(set0(2)));
    }

    #[test]
    fn fifo_ignores_refreshes() {
        let mut c = tiny(ReplacementPolicy::Fifo);
        c.access(set0(1));
        c.access(set0(2));
        c.access(set0(1)); // would refresh under LRU, not FIFO
        let out = c.access(set0(3)); // evicts tag 1 (oldest insert)
        assert_eq!(out.evicted, Some(set0(1)));
    }

    #[test]
    fn random_policy_is_deterministic_and_valid() {
        let mut a = tiny(ReplacementPolicy::Random);
        let mut b = tiny(ReplacementPolicy::Random);
        for t in 0..100 {
            assert_eq!(a.access(set0(t)).evicted, b.access(set0(t)).evicted);
        }
        assert_eq!(a.resident_lines(), 2);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(set0(1));
        c.access(set0(2));
        assert!(c.probe(set0(1))); // must NOT refresh
        let out = c.access(set0(3));
        assert_eq!(out.evicted, Some(set0(1)), "probe refreshed LRU state");
    }

    #[test]
    fn fill_does_not_count_stats() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(set0(1));
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.probe(set0(1)));
        assert!(c.access(set0(1)).hit, "fill installed the line");
    }

    #[test]
    fn fill_never_counts_writebacks() {
        // Dirty a full set, then fill a conflicting line: the dirty
        // eviction must not show up in the stats (the old save/restore
        // hack hid it; the dedicated path must too).
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access_write(set0(1));
        c.access_write(set0(2));
        let before = c.stats();
        let evicted = c.fill(set0(3));
        assert_eq!(evicted, Some(set0(1)), "fill still evicts");
        assert_eq!(c.stats(), before, "fill touched the stats");
    }

    #[test]
    fn fill_advances_replacement_like_a_read() {
        // Interleaving fills must leave clock/LRU state exactly as the
        // stats-save/restore implementation did: the filled line is MRU.
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(set0(1));
        c.fill(set0(2)); // later logical time than tag 1
        let out = c.access(set0(3));
        assert_eq!(out.evicted, Some(set0(1)), "fill did not refresh time");
    }

    #[test]
    fn reuse_mru_matches_per_item_accesses() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut bulk = tiny(policy);
            let mut item = tiny(policy);
            bulk.access(set0(1));
            item.access(set0(1));
            bulk.reuse_mru(3, true);
            item.access(set0(1));
            item.access_write(set0(1));
            item.access(set0(1));
            // Same stats and same observable replacement behavior.
            assert_eq!(bulk.stats(), item.stats(), "{policy:?}");
            bulk.access(set0(2));
            item.access(set0(2));
            let b = bulk.access(set0(3));
            let i = item.access(set0(3));
            assert_eq!(b, i, "{policy:?}: diverged after bulk reuse");
        }
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(0x0);
        c.access(0x40);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0x0).hit);
    }

    #[test]
    fn evicted_address_is_line_aligned_and_same_set() {
        let cfg = CacheConfig::new(16, 2, 64);
        let mut c = SetAssocCache::new(cfg);
        let a1 = 0x1040;
        let a2 = a1 + 16 * 64;
        let a3 = a2 + 16 * 64;
        c.access(a1);
        c.access(a2);
        let out = c.access(a3);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev, cfg.line_addr(a1));
        assert_eq!(cfg.set_index(ev), cfg.set_index(a3));
    }
}
