//! Per-instruction (per-`Pc`) miss accounting.

use umi_ir::Pc;

/// Access/miss counters for a single instruction, split by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcMissStats {
    /// Loads issued by this instruction.
    pub load_accesses: u64,
    /// Loads that missed.
    pub load_misses: u64,
    /// Stores issued by this instruction.
    pub store_accesses: u64,
    /// Stores that missed.
    pub store_misses: u64,
}

impl PcMissStats {
    /// Load miss ratio in `[0, 1]`.
    pub fn load_miss_ratio(&self) -> f64 {
        if self.load_accesses == 0 {
            0.0
        } else {
            self.load_misses as f64 / self.load_accesses as f64
        }
    }

    /// Total accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.load_accesses + self.store_accesses
    }

    /// Total misses (loads + stores).
    pub fn misses(&self) -> u64 {
        self.load_misses + self.store_misses
    }
}

/// Slot sentinel. `Pc(u64::MAX)` is reserved — no instruction lives at
/// the top of the address space (code starts near `0x40_0000`).
const NO_PC: u64 = u64::MAX;

/// Fibonacci-hashing multiplier (2^64 / φ).
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A map from instruction address to its miss statistics.
///
/// This is the structure both the full simulator and UMI's mini-simulator
/// produce; delinquent-load analysis (§7) consumes it. The simulators
/// update it once per simulated reference, so the map is a hand-rolled
/// open-addressing table (multiplicative hashing, linear probing) rather
/// than a SipHash `HashMap`. A side effect worth having: iteration order
/// is a pure function of the insertion sequence, where the standard map's
/// per-process random seed made it differ run to run.
#[derive(Clone, Debug, Default)]
pub struct PerPcStats {
    /// `keys[i]` is an instruction address (or [`NO_PC`]); `vals[i]` its
    /// counters. Capacity is a power of two; load factor stays below 1/2,
    /// so most lookups end at their first probe: how many probes a lookup
    /// takes is data-dependent, and every extra one risks a branch
    /// mispredict on the per-reference path.
    keys: Vec<u64>,
    vals: Vec<PcMissStats>,
    len: usize,
    /// `len` at which the table grows next (½ of capacity), precomputed
    /// so the per-reference hot path compares instead of multiplying.
    grow_at: usize,
}

impl PerPcStats {
    /// Creates an empty map.
    pub fn new() -> PerPcStats {
        PerPcStats::default()
    }

    #[inline]
    fn hash_slot(pc: u64, mask: usize) -> usize {
        (pc.wrapping_mul(HASH_MUL) >> 32) as usize & mask
    }

    /// The counters for `pc`, inserting zeroed counters on first sight.
    #[inline]
    fn entry(&mut self, pc: Pc) -> &mut PcMissStats {
        debug_assert_ne!(pc.0, NO_PC, "Pc(u64::MAX) is reserved");
        if self.len >= self.grow_at {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash_slot(pc.0, mask);
        loop {
            let k = self.keys[i];
            if k == pc.0 {
                return &mut self.vals[i];
            }
            if k == NO_PC {
                self.keys[i] = pc.0;
                self.len += 1;
                return &mut self.vals[i];
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(16);
        self.grow_at = cap / 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![NO_PC; cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![PcMissStats::default(); cap]);
        let mask = cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == NO_PC {
                continue;
            }
            let mut i = Self::hash_slot(k, mask);
            while self.keys[i] != NO_PC {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }

    /// Records one load by `pc`.
    #[inline]
    pub fn record_load(&mut self, pc: Pc, missed: bool) {
        let e = self.entry(pc);
        e.load_accesses += 1;
        e.load_misses += missed as u64;
    }

    /// Records one store by `pc`.
    #[inline]
    pub fn record_store(&mut self, pc: Pc, missed: bool) {
        let e = self.entry(pc);
        e.store_accesses += 1;
        e.store_misses += missed as u64;
    }

    /// Records one access by `pc`, load/store selected by `is_store`.
    #[inline]
    pub fn record(&mut self, pc: Pc, is_store: bool, missed: bool) {
        let e = self.entry(pc);
        if is_store {
            e.store_accesses += 1;
            e.store_misses += missed as u64;
        } else {
            e.load_accesses += 1;
            e.load_misses += missed as u64;
        }
    }

    /// Statistics for one instruction (zeros if never seen).
    pub fn get(&self, pc: Pc) -> PcMissStats {
        if self.keys.is_empty() {
            return PcMissStats::default();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash_slot(pc.0, mask);
        loop {
            let k = self.keys[i];
            if k == pc.0 {
                return self.vals[i];
            }
            if k == NO_PC {
                return PcMissStats::default();
            }
            i = (i + 1) & mask;
        }
    }

    /// Iterates over `(pc, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &PcMissStats)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(k, _)| **k != NO_PC)
            .map(|(k, v)| (Pc(*k), v))
    }

    /// Number of distinct instructions observed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no instruction has been observed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of load misses over all instructions.
    pub fn total_load_misses(&self) -> u64 {
        self.iter().map(|(_, s)| s.load_misses).sum()
    }

    /// Sum of load accesses over all instructions.
    pub fn total_load_accesses(&self) -> u64 {
        self.iter().map(|(_, s)| s.load_accesses).sum()
    }

    /// Clears all statistics.
    pub fn clear(&mut self) {
        self.keys.fill(NO_PC);
        self.vals.fill(PcMissStats::default());
        self.len = 0;
    }
}

impl FromIterator<(Pc, PcMissStats)> for PerPcStats {
    fn from_iter<T: IntoIterator<Item = (Pc, PcMissStats)>>(iter: T) -> PerPcStats {
        let mut s = PerPcStats::new();
        for (pc, stats) in iter {
            *s.entry(pc) = stats; // last write wins, as with HashMap insert
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ratios() {
        let mut s = PerPcStats::new();
        let pc = Pc(0x400000);
        s.record_load(pc, true);
        s.record_load(pc, false);
        s.record_load(pc, true);
        s.record_store(pc, true);
        let st = s.get(pc);
        assert_eq!(st.load_accesses, 3);
        assert_eq!(st.load_misses, 2);
        assert_eq!(st.store_misses, 1);
        assert!((st.load_miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(st.accesses(), 4);
        assert_eq!(st.misses(), 3);
    }

    #[test]
    fn totals_sum_across_pcs() {
        let mut s = PerPcStats::new();
        s.record_load(Pc(1), true);
        s.record_load(Pc(2), true);
        s.record_load(Pc(2), false);
        assert_eq!(s.total_load_misses(), 2);
        assert_eq!(s.total_load_accesses(), 3);
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn unknown_pc_is_zero() {
        let s = PerPcStats::new();
        assert_eq!(s.get(Pc(0xdead)), PcMissStats::default());
        assert_eq!(s.get(Pc(0xdead)).load_miss_ratio(), 0.0);
    }

    #[test]
    fn survives_growth_and_collisions() {
        // Enough distinct pcs to force several rehashes; 4-byte spacing
        // matches real instruction layout.
        let mut s = PerPcStats::new();
        for round in 0..3u64 {
            for i in 0..300u64 {
                s.record_load(Pc(0x40_0000 + 4 * i), (i + round) % 2 == 0);
            }
        }
        assert_eq!(s.len(), 300);
        for i in 0..300u64 {
            let st = s.get(Pc(0x40_0000 + 4 * i));
            assert_eq!(st.load_accesses, 3, "pc {i} lost counts");
        }
        let total: u64 = s.iter().map(|(_, v)| v.load_accesses).sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn from_iter_last_write_wins() {
        let s: PerPcStats = [
            (
                Pc(1),
                PcMissStats {
                    load_accesses: 1,
                    ..Default::default()
                },
            ),
            (
                Pc(1),
                PcMissStats {
                    load_accesses: 9,
                    ..Default::default()
                },
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(Pc(1)).load_accesses, 9);
    }
}
