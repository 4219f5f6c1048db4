//! Hardware performance counters.

/// The event counters exposed by the simulated performance-monitoring unit.
///
/// The paper's correlation studies (§6.2) use exactly one derived quantity:
/// the L2 miss ratio, "obtained by dividing the number of L2 miss counts by
/// the number of L2 references, for both loads and stores".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HwCounters {
    /// L1 data-cache references.
    pub l1_refs: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 references (i.e. L1 misses that looked up L2).
    pub l2_refs: u64,
    /// L2 misses (references served from memory).
    pub l2_misses: u64,
    /// Lines installed by hardware prefetchers.
    pub hw_prefetch_fills: u64,
    /// Lines installed by software `prefetch` instructions.
    pub sw_prefetch_fills: u64,
}

impl HwCounters {
    /// L1 miss ratio in `[0, 1]`.
    pub fn l1_miss_ratio(&self) -> f64 {
        ratio(self.l1_misses, self.l1_refs)
    }

    /// L2 miss ratio in `[0, 1]` — the quantity correlated in Tables 4/5.
    pub fn l2_miss_ratio(&self) -> f64 {
        ratio(self.l2_misses, self.l2_refs)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let c = HwCounters {
            l2_refs: 200,
            l2_misses: 50,
            l1_refs: 1000,
            l1_misses: 200,
            ..Default::default()
        };
        assert!((c.l2_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((c.l1_miss_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(HwCounters::default().l2_miss_ratio(), 0.0);
    }
}
