//! Hardware L2 prefetchers (Pentium 4 style, paper §8).
//!
//! "It implements two prefetching algorithms for its L2 cache. They are
//! *adjacent cache line* prefetching and *stride* prefetching. The latter
//! can track up to 8 independent prefetch streams."

use umi_ir::Pc;

/// A hardware prefetch engine: observes demand references (at line
/// granularity) and proposes line addresses to install into L2.
pub trait PrefetchEngine {
    /// Observes one demand reference and hands each line address to
    /// prefetch to `issue`, in order.
    ///
    /// `line_addr` is the line-aligned address, `l2_miss` whether the
    /// reference missed L2. This runs once per demand reference, so the
    /// proposals go straight to the caller (the machine installs each as
    /// it is issued) instead of through a buffer.
    fn observe_with(&mut self, pc: Pc, line_addr: u64, l2_miss: bool, issue: impl FnMut(u64));

    /// Convenience wrapper over [`observe_with`](Self::observe_with) that
    /// collects the proposals: tests and one-shot callers.
    fn observe(&mut self, pc: Pc, line_addr: u64, l2_miss: bool) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_with(pc, line_addr, l2_miss, |line| out.push(line));
        out
    }
}

/// Adjacent-cache-line prefetching: on an L2 demand miss, also fetch the
/// other half of the aligned 128-byte pair (the line's "buddy").
#[derive(Clone, Debug)]
pub struct AdjacentLinePrefetcher {
    line_size: u64,
}

impl AdjacentLinePrefetcher {
    /// Creates the prefetcher for the given line size.
    pub fn new(line_size: u64) -> AdjacentLinePrefetcher {
        AdjacentLinePrefetcher { line_size }
    }
}

impl PrefetchEngine for AdjacentLinePrefetcher {
    #[inline(always)]
    fn observe_with(&mut self, _pc: Pc, line_addr: u64, l2_miss: bool, mut issue: impl FnMut(u64)) {
        if l2_miss {
            issue(line_addr ^ self.line_size);
        }
    }
}

/// Most streams a [`StridePrefetcher`] can track.
const MAX_STREAMS: usize = 64;

/// Index of the recency list's sentinel in [`StridePrefetcher`]'s
/// `newer`/`older` links.
const HEAD: usize = MAX_STREAMS;

/// One tracked stream's training state.
#[derive(Clone, Copy, Debug, Default)]
struct Stream {
    /// Last observed line address.
    last_line: u64,
    /// Armed stride (line-address delta).
    stride: i64,
    /// Consecutive equal-stride observations.
    confidence: u8,
}

/// IP-indexed stride prefetching with a fixed number of streams (8 on the
/// Pentium 4). Two consecutive equal line-strides arm a stream; armed
/// streams prefetch `distance` strides ahead. A pc without a stream
/// takes a free slot, else the least-recently-observed stream's.
///
/// Storage is fixed-size: the owning pcs in one dense array (the lookup
/// scans it), the training state beside it, and recency as a circular
/// doubly linked list threaded through `newer`/`older` with a sentinel,
/// so touching a stream and choosing the victim are O(1) and
/// branch-free. When a loop cycles through more memory pcs than there
/// are streams, nearly every observation allocates and evicts; the list
/// makes that path as cheap as a hit.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    /// Owning pc per slot; slots `0..len` are live.
    pcs: [u64; MAX_STREAMS],
    streams: [Stream; MAX_STREAMS],
    /// Recency links, slot to the next more recently observed slot;
    /// `newer[HEAD]` is the least recently observed.
    newer: [u8; MAX_STREAMS + 1],
    /// Slot to the next less recently observed slot; `older[HEAD]` is the
    /// most recently observed.
    older: [u8; MAX_STREAMS + 1],
    /// Live slots (streams are never freed, so they are a prefix).
    len: usize,
    /// Configured stream count.
    capacity: usize,
    line_size: u64,
    distance: u64,
}

impl StridePrefetcher {
    /// Pentium 4 configuration: 8 streams, prefetch 2 strides ahead.
    pub fn pentium4(line_size: u64) -> StridePrefetcher {
        StridePrefetcher::new(8, line_size, 2)
    }

    /// Creates a prefetcher with `streams` tracking slots and the given
    /// prefetch `distance` (in strides).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ..= 64` streams are requested.
    pub fn new(streams: usize, line_size: u64, distance: u64) -> StridePrefetcher {
        assert!(
            (1..=MAX_STREAMS).contains(&streams),
            "stream count {streams} outside 1..={MAX_STREAMS}"
        );
        StridePrefetcher {
            pcs: [0; MAX_STREAMS],
            streams: [Stream::default(); MAX_STREAMS],
            newer: [HEAD as u8; MAX_STREAMS + 1],
            older: [HEAD as u8; MAX_STREAMS + 1],
            len: 0,
            capacity: streams,
            line_size,
            distance,
        }
    }

    /// Makes `slot` the most recently observed stream. `slot` must not be
    /// on the list (fresh, or just unlinked).
    #[inline(always)]
    fn push_newest(&mut self, slot: usize) {
        let prev = self.older[HEAD];
        self.older[slot] = prev;
        self.newer[slot] = HEAD as u8;
        self.newer[prev as usize] = slot as u8;
        self.older[HEAD] = slot as u8;
    }

    /// Takes `slot` off the recency list.
    #[inline(always)]
    fn unlink(&mut self, slot: usize) {
        let (newer, older) = (self.newer[slot], self.older[slot]);
        self.older[newer as usize] = older;
        self.newer[older as usize] = newer;
    }
}

impl PrefetchEngine for StridePrefetcher {
    #[inline(always)]
    fn observe_with(&mut self, pc: Pc, line_addr: u64, l2_miss: bool, mut issue: impl FnMut(u64)) {
        let Some(i) = self.pcs[..self.len].iter().position(|&p| p == pc.0) else {
            // Allocate: a free slot while there is one, else the least
            // recently observed stream's.
            let slot = if self.len < self.capacity {
                self.len += 1;
                self.len - 1
            } else {
                let lru = self.newer[HEAD] as usize;
                self.unlink(lru);
                lru
            };
            self.push_newest(slot);
            self.pcs[slot] = pc.0;
            self.streams[slot] = Stream {
                last_line: line_addr,
                ..Stream::default()
            };
            return;
        };
        self.unlink(i);
        self.push_newest(i);
        let s = &mut self.streams[i];
        let delta = line_addr as i64 - s.last_line as i64;
        s.last_line = line_addr;
        if delta == 0 {
            return; // same line; no new information
        }
        if delta == s.stride {
            s.confidence = s.confidence.saturating_add(1);
        } else {
            s.stride = delta;
            s.confidence = 1;
        }
        // Prefetches issue only on demand misses: real prefetchers are
        // trained continuously but throttle issue, which is what keeps
        // them from eliminating every streaming miss.
        if l2_miss && s.confidence >= 2 {
            for k in 1..=self.distance {
                let target = line_addr as i64 + s.stride * k as i64;
                if target >= 0 {
                    issue(target as u64 & !(self.line_size - 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_line_fetches_buddy_on_miss_only() {
        let mut p = AdjacentLinePrefetcher::new(64);
        assert_eq!(p.observe(Pc(1), 0x1000, true), vec![0x1040]);
        assert_eq!(p.observe(Pc(1), 0x1040, true), vec![0x1000]);
        assert!(p.observe(Pc(1), 0x1000, false).is_empty());
    }

    #[test]
    fn stride_arms_after_two_equal_deltas() {
        let mut p = StridePrefetcher::new(8, 64, 2);
        assert!(p.observe(Pc(1), 0x0, true).is_empty()); // allocate
        assert!(p.observe(Pc(1), 0x40, true).is_empty()); // first delta
        let out = p.observe(Pc(1), 0x80, true); // second equal delta: armed
        assert_eq!(out, vec![0xc0, 0x100]);
    }

    #[test]
    fn stride_issues_only_on_misses() {
        let mut p = StridePrefetcher::new(8, 64, 2);
        p.observe(Pc(1), 0x0, true);
        p.observe(Pc(1), 0x40, true);
        // Armed, but this access hits: training continues, no issue.
        assert!(p.observe(Pc(1), 0x80, false).is_empty());
        // The next miss issues.
        assert_eq!(p.observe(Pc(1), 0xc0, true), vec![0x100, 0x140]);
    }

    #[test]
    fn stride_rearms_on_pattern_change() {
        let mut p = StridePrefetcher::new(8, 64, 1);
        p.observe(Pc(1), 0x0, true);
        p.observe(Pc(1), 0x40, true);
        assert!(!p.observe(Pc(1), 0x80, true).is_empty());
        // Break the pattern: stride changes, confidence resets.
        assert!(p.observe(Pc(1), 0x400, true).is_empty());
        assert!(p.observe(Pc(1), 0x440, true).is_empty());
        assert_eq!(p.observe(Pc(1), 0x480, true), vec![0x4c0]);
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        // With 2 streams, a third PC evicts the least recently used.
        let mut p = StridePrefetcher::new(2, 64, 1);
        for step in 0..3u64 {
            p.observe(Pc(1), 0x1000 + step * 64, true);
            p.observe(Pc(2), 0x8000 + step * 64, true);
        }
        assert!(!p.observe(Pc(1), 0x1000 + 3 * 64, true).is_empty());
        // PC 3 evicts PC 2 (least recently used is deterministic here).
        p.observe(Pc(3), 0x20000, true);
        // PC 1 is still tracked and armed.
        assert!(!p.observe(Pc(1), 0x1000 + 4 * 64, true).is_empty());
    }

    #[test]
    fn negative_strides_prefetch_downward() {
        let mut p = StridePrefetcher::new(8, 64, 1);
        p.observe(Pc(1), 0x1000, true);
        p.observe(Pc(1), 0xfc0, true);
        assert_eq!(p.observe(Pc(1), 0xf80, true), vec![0xf40]);
    }
}
