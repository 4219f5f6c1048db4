//! [`StridePrefetcher`] against a plain struct-array reference.
//!
//! The prefetcher keeps its stream pcs in a dense array and its recency
//! as a linked list. This property pins it to the textbook formulation:
//! one struct per stream, a linear `position` lookup, and a victim chosen
//! by `min_by_key` over last-touch timestamps (free slots keyed 0, first
//! minimum wins). The proposed lines must agree, in order, on every
//! observation.
//!
//! The streams loop over 4, 8, 9 and 24 memory pcs: below, at and above
//! the Pentium 4's 8-stream capacity. Below it every pc keeps its stream
//! and trains; above it nearly every observation allocates and evicts.
//! Misses and hits are mixed, so training without issue is covered too.

use umi_hw::{PrefetchEngine, StridePrefetcher};
use umi_ir::Pc;
use umi_testkit::{check, Xoshiro256pp};

#[derive(Clone, Copy, Default)]
struct RefStream {
    valid: bool,
    pc: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
    lru: u64,
}

struct RefStride {
    streams: Vec<RefStream>,
    line_size: u64,
    distance: u64,
    clock: u64,
}

impl RefStride {
    fn new(streams: usize, line_size: u64, distance: u64) -> RefStride {
        RefStride {
            streams: vec![RefStream::default(); streams],
            line_size,
            distance,
            clock: 0,
        }
    }

    fn observe(&mut self, pc: u64, line: u64, l2_miss: bool) -> Vec<u64> {
        self.clock += 1;
        let mut out = Vec::new();
        let Some(i) = self.streams.iter().position(|s| s.valid && s.pc == pc) else {
            let victim = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| if s.valid { s.lru } else { 0 })
                .map(|(i, _)| i)
                .expect("at least one stream");
            self.streams[victim] = RefStream {
                valid: true,
                pc,
                last_line: line,
                stride: 0,
                confidence: 0,
                lru: self.clock,
            };
            return out;
        };
        let s = &mut self.streams[i];
        s.lru = self.clock;
        let delta = line as i64 - s.last_line as i64;
        s.last_line = line;
        if delta == 0 {
            return out;
        }
        if delta == s.stride {
            s.confidence = s.confidence.saturating_add(1);
        } else {
            s.stride = delta;
            s.confidence = 1;
        }
        if l2_miss && s.confidence >= 2 {
            for k in 1..=self.distance {
                let target = line as i64 + s.stride * k as i64;
                if target >= 0 {
                    out.push(target as u64 & !(self.line_size - 1));
                }
            }
        }
        out
    }
}

/// One loop iteration after another over `pcs` memory instructions, each
/// walking its own array: mostly a fixed stride (some negative, some
/// zero — repeated same-line touches), sometimes a jump that breaks the
/// pattern, and now and then a pc from outside the loop. Each
/// observation is a miss with probability one half.
fn loop_stream(rng: &mut Xoshiro256pp, pcs: u64, observations: usize) -> Vec<(u64, u64, bool)> {
    let line: u64 = 64;
    let mut cursors: Vec<u64> = (0..pcs).map(|p| 0x100_0000 * (p + 1)).collect();
    let strides: Vec<i64> = (0..pcs)
        .map(|_| rng.range_i64(-3, 4) * line as i64)
        .collect();
    let mut out = Vec::with_capacity(observations);
    'outer: loop {
        for p in 0..pcs as usize {
            if out.len() >= observations {
                break 'outer;
            }
            let step = if rng.below(16) == 0 {
                rng.range_i64(-64, 65) * line as i64
            } else {
                strides[p]
            };
            cursors[p] = cursors[p].wrapping_add_signed(step);
            out.push((0x40_0000 + 4 * p as u64, cursors[p], rng.below(2) == 0));
            if rng.below(32) == 0 {
                out.push((0x50_0000 + rng.below(64), rng.below(1 << 20) * line, true));
            }
        }
    }
    out.truncate(observations);
    out
}

fn matches_reference(pcs: u64) {
    check(
        &format!("stride table matches reference ({pcs} pcs)"),
        48,
        |rng| {
            // The Pentium 4's table half the time, other shapes otherwise.
            let (streams, distance) = if rng.below(2) == 0 {
                (8, 2)
            } else {
                (1 + rng.below(12) as usize, 1 + rng.below(3))
            };
            let mut table = StridePrefetcher::new(streams, 64, distance);
            let mut reference = RefStride::new(streams, 64, distance);
            for (step, (pc, line, miss)) in loop_stream(rng, pcs, 2000).into_iter().enumerate() {
                let got = table.observe(Pc(pc), line, miss);
                let want = reference.observe(pc, line, miss);
                assert_eq!(
                    got, want,
                    "step {step}: pc {pc:#x} line {line:#x} miss {miss}, {streams} streams"
                );
            }
        },
    );
}

#[test]
fn four_pcs_train_in_place() {
    matches_reference(4);
}

#[test]
fn eight_pcs_fill_the_table() {
    matches_reference(8);
}

#[test]
fn nine_pcs_thrash_the_table() {
    matches_reference(9);
}

#[test]
fn twenty_four_pcs_thrash_the_table() {
    matches_reference(24);
}
