//! Property test: the production single-pass set scan (with its MRU fast
//! path) is observationally identical to a plain reference model that
//! does what the original implementation did — one pass to find the tag,
//! a second pass to pick the victim (first invalid way, else the way with
//! the minimal time; FIFO keeps insertion time, LRU refreshes on hit).

use umi_cache::{AccessOutcome, CacheConfig, ReplacementPolicy, SetAssocCache};
use umi_testkit::{check, Xoshiro256pp};

/// The original two-pass scan, reduced to its essentials.
struct RefCache {
    sets: usize,
    ways: usize,
    line_size: u64,
    policy: ReplacementPolicy,
    /// `(tag, time, valid)` per line, sets back to back.
    lines: Vec<(u64, u64, bool)>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize, line_size: u64, policy: ReplacementPolicy) -> RefCache {
        RefCache {
            sets,
            ways,
            line_size,
            policy,
            lines: vec![(0, 0, false); sets * ways],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        self.accesses += 1;
        let block = addr / self.line_size;
        let set = (block as usize) % self.sets;
        let tag = block / self.sets as u64;
        let base = set * self.ways;
        let ways = &mut self.lines[base..base + self.ways];

        // Pass 1: hit?
        if let Some(line) = ways.iter_mut().find(|(t, _, v)| *v && *t == tag) {
            if self.policy == ReplacementPolicy::Lru {
                line.1 = self.clock;
            }
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;

        // Pass 2: victim = first invalid way, else minimal-time way
        // (`min_by_key` keeps the first minimum, like the original).
        let victim = match ways.iter().position(|(_, _, v)| !*v) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, time, _))| *time)
                .map(|(i, _)| i)
                .expect("ways is non-empty"),
        };
        let (old_tag, _, old_valid) = ways[victim];
        ways[victim] = (tag, self.clock, true);
        let evicted = old_valid.then(|| (old_tag * self.sets as u64 + set as u64) * self.line_size);
        AccessOutcome {
            hit: false,
            evicted,
        }
    }
}

fn random_stream_matches(policy: ReplacementPolicy) {
    check(
        &format!("single-pass scan matches two-pass ({policy:?})"),
        64,
        |rng| {
            let sets = 1usize << rng.below(4); // 1..8 sets
            let ways = 1usize << rng.below(3); // 1..4 ways
            let line = 64u64;
            let mut prod = SetAssocCache::new(CacheConfig::new(sets, ways, 64).policy(policy));
            let mut refc = RefCache::new(sets, ways, line, policy);
            // A small address universe forces conflicts, repeats (MRU fast
            // path), and full sets; the occasional same-line offset exercises
            // block vs addr handling.
            for step in 0..2000u32 {
                let addr = rng.below(16 * sets as u64) * line + rng.below(line);
                let got = if rng.below(8) == 0 {
                    prod.access_write(addr) // dirty bookkeeping must not affect placement
                } else {
                    prod.access(addr)
                };
                let want = refc.access(addr);
                assert_eq!(
                    got, want,
                    "divergence at step {step}, addr {addr:#x}, {sets} sets x {ways} ways"
                );
            }
            assert_eq!(prod.stats().accesses, refc.accesses);
            assert_eq!(prod.stats().misses, refc.misses);
        },
    );
}

#[test]
fn lru_victim_choice_is_preserved() {
    random_stream_matches(ReplacementPolicy::Lru);
}

#[test]
fn fifo_victim_choice_is_preserved() {
    random_stream_matches(ReplacementPolicy::Fifo);
}

/// The MRU line index must stay coherent when that line is evicted
/// through an aliasing line: hammer two conflicting lines plus repeats.
#[test]
fn mru_slot_survives_eviction_aliasing() {
    check(
        "MRU index survives aliasing evictions",
        64,
        |rng: &mut Xoshiro256pp| {
            let mut prod =
                SetAssocCache::new(CacheConfig::new(1, 1, 64).policy(ReplacementPolicy::Lru));
            let mut refc = RefCache::new(1, 1, 64, ReplacementPolicy::Lru);
            for _ in 0..500 {
                // Two tags aliasing into the single line + in-line repeats.
                let addr = rng.below(2) * 64 + rng.below(64);
                assert_eq!(prod.access(addr), refc.access(addr));
            }
        },
    );
}
