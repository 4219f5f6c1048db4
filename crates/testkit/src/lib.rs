//! # umi-testkit — deterministic randomness and a property-test harness
//!
//! The build environment has no access to the crates.io registry, so the
//! usual `rand`/`proptest` pair is replaced by this self-contained crate:
//!
//! * [`Xoshiro256pp`] — a small, fast, well-distributed PRNG
//!   (xoshiro256++, seeded through splitmix64), deterministic per seed.
//! * [`check`] / [`check_cases`] — a minimal property-testing loop: run a
//!   closure over many independently seeded generators and report the
//!   failing seed so a counterexample can be replayed exactly.
//!
//! Shrinking is intentionally out of scope; a failing case prints its seed
//! and case index, which is enough to reproduce it under a debugger.
//!
//! ```
//! use umi_testkit::{check, Xoshiro256pp};
//!
//! check("addition commutes", 64, |rng| {
//!     let (a, b) = (rng.below(1000) as u64, rng.below(1000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// xoshiro256++ by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64 so that any `u64` seed produces a good state.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// FNV-1a over `name`: decorrelates the streams of differently named
/// generators and properties.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        let mut sm = seed;
        Xoshiro256pp {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates a generator seeded from a name (FNV-1a over its bytes), so
    /// a named table or workload is reproducible bit for bit.
    pub fn from_name(name: &str) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(name_hash(name))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` (Lemire's multiply-shift rejection,
    /// unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// A uniform signed value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo.wrapping_add(self.below((hi.wrapping_sub(lo) as u64).wrapping_add(1).max(1)) as i64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// A vector of `len` values in `[0, bound)`, with `len` drawn from
    /// `[min_len, max_len]`.
    pub fn vec_below(&mut self, min_len: usize, max_len: usize, bound: u64) -> Vec<u64> {
        let len = self.range_u64(min_len as u64, max_len as u64) as usize;
        (0..len).map(|_| self.below(bound)).collect()
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Default number of cases run by [`check`].
pub const DEFAULT_CASES: usize = 256;

/// Runs `prop` over `cases` independently seeded generators, panicking
/// with the property name and failing seed on the first assertion failure.
///
/// The seed schedule is fixed (derived from the property name), so a
/// failure is reproducible by rerunning the same test.
pub fn check<F: FnMut(&mut Xoshiro256pp)>(name: &str, cases: usize, mut prop: F) {
    let base = name_hash(name);
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property '{name}' failed at case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// [`check`] with the default number of cases.
pub fn check_cases<F: FnMut(&mut Xoshiro256pp)>(name: &str, prop: F) {
    check(name, DEFAULT_CASES, prop);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = Xoshiro256pp::seed_from_u64(8);
        assert_ne!(va, (0..16).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn from_name_is_deterministic_per_name() {
        let mut a = Xoshiro256pp::from_name("181.mcf");
        let mut b = Xoshiro256pp::from_name("181.mcf");
        assert_eq!(a.vec_below(32, 32, 1000), b.vec_below(32, 32, 1000));
        let mut c = Xoshiro256pp::from_name("179.art");
        assert_ne!(a.vec_below(32, 32, 1000), c.vec_below(32, 32, 1000));
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut r = Xoshiro256pp::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn ranges_are_inclusive() {
        let mut r = Xoshiro256pp::seed_from_u64(2);
        let (mut lo_hit, mut hi_hit) = (false, false);
        for _ in 0..2000 {
            let v = r.range_u64(3, 6);
            assert!((3..=6).contains(&v));
            lo_hit |= v == 3;
            hi_hit |= v == 6;
            let s = r.range_i64(-2, 2);
            assert!((-2..=2).contains(&s));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        let p = r.permutation(100);
        let mut seen = [false; 100];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn check_reports_seed_on_failure() {
        let caught = std::panic::catch_unwind(|| {
            check("always fails", 4, |_| panic!("boom"));
        });
        let msg = *caught
            .expect_err("property must fail")
            .downcast::<String>()
            .expect("formatted message");
        assert!(msg.contains("always fails"), "{msg}");
        assert!(msg.contains("seed"), "{msg}");
    }

    #[test]
    fn check_passes_quietly() {
        check("trivial", 8, |rng| {
            assert!(rng.below(10) < 10);
        });
    }
}
