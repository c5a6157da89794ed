//! Deterministic random-number streams.
//!
//! Every simulated component forks its own stream keyed by a stable
//! identifier, so adding or removing a component never shifts the random
//! sequence observed by the others (a classic source of accidental
//! non-reproducibility in simulators).
//!
//! The generator is a self-contained xoshiro256++ (the same family the
//! `rand` crate's `SmallRng` uses) seeded through SplitMix64, so the
//! simulator has no external RNG dependency and the exact sequences are
//! pinned by this file alone.

use std::ops::{Range, RangeInclusive};

/// A deterministic RNG stream (xoshiro256++ under the hood). A clone
/// continues the sequence from the same position, independently.
#[derive(Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Derive a stream from `(master_seed, stream_id)` via SplitMix64
    /// mixing, so nearby ids yield statistically independent streams.
    pub fn from_seed_stream(seed: u64, stream: u64) -> Self {
        let mixed = splitmix64(splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15) ^ stream);
        // Expand the 64-bit seed into xoshiro state with SplitMix64, as
        // the xoshiro authors recommend; the state is never all-zero.
        let mut x = mixed;
        let mut s = [0u64; 4];
        for w in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(x);
        }
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform value in a range (half-open or inclusive).
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Uniform f64 in [0, 1).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponentially distributed value with the given mean (inverse-CDF).
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// Uniform value in `[0, bound)` without modulo bias (Lemire).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let (hi, lo) = mul_wide(x, bound);
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }
}

fn mul_wide(a: u64, b: u64) -> (u64, u64) {
    let p = (a as u128) * (b as u128);
    ((p >> 64) as u64, p as u64)
}

/// Ranges that [`SimRng::gen_range`] can sample from (stand-in for
/// `rand`'s `SampleRange`, keeping call sites source-compatible).
pub trait SampleRange<T> {
    /// Draw a uniform value from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )+};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_same_sequence() {
        let mut a = SimRng::from_seed_stream(1, 2);
        let mut b = SimRng::from_seed_stream(1, 2);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = SimRng::from_seed_stream(1, 2);
        let mut b = SimRng::from_seed_stream(1, 3);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3, "streams should be effectively independent");
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut rng = SimRng::from_seed_stream(42, 0);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.gen_exp(5.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean} too far from 5.0");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::from_seed_stream(7, 7);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should virtually never stay sorted");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::from_seed_stream(3, 3);
        for _ in 0..1000 {
            let a: u64 = rng.gen_range(5..17);
            assert!((5..17).contains(&a));
            let b: i32 = rng.gen_range(-4..=4);
            assert!((-4..=4).contains(&b));
            let c: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&c));
            let d: usize = rng.gen_range(9..=9);
            assert_eq!(d, 9);
        }
    }
}
