//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this workspace ships
//! the tiny subset of the `rand` 0.9 API it actually uses: a seedable
//! deterministic generator ([`rngs::StdRng`], xoshiro256++ seeded via
//! splitmix64), the [`RngExt`] sampling helpers (`random`,
//! `random_range`, `random_bool`) and [`seq::SliceRandom::shuffle`].
//!
//! Determinism is the only contract: identical seeds produce identical
//! streams on every platform. The streams do **not** match crates.io
//! `rand`.

use std::ops::Range;

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Types that can be sampled uniformly from the full value range.
pub trait Standard: Sized {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Half-open ranges that can be sampled uniformly, producing `T`.
///
/// Generic over the output type (like crates.io rand) so integer
/// literals in `rng.random_range(1..64)` infer from the expected type.
pub trait SampleRange<T> {
    /// Samples one value from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let unit = f64::sample(rng);
        self.start + (self.end - self.start) * unit
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience sampling methods, available on every [`RngCore`].
pub trait RngExt: RngCore {
    /// Samples a value of `T` uniformly over its full range.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a half-open range.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Slice helpers.
pub mod seq {
    use super::RngCore;

    /// In-place random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{RngCore, RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f = rng.random_range(2.0..5.0);
            assert!((2.0..5.0).contains(&f));
            let i = rng.random_range(3usize..17);
            assert!((3..17).contains(&i));
            let n = rng.random_range(-4i32..9);
            assert!((-4..9).contains(&n));
        }
    }

    #[test]
    fn bool_probability_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity order");
    }
}
