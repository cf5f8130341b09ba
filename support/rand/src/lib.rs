//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this crate re-implements exactly the subset of the `rand` 0.9 API the
//! workspace uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], the
//! [`Rng`] extension trait (`random`, `random_range`) and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator is a SplitMix64 stream: 64 bits of state advanced by a
//! fixed odd constant and finalized with a strong avalanche mixer. It is
//! statistically solid for simulation workloads (it passes BigCrush as the
//! seeding generator of xoshiro) and — the property the workspace actually
//! relies on — fully deterministic per seed. Streams produced by different
//! seeds are decorrelated by the same mixer.
//!
//! Not implemented (not needed here): thread-local RNGs, fill/bytes APIs,
//! the distribution module, weighted sampling.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Golden-ratio increment of the SplitMix64 stream.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of raw 64-bit random words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of an RNG from seed material.
pub trait SeedableRng: Sized {
    /// Builds the RNG from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from raw random bits (the `StandardUniform`
/// distribution of real `rand`).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for u16 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl StandardSample for u8 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardSample for usize {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for i64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl StandardSample for i32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as i32
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform on `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics on empty ranges.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` on `[0, bound)` via Lemire's multiply-shift with a
/// rejection pass, so every value is exactly equally likely.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // threshold = 2^64 mod bound: reject the low-product region that would
    // otherwise make small residues one part in 2^64 more likely.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, width) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let width = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if width == 0 {
                    // Full-width u64 range.
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, width) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u: f64 = StandardSample::sample(rng);
        // The affine map can round up to exactly `end` for near-adjacent
        // bounds; clamp to preserve the exclusive upper bound.
        (self.start + u * (self.end - self.start)).min(self.end.next_down())
    }
}

/// The user-facing extension trait: `random`, `random_range`.
pub trait Rng: RngCore {
    /// Draws a uniformly random value of `T`.
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.random()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.random()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.random_range(0usize..10)] = true;
            let v = rng.random_range(3u32..=5);
            assert!((3..=5).contains(&v));
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn range_distribution_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.random_range(0usize..7)] += 1;
        }
        for &c in &counts {
            let expected = n / 7;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn f64_range_stays_inside() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.random_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }
}
