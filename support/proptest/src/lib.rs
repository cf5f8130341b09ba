//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the proptest API the workspace's property tests use:
//!
//! - the [`Strategy`] trait with `prop_map`, `prop_flat_map`, `boxed`;
//! - strategies for integer / float ranges, [`Just`], tuples, `Vec<S>`,
//!   [`any`], `prop::collection::vec`, and [`prop_oneof!`] unions;
//! - the [`proptest!`] macro with optional `#![proptest_config(..)]`,
//!   plus `prop_assert!`, `prop_assert_eq!` and `prop_assume!`.
//!
//! Differences from real proptest: cases are generated from a seed derived
//! from the test's module path (deterministic run-to-run — convenient in
//! CI), and failing cases are **not shrunk**. The failing case's generated
//! inputs are reported with `Debug`: in the panic message for
//! `prop_assert*` failures, on stderr for plain panics inside the body
//! (so generated values must implement `Debug`, as in real proptest).

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

use rand::{Rng, RngCore, SeedableRng};
use std::ops::{Range, RangeInclusive};

pub mod prop;

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; keep that so coverage matches.
        ProptestConfig { cases: 256 }
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried.
    Reject(String),
    /// `prop_assert!`-style failure.
    Fail(String),
}

/// Result alias for generated test-case closures.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic generator driving the strategies. Delegates to the
/// workspace's `rand` stub (one SplitMix64 / Lemire implementation to
/// maintain) — mirroring real proptest, which is also built on `rand`.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: rand::rngs::StdRng,
}

impl TestRng {
    /// Seeds the RNG for a named test: the name is hashed (FNV-1a) so every
    /// test explores a different but reproducible stream.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            inner: rand::rngs::StdRng::seed_from_u64(h),
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `u64` on `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.inner.random_range(0..bound)
    }

    /// Uniform `f64` on `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.random()
    }
}

/// A value generator. Unlike real proptest there is no shrinking tree: a
/// strategy simply produces values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (the [`prop_oneof!`] backend).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(width) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if width == 0 {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(width) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(rng.below(width) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = (hi as i64).wrapping_sub(lo as i64) as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(width + 1) as $t)
            }
        }
    )*};
}

signed_range_strategy!(i32 => u32, i64 => u64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        // The affine map can round up to exactly `end` for near-adjacent
        // bounds; clamp to preserve the exclusive upper bound.
        (self.start + rng.unit_f64() * (self.end - self.start)).min(self.end.next_down())
    }
}

impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type of [`any`].
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for primitives.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! any_primitive {
    ($($t:ty => |$rng:ident| $e:expr),* $(,)?) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn generate(&self, $rng: &mut TestRng) -> $t { $e }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy { AnyPrimitive(std::marker::PhantomData) }
        }
    )*};
}

any_primitive! {
    u8 => |rng| (rng.next_u64() >> 56) as u8,
    u16 => |rng| (rng.next_u64() >> 48) as u16,
    u32 => |rng| (rng.next_u64() >> 32) as u32,
    u64 => |rng| rng.next_u64(),
    usize => |rng| rng.next_u64() as usize,
    i32 => |rng| (rng.next_u64() >> 32) as i32,
    i64 => |rng| rng.next_u64() as i64,
    bool => |rng| rng.next_u64() >> 63 == 1,
    // Finite f64 spread over a wide but non-degenerate magnitude range.
    f64 => |rng| {
        let mag = rng.unit_f64() * 2e9 - 1e9;
        if rng.next_u64() & 1 == 0 { mag } else { mag / 1e6 }
    },
}

/// The canonical strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = ($a, $b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = ($a, $b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = ($a, $b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Rejects the current inputs; the case is retried with fresh ones.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Declares property tests: each `fn name(pattern in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            let mut passed: u32 = 0;
            let mut rejected: u32 = 0;
            while passed < config.cases {
                // Generate all inputs first and render them before the
                // body can move them, so failures (and panics) can report
                // the exact generated case.
                let __vals = ($($crate::Strategy::generate(&($strat), &mut rng),)+);
                let __inputs = format!(
                    concat!("(", $(stringify!($arg), ", ",)+ ") = {:?}"),
                    &__vals
                );
                let ($($arg,)+) = __vals;
                #[allow(clippy::redundant_closure_call)]
                let case = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> $crate::TestCaseResult { $body ::std::result::Result::Ok(()) },
                ));
                match case {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => passed += 1,
                    ::std::result::Result::Ok(::std::result::Result::Err(
                        $crate::TestCaseError::Reject(_),
                    )) => {
                        rejected += 1;
                        assert!(
                            rejected < 1024 + 16 * config.cases,
                            "prop_assume! rejected too many cases ({rejected})"
                        );
                    }
                    ::std::result::Result::Ok(::std::result::Result::Err(
                        $crate::TestCaseError::Fail(msg),
                    )) => {
                        panic!(
                            "proptest case {} of {} failed: {}\n  inputs: {}",
                            passed + 1,
                            config.cases,
                            msg,
                            __inputs
                        );
                    }
                    ::std::result::Result::Err(payload) => {
                        eprintln!(
                            "proptest case {} of {} panicked; inputs: {}",
                            passed + 1,
                            config.cases,
                            __inputs
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -5i32..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0u8..4, 2..=5)) {
            prop_assert!((2..=5).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn flat_map_threads_values(pair in (1usize..6).prop_flat_map(|n| (Just(n), 0usize..n))) {
            let (n, k) = pair;
            prop_assert!(k < n);
        }

        #[test]
        fn oneof_hits_every_arm(v in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1..=3).contains(&v));
        }

        #[test]
        fn assume_retries(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]
        #[test]
        fn config_is_honored(_x in 0u8..=255) {
            // Body intentionally trivial; the loop count is the test.
        }
    }

    #[test]
    fn failing_case_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            // No #[test] attribute: expanded as a plain fn we call directly.
            proptest! {
                fn inner(x in 10usize..20) {
                    prop_assert!(x < 5, "x was {x}");
                }
            }
            inner();
        });
        assert!(result.is_err());
    }
}
