//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, strategies for integer / float
//! ranges and tuples, [`collection::vec`], the [`proptest!`] macro with
//! an optional `#![proptest_config(...)]` header, and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Differences from real proptest: cases are sampled from a fixed
//! deterministic generator seeded by the test name, and failing inputs
//! are *not* shrunk — the failing case's assertion message is reported
//! as-is. That keeps test behaviour reproducible without a registry
//! dependency.

use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving test-case sampling (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from an arbitrary byte string (the test name).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        self.next_u64() % n
    }
}

/// How a test case ended when it did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case's assumptions were not met; it does not count.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Samples one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
    (A, B, C, D, E, F, G);
    (A, B, C, D, E, F, G, H);
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and a length range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, len_range)`: vectors of random length whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().new_value(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Defines property tests. Supports an optional
/// `#![proptest_config(...)]` header followed by `#[test]` functions
/// whose arguments use `pattern in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            let max_rejects = config.cases.saturating_mul(16).saturating_add(256);
            while accepted < config.cases {
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $pat = $crate::Strategy::new_value(&($strat), &mut rng);)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected < max_rejects,
                            "too many rejected cases ({rejected}) in {}",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("property {} failed: {}", stringify!($name), msg);
                    }
                }
            }
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {:?} != {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: {:?} == {:?}",
            left,
            right
        );
    }};
}

/// Rejects the current case (it does not count) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.5..2.0).contains(&y));
        }

        #[test]
        fn tuples_and_vec_compose(
            (a, b) in (1u32..5, 1u32..5),
            v in crate::collection::vec(0u8..4, 1..9),
        ) {
            prop_assert!(a < 5 && b < 5);
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&e| e < 4));
        }

        #[test]
        fn prop_map_applies(n in (1usize..4).prop_map(|n| n * 10)) {
            prop_assert!(n == 10 || n == 20 || n == 30);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }
    }
}
