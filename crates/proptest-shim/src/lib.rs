#![warn(missing_docs)]

//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the real crate
//! cannot be vendored. This shim keeps the same *source* interface —
//! [`strategy::Strategy`] with `prop_map` / `prop_flat_map` /
//! `prop_filter_map`, range and tuple strategies, `prop::collection::vec`,
//! `prop::bool::ANY`, `prop::num::f64` float-class strategies, and the
//! `proptest!` / `prop_assert!` / `prop_assume!` / `prop_oneof!` macros —
//! but with two simplifications:
//!
//! 1. **No shrinking.** A failing case reports the generated input
//!    verbatim instead of a minimised one.
//! 2. **Deterministic seeding.** Each test derives its RNG seed from the
//!    test name, so CI failures reproduce locally without a persistence
//!    file.

use rand::rngs::StdRng;

/// RNG handed to strategies during generation.
pub type TestRng = StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::TestRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree: `new_value` draws a fresh
    /// sample directly (no shrinking).
    pub trait Strategy {
        /// Type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Build a second strategy from each generated value and sample it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Keep only values `f` maps to `Some`, resampling otherwise.
        /// `reason` is reported if the filter rejects too often.
        fn prop_filter_map<U, F>(self, reason: impl Into<String>, f: F) -> FilterMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> Option<U>,
        {
            FilterMap {
                inner: self,
                reason: reason.into(),
                f,
            }
        }

        /// Keep only values satisfying `f`, resampling otherwise.
        fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                f,
            }
        }

        /// Type-erase into a [`BoxedStrategy`].
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(move |rng: &mut TestRng| {
                self.new_value(rng)
            }))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn new_value(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// How many consecutive filter rejections before a generator gives up.
    const MAX_LOCAL_REJECTS: u32 = 65_536;

    /// See [`Strategy::prop_filter_map`].
    #[derive(Clone)]
    pub struct FilterMap<S, F> {
        inner: S,
        reason: String,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            for _ in 0..MAX_LOCAL_REJECTS {
                if let Some(v) = (self.f)(self.inner.new_value(rng)) {
                    return v;
                }
            }
            panic!(
                "prop_filter_map rejected {MAX_LOCAL_REJECTS} consecutive inputs: {}",
                self.reason
            );
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..MAX_LOCAL_REJECTS {
                let v = self.inner.new_value(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter rejected {MAX_LOCAL_REJECTS} consecutive inputs: {}",
                self.reason
            );
        }
    }

    /// A type-erased strategy (`Strategy::boxed`). Cheap to clone.
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(std::rc::Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice among several strategies of one value type
    /// (backs the `prop_oneof!` macro).
    #[derive(Clone)]
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; each is picked with equal probability.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].new_value(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
    }
}

pub mod bool {
    //! Strategies for `bool`.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Strategy yielding `true`/`false` with equal probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical `bool` strategy, `prop::bool::ANY`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }
}

pub mod num {
    //! Numeric strategies beyond plain ranges.

    pub mod f64 {
        //! Strategies over `f64` bit-pattern classes, combined with `|`.

        use crate::strategy::Strategy;
        use crate::TestRng;
        use core::ops::BitOr;
        use rand::Rng;

        /// A set of `f64` value classes to sample from uniformly
        /// (by class, then by bit pattern within the class).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct FloatTypes(u32);

        /// Normal (full-exponent-range) finite values of either sign.
        pub const NORMAL: FloatTypes = FloatTypes(1);
        /// Positive and negative zero.
        pub const ZERO: FloatTypes = FloatTypes(1 << 1);
        /// Subnormal values of either sign.
        pub const SUBNORMAL: FloatTypes = FloatTypes(1 << 2);
        /// Positive and negative infinity.
        pub const INFINITE: FloatTypes = FloatTypes(1 << 3);
        /// Quiet NaNs.
        pub const QUIET_NAN: FloatTypes = FloatTypes(1 << 4);

        impl BitOr for FloatTypes {
            type Output = FloatTypes;
            fn bitor(self, rhs: FloatTypes) -> FloatTypes {
                FloatTypes(self.0 | rhs.0)
            }
        }

        impl Strategy for FloatTypes {
            type Value = f64;
            fn new_value(&self, rng: &mut TestRng) -> f64 {
                let classes: Vec<FloatTypes> = [NORMAL, ZERO, SUBNORMAL, INFINITE, QUIET_NAN]
                    .into_iter()
                    .filter(|c| self.0 & c.0 != 0)
                    .collect();
                assert!(!classes.is_empty(), "empty FloatTypes strategy");
                let class = classes[rng.gen_range(0..classes.len())];
                let sign = (rng.gen::<bool>() as u64) << 63;
                let mantissa = rng.gen::<u64>() & ((1u64 << 52) - 1);
                let bits = match class {
                    NORMAL => {
                        // Biased exponent in [1, 2046]: every finite normal.
                        let exp = rng.gen_range(1u64..=2046);
                        sign | (exp << 52) | mantissa
                    }
                    ZERO => sign,
                    SUBNORMAL => sign | mantissa.max(1),
                    INFINITE => sign | (2047u64 << 52),
                    _ => sign | (2047u64 << 52) | (1u64 << 51) | mantissa,
                };
                f64::from_bits(bits)
            }
        }
    }
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Admissible element counts for [`vec()`]: a fixed count, `a..b`, or
    /// `a..=b`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy yielding `Vec`s of `element` samples.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Case execution: configuration, rejection/failure plumbing, and the
    //! driver loop the `proptest!` macro expands to.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::SeedableRng;

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Config {
        /// Config differing from default only in the case count.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Upstream's default; property bodies here are cheap.
            Config { cases: 256 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TestCaseError {
        /// Input did not meet an assumption; retried without counting.
        Reject(String),
        /// The property is false for this input.
        Fail(String),
    }

    impl TestCaseError {
        /// A rejection (see `prop_assume!`).
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }

        /// A failure (see `prop_assert!`).
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
    }

    /// Result type property bodies are wrapped into.
    pub type TestCaseResult = Result<(), TestCaseError>;

    fn seed_from_name(name: &str) -> u64 {
        // FNV-1a: deterministic across runs/platforms so failures reproduce.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Run `test` against `config.cases` inputs drawn from `strategy`,
    /// panicking (with the offending input) on the first failure.
    pub fn run<S, F>(config: &Config, name: &str, strategy: S, test: F)
    where
        S: Strategy,
        S::Value: std::fmt::Debug,
        F: Fn(S::Value) -> TestCaseResult,
    {
        let mut rng = TestRng::seed_from_u64(seed_from_name(name));
        let mut passed = 0u32;
        let mut rejected = 0u32;
        let max_rejects = config.cases.saturating_mul(64).max(4096);
        while passed < config.cases {
            let value = strategy.new_value(&mut rng);
            let repr = format!("{value:?}");
            match test(value) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > max_rejects {
                        panic!(
                            "{name}: gave up after {rejected} prop_assume! \
                             rejections ({passed}/{} cases passed)",
                            config.cases
                        );
                    }
                }
                Err(TestCaseError::Fail(reason)) => {
                    panic!(
                        "{name}: property failed after {passed} passing case(s)\n\
                         input: {repr}\ncause: {reason}"
                    );
                }
            }
        }
    }
}

/// Everything a property-test module needs, matching upstream's layout
/// (including the `prop` pseudo-crate alias).
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Alias matching upstream's `prelude::prop` module.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::num;
        pub use crate::strategy;
    }
}

/// Fail the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current test case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Fail the current test case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
}

/// Reject the current input (retried without counting) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Define `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the same two forms as upstream: with a leading
/// `#![proptest_config(...)]` and without.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                $crate::test_runner::run(
                    &config,
                    stringify!($name),
                    ($($strategy,)+),
                    |($($pat,)+)| -> $crate::test_runner::TestCaseResult {
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strategy),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u32> {
        (0u32..100).prop_map(|n| n * 2)
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(n in 5u32..10, m in 3u64..=4, x in -1.5f64..2.5) {
            prop_assert!((5..10).contains(&n));
            prop_assert!(m == 3 || m == 4);
            prop_assert!((-1.5..2.5).contains(&x));
        }

        #[test]
        fn map_and_filter_compose(n in small_even().prop_filter("nonzero", |&n| n != 0)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 1);
        }

        #[test]
        fn flat_map_threads_dependencies(
            (len, v) in (1usize..5).prop_flat_map(|len| {
                prop::collection::vec(0u8..=255, len).prop_map(move |v| (len, v))
            })
        ) {
            prop_assert_eq!(v.len(), len);
        }

        #[test]
        fn oneof_and_bool(x in prop_oneof![Just(1u8), Just(2u8)], b in prop::bool::ANY) {
            prop_assert!(x == 1 || x == 2);
            if b {
                prop_assert!(b);
            } else {
                prop_assert!(!b);
            }
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..10) {
            prop_assume!(n < 5);
            prop_assert!(n < 5);
        }

        #[test]
        fn float_classes_generate_the_right_kinds(x in
            prop::num::f64::NORMAL | prop::num::f64::ZERO | prop::num::f64::SUBNORMAL)
        {
            prop_assert!(x.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic_with_input() {
        crate::test_runner::run(
            &ProptestConfig::with_cases(8),
            "demo",
            (0u32..10,),
            |(n,)| -> TestCaseResult {
                prop_assert!(n > 100, "n = {n} is not > 100");
                Ok(())
            },
        );
    }

    #[test]
    fn deterministic_given_name() {
        use crate::strategy::Strategy;
        use rand::SeedableRng;
        let s = (0u64..u64::MAX,);
        let mut r1 = crate::TestRng::seed_from_u64(42);
        let mut r2 = crate::TestRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(s.new_value(&mut r1), s.new_value(&mut r2));
        }
    }
}
