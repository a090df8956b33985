#![forbid(unsafe_code)]
//! Offline, API-compatible stand-in for the `proptest` property-testing
//! framework.
//!
//! The build environment has no crate registry, so the workspace vendors
//! this minimal subset: the [`proptest!`] macro (with optional
//! `#![proptest_config(...)]`), integer-range / tuple / `any::<T>()`
//! strategies, `collection::{vec, btree_set}`, and the `prop_assert*`
//! macros. Values are generated from a deterministic per-test RNG; there is
//! no shrinking — a failing case panics with the ordinary assert message.

/// Strategy abstraction: anything that can produce values from an RNG.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A value generator. The stub has no shrinking, so a strategy is just
    /// a seeded sampler.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128) - (self.start as i128);
                    (self.start as i128 + (rng.below(span as u128) as i128)) as $t
                }
            }
            impl Strategy for ::core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as i128) - (lo as i128) + 1;
                    (lo as i128 + (rng.below(span as u128) as i128)) as $t
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for ::core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    /// Strategy yielding a fixed value, mirroring `proptest::strategy::Just`.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw a value from the type's full domain.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`crate::prelude::any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T> Any<T> {
        /// Construct the full-domain strategy for `T`.
        pub fn new() -> Self {
            Self(core::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }
}

/// Collection strategies (`proptest::collection::{vec, btree_set}`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Length specification accepted by collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl SizeRange {
        fn draw(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u128) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.draw(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with a target size drawn from
    /// `size` (best effort when the element domain is too small).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.draw(rng);
            let mut out = BTreeSet::new();
            // Collisions are possible; bound the attempts so tiny element
            // domains cannot loop forever.
            let mut attempts = 0usize;
            while out.len() < target && attempts < 64 * (target + 1) {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Test-runner configuration and deterministic RNG.
pub mod test_runner {
    /// Subset of proptest's `Config` honoured by the stub.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl Config {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic per-test RNG (SplitMix64 core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded from a test identifier and case index, so every run of a
        /// property test sees the same value sequence.
        pub fn deterministic(test_hash: u64, case: u64) -> Self {
            Self {
                state: test_hash ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be positive.
        pub fn below(&mut self, n: u128) -> u128 {
            assert!(n > 0, "below(0)");
            // 128-bit modulo is fine here: test-data generation does not
            // need the unbiased fast path.
            ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % n
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// FNV-1a over a test name — a stable per-test seed. Internal to the
/// [`proptest!`] expansion.
#[doc(hidden)]
pub fn __fnv(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{Any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Full-domain strategy for `T`, mirroring `proptest::prelude::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

/// Assert inside a property; the stub maps it to a plain `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip a case whose inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// Define property tests: each `pat in strategy` argument is drawn fresh
/// for every case. Supports the leading `#![proptest_config(...)]` attribute.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { cfg = ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); ) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            for __case in 0..__config.cases as u64 {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    $crate::__fnv(concat!(module_path!(), "::", stringify!($name))),
                    __case,
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                // The body runs inline once per case, so `prop_assume!`'s
                // `continue` skips to the next case; prop_assert* panic on
                // failure (no shrinking).
                $body
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}
