//! Offline, API-compatible subset of the `proptest` crate.
//!
//! The build container has no network access to crates.io, so this shim
//! provides the slice of proptest's surface the workspace tests use:
//! the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`,
//! `prop_oneof!`, the [`strategy::Strategy`] trait with `prop_map`,
//! `Just`, `any::<T>()`, integer/float range strategies and
//! `prop::collection::vec`.
//!
//! Semantics deliberately kept from the real crate:
//! * each `#[test]` inside `proptest!` runs `ProptestConfig::cases`
//!   random cases drawn from the argument strategies;
//! * case generation is deterministic (fixed base seed perturbed per
//!   case), so failures are reproducible;
//! * `prop_assert*` failures report the failing case's seed and inputs.
//!
//! Not implemented: shrinking, persistence files, `prop_compose!`,
//! recursive strategies. Swap this crate for the real `proptest` in the
//! workspace `Cargo.toml` once the build environment has registry
//! access.

pub mod test_runner {
    /// Configuration for a `proptest!` block (subset of the real
    /// `proptest::test_runner::Config`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
        /// Accepted for source compatibility; shrinking is not
        /// implemented so this is unused.
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }

    /// Error returned from inside a generated test body by
    /// `prop_assert!` and friends.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic splitmix64 generator driving all strategies.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Multiply-shift bounded sampling; bias is negligible for
            // test-case generation.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Run `cases` deterministic cases of `body`, panicking with the
    /// case seed on the first failure.
    pub fn run<F>(config: &Config, name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        // Fixed base seed: reproducible across runs and machines.
        const BASE_SEED: u64 = 0xEA61_E7EE_0000_0000;
        for case in 0..config.cases as u64 {
            let seed = BASE_SEED ^ (case.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let mut rng = TestRng::new(seed);
            if let Err(e) = body(&mut rng) {
                panic!(
                    "proptest case failed: {name} (case {case}, seed {seed:#x})\n{e}",
                );
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// Subset of proptest's `Strategy`: a way to draw a random value.
    /// No shrinking: `sample` replaces the value-tree machinery.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.sample(rng)))
        }
    }

    /// Type-erased strategy (proptest's `BoxedStrategy` analogue).
    #[derive(Clone)]
    pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    assert!(span > 0, "empty range strategy");
                    (self.start as u64).wrapping_add(rng.below(span)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i64).wrapping_sub(self.start as i64).cast_unsigned();
                    assert!(span > 0, "empty range strategy");
                    ((self.start as i64).wrapping_add(rng.below(span) as i64)) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            self.start + rng.unit_f64() as f32 * (self.end - self.start)
        }
    }

    /// Weighted union over same-valued strategies (backs `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total = options.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { options, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.options {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights exhausted")
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, roughly symmetric around zero — good enough for
            // test-case generation without NaN/inf surprises.
            (rng.unit_f64() - 0.5) * 2e12
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors proptest's `prelude::prop` module path
    /// (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!({$cfg} $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!({$crate::test_runner::Config::default()} $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ({$cfg:expr} $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), __rng);)+
                $body
                ::std::result::Result::Ok(())
            });
        }
    )*};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*__l == *__r, $($fmt)*);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            __l
        );
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_len_in_range(v in prop::collection::vec(0u32..5, 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
        }
    }

    #[test]
    fn oneof_respects_zero_weight_absence() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = prop_oneof![1 => Just(1u8), 3 => Just(2u8)];
        let mut rng = TestRng::new(7);
        let mut seen = [0u32; 3];
        for _ in 0..200 {
            seen[s.sample(&mut rng) as usize] += 1;
        }
        assert_eq!(seen[0], 0);
        assert!(seen[1] > 0 && seen[2] > seen[1]);
    }
}
