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
//! * a failing case, by `prop_assert*` or by a panic, is shrunk, then
//!   reported with its seed and each input as `pat = {:?}`; the panics of
//!   shrink candidates print nothing.
//!
//! Shrinking works on the sequence of draws a case took from [`TestRng`]
//! (internal shrinking, as in Hypothesis): the runner replays edited
//! sequences and keeps any that still fails and is shortlex-smaller. It
//! deletes whole elements of a `vec`, lowering the vec's length draw with
//! them so the draws after it keep their meaning; then it sets each draw
//! to 0, or halves it. Every strategy maps a smaller draw to a value
//! nearer its range's start, so no strategy carries shrinking code; a
//! `vec` only records where its draws lie. A vec shrinks below its length
//! range's start, down to no elements: a replay then carries the length
//! itself, as no length draw can name it. The range only decides what is
//! sampled, so the drawn cases stay as they were.
//!
//! Not implemented: persistence files, `prop_compose!`, recursive
//! strategies. Swap this crate for the real `proptest` in the workspace
//! `Cargo.toml` once the build environment has registry access.

pub mod test_runner {
    /// Configuration for a `proptest!` block (subset of the real
    /// `proptest::test_runner::Config`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
        /// How many edited draw sequences shrinking a failing case may
        /// replay.
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 64,
                max_shrink_iters: 1024,
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

    /// Deterministic splitmix64 generator driving all strategies. It
    /// records every draw, and where each sampled vec's draws lie; a
    /// replaying one yields a given sequence instead, then zeros.
    pub struct TestRng {
        state: u64,
        replay: Option<Vec<u64>>,
        /// Per vec, in the order the vecs start: a length below its
        /// range's start that a replay imposes.
        pub(crate) short: Vec<Option<usize>>,
        pub(crate) draws: Vec<u64>,
        pub(crate) vecs: Vec<VecDraws>,
    }

    /// Where one sampled vec lies in the draw sequence: the index of its
    /// length draw, the length range's start, the `below` bound the length
    /// draw took, and the index where each element's draws start, then
    /// where the last one's end.
    #[derive(Default)]
    pub(crate) struct VecDraws {
        pub(crate) len_at: usize,
        pub(crate) min_len: usize,
        pub(crate) span: u64,
        pub(crate) bounds: Vec<usize>,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed,
                replay: None,
                short: Vec::new(),
                draws: Vec::new(),
                vecs: Vec::new(),
            }
        }

        fn replaying(draws: Vec<u64>, short: Vec<Option<usize>>) -> Self {
            TestRng {
                replay: Some(draws),
                short,
                ..TestRng::new(0)
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let draw = match &self.replay {
                Some(draws) => draws.get(self.draws.len()).copied().unwrap_or(0),
                None => {
                    self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = self.state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                }
            };
            self.draws.push(draw);
            draw
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

    /// How a case failed: a `prop_assert*` or a panic, and its message.
    struct Failure {
        panicked: bool,
        message: String,
    }

    impl Failure {
        /// Whether `other` is this failure again: the same kind, and the
        /// same first line up to its first digit (digits name the case's
        /// pages, blocks and counts). A shrink that slipped to another
        /// failure, such as an index panic on an input shorter than the
        /// body expects, would report a fault other than the one found.
        fn recurs_in(&self, other: &Failure) -> bool {
            let key = |f: &Failure| {
                let line = f.message.lines().next().unwrap_or_default();
                (f.panicked, line.split(|c: char| c.is_ascii_digit()).next().map(str::to_owned))
            };
            key(self) == key(other)
        }
    }

    std::thread_local! {
        /// Whether this thread is replaying a shrink candidate.
        static SHRINKING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Install, once, a panic hook that is silent while this thread replays
    /// a shrink candidate and defers to the hook it replaced otherwise
    /// (tests run on parallel threads, so the silence is per thread).
    fn quiet_while_shrinking() {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        INSTALL.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !SHRINKING.with(|s| s.get()) {
                    previous(info);
                }
            }));
        });
    }

    /// Run `body` on `rng`, a panic caught as a failure.
    fn outcome<F>(body: &mut F, rng: &mut TestRng) -> Result<(), Failure>
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(rng))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(err)) => Err(Failure { panicked: false, message: err.0 }),
            Err(payload) => {
                let message = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
                    (Some(s), _) => (*s).to_owned(),
                    (None, Some(s)) => s.clone(),
                    (None, None) => "a panic without a message".to_owned(),
                };
                Err(Failure { panicked: true, message })
            }
        }
    }

    /// The lengths a replay of `vecs` must impose: those below their
    /// range's start.
    fn short_lens(vecs: &[VecDraws]) -> Vec<Option<usize>> {
        vecs.iter()
            .map(|v| Some(v.bounds.len() - 1).filter(|&len| len < v.min_len))
            .collect()
    }

    /// Run `cases` deterministic cases of `body`. On the first failure, a
    /// failed `prop_assert*` or a panic, shrink it and panic with the case
    /// seed, the inputs `describe` renders from the shrunk draws and the
    /// shrunk case's message.
    pub fn run<F, D>(config: &Config, name: &str, mut body: F, describe: D)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        D: Fn(&mut TestRng) -> String,
    {
        // Fixed base seed: reproducible across runs and machines.
        const BASE_SEED: u64 = 0xEA61_E7EE_0000_0000;
        for case in 0..config.cases as u64 {
            let seed = BASE_SEED ^ (case.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let mut rng = TestRng::new(seed);
            if let Err(failure) = outcome(&mut body, &mut rng) {
                quiet_while_shrinking();
                let mut s = Shrink {
                    body: &mut body,
                    budget: config.max_shrink_iters,
                    best: rng.draws,
                    vecs: rng.vecs,
                    failure,
                    kept: 0,
                };
                s.run();
                let inputs = describe(&mut TestRng::replaying(s.best, short_lens(&s.vecs)));
                let how = if s.failure.panicked { "panicked" } else { "failed" };
                panic!(
                    "proptest case {how}: {name} (case {case}, seed {seed:#x}), \
                     shrunk by {} edits to:\n{inputs}{}",
                    s.kept, s.failure.message,
                );
            }
        }
    }

    /// A failing case's smallest draw sequence so far, its vecs, and how
    /// it failed.
    struct Shrink<'a, F> {
        body: &'a mut F,
        budget: u32,
        best: Vec<u64>,
        vecs: Vec<VecDraws>,
        failure: Failure,
        kept: u32,
    }

    /// The smallest draw that `TestRng::below(span)` maps to `value`
    /// (`value < span`).
    fn draw_for(value: u64, span: u64) -> u64 {
        ((u128::from(value) << 64).div_ceil(u128::from(span))) as u64
    }

    impl<F: FnMut(&mut TestRng) -> Result<(), TestCaseError>> Shrink<'_, F> {
        /// Replays `draws` under the lengths `short` imposes if the budget
        /// allows, and keeps the draws the body took if it fails the same
        /// way and they are shortlex-smaller.
        fn attempt(&mut self, draws: Vec<u64>, short: Vec<Option<usize>>) -> bool {
            if self.budget == 0 {
                return false;
            }
            self.budget -= 1;
            let mut rng = TestRng::replaying(draws, short);
            SHRINKING.with(|s| s.set(true));
            let outcome = outcome(self.body, &mut rng);
            SHRINKING.with(|s| s.set(false));
            let smaller = (rng.draws.len(), &rng.draws) < (self.best.len(), &self.best);
            let Err(failure) = outcome else { return false };
            let kept = smaller && self.failure.recurs_in(&failure);
            if kept {
                (self.best, self.vecs, self.failure) = (rng.draws, rng.vecs, failure);
                self.kept += 1;
            }
            kept
        }

        /// Replays the best draws without elements `[from, from + n)` of
        /// vec `v` (`from + n` at most its length), its length draw lowered
        /// by `n`, or imposed when that takes it below the range's start.
        fn delete_elements(&mut self, v: usize, from: usize, n: usize) -> bool {
            let vec = &self.vecs[v];
            let len = vec.bounds.len() - 1 - n;
            let mut short = short_lens(&self.vecs);
            short[v] = Some(len).filter(|&len| len < vec.min_len);
            let mut draws = self.best.clone();
            draws[vec.len_at] = draw_for(len.saturating_sub(vec.min_len) as u64, vec.span);
            draws.drain(vec.bounds[from]..vec.bounds[from + n]);
            self.attempt(draws, short)
        }

        /// Rounds of edits until one keeps nothing or the budget runs out:
        /// delete each vec's elements in chunks of all of them, then halves
        /// of that, down to single elements; then set each draw to 0, or
        /// halve it while that still fails.
        fn run(&mut self) {
            while self.budget > 0 {
                let before = self.best.clone();
                let mut v = 0;
                while v < self.vecs.len() {
                    let mut size = self.vecs[v].bounds.len() - 1;
                    while size > 0 {
                        let mut from = 0;
                        while from + size < self.vecs[v].bounds.len() {
                            if !self.delete_elements(v, from, size) {
                                from += size;
                            }
                        }
                        size /= 2;
                    }
                    v += 1;
                }
                let mut i = 0;
                while i < self.best.len() {
                    let mut zeroed = self.best.clone();
                    zeroed[i] = 0;
                    if self.best[i] == 0 || !self.attempt(zeroed, short_lens(&self.vecs)) {
                        while self.best.get(i).is_some_and(|&d| d > 0) {
                            let mut halved = self.best.clone();
                            halved[i] /= 2;
                            if !self.attempt(halved, short_lens(&self.vecs)) {
                                break;
                            }
                        }
                    }
                    i += 1;
                }
                if self.best == before {
                    return;
                }
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
    use crate::test_runner::{TestRng, VecDraws};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            // Claim this vec's place in start order before its elements,
            // which may hold vecs of their own.
            let v = rng.vecs.len();
            rng.vecs.push(VecDraws::default());
            let len_at = rng.draws.len();
            let drawn = self.size.start + rng.below(span) as usize;
            let len = rng.short.get(v).copied().flatten().unwrap_or(drawn);
            let mut bounds = vec![rng.draws.len()];
            let values = (0..len)
                .map(|_| {
                    let value = self.element.sample(rng);
                    bounds.push(rng.draws.len());
                    value
                })
                .collect();
            let min_len = self.size.start;
            rng.vecs[v] = VecDraws { len_at, min_len, span, bounds };
            values
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
            }, |__rng| {
                let mut __inputs = ::std::string::String::new();
                $(__inputs += &::std::format!(
                    "{} = {:?}\n",
                    stringify!($pat),
                    $crate::strategy::Strategy::sample(&($strat), __rng),
                );)+
                __inputs
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
        // Not a test itself: `failures_shrink_and_print_their_inputs` runs it.
        fn fails_once_x_and_an_element_are_nonzero(
            x in any::<u64>(),
            v in prop::collection::vec(any::<u32>(), 0..16),
        ) {
            prop_assert!(x == 0 || v.iter().all(|&e| e == 0));
        }
    }

    /// A seeded failure of random size shrinks to its minimum, `x = 1` and
    /// one element `1`, and the message prints both inputs.
    #[test]
    fn failures_shrink_and_print_their_inputs() {
        let err = std::panic::catch_unwind(fails_once_x_and_an_element_are_nonzero).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("edits to:\nx = 1\nv = [1]\nassertion failed"),
            "{msg}"
        );
    }

    proptest! {
        // Not a test itself: `shrinking_deletes_whole_elements` runs it.
        fn fails_once_v_holds_7_and_k_is_3(
            v in prop::collection::vec(0u32..100, 0..400),
            k in 0u64..4,
        ) {
            prop_assert!(!(v.contains(&7) && k == 3));
        }
    }

    /// The shrinker deletes whole elements of a vec and lowers its length
    /// draw with them, so the input drawn after the vec keeps its value:
    /// the failure shrinks to the one element it needs.
    #[test]
    fn shrinking_deletes_whole_elements() {
        let err = std::panic::catch_unwind(fails_once_v_holds_7_and_k_is_3).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("edits to:\nv = [7]\nk = 3\nassertion failed"), "{msg}");
    }

    proptest! {
        // Not a test itself: `a_panic_is_shrunk_and_prints_its_inputs` runs it.
        fn panics_once_v_holds_7(v in prop::collection::vec(0u32..100, 0..400)) {
            assert!(!v.contains(&7), "v holds 7");
        }

        // Not a test itself: `a_vec_shrinks_below_its_sampled_minimum` runs it.
        fn fails_once_a_long_v_holds_7(v in prop::collection::vec(0u32..100, 50..400)) {
            prop_assert!(!v.contains(&7));
        }
    }

    /// A body that panics is shrunk like a failed `prop_assert`, and the
    /// panic it raises again names the shrunk input and the message.
    #[test]
    fn a_panic_is_shrunk_and_prints_its_inputs() {
        let err = std::panic::catch_unwind(panics_once_v_holds_7).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.starts_with("proptest case panicked: panics_once_v_holds_7"), "{msg}");
        assert!(msg.contains("edits to:\nv = [7]\nv holds 7"), "{msg}");
    }

    /// The length range decides what is sampled, not how far a vec
    /// shrinks: a failure that needs one element shrinks to one.
    #[test]
    fn a_vec_shrinks_below_its_sampled_minimum() {
        let err = std::panic::catch_unwind(fails_once_a_long_v_holds_7).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("edits to:\nv = [7]\nassertion failed"), "{msg}");
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
