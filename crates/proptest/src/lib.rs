//! Dependency-free stand-in for the subset of the `proptest` 1.x API this
//! workspace's property tests use.
//!
//! The build environment is fully offline (no registry access), so the
//! external `proptest` crate is replaced by this local implementation. It
//! keeps the same *names and shapes* — the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_filter`
//! / `prop_filter_map` / `prop_flat_map` / `boxed`, [`arbitrary::any`],
//! range and tuple and `&str`-pattern
//! strategies, `collection::{vec, btree_set}`, `array::uniform4`, the
//! [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`] / [`prop_assert_eq!`]
//! macros and [`test_runner::ProptestConfig`] — but generates inputs from a
//! deterministic per-test seed and does **no shrinking**: a failing case
//! panics with the assertion message directly. That trades minimal
//! counterexamples for a fully offline, reproducible test suite.

pub mod test_runner {
    /// Deterministic generator state threaded through all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Seed derived from the fully-qualified test name, so every test
        /// gets a distinct but stable input sequence.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng::from_seed(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            // splitmix64
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }

        /// Uniform length in the half-open `[lo, hi)` size range.
        pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
            assert!(lo < hi, "empty size range {lo}..{hi}");
            lo + self.below((hi - lo) as u64) as usize
        }
    }

    /// Mirror of `proptest::test_runner::ProptestConfig`; only `cases` is
    /// honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

pub mod strategy {
    use std::marker::PhantomData;
    use std::ops::Range;
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// How many times a filtered strategy retries before giving up.
    const MAX_REJECTS: u32 = 65_536;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking: `generate`
    /// produces the final value directly.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, map }
        }

        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                pred,
            }
        }

        fn prop_filter_map<U, F>(self, reason: &'static str, map: F) -> FilterMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> Option<U>,
        {
            FilterMap {
                inner: self,
                reason,
                map,
            }
        }

        fn prop_flat_map<S, F>(self, map: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, map }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// Type-erased strategy (`Strategy::boxed`).
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        map: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.map)(self.inner.generate(rng))
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..MAX_REJECTS {
                let candidate = self.inner.generate(rng);
                if (self.pred)(&candidate) {
                    return candidate;
                }
            }
            panic!("strategy rejected too often: {}", self.reason);
        }
    }

    pub struct FilterMap<S, F> {
        inner: S,
        reason: &'static str,
        map: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            for _ in 0..MAX_REJECTS {
                if let Some(value) = (self.map)(self.inner.generate(rng)) {
                    return value;
                }
            }
            panic!("strategy rejected too often: {}", self.reason);
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        map: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.map)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice between alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(
                !options.is_empty(),
                "prop_oneof! needs at least one alternative"
            );
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    /// Integer ranges are strategies over their half-open interval.
    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start.wrapping_add((u128::from(rng.next_u64()) % width) as $t)
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// A homogeneous list of strategies yields the list of one draw from
    /// each (proptest's `Vec<BoxedStrategy<_>>` idiom).
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
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
        (A, B, C, D, E, G)
    }

    /// `&str` strategies generate strings from a small regex subset — see
    /// [`crate::string`].
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }

    /// `any::<T>()` support.
    pub struct Any<T>(PhantomData<T>);

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Any(PhantomData)
        }
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Any;
    use crate::test_runner::TestRng;

    /// Whole-domain generation for primitive types (`any::<T>()`).
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Printable ASCII keeps generated text parseable and readable.
            (0x20u8 + rng.below(0x5F) as u8) as char
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

pub mod collection {
    use std::collections::BTreeSet;
    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `collection::vec(strategy, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.len_in(self.size.start, self.size.end);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `collection::btree_set(strategy, len_range)`. The set reaches the
    /// drawn size unless the element domain is too small, in which case it
    /// stops once additional draws stop producing new elements.
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let want = rng.len_in(self.size.start, self.size.end);
            let mut set = BTreeSet::new();
            let mut misses = 0u32;
            while set.len() < want && misses < 1000 {
                if !set.insert(self.element.generate(rng)) {
                    misses += 1;
                }
            }
            set
        }
    }
}

pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct UniformArray4<S>(S);

    /// `array::uniform4(strategy)` — four independent draws.
    pub fn uniform4<S: Strategy>(element: S) -> UniformArray4<S> {
        UniformArray4(element)
    }

    impl<S: Strategy> Strategy for UniformArray4<S> {
        type Value = [S::Value; 4];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; 4] {
            [
                self.0.generate(rng),
                self.0.generate(rng),
                self.0.generate(rng),
                self.0.generate(rng),
            ]
        }
    }
}

pub mod string;

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Mirror of `proptest!`: a config line followed by `#[test]` functions
/// whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = <$crate::test_runner::ProptestConfig as ::core::default::Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for _case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
}

/// In this stand-in, `prop_assert!` panics immediately (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_tuples_compose() {
        let mut rng = TestRng::from_seed(3);
        let s = (1u8..5, 10usize..20).prop_map(|(a, b)| a as usize + b);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((11..24).contains(&v));
        }
    }

    #[test]
    fn filters_retry_until_accepted() {
        let mut rng = TestRng::from_seed(4);
        let even = (0u32..100).prop_filter("even", |v| v % 2 == 0);
        for _ in 0..100 {
            assert_eq!(even.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn collections_honour_size_ranges() {
        let mut rng = TestRng::from_seed(5);
        let lists = crate::collection::vec(0u8..10, 2..6);
        for _ in 0..100 {
            let v = lists.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
        let sets = crate::collection::btree_set(any::<u32>(), 1..40);
        for _ in 0..50 {
            let s = sets.generate(&mut rng);
            assert!((1..40).contains(&s.len()));
        }
    }

    #[test]
    fn oneof_draws_from_every_branch() {
        let mut rng = TestRng::from_seed(6);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(a in 0u8..10, b in any::<bool>()) {
            prop_assert!(a < 10, "a = {}", a);
            let _ = b;
        }
    }
}
