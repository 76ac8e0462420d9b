//! Offline stand-in for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! The build container has no registry access, so this workspace vendors
//! the subset of the proptest API its test suites actually use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]` support),
//! * [`Strategy`] with `prop_map` / `prop_flat_map`,
//! * range and `any::<T>()` strategies, tuple strategies,
//! * [`collection::vec`] / [`collection::btree_set`],
//! * [`prop_oneof!`], [`Just`], and the `prop_assert*` / [`prop_assume!`]
//!   macros.
//!
//! Generation is uniform and **deterministic**: each test derives its
//! seed from its own name via FNV-1a, so a failing case reproduces on
//! every run and on every machine.  There is no shrinking — the failing
//! inputs are printed instead, which has proven sufficient for the
//! small strategies used here.

use std::ops::{Range, RangeInclusive};

/// Deterministic generator state (SplitMix64; kept local so the shim
/// has no dependencies, not even on `simkit`).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value below `bound` (`bound > 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        // multiply-shift bounded sampling: deterministic and unbiased
        // enough for test-case generation
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a string, used to derive per-test seeds from test names.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A failed test case: the `prop_assert*` macros return this through
/// the generated runner.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Failure with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }

    /// Rejection (from `prop_assume!`): the case is skipped, not failed.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(format!("{}{}", REJECT_PREFIX, msg.into()))
    }

    /// Whether this is an assumption rejection rather than a failure.
    pub fn is_rejection(&self) -> bool {
        self.0.starts_with(REJECT_PREFIX)
    }
}

const REJECT_PREFIX: &str = "\u{1}reject: ";

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of test values.  Object-safe so `prop_oneof!` can box
/// heterogeneous arms of one value type.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Sample one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate an intermediate value, then sample the strategy it maps to.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
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
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed arms (backs [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Union over `arms`; sampling picks one arm uniformly.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.next_below(self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

// ---- primitive strategies --------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.next_below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // full-domain inclusive range
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.next_below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.next_f64() as f32 * (self.end - self.start)
    }
}

/// `any::<T>()`: full-domain uniform values.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a full-domain uniform generator.
pub trait Arbitrary {
    /// Sample a uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // finite uniform mantissa values are what the tests want; the
        // real crate's NaN/∞ corners are not exercised here
        rng.next_f64() * 2.0 - 1.0
    }
}

// ---- tuple strategies ------------------------------------------------------

macro_rules! tuple_strategy {
    ($(($($s:ident/$i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`proptest::collection::vec`, `btree_set`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a collection size specification.
    pub trait SizeRange {
        /// Pick a size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.next_below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + rng.next_below((hi - lo + 1) as u64) as usize
        }
    }

    /// `Vec` of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `BTreeSet` of values from `element` whose size lands in `size`
    /// (best-effort: bounded retries against duplicate samples).
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut tries = 0usize;
            while out.len() < target && tries < target * 20 + 20 {
                out.insert(self.element.sample(rng));
                tries += 1;
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// The proptest entry macro: wraps `fn name(arg in strategy, ..) { .. }`
/// items into deterministic multi-case `#[test]` functions.
#[macro_export]
macro_rules! proptest {
    // with a leading #![proptest_config(..)]
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal: expands each test fn under a shared config.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat_param in $strategy:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted = 0u32;
            let mut attempts = 0u32;
            // generate until `cases` accepted cases (prop_assume! rejects
            // are retried), with a hard attempt cap
            while accepted < config.cases && attempts < config.cases * 20 + 100 {
                let mut rng = $crate::TestRng::new(
                    seed ^ (attempts as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                attempts += 1;
                let result = (|rng: &mut $crate::TestRng| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $(let $arg = $crate::Strategy::sample(&($strategy), rng);)+
                    $body
                    Ok(())
                })(&mut rng);
                match result {
                    Ok(()) => accepted += 1,
                    Err(e) if e.is_rejection() => {}
                    Err(e) => panic!(
                        "proptest case {} of {} failed: {}",
                        accepted + 1,
                        config.cases,
                        e.0
                    ),
                }
            }
            assert!(
                accepted > 0,
                "proptest: every generated case was rejected by prop_assume!"
            );
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Assert inside a proptest body; failure reports the case instead of
/// unwinding through generated arguments.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` for proptest bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} (`{:?}` != `{:?}`)",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// `assert_ne!` for proptest bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                l, r
            )));
        }
    }};
}

/// Skip the current case when its inputs violate a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice between strategy arms of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// The common imports (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof,
        proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = Strategy::sample(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::sample(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = Strategy::sample(&(1usize..=4), &mut rng);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn collections_hit_requested_sizes() {
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = Strategy::sample(&collection::vec(0u8..10, 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
            let s = Strategy::sample(&collection::btree_set(0u32..100, 1..=4), &mut rng);
            assert!(!s.is_empty() && s.len() <= 4);
            let exact = Strategy::sample(&collection::vec(0u8..10, 3usize), &mut rng);
            assert_eq!(exact.len(), 3);
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = TestRng::new(11);
        let s =
            (1usize..4).prop_flat_map(|n| collection::vec(0u64..10, n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = Strategy::sample(&s, &mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn oneof_samples_every_arm() {
        let mut rng = TestRng::new(13);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[Strategy::sample(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #[test]
        fn macro_binds_and_asserts(a in 0u64..100, b in any::<bool>()) {
            prop_assert!(a < 100, "a = {a}");
            prop_assert_eq!(b, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn assume_retries(a in 0u8..10) {
            prop_assume!(a % 2 == 0);
            prop_assert!(a % 2 == 0);
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = TestRng::new(99);
        let mut b = TestRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
