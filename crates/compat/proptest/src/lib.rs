//! Offline stand-in for the subset of `proptest 1.x` this workspace uses.
//!
//! See `crates/compat/README.md`. Differences from upstream, by design:
//!
//! * cases are generated from a fixed per-test seed, so runs are fully
//!   deterministic;
//! * there is **no shrinking** — a failure reports the original failing
//!   input via `Debug`;
//! * `prop_assume!` rejects the case; a test aborts if fewer than the
//!   configured number of cases are accepted within `cases * 20` attempts
//!   (mirroring upstream's rejection cap).

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving case generation (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw below `span` (which must be nonzero).
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        // Multiply-shift; bias is irrelevant for test-case generation.
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Why a generated case did not produce a verdict.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed; the message describes it.
    Fail(String),
    /// The case was rejected by `prop_assume!`.
    Reject(String),
}

impl TestCaseError {
    /// Constructs a failure (mirrors upstream's `TestCaseError::fail`).
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Constructs a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Runner configuration; only `cases` is consulted.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases each test must execute.
    pub cases: u32,
    /// Accepted for source compatibility; unused (no shrinking here).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

/// The canonical strategy for an [`Arbitrary`] type.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128;
                if span >= u64::MAX as u128 {
                    // Full-width 64-bit range: raw bits already cover
                    // every value (two's complement for signed types).
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64 + 1) as i128) as $t
            }
        }
    )+};
}

impl_range_strategy!(i64, u64, i32, u32, usize, u8, u16);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.next_f64() * (self.end - self.start);
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

/// Uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V: Debug> Union<V> {
    /// Builds a union from its arms; panics if empty.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A number-of-elements specification: a fixed size or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of values from `element` (see upstream
    /// `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic per-test seed derived from the test's name.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything a test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Any,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError, TestRng, Union,
    };
}

/// Boxes a strategy, erasing its concrete type (used by [`prop_oneof!`]).
#[doc(hidden)]
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Chooses uniformly among strategy arms with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($arm)),+])
    };
}

/// Asserts a condition inside a property; fails the case (no panic) so the
/// runner can report the generated input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Rejects the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Declares property tests; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    // Internal rules first: the public catch-all below would otherwise
    // swallow `@cfg` recursions and loop forever.
    (@cfg ($config:expr)) => {};
    (@cfg ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::new($crate::seed_from_name(stringify!($name)));
            $(let __strat_for_arg_inner = $strat; let $arg = __strat_for_arg_inner;)+
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                if attempts > config.cases.saturating_mul(20) {
                    panic!(
                        "proptest: too many rejected cases in {} ({} accepted of {} wanted)",
                        stringify!($name), accepted, config.cases
                    );
                }
                $(let $arg = $crate::Strategy::generate(&$arg, &mut rng);)+
                // Rendered up front: the body may consume the values.
                let case_desc = format!("{:#?}", ($(&$arg,)+));
                let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject(_)) => {}
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case failed in {}: {}\ninput: {}",
                            stringify!($name),
                            msg,
                            case_desc
                        );
                    }
                }
            }
        }
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    // With a leading config attribute.
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    // Without one.
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sizes_hold() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let x = (3i64..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let v = collection::vec(0u32..4, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 4));
            let fixed = collection::vec(0u32..4, 3).generate(&mut rng);
            assert_eq!(fixed.len(), 3);
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let s = prop_oneof![Just(0u32), Just(1u32), Just(2u32)];
        let mut rng = TestRng::new(5);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn full_u64_inclusive_range_generates() {
        let s = 1u64..=u64::MAX;
        let mut rng = TestRng::new(8);
        for _ in 0..100 {
            assert!(s.clone().generate(&mut rng) >= 1);
        }
    }

    #[test]
    fn full_i64_inclusive_range_reaches_both_signs() {
        let s = i64::MIN..=i64::MAX;
        let mut rng = TestRng::new(9);
        let values: Vec<i64> = (0..200).map(|_| s.clone().generate(&mut rng)).collect();
        assert!(values.iter().any(|&v| v < 0), "negative values reachable");
        assert!(
            values.iter().any(|&v| v >= 0),
            "non-negative values reachable"
        );
        // The old clamp bug put ~half the mass exactly at i64::MAX.
        let at_max = values.iter().filter(|&&v| v == i64::MAX).count();
        assert!(at_max < 5, "no pile-up at i64::MAX (saw {at_max}/200)");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_asserts(x in 0i64..100, v in collection::vec(0u32..10, 0..8)) {
            prop_assert!((0..100).contains(&x));
            prop_assert_eq!(v.len(), v.len());
            prop_assume!(x != 12345); // never rejects
        }
    }

    proptest! {
        #[test]
        fn question_mark_composes(x in 0i64..10) {
            fn helper(x: i64) -> Result<(), TestCaseError> {
                prop_assert!(x < 10);
                Ok(())
            }
            helper(x)?;
        }
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn failures_report_input() {
        proptest! {
            #[allow(dead_code)]
            fn inner(x in 5i64..6) {
                prop_assert!(x != 5, "x was {}", x);
            }
        }
        inner();
    }
}
