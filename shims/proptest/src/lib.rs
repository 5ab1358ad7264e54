//! Offline stand-in for the `proptest` property-testing framework.
//!
//! The build environment has no network registry, so the workspace wires
//! `proptest` to this API-compatible subset (see `shims/README.md`). It covers the
//! surface the test-suite uses: the [`proptest!`] / [`prop_oneof!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros, [`strategy::Strategy`] with
//! `prop_map` / `prop_recursive`, [`collection::vec`], integer-range and
//! pattern-string strategies, [`arbitrary::any`] and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest: inputs are drawn from a deterministic
//! per-test-name PRNG (no OS entropy, no persisted failure seeds) and failing
//! cases are **not shrunk** — the failing case index and assertion message are
//! reported as-is.

pub mod test_runner {
    use std::fmt;

    /// Deterministic splitmix64 generator driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name, so every test gets a stable but
        /// distinct input stream.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Returns the next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }

    /// Number of cases to run per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// How many random cases each property is checked against.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property case (carries the assertion message).
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure from a message.
        pub fn fail<S: Into<String>>(message: S) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    impl std::error::Error for TestCaseError {}
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    ///
    /// Unlike real proptest there is no shrinking: a strategy is just a seeded
    /// generator.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Builds a recursive strategy: values are either drawn from `self` (the
        /// leaf strategy) or from `recurse` applied to the previous level, nested
        /// at most `depth` levels deep. The `_desired_size` / `_expected_branch`
        /// hints of real proptest are accepted and ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let base = self.boxed();
            let mut level = base.clone();
            for _ in 0..depth {
                level = Union::new(vec![base.clone(), recurse(level).boxed()]).boxed();
            }
            level
        }

        /// Type-erases the strategy behind a cheap clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let f = move |rng: &mut TestRng| self.generate(rng);
            BoxedStrategy(Rc::new(f))
        }
    }

    /// A clonable, type-erased strategy handle.
    pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between several strategies of the same value type
    /// (the engine behind [`crate::prop_oneof!`]).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over a non-empty list of options.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    /// Integers uniformly samplable from a half-open range.
    pub trait UniformInt: Copy {
        /// Samples uniformly from `[low, high)`.
        fn sample(low: Self, high: Self, rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_uniform_int {
        ($($t:ty),*) => {$(
            impl UniformInt for $t {
                fn sample(low: Self, high: Self, rng: &mut TestRng) -> Self {
                    assert!(low < high, "empty range strategy");
                    // Offset arithmetic stays in i128: for signed types the span
                    // can exceed the type's positive max, so `low + offset` must
                    // not be computed in $t.
                    let span = (high as i128 - low as i128) as u128;
                    (low as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<T: UniformInt> Strategy for Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(self.start, self.end, rng)
        }
    }

    // Pattern strings: `"[a-z]{1,6}"` is a strategy for matching strings, as in
    // real proptest. Only the subset `literal`, `[class]`, `{n}`, `{m,n}` of the
    // regex syntax is supported.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            crate::pattern::generate(self, rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s whose length is drawn from `size` (half-open) and
    /// whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// Result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical strategy, reachable through [`any`].
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `A` (mirrors `proptest::arbitrary::any`).
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }

    /// Result of [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }
}

pub(crate) mod pattern {
    use crate::test_runner::TestRng;

    enum Atom {
        Literal(char),
        Class(Vec<char>),
    }

    /// Generates a string matching the pattern subset `literal`, `[class]`,
    /// `{n}`, `{m,n}`. Unsupported constructs panic so that a silently wrong
    /// generator can never masquerade as coverage.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => {
                    let mut members = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let m = chars
                            .next()
                            .unwrap_or_else(|| panic!("unterminated class in pattern `{pattern}`"));
                        match m {
                            ']' => break,
                            '\\' => {
                                let esc = chars.next().expect("dangling escape");
                                members.push(esc);
                                prev = Some(esc);
                            }
                            '-' if prev.is_some() && chars.peek() != Some(&']') => {
                                let hi = chars.next().unwrap();
                                let lo = prev.take().unwrap();
                                // The range start was already pushed as a member;
                                // extend with the rest of the range.
                                for code in (lo as u32 + 1)..=(hi as u32) {
                                    members.push(char::from_u32(code).unwrap());
                                }
                            }
                            m => {
                                members.push(m);
                                prev = Some(m);
                            }
                        }
                    }
                    assert!(!members.is_empty(), "empty class in pattern `{pattern}`");
                    Atom::Class(members)
                }
                '\\' => Atom::Literal(chars.next().expect("dangling escape")),
                '{' | '}' | '*' | '+' | '?' | '(' | ')' | '|' | '.' => {
                    panic!("unsupported regex construct `{c}` in pattern `{pattern}`")
                }
                c => Atom::Literal(c),
            };
            // Optional quantifier.
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for q in chars.by_ref() {
                    if q == '}' {
                        break;
                    }
                    spec.push(q);
                }
                match spec.split_once(',') {
                    Some((m, n)) => (m.parse::<usize>().unwrap(), n.parse::<usize>().unwrap()),
                    None => {
                        let n = spec.parse::<usize>().unwrap();
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let count = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..count {
                match &atom {
                    Atom::Literal(l) => out.push(*l),
                    Atom::Class(members) => {
                        out.push(members[rng.below(members.len() as u64) as usize])
                    }
                }
            }
        }
        out
    }
}

/// Everything a property-test module usually imports, mirroring
/// `proptest::prelude::*` (including the `prop` crate alias).
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice between strategies, mirroring `proptest::prop_oneof!`.
/// Weighted options (`3 => strat`) are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Declares property tests, mirroring `proptest::proptest!`: each `#[test]`
/// function runs `config.cases` times with inputs drawn from its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_generator_matches_class_and_quantifier() {
        let mut rng = TestRng::deterministic("pattern");
        for _ in 0..200 {
            let s = crate::pattern::generate("[a-c]{2,4}x", &mut rng);
            assert!(s.ends_with('x'));
            let body = &s[..s.len() - 1];
            assert!((2..=4).contains(&body.len()));
            assert!(body.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn union_draws_from_every_option() {
        let mut rng = TestRng::deterministic("union");
        let strat = prop_oneof![Just(1u8), Just(2u8)];
        let seen: std::collections::HashSet<u8> =
            (0..64).map(|_| strat.generate(&mut rng)).collect();
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf(#[allow(dead_code)] i64),
            Node(Vec<T>),
        }
        let strat = (0i64..10)
            .prop_map(T::Leaf)
            .prop_recursive(3, 8, 4, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(T::Node)
            });
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(_) => 0,
                T::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let mut rng = TestRng::deterministic("recursive");
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_ints_stay_in_range(v in -5i64..5) {
            prop_assert!((-5..5).contains(&v));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0usize..9, 1..4)) {
            prop_assert!((1..4).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 9));
        }
    }
}
