//! Typed relational cell values.
//!
//! HDT node data is stored as strings, but the relational tables Mitra produces (and
//! the constants that appear in predicates) behave like typed values: `3` and `03`
//! compare equal numerically, `"10" < "9"` is false when both parse as numbers, and so
//! on.  [`Value`] captures this: it keeps the original text but compares numerically
//! whenever both operands are numeric.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A relational cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing value (SQL NULL).
    Null,
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// Arbitrary text.
    Str(String),
}

impl Value {
    /// Parses a raw data string into the most specific value type.
    ///
    /// Integers parse to [`Value::Int`], other finite numbers to [`Value::Float`],
    /// `true`/`false` to [`Value::Bool`], `null` / empty to [`Value::Null`], everything
    /// else stays a string — including `NaN`, `inf` and literals like `1e400` that
    /// overflow to infinity, which Rust's float parser would accept.
    pub fn from_data(s: &str) -> Value {
        Value::scalar(s).unwrap_or_else(|| Value::Str(s.to_string()))
    }

    /// `Value::from_data(raw).render()`, borrowing `raw` when the value is text
    /// (a text value renders as itself), so only scalars allocate.
    pub fn rendered_data(raw: &str) -> Cow<'_, str> {
        match Value::scalar(raw) {
            Some(v) => Cow::Owned(v.render()),
            None => Cow::Borrowed(raw),
        }
    }

    /// The non-text value a data string parses to, or `None` when it stays a
    /// string: the one classifier behind [`Value::from_data`],
    /// [`Value::rendered_data`] and `From<String>`.
    fn scalar(s: &str) -> Option<Value> {
        let t = s.trim();
        if t.is_empty() || t == "null" {
            return Some(Value::Null);
        }
        if t == "true" {
            return Some(Value::Bool(true));
        }
        if t == "false" {
            return Some(Value::Bool(false));
        }
        numeric(t)
    }

    /// The value a number compares as: itself, or for a string the `Int` or
    /// `Float` that [`Value::from_data`] would parse it to.
    fn number(&self) -> Option<Value> {
        match self {
            Value::Int(i) => Some(Value::Int(*i)),
            Value::Float(f) => Some(Value::Float(*f)),
            Value::Str(s) => numeric(s.trim()),
            Value::Null | Value::Bool(_) => None,
        }
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Numeric view of the value, if it has one.  A string has one exactly when
    /// [`Value::from_data`] would parse it as a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => parse_finite(s.trim()),
            Value::Null => None,
        }
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Canonical textual rendering (what would be written into a CSV cell).
    pub fn render(&self) -> String {
        self.text().into_owned()
    }

    /// [`Value::render`], borrowed unless the value is a number.  An integral
    /// float inside `i64`'s range renders as its exact integer, the text of the
    /// `Int` it compares equal to, so keys built from rendered text (hash joins,
    /// [`crate::Table::same_bag`], constraint keys) agree with [`Value::compare`].
    fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => {
                Cow::Owned(if f.fract() == 0.0 && (-I64_BOUND..I64_BOUND).contains(f) {
                    (*f as i64).to_string()
                } else {
                    format!("{f}")
                })
            }
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    /// Comparison used by the DSL predicates: numeric when both sides are numeric,
    /// textual otherwise.  A numeric string compares as the number
    /// [`Value::from_data`] parses it to, and two integers, or an integer against
    /// an integral float, compare exactly, not through `f64`.  A boolean equals
    /// only a boolean (or its own text); against anything else it orders by
    /// rendered text.  NULL compares equal only to NULL and is unordered otherwise.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Bool(_), _) | (_, Value::Bool(_)) => Some(self.text().cmp(&other.text())),
            _ => match (self.number(), other.number()) {
                (Some(Value::Int(a)), Some(Value::Int(b))) => Some(a.cmp(&b)),
                (Some(Value::Int(i)), Some(Value::Float(f))) => compare_int_float(i, f),
                (Some(Value::Float(f)), Some(Value::Int(i))) => {
                    compare_int_float(i, f).map(Ordering::reverse)
                }
                (Some(Value::Float(a)), Some(Value::Float(b))) => a.partial_cmp(&b),
                _ => Some(self.text().cmp(&other.text())),
            },
        }
    }
}

/// 2^63: the integral floats in `-2^63..2^63` convert to `i64` exactly.
const I64_BOUND: f64 = 9_223_372_036_854_775_808.0;

/// The `Int` or `Float` a trimmed data string parses to, if it is a number.
fn numeric(t: &str) -> Option<Value> {
    match t.parse::<i64>() {
        Ok(i) => Some(Value::Int(i)),
        Err(_) => parse_finite(t).map(Value::Float),
    }
}

/// An integer against a float, exactly: an integral float converts to `i128`
/// (saturating far outside `i64`'s range, which keeps the order); any other
/// float is fractional, so below 2^52 in magnitude, or not finite, and the
/// rounding of `i as f64` cannot cross it.
fn compare_int_float(i: i64, f: f64) -> Option<Ordering> {
    if f.fract() == 0.0 {
        Some(i128::from(i).cmp(&(f as i128)))
    } else {
        (i as f64).partial_cmp(&f)
    }
}

/// A finite number, or `None` — `NaN`, `inf`, `infinity` (any case) and
/// overflowing literals are text.
fn parse_finite(t: &str) -> Option<f64> {
    t.parse::<f64>().ok().filter(|f| f.is_finite())
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash consistently with `eq`: numeric values hash by their canonical numeric
        // rendering, everything else (booleans included) by its text.
        match self.as_number() {
            Some(n) if !matches!(self, Value::Bool(_)) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    (n as i64).hash(state);
                } else {
                    n.to_bits().hash(state);
                }
            }
            _ => self.text().hash(state),
        }
        self.is_null().hash(state);
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.compare(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::from_data(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<String> for Value {
    /// [`Value::from_data`], keeping the string itself when the value is text.
    fn from(s: String) -> Self {
        Value::scalar(&s).unwrap_or(Value::Str(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_detects_types() {
        assert_eq!(Value::from_data("42"), Value::Int(42));
        assert_eq!(Value::from_data("4.5"), Value::Float(4.5));
        assert_eq!(Value::from_data("true"), Value::Bool(true));
        assert_eq!(Value::from_data(""), Value::Null);
        assert_eq!(Value::from_data("abc"), Value::Str("abc".into()));
    }

    #[test]
    fn owned_strings_classify_like_borrowed_ones() {
        for s in [
            "42", " 4.5 ", "true", "false", "", "null", "abc", " x ", "NaN", "1e400",
        ] {
            let owned = Value::from(s.to_string());
            assert_eq!(
                format!("{owned:?}"),
                format!("{:?}", Value::from_data(s)),
                "{s:?}"
            );
        }
    }

    #[test]
    fn numeric_comparison_beats_lexicographic() {
        let a = Value::from_data("10");
        let b = Value::from_data("9");
        assert_eq!(a.compare(&b), Some(Ordering::Greater));
        // As raw strings "10" < "9" lexicographically; typed comparison must not do that.
        assert_ne!(a.render().cmp(&b.render()), Ordering::Greater);
    }

    #[test]
    fn string_and_number_equality_is_numeric_when_possible() {
        assert_eq!(Value::Str("3".into()), Value::Int(3));
        assert_ne!(Value::Str("3a".into()), Value::Int(3));
    }

    #[test]
    fn null_semantics() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
    }

    #[test]
    fn render_roundtrips_ints_and_floats() {
        assert_eq!(Value::Int(7).render(), "7");
        assert_eq!(Value::Float(7.0).render(), "7");
        assert_eq!(Value::Float(7.25).render(), "7.25");
        assert_eq!(Value::Bool(false).render(), "false");
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(3));
        assert!(set.contains(&Value::Str("3".into())));
        assert!(set.contains(&Value::Float(3.0)));
        assert!(!set.contains(&Value::Int(4)));
    }

    #[test]
    fn non_finite_spellings_stay_text() {
        for s in [
            "NaN",
            "nan",
            "Nan",
            "inf",
            "-inf",
            "+Inf",
            "INF",
            "Infinity",
            "infinity",
            "-INFINITY",
            "1e400",
            "-1e400",
        ] {
            assert!(matches!(Value::from_data(s), Value::Str(_)), "{s}");
            assert_eq!(Value::str(s).as_number(), None, "{s}");
            assert_eq!(Value::from_data(s).render(), s);
        }
        // A text value equals itself, so a `Nan` cell matches its node.
        assert_eq!(Value::from_data("Nan"), Value::from_data("Nan"));
        assert_eq!(Value::from_data("1e300"), Value::Float(1e300));
    }

    #[test]
    fn ordering_of_strings_is_lexicographic() {
        assert_eq!(
            Value::str("apple").compare(&Value::str("banana")),
            Some(Ordering::Less)
        );
    }

    /// Data strings whose values meet at the edges of the typed comparison:
    /// integers one apart above 2^53, spellings of one, booleans against 0 and 1,
    /// the NULL spellings, non-finite text and plain text.
    const POOL: [&str; 20] = [
        "9007199254740992",
        "9007199254740993",
        "9007199254740994",
        "9007199254740992.0",
        "1",
        "01",
        "1.0",
        "1e0",
        "true",
        "false",
        "0",
        "",
        "null",
        "NaN",
        "1e400",
        "abc",
        "1a",
        " x ",
        "-0.0",
        "2.5",
    ];

    fn hash_of(v: &Value) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integers_compare_exactly_beyond_f64_precision() {
        let big = Value::from_data("9007199254740993");
        let below = Value::from_data("9007199254740992");
        assert_ne!(big, below);
        assert_eq!(big.compare(&below), Some(Ordering::Greater));
        // An integral float compares with an integer through `i128`.
        assert_eq!(below, Value::Float(9007199254740992.0));
        assert_eq!(
            big.compare(&Value::Float(9007199254740992.0)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float(9007199254740992.0).compare(&big),
            Some(Ordering::Less)
        );
        // `i64::MAX as f64` rounds up to 2^63; the integer stays below it.
        assert_eq!(
            Value::Int(i64::MAX).compare(&Value::Float(2f64.powi(63))),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(-3).compare(&Value::Float(-2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn booleans_equal_only_booleans_and_their_own_text() {
        assert_ne!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Bool(false), Value::Int(0));
        assert_ne!(Value::Bool(true), Value::Float(1.0));
        assert_eq!(
            Value::Bool(false).compare(&Value::Bool(true)),
            Some(Ordering::Less)
        );
        // Against a non-boolean a boolean orders by rendered text.
        assert_eq!(
            Value::Bool(true).compare(&Value::Int(5)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Bool(true), Value::str("true"));
        assert_eq!(hash_of(&Value::Bool(true)), hash_of(&Value::str("true")));
    }

    #[test]
    fn equality_on_parsed_data_is_an_equivalence_that_hashes_consistently() {
        // Every pool string parsed, and kept as a string.
        let values: Vec<Value> = POOL
            .iter()
            .map(|s| Value::from_data(s))
            .chain(POOL.iter().map(|s| Value::str(*s)))
            .collect();
        let label = |i: usize| {
            let kind = if i < POOL.len() { "data" } else { "str" };
            format!("{kind} {:?}", POOL[i % POOL.len()])
        };
        for (i, a) in values.iter().enumerate() {
            assert_eq!(a, a, "reflexive on {}", label(i));
            for (j, b) in values.iter().enumerate() {
                let (si, sj) = (label(i), label(j));
                assert_eq!(a == b, b == a, "symmetric on {si}, {sj}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "hash of {si}, {sj}");
                    for (k, c) in values.iter().enumerate() {
                        if b == c {
                            assert_eq!(a, c, "transitive on {si}, {sj}, {}", label(k));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rendered_data_renders_the_parsed_value_and_borrows_text() {
        for s in POOL {
            let value = Value::from_data(s);
            let rendered = Value::rendered_data(s);
            assert_eq!(rendered, value.render(), "{s:?}");
            assert_eq!(
                matches!(rendered, Cow::Borrowed(_)),
                matches!(value, Value::Str(_)),
                "{s:?}"
            );
        }
    }

    #[test]
    fn integral_floats_render_as_the_integers_they_equal() {
        // Above 1e15 a float's shortest round-trip digits are not its integer:
        // 2^60 would render `1152921504606847000`, which parses back to another
        // value.  Hash joins key leaves by rendered text, so equal values must
        // render equal.
        let int = Value::from_data("1152921504606846976");
        let float = Value::from_data("1.152921504606846976e18");
        assert!(matches!(float, Value::Float(_)));
        assert_eq!(int, float);
        assert_eq!(float.render(), int.render());
        assert_eq!(Value::from_data(&float.render()), float);
        // The ends of `i64`'s range, and past them the shortest digits.
        assert_eq!(
            Value::Float(-(2f64.powi(63))).render(),
            i64::MIN.to_string()
        );
        assert_eq!(Value::Float(2f64.powi(63)).render(), "9223372036854776000");
        assert_eq!(Value::Float(1e20).render(), "100000000000000000000");
        assert_eq!(Value::Float(-0.0).render(), "0");
    }
}
