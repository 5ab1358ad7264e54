//! Typed relational cell values.
//!
//! HDT node data is stored as strings, but the relational tables Mitra produces (and
//! the constants that appear in predicates) behave like typed values: `3` and `03`
//! compare equal numerically, `"10" < "9"` is false when both parse as numbers, and so
//! on.  [`Value`] captures this: it keeps the original text but compares numerically
//! whenever both operands are numeric.

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

    /// The non-text value a data string parses to, or `None` when it stays a
    /// string: the one classifier behind [`Value::from_data`] and
    /// `From<String>`.
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
        if let Ok(i) = t.parse::<i64>() {
            return Some(Value::Int(i));
        }
        parse_finite(t).map(Value::Float)
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
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{}", *f as i64)
                } else {
                    format!("{f}")
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => s.clone(),
        }
    }

    /// Comparison used by the DSL predicates: numeric when both sides are numeric,
    /// textual otherwise.  NULL compares equal only to NULL and is unordered otherwise.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            (Value::Null, _) | (_, Value::Null) => None,
            _ => {
                if let (Some(a), Some(b)) = (self.as_number(), other.as_number()) {
                    a.partial_cmp(&b)
                } else {
                    Some(self.render().cmp(&other.render()))
                }
            }
        }
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
        // rendering, everything else by its text.
        if let Some(n) = self.as_number() {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                (n as i64).hash(state);
            } else {
                n.to_bits().hash(state);
            }
        } else {
            self.render().hash(state);
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
}
