//! Attribute values.

use std::fmt;

/// A single attribute value.
///
/// Numeric attributes take [`Value::Int`] (the paper models numeric domains
/// as "the set of all integers"); categorical attributes take
/// [`Value::Cat`] with values in `0..U` for a domain of size `U`.
///
/// The derived `Ord` orders all `Int` values before all `Cat` values, but in
/// a well-formed dataset a column is homogeneous, so cross-variant
/// comparisons never arise when sorting tuples of the same schema.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// A numeric value.
    Int(i64),
    /// A categorical value (an index into the attribute's domain).
    Cat(u32),
}

impl Value {
    /// Returns the inner numeric value, or `None` for categorical values.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(x),
            Value::Cat(_) => None,
        }
    }

    /// Returns the inner categorical value, or `None` for numeric values.
    #[inline]
    pub fn as_cat(self) -> Option<u32> {
        match self {
            Value::Cat(c) => Some(c),
            Value::Int(_) => None,
        }
    }

    /// Returns the numeric value, panicking on a categorical value.
    ///
    /// Intended for callers that have already validated the tuple against a
    /// schema (e.g. the crawl algorithms after `Schema::validate_tuple`).
    #[inline]
    pub fn expect_int(self) -> i64 {
        match self {
            Value::Int(x) => x,
            Value::Cat(c) => panic!("expected numeric value, found categorical {c}"),
        }
    }

    /// Returns the categorical value, panicking on a numeric value.
    #[inline]
    pub fn expect_cat(self) -> u32 {
        match self {
            Value::Cat(c) => c,
            Value::Int(x) => panic!("expected categorical value, found numeric {x}"),
        }
    }

    /// True if this is a numeric value.
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(self, Value::Int(_))
    }

    /// True if this is a categorical value.
    #[inline]
    pub fn is_cat(self) -> bool {
        matches!(self, Value::Cat(_))
    }

    /// Appends the compact text token shared by the checkpoint, wire and
    /// trace formats: `c5` for categorical 5, `i-7` for numeric −7.
    /// Tokens contain only `[ci0-9-]`, so they never need escaping.
    ///
    /// Every checkpoint, trace and wire answer writes one token per
    /// value, so the digits come from a stack buffer rather than through
    /// `core::fmt`; the bytes are the ones `format!("c{c}")` /
    /// `format!("i{x}")` would produce.
    #[inline]
    pub fn push_token(self, out: &mut String) {
        let (tag, magnitude) = match self {
            Value::Cat(c) => ("c", u64::from(c)),
            Value::Int(x) if x < 0 => ("i-", x.unsigned_abs()),
            Value::Int(x) => ("i", x.unsigned_abs()),
        };
        out.push_str(tag);
        let mut digits = [0u8; 20]; // u64::MAX has 20 decimal digits
        let mut start = digits.len();
        let mut rest = magnitude;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    /// Parses a token written by [`Value::push_token`]; `None` for
    /// anything else (any input, never a panic).
    pub fn parse_token(token: &str) -> Option<Value> {
        if let Some(digits) = token.strip_prefix('c') {
            digits.parse().ok().map(Value::Cat)
        } else if let Some(digits) = token.strip_prefix('i') {
            digits.parse().ok().map(Value::Int)
        } else {
            None
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Cat(c) => write!(f, "#{c}"),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Cat(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(-7).as_int(), Some(-7));
        assert_eq!(Value::Int(-7).as_cat(), None);
        assert_eq!(Value::Cat(3).as_cat(), Some(3));
        assert_eq!(Value::Cat(3).as_int(), None);
        assert_eq!(Value::Int(5).expect_int(), 5);
        assert_eq!(Value::Cat(9).expect_cat(), 9);
    }

    #[test]
    fn kind_predicates() {
        assert!(Value::Int(0).is_int());
        assert!(!Value::Int(0).is_cat());
        assert!(Value::Cat(0).is_cat());
        assert!(!Value::Cat(0).is_int());
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn expect_int_panics_on_cat() {
        Value::Cat(1).expect_int();
    }

    #[test]
    #[should_panic(expected = "expected categorical")]
    fn expect_cat_panics_on_int() {
        Value::Int(1).expect_cat();
    }

    #[test]
    fn ordering_within_variant() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(-5) < Value::Int(0));
        assert!(Value::Cat(1) < Value::Cat(2));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Cat(4).to_string(), "#4");
    }

    #[test]
    fn tokens_round_trip_and_reject_garbage() {
        for v in [
            Value::Cat(0),
            Value::Cat(u32::MAX),
            Value::Int(-7),
            Value::Int(i64::MIN),
        ] {
            let mut token = String::new();
            v.push_token(&mut token);
            assert_eq!(Value::parse_token(&token), Some(v), "{token}");
        }
        for bad in ["", "c", "i", "x5", "c-1", "c4294967296", "i1.5", "€1", "c€"] {
            assert_eq!(Value::parse_token(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn tokens_match_format_byte_for_byte() {
        let cases = [
            Value::Cat(0),
            Value::Cat(7),
            Value::Cat(u32::MAX),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(10),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(i64::from(u32::MAX)),
        ];
        for v in cases {
            let want = match v {
                Value::Cat(c) => format!("c{c}"),
                Value::Int(x) => format!("i{x}"),
            };
            let mut token = String::from("prefix:");
            v.push_token(&mut token);
            assert_eq!(token.strip_prefix("prefix:"), Some(want.as_str()), "{v:?}");
            assert_eq!(Value::parse_token(&want), Some(v), "{want}");
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7u32), Value::Cat(7));
    }
}
