//! Per-attribute query predicates.

use std::fmt;

use crate::error::SchemaError;
use crate::schema::AttrKind;
use crate::value::Value;

/// The predicate a query places on one attribute.
///
/// Following the paper's interface model (§1.1): numeric attributes accept
/// range conditions `Ai ∈ [lo, hi]`, categorical attributes accept a single
/// equality `Ai = x`, and any attribute can be left unconstrained with the
/// wildcard `⋆` ([`Predicate::Any`]; for a numeric attribute this is the
/// range `(−∞, ∞)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Predicate {
    /// Wildcard: the attribute may take any domain value.
    Any,
    /// Categorical equality `Ai = value`.
    Eq(u32),
    /// Numeric range `Ai ∈ [lo, hi]` (inclusive on both ends).
    Range {
        /// Lower endpoint.
        lo: i64,
        /// Upper endpoint.
        hi: i64,
    },
}

impl Predicate {
    /// Full-range predicate on a numeric attribute. Equivalent to
    /// [`Predicate::Any`] for matching purposes, but explicit about bounds.
    pub const FULL_RANGE: Predicate = Predicate::Range {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// Does `value` satisfy the predicate?
    ///
    /// A `Range` never matches a categorical value and `Eq` never matches a
    /// numeric value: predicates are kind-checked by
    /// [`Predicate::validate`] before a query reaches the server, so a kind
    /// mismatch here simply yields `false`.
    #[inline]
    pub fn matches(self, value: Value) -> bool {
        match (self, value) {
            (Predicate::Any, _) => true,
            (Predicate::Eq(c), Value::Cat(v)) => c == v,
            (Predicate::Range { lo, hi }, Value::Int(x)) => lo <= x && x <= hi,
            _ => false,
        }
    }

    /// True for the wildcard.
    #[inline]
    pub fn is_any(self) -> bool {
        matches!(self, Predicate::Any)
    }

    /// True if the predicate constrains the attribute (not a wildcard and,
    /// for ranges, not the full `i64` range).
    #[inline]
    pub fn is_constraining(self) -> bool {
        match self {
            Predicate::Any => false,
            Predicate::Eq(_) => true,
            Predicate::Range { lo, hi } => lo != i64::MIN || hi != i64::MAX,
        }
    }

    /// True if no value can satisfy the predicate (an empty range).
    #[inline]
    pub fn is_empty(self) -> bool {
        match self {
            Predicate::Range { lo, hi } => lo > hi,
            _ => false,
        }
    }

    /// Intersection of two predicates on the same attribute: the
    /// predicate matching exactly the values both match, or `None` when
    /// no value satisfies both.
    ///
    /// Mixed-kind pairs (`Eq` vs `Range`) cannot both come from one
    /// attribute of a valid schema; they intersect to `None`.
    pub fn intersect(self, other: Predicate) -> Option<Predicate> {
        match (self, other) {
            (Predicate::Any, p) | (p, Predicate::Any) => Some(p),
            (Predicate::Eq(a), Predicate::Eq(b)) => (a == b).then_some(Predicate::Eq(a)),
            (Predicate::Range { lo: a_lo, hi: a_hi }, Predicate::Range { lo: b_lo, hi: b_hi }) => {
                let lo = a_lo.max(b_lo);
                let hi = a_hi.min(b_hi);
                (lo <= hi).then_some(Predicate::Range { lo, hi })
            }
            _ => None,
        }
    }

    /// Checks the predicate against an attribute kind: ranges only on
    /// numeric attributes, equalities only on in-domain categorical values.
    pub fn validate(self, attr: usize, kind: AttrKind) -> Result<(), SchemaError> {
        match (self, kind) {
            (Predicate::Any, _) => Ok(()),
            (Predicate::Eq(c), AttrKind::Categorical { size }) => {
                if c < size {
                    Ok(())
                } else {
                    Err(SchemaError::ValueOutOfDomain {
                        attr,
                        value: c,
                        size,
                    })
                }
            }
            (Predicate::Range { .. }, AttrKind::Numeric { .. }) => Ok(()),
            (_, expected) => Err(SchemaError::KindMismatch { attr, expected }),
        }
    }

    /// The compact text token shared by the wire protocol and shard
    /// signatures: `*` (any), `=5` (categorical equality) and `lo..hi`
    /// (inclusive numeric range). Tokens contain only `[*=.0-9-]`, so
    /// they never need escaping.
    pub fn token(self) -> String {
        match self {
            Predicate::Any => "*".to_string(),
            Predicate::Eq(v) => format!("={v}"),
            Predicate::Range { lo, hi } => format!("{lo}..{hi}"),
        }
    }

    /// Parses a token written by [`Predicate::token`]; the error names
    /// what is malformed (any input, never a panic).
    pub fn parse_token(tok: &str) -> Result<Predicate, String> {
        if tok == "*" {
            return Ok(Predicate::Any);
        }
        if let Some(rest) = tok.strip_prefix('=') {
            return rest
                .parse::<u32>()
                .map(Predicate::Eq)
                .map_err(|_| format!("bad equality predicate {tok:?}"));
        }
        if let Some((lo, hi)) = tok.split_once("..") {
            let lo = lo
                .parse::<i64>()
                .map_err(|_| format!("bad range lower bound {tok:?}"))?;
            let hi = hi
                .parse::<i64>()
                .map_err(|_| format!("bad range upper bound {tok:?}"))?;
            return Ok(Predicate::Range { lo, hi });
        }
        Err(format!("bad predicate token {tok:?}"))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Predicate::Any => write!(f, "*"),
            Predicate::Eq(c) => write!(f, "=#{c}"),
            Predicate::Range { lo, hi } => match (lo == i64::MIN, hi == i64::MAX) {
                (true, true) => write!(f, "∈(-inf,inf)"),
                (true, false) => write!(f, "∈(-inf,{hi}]"),
                (false, true) => write!(f, "∈[{lo},inf)"),
                (false, false) => {
                    if lo == hi {
                        write!(f, "={lo}")
                    } else {
                        write!(f, "∈[{lo},{hi}]")
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_matches_everything() {
        assert!(Predicate::Any.matches(Value::Int(i64::MIN)));
        assert!(Predicate::Any.matches(Value::Cat(0)));
    }

    #[test]
    fn eq_matches_only_its_value() {
        let p = Predicate::Eq(3);
        assert!(p.matches(Value::Cat(3)));
        assert!(!p.matches(Value::Cat(4)));
        assert!(!p.matches(Value::Int(3)));
    }

    #[test]
    fn range_is_inclusive() {
        let p = Predicate::Range { lo: -2, hi: 5 };
        assert!(p.matches(Value::Int(-2)));
        assert!(p.matches(Value::Int(0)));
        assert!(p.matches(Value::Int(5)));
        assert!(!p.matches(Value::Int(-3)));
        assert!(!p.matches(Value::Int(6)));
        assert!(!p.matches(Value::Cat(0)));
    }

    #[test]
    fn degenerate_and_empty_ranges() {
        let point = Predicate::Range { lo: 7, hi: 7 };
        assert!(point.matches(Value::Int(7)));
        assert!(!point.is_empty());
        let empty = Predicate::Range { lo: 8, hi: 7 };
        assert!(empty.is_empty());
        assert!(!empty.matches(Value::Int(7)));
    }

    #[test]
    fn constraining_classification() {
        assert!(!Predicate::Any.is_constraining());
        assert!(!Predicate::FULL_RANGE.is_constraining());
        assert!(Predicate::Eq(0).is_constraining());
        assert!(Predicate::Range {
            lo: 0,
            hi: i64::MAX
        }
        .is_constraining());
        assert!(Predicate::Range {
            lo: i64::MIN,
            hi: 0
        }
        .is_constraining());
    }

    #[test]
    fn validate_kinds() {
        let cat = AttrKind::Categorical { size: 4 };
        let num = AttrKind::Numeric { min: 0, max: 10 };
        assert!(Predicate::Any.validate(0, cat).is_ok());
        assert!(Predicate::Any.validate(0, num).is_ok());
        assert!(Predicate::Eq(3).validate(0, cat).is_ok());
        assert!(Predicate::Eq(4).validate(0, cat).is_err());
        assert!(Predicate::Eq(0).validate(0, num).is_err());
        assert!(Predicate::Range { lo: 0, hi: 1 }.validate(0, num).is_ok());
        assert!(Predicate::Range { lo: 0, hi: 1 }.validate(0, cat).is_err());
    }

    #[test]
    fn intersect_any_is_identity() {
        let r = Predicate::Range { lo: 1, hi: 5 };
        assert_eq!(Predicate::Any.intersect(r), Some(r));
        assert_eq!(r.intersect(Predicate::Any), Some(r));
        assert_eq!(
            Predicate::Any.intersect(Predicate::Any),
            Some(Predicate::Any)
        );
    }

    #[test]
    fn intersect_eq() {
        assert_eq!(
            Predicate::Eq(3).intersect(Predicate::Eq(3)),
            Some(Predicate::Eq(3))
        );
        assert_eq!(Predicate::Eq(3).intersect(Predicate::Eq(4)), None);
    }

    #[test]
    fn intersect_ranges() {
        let a = Predicate::Range { lo: 0, hi: 10 };
        let b = Predicate::Range { lo: 5, hi: 20 };
        assert_eq!(a.intersect(b), Some(Predicate::Range { lo: 5, hi: 10 }));
        let c = Predicate::Range { lo: 11, hi: 12 };
        assert_eq!(a.intersect(c), None);
        // Touching endpoints intersect in a single point.
        let d = Predicate::Range { lo: 10, hi: 15 };
        assert_eq!(a.intersect(d), Some(Predicate::Range { lo: 10, hi: 10 }));
    }

    #[test]
    fn intersect_mixed_kinds_is_empty() {
        assert_eq!(
            Predicate::Eq(1).intersect(Predicate::Range { lo: 0, hi: 9 }),
            None
        );
    }

    #[test]
    fn intersect_is_sound_on_samples() {
        // A value matches the intersection iff it matches both.
        let preds = [
            Predicate::Any,
            Predicate::Range { lo: -3, hi: 4 },
            Predicate::Range { lo: 4, hi: 9 },
            Predicate::Range { lo: 5, hi: 5 },
        ];
        for &a in &preds {
            for &b in &preds {
                let isect = a.intersect(b);
                for v in -5..12 {
                    let val = Value::Int(v);
                    let both = a.matches(val) && b.matches(val);
                    let via = isect.map(|p| p.matches(val)).unwrap_or(false);
                    assert_eq!(both, via, "a={a} b={b} v={v}");
                }
            }
        }
    }

    #[test]
    fn tokens_round_trip_and_reject_garbage() {
        for p in [
            Predicate::Any,
            Predicate::Eq(0),
            Predicate::Eq(u32::MAX),
            Predicate::Range { lo: -7, hi: 12 },
            Predicate::FULL_RANGE,
        ] {
            assert_eq!(Predicate::parse_token(&p.token()), Ok(p), "{p:?}");
        }
        assert_eq!(Predicate::Eq(5).token(), "=5");
        assert_eq!(Predicate::Range { lo: -3, hi: -1 }.token(), "-3..-1");
        for bad in ["", "**", "=", "=-1", "=x", "1..", "..2", "1...2", "c5"] {
            assert!(Predicate::parse_token(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Predicate::Any.to_string(), "*");
        assert_eq!(Predicate::Eq(2).to_string(), "=#2");
        assert_eq!(Predicate::Range { lo: 1, hi: 9 }.to_string(), "∈[1,9]");
        assert_eq!(Predicate::Range { lo: 4, hi: 4 }.to_string(), "=4");
        assert_eq!(Predicate::FULL_RANGE.to_string(), "∈(-inf,inf)");
        assert_eq!(
            Predicate::Range {
                lo: i64::MIN,
                hi: 3
            }
            .to_string(),
            "∈(-inf,3]"
        );
        assert_eq!(
            Predicate::Range {
                lo: 3,
                hi: i64::MAX
            }
            .to_string(),
            "∈[3,inf)"
        );
    }
}
