//! Error types shared across the workspace.

use std::fmt;

use crate::schema::AttrKind;

/// Schema and query validation errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchemaError {
    /// A schema must have at least one attribute.
    Empty,
    /// Categorical attribute with zero domain values.
    EmptyDomain {
        /// Offending attribute index.
        attr: usize,
    },
    /// Numeric attribute with `min > max`.
    InvalidBounds {
        /// Offending attribute index.
        attr: usize,
        /// Declared minimum.
        min: i64,
        /// Declared maximum.
        max: i64,
    },
    /// Tuple or query arity differs from the schema's.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Supplied arity.
        found: usize,
    },
    /// Value or predicate kind does not match the attribute kind.
    KindMismatch {
        /// Offending attribute index.
        attr: usize,
        /// The attribute kind that was expected.
        expected: AttrKind,
    },
    /// Categorical value outside `0..size`.
    ValueOutOfDomain {
        /// Offending attribute index.
        attr: usize,
        /// The out-of-domain value.
        value: u32,
        /// The domain size.
        size: u32,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchemaError::Empty => write!(f, "schema has no attributes"),
            SchemaError::EmptyDomain { attr } => {
                write!(f, "attribute {attr} has an empty categorical domain")
            }
            SchemaError::InvalidBounds { attr, min, max } => {
                write!(
                    f,
                    "attribute {attr} has invalid numeric bounds [{min}, {max}]"
                )
            }
            SchemaError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} attributes, got {found}"
                )
            }
            SchemaError::KindMismatch { attr, expected } => {
                let kind = match expected {
                    AttrKind::Categorical { .. } => "categorical",
                    AttrKind::Numeric { .. } => "numeric",
                };
                write!(
                    f,
                    "attribute {attr} is {kind}; value/predicate kind mismatch"
                )
            }
            SchemaError::ValueOutOfDomain { attr, value, size } => {
                write!(
                    f,
                    "value {value} outside domain of size {size} on attribute {attr}"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Errors surfaced by a [`crate::HiddenDatabase`] implementation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    /// The query failed schema validation.
    InvalidQuery(SchemaError),
    /// A query budget (rate limit) was exhausted.
    ///
    /// Mirrors real hidden-database deployments, which cap the number of
    /// queries per client per period (§1.1: "most systems have a control on
    /// how many queries can be submitted by the same IP address").
    BudgetExhausted {
        /// Queries issued before the limit was hit.
        issued: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Implementation-specific *permanent* failure (e.g. an authentication
    /// rejection or hard ban for a remote interface). Retrying the same
    /// query on the same connection cannot succeed.
    Backend(String),
    /// Implementation-specific *transient* failure (e.g. a timeout or a
    /// 5xx-style transport hiccup for a remote interface). The query was
    /// not answered, but re-issuing it — after a backoff — may succeed;
    /// [`DbError::is_transient`] is how retry policy tells the two apart.
    Transient(String),
}

impl DbError {
    /// True for failures worth retrying on the same connection.
    ///
    /// Only [`DbError::Transient`] qualifies: invalid queries stay
    /// invalid, an exhausted budget stays exhausted for the period, and
    /// [`DbError::Backend`] is permanent by definition. This predicate is
    /// the single policy switch the session-layer retry loop and the
    /// sharded identity-health tracking consult.
    pub fn is_transient(&self) -> bool {
        matches!(self, DbError::Transient(_))
    }

    /// The HTTP-style status code this error maps to on a wire transport.
    ///
    /// This is the single source of truth both ends of the `hdc-net`
    /// loopback protocol share, so the taxonomy survives a round trip:
    /// invalid queries are client errors (400), an exhausted budget is
    /// rate limiting (429), a permanent backend failure is a hard
    /// rejection (403), and a transient one is a retryable server error
    /// (503) — the one class [`DbError::is_transient`] admits back on the
    /// client side.
    pub fn wire_status(&self) -> u16 {
        match self {
            DbError::InvalidQuery(_) => 400,
            DbError::BudgetExhausted { .. } => 429,
            DbError::Backend(_) => 403,
            DbError::Transient(_) => 503,
        }
    }

    /// True when an HTTP-style status received over the wire denotes a
    /// *transient* failure worth retrying (the inverse of
    /// [`DbError::wire_status`] for the retryable class: any 5xx).
    pub fn status_is_transient(status: u16) -> bool {
        (500..600).contains(&status)
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            DbError::BudgetExhausted { issued, limit } => {
                write!(
                    f,
                    "query budget exhausted after {issued} of {limit} queries"
                )
            }
            DbError::Backend(msg) => write!(f, "backend error: {msg}"),
            DbError::Transient(msg) => write!(f, "transient backend error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::InvalidQuery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemaError> for DbError {
    fn from(e: SchemaError) -> Self {
        DbError::InvalidQuery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_error_display() {
        let e = SchemaError::ArityMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("2"));
        let e = SchemaError::ValueOutOfDomain {
            attr: 1,
            value: 9,
            size: 4,
        };
        assert!(e.to_string().contains("9"));
    }

    #[test]
    fn db_error_wraps_schema_error() {
        let inner = SchemaError::Empty;
        let e: DbError = inner.into();
        assert!(matches!(e, DbError::InvalidQuery(SchemaError::Empty)));
        assert!(e.to_string().contains("invalid query"));
    }

    #[test]
    fn transience_taxonomy() {
        assert!(DbError::Transient("timeout".into()).is_transient());
        assert!(!DbError::Backend("banned".into()).is_transient());
        assert!(!DbError::InvalidQuery(SchemaError::Empty).is_transient());
        assert!(!DbError::BudgetExhausted {
            issued: 1,
            limit: 1
        }
        .is_transient());
        let e = DbError::Transient("timeout".into());
        assert!(e.to_string().contains("transient"));
        assert!(e.to_string().contains("timeout"));
    }

    #[test]
    fn wire_status_round_trips_the_taxonomy() {
        assert_eq!(DbError::InvalidQuery(SchemaError::Empty).wire_status(), 400);
        assert_eq!(
            DbError::BudgetExhausted {
                issued: 1,
                limit: 1
            }
            .wire_status(),
            429
        );
        assert_eq!(DbError::Backend("banned".into()).wire_status(), 403);
        assert_eq!(DbError::Transient("flap".into()).wire_status(), 503);
        // Transience survives the mapping: exactly the 5xx class comes
        // back retryable.
        for e in [
            DbError::InvalidQuery(SchemaError::Empty),
            DbError::BudgetExhausted {
                issued: 1,
                limit: 1,
            },
            DbError::Backend("banned".into()),
            DbError::Transient("flap".into()),
        ] {
            assert_eq!(
                DbError::status_is_transient(e.wire_status()),
                e.is_transient()
            );
        }
    }

    #[test]
    fn budget_display() {
        let e = DbError::BudgetExhausted {
            issued: 10,
            limit: 10,
        };
        assert!(e.to_string().contains("10"));
    }
}
