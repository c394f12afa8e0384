//! The top-k query interface every crawler speaks.

use crate::error::DbError;
use crate::query::Query;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// The server's response to one query (§1.1 of the paper).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryOutcome {
    /// The returned tuples: all of `q(D)` if the query resolved, otherwise
    /// exactly `k` tuples chosen deterministically by the server.
    pub tuples: Vec<Tuple>,
    /// The overflow signal: `true` means `|q(D)| > k` and the returned
    /// tuples are only a fixed subset — re-issuing the same query will
    /// return the same subset.
    pub overflow: bool,
}

impl QueryOutcome {
    /// A resolved (complete) response.
    pub fn resolved(tuples: Vec<Tuple>) -> Self {
        QueryOutcome {
            tuples,
            overflow: false,
        }
    }

    /// An overflowing (truncated) response.
    pub fn overflowed(tuples: Vec<Tuple>) -> Self {
        QueryOutcome {
            tuples,
            overflow: true,
        }
    }

    /// True if the query resolved (the whole result was returned).
    #[inline]
    pub fn is_resolved(&self) -> bool {
        !self.overflow
    }

    /// Number of returned tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples were returned (only possible for resolved
    /// queries).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A hidden database reachable only through its top-k query interface.
///
/// This trait captures everything a crawler may rely on:
///
/// * [`schema`](HiddenDatabase::schema) — the attribute list and the
///   categorical domain sizes (the paper assumes the crawler knows these,
///   e.g. from pull-down menus; see §1.3 "Domain values");
/// * [`k`](HiddenDatabase::k) — the server's return limit;
/// * [`query`](HiddenDatabase::query) — issue one query and receive a
///   [`QueryOutcome`].
///
/// Implementations must be *deterministic*: issuing the same query twice
/// returns the same outcome (repeating an overflowing query never reveals
/// new tuples). This is the adversarial assumption under which the paper's
/// bounds are proven, and the in-process simulator in `hdc-server` honors
/// it exactly.
///
/// `query` takes `&mut self` so implementations can count queries, enforce
/// budgets, and keep caches without interior mutability.
pub trait HiddenDatabase {
    /// The data-space schema.
    fn schema(&self) -> &Schema;

    /// The server's result-size limit `k ≥ 1`.
    fn k(&self) -> usize;

    /// Executes one query.
    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError>;

    /// Executes a batch of queries, returning one outcome per query, in
    /// input order.
    ///
    /// A batch is semantically nothing more than a loop:
    /// `query_batch(qs)?[i]` must be bit-identical to `query(&qs[i])?`
    /// issued at the same point in the session, and each query is charged
    /// individually toward [`queries_issued`](HiddenDatabase::queries_issued).
    /// The default implementation *is* that loop. Implementations may
    /// override it to answer the batch more efficiently — the simulator in
    /// `hdc-server` walks a driver list once for sibling probes —
    /// but must preserve the per-query equivalence; crawlers batch sibling
    /// queries (slice fetches, split probes) purely as a performance hint.
    ///
    /// Error semantics: the default loop stops at the first failing query
    /// and discards the successful prefix's outcomes (decorators such as
    /// budget or recording wrappers still observe — and charge or cache —
    /// that prefix). Implementations may instead validate the whole batch
    /// up front and reject it without executing anything, as the
    /// in-process server does for invalid queries. Callers that need
    /// exact cost accounting across a mid-batch failure should compare
    /// [`queries_issued`](HiddenDatabase::queries_issued) before and
    /// after the call.
    fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        queries.iter().map(|q| self.query(q)).collect()
    }

    /// Executes a batch of queries, keeping the successful prefix when one
    /// fails mid-batch.
    ///
    /// [`query_batch`](HiddenDatabase::query_batch) stops at the first
    /// failing query and discards the successful prefix's outcomes — fine
    /// for all-or-nothing callers, but a retry loop that re-issues the
    /// whole batch would pay for the prefix twice. This variant returns
    /// `(prefix_outcomes, error)`: every outcome obtained before the
    /// failure (possibly all of them, with `None` for the error), so a
    /// caller can account the prefix and re-issue only the failed suffix.
    ///
    /// The default implementation is the per-query loop; each answered
    /// query is charged toward
    /// [`queries_issued`](HiddenDatabase::queries_issued) exactly as if
    /// issued through [`query`](HiddenDatabase::query). Implementations
    /// that validate batches up front and charge nothing on rejection
    /// (like the in-process server) may override this to return an empty
    /// prefix with the batch error. The documented
    /// [`query_batch`](HiddenDatabase::query_batch) contract is unchanged.
    fn try_query_batch(&mut self, queries: &[Query]) -> (Vec<QueryOutcome>, Option<DbError>) {
        let mut outs = Vec::with_capacity(queries.len());
        for q in queries {
            match self.query(q) {
                Ok(out) => outs.push(out),
                Err(e) => return (outs, Some(e)),
            }
        }
        (outs, None)
    }

    /// Number of queries issued so far (for cost accounting). Default
    /// implementations that cannot count may return 0.
    fn queries_issued(&self) -> u64 {
        0
    }
}

/// Forwards every method through a pointer: `&mut T` lets a borrowed
/// database stand in for an owned one, and `Box<T>` lets one connector
/// mint connections of different backends (`Box<dyn HiddenDatabase>`).
macro_rules! forward_database {
    ($($ptr:ty),*) => {$(
        impl<T: HiddenDatabase + ?Sized> HiddenDatabase for $ptr {
            fn schema(&self) -> &Schema {
                (**self).schema()
            }

            fn k(&self) -> usize {
                (**self).k()
            }

            fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
                (**self).query(q)
            }

            fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
                (**self).query_batch(queries)
            }

            fn try_query_batch(
                &mut self,
                queries: &[Query],
            ) -> (Vec<QueryOutcome>, Option<DbError>) {
                (**self).try_query_batch(queries)
            }

            fn queries_issued(&self) -> u64 {
                (**self).queries_issued()
            }
        }
    )*};
}

forward_database!(&mut T, Box<T>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::tuple::int_tuple;

    /// A minimal in-memory implementation used to exercise the trait
    /// object path (the real simulator lives in `hdc-server`).
    struct TinyDb {
        schema: Schema,
        rows: Vec<Tuple>,
        k: usize,
        issued: u64,
    }

    impl HiddenDatabase for TinyDb {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn k(&self) -> usize {
            self.k
        }

        fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
            q.validate(&self.schema)?;
            self.issued += 1;
            let matches: Vec<Tuple> = self.rows.iter().filter(|t| q.matches(t)).cloned().collect();
            if matches.len() <= self.k {
                Ok(QueryOutcome::resolved(matches))
            } else {
                Ok(QueryOutcome::overflowed(matches[..self.k].to_vec()))
            }
        }

        fn queries_issued(&self) -> u64 {
            self.issued
        }
    }

    fn tiny() -> TinyDb {
        TinyDb {
            schema: Schema::builder().numeric("a", 0, 9).build().unwrap(),
            rows: (0..5).map(|x| int_tuple(&[x])).collect(),
            k: 3,
            issued: 0,
        }
    }

    #[test]
    fn outcome_constructors() {
        let r = QueryOutcome::resolved(vec![]);
        assert!(r.is_resolved());
        assert!(r.is_empty());
        let o = QueryOutcome::overflowed(vec![int_tuple(&[1])]);
        assert!(!o.is_resolved());
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn trait_object_usage() {
        let mut db = tiny();
        let dyn_db: &mut dyn HiddenDatabase = &mut db;
        let q = Query::new(vec![Predicate::Range { lo: 0, hi: 1 }]);
        let out = dyn_db.query(&q).unwrap();
        assert!(out.is_resolved());
        assert_eq!(out.len(), 2);
        assert_eq!(dyn_db.queries_issued(), 1);
    }

    #[test]
    fn overflow_when_too_many() {
        let mut db = tiny();
        let out = db.query(&Query::any(1)).unwrap();
        assert!(out.overflow);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn mut_ref_blanket_impl() {
        let mut db = tiny();
        fn run(mut d: impl HiddenDatabase) -> u64 {
            d.query(&Query::any(1)).unwrap();
            d.queries_issued()
        }
        assert_eq!(run(&mut db), 1);
        assert_eq!(db.issued, 1);
    }

    #[test]
    fn default_query_batch_is_the_per_query_loop() {
        let mut batched = tiny();
        let mut looped = tiny();
        let queries = vec![
            Query::new(vec![Predicate::Range { lo: 0, hi: 1 }]),
            Query::any(1),
            Query::new(vec![Predicate::Range { lo: 0, hi: 1 }]), // duplicate
            Query::new(vec![Predicate::Range { lo: 9, hi: 9 }]), // empty
        ];
        let outs = batched.query_batch(&queries).unwrap();
        let want: Vec<QueryOutcome> = queries.iter().map(|q| looped.query(q).unwrap()).collect();
        assert_eq!(outs, want);
        assert_eq!(batched.queries_issued(), looped.queries_issued());
        assert!(batched.query_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn default_query_batch_stops_at_first_error() {
        let mut db = tiny();
        let queries = vec![
            Query::any(1),
            Query::new(vec![Predicate::Eq(0)]), // invalid: Eq on numeric
            Query::any(1),
        ];
        assert!(matches!(
            db.query_batch(&queries),
            Err(DbError::InvalidQuery(_))
        ));
        // The valid prefix was executed (and charged) before the failure.
        assert_eq!(db.queries_issued(), 1);
    }

    #[test]
    fn mut_ref_blanket_forwards_query_batch() {
        let mut db = tiny();
        let dyn_db: &mut dyn HiddenDatabase = &mut db;
        let outs = dyn_db.query_batch(&[Query::any(1), Query::any(1)]).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], outs[1], "deterministic server repeats itself");
        assert_eq!(db.issued, 2);
    }

    #[test]
    fn try_query_batch_keeps_the_successful_prefix() {
        let mut db = tiny();
        let queries = vec![
            Query::any(1),
            Query::new(vec![Predicate::Range { lo: 0, hi: 1 }]),
            Query::new(vec![Predicate::Eq(0)]), // invalid: Eq on numeric
            Query::any(1),
        ];
        let (outs, err) = db.try_query_batch(&queries);
        assert_eq!(outs.len(), 2, "prefix before the failure survives");
        assert!(matches!(err, Some(DbError::InvalidQuery(_))));
        assert_eq!(db.queries_issued(), 2, "exactly the prefix was charged");

        // A clean batch returns everything and no error.
        let (outs, err) = db.try_query_batch(&queries[..2]);
        assert_eq!(outs.len(), 2);
        assert!(err.is_none());

        // The blanket &mut impl forwards it.
        let dyn_db: &mut dyn HiddenDatabase = &mut db;
        let (outs, err) = dyn_db.try_query_batch(&queries[..1]);
        assert_eq!(outs.len(), 1);
        assert!(err.is_none());
    }

    #[test]
    fn invalid_query_rejected_without_counting() {
        let mut db = tiny();
        let bad = Query::new(vec![Predicate::Eq(0)]);
        assert!(matches!(db.query(&bad), Err(DbError::InvalidQuery(_))));
        assert_eq!(db.queries_issued(), 0);
    }
}
