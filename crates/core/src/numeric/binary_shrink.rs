//! The **binary-shrink** baseline (§2.1).
//!
//! Repeatedly halves the extent of the first non-exhausted attribute until
//! every rectangle resolves. Its cost depends on the *domain widths* of
//! the attributes (the recursion must descend `log₂(width)` levels before
//! rectangles become small), which is exactly the weakness rank-shrink
//! removes; the Figure 10 experiments quantify the gap.

use hdc_types::{AttrKind, HiddenDatabase, Predicate, Query, QueryOutcome, Schema};

use crate::crawler::Crawler;
use crate::dependency::ValidityOracle;
use crate::numeric::extent::{extent, is_exhausted, midpoint_ceil, split2};
use crate::report::{CrawlError, CrawlReport};
use crate::session::{run_crawl, Abort, Session, SessionConfig};

/// Configuration for the binary-shrink baseline.
///
/// Binary-shrink needs finite starting extents to halve, so the initial
/// rectangle uses the schema's declared numeric bounds. Tuples outside the
/// declared bounds would be missed — the simulator datasets always declare
/// correct bounds.
#[derive(Default)]
pub struct BinaryShrink<'o> {
    oracle: Option<&'o dyn ValidityOracle>,
}

impl<'o> BinaryShrink<'o> {
    /// A baseline crawler with default settings.
    pub fn new() -> Self {
        BinaryShrink { oracle: None }
    }

    /// Attaches a §1.3 validity oracle (provably-empty rectangles are
    /// skipped without a server query).
    pub fn with_oracle(oracle: &'o dyn ValidityOracle) -> Self {
        BinaryShrink {
            oracle: Some(oracle),
        }
    }

    /// The initial rectangle: declared bounds on every attribute.
    fn initial_query(schema: &Schema) -> Query {
        Query::new(
            (0..schema.arity())
                .map(|a| match schema.kind(a) {
                    AttrKind::Numeric { min, max } => Predicate::Range { lo: min, hi: max },
                    AttrKind::Categorical { .. } => {
                        unreachable!("binary-shrink requires a numeric schema")
                    }
                })
                .collect::<Vec<_>>(),
        )
    }

    fn run(&self, session: &mut Session<'_>, schema: &Schema) -> Result<(), Abort> {
        let d = schema.arity();
        // Depth-first: process the left rectangle before the right so the
        // output is produced progressively in attribute order. The two
        // halves of each split are issued as one batch (they share every
        // predicate except the split attribute, which the server's batch
        // planner exploits); the visited rectangles are unchanged.
        let root = Self::initial_query(schema);
        let out = session.run(&root)?;
        let mut stack: Vec<(Query, QueryOutcome)> = vec![(root, out)];
        while let Some((q, out)) = stack.pop() {
            if out.is_resolved() {
                session.report(out.tuples);
                continue;
            }
            // Split the first non-exhausted attribute at its midpoint.
            let Some(a) = (0..d).find(|&a| !is_exhausted(&q, a)) else {
                // Every attribute exhausted: q is a point yet overflowed,
                // i.e. more than k duplicates live there.
                return Err(Abort::Unsolvable(q));
            };
            let (lo, hi) = extent(&q, a);
            let x = midpoint_ceil(lo, hi);
            session.metrics().two_way_splits += 1;
            let (left, right) = split2(&q, a, x);
            let halves = [left, right];
            let outs = session.run_batch(&halves)?;
            let [left, right] = halves;
            let mut outs = outs.into_iter();
            let left_out = outs.next().expect("one outcome per half");
            let right_out = outs.next().expect("one outcome per half");
            stack.push((right, right_out));
            stack.push((left, left_out));
        }
        Ok(())
    }
}

impl Crawler for BinaryShrink<'_> {
    fn name(&self) -> &'static str {
        "binary-shrink"
    }

    fn supports(&self, schema: &Schema) -> bool {
        schema.is_numeric()
    }

    fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        let schema = db.schema().clone();
        assert!(
            self.supports(&schema),
            "binary-shrink requires a numeric schema"
        );
        run_crawl(self.name(), db, self.oracle, config, |session| {
            self.run(session, &schema)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::verify_complete;
    use hdc_server::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::int_tuple;
    use hdc_types::Tuple;

    fn server(rows: Vec<Tuple>, lo: i64, hi: i64, k: usize) -> HiddenDbServer {
        let schema = Schema::builder().numeric("x", lo, hi).build().unwrap();
        HiddenDbServer::new(schema, rows, ServerConfig { k, seed: 11 }).unwrap()
    }

    #[test]
    fn crawls_a_1d_database_completely() {
        let rows: Vec<Tuple> = (0..200).map(|v| int_tuple(&[v * 3])).collect();
        let mut db = server(rows.clone(), 0, 600, 8);
        let report = BinaryShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
        assert!(report.queries > 0);
    }

    #[test]
    fn handles_duplicates_with_point_resolution() {
        // 6 duplicates at one point, k = 6: only a point query resolves it.
        let mut rows: Vec<Tuple> = (0..20).map(|v| int_tuple(&[v])).collect();
        rows.extend(std::iter::repeat_n(int_tuple(&[10]), 5));
        let mut db = server(rows.clone(), 0, 19, 6);
        let report = BinaryShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
    }

    #[test]
    fn detects_unsolvable_points() {
        let rows: Vec<Tuple> = std::iter::repeat_n(int_tuple(&[5]), 10).collect();
        let mut db = server(rows, 0, 9, 4);
        let err = BinaryShrink::new().crawl(&mut db).unwrap_err();
        match err {
            CrawlError::Unsolvable { witness, .. } => {
                assert_eq!(extent(&witness, 0), (5, 5));
            }
            other => panic!("expected Unsolvable, got {other}"),
        }
    }

    #[test]
    fn multidimensional_crawl() {
        let schema = Schema::builder()
            .numeric("a", 0, 15)
            .numeric("b", 0, 15)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..16)
            .flat_map(|a| (0..16).map(move |b| int_tuple(&[a, b])))
            .collect();
        let mut db =
            HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 10, seed: 2 }).unwrap();
        let report = BinaryShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
    }

    #[test]
    fn small_database_single_query() {
        let rows: Vec<Tuple> = (0..5).map(|v| int_tuple(&[v])).collect();
        let mut db = server(rows.clone(), 0, 100, 10);
        let report = BinaryShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn empty_database() {
        let mut db = server(vec![], 0, 100, 4);
        let report = BinaryShrink::new().crawl(&mut db).unwrap();
        assert!(report.tuples.is_empty());
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn supports_only_numeric() {
        let numeric = Schema::builder().numeric("a", 0, 9).build().unwrap();
        let cat = Schema::builder().categorical("c", 3).build().unwrap();
        let b = BinaryShrink::new();
        assert!(b.supports(&numeric));
        assert!(!b.supports(&cat));
    }

    #[test]
    fn cost_grows_with_domain_width() {
        // Same 64 tuples, domains of width 2^7 vs 2^15: the baseline pays
        // for the wider domain (this is the weakness rank-shrink fixes).
        let rows: Vec<Tuple> = (0..64).map(|v| int_tuple(&[v * 2])).collect();
        let narrow = {
            let mut db = server(rows.clone(), 0, 127, 4);
            BinaryShrink::new().crawl(&mut db).unwrap().queries
        };
        let wide = {
            let mut db = server(rows.clone(), 0, (1 << 15) - 1, 4);
            BinaryShrink::new().crawl(&mut db).unwrap().queries
        };
        assert!(
            wide > narrow,
            "wider domain should cost more: narrow={narrow} wide={wide}"
        );
    }
}
