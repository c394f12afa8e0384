//! The **rank-shrink** algorithm (§2.2–2.3) — optimal numeric crawling.
//!
//! Where binary-shrink halves the *domain*, rank-shrink splits at the
//! `⌈k/2⌉`-th smallest value of the `k` tuples the overflowing query just
//! returned, guaranteeing at least `k/4` returned tuples on each side of a
//! 2-way split. When the pivot value is *heavy* (more than `k/4` of the
//! returned tuples share it — duplicates), a 3-way split carves out the
//! pivot value as a degenerate rectangle on which the attribute is
//! exhausted; that middle rectangle drops to a `(d−1)`-dimensional
//! subproblem. Lemma 2: `O(d·n/k)` queries, independent of domain widths,
//! matching the Theorem 3 lower bound.
//!
//! The same routine powers the numeric phase of [`crate::Hybrid`]: it runs
//! inside the numeric subspace `D_NUM(p_CAT)` with the categorical
//! attributes pinned by the base query (§5).

use hdc_types::{HiddenDatabase, Query, QueryOutcome, Schema};

use crate::crawler::Crawler;
use crate::dependency::ValidityOracle;
use crate::numeric::extent::{extent, is_exhausted, split2, split3};
use crate::report::{CrawlError, CrawlReport};
use crate::session::{run_crawl, Abort, Session, SessionConfig};

/// Configuration for rank-shrink.
///
/// The two fractions are the paper's constants, exposed for the ablation
/// benchmark (`ablation_params`):
///
/// * `pivot_frac` — the pivot is the `⌈pivot_frac·k⌉`-th smallest returned
///   tuple (paper: 1/2);
/// * `heavy_frac` — a 3-way split triggers when the pivot value's
///   multiplicity within the response exceeds `heavy_frac·k` (paper: 1/4).
///
/// Correctness holds for any values in `(0, 1)`: a fallback forces a 3-way
/// split whenever a 2-way split would not shrink the rectangle, so
/// progress is guaranteed even for degenerate parameter choices. The
/// `O(d·n/k)` *bound* is proved for the paper's constants.
pub struct RankShrink<'o> {
    pivot_frac: f64,
    heavy_frac: f64,
    oracle: Option<&'o dyn ValidityOracle>,
}

impl Default for RankShrink<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'o> RankShrink<'o> {
    /// Rank-shrink with the paper's constants (pivot k/2, threshold k/4).
    pub fn new() -> Self {
        RankShrink {
            pivot_frac: 0.5,
            heavy_frac: 0.25,
            oracle: None,
        }
    }

    /// Overrides the split constants (ablation studies).
    ///
    /// # Panics
    /// Panics unless both fractions lie in `(0, 1)`.
    pub fn with_params(pivot_frac: f64, heavy_frac: f64) -> Self {
        assert!(
            pivot_frac > 0.0 && pivot_frac < 1.0,
            "pivot_frac must be in (0, 1)"
        );
        assert!(
            heavy_frac > 0.0 && heavy_frac < 1.0,
            "heavy_frac must be in (0, 1)"
        );
        RankShrink {
            pivot_frac,
            heavy_frac,
            oracle: None,
        }
    }

    /// Attaches a §1.3 validity oracle.
    pub fn with_oracle(oracle: &'o dyn ValidityOracle) -> Self {
        RankShrink {
            oracle: Some(oracle),
            ..Self::new()
        }
    }

    /// Crawls the numeric subspace reachable from `root`, splitting only
    /// along `dims` (indices into the schema, in split order). Everything
    /// `root` pins on other attributes is preserved — this is the §5
    /// "numeric server emulation" over `D_NUM(p_CAT)`.
    pub(crate) fn run_subspace(
        &self,
        session: &mut Session<'_>,
        root: Query,
        dims: &[usize],
    ) -> Result<(), Abort> {
        let out = session.run(&root)?;
        self.run_subspace_seeded(session, root, out, dims)
    }

    /// [`RankShrink::run_subspace`] with the root's outcome already
    /// known, so no query is issued for the root itself. The §5 hybrid
    /// uses this when a leaf's root is an overflowed slice whose
    /// k-window the slice table cached: the server is deterministic, so
    /// the recorded window is exactly what re-issuing would return.
    pub(crate) fn run_subspace_seeded(
        &self,
        session: &mut Session<'_>,
        root: Query,
        root_out: QueryOutcome,
        dims: &[usize],
    ) -> Result<(), Abort> {
        // (query, outcome, position in `dims` from which splitting
        // continues); attributes before that position are exhausted. The
        // rectangles of one split are issued as a single batch — they
        // share every predicate except the split attribute, which the
        // server's batch planner exploits — while the recursion tree, and
        // with it the query cost, stays exactly the sequential one.
        let mut stack: Vec<(Query, QueryOutcome, usize)> = vec![(root, root_out, 0)];
        let mut child_qs: Vec<Query> = Vec::with_capacity(3);
        let mut child_dis: Vec<usize> = Vec::with_capacity(3);
        while let Some((q, out, mut di)) = stack.pop() {
            if out.is_resolved() {
                session.report(out.tuples);
                continue;
            }
            while di < dims.len() && is_exhausted(&q, dims[di]) {
                di += 1;
            }
            if di == dims.len() {
                // Every attribute exhausted yet the query overflowed: the
                // point holds more than k tuples — Problem 1 unsolvable.
                return Err(Abort::Unsolvable(q));
            }
            let a = dims[di];

            // Pivot selection over the k returned tuples (§2.2).
            let mut vals: Vec<i64> = out.tuples.iter().map(|t| t.get(a).expect_int()).collect();
            vals.sort_unstable();
            let rank = ((self.pivot_frac * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let x = vals[rank - 1];
            let c = vals.iter().filter(|&&v| v == x).count();

            let (lo, _hi) = extent(&q, a);
            let heavy = c as f64 > self.heavy_frac * vals.len() as f64;
            child_qs.clear();
            child_dis.clear();
            if !heavy && x > lo {
                // Case 1: 2-way split at x; each side keeps ≥ k/4 of the
                // returned tuples, so both children make progress.
                session.metrics().two_way_splits += 1;
                let (left, right) = split2(&q, a, x);
                child_qs.push(left);
                child_dis.push(di);
                child_qs.push(right);
                child_dis.push(di);
            } else {
                // Case 2 (or boundary fallback): 3-way split; the middle
                // rectangle exhausts attribute a and continues as a
                // (d−1)-dimensional problem.
                session.metrics().three_way_splits += 1;
                let (left, mid, right) = split3(&q, a, x);
                if let Some(l) = left {
                    child_qs.push(l);
                    child_dis.push(di);
                }
                child_qs.push(mid);
                child_dis.push(di + 1);
                if let Some(r) = right {
                    child_qs.push(r);
                    child_dis.push(di);
                }
            }
            let outs = session.run_batch(&child_qs)?;
            // Push in reverse so the leftmost rectangle is explored first.
            for ((cq, co), &cdi) in child_qs.drain(..).zip(outs).zip(&child_dis).rev() {
                stack.push((cq, co, cdi));
            }
        }
        Ok(())
    }
}

impl Crawler for RankShrink<'_> {
    fn name(&self) -> &'static str {
        "rank-shrink"
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
            "rank-shrink requires a numeric schema"
        );
        let dims: Vec<usize> = (0..schema.arity()).collect();
        run_crawl(self.name(), db, self.oracle, config, |session| {
            self.run_subspace(session, Query::any(schema.arity()), &dims)
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

    fn server_1d(rows: Vec<Tuple>, k: usize, seed: u64) -> HiddenDbServer {
        let schema = Schema::builder()
            .numeric("x", i64::MIN, i64::MAX)
            .build()
            .unwrap();
        HiddenDbServer::new(schema, rows, ServerConfig { k, seed }).unwrap()
    }

    /// Figure 3: the paper's 1-d worked example, replayed with the exact
    /// server responses (via explicit priorities).
    ///
    /// D = {10, 20, 30, 35, 45, 55, 55, 55} (t1..t8), k = 4.
    /// Expected trace: q1 = (−∞,∞) overflows with R1 = {t4,t6,t7,t8};
    /// 3-way split at 55; q2 = (−∞,54] overflows with R2 = {t1,t2,t4,t5};
    /// 2-way split at 20; q3..q6 all resolve. Six queries total.
    #[test]
    fn figure3_worked_example() {
        let tuples = vec![
            int_tuple(&[10]), // t1
            int_tuple(&[20]), // t2
            int_tuple(&[30]), // t3
            int_tuple(&[35]), // t4
            int_tuple(&[45]), // t5
            int_tuple(&[55]), // t6
            int_tuple(&[55]), // t7
            int_tuple(&[55]), // t8
        ];
        // Top-4 priorities: t4, t6, t7, t8 (so R1 matches the paper).
        // Among {t1, t2, t3, t5}, t3 ranks last (so R2 = {t1,t2,t4,t5}).
        let priorities = [6, 5, 1, 10, 4, 9, 8, 7];
        let schema = Schema::builder()
            .numeric("A1", i64::MIN, i64::MAX)
            .build()
            .unwrap();
        let mut db =
            HiddenDbServer::with_priorities(schema, tuples.clone(), 4, &priorities).unwrap();

        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
        assert_eq!(report.queries, 6, "paper trace issues q1..q6");
        assert_eq!(report.overflowed, 2, "exactly q1 and q2 overflow");
        assert_eq!(report.resolved, 4);
    }

    /// Figure 4: the paper's 2-d worked example (tuple placement chosen to
    /// reproduce the published trace: 5 queries at the top level plus a
    /// 3-query 1-d sub-crawl of the exhausted line, 8 total).
    #[test]
    fn figure4_worked_example_2d() {
        let tuples = vec![
            int_tuple(&[10, 1]),  // t1
            int_tuple(&[30, 2]),  // t2
            int_tuple(&[40, 3]),  // t3
            int_tuple(&[50, 4]),  // t4
            int_tuple(&[60, 5]),  // t5
            int_tuple(&[80, 50]), // t6
            int_tuple(&[80, 10]), // t7
            int_tuple(&[80, 20]), // t8
            int_tuple(&[80, 30]), // t9
            int_tuple(&[80, 40]), // t10
        ];
        // Global top-4: t4, t7, t8, t9 → R1 sorted on A1 = [50,80,80,80],
        // pivot 80 with multiplicity 3 > k/4 → 3-way split at A1 = 80.
        let priorities = [12, 15, 14, 20, 13, 16, 19, 18, 17, 11];
        let schema = Schema::builder()
            .numeric("A1", i64::MIN, i64::MAX)
            .numeric("A2", i64::MIN, i64::MAX)
            .build()
            .unwrap();
        let mut db =
            HiddenDbServer::with_priorities(schema, tuples.clone(), 4, &priorities).unwrap();

        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
        assert_eq!(report.queries, 8, "5 top-level + 3 for the exhausted line");
        assert_eq!(
            report.overflowed, 3,
            "q1, the left strip, and the line query"
        );
        assert_eq!(report.resolved, 5);
    }

    #[test]
    fn crawls_1d_uniform_data() {
        let rows: Vec<Tuple> = (0..1000).map(|v| int_tuple(&[v * 7])).collect();
        let mut db = server_1d(rows.clone(), 16, 3);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
        // Lemma 1: O(n/k); the proof constant gives ≤ 24 n/k.
        let bound = 24.0 * rows.len() as f64 / 16.0;
        assert!(
            (report.queries as f64) < bound,
            "{} !< {bound}",
            report.queries
        );
    }

    #[test]
    fn cost_independent_of_domain_width() {
        // Identical data shifted/scaled to a vastly wider domain must cost
        // exactly the same (the defining advantage over binary-shrink).
        let narrow: Vec<Tuple> = (0..500).map(|v| int_tuple(&[v])).collect();
        let wide: Vec<Tuple> = (0..500)
            .map(|v| int_tuple(&[v * 1_000_000_007 - (1 << 60)]))
            .collect();
        let mut db_n = server_1d(narrow.clone(), 8, 5);
        let mut db_w = server_1d(wide.clone(), 8, 5);
        let qn = RankShrink::new().crawl(&mut db_n).unwrap().queries;
        let qw = RankShrink::new().crawl(&mut db_w).unwrap().queries;
        assert_eq!(qn, qw);
    }

    #[test]
    fn heavy_duplicates_force_3way_and_still_complete() {
        // 60% of tuples share one value.
        let mut rows: Vec<Tuple> = (0..200).map(|v| int_tuple(&[v])).collect();
        rows.extend(std::iter::repeat_n(int_tuple(&[77]), 300));
        let mut db = server_1d(rows.clone(), 350, 1);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
    }

    #[test]
    fn detects_unsolvable_duplicates() {
        let rows: Vec<Tuple> = std::iter::repeat_n(int_tuple(&[9]), 20).collect();
        let mut db = server_1d(rows, 8, 2);
        let err = RankShrink::new().crawl(&mut db).unwrap_err();
        assert!(matches!(err, CrawlError::Unsolvable { .. }));
        // Partial report still carries the work done.
        assert!(err.partial().queries >= 1);
    }

    #[test]
    fn multidimensional_complete() {
        let schema = Schema::builder()
            .numeric("a", 0, 63)
            .numeric("b", 0, 63)
            .numeric("c", 0, 63)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..2000)
            .map(|i| {
                let h = (i as i64).wrapping_mul(2654435761);
                int_tuple(&[h & 63, (h >> 6) & 63, (h >> 12) & 63])
            })
            .collect();
        let mut db =
            HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 32, seed: 4 }).unwrap();
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
        // Lemma 2 with the proof constant α = 20 (plus slack for the
        // root): 20 d n / k.
        let bound = 20.0 * 3.0 * 2000.0 / 32.0 + 3.0;
        assert!((report.queries as f64) < bound);
    }

    #[test]
    fn tiny_k_values_terminate() {
        let rows: Vec<Tuple> = (0..50).map(|v| int_tuple(&[v % 10])).collect();
        for k in [1usize, 2, 3, 5] {
            let feasible = k >= 5; // each value has multiplicity 5
            let mut db = server_1d(rows.clone(), k, 6);
            let result = RankShrink::new().crawl(&mut db);
            if feasible {
                verify_complete(&rows, &result.unwrap()).unwrap();
            } else {
                assert!(
                    matches!(result, Err(CrawlError::Unsolvable { .. })),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn ablation_parameters_remain_correct() {
        let rows: Vec<Tuple> = (0..800)
            .map(|i| int_tuple(&[(i as i64 * 37) % 250]))
            .collect();
        for (p, h) in [
            (0.25, 0.25),
            (0.75, 0.25),
            (0.5, 0.1),
            (0.5, 0.6),
            (0.9, 0.9),
        ] {
            let mut db = server_1d(rows.clone(), 16, 8);
            let report = RankShrink::with_params(p, h).crawl(&mut db).unwrap();
            verify_complete(&rows, &report).unwrap_or_else(|e| panic!("params ({p},{h}): {e:?}"));
        }
    }

    #[test]
    fn empty_and_tiny_databases() {
        let mut db = server_1d(vec![], 4, 0);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        assert_eq!(report.queries, 1);
        assert!(report.tuples.is_empty());

        let rows = vec![int_tuple(&[42])];
        let mut db = server_1d(rows.clone(), 4, 0);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn extreme_values_no_overflow() {
        let rows = vec![
            int_tuple(&[i64::MIN]),
            int_tuple(&[i64::MIN]),
            int_tuple(&[i64::MIN + 1]),
            int_tuple(&[0]),
            int_tuple(&[i64::MAX - 1]),
            int_tuple(&[i64::MAX]),
            int_tuple(&[i64::MAX]),
        ];
        let mut db = server_1d(rows.clone(), 2, 9);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&rows, &report).unwrap();
    }

    #[test]
    #[should_panic(expected = "pivot_frac")]
    fn rejects_bad_params() {
        RankShrink::with_params(0.0, 0.25);
    }

    #[test]
    fn metrics_distinguish_split_kinds() {
        // Unique values: 2-way splits only.
        let unique: Vec<Tuple> = (0..400).map(|v| int_tuple(&[v])).collect();
        let mut db = server_1d(unique.clone(), 16, 3);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        assert!(report.metrics.two_way_splits > 0);
        assert_eq!(
            report.metrics.three_way_splits, 0,
            "duplicate-free data never needs a 3-way split"
        );

        // Heavy duplicates at one value: 3-way splits appear.
        let mut dupes: Vec<Tuple> = (0..100).map(|v| int_tuple(&[v])).collect();
        dupes.extend(std::iter::repeat_n(int_tuple(&[50]), 60));
        let mut db = server_1d(dupes.clone(), 64, 3);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&dupes, &report).unwrap();
        assert!(
            report.metrics.three_way_splits > 0,
            "heavy pivot must force 3-way"
        );
    }
}
