//! The seed's row-at-a-time evaluator, preserved as an oracle.
//!
//! Before the columnar engine ([`crate::engine`]) landed, every query was
//! answered by these routines: walk `Tuple`s in priority order matching
//! `Value` enums per attribute (scan), or read one index list and
//! re-filter row-at-a-time (probe), then deep-copy each returned tuple.
//!
//! The module is kept — bit-for-bit in behaviour, including the
//! per-result deep copy — for differential testing: the property tests
//! pit all three engine strategies against [`LegacyEvaluator`] and a
//! brute-force filter, and the determinism suite replays whole crawls'
//! query streams through it, so the paper's determinism contract (same
//! query ⇒ same outcome) is checked across implementations, not just
//! across calls. `BENCH_pr1.json` is a frozen record of engine speedups
//! measured against it.
//!
//! It is not part of the server's query path and not public API.

use hdc_types::{Query, QueryOutcome, Schema, Tuple};

use crate::index::ColumnIndex;

/// Strategy used for one query by the legacy planner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LegacyStrategy {
    Scan,
    Probe,
}

/// Scan is preferred unless the best index gives at least this reduction
/// over the row count (probing has per-candidate overhead: a full predicate
/// check plus a final sort).
const PROBE_ADVANTAGE: usize = 4;

/// The seed evaluator behind a constructor: per-column indexes plus the
/// priority-ordered row table, answering queries exactly as the seed
/// server did.
#[doc(hidden)]
#[derive(Debug)]
pub struct LegacyEvaluator {
    rows: Vec<Tuple>,
    index: ColumnIndex,
    k: usize,
}

impl LegacyEvaluator {
    /// Builds the evaluator over priority-ordered, schema-valid rows.
    pub fn new(schema: &Schema, rows: Vec<Tuple>, k: usize) -> Self {
        let index = ColumnIndex::build(schema, &rows);
        LegacyEvaluator { rows, index, k }
    }

    /// Evaluates a (pre-validated) query with the seed's planner and
    /// executors.
    pub fn evaluate(&self, q: &Query) -> QueryOutcome {
        evaluate(&self.rows, &self.index, self.k, q)
    }
}

/// Picks the execution strategy for a query: the most selective
/// constrained column (ties to the lower attribute index), probed only
/// when it narrows the table at least [`PROBE_ADVANTAGE`]-fold.
fn plan(index: &ColumnIndex, q: &Query, n_rows: usize) -> (LegacyStrategy, usize) {
    let mut best_attr = usize::MAX;
    let mut best = usize::MAX;
    for (a, &p) in q.preds().iter().enumerate() {
        if let Some(s) = index.selectivity(a, p) {
            // Strict `<` keeps the first (lowest) attribute on ties; the
            // engine's planner makes the same choice via its sort key.
            if s < best {
                best = s;
                best_attr = a;
            }
        }
    }
    if best_attr != usize::MAX && best.saturating_mul(PROBE_ADVANTAGE) <= n_rows {
        (LegacyStrategy::Probe, best_attr)
    } else {
        (LegacyStrategy::Scan, usize::MAX)
    }
}

/// Evaluates `q` over `rows` (priority-ordered), returning the top-k
/// semantics outcome.
fn evaluate(rows: &[Tuple], index: &ColumnIndex, k: usize, q: &Query) -> QueryOutcome {
    if q.is_unsatisfiable() {
        return QueryOutcome::resolved(Vec::new());
    }
    let (strategy, best_attr) = plan(index, q, rows.len());
    match strategy {
        LegacyStrategy::Scan => scan(rows, k, q),
        LegacyStrategy::Probe => probe(rows, index, k, q, best_attr),
    }
}

/// Priority-ordered scan with early exit after `k + 1` matches.
fn scan(rows: &[Tuple], k: usize, q: &Query) -> QueryOutcome {
    let mut matched: Vec<u32> = Vec::new();
    for (r, t) in rows.iter().enumerate() {
        if q.matches(t) {
            if matched.len() == k {
                // k + 1'th match: overflow; the first k matches are final.
                return materialize(rows, matched, true);
            }
            matched.push(r as u32);
        }
    }
    materialize(rows, matched, false)
}

/// Index probe on the chosen column, residual filter, top-k cut.
fn probe(rows: &[Tuple], index: &ColumnIndex, k: usize, q: &Query, attr: usize) -> QueryOutcome {
    let mut candidates = Vec::new();
    let in_row_order = index.candidates(attr, q.pred(attr), &mut candidates);
    if !in_row_order {
        candidates.sort_unstable();
    }
    // Candidates are now in priority order; filter residual predicates with
    // early exit exactly like the scan path.
    let mut matched: Vec<u32> = Vec::new();
    for &r in &candidates {
        let t = &rows[r as usize];
        if q.matches(t) {
            if matched.len() == k {
                return materialize(rows, matched, true);
            }
            matched.push(r);
        }
    }
    materialize(rows, matched, false)
}

/// The seed's materialization deep-copied every returned tuple (cloning a
/// `Box<[Value]>`); reproduced here so the baseline keeps the cost the
/// engine's `Arc`-backed zero-clone path eliminated.
fn materialize(rows: &[Tuple], matched: Vec<u32>, overflow: bool) -> QueryOutcome {
    let tuples = matched
        .iter()
        .map(|&r| Tuple::new(rows[r as usize].values().to_vec()))
        .collect();
    QueryOutcome { tuples, overflow }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::{Predicate, Value};

    fn fixture() -> (Schema, Vec<Tuple>) {
        let schema = Schema::builder()
            .categorical("c", 4)
            .numeric("n", 0, 1000)
            .build()
            .unwrap();
        // 100 rows: cat cycles 0..4, num = row index.
        let rows: Vec<Tuple> = (0..100)
            .map(|i| Tuple::new(vec![Value::Cat((i % 4) as u32), Value::Int(i as i64)]))
            .collect();
        (schema, rows)
    }

    #[test]
    fn scan_and_probe_agree_with_brute_force() {
        let (schema, rows) = fixture();
        let queries = [
            Query::new(vec![Predicate::Eq(2), Predicate::Any]),
            Query::new(vec![Predicate::Any, Predicate::Range { lo: 10, hi: 20 }]),
            Query::new(vec![Predicate::Eq(1), Predicate::Range { lo: 0, hi: 50 }]),
            Query::any(2),
        ];
        for q in &queries {
            for k in [1usize, 3, 25, 1000] {
                let eval = LegacyEvaluator::new(&schema, rows.clone(), k);
                let got = eval.evaluate(q);
                let brute: Vec<Tuple> = rows.iter().filter(|t| q.matches(t)).cloned().collect();
                if brute.len() <= k {
                    assert_eq!(got, QueryOutcome::resolved(brute), "q={q} k={k}");
                } else {
                    assert_eq!(
                        got,
                        QueryOutcome::overflowed(brute[..k].to_vec()),
                        "q={q} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn planner_prefers_probe_for_selective_queries() {
        let (schema, rows) = fixture();
        let index = ColumnIndex::build(&schema, &rows);
        // A point query on n matches 1 row out of 100: probe.
        let q = Query::new(vec![Predicate::Any, Predicate::Range { lo: 7, hi: 7 }]);
        let (s, attr) = plan(&index, &q, rows.len());
        assert_eq!(s, LegacyStrategy::Probe);
        assert_eq!(attr, 1);
    }

    #[test]
    fn planner_prefers_scan_for_wide_queries() {
        let (schema, rows) = fixture();
        let index = ColumnIndex::build(&schema, &rows);
        let (s, _) = plan(&index, &Query::any(2), rows.len());
        assert_eq!(s, LegacyStrategy::Scan);
        let wide = Query::new(vec![Predicate::Any, Predicate::Range { lo: 0, hi: 90 }]);
        let (s, _) = plan(&index, &wide, rows.len());
        assert_eq!(s, LegacyStrategy::Scan);
    }

    #[test]
    fn planner_picks_most_selective_attribute() {
        let (schema, rows) = fixture();
        let index = ColumnIndex::build(&schema, &rows);
        // cat=2 matches 25 rows; n in [3,4] matches 2: pick n.
        let q = Query::new(vec![Predicate::Eq(2), Predicate::Range { lo: 3, hi: 4 }]);
        let (s, attr) = plan(&index, &q, rows.len());
        assert_eq!(s, LegacyStrategy::Probe);
        assert_eq!(attr, 1);
    }

    #[test]
    fn planner_ties_break_to_lower_attribute() {
        // Both columns equally selective for the probed values: the
        // regression guard for the deterministic tie-break.
        let schema = Schema::builder()
            .categorical("a", 10)
            .categorical("b", 10)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..100)
            .map(|i| {
                Tuple::new(vec![
                    Value::Cat((i % 10) as u32),
                    Value::Cat((i % 10) as u32),
                ])
            })
            .collect();
        let index = ColumnIndex::build(&schema, &rows);
        let q = Query::new(vec![Predicate::Eq(4), Predicate::Eq(6)]);
        let (s, attr) = plan(&index, &q, rows.len());
        assert_eq!(s, LegacyStrategy::Probe);
        assert_eq!(attr, 0, "equal selectivities must pick the lower attr");
    }

    #[test]
    fn unsatisfiable_short_circuits() {
        let (schema, rows) = fixture();
        let eval = LegacyEvaluator::new(&schema, rows, 10);
        let q = Query::new(vec![Predicate::Any, Predicate::Range { lo: 5, hi: 4 }]);
        let out = eval.evaluate(&q);
        assert!(out.is_resolved());
        assert!(out.is_empty());
    }

    #[test]
    fn overflow_returns_highest_priority_prefix() {
        let (schema, rows) = fixture();
        let eval = LegacyEvaluator::new(&schema, rows.clone(), 5);
        let out = eval.evaluate(&Query::any(2));
        assert!(out.overflow);
        // Rows are priority-ordered, so the answer is exactly rows[0..5].
        assert_eq!(out.tuples, rows[..5].to_vec());
    }

    #[test]
    fn materialize_deep_copies() {
        let (schema, rows) = fixture();
        let eval = LegacyEvaluator::new(&schema, rows.clone(), 5);
        let out = eval.evaluate(&Query::any(2));
        // The baseline must keep paying the seed's copy cost: returned
        // tuples must not share storage with the row table.
        assert!(!std::ptr::eq(out.tuples[0].values(), rows[0].values()));
    }
}
