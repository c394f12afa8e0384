//! Attribute-dependency pruning (the §1.3 heuristic).
//!
//! Real data spaces are sparse: "with proper external knowledge of the
//! dependency between MAKE and BODY STYLE, one does not need to explore
//! points with MAKE = BMW and BODY STYLE = TRUCK." The paper's heuristic:
//! "the crawler issues a query demanded by our algorithm only if the query
//! covers at least one valid point … The query cost can only go down,
//! i.e., still guaranteed to be below our upper bounds."
//!
//! A [`ValidityOracle`] encodes such knowledge. It must be **sound**: if
//! [`ValidityOracle::may_match`] returns `false`, no tuple of the database
//! satisfies the query. (Completeness is not required — answering `true`
//! always is the trivial sound oracle.) The crawl session answers
//! provably-empty queries locally, charging nothing.

use std::collections::{HashMap, HashSet};

use hdc_types::{Predicate, Query, Tuple};

/// Knowledge about which queries can possibly return tuples.
pub trait ValidityOracle {
    /// Must return `true` whenever some tuple of the database satisfies
    /// `q` (soundness). Returning `false` lets the crawler skip the query.
    fn may_match(&self, q: &Query) -> bool;
}

/// Perfect dependency knowledge distilled from a tuple collection: a query
/// "may match" iff some tuple actually matches it. Sound by construction;
/// used in experiments as the upper bound on what dependency pruning can
/// save.
///
/// A posting map `(attribute, categorical value) → row ids` keeps the
/// check off a full scan: a query with `Eq` predicates is tested only
/// against the rows of its shortest posting list, since every matching
/// row must appear there. Queries without an `Eq` predicate scan all rows.
#[derive(Debug)]
pub struct DatasetOracle {
    tuples: Vec<Tuple>,
    postings: HashMap<(usize, u32), Vec<usize>>,
}

impl DatasetOracle {
    /// Builds the oracle over the given ground-truth tuples.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let mut postings: HashMap<(usize, u32), Vec<usize>> = HashMap::new();
        for (row, t) in tuples.iter().enumerate() {
            for (attr, v) in t.iter().enumerate() {
                if let Some(c) = v.as_cat() {
                    postings.entry((attr, c)).or_default().push(row);
                }
            }
        }
        DatasetOracle { tuples, postings }
    }
}

impl ValidityOracle for DatasetOracle {
    fn may_match(&self, q: &Query) -> bool {
        let mut shortest: Option<&[usize]> = None;
        for (attr, p) in q.preds().iter().enumerate() {
            if let Predicate::Eq(c) = *p {
                // No row holds the value: nothing can match.
                let Some(rows) = self.postings.get(&(attr, c)) else {
                    return false;
                };
                if shortest.is_none_or(|s| rows.len() < s.len()) {
                    shortest = Some(rows);
                }
            }
        }
        match shortest {
            Some(rows) => rows.iter().any(|&r| q.matches(&self.tuples[r])),
            None => self.tuples.iter().any(|t| q.matches(t)),
        }
    }
}

/// Pairwise categorical dependency rules: the set of `(value_a, value_b)`
/// combinations that occur on attributes `a` and `b` (e.g. Make →
/// Body-style). A query is prunable when it pins both attributes to a
/// combination outside the set.
#[derive(Debug)]
pub struct PairRuleOracle {
    attr_a: usize,
    attr_b: usize,
    allowed: HashSet<(u32, u32)>,
}

impl PairRuleOracle {
    /// Creates a rule set for attributes `attr_a` and `attr_b` allowing
    /// exactly the given value combinations.
    pub fn new(attr_a: usize, attr_b: usize, allowed: HashSet<(u32, u32)>) -> Self {
        assert_ne!(attr_a, attr_b, "a dependency needs two distinct attributes");
        PairRuleOracle {
            attr_a,
            attr_b,
            allowed,
        }
    }

    /// Distills the rule set from ground-truth tuples (sound by
    /// construction).
    pub fn from_tuples(attr_a: usize, attr_b: usize, tuples: &[Tuple]) -> Self {
        let allowed = tuples
            .iter()
            .map(|t| (t.get(attr_a).expect_cat(), t.get(attr_b).expect_cat()))
            .collect();
        Self::new(attr_a, attr_b, allowed)
    }

    /// Number of allowed combinations.
    pub fn allowed_len(&self) -> usize {
        self.allowed.len()
    }
}

impl ValidityOracle for PairRuleOracle {
    fn may_match(&self, q: &Query) -> bool {
        match (q.pred(self.attr_a), q.pred(self.attr_b)) {
            (Predicate::Eq(va), Predicate::Eq(vb)) => self.allowed.contains(&(va, vb)),
            // Unless both attributes are pinned the rule cannot prove
            // emptiness.
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::cat_tuple;

    #[test]
    fn dataset_oracle_is_exact() {
        let tuples = vec![cat_tuple(&[0, 1]), cat_tuple(&[1, 0])];
        let oracle = DatasetOracle::new(tuples);
        let q_hit = Query::new(vec![Predicate::Eq(0), Predicate::Any]);
        let q_miss = Query::new(vec![Predicate::Eq(0), Predicate::Eq(0)]);
        assert!(oracle.may_match(&q_hit));
        assert!(!oracle.may_match(&q_miss));
    }

    #[test]
    fn indexed_dataset_oracle_equals_the_linear_scan() {
        use hdc_types::Value;
        let mut x = 0x2545_f491u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        // Two categorical attributes (the second skewed toward 0) and two
        // numeric ones.
        let tuples: Vec<Tuple> = (0..300)
            .map(|_| {
                let skewed = if next(4) == 0 { next(6) } else { 0 };
                Tuple::new(vec![
                    Value::Cat(next(5) as u32),
                    Value::Cat(skewed as u32),
                    Value::Int(next(50) as i64),
                    Value::Int(next(50) as i64 - 25),
                ])
            })
            .collect();
        let oracle = DatasetOracle::new(tuples.clone());
        // Query::any, Eq on values absent from the data (categorical
        // draws run two past each domain), mixed Eq+Range queries, and
        // numeric-only ones (a quarter leave both categoricals Any).
        let mut queries = vec![Query::any(4)];
        for _ in 0..2000 {
            let numeric_only = next(4) == 0;
            let mut preds = Vec::new();
            for size in [5, 6] {
                preds.push(if numeric_only || next(3) == 0 {
                    Predicate::Any
                } else {
                    Predicate::Eq(next(size + 2) as u32)
                });
            }
            for base in [0, -25] {
                preds.push(if next(3) == 0 {
                    Predicate::Any
                } else {
                    let lo = base + next(60) as i64 - 5;
                    let hi = lo + next(12) as i64;
                    Predicate::Range { lo, hi }
                });
            }
            queries.push(Query::new(preds));
        }
        let mut hits = 0;
        for q in &queries {
            let scan = tuples.iter().any(|t| q.matches(t));
            assert_eq!(oracle.may_match(q), scan, "{q:?}");
            hits += usize::from(scan);
        }
        // The generator exercises both answers.
        assert!(hits > 100 && hits < queries.len() - 100, "hits {hits}");
    }

    #[test]
    fn pair_rules_prune_only_fully_pinned_queries() {
        let tuples = vec![cat_tuple(&[0, 1]), cat_tuple(&[1, 0])];
        let oracle = PairRuleOracle::from_tuples(0, 1, &tuples);
        assert_eq!(oracle.allowed_len(), 2);
        // Pinned to a combination that exists.
        assert!(oracle.may_match(&Query::new(vec![Predicate::Eq(0), Predicate::Eq(1)])));
        // Pinned to a combination that does not exist.
        assert!(!oracle.may_match(&Query::new(vec![Predicate::Eq(0), Predicate::Eq(0)])));
        // Half-pinned: cannot prove emptiness.
        assert!(oracle.may_match(&Query::new(vec![Predicate::Eq(0), Predicate::Any])));
        assert!(oracle.may_match(&Query::new(vec![Predicate::Any, Predicate::Eq(0)])));
    }

    #[test]
    #[should_panic(expected = "two distinct attributes")]
    fn pair_rule_rejects_same_attribute() {
        PairRuleOracle::new(1, 1, HashSet::new());
    }

    #[test]
    fn pair_rule_soundness_on_sample() {
        // Any query that matches some tuple must get may_match = true.
        let tuples: Vec<_> = (0..4u32)
            .flat_map(|a| {
                (0..4u32)
                    .filter(move |b| (a + b) % 2 == 0)
                    .map(move |b| cat_tuple(&[a, b]))
            })
            .collect();
        let oracle = PairRuleOracle::from_tuples(0, 1, &tuples);
        for a in 0..4u32 {
            for b in 0..4u32 {
                let q = Query::new(vec![Predicate::Eq(a), Predicate::Eq(b)]);
                let matches_some = tuples.iter().any(|t| q.matches(t));
                if matches_some {
                    assert!(oracle.may_match(&q));
                }
            }
        }
    }
}
