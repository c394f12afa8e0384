//! Crawl results and errors.

use std::fmt;

use hdc_types::{DbError, Query, Tuple};

use crate::repository::ShardSnapshot;

/// One point of the progressiveness curve: after `queries` queries, the
/// crawler had output `tuples` tuples (Figure 13 plots exactly this,
/// normalized to percentages).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProgressPoint {
    /// Queries issued so far.
    pub queries: u64,
    /// Tuples output so far.
    pub tuples: u64,
}

/// Algorithm-internal counters, always collected (cheap integer
/// increments). These expose *why* a crawl cost what it did — e.g. the
/// paper explains rank-shrink's d-independence on Adult-numeric by 3-way
/// splits being rare (§6, Figure 10b discussion), which
/// [`CrawlMetrics::three_way_splits`] lets experiments verify directly.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CrawlMetrics {
    /// Rank-/binary-shrink 2-way splits performed.
    pub two_way_splits: u64,
    /// Rank-shrink 3-way splits performed (duplicate-heavy pivots).
    pub three_way_splits: u64,
    /// Slice queries fetched into the lookup table (slice-cover/hybrid).
    pub slice_fetches: u64,
    /// Fetched slices that overflowed (only the bit is kept, §3.2).
    pub slice_overflows: u64,
    /// Child nodes answered locally from a resolved slice (no server
    /// query — the mechanism behind lazy-slice-cover's win).
    pub local_answers: u64,
    /// Rank-shrink sub-crawls launched at categorical leaves (hybrid §5).
    pub leaf_subcrawls: u64,
    /// Slice requests served from the memoized slice table without a
    /// server query (the cross-batch slice-list cache: a slice fetched by
    /// one `MAX_BATCH` window — or by the eager preprocessing phase — is
    /// reused by every later request in the same session).
    pub slice_cache_hits: u64,
    /// Barrier crawler: discriminating expansions performed — each one
    /// turns the k-visible window of an overflowing query into pivot
    /// predicates that demote the known high-ranked tuples out of the
    /// result window (`hdc-barrier`).
    pub barrier_pivots: u64,
    /// Barrier crawler: distinct tuples whose first sighting was *below*
    /// the k-visible frontier (discovery depth ≥ 1) — the tuples the
    /// top-k barrier hides from a naive prober.
    pub barrier_deep_tuples: u64,
    /// Transient query attempts absorbed by the session's
    /// [`RetryPolicy`](crate::RetryPolicy): failures that were re-issued
    /// instead of aborting the crawl. The fault-tolerance theorem in one
    /// counter — a retried crawl's *charged* cost equals the fault-free
    /// cost, and this field is exactly the extra attempts it spent.
    pub transient_retries: u64,
}

impl CrawlMetrics {
    /// Adds `other`'s counters into `self`, field by field.
    ///
    /// Every place that combines reports (the sharded merge, per-identity
    /// aggregation) must go through this method: a new counter added to
    /// the struct then only needs one merge site, instead of being
    /// silently dropped by hand-rolled additions scattered around the
    /// codebase. The `fully_populated_metrics_survive_a_merge` test
    /// enforces the coverage.
    pub fn merge_from(&mut self, other: &CrawlMetrics) {
        // Destructure so adding a field is a compile error here, not a
        // silently-ignored counter.
        let CrawlMetrics {
            two_way_splits,
            three_way_splits,
            slice_fetches,
            slice_overflows,
            local_answers,
            leaf_subcrawls,
            slice_cache_hits,
            barrier_pivots,
            barrier_deep_tuples,
            transient_retries,
        } = other;
        self.two_way_splits += two_way_splits;
        self.three_way_splits += three_way_splits;
        self.slice_fetches += slice_fetches;
        self.slice_overflows += slice_overflows;
        self.local_answers += local_answers;
        self.leaf_subcrawls += leaf_subcrawls;
        self.slice_cache_hits += slice_cache_hits;
        self.barrier_pivots += barrier_pivots;
        self.barrier_deep_tuples += barrier_deep_tuples;
        self.transient_retries += transient_retries;
    }
}

/// The result of a crawl.
#[derive(Clone, Debug)]
pub struct CrawlReport {
    /// Name of the algorithm that produced the report.
    pub algorithm: &'static str,
    /// Every tuple extracted (for a successful crawl: the complete bag
    /// `D`, each tuple reported exactly once per occurrence).
    pub tuples: Vec<Tuple>,
    /// Number of queries issued — the paper's cost metric.
    pub queries: u64,
    /// How many of those queries resolved.
    pub resolved: u64,
    /// How many overflowed.
    pub overflowed: u64,
    /// Queries answered locally by a [`crate::ValidityOracle`] (§1.3
    /// dependency pruning) — these cost nothing and are *not* included in
    /// `queries`; `resolved + overflowed == queries` always holds.
    pub pruned: u64,
    /// Algorithm-internal counters (splits, slice fetches, local answers).
    pub metrics: CrawlMetrics,
    /// The progress curve (monotone in both coordinates).
    pub progress: Vec<ProgressPoint>,
}

impl CrawlReport {
    /// A report of nothing: no tuples, no queries, no progress — the seed
    /// a merge folds shard reports into, and the partial of a crawl that
    /// failed before its first query.
    pub fn empty(algorithm: &'static str) -> Self {
        CrawlReport {
            algorithm,
            tuples: Vec::new(),
            queries: 0,
            resolved: 0,
            overflowed: 0,
            pruned: 0,
            metrics: CrawlMetrics::default(),
            progress: Vec::new(),
        }
    }

    /// The complete shards among `snapshots` folded into one report, in
    /// the order given: bags concatenated, accounting summed. Partial
    /// (frontier-bearing) snapshots are skipped, and the result has no
    /// progress curve, as checkpoints do not bank one.
    pub fn from_snapshots(
        algorithm: &'static str,
        snapshots: impl IntoIterator<Item = ShardSnapshot>,
    ) -> Self {
        let mut merged = Self::empty(algorithm);
        for snap in snapshots.into_iter().filter(ShardSnapshot::is_complete) {
            merged.absorb(&mut CrawlReport::from(snap));
        }
        merged
    }

    /// Folds `part` into this report: its tuples move to the end of this
    /// bag (leaving `part`'s empty) and its query accounting is added.
    /// Progress curves are not merged.
    pub(crate) fn absorb(&mut self, part: &mut CrawlReport) {
        self.tuples.append(&mut part.tuples);
        self.queries += part.queries;
        self.resolved += part.resolved;
        self.overflowed += part.overflowed;
        self.pruned += part.pruned;
        self.metrics.merge_from(&part.metrics);
    }

    /// Fraction of issued queries that resolved — 0.0 for an empty crawl
    /// (no queries issued), so the rate is always a finite value in
    /// [0, 1] that experiment tables can aggregate without guarding.
    pub fn resolution_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.resolved as f64 / self.queries as f64
        }
    }

    /// Queries per extracted tuple — 0.0 when nothing was extracted
    /// (an empty crawl spent nothing *per tuple*; returning a finite
    /// value keeps downstream averages and JSON emitters well-defined).
    pub fn queries_per_tuple(&self) -> f64 {
        if self.tuples.is_empty() {
            0.0
        } else {
            self.queries as f64 / self.tuples.len() as f64
        }
    }

    /// Maximum vertical deviation of the (normalized) progress curve from
    /// the diagonal, in [0, 1]. Small values mean the crawler outputs
    /// tuples at a steady rate — the paper's "linear progressiveness"
    /// (Figure 13).
    pub fn progress_deviation(&self) -> f64 {
        let (total_q, total_t) = match self.progress.last() {
            Some(last) if last.queries > 0 && last.tuples > 0 => (last.queries, last.tuples),
            _ => return 0.0,
        };
        self.progress
            .iter()
            .map(|p| {
                let x = p.queries as f64 / total_q as f64;
                let y = p.tuples as f64 / total_t as f64;
                (x - y).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Rehydrates a snapshot into a shard report. The progress curve is not
/// checkpointed (it describes the run that produced the snapshot, not
/// this one), so the report has none.
impl From<ShardSnapshot> for CrawlReport {
    fn from(snap: ShardSnapshot) -> Self {
        CrawlReport {
            algorithm: "restored",
            tuples: snap.tuples,
            queries: snap.queries,
            resolved: snap.resolved,
            overflowed: snap.overflowed,
            pruned: snap.pruned,
            metrics: snap.metrics,
            progress: Vec::new(),
        }
    }
}

impl fmt::Display for CrawlReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} tuples in {} queries ({} resolved, {} overflowed)",
            self.algorithm,
            self.tuples.len(),
            self.queries,
            self.resolved,
            self.overflowed
        )
    }
}

/// A failed crawl. Both variants carry the partial report so callers keep
/// the tuples already paid for.
#[derive(Debug)]
pub enum CrawlError {
    /// The interface failed (budget exhausted, invalid query, transport).
    Db {
        /// The underlying interface error.
        error: DbError,
        /// Everything extracted before the failure (boxed: the report is
        /// large and the error path must stay cheap for `Result`).
        partial: Box<CrawlReport>,
    },
    /// Problem 1 is unsolvable on this database: a single point of the
    /// data space holds more than `k` tuples, so the server can forever
    /// withhold one of them (§1.1). The witness query pins that point.
    Unsolvable {
        /// A point query that overflowed.
        witness: Query,
        /// Everything extracted before detection.
        partial: Box<CrawlReport>,
    },
    /// A [`crate::CrawlObserver`] stopped the crawl early
    /// ([`crate::Flow::Stop`]). Not a failure of the database or the
    /// data — the caller asked to stop spending (e.g. a coverage target
    /// was reached), and the partial report holds everything extracted
    /// and charged up to that point.
    Stopped {
        /// Everything extracted before the stop.
        partial: Box<CrawlReport>,
    },
}

impl CrawlError {
    /// The partial report produced before the failure.
    pub fn partial(&self) -> &CrawlReport {
        match self {
            CrawlError::Db { partial, .. } => partial,
            CrawlError::Unsolvable { partial, .. } => partial,
            CrawlError::Stopped { partial } => partial,
        }
    }

    /// Consumes the error, returning the partial report.
    pub fn into_partial(self) -> CrawlReport {
        match self {
            CrawlError::Db { partial, .. } => *partial,
            CrawlError::Unsolvable { partial, .. } => *partial,
            CrawlError::Stopped { partial } => *partial,
        }
    }
}

impl fmt::Display for CrawlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrawlError::Db { error, partial } => write!(
                f,
                "crawl aborted after {} queries / {} tuples: {error}",
                partial.queries,
                partial.tuples.len()
            ),
            CrawlError::Unsolvable { witness, partial } => write!(
                f,
                "database is not crawlable at k: point query `{witness}` overflowed \
                 (>k duplicates); {} tuples extracted",
                partial.tuples.len()
            ),
            CrawlError::Stopped { partial } => write!(
                f,
                "crawl stopped by observer after {} queries / {} tuples",
                partial.queries,
                partial.tuples.len()
            ),
        }
    }
}

impl std::error::Error for CrawlError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::int_tuple;

    fn report(progress: Vec<ProgressPoint>) -> CrawlReport {
        CrawlReport {
            algorithm: "test",
            tuples: vec![int_tuple(&[1]); 10],
            queries: 5,
            resolved: 4,
            overflowed: 1,
            pruned: 0,
            metrics: CrawlMetrics::default(),
            progress,
        }
    }

    /// Every field of a fully-populated metrics value must survive a
    /// merge into a fresh one. The exhaustive struct literal (no
    /// `..Default::default()`) means adding a field breaks this test at
    /// compile time until both the literal and
    /// [`CrawlMetrics::merge_from`] cover it.
    #[test]
    fn fully_populated_metrics_survive_a_merge() {
        let populated = CrawlMetrics {
            two_way_splits: 1,
            three_way_splits: 2,
            slice_fetches: 3,
            slice_overflows: 4,
            local_answers: 5,
            leaf_subcrawls: 6,
            slice_cache_hits: 7,
            barrier_pivots: 8,
            barrier_deep_tuples: 9,
            transient_retries: 10,
        };
        let mut merged = CrawlMetrics::default();
        merged.merge_from(&populated);
        assert_eq!(merged, populated, "merge_from dropped a field");
        // Merging twice doubles every counter — addition, not overwrite.
        merged.merge_from(&populated);
        let CrawlMetrics {
            two_way_splits,
            three_way_splits,
            slice_fetches,
            slice_overflows,
            local_answers,
            leaf_subcrawls,
            slice_cache_hits,
            barrier_pivots,
            barrier_deep_tuples,
            transient_retries,
        } = merged;
        assert_eq!(
            [
                two_way_splits,
                three_way_splits,
                slice_fetches,
                slice_overflows,
                local_answers,
                leaf_subcrawls,
                slice_cache_hits,
                barrier_pivots,
                barrier_deep_tuples,
                transient_retries
            ],
            [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
        );
    }

    #[test]
    fn rates() {
        let r = report(vec![]);
        assert!((r.resolution_rate() - 0.8).abs() < 1e-12);
        assert!((r.queries_per_tuple() - 0.5).abs() < 1e-12);
    }

    /// Empty crawls must yield finite, zero rates — not NaN, ∞, or a
    /// fictitious 100% resolution — so aggregations never need guards.
    #[test]
    fn zero_query_report_rates_are_zero() {
        let r = CrawlReport {
            algorithm: "t",
            tuples: vec![],
            queries: 0,
            resolved: 0,
            overflowed: 0,
            pruned: 0,
            metrics: CrawlMetrics::default(),
            progress: vec![],
        };
        assert_eq!(r.resolution_rate(), 0.0);
        assert_eq!(r.queries_per_tuple(), 0.0);
        assert_eq!(r.progress_deviation(), 0.0);
        assert!(r.resolution_rate().is_finite());
        assert!(r.queries_per_tuple().is_finite());
    }

    /// Queries without extractions (e.g. a crawl stopped before the
    /// first tuple): still a finite queries-per-tuple.
    #[test]
    fn queries_without_tuples_rate_is_zero_not_infinite() {
        let r = CrawlReport {
            algorithm: "t",
            tuples: vec![],
            queries: 17,
            resolved: 3,
            overflowed: 14,
            pruned: 0,
            metrics: CrawlMetrics::default(),
            progress: vec![],
        };
        assert_eq!(r.queries_per_tuple(), 0.0);
        assert!((r.resolution_rate() - 3.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn progress_deviation_diagonal_is_zero() {
        let pts = (0..=10)
            .map(|i| ProgressPoint {
                queries: i,
                tuples: i,
            })
            .collect();
        assert!(report(pts).progress_deviation() < 1e-12);
    }

    #[test]
    fn progress_deviation_detects_backloading() {
        // All tuples arrive at the very end: deviation near 1.
        let pts = vec![
            ProgressPoint {
                queries: 1,
                tuples: 0,
            },
            ProgressPoint {
                queries: 99,
                tuples: 0,
            },
            ProgressPoint {
                queries: 100,
                tuples: 100,
            },
        ];
        assert!(report(pts).progress_deviation() > 0.9);
    }

    #[test]
    fn error_partial_access() {
        let r = report(vec![]);
        let e = CrawlError::Db {
            error: DbError::BudgetExhausted {
                issued: 5,
                limit: 5,
            },
            partial: Box::new(r),
        };
        assert_eq!(e.partial().tuples.len(), 10);
        assert!(e.to_string().contains("aborted after 5 queries"));
        assert_eq!(e.into_partial().queries, 5);
    }

    #[test]
    fn unsolvable_display() {
        let e = CrawlError::Unsolvable {
            witness: Query::any(1),
            partial: Box::new(report(vec![])),
        };
        assert!(e.to_string().contains("not crawlable"));
    }

    #[test]
    fn stopped_carries_partial() {
        let e = CrawlError::Stopped {
            partial: Box::new(report(vec![])),
        };
        assert_eq!(e.partial().tuples.len(), 10);
        assert!(e.to_string().contains("stopped by observer"));
        assert_eq!(e.into_partial().queries, 5);
    }

    /// The snapshot fold keeps only complete shards: their bags in the
    /// given order and their accounting summed; a partial snapshot (one
    /// with a frontier) contributes nothing.
    #[test]
    fn from_snapshots_folds_complete_shards_only() {
        let snap = |index: usize, value: i64, frontier: Option<u64>| ShardSnapshot {
            index,
            queries: 3,
            resolved: 2,
            overflowed: 1,
            pruned: 1,
            frontier,
            metrics: CrawlMetrics {
                slice_fetches: 1,
                ..CrawlMetrics::default()
            },
            tuples: vec![int_tuple(&[value])],
        };
        let merged = CrawlReport::from_snapshots(
            "fleet",
            [snap(1, 10, None), snap(0, 20, Some(1)), snap(2, 30, None)],
        );
        assert_eq!(merged.algorithm, "fleet");
        assert_eq!(merged.tuples, vec![int_tuple(&[10]), int_tuple(&[30])]);
        assert_eq!(
            (
                merged.queries,
                merged.resolved,
                merged.overflowed,
                merged.pruned
            ),
            (6, 4, 2, 2)
        );
        assert_eq!(merged.metrics.slice_fetches, 2);
        assert!(merged.progress.is_empty());
    }
}
