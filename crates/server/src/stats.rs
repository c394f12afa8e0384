//! Server-side query statistics.

use std::fmt;

use crate::engine::Strategy;

/// Counters maintained by the server across its lifetime.
///
/// The crawl algorithms are charged by *query count* (the paper's cost
/// metric); these statistics let experiments and tests read that count from
/// the server's side of the interface, and expose the planner's decisions
/// (scan vs. probe vs. intersect) for the micro-benchmarks.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// Total queries answered.
    pub queries: u64,
    /// Queries that resolved (full result returned).
    pub resolved: u64,
    /// Queries that overflowed (k tuples + signal).
    pub overflowed: u64,
    /// Total tuples shipped back to clients.
    pub tuples_returned: u64,
    /// Queries answered by the columnar scan path.
    pub scan_evals: u64,
    /// Queries answered by the single index-probe path (including
    /// index-settled empty results).
    pub probe_evals: u64,
    /// Queries answered by the multi-predicate bitset-block
    /// intersection.
    pub intersect_evals: u64,
    /// Probes whose driver was the derived cell column's list: queries
    /// pinning every categorical attribute and no numeric range. Also
    /// counted in `probe_evals`.
    pub cell_probes: u64,
    /// Probes driven by a cell ∩ range slice of the per-cell numeric
    /// order: queries pinning every categorical attribute and carrying
    /// numeric ranges. Also counted in `probe_evals`.
    pub cell_range_probes: u64,
    /// Batches of two or more queries evaluated through the batch path
    /// ([`crate::HiddenDbServer`]'s `query_batch`); empty and singleton
    /// batches are served by the single-query path and not counted here.
    pub batches: u64,
    /// Queries that arrived inside those batches (so
    /// `batched_queries / batches` is the mean batch size).
    pub batched_queries: u64,
    /// Batched queries answered by a grouped probe: one walk over the
    /// driver candidate list the group shares, shared residuals checked
    /// once per candidate for the whole group. Also counted in
    /// `probe_evals`.
    pub batch_grouped_probes: u64,
}

impl ServerStats {
    pub(crate) fn record_plan(&mut self, strategy: Strategy) {
        match strategy {
            Strategy::Scan => self.scan_evals += 1,
            Strategy::Probe => self.probe_evals += 1,
            Strategy::Intersect => self.intersect_evals += 1,
        }
    }

    pub(crate) fn record_batch(&mut self, len: usize) {
        self.batches += 1;
        self.batched_queries += len as u64;
    }

    pub(crate) fn record_outcome(&mut self, returned: usize, overflow: bool) {
        self.queries += 1;
        self.tuples_returned += returned as u64;
        if overflow {
            self.overflowed += 1;
        } else {
            self.resolved += 1;
        }
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries ({} resolved, {} overflowed), {} tuples returned, \
             eval: {} scans / {} probes ({} cell, {} cell-range) / {} intersects, \
             batch: {} batches / {} queries ({} grouped-probe)",
            self.queries,
            self.resolved,
            self.overflowed,
            self.tuples_returned,
            self.scan_evals,
            self.probe_evals,
            self.cell_probes,
            self.cell_range_probes,
            self.intersect_evals,
            self.batches,
            self.batched_queries,
            self.batch_grouped_probes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = ServerStats::default();
        s.record_plan(Strategy::Scan);
        s.record_outcome(10, false);
        s.record_plan(Strategy::Probe);
        s.record_outcome(5, true);
        s.record_plan(Strategy::Intersect);
        s.record_outcome(2, false);
        assert_eq!(s.queries, 3);
        assert_eq!(s.resolved, 2);
        assert_eq!(s.overflowed, 1);
        assert_eq!(s.tuples_returned, 17);
        assert_eq!(s.scan_evals, 1);
        assert_eq!(s.probe_evals, 1);
        assert_eq!(s.intersect_evals, 1);
    }

    #[test]
    fn batch_counters_accumulate() {
        let mut s = ServerStats::default();
        s.record_batch(3);
        s.record_batch(5);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_queries, 8);
        let text = s.to_string();
        assert!(text.contains("2 batches"));
        assert!(text.contains("8 queries"));
    }

    #[test]
    fn display_mentions_everything() {
        let mut s = ServerStats::default();
        s.record_plan(Strategy::Scan);
        s.record_outcome(3, false);
        s.cell_probes = 2;
        s.cell_range_probes = 5;
        let text = s.to_string();
        assert!(text.contains("1 queries"));
        assert!(text.contains("3 tuples"));
        assert!(text.contains("(2 cell, 5 cell-range)"));
    }
}
