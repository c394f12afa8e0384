//! Barrier-crawl results: the standard crawl report plus per-tuple
//! discovery depth (solo and depth-aware sharded variants).

use hdc_core::{CrawlReport, ShardedReport};
use hdc_types::Tuple;

/// One distinct tuple value's first sighting during a barrier crawl.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Discovery {
    /// The tuple value (duplicates share one discovery — the top-k
    /// window cannot distinguish occurrences of an identical tuple, so
    /// depth is a property of the point, not of the occurrence).
    pub tuple: Tuple,
    /// Discovery depth: how many discriminating refinements were stacked
    /// below the crawl root when the tuple first appeared in a result
    /// window. Depth 0 is the root's own k-visible frontier.
    pub depth: u32,
}

/// The result of a barrier crawl: complete extraction accounting plus
/// the rank-inference data the second paper's experiments are about.
#[derive(Clone, Debug)]
pub struct BarrierReport {
    /// The standard crawl accounting — extracted bag, query cost,
    /// resolved/overflow tallies, metrics (including `barrier_pivots`
    /// and `barrier_deep_tuples`), and the progress curve.
    pub report: CrawlReport,
    /// Every distinct tuple value in first-sighting order, with its
    /// discovery depth. Deterministic: the traversal order depends only
    /// on the database's responses, never on batching or scheduling.
    pub discoveries: Vec<Discovery>,
    /// The deepest discovery (0 for a crawl whose root resolved).
    pub max_depth: u32,
}

impl BarrierReport {
    /// Assembles a report from the crawl accounting and the tracker's
    /// first-sighting log.
    pub(crate) fn assemble(report: CrawlReport, discoveries: Vec<Discovery>) -> Self {
        let max_depth = discoveries.iter().map(|d| d.depth).max().unwrap_or(0);
        BarrierReport {
            report,
            discoveries,
            max_depth,
        }
    }

    /// Distinct tuples visible at the crawl root (depth 0) — the
    /// k-visible frontier a one-shot prober would see.
    pub fn frontier(&self) -> usize {
        self.discoveries.iter().filter(|d| d.depth == 0).count()
    }

    /// Distinct tuples first seen *below* the frontier (depth ≥ 1) —
    /// everything the top-k barrier hid.
    pub fn beyond_frontier(&self) -> usize {
        self.discoveries.len() - self.frontier()
    }

    /// Count of distinct tuples first seen at each depth
    /// (`histogram[d]` = discoveries at depth `d`; length
    /// `max_depth + 1`, empty for an empty crawl).
    pub fn depth_histogram(&self) -> Vec<u64> {
        if self.discoveries.is_empty() {
            return Vec::new();
        }
        let mut hist = vec![0u64; self.max_depth as usize + 1];
        for d in &self.discoveries {
            hist[d.depth as usize] += 1;
        }
        hist
    }

    /// Mean discovery depth over distinct tuples (0.0 for an empty
    /// crawl) — the "how deep does the barrier bury the data" statistic.
    pub fn mean_depth(&self) -> f64 {
        if self.discoveries.is_empty() {
            return 0.0;
        }
        let total: u64 = self.discoveries.iter().map(|d| u64::from(d.depth)).sum();
        total as f64 / self.discoveries.len() as f64
    }
}

/// Element-wise sum of per-shard depth histograms (padded to the longest).
pub(crate) fn merge_histograms(histograms: Vec<Vec<u64>>) -> Vec<u64> {
    let len = histograms.iter().map(Vec::len).max().unwrap_or(0);
    let mut merged = vec![0u64; len];
    for hist in histograms {
        for (slot, count) in merged.iter_mut().zip(hist) {
            *slot += count;
        }
    }
    merged
}

/// The result of a **sharded** barrier crawl: the standard
/// [`ShardedReport`] plus the merged discovery-depth distribution.
///
/// Depths are relative to each shard's own covering roots (a shard's
/// "frontier" is what its covering queries make visible), so the merged
/// histogram sums per-shard histograms element-wise — depth 0 counts
/// every tuple visible at *some* shard root, deeper buckets count tuples
/// that needed that many discriminating refinements inside their shard.
/// Before this type existed the sharded merge dropped the depths
/// entirely (only the `CrawlMetrics` aggregates survived).
#[derive(Debug)]
pub struct ShardedBarrierReport {
    /// The standard sharded crawl result: merged bag/accounting,
    /// per-identity aggregates, per-shard runs, pool counters.
    pub sharded: ShardedReport,
    /// Merged depth histogram: `depth_histogram[d]` = distinct tuples
    /// first seen at depth `d` of their shard's crawl. Empty for an
    /// empty crawl.
    pub depth_histogram: Vec<u64>,
    /// The deepest discovery across all shards (0 for crawls whose
    /// roots all resolved).
    pub max_depth: u32,
}

impl ShardedBarrierReport {
    pub(crate) fn assemble(sharded: ShardedReport, depth_histogram: Vec<u64>) -> Self {
        let max_depth = depth_histogram.len().saturating_sub(1) as u32;
        ShardedBarrierReport {
            sharded,
            depth_histogram,
            max_depth,
        }
    }

    /// Distinct tuples visible at some shard root (depth 0) — the union
    /// of the per-shard k-visible frontiers.
    pub fn frontier(&self) -> u64 {
        self.depth_histogram.first().copied().unwrap_or(0)
    }

    /// Distinct tuples first seen below their shard's frontier
    /// (depth ≥ 1).
    pub fn beyond_frontier(&self) -> u64 {
        self.depth_histogram.iter().skip(1).sum()
    }

    /// Mean discovery depth over distinct tuples (0.0 for an empty
    /// crawl).
    pub fn mean_depth(&self) -> f64 {
        let total: u64 = self.depth_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .depth_histogram
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::int_tuple;

    fn d(v: i64, depth: u32) -> Discovery {
        Discovery {
            tuple: int_tuple(&[v]),
            depth,
        }
    }

    #[test]
    fn aggregates_over_discoveries() {
        let r = BarrierReport::assemble(
            CrawlReport::empty("barrier"),
            vec![d(1, 0), d(2, 0), d(3, 1), d(4, 3), d(5, 1)],
        );
        assert_eq!(r.max_depth, 3);
        assert_eq!(r.frontier(), 2);
        assert_eq!(r.beyond_frontier(), 3);
        assert_eq!(r.depth_histogram(), vec![2, 2, 0, 1]);
        assert!((r.mean_depth() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_crawl() {
        let r = BarrierReport::assemble(CrawlReport::empty("barrier"), vec![]);
        assert_eq!(r.max_depth, 0);
        assert_eq!(r.frontier(), 0);
        assert_eq!(r.beyond_frontier(), 0);
        assert!(r.depth_histogram().is_empty());
        assert_eq!(r.mean_depth(), 0.0);
    }

    #[test]
    fn histogram_merge_pads_and_sums() {
        assert_eq!(
            merge_histograms(vec![vec![2, 1], vec![3], vec![1, 0, 4]]),
            vec![6, 1, 4]
        );
        assert!(merge_histograms(vec![]).is_empty());
        assert!(merge_histograms(vec![vec![], vec![]]).is_empty());
    }
}
