//! The rank-inference barrier crawler.

use std::collections::HashSet;
use std::sync::Mutex;

use hdc_core::numeric::extent::{extent, split2, split3};
use hdc_core::{
    run_crawl, Abort, Connector, Crawl, CrawlError, CrawlObserver, CrawlReport, Crawler, Session,
    SessionConfig, ShardCrawler, ShardSpec, Strategy, MAX_BATCH,
};
use hdc_types::{AttrKind, HiddenDatabase, Predicate, Query, QueryOutcome, Schema, Tuple};

use crate::report::{merge_histograms, BarrierReport, Discovery, ShardedBarrierReport};

/// The top-k-barrier crawler (see the crate docs for the algorithm).
///
/// Like [`hdc_core::RankShrink`], the two split fractions are exposed for
/// ablation: `pivot_frac` places the numeric pivot at the
/// `⌈pivot_frac·k⌉`-th smallest window value, and a 3-way split triggers
/// when the pivot value's multiplicity within the window exceeds
/// `heavy_frac·k`. Correctness holds for any values in `(0, 1)`.
#[derive(Clone, Copy, Debug)]
pub struct BarrierCrawler {
    pivot_frac: f64,
    heavy_frac: f64,
}

impl Default for BarrierCrawler {
    fn default() -> Self {
        Self::new()
    }
}

/// First-sighting log: one entry per distinct tuple value, at the depth
/// of the response window it first appeared in. (`Tuple` is
/// `Arc`-backed, so the set and the log share the same allocations.)
#[derive(Default)]
struct DepthTracker {
    seen: HashSet<Tuple>,
    log: Vec<Discovery>,
}

impl DepthTracker {
    /// Mines one response window for first sightings. Called on *every*
    /// outcome — overflowed windows included, since the whole point of
    /// rank inference is what the truncated window reveals.
    fn observe(&mut self, session: &mut Session<'_>, tuples: &[Tuple], depth: u32) {
        for t in tuples {
            if self.seen.insert(t.clone()) {
                if depth > 0 {
                    session.metrics().barrier_deep_tuples += 1;
                }
                self.log.push(Discovery {
                    tuple: t.clone(),
                    depth,
                });
            }
        }
    }
}

/// One overflowing node awaiting discriminating expansion.
struct Frame {
    query: Query,
    window: QueryOutcome,
    depth: u32,
}

impl BarrierCrawler {
    /// A barrier crawler with the standard constants (pivot at the
    /// window median, heavy threshold k/4 — the rank-shrink constants,
    /// which the demotion argument inherits).
    pub fn new() -> Self {
        BarrierCrawler {
            pivot_frac: 0.5,
            heavy_frac: 0.25,
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
        BarrierCrawler {
            pivot_frac,
            heavy_frac,
        }
    }

    /// Crawls the whole database under `config`, returning the full
    /// barrier report (per-tuple discovery depths alongside the crawl
    /// accounting). A [`hdc_core::RetryPolicy`] in the config reissues
    /// transient query failures instead of aborting, a
    /// [`hdc_core::CancelToken`] stops the crawl from any thread, and an
    /// observer sees queries, tuples, and progress points as they happen
    /// and can stop the crawl early ([`CrawlError::Stopped`] then carries
    /// the partial report — the discovery depths mined up to the stop are
    /// lost with it, as they ride the [`BarrierReport`] of successful
    /// crawls only).
    pub fn crawl_report(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<BarrierReport, CrawlError> {
        let schema = db.schema().clone();
        let mut tracker = DepthTracker::default();
        let report = run_crawl("barrier", db, None, config, |session| {
            self.run_barrier(session, &schema, schema.full_query(), &mut tracker)
        })?;
        Ok(BarrierReport::assemble(report, tracker.log))
    }

    /// Crawls one shard's subspace: a barrier crawl rooted at each of the
    /// shard's covering queries, in plan order. Depths are relative to
    /// each subtree root (a shard's "frontier" is what its own covering
    /// queries make visible).
    ///
    /// The query sequence depends only on the spec and the database —
    /// the same contract [`ShardSpec::crawl`] honors — so shards can run
    /// on any session, in any order, on any machine; retries never change
    /// it (only failed attempts are reissued, and they are never
    /// charged).
    fn shard_report(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        spec: &ShardSpec,
        config: SessionConfig<'_>,
    ) -> Result<BarrierReport, CrawlError> {
        let mut tracker = DepthTracker::default();
        let report = run_crawl("sharded-barrier", db, None, config, |session| {
            for root in spec.queries() {
                self.run_barrier(session, schema, root.clone(), &mut tracker)?;
            }
            Ok(())
        })?;
        Ok(BarrierReport::assemble(report, tracker.log))
    }

    /// Parallelizes a barrier crawl across `sessions` client identities:
    /// the crawl builder's `Strategy::Custom` run on the shard cursor
    /// ([`hdc_core::CrawlBuilder::run_sharded`], plan oversubscribed
    /// by `factor`, with the same retirement, salvage, and merge
    /// semantics as the hybrid crawler), this crawler running each shard.
    /// One session at factor 1 is the one-shard plan, crawled by
    /// [`BarrierCrawler::crawl_report`]: its frontier and histogram are
    /// the solo crawl's. `observer`, if any, receives the live events
    /// and one `on_shard` per merged shard.
    ///
    /// The merge is **depth-aware**: each shard's per-tuple depth
    /// histogram (relative to its own covering roots) survives the merge
    /// as an element-wise sum in
    /// [`ShardedBarrierReport::depth_histogram`], so the "how deep does
    /// the barrier bury the data" statistic can be benched at scale.
    /// Individual [`Discovery`] logs stay per shard.
    ///
    /// # Panics
    /// Panics if `sessions` or `factor` is 0.
    ///
    /// [`Discovery`]: crate::Discovery
    pub fn crawl_sharded<C: Connector>(
        &self,
        connector: C,
        sessions: usize,
        factor: usize,
        observer: Option<&mut dyn CrawlObserver>,
    ) -> Result<ShardedBarrierReport, CrawlError> {
        let depths = DepthCollector {
            crawler: self,
            histograms: Mutex::default(),
        };
        let mut builder = Crawl::builder()
            .strategy(Strategy::Custom(&depths))
            .sessions(sessions)
            .oversubscribe(factor);
        if let Some(observer) = observer {
            builder = builder.observer(observer);
        }
        let report = builder.run_sharded(connector)?;
        let merged = merge_histograms(
            depths
                .histograms
                .into_inner()
                .expect("histogram channel poisoned"),
        );
        Ok(ShardedBarrierReport::assemble(report, merged))
    }

    /// The crawl driver: issue the root, then repeatedly expand the
    /// deepest overflowing node with discriminating children until every
    /// rectangle of the partition has resolved.
    fn run_barrier(
        &self,
        session: &mut Session<'_>,
        schema: &Schema,
        root: Query,
        tracker: &mut DepthTracker,
    ) -> Result<(), Abort> {
        if root.is_unsatisfiable() {
            return Ok(()); // empty shard root
        }
        let window = session.run(&root)?;
        tracker.observe(session, &window.tuples, 0);
        if window.is_resolved() {
            session.report(window.tuples);
            return Ok(());
        }
        let mut stack: Vec<Frame> = vec![Frame {
            query: root,
            window,
            depth: 0,
        }];
        while let Some(frame) = stack.pop() {
            let children = self.discriminate(schema, &frame)?;
            session.metrics().barrier_pivots += 1;
            let child_depth = frame.depth + 1;
            let mut pending: Vec<Frame> = Vec::new();
            // Sibling discriminating probes go to the server in
            // MAX_BATCH-sized windows through the session batch path;
            // each window's resolved tuples are reported before the next
            // is issued (a failure forfeits at most one window).
            for probe_window in children.chunks(MAX_BATCH) {
                let outs = session.run_batch(probe_window)?;
                for (cq, out) in probe_window.iter().zip(outs) {
                    tracker.observe(session, &out.tuples, child_depth);
                    if out.is_resolved() {
                        session.report(out.tuples);
                    } else {
                        pending.push(Frame {
                            query: cq.clone(),
                            window: out,
                            depth: child_depth,
                        });
                    }
                }
            }
            // Depth-first: the first overflowing child's subtree next.
            for frame in pending.into_iter().rev() {
                stack.push(frame);
            }
        }
        Ok(())
    }

    /// Builds the discriminating children of one overflowing node: pick
    /// the candidate attribute with the best **demotion yield per
    /// probe** — the window's distinct values on the attribute divided
    /// by the probes discriminating on it costs (a categorical pin
    /// issues one probe per domain value; a numeric pivot issues two or
    /// three). Raw distinct-count alone would pick a 30k-value ID-like
    /// attribute the moment its window values are all distinct and pay
    /// one probe per domain value for a single expansion; per-probe
    /// yield sends those nodes to a numeric pivot or a small domain
    /// instead (NSF's PI-name attribute is the cautionary instance).
    /// Ties go to schema order — the order the paper's evaluation uses
    /// (increasing domain size).
    ///
    /// Returns `Abort::Unsolvable` when no candidate remains: every
    /// categorical attribute pinned and every numeric extent exhausted
    /// means the query already pins a single point, yet it overflowed —
    /// more than `k` duplicates (§1.1 of the first paper).
    fn discriminate(&self, schema: &Schema, frame: &Frame) -> Result<Vec<Query>, Abort> {
        let q = &frame.query;
        let window = &frame.window.tuples;
        let mut best: Option<(u64, u64, usize)> = None; // (distinct, probes, attr)
        for a in 0..schema.arity() {
            let probes = match schema.kind(a) {
                AttrKind::Categorical { size } => {
                    if !q.pred(a).is_any() {
                        continue;
                    }
                    u64::from(size)
                }
                AttrKind::Numeric { .. } => {
                    let (lo, hi) = extent(q, a);
                    if lo >= hi {
                        continue;
                    }
                    2
                }
            };
            let distinct = distinct_in_window(window, a) as u64;
            // Cross-multiplied score comparison (distinct/probes), strict
            // `>` so ties keep the lowest attribute index.
            let better = match best {
                None => true,
                Some((bd, bp, _)) => distinct * bp > bd * probes,
            };
            if better {
                best = Some((distinct, probes, a));
            }
        }
        let Some((_, _, attr)) = best else {
            return Err(Abort::Unsolvable(q.clone()));
        };
        Ok(match schema.kind(attr) {
            AttrKind::Categorical { size } => {
                // Pinning value v demotes every window occupant with a
                // different value; all pins together partition the node.
                (0..size)
                    .map(|v| q.with_pred(attr, Predicate::Eq(v)))
                    .collect()
            }
            AttrKind::Numeric { .. } => {
                // Rank-shrink-style pivot over the window: each side of
                // the split demotes the occupants on the other side.
                let mut vals: Vec<i64> = window.iter().map(|t| t.get(attr).expect_int()).collect();
                vals.sort_unstable();
                let rank =
                    ((self.pivot_frac * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
                let x = vals[rank - 1];
                let c = vals.iter().filter(|&&v| v == x).count();
                let (lo, _hi) = extent(q, attr);
                let heavy = c as f64 > self.heavy_frac * vals.len() as f64;
                if !heavy && x > lo {
                    let (left, right) = split2(q, attr, x);
                    vec![left, right]
                } else {
                    // Heavy pivot (or boundary): carve the pivot value
                    // out as its own exhausted rectangle.
                    let (left, mid, right) = split3(q, attr, x);
                    left.into_iter()
                        .chain(std::iter::once(mid))
                        .chain(right)
                        .collect()
                }
            }
        })
    }
}

/// Number of distinct values the window carries on attribute `a` — the
/// attribute's discriminating power at this node.
fn distinct_in_window(window: &[Tuple], a: usize) -> usize {
    let mut vals: Vec<hdc_types::Value> = window.iter().map(|t| t.get(a)).collect();
    vals.sort_unstable();
    vals.dedup();
    vals.len()
}

impl Crawler for BarrierCrawler {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn supports(&self, _schema: &Schema) -> bool {
        true // numeric, categorical, and mixed spaces alike
    }

    fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        self.crawl_report(db, config).map(|r| r.report)
    }
}

/// Plugs the barrier crawler into the one-stop builder:
/// `Crawl::builder().strategy(Strategy::Custom(&BarrierCrawler::new()))`
/// runs it solo or — through `sessions(n)` — across identities on the
/// shard cursor ([`BarrierCrawler::crawl_sharded`] is that run
/// plus the merged depth histogram).
impl ShardCrawler for BarrierCrawler {
    fn crawl_spec(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        spec: &ShardSpec,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        self.shard_report(db, schema, spec, config)
            .map(|r| r.report)
    }
}

/// The barrier crawler as [`BarrierCrawler::crawl_sharded`] runs it on
/// the pool: each shard crawls exactly as the plain `Strategy::Custom`
/// run does, and its depth histogram rides a side channel out of the
/// worker threads (the pool only moves `CrawlReport`s; summing
/// histograms is commutative, so collection order doesn't matter).
struct DepthCollector<'c> {
    crawler: &'c BarrierCrawler,
    histograms: Mutex<Vec<Vec<u64>>>,
}

impl Crawler for DepthCollector<'_> {
    fn name(&self) -> &'static str {
        self.crawler.name()
    }

    fn supports(&self, schema: &Schema) -> bool {
        self.crawler.supports(schema)
    }

    /// The one-shard plan's crawl: the solo barrier crawl, whose
    /// histogram is the crawl's.
    fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        self.collect(self.crawler.crawl_report(db, config)?)
    }
}

impl ShardCrawler for DepthCollector<'_> {
    fn crawl_spec(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        spec: &ShardSpec,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        self.collect(self.crawler.shard_report(db, schema, spec, config)?)
    }
}

impl DepthCollector<'_> {
    /// Banks one crawl's depth histogram and passes its report on.
    fn collect(&self, out: BarrierReport) -> Result<CrawlReport, CrawlError> {
        self.histograms
            .lock()
            .expect("histogram channel poisoned")
            .push(out.depth_histogram());
        Ok(out.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::verify_complete;
    use hdc_server::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::{cat_tuple, int_tuple};
    use hdc_types::{TupleBag, Value};

    fn server_1d(rows: Vec<Tuple>, k: usize, seed: u64) -> HiddenDbServer {
        let schema = Schema::builder()
            .numeric("x", i64::MIN, i64::MAX)
            .build()
            .unwrap();
        HiddenDbServer::new(schema, rows, ServerConfig { k, seed }).unwrap()
    }

    #[test]
    fn frontier_is_exactly_the_roots_top_k() {
        let rows: Vec<Tuple> = (0..200).map(|v| int_tuple(&[v])).collect();
        let mut db = server_1d(rows.clone(), 16, 5);
        let visible: TupleBag = db.rows()[..16].iter().collect();
        let out = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap();
        verify_complete(&rows, &out.report).unwrap();
        assert_eq!(out.frontier(), 16);
        let frontier: TupleBag = out
            .discoveries
            .iter()
            .filter(|d| d.depth == 0)
            .map(|d| &d.tuple)
            .collect();
        // All rows are distinct here, so the depth-0 set is the server's
        // top-16 exactly.
        assert!(frontier.multiset_eq(&visible));
        assert_eq!(out.beyond_frontier(), 200 - 16);
        assert_eq!(
            out.report.metrics.barrier_deep_tuples,
            (200 - 16) as u64
        );
        assert!(out.report.metrics.barrier_pivots > 0);
    }

    #[test]
    fn resolved_root_means_no_barrier() {
        let rows: Vec<Tuple> = (0..10).map(|v| int_tuple(&[v])).collect();
        let mut db = server_1d(rows.clone(), 64, 1);
        let out = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap();
        verify_complete(&rows, &out.report).unwrap();
        assert_eq!(out.report.queries, 1);
        assert_eq!(out.max_depth, 0);
        assert_eq!(out.beyond_frontier(), 0);
        assert_eq!(out.report.metrics.barrier_pivots, 0);
    }

    #[test]
    fn empty_database() {
        let mut db = server_1d(vec![], 4, 0);
        let out = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap();
        assert_eq!(out.report.queries, 1);
        assert!(out.discoveries.is_empty());
    }

    #[test]
    fn depths_are_monotone_in_first_sighting_order_per_branch() {
        // Sanity: a discovery's depth never exceeds the pivot count, and
        // depth-0 discoveries all precede the first expansion's yield.
        let rows: Vec<Tuple> = (0..500).map(|v| int_tuple(&[v * 7 % 1009])).collect();
        let mut db = server_1d(rows.clone(), 32, 3);
        let out = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap();
        verify_complete(&rows, &out.report).unwrap();
        assert!(out.discoveries[..32].iter().all(|d| d.depth == 0));
        assert!(u64::from(out.max_depth) <= out.report.metrics.barrier_pivots);
        let hist = out.depth_histogram();
        assert_eq!(hist.iter().sum::<u64>() as usize, out.discoveries.len());
        assert_eq!(hist[0], 32);
    }

    #[test]
    fn categorical_discrimination_completes() {
        let schema = Schema::builder()
            .categorical("a", 5)
            .categorical("b", 4)
            .build()
            .unwrap();
        // 5 copies of each of the 20 points: solvable at k = 8 ≥ 5, but
        // every slice of the space overflows, so discrimination is the
        // only way down.
        let rows: Vec<Tuple> = (0..100u32)
            .map(|i| cat_tuple(&[i % 5, (i / 5) % 4]))
            .collect();
        let mut db =
            HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 8, seed: 2 }).unwrap();
        let out = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap();
        verify_complete(&rows, &out.report).unwrap();
        assert!(out.max_depth >= 1);
    }

    #[test]
    fn mixed_schema_completes() {
        let schema = Schema::builder()
            .categorical("make", 6)
            .numeric("price", 0, 9_999)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..1_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13);
                Tuple::new(vec![
                    Value::Cat((h % 6) as u32),
                    Value::Int(((h >> 8) % 10_000) as i64),
                ])
            })
            .collect();
        let mut db =
            HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 24, seed: 7 }).unwrap();
        let out = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap();
        verify_complete(&rows, &out.report).unwrap();
        assert_eq!(
            out.report.metrics.barrier_deep_tuples as usize,
            out.beyond_frontier()
        );
    }

    #[test]
    fn detects_unsolvable_duplicates() {
        let rows: Vec<Tuple> = std::iter::repeat_n(int_tuple(&[9]), 20).collect();
        let mut db = server_1d(rows, 8, 2);
        let err = BarrierCrawler::new()
            .crawl_report(&mut db, SessionConfig::default())
            .unwrap_err();
        assert!(matches!(err, CrawlError::Unsolvable { .. }));
    }

    #[test]
    fn ablation_parameters_remain_correct() {
        let rows: Vec<Tuple> = (0..400)
            .map(|i| int_tuple(&[(i as i64 * 37) % 131]))
            .collect();
        for (p, h) in [(0.25, 0.25), (0.75, 0.1), (0.5, 0.6), (0.9, 0.9)] {
            let mut db = server_1d(rows.clone(), 16, 8);
            let out = BarrierCrawler::with_params(p, h)
                .crawl_report(&mut db, SessionConfig::default())
                .unwrap();
            verify_complete(&rows, &out.report)
                .unwrap_or_else(|e| panic!("params ({p},{h}): {e:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "pivot_frac")]
    fn rejects_bad_params() {
        BarrierCrawler::with_params(1.0, 0.25);
    }

    #[test]
    fn sharded_barrier_recovers_the_full_bag() {
        let schema = Schema::builder()
            .categorical("c", 5)
            .numeric("x", 0, 999)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..800u64)
            .map(|i| {
                let h = i.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(11);
                Tuple::new(vec![
                    Value::Cat((h % 5) as u32),
                    Value::Int(((h >> 8) % 1000) as i64),
                ])
            })
            .collect();
        for (sessions, factor) in [(1usize, 1usize), (2, 3), (4, 2)] {
            let report = BarrierCrawler::new()
                .crawl_sharded(
                    |_s| {
                        HiddenDbServer::new(
                            schema.clone(),
                            rows.clone(),
                            ServerConfig { k: 16, seed: 21 },
                        )
                        .unwrap()
                    },
                    sessions,
                    factor,
                    None,
                )
                .unwrap_or_else(|e| panic!("sessions={sessions} factor={factor}: {e}"));
            verify_complete(&rows, &report.sharded.merged)
                .unwrap_or_else(|e| panic!("sessions={sessions} factor={factor}: {e}"));
            assert!(report.sharded.merged.metrics.barrier_pivots > 0);
        }
    }

    #[test]
    fn shard_crawl_matches_plan_order_and_is_schedule_free() {
        let schema = Schema::builder()
            .categorical("c", 4)
            .numeric("x", 0, 499)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..600u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                Tuple::new(vec![
                    Value::Cat((h % 4) as u32),
                    Value::Int(((h >> 8) % 500) as i64),
                ])
            })
            .collect();
        let make = || {
            HiddenDbServer::new(schema.clone(), rows.clone(), ServerConfig { k: 16, seed: 3 })
                .unwrap()
        };
        let crawler = BarrierCrawler::new();
        let stolen = crawler.crawl_sharded(|_s| make(), 3, 2, None).unwrap();
        let plan = hdc_core::Sharded::plan_oversubscribed(&schema, 3, 2);
        assert_eq!(stolen.sharded.shards.len(), plan.len());
        let mut seq_total = 0u64;
        for (i, spec) in plan.iter().enumerate() {
            let mut db = make();
            let solo = crawler
                .shard_report(&mut db, &schema, spec, SessionConfig::default())
                .unwrap();
            assert_eq!(
                solo.report.queries, stolen.sharded.shards[i].report.queries,
                "shard {i} cost depends on scheduling"
            );
            assert_eq!(solo.report.tuples.len() as u64, stolen.sharded.shards[i].tuples);
            seq_total += solo.report.queries;
        }
        assert_eq!(stolen.sharded.merged.queries, seq_total);
    }
}
