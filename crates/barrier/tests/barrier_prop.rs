//! Differential suite for the top-k-barrier crawler.
//!
//! Anchors PR 4 the same way PR 1–3 were anchored:
//!
//! * **oracle**: on random schemas/k/priority-seeds, the barrier crawl's
//!   recovered bag is multiset-identical to the brute-force full table
//!   (the instance's own tuples), and the discovery log covers exactly
//!   the distinct tuple values;
//! * **batched ≡ per-query**: the crawl issues the *identical query
//!   sequence* — and produces identical bag, cost, and per-tuple depths —
//!   whether the database has a native batch path (the engine server) or
//!   answers batches with the trait's default per-query loop;
//! * **unsolvable detection**: instances with a point multiplicity above
//!   `k` fail with `Unsolvable`, never with a wrong bag;
//! * **sharded ≡ sequential**: a work-stealing sharded barrier crawl
//!   matches a sequential shard-by-shard execution of the same plan.

use proptest::prelude::*;

use hdc_barrier::BarrierCrawler;
use hdc_core::{verify_complete, CrawlError, SessionConfig, ShardCrawler, Sharded};
use hdc_server::{HiddenDbServer, ServerConfig};
use hdc_types::{
    AttrKind, DbError, HiddenDatabase, Query, QueryOutcome, Schema, Tuple, TupleBag, Value,
};

/// A generated test instance: schema + tuples + k.
#[derive(Debug, Clone)]
struct Instance {
    schema: Schema,
    tuples: Vec<Tuple>,
    k: usize,
}

impl Instance {
    fn solvable(&self) -> bool {
        TupleBag::from_tuples(self.tuples.iter().cloned()).max_multiplicity() <= self.k
    }

    fn server(&self, seed: u64) -> HiddenDbServer {
        HiddenDbServer::new(
            self.schema.clone(),
            self.tuples.clone(),
            ServerConfig { k: self.k, seed },
        )
        .unwrap()
    }
}

/// Schemas with 1–3 attributes and small domains, so duplicates, heavy
/// pivots, all-categorical and all-numeric discrimination, and unsolvable
/// points all occur.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((any::<bool>(), 2u32..7, 1i64..25), 1..4),
        2usize..10,
        0usize..120,
        any::<u64>(),
    )
        .prop_map(|(attrs, k, n, seed)| {
            let mut builder = Schema::builder();
            let mut kinds = Vec::new();
            for (i, &(is_cat, u, w)) in attrs.iter().enumerate() {
                if is_cat {
                    builder = builder.categorical(format!("c{i}"), u);
                    kinds.push(AttrKind::Categorical { size: u });
                } else {
                    builder = builder.numeric(format!("n{i}"), -w, w);
                    kinds.push(AttrKind::Numeric { min: -w, max: w });
                }
            }
            let schema = builder.build().unwrap();
            let mut x = seed | 1;
            let mut next = move || {
                // xorshift64*
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
            let tuples: Vec<Tuple> = (0..n)
                .map(|_| {
                    Tuple::new(
                        kinds
                            .iter()
                            .map(|&kind| match kind {
                                AttrKind::Categorical { size } => {
                                    Value::Cat((next() % u64::from(size)) as u32)
                                }
                                AttrKind::Numeric { min, max } => {
                                    let span = (max - min + 1) as u64;
                                    Value::Int(min + (next() % span) as i64)
                                }
                            })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            Instance { schema, tuples, k }
        })
}

/// Records the flattened query sequence flowing to the inner database
/// (batch calls contribute their queries in order).
struct Trace<D> {
    inner: D,
    seq: Vec<Query>,
}

impl<D: HiddenDatabase> Trace<D> {
    fn new(inner: D) -> Self {
        Trace {
            inner,
            seq: Vec::new(),
        }
    }
}

impl<D: HiddenDatabase> HiddenDatabase for Trace<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        self.seq.push(q.clone());
        self.inner.query(q)
    }

    fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        self.seq.extend(queries.iter().cloned());
        self.inner.query_batch(queries)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// Strips the inner database's native batch path: `query_batch` falls
/// back to the trait's default per-query loop.
struct PerQueryLoop<D>(D);

impl<D: HiddenDatabase> HiddenDatabase for PerQueryLoop<D> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn k(&self) -> usize {
        self.0.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        self.0.query(q)
    }

    fn queries_issued(&self) -> u64 {
        self.0.queries_issued()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The recovered bag equals the brute-force full table, and the
    /// discovery log covers exactly the distinct tuple values with a
    /// frontier of at most k.
    #[test]
    fn barrier_bag_matches_brute_force_oracle(inst in instance_strategy()) {
        prop_assume!(inst.solvable());
        let mut db = inst.server(17);
        let out = match BarrierCrawler::new().crawl_report(&mut db, SessionConfig::default()) {
            Ok(out) => out,
            Err(e) => {
                prop_assert!(false, "barrier crawl failed on solvable instance: {e}");
                unreachable!()
            }
        };
        prop_assert!(verify_complete(&inst.tuples, &out.report).is_ok());

        let distinct: TupleBag = inst.tuples.iter().collect();
        prop_assert_eq!(out.discoveries.len(), distinct.distinct());
        prop_assert!(out.frontier() <= inst.k);
        prop_assert_eq!(
            out.report.metrics.barrier_deep_tuples as usize,
            out.beyond_frontier()
        );
        // The depth histogram re-partitions the discovery log.
        prop_assert_eq!(
            out.depth_histogram().iter().sum::<u64>() as usize,
            out.discoveries.len()
        );
    }

    /// Batched and per-query execution are query-set-identical: the same
    /// query sequence reaches the database, and bag, cost, and per-tuple
    /// discovery depths all agree.
    #[test]
    fn batched_and_per_query_execution_are_identical(inst in instance_strategy()) {
        prop_assume!(inst.solvable());
        let crawler = BarrierCrawler::new();

        let mut batched = Trace::new(inst.server(23));
        let out_b = crawler.crawl_report(&mut batched, SessionConfig::default()).unwrap();

        let mut looped = Trace::new(PerQueryLoop(inst.server(23)));
        let out_l = crawler.crawl_report(&mut looped, SessionConfig::default()).unwrap();

        prop_assert_eq!(&batched.seq, &looped.seq, "query sequences diverged");
        prop_assert_eq!(out_b.report.queries, out_l.report.queries);
        prop_assert_eq!(out_b.report.resolved, out_l.report.resolved);
        prop_assert_eq!(out_b.report.overflowed, out_l.report.overflowed);
        prop_assert_eq!(&out_b.report.tuples, &out_l.report.tuples);
        prop_assert_eq!(&out_b.discoveries, &out_l.discoveries);
        prop_assert_eq!(out_b.max_depth, out_l.max_depth);
    }

    /// Instances with more than k duplicates at one point are reported
    /// unsolvable (with a point-query witness), never mis-extracted.
    #[test]
    fn unsolvable_instances_are_detected(inst in instance_strategy()) {
        prop_assume!(!inst.solvable());
        let mut db = inst.server(31);
        match BarrierCrawler::new().crawl_report(&mut db, SessionConfig::default()) {
            Err(CrawlError::Unsolvable { witness, .. }) => {
                prop_assert!(witness.constrained_count() > 0);
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(_) => prop_assert!(false, "unsolvable instance crawled 'successfully'"),
        }
    }

    /// A work-stealing sharded barrier crawl equals a sequential
    /// shard-by-shard execution of the same plan: identical merged bag,
    /// total cost, and per-shard costs.
    #[test]
    fn sharded_barrier_matches_sequential_plan_execution(
        inst in instance_strategy(),
        sessions in 2usize..4,
        factor in 2usize..4,
    ) {
        prop_assume!(inst.solvable());
        let crawler = BarrierCrawler::new();
        let stolen = crawler.crawl_sharded(|_s| inst.server(11), sessions, factor, None);
        let stolen = match stolen {
            Ok(report) => report,
            Err(e) => {
                prop_assert!(false, "sharded barrier failed on solvable instance: {e}");
                unreachable!()
            }
        };
        prop_assert!(verify_complete(&inst.tuples, &stolen.sharded.merged).is_ok());

        let plan = Sharded::plan_oversubscribed(&inst.schema, sessions, factor);
        prop_assert_eq!(plan.len(), stolen.sharded.shards.len());
        let mut seq_total = 0u64;
        let mut seq_bag = TupleBag::new();
        for (i, spec) in plan.iter().enumerate() {
            let mut db = inst.server(11);
            let solo = crawler
                .crawl_spec(&mut db, &inst.schema, spec, SessionConfig::default())
                .unwrap();
            prop_assert_eq!(
                solo.queries,
                stolen.sharded.shards[i].report.queries,
                "shard {} cost changed under stealing",
                i
            );
            seq_total += solo.queries;
            for t in solo.tuples {
                seq_bag.insert(t);
            }
        }
        prop_assert_eq!(stolen.sharded.merged.queries, seq_total);
        let stolen_bag: TupleBag = stolen.sharded.merged.tuples.iter().collect();
        prop_assert!(stolen_bag.multiset_eq(&seq_bag));
    }
}

/// The one-stop builder's `Strategy::Custom` path is a *front end* over
/// this crawler, not a fork: solo runs match `crawl_report` bit for bit,
/// and so does the one-shard `crawl_sharded` (depth histogram included),
/// and `crawl_sharded` — the plain sharded `Strategy::Custom` run plus a
/// depth-histogram side channel — is that run unperturbed (same merged
/// bag/cost, same per-shard costs), its histogram reconciling with the
/// merged metrics.
mod builder_front_end {
    use super::*;
    use hdc_core::{Crawl, Strategy};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn builder_custom_solo_matches_crawl_report(inst in instance_strategy()) {
            prop_assume!(inst.solvable());
            let crawler = BarrierCrawler::new();
            let legacy = crawler.crawl_report(&mut inst.server(17), SessionConfig::default()).unwrap();
            let built = Crawl::builder()
                .strategy(Strategy::Custom(&crawler))
                .run(&mut inst.server(17))
                .unwrap();
            prop_assert_eq!(built.algorithm, "barrier");
            prop_assert_eq!(built.queries, legacy.report.queries);
            prop_assert_eq!(built.resolved, legacy.report.resolved);
            prop_assert_eq!(built.overflowed, legacy.report.overflowed);
            prop_assert_eq!(&built.progress, &legacy.report.progress);
            prop_assert_eq!(&built.tuples, &legacy.report.tuples);

            // One session at factor 1 is the solo crawl on the pool.
            let pooled = crawler.crawl_sharded(|_s| inst.server(17), 1, 1, None).unwrap();
            prop_assert_eq!(&pooled.depth_histogram, &legacy.depth_histogram());
            prop_assert_eq!(pooled.max_depth, legacy.max_depth);
            let merged = &pooled.sharded.merged;
            prop_assert_eq!(merged.algorithm, "barrier");
            prop_assert_eq!(merged.queries, legacy.report.queries);
            prop_assert_eq!(merged.metrics, legacy.report.metrics);
            prop_assert_eq!(&merged.progress, &legacy.report.progress);
            prop_assert_eq!(&merged.tuples, &legacy.report.tuples);
        }

        #[test]
        fn builder_custom_sharded_matches_crawl_sharded(
            inst in instance_strategy(),
            sessions in 2usize..4,
            factor in 1usize..4,
        ) {
            prop_assume!(inst.solvable());
            let crawler = BarrierCrawler::new();
            let collected = crawler
                .crawl_sharded(|_s| inst.server(19), sessions, factor, None)
                .unwrap();
            // The plain `Strategy::Custom` run, no histogram side channel.
            let built = Crawl::builder()
                .strategy(Strategy::Custom(&crawler))
                .sessions(sessions)
                .oversubscribe(factor)
                .run_sharded(|_s| inst.server(19))
                .unwrap();
            prop_assert_eq!(built.merged.queries, collected.sharded.merged.queries);
            prop_assert_eq!(&built.merged.tuples, &collected.sharded.merged.tuples);
            prop_assert_eq!(built.shards.len(), collected.sharded.shards.len());
            for (a, b) in built.shards.iter().zip(&collected.sharded.shards) {
                prop_assert_eq!(&a.spec, &b.spec);
                prop_assert_eq!(a.report.queries, b.report.queries);
                prop_assert_eq!(a.tuples, b.tuples);
            }
            // The depth-aware merge reconciles with the metrics both ways.
            prop_assert_eq!(
                collected.beyond_frontier(),
                built.merged.metrics.barrier_deep_tuples
            );
            // Shards cover disjoint subspaces, so the summed per-shard
            // discovery counts are exactly the distinct tuple values of
            // the merged bag.
            prop_assert_eq!(
                collected.depth_histogram.iter().sum::<u64>() as usize,
                TupleBag::from_tuples(built.merged.tuples.iter().cloned()).distinct()
            );
        }
    }
}
