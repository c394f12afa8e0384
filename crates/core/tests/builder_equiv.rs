//! Differential suite for the one-stop [`CrawlBuilder`]: the builder is
//! a *front end*, not a fork — every strategy × {budgeted, unbudgeted}
//! solo run must be **bit-identical** to the legacy entry point it wraps
//! (same bag, same query count and tallies, same progress curve), the
//! one-shard plan on the pool to the solo run, every sharded run to its
//! plan crawled shard by shard (same bag, shard by shard; each distinct
//! query charged once, since the shards share one slice memo; no shard
//! costing more than it costs alone; with or without an oracle),
//! `Strategy::Auto` must select the paper's choice per schema kind
//! (§2.2 / §3.2 / §5), and an observer stop must yield a partial report
//! that is a prefix-consistent subset of the full crawl.

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;

use std::collections::HashMap;
use std::sync::Mutex;

use hdc_core::{
    verify_complete, Crawl, CrawlError, CrawlMetrics, CrawlObserver, CrawlReport, Crawler,
    DatasetOracle, Flow, Hybrid, MemoryRepository, RankShrink, SessionConfig, ShardSpec, Sharded,
    SliceCover, Strategy, ValidityOracle, MAX_BATCH,
};
use hdc_types::{
    AttrKind, Budgeted, DbError, HiddenDatabase, Query, QueryOutcome, Schema, Tuple, TupleBag,
    Value,
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

    fn server(&self, seed: u64) -> hdc_server::HiddenDbServer {
        hdc_server::HiddenDbServer::new(
            self.schema.clone(),
            self.tuples.clone(),
            hdc_server::ServerConfig { k: self.k, seed },
        )
        .unwrap()
    }
}

/// Schemas with 1–3 attributes of both kinds, small domains so
/// duplicates, overflow, and unsolvable instances all occur.
fn instance_strategy() -> impl PropStrategy<Value = Instance> {
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

/// Every (strategy, legacy crawler) pair applicable to the schema. Auto
/// is always included — its legacy counterpart is the paper's choice.
fn applicable(schema: &Schema) -> Vec<(Strategy<'static>, Box<dyn Crawler>)> {
    let mut pairs: Vec<(Strategy<'static>, Box<dyn Crawler>)> = vec![
        (Strategy::Hybrid, Box::new(Hybrid::new())),
        (
            Strategy::Auto,
            match Strategy::Auto.resolve(schema) {
                Strategy::RankShrink => Box::new(RankShrink::new()),
                Strategy::SliceCover { lazy: true } => Box::new(SliceCover::lazy()),
                _ => Box::new(Hybrid::new()),
            },
        ),
    ];
    if schema.is_numeric() {
        pairs.push((Strategy::RankShrink, Box::new(RankShrink::new())));
        pairs.push((
            Strategy::BinaryShrink,
            Box::new(hdc_core::BinaryShrink::new()),
        ));
    }
    if schema.is_categorical() {
        pairs.push((
            Strategy::SliceCover { lazy: true },
            Box::new(SliceCover::lazy()),
        ));
        pairs.push((
            Strategy::SliceCover { lazy: false },
            Box::new(SliceCover::eager()),
        ));
        pairs.push((Strategy::Dfs, Box::new(hdc_core::Dfs::new())));
    }
    pairs
}

/// Full bit-identity between two crawl results (success or failure).
fn assert_identical(
    name: &str,
    legacy: &Result<CrawlReport, CrawlError>,
    built: &Result<CrawlReport, CrawlError>,
) -> Result<(), TestCaseError> {
    let (a, b) = match (legacy, built) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(ea), Err(eb)) => {
            prop_assert_eq!(
                std::mem::discriminant(ea),
                std::mem::discriminant(eb),
                "{}: error kinds diverged",
                name
            );
            (ea.partial(), eb.partial())
        }
        (a, b) => {
            prop_assert!(
                false,
                "{}: one run succeeded and the other failed (legacy ok = {}, builder ok = {})",
                name,
                a.is_ok(),
                b.is_ok()
            );
            unreachable!()
        }
    };
    prop_assert_eq!(a.algorithm, b.algorithm, "{}", name);
    prop_assert_eq!(a.queries, b.queries, "{}", name);
    prop_assert_eq!(a.resolved, b.resolved, "{}", name);
    prop_assert_eq!(a.overflowed, b.overflowed, "{}", name);
    prop_assert_eq!(a.pruned, b.pruned, "{}", name);
    prop_assert_eq!(a.metrics, b.metrics, "{}", name);
    prop_assert_eq!(&a.progress, &b.progress, "{}", name);
    prop_assert_eq!(&a.tuples, &b.tuples, "{}: bags diverged", name);
    Ok(())
}

/// Stops after observing `limit` charged queries.
struct StopAfter {
    limit: u64,
    seen: u64,
}

impl CrawlObserver for StopAfter {
    fn on_query(&mut self, _q: &Query, _out: &QueryOutcome) -> Flow {
        self.seen += 1;
        if self.seen >= self.limit {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Solo: builder ≡ legacy constructor + `Crawler::crawl`, for every
    /// applicable strategy, with and without a budget (the budgeted
    /// legacy run hand-wraps the server in `Budgeted`, exactly what the
    /// builder is supposed to replace).
    #[test]
    fn builder_solo_is_bit_identical_to_legacy(
        inst in instance_strategy(),
        raw_budget in 0u64..60, // 0 = unbudgeted (compat proptest has no option::of)
    ) {
        let budget = (raw_budget > 0).then_some(raw_budget);
        for (strategy, crawler) in applicable(&inst.schema) {
            let name = format!("{strategy:?} budget={budget:?}");

            let legacy = match budget {
                Some(limit) => {
                    let mut db = Budgeted::new(inst.server(23), limit);
                    crawler.crawl(&mut db)
                }
                None => crawler.crawl(&mut inst.server(23)),
            };

            let mut server = inst.server(23);
            let mut builder = Crawl::builder().strategy(strategy);
            if let Some(limit) = budget {
                builder = builder.budget(limit);
            }
            let built = builder.run(&mut server);

            assert_identical(&name, &legacy, &built)?;
        }
    }

    /// The one-shard plan — one session at factor 1 — is the solo crawl:
    /// on the pool it is `ShardSpec::whole`, crawled by the strategy's
    /// own solo crawler, so its merged report is `run`'s bit for bit
    /// (bag in order, tallies, metrics, progress curve, algorithm), for
    /// every applicable strategy, with and without an oracle where the
    /// strategy takes one, success or failure.
    #[test]
    fn one_shard_plan_on_the_pool_is_the_solo_crawl(inst in instance_strategy()) {
        let oracle = DatasetOracle::new(inst.tuples.clone());
        for (strategy, _) in applicable(&inst.schema) {
            let pruning = !matches!(strategy, Strategy::SliceCover { lazy: false });
            for with_oracle in [false, true].into_iter().filter(|&o| pruning || !o) {
                let name = format!("{strategy:?} oracle={with_oracle}");
                let builder = || {
                    let builder = Crawl::builder().strategy(strategy);
                    if with_oracle { builder.oracle(&oracle) } else { builder }
                };
                let solo = builder().run(&mut inst.server(37));
                let pooled = builder().run_sharded(|_s| inst.server(37));
                if let Ok(report) = &pooled {
                    prop_assert_eq!(report.shards.len(), 1, "{}", name);
                    prop_assert_eq!(&report.shards[0].spec, &ShardSpec::whole(&inst.schema));
                    // Resuming the finished one-shard checkpoint replays
                    // it, and still names the solo crawler.
                    let checkpointed = |repo: &mut MemoryRepository| {
                        let builder = Crawl::builder().strategy(strategy).repository(repo);
                        let builder = if with_oracle { builder.oracle(&oracle) } else { builder };
                        builder.run_sharded(|_s| inst.server(37)).unwrap()
                    };
                    let mut repo = MemoryRepository::default();
                    checkpointed(&mut repo);
                    let resumed = checkpointed(&mut repo);
                    prop_assert!(resumed.shards[0].restored, "{}", name);
                    prop_assert_eq!(resumed.merged.algorithm, report.merged.algorithm, "{}", name);
                }
                let pooled = pooled.map(|report| report.merged);
                assert_identical(&name, &solo, &pooled)?;
            }
        }
    }

    /// Sharded: the builder's pool run ≡ the determinism contract itself
    /// — [`ShardSpec::crawl`] of every plan shard, one after another on
    /// one fresh connection, concatenated in plan order: same bag (in
    /// order), and no shard and no total costing more than crawled alone
    /// (the shards share one slice memo, so a shard may find a slice
    /// already paid for), with and without a per-identity budget, and
    /// with and without an oracle. An oracle prunes every shard session,
    /// and the crawl keeps the unpruned bag at no more than the unpruned
    /// cost.
    ///
    /// A per-identity budget makes success depend on which identity
    /// steals which shard, so the verdict is held fixed only where the
    /// contract fixes it: every identity stays within budget when the
    /// whole plan costs at most the budget, and the identity that runs a
    /// shard whose queries other than slice fetches alone exceed the
    /// budget always exhausts it. In between, either verdict is allowed,
    /// but a success must still be the reference crawl and a failure
    /// must be the budget's.
    #[test]
    fn builder_sharded_is_bit_identical_to_legacy(
        inst in instance_strategy(),
        sessions in 2usize..4,
        factor in 1usize..4,
        raw_budget in proptest::collection::vec(5u64..60, 0..2), // empty = unbudgeted
        with_oracle in any::<bool>(),
    ) {
        prop_assume!(inst.solvable());
        let budget = raw_budget.first().copied();
        let oracle = DatasetOracle::new(inst.tuples.clone());
        let oracle = with_oracle.then_some(&oracle);
        let plan = Sharded::plan_oversubscribed(&inst.schema, sessions, factor);
        let crawl_plan = |oracle: Option<&dyn ValidityOracle>| -> Vec<CrawlReport> {
            let mut db = inst.server(31);
            plan.iter()
                .map(|spec| {
                    spec.crawl_with(&mut db, &inst.schema, oracle, SessionConfig::default(), None)
                        .expect("solvable and unbudgeted")
                })
                .collect()
        };
        let reference = crawl_plan(oracle.map(|o| o as &dyn ValidityOracle));
        let reference_bag: Vec<Tuple> =
            reference.iter().flat_map(|r| r.tuples.iter().cloned()).collect();
        let reference_cost: u64 = reference.iter().map(|r| r.queries).sum();
        if oracle.is_some() {
            let unpruned = crawl_plan(None);
            let unpruned_bag = unpruned.iter().flat_map(|r| &r.tuples);
            prop_assert!(reference_bag.iter().eq(unpruned_bag), "the oracle changed the bag");
            let unpruned_cost: u64 = unpruned.iter().map(|r| r.queries).sum();
            prop_assert!(reference_cost <= unpruned_cost, "the oracle raised the cost");
        }

        let mut builder = Crawl::builder()
            .strategy(Strategy::Hybrid)
            .sessions(sessions)
            .oversubscribe(factor);
        if let Some(limit) = budget {
            builder = builder.budget(limit);
        }
        if let Some(oracle) = oracle {
            builder = builder.oracle(oracle);
        }
        let built = builder.run_sharded(|_s| inst.server(31));

        // `Some(true)`: every schedule succeeds; `Some(false)`: every
        // schedule fails; `None`: the schedule decides.
        let fixed = match budget {
            None => Some(true),
            Some(limit) => {
                // Another shard may pay for a shard's slices, never for
                // its other queries.
                let costliest = reference
                    .iter()
                    .map(|r| r.queries.saturating_sub(r.metrics.slice_fetches))
                    .max();
                if reference_cost <= limit {
                    Some(true)
                } else if costliest.unwrap_or(0) > limit {
                    Some(false)
                } else {
                    None
                }
            }
        };
        if let Some(ok) = fixed {
            prop_assert_eq!(built.is_ok(), ok, "builder verdict is fixed by the budget");
        }
        match built {
            Ok(b) => {
                prop_assert_eq!(&b.merged.tuples, &reference_bag, "succeeded with another bag");
                prop_assert!(b.merged.queries <= reference_cost, "the memo raised the cost");
                prop_assert_eq!(b.shards.len(), plan.len());
                for ((run, spec), solo) in b.shards.iter().zip(&plan).zip(&reference) {
                    prop_assert_eq!(&run.spec, spec);
                    prop_assert!(run.report.queries <= solo.queries, "a shard cost more");
                    prop_assert_eq!(run.tuples, solo.tuples.len() as u64);
                }
            }
            // Which shards completed before retirement is a scheduling
            // accident, so the partial is not compared — the failure
            // kind is the contract.
            Err(e) => prop_assert!(
                matches!(e, CrawlError::Db { .. }),
                "failed with {:?}, not the budget", e
            ),
        }
    }

    /// `Strategy::Auto` picks the paper's choice, verified end to end by
    /// the algorithm name the report carries.
    #[test]
    fn auto_selects_the_papers_strategy(inst in instance_strategy()) {
        let expected = if inst.schema.is_numeric() {
            "rank-shrink"
        } else if inst.schema.is_categorical() {
            "lazy-slice-cover"
        } else {
            "hybrid"
        };
        let result = Crawl::builder().run(&mut inst.server(7));
        let report = match &result {
            Ok(r) => r,
            Err(e) => e.partial(),
        };
        prop_assert_eq!(report.algorithm, expected);
    }

    /// Early stop: a crawl stopped after Q observed queries yields a
    /// partial report that is a *prefix* of the full crawl — the exact
    /// same query charges, progress points, and output-order tuples up
    /// to the stop, with at most one in-flight batch window beyond Q.
    #[test]
    fn stopped_crawl_is_a_prefix_of_the_full_crawl(
        inst in instance_strategy(),
        stop_after in 1u64..40,
    ) {
        prop_assume!(inst.solvable());
        let full = match Crawl::builder().run(&mut inst.server(13)) {
            Ok(report) => report,
            Err(e) => {
                prop_assert!(false, "solvable instance failed: {e}");
                unreachable!()
            }
        };

        let mut stopper = StopAfter { limit: stop_after, seen: 0 };
        let mut server = inst.server(13);
        let stopped = match Crawl::builder().observer(&mut stopper).run(&mut server) {
            Ok(report) => {
                // The crawl finished before a post-stop issue attempt:
                // either under the threshold outright, or on the very
                // batch whose outcomes latched the stop.
                prop_assert!(report.queries <= stop_after + MAX_BATCH as u64);
                return Ok(());
            }
            Err(CrawlError::Stopped { partial }) => *partial,
            Err(e) => {
                prop_assert!(false, "unexpected failure: {e}");
                unreachable!()
            }
        };

        // Stop lands between query rounds: everything charged up to (and
        // including) the round in flight is kept, nothing more issued.
        prop_assert!(stopped.queries >= stop_after.min(full.queries));
        prop_assert!(stopped.queries <= stop_after + MAX_BATCH as u64);
        prop_assert_eq!(stopped.queries, server.queries_issued());

        // Prefix consistency: identical progress points and identical
        // tuples, in output order, up to the stop.
        prop_assert!(stopped.progress.len() <= full.progress.len());
        prop_assert_eq!(
            &stopped.progress[..],
            &full.progress[..stopped.progress.len()],
            "stopped progress curve is not a prefix of the full curve"
        );
        prop_assert!(stopped.tuples.len() <= full.tuples.len());
        prop_assert_eq!(
            &stopped.tuples[..],
            &full.tuples[..stopped.tuples.len()],
            "stopped bag is not a prefix of the full bag"
        );
    }
}

// ---------------------------------------------------------------------
// One slice memo per sharded crawl: each distinct query charged once.
// ---------------------------------------------------------------------

/// Logs every query the database answers, with its overflow bit, into a
/// log shared by every connection.
struct Logged<'l, D> {
    inner: D,
    log: &'l Mutex<Vec<(Query, bool)>>,
}

impl<D: HiddenDatabase> HiddenDatabase for Logged<'_, D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        let out = self.inner.query(q)?;
        self.log.lock().unwrap().push((q.clone(), out.overflow));
        Ok(out)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// The strategies with a multi-shard execution on `schema`.
fn sharded_strategies(schema: &Schema) -> Vec<Strategy<'static>> {
    [
        Strategy::Auto,
        Strategy::Hybrid,
        Strategy::RankShrink,
        Strategy::SliceCover { lazy: true },
    ]
    .into_iter()
    .filter(|s| s.supports_sharded(schema))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The slice memo is exact. The plan crawled shard by shard with
    /// [`ShardSpec::crawl`] — each shard on a private memo — under a
    /// query logger is the reference. A `run_sharded` crawl of the same
    /// plan, whose shards share one memo:
    ///
    /// * charges exactly the reference's distinct queries;
    /// * returns the reference's merged bag and every shard's bag, bit
    ///   for bit, with no shard costing more than it did alone;
    /// * reports the reference's summed metrics, with every repeated
    ///   query moved from a slice fetch to a slice-cache hit — a repeat
    ///   can only be a slice another shard fetched, because the other
    ///   queries of disjoint shards never coincide;
    /// * is complete.
    #[test]
    fn one_slice_memo_charges_each_distinct_query_once(
        inst in instance_strategy(),
        sessions in 1usize..5,
        factor_pick in 0usize..4,
    ) {
        prop_assume!(inst.solvable());
        let factor = [1, 2, 8, 24][factor_pick];
        let plan = Sharded::plan_oversubscribed(&inst.schema, sessions, factor);
        let log = Mutex::new(Vec::new());
        let mut db = Logged { inner: inst.server(43), log: &log };
        let reference: Vec<CrawlReport> = plan
            .iter()
            .map(|spec| spec.crawl(&mut db, &inst.schema).expect("solvable"))
            .collect();
        let mut charges: HashMap<Query, (u64, bool)> = HashMap::new();
        for (q, overflow) in log.into_inner().unwrap() {
            charges.entry(q).or_insert((0, overflow)).0 += 1;
        }
        let distinct = charges.len() as u64;
        let mut expected = CrawlMetrics::default();
        for r in &reference {
            expected.merge_from(&r.metrics);
        }
        for &(count, overflow) in charges.values() {
            let repeats = count - 1;
            expected.slice_fetches -= repeats;
            expected.slice_cache_hits += repeats;
            if overflow {
                expected.slice_overflows -= repeats;
            }
        }

        for strategy in sharded_strategies(&inst.schema) {
            let name = format!("{strategy:?} {sessions} x {factor}");
            let run = Crawl::builder()
                .strategy(strategy)
                .sessions(sessions)
                .oversubscribe(factor)
                .run_sharded(|_s| inst.server(43))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            prop_assert!(verify_complete(&inst.tuples, &run.merged).is_ok(), "{}", name);
            prop_assert_eq!(run.merged.queries, distinct, "{}: charged a query twice", name);
            prop_assert_eq!(run.merged.metrics, expected, "{}", name);
            prop_assert_eq!(run.shards.len(), reference.len(), "{}", name);
            let mut rest = &run.merged.tuples[..];
            for (i, (shard, alone)) in run.shards.iter().zip(&reference).enumerate() {
                let (bag, tail) = rest.split_at(shard.tuples as usize);
                rest = tail;
                prop_assert_eq!(bag, &alone.tuples[..], "{}: shard {} bag", name, i);
                prop_assert!(shard.report.queries <= alone.queries,
                    "{}: shard {} cost more than alone", name, i);
            }
            prop_assert!(rest.is_empty(), "{}", name);
        }
    }
}

// ---------------------------------------------------------------------
// Telemetry inertness: subscribing an observer changes nothing.
// ---------------------------------------------------------------------

/// Subscribes to everything and always continues; the slow variant
/// sleeps inside `on_tuples`, so in sharded runs the bounded event
/// channel fills and pool workers block on `send` — the worst-case
/// consumer the inertness contract must survive.
struct SlowTap {
    queries: u64,
    tuples: u64,
    stall: std::time::Duration,
}

impl CrawlObserver for SlowTap {
    fn on_query(&mut self, _q: &Query, _out: &QueryOutcome) -> Flow {
        self.queries += 1;
        Flow::Continue
    }

    fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
        self.tuples += tuples.len() as u64;
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        Flow::Continue
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Telemetry is provably inert: a subscribed observer — even one
    /// slow enough to back-pressure the event channel — never changes
    /// the bag, the charged cost, the tallies, or any shard's bag, solo
    /// or sharded. (Which shard pays for a shared slice depends on
    /// timing, observed or not, so per-shard costs are not compared;
    /// the merged totals are.) The observer in turn sees every charged
    /// query and every extracted tuple exactly once.
    #[test]
    fn subscribed_observers_are_inert(
        inst in instance_strategy(),
        sessions in 2usize..4,
        slow in any::<bool>(),
    ) {
        prop_assume!(inst.solvable());
        let stall = if slow {
            std::time::Duration::from_micros(300)
        } else {
            std::time::Duration::ZERO
        };

        // Solo: full bit identity, success or failure.
        let unobserved = Crawl::builder().run(&mut inst.server(41));
        let mut tap = SlowTap { queries: 0, tuples: 0, stall };
        let observed = Crawl::builder()
            .observer(&mut tap)
            .run(&mut inst.server(41));
        assert_identical("solo observed vs unobserved", &unobserved, &observed)?;
        if let Ok(report) = &observed {
            prop_assert_eq!(tap.queries, report.queries,
                "solo observer missed charged queries");
            prop_assert_eq!(tap.tuples, report.tuples.len() as u64,
                "solo observer missed tuples");
        }

        // Sharded: events stream live out of the pool workers through
        // the bounded channel; a slow drain must stall the producers,
        // never drop events or perturb the schedule's accounting.
        let base = Crawl::builder()
            .strategy(Strategy::Hybrid)
            .sessions(sessions)
            .oversubscribe(2)
            .run_sharded(|_s| inst.server(41))
            .unwrap();
        let mut tap = SlowTap { queries: 0, tuples: 0, stall };
        let observed = Crawl::builder()
            .strategy(Strategy::Hybrid)
            .sessions(sessions)
            .oversubscribe(2)
            .observer(&mut tap)
            .run_sharded(|_s| inst.server(41))
            .unwrap();

        prop_assert_eq!(observed.merged.queries, base.merged.queries,
            "observer changed the sharded charged cost");
        prop_assert_eq!(observed.merged.resolved, base.merged.resolved);
        prop_assert_eq!(observed.merged.overflowed, base.merged.overflowed);
        prop_assert_eq!(observed.merged.metrics, base.merged.metrics,
            "observer changed the sharded tallies");
        prop_assert_eq!(&observed.merged.tuples, &base.merged.tuples,
            "observer changed the merged bag");
        prop_assert_eq!(observed.shards.len(), base.shards.len());
        for (sa, sb) in base.shards.iter().zip(&observed.shards) {
            prop_assert_eq!(&sa.spec, &sb.spec, "observer changed the shard plan");
            prop_assert_eq!(sa.tuples, sb.tuples,
                "observer changed a shard's tuple count");
        }
        prop_assert_eq!(tap.queries, observed.merged.queries,
            "sharded observer missed charged queries");
        prop_assert_eq!(tap.tuples, observed.merged.tuples.len() as u64,
            "sharded observer missed tuples");
    }
}

/// The whole-space shard — schema order, rooted at every value of the
/// first categorical attribute — is the solo crawl: `ShardSpec::crawl`
/// returns the solo strategy's bag (as a multiset), cost, tallies and
/// metrics — hybrid on mixed schemas, lazy slice-cover on categorical
/// ones.
#[test]
fn one_shard_plan_equals_the_solo_crawl() {
    use hdc_data::{adult, nsf, yahoo};

    for seed in [1u64, 2] {
        let cases = [
            (yahoo::generate_scaled(3_000, seed), 128, Strategy::Hybrid),
            (adult::generate_scaled(4_000, seed), 32, Strategy::Hybrid),
            (adult::generate_scaled(4_000, seed), 128, Strategy::Hybrid),
            (
                nsf::generate_scaled(30_000, seed),
                256,
                Strategy::SliceCover { lazy: true },
            ),
        ];
        for (ds, k, strategy) in cases {
            let name = format!("{} k={k} seed={seed}", ds.name);
            let server = || {
                hdc_server::HiddenDbServer::new(
                    ds.schema.clone(),
                    ds.tuples.clone(),
                    hdc_server::ServerConfig { k, seed },
                )
                .unwrap()
            };
            let spec = ShardSpec::whole(&ds.schema);
            let solo = Crawl::builder()
                .strategy(strategy)
                .run(&mut server())
                .unwrap_or_else(|e| panic!("{name}: solo: {e}"));
            let shard = spec
                .crawl(&mut server(), &ds.schema)
                .unwrap_or_else(|e| panic!("{name}: shard: {e}"));
            assert!(
                TupleBag::from_tuples(shard.tuples.iter().cloned())
                    .multiset_eq(&TupleBag::from_tuples(solo.tuples.iter().cloned())),
                "{name}: bags diverged"
            );
            assert_eq!(shard.queries, solo.queries, "{name}");
            assert_eq!(shard.resolved, solo.resolved, "{name}");
            assert_eq!(shard.overflowed, solo.overflowed, "{name}");
            assert_eq!(shard.metrics, solo.metrics, "{name}");
        }
    }
}
