//! Differential suite for the work-stealing sharded scheduler.
//!
//! The scheduler's determinism contract (see `hdc_core::sharded` module
//! docs) says scheduling must be invisible to what the crawl reports
//! about the data: an over-partitioned work-stealing crawl and a
//! *sequential* one-shard-at-a-time execution of the very same plan must
//! produce an identical merged bag and identical per-shard bags, and the
//! stealing crawl, whose shards share one slice memo, must charge each
//! distinct query of the sequential run exactly once — across arbitrary
//! schemas, datasets, `k`, priority seeds, session counts, and
//! oversubscription factors. Which shard pays for a shared slice depends
//! on timing, so per-shard costs are only bounded by the sequential
//! ones. A second
//! property covers the failure path: a budget-crippled identity may kill
//! its own shards, but everything the surviving identities can reach is
//! still salvaged, and nothing fabricated ever appears.

use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use hdc_core::{
    verify_complete, Crawl, CrawlError, CrawlObserver, MemoryRepository, ShardEvent, Sharded,
};
use hdc_server::{Budgeted, HiddenDbServer, ServerConfig};
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

/// Logs every query the database answers.
struct Logged<D> {
    inner: D,
    log: Arc<Mutex<Vec<Query>>>,
}

impl<D: HiddenDatabase> HiddenDatabase for Logged<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        let out = self.inner.query(q)?;
        self.log.lock().unwrap().push(q.clone());
        Ok(out)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// Schemas with 1–3 attributes, small domains so duplicates, overflows,
/// empty shards, and every sub-splitting mode (secondary categorical,
/// numeric fallback, single-value cap) all occur.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Work-stealing execution ≡ sequential execution of the same plan:
    /// same merged bag (the exact database) and per-shard bags, each
    /// distinct query charged once, no shard costing more.
    #[test]
    fn stealing_is_invisible_to_bag_and_cost(
        inst in instance_strategy(),
        sessions in 2usize..4,
        factor in 2usize..5,
    ) {
        prop_assume!(inst.solvable());

        let stolen = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(factor)
            .run_sharded(|_s| inst.server(11));
        let stolen = match stolen {
            Ok(report) => report,
            Err(e) => {
                prop_assert!(false, "stealing crawl failed on solvable instance: {e}");
                unreachable!()
            }
        };
        prop_assert!(verify_complete(&inst.tuples, &stolen.merged).is_ok());

        // The same plan, crawled shard by shard on one fresh connection
        // each — no pool, no concurrency, no slice shared.
        let plan = Sharded::plan_oversubscribed(&inst.schema, sessions, factor);
        prop_assert_eq!(plan.len(), stolen.shards.len());
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut seq_bag = Vec::new();
        for (i, spec) in plan.iter().enumerate() {
            let mut db = Logged { inner: inst.server(11), log: log.clone() };
            let report = spec.crawl(&mut db, &inst.schema).unwrap();
            prop_assert!(
                stolen.shards[i].report.queries <= report.queries,
                "shard {} cost more under stealing",
                i
            );
            prop_assert_eq!(report.tuples.len() as u64, stolen.shards[i].tuples);
            seq_bag.extend(report.tuples);
        }
        let distinct = log.lock().unwrap().iter().collect::<HashSet<_>>().len();
        prop_assert_eq!(stolen.merged.queries, distinct as u64,
            "the stealing crawl charged a query twice or skipped one");
        prop_assert_eq!(&stolen.merged.tuples, &seq_bag,
            "a shard's bag changed under stealing");

        // Per-identity aggregates re-partition exactly the shard costs.
        prop_assert_eq!(stolen.per_session.len(), sessions);
        let identity_total: u64 = stolen.per_session.iter().map(|r| r.queries).sum();
        prop_assert_eq!(identity_total, stolen.merged.queries);
    }

    /// Failure path: identity 0 has a crippling budget. Either the crawl
    /// still completes (tiny instances fit the budget) with the exact
    /// bag, or it fails with a budget error whose partial report contains
    /// no fabricated tuples and everything healthy identities salvaged.
    #[test]
    fn crippled_identity_never_fabricates_and_still_salvages(
        inst in instance_strategy(),
        budget in 1u64..25,
        factor in 2usize..5,
    ) {
        prop_assume!(inst.solvable());
        let sessions = 2usize;
        let result = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(factor)
            .run_sharded(|s| {
                Budgeted::new(inst.server(13), if s == 0 { budget } else { u64::MAX })
            });
        match result {
            Ok(report) => {
                prop_assert!(verify_complete(&inst.tuples, &report.merged).is_ok());
            }
            Err(CrawlError::Db { partial, .. }) => {
                let truth: TupleBag = inst.tuples.iter().collect();
                let got: TupleBag = partial.tuples.iter().collect();
                for (t, c) in got.iter() {
                    prop_assert!(c <= truth.count(t), "fabricated tuple {}", t);
                }
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }
}

/// Deterministic salvage check: with 4 shards, 2 identities, and
/// identity 0 dead after 2 queries, exactly one shard can fail (the
/// crippled worker retires on its first shard; every other shard runs on
/// the healthy identity). At least 3 of the 4 shards' bags must appear
/// completely in the partial report, whichever shard the scheduler
/// happened to hand the dying worker.
#[test]
fn budget_crippled_session_salvages_healthy_shards() {
    let schema = Schema::builder()
        .categorical("c", 4)
        .numeric("x", 0, 9_999)
        .build()
        .unwrap();
    let tuples: Vec<Tuple> = (0..2_000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            Tuple::new(vec![
                Value::Cat((h % 4) as u32),
                Value::Int(((h >> 8) % 10_000) as i64),
            ])
        })
        .collect();
    let server = |seed: u64| {
        HiddenDbServer::new(schema.clone(), tuples.clone(), ServerConfig { k: 16, seed }).unwrap()
    };

    // Reference bags: one sequential crawl per shard of the same plan.
    let plan = Sharded::plan_oversubscribed(&schema, 2, 2);
    assert_eq!(plan.len(), 4);
    let shard_bags: Vec<TupleBag> = plan
        .iter()
        .map(|spec| {
            let mut db = server(29);
            TupleBag::from_tuples(spec.crawl(&mut db, &schema).unwrap().tuples)
        })
        .collect();
    assert!(
        shard_bags.iter().all(|b| !b.is_empty()),
        "every shard must hold data for the salvage count to mean anything"
    );

    let result = Crawl::builder()
        .sessions(2)
        .oversubscribe(2)
        .run_sharded(|s| Budgeted::new(server(29), if s == 0 { 2 } else { u64::MAX }));
    let Err(CrawlError::Db { error, partial }) = result else {
        panic!("expected the crippled identity to surface a budget failure");
    };
    assert!(matches!(error, hdc_types::DbError::BudgetExhausted { .. }));

    let got: TupleBag = partial.tuples.iter().collect();
    let salvaged = shard_bags
        .iter()
        .filter(|bag| bag.iter().all(|(t, c)| got.count(t) >= c))
        .count();
    assert!(
        salvaged >= 3,
        "only {salvaged} of 4 shard bags were salvaged by the healthy identity"
    );
}

/// One identity of the failing-fetcher test: every answered query is
/// logged, and the identity sleeps `pause` before each query (`every`)
/// or before its first one only. The timing makes peers queue behind
/// the claims of a slow identity that started first.
struct Identity {
    db: Budgeted<Logged<HiddenDbServer>>,
    pause: Duration,
    every: bool,
}

impl HiddenDatabase for Identity {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn k(&self) -> usize {
        self.db.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        std::thread::sleep(self.pause);
        if !self.every {
            self.pause = Duration::ZERO;
        }
        self.db.query(q)
    }

    fn queries_issued(&self) -> u64 {
        self.db.queries_issued()
    }
}

/// Per-shard `(index, queries, tuples, failed)`, as merged.
#[derive(Default)]
struct ShardTally(Vec<(usize, u64, u64, bool)>);

impl CrawlObserver for ShardTally {
    fn on_shard(&mut self, e: &ShardEvent<'_>) {
        self.0.push((e.index, e.queries, e.tuples, e.failed));
    }
}

/// Runs `crawl` on its own thread and fails the test if it has not
/// returned within a minute, so a stranded waiter fails instead of
/// stalling the suite.
fn watchdog<T: Send + 'static>(crawl: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(crawl());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("the crawl hung: a waiter was stranded"),
        Err(RecvTimeoutError::Disconnected) => panic!("the crawl panicked"),
    }
}

/// A fetcher that dies mid-crawl never strands the shards waiting on
/// its slices. The plan has 6 shards, one value of `a` each, and every
/// shard whose `a` slice overflows fetches the same 5 `b` slices in one
/// batch. Identity 0 starts first, is slow, and has a quota of a few
/// queries, so it dies inside that batch while its peers wait on it;
/// the others have no quota. A failed shard is not re-run, so the crawl
/// surfaces the budget failure — without hanging, with every other
/// shard's exact bag, and with each distinct query charged once: the
/// failed fetch publishes its answered prefix and releases the rest,
/// which a waiter fetches. Resuming the checkpoint on healthy
/// identities then completes the exact bag, re-paying at most the
/// slices the banked shards had fetched.
#[test]
fn failing_fetcher_never_strands_a_waiter() {
    let schema = Schema::builder()
        .categorical("a", 6)
        .categorical("b", 5)
        .numeric("x", 0, 999)
        .build()
        .unwrap();
    let tuples: Vec<Tuple> = (0..3_000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
            Tuple::new(vec![
                Value::Cat((h % 6) as u32),
                Value::Cat(((h >> 8) % 5) as u32),
                Value::Int(((h >> 16) % 1_000) as i64),
            ])
        })
        .collect();
    let server = {
        let (schema, tuples) = (schema.clone(), tuples.clone());
        move || {
            HiddenDbServer::new(
                schema.clone(),
                tuples.clone(),
                ServerConfig { k: 16, seed: 3 },
            )
            .unwrap()
        }
    };
    let (sessions, factor) = (3, 2);

    // Reference: each shard alone, on a private memo.
    let plan = Sharded::plan_oversubscribed(&schema, sessions, factor);
    let log = Arc::new(Mutex::new(Vec::new()));
    let reference: Vec<(u64, u64)> = plan
        .iter()
        .map(|spec| {
            let mut db = Logged {
                inner: server(),
                log: log.clone(),
            };
            let r = spec.crawl(&mut db, &schema).unwrap();
            (r.queries, r.tuples.len() as u64)
        })
        .collect();
    let log = log.lock().unwrap().clone();
    let distinct = log.iter().collect::<HashSet<_>>().len() as u64;
    assert!(
        distinct < log.len() as u64,
        "the plan's shards must share slices"
    );

    for quota in 0..4u64 {
        let (result, tally, charged, repo) = watchdog({
            let server = server.clone();
            move || {
                let log = Arc::new(Mutex::new(Vec::new()));
                let mut tally = ShardTally::default();
                let mut repo = MemoryRepository::new();
                let result = Crawl::builder()
                    .sessions(sessions)
                    .oversubscribe(factor)
                    .observer(&mut tally)
                    .repository(&mut repo)
                    .run_sharded(|s| Identity {
                        db: Budgeted::new(
                            Logged {
                                inner: server(),
                                log: log.clone(),
                            },
                            if s == 0 { quota } else { u64::MAX },
                        ),
                        pause: Duration::from_millis(if s == 0 { 10 } else { 30 }),
                        every: s == 0,
                    });
                let charged = log.lock().unwrap().clone();
                (result, tally, charged, repo)
            }
        });
        let unique = charged.iter().collect::<HashSet<_>>().len();
        assert_eq!(
            unique,
            charged.len(),
            "quota {quota}: a query was charged twice"
        );
        let partial = match result {
            Err(CrawlError::Db {
                error: DbError::BudgetExhausted { .. },
                partial,
            }) => partial,
            Ok(report) => {
                // The peers drained the plan before identity 0 took a
                // shard.
                verify_complete(&tuples, &report.merged).unwrap();
                assert_eq!(report.merged.queries, distinct, "quota {quota}");
                continue;
            }
            Err(e) => panic!("quota {quota}: failed with {e}, not the budget"),
        };
        assert_eq!(partial.queries, charged.len() as u64, "quota {quota}");
        assert_eq!(tally.0.len(), plan.len(), "quota {quota}: every shard ran");
        assert_eq!(tally.0.iter().filter(|t| t.3).count(), 1, "quota {quota}");
        for &(index, queries, tuples, _) in tally.0.iter().filter(|t| !t.3) {
            assert_eq!(
                tuples, reference[index].1,
                "quota {quota}: shard {index}'s bag"
            );
            assert!(
                queries <= reference[index].0,
                "quota {quota}: shard {index}"
            );
        }

        // Resume on healthy identities: the exact bag, and a re-pay of
        // at most the slices the banked shards fetched.
        let banked = repo.saved().expect("the healthy shards were banked");
        let banked_slices: u64 = banked.shards.iter().map(|s| s.metrics.slice_fetches).sum();
        let resumed = watchdog({
            let server = server.clone();
            move || {
                let mut repo = repo;
                Crawl::builder()
                    .sessions(sessions)
                    .oversubscribe(factor)
                    .repository(&mut repo)
                    .run_sharded(|_s| server())
            }
        })
        .unwrap();
        verify_complete(&tuples, &resumed.merged).unwrap();
        assert_eq!(resumed.shards.iter().filter(|s| !s.restored).count(), 1);
        assert!(resumed.merged.queries >= distinct, "quota {quota}");
        let repaid = resumed.merged.queries - distinct;
        assert!(
            repaid <= banked_slices,
            "quota {quota}: re-paid {repaid} > {banked_slices}"
        );
    }
}
