//! Differential suite for the fault-tolerant crawl runtime — the PR's
//! headline theorems, checked bit for bit against the deterministic
//! adversary server:
//!
//! 1. **Faults + retries change nothing but the retry count.** A crawl
//!    through a seeded [`FaultyDb`] with a generous [`RetryPolicy`]
//!    extracts the *same bag* with the *same charged-query cost* as the
//!    fault-free crawl, and the only overhead is exactly the injected
//!    faults (`transient_retries == faults_injected` — failed attempts
//!    never reach, or charge, the inner database).
//! 2. **Checkpoint / kill / resume is exact.** Interrupting a
//!    checkpointed crawl (budget exhaustion models the kill) and
//!    resuming from the repository yields the same bag as the
//!    uninterrupted run, with the resumed process re-issuing only the
//!    unfinished shards — on one session and on several alike (both run
//!    on the shard cursor). The resume's slice memo starts empty,
//!    so it may pay again for slices the banked shards had fetched: its
//!    total exceeds the uninterrupted cost by at most their slice
//!    fetches.
//!
//! Plus the supporting semantics: cancellation stops before spending,
//! permanent identity death salvages completed work, budget exhaustion
//! is never retried, and a plan mismatch refuses to resume.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;

use hdc_core::sharded::TRANSIENT_STRIKES;
use hdc_core::{
    CancelToken, Crawl, CrawlError, CrawlObserver, Flow, MemoryRepository, RetryPolicy, ShardEvent,
    ShardedReport, Strategy,
};
use hdc_server::{HiddenDbServer, ServerConfig};
use hdc_types::{
    AttrKind, DbError, FaultConfig, FaultyDb, HiddenDatabase, Query, QueryOutcome, Schema, Tuple,
    TupleBag, Value,
};

/// A generated test instance: schema + tuples + k (same generator family
/// as the builder differential suite).
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

/// A retry policy generous enough that no fault schedule in this suite
/// can exhaust it (rate ≤ 0.4, burst ≤ 2 ⇒ P(50 consecutive faults) ≈ 0).
fn generous_retry() -> RetryPolicy {
    RetryPolicy::new(50).no_sleep()
}

fn bag(tuples: &[Tuple]) -> TupleBag {
    TupleBag::from_tuples(tuples.iter().cloned())
}

/// Slice fetches the checkpoint's banked shards paid for.
fn banked_slices(repo: &MemoryRepository) -> u64 {
    repo.saved()
        .map(|cp| cp.shards.iter().map(|s| s.metrics.slice_fetches).sum())
        .unwrap_or(0)
}

/// A resumed crawl starts with an empty slice memo. It pays again for
/// exactly the slices the banked shards paid for that the remaining
/// shards need, and for nothing else: so its total exceeds the
/// uninterrupted crawl's by at least 0 and at most the banked shards'
/// slice fetches.
fn assert_resume_repay(
    resumed: u64,
    uninterrupted: u64,
    banked_slices: u64,
) -> Result<(), TestCaseError> {
    prop_assert!(
        resumed >= uninterrupted,
        "resume cost {} below the uninterrupted {}",
        resumed,
        uninterrupted
    );
    prop_assert!(
        resumed - uninterrupted <= banked_slices,
        "resume re-paid {} queries, more than the {} banked slice fetches",
        resumed - uninterrupted,
        banked_slices
    );
    Ok(())
}

/// Queries a sharded run issued itself: the shards it crawled, not the
/// ones it replayed from a checkpoint.
fn fresh_queries(report: &ShardedReport) -> u64 {
    report
        .shards
        .iter()
        .filter(|s| !s.restored)
        .map(|s| s.report.queries)
        .sum()
}

// ---------------------------------------------------------------------
// Theorem 1: faults + retries ≡ fault-free, up to the retried attempts.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Solo: `Crawl::builder().retry(...)` over a `FaultyDb` extracts the
    /// same bag at the same charged cost as the fault-free crawl, and
    /// the retry metric equals the injected-fault count exactly.
    #[test]
    fn solo_faulty_retried_crawl_equals_fault_free(
        inst in instance_strategy(),
        fault_seed in any::<u64>(),
        rate_pct in 0u32..=40,
        burst in 1u32..3,
    ) {
        prop_assume!(inst.solvable());
        let clean = Crawl::builder()
            .strategy(Strategy::Auto)
            .run(&mut inst.server(5))
            .unwrap();

        let mut faulty = FaultyDb::new(
            inst.server(5),
            FaultConfig {
                seed: fault_seed,
                transient_rate: f64::from(rate_pct) / 100.0,
                burst,
                fail_after: None,
            },
        );
        let report = Crawl::builder()
            .strategy(Strategy::Auto)
            .retry(generous_retry())
            .run(&mut faulty)
            .unwrap();

        prop_assert!(bag(&report.tuples).multiset_eq(&bag(&clean.tuples)),
            "faults + retries must not change the extracted bag");
        prop_assert_eq!(report.queries, clean.queries,
            "failed attempts are never charged: same cost as fault-free");
        prop_assert_eq!(report.metrics.transient_retries, faulty.faults_injected(),
            "overhead is exactly the injected faults, no more, no less");
        prop_assert_eq!(faulty.queries_issued(), clean.queries);
    }

    /// Sharded: per-identity fault schedules, retried inside each shard
    /// session — merged bag and merged charged cost match the fault-free
    /// sharded crawl.
    #[test]
    fn sharded_faulty_retried_crawl_equals_fault_free(
        inst in instance_strategy(),
        fault_seed in any::<u64>(),
        rate_pct in 0u32..=30,
    ) {
        prop_assume!(inst.solvable());
        let sharded_strategy = Strategy::Auto.resolve(&inst.schema);
        prop_assume!(sharded_strategy.supports_sharded(&inst.schema));

        let clean = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        let faulty = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .retry(generous_retry())
            .run_sharded(|s| {
                FaultyDb::new(
                    inst.server(5),
                    FaultConfig {
                        seed: fault_seed ^ s as u64,
                        transient_rate: f64::from(rate_pct) / 100.0,
                        burst: 1,
                        fail_after: None,
                    },
                )
            })
            .unwrap();

        prop_assert!(
            bag(&faulty.merged.tuples).multiset_eq(&bag(&clean.merged.tuples)),
            "sharded faults + retries must not change the merged bag"
        );
        prop_assert_eq!(faulty.merged.queries, clean.merged.queries);
    }
}

// ---------------------------------------------------------------------
// Theorem 2: checkpoint / kill / resume ≡ uninterrupted.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// One session (a one-worker pool): interrupt a checkpointed crawl
    /// with a tight budget (the kill), resume from the repository with a
    /// fresh connection — the bag matches the uninterrupted checkpointed
    /// run, and the resume re-issues what the checkpoint does not
    /// already hold, plus at most the banked shards' slice fetches
    /// (the resume's slice memo starts empty).
    #[test]
    fn solo_checkpoint_kill_resume_is_exact(
        inst in instance_strategy(),
        budget_frac in 1u64..100,
    ) {
        prop_assume!(inst.solvable());
        prop_assume!(Strategy::Auto.resolve(&inst.schema).supports_sharded(&inst.schema));

        let mut full_repo = MemoryRepository::default();
        let uninterrupted = Crawl::builder()
            .sessions(1)
            .oversubscribe(4)
            .repository(&mut full_repo)
            .run_sharded(|_s| inst.server(5))
            .unwrap()
            .merged;

        // Kill: a budget strictly below the full cost aborts mid-plan.
        let budget = 1 + uninterrupted.queries * budget_frac / 100;
        prop_assume!(budget < uninterrupted.queries);
        let mut repo = MemoryRepository::default();
        let interrupted = Crawl::builder()
            .sessions(1)
            .oversubscribe(4)
            .budget(budget)
            .repository(&mut repo)
            .run_sharded(|_s| inst.server(5));
        prop_assert!(interrupted.is_err(), "budget below full cost must fail");

        let checkpointed: u64 = repo
            .saved()
            .map(|cp| cp.shards.iter().map(|s| s.queries).sum())
            .unwrap_or(0);
        prop_assert!(checkpointed < uninterrupted.queries);

        // What checkpoint resume re-pays: the kill loses the paid-for but
        // unbanked part of the one shard it interrupted, which is less
        // than the costliest shard of the plan.
        let charged = interrupted.unwrap_err().partial().queries;
        let costliest = full_repo
            .saved()
            .and_then(|cp| cp.shards.iter().map(|s| s.queries).max())
            .unwrap_or(0);
        prop_assert!(charged >= checkpointed);
        prop_assert!(charged - checkpointed < costliest,
            "one session loses at most the interrupted shard's partial work: \
             charged {} - checkpointed {} vs costliest shard {}",
            charged, checkpointed, costliest);

        // Resume: fresh connection, same repository, and a quota of
        // exactly the spend the checkpoint lacks plus the re-pay bound —
        // the connection itself refuses anything more.
        let repay = banked_slices(&repo);
        let report = Crawl::builder()
            .sessions(1)
            .oversubscribe(4)
            .budget(uninterrupted.queries - checkpointed + repay)
            .repository(&mut repo)
            .run_sharded(|_s| inst.server(5))
            .unwrap();
        let issued = fresh_queries(&report);
        let resumed = report.merged;

        prop_assert!(bag(&resumed.tuples).multiset_eq(&bag(&uninterrupted.tuples)),
            "resume must reconstruct the uninterrupted bag exactly");
        prop_assert_eq!(resumed.queries, checkpointed + issued,
            "restored shards keep their recorded cost");
        assert_resume_repay(resumed.queries, uninterrupted.queries, repay)?;
    }

    /// Sharded pool: same kill-and-resume contract across two identities
    /// with per-identity budgets.
    #[test]
    fn sharded_checkpoint_kill_resume_is_exact(
        inst in instance_strategy(),
        budget_frac in 1u64..80,
    ) {
        prop_assume!(inst.solvable());
        prop_assume!(Strategy::Auto.resolve(&inst.schema).supports_sharded(&inst.schema));

        let uninterrupted = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        let budget = 1 + uninterrupted.merged.queries * budget_frac / 100 / 2;
        prop_assume!(budget * 2 < uninterrupted.merged.queries);
        let mut repo = MemoryRepository::default();
        let interrupted = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .budget(budget)
            .repository(&mut repo)
            .run_sharded(|_s| inst.server(5));
        prop_assert!(interrupted.is_err(),
            "per-identity budgets below the full cost must fail");
        let checkpointed = repo.saved().map(|cp| cp.shards.len()).unwrap_or(0);
        let repay = banked_slices(&repo);

        let resumed = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .repository(&mut repo)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        prop_assert!(
            bag(&resumed.merged.tuples).multiset_eq(&bag(&uninterrupted.merged.tuples)),
            "sharded resume must reconstruct the uninterrupted merged bag"
        );
        assert_resume_repay(resumed.merged.queries, uninterrupted.merged.queries, repay)?;
        let restored = resumed.shards.iter().filter(|s| s.restored).count();
        prop_assert_eq!(restored, checkpointed,
            "every checkpointed shard is replayed, none re-crawled");
    }

    /// Observer-initiated early stop (the kill is a `Flow::Stop`
    /// streamed out of a pool worker, not a budget): the checkpointed
    /// run halts with `Stopped`, retains its checkpoint, and a plain
    /// resume against the same repository completes with the
    /// uninterrupted bag, at the uninterrupted cost plus at most the
    /// banked shards' slice fetches. This is the contract behind
    /// `hdc crawl --target` on sharded and checkpointed runs.
    #[test]
    fn early_stop_checkpoint_resume_completes_exactly(
        inst in instance_strategy(),
        stop_frac in 1u64..90,
    ) {
        prop_assume!(inst.solvable());
        prop_assume!(Strategy::Auto.resolve(&inst.schema).supports_sharded(&inst.schema));

        let uninterrupted = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        struct StopAfter {
            limit: u64,
            seen: u64,
        }
        impl CrawlObserver for StopAfter {
            fn on_query(&mut self, _q: &Query, _out: &QueryOutcome) -> Flow {
                self.seen += 1;
                if self.seen >= self.limit { Flow::Stop } else { Flow::Continue }
            }
        }

        let stop_after = 1 + uninterrupted.merged.queries * stop_frac / 100;
        prop_assume!(stop_after < uninterrupted.merged.queries);
        let mut stopper = StopAfter { limit: stop_after, seen: 0 };
        let mut repo = MemoryRepository::default();
        let interrupted = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .observer(&mut stopper)
            .repository(&mut repo)
            .run_sharded(|_s| inst.server(5));
        match interrupted {
            // The stop latched only after the crawl's final query — no
            // interruption happened, nothing to resume.
            Ok(_) => return Ok(()),
            Err(CrawlError::Stopped { .. }) => {}
            Err(e) => {
                prop_assert!(false, "early stop surfaced as {e}, not Stopped");
            }
        }
        let checkpointed = repo.saved().map(|cp| cp.shards.len()).unwrap_or(0);
        let repay = banked_slices(&repo);

        let resumed = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .repository(&mut repo)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        prop_assert!(
            bag(&resumed.merged.tuples).multiset_eq(&bag(&uninterrupted.merged.tuples)),
            "resume after an early stop must reconstruct the uninterrupted bag"
        );
        assert_resume_repay(resumed.merged.queries, uninterrupted.merged.queries, repay)?;
        let restored = resumed.shards.iter().filter(|s| s.restored).count();
        prop_assert_eq!(restored, checkpointed,
            "every shard checkpointed before the stop is replayed, none re-crawled");
    }
}

// ---------------------------------------------------------------------
// Supporting semantics (deterministic tests).
// ---------------------------------------------------------------------

fn yahoo_like() -> Instance {
    // A mixed schema with enough rows to make multi-shard plans and
    // mid-crawl interruptions meaningful.
    let schema = Schema::builder()
        .categorical("make", 5)
        .numeric("price", 0, 999)
        .build()
        .unwrap();
    let mut x = 0x9e37u64;
    let mut next = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let tuples: Vec<Tuple> = (0..400)
        .map(|_| {
            Tuple::new(vec![
                Value::Cat((next() % 5) as u32),
                Value::Int((next() % 1000) as i64),
            ])
        })
        .collect();
    Instance {
        schema,
        tuples,
        k: 10,
    }
}

/// Cancelling the token before the crawl starts: nothing is spent, the
/// partial is empty, and the error is `Stopped` — solo and sharded.
#[test]
fn pre_cancelled_token_spends_nothing() {
    let inst = yahoo_like();
    let token = CancelToken::new();
    token.cancel();

    let mut server = inst.server(5);
    let err = Crawl::builder()
        .cancel(&token)
        .run(&mut server)
        .unwrap_err();
    let CrawlError::Stopped { partial } = err else {
        panic!("expected Stopped, got {err:?}");
    };
    assert_eq!(partial.queries, 0);
    assert_eq!(server.queries_issued(), 0);

    let err = Crawl::builder()
        .sessions(2)
        .oversubscribe(3)
        .cancel(&token)
        .run_sharded(|_s| inst.server(5))
        .unwrap_err();
    let CrawlError::Stopped { partial } = err else {
        panic!("expected Stopped, got {err:?}");
    };
    assert_eq!(partial.queries, 0, "no shard ran, nothing was charged");
    assert!(partial.tuples.is_empty());
}

/// Mid-crawl cancellation from an observer callback: the session checks
/// the token before its next query round, keeps everything already
/// charged, and surfaces `Stopped`.
#[test]
fn mid_crawl_cancellation_keeps_paid_work() {
    struct CancelAfter<'t> {
        token: &'t CancelToken,
        seen: u64,
    }
    impl CrawlObserver for CancelAfter<'_> {
        fn on_query(&mut self, _q: &Query, _out: &QueryOutcome) -> Flow {
            self.seen += 1;
            if self.seen == 5 {
                // Cancel *via the token*, not via Flow::Stop — this is
                // the path an external thread or signal handler uses.
                self.token.cancel();
            }
            Flow::Continue
        }
    }

    let inst = yahoo_like();
    let token = CancelToken::new();
    let mut observer = CancelAfter {
        token: &token,
        seen: 0,
    };
    let mut server = inst.server(5);
    let err = Crawl::builder()
        .cancel(&token)
        .observer(&mut observer)
        .run(&mut server)
        .unwrap_err();
    let CrawlError::Stopped { partial } = err else {
        panic!("expected Stopped, got {err:?}");
    };
    assert!(partial.queries >= 5, "charged work is kept");
    assert_eq!(partial.queries, server.queries_issued());
    assert!(
        (partial.tuples.len() as u64) < inst.tuples.len() as u64,
        "the crawl stopped early"
    );
}

/// Orders two identities of a sharded crawl: the waiting side's first
/// query blocks until the signalling side's [`FaultyDb`] blows its
/// `fuse` — e.g. reports [`is_dead`](FaultyDb::is_dead) — (or a generous
/// timeout passes), so a clean identity cannot drain every shard before
/// the fuse blows.
struct FuseGate {
    inner: FaultyDb<HiddenDbServer>,
    signals: bool,
    fuse: fn(&FaultyDb<HiddenDbServer>) -> bool,
    dead: Arc<(Mutex<bool>, Condvar)>,
}

impl HiddenDatabase for FuseGate {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        let (flag, cv) = &*self.dead;
        if !self.signals {
            let guard = flag.lock().unwrap();
            drop(
                cv.wait_timeout_while(guard, Duration::from_secs(30), |dead| !*dead)
                    .unwrap(),
            );
        }
        let out = self.inner.query(q);
        if self.signals && (self.fuse)(&self.inner) {
            *flag.lock().unwrap() = true;
            cv.notify_all();
        }
        out
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// Permanent identity death mid-crawl (the `fail_after` fuse): the dead
/// identity's shard fails permanently — no retry can help — but every
/// completed shard's work is salvaged into the partial report.
#[test]
fn permanent_death_is_not_retried_and_salvage_survives() {
    let inst = yahoo_like();
    let dead = Arc::new((Mutex::new(false), Condvar::new()));
    let err = Crawl::builder()
        .sessions(2)
        .oversubscribe(4)
        .retry(generous_retry())
        .run_sharded(|s| FuseGate {
            inner: FaultyDb::new(
                inst.server(5),
                FaultConfig {
                    // Identity 0 dies after 30 queries; identity 1 is clean
                    // but starts only once identity 0 is dead.
                    fail_after: (s == 0).then_some(30),
                    ..FaultConfig::default()
                },
            ),
            signals: s == 0,
            fuse: FaultyDb::is_dead,
            dead: Arc::clone(&dead),
        })
        .unwrap_err();
    let CrawlError::Db { error, partial } = err else {
        panic!("expected a database failure, got {err:?}");
    };
    assert!(!error.is_transient(), "identity death is permanent");
    assert!(
        !partial.tuples.is_empty(),
        "the surviving identity's completed shards are salvaged"
    );
    assert!(partial.queries > 0);
}

/// Budget exhaustion is permanent: a generous retry policy never
/// re-spends against an exhausted quota, so the charged count equals the
/// budget exactly even under injected transient faults.
#[test]
fn budget_exhaustion_wins_against_retry() {
    let inst = yahoo_like();
    let mut faulty = FaultyDb::new(
        inst.server(5),
        FaultConfig {
            seed: 11,
            transient_rate: 0.2,
            ..FaultConfig::default()
        },
    );
    let err = Crawl::builder()
        .budget(25)
        .retry(generous_retry())
        .run(&mut faulty)
        .unwrap_err();
    let CrawlError::Db { error, partial } = err else {
        panic!("expected a budget failure, got {err:?}");
    };
    assert!(
        matches!(error, DbError::BudgetExhausted { limit: 25, .. }),
        "got {error:?}"
    );
    assert_eq!(partial.queries, 25, "retries never consume quota");
    assert_eq!(faulty.queries_issued(), 25);
}

/// A resume reads its plan from the checkpoint, whatever its own
/// session count: a one-session × 8 checkpoint, cut short by its quota,
/// resumed by three identities on the default factor, crawls the same
/// plan to the uninterrupted bag, and its banked shards replay without
/// a query.
#[test]
fn resume_reads_its_plan_from_the_checkpoint() {
    let inst = yahoo_like();
    let whole = Crawl::builder()
        .sessions(1)
        .oversubscribe(8)
        .run_sharded(|_s| inst.server(5))
        .unwrap();
    let mut repo = MemoryRepository::default();
    let err = Crawl::builder()
        .sessions(1)
        .oversubscribe(8)
        .budget(whole.merged.queries / 2)
        .repository(&mut repo)
        .run_sharded(|_s| inst.server(5))
        .unwrap_err();
    assert!(matches!(err, CrawlError::Db { .. }), "{err:?}");
    let shards = whole.shards.len();
    let banked = repo.saved().expect("a checkpoint").shards.len();
    assert!((1..shards).contains(&banked), "banked {banked} of {shards}");

    let resumed = Crawl::builder()
        .sessions(3)
        .repository(&mut repo)
        .run_sharded(|_s| inst.server(5))
        .unwrap();
    assert_eq!(resumed.shards.len(), shards, "the checkpoint's plan");
    assert_eq!(resumed.per_session.len(), 3, "the resume's identities");
    let restored: Vec<_> = resumed.shards.iter().filter(|s| s.restored).collect();
    assert_eq!(restored.len(), banked);
    assert!(restored.iter().all(|s| s.worker == 0 && s.wall.is_zero()));
    let replayed: u64 = restored.iter().map(|s| s.report.queries).sum();
    let charged: u64 = resumed.per_session.iter().map(|r| r.queries).sum();
    assert_eq!(charged, fresh_queries(&resumed), "restored shards charge 0");
    assert_eq!(resumed.merged.queries, replayed + charged);
    assert!(bag(&resumed.merged.tuples).multiset_eq(&bag(&whole.merged.tuples)));
}

/// Re-running a *completed* checkpointed crawl replays everything from
/// the repository: zero fresh queries, identical bag.
#[test]
fn completed_checkpoint_replays_for_free() {
    let inst = yahoo_like();
    let mut repo = MemoryRepository::default();
    let first = Crawl::builder()
        .sessions(1)
        .oversubscribe(4)
        .repository(&mut repo)
        .run_sharded(|_s| inst.server(5))
        .unwrap()
        .merged;

    // A zero quota: a single fresh query would fail the replay.
    let report = Crawl::builder()
        .sessions(1)
        .oversubscribe(4)
        .budget(0)
        .repository(&mut repo)
        .run_sharded(|_s| inst.server(5))
        .unwrap();
    assert_eq!(
        fresh_queries(&report),
        0,
        "everything came from the checkpoint"
    );
    let replay = report.merged;
    assert!(bag(&replay.tuples).multiset_eq(&bag(&first.tuples)));
    assert_eq!(replay.queries, first.queries);
}

/// Sharded identity health: a retry policy that rides out the faults
/// keeps the crawl whole (Ok, full bag) despite a double-digit fault
/// rate, so no identity ever accrues a strike.
#[test]
fn sharded_retry_rides_out_transient_faults() {
    let inst = yahoo_like();
    let clean = Crawl::builder()
        .sessions(2)
        .oversubscribe(3)
        .run_sharded(|_s| inst.server(5))
        .unwrap();
    let faulty = Crawl::builder()
        .sessions(2)
        .oversubscribe(3)
        .retry(generous_retry())
        .run_sharded(|s| {
            FaultyDb::new(
                inst.server(5),
                FaultConfig {
                    seed: 17 ^ s as u64,
                    transient_rate: 0.15,
                    ..FaultConfig::default()
                },
            )
        })
        .unwrap();
    assert!(bag(&faulty.merged.tuples).multiset_eq(&bag(&clean.merged.tuples)));
    assert_eq!(faulty.merged.queries, clean.merged.queries);
    assert!(
        faulty.merged.metrics.transient_retries > 0,
        "a 15% fault rate over hundreds of queries must retry at least once"
    );
}

/// Sharded identity health, the strike path: an identity whose every
/// query fails transiently, with no retries, fails each shard it takes
/// and is retired after exactly [`TRANSIENT_STRIKES`] consecutive failed
/// shards; the healthy identity runs every remaining shard, and the
/// transient error carries the merged partial.
#[test]
fn flaky_identity_retires_after_two_transient_shard_failures() {
    #[derive(Default)]
    struct ShardLog {
        /// `(worker, failed, queries, tuples)` per merged shard.
        shards: Vec<(usize, bool, u64, u64)>,
        plan: usize,
    }
    impl CrawlObserver for ShardLog {
        fn on_shard(&mut self, e: &ShardEvent<'_>) {
            self.plan = e.total;
            self.shards.push((e.worker, e.failed, e.queries, e.tuples));
        }
    }

    let inst = yahoo_like();
    let dead = Arc::new((Mutex::new(false), Condvar::new()));
    let mut log = ShardLog::default();
    let err = Crawl::builder()
        .sessions(2)
        .oversubscribe(4)
        .retry(RetryPolicy::none())
        .observer(&mut log)
        .run_sharded(|s| FuseGate {
            inner: FaultyDb::new(
                inst.server(5),
                FaultConfig {
                    // Identity 0 fails every attempt; identity 1 is clean
                    // but starts only once identity 0 has struck out.
                    transient_rate: if s == 0 { 1.0 } else { 0.0 },
                    ..FaultConfig::default()
                },
            ),
            signals: s == 0,
            fuse: |db| db.faults_injected() >= u64::from(TRANSIENT_STRIKES),
            dead: Arc::clone(&dead),
        })
        .unwrap_err();
    let CrawlError::Db { error, partial } = err else {
        panic!("expected a database failure, got {err:?}");
    };
    assert!(error.is_transient(), "strikes come from transient faults");

    let on = |worker: usize| log.shards.iter().filter(move |s| s.0 == worker);
    assert_eq!(TRANSIENT_STRIKES, 2);
    assert_eq!(on(0).count(), 2, "retired after exactly two failed shards");
    assert!(
        on(0).all(|s| s.1 && s.2 == 0),
        "failed attempts charge nothing"
    );
    assert!(log.plan > 2, "identity 0 had shards left to take");
    assert_eq!(
        on(1).count(),
        log.plan - 2,
        "the healthy identity runs every remaining shard"
    );
    assert!(on(1).all(|s| !s.1));

    // The partial merges every shard the healthy identity crawled.
    assert!(!partial.tuples.is_empty());
    assert_eq!(partial.queries, on(1).map(|s| s.2).sum::<u64>());
    assert_eq!(partial.tuples.len() as u64, on(1).map(|s| s.3).sum::<u64>());
    assert_eq!(partial.metrics.transient_retries, 0, "no retry policy");
}
