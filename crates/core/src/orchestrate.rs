//! Crawl orchestration: the one-stop [`CrawlBuilder`] entry point and the
//! streaming [`CrawlObserver`] event interface.
//!
//! # Why this module exists
//!
//! Four layers of crawl machinery grew their own entry idioms: each
//! algorithm has its own constructors ([`Hybrid::eager`],
//! [`SliceCover::lazy_with_oracle`], …), multi-session crawling needs one
//! connection per client identity, budgets need the caller to wrap the
//! database in [`Budgeted`], and the only output was a
//! monolithic end-of-crawl [`CrawlReport`]. This module unifies them
//! behind two abstractions:
//!
//! * **[`CrawlBuilder`]** — one declarative path from intent to report:
//!
//!   ```
//!   use hdc_core::{Crawl, Strategy};
//!   use hdc_server::{HiddenDbServer, ServerConfig};
//!   use hdc_types::tuple::int_tuple;
//!   use hdc_types::Schema;
//!
//!   let schema = Schema::builder().numeric("x", 0, 999).build().unwrap();
//!   let rows: Vec<_> = (0..500).map(|v| int_tuple(&[v])).collect();
//!   let mut db =
//!       HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 16, seed: 7 }).unwrap();
//!
//!   let report = Crawl::builder()
//!       .strategy(Strategy::Auto)   // picks rank-shrink for this schema
//!       .budget(10_000)             // quota applied without hand-wrapping
//!       .run(&mut db)
//!       .unwrap();
//!   assert_eq!(report.tuples.len(), rows.len());
//!   ```
//!
//!   [`Strategy::Auto`] selects the paper-correct algorithm for the
//!   schema (numeric → rank-shrink, categorical → lazy-slice-cover,
//!   mixed → hybrid); [`CrawlBuilder::sessions`] routes the crawl through
//!   the shard cursor (via [`CrawlBuilder::run_sharded`], the cursor's
//!   only entry point, since each identity needs its own connection);
//!   [`Strategy::Custom`] admits external crawlers — the
//!   top-k-barrier crawler in `hdc-barrier` implements [`ShardCrawler`]
//!   and rides the same path. The per-algorithm constructors and
//!   [`Crawler::crawl_with`] run the same bodies, so the builder is
//!   **bit-identical** to driving a crawler directly (differential suite:
//!   `crates/core/tests/builder_equiv.rs`).
//!
//! * **[`CrawlObserver`]** — a streaming event sink threaded through the
//!   session layer and the sharded merge. Crawls no longer have to be
//!   consumed only as a final report: tuples, issued queries, progress
//!   points, and completed shards arrive as they happen, and every
//!   live callback returns a [`Flow`] that can stop the crawl early —
//!   progressiveness is a headline evaluation axis of the paper
//!   (Figure 13), and early termination at a coverage target is what
//!   makes a progressive crawler *usable*. A stopped crawl surfaces as
//!   [`CrawlError::Stopped`] carrying the partial report, exactly like a
//!   budget failure keeps what was paid for.
//!
//! # Event and stop semantics
//!
//! Events fire in causal order: [`CrawlObserver::on_query`] after each
//! *charged* query (oracle-pruned queries are answered locally and fire
//! nothing), [`CrawlObserver::on_tuples`] when the crawler reports
//! extracted tuples, [`CrawlObserver::on_progress`] whenever the
//! `(queries, tuples)` progress point changes — the same points that the
//! default [`ProgressRecorder`] accumulates into
//! [`CrawlReport::progress`], so a curve computed from the event stream
//! is the report's curve. Returning [`Flow::Stop`] from any callback
//! marks the session stopped; the in-flight operation completes its
//! accounting (already-charged outcomes are never dropped) and the next
//! attempt to issue a query aborts with `Stopped` — stop means *stop
//! spending*, not *discard work*.
//!
//! Sharded crawls run their per-shard sessions on worker threads where a
//! `&mut` observer cannot follow directly; each worker session instead
//! streams its events through a bounded channel ([`crate::events`]) that
//! the driver drains into the observer *live*, while shards run
//! (progress points arrive aggregated into crawl-wide totals). A
//! [`Flow::Stop`] from a live event trips the crawl's [`CancelToken`],
//! halting every in-flight shard before its next query, and the crawl
//! keeps everything already paid for — one stop meaning, solo or
//! sharded. The merge (which combines shard results in deterministic
//! plan order) additionally fires one [`CrawlObserver::on_shard`]
//! notification per completed shard; it runs after the spending is over,
//! so it has no say in it.

use hdc_types::{Budgeted, HiddenDatabase, Query, QueryOutcome, Schema, Tuple};

use crate::categorical::dfs::Dfs;
use crate::connector::Connector;
use crate::categorical::slice_cover::{SliceCover, SliceMemo};
use crate::crawler::Crawler;
use crate::dependency::ValidityOracle;
use crate::hybrid::Hybrid;
use crate::numeric::binary_shrink::BinaryShrink;
use crate::numeric::rank_shrink::RankShrink;
use crate::report::{CrawlError, CrawlReport, ProgressPoint};
use crate::repository::CrawlRepository;
use crate::retry::RetryPolicy;
use crate::session::SessionConfig;
use crate::sharded::{ShardSpec, ShardedReport};

/// Control-flow decision returned by the live [`CrawlObserver`] callbacks:
/// keep crawling, or stop early with a partial report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[must_use = "a Flow decides whether the crawl continues; dropping it loses a Stop"]
pub enum Flow {
    /// Keep crawling.
    Continue,
    /// Stop the crawl: no further queries are issued, and the crawl
    /// returns [`CrawlError::Stopped`] carrying the partial report.
    Stop,
}

/// A thread-safe cancellation flag shared between a crawl and the code
/// that wants to stop it.
///
/// [`Flow::Stop`] from an observer callback stops the *session firing the
/// callback*, but a sharded crawl runs its sessions on worker threads
/// where the single `&mut` observer cannot follow. A `CancelToken`
/// closes that gap: hand the same token to
/// [`crate::CrawlBuilder::cancel`] (or a [`crate::SessionConfig`]) and
/// flip it from anywhere — another thread, a signal handler, or the
/// sharded driver relaying an observer's stop — and every session
/// checks it before spending the next query. Cancellation has the same
/// semantics as `Stop`: *stop spending, keep everything already paid for*
/// ([`CrawlError::Stopped`] carries the partial report).
///
/// The token is latching — once cancelled it stays cancelled.
#[derive(Debug, Default)]
pub struct CancelToken(std::sync::atomic::AtomicBool);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Latches the token: every session watching it aborts with
    /// [`CrawlError::Stopped`] before issuing its next query.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// One completed shard of a multi-session crawl, delivered — in plan
/// order — by the merge path of [`CrawlBuilder::run_sharded`].
#[derive(Debug)]
pub struct ShardEvent<'a> {
    /// Position of the shard in the plan (0-based).
    pub index: usize,
    /// Total number of shards in the plan.
    pub total: usize,
    /// The shard's spec.
    pub spec: &'a ShardSpec,
    /// The worker (client identity) that took the shard from the cursor
    /// and crawled it.
    pub worker: usize,
    /// Queries the shard's crawl charged.
    pub queries: u64,
    /// Tuples the shard extracted.
    pub tuples: u64,
    /// Whether the shard's crawl failed (its results are the failure's
    /// partial report, already merged).
    pub failed: bool,
    /// Whether the shard was replayed from a checkpoint (no queries were
    /// issued by *this* run; `worker` is a placeholder).
    pub restored: bool,
}

/// A streaming sink for crawl events.
///
/// All methods default to doing nothing (returning [`Flow::Continue`]
/// where they return a [`Flow`]), so an observer implements only the
/// events it cares about. See the [module docs](self) for exact firing
/// and stop semantics.
pub trait CrawlObserver {
    /// A query was charged and answered. Fires once per charged query —
    /// batched siblings fire one event each, in batch order; queries a
    /// validity oracle answers locally fire nothing.
    fn on_query(&mut self, query: &Query, outcome: &QueryOutcome) -> Flow {
        let _ = (query, outcome);
        Flow::Continue
    }

    /// The crawler reported newly extracted tuples (never empty).
    fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
        let _ = tuples;
        Flow::Continue
    }

    /// The `(queries, tuples)` progress point changed — the Figure 13
    /// progressiveness curve, streamed. The same points accumulate into
    /// [`CrawlReport::progress`] via the default [`ProgressRecorder`].
    fn on_progress(&mut self, point: ProgressPoint) -> Flow {
        let _ = point;
        Flow::Continue
    }

    /// A shard of a sharded crawl was merged (plan order). A pure
    /// notification: every shard has already run when it fires.
    fn on_shard(&mut self, event: &ShardEvent<'_>) {
        let _ = event;
    }
}

/// The default progress observer: accumulates the progress curve exactly
/// as [`CrawlReport::progress`] records it — one point per query count,
/// consecutive same-count updates collapsed in place.
///
/// Every [`crate::Session`] owns one (this is what builds the report's
/// curve); external code can use it too, e.g. to rebuild a curve from a
/// recorded event stream and check it against a report.
#[derive(Default, Debug)]
pub struct ProgressRecorder {
    points: Vec<ProgressPoint>,
}

impl ProgressRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The curve recorded so far.
    pub fn points(&self) -> &[ProgressPoint] {
        &self.points
    }

    /// Consumes the recorder, returning the curve.
    pub fn into_points(self) -> Vec<ProgressPoint> {
        self.points
    }

    /// The last recorded point (what the collapse compares against).
    pub(crate) fn last(&self) -> Option<&ProgressPoint> {
        self.points.last()
    }
}

impl CrawlObserver for ProgressRecorder {
    fn on_progress(&mut self, point: ProgressPoint) -> Flow {
        // Collapse consecutive points at the same query count so the
        // curve has one point per query.
        if let Some(last) = self.points.last_mut() {
            if last.queries == point.queries {
                last.tuples = point.tuples;
                return Flow::Continue;
            }
        }
        self.points.push(point);
        Flow::Continue
    }
}

/// A crawler that can also run inside one [`ShardSpec`] subspace — the
/// contract [`Strategy::Custom`] needs to route an external crawler
/// through both the solo and the multi-session builder paths.
///
/// `crawl_spec` must uphold the scheduler's determinism contract (see
/// [`crate::sharded`]): its query sequence may depend only on the shard
/// spec and the database, never on which worker runs it or what ran
/// before on the connection. The `Sync` supertrait is what lets the
/// sharded crawl's workers share the crawler across identities.
pub trait ShardCrawler: Crawler + Sync {
    /// Crawls one shard's subspace on `db` (which must view the same
    /// logical database the plan was made for) under `config` — the
    /// sharded runtime's retry policy, halt token, and event route, which
    /// the crawler threads into its session via [`crate::run_crawl`].
    fn crawl_spec(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        spec: &ShardSpec,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError>;
}

/// Which algorithm a [`CrawlBuilder`] runs.
///
/// The named variants are the in-crate algorithms; [`Strategy::Auto`]
/// picks the paper-correct one for the schema, and [`Strategy::Custom`]
/// plugs in any external [`ShardCrawler`] (the `hdc-barrier` crate's
/// top-k-barrier crawler rides this way).
#[derive(Clone, Copy)]
pub enum Strategy<'c> {
    /// Pick the paper's choice for the schema: pure numeric →
    /// [`RankShrink`], pure categorical → lazy [`SliceCover`], mixed →
    /// [`Hybrid`] (§2.2, §3.2, §5).
    Auto,
    /// The mixed-space hybrid (§5) — accepts every schema.
    Hybrid,
    /// Optimal numeric crawling (§2.2–2.3); numeric schemas only.
    RankShrink,
    /// The numeric baseline (§2.1); numeric schemas only.
    BinaryShrink,
    /// Optimal categorical crawling (§3.2); categorical schemas only.
    SliceCover {
        /// `true` for the lazy variant (fetch slices at first use — the
        /// paper's recommendation on real data), `false` for the eager
        /// preprocessing phase.
        lazy: bool,
    },
    /// The categorical DFS baseline (§3.1); categorical schemas only.
    Dfs,
    /// An external crawler (e.g. `hdc_barrier::BarrierCrawler`).
    Custom(&'c dyn ShardCrawler),
}

impl std::fmt::Debug for Strategy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Auto => write!(f, "Auto"),
            Strategy::Hybrid => write!(f, "Hybrid"),
            Strategy::RankShrink => write!(f, "RankShrink"),
            Strategy::BinaryShrink => write!(f, "BinaryShrink"),
            Strategy::SliceCover { lazy } => write!(f, "SliceCover {{ lazy: {lazy} }}"),
            Strategy::Dfs => write!(f, "Dfs"),
            Strategy::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

impl<'c> Strategy<'c> {
    /// Resolves [`Strategy::Auto`] to the paper's concrete choice for
    /// `schema`; every other variant resolves to itself.
    pub fn resolve(self, schema: &Schema) -> Strategy<'c> {
        match self {
            Strategy::Auto => {
                if schema.is_numeric() {
                    Strategy::RankShrink
                } else if schema.is_categorical() {
                    Strategy::SliceCover { lazy: true }
                } else {
                    Strategy::Hybrid
                }
            }
            other => other,
        }
    }

    /// Whether this strategy (after [`Strategy::resolve`]) can crawl
    /// databases with `schema` — the single support matrix behind both
    /// [`CrawlBuilder::run`]'s panic and callers (like the `hdc` CLI)
    /// that want to validate before building.
    pub fn supports(self, schema: &Schema) -> bool {
        match self.resolve(schema) {
            Strategy::Auto => unreachable!("Auto always resolves"),
            Strategy::Hybrid => true,
            Strategy::RankShrink | Strategy::BinaryShrink => schema.is_numeric(),
            Strategy::SliceCover { .. } | Strategy::Dfs => schema.is_categorical(),
            Strategy::Custom(c) => c.supports(schema),
        }
    }

    /// Whether this strategy (after [`Strategy::resolve`]) has a
    /// **sharded** execution on `schema`, which a multi-shard plan needs
    /// (the one-shard plan is the solo crawl, see [`Strategy::supports`]).
    /// The sharded plan executes the paper's optimal family per subspace,
    /// so rank-shrink requires a numeric schema, lazy slice-cover a
    /// categorical one, and the baselines (binary-shrink, DFS, eager
    /// slice-cover) have none; custom crawlers shard wherever they crawl.
    pub fn supports_sharded(self, schema: &Schema) -> bool {
        match self.resolve(schema) {
            Strategy::Auto => unreachable!("Auto always resolves"),
            Strategy::Hybrid => true,
            Strategy::RankShrink => schema.is_numeric(),
            Strategy::SliceCover { lazy: true } => schema.is_categorical(),
            Strategy::Custom(c) => c.supports(schema),
            Strategy::BinaryShrink | Strategy::SliceCover { lazy: false } | Strategy::Dfs => {
                false
            }
        }
    }
}

/// Entry point for the one-stop crawl API: [`Crawl::builder`].
#[derive(Debug)]
pub struct Crawl;

impl Crawl {
    /// Starts a [`CrawlBuilder`] with the defaults: [`Strategy::Auto`],
    /// no oracle, no budget, one session, no observer.
    pub fn builder<'a>() -> CrawlBuilder<'a> {
        CrawlBuilder {
            strategy: Strategy::Auto,
            oracle: None,
            budget: None,
            sessions: 1,
            oversubscribe: 1,
            observer: None,
            retry: RetryPolicy::none(),
            cancel: None,
            repository: None,
        }
    }
}

/// Declarative configuration of a crawl — strategy, §1.3 validity
/// oracle, query budget, multi-session fan-out, and event observer — with
/// the legacy semantics of each knob preserved bit for bit.
///
/// Finish with [`CrawlBuilder::run`] (one connection) or
/// [`CrawlBuilder::run_sharded`] (one connection per client identity).
/// See the [module docs](self) for a usage example and the exact
/// equivalence guarantees.
pub struct CrawlBuilder<'a> {
    strategy: Strategy<'a>,
    // `Sync`: the shard pool shares it across its worker threads.
    oracle: Option<&'a (dyn ValidityOracle + Sync)>,
    // The rest configure the shard pool too, whose executor
    // (`sharded.rs`) reads them directly.
    pub(crate) budget: Option<u64>,
    pub(crate) sessions: usize,
    pub(crate) oversubscribe: usize,
    pub(crate) observer: Option<&'a mut dyn CrawlObserver>,
    pub(crate) retry: RetryPolicy,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) repository: Option<&'a mut dyn CrawlRepository>,
}

impl<'a> CrawlBuilder<'a> {
    /// Selects the algorithm (default: [`Strategy::Auto`]).
    pub fn strategy(mut self, strategy: Strategy<'a>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a §1.3 validity oracle: queries the oracle proves empty
    /// are answered locally, free of charge ("the query cost can only go
    /// down"). Supported by every built-in strategy except the eager
    /// slice-cover, and not by [`Strategy::Custom`] (the restrictions of
    /// the legacy constructors). [`CrawlBuilder::run_sharded`] hands the
    /// oracle to every shard session, whatever the plan.
    pub fn oracle(mut self, oracle: &'a (dyn ValidityOracle + Sync)) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Applies a hard query quota, exactly as if the caller had wrapped
    /// the database in [`Budgeted`] themselves. For sharded runs the
    /// quota is **per client identity** — each session's connection gets
    /// its own allowance, matching how real sites meter queries (§1.1).
    pub fn budget(mut self, limit: u64) -> Self {
        self.budget = Some(limit);
        self
    }

    /// Number of concurrent client identities (default 1). Values above
    /// 1 require [`CrawlBuilder::run_sharded`], since every identity
    /// needs its own connection.
    ///
    /// # Panics
    /// Panics if `sessions == 0`.
    pub fn sessions(mut self, sessions: usize) -> Self {
        assert!(sessions >= 1, "at least one session required");
        self.sessions = sessions;
        self
    }

    /// Over-partitions the sharded plan into `≈ sessions × factor` fine
    /// shards dealt to the identities by the shard cursor (see
    /// [`crate::Sharded::plan_oversubscribed`]). More shards mean better
    /// balance under skew — a heavy subtree no longer pins a whole
    /// identity's share. The shards share one slice memo, so a finer
    /// plan re-fetches no slice; what it may add are node queries a
    /// sub-split shard issues below its start node. Only meaningful with
    /// [`CrawlBuilder::run_sharded`].
    ///
    /// # Panics
    /// Panics if `factor == 0`.
    pub fn oversubscribe(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "oversubscription factor must be ≥ 1");
        self.oversubscribe = factor;
        self
    }

    /// Attaches a streaming event observer (see [`CrawlObserver`]).
    pub fn observer(mut self, observer: &'a mut dyn CrawlObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Applies a [`RetryPolicy`] to transient database errors
    /// ([`hdc_types::DbError::is_transient`]): failed queries are
    /// reissued with exponential backoff instead of aborting the crawl,
    /// and only successful attempts are charged. The default is
    /// [`RetryPolicy::none`] — fail fast, the legacy behavior.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attaches a [`CancelToken`]: flipping it from any thread stops the
    /// crawl (solo or sharded) before its next query, with the same
    /// keep-what-you-paid-for semantics as [`Flow::Stop`].
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a [`CrawlRepository`]: the crawl checkpoints every
    /// completed shard into it and, if the repository already holds a
    /// checkpoint for the same plan, resumes from it — restored shards
    /// are replayed from the snapshot without issuing a single query.
    /// Only [`CrawlBuilder::run_sharded`] takes a repository. The plan,
    /// and so the checkpoint granularity, comes from
    /// [`CrawlBuilder::sessions`] and [`CrawlBuilder::oversubscribe`]
    /// alone: the default one-shard plan banks the crawl only once it
    /// completes, so a crawl that should bank progress as it goes asks
    /// for a finer plan (e.g. `oversubscribe(8)`).
    pub fn repository(mut self, repository: &'a mut dyn CrawlRepository) -> Self {
        self.repository = Some(repository);
        self
    }

    /// Runs the crawl on one connection.
    ///
    /// Bit-identical to the direct call for the resolved strategy
    /// (e.g. `Hybrid::new().crawl(db)`, with the database wrapped in
    /// [`Budgeted`] when a budget is set): same query sequence, same
    /// cost, same bag, same progress curve.
    ///
    /// # Panics
    /// Panics when the configuration is contradictory: `sessions > 1` or
    /// a repository (both belong to [`CrawlBuilder::run_sharded`]), a
    /// strategy that does not support the schema, or an oracle on a
    /// strategy without oracle support ([`Strategy::Custom`], eager
    /// slice-cover).
    pub fn run(self, db: &mut dyn HiddenDatabase) -> Result<CrawlReport, CrawlError> {
        assert!(
            self.sessions == 1,
            "sessions > 1 needs one connection per identity: use run_sharded(connector)"
        );
        assert!(
            self.repository.is_none(),
            "checkpointed crawls run on the shard pool: use run_sharded(connector)"
        );
        let schema = db.schema().clone();
        let strategy = self.strategy.resolve(&schema);
        let mut budgeted;
        let db: &mut dyn HiddenDatabase = match self.budget {
            Some(limit) => {
                // `&mut dyn HiddenDatabase` is itself a `HiddenDatabase`
                // (blanket impl), so the quota wraps any backend.
                budgeted = Budgeted::new(db, limit);
                &mut budgeted
            }
            None => db,
        };
        let config = SessionConfig {
            retry: self.retry,
            cancel: self.cancel,
            observer: self.observer,
        };
        run_solo(strategy, db, self.oracle, &schema, config)
    }

    /// Runs the crawl across [`CrawlBuilder::sessions`] client
    /// identities on the shard cursor — its only entry point. The
    /// [`Connector`] mints identity `s`'s own connection —
    /// `connector.connect(s)` — and every `Fn(usize) -> D` factory
    /// closure *is* a connector (blanket impl), so
    /// `run_sharded(|_s| shared.client())` works as written. All
    /// connections must view the same logical database.
    ///
    /// The plan is [`crate::Sharded::plan_oversubscribed`] of the schema
    /// probed from identity 0. Each worker owns one connection for its
    /// whole lifetime and crawls the shards the scheduler deals it, one
    /// at a time. The shards share one slice memo, so a slice several
    /// shards need is charged once, to whichever asks first. Results are
    /// merged in plan order, so the extracted bag, every shard's bag and
    /// the merged cost — the plan's distinct queries — are those of the
    /// plan crawled shard by shard, whatever the scheduling (the
    /// determinism contract in the [`crate::sharded`] docs).
    ///
    /// * The **one-shard plan** (one session, factor 1, the default) is
    ///   [`ShardSpec::whole`], crawled by the strategy's own solo
    ///   crawler: the merged report — bag in order, cost, tallies,
    ///   metrics, progress curve and algorithm name — is
    ///   [`CrawlBuilder::run`]'s, and every strategy that crawls the
    ///   schema solo runs here too.
    /// * A **multi-shard plan** crawls each shard with the strategy's
    ///   shard crawler: [`ShardSpec::crawl_with`]'s routine for the
    ///   built-in family, [`ShardCrawler::crawl_spec`] for
    ///   [`Strategy::Custom`].
    /// * An [`CrawlBuilder::oracle`] prunes every shard session's
    ///   queries, so each shard costs what it costs crawled alone with
    ///   the oracle.
    /// * The **observer** receives every shard session's
    ///   `on_query`/`on_tuples`/`on_progress` events live — streamed out
    ///   of the worker threads through a bounded channel, with progress
    ///   aggregated into crawl-wide totals — plus one
    ///   [`CrawlObserver::on_shard`] per merged shard, in plan order. A
    ///   [`Flow::Stop`] trips the halt token, stopping every in-flight
    ///   shard before its next query; the crawl returns
    ///   [`CrawlError::Stopped`] carrying every tuple and query already
    ///   paid for — unless some shard actually *failed*, in which case
    ///   the failure (`Db`/`Unsolvable`) is returned instead, carrying
    ///   the same partial: a dead identity must never be misread as a
    ///   voluntary stop.
    /// * A [`CrawlBuilder::repository`] makes the crawl resumable: an
    ///   existing checkpoint is loaded first (a plan mismatch is a typed
    ///   [`CrawlError::Db`], not a panic), its snapshotted shards are
    ///   replayed without issuing a single query, only the remainder is
    ///   crawled, and the updated checkpoint is stored after every
    ///   completed shard. The merged bag of a resumed crawl is
    ///   bit-identical to an uninterrupted run's. Its cost may exceed the
    ///   uninterrupted cost by the slices the banked shards had fetched
    ///   and the remaining shards need: the resumed crawl's memo starts
    ///   empty.
    ///
    /// # Panics
    /// Panics when the configuration is contradictory: a strategy that
    /// does not support the schema, an oracle on a strategy without
    /// oracle support ([`Strategy::Custom`], eager slice-cover), or, for
    /// a multi-shard plan, a strategy without a sharded execution — that
    /// plan executes the paper's optimal family per subspace, so
    /// [`Strategy::RankShrink`] requires a numeric schema, lazy
    /// [`Strategy::SliceCover`] a categorical one, and the baselines
    /// ([`Strategy::BinaryShrink`], [`Strategy::Dfs`], eager
    /// slice-cover) are rejected outright.
    pub fn run_sharded<C>(self, connector: C) -> Result<ShardedReport, CrawlError>
    where
        C: Connector,
    {
        let probe = connector.connect(0);
        let schema = probe.schema().clone();
        drop(probe);
        let strategy = self.strategy.resolve(&schema);
        let oracle = self.oracle;
        // The one-shard plan is `ShardSpec::whole`: the solo crawl.
        let whole = self.sessions == 1 && self.oversubscribe == 1;
        assert_runnable(strategy, &schema, oracle.is_some(), !whole);
        // One slice memo for the whole crawl, shared by every shard.
        let memo = SliceMemo::new(&schema);
        let mut result = self.run_pool(&schema, connector, |spec, db, config| match strategy {
            _ if whole => run_solo(strategy, db, oracle, &schema, config),
            Strategy::Custom(c) => c.crawl_spec(db, &schema, spec, config),
            _ => spec.crawl_on(&memo, db, &schema, oracle.map(|o| o as _), config, None),
        });
        if let Ok(report) = &mut result {
            if whole && report.shards[0].restored {
                // A snapshot banks no algorithm name; a restored
                // one-shard plan is still the solo crawl.
                report.merged.algorithm = solo_name(strategy);
            }
        }
        result
    }
}

/// Solo dispatch: builds the crawler for the resolved strategy and runs
/// it under `config`.
fn run_solo(
    strategy: Strategy<'_>,
    db: &mut dyn HiddenDatabase,
    oracle: Option<&(dyn ValidityOracle + Sync)>,
    schema: &Schema,
    config: SessionConfig<'_>,
) -> Result<CrawlReport, CrawlError> {
    assert_runnable(strategy, schema, oracle.is_some(), false);
    match strategy {
        Strategy::Custom(c) => c.crawl_with(db, config),
        _ => solo_crawler(strategy, oracle).crawl_with(db, config),
    }
}

/// The name the strategy's solo crawler reports.
fn solo_name(strategy: Strategy<'_>) -> &'static str {
    match strategy {
        Strategy::Custom(c) => c.name(),
        _ => solo_crawler(strategy, None).name(),
    }
}

/// The built-in crawler for a resolved, non-custom strategy.
fn solo_crawler<'o>(
    strategy: Strategy<'_>,
    oracle: Option<&'o (dyn ValidityOracle + Sync)>,
) -> Box<dyn Crawler + 'o> {
    match (strategy, oracle) {
        (Strategy::Auto, _) => unreachable!("Auto resolved before dispatch"),
        (Strategy::Hybrid, None) => Box::new(Hybrid::new()),
        (Strategy::Hybrid, Some(o)) => Box::new(Hybrid::with_oracle(o)),
        (Strategy::RankShrink, None) => Box::new(RankShrink::new()),
        (Strategy::RankShrink, Some(o)) => Box::new(RankShrink::with_oracle(o)),
        (Strategy::BinaryShrink, None) => Box::new(BinaryShrink::new()),
        (Strategy::BinaryShrink, Some(o)) => Box::new(BinaryShrink::with_oracle(o)),
        (Strategy::Dfs, None) => Box::new(Dfs::new()),
        (Strategy::Dfs, Some(o)) => Box::new(Dfs::with_oracle(o)),
        (Strategy::SliceCover { lazy: false }, None) => Box::new(SliceCover::eager()),
        (Strategy::SliceCover { lazy: true }, None) => Box::new(SliceCover::lazy()),
        (Strategy::SliceCover { lazy: true }, Some(o)) => {
            Box::new(SliceCover::lazy_with_oracle(o))
        }
        (Strategy::Custom(_), _) => unreachable!("a custom strategy crawls itself"),
        (Strategy::SliceCover { lazy: false }, Some(_)) => {
            unreachable!("assert_runnable refuses the oracle")
        }
    }
}

/// Panics unless the resolved strategy can crawl `schema` — solo, or on
/// a multi-shard plan when `sharded` (see [`Strategy::supports`] and
/// [`Strategy::supports_sharded`]) — and, with an oracle, takes one.
fn assert_runnable(strategy: Strategy<'_>, schema: &Schema, oracle: bool, sharded: bool) {
    let (supported, what) = if sharded {
        (
            strategy.supports_sharded(schema),
            "has no sharded execution on this schema",
        )
    } else {
        (strategy.supports(schema), "does not support this schema")
    };
    assert!(
        supported,
        "strategy {:?} {what} (cat = {}, num = {})",
        strategy,
        schema.cat_count(),
        schema.arity() - schema.cat_count()
    );
    assert!(
        !oracle || !matches!(strategy, Strategy::SliceCover { lazy: false } | Strategy::Custom(_)),
        "strategy {strategy:?} does not support a validity oracle"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::int_tuple;
    use hdc_types::{DbError, Value};

    #[test]
    fn auto_resolution_follows_the_paper() {
        let numeric = Schema::builder().numeric("x", 0, 9).build().unwrap();
        let categorical = Schema::builder().categorical("c", 3).build().unwrap();
        let mixed = Schema::builder()
            .categorical("c", 3)
            .numeric("x", 0, 9)
            .build()
            .unwrap();
        assert!(matches!(
            Strategy::Auto.resolve(&numeric),
            Strategy::RankShrink
        ));
        assert!(matches!(
            Strategy::Auto.resolve(&categorical),
            Strategy::SliceCover { lazy: true }
        ));
        assert!(matches!(Strategy::Auto.resolve(&mixed), Strategy::Hybrid));
        // Non-auto strategies resolve to themselves.
        assert!(matches!(
            Strategy::BinaryShrink.resolve(&categorical),
            Strategy::BinaryShrink
        ));
    }

    #[test]
    fn progress_recorder_collapses_like_the_report() {
        let mut rec = ProgressRecorder::new();
        for (q, t) in [(1, 0), (1, 2), (2, 2), (2, 5), (3, 5)] {
            let _ = rec.on_progress(ProgressPoint {
                queries: q,
                tuples: t,
            });
        }
        assert_eq!(
            rec.points(),
            &[
                ProgressPoint {
                    queries: 1,
                    tuples: 2
                },
                ProgressPoint {
                    queries: 2,
                    tuples: 5
                },
                ProgressPoint {
                    queries: 3,
                    tuples: 5
                },
            ]
        );
        assert_eq!(rec.into_points().len(), 3);
    }

    /// A tiny in-memory database for observer-semantics tests.
    struct TinyDb {
        schema: Schema,
        rows: Vec<Tuple>,
        k: usize,
        issued: u64,
    }

    impl HiddenDatabase for TinyDb {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn k(&self) -> usize {
            self.k
        }

        fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
            q.validate(&self.schema)?;
            self.issued += 1;
            let matches: Vec<Tuple> =
                self.rows.iter().filter(|t| q.matches(t)).cloned().collect();
            if matches.len() <= self.k {
                Ok(QueryOutcome::resolved(matches))
            } else {
                Ok(QueryOutcome::overflowed(matches[..self.k].to_vec()))
            }
        }

        fn queries_issued(&self) -> u64 {
            self.issued
        }
    }

    fn tiny(n: i64, k: usize) -> TinyDb {
        TinyDb {
            schema: Schema::builder().numeric("x", 0, 999).build().unwrap(),
            rows: (0..n).map(|v| int_tuple(&[v])).collect(),
            k,
            issued: 0,
        }
    }

    /// Counts events and checks internal consistency against the report.
    #[derive(Default)]
    struct Counter {
        queries: u64,
        tuples: u64,
        progress: u64,
        last_point: Option<ProgressPoint>,
    }

    impl CrawlObserver for Counter {
        fn on_query(&mut self, _q: &Query, _out: &QueryOutcome) -> Flow {
            self.queries += 1;
            Flow::Continue
        }

        fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
            assert!(!tuples.is_empty(), "on_tuples never fires empty");
            self.tuples += tuples.len() as u64;
            Flow::Continue
        }

        fn on_progress(&mut self, point: ProgressPoint) -> Flow {
            self.progress += 1;
            assert_ne!(Some(point), self.last_point, "duplicate progress point");
            self.last_point = Some(point);
            Flow::Continue
        }
    }

    #[test]
    fn builder_streams_consistent_events() {
        let mut db = tiny(200, 16);
        let mut counter = Counter::default();
        let report = Crawl::builder()
            .strategy(Strategy::Auto)
            .observer(&mut counter)
            .run(&mut db)
            .unwrap();
        assert_eq!(report.algorithm, "rank-shrink", "Auto picked the paper's choice");
        assert_eq!(counter.queries, report.queries);
        assert_eq!(counter.tuples, report.tuples.len() as u64);
        assert_eq!(
            counter.last_point,
            report.progress.last().copied(),
            "the event stream ends on the report's final progress point"
        );
    }

    /// Stops after the first `limit` queries.
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

    #[test]
    fn observer_stop_yields_partial_report() {
        let mut db = tiny(500, 8);
        let mut stopper = StopAfter { limit: 5, seen: 0 };
        let err = Crawl::builder()
            .observer(&mut stopper)
            .run(&mut db)
            .unwrap_err();
        let CrawlError::Stopped { partial } = err else {
            panic!("expected a stopped crawl");
        };
        // The stop lands between query rounds: everything charged is
        // accounted, and no further round was issued.
        assert!(partial.queries >= 5);
        assert!(partial.queries <= 5 + crate::MAX_BATCH as u64);
        assert_eq!(partial.queries, db.queries_issued());
        assert!((partial.tuples.len() as u64) < 500);
    }

    #[test]
    fn builder_budget_matches_hand_wrapping() {
        let mut db = tiny(300, 8);
        let err = Crawl::builder().budget(7).run(&mut db).unwrap_err();
        let CrawlError::Db { error, partial } = err else {
            panic!("expected a budget failure");
        };
        assert!(matches!(error, DbError::BudgetExhausted { limit: 7, .. }));
        assert_eq!(partial.queries, 7);

        let mut db2 = tiny(300, 8);
        let mut wrapped = Budgeted::new(&mut db2 as &mut dyn HiddenDatabase, 7);
        let err2 = RankShrink::new().crawl(&mut wrapped).unwrap_err();
        assert_eq!(err2.partial().queries, 7);
        assert_eq!(
            err2.partial().tuples.len(),
            partial.tuples.len(),
            "builder budget ≡ hand-wrapped Budgeted"
        );
    }

    #[test]
    #[should_panic(expected = "run_sharded")]
    fn solo_run_rejects_multiple_sessions() {
        let mut db = tiny(10, 4);
        let _ = Crawl::builder().sessions(2).run(&mut db);
    }

    #[test]
    #[should_panic(expected = "run_sharded")]
    fn solo_run_rejects_a_repository() {
        let mut db = tiny(10, 4);
        let mut repo = crate::MemoryRepository::default();
        let _ = Crawl::builder().repository(&mut repo).run(&mut db);
    }

    #[test]
    #[should_panic(expected = "does not support this schema")]
    fn unsupported_strategy_panics_with_context() {
        let mut db = TinyDb {
            schema: Schema::builder().categorical("c", 3).build().unwrap(),
            rows: vec![Tuple::new(vec![Value::Cat(1)])],
            k: 4,
            issued: 0,
        };
        let _ = Crawl::builder().strategy(Strategy::RankShrink).run(&mut db);
    }

    #[test]
    fn support_matrices_follow_schema_kind() {
        let numeric = Schema::builder().numeric("x", 0, 9).build().unwrap();
        let categorical = Schema::builder().categorical("c", 3).build().unwrap();
        let mixed = Schema::builder()
            .categorical("c", 3)
            .numeric("x", 0, 9)
            .build()
            .unwrap();
        for schema in [&numeric, &categorical, &mixed] {
            // Auto and Hybrid go everywhere, solo and sharded.
            assert!(Strategy::Auto.supports(schema));
            assert!(Strategy::Auto.supports_sharded(schema));
            assert!(Strategy::Hybrid.supports(schema));
            assert!(Strategy::Hybrid.supports_sharded(schema));
        }
        assert!(Strategy::RankShrink.supports(&numeric));
        assert!(Strategy::RankShrink.supports_sharded(&numeric));
        assert!(!Strategy::RankShrink.supports(&mixed));
        assert!(!Strategy::RankShrink.supports_sharded(&mixed));
        assert!(Strategy::SliceCover { lazy: true }.supports_sharded(&categorical));
        assert!(!Strategy::SliceCover { lazy: true }.supports_sharded(&numeric));
        // Baselines and eager slice-cover never shard.
        assert!(Strategy::BinaryShrink.supports(&numeric));
        assert!(!Strategy::BinaryShrink.supports_sharded(&numeric));
        assert!(Strategy::Dfs.supports(&categorical));
        assert!(!Strategy::Dfs.supports_sharded(&categorical));
        assert!(!Strategy::SliceCover { lazy: false }.supports_sharded(&categorical));
    }

    /// A numeric-only custom crawler on a categorical schema must hit
    /// the same supports() gate as the built-ins — not run unchecked.
    #[test]
    #[should_panic(expected = "does not support this schema")]
    fn custom_strategy_is_support_checked_too() {
        struct NumericOnly;
        impl Crawler for NumericOnly {
            fn name(&self) -> &'static str {
                "numeric-only"
            }
            fn supports(&self, schema: &Schema) -> bool {
                schema.is_numeric()
            }
            fn crawl_with(
                &self,
                _db: &mut dyn HiddenDatabase,
                _config: SessionConfig<'_>,
            ) -> Result<CrawlReport, CrawlError> {
                unreachable!("must be rejected before crawling")
            }
        }
        impl ShardCrawler for NumericOnly {
            fn crawl_spec(
                &self,
                _db: &mut dyn HiddenDatabase,
                _schema: &Schema,
                _spec: &ShardSpec,
                _config: SessionConfig<'_>,
            ) -> Result<CrawlReport, CrawlError> {
                unreachable!("must be rejected before crawling")
            }
        }
        let mut db = TinyDb {
            schema: Schema::builder().categorical("c", 3).build().unwrap(),
            rows: vec![Tuple::new(vec![Value::Cat(1)])],
            k: 4,
            issued: 0,
        };
        let _ = Crawl::builder()
            .strategy(Strategy::Custom(&NumericOnly))
            .run(&mut db);
    }

    #[test]
    fn strategy_debug_names() {
        assert_eq!(format!("{:?}", Strategy::Auto), "Auto");
        assert_eq!(
            format!("{:?}", Strategy::SliceCover { lazy: true }),
            "SliceCover { lazy: true }"
        );
    }
}
