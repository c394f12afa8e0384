//! Crawl sessions: query accounting, output collection, progress curves,
//! and streaming crawl events.
//!
//! This layer is public API: it is the building block not just for the
//! algorithms in this crate but for *external* crawler crates — the
//! top-k-barrier crawler in `hdc-barrier` drives its discriminating
//! probes through the same [`Session::run_batch`] path, so every crawler
//! in the workspace shares one implementation of cost accounting, oracle
//! pruning, batched issuing, progress curves, and
//! [`CrawlObserver`] event delivery (including observer-driven early
//! termination — see the [`crate::orchestrate`] module docs for the
//! exact semantics).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Tuple};

use crate::dependency::ValidityOracle;
use crate::orchestrate::{CancelToken, CrawlObserver, Flow, ProgressRecorder};
use crate::report::{CrawlError, CrawlMetrics, CrawlReport, ProgressPoint};
use crate::retry::RetryPolicy;

/// Everything a caller threads into one crawl session besides the
/// database and the algorithm: retry policy, cancellation, and where the
/// session's events go. Passed to
/// [`crate::Crawler::crawl_with`], [`crate::ShardSpec::crawl_with`],
/// [`crate::ShardCrawler::crawl_spec`], and [`run_crawl`].
///
/// The default — no retries ([`RetryPolicy::none`]), no cancellation
/// token, no observer — is a plain crawl.
#[derive(Default)]
pub struct SessionConfig<'c> {
    /// How the session reacts to transient [`DbError`]s: re-issue the
    /// failed query (or the failed *suffix* of a batch — the successful
    /// prefix is never re-paid) up to the policy's attempt bound, with
    /// backoff between attempts. Non-transient errors always abort.
    pub retry: RetryPolicy,
    /// External cancellation: when the token trips, the session refuses
    /// to issue further queries and aborts with [`Abort::Stopped`] —
    /// the `Sync` flag that lets an observer (or a signal handler) halt
    /// in-flight shards on other threads.
    pub cancel: Option<&'c CancelToken>,
    /// The session's event observer (see [`CrawlObserver`] for the event
    /// and early-stop semantics). Sharded-crawl workers attach a
    /// [`crate::ChannelObserver`] here, which streams the events to the
    /// crawl's one observer on another thread.
    pub observer: Option<&'c mut dyn CrawlObserver>,
}

impl std::fmt::Debug for SessionConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionConfig")
            .field("retry", &self.retry)
            .field("cancel", &self.cancel)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// Abort signal raised inside an algorithm body; the session converts it
/// into a [`CrawlError`] carrying the partial report (see [`run_crawl`]).
#[derive(Debug)]
pub enum Abort {
    /// The interface failed (budget exhausted, invalid query, transport).
    Db(DbError),
    /// Problem 1 is unsolvable: the query pins a point of the data space
    /// that still overflowed (more than `k` duplicates).
    Unsolvable(Query),
    /// A [`CrawlObserver`] returned [`Flow::Stop`]: the session refuses
    /// to issue further queries, and the crawl unwinds with
    /// [`CrawlError::Stopped`] carrying everything extracted so far.
    Stopped,
}

/// Process-wide session telemetry, resolved once so the hot query path
/// never takes the registry lock. Every observation is additionally
/// gated on [`hdc_obs::enabled`], keeping a disabled crawl free of even
/// the atomic adds.
struct SessionMetrics {
    /// `hdc_session_queries_charged_total`.
    charged: Arc<hdc_obs::Counter>,
    /// `hdc_session_transient_retries_total`.
    retries: Arc<hdc_obs::Counter>,
    /// `hdc_session_batch_seconds`: wall time per database round trip.
    batch_wall: Arc<hdc_obs::Histogram>,
    /// `hdc_session_batch_size`: queries per database round trip.
    batch_size: Arc<hdc_obs::Histogram>,
}

fn session_metrics() -> &'static SessionMetrics {
    static METRICS: OnceLock<SessionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = hdc_obs::registry();
        SessionMetrics {
            charged: r.counter(
                "hdc_session_queries_charged_total",
                "Queries charged to crawl sessions by the hidden database",
            ),
            retries: r.counter(
                "hdc_session_transient_retries_total",
                "Transient database faults absorbed by session retry policies",
            ),
            batch_wall: r.histogram(
                "hdc_session_batch_seconds",
                "Wall time of database round trips issued by crawl sessions",
                hdc_obs::latency_bounds(),
                hdc_obs::Unit::Nanos,
            ),
            batch_size: r.histogram(
                "hdc_session_batch_size",
                "Queries per database round trip",
                hdc_obs::depth_bounds(),
                hdc_obs::Unit::Count,
            ),
        }
    })
}

/// The batch window algorithms should use when they have many siblings
/// to issue: batches this size still give the server's batch path
/// plenty to share, while bounding what one failed [`Session::run_batch`]
/// call can lose.
///
/// `run_batch` is all-or-nothing: a database failure mid-call discards
/// the call's already-answered outcomes (only their *cost* is kept). An
/// algorithm that batched a whole level's siblings in one call could
/// therefore die with nothing to show for a day's quota — the
/// progressiveness the paper's Figure 13 cares about. Issuers instead
/// iterate sibling lists in windows of this size, reporting extracted
/// tuples between windows, so a failure forfeits at most one window's
/// outcomes. Split probes (2–3 queries) are naturally below the window.
pub const MAX_BATCH: usize = 16;

/// A single crawl in flight.
///
/// All algorithms drive the database exclusively through a session, which
/// centralizes the bookkeeping the paper's evaluation needs: the query
/// count (cost metric), resolved/overflow tallies, the extracted bag, and
/// the `(queries, tuples output)` progress curve of Figure 13.
///
/// A session can carry a [`ValidityOracle`] implementing the §1.3
/// attribute-dependency heuristic: queries the oracle proves empty are
/// answered locally (empty resolved outcome, tallied as `pruned`) without
/// contacting — or being charged by — the server. Soundness of the oracle
/// implies the crawl remains complete, and "the query cost can only go
/// down".
///
/// A session can also carry a [`CrawlObserver`]: charged queries, newly
/// reported tuples, and progress-point changes are streamed to it as they
/// happen, and any callback returning [`Flow::Stop`] marks the session
/// stopped — the in-flight operation finishes its accounting, and the
/// next attempt to issue a query aborts with [`Abort::Stopped`]. Stop
/// means *stop spending*: charged outcomes are never discarded. The
/// progress curve itself is built by a default observer
/// ([`ProgressRecorder`]), so a curve reconstructed from the event stream
/// equals [`CrawlReport::progress`].
pub struct Session<'a> {
    db: &'a mut dyn HiddenDatabase,
    oracle: Option<&'a dyn ValidityOracle>,
    observer: Option<&'a mut dyn CrawlObserver>,
    algorithm: &'static str,
    queries: u64,
    resolved: u64,
    overflowed: u64,
    pruned: u64,
    metrics: CrawlMetrics,
    output: Vec<Tuple>,
    /// The default observer: accumulates [`CrawlReport::progress`].
    recorder: ProgressRecorder,
    stopped: bool,
    retry: RetryPolicy,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Session<'a> {
    fn new(
        algorithm: &'static str,
        db: &'a mut dyn HiddenDatabase,
        oracle: Option<&'a dyn ValidityOracle>,
        observer: Option<&'a mut dyn CrawlObserver>,
        retry: RetryPolicy,
        cancel: Option<&'a CancelToken>,
    ) -> Self {
        Session {
            db,
            oracle,
            observer,
            algorithm,
            queries: 0,
            resolved: 0,
            overflowed: 0,
            pruned: 0,
            metrics: CrawlMetrics::default(),
            output: Vec::new(),
            recorder: ProgressRecorder::new(),
            stopped: false,
            retry,
            cancel,
        }
    }

    /// True once the external cancellation token (if any) has tripped.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// The one retry step after a failed attempt: `error` aborts the
    /// session unless it is transient and `attempt` is below the policy's
    /// bound; a tripped stop or cancellation aborts before waiting.
    /// Otherwise the retry is counted (in [`CrawlMetrics`] and the
    /// process-wide telemetry), the backoff for `attempt` is slept out,
    /// and `attempt` advances.
    fn absorb(&mut self, error: DbError, attempt: &mut u32) -> Result<(), Abort> {
        if !error.is_transient() || *attempt >= self.retry.max_attempts() {
            return Err(Abort::Db(error));
        }
        if self.stopped || self.cancelled() {
            return Err(Abort::Stopped);
        }
        self.metrics.transient_retries += 1;
        if hdc_obs::enabled() {
            session_metrics().retries.inc();
        }
        self.retry.pause(*attempt, self.queries);
        *attempt += 1;
        Ok(())
    }

    /// Mutable access to the algorithm-internal counters.
    pub fn metrics(&mut self) -> &mut CrawlMetrics {
        &mut self.metrics
    }

    /// A point-in-time copy of the session's full accounting and output —
    /// what `Session::finish` would return if the crawl ended right
    /// now. This is the substrate of within-shard partial snapshots: a
    /// resumable crawler calls it at each resume boundary so a
    /// checkpoint can bank the completed prefix without ending the
    /// session. Clones the output bag; call at coarse boundaries, not
    /// per query.
    pub fn interim_report(&self) -> CrawlReport {
        CrawlReport {
            algorithm: self.algorithm,
            tuples: self.output.clone(),
            queries: self.queries,
            resolved: self.resolved,
            overflowed: self.overflowed,
            pruned: self.pruned,
            metrics: self.metrics,
            progress: self.recorder.points().to_vec(),
        }
    }

    /// Delivers one event to the external observer (if any), latching a
    /// [`Flow::Stop`] into the session's stopped flag. A free function
    /// over the two fields so callers can hold disjoint borrows of the
    /// rest of the session (e.g. a slice of `output`).
    fn notify(
        observer: &mut Option<&'a mut dyn CrawlObserver>,
        stopped: &mut bool,
        event: impl FnOnce(&mut dyn CrawlObserver) -> Flow,
    ) {
        if let Some(obs) = observer.as_deref_mut() {
            if event(obs) == Flow::Stop {
                *stopped = true;
            }
        }
    }

    /// Issues a query (or answers it from the oracle) and updates the
    /// accounting. Transient database failures are retried per the
    /// session's [`RetryPolicy`] (each absorbed failure counted in
    /// [`CrawlMetrics::transient_retries`]); only a failure that outlives
    /// the policy — or any non-transient failure — aborts.
    pub fn run(&mut self, q: &Query) -> Result<QueryOutcome, Abort> {
        if self.stopped || self.cancelled() {
            return Err(Abort::Stopped);
        }
        if let Some(oracle) = self.oracle {
            if !oracle.may_match(q) {
                // Provably empty: answered locally, free of charge.
                self.pruned += 1;
                return Ok(QueryOutcome::resolved(Vec::new()));
            }
        }
        let mut attempt = 1u32;
        let out = loop {
            let timer = hdc_obs::enabled().then(Instant::now);
            match self.db.query(q) {
                Ok(out) => {
                    if let Some(start) = timer {
                        let m = session_metrics();
                        m.batch_wall.observe_duration(start.elapsed());
                        m.batch_size.observe(1);
                        m.charged.inc();
                    }
                    break out;
                }
                Err(e) => self.absorb(e, &mut attempt)?,
            }
        };
        self.queries += 1;
        if out.overflow {
            self.overflowed += 1;
        } else {
            self.resolved += 1;
        }
        Self::notify(&mut self.observer, &mut self.stopped, |o| {
            o.on_query(q, &out)
        });
        self.push_progress();
        Ok(out)
    }

    /// Issues a batch of sibling queries in one round trip, returning one
    /// outcome per query in input order.
    ///
    /// Semantically this is `queries.iter().map(|q| self.run(q))` — same
    /// outcomes, same per-query accounting — but the whole batch reaches
    /// the database through [`HiddenDatabase::query_batch`], so a server
    /// with a native batch path (the `hdc-server` engine) can share work
    /// between sibling queries. Oracle-pruned
    /// queries are answered locally (and tallied as `pruned`) without
    /// being forwarded, exactly as in [`Session::run`].
    ///
    /// A *transient* database error mid-batch is absorbed by the
    /// session's [`RetryPolicy`]: the successful prefix is accounted
    /// (and streamed) as it arrives, and only the unanswered suffix is
    /// re-issued — nothing is ever paid for twice. If the failure is
    /// permanent, or outlives the policy, the call aborts: the prefix's
    /// outcomes are not returned (the batch aborts the crawl anyway),
    /// but their cost — and every charged query the database reports —
    /// stays in the session's count, so partial reports still reflect
    /// every charged query. Callers with many siblings should issue them
    /// in [`MAX_BATCH`]-sized windows, reporting between windows, so a
    /// failure forfeits at most one window's outcomes.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, Abort> {
        let (outs, end) = self.run_batch_prefix(queries);
        end.map(|()| outs)
    }

    /// [`Session::run_batch`], returning the outcomes answered before an
    /// abort alongside it: on success every outcome, otherwise the
    /// answered prefix of `queries`, in order. The slice memo publishes
    /// that prefix, so a failing fetch never leaves a paid-for slice to
    /// be paid for again.
    pub(crate) fn run_batch_prefix(
        &mut self,
        queries: &[Query],
    ) -> (Vec<QueryOutcome>, Result<(), Abort>) {
        if self.stopped || self.cancelled() {
            return (Vec::new(), Err(Abort::Stopped));
        }
        match queries {
            [] => return (Vec::new(), Ok(())),
            [q] => {
                return match self.run(q) {
                    Ok(out) => (vec![out], Ok(())),
                    Err(e) => (Vec::new(), Err(e)),
                }
            }
            _ => {}
        }
        let Some(oracle) = self.oracle else {
            return self.issue_batch(queries);
        };
        if queries.iter().all(|q| oracle.may_match(q)) {
            // Nothing pruned (the common case): forward the batch as-is
            // instead of cloning every query into a filtered list.
            return self.issue_batch(queries);
        }
        let mut outcomes: Vec<Option<QueryOutcome>> = (0..queries.len()).map(|_| None).collect();
        let mut forward: Vec<Query> = Vec::with_capacity(queries.len());
        let mut forward_pos: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            if oracle.may_match(q) {
                forward_pos.push(i);
                forward.push(q.clone());
            } else {
                // Provably empty: answered locally, free of charge.
                self.pruned += 1;
                outcomes[i] = Some(QueryOutcome::resolved(Vec::new()));
            }
        }
        let (answered, end) = self.issue_batch(&forward);
        for (out, i) in answered.into_iter().zip(forward_pos) {
            outcomes[i] = Some(out);
        }
        // On success every query is answered; after an abort, the
        // answered prefix ends at the first forwarded query left open.
        (outcomes.into_iter().map_while(|o| o).collect(), end)
    }

    /// Batch round trips with per-query accounting and suffix retry.
    ///
    /// The batch goes to the database through
    /// [`HiddenDatabase::try_query_batch`], so a mid-batch failure keeps
    /// the successful prefix: every answered outcome is accounted (and
    /// streamed) immediately — the queries are already charged, and an
    /// observer's stop only gates *future* issuing. On a transient
    /// failure the session re-issues **only the unanswered suffix**, per
    /// the [`RetryPolicy`]; the prefix is never re-paid, and any progress
    /// between failures starts a fresh retry budget (a flapping endpoint
    /// that keeps answering *something* is not a dying one). Permanent
    /// failures — or transients that outlive the policy — abort with the
    /// accounting exact, returning the answered prefix beside the abort.
    fn issue_batch(&mut self, queries: &[Query]) -> (Vec<QueryOutcome>, Result<(), Abort>) {
        if queries.is_empty() {
            return (Vec::new(), Ok(()));
        }
        let mut outs: Vec<QueryOutcome> = Vec::with_capacity(queries.len());
        let mut attempt = 1u32;
        loop {
            let before = self.db.queries_issued();
            let suffix = &queries[outs.len()..];
            let timer = hdc_obs::enabled().then(Instant::now);
            let (answered, error) = self.db.try_query_batch(suffix);
            if let Some(start) = timer {
                let m = session_metrics();
                m.batch_wall.observe_duration(start.elapsed());
                m.batch_size.observe(suffix.len() as u64);
            }
            let progressed = !answered.is_empty();
            for (q, out) in suffix.iter().zip(&answered) {
                self.queries += 1;
                if out.overflow {
                    self.overflowed += 1;
                } else {
                    self.resolved += 1;
                }
                Self::notify(&mut self.observer, &mut self.stopped, |o| {
                    o.on_query(q, out)
                });
                self.push_progress();
            }
            // Reconcile against what the database says it charged:
            // all-or-nothing batch paths (like the server's up-front
            // validation) may charge differently from what they answered;
            // the partial report's cost must stay truthful either way.
            let charged = self.db.queries_issued().saturating_sub(before);
            if charged > answered.len() as u64 {
                self.queries += charged - answered.len() as u64;
                self.push_progress();
            }
            if hdc_obs::enabled() {
                session_metrics()
                    .charged
                    .add(charged.max(answered.len() as u64));
            }
            outs.extend(answered);
            let Some(e) = error else {
                return (outs, Ok(()));
            };
            if progressed {
                // The fault chain broke: new suffix, fresh budget.
                attempt = 1;
            }
            if let Err(abort) = self.absorb(e, &mut attempt) {
                return (outs, Err(abort));
            }
        }
    }

    /// Registers extracted tuples (from a resolved query or a local
    /// answer). Fires [`CrawlObserver::on_tuples`] with the newly added
    /// tuples when at least one was added.
    pub fn report(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        let start = self.output.len();
        self.output.extend(tuples);
        if self.output.len() > start {
            let added = &self.output[start..];
            Self::notify(&mut self.observer, &mut self.stopped, |o| {
                o.on_tuples(added)
            });
        }
        self.push_progress();
    }

    fn push_progress(&mut self) {
        let point = ProgressPoint {
            queries: self.queries,
            tuples: self.output.len() as u64,
        };
        if self.recorder.last() == Some(&point) {
            return;
        }
        // The default observer builds the report's curve (collapsing
        // same-query-count updates in place); the external observer sees
        // every changed point.
        let _ = self.recorder.on_progress(point);
        Self::notify(&mut self.observer, &mut self.stopped, |o| {
            o.on_progress(point)
        });
    }

    /// Finishes the session successfully.
    pub(crate) fn finish(self) -> CrawlReport {
        self.into_report()
    }

    /// Converts an [`Abort`] into the public error carrying the partial
    /// report.
    pub(crate) fn fail(self, abort: Abort) -> CrawlError {
        let partial = Box::new(self.into_report());
        match abort {
            Abort::Db(error) => CrawlError::Db { error, partial },
            Abort::Unsolvable(witness) => CrawlError::Unsolvable { witness, partial },
            Abort::Stopped => CrawlError::Stopped { partial },
        }
    }

    fn into_report(self) -> CrawlReport {
        CrawlReport {
            algorithm: self.algorithm,
            tuples: self.output,
            queries: self.queries,
            resolved: self.resolved,
            overflowed: self.overflowed,
            pruned: self.pruned,
            metrics: self.metrics,
            progress: self.recorder.into_points(),
        }
    }
}

/// Runs `body` inside a fresh session, converting aborts into errors:
/// the one top-level driver every crawler in the workspace uses. The
/// session streams its events to `config.observer`.
pub fn run_crawl<F>(
    algorithm: &'static str,
    db: &mut dyn HiddenDatabase,
    oracle: Option<&dyn ValidityOracle>,
    config: SessionConfig<'_>,
    body: F,
) -> Result<CrawlReport, CrawlError>
where
    F: FnOnce(&mut Session<'_>) -> Result<(), Abort>,
{
    let SessionConfig {
        retry,
        cancel,
        observer,
    } = config;
    // Reborrow to shorten the observer's object lifetime to the session's.
    let observer = observer.map(|o| o as &mut dyn CrawlObserver);
    let mut session = Session::new(algorithm, db, oracle, observer, retry, cancel);
    match body(&mut session) {
        Ok(()) => Ok(session.finish()),
        Err(abort) => Err(session.fail(abort)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::int_tuple;
    use hdc_types::{Predicate, QueryOutcome, Schema};

    struct FakeDb {
        schema: Schema,
        fail_after: Option<u64>,
        issued: u64,
    }

    impl HiddenDatabase for FakeDb {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn k(&self) -> usize {
            2
        }

        fn query(&mut self, _q: &Query) -> Result<QueryOutcome, DbError> {
            if let Some(limit) = self.fail_after {
                if self.issued >= limit {
                    return Err(DbError::BudgetExhausted {
                        issued: self.issued,
                        limit,
                    });
                }
            }
            self.issued += 1;
            Ok(QueryOutcome::resolved(vec![int_tuple(&[1])]))
        }

        fn queries_issued(&self) -> u64 {
            self.issued
        }
    }

    fn fake(fail_after: Option<u64>) -> FakeDb {
        FakeDb {
            schema: Schema::builder().numeric("a", 0, 9).build().unwrap(),
            fail_after,
            issued: 0,
        }
    }

    #[test]
    fn accounting_and_progress() {
        let mut db = fake(None);
        let report = run_crawl("t", &mut db, None, SessionConfig::default(), |s| {
            for _ in 0..3 {
                let out = s.run(&Query::any(1))?;
                s.report(out.tuples);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 3);
        assert_eq!(report.resolved, 3);
        assert_eq!(report.tuples.len(), 3);
        // One merged point per query count.
        assert_eq!(report.progress.len(), 3);
        assert_eq!(
            report.progress[2],
            ProgressPoint {
                queries: 3,
                tuples: 3
            }
        );
    }

    #[test]
    fn db_failure_preserves_partial() {
        let mut db = fake(Some(2));
        let err = run_crawl("t", &mut db, None, SessionConfig::default(), |s| loop {
            let out = s.run(&Query::any(1))?;
            s.report(out.tuples);
        })
        .unwrap_err();
        match &err {
            CrawlError::Db { error, partial } => {
                assert!(matches!(error, DbError::BudgetExhausted { .. }));
                assert_eq!(partial.queries, 2);
                assert_eq!(partial.tuples.len(), 2);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unsolvable_abort_maps_to_error() {
        let mut db = fake(None);
        let witness = Query::new(vec![Predicate::Range { lo: 1, hi: 1 }]);
        let w = witness.clone();
        let err = run_crawl("t", &mut db, None, SessionConfig::default(), move |_| {
            Err(Abort::Unsolvable(w))
        })
        .unwrap_err();
        match err {
            CrawlError::Unsolvable {
                witness: got,
                partial,
            } => {
                assert_eq!(got, witness);
                assert_eq!(partial.queries, 0);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn run_batch_accounts_per_query() {
        let mut db = fake(None);
        let report = run_crawl("t", &mut db, None, SessionConfig::default(), |s| {
            let qs = vec![Query::any(1); 3];
            let outs = s.run_batch(&qs)?;
            assert_eq!(outs.len(), 3);
            for out in outs {
                s.report(out.tuples);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 3);
        assert_eq!(report.resolved, 3);
        assert_eq!(report.tuples.len(), 3);
    }

    #[test]
    fn run_batch_counts_charged_prefix_on_failure() {
        // Budget of 2: the third query of the batch fails, but the two
        // charged queries must appear in the partial report's cost.
        let mut db = fake(Some(2));
        let err = run_crawl("t", &mut db, None, SessionConfig::default(), |s| {
            s.run_batch(&vec![Query::any(1); 5])?;
            Ok(())
        })
        .unwrap_err();
        match &err {
            CrawlError::Db { error, partial } => {
                assert!(matches!(error, DbError::BudgetExhausted { .. }));
                assert_eq!(partial.queries, 2, "exactly the charged prefix");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    /// Fails with a transient error on the listed `query()` attempt
    /// numbers (1-based, counting failed attempts too); succeeds on every
    /// other attempt. Only successes are charged, like [`FaultyDb`].
    struct ScriptedDb {
        schema: Schema,
        fail_on: Vec<u64>,
        attempts: u64,
        issued: u64,
    }

    impl ScriptedDb {
        fn new(fail_on: Vec<u64>) -> Self {
            ScriptedDb {
                schema: Schema::builder().numeric("a", 0, 9).build().unwrap(),
                fail_on,
                attempts: 0,
                issued: 0,
            }
        }
    }

    impl HiddenDatabase for ScriptedDb {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn k(&self) -> usize {
            2
        }

        fn query(&mut self, _q: &Query) -> Result<QueryOutcome, DbError> {
            self.attempts += 1;
            if self.fail_on.contains(&self.attempts) {
                return Err(DbError::Transient("scripted fault".into()));
            }
            self.issued += 1;
            Ok(QueryOutcome::resolved(vec![int_tuple(&[1])]))
        }

        fn queries_issued(&self) -> u64 {
            self.issued
        }
    }

    fn retrying(max_attempts: u32) -> SessionConfig<'static> {
        SessionConfig {
            retry: RetryPolicy::new(max_attempts).no_sleep(),
            ..SessionConfig::default()
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        use hdc_types::{FaultConfig, FaultyDb};
        let mut db = FaultyDb::new(
            fake(None),
            FaultConfig {
                seed: 7,
                transient_rate: 0.3,
                ..FaultConfig::default()
            },
        );
        let report = run_crawl("t", &mut db, None, retrying(50), |s| {
            for _ in 0..40 {
                let out = s.run(&Query::any(1))?;
                s.report(out.tuples);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 40, "only successes are charged");
        assert_eq!(report.tuples.len(), 40);
        assert!(db.faults_injected() > 0, "seed 7 @ 0.3 must inject");
        assert_eq!(
            report.metrics.transient_retries,
            db.faults_injected(),
            "every injected fault is exactly one retry"
        );
    }

    #[test]
    fn retry_exhaustion_surfaces_the_transient_error() {
        use hdc_types::{FaultConfig, FaultyDb};
        let mut db = FaultyDb::new(
            fake(None),
            FaultConfig {
                seed: 1,
                transient_rate: 1.0,
                ..FaultConfig::default()
            },
        );
        let err = run_crawl("t", &mut db, None, retrying(3), |s| {
            s.run(&Query::any(1))?;
            Ok(())
        })
        .unwrap_err();
        match &err {
            CrawlError::Db { error, partial } => {
                assert!(error.is_transient(), "the last attempt's error");
                assert_eq!(partial.queries, 0);
                assert_eq!(partial.metrics.transient_retries, 2, "attempts 1..3");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn batch_suffix_retry_never_repays_the_prefix() {
        // Attempts 3 and 4 fail: the first round answers 2 queries, the
        // second answers none, the third finishes the suffix. The two
        // charged prefix queries are paid exactly once.
        let mut db = ScriptedDb::new(vec![3, 4]);
        let report = run_crawl("t", &mut db, None, retrying(3), |s| {
            let outs = s.run_batch(&vec![Query::any(1); 5])?;
            assert_eq!(outs.len(), 5);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 5, "five successes, zero re-payments");
        assert_eq!(db.issued, 5);
        assert_eq!(report.metrics.transient_retries, 2);
    }

    #[test]
    fn batch_progress_resets_the_attempt_budget() {
        // Every other attempt fails. With max_attempts = 2 a naive
        // counter would exhaust after the second fault; because each
        // round answers at least one query first, the fault chain keeps
        // resetting and the batch completes.
        let mut db = ScriptedDb::new(vec![2, 4, 6, 8]);
        let report = run_crawl("t", &mut db, None, retrying(2), |s| {
            let outs = s.run_batch(&vec![Query::any(1); 5])?;
            assert_eq!(outs.len(), 5);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 5);
        assert_eq!(report.metrics.transient_retries, 4);
    }

    #[test]
    fn single_query_and_batch_suffix_sleep_one_schedule() {
        use crate::retry::{BASE_BACKOFF, MAX_BACKOFF};
        use std::sync::Mutex;
        use std::time::Duration;
        // Attempts 2, 3 and 4 fail: the first query is answered, then the
        // next one (a lone query, or the suffix of a two-query batch)
        // fails transiently three times before it is answered.
        let sleeps = |batch: bool| {
            let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&slept);
            let config = SessionConfig {
                retry: RetryPolicy::new(4).sleeper(move |d| log.lock().unwrap().push(d)),
                ..SessionConfig::default()
            };
            let mut db = ScriptedDb::new(vec![2, 3, 4]);
            let report = run_crawl("t", &mut db, None, config, |s| {
                if batch {
                    s.run_batch(&[Query::any(1), Query::any(1)])?;
                } else {
                    s.run(&Query::any(1))?;
                    s.run(&Query::any(1))?;
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(report.queries, 2, "failed attempts are never charged");
            assert_eq!(report.metrics.transient_retries, 3);
            let got = slept.lock().unwrap().clone();
            got
        };
        let single = sleeps(false);
        assert_eq!(single, sleeps(true), "one retry step, one schedule");
        // The constant schedule: 100 ms · 2^(r−1), capped at 5 s, jittered
        // into [raw/2, raw), salted by the one query charged so far.
        let policy = RetryPolicy::new(4);
        assert_eq!(single.len(), 3);
        for (r, &d) in (1u32..).zip(&single) {
            let raw = (BASE_BACKOFF * (1 << (r - 1))).min(MAX_BACKOFF);
            assert_eq!(raw, Duration::from_millis(100 << (r - 1)));
            assert!(d >= raw / 2 && d < raw, "retry {r}: {d:?} vs raw {raw:?}");
            assert_eq!(d, policy.backoff_for(r, 1));
        }
    }

    #[test]
    fn budget_exhaustion_is_never_retried() {
        let mut db = fake(Some(2));
        let err = run_crawl("t", &mut db, None, retrying(10), |s| loop {
            s.run(&Query::any(1))?;
        })
        .unwrap_err();
        match &err {
            CrawlError::Db { error, partial } => {
                assert!(matches!(error, DbError::BudgetExhausted { .. }));
                assert_eq!(partial.metrics.transient_retries, 0, "permanent: no retry");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn cancelled_token_stops_before_spending() {
        let token = CancelToken::new();
        token.cancel();
        let config = SessionConfig {
            cancel: Some(&token),
            ..SessionConfig::default()
        };
        let mut db = fake(None);
        let err = run_crawl("t", &mut db, None, config, |s| {
            s.run(&Query::any(1))?;
            Ok(())
        })
        .unwrap_err();
        match &err {
            CrawlError::Stopped { partial } => assert_eq!(partial.queries, 0),
            other => panic!("unexpected error {other}"),
        }
        assert_eq!(db.issued, 0, "a cancelled session never touches the db");
    }

    struct EvenOracle;
    impl ValidityOracle for EvenOracle {
        fn may_match(&self, q: &Query) -> bool {
            // Prune ranges that start at an odd value.
            match q.preds()[0] {
                Predicate::Range { lo, .. } => lo % 2 == 0,
                _ => true,
            }
        }
    }

    #[test]
    fn run_batch_prunes_through_the_oracle() {
        let mut db = fake(None);
        let oracle = EvenOracle;
        let report = run_crawl("t", &mut db, Some(&oracle), SessionConfig::default(), |s| {
            let qs: Vec<Query> = (0..4)
                .map(|lo| Query::new(vec![Predicate::Range { lo, hi: 9 }]))
                .collect();
            let outs = s.run_batch(&qs)?;
            assert_eq!(outs.len(), 4);
            // Pruned queries answered locally as empty-resolved, in place.
            assert!(outs[1].is_empty() && outs[1].is_resolved());
            assert!(outs[3].is_empty() && outs[3].is_resolved());
            assert!(!outs[0].is_empty());
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 2, "only unpruned queries reach the db");
        assert_eq!(report.pruned, 2);
        assert_eq!(db.issued, 2);
    }

    struct NeverOracle;
    impl ValidityOracle for NeverOracle {
        fn may_match(&self, _q: &Query) -> bool {
            false
        }
    }

    #[test]
    fn oracle_answers_locally_without_charging() {
        let mut db = fake(None);
        let oracle = NeverOracle;
        let report = run_crawl("t", &mut db, Some(&oracle), SessionConfig::default(), |s| {
            let out = s.run(&Query::any(1))?;
            assert!(out.is_resolved());
            assert!(out.is_empty());
            Ok(())
        })
        .unwrap();
        assert_eq!(report.queries, 0);
        assert_eq!(db.issued, 0);
    }
}
