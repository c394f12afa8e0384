//! The hidden-database server.
//!
//! The data plane is split in two:
//!
//! * `ServerCore` — schema, priority-ordered rows, and the columnar
//!   engine. Immutable after construction; every evaluation entry point
//!   takes `&self`, so one core can sit behind an `Arc` and answer any
//!   number of sessions concurrently.
//! * `ClientSession` — the per-client mutable half: [`ServerStats`]
//!   (plan decisions, batch counters, charge accounting) and the
//!   engine's reusable scratch buffers.
//!
//! [`HiddenDbServer`] pairs one core with one session, preserving the
//! original single-owner `&mut` API; [`crate::SharedServer`] hands out
//! any number of sessions over the same core.
//!
//! The engine answers a query with matched row ids. In-process clients
//! turn them into `Arc`-shared [`Tuple`]s; a wire connection
//! ([`crate::ConnectionClient`]) turns them into the rows' pre-encoded
//! wire fragments instead. The core keeps those fragments in a row
//! table ([`crate::row_table`]) that it builds behind a `OnceLock` on
//! the first wire query, never at construction: a store that is only queried in
//! process (or whose wire server only answered `GET /schema`) never
//! holds it.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Schema, SchemaError, Tuple};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::engine::{materialize, Engine, Scratch, Strategy};
use crate::eval::LegacyEvaluator;
use crate::row_table::RowTable;
use crate::stats::ServerStats;

/// Handles to the engine metrics, resolved once. The evaluate
/// histogram is labelled by the planner's chosen strategy (inferred
/// from the [`ServerStats`] plan counters around the call, so the
/// engine itself stays untouched); batches of any other size than one
/// are labelled `plan="batch"` since one batch may mix strategies.
struct EngineMetrics {
    /// `hdc_engine_queries_total`.
    queries: Arc<hdc_obs::Counter>,
    /// `hdc_engine_evaluate_seconds{plan="scan|probe|intersect"}`.
    scan: Arc<hdc_obs::Histogram>,
    probe: Arc<hdc_obs::Histogram>,
    intersect: Arc<hdc_obs::Histogram>,
    /// `hdc_engine_evaluate_seconds{plan="batch"}`: whole-batch passes.
    batch: Arc<hdc_obs::Histogram>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = hdc_obs::registry();
        let evaluate = |plan: &str| {
            r.histogram_with(
                "hdc_engine_evaluate_seconds",
                Some(("plan", plan)),
                "Engine evaluation wall time by planned strategy",
                hdc_obs::latency_bounds(),
                hdc_obs::Unit::Nanos,
            )
        };
        EngineMetrics {
            queries: r.counter(
                "hdc_engine_queries_total",
                "Queries evaluated by the columnar engine",
            ),
            scan: evaluate("scan"),
            probe: evaluate("probe"),
            intersect: evaluate("intersect"),
            batch: evaluate("batch"),
        }
    })
}

impl EngineMetrics {
    /// The evaluate histogram for whatever plan counter moved between
    /// `before` and the session's current [`ServerStats`]. An empty
    /// result evaluates no list, is accounted as a probe by
    /// [`ServerStats::record_plan`], and lands there too.
    fn by_plan_delta(&self, stats: &ServerStats, before: (u64, u64, u64)) -> &hdc_obs::Histogram {
        let (scan, probe, _intersect) = before;
        if stats.scan_evals > scan {
            &self.scan
        } else if stats.probe_evals > probe {
            &self.probe
        } else {
            &self.intersect
        }
    }
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Result-size limit `k ≥ 1`.
    pub k: usize,
    /// Seed for the random tuple-priority assignment.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            k: 1000,
            seed: 0x5eed,
        }
    }
}

/// An in-process hidden database exposing only the top-`k` interface.
///
/// Construction validates every tuple against the schema, assigns each
/// tuple a random (seeded) priority — matching the paper's experimental
/// setup — and builds the columnar engine (structure-of-arrays column
/// store plus per-column indexes; see `engine.rs`). After
/// construction the server is logically immutable: queries never change
/// the data, and identical queries always receive identical responses.
///
/// ```
/// use hdc_server::{HiddenDbServer, ServerConfig};
/// use hdc_types::{HiddenDatabase, Query, Schema};
/// use hdc_types::tuple::int_tuple;
///
/// let schema = Schema::builder().numeric("a", 0, 9).build().unwrap();
/// let rows = (0..10).map(|x| int_tuple(&[x])).collect();
/// let mut server =
///     HiddenDbServer::new(schema, rows, ServerConfig { k: 4, seed: 1 }).unwrap();
/// let out = server.query(&Query::any(1)).unwrap();
/// assert!(out.overflow);          // 10 tuples > k = 4
/// assert_eq!(out.tuples.len(), 4);
/// let again = server.query(&Query::any(1)).unwrap();
/// assert_eq!(out, again);          // repeating a query reveals nothing new
/// ```
#[derive(Debug)]
pub struct HiddenDbServer {
    core: Arc<ServerCore>,
    session: ClientSession,
}

/// The immutable half of the server: schema, priority-ordered rows, and
/// the columnar engine. Every method takes `&self`; per-call mutable
/// state lives in the caller's [`ClientSession`].
#[derive(Debug)]
pub(crate) struct ServerCore {
    schema: Schema,
    /// Rows in descending priority order (row 0 = highest priority).
    /// `Tuple` is `Arc`-backed, so responses share this table instead of
    /// copying out of it.
    rows: Vec<Tuple>,
    /// `source[i]` = index of `rows[i]` in the constructor's input, so
    /// tests can refer to "t4 from Figure 3" regardless of priorities.
    source: Vec<u32>,
    k: usize,
    engine: Engine,
    /// Every row's wire fragment, built on the first wire query.
    row_table: OnceLock<RowTable>,
}

/// The mutable half of one client's connection to a [`ServerCore`]:
/// that client's [`ServerStats`] and the engine scratch buffers its
/// queries evaluate in. Sessions never touch each other — isolation
/// between clients of a shared core is structural, not locked.
#[derive(Debug, Default)]
pub(crate) struct ClientSession {
    stats: ServerStats,
    scratch: Scratch,
}

impl ClientSession {
    pub(crate) fn stats(&self) -> ServerStats {
        self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = ServerStats::default();
    }
}

impl ServerCore {
    /// Validates, orders, and indexes `tuples`; the shared construction
    /// path behind every server front end.
    pub(crate) fn with_order(
        schema: Schema,
        tuples: Vec<Tuple>,
        k: usize,
        order: Vec<u32>,
    ) -> Result<Self, SchemaError> {
        assert!(k >= 1, "k must be at least 1");
        for t in &tuples {
            schema.validate_tuple(t)?;
        }
        let rows: Vec<Tuple> = order.iter().map(|&i| tuples[i as usize].clone()).collect();
        let engine = Engine::new(&schema, &rows);
        Ok(ServerCore {
            schema,
            rows,
            source: order,
            k,
            engine,
            row_table: OnceLock::new(),
        })
    }

    /// The seeded-shuffle priority order used by [`HiddenDbServer::new`].
    pub(crate) fn shuffled_order(n: usize, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        order
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    pub(crate) fn k(&self) -> usize {
        self.k
    }

    pub(crate) fn n(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    pub(crate) fn source_ids(&self) -> &[u32] {
        &self.source
    }

    pub(crate) fn distinct_in_column(&self, a: usize) -> usize {
        self.engine.index().distinct(a)
    }

    /// Every row's wire fragment, built on first use.
    pub(crate) fn row_table(&self) -> &RowTable {
        self.row_table.get_or_init(|| RowTable::build(&self.rows))
    }

    pub(crate) fn row_table_built(&self) -> bool {
        self.row_table.get().is_some()
    }

    /// Answers one query, charging it to `session`. The evaluation path
    /// is identical for every front end — solo server or shared client —
    /// so outcomes are bit-identical across them by construction.
    pub(crate) fn query(
        &self,
        q: &Query,
        session: &mut ClientSession,
    ) -> Result<QueryOutcome, DbError> {
        let (ids, overflow) = self
            .query_rows(std::slice::from_ref(q), session)?
            .next()
            .expect("one answer per query");
        Ok(materialize(&self.rows, ids, overflow))
    }

    /// Answers a whole batch in one engine pass, charging each query to
    /// `session`. Validation is up-front: an invalid query rejects the
    /// batch before anything is evaluated or charged.
    pub(crate) fn query_batch(
        &self,
        queries: &[Query],
        session: &mut ClientSession,
    ) -> Result<Vec<QueryOutcome>, DbError> {
        Ok(self
            .query_rows(queries, session)?
            .map(|(ids, overflow)| materialize(&self.rows, ids, overflow))
            .collect())
    }

    /// [`Self::query_batch`], answered as matched row ids (ascending, at
    /// most `k`) plus the overflow flag per query, in order, borrowed
    /// from `session`'s scratch.
    pub(crate) fn query_rows<'s>(
        &self,
        queries: &[Query],
        session: &'s mut ClientSession,
    ) -> Result<impl ExactSizeIterator<Item = (&'s [u32], bool)> + 's, DbError> {
        for q in queries {
            q.validate(&self.schema)?;
        }
        let ClientSession { stats, scratch } = session;
        let timer = hdc_obs::enabled().then(Instant::now);
        let before = (stats.scan_evals, stats.probe_evals, stats.intersect_evals);
        let answers = self.engine.evaluate(self.k, queries, stats, scratch);
        if let Some(start) = timer {
            let m = engine_metrics();
            m.queries.add(queries.len() as u64);
            let histogram = match queries.len() {
                1 => m.by_plan_delta(stats, before),
                _ => &m.batch,
            };
            histogram.observe_duration(start.elapsed());
        }
        for (ids, overflow) in answers.clone() {
            stats.record_outcome(ids.len(), overflow);
        }
        Ok(answers)
    }

    pub(crate) fn query_with_strategy(
        &self,
        q: &Query,
        strategy: Strategy,
    ) -> Result<QueryOutcome, DbError> {
        q.validate(&self.schema)?;
        Ok(self.engine.evaluate_forced(&self.rows, self.k, q, strategy))
    }

    pub(crate) fn legacy_evaluator(&self) -> LegacyEvaluator {
        LegacyEvaluator::new(&self.schema, self.rows.clone(), self.k)
    }

    pub(crate) fn is_crawlable(&self) -> bool {
        use std::collections::HashMap;
        let mut mult: HashMap<&Tuple, usize> = HashMap::new();
        for t in &self.rows {
            let c = mult.entry(t).or_insert(0);
            *c += 1;
            if *c > self.k {
                return false;
            }
        }
        true
    }
}

impl HiddenDbServer {
    /// Creates a server over `tuples` with seeded random priorities.
    pub fn new(
        schema: Schema,
        tuples: Vec<Tuple>,
        config: ServerConfig,
    ) -> Result<Self, SchemaError> {
        let order = ServerCore::shuffled_order(tuples.len(), config.seed);
        Self::with_order(schema, tuples, config.k, order)
    }

    /// Creates a server with explicit priorities: `priorities[i]` is the
    /// priority of input tuple `i`, higher values returned first (ties
    /// broken by input position). Used by the paper-fidelity tests to
    /// replay the exact responses of the worked examples (Figures 3–6).
    pub fn with_priorities(
        schema: Schema,
        tuples: Vec<Tuple>,
        k: usize,
        priorities: &[u64],
    ) -> Result<Self, SchemaError> {
        assert_eq!(
            priorities.len(),
            tuples.len(),
            "one priority per tuple required"
        );
        let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(priorities[i as usize]), i));
        Self::with_order(schema, tuples, k, order)
    }

    fn with_order(
        schema: Schema,
        tuples: Vec<Tuple>,
        k: usize,
        order: Vec<u32>,
    ) -> Result<Self, SchemaError> {
        Ok(HiddenDbServer {
            core: Arc::new(ServerCore::with_order(schema, tuples, k, order)?),
            session: ClientSession::default(),
        })
    }

    /// A [`crate::SharedServer`] over this server's store.
    ///
    /// The store is shared by reference (`Arc`), not copied: this server
    /// and every client handle answer from the same rows, indexes, and
    /// priorities, so their responses are bit-identical. This server's
    /// own statistics and scratch space remain private to it.
    pub fn share(&self) -> crate::SharedServer {
        crate::SharedServer::from_core(Arc::clone(&self.core))
    }

    /// Number of tuples `n` in the database. (A crawler would not know
    /// this; it exists for experiment bookkeeping.)
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// Server-side statistics (this handle's own; see
    /// [`crate::SharedServer`] for per-client statistics).
    pub fn stats(&self) -> ServerStats {
        self.session.stats()
    }

    /// Resets the statistics (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.session.reset_stats();
    }

    /// The stored rows in priority order. Experiment bookkeeping only.
    pub fn rows(&self) -> &[Tuple] {
        self.core.rows()
    }

    /// For each stored row (priority order), the index of the tuple in the
    /// constructor's input. Lets tests map responses back to "t4".
    pub fn source_ids(&self) -> &[u32] {
        self.core.source_ids()
    }

    /// Number of distinct values present in column `a` (used to build the
    /// Figure 9 dataset table and the top-distinct projections).
    pub fn distinct_in_column(&self, a: usize) -> usize {
        self.core.distinct_in_column(a)
    }

    /// Evaluates a query with a **forced** engine strategy, without
    /// touching the statistics.
    ///
    /// Every strategy returns an outcome bit-identical to [`Self::query`]
    /// (a strategy that cannot apply degrades to the nearest applicable
    /// one). This is the differential-testing and benchmarking hook; the
    /// planner, not the caller, picks strategies in production.
    pub fn query_with_strategy(
        &self,
        q: &Query,
        strategy: Strategy,
    ) -> Result<QueryOutcome, DbError> {
        self.core.query_with_strategy(q, strategy)
    }

    /// The seed's row-at-a-time evaluator over this server's exact row
    /// priorities — the differential-testing oracle and perf baseline.
    ///
    /// Row handles are shared (`Tuple` is `Arc`-backed), but construction
    /// rebuilds the per-column indexes — O(n log n) per numeric column —
    /// so build it once and reuse it, not per query.
    #[doc(hidden)]
    pub fn legacy_evaluator(&self) -> LegacyEvaluator {
        self.core.legacy_evaluator()
    }

    /// True if Problem 1 is solvable on this database: no point of the data
    /// space carries more than `k` duplicate tuples (§1.1).
    pub fn is_crawlable(&self) -> bool {
        self.core.is_crawlable()
    }
}

impl HiddenDatabase for HiddenDbServer {
    fn schema(&self) -> &Schema {
        self.core.schema()
    }

    fn k(&self) -> usize {
        self.core.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        self.core.query(q, &mut self.session)
    }

    /// Evaluates the whole batch in one engine pass: each query is
    /// planned on its own, and probes sharing their driving predicate and
    /// a residual walk the driver's candidate list once as a grouped probe
    /// (see the `engine` module docs). Outcome `i` is bit-identical to
    /// issuing `queries[i]` through [`Self::query`], and each query is
    /// charged individually in [`ServerStats`].
    ///
    /// Stricter than the trait's default loop on errors: the batch is
    /// validated up front, so an invalid query rejects the whole batch
    /// before anything is evaluated or charged.
    fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        self.core.query_batch(queries, &mut self.session)
    }

    /// The server validates batches up front and rejects without executing
    /// or charging anything, so the "successful prefix" of a failing batch
    /// is always empty — this forwards to the one-pass
    /// [`Self::query_batch`] rather than falling back to the trait's
    /// per-query loop.
    fn try_query_batch(&mut self, queries: &[Query]) -> (Vec<QueryOutcome>, Option<DbError>) {
        match self.query_batch(queries) {
            Ok(outs) => (outs, None),
            Err(e) => (Vec::new(), Some(e)),
        }
    }

    fn queries_issued(&self) -> u64 {
        self.session.stats().queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::int_tuple;
    use hdc_types::{Predicate, Value};

    fn schema_1d() -> Schema {
        Schema::builder().numeric("a", 0, 100).build().unwrap()
    }

    #[test]
    fn resolved_queries_return_everything() {
        let rows: Vec<Tuple> = (0..5).map(|x| int_tuple(&[x])).collect();
        let mut s = HiddenDbServer::new(schema_1d(), rows.clone(), ServerConfig { k: 10, seed: 7 })
            .unwrap();
        let out = s.query(&Query::any(1)).unwrap();
        assert!(out.is_resolved());
        let mut got = out.tuples.clone();
        got.sort();
        assert_eq!(got, rows);
    }

    #[test]
    fn overflow_is_deterministic_and_stable() {
        let rows: Vec<Tuple> = (0..100).map(|x| int_tuple(&[x])).collect();
        let mut s =
            HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 10, seed: 3 }).unwrap();
        let q = Query::any(1);
        let first = s.query(&q).unwrap();
        assert!(first.overflow);
        assert_eq!(first.len(), 10);
        for _ in 0..5 {
            assert_eq!(s.query(&q).unwrap(), first);
        }
    }

    #[test]
    fn different_seeds_give_different_rankings() {
        let rows: Vec<Tuple> = (0..100).map(|x| int_tuple(&[x])).collect();
        let mut a =
            HiddenDbServer::new(schema_1d(), rows.clone(), ServerConfig { k: 5, seed: 1 }).unwrap();
        let mut b = HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 5, seed: 2 }).unwrap();
        let qa = a.query(&Query::any(1)).unwrap();
        let qb = b.query(&Query::any(1)).unwrap();
        assert_ne!(qa.tuples, qb.tuples);
    }

    #[test]
    fn explicit_priorities_control_responses() {
        // Tuples 10, 20, 30; give 30 the top priority, then 10, then 20.
        let rows = vec![int_tuple(&[10]), int_tuple(&[20]), int_tuple(&[30])];
        let mut s = HiddenDbServer::with_priorities(schema_1d(), rows, 2, &[5, 1, 9]).unwrap();
        let out = s.query(&Query::any(1)).unwrap();
        assert!(out.overflow);
        assert_eq!(out.tuples, vec![int_tuple(&[30]), int_tuple(&[10])]);
        assert_eq!(s.source_ids()[0], 2);
    }

    #[test]
    fn priority_ties_break_by_input_position() {
        let rows = vec![int_tuple(&[1]), int_tuple(&[2]), int_tuple(&[3])];
        let s = HiddenDbServer::with_priorities(schema_1d(), rows, 1, &[7, 7, 7]).unwrap();
        assert_eq!(s.source_ids(), &[0, 1, 2]);
    }

    #[test]
    fn rejects_invalid_tuples_and_queries() {
        let schema = Schema::builder().categorical("c", 2).build().unwrap();
        let bad = vec![Tuple::new(vec![Value::Cat(5)])];
        assert!(HiddenDbServer::new(schema.clone(), bad, ServerConfig::default()).is_err());

        let mut s = HiddenDbServer::new(
            schema,
            vec![Tuple::new(vec![Value::Cat(0)])],
            ServerConfig::default(),
        )
        .unwrap();
        let bad_q = Query::new(vec![Predicate::Range { lo: 0, hi: 1 }]);
        assert!(matches!(s.query(&bad_q), Err(DbError::InvalidQuery(_))));
        assert_eq!(s.queries_issued(), 0, "invalid queries are not charged");
    }

    #[test]
    fn stats_track_queries() {
        let rows: Vec<Tuple> = (0..50).map(|x| int_tuple(&[x])).collect();
        let mut s =
            HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 10, seed: 0 }).unwrap();
        s.query(&Query::any(1)).unwrap();
        s.query(&Query::new(vec![Predicate::Range { lo: 0, hi: 3 }]))
            .unwrap();
        let st = s.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.overflowed, 1);
        assert_eq!(st.resolved, 1);
        assert_eq!(st.tuples_returned, 14);
        assert_eq!(s.queries_issued(), 2);
        s.reset_stats();
        assert_eq!(s.stats().queries, 0);
    }

    #[test]
    fn query_batch_matches_per_query_loop() {
        let rows: Vec<Tuple> = (0..200).map(|x| int_tuple(&[x % 101])).collect();
        let mut batched =
            HiddenDbServer::new(schema_1d(), rows.clone(), ServerConfig { k: 8, seed: 13 })
                .unwrap();
        let mut looped =
            HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 8, seed: 13 }).unwrap();
        let queries = vec![
            Query::any(1),
            Query::new(vec![Predicate::Range { lo: 0, hi: 50 }]),
            Query::new(vec![Predicate::Range { lo: 0, hi: 50 }]), // duplicate
            Query::new(vec![Predicate::Range { lo: 51, hi: 101 }]),
            Query::new(vec![Predicate::Range { lo: 7, hi: 7 }]),
            Query::new(vec![Predicate::Range { lo: 200, hi: 300 }]), // empty
        ];
        let outs = batched.query_batch(&queries).unwrap();
        let want: Vec<QueryOutcome> = queries.iter().map(|q| looped.query(q).unwrap()).collect();
        assert_eq!(outs, want);
        // Every batched query is charged individually.
        assert_eq!(batched.queries_issued(), looped.queries_issued());
        let st = batched.stats();
        assert_eq!(st.batches, 1);
        assert_eq!(st.batched_queries, 6);
    }

    #[test]
    fn query_batch_empty_and_singleton() {
        let rows: Vec<Tuple> = (0..30).map(|x| int_tuple(&[x])).collect();
        let mut s = HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 4, seed: 5 }).unwrap();
        assert!(s.query_batch(&[]).unwrap().is_empty());
        assert_eq!(s.queries_issued(), 0);
        let q = Query::any(1);
        let solo = s.query_batch(std::slice::from_ref(&q)).unwrap();
        assert_eq!(solo.len(), 1);
        assert_eq!(solo[0], s.query(&q).unwrap());
        // Neither the empty nor the singleton call counts as a batch.
        assert_eq!(s.stats().batches, 0);
    }

    #[test]
    fn invalid_query_rejects_whole_batch_without_charging() {
        let rows: Vec<Tuple> = (0..30).map(|x| int_tuple(&[x])).collect();
        let mut s = HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 4, seed: 5 }).unwrap();
        let batch = vec![
            Query::any(1),
            Query::new(vec![Predicate::Eq(3)]), // invalid: Eq on numeric
        ];
        assert!(matches!(
            s.query_batch(&batch),
            Err(DbError::InvalidQuery(_))
        ));
        assert_eq!(s.queries_issued(), 0, "validation precedes evaluation");
    }

    #[test]
    fn crawlable_detection() {
        let rows = vec![int_tuple(&[7]); 5];
        let s =
            HiddenDbServer::new(schema_1d(), rows.clone(), ServerConfig { k: 5, seed: 0 }).unwrap();
        assert!(s.is_crawlable());
        let s = HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 4, seed: 0 }).unwrap();
        assert!(!s.is_crawlable());
    }

    #[test]
    fn empty_database() {
        let mut s =
            HiddenDbServer::new(schema_1d(), vec![], ServerConfig { k: 3, seed: 0 }).unwrap();
        assert_eq!(s.n(), 0);
        let out = s.query(&Query::any(1)).unwrap();
        assert!(out.is_resolved());
        assert!(out.is_empty());
        assert!(s.is_crawlable());
    }

    #[test]
    fn k_equals_one() {
        let rows = vec![int_tuple(&[1]), int_tuple(&[2])];
        let mut s = HiddenDbServer::new(schema_1d(), rows, ServerConfig { k: 1, seed: 0 }).unwrap();
        let out = s.query(&Query::any(1)).unwrap();
        assert!(out.overflow);
        assert_eq!(out.len(), 1);
        let point = s
            .query(&Query::new(vec![Predicate::Range { lo: 2, hi: 2 }]))
            .unwrap();
        assert!(point.is_resolved());
        assert_eq!(point.tuples, vec![int_tuple(&[2])]);
    }

    #[test]
    fn distinct_in_column_counts() {
        let schema = Schema::builder()
            .categorical("c", 10)
            .numeric("n", 0, 9)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..6)
            .map(|i| Tuple::new(vec![Value::Cat(i % 2), Value::Int((i % 3) as i64)]))
            .collect();
        let s = HiddenDbServer::new(schema, rows, ServerConfig::default()).unwrap();
        assert_eq!(s.distinct_in_column(0), 2);
        assert_eq!(s.distinct_in_column(1), 3);
    }
}
