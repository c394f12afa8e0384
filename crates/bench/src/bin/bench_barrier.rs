//! Top-k-barrier crawl benchmark + `BENCH_pr4.json` emitter.
//!
//! The barrier crawler (`hdc-barrier`) issues the same top-k probe
//! primitive as the first paper's crawlers with a different mix — no
//! slice memoization, every discriminating child probed, every window
//! mined — which is exactly the traffic the columnar engine (PR 1),
//! `query_batch` (PR 2), and the work-stealing scheduler (PR 3) were
//! built to absorb. This bench measures all three under the new
//! workload (each row also records Hybrid's cost on the identical
//! instance, so the probe volumes can be compared honestly):
//!
//! * **engine vs legacy** (1 session, unthrottled): a full barrier crawl
//!   of each workload driven once against the columnar-engine server and
//!   once against the seed's row-at-a-time `LegacyEvaluator` on
//!   identical data and priorities. Determinism makes the two crawls
//!   issue the identical query sequence (cross-checked: same bag, same
//!   query count), so wall-clock ratio is pure evaluator speedup on the
//!   barrier's probe mix.
//! * **session scaling** (1..16 identities): the sharded barrier crawl
//!   on the work-stealing pool (`BarrierCrawler::crawl_sharded`,
//!   oversubscription factor 8) under a simulated per-query round-trip
//!   latency — the paper's metered-front-end regime; this container has
//!   one core, so backlog parallelism is what scales, exactly as in
//!   `BENCH_pr3.json`. Bags are cross-checked against ground truth at
//!   every session count, and each row records the **depth-aware
//!   merge**: the merged discovery-depth histogram (per-shard depths
//!   summed element-wise, cross-checked against the metrics
//!   aggregates).
//!
//! The Hybrid context crawl runs through the one-stop
//! `Crawl::builder()` with a streaming observer, and its
//! progressiveness statistic is computed from the `on_progress` event
//! stream — asserted identical to the report's own curve, so the
//! recorded number doubles as an end-to-end check of the event path.
//!
//! Workloads are the `BENCH_pr3` trio (Yahoo/Adult stand-ins + a uniform
//! control). Output: `BENCH_pr4.json` (override with `BENCH_OUT`;
//! `--quick` runs a smoke-sized subset for CI).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdc_barrier::BarrierCrawler;
use hdc_core::{
    verify_complete, Crawl, CrawlControls, ProgressRecorder, SessionConfig, Sharded, Strategy,
};
use hdc_data::synth::SyntheticSpec;
use hdc_data::{adult, ops, yahoo, Dataset};
use hdc_server::{HiddenDbServer, LegacyEvaluator, ServerConfig};
use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Schema, TupleBag};

/// The seed evaluator behind the `HiddenDatabase` trait, so the barrier
/// crawler can drive it live. Built from the engine server's own row
/// order, it answers every query bit-identically to the engine (the PR 1
/// differential contract), so the crawl takes the identical path.
struct LegacyDb {
    schema: Schema,
    k: usize,
    eval: LegacyEvaluator,
    issued: u64,
}

impl LegacyDb {
    fn of(server: &HiddenDbServer) -> Self {
        LegacyDb {
            schema: server.schema().clone(),
            k: server.k(),
            eval: server.legacy_evaluator(),
            issued: 0,
        }
    }
}

impl HiddenDatabase for LegacyDb {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn k(&self) -> usize {
        self.k
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        q.validate(&self.schema)?;
        self.issued += 1;
        Ok(self.eval.evaluate(q))
    }

    // No query_batch override: the legacy evaluator has no batch path,
    // so the default per-query loop is the honest baseline.

    fn queries_issued(&self) -> u64 {
        self.issued
    }
}

/// Simulated per-query round-trip latency (a batch of `b` siblings costs
/// `b` round-trips on a metered front end, as the cost model counts).
struct Throttled {
    inner: HiddenDbServer,
    per_query: Duration,
}

impl HiddenDatabase for Throttled {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        std::thread::sleep(self.per_query);
        self.inner.query(q)
    }

    fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        std::thread::sleep(self.per_query * queries.len() as u32);
        self.inner.query_batch(queries)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

struct Workload {
    name: &'static str,
    ds: Dataset,
    k: usize,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let yahoo_n = if quick { 2_000 } else { 16_000 };
    let adult_frac = if quick { 0.03 } else { 0.25 };
    let uniform_n = if quick { 1_500 } else { 12_000 };
    vec![
        Workload {
            name: "yahoo_make_zipf",
            ds: yahoo::generate_scaled(yahoo_n, 4),
            k: 128,
        },
        Workload {
            name: "adult_country_heavy",
            ds: ops::sample_fraction(&adult::generate(4), adult_frac, 4),
            k: 128,
        },
        Workload {
            name: "uniform_mixed",
            ds: SyntheticSpec::builder("uniform_mixed", uniform_n)
                .cat_zipf("c0", 24, 0.0)
                .int_uniform("x", 0, 99_999)
                .int_uniform("y", 0, 9_999)
                .build()
                .generate(7),
            k: 64,
        },
    ]
}

const SEED: u64 = 0xba44;
/// Oversubscription factor of the scaling runs: ~8 fine shards per
/// identity, matching the regime `BENCH_pr3.json` measured.
const OVERSUB: usize = 8;

fn serve(ds: &Dataset, k: usize) -> HiddenDbServer {
    HiddenDbServer::new(ds.schema.clone(), ds.tuples.clone(), ServerConfig { k, seed: SEED })
        .expect("generated datasets are schema-valid")
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

struct EvalRow {
    workload: &'static str,
    n: usize,
    k: usize,
    queries: u64,
    hybrid_queries: u64,
    /// Max deviation of the hybrid progressiveness curve from the
    /// diagonal, computed from the builder's streamed `on_progress`
    /// events (cross-checked against the report's own curve).
    hybrid_progress_deviation: f64,
    frontier: usize,
    beyond_frontier: usize,
    max_depth: u32,
    pivots: u64,
    engine_secs: f64,
    legacy_secs: f64,
}

struct ScaleRow {
    workload: &'static str,
    sessions: usize,
    wall: f64,
    total_queries: u64,
    busiest: u64,
    shards: usize,
    steals: u64,
    /// The depth-aware merge: element-wise sum of per-shard discovery
    /// depth histograms (depths relative to each shard's roots).
    depth_histogram: Vec<u64>,
    max_depth: u32,
}


fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let session_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8, 16] };
    let samples = if quick { 1 } else { 3 };
    let per_query = Duration::from_micros(if quick { 40 } else { 1_000 });
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_pr4.json".to_string());
    let crawler = BarrierCrawler::new();

    let mut eval_rows: Vec<EvalRow> = Vec::new();
    let mut scale_rows: Vec<ScaleRow> = Vec::new();
    let mut claims_ok = true;

    for w in workloads(quick) {
        eprintln!("{} (n = {}, k = {}) ...", w.name, w.ds.n(), w.k);

        // -------- engine vs legacy (1 session, unthrottled) --------
        // One reference crawl for the cross-check and the barrier stats.
        let mut engine_db = serve(&w.ds, w.k);
        let reference = crawler
            .crawl_report(&mut engine_db, SessionConfig::default())
            .unwrap_or_else(|e| panic!("{}: barrier crawl failed: {e}", w.name));
        verify_complete(&w.ds.tuples, &reference.report)
            .unwrap_or_else(|e| panic!("{}: incomplete barrier crawl: {e}", w.name));

        let mut legacy_db = LegacyDb::of(&engine_db);
        let legacy_ref = crawler
            .crawl_report(&mut legacy_db, SessionConfig::default())
            .unwrap_or_else(|e| panic!("{}: legacy barrier crawl failed: {e}", w.name));
        assert_eq!(
            reference.report.queries, legacy_ref.report.queries,
            "{}: engine and legacy crawls diverged in cost",
            w.name
        );
        let a: TupleBag = reference.report.tuples.iter().collect();
        let b: TupleBag = legacy_ref.report.tuples.iter().collect();
        assert!(a.multiset_eq(&b), "{}: engine and legacy bags diverged", w.name);

        // Context row: the first paper's Hybrid on the same instance, so
        // the JSON records how the barrier's probe volume compares to
        // the established crawler's on identical data. Driven through
        // the one-stop builder with a streaming observer, so the
        // progressiveness statistic comes from the event stream — and is
        // cross-checked against the report's own curve.
        let mut hybrid_db = serve(&w.ds, w.k);
        // `ProgressRecorder` is itself a CrawlObserver — the same type
        // that builds the report's curve internally — so the streamed
        // events can be accumulated and checked against the report
        // without any local re-implementation.
        let mut curve = ProgressRecorder::new();
        let hybrid = Crawl::builder()
            .strategy(Strategy::Hybrid)
            .observer(&mut curve)
            .run(&mut hybrid_db)
            .unwrap_or_else(|e| panic!("{}: hybrid reference crawl failed: {e}", w.name));
        assert_eq!(
            curve.points(),
            &hybrid.progress[..],
            "{}: event-derived progressiveness curve diverged from the report's",
            w.name
        );
        // Event curve ≡ report curve (asserted above), so the report's
        // own statistic *is* the event-derived one.
        let hybrid_progress_deviation = hybrid.progress_deviation();

        let mut engine_times = Vec::new();
        let mut legacy_times = Vec::new();
        for _ in 0..samples {
            let mut db = serve(&w.ds, w.k);
            let begun = Instant::now();
            crawler
                .crawl_report(&mut db, SessionConfig::default())
                .expect("reference crawl succeeded");
            engine_times.push(begun.elapsed().as_secs_f64());

            let mut db = LegacyDb::of(&engine_db);
            let begun = Instant::now();
            crawler
                .crawl_report(&mut db, SessionConfig::default())
                .expect("reference crawl succeeded");
            legacy_times.push(begun.elapsed().as_secs_f64());
        }
        let row = EvalRow {
            workload: w.name,
            n: w.ds.n(),
            k: w.k,
            queries: reference.report.queries,
            hybrid_queries: hybrid.queries,
            hybrid_progress_deviation,
            frontier: reference.frontier(),
            beyond_frontier: reference.beyond_frontier(),
            max_depth: reference.max_depth,
            pivots: reference.report.metrics.barrier_pivots,
            engine_secs: median(engine_times),
            legacy_secs: median(legacy_times),
        };
        eprintln!(
            "  {} queries (hybrid: {}), frontier {} / beyond {} (max depth {}, {} pivots)",
            row.queries, row.hybrid_queries, row.frontier, row.beyond_frontier, row.max_depth,
            row.pivots
        );
        eprintln!(
            "  engine {:.3}s   legacy {:.3}s   engine/legacy {:.2}x",
            row.engine_secs,
            row.legacy_secs,
            row.legacy_secs / row.engine_secs
        );
        if !quick && row.legacy_secs / row.engine_secs < 1.1 {
            eprintln!("  CLAIM FAILED: engine does not beat legacy by ≥1.1x");
            claims_ok = false;
        }
        eval_rows.push(row);

        // -------- session scaling (work-stealing pool, throttled) --------
        let truth_bag: TupleBag = w.ds.tuples.iter().collect();
        for &sessions in session_counts {
            let mut best: Option<ScaleRow> = None;
            for _ in 0..samples {
                let servers: Mutex<Vec<HiddenDbServer>> = Mutex::new(
                    (0..sessions + 1).map(|_| serve(&w.ds, w.k)).collect(),
                );
                let begun = Instant::now();
                let report = crawler
                    .crawl_sharded(
                        &Sharded::new(sessions).oversubscribed(OVERSUB),
                        |_s| Throttled {
                            inner: servers
                                .lock()
                                .expect("server stack poisoned")
                                .pop()
                                .expect("one server per identity plus the probe"),
                            per_query,
                        },
                        CrawlControls::default(),
                    )
                    .unwrap_or_else(|e| panic!("{}: sharded barrier failed: {e}", w.name));
                let wall = begun.elapsed().as_secs_f64();
                let got: TupleBag = report.sharded.merged.tuples.iter().collect();
                assert!(
                    got.multiset_eq(&truth_bag),
                    "{}: sharded barrier bag diverged at {} sessions",
                    w.name,
                    sessions
                );
                // The depth-aware merge keeps the full distribution, so
                // the deep-tuple count must reconcile with the metrics
                // aggregate at every session count.
                assert_eq!(
                    report.beyond_frontier(),
                    report.sharded.merged.metrics.barrier_deep_tuples,
                    "{}: merged depth histogram diverged from metrics at {} sessions",
                    w.name,
                    sessions
                );
                let row = ScaleRow {
                    workload: w.name,
                    sessions,
                    wall,
                    total_queries: report.sharded.merged.queries,
                    busiest: report.sharded.max_session_queries(),
                    shards: report.sharded.shards.len(),
                    steals: report.sharded.steals(),
                    depth_histogram: report.depth_histogram.clone(),
                    max_depth: report.max_depth,
                };
                if best.as_ref().is_none_or(|b| row.wall < b.wall) {
                    best = Some(row);
                }
            }
            let row = best.expect("at least one sample");
            eprintln!(
                "  s={:>2}  wall {:>7.2}s   total {:>6}q  busiest {:>6}q  {} shards, {} stolen, \
                 max depth {}",
                row.sessions,
                row.wall,
                row.total_queries,
                row.busiest,
                row.shards,
                row.steals,
                row.max_depth
            );
            scale_rows.push(row);
        }
    }

    if !quick {
        for w in ["yahoo_make_zipf", "adult_country_heavy", "uniform_mixed"] {
            let series: Vec<&ScaleRow> = scale_rows.iter().filter(|r| r.workload == w).collect();
            let base = series[0].wall;
            let at8 = series.iter().find(|r| r.sessions == 8).expect("s=8 row");
            let speedup = base / at8.wall;
            eprintln!("{w}: barrier scaling speedup at 8 sessions vs 1: {speedup:.2}x");
            if speedup < 1.5 {
                eprintln!("  CLAIM FAILED: sharded barrier not ≥1.5x at 8 sessions");
                claims_ok = false;
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"pr\": 4,\n");
    json.push_str(&format!(
        "  \"description\": \"top-k-barrier crawl (hdc-barrier) benched end to end: full-crawl \
         wall-clock engine vs seed LegacyEvaluator on identical data/priorities (identical query \
         sequences, cross-checked), and sharded barrier crawl wall-clock vs sessions on the \
         work-stealing pool (factor {OVERSUB}, simulated {}us per-query round-trip, single-core \
         container, bags cross-checked at every session count, merged discovery-depth histogram \
         recorded per row via the depth-aware sharded merge); hybrid context crawls run through \
         Crawl::builder() with progressiveness computed from the streamed on_progress events\",\n",
        per_query.as_micros()
    ));
    json.push_str(&format!("  \"latency_us\": {},\n", per_query.as_micros()));
    json.push_str(&format!("  \"oversubscription\": {OVERSUB},\n"));
    json.push_str("  \"engine_vs_legacy\": [\n");
    for (i, r) in eval_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"k\": {}, \"queries\": {}, \
             \"hybrid_queries\": {}, \"hybrid_progress_deviation\": {:.4}, \
             \"frontier\": {}, \"beyond_frontier\": {}, \
             \"max_depth\": {}, \"pivots\": {}, \
             \"engine_wall_secs\": {:.3}, \"legacy_wall_secs\": {:.3}, \
             \"engine_vs_legacy\": {:.3}}}{}\n",
            r.workload,
            r.n,
            r.k,
            r.queries,
            r.hybrid_queries,
            r.hybrid_progress_deviation,
            r.frontier,
            r.beyond_frontier,
            r.max_depth,
            r.pivots,
            r.engine_secs,
            r.legacy_secs,
            r.legacy_secs / r.engine_secs,
            if i + 1 == eval_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scaling\": [\n");
    for (i, r) in scale_rows.iter().enumerate() {
        let base = scale_rows
            .iter()
            .find(|b| b.workload == r.workload && b.sessions == 1)
            .expect("sessions=1 row exists")
            .wall;
        let hist = r
            .depth_histogram
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"sessions\": {}, \"wall_secs\": {:.3}, \
             \"speedup_vs_1\": {:.3}, \"total_queries\": {}, \"max_session_queries\": {}, \
             \"shards\": {}, \"steals\": {}, \"max_depth\": {}, \
             \"depth_histogram\": [{}]}}{}\n",
            r.workload,
            r.sessions,
            r.wall,
            base / r.wall,
            r.total_queries,
            r.busiest,
            r.shards,
            r.steals,
            r.max_depth,
            hist,
            if i + 1 == scale_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    assert!(claims_ok, "headline claims failed; see log above");
}
