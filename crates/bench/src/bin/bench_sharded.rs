//! Multi-session scaling benchmark + `BENCH_pr3.json` emitter.
//!
//! ROADMAP's missing number: measured wall-clock vs `sessions` for the
//! sharded crawler on Figure 12-style datasets, comparing the historical
//! **static** placement (one shard per session thread, `factor = 1`)
//! against the **work-stealing** scheduler with an over-partitioned plan
//! (`factor = 8`: ~8 fine-grained shards per identity, dealt
//! dynamically).
//!
//! # What "wall-clock" means here
//!
//! The paper's setting is a *remote* top-`k` front end metering queries
//! per client identity (§1.1): real crawls are bound by per-query
//! round-trips, not by the crawler's CPU — and this container has a
//! single hardware core, so raw CPU parallelism could not show scaling
//! even where the real system would. The bench therefore wraps every
//! session's connection in a [`Throttled`] decorator charging a fixed
//! simulated latency per query (sleeps overlap across threads exactly
//! like concurrent network waits do). Wall-clock then measures what it
//! measures in production: the busiest identity's query backlog, i.e.
//! `max_session_queries × latency` plus scheduling overhead. Total query
//! counts, per-shard costs, and extracted bags are measured exactly and
//! cross-checked between the two schedulers (the stealing scheduler must
//! pay *its plan's* cost and nothing more).
//!
//! Datasets (Figure 12 stand-ins + a control):
//!
//! * `yahoo_make_zipf` — Yahoo! Autos scaled: partition attribute Make
//!   (85 values, Zipf-skewed). Static round-robin dealing leaves one
//!   identity with the heavy values; stealing re-balances dynamically.
//! * `adult_country_heavy` — Adult census sample: partition attribute
//!   Country, whose value 0 holds ~90% of all tuples. The only way to
//!   beat one identity grinding that subtree is the over-partitioned
//!   plan's *sub-splitting* (Country = 0 cut by the secondary
//!   attribute), which the static one-shard-per-value plan cannot do.
//! * `uniform_mixed` — no skew: both schedulers should tie (honest
//!   control; stealing must not cost wall-clock when there is nothing to
//!   re-balance).
//!
//! Output: `BENCH_pr3.json` (override path with `BENCH_OUT`; `--quick`
//! runs a smoke-sized subset for CI).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdc_core::{verify_complete, Crawl, ShardedReport};
use hdc_data::synth::SyntheticSpec;
use hdc_data::{adult, ops, yahoo, Dataset};
use hdc_server::{HiddenDbServer, ServerConfig};
use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Schema, TupleBag};

/// Simulated per-query round-trip latency. Applied per *query* (a batch
/// of `b` sibling queries costs `b` round-trips on a metered front end,
/// exactly like the paper's cost model counts them).
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
    skewed: bool,
    ds: Dataset,
    k: usize,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let yahoo_n = if quick { 3_000 } else { 24_000 };
    let adult_frac = if quick { 0.04 } else { 0.35 };
    let uniform_n = if quick { 2_000 } else { 16_000 };
    vec![
        Workload {
            name: "yahoo_make_zipf",
            skewed: true,
            ds: yahoo::generate_scaled(yahoo_n, 4),
            k: 128,
        },
        Workload {
            name: "adult_country_heavy",
            skewed: true,
            ds: ops::sample_fraction(&adult::generate(4), adult_frac, 4),
            k: 128,
        },
        Workload {
            name: "uniform_mixed",
            skewed: false,
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

const SEED: u64 = 0x5ea1;
/// Oversubscription factor of the stealing configuration: ~12 fine
/// shards per identity. High enough that `sessions × factor` exceeds
/// every partition domain here (85, 41, 24) from 8 sessions up, so the
/// skew-critical sub-splitting paths engage where the acceptance claims
/// are made.
const OVERSUB: usize = 12;

/// One timed crawl. Servers are pre-built *outside* the timed window
/// (construction sorts and indexes the whole table — at 32 sessions that
/// would otherwise dwarf the crawl itself) and handed out through a
/// stack; all are identical, so hand-out order is irrelevant.
fn run_once(
    w: &Workload,
    sessions: usize,
    factor: usize,
    per_query: Duration,
) -> (ShardedReport, f64) {
    let servers: Mutex<Vec<HiddenDbServer>> = Mutex::new(
        (0..sessions + 1)
            .map(|_| {
                HiddenDbServer::new(
                    w.ds.schema.clone(),
                    w.ds.tuples.clone(),
                    ServerConfig { k: w.k, seed: SEED },
                )
                .expect("generated datasets are schema-valid")
            })
            .collect(),
    );
    let begun = Instant::now();
    let report = Crawl::builder()
        .sessions(sessions)
        .oversubscribe(factor)
        .run_sharded(|_s| Throttled {
            inner: servers
                .lock()
                .expect("server stack poisoned")
                .pop()
                .expect("pre-built one server per identity plus the probe"),
            per_query,
        })
        .unwrap_or_else(|e| panic!("{}: sharded crawl failed: {e}", w.name));
    let wall = begun.elapsed().as_secs_f64();
    verify_complete(&w.ds.tuples, &report.merged)
        .unwrap_or_else(|e| panic!("{}: incomplete crawl: {e}", w.name));
    (report, wall)
}

/// Best-of-`samples` wall clock (query counts and bags are deterministic
/// across samples; the minimum is the right statistic for sleep-driven
/// timing, where noise is strictly additive scheduler jitter).
fn run_best(
    w: &Workload,
    sessions: usize,
    factor: usize,
    per_query: Duration,
    samples: usize,
) -> (ShardedReport, f64) {
    let mut best = run_once(w, sessions, factor, per_query);
    for _ in 1..samples {
        let next = run_once(w, sessions, factor, per_query);
        if next.1 < best.1 {
            best = next;
        }
    }
    best
}

struct Row {
    workload: &'static str,
    skewed: bool,
    n: usize,
    k: usize,
    sessions: usize,
    static_wall: f64,
    steal_wall: f64,
    static_total: u64,
    steal_total: u64,
    static_max_session: u64,
    steal_max_session: u64,
    steal_shards: usize,
    steals: u64,
    injected: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let session_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8, 16, 32] };
    // Real metered front ends cost 50–500 ms per round trip; 2 ms is a
    // conservative stand-in that still dwarfs both scheduler overhead
    // and per-sleep timer overshoot (the dominant noise source on a
    // shared host).
    let per_query = Duration::from_micros(if quick { 40 } else { 2_000 });
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_pr3.json".to_string());

    let mut rows: Vec<Row> = Vec::new();
    let mut claims_ok = true;
    for w in workloads(quick) {
        eprintln!(
            "{} (n = {}, k = {}, {}) ...",
            w.name,
            w.ds.n(),
            w.k,
            if w.skewed { "skewed" } else { "uniform" }
        );
        let mut reference_bag: Option<TupleBag> = None;
        let samples = if quick { 1 } else { 3 };
        for &sessions in session_counts {
            let (static_rep, static_wall) = run_best(&w, sessions, 1, per_query, samples);
            let (steal_rep, steal_wall) = run_best(&w, sessions, OVERSUB, per_query, samples);
            // Determinism cross-check: both schedulers, at every session
            // count, extract the identical bag.
            let bag: TupleBag = static_rep.merged.tuples.iter().collect();
            let steal_bag: TupleBag = steal_rep.merged.tuples.iter().collect();
            assert!(bag.multiset_eq(&steal_bag), "{}: bags diverged", w.name);
            if let Some(reference) = &reference_bag {
                assert!(reference.multiset_eq(&bag), "{}: bag changed with sessions", w.name);
            } else {
                reference_bag = Some(bag);
            }
            let row = Row {
                workload: w.name,
                skewed: w.skewed,
                n: w.ds.n(),
                k: w.k,
                sessions,
                static_wall,
                steal_wall,
                static_total: static_rep.merged.queries,
                steal_total: steal_rep.merged.queries,
                static_max_session: static_rep.max_session_queries(),
                steal_max_session: steal_rep.max_session_queries(),
                steal_shards: steal_rep.shards.len(),
                steals: steal_rep.steals(),
                injected: steal_rep.pool.injected(),
            };
            eprintln!(
                "  s={sessions:>2}  static {:>7.2}s (busiest {:>6}q)   steal {:>7.2}s \
                 (busiest {:>6}q, {} shards, {} dealt, {} stolen)   steal/static {:.2}x",
                row.static_wall,
                row.static_max_session,
                row.steal_wall,
                row.steal_max_session,
                row.steal_shards,
                row.injected,
                row.steals,
                row.static_wall / row.steal_wall,
            );
            rows.push(row);
        }
    }

    // Headline claims, checked at record time (full runs only — the
    // quick smoke is too small for timing claims).
    if !quick {
        let mut best_at8 = 0.0f64;
        for w in ["yahoo_make_zipf", "adult_country_heavy"] {
            let series: Vec<&Row> = rows.iter().filter(|r| r.workload == w).collect();
            let base = series[0].steal_wall;
            let speedups: Vec<f64> = series.iter().map(|r| base / r.steal_wall).collect();
            eprintln!("{w}: stealing wall-clock speedup vs 1 session: {speedups:.2?}");
            // Growing with sessions up to 8 (small tolerance for timer
            // jitter); past 8, skew-gated workloads may saturate at the
            // heaviest sub-shard, which is physics, not a regression.
            let through_8 = series.iter().position(|r| r.sessions == 8).expect("s=8 row") + 1;
            let growing = speedups[..through_8].windows(2).all(|p| p[1] >= p[0] * 0.95);
            if !growing || speedups[through_8 - 1] < 2.0 {
                eprintln!("  CLAIM FAILED: speedup not growing through 8 sessions");
                claims_ok = false;
            }
            let at8 = series.iter().find(|r| r.sessions == 8).expect("sessions=8 row");
            let ratio = at8.static_wall / at8.steal_wall;
            eprintln!("{w}: steal vs static at 8 sessions: {ratio:.2}x");
            best_at8 = best_at8.max(ratio);
        }
        // Acceptance line: the stealing scheduler beats static placement
        // ≥ 1.2× at 8 sessions on at least one skewed workload.
        if best_at8 < 1.2 {
            eprintln!("CLAIM FAILED: no skewed workload reaches 1.2x over static at 8 sessions");
            claims_ok = false;
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"pr\": 3,\n");
    json.push_str(&format!(
        "  \"description\": \"sharded crawl wall-clock vs sessions: static one-shard-per-session \
         placement (factor 1) vs work-stealing over-partitioned plan (factor {OVERSUB}); \
         per-query simulated round-trip latency {}us (the paper's metered-front-end setting; \
         single-core container), bags cross-checked identical across schedulers and session \
         counts\",\n",
        per_query.as_micros()
    ));
    json.push_str(&format!("  \"latency_us\": {},\n", per_query.as_micros()));
    json.push_str(&format!("  \"oversubscription\": {OVERSUB},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let base_steal = rows
            .iter()
            .find(|b| b.workload == r.workload && b.sessions == 1)
            .expect("sessions=1 row exists")
            .steal_wall;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"skewed\": {}, \"n\": {}, \"k\": {}, \"sessions\": {}, \
             \"static_wall_secs\": {:.3}, \"steal_wall_secs\": {:.3}, \
             \"steal_vs_static\": {:.3}, \"steal_speedup_vs_1\": {:.3}, \
             \"static_total_queries\": {}, \"steal_total_queries\": {}, \
             \"static_max_session_queries\": {}, \"steal_max_session_queries\": {}, \
             \"steal_shards\": {}, \"injector_dealt\": {}, \"steals\": {}}}{}\n",
            r.workload,
            r.skewed,
            r.n,
            r.k,
            r.sessions,
            r.static_wall,
            r.steal_wall,
            r.static_wall / r.steal_wall,
            base_steal / r.steal_wall,
            r.static_total,
            r.steal_total,
            r.static_max_session,
            r.steal_max_session,
            r.steal_shards,
            r.injected,
            r.steals,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    assert!(claims_ok, "headline claims failed; see log above");
}
