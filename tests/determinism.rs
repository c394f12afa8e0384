//! Determinism guarantees across the whole stack.
//!
//! The problem model demands a deterministic adversary (re-issuing a
//! query must return the same response), the generators are pure
//! functions of their seeds, and the crawlers are deterministic given the
//! server — so entire experiments must replay bit-identically. This is
//! what makes the figure benchmarks reproducible.

use hidden_db_crawler::data::{adult, nsf, ops, yahoo, Dataset};
use hidden_db_crawler::prelude::*;

fn serve(ds: &Dataset, k: usize, seed: u64) -> HiddenDbServer {
    HiddenDbServer::new(
        ds.schema.clone(),
        ds.tuples.clone(),
        ServerConfig { k, seed },
    )
    .unwrap()
}

#[test]
fn generators_are_pure_functions_of_seed() {
    assert_eq!(
        yahoo::generate_scaled(1_000, 7).tuples,
        yahoo::generate_scaled(1_000, 7).tuples
    );
    assert_eq!(
        nsf::generate_scaled(29_100, 7).tuples,
        nsf::generate_scaled(29_100, 7).tuples
    );
    assert_eq!(
        adult::generate_scaled(2_000, 7).tuples,
        adult::generate_scaled(2_000, 7).tuples
    );
    assert_ne!(
        yahoo::generate_scaled(1_000, 7).tuples,
        yahoo::generate_scaled(1_000, 8).tuples
    );
}

#[test]
fn repeated_queries_return_identical_responses() {
    let ds = yahoo::generate_scaled(2_000, 1);
    let mut db = serve(&ds, 64, 9);
    let q = ds.schema.full_query();
    let first = db.query(&q).unwrap();
    for _ in 0..10 {
        assert_eq!(
            db.query(&q).unwrap(),
            first,
            "the adversary must never yield new tuples"
        );
    }
}

#[test]
fn crawls_replay_bit_identically() {
    let ds = yahoo::generate_scaled(3_000, 2);
    let run = || {
        let mut db = serve(&ds, 128, 4);
        Hybrid::new().crawl(&mut db).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.queries, b.queries);
    assert_eq!(
        a.tuples, b.tuples,
        "tuple output order is deterministic too"
    );
    assert_eq!(a.progress, b.progress);
}

#[test]
fn different_priority_seeds_change_cost_not_result() {
    let ds = adult::generate_scaled(3_000, 3);
    let ds = adult::numeric_projection(&ds);
    let mut costs = std::collections::HashSet::new();
    for seed in 0..5 {
        let mut db = serve(&ds, 32, seed);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&ds.tuples, &report).unwrap();
        costs.insert(report.queries);
    }
    // The extracted bag is always exact; the cost may vary with the
    // server's ranking (it usually does at least a little).
    assert!(!costs.is_empty());
}

#[test]
fn distinct_crawlers_agree_on_the_bag() {
    let ds = nsf::generate_scaled(29_100, 4);
    let (ds4, _) = hidden_db_crawler::data::ops::project_top_distinct(&ds, 4);
    let crawlers: Vec<Box<dyn Crawler>> = vec![
        Box::new(Dfs::new()),
        Box::new(SliceCover::eager()),
        Box::new(SliceCover::lazy()),
        Box::new(Hybrid::new()),
    ];
    let mut bags: Vec<TupleBag> = Vec::new();
    for c in &crawlers {
        let mut db = serve(&ds4, 64, 5);
        let report = c.crawl(&mut db).unwrap();
        bags.push(report.tuples.iter().collect());
    }
    for pair in bags.windows(2) {
        assert!(
            pair[0].multiset_eq(&pair[1]),
            "all algorithms extract the same bag"
        );
    }
}

/// Forwards to a server while recording a crawl's call structure: each
/// `query` as a one-query batch, each batch verbatim. The session layer
/// issues its batches through `try_query_batch`.
struct Tracing {
    inner: HiddenDbServer,
    batches: Vec<Vec<Query>>,
}

impl HiddenDatabase for Tracing {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        let out = self.inner.query(q)?;
        self.batches.push(vec![q.clone()]);
        Ok(out)
    }

    fn try_query_batch(&mut self, queries: &[Query]) -> (Vec<QueryOutcome>, Option<DbError>) {
        self.batches.push(queries.to_vec());
        self.inner.try_query_batch(queries)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

#[test]
fn recorded_crawl_streams_replay_identically_batched_per_query_and_legacy() {
    let cases: [(Dataset, usize, Box<dyn Crawler>); 3] = [
        (
            yahoo::generate_scaled(3_000, 4),
            128,
            Box::new(Hybrid::new()),
        ),
        (
            ops::sample_fraction(&adult::generate_numeric(4), 0.05, 4),
            64,
            Box::new(RankShrink::new()),
        ),
        // The top-k-barrier crawler's probe mix: no slice memoization,
        // every discriminating child probed, every window mined.
        (
            ops::sample_fraction(&adult::generate(4), 0.05, 4),
            64,
            Box::new(BarrierCrawler::new()),
        ),
    ];
    for (ds, k, crawler) in cases {
        let mut traced = Tracing {
            inner: serve(&ds, k, 0x9e2),
            batches: Vec::new(),
        };
        crawler.crawl(&mut traced).unwrap();
        let batches = traced.batches;
        assert!(
            batches.iter().any(|b| b.len() >= 2),
            "{}: the recorded crawl never batched",
            ds.name
        );

        let mut server = serve(&ds, k, 0x9e2);
        let legacy = server.legacy_evaluator();
        let batched: Vec<QueryOutcome> = batches
            .iter()
            .flat_map(|b| server.query_batch(b).unwrap())
            .collect();
        let queries: Vec<&Query> = batches.iter().flatten().collect();
        assert_eq!(batched.len(), queries.len());
        for (i, (q, want)) in queries.into_iter().zip(&batched).enumerate() {
            assert_eq!(
                &server.query(q).unwrap(),
                want,
                "{}: query {i} per query",
                ds.name
            );
            assert_eq!(&legacy.evaluate(q), want, "{}: query {i} legacy", ds.name);
        }
    }
}

/// A `ProgressRecorder` fed the builder's streamed `on_progress` events
/// rebuilds the report's progressiveness curve point for point, so a
/// curve drawn from the event stream is the report's own.
#[test]
fn streamed_progress_rebuilds_the_report_curve() {
    let ds = yahoo::generate_scaled(3_000, 4);
    let mut curve = ProgressRecorder::new();
    let report = Crawl::builder()
        .strategy(Strategy::Hybrid)
        .observer(&mut curve)
        .run(&mut serve(&ds, 128, 0x9e2))
        .unwrap();
    assert!(report.progress.len() > 1);
    assert_eq!(curve.points(), &report.progress[..]);
}
