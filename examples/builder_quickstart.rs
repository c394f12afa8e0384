//! The one-stop crawl API: `Crawl::builder()` + streaming observer.
//!
//! One declarative path replaces the per-algorithm constructors, the
//! hand-wrapped budget decorators, and the end-of-crawl-only report:
//! pick a strategy (or let `Auto` pick the paper's choice for the
//! schema), set a budget, attach an observer for streaming events and
//! early termination, and run — solo or across client identities.
//!
//! ```text
//! cargo run --release --example builder_quickstart
//! ```

use hidden_db_crawler::prelude::*;

/// Stops the crawl once a tuple-coverage target is reached — the
/// "progressive crawler" use case of the paper's Figure 13: a crawler
/// that outputs steadily can be stopped at any coverage with
/// proportional spend.
struct CoverageTarget {
    target: u64,
    events: u64,
}

impl CrawlObserver for CoverageTarget {
    fn on_progress(&mut self, point: ProgressPoint) -> Flow {
        self.events += 1;
        if point.tuples >= self.target {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }
}

fn main() {
    // An inventory with a mixed schema, behind a top-k interface.
    let schema = Schema::builder()
        .categorical("color", 4)
        .numeric("price", 0, 10_000)
        .build()
        .unwrap();
    let tuples: Vec<Tuple> = (0..2_000)
        .map(|i| Tuple::new(vec![Value::Cat(i % 4), Value::Int((i as i64 * 37) % 10_000)]))
        .collect();
    let serve = || {
        HiddenDbServer::new(schema.clone(), tuples.clone(), ServerConfig { k: 50, seed: 42 })
            .unwrap()
    };

    // 1. The one-liner: Auto picks hybrid for this mixed schema, the
    //    budget rides along without hand-wrapping the server.
    let mut db = serve();
    let report = Crawl::builder()
        .strategy(Strategy::Auto)
        .budget(10_000)
        .run(&mut db)
        .unwrap();
    verify_complete(&tuples, &report).unwrap();
    println!(
        "auto crawl: {} ({} slice-cache hits)",
        report, report.metrics.slice_cache_hits
    );

    // 2. Streaming + early stop: consume tuples as they arrive and stop
    //    at 50% coverage. The partial report is a prefix-consistent
    //    subset of the full crawl (differential suite: builder_equiv.rs).
    let mut observer = CoverageTarget {
        target: tuples.len() as u64 / 2,
        events: 0,
    };
    let mut db = serve();
    let err = Crawl::builder()
        .observer(&mut observer)
        .run(&mut db)
        .unwrap_err();
    let partial = match err {
        CrawlError::Stopped { partial } => *partial,
        other => panic!("expected an observer stop, got {other}"),
    };
    println!(
        "stopped at 50% coverage: {} of {} tuples for {} of {} queries \
         ({} progress events streamed)",
        partial.tuples.len(),
        tuples.len(),
        partial.queries,
        report.queries,
        observer.events
    );
    assert!(partial.tuples.len() >= tuples.len() / 2);
    assert!(partial.queries < report.queries);

    // 3. Multi-session: the same builder drives the shard cursor
    //    (`run_sharded` is its only entry) — one connection
    //    per identity, a per-identity budget, and the bag and per-shard
    //    costs of crawling the plan shard by shard.
    let sharded = Crawl::builder()
        .sessions(3)
        .oversubscribe(4)
        .budget(10_000)
        .run_sharded(|_identity| serve())
        .unwrap();
    verify_complete(&tuples, &sharded.merged).unwrap();
    println!(
        "sharded crawl: {} tuples over {} shards on 3 identities",
        sharded.merged.tuples.len(),
        sharded.shards.len()
    );

    // 4. External crawlers ride the same path: the second paper's
    //    barrier crawler plugs in as a custom strategy.
    let barrier = BarrierCrawler::new();
    let mut db = serve();
    let report = Crawl::builder()
        .strategy(Strategy::Custom(&barrier))
        .run(&mut db)
        .unwrap();
    println!(
        "custom strategy: {} ({} deep tuples surfaced)",
        report, report.metrics.barrier_deep_tuples
    );
}
