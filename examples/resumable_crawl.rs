//! Multi-day crawling under a per-day query quota, with free resume.
//!
//! Hidden databases meter queries per client per day (§1.1 — the reason
//! query count is the paper's cost metric). Two production tactics built
//! on the library's substrate:
//!
//! 1. **Resume across days** — the server is a deterministic adversary,
//!    so recorded responses replay for free: each day re-traverses
//!    yesterday's prefix from the local cache and extends it by one
//!    quota of fresh queries. Total charged queries equal the one-shot
//!    cost; the crawl finishes in ⌈cost/quota⌉ days.
//! 2. **Shard across identities** — with several client identities, the
//!    data space is partitioned (round-robin on the first categorical
//!    attribute) and crawled concurrently, dividing the per-identity load.
//!
//! Run with: `cargo run --release --example resumable_crawl`

use hidden_db_crawler::data::yahoo;
use hidden_db_crawler::prelude::*;
use hidden_db_crawler::server::{DailyQuota, QueryCache, Replayer};

fn main() {
    let ds = yahoo::generate(13);
    let k = 256;
    let server = || {
        HiddenDbServer::new(
            ds.schema.clone(),
            ds.tuples.clone(),
            ServerConfig { k, seed: 2 },
        )
        .expect("valid database")
    };

    // One-shot reference cost.
    let mut db = server();
    let full = Hybrid::new().crawl(&mut db).expect("crawlable at k=256");
    println!(
        "dataset: {} (n = {}), k = {k}; one-shot crawl cost: {} queries\n",
        ds.name,
        ds.n(),
        full.queries
    );

    // ---- Tactic 1: resume across days under a 300/day quota -----------
    let per_day = 300;
    println!("crawling under a {per_day}-query/day quota with response replay:");
    let mut db = Replayer::new(DailyQuota::new(server(), per_day), QueryCache::new());
    let report = loop {
        match Hybrid::new().crawl(&mut db) {
            Ok(report) => break report,
            Err(CrawlError::Db {
                error: DbError::BudgetExhausted { .. },
                partial,
            }) => {
                println!(
                    "  day {:>2}: quota exhausted after {:>5} fresh queries, {:>6} tuples held, resuming tomorrow",
                    db.inner().day() + 1,
                    per_day,
                    partial.tuples.len()
                );
                db.inner_mut().next_day();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    verify_complete(&ds.tuples, &report).expect("complete");
    println!(
        "  day {:>2}: finished — {} tuples, {} total charged queries (one-shot cost was {})",
        db.inner().day() + 1,
        report.tuples.len(),
        db.inner().total_spent(),
        full.queries
    );
    println!(
        "  replay made resuming free: {} cache hits across restarts\n",
        db.cache_hits()
    );

    // ---- Tactic 2: shard across client identities ----------------------
    println!("sharding across client identities (concurrent sessions):");
    println!(
        "{:>9} {:>13} {:>19} {:>9}",
        "sessions", "total queries", "busiest session", "overhead"
    );
    let single = Crawl::builder()
        .run_sharded(|_| server())
        .expect("crawl succeeds");
    for sessions in [1usize, 2, 4, 8] {
        let report = Crawl::builder()
            .sessions(sessions)
            .run_sharded(|_| server())
            .expect("crawl succeeds");
        verify_complete(&ds.tuples, &report.merged).expect("complete");
        println!(
            "{sessions:>9} {:>13} {:>19} {:>8.2}×",
            report.merged.queries,
            report.max_session_queries(),
            report.merged.queries as f64 / single.merged.queries as f64
        );
    }
    println!("\nEach identity answers for a fraction of the load; the total overhead is");
    println!("the per-session slice tables that can no longer be shared.");
}
