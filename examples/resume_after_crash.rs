//! Surviving a flaky, hostile backend: retries, then a crash, then resume.
//!
//! Real hidden databases fail in two ways the paper's cost model never
//! has to mention: individual requests error transiently (rate limits,
//! 503s), and whole crawls die mid-flight (bans, crashes, evictions).
//! The robustness layer handles both without giving up the library's
//! determinism guarantees:
//!
//! 1. **Transient faults + retry** — [`FaultyDb`] injects a seeded fault
//!    schedule; a [`RetryPolicy`] on the session rides it out. The crawl
//!    completes with the *bit-identical* bag at the *bit-identical*
//!    charged cost as the fault-free run — failed attempts never reach
//!    the server, so the only overhead is the retried attempts.
//! 2. **Crash + resume** — a [`JsonFileRepository`] checkpoints every
//!    completed shard to disk. When the process dies (simulated here by
//!    a hard query budget), a fresh process pointed at the same file
//!    reads the plan from it, replays the finished shards for free and
//!    pays only for the rest —
//!    plus, since its slice memo starts empty, at most the slices the
//!    banked shards had fetched.
//!
//! Run with: `cargo run --release --example resume_after_crash`

use hidden_db_crawler::prelude::*;

fn main() {
    let ds = hidden_db_crawler::data::yahoo::generate_scaled(20_000, 9);
    let k = 256;
    let server = || {
        HiddenDbServer::new(
            ds.schema.clone(),
            ds.tuples.clone(),
            ServerConfig { k, seed: 3 },
        )
        .expect("valid database")
    };

    // Fault-free reference: the cost and bag every run below must match.
    let mut db = server();
    let clean = Crawl::builder()
        .strategy(Strategy::Auto)
        .run(&mut db)
        .expect("crawlable at k=256");
    verify_complete(&ds.tuples, &clean).expect("complete");
    println!(
        "dataset: {} (n = {}), k = {k}; fault-free cost: {} queries\n",
        ds.name,
        ds.n(),
        clean.queries
    );

    // ---- 1. Transient faults, ridden out by the retry policy ----------
    println!("crawling through a backend that faults 15% of all attempts:");
    let mut faulty = FaultyDb::new(
        server(),
        FaultConfig {
            seed: 77,
            transient_rate: 0.15,
            burst: 1,
            fail_after: None,
        },
    );
    let report = Crawl::builder()
        .strategy(Strategy::Auto)
        .retry(RetryPolicy::new(8).no_sleep())
        .run(&mut faulty)
        .expect("retry absorbs every transient fault");
    verify_complete(&ds.tuples, &report).expect("complete");
    assert_eq!(report.queries, clean.queries);
    println!(
        "  completed: {} tuples, {} charged queries (identical to fault-free),",
        report.tuples.len(),
        report.queries
    );
    println!(
        "  {} faults injected = {} retried attempts — the entire overhead\n",
        faulty.faults_injected(),
        report.metrics.transient_retries
    );

    // ---- 2. Crash mid-crawl, resume from the checkpoint file ----------
    let path = std::env::temp_dir().join("hdc_resume_after_crash.json");
    let _ = std::fs::remove_file(&path);

    // Uninterrupted reference for the checkpointed plan (a checkpointed
    // crawl runs the sharded plan on a one-worker pool, whose total cost
    // can differ slightly from the monolithic crawl above).
    let mut scratch = MemoryRepository::new();
    let one_shot = Crawl::builder()
        .strategy(Strategy::Auto)
        .oversubscribe(8)
        .repository(&mut scratch)
        .run_sharded(|_s| server())
        .expect("crawlable")
        .merged;

    // First process: dies when a hard budget cuts the connection. Every
    // shard finished before the crash is already safe on disk.
    println!("first process: crawling with a checkpoint file, killed by a 150-query budget:");
    let mut repo = JsonFileRepository::new(&path);
    // oversubscribe(8) splits the plan into 8 shards — the checkpoint
    // granularity: each finished shard is banked before the next starts.
    let crash = Crawl::builder()
        .strategy(Strategy::Auto)
        .oversubscribe(8)
        .budget(150)
        .repository(&mut repo)
        .run_sharded(|_s| server());
    let (error, partial) = match crash {
        Err(CrawlError::Db { error, partial }) => (error, partial),
        other => panic!("expected the budget to kill the crawl, got {other:?}"),
    };
    let saved = repo
        .load()
        .expect("checkpoint readable")
        .expect("checkpoint written");
    let banked: u64 = saved.shards.iter().map(|s| s.queries).sum();
    let banked_slices: u64 = saved.shards.iter().map(|s| s.metrics.slice_fetches).sum();
    println!("  died: {error}");
    println!(
        "  salvage: {} tuples handed back; {} shards ({} queries) banked in {}\n",
        partial.tuples.len(),
        saved.shards.len(),
        banked,
        path.display()
    );

    // Second process: same file, no shared state with the first — the
    // banked shards replay for free, only the remainder is charged. The
    // plan comes from the checkpoint, so the resume repeats no plan flag.
    println!("second process: resuming from the checkpoint:");
    let mut repo = JsonFileRepository::new(&path);
    let report = Crawl::builder()
        .strategy(Strategy::Auto)
        .repository(&mut repo)
        .run_sharded(|_s| server())
        .expect("resume completes");
    // Fresh queries: the shards this process crawled, not the replayed ones.
    let fresh: u64 = report
        .shards
        .iter()
        .filter(|s| !s.restored)
        .map(|s| s.report.queries)
        .sum();
    let resumed = report.merged;
    verify_complete(&ds.tuples, &resumed).expect("complete");
    // The resumed process starts with an empty slice memo: it pays again
    // for the slices the banked shards fetched that the rest still need.
    let repaid = resumed.queries - one_shot.queries;
    assert!(repaid <= banked_slices);
    assert_eq!(fresh, resumed.queries - banked);
    println!(
        "  completed: {} tuples, {} total charged queries — the uninterrupted cost \
         plus {repaid} slices fetched again (at most the {banked_slices} banked ones),",
        resumed.tuples.len(),
        resumed.queries
    );
    println!(
        "  of which only {fresh} were issued after the crash ({} replayed from the checkpoint)",
        resumed.queries - fresh
    );
    let _ = std::fs::remove_file(&path);
}
