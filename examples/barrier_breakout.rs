//! Breaking the top-k barrier: surfacing what a search form never shows.
//!
//! A job-board front end ranks listings by a hidden "relevance" score and
//! shows at most `k` per search. One query therefore sees only the
//! k-visible frontier; everything ranked below it is invisible no matter
//! how often the query is repeated. The barrier crawler recovers those
//! hidden listings with discriminating queries and reports *how deep*
//! each one was buried.
//!
//! Run with: `cargo run --example barrier_breakout`

use hidden_db_crawler::prelude::*;

fn main() {
    // A small job board: sector (categorical) and salary (numeric).
    let schema = Schema::builder()
        .categorical("sector", 6)
        .numeric("salary", 20_000, 180_000)
        .build()
        .unwrap();
    let listings: Vec<Tuple> = (0..900u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            Tuple::new(vec![
                Value::Cat((h % 6) as u32),
                Value::Int(20_000 + ((h >> 8) % 1_601) as i64 * 100),
            ])
        })
        .collect();

    let k = 50;
    let mut site = HiddenDbServer::new(
        schema.clone(),
        listings.clone(),
        ServerConfig { k, seed: 2024 },
    )
    .unwrap();

    // One naive probe: the front end shows k of 900 listings, and
    // repeating the query shows the same k forever.
    let first = site.query(&schema.full_query()).unwrap();
    assert!(first.overflow);
    println!(
        "naive probe: {} of {} listings visible (overflow: repeating reveals nothing new)",
        first.len(),
        listings.len()
    );

    // The barrier crawl: discriminating queries demote the visible
    // listings out of the window until everything has surfaced.
    let out = BarrierCrawler::new()
        .crawl_report(&mut site, SessionConfig::default())
        .unwrap();
    verify_complete(&listings, &out.report).unwrap();
    println!(
        "barrier crawl: all {} listings recovered in {} queries ({} pivot expansions)",
        out.report.tuples.len(),
        out.report.queries,
        out.report.metrics.barrier_pivots
    );
    println!(
        "frontier {} | beyond the barrier {} | mean discovery depth {:.2}",
        out.frontier(),
        out.beyond_frontier(),
        out.mean_depth()
    );
    println!("depth histogram (how deep the barrier buried the data):");
    for (depth, count) in out.depth_histogram().iter().enumerate() {
        println!(
            "  depth {depth}: {count:>4} listings  {}",
            "#".repeat((count / 8) as usize)
        );
    }

    // The deepest listing: the one the ranking hid hardest.
    let deepest = out
        .discoveries
        .iter()
        .max_by_key(|d| d.depth)
        .expect("non-empty crawl");
    println!(
        "deepest discovery: {} first surfaced after {} discriminating refinements",
        deepest.tuple, deepest.depth
    );
}
