//! One store, many clients: serving concurrent top-k traffic.
//!
//! The columnar store is immutable after load and the whole evaluation
//! path is `&self`, so a single `SharedServer` can answer any number of
//! concurrent sessions — each `client()` handle carries only its own
//! statistics, quota, and scratch buffers. This example serves a burst
//! of front-end threads from one store, then runs a sharded crawl whose
//! identities are clients of the same store instead of per-identity
//! clones of the data.
//!
//! Run with: `cargo run --release --example shared_serving`

use std::thread;

use hidden_db_crawler::data::yahoo;
use hidden_db_crawler::prelude::*;

fn main() {
    let ds = yahoo::generate(12);
    let k = 256;
    let shared = SharedServer::new(
        ds.schema.clone(),
        ds.tuples.clone(),
        ServerConfig { k, seed: 9 },
    )
    .expect("valid database");
    println!(
        "dataset: {} — n = {}, d = {}, k = {k}, one store",
        ds.name,
        ds.n(),
        ds.d()
    );

    // Front-end traffic: eight threads, each its own client with its own
    // quota, hammering the same store concurrently.
    let num = *ds
        .schema
        .num_indices()
        .first()
        .expect("yahoo has numeric attrs");
    let AttrKind::Numeric { min, max } = ds.schema.kind(num) else {
        unreachable!()
    };
    let answered: u64 = thread::scope(|s| {
        let handles: Vec<_> = (0..8usize)
            .map(|c| {
                let mut client = shared.client_with_budget(500);
                let arity = ds.schema.arity();
                s.spawn(move || {
                    let mut served = 0u64;
                    for i in 0..400i64 {
                        let width = (max - min) / (2 + (c as i64 + i) % 7);
                        let lo = min + (i * 37) % (max - min - width).max(1);
                        let mut preds = vec![Predicate::Any; arity];
                        preds[num] = Predicate::Range { lo, hi: lo + width };
                        match client.query(&Query::new(preds)) {
                            Ok(_) => served += 1,
                            Err(DbError::BudgetExhausted { .. }) => break,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    println!("served {answered} queries across 8 concurrent budgeted clients");

    // The same store now backs a sharded crawl: identities are clients,
    // not clones, and the result is bit-identical to the clone-path.
    let report = Crawl::builder()
        .strategy(Strategy::Auto)
        .sessions(4)
        .run_sharded(|_identity| shared.client())
        .expect("crawl succeeds");
    verify_complete(&ds.tuples, &report.merged).expect("complete");
    println!(
        "sharded crawl over the shared store: {} tuples in {} queries ({} shards)",
        report.merged.tuples.len(),
        report.merged.queries,
        report.shards.len()
    );
}
