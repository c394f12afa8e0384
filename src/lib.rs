//! # hidden-db-crawler
//!
//! A complete implementation of *Optimal Algorithms for Crawling a Hidden
//! Database in the Web* (Sheng, Zhang, Tao, Jin; VLDB 2012,
//! arXiv:1208.0075): provably query-optimal algorithms that extract every
//! tuple from a database reachable only through a top-`k` search form.
//!
//! This crate is the facade over the workspace:
//!
//! * [`types`] — data model: schemas, tuples, predicates, queries, and the
//!   [`types::HiddenDatabase`] interface every crawler drives;
//! * [`server`] — a deterministic in-process hidden-database simulator
//!   with the exact top-`k` semantics of the paper (plus query budgets);
//! * [`data`] — synthetic stand-ins for the paper's evaluation datasets
//!   (Yahoo! Autos, NSF awards, Adult census) and the §4 adversarial
//!   lower-bound instances;
//! * [`core`] — the algorithms: `rank-shrink` (numeric, `O(d·n/k)`),
//!   `slice-cover`/`lazy-slice-cover` (categorical), `hybrid` (mixed), and
//!   the `binary-shrink`/`DFS` baselines;
//! * [`barrier`] — the second paper's crawler (Thirumuruganathan, Zhang &
//!   Das): rank-inference crawling beyond the k-visible frontier, with
//!   per-tuple discovery depths;
//! * [`net`] — the offline wire layer: serve a [`server::SharedServer`]
//!   over loopback HTTP/1.1 (`hdc serve`) and crawl it remotely through
//!   [`net::HttpConnector`], with the same bit-identical results.
//!
//! ## Quick start
//!
//! One entry point serves every crawl: [`core::Crawl::builder`] picks
//! the paper-correct algorithm for the schema under
//! [`core::Strategy::Auto`], applies budgets, fans out across client
//! identities, and streams events to a [`core::CrawlObserver`].
//!
//! ```
//! use hidden_db_crawler::prelude::*;
//!
//! // A small mixed-schema inventory, served behind a top-k interface.
//! let schema = Schema::builder()
//!     .categorical("color", 4)
//!     .numeric("price", 0, 10_000)
//!     .build()
//!     .unwrap();
//! let tuples: Vec<Tuple> = (0..500)
//!     .map(|i| Tuple::new(vec![Value::Cat(i % 4), Value::Int((i as i64 * 37) % 10_000)]))
//!     .collect();
//! let mut db = HiddenDbServer::new(schema, tuples.clone(),
//!     ServerConfig { k: 50, seed: 42 }).unwrap();
//!
//! // Crawl it completely: Auto resolves to the optimal mixed-space
//! // algorithm (§5 hybrid), with a query budget applied for free.
//! let report = Crawl::builder()
//!     .strategy(Strategy::Auto)
//!     .budget(100_000)
//!     .run(&mut db)
//!     .unwrap();
//! assert_eq!(report.tuples.len(), tuples.len());
//! verify_complete(&tuples, &report).unwrap();
//! println!("extracted {} tuples with {} queries", report.tuples.len(), report.queries);
//! ```
//!
//! The per-algorithm constructors ([`core::Hybrid::new`],
//! [`core::RankShrink::new`], …) remain as thin wrappers over the same
//! code paths — builder runs are bit-identical to them (differential
//! suite: `crates/core/tests/builder_equiv.rs`). See
//! `examples/builder_quickstart.rs` for streaming observers, early
//! termination at a coverage target, and multi-session fan-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdc_barrier as barrier;
pub use hdc_coord as coord;
pub use hdc_core as core;
pub use hdc_data as data;
pub use hdc_net as net;
pub use hdc_obs as obs;
pub use hdc_server as server;
pub use hdc_types as types;

/// One-line import for applications and examples.
pub mod prelude {
    pub use hdc_barrier::{BarrierCrawler, BarrierReport, Discovery, ShardedBarrierReport};
    pub use hdc_coord::{
        drive_worker, Coordinator, CoordinatorConfig, FleetOutcome, LeaseRepository,
        MemoryLeaseRepository, Restore, WireLeaseRepository, WorkerConfig, WorkerReport,
    };
    pub use hdc_core::{
        verify_complete, BinaryShrink, CancelToken, Connector, Crawl, CrawlBuilder,
        CrawlCheckpoint, CrawlError, CrawlMetrics, CrawlObserver, CrawlReport, CrawlRepository,
        Crawler, DatasetOracle, Dfs, Flow, Hybrid, JsonFileRepository, MemoryRepository,
        PairRuleOracle, ProgressPoint, ProgressRecorder, RankShrink, RetryPolicy, SessionConfig,
        ShardCrawler, ShardEvent, ShardSnapshot, Sharded, ShardedReport, SliceCover, Strategy,
        ValidityOracle,
    };
    pub use hdc_data::{Dataset, DatasetStats};
    pub use hdc_net::{
        serve, FaultPlan, HttpConnector, HttpDb, RouteExt, ServeOptions, WireServer,
    };
    pub use hdc_server::{Budgeted, HiddenDbServer, ServerClient, ServerConfig, SharedServer};
    pub use hdc_types::{
        AttrKind, DbError, FaultConfig, FaultyDb, HiddenDatabase, Predicate, Query, QueryOutcome,
        Schema, Tuple, TupleBag, Value,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let ds = hdc_data::hard::numeric_hard(4, 2, 3);
        let mut db = HiddenDbServer::new(
            ds.schema.clone(),
            ds.tuples.clone(),
            ServerConfig { k: 4, seed: 0 },
        )
        .unwrap();
        let report = RankShrink::new().crawl(&mut db).unwrap();
        verify_complete(&ds.tuples, &report).unwrap();
    }
}
