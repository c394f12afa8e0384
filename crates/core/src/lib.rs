//! Crawling algorithms from *Optimal Algorithms for Crawling a Hidden
//! Database in the Web* (Sheng, Zhang, Tao, Jin; VLDB 2012).
//!
//! Given only the top-`k` query interface of a hidden database
//! ([`hdc_types::HiddenDatabase`]), these algorithms extract the complete
//! tuple bag while minimizing the number of queries — the paper's Problem 1.
//!
//! # Algorithms
//!
//! | type | algorithm | paper § | worst-case cost |
//! |------|-----------|---------|------------------|
//! | numeric | [`BinaryShrink`] (baseline) | 2.1 | depends on domain width |
//! | numeric | [`RankShrink`] | 2.2–2.3 | `O(d·n/k)` — optimal |
//! | categorical | [`Dfs`] (baseline, from \[15\]) | 3.1 | exponential in the worst case |
//! | categorical | [`SliceCover`] (eager or lazy) | 3.2 | `Σ Ui + (n/k)·Σ min{Ui, n/k}` — optimal |
//! | mixed | [`Hybrid`] | 5 | categorical bound + `O((d−cat)·n/k)` — optimal |
//!
//! # Usage
//!
//! The one-stop entry point is [`Crawl::builder`] ([`orchestrate`]
//! module): it resolves [`Strategy::Auto`] to the paper's choice for the
//! schema, applies budgets, routes multi-session crawls through the
//! work-stealing shard pool ([`sharded`] module), and streams crawl
//! events to a [`CrawlObserver`] (with observer-driven early
//! termination).
//!
//! ```
//! use hdc_core::{Crawl, Strategy};
//! use hdc_server::{HiddenDbServer, ServerConfig};
//! use hdc_types::tuple::int_tuple;
//! use hdc_types::Schema;
//!
//! let schema = Schema::builder().numeric("x", 0, 999).build().unwrap();
//! let rows: Vec<_> = (0..500).map(|v| int_tuple(&[v])).collect();
//! let mut db =
//!     HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 16, seed: 7 }).unwrap();
//!
//! // Auto resolves to rank-shrink on this numeric schema.
//! let report = Crawl::builder().strategy(Strategy::Auto).run(&mut db).unwrap();
//! assert_eq!(report.algorithm, "rank-shrink");
//! assert_eq!(report.tuples.len(), rows.len());          // every tuple extracted
//! assert!(report.queries < 500);                         // with far fewer queries
//! ```
//!
//! The per-algorithm constructors (`RankShrink::new().crawl(&mut db)`,
//! …) remain as thin wrappers over the same code paths, proven
//! bit-identical to the builder by the `builder_equiv` differential
//! suite.
//!
//! Every crawl returns a [`CrawlReport`] carrying the extracted bag, the
//! query count (the paper's cost metric), and the progress curve used for
//! the Figure 13 progressiveness experiment. Failures ([`CrawlError`])
//! carry the partial report, so budget-limited crawls keep what they paid
//! for — as do observer-stopped crawls ([`CrawlError::Stopped`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categorical;
pub mod connector;
pub mod crawler;
pub mod dependency;
pub mod events;
pub mod hybrid;
pub mod numeric;
pub mod orchestrate;
pub mod report;
pub mod repository;
pub mod retry;
pub mod session;
pub mod sharded;
pub mod theory;
pub mod validate;

pub use categorical::dfs::Dfs;
pub use categorical::slice_cover::SliceCover;
pub use connector::Connector;
pub use crawler::Crawler;
pub use dependency::{DatasetOracle, PairRuleOracle, ValidityOracle};
pub use events::{ChannelObserver, EventSink, SessionEvent, EVENT_CHANNEL_CAPACITY};
pub use hybrid::Hybrid;
pub use numeric::binary_shrink::BinaryShrink;
pub use numeric::rank_shrink::RankShrink;
pub use orchestrate::{
    CancelToken, Crawl, CrawlBuilder, CrawlObserver, Flow, ProgressRecorder, ShardCrawler,
    ShardEvent, Strategy,
};
pub use report::{CrawlError, CrawlMetrics, CrawlReport, ProgressPoint};
pub use repository::{
    CrawlCheckpoint, CrawlRepository, JsonFileRepository, MemoryRepository, RepositoryError,
    ShardSnapshot,
};
pub use retry::RetryPolicy;
pub use session::{run_crawl, Abort, Session, SessionConfig, MAX_BATCH};
pub use sharded::{
    snapshot_of_report, PoolStats, ShardRun, ShardSpec, Sharded, ShardedReport, TaskSource,
    WorkerStats,
};
pub use validate::verify_complete;
