//! The **top-k-barrier crawler**: rank-inference crawling beyond the
//! k-visible frontier, after *Digging Deeper into Deep Web Databases by
//! Breaking Through the Top-k Barrier* (Thirumuruganathan, Zhang & Das;
//! arXiv:1208.3876).
//!
//! # The barrier
//!
//! A top-`k` front end ranks every tuple by a hidden scoring function and
//! answers a query with only the `k` highest-ranked matches. For any
//! query that overflows, everything ranked below position `k` is
//! invisible — the **top-k barrier**. The first paper in this workspace
//! (Sheng et al., `hdc-core`) crawls the *whole database* optimally;
//! Thirumuruganathan et al. study the barrier itself: how to surface the
//! tuples a given query hides, by issuing **discriminating queries** —
//! refinements whose extra predicates *demote* the known high-ranked
//! tuples out of the result window so that lower-ranked tuples bubble up
//! into view.
//!
//! # This implementation
//!
//! [`BarrierCrawler`] runs the rank-inference scheme against the
//! workspace's [`hdc_types::HiddenDatabase`] interface (a static hidden
//! ranking, the setting of both papers' experiments). From an
//! overflowing query it reads the k-visible window and constructs
//! discriminating children from the window itself:
//!
//! * on a **numeric** attribute it pivots at the window's median value
//!   (rank-shrink style): each sub-range excludes — demotes — every
//!   visible tuple on the other side, so roughly half the window's
//!   occupants vacate their result slots;
//! * on a **categorical** attribute it pins each domain value: the child
//!   `Ai = v` demotes every visible tuple with `Ai ≠ v` at once.
//!
//! The attribute is chosen by **demotion yield per probe**: the window's
//! distinct values on the candidate divided by the probes discriminating
//! on it costs (one per domain value for a pin, two or three for a
//! pivot; ties to schema order) — the predicate family that evicts the
//! most window occupants per query paid, which keeps 30k-value ID-like
//! attributes from being expanded one probe per domain value. Children
//! are issued through the shared session layer
//! ([`hdc_core::Session::run_batch`]) in [`hdc_core::MAX_BATCH`]-sized
//! sibling windows, so the server's batch path sees the same
//! traffic shape as the first paper's crawlers — with a different mix:
//! no slice preprocessing, every probe window-guided (`BENCH_pr4.json`
//! records the volume side by side with Hybrid's on identical data).
//!
//! Every response is also mined for **discovery depth**: the number of
//! discriminating refinements stacked below the root before a tuple
//! first became visible. Depth 0 is the root's own k-visible frontier;
//! every deeper tuple is one the barrier hid. [`BarrierReport`] carries
//! the per-tuple depths alongside the usual
//! [`hdc_core::CrawlReport`] accounting.
//!
//! # Integration
//!
//! * [`BarrierCrawler`] implements [`hdc_core::Crawler`], so it slots
//!   into every existing harness (CLI sweeps, budget decorators,
//!   recorders).
//! * [`BarrierCrawler`] implements [`hdc_core::ShardCrawler`], so it runs
//!   inside one [`hdc_core::ShardSpec`] subspace and rides the crawl
//!   builder's `Strategy::Custom` path, solo or sharded; and
//!   [`BarrierCrawler::crawl_sharded`] is that sharded run — through
//!   [`hdc_core::CrawlBuilder::run_sharded`], the pool's one driver, so
//!   the same plans, retirement and salvage semantics, and determinism
//!   contract as the hybrid crawler — keeping the merged discovery-depth
//!   histogram.
//! * Query accounting reuses [`hdc_core::CrawlMetrics`]: discriminating
//!   expansions are tallied in `barrier_pivots`, below-frontier
//!   discoveries in `barrier_deep_tuples`, so sharded merges aggregate
//!   them like every other counter.
//!
//! ```
//! use hdc_barrier::BarrierCrawler;
//! use hdc_core::SessionConfig;
//! use hdc_server::{HiddenDbServer, ServerConfig};
//! use hdc_types::tuple::int_tuple;
//! use hdc_types::Schema;
//!
//! let schema = Schema::builder().numeric("price", 0, 999).build().unwrap();
//! let rows: Vec<_> = (0..300).map(|v| int_tuple(&[v * 3])).collect();
//! let mut db =
//!     HiddenDbServer::new(schema, rows.clone(), ServerConfig { k: 20, seed: 9 }).unwrap();
//!
//! let out = BarrierCrawler::new()
//!     .crawl_report(&mut db, SessionConfig::default())
//!     .unwrap();
//! assert_eq!(out.report.tuples.len(), rows.len());   // the whole bag recovered
//! assert_eq!(out.frontier(), 20);                    // k tuples were visible at the root
//! assert_eq!(out.beyond_frontier(), 280);            // the rest hid behind the barrier
//! assert!(out.max_depth >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crawler;
pub mod report;

pub use crawler::BarrierCrawler;
pub use report::{BarrierReport, Discovery, ShardedBarrierReport};
