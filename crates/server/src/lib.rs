//! Deterministic top-`k` hidden-database server simulator.
//!
//! This crate plays the role of the web site hosting a hidden database. It
//! implements the interface model of §1.1 of *Optimal Algorithms for
//! Crawling a Hidden Database in the Web* (VLDB 2012) exactly:
//!
//! * every query returns either its complete result (when it has at most
//!   `k` tuples — the query **resolves**) or a fixed set of `k` tuples plus
//!   an overflow flag (the query **overflows**);
//! * which `k` tuples an overflowing query returns is decided by a static
//!   priority over the tuples, mirroring the ranking functions of real
//!   sites: the paper's own experimental setup assigns "each tuple …
//!   a random priority, so that if a query overflows, always the `k` tuples
//!   with the highest priorities are returned";
//! * repeating a query yields a bit-identical response — the server never
//!   volunteers new tuples.
//!
//! # The columnar query engine
//!
//! Every experiment is measured in queries against this server — a single
//! figure replays on the order of 10⁵ queries, the ablations millions —
//! so per-query latency decides whether the whole harness is tractable.
//! Queries are answered by a columnar engine (`engine.rs`) built at
//! construction:
//!
//! * **Store layout** — rows are decomposed into a structure-of-arrays
//!   `ColumnStore` (`store.rs`): one primitive `Vec<i64>` / `Vec<u32>` per
//!   attribute, in priority order, so predicate checks are tight loops
//!   over contiguous memory instead of per-`Tuple` `Value`-enum matches.
//!   Alongside it, per-column indexes (inverted lists for categorical
//!   attributes, value-sorted arrays for numeric ones) measure exact
//!   predicate selectivities and serve candidate row-id lists.
//!   Queries pinning every categorical attribute run on a derived *cell*
//!   column, and those that also carry numeric ranges read only the
//!   pinned cell's rows, from a per-cell numeric order (`cell_order.rs`,
//!   4 B per row per numeric attribute) built lazily by the first such
//!   query.
//! * **Planner strategies** — a cost-based planner picks per query among
//!   a columnar **scan** (tight single-slice walk), a single index
//!   **probe** with O(1) columnar residual checks (chosen for selective
//!   conjunctions too: measurement showed the O(1) check beats reading a
//!   second sorted list on this store), and a multi-predicate
//!   **intersect** for dense conjunctions, which ANDs *all* predicates'
//!   candidate sets as 4096-row bitset blocks built straight from the
//!   column slices. Every strategy is forceable via
//!   [`HiddenDbServer::query_with_strategy`] for differential tests.
//!   Equal-selectivity ties break toward the lower attribute index, so
//!   planning is deterministic; each decision is recorded in
//!   [`ServerStats`].
//! * **Zero-clone materialization** — `Tuple` is `Arc`-backed, so query
//!   responses are reference-count bumps on the shared priority-ordered
//!   row table rather than deep copies.
//! * **Batch evaluation** — crawl algorithms issue bursts of sibling
//!   queries (the slice fetches under one extended-DFS node, the two or
//!   three probes of a rank-shrink split), and
//!   `HiddenDatabase::query_batch` hands the whole burst to the engine
//!   at once. Each query is planned on its own, and probes sharing
//!   their driver plus at least one residual become a *grouped probe* —
//!   one walk over the driver's list with the shared residuals checked
//!   once per candidate; every other query runs its solo executor.
//!   Empty batches return nothing and singletons delegate to the
//!   single-query path, so batching never costs more than the loop it
//!   replaces. Batch decisions are recorded in [`ServerStats`].
//!   Perfbench's `solo_large` workload measures the engine.
//! * **Determinism contract** — all three strategies *and the batch
//!   path* return bit-identical outcomes, property-tested against each
//!   other, against the seed's row-at-a-time evaluator (kept in `eval.rs`
//!   as `LegacyEvaluator`), and against a brute-force oracle
//!   (`tests/engine_prop.rs`): `query_batch(qs)?[i]` equals
//!   `query(&qs[i])?` issued at the same point of the session, including
//!   duplicate queries within one batch. Whatever the planner picks, the
//!   adversary's answers never change — the assumption under which the
//!   paper's bounds are proven.
//!
//! # Serving many clients from one store
//!
//! Everything above is immutable after construction and evaluated
//! through `&self`; the only mutable per-call state — [`ServerStats`]
//! and the engine's scratch buffers — lives in a per-client session.
//! [`SharedServer`] exploits that split: it holds the store behind an
//! `Arc` and mints lightweight [`ServerClient`] handles (each with its
//! own session, each implementing `HiddenDatabase`), so N threads can
//! hammer one store concurrently with structural — not locked — client
//! isolation, and responses bit-identical to a private server
//! (`tests/shared_read.rs`). [`HiddenDbServer`] itself is one core plus
//! one session, and [`HiddenDbServer::share`] opens an existing
//! server's store for sharing.
//!
//! A wire front end mints a [`ConnectionClient`] per connection
//! ([`SharedServer::connection`]) instead: the same session, an optional
//! quota, and answers as pre-encoded row fragments ([`Answer`]) taken
//! from a [`row_table`] the core builds on its first wire query.
//!
//! [`Budgeted`] decorates any [`hdc_types::HiddenDatabase`] with the query
//! quota real sites impose per client. It deliberately does *not*
//! override `query_batch`: the trait's default loop gives it exact
//! per-query semantics — the budget charges and stops at the precise
//! query — at the cost of bypassing the engine's batch sharing. Wrap the
//! bare server when throughput matters; wrap the decorator when quotas
//! do. A crawl that runs out of quota resumes from a checkpoint
//! (`hdc_core::CrawlRepository`), not from recorded responses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod cell_order;
mod engine;
mod eval;
mod index;
pub mod row_table;
pub mod server;
pub mod shared;
pub mod stats;
mod store;

pub use budget::Budgeted;
pub use engine::Strategy;
pub use eval::LegacyEvaluator;
pub use row_table::Answer;
pub use server::{HiddenDbServer, ServerConfig};
pub use shared::{ConnectionClient, ServerClient, SharedServer};
pub use stats::ServerStats;
