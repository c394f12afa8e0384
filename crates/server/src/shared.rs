//! One store, many clients: the concurrent shared-read front end.
//!
//! The column store, indexes, and priority order are immutable after
//! construction and the whole evaluation path takes `&self` (per-call
//! state lives in each client's session — see `server.rs`), so a single
//! store can answer any number of concurrent sessions without locks.
//! [`SharedServer`] owns the store behind an `Arc`; [`SharedServer::client`]
//! hands out [`ServerClient`] handles, each with its **own**
//! [`ServerStats`] and scratch buffers, each implementing
//! [`HiddenDatabase`]. A handle is `Send`, so clients can be moved onto
//! threads or sharded-crawl workers; the store is shared by reference, never
//! copied. A wire server mints one [`ConnectionClient`] per connection
//! ([`SharedServer::connection`]), which answers with pre-encoded row
//! fragments instead of tuples.
//!
//! # Isolation contract
//!
//! Clients are isolated structurally, not by synchronization: nothing a
//! client does — issuing queries, exhausting a [`Budgeted`] quota,
//! failing validation — can perturb another client's outcomes, charge
//! accounting, or statistics. Responses are bit-identical to a private
//! [`HiddenDbServer`](crate::HiddenDbServer) over the same data and
//! seed, regardless of thread interleaving; `tests/shared_read.rs`
//! proves both properties differentially.
//!
//! # Migrating from clone-per-client
//!
//! ```
//! use hdc_server::{HiddenDbServer, ServerConfig, SharedServer};
//! use hdc_types::tuple::int_tuple;
//! use hdc_types::{HiddenDatabase, Query, Schema};
//!
//! let schema = Schema::builder().numeric("a", 0, 99).build().unwrap();
//! let rows: Vec<_> = (0..100).map(|x| int_tuple(&[x])).collect();
//!
//! // Before: one full server (store + indexes) per client.
//! let mut a = HiddenDbServer::new(schema.clone(), rows.clone(),
//!     ServerConfig { k: 10, seed: 7 }).unwrap();
//!
//! // After: build once, share the store, one lightweight handle per
//! // client.
//! let shared = SharedServer::new(schema, rows, ServerConfig { k: 10, seed: 7 }).unwrap();
//! let mut b = shared.client();
//! let mut c = shared.client_with_budget(5);
//!
//! let q = Query::any(1);
//! assert_eq!(a.query(&q).unwrap(), b.query(&q).unwrap());
//! assert_eq!(b.query(&q).unwrap(), c.query(&q).unwrap());
//! assert_eq!(b.queries_issued(), 2); // b's account, untouched by a or c
//! ```

use std::sync::Arc;

use hdc_types::{Budgeted, DbError, HiddenDatabase, Query, QueryOutcome, Schema, SchemaError, Tuple};

use crate::engine::Strategy;
use crate::row_table::Answer;
use crate::server::{ClientSession, ServerCore};
use crate::stats::ServerStats;

/// A handle on one shared, immutable store, from which any number of
/// concurrent [`ServerClient`]s are minted.
///
/// Cloning a `SharedServer` clones the `Arc`, not the store. See the
/// [module docs](self) for the isolation contract and a migration
/// example.
#[derive(Clone, Debug)]
pub struct SharedServer {
    core: Arc<ServerCore>,
}

impl SharedServer {
    /// Builds the store once (seeded random priorities, same as
    /// [`HiddenDbServer::new`](crate::HiddenDbServer::new)) and wraps it
    /// for sharing.
    pub fn new(
        schema: Schema,
        tuples: Vec<Tuple>,
        config: crate::ServerConfig,
    ) -> Result<Self, SchemaError> {
        let order = ServerCore::shuffled_order(tuples.len(), config.seed);
        Ok(SharedServer {
            core: Arc::new(ServerCore::with_order(schema, tuples, config.k, order)?),
        })
    }

    /// Wraps an already-built core (used by
    /// [`HiddenDbServer::share`](crate::HiddenDbServer::share)).
    pub(crate) fn from_core(core: Arc<ServerCore>) -> Self {
        SharedServer { core }
    }

    /// A new client of this store, with fresh statistics and scratch
    /// space. Cheap: the store is borrowed via `Arc`, never copied.
    pub fn client(&self) -> ServerClient {
        ServerClient {
            core: Arc::clone(&self.core),
            session: ClientSession::default(),
        }
    }

    /// A new client with a per-client query quota: after `limit`
    /// successful queries the client fails with
    /// [`DbError::BudgetExhausted`] — without affecting any other
    /// client's quota, statistics, or results.
    pub fn client_with_budget(&self, limit: u64) -> Budgeted<ServerClient> {
        Budgeted::new(self.client(), limit)
    }

    /// A wire connection's client, optionally with a query quota: the
    /// serve handler's seam. A wire front end (`hdc-net`) mints one per
    /// accepted connection, giving every remote identity its own
    /// isolated session and its own quota. See [`ConnectionClient`].
    pub fn connection(&self, budget: Option<u64>) -> ConnectionClient {
        ConnectionClient {
            core: Arc::clone(&self.core),
            session: ClientSession::default(),
            quota: budget.map(|limit| Quota { limit, issued: 0 }),
        }
    }

    /// Whether a wire query has built the store's row table yet (see
    /// [`crate::row_table`]). In-process clients never build it.
    pub fn row_table_built(&self) -> bool {
        self.core.row_table_built()
    }

    /// Number of tuples `n` in the shared store.
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// The store's result-size limit `k`.
    pub fn k(&self) -> usize {
        self.core.k()
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        self.core.schema()
    }

    /// The stored rows in priority order. Experiment bookkeeping only.
    pub fn rows(&self) -> &[Tuple] {
        self.core.rows()
    }

    /// True if Problem 1 is solvable on this database (§1.1).
    pub fn is_crawlable(&self) -> bool {
        self.core.is_crawlable()
    }

    /// Number of live handles on the store (clients plus `SharedServer`
    /// clones plus sharing [`HiddenDbServer`](crate::HiddenDbServer)s).
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.core)
    }
}

/// One client's connection to a [`SharedServer`]'s store: a borrowed
/// (`Arc`) view of the immutable store plus this client's own
/// [`ServerStats`] and scratch buffers.
///
/// Implements [`HiddenDatabase`], so every crawler, decorator
/// ([`Budgeted`], `FaultyDb`), and the sharded crawl's
/// workers run against it unchanged — `query` still takes `&mut self`, but
/// the mutation is confined to this client's session, which is what
/// makes many clients per store sound.
#[derive(Debug)]
pub struct ServerClient {
    core: Arc<ServerCore>,
    session: ClientSession,
}

impl ServerClient {
    /// This client's statistics (queries, plan decisions, batch
    /// counters). Other clients of the same store never show up here.
    pub fn stats(&self) -> ServerStats {
        self.session.stats()
    }

    /// Resets this client's statistics.
    pub fn reset_stats(&mut self) {
        self.session.reset_stats();
    }

    /// Evaluates with a **forced** engine strategy, bypassing statistics
    /// (the differential-testing hook, identical to
    /// [`HiddenDbServer::query_with_strategy`](crate::HiddenDbServer::query_with_strategy)).
    pub fn query_with_strategy(
        &self,
        q: &Query,
        strategy: Strategy,
    ) -> Result<QueryOutcome, DbError> {
        self.core.query_with_strategy(q, strategy)
    }
}

impl HiddenDatabase for ServerClient {
    fn schema(&self) -> &Schema {
        self.core.schema()
    }

    fn k(&self) -> usize {
        self.core.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        self.core.query(q, &mut self.session)
    }

    /// One-pass batch evaluation with grouped probes, same engine pass
    /// as [`HiddenDbServer::query_batch`](crate::HiddenDbServer);
    /// validated up front, each query charged to this client.
    fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        self.core.query_batch(queries, &mut self.session)
    }

    fn try_query_batch(&mut self, queries: &[Query]) -> (Vec<QueryOutcome>, Option<DbError>) {
        match self.query_batch(queries) {
            Ok(outs) => (outs, None),
            Err(e) => (Vec::new(), Some(e)),
        }
    }

    fn queries_issued(&self) -> u64 {
        self.session.stats().queries
    }
}

/// One wire connection's client of a [`SharedServer`]'s store: its own
/// session, an optional query quota, and answers as pre-encoded row
/// fragments ([`Answer`]) instead of tuples.
///
/// The first query any connection of a store answers builds the store's
/// row table ([`crate::row_table`]); every later answer borrows fragments
/// from it.
///
/// # Quota
///
/// With a quota, a connection charges and fails exactly like
/// [`Budgeted`] around a [`ServerClient`], whose batches go through the
/// trait's per-query loop: each query that would be answered is
/// charged; once `limit` queries are charged, the next fails with
/// [`DbError::BudgetExhausted`]; an invalid query fails uncharged. A
/// batch that fails partway answers nothing, yet its prefix stays
/// charged, as in that loop. A batch that succeeds runs as one engine
/// pass, with or without a quota (its answers are the per-query loop's,
/// bit for bit).
#[derive(Debug)]
pub struct ConnectionClient {
    core: Arc<ServerCore>,
    session: ClientSession,
    quota: Option<Quota>,
}

#[derive(Debug)]
struct Quota {
    limit: u64,
    issued: u64,
}

impl ConnectionClient {
    /// Answers one query.
    pub fn query(&mut self, q: &Query) -> Result<Answer<'_>, DbError> {
        Ok(self
            .query_batch(std::slice::from_ref(q))?
            .next()
            .expect("one answer per query"))
    }

    /// Answers a batch: one answer per query, in order, or one error.
    pub fn query_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<impl ExactSizeIterator<Item = Answer<'_>>, DbError> {
        if let Some(quota) = &mut self.quota {
            // The per-query loop, minus evaluation: charge each query it
            // would answer, and stop where it would fail.
            for q in queries {
                if quota.issued >= quota.limit {
                    return Err(DbError::BudgetExhausted {
                        issued: quota.issued,
                        limit: quota.limit,
                    });
                }
                q.validate(self.core.schema())?;
                quota.issued += 1;
            }
        }
        let core = &*self.core;
        let table = core.row_table();
        Ok(core
            .query_rows(queries, &mut self.session)?
            .map(move |(ids, overflow)| Answer::new(table, ids, overflow)))
    }

    /// Queries charged to this connection: with a quota, the quota's
    /// count; without one, every query answered.
    pub fn queries_issued(&self) -> u64 {
        match &self.quota {
            Some(quota) => quota.issued,
            None => self.session.stats().queries,
        }
    }
}

// The whole point: a store handle can be shared across threads, and a
// client can be moved onto one. Compile-time proof.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<SharedServer>();
    assert_send::<ServerClient>();
    assert_send::<Budgeted<ServerClient>>();
    assert_send::<ConnectionClient>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::int_tuple;

    fn fixture() -> (Schema, Vec<Tuple>) {
        let schema = Schema::builder().numeric("a", 0, 200).build().unwrap();
        let rows = (0..150).map(|x| int_tuple(&[x % 201])).collect();
        (schema, rows)
    }

    #[test]
    fn clients_match_private_server_bit_for_bit() {
        let (schema, rows) = fixture();
        let cfg = ServerConfig { k: 8, seed: 42 };
        let mut solo = HiddenDbServer::new(schema.clone(), rows.clone(), cfg).unwrap();
        let shared = SharedServer::new(schema, rows, cfg).unwrap();
        let mut client = shared.client();
        for lo in (0..200).step_by(13) {
            let q = Query::new(vec![hdc_types::Predicate::Range { lo, hi: lo + 40 }]);
            assert_eq!(solo.query(&q).unwrap(), client.query(&q).unwrap());
        }
        assert_eq!(solo.stats(), client.stats());
    }

    #[test]
    fn share_reuses_the_store() {
        let (schema, rows) = fixture();
        let server =
            HiddenDbServer::new(schema, rows, ServerConfig { k: 8, seed: 1 }).unwrap();
        let shared = server.share();
        assert_eq!(shared.handles(), 2); // server + shared
        let mut c = shared.client();
        assert_eq!(shared.handles(), 3);
        assert_eq!(c.query(&Query::any(1)).unwrap().len(), 8);
        assert_eq!(server.stats().queries, 0, "server's account untouched");
        assert_eq!(c.stats().queries, 1);
    }

    #[test]
    fn budgeted_client_exhausts_alone() {
        let (schema, rows) = fixture();
        let shared = SharedServer::new(schema, rows, ServerConfig { k: 8, seed: 1 }).unwrap();
        let mut poor = shared.client_with_budget(2);
        let mut rich = shared.client();
        let q = Query::any(1);
        poor.query(&q).unwrap();
        poor.query(&q).unwrap();
        assert!(matches!(
            poor.query(&q),
            Err(DbError::BudgetExhausted { .. })
        ));
        // The other client is unaffected, before and after exhaustion.
        for _ in 0..5 {
            rich.query(&q).unwrap();
        }
        assert_eq!(rich.queries_issued(), 5);
        assert_eq!(poor.inner().queries_issued(), 2);
    }
}
