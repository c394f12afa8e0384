//! The connection seam between the orchestration layer and a backend:
//! how a crawl acquires one [`HiddenDatabase`] handle *per client
//! identity*.
//!
//! [`CrawlBuilder::run_sharded`](crate::Crawl) historically took a bare
//! `Fn(usize) -> D` factory closure. That shape is preserved — every
//! closure implements [`Connector`] through the blanket impl below — but
//! the trait gives transports (a socket pool, a rate-limited HTTP
//! client, a proxy rotator) a named home: a `Connector` owns whatever
//! shared state the identities need (endpoint address, timeouts, token
//! buckets) and [`Connector::connect`] mints identity `s`'s private
//! connection.
//!
//! # Contract
//!
//! - All connections returned by one connector must view the **same
//!   logical database** (same schema, same `k`, same tuple bag): the
//!   sharded plan partitions the value space assuming every identity
//!   sees identical query answers.
//! - `connect` may be called from multiple pool threads concurrently
//!   (hence `Sync`), and may be called more than once per identity
//!   (the probe connection that fetches the schema is connect-and-drop).
//! - The returned database is moved onto a worker thread (hence
//!   `Send`), where it is used single-threaded.
//!
//! # Migrating a closure
//!
//! Nothing to do: `|s| make_db(s)` *is* a connector. Name the seam only
//! when you have connection state to carry:
//!
//! ```
//! use hdc_core::{Connector, Crawl};
//! use hdc_server::{ServerClient, ServerConfig, SharedServer};
//! use hdc_types::tuple::int_tuple;
//! use hdc_types::Schema;
//!
//! struct SharedConnector(SharedServer);
//! impl Connector for SharedConnector {
//!     type Db = ServerClient;
//!     fn connect(&self, _identity: usize) -> ServerClient {
//!         self.0.client()
//!     }
//! }
//!
//! let schema = Schema::builder().numeric("x", 0, 99).build().unwrap();
//! let rows: Vec<_> = (0..60).map(|v| int_tuple(&[v])).collect();
//! let shared = SharedServer::new(schema, rows, ServerConfig { k: 8, seed: 3 }).unwrap();
//!
//! let via_trait = Crawl::builder()
//!     .sessions(2)
//!     .run_sharded(SharedConnector(shared.clone()))
//!     .unwrap();
//! // The closure spelling still compiles, and is the same crawl.
//! let via_closure = Crawl::builder()
//!     .sessions(2)
//!     .run_sharded(|_s| shared.client())
//!     .unwrap();
//! assert_eq!(via_trait.merged.tuples.len(), via_closure.merged.tuples.len());
//! ```

use hdc_types::HiddenDatabase;

/// Mints one private [`HiddenDatabase`] connection per client identity
/// for [`CrawlBuilder::run_sharded`](crate::Crawl).
///
/// See the [module docs](self) for the contract and the migration story
/// from bare `Fn(usize) -> D` closures (which implement this trait
/// automatically).
pub trait Connector: Sync {
    /// The connection type handed to each identity's sessions.
    type Db: HiddenDatabase + Send;

    /// Opens identity `identity`'s own connection. Identities are dense
    /// `0..sessions`; identity `0` is also used for the schema probe.
    fn connect(&self, identity: usize) -> Self::Db;
}

/// Every factory closure is a connector: `|s| make_db(s)`.
impl<D, F> Connector for F
where
    D: HiddenDatabase + Send,
    F: Fn(usize) -> D + Sync,
{
    type Db = D;

    fn connect(&self, identity: usize) -> D {
        self(identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::{QueryOutcome, Schema};

    struct NullDb(Schema);
    impl HiddenDatabase for NullDb {
        fn schema(&self) -> &Schema {
            &self.0
        }
        fn k(&self) -> usize {
            1
        }
        fn query(&mut self, _q: &hdc_types::Query) -> Result<QueryOutcome, hdc_types::DbError> {
            Ok(QueryOutcome {
                tuples: Vec::new(),
                overflow: false,
            })
        }
        fn queries_issued(&self) -> u64 {
            0
        }
    }

    #[test]
    fn closures_are_connectors() {
        fn takes_connector<C: Connector>(c: C) -> usize {
            c.connect(7);
            7
        }
        let schema = Schema::builder().numeric("x", 0, 9).build().unwrap();
        assert_eq!(takes_connector(move |_s| NullDb(schema.clone())), 7);
    }
}
