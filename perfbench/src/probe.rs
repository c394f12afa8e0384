//! The benchmark's own wrappers around the public seams of the stack.
//!
//! Every layer is measured from outside: [`Timed`] wraps a
//! [`HiddenDatabase`] connection, [`TimedConnector`] wraps a
//! [`Connector`] so each pool identity gets a [`Timed`] connection, and
//! [`TimedLease`] wraps a [`LeaseRepository`]. None of them changes a
//! query, an answer or a lease decision; the self-test in `main.rs`
//! checks that on every run.

use std::io;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hdc_coord::{LeaseDecision, LeaseRepository};
use hdc_core::{Connector, CrawlCheckpoint, CrawlRepository, ShardSnapshot};
use hdc_net::HttpDb;
use hdc_server::{ServerClient, ServerStats};
use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Schema};

/// Nanoseconds since the first call in this process: the common time
/// base of every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed call: `[start, start + dur)` on the [`now_ns`] clock.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub start: u64,
    pub dur: u64,
    /// Queries the call carried (1 for `query`, the batch length
    /// otherwise; 0 for control verbs).
    pub queries: u32,
}

impl Call {
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }
}

/// One recorded round trip: the queries sent and the outcomes received.
pub struct RoundTrip {
    pub batch: bool,
    pub queries: Vec<Query>,
    pub outcomes: Vec<QueryOutcome>,
}

/// Everything one wrapped connection saw, handed to its [`Sink`] when
/// the connection is dropped.
#[derive(Default)]
pub struct ConnRecord {
    pub identity: usize,
    pub calls: Vec<Call>,
    /// The in-process server's own counters, where the backend has them.
    pub stats: Option<ServerStats>,
    pub round_trips: Vec<RoundTrip>,
}

/// Where dropped connections leave their records.
#[derive(Default)]
pub struct Sink(Mutex<Vec<ConnRecord>>);

impl Sink {
    pub fn take(&self) -> Vec<ConnRecord> {
        std::mem::take(&mut *self.0.lock().expect("sink lock poisoned"))
    }
}

/// Backends whose server-side counters the benchmark can read.
pub trait Backend: HiddenDatabase {
    fn server_stats(&self) -> Option<ServerStats>;
}

impl Backend for ServerClient {
    fn server_stats(&self) -> Option<ServerStats> {
        Some(self.stats())
    }
}

impl Backend for HttpDb {
    fn server_stats(&self) -> Option<ServerStats> {
        None
    }
}

/// A connection that times every call and, when `record` is set, keeps
/// a copy of every round trip.
pub struct Timed<'s, D: Backend> {
    inner: D,
    sink: &'s Sink,
    record: bool,
    rec: ConnRecord,
}

impl<'s, D: Backend> Timed<'s, D> {
    pub fn new(inner: D, identity: usize, sink: &'s Sink, record: bool) -> Self {
        Timed {
            inner,
            sink,
            record,
            rec: ConnRecord {
                identity,
                ..ConnRecord::default()
            },
        }
    }

    fn timed<T>(&mut self, queries: u32, f: impl FnOnce(&mut D) -> T) -> T {
        let start = now_ns();
        let out = f(&mut self.inner);
        let dur = now_ns() - start;
        self.rec.calls.push(Call {
            start,
            dur,
            queries,
        });
        out
    }

    fn keep(&mut self, batch: bool, queries: &[Query], outcomes: &[QueryOutcome]) {
        if self.record {
            self.rec.round_trips.push(RoundTrip {
                batch,
                queries: queries.to_vec(),
                outcomes: outcomes.to_vec(),
            });
        }
    }
}

fn batch_len(qs: &[Query]) -> u32 {
    u32::try_from(qs.len()).unwrap_or(u32::MAX)
}

impl<D: Backend> HiddenDatabase for Timed<'_, D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        let out = self.timed(1, |db| db.query(q));
        if let Ok(o) = &out {
            self.keep(false, std::slice::from_ref(q), std::slice::from_ref(o));
        }
        out
    }

    fn query_batch(&mut self, qs: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        let out = self.timed(batch_len(qs), |db| db.query_batch(qs));
        if let Ok(outs) = &out {
            self.keep(true, qs, outs);
        }
        out
    }

    fn try_query_batch(&mut self, qs: &[Query]) -> (Vec<QueryOutcome>, Option<DbError>) {
        let (outs, err) = self.timed(batch_len(qs), |db| db.try_query_batch(qs));
        if err.is_none() {
            self.keep(true, qs, &outs);
        }
        (outs, err)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

impl<D: Backend> Drop for Timed<'_, D> {
    fn drop(&mut self) {
        let mut rec = std::mem::take(&mut self.rec);
        rec.stats = self.inner.server_stats();
        if let Ok(mut records) = self.sink.0.lock() {
            records.push(rec);
        }
    }
}

/// A [`Connector`] whose connections are [`Timed`].
pub struct TimedConnector<'a, C> {
    pub inner: &'a C,
    pub sink: &'a Sink,
    pub record: bool,
}

impl<'a, C> Connector for TimedConnector<'a, C>
where
    C: Connector,
    C::Db: Backend,
{
    type Db = Timed<'a, C::Db>;

    fn connect(&self, identity: usize) -> Self::Db {
        Timed::new(
            self.inner.connect(identity),
            identity,
            self.sink,
            self.record,
        )
    }
}

/// The lease verbs a worker speaks to its coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Lease,
    Heartbeat,
    Complete,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Lease => "lease",
            Verb::Heartbeat => "heartbeat",
            Verb::Complete => "complete",
        }
    }
}

/// One timed control round trip. `granted` is set on a lease that
/// handed out a shard.
#[derive(Clone, Copy, Debug)]
pub struct ControlCall {
    pub verb: Verb,
    pub call: Call,
    pub granted: bool,
}

/// A [`LeaseRepository`] that times every verb.
pub struct TimedLease<L> {
    inner: L,
    pub calls: Vec<ControlCall>,
}

impl<L: LeaseRepository> TimedLease<L> {
    pub fn new(inner: L) -> Self {
        TimedLease {
            inner,
            calls: Vec::new(),
        }
    }

    fn timed<T>(&mut self, verb: Verb, f: impl FnOnce(&mut L) -> io::Result<T>) -> io::Result<T> {
        let start = now_ns();
        let out = f(&mut self.inner);
        let dur = now_ns() - start;
        self.calls.push(ControlCall {
            verb,
            call: Call {
                start,
                dur,
                queries: 0,
            },
            granted: false,
        });
        out
    }
}

impl<L: LeaseRepository> CrawlRepository for TimedLease<L> {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        self.inner.load()
    }

    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        self.inner.store(checkpoint)
    }
}

impl<L: LeaseRepository> LeaseRepository for TimedLease<L> {
    fn plan(&mut self) -> io::Result<Vec<String>> {
        self.inner.plan()
    }

    fn lease(&mut self, worker: &str) -> io::Result<LeaseDecision> {
        let out = self.timed(Verb::Lease, |l| l.lease(worker));
        if let (Ok(LeaseDecision::Grant(_)), Some(last)) = (&out, self.calls.last_mut()) {
            last.granted = true;
        }
        out
    }

    fn heartbeat(
        &mut self,
        index: usize,
        lease: u64,
        partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool> {
        self.timed(Verb::Heartbeat, |l| l.heartbeat(index, lease, partial))
    }

    fn complete(
        &mut self,
        index: usize,
        lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        self.timed(Verb::Complete, |l| l.complete(index, lease, snapshot))
    }
}
