//! The three closed-loop crawl workloads.
//!
//! Each workload owns its store and, where it has one, its loopback
//! server. [`Workload::crawl`] runs one complete crawl through the
//! benchmark's wrappers and returns the report together with every call
//! the wrappers saw; `main.rs` verifies the report and keeps the
//! numbers. Every input is a pure function of the workload seed.

use std::sync::Arc;
use std::time::Duration;

use hdc_coord::{
    drive_worker, Coordinator, CoordinatorConfig, LeaseRepository, MemoryLeaseRepository,
    WireLeaseRepository, WorkerConfig, WorkerReport,
};
use hdc_core::{Crawl, CrawlMetrics, CrawlReport, PoolStats, ShardSpec, Sharded};
use hdc_net::{HttpConnector, RouteExt, ServeOptions, WireServer};
use hdc_server::{ServerConfig, SharedServer};
use hdc_types::{HiddenDatabase, Schema, Tuple};

use crate::probe::{
    now_ns, Call, ConnRecord, ControlCall, Sink, Timed, TimedConnector, TimedLease, Verb,
};

/// Every store answers at most `k` tuples per query.
pub const K: usize = 128;
/// Sessions (pool identities or fleet workers) of the two wire
/// workloads: the container's core count.
pub const SESSIONS: usize = 2;
/// `solo_large`'s store size: far larger than CPU cache.
const SOLO_N: usize = 400_000;
/// `wire_skewed`'s over-partitioning factor (82 shards on Adult).
const WIRE_OVERSUBSCRIBE: usize = 24;
/// `fleet_wire`'s store size and fixed plan, as in `BENCH_pr10.json`.
const FLEET_N: usize = 12_000;
const FLEET_PLAN: (usize, usize) = (8, 2);
/// A worker that finds every pending shard leased re-asks at least this
/// often.
const FLEET_WAIT_CAP_MS: u64 = 10;

pub const NAMES: [&str; 3] = ["solo_large", "wire_skewed", "fleet_wire"];

/// A span the benchmark opened around a call that is neither a data
/// query nor a lease verb (a fleet worker joining: plan and schema fetch).
#[derive(Clone, Copy, Debug)]
pub struct Join {
    pub layer: &'static str,
    pub name: &'static str,
    pub worker: usize,
    pub call: Call,
}

/// One complete crawl (or fleet drain) and everything measured on it.
pub struct Crawled {
    pub start: u64,
    pub wall: u64,
    pub report: CrawlReport,
    pub conns: Vec<ConnRecord>,
    /// Lease verbs, tagged with the worker that sent them.
    pub control: Vec<(usize, ControlCall)>,
    pub joins: Vec<Join>,
    pub pool: Option<PoolStats>,
    /// Wall time of each shard, for sharded runs.
    pub shard_ms: Vec<f64>,
    pub waits: u64,
    pub lost: u64,
}

impl Crawled {
    fn new(start: u64, wall: u64, report: CrawlReport, conns: Vec<ConnRecord>) -> Self {
        Crawled {
            start,
            wall,
            report,
            conns: conns.into_iter().filter(|c| !c.calls.is_empty()).collect(),
            control: Vec::new(),
            joins: Vec::new(),
            pool: None,
            shard_ms: Vec::new(),
            waits: 0,
            lost: 0,
        }
    }
}

/// What `main.rs` needs from a workload.
pub trait Workload {
    /// The store's tuples: what every crawl must return, as a bag.
    fn expected(&self) -> &[Tuple];
    fn schema(&self) -> &Schema;
    /// Concurrent sessions or workers.
    fn sessions(&self) -> usize;
    /// Shards in the plan (1 for an unsharded crawl).
    fn shards(&self) -> usize;
    /// Whether crawls cross the loopback wire.
    fn wire(&self) -> bool;
    /// Whether the plan is leased through a coordinator.
    fn leased(&self) -> bool;
    /// The time to open the crawler's data connector, if set-up has one.
    fn connect_ms(&self) -> Option<f64>;
    /// The in-process charged cost every crawl must match.
    fn reference(&mut self) -> Result<u64, String>;
    /// One crawl through the benchmark's wrappers; `record` keeps a copy
    /// of every round trip.
    fn crawl(&mut self, record: bool) -> Result<Crawled, String>;
    /// The same crawl with no wrapper at all: `(tuples, charged)`.
    fn plain(&mut self) -> Result<(Vec<Tuple>, u64), String>;
    /// The same plan with the wire (or the lease server) taken out:
    /// in-process clients, memory-leased for a fleet.
    fn in_process(&mut self) -> Result<Option<Crawled>, String>;
    /// Charged cost of the same data's factor-1 plan, for sharded runs.
    fn factor_one_cost(&mut self) -> Result<Option<u64>, String>;
}

/// Builds a workload's store (and server) at full size: the set-up that
/// `setup_s` times.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    setup_sized(name, seed, false)
}

/// The same workload at a small size, for the wrapper self-test.
pub fn setup_small(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    setup_sized(name, seed, true)
}

fn setup_sized(name: &str, seed: u64, small: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "solo_large" => Box::new(SoloLarge::new(seed, if small { 20_000 } else { SOLO_N })?),
        "wire_skewed" => Box::new(WireSkewed::new(seed, small)?),
        "fleet_wire" => Box::new(FleetWire::new(seed, if small { 2_000 } else { FLEET_N })?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

/// The generator seed of every workload's tuples. The workload seed sets
/// the store's priority order instead: the site's ranking, which decides
/// every overflowing answer and so each crawl's query sequence and cost.
/// Re-drawing the tuples too would move `charged_queries` by up to 13%
/// between seeds on the 12k-tuple fleet store, burying any change
/// under data noise.
const DATA_SEED: u64 = 1;

/// The store's priority seed: a pure function of the workload seed.
fn server_config(seed: u64) -> ServerConfig {
    ServerConfig {
        k: K,
        seed: seed.rotate_left(17) ^ 0x5eed_be4c,
    }
}

fn shared_store(ds: &hdc_data::Dataset, seed: u64) -> Result<SharedServer, String> {
    SharedServer::new(ds.schema.clone(), ds.tuples.clone(), server_config(seed))
        .map_err(|e| format!("store rejected its own data: {e}"))
}

fn crawl_err(e: impl std::fmt::Display) -> String {
    format!("crawl failed: {e}")
}

// ------------------------------------------------------------ solo_large --

/// A Yahoo-shaped store crawled by one in-process session.
struct SoloLarge {
    expected: Vec<Tuple>,
    shared: SharedServer,
    schema: Schema,
}

impl SoloLarge {
    fn new(seed: u64, n: usize) -> Result<Self, String> {
        let ds = hdc_data::yahoo::generate_scaled(n, DATA_SEED);
        let shared = shared_store(&ds, seed)?;
        let schema = shared.client().schema().clone();
        Ok(SoloLarge {
            expected: ds.tuples,
            shared,
            schema,
        })
    }
}

impl Workload for SoloLarge {
    fn expected(&self) -> &[Tuple] {
        &self.expected
    }
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn sessions(&self) -> usize {
        1
    }
    fn shards(&self) -> usize {
        1
    }
    fn wire(&self) -> bool {
        false
    }
    fn leased(&self) -> bool {
        false
    }
    fn connect_ms(&self) -> Option<f64> {
        None
    }

    fn reference(&mut self) -> Result<u64, String> {
        self.plain().map(|(_, cost)| cost)
    }

    fn crawl(&mut self, record: bool) -> Result<Crawled, String> {
        let sink = Sink::default();
        let mut db = Timed::new(self.shared.client(), 0, &sink, record);
        let start = now_ns();
        let report = Crawl::builder().run(&mut db).map_err(crawl_err)?;
        let wall = now_ns() - start;
        drop(db);
        Ok(Crawled::new(start, wall, report, sink.take()))
    }

    fn plain(&mut self) -> Result<(Vec<Tuple>, u64), String> {
        let report = Crawl::builder()
            .run(&mut self.shared.client())
            .map_err(crawl_err)?;
        Ok((report.tuples, report.queries))
    }

    fn in_process(&mut self) -> Result<Option<Crawled>, String> {
        Ok(None)
    }

    fn factor_one_cost(&mut self) -> Result<Option<u64>, String> {
        Ok(None)
    }
}

// ----------------------------------------------------------- wire_skewed --

/// The Adult-shaped store served by a `WireServer`, crawled by two
/// sessions over an over-partitioned plan.
struct WireSkewed {
    expected: Vec<Tuple>,
    shared: SharedServer,
    conn: HttpConnector,
    /// Serves `conn` for as long as the workload lives.
    _server: WireServer,
    connect_ms: f64,
    shards: usize,
}

impl WireSkewed {
    fn new(seed: u64, small: bool) -> Result<Self, String> {
        let ds = if small {
            hdc_data::adult::generate_scaled(4_000, DATA_SEED)
        } else {
            hdc_data::adult::generate(DATA_SEED)
        };
        let shared = shared_store(&ds, seed)?;
        let server = WireServer::start("127.0.0.1:0", shared.clone(), ServeOptions::default())
            .map_err(|e| format!("bind loopback: {e}"))?;
        let t0 = now_ns();
        let conn = HttpConnector::new(&server.addr().to_string())
            .map_err(|e| format!("schema probe: {e}"))?;
        let connect_ms = (now_ns() - t0) as f64 / 1e6;
        let shards = Sharded::plan_oversubscribed(&ds.schema, SESSIONS, WIRE_OVERSUBSCRIBE).len();
        Ok(WireSkewed {
            expected: ds.tuples,
            shared,
            conn,
            _server: server,
            connect_ms,
            shards,
        })
    }

    fn builder<'a>() -> hdc_core::CrawlBuilder<'a> {
        Crawl::builder()
            .sessions(SESSIONS)
            .oversubscribe(WIRE_OVERSUBSCRIBE)
    }
}

/// A sharded crawl's result; the pool's connections have all been
/// dropped into `sink` by the time the crawl returns.
fn sharded_crawled(start: u64, report: hdc_core::ShardedReport, sink: &Sink) -> Crawled {
    let wall = now_ns() - start;
    let shard_ms = report
        .shards
        .iter()
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect();
    let pool = report.pool;
    let mut c = Crawled::new(start, wall, report.merged, sink.take());
    c.pool = Some(pool);
    c.shard_ms = shard_ms;
    c
}

impl Workload for WireSkewed {
    fn expected(&self) -> &[Tuple] {
        &self.expected
    }
    fn schema(&self) -> &Schema {
        &self.conn.info().schema
    }
    fn sessions(&self) -> usize {
        SESSIONS
    }
    fn shards(&self) -> usize {
        self.shards
    }
    fn wire(&self) -> bool {
        true
    }
    fn leased(&self) -> bool {
        false
    }
    fn connect_ms(&self) -> Option<f64> {
        Some(self.connect_ms)
    }

    fn reference(&mut self) -> Result<u64, String> {
        let shared = &self.shared;
        let report = Self::builder()
            .run_sharded(|_s: usize| shared.client())
            .map_err(crawl_err)?;
        Ok(report.merged.queries)
    }

    fn crawl(&mut self, record: bool) -> Result<Crawled, String> {
        let sink = Sink::default();
        let connector = TimedConnector {
            inner: &self.conn,
            sink: &sink,
            record,
        };
        let start = now_ns();
        let report = Self::builder().run_sharded(connector).map_err(crawl_err)?;
        Ok(sharded_crawled(start, report, &sink))
    }

    fn plain(&mut self) -> Result<(Vec<Tuple>, u64), String> {
        let report = Self::builder()
            .run_sharded(self.conn.clone())
            .map_err(crawl_err)?;
        Ok((report.merged.tuples, report.merged.queries))
    }

    fn in_process(&mut self) -> Result<Option<Crawled>, String> {
        let shared = &self.shared;
        let make = |_s: usize| shared.client();
        let sink = Sink::default();
        let connector = TimedConnector {
            inner: &make,
            sink: &sink,
            record: false,
        };
        let start = now_ns();
        let report = Self::builder().run_sharded(connector).map_err(crawl_err)?;
        Ok(Some(sharded_crawled(start, report, &sink)))
    }

    fn factor_one_cost(&mut self) -> Result<Option<u64>, String> {
        let shared = &self.shared;
        let report = Crawl::builder()
            .sessions(SESSIONS)
            .run_sharded(|_s: usize| shared.client())
            .map_err(crawl_err)?;
        Ok(Some(report.merged.queries))
    }
}

// ------------------------------------------------------------ fleet_wire --

/// A Yahoo-shaped store on a fixed 16-shard plan, drained by two workers
/// that lease shards from a `Coordinator` hosted by the data server.
struct FleetWire {
    expected: Vec<Tuple>,
    shared: SharedServer,
    schema: Schema,
    plan: Vec<ShardSpec>,
    signatures: Vec<String>,
    /// The next drain's fresh coordinator and server, bound ahead of
    /// time so binding is not part of the drain.
    staged: Option<(Arc<Coordinator>, WireServer)>,
}

/// One fleet worker's output.
struct WorkerOut {
    report: WorkerReport,
    control: Vec<ControlCall>,
    joins: Vec<Join>,
}

fn worker_config(i: usize) -> WorkerConfig {
    WorkerConfig {
        name: format!("w{i}"),
        wait_cap_ms: FLEET_WAIT_CAP_MS,
        ..WorkerConfig::default()
    }
}

/// One worker of a wire fleet: join (plan fetch, schema fetch), then
/// lease and crawl until the plan drains. With a sink, every data call
/// and every lease verb goes through the benchmark's wrappers.
fn wire_worker(
    addr: &str,
    i: usize,
    schema: &Schema,
    sink: Option<(&Sink, bool)>,
) -> Result<WorkerOut, String> {
    let t0 = now_ns();
    let lease = WireLeaseRepository::connect(addr).map_err(|e| format!("join fleet: {e}"))?;
    let t1 = now_ns();
    let conn = HttpConnector::new(addr).map_err(|e| format!("schema probe: {e}"))?;
    let t2 = now_ns();
    let cfg = worker_config(i);
    let Some((sink, record)) = sink else {
        let mut lease = lease;
        let report = drive_worker(&mut lease, &mut conn.db(i), schema, &cfg).map_err(crawl_err)?;
        return Ok(WorkerOut {
            report,
            control: Vec::new(),
            joins: Vec::new(),
        });
    };
    let mut db = Timed::new(conn.db(i), i, sink, record);
    let mut lease = TimedLease::new(lease);
    let report = drive_worker(&mut lease, &mut db, schema, &cfg).map_err(crawl_err)?;
    let span = |layer: &'static str, name: &'static str, start: u64, end: u64| Join {
        layer,
        name,
        worker: i,
        call: Call {
            start,
            dur: end - start,
            queries: 0,
        },
    };
    Ok(WorkerOut {
        report,
        control: lease.calls,
        joins: vec![
            span("coord", "join_plan", t0, t1),
            span("net", "connect", t1, t2),
        ],
    })
}

/// Runs `SESSIONS` workers on scoped threads and joins them all.
fn run_workers<F>(worker: F) -> Result<Vec<WorkerOut>, String>
where
    F: Fn(usize) -> Result<WorkerOut, String> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let worker = &worker;
                scope.spawn(move || worker(i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "fleet worker panicked".to_string())?)
            .collect()
    })
}

/// The fleet's merged result, read from the drained lease state.
fn fleet_report(repo: &mut dyn LeaseRepository) -> Result<CrawlReport, String> {
    let cp = repo
        .load()
        .map_err(|e| format!("read fleet checkpoint: {e}"))?
        .ok_or("drained fleet has no checkpoint")?;
    let mut report = CrawlReport {
        algorithm: "fleet",
        tuples: Vec::new(),
        queries: 0,
        resolved: 0,
        overflowed: 0,
        pruned: 0,
        metrics: CrawlMetrics::default(),
        progress: Vec::new(),
    };
    for snap in &cp.shards {
        if !snap.is_complete() {
            return Err(format!("fleet left shard {} partial", snap.index));
        }
        report.queries += snap.queries;
        report.resolved += snap.resolved;
        report.overflowed += snap.overflowed;
        report.metrics.merge_from(&snap.metrics);
        report.tuples.extend(snap.tuples.iter().cloned());
    }
    Ok(report)
}

/// Adds the workers' counters and control calls to a drain's record; a
/// shard's wall runs from its granting lease to its completion.
fn fold_workers(c: &mut Crawled, outs: Vec<WorkerOut>) {
    for (i, out) in outs.into_iter().enumerate() {
        c.waits += out.report.waits;
        c.lost += out.report.shards_lost;
        let mut granted = None;
        for cc in &out.control {
            match cc.verb {
                Verb::Lease if cc.granted => granted = Some(cc.call.end()),
                Verb::Complete => {
                    if let Some(t) = granted.take() {
                        c.shard_ms.push((cc.call.end() - t) as f64 / 1e6);
                    }
                }
                _ => {}
            }
        }
        c.control
            .extend(out.control.into_iter().map(|call| (i, call)));
        c.joins.extend(out.joins);
    }
}

impl FleetWire {
    fn new(seed: u64, n: usize) -> Result<Self, String> {
        let ds = hdc_data::yahoo::generate_scaled(n, DATA_SEED);
        let shared = shared_store(&ds, seed)?;
        let plan = Sharded::plan_oversubscribed(&ds.schema, FLEET_PLAN.0, FLEET_PLAN.1);
        let signatures: Vec<String> = plan.iter().map(ShardSpec::signature).collect();
        let mut fleet = FleetWire {
            expected: ds.tuples,
            shared,
            schema: ds.schema,
            plan,
            signatures,
            staged: None,
        };
        let staged = fleet.stage()?;
        let served = WireLeaseRepository::connect(&staged.1.addr().to_string())
            .and_then(|mut l| l.plan())
            .map_err(|e| format!("probe plan: {e}"))?;
        if served != fleet.signatures {
            return Err("coordinator serves a different plan".to_string());
        }
        fleet.staged = Some(staged);
        Ok(fleet)
    }

    /// A fresh coordinator over the plan, mounted on a fresh server.
    fn stage(&self) -> Result<(Arc<Coordinator>, WireServer), String> {
        let (coordinator, _restore) =
            Coordinator::new(self.signatures.clone(), CoordinatorConfig::default())
                .map_err(|e| format!("coordinator: {e}"))?;
        let coordinator = Arc::new(coordinator);
        let server = WireServer::start(
            "127.0.0.1:0",
            self.shared.clone(),
            ServeOptions {
                extension: Some(Arc::clone(&coordinator) as Arc<dyn RouteExt>),
                ..ServeOptions::default()
            },
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        Ok((coordinator, server))
    }

    /// One wire drain; the clock covers worker start to the last join.
    fn drain(&mut self, sink: Option<(&Sink, bool)>) -> Result<Crawled, String> {
        let (coordinator, server) = match self.staged.take() {
            Some(staged) => staged,
            None => self.stage()?,
        };
        let addr = server.addr().to_string();
        let schema = &self.schema;
        let start = now_ns();
        let outs = run_workers(|i| wire_worker(&addr, i, schema, sink));
        let wall = now_ns() - start;
        server
            .shutdown()
            .map_err(|e| format!("server drain: {e}"))?;
        let outs = outs?;
        let report = fleet_report(&mut coordinator.repo())?;
        self.staged = Some(self.stage()?);
        let conns = sink.map(|(s, _)| s.take()).unwrap_or_default();
        let mut c = Crawled::new(start, wall, report, conns);
        fold_workers(&mut c, outs);
        Ok(c)
    }
}

impl Workload for FleetWire {
    fn expected(&self) -> &[Tuple] {
        &self.expected
    }
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn sessions(&self) -> usize {
        SESSIONS
    }
    fn shards(&self) -> usize {
        self.plan.len()
    }
    fn wire(&self) -> bool {
        true
    }
    fn leased(&self) -> bool {
        true
    }
    fn connect_ms(&self) -> Option<f64> {
        None
    }

    fn reference(&mut self) -> Result<u64, String> {
        let mut db = self.shared.client();
        let mut queries = 0;
        for spec in &self.plan {
            queries += spec
                .crawl(&mut db, &self.schema)
                .map_err(crawl_err)?
                .queries;
        }
        Ok(queries)
    }

    fn crawl(&mut self, record: bool) -> Result<Crawled, String> {
        let sink = Sink::default();
        self.drain(Some((&sink, record)))
    }

    fn plain(&mut self) -> Result<(Vec<Tuple>, u64), String> {
        let c = self.drain(None)?;
        Ok((c.report.tuples, c.report.queries))
    }

    fn in_process(&mut self) -> Result<Option<Crawled>, String> {
        let repo = MemoryLeaseRepository::new(self.signatures.clone(), Duration::from_secs(30));
        let sink = Sink::default();
        let (shared, schema, sink_ref) = (&self.shared, &self.schema, &sink);
        let start = now_ns();
        let outs = run_workers(|i| {
            let mut db = Timed::new(shared.client(), i, sink_ref, false);
            let mut lease = TimedLease::new(repo.clone());
            let report =
                drive_worker(&mut lease, &mut db, schema, &worker_config(i)).map_err(crawl_err)?;
            Ok(WorkerOut {
                report,
                control: lease.calls,
                joins: Vec::new(),
            })
        });
        let wall = now_ns() - start;
        let outs = outs?;
        let report = fleet_report(&mut repo.clone())?;
        let mut c = Crawled::new(start, wall, report, sink.take());
        fold_workers(&mut c, outs);
        Ok(Some(c))
    }

    fn factor_one_cost(&mut self) -> Result<Option<u64>, String> {
        let mut db = self.shared.client();
        let mut queries = 0;
        for spec in Sharded::plan(&self.schema, FLEET_PLAN.0) {
            queries += spec
                .crawl(&mut db, &self.schema)
                .map_err(crawl_err)?
                .queries;
        }
        Ok(Some(queries))
    }
}
