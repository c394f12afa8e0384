//! `hdc serve`: the loopback wire front end over a [`SharedServer`].
//!
//! Thread-per-connection serving of the [`proto`]
//! endpoints. Each accepted connection mints its own
//! [`ConnectionClient`] (per-connection identity isolation, optionally
//! budgeted), so N wire clients get exactly the semantics N in-process
//! `shared.client()` handles would.
//!
//! # Answers are concatenated, not encoded
//!
//! A `ConnectionClient` answers with matched rows' pre-encoded
//! fragments, taken from the store's row table
//! ([`hdc_server::row_table`]). The table is built on the first
//! `/query` or `/query_batch` the store answers — not by
//! [`WireServer::start`] and not by `GET /schema`, so starting a server
//! costs nothing extra, and a store never queried over the wire never
//! holds it. Each connection appends its answers' fragments straight
//! into one reused response buffer, behind room reserved for the HTTP
//! head, and sends head and body in one write.
//!
//! # Shutdown drains
//!
//! Cancellation (the [`CancelToken`], or a `POST /shutdown`) stops the
//! *accept* loop immediately, but every connection handler finishes its
//! in-flight request and writes the complete response before closing —
//! a well-behaved client never sees an abruptly reset socket, only a
//! clean close between requests. [`serve`] runs its handlers on scoped
//! threads, so it returns only after every handler has been joined.
//!
//! # Fault injection
//!
//! [`FaultPlan`] makes robustness testable over a real socket: each
//! query request draws from a seeded splitmix64 stream (the same
//! generator as `hdc_types::FaultyDb`) and, on a fault, answers 503 —
//! after stalling for [`FaultPlan::stall`] first, when configured, so
//! client read timeouts are exercised too. Faults fire *before* the
//! query reaches the engine: nothing is charged, which is what keeps
//! retried wire crawls bit-identical to fault-free ones.
//!
//! # Telemetry
//!
//! `GET /metrics` (Prometheus text) and `GET /stats` (JSON) expose the
//! process-wide [`hdc_obs`] registry from the same thread-per-connection
//! loop as the protocol endpoints, so they stay answerable while crawls
//! are in flight. The server also records its own request counters and
//! a parse-to-flush latency histogram when the registry is enabled.

use std::io::{self, BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdc_core::CancelToken;
use hdc_server::{ConnectionClient, SharedServer};
use hdc_types::DbError;

use crate::http::{self, InPlaceBody, Request, Response};
use crate::proto;

/// Deterministic server-side fault injection for the query endpoints.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a query request is answered with a
    /// fault instead of reaching the engine.
    pub rate: f64,
    /// Seed for the per-connection fault schedule.
    pub seed: u64,
    /// When set, a faulted request stalls this long before the 503 —
    /// a stall longer than the client's read timeout exercises the
    /// timeout-as-transient path.
    pub stall: Option<Duration>,
}

/// An auxiliary endpoint handler mounted *next to* the built-in data
/// endpoints: a request no built-in route claims is offered to the
/// extension before the 404 fallthrough. This is how the `hdc-coord`
/// lease coordinator serves `POST /lease` / `POST /heartbeat` /
/// `POST /complete` / `GET /plan` from the same listener as the data
/// plane. Extensions are shared across every connection handler thread
/// (hence `Send + Sync`) and are never consulted for the built-in paths,
/// so they cannot shadow the data protocol; the server-side fault plan
/// also does not apply to them (they are control plane, not charged
/// queries).
pub trait RouteExt: Send + Sync {
    /// Handles `req`, or returns `None` to let the server 404 it.
    fn handle(&self, req: &Request) -> Option<Response>;
}

/// Serving knobs.
#[derive(Clone, Default)]
pub struct ServeOptions {
    /// Per-connection query budget (each connection gets its own quota,
    /// like [`SharedServer::client_with_budget`]). `None` = unmetered.
    pub budget: Option<u64>,
    /// Fault injection plan. `None` = always healthy.
    pub faults: Option<FaultPlan>,
    /// Log one summary line per drained connection to stderr
    /// (identity, requests answered, queries charged, faults injected,
    /// connection lifetime).
    pub verbose: bool,
    /// Extra endpoints served next to the data plane (see [`RouteExt`]).
    pub extension: Option<Arc<dyn RouteExt>>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("budget", &self.budget)
            .field("faults", &self.faults)
            .field("verbose", &self.verbose)
            .field("extension", &self.extension.as_ref().map(|_| "RouteExt"))
            .finish()
    }
}

/// Counters reported by [`serve`] after shutdown.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Faults injected by the [`FaultPlan`].
    pub faults_injected: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    faults: AtomicU64,
}

/// Per-connection tallies for the `--verbose` summary line.
#[derive(Default)]
struct ConnTally {
    requests: u64,
    faults: u64,
}

/// Handles to the wire-server metrics, resolved once (the registry
/// lock is not on the per-request path).
struct WireMetrics {
    /// `hdc_wire_server_requests_total`.
    requests: Arc<hdc_obs::Counter>,
    /// `hdc_wire_server_connections_total`.
    connections: Arc<hdc_obs::Counter>,
    /// `hdc_wire_server_faults_injected_total`.
    faults: Arc<hdc_obs::Counter>,
    /// `hdc_wire_server_request_seconds`: parse-to-flush wall time.
    request_wall: Arc<hdc_obs::Histogram>,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = hdc_obs::registry();
        WireMetrics {
            requests: r.counter(
                "hdc_wire_server_requests_total",
                "Requests answered by the wire server (any status)",
            ),
            connections: r.counter(
                "hdc_wire_server_connections_total",
                "Connections accepted by the wire server",
            ),
            faults: r.counter(
                "hdc_wire_server_faults_injected_total",
                "Faults injected by the serve-side fault plan",
            ),
            request_wall: r.histogram(
                "hdc_wire_server_request_seconds",
                "Wall time from request parsed to response flushed",
                hdc_obs::latency_bounds(),
                hdc_obs::Unit::Nanos,
            ),
        }
    })
}

/// How often a parked handler re-checks cancellation. Does not add
/// request latency: the timed-out read wakes as soon as bytes arrive.
const POLL: Duration = Duration::from_millis(25);
/// How often the accept loop polls. Unlike [`POLL`] this sleep is
/// latency a fresh connection actually waits out (the socket sits in
/// the backlog until the loop wakes), so it stays small.
const ACCEPT_POLL: Duration = Duration::from_millis(1);
/// Read timeout once a request has started arriving.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs the accept loop until `cancel` trips (externally or via
/// `POST /shutdown`), then joins every connection handler — in-flight
/// requests are answered in full before their connections close — and
/// returns the tallies.
pub fn serve(
    listener: TcpListener,
    shared: SharedServer,
    opts: ServeOptions,
    cancel: &CancelToken,
) -> io::Result<ServeStats> {
    listener.set_nonblocking(true)?;
    let counters = Counters::default();
    let schema_body = proto::schema_body(shared.schema(), shared.k(), shared.n());
    let mut accept_error = None;
    let opts = &opts;
    std::thread::scope(|scope| {
        let mut next_conn = 0u64;
        while !cancel.is_cancelled() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    if hdc_obs::enabled() {
                        wire_metrics().connections.inc();
                    }
                    let conn_id = next_conn;
                    next_conn += 1;
                    let db = shared.connection(opts.budget);
                    let (counters, schema_body) = (&counters, schema_body.as_str());
                    scope.spawn(move || {
                        // Handler errors mean the peer vanished or spoke
                        // garbage; either way the connection is done.
                        let _ = handle_connection(
                            stream,
                            db,
                            schema_body,
                            opts,
                            conn_id,
                            counters,
                            cancel,
                        );
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    accept_error = Some(e);
                    cancel.cancel();
                    break;
                }
            }
        }
        // Scope exit joins every handler: the drain.
    });
    match accept_error {
        Some(e) => Err(e),
        None => Ok(ServeStats {
            connections: counters.connections.load(Ordering::Relaxed),
            requests: counters.requests.load(Ordering::Relaxed),
            faults_injected: counters.faults.load(Ordering::Relaxed),
        }),
    }
}

/// Seeded splitmix64 — the same stream generator as `hdc_types::FaultyDb`,
/// so wire fault schedules are reproducible run to run.
struct FaultDice {
    state: u64,
    rate: f64,
}

impl FaultDice {
    fn new(plan: &FaultPlan, conn_id: u64) -> Self {
        FaultDice {
            state: plan
                .seed
                .wrapping_add((conn_id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            rate: plan.rate,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn fault(&mut self) -> bool {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.rate
    }
}

fn handle_connection(
    stream: TcpStream,
    mut db: ConnectionClient,
    schema_body: &str,
    opts: &ServeOptions,
    conn_id: u64,
    counters: &Counters,
    cancel: &CancelToken,
) -> io::Result<()> {
    let started = Instant::now();
    let mut tally = ConnTally::default();
    let result = serve_requests(
        stream,
        &mut db,
        schema_body,
        opts,
        conn_id,
        counters,
        cancel,
        &mut tally,
    );
    if opts.verbose {
        eprintln!(
            "[conn {conn_id}] {} requests, {} queries charged, {} faults injected, {:.3}s",
            tally.requests,
            db.queries_issued(),
            tally.faults,
            started.elapsed().as_secs_f64()
        );
    }
    result
}

#[allow(clippy::too_many_arguments)] // the one seam between accept loop and request loop
fn serve_requests(
    stream: TcpStream,
    db: &mut ConnectionClient,
    schema_body: &str,
    opts: &ServeOptions,
    conn_id: u64,
    counters: &Counters,
    cancel: &CancelToken,
    tally: &mut ConnTally,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let faults = &opts.faults;
    let mut dice = faults.as_ref().map(|plan| FaultDice::new(plan, conn_id));
    let stall = faults.as_ref().and_then(|plan| plan.stall);
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = stream;
    let mut answer = InPlaceBody::default();
    loop {
        // Idle poll: peek for the first byte under a short timeout so a
        // parked keep-alive connection notices cancellation promptly.
        // No byte is consumed, so nothing a slow client sends is lost.
        writer.set_read_timeout(Some(POLL))?;
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // peer closed cleanly
            Ok(_) => {}              // a request has started arriving
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if cancel.is_cancelled() {
                    return Ok(()); // drained: nothing in flight
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        // A request is in flight: give the rest of it a generous window,
        // and answer it in full even if cancellation trips meanwhile.
        writer.set_read_timeout(Some(REQUEST_READ_TIMEOUT))?;
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Malformed request: answer 400 and hang up.
                counters.requests.fetch_add(1, Ordering::Relaxed);
                tally.requests += 1;
                let _ = http::write_response(&mut &writer, &protocol_error(&e), true);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        tally.requests += 1;
        let timer = hdc_obs::enabled().then(Instant::now);
        let mut ctx = RequestCtx {
            dice: &mut dice,
            stall,
            counters,
            tally,
        };
        let (reply, hangup) = route(
            &req,
            db,
            &mut answer,
            schema_body,
            &mut ctx,
            cancel,
            opts.extension.as_deref(),
        );
        let closing = hangup || cancel.is_cancelled();
        match reply {
            Reply::Full(resp) => http::write_response(&mut &writer, &resp, closing)?,
            Reply::Answer => answer.send(&mut &writer, closing)?,
        }
        if let Some(start) = timer {
            let m = wire_metrics();
            m.requests.inc();
            m.request_wall.observe_duration(start.elapsed());
        }
        if closing {
            // Drain semantics: the in-flight request was answered in
            // full; close instead of accepting more work.
            return Ok(());
        }
    }
}

fn protocol_error(e: &dyn std::fmt::Display) -> Response {
    Response::json(
        400,
        format!(
            "{{\"kind\":\"protocol\",\"error\":{}}}",
            crate::json::quote(&e.to_string())
        )
        .into_bytes(),
    )
}

fn error_response(e: &DbError) -> Response {
    Response::json(e.wire_status(), proto::error_body(e).into_bytes())
}

fn ok(body: String) -> Response {
    Response::json(200, body.into_bytes())
}

/// Per-request routing state: fault dice, tallies, and counters — one
/// bundle so the request loop and [`route`] share a single seam.
struct RequestCtx<'a> {
    dice: &'a mut Option<FaultDice>,
    stall: Option<Duration>,
    counters: &'a Counters,
    tally: &'a mut ConnTally,
}

/// What [`route`] answered.
enum Reply {
    /// A complete response.
    Full(Response),
    /// A `200` whose body [`route`] assembled in the connection's
    /// [`InPlaceBody`].
    Answer,
}

/// Routes one request. Returns the reply and whether the connection
/// must close afterwards (shutdown was requested).
fn route(
    req: &Request,
    db: &mut ConnectionClient,
    answer: &mut InPlaceBody,
    schema_body: &str,
    ctx: &mut RequestCtx<'_>,
    cancel: &CancelToken,
    extension: Option<&dyn RouteExt>,
) -> (Reply, bool) {
    let body = String::from_utf8_lossy(&req.body);
    let reply = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/schema") => ok(schema_body.to_string()),
        // The telemetry registry is process-wide: counters here cover
        // every connection of this server (plus anything else the
        // process instruments), not just the asking connection.
        ("GET", "/metrics") => Response::prometheus(200, hdc_obs::registry().render_prometheus()),
        ("GET", "/stats") => ok(hdc_obs::registry().render_json()),
        ("POST", "/shutdown") => {
            cancel.cancel();
            return (Reply::Full(ok("{\"ok\":true}".to_string())), true);
        }
        ("POST", "/query") => {
            if let Some(resp) = injected_fault(ctx) {
                return (Reply::Full(resp), false);
            }
            match proto::parse_query_body(&body) {
                Ok(q) => match db.query(&q) {
                    Ok(a) => {
                        proto::push_answer(answer.begin(), a);
                        return (Reply::Answer, false);
                    }
                    Err(e) => error_response(&e),
                },
                Err(e) => protocol_error(&e),
            }
        }
        ("POST", "/query_batch") => {
            if let Some(resp) = injected_fault(ctx) {
                return (Reply::Full(resp), false);
            }
            match proto::parse_batch_body(&body) {
                Ok(qs) => match db.query_batch(&qs) {
                    Ok(answers) => {
                        proto::push_batch_answers(answer.begin(), answers);
                        return (Reply::Answer, false);
                    }
                    Err(e) => error_response(&e),
                },
                Err(e) => protocol_error(&e),
            }
        }
        // Built-ins stay authoritative: only a path none of them
        // claimed reaches the extension.
        ("GET" | "POST", _) => extension
            .and_then(|ext| ext.handle(req))
            .unwrap_or_else(|| {
                Response::json(
                    404,
                    b"{\"kind\":\"protocol\",\"error\":\"no such endpoint\"}".to_vec(),
                )
            }),
        _ => Response::json(
            405,
            b"{\"kind\":\"protocol\",\"error\":\"method not allowed\"}".to_vec(),
        ),
    };
    (Reply::Full(reply), false)
}

/// Rolls the fault dice for a query endpoint. A fault stalls (when
/// configured) and answers 503 *without* touching the engine — nothing
/// is charged, so a retried crawl converges on the fault-free outcome.
fn injected_fault(ctx: &mut RequestCtx<'_>) -> Option<Response> {
    let dice = ctx.dice.as_mut()?;
    if !dice.fault() {
        return None;
    }
    ctx.counters.faults.fetch_add(1, Ordering::Relaxed);
    ctx.tally.faults += 1;
    if hdc_obs::enabled() {
        wire_metrics().faults.inc();
    }
    if let Some(stall) = ctx.stall {
        std::thread::sleep(stall);
    }
    Some(error_response(&DbError::Transient(
        "injected wire fault".to_string(),
    )))
}

/// A serving thread plus its cancellation token: the test- and
/// CLI-friendly handle around [`serve`].
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    cancel: Arc<CancelToken>,
    thread: Option<JoinHandle<io::Result<ServeStats>>>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// accept loop, and returns once the socket is listening.
    pub fn start(addr: &str, shared: SharedServer, opts: ServeOptions) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cancel = Arc::new(CancelToken::new());
        let token = Arc::clone(&cancel);
        let thread = std::thread::spawn(move || serve(listener, shared, opts, &token));
        Ok(WireServer {
            addr,
            cancel,
            thread: Some(thread),
        })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's cancellation token (trip it to begin a drain).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Trips cancellation and joins the accept loop: returns after every
    /// in-flight request has been answered and every connection closed.
    pub fn shutdown(mut self) -> io::Result<ServeStats> {
        self.cancel.cancel();
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("serve thread panicked"))),
            None => Ok(ServeStats::default()),
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.cancel.cancel();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
