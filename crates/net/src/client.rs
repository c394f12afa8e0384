//! The wire client: [`Client`] is the one keep-alive HTTP client,
//! [`HttpDb`] implements [`HiddenDatabase`] over it, and
//! [`HttpConnector`] implements [`Connector`] so
//! `Crawl::builder().run_sharded(connector)` drives remote identities
//! exactly like in-process closures.
//!
//! # Error mapping — the whole point
//!
//! Everything the wire can do to a request maps into the existing
//! [`DbError`] taxonomy, so `RetryPolicy`, per-identity strikes, and
//! checkpoint/resume work over the network *unchanged*:
//!
//! | wire event | mapped to |
//! |------------|-----------|
//! | read/write timeout, connection reset, EOF mid-response | [`DbError::Transient`] (stream dropped; next call reconnects) |
//! | HTTP 5xx (e.g. the server fault injector's 503) | [`DbError::Transient`] (connection kept) |
//! | HTTP 429 budget body | [`DbError::BudgetExhausted`] field-exact |
//! | other HTTP 4xx | [`DbError::Backend`] (permanent) |
//! | malformed response on a 200 | [`DbError::Transient`] (stream dropped — body may be damaged in flight) |
//! | retire-threshold-th consecutive failure ([`DEFAULT_RETIRE_AFTER`]) | [`DbError::Backend`] — the identity is retired |
//!
//! # Health tracking
//!
//! Each connection counts *consecutive* failures; any success resets the
//! count. A failure drops the stream so the next call reconnects with a
//! fresh TCP connection; once the count reaches the retire threshold the
//! identity stops trying and fails permanently, which is exactly the
//! signal the sharded crawler's identity-health salvage understands.
//!
//! # Accounting parity
//!
//! The client validates queries locally against the fetched schema
//! (charge-nothing [`DbError::InvalidQuery`], same as the server) and
//! counts [`HttpDb::queries_issued`] client-side: +1 per successful
//! query, +`len` per successful batch, +0 on any error — matching
//! `ServerClient`'s all-or-nothing accounting so wire crawls reconcile
//! bit-identically with in-process ones.

use std::io::{self, BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hdc_core::Connector;
use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Schema};

use crate::bucket::RateLimiter;
use crate::http::{self, Response};
use crate::proto;

/// Handles to the wire-client metrics, resolved once.
struct ClientMetrics {
    /// `hdc_wire_client_requests_total`: completed exchanges.
    requests: Arc<hdc_obs::Counter>,
    /// `hdc_wire_client_request_seconds`: write-to-parse wall time.
    request_wall: Arc<hdc_obs::Histogram>,
    /// `hdc_wire_client_wire_failures_total`: dropped-stream failures.
    wire_failures: Arc<hdc_obs::Counter>,
    /// `hdc_wire_client_timeouts_total`: failures that were timeouts.
    timeouts: Arc<hdc_obs::Counter>,
    /// `hdc_wire_client_reconnects_total`: fresh TCP connections after
    /// a previous one was dropped.
    reconnects: Arc<hdc_obs::Counter>,
    /// `hdc_wire_client_retired_total`: identities failed permanently.
    retired: Arc<hdc_obs::Counter>,
}

fn client_metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = hdc_obs::registry();
        ClientMetrics {
            requests: r.counter(
                "hdc_wire_client_requests_total",
                "Request/response exchanges completed by wire clients",
            ),
            request_wall: r.histogram(
                "hdc_wire_client_request_seconds",
                "Wall time of wire-client request/response exchanges",
                hdc_obs::latency_bounds(),
                hdc_obs::Unit::Nanos,
            ),
            wire_failures: r.counter(
                "hdc_wire_client_wire_failures_total",
                "Wire-client exchanges that dropped the stream (any io damage)",
            ),
            timeouts: r.counter(
                "hdc_wire_client_timeouts_total",
                "Wire-client exchanges that failed on a read/write timeout",
            ),
            reconnects: r.counter(
                "hdc_wire_client_reconnects_total",
                "Fresh TCP connections opened after a previous one dropped",
            ),
            retired: r.counter(
                "hdc_wire_client_retired_total",
                "Wire identities retired at the consecutive-failure threshold",
            ),
        }
    })
}

/// The one keep-alive HTTP/1.1 client: a server address, a socket
/// timeout, and at most one connection, opened lazily with
/// `TCP_NODELAY`.
///
/// [`request`](Client::request) drops the connection on any io error and
/// after any response carrying `Connection: close`; the next call then
/// reconnects. It never re-sends a request by itself: the lease verbs
/// are not idempotent, so retrying is the caller's decision.
#[derive(Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    /// A client for `url`: `host:port`, optionally prefixed with
    /// `http://`, surrounding whitespace and trailing `/` ignored.
    /// `timeout` bounds every socket read and write. Nothing connects
    /// until the first request.
    pub fn new(url: &str, timeout: Duration) -> Client {
        let url = url.trim();
        let addr = url
            .strip_prefix("http://")
            .unwrap_or(url)
            .trim_end_matches('/');
        Client {
            addr: addr.to_string(),
            timeout,
            conn: None,
            connects: 0,
        }
    }

    /// The server address (scheme stripped).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// TCP connections opened so far: the first one plus every
    /// reconnect.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Drops the open connection, if any; the next request reconnects.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// One request/response exchange on the kept-alive connection,
    /// connecting first when there is none.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let result = self.exchange(method, path, body);
        if !matches!(result, Ok((_, false))) {
            self.conn = None;
        }
        result.map(|(resp, _)| resp)
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(Response, bool)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true).ok();
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        http::write_request(&mut conn.get_ref(), method, path, body)?;
        http::read_response_and_close(conn)
    }
}

/// Default client read/write timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);
/// Default consecutive-failure threshold before an identity retires.
pub const DEFAULT_RETIRE_AFTER: u32 = 8;

/// Connection factory for [`HttpDb`] identities: fetches the remote
/// schema once (eagerly, at construction), then mints any number of
/// independent per-identity connections.
///
/// Implements [`Connector`], so it drops into
/// `Crawl::builder().run_sharded(..)` wherever a `Fn(usize) -> D`
/// closure went before.
#[derive(Debug, Clone)]
pub struct HttpConnector {
    addr: String,
    info: proto::SchemaInfo,
    timeout: Duration,
    retire_after: u32,
    rate: Option<(f64, f64)>,
}

impl HttpConnector {
    /// Connects to `url` (`host:port`, optionally prefixed with
    /// `http://`) and fetches `/schema`, so every later
    /// [`connect`](Connector::connect) is infallible and every
    /// [`HttpDb`] knows its schema and `k` locally.
    pub fn new(url: &str) -> io::Result<HttpConnector> {
        let mut client = Client::new(url, DEFAULT_TIMEOUT);
        let info = fetch_schema(&mut client)?;
        Ok(HttpConnector {
            addr: client.addr,
            info,
            timeout: DEFAULT_TIMEOUT,
            retire_after: DEFAULT_RETIRE_AFTER,
            rate: None,
        })
    }

    /// Sets the read/write timeout for every minted connection.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the consecutive-failure threshold after which an identity
    /// retires permanently (clamped to at least 1).
    pub fn retire_after(mut self, failures: u32) -> Self {
        self.retire_after = failures.max(1);
        self
    }

    /// Paces each identity with a token bucket: at most `rate` queries
    /// per second sustained, with room for `burst` queries at once.
    pub fn rate_limit(mut self, rate: f64, burst: f64) -> Self {
        self.rate = Some((rate, burst));
        self
    }

    /// The remote database's shape, as fetched at construction.
    pub fn info(&self) -> &proto::SchemaInfo {
        &self.info
    }

    /// The server address (scheme stripped).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One remote identity, outside any crawl (for probes and tests).
    pub fn db(&self, identity: usize) -> HttpDb {
        self.connect(identity)
    }
}

impl Connector for HttpConnector {
    type Db = HttpDb;

    fn connect(&self, identity: usize) -> HttpDb {
        HttpDb {
            client: Client::new(&self.addr, self.timeout),
            identity,
            schema: self.info.schema.clone(),
            k: self.info.k,
            retire_after: self.retire_after,
            limiter: self.rate.map(|(rate, burst)| RateLimiter::new(rate, burst)),
            consecutive_failures: 0,
            retired: false,
            issued: 0,
        }
    }
}

/// One eager `GET /schema`.
fn fetch_schema(client: &mut Client) -> io::Result<proto::SchemaInfo> {
    let resp = client.request("GET", "/schema", b"")?;
    if resp.status != 200 {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("schema fetch answered {}", resp.status),
        ));
    }
    let body = String::from_utf8_lossy(&resp.body);
    proto::parse_schema_body(&body).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
}

/// A [`HiddenDatabase`] over the wire: one remote identity, one
/// keep-alive connection (re-established transparently after
/// failures), local validation, client-side accounting, health
/// tracking, and optional rate limiting. Minted by [`HttpConnector`].
#[derive(Debug)]
pub struct HttpDb {
    client: Client,
    identity: usize,
    schema: Schema,
    k: usize,
    retire_after: u32,
    limiter: Option<RateLimiter>,
    consecutive_failures: u32,
    retired: bool,
    issued: u64,
}

impl HttpDb {
    /// The identity index this connection crawls as.
    pub fn identity(&self) -> usize {
        self.identity
    }

    /// Consecutive wire failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether this identity has retired (failed permanently).
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// One request/response exchange. Any io damage (timeout, reset,
    /// truncation) drops the stream so the next call reconnects fresh.
    fn exchange(&mut self, path: &str, body: &str) -> Result<Response, DbError> {
        let timer = hdc_obs::enabled().then(Instant::now);
        let opened = self.client.connects();
        let result = self.client.request("POST", path, body.as_bytes());
        if opened > 0 && self.client.connects() > opened && hdc_obs::enabled() {
            client_metrics().reconnects.inc();
        }
        match result {
            Ok(resp) => {
                if let Some(start) = timer {
                    let m = client_metrics();
                    m.requests.inc();
                    m.request_wall.observe_duration(start.elapsed());
                }
                Ok(resp)
            }
            Err(e) => {
                if hdc_obs::enabled() {
                    let m = client_metrics();
                    m.wire_failures.inc();
                    if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                        m.timeouts.inc();
                    }
                }
                Err(DbError::Transient(format!(
                    "wire failure on {path}: {} ({e})",
                    kind_label(e.kind())
                )))
            }
        }
    }

    /// Books a failure: strike the health counter, retire at the
    /// threshold. Transparent pass-through for the error.
    fn strike(&mut self, e: DbError) -> DbError {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.retire_after && !self.retired {
            self.retired = true;
            if hdc_obs::enabled() {
                client_metrics().retired.inc();
            }
        }
        e
    }

    fn retired_error(&self) -> DbError {
        DbError::Backend(format!(
            "identity {} retired after {} consecutive wire failures",
            self.identity, self.consecutive_failures
        ))
    }

    /// Shared post-exchange handling: map error statuses, surface
    /// malformed 200 bodies as transient transport damage.
    fn parse_success<T>(
        &mut self,
        resp: Response,
        parse: impl FnOnce(&str) -> Result<T, proto::WireError>,
    ) -> Result<T, DbError> {
        // Borrowed when the body is UTF-8, as a healthy server's always
        // is; copied lossily only when the bytes are damaged.
        let body = String::from_utf8_lossy(&resp.body);
        if resp.status != 200 {
            let e = proto::parse_error_body(resp.status, &body);
            return Err(e);
        }
        match parse(&body) {
            Ok(v) => Ok(v),
            Err(e) => {
                // A 200 with an unreadable body is transport damage:
                // drop the stream and let the retry policy try again.
                self.client.disconnect();
                Err(DbError::Transient(format!("malformed response: {e}")))
            }
        }
    }
}

fn kind_label(kind: ErrorKind) -> &'static str {
    match kind {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => "timeout",
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            "connection reset"
        }
        ErrorKind::ConnectionRefused => "connection refused",
        ErrorKind::UnexpectedEof => "connection closed mid-response",
        ErrorKind::InvalidData => "malformed response",
        _ => "io error",
    }
}

impl HiddenDatabase for HttpDb {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn k(&self) -> usize {
        self.k
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        if self.retired {
            return Err(self.retired_error());
        }
        // Local validation: charge-nothing InvalidQuery, same as the
        // server would answer, without spending a round trip.
        q.validate(&self.schema).map_err(DbError::InvalidQuery)?;
        if let Some(limiter) = &mut self.limiter {
            limiter.acquire(1.0);
        }
        let resp = match self.exchange("/query", &proto::query_body(q)) {
            Ok(resp) => resp,
            Err(e) => return Err(self.strike(e)),
        };
        match self.parse_success(resp, proto::parse_outcome_body) {
            Ok(out) => {
                self.consecutive_failures = 0;
                self.issued += 1;
                Ok(out)
            }
            Err(e) => Err(self.strike(e)),
        }
    }

    /// All-or-nothing over the wire: one `/query_batch` round trip, all
    /// outcomes or a single error — mirroring `ServerClient`, so batch
    /// accounting reconciles identically to in-process serving.
    fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, DbError> {
        if self.retired {
            return Err(self.retired_error());
        }
        for q in queries {
            q.validate(&self.schema).map_err(DbError::InvalidQuery)?;
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(limiter) = &mut self.limiter {
            limiter.acquire(queries.len() as f64);
        }
        let resp = match self.exchange("/query_batch", &proto::batch_body(queries)) {
            Ok(resp) => resp,
            Err(e) => return Err(self.strike(e)),
        };
        match self.parse_success(resp, |body| {
            proto::parse_batch_outcome_body(body, queries.len())
        }) {
            Ok(outs) => {
                self.consecutive_failures = 0;
                self.issued += queries.len() as u64;
                Ok(outs)
            }
            Err(e) => Err(self.strike(e)),
        }
    }

    fn try_query_batch(&mut self, queries: &[Query]) -> (Vec<QueryOutcome>, Option<DbError>) {
        match self.query_batch(queries) {
            Ok(outs) => (outs, None),
            Err(e) => (Vec::new(), Some(e)),
        }
    }

    fn queries_issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_200_with_invalid_utf8_is_transient_and_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let healthy = QueryOutcome::resolved(Vec::new());
        let bodies = [
            b"\xff\xfe".to_vec(),
            proto::outcome_body(&healthy).into_bytes(),
        ];
        // One connection per body, each answering one query with a
        // keep-alive 200 and then waiting for the client to hang up.
        let server = std::thread::spawn(move || {
            for body in bodies {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                http::read_request(&mut reader).unwrap().unwrap();
                http::write_response(&mut &stream, &Response::json(200, body), false).unwrap();
                let _ = http::read_request(&mut reader);
            }
        });
        let mut db = HttpDb {
            client: Client::new(&addr, Duration::from_secs(5)),
            identity: 0,
            schema: Schema::builder().numeric("a", 0, 9).build().unwrap(),
            k: 4,
            retire_after: DEFAULT_RETIRE_AFTER,
            limiter: None,
            consecutive_failures: 0,
            retired: false,
            issued: 0,
        };
        let q = Query::any(1);
        let err = db.query(&q).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert_eq!(db.client.connects(), 1);
        assert_eq!(db.query(&q).unwrap(), healthy);
        assert_eq!(
            db.client.connects(),
            2,
            "the damaged connection was dropped"
        );
        assert_eq!(db.queries_issued(), 1);
        drop(db);
        server.join().unwrap();
    }
}
