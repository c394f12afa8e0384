//! Differential suite for the wire layer: a crawl over loopback HTTP is
//! **bit-identical** to the same crawl in-process.
//!
//! The claims under test:
//!
//! 1. **Loopback ≡ in-process.** `run_sharded(HttpConnector)` against
//!    `hdc serve` extracts the same bag at the same charged cost — down
//!    to per-shard costs, per-session accounting, and the outcome
//!    tallies — as `run_sharded(|_| shared.client())` on the same store.
//! 2. **Wire faults with retry ≡ fault-free.** The server-side fault
//!    injector charges nothing and the client charges nothing for failed
//!    requests, so a retried crawl over a faulty wire converges on the
//!    fault-free result exactly — including when the fault *stalls* past
//!    the client read timeout (timeout-as-transient path).
//! 3. **Budgets, retirement, drain.** Per-connection server budgets
//!    round-trip `BudgetExhausted` field-exactly; an identity retires
//!    after consecutive wire failures; a graceful shutdown answers the
//!    in-flight request in full before closing.
//! 4. **Checkpoint / kill / resume over the wire.** A crawl starved by a
//!    server-side budget salvages, keeps its checkpoint, and a resume
//!    against a restarted server completes with the uninterrupted bag
//!    and total cost.

use std::time::Duration;

use hdc_core::{Crawl, CrawlError, CrawlObserver, Flow, MemoryRepository, RetryPolicy};
use hdc_net::{http, FaultPlan, HttpConnector, ServeOptions, WireServer};
use hdc_server::{ServerConfig, SharedServer};
use hdc_types::{DbError, HiddenDatabase, Query, QueryOutcome, Tuple, TupleBag};

fn bag(tuples: &[Tuple]) -> TupleBag {
    TupleBag::from_tuples(tuples.iter().cloned())
}

/// The scaled Yahoo generator plants a hot listing with multiplicity
/// 100, so crawling fixtures need `k >= 100` to be solvable; the
/// non-crawling tests (budgets, retirement, drain) use smaller `k`.
fn fixture(n: usize, k: usize, seed: u64) -> SharedServer {
    let ds = hdc_data::yahoo::generate_scaled(n, 11);
    SharedServer::new(ds.schema.clone(), ds.tuples.clone(), ServerConfig { k, seed }).unwrap()
}

fn start(shared: &SharedServer, opts: ServeOptions) -> WireServer {
    WireServer::start("127.0.0.1:0", shared.clone(), opts).expect("bind loopback")
}

fn connector(server: &WireServer) -> HttpConnector {
    HttpConnector::new(&server.addr().to_string()).expect("schema fetch")
}

#[test]
fn loopback_sharded_crawl_equals_in_process_bit_identically() {
    let shared = fixture(2_000, 128, 17);
    let reference = Crawl::builder()
        .sessions(4)
        .oversubscribe(2)
        .run_sharded(|_s| shared.client())
        .unwrap();

    let server = start(&shared, ServeOptions::default());
    let wire = Crawl::builder()
        .sessions(4)
        .oversubscribe(2)
        .run_sharded(connector(&server))
        .unwrap();
    let stats = server.shutdown().unwrap();

    assert!(
        bag(&wire.merged.tuples).multiset_eq(&bag(&reference.merged.tuples)),
        "wire crawl changed the extracted bag"
    );
    assert_eq!(
        wire.merged.queries, reference.merged.queries,
        "wire crawl changed the charged cost"
    );
    assert_eq!(wire.merged.resolved, reference.merged.resolved);
    assert_eq!(wire.merged.overflowed, reference.merged.overflowed);
    assert_eq!(wire.merged.pruned, reference.merged.pruned);
    assert_eq!(
        wire.merged.metrics, reference.merged.metrics,
        "wire crawl changed the outcome tallies"
    );
    assert_eq!(wire.shards.len(), reference.shards.len());
    for (s, (a, b)) in wire.shards.iter().zip(&reference.shards).enumerate() {
        assert_eq!(a.report.queries, b.report.queries, "shard {s} cost diverged");
        assert_eq!(a.tuples, b.tuples, "shard {s} bag size diverged");
    }
    // The whole crawl crossed the wire: at least one connection per
    // working session identity (plus the connector's schema probe),
    // and every charged query rode some request — fewer requests than
    // charged queries because `/query_batch` packs a whole batch into
    // one round trip.
    assert!(stats.connections > 4, "4 identities + schema probe");
    assert!(stats.requests > 0 && stats.requests <= wire.merged.queries);
    assert_eq!(stats.faults_injected, 0);
}

#[test]
fn loopback_barrier_crawl_equals_in_process() {
    use hdc_barrier::BarrierCrawler;
    use hdc_core::{CrawlControls, Sharded};

    let shared = fixture(1_200, 112, 23);
    let crawler = BarrierCrawler::new();
    let plan = Sharded::new(2).oversubscribed(2);
    let reference = crawler
        .crawl_sharded(&plan, |_s| shared.client(), CrawlControls::default())
        .unwrap();

    let server = start(&shared, ServeOptions::default());
    let conn = connector(&server);
    let wire = crawler
        .crawl_sharded(&plan, |s| conn.db(s), CrawlControls::default())
        .unwrap();
    server.shutdown().unwrap();

    assert!(bag(&wire.sharded.merged.tuples).multiset_eq(&bag(&reference.sharded.merged.tuples)));
    assert_eq!(wire.sharded.merged.queries, reference.sharded.merged.queries);
    assert_eq!(wire.depth_histogram, reference.depth_histogram);
    assert_eq!(wire.max_depth, reference.max_depth);
}

#[test]
fn wire_faults_with_retry_equal_fault_free() {
    let shared = fixture(1_500, 128, 29);
    let reference = Crawl::builder()
        .sessions(2)
        .oversubscribe(3)
        .run_sharded(|_s| shared.client())
        .unwrap();

    let server = start(
        &shared,
        ServeOptions {
            budget: None,
            faults: Some(FaultPlan {
                rate: 0.15,
                seed: 0xfa57,
                stall: None,
            }),
            ..ServeOptions::default()
        },
    );
    let wire = Crawl::builder()
        .sessions(2)
        .oversubscribe(3)
        .retry(RetryPolicy::new(50).no_sleep())
        .run_sharded(connector(&server).retire_after(1_000))
        .unwrap();
    let stats = server.shutdown().unwrap();

    assert!(stats.faults_injected > 0, "the plan must actually have fired");
    assert!(
        bag(&wire.merged.tuples).multiset_eq(&bag(&reference.merged.tuples)),
        "wire faults changed the merged bag"
    );
    assert_eq!(
        wire.merged.queries, reference.merged.queries,
        "faulted requests must never be charged"
    );
    assert_eq!(wire.merged.resolved, reference.merged.resolved);
    assert_eq!(wire.merged.overflowed, reference.merged.overflowed);
    assert_eq!(wire.merged.pruned, reference.merged.pruned);
    assert!(wire.merged.metrics.transient_retries > 0, "retries happened");
}

/// Timeout-edge satellite: a stall longer than the client read timeout
/// surfaces as `DbError::Transient`, the stream is dropped, and the
/// identity recovers on reconnect.
#[test]
fn stalled_server_trips_client_read_timeout_as_transient() {
    let shared = fixture(300, 32, 31);
    let server = start(
        &shared,
        ServeOptions {
            budget: None,
            faults: Some(FaultPlan {
                rate: 1.0,
                seed: 7,
                stall: Some(Duration::from_millis(600)),
            }),
            ..ServeOptions::default()
        },
    );
    let mut db = connector(&server)
        .timeout(Duration::from_millis(60))
        .db(0);
    let err = db.query(&Query::any(shared.schema().arity())).unwrap_err();
    assert!(err.is_transient(), "timeout must be retryable, got {err:?}");
    assert!(
        err.to_string().contains("timeout"),
        "timeout should be named, got {err}"
    );
    assert_eq!(db.consecutive_failures(), 1);
    server.shutdown().unwrap();
}

/// Timeout-edge satellite, end to end: stalls past the client timeout
/// are retried and the crawl still matches fault-free bit-identically.
#[test]
fn stall_faults_with_retry_still_match_fault_free_bit_identically() {
    let shared = fixture(400, 112, 37);
    let reference = Crawl::builder()
        .sessions(1)
        .run_sharded(|_s| shared.client())
        .unwrap();

    let server = start(
        &shared,
        ServeOptions {
            budget: None,
            faults: Some(FaultPlan {
                rate: 0.10,
                seed: 0x57a11,
                stall: Some(Duration::from_millis(150)),
            }),
            ..ServeOptions::default()
        },
    );
    let wire = Crawl::builder()
        .sessions(1)
        .retry(RetryPolicy::new(50).no_sleep())
        .run_sharded(
            connector(&server)
                .timeout(Duration::from_millis(40))
                .retire_after(1_000),
        )
        .unwrap();
    let stats = server.shutdown().unwrap();

    assert!(stats.faults_injected > 0);
    assert!(bag(&wire.merged.tuples).multiset_eq(&bag(&reference.merged.tuples)));
    assert_eq!(wire.merged.queries, reference.merged.queries);
}

#[test]
fn per_connection_budget_round_trips_field_exactly() {
    let shared = fixture(300, 32, 41);
    let server = start(
        &shared,
        ServeOptions {
            budget: Some(2),
            faults: None,
            ..ServeOptions::default()
        },
    );
    let conn = connector(&server);
    let q = Query::any(shared.schema().arity());
    let mut db = conn.db(0);
    db.query(&q).unwrap();
    db.query(&q).unwrap();
    match db.query(&q).unwrap_err() {
        DbError::BudgetExhausted { issued, limit } => {
            assert_eq!((issued, limit), (2, 2), "fields must survive the wire");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // Budgets are per connection: a fresh identity gets a fresh quota.
    let mut other = conn.db(1);
    other.query(&q).unwrap();
    server.shutdown().unwrap();
}

#[test]
fn identity_retires_after_consecutive_wire_failures() {
    let shared = fixture(300, 32, 43);
    let server = start(&shared, ServeOptions::default());
    let conn = connector(&server).retire_after(3);
    let q = Query::any(shared.schema().arity());
    let mut db = conn.db(0);
    db.query(&q).unwrap();
    server.shutdown().unwrap(); // the server goes away for good

    for strike in 1..=3u32 {
        let err = db.query(&q).unwrap_err();
        assert!(
            err.is_transient(),
            "strike {strike} should still be transient, got {err:?}"
        );
        assert_eq!(db.consecutive_failures(), strike);
    }
    assert!(db.is_retired());
    // Past the threshold the identity fails permanently — the signal the
    // sharded crawler's identity-health salvage understands.
    let err = db.query(&q).unwrap_err();
    assert!(matches!(err, DbError::Backend(_)), "got {err:?}");
    assert!(err.to_string().contains("retired"));
}

/// Drain satellite: a shutdown that begins while a request is being
/// served (mid-stall here) must still answer that request in full — the
/// client sees the complete 503 body, never a reset or truncated frame.
#[test]
fn graceful_shutdown_answers_the_in_flight_request_in_full() {
    let shared = fixture(300, 32, 47);
    let server = start(
        &shared,
        ServeOptions {
            budget: None,
            faults: Some(FaultPlan {
                rate: 1.0,
                seed: 3,
                stall: Some(Duration::from_millis(400)),
            }),
            ..ServeOptions::default()
        },
    );
    let conn = connector(&server).timeout(Duration::from_secs(5));
    let arity = shared.schema().arity();
    let worker = std::thread::spawn(move || {
        let mut db = conn.db(0);
        db.query(&Query::any(arity)).unwrap_err()
    });
    // Let the request reach the handler and start stalling, then shut
    // down mid-stall. shutdown() blocks until the drain completes.
    std::thread::sleep(Duration::from_millis(120));
    server.shutdown().unwrap();

    let err = worker.join().unwrap();
    assert!(
        err.to_string().contains("injected wire fault"),
        "client must receive the complete 503 body through the drain, got: {err}"
    );
}

/// Checkpoint / kill / resume over the wire: starved by a per-connection
/// server budget, the crawl salvages and checkpoints; a resume against a
/// restarted (unbudgeted) server completes with the uninterrupted bag
/// and total accounting.
#[test]
fn wire_checkpoint_kill_resume_completes_exactly() {
    let shared = fixture(1_200, 112, 53);
    let uninterrupted = Crawl::builder()
        .oversubscribe(4)
        .run_sharded(|_s| shared.client())
        .unwrap();

    // Kill: the server meters each connection below the full cost.
    let starving = start(
        &shared,
        ServeOptions {
            budget: Some(uninterrupted.merged.queries / 2),
            faults: None,
            ..ServeOptions::default()
        },
    );
    let mut repo = MemoryRepository::default();
    let interrupted = Crawl::builder()
        .oversubscribe(4)
        .repository(&mut repo)
        .run_sharded(connector(&starving));
    starving.shutdown().unwrap();
    match interrupted {
        Err(CrawlError::Db { error, .. }) => {
            assert!(
                matches!(error, DbError::BudgetExhausted { .. }),
                "expected the server quota, got {error:?}"
            );
        }
        other => panic!("starved wire crawl must salvage, got {other:?}"),
    }
    let checkpointed = repo.saved().map(|cp| cp.shards.len()).unwrap_or(0);
    assert!(checkpointed > 0, "progress must have been checkpointed");

    // Resume: a restarted server on a fresh port, same repository.
    let restarted = start(&shared, ServeOptions::default());
    let resumed = Crawl::builder()
        .oversubscribe(4)
        .repository(&mut repo)
        .run_sharded(connector(&restarted))
        .unwrap();
    restarted.shutdown().unwrap();

    assert!(
        bag(&resumed.merged.tuples).multiset_eq(&bag(&uninterrupted.merged.tuples)),
        "wire resume must reconstruct the uninterrupted bag exactly"
    );
    assert_eq!(resumed.merged.queries, uninterrupted.merged.queries);
    let restored = resumed.shards.iter().filter(|s| s.restored).count();
    assert_eq!(restored, checkpointed, "checkpointed shards replay, not re-crawl");
}

/// One raw `GET` against the wire server, outside any crawl session.
fn scrape(addr: &str, path: &str) -> http::Response {
    use std::io::BufReader;
    let stream = std::net::TcpStream::connect(addr).expect("connect for scrape");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    http::write_request(&mut &stream, "GET", path, b"").expect("write scrape");
    http::read_response(&mut reader).expect("read scrape")
}

/// Telemetry is inert over the wire too: subscribing a slow observer to
/// a loopback crawl changes neither the bag, the charged cost, nor the
/// per-shard accounting — while `GET /metrics` and `GET /stats` answer
/// well-formed registry snapshots from the same server mid-crawl.
#[test]
fn observed_wire_crawl_is_bit_identical_and_metrics_answer_mid_crawl() {
    struct SlowTap {
        queries: u64,
        tuples: u64,
    }
    impl CrawlObserver for SlowTap {
        fn on_query(&mut self, _q: &Query, _out: &QueryOutcome) -> Flow {
            self.queries += 1;
            Flow::Continue
        }
        fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
            self.tuples += tuples.len() as u64;
            // Slow consumer: back-pressures the event channel without
            // being allowed to change anything about the crawl.
            std::thread::sleep(Duration::from_micros(200));
            Flow::Continue
        }
    }

    let shared = fixture(1_500, 128, 29);
    let server = start(&shared, ServeOptions::default());
    let addr = server.addr().to_string();

    let reference = Crawl::builder()
        .sessions(3)
        .run_sharded(connector(&server))
        .unwrap();

    hdc_obs::set_enabled(true);
    let conn = connector(&server);
    let crawl = std::thread::spawn(move || {
        let mut tap = SlowTap { queries: 0, tuples: 0 };
        let report = Crawl::builder()
            .sessions(3)
            .observer(&mut tap)
            .run_sharded(|identity| conn.db(identity))
            .unwrap();
        (report, tap.queries, tap.tuples)
    });

    // Scrape the same server the observed crawl is hammering.
    let mut prometheus_ok = false;
    let mut stats_ok = false;
    while !(crawl.is_finished() && prometheus_ok && stats_ok) {
        let metrics = scrape(&addr, "/metrics");
        assert_eq!(metrics.status, 200, "/metrics must answer mid-crawl");
        let body = String::from_utf8_lossy(&metrics.body).into_owned();
        assert!(
            body.contains("# TYPE hdc_wire_server_requests_total counter"),
            "/metrics is not Prometheus text:\n{body}"
        );
        prometheus_ok = true;
        let stats = scrape(&addr, "/stats");
        assert_eq!(stats.status, 200, "/stats must answer mid-crawl");
        assert!(
            stats.body.starts_with(b"{\"counters\":["),
            "/stats is not the JSON registry dump"
        );
        stats_ok = true;
        std::thread::sleep(Duration::from_millis(2));
    }
    let (observed, tap_queries, tap_tuples) = crawl.join().expect("observed crawl thread");
    hdc_obs::set_enabled(false);
    server.shutdown().unwrap();

    assert!(
        bag(&observed.merged.tuples).multiset_eq(&bag(&reference.merged.tuples)),
        "subscribing an observer changed the wire crawl's bag"
    );
    assert_eq!(
        observed.merged.queries, reference.merged.queries,
        "subscribing an observer changed the wire crawl's charged cost"
    );
    assert_eq!(observed.shards.len(), reference.shards.len());
    for (sa, sb) in reference.shards.iter().zip(&observed.shards) {
        assert_eq!(sa.spec, sb.spec, "observer changed the shard plan");
        assert_eq!(
            sa.report.queries, sb.report.queries,
            "observer changed a shard's charged cost over the wire"
        );
    }
    assert_eq!(tap_queries, observed.merged.queries, "observer missed charged queries");
    assert_eq!(
        tap_tuples,
        observed.merged.tuples.len() as u64,
        "observer missed tuples"
    );
}
