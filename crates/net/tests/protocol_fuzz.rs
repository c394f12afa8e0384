//! Fuzz-style corruption suite for the wire protocol, in the style of
//! `crates/core/tests/repository_fuzz.rs`: both endpoints face a peer
//! that may be broken, malicious, or dying mid-write.
//!
//! The contract, both directions:
//!
//! * **Server**: any byte stream that is not a well-formed request gets
//!   a clean `400` (or a clean close) — never a panic, never a hang
//!   past the request timeout — and the *same server* keeps serving
//!   well-formed requests afterwards.
//! * **Client**: any response that is not a well-formed frame (or is a
//!   well-formed `200` carrying garbage JSON) surfaces as a clean
//!   [`DbError::Transient`], the connection is dropped for reconnect,
//!   and the health counter ticks — never a panic, never a hang past
//!   the read timeout.
//!
//! Corruption is generated two ways: the named cases from the issue
//! (truncated frames, oversized headers, garbage bodies, half-written
//! responses, mid-response disconnects) and proptest-random byte blobs.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use proptest::prelude::*;

use hdc_net::http;
use hdc_net::proto;
use hdc_net::{HttpConnector, ServeOptions, WireServer};
use hdc_server::{ServerConfig, SharedServer};
use hdc_types::{HiddenDatabase, Query, Schema, Tuple, Value};

fn fixture() -> SharedServer {
    let schema = Schema::builder()
        .categorical("color", 4)
        .numeric("price", 0, 1_000)
        .build()
        .unwrap();
    let tuples: Vec<Tuple> = (0..200)
        .map(|i| Tuple::new(vec![Value::Cat(i % 4), Value::Int((i as i64 * 37) % 1_000)]))
        .collect();
    SharedServer::new(schema, tuples, ServerConfig { k: 32, seed: 7 }).unwrap()
}

// ---------------------------------------------------------------------
// Server under attack: raw sockets feed it garbage.
// ---------------------------------------------------------------------

/// Writes `payload` raw, half-closes, and drains whatever the server
/// answers (bounded by a read timeout so a buggy server cannot hang the
/// suite). Returns the raw response bytes (empty = clean close).
fn poke(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A dying client may fail mid-write; ignore errors on our side.
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(Shutdown::Write);
    let mut resp = Vec::new();
    let _ = stream.read_to_end(&mut resp);
    resp
}

fn assert_schema_still_served(addr: SocketAddr) {
    let conn = HttpConnector::new(&addr.to_string())
        .expect("server must keep serving well-formed requests after garbage");
    assert!(conn.info().n > 0);
}

#[test]
fn server_answers_named_corruptions_with_clean_400s_and_keeps_serving() {
    let server = WireServer::start("127.0.0.1:0", fixture(), ServeOptions::default()).unwrap();
    let addr = server.addr();

    let oversized_header = format!(
        "POST /query HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
        "a".repeat(http::MAX_LINE + 10)
    );
    let named: &[(&str, Vec<u8>)] = &[
        ("truncated request line", b"POST /que".to_vec()),
        (
            "bare garbage",
            b"\xff\xfe\xfd\x00\x01garbage\r\n\r\n".to_vec(),
        ),
        ("oversized header line", oversized_header.into_bytes()),
        (
            "non-numeric content-length",
            b"POST /query HTTP/1.1\r\nContent-Length: seven\r\n\r\n".to_vec(),
        ),
        (
            "oversized content-length",
            format!(
                "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                http::MAX_BODY + 1
            )
            .into_bytes(),
        ),
        (
            "chunked transfer encoding",
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        ),
        (
            "half-written request (body shorter than content-length)",
            b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"q\":[".to_vec(),
        ),
        (
            "garbage body on a valid frame",
            b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!".to_vec(),
        ),
        (
            "mid-request disconnect",
            b"POST /query HTTP/1.1\r\nConte".to_vec(),
        ),
    ];

    for (label, payload) in named {
        let resp = poke(addr, payload);
        // Every named case must draw a response (the server saw a broken
        // or un-servable frame and said so), and that response must be a
        // well-formed 400 — except the valid-frame/garbage-body case,
        // which is a 400 from the JSON layer instead of the HTTP layer.
        assert!(!resp.is_empty(), "{label}: server closed without answering");
        let parsed = http::read_response(&mut std::io::BufReader::new(&resp[..]))
            .unwrap_or_else(|e| panic!("{label}: malformed server response: {e}"));
        assert_eq!(parsed.status, 400, "{label}: expected a clean 400");
        let body = String::from_utf8_lossy(&parsed.body);
        assert!(
            body.contains("\"kind\""),
            "{label}: error body must carry the protocol error shape, got {body}"
        );
    }

    assert_schema_still_served(addr);
    server.shutdown().unwrap();
}

#[test]
fn server_survives_idle_open_and_instant_disconnects() {
    let server = WireServer::start("127.0.0.1:0", fixture(), ServeOptions::default()).unwrap();
    let addr = server.addr();

    // Connect-and-vanish, repeatedly.
    for _ in 0..8 {
        drop(TcpStream::connect(addr).unwrap());
    }
    // Connect, write nothing, half-close (clean EOF — not an error).
    let s = TcpStream::connect(addr).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    drop(s);

    assert_schema_still_served(addr);
    server.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary byte blobs never panic or wedge the server, and never
    /// parse into a served query: the server either answers 400 or
    /// closes, then keeps serving the real protocol.
    #[test]
    fn server_survives_random_garbage(words in proptest::collection::vec(any::<u32>(), 0..128)) {
        let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let server = WireServer::start("127.0.0.1:0", fixture(), ServeOptions::default()).unwrap();
        let addr = server.addr();
        let resp = poke(addr, &payload);
        if !resp.is_empty() {
            // Whatever came back must at least be parseable framing.
            let parsed = http::read_response(&mut std::io::BufReader::new(&resp[..]));
            if let Ok(r) = parsed {
                prop_assert!(r.status == 400 || r.status == 404 || r.status == 405,
                    "garbage drew status {}", r.status);
            }
        }
        assert_schema_still_served(addr);
        server.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// Client under attack: a fake server feeds it garbage responses.
// ---------------------------------------------------------------------

/// A one-shot fake server: answers `GET /schema` correctly (so the
/// connector's eager probe succeeds), then answers every other request
/// by writing `payload` raw and closing the connection.
fn fake_server(payload: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let schema_resp = {
        let shared = fixture();
        let body = proto::schema_body(shared.schema(), shared.k(), 200);
        let mut buf = Vec::new();
        http::write_response(
            &mut buf,
            &http::Response::json(200, body.into_bytes()),
            false,
        )
        .unwrap();
        buf
    };
    let handle = std::thread::spawn(move || {
        // Serve connections until the attack payload has been delivered
        // once, then quit — the thread must not outlive the test.
        'accepting: loop {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            loop {
                match http::read_request(&mut reader) {
                    Ok(Some(req)) if req.path == "/schema" => {
                        let _ = (&stream).write_all(&schema_resp);
                        let _ = (&stream).flush();
                    }
                    Ok(Some(_)) => {
                        let _ = (&stream).write_all(&payload);
                        let _ = (&stream).flush();
                        let _ = stream.shutdown(Shutdown::Both);
                        break 'accepting;
                    }
                    _ => break,
                }
            }
        }
    });
    (addr, handle)
}

/// Drives one query against a fake server that answers it with
/// `payload`; returns the client-side error.
fn attack_client(payload: &[u8]) -> hdc_types::DbError {
    let (addr, handle) = fake_server(payload.to_vec());
    let conn = HttpConnector::new(&addr.to_string())
        .expect("schema probe against the fake server")
        .timeout(Duration::from_millis(500));
    let mut db = conn.db(0);
    let err = db
        .query(&Query::any(conn.info().schema.arity()))
        .expect_err("corrupt response must not parse into an Ok");
    assert_eq!(db.consecutive_failures(), 1, "health counter must tick");
    drop(db);
    drop(conn);
    handle.join().unwrap();
    err
}

#[test]
fn client_turns_named_corruptions_into_clean_transients() {
    let oversized_header = format!(
        "HTTP/1.1 200 OK\r\nX-Junk: {}\r\n\r\n",
        "a".repeat(http::MAX_LINE + 10)
    );
    let named: &[(&str, Vec<u8>)] = &[
        ("mid-response disconnect (no bytes)", Vec::new()),
        ("truncated status line", b"HTTP/1.1 20".to_vec()),
        (
            "garbage status line",
            b"\xfftotally not http\r\n\r\n".to_vec(),
        ),
        (
            "non-numeric status",
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n".to_vec(),
        ),
        ("oversized header line", oversized_header.into_bytes()),
        (
            "half-written response (body shorter than content-length)",
            b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{\"tup".to_vec(),
        ),
        (
            "oversized content-length",
            format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                http::MAX_BODY + 1
            )
            .into_bytes(),
        ),
        (
            "chunked transfer encoding",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        ),
        (
            "well-formed 200 carrying garbage JSON",
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!".to_vec(),
        ),
        (
            "well-formed 200 carrying truncated JSON",
            b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{\"tuples\":[[".to_vec(),
        ),
    ];

    for (label, payload) in named {
        let err = attack_client(payload);
        assert!(
            err.is_transient(),
            "{label}: must be retryable for the crawl's retry loop, got {err:?}"
        );
    }
}

/// A fake server that accepts the query but never answers must trip the
/// client's read timeout — the suite completing at all proves the
/// client cannot hang past its deadline.
#[test]
fn client_times_out_cleanly_when_the_response_never_comes() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let schema_resp = {
        let shared = fixture();
        let body = proto::schema_body(shared.schema(), shared.k(), 200);
        let mut buf = Vec::new();
        http::write_response(
            &mut buf,
            &http::Response::json(200, body.into_bytes()),
            false,
        )
        .unwrap();
        buf
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        let mut held = Vec::new();
        for _ in 0..2 {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            if let Ok(Some(req)) = http::read_request(&mut reader) {
                if req.path == "/schema" {
                    let _ = (&stream).write_all(&schema_resp);
                }
                // Any other request: hold the socket open, say nothing.
            }
            held.push(stream);
        }
        // Keep the held sockets open (silent, not closed) until the
        // client has observed its timeout.
        let _ = done_rx.recv();
        drop(held);
    });

    let conn = HttpConnector::new(&addr.to_string())
        .unwrap()
        .timeout(Duration::from_millis(120));
    let mut db = conn.db(0);
    let start = std::time::Instant::now();
    let err = db
        .query(&Query::any(conn.info().schema.arity()))
        .unwrap_err();
    assert!(err.is_transient(), "got {err:?}");
    assert!(
        err.to_string().contains("timeout"),
        "timeout should be named, got {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "client hung far past its 120ms deadline"
    );
    drop(db);
    drop(conn);
    done_tx.send(()).unwrap();
    handle.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Arbitrary response blobs never panic the client and never parse
    /// into an `Ok`: every outcome is a clean `DbError`.
    #[test]
    fn client_survives_random_garbage_responses(
        words in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let err = attack_client(&payload);
        // Random bytes cannot be a well-formed success; whatever error
        // class they map to, it must carry a message.
        prop_assert!(!err.to_string().is_empty());
    }
}
