//! Minimal HTTP/1.1 framing over blocking streams — just enough for the
//! loopback protocol: request line + headers + `Content-Length` body,
//! keep-alive by default, no chunked encoding, hard limits everywhere.
//!
//! Both directions parse defensively (the corruption suite drives raw
//! sockets against them): an over-long line, too many headers, a
//! non-numeric or oversized `Content-Length`, or a truncated body is a
//! clean [`std::io::Error`] with [`ErrorKind::InvalidData`] — never a
//! panic, never an unbounded read.

use std::io::{self, BufRead, ErrorKind, Write};

/// Longest accepted request/status/header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per message.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted body, in bytes (a crawl batch response with
/// `MAX_BATCH × k` tuples fits with two orders of magnitude to spare).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// A parsed request head + body.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path (`/query`, …), as sent.
    pub path: String,
    /// Raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// A response to send or a parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Raw body.
    pub body: Vec<u8>,
    /// `Content-Type` written with the response. Parsed responses
    /// default to JSON (the protocol's native framing); the telemetry
    /// endpoints answer Prometheus plain text instead.
    pub content_type: &'static str,
}

/// The protocol's native body type.
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// Prometheus text exposition (the `GET /metrics` answer).
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

impl Response {
    /// A JSON response (every protocol endpoint).
    pub fn json(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            body,
            content_type: CONTENT_TYPE_JSON,
        }
    }

    /// A Prometheus text response (`GET /metrics`).
    pub fn prometheus(status: u16, body: String) -> Self {
        Response {
            status,
            body: body.into_bytes(),
            content_type: CONTENT_TYPE_PROMETHEUS,
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// Reads one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`].
/// `Ok(None)` means clean EOF before any byte.
///
/// Scans the reader's buffer (`fill_buf`/`consume`) for the newline
/// instead of reading byte by byte, and consumes nothing past it, so the
/// body that follows the head stays in the buffer.
fn read_line<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(invalid("truncated line (eof mid-line)"));
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (&buf[..i], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > MAX_LINE {
            return Err(invalid("header line too long"));
        }
        line.extend_from_slice(chunk);
        let used = chunk.len() + usize::from(done);
        r.consume(used);
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let s = String::from_utf8(line).map_err(|_| invalid("non-utf8 header line"))?;
            return Ok(Some(s));
        }
    }
}

/// What the header block says about framing.
struct Head {
    content_length: usize,
    /// The peer sent `Connection: close`.
    close: bool,
}

/// Parses `Content-Length` and `Connection: close` out of the header
/// block, reading at most [`MAX_HEADERS`] lines. Rejects chunked
/// transfer encoding.
fn read_headers<R: BufRead>(r: &mut R) -> io::Result<Head> {
    let mut head = Head {
        content_length: 0,
        close: false,
    };
    for _ in 0..MAX_HEADERS {
        let line = read_line(r)?.ok_or_else(|| invalid("eof in headers"))?;
        if line.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid("malformed header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            let len: usize = value
                .parse()
                .map_err(|_| invalid("non-numeric content-length"))?;
            if len > MAX_BODY {
                return Err(invalid("body too large"));
            }
            head.content_length = len;
        } else if name == "connection" {
            head.close = value.eq_ignore_ascii_case("close");
        } else if name == "transfer-encoding" {
            return Err(invalid("chunked transfer encoding not supported"));
        }
    }
    Err(invalid("too many headers"))
}

fn read_body<R: BufRead>(r: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => invalid("truncated body"),
        _ => e,
    })?;
    Ok(body)
}

/// Reads one request. `Ok(None)` on clean EOF before any byte (the
/// peer closed an idle keep-alive connection).
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    let Some(line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(invalid("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported protocol version"));
    }
    let head = read_headers(r)?;
    let body = read_body(r, head.content_length)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    }))
}

/// Reads one response (status line + headers + body).
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    read_response_and_close(r).map(|(resp, _)| resp)
}

/// [`read_response`], plus whether the server sent `Connection: close`
/// (it will not read another request on this connection).
pub(crate) fn read_response_and_close<R: BufRead>(r: &mut R) -> io::Result<(Response, bool)> {
    let line = read_line(r)?.ok_or_else(|| invalid("connection closed before response"))?;
    let mut parts = line.split_whitespace();
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(invalid("malformed status line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported protocol version"));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| invalid("non-numeric status code"))?;
    let head = read_headers(r)?;
    let body = read_body(r, head.content_length)?;
    Ok((Response::json(status, body), head.close))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one request (always with a `Content-Length`, keep-alive).
pub fn write_request<W: Write>(w: &mut W, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
    let mut msg = Vec::with_capacity(96 + body.len());
    write!(
        msg,
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )?;
    send(w, msg, body)
}

/// A response head; `close` adds `Connection: close`.
fn response_head(status: u16, body_len: usize, content_type: &str, close: bool) -> String {
    format!(
        "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nContent-Type: {}\r\n{}\r\n",
        status,
        reason(status),
        body_len,
        content_type,
        if close { "Connection: close\r\n" } else { "" }
    )
}

/// Writes one response; `close` adds `Connection: close`.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, close: bool) -> io::Result<()> {
    let head = response_head(resp.status, resp.body.len(), resp.content_type, close);
    send(w, head.into_bytes(), &resp.body)
}

/// Bytes reserved in front of an [`InPlaceBody`]: more than the longest
/// head [`response_head`] writes for a JSON body (108 bytes, with a
/// 20-digit length and `Connection: close`).
const HEAD_ROOM: usize = 128;

/// A `200` JSON response assembled in place: the body is appended after
/// room reserved for the head, and [`InPlaceBody::send`] writes the head
/// into that room, so the message leaves in one write without the body
/// being copied. The buffer keeps its capacity from one response to the
/// next.
#[derive(Debug, Default)]
pub(crate) struct InPlaceBody {
    buf: String,
}

impl InPlaceBody {
    /// Starts a new body and returns the buffer to append it to. Append
    /// only: the reserved room in front belongs to the head.
    pub(crate) fn begin(&mut self) -> &mut String {
        self.buf.clear();
        self.buf.extend(std::iter::repeat_n(' ', HEAD_ROOM));
        &mut self.buf
    }

    /// Writes the head in front of the body begun last and sends both in
    /// one write; `close` adds `Connection: close`.
    pub(crate) fn send<W: Write>(&mut self, w: &mut W, close: bool) -> io::Result<()> {
        let head = response_head(200, self.buf.len() - HEAD_ROOM, CONTENT_TYPE_JSON, close);
        let start = HEAD_ROOM - head.len();
        // Same length in as out: overwrites the room without moving the body.
        self.buf.replace_range(start..HEAD_ROOM, &head);
        w.write_all(&self.buf.as_bytes()[start..])?;
        w.flush()
    }
}

/// Appends `body` to the formatted `head` and hands the message to `w`
/// in one `write_all`: on a `TCP_NODELAY` socket every separate write
/// is its own syscall and its own segment.
fn send<W: Write>(w: &mut W, mut head: Vec<u8>, body: &[u8]) -> io::Result<()> {
    head.extend_from_slice(body);
    w.write_all(&head)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Records the bytes and counts the `write` calls a message takes.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn roundtrip_request(method: &str, path: &str, body: &[u8]) -> Request {
        let mut wire = CountingWriter::default();
        write_request(&mut wire, method, path, body).unwrap();
        assert_eq!(wire.writes, 1, "a request leaves in one write");
        read_request(&mut BufReader::new(&wire.bytes[..]))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn request_round_trip() {
        let req = roundtrip_request("POST", "/query", br#"{"q":["*"]}"#);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, br#"{"q":["*"]}"#);
        let empty = roundtrip_request("GET", "/schema", b"");
        assert!(empty.body.is_empty());
    }

    #[test]
    fn response_round_trip() {
        for close in [true, false] {
            let mut wire = CountingWriter::default();
            write_response(&mut wire, &Response::json(503, b"{}".to_vec()), close).unwrap();
            assert_eq!(wire.writes, 1, "a response leaves in one write");
            let (resp, closing) =
                read_response_and_close(&mut BufReader::new(&wire.bytes[..])).unwrap();
            assert_eq!(resp.status, 503);
            assert_eq!(resp.body, b"{}");
            assert_eq!(closing, close);
        }
    }

    #[test]
    fn in_place_body_matches_write_response_in_one_write() {
        let mut body = InPlaceBody::default();
        for (text, close) in [("{\"ok\":true}", false), ("", true), ("[1,2]", false)] {
            body.begin().push_str(text);
            let mut wire = CountingWriter::default();
            body.send(&mut wire, close).unwrap();
            assert_eq!(wire.writes, 1, "head and body leave in one write");
            let mut want = CountingWriter::default();
            write_response(
                &mut want,
                &Response::json(200, text.as_bytes().to_vec()),
                close,
            )
            .unwrap();
            assert_eq!(wire.bytes, want.bytes);
        }
        let longest = response_head(200, usize::MAX, CONTENT_TYPE_JSON, true);
        assert!(longest.len() <= HEAD_ROOM, "{} bytes", longest.len());
    }

    #[test]
    fn lines_split_across_buffer_fills_and_leave_the_body_unread() {
        let msg = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // A 1-byte buffer makes every line span many fills.
        for cap in [1, 3, 16, 4096] {
            let req = read_request(&mut BufReader::with_capacity(cap, &msg[..]))
                .unwrap()
                .unwrap();
            assert_eq!(
                (req.path.as_str(), &req.body[..]),
                ("/query", &b"body"[..]),
                "{cap}"
            );
        }
        // The bound counts every byte before the `\n`, the `\r` too.
        let longest = format!("GET /{} HTTP/1.1\r", "a".repeat(MAX_LINE - 15));
        assert_eq!(longest.len(), MAX_LINE);
        let ok = format!("{longest}\n\r\n");
        assert!(read_request(&mut BufReader::with_capacity(7, ok.as_bytes())).is_ok());
        let long = format!("a{longest}\n\r\n");
        for cap in [1, 7, MAX_LINE * 2] {
            let err =
                read_request(&mut BufReader::with_capacity(cap, long.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{cap}");
        }
    }

    #[test]
    fn idle_eof_is_none_truncation_is_error() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
        for bad in [
            &b"POST /query"[..],                                    // eof mid-line
            &b"POST /query HTTP/1.1\r\n"[..],                       // eof in headers
            &b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"[..], // truncated body
        ] {
            assert!(read_request(&mut BufReader::new(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn limits_are_enforced() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(read_request(&mut BufReader::new(long_line.as_bytes())).is_err());

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS + 1 {
            many_headers.push_str(&format!("X-H{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(read_request(&mut BufReader::new(many_headers.as_bytes())).is_err());

        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(&mut BufReader::new(huge.as_bytes())).is_err());

        let nan = "POST / HTTP/1.1\r\nContent-Length: seven\r\n\r\n";
        assert!(read_request(&mut BufReader::new(nan.as_bytes())).is_err());

        let chunked = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(read_request(&mut BufReader::new(chunked.as_bytes())).is_err());
    }

    #[test]
    fn garbage_lines_are_clean_errors() {
        for bad in [
            &b"\xff\xfe\xfd\r\n\r\n"[..],
            &b"ONEWORD\r\n\r\n"[..],
            &b"GET / SPDY/9\r\n\r\n"[..],
            &b"GET / HTTP/1.1 extra\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
        ] {
            assert!(read_request(&mut BufReader::new(bad)).is_err(), "{bad:?}");
        }
    }
}
