//! Minimal HTTP/1.1 plumbing over `std::net` — just enough for the
//! experiment service's JSON API (and its client side, used by
//! `graphmem submit` and the loopback tests). One request per
//! connection, `Connection: close`, no TLS, no chunked encoding: body
//! framing is `Content-Length` on requests and close-delimited on
//! streamed responses.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (a sweep submission is a few hundred
/// bytes; anything near this limit is abuse, not traffic).
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted request head: the request line and every header line
/// together. A client that sends more (or never sends a newline) is
/// refused once this many bytes are read.
pub const MAX_HEAD: usize = 16 << 10;

/// A parsed request: method, path, content negotiation, and (possibly
/// empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/runs/3`.
    pub path: String,
    /// The `Accept` header value, lower-cased (empty when absent). Routes
    /// offering more than one representation (`GET /metrics`) negotiate
    /// on this.
    pub accept: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one line of the request head into `line`, charging it to the
/// `budget` of head bytes left. Returns the bytes read (0 at end of
/// stream).
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    line: &mut String,
) -> io::Result<usize> {
    let n = reader.by_ref().take(*budget as u64).read_line(line)?;
    if n == *budget && !line.ends_with('\n') {
        return Err(bad("request head too large"));
    }
    *budget -= n;
    Ok(n)
}

/// Read one HTTP/1.1 request from `reader` (a buffered socket in the
/// server).
///
/// # Errors
///
/// Returns `InvalidData` for malformed framing (bad request line, a head
/// over [`MAX_HEAD`], non-numeric or oversized `Content-Length`,
/// non-UTF-8 head or body) and propagates read errors, such as
/// `UnexpectedEof` for a body cut short.
pub fn read_request(mut reader: impl BufRead) -> io::Result<Request> {
    let mut budget = MAX_HEAD;
    let mut line = String::new();
    read_head_line(&mut reader, &mut budget, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no path"))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(bad("not an HTTP/1.x request"));
    }
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_length = 0usize;
    let mut accept = String::new();
    loop {
        let mut header = String::new();
        if read_head_line(&mut reader, &mut budget, &mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("request body too large"));
                }
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_ascii_lowercase();
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        accept,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Write a complete JSON response (with `Content-Length`) and flush.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

/// Write a complete plain-text response (the Prometheus exposition
/// format's `text/plain; version=0.0.4`) and flush.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn respond_text(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

/// Start a close-delimited streaming response (JSON Lines). The caller
/// writes rows afterwards and signals the end by closing the connection.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn start_stream(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Client side: perform one request against `addr`, returning
/// `(status, body)`. The connection is closed after the exchange.
///
/// # Errors
///
/// Propagates connect/read/write errors; malformed responses surface as
/// `InvalidData`.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    request_accept(addr, method, path, "", body)
}

/// Like [`request`], additionally sending an `Accept` header when
/// `accept` is non-empty (e.g. `text/plain` to scrape `GET /metrics` in
/// the Prometheus exposition format).
///
/// # Errors
///
/// Propagates connect/read/write errors; malformed responses surface as
/// `InvalidData`.
pub fn request_accept(
    addr: &str,
    method: &str,
    path: &str,
    accept: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let accept_header = if accept.is_empty() {
        String::new()
    } else {
        format!("Accept: {accept}\r\n")
    };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{accept_header}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let status = read_status(&mut reader)?;
    skip_headers(&mut reader)?;
    let mut out = String::new();
    reader.read_to_string(&mut out)?;
    Ok((status, out))
}

/// Client side: GET `path` and feed each response line to `on_line` as it
/// arrives (the streamed `GET /runs/<id>` format). Returns the status.
///
/// # Errors
///
/// Propagates connect/read/write errors.
pub fn stream_lines(addr: &str, path: &str, mut on_line: impl FnMut(&str)) -> io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let status = read_status(&mut reader)?;
    skip_headers(&mut reader)?;
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        let trimmed = line.trim_end();
        if !trimmed.is_empty() {
            on_line(trimmed);
        }
        line.clear();
    }
    Ok(status)
}

fn read_status(reader: &mut BufReader<TcpStream>) -> io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))
}

fn skip_headers(reader: &mut BufReader<TcpStream>) -> io::Result<()> {
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim_end().is_empty() {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    const VALID: &str =
        "POST /runs HTTP/1.1\r\nHost: x\r\nAccept: Application/JSON\r\nContent-Length: 7\r\n\r\n{\"x\":1}";

    /// Parse `bytes`, returning the outcome and how many bytes were read.
    fn parse(bytes: Vec<u8>) -> (io::Result<Request>, usize) {
        let mut cursor = Cursor::new(bytes);
        let result = read_request(&mut cursor);
        (result, cursor.position() as usize)
    }

    fn refused_as_too_large(result: io::Result<Request>) -> bool {
        matches!(result, Err(e) if e.kind() == io::ErrorKind::InvalidData
            && e.to_string().contains("too large"))
    }

    #[test]
    fn request_parses_from_any_buffered_reader() {
        let (req, read) = parse(VALID.as_bytes().to_vec());
        let req = req.expect("valid request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/runs"));
        assert_eq!(
            (req.accept.as_str(), req.body.as_str()),
            ("application/json", "{\"x\":1}")
        );
        assert_eq!(read, VALID.len());
    }

    #[test]
    fn an_unbounded_head_is_refused_after_max_head_bytes() {
        // A request line that never ends.
        let (result, read) = parse(vec![b'a'; 64 * MAX_HEAD]);
        assert!(refused_as_too_large(result));
        assert!(read <= MAX_HEAD, "read {read} bytes");
        // Short header lines without end.
        let mut flood = b"GET /metrics HTTP/1.1\r\n".to_vec();
        for _ in 0..MAX_HEAD {
            flood.extend_from_slice(b"X-Flood: 1\r\n");
        }
        flood.extend_from_slice(b"\r\n");
        let (result, read) = parse(flood);
        assert!(refused_as_too_large(result));
        assert!(read <= MAX_HEAD, "read {read} bytes");
        // A head just inside the limit still parses.
        let pad = MAX_HEAD - "GET / HTTP/1.1\r\nX: \r\n\r\n".len();
        let fits = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "p".repeat(pad));
        assert!(parse(fits.into_bytes()).0.is_ok());
    }

    /// `VALID` mangled one of five ways: truncated, a byte flipped, lines
    /// spliced, an oversized header, or a flood of headers. Returns the
    /// bytes and whether the head is over [`MAX_HEAD`].
    fn mangled_request(rng: &mut proptest::TestRng) -> (Vec<u8>, bool) {
        let mut bytes = VALID.as_bytes().to_vec();
        // Extra headers go right after the request line.
        let after_line = VALID.find('\n').unwrap_or_default() + 1;
        let head = VALID.len() - "{\"x\":1}".len();
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 => bytes.truncate(at),
            1 => {
                let i = at.min(bytes.len() - 1);
                bytes[i] ^= rng.below(255) as u8 + 1;
            }
            2 => {
                bytes.retain(|&b| b != b'\n' || rng.below(2) == 0);
            }
            3 => {
                let len = rng.below(2 * MAX_HEAD as u64) as usize;
                let header = format!("X-Big: {}\r\n", "v".repeat(len));
                let over = head + header.len() > MAX_HEAD;
                bytes.splice(after_line..after_line, header.into_bytes());
                return (bytes, over);
            }
            _ => {
                let n = rng.below(4 * MAX_HEAD as u64 / 8) as usize;
                let flood = "X-F: 1\r\n".repeat(n);
                let over = head + flood.len() > MAX_HEAD;
                bytes.splice(after_line..after_line, flood.into_bytes());
                return (bytes, over);
            }
        }
        (bytes, false)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Property: a truncated, byte-flipped, spliced, oversized or
        /// header-flooded request never panics the parser, fails only
        /// with a typed framing or end-of-stream error, never reads more
        /// head than [`MAX_HEAD`] allows, and is refused whenever its head
        /// is over the limit.
        #[test]
        fn mangled_requests_fail_typed(case in 0u32..u32::MAX) {
            let mut rng = proptest::TestRng::for_case("http_fuzz", case);
            let (bytes, over) = mangled_request(&mut rng);
            let parsed = std::panic::catch_unwind(|| parse(bytes));
            prop_assert!(parsed.is_ok(), "panicked");
            let (result, read) = parsed.unwrap_or_else(|_| unreachable!());
            if over {
                prop_assert!(refused_as_too_large(result), "accepted an oversized head");
                prop_assert!(read <= MAX_HEAD, "read {read} head bytes");
                return Ok(());
            }
            prop_assert!(read <= MAX_HEAD + MAX_BODY);
            match result {
                Ok(req) => prop_assert!(req.body.len() <= MAX_BODY),
                Err(e) => prop_assert!(
                    matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                    "untyped error {e:?}"
                ),
            }
        }
    }

    #[test]
    fn request_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let req = read_request(BufReader::new(&mut conn)).expect("parse");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/runs");
            assert_eq!(req.body, "{\"x\":1}");
            respond_json(&mut conn, 202, "{\"ok\":true}").expect("respond");
        });
        let (status, body) = request(&addr, "POST", "/runs", "{\"x\":1}").expect("request");
        assert_eq!(status, 202);
        assert_eq!(body, "{\"ok\":true}");
        server.join().expect("server thread");
    }

    #[test]
    fn streaming_lines_arrive_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_request(BufReader::new(&mut conn)).expect("parse");
            start_stream(&mut conn).expect("headers");
            for i in 0..3 {
                writeln!(conn, "{{\"row\":{i}}}").expect("row");
            }
        });
        let mut rows = Vec::new();
        let status = stream_lines(&addr, "/runs/0", |l| rows.push(l.to_string())).expect("stream");
        assert_eq!(status, 200);
        assert_eq!(rows, ["{\"row\":0}", "{\"row\":1}", "{\"row\":2}"]);
        server.join().expect("server thread");
    }

    #[test]
    fn oversized_and_malformed_requests_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(s, "BOGUS\r\n\r\n").expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        assert!(read_request(BufReader::new(&mut conn)).is_err());
        client.join().expect("client thread");
    }
}
