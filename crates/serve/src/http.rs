//! Hand-rolled HTTP/1.1 — exactly the slice the daemon and its client
//! need, over `std::net` only.
//!
//! Server side: [`read_request`] parses one request (with hard limits
//! on line, header, and body sizes — this faces untrusted peers),
//! [`Response`] renders one reply, and [`ChunkedWriter`] streams a
//! `Transfer-Encoding: chunked` body for the NDJSON progress
//! endpoint. Connections are keep-alive by default, as HTTP/1.1
//! specifies; `Connection: close` (or a parse error) ends them.
//!
//! Client side: [`read_response`] consumes a full reply and
//! [`ChunkedReader`] adapts a chunked body into a plain `Read` so the
//! submit client can iterate NDJSON lines as they arrive.

use std::io::{self, BufRead, Read, Write};
use std::sync::Arc;

/// Longest accepted request line or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per message.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with query string intact (no percent-decoding; the API
    /// uses none).
    pub path: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the peer asked to end the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A well-formed request whose declared body exceeds [`MAX_BODY`]; the
/// server answers it 413 where [`bad`] input gets 400.
fn too_large(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::FileTooLarge, msg.to_string())
}

/// Read one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`].
fn read_line_limited(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None) // clean EOF between requests
                } else {
                    Err(bad("truncated line"))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let s = String::from_utf8(buf).map_err(|_| bad("non-UTF-8 header line"))?;
                    return Ok(Some(s));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(bad("header line too long"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Parse one request off the wire. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive end).
/// `InvalidData` is a malformed request (400), `FileTooLarge` a body
/// over [`MAX_BODY`] (413); after either the framing is unknown and the
/// connection must close.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line_limited(r)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(r)?.ok_or_else(|| bad("truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    // Framing: exactly one way to delimit the body. A second
    // `Content-Length`, or a `Transfer-Encoding` (the API never needs
    // chunked *requests*) with or without one, is a request another
    // HTTP hop could frame differently — reject rather than desync.
    if req.header("transfer-encoding").is_some() {
        return Err(bad("chunked requests not supported"));
    }
    let mut lengths = req.headers.iter().filter(|(k, _)| k == "content-length");
    let len = match (lengths.next(), lengths.next()) {
        (_, Some(_)) => return Err(bad("multiple content-length headers")),
        (Some((_, v)), None) => v.parse().map_err(|_| bad("bad content-length"))?,
        (None, _) => 0usize,
    };
    if len > MAX_BODY {
        return Err(too_large("body too large"));
    }
    req.body = vec![0u8; len];
    r.read_exact(&mut req.body)?;
    Ok(Some(req))
}

/// One reply under construction. The body on the wire is `body`, then
/// `shared`, then `tail`: a text many replies carry (a job's rendered
/// result) is written from the allocation they share instead of being
/// copied into each.
#[derive(Debug)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    shared: Option<Arc<str>>,
    tail: Vec<u8>,
}

impl Response {
    /// Start a reply with the given status code.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            shared: None,
            tail: Vec::new(),
        }
    }

    /// JSON reply: sets the body and `Content-Type`.
    pub fn json(status: u16, v: &deep_json::Value) -> Response {
        Response::json_spliced(status, v.to_json_pretty(), None, String::new())
    }

    /// JSON reply whose document is `head`, `shared`, `tail` in a row,
    /// already rendered.
    pub fn json_spliced(
        status: u16,
        head: String,
        shared: Option<Arc<str>>,
        tail: String,
    ) -> Response {
        let mut resp = Response::new(status);
        resp.headers
            .push(("Content-Type".into(), "application/json".into()));
        resp.body = head.into_bytes();
        resp.shared = shared;
        resp.tail = tail.into_bytes();
        resp.tail.push(b'\n');
        resp
    }

    /// Plain-text reply.
    pub fn text(status: u16, body: &str) -> Response {
        let mut resp = Response::new(status);
        resp.headers
            .push(("Content-Type".into(), "text/plain; charset=utf-8".into()));
        resp.body = body.as_bytes().to_vec();
        resp
    }

    /// Append a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Canonical reason phrase for the status codes the API uses.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serialise onto the socket with explicit framing.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        let shared = self.shared.as_deref().unwrap_or("").as_bytes();
        let length = self.body.len() + shared.len() + self.tail.len();
        write!(w, "Content-Length: {length}\r\n")?;
        write!(
            w,
            "Connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        w.write_all(&self.body)?;
        w.write_all(shared)?;
        w.write_all(&self.tail)?;
        w.flush()
    }
}

/// Streaming chunked body: send the status line + headers once, then
/// arbitrarily many chunks, then [`ChunkedWriter::finish`].
pub struct ChunkedWriter<W: Write> {
    w: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Emit the `200 OK` response head announcing a chunked body.
    pub fn start(mut w: W, content_type: &str) -> io::Result<ChunkedWriter<W>> {
        write!(
            w,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        w.flush()?;
        Ok(ChunkedWriter { w, finished: false })
    }

    /// Send one chunk (flushed immediately — progress must not sit in
    /// a buffer).
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminate the stream with the zero-length chunk.
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// A parsed client-side reply.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Entire body (chunked bodies are de-chunked).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read the status line + headers of a reply; body handling is up to
/// the caller (fixed-length, chunked, or streamed).
pub fn read_response_head(r: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    // The peer closed before a single byte of a reply: `UnexpectedEof`,
    // which the client takes as the mark of a stale connection.
    let line = read_line_limited(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(r)?.ok_or_else(|| bad("truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((status, headers))
}

/// Read one whole reply, de-chunking if needed.
pub fn read_response(r: &mut impl BufRead) -> io::Result<ClientResponse> {
    let (status, headers) = read_response_head(r)?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        ChunkedReader::new(r).read_to_end(&mut body)?;
    } else if let Some((_, len)) = headers.iter().find(|(k, _)| k == "content-length") {
        let len: usize = len.parse().map_err(|_| bad("bad content-length"))?;
        if len > MAX_BODY {
            return Err(bad("body too large"));
        }
        body = vec![0u8; len];
        r.read_exact(&mut body)?;
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Adapts a chunked transfer coding into a plain byte stream, chunk
/// boundaries invisible to the caller — `BufRead::read_line` on top of
/// it yields NDJSON lines as they arrive.
pub struct ChunkedReader<'a, R: BufRead> {
    r: &'a mut R,
    /// Bytes left in the current chunk; `None` before the next size
    /// line, `Some(0)` after the terminal chunk.
    remaining: Option<usize>,
    done: bool,
}

impl<'a, R: BufRead> ChunkedReader<'a, R> {
    /// Wrap a reader positioned at the first chunk-size line.
    pub fn new(r: &'a mut R) -> ChunkedReader<'a, R> {
        ChunkedReader {
            r,
            remaining: None,
            done: false,
        }
    }
}

impl<R: BufRead> Read for ChunkedReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.done || buf.is_empty() {
            return Ok(0);
        }
        let left = match self.remaining {
            Some(left) => left,
            None => {
                let line = read_line_limited(self.r)?.ok_or_else(|| bad("truncated chunk size"))?;
                let size =
                    usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
                if size > MAX_BODY {
                    return Err(bad("chunk too large"));
                }
                if size == 0 {
                    // Consume the trailing CRLF of the terminal chunk.
                    let _ = read_line_limited(self.r)?;
                    self.done = true;
                    return Ok(0);
                }
                self.remaining = Some(size);
                size
            }
        };
        let take = left.min(buf.len());
        self.r.read_exact(&mut buf[..take])?;
        if take == left {
            // Chunk exhausted: consume its trailing CRLF.
            let mut crlf = [0u8; 2];
            self.r.read_exact(&mut crlf)?;
            self.remaining = None;
        } else {
            self.remaining = Some(left - take);
        }
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn eof_between_requests_is_clean() {
        assert!(read_request(&mut Cursor::new(&b""[..])).unwrap().is_none());
    }

    #[test]
    fn oversized_and_malformed_requests_error() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(read_request(&mut Cursor::new(long.as_bytes())).is_err());
        assert!(read_request(&mut Cursor::new(&b"NOT-HTTP\r\n\r\n"[..])).is_err());
        assert!(read_request(&mut Cursor::new(
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..]
        ))
        .is_err());
    }

    fn request_error_kind(raw: &str) -> io::ErrorKind {
        read_request(&mut Cursor::new(raw.as_bytes()))
            .expect_err("request must be rejected")
            .kind()
    }

    #[test]
    fn ambiguous_framing_is_malformed() {
        // Either could be framed differently by another HTTP hop; on a
        // keep-alive connection the leftover bytes would be read as the
        // next request.
        let both = "POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\nabcd";
        assert_eq!(request_error_kind(both), io::ErrorKind::InvalidData);
        let twice = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 0\r\n\r\nabcd";
        assert_eq!(request_error_kind(twice), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_body_is_too_large_not_malformed() {
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(request_error_kind(&big), io::ErrorKind::FileTooLarge);
    }

    #[test]
    fn response_round_trips_through_client_parser() {
        let v = deep_json::object([("ok", true.into())]);
        let mut wire = Vec::new();
        Response::json(202, &v)
            .header("Retry-After", "1")
            .write_to(&mut wire, true)
            .unwrap();
        let resp = read_response(&mut Cursor::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 202);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let body = deep_json::from_slice(&resp.body).unwrap();
        assert_eq!(body["ok"].as_bool(), Some(true));
    }

    #[test]
    fn spliced_response_frames_all_three_pieces() {
        let mut wire = Vec::new();
        Response::json_spliced(200, "{\"r\": ".into(), Some("[1, 2]".into()), "}".into())
            .write_to(&mut wire, false)
            .unwrap();
        let resp = read_response(&mut Cursor::new(&wire[..])).unwrap();
        assert_eq!(resp.header("content-length"), Some("14"));
        assert_eq!(resp.body, b"{\"r\": [1, 2]}\n");
    }

    #[test]
    fn chunked_stream_round_trips() {
        let mut wire = Vec::new();
        {
            let mut cw = ChunkedWriter::start(&mut wire, "application/x-ndjson").unwrap();
            cw.write_chunk(b"{\"seq\":0}\n").unwrap();
            cw.write_chunk(b"{\"seq\":1}\n{\"se").unwrap();
            cw.write_chunk(b"q\":2}\n").unwrap();
            cw.finish().unwrap();
        }
        let mut cursor = Cursor::new(&wire[..]);
        let resp = read_response(&mut cursor).unwrap();
        assert_eq!(resp.status, 200);
        let lines: Vec<&str> = std::str::from_utf8(&resp.body).unwrap().lines().collect();
        assert_eq!(lines, ["{\"seq\":0}", "{\"seq\":1}", "{\"seq\":2}"]);
    }

    #[test]
    fn chunked_reader_is_line_iterable_mid_stream() {
        // Lines split across chunk boundaries reassemble.
        let body = b"5\r\nab\ncd\r\n4\r\nef\ng\r\n2\r\nh\n\r\n0\r\n\r\n";
        let mut cursor = Cursor::new(&body[..]);
        let mut lines = Vec::new();
        let mut reader = std::io::BufReader::new(ChunkedReader::new(&mut cursor));
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            lines.push(line.trim_end().to_string());
            line.clear();
        }
        assert_eq!(lines, ["ab", "cdef", "gh"]);
    }
}
