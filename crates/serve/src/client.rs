//! Minimal HTTP client for talking to a `deep-serve` daemon — used by
//! the `deep-submit` binary, the `benchmark/` `serve_mix` workload, and
//! the end-to-end tests. One connection per [`ServeClient`],
//! keep-alive across calls; the daemon closes a connection that stays
//! quiet for its idle timeout, so a request that finds its connection
//! gone is sent once more on a fresh one.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

use deep_json::Value;

use crate::http::{read_response, read_response_head, ChunkedReader, ClientResponse};

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A connected client.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    host: String,
}

/// Outcome of a submission, HTTP details decoded.
#[derive(Debug)]
pub enum Submitted {
    /// Admitted (or served from cache): the job JSON as returned.
    Job(Value),
    /// 429/503 backpressure with the suggested retry delay.
    Backoff {
        /// HTTP status (429 or 503).
        status: u16,
        /// `Retry-After` in seconds (1 when the header is absent).
        retry_after_s: u32,
    },
}

impl ServeClient {
    /// Connect to `addr` (e.g. `"127.0.0.1:8723"`).
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            host: addr.to_string(),
        })
    }

    /// One exchange, repeated once on a fresh connection when this one
    /// turns out to be stale: the send failed, or the peer had closed
    /// before a single byte of a reply. (A job submitted twice that way
    /// is harmless — results are a pure function of the spec.)
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        match self.exchange(method, path, body) {
            Err(e) if stale(&e) => {
                *self = ServeClient::connect(&self.host)?;
                self.exchange(method, path, body)
            }
            outcome => outcome,
        }
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.host,
            body.len()
        )?;
        if !body.is_empty() {
            self.writer
                .write_all(b"Content-Type: application/json\r\n")?;
        }
        self.writer.write_all(b"\r\n")?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    /// POST a submission body to `/jobs`.
    pub fn submit_raw(&mut self, body: &str) -> io::Result<Submitted> {
        let resp = self.request("POST", "/jobs", Some(body))?;
        match resp.status {
            200 | 202 => Ok(Submitted::Job(parse_json_body(&resp)?)),
            429 | 503 => Ok(Submitted::Backoff {
                status: resp.status,
                retry_after_s: resp
                    .header("retry-after")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1),
            }),
            s => {
                let detail = String::from_utf8_lossy(&resp.body).trim().to_string();
                Err(bad(&format!("submit failed: HTTP {s}: {detail}")))
            }
        }
    }

    /// GET a job's current status JSON.
    pub fn job(&mut self, id: u64) -> io::Result<Value> {
        let resp = self.request("GET", &format!("/jobs/{id}"), None)?;
        if resp.status != 200 {
            return Err(bad(&format!("job {id}: HTTP {}", resp.status)));
        }
        parse_json_body(&resp)
    }

    /// GET `/healthz`.
    pub fn healthz(&mut self) -> io::Result<Value> {
        let resp = self.request("GET", "/healthz", None)?;
        if resp.status != 200 {
            return Err(bad(&format!("healthz: HTTP {}", resp.status)));
        }
        parse_json_body(&resp)
    }

    /// GET `/metrics` as text.
    pub fn metrics(&mut self) -> io::Result<String> {
        let resp = self.request("GET", "/metrics", None)?;
        if resp.status != 200 {
            return Err(bad(&format!("metrics: HTTP {}", resp.status)));
        }
        String::from_utf8(resp.body).map_err(|_| bad("metrics body not UTF-8"))
    }

    /// Stream `/jobs/<id>/events`, invoking `on_event` per NDJSON
    /// event as it arrives, until the stream ends (job terminal).
    /// Consumes the connection — the server closes it after the
    /// stream.
    pub fn watch_events(mut self, id: u64, mut on_event: impl FnMut(&Value)) -> io::Result<()> {
        write!(
            self.writer,
            "GET /jobs/{id}/events HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\n\r\n",
            self.host
        )?;
        self.writer.flush()?;
        let (status, _headers) = read_response_head(&mut self.reader)?;
        if status != 200 {
            return Err(bad(&format!("events {id}: HTTP {status}")));
        }
        let mut lines = BufReader::new(ChunkedReader::new(&mut self.reader));
        let mut line = String::new();
        while lines.read_line(&mut line)? > 0 {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                let ev = deep_json::from_str(trimmed)
                    .map_err(|e| bad(&format!("bad event line: {e}")))?;
                on_event(&ev);
            }
            line.clear();
        }
        Ok(())
    }

    /// Submit, backing off on 429/503 as the server instructs (up to
    /// `max_retries` times). Returns the job JSON as admitted, which is
    /// already terminal on a cache hit.
    fn submit_with_backoff(&mut self, body: &str, max_retries: u32) -> io::Result<Value> {
        let mut retries = 0;
        loop {
            match self.submit_raw(body)? {
                Submitted::Job(job) => return Ok(job),
                Submitted::Backoff {
                    status,
                    retry_after_s,
                } => {
                    if retries >= max_retries {
                        return Err(bad(&format!(
                            "gave up after {retries} retries (last: HTTP {status})"
                        )));
                    }
                    retries += 1;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "backing off is what the daemon asked for; no request waits on it"
                    )]
                    std::thread::sleep(std::time::Duration::from_millis(
                        u64::from(retry_after_s) * 200,
                    ));
                }
            }
        }
    }

    /// Submit and wait for a terminal state, backing off on 429/503 as
    /// the server instructs (up to `max_retries` times). Returns the
    /// terminal job JSON.
    pub fn submit_and_wait(&mut self, body: &str, max_retries: u32) -> io::Result<Value> {
        self.submit_and_watch(body, max_retries, |_| {})
    }

    /// [`ServeClient::submit_and_wait`], handing every event of the job
    /// to `on_event` as it arrives: a job that is not answered from the
    /// cache is followed on a second connection to the end of its event
    /// stream, then fetched over this one. Nothing polls.
    pub fn submit_and_watch(
        &mut self,
        body: &str,
        max_retries: u32,
        on_event: impl FnMut(&Value),
    ) -> io::Result<Value> {
        let job = self.submit_with_backoff(body, max_retries)?;
        if matches!(job["state"].as_str(), Some("done" | "failed")) {
            return Ok(job);
        }
        let id = job["id"].as_u64().ok_or_else(|| bad("job without id"))?;
        ServeClient::connect(&self.host)?.watch_events(id, on_event)?;
        self.job(id)
    }
}

/// True for the errors of a connection the daemon closed while it was
/// idle: nothing of the request can have been answered.
fn stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
    )
}

fn parse_json_body(resp: &ClientResponse) -> io::Result<Value> {
    deep_json::from_slice(&resp.body).map_err(|e| bad(&format!("bad JSON body: {e}")))
}
