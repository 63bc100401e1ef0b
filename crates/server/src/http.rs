//! The HTTP/1.1 facade: the line protocol's ops, reachable by anything
//! that speaks plain HTTP (`curl`, load balancers, language runtimes
//! with no raw-socket access).
//!
//! This is a deliberate 1:1 mapping, not a second API. Each route
//! borrows the line protocol's request object verbatim as its JSON body
//! — minus the `"op"` field, which the path supplies — and each
//! response body **is** the line protocol's one-line envelope, byte for
//! byte (without the trailing newline). That identity is what lets the
//! byte-compare harnesses in `tests/serve_api.rs` cover both transports
//! with one reference.
//!
//! ```text
//! POST /v1/run        body: {"question": ..., "keywords": ..., ...}
//! POST /v1/run_batch  body: {"tasks": [...], ...}
//! POST /v1/intern     body: {"html": "...", "lenient": false}
//! GET  /v1/ping
//! GET  /v1/stats
//! ```
//!
//! Framing is `Content-Length` only, capped at the server's
//! `max_frame_bytes` like a line-protocol frame. Requests that make the
//! body boundary ambiguous are refused outright — `Transfer-Encoding`
//! (any value) with `411 Length Required`, a duplicate `Content-Length`
//! with `400` — because silently mis-framing one would replay its body
//! bytes as the next request's head on a keep-alive connection (request
//! smuggling). Connections are keep-alive by default;
//! `Connection: close` (or HTTP/1.0, or any framing-level error) closes
//! after the response. Typed errors map
//! onto status codes (see `status_for`): the envelope in the body
//! remains the source of truth, the status line is a convenience for
//! HTTP-native clients.
//!
//! Heavy ops (`run`, `run_batch`) go through the *same* shard admission
//! queues and worker pool as line-protocol requests — the facade adds
//! no second execution path. The connection thread parks on a
//! [`ResponseGate`] that the worker fills through the ordinary
//! `write_response` machinery, so completion counting, write permits,
//! and load shedding behave identically across transports (HTTP is
//! one-request-at-a-time per connection, so "completion order" and
//! "request order" coincide here).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::Value;

use crate::net::{accept_loop, read_frame, Frame};
use crate::pool::{ConnWriter, Job};
use crate::protocol::ProtoError;
use crate::{Action, ErrKind, Server, Shared};

/// Maximum header lines per request — far above any legitimate client,
/// low enough that a drip-feed of garbage headers cannot pin a thread.
const MAX_HEADERS: usize = 100;

/// Spawns the accept thread for the HTTP facade's listener.
pub(crate) fn accept_http(shared: Arc<Shared>, listener: TcpListener) -> JoinHandle<()> {
    accept_loop(
        shared,
        listener,
        |l: &TcpListener| l.accept().map(|(s, _)| s),
        serve_http_conn,
    )
}

/// One parsed request head plus its (already consumed) body.
struct HttpRequest {
    method: String,
    path: String,
    /// Close after responding: `Connection: close`, or HTTP/1.0.
    close: bool,
    body: String,
}

/// How a request attempt ends when no well-formed request was read.
enum ReadOutcome {
    /// A complete request (body consumed — keep-alive stays in sync).
    Request(HttpRequest),
    /// Clean end of the connection (EOF between requests, transport
    /// error, or shutdown).
    Closed,
    /// A protocol-level failure to respond to, then close: the error
    /// kind, the HTTP status, and a message.
    Fail(ErrKind, u16, String),
}

/// Reads one HTTP/1.1 request (head + `Content-Length` body) from the
/// connection. Never leaves the stream mid-request: every `Fail` is
/// followed by a close.
fn read_request(reader: &mut BufReader<TcpStream>, max: usize) -> ReadOutcome {
    // Request line (tolerating blank lines before it, as HTTP allows).
    let line = loop {
        match read_frame(reader, max) {
            Frame::Line(l) if l.is_empty() => continue,
            Frame::Line(l) => break l,
            Frame::Eof | Frame::Io => return ReadOutcome::Closed,
            Frame::Oversized => {
                return ReadOutcome::Fail(
                    ErrKind::Oversized,
                    413,
                    format!("request line exceeds max_frame_bytes ({max})"),
                )
            }
            Frame::BadUtf8 => {
                return ReadOutcome::Fail(
                    ErrKind::BadFrame,
                    400,
                    "request line is not UTF-8".to_string(),
                )
            }
        }
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => {
            return ReadOutcome::Fail(
                ErrKind::BadFrame,
                400,
                "malformed request line (expected \"METHOD PATH VERSION\")".to_string(),
            )
        }
    };
    let mut close = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => {
            return ReadOutcome::Fail(
                ErrKind::BadFrame,
                400,
                format!("unsupported protocol version {other:?}"),
            )
        }
    };

    // Headers: only Content-Length and Connection matter to the facade.
    let mut content_length: Option<usize> = None;
    for n in 0.. {
        if n >= MAX_HEADERS {
            return ReadOutcome::Fail(ErrKind::BadFrame, 400, "too many headers".to_string());
        }
        let header = match read_frame(reader, max) {
            Frame::Line(l) if l.is_empty() => break,
            Frame::Line(l) => l,
            Frame::Eof | Frame::Io => return ReadOutcome::Closed,
            Frame::Oversized => {
                return ReadOutcome::Fail(
                    ErrKind::Oversized,
                    413,
                    format!("header exceeds max_frame_bytes ({max})"),
                )
            }
            Frame::BadUtf8 => {
                return ReadOutcome::Fail(ErrKind::BadFrame, 400, "header is not UTF-8".to_string())
            }
        };
        let Some((name, value)) = header.split_once(':') else {
            return ReadOutcome::Fail(
                ErrKind::BadFrame,
                400,
                format!("malformed header line {header:?}"),
            );
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                // Framing is the one thing a facade must never guess at:
                // a second Content-Length (even an equal one) means the
                // sender and this parser may disagree on where the body
                // ends, and on a keep-alive connection the leftover body
                // bytes would be parsed as the next request's head
                // (request smuggling). Refuse and close.
                Ok(n) if content_length.is_some() => {
                    return ReadOutcome::Fail(
                        ErrKind::BadFrame,
                        400,
                        format!("duplicate Content-Length header ({n})"),
                    )
                }
                Ok(n) => content_length = Some(n),
                Err(_) => {
                    return ReadOutcome::Fail(
                        ErrKind::BadFrame,
                        400,
                        format!("unparsable Content-Length {value:?}"),
                    )
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Same smuggling hazard, worse: this facade frames by
            // Content-Length only, so a chunked body would be read as
            // zero-length and its bytes replayed as subsequent requests.
            // 411: the client must resend with a Content-Length.
            return ReadOutcome::Fail(
                ErrKind::BadFrame,
                411,
                format!("Transfer-Encoding {value:?} unsupported: this endpoint frames by Content-Length only"),
            );
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }

    // Body: Content-Length framing only, under the frame-size cap.
    let body = match content_length {
        None | Some(0) => String::new(),
        Some(n) if n > max => {
            return ReadOutcome::Fail(
                ErrKind::Oversized,
                413,
                format!("body of {n} bytes exceeds max_frame_bytes ({max})"),
            )
        }
        Some(n) => {
            let mut buf = vec![0u8; n];
            if reader.read_exact(&mut buf).is_err() {
                return ReadOutcome::Closed;
            }
            match String::from_utf8(buf) {
                Ok(s) => s,
                Err(_) => {
                    return ReadOutcome::Fail(
                        ErrKind::BadFrame,
                        400,
                        "body is not UTF-8".to_string(),
                    )
                }
            }
        }
    };

    ReadOutcome::Request(HttpRequest {
        method,
        path,
        close,
        body,
    })
}

/// The op a route maps to, or why it maps to nothing.
enum Route {
    Op(&'static str),
    /// Known path, wrong method: the method it wanted.
    WrongMethod(&'static str),
    Unknown,
}

fn route(method: &str, path: &str) -> Route {
    let (op, expected) = match path {
        "/v1/run" => ("run", "POST"),
        "/v1/run_batch" => ("run_batch", "POST"),
        "/v1/intern" => ("intern", "POST"),
        "/v1/check" => ("check", "POST"),
        "/v1/ping" => ("ping", "GET"),
        "/v1/stats" => ("stats", "GET"),
        _ => return Route::Unknown,
    };
    if method == expected {
        Route::Op(op)
    } else {
        Route::WrongMethod(expected)
    }
}

/// The status code a response envelope maps to: 200 for `ok`, the typed
/// error's HTTP rendering otherwise. The envelope stays the source of
/// truth; an unrecognized kind degrades to 500.
fn status_for(envelope: &str) -> u16 {
    let Ok(v) = serde_json::from_str::<Value>(envelope) else {
        return 500;
    };
    match v["err"]["kind"].as_str() {
        None => 200,
        Some("bad-frame" | "bad-request") => 400,
        Some("unknown-op" | "unknown-page") => 404,
        Some("oversized") => 413,
        Some("page") => 422,
        Some("overloaded") => 503,
        Some("deadline-exceeded") => 504,
        // `internal`, or any kind this mapping has not learned yet.
        Some(_) => 500,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response, head and body in one write (see
/// `ConnWriter::write_line`); returns whether the full write succeeded.
fn write_http(stream: &mut TcpStream, status: u16, body: &str, close: bool) -> bool {
    let frame = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n{body}",
        reason(status),
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    stream
        .write_all(frame.as_bytes())
        .and_then(|()| stream.flush())
        .is_ok()
}

/// The rendezvous between an HTTP connection thread and the worker that
/// executes its heavy op: the worker's `write_response` lands the
/// envelope here (through a [`GateWriter`]); the connection thread
/// parks until it arrives or the server shuts down.
struct ResponseGate {
    slot: Mutex<Option<String>>,
    ready: Condvar,
}

impl ResponseGate {
    fn new() -> Arc<ResponseGate> {
        Arc::new(ResponseGate {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Blocks until the response arrives; `None` on shutdown (the
    /// periodic timeout exists only to observe the flag — a suppressed
    /// response, e.g. under a write-permit cap, must not pin the thread
    /// forever).
    fn wait(&self, shutdown: &AtomicBool) -> Option<String> {
        let mut slot = crate::relock(self.slot.lock());
        loop {
            if let Some(line) = slot.take() {
                return Some(line);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (s, _) = crate::relock(self.ready.wait_timeout(slot, Duration::from_millis(100)));
            slot = s;
        }
    }
}

/// A `Write` that delivers each flushed line into a [`ResponseGate`] —
/// what lets a worker answer an HTTP request through the very same
/// `ConnWriter`/`write_response` path it uses for socket lines (so
/// completion counting and write permits stay transport-uniform).
struct GateWriter {
    gate: Arc<ResponseGate>,
    buf: Vec<u8>,
}

impl Write for GateWriter {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut line = String::from_utf8(std::mem::take(&mut self.buf))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        *crate::relock(self.gate.slot.lock()) = Some(line);
        self.gate.ready.notify_all();
        Ok(())
    }
}

/// Serves one HTTP connection until close, EOF, a framing error, or
/// shutdown — one request at a time, keep-alive between them.
pub(crate) fn serve_http_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let server = Server {
        shared: Arc::clone(shared),
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let request = match read_request(&mut reader, shared.max_frame_bytes) {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return,
            ReadOutcome::Fail(kind, status, message) => {
                // The stream may be out of sync past the failure, so
                // this is always a closing response.
                let envelope = typed_error(&server, kind, &message);
                let _ = write_http(&mut stream, status, &envelope, true);
                return;
            }
        };
        let close = request.close;

        let (status, envelope) = match route(&request.method, &request.path) {
            Route::Unknown => (
                404,
                typed_error(
                    &server,
                    ErrKind::UnknownOp,
                    &format!(
                        "unknown path {} (expected /v1/run, /v1/run_batch, /v1/intern, /v1/check, /v1/ping, or /v1/stats)",
                        request.path
                    ),
                ),
            ),
            Route::WrongMethod(expected) => (
                405,
                typed_error(
                    &server,
                    ErrKind::BadRequest,
                    &format!(
                        "method {} not allowed for {} (expected {expected})",
                        request.method, request.path
                    ),
                ),
            ),
            Route::Op(op) => {
                // The body is the line protocol's request object with
                // the op injected from the path (an empty body means an
                // empty object — the GET ops take no fields).
                let parsed = if request.body.is_empty() {
                    Ok(Value::Object(serde_json::Map::new()))
                } else {
                    serde_json::from_str::<Value>(&request.body)
                };
                match parsed {
                    Err(_) => (
                        400,
                        typed_error(&server, ErrKind::BadFrame, "body is not valid JSON"),
                    ),
                    Ok(mut v) => {
                        if let Value::Object(obj) = &mut v {
                            obj.insert("op".to_string(), Value::String(op.to_string()));
                        }
                        let (id, classified) = server.classify_value(v);
                        match classified {
                            Ok(Action::Immediate(body)) => {
                                let envelope = server.render_outcome(id, Ok(body));
                                (status_for(&envelope), envelope)
                            }
                            Err(e) => {
                                let envelope = server.render_outcome(id, Err(e));
                                (status_for(&envelope), envelope)
                            }
                            Ok(Action::Heavy(op)) => {
                                let gate = ResponseGate::new();
                                let conn = Arc::new(ConnWriter::new(Box::new(GateWriter {
                                    gate: Arc::clone(&gate),
                                    buf: Vec::new(),
                                })));
                                let shard = op.shard;
                                let admitted = shared.shards.get(shard).queue.try_push(Job {
                                    id: id.clone(),
                                    op,
                                    conn,
                                });
                                if !admitted {
                                    let envelope = server.overloaded_response(id, shard);
                                    (status_for(&envelope), envelope)
                                } else {
                                    match gate.wait(&shared.shutdown) {
                                        Some(envelope) => (status_for(&envelope), envelope),
                                        // Shutdown before the response
                                        // landed: close without one.
                                        None => return,
                                    }
                                }
                            }
                        }
                    }
                }
            }
        };

        if !write_http(&mut stream, status, &envelope, close) || close {
            return;
        }
    }
}

/// Renders a facade-level typed error (counting it like any request).
fn typed_error(server: &Server, kind: ErrKind, message: &str) -> String {
    server.shared.requests.fetch_add(1, Ordering::Relaxed);
    server.render_outcome(Value::Null, Err(ProtoError::new(kind, message)))
}

/// A thin blocking client for the HTTP/1.1 facade: one request out, one
/// response back, keep-alive across calls. Suitable for scripting and
/// test harnesses; open several clients for concurrency.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to a facade endpoint.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads its response, returning the status
    /// code and the body (the line protocol's response envelope).
    ///
    /// # Errors
    ///
    /// Transport errors, or [`io::ErrorKind::InvalidData`] when the
    /// server's response cannot be parsed.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        // Head and body in one write, so the body does not wait on the
        // server's delayed ACK.
        let frame = if body.is_empty() {
            format!("{method} {path} HTTP/1.1\r\n\r\n")
        } else {
            format!(
                "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `POST` with a JSON body — the shape of `run`, `run_batch`, and
    /// `intern` calls.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`].
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// Bodyless `GET` — the shape of `ping` and `stats` calls.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`].
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        loop {
            let header = self.read_line()?;
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparsable Content-Length {value:?}"),
                        )
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
