//! Socket plumbing: frame reading with a size cap, the per-connection
//! serve loop, accept threads, and the thin [`Client`].
//!
//! Framing is line-delimited (see the crate docs for the full spec):
//! [`read_frame`] pulls bytes through `BufRead::fill_buf` so the cap is
//! enforced *while reading* — an oversized frame is rejected without
//! buffering the whole payload, and a client that disconnects mid-line
//! surfaces as a clean [`Frame::Eof`], never a partial request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::pool::{ConnWriter, Job};
use crate::{Action, Server, Shared};

/// One read attempt's outcome.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete line (without the trailing newline; a trailing `\r` is
    /// stripped).
    Line(String),
    /// End of stream on a frame boundary — or mid-frame, in which case
    /// the partial bytes are discarded (a disconnect is never a request).
    Eof,
    /// The line exceeded the cap before its newline arrived.
    Oversized,
    /// The line was complete but not UTF-8.
    BadUtf8,
    /// The transport failed.
    Io,
}

/// Reads one newline-terminated frame, enforcing `max` bytes (exclusive
/// of the newline) as the reading proceeds.
pub(crate) fn read_frame(reader: &mut impl BufRead, max: usize) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Frame::Io,
        };
        if chunk.is_empty() {
            return Frame::Eof;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if buf.len() + i > max {
                    return Frame::Oversized;
                }
                buf.extend_from_slice(&chunk[..i]);
                reader.consume(i + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return match String::from_utf8(buf) {
                    Ok(s) => Frame::Line(s),
                    Err(_) => Frame::BadUtf8,
                };
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max {
                    return Frame::Oversized;
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// Serves one connection until EOF, an unrecoverable framing error, or
/// server shutdown. Every complete frame gets exactly one response line
/// (unless the response-count cap suppresses it).
///
/// This is the pipelined read loop: control ops and protocol errors are
/// answered inline, heavy ops go to the admission queue and are answered
/// by the worker pool through the connection's shared [`ConnWriter`] —
/// the reader keeps pulling frames while earlier requests compute, so
/// responses arrive in completion order, correlated by `id`.
pub(crate) fn serve_conn<S: AcceptedStream>(shared: &Arc<Shared>, stream: S) {
    let server = Server {
        shared: Arc::clone(shared),
    };
    let conn = match stream.split_writer() {
        Ok(w) => Arc::new(ConnWriter::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match read_frame(&mut reader, shared.max_frame_bytes) {
            Frame::Line(line) if line.trim().is_empty() => continue,
            Frame::Line(line) => {
                let (id, classified) = server.classify_line(&line);
                match classified {
                    Ok(Action::Heavy(op)) => {
                        let shard = op.shard;
                        let admitted = shared.shards.get(shard).queue.try_push(Job {
                            id: id.clone(),
                            op,
                            conn: Arc::clone(&conn),
                        });
                        if !admitted {
                            // Shed: constant-time refusal, written here
                            // on the reader thread — never queued behind
                            // the very backlog that is full.
                            let response = server.overloaded_response(id, shard);
                            if !shared.write_response(&conn, &response) {
                                return;
                            }
                        }
                    }
                    Ok(Action::Immediate(body)) => {
                        let response = server.render_outcome(id, Ok(body));
                        if !shared.write_response(&conn, &response) {
                            return;
                        }
                    }
                    Err(e) => {
                        let response = server.render_outcome(id, Err(e));
                        if !shared.write_response(&conn, &response) {
                            return;
                        }
                    }
                }
            }
            Frame::Eof | Frame::Io => return,
            Frame::Oversized => {
                let response = server.oversized_response();
                let _ = shared.write_response(&conn, &response);
                return;
            }
            Frame::BadUtf8 => {
                let response = server.bad_utf8_response();
                if !shared.write_response(&conn, &response) {
                    return;
                }
            }
        }
    }
}

/// A server bound to its endpoints, with live accept threads.
///
/// Dropping the handle (or calling [`Listening::shutdown`]) stops
/// accepting, joins the accept threads, closes every live connection's
/// stream (unblocking idle reads, so no connection thread outlives the
/// shutdown for more than its in-flight request), and removes the Unix
/// socket file.
pub struct Listening {
    pub(crate) shared: Arc<Shared>,
    pub(crate) tcp_addr: Option<SocketAddr>,
    pub(crate) unix_path: Option<PathBuf>,
    pub(crate) http_addr: Option<SocketAddr>,
    pub(crate) accept_threads: Vec<JoinHandle<()>>,
    pub(crate) worker_threads: Vec<JoinHandle<()>>,
}

impl Listening {
    /// The bound TCP address (with the OS-assigned port when the server
    /// was spawned on port 0), if a TCP endpoint was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path, if one was requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The bound address of the HTTP/1.1 facade, if one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// A [`Server`] view onto the running daemon (for in-process
    /// inspection: request counters, engine cache stats).
    pub fn server(&self) -> Server {
        Server {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Total requests received so far (every non-blank frame counts,
    /// error responses included; a request is counted when its frame is
    /// read, possibly before its response is written — see
    /// [`Listening::responses_sent`] for the completion-side counter).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Total responses fully written to clients. It can never run ahead
    /// of a response still being computed; for "stop after N requests"
    /// conditions use [`Listening::wait_for_responses`] instead of
    /// polling.
    pub fn responses_sent(&self) -> u64 {
        *crate::relock(self.shared.completions.lock())
    }

    /// Blocks until at least `n` responses have been fully written
    /// (condvar wait, no polling), returning the count observed. With
    /// [`crate::ServeOptions::max_responses`] set to `n`, this is an
    /// exact "serve exactly n, then stop" rendezvous: the write-permit
    /// cap guarantees the count never overshoots, whatever the
    /// concurrency.
    pub fn wait_for_responses(&self, n: u64) -> u64 {
        let mut done = crate::relock(self.shared.completions.lock());
        while *done < n {
            done = crate::relock(self.shared.completion_cv.wait(done));
        }
        *done
    }

    /// Stops accepting, wakes and joins the accept threads, and closes
    /// every live connection's stream — an idle connection's blocked
    /// read errors out immediately, so connection threads wind down
    /// instead of leaking; a request already executing finishes its
    /// computation but its response write fails. (Equivalent to
    /// dropping the handle; the explicit name exists for call-site
    /// clarity.)
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Listening {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Abort in-flight syntheses: their cooperative tokens trip at
        // the next enumerator checkpoint, so workers drain in bounded
        // steps instead of finishing arbitrarily long runs.
        for (_, token) in crate::relock(self.shared.inflight.lock()).iter() {
            token.cancel();
        }
        // Wake workers parked on the empty admission queues so they
        // observe the flag (queued-but-unstarted jobs are abandoned —
        // their connections are closing below anyway).
        self.shared.shards.wake_all();
        // Poke each endpoint so a blocked `accept` returns and observes
        // the flag.
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Close every live connection so idle reads unblock and their
        // threads exit rather than leaking.
        for (_, close) in crate::relock(self.shared.conns.lock()).drain() {
            close();
        }
        // Workers exit after their current (now-cancelled) job.
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // Every worker has joined, so the stores and caches are
        // quiescent: spill the warm state (pages + base-feature tables)
        // to the snapshot directory for the next `--cache-dir` start.
        // No-op when persistence is off.
        self.shared.shards.spill_all();
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A deferred close for one live connection's stream, registered so
/// shutdown can unblock its reader.
pub(crate) type CloseFn = Box<dyn Fn() + Send>;

/// A stream type the accept loop can serve: readable/writable, and able
/// to produce an out-of-band close handle for the shutdown registry.
pub(crate) trait AcceptedStream: Read + Write + Send + Sized + 'static {
    fn closer(&self) -> Option<CloseFn>;
    /// An independently owned write half (the reader keeps the original),
    /// so the worker pool can answer while the reader blocks on frames.
    fn split_writer(&self) -> io::Result<Box<dyn Write + Send>>;
}

impl AcceptedStream for TcpStream {
    fn closer(&self) -> Option<CloseFn> {
        self.try_clone().ok().map(|s| -> CloseFn {
            Box::new(move || {
                let _ = s.shutdown(std::net::Shutdown::Both);
            })
        })
    }

    fn split_writer(&self) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(unix)]
impl AcceptedStream for UnixStream {
    fn closer(&self) -> Option<CloseFn> {
        self.try_clone().ok().map(|s| -> CloseFn {
            Box::new(move || {
                let _ = s.shutdown(std::net::Shutdown::Both);
            })
        })
    }

    fn split_writer(&self) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

/// The accept loop shared by every transport (line-protocol TCP/Unix
/// and the HTTP facade): accept, register the connection in the
/// shutdown registry, run `serve` on its own thread, deregister on
/// exit.
pub(crate) fn accept_loop<L, S>(
    shared: Arc<Shared>,
    listener: L,
    accept: fn(&L) -> io::Result<S>,
    serve: fn(&Arc<Shared>, S),
) -> JoinHandle<()>
where
    L: Send + 'static,
    S: AcceptedStream,
{
    std::thread::spawn(move || loop {
        match accept(&listener) {
            Ok(stream) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Some(close) = stream.closer() {
                    crate::relock(shared.conns.lock()).insert(conn_id, close);
                }
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    serve(&shared, stream);
                    crate::relock(shared.conns.lock()).remove(&conn_id);
                });
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    })
}

/// Spawns the accept thread for a TCP listener.
pub(crate) fn accept_tcp(shared: Arc<Shared>, listener: TcpListener) -> JoinHandle<()> {
    accept_loop(
        shared,
        listener,
        |l: &TcpListener| l.accept().map(|(s, _)| s),
        serve_conn,
    )
}

/// Spawns the accept thread for a Unix listener.
#[cfg(unix)]
pub(crate) fn accept_unix(shared: Arc<Shared>, listener: UnixListener) -> JoinHandle<()> {
    accept_loop(
        shared,
        listener,
        |l: &UnixListener| l.accept().map(|(s, _)| s),
        serve_conn,
    )
}

/// One end of a client connection (TCP or Unix).
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A thin blocking client for the wire protocol: one request line out,
/// one response line back. Suitable for scripting and test harnesses;
/// open several clients for concurrency.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl Client {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(Conn::Tcp(stream.try_clone()?));
        Ok(Client {
            reader,
            writer: Conn::Tcp(stream),
        })
    }

    /// Connects over a Unix socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(Conn::Unix(stream.try_clone()?));
        Ok(Client {
            reader,
            writer: Conn::Unix(stream),
        })
    }

    /// Sends one raw request line (the newline is appended here) and
    /// reads one response line.
    ///
    /// # Errors
    ///
    /// Transport errors, including the server closing the connection
    /// without a response ([`io::ErrorKind::UnexpectedEof`]).
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.read_response_line()
    }

    /// Sends one request line *without* waiting for its response — the
    /// pipelining primitive. Responses come back in completion order;
    /// pair ids from [`Client::read_response_line`] to correlate.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        // One write per frame, so the newline does not wait on the
        // server's delayed ACK.
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        self.writer.flush()
    }

    /// Sends raw bytes verbatim (no newline appended) — the protocol-
    /// robustness tests use this to ship malformed and partial frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response line (without its newline).
    pub fn read_response_line(&mut self) -> io::Result<String> {
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

    /// Sends a request [`Value`](serde_json::Value) and parses the
    /// response envelope.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`io::ErrorKind::InvalidData`] when the
    /// response is not valid JSON.
    pub fn request(&mut self, request: &serde_json::Value) -> io::Result<serde_json::Value> {
        let line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let response = self.request_line(&line)?;
        serde_json::from_str(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_on_newlines_and_strip_cr() {
        let mut r = BufReader::new(&b"abc\r\ndef\n"[..]);
        assert_eq!(read_frame(&mut r, 100), Frame::Line("abc".into()));
        assert_eq!(read_frame(&mut r, 100), Frame::Line("def".into()));
        assert_eq!(read_frame(&mut r, 100), Frame::Eof);
    }

    #[test]
    fn oversized_frames_are_rejected_while_reading() {
        let big = [b'x'; 64];
        let mut r = BufReader::with_capacity(8, &big[..]);
        assert_eq!(read_frame(&mut r, 16), Frame::Oversized);
    }

    #[test]
    fn partial_trailing_frame_is_a_clean_eof() {
        let mut r = BufReader::new(&b"no newline here"[..]);
        assert_eq!(read_frame(&mut r, 100), Frame::Eof);
    }

    #[test]
    fn non_utf8_line_is_flagged() {
        let mut r = BufReader::new(&b"\xff\xfe\n"[..]);
        assert_eq!(read_frame(&mut r, 100), Frame::BadUtf8);
    }
}
