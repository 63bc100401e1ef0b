//! Open-loop load generator on one pipelined TCP connection.
//!
//! One sender (the calling thread) writes each request frame — the JSON
//! line and its `\n` in a single write, on a socket with `TCP_NODELAY` —
//! when it falls due on a fixed schedule, whether or not earlier
//! requests have been answered. One reader thread timestamps each
//! response line as it arrives. Latency runs from the request's due
//! time, so a stall also charges the requests queued behind it, and
//! the sender records how late it ran. The stock client is not used for
//! timing: it writes the line and the newline separately without
//! `TCP_NODELAY`, which would add a client-side stall to every request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::probe::Probe;
use crate::stats::{median, percentile};

/// The least time to the next due send for the sender to sample the
/// probe (about 1 ms) in between.
const PROBE_SLACK: Duration = Duration::from_millis(3);
use crate::trace;

/// One scheduled request. `id` must be unique over the connection's
/// life and equal the frame's `"id"` field.
pub struct Request {
    pub id: u64,
    pub kind: &'static str,
    /// Offset of the due time from the start of the schedule.
    pub due: Duration,
    /// The frame, newline included.
    pub frame: Vec<u8>,
}

impl Request {
    /// Builds the frame `{"id":<id>,<body>}` plus its newline, where
    /// `body` holds the remaining fields without braces.
    pub fn new(id: u64, kind: &'static str, due: Duration, body: &str) -> Request {
        let frame = format!("{{\"id\":{id},{body}}}\n").into_bytes();
        Request {
            id,
            kind,
            due,
            frame,
        }
    }
}

/// What happened to one request.
pub struct Outcome {
    pub id: u64,
    pub kind: &'static str,
    /// Due time to response; `None` when no response came in time.
    pub latency: Option<Duration>,
    /// How late the sender wrote the frame.
    pub late: Duration,
    pub response: Option<String>,
}

pub struct Connection {
    stream: TcpStream,
    responses: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Connection {
    pub fn connect(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = Instant::now();
                        while line.ends_with('\n') || line.ends_with('\r') {
                            line.pop();
                        }
                        if tx.send((at, line)).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Connection {
            stream,
            responses,
            reader: Some(reader),
        })
    }

    /// Sends `requests` on their schedule, then waits up to `drain`
    /// after the last due time for the outstanding responses. With a
    /// probe, the sender samples it once after a send whenever the next
    /// request is due at least `PROBE_SLACK` later, so the probe seldom
    /// makes a send late (`gen.late_p99_ms` shows it if it does).
    pub fn run(
        &mut self,
        requests: &[Request],
        drain: Duration,
        mut probe: Option<&mut Probe>,
    ) -> Vec<Outcome> {
        let start = Instant::now() + Duration::from_millis(2);
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(requests.len());
        let mut index = std::collections::HashMap::with_capacity(requests.len());
        for r in requests {
            let due = start + r.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let ok = self.stream.write_all(&r.frame).is_ok();
            index.insert(r.id, outcomes.len());
            outcomes.push(Outcome {
                id: r.id,
                kind: r.kind,
                latency: None,
                late: sent.saturating_duration_since(due),
                response: None,
            });
            if !ok {
                break;
            }
            self.collect(start, requests, &index, &mut outcomes, Duration::ZERO);
            let next_due = requests.get(outcomes.len()).map(|r| start + r.due);
            if let (Some(p), Some(next)) = (probe.as_deref_mut(), next_due) {
                if next.saturating_duration_since(Instant::now()) >= PROBE_SLACK {
                    p.sample(1);
                }
            }
        }
        let last_due = start + requests.last().map_or(Duration::ZERO, |r| r.due);
        let deadline = last_due.max(Instant::now()) + drain;
        let mut pending = outcomes.iter().filter(|o| o.response.is_none()).count();
        while pending > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            pending -= self.collect(start, requests, &index, &mut outcomes, deadline - now);
        }
        outcomes
    }

    /// Takes the responses that have arrived (waiting up to `wait` for
    /// the first one) and matches them to their requests by id. Returns
    /// how many outstanding requests were answered.
    fn collect(
        &self,
        start: Instant,
        requests: &[Request],
        index: &std::collections::HashMap<u64, usize>,
        outcomes: &mut [Outcome],
        wait: Duration,
    ) -> usize {
        let mut answered = 0;
        let mut next = if wait.is_zero() {
            self.responses.try_recv().ok()
        } else {
            self.responses.recv_timeout(wait).ok()
        };
        while let Some((at, line)) = next {
            if let Some(&i) = response_id(&line).and_then(|id| index.get(&id)) {
                let o = &mut outcomes[i];
                if o.response.is_none() {
                    let due = start + requests[i].due;
                    o.latency = Some(at.saturating_duration_since(due));
                    trace::record(o.kind, due, at, o.id);
                    o.response = Some(line);
                    answered += 1;
                }
            }
            next = self.responses.try_recv().ok();
        }
        answered
    }

    /// Sends one request now and waits for its response.
    pub fn call(
        &mut self,
        id: u64,
        kind: &'static str,
        body: &str,
        wait: Duration,
    ) -> Option<String> {
        let req = Request::new(id, kind, Duration::ZERO, body);
        self.run(std::slice::from_ref(&req), wait, None)
            .pop()?
            .response
    }

    /// Half-closes the connection and joins the reader thread.
    pub fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        if let Some(reader) = self.reader.take() {
            let _ = self.stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
    }
}

/// The `id` a response envelope echoes (`{"id":N,...`).
pub fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The part of a response after its echoed id: equal for two responses
/// whose bodies are byte-identical.
pub fn body_after_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    Some(&rest[end..])
}

/// Latency summary of one rung (or one op kind within it), in ms.
pub struct Summary {
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_pct: f64,
    pub tail_ms: f64,
}

pub fn summarize(outcomes: &[&Outcome]) -> Summary {
    let ms: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.latency)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let tail_pct = crate::stats::supported_tail(ms.len());
    Summary {
        samples: ms.len(),
        p50_ms: median(&ms),
        tail_pct,
        tail_ms: percentile(&ms, tail_pct),
    }
}

/// The 99th percentile of how late the sender wrote frames, in ms.
pub fn late_p99_ms<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> f64 {
    let late: Vec<f64> = outcomes
        .into_iter()
        .map(|o| o.late.as_secs_f64() * 1e3)
        .collect();
    percentile(&late, 99.0)
}
