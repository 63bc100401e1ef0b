//! Bounded execution: the admission queue, the shared per-connection
//! writer, and the worker pool.
//!
//! The serving layer's concurrency control lives here. Connection
//! threads stay cheap — they read frames, parse, and answer control ops
//! inline — while every heavy op (`run`, `run_batch`) becomes a [`Job`]
//! pushed through a **bounded** [`Admission`] queue and executed by one
//! of a **fixed** number of worker threads. Two consequences:
//!
//! * engine concurrency is `workers`, not "number of open sockets" — a
//!   connection flood cannot fork a thousand syntheses;
//! * when the backlog cap is hit, [`Admission::try_push`] fails and the
//!   connection thread sheds the request with a typed `overloaded`
//!   response *immediately* — load shedding is constant-time, never
//!   queued behind the work it is refusing.
//!
//! Responses go out through the job's [`ConnWriter`] — a mutex around
//! the connection's write half — in **completion order**, which is what
//! makes request pipelining safe: the reader thread keeps pulling frames
//! while workers finish earlier ones, and the `id` echoed in each
//! response is the client's correlation key.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use serde_json::Value;

use crate::{relock, HeavyOp, Server, Shared};

/// The write half of one connection, shared between its reader thread
/// (inline responses) and the worker pool (heavy-op responses). The
/// mutex scope is one full response line, so lines never interleave.
pub(crate) struct ConnWriter {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl ConnWriter {
    pub(crate) fn new(writer: Box<dyn Write + Send>) -> Self {
        ConnWriter {
            writer: Mutex::new(writer),
        }
    }

    /// Writes one response line (newline appended) atomically w.r.t.
    /// other lines on this connection, in one write: a line split over
    /// two writes on a socket without `TCP_NODELAY` leaves its tail
    /// waiting for the peer's delayed ACK. Returns whether the full line
    /// reached the transport.
    pub(crate) fn write_line(&self, line: &str) -> bool {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let mut w = relock(self.writer.lock());
        w.write_all(&frame).and_then(|()| w.flush()).is_ok()
    }
}

/// One admitted heavy op: the parsed request, its echo id, and the
/// connection to answer on.
pub(crate) struct Job {
    pub(crate) id: Value,
    pub(crate) op: HeavyOp,
    pub(crate) conn: Arc<ConnWriter>,
}

/// The bounded MPMC admission queue feeding the worker pool.
pub(crate) struct Admission {
    queue: Mutex<VecDeque<Job>>,
    capacity: usize,
    ready: Condvar,
}

impl Admission {
    pub(crate) fn new(capacity: usize) -> Self {
        Admission {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            ready: Condvar::new(),
        }
    }

    /// The backlog cap.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a job unless the backlog is full; `false` = shed it.
    pub(crate) fn try_push(&self, job: Job) -> bool {
        let mut q = relock(self.queue.lock());
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(job);
        self.ready.notify_one();
        true
    }

    /// Blocks until a job is available or `shutdown` is set; `None`
    /// means the pool is winding down (queued jobs are abandoned — their
    /// connections are being closed anyway).
    pub(crate) fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut q = relock(self.queue.lock());
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            q = relock(self.ready.wait(q));
        }
    }

    /// Wakes every blocked worker (shutdown path).
    pub(crate) fn wake_all(&self) {
        let _guard = relock(self.queue.lock());
        self.ready.notify_all();
    }

    /// Current queue depth (diagnostics).
    pub(crate) fn depth(&self) -> usize {
        relock(self.queue.lock()).len()
    }
}

/// Spawns the fixed worker pool: each shard gets its own worker slice,
/// every worker looping pop → execute → respond on *its shard's* queue
/// until shutdown — a backed-up shard never steals another shard's
/// workers, so one hot page set cannot starve the rest of the fleet.
pub(crate) fn spawn_workers(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut handles = Vec::new();
    for shard in 0..shared.shards.count() {
        for _ in 0..shared.shards.get(shard).workers {
            let shared = Arc::clone(shared);
            handles.push(std::thread::spawn(move || {
                let server = Server {
                    shared: Arc::clone(&shared),
                };
                while let Some(job) = shared.shards.get(shard).queue.pop(&shared.shutdown) {
                    let outcome = server.execute_heavy(job.op);
                    let line = server.render_outcome(job.id, outcome);
                    // A failed write means the client is gone; the job's
                    // work (and any cache fills) remains valid.
                    let _ = shared.write_response(&job.conn, &line);
                }
            }));
        }
    }
    handles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_job() -> Job {
        Job {
            id: Value::Null,
            op: HeavyOp::noop_for_tests(),
            conn: Arc::new(ConnWriter::new(Box::new(std::io::sink()))),
        }
    }

    #[test]
    fn admission_sheds_beyond_capacity() {
        let a = Admission::new(2);
        assert!(a.try_push(dummy_job()));
        assert!(a.try_push(dummy_job()));
        assert!(!a.try_push(dummy_job()), "third push must shed");
        assert_eq!(a.depth(), 2);
        let stop = AtomicBool::new(false);
        assert!(a.pop(&stop).is_some());
        assert!(a.try_push(dummy_job()), "pop frees a slot");
    }

    #[test]
    fn pop_returns_none_on_shutdown() {
        let a = Admission::new(1);
        let stop = AtomicBool::new(true);
        assert!(a.pop(&stop).is_none());
    }

    #[test]
    fn conn_writer_serializes_whole_lines() {
        let w = ConnWriter::new(Box::new(std::io::sink()));
        assert!(w.write_line("hello"));
    }
}
