//! # webqa-server
//!
//! The resident serving layer: a daemon owning long-lived
//! [`webqa::Engine`] state — and therefore its cross-request caches
//! (the feature store and the completed-run LRU, `webqa::CacheStats`)
//! — split into digest-routed **shards** and speaking two wire
//! surfaces: a line-delimited JSON protocol over TCP and/or Unix
//! domain sockets, and a minimal HTTP/1.1 facade mapping the same
//! operations onto `POST`/`GET` routes. Every transport primitive is
//! hand-rolled on `std::net` / `std::os::unix::net` (this build
//! environment has no crates.io access, so no tokio/hyper/axum — and
//! none is needed: both protocols are request/response over blocking
//! sockets).
//!
//! # Execution model: bounded worker pool
//!
//! Connection threads are cheap: they read frames, parse them, and
//! answer control ops (`ping`, `intern`, `stats`) and protocol errors
//! inline. Heavy ops (`run`, `run_batch`) instead pass through a
//! **bounded admission queue** ([`ServeOptions::backlog`]) into a
//! **fixed worker pool** ([`ServeOptions::workers`]):
//!
//! * Engine concurrency is exactly `workers`, however many sockets are
//!   open — a connection flood cannot fork a thousand syntheses.
//! * When the backlog is full the request is **shed immediately** with
//!   a typed `overloaded` error; load shedding never queues behind the
//!   work it refuses. The connection stays open.
//! * Each heavy op carries a latency budget — the smaller of its own
//!   `deadline_ms` field and the server's default deadline, measured
//!   from frame arrival so *queue wait counts*. The budget is enforced
//!   cooperatively inside the synthesis enumerator (a
//!   [`webqa::CancelToken`] checked every guard step): an expired run
//!   aborts promptly with a typed `deadline-exceeded` error and caches
//!   nothing — engine state is never poisoned by a cancelled run.
//!
//! # Sharding: N engines routed by content digest
//!
//! The engine is split into [`ServeOptions::shards`] independent shards
//! (default 1; `0` = one per core). Each shard owns its *own* engine —
//! page store, feature store, result LRU — behind its own `RwLock`,
//! plus its own admission queue and worker slice (the global
//! `workers`/`backlog` budgets are split as evenly as possible, floored
//! at one per shard). A page belongs to exactly one shard, chosen by a
//! pure function of its content digest (`digest % shards`), so the same
//! page lands on the same shard on every daemon of a fleet without
//! coordination — and interning on one shard never takes another
//! shard's write lock. Within a shard, heavy ops share the read lock
//! (synthesis runs concurrently across that shard's workers) and
//! interning takes a brief write lock; stores are append-only, so
//! handles stay valid forever after.
//!
//! Wire handles interleave the shard id into the low bits
//! (`handle = local_index * shards + shard`), which keeps handles dense
//! globally and makes a 1-shard server bit-compatible with the
//! pre-shard protocol (`handle == local_index`). A task executes on its
//! **home shard** — the owner of its first page reference — and any
//! page it references from another shard is pulled in by `Arc`-sharing
//! the parsed tree (one brief write lock on the home shard,
//! content-addressed dedup making repeats free). Responses carry no
//! page handles, so sharding is observationally invisible:
//! `tests/serve_api.rs` pins 4-shard responses byte-identical to
//! 1-shard and to the cold reference.
//!
//! **Semantics guarantee.** Serving is observationally invisible: the
//! response to a `run` request is byte-identical to what a cold,
//! single-threaded [`webqa::Engine`] computes for the same task and
//! config — regardless of cache hits, evictions, interleaving with
//! other clients, or how often the query repeats. `tests/serve_api.rs`
//! (workspace root) is the harness that pins this: N concurrent clients
//! over shuffled, duplicated task streams, every response compared
//! byte-for-byte against a never-cached reference engine.
//!
//! # Persistence: warm restarts from an on-disk snapshot
//!
//! With [`ServeOptions::cache_dir`] set (`webqa-cli serve --cache-dir
//! DIR`), the daemon spills its content-addressed page store and the
//! query-independent base-feature tier to a versioned snapshot under
//! `DIR/snapshot-v1/` at graceful shutdown, and reloads it at startup
//! — each shard loading only the digests it owns, so a restarted
//! daemon answers its first requests from a warm base tier instead of
//! re-running NER and mask extraction. Writes are content-addressed
//! (digest = filename) and idempotent via atomic tmp-file renames;
//! loads re-verify the embedded checksum *and* recompute the content
//! digest, so a truncated or tampered entry is a counted cold miss
//! (`persist.corrupt_skipped`), never a wrong answer. The same
//! invisibility contract applies: `tests/serve_api.rs` pins a warm
//! restart byte-identical to a cold daemon, and the engine-level
//! proptest (`crates/core/tests/cache_semantics.rs`) pins persist →
//! reload → re-run equal to the never-cached reference. An unusable
//! cache dir degrades to a cold start with a warning — persistence is
//! an optimization, never a liveness requirement.
//!
//! # Wire protocol
//!
//! ## Framing
//!
//! * One request per line: a UTF-8 JSON **object** terminated by `\n`
//!   (a trailing `\r` is tolerated and stripped). Blank lines are
//!   ignored.
//! * One response per line, **in completion order** — *not* request
//!   order. Clients may pipeline: send many requests without waiting,
//!   and correlate responses by the echoed `id`. Control ops and
//!   errors answer immediately; heavy ops answer whenever a worker
//!   finishes them, so a fast request overtakes a slow one on the same
//!   connection. Clients that never pipeline still see request order.
//! * Frames larger than the server's `max_frame_bytes` (default 1 MiB)
//!   get an `oversized` error response and the connection is then
//!   closed — framing cannot resync past an unread tail.
//! * A line that is not valid JSON (or not an object, or not UTF-8)
//!   gets a `bad-frame` error; the connection stays open.
//! * EOF before a newline discards the partial frame and closes the
//!   connection quietly — a mid-request disconnect is never executed as
//!   a request and never poisons the shared engine.
//!
//! ## Envelope
//!
//! Requests carry an operation and an optional correlation id (any JSON
//! value, echoed verbatim; `null` when absent or unparsable):
//!
//! ```text
//! → {"id": 1, "op": "<ping|intern|run|run_batch|check|stats>", ...op fields...}
//! ← {"id": 1, "ok": {...}}
//! ← {"id": 1, "err": {"kind": "<kind>", "message": "..."}}
//! ```
//!
//! Error kinds: `bad-frame`, `oversized`, `bad-request`, `unknown-op`,
//! `page`, `unknown-page`, `overloaded`, `deadline-exceeded`,
//! `internal` (see [`protocol::ErrKind`]). Errors are responses like
//! any other — the engine and the connection remain fully usable
//! afterwards (except `oversized`, which closes).
//!
//! ## Operations
//!
//! ### `ping`
//!
//! ```text
//! → {"op":"ping"}
//! ← {"id":null,"ok":{"pong":true}}
//! ```
//!
//! ### `intern` — parse and store a page, returning its handle
//!
//! ```text
//! → {"op":"intern","html":"<h1>A</h1>...","lenient":false}
//! ← {"id":null,"ok":{"page":0,"nodes":7,"digest":"91c5a6d2e03b7f14"}}
//! ```
//!
//! Interning is content-addressed (the store deduplicates): the same
//! HTML always yields the same handle, however many clients send it.
//! Damaged HTML is rejected with `kind:"page"`. The optional `"lenient"`
//! flag (default `false`) parses with browser-style recovery instead, so
//! real-world pages the strict parser rejects can still be ingested —
//! the same opt-out `webqa-cli import --lenient` uses. `"digest"` is the
//! interned tree's content digest as a 16-hex-digit string (a u64 does
//! not survive JSON numbers); it equals the digest `import` prints for
//! the same page, so client- and server-side ingestion can be diffed.
//!
//! ### `run` — synthesize and answer one task
//!
//! ```text
//! → {"op":"run",
//!    "question": "Who are the PhD students?",
//!    "keywords": ["Students"],
//!    "labeled":  [{"page": 0, "gold": ["Jane Doe"]},
//!                 {"html": "<h1>B</h1>...", "gold": ["Mary"]}],
//!    "targets":  [1, {"html": "<h1>C</h1>..."}]}
//! ← {"id":null,"ok":{
//!      "program": "sat(...) -> ...",        // null when nothing found
//!      "train_f1": 1.0,
//!      "counts": {"matched":3,"predicted":3,"gold":3},
//!      "total_optimal": 12,
//!      "answers": [["Wei Chen"], ["..."]]}}  // aligned with targets
//! ```
//!
//! Pages are referenced by handle (from `intern`, or a previous inline
//! use) or supplied inline as `{"html": ...}`; inline pages are interned
//! first (content-addressed, so resending the same page is free) and the
//! request then runs against the store. Unknown handles yield
//! `kind:"unknown-page"`.
//!
//! An optional `"deadline_ms": N` field bounds the request's latency:
//! if the run has not finished `N` milliseconds after the frame
//! arrived (queue wait included), it aborts with `deadline-exceeded`.
//! When the server also has a default deadline, the smaller budget
//! wins.
//!
//! ### `run_batch` — synthesize and answer many tasks as one request
//!
//! ```text
//! → {"op":"run_batch",
//!    "tasks": [{...run fields...}, {...run fields...}],
//!    "deadline_ms": 5000}
//! ← {"id":null,"ok":{"results":[{...run body...}, {...run body...}]}}
//! ```
//!
//! Each `tasks[]` entry takes exactly the fields of a `run` request
//! (`question`, `keywords`, `labeled`, `targets`). The batch occupies
//! **one** worker slot and fans its tasks out over the engine's batch
//! runner internally (parallelism = machine budget ÷ workers), so one
//! huge batch cannot starve other connections of the whole pool.
//! `results` aligns with `tasks`, and every entry is byte-identical to
//! what a separate `run` would have produced. The request is
//! all-or-nothing: a malformed task fails the whole batch up front
//! (before anything executes), and one optional `deadline_ms` covers
//! the entire batch.
//!
//! ### `stats` — serving and cache counters
//!
//! ```text
//! → {"op":"stats"}
//! ← {"id":null,"ok":{
//!      "requests": 42, "errors": 1, "shed": 0, "deadline_exceeded": 0,
//!      "workers": 8, "backlog": 64, "queue_depth": 0, "inflight": 0,
//!      "pages": 7, "uptime_ms": 12345,
//!      "cache": {"feature_hits":30,"feature_misses":4,"feature_evictions":0,
//!                "base_hits":12,"base_misses":5,"base_evictions":0,
//!                "result_hits":11,"result_misses":9,"result_evictions":0,
//!                "features_enabled":true,"results_enabled":true},
//!      "persist": {"pages_loaded":7,"base_loaded":5,"pages_spilled":0,
//!                  "base_spilled":0,"corrupt_skipped":0,"load_ms":3},
//!      "shards": [{"shard":0,"workers":8,"backlog":64,"queue_depth":0,
//!                  "inflight":0,"pages":7,"cache":{...}}, ...]}}
//! ```
//!
//! `shed` counts requests refused by the full admission queue,
//! `deadline_exceeded` counts runs aborted by an expired latency
//! budget; both are also included in `errors`. The `cache` object
//! carries the engine's three tiers — the query-keyed feature tables
//! (`feature_*`), the query-*independent* base tables shared across
//! questions (`base_*`), and the completed-run LRU (`result_*`) — plus
//! the `*_enabled` flags: a disabled tier counts nothing, so its
//! counters stay zero rather than accumulating misleading misses. The
//! `persist` object reports the on-disk snapshot tier
//! ([`ServeOptions::cache_dir`]): entries loaded at startup, entries
//! spilled at shutdown, corrupt entries skipped, and the load wall
//! time; it is all zeros when no cache dir is configured. The `shards`
//! array breaks workers, backlog, queue depth, inflight ops, pages,
//! and every cache counter down per shard — computed in the same pass
//! as the totals, so the breakdown always sums to them exactly
//! (`tests/serve_api.rs` asserts this).
//!
//! ### `check` — lint + abstract-interpretation verdicts for a program
//!
//! ```text
//! → {"op":"check",
//!    "program": "sat(root, kw(0.60)) -> content; sat(root, true) -> content",
//!    "question": "Who are the PhD students?",   // optional
//!    "keywords": ["Students"]}                  // optional
//! ← {"id":null,"ok":{
//!      "program": "sat(...) -> ...",   // round-tripped canonical text
//!      "size": 8, "branches": 2,
//!      "lint": ["..."],                // static well-formedness issues
//!      "verdicts": ["..."],            // analyzer proofs of dead code
//!      "canonical_key": "...",         // equality-up-to-normalization key
//!      "clean": true}}                 // no lint issues, no verdicts
//! ```
//!
//! Pure static analysis ([`webqa::lint`] plus the abstract interpreter,
//! [`webqa::Analyzer`]): the program is parsed and analyzed against the
//! given query context without evaluating any page — the op is answered
//! inline on the connection thread and never takes an engine lock, a
//! worker slot, or an admission-queue place. An unparsable `program` is
//! a `bad-request`; a parseable program with findings still answers
//! `ok` (with `"clean": false`) — findings are the op's *output*, not a
//! protocol failure. The body mirrors `webqa-cli check --json` field
//! for field.
//!
//! # HTTP/1.1 facade
//!
//! With an HTTP endpoint bound ([`Server::listen_all`], or
//! `webqa-cli serve --http HOST:PORT`), the same six operations are
//! served as routes; the response **body is the line-protocol envelope
//! byte for byte** (without the trailing newline), so everything above
//! about envelopes, error kinds, and byte-identical semantics carries
//! over verbatim:
//!
//! ```text
//! POST /v1/run        body = the run request object (op injected)
//! POST /v1/run_batch  body = the run_batch request object
//! POST /v1/intern     body = {"html": "..."}
//! POST /v1/check      body = the check request object (op injected)
//! GET  /v1/ping       (empty body)
//! GET  /v1/stats      (empty body)
//! ```
//!
//! * **Framing**: requests must carry exactly one `Content-Length` —
//!   the facade never parses chunked bodies, so any
//!   `Transfer-Encoding` header is refused with 411 (Length Required)
//!   and a duplicate `Content-Length` with 400, both closing the
//!   connection: ambiguous framing is how request smuggling works, and
//!   refusing is the only safe answer. Bodies above `max_frame_bytes`
//!   are refused with 413.
//!   An empty body is treated as `{}` (all ops accept it except the
//!   heavy ones, which then fail with their usual typed errors).
//!   Responses always carry `Content-Type: application/json` and
//!   `Content-Length`.
//! * **Keep-alive**: connections persist by default (HTTP/1.1
//!   semantics); `Connection: close` — or an `HTTP/1.0` request line —
//!   is honored. Requests on one connection are processed in order;
//!   there is no cross-request pipelining on the facade (use the line
//!   protocol for that).
//! * **Status codes** map from the envelope's error kind: 200 `ok`,
//!   400 `bad-frame`/`bad-request`, 404 `unknown-op`/`unknown-page`
//!   (and unknown paths), 405 wrong method on a known path, 413
//!   `oversized`, 422 `page`, 503 `overloaded`, 504
//!   `deadline-exceeded`, 500 `internal`. Heavy ops pass through the
//!   same per-shard admission queues, deadlines, and shedding as the
//!   line protocol.
//!
//! # Example
//!
//! ```
//! use webqa_server::{Client, ServeOptions, Server};
//!
//! let listening = Server::new(ServeOptions::default())
//!     .listen(Some("127.0.0.1:0"), None)?;
//! let addr = listening.tcp_addr().expect("tcp endpoint");
//!
//! let mut client = Client::connect_tcp(addr)?;
//! let pong = client.request_line(r#"{"id":1,"op":"ping"}"#)?;
//! assert_eq!(pong, r#"{"id":1,"ok":{"pong":true}}"#);
//!
//! listening.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
// A panicking worker must never take the daemon down with it: resident
// code recovers poisoned locks and degrades typed instead of unwrapping.
// Tests are exempt — there a panic is the assertion mechanism.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod http;
mod net;
mod pool;
pub mod protocol;
mod shard;

pub use http::HttpClient;
pub use net::{Client, Listening};
pub use protocol::{render_run_result, ErrKind};

use std::io;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::{Map, Value};
use webqa::{
    content_digest, lint, Analyzer, CacheStats, CancelToken, Engine, Error as EngineError, PageId,
    PageTree, Program, QueryContext, Task,
};

use pool::ConnWriter;
use protocol::{
    bad_request, bool_field, envelope, page_ref, str_field, string_list, PageRef, ProtoError,
};
use shard::ShardSet;

/// Recovers a poisoned lock. Everything behind the server's locks —
/// completion counters, job/connection registries, the engines' stores
/// and caches — is valid at every intermediate step, so a worker that
/// panicked while holding one leaves usable state behind; the serving
/// loop keeps answering instead of cascading the panic into every
/// thread that touches the lock afterwards.
pub(crate) fn relock<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The resident engine's pipeline configuration (synthesis knobs,
    /// selection strategy, cache capacities).
    pub engine: webqa::Config,
    /// Maximum request-frame size in bytes (default 1 MiB). Larger
    /// frames are refused with an `oversized` error.
    pub max_frame_bytes: usize,
    /// Worker threads executing heavy ops (`run` / `run_batch`), divided
    /// as evenly as possible across the shards (every shard gets at
    /// least one). `0` (the default) means auto: the machine's available
    /// parallelism. This — not the connection count — bounds engine
    /// concurrency.
    pub workers: usize,
    /// Admission-queue capacity (default 64), divided across the shards
    /// like `workers`: heavy ops waiting for a worker beyond a shard's
    /// share are shed with an `overloaded` error.
    pub backlog: usize,
    /// Engine shards, routed by page content digest (see the module docs
    /// of `shard.rs`). `1` (the default) reproduces the single-engine
    /// server exactly — wire handles included; `0` means auto: one shard
    /// per unit of available parallelism.
    pub shards: usize,
    /// Default per-request latency budget, measured from frame arrival
    /// (queue wait included). `None` (the default) = no deadline unless
    /// a request carries `deadline_ms`; when both are present the
    /// *smaller* budget wins.
    pub default_deadline: Option<Duration>,
    /// Hard cap on responses ever written (default `None` = unlimited).
    /// Enforced by write permits, so "serve exactly N" is exact under
    /// any concurrency; [`Listening::wait_for_responses`] blocks until
    /// the cap (or any count) is reached.
    pub max_responses: Option<u64>,
    /// Snapshot directory for warm restarts (default `None` = fully
    /// in-memory). When set, startup loads the versioned snapshot under
    /// this directory (each shard loads the digests it owns; corrupt
    /// entries degrade to cold misses) and clean shutdown spills the
    /// interned pages and resident base-feature tables back. Purely an
    /// optimization: responses are byte-identical with or without it.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: webqa::Config::default(),
            max_frame_bytes: 1 << 20,
            workers: 0,
            backlog: 64,
            shards: 1,
            default_deadline: None,
            max_responses: None,
            cache_dir: None,
        }
    }
}

/// The machine's available parallelism (the `0 = auto` resolution).
fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

impl ServeOptions {
    /// The effective worker count (`workers`, with `0` resolved to the
    /// machine's available parallelism).
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            machine_parallelism()
        }
    }

    /// The effective shard count (`shards`, with `0` resolved to the
    /// machine's available parallelism).
    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            machine_parallelism()
        }
    }
}

/// State shared by every connection of one daemon.
pub(crate) struct Shared {
    /// The engine shards: each owns its engine (store + caches), its
    /// admission queue, and its worker slice; pages route to shards by
    /// content digest.
    pub(crate) shards: ShardSet,
    pub(crate) max_frame_bytes: usize,
    pub(crate) started: Instant,
    /// Frames received (counted at read time).
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// Requests shed by the admission queues (`overloaded` responses;
    /// also counted in `errors`).
    pub(crate) shed: AtomicU64,
    /// Requests that returned `deadline-exceeded` (also in `errors`).
    pub(crate) deadline_hits: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// Per-task parallelism handed to `Engine::run_batch` by the
    /// `run_batch` op: the machine budget divided across workers.
    pub(crate) batch_jobs: usize,
    /// Server-side default latency budget (see
    /// [`ServeOptions::default_deadline`]).
    pub(crate) default_deadline: Option<Duration>,
    /// Write-permit cap: when set, at most this many responses are ever
    /// written, totalled across all connections.
    pub(crate) max_responses: Option<u64>,
    /// Permits claimed (compared against `max_responses` before every
    /// write; a failed write returns its permit).
    pub(crate) write_permits: AtomicU64,
    /// Responses fully written, guarded by a mutex so
    /// [`Listening::wait_for_responses`] can condvar-wait on it.
    pub(crate) completions: Mutex<u64>,
    pub(crate) completion_cv: Condvar,
    /// Cancel tokens of in-flight heavy ops, so shutdown can abort
    /// long-running syntheses instead of waiting them out.
    pub(crate) inflight: Mutex<std::collections::HashMap<u64, CancelToken>>,
    pub(crate) next_job: AtomicU64,
    /// Live-connection close handles, so shutdown can unblock idle
    /// readers instead of leaking their threads.
    pub(crate) conns: Mutex<std::collections::HashMap<u64, net::CloseFn>>,
    pub(crate) next_conn: AtomicU64,
}

impl Shared {
    /// Writes one response line through `conn` under the write-permit
    /// cap and counts the completion. Returns `false` when the response
    /// was suppressed (cap reached) or the connection is gone.
    pub(crate) fn write_response(&self, conn: &ConnWriter, line: &str) -> bool {
        if let Some(max) = self.max_responses {
            let n = self.write_permits.fetch_add(1, Ordering::SeqCst);
            if n >= max {
                return false;
            }
        }
        let ok = conn.write_line(line);
        if ok {
            let mut done = relock(self.completions.lock());
            *done += 1;
            self.completion_cv.notify_all();
        } else if self.max_responses.is_some() {
            // The permit was claimed but no response reached a client;
            // return it so the cap still yields exactly N deliveries.
            self.write_permits.fetch_sub(1, Ordering::SeqCst);
        }
        ok
    }

    /// Registers an in-flight heavy op's token (shutdown cancels them).
    pub(crate) fn track_job(&self, token: &CancelToken) -> u64 {
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        relock(self.inflight.lock()).insert(job, token.clone());
        job
    }

    pub(crate) fn untrack_job(&self, job: u64) {
        relock(self.inflight.lock()).remove(&job);
    }
}

/// A classified request: either answered inline by the connection
/// thread (control ops, parse errors) or handed to the worker pool.
pub(crate) enum Action {
    /// The `ok` body, already computed.
    Immediate(Value),
    /// A parsed heavy op for the admission queue.
    Heavy(HeavyOp),
}

/// A fully parsed heavy operation: pages resolved onto their home
/// shard's store, deadline fixed at admission time (so queue wait counts
/// against the budget).
pub(crate) struct HeavyOp {
    kind: HeavyKind,
    deadline: Option<Instant>,
    /// The shard whose queue admits (and whose worker slice executes)
    /// this op: the task's home shard; for a batch, the first task's
    /// home shard (a cross-shard batch still occupies one worker slot —
    /// its sub-batches execute from there, shard by shard).
    pub(crate) shard: usize,
}

/// A page reference resolved onto its owning shard: the shared parsed
/// tree, the owner shard, and the page's id *in the owner's store*.
/// [`Server::localize`] turns this into a home-shard id when the task
/// runs elsewhere.
struct ResolvedPage {
    tree: Arc<PageTree>,
    owner: usize,
    id_in_owner: PageId,
}

enum HeavyKind {
    Run(Task),
    /// Batch entries keep their home shard alongside the task so a
    /// cross-shard batch can split per shard and reassemble in input
    /// order.
    Batch(Vec<(usize, Task)>),
}

impl HeavyOp {
    #[cfg(test)]
    pub(crate) fn noop_for_tests() -> Self {
        HeavyOp {
            kind: HeavyKind::Batch(Vec::new()),
            deadline: None,
            shard: 0,
        }
    }
}

/// The resident WebQA server. Construct with [`Server::new`], then
/// either bind endpoints with [`Server::listen`] or drive the protocol
/// in-process with [`Server::handle_line`] (what the tests of pure
/// protocol behavior do).
pub struct Server {
    pub(crate) shared: Arc<Shared>,
}

impl Server {
    /// A server owning fresh engine shards built from `opts`. When
    /// [`ServeOptions::cache_dir`] is set, the shards warm-load the
    /// on-disk snapshot here (an unopenable directory degrades to a cold
    /// start with a stderr warning — persistence is an optimization,
    /// never a liveness requirement).
    pub fn new(opts: ServeOptions) -> Server {
        let machine = machine_parallelism();
        let persist = opts.cache_dir.as_ref().and_then(|dir| {
            webqa::PersistSink::open(dir)
                .map_err(|e| {
                    eprintln!(
                        "webqa-server: cache dir {} unusable ({e}); starting cold",
                        dir.display()
                    )
                })
                .ok()
        });
        let shards = ShardSet::new(
            &opts.engine,
            opts.effective_shards(),
            opts.effective_workers(),
            opts.backlog,
            persist,
        );
        // Post-clamp: the shard set may have reduced the shard count to
        // honor the global budgets, so derive per-op parallelism from
        // what was actually built, not from what was requested.
        let workers = shards.total_workers();
        Server {
            shared: Arc::new(Shared {
                shards,
                max_frame_bytes: opts.max_frame_bytes,
                started: Instant::now(),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                deadline_hits: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                // Split the machine budget across workers so a full pool
                // of run_batch ops cannot oversubscribe the cores.
                batch_jobs: (machine / workers).max(1),
                default_deadline: opts.default_deadline,
                max_responses: opts.max_responses,
                write_permits: AtomicU64::new(0),
                completions: Mutex::new(0),
                completion_cv: Condvar::new(),
                inflight: Mutex::new(std::collections::HashMap::new()),
                next_job: AtomicU64::new(0),
                conns: Mutex::new(std::collections::HashMap::new()),
                next_conn: AtomicU64::new(0),
            }),
        }
    }

    /// Binds line-protocol endpoints (at least one) and spawns their
    /// accept threads. TCP addresses are standard `host:port` strings
    /// (`port 0` = OS-assigned, readable back from
    /// [`Listening::tcp_addr`]). Shorthand for [`Server::listen_all`]
    /// with no HTTP endpoint.
    ///
    /// # Errors
    ///
    /// Bind failures, or [`io::ErrorKind::InvalidInput`] when no
    /// endpoint was requested.
    pub fn listen(self, tcp: Option<&str>, unix: Option<&Path>) -> io::Result<Listening> {
        self.listen_all(tcp, unix, None)
    }

    /// Binds the requested endpoints (at least one) and spawns their
    /// accept threads: line-protocol TCP and/or Unix socket, and/or the
    /// HTTP/1.1 facade (`http`, a `host:port` string; the bound address
    /// is readable back from [`Listening::http_addr`]).
    ///
    /// # Errors
    ///
    /// Bind failures, or [`io::ErrorKind::InvalidInput`] when no
    /// endpoint was requested.
    pub fn listen_all(
        self,
        tcp: Option<&str>,
        unix: Option<&Path>,
        http: Option<&str>,
    ) -> io::Result<Listening> {
        if tcp.is_none() && unix.is_none() && http.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no endpoint requested: pass a TCP address, a Unix socket path, and/or an HTTP address",
            ));
        }
        let mut accept_threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            accept_threads.push(net::accept_tcp(Arc::clone(&self.shared), listener));
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = unix {
            // A stale socket file from a crashed predecessor would make
            // bind fail; remove it (connecting to a live one would fail
            // the bind anyway, which is the behavior we want).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            unix_path = Some(path.to_path_buf());
            accept_threads.push(net::accept_unix(Arc::clone(&self.shared), listener));
        }
        #[cfg(not(unix))]
        if unix.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        let mut http_addr = None;
        if let Some(addr) = http {
            let listener = TcpListener::bind(addr)?;
            http_addr = Some(listener.local_addr()?);
            accept_threads.push(http::accept_http(Arc::clone(&self.shared), listener));
        }
        let worker_threads = pool::spawn_workers(&self.shared);
        Ok(Listening {
            shared: self.shared,
            tcp_addr,
            unix_path,
            http_addr,
            accept_threads,
            worker_threads,
        })
    }

    /// Handles one complete frame and renders the one-line response —
    /// the entire protocol, transport-free and synchronous (heavy ops
    /// execute inline on the calling thread). Tests of pure protocol
    /// behavior drive this directly; connection loops instead use the
    /// crate-private `classify_line` so heavy ops go through the
    /// worker pool.
    pub fn handle_line(&self, line: &str) -> String {
        let (id, classified) = self.classify_line(line);
        let outcome = match classified {
            Ok(Action::Immediate(body)) => Ok(body),
            Ok(Action::Heavy(op)) => self.execute_heavy(op),
            Err(e) => Err(e),
        };
        self.render_outcome(id, outcome)
    }

    /// Parses one frame into its echo id and either an immediate result
    /// or a pool-ready heavy op. Counts the request; the deadline (if
    /// any) is anchored *here*, so time spent queued counts against the
    /// request's latency budget.
    pub(crate) fn classify_line(&self, line: &str) -> (Value, Result<Action, ProtoError>) {
        match serde_json::from_str::<Value>(line) {
            Err(_) => {
                self.shared.requests.fetch_add(1, Ordering::Relaxed);
                (
                    Value::Null,
                    Err(ProtoError::new(
                        ErrKind::BadFrame,
                        "frame is not valid JSON",
                    )),
                )
            }
            Ok(v) => self.classify_value(v),
        }
    }

    /// [`Server::classify_line`] for an already-parsed frame — the HTTP
    /// facade's entry point (its body arrives pre-parsed, with the op
    /// injected from the request path). Counts the request.
    pub(crate) fn classify_value(&self, v: Value) -> (Value, Result<Action, ProtoError>) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        if v.as_object().is_none() {
            return (
                Value::Null,
                Err(ProtoError::new(
                    ErrKind::BadFrame,
                    "frame must be a JSON object",
                )),
            );
        }
        let id = v["id"].clone();
        (id, self.dispatch(&v))
    }

    /// Renders the response envelope and maintains the error counter —
    /// the single exit point for every response, wherever it executed.
    pub(crate) fn render_outcome(&self, id: Value, outcome: Result<Value, ProtoError>) -> String {
        if outcome.is_err() {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        envelope(id, outcome)
    }

    /// The response to a heavy op its home shard's admission queue
    /// refused.
    pub(crate) fn overloaded_response(&self, id: Value, shard: usize) -> String {
        self.shared.shed.fetch_add(1, Ordering::Relaxed);
        self.render_outcome(
            id,
            Err(ProtoError::new(
                ErrKind::Overloaded,
                format!(
                    "admission queue full (backlog {}); request shed",
                    self.shared.shards.get(shard).queue.capacity()
                ),
            )),
        )
    }

    /// Executes a parsed heavy op under its deadline token. Runs on a
    /// worker thread in the daemon, inline in [`Server::handle_line`].
    pub(crate) fn execute_heavy(&self, op: HeavyOp) -> Result<Value, ProtoError> {
        let token = match op.deadline {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::never(),
        };
        let job = self.shared.track_job(&token);
        let shard = self.shared.shards.get(op.shard);
        shard.inflight.fetch_add(1, Ordering::Relaxed);
        let outcome = self.run_heavy(op.shard, op.kind, &token);
        shard.inflight.fetch_sub(1, Ordering::Relaxed);
        self.shared.untrack_job(job);
        outcome
    }

    fn run_heavy(
        &self,
        home: usize,
        kind: HeavyKind,
        token: &CancelToken,
    ) -> Result<Value, ProtoError> {
        match kind {
            HeavyKind::Run(task) => {
                // The long-running part shares the home shard's read
                // lock: concurrent workers proceed in parallel, and only
                // *this shard's* interns serialize against them.
                let engine = relock(self.shared.shards.get(home).engine.read());
                let result = engine.run(&task, token).map_err(|e| self.engine_err(e))?;
                Ok(render_run_result(&result))
            }
            HeavyKind::Batch(tasks) => {
                // Split by home shard, execute the sub-batches shard by
                // shard (each under that shard's read lock), and
                // reassemble in input order — every entry byte-identical
                // to what a separate `run` would have produced.
                let mut order: Vec<usize> = Vec::new();
                let mut groups: std::collections::HashMap<usize, (Vec<usize>, Vec<Task>)> =
                    std::collections::HashMap::new();
                for (i, (shard, task)) in tasks.into_iter().enumerate() {
                    let (indices, group) = groups.entry(shard).or_insert_with(|| {
                        order.push(shard);
                        (Vec::new(), Vec::new())
                    });
                    indices.push(i);
                    group.push(task);
                }
                let mut rendered: Vec<Value> =
                    vec![Value::Null; groups.values().map(|(i, _)| i.len()).sum()];
                for shard in order {
                    // Grouped above: every key in `order` was inserted
                    // exactly once and is removed exactly once here.
                    let Some((indices, group)) = groups.remove(&shard) else {
                        continue;
                    };
                    let engine = relock(self.shared.shards.get(shard).engine.read());
                    let results = engine
                        .run_batch(&group, self.shared.batch_jobs, token)
                        .map_err(|e| self.engine_err(e))?;
                    for (slot, result) in indices.into_iter().zip(results.iter()) {
                        rendered[slot] = render_run_result(result);
                    }
                }
                let mut map = Map::new();
                map.insert("results".to_string(), Value::Array(rendered));
                Ok(Value::Object(map))
            }
        }
    }

    /// Maps engine failures onto the wire vocabulary (and counts
    /// deadline trips).
    fn engine_err(&self, e: EngineError) -> ProtoError {
        match e {
            EngineError::UnknownPage(id) => ProtoError::new(
                ErrKind::UnknownPage,
                format!("page handle {} is unknown to this server", id.index()),
            ),
            EngineError::Cancelled => {
                self.shared.deadline_hits.fetch_add(1, Ordering::Relaxed);
                ProtoError::new(
                    ErrKind::DeadlineExceeded,
                    "latency budget expired before the run finished",
                )
            }
            other => ProtoError::new(ErrKind::Internal, other.to_string()),
        }
    }

    /// The response to a frame that blew the size cap (counted like any
    /// other request; the caller closes the connection afterwards).
    pub(crate) fn oversized_response(&self) -> String {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.errors.fetch_add(1, Ordering::Relaxed);
        envelope(
            Value::Null,
            Err(ProtoError::new(
                ErrKind::Oversized,
                format!(
                    "frame exceeds max_frame_bytes ({}); closing connection",
                    self.shared.max_frame_bytes
                ),
            )),
        )
    }

    /// The response to a complete but non-UTF-8 frame.
    pub(crate) fn bad_utf8_response(&self) -> String {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.errors.fetch_add(1, Ordering::Relaxed);
        envelope(
            Value::Null,
            Err(ProtoError::new(ErrKind::BadFrame, "frame is not UTF-8")),
        )
    }

    fn dispatch(&self, request: &Value) -> Result<Action, ProtoError> {
        match request["op"].as_str() {
            Some("ping") => {
                let mut map = Map::new();
                map.insert("pong".to_string(), Value::Bool(true));
                Ok(Action::Immediate(Value::Object(map)))
            }
            Some("intern") => self.op_intern(request).map(Action::Immediate),
            Some("run") => {
                let deadline = self.deadline_of(request)?;
                let (task, home) = self.parse_run_task(request)?;
                Ok(Action::Heavy(HeavyOp {
                    kind: HeavyKind::Run(task),
                    deadline,
                    shard: home,
                }))
            }
            Some("run_batch") => {
                let deadline = self.deadline_of(request)?;
                let tasks = match &request["tasks"] {
                    Value::Array(items) => items
                        .iter()
                        .map(|item| self.parse_run_task(item).map(|(t, h)| (h, t)))
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return bad_request("field \"tasks\" must be an array"),
                };
                // The batch is admitted on (and its worker slot charged
                // to) the first task's home shard.
                let shard = tasks.first().map_or(0, |&(h, _)| h);
                Ok(Action::Heavy(HeavyOp {
                    kind: HeavyKind::Batch(tasks),
                    deadline,
                    shard,
                }))
            }
            Some("check") => self.op_check(request).map(Action::Immediate),
            Some("stats") => self.op_stats().map(Action::Immediate),
            Some(other) => Err(ProtoError::new(
                ErrKind::UnknownOp,
                format!("unknown op {other:?} (expected ping|intern|run|run_batch|check|stats)"),
            )),
            None => bad_request("field \"op\" must be a string"),
        }
    }

    /// The request's effective latency budget: the smaller of its
    /// `deadline_ms` and the server default, anchored now (= at frame
    /// arrival).
    fn deadline_of(&self, request: &Value) -> Result<Option<Instant>, ProtoError> {
        let requested = match &request["deadline_ms"] {
            Value::Null => None,
            v => match v.as_u64() {
                Some(ms) => Some(Duration::from_millis(ms)),
                None => {
                    return bad_request(
                        "field \"deadline_ms\" must be a non-negative integer (milliseconds)",
                    )
                }
            },
        };
        let budget = match (requested, self.shared.default_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Ok(budget.map(|d| Instant::now() + d))
    }

    /// Parses inline HTML and interns it onto its owning shard (parse
    /// happens *before* any lock; the owner's write lock is held only
    /// for the content-addressed insert). Returns the resolved page
    /// plus the parsed tree's node count. `lenient` selects browser-style
    /// recovery ([`PageTree::parse`], never fails) over the strict
    /// damage-rejecting parse.
    fn intern_html(&self, html: &str, lenient: bool) -> Result<(ResolvedPage, usize), ProtoError> {
        let tree = if lenient {
            PageTree::parse(html)
        } else {
            PageTree::try_parse(html)
                .map_err(|e| ProtoError::new(ErrKind::Page, EngineError::from(e).to_string()))?
        };
        let nodes = tree.len();
        let tree = Arc::new(tree);
        let owner = self.shared.shards.owner_of(content_digest(&tree));
        let id = {
            let mut engine = relock(self.shared.shards.get(owner).engine.write());
            engine.store_mut().insert_shared(Arc::clone(&tree))
        };
        Ok((
            ResolvedPage {
                tree,
                owner,
                id_in_owner: id,
            },
            nodes,
        ))
    }

    fn op_intern(&self, request: &Value) -> Result<Value, ProtoError> {
        let html = str_field(request, "html")?;
        let lenient = bool_field(request, "lenient", false)?;
        let (page, nodes) = self.intern_html(html, lenient)?;
        let handle = self
            .shared
            .shards
            .encode_handle(page.owner, page.id_in_owner.index());
        let mut map = Map::new();
        map.insert("page".to_string(), serde_json::json!(handle));
        map.insert("nodes".to_string(), serde_json::json!(nodes));
        // Hex string: the digest is a full u64 and JSON numbers cannot
        // carry it faithfully. Matches the CLI's `import` output, so
        // client-side and server-side ingestion can be diffed directly.
        map.insert(
            "digest".to_string(),
            serde_json::json!(format!("{:016x}", content_digest(&page.tree))),
        );
        Ok(Value::Object(map))
    }

    /// Resolves one page reference onto its owning shard, interning
    /// inline HTML on the fly. Handles only take the owner's read lock.
    fn resolve(&self, r: PageRef) -> Result<ResolvedPage, ProtoError> {
        match r {
            PageRef::Handle(h) => {
                let (owner, local) = self.shared.shards.decode_handle(h);
                let engine = relock(self.shared.shards.get(owner).engine.read());
                let id = engine.store().id_at(local as usize).ok_or_else(|| {
                    ProtoError::new(
                        ErrKind::UnknownPage,
                        format!("page handle {h} is unknown to this server"),
                    )
                })?;
                // `id_at` just resolved this id under the same read
                // lock, so `get` can only miss if the store is corrupt —
                // degrade typed rather than panic the connection thread.
                let tree = match engine.store().get(id) {
                    Ok(tree) => Arc::clone(tree),
                    Err(_) => {
                        return Err(ProtoError::new(
                            ErrKind::Internal,
                            format!("page handle {h} resolved to a missing store slot"),
                        ))
                    }
                };
                Ok(ResolvedPage {
                    tree,
                    owner,
                    id_in_owner: id,
                })
            }
            // Inline pages inside run/run_batch stay strict: only the
            // dedicated `intern` op takes the lenient opt-out.
            PageRef::Html(html) => self.intern_html(&html, false).map(|(page, _)| page),
        }
    }

    /// The home-shard-local id of a resolved page: its own id when it
    /// already lives on `home`, else the id of its `Arc`-shared copy
    /// pulled into the home shard's store. `home_engine` lazily caches
    /// the home shard's write lock so a task with many foreign pages
    /// pays for one acquisition — and a task with none (always the case
    /// at one shard) never takes a write lock at all.
    fn localize<'a>(
        &'a self,
        home_engine: &mut Option<std::sync::RwLockWriteGuard<'a, Engine>>,
        home: usize,
        page: &ResolvedPage,
    ) -> PageId {
        if page.owner == home {
            return page.id_in_owner;
        }
        let engine =
            home_engine.get_or_insert_with(|| relock(self.shared.shards.get(home).engine.write()));
        engine.store_mut().insert_shared(Arc::clone(&page.tree))
    }

    /// Parses and fully resolves one run spec (the body of a `run`
    /// request, or one `tasks[]` entry of `run_batch`) into an engine
    /// [`Task`] plus its home shard (the owner of its first page
    /// reference; a pageless task runs on shard 0). Inline pages are
    /// interned here, on the connection thread — workers only ever
    /// synthesize. Foreign pages are pulled into the home shard so the
    /// run executes against a single store.
    fn parse_run_task(&self, request: &Value) -> Result<(Task, usize), ProtoError> {
        let question = str_field(request, "question")?.to_string();
        let keywords = string_list(request, "keywords")?;

        // Parse both page lists fully before touching the engine, so a
        // malformed tail can never leave a half-interned request behind.
        let labeled_specs: Vec<(PageRef, Vec<String>)> = match &request["labeled"] {
            Value::Null => Vec::new(),
            Value::Array(items) => items
                .iter()
                .map(|item| {
                    let r = page_ref(item, "labeled[] entry")?;
                    let gold = string_list(item, "gold")?;
                    Ok((r, gold))
                })
                .collect::<Result<_, ProtoError>>()?,
            _ => return bad_request("field \"labeled\" must be an array"),
        };
        let target_specs: Vec<PageRef> = match &request["targets"] {
            Value::Null => Vec::new(),
            Value::Array(items) => items
                .iter()
                .map(|item| page_ref(item, "targets[] entry"))
                .collect::<Result<_, ProtoError>>()?,
            _ => return bad_request("field \"targets\" must be an array"),
        };

        // Resolve every reference onto its owning shard, then pick the
        // home shard and localize: pages already home use their own id,
        // foreign pages are Arc-copied in under one write lock.
        let labeled: Vec<(ResolvedPage, Vec<String>)> = labeled_specs
            .into_iter()
            .map(|(r, gold)| self.resolve(r).map(|p| (p, gold)))
            .collect::<Result<_, _>>()?;
        let targets: Vec<ResolvedPage> = target_specs
            .into_iter()
            .map(|r| self.resolve(r))
            .collect::<Result<_, _>>()?;
        let home = labeled
            .first()
            .map(|(p, _)| p.owner)
            .or_else(|| targets.first().map(|p| p.owner))
            .unwrap_or(0);

        let mut task = Task::new(question, keywords);
        let mut home_engine = None;
        for (p, gold) in &labeled {
            let id = self.localize(&mut home_engine, home, p);
            task.labeled.push((id, gold.clone()));
        }
        for p in &targets {
            let id = self.localize(&mut home_engine, home, p);
            task.unlabeled.push(id);
        }
        Ok((task, home))
    }

    /// `check`: lint plus abstract-interpretation verdicts for a program
    /// against an (optional) query context. Pure static analysis — no
    /// page is evaluated, no engine lock is taken, no worker slot or
    /// queue place is consumed — so it is answered inline like `ping`.
    /// The body mirrors `webqa-cli check --json` field for field.
    fn op_check(&self, request: &Value) -> Result<Value, ProtoError> {
        let src = str_field(request, "program")?;
        let program: Program = src.parse().map_err(|e| {
            ProtoError::new(
                ErrKind::BadRequest,
                format!("field \"program\" does not parse: {e}"),
            )
        })?;
        let question = match &request["question"] {
            Value::Null => "",
            v => match v.as_str() {
                Some(q) => q,
                None => return bad_request("field \"question\" must be a string"),
            },
        };
        let ctx = QueryContext::new(question, string_list(request, "keywords")?);
        let report = lint(&program, &ctx);
        let analysis = Analyzer::new(&ctx).analyze(&program);
        let verdicts = analysis.verdicts();
        let clean = report.is_clean() && verdicts.is_empty();
        let strings =
            |items: Vec<String>| Value::Array(items.into_iter().map(Value::String).collect());
        let mut map = Map::new();
        map.insert("program".to_string(), Value::String(program.to_string()));
        map.insert("size".to_string(), serde_json::json!(program.size()));
        map.insert(
            "branches".to_string(),
            serde_json::json!(program.branches.len()),
        );
        map.insert(
            "lint".to_string(),
            strings(report.issues.iter().map(|i| i.to_string()).collect()),
        );
        map.insert("verdicts".to_string(), strings(verdicts));
        map.insert(
            "canonical_key".to_string(),
            Value::String(analysis.canonical_key.clone()),
        );
        map.insert("clean".to_string(), Value::Bool(clean));
        Ok(Value::Object(map))
    }

    fn op_stats(&self) -> Result<Value, ProtoError> {
        let shards = &self.shared.shards;
        // One pass over the shards: read each engine once, emitting the
        // per-shard breakdown while accumulating the fleet totals (so
        // the breakdown always sums to the totals in the same response).
        let mut shard_entries = Vec::with_capacity(shards.count());
        let mut cache_total = CacheStats::default();
        let mut pages_total = 0usize;
        for (i, s) in shards.iter().enumerate() {
            let (pages, cache) = {
                let engine = relock(s.engine.read());
                (engine.store().len(), engine.cache_stats())
            };
            pages_total += pages;
            cache_total = cache_total.merged(cache);
            let mut entry = Map::new();
            entry.insert("shard".to_string(), serde_json::json!(i as u64));
            entry.insert("workers".to_string(), serde_json::json!(s.workers as u64));
            entry.insert(
                "backlog".to_string(),
                serde_json::json!(s.queue.capacity() as u64),
            );
            entry.insert(
                "queue_depth".to_string(),
                serde_json::json!(s.queue.depth() as u64),
            );
            entry.insert(
                "inflight".to_string(),
                serde_json::json!(s.inflight.load(Ordering::Relaxed)),
            );
            entry.insert("pages".to_string(), serde_json::json!(pages));
            entry.insert(
                "cache".to_string(),
                serde_json::to_value(&cache)
                    .map_err(|e| ProtoError::new(ErrKind::Internal, e.to_string()))?,
            );
            shard_entries.push(Value::Object(entry));
        }
        let cache = serde_json::to_value(&cache_total)
            .map_err(|e| ProtoError::new(ErrKind::Internal, e.to_string()))?;
        let mut map = Map::new();
        map.insert(
            "requests".to_string(),
            serde_json::json!(self.shared.requests.load(Ordering::Relaxed)),
        );
        map.insert(
            "errors".to_string(),
            serde_json::json!(self.shared.errors.load(Ordering::Relaxed)),
        );
        map.insert(
            "shed".to_string(),
            serde_json::json!(self.shared.shed.load(Ordering::Relaxed)),
        );
        map.insert(
            "deadline_exceeded".to_string(),
            serde_json::json!(self.shared.deadline_hits.load(Ordering::Relaxed)),
        );
        map.insert(
            "workers".to_string(),
            serde_json::json!(shards.total_workers() as u64),
        );
        map.insert(
            "backlog".to_string(),
            serde_json::json!(shards.total_backlog() as u64),
        );
        map.insert(
            "queue_depth".to_string(),
            serde_json::json!(shards.total_queue_depth() as u64),
        );
        map.insert(
            "inflight".to_string(),
            serde_json::json!(relock(self.shared.inflight.lock()).len() as u64),
        );
        map.insert("pages".to_string(), serde_json::json!(pages_total));
        map.insert(
            "uptime_ms".to_string(),
            serde_json::json!(self.shared.started.elapsed().as_millis() as u64),
        );
        map.insert("cache".to_string(), cache);
        map.insert(
            "persist".to_string(),
            serde_json::to_value(&shards.persist_stats())
                .map_err(|e| ProtoError::new(ErrKind::Internal, e.to_string()))?,
        );
        map.insert("shards".to_string(), Value::Array(shard_entries));
        Ok(Value::Object(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServeOptions {
            engine: webqa::Config {
                synth: webqa::SynthConfig::fast(),
                ..webqa::Config::default()
            },
            max_frame_bytes: 1 << 16,
            ..ServeOptions::default()
        })
    }

    #[test]
    fn ping_echoes_the_id() {
        let s = server();
        assert_eq!(
            s.handle_line(r#"{"id":42,"op":"ping"}"#),
            r#"{"id":42,"ok":{"pong":true}}"#
        );
        // Ids are arbitrary JSON, echoed verbatim.
        assert_eq!(
            s.handle_line(r#"{"id":"abc","op":"ping"}"#),
            r#"{"id":"abc","ok":{"pong":true}}"#
        );
    }

    #[test]
    fn malformed_and_unknown_frames_are_typed_errors() {
        let s = server();
        let r = s.handle_line("this is not json");
        assert!(r.contains(r#""kind":"bad-frame""#), "{r}");
        let r = s.handle_line("[1,2,3]");
        assert!(r.contains(r#""kind":"bad-frame""#), "{r}");
        let r = s.handle_line(r#"{"op":"frobnicate"}"#);
        assert!(r.contains(r#""kind":"unknown-op""#), "{r}");
        let r = s.handle_line(r#"{"op":"run"}"#);
        assert!(r.contains(r#""kind":"bad-request""#), "{r}");
        // The server still works after every error.
        assert!(s.handle_line(r#"{"op":"ping"}"#).contains("pong"));
    }

    #[test]
    fn intern_is_content_addressed() {
        let s = server();
        let a = s.handle_line(r#"{"op":"intern","html":"<h1>A</h1><p>x</p>"}"#);
        let b = s.handle_line(r#"{"op":"intern","html":"<h1>A</h1><p>x</p>"}"#);
        assert_eq!(a, b);
        assert!(a.contains(r#""page":0"#), "{a}");
        let damaged = s.handle_line(r#"{"op":"intern","html":"<p>50&bogus;mg</p>"}"#);
        assert!(damaged.contains(r#""kind":"page""#), "{damaged}");
    }

    #[test]
    fn intern_lenient_flag_and_digest() {
        let s = server();
        // The strict default rejects this page; lenient interning
        // recovers it browser-style.
        let strict = s.handle_line(r#"{"op":"intern","html":"<p>50&bogus;mg</p>"}"#);
        assert!(strict.contains(r#""kind":"page""#), "{strict}");
        let lenient =
            s.handle_line(r#"{"op":"intern","html":"<p>50&bogus;mg</p>","lenient":true}"#);
        let v: Value = serde_json::from_str(&lenient).expect("valid JSON");
        assert!(v["ok"]["page"].as_u64().is_some(), "{lenient}");

        // The digest is the tree's content digest as 16 hex digits, and
        // it matches what the CLI computes for the same page.
        let digest = v["ok"]["digest"].as_str().expect("digest string");
        assert_eq!(digest.len(), 16, "{lenient}");
        let expected = format!(
            "{:016x}",
            content_digest(&PageTree::parse("<p>50&bogus;mg</p>"))
        );
        assert_eq!(digest, expected);

        // An explicit false behaves like the default; junk is typed.
        let explicit = s.handle_line(r#"{"op":"intern","html":"<p>x</p>","lenient":false}"#);
        assert!(explicit.contains(r#""digest":""#), "{explicit}");
        let junk = s.handle_line(r#"{"op":"intern","html":"<p>x</p>","lenient":"yes"}"#);
        assert!(junk.contains(r#""kind":"bad-request""#), "{junk}");
    }

    #[test]
    fn run_with_inline_pages_answers() {
        let s = server();
        let req = r#"{"id":1,"op":"run","question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]}"#;
        let resp = s.handle_line(req);
        assert!(resp.contains(r#""answers":[["Wei Chen"]]"#), "{resp}");
        assert!(resp.contains(r#""train_f1":1.0"#), "{resp}");

        // Unknown handles are typed errors, and the engine survives.
        let bad = s.handle_line(
            r#"{"op":"run","question":"Q","keywords":[],"labeled":[{"page":999,"gold":["x"]}],"targets":[]}"#,
        );
        assert!(bad.contains(r#""kind":"unknown-page""#), "{bad}");
        let resp2 = s.handle_line(req);
        assert_eq!(
            resp2, resp,
            "repeat after an error must be byte-identical (and a cache hit)"
        );
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let s = server();
        let run_a = r#""question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]"#;
        let batch = s.handle_line(&format!(
            r#"{{"id":9,"op":"run_batch","tasks":[{{{run_a}}},{{{run_a}}}]}}"#
        ));
        let v: Value = serde_json::from_str(&batch).expect("valid JSON");
        let results = v["ok"]["results"].as_array().expect("results array");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0], results[1], "identical tasks, identical bodies");

        // Each entry is exactly what a separate `run` would say.
        let single = s.handle_line(&format!(r#"{{"op":"run",{run_a}}}"#));
        let sv: Value = serde_json::from_str(&single).expect("valid JSON");
        assert_eq!(results[0], sv["ok"]);

        // A malformed task fails the whole batch before anything runs.
        let bad = s.handle_line(&format!(
            r#"{{"op":"run_batch","tasks":[{{{run_a}}},{{"keywords":[]}}]}}"#
        ));
        assert!(bad.contains(r#""kind":"bad-request""#), "{bad}");
        let not_array = s.handle_line(r#"{"op":"run_batch","tasks":7}"#);
        assert!(not_array.contains(r#""kind":"bad-request""#), "{not_array}");
    }

    #[test]
    fn deadline_ms_must_be_a_nonnegative_integer() {
        let s = server();
        let r = s.handle_line(
            r#"{"op":"run","deadline_ms":"soon","question":"Q","keywords":[],"labeled":[],"targets":[]}"#,
        );
        assert!(r.contains(r#""kind":"bad-request""#), "{r}");
        assert!(r.contains("deadline_ms"), "{r}");
    }

    #[test]
    fn expired_deadline_is_typed_and_the_engine_survives() {
        let s = server();
        let fields = r#""question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[]"#;
        let dead = s.handle_line(&format!(r#"{{"op":"run","deadline_ms":0,{fields}}}"#));
        assert!(dead.contains(r#""kind":"deadline-exceeded""#), "{dead}");

        // The same task without a deadline runs fine afterwards: the
        // cancelled attempt cached nothing and poisoned nothing.
        let ok = s.handle_line(&format!(r#"{{"op":"run",{fields}}}"#));
        assert!(ok.contains(r#""train_f1":1.0"#), "{ok}");

        let stats = s.handle_line(r#"{"op":"stats"}"#);
        let v: Value = serde_json::from_str(&stats).expect("valid JSON");
        assert_eq!(v["ok"]["deadline_exceeded"].as_u64(), Some(1));
    }

    #[test]
    fn check_reports_verdicts_without_touching_the_engine() {
        let s = server();
        let resp = s.handle_line(
            r#"{"id":3,"op":"check","program":"sat(root, kw(0.60)) -> content; sat(root, true) -> content","keywords":["Students"]}"#,
        );
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v["id"].as_u64(), Some(3));
        assert_eq!(v["ok"]["branches"].as_u64(), Some(2));
        assert_eq!(v["ok"]["clean"].as_bool(), Some(true));
        assert_eq!(v["ok"]["verdicts"].as_array().map(Vec::len), Some(0));
        assert!(v["ok"]["canonical_key"].as_str().is_some(), "{resp}");

        // Without keywords the kw-guard is provably false: findings are
        // the op's *output*, still an `ok` response.
        let dirty = s.handle_line(
            r#"{"op":"check","program":"sat(root, kw(0.60)) -> content; sat(root, true) -> content"}"#,
        );
        let v: Value = serde_json::from_str(&dirty).expect("valid JSON");
        assert_eq!(v["ok"]["clean"].as_bool(), Some(false));
        let verdicts = v["ok"]["verdicts"].as_array().expect("verdicts array");
        assert!(
            verdicts
                .iter()
                .any(|x| x.as_str() == Some("branch 0: guard is provably false")),
            "{dirty}"
        );

        // An unparsable program is a protocol error, not a finding —
        // and the op consumed no engine state: the store stays empty.
        let bad = s.handle_line(r#"{"op":"check","program":"sat(root,"}"#);
        assert!(bad.contains(r#""kind":"bad-request""#), "{bad}");
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        let v: Value = serde_json::from_str(&stats).expect("valid JSON");
        assert_eq!(v["ok"]["pages"].as_u64(), Some(0));
    }

    #[test]
    fn stats_reports_counters_and_cache() {
        let s = server();
        let _ = s.handle_line(r#"{"op":"ping"}"#);
        let resp = s.handle_line(r#"{"op":"stats"}"#);
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v["ok"]["requests"].as_u64(), Some(2));
        assert_eq!(v["ok"]["errors"].as_u64(), Some(0));
        assert!(v["ok"]["cache"]["feature_hits"].as_u64().is_some());
    }
}
