//! Umbrella crate of the WebQA reproduction workspace.
//!
//! Hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`); the functionality lives in the member
//! crates, re-exported here for convenience:
//!
//! * [`webqa`] — the session-oriented engine (staged pipeline, shared
//!   page store, batch execution);
//! * [`webqa_dsl`] — the neurosymbolic DSL;
//! * [`webqa_synth`] — optimal synthesis;
//! * [`webqa_select`] — transductive program selection;
//! * [`webqa_corpus`] — the 25 tasks and the synthetic page corpus;
//! * [`webqa_baselines`] — BERTQA / HYB / EntExtract;
//! * [`webqa_html`] / [`webqa_nlp`] / [`webqa_metrics`] — substrates.
//!
//! # Workspace layout
//!
//! The workspace is a stack of stateless library crates with one thin
//! binary on top. Arrows point from dependent to dependency:
//!
//! ```text
//!        webqa_cli (bin)   webqa_bench (10 bench targets)
//!              │  │                │  │
//!              │  └────────┬───────┘  │
//!              │           ▼          │
//!              │    webqa_server      │
//!              │   (resident daemon)  │
//!              │           │          │
//!              └───────┬───┴──────────┘
//!                      ▼
//!                   webqa  ──────────────┐
//!                   │  │                 │
//!          ┌────────┘  └──────┐          │
//!          ▼                  ▼          ▼
//!     webqa_synth        webqa_select   webqa_corpus   webqa_baselines
//!          │                  │          │    │          │
//!          └───────┬──────────┘          │    │          │
//!                  ▼                     │    │          │
//!              webqa_dsl ◄───────────────┘    │          │
//!               │  │  │                       │          │
//!       ┌───────┘  │  └────────┐              │          │
//!       ▼          ▼           ▼              ▼          ▼
//!  webqa_html  webqa_nlp  webqa_metrics  (html, nlp, metrics again)
//! ```
//!
//! * **Substrates** (`webqa_html`, `webqa_nlp`, `webqa_metrics`) have no
//!   in-workspace dependencies. HTML parsing, the simulated NLP modules,
//!   and the token-level F₁ / Hamming scoring kernel.
//! * **DSL** (`webqa_dsl`) builds the page-tree query language on the
//!   substrates: AST, parser, printer, evaluator, normalizer, linter,
//!   and the abstract interpreter (`webqa_dsl::analysis`) — a sound
//!   static analyzer over (program, context) pairs with three verdict
//!   families (provably-false and subsumed guards, provably-empty
//!   extractors, equivalence up to normalization via canonical keys)
//!   that feeds the linter's semantic `DeadBranch`, the synthesizer's
//!   analysis prune, and the `check` surfaces of the CLI and server;
//!   `tests/analysis_soundness.rs` confirms every verdict against the
//!   definitional evaluator on random corpus pages.
//! * **Search** (`webqa_synth`, `webqa_select`) implements the paper's
//!   two phases: optimal enumerative synthesis with the `UB = 2R/(1+R)`
//!   pruning bound, then transductive ensemble selection. Synthesis
//!   additionally consults the analyzer to skip candidates it proves
//!   dead before building or scoring them (`SynthConfig::analysis`,
//!   counted by the `analysis_pruned_*` stats and proven
//!   result-preserving by `stats_snapshot.rs` and `synth_parity.rs`).
//! * **Engine** (`webqa`) wires synthesis and selection into the
//!   session-oriented `Engine`: pages are parsed fallibly once into a
//!   shared `PageStore` (content-addressed `PageId` handles, zero
//!   deep-clones on the run path), the pipeline runs as inspectable
//!   stages (`prepare` → `synthesize` → `select` → `answers`) so the
//!   interactive-labeling loop and the ablations can drive any stage
//!   alone, errors are a typed `webqa::Error`, and independent tasks
//!   batch through `Engine::run_batch` on the workspace's one ordered
//!   worker pool (`webqa_synth::par_map_ordered`, which branch-parallel
//!   synthesis shares) with deterministic input-ordered results (the runner caps combined
//!   batch × branch-parallel worker counts against the hardware budget).
//!   The engine additionally owns the cross-request caches: a sharded,
//!   content-keyed **two-tier** `FeatureStore` — a query-*independent*
//!   base tier (NER spans, leaf/element masks, keyed by page alone, so
//!   different questions over the same pages share the expensive half)
//!   under a thin query-dependent tier of keyword scores — and an LRU
//!   of completed runs; all pure values, so hits and evictions change
//!   latency, never results (`webqa::CacheStats` counts every tier,
//!   and a disabled tier counts nothing). The page store and base tier
//!   additionally persist: `webqa::PersistSink` spills them to a
//!   versioned, content-addressed on-disk snapshot
//!   (`Engine::spill_snapshot` / `load_snapshot`), checksummed and
//!   digest-verified on load so corruption degrades to a counted cold
//!   miss — `crates/core/tests/cache_semantics.rs` pins persist →
//!   reload → re-run equal to the never-cached reference. Each
//!   capability has one entry point: `Engine::run(&task, &cancel)` for
//!   one task and `Engine::run_batch(&tasks, jobs, &cancel)` for many,
//!   both under a cooperative `CancelToken`.
//!   **Workloads** (`webqa_corpus`, `webqa_baselines`) provide the 25
//!   evaluation tasks, the seeded page generators, and the three
//!   baseline systems.
//! * **Serving** (`webqa_server`) keeps engine state — and its caches —
//!   resident across requests, split into **digest-routed shards**:
//!   each shard owns an independent engine (store + caches) behind its
//!   own lock, its own bounded admission queue, and its own worker
//!   slice, with pages assigned by `content_digest % shards` (a pure
//!   function of page bytes, so a fleet of daemons agrees on placement
//!   without coordination) and wire handles interleaving the shard id
//!   so a 1-shard server stays bit-compatible with the pre-shard
//!   protocol. Two wire surfaces, both hand-rolled on `std::net`: a
//!   line-delimited JSON protocol over TCP and Unix sockets, and an
//!   HTTP/1.1 facade (`POST /v1/run|run_batch|intern|check`,
//!   `GET /v1/ping|stats`; keep-alive, `Content-Length` framing, error
//!   kinds mapped to status codes) whose response bodies are the
//!   line-protocol envelopes byte for byte — see the crate docs for
//!   both wire specs. Execution is a **bounded worker pool** per shard:
//!   engine concurrency is `workers`, never "number of open sockets",
//!   and when a shard's backlog cap is hit excess requests shed
//!   immediately with a typed `overloaded` error. Requests pipeline on
//!   one line-protocol connection (responses return in completion
//!   order, correlated by the echoed `id`), `run_batch` ships many
//!   tasks in one frame (cross-shard batches split per shard and
//!   reassemble in input order), and a per-request `deadline_ms` budget
//!   — queue wait included — trips a cooperative cancel token inside
//!   the synthesis enumerator, returning a typed `deadline-exceeded`
//!   without poisoning any cache. With `--cache-dir DIR` the daemon
//!   spills its page store and base-feature tier to the on-disk
//!   snapshot at shutdown and reloads it (per shard, owned digests
//!   only) at startup, so restarts are warm; load/spill/corruption
//!   counters surface through `stats` on both wire surfaces. `tests/serve_api.rs` proves serving
//!   observationally invisible (concurrent duplicated request streams
//!   answer byte-identically to a cold, never-cached engine — at 1
//!   shard, at 4 shards, and over HTTP — shard routing ignores intern
//!   order, the per-shard stats breakdown sums to the totals, and
//!   fuzzed pipelined interleavings never wedge);
//!   `tests/serve_overload.rs` proves the bounds (prompt typed shedding
//!   at saturation, deadlines covering synthesis and queue wait,
//!   cancellation isolated from pipelined neighbors, and the whole
//!   contract intact on a 4-shard server with cross-shard batches).
//! * **Apps** (`webqa_cli`, `webqa_bench`) stay thin: argument parsing and
//!   report formatting only, every decision delegated to the libraries
//!   (`webqa-cli serve` / `client` front the daemon over either
//!   protocol; `webqa-cli bench-fleet` spawns an in-process fleet of
//!   daemons and records the shards-vs-throughput trajectory).
//!
//! This umbrella crate (`webqa-repro`) re-exports everything so the
//! integration tests and examples can `use` one coherent surface.
//!
//! Third-party dependencies (`rand`, `proptest`, `serde`, `serde_json`)
//! resolve to minimal offline stand-ins vendored under
//! `compat/` — see `compat/README.md` for exactly what subset each
//! implements and how to swap the real crates back in.

pub use webqa;
pub use webqa_baselines;
pub use webqa_corpus;
pub use webqa_dsl;
pub use webqa_html;
pub use webqa_metrics;
pub use webqa_nlp;
pub use webqa_select;
pub use webqa_server;
pub use webqa_synth;
