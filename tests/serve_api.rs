//! The serving-layer concurrency & determinism harness.
//!
//! `webqa_server` keeps one engine — and its cross-request caches —
//! alive across requests and clients. That is only admissible if
//! serving is observationally invisible: **every** response must be
//! byte-identical to what a cold, single-threaded, never-cached
//! `webqa::Engine` computes for the same task, no matter how requests
//! interleave, repeat, or hit the caches. This harness pins exactly
//! that, the way `tests/synth_parity.rs` pinned the PR 4 hot-path
//! rewrite one level down:
//!
//! * N ≥ 4 concurrent clients hammer one server with shuffled,
//!   duplicated task streams; every response line is compared byte for
//!   byte against an envelope rendered from the cold reference engine
//!   (same `render_run_result` code path, so a single differing bit in
//!   programs, `Counts`, F₁, or answers fails the test);
//! * a warm repeat shows `FeatureStore` hits and result-LRU hits in the
//!   served cache-stats — the caches demonstrably *work* and
//!   demonstrably *don't show* in the payloads;
//! * protocol robustness: malformed frames, oversized requests, unknown
//!   handles, and mid-request disconnects each produce a typed error
//!   (or a clean drop) without poisoning the shared engine — the next
//!   request always succeeds.

use std::sync::atomic::{AtomicU64, Ordering};

use webqa::{CacheConfig, CancelToken, Config, Engine, SynthConfig, Task};
use webqa_corpus::{task_by_id, Corpus};
use webqa_server::{render_run_result, Client, Listening, ServeOptions, Server};

/// The engine config both the server and the cold reference use (the
/// reference additionally disables the caches — cold means *never*
/// cached).
fn engine_config() -> Config {
    Config {
        synth: SynthConfig::fast(),
        ..Config::default()
    }
}

/// One task of the workload: the wire-level `run` request fields, plus
/// everything needed to replay it on a local engine.
#[derive(Clone)]
struct Spec {
    question: String,
    keywords: Vec<String>,
    labeled: Vec<(String, Vec<String>)>,
    targets: Vec<String>,
}

impl Spec {
    /// The JSON `run` request for this spec, with inline HTML pages (the
    /// server interns them content-addressed, so repeats are dedup'd).
    fn request(&self, id: u64) -> String {
        let mut m = serde_json::Map::new();
        m.insert("id".to_string(), serde_json::json!(id));
        m.insert("op".to_string(), serde_json::json!("run"));
        m.insert(
            "question".to_string(),
            serde_json::json!(self.question.clone()),
        );
        m.insert(
            "keywords".to_string(),
            serde_json::json!(self.keywords.clone()),
        );
        let labeled: Vec<serde_json::Value> = self
            .labeled
            .iter()
            .map(|(html, gold)| {
                let mut e = serde_json::Map::new();
                e.insert("html".to_string(), serde_json::json!(html.clone()));
                e.insert("gold".to_string(), serde_json::json!(gold.clone()));
                serde_json::Value::Object(e)
            })
            .collect();
        m.insert("labeled".to_string(), serde_json::Value::Array(labeled));
        let targets: Vec<serde_json::Value> = self
            .targets
            .iter()
            .map(|html| {
                let mut e = serde_json::Map::new();
                e.insert("html".to_string(), serde_json::json!(html.clone()));
                serde_json::Value::Object(e)
            })
            .collect();
        m.insert("targets".to_string(), serde_json::Value::Array(targets));
        serde_json::to_string(&serde_json::Value::Object(m)).expect("serializable")
    }

    /// Runs this spec on a cold, never-cached, single-threaded engine
    /// and renders the `ok` body through the server's own code path.
    fn cold_body(&self) -> String {
        let mut engine = Engine::new(Config {
            cache: CacheConfig::disabled(),
            ..engine_config()
        });
        let mut task = Task::new(self.question.clone(), self.keywords.clone());
        for (html, gold) in &self.labeled {
            let id = engine.store_mut().insert_html(html).expect("clean HTML");
            task.labeled.push((id, gold.clone()));
        }
        for html in &self.targets {
            let id = engine.store_mut().insert_html(html).expect("clean HTML");
            task.unlabeled.push(id);
        }
        let result = engine
            .run(&task, &CancelToken::never())
            .expect("ids resolve");
        serde_json::to_string(&render_run_result(&result)).expect("serializable")
    }
}

/// The workload: hand-written mini-tasks (including pairs sharing their
/// labeled pages under one question, so feature-table reuse triggers
/// even when the result LRU absorbs exact repeats) plus corpus tasks.
fn workload() -> Vec<Spec> {
    let a = "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>".to_string();
    let b = "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>".to_string();
    let c = "<h1>C</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>".to_string();
    let d = "<h1>D</h1><h2>Students</h2><ul><li>Elena Petrov</li></ul>".to_string();
    let students = |targets: Vec<String>| Spec {
        question: "Who are the current PhD students?".to_string(),
        keywords: vec!["Students".to_string(), "PhD".to_string()],
        labeled: vec![
            (
                a.clone(),
                vec!["Jane Doe".to_string(), "Bob Smith".to_string()],
            ),
            (b.clone(), vec!["Mary Anderson".to_string()]),
        ],
        targets,
    };
    let mut specs = vec![
        // Same question + labeled pages, different target sets: distinct
        // result-cache keys sharing their feature tables.
        students(vec![c.clone()]),
        students(vec![c.clone(), d.clone()]),
        students(vec![d.clone()]),
    ];

    // Two corpus tasks over a tiny generated corpus.
    let corpus = Corpus::generate(4, 2024);
    for id in ["fac_t1", "clinic_t1"] {
        let task = task_by_id(id).expect("catalogue task");
        let data = corpus.dataset(task, 2);
        specs.push(Spec {
            question: task.question.to_string(),
            keywords: task.keywords.iter().map(|k| k.to_string()).collect(),
            labeled: data.train.into_iter().map(|p| (p.html, p.gold)).collect(),
            targets: data.test.into_iter().map(|p| p.html).collect(),
        });
    }
    specs
}

fn spawn_server(opts: ServeOptions) -> Listening {
    Server::new(opts)
        .listen(Some("127.0.0.1:0"), None)
        .expect("bind loopback")
}

/// The headline test: 4 concurrent clients, shuffled duplicated
/// streams, every response byte-identical to the cold reference; warm
/// cache-stats show the memoization actually engaged.
#[test]
fn concurrent_duplicated_streams_are_byte_identical_to_a_cold_engine() {
    let specs = workload();
    let expected: Vec<String> = specs.iter().map(Spec::cold_body).collect();

    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        max_frame_bytes: 1 << 20,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");

    const CLIENTS: usize = 4;
    const REPEATS: usize = 3;
    let next_id = AtomicU64::new(1);
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let (specs, expected, next_id) = (&specs, &expected, &next_id);
            scope.spawn(move || {
                let mut client = Client::connect_tcp(addr).expect("connect");
                // A client-specific shuffle of the duplicated stream:
                // stride through `REPEATS` copies at a client-dependent
                // offset and step. The stride is forced coprime to the
                // stream length, so every client sees every task
                // `REPEATS` times in a different order and duplicates
                // interleave across clients — for any workload size.
                let n = specs.len();
                fn gcd(a: usize, b: usize) -> usize {
                    if b == 0 {
                        a
                    } else {
                        gcd(b, a % b)
                    }
                }
                let mut stride = client_idx + 1;
                while gcd(stride, n) != 1 {
                    stride += 1;
                }
                let mut seen = vec![0usize; n];
                for k in 0..n * REPEATS {
                    let i = (client_idx + k * stride) % n;
                    seen[i] += 1;
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let response = client
                        .request_line(&specs[i].request(id))
                        .expect("response");
                    let want = format!("{{\"id\":{id},\"ok\":{}}}", expected[i]);
                    assert_eq!(
                        response, want,
                        "client {client_idx} request {k} (task {i}) diverged from the cold engine"
                    );
                }
                assert!(
                    seen.iter().all(|&c| c == REPEATS),
                    "client {client_idx} did not see every task {REPEATS}×: {seen:?}"
                );
            });
        }
    });

    // The caches must have engaged: with 4 clients × 3 repeats of 5
    // tasks, repeats hit the result LRU, and the same-pages/different-
    // targets specs hit the feature store even on result misses.
    let mut client = Client::connect_tcp(addr).expect("connect");
    let stats = client
        .request(&serde_json::from_str(r#"{"op":"stats"}"#).unwrap())
        .expect("stats");
    let cache = &stats["ok"]["cache"];
    assert!(
        cache["result_hits"].as_u64().unwrap() > 0,
        "duplicated streams must hit the result LRU: {stats:?}"
    );
    assert!(
        cache["feature_hits"].as_u64().unwrap() > 0,
        "shared labeled pages must hit the FeatureStore: {stats:?}"
    );
    listening.shutdown();
}

/// A warm repeat over one connection: first query misses, the repeat is
/// served from cache — and the two payloads are byte-identical.
#[test]
fn warm_repeat_is_a_cache_hit_with_an_identical_payload() {
    let specs = workload();
    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        max_frame_bytes: 1 << 20,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    let first = client.request_line(&specs[0].request(1)).expect("cold run");
    let stats0 = client
        .request(&serde_json::from_str(r#"{"op":"stats"}"#).unwrap())
        .expect("stats");
    assert_eq!(stats0["ok"]["cache"]["result_hits"].as_u64(), Some(0));

    let second = client.request_line(&specs[0].request(1)).expect("warm run");
    assert_eq!(second, first, "cache hit changed the payload");

    // A same-pages/different-targets query exercises the FeatureStore
    // without being an exact repeat.
    let _ = client.request_line(&specs[1].request(2)).expect("variant");
    let stats1 = client
        .request(&serde_json::from_str(r#"{"op":"stats"}"#).unwrap())
        .expect("stats");
    let cache = &stats1["ok"]["cache"];
    assert_eq!(cache["result_hits"].as_u64(), Some(1), "{stats1:?}");
    assert!(
        cache["feature_hits"].as_u64().unwrap() >= 2,
        "the variant query must reuse both labeled tables: {stats1:?}"
    );
    listening.shutdown();
}

/// Malformed frames are typed errors and never poison the engine.
#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let listening = spawn_server(ServeOptions::default());
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    let bad = client.request_line("{not json at all").expect("response");
    assert_eq!(
        bad,
        r#"{"id":null,"err":{"kind":"bad-frame","message":"frame is not valid JSON"}}"#
    );
    let bad = client.request_line("[1,2,3]").expect("response");
    assert!(bad.contains(r#""kind":"bad-frame""#), "{bad}");
    let bad = client
        .request_line(r#"{"id":9,"op":"launch-missiles"}"#)
        .expect("response");
    assert_eq!(
        bad,
        r#"{"id":9,"err":{"kind":"unknown-op","message":"unknown op \"launch-missiles\" (expected ping|intern|run|run_batch|check|stats)"}}"#
    );
    let bad = client
        .request_line(r#"{"op":"run","question":7}"#)
        .expect("response");
    assert!(bad.contains(r#""kind":"bad-request""#), "{bad}");
    let bad = client
        .request_line(r#"{"op":"run","question":"Q","labeled":[{"page":12345,"gold":[]}]}"#)
        .expect("response");
    assert!(bad.contains(r#""kind":"unknown-page""#), "{bad}");

    // Same connection, same engine: still fully functional.
    let pong = client
        .request_line(r#"{"id":1,"op":"ping"}"#)
        .expect("ping");
    assert_eq!(pong, r#"{"id":1,"ok":{"pong":true}}"#);
    listening.shutdown();
}

/// Oversized frames are refused with a typed error (streamed — the
/// server never buffers the oversized payload) and the connection is
/// closed; the server keeps serving new connections.
#[test]
fn oversized_frames_are_refused_and_only_that_connection_closes() {
    let listening = spawn_server(ServeOptions {
        engine: Config::default(),
        max_frame_bytes: 256,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    let huge = format!(r#"{{"op":"intern","html":"{}"}}"#, "x".repeat(4096));
    let resp = client.request_line(&huge).expect("error response");
    assert!(resp.contains(r#""kind":"oversized""#), "{resp}");
    // The connection is then closed.
    assert!(client.request_line(r#"{"op":"ping"}"#).is_err());

    // A fresh connection is unaffected.
    let mut fresh = Client::connect_tcp(addr).expect("connect");
    let pong = fresh.request_line(r#"{"op":"ping"}"#).expect("ping");
    assert!(pong.contains("pong"), "{pong}");
    listening.shutdown();
}

/// A client disconnecting mid-frame is a clean drop: the partial bytes
/// are never executed and the next request (from a new connection)
/// succeeds.
#[test]
fn mid_request_disconnects_drop_cleanly() {
    let listening = spawn_server(ServeOptions::default());
    let addr = listening.tcp_addr().expect("tcp endpoint");

    {
        let mut half = Client::connect_tcp(addr).expect("connect");
        half.send_raw(br#"{"op":"intern","html":"<h1>never completed"#)
            .expect("partial write");
        // Drop without ever sending the newline.
    }
    // And a half-line *with* other complete frames before it.
    {
        let mut half = Client::connect_tcp(addr).expect("connect");
        half.send_raw(b"{\"op\":\"ping\"}\n{\"op\":\"intern\",\"html\":\"<p>trunc")
            .expect("write");
        let pong = half.read_response_line().expect("first frame answered");
        assert!(pong.contains("pong"), "{pong}");
    }

    let mut client = Client::connect_tcp(addr).expect("connect");
    let resp = client
        .request_line(r#"{"id":7,"op":"intern","html":"<h1>ok</h1>"}"#)
        .expect("response");
    assert!(resp.contains(r#""ok""#), "{resp}");
    // The aborted interns never executed: this is the store's first page.
    assert!(resp.contains(r#""page":0"#), "{resp}");
    listening.shutdown();
}

/// Shutdown with an idle connection still open must return promptly and
/// close that connection (no leaked reader threads blocked forever).
#[test]
fn shutdown_closes_idle_connections_promptly() {
    let listening = spawn_server(ServeOptions::default());
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut idle = Client::connect_tcp(addr).expect("connect");
    let pong = idle.request_line(r#"{"op":"ping"}"#).expect("ping");
    assert!(pong.contains("pong"), "{pong}");

    // The connection stays open and idle across the shutdown.
    let start = std::time::Instant::now();
    listening.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown must not wait on idle connections"
    );
    // The idle client's stream was closed server-side.
    assert!(idle.request_line(r#"{"op":"ping"}"#).is_err());
}

/// The same protocol serves over a Unix domain socket.
#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("webqa_serve_api_{}.sock", std::process::id()));
    let listening = Server::new(ServeOptions::default())
        .listen(None, Some(&path))
        .expect("bind unix socket");
    let mut client = Client::connect_unix(&path).expect("connect");
    let pong = client
        .request_line(r#"{"id":5,"op":"ping"}"#)
        .expect("ping");
    assert_eq!(pong, r#"{"id":5,"ok":{"pong":true}}"#);

    let spec = &workload()[0];
    let resp = client.request_line(&spec.request(6)).expect("run");
    let want = format!("{{\"id\":6,\"ok\":{}}}", spec.cold_body());
    assert_eq!(resp, want, "unix transport diverged from the cold engine");

    listening.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Sharding must be observationally invisible: the same shuffled
/// concurrent streams served by a 4-shard engine and a 1-shard engine
/// produce byte-identical responses, and both match the cold,
/// never-cached reference.
#[test]
fn four_shards_are_byte_identical_to_one_shard_and_cold() {
    let specs = workload();
    let expected: Vec<String> = specs.iter().map(Spec::cold_body).collect();

    // Workers pinned to the shard count so the clamp (shards ≤ worker
    // budget) keeps the 4-shard server genuinely 4-sharded even on a
    // single-core machine.
    let spawn = |shards: usize| {
        spawn_server(ServeOptions {
            engine: engine_config(),
            max_frame_bytes: 1 << 20,
            shards,
            workers: shards,
            ..ServeOptions::default()
        })
    };
    let one = spawn(1);
    let four = spawn(4);
    let addr_one = one.tcp_addr().expect("tcp endpoint");
    let addr_four = four.tcp_addr().expect("tcp endpoint");

    const CLIENTS: usize = 3;
    const REPEATS: usize = 2;
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let (specs, expected) = (&specs, &expected);
            scope.spawn(move || {
                let mut c1 = Client::connect_tcp(addr_one).expect("connect 1-shard");
                let mut c4 = Client::connect_tcp(addr_four).expect("connect 4-shard");
                let n = specs.len();
                for k in 0..n * REPEATS {
                    // Same deterministic id on both servers, so the
                    // envelopes are comparable as whole strings.
                    let i = (client_idx + k * (client_idx + 1)) % n;
                    let id = (client_idx * 1000 + k) as u64;
                    let line = specs[i].request(id);
                    let r1 = c1.request_line(&line).expect("1-shard response");
                    let r4 = c4.request_line(&line).expect("4-shard response");
                    let want = format!("{{\"id\":{id},\"ok\":{}}}", expected[i]);
                    assert_eq!(r1, want, "1-shard diverged from cold (task {i})");
                    assert_eq!(r4, r1, "4-shard diverged from 1-shard (task {i})");
                }
            });
        }
    });
    one.shutdown();
    four.shutdown();
}

/// The per-shard stats breakdown must sum to the fleet totals reported
/// in the same response — workers, backlog, queue depth, inflight,
/// pages, and every cache counter.
#[test]
fn shard_stats_breakdown_sums_to_totals() {
    let specs = workload();
    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        max_frame_bytes: 1 << 20,
        workers: 6,
        backlog: 12,
        shards: 4,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    // Populate several shards: distinct pages spread by digest, plus a
    // run (twice, so the caches have nonzero counters to sum).
    for i in 0..8u64 {
        let resp = client
            .request_line(&format!(
                r#"{{"op":"intern","html":"<h1>S{i}</h1><p>page body {i}</p>"}}"#
            ))
            .expect("intern");
        assert!(resp.contains(r#""ok""#), "{resp}");
    }
    for id in [1, 2] {
        let resp = client.request_line(&specs[0].request(id)).expect("run");
        assert!(resp.contains(r#""ok""#), "{resp}");
    }

    let stats = client
        .request(&serde_json::from_str(r#"{"op":"stats"}"#).unwrap())
        .expect("stats");
    let ok = &stats["ok"];
    let shards = match &ok["shards"] {
        serde_json::Value::Array(a) => a,
        other => panic!("stats must carry a shards array, got {other:?}"),
    };
    assert_eq!(shards.len(), 4, "{stats:?}");

    let sum = |key: &str| -> u64 {
        shards
            .iter()
            .map(|s| s[key].as_u64().unwrap_or_else(|| panic!("{key} in {s:?}")))
            .sum()
    };
    for key in ["workers", "backlog", "queue_depth", "inflight", "pages"] {
        assert_eq!(
            Some(sum(key)),
            ok[key].as_u64(),
            "per-shard {key} must sum to the total: {stats:?}"
        );
    }
    assert!(ok["pages"].as_u64().unwrap() >= 8, "{stats:?}");
    // Every cache counter: the totals object defines the key set.
    let totals = match &ok["cache"] {
        serde_json::Value::Object(m) => m,
        other => panic!("cache totals must be an object, got {other:?}"),
    };
    for (key, total) in totals.iter() {
        // The tier-enabled flags are booleans, not counters: the total
        // is the OR (identical config across shards → identical flags).
        if let Some(flag) = total.as_bool() {
            for s in shards {
                assert_eq!(
                    s["cache"][key.as_str()].as_bool(),
                    Some(flag),
                    "per-shard cache.{key} flag must match the total: {stats:?}"
                );
            }
            continue;
        }
        let shard_sum: u64 = shards
            .iter()
            .map(|s| s["cache"][key.as_str()].as_u64().expect("cache counter"))
            .sum();
        assert_eq!(
            Some(shard_sum),
            total.as_u64(),
            "per-shard cache.{key} must sum to the total: {stats:?}"
        );
    }
    // The persist object is present (all-zero here: no --cache-dir).
    let persist = match &ok["persist"] {
        serde_json::Value::Object(m) => m,
        other => panic!("stats must carry a persist object, got {other:?}"),
    };
    for (key, value) in persist.iter() {
        assert_eq!(value.as_u64(), Some(0), "persist.{key} without a cache dir");
    }
    listening.shutdown();
}

/// The persistence gate, at the serving layer: a daemon serves a stream
/// with a cache dir, shuts down cleanly (spilling its pages and
/// base-feature tables), and a *restarted* daemon on the same directory
/// answers **different questions over the same pages** byte-identically
/// to the cold never-cached reference — while its stats prove the warm
/// start engaged (pages and base tables loaded from disk, base-tier
/// hits on the new questions).
#[test]
fn warm_restart_is_byte_identical_and_hits_the_base_tier() {
    let specs = workload();
    let dir = std::env::temp_dir().join(format!("webqa-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_opts = || ServeOptions {
        engine: engine_config(),
        max_frame_bytes: 1 << 20,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };

    // First daemon: the cross-query student stream (specs 0..3 share
    // their labeled pages), already byte-checked against the cold
    // reference. Shutdown spills the snapshot.
    {
        let listening = spawn_server(serve_opts());
        let addr = listening.tcp_addr().expect("tcp endpoint");
        let mut client = Client::connect_tcp(addr).expect("connect");
        for (i, spec) in specs.iter().take(3).enumerate() {
            let id = i as u64 + 1;
            let resp = client.request_line(&spec.request(id)).expect("run");
            assert_eq!(resp, format!("{{\"id\":{id},\"ok\":{}}}", spec.cold_body()));
        }
        listening.shutdown();
    }
    assert!(
        dir.join("snapshot-v1").is_dir(),
        "clean shutdown must leave a snapshot directory"
    );

    // A different question over the *same* pages the first daemon saw:
    // new query context, new query-tier key — only the base tier (NER
    // spans, structural masks) can carry over.
    let fresh = Spec {
        question: "Which students does the group page list?".to_string(),
        keywords: vec!["Students".to_string()],
        labeled: specs[0].labeled.clone(),
        targets: specs[2].targets.clone(),
    };

    // Second daemon, same directory: warm start.
    let listening = spawn_server(serve_opts());
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");
    let resp = client.request_line(&fresh.request(7)).expect("warm run");
    assert_eq!(
        resp,
        format!("{{\"id\":7,\"ok\":{}}}", fresh.cold_body()),
        "a warm restart must be observationally invisible"
    );

    let stats = client
        .request(&serde_json::from_str(r#"{"op":"stats"}"#).unwrap())
        .expect("stats");
    let persist = &stats["ok"]["persist"];
    assert!(
        persist["pages_loaded"].as_u64().unwrap_or(0) > 0,
        "restart must load pages from the snapshot: {stats:?}"
    );
    assert!(
        persist["base_loaded"].as_u64().unwrap_or(0) > 0,
        "restart must load base-feature tables: {stats:?}"
    );
    assert_eq!(
        persist["corrupt_skipped"].as_u64(),
        Some(0),
        "a clean snapshot has nothing to skip: {stats:?}"
    );
    assert!(
        stats["ok"]["cache"]["base_hits"].as_u64().unwrap_or(0) > 0,
        "the new question over known pages must hit the base tier: {stats:?}"
    );
    listening.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard routing is a pure function of page *content*: whatever order
/// pages are interned in, on whatever server, a page's shard (the wire
/// handle mod the shard count) depends only on its bytes.
mod shard_routing {
    use super::*;
    use proptest::prelude::*;

    fn intern(client: &mut Client, html: &str) -> u64 {
        let mut m = serde_json::Map::new();
        m.insert("op".to_string(), serde_json::json!("intern"));
        m.insert("html".to_string(), serde_json::json!(html));
        let resp = client
            .request(&serde_json::Value::Object(m))
            .expect("intern");
        resp["ok"]["page"].as_u64().expect("handle")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn shard_assignment_ignores_intern_order(
            contents in proptest::collection::vec(0u32..500, 1..12),
            rotate in 0usize..12,
        ) {
            let pages: Vec<String> = contents
                .iter()
                .map(|c| format!("<h1>R{c}</h1><p>content {c}</p>"))
                .collect();
            // A second order: reversed, then rotated.
            let mut other = pages.clone();
            other.reverse();
            let k = rotate % other.len();
            other.rotate_left(k);

            // 4 workers explicitly: the shard count clamps to the
            // worker budget (PR 9), and auto-workers resolves to the
            // core count — which may be below 4 on a small machine.
            let spawn = || {
                spawn_server(ServeOptions {
                    shards: 4,
                    workers: 4,
                    ..ServeOptions::default()
                })
            };
            let (a, b) = (spawn(), spawn());
            let mut ca = Client::connect_tcp(a.tcp_addr().unwrap()).expect("connect");
            let mut cb = Client::connect_tcp(b.tcp_addr().unwrap()).expect("connect");

            let mut shard_of = std::collections::HashMap::new();
            for p in &pages {
                shard_of.insert(p.clone(), intern(&mut ca, p) % 4);
            }
            for p in &other {
                prop_assert_eq!(
                    intern(&mut cb, p) % 4,
                    shard_of[p],
                    "page placement must not depend on intern order"
                );
            }
            a.shutdown();
            b.shutdown();
        }
    }
}

/// The HTTP/1.1 facade: the response body is the line-protocol envelope
/// byte for byte, whatever the shard count — and errors map to typed
/// status codes.
mod http_facade {
    use super::*;
    use webqa_server::HttpClient;

    fn spawn_http(opts: ServeOptions) -> Listening {
        Server::new(opts)
            .listen_all(None, None, Some("127.0.0.1:0"))
            .expect("bind http loopback")
    }

    /// POST /v1/run at 1 and 4 shards: status 200, body identical to the
    /// line-protocol envelope (and hence to the cold engine), keep-alive
    /// across requests on one connection.
    #[test]
    fn run_over_http_is_byte_identical_across_shard_counts() {
        let specs = workload();
        let expected: Vec<String> = specs.iter().take(3).map(Spec::cold_body).collect();
        for shards in [1usize, 4] {
            // Workers pinned to the shard count so the clamp (shards ≤
            // worker budget) keeps this genuinely multi-shard even on a
            // single-core machine.
            let listening = spawn_http(ServeOptions {
                engine: engine_config(),
                max_frame_bytes: 1 << 20,
                shards,
                workers: shards,
                ..ServeOptions::default()
            });
            let addr = listening.http_addr().expect("http endpoint");
            let mut client = HttpClient::connect(addr).expect("connect");
            for (i, want_body) in expected.iter().enumerate() {
                let id = i as u64 + 1;
                let (status, body) = client
                    .post("/v1/run", &specs[i].request(id))
                    .expect("http run");
                assert_eq!(status, 200, "{body}");
                assert_eq!(
                    body,
                    format!("{{\"id\":{id},\"ok\":{want_body}}}"),
                    "HTTP body diverged from the line protocol at {shards} shard(s)"
                );
            }
            // Keep-alive held: ping still answers on the same connection.
            let (status, body) = client.get("/v1/ping").expect("ping");
            assert_eq!((status, body.contains("pong")), (200, true), "{body}");
            listening.shutdown();
        }
    }

    /// `check` over HTTP: POST-routed like the other request-bearing
    /// ops, and the body is the line protocol's envelope — static
    /// analysis without any engine state.
    #[test]
    fn check_routes_over_http() {
        let listening = spawn_http(ServeOptions {
            engine: Config::default(),
            ..ServeOptions::default()
        });
        let addr = listening.http_addr().expect("http endpoint");
        let mut client = HttpClient::connect(addr).expect("connect");
        let (status, body) = client
            .post(
                "/v1/check",
                r#"{"program":"sat(root, kw(0.60)) -> content","keywords":["Students"]}"#,
            )
            .expect("check");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""clean":true"#), "{body}");
        let (status, body) = client.get("/v1/check").expect("wrong method");
        assert_eq!(status, 405, "{body}");
        listening.shutdown();
    }

    /// Typed errors map onto HTTP status codes: 400 bad frame, 404
    /// unknown path / unknown page, 405 wrong method, 413 oversized,
    /// 422 damaged page, 504 expired deadline.
    #[test]
    fn error_kinds_map_to_status_codes() {
        let listening = spawn_http(ServeOptions {
            engine: engine_config(),
            max_frame_bytes: 1 << 20,
            ..ServeOptions::default()
        });
        let addr = listening.http_addr().expect("http endpoint");
        let mut client = HttpClient::connect(addr).expect("connect");

        let (status, body) = client.post("/v1/run", "{not json").expect("bad body");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(r#""kind":"bad-frame""#), "{body}");

        let (status, body) = client.get("/v1/nope").expect("bad path");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("unknown path"), "{body}");

        let (status, body) = client.get("/v1/run").expect("bad method");
        assert_eq!(status, 405, "{body}");

        let (status, body) = client
            .post("/v1/intern", r#"{"html":"<p>50&bogus;mg</p>"}"#)
            .expect("damaged page");
        assert_eq!(status, 422, "{body}");
        assert!(body.contains(r#""kind":"page""#), "{body}");

        let (status, body) = client
            .post(
                "/v1/run",
                r#"{"question":"Q","labeled":[{"page":99999,"gold":[]}]}"#,
            )
            .expect("unknown page");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains(r#""kind":"unknown-page""#), "{body}");

        let spec = &workload()[0];
        let line = spec.request(9);
        let doomed = format!(r#"{{"deadline_ms":0,{}"#, &line[1..]);
        let (status, body) = client.post("/v1/run", &doomed).expect("expired deadline");
        assert_eq!(status, 504, "{body}");
        assert!(body.contains(r#""kind":"deadline-exceeded""#), "{body}");

        listening.shutdown();

        // Oversized bodies: their own server (tiny frame cap), 413.
        let listening = spawn_http(ServeOptions {
            engine: Config::default(),
            max_frame_bytes: 256,
            ..ServeOptions::default()
        });
        let addr = listening.http_addr().expect("http endpoint");
        let mut client = HttpClient::connect(addr).expect("connect");
        let huge = format!(r#"{{"html":"{}"}}"#, "x".repeat(4096));
        let (status, body) = client.post("/v1/intern", &huge).expect("oversized");
        assert_eq!(status, 413, "{body}");
        assert!(body.contains(r#""kind":"oversized""#), "{body}");
        listening.shutdown();
    }

    /// Writes raw bytes to the facade and reads until the server closes
    /// the connection — the whole point of these tests is to see what a
    /// framing-hostile client gets back, so no HttpClient in between.
    fn raw_http(addr: std::net::SocketAddr, request: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut buf = String::new();
        stream.read_to_string(&mut buf).expect("read to close");
        buf
    }

    /// The facade frames by `Content-Length` only; a request that makes
    /// the body boundary ambiguous must be refused with a closing
    /// response, never half-parsed. Otherwise the body bytes would be
    /// read as the *next* request on the keep-alive connection — the
    /// smuggled `GET /v1/ping` below must never produce a second
    /// response.
    #[test]
    fn ambiguous_framing_is_refused_and_never_smuggles() {
        let listening = spawn_http(ServeOptions {
            engine: Config::default(),
            ..ServeOptions::default()
        });
        let addr = listening.http_addr().expect("http endpoint");

        // Transfer-Encoding (chunked or otherwise): 411, connection
        // closed with the chunked body unread.
        let reply = raw_http(
            addr,
            "POST /v1/check HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             1c\r\nGET /v1/ping HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 411 Length Required"), "{reply}");
        assert!(reply.contains(r#""kind":"bad-frame""#), "{reply}");
        assert_eq!(
            reply.matches("HTTP/1.1 ").count(),
            1,
            "smuggled request must not be answered: {reply}"
        );

        // Duplicate Content-Length (even self-consistent): 400, closed.
        // Under last-wins parsing the zero-length reading would leave
        // the pipelined ping to be served as a second request.
        let reply = raw_http(
            addr,
            "POST /v1/check HTTP/1.1\r\nContent-Length: 26\r\nContent-Length: 0\r\n\r\n\
             GET /v1/ping HTTP/1.1\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request"), "{reply}");
        assert!(reply.contains("duplicate Content-Length"), "{reply}");
        assert_eq!(
            reply.matches("HTTP/1.1 ").count(),
            1,
            "smuggled request must not be answered: {reply}"
        );

        // The refusals poisoned nothing: a clean request still works.
        let mut client = HttpClient::connect(addr).expect("connect");
        let (status, body) = client.get("/v1/ping").expect("ping");
        assert_eq!((status, body.contains("pong")), (200, true), "{body}");
        listening.shutdown();
    }
}

/// Protocol fuzz over pipelined connections: random interleavings of
/// valid ops, `run_batch`, deadline-carrying runs, malformed JSON, and
/// mid-frame disconnects. Two invariants, whatever the interleaving:
/// every frame gets exactly one response whose `id` echoes the request
/// (ids compare as multisets — pipelined responses arrive in completion
/// order, not request order), and the server never wedges (a fresh
/// connection always answers a ping afterwards).
mod protocol_fuzz {
    use super::*;
    use proptest::prelude::*;

    /// The fields of a small, fast `run` request (inline pages, so the
    /// server is self-contained per case).
    const TINY_RUN_FIELDS: &str = r#""question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]"#;

    /// Renders frame kind `kind` with request id `id`, returning the
    /// line and the id the response must echo (`None` = JSON null, for
    /// frames too broken to carry one).
    fn frame(kind: u8, id: u64) -> (String, Option<u64>) {
        match kind {
            0 => (format!(r#"{{"id":{id},"op":"ping"}}"#), Some(id)),
            1 => (
                format!(
                    r#"{{"id":{id},"op":"intern","html":"<h1>P{}</h1><p>x</p>"}}"#,
                    id % 5
                ),
                Some(id),
            ),
            2 => (format!(r#"{{"id":{id},"op":"stats"}}"#), Some(id)),
            3 => (
                format!(r#"{{"id":{id},"op":"run",{TINY_RUN_FIELDS}}}"#),
                Some(id),
            ),
            4 => (
                format!(
                    r#"{{"id":{id},"op":"run_batch","tasks":[{{{TINY_RUN_FIELDS}}},{{{TINY_RUN_FIELDS}}}]}}"#
                ),
                Some(id),
            ),
            // An already-expired deadline: typed deadline-exceeded, id
            // still echoed, engine untouched.
            5 => (
                format!(r#"{{"id":{id},"op":"run","deadline_ms":0,{TINY_RUN_FIELDS}}}"#),
                Some(id),
            ),
            // Malformed JSON: bad-frame with a null id.
            6 => (format!("{{not json {id}"), None),
            // Well-formed but invalid request: typed error, id echoed.
            _ => (
                format!(r#"{{"id":{id},"op":"run","question":7}}"#),
                Some(id),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn pipelined_interleavings_echo_ids_and_never_wedge(
            script_a in proptest::collection::vec(0u8..8, 1..12),
            script_b in proptest::collection::vec(0u8..8, 1..12),
        ) {
            let listening = spawn_server(ServeOptions {
                engine: engine_config(),
                workers: 2,
                backlog: 4,
                ..ServeOptions::default()
            });
            let addr = listening.tcp_addr().expect("tcp endpoint");

            // A mid-frame disconnect racing the scripted connections: a
            // complete frame, then a torn-off partial one.
            {
                let mut half = Client::connect_tcp(addr).expect("connect");
                half.send_raw(b"{\"op\":\"ping\"}\n{\"op\":\"run\",\"question\":\"trunc")
                    .expect("partial write");
            }

            let next_id = AtomicU64::new(1);
            std::thread::scope(|scope| {
                for script in [&script_a, &script_b] {
                    let next_id = &next_id;
                    scope.spawn(move || {
                        let mut client = Client::connect_tcp(addr).expect("connect");
                        let mut want: Vec<Option<u64>> = Vec::new();
                        // Pipeline the whole script without reading.
                        for &kind in script {
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            let (line, echo) = frame(kind, id);
                            client.send_line(&line).expect("send");
                            want.push(echo);
                        }
                        // Exactly one response per frame, ids matching as
                        // a multiset (completion order is not request
                        // order under pipelining).
                        let mut got: Vec<Option<u64>> = (0..script.len())
                            .map(|_| {
                                let resp = client.read_response_line().expect("response");
                                let v: serde_json::Value =
                                    serde_json::from_str(&resp).expect("valid envelope");
                                v["id"].as_u64()
                            })
                            .collect();
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "response ids must echo request ids");
                    });
                }
            });

            // The server survived the whole interleaving.
            let mut probe = Client::connect_tcp(addr).expect("connect after fuzz");
            let pong = probe.request_line(r#"{"op":"ping"}"#).expect("ping");
            prop_assert!(pong.contains("pong"), "{}", pong);
            listening.shutdown();
        }
    }
}

/// Real-page ingestion round-trip: the digests `webqa-cli import` prints
/// for the checked-in sample pages are byte-identical to the `"digest"`
/// field the server's `intern` op returns for the same bytes — over the
/// line protocol *and* the HTTP facade. One content-addressing scheme,
/// three doors.
mod ingestion_round_trip {
    use super::*;
    use webqa_server::HttpClient;

    /// The checked-in sample pages (`tests/fixtures/pages/`), sorted by
    /// file name exactly like `import` walks them.
    fn sample_pages() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("fixtures")
            .join("pages");
        let mut pages: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("sample page directory")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "html"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                let html = std::fs::read_to_string(&p).expect("readable page");
                (name, html)
            })
            .collect();
        pages.sort();
        assert!(pages.len() >= 2, "expected checked-in sample pages");
        pages
    }

    /// The `file: digest XXXX [..]` lines of an `import` run, as
    /// `(file, digest)` pairs.
    fn import_digests(out: &str) -> Vec<(String, String)> {
        out.lines()
            .filter_map(|l| {
                let (name, rest) = l.split_once(": digest ")?;
                let digest = rest.split_whitespace().next()?;
                Some((name.to_string(), digest.to_string()))
            })
            .collect()
    }

    #[test]
    fn import_digests_match_server_intern_over_both_transports() {
        let pages = sample_pages();

        // CLI side: import the directory through the normal PageStore
        // path (strict — the sample pages are sloppy but undamaged).
        let dir = format!("{}/tests/fixtures/pages", env!("CARGO_MANIFEST_DIR"));
        let out = webqa_cli::dispatch(&["import", &dir]).expect("sample pages import cleanly");
        let cli = import_digests(&out);
        assert_eq!(cli.len(), pages.len(), "one digest line per page:\n{out}");

        // Server side: the same bytes through `intern`, on both doors.
        let listening = Server::new(ServeOptions {
            engine: engine_config(),
            max_frame_bytes: 1 << 20,
            ..ServeOptions::default()
        })
        .listen_all(Some("127.0.0.1:0"), None, Some("127.0.0.1:0"))
        .expect("bind loopback");
        let mut line =
            Client::connect_tcp(listening.tcp_addr().expect("tcp endpoint")).expect("connect tcp");
        let mut http =
            HttpClient::connect(listening.http_addr().expect("http endpoint")).expect("connect");

        for ((name, html), (cli_name, cli_digest)) in pages.iter().zip(&cli) {
            assert_eq!(name, cli_name, "import must walk files in sorted order");
            let mut req = serde_json::Map::new();
            req.insert("op".to_string(), serde_json::json!("intern"));
            req.insert("html".to_string(), serde_json::json!(html.clone()));
            let req = serde_json::to_string(&serde_json::Value::Object(req)).unwrap();

            let resp = line.request_line(&req).expect("line-protocol intern");
            let v: serde_json::Value = serde_json::from_str(&resp).expect("valid envelope");
            assert_eq!(
                v["ok"]["digest"].as_str(),
                Some(cli_digest.as_str()),
                "{name}: line-protocol digest diverged from `import`: {resp}"
            );

            let (status, body) = http.post("/v1/intern", &req).expect("http intern");
            assert_eq!(status, 200, "{name}: {body}");
            let v: serde_json::Value = serde_json::from_str(&body).expect("valid envelope");
            assert_eq!(
                v["ok"]["digest"].as_str(),
                Some(cli_digest.as_str()),
                "{name}: HTTP digest diverged from `import`: {body}"
            );
        }
        listening.shutdown();
    }
}
