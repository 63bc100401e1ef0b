//! The overload & cancellation harness for the bounded serving layer.
//!
//! PR 6 replaced thread-per-connection execution with a fixed worker
//! pool behind a bounded admission queue, plus per-request deadlines
//! enforced cooperatively inside the synthesis enumerator. This harness
//! pins the three behaviors that make that architecture trustworthy:
//!
//! * **Shedding is prompt and typed.** With every worker busy and the
//!   backlog full, excess requests get an `overloaded` error in
//!   milliseconds — they never hang, never queue, and never disturb the
//!   admitted requests, whose responses stay byte-identical to a cold,
//!   never-cached engine.
//! * **Deadlines bound latency, queue wait included.** A request whose
//!   budget expires — mid-synthesis or while still queued — returns a
//!   typed `deadline-exceeded` promptly, far sooner than the full run
//!   would take, and leaves the engine unpoisoned.
//! * **Cancellation is isolated.** On one pipelined connection, a
//!   deadline-killed request changes nothing about its neighbors:
//!   their responses remain byte-identical to the cold reference.

use std::time::{Duration, Instant};

use webqa::{CacheConfig, CancelToken, Config, Engine, SynthConfig, Task};
use webqa_corpus::{task_by_id, Corpus};
use webqa_server::{render_run_result, Client, Listening, ServeOptions, Server};

/// Paper-scale synthesis: heavy enough that a corpus task occupies a
/// worker for ~a second (the "slow request"), while tiny inline pages
/// (the "probes") still answer fast.
fn engine_config() -> Config {
    Config {
        synth: SynthConfig::paper(),
        ..Config::default()
    }
}

/// One request spec: wire fields plus everything needed to replay it on
/// a cold local engine.
#[derive(Clone)]
struct Spec {
    question: String,
    keywords: Vec<String>,
    labeled: Vec<(String, Vec<String>)>,
    targets: Vec<String>,
}

impl Spec {
    fn request_fields(&self) -> String {
        let mut m = serde_json::Map::new();
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
        let all = serde_json::to_string(&serde_json::Value::Object(m)).expect("serializable");
        // Strip the outer braces so callers can splice in id/deadline.
        all[1..all.len() - 1].to_string()
    }

    fn request(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}}}", self.request_fields())
    }

    fn request_with_deadline(&self, id: u64, deadline_ms: u64) -> String {
        format!(
            "{{\"id\":{id},\"deadline_ms\":{deadline_ms},{}}}",
            self.request_fields()
        )
    }

    /// The `ok` body a cold, never-cached, single-threaded engine
    /// computes, rendered through the server's own code path.
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

/// A slow request: a corpus task at paper scale (~1 s of synthesis).
/// Distinct seeds give distinct pages, so no two slow requests share a
/// result-cache entry.
fn slow_spec(seed: u64) -> Spec {
    let task = task_by_id("conf_t3").expect("catalogue task");
    let corpus = Corpus::generate(4, seed);
    let data = corpus.dataset(task, 2);
    Spec {
        question: task.question.to_string(),
        keywords: task.keywords.iter().map(|k| k.to_string()).collect(),
        labeled: data.train.into_iter().map(|p| (p.html, p.gold)).collect(),
        targets: data.test.into_iter().map(|p| p.html).collect(),
    }
}

/// A tiny probe request (single small inline page): answers in
/// milliseconds even at paper scale. `variant` varies the content so
/// distinct probes miss the result cache.
fn probe_spec(variant: u64) -> Spec {
    Spec {
        question: "Who are the PhD students?".to_string(),
        keywords: vec!["Students".to_string()],
        labeled: vec![(
            format!("<h1>A{variant}</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>"),
            vec!["Jane Doe".to_string()],
        )],
        targets: vec![format!(
            "<h1>B{variant}</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"
        )],
    }
}

/// Interns one page through the wire, returning its handle.
fn intern(client: &mut Client, html: &str) -> u64 {
    let mut m = serde_json::Map::new();
    m.insert("op".to_string(), serde_json::json!("intern"));
    m.insert("html".to_string(), serde_json::json!(html));
    let resp = client
        .request(&serde_json::Value::Object(m))
        .expect("intern");
    resp["ok"]["page"].as_u64().expect("handle")
}

impl Spec {
    /// Interns this spec's pages up front and returns a handle-based
    /// `run` request — the high-throughput client pattern. Inline-HTML
    /// requests intern during classification, which briefly serializes
    /// against in-flight synthesis (the engine's write lock); handle
    /// requests classify lock-free, so admission control (queueing,
    /// shedding) is exercised without that coupling.
    fn wired_request(&self, client: &mut Client, id: u64) -> String {
        let labeled: Vec<serde_json::Value> = self
            .labeled
            .iter()
            .map(|(html, gold)| {
                let mut e = serde_json::Map::new();
                e.insert("page".to_string(), serde_json::json!(intern(client, html)));
                e.insert("gold".to_string(), serde_json::json!(gold.clone()));
                serde_json::Value::Object(e)
            })
            .collect();
        let targets: Vec<u64> = self.targets.iter().map(|h| intern(client, h)).collect();
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
        m.insert("labeled".to_string(), serde_json::Value::Array(labeled));
        m.insert("targets".to_string(), serde_json::json!(targets));
        serde_json::to_string(&serde_json::Value::Object(m)).expect("serializable")
    }
}

fn spawn_server(opts: ServeOptions) -> Listening {
    Server::new(opts)
        .listen(Some("127.0.0.1:0"), None)
        .expect("bind loopback")
}

fn stats(addr: std::net::SocketAddr) -> serde_json::Value {
    let mut c = Client::connect_tcp(addr).expect("connect");
    c.request(&serde_json::from_str(r#"{"op":"stats"}"#).unwrap())
        .expect("stats")
}

/// The headline test: saturate a 2-worker server, fill its backlog of
/// 2, and hammer it with probes. The probes shed promptly with typed
/// `overloaded` errors; the four admitted requests complete
/// byte-identical to the cold reference; the drained server then
/// serves a fresh request normally and shuts down cleanly.
#[test]
fn saturated_server_sheds_promptly_and_admitted_requests_stay_exact() {
    // The first two seeds feed the workers and must keep them busy for
    // seconds (corpus seeds vary: these two measure ~3 s at paper
    // scale); the last two only need to sit in the backlog, so fast
    // seeds keep the drain phase short.
    let slow: Vec<Spec> = [4u64, 7, 3, 9].into_iter().map(slow_spec).collect();
    let slow_cold: Vec<String> = slow.iter().map(Spec::cold_body).collect();
    let drain_probe = probe_spec(0);
    let drain_cold = drain_probe.cold_body();

    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        workers: 2,
        backlog: 2,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");

    // Pre-intern every page while the server is idle, so the
    // saturation and probe phases classify lock-free (handle-based
    // requests) and admission control is what's being measured.
    let mut setup = Client::connect_tcp(addr).expect("connect");
    let slow_requests: Vec<String> = slow
        .iter()
        .enumerate()
        .map(|(i, s)| s.wired_request(&mut setup, i as u64 + 1))
        .collect();
    let probe_requests: Vec<String> = (0..6u64)
        .map(|i| probe_spec(100 + i).wired_request(&mut setup, 100 + i))
        .collect();

    // Saturate in two deterministic steps (sent without reading, so
    // nothing blocks). First occupy both workers and *watch them start*
    // via the `inflight` stat — pushing all four at once could race the
    // workers' pops and shed a slow request instead of a probe.
    let mut slow_conns: Vec<Client> = Vec::new();
    for req in &slow_requests[..2] {
        let mut c = Client::connect_tcp(addr).expect("connect");
        c.send_line(req).expect("send");
        slow_conns.push(c);
    }
    let t0 = Instant::now();
    loop {
        let s = stats(addr);
        let inflight = s["ok"]["inflight"].as_u64().unwrap();
        let depth = s["ok"]["queue_depth"].as_u64().unwrap();
        if inflight == 2 && depth == 0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "workers never picked up the slow pair (inflight {inflight}, depth {depth})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Then fill the backlog: 2 more slow requests, both queued.
    for req in &slow_requests[2..] {
        let mut c = Client::connect_tcp(addr).expect("connect");
        c.send_line(req).expect("send");
        slow_conns.push(c);
    }
    let t0 = Instant::now();
    loop {
        let depth = stats(addr)["ok"]["queue_depth"].as_u64().unwrap();
        if depth == 2 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "backlog never filled (queue_depth {depth})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Burst 6 probes on one pipelined connection. Every one must shed:
    // both workers are seconds away from finishing their runs and the
    // backlog is full.
    let mut prober = Client::connect_tcp(addr).expect("connect");
    let burst = Instant::now();
    for req in &probe_requests {
        prober.send_line(req).expect("send probe");
    }
    for _ in 0..6 {
        let resp = prober.read_response_line().expect("shed response");
        assert!(
            resp.contains(r#""kind":"overloaded""#),
            "expected a shed, got: {resp}"
        );
    }
    assert!(
        burst.elapsed() < Duration::from_secs(2),
        "shedding must be prompt, took {:?}",
        burst.elapsed()
    );

    // Every admitted request completes byte-identical to the cold,
    // never-cached reference — overload changed nothing about them.
    for (i, mut conn) in slow_conns.into_iter().enumerate() {
        let resp = conn.read_response_line().expect("slow response");
        let want = format!("{{\"id\":{},\"ok\":{}}}", i + 1, slow_cold[i]);
        assert_eq!(resp, want, "admitted request {i} diverged under overload");
    }

    // Drained: a fresh request is served normally, and the counters
    // show exactly the 6 sheds (which also count as errors).
    let mut fresh = Client::connect_tcp(addr).expect("connect");
    let resp = fresh
        .request_line(&drain_probe.request(200))
        .expect("drained response");
    assert_eq!(resp, format!("{{\"id\":200,\"ok\":{drain_cold}}}"));
    let s = stats(addr);
    assert_eq!(s["ok"]["shed"].as_u64(), Some(6), "{s:?}");
    assert_eq!(s["ok"]["deadline_exceeded"].as_u64(), Some(0), "{s:?}");
    assert_eq!(s["ok"]["queue_depth"].as_u64(), Some(0), "{s:?}");
    assert!(s["ok"]["errors"].as_u64().unwrap() >= 6, "{s:?}");

    let t = Instant::now();
    listening.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "drained server must shut down promptly"
    );
}

/// Deadlines bound latency from *frame arrival*: one expires
/// mid-synthesis, one expires while still queued behind a busy worker —
/// both come back `deadline-exceeded`, both promptly.
#[test]
fn deadlines_cover_synthesis_and_queue_wait() {
    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        workers: 1,
        backlog: 4,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");

    // Mid-synthesis: a ~1 s run under a 150 ms budget aborts early.
    let mut c = Client::connect_tcp(addr).expect("connect");
    let t0 = Instant::now();
    let resp = c
        .request_line(&slow_spec(7).request_with_deadline(1, 150))
        .expect("response");
    let elapsed = t0.elapsed();
    assert!(
        resp.contains(r#""kind":"deadline-exceeded""#),
        "expected a deadline trip, got: {resp}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must abort the run well before it completes, took {elapsed:?}"
    );

    // Queue wait counts: occupy the single worker with a slow run, then
    // pipeline a *tiny* probe with a 50 ms budget behind it. The probe
    // expires in the queue and is never synthesized.
    let mut busy = Client::connect_tcp(addr).expect("connect");
    busy.send_line(&slow_spec(8).request(2)).expect("send");
    // Give the worker a moment to pick the slow job up.
    std::thread::sleep(Duration::from_millis(100));
    let mut queued = Client::connect_tcp(addr).expect("connect");
    let resp = queued
        .request_line(&probe_spec(1).request_with_deadline(3, 50))
        .expect("response");
    assert!(
        resp.contains(r#""kind":"deadline-exceeded""#),
        "a budget spent queueing must still trip: {resp}"
    );
    let resp = busy.read_response_line().expect("slow response");
    assert!(
        resp.contains(r#""ok""#),
        "the slow run itself is fine: {resp}"
    );

    let s = stats(addr);
    assert_eq!(s["ok"]["deadline_exceeded"].as_u64(), Some(2), "{s:?}");
    assert_eq!(s["ok"]["shed"].as_u64(), Some(0), "{s:?}");
    listening.shutdown();
}

/// Cancellation is isolated: on one pipelined connection, a
/// deadline-killed request leaves its neighbors byte-identical to the
/// cold reference — before it, after it, and on the same engine.
#[test]
fn pipelined_deadline_failure_leaves_neighbors_byte_identical() {
    let a = probe_spec(10);
    let c = probe_spec(11);
    let (a_cold, c_cold) = (a.cold_body(), c.cold_body());

    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        workers: 2,
        backlog: 8,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    // Pipeline: fast A, doomed B (a slow run under an immediate
    // deadline), fast C — all in flight at once.
    client.send_line(&a.request(1)).expect("send");
    client
        .send_line(&slow_spec(9).request_with_deadline(2, 1))
        .expect("send");
    client.send_line(&c.request(3)).expect("send");

    // Responses arrive in completion order; collect all three by id.
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..3 {
        let resp = client.read_response_line().expect("response");
        let v: serde_json::Value = serde_json::from_str(&resp).expect("envelope");
        by_id.insert(v["id"].as_u64().expect("numeric id"), resp);
    }
    assert!(
        by_id[&2].contains(r#""kind":"deadline-exceeded""#),
        "{}",
        by_id[&2]
    );
    assert_eq!(by_id[&1], format!("{{\"id\":1,\"ok\":{a_cold}}}"));
    assert_eq!(by_id[&3], format!("{{\"id\":3,\"ok\":{c_cold}}}"));

    // The doomed task, rerun without a deadline, is also exact: the
    // cancelled attempt cached nothing.
    let full = slow_spec(9);
    let full_cold = full.cold_body();
    let resp = client.request_line(&full.request(4)).expect("response");
    assert_eq!(resp, format!("{{\"id\":4,\"ok\":{full_cold}}}"));
    listening.shutdown();
}

/// The bounded-serving contract survives sharding: on a 4-shard server,
/// handle-based requests resolve interleaved wire handles, a batch
/// whose pages live on *different* shards comes back in input order
/// byte-identical to the cold reference, and deadlines still trip with
/// typed errors that leave the engines unpoisoned.
#[test]
fn four_shard_wire_handles_batches_and_deadlines_stay_exact() {
    let specs = [probe_spec(30), probe_spec(31), probe_spec(32)];
    let colds: Vec<String> = specs.iter().map(Spec::cold_body).collect();

    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        workers: 4,
        backlog: 8,
        shards: 4,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    // Intern every page up front: handles are shard-interleaved
    // (handle % 4 is the owning shard). The workload must actually be
    // cross-shard for the test to mean anything.
    let mut handles: Vec<Vec<(Vec<u64>, Vec<u64>)>> = Vec::new();
    for spec in &specs {
        let labeled: Vec<u64> = spec
            .labeled
            .iter()
            .map(|(html, _)| intern(&mut client, html))
            .collect();
        let targets: Vec<u64> = spec
            .targets
            .iter()
            .map(|h| intern(&mut client, h))
            .collect();
        handles.push(vec![(labeled, targets)]);
    }
    let shards_touched: std::collections::HashSet<u64> = handles
        .iter()
        .flat_map(|v| v.iter())
        .flat_map(|(l, t)| l.iter().chain(t.iter()))
        .map(|h| h % 4)
        .collect();
    assert!(
        shards_touched.len() > 1,
        "workload must span shards, got {shards_touched:?}"
    );

    // Handle-based single runs: byte-identical to cold.
    let wired = |spec: &Spec, (labeled, targets): &(Vec<u64>, Vec<u64>), id: u64| {
        let lab: Vec<serde_json::Value> = labeled
            .iter()
            .zip(&spec.labeled)
            .map(|(&h, (_, gold))| {
                let mut e = serde_json::Map::new();
                e.insert("page".to_string(), serde_json::json!(h));
                e.insert("gold".to_string(), serde_json::json!(gold.clone()));
                serde_json::Value::Object(e)
            })
            .collect();
        let mut m = serde_json::Map::new();
        if id > 0 {
            m.insert("id".to_string(), serde_json::json!(id));
        }
        m.insert("op".to_string(), serde_json::json!("run"));
        m.insert(
            "question".to_string(),
            serde_json::json!(spec.question.clone()),
        );
        m.insert(
            "keywords".to_string(),
            serde_json::json!(spec.keywords.clone()),
        );
        m.insert("labeled".to_string(), serde_json::Value::Array(lab));
        m.insert("targets".to_string(), serde_json::json!(targets.clone()));
        serde_json::to_string(&serde_json::Value::Object(m)).expect("serializable")
    };
    for (i, spec) in specs.iter().enumerate() {
        let resp = client
            .request_line(&wired(spec, &handles[i][0], i as u64 + 1))
            .expect("run");
        let want = format!("{{\"id\":{},\"ok\":{}}}", i + 1, colds[i]);
        assert_eq!(resp, want, "sharded handle run {i} diverged from cold");
    }

    // A cross-shard batch: tasks homed on different shards execute
    // per-shard and reassemble in input order, byte-identical to cold.
    let tasks: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| wired(spec, &handles[i][0], 0))
        .collect();
    let resp = client
        .request_line(&format!(
            "{{\"id\":10,\"op\":\"run_batch\",\"tasks\":[{}]}}",
            tasks.join(",")
        ))
        .expect("batch response");
    let want = format!("{{\"id\":10,\"ok\":{{\"results\":[{}]}}}}", colds.join(","));
    assert_eq!(resp, want, "cross-shard batch diverged from cold");

    // An already-expired deadline on a sharded run: typed error, and the
    // task rerun afterwards is still exact (nothing was poisoned).
    let line = wired(&specs[0], &handles[0][0], 11);
    let doomed = format!("{{\"deadline_ms\":0,{}", &line[1..]);
    let resp = client.request_line(&doomed).expect("doomed response");
    assert!(
        resp.contains(r#""kind":"deadline-exceeded""#),
        "expected a deadline trip, got: {resp}"
    );
    let resp = client
        .request_line(&wired(&specs[0], &handles[0][0], 12))
        .expect("rerun");
    assert_eq!(resp, format!("{{\"id\":12,\"ok\":{}}}", colds[0]));

    let s = stats(addr);
    assert_eq!(s["ok"]["deadline_exceeded"].as_u64(), Some(1), "{s:?}");
    assert_eq!(s["ok"]["shed"].as_u64(), Some(0), "{s:?}");
    listening.shutdown();
}

/// `run_batch` over the wire matches per-task `run` responses
/// byte-for-byte and occupies one worker slot for the whole batch.
#[test]
fn run_batch_matches_per_task_runs_over_the_wire() {
    let specs = [probe_spec(20), probe_spec(21), probe_spec(22)];
    let colds: Vec<String> = specs.iter().map(Spec::cold_body).collect();

    let listening = spawn_server(ServeOptions {
        engine: engine_config(),
        workers: 2,
        backlog: 8,
        ..ServeOptions::default()
    });
    let addr = listening.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");

    let tasks: Vec<String> = specs
        .iter()
        .map(|s| format!("{{{}}}", s.request_fields()))
        .collect();
    let resp = client
        .request_line(&format!(
            "{{\"id\":1,\"op\":\"run_batch\",\"tasks\":[{}]}}",
            tasks.join(",")
        ))
        .expect("batch response");
    let want = format!("{{\"id\":1,\"ok\":{{\"results\":[{}]}}}}", colds.join(","));
    assert_eq!(resp, want, "batch results diverged from the cold engine");
    listening.shutdown();
}
