//! `serve-open` and `serve-repeat`: an in-process daemon (2 workers,
//! 1 shard, default caches) behind one pipelined TCP connection of the
//! line protocol, driven open-loop at fixed absolute rates.
//!
//! * `serve-open`: every `run` is a distinct small corpus task (6 pages
//!   of one domain from its own corpus seed, 2 labeled, 4 targets) whose
//!   pages were interned during set-up, so each request pays for full
//!   synthesis and none hits the result or feature tier.
//! * `serve-repeat`: a daemon restarted from the snapshot an earlier
//!   daemon wrote during set-up, serving about 80% `run` repeats of a
//!   warmed 50-task working set (each corpus task twice, over pages of
//!   its own; result-tier hits), 10% `intern` of
//!   fresh corpus pages, 5% `check` of programs returned during warm-up
//!   and 5% `ping`.
//!
//! Each rung also times the process CPU its requests cost, daemon and
//! generator together (`cpu_ms_per_op`); over the probe's CPU time that
//! is the gated `op_cost`. Latencies are printed but not gated: on a
//! shared machine a compute-bound request's latency tracks the
//! machine's load as much as the program's cost.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::Value;
use webqa::{content_digest, score_answers, Config, Engine, PageTree};
use webqa_corpus::{generate_pages, GeneratedPage, Task as CorpusTask, TASKS};
use webqa_server::{protocol::envelope, render_run_result, Listening, ServeOptions, Server};

use crate::loadgen::{self, body_after_id, Connection, Outcome, Request};
use crate::pipeline::{report_layers, run_staged, SynthAgg};
use crate::probe::Probe;
use crate::report::Report;
use crate::stats::{mean, median, process_cpu_s, Rng};
use crate::trace::{self, span};
use crate::Args;

const WORKERS: usize = 2;
const PAGES: usize = 6;
const TRAIN: usize = 2;
/// `serve-repeat`'s working set: every corpus task twice. What a cache
/// hit costs depends on the task and its pages; over 50 tasks that cost,
/// and `test_f1`, vary less from seed to seed than over 25.
const WORKING_SET: usize = 2 * TASKS.len();
/// `setup_s` is the median of several set-ups. `serve-open` repeats its
/// cheap set-up after every rung, with no request in flight;
/// `serve-repeat`'s synthesizes the whole working set each time, so it
/// runs three.
const OPEN_SETUPS_PER_RUNG: usize = 3;
const REPEAT_SETUPS: usize = 3;
/// How long after its last due time a rung waits for stragglers.
const DRAIN: Duration = Duration::from_secs(10);

/// `serve-open` rate ladder (req/s): the first rung is `lo`, the last
/// `hi`. The median request costs about 240 ms of synthesis on one
/// core, so two workers serve about 8 req/s.
const OPEN_RUNGS: [f64; 3] = [2.5, 4.0, 5.0];
/// `serve-open` latency limit on each rung's supported tail percentile.
const OPEN_SLO_MS: f64 = 2000.0;
/// How many `serve-open` responses are checked against an in-process
/// engine.
const OPEN_REFERENCE_SAMPLE: usize = 6;

/// `serve-repeat` rate ladder (req/s). Each response line is written as
/// two writes without `TCP_NODELAY`, so its newline waits for the
/// client's ACK. From about 25 req/s up the client delays that ACK until
/// its next frame (or the 40 ms timer), so latency tracks the send
/// interval: the `lo` rung at 30 req/s shows the stall in the tens of
/// milliseconds, the `hi` rung at 200 req/s shows it at its smallest.
/// Below about 25 req/s the kernel acknowledges at once and hides it.
/// The `hi` rung stays well inside capacity: at 400 req/s a stall of the
/// machine as short as 160 ms fills the admission queue (backlog 64)
/// and the daemon sheds requests.
const REPEAT_RUNGS: [f64; 3] = [30.0, 100.0, 200.0];
/// `serve-repeat` latency limit on each rung's supported tail.
const REPEAT_SLO_MS: f64 = 100.0;

fn options(cache_dir: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        shards: 1,
        cache_dir,
        ..ServeOptions::default()
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&Value::String(s.to_string())).expect("strings serialize")
}

fn json_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(","))
}

/// One small corpus task over pages interned on the daemon.
struct SmallTask {
    task: &'static CorpusTask,
    pages: Vec<GeneratedPage>,
    /// Wire handles of `pages`, aligned.
    handles: Vec<u64>,
}

impl SmallTask {
    fn new(task: &'static CorpusTask, corpus_seed: u64) -> SmallTask {
        SmallTask {
            task,
            pages: generate_pages(task.domain, PAGES, corpus_seed),
            handles: Vec::new(),
        }
    }

    fn gold(&self, i: usize) -> Vec<String> {
        self.pages[i].gold(self.task.id).to_vec()
    }

    fn test_gold(&self) -> Vec<Vec<String>> {
        (TRAIN..self.pages.len()).map(|i| self.gold(i)).collect()
    }

    /// The `run` request body (without id) referencing interned handles.
    fn run_body(&self) -> String {
        let keywords: Vec<String> = self.task.keywords.iter().map(|k| k.to_string()).collect();
        let labeled: Vec<String> = (0..TRAIN)
            .map(|i| {
                format!(
                    "{{\"page\":{},\"gold\":{}}}",
                    self.handles[i],
                    json_list(&self.gold(i))
                )
            })
            .collect();
        let targets: Vec<String> = self.handles[TRAIN..].iter().map(u64::to_string).collect();
        format!(
            "\"op\":\"run\",\"question\":{},\"keywords\":{},\"labeled\":[{}],\"targets\":[{}]",
            json_str(self.task.question),
            json_list(&keywords),
            labeled.join(","),
            targets.join(",")
        )
    }

    /// Interns the pages through the protocol, in-process, and keeps
    /// their handles.
    fn intern(&mut self, server: &Server, report: &mut Report) {
        self.handles.clear();
        for (i, page) in self.pages.iter().enumerate() {
            let _s = span("html.intern", i as u64);
            let line = server.handle_line(&format!(
                "{{\"op\":\"intern\",\"html\":{}}}",
                json_str(&page.html)
            ));
            match serde_json::from_str::<Value>(&line)
                .ok()
                .and_then(|v| v["ok"]["page"].as_u64())
            {
                Some(h) => self.handles.push(h),
                None => report.fail(format!("interning {}: {line}", page.name)),
            }
        }
    }

    /// The expected response: the rendering of a fresh in-process
    /// engine's run of the same task, through the staged public API.
    fn reference(&self, id: u64, agg: &mut SynthAgg) -> Result<String, String> {
        let mut engine = Engine::new(Config::default());
        let mut ids = Vec::new();
        for p in &self.pages {
            ids.push(
                engine
                    .store_mut()
                    .insert_html(&p.html)
                    .map_err(|e| e.to_string())?,
            );
        }
        let task = webqa::Task::from_id_split(
            self.task.question,
            self.task.keywords.iter().copied(),
            &ids,
            TRAIN,
            |i| self.gold(i),
        );
        let (result, _) = run_staged(&engine, &task, id, agg).map_err(|e| e.to_string())?;
        Ok(envelope(
            serde_json::json!(id),
            Ok(render_run_result(&result)),
        ))
    }
}

/// The answers of a `run` response, or `None` when it is not `ok`.
fn answers_of(line: &str) -> Option<Vec<Vec<String>>> {
    let v: Value = serde_json::from_str(line).ok()?;
    let answers = v["ok"]["answers"].as_array()?;
    answers
        .iter()
        .map(|a| {
            a.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .collect()
}

/// The corpus task behind `serve-open` request `i`: every 25 consecutive
/// requests cover all 25 tasks, in an order that spreads each domain over
/// the cycle. The order is the same for every seed, so a rung that ends
/// mid-cycle has the same task mix on every run; the seed varies the
/// pages.
fn task_type(i: usize) -> usize {
    (i * 7) % TASKS.len()
}

/// A daemon listening on an OS-assigned loopback port.
fn listen(server: Server) -> (Listening, SocketAddr) {
    let listening = server
        .listen(Some("127.0.0.1:0"), None)
        .expect("binding a loopback port");
    let addr = listening.tcp_addr().expect("tcp endpoint");
    (listening, addr)
}

/// Evenly spaced due times for `rate` req/s over `secs` seconds.
fn schedule(rate: f64, secs: f64) -> Vec<Duration> {
    let n = (rate * secs).round().max(1.0) as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// One rung's verdict and summary.
struct Rung {
    rate: f64,
    outcomes: Vec<Outcome>,
    failed: usize,
    /// Process CPU time from the first send to the last response: the
    /// daemon's threads and the generator's together, less the probe's.
    cpu_s: f64,
}

/// Probe runs before each rung and after the last, while the daemon is
/// idle; the sender also samples it between sends where the rate leaves
/// time.
const PROBES_PER_RUNG: usize = 100;

/// Sends one rung's requests on `conn` and times the process CPU they
/// cost, less the probe's.
fn run_rung(conn: &mut Connection, rate: f64, requests: &[Request], probe: &mut Probe) -> Rung {
    probe.sample(PROBES_PER_RUNG);
    let (cpu0, probe0) = (process_cpu_s(), probe.total_s());
    let outcomes = conn.run(requests, DRAIN, Some(&mut *probe));
    Rung {
        rate,
        outcomes,
        failed: 0,
        cpu_s: process_cpu_s() - cpu0 - (probe.total_s() - probe0),
    }
}

impl Rung {
    fn summary(&self, kind: Option<&str>) -> loadgen::Summary {
        let picked: Vec<&Outcome> = self
            .outcomes
            .iter()
            .filter(|o| kind.is_none_or(|k| o.kind == k))
            .collect();
        loadgen::summarize(&picked)
    }

    /// Whether the rung meets the latency limit with nothing failed and
    /// completions keeping pace with sends: every response arrived within
    /// one rung duration of its due time.
    fn meets(&self, slo_ms: f64, secs: f64) -> bool {
        let s = self.summary(None);
        let answered = self.outcomes.iter().filter(|o| o.latency.is_some()).count();
        let keeps_pace = self
            .outcomes
            .iter()
            .filter_map(|o| o.latency)
            .all(|l| l.as_secs_f64() < secs.max(1.0));
        self.failed == 0 && answered == self.outcomes.len() && s.tail_ms <= slo_ms && keeps_pace
    }
}

/// Prints the rung table and reports the ladder's end-to-end metrics.
fn report_rungs(
    report: &mut Report,
    rungs: &[Rung],
    probe: &Probe,
    slo_ms: f64,
    secs: f64,
    kinds: &[&str],
) {
    for r in rungs {
        let s = r.summary(None);
        let mut line = format!(
            "rung {:>6.1} req/s: n={} p50={:.3} ms p{}={:.3} ms cpu={:.3} ms/req failed={} late_p99={:.3} ms meets_slo={}",
            r.rate,
            s.samples,
            s.p50_ms,
            s.tail_pct,
            s.tail_ms,
            r.cpu_s * 1e3 / r.outcomes.len().max(1) as f64,
            r.failed,
            loadgen::late_p99_ms(&r.outcomes),
            r.meets(slo_ms, secs)
        );
        for k in kinds {
            let ks = r.summary(Some(k));
            if ks.samples > 0 {
                line.push_str(&format!(" | {k}: n={} p50={:.3} ms", ks.samples, ks.p50_ms));
            }
        }
        report.note(line);
    }
    let (lo, hi) = (rungs[0].summary(None), rungs[rungs.len() - 1].summary(None));
    let latencies_ms = |rungs: &[Rung]| -> Vec<f64> {
        rungs
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter_map(|o| o.latency)
            .map(|l| l.as_secs_f64() * 1e3)
            .collect()
    };
    let (all, lo_ms) = (latencies_ms(rungs), latencies_ms(&rungs[..1]));
    report.e2e("lat_p50_ms.all", median(&all), "ms", Some(all.len()));
    report.e2e("lat_mean_ms.all", mean(&all), "ms", Some(all.len()));
    report.e2e("lat_mean_ms.lo", mean(&lo_ms), "ms", Some(lo_ms.len()));
    let requests: usize = rungs.iter().map(|r| r.outcomes.len()).sum();
    let cpu_ms = rungs.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / requests.max(1) as f64;
    report.op_cost(cpu_ms, requests, probe);
    report.e2e("lat_p50_ms.lo", lo.p50_ms, "ms", Some(lo.samples));
    report.e2e("lat_p50_ms.hi", hi.p50_ms, "ms", Some(hi.samples));
    for (rung, s) in [("lo", &lo), ("hi", &hi)] {
        if s.tail_pct > 50.0 {
            report.e2e(
                &format!("lat_p{}_ms.{rung}", s.tail_pct),
                s.tail_ms,
                "ms",
                Some(s.samples),
            );
        }
    }
    let max_rps = rungs
        .iter()
        .take_while(|r| r.meets(slo_ms, secs))
        .last()
        .map_or(0.0, |r| r.rate);
    report.e2e("max_rps_slo", max_rps, "req/s", None);
    report.note(format!(
        "latency limit: supported tail percentile <= {slo_ms} ms; ladder {:?} req/s",
        rungs.iter().map(|r| r.rate).collect::<Vec<_>>()
    ));
}

/// Reads the daemon's `stats` op into per-layer metrics.
fn report_stats(report: &mut Report, conn: &mut Connection, id: u64) {
    let Some(line) = conn.call(id, "stats", "\"op\":\"stats\"", DRAIN) else {
        report.fail("stats: no response".into());
        return;
    };
    let v: Value = match serde_json::from_str(&line) {
        Ok(v) => v,
        Err(e) => {
            report.fail(format!("stats: {e}"));
            return;
        }
    };
    let ok = &v["ok"];
    let n = |v: &Value| v.as_f64().unwrap_or(0.0);
    let cache = &ok["cache"];
    let rate = |hits: &str, misses: &str| {
        let (h, m) = (n(&cache[hits]), n(&cache[misses]));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    report.layer(
        "cache.result_hit_rate",
        rate("result_hits", "result_misses"),
        "ratio",
    );
    report.layer(
        "cache.base_hit_rate",
        rate("base_hits", "base_misses"),
        "ratio",
    );
    report.layer(
        "cache.feature_hit_rate",
        rate("feature_hits", "feature_misses"),
        "ratio",
    );
    report.layer("store.pages", n(&ok["pages"]), "count");
    report.layer("persist.load_ms", n(&ok["persist"]["load_ms"]), "ms");
    report.layer(
        "persist.pages_loaded",
        n(&ok["persist"]["pages_loaded"]),
        "count",
    );
    report.layer(
        "persist.corrupt_skipped",
        n(&ok["persist"]["corrupt_skipped"]),
        "count",
    );
    report.layer("server.shed", n(&ok["shed"]), "count");
    report.layer(
        "server.deadline_exceeded",
        n(&ok["deadline_exceeded"]),
        "count",
    );
    report.layer("server.errors", n(&ok["errors"]), "count");
    report.note(format!("stats: {line}"));
}

fn report_generator(report: &mut Report, rungs: &[Rung]) {
    let all: Vec<&Outcome> = rungs.iter().flat_map(|r| &r.outcomes).collect();
    let ok = all
        .iter()
        .filter(|o| {
            o.response
                .as_deref()
                .is_some_and(|l| l.contains(",\"ok\":"))
        })
        .count();
    report.layer("gen.sent", all.len() as f64, "count");
    report.layer("gen.ok", ok as f64, "count");
    report.layer("gen.late_p99_ms", loadgen::late_p99_ms(all), "ms");
}

pub fn run_open(args: &Args, report: &mut Report) {
    let secs = args.seconds as f64 / OPEN_RUNGS.len() as f64;
    let mut rng = Rng::new(args.seed);
    let plan: Vec<Vec<Duration>> = OPEN_RUNGS.iter().map(|&r| schedule(r, secs)).collect();
    let total: usize = plan.iter().map(Vec::len).sum();
    report.scale(format!(
        "requests={total} distinct tasks, pages={PAGES} train={TRAIN} per task, rungs={OPEN_RUNGS:?} req/s x {secs:.1} s, \
         workers={WORKERS} shards=1 connection=1 pipelined, seed={}",
        args.seed
    ));
    let corpus_seeds: Vec<u64> = (0..total).map(|_| rng.next_u64()).collect();

    // Set-up: generate every request's pages, start the daemon, intern.
    let set_up = |report: &mut Report| {
        let t0 = Instant::now();
        let server = Server::new(options(None));
        let mut tasks: Vec<SmallTask> = (0..total)
            .map(|i| SmallTask::new(&TASKS[task_type(i)], corpus_seeds[i]))
            .collect();
        for t in &mut tasks {
            t.intern(&server, report);
        }
        let (listening, addr) = listen(server);
        (listening, addr, tasks, t0.elapsed().as_secs_f64())
    };
    // The daemon that serves the run is the first set-up; the others
    // are repeated after each rung, so `setup_s` samples the machine at
    // several points of the run.
    let (listening, addr, tasks, first_s) = set_up(report);
    let mut setup_s = vec![first_s];
    let mut set_up_again = |report: &mut Report| {
        for _ in 0..OPEN_SETUPS_PER_RUNG {
            let (spare, _, _, s) = set_up(report);
            spare.shutdown();
            setup_s.push(s);
        }
    };

    let mut conn = Connection::connect(addr).expect("connecting to the daemon");
    let mut next = 0usize;
    let mut probe = Probe::new();
    let mut rungs = Vec::new();
    for (rate, dues) in OPEN_RUNGS.iter().zip(&plan) {
        let requests: Vec<Request> = dues
            .iter()
            .map(|&due| {
                let i = next;
                next += 1;
                Request::new(i as u64, "run", due, &tasks[i].run_body())
            })
            .collect();
        rungs.push(run_rung(&mut conn, *rate, &requests, &mut probe));
        set_up_again(report);
    }
    probe.sample(PROBES_PER_RUNG);
    report.setup(&setup_s);
    report_stats(report, &mut conn, total as u64);
    conn.close();
    listening.shutdown();

    // Checks: every response is ok and scored against generator gold; a
    // fixed sample must equal an in-process engine's rendering.
    let mut sample = Rng::new(args.seed ^ 0x00c0_ffee).permutation(total);
    sample.truncate(OPEN_REFERENCE_SAMPLE);
    let mut f1s = Vec::new();
    let mut agg = SynthAgg::default();
    for rung in &mut rungs {
        for o in &rung.outcomes {
            let i = o.id as usize;
            let Some(line) = &o.response else {
                rung.failed += 1;
                report.fail(format!("run {i}: no response within the drain time"));
                continue;
            };
            match answers_of(line) {
                Some(answers) => match score_answers(&answers, &tasks[i].test_gold()) {
                    Ok(s) => f1s.push(s.f1),
                    Err(e) => {
                        rung.failed += 1;
                        report.fail(format!("run {i}: {e}"));
                    }
                },
                None => {
                    rung.failed += 1;
                    report.fail(format!("run {i}: {line}"));
                }
            }
            if sample.contains(&i) {
                match tasks[i].reference(o.id, &mut agg) {
                    Ok(expected) => match compare(line, &expected) {
                        Match::Same => {}
                        Match::CountsOnly => {
                            report.diverged(format!("run {i}: {line} vs in-process {expected}"))
                        }
                        Match::Different => {
                            rung.failed += 1;
                            report.fail(format!("run {i}: response differs from the in-process engine: {line} vs {expected}"));
                        }
                    },
                    Err(e) => report.fail(format!("run {i}: reference engine: {e}")),
                }
            }
        }
    }
    report.attempted(total as u64);
    report.e2e("test_f1", mean(&f1s), "ratio", Some(f1s.len()));
    report.gate("test_f1", mean(&f1s));
    report_rungs(report, &rungs, &probe, OPEN_SLO_MS, secs, &["run"]);
    report.note(format!(
        "{} responses checked byte for byte against an in-process engine",
        sample.len()
    ));

    if trace::enabled() {
        let page_bytes: usize = tasks
            .iter()
            .flat_map(|t| &t.pages)
            .map(|p| p.html.len())
            .sum();
        report_layers(report, page_bytes * setup_s.len(), &agg);
        let runs: Vec<&Outcome> = rungs[0].outcomes.iter().collect();
        report.layer("op.run.p50_ms", loadgen::summarize(&runs).p50_ms, "ms");
        report_generator(report, &rungs);
    }
}

/// The `serve-repeat` daemon after set-up: restarted from a snapshot
/// and warmed, with the warm-up responses every repeat must equal.
struct Warm {
    listening: Listening,
    conn: Connection,
    tasks: Vec<SmallTask>,
    /// Warm-up `run` response per task.
    runs: Vec<String>,
    /// Distinct programs returned during warm-up, with their task and
    /// `check` response.
    checks: Vec<(usize, String, String)>,
}

/// Starts a daemon on `dir`, interns the working set's pages through the
/// protocol and runs every task once, pipelined. Returns the daemon,
/// its connection and the responses.
fn start_and_warm(
    dir: &std::path::Path,
    tasks: &mut [SmallTask],
    next_id: &mut u64,
    report: &mut Report,
) -> (Listening, Connection, Vec<String>) {
    let server = Server::new(options(Some(dir.to_path_buf())));
    for t in tasks.iter_mut() {
        t.intern(&server, report);
    }
    let (listening, addr) = listen(server);
    let mut conn = Connection::connect(addr).expect("connecting to the daemon");
    let requests: Vec<Request> = tasks
        .iter()
        .map(|t| {
            *next_id += 1;
            Request::new(*next_id, "warm", Duration::ZERO, &t.run_body())
        })
        .collect();
    let runs = conn
        .run(&requests, Duration::from_secs(60), None)
        .into_iter()
        .map(|o| o.response.unwrap_or_default())
        .collect();
    (listening, conn, runs)
}

/// A first daemon warms the working set and writes its snapshot to
/// `dir` at shutdown. Returns the tasks and that daemon's responses.
fn write_snapshot(
    dir: &std::path::Path,
    rng: &mut Rng,
    next_id: &mut u64,
    report: &mut Report,
) -> (Vec<SmallTask>, Vec<String>) {
    let _ = std::fs::remove_dir_all(dir);
    let mut tasks: Vec<SmallTask> = (0..WORKING_SET)
        .map(|i| SmallTask::new(&TASKS[i % TASKS.len()], rng.next_u64()))
        .collect();
    let (first, conn, runs) = start_and_warm(dir, &mut tasks, next_id, report);
    conn.close();
    first.shutdown();
    (tasks, runs)
}

/// Set-up of `serve-repeat`: a daemon starts from the snapshot in `dir`
/// and is warmed. Returns it and the time its start, snapshot load and
/// warm-up took.
fn restart_and_warm(
    dir: &std::path::Path,
    mut tasks: Vec<SmallTask>,
    first_runs: &[String],
    next_id: &mut u64,
    report: &mut Report,
) -> (Warm, f64) {
    let t0 = Instant::now();
    let (listening, mut conn, runs) = start_and_warm(dir, &mut tasks, next_id, report);
    let mut programs: Vec<(usize, String)> = Vec::new();
    for (i, (line, before)) in runs.iter().zip(first_runs).enumerate() {
        match compare(line, before) {
            Match::Same => {}
            Match::CountsOnly => report.diverged(format!(
                "task {i}: restarted {line} vs first daemon {before}"
            )),
            Match::Different => report.fail(format!(
                "task {i}: warm restart changed the response: {line} vs {before}"
            )),
        }
        let program = serde_json::from_str::<Value>(line)
            .ok()
            .and_then(|v| v["ok"]["program"].as_str().map(str::to_string));
        match program {
            Some(p) if !programs.iter().any(|(_, q)| *q == p) => programs.push((i, p)),
            Some(_) => {}
            None if line.contains(",\"ok\":") => {}
            None => report.fail(format!("task {i}: warm-up failed: {line}")),
        }
    }
    let requests: Vec<Request> = programs
        .iter()
        .map(|(i, p)| {
            *next_id += 1;
            Request::new(*next_id, "warm", Duration::ZERO, &tasks[*i].check_body(p))
        })
        .collect();
    let checks = conn
        .run(&requests, DRAIN, None)
        .into_iter()
        .zip(programs)
        .map(|(o, (i, p))| (i, p, o.response.unwrap_or_default()))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let warm = Warm {
        listening,
        conn,
        tasks,
        runs,
        checks,
    };
    (warm, secs)
}

impl SmallTask {
    fn check_body(&self, program: &str) -> String {
        let keywords: Vec<String> = self.task.keywords.iter().map(|k| k.to_string()).collect();
        format!(
            "\"op\":\"check\",\"program\":{},\"question\":{},\"keywords\":{}",
            json_str(program),
            json_str(self.task.question),
            json_list(&keywords)
        )
    }
}

/// What a `serve-repeat` request must answer.
enum Expect {
    /// Byte-identical to this warm-up response after the id.
    Same(String),
    /// An `intern` answer with this digest and node count.
    Interned(String, usize),
    Pong,
}

pub fn run_repeat(args: &Args, report: &mut Report) {
    let secs = args.seconds as f64 / REPEAT_RUNGS.len() as f64;
    let mut rng = Rng::new(args.seed);
    let fresh_seed = rng.next_u64();
    let dir = std::path::Path::new("perfbench").join("out").join(format!(
        "snapshot-{}-{}",
        std::process::id(),
        args.seed
    ));
    report.scale(format!(
        "working set={WORKING_SET} tasks (pages={PAGES} train={TRAIN}, each its own corpus seed), mix=80% run hit/10% intern/5% check/5% ping, \
         rungs={REPEAT_RUNGS:?} req/s x {secs:.1} s, workers={WORKERS} shards=1 connection=1 pipelined, seed={}",
        args.seed
    ));

    let mut next_id = 0u64;
    let t0 = Instant::now();
    let (tasks, first_runs) = write_snapshot(&dir, &mut rng, &mut next_id, report);
    report.note(format!(
        "snapshot written by a first daemon in {:.3} s",
        t0.elapsed().as_secs_f64()
    ));
    let (mut warm, first_s) = restart_and_warm(&dir, tasks, &first_runs, &mut next_id, report);
    let mut setup_s = vec![first_s];
    for _ in 1..REPEAT_SETUPS {
        let Warm {
            listening,
            conn,
            tasks,
            ..
        } = warm;
        conn.close();
        listening.shutdown();
        let (w, s) = restart_and_warm(&dir, tasks, &first_runs, &mut next_id, report);
        setup_s.push(s);
        warm = w;
    }
    let Warm {
        listening,
        mut conn,
        tasks,
        runs,
        checks,
    } = warm;
    report.setup(&setup_s);

    // The measured schedule, its inputs and expected answers. The fresh
    // pages cycle through the domains; `fresh` pages in all.
    let rolls: Vec<Vec<(Duration, usize)>> = REPEAT_RUNGS
        .iter()
        .map(|&rate| {
            schedule(rate, secs)
                .into_iter()
                .map(|due| (due, rng.below(100)))
                .collect()
        })
        .collect();
    let checks_possible = !checks.is_empty();
    let is_intern = |roll: usize| checks_possible && (80..90).contains(&roll);
    let fresh = rolls
        .iter()
        .flatten()
        .filter(|(_, roll)| is_intern(*roll))
        .count();
    let domains = webqa_corpus::Domain::ALL;
    let pools: Vec<Vec<GeneratedPage>> = domains
        .iter()
        .enumerate()
        .map(|(d, &domain)| {
            generate_pages(
                domain,
                fresh.saturating_sub(d).div_ceil(domains.len()),
                fresh_seed,
            )
        })
        .collect();
    let mut interned = 0usize;
    let mut plans = Vec::new();
    for (&rate, rung_rolls) in REPEAT_RUNGS.iter().zip(&rolls) {
        let mut plan = Vec::new();
        for &(due, roll) in rung_rolls {
            next_id += 1;
            let (kind, body, expect) = if roll < 80 || !checks_possible {
                let t = rng.below(tasks.len());
                ("run", tasks[t].run_body(), Expect::Same(runs[t].clone()))
            } else if is_intern(roll) {
                let page = &pools[interned % domains.len()][interned / domains.len()];
                interned += 1;
                let expect = match digest_of(&page.html) {
                    Some((d, n)) => Expect::Interned(d, n),
                    None => {
                        report.fail(format!("fresh page {} does not parse", page.name));
                        Expect::Pong
                    }
                };
                (
                    "intern",
                    format!("\"op\":\"intern\",\"html\":{}", json_str(&page.html)),
                    expect,
                )
            } else if roll < 95 {
                let (t, program, line) = &checks[rng.below(checks.len())];
                (
                    "check",
                    tasks[*t].check_body(program),
                    Expect::Same(line.clone()),
                )
            } else {
                ("ping", "\"op\":\"ping\"".to_string(), Expect::Pong)
            };
            plan.push((Request::new(next_id, kind, due, &body), expect));
        }
        plans.push((rate, plan));
    }

    let mut probe = Probe::new();
    let mut rungs = Vec::new();
    for (rate, plan) in plans {
        let (requests, expects): (Vec<Request>, Vec<Expect>) = plan.into_iter().unzip();
        let mut rung = run_rung(&mut conn, rate, &requests, &mut probe);
        for (o, expect) in rung.outcomes.iter().zip(&expects) {
            if let Err(why) = check_response(o, expect) {
                rung.failed += 1;
                report.fail(format!("{} {}: {why}", o.kind, o.id));
            }
        }
        report.attempted(rung.outcomes.len() as u64);
        rungs.push(rung);
    }
    probe.sample(PROBES_PER_RUNG);
    next_id += 1;
    report_stats(report, &mut conn, next_id);
    conn.close();
    listening.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // A fixed sample of the warm-up responses must equal an in-process
    // engine's rendering; the warm-up answers are scored against gold.
    let mut f1s = Vec::new();
    let mut agg = SynthAgg::default();
    for (i, (t, line)) in tasks.iter().zip(&runs).enumerate() {
        match answers_of(line).map(|a| score_answers(&a, &t.test_gold())) {
            Some(Ok(s)) => f1s.push(s.f1),
            _ => report.fail(format!("task {i}: warm-up answers do not score: {line}")),
        }
    }
    for i in Rng::new(args.seed ^ 0x00c0_ffee)
        .permutation(tasks.len())
        .into_iter()
        .take(3)
    {
        let id = loadgen::response_id(&runs[i]).unwrap_or(0);
        match tasks[i].reference(id, &mut agg) {
            Ok(expected) => match compare(&runs[i], &expected) {
                Match::Same => {}
                Match::CountsOnly => report.diverged(format!(
                    "task {i}: warm-up {} vs in-process {expected}",
                    runs[i]
                )),
                Match::Different => report.fail(format!(
                    "task {i}: warm-up differs from the in-process engine: {} vs {expected}",
                    runs[i]
                )),
            },
            Err(e) => report.fail(format!("task {i}: reference engine: {e}")),
        }
    }
    report.e2e("test_f1", mean(&f1s), "ratio", Some(f1s.len()));
    report.gate("test_f1", mean(&f1s));
    report_rungs(
        report,
        &rungs,
        &probe,
        REPEAT_SLO_MS,
        secs,
        &["run", "intern", "check", "ping"],
    );
    report.note(format!(
        "{} fresh pages interned; every hit compared byte for byte with its warm-up response",
        fresh
    ));

    if trace::enabled() {
        // The working set is interned once by the snapshot writer and
        // once per restart.
        let page_bytes: usize = tasks
            .iter()
            .flat_map(|t| &t.pages)
            .map(|p| p.html.len())
            .sum();
        report_layers(report, page_bytes * (1 + REPEAT_SETUPS), &agg);
        for (metric, kind) in [
            ("op.run_hit.p50_ms", "run"),
            ("op.intern.p50_ms", "intern"),
            ("op.check.p50_ms", "check"),
            ("op.ping.p50_ms", "ping"),
        ] {
            report.layer(metric, rungs[0].summary(Some(kind)).p50_ms, "ms");
        }
        report_generator(report, &rungs);
    }
}

/// How a response compares with the one it must equal.
#[derive(PartialEq)]
enum Match {
    Same,
    /// Equal except for the `counts` object of a `run` body: the token
    /// counts of one representative among optimal programs tied on F1,
    /// which the synthesizer currently picks in hash-map iteration order,
    /// so two engines can disagree on it for the same task. Counted and
    /// reported as a known defect of the program, not as a failure.
    CountsOnly,
    Different,
}

/// Compares two response lines byte for byte after their echoed ids.
fn compare(actual: &str, expected: &str) -> Match {
    match (body_after_id(actual), body_after_id(expected)) {
        (Some(a), Some(b)) if a == b => Match::Same,
        (Some(a), Some(b)) if without_counts(a) == without_counts(b) => Match::CountsOnly,
        _ => Match::Different,
    }
}

/// `body` with its `"counts":{...}` member (a flat object) cut out.
fn without_counts(body: &str) -> String {
    let Some(at) = body.find(",\"counts\":{") else {
        return body.to_string();
    };
    match body[at..].find('}') {
        Some(len) => format!("{}{}", &body[..at], &body[at + len + 1..]),
        None => body.to_string(),
    }
}

fn check_response(o: &Outcome, expect: &Expect) -> Result<(), String> {
    let line = o
        .response
        .as_deref()
        .ok_or("no response within the drain time")?;
    match expect {
        Expect::Same(warm) => {
            if compare(line, warm) == Match::Same {
                Ok(())
            } else {
                Err(format!("differs from warm-up: {line} vs {warm}"))
            }
        }
        Expect::Pong => {
            if line == format!("{{\"id\":{},\"ok\":{{\"pong\":true}}}}", o.id) {
                Ok(())
            } else {
                Err(format!("not a pong: {line}"))
            }
        }
        Expect::Interned(digest, nodes) => {
            let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
            let ok = &v["ok"];
            if ok["digest"].as_str() == Some(digest.as_str())
                && ok["nodes"].as_u64() == Some(*nodes as u64)
            {
                Ok(())
            } else {
                Err(format!(
                    "expected digest {digest} and {nodes} nodes: {line}"
                ))
            }
        }
    }
}

/// Content digest (16 hex digits) and node count of a strictly parsed
/// page, as `intern` reports them.
fn digest_of(html: &str) -> Option<(String, usize)> {
    let tree = PageTree::try_parse(html).ok()?;
    Some((format!("{:016x}", content_digest(&tree)), tree.len()))
}
