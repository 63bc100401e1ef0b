//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into one of
//! the program's layers: name, start, end, the span that caused it, and
//! the task or request id it belongs to. Spans stay in memory and are
//! written out once, when the run ends. With tracing off, opening a span
//! costs one relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    tracer();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(tracer().epoch).as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` for task or request `id`; its parent is the
/// innermost span open on this thread.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let start_ns = since_epoch(Instant::now());
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let index = {
        let mut spans = tracer().spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard(Some(index))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end_ns = since_epoch(Instant::now());
            OPEN.with(|open| open.borrow_mut().pop());
            if let Ok(mut spans) = tracer().spans.lock() {
                spans[index].end_ns = end_ns;
            }
        }
    }
}

/// Records a span whose interval was measured elsewhere (a request's due
/// time to its response), with no parent.
pub fn record(name: &'static str, start: Instant, end: Instant, id: u64) {
    if !enabled() {
        return;
    }
    let span = Span {
        name,
        start_ns: since_epoch(start),
        end_ns: since_epoch(end),
        parent: None,
        id,
    };
    tracer()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .push(span);
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    tracer()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .clone()
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Per span: the part of its interval that its children cover
/// (children are recorded on the parent's thread, so they nest and do
/// not overlap one another).
fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut cover = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            cover[p] += end.saturating_sub(start);
        }
    }
    cover
}

/// Total and self time per span name, in milliseconds, with counts.
pub fn self_time_table(spans: &[Span]) -> String {
    let cover = child_cover_ns(spans);
    let mut rows: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&cover) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += s.duration_ns().saturating_sub(*c);
    }
    let mut out = String::from("span                     count     total_ms      self_ms\n");
    for (name, (count, total, own)) in rows {
        let _ = writeln!(
            out,
            "{name:<22} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out
}

/// Share of the time of the spans named `outer` that their children
/// cover.
pub fn coverage(spans: &[Span], outer: &str) -> f64 {
    let cover = child_cover_ns(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for (s, c) in spans.iter().zip(&cover) {
        if s.name == outer {
            covered += c;
            total += s.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.id
        );
    }
    out
}

/// Measured cost of opening and closing one span on this machine, so a
/// traced run can state its own overhead. Call it after the run: the
/// calibration spans are dropped again afterwards.
pub fn cost_per_span() -> Duration {
    const N: u32 = 20_000;
    let before = tracer()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .len();
    let t0 = Instant::now();
    for i in 0..N {
        let _g = span("trace.calibrate", u64::from(i));
    }
    let cost = t0.elapsed() / N;
    tracer()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .truncate(before);
    cost
}
