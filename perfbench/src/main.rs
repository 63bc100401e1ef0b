//! The WebQA benchmark of record.
//!
//! ```text
//! perfbench --workload <corpus-batch|serve-open|serve-repeat> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The run prints each metric by
//! name with its unit, checks the program's outputs, and ends with one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits non-zero when any output is wrong
//! or any operation failed. `LAYER_MAP.md` next to this package explains
//! the workloads, the metrics and which layer each one reads.

mod corpus_batch;
mod loadgen;
mod pipeline;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `corpus-batch` scale: pages per task and labeled pages among them.
    pub pages: usize,
    pub train: usize,
}

const WORKLOADS: [&str; 3] = ["corpus-batch", "serve-open", "serve-repeat"];

/// The end-to-end metrics `BENCHMARK.json` gates, with their units.
/// Every workload reports each of them; `LAYER_MAP.md` says what each
/// one measures on each workload.
pub const GATED: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_cost", "probes"),
    ("test_f1", "ratio"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0; the report says so.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("html.parse_us", "us"),
    ("html.mb_per_s", "MB/s"),
    ("prepare.ms", "ms"),
    ("features.base_ms", "ms"),
    ("features.query_ms", "ms"),
    ("cache.base_hit_rate", "ratio"),
    ("cache.feature_hit_rate", "ratio"),
    ("synth.ms", "ms"),
    ("synth.guards_yielded", "count"),
    ("synth.locators_expanded", "count"),
    ("synth.extractors_enumerated", "count"),
    ("synth.extractors_pruned", "count"),
    ("synth.analysis_pruned_guards", "count"),
    ("synth.analysis_pruned_locators", "count"),
    ("synth.analysis_pruned_extractors", "count"),
    ("synth.locator_memo_hits", "count"),
    ("synth.memo_hits", "count"),
    ("synth.extractor_prune_rate", "ratio"),
    ("synth.locator_memo_rate", "ratio"),
    ("select.ms", "ms"),
    ("select.ensemble_programs", "count"),
    ("select.behaviour_groups", "count"),
    ("answers.ms", "ms"),
    ("op.check.p50_ms", "ms"),
    ("cache.result_hit_rate", "ratio"),
    ("op.run_hit.p50_ms", "ms"),
    ("store.pages", "count"),
    ("persist.load_ms", "ms"),
    ("persist.pages_loaded", "count"),
    ("persist.corrupt_skipped", "count"),
    ("op.ping.p50_ms", "ms"),
    ("op.intern.p50_ms", "ms"),
    ("op.run.p50_ms", "ms"),
    ("server.shed", "count"),
    ("server.deadline_exceeded", "count"),
    ("server.errors", "count"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.late_p99_ms", "ms"),
    ("check.counts_divergent", "count"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let (mut pages, mut train) = (corpus_batch::PAGES, corpus_batch::TRAIN);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--pages" => pages = number()? as usize,
            "--train" => train = number()? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if train == 0 || train >= pages {
        return Err(format!(
            "--train {train} must be at least 1 and below --pages {pages}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pages,
        train,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let started = Instant::now();
    let mut report = Report::default();
    match args.workload.as_str() {
        "corpus-batch" => corpus_batch::run(&args, &mut report),
        "serve-open" => serve::run_open(&args, &mut report),
        _ => serve::run_repeat(&args, &mut report),
    }
    let wall = started.elapsed().as_secs_f64();

    report.e2e("peak_rss_mb", stats::peak_rss_mb(), "MiB", None);
    report.e2e("error_rate", report.error_rate(), "ratio", None);
    if args.trace {
        let divergent = report.divergent() as f64;
        report.layer("check.counts_divergent", divergent, "count");
        finish_trace(&args, &mut report, wall);
    }

    println!("workload: {}", args.workload);
    println!(
        "{}",
        stats::provenance(&args.workload, args.seed, args.seconds, report.scale_text())
    );
    print!("{}", report.render());
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let m = report.layers().iter().find(|m| m.name == name);
                (name, m.map_or(0.0, |m| m.value), unit)
            })
            .collect()
    } else {
        GATED
            .iter()
            .map(|&(name, unit)| (name, report.gated(name).unwrap_or(0.0), unit))
            .collect()
    };
    println!("gated end-to-end (BENCHMARK.json):");
    for (name, unit) in GATED {
        println!(
            "  {name:<24} {:>14.6} {unit}",
            report.gated(name).unwrap_or(0.0)
        );
    }
    let line = report.json_line(&metrics);
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the spans out, prints the self-time table and the tracing
/// overhead, and names the layers this workload did not exercise.
fn finish_trace(args: &Args, report: &mut Report, wall: f64) {
    let spans = trace::spans();
    let cost = trace::cost_per_span();
    let overhead = spans.len() as f64 * cost.as_secs_f64();
    report.note(format!(
        "tracing overhead: {} spans x {:.0} ns = {:.4} s, {:.4}% of the {wall:.2} s run",
        spans.len(),
        cost.as_nanos(),
        overhead,
        100.0 * overhead / wall.max(1e-9)
    ));
    report.note(format!(
        "self time per span:\n{}",
        trace::self_time_table(&spans)
    ));
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(&spans)))
    {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written ({e})")),
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !report.layers().iter().any(|m| m.name == *name))
        .collect();
    if !missing.is_empty() {
        report.note(format!(
            "not exercised by this workload (reported as 0): {}",
            missing.join(", ")
        ));
    }
}
