//! The staged pipeline as the benchmark drives it, with a span around
//! each call into a layer, and the per-layer metrics read from those
//! spans and from the synthesis statistics.

use std::time::Instant;

use webqa::{CacheStats, Engine, RunResult, Task};
use webqa_synth::{PageBaseFeatures, PageFeatures, SynthStats};

use crate::report::Report;
use crate::stats::{median, process_cpu_s};
use crate::trace::{self, span};

/// Runs `task` through prepare → synthesize → select → answers on
/// `engine`, inside a `task` span with one child span per stage.
/// Returns the result and the wall and process CPU time of the four
/// stages.
pub fn run_staged(
    engine: &Engine,
    task: &Task,
    id: u64,
    agg: &mut SynthAgg,
) -> Result<(RunResult, Cost), webqa::Error> {
    if trace::enabled() {
        probe_features(engine, task, id);
    }
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let task_span = span("task", id);
    let prepared = {
        let _s = span("prepare", id);
        engine.prepare(task)?
    };
    let synthesized = {
        let _s = span("synthesize", id);
        prepared.synthesize()
    };
    let selected = {
        let _s = span("select", id);
        synthesized.select()
    };
    let answers = {
        let _s = span("answers", id);
        selected.answers()
    };
    drop(task_span);
    let cost = Cost {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
    };
    agg.add(&selected.outcome().stats);
    agg.cache = agg.cache.merged(engine.cache_stats());
    if let Some(e) = selected.ensemble() {
        agg.ensemble_programs += selected.outcome().programs.len() as f64;
        agg.behaviour_groups += e.groups().len() as f64;
    }
    let result = RunResult {
        program: selected.program().cloned(),
        synthesis: selected.outcome().clone(),
        answers,
    };
    Ok((result, cost))
}

/// What one staged run took, in seconds.
#[derive(Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    /// CPU time of the whole process over the same window.
    pub cpu_s: f64,
}

/// Traced run only: times the two feature tiers of the task's labeled
/// pages through their public constructors, before and outside the
/// task's span.
fn probe_features(engine: &Engine, task: &Task, id: u64) {
    let cfg = &engine.config().synth;
    let ctx = webqa::WebQa::new(engine.config().clone()).context(&task.question, &task.keywords);
    for (page, _) in &task.labeled {
        let Ok(tree) = engine.store().get(*page) else {
            continue;
        };
        let base = {
            let _s = span("features.base", id);
            PageBaseFeatures::compute(&ctx, tree)
        };
        let _s = span("features.query", id);
        std::hint::black_box(PageFeatures::compute_with_base(cfg, &ctx, tree, &base));
    }
}

/// Synthesis and selection counts, and the engines' cache counters,
/// summed over the tasks run.
#[derive(Default)]
pub struct SynthAgg {
    pub cache: CacheStats,
    tasks: f64,
    guards_yielded: f64,
    locators_expanded: f64,
    extractors_enumerated: f64,
    extractors_pruned: f64,
    analysis_pruned_guards: f64,
    analysis_pruned_locators: f64,
    analysis_pruned_extractors: f64,
    locator_memo_hits: f64,
    memo_hits: f64,
    ensemble_programs: f64,
    behaviour_groups: f64,
}

impl SynthAgg {
    fn add(&mut self, stats: &SynthStats) {
        self.tasks += 1.0;
        self.guards_yielded += stats.guards_yielded as f64;
        self.locators_expanded += stats.locators_expanded as f64;
        self.extractors_enumerated += stats.extractors_enumerated as f64;
        self.extractors_pruned += stats.extractors_pruned as f64;
        self.analysis_pruned_guards += stats.analysis_pruned_guards as f64;
        self.analysis_pruned_locators += stats.analysis_pruned_locators as f64;
        self.analysis_pruned_extractors += stats.analysis_pruned_extractors as f64;
        self.locator_memo_hits += stats.locator_memo_hits as f64;
        self.memo_hits += stats.memo_hits as f64;
    }

    /// Per-task means of the counts, and the ratios over their sums.
    fn report(&self, report: &mut Report) {
        let per = |v: f64| v / self.tasks.max(1.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        for (name, value) in [
            ("synth.guards_yielded", self.guards_yielded),
            ("synth.locators_expanded", self.locators_expanded),
            ("synth.extractors_enumerated", self.extractors_enumerated),
            ("synth.extractors_pruned", self.extractors_pruned),
            ("synth.analysis_pruned_guards", self.analysis_pruned_guards),
            (
                "synth.analysis_pruned_locators",
                self.analysis_pruned_locators,
            ),
            (
                "synth.analysis_pruned_extractors",
                self.analysis_pruned_extractors,
            ),
            ("synth.locator_memo_hits", self.locator_memo_hits),
            ("synth.memo_hits", self.memo_hits),
            ("select.ensemble_programs", self.ensemble_programs),
            ("select.behaviour_groups", self.behaviour_groups),
        ] {
            report.layer(name, per(value), "count");
        }
        report.layer(
            "synth.extractor_prune_rate",
            ratio(
                self.extractors_pruned,
                self.extractors_enumerated + self.extractors_pruned,
            ),
            "ratio",
        );
        report.layer(
            "synth.locator_memo_rate",
            ratio(self.locator_memo_hits, self.locators_expanded),
            "ratio",
        );
    }
}

/// The per-layer metrics read from the spans of the staged runs and of
/// page interning (`interned_bytes` is the HTML those spans parsed),
/// plus the synthesis counts.
pub fn report_layers(report: &mut Report, interned_bytes: usize, agg: &SynthAgg) {
    let spans = trace::spans();
    let parse = trace::durations_ms(&spans, "html.intern");
    report.layer("html.parse_us", median(&parse) * 1e3, "us");
    let parse_s = parse.iter().sum::<f64>() / 1e3;
    report.layer(
        "html.mb_per_s",
        interned_bytes as f64 / 1e6 / parse_s.max(1e-12),
        "MB/s",
    );
    for (metric, name) in [
        ("prepare.ms", "prepare"),
        ("synth.ms", "synthesize"),
        ("select.ms", "select"),
        ("answers.ms", "answers"),
        ("features.base_ms", "features.base"),
        ("features.query_ms", "features.query"),
    ] {
        report.layer(metric, median(&trace::durations_ms(&spans, name)), "ms");
    }
    agg.report(report);
    let total = |name: &str| trace::durations_ms(&spans, name).iter().sum::<f64>();
    let wall = total("task").max(1e-12);
    report.note(format!(
        "stage shares of task wall time: prepare {:.1}%, synthesize {:.1}%, select {:.1}%, answers {:.2}%; \
         the four spans cover {:.2}% of it",
        100.0 * total("prepare") / wall,
        100.0 * total("synthesize") / wall,
        100.0 * total("select") / wall,
        100.0 * total("answers") / wall,
        100.0 * trace::coverage(&spans, "task")
    ));
}
