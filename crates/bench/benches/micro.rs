//! Micro-benchmarks for the hot paths of the system: HTML parsing,
//! page-tree conversion, the three simulated NLP modules, DSL program
//! evaluation, and one end-to-end extractor synthesis.
//!
//! These are the components whose cost the paper's Table 3 timing
//! ultimately decomposes into. Each target prints the median wall time
//! per iteration over a handful of samples, plus the spread between the
//! fastest and slowest sample.
//!
//! Run with: `cargo bench -p webqa_bench --bench micro`

use std::hint::black_box;
use std::time::{Duration, Instant};

use webqa_corpus::{generate_pages, Domain};
use webqa_dsl::{PageTree, Program, QueryContext};
use webqa_nlp::{
    best_keyword_similarity, keyword_similarity, EntityKind, EntityRecognizer, QaModel,
};
use webqa_synth::{synthesize, Example, SynthConfig};

/// Times `f`: doubles the iteration count until one sample takes at
/// least 5 ms, then takes `samples` samples of that many iterations and
/// prints the median time per iteration and the spread.
fn bench<O>(name: &str, samples: usize, mut f: impl FnMut() -> O) {
    let mut sample = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    };
    let mut iters: u64 = 1;
    while iters < 1 << 20 && sample(iters) < Duration::from_millis(5) {
        iters *= 2;
    }
    let mut per_iter: Vec<f64> = (0..samples.max(2))
        .map(|_| sample(iters).as_nanos() as f64 / iters as f64)
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    let spread = per_iter[per_iter.len() - 1] - per_iter[0];
    println!(
        "{name:<40} {:>12} / iter (± {})",
        fmt_ns(median),
        fmt_ns(spread)
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn sample_html() -> String {
    generate_pages(Domain::Faculty, 1, 11)[0].html.clone()
}

fn bench_html() {
    let html = sample_html();
    bench("html/parse_dom", 20, || {
        webqa_html::parse_html(black_box(&html))
    });
    bench("html/page_tree", 20, || PageTree::parse(black_box(&html)));
}

fn bench_nlp() {
    let ner = EntityRecognizer::pretrained();
    let qa = QaModel::pretrained();
    let text = "Jane Doe served on the PLDI '21 program committee at Rome University \
                starting January 5, 2021 with Dr. Robert Smith.";
    bench("nlp/keyword_similarity", 20, || {
        keyword_similarity(black_box("Professional Services"), black_box("Committee"))
    });
    // A whole page's text: the per-window cost the two-word case hides.
    // A fresh context per iteration, so every word is embedded cold. The
    // keywords do not occur on the page, so no containment short-circuit.
    let page = PageTree::parse(&sample_html());
    let subtree = page.subtree_text(page.root());
    let keywords = ["Insurance", "Plans Accepted"];
    assert!(best_keyword_similarity(&subtree, &keywords) < 1.0);
    bench("nlp/keyword_score_subtree", 10, || {
        QueryContext::new("", keywords).keyword_score(black_box(&subtree))
    });
    bench("nlp/best_keyword_similarity_subtree", 10, || {
        best_keyword_similarity(black_box(&subtree), &keywords)
    });
    bench("nlp/ner", 20, || ner.entities(black_box(text)));
    bench("nlp/ner_has_entity", 20, || {
        ner.has_entity(black_box(text), EntityKind::Person)
    });
    bench("nlp/qa_answer", 20, || {
        qa.answer(
            black_box(text),
            black_box("Who served on the program committee?"),
        )
    });
}

fn bench_eval() {
    let page = PageTree::parse(&sample_html());
    let ctx = QueryContext::new(
        "What program committees or PC has this person served for?",
        ["Program Committee", "PC"],
    );
    let program: Program = "sat(descendants(descendants(root, text(kw(0.80))), leaf), true) -> \
         filter(split(content, ','), kw(0.50))"
        .parse()
        .expect("valid");
    // Warm the context caches once: steady-state evaluation is the number
    // that matters for ensemble selection.
    let _ = program.eval(&ctx, &page);
    bench("dsl/program_eval_warm", 20, || {
        program.eval(black_box(&ctx), black_box(&page))
    });
}

fn bench_synthesis() {
    let pages = generate_pages(Domain::Faculty, 2, 23);
    let ctx = QueryContext::new(
        "Who are the current PhD students?",
        ["Current Students", "PhD"],
    );
    let examples: Vec<Example> = pages
        .iter()
        .map(|p| Example::new(p.tree(), p.gold("fac_t1").to_vec()))
        .collect();
    bench("synth/synthesize_fac_t1_2pages", 10, || {
        synthesize(&SynthConfig::fast(), &ctx, black_box(&examples))
    });
}

fn main() {
    bench_html();
    bench_nlp();
    bench_eval();
    bench_synthesis();
}
