//! Parity of the query context's neural-module kernels with the
//! definitional modules, on the corpus the system actually runs on.
//!
//! * `matchKeyword`: [`QueryContext::keyword_score`] runs the
//!   `KeywordMatcher` kernel over a per-context word cache; it must equal
//!   [`best_keyword_similarity`] bit for bit on every node's own text and
//!   subtree text of pages of all four domains, under each of the 25
//!   tasks' keyword lists.
//! * `hasAnswer` / answer spans: [`QueryContext`] keeps one cached span
//!   per string; `has_answer`, `answer_span` and `answer` must equal what
//!   [`QaModel::answer`] says on each text, cold and cached.

use webqa_corpus::{generate_pages, tasks_in_domain, Domain, TASKS};
use webqa_dsl::QueryContext;
use webqa_html::PageTree;
use webqa_nlp::{best_keyword_similarity, QaModel};

/// Every node's own text and subtree text, on `n` generated pages of
/// `domain`, de-duplicated in first-seen order.
fn node_texts(domain: Domain, n: usize, seed: u64) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for page in generate_pages(domain, n, seed) {
        let tree: PageTree = page.tree();
        for id in tree.iter() {
            for t in [tree.text(id).to_string(), tree.subtree_text(id)] {
                if seen.insert(t.clone()) {
                    out.push(t);
                }
            }
        }
    }
    out
}

#[test]
fn keyword_kernel_matches_oracle_on_corpus() {
    let texts: Vec<String> = Domain::ALL
        .iter()
        .flat_map(|&d| node_texts(d, 3, 17))
        .collect();
    let mut checked = 0usize;
    for task in &TASKS {
        // One context per task, as the engine holds it: the word cache
        // warms up across texts.
        let ctx = QueryContext::new(task.question, task.keywords.to_vec());
        for text in &texts {
            let oracle = best_keyword_similarity(text, task.keywords);
            let got = ctx.keyword_score(text);
            assert_eq!(
                got.to_bits(),
                f64::from(oracle).to_bits(),
                "{}: {text:?}",
                task.id
            );
            checked += 1;
        }
    }
    assert!(checked > 1000, "sweep covered only {checked} texts");
}

#[test]
fn qa_span_cache_matches_model_on_corpus() {
    let qa = QaModel::pretrained();
    let mut answered = 0usize;
    for domain in Domain::ALL {
        let texts = node_texts(domain, 1, 23);
        for task in tasks_in_domain(domain) {
            let ctx = QueryContext::new(task.question, task.keywords.to_vec());
            // Twice: the first pass fills the span cache, the second reads it.
            for _ in 0..2 {
                for text in &texts {
                    let want = qa.answer(text, task.question);
                    assert_eq!(
                        ctx.answer_span(text),
                        want.as_ref().map(|a| (a.start, a.end)),
                        "{}: {text:?}",
                        task.id
                    );
                    assert_eq!(ctx.has_answer(text), want.is_some());
                    assert_eq!(ctx.answer(text), want.map(|a| a.text));
                }
            }
            answered += texts.iter().filter(|t| ctx.has_answer(t)).count();
        }
    }
    assert!(answered > 0, "no corpus text had an answer");
}
