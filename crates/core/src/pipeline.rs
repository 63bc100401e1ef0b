//! Pipeline configuration and results (Figure 1 of the paper: query +
//! labeled pages → optimal programs → transductive selection → answers
//! for every unlabeled page), run by the staged [`Engine`](crate::Engine).

use crate::error::Error;
use webqa_dsl::{Program, QueryContext};
use webqa_metrics::{Counts, Score};
use webqa_select::SelectionConfig;
use webqa_synth::{SynthConfig, SynthesisOutcome};

/// Which query modalities the pipeline uses (the WebQA-NL / WebQA-KW
/// ablations of Appendix C.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Modality {
    /// Question and keywords (full WebQA).
    #[default]
    Both,
    /// Question only (`WebQA-NL`).
    QuestionOnly,
    /// Keywords only (`WebQA-KW`).
    KeywordsOnly,
}

/// Program-selection strategy (Section 8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Transductive ensemble selection (Section 6).
    #[default]
    Transductive,
    /// Uniformly random optimal program.
    Random,
    /// Random among the smallest optimal programs.
    Shortest,
}

/// End-to-end pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Synthesizer settings.
    pub synth: SynthConfig,
    /// Transductive-selection settings.
    pub selection: SelectionConfig,
    /// Which selection strategy to use.
    pub strategy: Selection,
    /// Which query modalities to use.
    pub modality: Modality,
    /// Capacities of the engine's cross-request caches (the feature
    /// store and the completed-run LRU — see [`crate::CacheConfig`]).
    /// Caching never changes results, only latency.
    pub cache: crate::CacheConfig,
}

/// The query-side view of a [`Config`]: maps its [`Modality`] onto a
/// [`QueryContext`]. Runs go through [`Engine`](crate::Engine).
#[derive(Debug, Clone, Default)]
pub struct WebQa {
    modality: Modality,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The selected program, `None` when synthesis found nothing.
    pub program: Option<Program>,
    /// The full synthesis outcome (all optimal programs, stats).
    pub synthesis: SynthesisOutcome,
    /// Answers per unlabeled page, aligned with the input order.
    pub answers: Vec<Vec<String>>,
}

impl WebQa {
    /// The query side of `config`.
    pub fn new(config: Config) -> Self {
        WebQa {
            modality: config.modality,
        }
    }

    /// Builds the query context for the configured modality.
    pub fn context<S: AsRef<str>>(&self, question: &str, keywords: &[S]) -> QueryContext {
        context_for(self.modality, question, keywords)
    }
}

/// Builds a [`QueryContext`] for a modality (the WebQA-NL / WebQA-KW
/// ablations drop one input channel).
pub(crate) fn context_for<S: AsRef<str>>(
    modality: Modality,
    question: &str,
    keywords: &[S],
) -> QueryContext {
    let kws: Vec<String> = keywords.iter().map(|k| k.as_ref().to_string()).collect();
    match modality {
        Modality::Both => QueryContext::new(question, kws),
        Modality::QuestionOnly => QueryContext::question_only(question),
        Modality::KeywordsOnly => QueryContext::keywords_only(kws),
    }
}

/// Scores per-page answers against per-page gold labels (micro-averaged
/// token P/R/F₁ — the paper's evaluation metric).
///
/// # Errors
///
/// [`Error::AnswerGoldMismatch`] when the two lists have different
/// lengths (they must be aligned page-for-page).
pub fn score_answers(answers: &[Vec<String>], gold: &[Vec<String>]) -> Result<Score, Error> {
    if answers.len() != gold.len() {
        return Err(Error::AnswerGoldMismatch {
            answers: answers.len(),
            gold: gold.len(),
        });
    }
    let counts: Counts = answers
        .iter()
        .zip(gold)
        .map(|(a, g)| Counts::from_strings(a, g))
        .sum();
    Ok(Score::from_counts(counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Task};
    use webqa_dsl::PageTree;
    use webqa_synth::CancelToken;

    fn labeled() -> Vec<(PageTree, Vec<String>)> {
        vec![
            (
                PageTree::parse(
                    "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
                     <h2>News</h2><p>Two papers accepted.</p>",
                ),
                vec!["Jane Doe".into(), "Bob Smith".into()],
            ),
            (
                PageTree::parse(
                    "<h1>B</h1><h2>Teaching</h2><p>CS 101</p>\
                     <h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                ),
                vec!["Mary Anderson".into()],
            ),
        ]
    }

    fn unlabeled() -> Vec<PageTree> {
        vec![PageTree::parse(
            "<h1>C</h1><h2>Advisees</h2><ul><li>Wei Chen</li><li>Elena Petrov</li></ul>",
        )]
    }

    /// Interns the pages into a fresh engine and runs the task.
    fn run(
        config: Config,
        question: &str,
        keywords: &[&str],
        labeled: Vec<(PageTree, Vec<String>)>,
    ) -> RunResult {
        let mut engine = Engine::new(config);
        let task = Task::from_split(
            question,
            keywords.iter().copied(),
            engine.store_mut(),
            labeled,
            unlabeled(),
        );
        engine
            .run(&task, &CancelToken::never())
            .expect("ids interned in this engine always resolve")
    }

    #[test]
    fn end_to_end_extracts_from_unseen_page() {
        let result = run(
            Config::default(),
            "Who are the current PhD students?",
            &["Students", "PhD"],
            labeled(),
        );
        assert!(result.program.is_some());
        assert!(result.synthesis.f1 > 0.99);
        let answers = &result.answers[0];
        assert!(
            answers.iter().any(|a| a.contains("Wei Chen")),
            "generalization to a differently-titled section, got {answers:?}"
        );
    }

    #[test]
    fn score_answers_micro_averages() {
        let answers = vec![vec!["Jane Doe".to_string()], vec![]];
        let gold = vec![vec!["Jane Doe".to_string()], vec!["Bob Smith".to_string()]];
        let s = score_answers(&answers, &gold).unwrap();
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_answers_rejects_misaligned_lists() {
        let answers = vec![vec!["Jane Doe".to_string()]];
        let gold: Vec<Vec<String>> = vec![vec![], vec![]];
        assert_eq!(
            score_answers(&answers, &gold).unwrap_err(),
            Error::AnswerGoldMismatch {
                answers: 1,
                gold: 2
            }
        );
    }

    #[test]
    fn modality_contexts() {
        let cfg = Config {
            modality: Modality::QuestionOnly,
            ..Config::default()
        };
        let system = WebQa::new(cfg);
        let ctx = system.context("Who?", &["K"]);
        assert!(ctx.keywords().is_empty());
        assert_eq!(ctx.question(), "Who?");

        let cfg = Config {
            modality: Modality::KeywordsOnly,
            ..Config::default()
        };
        let ctx = WebQa::new(cfg).context("Who?", &["K"]);
        assert!(ctx.question().is_empty());
        assert_eq!(ctx.keywords(), ["K".to_string()]);
    }

    #[test]
    fn no_labels_no_program() {
        let result = run(Config::default(), "Who?", &["K"], Vec::new());
        assert!(result.program.is_none());
        assert_eq!(result.answers, vec![Vec::<String>::new()]);
    }

    #[test]
    fn selection_strategies_all_produce_programs() {
        for strategy in [
            Selection::Transductive,
            Selection::Random,
            Selection::Shortest,
        ] {
            let cfg = Config {
                strategy,
                ..Config::default()
            };
            let result = run(
                cfg,
                "Who are the current PhD students?",
                &["Students", "PhD"],
                labeled(),
            );
            assert!(result.program.is_some(), "strategy {strategy:?}");
        }
    }
}
