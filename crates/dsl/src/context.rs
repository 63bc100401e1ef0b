//! Query context: the `(Q, K)` inputs of a WebQA program plus memoized
//! access to the neural modules.
//!
//! The synthesizer evaluates the same NLP predicates on the same strings
//! thousands of times; a [`QueryContext`] caches `matchKeyword` scores, QA
//! answer spans, and recognized entities per string, which is what makes
//! enumerative search tractable (the real system relies on the same trick —
//! neural-module calls dominate its synthesis time, Table 3).
//!
//! A `matchKeyword` miss runs the [`KeywordMatcher`] kernel, compiled once
//! per context from `K`, over a per-context [`WordEmbeddings`] cache: each
//! word is embedded once per context, and each score has the same bits as
//! the definitional [`webqa_nlp::best_keyword_similarity`], which stays
//! as the oracle the kernel is tested against. The word cache, like the
//! per-string caches, lives as long as the context (one task), so it is
//! bounded by the vocabulary of that task's pages.
//!
//! The caches are behind [`Mutex`]es (not `RefCell`s) so one context can
//! be shared by the synthesizer's branch-level worker threads
//! (`SynthConfig::jobs`); uncontended locking costs nanoseconds and the
//! hot search paths read precomputed per-task feature tables instead of
//! hitting these caches per candidate.

use std::collections::HashMap;
use std::sync::Mutex;

use webqa_nlp::{Entity, EntityKind, EntityRecognizer, KeywordMatcher, QaModel, WordEmbeddings};

/// The question/keyword inputs plus cached neural modules.
#[derive(Debug)]
pub struct QueryContext {
    question: String,
    keywords: Vec<String>,
    matcher: KeywordMatcher,
    qa: QaModel,
    ner: EntityRecognizer,
    kw_cache: Mutex<HashMap<String, f64>>,
    word_cache: WordEmbeddings,
    qa_cache: Mutex<HashMap<String, Option<(usize, usize)>>>,
    ent_cache: Mutex<HashMap<String, Vec<Entity>>>,
}

impl QueryContext {
    /// Creates a context with the default pretrained models.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(question: &str, keywords: I) -> Self {
        Self::with_models(
            question,
            keywords,
            QaModel::pretrained(),
            EntityRecognizer::pretrained(),
        )
    }

    /// A context with explicit neural modules instead of the pretrained
    /// defaults.
    ///
    /// This is how model imperfection is injected in tests and ablations:
    /// the paper's Key Idea #2 (Section 2) observes that when, say, the
    /// entity model cannot recognize conference names as organizations,
    /// *no* DSL program matches the labels exactly and synthesis must
    /// optimize F₁ instead — swapping the [`EntityRecognizer`] here is
    /// what exercises that path deterministically.
    pub fn with_models<S: Into<String>, I: IntoIterator<Item = S>>(
        question: &str,
        keywords: I,
        qa: QaModel,
        ner: EntityRecognizer,
    ) -> Self {
        let keywords: Vec<String> = keywords.into_iter().map(Into::into).collect();
        QueryContext {
            question: question.to_string(),
            matcher: KeywordMatcher::new(&keywords),
            keywords,
            qa,
            ner,
            kw_cache: Mutex::new(HashMap::new()),
            word_cache: WordEmbeddings::new(),
            qa_cache: Mutex::new(HashMap::new()),
            ent_cache: Mutex::new(HashMap::new()),
        }
    }

    /// A context without keywords (the paper's `WebQA-NL` ablation).
    pub fn question_only(question: &str) -> Self {
        Self::new(question, Vec::<String>::new())
    }

    /// A context without a question (the paper's `WebQA-KW` ablation).
    pub fn keywords_only<S: Into<String>, I: IntoIterator<Item = S>>(keywords: I) -> Self {
        Self::new("", keywords)
    }

    /// The natural-language question `Q`.
    pub fn question(&self) -> &str {
        &self.question
    }

    /// The keywords `K`.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Best keyword similarity of `text` against `K` (cached).
    /// 0.0 when there are no keywords.
    pub fn keyword_score(&self, text: &str) -> f64 {
        if self.keywords.is_empty() {
            return 0.0;
        }
        if let Some(&s) = self.kw_cache.lock().expect("cache lock").get(text) {
            return s;
        }
        let s = f64::from(self.matcher.score(text, &self.word_cache));
        self.kw_cache
            .lock()
            .expect("cache lock")
            .insert(text.to_string(), s);
        s
    }

    /// Whether the QA model finds an answer to `Q` in `text` (cached via
    /// [`QueryContext::answer_span`]). `false` when the context has no
    /// question.
    pub fn has_answer(&self, text: &str) -> bool {
        self.answer_span(text).is_some()
    }

    /// The QA model's best answer in `text`, if any (cached via
    /// [`QueryContext::answer_span`]).
    pub fn answer(&self, text: &str) -> Option<String> {
        self.answer_span(text)
            .map(|(s, e)| text[s..e].trim().to_string())
    }

    /// Byte span of the QA model's best answer in `text`, if any (cached).
    /// `None` when the context has no question.
    pub fn answer_span(&self, text: &str) -> Option<(usize, usize)> {
        if self.question.is_empty() {
            return None;
        }
        if let Some(&span) = self.qa_cache.lock().expect("cache lock").get(text) {
            return span;
        }
        let span = self
            .qa
            .answer(text, &self.question)
            .map(|a| (a.start, a.end));
        self.qa_cache
            .lock()
            .expect("cache lock")
            .insert(text.to_string(), span);
        span
    }

    /// All entities in `text` (cached).
    pub fn entities(&self, text: &str) -> Vec<Entity> {
        if let Some(es) = self.ent_cache.lock().expect("cache lock").get(text) {
            return es.clone();
        }
        let es = self.ner.entities(text);
        self.ent_cache
            .lock()
            .expect("cache lock")
            .insert(text.to_string(), es.clone());
        es
    }

    /// Whether `text` contains an entity of `kind` (cached via
    /// [`QueryContext::entities`]).
    pub fn has_entity(&self, text: &str, kind: EntityKind) -> bool {
        self.entities(text).iter().any(|e| e.kind == kind)
    }

    /// Entity surface strings of `kind` in `text`, in order.
    pub fn entity_strings(&self, text: &str, kind: EntityKind) -> Vec<String> {
        self.entities(text)
            .into_iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.text)
            .collect()
    }

    /// Number of distinct strings cached so far (diagnostics).
    pub fn cache_size(&self) -> usize {
        self.kw_cache.lock().expect("cache lock").len()
            + self.qa_cache.lock().expect("cache lock").len()
            + self.ent_cache.lock().expect("cache lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_score_cached_and_stable() {
        let ctx = QueryContext::new("Who?", ["Students"]);
        let a = ctx.keyword_score("PhD Students");
        let b = ctx.keyword_score("PhD Students");
        assert_eq!(a, b);
        assert_eq!(a, 1.0);
        assert!(ctx.cache_size() >= 1);
    }

    #[test]
    fn empty_keywords_score_zero() {
        let ctx = QueryContext::question_only("Who are the students?");
        assert_eq!(ctx.keyword_score("Students"), 0.0);
    }

    #[test]
    fn empty_question_never_answers() {
        let ctx = QueryContext::keywords_only(["Students"]);
        assert!(!ctx.has_answer("Instructor: Jane Doe."));
        assert_eq!(ctx.answer("Instructor: Jane Doe."), None);
    }

    #[test]
    fn entity_queries() {
        let ctx = QueryContext::new("", ["x"]);
        assert!(ctx.has_entity("Jane Doe", EntityKind::Person));
        assert_eq!(
            ctx.entity_strings("Jane Doe and Robert Smith", EntityKind::Person)
                .len(),
            2
        );
    }

    #[test]
    fn qa_through_context() {
        let ctx = QueryContext::new("Who is the instructor?", Vec::<String>::new());
        assert!(ctx.has_answer("Instructor: Jane Doe."));
        assert!(ctx
            .answer("Instructor: Jane Doe.")
            .unwrap()
            .contains("Jane"));
    }
}
