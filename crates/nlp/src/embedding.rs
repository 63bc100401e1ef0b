//! Hashed distributional embeddings and keyword similarity.
//!
//! Stands in for Sentence-BERT (Section 7 of the paper): the DSL's
//! `matchKeyword(z, K, t)` predicate needs a *graded semantic similarity*
//! in `[0, 1]` between a keyword and a piece of page text. We build it
//! from:
//!
//! * character-trigram hash embeddings (fastText-style), which give high
//!   similarity to inflectional variants ("Service" ≈ "Services");
//! * a synonym/canonicalization table, which supplies the "semantic" part
//!   a real sentence encoder learns from data ("PC" ≈ "program
//!   committee", "advisees" ≈ "students");
//! * max-pooling over sliding word windows, so a keyword can match inside
//!   a longer section title.
//!
//! Everything is deterministic — no model files, no RNG at query time.
//!
//! # Kernel and oracle
//!
//! [`keyword_similarity`] / [`best_keyword_similarity`] are the
//! definitional functions: each call stems the text, embeds the keyword
//! and embeds every word of every window from scratch. They are kept as
//! the oracle the kernel is tested against, bit for bit.
//!
//! [`KeywordMatcher`] is the kernel the DSL runs. It compiles a keyword
//! list once (stems, embedding, de-duplicated window widths) and scores a
//! text by summing window and whole-text embeddings from per-word vectors
//! held in a [`WordEmbeddings`] cache. Every sum, normalization, cosine
//! and max happens in the oracle's order, so the score has the same
//! `f32` bits. The cache holds one 64-float vector per distinct word it
//! was asked about, so its size is bounded by the vocabulary of the texts
//! its owner scores (one task's pages, for a query context).

use std::collections::HashMap;
use std::sync::Mutex;

const DIM: usize = 64;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    v: [f32; DIM],
}

impl Embedding {
    /// The zero vector (embedding of empty text).
    pub fn zero() -> Self {
        Embedding { v: [0.0; DIM] }
    }

    /// Whether this is (numerically) the zero vector.
    pub fn is_zero(&self) -> bool {
        self.v.iter().all(|x| x.abs() < 1e-12)
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either side is zero.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        cosine_from(self.dot(other), self.norm(), other.norm())
    }

    fn dot(&self, other: &Embedding) -> f32 {
        self.v.iter().zip(&other.v).map(|(a, b)| a * b).sum()
    }

    fn norm(&self) -> f32 {
        self.v.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    fn add(&mut self, other: &Embedding, weight: f32) {
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a += b * weight;
        }
    }

    fn normalize(mut self) -> Self {
        let n = self.norm();
        if n > 0.0 {
            for a in self.v.iter_mut() {
                *a /= n;
            }
        }
        self
    }
}

/// [`Embedding::cosine`] from its parts, so callers that reuse a norm get
/// the same bits.
fn cosine_from(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// 64-bit SplitMix hash — the deterministic "random projection" that maps
/// trigrams to directions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn hash_str(s: &str, salt: u64) -> u64 {
    let mut h = salt ^ 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    splitmix64(h)
}

/// A pseudo-random unit-ish vector derived from a string.
fn feature_vector(s: &str, salt: u64) -> Embedding {
    let mut e = Embedding::zero();
    let mut state = hash_str(s, salt);
    for chunk in e.v.chunks_mut(1) {
        state = splitmix64(state);
        // Map to roughly N(0,1) via sum of uniform bits; a coarse
        // triangular distribution is plenty for random projections.
        let a = (state & 0xFFFF) as f32 / 65535.0;
        let b = ((state >> 16) & 0xFFFF) as f32 / 65535.0;
        chunk[0] = a + b - 1.0;
    }
    e
}

/// Light stemmer: lowercases and strips simple plural/inflection suffixes.
pub(crate) fn stem(word: &str) -> String {
    let w = word.to_lowercase();
    if w.len() > 4 && w.ends_with("ies") {
        format!("{}y", &w[..w.len() - 3])
    } else if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") {
        // Covers plain plurals and "-es" forms alike: "services" ->
        // "service", "students" -> "student", while keeping "class".
        w[..w.len() - 1].to_string()
    } else {
        w
    }
}

/// Synonym canonicalization: maps domain abbreviations and near-synonyms
/// to a shared canonical phrase, the stand-in for learned semantics.
pub(crate) fn canonicalize(word: &str) -> &'static str {
    // Returned strings may be multi-word; they are re-tokenized by the
    // phrase embedder.
    match stem(word).as_str() {
        "pc" => "program committee",
        "committee" => "committee",
        "advisee" | "student" | "mentee" => "student",
        "advisor" | "adviser" => "advisor",
        "ta" | "assistant" => "assistant",
        "phd" | "ph.d" | "doctoral" => "phd",
        "publication" | "paper" => "publication",
        "course" | "class" | "classe" => "course",
        "teaching" | "taught" | "teache" | "teach" => "teaching",
        "service" | "activity" => "service",
        "talk" | "presentation" => "talk",
        "deadline" | "due" => "deadline",
        "submission" | "submit" => "submission",
        "instructor" | "lecturer" | "teacher" => "instructor",
        "exam" | "midterm" | "final" | "test" => "exam",
        "grade" | "grading" | "rubric" | "assessment" => "grading",
        "textbook" | "book" | "material" | "text" => "textbook",
        "doctor" | "physician" | "provider" | "dr" => "doctor",
        "insurance" | "plan" | "coverage" => "insurance",
        "treatment" | "specialty" | "specialization" => "treatment",
        "location" | "office" | "address" | "directions" | "direction" => "location",
        "alumni" | "alumnu" | "graduate" | "former" => "alumni",
        "chair" | "co-chair" | "cochair" => "chair",
        "topic" | "interest" | "area" => "topic",
        "schedule" | "time" | "lecture" | "section" => "schedule",
        "member" | "people" | "team" | "staff" => "member",
        "award" | "prize" | "honor" => "award",
        "news" | "announcement" => "news",
        "conference" | "venue" => "conference",
        "contact" | "email" | "e-mail" | "phone" => "contact",
        _ => "",
    }
}

/// Embeds a single word: trigram vectors + whole-word vector, with synonym
/// canonicalization applied first.
fn embed_word(word: &str) -> Embedding {
    let canon = canonicalize(word);
    if !canon.is_empty() && canon.contains(' ') {
        // Multi-word canonical form ("program committee"): embed as phrase.
        return embed_phrase_words(&canon.split(' ').collect::<Vec<_>>());
    }
    let surface = if canon.is_empty() {
        stem(word)
    } else {
        canon.to_string()
    };
    let mut e = Embedding::zero();
    let padded = format!("^{surface}$");
    let chars: Vec<char> = padded.chars().collect();
    if chars.len() >= 3 {
        for w in chars.windows(3) {
            let tri: String = w.iter().collect();
            e.add(&feature_vector(&tri, 0x7121), 1.0);
        }
    }
    // The whole-word direction dominates so different words with shared
    // trigrams stay distinguishable.
    e.add(&feature_vector(&surface, 0xB00F_ABCD), 2.0);
    e.normalize()
}

fn embed_phrase_words(words: &[&str]) -> Embedding {
    sum_normalized(words.iter().map(|w| embed_word(w)))
}

/// The normalized sum of word vectors, added in order from zero — the one
/// phrase-embedding arithmetic both the oracle and the kernel use.
fn sum_normalized<E: std::borrow::Borrow<Embedding>>(
    vecs: impl IntoIterator<Item = E>,
) -> Embedding {
    let mut e = Embedding::zero();
    for v in vecs {
        e.add(v.borrow(), 1.0);
    }
    e.normalize()
}

/// Embeds an arbitrary text as the normalized sum of its content-word
/// embeddings.
pub fn embed(text: &str) -> Embedding {
    let words: Vec<String> = crate::text::lower_words(text);
    let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
    embed_phrase_words(&refs)
}

/// Semantic similarity between a keyword and a text, in `[0, 1]`.
///
/// Implements the scoring behind the DSL's `matchKeyword(z, k, t)`: the
/// keyword embedding is compared against every sliding window of the text
/// whose width matches the keyword's (±1 word), and the best cosine is
/// mapped to `[0, 1]`. An exact (case-insensitive, stemmed) phrase match
/// short-circuits to 1.0.
///
/// # Examples
///
/// ```
/// use webqa_nlp::keyword_similarity;
/// assert_eq!(keyword_similarity("Professional Service", "Service"), 1.0);
/// let near = keyword_similarity("Professional Services", "Service");
/// assert!(near > 0.9);
/// let far = keyword_similarity("Recent Publications", "Service");
/// assert!(far < 0.5);
/// ```
pub fn keyword_similarity(text: &str, keyword: &str) -> f32 {
    let text_words = crate::text::lower_words(text);
    let kw_words = crate::text::lower_words(keyword);
    if kw_words.is_empty() || text_words.is_empty() {
        return 0.0;
    }
    // Exact stemmed phrase containment → 1.0.
    let kw_stems: Vec<String> = kw_words.iter().map(|w| stem(w)).collect();
    let text_stems: Vec<String> = text_words.iter().map(|w| stem(w)).collect();
    if text_stems
        .windows(kw_stems.len())
        .any(|w| w == kw_stems.as_slice())
    {
        return 1.0;
    }
    let kw_emb = embed(keyword);
    if kw_emb.is_zero() {
        return 0.0;
    }
    let mut best: f32 = 0.0;
    let widths = window_widths(kw_words.len());
    for &w in &widths {
        if w == 0 || w > text_words.len() {
            continue;
        }
        for window in text_words.windows(w) {
            let refs: Vec<&str> = window.iter().map(|s| s.as_str()).collect();
            let e = embed_phrase_words(&refs);
            best = best.max(kw_emb.cosine(&e));
        }
    }
    // Whole-text comparison helps when the text is shorter than the keyword.
    best = best.max(kw_emb.cosine(&embed(text)));
    best.max(0.0)
}

/// The window widths a `k`-word keyword is compared at: one word fewer
/// (at least one), the same, and one more.
fn window_widths(k: usize) -> [usize; 3] {
    [k.saturating_sub(1).max(1), k, k + 1]
}

/// Similarity of `text` against the best-matching keyword in `keywords`.
pub fn best_keyword_similarity<S: AsRef<str>>(text: &str, keywords: &[S]) -> f32 {
    keywords
        .iter()
        .map(|k| keyword_similarity(text, k.as_ref()))
        .fold(0.0, f32::max)
}

/// A cache of single-word embeddings, keyed by the lowercased word.
///
/// Shared by every [`KeywordMatcher::score`] call of one owner (a query
/// context). It grows by one vector per distinct word scored and is never
/// evicted: its size is bounded by the vocabulary of the texts scored
/// through it. Misses are embedded outside the lock.
#[derive(Debug, Default)]
pub struct WordEmbeddings {
    map: Mutex<HashMap<String, Embedding>>,
}

impl WordEmbeddings {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Embedding>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The embedding of each word in `words`, in order.
    fn lookup(&self, words: &[String]) -> Vec<Embedding> {
        let mut vecs: Vec<Option<Embedding>> = {
            let map = self.lock();
            words.iter().map(|w| map.get(w).cloned()).collect()
        };
        let mut fresh: HashMap<&str, Embedding> = HashMap::new();
        for (w, slot) in words.iter().zip(&mut vecs) {
            if slot.is_none() {
                let e = fresh.entry(w).or_insert_with(|| embed_word(w));
                *slot = Some(e.clone());
            }
        }
        if !fresh.is_empty() {
            let mut map = self.lock();
            for (w, e) in fresh {
                map.entry(w.to_string()).or_insert(e);
            }
        }
        vecs.into_iter().flatten().collect()
    }
}

/// One keyword compiled for [`KeywordMatcher`].
#[derive(Debug, Clone)]
struct CompiledKeyword {
    /// Stems of the keyword's words, for the containment short-circuit.
    stems: Vec<String>,
    /// The keyword's embedding and its norm; `None` when the embedding is
    /// (numerically) zero, which scores 0 unless the keyword is contained.
    emb: Option<(Embedding, f32)>,
    /// [`window_widths`], de-duplicated (ascending).
    widths: Vec<usize>,
}

/// A keyword list compiled once for repeated `matchKeyword` scoring: the
/// kernel behind the DSL's keyword predicate.
///
/// [`KeywordMatcher::score`] returns exactly the bits of
/// [`best_keyword_similarity`] over the same keywords (see the module
/// docs for how).
///
/// # Examples
///
/// ```
/// use webqa_nlp::{best_keyword_similarity, KeywordMatcher, WordEmbeddings};
///
/// let kws = ["Service", "PC"];
/// let matcher = KeywordMatcher::new(&kws);
/// let cache = WordEmbeddings::new();
/// let text = "Professional Activities and Committees";
/// let s = matcher.score(text, &cache);
/// assert_eq!(s.to_bits(), best_keyword_similarity(text, &kws).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct KeywordMatcher {
    /// Keywords with at least one word, in input order.
    keywords: Vec<CompiledKeyword>,
    /// The union of every keyword's widths, ascending.
    widths: Vec<usize>,
}

impl KeywordMatcher {
    /// Compiles `keywords`: stems, embedding and window widths of each.
    pub fn new<S: AsRef<str>>(keywords: &[S]) -> Self {
        let keywords: Vec<CompiledKeyword> = keywords
            .iter()
            .filter_map(|k| {
                let words = crate::text::lower_words(k.as_ref());
                if words.is_empty() {
                    return None;
                }
                let emb = embed(k.as_ref());
                let mut widths = window_widths(words.len()).to_vec();
                widths.dedup();
                Some(CompiledKeyword {
                    stems: words.iter().map(|w| stem(w)).collect(),
                    emb: (!emb.is_zero()).then(|| {
                        let n = emb.norm();
                        (emb, n)
                    }),
                    widths,
                })
            })
            .collect();
        let mut widths: Vec<usize> = keywords.iter().flat_map(|k| k.widths.clone()).collect();
        widths.sort_unstable();
        widths.dedup();
        KeywordMatcher { keywords, widths }
    }

    /// Similarity of `text` against the best-matching keyword, in `[0, 1]`;
    /// bit-identical to [`best_keyword_similarity`]. Word vectors come
    /// from (and missing ones go into) `cache`.
    pub fn score(&self, text: &str, cache: &WordEmbeddings) -> f32 {
        if self.keywords.is_empty() {
            return 0.0;
        }
        let words = crate::text::lower_words(text);
        if words.is_empty() {
            return 0.0;
        }
        // Exact stemmed phrase containment of any keyword → 1.0, the
        // maximum any keyword can score.
        let stems: Vec<String> = words.iter().map(|w| stem(w)).collect();
        if self.keywords.iter().any(|k| {
            stems
                .windows(k.stems.len())
                .any(|w| w == k.stems.as_slice())
        }) {
            return 1.0;
        }
        let vecs = cache.lookup(&words);
        // One running best per keyword, updated in the oracle's order:
        // widths ascending, windows left to right, then the whole text.
        let mut best = vec![0.0f32; self.keywords.len()];
        for &w in self.widths.iter().take_while(|&&w| w <= vecs.len()) {
            for window in vecs.windows(w) {
                let e = sum_normalized(window);
                let ne = e.norm();
                for (k, b) in self.keywords.iter().zip(&mut best) {
                    if let Some((kw, nk)) = &k.emb {
                        if k.widths.contains(&w) {
                            *b = b.max(cosine_from(kw.dot(&e), *nk, ne));
                        }
                    }
                }
            }
        }
        let whole = sum_normalized(&vecs);
        let nw = whole.norm();
        for (k, b) in self.keywords.iter().zip(&mut best) {
            if let Some((kw, nk)) = &k.emb {
                *b = b.max(cosine_from(kw.dot(&whole), *nk, nw)).max(0.0);
            }
        }
        best.into_iter().fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_words_have_similarity_one() {
        assert_eq!(keyword_similarity("Students", "Students"), 1.0);
    }

    #[test]
    fn plural_variants_match_exactly_after_stemming() {
        assert_eq!(keyword_similarity("Students", "Student"), 1.0);
        assert_eq!(keyword_similarity("Professional Services", "Services"), 1.0);
    }

    #[test]
    fn synonyms_score_high() {
        // "PC" canonicalizes to "program committee"
        assert!(keyword_similarity("PC", "Program Committee") > 0.9);
        assert!(keyword_similarity("Advisees", "Students") > 0.9);
        assert!(keyword_similarity("Activities", "Service") > 0.9);
    }

    #[test]
    fn unrelated_words_score_low() {
        assert!(keyword_similarity("Recent Publications", "Insurance") < 0.5);
        assert!(keyword_similarity("Contact", "Students") < 0.5);
    }

    #[test]
    fn keyword_inside_longer_title() {
        assert_eq!(keyword_similarity("Current PhD Students", "PhD"), 1.0);
        assert!(keyword_similarity("Our Professional Service Activities", "Service") > 0.9);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(keyword_similarity("", "x"), 0.0);
        assert_eq!(keyword_similarity("x", ""), 0.0);
    }

    #[test]
    fn best_keyword_takes_max() {
        let kws = ["Insurance", "Students"];
        let s = best_keyword_similarity("PhD Students", &kws);
        assert_eq!(s, 1.0);
        assert!(best_keyword_similarity("totally unrelated gibberish", &kws) < 0.6);
    }

    #[test]
    fn similarity_is_deterministic() {
        let a = keyword_similarity("Professional Services", "Committee");
        let b = keyword_similarity("Professional Services", "Committee");
        assert_eq!(a, b);
    }

    #[test]
    fn cosine_bounds() {
        let e1 = embed("alpha beta");
        let e2 = embed("gamma delta");
        let c = e1.cosine(&e2);
        assert!((-1.0..=1.0).contains(&c));
        assert!((e1.cosine(&e1) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_embedding_behaviour() {
        let z = Embedding::zero();
        assert!(z.is_zero());
        assert_eq!(z.cosine(&embed("x")), 0.0);
    }

    #[test]
    fn word_cache_holds_each_distinct_word_once() {
        let matcher = KeywordMatcher::new(&["Insurance"]);
        let cache = WordEmbeddings::new();
        let text = "Our Services, our services and Teaching";
        assert!(matcher.score(text, &cache) < 1.0);
        // "our", "services", "and", "teaching": case-folded, repeats once.
        assert_eq!(cache.lock().len(), 4);
        matcher.score(text, &cache);
        assert_eq!(cache.lock().len(), 4);
        // A containment hit never embeds the text.
        let hit = WordEmbeddings::new();
        assert_eq!(matcher.score("Insurance Plans", &hit), 1.0);
        assert_eq!(hit.lock().len(), 0);
    }

    #[test]
    fn trigram_overlap_gives_partial_similarity() {
        // "organization" vs "organizational" share most trigrams.
        let s = keyword_similarity("organizational", "organization");
        assert!(s > 0.5, "got {s}");
    }
}
