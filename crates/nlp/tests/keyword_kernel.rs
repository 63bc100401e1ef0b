//! Parity of the `matchKeyword` kernel with its definitional function.
//!
//! [`KeywordMatcher::score`] must return exactly the `f32` bits of
//! [`best_keyword_similarity`] on every input, whether its word cache is
//! cold (a fresh [`WordEmbeddings`]) or warm (one cache shared across
//! every case of the run, as a query context shares it across a task).

use proptest::prelude::*;
use webqa_nlp::{best_keyword_similarity, embed, KeywordMatcher, WordEmbeddings};

/// Words the generated texts and keywords draw from: plain words,
/// inflections, synonym-table entries (including "PC", whose canonical
/// form is two words), stopwords, internal punctuation and non-ASCII.
const VOCAB: &[&str] = &[
    "PC",
    "pc",
    "Program",
    "Committee",
    "committees",
    "Students",
    "student",
    "Advisees",
    "PhD",
    "Ph.D",
    "Service",
    "Services",
    "Activities",
    "Professional",
    "Teaching",
    "taught",
    "Courses",
    "class",
    "Insurance",
    "plans",
    "Doctors",
    "Dr.",
    "the",
    "of",
    "and",
    "a",
    "Recent",
    "Publications",
    "Deadline",
    "due",
    "e-mail",
    "10:30",
    "'21",
    "2021",
    "Zürich",
    "café",
    "中文",
    "organizational",
    "organization",
];

/// Separators between generated words: spaces, punctuation, newlines.
const SEPS: &[&str] = &[" ", " ", " ", ", ", "; ", " - ", ".\n", " & ", "\t", "  "];

fn phrase(max_words: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((0..VOCAB.len(), 0..SEPS.len()), 0..=max_words).prop_map(|parts| {
        let mut s = String::new();
        for (i, (w, sep)) in parts.iter().enumerate() {
            if i > 0 {
                s.push_str(SEPS[*sep]);
            }
            s.push_str(VOCAB[*w]);
        }
        s
    })
}

/// Texts: empty, punctuation-only, arbitrary unicode, vocabulary phrases
/// (short, with repeats, and long ones over 40 words).
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ !?.,;:()\\-]{1,12}",
        "\\PC{0,80}",
        phrase(8),
        (0..VOCAB.len(), 2..12usize).prop_map(|(w, n)| vec![VOCAB[w]; n].join(" ")),
        phrase(70).prop_map(|s| format!("{s} {s}")),
    ]
}

/// Keywords of 0–4 words: `""`, `"PC"`, punctuation-only ones (no words,
/// a zero embedding) and vocabulary or random phrases.
fn keyword() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("PC".to_string()),
        "[!?.,;:\\-]{1,4}",
        phrase(4),
        "[a-zA-Z]{1,9}( [a-zA-Z]{1,9}){0,3}",
    ]
}

thread_local! {
    static WARM: WordEmbeddings = WordEmbeddings::new();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    fn keyword_matcher_matches_oracle_bits(
        text in text(),
        keywords in proptest::collection::vec(keyword(), 0..=3),
    ) {
        let oracle = best_keyword_similarity(&text, &keywords);
        let matcher = KeywordMatcher::new(&keywords);
        let cold = matcher.score(&text, &WordEmbeddings::new());
        prop_assert_eq!(cold.to_bits(), oracle.to_bits(), "cold cache: {:?} vs {:?}", text, keywords);
        let warm = WARM.with(|c| matcher.score(&text, c));
        prop_assert_eq!(warm.to_bits(), oracle.to_bits(), "warm cache: {:?} vs {:?}", text, keywords);
        // Scoring again hits the cache for every word.
        let again = WARM.with(|c| matcher.score(&text, c));
        prop_assert_eq!(again.to_bits(), oracle.to_bits());
    }
}

#[test]
fn keyword_matcher_edge_cases_match_oracle_bits() {
    let cache = WordEmbeddings::new();
    // A keyword without words has a zero embedding and never scores.
    assert!(embed("?!").is_zero());
    let cases: &[(&str, &[&str])] = &[
        ("", &["Students"]),
        ("Students", &[]),
        ("Students", &[""]),
        ("Program Committee", &["PC"]),
        ("PC members", &["Program Committee"]),
        ("!!! ... ---", &["Service", "?!"]),
        ("Professional Activities", &["?!", "Service"]),
        ("Current PhD Students", &["PhD"]),
        ("the the the the", &["the"]),
        (
            "Recent Publications and Talks",
            &["Insurance", "Teaching", "PC"],
        ),
    ];
    for (text, kws) in cases {
        let oracle = best_keyword_similarity(text, kws);
        let got = KeywordMatcher::new(kws).score(text, &cache);
        assert_eq!(got.to_bits(), oracle.to_bits(), "{text:?} under {kws:?}");
    }
}
