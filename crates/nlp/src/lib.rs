//! # webqa-nlp
//!
//! Simulated "pretrained" NLP modules for the WebQA reproduction — the
//! three neural primitives of the paper's DSL (Section 4):
//!
//! * **Keyword matching** (`matchKeyword(z, K, t)`):
//!   [`keyword_similarity`] / [`best_keyword_similarity`], built on hashed
//!   character-trigram embeddings plus a synonym table — the stand-in for
//!   Sentence-BERT. [`KeywordMatcher`] is the bit-identical kernel that
//!   embeds each word once (through a [`WordEmbeddings`] cache).
//! * **Question answering** (`hasAnswer(z, Q)`): [`QaModel`], a
//!   deterministic extractive span scorer — the stand-in for BERT-SQuAD.
//! * **Entity extraction** (`hasEntity(z, l)`): [`EntityRecognizer`], a
//!   rule/lexicon tagger — the stand-in for spaCy. It is *deliberately
//!   imperfect* (conference acronyms are not ORGs), which is the exact
//!   scenario motivating the paper's optimal-F₁ synthesis (Key Idea #2).
//!
//! All three are pure functions of their inputs: no model files, no RNG at
//! inference time, bit-reproducible everywhere.
//!
//! ```
//! use webqa_nlp::{keyword_similarity, EntityKind, EntityRecognizer, QaModel};
//!
//! assert!(keyword_similarity("Professional Services", "Service") > 0.9);
//!
//! let ner = EntityRecognizer::pretrained();
//! assert!(ner.has_entity("Jane Doe is here", EntityKind::Person));
//!
//! let qa = QaModel::pretrained();
//! assert!(qa.has_answer("Instructor: Jane Doe.", "Who is the instructor?"));
//! ```

#![warn(missing_docs)]

mod embedding;
pub mod lexicon;
mod ner;
mod qa;
pub mod text;

pub use embedding::{
    best_keyword_similarity, embed, keyword_similarity, Embedding, KeywordMatcher, WordEmbeddings,
};
pub use ner::{Entity, EntityKind, EntityRecognizer};
pub use qa::{AnswerType, QaAnswer, QaModel};
