//! # webqa
//!
//! End-to-end WebQA: web question answering with neurosymbolic program
//! synthesis — the top-level crate of this reproduction of Chen et al.,
//! PLDI 2021 (arXiv:2104.07162).
//!
//! The centerpiece is the session-oriented [`Engine`]: pages are parsed
//! once (fallibly — [`Error`]) into a shared [`PageStore`] and referenced
//! by [`PageId`] handles, and the paper's Figure 1 pipeline runs as
//! inspectable stages:
//!
//! 1. [`Engine::prepare`] resolves a [`Task`]'s page handles and builds
//!    the synthesis examples;
//! 2. [`Prepared::synthesize`] enumerates **all** DSL programs with
//!    optimal token-F₁ on the labels (`webqa-synth`, Section 5);
//! 3. [`Synthesized::select`] picks the program whose outputs best match
//!    the ensemble's soft labels on the unlabeled pages (`webqa-select`,
//!    Section 6), keeping the ensemble for diagnostics;
//! 4. [`Selected::answers`] runs it on every unlabeled page.
//!
//! ```
//! use webqa::{Config, Engine, Task};
//!
//! let mut engine = Engine::new(Config::default());
//! let store = engine.store_mut();
//! let a = store.insert_html("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>")?;
//! let b = store.insert_html("<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>")?;
//!
//! let task = Task::new("Who are the PhD students?", ["Students"])
//!     .with_label(a, vec!["Jane Doe".into()])
//!     .with_target(b);
//!
//! let synthesized = engine.prepare(&task)?.synthesize();
//! assert!(synthesized.train_f1() > 0.99);
//! let selected = synthesized.select();
//! assert_eq!(selected.answers(), vec![vec!["Wei Chen".to_string()]]);
//! # Ok::<(), webqa::Error>(())
//! ```
//!
//! [`Engine::run`] runs the four stages back to back on one task, through
//! the engine's completed-run cache, and independent tasks batch through
//! [`Engine::run_batch`], which fans them out over the ordered worker
//! pool ([`webqa_synth::par_map_ordered`]) with deterministic,
//! input-ordered results. Both take a [`CancelToken`] — pass
//! [`CancelToken::never`] for an unbounded run.
//!
//! The crate also provides the paper's *interactive labeling* helper
//! ([`suggest_labels`], Section 7), which clusters the target pages and
//! proposes at most five representatives to label; [`Prepared`] wires it
//! into the staged loop (suggest → [`Prepared::label`] → re-synthesize).

#![warn(missing_docs)]

mod batch;
mod cache;
mod engine;
mod error;
mod labeling;
mod persist;
mod pipeline;
mod store;

pub use cache::{CacheConfig, CacheStats};
pub use engine::{Engine, Prepared, Selected, Synthesized, Task};
pub use error::Error;
pub use labeling::{suggest_labels, MAX_LABEL_REQUESTS};
pub use persist::{PersistSink, PersistStats};
pub use pipeline::{score_answers, Config, Modality, RunResult, Selection, WebQa};
pub use store::{content_digest, PageId, PageStore};

// Re-export the workspace vocabulary that appears in this crate's API.
pub use webqa_dsl::{
    lint, AnalysisReport, Analyzer, HtmlError, LintReport, PageTree, Program, QueryContext,
};
pub use webqa_metrics::Score;
pub use webqa_select::{Ensemble, SelectionConfig};
pub use webqa_synth::{CancelToken, SynthConfig, SynthesisOutcome};
