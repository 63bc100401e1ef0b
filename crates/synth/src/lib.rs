//! # webqa-synth
//!
//! Optimal neurosymbolic program synthesis — the algorithms of Section 5
//! of the paper:
//!
//! * [`synthesize`] — top-level `Synthesize` (Figure 7): enumerates
//!   ordered example partitions and returns **all** programs with optimal
//!   token-level F₁ on the labeled pages;
//! * `SynthesizeBranch` (Figure 8) with guard/extractor decomposition and
//!   per-locator memoization (footnote 6);
//! * `SynthesizeExtractors` (Figure 9): bottom-up enumeration with
//!   `UB = 2R/(1+R)` pruning (Eq. 3), sound by recall monotonicity
//!   (Theorem A.3);
//! * `GetNextGuard` (Figure 10): lazy guard enumeration whose pruning
//!   strengthens as the caller's optimum rises.
//!
//! The Section 8.2 ablations are configuration flags:
//! [`SynthConfig::without_pruning`] (`WebQA-NoPrune`) and
//! [`SynthConfig::without_decomposition`] (`WebQA-NoDecomp`).
//!
//! ## Hot-path architecture
//!
//! The enumerative search scores hundreds of thousands of candidate
//! terms per task; the implementation keeps that affordable with four
//! semantics-free layers (each disabled by
//! [`SynthConfig::reference`], which swaps in the original definitional
//! kernels — `tests/synth_parity.rs` proves the two paths
//! observationally identical on the full corpus):
//!
//! * **String-table scoring** (`scorer` module): each synthesis worker
//!   owns one string table that gives every distinct extractor output
//!   string a dense `u32` id and its token ids
//!   (`webqa_metrics::TokenInterner`) once. Candidate outputs are id
//!   lists; F₁ counts are multiset overlaps over small integer bags, and
//!   dedup and behavioral signatures compare ids — no tokenization or
//!   string hashing per candidate. The `UB = 2R/(1+R)` ceiling (Eq. 3)
//!   runs on per-node dense gold-id bags precomputed in [`Example`].
//! * **Task-level mask tables**: every `NodeFilter` in the pool is
//!   evaluated once per (example, node) — via a single neural-feature
//!   pass per node text — and the `[example][filter][node]` mask table
//!   is shared by every branch problem of the task, instead of being
//!   recomputed per `SynthesizeBranch` call.
//! * **Arena-indexed locator memo**: the guard enumerator keeps its
//!   locator entries (with their propagated node sets and recall
//!   ceilings) in an arena and yields `(guard, entry id)`; the footnote 6
//!   extractor-synthesis memo is a dense vector over those ids holding
//!   `Arc`-shared results — no locator cloning/hashing, no node
//!   re-propagation, no group deep-copies.
//! * **Step-wise extractor enumeration**: children are generated as
//!   production steps applied to the parent's id outputs. The table
//!   memoizes each step per `(step, id)` — an id-arena range for
//!   `Substring`/`Split`, a pass/fail bit for `Filter` — across every
//!   branch problem the worker solves, so a step runs once per distinct
//!   string. The UB prune fires *before* the child AST is built, so
//!   dominated candidates never materialize.
//!
//! Partition blocks can additionally be solved in parallel inside one
//! task ([`SynthConfig::jobs`]) with a deterministic merge, on
//! [`par_map_ordered`] — the ordered worker pool that `webqa`'s batch
//! runner shares.
//!
//! The search can be abandoned cooperatively: [`synthesize_cancellable`]
//! threads a [`CancelToken`] (explicit cancel, wall-clock deadline, or
//! deterministic step budget) through the enumerator loop, checked once
//! per guard step — the serving layer's per-request deadlines ride on
//! this. A cancelled search returns [`Cancelled`] and never exposes a
//! partial outcome.
//!
//! ```
//! use webqa_dsl::{PageTree, QueryContext};
//! use webqa_synth::{synthesize, Example, SynthConfig};
//!
//! let ctx = QueryContext::new("Who are the current PhD students?", ["Students", "PhD"]);
//! let page = PageTree::parse(
//!     "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
//! );
//! let examples = vec![Example::new(page, vec!["Jane Doe".into(), "Bob Smith".into()])];
//! let outcome = synthesize(&SynthConfig::fast(), &ctx, &examples);
//! assert!(outcome.f1 > 0.99);
//! assert!(!outcome.programs.is_empty());
//! ```

#![warn(missing_docs)]

mod branch;
mod cancel;
mod config;
mod example;
mod extractors;
mod guards;
pub mod oracle;
mod par;
mod pool;
mod scorer;
mod stats;
mod top;

pub use cancel::{CancelToken, Cancelled};
pub use config::SynthConfig;
pub use example::{counts_of_outputs, extractor_outputs, f1_of_outputs, program_counts, Example};
pub use par::par_map_ordered;
pub use scorer::{PageBaseFeatures, PageFeatures};
pub use stats::SynthStats;
pub use top::{synthesize, synthesize_cancellable, SynthesisOutcome};
