//! Task-level caches and interned scoring kernels for the synthesis hot
//! path.
//!
//! Everything in this module is *semantics-free* acceleration: the same
//! scores, masks, and classifications the definitional code paths
//! compute, produced from precomputed tables instead of repeated string
//! work. `SynthConfig::reference()` disables all of it
//! (`reference_kernels = true`) and routes every decision through the
//! original definitional evaluation — `tests/synth_parity.rs` proves the
//! two paths observationally identical on the whole corpus.
//!
//! Four layers:
//!
//! * [`TaskCtx`] — one per [`crate::synthesize`] call: the filter /
//!   predicate / production pools, plus (optimized mode only) per-node
//!   [`TextFeatures`] and the `[example][filter][node]` mask table every
//!   guard enumeration reads instead of re-evaluating `NodeFilter`s.
//! * [`StrTable`] — one per synthesis worker: each distinct extractor
//!   output string gets a dense [`StrId`] and its token ids once, and
//!   (optimized mode) each production step is memoized per
//!   `(step, id)`. Candidate [`Outputs`] are id lists over it.
//! * [`Scorer`] — one per branch problem: the gold bags interned into
//!   the worker's table, so scoring a candidate extractor is a
//!   multiset-overlap run over small integer bags indexed by string id.
//! * [`FxHasher`] — a fast non-cryptographic hasher for the behavioral
//!   signatures of candidate outputs.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use webqa_dsl::{
    Analyzer, EntityKind, Extractor, NlpPred, NodeFilter, PageNodeId, QueryContext, Truth,
};
use webqa_metrics::{BagOverlap, Counts, IdBag, SmallVec, TokenInterner};

use crate::cancel::CancelToken;
use crate::config::SynthConfig;
use crate::example::Example;
use crate::pool::{nlp_preds, node_filters};

/// FxHash (the rustc hash): fast, deterministic, non-cryptographic.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Per-string neural-module outcomes, precomputed once per node text so
/// every predicate in the pool evaluates against them without touching
/// the (mutex-guarded) context caches.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TextFeatures {
    kw: f64,
    has_answer: bool,
    entities: u8,
}

fn kind_bit(kind: EntityKind) -> u8 {
    match kind {
        EntityKind::Person => 1 << 0,
        EntityKind::Organization => 1 << 1,
        EntityKind::Date => 1 << 2,
        EntityKind::Time => 1 << 3,
        EntityKind::Location => 1 << 4,
        EntityKind::Money => 1 << 5,
    }
}

/// Computes the features of one string. `want_answer` mirrors
/// `QueryContext::has_answer`'s empty-question short-circuit. The
/// production path builds rows via [`PageFeatures::compute_over_base`]
/// (query layer over a [`PageBaseFeatures`] base); this definitional
/// one-shot form remains as the test oracle for feature↔pred agreement.
#[cfg(test)]
pub(crate) fn features_of(ctx: &QueryContext, text: &str, want_answer: bool) -> TextFeatures {
    let kw = ctx.keyword_score(text);
    let has_answer = want_answer && ctx.has_answer(text);
    let mut entities = 0u8;
    for e in ctx.entities(text) {
        entities |= kind_bit(e.kind);
    }
    TextFeatures {
        kw,
        has_answer,
        entities,
    }
}

/// `NlpPred::eval` against precomputed features — must agree with
/// `pred.eval(ctx, text)` for the features of `text` (tested in this
/// module and by the parity suite).
pub(crate) fn pred_holds(pred: &NlpPred, f: &TextFeatures) -> bool {
    match pred {
        NlpPred::MatchKeyword(t) => f.kw >= t.value(),
        NlpPred::HasAnswer => f.has_answer,
        NlpPred::HasEntity(kind) => f.entities & kind_bit(*kind) != 0,
        NlpPred::True => true,
        NlpPred::And(a, b) => pred_holds(a, f) && pred_holds(b, f),
        NlpPred::Or(a, b) => pred_holds(a, f) || pred_holds(b, f),
        NlpPred::Not(a) => !pred_holds(a, f),
    }
}

/// `NodeFilter::eval` against precomputed own/subtree features.
fn filter_holds(
    filter: &NodeFilter,
    own: &TextFeatures,
    subtree: &TextFeatures,
    is_leaf: bool,
    is_elem: bool,
) -> bool {
    match filter {
        NodeFilter::IsLeaf => is_leaf,
        NodeFilter::IsElem => is_elem,
        NodeFilter::MatchText { pred, subtree: s } => {
            pred_holds(pred, if *s { subtree } else { own })
        }
        NodeFilter::True => true,
        NodeFilter::And(a, b) => {
            filter_holds(a, own, subtree, is_leaf, is_elem)
                && filter_holds(b, own, subtree, is_leaf, is_elem)
        }
        NodeFilter::Or(a, b) => {
            filter_holds(a, own, subtree, is_leaf, is_elem)
                || filter_holds(b, own, subtree, is_leaf, is_elem)
        }
        NodeFilter::Not(a) => !filter_holds(a, own, subtree, is_leaf, is_elem),
    }
}

/// The per-page half of the task-level caches: one node's worth of
/// neural-module outcomes per tree node plus the `[filter][node]` mask
/// table over the synthesis pool — everything the search context needs
/// about a page that does not depend on the other examples of the task.
///
/// A table is a pure function of `(config, query context, page)`:
/// computing it once and reusing it across `synthesize` calls (what
/// `webqa::Engine`'s cross-request feature store does) is observationally
/// invisible — the search reads identical bytes either way. Tables are
/// *shape*-checked on use ([`PageFeatures::fits`]): a table whose node or
/// filter counts don't match falls back to a fresh computation. The
/// shape check cannot detect a table built for a *different page of the
/// same size* under the same config — callers are responsible for keying
/// stored tables by page content and query/config identity, as
/// `webqa::Engine`'s feature store does.
#[derive(Debug)]
pub struct PageFeatures {
    /// Per-node own-text features (guard classification reads these).
    pub(crate) own: Vec<TextFeatures>,
    /// `[filter][node]` masks over the node-filter pool.
    pub(crate) masks: Vec<Vec<bool>>,
}

impl PageFeatures {
    /// Computes the table for one page under one `(config, context)`
    /// pool. The pool is derived internally exactly as the search
    /// derives it, so a stored table can be handed back to any later
    /// `synthesize` call with the same config and context.
    pub fn compute(
        cfg: &crate::config::SynthConfig,
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
    ) -> PageFeatures {
        Self::compute_over(&node_filters(cfg, ctx), ctx, page)
    }

    /// [`PageFeatures::compute`] reusing a precomputed query-independent
    /// [`PageBaseFeatures`] table — only the keyword/answerability layer
    /// is recomputed; the NER entity bits and leaf/elem masks come from
    /// `base`. Byte-identical to [`PageFeatures::compute`] whenever
    /// `base` was computed for the same page under the same neural
    /// modules ([`PageBaseFeatures::compute`] documents that contract);
    /// a `base` whose node count doesn't match the page falls back to a
    /// fresh computation.
    pub fn compute_with_base(
        cfg: &crate::config::SynthConfig,
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
        base: &PageBaseFeatures,
    ) -> PageFeatures {
        Self::compute_over_base(&node_filters(cfg, ctx), ctx, page, base)
    }

    /// [`PageFeatures::compute`] against an already-built filter pool
    /// (the internal path — avoids re-deriving the pool per example).
    pub(crate) fn compute_over(
        filters: &[NodeFilter],
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
    ) -> PageFeatures {
        Self::compute_over_base(filters, ctx, page, &PageBaseFeatures::compute(ctx, page))
    }

    /// The shared lower half of `compute_over` / `compute_with_base`:
    /// layers the query-dependent features (keyword scores, QA
    /// answerability) over a query-independent base, then evaluates the
    /// filter pool against the combined per-node features.
    pub(crate) fn compute_over_base(
        filters: &[NodeFilter],
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
        base: &PageBaseFeatures,
    ) -> PageFeatures {
        if !base.fits(page.len()) {
            // A stale/foreign base table: recompute rather than risk
            // mismatched rows (mirrors the `fits` guard on full tables).
            let fresh = PageBaseFeatures::compute(ctx, page);
            return Self::compute_over_base(filters, ctx, page, &fresh);
        }
        let want_answer = !ctx.question().is_empty();
        let own: Vec<TextFeatures> = page
            .iter()
            .map(|n| {
                let text = page.text(n);
                TextFeatures {
                    kw: ctx.keyword_score(text),
                    has_answer: want_answer && ctx.has_answer(text),
                    entities: base.own_entities[n.index()],
                }
            })
            .collect();
        let sub: Vec<TextFeatures> = page
            .iter()
            .map(|n| {
                let text = page.subtree_text(n);
                TextFeatures {
                    kw: ctx.keyword_score(&text),
                    has_answer: want_answer && ctx.has_answer(&text),
                    entities: base.sub_entities[n.index()],
                }
            })
            .collect();
        let masks: Vec<Vec<bool>> = filters
            .iter()
            .map(|f| {
                page.iter()
                    .map(|n| {
                        filter_holds(
                            f,
                            &own[n.index()],
                            &sub[n.index()],
                            base.leaf[n.index()],
                            base.elem[n.index()],
                        )
                    })
                    .collect()
            })
            .collect();
        PageFeatures { own, masks }
    }

    /// Whether this table was built over a pool of `filters` filters and
    /// a page of `nodes` nodes — the shape check guarding reuse.
    pub fn fits(&self, filters: usize, nodes: usize) -> bool {
        self.own.len() == nodes
            && self.masks.len() == filters
            && self.masks.iter().all(|m| m.len() == nodes)
    }
}

/// The query-independent half of a page's feature table: NER entity
/// bits for every node's own and subtree text, plus the structural
/// leaf/elem masks. Everything here is a pure function of *page
/// content* under the pretrained neural modules — no question, keyword,
/// or synthesis-config input — which is what lets `webqa::Engine`'s
/// feature store share one base table across *different* questions over
/// the same page, and persist it to disk keyed by content digest alone.
///
/// Contract: [`PageBaseFeatures::compute`] reads only
/// [`QueryContext::entities`] (the NER module) and the page's structure.
/// A context built with custom models
/// (`QueryContext::with_models`) may recognize different entities;
/// callers caching base tables across contexts are responsible for only
/// doing so under the pretrained defaults (as `webqa::Engine` does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBaseFeatures {
    /// Per-node entity-kind bitmask of the node's own text.
    own_entities: Vec<u8>,
    /// Per-node entity-kind bitmask of the node's subtree text.
    sub_entities: Vec<u8>,
    /// Per-node `is_leaf`.
    leaf: Vec<bool>,
    /// Per-node `is_elem`.
    elem: Vec<bool>,
}

impl PageBaseFeatures {
    /// Computes the query-independent table for one page. Only the NER
    /// module of `ctx` is consulted (see the type docs for the
    /// pretrained-models contract).
    pub fn compute(ctx: &QueryContext, page: &webqa_dsl::PageTree) -> PageBaseFeatures {
        let entity_bits = |text: &str| {
            let mut bits = 0u8;
            for e in ctx.entities(text) {
                bits |= kind_bit(e.kind);
            }
            bits
        };
        PageBaseFeatures {
            own_entities: page.iter().map(|n| entity_bits(page.text(n))).collect(),
            sub_entities: page
                .iter()
                .map(|n| entity_bits(&page.subtree_text(n)))
                .collect(),
            leaf: page.iter().map(|n| page.is_leaf(n)).collect(),
            elem: page.iter().map(|n| page.is_elem(n)).collect(),
        }
    }

    /// Number of nodes this table covers.
    pub fn nodes(&self) -> usize {
        self.own_entities.len()
    }

    /// Whether this table was built over a page of `nodes` nodes.
    pub fn fits(&self, nodes: usize) -> bool {
        self.own_entities.len() == nodes
            && self.sub_entities.len() == nodes
            && self.leaf.len() == nodes
            && self.elem.len() == nodes
    }

    /// The raw per-node columns `(own_entities, sub_entities, leaf,
    /// elem)` — the serialization surface for `webqa`'s on-disk
    /// snapshot.
    pub fn parts(&self) -> (&[u8], &[u8], &[bool], &[bool]) {
        (
            &self.own_entities,
            &self.sub_entities,
            &self.leaf,
            &self.elem,
        )
    }

    /// Rebuilds a table from its [`parts`](PageBaseFeatures::parts)
    /// columns (the deserialization surface). `None` unless all four
    /// columns have equal length.
    pub fn from_parts(
        own_entities: Vec<u8>,
        sub_entities: Vec<u8>,
        leaf: Vec<bool>,
        elem: Vec<bool>,
    ) -> Option<PageBaseFeatures> {
        let n = own_entities.len();
        if sub_entities.len() != n || leaf.len() != n || elem.len() != n {
            return None;
        }
        Some(PageBaseFeatures {
            own_entities,
            sub_entities,
            leaf,
            elem,
        })
    }
}

/// One extractor production step, applied to parent outputs without
/// materializing the child AST (the AST is built only for candidates that
/// survive pruning and behavioral dedup).
#[derive(Debug, Clone)]
pub(crate) enum StepOp {
    /// `Filter(e, φ)`.
    Filter(NlpPred),
    /// `Substring(e, φ, k)`.
    Substring(NlpPred, usize),
    /// `Split(e, c)`.
    Split(char),
}

/// Page-independent facts the abstract interpreter
/// ([`webqa_dsl::analysis`]) derives about the synthesis pools, computed
/// once per task. Every fact is a theorem about the definitional
/// semantics under this task's `QueryContext`, so prunes keyed on them
/// are *sound*: they only skip candidates that provably cannot classify
/// or produce output. Crucially the facts depend only on `(cfg, ctx)` —
/// never on the kernel mode — so reference and optimized runs make
/// identical prune decisions (`tests/synth_parity.rs`).
pub(crate) struct AnalysisFacts {
    /// `SynthConfig::analysis` — when false, no fact is consulted.
    pub enabled: bool,
    /// Abstract truth of each guard predicate, aligned with
    /// [`TaskCtx::guard_preds`]. `False` entries can never hold on a
    /// positive example; `True` entries hold on every non-empty node set.
    pub guard_pred_truth: Vec<Truth>,
    /// Production steps proven to map *every* input string to `∅`
    /// (a `Filter` whose predicate is `⊥`, a `Substring` whose predicate
    /// extracts nothing), aligned with [`TaskCtx::steps`].
    pub step_dead: Vec<bool>,
    /// For each filter `fi` of [`TaskCtx::filters`], the earlier (weaker)
    /// filters `fj < fi` with `filters[fi] ⇒ filters[fj]`: whenever `fj`
    /// selects no nodes from a frontier, `fi` cannot either.
    pub filter_implied: Vec<Vec<usize>>,
}

impl AnalysisFacts {
    fn compute(
        cfg: &SynthConfig,
        ctx: &QueryContext,
        filters: &[NodeFilter],
        guard_preds: &[NlpPred],
        steps: &[StepOp],
    ) -> Self {
        let analyzer = Analyzer::new(ctx);
        AnalysisFacts {
            enabled: cfg.analysis,
            guard_pred_truth: guard_preds.iter().map(|p| analyzer.pred_truth(p)).collect(),
            step_dead: steps
                .iter()
                .map(|s| match s {
                    StepOp::Filter(p) => analyzer.pred_truth(p) == Truth::False,
                    StepOp::Substring(p, k) => *k == 0 || analyzer.pred_extract_empty(p),
                    StepOp::Split(_) => false,
                })
                .collect(),
            filter_implied: (0..filters.len())
                .map(|fi| {
                    (0..fi)
                        .filter(|&fj| analyzer.filter_implies(&filters[fi], &filters[fj]))
                        .collect()
                })
                .collect(),
        }
    }
}

/// Per-`synthesize`-call context: pools plus the optimized-mode caches.
pub(crate) struct TaskCtx<'a> {
    pub cfg: &'a SynthConfig,
    pub ctx: &'a QueryContext,
    pub examples: &'a [Example],
    /// The node-filter pool (`GetChildren`/`GetDescendants` filters).
    pub filters: Vec<NodeFilter>,
    /// The guard predicate pool, in `gen_guards` order: `⊤` first, then
    /// the NLP predicates.
    pub guard_preds: Vec<NlpPred>,
    /// The extractor production pool, in `extend_extractor` order.
    pub steps: Vec<StepOp>,
    /// Sound page-independent verdicts about the pools (see
    /// [`AnalysisFacts`]); consulted by the analysis prune when
    /// `cfg.analysis` is set.
    pub analysis: AnalysisFacts,
    /// Cooperative cancellation handle, checkpointed once per guard step
    /// by the branch synthesizer (shared by the branch-parallel workers).
    pub cancel: CancelToken,
    /// Optimized mode: one feature/mask table per example, either
    /// borrowed from the caller (the engine's cross-request store) or
    /// computed here. Empty in reference mode.
    tables: Vec<Arc<PageFeatures>>,
}

impl<'a> TaskCtx<'a> {
    /// The no-borrowed-tables, never-cancelled convenience.
    #[cfg(test)]
    pub fn new(cfg: &'a SynthConfig, ctx: &'a QueryContext, examples: &'a [Example]) -> Self {
        Self::with_features_cancel(cfg, ctx, examples, &[], CancelToken::never())
    }

    /// The per-task context, with caller-supplied feature tables aligned
    /// with `examples` (missing or shape-mismatched entries are computed
    /// fresh) and a caller-supplied [`CancelToken`]. Reused tables are
    /// observationally invisible: the table is a pure function of
    /// `(cfg, ctx, page)`, so the search reads the same bytes whether the
    /// table was borrowed or rebuilt. The branch synthesizer checkpoints
    /// the token once per guard step; a never-token makes those
    /// checkpoints free-ish atomic increments.
    pub fn with_features_cancel(
        cfg: &'a SynthConfig,
        ctx: &'a QueryContext,
        examples: &'a [Example],
        features: &[Arc<PageFeatures>],
        cancel: CancelToken,
    ) -> Self {
        let filters = node_filters(cfg, ctx);
        let preds = nlp_preds(cfg, ctx);
        let mut guard_preds = vec![NlpPred::True];
        guard_preds.extend(preds.iter().cloned());
        let mut steps = Vec::new();
        for pred in &preds {
            steps.push(StepOp::Filter(pred.clone()));
            for &k in &cfg.substring_ks {
                steps.push(StepOp::Substring(pred.clone(), k));
            }
        }
        for &c in &cfg.delimiters {
            steps.push(StepOp::Split(c));
        }
        let analysis = AnalysisFacts::compute(cfg, ctx, &filters, &guard_preds, &steps);

        let tables = if cfg.reference_kernels {
            Vec::new()
        } else {
            examples
                .iter()
                .enumerate()
                .map(|(i, ex)| {
                    match features.get(i) {
                        Some(t) if t.fits(filters.len(), ex.page.len()) => Arc::clone(t),
                        // Absent or built under a different pool/page:
                        // compute fresh rather than read wrong masks.
                        _ => Arc::new(PageFeatures::compute_over(&filters, ctx, &ex.page)),
                    }
                })
                .collect()
        };
        TaskCtx {
            cfg,
            ctx,
            examples,
            filters,
            guard_preds,
            steps,
            analysis,
            cancel,
            tables,
        }
    }

    /// The precomputed mask of `filter` over `example`'s nodes
    /// (optimized mode only).
    pub fn mask(&self, example: usize, filter: usize) -> &[bool] {
        &self.tables[example].masks[filter]
    }

    /// The own-text features of `example`'s nodes (optimized mode only).
    pub fn feats(&self, example: usize) -> &[TextFeatures] {
        &self.tables[example].own
    }
}

/// Dense id of one distinct string in a worker's [`StrTable`]. Two ids
/// of one table are equal exactly when their contents are.
pub(crate) type StrId = u32;

/// A candidate extractor's outputs on every positive example of a
/// branch, as string ids in one flat list: example `i`'s outputs are
/// `ids[ends[i - 1]..ends[i]]` (with `ends[-1] = 0`).
#[derive(Debug, Clone, Default)]
pub(crate) struct Outputs {
    ids: Vec<StrId>,
    ends: SmallVec<u32, 8>,
}

impl Outputs {
    /// Closes the current example's output list.
    fn end_example(&mut self) {
        self.ends.push(self.ids.len() as u32);
    }

    /// The per-example output lists, in example order.
    pub fn examples(&self) -> impl Iterator<Item = &[StrId]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(self.ends.iter())
            .map(|(a, &b)| &self.ids[a as usize..b as usize])
    }

    /// Whether every example's output list is empty.
    pub fn all_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The memo of one production step on one input string.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// `Filter`: whether the predicate holds (the output is the input).
    Keep(bool),
    /// `Substring` / `Split`: the outputs are `arena[start..end]`.
    Range(u32, u32),
}

/// The string table of one synthesis worker: every distinct extractor
/// output string gets a dense [`StrId`] once, with its scoring token ids
/// (from the table's [`TokenInterner`], which also interns the gold
/// bags). Optimized mode also memoizes each production step per
/// `(step, id)`, so a step runs once per distinct input string for the
/// worker's whole lifetime — across every branch problem it solves.
///
/// A table is owned by exactly one worker (one per task at `jobs = 1`):
/// no locks, and ids never cross tables.
pub(crate) struct StrTable {
    /// Content → id. Keyed by page text, which clients supply, so it
    /// keeps the standard library's seeded hasher.
    ids: HashMap<Rc<str>, StrId>,
    strings: Vec<Rc<str>>,
    /// String `i`'s token ids are `tokens[token_ends[i]..token_ends[i + 1]]`.
    token_ends: Vec<u32>,
    tokens: Vec<u32>,
    interner: TokenInterner,
    /// `[step][id]` step memo, filled on first use (optimized mode only).
    slots: Vec<Vec<Option<Slot>>>,
    /// The outputs of every filled `Substring`/`Split` slot.
    arena: Vec<StrId>,
    /// Per-id stamp of the example run that last saw the string: the
    /// first-occurrence filter of [`Scorer::counts_dedup`].
    seen: Vec<u64>,
    epoch: u64,
}

impl StrTable {
    /// An empty table for a task with `steps` production steps.
    pub fn new(steps: usize) -> Self {
        StrTable {
            ids: HashMap::default(),
            strings: Vec::new(),
            token_ends: vec![0],
            tokens: Vec::new(),
            interner: TokenInterner::new(),
            slots: vec![Vec::new(); steps],
            arena: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
        }
    }

    /// The id of `s`, assigning (and tokenizing) it on first sight.
    fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as StrId;
        let s: Rc<str> = Rc::from(s);
        self.tokens.extend(self.interner.tokenize_ids(&s).iter());
        self.token_ends.push(self.tokens.len() as u32);
        self.strings.push(Rc::clone(&s));
        self.ids.insert(s, id);
        id
    }

    fn str(&self, id: StrId) -> &str {
        &self.strings[id as usize]
    }

    fn tokens(&self, id: StrId) -> &[u32] {
        let i = id as usize;
        &self.tokens[self.token_ends[i] as usize..self.token_ends[i + 1] as usize]
    }

    /// Appends step `si`'s outputs on `id` to `out`, filling its slot on
    /// first use.
    fn apply(
        &mut self,
        ctx: &QueryContext,
        si: usize,
        step: &StepOp,
        id: StrId,
        out: &mut Vec<StrId>,
    ) {
        let i = id as usize;
        if self.slots[si].len() <= i {
            self.slots[si].resize(self.strings.len(), None);
        }
        let slot = match self.slots[si][i] {
            Some(slot) => slot,
            None => {
                let s = Rc::clone(&self.strings[i]);
                let slot = match step {
                    StepOp::Filter(pred) => Slot::Keep(pred.eval(ctx, &s)),
                    _ => {
                        let start = self.arena.len() as u32;
                        apply_step_one(ctx, step, &s, |piece| {
                            let piece = self.intern(piece);
                            self.arena.push(piece);
                        });
                        Slot::Range(start, self.arena.len() as u32)
                    }
                };
                self.slots[si][i] = Some(slot);
                slot
            }
        };
        match slot {
            Slot::Keep(true) => out.push(id),
            Slot::Keep(false) => {}
            Slot::Range(start, end) => {
                out.extend_from_slice(&self.arena[start as usize..end as usize])
            }
        }
    }

    /// Starts a new first-occurrence run over this table's ids.
    fn next_epoch(&mut self) -> u64 {
        self.seen.resize(self.strings.len(), 0);
        self.epoch += 1;
        self.epoch
    }
}

/// Per-branch scoring state: the positive examples with their gold bags
/// interned into the worker's [`StrTable`], which every candidate's
/// outputs index.
pub(crate) struct Scorer<'a, 't> {
    reference: bool,
    /// The branch's positive examples (scoring targets), in order.
    pub pos: Vec<&'a Example>,
    table: &'t mut StrTable,
    gold: Vec<IdBag>,
    overlap: BagOverlap,
}

impl<'a, 't> Scorer<'a, 't> {
    pub fn new(task: &TaskCtx<'a>, table: &'t mut StrTable, pos: &[usize]) -> Self {
        let pos: Vec<&Example> = pos.iter().map(|&i| &task.examples[i]).collect();
        let gold = pos
            .iter()
            .map(|ex| {
                IdBag::from_ids(
                    ex.gold_tokens()
                        .iter()
                        .map(|t| table.interner.intern(t))
                        .collect(),
                )
            })
            .collect();
        Scorer {
            reference: task.cfg.reference_kernels,
            pos,
            table,
            gold,
            overlap: BagOverlap::default(),
        }
    }

    /// Total gold tokens across the branch's positive examples. The
    /// emptiness prune is gated on this being positive: with no gold
    /// tokens an empty output scores a (vacuous) perfect F₁ and must stay
    /// enumerable.
    pub fn gold_total(&self) -> usize {
        self.gold.iter().map(webqa_metrics::IdBag::total).sum()
    }

    /// The outputs of `ExtractContent` on each positive example's
    /// located nodes — the seed of the extractor search.
    pub fn seed(&mut self, task: &TaskCtx, nodes: &[Vec<PageNodeId>]) -> Outputs {
        let mut out = Outputs::default();
        for (ex, ns) in self.pos.iter().zip(nodes) {
            for s in Extractor::Content.eval(task.ctx, &ex.page, ns) {
                out.ids.push(self.table.intern(&s));
            }
            out.end_example();
        }
        out
    }

    /// The outputs resolved to their strings (the reference kernels'
    /// input).
    fn resolve(&self, outputs: &Outputs) -> Vec<Vec<&str>> {
        outputs
            .examples()
            .map(|ids| ids.iter().map(|&id| self.table.str(id)).collect())
            .collect()
    }

    /// Micro-averaged counts of the raw per-example output multisets —
    /// the `UB` input of Eq. 3.
    pub fn counts_raw(&mut self, outputs: &Outputs) -> Counts {
        self.counts(outputs, false)
    }

    /// Micro-averaged counts under the program-level set semantics:
    /// per-example duplicate strings are counted once (Figure 6).
    pub fn counts_dedup(&mut self, outputs: &Outputs) -> Counts {
        self.counts(outputs, true)
    }

    fn counts(&mut self, outputs: &Outputs, dedup: bool) -> Counts {
        if self.reference {
            return crate::example::counts_of_outputs_ref(&self.pos, &self.resolve(outputs), dedup);
        }
        let mut total = Counts::default();
        for (ids, gold) in outputs.examples().zip(&self.gold) {
            // Id equality is content equality, so the set semantics is a
            // first-occurrence stamp per id.
            let epoch = if dedup { self.table.next_epoch() } else { 0 };
            self.overlap.begin(gold);
            for &id in ids {
                if dedup && std::mem::replace(&mut self.table.seen[id as usize], epoch) == epoch {
                    continue;
                }
                let tokens = self.table.tokens(id);
                total.predicted += tokens.len();
                total.matched += tokens
                    .iter()
                    .filter(|&&t| self.overlap.consume(gold, t))
                    .count();
            }
            total.gold += gold.total();
        }
        total
    }

    /// Applies production step `si` of the task's pool to the parent's
    /// outputs. Optimized mode copies each input's memoized outputs from
    /// the table (computing a step once per distinct input string);
    /// reference mode evaluates every application definitionally.
    pub fn apply_step(&mut self, task: &TaskCtx, si: usize, parent: &Outputs) -> Outputs {
        let step = &task.steps[si];
        let mut out = Outputs {
            ids: Vec::with_capacity(parent.ids.len()),
            ..Outputs::default()
        };
        for ids in parent.examples() {
            for &id in ids {
                if self.reference {
                    let s = Rc::clone(&self.table.strings[id as usize]);
                    apply_step_one(task.ctx, step, &s, |piece| {
                        out.ids.push(self.table.intern(piece));
                    });
                } else {
                    self.table.apply(task.ctx, si, step, id, &mut out.ids);
                }
            }
            out.end_example();
        }
        out
    }

    /// Order-sensitive behavioral signature of per-example outputs. The
    /// optimized path hashes the ids with [`FxHasher`]; the reference
    /// path hashes the nested strings with the standard library's
    /// SipHash.
    pub fn signature(&self, outputs: &Outputs) -> u64 {
        if self.reference {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.resolve(outputs).hash(&mut h);
            return h.finish();
        }
        let mut h = FxHasher::default();
        for &word in outputs.ends.iter().chain(&outputs.ids) {
            h.write_u64(u64::from(word));
        }
        h.finish()
    }
}

/// One production step on one string, definitionally: `emit` receives
/// each output string in order.
fn apply_step_one(ctx: &QueryContext, step: &StepOp, s: &str, mut emit: impl FnMut(&str)) {
    match step {
        StepOp::Filter(pred) => {
            if pred.eval(ctx, s) {
                emit(s);
            }
        }
        StepOp::Substring(pred, k) => {
            for piece in pred.extract(ctx, s).iter().take(*k) {
                emit(piece);
            }
        }
        StepOp::Split(c) => {
            for piece in s.split(*c).map(str::trim).filter(|p| !p.is_empty()) {
                emit(piece);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use webqa_dsl::{PageTree, Threshold};

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the students?", ["Students", "PhD"])
    }

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn features_agree_with_pred_eval() {
        let c = ctx();
        let texts = [
            "PhD Students",
            "Jane Doe",
            "reading group, hiking",
            "Robert Smith since 2019",
            "",
        ];
        let preds = [
            NlpPred::True,
            NlpPred::MatchKeyword(Threshold::new(0.5)),
            NlpPred::MatchKeyword(Threshold::new(0.95)),
            NlpPred::HasAnswer,
            NlpPred::HasEntity(EntityKind::Person),
            NlpPred::HasEntity(EntityKind::Date),
            NlpPred::Not(Box::new(NlpPred::HasEntity(EntityKind::Money))),
            NlpPred::And(
                Box::new(NlpPred::MatchKeyword(Threshold::new(0.5))),
                Box::new(NlpPred::True),
            ),
        ];
        for text in texts {
            let f = features_of(&c, text, !c.question().is_empty());
            for p in &preds {
                assert_eq!(
                    pred_holds(p, &f),
                    p.eval(&c, text),
                    "pred {p:?} on {text:?}"
                );
            }
        }
    }

    #[test]
    fn base_split_reproduces_the_full_table() {
        let cfg = SynthConfig::fast();
        let page = PageTree::parse(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
             <h2>Contact</h2><p>a@x.edu</p>",
        );
        let assert_tables_equal = |a: &PageFeatures, b: &PageFeatures| {
            assert_eq!(a.masks, b.masks);
            assert_eq!(a.own.len(), b.own.len());
            for (x, y) in a.own.iter().zip(&b.own) {
                assert_eq!(x.kw, y.kw);
                assert_eq!(x.has_answer, y.has_answer);
                assert_eq!(x.entities, y.entities);
            }
        };

        let c = ctx();
        let base = PageBaseFeatures::compute(&c, &page);
        assert!(base.fits(page.len()));
        assert_tables_equal(
            &PageFeatures::compute(&cfg, &c, &page),
            &PageFeatures::compute_with_base(&cfg, &c, &page, &base),
        );

        // The same base serves a *different* question over the page —
        // the whole point of the query-independent split.
        let c2 = QueryContext::new("What is the contact email?", ["Contact"]);
        assert_tables_equal(
            &PageFeatures::compute(&cfg, &c2, &page),
            &PageFeatures::compute_with_base(&cfg, &c2, &page, &base),
        );

        // A base of the wrong shape falls back to a fresh computation
        // instead of producing mismatched rows.
        let stale = PageBaseFeatures::from_parts(vec![0], vec![0], vec![true], vec![true]).unwrap();
        assert!(!stale.fits(page.len()));
        assert_tables_equal(
            &PageFeatures::compute(&cfg, &c, &page),
            &PageFeatures::compute_with_base(&cfg, &c, &page, &stale),
        );

        // parts/from_parts round-trips; ragged columns are rejected.
        let (own, sub, leaf, elem) = base.parts();
        let rebuilt =
            PageBaseFeatures::from_parts(own.to_vec(), sub.to_vec(), leaf.to_vec(), elem.to_vec())
                .unwrap();
        assert_eq!(rebuilt, base);
        assert!(PageBaseFeatures::from_parts(vec![0], vec![], vec![], vec![]).is_none());
    }

    #[test]
    fn masks_agree_with_direct_filter_eval() {
        let c = ctx();
        let cfg = SynthConfig::fast();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
             <h2>Contact</h2><p>a@x.edu</p>",
            &["Jane Doe", "Bob Smith"],
        )];
        let task = TaskCtx::new(&cfg, &c, &examples);
        for (fi, filter) in task.filters.iter().enumerate() {
            let mask = task.mask(0, fi);
            for n in examples[0].page.iter() {
                assert_eq!(
                    mask[n.index()],
                    filter.eval(&c, &examples[0].page, n),
                    "filter {filter} node {}",
                    n.index()
                );
            }
        }
    }

    /// Builds id outputs from per-example strings.
    fn outputs_of(table: &mut StrTable, strings: &[&[&str]]) -> Outputs {
        let mut out = Outputs::default();
        for example in strings {
            for s in *example {
                out.ids.push(table.intern(s));
            }
            out.end_example();
        }
        out
    }

    #[test]
    fn scorer_counts_match_reference_counts() {
        let c = ctx();
        let cfg_fast = SynthConfig::fast();
        let cfg_ref = SynthConfig::fast().with_reference_kernels();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                &["Jane Doe"],
            ),
            example(
                "<h1>B</h1><h2>PhD</h2><ul><li>Bob Smith</li></ul>",
                &["Bob Smith", "Jane Doe"],
            ),
        ];
        let task_fast = TaskCtx::new(&cfg_fast, &c, &examples);
        let task_ref = TaskCtx::new(&cfg_ref, &c, &examples);
        let strings: [&[&str]; 2] = [&["Jane Doe", "Jane Doe", "noise"], &["Bob Smith", ""]];
        let (mut table_fast, mut table_ref) = (StrTable::new(0), StrTable::new(0));
        let outputs_fast = outputs_of(&mut table_fast, &strings);
        let outputs_ref = outputs_of(&mut table_ref, &strings);
        let mut fast = Scorer::new(&task_fast, &mut table_fast, &[0, 1]);
        let mut slow = Scorer::new(&task_ref, &mut table_ref, &[0, 1]);
        assert_eq!(
            fast.counts_raw(&outputs_fast),
            slow.counts_raw(&outputs_ref)
        );
        assert_eq!(
            fast.counts_dedup(&outputs_fast),
            slow.counts_dedup(&outputs_ref)
        );
        // Dedup drops the duplicate "Jane Doe" but keeps distinct strings.
        let raw = fast.counts_raw(&outputs_fast);
        let dedup = fast.counts_dedup(&outputs_fast);
        assert_eq!(raw.predicted, dedup.predicted + 2);
    }

    #[test]
    fn one_content_from_two_productions_is_one_id() {
        let c = ctx();
        let cfg = SynthConfig::fast();
        let examples = vec![example("<p>Advisor: Jane Doe</p>", &["Jane Doe"])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let steps = [
            StepOp::Split(':'),
            StepOp::Substring(NlpPred::HasEntity(EntityKind::Person), 1),
        ];
        let mut table = StrTable::new(steps.len());
        let input = table.intern("Advisor: Jane Doe");
        let (mut split, mut substring) = (Vec::new(), Vec::new());
        table.apply(&c, 0, &steps[0], input, &mut split);
        table.apply(&c, 1, &steps[1], input, &mut substring);
        let names: Vec<&str> = split.iter().map(|&id| table.str(id)).collect();
        assert_eq!(names, ["Advisor", "Jane Doe"]);
        assert_eq!(substring.len(), 1);
        assert_eq!(table.str(substring[0]), "Jane Doe");
        assert_eq!(split[1], substring[0], "equal content must share one id");

        // Both copies in one example's outputs count once under the set
        // semantics, exactly as the definitional kernel counts them.
        let mut out = Outputs::default();
        out.ids.extend(split.iter().chain(&substring));
        out.end_example();
        let resolved: Vec<Vec<String>> = vec![out
            .ids
            .iter()
            .map(|&id| table.str(id).to_string())
            .collect()];
        let pos: Vec<&Example> = examples.iter().collect();
        let dedup = crate::example::counts_of_outputs_ref(&pos, &resolved, true);
        let raw = crate::example::counts_of_outputs_ref(&pos, &resolved, false);
        let mut scorer = Scorer::new(&task, &mut table, &[0]);
        assert_eq!(scorer.counts_dedup(&out), dedup);
        assert_eq!(scorer.counts_raw(&out), raw);
        assert_eq!(dedup.predicted, 3, "advisor + jane doe, once");
        assert_eq!(raw.predicted, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// On random generator pages, two levels of production steps
        /// applied through the table's memo: every filled `(step, id)`
        /// slot equals the definitional step on the resolved string, and
        /// the id-path counts equal the definitional string counts.
        #[test]
        fn table_slots_and_counts_match_definitional(seed in 0u64..10_000, t in 0usize..25) {
            let task_def = &webqa_corpus::TASKS[t];
            let c = QueryContext::new(task_def.question, task_def.keywords.to_vec());
            let examples: Vec<Example> = webqa_corpus::generate_pages(task_def.domain, 2, seed)
                .iter()
                .map(|p| Example::new(p.tree(), p.gold(task_def.id).to_vec()))
                .collect();
            let cfg = SynthConfig::fast();
            let task = TaskCtx::new(&cfg, &c, &examples);
            let nodes: Vec<Vec<PageNodeId>> = examples
                .iter()
                .map(|ex| webqa_dsl::Locator::leaves(webqa_dsl::Locator::Root).eval(&c, &ex.page))
                .collect();
            let mut table = StrTable::new(task.steps.len());
            let mut scorer = Scorer::new(&task, &mut table, &[0, 1]);
            let mut frontier = vec![scorer.seed(&task, &nodes)];
            let mut all = frontier.clone();
            for _ in 0..2 {
                let mut next = Vec::new();
                for parent in &frontier {
                    for si in 0..task.steps.len() {
                        let child = scorer.apply_step(&task, si, parent);
                        if !child.all_empty() {
                            next.push(child);
                        }
                    }
                }
                all.extend(next.iter().cloned());
                frontier = next;
                frontier.truncate(8);
            }
            for outputs in &all {
                for dedup in [false, true] {
                    let expect = crate::example::counts_of_outputs_ref(
                        &scorer.pos,
                        &scorer.resolve(outputs),
                        dedup,
                    );
                    prop_assert_eq!(scorer.counts(outputs, dedup), expect);
                }
            }
            let mut filled = 0usize;
            for (si, slots) in table.slots.iter().enumerate() {
                for (id, slot) in slots.iter().enumerate() {
                    let mut expect = Vec::new();
                    apply_step_one(&c, &task.steps[si], table.str(id as StrId), |p| {
                        expect.push(p.to_string());
                    });
                    let got: Vec<&str> = match *slot {
                        None => continue,
                        Some(Slot::Keep(keep)) => {
                            if keep { vec![table.str(id as StrId)] } else { Vec::new() }
                        }
                        Some(Slot::Range(start, end)) => table.arena[start as usize..end as usize]
                            .iter()
                            .map(|&out| table.str(out))
                            .collect(),
                    };
                    prop_assert_eq!(got, expect);
                    filled += 1;
                }
            }
            prop_assert!(filled > 0);
        }
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash("abc"), hash("abc"));
        assert_ne!(hash("abc"), hash("abd"));
    }
}
