//! Enumeration pools: the finite sets of predicates, node filters, and
//! productions the bottom-up search draws from (the `ApplyProduction` and
//! `GenGuards` functions of Figures 9 and 10).

use webqa_dsl::{
    EntityKind, Extractor, Guard, Locator, NlpPred, NodeFilter, QueryContext, Threshold,
};

use crate::config::SynthConfig;

/// All entity kinds enumerable in `hasEntity`.
pub(crate) const ENTITY_KINDS: [EntityKind; 6] = [
    EntityKind::Person,
    EntityKind::Organization,
    EntityKind::Date,
    EntityKind::Time,
    EntityKind::Location,
    EntityKind::Money,
];

/// The pool of NLP predicates available to the search.
///
/// Modalities absent from the query context are omitted: without keywords
/// there is no `matchKeyword`, without a question no `hasAnswer` (this is
/// how the WebQA-NL / WebQA-KW ablations of Appendix C.1 arise).
pub(crate) fn nlp_preds(config: &SynthConfig, ctx: &QueryContext) -> Vec<NlpPred> {
    let mut pool = Vec::new();
    if !ctx.keywords().is_empty() {
        for &t in &config.thresholds {
            pool.push(NlpPred::MatchKeyword(Threshold::new(t)));
        }
    }
    if !ctx.question().is_empty() {
        pool.push(NlpPred::HasAnswer);
    }
    for kind in ENTITY_KINDS {
        pool.push(NlpPred::HasEntity(kind));
    }
    pool
}

/// The pool of node filters for `GetChildren` / `GetDescendants`.
pub(crate) fn node_filters(config: &SynthConfig, ctx: &QueryContext) -> Vec<NodeFilter> {
    let mut pool = vec![NodeFilter::True, NodeFilter::IsLeaf, NodeFilter::IsElem];
    for pred in nlp_preds(config, ctx) {
        pool.push(NodeFilter::MatchText {
            pred: pred.clone(),
            subtree: false,
        });
        pool.push(NodeFilter::MatchText {
            pred,
            subtree: true,
        });
    }
    if config.filter_conjunctions {
        // isLeaf ∧ matchText and isElem ∧ matchText — the combinations that
        // matter in practice (leaf/elem nodes with matching text).
        let texts: Vec<NodeFilter> = pool
            .iter()
            .filter(|f| matches!(f, NodeFilter::MatchText { .. }))
            .cloned()
            .collect();
        for t in texts {
            pool.push(NodeFilter::And(
                Box::new(NodeFilter::IsLeaf),
                Box::new(t.clone()),
            ));
            pool.push(NodeFilter::And(Box::new(NodeFilter::IsElem), Box::new(t)));
        }
    }
    pool
}

/// `ApplyProduction` for section locators (Figure 10, line 7): all
/// single-step extensions of `ν`. The guard enumerator applies the same
/// productions through precomputed filter masks; this definitional
/// version backs the brute-force [`crate::oracle`].
pub(crate) fn extend_locator(
    config: &SynthConfig,
    ctx: &QueryContext,
    locator: &Locator,
) -> Vec<Locator> {
    if locator.depth() >= config.guard_depth {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in node_filters(config, ctx) {
        out.push(Locator::Children(Box::new(locator.clone()), f.clone()));
        out.push(Locator::Descendants(Box::new(locator.clone()), f));
    }
    out
}

/// `GenGuards(ν)` (Figure 10, line 5): all guards over one locator.
pub(crate) fn gen_guards(
    config: &SynthConfig,
    ctx: &QueryContext,
    locator: &Locator,
) -> Vec<Guard> {
    let mut out = vec![Guard::IsSingleton(locator.clone())];
    out.push(Guard::Sat(locator.clone(), NlpPred::True));
    for pred in nlp_preds(config, ctx) {
        out.push(Guard::Sat(locator.clone(), pred));
    }
    out
}

/// `ApplyProduction` for extractors (Figure 9, line 8): all single-step
/// extensions of `e` via `Substring`, `Filter`, and `Split`.
pub(crate) fn extend_extractor(
    config: &SynthConfig,
    ctx: &QueryContext,
    extractor: &Extractor,
) -> Vec<Extractor> {
    if extractor.depth() >= config.extractor_depth {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pred in nlp_preds(config, ctx) {
        out.push(Extractor::Filter(Box::new(extractor.clone()), pred.clone()));
        for &k in &config.substring_ks {
            out.push(Extractor::Substring(
                Box::new(extractor.clone()),
                pred.clone(),
                k,
            ));
        }
    }
    for &c in &config.delimiters {
        // Splitting twice on the same delimiter is an identity; skip it.
        if let Extractor::Split(_, prev) = extractor {
            if *prev == c {
                continue;
            }
        }
        out.push(Extractor::Split(Box::new(extractor.clone()), c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_full() -> QueryContext {
        QueryContext::new("Who are the students?", ["Students"])
    }

    #[test]
    fn pred_pool_respects_modalities() {
        let cfg = SynthConfig::fast();
        let full = nlp_preds(&cfg, &ctx_full());
        assert!(full.iter().any(|p| matches!(p, NlpPred::MatchKeyword(_))));
        assert!(full.contains(&NlpPred::HasAnswer));

        let nl_only = QueryContext::question_only("Who?");
        let pool = nlp_preds(&cfg, &nl_only);
        assert!(!pool.iter().any(|p| matches!(p, NlpPred::MatchKeyword(_))));
        assert!(pool.contains(&NlpPred::HasAnswer));

        let kw_only = QueryContext::keywords_only(["x"]);
        let pool = nlp_preds(&cfg, &kw_only);
        assert!(pool.iter().any(|p| matches!(p, NlpPred::MatchKeyword(_))));
        assert!(!pool.contains(&NlpPred::HasAnswer));
    }

    #[test]
    fn locator_extension_respects_depth() {
        let cfg = SynthConfig::fast();
        let ctx = ctx_full();
        let mut l = Locator::Root;
        for _ in 0..cfg.guard_depth - 1 {
            let ext = extend_locator(&cfg, &ctx, &l);
            assert!(!ext.is_empty());
            l = ext.into_iter().next().unwrap();
        }
        assert!(extend_locator(&cfg, &ctx, &l).is_empty());
    }

    #[test]
    fn extractor_extension_respects_depth() {
        let cfg = SynthConfig::fast();
        let ctx = ctx_full();
        let mut e = Extractor::Content;
        for _ in 0..cfg.extractor_depth - 1 {
            let ext = extend_extractor(&cfg, &ctx, &e);
            assert!(!ext.is_empty());
            e = ext.into_iter().next().unwrap();
        }
        assert!(extend_extractor(&cfg, &ctx, &e).is_empty());
    }

    #[test]
    fn no_double_split_on_same_delimiter() {
        let cfg = SynthConfig::fast();
        let ctx = ctx_full();
        let split = Extractor::Split(Box::new(Extractor::Content), ',');
        let ext = extend_extractor(&cfg, &ctx, &split);
        assert!(!ext.contains(&Extractor::Split(Box::new(split.clone()), ',')));
        assert!(ext.iter().any(|e| matches!(e, Extractor::Split(_, ';'))));
    }

    #[test]
    fn guards_include_singleton_and_sat_true() {
        let cfg = SynthConfig::fast();
        let gs = gen_guards(&cfg, &ctx_full(), &Locator::Root);
        assert!(gs.contains(&Guard::IsSingleton(Locator::Root)));
        assert!(gs.contains(&Guard::Sat(Locator::Root, NlpPred::True)));
        assert!(gs.len() > 2);
    }
}
