//! `SynthesizeBranch` (Figure 8 of the paper) and its `NoDecomp` ablation.

use std::sync::Arc;

use webqa_dsl::Guard;
use webqa_metrics::Counts;

use crate::extractors::{synthesize_extractors, ExtractorSynthesis, F1_EPS};
use crate::guards::{propagate_examples, GuardEnumerator};
use crate::scorer::{Scorer, StrTable, TaskCtx};
use crate::stats::SynthStats;

/// Optimal extractors for one guard, grouped by the token counts they
/// achieve on the positive examples. Shared (`Arc`) across every guard
/// whose locator produced the same extractor synthesis — the footnote 6
/// memo hands out references, never clones of the groups.
pub(crate) type GuardOptions = Arc<ExtractorSynthesis>;

/// All optimal branch programs for one (E⁺, E⁻) problem, represented as
/// the paper's mapping from guards to extractor sets.
///
/// Extractors are grouped by their token-count vector (see
/// [`crate::extractors::ExtractorSynthesis`]): every group achieves the
/// branch-optimal F₁ on E⁺, but the counts — which determine the
/// micro-averaged F₁ once branches are combined — can differ between
/// groups. The top-level synthesis uses the per-group counts to keep only
/// cross-branch combinations achieving the global optimum.
#[derive(Debug, Clone)]
pub(crate) struct BranchSynthesis {
    /// `(ψ, E)` pairs: each guard with its optimal extractors, grouped by
    /// token counts. Never empty; every entry ties on the branch's F₁.
    pub options: Vec<(Guard, GuardOptions)>,
}

impl BranchSynthesis {
    /// The optimal F₁ on E⁺.
    #[cfg(test)]
    pub fn f1(&self) -> f64 {
        self.options[0].1.f1
    }

    /// Number of distinct `(guard, extractor)` branch programs.
    #[cfg(test)]
    pub fn program_count(&self) -> usize {
        self.options
            .iter()
            .map(|(_, gs)| gs.groups.iter().map(|(_, es)| es.len()).sum::<usize>())
            .sum()
    }

    /// The distinct token-count vectors achievable by this branch's
    /// optimal programs.
    pub fn distinct_counts(&self) -> Vec<Counts> {
        let mut out: Vec<Counts> = Vec::new();
        for (_, gs) in &self.options {
            for (c, _) in &gs.groups {
                if !out.contains(c) {
                    out.push(*c);
                }
            }
        }
        out
    }
}

/// Figure 8: synthesizes all optimal branch programs, decomposing guard
/// from extractor synthesis (or jointly, for the `NoDecomp` ablation).
/// `pos` / `neg` are indices into the task's example list; `table` is
/// the calling worker's string table, which outlives the branch so its
/// step memo serves every branch the worker solves.
///
/// Returns `None` when no guard in the bounded space separates E⁺ from E⁻.
pub(crate) fn synthesize_branch(
    task: &TaskCtx,
    table: &mut StrTable,
    pos: &[usize],
    neg: &[usize],
    stats: &mut SynthStats,
) -> Option<BranchSynthesis> {
    stats.branch_calls += 1;
    let scorer = Scorer::new(task, table, pos);
    if task.cfg.decompose {
        synthesize_branch_decomposed(task, scorer, pos, neg, stats)
    } else {
        synthesize_branch_joint(task, scorer, pos, neg, stats)
    }
}

fn synthesize_branch_decomposed(
    task: &TaskCtx,
    mut scorer: Scorer,
    pos: &[usize],
    neg: &[usize],
    stats: &mut SynthStats,
) -> Option<BranchSynthesis> {
    let mut enumerator = GuardEnumerator::new(task, pos, neg);
    // The NoLazy ablation: drain the enumerator up-front with a bound of
    // 0, so the rising optimum never strengthens locator pruning.
    let mut eager: Option<std::collections::VecDeque<(Guard, usize)>> = if task.cfg.lazy_guards {
        None
    } else {
        let mut q = std::collections::VecDeque::new();
        while let Some(g) = enumerator.next(0.0, stats) {
            if task.cancel.checkpoint() {
                // The whole search is being abandoned; the top level
                // discards this `None` and reports `Cancelled`.
                return None;
            }
            q.push_back(g);
        }
        Some(q)
    };
    let mut opt = 0.0f64;
    let mut options: Vec<(Guard, GuardOptions)> = Vec::new();
    // Footnote 6: branches whose guards share a section locator share the
    // optimal-extractor computation. The memo is indexed by the
    // enumerator's entry id (each entry *is* one locator), so no locator
    // is ever cloned or hashed to key it. `Some(None)` records a locator
    // whose UB was below `opt` (Figure 8 line 6) — sound to skip forever
    // since `opt` only rises.
    let mut memo: Vec<Option<Option<GuardOptions>>> = Vec::new();

    while let Some((guard, eid)) = match eager.as_mut() {
        Some(q) => q.pop_front(),
        None => enumerator.next(opt, stats),
    } {
        // One cooperative cancellation checkpoint per guard step: a
        // cancelled search bails before the next extractor synthesis, so
        // latency overrun is bounded by one step's work.
        if task.cancel.checkpoint() {
            return None;
        }
        if memo.len() <= eid {
            memo.resize_with(eid + 1, || None);
        }
        let synth: Option<GuardOptions> = match &memo[eid] {
            Some(s) => {
                stats.locator_memo_hits += 1;
                s.clone()
            }
            None => {
                let s = if task.cfg.reference_kernels {
                    // Reference path: re-propagate the locator from the
                    // root and recompute the ceiling definitionally, as
                    // the pre-overhaul code did.
                    let pos_examples = pos.iter().map(|&i| &task.examples[i]);
                    let nodes =
                        propagate_examples(task.ctx, enumerator.entry_locator(eid), pos_examples);
                    let ub: Counts = pos
                        .iter()
                        .zip(&nodes)
                        .map(|(&i, ns)| task.examples[i].ceiling_counts_reference(ns))
                        .sum();
                    if task.cfg.prune && ub.upper_bound() + F1_EPS < opt {
                        None
                    } else {
                        Some(Arc::new(synthesize_extractors(
                            task,
                            &mut scorer,
                            &nodes,
                            0.0,
                            stats,
                        )))
                    }
                } else {
                    // Optimized path: the enumerator already propagated
                    // the nodes and computed the ceiling when it created
                    // the entry (Figure 8 line 6 is a comparison, not a
                    // recomputation).
                    let ub = enumerator.entry_ub(eid);
                    if task.cfg.prune && ub.upper_bound() + F1_EPS < opt {
                        None
                    } else {
                        Some(Arc::new(synthesize_extractors(
                            task,
                            &mut scorer,
                            enumerator.entry_nodes(eid),
                            0.0,
                            stats,
                        )))
                    }
                };
                memo[eid] = Some(s.clone());
                s
            }
        };
        let Some(synth) = synth else { continue };
        if synth.is_empty() {
            continue;
        }
        if synth.f1 > opt + F1_EPS {
            opt = synth.f1;
            options = vec![(guard, synth)];
        } else if (synth.f1 - opt).abs() <= F1_EPS {
            options.push((guard, synth));
        }
    }
    (!options.is_empty()).then_some(BranchSynthesis { options })
}

/// The `WebQA-NoDecomp` ablation (Section 8.2): guards and extractors are
/// enumerated *jointly* — no lazy `opt` feedback into the guard
/// enumerator and no extractor sharing across guards with the same
/// locator. The result set is identical; only the work differs.
fn synthesize_branch_joint(
    task: &TaskCtx,
    mut scorer: Scorer,
    pos: &[usize],
    neg: &[usize],
    stats: &mut SynthStats,
) -> Option<BranchSynthesis> {
    // Eagerly enumerate every classifying guard (opt = 0: no feedback).
    let mut enumerator = GuardEnumerator::new(task, pos, neg);
    let mut guards = Vec::new();
    while let Some(g) = enumerator.next(0.0, stats) {
        if task.cancel.checkpoint() {
            return None;
        }
        guards.push(g);
    }
    let mut opt = 0.0f64;
    let mut options: Vec<(Guard, GuardOptions)> = Vec::new();
    for (guard, eid) in guards {
        if task.cancel.checkpoint() {
            return None;
        }
        let synth = if task.cfg.reference_kernels {
            let pos_examples = pos.iter().map(|&i| &task.examples[i]);
            let nodes = propagate_examples(task.ctx, guard.locator(), pos_examples);
            synthesize_extractors(task, &mut scorer, &nodes, 0.0, stats)
        } else {
            synthesize_extractors(task, &mut scorer, enumerator.entry_nodes(eid), 0.0, stats)
        };
        if synth.is_empty() {
            continue;
        }
        let synth = Arc::new(synth);
        if synth.f1 > opt + F1_EPS {
            opt = synth.f1;
            options = vec![(guard, synth)];
        } else if (synth.f1 - opt).abs() <= F1_EPS {
            options.push((guard, synth));
        }
    }
    (!options.is_empty()).then_some(BranchSynthesis { options })
}

/// Convenience used by tests: solve one branch over a self-contained
/// example list.
#[cfg(test)]
pub(crate) fn synthesize_branch_over(
    cfg: &crate::config::SynthConfig,
    ctx: &webqa_dsl::QueryContext,
    pos: &[crate::example::Example],
    neg: &[crate::example::Example],
    stats: &mut SynthStats,
) -> Option<BranchSynthesis> {
    use crate::example::Example;
    let all: Vec<Example> = pos.iter().chain(neg.iter()).cloned().collect();
    let task = TaskCtx::new(cfg, ctx, &all);
    let pos_idx: Vec<usize> = (0..pos.len()).collect();
    let neg_idx: Vec<usize> = (pos.len()..all.len()).collect();
    let mut table = StrTable::new(task.steps.len());
    synthesize_branch(&task, &mut table, &pos_idx, &neg_idx, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::example::Example;
    use webqa_dsl::{PageTree, QueryContext};

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn students_examples() -> Vec<Example> {
        vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
                 <h2>Contact</h2><p>a@x.edu</p>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>Publications</h2><p>Some paper. PLDI 2020.</p>\
                 <h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
        ]
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    #[test]
    fn synthesizes_perfect_branch_for_students() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let pos = students_examples();
        let mut stats = SynthStats::default();
        let b = synthesize_branch_over(&cfg, &c, &pos, &[], &mut stats).expect("branch");
        assert!(b.f1() > 0.99, "expected F1≈1, got {}", b.f1());
        assert!(b.program_count() >= 1);
        // Sanity: a returned branch program really achieves that F1.
        let (g, gs) = &b.options[0];
        let prog = webqa_dsl::Program::single(g.clone(), gs.groups[0].1[0].clone());
        let counts = crate::example::program_counts(&c, &pos, &prog);
        assert!((counts.f1() - b.f1()).abs() < 1e-9);
    }

    #[test]
    fn joint_and_decomposed_agree_on_optimum() {
        let c = ctx();
        let pos = students_examples();
        let mut s1 = SynthStats::default();
        let mut s2 = SynthStats::default();
        let dec = synthesize_branch_over(&SynthConfig::fast(), &c, &pos, &[], &mut s1).unwrap();
        let joint = synthesize_branch_over(
            &SynthConfig::fast().without_decomposition(),
            &c,
            &pos,
            &[],
            &mut s2,
        )
        .unwrap();
        assert!((dec.f1() - joint.f1()).abs() < 1e-9);
        // Decomposition shares extractor synthesis across guards: less work.
        assert!(s1.extractors_enumerated <= s2.extractors_enumerated);
        assert!(s1.locator_memo_hits > 0);
    }

    #[test]
    fn lazy_and_eager_guard_enumeration_agree() {
        let c = ctx();
        let pos = students_examples();
        let mut s_lazy = SynthStats::default();
        let mut s_eager = SynthStats::default();
        let lazy =
            synthesize_branch_over(&SynthConfig::fast(), &c, &pos, &[], &mut s_lazy).unwrap();
        let eager = synthesize_branch_over(
            &SynthConfig::fast().without_lazy_guards(),
            &c,
            &pos,
            &[],
            &mut s_eager,
        )
        .unwrap();
        assert!(
            (lazy.f1() - eager.f1()).abs() < 1e-9,
            "optimum must not depend on laziness"
        );
        assert!(
            s_lazy.work() <= s_eager.work(),
            "lazy enumeration must not do more work: {} vs {}",
            s_lazy.work(),
            s_eager.work()
        );
    }

    #[test]
    fn unseparable_examples_give_no_branch() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let page = "<h1>R</h1><p>x</p>";
        let pos = vec![example(page, &["x"])];
        let neg = vec![example(page, &[])];
        let mut stats = SynthStats::default();
        assert!(synthesize_branch_over(&cfg, &c, &pos, &neg, &mut stats).is_none());
    }

    #[test]
    fn branch_with_negatives_separates() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let pos = students_examples();
        let neg = vec![example(
            "<h1>C</h1><h2>Service</h2><p>PLDI '20 (PC)</p>",
            &[],
        )];
        let mut stats = SynthStats::default();
        let b = synthesize_branch_over(&cfg, &c, &pos, &neg, &mut stats).expect("branch");
        for (g, _) in &b.options {
            for n in &neg {
                assert!(
                    !g.eval(&c, &n.page).0,
                    "guard {g} must reject the negative page"
                );
            }
        }
    }

    #[test]
    fn reference_branch_synthesis_is_identical() {
        let c = ctx();
        let pos = students_examples();
        let neg = vec![example("<h1>C</h1><h2>Contact</h2><p>mail</p>", &[])];
        let mut s_fast = SynthStats::default();
        let mut s_ref = SynthStats::default();
        let fast =
            synthesize_branch_over(&SynthConfig::fast(), &c, &pos, &neg, &mut s_fast).unwrap();
        let slow =
            synthesize_branch_over(&SynthConfig::reference(), &c, &pos, &neg, &mut s_ref).unwrap();
        assert_eq!(fast.f1(), slow.f1());
        assert_eq!(fast.distinct_counts(), slow.distinct_counts());
        assert_eq!(fast.options.len(), slow.options.len());
        for ((ga, sa), (gb, sb)) in fast.options.iter().zip(&slow.options) {
            assert_eq!(ga, gb);
            assert_eq!(sa.groups, sb.groups);
        }
        assert_eq!(s_fast, s_ref, "stats must match across kernel modes");
    }
}
