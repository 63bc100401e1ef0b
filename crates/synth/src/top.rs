//! Top-level `Synthesize` (Figure 7 of the paper): enumerate ordered
//! example partitions, synthesize optimal branch programs per block, and
//! return *all* programs achieving the optimal F₁.
//!
//! Partition blocks are independent (E⁺, E⁻) problems memoized by example
//! bitmask. With `SynthConfig::jobs > 1` the distinct block problems are
//! solved up-front on the ordered worker pool ([`par_map_ordered`], which
//! `webqa::Engine::run_batch` uses one level up) and the partition
//! assembly then reads the finished results — the merge is performed in
//! first-encounter key order, so programs, counts, and F₁ are
//! byte-identical to the sequential run regardless of worker count.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use webqa_dsl::{Branch, Extractor, Guard, Program, QueryContext};
use webqa_metrics::Counts;

use crate::branch::{synthesize_branch, BranchSynthesis};
use crate::cancel::{CancelToken, Cancelled};
use crate::config::SynthConfig;
use crate::example::Example;
use crate::extractors::F1_EPS;
use crate::par::par_map_ordered;
use crate::scorer::{PageFeatures, StrTable, TaskCtx};
use crate::stats::SynthStats;

/// The result of [`synthesize`]: all optimal programs (capped), their
/// training F₁, and search statistics.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// Optimal programs, at most `config.max_programs` of them.
    pub programs: Vec<Program>,
    /// The optimal F₁ achieved on the training examples.
    pub f1: f64,
    /// Token counts of a representative optimal program.
    pub counts: Counts,
    /// Total number of optimal programs before capping.
    pub total_optimal: usize,
    /// Search statistics.
    pub stats: SynthStats,
}

/// Figure 7: synthesizes all WebQA programs with optimal F₁ on the
/// training examples.
///
/// Partitions of more than `config.max_blocks` blocks are not considered;
/// with `max_blocks ≥ |examples|` the search matches the paper exactly.
pub fn synthesize(cfg: &SynthConfig, ctx: &QueryContext, examples: &[Example]) -> SynthesisOutcome {
    synthesize_cancellable(cfg, ctx, examples, &[], &CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// [`synthesize`] with caller-supplied per-example feature tables, under
/// a cooperative [`CancelToken`].
///
/// `features` are [`PageFeatures`] aligned with `examples`; pass `&[]` —
/// or tables that fail the shape check — to have them computed here.
/// This is the table-build/search split behind cross-request
/// memoization: a long-lived `webqa::Engine` computes each page's table
/// once per `(page, query, config)` and hands it back for every repeat
/// query. The outcome is byte-identical either way — a table is a pure
/// function of its key, so borrowing one changes *work*, never results.
/// The shape check is the only internal validation: handing in a table
/// built for a different same-sized page or query is the caller's bug
/// (key stored tables by page content and query/config, as the engine
/// does).
///
/// The token is checkpointed once on entry and once per guard step of
/// every branch problem (including the branch-parallel workers), so a
/// trip — explicit cancel, deadline, or step budget — aborts the search
/// within one guard step per in-flight worker. A cancelled search
/// returns [`Err(Cancelled)`](Cancelled) and exposes **no** partial
/// outcome; a search that completes is byte-identical to one run without
/// a token (the token's counters are separate from [`SynthStats`]).
pub fn synthesize_cancellable(
    cfg: &SynthConfig,
    ctx: &QueryContext,
    examples: &[Example],
    features: &[Arc<PageFeatures>],
    cancel: &CancelToken,
) -> Result<SynthesisOutcome, Cancelled> {
    // Entry checkpoint: a pre-cancelled token aborts before the pools,
    // tables, or any branch problem are even built.
    if cancel.checkpoint() {
        return Err(Cancelled);
    }
    let mut stats = SynthStats::default();
    let n = examples.len();
    if n == 0 {
        return Ok(SynthesisOutcome {
            programs: Vec::new(),
            f1: 0.0,
            counts: Counts::default(),
            total_optimal: 0,
            stats,
        });
    }

    let task = TaskCtx::with_features_cancel(cfg, ctx, examples, features, cancel.clone());
    let partitions = ordered_partitions(n, cfg.max_blocks);

    // Branch problems are memoized by (positive set, negative set)
    // bitmask — different partitions share blocks heavily. Key order is
    // first encounter across the partition scan, which is what makes the
    // parallel solve's stats merge deterministic.
    let mut keys: Vec<(u32, u32)> = Vec::new();
    let mut key_index: HashMap<(u32, u32), usize> = HashMap::new();
    for partition in &partitions {
        for (i, block) in partition.iter().enumerate() {
            let pos_mask = mask_of(block);
            let mut neg_mask = 0u32;
            for later in &partition[i + 1..] {
                neg_mask |= mask_of(later);
            }
            key_index.entry((pos_mask, neg_mask)).or_insert_with(|| {
                keys.push((pos_mask, neg_mask));
                keys.len() - 1
            });
        }
    }

    // Each worker solves its blocks over its own string table, so the
    // step memo is shared by every branch problem the worker solves.
    let solve = |key: (u32, u32), table: &mut StrTable| -> (Option<BranchSynthesis>, SynthStats) {
        let mut st = SynthStats::default();
        let pos = bits_of(key.0);
        // E⁻ = examples in later blocks of the partition (footnote 5).
        let neg = bits_of(key.1);
        let r = synthesize_branch(&task, table, &pos, &neg, &mut st);
        (r, st)
    };

    // `None` = not solved yet; `Some(None)` = solved, no separating guard.
    let mut solved: Vec<Option<Option<Arc<BranchSynthesis>>>> = vec![None; keys.len()];
    let jobs = cfg.jobs.clamp(1, keys.len().max(1));
    if jobs > 1 {
        // Solve every distinct block problem up-front on the pool, one
        // string table per worker. This can touch blocks the lazy
        // sequential scan would have skipped (blocks after a failing one
        // in every containing partition): their full search counters
        // accumulate into the stats, but the optimum and the program set
        // cannot change.
        let results = par_map_ordered(
            &keys,
            jobs,
            cancel,
            || StrTable::new(task.steps.len()),
            |table, &key| solve(key, table),
        );
        // Deterministic merge: stats accumulate in key order. Unclaimed
        // slots only exist after a cancel, which discards everything.
        for (i, slot) in results.into_iter().enumerate() {
            let Some((r, st)) = slot else { continue };
            stats += st;
            solved[i] = Some(r.map(Arc::new));
        }
    }

    let mut best_f1 = -1.0f64;
    let mut best_counts = Counts::default();
    // Each optimal partition contributes a list of per-block option sets.
    let mut best_partitions: Vec<Vec<Arc<BranchSynthesis>>> = Vec::new();
    // Whether a key has been looked up during assembly before (memo-hit
    // accounting identical to the lazy path).
    let mut touched = vec![false; keys.len()];
    let mut table = StrTable::new(task.steps.len());

    for partition in &partitions {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        let mut blocks: Vec<Arc<BranchSynthesis>> = Vec::new();
        let mut ok = true;
        for (i, block) in partition.iter().enumerate() {
            let pos_mask = mask_of(block);
            let mut neg_mask = 0u32;
            for later in &partition[i + 1..] {
                neg_mask |= mask_of(later);
            }
            let ki = key_index[&(pos_mask, neg_mask)];
            let entry: Option<Arc<BranchSynthesis>> = match &solved[ki] {
                Some(cached) => {
                    if touched[ki] {
                        stats.memo_hits += 1;
                    }
                    cached.clone()
                }
                None => {
                    let (r, st) = solve((pos_mask, neg_mask), &mut table);
                    stats += st;
                    let r = r.map(Arc::new);
                    solved[ki] = Some(r.clone());
                    r
                }
            };
            touched[ki] = true;
            match entry {
                Some(b) => blocks.push(b),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let (f1, part_counts) = partition_best(&blocks);
        if f1 > best_f1 + F1_EPS {
            best_f1 = f1;
            best_counts = part_counts;
            best_partitions = vec![blocks];
        } else if (f1 - best_f1).abs() <= F1_EPS {
            best_partitions.push(blocks);
        }
    }

    // A trip during the last partition's solve leaves no later loop head
    // to notice it — re-check before exposing any outcome built from
    // aborted branch problems.
    if cancel.is_cancelled() {
        return Err(Cancelled);
    }

    if best_f1 < 0.0 {
        return Ok(SynthesisOutcome {
            programs: Vec::new(),
            f1: 0.0,
            counts: Counts::default(),
            total_optimal: 0,
            stats,
        });
    }

    let (programs, total) = materialize(&best_partitions, cfg.max_programs, best_f1);
    Ok(SynthesisOutcome {
        programs,
        f1: best_f1,
        counts: best_counts,
        total_optimal: total,
        stats,
    })
}

/// The micro-averaged F₁ of a multi-branch program is a function of the
/// *sum* of per-branch token counts, and branches tied on F₁ can have
/// different counts — so a partition's achievable optimum is the best F₁
/// over all combinations of per-block count groups, computed here by
/// folding the achievable-sum set across blocks.
///
/// Sums tied on F₁ (within [`F1_EPS`]) are all optimal; the one reported
/// is the least `(matched, predicted, gold)`. The choice is a function of
/// the set alone, never of its iteration order, so every run (and every
/// engine) reports the same representative `Counts`.
fn partition_best(blocks: &[Arc<BranchSynthesis>]) -> (f64, Counts) {
    let mut sums: HashSet<Counts> = HashSet::new();
    sums.insert(Counts::default());
    for b in blocks {
        let choices = b.distinct_counts();
        let mut next = HashSet::with_capacity(sums.len() * choices.len());
        for s in &sums {
            for c in &choices {
                next.insert(*s + *c);
            }
        }
        sums = next;
    }
    let top = sums.iter().map(Counts::f1).fold(-1.0, f64::max);
    sums.into_iter()
        .filter(|c| c.f1() + F1_EPS >= top)
        .min_by_key(|c| (c.matched, c.predicted, c.gold))
        .map_or((-1.0, Counts::default()), |c| (c.f1(), c))
}

fn mask_of(block: &[usize]) -> u32 {
    block.iter().fold(0u32, |m, &i| m | (1 << i))
}

fn bits_of(mask: u32) -> Vec<usize> {
    (0..32).filter(|i| mask & (1 << i) != 0).collect()
}

/// All ordered partitions of `{0..n}` into at most `max_blocks` non-empty
/// blocks (the `Partitions(E)` of Figure 7; order matters because guards
/// are tried in sequence).
pub(crate) fn ordered_partitions(n: usize, max_blocks: usize) -> Vec<Vec<Vec<usize>>> {
    assert!(n > 0, "need at least one example");
    // For large n the Fubini numbers explode; fall back to the single
    // partition, which the paper's tasks (≤5 labels) never hit.
    if n > 8 {
        return vec![vec![(0..n).collect()]];
    }
    let max_k = max_blocks.clamp(1, n);
    let mut out = Vec::new();
    for k in 1..=max_k {
        // Enumerate assignments f: [n] -> [k], keep surjections.
        let total = (k as u64).pow(n as u32);
        for code in 0..total {
            let mut assign = vec![0usize; n];
            let mut c = code;
            for slot in assign.iter_mut() {
                *slot = (c % k as u64) as usize;
                c /= k as u64;
            }
            let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (i, &b) in assign.iter().enumerate() {
                blocks[b].push(i);
            }
            if blocks.iter().all(|b| !b.is_empty()) {
                out.push(blocks);
            }
        }
    }
    out
}

/// Expands per-partition branch options into concrete programs, capped.
/// Returns the (possibly truncated) programs and the true total count of
/// optimal programs.
///
/// Branches tied on per-block F₁ can carry different token-count vectors,
/// and only cross-block combinations whose *summed* counts achieve
/// `best_f1` are optimal whole programs — all others are filtered out
/// here, and the exact total is computed by a count-vector convolution
/// rather than a plain cartesian product.
///
/// When a partition's qualifying product exceeds its share of the cap, the
/// sample is drawn *diversely*: block options are interleaved round-robin
/// across guards, and product indices are visited in a deterministic
/// hash-scattered order — so the capped set reflects the variety of the
/// optimal space rather than the first guard's extractor variants (the
/// transductive ensemble is sampled from this set, Section 6).
fn materialize(
    partitions: &[Vec<Arc<BranchSynthesis>>],
    cap: usize,
    best_f1: f64,
) -> (Vec<Program>, usize) {
    let mut programs: Vec<Program> = Vec::new();
    let mut seen: HashSet<Program> = HashSet::new();
    let mut total: usize = 0;
    let per_partition_cap = cap.div_ceil(partitions.len().max(1));
    for blocks in partitions {
        // Flatten each block's (guard, extractors) map into (guard,
        // extractor, counts) triples, round-robin across guards so a
        // prefix of the list spans many guards.
        let pairs_per_block: Vec<Vec<(&Guard, &Extractor, Counts)>> = blocks
            .iter()
            .map(|b| {
                let mut pairs = Vec::new();
                let max_len = b
                    .options
                    .iter()
                    .map(|(_, gs)| gs.groups.iter().map(|(_, es)| es.len()).max().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                for i in 0..max_len {
                    for (g, gs) in &b.options {
                        for (c, es) in &gs.groups {
                            if let Some(e) = es.get(i) {
                                pairs.push((g, e, *c));
                            }
                        }
                    }
                }
                pairs
            })
            .collect();
        let block_sizes: Vec<usize> = pairs_per_block.iter().map(Vec::len).collect();
        let product: u128 = block_sizes.iter().map(|&s| s as u128).product();

        // Exact count of optimal combinations: convolve per-block
        // multiplicity maps (counts → #pairs) across blocks, then sum the
        // multiplicities of summed counts achieving best_f1.
        let mut conv: HashMap<Counts, u128> = HashMap::new();
        conv.insert(Counts::default(), 1);
        for pairs in &pairs_per_block {
            let mut block_counts: HashMap<Counts, u128> = HashMap::new();
            for (_, _, c) in pairs {
                *block_counts.entry(*c).or_insert(0) += 1;
            }
            let mut next: HashMap<Counts, u128> = HashMap::new();
            for (s, m) in &conv {
                for (c, k) in &block_counts {
                    *next.entry(*s + *c).or_insert(0) += m.saturating_mul(*k);
                }
            }
            conv = next;
        }
        let qualifying: u128 = conv
            .iter()
            .filter(|(c, _)| (c.f1() - best_f1).abs() <= F1_EPS)
            .map(|(_, m)| *m)
            .sum();
        total = total.saturating_add(qualifying.min(usize::MAX as u128) as usize);

        let want = per_partition_cap.min(cap.saturating_sub(programs.len()));
        // Emits the combination at `code` iff its summed counts achieve
        // the global optimum; returns true when a new program was added.
        let emit = |code: u128, programs: &mut Vec<Program>, seen: &mut HashSet<Program>| -> bool {
            let mut c = code;
            let mut sum = Counts::default();
            let branches: Vec<Branch> = block_sizes
                .iter()
                .zip(&pairs_per_block)
                .map(|(&size, pairs)| {
                    let i = (c % size as u128) as usize;
                    c /= size as u128;
                    let (g, e, counts) = &pairs[i];
                    sum += *counts;
                    Branch::new((*g).clone(), (*e).clone())
                })
                .collect();
            if (sum.f1() - best_f1).abs() > F1_EPS {
                return false;
            }
            let p = Program::new(branches);
            if seen.insert(p.clone()) {
                programs.push(p);
                true
            } else {
                false
            }
        };
        if product <= (want as u128).saturating_mul(64).max(65_536) {
            // Small enough to scan exhaustively, filtering as we go.
            for code in 0..product {
                if programs.len() >= cap {
                    break;
                }
                emit(code, &mut programs, &mut seen);
            }
        } else {
            // Deterministic scattered sampling without replacement (best
            // effort: duplicates and non-qualifying combos skipped,
            // bounded attempts).
            let mut attempts = 0u64;
            let mut produced = 0usize;
            let max_attempts = (want as u64).saturating_mul(64).max(4096);
            let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
            while produced < want && attempts < max_attempts {
                state = state
                    .wrapping_mul(0xD120_0000_0000_0001u64 | 1)
                    .wrapping_add(0x2545_F491_4F6C_DD1D);
                let code = (state as u128).wrapping_mul(0x9E37_79B9u128) % product;
                if emit(code, &mut programs, &mut seen) {
                    produced += 1;
                }
                attempts += 1;
            }
            if produced == 0 {
                // Sampling can miss sparse qualifying sets; fall back to a
                // bounded sequential scan so at least one optimal program
                // is always returned.
                let scan = product.min(1 << 20);
                for code in 0..scan {
                    if emit(code, &mut programs, &mut seen) {
                        break;
                    }
                }
            }
        }
        if programs.len() >= cap {
            break;
        }
    }
    (programs, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_dsl::PageTree;

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    #[test]
    fn ordered_partition_counts_are_fubini() {
        // Fubini numbers: a(1)=1, a(2)=3, a(3)=13, a(4)=75.
        assert_eq!(ordered_partitions(1, 5).len(), 1);
        assert_eq!(ordered_partitions(2, 5).len(), 3);
        assert_eq!(ordered_partitions(3, 5).len(), 13);
        assert_eq!(ordered_partitions(4, 5).len(), 75);
        // Capped block count: partitions into at most 1 block.
        assert_eq!(ordered_partitions(4, 1).len(), 1);
    }

    #[test]
    fn partitions_cover_all_examples_exactly_once() {
        for p in ordered_partitions(4, 3) {
            let mut all: Vec<usize> = p.concat();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn synthesizes_single_branch_program() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
        ];
        let out = synthesize(&cfg, &c, &examples);
        assert!(out.f1 > 0.99, "got {}", out.f1);
        assert!(!out.programs.is_empty());
        assert!(out.total_optimal >= out.programs.len());
        // Every returned program must actually achieve the reported F1.
        for p in out.programs.iter().take(20) {
            let counts = crate::example::program_counts(&c, &examples, p);
            assert!(
                (counts.f1() - out.f1).abs() < 1e-6,
                "program {p} scores {} ≠ {}",
                counts.f1(),
                out.f1
            );
        }
    }

    #[test]
    fn multi_branch_partition_handles_schema_split() {
        // Two page schemas: students under "Students" on page A, but page
        // B keeps them under "Group" with no keyword match; a two-branch
        // program can specialize.
        let mut cfg = SynthConfig::fast();
        cfg.max_blocks = 2;
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                &["Jane Doe"],
            ),
            example(
                "<h1>B</h1><h2>Group</h2><ul><li>Mary Anderson</li></ul><h2>Students</h2><p>none currently</p>",
                &["Mary Anderson"],
            ),
        ];
        let out = synthesize(&cfg, &c, &examples);
        assert!(out.f1 > 0.5, "got {}", out.f1);
    }

    #[test]
    fn empty_examples_yield_empty_outcome() {
        let out = synthesize(&SynthConfig::fast(), &ctx(), &[]);
        assert!(out.programs.is_empty());
        assert_eq!(out.total_optimal, 0);
    }

    #[test]
    fn program_cap_respected() {
        let mut cfg = SynthConfig::fast();
        cfg.max_programs = 3;
        let c = ctx();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
            &["Jane Doe"],
        )];
        let out = synthesize(&cfg, &c, &examples);
        assert!(out.programs.len() <= 3);
        assert!(out.total_optimal >= out.programs.len());
    }

    #[test]
    fn noprune_finds_same_optimum() {
        let c = ctx();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul><h2>News</h2><p>hi</p>",
            &["Jane Doe"],
        )];
        let with = synthesize(&SynthConfig::fast(), &c, &examples);
        let without = synthesize(&SynthConfig::fast().without_pruning(), &c, &examples);
        assert!((with.f1 - without.f1).abs() < 1e-9);
        assert!(
            with.stats.work() <= without.stats.work(),
            "pruning must not increase work: {} vs {}",
            with.stats.work(),
            without.stats.work()
        );
    }

    #[test]
    fn borrowed_feature_tables_do_not_change_the_outcome() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
        ];
        let fresh = synthesize(&cfg, &c, &examples);
        let tables: Vec<Arc<PageFeatures>> = examples
            .iter()
            .map(|ex| Arc::new(PageFeatures::compute(&cfg, &c, &ex.page)))
            .collect();
        let with_tables = |tables: &[Arc<PageFeatures>]| {
            synthesize_cancellable(&cfg, &c, &examples, tables, &CancelToken::never())
                .expect("a never-token cannot cancel")
        };
        let borrowed = with_tables(&tables);
        assert_eq!(borrowed.programs, fresh.programs);
        assert_eq!(borrowed.f1, fresh.f1);
        assert_eq!(borrowed.counts, fresh.counts);
        assert_eq!(borrowed.stats, fresh.stats);

        // A table with the wrong shape is rejected and recomputed, not
        // read: same outcome even when handed garbage-shaped tables.
        let wrong = vec![Arc::new(PageFeatures::compute(
            &cfg,
            &c,
            &PageTree::parse("<p>unrelated</p>"),
        ))];
        let recovered = with_tables(&wrong);
        assert_eq!(recovered.programs, fresh.programs);
        assert_eq!(recovered.stats, fresh.stats);
    }

    #[test]
    fn tied_count_groups_report_the_same_counts_every_run() {
        // `class_t1` over these pages has optimal programs in two count
        // groups tied on F₁ = 2/3: (4, 4, 8) and (8, 16, 8). The reported
        // representative is the least of them, never whichever a hash set
        // happens to iterate first (which differs between runs).
        let task = webqa_corpus::TASKS
            .iter()
            .find(|t| t.id == "class_t1")
            .expect("class_t1 exists");
        let c = QueryContext::new(task.question, task.keywords.to_vec());
        let pages = webqa_corpus::generate_pages(task.domain, 6, 2);
        let examples: Vec<Example> = pages[..2]
            .iter()
            .map(|p| Example::new(p.tree(), p.gold(task.id).to_vec()))
            .collect();
        let first = synthesize(&SynthConfig::fast(), &c, &examples);
        assert_eq!(
            first.counts,
            Counts {
                matched: 4,
                predicted: 4,
                gold: 8
            }
        );
        for _ in 0..8 {
            assert_eq!(
                synthesize(&SynthConfig::fast(), &c, &examples).counts,
                first.counts
            );
        }
    }

    #[test]
    fn parallel_block_solving_is_deterministic() {
        let c = ctx();
        let mut cfg = SynthConfig::fast();
        cfg.max_blocks = 2;
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                &["Jane Doe"],
            ),
            example(
                "<h1>B</h1><h2>Group</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
            example(
                "<h1>C</h1><h2>PhD Students</h2><ul><li>Wei Chen</li></ul>",
                &["Wei Chen"],
            ),
        ];
        let sequential = synthesize(&cfg, &c, &examples);
        for jobs in [2, 4] {
            let mut pcfg = cfg.clone();
            pcfg.jobs = jobs;
            let parallel = synthesize(&pcfg, &c, &examples);
            assert_eq!(parallel.programs, sequential.programs, "jobs={jobs}");
            assert_eq!(parallel.f1, sequential.f1, "jobs={jobs}");
            assert_eq!(parallel.counts, sequential.counts, "jobs={jobs}");
            assert_eq!(
                parallel.total_optimal, sequential.total_optimal,
                "jobs={jobs}"
            );
        }
    }
}
