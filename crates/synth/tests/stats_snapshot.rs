//! Search-statistics snapshot tests.
//!
//! The hot-path overhaul is only safe to evolve if a change that
//! silently *loses* pruning, memoization, or behavioral dedup fails a
//! test rather than a stopwatch. These tests pin the exact `SynthStats`
//! counters of three fixed fixtures; any structural change to the search
//! (an extra candidate enumerated, a memo hit lost, a prune skipped)
//! shifts a counter and trips the assertion.
//!
//! If a deliberate search change lands (new production pool, different
//! dedup rule, …), re-pin the numbers — after checking the *direction*
//! of each delta is the one the change intends.

use webqa_dsl::{PageTree, QueryContext};
use webqa_synth::{synthesize, Example, SynthConfig, SynthStats};

fn example(html: &str, gold: &[&str]) -> Example {
    Example::new(
        PageTree::parse(html),
        gold.iter().map(|s| s.to_string()).collect(),
    )
}

/// Fixture 1: the motivating "PhD students" task — two list pages, one
/// distractor section each, perfectly solvable.
fn students_fixture() -> (QueryContext, Vec<Example>) {
    let ctx = QueryContext::new("Who are the current PhD students?", ["Students", "PhD"]);
    let examples = vec![
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
    ];
    (ctx, examples)
}

/// Fixture 2: the "program committees" task — comma-packed list items
/// that need split/filter chains, imperfectly solvable.
fn service_fixture() -> (QueryContext, Vec<Example>) {
    let ctx = QueryContext::new(
        "Which program committees has this researcher served on?",
        ["PC", "Program Committee", "Service"],
    );
    let examples = vec![
        example(
            "<h1>R</h1><h2>Service</h2>\
             <ul><li>PLDI '21 (PC), CAV '20 (PC)</li><li>reading group, hiking club</li></ul>",
            &["PLDI '21 (PC)", "CAV '20 (PC)"],
        ),
        example(
            "<h1>S</h1><h2>Activities</h2><b>Professional Service</b>\
             <ul><li>POPL '20 (PC)</li><li>ICFP '19 (SRC)</li></ul>\
             <h2>Teaching</h2><p>CS 101</p>",
            &["POPL '20 (PC)", "ICFP '19 (SRC)"],
        ),
    ];
    (ctx, examples)
}

fn cfg() -> SynthConfig {
    let mut c = SynthConfig::fast();
    c.max_blocks = 2;
    c
}

#[test]
fn students_fixture_stats_snapshot() {
    let (ctx, examples) = students_fixture();
    let out = synthesize(&cfg(), &ctx, &examples);
    assert!(out.f1 > 0.99, "fixture must stay perfectly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 1022,
            locators_expanded: 3724,
            locators_pruned: 192,
            extractors_enumerated: 2974,
            extractors_pruned: 897,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 544,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 4466,
            analysis_pruned_extractors: 14568,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

#[test]
fn service_fixture_stats_snapshot() {
    let (ctx, examples) = service_fixture();
    let out = synthesize(&cfg(), &ctx, &examples);
    assert!(out.f1 > 0.5, "fixture must stay mostly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 2649,
            locators_expanded: 4224,
            locators_pruned: 27,
            extractors_enumerated: 13323,
            extractors_pruned: 19788,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 1861,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 2686,
            analysis_pruned_extractors: 35817,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// Fixture 3: three generated faculty pages, where a three-block
/// partition exists. At `max_blocks ≤ 2` every `(E⁺, E⁻)` block key
/// occurs in exactly one ordered partition, so the top-level memo cannot
/// hit (both fixtures above pin `memo_hits: 0`); a third block lets
/// partitions share keys.
fn faculty_fixture(task_id: &str) -> (QueryContext, Vec<Example>) {
    let task = webqa_corpus::task_by_id(task_id).expect("corpus task exists");
    let ctx = QueryContext::new(task.question, task.keywords.to_vec());
    let examples = webqa_corpus::generate_pages(task.domain, 3, 7)
        .iter()
        .map(|p| Example::new(p.tree(), p.gold(task.id).to_vec()))
        .collect();
    (ctx, examples)
}

fn three_block_cfg(jobs: usize) -> SynthConfig {
    let mut c = SynthConfig::fast().with_jobs(jobs);
    c.max_blocks = 3;
    c
}

#[test]
fn three_block_partitions_hit_the_top_level_memo() {
    let (ctx, examples) = faculty_fixture("fac_t1");
    let out = synthesize(&three_block_cfg(1), &ctx, &examples);
    assert!(out.f1 > 0.99, "fixture must stay perfectly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 9205,
            locators_expanded: 19538,
            locators_pruned: 1659,
            extractors_enumerated: 50229,
            extractors_pruned: 24121,
            branch_calls: 19,
            memo_hits: 11,
            locator_memo_hits: 6527,
            analysis_pruned_guards: 24,
            analysis_pruned_locators: 22944,
            analysis_pruned_extractors: 205578,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );

    // Memo hits count assembly lookups, so the branch-parallel solve
    // (which solves every key up front) records the same number.
    for (task_id, hits) in [("fac_t1", 11), ("fac_t2", 10), ("fac_t3", 6)] {
        let (ctx, examples) = faculty_fixture(task_id);
        for jobs in [1, 2] {
            let stats = synthesize(&three_block_cfg(jobs), &ctx, &examples).stats;
            assert_eq!(stats.memo_hits, hits, "{task_id} at jobs={jobs}");
        }
    }
}

/// The counters the snapshots pin must actually move in the direction
/// each mechanism promises — this guards the *meaning* of the counters
/// themselves, so the snapshots above stay interpretable.
#[test]
fn counters_move_with_their_mechanisms() {
    let (ctx, examples) = students_fixture();
    let base = synthesize(&cfg(), &ctx, &examples).stats;
    assert!(base.locators_pruned > 0, "pruning is live on this fixture");
    assert!(base.extractors_pruned > 0);
    assert!(base.locator_memo_hits > 0, "locator memo is live");

    let noprune = synthesize(&cfg().without_pruning(), &ctx, &examples).stats;
    assert_eq!(noprune.locators_pruned, 0);
    assert_eq!(noprune.extractors_pruned, 0);
    assert!(
        noprune.extractors_enumerated >= base.extractors_enumerated,
        "disabling pruning cannot shrink the enumeration"
    );

    let nodecomp = synthesize(&cfg().without_decomposition(), &ctx, &examples).stats;
    assert_eq!(
        nodecomp.locator_memo_hits, 0,
        "joint synthesis shares nothing"
    );
    assert!(nodecomp.extractors_enumerated >= base.extractors_enumerated);

    assert!(
        base.analysis_pruned_locators > 0 && base.analysis_pruned_extractors > 0,
        "analysis prune is live on this fixture"
    );
    let noanalysis = synthesize(&cfg().without_analysis(), &ctx, &examples).stats;
    assert_eq!(noanalysis.analysis_pruned_guards, 0);
    assert_eq!(noanalysis.analysis_pruned_locators, 0);
    assert_eq!(noanalysis.analysis_pruned_extractors, 0);
    assert!(
        noanalysis.work() >= base.work(),
        "disabling the analysis prune cannot shrink the search work"
    );
}

/// The analysis prune is *sound*: it only skips candidates the abstract
/// interpreter proves dead, so the synthesized programs, score, and
/// guard stream are identical with it on or off.
#[test]
fn analysis_prune_preserves_results() {
    for fixture in [students_fixture, service_fixture] {
        let (ctx, examples) = fixture();
        let on = synthesize(&cfg(), &ctx, &examples);
        let off = synthesize(&cfg().without_analysis(), &ctx, &examples);
        assert!((on.f1 - off.f1).abs() < 1e-9);
        assert_eq!(on.programs, off.programs);
        assert_eq!(on.stats.guards_yielded, off.stats.guards_yielded);
    }
}
