//! Corpus-level tests of the session-oriented engine API: one shared
//! `PageStore` across many tasks, batch-vs-sequential determinism, and
//! the staged interactive-labeling loop.

use std::sync::Arc;

use webqa::{CancelToken, Config, Engine, SynthConfig};
use webqa_corpus::{task_by_id, Corpus};

/// Two tasks per domain — the batch workload of the determinism test.
const TASK_IDS: [&str; 8] = [
    "fac_t1",
    "fac_t2",
    "conf_t1",
    "conf_t2",
    "class_t1",
    "class_t2",
    "clinic_t1",
    "clinic_t2",
];

fn fast_config() -> Config {
    Config {
        synth: SynthConfig::fast(),
        ..Config::default()
    }
}

/// Interns a small corpus once into a single engine and builds the eight
/// engine tasks over the shared store. Within a domain the two tasks
/// reference the *same* `PageId`s — the interning the redesign exists for.
fn engine_and_corpus_tasks() -> (Engine, Vec<webqa::Task>) {
    let corpus = Corpus::generate(5, 2024);
    let mut engine = Engine::new(fast_config());
    let tasks = TASK_IDS
        .iter()
        .map(|id| {
            let task = task_by_id(id).expect("catalogue task");
            let data = corpus.dataset(task, 2);
            webqa::Task::from_split(
                task.question,
                task.keywords.iter().copied(),
                engine.store_mut(),
                data.train.into_iter().map(|p| (p.page, p.gold)),
                data.test.into_iter().map(|p| p.page),
            )
        })
        .collect();
    (engine, tasks)
}

#[test]
fn batch_matches_sequential_on_corpus_tasks() {
    let (engine, tasks) = engine_and_corpus_tasks();

    let sequential: Vec<_> = tasks
        .iter()
        .map(|t| {
            engine
                .run(t, &CancelToken::never())
                .expect("ids from this store")
        })
        .collect();
    let batched = engine
        .run_batch(&tasks, 4, &CancelToken::never())
        .expect("same ids");

    assert_eq!(batched.len(), sequential.len());
    for (id, (b, s)) in TASK_IDS.iter().zip(batched.iter().zip(&sequential)) {
        assert_eq!(b.program, s.program, "{id}: selected program diverged");
        assert_eq!(b.answers, s.answers, "{id}: answers diverged");
    }
}

#[test]
fn corpus_pages_intern_once_across_tasks() {
    let (engine, tasks) = engine_and_corpus_tasks();

    // 4 domains × 5 pages: the 8 tasks (2 per domain) re-submitted every
    // page, yet each is stored exactly once.
    assert_eq!(engine.store().len(), 20);

    // The two tasks of a domain resolve to the *same* shared trees.
    let (fac1, fac2) = (&tasks[0], &tasks[1]);
    assert_eq!(fac1.labeled[0].0, fac2.labeled[0].0);
    let t1 = engine.store().get(fac1.labeled[0].0).unwrap();
    let t2 = engine.store().get(fac2.labeled[0].0).unwrap();
    assert!(Arc::ptr_eq(t1, t2), "interning must share one allocation");
}

/// Regression: batch-level (`Engine::run_batch`) and branch-level
/// (`SynthConfig::jobs`) parallelism compose without changing output.
/// The batch runner caps the effective branch worker count so
/// `jobs × synth.jobs` cannot oversubscribe the machine — and neither
/// the cap nor any worker-count combination may leak into programs or
/// answers.
#[test]
fn batch_times_branch_parallelism_is_deterministic() {
    let (engine, tasks) = engine_and_corpus_tasks();
    let sequential: Vec<_> = tasks
        .iter()
        .map(|t| {
            engine
                .run(t, &CancelToken::never())
                .expect("ids from this store")
        })
        .collect();

    // Deliberately oversubscribed: 4 batch workers × 8 branch workers
    // on a small CI box. The runner caps the product; results must be
    // byte-identical to the fully sequential engine.
    let oversubscribed = Engine::with_store(
        Config {
            synth: SynthConfig::fast().with_jobs(8),
            ..fast_config()
        },
        engine.store().clone(),
    );
    for jobs in [2, 4] {
        let batched = oversubscribed
            .run_batch(&tasks, jobs, &CancelToken::never())
            .expect("same ids");
        for (id, (b, s)) in TASK_IDS.iter().zip(batched.iter().zip(&sequential)) {
            assert_eq!(
                b.program, s.program,
                "{id}: program diverged at jobs={jobs}"
            );
            assert_eq!(
                b.answers, s.answers,
                "{id}: answers diverged at jobs={jobs}"
            );
            assert_eq!(
                b.synthesis.f1, s.synthesis.f1,
                "{id}: F1 diverged at jobs={jobs}"
            );
            assert_eq!(
                b.synthesis.counts, s.synthesis.counts,
                "{id}: counts diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn incremental_label_via_stages_does_not_regress_train_f1() {
    let corpus = Corpus::generate(5, 2024);
    let task = task_by_id("fac_t1").unwrap();
    let data = corpus.dataset(task, 1);

    // Keep the test gold aligned with the unlabeled order so a suggested
    // index can be answered like a user would.
    let mut unlabeled_gold = Vec::new();
    let mut engine = Engine::new(fast_config());
    let spec = webqa::Task::from_split(
        task.question,
        task.keywords.iter().copied(),
        engine.store_mut(),
        data.train.into_iter().map(|p| (p.page, p.gold)),
        data.test.into_iter().map(|p| {
            unlabeled_gold.push(p.gold);
            p.page
        }),
    );

    let first = engine.prepare(&spec).unwrap().synthesize();
    let f1_before = first.train_f1();

    // One round of the Section 7 loop: suggest → label → re-synthesize.
    let mut prepared = first.refine();
    let suggested = prepared.suggest_labels(1);
    assert_eq!(suggested.len(), 1, "a target page should be suggested");
    let idx = suggested[0];
    prepared.label(idx, unlabeled_gold.remove(idx));
    assert_eq!(prepared.examples().len(), 2);

    let second = prepared.synthesize();
    assert!(
        second.train_f1() + 1e-9 >= f1_before,
        "adding a gold label regressed train F1: {} -> {}",
        f1_before,
        second.train_f1()
    );
    assert!(!second.outcome().programs.is_empty());
}
