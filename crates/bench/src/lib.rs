//! Shared experiment harness for the table/figure benches.
//!
//! Every bench target regenerates one table or figure of the paper
//! (Section 8 / Appendix C). This library holds the common machinery:
//! corpus construction, a shared interned page store (every page is
//! parsed exactly once, however many tasks and tools read it), per-task
//! runs of WebQA — through the staged `webqa::Engine` — and the three
//! baselines, and row formatting.
//!
//! Knobs (environment variables, so `cargo bench` stays zero-config):
//!
//! * `WEBQA_PAGES` — pages per domain (default 40, the paper's scale);
//! * `WEBQA_TRAIN` — labeled pages per task (default 5);
//! * `WEBQA_SEED` — corpus seed (default 42).

use webqa::{score_answers, CancelToken, Config, Engine, PageId, PageStore, Selection};
use webqa_baselines::{BertQa, EntExtract, Hyb};
use webqa_corpus::{Corpus, Domain, Task, TaskDataset};
use webqa_metrics::{Counts, Score};

pub mod trajectory;

/// Experiment-wide setup shared by all benches.
pub struct Setup {
    /// The generated corpus.
    pub corpus: Corpus,
    /// Labeled pages per task.
    pub train_pages: usize,
    /// Pages of every domain, parsed once and interned.
    store: PageStore,
    /// Per-domain page handles, aligned with `corpus.pages(domain)`.
    page_ids: Vec<(Domain, Vec<PageId>)>,
    pages_per_domain: usize,
    seed: u64,
}

impl Setup {
    /// Builds the standard setup from the environment knobs.
    pub fn from_env() -> Setup {
        Self::new(
            env_usize("WEBQA_PAGES", 16),
            env_usize("WEBQA_TRAIN", 5),
            env_usize("WEBQA_SEED", 42) as u64,
        )
    }

    /// Builds a setup with explicit knobs, interning every corpus page.
    pub fn new(pages_per_domain: usize, train_pages: usize, seed: u64) -> Setup {
        let corpus = Corpus::generate(pages_per_domain, seed);
        let mut store = PageStore::new();
        let page_ids = Domain::ALL
            .iter()
            .map(|&domain| {
                (
                    domain,
                    corpus
                        .pages(domain)
                        .iter()
                        .map(|p| store.insert_tree(p.tree()))
                        .collect(),
                )
            })
            .collect();
        Setup {
            corpus,
            train_pages,
            store,
            page_ids,
            pages_per_domain,
            seed,
        }
    }

    /// Pages generated per domain (`WEBQA_PAGES`).
    pub fn pages_per_domain(&self) -> usize {
        self.pages_per_domain
    }

    /// The corpus seed (`WEBQA_SEED`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The dataset split for one task (raw HTML + parsed trees; the
    /// baselines need the HTML — WebQA itself runs off the interned
    /// store via [`Setup::engine`]).
    pub fn dataset(&self, task: &Task) -> TaskDataset {
        self.corpus.dataset(task, self.train_pages)
    }

    /// An engine with the given config over the shared page store
    /// (cloning the store only bumps `Arc` refcounts per page).
    pub fn engine(&self, config: Config) -> Engine {
        Engine::with_store(config, self.store.clone())
    }

    fn domain_ids(&self, domain: Domain) -> &[PageId] {
        self.page_ids
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, ids)| ids.as_slice())
            .expect("every domain is interned")
    }

    /// The engine task for one corpus task: first `train_pages` pages of
    /// the domain labeled, the rest as unlabeled targets.
    pub fn engine_task(&self, task: &Task) -> webqa::Task {
        self.engine_task_with_train(task, self.train_pages)
    }

    /// [`Setup::engine_task`] with only the first `n_train` labels; the
    /// unlabeled (test) split is unchanged so scores stay comparable
    /// across `n_train` (the Figure 14 sweep).
    pub fn engine_task_with_train(&self, task: &Task, n_train: usize) -> webqa::Task {
        let pages = self.corpus.pages(task.domain);
        let mut t = webqa::Task::from_id_split(
            task.question,
            task.keywords.iter().copied(),
            self.domain_ids(task.domain),
            self.train_pages,
            |i| pages[i].gold(task.id).to_vec(),
        );
        // Fewer labels than the split boundary (the Figure 14 sweep): drop
        // the extras but keep the test split unchanged so scores compare.
        t.labeled.truncate(n_train);
        t
    }

    /// Gold labels of the unlabeled (test) split, aligned with the
    /// engine task's answer order.
    pub fn test_gold(&self, task: &Task) -> Vec<Vec<String>> {
        let split = self.train_pages.min(self.domain_ids(task.domain).len());
        self.corpus.pages(task.domain)[split..]
            .iter()
            .map(|p| p.gold(task.id).to_vec())
            .collect()
    }

    /// Path of the cross-bench result cache for this setup. Figure 12,
    /// Table 2, and Table 6 all present the *same* experiment, so the
    /// first bench to run stores the per-task rows and the others reuse
    /// them.
    fn cache_path(&self) -> std::path::PathBuf {
        // Benches run with the package directory as cwd; anchor the cache
        // in the workspace target directory.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
        root.join(format!(
            "webqa_rows_p{}_t{}_s{}.tsv",
            self.pages_per_domain, self.train_pages, self.seed
        ))
    }
}

/// Per-task rows of the tool-comparison experiment, cached on disk across
/// bench invocations (delete `target/webqa_rows_*.tsv` to force a rerun).
pub fn task_rows_cached(setup: &Setup) -> Vec<TaskRow> {
    let path = setup.cache_path();
    if let Some(rows) = read_rows(&path) {
        eprintln!("# reusing cached rows from {}", path.display());
        return rows;
    }
    let rows: Vec<TaskRow> = webqa_corpus::TASKS
        .iter()
        .map(|t| {
            let row = run_all_tools(setup, t, default_config());
            eprintln!(
                "  {:<10} webqa F1={:.2}  bertqa F1={:.2}  hyb F1={:.2}  ent F1={:.2}",
                t.id, row.webqa.f1, row.bertqa.f1, row.hyb.f1, row.ent.f1
            );
            row
        })
        .collect();
    write_rows(&path, &rows);
    rows
}

fn read_rows(path: &std::path::Path) -> Option<Vec<TaskRow>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut cols = line.split('\t');
        let id = cols.next()?;
        let task = webqa_corpus::task_by_id(id)?;
        let mut vals = [0.0f64; 12];
        for v in vals.iter_mut() {
            *v = cols.next()?.parse().ok()?;
        }
        let s = |i: usize| Score {
            precision: vals[i],
            recall: vals[i + 1],
            f1: vals[i + 2],
        };
        rows.push(TaskRow {
            task,
            webqa: s(0),
            bertqa: s(3),
            hyb: s(6),
            ent: s(9),
        });
    }
    if rows.len() == webqa_corpus::TASKS.len() {
        Some(rows)
    } else {
        None
    }
}

fn write_rows(path: &std::path::Path, rows: &[TaskRow]) {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in rows {
        let mut line = r.task.id.to_string();
        for s in [&r.webqa, &r.bertqa, &r.hyb, &r.ent] {
            let _ = write!(line, "\t{}\t{}\t{}", s.precision, s.recall, s.f1);
        }
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(path, out);
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scores of every tool on one task (a row of Table 6).
#[derive(Debug, Clone)]
pub struct TaskRow {
    /// The task.
    pub task: &'static Task,
    /// WebQA's test-set score.
    pub webqa: Score,
    /// BERTQA baseline score.
    pub bertqa: Score,
    /// HYB baseline score.
    pub hyb: Score,
    /// EntExtract baseline score.
    pub ent: Score,
}

/// Runs WebQA (with the given pipeline config) on one task and scores the
/// held-out pages. The engine reads the interned pages — no `PageTree`
/// is parsed or cloned here.
pub fn run_webqa(setup: &Setup, task: &Task, config: Config) -> Score {
    run_webqa_with_train(setup, task, config, setup.train_pages)
}

/// Runs WebQA with only the first `n_train` of the labeled pages (the
/// Figure 14 sweep); the test split is unchanged so scores stay
/// comparable across `n_train`.
pub fn run_webqa_with_train(setup: &Setup, task: &Task, config: Config, n_train: usize) -> Score {
    let engine = setup.engine(config);
    let result = engine
        .run(
            &setup.engine_task_with_train(task, n_train),
            &CancelToken::never(),
        )
        .expect("store-issued ids always resolve");
    score_answers(&result.answers, &setup.test_gold(task)).expect("aligned by construction")
}

/// Runs all four tools on one task (the computation behind Figure 12,
/// Table 2, and Table 6).
pub fn run_all_tools(setup: &Setup, task: &'static Task, config: Config) -> TaskRow {
    let data = setup.dataset(task);
    let gold: Vec<_> = data.test.iter().map(|p| p.gold.clone()).collect();

    // WebQA.
    let webqa = run_webqa(setup, task, config);

    // BERTQA: flat-text QA per page.
    let bq = BertQa::new();
    let bert_answers: Vec<Vec<String>> = data
        .test
        .iter()
        .map(|p| bq.answer_page(task.question, &p.html))
        .collect();
    let bertqa = score_answers(&bert_answers, &gold).expect("aligned");

    // HYB: exact-match wrapper induction from the labeled pages.
    let hyb_train: Vec<(String, Vec<String>)> = data
        .train
        .iter()
        .map(|p| (p.html.clone(), p.gold.clone()))
        .collect();
    let hyb_answers: Vec<Vec<String>> = match Hyb::train(&hyb_train) {
        Ok(wrapper) => data.test.iter().map(|p| wrapper.extract(&p.html)).collect(),
        Err(_) => vec![Vec::new(); data.test.len()], // synthesis failed (paper §8.1)
    };
    let hyb = score_answers(&hyb_answers, &gold).expect("aligned");

    // EntExtract: zero-shot.
    let ee = EntExtract::new();
    let ent_answers: Vec<Vec<String>> = data
        .test
        .iter()
        .map(|p| ee.extract(task.question, &p.html))
        .collect();
    let ent = score_answers(&ent_answers, &gold).expect("aligned");

    TaskRow {
        task,
        webqa,
        bertqa,
        hyb,
        ent,
    }
}

/// Macro-averages a set of scores (how the paper aggregates per-task rows
/// into domain rows and the Figure 12 bars).
pub fn mean_scores<'a, I: IntoIterator<Item = &'a Score>>(scores: I) -> Score {
    Score::mean(scores)
}

/// Micro-average counts helper re-exported for benches that accumulate
/// their own counts.
pub fn counts_to_score(c: Counts) -> Score {
    Score::from_counts(c)
}

/// Default pipeline config used by the accuracy benches: the standard
/// pipeline with a trimmed program cap and ensemble size (the selection
/// outcome is grouped by program *behaviour*, so shrinking the syntactic
/// ensemble does not change the reproduced quantities).
pub fn default_config() -> Config {
    let mut c = Config::default();
    c.synth.max_programs = 600;
    c.selection.ensemble_size = 300;
    c
}

/// Pipeline config with a fixed selection strategy.
pub fn config_with_strategy(strategy: Selection) -> Config {
    Config {
        strategy,
        ..Config::default()
    }
}

/// Formats one score triple as the paper prints them (two decimals).
pub fn fmt_score(s: &Score) -> String {
    format!("{:.2} {:.2} {:.2}", s.precision, s.recall, s.f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_corpus::task_by_id;

    fn tiny_setup() -> Setup {
        Setup::new(8, 4, 7)
    }

    #[test]
    fn corpus_pages_are_interned_once() {
        let setup = tiny_setup();
        // 4 domains × 8 pages, each parsed exactly once; every task and
        // engine clone reads the same Arcs.
        assert_eq!(setup.engine(default_config()).store().len(), 32);
        let t = task_by_id("fac_t1").unwrap();
        let spec = setup.engine_task(t);
        assert_eq!(spec.labeled.len(), 4);
        assert_eq!(spec.unlabeled.len(), 4);
        assert_eq!(setup.test_gold(t).len(), 4);
    }

    #[test]
    fn run_all_tools_produces_scores_in_range() {
        let setup = tiny_setup();
        let task = task_by_id("clinic_t1").unwrap();
        let row = run_all_tools(&setup, task, default_config());
        for s in [row.webqa, row.bertqa, row.hyb, row.ent] {
            assert!((0.0..=1.0).contains(&s.f1));
        }
    }

    #[test]
    fn webqa_beats_baselines_on_a_list_task() {
        let setup = tiny_setup();
        let task = task_by_id("fac_t1").unwrap();
        let row = run_all_tools(&setup, task, default_config());
        assert!(
            row.webqa.f1 >= row.bertqa.f1 && row.webqa.f1 >= row.hyb.f1,
            "WebQA {:?} vs BERTQA {:?} / HYB {:?}",
            row.webqa,
            row.bertqa,
            row.hyb
        );
    }
}
