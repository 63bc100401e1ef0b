//! Implementations of the CLI subcommands.

use std::fmt::Write as _;

use webqa::{score_answers, CancelToken, Config, Engine, Modality, Selection, Task as EngineTask};
use webqa_baselines::{BertQa, EntExtract, Hyb};
use webqa_corpus::{
    domain_stats, generate_pages, task_by_id, Corpus, Domain, Task, TaskDataset, TASKS,
};
use webqa_dsl::{lint, normalize, PageTree, Program, QueryContext};
use webqa_synth::SynthConfig;

use crate::args::ParsedArgs;
use crate::CliError;

impl From<webqa::Error> for CliError {
    fn from(e: webqa::Error) -> Self {
        CliError::Command(e.to_string())
    }
}

/// The `help` text.
pub(crate) fn help() -> String {
    "\
webqa-cli — web question answering with neurosymbolic program synthesis

USAGE:
    webqa-cli <COMMAND> [OPTIONS]

COMMANDS:
    tasks     List the 25 evaluation tasks (Table 5 of the paper)
                  [--domain faculty|conference|class|clinic]
    corpus    Generate synthetic webpages
                  --domain D [--count N] [--seed S] [--page I] [--raw]
    synth     Synthesize an extraction program for a corpus task
                  --task ID [--train N] [--pages N] [--seed S] [--paper]
                  [--strategy transductive|random|shortest]
                  [--modality both|nl|kw] [--baselines] [--show N] [--json]
                  [--synth-jobs N]
    eval      Evaluate many corpus tasks through the batch engine
                  [--tasks A,B,C] [--domain D] [--pages N] [--train N]
                  [--seed S] [--jobs N] [--synth-jobs N] [--paper]
                  --jobs N runs independent tasks on N worker threads;
                  --synth-jobs N parallelizes branch synthesis *inside*
                  each task (default 1 = sequential; results are
                  identical either way)
    export    Write generated pages (HTML + gold labels) to a directory
                  --domain D --out DIR [--count N] [--seed S]
    run       Run a DSL program on a page
                  --program SRC --question Q --keywords A,B
                  (--html SRC | --html-file PATH) [--lenient]
                  --lenient skips the strict damage checks (browser-style
                  recovery) for pages the fallible parser rejects
    import    Ingest a directory of real HTML pages through the page
              store, printing each file's content digest and parse
              diagnostics; strict by default (rejected pages are listed
              and the exit code is non-zero, like check)
                  DIR [--lenient]
                  [--program SRC [--question Q] [--keywords A,B]]
                  --program additionally runs the program on every
                  interned page (import piped into run)
    check     Lint + analyze a DSL program (sound static verdicts:
              provably-false guards, subsumed branches, provably-empty
              extractors); exits non-zero when anything fires
                  --program SRC [--question Q] [--keywords A,B]
                  [--normalize] [--json]
    stats     Structural-heterogeneity statistics of the generated corpus
                  [--count N] [--seed S] [--domain D]
    serve     Run the resident serving daemon (line-delimited JSON
              and/or HTTP/1.1; see webqa_server's crate docs for both
              wire protocols)
                  (--tcp HOST:PORT | --unix PATH | --http HOST:PORT |
                  any mix) [--paper] [--shards N] [--synth-jobs N]
                  [--feature-cache N] [--result-cache N]
                  [--max-frame BYTES] [--max-requests N] [--workers N]
                  [--backlog N] [--deadline-ms MS] [--cache-dir DIR]
                  --shards N splits the engine into N digest-routed
                  shards, each with its own store, caches, and worker
                  slice (0 = one per core; responses are byte-identical
                  whatever N is); --http HOST:PORT serves the same ops
                  as POST /v1/run|run_batch|intern, GET /v1/ping|stats;
                  --max-requests N serves exactly N responses then stops
                  (0 = run until killed, the default); --workers N fixes
                  the pool executing run/run_batch (0 = all cores);
                  --backlog N caps the admission queue (beyond it,
                  requests are shed with an overloaded error);
                  --deadline-ms MS bounds every request's latency (0 =
                  none); cache knobs size the engine's cross-request
                  feature store / result LRU (0 disables);
                  --cache-dir DIR persists interned pages and the
                  query-independent base-feature tier across restarts
                  (loaded on startup, spilled on clean shutdown;
                  responses are byte-identical with or without it)
    client    Send one request line to a running server, print the reply
                  (--tcp HOST:PORT | --unix PATH | --http HOST:PORT)
                  [--deadline-ms MS]
                  (--request REQUEST | --op ping|stats | --batch TASKS)
                  --batch TASKS wraps a JSON array of run specs into one
                  run_batch request; --http routes the op onto the
                  HTTP/1.1 facade (same envelope back); stats replies
                  get a per-shard breakdown rendered after the raw JSON
    bench-fleet  Measure fleet throughput at each shard count of a sweep
                  [--daemons K] [--shards 1,2,...] [--clients N]
                  [--repeats N] [--pages N] [--train N] [--seed S]
                  [--record]
                  spawns K in-process daemons per sweep point, drives
                  them with round-robin clients replaying a duplicated
                  task stream, prints a shards-vs-req/s table; --record
                  appends a \"serve_fleet\" record to BENCH_serve.json
    help      Show this message
"
    .to_string()
}

fn parse_domain(s: &str) -> Result<Domain, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "faculty" => Ok(Domain::Faculty),
        "conference" => Ok(Domain::Conference),
        "class" => Ok(Domain::Class),
        "clinic" => Ok(Domain::Clinic),
        other => Err(CliError::Command(format!(
            "unknown domain {other:?} (expected faculty|conference|class|clinic)"
        ))),
    }
}

/// `tasks`: the Table 5 catalogue.
pub(crate) fn tasks(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&["domain"])?;
    let filter = a.get("domain").map(parse_domain).transpose()?;
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:<11} QUESTION / KEYWORDS", "ID", "DOMAIN");
    for t in &TASKS {
        if filter.is_some_and(|d| d != t.domain) {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<10} {:<11} {}",
            t.id,
            format!("{:?}", t.domain),
            t.question
        );
        let _ = writeln!(
            out,
            "{:<10} {:<11}   keywords: {}",
            "",
            "",
            t.keywords.join(", ")
        );
    }
    Ok(out)
}

/// `corpus`: generate pages, print an inventory or one page's HTML.
pub(crate) fn corpus(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&["domain", "count", "seed", "page", "raw"])?;
    let domain = parse_domain(a.require("domain")?)?;
    let count: usize = a.get_parsed("count", 5, "a positive integer")?;
    let seed: u64 = a.get_parsed("seed", 0, "an integer")?;
    let pages = generate_pages(domain, count, seed);

    if let Some(i) = a.get("page") {
        let i: usize = i.parse().map_err(|_| {
            CliError::Command(format!("--page {i:?} is not an index into 0..{count}"))
        })?;
        let page = pages
            .get(i)
            .ok_or_else(|| CliError::Command(format!("page index {i} out of range 0..{count}")))?;
        if a.switch("raw") {
            return Ok(page.html.clone());
        }
        let tree = page.tree();
        let mut out = String::new();
        let _ = writeln!(out, "{}: {} tree nodes", page.name, tree.len());
        for (task_id, gold) in &page.gold {
            let _ = writeln!(out, "  {task_id}: {} gold strings", gold.len());
        }
        return Ok(out);
    }

    let mut out = String::new();
    let _ = writeln!(out, "{count} {domain:?} pages (seed {seed}):");
    for p in &pages {
        let tree = p.tree();
        let _ = writeln!(
            out,
            "  {:<16} {:>4} nodes  {:>6} bytes html",
            p.name,
            tree.len(),
            p.html.len()
        );
    }
    Ok(out)
}

fn parse_strategy(s: &str) -> Result<Selection, CliError> {
    match s {
        "transductive" => Ok(Selection::Transductive),
        "random" => Ok(Selection::Random),
        "shortest" => Ok(Selection::Shortest),
        other => Err(CliError::Command(format!(
            "unknown strategy {other:?} (expected transductive|random|shortest)"
        ))),
    }
}

fn parse_modality(s: &str) -> Result<Modality, CliError> {
    match s {
        "both" => Ok(Modality::Both),
        "nl" => Ok(Modality::QuestionOnly),
        "kw" => Ok(Modality::KeywordsOnly),
        other => Err(CliError::Command(format!(
            "unknown modality {other:?} (expected both|nl|kw)"
        ))),
    }
}

/// `synth`: end-to-end synthesis + evaluation on one corpus task.
pub(crate) fn synth(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&[
        "task",
        "train",
        "pages",
        "seed",
        "paper",
        "strategy",
        "modality",
        "baselines",
        "show",
        "json",
        "synth-jobs",
    ])?;
    let task_id = a.require("task")?;
    let task: &Task = task_by_id(task_id)
        .ok_or_else(|| CliError::Command(format!("unknown task {task_id:?}; see `tasks`")))?;
    let n_pages: usize = a.get_parsed("pages", 12, "a positive integer")?;
    let n_train: usize = a.get_parsed("train", 3, "a positive integer")?;
    let seed: u64 = a.get_parsed("seed", 0, "an integer")?;
    let show: usize = a.get_parsed("show", 3, "a positive integer")?;
    if n_train >= n_pages {
        return Err(CliError::Command(format!(
            "--train {n_train} must be smaller than --pages {n_pages}"
        )));
    }

    let mut config = Config::default();
    if a.switch("paper") {
        config.synth = SynthConfig::paper();
    }
    config.synth.jobs = a.get_parsed("synth-jobs", 1, "a positive integer")?;
    if let Some(s) = a.get("strategy") {
        config.strategy = parse_strategy(s)?;
    }
    if let Some(m) = a.get("modality") {
        config.modality = parse_modality(m)?;
    }

    let corpus = Corpus::generate(n_pages, seed);
    // Intern the split into the engine's page store (consuming the
    // dataset: the trees move, they are not cloned) and run the staged
    // pipeline as one engine task.
    let TaskDataset { train, test, .. } = corpus.dataset(task, n_train);
    let mut engine = Engine::new(config);
    let mut etask = EngineTask::new(task.question, task.keywords.iter().copied());
    let mut train_html: Vec<String> = Vec::with_capacity(train.len());
    for p in train {
        let id = engine.store_mut().insert_tree(p.page);
        etask.labeled.push((id, p.gold));
        train_html.push(p.html);
    }
    let mut gold: Vec<Vec<String>> = Vec::with_capacity(test.len());
    let mut test_html: Vec<String> = Vec::with_capacity(test.len());
    for p in test {
        etask.unlabeled.push(engine.store_mut().insert_tree(p.page));
        gold.push(p.gold);
        test_html.push(p.html);
    }
    let (n_labeled, n_test) = (etask.labeled.len(), etask.unlabeled.len());
    let result = engine.run(&etask, &CancelToken::never())?;

    if a.switch("json") {
        let score = score_answers(&result.answers, &gold)?;
        let report = SynthReport {
            task: task.id,
            question: task.question,
            train_pages: n_labeled,
            test_pages: n_test,
            train_f1: result.synthesis.f1,
            total_optimal: result.synthesis.total_optimal,
            selected: result.program.clone(),
            test: score,
            stats: result.synthesis.stats,
        };
        return serde_json::to_string_pretty(&report)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| CliError::Command(format!("JSON encoding failed: {e}")));
    }

    let mut out = String::new();
    let _ = writeln!(out, "task {}: {}", task.id, task.question);
    let _ = writeln!(
        out,
        "training: {} pages, optimal F1 {:.3}, {} optimal programs ({} materialized)",
        n_labeled,
        result.synthesis.f1,
        result.synthesis.total_optimal,
        result.synthesis.programs.len()
    );
    match &result.program {
        Some(p) => {
            let _ = writeln!(out, "selected: {p}");
        }
        None => {
            let _ = writeln!(out, "selected: (no program synthesized)");
        }
    }
    for (i, p) in result.synthesis.programs.iter().take(show).enumerate() {
        let _ = writeln!(out, "  optimal[{i}]: {p}");
    }

    let score = score_answers(&result.answers, &gold)?;
    let _ = writeln!(
        out,
        "test ({} pages): P {:.3}  R {:.3}  F1 {:.3}",
        n_test, score.precision, score.recall, score.f1
    );

    if a.switch("baselines") {
        // The baselines re-parse raw HTML themselves; they do not go
        // through the engine's page store.
        let train_pairs: Vec<(String, Vec<String>)> = train_html
            .into_iter()
            .zip(&etask.labeled)
            .map(|(html, (_, gold))| (html, gold.clone()))
            .collect();

        let bert = BertQa::new();
        let answers: Vec<Vec<String>> = test_html
            .iter()
            .map(|html| bert.answer_page(task.question, html))
            .collect();
        let s = score_answers(&answers, &gold)?;
        let _ = writeln!(
            out,
            "BertQA     : P {:.3}  R {:.3}  F1 {:.3}",
            s.precision, s.recall, s.f1
        );

        let answers: Vec<Vec<String>> = match Hyb::train(&train_pairs) {
            Ok(h) => test_html.iter().map(|html| h.extract(html)).collect(),
            Err(_) => vec![Vec::new(); test_html.len()],
        };
        let s = score_answers(&answers, &gold)?;
        let _ = writeln!(
            out,
            "HYB        : P {:.3}  R {:.3}  F1 {:.3}",
            s.precision, s.recall, s.f1
        );

        let ee = EntExtract::new();
        let answers: Vec<Vec<String>> = test_html
            .iter()
            .map(|html| ee.extract(task.question, html))
            .collect();
        let s = score_answers(&answers, &gold)?;
        let _ = writeln!(
            out,
            "EntExtract : P {:.3}  R {:.3}  F1 {:.3}",
            s.precision, s.recall, s.f1
        );
    }

    Ok(out)
}

/// `eval`: batch evaluation of many corpus tasks through
/// [`Engine::run_batch`]. All selected tasks share one interned page
/// store; `--jobs N` (default 1) fans independent tasks out over `N`
/// worker threads with deterministic, input-ordered results.
pub(crate) fn eval(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&[
        "tasks",
        "domain",
        "pages",
        "train",
        "seed",
        "jobs",
        "synth-jobs",
        "paper",
    ])?;
    let n_pages: usize = a.get_parsed("pages", 8, "a positive integer")?;
    let n_train: usize = a.get_parsed("train", 3, "a positive integer")?;
    let seed: u64 = a.get_parsed("seed", 0, "an integer")?;
    let jobs: usize = a.get_parsed("jobs", 1, "a positive integer")?;
    if n_train >= n_pages {
        return Err(CliError::Command(format!(
            "--train {n_train} must be smaller than --pages {n_pages}"
        )));
    }

    // Which tasks: explicit ids beat a domain filter beats "all 25".
    let ids = a.get_list("tasks");
    let tasks: Vec<&'static Task> = if !ids.is_empty() {
        ids.iter()
            .map(|id| {
                task_by_id(id)
                    .ok_or_else(|| CliError::Command(format!("unknown task {id:?}; see `tasks`")))
            })
            .collect::<Result<_, _>>()?
    } else {
        let filter = a.get("domain").map(parse_domain).transpose()?;
        TASKS
            .iter()
            .filter(|t| filter.is_none_or(|d| d == t.domain))
            .collect()
    };

    let mut config = Config::default();
    if a.switch("paper") {
        config.synth = SynthConfig::paper();
    }
    config.synth.jobs = a.get_parsed("synth-jobs", 1, "a positive integer")?;

    // One shared store: every page of every involved domain is parsed
    // and interned exactly once, however many tasks read it.
    let corpus = Corpus::generate(n_pages, seed);
    let mut engine = Engine::new(config);
    let mut domain_ids: Vec<(Domain, Vec<webqa::PageId>)> = Vec::new();
    for &domain in &Domain::ALL {
        if tasks.iter().any(|t| t.domain == domain) {
            let ids = corpus
                .pages(domain)
                .iter()
                .map(|p| engine.store_mut().insert_tree(p.tree()))
                .collect();
            domain_ids.push((domain, ids));
        }
    }
    let ids_of = |d: Domain| -> &[webqa::PageId] {
        domain_ids
            .iter()
            .find(|(dom, _)| *dom == d)
            .map(|(_, ids)| ids.as_slice())
            .expect("domains of selected tasks are interned")
    };

    let etasks: Vec<EngineTask> = tasks
        .iter()
        .map(|t| {
            let pages = corpus.pages(t.domain);
            EngineTask::from_id_split(
                t.question,
                t.keywords.iter().copied(),
                ids_of(t.domain),
                n_train,
                |i| pages[i].gold(t.id).to_vec(),
            )
        })
        .collect();

    let results = engine.run_batch(&etasks, jobs, &CancelToken::never())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# eval: {} tasks | {} pages/domain ({} labeled) | seed {} | jobs {} | {} interned pages",
        tasks.len(),
        n_pages,
        n_train,
        seed,
        jobs.max(1),
        engine.store().len(),
    );
    let _ = writeln!(
        out,
        "{:<11} {:>8} {:>8} {:>7} {:>7} {:>7}",
        "TASK", "TRAIN_F1", "OPTIMAL", "P", "R", "F1"
    );
    let mut f1_sum = 0.0;
    for (t, result) in tasks.iter().zip(&results) {
        let gold: Vec<Vec<String>> = corpus.pages(t.domain)[n_train..]
            .iter()
            .map(|p| p.gold(t.id).to_vec())
            .collect();
        let score = score_answers(&result.answers, &gold)?;
        f1_sum += score.f1;
        let _ = writeln!(
            out,
            "{:<11} {:>8.3} {:>8} {:>7.3} {:>7.3} {:>7.3}",
            t.id,
            result.synthesis.f1,
            result.synthesis.total_optimal,
            score.precision,
            score.recall,
            score.f1
        );
    }
    let _ = writeln!(
        out,
        "mean F1 over {} tasks: {:.3}",
        tasks.len(),
        f1_sum / (tasks.len().max(1)) as f64
    );
    Ok(out)
}

/// Machine-readable result of `synth --json`.
#[derive(Debug, serde::Serialize)]
struct SynthReport {
    task: &'static str,
    question: &'static str,
    train_pages: usize,
    test_pages: usize,
    train_f1: f64,
    total_optimal: usize,
    selected: Option<Program>,
    test: webqa::Score,
    stats: webqa_synth::SynthStats,
}

/// `export`: write generated pages and their gold labels to disk.
pub(crate) fn export(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&["domain", "out", "count", "seed"])?;
    let domain = parse_domain(a.require("domain")?)?;
    let out_dir = std::path::PathBuf::from(a.require("out")?);
    let count: usize = a.get_parsed("count", 10, "a positive integer")?;
    let seed: u64 = a.get_parsed("seed", 0, "an integer")?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| CliError::Command(format!("cannot create {}: {e}", out_dir.display())))?;
    let pages = generate_pages(domain, count, seed);
    let mut gold_index = serde_json::Map::new();
    for p in &pages {
        let file = out_dir.join(format!("{}.html", p.name));
        std::fs::write(&file, &p.html)
            .map_err(|e| CliError::Command(format!("cannot write {}: {e}", file.display())))?;
        let labels: serde_json::Value = p
            .gold
            .iter()
            .map(|(task, strings)| (task.to_string(), serde_json::json!(strings)))
            .collect::<serde_json::Map<_, _>>()
            .into();
        gold_index.insert(p.name.clone(), labels);
    }
    let gold_path = out_dir.join("gold.json");
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(gold_index))
        .map_err(|e| CliError::Command(format!("JSON encoding failed: {e}")))?;
    std::fs::write(&gold_path, json)
        .map_err(|e| CliError::Command(format!("cannot write {}: {e}", gold_path.display())))?;
    Ok(format!(
        "wrote {count} pages and gold.json to {}\n",
        out_dir.display()
    ))
}

/// `import`: walk a directory of real HTML pages and intern each one
/// through the normal [`webqa::PageStore`] path, reporting per-file parse
/// diagnostics and content digests.
///
/// Strict by default: a page the fallible parser rejects is reported and
/// counted, and the command exits non-zero (the `check` convention), so
/// an ingestion pipeline can gate on page health. `--lenient` opts into
/// browser-style recovery for every page. With `--program`, each
/// successfully interned page is additionally run through the program —
/// the one-command version of piping `import` into `run`.
pub(crate) fn import(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_options(&["lenient", "program", "question", "keywords"])?;
    let [dir] = a.positionals() else {
        return Err(CliError::Command(
            "usage: import DIR [--lenient] [--program SRC [--question Q] [--keywords A,B]]"
                .to_string(),
        ));
    };
    let lenient = a.switch("lenient");
    let program: Option<Program> = a
        .get("program")
        .map(|src| {
            src.parse()
                .map_err(|e| CliError::Command(format!("bad --program: {e}")))
        })
        .transpose()?;
    let ctx = QueryContext::new(a.get("question").unwrap_or(""), a.get_list("keywords"));

    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Command(format!("cannot read directory {dir:?}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x.eq_ignore_ascii_case("html") || x.eq_ignore_ascii_case("htm"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(CliError::Command(format!("no .html/.htm files in {dir:?}")));
    }

    let mut store = webqa::PageStore::new();
    let mut out = String::new();
    let mut rejected = 0usize;
    for path in &files {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let html = std::fs::read_to_string(path)
            .map_err(|e| CliError::Command(format!("cannot read {}: {e}", path.display())))?;
        // The strict check decides acceptance; the lenient report is what
        // describes the damage either way (strict accepts ordinary
        // sloppiness such as unclosed tags, and both paths build the same
        // tree on accepted pages).
        let (page, diag) = PageTree::parse_report(&html);
        if !lenient {
            if let Err(e) = PageTree::try_parse(&html) {
                let _ = writeln!(out, "{name}: REJECTED: {e}");
                rejected += 1;
                continue;
            }
        }
        let id = store.insert_tree(page);
        let _ = writeln!(out, "{name}: digest {:016x} [{diag}]", id.digest());
        if let Some(program) = &program {
            let tree = store.get(id)?;
            for ans in program.eval(&ctx, tree) {
                let _ = writeln!(out, "  {ans}");
            }
        }
    }
    let _ = writeln!(
        out,
        "imported {} of {} pages ({} distinct) from {dir}",
        files.len() - rejected,
        files.len(),
        store.len(),
    );
    if rejected > 0 {
        let _ = writeln!(
            out,
            "{rejected} page(s) rejected by the strict parser; re-run with --lenient \
             to ingest them with browser-style recovery"
        );
        return Err(CliError::CheckFailed(out));
    }
    Ok(out)
}

/// `stats`: corpus heterogeneity report.
pub(crate) fn stats(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&["count", "seed", "domain"])?;
    let count: usize = a.get_parsed("count", 20, "a positive integer")?;
    let seed: u64 = a.get_parsed("seed", 0, "an integer")?;
    let filter = a.get("domain").map(parse_domain).transpose()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus statistics ({count} pages/domain, seed {seed}):"
    );
    for domain in Domain::ALL {
        if filter.is_some_and(|d| d != domain) {
            continue;
        }
        let pages = generate_pages(domain, count, seed);
        let _ = writeln!(out, "  {}", domain_stats(domain, &pages));
    }
    Ok(out)
}

/// `run`: evaluate one program on one page.
pub(crate) fn run(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&[
        "program",
        "question",
        "keywords",
        "html",
        "html-file",
        "lenient",
    ])?;
    let program: Program = a
        .require("program")?
        .parse()
        .map_err(|e| CliError::Command(format!("bad --program: {e}")))?;
    let question = a.get("question").unwrap_or("");
    let keywords = a.get_list("keywords");
    let html = match (a.get("html"), a.get("html-file")) {
        (Some(h), None) => h.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Command(format!("cannot read {path:?}: {e}")))?,
        _ => {
            return Err(CliError::Command(
                "exactly one of --html or --html-file is required".to_string(),
            ))
        }
    };
    let ctx = QueryContext::new(question, keywords);
    // User-supplied HTML goes through the fallible parser by default so
    // damage is reported instead of silently recovered into a nonsense
    // tree; `--lenient` opts back into browser-style recovery for pages
    // whose prose trips the strict entity check (e.g. "Q&As;").
    let page = if a.switch("lenient") {
        PageTree::parse(&html)
    } else {
        PageTree::try_parse(&html).map_err(|e| CliError::Command(format!("bad page HTML: {e}")))?
    };
    let answers = program.eval(&ctx, &page);
    let mut out = String::new();
    let _ = writeln!(out, "{} answers:", answers.len());
    for ans in &answers {
        let _ = writeln!(out, "  {ans}");
    }
    Ok(out)
}

/// `serve`: run the resident daemon until killed (or until
/// `--max-requests` requests have been served, the scriptable stop
/// condition smoke tests rely on).
pub(crate) fn serve(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&[
        "tcp",
        "unix",
        "http",
        "paper",
        "synth-jobs",
        "feature-cache",
        "result-cache",
        "max-frame",
        "max-requests",
        "workers",
        "backlog",
        "shards",
        "deadline-ms",
        "cache-dir",
    ])?;
    let tcp = a.get("tcp");
    let unix = a.get("unix").map(std::path::PathBuf::from);
    let http = a.get("http");
    if tcp.is_none() && unix.is_none() && http.is_none() {
        return Err(CliError::Command(
            "serve needs an endpoint: --tcp HOST:PORT, --unix PATH, and/or --http HOST:PORT"
                .to_string(),
        ));
    }

    let mut config = Config::default();
    if a.switch("paper") {
        config.synth = SynthConfig::paper();
    }
    config.synth.jobs = a.get_parsed("synth-jobs", 1, "a positive integer")?;
    config.cache.feature_capacity = a.get_parsed(
        "feature-cache",
        config.cache.feature_capacity,
        "a non-negative integer",
    )?;
    config.cache.result_capacity = a.get_parsed(
        "result-cache",
        config.cache.result_capacity,
        "a non-negative integer",
    )?;
    let max_frame_bytes: usize = a.get_parsed("max-frame", 1 << 20, "a positive integer")?;
    let max_requests: u64 = a.get_parsed("max-requests", 0, "a non-negative integer")?;
    let workers: usize = a.get_parsed("workers", 0, "a non-negative integer")?;
    let backlog: usize = a.get_parsed("backlog", 64, "a positive integer")?;
    let shards: usize = a.get_parsed("shards", 1, "a non-negative integer")?;
    let deadline_ms: u64 = a.get_parsed("deadline-ms", 0, "a non-negative integer")?;

    let listening = webqa_server::Server::new(webqa_server::ServeOptions {
        engine: config,
        max_frame_bytes,
        workers,
        backlog,
        shards,
        default_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        max_responses: (max_requests > 0).then_some(max_requests),
        cache_dir: a.get("cache-dir").map(std::path::PathBuf::from),
    })
    .listen_all(tcp, unix.as_deref(), http)
    .map_err(|e| CliError::Command(format!("cannot bind: {e}")))?;

    // The daemon blocks here; announce the endpoints on stderr so
    // clients can find an OS-assigned port before we return.
    if let Some(addr) = listening.tcp_addr() {
        eprintln!("webqa-server listening on tcp://{addr}");
    }
    if let Some(path) = listening.unix_path() {
        eprintln!("webqa-server listening on unix://{}", path.display());
    }
    if let Some(addr) = listening.http_addr() {
        eprintln!("webqa-server listening on http://{addr}");
    }

    if max_requests > 0 {
        // Exact rendezvous on the completion condvar: the server's
        // write-permit cap (max_responses above) guarantees exactly
        // max_requests responses are ever written, and this wait
        // returns the moment the last one lands — no polling interval,
        // no overshoot.
        listening.wait_for_responses(max_requests);
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let served = listening.responses_sent();
    listening.shutdown();
    Ok(format!("served {served} requests\n"))
}

/// `client`: one request line to a running server, one response line
/// back.
pub(crate) fn client(a: &ParsedArgs) -> Result<String, CliError> {
    // `--request`, not `--json`: `json` is a global boolean switch
    // (`synth --json`), so it can never carry a value.
    a.expect_only(&[
        "tcp",
        "unix",
        "http",
        "request",
        "op",
        "batch",
        "deadline-ms",
    ])?;
    let deadline_ms: u64 = a.get_parsed("deadline-ms", 0, "a non-negative integer")?;
    let line =
        match (a.get("request"), a.get("op"), a.get("batch")) {
            (Some(request), None, None) if deadline_ms > 0 => {
                let mut parsed: serde_json::Value = serde_json::from_str(request).map_err(|e| {
                    CliError::Command(format!("--deadline-ms needs a valid JSON --request: {e}"))
                })?;
                match &mut parsed {
                    serde_json::Value::Object(obj) => {
                        obj.insert("deadline_ms".to_string(), serde_json::json!(deadline_ms));
                    }
                    _ => {
                        return Err(CliError::Command(
                            "--deadline-ms needs a JSON object --request".to_string(),
                        ))
                    }
                }
                serde_json::to_string(&parsed).expect("request values always serialize")
            }
            (Some(request), None, None) => request.to_string(),
            (None, Some(op @ ("ping" | "stats")), None) => format!("{{\"op\":\"{op}\"}}"),
            (None, Some(other), None) => {
                return Err(CliError::Command(format!(
                    "--op {other:?} has no argument-free form (expected ping|stats); use --request"
                )))
            }
            (None, None, Some(tasks)) => {
                let parsed: serde_json::Value = serde_json::from_str(tasks)
                    .map_err(|e| CliError::Command(format!("bad --batch: {e}")))?;
                if !matches!(parsed, serde_json::Value::Array(_)) {
                    return Err(CliError::Command(
                        "bad --batch: expected a JSON array of run specs".to_string(),
                    ));
                }
                let mut request = serde_json::Map::new();
                request.insert("op".to_string(), serde_json::json!("run_batch"));
                request.insert("tasks".to_string(), parsed);
                if deadline_ms > 0 {
                    request.insert("deadline_ms".to_string(), serde_json::json!(deadline_ms));
                }
                serde_json::to_string(&serde_json::Value::Object(request))
                    .expect("request values always serialize")
            }
            _ => return Err(CliError::Command(
                "exactly one of --request REQUEST, --op ping|stats, or --batch TASKS is required"
                    .to_string(),
            )),
        };
    let response = match (a.get("tcp"), a.get("unix"), a.get("http")) {
        (Some(addr), None, None) => webqa_server::Client::connect_tcp(addr)
            .map_err(|e| CliError::Command(format!("cannot connect to tcp://{addr}: {e}")))?
            .request_line(&line)
            .map_err(|e| CliError::Command(format!("request failed: {e}")))?,
        (None, Some(path), None) => webqa_server::Client::connect_unix(path)
            .map_err(|e| CliError::Command(format!("cannot connect to unix://{path}: {e}")))?
            .request_line(&line)
            .map_err(|e| CliError::Command(format!("request failed: {e}")))?,
        (None, None, Some(addr)) => {
            // The HTTP facade routes by path, so the op must be known
            // client-side; the body is the same request object (the
            // facade re-injects the op from the path, harmlessly).
            let parsed: serde_json::Value = serde_json::from_str(&line).map_err(|e| {
                CliError::Command(format!("--http needs a valid JSON object request: {e}"))
            })?;
            let (method, path) = match parsed["op"].as_str() {
                Some("run") => ("POST", "/v1/run"),
                Some("run_batch") => ("POST", "/v1/run_batch"),
                Some("intern") => ("POST", "/v1/intern"),
                Some("check") => ("POST", "/v1/check"),
                Some("ping") => ("GET", "/v1/ping"),
                Some("stats") => ("GET", "/v1/stats"),
                other => {
                    return Err(CliError::Command(format!(
                        "cannot route op {other:?} over HTTP (expected ping|intern|run|run_batch|check|stats)"
                    )))
                }
            };
            let (_status, body) = webqa_server::HttpClient::connect(addr)
                .map_err(|e| CliError::Command(format!("cannot connect to http://{addr}: {e}")))?
                .request(method, path, &line)
                .map_err(|e| CliError::Command(format!("request failed: {e}")))?;
            body
        }
        _ => {
            return Err(CliError::Command(
                "exactly one of --tcp HOST:PORT, --unix PATH, or --http HOST:PORT is required"
                    .to_string(),
            ))
        }
    };
    // For `stats`, follow the raw envelope with a human-readable
    // per-shard breakdown (the envelope stays line one, scripts keep
    // parsing it as before).
    let is_stats = serde_json::from_str::<serde_json::Value>(&line)
        .map(|v| v["op"].as_str() == Some("stats"))
        .unwrap_or(false);
    let mut out = response.clone() + "\n";
    if is_stats {
        out.push_str(&render_shard_stats(&response));
    }
    Ok(out)
}

/// Renders one cache tier as `3h/2m (60%)`, `0h/0m` (no traffic yet —
/// a rate would be 0/0), or `off` (tier disabled; rendering a hit rate
/// for a cache that is off was the misleading "0% hit rate" this
/// replaces).
fn render_tier(cache: &serde_json::Value, enabled_field: &str, prefix: &str) -> String {
    // Absent flag (older server) defaults to enabled — counters then
    // render as before.
    if !cache[enabled_field].as_bool().unwrap_or(true) {
        return "off".to_string();
    }
    let hits = cache[format!("{prefix}_hits").as_str()]
        .as_u64()
        .unwrap_or(0);
    let misses = cache[format!("{prefix}_misses").as_str()]
        .as_u64()
        .unwrap_or(0);
    match hits + misses {
        0 => format!("{hits}h/{misses}m"),
        total => format!(
            "{hits}h/{misses}m ({:.0}%)",
            hits as f64 / total as f64 * 100.0
        ),
    }
}

/// Renders the `stats` response's per-shard breakdown as one line per
/// shard (empty when the response has none), plus a `persist:` line
/// when the daemon has a snapshot directory with traffic.
fn render_shard_stats(response: &str) -> String {
    let Ok(v) = serde_json::from_str::<serde_json::Value>(response) else {
        return String::new();
    };
    let Some(shards) = v["ok"]["shards"].as_array() else {
        return String::new();
    };
    let mut out = String::new();
    for s in shards {
        let n = |field: &str| s[field].as_u64().unwrap_or(0);
        let _ = writeln!(
            out,
            "shard {}: workers {}, backlog {}, queue {}, inflight {}, pages {}, \
             feature {}, base {}, result {}",
            n("shard"),
            n("workers"),
            n("backlog"),
            n("queue_depth"),
            n("inflight"),
            n("pages"),
            render_tier(&s["cache"], "features_enabled", "feature"),
            render_tier(&s["cache"], "features_enabled", "base"),
            render_tier(&s["cache"], "results_enabled", "result"),
        );
    }
    let persist = &v["ok"]["persist"];
    if persist.as_object().is_some() {
        let p = |field: &str| persist[field].as_u64().unwrap_or(0);
        if p("pages_loaded")
            + p("base_loaded")
            + p("pages_spilled")
            + p("base_spilled")
            + p("corrupt_skipped")
            > 0
        {
            let _ = writeln!(
                out,
                "persist: loaded {} pages + {} base tables in {} ms, \
                 spilled {} pages + {} base tables, {} corrupt entries skipped",
                p("pages_loaded"),
                p("base_loaded"),
                p("load_ms"),
                p("pages_spilled"),
                p("base_spilled"),
                p("corrupt_skipped"),
            );
        }
    }
    out
}

/// `bench-fleet`: spawn an in-process fleet of daemons and measure
/// requests/sec at each shard count of a sweep — the scale-out
/// trajectory (`"bench":"serve_fleet"` records in `BENCH_serve.json`).
pub(crate) fn bench_fleet(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&[
        "daemons", "clients", "repeats", "shards", "pages", "train", "seed", "record",
    ])?;
    let daemons: usize = a.get_parsed("daemons", 2, "a positive integer")?;
    let clients: usize = a.get_parsed("clients", 4, "a positive integer")?;
    let repeats: usize = a.get_parsed("repeats", 2, "a positive integer")?;
    let pages: usize = a.get_parsed("pages", 4, "a positive integer")?;
    let train: usize = a.get_parsed("train", 2, "a positive integer")?;
    let seed: u64 = a.get_parsed("seed", 42, "a non-negative integer")?;
    if daemons == 0 || clients == 0 || repeats == 0 || pages < 2 || train >= pages {
        return Err(CliError::Command(
            "bench-fleet needs daemons/clients/repeats >= 1 and train < pages (pages >= 2)"
                .to_string(),
        ));
    }
    let shard_counts: Vec<usize> = a
        .get("shards")
        .unwrap_or("1,2")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    CliError::Command(format!(
                        "bad --shards {s:?}: expected a comma-separated list of positive integers"
                    ))
                })
        })
        .collect::<Result<_, _>>()?;

    // One task per domain: enough digest spread to occupy several
    // shards without re-running the whole catalogue per repeat.
    let task_ids = ["fac_t1", "conf_t1", "class_t1", "clinic_t1"];
    let corpus = Corpus::generate(pages, seed);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fleet: {daemons} daemons, {clients} round-robin clients x {repeats} repeats, \
         {} tasks ({pages} pages/domain, {train} labeled, seed {seed})",
        task_ids.len()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>12}",
        "shards", "requests", "wall_s", "req/s"
    );

    let mut entries = Vec::new();
    for &shards in &shard_counts {
        // A fresh fleet per sweep point: every daemon cold, every cache
        // empty, so the points differ only in the shard count.
        let fleet: Vec<webqa_server::Listening> = (0..daemons)
            .map(|_| {
                webqa_server::Server::new(webqa_server::ServeOptions {
                    engine: Config {
                        synth: SynthConfig::fast(),
                        ..Config::default()
                    },
                    shards,
                    ..webqa_server::ServeOptions::default()
                })
                .listen(Some("127.0.0.1:0"), None)
                .map_err(|e| CliError::Command(format!("cannot bind fleet daemon: {e}")))
            })
            .collect::<Result<_, _>>()?;
        let addrs: Vec<std::net::SocketAddr> = fleet
            .iter()
            .map(|l| l.tcp_addr().expect("tcp endpoint"))
            .collect();

        // Intern every page into every daemon up-front (out of the
        // timed window) and build each daemon's request lines from the
        // handles it issued.
        let mut request_lines: Vec<Vec<String>> = Vec::with_capacity(daemons);
        for &addr in &addrs {
            let mut setup = webqa_server::Client::connect_tcp(addr)
                .map_err(|e| CliError::Command(format!("cannot connect to fleet: {e}")))?;
            let mut lines = Vec::new();
            for id in task_ids {
                let task = task_by_id(id).expect("catalogue task");
                let domain_pages = corpus.pages(task.domain);
                let handles: Vec<u64> = domain_pages
                    .iter()
                    .map(|p| {
                        let mut m = serde_json::Map::new();
                        m.insert("op".to_string(), serde_json::json!("intern"));
                        m.insert("html".to_string(), serde_json::json!(p.html.clone()));
                        let resp = setup
                            .request(&serde_json::Value::Object(m))
                            .map_err(|e| CliError::Command(format!("intern failed: {e}")))?;
                        resp["ok"]["page"]
                            .as_u64()
                            .ok_or_else(|| CliError::Command(format!("intern refused: {resp}")))
                    })
                    .collect::<Result<_, _>>()?;
                let labeled: Vec<serde_json::Value> = handles[..train]
                    .iter()
                    .zip(domain_pages)
                    .map(|(&h, p)| {
                        let mut m = serde_json::Map::new();
                        m.insert("page".to_string(), serde_json::json!(h));
                        m.insert(
                            "gold".to_string(),
                            serde_json::json!(p.gold(task.id).to_vec()),
                        );
                        serde_json::Value::Object(m)
                    })
                    .collect();
                let mut m = serde_json::Map::new();
                m.insert("op".to_string(), serde_json::json!("run"));
                m.insert("question".to_string(), serde_json::json!(task.question));
                m.insert(
                    "keywords".to_string(),
                    serde_json::json!(task
                        .keywords
                        .iter()
                        .map(|k| k.to_string())
                        .collect::<Vec<_>>()),
                );
                m.insert("labeled".to_string(), serde_json::Value::Array(labeled));
                m.insert(
                    "targets".to_string(),
                    serde_json::json!(handles[train..].to_vec()),
                );
                lines.push(
                    serde_json::to_string(&serde_json::Value::Object(m))
                        .expect("request values always serialize"),
                );
            }
            request_lines.push(lines);
        }

        // The timed window: client c drives daemon c % daemons,
        // replaying the stream `repeats` times from its own offset.
        let start = std::time::Instant::now();
        let failures: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addrs[c % daemons];
                    let lines = &request_lines[c % daemons];
                    scope.spawn(move || {
                        let mut client = match webqa_server::Client::connect_tcp(addr) {
                            Ok(cl) => cl,
                            Err(_) => return repeats * lines.len(),
                        };
                        let mut failed = 0;
                        for r in 0..repeats {
                            for i in 0..lines.len() {
                                let line = &lines[(i + c + r) % lines.len()];
                                match client.request_line(line) {
                                    Ok(resp) if resp.contains("\"ok\"") => {}
                                    _ => failed += 1,
                                }
                            }
                        }
                        failed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .sum()
        });
        let wall_s = start.elapsed().as_secs_f64();
        for daemon in fleet {
            daemon.shutdown();
        }
        if failures > 0 {
            return Err(CliError::Command(format!(
                "fleet run at {shards} shards had {failures} failed requests"
            )));
        }

        let requests = clients * repeats * task_ids.len();
        let rps = requests as f64 / wall_s.max(1e-9);
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10.3} {:>12.1}",
            shards, requests, wall_s, rps
        );
        entries.push(webqa_bench::trajectory::FleetEntry {
            shards,
            requests,
            wall_s,
            requests_per_sec: rps,
        });
    }

    if a.switch("record") {
        let record = webqa_bench::trajectory::FleetRecord {
            bench: "serve_fleet".to_string(),
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            daemons,
            clients,
            repeats,
            pages,
            train,
            seed,
            entries,
        };
        let path = webqa_bench::trajectory::serve_path();
        match webqa_bench::trajectory::append(&path, &record) {
            Ok(()) => {
                let _ = writeln!(out, "# recorded to {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(out, "# trajectory not recorded ({e})");
            }
        }
    }
    Ok(out)
}

/// `check`: lint + abstract-interpretation verdicts (and optional
/// normalization) of a program. Returns [`CliError::CheckFailed`] —
/// carrying the full report, which the binary prints to stdout with a
/// failing exit status — when either pass finds a problem.
pub(crate) fn check(a: &ParsedArgs) -> Result<String, CliError> {
    a.expect_only(&["program", "question", "keywords", "normalize", "json"])?;
    let program: Program = a
        .require("program")?
        .parse()
        .map_err(|e| CliError::Command(format!("bad --program: {e}")))?;
    let ctx = QueryContext::new(a.get("question").unwrap_or(""), a.get_list("keywords"));
    let report = lint(&program, &ctx);
    let analysis = webqa_dsl::Analyzer::new(&ctx).analyze(&program);
    let verdicts = analysis.verdicts();
    let clean = report.is_clean() && verdicts.is_empty();
    let normalized = a.switch("normalize").then(|| normalize(&program));
    let out = if a.switch("json") {
        let strings = |items: Vec<String>| {
            serde_json::Value::Array(items.into_iter().map(serde_json::Value::from).collect())
        };
        let mut obj = serde_json::Map::new();
        obj.insert("program".into(), program.to_string().into());
        obj.insert("size".into(), serde_json::json!(program.size()));
        obj.insert("branches".into(), serde_json::json!(program.branches.len()));
        obj.insert(
            "lint".into(),
            strings(report.issues.iter().map(|i| i.to_string()).collect()),
        );
        obj.insert("verdicts".into(), strings(verdicts.clone()));
        obj.insert(
            "canonical_key".into(),
            analysis.canonical_key.clone().into(),
        );
        obj.insert("clean".into(), serde_json::Value::Bool(clean));
        if let Some(n) = &normalized {
            obj.insert("normalized".into(), n.to_string().into());
        }
        format!("{}\n", serde_json::Value::Object(obj))
    } else {
        let mut out = String::new();
        let _ = writeln!(out, "program: {program}");
        let _ = writeln!(
            out,
            "size {} | branches {}",
            program.size(),
            program.branches.len()
        );
        let _ = writeln!(out, "lint: {report}");
        let _ = writeln!(out, "analysis: {analysis}");
        if let Some(n) = &normalized {
            if *n == program {
                let _ = writeln!(out, "normalized: (already normal)");
            } else {
                let _ = writeln!(out, "normalized: {n}");
            }
        }
        out
    };
    if clean {
        Ok(out)
    } else {
        Err(CliError::CheckFailed(out))
    }
}

#[cfg(test)]
mod tests {
    use crate::{dispatch, CliError};

    #[test]
    fn bench_fleet_sweeps_shard_counts() {
        let out = dispatch(&[
            "bench-fleet",
            "--daemons",
            "2",
            "--clients",
            "2",
            "--repeats",
            "1",
            "--pages",
            "2",
            "--train",
            "1",
            "--shards",
            "1,2",
        ])
        .unwrap();
        assert!(out.contains("2 daemons"), "{out}");
        // One table row per swept shard count, and no record line
        // without --record.
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("1 ") || l.starts_with("2 "))
            .collect();
        assert_eq!(rows.len(), 2, "{out}");
        assert!(!out.contains("# recorded"), "{out}");
    }

    #[test]
    fn bench_fleet_rejects_bad_knobs() {
        let err = dispatch(&["bench-fleet", "--shards", "1,zero"]).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
        let err = dispatch(&["bench-fleet", "--pages", "2", "--train", "2"]).unwrap_err();
        assert!(err.to_string().contains("train < pages"), "{err}");
    }

    #[test]
    fn tasks_lists_all_25() {
        let out = dispatch(&["tasks"]).unwrap();
        for t in ["fac_t1", "conf_t6", "class_t3", "clinic_t5"] {
            assert!(out.contains(t), "missing {t} in {out}");
        }
    }

    #[test]
    fn tasks_filters_by_domain() {
        let out = dispatch(&["tasks", "--domain", "clinic"]).unwrap();
        assert!(out.contains("clinic_t1"));
        assert!(!out.contains("fac_t1"));
    }

    #[test]
    fn tasks_rejects_bad_domain() {
        let err = dispatch(&["tasks", "--domain", "zoo"]).unwrap_err();
        assert!(err.to_string().contains("zoo"));
    }

    #[test]
    fn corpus_inventory_and_page_views() {
        let out = dispatch(&[
            "corpus", "--domain", "faculty", "--count", "2", "--seed", "5",
        ])
        .unwrap();
        assert!(out.contains("faculty"), "{out}");
        assert!(out.contains("nodes"));

        let html = dispatch(&[
            "corpus", "--domain", "faculty", "--count", "2", "--page", "1", "--raw",
        ])
        .unwrap();
        assert!(html.contains("<h1>"), "{html}");

        let stats = dispatch(&[
            "corpus", "--domain", "faculty", "--count", "2", "--page", "0",
        ])
        .unwrap();
        assert!(stats.contains("tree nodes"));
        assert!(stats.contains("fac_t1"));
    }

    #[test]
    fn corpus_rejects_out_of_range_page() {
        let err =
            dispatch(&["corpus", "--domain", "class", "--count", "2", "--page", "7"]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn synth_runs_a_small_task() {
        let out = dispatch(&[
            "synth", "--task", "fac_t1", "--pages", "6", "--train", "2", "--seed", "3",
        ])
        .unwrap();
        assert!(out.contains("optimal F1"), "{out}");
        assert!(out.contains("test (4 pages)"), "{out}");
        assert!(out.contains("selected:"), "{out}");
    }

    #[test]
    fn synth_rejects_unknown_task_and_bad_split() {
        assert!(dispatch(&["synth", "--task", "nope"]).is_err());
        let err =
            dispatch(&["synth", "--task", "fac_t1", "--pages", "3", "--train", "3"]).unwrap_err();
        assert!(err.to_string().contains("smaller"));
    }

    #[test]
    fn eval_batches_tasks_and_jobs_do_not_change_output() {
        let args = |jobs: &'static str| {
            vec![
                "eval",
                "--tasks",
                "fac_t1,clinic_t1",
                "--pages",
                "5",
                "--train",
                "2",
                "--seed",
                "3",
                "--jobs",
                jobs,
            ]
        };
        let sequential = dispatch(&args("1")).unwrap();
        assert!(sequential.contains("fac_t1"), "{sequential}");
        assert!(sequential.contains("clinic_t1"), "{sequential}");
        assert!(sequential.contains("mean F1"), "{sequential}");
        // 5 faculty + 5 clinic pages interned once across both tasks.
        assert!(sequential.contains("10 interned pages"), "{sequential}");

        let parallel = dispatch(&args("4")).unwrap();
        // Byte-identical apart from the jobs count echoed in the header.
        assert_eq!(
            sequential.replace("jobs 1", "jobs N"),
            parallel.replace("jobs 4", "jobs N")
        );
    }

    #[test]
    fn eval_synth_jobs_do_not_change_output() {
        let args = |synth_jobs: &'static str| {
            vec![
                "eval",
                "--tasks",
                "fac_t1",
                "--pages",
                "5",
                "--train",
                "2",
                "--seed",
                "3",
                "--synth-jobs",
                synth_jobs,
            ]
        };
        // Branch-parallel synthesis inside the task is deterministic:
        // byte-identical report for any worker count.
        assert_eq!(dispatch(&args("1")).unwrap(), dispatch(&args("3")).unwrap());
    }

    #[test]
    fn eval_filters_by_domain_and_rejects_unknowns() {
        let err = dispatch(&["eval", "--tasks", "nope"]).unwrap_err();
        assert!(err.to_string().contains("nope"));
        let err = dispatch(&["eval", "--pages", "2", "--train", "2"]).unwrap_err();
        assert!(err.to_string().contains("smaller"));
    }

    #[test]
    fn run_evaluates_inline_html() {
        let out = dispatch(&[
            "run",
            "--program",
            "sat(descendants(root, leaf), true) -> content",
            "--question",
            "Who are the students?",
            "--keywords",
            "Students",
            "--html",
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
        ])
        .unwrap();
        assert!(out.contains("Jane Doe"), "{out}");
    }

    #[test]
    fn run_requires_exactly_one_html_source() {
        let err = dispatch(&["run", "--program", "sat(root, true) -> content"]).unwrap_err();
        assert!(err.to_string().contains("--html"));
    }

    #[test]
    fn run_rejects_bad_program() {
        let err = dispatch(&["run", "--program", "wat(", "--html", "<h1>x</h1>"]).unwrap_err();
        assert!(err.to_string().contains("bad --program"));
    }

    #[test]
    fn stats_reports_every_domain() {
        let out = dispatch(&["stats", "--count", "6", "--seed", "1"]).unwrap();
        for d in ["Faculty", "Conference", "Class", "Clinic"] {
            assert!(out.contains(d), "missing {d}: {out}");
        }
        assert!(out.contains("schemas"));
        let out = dispatch(&["stats", "--count", "4", "--domain", "clinic"]).unwrap();
        assert!(out.contains("Clinic") && !out.contains("Faculty"));
    }

    #[test]
    fn synth_json_is_valid_and_complete() {
        let out = dispatch(&[
            "synth", "--task", "fac_t1", "--pages", "6", "--train", "2", "--seed", "3", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["task"], "fac_t1");
        assert!(v["train_f1"].as_f64().unwrap() >= 0.0);
        assert!(v["test"]["f1"].as_f64().is_some());
        assert!(v["selected"].is_string() || v["selected"].is_null());
        assert!(v["stats"]["extractors_enumerated"].as_u64().unwrap() > 0);
    }

    #[test]
    fn export_writes_pages_and_gold() {
        let dir = std::env::temp_dir().join(format!("webqa_export_{}", std::process::id()));
        let out = dispatch(&[
            "export",
            "--domain",
            "clinic",
            "--count",
            "3",
            "--seed",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("3 pages"), "{out}");
        let gold = std::fs::read_to_string(dir.join("gold.json")).expect("gold.json exists");
        let v: serde_json::Value = serde_json::from_str(&gold).expect("valid JSON");
        assert_eq!(v.as_object().unwrap().len(), 3);
        let html_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "html")
            })
            .count();
        assert_eq!(html_files, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_interns_reports_and_gates_on_strict_damage() {
        let dir = std::env::temp_dir().join(format!("webqa_import_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("good.html"),
            "<h1>Jane Doe</h1><ul><li>A</li></ul>",
        )
        .unwrap();
        std::fs::write(dir.join("dup.html"), "<h1>Jane Doe</h1><ul><li>A</li></ul>").unwrap();
        std::fs::write(dir.join("sloppy.html"), "<ul><li>a<li>b</ul>").unwrap();
        std::fs::write(dir.join("bad.html"), "<p>&bogus;</p>").unwrap();
        std::fs::write(dir.join("notes.txt"), "not a page").unwrap();
        let dir_s = dir.to_str().unwrap();

        // Strict (default): the damaged page is rejected, the command
        // exits non-zero, and the rest are interned and reported.
        let err = dispatch(&["import", dir_s]).unwrap_err();
        let report = match err {
            CliError::CheckFailed(r) => r,
            other => panic!("expected CheckFailed, got {other:?}"),
        };
        assert!(
            report.contains("bad.html: REJECTED: malformed character reference"),
            "{report}"
        );
        assert!(report.contains("sloppy.html: digest"), "{report}");
        assert!(report.contains("[implicit-closes=2]"), "{report}");
        assert!(
            report.contains("imported 3 of 4 pages (2 distinct)"),
            "{report}"
        );
        assert!(!report.contains("notes.txt"), "{report}");

        // Lenient: everything interns; identical pages share a digest.
        let out = dispatch(&["import", dir_s, "--lenient"]).unwrap();
        assert!(out.contains("bad.html: digest"), "{out}");
        assert!(out.contains("[unknown-entities=1]"), "{out}");
        assert!(out.contains("imported 4 of 4 pages (3 distinct)"), "{out}");
        let digest_of = |name: &str| {
            let line = out.lines().find(|l| l.starts_with(name)).unwrap();
            line.split_whitespace().nth(2).unwrap().to_string()
        };
        assert_eq!(digest_of("good.html:"), digest_of("dup.html:"));
        assert_ne!(digest_of("good.html:"), digest_of("sloppy.html:"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_pipes_into_run_via_program() {
        let dir = std::env::temp_dir().join(format!("webqa_import_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("page.html"),
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
        )
        .unwrap();
        let out = dispatch(&[
            "import",
            dir.to_str().unwrap(),
            "--program",
            "sat(descendants(root, leaf), true) -> content",
            "--question",
            "Who are the students?",
            "--keywords",
            "Students",
        ])
        .unwrap();
        assert!(out.contains("page.html: digest"), "{out}");
        assert!(out.contains("  Jane Doe"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_usage_errors() {
        let err = dispatch(&["import"]).unwrap_err();
        assert!(err.to_string().contains("usage: import DIR"), "{err}");
        let err = dispatch(&["import", "a", "b"]).unwrap_err();
        assert!(err.to_string().contains("usage: import DIR"), "{err}");
        let err = dispatch(&["import", "/nonexistent_webqa_dir"]).unwrap_err();
        assert!(err.to_string().contains("cannot read directory"), "{err}");
    }

    #[test]
    fn serve_requires_an_endpoint_and_client_requires_exactly_one() {
        let err = dispatch(&["serve"]).unwrap_err();
        assert!(err.to_string().contains("endpoint"), "{err}");
        let err = dispatch(&["client", "--op", "ping"]).unwrap_err();
        assert!(err.to_string().contains("--tcp"), "{err}");
        let err = dispatch(&["client", "--tcp", "x", "--unix", "y", "--op", "ping"]).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
        let err = dispatch(&["client", "--tcp", "127.0.0.1:1", "--op", "run"]).unwrap_err();
        assert!(err.to_string().contains("ping|stats"), "{err}");
    }

    #[test]
    fn serve_and_client_round_trip_over_a_unix_socket() {
        let path =
            std::env::temp_dir().join(format!("webqa_cli_serve_{}.sock", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let server_path = path_str.clone();
        let server = std::thread::spawn(move || {
            dispatch(&[
                "serve",
                "--unix",
                &server_path,
                "--max-requests",
                "3",
                "--feature-cache",
                "8",
            ])
        });
        // Wait for the socket to appear, then drive three requests so
        // the --max-requests stop condition fires.
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let pong = dispatch(&["client", "--unix", &path_str, "--op", "ping"]).unwrap();
        assert_eq!(pong.trim(), r#"{"id":null,"ok":{"pong":true}}"#);
        // A raw --request payload (regression: `--json` was a global
        // switch and could never carry one).
        let interned = dispatch(&[
            "client",
            "--unix",
            &path_str,
            "--request",
            r#"{"id":7,"op":"intern","html":"<h1>A</h1><p>x</p>"}"#,
        ])
        .unwrap();
        assert_eq!(
            interned.trim(),
            r#"{"id":7,"ok":{"page":0,"nodes":2,"digest":"ef880ccceb310b9b"}}"#
        );
        let stats = dispatch(&["client", "--unix", &path_str, "--op", "stats"]).unwrap();
        assert!(stats.contains("\"cache\""), "{stats}");
        assert!(stats.contains("\"pages\":1"), "{stats}");
        let out = server.join().expect("server thread").unwrap();
        assert!(out.contains("served 3 requests"), "{out}");
        assert!(!path.exists(), "socket file is removed on shutdown");
    }

    #[test]
    fn max_requests_is_exact_under_concurrency() {
        // N+1 concurrent requests against --max-requests N: exactly N
        // clients get a response, the extra one sees EOF. The server's
        // write-permit cap makes this exact, not timing-dependent.
        let path =
            std::env::temp_dir().join(format!("webqa_cli_serve_exact_{}.sock", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let server_path = path_str.clone();
        let server = std::thread::spawn(move || {
            dispatch(&["serve", "--unix", &server_path, "--max-requests", "2"])
        });
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Connect all three clients before any request is sent, so all
        // three requests genuinely race for the two permits.
        let mut clients: Vec<webqa_server::Client> = (0..3)
            .map(|_| webqa_server::Client::connect_unix(&path).expect("connect"))
            .collect();
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| s.spawn(move || c.request_line(r#"{"op":"ping"}"#).is_ok()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let successes = outcomes.iter().filter(|&&ok| ok).count();
        assert_eq!(successes, 2, "exactly N responses, whatever the timing");
        let out = server.join().expect("server thread").unwrap();
        assert!(out.contains("served 2 requests"), "{out}");
    }

    #[test]
    fn check_reports_lint_and_normal_form() {
        // The no-op filter is a lint issue, so the report comes back as
        // CheckFailed (printed to stdout with a failing exit status).
        let err = dispatch(&[
            "check",
            "--program",
            "sat(root, kw(0.60)) -> filter(content, true)",
            "--keywords",
            "Students",
            "--normalize",
        ])
        .unwrap_err();
        let crate::CliError::CheckFailed(out) = err else {
            panic!("expected CheckFailed, got {err}");
        };
        assert!(out.contains("no-op"), "{out}");
        assert!(
            out.contains("normalized: sat(root, kw(0.60)) -> content"),
            "{out}"
        );
    }

    #[test]
    fn check_passes_clean_programs() {
        let out = dispatch(&[
            "check",
            "--program",
            "sat(root, kw(0.60)) -> content",
            "--keywords",
            "Students",
        ])
        .unwrap();
        assert!(out.contains("lint: no issues"), "{out}");
        assert!(out.contains("analysis: no verdicts"), "{out}");
    }

    #[test]
    fn check_reports_analyzer_verdicts() {
        // No --keywords: kw(0.60) is provably false, and the second
        // branch's guard is subsumed by the first's.
        let err = dispatch(&[
            "check",
            "--program",
            "sat(root, kw(0.60)) -> content; \
             sat(root, true) -> content; \
             sat(root, true) -> split(content, ',')",
            "--question",
            "Who are the students?",
        ])
        .unwrap_err();
        let crate::CliError::CheckFailed(out) = err else {
            panic!("expected CheckFailed, got {err}");
        };
        assert!(out.contains("branch 0: guard is provably false"), "{out}");
        assert!(
            out.contains("branch 2: guard is subsumed by branch 1's guard"),
            "{out}"
        );
    }

    #[test]
    fn check_json_snapshot() {
        let err = dispatch(&[
            "check",
            "--program",
            "sat(root, kw(0.60)) -> content; sat(root, true) -> content",
            "--question",
            "Who are the students?",
            "--normalize",
            "--json",
        ])
        .unwrap_err();
        let crate::CliError::CheckFailed(out) = err else {
            panic!("expected CheckFailed, got {err}");
        };
        let expected = concat!(
            r#"{"program":"sat(root, kw(0.60)) -> content; sat(root, true) -> content","#,
            r#""size":8,"branches":2,"#,
            r#""lint":["program uses matchKeyword but the context has no keywords"],"#,
            r#""verdicts":["branch 0: guard is provably false"],"#,
            r#""canonical_key":"sat(root, true) -> content","clean":false,"#,
            r#""normalized":"sat(root, kw(0.60)) -> content; sat(root, true) -> content"}"#,
            "\n",
        );
        assert_eq!(out, expected, "json report drifted:\n{out}");
    }
}
