//! `corpus-batch`: the paper's evaluation, offline and closed-loop.
//!
//! A round runs all 25 corpus tasks one at a time, each over its own
//! freshly generated pages of its domain, each on a fresh `Engine` (so
//! no feature or result is reused across tasks), through prepare →
//! synthesize → select → answers. Rounds with new pages repeat until the
//! measuring time is up, the last one cut short where it ends. The
//! default scale, 8 pages and 3 labels per task, fits about 65 task
//! instances in 30 s on a 2-core machine; `--pages 16 --train 5` runs the
//! paper's scale, about 30 s a round. The server is never touched.
//!
//! Every cost is averaged per task first, then over the 25 tasks by a
//! geometric mean, so each task weighs the same however its last round
//! was cut, and a few heavy tasks whose cost swings with their pages do
//! not dominate. The gated `op_cost` is that average in process CPU time
//! (`cpu_ms_per_op`) over the probe's CPU time (see `probe`); the
//! pipeline runs on one thread, so on an idle machine the CPU time
//! equals the wall time (`task_wall_ms` is printed next to it).

use std::time::Instant;

use webqa::{score_answers, Config, Engine, PageId, PageStore};
use webqa_corpus::{generate_pages, GeneratedPage, TASKS};

use crate::pipeline::{self, Cost, SynthAgg};
use crate::probe::Probe;
use crate::report::Report;
use crate::stats::{geometric_mean, mean, median, percentile, supported_tail, Rng};
use crate::trace::{self, span};
use crate::Args;

/// Default pages per task and labeled pages among them.
pub const PAGES: usize = 8;
pub const TRAIN: usize = 3;
/// Set-ups per round. Each round's set-up is repeated, and `setup_s` is
/// the median over every round's, so it samples the machine at several
/// points of the run rather than in one burst at its start.
const SETUPS_PER_ROUND: usize = 5;
/// Probe runs after each task (and before the first).
const PROBES_PER_TASK: usize = 10;

/// Every task's pages: its domain's `PAGES` pages from the task's own
/// corpus seed, interned into one shared store.
struct Setup {
    pages: Vec<Vec<GeneratedPage>>,
    ids: Vec<Vec<PageId>>,
    store: PageStore,
    html_bytes: usize,
}

/// Generates the corpus and interns every page: the workload's set-up.
fn setup(corpus_seeds: &[u64], pages_per_task: usize, report: &mut Report) -> Setup {
    let _s = span("setup", 0);
    let mut store = PageStore::new();
    let (mut pages, mut ids, mut html_bytes) = (Vec::new(), Vec::new(), 0);
    for (task, &seed) in TASKS.iter().zip(corpus_seeds) {
        let generated = generate_pages(task.domain, pages_per_task, seed);
        let mut task_ids = Vec::new();
        for (i, page) in generated.iter().enumerate() {
            html_bytes += page.html.len();
            let _p = span("html.intern", i as u64);
            match store.insert_html(&page.html) {
                Ok(id) => task_ids.push(id),
                Err(e) => report.fail(format!("interning {}: {e}", page.name)),
            }
        }
        pages.push(generated);
        ids.push(task_ids);
    }
    Setup {
        pages,
        ids,
        store,
        html_bytes,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let (pages, train) = (args.pages, args.train);
    let mut rng = Rng::new(args.seed);
    let mut round_seeds = || -> Vec<u64> { TASKS.iter().map(|_| rng.next_u64()).collect() };
    report.scale(format!(
        "rounds of 25 tasks, pages={pages} train={train} per task, every task of every round over its own \
         pages (corpus seeds drawn from seed {}), engine=fresh-per-task, closed loop",
        args.seed
    ));

    let mut setup_s = Vec::new();
    let mut interned_bytes = 0;
    let mut set_up_round = |seeds: &[u64], report: &mut Report| {
        let mut state = None;
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            let s = setup(seeds, pages, report);
            setup_s.push(t0.elapsed().as_secs_f64());
            interned_bytes += s.html_bytes;
            state = Some(s);
        }
        state.expect("at least one set-up")
    };
    let mut setup_state = set_up_round(&round_seeds(), report);

    let budget = args.seconds as f64;
    let mut probe = Probe::new();
    probe.sample(PROBES_PER_TASK);
    let started = Instant::now();
    let mut costs: Vec<Cost> = Vec::new();
    let mut f1s = Vec::new();
    let mut agg = SynthAgg::default();
    let mut per_task: Vec<Vec<Cost>> = vec![Vec::new(); TASKS.len()];
    // Tasks run until the measuring time is up, after at least one whole
    // round; a round cut short is fine, since every cost is averaged per
    // task first.
    let mut round = 0u64;
    'rounds: loop {
        if round > 0 {
            setup_state = set_up_round(&round_seeds(), report);
        }
        for (i, task) in TASKS.iter().enumerate() {
            if round > 0 && started.elapsed().as_secs_f64() >= budget {
                break 'rounds;
            }
            let id = round * TASKS.len() as u64 + i as u64;
            let (cost, f1) = run_task(&setup_state, i, task, train, id, &mut agg, report);
            probe.sample(PROBES_PER_TASK);
            costs.push(cost);
            per_task[i].push(cost);
            f1s.push(f1);
        }
        round += 1;
        if started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let measured = started.elapsed().as_secs_f64();
    report.setup(&setup_s);
    let rows: Vec<String> = TASKS
        .iter()
        .zip(&per_task)
        .map(|(t, c)| {
            let cpu: Vec<f64> = c.iter().map(|c| c.cpu_s).collect();
            format!("{}={:.3}", t.id, mean(&cpu))
        })
        .collect();
    report.note(format!("per-task mean CPU s: {}", rows.join(" ")));
    report.attempted(costs.len() as u64);

    let wall: Vec<f64> = costs.iter().map(|c| c.wall_s).collect();
    let n = Some(costs.len());
    report.e2e(
        "tasks_per_s",
        wall.len() as f64 / wall.iter().sum::<f64>(),
        "1/s",
        n,
    );
    report.e2e("task_p50_s", median(&wall), "s", n);
    // The 25-task evaluation's cost per task: each task's mean over its
    // instances, then the geometric mean over the 25 tasks, so every task
    // weighs the same however many instances of it the run reached.
    let per_task_mean = |f: fn(&Cost) -> f64| -> f64 {
        let means: Vec<f64> = per_task
            .iter()
            .map(|c| mean(&c.iter().map(f).collect::<Vec<_>>()))
            .collect();
        geometric_mean(&means) * 1e3
    };
    let cpu_ms = per_task_mean(|c| c.cpu_s);
    report.e2e("task_wall_ms", per_task_mean(|c| c.wall_s), "ms", n);
    report.op_cost(cpu_ms, costs.len(), &probe);
    let tail = supported_tail(wall.len());
    report.note(format!(
        "task_p{tail}_s = {:.4} s (n={}); rounds started={}; measured {measured:.2} s",
        percentile(&wall, tail),
        wall.len(),
        costs.len().div_ceil(TASKS.len())
    ));
    report.e2e("test_f1", mean(&f1s), "ratio", Some(f1s.len()));
    report.gate("test_f1", mean(&f1s));

    if trace::enabled() {
        pipeline::report_layers(report, interned_bytes, &agg);
        report.layer("store.pages", setup_state.store.len() as f64, "count");
        report.layer(
            "cache.base_hit_rate",
            agg.cache.base_hit_rate().unwrap_or(0.0),
            "ratio",
        );
        report.layer(
            "cache.feature_hit_rate",
            agg.cache.feature_hit_rate().unwrap_or(0.0),
            "ratio",
        );
    }
}

/// One task through the staged pipeline on a fresh engine. Returns its
/// cost and its test F1 against generator gold.
fn run_task(
    setup: &Setup,
    index: usize,
    task: &webqa_corpus::Task,
    train: usize,
    id: u64,
    agg: &mut SynthAgg,
    report: &mut Report,
) -> (Cost, f64) {
    let (ids, pages) = (&setup.ids[index], &setup.pages[index]);
    let engine_task = webqa::Task::from_id_split(
        task.question,
        task.keywords.iter().copied(),
        ids,
        train,
        |i| pages[i].gold(task.id).to_vec(),
    );
    let gold: Vec<Vec<String>> = pages[train.min(pages.len())..]
        .iter()
        .map(|p| p.gold(task.id).to_vec())
        .collect();
    let engine = Engine::with_store(Config::default(), setup.store.clone());

    let (answers, cost) = match pipeline::run_staged(&engine, &engine_task, id, agg) {
        Ok((result, cost)) => (result.answers, cost),
        Err(e) => {
            report.fail(format!("{}: prepare failed: {e}", task.id));
            let none = Cost {
                wall_s: 0.0,
                cpu_s: 0.0,
            };
            return (none, 0.0);
        }
    };
    let f1 = match score_answers(&answers, &gold) {
        Ok(score) => score.f1,
        Err(e) => {
            report.fail(format!("{}: answers do not align with gold: {e}", task.id));
            0.0
        }
    };
    (cost, f1)
}
