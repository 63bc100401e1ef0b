//! All four tools on one task, side by side — a miniature of the paper's
//! Figure 12 comparison with visible per-page outputs.
//!
//! ```text
//! cargo run --example baseline_shootout [task_id]
//! ```

use webqa::{score_answers, CancelToken, Config, Engine, Score, Task};
use webqa_baselines::{BertQa, EntExtract, Hyb};
use webqa_corpus::{task_by_id, Corpus};

fn main() {
    let task_id = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "fac_t1".to_string());
    let task = task_by_id(&task_id).unwrap_or_else(|| {
        eprintln!("unknown task {task_id}; try fac_t1..fac_t8, conf_t1..conf_t6, …");
        std::process::exit(1);
    });

    let corpus = Corpus::generate(12, 42);
    let data = corpus.dataset(task, 5);
    println!("task: {} — {}\n", task.id, task.question);
    let gold: Vec<_> = data.test.iter().map(|p| p.gold.clone()).collect();

    // WebQA, through the engine: pages interned once, no tree clones.
    let mut engine = Engine::new(Config::default());
    let mut spec = Task::new(task.question, task.keywords.iter().copied());
    for p in &data.train {
        let id = engine.store_mut().insert_tree(p.page.clone());
        spec.labeled.push((id, p.gold.clone()));
    }
    for p in &data.test {
        spec.unlabeled
            .push(engine.store_mut().insert_tree(p.page.clone()));
    }
    let webqa = engine
        .run(&spec, &CancelToken::never())
        .expect("ids from this store");

    // Baselines (they re-parse raw HTML themselves).
    let bert = BertQa::new();
    let bert_out: Vec<Vec<String>> = data
        .test
        .iter()
        .map(|p| bert.answer_page(task.question, &p.html))
        .collect();
    let hyb_train: Vec<(String, Vec<String>)> = data
        .train
        .iter()
        .map(|p| (p.html.clone(), p.gold.clone()))
        .collect();
    let hyb_out: Vec<Vec<String>> = match Hyb::train(&hyb_train) {
        Ok(w) => {
            println!("HYB learned wrapper: {}\n", w.path());
            data.test.iter().map(|p| w.extract(&p.html)).collect()
        }
        Err(e) => {
            println!("HYB training failed: {e}\n");
            vec![Vec::new(); data.test.len()]
        }
    };
    let ee = EntExtract::new();
    let ent_out: Vec<Vec<String>> = data
        .test
        .iter()
        .map(|p| ee.extract(task.question, &p.html))
        .collect();

    println!("--- first test page ({}) ---", data.test[0].name);
    println!("gold      : {:?}", gold[0]);
    println!("WebQA     : {:?}", webqa.answers[0]);
    println!("BERTQA    : {:?}", bert_out[0]);
    println!("HYB       : {:?}", hyb_out[0]);
    println!("EntExtract: {:?}", ent_out[0]);

    let score = |answers: &[Vec<String>]| -> Score {
        score_answers(answers, &gold).expect("aligned test split")
    };
    println!("\n--- scores over {} test pages ---", data.test.len());
    println!("WebQA     : {}", score(&webqa.answers));
    println!("BERTQA    : {}", score(&bert_out));
    println!("HYB       : {}", score(&hyb_out));
    println!("EntExtract: {}", score(&ent_out));
}
