//! Single-fact extraction: paper submission deadlines from conference
//! sites (task conf_t4) — one of the two tasks where the paper notes the
//! synthesized program essentially wraps the QA model, so BERTQA is
//! competitive.
//!
//! ```text
//! cargo run --example conference_deadlines
//! ```

use webqa::{score_answers, CancelToken, Config, Engine, Task};
use webqa_baselines::BertQa;
use webqa_corpus::{task_by_id, Corpus};

fn main() {
    let corpus = Corpus::generate(14, 3);
    let task = task_by_id("conf_t4").expect("conf_t4 exists");
    let data = corpus.dataset(task, 5);
    println!("question : {}\n", task.question);

    // WebQA through the engine.
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
    let result = engine
        .run(&spec, &CancelToken::never())
        .expect("ids from this store");

    // BERTQA on the same pages.
    let bert = BertQa::new();
    let bert_answers: Vec<Vec<String>> = data
        .test
        .iter()
        .map(|p| bert.answer_page(task.question, &p.html))
        .collect();

    println!("{:<16} {:<28} {:<28} gold", "page", "WebQA", "BERTQA");
    for (i, page) in data.test.iter().enumerate().take(8) {
        println!(
            "{:<16} {:<28} {:<28} {}",
            page.name,
            result.answers[i].join("; "),
            bert_answers[i].join("; "),
            page.gold.join("; "),
        );
    }

    let gold: Vec<_> = data.test.iter().map(|p| p.gold.clone()).collect();
    println!(
        "\nWebQA : {}",
        score_answers(&result.answers, &gold).expect("aligned")
    );
    println!(
        "BERTQA: {}",
        score_answers(&bert_answers, &gold).expect("aligned")
    );
    if let Some(p) = &result.program {
        println!("\nselected program: {p}");
    }
}
