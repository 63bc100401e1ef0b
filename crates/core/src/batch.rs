//! Batch execution: many independent tasks over one shared page store.
//!
//! The first concurrent serving surface of the engine. Tasks are
//! embarrassingly parallel — synthesis and selection touch only the
//! task's own examples plus the immutable interned pages — so the batch
//! runner fans them out over the workspace's ordered worker pool
//! ([`par_map_ordered`]). Results come back **in input order** and are
//! byte-identical to running each task alone: worker scheduling cannot
//! leak into output (every source of randomness in the pipeline is
//! seeded from the config, not from thread state).

use crate::engine::{Engine, Task};
use crate::error::Error;
use crate::pipeline::RunResult;
use webqa_synth::{par_map_ordered, CancelToken};

impl Engine {
    /// Runs every task under one cooperative [`CancelToken`], using up to
    /// `jobs` worker threads (`0` and `1` both mean sequential). Results
    /// are aligned with `tasks` and deterministic: the same inputs
    /// produce the same outputs regardless of `jobs`.
    ///
    /// This is *across*-task parallelism; it composes with the
    /// branch-level parallelism *inside* one task
    /// (`SynthConfig::jobs` in [`Config::synth`](crate::Config)) —
    /// e.g. few big tasks with many synth jobs each, or many tasks with
    /// sequential synthesis. Both levels are deterministic, so any
    /// combination produces identical results.
    ///
    /// The two levels multiply: `jobs` batch workers each spawning
    /// `synth.jobs` branch workers would oversubscribe the machine
    /// (`jobs × synth.jobs` live threads for `available_parallelism`
    /// cores). The batch runner therefore caps the *effective* per-task
    /// branch worker count so the product stays within the hardware
    /// budget. The cap is invisible in the output — programs, counts,
    /// F₁, and answers are identical for every worker-count combination
    /// (`tests/staged_api.rs` pins batch × branch determinism).
    ///
    /// The token is shared by every task — the serving layer's
    /// `run_batch` wire op runs the whole batch under one deadline. A
    /// trip aborts the in-flight tasks within one guard step each, skips
    /// the unstarted ones, and the batch returns [`Error::Cancelled`];
    /// completed per-task results are discarded, but anything already
    /// inserted into the shared result cache stays (it is complete and
    /// byte-identical to an uncancelled run).
    ///
    /// # Errors
    ///
    /// The first failing task's error, by input order (tasks after a
    /// failure may or may not have been executed), and
    /// [`Error::Cancelled`] when the token trips before every task
    /// finished.
    ///
    /// # Examples
    ///
    /// ```
    /// use webqa::{CancelToken, Config, Engine, Task};
    ///
    /// let mut engine = Engine::new(Config::default());
    /// let a = engine.store_mut().insert_html("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>")?;
    /// let b = engine.store_mut().insert_html("<h1>B</h1><h2>Students</h2><ul><li>Wei Chen</li></ul>")?;
    /// let task = |target| {
    ///     Task::new("Who are the students?", ["Students"])
    ///         .with_label(a, vec!["Jane Doe".into()])
    ///         .with_target(target)
    /// };
    /// let results = engine.run_batch(&[task(b), task(a)], 2, &CancelToken::never())?;
    /// assert_eq!(results.len(), 2);
    /// assert_eq!(results[0].answers[0], vec!["Wei Chen".to_string()]);
    /// # Ok::<(), webqa::Error>(())
    /// ```
    pub fn run_batch(
        &self,
        tasks: &[Task],
        jobs: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<RunResult>, Error> {
        let jobs = jobs.clamp(1, tasks.len().max(1));
        if jobs == 1 {
            return tasks.iter().map(|t| self.run(t, cancel)).collect();
        }

        // Cap combined batch × branch parallelism: `jobs` workers share
        // the machine, so each task gets at most its fair share of cores
        // for branch-level synthesis (never more than configured, never
        // less than 1). Purely a scheduling change — results are
        // identical for any effective worker count.
        let synth_jobs = self.config().synth.jobs.max(1);
        let budget = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let effective = synth_jobs.min((budget / jobs).max(1));
        // Compare against the *normalized* count: jobs 0 and 1 are the
        // same sequential config, and a needless worker-engine clone
        // would carry a different config digest — splitting the shared
        // result cache between `run` and `run_batch` entries.
        let worker_engine = if effective == synth_jobs {
            None
        } else {
            Some(self.with_synth_jobs(effective))
        };
        let engine: &Engine = worker_engine.as_ref().unwrap_or(self);

        // A tripped token drains the remaining tasks without running
        // them; their unclaimed slots report Cancelled.
        par_map_ordered(
            tasks,
            jobs,
            cancel,
            || (),
            |_, task| engine.run(task, cancel),
        )
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(Error::Cancelled)))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Config;

    fn engine_and_tasks() -> (Engine, Vec<Task>) {
        let mut engine = Engine::new(Config::default());
        let pages = [
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
            "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
            "<h1>C</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>",
            "<h1>D</h1><h2>Students</h2><ul><li>Elena Petrov</li></ul>",
        ];
        let ids: Vec<_> = pages
            .iter()
            .map(|html| engine.store_mut().insert_html(html).unwrap())
            .collect();
        let golds = [
            vec!["Jane Doe".to_string(), "Bob Smith".to_string()],
            vec!["Mary Anderson".to_string()],
            vec!["Wei Chen".to_string()],
            vec!["Elena Petrov".to_string()],
        ];
        // Four tasks, each labeling one page and targeting the others.
        let tasks: Vec<Task> = (0..4)
            .map(|k| {
                let mut t = Task::new("Who are the current PhD students?", ["Students", "PhD"])
                    .with_label(ids[k], golds[k].clone());
                for (j, &id) in ids.iter().enumerate() {
                    if j != k {
                        t = t.with_target(id);
                    }
                }
                t
            })
            .collect();
        (engine, tasks)
    }

    #[test]
    fn batch_equals_sequential_for_any_job_count() {
        let (engine, tasks) = engine_and_tasks();
        let sequential = engine.run_batch(&tasks, 1, &CancelToken::never()).unwrap();
        for jobs in [2, 4, 16] {
            let batched = engine
                .run_batch(&tasks, jobs, &CancelToken::never())
                .unwrap();
            assert_eq!(batched.len(), sequential.len());
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.program, s.program, "jobs={jobs}");
                assert_eq!(b.answers, s.answers, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_propagates_the_first_error_by_input_order() {
        let (engine, mut tasks) = engine_and_tasks();
        tasks[1].unlabeled.push(crate::store::PageId::forged(1000));
        tasks[3].unlabeled.push(crate::store::PageId::forged(2000));
        let err = engine
            .run_batch(&tasks, 4, &CancelToken::never())
            .unwrap_err();
        assert_eq!(err, Error::UnknownPage(crate::store::PageId::forged(1000)));
    }

    #[test]
    fn empty_batch_is_fine() {
        let (engine, _) = engine_and_tasks();
        assert!(engine
            .run_batch(&[], 8, &CancelToken::never())
            .unwrap()
            .is_empty());
    }
}
