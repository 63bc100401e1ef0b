//! The workspace's one ordered worker pool.
//!
//! Both parallel levels of the pipeline — partition blocks inside one
//! synthesis ([`SynthConfig::jobs`](crate::SynthConfig::jobs)) and whole
//! tasks in `webqa::Engine::run_batch` — fan independent items out over
//! scoped threads pulling indices off one atomic cursor, and read the
//! results back **in input order**, so scheduling never leaks into
//! output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::CancelToken;

/// Maps `f` over `items` on `jobs` scoped worker threads (`0` counts as
/// `1`), returning the results aligned with `items`.
///
/// Each worker builds its own state with `init` on the first item it
/// claims and threads it through every later `f` call — so `init` runs
/// at most `jobs` times, and not at all for a worker that claims
/// nothing. Workers check `cancel` before claiming each item: once the
/// token trips, the unclaimed items are left undone and their slots come
/// back `None`. Every slot is `Some` when the token never trips. A
/// panicking `f` propagates to the caller once every worker has stopped.
pub fn par_map_ordered<T, S, R>(
    items: &[T],
    jobs: usize,
    cancel: &CancelToken,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| {
                let mut state = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if cancel.is_cancelled() {
                        break;
                    }
                    let result = f(state.get_or_insert_with(&init), item);
                    slots.lock().expect("no poisoned workers")[i] = Some(result);
                }
            });
        }
    });
    slots.into_inner().expect("workers joined")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 4, 16] {
            let out = par_map_ordered(&items, jobs, &CancelToken::never(), || (), |_, &x| x * x);
            let want: Vec<Option<u64>> = items.iter().map(|&x| Some(x * x)).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
    }

    #[test]
    fn a_pre_tripped_token_leaves_every_slot_none() {
        let token = CancelToken::never();
        token.cancel();
        let inits = AtomicUsize::new(0);
        let out = par_map_ordered(
            &[1, 2, 3, 4, 5],
            4,
            &token,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &x| x,
        );
        assert_eq!(out, vec![None; 5]);
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no item claimed");
    }

    #[test]
    fn the_initialiser_runs_at_most_once_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 16] {
            let inits = AtomicUsize::new(0);
            let out = par_map_ordered(
                &items,
                jobs,
                &CancelToken::never(),
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, &x| x,
            );
            assert_eq!(out.iter().flatten().count(), items.len(), "jobs={jobs}");
            let n = inits.load(Ordering::Relaxed);
            assert!((1..=jobs).contains(&n), "jobs={jobs}: {n} initialisers");
        }
    }
}
