//! Parallelism across independent runs: [`par_map`].
//!
//! A figure target or a chaos swarm is a list of independent simulated
//! deployments.  Each item builds its own `Scheduler` and deployment, so
//! its `Rc`/`RefCell` state never leaves the thread that runs it, and
//! nothing is shared between items but the read-only inputs.  Ordering
//! *inside* one run is part of its result, so a run is never split.
//!
//! Results are placed by input index, never by completion order, so the
//! output is the same whatever the worker count or the thread timing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `items.iter().map(f).collect()`, run on up to one scoped thread per
/// core.  Workers pull the next index from a shared counter, in list
/// order; the results come back in input order.  A panic in `f` is
/// re-raised on the caller's thread.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    #[allow(
        clippy::disallowed_methods,
        reason = "the core count only decides which thread runs an item; results are placed by index"
    )]
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_on(cores, items, f)
}

/// [`par_map`] on at most `workers` threads.
fn par_map_on<T: Sync, R: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(workers: usize, n: u64) -> Vec<u64> {
        let items: Vec<u64> = (0..n).collect();
        par_map_on(workers, &items, |&x| x * x)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let want = |n: u64| (0..n).map(|x| x * x).collect::<Vec<_>>();
        // 0 items, 1 item, fewer items than workers, more than workers
        for (workers, n) in [(4, 0), (4, 1), (8, 3), (2, 100)] {
            assert_eq!(squares(workers, n), want(n), "{workers} workers, {n} items");
        }
        assert_eq!(par_map(&[3u64, 1, 2], |&x| x + 1), vec![4, 2, 3]);
    }

    #[test]
    fn output_does_not_depend_on_the_worker_count() {
        // uneven item costs, so workers finish out of order
        let items: Vec<u64> = (0..37).map(|i| (i * 7919) % 23).collect();
        let work = |&n: &u64| (0..n * 1000).fold(n, |acc, k| acc.rotate_left(5) ^ k);
        let one = par_map_on(1, &items, work);
        assert_eq!(par_map_on(2, &items, work), one);
        assert_eq!(par_map_on(8, &items, work), one);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panic_in_f_propagates() {
        let items: Vec<u32> = (0..10).collect();
        par_map_on(3, &items, |&i| {
            assert!(i != 5, "item {i} failed");
            i
        });
    }
}
