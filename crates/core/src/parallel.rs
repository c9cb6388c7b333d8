//! Scoped fork-join parallelism for bulk construction and batch queries.
//!
//! The paper's cost model counts metric distance computations because they
//! dominate (§5); this module attacks the *other* axis — wall-clock on
//! real hardware — without changing what gets computed. Everything is
//! built on [`std::thread::scope`]: no thread pool outlives a call, no
//! work queue, no extra dependencies, and borrowed data flows into
//! workers without `'static` bounds.
//!
//! Three pieces:
//!
//! * [`Threads`] — the knob every parallel entry point takes. Defaults to
//!   the machine's available parallelism, can be pinned via
//!   [`Threads::Fixed`] or the `VANTAGE_THREADS` environment variable.
//! * [`par_map_slice`] — an order-preserving chunked map over a shared
//!   slice; the workhorse for distance sweeps and query batches.
//! * [`fork_join`] — runs a small vector of heterogeneous-cost jobs, one
//!   scoped thread each; the workhorse for "recurse into independent
//!   subtrees concurrently".
//!
//! All helpers are **deterministic in their outputs**: results come back
//! in input order regardless of the worker count, so callers that are
//! themselves deterministic stay bit-identical from 1 thread to N. (Work
//! *scheduling* is of course nondeterministic; only ordering guarantees
//! are made.)

use std::thread;

/// Environment variable overriding [`Threads::Auto`] resolution.
pub const THREADS_ENV: &str = "VANTAGE_THREADS";

/// Worker-count knob for parallel construction and batch queries.
///
/// `Auto` resolves, in order: the `VANTAGE_THREADS` environment variable
/// (when set to a positive integer), then
/// [`std::thread::available_parallelism`], then 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Use `VANTAGE_THREADS` or all available parallelism.
    #[default]
    Auto,
    /// Use exactly this many workers (0 is treated as 1).
    Fixed(usize),
}

impl Threads {
    /// A single-threaded (sequential) configuration.
    pub const SEQUENTIAL: Threads = Threads::Fixed(1);

    /// Resolves the knob to a concrete worker count (`≥ 1`).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }),
        }
    }
}

/// Maps `f` over `items`, returning results in input order.
///
/// The slice is split into `workers` contiguous chunks, each processed on
/// its own scoped thread. With `workers <= 1`, a short slice, or a
/// single-CPU machine this degrades to a plain sequential map with no
/// thread overhead.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map_slice<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let chunk_results = thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut results = Vec::with_capacity(items.len());
    for chunk in chunk_results {
        results.extend(chunk);
    }
    results
}

/// Runs every job on its own scoped thread and returns their results in
/// job order. Intended for small fan-outs (a tree node's subtrees); for
/// wide homogeneous work use [`par_map_slice`].
///
/// With fewer than two jobs, runs inline without spawning.
///
/// # Panics
///
/// Propagates panics from jobs (the scope joins all workers first).
pub fn fork_join<R, F>(jobs: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if jobs.len() < 2 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fork-join worker panicked"))
            .collect()
    })
}

/// Splits `total` workers across jobs proportionally to `weights`, giving
/// every job at least one worker. Used by tree builders to hand bigger
/// subtrees more parallelism.
///
/// Returns an empty vector when `weights` is empty. Weights of zero are
/// fine (they get the minimum single worker).
pub fn share_workers(total: usize, weights: &[usize]) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    let total = total.max(1);
    let weight_sum: usize = weights.iter().sum::<usize>().max(1);
    let mut shares: Vec<usize> = weights
        .iter()
        .map(|&w| ((w * total) / weight_sum).max(1))
        .collect();
    // Hand out any workers lost to flooring, largest weights first, so
    // the shares sum to at least `total` only when weights demand it and
    // never exceed `total + jobs` (each job capped at its own need
    // elsewhere; this is a heuristic split, not a strict partition).
    let assigned: usize = shares.iter().sum();
    if assigned < total {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(weights[i]));
        let mut leftover = total - assigned;
        for &i in order.iter().cycle().take(leftover * weights.len()) {
            if leftover == 0 {
                break;
            }
            shares[i] += 1;
            leftover -= 1;
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fixed_resolves_to_itself_and_zero_to_one() {
        assert_eq!(Threads::Fixed(4).resolve(), 4);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert_eq!(Threads::SEQUENTIAL.resolve(), 1);
    }

    #[test]
    fn auto_resolves_positive() {
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::default(), Threads::Auto);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 7, 64] {
            let mapped = par_map_slice(workers, &items, |&x| x * 2);
            assert_eq!(mapped, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_slice(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_slice(8, &[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_visits_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..537).collect();
        par_map_slice(5, &items, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 537);
    }

    #[test]
    fn fork_join_returns_in_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    // Later jobs finish first; order must still hold.
                    std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(fork_join(jobs), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fork_join_runs_zero_and_one_job_inline() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(fork_join(none).is_empty());
        assert_eq!(fork_join(vec![|| 42u32]), vec![42]);
    }

    #[test]
    fn share_workers_gives_everyone_at_least_one() {
        assert_eq!(share_workers(8, &[]), Vec::<usize>::new());
        let shares = share_workers(8, &[100, 1, 1]);
        assert_eq!(shares.len(), 3);
        assert!(shares.iter().all(|&s| s >= 1), "{shares:?}");
        assert!(shares[0] >= shares[1]);
        let even = share_workers(4, &[10, 10, 10, 10]);
        assert_eq!(even, vec![1, 1, 1, 1]);
    }

    #[test]
    fn share_workers_distributes_flooring_leftovers() {
        let shares = share_workers(7, &[5, 5, 5]);
        assert_eq!(shares.iter().sum::<usize>(), 7, "{shares:?}");
    }
}
