//! Deterministic parallel Monte-Carlo replication.
//!
//! Every table cell in the paper averages 200 independent simulations; the
//! full reproduction runs hundreds of thousands of walks. [`replicate`]
//! spreads replications across OS threads with `std::thread::scope`
//! (stable scoped threads — no extra dependency) while keeping results
//! **independent of the thread count**: replication `i` always receives
//! [`replication_seed`]`(base_seed, i)`, and results are returned in
//! replication order. The calling thread works as one of the
//! replication threads.
//!
//! It is the library's one pool of threads. Besides the experiment
//! sweeps, `Engine::estimate_replicated` runs its replicates on it,
//! `run_workload` its queries, `GroundTruth::compute_parallel` its
//! chunks, and `ShardedService::run_scheduled` its graph loops (one unit
//! per registered graph, each a serial virtual-time event loop).

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Derives the RNG seed for replication `i` from a base seed.
///
/// SplitMix64 finalizer — a bijective avalanche so neighboring replication
/// indices get statistically unrelated seeds.
pub fn replication_seed(base_seed: u64, i: u64) -> u64 {
    let mut z = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `reps` replications of `f` on up to `threads` worker threads and
/// returns the results in replication order.
///
/// The calling thread is one of the workers: it spawns `threads − 1`
/// scoped threads and works the same queue of replication indices, so
/// `threads = 1` spawns nothing. `f` is called as `f(rep_index, seed)`
/// with `seed = replication_seed(base_seed, rep_index)`; it must be
/// `Sync` because multiple threads call it concurrently.
///
/// ```
/// use labelcount_stats::replicate;
/// // Thread count never changes the results.
/// let a = replicate(8, 1, 42, |i, seed| i as u64 + seed % 10);
/// let b = replicate(8, 4, 42, |i, seed| i as u64 + seed % 10);
/// assert_eq!(a, b);
/// ```
///
/// # Panics
/// Propagates a panic from `f` with its own payload, once every worker
/// has stopped.
pub fn replicate<T, F>(reps: usize, threads: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = threads.max(1).min(reps.max(1));
    // Hand out replication indices dynamically so stragglers don't idle
    // whole chunks (per-replication cost varies a lot across algorithms);
    // each worker returns its results when the queue runs dry.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= reps {
                return local;
            }
            local.push((i, f(i, replication_seed(base_seed, i as u64))));
        }
    };
    let mut pairs = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut pairs = work();
        for handle in spawned {
            pairs.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        pairs
    });
    debug_assert_eq!(pairs.len(), reps);
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..100).map(|i| replication_seed(42, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| replication_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        // Different base seed ⇒ different sequence.
        assert_ne!(replication_seed(42, 0), replication_seed(43, 0));
    }

    #[test]
    fn results_in_replication_order() {
        let out = replicate(50, 8, 7, |i, _seed| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let f = |i: usize, seed: u64| (i as u64).wrapping_mul(seed);
        let one = replicate(64, 1, 99, f);
        let many = replicate(64, 16, 99, f);
        assert_eq!(one, many);
    }

    #[test]
    fn zero_reps_is_empty() {
        let out: Vec<u64> = replicate(0, 4, 1, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn single_rep_works() {
        let out = replicate(1, 8, 5, |i, _| i);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;

        let f = |i: usize, seed: u64| (i as u64) ^ seed;
        let caller = std::thread::current().id();
        // The first two replications wait for each other, so two workers
        // run one of them each.
        let arrived = Mutex::new(0usize);
        let both = Condvar::new();
        let threads = Mutex::new(HashSet::new());
        let out = replicate(8, 2, 13, |i, seed| {
            if i < 2 {
                let mut n = arrived.lock().unwrap();
                *n += 1;
                both.notify_all();
                let wait = Duration::from_secs(10);
                drop(both.wait_timeout_while(n, wait, |n| *n < 2).unwrap());
            }
            threads.lock().unwrap().insert(std::thread::current().id());
            f(i, seed)
        });
        assert_eq!(out, replicate(8, 1, 13, f));
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 2, "two workers at threads = 2");
        assert!(threads.contains(&caller), "the caller is one of them");
    }

    #[test]
    fn a_panic_keeps_its_own_payload() {
        let payload = std::panic::catch_unwind(|| {
            replicate(6, 3, 1, |i, _| {
                assert_ne!(i, 4, "replication four failed");
                i
            })
        })
        .expect_err("replication 4 panics");
        let message = payload.downcast::<String>().expect("a formatted message");
        assert!(message.contains("replication four failed"), "{message}");
    }

    #[test]
    fn heavy_and_light_tasks_balance() {
        // Mixed workloads must still produce complete, ordered results.
        let out = replicate(40, 6, 3, |i, _| {
            if i % 7 == 0 {
                // Simulate a slow replication.
                let mut x = 0u64;
                for j in 0..200_000u64 {
                    x = x.wrapping_add(j ^ i as u64);
                }
                (i, x != u64::MAX)
            } else {
                (i, true)
            }
        });
        assert_eq!(out.len(), 40);
        assert!(out.iter().enumerate().all(|(i, (j, ok))| i == *j && *ok));
    }
}
