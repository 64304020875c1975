//! Deterministic fan-out over independent work items.
//!
//! `try_compare`'s per-configuration runs are its one caller: each run
//! is a pure function of its inputs and the shared profile.
//! [`par_map`] runs them on scoped threads and returns results in
//! *input order*, so callers that reduce the results left-to-right are
//! bit-identical to a serial `map` regardless of scheduling.

use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning the results in input order.
///
/// Workers claim items one at a time from a shared iterator, so uneven
/// item costs balance across workers. `threads <= 1` (or a single item)
/// runs the plain serial loop with no thread overhead.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub(crate) fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // The guard drops at the end of this statement,
                        // so `f` runs unlocked and only the panic-free
                        // `next` ever holds the lock: it cannot be
                        // poisoned.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        let mut done = Vec::new();
        for h in handles {
            match h.join() {
                Ok(mine) => done.extend(mine),
                // Re-raise the worker's panic on the caller's thread.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1usize, 2, 4, 9] {
            let got = par_map(threads, (0..57u64).collect(), |x| x * x);
            let want: Vec<u64> = (0..57).map(|x| x * x).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(4, Vec::<u8>::new(), |x| x), vec![]);
        assert_eq!(par_map(4, vec![41u8], |x| x + 1), vec![42]);
    }

    #[test]
    fn balances_uneven_work() {
        // More items than threads with skewed costs: all results present
        // and ordered.
        let got = par_map(3, (0..20u64).collect(), |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(got, (1..=20u64).collect::<Vec<_>>());
    }
}
