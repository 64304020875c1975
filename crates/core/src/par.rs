//! Deterministic fan-out over independent work items.
//!
//! `try_compare`'s per-configuration runs are its one caller: each run
//! is a pure function of its inputs and the shared profile.
//! [`par_map_indexed`] runs them on scoped threads and returns results
//! in *input order*, so callers that reduce the results left-to-right
//! are bit-identical to a serial `map` regardless of scheduling.

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning the results in input order.
///
/// Work is claimed from a shared atomic counter, so uneven item costs
/// balance across workers. `threads <= 1` (or a single item) runs the
/// plain serial loop with no thread overhead.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub(crate) fn par_map_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let workers = threads.min(items.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Items move into per-index cells; results come back the same way.
    let cells: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let out: Vec<std::sync::Mutex<Option<R>>> = (0..cells.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let Some(item) = lock(&cells[i]).take() else {
                    panic!("item {i} claimed twice");
                };
                let r = f(i, item);
                *lock(&out[i]) = Some(r);
            }));
        }
        for h in handles {
            if let Err(payload) = h.join() {
                // Re-raise the worker's panic on the caller's thread.
                std::panic::resume_unwind(payload);
            }
        }
    });
    out.into_iter()
        .enumerate()
        .map(|(i, m)| {
            let slot = m
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let Some(r) = slot else {
                panic!("item {i} was never processed");
            };
            r
        })
        .collect()
}

/// Locks a mutex, recovering the data from a poisoned lock (a poisoned
/// worker already aborts the map via the join above).
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1usize, 2, 4, 9] {
            let got = par_map_indexed(threads, (0..57u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let want: Vec<u64> = (0..57).map(|x| x * x).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map_indexed(4, Vec::<u8>::new(), |_, x| x), vec![]);
        assert_eq!(par_map_indexed(4, vec![41u8], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn balances_uneven_work() {
        // More items than threads with skewed costs: all results present
        // and ordered.
        let got = par_map_indexed(3, (0..20u64).collect(), |_, x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(got, (1..=20u64).collect::<Vec<_>>());
    }
}
