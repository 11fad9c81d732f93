//! The workspace's one executor: an indexed parallel map.
//!
//! Every parallel loop in the workspace — §7.1 targets, serving batches,
//! Monte-Carlo attack trials, frontier cells — is embarrassingly parallel
//! over an index, and each derives its RNG stream from that index. So one
//! helper serves them all: workers claim indices from a shared counter
//! and results come back in index order, which makes the output
//! independent of the width and of scheduling. [`threads`] is the one
//! place an optional thread count is resolved.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves an optional thread count: `None` means the machine's
/// available parallelism (4 when it cannot be queried). Never zero.
#[must_use]
pub fn threads(requested: Option<usize>) -> usize {
    requested.unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get())).max(1)
}

/// Computes `f(0), …, f(len - 1)` on up to `width` threads and returns
/// the results in index order.
///
/// Workers are capped at `len`; with one worker the map runs inline on
/// the calling thread and spawns nothing. After the first failure no
/// worker claims a new index, and the error with the lowest index is
/// returned: the one a serial loop would have stopped at.
///
/// # Errors
/// The lowest-index error `f` returned.
pub fn try_map<T, E, F>(width: usize, len: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = width.min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    // The counter hands out indices and publishes no data (results travel
    // through the mutex), so `Relaxed` suffices. A failure pushes it to
    // `len`, which makes every later claim come back empty.
    let next = AtomicUsize::new(0);
    let claimed = Mutex::new(Vec::with_capacity(len));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut out = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= len {
                        break;
                    }
                    let result = f(index);
                    if result.is_err() {
                        next.store(len, Ordering::Relaxed);
                    }
                    out.push((index, result));
                }
                claimed.lock().expect("a worker panicked while publishing").extend(out);
            });
        }
    });
    // Claimed indices form a prefix, so in index order the first error is
    // the lowest one, and without one every index is present.
    let mut claimed = claimed.into_inner().expect("a worker panicked while publishing");
    claimed.sort_unstable_by_key(|&(index, _)| index);
    claimed.into_iter().map(|(_, result)| result).collect()
}

/// [`try_map`] for an infallible `f`.
pub fn map<T, F>(width: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_map(width, len, |i| Ok::<T, Infallible>(f(i))) {
        Ok(values) => values,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_index_order() {
        for width in [1, 2, 8] {
            assert_eq!(map(width, 100, |i| i * i), (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert!(map(width, 0, |i| i).is_empty());
        }
    }

    #[test]
    fn width_one_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert!(map(1, 10, |_| std::thread::current().id()).iter().all(|&id| id == caller));
        // A single item never pays for a thread either.
        assert_eq!(map(8, 1, |_| std::thread::current().id()), vec![caller]);
    }

    #[test]
    fn lowest_index_error_wins_even_when_a_later_one_fails_first() {
        for width in [2, 8] {
            let later_failed = AtomicBool::new(false);
            let result = try_map(width, 8, |i| match i {
                3 => {
                    // Hold index 3 until index 7 has failed, bounded so a
                    // broken executor fails the test instead of hanging it.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !later_failed.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    Err(3)
                }
                7 => {
                    later_failed.store(true, Ordering::SeqCst);
                    Err(7)
                }
                _ => Ok(i),
            });
            assert_eq!(result, Err(3), "width {width}");
            assert!(later_failed.load(Ordering::SeqCst), "width {width}: index 7 must have run");
        }
    }

    #[test]
    fn no_index_is_claimed_after_a_failure() {
        for width in [1, 2, 8] {
            // Indices below `width - 1` each hold a worker until a call
            // beyond the first `width` shows up (or a deadline passes), so
            // the one free worker is the one that claims and fails on
            // `width - 1`. From then on nobody may claim anything.
            let calls = AtomicUsize::new(0);
            let result: Result<Vec<usize>, usize> = try_map(width, 1_000, |i| {
                calls.fetch_add(1, Ordering::SeqCst);
                if i + 1 < width {
                    let deadline = Instant::now() + Duration::from_millis(500);
                    while calls.load(Ordering::SeqCst) <= width && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    Ok(i)
                } else if i + 1 == width {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(result, Err(width - 1));
            assert_eq!(calls.load(Ordering::SeqCst), width, "width {width}");
        }
    }
}
