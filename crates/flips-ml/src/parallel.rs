//! The workspace's one fan-out: scoped worker threads, joined before the
//! call returns, a worker's panic re-raised in the caller.
//!
//! GEMM's row panels, `FlJob`'s party training, the elbow scan's K-Means
//! restarts and the population's normal transforms each split their work
//! into pieces whose results do not depend on the thread that computes
//! them, so their output bits are the same at every thread count. Each
//! caller decides when its work is too small to be worth a spawn and
//! passes one worker, which runs inline.

use std::sync::{Mutex, OnceLock};

/// Most worker threads a fan-out uses.
const MAX_THREADS: usize = 8;

/// Workers for `units` independent pieces of work: the machine's
/// available parallelism (1 if unknown), at most 8 and at most `units`,
/// at least 1. The parallelism is read once per process: the query
/// re-reads the cgroup files on every call (≈ 28 µs on a 2-core Linux
/// VM), and GEMM and the party pool ask on every call and every pump.
pub fn threads(units: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |t| t.get()));
    cores.min(MAX_THREADS).min(units).max(1)
}

/// Splits `items` into at most `workers` contiguous chunks of whole
/// `unit`-item groups (the last chunk may be shorter) and returns
/// `f(offset, chunk)` for each chunk, in order; `offset` is the chunk's
/// first index in `items`. The first chunk runs on the calling thread.
///
/// # Panics
///
/// Panics if `unit` is zero; re-raises a worker's panic.
pub fn for_each_chunk<T, R, F>(items: &mut [T], unit: usize, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(unit > 0, "a chunk holds whole groups of at least one item");
    let per = items.len().div_ceil(unit).div_ceil(workers.max(1)).max(1) * unit;
    if per >= items.len() {
        return vec![f(0, items)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut chunks = items.chunks_mut(per);
        let first = chunks.next().expect("more than one chunk");
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(c, chunk)| scope.spawn(move || f((c + 1) * per, chunk)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(0, first));
        out.extend(handles.into_iter().map(join));
        out
    })
}

/// Returns `f` of each item, in `items` order, computed by up to `workers`
/// threads that each claim the next unclaimed item until none is left, so
/// pieces of uneven cost balance themselves (best with the costliest
/// first). One worker runs inline.
///
/// # Panics
///
/// Re-raises a worker's panic.
pub fn map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let count = items.len();
    if workers <= 1 || count <= 1 {
        return items.into_iter().map(f).collect();
    }
    // One lock hands out items; it is held for the claim only, never
    // while `f` runs, so a panicking `f` cannot poison it.
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let Some((i, item)) = queue.lock().expect("claims never panic").next() else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers.min(count)).map(|_| scope.spawn(work)).collect();
        let mine = work();
        for (i, r) in mine.into_iter().chain(handles.into_iter().flat_map(join)) {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|r| r.expect("every item was claimed once")).collect()
}

/// A worker's result, or its panic re-raised here.
fn join<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_item_once_in_order_at_any_worker_count() {
        for len in [0usize, 1, 2, 5, 7, 64, 101] {
            for unit in [1usize, 3] {
                for workers in 1..=4 {
                    let mut items: Vec<usize> = vec![0; len * unit];
                    let offsets = for_each_chunk(&mut items, unit, workers, |offset, chunk| {
                        assert_eq!(chunk.len() % unit, 0, "whole groups");
                        for (i, slot) in chunk.iter_mut().enumerate() {
                            *slot = offset + i + 1;
                        }
                        offset
                    });
                    assert_eq!(items, (1..=len * unit).collect::<Vec<_>>());
                    assert!(offsets.len() <= workers);
                    assert!(offsets.windows(2).all(|w| w[0] < w[1]), "chunk order");
                }
            }
        }
    }

    #[test]
    fn map_returns_every_index_in_order_at_any_worker_count() {
        for count in [0usize, 1, 2, 9, 100] {
            for workers in 1..=4 {
                let squares: Vec<usize> = (0..count).map(|i| i * i).collect();
                assert_eq!(map((0..count).collect(), workers, |i| i * i), squares);
            }
        }
    }

    #[test]
    fn map_hands_each_owned_item_to_one_call() {
        for workers in 1..=4 {
            let mut counts = vec![0usize; 23];
            let order = map(counts.iter_mut().enumerate().collect(), workers, |(i, count)| {
                *count += 1;
                i
            });
            assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
            assert_eq!(order, (0..23).collect::<Vec<_>>(), "results in item order");
        }
    }

    #[test]
    #[should_panic(expected = "worker 3 fails")]
    fn a_worker_panic_reaches_the_caller() {
        map((0..8).collect(), 3, |i: usize| assert!(i != 3, "worker {i} fails"));
    }

    #[test]
    fn threads_stay_within_their_caps() {
        assert_eq!(threads(0), 1);
        assert_eq!(threads(1), 1);
        assert!((1..=MAX_THREADS).contains(&threads(1_000)));
    }
}
