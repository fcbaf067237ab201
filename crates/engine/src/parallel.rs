//! Partition-parallel execution primitives.
//!
//! The engine parallelizes operators by splitting a relation's sorted
//! tuple slice into contiguous chunks and processing each chunk on a
//! scoped worker thread (`std::thread::scope` — no external thread-pool
//! dependency, consistent with the offline `shims/` build). Contiguous
//! chunks processed in order and concatenated in order preserve the
//! sortedness invariants that [`qf_storage::Relation::from_sorted_dedup`]
//! relies on, so order-preserving operators (select, anti-join) stay on
//! the no-sort path even when parallel.
//!
//! Work distribution is dynamic: workers pull the next unclaimed item
//! from a shared atomic cursor, so skewed chunks (one hot join key) do
//! not leave the other workers idle.
//!
//! Determinism: results are reassembled in item order regardless of
//! which worker produced them, and every output relation is canonically
//! sorted/deduplicated, so parallel and single-thread execution produce
//! identical relations. Governor counters ([`crate::ExecContext`]) are
//! atomic and shared across workers; budget overshoot is bounded by one
//! in-flight charge per worker.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::EngineError;

/// Minimum number of items that justifies handing a worker thread its
/// own chunk. Below this, thread spawn/join overhead and moving the
/// chunk's output between cores dominate, and the work runs inline on
/// the caller's thread. (On a 2-vCPU host, E1's small-scale rewritten
/// plan took a median 34 ms on 2 threads at 4096 and 28 ms at 16384,
/// against 23 ms on 1 thread: at 4096 its 5k–40k-row operators split
/// into chunks of well under a millisecond of work.)
pub const PAR_THRESHOLD: usize = 16384;

/// Thread count used when none is configured explicitly: the
/// `QF_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`], otherwise 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("QF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many workers to actually use for `len` items under a configured
/// thread count: never more than `threads`, never so many that a worker
/// gets fewer than [`PAR_THRESHOLD`] items, and at least 1.
pub fn workers_for(len: usize, threads: usize) -> usize {
    threads.min(len.div_ceil(PAR_THRESHOLD)).max(1)
}

/// Split `0..len` into `workers` near-equal contiguous ranges (the
/// first `len % workers` ranges get one extra item). Empty ranges are
/// omitted, so the result may be shorter than `workers`.
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Apply `f` to every item of `items` on up to `threads` scoped worker
/// threads, returning results **in item order**. The first `Err` (in
/// item order) is returned. A panic inside `f` on a worker thread is
/// caught at the worker boundary and surfaced as a clean
/// [`EngineError::WorkerPanic`]-derived error — it never poisons shared
/// state (the `ExecContext`) or cascades into sibling-thread panics.
/// With `threads <= 1` (or a single item) everything runs inline on the
/// caller's thread — no spawn overhead, and a panic propagates as in
/// any sequential code.
///
/// Items are claimed dynamically from a shared cursor, so uneven item
/// costs balance across workers. Generic over the error type so that
/// higher layers (the flock pipeline) can parallelize with their own
/// error enums; `E: From<EngineError>` lets the panic conversion
/// surface in those enums too.
pub fn par_items<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send + From<EngineError>,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let n_workers = threads.max(1).min(items.len());
    if n_workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, Result<R, E>)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| f(&items[i]))).unwrap_or_else(
                            |payload| {
                                Err(E::from(EngineError::WorkerPanic {
                                    detail: panic_message(payload.as_ref()),
                                }))
                            },
                        );
                        // After an error, later items are moot; stop
                        // claiming work so the pipeline fails fast.
                        let failed = r.is_err();
                        local.push((i, r));
                        if failed {
                            break;
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => indexed.extend(local),
                // Defensive: `f` panics are already caught above, so
                // this only fires for panics in the claiming loop
                // itself. Surface them as errors too (ordered last).
                Err(payload) => indexed.push((
                    usize::MAX,
                    Err(E::from(EngineError::WorkerPanic {
                        detail: panic_message(payload.as_ref()),
                    })),
                )),
            }
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Partition `items` into at most `workers` contiguous chunks and apply
/// `f` to each chunk in parallel, returning per-chunk results in chunk
/// order. See [`par_items`] for error/panic semantics.
pub fn par_chunks<T, R, E, F>(items: &[T], workers: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send + From<EngineError>,
    F: Fn(&[T]) -> Result<R, E> + Sync,
{
    let ranges = chunk_ranges(items.len(), workers);
    par_items(&ranges, workers, |r| f(&items[r.clone()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 5, 100, 101] {
            for workers in [1usize, 2, 3, 7] {
                let ranges = chunk_ranges(len, workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} workers={workers}");
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= workers);
            }
        }
    }

    #[test]
    fn workers_respect_threshold() {
        assert_eq!(workers_for(0, 8), 1);
        assert_eq!(workers_for(100, 8), 1);
        assert_eq!(workers_for(PAR_THRESHOLD + 1, 8), 2);
        assert_eq!(workers_for(PAR_THRESHOLD * 100, 8), 8);
        assert_eq!(workers_for(PAR_THRESHOLD * 100, 1), 1);
    }

    #[test]
    fn par_items_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1usize, 2, 4] {
            let out = par_items(&items, threads, |&x| Ok::<u64, EngineError>(x * 2)).unwrap();
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_items_propagates_first_error() {
        let items: Vec<u64> = (0..100).collect();
        let err = par_items(&items, 4, |&x| {
            if x >= 7 {
                Err(EngineError::Cancelled)
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
    }

    #[test]
    fn par_chunks_reassembles_in_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for workers in [1usize, 3, 8] {
            let chunks = par_chunks(&items, workers, |c| Ok::<_, EngineError>(c.to_vec())).unwrap();
            let flat: Vec<u64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_surfaces_as_clean_error() {
        // Silence the default panic hook for the intentional panic so
        // test output stays readable; restore it afterwards.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u64> = (0..10_000).collect();
        let err = par_items(&items, 4, |&x| {
            if x == 5000 {
                panic!("boom at {x}");
            }
            Ok::<u64, EngineError>(x)
        })
        .unwrap_err();
        std::panic::set_hook(prev);
        match err {
            EngineError::WorkerPanic { detail } => assert!(detail.contains("boom"), "{detail}"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn worker_panic_does_not_poison_shared_context() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ctx = crate::ExecContext::unbounded();
        let items: Vec<u64> = (0..10_000).collect();
        let r = par_items(&items, 4, |&x| {
            ctx.record_degradation("test", "before panic");
            if x == 0 {
                panic!("poison attempt");
            }
            Ok::<u64, EngineError>(x)
        });
        std::panic::set_hook(prev);
        assert!(matches!(r, Err(EngineError::WorkerPanic { .. })));
        // The shared context is still fully usable afterwards.
        ctx.record_degradation("test", "after panic");
        assert!(!ctx.stats().degradations.is_empty());
        ctx.charge_row(4).unwrap();
    }
}
