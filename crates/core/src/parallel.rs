//! Deterministic work-stealing dispatch for the parallel CR&P loops.
//!
//! The flow's parallel stages (candidate generation, candidate pricing,
//! the median-move baseline) all have the same shape: `n` independent
//! work items of wildly uneven cost — a 2-pin net prices in microseconds
//! while a congested 40-pin net takes milliseconds. Fixed `chunks_mut`
//! partitioning leaves whole workers idle behind one slow chunk, so the
//! stages instead share one atomic cursor: each worker claims the next
//! unclaimed index ([`AtomicUsize::fetch_add`]), computes, and tags the
//! result with its index. Results are merged back **by index**, so the
//! output is bit-identical for every thread count and every schedule —
//! parallelism changes only who computes an item, never what is computed
//! or where it lands.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means the machine's available
/// parallelism, capped at 8; any other value is used as given. Every
/// thread knob in the workspace (`CrpConfig::threads`, `GpConfig::threads`,
/// `MedianMoverConfig::threads`) resolves through here. Output never
/// depends on the result — only wall clock does.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8)
    }
}

/// Runs `work` over indices `0..n` on `threads` workers with work
/// stealing, returning the results in index order.
///
/// `init` builds one scratch value per worker (reusable buffers, router
/// state); `work` receives the worker's scratch and the claimed index.
/// Items must be independent: `work` cannot observe other items' results.
///
/// Public so sibling crates with the same determinism contract (the
/// `crp-gp` placer's gradient and transform loops) dispatch through the
/// one audited cursor instead of growing private clones of it.
pub fn run_indexed<T, S, I, F>(n: usize, threads: usize, init: I, work: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || n < 2 {
        let mut scratch = init();
        return (0..n).map(|i| work(&mut scratch, i)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        // atomics(work-steal cursor): the RMW alone claims
                        // each index exactly once; nothing else rides on the
                        // cursor — results are published by the thread join
                        // below, a full happens-before. Relaxed suffices.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, work(&mut scratch, i)));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            // Forward a worker panic instead of raising a new one here, so
            // the original payload and message reach the caller intact.
            let produced = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, v) in produced {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        // crp-lint: allow(no-panic-paths, the cursor hands out every index in
        // 0..n exactly once and each worker records all indices it claimed)
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_positive_and_capped() {
        let auto = resolve_threads(0);
        assert!((1..=8).contains(&auto));
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(16), 16, "an explicit count is not capped");
    }

    #[test]
    fn results_land_in_index_order() {
        let out = run_indexed(100, 4, || (), |(), i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let work = |_: &mut (), i: usize| (i as f64).sqrt().sin();
        let one = run_indexed(257, 1, || (), work);
        for threads in [2, 3, 8, 16] {
            let many = run_indexed(257, threads, || (), work);
            assert_eq!(one, many, "threads={threads} changed results");
        }
    }

    #[test]
    fn uneven_items_all_complete() {
        // Items 0..8 sleep-spin long, the rest are instant; stealing must
        // still cover every index.
        let out = run_indexed(
            64,
            8,
            || (),
            |(), i| {
                if i < 8 {
                    std::hint::black_box((0..50_000).sum::<u64>());
                }
                i
            },
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        use std::sync::atomic::AtomicUsize;
        static INITS: AtomicUsize = AtomicUsize::new(0);
        INITS.store(0, Ordering::SeqCst);
        let out = run_indexed(
            32,
            4,
            || {
                INITS.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |buf, i| {
                buf.push(i);
                buf.len()
            },
        );
        // At most one scratch per worker (plus none extra).
        assert!(INITS.load(Ordering::SeqCst) <= 4);
        // Each worker's buffer grows monotonically — values are per-worker
        // visit counts, so they never exceed the item count.
        assert!(out.iter().all(|&c| (1..=32).contains(&c)));
    }

    #[test]
    fn zero_and_single_item_paths() {
        assert!(run_indexed(0, 8, || (), |(), i| i).is_empty());
        assert_eq!(run_indexed(1, 8, || (), |(), i| i + 7), vec![7]);
    }
}
