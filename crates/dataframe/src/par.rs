//! Morsel-style intra-kernel parallelism helpers (std scoped threads, no
//! external crates).
//!
//! The hot kernels ([`crate::partition::hash_partition`], the group-by
//! hash/accumulate passes) split their work into **exactly
//! order-preserving decompositions** and fan the pieces out over scoped
//! threads:
//!
//! * row-range splits where every row's output is a pure function of that
//!   row (partition ids, row hashes) — disjoint `split_at_mut` windows,
//!   identical values regardless of which thread computes them;
//! * whole-unit splits across independent units (one column per scatter
//!   job, one accumulator per aggregation job) — each unit runs its
//!   sequential loop unchanged, so even non-associative floating-point
//!   accumulation keeps its exact order.
//!
//! Results are therefore **bit-identical** to the sequential kernels for
//! any thread count. That invariant is what lets the parallel executor
//! promise `LocalExecutor`-identical results (see `xorbits-core`).
//!
//! The thread count is a process-wide knob ([`set_kernel_threads`]),
//! defaulting to 1 so nothing changes for callers that never opt in; an
//! executor overrides it for the threads it runs kernels on, for the
//! duration of one `execute`, with [`scoped_kernel_threads`]. The
//! helpers all degrade to plain sequential loops when the count is 1, the
//! input is small, or there is only one unit of work — the single-thread
//! fast path stays free of spawns and synchronization.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide kernel thread count; 1 = sequential (the default).
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// This thread's override of [`KERNEL_THREADS`]; 0 = none.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Rows below which range-parallel kernels stay sequential: spawn +
/// join overhead (~10µs/thread) dwarfs the work on small inputs.
pub const PAR_ROW_THRESHOLD: usize = 1 << 16;

/// Kernel thread count (≥ 1) for a kernel called on this thread: the
/// thread's [`scoped_kernel_threads`] override if one is live, else the
/// process-wide count.
pub fn kernel_threads() -> usize {
    match THREAD_OVERRIDE.get() {
        0 => KERNEL_THREADS.load(Ordering::Relaxed),
        n => n,
    }
}

/// Sets the process-wide kernel thread count; 0 and 1 both mean
/// sequential.
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Restores the calling thread's previous kernel thread count on drop.
pub struct KernelThreadsGuard {
    prev: usize,
}

/// Overrides the kernel thread count for kernels called on this thread
/// until the guard drops. Executors scope their worker budget with this so
/// kernel morsels and subtask slots share one knob without one executor's
/// run leaking into the next, or into one running concurrently.
pub fn scoped_kernel_threads(n: usize) -> KernelThreadsGuard {
    KernelThreadsGuard {
        prev: THREAD_OVERRIDE.replace(n.max(1)),
    }
}

impl Drop for KernelThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.set(self.prev);
    }
}

/// Splits `0..n` into at most `parts` near-even contiguous ranges
/// (first `n % parts` ranges get one extra item). Empty ranges are
/// omitted, so the result covers `0..n` exactly.
pub fn ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len > 0 {
            out.push(start..start + len);
        }
        start += len;
    }
    out
}

/// Runs `f(job_index)` for every job in `0..n` and returns the results in
/// job order. Jobs are distributed over at most [`kernel_threads`] scoped
/// threads in contiguous blocks; with one thread (or one job) this is a
/// plain sequential map.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = kernel_threads().min(n);
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let blocks = ranges(n, t);
    std::thread::scope(|s| {
        let mut rest: &mut [Option<R>] = &mut out;
        let mut offset = 0usize;
        for (bi, r) in blocks.iter().enumerate() {
            debug_assert_eq!(r.start, offset);
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            offset = r.end;
            let start = r.start;
            let f = &f;
            let mut run = move || {
                for (j, slot) in head.iter_mut().enumerate() {
                    *slot = Some(f(start + j));
                }
            };
            if bi + 1 == blocks.len() {
                run(); // last block on the calling thread: no idle joiner
            } else {
                s.spawn(run);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every job ran exactly once"))
        .collect()
}

/// Runs `f(&mut item)` for every item, distributing items over at most
/// [`kernel_threads`] scoped threads in contiguous blocks. Each item is
/// processed by exactly one thread, so `f` needs no internal
/// synchronization and per-item work keeps its sequential semantics.
pub fn par_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let t = kernel_threads().min(items.len());
    if t <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let blocks = ranges(items.len(), t);
    std::thread::scope(|s| {
        let mut rest: &mut [T] = items;
        for (bi, r) in blocks.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let f = &f;
            let run = move || {
                for item in head {
                    f(item);
                }
            };
            if bi + 1 == blocks.len() {
                run();
            } else {
                s.spawn(run);
            }
        }
    });
}

/// Splits `data` into the same contiguous blocks as [`ranges`]`(data.len(),
/// kernel_threads())` and runs `f(range, block)` on scoped threads — the
/// shape for "each output row depends only on its input row" passes. With
/// one thread this is a single call covering the whole slice.
pub fn par_fill<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let n = data.len();
    let t = kernel_threads();
    if t <= 1 || n < PAR_ROW_THRESHOLD {
        f(0..n, data);
        return;
    }
    let blocks = ranges(n, t);
    std::thread::scope(|s| {
        let mut rest: &mut [T] = data;
        for (bi, r) in blocks.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let f = &f;
            let range = r.clone();
            let run = move || f(range, head);
            if bi + 1 == blocks.len() {
                run();
            } else {
                s.spawn(run);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide thread knob (the rest
    /// of the suite runs with the default of 1 and never touches it).
    static KNOB: Mutex<()> = Mutex::new(());

    fn with_threads(n: usize, f: impl FnOnce()) {
        let _g = KNOB.lock().unwrap();
        set_kernel_threads(n);
        f();
        set_kernel_threads(1);
    }

    #[test]
    fn ranges_cover_exactly() {
        assert_eq!(ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(ranges(2, 4), vec![0..1, 1..2]);
        assert_eq!(ranges(0, 4), Vec::<Range<usize>>::new());
        for (n, p) in [(1usize, 1usize), (17, 4), (64, 64), (1000, 7)] {
            let rs = ranges(n, p);
            assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), n);
            let mut expect = 0;
            for r in rs {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
            assert_eq!(expect, n);
        }
    }

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let seq: Vec<usize> = (0..100).map(|i| i * i).collect();
        for t in [1usize, 2, 4, 8] {
            with_threads(t, || {
                assert_eq!(par_map(100, |i| i * i), seq, "threads={t}");
            });
        }
    }

    #[test]
    fn par_each_mut_touches_each_item_once() {
        for t in [1usize, 3, 8] {
            with_threads(t, || {
                let mut v: Vec<u64> = (0..57).collect();
                par_each_mut(&mut v, |x| *x += 1000);
                assert_eq!(v, (1000..1057).collect::<Vec<u64>>(), "threads={t}");
            });
        }
    }

    /// The two parallelized kernels must be bit-identical to their
    /// sequential selves at every thread count. Runs here (not in the
    /// kernel modules) so the global knob mutations stay serialized.
    #[test]
    fn hot_kernels_bit_identical_across_thread_counts() {
        use crate::column::Column;
        use crate::frame::DataFrame;
        use crate::groupby::{groupby_agg, AggFunc, AggSpec};
        use crate::partition::hash_partition;

        let n = PAR_ROW_THRESHOLD + 777; // past the threshold: parallel paths engage
        let df = DataFrame::new(vec![
            (
                "k",
                Column::from_i64((0..n as i64).map(|i| i * 2654435761 % 1000).collect()),
            ),
            (
                "s",
                Column::from_str((0..n).map(|i| format!("g{}", i % 97))),
            ),
            (
                "f",
                Column::from_f64((0..n).map(|i| (i as f64).sin()).collect()),
            ),
            ("v", Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap();
        let specs = [
            AggSpec::new("f", AggFunc::Sum, "fs"),
            AggSpec::new("f", AggFunc::Mean, "fm"),
            AggSpec::new("v", AggFunc::Sum, "vs"),
            AggSpec::new("v", AggFunc::Max, "vx"),
            AggSpec::new("v", AggFunc::Count, "vc"),
        ];
        let _g = KNOB.lock().unwrap();
        set_kernel_threads(1);
        let parts_seq = hash_partition(&df, &["k"], 8).unwrap();
        let multi_seq = hash_partition(&df, &["k", "s"], 5).unwrap();
        let agg_seq = groupby_agg(&df, &["s"], &specs).unwrap();
        for t in [2usize, 4, 8] {
            set_kernel_threads(t);
            assert_eq!(hash_partition(&df, &["k"], 8).unwrap(), parts_seq);
            assert_eq!(hash_partition(&df, &["k", "s"], 5).unwrap(), multi_seq);
            assert_eq!(groupby_agg(&df, &["s"], &specs).unwrap(), agg_seq);
        }
        set_kernel_threads(1);
    }

    #[test]
    fn scoped_override_is_per_thread_and_restores() {
        let _g = KNOB.lock().unwrap();
        set_kernel_threads(1);
        {
            let _outer = scoped_kernel_threads(4);
            assert_eq!(kernel_threads(), 4);
            {
                let _inner = scoped_kernel_threads(2);
                assert_eq!(kernel_threads(), 2);
            }
            assert_eq!(kernel_threads(), 4);
            // other threads keep the process-wide count
            assert_eq!(std::thread::spawn(kernel_threads).join().unwrap(), 1);
        }
        assert_eq!(kernel_threads(), 1);
    }

    #[test]
    fn par_fill_blocks_are_disjoint_and_aligned() {
        let n = PAR_ROW_THRESHOLD + 123;
        let mut expect = vec![0u64; n];
        for (i, e) in expect.iter_mut().enumerate() {
            *e = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
        }
        for t in [1usize, 2, 5, 8] {
            with_threads(t, || {
                let mut got = vec![0u64; n];
                par_fill(&mut got, |range, block| {
                    assert_eq!(range.len(), block.len());
                    for (j, slot) in block.iter_mut().enumerate() {
                        *slot = ((range.start + j) as u64).wrapping_mul(0x9e3779b97f4a7c15);
                    }
                });
                assert_eq!(got, expect, "threads={t}");
            });
        }
    }
}
