//! Offline stand-in for the real `rayon` crate.
//!
//! The workspace builds without network access, so this shim implements the slice of the
//! rayon API the codebase uses — `slice.par_iter().map(f).collect()`,
//! `range.into_par_iter().map(f).collect()` and [`ThreadPool`]s that set the width of the
//! parallel calls inside them — on top of [`std::thread::scope`]:
//!
//! * every parallel call spawns its own scoped threads and joins them before it returns, so
//!   no threads outlive a call and the threads borrow the caller's data directly;
//! * the calling thread and up to `width − 1` spawned threads drain a shared queue of
//!   **dynamic chunks** (several per thread), so uneven per-item costs re-balance instead of
//!   serialising behind one static chunk per thread;
//! * each chunk's results are tagged with the chunk's index and reassembled in that order,
//!   so output order matches input order exactly as with real rayon;
//! * the width is `P2PGRID_POOL_THREADS` if set, otherwise the machine's available
//!   parallelism (`1` runs every parallel call inline on the calling thread — results are
//!   identical either way, which CI pins by running the test suite at `1` and `8`).
//!
//! Every caller in the workspace is coarse (an all-pairs topology row, a whole simulation
//! session, a whole world build), so the cost of spawning threads per call is noise.  Swap
//! the path dependency for the crates.io release to get a persistent pool, adaptive
//! splitting and the full combinator set; call sites need no changes.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the default width of parallel calls (`>= 1`; `1` means
/// every parallel operation runs inline on the calling thread, which is the fully
/// deterministic sequential mode the CI matrix pins against `8`).
pub const POOL_THREADS_ENV: &str = "P2PGRID_POOL_THREADS";

/// The import surface (`use rayon::prelude::*`) mirroring rayon's prelude.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    /// The width set by the innermost [`ThreadPool::install`] on this thread, or inherited
    /// from the parallel call that spawned it; `None` means the process default.
    static INSTALLED_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process default width: `P2PGRID_POOL_THREADS` if set (clamped to at least 1),
/// otherwise the machine's available parallelism.  Read once, on first use.
fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(POOL_THREADS_ENV)
            .ok()
            .and_then(|value| value.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Number of threads a parallel call on this thread uses (the installed pool's width inside
/// a [`ThreadPool::install`] scope or a thread it spawned, otherwise the process default).
pub fn current_num_threads() -> usize {
    INSTALLED_WIDTH
        .with(Cell::get)
        .unwrap_or_else(default_width)
}

/// Run `f` with `width` installed on this thread, restoring the previous width afterwards
/// (also when `f` unwinds).
fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED_WIDTH.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(INSTALLED_WIDTH.with(|w| w.replace(Some(width))));
    f()
}

// ----- core parallel map -----------------------------------------------------------------

/// Map `f` over `items` at the current width, preserving input order in the output.
///
/// Work is split into roughly `4 × width` chunks; the calling thread and up to `width − 1`
/// scoped threads pop chunks off a shared queue until it is empty.  A panic in `f` does not
/// stop the other threads: every thread is joined first, then the first panic's original
/// payload is re-thrown on the calling thread.
fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let width = current_num_threads();
    if len <= 1 || width <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Several chunks per thread: small enough to re-balance skewed workloads, large enough
    // to keep per-chunk overhead negligible.
    let chunk_size = len.div_ceil(width * 4);
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(len.div_ceil(chunk_size));
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<T> = items.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push((chunks.len(), chunk));
    }
    let threads = width.min(chunks.len());
    let queue = Mutex::new(chunks.into_iter());

    let drain = || {
        let mut done: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("`f` never runs under the queue lock, so nothing can poison it")
                .next();
            let Some((index, chunk)) = next else {
                return done;
            };
            done.push((index, chunk.into_iter().map(&f).collect()));
        }
    };
    let mut tagged = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| with_width(width, drain)))
            .collect();
        let mut tagged = drain();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => tagged.extend(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        tagged
    });

    tagged.sort_unstable_by_key(|&(index, _)| index);
    let mut out = Vec::with_capacity(len);
    for (_, done) in tagged {
        out.extend(done);
    }
    out
}

// ----- thread pools ----------------------------------------------------------------------

/// Error returned by [`ThreadPoolBuilder::build`] (mirrors rayon's opaque error type; this
/// shim's build cannot fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring rayon's `ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Start building with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the width.  `0` (rayon convention) means "use the default", i.e. the
    /// `P2PGRID_POOL_THREADS` override or the machine's available parallelism; `1` builds an
    /// inline pool whose parallel operations run sequentially on the submitting thread.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = (num_threads > 0).then_some(num_threads);
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = self.num_threads.unwrap_or_else(default_width);
        Ok(ThreadPool { num_threads })
    }
}

/// A width for parallel calls, independent of the process default.
///
/// The pool holds no threads: [`install`](Self::install) runs the closure on the *calling*
/// thread with this width made current, and every parallel call inside spawns (and joins)
/// its own scoped threads at that width.  The threads it spawns inherit the width, so nested
/// parallel calls use it too — and, spawning their own threads, can never deadlock.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's width as the width of every parallel operation inside.
    pub fn install<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        with_width(self.num_threads, f)
    }

    /// The width of this pool.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// ----- parallel iterator surface ---------------------------------------------------------

/// A not-yet-mapped parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// The subset of rayon's `ParallelIterator` used by this workspace.
pub trait ParallelIterator: Sized {
    /// Item type produced by the iterator.
    type Item: Send;

    /// Evaluate the pipeline in parallel and hand the results, in input order, to `C`.
    fn collect<C: FromIterator<Self::Item>>(self) -> C;

    /// Map every item through `f` (evaluated in parallel at `collect` time).
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync>(self, f: F) -> Mapped<Self, F> {
        Mapped { inner: self, f }
    }
}

/// A `map` stage stacked on another parallel iterator.
pub struct Mapped<I, F> {
    inner: I,
    f: F,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

impl<I, U, F> ParallelIterator for Mapped<I, F>
where
    I: ParallelIterator,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    type Item = U;
    fn collect<C: FromIterator<U>>(self) -> C {
        let items: Vec<I::Item> = self.inner.collect();
        parallel_map(items, self.f).into_iter().collect()
    }
}

/// Mirror of rayon's `IntoParallelIterator` for owned collections and ranges.
pub trait IntoParallelIterator {
    /// Item type of the produced iterator.
    type Item: Send;
    /// The produced parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<$t>;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter {
                    items: self.collect(),
                }
            }
        }
    )*};
}

impl_range_into_par_iter!(usize, u32, u64, i32, i64);

/// Mirror of rayon's `IntoParallelRefIterator`: `.par_iter()` on slices and arrays.
pub trait IntoParallelRefIterator<'a> {
    /// Item type of the produced iterator (a shared reference).
    type Item: Send;
    /// The produced parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Iterate the collection by reference, in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<&'a T>;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<&'a T>;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares.len(), 1000);
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn par_iter_on_slices_and_arrays() {
        let arr = [1u64, 2, 3, 4, 5];
        let doubled: Vec<u64> = arr.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
        let v = vec![10u32, 20, 30];
        let s: Vec<u32> = v.par_iter().map(|&x| x + 1).collect();
        assert_eq!(s, vec![11, 21, 31]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let totals: Vec<u64> = (0..16u64)
            .into_par_iter()
            .map(|i| {
                (0..100u64)
                    .into_par_iter()
                    .map(|j| i * j)
                    .collect::<Vec<_>>()
                    .iter()
                    .sum()
            })
            .collect();
        for (i, &total) in totals.iter().enumerate() {
            assert_eq!(total, i as u64 * (99 * 100 / 2));
        }
    }

    #[test]
    fn borrows_of_caller_stack_are_sound() {
        let data: Vec<u64> = (0..500).collect();
        let offset = 17u64;
        let shifted: Vec<u64> = data.par_iter().map(|&x| x + offset).collect();
        assert_eq!(shifted[499], 499 + 17);
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let work = |n: usize| -> Vec<u64> {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            pool.install(|| {
                (0..256u64)
                    .into_par_iter()
                    .map(|x| x.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17))
                    .collect()
            })
        };
        let one = work(1);
        let four = work(4);
        let eight = work(8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn installed_pool_is_current() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn installed_width_is_inherited_by_spawned_threads_and_nested_calls() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen: Vec<(usize, Vec<usize>)> = pool.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|_| {
                    let inner = (0..8usize)
                        .into_par_iter()
                        .map(|_| current_num_threads())
                        .collect();
                    (current_num_threads(), inner)
                })
                .collect()
        });
        for (outer, inner) in seen {
            assert_eq!(outer, 3);
            assert_eq!(inner, vec![3; 8]);
        }
    }

    #[test]
    fn skewed_workloads_use_multiple_workers() {
        // One item is vastly more expensive than the rest; with dynamic chunks on a shared queue
        // the cheap items must not all serialise behind it on a single worker.  The
        // expensive item *blocks* (rather than spins) until a cheap item has run on a
        // different thread: blocking yields the CPU, so even on a one-hardware-thread host
        // the pool's other workers get scheduled and the property is deterministic, not a
        // race against the OS scheduler.  The timeout only bounds a genuine failure.
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::Duration;
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let gate: Arc<(Mutex<Vec<std::thread::ThreadId>>, Condvar)> =
            Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let threads_used = pool.install(|| {
            let ids: Vec<std::thread::ThreadId> = (0..64usize)
                .into_par_iter()
                .map(|i| {
                    let me = std::thread::current().id();
                    let (seen, woken) = &*gate;
                    if i == 0 {
                        // Stay "expensive" until some cheap item finishes elsewhere.
                        let deadline = std::time::Instant::now() + Duration::from_secs(10);
                        let mut seen = seen.lock().unwrap();
                        while !seen.iter().any(|&id| id != me) {
                            let left =
                                deadline.saturating_duration_since(std::time::Instant::now());
                            if left.is_zero() {
                                break;
                            }
                            let (guard, _) = woken.wait_timeout(seen, left).unwrap();
                            seen = guard;
                        }
                    } else {
                        seen.lock().unwrap().push(me);
                        woken.notify_all();
                    }
                    me
                })
                .collect();
            ids.iter().collect::<std::collections::HashSet<_>>().len()
        });
        assert!(
            threads_used >= 2,
            "expected >= 2 distinct worker threads, saw {threads_used}"
        );
    }

    #[test]
    fn panics_propagate_after_batch_completes() {
        static COMPLETED: AtomicUsize = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                let _: Vec<usize> = (0..64usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 13 {
                            panic!("boom");
                        }
                        COMPLETED.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                    .collect();
            });
        }));
        let payload = outcome.expect_err("panic in a mapped closure must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert!(COMPLETED.load(Ordering::Relaxed) >= 1);
    }
}
