//! Deterministic parallelism policy and fork-join primitives for the
//! analyze phase.
//!
//! Every analyze stage (ordering, symbolic, scheduling) takes the same
//! [`Parallelism`] knob and must produce **bitwise-identical** results at
//! every thread count. The helpers here make that easy to get right: work
//! is split into index-contiguous chunks, each chunk writes its own
//! disjoint output slice, and results are combined in index order — the
//! reduction order never depends on thread timing.
//!
//! There is no thread pool: each spawned branch of [`join`] or
//! [`par_chunks_mut`] runs on a scoped OS thread, bounded by a global
//! budget so deep recursions and wide fan-outs degrade to running inline
//! instead of spawning thousands of threads.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How much parallelism an analyze stage may use.
///
/// The choice never changes results — only wall-clock time. `Auto` sizes
/// the fan-out to the host's available parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Strictly sequential: no threads are spawned anywhere.
    Sequential,
    /// Fan out over at most this many threads (1 behaves like
    /// `Sequential`).
    Threads(usize),
    /// Use the host's available parallelism.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves the knob to a concrete thread count (≥ 1).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

static ACTIVE_SPAWNS: AtomicUsize = AtomicUsize::new(0);

/// Maximum concurrently outstanding spawned branches before [`join`] and
/// [`par_chunks_mut`] fall back to running closures inline.
const SPAWN_BUDGET: usize = 48;

/// One unit of the spawn budget, released on drop so a panicking branch
/// gives its slot back while unwinding (a leaked slot is permanent: 48
/// caught panics would turn the whole process sequential).
struct SpawnSlot;

impl SpawnSlot {
    /// Takes a slot, or `None` when the budget is spent.
    fn acquire() -> Option<Self> {
        if ACTIVE_SPAWNS.load(Ordering::Relaxed) >= SPAWN_BUDGET {
            return None;
        }
        ACTIVE_SPAWNS.fetch_add(1, Ordering::Relaxed);
        Some(SpawnSlot)
    }
}

impl Drop for SpawnSlot {
    fn drop(&mut self) {
        ACTIVE_SPAWNS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs the two closures, `oper_b` on a new thread while the budget
/// allows, and returns both results. Panics in either closure propagate.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let Some(slot) = SpawnSlot::acquire() else {
        return (oper_a(), oper_b());
    };
    std::thread::scope(|s| {
        let hb = s.spawn(move || {
            let _slot = slot;
            oper_b()
        });
        let ra = oper_a();
        match hb.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Splits `0..n` into at most `threads` contiguous chunks and returns the
/// chunk boundaries (ascending, first 0, last `n`). Chunk shape depends
/// only on `(n, threads)` — never on timing.
fn chunk_bounds(n: usize, threads: usize) -> Vec<usize> {
    let threads = threads.max(1).min(n.max(1));
    let mut bounds = Vec::with_capacity(threads + 1);
    bounds.push(0);
    for c in 1..=threads {
        bounds.push(n * c / threads);
    }
    bounds
}

/// Runs `f` on disjoint contiguous chunks of `data` in parallel; `f`
/// receives the chunk and the index of its first element. Sequential when
/// `threads <= 1`. Panics in `f` propagate.
pub fn par_chunks_mut<T, F>(threads: usize, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut [T], usize) + Sync,
{
    let n = data.len();
    if threads <= 1 || n < 2 {
        f(data, 0);
        return;
    }
    let bounds = chunk_bounds(n, threads);
    let fref = &f;
    std::thread::scope(|s| {
        let mut rest: &mut [T] = data;
        let mut consumed = 0usize;
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let (chunk, tail) = rest.split_at_mut(hi - consumed);
            rest = tail;
            consumed = hi;
            // Over the budget the chunk runs inline; either way it
            // finishes before the scope closes.
            match SpawnSlot::acquire() {
                Some(slot) => {
                    s.spawn(move || {
                        let _slot = slot;
                        fref(chunk, lo)
                    });
                }
                None => fref(chunk, lo),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test that spawns, so a before/after reading of
    /// the process-global budget counter belongs to one test alone. The
    /// `should_panic` tests poison it by design.
    fn serial() -> MutexGuard<'static, ()> {
        static SPAWNING_TESTS: Mutex<()> = Mutex::new(());
        SPAWNING_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn chunks_cover_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for t in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(n, t);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), n);
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn chunks_mut_writes_every_slot() {
        let _serial = serial();
        for t in [1usize, 2, 4, 9, 200] {
            let mut data = vec![0u32; 100];
            par_chunks_mut(t, &mut data, |chunk, base| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (base + j) as u32;
                }
            });
            let want: Vec<u32> = (0..100).collect();
            assert_eq!(data, want, "threads={t}");
        }
    }

    #[test]
    fn effective_threads_resolves() {
        assert_eq!(Parallelism::Sequential.effective_threads(), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(6).effective_threads(), 6);
        assert!(Parallelism::Auto.effective_threads() >= 1);
    }

    #[test]
    fn join_returns_both() {
        let _serial = serial();
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn nested_joins_respect_budget() {
        let _serial = serial();
        let before = ACTIVE_SPAWNS.load(Ordering::Relaxed);
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(16), 987);
        assert_eq!(ACTIVE_SPAWNS.load(Ordering::Relaxed), before);
    }

    #[test]
    fn panicking_branches_release_their_slot() {
        let _serial = serial();
        let before = ACTIVE_SPAWNS.load(Ordering::Relaxed);
        let joined = std::panic::catch_unwind(|| join(|| 1, || panic!("boom")));
        assert!(joined.is_err());
        let mut data = [0u8; 4];
        let chunked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_chunks_mut(2, &mut data, |_, base| assert_eq!(base, 0, "chunk boom"))
        }));
        assert!(chunked.is_err());
        assert_eq!(ACTIVE_SPAWNS.load(Ordering::Relaxed), before);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        let _serial = serial();
        let _ = join(|| 1, || panic!("boom"));
    }
}
