//! # pastix-solver
//!
//! Numeric factorization and solve for the PaStiX reproduction:
//!
//! * [`plan`] — **the entry path**: [`Plan::analyze`] bundles the whole
//!   pre-processing pipeline (ordering, symbolic analysis, mapping,
//!   static schedule); [`Plan::factorize`] runs the numeric
//!   phase on any backend and hands back a [`FactorRun`] whose
//!   [`SolveRequest`]-driven solve method covers single- and multi-RHS;
//! * [`storage`] — the dense-panel factor storage (the real PaStiX layout:
//!   one contiguous column-major panel per column block), filled from `A`
//!   through a [`ScatterPattern`], the plan-cached structure of `P·A·Pᵀ`;
//! * `tasks` (crate-private) — the **one** implementation of the paper's
//!   four task bodies (COMP1D, FACTOR, BDIV, the BMOD pair contribution),
//!   generic over a contribution sink; the three modules below are its
//!   drivers and own only what differs — program order, where a panel or
//!   region lives, and where contributions go;
//! * `sweeps` (crate-private) — the solve mirror of `tasks`: the **one**
//!   forward and backward block step of the triangular solves, on a flat
//!   RHS-interleaved workspace, generic over a one-method row sink; and
//!   `solve_plan`, the structure of the solves (the elimination tree
//!   split into one bin of whole subtrees per processor and a top)
//!   computed once per [`Plan`] and replayed by every solve. [`seq`] and [`dynamic`] below drive them;
//! * [`seq`] — the sequential reference driver (one `COMP1D` per column
//!   block in elimination order, contributions applied to later panels in
//!   place; the solve sweeps as a plain loop up and down the blocks);
//! * [`parallel`] — the `Backend::Sim` driver: the supernodal **fan-in**
//!   engine of the paper's Fig. 1, each rank walking its `K_p` from
//!   `pastix-sched` on the runtime's deterministic simulator (regions,
//!   AUBs, factor payloads);
//! * [`dynamic`] — the `Backend::Threads` and `Backend::Dynamic`
//!   factorization, and the one parallel solve of every backend: the same
//!   task graph executed by the DAG executor over
//!   shared panels under per-panel locks, with the static mapping either
//!   kept (`Threads`: every task enqueued on its `K_p` processor, which
//!   runs it in `K_p` order) or reduced to placement/priority hints
//!   (`Dynamic`); under both a worker whose queue is empty steals. The
//!   solve runs the plan's solve split there, for `Sim` under the
//!   executor's seeded serializer.
//!
//! The parallel factor is validated against the sequential one entry by
//! entry; both support `f64` (SPD) and `Complex64` (complex symmetric)
//! systems through the shared [`pastix_kernels::Scalar`] abstraction.
//!
//! Off-diagonal factor blocks can be stored in block low-rank (BLR) form,
//! after the fact: no driver knows about it. [`compress`] holds the
//! [`CompressionConfig`] knobs and the one pass over the finished dense
//! factor that [`Plan::factorize`] runs, [`storage`] the per-panel
//! overlay that pass installs, and [`refine`] the iterative-refinement
//! wrapper that recovers full accuracy from a truncated factor.

#![warn(missing_docs)]

pub mod compress;
pub mod config;
pub mod dynamic;
pub mod parallel;
mod pattern;
pub mod plan;
pub mod refine;
pub mod seq;
mod solve_plan;
pub mod storage;
mod sweeps;
mod tasks;

pub use compress::CompressionConfig;
pub use config::{FactorRun, SolverConfig};
pub use parallel::ChaosOptions;
pub use pattern::ScatterPattern;
pub use pastix_runtime::{Backend, DynamicOptions, TaskOrder};
pub use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};
pub use plan::{
    run_from_storage, screen_rhs, AnalyzeOptions, AnalyzeStats, Plan, ScreenedRhs, SolveError, SolveOutput,
    SolveRequest,
};
pub use refine::{RefineOptions, RefineOutput};
pub use seq::{
    factor_and_solve, factorize_sequential, reconstruction_error, solve_block_in_place,
    solve_in_place,
};
pub use storage::{BlockStore, BlokView, FactorStorage, PanelCompression, PanelLayout};

#[cfg(test)]
/// A counting allocator for this crate's unit tests: the task bodies claim
/// to allocate nothing once their scratch has reached its high-water mark,
/// and the tests hold them to it by counting their own thread's
/// allocations (the style of `pastix-ordering`'s).
pub(crate) mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialised and without a destructor, so it is usable from
        // inside the allocator at any point of a thread's life.
        static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter touches no
    // memory the allocator manages and does not allocate.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's obligations are those of `System.alloc`.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator with
            // this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// Allocations and reallocations the calling thread has made so far.
    pub(crate) fn allocations() -> usize {
        ALLOCATIONS.with(Cell::get)
    }
}
