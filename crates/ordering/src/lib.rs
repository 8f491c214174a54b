//! # pastix-ordering
//!
//! The ordering phase of the PaStiX reproduction: a tight coupling of
//! nested dissection (multilevel vertex separators, the Scotch substitute)
//! with (halo) minimum degree on the leaf subgraphs, as in
//! Pellegrini–Roman–Amestoy and the PaStiX paper.
//!
//! Entry points: [`nested_dissection`] with [`OrderingOptions::scotch_like`]
//! (PaStiX side) or [`OrderingOptions::metis_like`] (PSPASES side), and the
//! lower-level pieces [`bisect`] and [`md`] for direct use.

#![warn(missing_docs)]

pub mod bisect;
pub mod md;
pub mod nd;
pub mod rcm;

pub use bisect::{edge_bisection, separator_is_valid, vertex_separator, BisectOptions, SeparatorResult};
pub use md::{min_degree, MdOrder};
pub use nd::{nested_dissection, pure_min_degree, LeafMode, OrderingOptions};
pub use rcm::{bandwidth, reverse_cuthill_mckee};

/// A counting allocator for this crate's unit tests: the workspaces claim
/// to allocate nothing once they have reached their high-water mark, and
/// the tests hold them to it by counting their own thread's allocations.
#[cfg(test)]
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
