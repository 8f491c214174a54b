//! `analyze` allocates a fixed set of arrays, not a few per supernode:
//! counted by a global allocator that counts the calling thread's
//! allocations, in the style of `pastix-ordering`'s `alloc_count`.

use pastix_graph::Permutation;
use pastix_symbolic::{analyze, AnalysisOptions};
use pastix_testsupport::grid_graph;
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

#[test]
fn analyze_allocations_do_not_grow_with_supernodes() {
    // Grids in a strided order: the column-block count grows ~300× from
    // the first to the last, the blok count ~1 400×.
    let mut first: Option<(usize, usize)> = None;
    for nx in [6, 12, 24, 48, 96] {
        let g = grid_graph(nx, nx);
        let n = g.n() as u32;
        let ord = Permutation::from_perm((0..n).map(|i| (i * 7919) % n).collect());
        let before = ALLOCATIONS.with(Cell::get);
        let an = analyze(&g, &ord, &AnalysisOptions::default());
        let allocs = ALLOCATIONS.with(Cell::get) - before;
        let bloks = an.symbol.bloks.len();
        let &mut (allocs0, bloks0) = first.get_or_insert((allocs, bloks));
        // Every array is sized once except the output blok array, which
        // doubles as it fills.
        let doublings = (bloks as f64 / bloks0 as f64).log2().ceil() as usize + 1;
        assert!(
            allocs <= allocs0 + doublings,
            "grid {nx}: {allocs} allocations for {} cblks, {allocs0} for the smallest",
            an.symbol.n_cblks()
        );
    }
}
