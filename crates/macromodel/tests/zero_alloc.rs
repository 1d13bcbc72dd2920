//! LUT compression allocates only the tables it returns and the index
//! selection's own buffers.
//!
//! [`compress_tables`] resamples all eight tables of an arc through one
//! `tmm_sta::lut_grid::LutGrid`: the grid's positions live on the stack,
//! the selected axes are built once and shared by every table on the
//! reference grid, and each table adds only its value body. This harness
//! installs a counting global allocator and pins the count.
//!
//! The counter is per thread, so the tests of this binary can run on
//! libtest's parallel threads.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tmm_macromodel::lut_select::compress_tables;
use tmm_sta::liberty::Library;

struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread (a no-op while the
/// thread's locals are being torn down).
fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates directly to `System`; only bumps a thread-local counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn alloc_count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Compressing a library arc's 7 × 7 tables to 4 × 4 allocates 20 times:
/// the two axis profiles, per axis the selection's flat DP table and
/// parent table and its pick list (6), the two selected axes, the eight
/// value bodies and the two corners' `Arc<ArcTables>`.
#[test]
fn compress_tables_allocates_only_what_it_returns() {
    let lib = Library::synthetic(7);
    for t in lib.templates() {
        for arc in &t.arcs {
            let (allocs, small) = alloc_count(|| compress_tables(&arc.tables, 4, 4));
            assert_eq!(allocs, 20, "{}", t.name);
            assert_eq!(small.late.delay.rise.len(), 16);
            assert!(Arc::ptr_eq(
                small.early.slew.fall.shared_load_axis(),
                small.late.delay.rise.shared_load_axis()
            ));
        }
    }
}
