//! A cone re-time of a pre-built bypass view must perform **zero heap
//! allocations** once its scratch has served one probe.
//!
//! Timing-sensitivity labelling re-times thousands of one-pin bypass views
//! per design and context. [`ReferenceAnalysis::retime`] resets the
//! scratch's propagation state with `clone_from` (reusing its buffers),
//! sweeps the cone over the scratch's worklist bitmaps, and refreshes the
//! scratch's boundary snapshot in place, copying a port or check name only
//! when it differs. This harness installs a counting global allocator and
//! asserts that, after one warm-up probe, re-timing every pre-built view
//! allocates nothing — with CPPR off and on (the credit walk runs at every
//! check on every re-time).
//!
//! The counter is per thread, so the tests of this binary can run on
//! libtest's parallel threads; each probe runs on the calling thread.
//! The `tmm-obs` metrics registry is left disabled, which doubles as a
//! guard that the retime counters cost no allocation then.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tmm_sta::constraints::Context;
use tmm_sta::graph::{ArcGraph, NodeId};
use tmm_sta::liberty::Library;
use tmm_sta::netlist::NetlistBuilder;
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::retime::ReferenceAnalysis;
use tmm_sta::view::{DesignCore, GraphView};

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

/// Two clock buffers feed three flip-flops; data runs through a gate
/// cloud between them and to two outputs. Gives bypassable pins on the
/// clock tree (CPPR credits move) and on data paths.
fn clocked_design() -> ArcGraph {
    let lib = Library::synthetic(7);
    let mut b = NetlistBuilder::new("alloc", &lib);
    let clk = b.clock_input("clk").unwrap();
    let a = b.input("a").unwrap();
    let c = b.input("c").unwrap();
    let z0 = b.output("z0").unwrap();
    let z1 = b.output("z1").unwrap();
    let cb1 = b.cell("cb1", "CLKBUFX2").unwrap();
    let cb2 = b.cell("cb2", "CLKBUFX2").unwrap();
    let ffs: Vec<_> = (0..3).map(|i| b.cell(&format!("ff{i}"), "DFFX1").unwrap()).collect();
    let g1 = b.cell("g1", "NAND2X1").unwrap();
    let g2 = b.cell("g2", "INVX1").unwrap();
    let g3 = b.cell("g3", "BUFX2").unwrap();
    let g4 = b.cell("g4", "INVX1").unwrap();
    let pin = |b: &NetlistBuilder, c, p| b.pin_of(c, p).unwrap();
    b.connect("n_clk", clk, &[pin(&b, cb1, "A")]).unwrap();
    b.connect("n_cb1", pin(&b, cb1, "Z"), &[pin(&b, ffs[0], "CK"), pin(&b, cb2, "A")]).unwrap();
    b.connect("n_cb2", pin(&b, cb2, "Z"), &[pin(&b, ffs[1], "CK"), pin(&b, ffs[2], "CK")])
        .unwrap();
    b.connect("n_a", a, &[pin(&b, g1, "A")]).unwrap();
    b.connect("n_c", c, &[pin(&b, g1, "B")]).unwrap();
    b.connect("n_g1", pin(&b, g1, "Z"), &[pin(&b, ffs[0], "D")]).unwrap();
    b.connect("n_q0", pin(&b, ffs[0], "Q"), &[pin(&b, g2, "A")]).unwrap();
    b.connect("n_g2", pin(&b, g2, "Z"), &[pin(&b, ffs[1], "D"), pin(&b, g3, "A")]).unwrap();
    b.connect("n_g3", pin(&b, g3, "Z"), &[z0, pin(&b, ffs[2], "D")]).unwrap();
    b.connect("n_q1", pin(&b, ffs[1], "Q"), &[pin(&b, g4, "A")]).unwrap();
    b.connect("n_g4", pin(&b, g4, "Z"), &[z1]).unwrap();
    ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap()
}

fn assert_retime_allocates_nothing(options: AnalysisOptions) {
    let g = clocked_design();
    let core: Arc<DesignCore> = DesignCore::freeze(&g);
    let ctx = Context::nominal(&g);
    let reference = ReferenceAnalysis::new(core.clone(), ctx.clone(), options).unwrap();
    let views: Vec<(String, GraphView)> = (0..g.node_count())
        .filter_map(|i| {
            let mut view = GraphView::new(core.clone());
            view.bypass_node(NodeId(i as u32)).ok()?;
            Some((g.node(NodeId(i as u32)).name.clone(), view))
        })
        .collect();
    assert!(views.len() >= 8, "only {} bypassable pins", views.len());
    assert!(views.iter().any(|(name, _)| name.starts_with("cb")), "a clock-tree probe");

    let mut scratch = reference.scratch();
    reference.retime(&views[0].1, &mut scratch).unwrap();
    for round in 0..2 {
        for (name, view) in &views {
            let (allocs, _) = alloc_count(|| {
                reference.retime(view, &mut scratch).unwrap();
            });
            assert_eq!(allocs, 0, "{options:?}: re-time of {name} (round {round}) allocated");
        }
    }
    // The borrowed boundary is still the exact one.
    for (name, view) in &views {
        let cone = reference.retime(view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(view, &ctx, options).unwrap();
        let d = full.boundary().diff(cone);
        assert_eq!(d.max, 0.0, "{options:?}: {name} diverged");
    }
}

#[test]
fn cone_retime_allocates_nothing_after_warm_up() {
    assert_retime_allocates_nothing(AnalysisOptions::default());
}

#[test]
fn cone_retime_with_cppr_allocates_nothing_after_warm_up() {
    assert_retime_allocates_nothing(AnalysisOptions { cppr: true, ..Default::default() });
}
