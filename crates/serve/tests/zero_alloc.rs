//! A warm `submit_lines` batch of point queries allocates a fixed number
//! of times, however many queries it carries.
//!
//! A text batch is parsed by one borrowed parser (a well-formed line
//! allocates nothing), handed to its shard as one job carrying the body
//! and its line ranges, and answered into one reply buffer sized up
//! front; the shard queues keep their capacity between batches. So the
//! per-batch allocations — the body copy, the routing and line tables,
//! the reply channel and buffer — do not grow with the batch. This
//! harness installs a counting global allocator and asserts that a warm
//! 64-query and a warm 256-query batch allocate equally often.
//!
//! The count is process-wide because the batch runs on the engine's
//! worker thread; this binary holds one test, so nothing else allocates
//! while it measures. The `tmm-obs` metrics registry is left disabled.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tmm_circuits::CircuitSpec;
use tmm_serve::{DesignEntry, DesignPool, EngineOptions, QueryKind, ServeEngine};
use tmm_sta::constraints::Context;
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::propagate::AnalysisOptions;
use tmm_sta::view::TimingGraph;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; only bumps an atomic counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations anywhere in the process while `f` runs.
fn alloc_count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    (ALLOCS.load(Ordering::SeqCst) - before, r)
}

/// `n` point queries of mixed kinds on session 1.
fn query_batch(pins: &[String], n: usize, salt: usize) -> String {
    (0..n)
        .map(|i| {
            let kind = QueryKind::ALL[(i + salt) % 4].name();
            let pin = &pins[(i * 7919 + salt * 104_729) % pins.len()];
            format!("{kind} 1 {pin}\n")
        })
        .collect()
}

#[test]
fn warm_query_batches_allocate_the_same_whatever_their_size() {
    let lib = Library::synthetic(7);
    let netlist = CircuitSpec::sized("alloc", 600).seed(3).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let pins: Vec<String> =
        graph.topo_order().iter().map(|&n| graph.node_name(n).to_string()).collect();
    for cppr in [false, true] {
        let options = AnalysisOptions { cppr, ..AnalysisOptions::default() };
        let entry = DesignEntry::new(&graph, Context::nominal(&graph), options, None);
        let mut pool = DesignPool::new();
        pool.insert(entry);
        // One worker, as a single-client what-if server runs.
        let engine = ServeEngine::new(Arc::new(pool), EngineOptions { workers: 1 });
        assert_eq!(engine.submit_lines("open alloc\n"), "ok 1\n");
        let small = query_batch(&pins, 64, 1);
        let large = query_batch(&pins, 256, 2);
        // Warm-up: the session's first query builds its timing state.
        for body in [&large, &small, &large] {
            assert!(engine.submit_lines(body).lines().all(|l| l.starts_with("ok 0x")));
        }
        let (small_allocs, reply) = alloc_count(|| engine.submit_lines(&small));
        assert_eq!(reply.lines().count(), 64);
        let (large_allocs, reply) = alloc_count(|| engine.submit_lines(&large));
        assert_eq!(reply.lines().count(), 256);
        assert!(small_allocs > 0);
        assert_eq!(small_allocs, large_allocs, "cppr {cppr}: 64 vs 256 queries");
        drop(reply);
    }
}
