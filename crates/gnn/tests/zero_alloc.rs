//! Steady-state training epochs must perform **zero heap allocations**.
//!
//! The workspace architecture promises that after the first epoch sizes
//! every buffer, subsequent epochs reuse them all: forward caches, gradient
//! matrices, loss-gradient buffer, Adam moments, and the best-epoch
//! snapshot. This harness installs a counting global allocator and asserts
//! that a run with 40 epochs allocates exactly as many times as a run with
//! 8 epochs — i.e. the 32 extra epochs allocate nothing.
//!
//! The counter is per thread: libtest runs the tests of this binary on
//! parallel threads, so a process-global count would pick up the other
//! test's allocations. Runs with `threads = 1` because the counter only
//! sees the calling thread, and spawning scoped worker threads necessarily
//! allocates (stacks, join handles) anyway; the thread-count *determinism*
//! contract is covered by `gnn_kernels.rs`.
//!
//! The `tmm-obs` metrics registry is compiled into the training loop
//! (per-epoch loss/grad-norm/rows-per-sec gauges) but left *disabled*
//! here, which this test doubles as a guard for: the disabled entry
//! points must cost one relaxed atomic load and **no allocation**, or
//! the 32 extra epochs would show up in the counter.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

use tmm_gnn::graph::{NeighborMode, NodeGraph};
use tmm_gnn::matrix::Matrix;
use tmm_gnn::model::{GnnModel, ModelConfig, TrainConfig, TrainSample};
use tmm_gnn::Engine;

fn toy_sample(n: usize) -> TrainSample {
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let graph = NodeGraph::from_edges(n, &edges, NeighborMode::Undirected);
    let features = Matrix::from_fn(n, 2, |r, c| {
        if c == 0 {
            ((r * 37 % 100) as f32) / 100.0
        } else {
            1.0
        }
    });
    let labels: Vec<f32> =
        (0..n).map(|i| if (i * 37 % 100) as f32 / 100.0 > 0.5 { 1.0 } else { 0.0 }).collect();
    TrainSample { graph, features, labels, mask: None }
}

fn allocs_for(engine: Engine, epochs: usize, sample: &TrainSample) -> u64 {
    let mut model = GnnModel::new(
        2,
        ModelConfig { hidden: 8, layers: 2, engine, seed: 3, ..Default::default() },
    );
    let cfg = TrainConfig { epochs, threads: 1, ..Default::default() };
    let (count, report) = alloc_count(|| model.train(std::slice::from_ref(sample), &cfg));
    assert!(report.final_loss.is_finite());
    assert_eq!(report.retries, 0, "a healthy run must not retry");
    count
}

/// 8-epoch and 40-epoch runs allocate identically: every allocation
/// belongs to one-time setup (workspace sizing, initial snapshot, Adam
/// moments, history capacity), none to the steady-state epochs.
#[test]
fn steady_state_epochs_allocate_nothing() {
    let sample = toy_sample(120);
    for engine in [Engine::GraphSage, Engine::GraphSagePool, Engine::Gcn] {
        let short = allocs_for(engine, 8, &sample);
        let long = allocs_for(engine, 40, &sample);
        assert_eq!(
            short, long,
            "engine {engine:?}: 32 extra epochs allocated {} extra times",
            long.saturating_sub(short)
        );
        assert!(short > 0, "sanity: setup must allocate at least once");
    }
}

/// Repeated prediction into a fresh workspace allocates, but the kernel
/// delegation itself must not regress into per-op temporaries: two
/// predictions allocate exactly twice the single-prediction count.
#[test]
fn predict_allocation_is_linear_in_calls() {
    let sample = toy_sample(64);
    let mut model = GnnModel::new(
        2,
        ModelConfig { hidden: 8, layers: 2, seed: 5, ..Default::default() },
    );
    model.train(
        std::slice::from_ref(&sample),
        &TrainConfig { epochs: 5, threads: 1, ..Default::default() },
    );
    let (one, _) = alloc_count(|| model.predict(&sample.graph, &sample.features));
    let (two, _) = alloc_count(|| {
        let _ = model.predict(&sample.graph, &sample.features);
        model.predict(&sample.graph, &sample.features)
    });
    assert_eq!(two, 2 * one, "prediction allocations must be call-linear");
}
