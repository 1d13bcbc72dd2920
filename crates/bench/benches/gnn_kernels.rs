//! Criterion bench: the GNN kernel layer in isolation — blocked/parallel
//! kernels vs the retained naive references, at the exact shapes the
//! 2-layer hidden-32 model produces on a leon3mp-scale pin graph.
//!
//! GEMM shapes come from the real forward pass over `n` pins with
//! `BASE_FEATURES = 8` input features and hidden width 32: the first SAGE
//! combine is `(n x 16)·(16 x 32)`, the second `(n x 64)·(64 x 32)`, and
//! the head `(n x 32)·(32 x 1)`; the backward pass adds `Xᵀ·dZ` and
//! `dZ·Wᵀ` at the layer-2 and head shapes. The CSR aggregates run over the
//! actual pin graph of a generated ~8k-pin design.

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use tmm_circuits::CircuitSpec;
use tmm_gnn::kernels::{self, naive, KernelPolicy};
use tmm_gnn::{NeighborMode, NodeGraph};
use tmm_sensitivity::pin_graph_edges;
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;

/// Deterministic bench data; no global RNG involved.
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2_000) as f32 / 500.0 - 2.0
        })
        .collect()
}

/// The leon3mp-scale pin graph the aggregates run over in practice.
fn pin_graph(target: usize, lib: &Library) -> NodeGraph {
    let netlist = CircuitSpec::sized("g", target).seed(3).generate(lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, lib).unwrap();
    NodeGraph::from_edges(
        graph.node_count(),
        &pin_graph_edges(&graph),
        NeighborMode::Undirected,
    )
}

fn bench_gemm(c: &mut Criterion) {
    // Rows = pin count of the 8k-target design; (k, n) pairs are the three
    // matmuls of one forward pass through the default model.
    let m = 8192;
    let shapes: [(usize, usize, &str); 3] =
        [(16, 32, "layer1_16x32"), (64, 32, "layer2_64x32"), (32, 1, "head_32x1")];

    let mut group = c.benchmark_group("gnn_kernels/gemm");
    group.sample_size(10);
    for (k, n, name) in shapes {
        let a = pseudo(m * k, 1);
        let b = pseudo(k * n, 2);
        let mut out = vec![0.0f32; m * n];
        group.bench_function(format!("naive/{name}"), |bch| {
            bch.iter(|| naive::gemm(&a, &b, &mut out, m, k, n))
        });
        for threads in [1usize, 4] {
            let pol = KernelPolicy::with_threads(threads);
            group.bench_function(format!("blocked_t{threads}/{name}"), |bch| {
                bch.iter(|| kernels::gemm(&a, &b, &mut out, m, k, n, pol))
            });
        }
    }
    // The backward pass's two other GEMMs at the layer-2 and head shapes:
    // the weight-gradient reduction `dW = Xᵀ·dZ` (fixed-chunk ordered
    // reduction) and the input gradient `dX = dZ·Wᵀ` (the largest kernel
    // of an epoch at the layer-2 shape; `k = 1` at the head).
    let tn_shapes: [(usize, usize, &str); 2] = [(64, 32, "gemm_tn_64x32"), (32, 1, "gemm_tn_head_32x1")];
    for (mm, nn, name) in tn_shapes {
        let a = pseudo(m * mm, 3);
        let b = pseudo(m * nn, 4);
        let mut out = vec![0.0f32; mm * nn];
        let mut scratch = Vec::new();
        group.bench_function(format!("naive/{name}"), |bch| {
            bch.iter(|| naive::gemm_tn(&a, &b, &mut out, m, mm, nn, mm, &mut scratch))
        });
        for threads in [1usize, 4] {
            let pol = KernelPolicy::with_threads(threads);
            group.bench_function(format!("blocked_t{threads}/{name}"), |bch| {
                bch.iter(|| kernels::gemm_tn(&a, &b, &mut out, m, mm, nn, mm, &mut scratch, pol))
            });
        }
    }
    // (k, n) of `dZ (m×k) · Wᵀ` with `W` stored `n×k`.
    let nt_shapes: [(usize, usize, &str); 2] = [(32, 64, "gemm_nt_32x64"), (1, 32, "gemm_nt_head_1x32")];
    for (k, n, name) in nt_shapes {
        let a = pseudo(m * k, 5);
        let b = pseudo(n * k, 6);
        let mut out = vec![0.0f32; m * n];
        let mut scratch = Vec::new();
        group.bench_function(format!("naive/{name}"), |bch| {
            bch.iter(|| naive::gemm_nt(&a, &b, &mut out, m, k, n))
        });
        for threads in [1usize, 4] {
            let pol = KernelPolicy::with_threads(threads);
            group.bench_function(format!("blocked_t{threads}/{name}"), |bch| {
                bch.iter(|| kernels::gemm_nt(&a, &b, &mut out, m, k, n, &mut scratch, pol))
            });
        }
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let lib = Library::synthetic(1);
    let g = pin_graph(8000, &lib);
    let n = g.nodes();
    let cols = 32;
    let h = pseudo(n * cols, 5);
    let mut out = vec![0.0f32; n * cols];
    let mut gathered = vec![0.0f32; n * 2 * cols];

    let mut group = c.benchmark_group("gnn_kernels/aggregate");
    group.sample_size(10);
    group.bench_function("naive/mean_aggregate", |bch| {
        bch.iter(|| naive::mean_aggregate(&g, &h, cols, &mut out))
    });
    for threads in [1usize, 4] {
        let pol = KernelPolicy::with_threads(threads);
        group.bench_function(format!("blocked_t{threads}/mean_aggregate"), |bch| {
            bch.iter(|| kernels::mean_aggregate_into(&g, &h, cols, &mut out, pol))
        });
        group.bench_function(format!("blocked_t{threads}/mean_adjoint"), |bch| {
            bch.iter(|| kernels::mean_aggregate_adjoint_into(&g, &h, cols, &mut out, pol))
        });
        group.bench_function(format!("blocked_t{threads}/sage_gather"), |bch| {
            bch.iter(|| kernels::sage_gather(&g, &h, cols, &mut gathered, pol))
        });
        group.bench_function(format!("blocked_t{threads}/gcn_propagate"), |bch| {
            bch.iter(|| kernels::gcn_propagate_into(&g, &h, cols, &mut out, pol))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_aggregate);
criterion_main!(benches);
