//! Property-based equivalence suite for the GNN kernel layer.
//!
//! Every blocked/parallel kernel must be **bit-identical** to its retained
//! naive reference implementation across shapes, thread counts, and CSR
//! graphs (including empty-neighborhood nodes) — determinism is a hard
//! contract here, not a tolerance. The suite closes with end-to-end
//! training bit-identity: weights, loss histories, and predictions must
//! not change with `threads`, and must match golden constants.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use tmm_gnn::graph::{NeighborMode, NodeGraph};
use tmm_gnn::kernels::{self, naive, KernelPolicy};
use tmm_gnn::matrix::Matrix;
use tmm_gnn::model::{GnnModel, ModelConfig, TrainConfig, TrainSample};
use tmm_gnn::Engine;

/// Deterministic pseudo-random data without touching the global RNG state.
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random graph over `nodes` nodes with roughly `edge_factor` edges per
/// node; nodes can easily end up isolated (empty neighborhoods).
fn random_graph(nodes: usize, edge_factor: usize, seed: u64, mode: NeighborMode) -> NodeGraph {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let n_edges = nodes * edge_factor / 2;
    let edges: Vec<(u32, u32)> = (0..n_edges)
        .map(|_| ((next() % nodes as u64) as u32, (next() % nodes as u64) as u32))
        .filter(|(a, b)| a != b)
        .collect();
    NodeGraph::from_edges(nodes, &edges, mode)
}

const THREADS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Blocked GEMM == naive GEMM, bit for bit, at every thread count.
    #[test]
    fn gemm_matches_naive(m in 1usize..40, k in 0usize..70, n in 1usize..40, seed in 0u64..1000) {
        let a = pseudo(m * k, seed);
        let b = pseudo(k * n, seed + 1);
        let mut want = vec![0.0f32; m * n];
        naive::gemm(&a, &b, &mut want, m, k, n);
        for t in THREADS {
            let mut got = vec![0.0f32; m * n];
            kernels::gemm(&a, &b, &mut got, m, k, n, KernelPolicy::with_threads(t));
            prop_assert_eq!(bits(&got), bits(&want), "threads={}", t);
        }
    }

    /// GEMM-T (the chunked-reduction kernel) is thread-invariant and
    /// matches the naive streaming reference, including the a-stride
    /// (partial-column) form.
    #[test]
    fn gemm_tn_matches_naive(
        k_rows in 1usize..600, m in 1usize..40, n in 1usize..40,
        extra in 0usize..3, seed in 0u64..1000
    ) {
        let a_stride = m + extra;
        let a = pseudo(k_rows * a_stride, seed);
        let b = pseudo(k_rows * n, seed + 2);
        let mut want = vec![0.0f32; m * n];
        let mut scratch = Vec::new();
        naive::gemm_tn(&a, &b, &mut want, k_rows, m, n, a_stride, &mut scratch);
        for t in THREADS {
            let mut got = vec![0.0f32; m * n];
            let mut sc = Vec::new();
            kernels::gemm_tn(&a, &b, &mut got, k_rows, m, n, a_stride, &mut sc,
                             KernelPolicy::with_threads(t));
            prop_assert_eq!(bits(&got), bits(&want), "threads={}", t);
        }
    }

    /// GEMM with transposed right operand matches its naive reference.
    #[test]
    fn gemm_nt_matches_naive(m in 1usize..40, k in 0usize..40, n in 1usize..70, seed in 0u64..1000) {
        let a = pseudo(m * k, seed);
        let b = pseudo(n * k, seed + 3);
        let mut want = vec![0.0f32; m * n];
        naive::gemm_nt(&a, &b, &mut want, m, k, n);
        for t in THREADS {
            let mut got = vec![0.0f32; m * n];
            kernels::gemm_nt(&a, &b, &mut got, m, k, n, &mut Vec::new(), KernelPolicy::with_threads(t));
            prop_assert_eq!(bits(&got), bits(&want), "threads={}", t);
        }
    }

    /// All CSR kernels match their naive references on random graphs that
    /// include isolated nodes, at every thread count.
    #[test]
    fn csr_kernels_match_naive(
        nodes in 1usize..80, edge_factor in 0usize..5,
        cols in 1usize..6, seed in 0u64..1000
    ) {
        let g = random_graph(nodes, edge_factor, seed, NeighborMode::Undirected);
        let h = pseudo(nodes * cols, seed + 4);
        let grad = pseudo(nodes * cols, seed + 5);
        let dx = pseudo(nodes * 2 * cols, seed + 6);
        let p = pseudo(nodes * cols, seed + 7);

        let mut want = vec![0.0f32; nodes * cols];
        naive::mean_aggregate(&g, &h, cols, &mut want);
        let mut want_adj = vec![0.0f32; nodes * cols];
        naive::mean_aggregate_adjoint(&g, &grad, cols, &mut want_adj);
        let mut want_gcn = vec![0.0f32; nodes * cols];
        naive::gcn_propagate(&g, &h, cols, &mut want_gcn);
        let mut want_gather = vec![0.0f32; nodes * 2 * cols];
        naive::sage_gather(&g, &h, cols, &mut want_gather);
        let mut want_sadj = vec![0.0f32; nodes * cols];
        naive::sage_adjoint(&g, &dx, cols, &mut want_sadj);
        let mut want_pool = vec![0.0f32; nodes * 2 * cols];
        let mut want_arg = vec![0u32; nodes * cols];
        naive::pool_max(&g, &p, cols, &h, cols, &mut want_pool, &mut want_arg);

        for t in THREADS {
            let pol = KernelPolicy::with_threads(t);
            let mut got = vec![0.0f32; nodes * cols];
            kernels::mean_aggregate_into(&g, &h, cols, &mut got, pol);
            prop_assert_eq!(bits(&got), bits(&want), "mean_aggregate threads={}", t);
            let mut got = vec![0.0f32; nodes * cols];
            kernels::mean_aggregate_adjoint_into(&g, &grad, cols, &mut got, pol);
            prop_assert_eq!(bits(&got), bits(&want_adj), "adjoint threads={}", t);
            let mut got = vec![0.0f32; nodes * cols];
            kernels::gcn_propagate_into(&g, &h, cols, &mut got, pol);
            prop_assert_eq!(bits(&got), bits(&want_gcn), "gcn threads={}", t);
            let mut got = vec![0.0f32; nodes * 2 * cols];
            kernels::sage_gather(&g, &h, cols, &mut got, pol);
            prop_assert_eq!(bits(&got), bits(&want_gather), "gather threads={}", t);
            let mut got = vec![0.0f32; nodes * cols];
            kernels::sage_adjoint(&g, &dx, cols, &mut got, pol);
            prop_assert_eq!(bits(&got), bits(&want_sadj), "sage_adjoint threads={}", t);
            let mut got = vec![0.0f32; nodes * 2 * cols];
            let mut arg = vec![0u32; nodes * cols];
            kernels::pool_max(&g, &p, cols, &h, cols, &mut got, &mut arg, pol);
            prop_assert_eq!(bits(&got), bits(&want_pool), "pool threads={}", t);
            prop_assert_eq!(arg, want_arg.clone(), "argmax threads={}", t);
        }
    }

    /// The directed neighbor mode also builds a consistent transpose CSR
    /// (the adjoint still matches the sequential scatter).
    #[test]
    fn directed_adjoint_matches_naive(nodes in 2usize..40, seed in 0u64..500) {
        let g = random_graph(nodes, 3, seed, NeighborMode::In);
        let grad = pseudo(nodes * 3, seed + 9);
        let mut want = vec![0.0f32; nodes * 3];
        naive::mean_aggregate_adjoint(&g, &grad, 3, &mut want);
        for t in THREADS {
            let mut got = vec![0.0f32; nodes * 3];
            kernels::mean_aggregate_adjoint_into(&g, &grad, 3, &mut got,
                                                 KernelPolicy::with_threads(t));
            prop_assert_eq!(bits(&got), bits(&want), "threads={}", t);
        }
    }
}

/// Thread counts of the fixed-shape GEMM cases.
const FIXED_THREADS: [usize; 2] = [1, 3];

/// `gemm` (`m×k · k×n`) equals `naive::gemm` bit for bit at 1 and 3
/// threads; the output starts as garbage so an unwritten element shows.
fn check_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut want = vec![0.0f32; m * n];
    naive::gemm(a, b, &mut want, m, k, n);
    for t in FIXED_THREADS {
        let mut got = vec![7.0f32; m * n];
        kernels::gemm(a, b, &mut got, m, k, n, KernelPolicy::with_threads(t));
        assert_eq!(bits(&got), bits(&want), "gemm {m}x{k}x{n} threads={t}");
    }
}

/// `gemm_nt` (`m×k · (n×k)ᵀ`) equals `naive::gemm_nt` bit for bit.
fn check_gemm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut want = vec![0.0f32; m * n];
    naive::gemm_nt(a, b, &mut want, m, k, n);
    for t in FIXED_THREADS {
        let mut got = vec![7.0f32; m * n];
        kernels::gemm_nt(a, b, &mut got, m, k, n, &mut Vec::new(), KernelPolicy::with_threads(t));
        assert_eq!(bits(&got), bits(&want), "gemm_nt {m}x{k}x{n} threads={t}");
    }
}

/// `gemm_tn` (`(k_rows×m)ᵀ · k_rows×n`) equals `naive::gemm_tn` bit for bit.
fn check_gemm_tn(a: &[f32], b: &[f32], k_rows: usize, m: usize, n: usize) {
    let mut want = vec![0.0f32; m * n];
    naive::gemm_tn(a, b, &mut want, k_rows, m, n, m, &mut Vec::new());
    for t in FIXED_THREADS {
        let mut got = vec![7.0f32; m * n];
        kernels::gemm_tn(a, b, &mut got, k_rows, m, n, m, &mut Vec::new(), KernelPolicy::with_threads(t));
        assert_eq!(bits(&got), bits(&want), "gemm_tn {k_rows}x{m}x{n} threads={t}");
    }
}

/// The model's own GEMMs, with `(k, n)` the weight shape: the first SAGE
/// combine (16×32 at 8 input features), the second (64×32) and the head
/// (32×1). Per shape the forward product, the input-gradient product
/// `dz·Wᵀ` (for the head that is the `k = 1` `gemm_nt`) and the
/// weight-gradient reduction `Xᵀ·dz`, at row counts below, at and past a
/// 4-row tile.
#[test]
fn gemm_family_matches_naive_at_model_shapes() {
    for (k, n) in [(16, 32), (64, 32), (32, 1)] {
        for rows in [1, 3, 4, 37, 1000] {
            let x = pseudo(rows * k, (rows * k) as u64);
            let w = pseudo(k * n, (k * n) as u64 + 1);
            let dz = pseudo(rows * n, (rows * n) as u64 + 2);
            check_gemm(&x, &w, rows, k, n);
            check_gemm_nt(&dz, &w, rows, n, k);
            check_gemm_tn(&x, &dz, rows, k, n);
        }
    }
}

/// `gemm_tn` across [`kernels::REDUCE_CHUNK`]: one row short of a chunk,
/// exactly one, one past, and two chunks plus one row.
#[test]
fn gemm_tn_matches_naive_across_reduce_chunks() {
    assert_eq!(kernels::REDUCE_CHUNK, 2048, "the row counts below straddle this");
    for k_rows in [2047, 2048, 2049, 4097] {
        for (m, n) in [(64, 32), (32, 1), (5, 9)] {
            let a = pseudo(k_rows * m, k_rows as u64);
            let b = pseudo(k_rows * n, k_rows as u64 + 1);
            check_gemm_tn(&a, &b, k_rows, m, n);
        }
    }
}

/// Every product is `-0.0`, so every sum must be `+0.0`: an accumulator
/// seeded with the first product instead of `+0.0` would keep `-0.0`.
#[test]
fn signed_zero_products_sum_to_positive_zero() {
    for (m, k, n) in [(9, 5, 17), (8, 64, 32), (37, 32, 1), (6, 1, 32)] {
        let neg_zeros = vec![-0.0f32; m * k];
        let positive: Vec<f32> = pseudo(k * n, 3).iter().map(|v| v.abs() + 0.5).collect();
        let mut want = vec![1.0f32; m * n];
        naive::gemm(&neg_zeros, &positive, &mut want, m, k, n);
        assert!(want.iter().all(|v| v.to_bits() == 0), "naive sums start from +0.0");
        check_gemm(&neg_zeros, &positive, m, k, n);
        check_gemm_nt(&neg_zeros, &positive, m, k, n);
        // Here `m` is the summed dimension.
        let tall: Vec<f32> = pseudo(m * n, 4).iter().map(|v| v.abs() + 0.5).collect();
        check_gemm_tn(&vec![-0.0f32; m * k], &tall, m, k, n);
    }
}

/// Ring-graph toy task shared by the end-to-end bit-identity tests.
fn toy_sample(n: usize, seed: u64) -> TrainSample {
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let graph = NodeGraph::from_edges(n, &edges, NeighborMode::Undirected);
    let feat = pseudo(n, seed);
    let features = Matrix::from_fn(n, 2, |r, c| if c == 0 { feat[r] } else { 1.0 });
    let labels: Vec<f32> = (0..n)
        .map(|i| {
            let prev = (i + n - 1) % n;
            let next = (i + 1) % n;
            if feat[i] > 0.5 || feat[prev] > 0.5 || feat[next] > 0.5 { 1.0 } else { 0.0 }
        })
        .collect();
    TrainSample { graph, features, labels, mask: None }
}

/// Trains one model and returns everything an acceptance check cares
/// about: serialised weights, loss history, and raw predictions.
fn train_fingerprint(engine: Engine, threads: usize) -> (String, Vec<u32>, Vec<u32>) {
    let sample = toy_sample(96, 7);
    let mut model = GnnModel::new(
        2,
        ModelConfig { hidden: 8, layers: 2, engine, seed: 11, ..Default::default() },
    );
    let report = model.train(
        std::slice::from_ref(&sample),
        &TrainConfig { epochs: 25, threads, ..Default::default() },
    );
    let preds = model.predict_par(&sample.graph, &sample.features, threads);
    (model.to_text(), bits(&report.history), bits(&preds))
}

/// Acceptance criterion: training output (weights, TrainReport losses,
/// predictions) is bit-identical across `--threads 1/2/8`.
#[test]
fn training_is_bit_identical_across_thread_counts() {
    for engine in [Engine::GraphSage, Engine::GraphSagePool, Engine::Gcn] {
        let base = train_fingerprint(engine, 1);
        for t in [2usize, 8] {
            let other = train_fingerprint(engine, t);
            assert_eq!(base, other, "engine {engine:?} diverged at {t} threads");
        }
    }
}

/// FNV-1a over a byte stream: a stable hash (unlike `DefaultHasher`, whose
/// output may change between Rust releases).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv1a_bits(v: &[u32]) -> u64 {
    fnv1a(v.iter().flat_map(|x| x.to_le_bytes()))
}

/// Golden weights: training the toy task must reproduce, bit for bit, the
/// model text, loss history and predictions of the default training
/// schedule (all 25 epochs, no hold-out split). The thread-count test
/// above runs the same kernels on both sides, so only fixed constants can
/// notice a bit that moved. Columns: hash of `to_text()`, of the training
/// loss bits, of the prediction bits.
#[test]
fn training_matches_golden_weights() {
    let golden: [(Engine, [u64; 3]); 3] = [
        (
            Engine::GraphSage,
            [0xd284_0812_1c52_f6e8, 0x19da_5b7d_ba99_1ca1, 0xc172_6b4f_ed79_9e7d],
        ),
        (
            Engine::GraphSagePool,
            [0x6aba_d341_87ad_f4e7, 0x73ba_bf7e_2e50_2cbb, 0x75c6_d2c7_23cc_6652],
        ),
        (
            Engine::Gcn,
            [0x69a0_cf26_c9f3_eba6, 0xea05_54e7_f5c0_0a7f, 0x538d_a8c8_c36d_42a4],
        ),
    ];
    let got: Vec<(Engine, [u64; 3])> = golden
        .iter()
        .map(|&(engine, _)| {
            let (text, history, preds) = train_fingerprint(engine, 1);
            (engine, [fnv1a(text.bytes()), fnv1a_bits(&history), fnv1a_bits(&preds)])
        })
        .collect();
    assert_eq!(got, golden, "training moved off its golden bits");
}
