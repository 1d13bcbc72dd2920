//! Property-based tests of the GNN framework's numerical invariants.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use tmm_gnn::graph::{NeighborMode, NodeGraph};
use tmm_gnn::kernels::{gemm, gemm_nt, gemm_tn};
use tmm_gnn::loss::{auto_pos_weight, bce_with_logits_into, mse_into};
use tmm_gnn::matrix::{sigmoid, Matrix};
use tmm_gnn::model::{GnnModel, ModelConfig, TrainConfig, TrainSample};
use tmm_gnn::{Engine, KernelPolicy};

fn small_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0f32..2.0))
}

/// The `cols×rows` transpose of `m`, materialised.
fn transposed(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.cols(), m.rows(), |r, c| m.at(c, r))
}

/// `a·b` through the blocked GEMM.
fn product(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    gemm(a.data(), b.data(), out.data_mut(), m, k, n, KernelPolicy::default());
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `gemm_tn` and `gemm_nt` agree with `gemm` on an explicitly
    /// transposed operand: Aᵀ·B and A·Cᵀ.
    #[test]
    fn transpose_products_agree(m in 1usize..5, n in 1usize..5, k in 1usize..5, seed in 0u64..500) {
        let pol = KernelPolicy::default();
        let a = small_matrix(m, n, seed);
        let b = small_matrix(m, k, seed + 3);
        let c = small_matrix(k, n, seed + 5);
        let mut atb = Matrix::zeros(n, k);
        gemm_tn(a.data(), b.data(), atb.data_mut(), m, n, k, n, &mut Vec::new(), pol);
        for (x, y) in atb.data().iter().zip(product(&transposed(&a), &b).data()) {
            prop_assert!((x - y).abs() < 1e-4, "Aᵀ·B: {x} vs {y}");
        }
        let mut act = Matrix::zeros(m, k);
        gemm_nt(a.data(), c.data(), act.data_mut(), m, n, k, &mut Vec::new(), pol);
        for (x, y) in act.data().iter().zip(product(&a, &transposed(&c)).data()) {
            prop_assert!((x - y).abs() < 1e-4, "A·Cᵀ: {x} vs {y}");
        }
    }

    /// sigmoid maps into [0,1] (strictly inside before f32 saturation) and
    /// is monotone.
    #[test]
    fn sigmoid_properties(x in -50.0f32..50.0, dx in 0.001f32..10.0) {
        let y = sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&y));
        if x.abs() < 15.0 {
            prop_assert!(y > 0.0 && y < 1.0, "unsaturated region must be strict");
        }
        prop_assert!(sigmoid(x + dx) >= y);
    }

    /// BCE loss is non-negative, zero gradient at perfect confident
    /// prediction, and its gradient sign pushes towards the label.
    #[test]
    fn bce_gradient_signs(z in -5.0f32..5.0, y in proptest::bool::ANY, w in 1.0f32..10.0) {
        let label = if y { 1.0f32 } else { 0.0 };
        let mut grad = [f32::NAN];
        let loss = bce_with_logits_into(&[z], &[label], None, w, &mut grad);
        prop_assert!(loss >= 0.0);
        if label > 0.5 {
            prop_assert!(grad[0] <= 0.0, "positive label pulls logit up");
        } else {
            prop_assert!(grad[0] >= 0.0, "negative label pushes logit down");
        }
    }

    /// MSE is zero iff predictions equal labels.
    #[test]
    fn mse_zero_iff_equal(v in -10.0f32..10.0, delta in 0.01f32..5.0) {
        let zero = mse_into(&[v, v], &[v, v], None, &mut [0.0; 2]);
        prop_assert_eq!(zero, 0.0);
        let nonzero = mse_into(&[v + delta], &[v], None, &mut [0.0]);
        prop_assert!(nonzero > 0.0);
    }

    /// auto_pos_weight is always in [1, 20].
    #[test]
    fn auto_pos_weight_bounds(pos in 0usize..50, neg in 0usize..50) {
        let labels: Vec<f32> = std::iter::repeat(1.0f32).take(pos)
            .chain(std::iter::repeat(0.0f32).take(neg))
            .collect();
        let w = auto_pos_weight(&labels, None);
        prop_assert!((1.0..=20.0).contains(&w));
    }

    /// Training any engine on random data never produces NaN losses or
    /// predictions outside the valid range.
    #[test]
    fn training_is_numerically_stable(
        nodes in 4usize..30,
        seed in 0u64..200,
        engine_pick in 0u8..3,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..nodes as u32 - 1).map(|i| (i, i + 1)).collect();
        let graph = NodeGraph::from_edges(nodes, &edges, NeighborMode::Undirected);
        let features = Matrix::from_fn(nodes, 3, |_, _| rng.gen_range(-1.0f32..1.0));
        let labels: Vec<f32> = (0..nodes).map(|_| f32::from(u8::from(rng.gen_bool(0.3)))).collect();
        let engine = match engine_pick {
            0 => Engine::GraphSage,
            1 => Engine::GraphSagePool,
            _ => Engine::Gcn,
        };
        let mut model = GnnModel::new(3, ModelConfig { hidden: 8, layers: 2, engine, ..Default::default() });
        let sample = TrainSample { graph, features, labels, mask: None };
        let report = model.train(
            std::slice::from_ref(&sample),
            &TrainConfig { epochs: 15, lr: 0.05, ..Default::default() },
        );
        for l in &report.history {
            prop_assert!(l.is_finite(), "loss went NaN");
        }
        for p in model.predict(&sample.graph, &sample.features) {
            prop_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
    }
}
