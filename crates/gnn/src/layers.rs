//! GNN layers with manual forward/backward passes.
//!
//! [`SageLayer`] implements the GraphSAGE mean-aggregator update of the
//! paper's Eqs. (3)–(4): `h' = relu(W · [h ‖ mean(h_N)] + b)`. [`GcnLayer`]
//! implements the Kipf–Welling propagation `h' = relu(N·h·W + b)` with the
//! symmetric-normalised adjacency `N`; §5.1 notes either engine can back the
//! framework, and the ablation bench swaps them. [`Linear`] holds the
//! scoring head's parameters; [`crate::model::GnnModel`] runs it.
//!
//! Each layer has one pass pair, `forward_into` / `backward_into`, running
//! on caller-owned caches, gradients and [`LayerScratch`], so steady-state
//! training allocates nothing. Caches store the *post*-activation output:
//! under ReLU's 0-at-0 convention `out > 0 ⇔ z > 0`, so the pre-activation
//! is never materialised.

use crate::graph::NodeGraph;
use crate::kernels::{self, KernelPolicy};
use crate::matrix::Matrix;

/// Reusable scratch buffers shared by every layer's `backward_into`.
///
/// Owned by the model's workspace; all matrices are resized in place per
/// call and keep their peak capacity, so steady-state epochs allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    /// Gated output gradient `∂L/∂z`.
    pub(crate) dz: Matrix,
    /// Input-side gradient of the combine GEMM (`∂L/∂x`).
    pub(crate) dx: Matrix,
    /// Pool-aggregate / propagation gradient.
    pub(crate) dp: Matrix,
    /// Pool pre-activation gradient.
    pub(crate) dzp: Matrix,
    /// General temporary (e.g. `dzp·W_poolᵀ`).
    pub(crate) tmp: Matrix,
    /// Reduction-slab scratch for [`kernels::gemm_tn`].
    pub(crate) red: Vec<f32>,
    /// Transposed-weight scratch for [`kernels::gemm_nt`].
    pub(crate) bt: Vec<f32>,
}

impl LayerScratch {
    /// Empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        LayerScratch::default()
    }
}

/// GraphSAGE layer (mean aggregator + concatenation + linear + ReLU).
#[derive(Debug, Clone)]
pub struct SageLayer {
    /// Weight of shape `(2·in_dim, out_dim)`.
    pub w: Matrix,
    /// Bias of shape `(1, out_dim)`.
    pub b: Matrix,
}

/// Forward-pass intermediates needed by [`SageLayer::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct SageCache {
    /// Concatenated input `[h ‖ mean(h_N)]`.
    pub(crate) x: Matrix,
    /// Post-activation layer output.
    pub(crate) out: Matrix,
}

impl SageCache {
    /// Empty cache; buffers are shaped by `forward_into`.
    #[must_use]
    pub fn empty() -> Self {
        SageCache::default()
    }
}

impl SageLayer {
    /// Xavier-initialised layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        SageLayer {
            w: Matrix::xavier_seeded(2 * in_dim, out_dim, seed),
            b: Matrix::zeros(1, out_dim),
        }
    }

    /// Allocation-free forward pass into a reusable cache; the output lives
    /// in `cache.out`.
    pub fn forward_into(
        &self,
        graph: &NodeGraph,
        h: &Matrix,
        cache: &mut SageCache,
        pol: KernelPolicy,
    ) {
        let n = h.rows();
        let d = h.cols();
        let od = self.w.cols();
        cache.x.resize_to(n, 2 * d);
        kernels::sage_gather(graph, h.data(), d, cache.x.data_mut(), pol);
        cache.out.resize_to(n, od);
        kernels::gemm(cache.x.data(), self.w.data(), cache.out.data_mut(), n, 2 * d, od, pol);
        kernels::bias_relu(cache.out.data_mut(), self.b.data());
    }

    /// Allocation-free backward pass writing the parameter gradients into
    /// `dw` / `db` and, when `dh` is given, `∂L/∂h` into it (the first
    /// layer passes `None`: nothing reads the gradient of the features).
    pub fn backward_into(
        &self,
        graph: &NodeGraph,
        cache: &SageCache,
        d_out: &Matrix,
        dh: Option<&mut Matrix>,
        dw: &mut Matrix,
        db: &mut Matrix,
        scratch: &mut LayerScratch,
        pol: KernelPolicy,
    ) {
        let n = d_out.rows();
        let od = self.w.cols();
        let two_d = self.w.rows();
        let d = two_d / 2;
        scratch.dz.resize_to(n, od);
        kernels::relu_gate(cache.out.data(), d_out.data(), scratch.dz.data_mut());
        dw.resize_to(two_d, od);
        kernels::gemm_tn(
            cache.x.data(),
            scratch.dz.data(),
            dw.data_mut(),
            n,
            two_d,
            od,
            two_d,
            &mut scratch.red,
            pol,
        );
        db.resize_to(1, od);
        kernels::col_sums(scratch.dz.data(), od, db.data_mut());
        let Some(dh) = dh else { return };
        scratch.dx.resize_to(n, two_d);
        kernels::gemm_nt(
            scratch.dz.data(),
            self.w.data(),
            scratch.dx.data_mut(),
            n,
            od,
            two_d,
            &mut scratch.bt,
            pol,
        );
        dh.resize_to(n, d);
        kernels::sage_adjoint(graph, scratch.dx.data(), d, dh.data_mut(), pol);
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }
}

/// GraphSAGE **pool** aggregator layer (Hamilton et al. §3.3): every
/// neighbor's features pass through a learned transform + ReLU, the
/// neighborhood is reduced with an element-wise max, and the result is
/// concatenated as in the mean variant. Sharper than mean aggregation when
/// a single critical neighbor should dominate (e.g. one timing-variant
/// fan-in among many invariant ones).
#[derive(Debug, Clone)]
pub struct SagePoolLayer {
    /// Pool transform of shape `(in_dim, out_dim)`.
    pub w_pool: Matrix,
    /// Pool bias of shape `(1, out_dim)`.
    pub b_pool: Matrix,
    /// Combine weight of shape `(in_dim + out_dim, out_dim)`.
    pub w: Matrix,
    /// Combine bias of shape `(1, out_dim)`.
    pub b: Matrix,
}

/// Forward-pass intermediates needed by [`SagePoolLayer::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct SagePoolCache {
    /// Pooled post-activation neighbor features `relu(h·W_pool + b_pool)`.
    pub(crate) p: Matrix,
    /// Concatenated input `[h ‖ maxpool]`.
    pub(crate) x: Matrix,
    /// Post-activation layer output.
    pub(crate) out: Matrix,
    /// Winning neighbor per `(node, channel)`; `u32::MAX` for isolated
    /// nodes (their aggregate is zero and receives no gradient).
    pub(crate) argmax: Vec<u32>,
}

impl SagePoolCache {
    /// Empty cache; buffers are shaped by `forward_into`.
    #[must_use]
    pub fn empty() -> Self {
        SagePoolCache::default()
    }
}

impl SagePoolLayer {
    /// Xavier-initialised layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        SagePoolLayer {
            w_pool: Matrix::xavier_seeded(in_dim, out_dim, seed ^ 0x9e37),
            b_pool: Matrix::zeros(1, out_dim),
            w: Matrix::xavier_seeded(in_dim + out_dim, out_dim, seed),
            b: Matrix::zeros(1, out_dim),
        }
    }

    /// Allocation-free forward pass into a reusable cache; the output lives
    /// in `cache.out`.
    pub fn forward_into(
        &self,
        graph: &NodeGraph,
        h: &Matrix,
        cache: &mut SagePoolCache,
        pol: KernelPolicy,
    ) {
        let n = h.rows();
        let d = h.cols();
        let dp = self.w_pool.cols();
        let od = self.w.cols();
        cache.p.resize_to(n, dp);
        kernels::gemm(h.data(), self.w_pool.data(), cache.p.data_mut(), n, d, dp, pol);
        kernels::bias_relu(cache.p.data_mut(), self.b_pool.data());
        cache.x.resize_to(n, d + dp);
        cache.argmax.clear();
        cache.argmax.resize(n * dp, u32::MAX);
        kernels::pool_max(
            graph,
            cache.p.data(),
            dp,
            h.data(),
            d,
            cache.x.data_mut(),
            &mut cache.argmax,
            pol,
        );
        cache.out.resize_to(n, od);
        kernels::gemm(cache.x.data(), self.w.data(), cache.out.data_mut(), n, d + dp, od, pol);
        kernels::bias_relu(cache.out.data_mut(), self.b.data());
    }

    /// Allocation-free backward pass writing the parameter gradients into
    /// `dw_pool` / `db_pool` / `dw` / `db` and, when `dh` is given, `∂L/∂h`
    /// into it. Without `dh` only the aggregate half of `∂L/∂x` is formed,
    /// since the other half feeds nothing else.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        _graph: &NodeGraph,
        cache: &SagePoolCache,
        d_out: &Matrix,
        dh: Option<&mut Matrix>,
        dw_pool: &mut Matrix,
        db_pool: &mut Matrix,
        dw: &mut Matrix,
        db: &mut Matrix,
        scratch: &mut LayerScratch,
        pol: KernelPolicy,
    ) {
        let n = d_out.rows();
        let d = self.w_pool.rows();
        let dp = self.w_pool.cols();
        let od = self.w.cols();
        scratch.dz.resize_to(n, od);
        kernels::relu_gate(cache.out.data(), d_out.data(), scratch.dz.data_mut());
        dw.resize_to(d + dp, od);
        kernels::gemm_tn(
            cache.x.data(),
            scratch.dz.data(),
            dw.data_mut(),
            n,
            d + dp,
            od,
            d + dp,
            &mut scratch.red,
            pol,
        );
        db.resize_to(1, od);
        kernels::col_sums(scratch.dz.data(), od, db.data_mut());
        // `∂L/∂x` from column `x0` on: all of it, or just the aggregate half.
        let x0 = if dh.is_some() { 0 } else { d };
        let xw = d + dp - x0;
        scratch.dx.resize_to(n, xw);
        kernels::gemm_nt(
            scratch.dz.data(),
            &self.w.data()[x0 * od..],
            scratch.dx.data_mut(),
            n,
            od,
            xw,
            &mut scratch.bt,
            pol,
        );
        // Route aggregate gradients to the winning neighbors' pooled
        // features. The scatter stays sequential: distinct destination rows
        // can collide, so row-parallelism would race.
        scratch.dp.resize_to(n, dp);
        {
            let dx = scratch.dx.data();
            let dpm = scratch.dp.data_mut();
            for i in 0..n {
                for c in 0..dp {
                    let j = cache.argmax[i * dp + c];
                    if j != u32::MAX {
                        dpm[j as usize * dp + c] += dx[i * xw + d - x0 + c];
                    }
                }
            }
        }
        scratch.dzp.resize_to(n, dp);
        kernels::relu_gate(cache.p.data(), scratch.dp.data(), scratch.dzp.data_mut());
        dw_pool.resize_to(d, dp);
        kernels::gemm_tn(
            cache.x.data(),
            scratch.dzp.data(),
            dw_pool.data_mut(),
            n,
            d,
            dp,
            d + dp,
            &mut scratch.red,
            pol,
        );
        db_pool.resize_to(1, dp);
        kernels::col_sums(scratch.dzp.data(), dp, db_pool.data_mut());
        let Some(dh) = dh else { return };
        scratch.tmp.resize_to(n, d);
        kernels::gemm_nt(
            scratch.dzp.data(),
            self.w_pool.data(),
            scratch.tmp.data_mut(),
            n,
            dp,
            d,
            &mut scratch.bt,
            pol,
        );
        dh.resize_to(n, d);
        let dx = scratch.dx.data();
        let tmp = scratch.tmp.data();
        for (r, drow) in dh.data_mut().chunks_exact_mut(d).enumerate() {
            let dxrow = &dx[r * (d + dp)..r * (d + dp) + d];
            let trow = &tmp[r * d..(r + 1) * d];
            for ((o, &a), &b) in drow.iter_mut().zip(dxrow).zip(trow) {
                *o = a + b;
            }
        }
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }
}

/// GCN layer (symmetric-normalised propagation + linear + ReLU).
#[derive(Debug, Clone)]
pub struct GcnLayer {
    /// Weight of shape `(in_dim, out_dim)`.
    pub w: Matrix,
    /// Bias of shape `(1, out_dim)`.
    pub b: Matrix,
}

/// Forward-pass intermediates needed by [`GcnLayer::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct GcnCache {
    /// Propagated input `N·h`.
    pub(crate) p: Matrix,
    /// Post-activation layer output.
    pub(crate) out: Matrix,
}

impl GcnCache {
    /// Empty cache; buffers are shaped by `forward_into`.
    #[must_use]
    pub fn empty() -> Self {
        GcnCache::default()
    }
}

impl GcnLayer {
    /// Xavier-initialised layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GcnLayer { w: Matrix::xavier_seeded(in_dim, out_dim, seed), b: Matrix::zeros(1, out_dim) }
    }

    /// Allocation-free forward pass into a reusable cache; the output lives
    /// in `cache.out`.
    pub fn forward_into(
        &self,
        graph: &NodeGraph,
        h: &Matrix,
        cache: &mut GcnCache,
        pol: KernelPolicy,
    ) {
        let n = h.rows();
        let d = h.cols();
        let od = self.w.cols();
        cache.p.resize_to(n, d);
        kernels::gcn_propagate_into(graph, h.data(), d, cache.p.data_mut(), pol);
        cache.out.resize_to(n, od);
        kernels::gemm(cache.p.data(), self.w.data(), cache.out.data_mut(), n, d, od, pol);
        kernels::bias_relu(cache.out.data_mut(), self.b.data());
    }

    /// Allocation-free backward pass writing the parameter gradients into
    /// `dw` / `db` and, when `dh` is given, `∂L/∂h` into it. Uses the
    /// symmetry of the normalised adjacency (`Nᵀ = N`).
    pub fn backward_into(
        &self,
        graph: &NodeGraph,
        cache: &GcnCache,
        d_out: &Matrix,
        dh: Option<&mut Matrix>,
        dw: &mut Matrix,
        db: &mut Matrix,
        scratch: &mut LayerScratch,
        pol: KernelPolicy,
    ) {
        let n = d_out.rows();
        let d = self.w.rows();
        let od = self.w.cols();
        scratch.dz.resize_to(n, od);
        kernels::relu_gate(cache.out.data(), d_out.data(), scratch.dz.data_mut());
        dw.resize_to(d, od);
        kernels::gemm_tn(
            cache.p.data(),
            scratch.dz.data(),
            dw.data_mut(),
            n,
            d,
            od,
            d,
            &mut scratch.red,
            pol,
        );
        db.resize_to(1, od);
        kernels::col_sums(scratch.dz.data(), od, db.data_mut());
        let Some(dh) = dh else { return };
        scratch.dp.resize_to(n, d);
        kernels::gemm_nt(
            scratch.dz.data(),
            self.w.data(),
            scratch.dp.data_mut(),
            n,
            od,
            d,
            &mut scratch.bt,
            pol,
        );
        dh.resize_to(n, d);
        kernels::gcn_propagate_into(graph, scratch.dp.data(), d, dh.data_mut(), pol);
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }
}

/// Linear scoring head producing one value per node (no activation; the
/// loss applies the sigmoid for classification).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight of shape `(in_dim, 1)`.
    pub w: Matrix,
    /// Bias of shape `(1, 1)`.
    pub b: Matrix,
}

impl Linear {
    /// Xavier-initialised head.
    #[must_use]
    pub fn new(in_dim: usize, seed: u64) -> Self {
        Linear { w: Matrix::xavier_seeded(in_dim, 1, seed), b: Matrix::zeros(1, 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NeighborMode;

    fn tiny_graph() -> NodeGraph {
        NodeGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)], NeighborMode::Undirected)
    }

    fn pol() -> KernelPolicy {
        KernelPolicy::default()
    }

    fn ones(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| 1.0)
    }

    fn sage_forward(l: &SageLayer, g: &NodeGraph, h: &Matrix) -> SageCache {
        let mut cache = SageCache::empty();
        l.forward_into(g, h, &mut cache, pol());
        cache
    }

    /// `(∂L/∂h, ∂L/∂W, ∂L/∂b)` through [`SageLayer::backward_into`].
    fn sage_backward(
        l: &SageLayer,
        g: &NodeGraph,
        cache: &SageCache,
        d_out: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let (mut dh, mut dw, mut db) = (Matrix::default(), Matrix::default(), Matrix::default());
        let mut scratch = LayerScratch::new();
        l.backward_into(g, cache, d_out, Some(&mut dh), &mut dw, &mut db, &mut scratch, pol());
        (dh, dw, db)
    }

    fn pool_forward(l: &SagePoolLayer, g: &NodeGraph, h: &Matrix) -> SagePoolCache {
        let mut cache = SagePoolCache::empty();
        l.forward_into(g, h, &mut cache, pol());
        cache
    }

    /// `(∂L/∂h, [∂L/∂W_pool, ∂L/∂b_pool, ∂L/∂W, ∂L/∂b])` through
    /// [`SagePoolLayer::backward_into`].
    fn pool_backward(
        l: &SagePoolLayer,
        g: &NodeGraph,
        cache: &SagePoolCache,
        d_out: &Matrix,
    ) -> (Matrix, [Matrix; 4]) {
        let mut dh = Matrix::default();
        let mut grads: [Matrix; 4] = Default::default();
        let [dw_pool, db_pool, dw, db] = &mut grads;
        let mut scratch = LayerScratch::new();
        l.backward_into(
            g,
            cache,
            d_out,
            Some(&mut dh),
            dw_pool,
            db_pool,
            dw,
            db,
            &mut scratch,
            pol(),
        );
        (dh, grads)
    }

    fn gcn_forward(l: &GcnLayer, g: &NodeGraph, h: &Matrix) -> GcnCache {
        let mut cache = GcnCache::empty();
        l.forward_into(g, h, &mut cache, pol());
        cache
    }

    /// `(∂L/∂h, ∂L/∂W, ∂L/∂b)` through [`GcnLayer::backward_into`].
    fn gcn_backward(
        l: &GcnLayer,
        g: &NodeGraph,
        cache: &GcnCache,
        d_out: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let (mut dh, mut dw, mut db) = (Matrix::default(), Matrix::default(), Matrix::default());
        let mut scratch = LayerScratch::new();
        l.backward_into(g, cache, d_out, Some(&mut dh), &mut dw, &mut db, &mut scratch, pol());
        (dh, dw, db)
    }

    fn sum(m: &Matrix) -> f32 {
        m.data().iter().sum()
    }

    #[test]
    fn sage_weight_gradient_matches_numeric() {
        // Scalar loss L = sum(out); numeric ∂L/∂W[0,0].
        let g = tiny_graph();
        let h = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1 - 0.4);
        let layer = SageLayer::new(3, 2, 7);
        let loss_of = |l: &SageLayer| sum(&sage_forward(l, &g, &h).out);
        let cache = sage_forward(&layer, &g, &h);
        let (_, dw, _) = sage_backward(&layer, &g, &cache, &ones(4, 2));
        let eps = 1e-3;
        let mut lp = layer.clone();
        lp.w.set(0, 0, layer.w.at(0, 0) + eps);
        let mut lm = layer.clone();
        lm.w.set(0, 0, layer.w.at(0, 0) - eps);
        let numeric = (loss_of(&lp) - loss_of(&lm)) / (2.0 * eps);
        let analytic = dw.at(0, 0);
        assert!(
            (analytic - numeric).abs() < 1e-2 * numeric.abs().max(1.0),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn sage_input_gradient_matches_numeric() {
        let g = tiny_graph();
        let h = Matrix::from_fn(4, 3, |r, c| ((r + c) as f32).sin());
        let layer = SageLayer::new(3, 2, 3);
        let loss_of = |h: &Matrix| sum(&sage_forward(&layer, &g, h).out);
        let cache = sage_forward(&layer, &g, &h);
        let (dh, _, _) = sage_backward(&layer, &g, &cache, &ones(4, 2));
        let eps = 1e-3;
        for (r, c) in [(0, 0), (2, 1), (3, 2)] {
            let mut hp = h.clone();
            hp.set(r, c, h.at(r, c) + eps);
            let mut hm = h.clone();
            hm.set(r, c, h.at(r, c) - eps);
            let numeric = (loss_of(&hp) - loss_of(&hm)) / (2.0 * eps);
            let analytic = dh.at(r, c);
            assert!(
                (analytic - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "dH[{r},{c}] analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gcn_gradients_match_numeric() {
        let g = tiny_graph();
        let h = Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.3);
        let layer = GcnLayer::new(2, 2, 11);
        let loss_of = |l: &GcnLayer, h: &Matrix| sum(&gcn_forward(l, &g, h).out);
        let cache = gcn_forward(&layer, &g, &h);
        let (dh, dw, _) = gcn_backward(&layer, &g, &cache, &ones(4, 2));
        let eps = 1e-3;
        // weight grad
        let mut lp = layer.clone();
        lp.w.set(1, 0, layer.w.at(1, 0) + eps);
        let mut lm = layer.clone();
        lm.w.set(1, 0, layer.w.at(1, 0) - eps);
        let numeric = (loss_of(&lp, &h) - loss_of(&lm, &h)) / (2.0 * eps);
        assert!((dw.at(1, 0) - numeric).abs() < 2e-2 * numeric.abs().max(1.0));
        // input grad
        let mut hp = h.clone();
        hp.set(1, 1, h.at(1, 1) + eps);
        let mut hm = h.clone();
        hm.set(1, 1, h.at(1, 1) - eps);
        let numeric = (loss_of(&layer, &hp) - loss_of(&layer, &hm)) / (2.0 * eps);
        assert!((dh.at(1, 1) - numeric).abs() < 2e-2 * numeric.abs().max(1.0));
    }

    #[test]
    fn sage_pool_gradients_match_numeric() {
        let g = tiny_graph();
        let h = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let layer = SagePoolLayer::new(3, 2, 13);
        let loss_of = |l: &SagePoolLayer, h: &Matrix| sum(&pool_forward(l, &g, h).out);
        let cache = pool_forward(&layer, &g, &h);
        let (dh, [dw_pool, _, dw, _]) = pool_backward(&layer, &g, &cache, &ones(4, 2));
        let eps = 1e-3;
        // combine weight
        let mut lp = layer.clone();
        lp.w.set(0, 0, layer.w.at(0, 0) + eps);
        let mut lm = layer.clone();
        lm.w.set(0, 0, layer.w.at(0, 0) - eps);
        let numeric = (loss_of(&lp, &h) - loss_of(&lm, &h)) / (2.0 * eps);
        assert!(
            (dw.at(0, 0) - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
            "dW {} vs {numeric}",
            dw.at(0, 0)
        );
        // pool weight (max gating makes this the interesting one)
        let mut lp = layer.clone();
        lp.w_pool.set(1, 1, layer.w_pool.at(1, 1) + eps);
        let mut lm = layer.clone();
        lm.w_pool.set(1, 1, layer.w_pool.at(1, 1) - eps);
        let numeric = (loss_of(&lp, &h) - loss_of(&lm, &h)) / (2.0 * eps);
        assert!(
            (dw_pool.at(1, 1) - numeric).abs() < 3e-2 * numeric.abs().max(1.0),
            "dW_pool {} vs {numeric}",
            dw_pool.at(1, 1)
        );
        // input gradient
        let mut hp = h.clone();
        hp.set(2, 1, h.at(2, 1) + eps);
        let mut hm = h.clone();
        hm.set(2, 1, h.at(2, 1) - eps);
        let numeric = (loss_of(&layer, &hp) - loss_of(&layer, &hm)) / (2.0 * eps);
        assert!(
            (dh.at(2, 1) - numeric).abs() < 3e-2 * numeric.abs().max(1.0),
            "dh {} vs {numeric}",
            dh.at(2, 1)
        );
    }

    #[test]
    fn sage_pool_isolated_node_aggregates_zero() {
        let g = NodeGraph::from_edges(3, &[(0, 1)], NeighborMode::Undirected);
        let h = ones(3, 2);
        let layer = SagePoolLayer::new(2, 2, 4);
        let cache = pool_forward(&layer, &g, &h);
        assert_eq!(cache.out.rows(), 3);
        // node 2 is isolated: every argmax entry is the sentinel
        let dp = layer.w_pool.cols();
        for c in 0..dp {
            assert_eq!(cache.argmax[2 * dp + c], u32::MAX);
        }
        // backward must not panic and must route no gradient through node 2
        let (dh, _) = pool_backward(&layer, &g, &cache, &ones(3, 2));
        assert_eq!(dh.rows(), 3);
    }

    #[test]
    fn relu_gates_backward_flow() {
        // With a bias pushing all pre-activations negative, gradients die.
        let g = tiny_graph();
        let h = Matrix::from_fn(4, 2, |_, _| 0.1);
        let mut layer = SageLayer::new(2, 2, 5);
        layer.b = Matrix::from_vec(1, 2, vec![-100.0, -100.0]);
        let cache = sage_forward(&layer, &g, &h);
        assert!(cache.out.data().iter().all(|&v| v == 0.0));
        let (dh, dw, db) = sage_backward(&layer, &g, &cache, &ones(4, 2));
        assert!(dh.data().iter().all(|&v| v == 0.0));
        assert!(dw.data().iter().all(|&v| v == 0.0));
        assert!(db.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_into_reuses_buffers_across_calls() {
        let g = tiny_graph();
        let h = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2);
        let layer = SageLayer::new(3, 2, 8);
        let mut cache = SageCache::empty();
        layer.forward_into(&g, &h, &mut cache, KernelPolicy::default());
        let first = cache.out.clone();
        layer.forward_into(&g, &h, &mut cache, KernelPolicy::default());
        assert_eq!(first.data(), cache.out.data(), "repeat call must be identical");
    }
}
