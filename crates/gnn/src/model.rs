//! The full GNN model: stacked GraphSAGE (or GCN) layers plus a linear
//! scoring head, trained full-batch with Adam.
//!
//! The paper trains a pin classifier (label 1 ⇔ non-zero timing
//! sensitivity) on several small designs and runs inference on much larger
//! unseen designs; [`GnnModel::train`] therefore takes a *set* of
//! [`TrainSample`]s and performs one optimisation step per design per epoch.
//! §5.3's regression variant (predicting the TS value itself) is selected
//! with [`Task::Regression`].

use crate::graph::NodeGraph;
use crate::kernels::{self, KernelPolicy};
use crate::layers::{
    GcnCache, GcnLayer, LayerScratch, Linear, SageCache, SageLayer, SagePoolCache, SagePoolLayer,
};
use crate::loss::{auto_pos_weight, bce_with_logits_into, mse_into};
use crate::matrix::{sigmoid, Matrix};
use crate::optim::Adam;
use tmm_ckpt::{CkptError, StageStore};

/// Stage name under which [`GnnModel::train_resumable`] records epoch
/// checkpoints in its [`StageStore`].
pub const TRAIN_STAGE: &str = "train";

/// Epoch-checkpointing hook for [`GnnModel::train_resumable`]: where to
/// persist mid-training state and how often.
pub struct CkptHook<'a> {
    /// Destination store (an on-disk `tmm_ckpt::Session` in the CLI, an
    /// in-memory store in tests).
    pub store: &'a mut dyn StageStore,
    /// Save a checkpoint every this many epochs (`0` disables saving;
    /// resume from an existing checkpoint still works).
    pub every: usize,
}

impl std::fmt::Debug for CkptHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptHook").field("every", &self.every).finish()
    }
}

/// Which GNN engine backs the model (§5.1: "other existing GNN models such
/// as GCN … could also be embedded with our framework").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// GraphSAGE with mean aggregation (the paper's main engine).
    #[default]
    GraphSage,
    /// GraphSAGE with learned max-pool aggregation (Hamilton et al. §3.3).
    GraphSagePool,
    /// Graph convolutional network (Kipf & Welling).
    Gcn,
}

/// Prediction task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Task {
    /// Binary classification: is the pin timing-variant?
    #[default]
    Classification,
    /// Regression on the timing-sensitivity value itself (§5.3).
    Regression,
}

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Hidden width of each GNN layer.
    pub hidden: usize,
    /// Number of stacked GNN layers (receptive-field hops).
    pub layers: usize,
    /// GNN engine.
    pub engine: Engine,
    /// Prediction task.
    pub task: Task,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig { hidden: 32, layers: 2, engine: Engine::GraphSage, task: Task::Classification, seed: 1 }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the sample set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Positive-class weight; `None` derives it from the label imbalance.
    pub pos_weight: Option<f32>,
    /// Early stopping: abort when the held-out validation loss has not
    /// improved for this many epochs. `None` disables the hold-out split
    /// entirely (all nodes train).
    pub patience: Option<usize>,
    /// Fraction of trainable nodes held out for validation when `patience`
    /// is set (deterministic split keyed on node index).
    pub val_fraction: f32,
    /// Divergence recovery: how many times a run whose loss or weights go
    /// non-finite is restarted from the initial weights with a backed-off
    /// learning rate. `0` disables retries (the run still rolls back).
    pub max_retries: usize,
    /// Multiplicative learning-rate factor applied per divergence retry.
    pub lr_backoff: f32,
    /// Worker threads for the compute kernels (`0` = all available cores).
    /// Results are bit-identical at any thread count.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 120,
            lr: 0.01,
            weight_decay: 1e-4,
            pos_weight: None,
            patience: None,
            val_fraction: 0.15,
            max_retries: 2,
            lr_backoff: 0.1,
            threads: 1,
        }
    }
}

/// One training design: its aggregation graph, node features and labels.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// Aggregation neighborhood structure.
    pub graph: NodeGraph,
    /// `n × f` node feature matrix.
    pub features: Matrix,
    /// Per-node labels (0/1 for classification, TS values for regression).
    pub labels: Vec<f32>,
    /// Optional training mask (`false` nodes contribute no loss).
    pub mask: Option<Vec<bool>>,
}

/// Loss trajectory of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean loss per epoch (averaged over samples).
    pub history: Vec<f32>,
    /// Loss of the final epoch.
    pub final_loss: f32,
    /// Mean held-out validation loss per epoch (empty without `patience`).
    pub val_history: Vec<f32>,
    /// Whether early stopping triggered before `epochs` elapsed.
    pub stopped_early: bool,
    /// Number of divergence-triggered restarts (learning-rate backoff).
    pub retries: usize,
    /// Whether the weights were rolled back to the best finite-loss
    /// checkpoint (or the initial weights) after unrecoverable divergence.
    pub rolled_back: bool,
    /// Whether training ultimately diverged. When `true` the model holds
    /// rolled-back weights and callers should treat it as unhealthy.
    pub diverged: bool,
}

enum LayerKind {
    Sage(SageLayer),
    SagePool(SagePoolLayer),
    Gcn(GcnLayer),
}

enum CacheKind {
    Sage(SageCache),
    SagePool(SagePoolCache),
    Gcn(GcnCache),
}

impl CacheKind {
    /// The cached post-activation layer output.
    fn out(&self) -> &Matrix {
        match self {
            CacheKind::Sage(c) => &c.out,
            CacheKind::SagePool(c) => &c.out,
            CacheKind::Gcn(c) => &c.out,
        }
    }
}

/// Reusable training/inference buffers for one [`GnnModel`].
///
/// Holds every intermediate the forward/backward passes and the
/// early-stopping checkpoint need, so that after the first epoch sizes the
/// buffers, steady-state epochs perform no heap allocation at all. Create
/// one per model with [`Workspace::new`] and thread it through repeated
/// training runs; buffers grow to the largest sample and stay there.
pub struct Workspace {
    caches: Vec<CacheKind>,
    scores: Matrix,
    d_scores: Matrix,
    dh_a: Matrix,
    dh_b: Matrix,
    grads: Vec<Matrix>,
    scratch: LayerScratch,
    best_weights: Vec<Matrix>,
    best_loss: f32,
    has_best: bool,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("layers", &self.caches.len())
            .field("grads", &self.grads.len())
            .field("has_best", &self.has_best)
            .finish()
    }
}

impl Workspace {
    /// Creates an (empty) workspace matching `model`'s architecture.
    #[must_use]
    pub fn new(model: &GnnModel) -> Self {
        let caches = model
            .layers
            .iter()
            .map(|l| match l {
                LayerKind::Sage(_) => CacheKind::Sage(SageCache::empty()),
                LayerKind::SagePool(_) => CacheKind::SagePool(SagePoolCache::empty()),
                LayerKind::Gcn(_) => CacheKind::Gcn(GcnCache::empty()),
            })
            .collect();
        let grads = (0..model.param_slots()).map(|_| Matrix::zeros(0, 0)).collect();
        Workspace {
            caches,
            scores: Matrix::zeros(0, 0),
            d_scores: Matrix::zeros(0, 0),
            dh_a: Matrix::zeros(0, 0),
            dh_b: Matrix::zeros(0, 0),
            grads,
            scratch: LayerScratch::new(),
            best_weights: Vec::new(),
            best_loss: f32::INFINITY,
            has_best: false,
        }
    }
}

/// A trained (or trainable) pin-scoring GNN.
pub struct GnnModel {
    config: ModelConfig,
    in_dim: usize,
    layers: Vec<LayerKind>,
    head: Linear,
}

impl std::fmt::Debug for GnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnnModel")
            .field("config", &self.config)
            .field("in_dim", &self.in_dim)
            .field("params", &self.param_count())
            .finish()
    }
}

impl GnnModel {
    /// Creates a freshly initialised model for `in_dim` input features.
    #[must_use]
    pub fn new(in_dim: usize, config: ModelConfig) -> Self {
        let mut layers = Vec::with_capacity(config.layers);
        let mut dim = in_dim;
        for l in 0..config.layers {
            let seed = config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(l as u64);
            match config.engine {
                Engine::GraphSage => {
                    layers.push(LayerKind::Sage(SageLayer::new(dim, config.hidden, seed)));
                }
                Engine::GraphSagePool => {
                    layers.push(LayerKind::SagePool(SagePoolLayer::new(dim, config.hidden, seed)));
                }
                Engine::Gcn => {
                    layers.push(LayerKind::Gcn(GcnLayer::new(dim, config.hidden, seed)));
                }
            }
            dim = config.hidden;
        }
        let head = Linear::new(dim, config.seed.wrapping_add(0xbeef));
        GnnModel { config, in_dim, layers, head }
    }

    /// Input feature dimension the model expects.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        let layer_params: usize = self
            .layers
            .iter()
            .map(|l| match l {
                LayerKind::Sage(s) => s.w.rows() * s.w.cols() + s.b.cols(),
                LayerKind::SagePool(s) => {
                    s.w.rows() * s.w.cols()
                        + s.b.cols()
                        + s.w_pool.rows() * s.w_pool.cols()
                        + s.b_pool.cols()
                }
                LayerKind::Gcn(g) => g.w.rows() * g.w.cols() + g.b.cols(),
            })
            .sum();
        layer_params + self.head.w.rows() + 1
    }

    /// Number of parameter slots in the canonical order
    /// (layer₀ params …, head.W, head.b).
    fn param_slots(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                LayerKind::SagePool(_) => 4,
                _ => 2,
            })
            .sum::<usize>()
            + 2
    }

    /// Allocation-free forward pass: layer outputs land in `caches`, raw
    /// per-node scores in `scores` (`n × 1`).
    fn forward_ws(
        &self,
        graph: &NodeGraph,
        features: &Matrix,
        caches: &mut [CacheKind],
        scores: &mut Matrix,
        pol: KernelPolicy,
    ) {
        assert_eq!(caches.len(), self.layers.len(), "workspace/model mismatch");
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = caches.split_at_mut(li);
            let h: &Matrix = if li == 0 { features } else { done[li - 1].out() };
            match (layer, &mut rest[0]) {
                (LayerKind::Sage(s), CacheKind::Sage(c)) => s.forward_into(graph, h, c, pol),
                (LayerKind::SagePool(s), CacheKind::SagePool(c)) => {
                    s.forward_into(graph, h, c, pol);
                }
                (LayerKind::Gcn(g), CacheKind::Gcn(c)) => g.forward_into(graph, h, c, pol),
                _ => unreachable!("cache kind always matches layer kind"),
            }
        }
        let h_final: &Matrix =
            if self.layers.is_empty() { features } else { caches[self.layers.len() - 1].out() };
        let n = h_final.rows();
        scores.resize_to(n, 1);
        kernels::gemm(
            h_final.data(),
            self.head.w.data(),
            scores.data_mut(),
            n,
            self.head.w.rows(),
            1,
            pol,
        );
        let b0 = self.head.b.at(0, 0);
        for v in scores.data_mut() {
            *v += b0;
        }
    }

    /// Per-node predictions: probabilities for classification, values for
    /// regression.
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != self.in_dim()` or the graph size does
    /// not match the feature rows.
    #[must_use]
    pub fn predict(&self, graph: &NodeGraph, features: &Matrix) -> Vec<f32> {
        self.predict_par(graph, features, 1)
    }

    /// [`GnnModel::predict`] with an explicit worker-thread count. Results
    /// are bit-identical at any thread count (`0` = all available cores).
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != self.in_dim()` or the graph size does
    /// not match the feature rows.
    #[must_use]
    pub fn predict_par(&self, graph: &NodeGraph, features: &Matrix, threads: usize) -> Vec<f32> {
        assert_eq!(features.cols(), self.in_dim, "feature dimension mismatch");
        let mut ws = Workspace::new(self);
        let pol = KernelPolicy::with_threads(threads);
        self.forward_ws(graph, features, &mut ws.caches, &mut ws.scores, pol);
        match self.config.task {
            Task::Classification => ws.scores.data().iter().map(|&z| sigmoid(z)).collect(),
            Task::Regression => ws.scores.data().to_vec(),
        }
    }

    /// Allocation-free backward pass writing gradients into `grads` in the
    /// canonical parameter order (layer₀ params …, head.W, head.b).
    #[allow(clippy::too_many_arguments)]
    fn backward_ws(
        &self,
        graph: &NodeGraph,
        features: &Matrix,
        caches: &[CacheKind],
        d_scores: &Matrix,
        dh_a: &mut Matrix,
        dh_b: &mut Matrix,
        grads: &mut [Matrix],
        scratch: &mut LayerScratch,
        pol: KernelPolicy,
    ) {
        let slots = grads.len();
        let hd = self.head.w.rows();
        let n = d_scores.rows();
        let h_final: &Matrix =
            if self.layers.is_empty() { features } else { caches[self.layers.len() - 1].out() };
        {
            let (_, head_grads) = grads.split_at_mut(slots - 2);
            let [dw_head, db_head] = head_grads else {
                unreachable!("head always has two parameter slots")
            };
            dw_head.resize_to(hd, 1);
            kernels::gemm_tn(
                h_final.data(),
                d_scores.data(),
                dw_head.data_mut(),
                n,
                hd,
                1,
                hd,
                &mut scratch.red,
                pol,
            );
            db_head.resize_to(1, 1);
            kernels::col_sums(d_scores.data(), 1, db_head.data_mut());
        }
        if self.layers.is_empty() {
            return;
        }
        dh_a.resize_to(n, hd);
        kernels::gemm_nt(
            d_scores.data(),
            self.head.w.data(),
            dh_a.data_mut(),
            n,
            1,
            hd,
            &mut scratch.bt,
            pol,
        );
        let mut d_out: &mut Matrix = dh_a;
        let mut dh: &mut Matrix = dh_b;
        let mut base = slots - 2;
        for (li, (layer, cache)) in self.layers.iter().zip(caches).enumerate().rev() {
            let cnt = match layer {
                LayerKind::SagePool(_) => 4,
                _ => 2,
            };
            base -= cnt;
            let lg = &mut grads[base..base + cnt];
            // Nothing reads the gradient of the input features.
            let dh_in = (li > 0).then_some(&mut *dh);
            match (layer, cache) {
                (LayerKind::Sage(s), CacheKind::Sage(c)) => {
                    let [dw, db] = lg else { unreachable!("sage has two slots") };
                    s.backward_into(graph, c, d_out, dh_in, dw, db, scratch, pol);
                }
                (LayerKind::SagePool(s), CacheKind::SagePool(c)) => {
                    let [dw_pool, db_pool, dw, db] = lg else {
                        unreachable!("pool has four slots")
                    };
                    s.backward_into(graph, c, d_out, dh_in, dw_pool, db_pool, dw, db, scratch, pol);
                }
                (LayerKind::Gcn(g), CacheKind::Gcn(c)) => {
                    let [dw, db] = lg else { unreachable!("gcn has two slots") };
                    g.backward_into(graph, c, d_out, dh_in, dw, db, scratch, pol);
                }
                _ => unreachable!("cache kind always matches layer kind"),
            }
            std::mem::swap(&mut d_out, &mut dh);
        }
    }

    /// Visits every parameter in the canonical order without allocating.
    fn for_each_param<F: FnMut(usize, &Matrix)>(&self, mut f: F) {
        let mut i = 0usize;
        for layer in &self.layers {
            match layer {
                LayerKind::Sage(s) => {
                    f(i, &s.w);
                    f(i + 1, &s.b);
                    i += 2;
                }
                LayerKind::SagePool(s) => {
                    f(i, &s.w_pool);
                    f(i + 1, &s.b_pool);
                    f(i + 2, &s.w);
                    f(i + 3, &s.b);
                    i += 4;
                }
                LayerKind::Gcn(g) => {
                    f(i, &g.w);
                    f(i + 1, &g.b);
                    i += 2;
                }
            }
        }
        f(i, &self.head.w);
        f(i + 1, &self.head.b);
    }

    /// Mutable counterpart of [`Self::for_each_param`], same order.
    fn for_each_param_mut<F: FnMut(usize, &mut Matrix)>(&mut self, mut f: F) {
        let mut i = 0usize;
        for layer in &mut self.layers {
            match layer {
                LayerKind::Sage(s) => {
                    f(i, &mut s.w);
                    f(i + 1, &mut s.b);
                    i += 2;
                }
                LayerKind::SagePool(s) => {
                    f(i, &mut s.w_pool);
                    f(i + 1, &mut s.b_pool);
                    f(i + 2, &mut s.w);
                    f(i + 3, &mut s.b);
                    i += 4;
                }
                LayerKind::Gcn(g) => {
                    f(i, &mut g.w);
                    f(i + 1, &mut g.b);
                    i += 2;
                }
            }
        }
        f(i, &mut self.head.w);
        f(i + 1, &mut self.head.b);
    }

    #[cfg(test)]
    fn params(&self) -> Vec<&Matrix> {
        let mut v: Vec<&Matrix> = Vec::with_capacity(self.param_slots());
        for layer in &self.layers {
            match layer {
                LayerKind::Sage(s) => {
                    v.push(&s.w);
                    v.push(&s.b);
                }
                LayerKind::SagePool(s) => {
                    v.push(&s.w_pool);
                    v.push(&s.b_pool);
                    v.push(&s.w);
                    v.push(&s.b);
                }
                LayerKind::Gcn(g) => {
                    v.push(&g.w);
                    v.push(&g.b);
                }
            }
        }
        v.push(&self.head.w);
        v.push(&self.head.b);
        v
    }

    /// `true` when every weight is finite. A model that fails this check
    /// produces garbage scores and must not be used for prediction.
    #[must_use]
    pub fn weights_finite(&self) -> bool {
        let mut ok = true;
        self.for_each_param(|_, m| {
            if ok && !m.data().iter().all(|v| v.is_finite()) {
                ok = false;
            }
        });
        ok
    }

    /// Clones all parameter matrices in the canonical order.
    fn snapshot(&self) -> Vec<Matrix> {
        let mut v = Vec::with_capacity(self.param_slots());
        self.for_each_param(|_, m| v.push(m.clone()));
        v
    }

    /// Copies all parameters into `buf` without allocating once `buf` has
    /// been filled by a previous call (clones on first use).
    fn snapshot_into(&self, buf: &mut Vec<Matrix>) {
        if buf.is_empty() {
            self.for_each_param(|_, m| buf.push(m.clone()));
        } else {
            assert_eq!(buf.len(), self.param_slots(), "snapshot shape mismatch");
            self.for_each_param(|idx, m| buf[idx].copy_from(m));
        }
    }

    /// Restores parameters captured by [`Self::snapshot`] or
    /// [`Self::snapshot_into`].
    fn restore(&mut self, snap: &[Matrix]) {
        let mut count = 0usize;
        self.for_each_param_mut(|idx, p| {
            p.copy_from(&snap[idx]);
            count = count.max(idx + 1);
        });
        assert_eq!(count, snap.len(), "snapshot shape mismatch");
    }

    /// Trains the model full-batch over `samples`, one Adam step per sample
    /// per epoch.
    ///
    /// # Panics
    ///
    /// Panics if any sample's feature dimension differs from the model's.
    pub fn train(&mut self, samples: &[TrainSample], cfg: &TrainConfig) -> TrainReport {
        match self.train_resumable(samples, cfg, None) {
            Ok(report) => report,
            Err(e) => unreachable!("training without a checkpoint store cannot fail: {e}"),
        }
    }

    /// [`GnnModel::train`] with crash-safe epoch checkpointing: when a
    /// `hook` is supplied, full optimiser state (weights, Adam moments,
    /// best-epoch snapshot, early-stopping counters, loss history) is
    /// persisted every `hook.every` epochs under the [`TRAIN_STAGE`]
    /// stage, and an existing checkpoint in the store is loaded so
    /// training continues from it. A resumed run is **bit-identical** to
    /// one that was never interrupted — including divergence retries,
    /// since the checkpoint carries the retry count and backed-off
    /// learning rate, and a retry restarts from the seed-deterministic
    /// initial weights.
    ///
    /// # Errors
    ///
    /// [`CkptError`] when a checkpoint fails to persist, load, or parse
    /// (never with `hook = None` — the hookless path is infallible).
    ///
    /// # Panics
    ///
    /// Panics if any sample's feature dimension differs from the model's.
    pub fn train_resumable(
        &mut self,
        samples: &[TrainSample],
        cfg: &TrainConfig,
        mut hook: Option<&mut CkptHook<'_>>,
    ) -> Result<TrainReport, CkptError> {
        assert!(!samples.is_empty(), "training requires at least one sample");
        for s in samples {
            assert_eq!(s.features.cols(), self.in_dim, "feature dimension mismatch");
            assert_eq!(s.features.rows(), s.graph.nodes(), "graph/feature size mismatch");
            assert_eq!(s.labels.len(), s.graph.nodes(), "label count mismatch");
        }
        let pos_weight = cfg.pos_weight.unwrap_or_else(|| {
            // Average the auto weight over samples.
            let ws: f32 = samples
                .iter()
                .map(|s| auto_pos_weight(&s.labels, s.mask.as_deref()))
                .sum::<f32>()
                / samples.len() as f32;
            ws
        });
        // Optional deterministic hold-out split for early stopping: node i
        // validates when a cheap integer hash of (i, seed) lands below the
        // validation fraction.
        let splits: Option<Vec<(Vec<bool>, Vec<bool>)>> = cfg.patience.map(|_| {
            samples
                .iter()
                .map(|s| {
                    let n = s.graph.nodes();
                    let mut train_mask = vec![false; n];
                    let mut val_mask = vec![false; n];
                    for i in 0..n {
                        let trainable = s.mask.as_ref().is_none_or(|m| m[i]);
                        if !trainable {
                            continue;
                        }
                        let h = (i as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(self.config.seed)
                            .rotate_left(17);
                        let frac = (h % 10_000) as f32 / 10_000.0;
                        if frac < cfg.val_fraction {
                            val_mask[i] = true;
                        } else {
                            train_mask[i] = true;
                        }
                    }
                    (train_mask, val_mask)
                })
                .collect()
        });

        // Divergence recovery: run attempts with a progressively backed-off
        // learning rate. Each attempt restarts from the initial weights; an
        // attempt whose loss or weights go non-finite is abandoned. When
        // every retry is exhausted the weights roll back to the best
        // finite-loss checkpoint seen (or the initial weights) and the
        // report flags the run as diverged so callers can quarantine it.
        let mut span = tmm_obs::span("gnn_train", "gnn");
        let mut ws = Workspace::new(self);
        // The initial snapshot MUST come from the fresh seed-deterministic
        // weights, before any checkpoint restore: a divergence retry after
        // resume restarts from the same place an uninterrupted run would.
        let initial = self.snapshot();
        let mut lr = cfg.lr;
        let mut retries = 0usize;
        let mut next_seq: u64 = 0;
        let mut resume: Option<TrainCheckpoint> = None;
        if let Some(h) = hook.as_mut() {
            if let Some(seq) = h.store.latest(TRAIN_STAGE) {
                if let Some(payload) = h.store.load(TRAIN_STAGE, seq)? {
                    let ck = TrainCheckpoint::from_text(&payload).map_err(|e| {
                        CkptError::Corrupt(format!("train checkpoint {TRAIN_STAGE}/{seq}: {e}"))
                    })?;
                    lr = ck.lr;
                    retries = ck.retries;
                    next_seq = seq + 1;
                    tmm_obs::counter_add("tmm_gnn_ckpt_resumes_total", &[], 1);
                    tmm_obs::info(
                        &[
                            ("stage", "training"),
                            ("epoch", &ck.epoch.to_string()),
                            ("retries", &retries.to_string()),
                        ],
                        "resuming training from epoch checkpoint",
                    );
                    resume = Some(ck);
                }
            }
        }
        loop {
            match self.train_attempt(
                samples,
                cfg,
                pos_weight,
                splits.as_deref(),
                lr,
                retries,
                resume.take(),
                hook.as_deref_mut(),
                &mut next_seq,
                &mut ws,
            )? {
                Attempt::Completed(mut report) => {
                    report.retries = retries;
                    span.arg_f64("epochs", report.history.len() as f64);
                    span.arg_f64("retries", retries as f64);
                    return Ok(report);
                }
                Attempt::Diverged(mut report) => {
                    if retries < cfg.max_retries {
                        retries += 1;
                        lr *= cfg.lr_backoff;
                        tmm_obs::counter_add("tmm_gnn_retries_total", &[], 1);
                        tmm_obs::warn(
                            &[
                                ("stage", "training"),
                                ("retry", &retries.to_string()),
                                ("lr", &format!("{lr:.3e}")),
                            ],
                            "training attempt diverged; restarting with backed-off learning rate",
                        );
                        self.restore(&initial);
                        continue;
                    }
                    report.retries = retries;
                    report.diverged = true;
                    report.rolled_back = true;
                    tmm_obs::counter_add("tmm_gnn_diverged_total", &[], 1);
                    tmm_obs::warn(
                        &[("stage", "training"), ("retries", &retries.to_string())],
                        "training diverged after all retries; rolled back to best checkpoint",
                    );
                    if ws.has_best {
                        self.restore(&ws.best_weights);
                        report.final_loss = ws.best_loss;
                    } else {
                        self.restore(&initial);
                    }
                    span.arg("outcome", "diverged");
                    return Ok(report);
                }
            }
        }
    }

    /// One optimization run at a fixed learning rate; aborts on the first
    /// epoch whose mean loss or resulting weights are non-finite. The best
    /// finite-loss checkpoint is copied into the workspace's preallocated
    /// snapshot buffers; apart from the first epoch sizing the workspace,
    /// steady-state epochs perform no heap allocation.
    #[allow(clippy::too_many_arguments)] // internal seam between train_resumable and the epoch loop
    fn train_attempt(
        &mut self,
        samples: &[TrainSample],
        cfg: &TrainConfig,
        pos_weight: f32,
        splits: Option<&[(Vec<bool>, Vec<bool>)]>,
        lr: f32,
        retries: usize,
        resume: Option<TrainCheckpoint>,
        mut hook: Option<&mut CkptHook<'_>>,
        next_seq: &mut u64,
        ws: &mut Workspace,
    ) -> Result<Attempt, CkptError> {
        let pol = KernelPolicy::with_threads(cfg.threads);
        let mut opt = Adam::new(lr, cfg.weight_decay);
        let mut history = Vec::with_capacity(cfg.epochs);
        let mut val_history =
            Vec::with_capacity(if cfg.patience.is_some() { cfg.epochs } else { 0 });
        let mut best_val = f32::INFINITY;
        let mut since_best = 0usize;
        let mut stopped_early = false;
        ws.has_best = false;
        ws.best_loss = f32::INFINITY;
        let mut start_epoch = 0usize;
        if let Some(ck) = resume {
            if ck.params.len() != self.param_slots() {
                return Err(CkptError::Corrupt(format!(
                    "train checkpoint has {} parameter matrices, model has {}",
                    ck.params.len(),
                    self.param_slots()
                )));
            }
            self.restore(&ck.params);
            opt.restore_state(ck.opt_t, ck.opt_m, ck.opt_v);
            if ck.has_best {
                ws.best_weights = ck.best_weights;
                ws.best_loss = ck.best_loss;
                ws.has_best = true;
            }
            best_val = ck.best_val;
            since_best = ck.since_best;
            history = ck.history;
            val_history = ck.val_history;
            start_epoch = ck.epoch;
        }
        // Epoch-granular instrumentation: while metrics are disabled this
        // is one relaxed load per epoch — no clocks, no allocation — which
        // keeps the steady-state zero-allocation guarantee intact.
        let obs_rows: usize = samples.iter().map(|s| s.features.rows()).sum();
        // Live heartbeat: one unit per epoch (inert unless --status-addr).
        let heartbeat = tmm_obs::progress_start("gnn_train", "", cfg.epochs as u64);
        heartbeat.set_done(start_epoch as u64);
        for epoch in start_epoch..cfg.epochs {
            let epoch_start =
                if tmm_obs::metrics_enabled() { Some(std::time::Instant::now()) } else { None };
            let mut epoch_loss = 0.0f32;
            let mut epoch_val = 0.0f32;
            for (si, sample) in samples.iter().enumerate() {
                let train_mask: Option<&[bool]> = match splits {
                    Some(sp) => Some(&sp[si].0),
                    None => sample.mask.as_deref(),
                };
                let Workspace { caches, scores, d_scores, dh_a, dh_b, grads, scratch, .. } = ws;
                self.forward_ws(&sample.graph, &sample.features, caches, scores, pol);
                d_scores.resize_to(scores.rows(), 1);
                // Validation loss first: it shares the gradient buffer with
                // the training loss, whose gradient must survive until the
                // backward pass.
                if let Some(sp) = splits {
                    epoch_val += match self.config.task {
                        Task::Classification => bce_with_logits_into(
                            scores.data(),
                            &sample.labels,
                            Some(&sp[si].1),
                            pos_weight,
                            d_scores.data_mut(),
                        ),
                        Task::Regression => mse_into(
                            scores.data(),
                            &sample.labels,
                            Some(&sp[si].1),
                            d_scores.data_mut(),
                        ),
                    };
                }
                let loss = match self.config.task {
                    Task::Classification => bce_with_logits_into(
                        scores.data(),
                        &sample.labels,
                        train_mask,
                        pos_weight,
                        d_scores.data_mut(),
                    ),
                    Task::Regression => {
                        mse_into(scores.data(), &sample.labels, train_mask, d_scores.data_mut())
                    }
                };
                epoch_loss += loss;
                self.backward_ws(
                    &sample.graph,
                    &sample.features,
                    caches,
                    d_scores,
                    dh_a,
                    dh_b,
                    grads,
                    scratch,
                    pol,
                );
                opt.begin_step();
                self.for_each_param_mut(|idx, p| opt.update_param(idx, p, &grads[idx]));
            }
            let mean_loss = epoch_loss / samples.len() as f32;
            heartbeat.add(1);
            if let Some(start) = epoch_start {
                let secs = start.elapsed().as_secs_f64();
                // Gradient norm of the last backward pass of the epoch;
                // computed only while metrics are on.
                let grad_sq: f64 = ws
                    .grads
                    .iter()
                    .map(|g| g.data().iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>())
                    .sum();
                tmm_obs::counter_add("tmm_gnn_epochs_total", &[], 1);
                tmm_obs::gauge_set("tmm_gnn_epoch_loss", &[], f64::from(mean_loss));
                tmm_obs::gauge_set("tmm_gnn_grad_norm", &[], grad_sq.sqrt());
                if secs > 0.0 {
                    tmm_obs::gauge_set("tmm_gnn_rows_per_sec", &[], obs_rows as f64 / secs);
                }
            }
            history.push(mean_loss);
            if !mean_loss.is_finite() || !self.weights_finite() {
                let report = TrainReport {
                    history,
                    final_loss: f32::NAN,
                    val_history,
                    ..TrainReport::default()
                };
                return Ok(Attempt::Diverged(report));
            }
            if !ws.has_best || mean_loss < ws.best_loss {
                self.snapshot_into(&mut ws.best_weights);
                ws.best_loss = mean_loss;
                ws.has_best = true;
            }
            if let Some(patience) = cfg.patience {
                let val = epoch_val / samples.len() as f32;
                val_history.push(val);
                if val + 1e-6 < best_val {
                    best_val = val;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= patience {
                        stopped_early = true;
                        break;
                    }
                }
            }
            // Persist a resumable checkpoint on the epoch boundary. The
            // hookless path is one `Option` check per epoch — no clocks,
            // no allocation — preserving the zero-allocation guarantee.
            if let Some(h) = hook.as_mut() {
                if h.every > 0 && (epoch + 1) % h.every == 0 && epoch + 1 < cfg.epochs {
                    let (m, v) = opt.moments();
                    let ck = TrainCheckpoint {
                        epoch: epoch + 1,
                        retries,
                        lr,
                        params: self.snapshot(),
                        opt_t: opt.timestep(),
                        opt_m: m.to_vec(),
                        opt_v: v.to_vec(),
                        best_weights: if ws.has_best { ws.best_weights.clone() } else { Vec::new() },
                        best_loss: ws.best_loss,
                        has_best: ws.has_best,
                        best_val,
                        since_best,
                        history: history.clone(),
                        val_history: val_history.clone(),
                    };
                    h.store.save(TRAIN_STAGE, *next_seq, &ck.to_text())?;
                    *next_seq += 1;
                }
            }
        }
        // Early stopping is a legitimate completion; divergence above
        // returns without completing so the slot reads as interrupted.
        heartbeat.complete();
        let final_loss = history.last().copied().unwrap_or(0.0);
        Ok(Attempt::Completed(TrainReport {
            history,
            final_loss,
            val_history,
            stopped_early,
            ..TrainReport::default()
        }))
    }
}

/// Outcome of one fixed-learning-rate training attempt.
enum Attempt {
    /// All epochs ran with finite losses and weights.
    Completed(TrainReport),
    /// A non-finite loss or weight appeared; the workspace holds the
    /// weights and mean loss of the best finite epoch, when one existed.
    Diverged(TrainReport),
}

/// Error parsing a serialised model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError(String);

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot parse gnn model: {}", self.0)
    }
}

impl std::error::Error for ParseModelError {}

/// Whitespace token cursor for the model text format.
struct Tokens<'a> {
    it: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn next(&mut self) -> Result<&'a str, ParseModelError> {
        self.it.next().ok_or_else(|| ParseModelError("unexpected end of input".into()))
    }

    fn expect(&mut self, kw: &str) -> Result<(), ParseModelError> {
        let t = self.next()?;
        if t == kw {
            Ok(())
        } else {
            Err(ParseModelError(format!("expected `{kw}`, found `{t}`")))
        }
    }

    fn usize(&mut self) -> Result<usize, ParseModelError> {
        let t = self.next()?;
        t.parse().map_err(|_| ParseModelError(format!("bad integer `{t}`")))
    }

    fn u64(&mut self) -> Result<u64, ParseModelError> {
        let t = self.next()?;
        t.parse().map_err(|_| ParseModelError(format!("bad integer `{t}`")))
    }

    fn f32(&mut self) -> Result<f32, ParseModelError> {
        let t = self.next()?;
        t.parse().map_err(|_| ParseModelError(format!("bad float `{t}`")))
    }

    fn matrix(&mut self) -> Result<Matrix, ParseModelError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            let t = self.next()?;
            data.push(t.parse::<f32>().map_err(|_| ParseModelError(format!("bad float `{t}`")))?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

fn write_matrix(out: &mut String, m: &Matrix) {
    use std::fmt::Write as _;
    let _ = write!(out, "{} {}", m.rows(), m.cols());
    for v in m.data() {
        let _ = write!(out, " {v:e}");
    }
    let _ = writeln!(out);
}

/// Full mid-training state at one epoch boundary: everything
/// [`GnnModel::train_resumable`] needs so a resumed run is bit-identical
/// to an uninterrupted one. Serialised with the same `{v:e}` exact-f32
/// text grammar as the model itself (`gnn_ckpt v1`).
struct TrainCheckpoint {
    epoch: usize,
    retries: usize,
    lr: f32,
    params: Vec<Matrix>,
    opt_t: u64,
    opt_m: Vec<Matrix>,
    opt_v: Vec<Matrix>,
    best_weights: Vec<Matrix>,
    best_loss: f32,
    has_best: bool,
    best_val: f32,
    since_best: usize,
    history: Vec<f32>,
    val_history: Vec<f32>,
}

fn write_matrix_group(out: &mut String, key: &str, ms: &[Matrix]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{key} {}", ms.len());
    for m in ms {
        write_matrix(out, m);
    }
}

fn write_float_group(out: &mut String, key: &str, vs: &[f32]) {
    use std::fmt::Write as _;
    let _ = write!(out, "{key} {}", vs.len());
    for v in vs {
        let _ = write!(out, " {v:e}");
    }
    let _ = writeln!(out);
}

fn read_matrix_group(t: &mut Tokens<'_>, key: &str) -> Result<Vec<Matrix>, ParseModelError> {
    t.expect(key)?;
    let n = t.usize()?;
    (0..n).map(|_| t.matrix()).collect()
}

fn read_float_group(t: &mut Tokens<'_>, key: &str) -> Result<Vec<f32>, ParseModelError> {
    t.expect(key)?;
    let n = t.usize()?;
    (0..n).map(|_| t.f32()).collect()
}

impl TrainCheckpoint {
    fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 * 1024);
        let _ = writeln!(
            out,
            "gnn_ckpt v1 epoch {} retries {} lr {:e} opt_t {}",
            self.epoch, self.retries, self.lr, self.opt_t
        );
        write_matrix_group(&mut out, "params", &self.params);
        write_matrix_group(&mut out, "opt_m", &self.opt_m);
        write_matrix_group(&mut out, "opt_v", &self.opt_v);
        let _ = writeln!(
            out,
            "best {} loss {:e} val {:e} since {}",
            u8::from(self.has_best),
            self.best_loss,
            self.best_val,
            self.since_best
        );
        write_matrix_group(&mut out, "best_weights", &self.best_weights);
        write_float_group(&mut out, "history", &self.history);
        write_float_group(&mut out, "val_history", &self.val_history);
        out.push_str("end\n");
        out
    }

    fn from_text(src: &str) -> Result<TrainCheckpoint, ParseModelError> {
        let mut t = Tokens { it: src.split_whitespace() };
        t.expect("gnn_ckpt")?;
        t.expect("v1")?;
        t.expect("epoch")?;
        let epoch = t.usize()?;
        t.expect("retries")?;
        let retries = t.usize()?;
        t.expect("lr")?;
        let lr = t.f32()?;
        t.expect("opt_t")?;
        let opt_t = t.u64()?;
        let params = read_matrix_group(&mut t, "params")?;
        let opt_m = read_matrix_group(&mut t, "opt_m")?;
        let opt_v = read_matrix_group(&mut t, "opt_v")?;
        t.expect("best")?;
        let has_best = t.usize()? != 0;
        t.expect("loss")?;
        let best_loss = t.f32()?;
        t.expect("val")?;
        let best_val = t.f32()?;
        t.expect("since")?;
        let since_best = t.usize()?;
        let best_weights = read_matrix_group(&mut t, "best_weights")?;
        let history = read_float_group(&mut t, "history")?;
        let val_history = read_float_group(&mut t, "val_history")?;
        t.expect("end")?;
        if opt_m.len() != opt_v.len() {
            return Err(ParseModelError("optimiser moment counts disagree".into()));
        }
        if has_best && best_weights.len() != params.len() {
            return Err(ParseModelError("best-weight count disagrees with params".into()));
        }
        Ok(TrainCheckpoint {
            epoch,
            retries,
            lr,
            params,
            opt_t,
            opt_m,
            opt_v,
            best_weights,
            best_loss,
            has_best,
            best_val,
            since_best,
            history,
            val_history,
        })
    }
}

impl GnnModel {
    /// Serialises the trained model (architecture + weights) to text so it
    /// can be stored next to a design library and reloaded without
    /// retraining. `f32` values round-trip exactly.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 * 1024);
        let engine = match self.config.engine {
            Engine::GraphSage => "sage",
            Engine::GraphSagePool => "pool",
            Engine::Gcn => "gcn",
        };
        let task = match self.config.task {
            Task::Classification => "classification",
            Task::Regression => "regression",
        };
        let _ = writeln!(
            out,
            "gnn_model v1 hidden {} layers {} engine {engine} task {task} seed {} in_dim {}",
            self.config.hidden, self.config.layers, self.config.seed, self.in_dim
        );
        for layer in &self.layers {
            match layer {
                LayerKind::Sage(s) => {
                    out.push_str("layer sage w ");
                    write_matrix(&mut out, &s.w);
                    out.push_str("b ");
                    write_matrix(&mut out, &s.b);
                }
                LayerKind::SagePool(s) => {
                    out.push_str("layer pool wp ");
                    write_matrix(&mut out, &s.w_pool);
                    out.push_str("bp ");
                    write_matrix(&mut out, &s.b_pool);
                    out.push_str("w ");
                    write_matrix(&mut out, &s.w);
                    out.push_str("b ");
                    write_matrix(&mut out, &s.b);
                }
                LayerKind::Gcn(g) => {
                    out.push_str("layer gcn w ");
                    write_matrix(&mut out, &g.w);
                    out.push_str("b ");
                    write_matrix(&mut out, &g.b);
                }
            }
        }
        out.push_str("head w ");
        write_matrix(&mut out, &self.head.w);
        out.push_str("b ");
        write_matrix(&mut out, &self.head.b);
        out.push_str("end\n");
        out
    }

    /// Reconstructs a model from [`GnnModel::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on malformed input.
    pub fn from_text(src: &str) -> Result<GnnModel, ParseModelError> {
        let mut t = Tokens { it: src.split_whitespace() };
        t.expect("gnn_model")?;
        t.expect("v1")?;
        t.expect("hidden")?;
        let hidden = t.usize()?;
        t.expect("layers")?;
        let n_layers = t.usize()?;
        t.expect("engine")?;
        let engine = match t.next()? {
            "sage" => Engine::GraphSage,
            "pool" => Engine::GraphSagePool,
            "gcn" => Engine::Gcn,
            other => return Err(ParseModelError(format!("unknown engine `{other}`"))),
        };
        t.expect("task")?;
        let task = match t.next()? {
            "classification" => Task::Classification,
            "regression" => Task::Regression,
            other => return Err(ParseModelError(format!("unknown task `{other}`"))),
        };
        t.expect("seed")?;
        let seed = t.u64()?;
        t.expect("in_dim")?;
        let in_dim = t.usize()?;

        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            t.expect("layer")?;
            match t.next()? {
                "sage" => {
                    t.expect("w")?;
                    let w = t.matrix()?;
                    t.expect("b")?;
                    let b = t.matrix()?;
                    layers.push(LayerKind::Sage(SageLayer { w, b }));
                }
                "pool" => {
                    t.expect("wp")?;
                    let w_pool = t.matrix()?;
                    t.expect("bp")?;
                    let b_pool = t.matrix()?;
                    t.expect("w")?;
                    let w = t.matrix()?;
                    t.expect("b")?;
                    let b = t.matrix()?;
                    layers.push(LayerKind::SagePool(SagePoolLayer { w_pool, b_pool, w, b }));
                }
                "gcn" => {
                    t.expect("w")?;
                    let w = t.matrix()?;
                    t.expect("b")?;
                    let b = t.matrix()?;
                    layers.push(LayerKind::Gcn(GcnLayer { w, b }));
                }
                other => return Err(ParseModelError(format!("unknown layer `{other}`"))),
            }
        }
        t.expect("head")?;
        t.expect("w")?;
        let w = t.matrix()?;
        t.expect("b")?;
        let b = t.matrix()?;
        t.expect("end")?;
        Ok(GnnModel {
            config: ModelConfig { hidden, layers: n_layers, engine, task, seed },
            in_dim,
            layers,
            head: Linear { w, b },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NeighborMode;
    use crate::metrics::classify_metrics;

    /// A toy task: nodes on a ring; label 1 iff feature 0 of the node or a
    /// neighbor exceeds 0.5 (requires 1-hop aggregation to solve).
    fn toy_sample(n: usize, seed: u64) -> TrainSample {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> =
            (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let graph = NodeGraph::from_edges(n, &edges, NeighborMode::Undirected);
        let feat: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let features = Matrix::from_fn(n, 2, |r, c| if c == 0 { feat[r] } else { 1.0 });
        let labels: Vec<f32> = (0..n)
            .map(|i| {
                let prev = (i + n - 1) % n;
                let next = (i + 1) % n;
                if feat[i] > 0.5 || feat[prev] > 0.5 || feat[next] > 0.5 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        TrainSample { graph, features, labels, mask: None }
    }

    /// The training loop's mean BCE loss on `sample` and its gradient per
    /// parameter slot, through `forward_ws` and `backward_ws`.
    fn loss_and_grads(model: &GnnModel, sample: &TrainSample, pos_weight: f32) -> (f32, Vec<Matrix>) {
        let pol = KernelPolicy::default();
        let mut ws = Workspace::new(model);
        let Workspace { caches, scores, d_scores, dh_a, dh_b, grads, scratch, .. } = &mut ws;
        model.forward_ws(&sample.graph, &sample.features, caches, scores, pol);
        d_scores.resize_to(scores.rows(), 1);
        let loss = bce_with_logits_into(
            scores.data(),
            &sample.labels,
            None,
            pos_weight,
            d_scores.data_mut(),
        );
        model.backward_ws(
            &sample.graph,
            &sample.features,
            caches,
            d_scores,
            dh_a,
            dh_b,
            grads,
            scratch,
            pol,
        );
        (loss, ws.grads)
    }

    #[test]
    fn backward_matches_central_differences_for_every_parameter_slot() {
        // Mixed-sign features keep the ReLU units alive, so no checked
        // entry is trivially zero.
        let mut sample = toy_sample(24, 13);
        sample.features = Matrix::from_fn(24, 3, |r, c| ((r * 3 + c) as f32 * 0.77).sin());
        let pos_weight = 2.0;
        let eps = 1e-3f32;
        for engine in [Engine::GraphSage, Engine::GraphSagePool, Engine::Gcn] {
            // The seed keeps every pre-activation and max-pool race farther
            // than `eps` from its kink at the checked entries: a kink inside
            // `x ± eps` bends the central difference away from the true
            // gradient (seeds 5 and 6 put one there).
            let mut model = GnnModel::new(
                3,
                ModelConfig { hidden: 4, layers: 2, engine, seed: 8, ..Default::default() },
            );
            // Move every bias (the `1 × out` slots) off its zero
            // initialisation: a node whose inputs are all zero would
            // otherwise sit exactly on a ReLU kink, where central
            // differences disagree with the 0-at-0 convention.
            model.for_each_param_mut(|_, p| {
                if p.rows() == 1 {
                    for (j, v) in p.data_mut().iter_mut().enumerate() {
                        *v = 0.1 + 0.03 * j as f32;
                    }
                }
            });
            let (_, grads) = loss_and_grads(&model, &sample, pos_weight);
            assert_eq!(grads.len(), model.param_slots(), "{engine:?}");
            for (slot, grad) in grads.iter().enumerate() {
                let len = grad.data().len();
                let mut entries = vec![0, len / 2, len - 1];
                entries.dedup();
                for e in entries {
                    let set = |model: &mut GnnModel, v: f32| {
                        model.for_each_param_mut(|idx, p| {
                            if idx == slot {
                                p.data_mut()[e] = v;
                            }
                        });
                    };
                    let mut orig = f32::NAN;
                    model.for_each_param(|idx, p| {
                        if idx == slot {
                            orig = p.data()[e];
                        }
                    });
                    set(&mut model, orig + eps);
                    let plus = loss_and_grads(&model, &sample, pos_weight).0;
                    set(&mut model, orig - eps);
                    let minus = loss_and_grads(&model, &sample, pos_weight).0;
                    set(&mut model, orig);
                    let numeric = (plus - minus) / (2.0 * eps);
                    let analytic = grad.data()[e];
                    assert!(
                        (analytic - numeric).abs() <= 2e-4 + 2e-2 * numeric.abs(),
                        "{engine:?} slot {slot} entry {e}: analytic {analytic} vs numeric {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn absurd_lr_recovers_via_backoff() {
        // lr = 1e30 overflows the f32 weights on the very first Adam step
        // (the step magnitude is ≈ lr); with a strong backoff each retry
        // divides it back into sane territory.
        let train = toy_sample(80, 4);
        let mut model =
            GnnModel::new(2, ModelConfig { hidden: 8, layers: 1, ..Default::default() });
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig {
                epochs: 30,
                lr: 1e30,
                max_retries: 8,
                lr_backoff: 1e-8,
                ..Default::default()
            },
        );
        assert!(report.retries > 0, "expected at least one divergence retry");
        assert!(!report.diverged, "backoff should have recovered: {report:?}");
        assert!(model.weights_finite());
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use tmm_ckpt::MemStore;
        let samples = vec![toy_sample(60, 7), toy_sample(40, 8)];
        let mcfg = ModelConfig { hidden: 8, layers: 2, ..Default::default() };
        let tcfg = TrainConfig { epochs: 24, patience: Some(50), ..Default::default() };

        // Uninterrupted reference run, checkpointing every 4 epochs.
        let mut full_store = MemStore::new();
        let mut full_model = GnnModel::new(2, mcfg);
        let full_report = full_model
            .train_resumable(
                &samples,
                &tcfg,
                Some(&mut CkptHook { store: &mut full_store, every: 4 }),
            )
            .unwrap();
        let saves = full_store.saves();
        assert!(saves >= 2, "expected several checkpoints, got {saves}");

        // Simulate a kill after each checkpoint prefix: resume from the
        // truncated store and demand bit-identical weights and history.
        for kept in 0..=saves {
            let mut store = full_store.truncated(kept);
            let mut model = GnnModel::new(2, mcfg);
            let report = model
                .train_resumable(
                    &samples,
                    &tcfg,
                    Some(&mut CkptHook { store: &mut store, every: 4 }),
                )
                .unwrap();
            assert_eq!(model.to_text(), full_model.to_text(), "weights differ at kept={kept}");
            assert_eq!(report.history, full_report.history, "history differs at kept={kept}");
            assert_eq!(report.val_history, full_report.val_history, "kept={kept}");
            assert_eq!(
                report.final_loss.to_bits(),
                full_report.final_loss.to_bits(),
                "final loss differs at kept={kept}"
            );
        }
    }

    #[test]
    fn checkpoint_resume_preserves_divergence_retries() {
        use tmm_ckpt::MemStore;
        let train = toy_sample(80, 4);
        let mcfg = ModelConfig { hidden: 8, layers: 1, ..Default::default() };
        let tcfg = TrainConfig {
            epochs: 30,
            lr: 1e30,
            max_retries: 8,
            lr_backoff: 1e-8,
            ..Default::default()
        };
        let mut full_store = MemStore::new();
        let mut full_model = GnnModel::new(2, mcfg);
        let full_report = full_model
            .train_resumable(
                std::slice::from_ref(&train),
                &tcfg,
                Some(&mut CkptHook { store: &mut full_store, every: 8 }),
            )
            .unwrap();
        assert!(full_report.retries > 0, "setup must trigger retries");
        let saves = full_store.saves();
        assert!(saves >= 1, "the recovered attempt must have checkpointed");

        // Resuming mid-recovered-attempt must restore the backed-off lr
        // and retry count, reproducing the uninterrupted run exactly.
        for kept in 1..=saves {
            let mut store = full_store.truncated(kept);
            let mut model = GnnModel::new(2, mcfg);
            let report = model
                .train_resumable(
                    std::slice::from_ref(&train),
                    &tcfg,
                    Some(&mut CkptHook { store: &mut store, every: 8 }),
                )
                .unwrap();
            assert_eq!(report.retries, full_report.retries, "kept={kept}");
            assert_eq!(model.to_text(), full_model.to_text(), "weights differ at kept={kept}");
            assert_eq!(
                report.final_loss.to_bits(),
                full_report.final_loss.to_bits(),
                "kept={kept}"
            );
        }
    }

    #[test]
    fn nan_features_roll_back_and_flag_divergence() {
        let mut train = toy_sample(80, 5);
        let n = train.features.rows();
        train.features = Matrix::from_fn(n, 2, |_, _| f32::NAN);
        let mut model =
            GnnModel::new(2, ModelConfig { hidden: 8, layers: 1, ..Default::default() });
        let before = model.snapshot();
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig { epochs: 10, max_retries: 2, ..Default::default() },
        );
        assert!(report.diverged, "NaN features cannot converge: {report:?}");
        assert!(report.rolled_back);
        assert_eq!(report.retries, 2);
        // No finite checkpoint ever existed, so the initial weights return.
        assert!(model.weights_finite());
        for (p, b) in model.params().into_iter().zip(&before) {
            assert_eq!(p.data(), b.data(), "weights were not rolled back");
        }
    }

    #[test]
    fn healthy_run_reports_no_retries() {
        let train = toy_sample(60, 6);
        let mut model =
            GnnModel::new(2, ModelConfig { hidden: 8, layers: 1, ..Default::default() });
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig { epochs: 20, ..Default::default() },
        );
        assert_eq!(report.retries, 0);
        assert!(!report.diverged);
        assert!(!report.rolled_back);
    }

    #[test]
    fn sage_learns_neighborhood_rule() {
        let train = toy_sample(160, 1);
        let test = toy_sample(160, 2);
        let mut model = GnnModel::new(2, ModelConfig { hidden: 16, layers: 2, ..Default::default() });
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig { epochs: 250, lr: 0.02, ..Default::default() },
        );
        assert!(
            report.final_loss < report.history[0] * 0.5,
            "loss should halve: {} -> {}",
            report.history[0],
            report.final_loss
        );
        let probs = model.predict(&test.graph, &test.features);
        let m = classify_metrics(&probs, &test.labels, None, 0.5);
        assert!(m.f1() > 0.85, "generalisation F1 {} too low", m.f1());
    }

    #[test]
    fn sage_pool_engine_learns_neighborhood_rule() {
        let train = toy_sample(160, 9);
        let mut model = GnnModel::new(
            2,
            ModelConfig {
                hidden: 16,
                layers: 2,
                engine: Engine::GraphSagePool,
                ..Default::default()
            },
        );
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig { epochs: 250, lr: 0.02, ..Default::default() },
        );
        let probs = model.predict(&train.graph, &train.features);
        let m = classify_metrics(&probs, &train.labels, None, 0.5);
        assert!(
            m.f1() > 0.85,
            "pool engine F1 {} too low (loss {})",
            m.f1(),
            report.final_loss
        );
    }

    #[test]
    fn gcn_engine_also_trains() {
        let train = toy_sample(120, 3);
        let mut model = GnnModel::new(
            2,
            ModelConfig { hidden: 16, layers: 2, engine: Engine::Gcn, ..Default::default() },
        );
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig { epochs: 250, lr: 0.02, ..Default::default() },
        );
        let probs = model.predict(&train.graph, &train.features);
        let m = classify_metrics(&probs, &train.labels, None, 0.5);
        assert!(m.f1() > 0.8, "GCN train F1 {} too low (loss {})", m.f1(), report.final_loss);
    }

    #[test]
    fn regression_reduces_mse() {
        let mut sample = toy_sample(100, 4);
        // regression targets: feature value itself (trivially learnable)
        sample.labels = (0..100).map(|i| sample.features.at(i, 0)).collect();
        let mut model = GnnModel::new(
            2,
            ModelConfig { task: Task::Regression, hidden: 8, layers: 1, ..Default::default() },
        );
        let report = model.train(
            std::slice::from_ref(&sample),
            &TrainConfig { epochs: 200, lr: 0.02, ..Default::default() },
        );
        assert!(report.final_loss < 0.02, "final mse {}", report.final_loss);
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let train = toy_sample(120, 11);
        let mut model =
            GnnModel::new(2, ModelConfig { hidden: 16, layers: 2, ..Default::default() });
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig {
                epochs: 2000,
                lr: 0.03,
                patience: Some(20),
                val_fraction: 0.2,
                ..Default::default()
            },
        );
        assert!(report.stopped_early, "a plateau must appear before 2000 epochs");
        assert!(report.history.len() < 2000);
        assert_eq!(report.val_history.len(), report.history.len());
        // validation loss improved from its starting point
        assert!(report.val_history.last().unwrap() < report.val_history.first().unwrap());
    }

    #[test]
    fn without_patience_no_validation_history() {
        let train = toy_sample(60, 12);
        let mut model = GnnModel::new(2, ModelConfig::default());
        let report = model.train(
            std::slice::from_ref(&train),
            &TrainConfig { epochs: 10, ..Default::default() },
        );
        assert!(report.val_history.is_empty());
        assert!(!report.stopped_early);
        assert_eq!(report.history.len(), 10);
    }

    #[test]
    fn multi_sample_training_runs() {
        let samples = vec![toy_sample(60, 5), toy_sample(80, 6)];
        let mut model = GnnModel::new(2, ModelConfig::default());
        let report =
            model.train(&samples, &TrainConfig { epochs: 30, ..Default::default() });
        assert_eq!(report.history.len(), 30);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn predict_checks_dimensions() {
        let model = GnnModel::new(3, ModelConfig::default());
        assert_eq!(model.in_dim(), 3);
        assert!(model.param_count() > 0);
        let sample = toy_sample(10, 7);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predict(&sample.graph, &sample.features)
        }));
        assert!(result.is_err(), "2-feature input into 3-feature model must panic");
    }

    #[test]
    fn model_text_round_trip_predicts_identically() {
        for engine in [Engine::GraphSage, Engine::GraphSagePool, Engine::Gcn] {
            let sample = toy_sample(60, 21);
            let mut model = GnnModel::new(
                2,
                ModelConfig { hidden: 8, layers: 2, engine, ..Default::default() },
            );
            model.train(
                std::slice::from_ref(&sample),
                &TrainConfig { epochs: 30, ..Default::default() },
            );
            let text = model.to_text();
            let back = GnnModel::from_text(&text).unwrap();
            assert_eq!(back.in_dim(), model.in_dim());
            assert_eq!(back.param_count(), model.param_count());
            let a = model.predict(&sample.graph, &sample.features);
            let b = back.predict(&sample.graph, &sample.features);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "engine {engine:?}");
            }
        }
    }

    #[test]
    fn model_parse_rejects_garbage() {
        assert!(GnnModel::from_text("").is_err());
        assert!(GnnModel::from_text("gnn_model v1 hidden x").is_err());
        assert!(GnnModel::from_text("gnn_model v2").is_err());
        let err = GnnModel::from_text("gnn_model v1 hidden 4 layers 1 engine alien").unwrap_err();
        assert!(err.to_string().contains("alien"));
    }

    #[test]
    fn deterministic_given_seed() {
        let sample = toy_sample(50, 8);
        let run = || {
            let mut m = GnnModel::new(2, ModelConfig { seed: 42, ..Default::default() });
            m.train(
                std::slice::from_ref(&sample),
                &TrainConfig { epochs: 10, ..Default::default() },
            )
            .final_loss
        };
        assert_eq!(run(), run());
    }
}
