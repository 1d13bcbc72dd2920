//! A minimal, dependency-light graph neural network framework.
//!
//! Implements exactly what GNN-based timing macro modeling needs — and
//! nothing more: dense `f32` matrices, CSR neighborhoods, GraphSAGE mean
//! aggregation (the paper's Eqs. (3)–(4)) and GCN propagation with manual
//! backprop, Adam, class-weighted BCE / MSE losses, and classification
//! metrics. Full-batch training on graphs of up to a few hundred thousand
//! nodes runs comfortably on a CPU.
//!
//! - [`matrix`] — dense `f32` matrix buffers and initialisation.
//! - [`kernels`] — blocked, deterministic-parallel compute kernels (plus
//!   the naive reference implementations in [`kernels::naive`], called
//!   only by tests, the differential checker and benches).
//! - [`graph`] — CSR neighborhoods (their aggregation operators are
//!   [`kernels`]).
//! - [`layers`] — GraphSAGE / GCN / linear layers (forward + backward).
//! - [`loss`] — BCE-with-logits (with positive-class weighting) and MSE.
//! - [`optim`] — Adam with decoupled weight decay.
//! - [`model`] — the stacked [`model::GnnModel`] with its training loop.
//! - [`metrics`] — precision/recall/F1.
//!
//! # Example
//!
//! ```
//! use tmm_gnn::graph::{NeighborMode, NodeGraph};
//! use tmm_gnn::matrix::Matrix;
//! use tmm_gnn::model::{GnnModel, ModelConfig, TrainConfig, TrainSample};
//!
//! // 4-node path graph; label = feature of any neighbor exceeds 0.5.
//! let graph = NodeGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], NeighborMode::Undirected);
//! let features = Matrix::from_vec(4, 1, vec![0.9, 0.1, 0.2, 0.1]);
//! let labels = vec![1.0, 1.0, 0.0, 0.0];
//! let sample = TrainSample { graph, features, labels, mask: None };
//! let mut model = GnnModel::new(1, ModelConfig::default());
//! let report = model.train(&[sample], &TrainConfig { epochs: 50, ..Default::default() });
//! assert!(report.final_loss.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod optim;

pub use graph::{NeighborMode, NodeGraph};
pub use kernels::KernelPolicy;
pub use matrix::Matrix;
pub use metrics::{classify_metrics, ConfusionCounts};
pub use model::{
    CkptHook, Engine, GnnModel, ModelConfig, Task, TrainConfig, TrainReport, TrainSample,
    Workspace, TRAIN_STAGE,
};
