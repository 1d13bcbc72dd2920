//! Training-data assembly — the paper's Fig. 8 flow.
//!
//! For one (small) training design: extract the ILM, run the insensitive
//! pin filter, evaluate TS on the survivors, derive classification labels
//! (TS ≠ 0 → 1; CPPR mode additionally labels multi-fan-out clock pins 1,
//! per §5.1), extract Table-1 features, and package everything as a
//! [`TrainSample`] for [`tmm_gnn`].

use crate::features::{extract_features, pin_graph_edges};
use crate::filter::{filter_insensitive, FilterOptions, FilterResult};
use crate::ts::{evaluate_ts_with_core, evaluate_ts_with_core_ckpt, TsOptions, TsResult};
use tmm_gnn::{NeighborMode, NodeGraph, TrainSample};
use tmm_sta::cppr::cppr_crucial_pins;
use tmm_sta::graph::ArcGraph;
use tmm_sta::view::DesignCore;
use tmm_sta::Result;

/// Options for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DatasetOptions {
    /// TS evaluation options (contexts, seed, CPPR, zero threshold).
    pub ts: TsOptions,
    /// Insensitive-pin filter options.
    pub filter: FilterOptions,
    /// Generate data for CPPR mode: analyses run with CPPR, clock branch
    /// pins survive the filter and are labelled 1.
    pub cppr_mode: bool,
    /// Generate data under AOCV derating — the §5.3 generality axis: the
    /// same flow retargets to a different analysis mode by re-measuring TS
    /// under it.
    pub aocv_mode: bool,
    /// Include the dedicated `is_CPPR` feature column (§5.3 ablation).
    pub with_cppr_feature: bool,
    /// Produce regression targets (raw TS) instead of binary labels.
    pub regression: bool,
}

/// A labelled pin dataset for one design.
#[derive(Debug, Clone)]
pub struct PinDataset {
    /// Ready-to-train sample (graph, features, labels, mask).
    pub sample: TrainSample,
    /// Raw TS values (NaN where unevaluated).
    pub ts: TsResult,
    /// Filter outcome.
    pub filter: FilterResult,
    /// Fraction of labelled-positive pins among live nodes.
    pub positive_rate: f64,
}

impl PinDataset {
    /// Number of pins the TS sweep quarantined (per-pin evaluation
    /// failures; each keeps `NaN` TS and is conservatively labelled
    /// variant). Intended for once-per-design diagnostics — the individual
    /// causes stay in [`TsResult::failures`].
    #[must_use]
    pub fn ts_failure_count(&self) -> usize {
        self.ts.failures.len()
    }
}

/// Builds a dataset from a design's interface-logic graph.
///
/// # Errors
///
/// Propagates analysis errors from filtering and TS evaluation.
pub fn build_dataset(ilm: &ArcGraph, opts: &DatasetOptions) -> Result<PinDataset> {
    build_dataset_impl(ilm, opts, None)
}

/// [`build_dataset`] with a crash-safe, resumable TS sweep: the sweep
/// checkpoints fixed-size pin chunks into `store` under `stage` (via
/// [`evaluate_ts_with_core_ckpt`]), so a killed data generation run
/// resumes where it stopped and produces a bit-identical dataset.
///
/// # Errors
///
/// Propagates analysis errors; checkpoint-layer failures surface as
/// [`tmm_sta::StaError::Validation`] with artifact `"checkpoint"`.
pub fn build_dataset_ckpt(
    ilm: &ArcGraph,
    opts: &DatasetOptions,
    store: &mut dyn tmm_ckpt::StageStore,
    stage: &str,
) -> Result<PinDataset> {
    build_dataset_impl(ilm, opts, Some((store, stage)))
}

fn build_dataset_impl(
    ilm: &ArcGraph,
    opts: &DatasetOptions,
    ckpt: Option<(&mut dyn tmm_ckpt::StageStore, &str)>,
) -> Result<PinDataset> {
    let mut filter_opts = opts.filter;
    filter_opts.keep_cppr_pins = opts.cppr_mode;

    let mut ts_opts = opts.ts;
    ts_opts.cppr = opts.cppr_mode;
    ts_opts.aocv = ts_opts.aocv || opts.aocv_mode;

    // The design is frozen ONCE here and shared by both the filter's
    // extreme-slew propagation and every TS probe.
    let core = DesignCore::freeze(ilm);
    let filter = filter_insensitive(&*core, &filter_opts)?;
    let ts = match ckpt {
        Some((store, stage)) => {
            evaluate_ts_with_core_ckpt(&core, &filter.survivors, &ts_opts, store, stage)?
        }
        None => evaluate_ts_with_core(&core, &filter.survivors, &ts_opts)?,
    };

    let mut labels = if opts.regression {
        ts.regression_targets()
    } else {
        ts.labels(ts_opts.zero_eps)
    };
    // Pins the filter kept but TS could not evaluate (refused bypass) are
    // conservatively labelled variant: the model keeps them.
    for i in 0..ilm.node_count() {
        if filter.survivors[i] && ts.ts[i].is_nan() && !opts.regression {
            labels[i] = 1.0;
        }
    }
    if opts.cppr_mode && !opts.regression {
        for p in cppr_crucial_pins(ilm) {
            labels[p.index()] = 1.0;
        }
    }

    let mask: Vec<bool> = (0..ilm.node_count())
        .map(|i| !ilm.node(tmm_sta::graph::NodeId(i as u32)).dead)
        .collect();
    let positive = labels
        .iter()
        .zip(&mask)
        .filter(|&(l, &m)| m && *l > 0.5)
        .count();
    let live = mask.iter().filter(|&&m| m).count().max(1);

    let graph = NodeGraph::from_edges(
        ilm.node_count(),
        &pin_graph_edges(ilm),
        NeighborMode::Undirected,
    );
    let features = extract_features(ilm, opts.with_cppr_feature);
    let sample = TrainSample { graph, features, labels, mask: Some(mask) };
    Ok(PinDataset { sample, ts, filter, positive_rate: positive as f64 / live as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_macromodel::extract_ilm;
    use tmm_sta::liberty::Library;

    fn ilm_graph() -> ArcGraph {
        let lib = Library::synthetic(12);
        let n = CircuitSpec::new("ds")
            .inputs(4)
            .outputs(4)
            .register_banks(2, 4)
            .cloud(2, 5)
            .seed(61)
            .generate(&lib)
            .unwrap();
        let flat = ArcGraph::from_netlist(&n, &lib).unwrap();
        extract_ilm(&flat).unwrap().0
    }

    #[test]
    fn dataset_shapes_are_consistent() {
        let ilm = ilm_graph();
        let ds = build_dataset(&ilm, &DatasetOptions::default()).unwrap();
        assert_eq!(ds.sample.features.rows(), ilm.node_count());
        assert_eq!(ds.sample.labels.len(), ilm.node_count());
        assert_eq!(ds.sample.graph.nodes(), ilm.node_count());
        assert!(ds.positive_rate > 0.0, "some pins must be variant");
        assert!(ds.positive_rate < 0.9, "most pins are invariant");
    }

    #[test]
    fn filtered_pins_get_zero_labels() {
        let ilm = ilm_graph();
        let ds = build_dataset(&ilm, &DatasetOptions::default()).unwrap();
        for i in 0..ilm.node_count() {
            let node = ilm.node(tmm_sta::graph::NodeId(i as u32));
            if node.dead || node.kind != tmm_sta::graph::NodeKind::Internal {
                continue;
            }
            if !ds.filter.survivors[i] {
                assert_eq!(ds.sample.labels[i], 0.0, "filtered pin {} labelled 1", node.name);
            }
        }
    }

    #[test]
    fn cppr_mode_labels_clock_branch_points_positive() {
        let ilm = ilm_graph();
        let opts = DatasetOptions {
            cppr_mode: true,
            with_cppr_feature: true,
            ..Default::default()
        };
        let ds = build_dataset(&ilm, &opts).unwrap();
        for p in cppr_crucial_pins(&ilm) {
            assert_eq!(ds.sample.labels[p.index()], 1.0);
        }
        assert_eq!(ds.sample.features.cols(), crate::features::FEATURES_WITH_CPPR);
    }

    #[test]
    fn regression_dataset_uses_raw_ts() {
        let ilm = ilm_graph();
        let ds = build_dataset(
            &ilm,
            &DatasetOptions { regression: true, ..Default::default() },
        )
        .unwrap();
        // regression labels are continuous TS values: nonnegative, not all
        // 0/1
        assert!(ds.sample.labels.iter().all(|&l| l >= 0.0));
        let nontrivial = ds
            .sample
            .labels
            .iter()
            .filter(|&&l| l > 0.0 && (l - 1.0).abs() > 1e-6)
            .count();
        assert!(nontrivial > 0, "continuous targets expected");
    }

    #[test]
    fn dataset_is_reproducible() {
        let ilm = ilm_graph();
        let a = build_dataset(&ilm, &DatasetOptions::default()).unwrap();
        let b = build_dataset(&ilm, &DatasetOptions::default()).unwrap();
        assert_eq!(a.sample.labels, b.sample.labels);
        assert_eq!(a.positive_rate, b.positive_rate);
    }
}
