//! Framework configuration.

use tmm_gnn::{Engine, ModelConfig, Task, TrainConfig};
use tmm_macromodel::MacroModelOptions;
use tmm_sensitivity::{DatasetOptions, FilterOptions, TsOptions};

/// Complete configuration of the GNN-based macro-modeling framework.
///
/// The defaults reproduce the paper's main setting: a 2-layer GraphSAGE
/// classifier on the eight basic features, CPPR off. The analysis modes
/// are set through [`FrameworkConfig::ts`]: `ts.cppr` generates and
/// evaluates training data with CPPR (see [`FrameworkConfig::cppr`] for
/// the Table 3/4 runs), `ts.aocv` under AOCV derating (the §5.3 generality
/// axis; evaluation must then also run with AOCV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkConfig {
    /// GNN architecture.
    pub model: ModelConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// TS evaluation options for training-data generation, including the
    /// CPPR and AOCV analysis modes.
    pub ts: TsOptions,
    /// Insensitive-pin filter options.
    pub filter: FilterOptions,
    /// Macro-model generation options.
    pub macro_options: MacroModelOptions,
    /// Include the dedicated `is_CPPR` feature (§5.3).
    pub with_cppr_feature: bool,
    /// Keep a pin when its predicted variant probability exceeds this.
    pub keep_threshold: f32,
    /// Train the regression variant (§5.3) instead of classification.
    pub regression: bool,
    /// Run the [`tmm_sta::validate`] passes at every stage boundary
    /// (library/netlist/graph before training, graph before generation,
    /// model round-trip on import). Invalid training designs are then
    /// quarantined rather than aborting the run. Disable only for
    /// benchmarking the raw pipeline.
    pub validate: bool,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            ts: TsOptions::default(),
            filter: FilterOptions::default(),
            macro_options: MacroModelOptions::default(),
            with_cppr_feature: false,
            keep_threshold: 0.3,
            regression: false,
            validate: true,
        }
    }
}

impl FrameworkConfig {
    /// The paper's CPPR configuration *with* the dedicated feature
    /// (Table 4, "after").
    #[must_use]
    pub fn cppr() -> Self {
        FrameworkConfig { with_cppr_feature: true, ..Self::cppr_without_feature() }
    }

    /// CPPR configuration *without* the dedicated feature (Table 4,
    /// "before").
    #[must_use]
    pub fn cppr_without_feature() -> Self {
        FrameworkConfig {
            ts: TsOptions { cppr: true, ..Default::default() },
            with_cppr_feature: false,
            ..Default::default()
        }
    }

    /// Switches the GNN engine (GraphSAGE ↔ GCN ablation).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.model.engine = engine;
        self
    }

    /// Sets the worker-thread count used by TS data generation *and* GNN
    /// training/inference (`1` = sequential, `0` = one worker per available
    /// hardware thread). Thread count never changes results: TS sweeps are
    /// stitched back in pin order and the GNN kernels use fixed-chunk
    /// ordered reductions, so any count is bit-identical to sequential.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.ts.threads = threads;
        self.train.threads = threads;
        self
    }

    /// Sets the soft working-memory budget in MiB (0 = unbounded) for the
    /// memory-intensive stages: TS data generation processes timing
    /// contexts in groups small enough that their reference analyses fit
    /// the budget, and view-engine macro merging flushes its copy-on-write
    /// overlay into a re-frozen core whenever it outgrows the budget. Both
    /// mechanisms are bit-identical to the unbounded run — only peak RSS
    /// and wall time change.
    #[must_use]
    pub fn with_mem_budget(mut self, mem_budget_mb: usize) -> Self {
        self.ts.mem_budget_mb = mem_budget_mb;
        self.macro_options.mem_budget_mb = mem_budget_mb;
        self
    }

    /// Dataset options derived from this configuration.
    #[must_use]
    pub fn dataset_options(&self) -> DatasetOptions {
        DatasetOptions {
            ts: self.ts,
            filter: self.filter,
            with_cppr_feature: self.with_cppr_feature,
            regression: self.regression,
        }
    }

    /// Feature count implied by the CPPR-feature switch.
    #[must_use]
    pub fn feature_count(&self) -> usize {
        if self.with_cppr_feature {
            tmm_sensitivity::FEATURES_WITH_CPPR
        } else {
            tmm_sensitivity::BASE_FEATURES
        }
    }

    /// Task implied by the regression switch.
    #[must_use]
    pub fn task(&self) -> Task {
        if self.regression {
            Task::Regression
        } else {
            Task::Classification
        }
    }

    /// Stable 64-bit fingerprint of the *effective* configuration, for run
    /// reports: two runs with the same fingerprint used identical settings.
    /// Derived from the exhaustive `Debug` rendering, so any added field
    /// automatically participates.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        tmm_obs::fingerprint(&format!("{self:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_main_setting() {
        let c = FrameworkConfig::default();
        assert_eq!(c.model.layers, 2);
        assert_eq!(c.model.engine, Engine::GraphSage);
        assert!(!c.ts.cppr);
        assert_eq!(c.feature_count(), 8);
        assert_eq!(c.task(), Task::Classification);
    }

    #[test]
    fn cppr_presets() {
        let after = FrameworkConfig::cppr();
        assert!(after.ts.cppr && after.with_cppr_feature);
        assert_eq!(after.feature_count(), 9);
        let before = FrameworkConfig::cppr_without_feature();
        assert!(before.ts.cppr && !before.with_cppr_feature);
        assert_eq!(before.feature_count(), 8);
    }

    #[test]
    fn engine_swap() {
        let c = FrameworkConfig::default().with_engine(Engine::Gcn);
        assert_eq!(c.model.engine, Engine::Gcn);
    }

    #[test]
    fn dataset_options_propagate_flags() {
        let c = FrameworkConfig::cppr();
        let d = c.dataset_options();
        assert!(d.ts.cppr && d.with_cppr_feature);
        assert!(!d.regression);
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let a = FrameworkConfig::default();
        assert_eq!(a.fingerprint(), FrameworkConfig::default().fingerprint());
        assert_ne!(a.fingerprint(), FrameworkConfig::cppr().fingerprint());
    }

    #[test]
    fn mem_budget_flows_into_both_stages() {
        let c = FrameworkConfig::default().with_mem_budget(512);
        assert_eq!(c.ts.mem_budget_mb, 512);
        assert_eq!(c.dataset_options().ts.mem_budget_mb, 512);
        assert_eq!(c.macro_options.mem_budget_mb, 512, "merge must follow the budget too");
        assert_ne!(c.fingerprint(), FrameworkConfig::default().fingerprint());
    }

    #[test]
    fn threads_flow_into_dataset_options() {
        let c = FrameworkConfig::default().with_threads(4);
        assert_eq!(c.ts.threads, 4);
        assert_eq!(c.dataset_options().ts.threads, 4);
        assert_eq!(c.train.threads, 4, "training must follow --threads too");
    }
}
