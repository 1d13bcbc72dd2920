//! The end-to-end GNN-based timing macro modeling framework (Fig. 4).
//!
//! Stage 1 (data generation) and stage 2 (GNN training) run once over a set
//! of small training designs; stage 3 (prediction + macro generation) then
//! applies to arbitrary, much larger designs — the inductive setting that
//! makes GraphSAGE the natural engine (§5.3).
//!
//! # Failure model
//!
//! Every entry point returns [`TmmError`], an [`StaError`] tagged with the
//! stage it failed in. With [`FrameworkConfig::validate`] on (the default)
//! the [`tmm_sta::validate`] passes run at each stage boundary, and the
//! framework degrades gracefully instead of aborting:
//!
//! * **Training** isolates per-design failures: a design whose netlist
//!   fails validation or lowering is *quarantined* — skipped and recorded
//!   in [`TrainingSummary::quarantined`] — and training proceeds on the
//!   healthy designs. Training only errors when *no* design survives.
//! * **Divergence** during GNN optimisation is retried with a reduced
//!   learning rate and rolled back to the best finite checkpoint (see
//!   [`tmm_gnn::TrainConfig`]); if the final model is still unhealthy the
//!   framework enters a *degraded* state.
//! * **Degraded prediction** falls back to the pure-ILM keep-all mask: an
//!   unhealthy model must never drop pins, so every live interface pin is
//!   kept and the outcome is flagged via [`RunOutcome::degraded`]. An
//!   *untrained* framework still refuses to predict — degradation is a
//!   property of a model that exists but cannot be trusted.

use crate::config::FrameworkConfig;
use crate::error::{Result, Stage, TmmError};
use std::time::{Duration, Instant};
use tmm_ckpt::{CkptError, StageStore};
use tmm_gnn::{
    classify_metrics, CkptHook, ConfusionCounts, GnnModel, NeighborMode, NodeGraph, TrainReport,
    TrainSample,
};
use tmm_macromodel::baselines::output_variant_pins;
use tmm_macromodel::{extract_ilm, MacroModel};
use tmm_sensitivity::dataset::{build_dataset, build_dataset_ckpt, DatasetOptions, PinDataset};
use tmm_sensitivity::{extract_features, pin_graph_edges};
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::netlist::Netlist;
use tmm_sta::validate::{validate_arc_graph, validate_library, validate_netlist, ValidationReport};
use tmm_sta::StaError;

/// A training design that was skipped because one of its stages failed.
#[derive(Debug, Clone)]
pub struct QuarantinedDesign {
    /// Design name.
    pub name: String,
    /// Stage the design failed in.
    pub stage: Stage,
    /// The error that caused the quarantine.
    pub error: StaError,
}

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainingSummary {
    /// Per-design `(name, positive label rate)` over the designs that
    /// actually entered training.
    pub design_positive_rates: Vec<(String, f64)>,
    /// Designs skipped because validation or lowering failed; training
    /// proceeded on the remaining designs.
    pub quarantined: Vec<QuarantinedDesign>,
    /// Per-design `(name, pin count)` of pins whose TS evaluation was
    /// quarantined during the sweep (kept conservatively as variant). Only
    /// designs with at least one such pin appear; callers should log each
    /// entry once at warn level rather than per pin.
    pub ts_quarantined: Vec<(String, usize)>,
    /// Final training loss.
    pub final_loss: f32,
    /// Aggregate confusion counts of the trained model on its own training
    /// pins (sanity metric, not a generalisation claim).
    pub train_metrics: ConfusionCounts,
    /// Learning-rate backoff retries taken after divergence.
    pub retries: usize,
    /// `true` when optimisation still diverged after all retries.
    pub diverged: bool,
    /// `true` when the final weights were rolled back to a checkpoint.
    pub rolled_back: bool,
    /// `true` when the framework left training in the degraded state
    /// (see [`Framework::is_degraded`]).
    pub degraded: bool,
    /// Wall-clock time spent generating training data.
    pub data_time: Duration,
    /// Wall-clock time spent in GNN optimisation.
    pub train_time: Duration,
}

/// Per-design prediction statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictionStats {
    /// Pins predicted timing-variant.
    pub predicted_variant: usize,
    /// Pins hard-kept independently of the GNN (output-net, CPPR pins —
    /// or every live pin under the degraded keep-all fallback).
    pub hard_kept: usize,
    /// GNN inference wall-clock time.
    pub inference_time: Duration,
}

/// Outcome of running the framework on one design.
#[derive(Debug)]
pub struct RunOutcome {
    /// The generated macro model.
    pub model: MacroModel,
    /// Pins kept in the model.
    pub kept_pins: usize,
    /// Prediction statistics.
    pub prediction: PredictionStats,
    /// `true` when the keep mask came from the degraded pure-ILM
    /// fallback rather than the GNN.
    pub degraded: bool,
}

/// The trained (or trainable) framework.
#[derive(Debug)]
pub struct Framework {
    config: FrameworkConfig,
    model: Option<GnnModel>,
    degraded: bool,
}

/// Checkpoint stage key for the post-training final artifact.
const TRAIN_FINAL_STAGE: &str = "train_final";
/// Epoch interval between training checkpoints on the resumable path.
const TRAIN_CKPT_EVERY: usize = 10;

/// Maps a checkpoint-layer failure into a stage-tagged framework error.
fn ckpt_err(stage: Stage, e: CkptError) -> TmmError {
    TmmError::new(
        stage,
        StaError::Validation { artifact: "checkpoint", errors: 1, first: e.to_string() },
    )
}

/// Serialises the completed-training artifact (`train_final v1`): the
/// stable [`TrainReport`] facts on the first line, the trained model text
/// verbatim after it. Loss histories are *not* stored — the summary never
/// reads them, and everything else is recomputed deterministically.
fn render_train_final(model: &GnnModel, report: &TrainReport) -> String {
    format!(
        "train_final v1 final_loss {:e} retries {} stopped_early {} rolled_back {} diverged {}\n{}",
        report.final_loss,
        report.retries,
        u8::from(report.stopped_early),
        u8::from(report.rolled_back),
        u8::from(report.diverged),
        model.to_text()
    )
}

fn parse_train_final(payload: &str) -> std::result::Result<(GnnModel, TrainReport), String> {
    let (head, model_text) =
        payload.split_once('\n').ok_or("missing model text after header")?;
    let t: Vec<&str> = head.split_whitespace().collect();
    if t.len() != 12 {
        return Err(format!("header has {} tokens, expected 12", t.len()));
    }
    for (i, kw) in [
        (0, "train_final"),
        (1, "v1"),
        (2, "final_loss"),
        (4, "retries"),
        (6, "stopped_early"),
        (8, "rolled_back"),
        (10, "diverged"),
    ] {
        if t[i] != kw {
            return Err(format!("expected `{kw}` at token {i}, found `{}`", t[i]));
        }
    }
    let final_loss = t[3].parse::<f32>().map_err(|e| format!("bad final_loss: {e}"))?;
    let retries = t[5].parse::<usize>().map_err(|e| format!("bad retries: {e}"))?;
    let flag = |v: &str, kw: &str| match v {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad {kw} flag `{other}`")),
    };
    let stopped_early = flag(t[7], "stopped_early")?;
    let rolled_back = flag(t[9], "rolled_back")?;
    let diverged = flag(t[11], "diverged")?;
    let model = GnnModel::from_text(model_text).map_err(|e| format!("embedded model: {e}"))?;
    Ok((
        model,
        TrainReport {
            history: Vec::new(),
            final_loss,
            val_history: Vec::new(),
            stopped_early,
            retries,
            rolled_back,
            diverged,
        },
    ))
}

/// Maps a validation report into a stage-tagged error when it contains
/// error-severity diagnostics.
fn validated(stage: Stage, design: Option<&str>, report: ValidationReport) -> Result<()> {
    match report.into_result() {
        Ok(_) => Ok(()),
        Err(e) => Err(match design {
            Some(d) => TmmError::for_design(stage, d, e),
            None => TmmError::new(stage, e),
        }),
    }
}

impl Framework {
    /// Creates an untrained framework.
    #[must_use]
    pub fn new(config: FrameworkConfig) -> Self {
        Framework { config, model: None, degraded: false }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// `true` once [`Framework::train`] has produced a model.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// `true` when a model exists but cannot be trusted (training
    /// diverged beyond recovery, or non-finite weights were imported).
    /// Prediction then uses the pure-ILM keep-all fallback.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Runs the per-design stage-1 pipeline: validation (when enabled),
    /// lowering, ILM extraction, TS dataset generation.
    fn prepare_design(
        &self,
        name: &str,
        netlist: &Netlist,
        library: &Library,
        ds_opts: &DatasetOptions,
        ckpt: Option<&mut (dyn StageStore + '_)>,
    ) -> Result<PinDataset> {
        if self.config.validate {
            validated(Stage::Validation, Some(name), validate_netlist(netlist, library))?;
        }
        let flat = ArcGraph::from_netlist(netlist, library)
            .map_err(|e| TmmError::for_design(Stage::DataGeneration, name, e))?;
        if self.config.validate {
            validated(Stage::Validation, Some(name), validate_arc_graph(&flat))?;
        }
        let (ilm, _) = extract_ilm(&flat)
            .map_err(|e| TmmError::for_design(Stage::DataGeneration, name, e))?;
        match ckpt {
            Some(store) => build_dataset_ckpt(&ilm, ds_opts, store, &format!("ts.{name}")),
            None => build_dataset(&ilm, ds_opts),
        }
        .map_err(|e| TmmError::for_design(Stage::DataGeneration, name, e))
    }

    /// Stage 1 + 2: generates TS training data from each `(name, netlist)`
    /// design and trains the GNN.
    ///
    /// Designs whose stage-1 pipeline fails are quarantined (recorded in
    /// [`TrainingSummary::quarantined`]) and training proceeds on the
    /// rest.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Validation`] error when the *library* is
    /// invalid, and a [`Stage::Training`] error when every design was
    /// quarantined.
    pub fn train(
        &mut self,
        designs: &[(String, Netlist)],
        library: &Library,
    ) -> Result<TrainingSummary> {
        self.train_impl(designs, library, None)
    }

    /// [`Framework::train`] with crash-safe checkpointing: TS sweeps
    /// checkpoint fixed-size pin chunks per design (stage `ts.<name>`),
    /// GNN optimisation checkpoints every [`TRAIN_CKPT_EVERY`] epochs
    /// (stage [`tmm_gnn::TRAIN_STAGE`]), and the completed training run is
    /// sealed as a `train_final` artifact so a crash *after* training never
    /// re-trains. A resumed run reproduces the uninterrupted run
    /// bit-for-bit: the checkpoint stores only what deterministic
    /// recomputation would have produced anyway.
    ///
    /// # Errors
    ///
    /// As [`Framework::train`]; checkpoint-layer failures (unwritable or
    /// corrupt store) surface as [`StaError::Validation`] with artifact
    /// `"checkpoint"` at the stage that hit them.
    pub fn train_ckpt(
        &mut self,
        designs: &[(String, Netlist)],
        library: &Library,
        store: &mut dyn StageStore,
    ) -> Result<TrainingSummary> {
        self.train_impl(designs, library, Some(store))
    }

    fn train_impl(
        &mut self,
        designs: &[(String, Netlist)],
        library: &Library,
        mut ckpt: Option<&mut (dyn StageStore + '_)>,
    ) -> Result<TrainingSummary> {
        if self.config.validate {
            validated(Stage::Validation, None, validate_library(library))?;
        }
        let data_start = Instant::now();
        let mut samples: Vec<TrainSample> = Vec::with_capacity(designs.len());
        let mut design_positive_rates = Vec::with_capacity(designs.len());
        let mut quarantined: Vec<QuarantinedDesign> = Vec::new();
        let mut ts_quarantined: Vec<(String, usize)> = Vec::new();
        let ds_opts = self.config.dataset_options();
        {
            let mut stage_span = tmm_obs::span("data_generation", tmm_obs::STAGE_CAT);
            let stage_progress =
                tmm_obs::progress_start("data_generation", "", designs.len() as u64);
            for (name, netlist) in designs {
                let mut design_span = tmm_obs::span("prepare_design", "core");
                design_span.arg("design", name);
                let design_ckpt = ckpt.as_deref_mut();
                match self.prepare_design(name, netlist, library, &ds_opts, design_ckpt) {
                    Ok(dataset) => {
                        design_positive_rates.push((name.clone(), dataset.positive_rate));
                        let failures = dataset.ts_failure_count();
                        if failures > 0 {
                            tmm_obs::warn(
                                &[
                                    ("stage", "data_generation"),
                                    ("design", name),
                                    ("pins", &failures.to_string()),
                                ],
                                "TS probes quarantined; pins labelled conservatively",
                            );
                            ts_quarantined.push((name.clone(), failures));
                        }
                        samples.push(dataset.sample);
                    }
                    Err(e) => {
                        tmm_obs::warn(
                            &[
                                ("stage", &e.stage.to_string()),
                                ("design", name),
                                ("error", &e.source.to_string()),
                            ],
                            "design quarantined; training proceeds without it",
                        );
                        tmm_obs::counter_add("tmm_designs_quarantined_total", &[], 1);
                        quarantined.push(QuarantinedDesign {
                            name: name.clone(),
                            stage: e.stage,
                            error: e.source,
                        });
                    }
                }
                stage_progress.add(1);
            }
            stage_span.arg_f64("designs", designs.len() as f64);
            stage_span.arg_f64("quarantined", quarantined.len() as f64);
        }
        tmm_obs::counter_add("tmm_designs_trained_total", &[], samples.len() as u64);
        let data_time = data_start.elapsed();
        if samples.is_empty() {
            let detail = quarantined.first().map_or_else(
                || "no designs supplied".to_string(),
                |q| format!("first: {} failed {} with {}", q.name, q.stage, q.error),
            );
            return Err(TmmError::new(
                Stage::Training,
                StaError::IllegalEdit(format!(
                    "no trainable designs ({} of {} quarantined; {detail})",
                    quarantined.len(),
                    designs.len()
                )),
            ));
        }

        let train_start = Instant::now();
        let mut gnn = GnnModel::new(
            self.config.feature_count(),
            tmm_gnn::ModelConfig {
                task: self.config.task(),
                ..self.config.model
            },
        );
        let report = {
            let mut stage_span = tmm_obs::span("training", tmm_obs::STAGE_CAT);
            let _stage_progress = tmm_obs::progress_start("training", "", 0);
            let report = match ckpt.as_deref_mut() {
                Some(store) => {
                    // A sealed training run never re-trains: restore the
                    // model and the stable report facts from `train_final`.
                    let sealed = if store.is_done(TRAIN_FINAL_STAGE) {
                        store.load(TRAIN_FINAL_STAGE, 0).map_err(|e| ckpt_err(Stage::Training, e))?
                    } else {
                        None
                    };
                    match sealed {
                        Some(payload) => {
                            let (model, report) = parse_train_final(&payload).map_err(|m| {
                                ckpt_err(
                                    Stage::Training,
                                    CkptError::Corrupt(format!("train_final artifact: {m}")),
                                )
                            })?;
                            tmm_obs::counter_add("tmm_train_final_restored_total", &[], 1);
                            gnn = model;
                            report
                        }
                        None => {
                            let mut hook = CkptHook { store, every: TRAIN_CKPT_EVERY };
                            let report = gnn
                                .train_resumable(&samples, &self.config.train, Some(&mut hook))
                                .map_err(|e| ckpt_err(Stage::Training, e))?;
                            let store = hook.store;
                            store
                                .save(TRAIN_FINAL_STAGE, 0, &render_train_final(&gnn, &report))
                                .map_err(|e| ckpt_err(Stage::Training, e))?;
                            store
                                .mark_done(TRAIN_FINAL_STAGE)
                                .map_err(|e| ckpt_err(Stage::Training, e))?;
                            report
                        }
                    }
                }
                None => gnn.train(&samples, &self.config.train),
            };
            stage_span.arg_f64("final_loss", f64::from(report.final_loss));
            stage_span.arg_f64("retries", report.retries as f64);
            report
        };
        let train_time = train_start.elapsed();
        // A model that diverged beyond recovery (or somehow ended with
        // non-finite weights) is kept for inspection but marked
        // untrustworthy; prediction will use the keep-all fallback.
        self.degraded = report.diverged || !gnn.weights_finite();

        let mut train_metrics = ConfusionCounts::default();
        if !self.config.regression && !self.degraded {
            for s in &samples {
                let probs = gnn.predict_par(&s.graph, &s.features, self.config.train.threads);
                let m = classify_metrics(
                    &probs,
                    &s.labels,
                    s.mask.as_deref(),
                    self.config.keep_threshold,
                );
                train_metrics.tp += m.tp;
                train_metrics.fp += m.fp;
                train_metrics.fn_ += m.fn_;
                train_metrics.tn += m.tn;
            }
        }
        self.model = Some(gnn);
        Ok(TrainingSummary {
            design_positive_rates,
            quarantined,
            ts_quarantined,
            final_loss: report.final_loss,
            train_metrics,
            retries: report.retries,
            diverged: report.diverged,
            rolled_back: report.rolled_back,
            degraded: self.degraded,
            data_time,
            train_time,
        })
    }

    /// Stage 3a: predicts the keep mask for an interface-logic graph.
    ///
    /// On a degraded framework this returns the pure-ILM fallback: every
    /// live pin kept, `predicted_variant == 0`, all pins counted as
    /// hard-kept.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Prediction`] error if the framework is
    /// untrained.
    pub fn predict_keep_mask(&self, ilm: &ArcGraph) -> Result<(Vec<bool>, PredictionStats)> {
        let Some(model) = &self.model else {
            return Err(TmmError::new(
                Stage::Prediction,
                StaError::IllegalEdit("framework is not trained".into()),
            ));
        };
        let mut stage_span = tmm_obs::span("prediction", tmm_obs::STAGE_CAT);
        if self.degraded {
            // Keep-all fallback: an unhealthy model must never drop a
            // pin, so the macro degenerates to the full ILM.
            tmm_obs::counter_add("tmm_predict_degraded_total", &[], 1);
            tmm_obs::warn(
                &[("stage", "prediction")],
                "degraded model: keep-all fallback, macro degenerates to the full ILM",
            );
            stage_span.arg("outcome", "degraded");
            let keep: Vec<bool> = ilm.nodes().iter().map(|n| !n.dead).collect();
            let hard_kept = keep.iter().filter(|&&k| k).count();
            let stats = PredictionStats {
                predicted_variant: 0,
                hard_kept,
                inference_time: Duration::ZERO,
            };
            return Ok((keep, stats));
        }
        let start = Instant::now();
        let features = extract_features(ilm, self.config.with_cppr_feature);
        let graph =
            NodeGraph::from_edges(ilm.node_count(), &pin_graph_edges(ilm), NeighborMode::Undirected);
        let scores = model.predict_par(&graph, &features, self.config.train.threads);
        let mut keep: Vec<bool> = scores
            .iter()
            .map(|&p| {
                if self.config.regression {
                    f64::from(p) > self.config.ts.zero_eps
                } else {
                    p >= self.config.keep_threshold
                }
            })
            .collect();
        let predicted_variant = keep
            .iter()
            .zip(ilm.nodes())
            .filter(|&(&k, n)| k && !n.dead)
            .count();
        // Hard keeps that no modeler may drop: pins whose delay depends on
        // the context output load. CPPR-crucial clock pins are *not*
        // hard-kept — the GNN learns them from the §5.1 label augmentation
        // (and, with `is_CPPR`, sees them explicitly), which is exactly the
        // Table 4 ablation.
        let mut hard_kept = 0usize;
        for (i, &h) in output_variant_pins(ilm).iter().enumerate() {
            if h && !keep[i] {
                keep[i] = true;
                hard_kept += 1;
            }
        }
        let stats =
            PredictionStats { predicted_variant, hard_kept, inference_time: start.elapsed() };
        stage_span.arg_f64("predicted_variant", predicted_variant as f64);
        stage_span.arg_f64("hard_kept", hard_kept as f64);
        tmm_obs::counter_add("tmm_predict_variant_pins_total", &[], predicted_variant as u64);
        Ok((keep, stats))
    }

    /// Stage 3: generates a macro model for a flat design graph.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Validation`] error when validation is enabled
    /// and the flat graph is invalid, a [`Stage::Prediction`] error if
    /// untrained, and a [`Stage::MacroGeneration`] error on generation
    /// failures.
    pub fn generate_macro(&self, flat: &ArcGraph) -> Result<RunOutcome> {
        self.generate_macro_impl(flat, None)
    }

    fn generate_macro_impl(
        &self,
        flat: &ArcGraph,
        ckpt: Option<&mut (dyn StageStore + '_)>,
    ) -> Result<RunOutcome> {
        if self.config.validate {
            validated(Stage::Validation, None, validate_arc_graph(flat))?;
        }
        let prediction_progress = tmm_obs::progress_start("prediction", flat.name(), 0);
        let (ilm, _) =
            extract_ilm(flat).map_err(|e| TmmError::new(Stage::MacroGeneration, e))?;
        let (keep, prediction) = self.predict_keep_mask(&ilm)?;
        drop(prediction_progress);
        let mut stage_span = tmm_obs::span("macro_generation", tmm_obs::STAGE_CAT);
        let _stage_progress = tmm_obs::progress_start("macro_generation", flat.name(), 0);
        stage_span.arg("design", flat.name());
        let model = match ckpt {
            Some(store) => MacroModel::generate_ckpt(
                flat,
                &keep,
                &self.config.macro_options,
                store,
                "merge",
            ),
            None => MacroModel::generate(flat, &keep, &self.config.macro_options),
        }
        .map_err(|e| TmmError::new(Stage::MacroGeneration, e))?;
        stage_span.arg_f64("kept_pins", model.stats().kept_pins as f64);
        Ok(RunOutcome {
            kept_pins: model.stats().kept_pins,
            model,
            prediction,
            degraded: self.degraded,
        })
    }

    /// Serialises the trained GNN (architecture + weights) so inference can
    /// be reused across processes without regenerating TS data.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Export`] error if the framework is untrained.
    pub fn export_model(&self) -> Result<String> {
        self.model.as_ref().map(GnnModel::to_text).ok_or_else(|| {
            TmmError::new(Stage::Export, StaError::IllegalEdit("framework is not trained".into()))
        })
    }

    /// Restores a framework from a serialised GNN and a configuration. The
    /// configuration's feature switches must match the model's input
    /// dimension.
    ///
    /// With [`FrameworkConfig::validate`] on, the model is additionally
    /// checked for round-trip integrity (it must re-serialise to a text
    /// that parses back identically), and a model with non-finite
    /// weights imports in the degraded state rather than failing.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Import`] error on malformed model text, a
    /// feature-dimension mismatch, or a round-trip failure.
    pub fn import_model(config: FrameworkConfig, text: &str) -> Result<Framework> {
        let parse_err = |e: StaError| TmmError::new(Stage::Import, e);
        let model = GnnModel::from_text(text).map_err(|e| {
            parse_err(StaError::ParseFormat { line: 0, message: e.to_string() })
        })?;
        if model.in_dim() != config.feature_count() {
            return Err(parse_err(StaError::IllegalEdit(format!(
                "model expects {} features, configuration provides {}",
                model.in_dim(),
                config.feature_count()
            ))));
        }
        let mut degraded = false;
        if config.validate {
            let canonical = model.to_text();
            let reparsed = GnnModel::from_text(&canonical).map_err(|e| {
                parse_err(StaError::Validation {
                    artifact: "gnn model",
                    errors: 1,
                    first: format!("re-serialised model failed to parse: {e}"),
                })
            })?;
            if reparsed.to_text() != canonical {
                return Err(parse_err(StaError::Validation {
                    artifact: "gnn model",
                    errors: 1,
                    first: "serialised model does not round-trip".into(),
                }));
            }
            degraded = !model.weights_finite();
        }
        Ok(Framework { config, model: Some(model), degraded })
    }

    /// Convenience one-shot: trains on the design itself if the framework
    /// is untrained (useful for quickstarts), then generates its macro
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates training and generation errors.
    pub fn run_on(&mut self, netlist: &Netlist, library: &Library) -> Result<RunOutcome> {
        self.run_on_impl(netlist, library, None)
    }

    /// [`Framework::run_on`] with crash-safe checkpointing across every
    /// stage: resumable TS sweeps and GNN training (see
    /// [`Framework::train_ckpt`]) plus merge-pass traces (stage `"merge"`,
    /// see [`MacroModel::generate_ckpt`]; prediction is cheap and
    /// deterministic, so it is always recomputed). A run killed at any
    /// point and resumed against the same store produces a byte-identical
    /// macro model.
    ///
    /// # Errors
    ///
    /// As [`Framework::run_on`], plus classed checkpoint failures.
    pub fn run_on_ckpt(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        store: &mut dyn StageStore,
    ) -> Result<RunOutcome> {
        self.run_on_impl(netlist, library, Some(store))
    }

    fn run_on_impl(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        mut ckpt: Option<&mut (dyn StageStore + '_)>,
    ) -> Result<RunOutcome> {
        if !self.is_trained() {
            self.train_impl(
                std::slice::from_ref(&(netlist.name().to_string(), netlist.clone())),
                library,
                ckpt.as_deref_mut(),
            )?;
        }
        let flat = ArcGraph::from_netlist(netlist, library)
            .map_err(|e| TmmError::for_design(Stage::DataGeneration, netlist.name(), e))?;
        self.generate_macro_impl(&flat, ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_faults::{corrupt_library, FaultOp};
    use tmm_gnn::TrainConfig;
    use tmm_macromodel::eval::{evaluate, EvalOptions};
    use tmm_sensitivity::TsOptions;
    use tmm_sta::cppr::cppr_crucial_pins;
    use tmm_sta::netlist::NetlistBuilder;

    fn quick_config() -> FrameworkConfig {
        FrameworkConfig {
            train: TrainConfig { epochs: 60, ..Default::default() },
            ts: TsOptions { contexts: 2, ..Default::default() },
            ..Default::default()
        }
    }

    fn design(seed: u64, lib: &Library) -> Netlist {
        CircuitSpec::new(format!("d{seed}"))
            .inputs(4)
            .outputs(4)
            .register_banks(2, 4)
            .cloud(2, 5)
            .seed(seed)
            .generate(lib)
            .unwrap()
    }

    /// A netlist that builds fine but contains a combinational loop, so
    /// lowering to an `ArcGraph` fails.
    fn cyclic_design(lib: &Library) -> Netlist {
        let mut b = NetlistBuilder::new("cyclic", lib);
        let pi = b.input("in").unwrap();
        let po = b.output("out").unwrap();
        let buf = b.cell("u0", "BUFX1").unwrap();
        let i1 = b.cell("i1", "INVX1").unwrap();
        let i2 = b.cell("i2", "INVX1").unwrap();
        let buf_a = b.pin_of(buf, "A").unwrap();
        let buf_z = b.pin_of(buf, "Z").unwrap();
        let i1_a = b.pin_of(i1, "A").unwrap();
        let i1_z = b.pin_of(i1, "Z").unwrap();
        let i2_a = b.pin_of(i2, "A").unwrap();
        let i2_z = b.pin_of(i2, "Z").unwrap();
        b.connect("n_in", pi, &[buf_a]).unwrap();
        b.connect("n_out", buf_z, &[po]).unwrap();
        b.connect("n1", i1_z, &[i2_a]).unwrap();
        b.connect("n2", i2_z, &[i1_a]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn untrained_framework_refuses_prediction() {
        let lib = Library::synthetic(13);
        let fw = Framework::new(quick_config());
        let flat = ArcGraph::from_netlist(&design(1, &lib), &lib).unwrap();
        assert!(fw.generate_macro(&flat).is_err());
        assert!(!fw.is_trained());
    }

    #[test]
    fn train_then_generate_produces_accurate_model() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(quick_config());
        let designs: Vec<(String, Netlist)> =
            (1..=2).map(|s| (format!("d{s}"), design(s, &lib))).collect();
        let summary = fw.train(&designs, &lib).unwrap();
        assert!(fw.is_trained());
        assert!(!fw.is_degraded());
        assert!(summary.final_loss.is_finite());
        assert!(summary.quarantined.is_empty());
        assert!(!summary.diverged);
        assert_eq!(summary.design_positive_rates.len(), 2);
        // unseen design
        let flat = ArcGraph::from_netlist(&design(9, &lib), &lib).unwrap();
        let outcome = fw.generate_macro(&flat).unwrap();
        assert!(!outcome.degraded);
        assert!(outcome.kept_pins > 0);
        assert!(outcome.kept_pins < flat.live_nodes());
        let result = evaluate(
            &flat,
            &outcome.model,
            &EvalOptions { contexts: 3, ..Default::default() },
        )
        .unwrap();
        assert!(
            result.accuracy.max < 60.0,
            "GNN keep-set should keep error small, got {}",
            result.accuracy.max
        );
    }

    #[test]
    fn run_on_self_trains_if_needed() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(quick_config());
        let d = design(3, &lib);
        let outcome = fw.run_on(&d, &lib).unwrap();
        assert!(fw.is_trained());
        assert!(outcome.kept_pins > 0);
        assert!(outcome.prediction.predicted_variant > 0);
    }

    #[test]
    fn export_import_round_trip_predicts_identically() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(quick_config());
        let d = design(4, &lib);
        fw.train(&[("d4".into(), d.clone())], &lib).unwrap();
        let text = fw.export_model().unwrap();
        let restored = Framework::import_model(*fw.config(), &text).unwrap();
        assert!(restored.is_trained());
        assert!(!restored.is_degraded());
        let flat = ArcGraph::from_netlist(&d, &lib).unwrap();
        let (ilm, _) = extract_ilm(&flat).unwrap();
        let (keep_a, _) = fw.predict_keep_mask(&ilm).unwrap();
        let (keep_b, _) = restored.predict_keep_mask(&ilm).unwrap();
        assert_eq!(keep_a, keep_b, "restored model must decide identically");
    }

    #[test]
    fn import_rejects_feature_mismatch() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(quick_config()); // 8 features
        fw.train(&[("d".into(), design(6, &lib))], &lib).unwrap();
        let text = fw.export_model().unwrap();
        let err = Framework::import_model(FrameworkConfig::cppr(), &text); // 9 features
        assert!(err.is_err());
        assert_eq!(err.unwrap_err().stage, Stage::Import);
        let export_err = Framework::new(quick_config()).export_model().unwrap_err();
        assert_eq!(export_err.stage, Stage::Export, "untrained export");
    }

    #[test]
    fn cppr_mode_keeps_clock_branch_points() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(FrameworkConfig {
            cppr_mode: true,
            with_cppr_feature: true,
            train: TrainConfig { epochs: 40, ..Default::default() },
            ts: TsOptions { contexts: 2, ..Default::default() },
            ..Default::default()
        });
        let d = design(5, &lib);
        fw.train(&[("d5".into(), d.clone())], &lib).unwrap();
        let flat = ArcGraph::from_netlist(&d, &lib).unwrap();
        let (ilm, _) = extract_ilm(&flat).unwrap();
        let (keep, _) = fw.predict_keep_mask(&ilm).unwrap();
        for p in cppr_crucial_pins(&ilm) {
            assert!(keep[p.index()], "CPPR-crucial pin must be kept");
        }
    }

    #[test]
    fn train_quarantines_broken_design_and_still_trains() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(quick_config());
        let designs = vec![
            ("good1".to_string(), design(1, &lib)),
            ("bad".to_string(), cyclic_design(&lib)),
            ("good2".to_string(), design(2, &lib)),
        ];
        let summary = fw.train(&designs, &lib).unwrap();
        assert!(fw.is_trained());
        assert_eq!(summary.design_positive_rates.len(), 2);
        assert_eq!(summary.quarantined.len(), 1);
        let q = &summary.quarantined[0];
        assert_eq!(q.name, "bad");
        assert_eq!(q.stage, Stage::DataGeneration);
        assert!(matches!(q.error, StaError::CombinationalCycle(_)), "{:?}", q.error);
        // The surviving model still works on an unseen design.
        let flat = ArcGraph::from_netlist(&design(9, &lib), &lib).unwrap();
        assert!(fw.generate_macro(&flat).is_ok());
    }

    #[test]
    fn train_errors_when_every_design_is_quarantined() {
        let lib = Library::synthetic(13);
        let mut fw = Framework::new(quick_config());
        let designs = vec![("bad".to_string(), cyclic_design(&lib))];
        let err = fw.train(&designs, &lib).unwrap_err();
        assert_eq!(err.stage, Stage::Training);
        assert!(!fw.is_trained());
        assert!(err.to_string().contains("quarantined"), "{err}");
    }

    #[test]
    fn train_rejects_poisoned_library_at_validation() {
        let lib = Library::synthetic(13);
        let designs = vec![("d1".to_string(), design(1, &lib))];
        let bad_lib = corrupt_library(FaultOp::NanLutEntries, &lib, 5).unwrap();
        let mut fw = Framework::new(quick_config());
        let err = fw.train(&designs, &bad_lib).unwrap_err();
        assert_eq!(err.stage, Stage::Validation);
        assert!(matches!(err.source, StaError::Validation { .. }), "{:?}", err.source);
    }

    /// Asserts two training summaries describe bit-identical runs on every
    /// stable (non-wall-clock) fact.
    fn assert_summaries_identical(a: &TrainingSummary, b: &TrainingSummary, what: &str) {
        let rates =
            |s: &TrainingSummary| -> Vec<(String, u64)> {
                s.design_positive_rates.iter().map(|(n, r)| (n.clone(), r.to_bits())).collect()
            };
        assert_eq!(rates(a), rates(b), "{what}: positive rates");
        let quarantine = |s: &TrainingSummary| -> Vec<(String, Stage)> {
            s.quarantined.iter().map(|q| (q.name.clone(), q.stage)).collect()
        };
        assert_eq!(quarantine(a), quarantine(b), "{what}: quarantined designs");
        assert_eq!(a.ts_quarantined, b.ts_quarantined, "{what}: TS-quarantined pins");
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits(), "{what}: final loss");
        assert_eq!(a.train_metrics, b.train_metrics, "{what}: train metrics");
        assert_eq!(a.retries, b.retries, "{what}: divergence retries");
        assert_eq!(
            (a.diverged, a.rolled_back, a.degraded),
            (b.diverged, b.rolled_back, b.degraded),
            "{what}: outcome flags"
        );
    }

    #[test]
    fn overlapping_quarantine_retry_and_resume_reproduce_the_uncrashed_run() {
        use tmm_ckpt::MemStore;
        // One run exercising THREE failure paths at once: a quarantined
        // design (combinational cycle), divergence-triggered learning-rate
        // retries (absurd initial lr with backoff), and checkpoint-resume
        // after a simulated kill at every persisted point. The resumed runs
        // must reproduce the uninterrupted run exactly: same quarantine
        // records, same retry count, same losses, same exported weights.
        let lib = Library::synthetic(13);
        let config = FrameworkConfig {
            train: TrainConfig {
                epochs: 25,
                lr: 1e30,
                max_retries: 4,
                lr_backoff: 1e-29,
                ..Default::default()
            },
            ts: TsOptions { contexts: 2, ..Default::default() },
            ..Default::default()
        };
        let designs = vec![
            ("good1".to_string(), design(1, &lib)),
            ("bad".to_string(), cyclic_design(&lib)),
            ("good2".to_string(), design(2, &lib)),
        ];

        let mut plain_fw = Framework::new(config);
        let plain = plain_fw.train(&designs, &lib).unwrap();
        assert_eq!(plain.quarantined.len(), 1, "cycle design must quarantine");
        assert!(plain.retries > 0, "absurd lr must trigger retries");
        let plain_model = plain_fw.export_model().unwrap();

        let mut full = MemStore::default();
        let mut ckpt_fw = Framework::new(config);
        let ckpted = ckpt_fw.train_ckpt(&designs, &lib, &mut full).unwrap();
        assert_summaries_identical(&plain, &ckpted, "checkpointed vs plain");
        assert_eq!(plain_model, ckpt_fw.export_model().unwrap());
        let saves = full.saves();
        assert!(saves >= 3, "TS chunks + train epochs + train_final, got {saves}");

        // Kill after a spread of checkpoint writes, including 0 (nothing
        // durable) and `saves` (everything durable, done markers lost).
        let step = (saves / 5).max(1);
        for kept in (0..=saves).step_by(step) {
            let mut store = full.truncated(kept);
            let mut fw = Framework::new(config);
            let resumed = fw.train_ckpt(&designs, &lib, &mut store).unwrap();
            assert_summaries_identical(&plain, &resumed, &format!("resume at save {kept}"));
            assert_eq!(
                plain_model,
                fw.export_model().unwrap(),
                "resume at save {kept}: exported weights must be bit-identical"
            );
        }
    }

    #[test]
    fn run_on_ckpt_resume_yields_byte_identical_macro_model() {
        use tmm_ckpt::MemStore;
        let lib = Library::synthetic(13);
        let d = design(3, &lib);

        let mut plain_fw = Framework::new(quick_config());
        let plain = plain_fw.run_on(&d, &lib).unwrap();
        let plain_text = plain.model.serialize();

        let mut full = MemStore::default();
        let mut ckpt_fw = Framework::new(quick_config());
        let ckpted = ckpt_fw.run_on_ckpt(&d, &lib, &mut full).unwrap();
        assert_eq!(plain_text, ckpted.model.serialize());
        assert_eq!(plain.kept_pins, ckpted.kept_pins);
        let saves = full.saves();

        let step = (saves / 4).max(1);
        for kept in (0..=saves).step_by(step) {
            let mut store = full.truncated(kept);
            let mut fw = Framework::new(quick_config());
            let resumed = fw.run_on_ckpt(&d, &lib, &mut store).unwrap();
            assert_eq!(
                plain_text,
                resumed.model.serialize(),
                "resume at save {kept}: macro model must be byte-identical"
            );
            assert_eq!(plain.prediction.predicted_variant, resumed.prediction.predicted_variant);
        }
    }

    #[test]
    fn corrupt_train_final_artifact_is_a_classed_error_not_silent_reuse() {
        use tmm_ckpt::MemStore;
        let lib = Library::synthetic(13);
        let designs = vec![("d1".to_string(), design(1, &lib))];
        let mut full = MemStore::default();
        let mut fw = Framework::new(quick_config());
        fw.train_ckpt(&designs, &lib, &mut full).unwrap();

        // Tamper with the sealed artifact but keep the done marker: resume
        // must fail with a classed checkpoint error, never reuse garbage.
        full.save(TRAIN_FINAL_STAGE, 0, "train_final v1 final_loss garbage").unwrap();
        let mut fw2 = Framework::new(quick_config());
        let err = fw2.train_ckpt(&designs, &lib, &mut full).unwrap_err();
        assert_eq!(err.stage, Stage::Training);
        assert!(
            matches!(err.source, StaError::Validation { artifact: "checkpoint", .. }),
            "{:?}",
            err.source
        );
    }

    #[test]
    fn degraded_training_falls_back_to_pure_ilm() {
        let lib = Library::synthetic(13);
        // An absurd learning rate with no retries diverges immediately
        // and cannot recover, leaving the framework degraded.
        let mut fw = Framework::new(FrameworkConfig {
            train: TrainConfig {
                epochs: 10,
                lr: 1e30,
                max_retries: 0,
                ..Default::default()
            },
            ts: TsOptions { contexts: 2, ..Default::default() },
            ..Default::default()
        });
        let d = design(7, &lib);
        let summary = fw.train(&[("d7".into(), d.clone())], &lib).unwrap();
        assert!(summary.diverged);
        assert!(summary.degraded);
        assert!(fw.is_trained());
        assert!(fw.is_degraded());
        // Prediction degrades to keep-all: the macro is the full ILM.
        let flat = ArcGraph::from_netlist(&d, &lib).unwrap();
        let outcome = fw.generate_macro(&flat).unwrap();
        assert!(outcome.degraded);
        assert_eq!(outcome.prediction.predicted_variant, 0);
        let (ilm, _) = extract_ilm(&flat).unwrap();
        let live = ilm.live_nodes();
        assert_eq!(outcome.prediction.hard_kept, live, "all live pins hard-kept");
        assert!(outcome.kept_pins > 0);
    }
}
