//! Model-accuracy and performance evaluation (the paper's Fig. 2 flow).
//!
//! A macro model is judged by re-timing it under *fresh* random boundary
//! contexts and comparing every boundary-visible quantity against the flat
//! design: max/avg error in ps, model file size, generation runtime/memory,
//! and usage runtime/memory — the columns of Tables 3–6.

use crate::model::MacroModel;
use std::time::{Duration, Instant};
use tmm_sta::compare::DiffStats;
use tmm_sta::constraints::ContextSampler;
use tmm_sta::graph::ArcGraph;
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::Result;

/// Timed model uses per evaluation; [`EvalResult::usage_time`] is their
/// median.
const USES: usize = 5;

/// Options controlling the evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Number of fresh random contexts.
    pub contexts: usize,
    /// Sampler seed (distinct from any training seed).
    pub seed: u64,
    /// Evaluate with CPPR enabled.
    pub cppr: bool,
    /// Evaluate with AOCV derating enabled.
    pub aocv: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { contexts: 6, seed: 0xe7a1, cppr: false, aocv: false }
    }
}

/// Complete evaluation record of one model on one design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalResult {
    /// Boundary error statistics across all contexts (ps).
    pub accuracy: DiffStats,
    /// Serialised model size in bytes.
    pub model_bytes: usize,
    /// Generation wall-clock time.
    pub gen_time: Duration,
    /// Estimated generation memory in bytes.
    pub gen_memory: usize,
    /// Wall-clock time of one model use: reading the model file
    /// ([`MacroModel::parse`]) plus macro timing across all contexts; the
    /// median of [`USES`] timed uses.
    pub usage_time: Duration,
    /// Estimated model-usage memory in bytes.
    pub usage_memory: usize,
    /// Total flat (reference) timing wall-clock time across contexts.
    pub flat_time: Duration,
    /// Pins kept in the model.
    pub kept_pins: usize,
}

/// Evaluates `model` against the flat design it was generated from.
///
/// # Errors
///
/// Propagates analysis errors (infallible for valid graphs).
pub fn evaluate(flat: &ArcGraph, model: &MacroModel, opts: &EvalOptions) -> Result<EvalResult> {
    let mut sampler = ContextSampler::new(opts.seed);
    let analysis_opts = AnalysisOptions { cppr: opts.cppr, aocv: opts.aocv };
    let contexts = sampler.sample_many(flat, opts.contexts);
    let mut accuracy = DiffStats::default();
    let mut flat_time = Duration::ZERO;
    for ctx in &contexts {
        let t0 = Instant::now();
        let reference = Analysis::run_with_options(flat, ctx, analysis_opts)?;
        flat_time += t0.elapsed();
        let macro_an = model.analyze(ctx, analysis_opts)?;
        accuracy = accuracy.merged(reference.boundary().diff(macro_an.boundary()));
    }
    // One use is what a user does with the file: read it once
    // ([`MacroModel::parse`]), then time with it under every context. A
    // use takes a few milliseconds, so it is timed `USES` times and the
    // median kept. Accuracy above is scored once, on `model` itself.
    let text = model.serialize();
    let mut uses = [Duration::ZERO; USES];
    for use_time in &mut uses {
        let t = Instant::now();
        let read = MacroModel::parse(&text)?;
        for ctx in &contexts {
            read.analyze(ctx, analysis_opts)?;
        }
        *use_time = t.elapsed();
    }
    uses.sort_unstable();
    let usage_time = uses[USES / 2];
    Ok(EvalResult {
        accuracy,
        model_bytes: text.len(),
        gen_time: model.stats().gen_time,
        gen_memory: model.stats().gen_memory,
        usage_time,
        usage_memory: model.usage_memory(),
        flat_time,
        kept_pins: model.stats().kept_pins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MacroModelOptions;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::liberty::Library;

    fn flat() -> ArcGraph {
        let lib = Library::synthetic(8);
        let n = CircuitSpec::new("e")
            .inputs(4)
            .outputs(4)
            .register_banks(2, 4)
            .cloud(2, 6)
            .seed(55)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    #[test]
    fn keep_all_model_evaluates_exactly_without_compression() {
        let g = flat();
        let model = MacroModel::generate(
            &g,
            &vec![true; g.node_count()],
            &MacroModelOptions { compress_luts: false, ..Default::default() },
        )
        .unwrap();
        let r = evaluate(&g, &model, &EvalOptions { contexts: 3, ..Default::default() }).unwrap();
        assert!(r.accuracy.count > 0);
        assert!(r.accuracy.max < 1e-9, "exact model, got {}", r.accuracy.max);
        assert_eq!(r.model_bytes, model.file_size_bytes());
        assert!(r.usage_memory > 0);
    }

    #[test]
    fn collapsed_model_has_nonzero_but_bounded_error() {
        let g = flat();
        let model =
            MacroModel::generate(&g, &vec![false; g.node_count()], &MacroModelOptions::default())
                .unwrap();
        let r = evaluate(&g, &model, &EvalOptions { contexts: 4, ..Default::default() }).unwrap();
        assert!(r.accuracy.max > 0.0, "baked internals must cost accuracy");
        assert!(r.accuracy.max < 500.0, "but stay in the ps regime: {}", r.accuracy.max);
        assert!(r.accuracy.avg <= r.accuracy.max);
    }

    #[test]
    fn cppr_mode_compares_check_slacks() {
        let g = flat();
        let model = MacroModel::generate(
            &g,
            &vec![true; g.node_count()],
            &MacroModelOptions { compress_luts: false, ..Default::default() },
        )
        .unwrap();
        let r = evaluate(
            &g,
            &model,
            &EvalOptions { contexts: 2, cppr: true, ..Default::default() },
        )
        .unwrap();
        assert!(r.accuracy.max < 1e-9, "exact model stays exact under CPPR: {}", r.accuracy.max);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let g = flat();
        let model =
            MacroModel::generate(&g, &vec![false; g.node_count()], &MacroModelOptions::default())
                .unwrap();
        let opts = EvalOptions { contexts: 3, ..Default::default() };
        let a = evaluate(&g, &model, &opts).unwrap();
        let b = evaluate(&g, &model, &opts).unwrap();
        assert_eq!(a.accuracy.max, b.accuracy.max);
        assert_eq!(a.accuracy.avg, b.accuracy.avg);
    }
}
