//! Unified framework error: an [`StaError`] tagged with the pipeline
//! stage (and, when applicable, the design) it occurred in.
//!
//! Every [`Framework`](crate::Framework) entry point returns
//! [`TmmError`] so callers — most importantly the `tmm` CLI — can map a
//! failure to its class (validation, parse, analysis, …) without string
//! matching. Code that only cares about the underlying [`StaError`]
//! (the workspace examples, benches) keeps working unchanged: `?`
//! converts through [`From<TmmError> for StaError`], dropping the stage
//! tag.

use std::fmt;
use tmm_sta::StaError;

/// Framework result type.
pub type Result<T> = std::result::Result<T, TmmError>;

/// The pipeline stage a [`TmmError`] originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// Stage 1: lowering designs and generating TS training data.
    DataGeneration,
    /// An artifact validation pass at a stage boundary.
    Validation,
    /// Stage 2: GNN optimisation.
    Training,
    /// Stage 3a: keep-mask prediction.
    Prediction,
    /// Stage 3b: macro model generation.
    MacroGeneration,
    /// Deserialising a trained model.
    Import,
    /// Serialising a trained model.
    Export,
}

impl Stage {
    /// Stable lowercase name, used in diagnostics and CLI output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::DataGeneration => "data-generation",
            Stage::Validation => "validation",
            Stage::Training => "training",
            Stage::Prediction => "prediction",
            Stage::MacroGeneration => "macro-generation",
            Stage::Import => "import",
            Stage::Export => "export",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An [`StaError`] with the stage (and optionally the design) it hit.
#[derive(Debug, Clone, PartialEq)]
pub struct TmmError {
    /// Stage the error occurred in.
    pub stage: Stage,
    /// Design being processed, when the failure is design-scoped.
    pub design: Option<String>,
    /// The underlying error.
    pub source: StaError,
}

impl TmmError {
    /// Wraps `source` with a stage tag.
    #[must_use]
    pub fn new(stage: Stage, source: StaError) -> Self {
        TmmError { stage, design: None, source }
    }

    /// Wraps `source` with a stage tag and the design it was scoped to.
    #[must_use]
    pub fn for_design(stage: Stage, design: impl Into<String>, source: StaError) -> Self {
        TmmError { stage, design: Some(design.into()), source }
    }
}

impl fmt::Display for TmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.design {
            Some(d) => write!(f, "{} stage failed on design `{d}`: {}", self.stage, self.source),
            None => write!(f, "{} stage failed: {}", self.stage, self.source),
        }
    }
}

impl std::error::Error for TmmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Lossy compatibility conversion: drops the stage/design tag so
/// existing `Result<_, StaError>` call sites keep compiling with `?`.
impl From<TmmError> for StaError {
    fn from(e: TmmError) -> StaError {
        e.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_design() {
        let plain = TmmError::new(Stage::Training, StaError::IllegalEdit("boom".into()));
        assert_eq!(plain.to_string(), "training stage failed: illegal graph edit: boom");
        let scoped = TmmError::for_design(
            Stage::Validation,
            "d1",
            StaError::CombinationalCycle(3),
        );
        let msg = scoped.to_string();
        assert!(msg.starts_with("validation stage failed on design `d1`:"), "{msg}");
    }

    #[test]
    fn converts_back_to_sta_error() {
        let e = TmmError::new(Stage::Import, StaError::NodeOutOfRange(7));
        let sta: StaError = e.into();
        assert_eq!(sta, StaError::NodeOutOfRange(7));
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let e = TmmError::new(Stage::Prediction, StaError::NodeOutOfRange(7));
        assert!(e.source().is_some());
    }
}
