//! ILM-based timing macro model generation and the baselines the DAC 2022
//! paper compares against.
//!
//! - [`ilm`] — interface logic extraction (exact at the boundary).
//! - [`reduce`] — keep-set-driven serial/parallel merging (§5.2).
//! - [`lut_select`] — lookup-table index selection minimising interpolation
//!   error (from iTimerM, reused by the paper).
//! - [`model`] — the [`model::MacroModel`] container: generation pipeline,
//!   text serialisation (model file size), usage-as-a-timer.
//! - [`baselines`] — iTimerM \[5\], LibAbs/\[4\], and ATM \[6\] style generators.
//! - [`eval`] — the Fig. 2 accuracy/performance evaluation harness.
//!
//! # Example
//!
//! ```
//! use tmm_circuits::CircuitSpec;
//! use tmm_macromodel::eval::{evaluate, EvalOptions};
//! use tmm_macromodel::model::{MacroModel, MacroModelOptions};
//! use tmm_sta::graph::ArcGraph;
//! use tmm_sta::liberty::Library;
//!
//! # fn main() -> Result<(), tmm_sta::StaError> {
//! let lib = Library::synthetic(7);
//! let netlist = CircuitSpec::new("demo").register_banks(2, 4).seed(3).generate(&lib)?;
//! let flat = ArcGraph::from_netlist(&netlist, &lib)?;
//! // Keep every pin and skip LUT compression: the model is exact (and large).
//! let keep = vec![true; flat.node_count()];
//! let options = MacroModelOptions { compress_luts: false, ..Default::default() };
//! let model = MacroModel::generate(&flat, &keep, &options)?;
//! let result = evaluate(&flat, &model, &EvalOptions::default())?;
//! assert!(result.accuracy.max < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod eval;
pub mod ilm;
pub mod lut_select;
pub mod model;
pub mod reduce;

pub use eval::{evaluate, EvalOptions, EvalResult};
pub use ilm::{extract_ilm, IlmMask, IlmRegion};
pub use model::{GenStats, MacroModel, MacroModelOptions};
pub use reduce::{
    reduce_graph, reduce_graph_via_view_budget, ReducePolicy, ReduceStats, ViewReduction,
};
