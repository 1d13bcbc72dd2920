//! Timing sensitivity data generation — §4 and §5.1 of the DAC 2022 paper.
//!
//! - [`ts`] — the timing sensitivity metric (Eqs. (1)–(2), Fig. 5):
//!   per-pin boundary-error measurement under pin removal.
//! - [`filter`] — insensitive-pin filtering via slew-difference propagation
//!   and standardisation (§4.2, Figs. 7–8).
//! - [`features`] — the Table-1 training features, including the dedicated
//!   `is_CPPR` feature (§5.3).
//! - [`dataset`] — end-to-end training-data assembly producing
//!   [`tmm_gnn::TrainSample`]s.
//!
//! # Example
//!
//! ```
//! use tmm_circuits::CircuitSpec;
//! use tmm_macromodel::extract_ilm;
//! use tmm_sensitivity::dataset::{build_dataset, DatasetOptions};
//! use tmm_sta::graph::ArcGraph;
//! use tmm_sta::liberty::Library;
//!
//! # fn main() -> Result<(), tmm_sta::StaError> {
//! let lib = Library::synthetic(7);
//! let netlist = CircuitSpec::new("train").register_banks(1, 3).seed(5).generate(&lib)?;
//! let flat = ArcGraph::from_netlist(&netlist, &lib)?;
//! let (ilm, _) = extract_ilm(&flat)?;
//! let dataset = build_dataset(&ilm, &DatasetOptions::default())?;
//! assert!(dataset.positive_rate > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod features;
pub mod filter;
pub mod ts;

pub use dataset::{build_dataset, build_dataset_ckpt, DatasetOptions, PinDataset};
pub use features::{extract_features, pin_graph_edges, BASE_FEATURES, FEATURES_WITH_CPPR};
pub use filter::{filter_insensitive, standardise_sd, FilterOptions, FilterResult};
pub use ts::{
    dirty_probe_set, evaluate_ts, evaluate_ts_cloning, evaluate_ts_incremental,
    evaluate_ts_with_core, evaluate_ts_with_core_ckpt, ts_min_chunked_contexts, TsFailure,
    TsOptions, TsResult, TS_CKPT_CHUNK,
};
