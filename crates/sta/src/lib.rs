//! Block-level static timing analysis substrate for timing macro modeling.
//!
//! This crate provides everything the DAC 2022 *“Timing Macro Modeling with
//! Graph Neural Networks”* reproduction needs from a timer:
//!
//! - [`liberty`] — synthetic early/late NLDM cell libraries with 2-D
//!   delay/transition lookup tables ([`liberty::Lut2`]).
//! - [`netlist`] — gate-level netlists with cells, nets, ports and pins.
//! - [`parasitics`] — per-net wire loads and per-sink wire delays.
//! - [`graph`] — the pin-level [`graph::ArcGraph`] every analysis runs on;
//!   both flat designs and generated macro models lower to this form.
//! - [`constraints`] — boundary timing contexts (PI arrival/slew, PO
//!   load/required time) and seeded random context generation.
//! - [`propagate`] — early/late × rise/fall slew and arrival propagation,
//!   required-time back-propagation, and slack.
//! - [`cppr`] — common path pessimism removal on the clock network.
//! - [`compare`] — boundary-accuracy comparison between two analyses
//!   (the paper’s model-accuracy metric, Fig. 2).
//! - [`view`] — the immutable, shareable [`view::DesignCore`] and the
//!   copy-on-write [`view::GraphView`] overlay used for cheap what-if edits.
//! - [`incremental`] — the one pruned cone sweep behind every re-time, and
//!   [`incremental::IncrementalState`], which keeps a session's state live
//!   across boundary re-constraints and overlay edits.
//! - [`retime`] — cone-limited re-propagation of an edited [`view::GraphView`]
//!   against a frozen [`retime::ReferenceAnalysis`] (the same sweep).
//!
//! # Example
//!
//! ```
//! use tmm_sta::liberty::Library;
//! use tmm_sta::netlist::NetlistBuilder;
//! use tmm_sta::graph::ArcGraph;
//! use tmm_sta::constraints::Context;
//! use tmm_sta::propagate::Analysis;
//!
//! # fn main() -> Result<(), tmm_sta::StaError> {
//! let lib = Library::synthetic(7);
//! let mut b = NetlistBuilder::new("tiny", &lib);
//! let a = b.input("a")?;
//! let z = b.output("z")?;
//! let inv = b.cell("u1", "INVX1")?;
//! b.connect("n_a", a, &[b.pin_of(inv, "A")?])?;
//! b.connect("n_z", b.pin_of(inv, "Z")?, &[z])?;
//! let netlist = b.finish()?;
//! let graph = ArcGraph::from_netlist(&netlist, &lib)?;
//! let ctx = Context::nominal(&graph);
//! let analysis = Analysis::run(&graph, &ctx)?;
//! assert!(analysis.boundary().max_abs_at() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aocv;
pub mod compare;
pub mod constraints;
pub mod cppr;
pub mod graph;
pub mod incremental;
pub mod io;
pub mod liberty;
pub mod netlist;
pub mod parasitics;
pub mod propagate;
pub mod report;
pub mod retime;
pub mod split;
pub mod validate;
pub mod view;

mod error;
mod idhash;

pub use error::StaError;
pub use split::{Edge, Mode, Split, TransPair};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, StaError>;
