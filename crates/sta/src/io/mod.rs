//! Text interchange formats for libraries and netlists.
//!
//! The TAU contests exchange designs as Verilog + Liberty + SPEF + timing
//! assertion files. This module provides the equivalent for our substrate:
//! a self-describing text format for [`crate::liberty::Library`] and
//! [`crate::netlist::Netlist`] with full round-trip fidelity, so designs
//! and characterised libraries can be stored, diffed, and reloaded across
//! processes.
//!
//! - [`write_library`] / [`parse_library`] — Liberty-style cell libraries
//!   including every early/late NLDM table.
//! - [`write_netlist`] / [`parse_netlist`] — structural netlists with
//!   parasitics.
//!
//! # Example
//!
//! ```
//! use tmm_sta::io::{parse_library, write_library};
//! use tmm_sta::liberty::Library;
//!
//! # fn main() -> Result<(), tmm_sta::StaError> {
//! let lib = Library::synthetic(3);
//! let text = write_library(&lib);
//! let reloaded = parse_library(&text)?;
//! assert_eq!(reloaded.name(), lib.name());
//! assert_eq!(reloaded.templates().len(), lib.templates().len());
//! # Ok(())
//! # }
//! ```

mod context_fmt;
mod float_fmt;
mod float_parse;
mod lexer;
mod liberty_fmt;
mod netlist_fmt;

pub use context_fmt::{parse_context, write_context};
pub use float_fmt::{write_f64_exp, write_u64};
pub use float_parse::read_f64;
pub use lexer::{Lexer, Token};
pub use liberty_fmt::{
    parse_corner, parse_library, parse_lut, parse_sense, sense_name, write_library, write_lut,
    LutAxes, LutAxisText,
};
pub use netlist_fmt::{is_port_reference, parse_netlist, write_netlist};
