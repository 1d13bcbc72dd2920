use std::fmt;

/// Errors produced by the STA substrate.
///
/// Every fallible public function in this crate returns [`StaError`]. The
/// variants carry enough context (names, indices) to diagnose a malformed
/// netlist or graph without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StaError {
    /// A named library cell was requested but does not exist.
    UnknownCell(String),
    /// A named pin was requested on a cell template that lacks it.
    UnknownPin {
        /// Cell template name.
        cell: String,
        /// Requested pin name.
        pin: String,
    },
    /// A net name was used twice, or a port/cell name collides.
    DuplicateName(String),
    /// A net was connected to a pin that already belongs to another net.
    PinAlreadyConnected(String),
    /// A pin was left unconnected when the netlist was finished.
    UnconnectedPin(String),
    /// A net has no driver or an input pin was used as a driver.
    BadDriver(String),
    /// The timing graph contains a combinational cycle through these nodes.
    CombinationalCycle(usize),
    /// A lookup-table axis was empty or not strictly increasing.
    BadLutAxis(&'static str),
    /// A lookup table body does not match its axis dimensions.
    BadLutShape {
        /// Expected number of values (`rows * cols`).
        expected: usize,
        /// Number of values actually provided.
        actual: usize,
    },
    /// A context referenced a boundary port the graph does not have.
    UnknownPort(String),
    /// An operation received an out-of-range node index.
    NodeOutOfRange(usize),
    /// A graph edit (merge/removal) was illegal, e.g. removing a boundary pin.
    IllegalEdit(String),
    /// A text-format document failed to parse.
    ParseFormat {
        /// 1-based line number of the offending token.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Structured validation of an artifact found error-severity
    /// diagnostics (see [`crate::validate`]).
    Validation {
        /// What was validated ("library", "netlist", "graph", "macro model").
        artifact: &'static str,
        /// Number of error-severity diagnostics.
        errors: usize,
        /// Message of the first error diagnostic.
        first: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::UnknownCell(name) => write!(f, "unknown library cell `{name}`"),
            StaError::UnknownPin { cell, pin } => {
                write!(f, "cell `{cell}` has no pin named `{pin}`")
            }
            StaError::DuplicateName(name) => write!(f, "duplicate name `{name}`"),
            StaError::PinAlreadyConnected(name) => {
                write!(f, "pin `{name}` is already connected to a net")
            }
            StaError::UnconnectedPin(name) => write!(f, "pin `{name}` is not connected"),
            StaError::BadDriver(name) => write!(f, "net `{name}` has an invalid driver"),
            StaError::CombinationalCycle(node) => {
                write!(f, "combinational cycle detected through node {node}")
            }
            StaError::BadLutAxis(axis) => {
                write!(f, "lookup table axis `{axis}` is empty or not strictly increasing")
            }
            StaError::BadLutShape { expected, actual } => {
                write!(f, "lookup table body has {actual} values, expected {expected}")
            }
            StaError::UnknownPort(name) => write!(f, "unknown boundary port `{name}`"),
            StaError::NodeOutOfRange(idx) => write!(f, "node index {idx} is out of range"),
            StaError::IllegalEdit(what) => write!(f, "illegal graph edit: {what}"),
            StaError::ParseFormat { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            StaError::Validation { artifact, errors, first } => {
                write!(f, "{artifact} validation found {errors} error(s), first: {first}")
            }
        }
    }
}

impl std::error::Error for StaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let samples: Vec<StaError> = vec![
            StaError::UnknownCell("X".into()),
            StaError::UnknownPin { cell: "c".into(), pin: "p".into() },
            StaError::DuplicateName("n".into()),
            StaError::PinAlreadyConnected("p".into()),
            StaError::UnconnectedPin("p".into()),
            StaError::BadDriver("n".into()),
            StaError::CombinationalCycle(3),
            StaError::BadLutAxis("slew"),
            StaError::BadLutShape { expected: 4, actual: 2 },
            StaError::UnknownPort("po".into()),
            StaError::NodeOutOfRange(9),
            StaError::IllegalEdit("x".into()),
            StaError::ParseFormat { line: 3, message: "bad token".into() },
            StaError::Validation { artifact: "library", errors: 2, first: "nan".into() },
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "`{msg}` ends with punctuation");
            assert!(msg.chars().next().unwrap().is_lowercase(), "`{msg}` starts uppercase");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StaError>();
    }
}
