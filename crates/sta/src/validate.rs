//! Structured validation of the pipeline's data artifacts.
//!
//! Parsers and builders in this crate reject *structurally* malformed
//! input (bad tokens, unknown cells, double connections), but corrupted
//! yet well-formed data — NaN table entries, non-monotone axes smuggled
//! past `Lut2::new` through NaN comparisons, undriven nodes, checks cut
//! off from the clock — can still reach analysis and silently poison
//! every downstream result. The validators here re-check those semantic
//! invariants and report them as [`Diagnostic`]s with explicit
//! [`Severity`], so callers can decide between hard-failing
//! ([`ValidationReport::into_result`]) and logging warnings.
//!
//! The `tmm-core` framework runs these validators at every stage
//! boundary (data generation, training, prediction, model import); the
//! `tmm validate` CLI subcommand exposes them directly.

use crate::error::StaError;
use crate::graph::{ArcGraph, ArcTiming, NodeKind};
use crate::liberty::{ArcTables, Library, Lut2, PinDirection};
use crate::netlist::{NetId, Netlist, PortKind};
use crate::Result;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but analyzable; results may be degraded.
    Warning,
    /// The artifact violates an invariant analysis relies on.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `lut-nan` or `clock-unreachable`.
    pub code: &'static str,
    /// Human-readable description naming the offending object.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)
    }
}

/// The outcome of validating one artifact.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    artifact: &'static str,
    diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    /// Creates an empty report for the named artifact kind.
    #[must_use]
    pub fn new(artifact: &'static str) -> Self {
        ValidationReport { artifact, diagnostics: Vec::new() }
    }

    /// Records an error-severity diagnostic.
    pub fn error(&mut self, code: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
        });
    }

    /// Records a warning-severity diagnostic.
    pub fn warning(&mut self, code: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
        });
    }

    /// The artifact kind this report covers.
    #[must_use]
    pub fn artifact(&self) -> &'static str {
        self.artifact
    }

    /// All findings, in discovery order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` when no error-severity diagnostics were found (warnings
    /// do not make an artifact unusable).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: ValidationReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Converts to `Err(StaError::Validation)` when errors are present,
    /// otherwise returns the report (with its warnings) unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::Validation`] summarizing the first error.
    pub fn into_result(self) -> Result<ValidationReport> {
        let errors = self.error_count();
        if errors == 0 {
            return Ok(self);
        }
        let first = self
            .errors()
            .next()
            .map(|d| format!("[{}] {}", d.code, d.message))
            .unwrap_or_default();
        Err(StaError::Validation { artifact: self.artifact, errors, first })
    }
}

/// Records the outcome of one validator into the metrics registry
/// (artifact-labelled run/error/warning counters). No-op while metrics
/// are disabled.
fn record_validation_metrics(report: &ValidationReport) {
    let labels = [("artifact", report.artifact)];
    tmm_obs::counter_add("tmm_validate_runs_total", &labels, 1);
    tmm_obs::counter_add("tmm_validate_errors_total", &labels, report.error_count() as u64);
    tmm_obs::counter_add("tmm_validate_warnings_total", &labels, report.warning_count() as u64);
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} error(s), {} warning(s)",
            self.artifact,
            self.error_count(),
            self.warning_count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Checks one LUT's axes (finite, strictly increasing — NaN-safe, unlike
/// the ordering predicate in `Lut2::new`) and values (finite). `what`
/// names the table in a diagnostic; it is only called when a check fails,
/// so a clean table costs no formatting.
fn check_lut(report: &mut ValidationReport, lut: &Lut2, what: impl Fn() -> String) {
    for (axis_name, axis) in [("slew", lut.slew_axis()), ("load", lut.load_axis())] {
        if axis.iter().any(|v| !v.is_finite()) {
            report.error(
                "lut-axis-nonfinite",
                format!("{}: {axis_name} axis has non-finite entries", what()),
            );
        } else if axis.windows(2).any(|w| w[1] <= w[0]) {
            report.error(
                "lut-axis-order",
                format!("{}: {axis_name} axis is not strictly increasing", what()),
            );
        }
    }
    if lut.values().iter().any(|v| !v.is_finite()) {
        report.error("lut-nonfinite", format!("{}: table has non-finite values", what()));
    }
}

/// Validates a [`Library`]: finite monotone LUTs, sane pin caps,
/// in-range arc and sequential pin indices.
#[must_use]
pub fn validate_library(library: &Library) -> ValidationReport {
    let mut report = ValidationReport::new("library");
    let mut names = HashSet::new();
    for tmpl in library.templates() {
        if !names.insert(tmpl.name.as_str()) {
            report.error("dup-cell", format!("duplicate cell template `{}`", tmpl.name));
        }
        let mut pin_names = HashSet::new();
        for pin in &tmpl.pins {
            if !pin_names.insert(pin.name.as_str()) {
                report.error(
                    "dup-pin",
                    format!("cell `{}` has duplicate pin `{}`", tmpl.name, pin.name),
                );
            }
            if !pin.cap.is_finite() {
                report.error(
                    "cap-nonfinite",
                    format!("cell `{}` pin `{}` has non-finite capacitance", tmpl.name, pin.name),
                );
            } else if pin.cap < 0.0 {
                report.error(
                    "cap-negative",
                    format!(
                        "cell `{}` pin `{}` has negative capacitance {}",
                        tmpl.name, pin.name, pin.cap
                    ),
                );
            }
        }
        for (ai, arc) in tmpl.arcs.iter().enumerate() {
            if arc.from_pin >= tmpl.pins.len() || arc.to_pin >= tmpl.pins.len() {
                report.error(
                    "arc-pin-range",
                    format!("cell `{}` arc #{ai} references an out-of-range pin", tmpl.name),
                );
                continue;
            }
            if tmpl.pins[arc.to_pin].direction != PinDirection::Output {
                report.warning(
                    "arc-into-input",
                    format!("cell `{}` arc #{ai} targets a non-output pin", tmpl.name),
                );
            }
            for (mode, tables) in [("early", &arc.tables.early), ("late", &arc.tables.late)] {
                for (kind, pair) in [("delay", &tables.delay), ("slew", &tables.slew)] {
                    for (edge, lut) in [("rise", &pair.rise), ("fall", &pair.fall)] {
                        check_lut(&mut report, lut, || {
                            format!("cell `{}` arc #{ai} {mode} {kind} {edge}", tmpl.name)
                        });
                    }
                }
            }
        }
        if let Some(seq) = &tmpl.sequential {
            let n = tmpl.pins.len();
            if seq.d_pin >= n || seq.ck_pin >= n || seq.q_pin >= n {
                report.error(
                    "seq-pin-range",
                    format!("cell `{}` sequential spec references an out-of-range pin", tmpl.name),
                );
            } else if seq.d_pin == seq.ck_pin || seq.d_pin == seq.q_pin || seq.ck_pin == seq.q_pin
            {
                report.error(
                    "seq-pin-alias",
                    format!("cell `{}` sequential spec aliases d/ck/q pins", tmpl.name),
                );
            }
            if !seq.setup.is_finite() || !seq.hold.is_finite() {
                report.error(
                    "seq-nonfinite",
                    format!("cell `{}` has non-finite setup/hold", tmpl.name),
                );
            }
        }
    }
    if library.templates().is_empty() {
        report.warning("empty-library", "library has no cell templates");
    }
    record_validation_metrics(&report);
    report
}

/// Validates a [`Netlist`] against its library: consistent pin↔net
/// back-references, legal drivers, connected inputs, finite parasitics,
/// and a clock port whenever sequential cells are present.
#[must_use]
pub fn validate_netlist(netlist: &Netlist, library: &Library) -> ValidationReport {
    let mut report = ValidationReport::new("netlist");
    let mut has_sequential = false;
    for cell in netlist.cells() {
        if cell.template >= library.templates().len() {
            report.error(
                "cell-template-range",
                format!("cell `{}` references an out-of-range library template", cell.name),
            );
            continue;
        }
        let tmpl = library.template_at(cell.template);
        has_sequential |= tmpl.sequential.is_some();
        if cell.pins.len() != tmpl.pins.len() {
            report.error(
                "cell-pin-count",
                format!(
                    "cell `{}` has {} pins, template `{}` has {}",
                    cell.name,
                    cell.pins.len(),
                    tmpl.name,
                    tmpl.pins.len()
                ),
            );
        }
    }
    let mut net_names = HashSet::new();
    for (ni, net) in netlist.nets().iter().enumerate() {
        let id = NetId(ni as u32);
        if !net_names.insert(net.name.as_str()) {
            report.error("dup-net", format!("duplicate net `{}`", net.name));
        }
        if (net.driver.0 as usize) >= netlist.pins().len() {
            report.error(
                "net-driver-range",
                format!("net `{}` driver pin index is out of range", net.name),
            );
            continue;
        }
        let driver = netlist.pin(net.driver);
        let drives = match driver.port {
            Some(PortKind::Input) | Some(PortKind::Clock) => true,
            Some(PortKind::Output) => false,
            None => driver.direction == PinDirection::Output,
        };
        if !drives {
            report.error(
                "net-bad-driver",
                format!("net `{}` is driven by non-driving pin `{}`", net.name, driver.name),
            );
        }
        if driver.net != Some(id) {
            report.error(
                "net-backref",
                format!("net `{}` driver `{}` does not point back at it", net.name, driver.name),
            );
        }
        if net.sinks.is_empty() {
            report.warning("net-no-sinks", format!("net `{}` has no sinks", net.name));
        }
        let mut seen = HashSet::new();
        for &sink in &net.sinks {
            if (sink.0 as usize) >= netlist.pins().len() {
                report.error(
                    "net-sink-range",
                    format!("net `{}` sink pin index is out of range", net.name),
                );
                continue;
            }
            if !seen.insert(sink.0) {
                report.error(
                    "net-dup-sink",
                    format!("net `{}` lists pin `{}` twice", net.name, netlist.pin(sink).name),
                );
            }
            if netlist.pin(sink).net != Some(id) {
                report.error(
                    "net-backref",
                    format!(
                        "net `{}` sink `{}` does not point back at it",
                        net.name,
                        netlist.pin(sink).name
                    ),
                );
            }
        }
        if !net.parasitics.wire_cap.is_finite() || net.parasitics.wire_cap < 0.0 {
            report.error(
                "parasitic-cap",
                format!("net `{}` has invalid wire capacitance", net.name),
            );
        }
        if net.parasitics.sink_delays.iter().any(|d| !d.is_finite()) {
            report.error(
                "parasitic-delay",
                format!("net `{}` has non-finite sink delays", net.name),
            );
        }
    }
    for pin in netlist.pins() {
        let needs_net = match pin.port {
            Some(PortKind::Output) => true,
            Some(_) => false, // PI/clock ports may legally be unloaded
            None => pin.direction != PinDirection::Output,
        };
        if needs_net && pin.net.is_none() {
            report.error("pin-unconnected", format!("pin `{}` is not connected", pin.name));
        }
    }
    if has_sequential && netlist.clock_port().is_none() {
        report.error("no-clock", "design has sequential cells but no clock port");
    }
    record_validation_metrics(&report);
    report
}

/// Validates an [`ArcGraph`]: internal index consistency, finite loads
/// and tables, acyclicity, no dangling live logic, and clock
/// reachability for every setup/hold check.
#[must_use]
pub fn validate_arc_graph(graph: &ArcGraph) -> ValidationReport {
    let mut report = ValidationReport::new("graph");
    if let Err(e) = graph.validate() {
        report.error("graph-internal", e.to_string());
    }
    for (i, node) in graph.nodes().iter().enumerate() {
        if node.dead {
            continue;
        }
        if !node.base_load.is_finite() || node.base_load < 0.0 {
            report.error(
                "load-invalid",
                format!("node `{}` (#{i}) has invalid base load {}", node.name, node.base_load),
            );
        }
    }
    // Flat arcs share their cell's table sets: one found clean is not
    // checked again. A faulty set is checked at every arc that holds it,
    // so each such arc still gets its own diagnostics.
    let mut clean_tables: HashSet<*const ArcTables> = HashSet::new();
    for (ai, arc) in graph.arcs().iter().enumerate() {
        if arc.dead {
            continue;
        }
        if arc.from.index() >= graph.node_count() || arc.to.index() >= graph.node_count() {
            report.error("arc-range", format!("arc #{ai} references an out-of-range node"));
            continue;
        }
        match &arc.timing {
            ArcTiming::Wire { delay, degrade } => {
                if !delay.is_finite() {
                    report.error("wire-delay", format!("arc #{ai} has non-finite wire delay"));
                } else if *delay < 0.0 {
                    report.warning("wire-delay-negative", format!("arc #{ai} has negative wire delay"));
                }
                if !degrade.is_finite() || *degrade <= 0.0 {
                    report.error("wire-degrade", format!("arc #{ai} has invalid slew degradation"));
                }
            }
            ArcTiming::Table(split) | ArcTiming::Composed(split) => {
                for (mode, tables) in [("early", &split.early), ("late", &split.late)] {
                    if clean_tables.contains(&Arc::as_ptr(tables)) {
                        continue;
                    }
                    let before = report.diagnostics.len();
                    for (kind, pair) in [("delay", &tables.delay), ("slew", &tables.slew)] {
                        for (edge, lut) in [("rise", &pair.rise), ("fall", &pair.fall)] {
                            check_lut(&mut report, lut, || format!("arc #{ai} {mode} {kind} {edge}"));
                        }
                    }
                    if report.diagnostics.len() == before {
                        clean_tables.insert(Arc::as_ptr(tables));
                    }
                }
            }
        }
    }
    // Acyclicity via Kahn's algorithm over live nodes/arcs; does not
    // rely on the stored topo order being current.
    let n = graph.node_count();
    let mut indeg = vec![0usize; n];
    for arc in graph.arcs().iter().filter(|a| !a.dead) {
        if arc.from.index() < n
            && arc.to.index() < n
            && !graph.nodes()[arc.from.index()].dead
            && !graph.nodes()[arc.to.index()].dead
        {
            indeg[arc.to.index()] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n)
        .filter(|&i| !graph.nodes()[i].dead && indeg[i] == 0)
        .collect();
    let mut visited = 0usize;
    while let Some(i) = queue.pop() {
        visited += 1;
        for ai in graph.fanout(crate::graph::NodeId(i as u32)) {
            let arc = graph.arc(ai);
            if arc.dead || graph.nodes()[arc.to.index()].dead {
                continue;
            }
            indeg[arc.to.index()] -= 1;
            if indeg[arc.to.index()] == 0 {
                queue.push(arc.to.index());
            }
        }
    }
    let live = graph.live_nodes();
    if visited != live {
        report.error(
            "cycle",
            format!("combinational cycle: {} live node(s) unreachable in topo order", live - visited),
        );
    }
    // Undriven / dangling live logic.
    for (i, node) in graph.nodes().iter().enumerate() {
        if node.dead {
            continue;
        }
        let id = crate::graph::NodeId(i as u32);
        let sources = matches!(
            node.kind,
            NodeKind::PrimaryInput(_) | NodeKind::ClockSource | NodeKind::FfOutput
        );
        if !sources && graph.in_degree(id) == 0 {
            report.warning("undriven", format!("node `{}` (#{i}) has no incoming arcs", node.name));
        }
        let sinks = matches!(node.kind, NodeKind::PrimaryOutput(_) | NodeKind::FfData(_) | NodeKind::FfClock);
        if !sinks && graph.out_degree(id) == 0 && graph.in_degree(id) == 0 {
            report.warning("dangling", format!("node `{}` (#{i}) is disconnected", node.name));
        }
    }
    // Checks: in-range, live, finite, and clocked.
    let clock_reach = clock_reachable(graph);
    for (ci, check) in graph.checks().iter().enumerate() {
        let ids = [check.d, check.ck, check.q];
        if ids.iter().any(|id| id.index() >= n) {
            report.error("check-range", format!("check `{}` (#{ci}) references an out-of-range node", check.name));
            continue;
        }
        // A check referencing dead nodes is disabled, not corrupt:
        // ILM extraction and reduction soft-delete pins (dead q for an
        // input-interface flip-flop, dead d/ck for a fully reduced one)
        // while the check record stays; analysis and serialisation both
        // skip such checks. Flag it only as a warning.
        if [check.d, check.ck].iter().any(|id| graph.nodes()[id.index()].dead) {
            report.warning("check-dead", format!("check `{}` (#{ci}) is disabled by a dead d/ck node", check.name));
            continue;
        }
        if !check.setup.is_finite() || !check.hold.is_finite() {
            report.error("check-nonfinite", format!("check `{}` has non-finite setup/hold", check.name));
        }
        match &clock_reach {
            Some(reach) => {
                if !reach[check.ck.index()] {
                    report.error(
                        "clock-unreachable",
                        format!("check `{}`: clock does not reach node `{}`", check.name, graph.nodes()[check.ck.index()].name),
                    );
                }
            }
            None => {
                report.error("no-clock", format!("check `{}` exists but the graph has no clock source", check.name));
            }
        }
    }
    record_validation_metrics(&report);
    report
}

/// DFS from the clock source over live arcs; `None` when the graph has
/// no clock source at all.
fn clock_reachable(graph: &ArcGraph) -> Option<Vec<bool>> {
    let src = graph.clock_source()?;
    let mut reach = vec![false; graph.node_count()];
    let mut stack = vec![src];
    while let Some(node) = stack.pop() {
        if reach[node.index()] || graph.nodes()[node.index()].dead {
            continue;
        }
        reach[node.index()] = true;
        for ai in graph.fanout(node) {
            let arc = graph.arc(ai);
            if !arc.dead && !graph.nodes()[arc.to.index()].dead && !reach[arc.to.index()] {
                stack.push(arc.to);
            }
        }
    }
    Some(reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ArcGraph, ArcTiming, NodeId, NodeKind};
    use crate::liberty::{Library, TimingSense};
    use crate::netlist::NetlistBuilder;

    fn small_design() -> (Library, Netlist) {
        let lib = Library::synthetic(3);
        let netlist = {
            let mut b = NetlistBuilder::new("vt", &lib);
            let a = b.input("a").unwrap();
            let z = b.output("z").unwrap();
            let c = b.cell("u0", "INVX1").unwrap();
            b.connect("n0", a, &[b.pin_of(c, "A").unwrap()]).unwrap();
            b.connect("n1", b.pin_of(c, "Z").unwrap(), &[z]).unwrap();
            b.finish().unwrap()
        };
        (lib, netlist)
    }

    #[test]
    fn healthy_artifacts_are_clean() {
        let (lib, netlist) = small_design();
        assert!(validate_library(&lib).is_clean());
        let nr = validate_netlist(&netlist, &lib);
        assert!(nr.is_clean(), "{nr}");
        let g = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let gr = validate_arc_graph(&g);
        assert!(gr.is_clean(), "{gr}");
    }

    #[test]
    fn nan_lut_is_reported() {
        let mut report = ValidationReport::new("library");
        let lut = Lut2::new(
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, f64::NAN, 3.0, 4.0],
        )
        .unwrap();
        check_lut(&mut report, &lut, || "t".to_string());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics()[0].code, "lut-nonfinite");
    }

    #[test]
    fn nan_axis_sneaks_past_constructor_but_not_validator() {
        // Lut2::new's ordering check uses `<=`, which NaN never satisfies.
        let lut = Lut2::new(vec![1.0, f64::NAN], vec![1.0, 2.0], vec![0.0; 4]).unwrap();
        let mut report = ValidationReport::new("library");
        check_lut(&mut report, &lut, || "t".to_string());
        assert!(!report.is_clean());
    }

    /// The three ways a table can be corrupt, with the code and message
    /// tail each produces (the wording callers and logs rely on).
    const CORRUPTIONS: [(&str, &str); 3] = [
        ("lut-nonfinite", "table has non-finite values"),
        ("lut-axis-nonfinite", "slew axis has non-finite entries"),
        ("lut-axis-order", "load axis is not strictly increasing"),
    ];

    fn corrupted(lut: &Lut2, code: &str) -> Lut2 {
        let (mut slew, mut load, mut values) =
            (lut.slew_axis().to_vec(), lut.load_axis().to_vec(), lut.values().to_vec());
        match code {
            "lut-nonfinite" => values[0] = f64::NAN,
            "lut-axis-nonfinite" => slew[0] = f64::INFINITY,
            _ => load[1] = load[0],
        }
        Lut2::new_unchecked(slew, load, values)
    }

    /// The LUT at `mode × kind × edge` of one arc's table set.
    fn lut_at<'a>(tables: &'a mut crate::liberty::ArcTables, kind: &str, edge: &str) -> &'a mut Lut2 {
        let pair = if kind == "delay" { &mut tables.delay } else { &mut tables.slew };
        if edge == "rise" {
            &mut pair.rise
        } else {
            &mut pair.fall
        }
    }

    const LABELS: [(&str, &str, &str); 8] = [
        ("early", "delay", "rise"),
        ("early", "delay", "fall"),
        ("early", "slew", "rise"),
        ("early", "slew", "fall"),
        ("late", "delay", "rise"),
        ("late", "delay", "fall"),
        ("late", "slew", "rise"),
        ("late", "slew", "fall"),
    ];

    fn split_at<'a, T>(split: &'a mut crate::split::Split<T>, mode: &str) -> &'a mut T {
        if mode == "early" {
            &mut split.early
        } else {
            &mut split.late
        }
    }

    fn found(report: &ValidationReport) -> Vec<(&'static str, String)> {
        report.diagnostics().iter().map(|d| (d.code, d.message.clone())).collect()
    }

    #[test]
    fn each_corrupted_graph_table_is_named_exactly() {
        let (lib, netlist) = small_design();
        let g = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let ai = g
            .arcs()
            .iter()
            .position(|a| matches!(a.timing, ArcTiming::Table(_)))
            .unwrap();
        for (mode, kind, edge) in LABELS {
            for (code, tail) in CORRUPTIONS {
                let mut bad = g.clone();
                let ArcTiming::Table(split) = &mut bad.arc_mut(crate::graph::ArcId(ai as u32)).timing
                else {
                    unreachable!("arc {ai} was picked as a table arc")
                };
                let tables = std::sync::Arc::make_mut(split_at(split, mode));
                let lut = lut_at(tables, kind, edge);
                *lut = corrupted(lut, code);
                let report = validate_arc_graph(&bad);
                assert_eq!(
                    found(&report),
                    vec![(code, format!("arc #{ai} {mode} {kind} {edge}: {tail}"))]
                );
            }
        }
        // One message spelled out in full, as `tmm validate` prints it.
        let mut bad = g.clone();
        if let ArcTiming::Table(split) = &mut bad.arc_mut(crate::graph::ArcId(ai as u32)).timing {
            let tables = std::sync::Arc::make_mut(&mut split.late);
            tables.slew.fall = corrupted(&tables.slew.fall, "lut-nonfinite");
        }
        assert_eq!(
            validate_arc_graph(&bad).diagnostics()[0].to_string(),
            format!("error [lut-nonfinite] arc #{ai} late slew fall: table has non-finite values")
        );
    }

    #[test]
    fn a_corrupted_shared_table_is_reported_at_every_arc_that_holds_it() {
        let lib = Library::synthetic(3);
        // Corrupt two tables of the INVX1 arc in the library, so every
        // inverter of the design holds the same faulty table set.
        let mut bad = Library::empty(lib.name());
        for t in lib.templates() {
            let mut t = t.clone();
            if t.name == "INVX1" {
                let early = std::sync::Arc::make_mut(&mut t.arcs[0].tables.early);
                early.delay.rise = corrupted(&early.delay.rise, "lut-axis-order");
                let late = std::sync::Arc::make_mut(&mut t.arcs[0].tables.late);
                late.slew.fall = corrupted(&late.slew.fall, "lut-nonfinite");
            }
            bad.add_template(t).unwrap();
        }
        // a -> INVX1 -> BUFX2 -> INVX1 -> INVX1 -> z: clean shared tables
        // sit between the faulty ones.
        let mut b = NetlistBuilder::new("shared", &bad);
        let a = b.input("a").unwrap();
        let z = b.output("z").unwrap();
        let cells: Vec<_> = ["INVX1", "BUFX2", "INVX1", "INVX1"]
            .iter()
            .enumerate()
            .map(|(i, c)| b.cell(&format!("u{i}"), c).unwrap())
            .collect();
        let mut prev = a;
        for (i, &c) in cells.iter().enumerate() {
            b.connect(&format!("n{i}"), prev, &[b.pin_of(c, "A").unwrap()]).unwrap();
            prev = b.pin_of(c, "Z").unwrap();
        }
        b.connect("n_z", prev, &[z]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &bad).unwrap();
        let faulty = &bad.template("INVX1").unwrap().arcs[0].tables.late;
        let mut want = Vec::new();
        for (ai, arc) in g.arcs().iter().enumerate() {
            if let ArcTiming::Table(split) = &arc.timing {
                if std::sync::Arc::ptr_eq(&split.late, faulty) {
                    want.push((
                        "lut-axis-order",
                        format!("arc #{ai} early delay rise: load axis is not strictly increasing"),
                    ));
                    want.push((
                        "lut-nonfinite",
                        format!("arc #{ai} late slew fall: table has non-finite values"),
                    ));
                }
            }
        }
        assert_eq!(want.len(), 6, "three inverter arcs share the faulty set");
        assert_eq!(found(&validate_arc_graph(&g)), want);
    }

    #[test]
    fn each_corrupted_library_table_is_named_exactly() {
        let lib = Library::synthetic(3);
        let mut checked = 0;
        for (ti, tmpl) in lib.templates().iter().enumerate() {
            for ai in 0..tmpl.arcs.len() {
                for (mode, kind, edge) in LABELS {
                    let (code, tail) = CORRUPTIONS[checked % CORRUPTIONS.len()];
                    let mut bad = Library::empty(lib.name());
                    for (tj, t) in lib.templates().iter().enumerate() {
                        let mut t = t.clone();
                        if tj == ti {
                            let tables =
                                std::sync::Arc::make_mut(split_at(&mut t.arcs[ai].tables, mode));
                            let lut = lut_at(tables, kind, edge);
                            *lut = corrupted(lut, code);
                        }
                        bad.add_template(t).unwrap();
                    }
                    let report = validate_library(&bad);
                    assert_eq!(
                        found(&report),
                        vec![(
                            code,
                            format!("cell `{}` arc #{ai} {mode} {kind} {edge}: {tail}", tmpl.name)
                        )]
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 8 * lib.templates().len(), "only {checked} tables corrupted");
    }

    #[test]
    fn nonfinite_wire_and_load_are_errors() {
        let mut g = ArcGraph::empty("g");
        let a = g.add_node("a", NodeKind::PrimaryInput(0));
        let b = g.add_node("b", NodeKind::PrimaryOutput(0));
        g.add_arc(a, b, TimingSense::PositiveUnate, ArcTiming::Wire { delay: f64::NAN, degrade: 1.0 }, false);
        g.node_mut(a).base_load = f64::INFINITY;
        g.rebuild_topo().unwrap();
        let report = validate_arc_graph(&g);
        let codes: Vec<_> = report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"wire-delay"), "{codes:?}");
        assert!(codes.contains(&"load-invalid"), "{codes:?}");
    }

    #[test]
    fn cycle_is_reported_without_topo_rebuild() {
        let mut g = ArcGraph::empty("g");
        let a = g.add_node("a", NodeKind::Internal);
        let b = g.add_node("b", NodeKind::Internal);
        g.add_arc(a, b, TimingSense::PositiveUnate, ArcTiming::Wire { delay: 0.0, degrade: 1.0 }, false);
        g.add_arc(b, a, TimingSense::PositiveUnate, ArcTiming::Wire { delay: 0.0, degrade: 1.0 }, false);
        let report = validate_arc_graph(&g);
        assert!(report.diagnostics().iter().any(|d| d.code == "cycle"));
    }

    #[test]
    fn check_without_clock_source_is_an_error() {
        let mut g = ArcGraph::empty("g");
        let d = g.add_node("d", NodeKind::FfData(0));
        let ck = g.add_node("ck", NodeKind::FfClock);
        let q = g.add_node("q", NodeKind::FfOutput);
        g.add_check(crate::graph::Check { name: "ff0".into(), d, ck, q, setup: 10.0, hold: 2.0 });
        let report = validate_arc_graph(&g);
        assert!(report.diagnostics().iter().any(|d| d.code == "no-clock"));
    }

    #[test]
    fn into_result_surfaces_first_error() {
        let mut report = ValidationReport::new("netlist");
        report.warning("net-no-sinks", "net `x` has no sinks");
        assert!(report.clone().into_result().is_ok());
        report.error("dup-net", "duplicate net `y`");
        let err = report.into_result().unwrap_err();
        match err {
            StaError::Validation { artifact, errors, first } => {
                assert_eq!(artifact, "netlist");
                assert_eq!(errors, 1);
                assert!(first.contains("dup-net"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_sink_rejected() {
        let (lib, netlist) = small_design();
        // Rebuild a corrupted variant via the public netlist accessors is
        // not possible (fields are read-only), so exercise the dangling
        // node warning path on the lowered graph instead.
        let mut g = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let orphan = g.add_node("orphan", NodeKind::Internal);
        g.rebuild_topo().unwrap();
        let report = validate_arc_graph(&g);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == "dangling" && d.message.contains("orphan")));
        let _ = orphan;
    }

    #[test]
    fn report_display_lists_findings() {
        let mut report = ValidationReport::new("graph");
        report.error("cycle", "combinational cycle");
        report.warning("undriven", "node `x` has no incoming arcs");
        let text = report.to_string();
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(text.contains("error [cycle]"));
        assert!(text.contains("warning [undriven]"));
        let _ = NodeId(0);
    }
}
