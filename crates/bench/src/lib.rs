//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation section (see `DESIGN.md` for the
//! experiment index).
//!
//! Each binary (`table2` … `table6`, `fig6`, `fig7`, `fig10`) trains the
//! framework on the small training suite, applies it and the baselines to
//! the scaled TAU-style evaluation suite, and prints rows shaped like the
//! paper's tables. Absolute numbers differ from the paper (different
//! substrate, 1/500-scale designs) but the comparative shape — who wins,
//! by roughly what factor — is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchdiff;

use std::time::Duration;
use tmm_circuits::designs::{suite_library, training_suite, SuiteEntry};
use tmm_core::{Framework, FrameworkConfig};
use tmm_macromodel::baselines::{
    generate_atm, generate_itimerm, generate_libabs, ITIMERM_DEFAULT_TOLERANCE,
};
use tmm_macromodel::eval::{evaluate, EvalOptions, EvalResult};
use tmm_macromodel::{MacroModel, MacroModelOptions};
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::Result;

/// One row of a results table: one method on one design.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Design name.
    pub design: String,
    /// Method name (`Ours`, `iTimerM`, `LibAbs`, `ATM`).
    pub method: String,
    /// Average boundary error in ps.
    pub avg_err_ps: f64,
    /// Maximum boundary error in ps.
    pub max_err_ps: f64,
    /// Model file size in KiB.
    pub file_kib: f64,
    /// Model generation wall-clock seconds (`GenStats::gen_time`: the
    /// whole generation call, pin selection included).
    pub gen_time_s: f64,
    /// Estimated generation memory in MiB.
    pub gen_mem_mib: f64,
    /// Model usage wall-clock seconds (all evaluation contexts).
    pub usage_time_s: f64,
    /// Estimated usage memory in MiB.
    pub usage_mem_mib: f64,
    /// Pins kept in the model.
    pub kept_pins: usize,
}

impl MethodRow {
    /// Builds a row from an evaluation result.
    #[must_use]
    pub fn from_eval(design: &str, method: &str, r: &EvalResult) -> Self {
        MethodRow {
            design: design.to_string(),
            method: method.to_string(),
            avg_err_ps: r.accuracy.avg,
            max_err_ps: r.accuracy.max,
            file_kib: r.model_bytes as f64 / 1024.0,
            gen_time_s: as_secs(r.gen_time),
            gen_mem_mib: r.gen_memory as f64 / (1024.0 * 1024.0),
            usage_time_s: as_secs(r.usage_time),
            usage_mem_mib: r.usage_memory as f64 / (1024.0 * 1024.0),
            kept_pins: r.kept_pins,
        }
    }
}

fn as_secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Ratio summary of a comparison method against `ours` (the paper's
/// "Ratio = compared / ours" convention; errors use differences).
#[derive(Debug, Clone, Copy, Default)]
pub struct RatioSummary {
    /// `other.avg_err − ours.avg_err` in ps.
    pub avg_err_diff: f64,
    /// `other.max_err − ours.max_err` in ps.
    pub max_err_diff: f64,
    /// File-size ratio.
    pub file_ratio: f64,
    /// Generation-time ratio.
    pub gen_time_ratio: f64,
    /// Generation-memory ratio.
    pub gen_mem_ratio: f64,
    /// Usage-time ratio.
    pub usage_time_ratio: f64,
    /// Usage-memory ratio.
    pub usage_mem_ratio: f64,
}

/// Averages `other / ours` ratios over paired rows (matched by position).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn ratio_summary(ours: &[MethodRow], other: &[MethodRow]) -> RatioSummary {
    assert_eq!(ours.len(), other.len(), "row sets must pair up");
    let n = ours.len().max(1) as f64;
    let mut s = RatioSummary::default();
    let guard = |x: f64| if x.abs() < 1e-12 { 1e-12 } else { x };
    for (a, b) in ours.iter().zip(other) {
        s.avg_err_diff += (b.avg_err_ps - a.avg_err_ps) / n;
        s.max_err_diff += (b.max_err_ps - a.max_err_ps) / n;
        s.file_ratio += b.file_kib / guard(a.file_kib) / n;
        s.gen_time_ratio += b.gen_time_s / guard(a.gen_time_s) / n;
        s.gen_mem_ratio += b.gen_mem_mib / guard(a.gen_mem_mib) / n;
        s.usage_time_ratio += b.usage_time_s / guard(a.usage_time_s) / n;
        s.usage_mem_ratio += b.usage_mem_mib / guard(a.usage_mem_mib) / n;
    }
    s
}

/// Prints the standard table header used by every results binary.
pub fn print_header(title: &str) {
    println!("{title}");
    println!(
        "{:<26} {:<8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "Design",
        "Method",
        "AvgErr ps",
        "MaxErr ps",
        "File KiB",
        "Gen s",
        "Gen MiB",
        "Use s",
        "Use MiB",
        "Pins"
    );
    println!("{}", "-".repeat(116));
}

/// Prints one row.
pub fn print_row(r: &MethodRow) {
    println!(
        "{:<26} {:<8} {:>10.4} {:>10.3} {:>10.1} {:>9.3} {:>9.2} {:>9.4} {:>9.2} {:>7}",
        r.design,
        r.method,
        r.avg_err_ps,
        r.max_err_ps,
        r.file_kib,
        r.gen_time_s,
        r.gen_mem_mib,
        r.usage_time_s,
        r.usage_mem_mib,
        r.kept_pins
    );
}

/// Prints a ratio summary line.
pub fn print_ratio(label: &str, s: &RatioSummary) {
    println!(
        "{label}: dAvgErr {:+.4} ps, dMaxErr {:+.3} ps, file x{:.3}, gen x{:.3}, genMem x{:.3}, use x{:.3}, useMem x{:.3}",
        s.avg_err_diff,
        s.max_err_diff,
        s.file_ratio,
        s.gen_time_ratio,
        s.gen_mem_ratio,
        s.usage_time_ratio,
        s.usage_mem_ratio
    );
}

/// Trains the framework on the standard training suite.
///
/// # Errors
///
/// Propagates training errors.
pub fn train_standard(config: FrameworkConfig, library: &Library) -> Result<Framework> {
    let suite = training_suite(library)?;
    let designs: Vec<(String, tmm_sta::netlist::Netlist)> =
        suite.into_iter().map(|e| (e.name, e.netlist)).collect();
    let mut fw = Framework::new(config);
    let summary = fw.train(&designs, library)?;
    tmm_obs::info(
        &[
            ("stage", "training"),
            ("data_s", &format!("{:.1}", summary.data_time.as_secs_f64())),
            ("gnn_s", &format!("{:.1}", summary.train_time.as_secs_f64())),
            ("loss", &format!("{:.4}", summary.final_loss)),
            ("recall", &format!("{:.3}", summary.train_metrics.recall())),
            ("precision", &format!("{:.3}", summary.train_metrics.precision())),
        ],
        "training complete",
    );
    Ok(fw)
}

/// Evaluates the trained framework on one design.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn eval_ours(
    fw: &Framework,
    entry: &SuiteEntry,
    library: &Library,
    opts: &EvalOptions,
) -> Result<MethodRow> {
    let flat = ArcGraph::from_netlist(&entry.netlist, library)?;
    let outcome = fw.generate_macro(&flat)?;
    let r = evaluate(&flat, &outcome.model, opts)?;
    Ok(MethodRow::from_eval(&entry.name, "Ours", &r))
}

/// Evaluates the iTimerM baseline on one design.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn eval_itimerm(
    entry: &SuiteEntry,
    library: &Library,
    opts: &EvalOptions,
) -> Result<MethodRow> {
    let flat = ArcGraph::from_netlist(&entry.netlist, library)?;
    let model =
        generate_itimerm(&flat, ITIMERM_DEFAULT_TOLERANCE, &MacroModelOptions::default())?;
    let r = evaluate(&flat, &model, opts)?;
    Ok(MethodRow::from_eval(&entry.name, "iTimerM", &r))
}

/// Evaluates the LibAbs-style baseline on one design.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn eval_libabs(
    entry: &SuiteEntry,
    library: &Library,
    opts: &EvalOptions,
) -> Result<MethodRow> {
    let flat = ArcGraph::from_netlist(&entry.netlist, library)?;
    let model = generate_libabs(&flat, &MacroModelOptions::default())?;
    let r = evaluate(&flat, &model, opts)?;
    Ok(MethodRow::from_eval(&entry.name, "LibAbs", &r))
}

/// Evaluates the ATM-style ETM baseline on one design.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn eval_atm(entry: &SuiteEntry, library: &Library, opts: &EvalOptions) -> Result<MethodRow> {
    let flat = ArcGraph::from_netlist(&entry.netlist, library)?;
    let model = generate_atm(&flat, &MacroModelOptions::default())?;
    let r = evaluate(&flat, &model, opts)?;
    Ok(MethodRow::from_eval(&entry.name, "ATM", &r))
}

/// Evaluates a caller-generated model on one design (Table 6 style runs).
///
/// # Errors
///
/// Propagates analysis errors.
pub fn eval_model(
    entry: &SuiteEntry,
    library: &Library,
    model: &MacroModel,
    method: &str,
    opts: &EvalOptions,
) -> Result<MethodRow> {
    let flat = ArcGraph::from_netlist(&entry.netlist, library)?;
    let r = evaluate(&flat, model, opts)?;
    Ok(MethodRow::from_eval(&entry.name, method, &r))
}

/// The shared library every experiment binary uses.
#[must_use]
pub fn library() -> Library {
    suite_library()
}

/// Renders an ASCII histogram (used by the figure binaries).
#[must_use]
pub fn ascii_histogram(values: &[f64], buckets: &[(f64, f64, &str)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total = values.len().max(1);
    for &(lo, hi, label) in buckets {
        let count = values.iter().filter(|&&v| v >= lo && v < hi).count();
        let frac = count as f64 / total as f64;
        let bar = "#".repeat((frac * 60.0).round() as usize);
        let _ = writeln!(out, "{label:>14} | {bar:<60} {count:>6} ({:.1}%)", frac * 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(file: f64, err: f64) -> MethodRow {
        MethodRow {
            design: "d".into(),
            method: "m".into(),
            avg_err_ps: err / 10.0,
            max_err_ps: err,
            file_kib: file,
            gen_time_s: 1.0,
            gen_mem_mib: 2.0,
            usage_time_s: 0.5,
            usage_mem_mib: 1.0,
            kept_pins: 10,
        }
    }

    #[test]
    fn ratio_summary_computes_paper_conventions() {
        let ours = vec![row(100.0, 1.0), row(200.0, 2.0)];
        let other = vec![row(110.0, 1.0), row(220.0, 2.0)];
        let s = ratio_summary(&ours, &other);
        assert!((s.file_ratio - 1.1).abs() < 1e-9);
        assert!(s.max_err_diff.abs() < 1e-9);
        assert!((s.gen_time_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ascii_histogram_counts_and_formats() {
        let values = vec![0.0, 0.0, 0.5, 1.5];
        let h = ascii_histogram(&values, &[(0.0, 0.1, "zero"), (0.1, 2.0, "rest")]);
        assert!(h.contains("zero"));
        assert!(h.contains("2 (50.0%)") || h.contains(" 2 "), "histogram: {h}");
    }

    #[test]
    fn method_row_from_eval_scales_units() {
        let r = EvalResult {
            model_bytes: 2048,
            gen_time: Duration::from_millis(1500),
            gen_memory: 3 * 1024 * 1024,
            usage_time: Duration::from_millis(250),
            usage_memory: 1024 * 1024,
            kept_pins: 42,
            ..Default::default()
        };
        let row = MethodRow::from_eval("d", "Ours", &r);
        assert!((row.file_kib - 2.0).abs() < 1e-9);
        assert!((row.gen_time_s - 1.5).abs() < 1e-9);
        assert!((row.gen_mem_mib - 3.0).abs() < 1e-9);
        assert_eq!(row.kept_pins, 42);
    }
}
