//! `tmm benchdiff`: perf-regression gating over the `BENCH_*.json`
//! artifact families.
//!
//! Loads a baseline and a current artifact (single files or whole
//! directories of `BENCH_*.json`), matches records by `{stage, design}`
//! (duplicates — e.g. one record per ECO edit — are summed into one
//! total per key), applies per-stage noise thresholds, and renders a
//! markdown table. A stage regresses when its wall time grew by more
//! than the stage's percentage threshold **and** by more than the
//! absolute noise floor — short stages jitter by whole multiples of
//! their runtime, so a pure percentage gate would flap.
//!
//! Every artifact uses the `tmm-bench/v1` schema (`BENCH_pipeline.json`,
//! `BENCH_eco.json`, `BENCH_scale.json`, `BENCH_serve.json`) —
//! `records: [{stage, design, wall_ms, throughput}]`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tmm_obs::json::{self, Value};
use tmm_obs::BenchRecord;

/// Noise thresholds for the regression gate.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Maximum tolerated wall-time growth, percent (base→current).
    pub max_regress_pct: f64,
    /// Absolute noise floor in milliseconds: stages whose delta is below
    /// this never regress regardless of percentage.
    pub min_delta_ms: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { max_regress_pct: 25.0, min_delta_ms: 5.0 }
    }
}

impl Thresholds {
    /// The percentage threshold for `stage`. Per-edit ECO records,
    /// microsecond-scale kernel stages, and serve latency percentiles are
    /// noisier than long pipeline stages, so they run at twice the
    /// configured tolerance.
    #[must_use]
    pub fn stage_pct(&self, stage: &str) -> f64 {
        if stage.starts_with("eco_")
            || stage.starts_with("gnn_kernels_")
            || stage.starts_with("serve_")
        {
            self.max_regress_pct * 2.0
        } else {
            self.max_regress_pct
        }
    }
}

/// Verdict for one `{stage, design}` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within thresholds.
    Ok,
    /// Got faster by more than the stage threshold.
    Improved,
    /// Got slower by more than the stage threshold AND the noise floor.
    Regressed,
    /// Present only in the baseline artifact.
    BaselineOnly,
    /// Present only in the current artifact.
    CurrentOnly,
}

impl DiffStatus {
    /// Table/label text.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DiffStatus::Ok => "ok",
            DiffStatus::Improved => "improved",
            DiffStatus::Regressed => "REGRESSED",
            DiffStatus::BaselineOnly => "baseline-only",
            DiffStatus::CurrentOnly => "current-only",
        }
    }
}

/// One row of the diff table.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Stage name.
    pub stage: String,
    /// Design name.
    pub design: String,
    /// Summed baseline wall time, ms (`None` for current-only keys).
    pub base_ms: Option<f64>,
    /// Summed current wall time, ms (`None` for baseline-only keys).
    pub cur_ms: Option<f64>,
    /// Wall-time growth percent, when both sides exist.
    pub delta_pct: Option<f64>,
    /// The verdict.
    pub status: DiffStatus,
}

/// The complete comparison of one baseline/current pair (or directory
/// family).
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every compared key, regressions first, then by stage/design.
    pub rows: Vec<DiffRow>,
    /// Artifact files that contributed records.
    pub files: Vec<String>,
}

impl DiffReport {
    /// Rows that regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.status == DiffStatus::Regressed).collect()
    }

    /// Keys present in the baseline but missing from the candidate run —
    /// a stage that silently stopped being measured is a gate failure,
    /// not a pass.
    #[must_use]
    pub fn removed(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.status == DiffStatus::BaselineOnly).collect()
    }

    /// Renders the markdown diff table (regressions sort first).
    #[must_use]
    pub fn to_markdown(&self, thresholds: &Thresholds) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# benchdiff");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Gate: wall time may grow at most {:.0}% (noisy stages {:.0}%) and {:.1} ms.",
            thresholds.max_regress_pct,
            thresholds.max_regress_pct * 2.0,
            thresholds.min_delta_ms
        );
        if !self.files.is_empty() {
            let _ = writeln!(out, "Artifacts: {}.", self.files.join(", "));
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "| stage | design | base ms | current ms | delta | verdict |");
        let _ = writeln!(out, "|---|---|---:|---:|---:|---|");
        for r in &self.rows {
            let fmt_ms = |v: Option<f64>| match v {
                Some(ms) => format!("{ms:.2}"),
                None => "-".to_string(),
            };
            let delta = match r.delta_pct {
                Some(pct) => format!("{pct:+.1}%"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                r.stage,
                r.design,
                fmt_ms(r.base_ms),
                fmt_ms(r.cur_ms),
                delta,
                r.status.label()
            );
        }
        let regressed = self.regressions().len();
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} key(s) compared, {} regression(s).",
            self.rows.len(),
            regressed
        );
        out
    }
}

/// Parses one artifact's records (`tmm-bench/v1`).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse_bench_records(src: &str, origin: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = json::parse(src).map_err(|e| format!("{origin}: not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("tmm-bench/v1") => {
            let records = doc
                .get("records")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{origin}: missing `records`"))?;
            let mut out = Vec::with_capacity(records.len());
            for (i, r) in records.iter().enumerate() {
                let field_str = |key: &str| {
                    r.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{origin}: record {i} missing string `{key}`"))
                };
                let field_num = |key: &str| {
                    r.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{origin}: record {i} missing numeric `{key}`"))
                };
                out.push(BenchRecord {
                    stage: field_str("stage")?,
                    design: field_str("design")?,
                    wall_ms: field_num("wall_ms")?,
                    throughput: field_num("throughput")?,
                });
            }
            Ok(out)
        }
        Some(other) => Err(format!("{origin}: unsupported schema `{other}`")),
        None => Err(format!("{origin}: missing `schema`")),
    }
}

/// Sums wall time per `{stage, design}` key (one ECO stream emits one
/// record per edit; the gate compares stream totals).
fn totals(records: &[BenchRecord]) -> Vec<(String, String, f64)> {
    let mut keys: Vec<(String, String, f64)> = Vec::new();
    for r in records {
        match keys.iter_mut().find(|(s, d, _)| *s == r.stage && *d == r.design) {
            Some((_, _, ms)) => *ms += r.wall_ms,
            None => keys.push((r.stage.clone(), r.design.clone(), r.wall_ms)),
        }
    }
    keys
}

/// Diffs two record sets under `thresholds`.
#[must_use]
pub fn diff_records(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    thresholds: &Thresholds,
) -> Vec<DiffRow> {
    let base = totals(baseline);
    let cur = totals(current);
    let mut rows: Vec<DiffRow> = Vec::new();
    for (stage, design, base_ms) in &base {
        let row = match cur.iter().find(|(s, d, _)| s == stage && d == design) {
            None => DiffRow {
                stage: stage.clone(),
                design: design.clone(),
                base_ms: Some(*base_ms),
                cur_ms: None,
                delta_pct: None,
                status: DiffStatus::BaselineOnly,
            },
            Some((_, _, cur_ms)) => {
                let delta_ms = cur_ms - base_ms;
                let pct = if *base_ms > 0.0 { delta_ms / base_ms * 100.0 } else { 0.0 };
                let status = if pct > thresholds.stage_pct(stage)
                    && delta_ms > thresholds.min_delta_ms
                {
                    DiffStatus::Regressed
                } else if pct < -thresholds.stage_pct(stage)
                    && -delta_ms > thresholds.min_delta_ms
                {
                    DiffStatus::Improved
                } else {
                    DiffStatus::Ok
                };
                DiffRow {
                    stage: stage.clone(),
                    design: design.clone(),
                    base_ms: Some(*base_ms),
                    cur_ms: Some(*cur_ms),
                    delta_pct: Some(pct),
                    status,
                }
            }
        };
        rows.push(row);
    }
    for (stage, design, cur_ms) in &cur {
        if !base.iter().any(|(s, d, _)| s == stage && d == design) {
            rows.push(DiffRow {
                stage: stage.clone(),
                design: design.clone(),
                base_ms: None,
                cur_ms: Some(*cur_ms),
                delta_pct: None,
                status: DiffStatus::CurrentOnly,
            });
        }
    }
    rows.sort_by(|a, b| {
        let sev = |r: &DiffRow| match r.status {
            DiffStatus::Regressed => 0,
            _ => 1,
        };
        sev(a)
            .cmp(&sev(b))
            .then_with(|| a.stage.cmp(&b.stage))
            .then_with(|| a.design.cmp(&b.design))
    });
    rows
}

/// The `BENCH_*.json` files under `dir`, sorted by name.
fn bench_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Error classes of [`diff_paths`], mirroring the CLI exit classes.
#[derive(Debug)]
pub enum DiffError {
    /// A file or directory could not be read.
    Io(String),
    /// An artifact failed to parse or carried an unknown schema.
    Parse(String),
    /// The inputs produced nothing to compare (e.g. directories sharing
    /// no `BENCH_*.json` family).
    Empty(String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Io(m) | DiffError::Parse(m) | DiffError::Empty(m) => f.write_str(m),
        }
    }
}

fn load_path_records(path: &Path) -> Result<Vec<BenchRecord>, DiffError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| DiffError::Io(format!("{}: {e}", path.display())))?;
    parse_bench_records(&src, &path.display().to_string()).map_err(DiffError::Parse)
}

/// Compares `baseline` and `current`: two artifact files, or two
/// directories (every `BENCH_*.json` family present in **both** is
/// compared; families present in only one side are listed in the report
/// header but not gated).
///
/// # Errors
///
/// [`DiffError::Io`] on unreadable inputs, [`DiffError::Parse`] on
/// malformed artifacts, [`DiffError::Empty`] when nothing is comparable.
pub fn diff_paths(
    baseline: &Path,
    current: &Path,
    thresholds: &Thresholds,
) -> Result<DiffReport, DiffError> {
    let mut report = DiffReport::default();
    if baseline.is_dir() && current.is_dir() {
        let base_files =
            bench_files(baseline).map_err(|e| DiffError::Io(format!("{}: {e}", baseline.display())))?;
        let mut compared = 0usize;
        for bf in &base_files {
            let Some(name) = bf.file_name().and_then(|n| n.to_str()) else { continue };
            let cf = current.join(name);
            let base = load_path_records(bf)?;
            if cf.is_file() {
                let cur = load_path_records(&cf)?;
                report.rows.extend(diff_records(&base, &cur, thresholds));
                report.files.push(name.to_string());
                compared += 1;
            } else {
                // A whole family present in the baseline but absent from
                // the candidate run: every one of its keys is a removed
                // stage. Diffing against an empty record set synthesises
                // the BaselineOnly rows instead of silently dropping them.
                report.rows.extend(diff_records(&base, &[], thresholds));
                report.files.push(format!("{name} (baseline only)"));
            }
        }
        if compared == 0 && report.rows.is_empty() {
            return Err(DiffError::Empty(format!(
                "no BENCH_*.json family present in both {} and {}",
                baseline.display(),
                current.display()
            )));
        }
        // Re-sort across families so regressions lead the merged table.
        report.rows.sort_by(|a, b| {
            let sev = |r: &DiffRow| match r.status {
                DiffStatus::Regressed => 0,
                _ => 1,
            };
            sev(a)
                .cmp(&sev(b))
                .then_with(|| a.stage.cmp(&b.stage))
                .then_with(|| a.design.cmp(&b.design))
        });
    } else if baseline.is_file() && current.is_file() {
        let base = load_path_records(baseline)?;
        let cur = load_path_records(current)?;
        report.rows = diff_records(&base, &cur, thresholds);
        report.files.push(
            current
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("current")
                .to_string(),
        );
    } else {
        return Err(DiffError::Io(format!(
            "baseline and current must both be files or both directories \
             (got {} and {})",
            baseline.display(),
            current.display()
        )));
    }
    if report.rows.is_empty() {
        return Err(DiffError::Empty("artifacts contain no records".into()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stage: &str, design: &str, wall_ms: f64) -> BenchRecord {
        BenchRecord {
            stage: stage.to_string(),
            design: design.to_string(),
            wall_ms,
            throughput: 0.0,
        }
    }

    #[test]
    fn identical_artifacts_pass_clean() {
        let base = vec![rec("training", "suite", 1000.0), rec("ts_sweep", "d1", 400.0)];
        let rows = diff_records(&base, &base, &Thresholds::default());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.status == DiffStatus::Ok));
    }

    #[test]
    fn injected_twenty_percent_slowdown_is_caught() {
        let th = Thresholds { max_regress_pct: 15.0, min_delta_ms: 5.0 };
        let base = vec![rec("macro_merge", "d1", 1000.0), rec("training", "suite", 500.0)];
        let cur = vec![rec("macro_merge", "d1", 1200.0), rec("training", "suite", 500.0)];
        let rows = diff_records(&base, &cur, &th);
        let bad: Vec<_> =
            rows.iter().filter(|r| r.status == DiffStatus::Regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].stage, "macro_merge", "the slowed stage is named");
        assert_eq!(rows[0].stage, "macro_merge", "regressions sort first");
    }

    #[test]
    fn noise_floor_suppresses_tiny_deltas() {
        let th = Thresholds { max_regress_pct: 10.0, min_delta_ms: 5.0 };
        // +100% but only +2 ms: below the floor, not a regression.
        let base = vec![rec("fast_stage", "d", 2.0)];
        let cur = vec![rec("fast_stage", "d", 4.0)];
        let rows = diff_records(&base, &cur, &th);
        assert_eq!(rows[0].status, DiffStatus::Ok);
    }

    #[test]
    fn eco_stages_get_doubled_tolerance_and_are_summed() {
        let th = Thresholds { max_regress_pct: 20.0, min_delta_ms: 1.0 };
        // Two 100 ms edits vs two 130 ms edits: +30% < the 40% eco gate.
        let base = vec![rec("eco_incremental_resize", "d", 100.0); 2];
        let cur = vec![rec("eco_incremental_resize", "d", 130.0); 2];
        let rows = diff_records(&base, &cur, &th);
        assert_eq!(rows.len(), 1, "per-edit records collapse to one key");
        assert!((rows[0].base_ms.unwrap() - 200.0).abs() < 1e-9);
        assert_eq!(rows[0].status, DiffStatus::Ok);
        // +50% exceeds even the doubled gate.
        let cur = vec![rec("eco_incremental_resize", "d", 150.0); 2];
        let rows = diff_records(&base, &cur, &th);
        assert_eq!(rows[0].status, DiffStatus::Regressed);
    }

    #[test]
    fn only_keys_are_reported_not_gated() {
        let base = vec![rec("gone", "d", 10.0)];
        let cur = vec![rec("new", "d", 10.0)];
        let rows = diff_records(&base, &cur, &Thresholds::default());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.status == DiffStatus::BaselineOnly));
        assert!(rows.iter().any(|r| r.status == DiffStatus::CurrentOnly));
        assert!(rows.iter().all(|r| r.status != DiffStatus::Regressed));
    }

    #[test]
    fn parses_bench_v1_and_rejects_schemaless_documents() {
        let v1 = r#"{"schema":"tmm-bench/v1","records":[
            {"stage":"training","design":"suite","wall_ms":12.5,"throughput":100.0}]}"#;
        let recs = parse_bench_records(v1, "t").expect("v1 parses");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].stage, "training");

        // The retired flat kernel-comparison layout carries no `schema`;
        // like any schema-less document it is a parse error (CLI exit 3).
        let flat = r#"{"bench":"gnn_train","naive_seconds":2.0,
            "blocked_seconds_1t":1.0,"blocked_seconds_4t":0.5}"#;
        assert!(parse_bench_records(flat, "t").is_err());
        assert!(parse_bench_records("{}", "t").is_err());
        assert!(parse_bench_records(r#"{"schema":"nope"}"#, "t").is_err());
    }

    #[test]
    fn serve_stages_get_doubled_tolerance() {
        let th = Thresholds { max_regress_pct: 20.0, min_delta_ms: 1.0 };
        // +30% on a serve percentile: inside the doubled 40% gate.
        let base = vec![rec("serve_slack_p99", "d", 100.0)];
        let cur = vec![rec("serve_slack_p99", "d", 130.0)];
        let rows = diff_records(&base, &cur, &th);
        assert_eq!(rows[0].status, DiffStatus::Ok);
        // +50% exceeds it.
        let cur = vec![rec("serve_slack_p99", "d", 150.0)];
        let rows = diff_records(&base, &cur, &th);
        assert_eq!(rows[0].status, DiffStatus::Regressed);
    }

    fn write_bench(dir: &Path, name: &str, stage: &str, wall_ms: f64) {
        let body = format!(
            r#"{{"schema":"tmm-bench/v1","records":[{{"stage":"{stage}","design":"d","wall_ms":{wall_ms},"throughput":0.0}}]}}"#
        );
        std::fs::write(dir.join(name), body).unwrap();
    }

    #[test]
    fn directory_mode_reports_families_missing_from_candidate() {
        let root = std::env::temp_dir()
            .join(format!("tmm-benchdiff-removed-{}", std::process::id()));
        let (base_dir, cur_dir) = (root.join("base"), root.join("cur"));
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();
        write_bench(&base_dir, "BENCH_pipeline.json", "training", 100.0);
        write_bench(&base_dir, "BENCH_serve.json", "serve_overall", 50.0);
        write_bench(&cur_dir, "BENCH_pipeline.json", "training", 100.0);
        // BENCH_serve.json exists only in the baseline: its keys must
        // surface as removed stages, not vanish from the table.
        let report =
            diff_paths(&base_dir, &cur_dir, &Thresholds::default()).expect("diff runs");
        let removed = report.removed();
        assert_eq!(removed.len(), 1, "{:?}", report.rows);
        assert_eq!(removed[0].stage, "serve_overall");
        assert_eq!(removed[0].status, DiffStatus::BaselineOnly);
        assert!(
            report.files.iter().any(|f| f.contains("BENCH_serve.json (baseline only)")),
            "{:?}",
            report.files
        );
        let md = report.to_markdown(&Thresholds::default());
        assert!(md.contains("| serve_overall | d |"), "{md}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn removed_accessor_flags_baseline_only_keys() {
        let base = vec![rec("gone", "d", 10.0), rec("kept", "d", 10.0)];
        let cur = vec![rec("kept", "d", 10.0)];
        let report = DiffReport {
            rows: diff_records(&base, &cur, &Thresholds::default()),
            files: vec![],
        };
        assert_eq!(report.removed().len(), 1);
        assert_eq!(report.removed()[0].stage, "gone");
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn markdown_names_the_regressed_stage() {
        let th = Thresholds::default();
        let base = vec![rec("ts_sweep", "d1", 100.0)];
        let cur = vec![rec("ts_sweep", "d1", 200.0)];
        let report = DiffReport {
            rows: diff_records(&base, &cur, &th),
            files: vec!["BENCH_pipeline.json".to_string()],
        };
        let md = report.to_markdown(&th);
        assert!(md.contains("| ts_sweep | d1 |"), "{md}");
        assert!(md.contains("REGRESSED"), "{md}");
        assert!(md.contains("1 regression(s)"), "{md}");
    }
}
