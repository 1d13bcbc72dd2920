//! Artifact validators for the observability outputs. Used by
//! `tmm obscheck` in CI and by the golden tests: a trace file must be
//! loadable Chrome `trace_event` JSON, a metrics file must parse as
//! Prometheus text exposition, and run reports / bench files must carry
//! their stable schemas.

use crate::json::{self, Value};

/// Validates a Chrome `trace_event` JSON document and returns
/// `(event_count, distinct_stage_names)` on success.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_trace_json(src: &str) -> Result<(usize, Vec<String>), String> {
    let doc = json::parse(src).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace missing `traceEvents` array")?;
    let mut stages = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing `ph`"))?;
        if ph != "X" {
            return Err(format!("event {i} has unsupported phase `{ph}`"));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            if ev.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("event {i} missing numeric `{key}`"));
            }
        }
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing `name`"))?;
        if ev.get("cat").and_then(Value::as_str) == Some("stage")
            && !stages.iter().any(|s| s == name)
        {
            stages.push(name.to_string());
        }
    }
    Ok((events.len(), stages))
}

/// Validates Prometheus text exposition and returns the number of
/// distinct series (unique `name{labels}` sample keys; histogram
/// `_bucket`/`_sum`/`_count` expansions of one series count once, keyed
/// by their base name + labels).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_metrics_text(src: &str) -> Result<usize, String> {
    let mut series: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {}: bare # TYPE", lineno + 1))?;
            let kind = parts.next().ok_or(format!("line {}: # TYPE missing kind", lineno + 1))?;
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {}: unknown metric kind `{kind}`", lineno + 1));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are fine
        }
        // Sample line: name{labels} value  |  name value
        let (key, value) = match line.rfind(' ') {
            Some(idx) => (&line[..idx], &line[idx + 1..]),
            None => return Err(format!("line {}: sample without value", lineno + 1)),
        };
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("line {}: bad sample value `{value}`", lineno + 1));
        }
        let name_part = key.split('{').next().unwrap_or(key);
        if name_part.is_empty()
            || !name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name `{name_part}`", lineno + 1));
        }
        if key.contains('{') && !key.ends_with('}') {
            return Err(format!("line {}: unterminated label set", lineno + 1));
        }
        // Collapse histogram expansions onto their base series so the
        // reported count matches the registry's series count.
        let base = name_part
            .strip_suffix("_bucket")
            .or_else(|| name_part.strip_suffix("_sum"))
            .or_else(|| name_part.strip_suffix("_count"))
            .filter(|b| typed.iter().any(|t| t == b))
            .unwrap_or(name_part);
        let series_key = if base == name_part {
            key.to_string()
        } else {
            base.to_string()
        };
        if !series.contains(&series_key) {
            series.push(series_key);
        }
    }
    Ok(series.len())
}

/// Validates a `tmm-run-report/v1` JSON document.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn validate_run_report(src: &str) -> Result<(), String> {
    let doc = json::parse(src).map_err(|e| format!("report is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("tmm-run-report/v1") {
        return Err("report missing schema `tmm-run-report/v1`".into());
    }
    for key in ["command", "design", "config_fingerprint", "outcome"] {
        if doc.get(key).and_then(Value::as_str).is_none() {
            return Err(format!("report missing string `{key}`"));
        }
    }
    for key in ["peak_rss_bytes", "metric_series"] {
        if doc.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("report missing numeric `{key}`"));
        }
    }
    let stages =
        doc.get("stages").and_then(Value::as_array).ok_or("report missing `stages` array")?;
    for (i, s) in stages.iter().enumerate() {
        if s.get("stage").and_then(Value::as_str).is_none() {
            return Err(format!("stage {i} missing `stage`"));
        }
        for key in ["wall_s", "cpu_s"] {
            if s.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("stage {i} missing numeric `{key}`"));
            }
        }
    }
    Ok(())
}

/// Validates a `tmm-bench/v1` JSON document (`BENCH_pipeline.json`).
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn validate_bench_json(src: &str) -> Result<usize, String> {
    let doc = json::parse(src).map_err(|e| format!("bench file is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("tmm-bench/v1") {
        return Err("bench file missing schema `tmm-bench/v1`".into());
    }
    let records =
        doc.get("records").and_then(Value::as_array).ok_or("bench file missing `records`")?;
    for (i, r) in records.iter().enumerate() {
        for key in ["stage", "design"] {
            if r.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("record {i} missing string `{key}`"));
            }
        }
        for key in ["wall_ms", "throughput"] {
            if r.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("record {i} missing numeric `{key}`"));
            }
        }
    }
    Ok(records.len())
}

/// Validates a `tmm-progress/v1` heartbeat document (the `/progress`
/// endpoint response) and returns the number of progress slots.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn validate_progress_json(src: &str) -> Result<usize, String> {
    let doc = json::parse(src).map_err(|e| format!("progress is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("tmm-progress/v1") {
        return Err("progress missing schema `tmm-progress/v1`".into());
    }
    if doc.get("uptime_ms").and_then(Value::as_f64).is_none() {
        return Err("progress missing numeric `uptime_ms`".into());
    }
    let slots =
        doc.get("slots").and_then(Value::as_array).ok_or("progress missing `slots` array")?;
    for (i, s) in slots.iter().enumerate() {
        for key in ["stage", "design"] {
            if s.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("slot {i} missing string `{key}`"));
            }
        }
        for key in ["done", "total", "elapsed_ms"] {
            if s.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("slot {i} missing numeric `{key}`"));
            }
        }
        match s.get("per_sec").and_then(Value::as_f64) {
            Some(rate) if rate.is_finite() && rate >= 0.0 => {}
            Some(rate) => {
                return Err(format!("slot {i}: per_sec {rate} is not a finite non-negative"))
            }
            None => return Err(format!("slot {i} missing numeric `per_sec`")),
        }
        let done = s.get("done").and_then(Value::as_f64).unwrap_or(0.0);
        let total = s.get("total").and_then(Value::as_f64).unwrap_or(0.0);
        // `done > total` is legal (ECO streams extend mid-run), but the
        // ETA derived from it must be clamped: null or a finite
        // non-negative number, and exactly 0 once done has reached or
        // passed a known total. A huge ETA here is the u64-wrap bug.
        match s.get("eta_ms") {
            None => return Err(format!("slot {i} missing `eta_ms` (number or null)")),
            Some(Value::Null) => {
                if done > 0.0 && total > 0.0 {
                    return Err(format!(
                        "slot {i}: eta_ms is null with done {done} / total {total} known"
                    ));
                }
            }
            Some(v) => {
                let eta = v
                    .as_f64()
                    .ok_or_else(|| format!("slot {i}: eta_ms must be a number or null"))?;
                if !eta.is_finite() || eta < 0.0 {
                    return Err(format!("slot {i}: eta_ms {eta} is not a finite non-negative"));
                }
                if total > 0.0 && done >= total && eta != 0.0 {
                    return Err(format!(
                        "slot {i}: eta_ms {eta} not clamped to 0 with done {done} >= total {total}"
                    ));
                }
            }
        }
    }
    let rss = doc.get("rss").ok_or("progress missing `rss` object")?;
    for key in ["current_bytes", "peak_bytes"] {
        if rss.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("progress rss missing numeric `{key}`"));
        }
    }
    let timeline =
        rss.get("timeline").and_then(Value::as_array).ok_or("progress missing rss `timeline`")?;
    for (i, t) in timeline.iter().enumerate() {
        for key in ["at_ms", "rss_bytes"] {
            if t.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("rss sample {i} missing numeric `{key}`"));
            }
        }
    }
    Ok(slots.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_minimal_trace() {
        let src = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"name":"training","cat":"stage","args":{}},
            {"ph":"X","pid":1,"tid":2,"ts":1,"dur":2,"name":"epoch","cat":"gnn","args":{}}
        ]}"#;
        let (n, stages) = validate_trace_json(src).expect("valid");
        assert_eq!(n, 2);
        assert_eq!(stages, vec!["training".to_string()]);
    }

    #[test]
    fn rejects_trace_without_events() {
        assert!(validate_trace_json("{}").is_err());
        assert!(validate_trace_json(r#"{"traceEvents":[{"ph":"B"}]}"#).is_err());
    }

    #[test]
    fn accepts_prometheus_text() {
        let src = "# TYPE tmm_x_total counter\ntmm_x_total{stage=\"a\"} 3\n\
                   # TYPE tmm_h_seconds histogram\n\
                   tmm_h_seconds_bucket{le=\"0.1\"} 1\ntmm_h_seconds_bucket{le=\"+Inf\"} 2\n\
                   tmm_h_seconds_sum 0.3\ntmm_h_seconds_count 2\n";
        assert_eq!(validate_metrics_text(src), Ok(2));
    }

    #[test]
    fn rejects_malformed_metrics() {
        assert!(validate_metrics_text("tmm_x_total notanumber\n").is_err());
        assert!(validate_metrics_text("bad name 1\n").is_err());
        assert!(validate_metrics_text("# TYPE tmm_x blob\n").is_err());
    }

    #[test]
    fn report_and_bench_validators_round_trip() {
        let mut report = crate::RunReport::new("model");
        report.config_fingerprint = crate::fingerprint("cfg");
        report.stages.push(crate::StageTime {
            stage: "training".into(),
            wall_s: 0.5,
            cpu_s: 1.0,
        });
        validate_run_report(&report.to_json()).expect("valid report");

        let rec = crate::BenchRecord {
            stage: "gnn_train".into(),
            design: "mem_ctrl".into(),
            wall_ms: 9.0,
            throughput: 1000.0,
        };
        let doc = crate::render_bench_json("pipeline", &[rec], &report);
        assert_eq!(validate_bench_json(&doc), Ok(1));
    }

    #[test]
    fn progress_validator_accepts_rendered_document() {
        let doc = crate::progress::render_progress_json(&[(5, 1024, 0)]);
        let slots = validate_progress_json(&doc).expect("rendered progress is valid");
        // No live slots claimed in this test; the shape is what matters.
        assert_eq!(slots, crate::progress::progress_entries().len());
    }

    #[test]
    fn progress_validator_rejects_bad_documents() {
        assert!(validate_progress_json("{}").is_err());
        assert!(validate_progress_json(
            r#"{"schema":"tmm-progress/v1","uptime_ms":1,"slots":[{"stage":"x"}],"rss":{"current_bytes":0,"peak_bytes":0,"timeline":[]}}"#
        )
        .is_err());
        assert!(
            validate_progress_json(
                r#"{"schema":"tmm-progress/v1","uptime_ms":1,"slots":[],"rss":{"current_bytes":0,"peak_bytes":0,"timeline":[]}}"#
            )
            .is_ok(),
            "empty slot list is valid"
        );
    }

    fn progress_doc(slot: &str) -> String {
        format!(
            r#"{{"schema":"tmm-progress/v1","uptime_ms":1,"slots":[{slot}],"rss":{{"current_bytes":0,"peak_bytes":0,"timeline":[]}}}}"#
        )
    }

    #[test]
    fn progress_validator_enforces_eta_clamp_rule() {
        // Mid-run extension: done past total is legal as long as the ETA
        // clamped to 0.
        assert!(validate_progress_json(&progress_doc(
            r#"{"stage":"eco","design":"d","done":140,"total":100,"elapsed_ms":5,"eta_ms":0,"per_sec":0,"active":true}"#
        ))
        .is_ok());
        // The u64-wrap bug shape: done >= total with an enormous ETA.
        let err = validate_progress_json(&progress_doc(
            r#"{"stage":"eco","design":"d","done":140,"total":100,"elapsed_ms":5,"eta_ms":18446744073709000000,"per_sec":0,"active":true}"#
        ))
        .expect_err("wrapped eta rejected");
        assert!(err.contains("not clamped"), "{err}");
        // Unknown total: null ETA is the correct rendering.
        assert!(validate_progress_json(&progress_doc(
            r#"{"stage":"eco","design":"d","done":5,"total":0,"elapsed_ms":5,"eta_ms":null,"per_sec":0,"active":true}"#
        ))
        .is_ok());
        // Known progress must come with a concrete ETA.
        assert!(validate_progress_json(&progress_doc(
            r#"{"stage":"eco","design":"d","done":5,"total":10,"elapsed_ms":5,"eta_ms":null,"per_sec":0,"active":true}"#
        ))
        .is_err());
        // Negative ETAs never validate.
        assert!(validate_progress_json(&progress_doc(
            r#"{"stage":"eco","design":"d","done":5,"total":10,"elapsed_ms":5,"eta_ms":-3,"per_sec":0,"active":true}"#
        ))
        .is_err());
        // A slot with no eta_ms field at all predates the rule.
        assert!(validate_progress_json(&progress_doc(
            r#"{"stage":"eco","design":"d","done":5,"total":10,"elapsed_ms":5,"per_sec":0,"active":true}"#
        ))
        .is_err());
    }

    #[test]
    fn progress_validator_requires_a_finite_non_negative_rate() {
        let row = |rate: &str| {
            progress_doc(&format!(
                r#"{{"stage":"ts_sweep","design":"d","done":5,"total":10,"elapsed_ms":5,"eta_ms":5,"per_sec":{rate},"active":true}}"#
            ))
        };
        assert!(validate_progress_json(&row("12.5")).is_ok());
        let err = validate_progress_json(&row("-1.5")).expect_err("negative rate rejected");
        assert!(err.contains("per_sec"), "{err}");
        // JSON has no NaN literal; both the bare token and an overflow to
        // infinity must fail, the latter on the rate rule itself.
        assert!(validate_progress_json(&row("NaN")).is_err());
        let err = validate_progress_json(&row("1e999")).expect_err("infinite rate rejected");
        assert!(err.contains("per_sec"), "{err}");
        let missing = progress_doc(
            r#"{"stage":"ts_sweep","design":"d","done":5,"total":10,"elapsed_ms":5,"eta_ms":5,"active":true}"#,
        );
        assert!(validate_progress_json(&missing).expect_err("rate required").contains("per_sec"));
    }
}
