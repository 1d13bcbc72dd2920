//! Observability must be free: with tracing and metrics compiled in but
//! disabled the pipeline allocates nothing for them, and with them
//! *enabled* every numerical output is byte-identical — instrumentation
//! is read-only and never feeds back into computation.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use timing_macro_gnn::circuits::designs::suite_library;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::core::{Framework, FrameworkConfig};
use timing_macro_gnn::gnn::TrainConfig;
use timing_macro_gnn::obs;
use timing_macro_gnn::sensitivity::TsOptions;

/// Runs the full pipeline (train + generate) on one seeded design and
/// returns the serialized macro-model bytes plus the kept-pin count.
fn run_pipeline() -> (String, usize) {
    let lib = suite_library();
    let d = CircuitSpec::sized("obs_eq", 400).seed(7).generate(&lib).unwrap();
    let mut fw = Framework::new(FrameworkConfig {
        train: TrainConfig { epochs: 30, ..Default::default() },
        ts: TsOptions { contexts: 2, ..Default::default() },
        ..Default::default()
    });
    let outcome = fw.run_on(&d, &lib).unwrap();
    (outcome.model.serialize(), outcome.kept_pins)
}

/// The single test controls enable/disable ordering itself: the obs
/// switches are process-global, so the comparison must run in one test
/// body (this file is its own test binary — no other tests share the
/// process).
#[test]
fn tracing_and_metrics_do_not_change_macro_bytes() {
    // Baseline: everything off (the default).
    assert!(!obs::tracing_enabled());
    assert!(!obs::metrics_enabled());
    let (baseline_bytes, baseline_kept) = run_pipeline();

    // Instrumented: tracing + metrics on, exactly as `--trace-out` and
    // `--metrics-out` configure them.
    obs::enable_tracing();
    obs::enable_metrics();
    let (instrumented_bytes, instrumented_kept) = run_pipeline();

    assert_eq!(baseline_kept, instrumented_kept);
    assert_eq!(
        baseline_bytes, instrumented_bytes,
        "enabling observability must not perturb the macro model"
    );

    // The instrumented run's artifacts must be valid and complete: a
    // Chrome trace covering all four pipeline stages, and a Prometheus
    // exposition with a meaningful number of series.
    let trace = obs::export_trace();
    let (events, stages) = obs::validate_trace_json(&trace).expect("valid Chrome trace");
    assert!(events > 4, "expected nested spans, got {events}");
    for stage in ["data_generation", "training", "prediction", "macro_generation"] {
        assert!(stages.iter().any(|s| s == stage), "missing stage span `{stage}`");
    }

    let metrics = obs::export_metrics();
    let series = obs::validate_metrics_text(&metrics).expect("valid Prometheus text");
    assert!(series >= 12, "expected >= 12 metric series, got {series}");

    // And the run report built from those recordings parses as one.
    let mut report = obs::RunReport::new("test");
    report.capture_environment();
    obs::validate_run_report(&report.to_json()).expect("valid run report");
    assert_eq!(report.stages.len(), 4, "one StageTime per pipeline stage");

    obs::disable_tracing();
    obs::disable_metrics();
}

/// Runs the `tmm` binary with `args` in `dir`, requiring success.
fn tmm_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tmm"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn tmm");
    assert!(
        out.status.success(),
        "tmm {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmm_obs_eq_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read(dir: &std::path::Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The streaming ECO pipeline must produce byte-identical models whether
/// it runs dark or under the full observability stack — tracing, metrics,
/// run report, live status endpoint, and a tight span-buffer cap all at
/// once. Child processes keep the global obs switches isolated per run.
#[test]
fn eco_stream_byte_identical_under_full_observability() {
    let dir = scratch("eco");
    tmm_in(
        &dir,
        &["gen", "--name", "eco_eq", "--pins", "400", "--seed", "7", "--out", "d.tmm",
          "--lib-out", "l.tmm"],
    );
    tmm_in(
        &dir,
        &["eco", "--design", "d.tmm", "--lib", "l.tmm", "--edits", "3", "--seed", "5",
          "--out", "plain.tmm"],
    );
    tmm_in(
        &dir,
        &["eco", "--design", "d.tmm", "--lib", "l.tmm", "--edits", "3", "--seed", "5",
          "--out", "obs.tmm", "--trace-out", "t.json", "--metrics-out", "m.prom",
          "--report-out", "r.json", "--status-addr", "127.0.0.1:0",
          "--span-buffer-cap", "64", "--log-level", "error"],
    );
    assert_eq!(
        read(&dir, "plain.tmm"),
        read(&dir, "obs.tmm"),
        "ECO models must be byte-identical with observability enabled"
    );
    // Live-only series stay on the live endpoint: the exported metrics
    // artifact must not pick up sliding-window or status-endpoint series.
    let metrics = read(&dir, "m.prom");
    assert!(
        !metrics.contains("_per_sec") && !metrics.contains("tmm_live_"),
        "live-only series leaked into --metrics-out:\n{metrics}"
    );
    obs::validate_metrics_text(&metrics).expect("valid exported metrics");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budgeted multi-threaded `tmm model` run under `--status-addr` must
/// write the same model bytes as a dark run: the heartbeat slots, their
/// rate sampler, and the RSS sampler never feed back into computation.
/// Neither does an armed deadline watchdog, which turns progress
/// publishing on by itself.
#[test]
fn budgeted_model_run_byte_identical_under_status_endpoint() {
    let dir = scratch("budget");
    tmm_in(
        &dir,
        &["gen", "--name", "budget_eq", "--pins", "400", "--seed", "11", "--out", "d.tmm",
          "--lib-out", "l.tmm"],
    );
    tmm_in(
        &dir,
        &["model", "--design", "d.tmm", "--lib", "l.tmm", "--out", "plain.tmm",
          "--mem-budget-mb", "1", "--threads", "2"],
    );
    tmm_in(
        &dir,
        &["model", "--design", "d.tmm", "--lib", "l.tmm", "--out", "obs.tmm",
          "--mem-budget-mb", "1", "--threads", "2", "--status-addr", "127.0.0.1:0",
          "--metrics-out", "m.prom", "--log-level", "error"],
    );
    tmm_in(
        &dir,
        &["model", "--design", "d.tmm", "--lib", "l.tmm", "--out", "watched.tmm",
          "--mem-budget-mb", "1", "--threads", "2", "--stage-deadline-ms", "600000"],
    );
    assert_eq!(
        read(&dir, "plain.tmm"),
        read(&dir, "obs.tmm"),
        "budgeted model must be byte-identical under the status endpoint"
    );
    assert_eq!(
        read(&dir, "plain.tmm"),
        read(&dir, "watched.tmm"),
        "budgeted model must be byte-identical under an armed deadline watchdog"
    );
    // The budgeted run must surface the backfilled budget metrics in the
    // exported artifact (they are part of the stable registry, not
    // live-only series).
    let metrics = read(&dir, "m.prom");
    assert!(
        metrics.contains("tmm_mem_budget_flushes_total"),
        "budget flush counter missing from exported metrics:\n{metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
