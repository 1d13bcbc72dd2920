//! `tmm` — command-line driver for the timing-macro-modeling stack.
//!
//! ```text
//! tmm gen      --name <id> --pins <n> [--seed <s>] --out <design.tmm> [--lib-out <lib.tmm>]
//! tmm stats    --design <design.tmm> --lib <lib.tmm>
//! tmm model    --design <design.tmm> --lib <lib.tmm> --out <model.tmm>
//!              [--method ours|itimerm|libabs|atm] [--cppr] [--aocv] [--threads <n>]
//!              [--mem-budget-mb <n>]
//! tmm time     --model <model.tmm> [--contexts <n>] [--cppr] [--aocv]
//! tmm eval     --design <design.tmm> --lib <lib.tmm> --model <model.tmm>
//!              [--contexts <n>] [--cppr] [--aocv]
//! tmm validate [--lib <lib.tmm>] [--design <design.tmm>] [--model <model.tmm>]
//!              [--gnn <gnn.tmm>]
//! tmm eco      --design <design.tmm> --lib <lib.tmm> [--edits <n>] [--seed <s>]
//!              [--out <model.tmm>] [--bench-out <BENCH_eco.json>]
//! tmm diffcheck [--seed <s>] [--designs <n>] [--inject <fault-op>]
//!              [--replay <file.repro.ron>] [--out-dir <dir>]
//! tmm obscheck [--trace <trace.json>] [--metrics <metrics.prom>]
//!              [--report <report.json>] [--bench <BENCH.json>]
//!              [--progress <progress.json>]
//! tmm benchdiff --baseline <file|dir> --current <file|dir>
//!              [--max-regress-pct <pct>] [--min-ms <ms>] [--out <table.md>]
//! ```
//!
//! Everything round-trips through the text formats in `tmm_sta::io` and
//! `MacroModel::serialize`/`parse`, so the files this tool writes are the
//! exact artifacts a hierarchical flow would exchange.
//!
//! # Observability
//!
//! Every command accepts these global flags:
//!
//! * `--trace-out <file>` — record hierarchical spans and write a Chrome
//!   `trace_event` JSON file (load in `chrome://tracing` or Perfetto).
//! * `--metrics-out <file>` — record pipeline metrics and write Prometheus
//!   text exposition.
//! * `--report-out <file>` — write a machine-readable run report (stage
//!   wall/CPU times, config fingerprint, peak RSS, outcome class).
//! * `--log-level <error|warn|info|debug|trace>` — structured stderr log
//!   level (default `warn`; the `TMM_LOG` env var is the fallback).
//! * `--status-addr <host:port>` — serve a live status endpoint for the
//!   duration of the run: `/metrics` (Prometheus text plus a windowed
//!   `tmm_progress_per_sec` rate per running stage), `/progress` (JSON
//!   stage heartbeats with rate, ETA and an RSS timeline), `/spans`
//!   (currently-open span stacks per thread).
//! * `--span-buffer-cap <n>` — bound in-memory span storage; the oldest
//!   nested spans drop first and are counted in
//!   `tmm_live_dropped_spans_total`.
//!
//! Instrumentation is read-only and disabled unless requested: outputs are
//! byte-identical with and without these flags.
//!
//! # Exit codes
//!
//! Failures are classed so scripts can react without scraping stderr:
//!
//! | code | class |
//! |------|------------------------------------------------|
//! | 0    | success                                        |
//! | 1    | usage error (bad flags, unknown command)       |
//! | 2    | I/O error (unreadable/unwritable file)         |
//! | 3    | parse error (malformed artifact text)          |
//! | 4    | validation error (well-formed but corrupt data)|
//! | 5    | analysis/pipeline error                        |
//! | 6    | stage deadline exceeded (watchdog abort)       |
//!
//! Code 6 is emitted directly by the deadline watchdog
//! (`--stage-deadline-ms` / `--deadline-ms`): a stage that stops making
//! progress is aborted rather than hung, and any checkpoints already on
//! disk stay resumable.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::ckpt::{self, CkptError, DeadlineAction, Session, StageSupervisor};
use timing_macro_gnn::core::{Framework, FrameworkConfig, Stage, TmmError};
use timing_macro_gnn::gnn::GnnModel;
use timing_macro_gnn::macromodel::baselines::{
    generate_atm, generate_itimerm, generate_libabs, ITIMERM_DEFAULT_TOLERANCE,
};
use timing_macro_gnn::macromodel::eval::{evaluate, EvalOptions};
use timing_macro_gnn::macromodel::{MacroModel, MacroModelOptions};
use timing_macro_gnn::sta::constraints::ContextSampler;
use timing_macro_gnn::sta::graph::ArcGraph;
use timing_macro_gnn::sta::io::{parse_library, parse_netlist, write_library, write_netlist};
use timing_macro_gnn::sta::liberty::Library;
use timing_macro_gnn::sta::netlist::Netlist;
use timing_macro_gnn::sta::propagate::AnalysisOptions;
use timing_macro_gnn::sta::report::{critical_paths, format_path, slack_summary};
use timing_macro_gnn::sta::split::{Edge, Mode};
use timing_macro_gnn::obs;
use timing_macro_gnn::serve;
use timing_macro_gnn::sta::validate::{validate_arc_graph, validate_library, validate_netlist};
use timing_macro_gnn::sta::StaError;

/// Failure class, doubling as the process exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrClass {
    Usage = 1,
    Io = 2,
    Parse = 3,
    Validation = 4,
    Analysis = 5,
}

/// Exit code the deadline watchdog uses when a stage goes silent. Not an
/// [`ErrClass`]: the watchdog exits the process directly rather than
/// unwinding through `CliError`.
const DEADLINE_EXIT: u8 = 6;

#[derive(Debug)]
struct CliError {
    class: ErrClass,
    msg: String,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError { class: ErrClass::Usage, msg: msg.into() }
    }
    fn io(msg: impl Into<String>) -> Self {
        CliError { class: ErrClass::Io, msg: msg.into() }
    }
    fn validation(msg: impl Into<String>) -> Self {
        CliError { class: ErrClass::Validation, msg: msg.into() }
    }
}

impl From<StaError> for CliError {
    fn from(e: StaError) -> Self {
        let class = match &e {
            StaError::ParseFormat { .. } => ErrClass::Parse,
            StaError::Validation { .. } => ErrClass::Validation,
            _ => ErrClass::Analysis,
        };
        CliError { class, msg: e.to_string() }
    }
}

impl From<CkptError> for CliError {
    fn from(e: CkptError) -> Self {
        // Corrupt and mismatched checkpoints are data problems (the run
        // must not silently reuse them); only Io is an environment one.
        let class = match &e {
            CkptError::Io(_) => ErrClass::Io,
            CkptError::Corrupt(_) | CkptError::Mismatch(_) => ErrClass::Validation,
        };
        CliError { class, msg: e.to_string() }
    }
}

impl From<TmmError> for CliError {
    fn from(e: TmmError) -> Self {
        let class = if e.stage == Stage::Validation {
            ErrClass::Validation
        } else {
            match &e.source {
                StaError::ParseFormat { .. } => ErrClass::Parse,
                StaError::Validation { .. } => ErrClass::Validation,
                _ => ErrClass::Analysis,
            }
        };
        CliError { class, msg: e.to_string() }
    }
}

type CliResult = Result<(), CliError>;

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(name.to_string());
                    i += 1;
                }
            } else {
                return Err(CliError::usage(format!("unexpected positional argument `{a}`")));
            }
        }
        Ok(Args { flags, switches })
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::usage(format!("missing --{name}")))
    }

    fn get_or(&self, name: &str, default: &str) -> String {
        self.flags.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: &str) -> Result<T, CliError> {
        self.get_or(name, default)
            .parse()
            .map_err(|_| CliError::usage(format!("--{name} must be a number")))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))
}

/// Atomic (temp-file + fsync + rename) write: no artifact this tool
/// produces is ever observable in a torn state, even across a crash.
fn write_file(path: &str, content: &str) -> CliResult {
    ckpt::atomic_write_str(path, content)
        .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))
}

fn load_library(path: &str) -> Result<Library, CliError> {
    parse_library(&read_file(path)?)
        .map_err(|e| CliError { msg: format!("{path}: {e}"), ..CliError::from(e) })
}

fn load_netlist(path: &str, lib: &Library) -> Result<Netlist, CliError> {
    parse_netlist(&read_file(path)?, lib)
        .map_err(|e| CliError { msg: format!("{path}: {e}"), ..CliError::from(e) })
}

fn load_design(path: &str, lib: &Library) -> Result<ArcGraph, CliError> {
    let netlist = load_netlist(path, lib)?;
    ArcGraph::from_netlist(&netlist, lib)
        .map_err(|e| CliError { msg: format!("{path}: {e}"), ..CliError::from(e) })
}

fn cmd_gen(args: &Args) -> CliResult {
    let name = args.required("name")?;
    let pins: usize = args.parsed("pins", "1000")?;
    let seed: u64 = args.parsed("seed", "1")?;
    let out = args.required("out")?;
    let library = Library::synthetic(7);
    let netlist = CircuitSpec::sized(name, pins).seed(seed).generate(&library)?;
    write_file(out, &write_netlist(&netlist))?;
    eprintln!(
        "wrote {out}: {} pins, {} cells, {} nets",
        netlist.stats().pins,
        netlist.stats().cells,
        netlist.stats().nets
    );
    if let Some(lib_out) = args.flags.get("lib-out") {
        write_file(lib_out, &write_library(&library))?;
        eprintln!("wrote {lib_out}: {} cells", library.templates().len());
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> CliResult {
    let lib = load_library(args.required("lib")?)?;
    let graph = load_design(args.required("design")?, &lib)?;
    println!("design  : {}", graph.name());
    println!("pins    : {}", graph.live_nodes());
    println!("arcs    : {}", graph.live_arcs());
    println!("inputs  : {}", graph.primary_inputs().len());
    println!("outputs : {}", graph.primary_outputs().len());
    println!("checks  : {}", graph.checks().len());
    println!(
        "clocked : {}",
        if graph.clock_source().is_some() { "yes" } else { "no" }
    );
    Ok(())
}

fn cmd_model(args: &Args, report: &mut obs::RunReport) -> CliResult {
    let lib = load_library(args.required("lib")?)?;
    let design_path = args.required("design")?;
    let out = args.required("out")?;
    let method = args.get_or("method", "ours");
    let cppr = args.switch("cppr");
    let aocv = args.switch("aocv");
    // 1 = sequential (the default), 0 = one worker per hardware thread.
    // Any value is bit-identical to sequential; this only changes speed.
    let threads: usize = args.parsed("threads", "1")?;
    // Soft working-memory budget in MiB (0 = unbounded). TS sweeps chunk
    // their context groups and the merge flushes its overlay to stay near
    // the budget; any value is bit-identical to unbounded.
    let mem_budget_mb: usize = args.parsed("mem-budget-mb", "0")?;
    // A stage going silent for longer than this aborts the process with
    // exit code 6; checkpoints on disk stay resumable. 0 disables it.
    let deadline_ms: u64 = args.parsed("stage-deadline-ms", "0")?;
    let _watchdog = (deadline_ms > 0).then(|| {
        StageSupervisor::start(
            "tmm model",
            Duration::from_millis(deadline_ms),
            DeadlineAction::Exit(DEADLINE_EXIT),
        )
    });
    if args.flags.contains_key("checkpoint-dir") && method != "ours" {
        return Err(CliError::usage("--checkpoint-dir requires --method ours"));
    }

    let netlist = load_netlist(design_path, &lib)?;
    report.design = netlist.name().to_string();
    report.fact("method", &method);
    let flat = ArcGraph::from_netlist(&netlist, &lib)
        .map_err(|e| CliError { msg: format!("{design_path}: {e}"), ..CliError::from(e) })?;

    let opts = MacroModelOptions { mem_budget_mb, ..Default::default() };
    let mut session: Option<Session> = None;
    let model = match method.as_str() {
        "ours" => {
            let config = FrameworkConfig {
                cppr_mode: cppr,
                with_cppr_feature: cppr,
                aocv_mode: aocv,
                ..Default::default()
            }
            .with_threads(threads)
            .with_mem_budget(mem_budget_mb);
            report.config_fingerprint = config.fingerprint();
            if let Some(dir) = args.flags.get("checkpoint-dir") {
                // The session binds its manifest to (config fingerprint,
                // design); `--resume` against a stale pair is a classed
                // error, never a silent reuse.
                let s = Session::open(
                    dir,
                    &config.fingerprint(),
                    netlist.name(),
                    args.switch("resume"),
                )?;
                if s.resumed_entries() > 0 {
                    eprintln!(
                        "resuming from {} checkpoint entr(ies) in {dir}",
                        s.resumed_entries()
                    );
                }
                report.fact("ckpt_resumed_entries", s.resumed_entries());
                session = Some(s);
            }
            // Reuse a previously exported GNN when provided; otherwise
            // train on the design itself.
            let mut fw = match args.flags.get("gnn") {
                Some(path) => {
                    let fw = Framework::import_model(config, &read_file(path)?)?;
                    obs::info(&[("path", path)], "loaded trained GNN");
                    fw
                }
                None => Framework::new(config),
            };
            if !fw.is_trained() {
                // Quarantine warnings (per design and per TS sweep) are
                // emitted by the framework's structured logger.
                let designs = [(netlist.name().to_string(), netlist.clone())];
                let summary = match session.as_mut() {
                    Some(s) => fw.train_ckpt(&designs, &lib, s)?,
                    None => fw.train(&designs, &lib)?,
                };
                report.fact("final_loss", format!("{:.6}", summary.final_loss));
                report.fact("retries", summary.retries);
            }
            let outcome = match session.as_mut() {
                Some(s) => fw.run_on_ckpt(&netlist, &lib, s)?,
                None => fw.run_on(&netlist, &lib)?,
            };
            obs::info(
                &[
                    ("variant", &outcome.prediction.predicted_variant.to_string()),
                    ("hard_kept", &outcome.prediction.hard_kept.to_string()),
                ],
                "GNN prediction complete",
            );
            if outcome.degraded {
                report.outcome = "degraded".to_string();
            }
            if let Some(gnn_out) = args.flags.get("gnn-out") {
                write_file(gnn_out, &fw.export_model()?)?;
                eprintln!("wrote trained GNN to {gnn_out}");
            }
            outcome.model
        }
        "itimerm" => generate_itimerm(&flat, ITIMERM_DEFAULT_TOLERANCE, &opts)?,
        "libabs" => generate_libabs(&flat, &opts)?,
        "atm" => generate_atm(&flat, &opts)?,
        other => return Err(CliError::usage(format!("unknown method `{other}`"))),
    };
    let serialized = model.serialize();
    write_file(out, &serialized)?;
    if let Some(s) = session.as_mut() {
        // Bind the produced model to the checkpoint set; `tmm ckptcheck`
        // cross-checks this note against the file it byte-compares.
        s.note("macro_model_sum", &obs::fingerprint(&serialized))?;
    }
    report.fact("kept_pins", model.stats().kept_pins);
    report.fact("flat_pins", model.stats().flat_pins);
    report.fact("model_bytes", serialized.len());
    eprintln!(
        "wrote {out}: {} pins kept of {}, {} bytes, generated in {:.3}s",
        model.stats().kept_pins,
        model.stats().flat_pins,
        serialized.len(),
        model.stats().gen_time.as_secs_f64()
    );
    Ok(())
}

fn cmd_time(args: &Args) -> CliResult {
    let path = args.required("model")?;
    let model = MacroModel::parse(&read_file(path)?)
        .map_err(|e| CliError { msg: format!("{path}: {e}"), ..CliError::from(e) })?;
    let contexts: usize = args.parsed("contexts", "1")?;
    let options =
        AnalysisOptions { cppr: args.switch("cppr"), aocv: args.switch("aocv") };
    // An explicit --context file overrides the sampled contexts.
    let ctx_list = match args.flags.get("context") {
        Some(path) => {
            vec![timing_macro_gnn::sta::io::parse_context(&read_file(path)?)?]
        }
        None => ContextSampler::new(0x71e).sample_many(model.graph(), contexts),
    };
    for (i, ctx) in ctx_list.iter().enumerate() {
        let an = model.analyze(ctx, options)?;
        println!("context {i}:");
        for po in &an.boundary().po {
            let slack = po.slack.late.rise.min(po.slack.late.fall);
            println!(
                "  {:<24} at {:>9.2} ps  slack {:>9.2} ps",
                po.name,
                po.at[Mode::Late][Edge::Rise],
                slack
            );
        }
        for ck in an.boundary().checks.iter().take(8) {
            println!(
                "  check {:<18} setup {:>9.2} ps  hold {:>9.2} ps",
                ck.name,
                ck.setup_slack.rise.min(ck.setup_slack.fall),
                ck.hold_slack.rise.min(ck.hold_slack.fall)
            );
        }
        let summary = slack_summary(&an);
        println!(
            "  WNS {:.2} ps, TNS {:.2} ps, {}/{} endpoints failing",
            summary.wns, summary.tns, summary.failing, summary.endpoints
        );
        let n_paths: usize = args.parsed("paths", "0")?;
        for path in critical_paths(model.graph(), &an, ctx, n_paths) {
            println!("{}", format_path(&path));
        }
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> CliResult {
    let lib = load_library(args.required("lib")?)?;
    let flat = load_design(args.required("design")?, &lib)?;
    let model_path = args.required("model")?;
    let model = MacroModel::parse(&read_file(model_path)?)
        .map_err(|e| CliError { msg: format!("{model_path}: {e}"), ..CliError::from(e) })?;
    let contexts: usize = args.parsed("contexts", "6")?;
    let result = evaluate(
        &flat,
        &model,
        &EvalOptions {
            contexts,
            cppr: args.switch("cppr"),
            aocv: args.switch("aocv"),
            ..Default::default()
        },
    )?;
    println!("compared values : {}", result.accuracy.count);
    println!("avg error       : {:.4} ps", result.accuracy.avg);
    println!("max error       : {:.4} ps", result.accuracy.max);
    println!("model file size : {} bytes", result.model_bytes);
    println!("usage time      : {:.4} s", result.usage_time.as_secs_f64());
    println!("flat time       : {:.4} s", result.flat_time.as_secs_f64());
    Ok(())
}

fn cmd_context(args: &Args) -> CliResult {
    let lib = load_library(args.required("lib")?)?;
    let graph = load_design(args.required("design")?, &lib)?;
    let seed: u64 = args.parsed("seed", "1")?;
    let out = args.required("out")?;
    let ctx = ContextSampler::new(seed).sample(&graph);
    write_file(out, &timing_macro_gnn::sta::io::write_context(&ctx))?;
    eprintln!("wrote {out}: {} PIs, {} POs, period {:.1} ps", ctx.pi.len(), ctx.po.len(), ctx.clock.period);
    Ok(())
}

/// Runs the structured validators over the given artifacts, prints each
/// report, and fails with the validation exit code when any artifact has
/// error-severity diagnostics.
fn cmd_validate(args: &Args, report: &mut obs::RunReport) -> CliResult {
    fn show(
        report: &timing_macro_gnn::sta::validate::ValidationReport,
        errors: &mut usize,
        validated: &mut usize,
    ) {
        *validated += 1;
        *errors += report.error_count();
        print!("{report}");
    }
    let mut errors = 0usize;
    let mut validated = 0usize;

    let lib = match args.flags.get("lib") {
        Some(path) => {
            let lib = load_library(path)?;
            show(&validate_library(&lib), &mut errors, &mut validated);
            Some(lib)
        }
        None => None,
    };
    if let Some(path) = args.flags.get("design") {
        let Some(lib) = &lib else {
            return Err(CliError::usage("--design requires --lib"));
        };
        let netlist = load_netlist(path, lib)?;
        let netlist_report = validate_netlist(&netlist, lib);
        let netlist_clean = netlist_report.is_clean();
        show(&netlist_report, &mut errors, &mut validated);
        // Lowering both exercises the builder's own checks (cycles,
        // connectivity) and enables the graph-level validator.
        if netlist_clean {
            match ArcGraph::from_netlist(&netlist, lib) {
                Ok(flat) => show(&validate_arc_graph(&flat), &mut errors, &mut validated),
                Err(e) => {
                    validated += 1;
                    errors += 1;
                    println!("graph: cannot lower netlist: {e}");
                }
            }
        }
    }
    if let Some(path) = args.flags.get("model") {
        let model = MacroModel::parse(&read_file(path)?)
            .map_err(|e| CliError { msg: format!("{path}: {e}"), ..CliError::from(e) })?;
        show(&model.validate(), &mut errors, &mut validated);
    }
    if let Some(path) = args.flags.get("gnn") {
        validated += 1;
        let model = GnnModel::from_text(&read_file(path)?)
            .map_err(|e| CliError { class: ErrClass::Parse, msg: format!("{path}: {e}") })?;
        let finite = model.weights_finite();
        let round_trip = GnnModel::from_text(&model.to_text())
            .map(|m| m.to_text() == model.to_text())
            .unwrap_or(false);
        let gnn_errors = usize::from(!finite) + usize::from(!round_trip);
        errors += gnn_errors;
        println!("gnn model: {gnn_errors} error(s), 0 warning(s)");
        if !finite {
            println!("  error [weights-nonfinite] model weights contain non-finite values");
        }
        if !round_trip {
            println!("  error [round-trip-mismatch] serialised model does not round-trip");
        }
    }

    if let Some(path) = args.flags.get("design") {
        report.design = path.clone();
    }
    report.fact("artifacts", validated);
    report.fact("errors", errors);
    if validated == 0 {
        return Err(CliError::usage(
            "nothing to validate: pass --lib, --design, --model, or --gnn",
        ));
    }
    if errors > 0 {
        return Err(CliError::validation(format!(
            "{errors} validation error(s) across {validated} artifact(s)"
        )));
    }
    eprintln!("all {validated} artifact(s) clean");
    Ok(())
}

/// Randomized cross-engine differential sweep: generate seeded designs,
/// run every engine pairing plus the semantic invariants, shrink each
/// divergence to a minimal design, and write self-contained `.repro.ron`
/// artifacts. With `--inject <op>` a deliberate tmm-faults corruption is
/// planted to prove the harness catches it end to end; `--replay <file>`
/// re-runs a previously written artifact instead of sweeping.
fn cmd_diffcheck(args: &Args, report: &mut obs::RunReport) -> CliResult {
    use timing_macro_gnn::diffcheck;

    let check = diffcheck::CheckOptions {
        ts_contexts: args.parsed("contexts", "2")?,
        threads: args.parsed("threads", "3")?,
        probes: args.parsed("probes", "4")?,
        eco_edits: args.parsed("eco-edits", "3")?,
        // Deliberate stale-carry bug for harness self-tests: the
        // eco-equality check must catch and shrink it.
        eco_stale_carry: args.switch("inject-eco-stale"),
    };

    if let Some(path) = args.flags.get("replay") {
        let repro = diffcheck::Repro::parse(&read_file(path)?)
            .map_err(|e| CliError { class: ErrClass::Parse, msg: format!("{path}: {e}") })?;
        report.design = repro.design.clone();
        report.fact("check", &repro.check);
        let outcome = repro
            .replay(&check)
            .map_err(|e| CliError::validation(format!("{path}: {e}")))?;
        return match outcome {
            Some(detail) => {
                println!("{path}: divergence reproduces on {}: {detail}", repro.check);
                Ok(())
            }
            None => Err(CliError {
                class: ErrClass::Analysis,
                msg: format!("{path}: recorded divergence no longer reproduces"),
            }),
        };
    }

    let inject = match args.flags.get("inject") {
        Some(op_name) => {
            let op = diffcheck::graph_fault_by_name(op_name).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown fault operator `{op_name}` (graph operators only)"
                ))
            })?;
            Some((op, args.parsed("inject-seed", "0")?))
        }
        None => None,
    };
    let deadline_ms: u64 = args.parsed("deadline-ms", "0")?;
    let opts = diffcheck::DiffcheckOptions {
        seed: args.parsed("seed", "0")?,
        designs: args.parsed("designs", "50")?,
        library: args.parsed("library", "1")?,
        check,
        inject,
        max_findings: args.parsed("max-findings", "3")?,
        // 0 disables the per-design deadline watchdog (exit code 6).
        deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
    };
    let max_cells: usize = args.parsed("max-cells", "20")?;
    let out_dir = args.get_or("out-dir", ".");

    let outcome = diffcheck::run_sweep(&opts)?;
    report.fact("designs", outcome.designs_run);
    report.fact("injections_applied", outcome.injections_applied);
    report.fact("findings", outcome.findings.len());
    // `injections_applied` equals `designs_run` when nothing is injected,
    // so the fault clause is printed only for an `--inject` sweep.
    let faulted = match opts.inject {
        Some(_) => format!(" ({} with the fault applied)", outcome.injections_applied),
        None => String::new(),
    };
    println!(
        "checked {} design(s){faulted}, {} finding(s)",
        outcome.designs_run,
        outcome.findings.len()
    );
    for f in &outcome.findings {
        let path = format!(
            "{out_dir}/diffcheck-{}-d{}.repro.ron",
            f.divergence.check, f.design_index
        );
        write_file(&path, &f.repro.render())?;
        println!(
            "  design {} [{}]: {} ({} -> {} cells) -> {path}",
            f.design_index,
            f.divergence.check,
            f.divergence.detail,
            f.original_cells,
            f.shrunk_cells
        );
    }

    // `--inject-eco-stale` plants its bug inside the incremental TS
    // carry rather than the design, so it counts as an injection too.
    let injected: Option<&str> = opts
        .inject
        .map(|(op, _)| op.name())
        .or(check.eco_stale_carry.then_some("eco-stale-carry"));
    match (injected, outcome.findings.as_slice()) {
        // Clean sweep of the shipped engines: pass iff nothing diverged.
        (None, []) => Ok(()),
        (None, findings) => Err(CliError {
            class: ErrClass::Analysis,
            msg: format!("{} unexpected engine divergence(s)", findings.len()),
        }),
        // Injected sweep: the harness must catch the planted fault and
        // shrink it below the repro size budget.
        (Some(name), []) => Err(CliError {
            class: ErrClass::Analysis,
            msg: format!("injected fault `{name}` was not detected"),
        }),
        (Some(_), findings) => {
            let worst = findings.iter().map(|f| f.shrunk_cells).max().unwrap_or(0);
            if worst > max_cells {
                return Err(CliError {
                    class: ErrClass::Analysis,
                    msg: format!(
                        "shrunk repro has {worst} cells, budget is {max_cells}"
                    ),
                });
            }
            Ok(())
        }
    }
}

/// Live internal pins: the TS candidate set. Mirrors the diffcheck
/// eco-equality oracle so `tmm eco` exercises the exact pipeline the
/// checker certifies.
fn eco_candidates(graph: &ArcGraph) -> Vec<bool> {
    use timing_macro_gnn::sta::graph::{NodeId, NodeKind};
    (0..graph.node_count())
        .map(|i| {
            let n = NodeId(i as u32);
            !graph.node(n).dead && graph.node(n).kind == NodeKind::Internal
        })
        .collect()
}

/// Deterministic keep mask from a TS sweep: keep every non-candidate pin
/// plus candidates whose TS clears the median of the finite values. Total
/// ordering throughout, so bit-identical sweeps give identical masks.
fn eco_keep_mask(ts: &timing_macro_gnn::sensitivity::TsResult, cand: &[bool]) -> Vec<bool> {
    let mut finite: Vec<f64> = ts.ts.iter().copied().filter(|t| t.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let threshold = finite.get(finite.len() / 2).copied();
    cand.iter()
        .enumerate()
        .map(|(i, &c)| {
            if !c {
                return true;
            }
            let t = ts.ts[i];
            match threshold {
                Some(th) => !t.is_finite() || t.total_cmp(&th) != std::cmp::Ordering::Less,
                None => true,
            }
        })
        .collect()
}

/// Streaming ECO pipeline: replay a seeded edit stream against the design,
/// regenerating the macro model after every edit both *incrementally*
/// (dirty-cone TS carry + cached LUT fits) and *from scratch*, timing the
/// two paths and requiring the models to stay byte-identical. Bench
/// records (`eco_incremental_<op>` / `eco_scratch_<op>`) go to
/// `--bench-out` in the `BENCH_pipeline.json` schema.
fn cmd_eco(args: &Args, report: &mut obs::RunReport) -> CliResult {
    use std::time::Instant;
    use timing_macro_gnn::faults::EcoStream;
    use timing_macro_gnn::macromodel::LutCache;
    use timing_macro_gnn::sensitivity::{
        dirty_probe_set, evaluate_ts_incremental, evaluate_ts_with_core, TsOptions,
    };
    use timing_macro_gnn::sta::view::{DesignCore, GraphView, TimingGraph};

    let lib = load_library(args.required("lib")?)?;
    let design_path = args.required("design")?;
    let netlist = load_netlist(design_path, &lib)?;
    report.design = netlist.name().to_string();
    let flat = ArcGraph::from_netlist(&netlist, &lib)
        .map_err(|e| CliError { msg: format!("{design_path}: {e}"), ..CliError::from(e) })?;
    let edits: usize = args.parsed("edits", "25")?;
    let seed: u64 = args.parsed("seed", "1")?;
    let ts_opts = TsOptions {
        contexts: args.parsed("contexts", "2")?,
        cppr: args.switch("cppr"),
        aocv: args.switch("aocv"),
        ..Default::default()
    };
    let mm_opts = MacroModelOptions::default();
    let mut records: Vec<obs::BenchRecord> = Vec::new();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let rate = |pins: usize, wall_ms: f64| {
        if wall_ms > 0.0 { pins as f64 / (wall_ms / 1e3) } else { 0.0 }
    };

    // Baseline: one full sweep + generation. This also primes the LUT-fit
    // cache, so the very first incremental step already replays its fits.
    let mut core = DesignCore::freeze(&flat);
    let stream = EcoStream::generate(&core, edits, seed);
    let cand0 = eco_candidates(&flat);
    let t0 = Instant::now();
    let mut previous = evaluate_ts_with_core(&core, &cand0, &ts_opts)?;
    let keep0 = eco_keep_mask(&previous, &cand0);
    let mut cache = LutCache::new();
    let mut model = MacroModel::generate_patched(&flat, &keep0, &mm_opts, &mut cache)?;
    let baseline_ms = ms(t0);
    records.push(obs::BenchRecord {
        stage: "eco_baseline".to_string(),
        design: netlist.name().to_string(),
        wall_ms: baseline_ms,
        throughput: rate(flat.live_nodes(), baseline_ms),
    });
    eprintln!(
        "baseline: {} live pins, {} kept, {:.2} ms, stream of {} edit(s)",
        flat.live_nodes(),
        model.stats().kept_pins,
        baseline_ms,
        stream.edits().len()
    );

    let mut graph = flat;
    let mut per_op: HashMap<&'static str, (f64, f64, usize)> = HashMap::new();
    let mut inc_total = 0.0f64;
    let mut scratch_total = 0.0f64;
    // Live heartbeat: one unit per replayed edit (inert unless
    // --status-addr is up).
    let heartbeat = obs::progress_start(
        "eco_stream",
        netlist.name(),
        stream.edits().len() as u64,
    );
    for (k, edit) in stream.edits().iter().enumerate() {
        let what = format!("edit {k} ({})", edit.describe());
        let mut view = GraphView::new(core.clone());
        edit.apply(&mut view)
            .map_err(|e| CliError { msg: format!("{what}: {e}"), ..CliError::from(e) })?;
        let changed = view.edited_nodes();
        let edited = view.materialize()?;
        let new_core = DesignCore::freeze(&edited);
        let cand = eco_candidates(&edited);

        // Incremental path: dirty cone -> TS carry -> cached LUT fits.
        let t = Instant::now();
        let old_nodes = TimingGraph::node_count(&*core);
        let dirty = dirty_probe_set(&new_core, &changed, old_nodes);
        let inc = evaluate_ts_incremental(&new_core, &cand, &ts_opts, &previous, &dirty)?;
        let keep_inc = eco_keep_mask(&inc, &cand);
        let patched = MacroModel::generate_patched(&edited, &keep_inc, &mm_opts, &mut cache)?;
        let inc_ms = ms(t);

        // From-scratch path: the reference the patched model must match.
        let t = Instant::now();
        let scratch = evaluate_ts_with_core(&new_core, &cand, &ts_opts)?;
        let keep_scratch = eco_keep_mask(&scratch, &cand);
        let rebuilt = MacroModel::generate(&edited, &keep_scratch, &mm_opts)?;
        let scratch_ms = ms(t);

        let (pa, pb) = (patched.serialize(), rebuilt.serialize());
        if pa != pb {
            return Err(CliError {
                class: ErrClass::Analysis,
                msg: format!(
                    "{what}: patched macro differs from a from-scratch rebuild \
                     ({} vs {} bytes)",
                    pa.len(),
                    pb.len()
                ),
            });
        }
        let op = edit.op().name();
        let dirty_count = dirty.iter().filter(|&&d| d).count();
        records.push(obs::BenchRecord {
            stage: format!("eco_incremental_{op}"),
            design: netlist.name().to_string(),
            wall_ms: inc_ms,
            throughput: rate(edited.live_nodes(), inc_ms),
        });
        records.push(obs::BenchRecord {
            stage: format!("eco_scratch_{op}"),
            design: netlist.name().to_string(),
            wall_ms: scratch_ms,
            throughput: rate(edited.live_nodes(), scratch_ms),
        });
        println!(
            "edit {k:>3} {:<34} inc {inc_ms:>9.2} ms  scratch {scratch_ms:>9.2} ms  \
             x{:>5.1}  dirty {dirty_count}/{}",
            edit.describe(),
            if inc_ms > 0.0 { scratch_ms / inc_ms } else { 0.0 },
            dirty.len()
        );
        let slot = per_op.entry(op).or_insert((0.0, 0.0, 0));
        slot.0 += inc_ms;
        slot.1 += scratch_ms;
        slot.2 += 1;
        inc_total += inc_ms;
        scratch_total += scratch_ms;
        previous = inc;
        core = new_core;
        graph = edited;
        model = patched;
        heartbeat.add(1);
    }
    heartbeat.complete();

    let mut ops: Vec<_> = per_op.into_iter().collect();
    ops.sort_by_key(|(op, _)| *op);
    for (op, (inc, scratch, n)) in &ops {
        let speedup = if *inc > 0.0 { scratch / inc } else { 0.0 };
        println!(
            "{op:<14} {n:>3} edit(s): incremental {inc:>9.2} ms, \
             scratch {scratch:>9.2} ms, speedup x{speedup:.1}"
        );
        report.fact(&format!("speedup_{op}"), format!("{speedup:.2}"));
    }
    println!(
        "stream of {} edit(s): incremental {inc_total:.2} ms vs scratch {scratch_total:.2} ms \
         (x{:.1}); every patched model byte-identical to its rebuild",
        stream.edits().len(),
        if inc_total > 0.0 { scratch_total / inc_total } else { 0.0 }
    );
    report.fact("edits", stream.edits().len());
    report.fact("lut_cache_hits", cache.hits());
    report.fact("lut_cache_misses", cache.misses());
    report.fact("final_pins", graph.live_nodes());

    if let Some(out) = args.flags.get("out") {
        let serialized = model.serialize();
        write_file(out, &serialized)?;
        eprintln!(
            "wrote {out}: final patched model, {} pins kept of {}, {} bytes",
            model.stats().kept_pins,
            model.stats().flat_pins,
            serialized.len()
        );
    }
    if let Some(path) = args.flags.get("bench-out") {
        write_file(path, &obs::render_bench_json("eco", &records, report))?;
        eprintln!("wrote {path}: {} bench record(s)", records.len());
    }
    Ok(())
}

/// Schema-validates observability artifacts produced by `--trace-out`,
/// `--metrics-out`, `--report-out`, and the bench trajectory files. CI runs
/// this after a traced pipeline run.
fn cmd_obscheck(args: &Args) -> CliResult {
    let mut checked = 0usize;
    if let Some(path) = args.flags.get("trace") {
        let (events, stages) = obs::validate_trace_json(&read_file(path)?)
            .map_err(|e| CliError::validation(format!("{path}: {e}")))?;
        eprintln!(
            "{path}: valid trace, {events} event(s), stages: {}",
            if stages.is_empty() { "-".to_string() } else { stages.join(",") }
        );
        if let Some(expect) = args.flags.get("expect-stages") {
            for want in expect.split(',') {
                if !stages.iter().any(|s| s == want) {
                    return Err(CliError::validation(format!(
                        "{path}: missing stage span `{want}` (found: {})",
                        stages.join(",")
                    )));
                }
            }
        }
        checked += 1;
    }
    if let Some(path) = args.flags.get("metrics") {
        let series = obs::validate_metrics_text(&read_file(path)?)
            .map_err(|e| CliError::validation(format!("{path}: {e}")))?;
        eprintln!("{path}: valid metrics, {series} series");
        let min_series: usize = args.parsed("min-series", "0")?;
        if series < min_series {
            return Err(CliError::validation(format!(
                "{path}: {series} metric series, expected at least {min_series}"
            )));
        }
        checked += 1;
    }
    if let Some(path) = args.flags.get("report") {
        obs::validate_run_report(&read_file(path)?)
            .map_err(|e| CliError::validation(format!("{path}: {e}")))?;
        eprintln!("{path}: valid run report");
        checked += 1;
    }
    if let Some(path) = args.flags.get("bench") {
        let records = obs::validate_bench_json(&read_file(path)?)
            .map_err(|e| CliError::validation(format!("{path}: {e}")))?;
        eprintln!("{path}: valid bench file, {records} record(s)");
        checked += 1;
    }
    if let Some(path) = args.flags.get("progress") {
        let slots = obs::validate_progress_json(&read_file(path)?)
            .map_err(|e| CliError::validation(format!("{path}: {e}")))?;
        eprintln!("{path}: valid progress snapshot, {slots} slot(s)");
        checked += 1;
    }
    if checked == 0 {
        return Err(CliError::usage(
            "nothing to check: pass --trace, --metrics, --report, --bench, or --progress",
        ));
    }
    Ok(())
}

/// Gates the current `BENCH_*.json` artifacts against a baseline: exits
/// with the analysis class when any `{stage, design}` key slowed by more
/// than the noise thresholds. CI runs this against the committed baseline
/// in `results/` after every bench-producing run.
fn cmd_benchdiff(args: &Args, report: &mut obs::RunReport) -> CliResult {
    use timing_macro_gnn::bench::benchdiff::{diff_paths, DiffError, Thresholds};
    let baseline = args.required("baseline")?.to_string();
    let current = args.required("current")?.to_string();
    let thresholds = Thresholds {
        max_regress_pct: args.parsed("max-regress-pct", "25.0")?,
        min_delta_ms: args.parsed("min-ms", "5.0")?,
    };
    if thresholds.max_regress_pct <= 0.0 {
        return Err(CliError::usage("--max-regress-pct must be positive"));
    }
    let diff = diff_paths(Path::new(&baseline), Path::new(&current), &thresholds).map_err(
        |e| match e {
            DiffError::Io(m) => CliError::io(m),
            DiffError::Parse(m) => CliError { class: ErrClass::Parse, msg: m },
            DiffError::Empty(m) => CliError::validation(m),
        },
    )?;
    let table = diff.to_markdown(&thresholds);
    match args.flags.get("out") {
        Some(path) => {
            write_file(path, &table)?;
            eprintln!("wrote {path}: benchdiff table, {} key(s)", diff.rows.len());
        }
        None => print!("{table}"),
    }
    let regressions = diff.regressions();
    let removed = diff.removed();
    report.fact("keys", diff.rows.len());
    report.fact("regressions", regressions.len());
    report.fact("removed", removed.len());
    if !regressions.is_empty() {
        let names: Vec<String> = regressions
            .iter()
            .map(|r| format!("{}/{}", r.stage, r.design))
            .collect();
        return Err(CliError {
            class: ErrClass::Analysis,
            msg: format!(
                "benchdiff: {} of {} key(s) regressed: {}",
                regressions.len(),
                diff.rows.len(),
                names.join(", ")
            ),
        });
    }
    // A stage that stopped being measured is a gate failure too: perf
    // coverage silently shrinking must not read as a pass.
    if !removed.is_empty() {
        let names: Vec<String> =
            removed.iter().map(|r| format!("{}/{}", r.stage, r.design)).collect();
        return Err(CliError::validation(format!(
            "benchdiff: {} baseline key(s) missing from candidate: {}",
            removed.len(),
            names.join(", ")
        )));
    }
    eprintln!("benchdiff: {} key(s) within thresholds", diff.rows.len());
    Ok(())
}

/// Spawns this same binary as a child `tmm` invocation with a controlled
/// crash-injection environment (inherited `TMM_CRASH_AT`/tally vars are
/// always scrubbed first so the harness composes with itself).
fn run_tmm_child(
    exe: &std::path::Path,
    argv: &[String],
    crash_at: Option<&str>,
    tally_out: Option<&str>,
) -> Result<std::process::Output, CliError> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(argv);
    cmd.env_remove("TMM_CRASH_AT");
    cmd.env_remove("TMM_CKPT_TALLY_OUT");
    if let Some(spec) = crash_at {
        cmd.env("TMM_CRASH_AT", spec);
    }
    if let Some(path) = tally_out {
        cmd.env("TMM_CKPT_TALLY_OUT", path);
    }
    cmd.output()
        .map_err(|e| CliError::io(format!("cannot spawn {}: {e}", exe.display())))
}

/// Last stderr line of a child run, for diagnostics.
fn last_line(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).lines().last().unwrap_or("<no output>").to_string()
}

/// Extracts the `outcome` field from a run-report JSON document.
fn report_outcome(json: &str) -> String {
    json.split("\"outcome\": ")
        .nth(1)
        .and_then(|rest| rest.split('"').nth(1))
        .unwrap_or_default()
        .to_string()
}

/// Crash-injection sweep proving resume equivalence end to end. Runs the
/// full `model` pipeline uninterrupted to enumerate its durable
/// transitions (via the crash-point tally), kills fresh runs at seeded
/// points spread across that range, resumes each from its checkpoint
/// directory, and requires every resumed macro model to be byte-identical
/// to the uninterrupted one (plus a matching manifest checksum note and
/// run-report outcome class). Also probes the stale-checkpoint guard:
/// resuming with a flipped configuration must exit with the validation
/// code, never silently reuse the checkpoints.
fn cmd_ckptcheck(args: &Args, report: &mut obs::RunReport) -> CliResult {
    let design = args.required("design")?.to_string();
    let lib = args.required("lib")?.to_string();
    let out_dir = args.get_or("out-dir", "ckptcheck-out");
    let kills: u64 = args.parsed("kills", "3")?;
    let threads = args.get_or("threads", "1");
    let base_cppr = args.switch("cppr");
    let aocv = args.switch("aocv");
    let exe = std::env::current_exe()
        .map_err(|e| CliError::io(format!("cannot locate the tmm binary: {e}")))?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| CliError::io(format!("cannot create {out_dir}: {e}")))?;
    report.design = design.clone();

    let model_args = |ckpt_dir: &str, out: &str, resume: bool, cppr: bool| -> Vec<String> {
        let mut v: Vec<String> = [
            "model", "--design", &design, "--lib", &lib, "--out", out, "--checkpoint-dir",
            ckpt_dir, "--threads", &threads,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        if resume {
            v.push("--resume".to_string());
        }
        if cppr {
            v.push("--cppr".to_string());
        }
        if aocv {
            v.push("--aocv".to_string());
        }
        v
    };

    // 1. Uninterrupted baseline: produces the reference model bytes and
    //    the crash-point tally that enumerates every kill window.
    let tally_path = format!("{out_dir}/tally.tmm");
    let baseline_model = format!("{out_dir}/baseline.model.tmm");
    let baseline_report = format!("{out_dir}/baseline.report.json");
    let baseline_ckpt = format!("{out_dir}/ckpt-baseline");
    let _ = std::fs::remove_dir_all(&baseline_ckpt);
    let mut argv = model_args(&baseline_ckpt, &baseline_model, false, base_cppr);
    argv.push("--report-out".to_string());
    argv.push(baseline_report.clone());
    let out0 = run_tmm_child(&exe, &argv, None, Some(&tally_path))?;
    if !out0.status.success() {
        return Err(CliError::validation(format!(
            "uninterrupted baseline run failed: {}",
            last_line(&out0.stderr)
        )));
    }
    let baseline = read_file(&baseline_model)?;
    let baseline_outcome = report_outcome(&read_file(&baseline_report)?);
    let total: u64 = read_file(&tally_path)?
        .lines()
        .find_map(|l| l.strip_prefix("total "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| CliError::validation(format!("{tally_path}: malformed crash tally")))?;
    if total == 0 {
        return Err(CliError::validation(
            "baseline run hit no crash points (checkpointing inactive?)",
        ));
    }
    eprintln!("baseline: {} model bytes, {total} crash point(s)", baseline.len());

    // 2. Seeded kills spread across the run's durable transitions.
    let picks: std::collections::BTreeSet<u64> =
        (1..=kills.min(total)).map(|i| ((i * total) / (kills.min(total) + 1)).max(1)).collect();
    let mut failures: Vec<String> = Vec::new();
    for &k in &picks {
        let ckpt_dir = format!("{out_dir}/ckpt-kill{k}");
        let model_out = format!("{out_dir}/model-kill{k}.tmm");
        let report_out = format!("{out_dir}/report-kill{k}.json");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let crashed = run_tmm_child(
            &exe,
            &model_args(&ckpt_dir, &model_out, false, base_cppr),
            Some(&format!("*:{k}")),
            None,
        )?;
        if crashed.status.success() {
            failures.push(format!("kill at point {k}: run finished without crashing"));
            continue;
        }
        let mut argv = model_args(&ckpt_dir, &model_out, true, base_cppr);
        argv.push("--report-out".to_string());
        argv.push(report_out.clone());
        let resumed = run_tmm_child(&exe, &argv, None, None)?;
        if !resumed.status.success() {
            failures.push(format!(
                "kill at point {k}: resume failed (exit {:?}): {}",
                resumed.status.code(),
                last_line(&resumed.stderr)
            ));
            continue;
        }
        let got = read_file(&model_out)?;
        if got != baseline {
            failures.push(format!(
                "kill at point {k}: resumed model differs from the uninterrupted run \
                 ({} vs {} bytes)",
                got.len(),
                baseline.len()
            ));
            continue;
        }
        let manifest_text = read_file(&format!("{ckpt_dir}/{}", ckpt::session::MANIFEST_FILE))?;
        let manifest = ckpt::Manifest::parse(&manifest_text)?;
        if manifest.note("macro_model_sum") != Some(obs::fingerprint(&got).as_str()) {
            failures.push(format!(
                "kill at point {k}: manifest model checksum note disagrees with the file"
            ));
            continue;
        }
        let outcome = report_outcome(&read_file(&report_out)?);
        if outcome != baseline_outcome {
            failures.push(format!(
                "kill at point {k}: resumed outcome `{outcome}` differs from baseline \
                 `{baseline_outcome}`"
            ));
            continue;
        }
        println!(
            "kill at point {k}/{total}: resumed model byte-identical ({} bytes, outcome {outcome})",
            got.len()
        );
    }

    // 3. Stale-checkpoint guard: a resume under a different configuration
    //    must be a classed refusal, never a silent reuse.
    let probe = run_tmm_child(
        &exe,
        &model_args(&baseline_ckpt, &format!("{out_dir}/model-mismatch.tmm"), true, !base_cppr),
        None,
        None,
    )?;
    if probe.status.code() == Some(i32::from(ErrClass::Validation as u8)) {
        println!("stale-checkpoint probe: flipped config rejected with exit 4");
    } else {
        failures.push(format!(
            "stale-checkpoint probe: expected validation exit 4, got {:?}: {}",
            probe.status.code(),
            last_line(&probe.stderr)
        ));
    }

    report.fact("points", total);
    report.fact("kills", picks.len());
    report.fact("failures", failures.len());
    for f in &failures {
        eprintln!("ckptcheck: {f}");
    }
    if failures.is_empty() {
        println!(
            "ckptcheck: {} kill/resume cycle(s) across {total} crash point(s) all byte-identical; \
             stale-checkpoint guard verified",
            picks.len()
        );
        Ok(())
    } else {
        Err(CliError::validation(format!(
            "{} of {} crash-injection check(s) failed",
            failures.len(),
            picks.len() + 1
        )))
    }
}

/// `tmm serve`: load designs once, answer concurrent what-if sessions
/// over HTTP until `--max-seconds` elapses (0 = until killed).
fn cmd_serve(args: &Args) -> CliResult {
    let library = load_library(args.required("lib")?)?;
    let design_list = args.required("design")?;
    let model_path = args.flags.get("model");
    let addr = args.get_or("addr", "127.0.0.1:0");
    let workers: usize = args.parsed("workers", "4")?;
    let max_seconds: u64 = args.parsed("max-seconds", "0")?;
    let options = AnalysisOptions { cppr: args.switch("cppr"), aocv: args.switch("aocv") };

    let paths: Vec<&str> = design_list.split(',').filter(|p| !p.is_empty()).collect();
    if paths.is_empty() {
        return Err(CliError::usage("--design needs at least one path"));
    }
    if model_path.is_some() && paths.len() != 1 {
        return Err(CliError::usage("--model requires exactly one --design"));
    }
    // Serving without metrics would make the smoke gates blind; the
    // registry is process-global, so enabling it here covers the workers.
    obs::enable_metrics();
    let mut pool = serve::DesignPool::new();
    for path in &paths {
        let graph = load_design(path, &library)?;
        let model = match model_path {
            Some(mp) => Some(MacroModel::parse(&read_file(mp)?).map_err(|e| CliError {
                msg: format!("{mp}: {e}"),
                ..CliError::from(e)
            })?),
            None => None,
        };
        let ctx = timing_macro_gnn::sta::constraints::Context::nominal(&graph);
        let entry = serve::DesignEntry::new(&graph, ctx, options, model);
        eprintln!(
            "pooled {}: {} pins, {} PI, {} PO",
            entry.name,
            entry.pins.len(),
            entry.ctx.pi.len(),
            entry.ctx.po.len()
        );
        pool.insert(entry);
    }
    let engine = std::sync::Arc::new(serve::ServeEngine::new(
        std::sync::Arc::new(pool),
        serve::EngineOptions { workers },
    ));
    let handle = serve::serve(std::sync::Arc::clone(&engine), &addr)
        .map_err(|e| CliError::io(format!("cannot serve on {addr}: {e}")))?;
    // Scripts scrape this exact line for the bound port (port 0 support).
    println!("serve listening on {}", handle.addr());
    if max_seconds == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(max_seconds));
    eprintln!(
        "serve: --max-seconds {max_seconds} elapsed, {} session(s) still open",
        engine.open_sessions()
    );
    drop(handle);
    Ok(())
}

const USAGE: &str = "usage: tmm <gen|stats|model|time|eval|context|validate|eco|diffcheck|ckptcheck|obscheck|benchdiff|serve> [--flag value] [--switch]
  gen      --name <id> --pins <n> [--seed <s>] --out <design.tmm> [--lib-out <lib.tmm>]
  stats    --design <design.tmm> --lib <lib.tmm>
  model    --design <design.tmm> --lib <lib.tmm> --out <model.tmm>
           [--method ours|itimerm|libabs|atm] [--gnn <gnn.tmm>] [--gnn-out <gnn.tmm>]
           [--cppr] [--aocv] [--threads <n>]  (TS sweep + GNN training/inference;
                                               1 = sequential, 0 = all cores, any n bit-identical)
           [--mem-budget-mb <n>]  (soft RSS budget: TS context groups and merge overlay
                                   flushes are sized to fit; 0 = unbounded, any n bit-identical)
           [--checkpoint-dir <dir> [--resume]] [--stage-deadline-ms <n>]
           (crash-safe checkpoints: a killed run resumed with --resume is
            byte-identical to an uninterrupted one; stale checkpoints are rejected)
  time     --model <model.tmm> [--contexts <n>] [--context <ctx.tmm>] [--paths <k>]
           [--cppr] [--aocv]
  eval     --design <design.tmm> --lib <lib.tmm> --model <model.tmm>
           [--contexts <n>] [--cppr] [--aocv]
  context  --design <design.tmm> --lib <lib.tmm> [--seed <s>] --out <ctx.tmm>
  validate [--lib <lib.tmm>] [--design <design.tmm>] [--model <model.tmm>] [--gnn <gnn.tmm>]
  eco      --design <design.tmm> --lib <lib.tmm> [--edits <n>] [--seed <s>]
           [--contexts <n>] [--cppr] [--aocv] [--out <model.tmm>] [--bench-out <BENCH_eco.json>]
           (streaming ECO replay: regenerate the macro after every seeded edit both
            incrementally and from scratch; models must stay byte-identical)
  diffcheck [--seed <s>] [--designs <n>] [--library <s>] [--contexts <n>] [--threads <n>]
           [--probes <n>] [--max-findings <n>] [--out-dir <dir>]
           [--inject <fault-op> [--inject-seed <s>] [--max-cells <n>]]
           [--eco-edits <n>] [--inject-eco-stale]
           [--replay <file.repro.ron>] [--deadline-ms <n>]
           (cross-engine differential sweep; writes .repro.ron artifacts on divergence)
  ckptcheck --design <design.tmm> --lib <lib.tmm> [--out-dir <dir>] [--kills <n>]
           [--cppr] [--aocv] [--threads <n>]
           (crash-injection sweep: kill `tmm model` at seeded checkpoint transitions,
            resume each, require byte-identical models and a rejected stale resume)
  obscheck [--trace <trace.json> [--expect-stages a,b]] [--metrics <m.prom> [--min-series <n>]]
           [--report <report.json>] [--bench <BENCH.json>] [--progress <progress.json>]
  benchdiff --baseline <file|dir> --current <file|dir>
           [--max-regress-pct <pct>] [--min-ms <ms>] [--out <table.md>]
           (perf-regression gate over BENCH_*.json artifacts: exits 5 and names
            the stage when wall time grew past both noise thresholds; a baseline
            stage missing from the candidate exits 4 as a removed stage)
  serve    --lib <lib.tmm> --design <d1.tmm[,d2.tmm,…]> [--model <model.tmm>]
           [--addr <host:port>] [--workers <n>] [--max-seconds <n>]
           [--cppr] [--aocv]
           (concurrent what-if service: POST /v1 command batches, GET /metrics,
            GET /healthz; sessions shard by id with bit-deterministic responses)
observability (any command):
  --trace-out <trace.json>    record spans, write Chrome trace_event JSON
  --metrics-out <m.prom>      record metrics, write Prometheus text exposition
  --report-out <report.json>  write a machine-readable run report
  --log-level <level>         error|warn|info|debug|trace (default warn; TMM_LOG fallback)
  --status-addr <host:port>   serve live /metrics /progress /spans over HTTP while running
  --span-buffer-cap <n>       bound span-buffer memory (default 262144; oldest nested
                              spans drop first, counted in tmm_live_dropped_spans_total)
exit codes: 0 ok, 1 usage, 2 i/o, 3 parse, 4 validation, 5 analysis, 6 deadline exceeded";

/// Enables the requested observability subsystems before the command runs.
/// Returns the live-status endpoint guard when `--status-addr` was given;
/// the caller keeps it alive for the duration of the run (its `Drop` stops
/// the service thread).
fn setup_observability(args: &Args) -> Result<Option<obs::LiveStatus>, CliError> {
    if let Some(level) = args.flags.get("log-level") {
        let parsed = obs::Level::parse(level)
            .ok_or_else(|| CliError::usage(format!("unknown log level `{level}`")))?;
        obs::set_log_level(parsed);
    }
    if args.flags.contains_key("trace-out") {
        obs::enable_tracing();
    }
    if args.flags.contains_key("metrics-out") {
        obs::enable_metrics();
    }
    if args.flags.contains_key("span-buffer-cap") {
        let cap: usize = args.parsed("span-buffer-cap", "0")?;
        if cap == 0 {
            return Err(CliError::usage("--span-buffer-cap must be at least 1"));
        }
        obs::set_span_buffer_cap(cap);
    }
    let live = match args.flags.get("status-addr") {
        Some(addr) => Some(
            obs::serve_status(addr)
                .map_err(|e| CliError::io(format!("cannot serve status on {addr}: {e}")))?,
        ),
        None => None,
    };
    Ok(live)
}

/// Writes the requested observability artifacts after the command ran
/// (pass or fail — a failing run's trace is still useful).
fn write_observability(args: &Args, report: &mut obs::RunReport) -> CliResult {
    report.capture_environment();
    if let Some(path) = args.flags.get("trace-out") {
        write_file(path, &obs::export_trace())?;
        eprintln!("wrote {path}: load in chrome://tracing or https://ui.perfetto.dev");
    }
    if let Some(path) = args.flags.get("metrics-out") {
        write_file(path, &obs::export_metrics())?;
        eprintln!("wrote {path}: Prometheus text exposition, {} series", report.metric_series);
    }
    if let Some(path) = args.flags.get("report-out") {
        write_file(path, &report.to_json())?;
        eprintln!("wrote {path}: run report ({})", report.outcome);
    }
    Ok(())
}

fn main() -> ExitCode {
    let code = run();
    // Crash-point tally for `tmm ckptcheck` probe runs; a no-op unless
    // TMM_CKPT_TALLY_OUT is set.
    ckpt::write_tally_if_requested();
    code
}

fn run() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(ErrClass::Usage as u8);
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tmm: {}", e.msg);
            return ExitCode::from(e.class as u8);
        }
    };
    // The guard keeps the `--status-addr` service thread alive for the
    // whole run; dropping it (end of `run`) stops the endpoint.
    let _live = match setup_observability(&args) {
        Ok(live) => live,
        Err(e) => {
            eprintln!("tmm: {}", e.msg);
            return ExitCode::from(e.class as u8);
        }
    };
    let mut report = obs::RunReport::new(cmd);
    // Default fingerprint: the invocation itself. `model` overrides it
    // with the effective framework configuration.
    report.config_fingerprint = obs::fingerprint(&rest.join(" "));
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "model" => cmd_model(&args, &mut report),
        "time" => cmd_time(&args),
        "eval" => cmd_eval(&args),
        "context" => cmd_context(&args),
        "validate" => cmd_validate(&args, &mut report),
        "eco" => cmd_eco(&args, &mut report),
        "diffcheck" => cmd_diffcheck(&args, &mut report),
        "ckptcheck" => cmd_ckptcheck(&args, &mut report),
        "obscheck" => cmd_obscheck(&args),
        "benchdiff" => cmd_benchdiff(&args, &mut report),
        "serve" => cmd_serve(&args),
        other => Err(CliError::usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    if let Err(e) = &result {
        let class = match e.class {
            ErrClass::Usage => "usage",
            ErrClass::Io => "io",
            ErrClass::Parse => "parse",
            ErrClass::Validation => "validation",
            ErrClass::Analysis => "analysis",
        };
        report.outcome = format!("error:{class}");
    }
    if let Err(e) = write_observability(&args, &mut report) {
        eprintln!("tmm: {}", e.msg);
        if result.is_ok() {
            return ExitCode::from(e.class as u8);
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tmm: {}", e.msg);
            ExitCode::from(e.class as u8)
        }
    }
}
