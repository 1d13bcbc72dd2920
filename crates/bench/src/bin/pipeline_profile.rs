//! Stage-by-stage runtime profile of the framework — the quantities §6's
//! closing discussion reports in prose: training-data generation time
//! (dominated by TS evaluation, accelerated by the filter), GNN training
//! time, and — for unseen designs under the same delay model — only
//! inference + model generation.
//!
//! Besides the human-readable table, writes one machine-readable artifact
//! for CI trend tracking: `BENCH_pipeline.json` (stable per-stage records
//! `{stage, design, wall_ms, throughput}` plus an embedded run report).

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;
use tmm_bench::library;
use tmm_circuits::designs::{eval_suite, training_suite};
use tmm_circuits::CircuitSpec;
use tmm_core::{Framework, FrameworkConfig};
use tmm_gnn::{GnnModel, TrainSample};
use tmm_macromodel::{extract_ilm, reduce_graph_via_view_budget, ReducePolicy};
use tmm_sensitivity::{build_dataset, evaluate_ts, filter_insensitive, FilterOptions, TsOptions};
use tmm_sta::constraints::Context;
use tmm_sta::graph::{ArcGraph, NodeKind};
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::view::{DesignCore, GraphView};

/// Trains the framework's model on the prepared samples with the blocked
/// kernels on one thread; returns the wall-clock seconds.
fn train_kernels(config: &FrameworkConfig, samples: &[TrainSample]) -> f64 {
    let mut model = GnnModel::new(
        config.feature_count(),
        tmm_gnn::ModelConfig { task: config.task(), ..config.model },
    );
    let cfg = tmm_gnn::TrainConfig { threads: 1, ..config.train };
    let t = Instant::now();
    model.train(samples, &cfg);
    t.elapsed().as_secs_f64()
}

/// Value of `--name <v>` in `argv`, if present.
fn arg_value(argv: &[String], name: &str) -> Option<String> {
    argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1).cloned())
}

fn parsed_arg<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match arg_value(argv, name) {
        Some(v) => match v.parse() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("bad value for {name}: {e}");
                std::process::exit(1);
            }
        },
        None => default,
    }
}

/// The scale sweep (`--scale`): flat analysis, capped TS sweep, and macro
/// merge on synthetic designs from 10k up to `--scale-max-pins` pins,
/// emitting pins-per-second per stage into `BENCH_scale.json`. Runs
/// *instead of* the training-pipeline profile so CI can gate on a single
/// size point without paying for the full profile.
fn run_scale_sweep(argv: &[String]) {
    tmm_obs::enable_metrics();
    let max_pins: usize = parsed_arg(argv, "--scale-max-pins", 5_000_000);
    let budget_mb: usize = parsed_arg(argv, "--mem-budget-mb", 0);
    let threads: usize = parsed_arg(argv, "--threads", 1);
    let probes: usize = parsed_arg(argv, "--probes", 64);
    let contexts: usize = parsed_arg(argv, "--contexts", 2);
    let lib = library();
    let mut records: Vec<tmm_obs::BenchRecord> = Vec::new();
    let mut report = tmm_obs::RunReport::new("scale_sweep");
    report.design = "scale_sweep".to_string();
    report.fact("mem_budget_mb", budget_mb);
    report.fact("threads", threads);
    report.fact("ts_probe_cap", probes);
    report.fact("ts_contexts", contexts);

    println!("Scale sweep (budget {budget_mb} MiB, {threads} thread(s), {contexts} context(s))\n");
    for target in [10_000usize, 100_000, 1_000_000, 5_000_000] {
        if target > max_pins {
            println!("  skipping the {target}-pin point (--scale-max-pins {max_pins})");
            continue;
        }
        let name = format!("scale_{target}");
        let t = Instant::now();
        let netlist = CircuitSpec::sized(&name, target).seed(11).generate(&lib).expect("generate");
        let flat = ArcGraph::from_netlist(&netlist, &lib).expect("lowering");
        let gen_s = t.elapsed().as_secs_f64();
        let pins = flat.live_nodes();
        let arcs = flat.live_arcs();
        println!("  {name}: {pins} pins, {arcs} arcs (generated in {gen_s:.1} s)");

        let t = Instant::now();
        let core = DesignCore::freeze(&flat);
        let freeze_s = t.elapsed().as_secs_f64();
        let core_mb = core.memory_estimate() as f64 / (1024.0 * 1024.0);
        let view = GraphView::new(core.clone());
        let ctx = Context::nominal(&flat);
        let t = Instant::now();
        let an = Analysis::run_leveled(&view, &ctx, AnalysisOptions::default(), threads)
            .expect("flat analysis");
        let analysis_s = t.elapsed().as_secs_f64();
        assert!(!an.boundary().po.is_empty(), "analysis must reach the boundary");
        records.push(tmm_obs::BenchRecord {
            stage: "flat_analysis".to_string(),
            design: name.clone(),
            wall_ms: analysis_s * 1e3,
            throughput: pins as f64 / analysis_s.max(1e-12),
        });
        println!(
            "    flat analysis : {analysis_s:>8.2} s  ({:.0} pins/s; freeze {freeze_s:.2} s, core est {core_mb:.0} MiB)",
            pins as f64 / analysis_s.max(1e-12)
        );

        // TS probes are capped: the sweep measures per-probe cost at scale,
        // not exhaustive coverage. The cap is explicit in the output and in
        // the bench record's throughput denominator.
        let mut survivors = vec![false; flat.node_count()];
        let mut chosen = 0usize;
        for (i, node) in flat.nodes().iter().enumerate() {
            if chosen == probes {
                break;
            }
            if !node.dead && node.kind == NodeKind::Internal {
                survivors[i] = true;
                chosen += 1;
            }
        }
        let ts_opts = TsOptions {
            contexts,
            threads,
            mem_budget_mb: budget_mb,
            ..TsOptions::default()
        };
        let t = Instant::now();
        let ts = evaluate_ts(&flat, &survivors, &ts_opts).expect("ts sweep");
        let ts_s = t.elapsed().as_secs_f64();
        records.push(tmm_obs::BenchRecord {
            stage: "ts_sweep".to_string(),
            design: name.clone(),
            wall_ms: ts_s * 1e3,
            throughput: (ts.evaluated * contexts) as f64 / ts_s.max(1e-12),
        });
        println!(
            "    TS sweep      : {ts_s:>8.2} s  ({} of {chosen} capped probes evaluated, {:.1} probe-contexts/s)",
            ts.evaluated,
            (ts.evaluated * contexts) as f64 / ts_s.max(1e-12)
        );

        let keep = vec![false; flat.node_count()];
        let t = Instant::now();
        let vr = reduce_graph_via_view_budget(&core, &keep, &ReducePolicy::default(), budget_mb)
            .expect("macro merge");
        let merge_s = t.elapsed().as_secs_f64();
        records.push(tmm_obs::BenchRecord {
            stage: "macro_merge".to_string(),
            design: name.clone(),
            wall_ms: merge_s * 1e3,
            throughput: pins as f64 / merge_s.max(1e-12),
        });
        let rss_mb = tmm_obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
        println!(
            "    macro merge   : {merge_s:>8.2} s  ({:.0} pins/s, {} bypassed, {} overlay flushes)",
            pins as f64 / merge_s.max(1e-12),
            vr.stats.bypassed,
            vr.flushes
        );
        println!("    peak RSS so far: {rss_mb:.0} MiB");
        report.fact(&format!("{name}_pins"), pins);
        report.fact(&format!("{name}_arcs"), arcs);
        report.fact(&format!("{name}_core_mib"), format!("{core_mb:.1}"));
        report.fact(&format!("{name}_merge_flushes"), vr.flushes);
        report.fact(&format!("{name}_peak_rss_mib"), format!("{rss_mb:.0}"));
    }
    report.capture_environment();
    let doc = tmm_obs::render_bench_json("scale", &records, &report);
    if let Err(e) = tmm_ckpt::atomic_write_str("BENCH_scale.json", &doc) {
        eprintln!("warning: could not write BENCH_scale.json: {e}");
    }
    println!("\nwrote BENCH_scale.json ({} records)", records.len());
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    // Live status endpoint for either mode; the guard keeps the service
    // thread alive until the profile finishes.
    let _live = arg_value(&argv, "--status-addr")
        .map(|addr| tmm_obs::serve_status(&addr).expect("status endpoint"));
    if argv.iter().any(|a| a == "--scale") {
        run_scale_sweep(&argv);
        return;
    }
    // Record metrics and stage spans so the emitted BENCH_pipeline.json
    // carries the same run report `tmm model --report-out` produces.
    tmm_obs::enable_metrics();
    tmm_obs::enable_tracing();
    let mut records: Vec<tmm_obs::BenchRecord> = Vec::new();
    let mut record = |stage: &str, design: &str, wall_s: f64, throughput: f64| {
        records.push(tmm_obs::BenchRecord {
            stage: stage.to_string(),
            design: design.to_string(),
            wall_ms: wall_s * 1e3,
            throughput,
        });
    };

    let lib = library();
    let mut config = FrameworkConfig::default();
    config.ts.threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("Pipeline profile (per-stage wall clock)\n");

    // Stage 1a: insensitive-pin filtering alone.
    let suite = training_suite(&lib).expect("suite");
    let mut filter_time = 0.0;
    let mut filter_rate = 0.0;
    for e in &suite {
        let flat = ArcGraph::from_netlist(&e.netlist, &lib).expect("lowering");
        let (ilm, _) = extract_ilm(&flat).expect("ilm");
        let t = Instant::now();
        let f = filter_insensitive(&ilm, &FilterOptions::default()).expect("filter");
        filter_time += t.elapsed().as_secs_f64();
        filter_rate += f.filter_rate();
    }
    record("filter", "training_suite", filter_time, 0.0);
    println!(
        "  filter (6 training designs)      : {:>8.2} s  (mean filter rate {:.1}%)",
        filter_time,
        100.0 * filter_rate / suite.len() as f64
    );

    // Stage 1a': TS probing alone via the shared-core GraphView +
    // cone-retime sweep, sequential. Its bit-identity to the clone-per-pin
    // reference is checked by `tmm diffcheck` (`ts-threads`), not here.
    let mut view_time = 0.0;
    for e in &suite {
        let flat = ArcGraph::from_netlist(&e.netlist, &lib).expect("lowering");
        let (ilm, _) = extract_ilm(&flat).expect("ilm");
        let f = filter_insensitive(&ilm, &FilterOptions::default()).expect("filter");
        let opts = TsOptions { cppr: config.cppr_mode, threads: 1, ..config.ts };
        let t = Instant::now();
        evaluate_ts(&ilm, &f.survivors, &opts).expect("view TS");
        view_time += t.elapsed().as_secs_f64();
    }
    record("ts_engine_view", "training_suite", view_time, 0.0);
    println!("  TS: view + cone retime (1t)     : {view_time:>8.2} s");

    // Stage 1b: full TS data generation (includes the filter). The samples
    // are kept for stage 2', which trains on exactly the datasets the
    // framework trains on.
    let t = Instant::now();
    let mut positive = 0.0;
    let mut samples = Vec::new();
    for e in &suite {
        let flat = ArcGraph::from_netlist(&e.netlist, &lib).expect("lowering");
        let (ilm, _) = extract_ilm(&flat).expect("ilm");
        let ds = build_dataset(&ilm, &config.dataset_options()).expect("dataset");
        positive += ds.positive_rate;
        samples.push(ds.sample);
    }
    let datagen_s = t.elapsed().as_secs_f64();
    let total_rows: usize = samples.iter().map(|s| s.features.rows()).sum();
    record(
        "data_generation",
        "training_suite",
        datagen_s,
        total_rows as f64 / datagen_s.max(1e-12),
    );
    println!(
        "  TS data generation (6 designs)   : {:>8.2} s  (mean positive rate {:.1}%)",
        datagen_s,
        100.0 * positive / suite.len() as f64
    );

    // Stage 2': GNN training alone on the blocked kernels (one thread).
    // Bit-identity to the naive reference kernels is checked by
    // `tmm diffcheck` (`gnn-backend`) and the kernel proptests, not here.
    let seq_s = train_kernels(&config, &samples);
    println!("  GNN train kernels: blocked (1t)  : {seq_s:>8.2} s");
    record("gnn_kernels_blocked_1t", "training_suite", seq_s, 0.0);

    // Stage 2: GNN training.
    let designs: Vec<(String, tmm_sta::netlist::Netlist)> =
        suite.into_iter().map(|e| (e.name, e.netlist)).collect();
    let mut fw = Framework::new(config);
    let summary = fw.train(&designs, &lib).expect("training");
    record(
        "training",
        "training_suite",
        summary.train_time.as_secs_f64(),
        total_rows as f64 / summary.train_time.as_secs_f64().max(1e-12),
    );
    println!(
        "  GNN training ({} epochs)        : {:>8.2} s  (loss {:.4}, recall {:.3})",
        120,
        summary.train_time.as_secs_f64(),
        summary.final_loss,
        summary.train_metrics.recall()
    );

    // Stage 3: per-design inference + generation on the eval suite — the
    // only cost for unseen designs under the same delay model (§6).
    println!("\n  per unseen design (inference + generation):");
    for entry in eval_suite(&lib).expect("suite").iter().take(5) {
        let flat = ArcGraph::from_netlist(&entry.netlist, &lib).expect("lowering");
        let t = Instant::now();
        let outcome = fw.generate_macro(&flat).expect("generation");
        let gen_s = t.elapsed().as_secs_f64();
        record(
            "macro_generation",
            &entry.name,
            gen_s,
            outcome.kept_pins as f64 / gen_s.max(1e-12),
        );
        println!(
            "    {:<26} {:>8.3} s  (inference {:>6.1} ms, {} pins kept)",
            entry.name,
            gen_s,
            outcome.prediction.inference_time.as_secs_f64() * 1e3,
            outcome.kept_pins
        );
    }
    println!("\nPaper's claim to compare against: inference < 5 s/design, TS data");
    println!("generation minutes-to-hours, GNN training ~30 min (at 500x our scale on");
    println!("a GPU). Shapes: inference negligible next to generation; the filter");
    println!("cuts TS cost by the filtered share.");

    let mut report = tmm_obs::RunReport::new("pipeline_profile");
    report.design = "training_suite+eval_suite".to_string();
    report.config_fingerprint = config.fingerprint();
    report.capture_environment();
    let doc = tmm_obs::render_bench_json("pipeline", &records, &report);
    if let Err(e) = tmm_ckpt::atomic_write_str("BENCH_pipeline.json", &doc) {
        eprintln!("warning: could not write BENCH_pipeline.json: {e}");
    }
}
