//! The engine sums its serve counters per job and records each once; the
//! exported `tmm_serve_*` totals must still equal what the commands sent
//! imply: successful reads per class, re-constraints, ECO edits, macro
//! evaluations, sessions opened, batches, and one full propagation per
//! session that timed anything.
//!
//! The metrics registry is process-global, so this binary holds one test.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;
use tmm_circuits::CircuitSpec;
use tmm_faults::eco::EcoStream;
use tmm_macromodel::baselines::generate_libabs;
use tmm_macromodel::MacroModelOptions;
use tmm_serve::protocol::format_command;
use tmm_serve::{Command, DesignEntry, DesignPool, EngineOptions, QueryKind, ServeEngine};
use tmm_sta::constraints::Context;
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::propagate::AnalysisOptions;
use tmm_sta::view::TimingGraph;

/// Every exported `tmm_serve_*` counter and gauge: series → value.
fn serve_series() -> BTreeMap<String, f64> {
    tmm_obs::export_metrics()
        .lines()
        .filter(|l| l.starts_with("tmm_serve_"))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series.to_string(), value.parse().unwrap())
        })
        .collect()
}

#[test]
fn per_job_counts_equal_the_commands_sent() {
    let lib = Library::synthetic(7);
    let netlist = CircuitSpec::sized("metered", 400).seed(9).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let model = generate_libabs(&graph, &MacroModelOptions::default()).unwrap();
    let ctx = Context::nominal(&graph);
    let entry = DesignEntry::new(&graph, ctx, AnalysisOptions::default(), Some(model));
    let pins: Vec<String> =
        graph.topo_order().iter().map(|&n| graph.node_name(n).to_string()).collect();
    let edits = EcoStream::generate(&entry.core, 6, 4).edits().to_vec();
    let mut pool = DesignPool::new();
    pool.insert(entry);
    let engine = ServeEngine::new(Arc::new(pool), EngineOptions { workers: 3 });

    tmm_obs::reset_metrics();
    tmm_obs::enable_metrics();
    // Sessions 1..=5; session 5 never times anything.
    let opened = engine.submit_lines(&"open metered\n".repeat(5));
    assert_eq!(opened, "ok 1\nok 2\nok 3\nok 4\nok 5\n");
    let mut body = String::new();
    let mut reads = [0u64; 4];
    let (mut reconstraints, mut macro_evals) = (0, 0);
    for i in 0..400usize {
        let sid = 1 + (i % 4) as u64;
        let kind = QueryKind::ALL[i % 4];
        let line = match i % 10 {
            0..=5 => {
                reads[kind as usize] += 1;
                format!("{} {sid} {}\n", kind.name(), pins[(i * 31) % pins.len()])
            }
            6 => {
                reconstraints += 1;
                format!("setpoload {sid} 0 0x4031000000000000\n")
            }
            7 => "ping\n".to_string(),
            8 => {
                macro_evals += 1;
                format!("macroeval {sid}\n")
            }
            // Failures count nowhere: unknown pin, session, index, verb.
            _ => match i % 40 {
                9 => format!("slack {sid} no_such_pin\n"),
                19 => format!("at 77 {}\n", pins[0]),
                29 => format!("setpi {sid} 99999 1 2 3\n"),
                _ => "frobnicate\n".to_string(),
            },
        };
        body.push_str(&line);
    }
    // ECO edits, in stream order, on session 1.
    for edit in &edits {
        body.push_str(&format_command(&Command::Eco { sid: 1, edit: edit.clone() }));
        body.push('\n');
    }
    let eco_edits = edits.len() as u64;
    assert!(eco_edits > 0);
    let replies = engine.submit_lines(&body);
    assert_eq!(
        replies.lines().filter(|l| l.starts_with("ok")).count() as u64,
        reads.iter().sum::<u64>() + reconstraints + eco_edits + macro_evals + 40,
        "{replies}"
    );
    let series = serve_series();
    tmm_obs::disable_metrics();

    let mut want = BTreeMap::new();
    for kind in QueryKind::ALL {
        let series = format!("tmm_serve_queries_total{{class=\"{}\"}}", kind.name());
        want.insert(series, reads[kind as usize] as f64);
    }
    want.insert("tmm_serve_reconstraints_total".to_string(), reconstraints as f64);
    want.insert("tmm_serve_eco_edits_total".to_string(), eco_edits as f64);
    want.insert("tmm_serve_macro_evals_total".to_string(), macro_evals as f64);
    want.insert("tmm_serve_sessions_opened_total".to_string(), 5.0);
    want.insert("tmm_serve_sessions_open".to_string(), 5.0);
    want.insert("tmm_serve_batches_total".to_string(), 2.0);
    // Sessions 1–4 each build their timing state once; ECO edits re-sync it.
    want.insert("tmm_serve_propagations_total".to_string(), 4.0);
    assert_eq!(series, want);
}
