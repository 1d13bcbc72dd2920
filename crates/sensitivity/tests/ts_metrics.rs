//! TS probe latency lands under the label of the sweep that ran it.
//!
//! The metrics registry is process-global, so this check lives in its own
//! test binary: no other test can record into it concurrently.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tmm_circuits::CircuitSpec;
use tmm_sensitivity::{evaluate_ts_incremental, evaluate_ts_with_core, TsOptions};
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::view::{DesignCore, TimingGraph};

/// The `tmm_ts_pin_seconds_count` sample for `engine`, or 0 if absent.
fn probe_count(exported: &str, engine: &str) -> u64 {
    let series = format!("tmm_ts_pin_seconds_count{{engine=\"{engine}\"}} ");
    exported
        .lines()
        .find_map(|l| l.strip_prefix(series.as_str()))
        .map_or(0, |v| v.trim().parse().unwrap())
}

#[test]
fn each_sweep_times_its_probes_under_its_own_engine_label() {
    let lib = Library::synthetic(6);
    let netlist = CircuitSpec::new("tsm")
        .inputs(3)
        .outputs(3)
        .register_banks(1, 3)
        .cloud(2, 4)
        .seed(5)
        .generate(&lib)
        .unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let core = DesignCore::freeze(&graph);
    let candidates = vec![true; core.node_count()];
    let opts = TsOptions { contexts: 2, ..Default::default() };

    tmm_obs::reset_metrics();
    tmm_obs::enable_metrics();
    let scratch = evaluate_ts_with_core(&core, &candidates, &opts).unwrap();
    let probes = (scratch.evaluated + scratch.failures.len()) as u64;
    assert!(probes > 0, "the design must give the sweep pins to probe");
    let exported = tmm_obs::export_metrics();
    assert_eq!(probe_count(&exported, "view"), probes);
    assert_eq!(probe_count(&exported, "incremental"), 0);

    // All-dirty: every pin is probed again, now by the incremental sweep.
    let all_dirty = vec![true; core.node_count()];
    evaluate_ts_incremental(&core, &candidates, &opts, &scratch, &all_dirty).unwrap();
    tmm_obs::disable_metrics();
    let exported = tmm_obs::export_metrics();
    assert_eq!(probe_count(&exported, "view"), probes, "incremental probes leaked into view");
    assert_eq!(probe_count(&exported, "incremental"), probes);
}
