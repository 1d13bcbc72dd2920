//! CPPR integration: pessimism removal must survive macro modeling — the
//! generality claim the paper validates in Tables 3/4.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::core::{Framework, FrameworkConfig};
use timing_macro_gnn::gnn::TrainConfig;
use timing_macro_gnn::macromodel::eval::{evaluate, EvalOptions};
use timing_macro_gnn::macromodel::{MacroModel, MacroModelOptions};
use timing_macro_gnn::sensitivity::TsOptions;
use timing_macro_gnn::sta::constraints::Context;
use timing_macro_gnn::sta::cppr::{cppr_crucial_pins, CpprReport};
use timing_macro_gnn::sta::graph::{ArcGraph, ArcTiming, NodeId};
use timing_macro_gnn::sta::liberty::TimingSense;
use timing_macro_gnn::sta::liberty::Library;
use timing_macro_gnn::sta::netlist::Netlist;
use timing_macro_gnn::sta::propagate::{Analysis, AnalysisOptions};

fn clocked_design(lib: &Library) -> Netlist {
    CircuitSpec::new("cppr_it")
        .inputs(5)
        .outputs(5)
        .register_banks(3, 12)
        .cloud(2, 7)
        .clock_fanout(3)
        .seed(31)
        .generate(lib)
        .unwrap()
}

#[test]
fn cppr_credits_are_positive_and_bounded_by_clock_path_gap() {
    let lib = Library::synthetic(40);
    let flat = ArcGraph::from_netlist(&clocked_design(&lib), &lib).unwrap();
    let ctx = Context::nominal(&flat);
    let an = Analysis::run_with_options(&flat, &ctx, AnalysisOptions { cppr: true, ..Default::default() }).unwrap();
    let report = CpprReport::from_analysis(&flat, &an);
    assert!(report.credited_checks() > 0, "a shared clock tree must yield credits");
    // A credit can never exceed the full late/early gap at the capture pin.
    for (check, cppr) in flat.checks().iter().zip(&report.checks) {
        let gap = an.at(check.ck).late.rise - an.at(check.ck).early.rise;
        assert!(
            cppr.setup_credit <= gap + 1e-9,
            "{}: credit {} exceeds clock gap {}",
            check.name,
            cppr.setup_credit,
            gap
        );
        assert!(cppr.setup_credit >= 0.0);
    }
}

/// A reconvergent (mesh-style) clock network: redundant fast paths from
/// the clock source straight to the capture buffers, alongside the
/// buffered tree. The common point of a launch/capture pair is then no
/// longer unique as a *graph* property — CPPR must follow the critical
/// clock parents and credit the late/early gap at the *deepest* common
/// point of those, never going negative.
#[test]
fn reconvergent_clock_mesh_credit_at_deepest_common_point_stays_nonnegative() {
    let lib = Library::synthetic(40);
    let netlist = clocked_design(&lib);
    let mut flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let src = flat.clock_source().unwrap();
    let ctx = Context::nominal(&flat);
    let cppr_on = AnalysisOptions { cppr: true, ..Default::default() };

    // Baseline tree analysis locates each capture pin's driving buffer.
    let base = Analysis::run_with_options(&flat, &ctx, cppr_on).unwrap();
    let base_credit = CpprReport::from_analysis(&flat, &base).total_setup_credit();
    let tree_parents = base.clock_parents().to_vec();
    let capture_pins: Vec<NodeId> = flat.checks().iter().map(|c| c.ck).collect();

    // Mesh the clock: one redundant fast wire from the source to every
    // distinct capture buffer (faster than the buffered path, so the late
    // critical tree is untouched while early arrivals reconverge).
    let mut meshed = std::collections::HashSet::new();
    for ck in capture_pins {
        let buffer = tree_parents[ck.index()];
        if buffer != u32::MAX && NodeId(buffer) != src && meshed.insert(buffer) {
            flat.add_arc(
                src,
                NodeId(buffer),
                TimingSense::PositiveUnate,
                ArcTiming::Wire { delay: 0.5, degrade: 1.0 },
                true,
            );
        }
    }
    assert!(meshed.len() >= 2, "mesh needs redundant paths to distinct buffers");
    flat.rebuild_topo().unwrap();
    flat.mark_clock_network();

    let an = Analysis::run_with_options(&flat, &ctx, cppr_on).unwrap();
    let report = CpprReport::from_analysis(&flat, &an);
    assert!(report.credited_checks() > 0, "mesh must not erase all credits");

    // Non-negative, finite credit at every common point, both edges.
    for credit in an.credits() {
        for c in [credit.setup.rise, credit.setup.fall, credit.hold.rise, credit.hold.fall] {
            assert!(c.is_finite() && c >= 0.0, "credit {c} out of range");
        }
    }

    // Each setup credit equals the late/early rise gap at the DEEPEST
    // common point of the launch/capture critical-parent chains —
    // recomputed independently from the mesh-aware analysis.
    let parents = an.clock_parents();
    let mut verified = 0usize;
    for (ci, cp) in report.checks.iter().enumerate() {
        let Some(launch) = cp.launch_ck else { continue };
        let mut launch_chain = Vec::new();
        let mut cur = launch.index() as u32;
        while cur != u32::MAX {
            launch_chain.push(cur);
            cur = parents[cur as usize];
        }
        let mut expected = 0.0f64;
        let mut cur = cp.capture_ck.index() as u32;
        while cur != u32::MAX {
            if launch_chain.contains(&cur) {
                let q = an.at(NodeId(cur));
                if q.late.rise.is_finite() && q.early.rise.is_finite() {
                    expected = (q.late.rise - q.early.rise).max(0.0);
                }
                break;
            }
            cur = parents[cur as usize];
        }
        assert!(
            (an.credits()[ci].setup.rise - expected).abs() < 1e-12,
            "check {}: credit {} != gap {} at deepest common point",
            cp.name,
            an.credits()[ci].setup.rise,
            expected
        );
        verified += 1;
    }
    assert!(verified > 0, "at least one launch/capture pair must exist");

    // The fast redundant paths widen the early/late divergence along the
    // shared prefixes, so meshing can only increase the recovered credit.
    assert!(
        report.total_setup_credit() >= base_credit - 1e-9,
        "meshing shrank total credit: {} -> {}",
        base_credit,
        report.total_setup_credit()
    );

    // Pessimism removal still only ever *improves* slacks on the mesh.
    let plain = Analysis::run(&flat, &ctx).unwrap();
    for (c, p) in an.boundary().checks.iter().zip(&plain.boundary().checks) {
        for (with, without) in [
            (c.setup_slack.rise, p.setup_slack.rise),
            (c.setup_slack.fall, p.setup_slack.fall),
            (c.hold_slack.rise, p.hold_slack.rise),
            (c.hold_slack.fall, p.hold_slack.fall),
        ] {
            if with.is_finite() && without.is_finite() {
                assert!(
                    with >= without - 1e-9,
                    "check {}: CPPR degraded a slack: {} -> {}",
                    c.name,
                    without,
                    with
                );
            }
        }
    }
}

#[test]
fn keeping_clock_branch_points_preserves_cppr_accuracy() {
    let lib = Library::synthetic(40);
    let netlist = clocked_design(&lib);
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let crucial = cppr_crucial_pins(&flat);
    assert!(!crucial.is_empty());

    // Model A keeps the branch points, model B does not (everything else
    // fully collapsed in both).
    let mut keep_with = vec![false; flat.node_count()];
    for &p in &crucial {
        keep_with[p.index()] = true;
    }
    let keep_without = vec![false; flat.node_count()];
    let opts = MacroModelOptions { compress_luts: false, ..Default::default() };
    let with = MacroModel::generate(&flat, &keep_with, &opts).unwrap();
    let without = MacroModel::generate(&flat, &keep_without, &opts).unwrap();

    let eval_opts = EvalOptions { contexts: 4, cppr: true, ..Default::default() };
    let r_with = evaluate(&flat, &with, &eval_opts).unwrap();
    let r_without = evaluate(&flat, &without, &eval_opts).unwrap();
    assert!(
        r_with.accuracy.max <= r_without.accuracy.max + 1e-9,
        "dropping clock branch points must not improve CPPR accuracy: {} vs {}",
        r_with.accuracy.max,
        r_without.accuracy.max
    );
}

#[test]
fn cppr_framework_model_accurate_under_cppr_evaluation() {
    let lib = Library::synthetic(40);
    let netlist = clocked_design(&lib);
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let mut fw = Framework::new(FrameworkConfig {
        with_cppr_feature: true,
        train: TrainConfig { epochs: 80, ..Default::default() },
        ts: TsOptions { contexts: 2, cppr: true, ..Default::default() },
        ..Default::default()
    });
    let outcome = fw.run_on(&netlist, &lib).unwrap();
    let r = evaluate(
        &flat,
        &outcome.model,
        &EvalOptions { contexts: 4, cppr: true, ..Default::default() },
    )
    .unwrap();
    assert!(r.accuracy.count > 0);
    assert!(
        r.accuracy.max < 80.0,
        "CPPR-mode macro accuracy out of regime: {} ps",
        r.accuracy.max
    );
}

#[test]
fn cppr_mode_on_and_off_agree_when_no_credit_exists() {
    // A design with a single flip-flop has no launch/capture pair, so CPPR
    // must be a no-op.
    let lib = Library::synthetic(41);
    let netlist = CircuitSpec::new("single_ff")
        .inputs(3)
        .outputs(3)
        .register_banks(1, 1)
        .cloud(1, 3)
        .seed(2)
        .generate(&lib)
        .unwrap();
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let ctx = Context::nominal(&flat);
    let plain = Analysis::run(&flat, &ctx).unwrap();
    let cppr = Analysis::run_with_options(&flat, &ctx, AnalysisOptions { cppr: true, ..Default::default() }).unwrap();
    let d = plain.boundary().diff(cppr.boundary());
    assert!(d.max < 1e-9, "no pair, no credit, no difference: {}", d.max);
}
