//! Scale-up equivalence properties for the million-pin path.
//!
//! The budget-chunked TS sweep and the budget-bounded View merge are only
//! admissible because each is bit-identical to its unbounded / in-place
//! reference. These properties are exercised here over randomly sized
//! designs (via [`CircuitSpec::sized`], the same generator the scale sweep
//! uses), and — under `--ignored` — on a 100k-pin design, which CI's
//! scale-smoke job runs in release mode.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::sync::Arc;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::macromodel::{
    extract_ilm, reduce_graph, reduce_graph_via_view_budget, ReducePolicy,
};
use timing_macro_gnn::sensitivity::{evaluate_ts_with_core, ts_min_chunked_contexts, TsOptions};
use timing_macro_gnn::sta::graph::ArcGraph;
use timing_macro_gnn::sta::liberty::Library;
use timing_macro_gnn::sta::view::DesignCore;

fn sized_design(target_pins: usize, seed: u64) -> ArcGraph {
    let lib = Library::synthetic(55);
    let netlist = CircuitSpec::sized("scaleq", target_pins)
        .seed(seed)
        .generate(&lib)
        .unwrap();
    ArcGraph::from_netlist(&netlist, &lib).unwrap()
}

/// Asserts two graphs are identical element by element: every node and
/// arc (full `Debug` rendering, so every LUT value), every adjacency
/// list, the topological order, ports and checks. Compared piecewise so a
/// 100k-pin graph never has to be rendered as one string.
fn assert_graphs_identical(a: &ArcGraph, b: &ArcGraph, what: &str) {
    use timing_macro_gnn::sta::graph::NodeId;
    assert_eq!(a.node_count(), b.node_count(), "{what}: node count");
    assert_eq!(a.arcs().len(), b.arcs().len(), "{what}: arc count");
    for (i, (x, y)) in a.nodes().iter().zip(b.nodes()).enumerate() {
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "{what}: node {i}");
        let n = NodeId(u32::try_from(i).unwrap());
        assert!(a.fanin(n).eq(b.fanin(n)), "{what}: fan-in of node {i}");
        assert!(a.fanout(n).eq(b.fanout(n)), "{what}: fan-out of node {i}");
    }
    for (i, (x, y)) in a.arcs().iter().zip(b.arcs()).enumerate() {
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "{what}: arc {i}");
    }
    let rest = |g: &ArcGraph| {
        format!(
            "{:?}",
            (g.name(), g.topo_order(), g.primary_inputs(), g.primary_outputs(), g.checks())
        )
    };
    assert_eq!(rest(a), rest(b), "{what}: order, ports and checks");
}

/// Full cross-engine sweep at one design size: budget-chunked TS against
/// the unbounded sweep, and budget-bounded View merging against the
/// in-place reference reduction of the same ILM.
fn check_all_engines_at(graph: &ArcGraph, ts_budget_mb: usize, merge_budget_mb: usize) {
    // -- TS: unbounded vs budget-chunked. The context count is raised
    // until the budget provably splits the sweep.
    let core: Arc<DesignCore> = DesignCore::freeze(graph);
    let contexts = ts_min_chunked_contexts(&core, ts_budget_mb).max(3);
    let cand: Vec<bool> = (0..graph.node_count())
        .map(|i| i % 7 == 3) // sparse deterministic probe set
        .collect();
    let base = TsOptions { contexts, ..Default::default() };
    let unbounded = evaluate_ts_with_core(&core, &cand, &base).unwrap();
    let chunked =
        evaluate_ts_with_core(&core, &cand, &TsOptions { mem_budget_mb: ts_budget_mb, ..base })
            .unwrap();
    assert_eq!(unbounded.evaluated, chunked.evaluated);
    assert_eq!(unbounded.skipped, chunked.skipped);
    assert_eq!(unbounded.failures.len(), chunked.failures.len());
    for (i, (x, y)) in unbounded.ts.iter().zip(&chunked.ts).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "ts[{i}]");
    }

    // -- macro: in-place reference vs View engine, unbounded and budgeted.
    let keep: Vec<bool> = (0..graph.node_count())
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 60) == 0 // keep ~1/16 of internals
        })
        .collect();
    let (ilm, _) = extract_ilm(graph).unwrap();
    let policy = ReducePolicy::default();
    let mut in_place = ilm.clone();
    let stats = reduce_graph(&mut in_place, &keep, &policy).unwrap();
    let ilm_core = DesignCore::freeze(&ilm);
    for mem_budget_mb in [0usize, merge_budget_mb] {
        let via_view =
            reduce_graph_via_view_budget(&ilm_core, &keep, &policy, mem_budget_mb).unwrap();
        assert_eq!(via_view.stats, stats, "reduce stats with budget {mem_budget_mb} MiB");
        assert_graphs_identical(
            &via_view.graph,
            &in_place,
            &format!("merged ILM with budget {mem_budget_mb} MiB"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Every engine variant agrees bit-for-bit on randomly sized designs.
    /// A 1 MiB budget maximises chunking pressure: TS degrades to the
    /// smallest context groups the design allows, and the View merge
    /// flushes its overlay as often as the flush floor permits.
    #[test]
    fn engines_bit_identical_on_random_sizes(
        target_pins in 400usize..3_000,
        seed in 0u64..1_000,
    ) {
        let graph = sized_design(target_pins, seed);
        check_all_engines_at(&graph, 1, 1);
    }
}

/// The same property at 100k pins with realistic budgets. Too slow for a
/// debug-build tier-1 run; CI's scale-smoke job runs it in release via
/// `cargo test --release --test scale_equivalence -- --ignored`.
#[test]
#[ignore = "100k-pin design: run in release via scale-smoke (-- --ignored)"]
fn engines_bit_identical_at_100k_pins() {
    let graph = sized_design(100_000, 7);
    assert!(graph.node_count() >= 100_000, "generator undershot the pin target");
    check_all_engines_at(&graph, 64, 64);
}
