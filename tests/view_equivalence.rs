//! Cross-engine equivalence properties for the DesignCore/GraphView split.
//!
//! The copy-on-write view machinery is only admissible because it changes
//! *nothing* observable: TS probed through a [`GraphView`] + cone-limited
//! retime must equal the clone-per-pin reference sweep bit-for-bit (under
//! any thread count), and an ILM merged through a view must be the exact
//! graph the in-place reference reducer produces. These properties are
//! exercised here over randomly generated designs and seeds.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::macromodel::{
    extract_ilm, reduce_graph, reduce_graph_via_view_budget, ReducePolicy,
};
use timing_macro_gnn::sensitivity::{
    evaluate_ts, evaluate_ts_cloning, filter_insensitive, FilterOptions, TsOptions,
};
use timing_macro_gnn::sta::view::DesignCore;
use timing_macro_gnn::sta::graph::ArcGraph;
use timing_macro_gnn::sta::liberty::Library;

fn generated_ilm(seed: u64, banks: usize, depth: usize) -> ArcGraph {
    let lib = Library::synthetic(55);
    let netlist = CircuitSpec::new("veq")
        .inputs(4)
        .outputs(4)
        .register_banks(banks, 3)
        .cloud(depth, 5)
        .seed(seed)
        .generate(&lib)
        .unwrap();
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    extract_ilm(&flat).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// View-engine TS equals clone-engine TS bit-exactly — sequentially and
    /// with worker threads — on any generated design.
    #[test]
    fn view_ts_equals_clone_ts_bit_exactly(
        seed in 0u64..500,
        banks in 1usize..3,
        depth in 1usize..3,
        cppr in proptest::bool::ANY,
    ) {
        let ilm = generated_ilm(seed, banks, depth);
        let filter = filter_insensitive(&ilm, &FilterOptions::default()).unwrap();
        for threads in [1usize, 2] {
            let base = TsOptions { contexts: 2, threads, cppr, ..Default::default() };
            let clone_ts = evaluate_ts_cloning(&ilm, &filter.survivors, &base).unwrap();
            let view_ts = evaluate_ts(&ilm, &filter.survivors, &base).unwrap();
            prop_assert_eq!(clone_ts.evaluated, view_ts.evaluated);
            prop_assert_eq!(clone_ts.skipped, view_ts.skipped);
            prop_assert_eq!(clone_ts.failures.len(), view_ts.failures.len());
            for (a, b) in clone_ts.ts.iter().zip(&view_ts.ts) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// An ILM merged through a GraphView is byte-identical (every node,
    /// arc, table and order, via its full `Debug` rendering) to in-place
    /// reduction of the same ILM, for random keep masks.
    #[test]
    fn view_merging_serializes_byte_identically(
        seed in 0u64..500,
        banks in 1usize..3,
        depth in 1usize..3,
        keep_bias in 0.0f64..1.0,
    ) {
        let lib = Library::synthetic(55);
        let netlist = CircuitSpec::new("veq")
            .inputs(4)
            .outputs(4)
            .register_banks(banks, 3)
            .cloud(depth, 5)
            .seed(seed)
            .generate(&lib)
            .unwrap();
        let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let (ilm, _) = extract_ilm(&flat).unwrap();
        // Deterministic pseudo-random keep mask derived from the node index.
        let keep: Vec<bool> = (0..ilm.node_count())
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                ((h >> 32) as f64) / f64::from(u32::MAX) < keep_bias
            })
            .collect();
        let policy = ReducePolicy::default();
        let via_view =
            reduce_graph_via_view_budget(&DesignCore::freeze(&ilm), &keep, &policy, 0).unwrap();
        let mut in_place = ilm;
        let stats = reduce_graph(&mut in_place, &keep, &policy).unwrap();
        prop_assert_eq!(via_view.stats, stats);
        prop_assert_eq!(format!("{:?}", via_view.graph), format!("{in_place:?}"));
    }
}
