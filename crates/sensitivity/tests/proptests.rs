//! Property-based tests of the sensitivity pipeline's invariants.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use tmm_circuits::CircuitSpec;
use tmm_macromodel::extract_ilm;
use tmm_sensitivity::{
    build_dataset, extract_features, filter_insensitive, DatasetOptions, FilterOptions,
    TsOptions, BASE_FEATURES,
};
use tmm_sta::graph::{ArcGraph, NodeId, NodeKind};
use tmm_sta::liberty::Library;

fn ilm(seed: u64) -> ArcGraph {
    let lib = Library::synthetic(6);
    let n = CircuitSpec::new("ps")
        .inputs(3)
        .outputs(3)
        .register_banks(1, 3)
        .cloud(2, 4)
        .seed(seed)
        .generate(&lib)
        .unwrap();
    let flat = ArcGraph::from_netlist(&n, &lib).unwrap();
    extract_ilm(&flat).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Features are always within [0, 1] and level features are 0 exactly at
    /// the boundary pins, for any design seed.
    #[test]
    fn features_are_normalised(seed in 0u64..100, with_cppr in proptest::bool::ANY) {
        let g = ilm(seed);
        let f = extract_features(&g, with_cppr);
        prop_assert_eq!(f.cols(), if with_cppr { BASE_FEATURES + 1 } else { BASE_FEATURES });
        for v in f.data() {
            prop_assert!((0.0..=1.0).contains(v));
        }
        for &pi in g.primary_inputs() {
            prop_assert_eq!(f.at(pi.index(), 0), 0.0);
        }
    }

    /// Filter thresholds nest: every survivor of a stricter threshold also
    /// survives a laxer one (the robustness §4.2 claims).
    #[test]
    fn filter_thresholds_nest(seed in 0u64..100, t_lo in -1.5f64..0.0, dt in 0.1f64..1.5) {
        let g = ilm(seed);
        let lax = filter_insensitive(&g, &FilterOptions { threshold: t_lo, ..Default::default() }).unwrap();
        let strict = filter_insensitive(&g, &FilterOptions { threshold: t_lo + dt, ..Default::default() }).unwrap();
        for i in 0..g.node_count() {
            if strict.survivors[i] {
                prop_assert!(lax.survivors[i], "strict survivor {i} missing from lax set");
            }
        }
        prop_assert!(strict.survived <= lax.survived);
    }

    /// Dataset labels are binary in classification mode, positives only on
    /// live internal pins or CPPR-labelled clock pins, and masked nodes
    /// cover exactly the live set.
    #[test]
    fn dataset_label_invariants(seed in 0u64..50, cppr in proptest::bool::ANY) {
        let g = ilm(seed);
        let opts = DatasetOptions {
            ts: TsOptions { contexts: 1, cppr, ..Default::default() },
            with_cppr_feature: cppr,
            ..Default::default()
        };
        let ds = build_dataset(&g, &opts).unwrap();
        let mask = ds.sample.mask.as_ref().unwrap();
        for i in 0..g.node_count() {
            let node = g.node(NodeId(i as u32));
            prop_assert_eq!(mask[i], !node.dead);
            let l = ds.sample.labels[i];
            prop_assert!(l == 0.0 || l == 1.0, "label {l} not binary");
            if l == 1.0 {
                prop_assert!(!node.dead);
                // positives are internal pins (or clock pins in CPPR mode)
                prop_assert!(
                    node.kind == NodeKind::Internal || (cppr && node.is_clock_network),
                    "positive on {:?}", node.kind
                );
            }
        }
        prop_assert!((0.0..1.0).contains(&ds.positive_rate));
    }
}
