//! Property-based tests on cross-crate invariants, driven by `proptest`.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::gnn::kernels::{self, KernelPolicy};
use timing_macro_gnn::gnn::{NeighborMode, NodeGraph};
use timing_macro_gnn::macromodel::{reduce_graph, ReducePolicy};
use timing_macro_gnn::sta::constraints::ContextSampler;
use timing_macro_gnn::sta::graph::ArcGraph;
use timing_macro_gnn::sta::liberty::{Library, Lut2};
use timing_macro_gnn::sta::propagate::Analysis;
use timing_macro_gnn::sta::split::{Edge, Mode};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any generated design lowers to a valid DAG whose analysis produces
    /// finite, ordered (early ≤ late) arrivals at every primary output.
    #[test]
    fn generated_designs_always_analyze(
        seed in 0u64..500,
        inputs in 2usize..8,
        banks in 0usize..3,
        depth in 1usize..4,
        width in 3usize..9,
    ) {
        let lib = Library::synthetic(99);
        let netlist = CircuitSpec::new("prop")
            .inputs(inputs)
            .outputs(inputs)
            .register_banks(banks, 4)
            .cloud(depth, width)
            .seed(seed)
            .generate(&lib)
            .unwrap();
        let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        graph.validate().unwrap();
        let mut sampler = ContextSampler::new(seed);
        let ctx = sampler.sample(&graph);
        let an = Analysis::run(&graph, &ctx).unwrap();
        for &po in graph.primary_outputs() {
            for edge in Edge::ALL {
                let early = an.at(po)[Mode::Early][edge];
                let late = an.at(po)[Mode::Late][edge];
                prop_assert!(early.is_finite() && late.is_finite());
                prop_assert!(early <= late + 1e-9, "early {early} > late {late}");
                prop_assert!(an.slew(po)[Mode::Late][edge] > 0.0);
            }
        }
    }

    /// Reduction with a random keep mask never breaks graph invariants and
    /// never touches ports or flip-flop pins.
    #[test]
    fn random_keep_masks_reduce_safely(seed in 0u64..300, keep_bias in 0.0f64..1.0) {
        let lib = Library::synthetic(98);
        let netlist = CircuitSpec::new("prop2")
            .inputs(4)
            .outputs(4)
            .register_banks(1, 3)
            .cloud(2, 5)
            .seed(seed)
            .generate(&lib)
            .unwrap();
        let mut graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let ports = graph.primary_inputs().len() + graph.primary_outputs().len();
        let checks = graph.checks().len();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let keep: Vec<bool> =
            (0..graph.node_count()).map(|_| rng.gen_bool(keep_bias)).collect();
        reduce_graph(&mut graph, &keep, &ReducePolicy::default()).unwrap();
        graph.validate().unwrap();
        prop_assert_eq!(
            graph.primary_inputs().len() + graph.primary_outputs().len(),
            ports
        );
        for check in graph.checks().iter().take(checks) {
            prop_assert!(!graph.node(check.ck).dead, "FF clock pins are untouchable");
        }
    }

    /// Bilinear LUT evaluation is exact on linear surfaces and bounded by
    /// the corner values inside each cell for monotone data.
    #[test]
    fn lut_interpolation_reproduces_linear_surfaces(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        c in -50.0f64..50.0,
        s in 6.0f64..300.0,
        l in 1.5f64..60.0,
    ) {
        let lut = Lut2::from_fn(
            vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0],
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            |slew, load| a * slew + b * load + c,
        ).unwrap();
        let want = a * s + b * l + c;
        prop_assert!((lut.value(s, l) - want).abs() < 1e-9 * want.abs().max(1.0));
    }

    /// The mean-aggregation adjoint satisfies <Ax, y> == <x, Aᵀy> for any
    /// random graph and vectors (the identity backprop depends on).
    #[test]
    fn aggregation_adjoint_identity(
        nodes in 2usize..30,
        edge_seed in 0u64..1000,
        vec_seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(edge_seed);
        let n_edges = rng.gen_range(1..nodes * 2);
        let edges: Vec<(u32, u32)> = (0..n_edges)
            .map(|_| {
                (rng.gen_range(0..nodes) as u32, rng.gen_range(0..nodes) as u32)
            })
            .collect();
        let graph = NodeGraph::from_edges(nodes, &edges, NeighborMode::Undirected);
        let mut vrng = rand::rngs::StdRng::seed_from_u64(vec_seed);
        let x: Vec<f32> = (0..nodes * 2).map(|_| vrng.gen_range(-1.0f32..1.0)).collect();
        let y: Vec<f32> = (0..nodes * 2).map(|_| vrng.gen_range(-1.0f32..1.0)).collect();
        let (mut ax, mut aty) = (vec![0.0f32; nodes * 2], vec![0.0f32; nodes * 2]);
        let pol = KernelPolicy::default();
        kernels::mean_aggregate_into(&graph, &x, 2, &mut ax, pol);
        kernels::mean_aggregate_adjoint_into(&graph, &y, 2, &mut aty, pol);
        let dot = |p: &[f32], q: &[f32]| -> f32 { p.iter().zip(q).map(|(u, v)| u * v).sum() };
        prop_assert!((dot(&ax, &y) - dot(&x, &aty)).abs() < 1e-3);
    }
}
