//! Property-based tests of the STA substrate's algebraic invariants.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use tmm_sta::constraints::{Context, ContextSampler};
use tmm_sta::graph::{compose_sense, ArcGraph, NodeKind};
use tmm_sta::io::{parse_library, parse_netlist, write_library, write_netlist};
use tmm_sta::liberty::{Library, Lut2, TimingSense};
use tmm_sta::netlist::NetlistBuilder;
use tmm_sta::propagate::Analysis;
use tmm_sta::split::{Edge, Mode, Split, TransPair};

fn sense_strategy() -> impl Strategy<Value = TimingSense> {
    prop_oneof![
        Just(TimingSense::PositiveUnate),
        Just(TimingSense::NegativeUnate),
        Just(TimingSense::NonUnate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Sense composition is associative with PositiveUnate as identity and
    /// NonUnate as absorbing element — the algebra serial merging relies on.
    #[test]
    fn sense_composition_is_a_monoid(
        a in sense_strategy(),
        b in sense_strategy(),
        c in sense_strategy(),
    ) {
        use TimingSense::{NonUnate, PositiveUnate};
        prop_assert_eq!(compose_sense(PositiveUnate, a), a);
        prop_assert_eq!(compose_sense(a, PositiveUnate), a);
        prop_assert_eq!(compose_sense(NonUnate, a), NonUnate);
        prop_assert_eq!(compose_sense(a, NonUnate), NonUnate);
        prop_assert_eq!(
            compose_sense(compose_sense(a, b), c),
            compose_sense(a, compose_sense(b, c))
        );
    }

    /// Bilinear interpolation of a monotone table is monotone along both
    /// axes inside the grid.
    #[test]
    fn monotone_tables_interpolate_monotonically(
        s1 in 5.0f64..320.0,
        s2 in 5.0f64..320.0,
        l in 1.0f64..64.0,
        k_s in 0.01f64..0.5,
        k_l in 0.1f64..3.0,
    ) {
        let lut = Lut2::from_fn(
            vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0],
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            |s, load| 2.0 + k_s * s + k_l * load + 0.001 * s * load,
        ).unwrap();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(lut.value(lo, l) <= lut.value(hi, l) + 1e-9);
    }

    /// Split/TransPair map+index laws: mapping then indexing equals
    /// indexing then applying.
    #[test]
    fn split_map_commutes_with_index(e in -100.0f64..100.0, l in -100.0f64..100.0) {
        let s = Split::new(e, l);
        let mapped = s.map(|v| v * 2.0 + 1.0);
        for mode in Mode::ALL {
            prop_assert_eq!(mapped[mode], s[mode] * 2.0 + 1.0);
        }
        let t = TransPair::new(e, l);
        let mapped = t.map(|v| v - 3.0);
        for edge in Edge::ALL {
            prop_assert_eq!(mapped[edge], t[edge] - 3.0);
        }
    }

    /// On a random-length inverter/buffer chain, arrivals increase strictly
    /// along the chain and the worst PI→PO slack matches at both ends.
    #[test]
    fn chain_analysis_invariants(
        n_cells in 1usize..12,
        seed in 0u64..200,
        use_buf in proptest::bool::ANY,
    ) {
        let lib = Library::synthetic(seed % 16);
        let mut b = NetlistBuilder::new("pchain", &lib);
        let a = b.input("a").unwrap();
        let z = b.output("z").unwrap();
        let mut prev = a;
        for i in 0..n_cells {
            let kind = if use_buf { "BUFX1" } else { "INVX1" };
            let c = b.cell(&format!("u{i}"), kind).unwrap();
            b.connect(&format!("n{i}"), prev, &[b.pin_of(c, "A").unwrap()]).unwrap();
            prev = b.pin_of(c, "Z").unwrap();
        }
        b.connect("n_end", prev, &[z]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        let mut sampler = ContextSampler::new(seed);
        let ctx = sampler.sample(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let po = g.primary_outputs()[0];
        let pi = g.primary_inputs()[0];
        for mode in Mode::ALL {
            for edge in Edge::ALL {
                prop_assert!(an.at(po)[mode][edge] > an.at(pi)[mode][edge]);
            }
        }
        let worst = |q: tmm_sta::split::Quad| q.late.rise.min(q.late.fall);
        prop_assert!((worst(an.slack(pi)) - worst(an.slack(po))).abs() < 1e-9);
    }

    /// Library text round-trips for any seed.
    #[test]
    fn library_io_round_trip(seed in 0u64..64) {
        let lib = Library::synthetic(seed);
        let back = parse_library(&write_library(&lib)).unwrap();
        prop_assert_eq!(back.templates().len(), lib.templates().len());
        for (a, b) in lib.templates().iter().zip(back.templates()) {
            prop_assert_eq!(&a.name, &b.name);
            for (aa, ab) in a.arcs.iter().zip(&b.arcs) {
                prop_assert_eq!(
                    aa.tables.late.delay.rise.values(),
                    ab.tables.late.delay.rise.values()
                );
            }
        }
    }

    /// Netlist text round-trips and re-times identically for random tiny
    /// fan-out structures.
    #[test]
    fn netlist_io_round_trip(seed in 0u64..64, fanout in 1usize..4) {
        let lib = Library::synthetic(3);
        let mut b = NetlistBuilder::new("rt", &lib);
        let a = b.input("a").unwrap();
        let mut sinks = Vec::new();
        let mut outs = Vec::new();
        for i in 0..fanout {
            let c = b.cell(&format!("c{i}"), if seed % 2 == 0 { "INVX1" } else { "BUFX2" }).unwrap();
            sinks.push(b.pin_of(c, "A").unwrap());
            outs.push(b.pin_of(c, "Z").unwrap());
        }
        b.connect("n0", a, &sinks).unwrap();
        for (i, o) in outs.iter().enumerate() {
            let z = b.output(&format!("z{i}")).unwrap();
            b.connect(&format!("nz{i}"), *o, &[z]).unwrap();
        }
        let netlist = b.finish().unwrap();
        let back = parse_netlist(&write_netlist(&netlist), &lib).unwrap();
        let g1 = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let g2 = ArcGraph::from_netlist(&back, &lib).unwrap();
        let ctx = Context::nominal(&g1);
        let d = Analysis::run(&g1, &ctx).unwrap().boundary()
            .diff(Analysis::run(&g2, &ctx).unwrap().boundary());
        prop_assert_eq!(d.max, 0.0);
    }

    /// Bypassing any eligible internal pin preserves the DAG invariants.
    #[test]
    fn bypass_preserves_validity(seed in 0u64..100, victim_idx in 0usize..64) {
        let lib = Library::synthetic(5);
        let mut b = NetlistBuilder::new("byp", &lib);
        let a = b.input("a").unwrap();
        let z = b.output("z").unwrap();
        let c1 = b.cell("c1", "NAND2X1").unwrap();
        let c2 = b.cell("c2", "INVX1").unwrap();
        let a2 = b.input("a2").unwrap();
        b.connect("n0", a, &[b.pin_of(c1, "A").unwrap()]).unwrap();
        b.connect("n1", a2, &[b.pin_of(c1, "B").unwrap()]).unwrap();
        b.connect("n2", b.pin_of(c1, "Z").unwrap(), &[b.pin_of(c2, "A").unwrap()]).unwrap();
        b.connect("n3", b.pin_of(c2, "Z").unwrap(), &[z]).unwrap();
        let mut g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        let internals: Vec<_> = (0..g.node_count() as u32)
            .map(tmm_sta::graph::NodeId)
            .filter(|&n| g.node(n).kind == NodeKind::Internal && g.can_bypass(n))
            .collect();
        prop_assume!(!internals.is_empty());
        let victim = internals[(victim_idx + seed as usize) % internals.len()];
        g.bypass_node(victim).unwrap();
        g.validate().unwrap();
        // still analyzable
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let po = g.primary_outputs()[0];
        prop_assert!(an.at(po)[Mode::Late][Edge::Rise].is_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

    /// The in-repo float writer is byte-identical to std's `{:e}` on
    /// arbitrary bit patterns: NaNs, infinities, subnormals and normals of
    /// both signs.
    #[test]
    fn f64_exp_text_matches_std_on_random_bits(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        let mut ours = String::new();
        tmm_sta::io::write_f64_exp(&mut ours, v);
        prop_assert_eq!(ours, format!("{v:e}"), "bits {:#018x}", bits);
    }
}
