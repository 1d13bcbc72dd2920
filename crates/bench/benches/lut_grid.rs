//! Criterion bench: the LUT-grid kernel (`tmm_sta::lut_grid`) against the
//! per-point oracles it replaced, on arcs of a suite design lowered with
//! the suite library.
//!
//! Three groups, each timing one pass over its whole arc set:
//! - `compose`: `compose_arc_pair` over (fan-in arc, fan-out arc, pin
//!   load) triples of internal pins, against
//!   `tmm_sta::lut_oracle::compose_arc_pair_two_pass`, which evaluates
//!   `Lut2::value` at every grid point for every mid edge, once per table;
//! - `merge`: `merge_parallel_group` over the fan-in arcs of multi-input
//!   gate outputs, against `lut_oracle::merge_tables_two_pass`;
//! - `compress`: `compress_tables` (7 × 7 to 4 × 4) of the composed arcs,
//!   against `lut_select::compress_tables_per_point`.
//!
//! Every group first asserts that kernel and oracle agree bit for bit.

// Experiment harness: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tmm_circuits::designs::{suite_library, training_suite};
use tmm_macromodel::lut_select::{compress_tables, compress_tables_per_point};
use tmm_sta::graph::{
    compose_arc_pair, merge_parallel_group, ArcData, ArcGraph, ArcTiming, NodeId, NodeKind,
    ParallelMerge,
};
use tmm_sta::liberty::ArcTables;
use tmm_sta::lut_oracle::{compose_arc_pair_two_pass, merge_tables_two_pass};
use tmm_sta::split::{Mode, Split};

fn axes_of(arc: &ArcData) -> Option<(&[f64], &[f64])> {
    arc.timing
        .tables()
        .map(|t| (t.late.delay.rise.slew_axis(), t.late.delay.rise.load_axis()))
}

fn bits(t: &Split<Arc<ArcTables>>) -> Vec<u64> {
    let mut out = Vec::new();
    for mode in Mode::ALL {
        for lut in [
            &t[mode].delay.rise,
            &t[mode].delay.fall,
            &t[mode].slew.rise,
            &t[mode].slew.fall,
        ] {
            out.extend(
                lut.slew_axis()
                    .iter()
                    .chain(lut.load_axis())
                    .chain(lut.values()),
            );
        }
    }
    out.into_iter().map(f64::to_bits).collect()
}

fn timing_bits(t: &ArcTiming) -> Vec<u64> {
    match t {
        ArcTiming::Wire { delay, degrade } => vec![delay.to_bits(), degrade.to_bits()],
        ArcTiming::Table(t) | ArcTiming::Composed(t) => bits(t),
    }
}

fn bench_lut_grid(c: &mut Criterion) {
    let lib = suite_library();
    let design = training_suite(&lib).unwrap().remove(0);
    let g = ArcGraph::from_netlist(&design.netlist, &lib).unwrap();
    let internal = (0..g.node_count() as u32)
        .map(NodeId)
        .filter(|&n| g.node(n).kind == NodeKind::Internal && !g.node(n).dead);
    // Serial pairs through internal pins: cell arc then net arc, or net
    // arc then cell arc, with the pin's own load frozen.
    let mut pairs = Vec::new();
    for n in internal.clone() {
        for a in g.fanin(n) {
            for b in g.fanout(n) {
                pairs.push((g.arc(a), g.arc(b), g.node(n).base_load));
            }
        }
    }
    pairs.truncate(256);
    // Parallel groups: the cell arcs into a multi-input gate's output.
    let groups: Vec<Vec<&ArcData>> = internal
        .map(|n| g.fanin(n).map(|a| g.arc(a)).collect::<Vec<_>>())
        .filter(|members| members.len() >= 2 && members.iter().all(|m| axes_of(m).is_some()))
        .take(128)
        .collect();
    let composed: Vec<Split<Arc<ArcTables>>> = pairs
        .iter()
        .filter_map(|&(a, b, l)| match compose_arc_pair(a, b, l) {
            ArcTiming::Composed(t) => Some(t),
            _ => None,
        })
        .collect();
    assert!(
        pairs.len() >= 64 && groups.len() >= 16,
        "{} pairs, {} groups",
        pairs.len(),
        groups.len()
    );

    for &(a, b, l) in &pairs {
        assert_eq!(
            timing_bits(&compose_arc_pair(a, b, l)),
            timing_bits(&compose_arc_pair_two_pass(a, b, l))
        );
    }
    for members in &groups {
        let ParallelMerge::Replace { timing, .. } = merge_parallel_group(members.iter().copied())
        else {
            panic!("table groups never keep their first member");
        };
        assert_eq!(timing_bits(&timing), timing_bits(&merge_tables_two_pass(members)));
    }
    for t in &composed {
        assert_eq!(
            bits(&compress_tables(t, 4, 4)),
            bits(&compress_tables_per_point(t, 4, 4))
        );
    }

    let mut group = c.benchmark_group(format!("lut_grid/compose_x{}", pairs.len()));
    group.sample_size(20);
    group.bench_function("kernel", |bch| {
        bch.iter(|| {
            pairs
                .iter()
                .map(|&(a, b, l)| compose_arc_pair(a, b, l))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("two_pass", |bch| {
        bch.iter(|| {
            pairs
                .iter()
                .map(|&(a, b, l)| compose_arc_pair_two_pass(a, b, l))
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    let mut group = c.benchmark_group(format!("lut_grid/merge_x{}", groups.len()));
    group.sample_size(20);
    group.bench_function("kernel", |bch| {
        bch.iter(|| {
            groups
                .iter()
                .map(|m| merge_parallel_group(m.iter().copied()))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("two_pass", |bch| {
        bch.iter(|| groups.iter().map(|m| merge_tables_two_pass(m)).collect::<Vec<_>>())
    });
    group.finish();

    let mut group = c.benchmark_group(format!("lut_grid/compress_x{}", composed.len()));
    group.sample_size(20);
    group.bench_function("kernel", |bch| {
        bch.iter(|| {
            composed
                .iter()
                .map(|t| compress_tables(t, 4, 4))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("per_point", |bch| {
        bch.iter(|| {
            composed
                .iter()
                .map(|t| compress_tables_per_point(t, 4, 4))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lut_grid);
criterion_main!(benches);
