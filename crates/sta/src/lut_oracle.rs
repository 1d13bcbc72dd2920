//! Per-point oracles of the LUT-grid kernel ([`crate::lut_grid`]): the
//! bodies serial composition and the parallel merge had before the
//! kernel, evaluating `Lut2::value` once per table and grid point.
//!
//! Not part of the API. They exist so the kernel's bit-identity test
//! (`graph`'s `one_pass_lut_sampling_is_bit_identical_to_two_pass`) and
//! the `lut_grid` bench of `tmm-bench` check against one copy.

use crate::graph::{ArcData, ArcGraph, ArcTiming};
use crate::liberty::{ArcTables, Lut2};
use crate::split::{Edge, Split, TransPair};
use std::sync::Arc;

/// The per-point two-pass `compose_arc_pair` body: `f` runs
/// `Lut2::value` once per table and grid point and re-evaluates the
/// first stage at every load column. Kept as the bit-identity oracle
/// of the grid kernel.
pub fn compose_arc_pair_two_pass(arc_a: &ArcData, arc_b: &ArcData, mid_load: f64) -> ArcTiming {
    if let (
        ArcTiming::Wire { delay: d1, degrade: g1 },
        ArcTiming::Wire { delay: d2, degrade: g2 },
    ) = (&arc_a.timing, &arc_b.timing)
    {
        return ArcTiming::Wire { delay: d1 + d2, degrade: g1 * g2 };
    }
    let (slew_axis, load_axis): (Vec<f64>, Vec<f64>) =
        match (arc_a.timing.tables(), arc_b.timing.tables()) {
            (Some(ta), Some(tb)) => (
                ta.late.delay.rise.slew_axis().to_vec(),
                tb.late.delay.rise.load_axis().to_vec(),
            ),
            (Some(ta), None) => (
                ta.late.delay.rise.slew_axis().to_vec(),
                ta.late.delay.rise.load_axis().to_vec(),
            ),
            (None, Some(tb)) => (
                tb.late.delay.rise.slew_axis().to_vec(),
                tb.late.delay.rise.load_axis().to_vec(),
            ),
            (None, None) => return ArcTiming::Wire { delay: 0.0, degrade: 1.0 },
        };
    let tables = Split::from_fn(|mode| {
        let per_edge = |out_edge: Edge| -> (Lut2, Lut2) {
            let f = |in_slew: f64, out_load: f64| -> (f64, f64) {
                let mut best_d = mode.neutral();
                let mut best_s = mode.neutral();
                for &mid_edge in arc_b.sense.input_edges(out_edge) {
                    let (d1, s1) =
                        ArcGraph::eval_arc(arc_a, mode, mid_edge, in_slew, mid_load);
                    let (d2, s2) = ArcGraph::eval_arc(arc_b, mode, out_edge, s1, out_load);
                    best_d = mode.worse(best_d, d1 + d2);
                    best_s = mode.worse(best_s, s2);
                }
                (best_d, best_s)
            };
            let delay = Lut2::from_fn_unchecked(slew_axis.clone(), load_axis.clone(), |s, l| {
                f(s, l).0
            });
            let slew = Lut2::from_fn_unchecked(slew_axis.clone(), load_axis.clone(), |s, l| {
                f(s, l).1
            });
            (delay, slew)
        };
        let (dr, sr) = per_edge(Edge::Rise);
        let (df, sf) = per_edge(Edge::Fall);
        Arc::new(ArcTables { delay: TransPair::new(dr, df), slew: TransPair::new(sr, sf) })
    });
    ArcTiming::Composed(tables)
}

/// The per-point two-pass table body of `merge_parallel_group` (the
/// wire short-cut and sense fold are unchanged and not repeated here).
pub fn merge_tables_two_pass(members: &[&ArcData]) -> ArcTiming {
    let slew_axis: Vec<f64> = members
        .iter()
        .find_map(|m| m.timing.tables())
        .map(|t| t.late.delay.rise.slew_axis().to_vec())
        .unwrap_or_else(|| vec![5.0, 320.0]);
    let load_axis: Vec<f64> = members
        .iter()
        .find_map(|m| m.timing.tables())
        .map(|t| t.late.delay.rise.load_axis().to_vec())
        .unwrap_or_else(|| vec![1.0, 64.0]);
    let tables = Split::from_fn(|mode| {
        let per_edge = |out_edge: Edge| -> (Lut2, Lut2) {
            let f = |in_slew: f64, out_load: f64| -> (f64, f64) {
                let mut best_d = mode.neutral();
                let mut best_s = mode.neutral();
                for m in members {
                    let (d, s) = ArcGraph::eval_arc(m, mode, out_edge, in_slew, out_load);
                    best_d = mode.worse(best_d, d);
                    best_s = mode.worse(best_s, s);
                }
                (best_d, best_s)
            };
            let delay = Lut2::from_fn_unchecked(slew_axis.clone(), load_axis.clone(), |s, l| {
                f(s, l).0
            });
            let slew = Lut2::from_fn_unchecked(slew_axis.clone(), load_axis.clone(), |s, l| {
                f(s, l).1
            });
            (delay, slew)
        };
        let (dr, sr) = per_edge(Edge::Rise);
        let (df, sf) = per_edge(Edge::Fall);
        Arc::new(ArcTables { delay: TransPair::new(dr, df), slew: TransPair::new(sr, sf) })
    });
    ArcTiming::Composed(tables)
}
