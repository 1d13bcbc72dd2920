//! Lookup-table index selection (iTimerM §5.2, reused by the paper's
//! Fig. 9 step 3).
//!
//! Composed arcs inherit dense characterisation axes; most of their entries
//! are redundant because the composed functions are near-piecewise-linear.
//! This module picks the subset of axis indices that minimises the linear
//! interpolation error — a classic O(n²k) dynamic program per axis — and
//! resamples every table of an arc on the selected grid, shrinking the
//! serialised model.

use tmm_sta::graph::{ArcGraph, ArcId, ArcTiming};
use tmm_sta::liberty::{same_axis, ArcTables, Lut2};
use tmm_sta::lut_grid::LutGrid;
use tmm_sta::split::{Split, TransPair};
use std::sync::Arc;

/// Total absolute interpolation error of approximating `profile` on the
/// closed segment `[i, j]` of `axis` by the straight line through its
/// endpoints.
fn segment_error(axis: &[f64], profile: &[f64], i: usize, j: usize) -> f64 {
    let (x0, y0) = (axis[i], profile[i]);
    let (x1, y1) = (axis[j], profile[j]);
    let span = x1 - x0;
    let mut err = 0.0;
    for m in i + 1..j {
        // Duplicate axis values make the segment vertical (span == 0); the
        // division would yield NaN and poison the whole DP. Pin such points
        // to the left endpoint instead, charging |y0 - y_m| — conservative
        // and finite.
        let t = if span == 0.0 { 0.0 } else { (axis[m] - x0) / span };
        let interp = y0 + t * (y1 - y0);
        err += (interp - profile[m]).abs();
    }
    err
}

/// Selects `k` indices of `axis` (always including both endpoints) that
/// minimise the total linear-interpolation error against `profile`.
///
/// Degenerate axes are handled explicitly: an empty or single-point axis
/// returns all of its indices (`usize::clamp(2, 1)` would panic because
/// min > max, so the clamp below is only reached with `n >= 2`), and axes
/// with duplicate values never produce NaN segment errors (see
/// [`segment_error`]).
///
/// # Panics
///
/// Panics if `axis.len() != profile.len()`.
#[must_use]
pub fn select_axis_indices(axis: &[f64], profile: &[f64], k: usize) -> Vec<usize> {
    assert_eq!(axis.len(), profile.len());
    let n = axis.len();
    if n <= 2 {
        // Nothing to choose: single-point (and empty) axes keep their only
        // entries, two-point axes keep both endpoints.
        return (0..n).collect();
    }
    let k = k.clamp(2, n);
    if k == n {
        return (0..n).collect();
    }
    // dp[j][c] = min error covering [0, j] using c chosen points ending at
    // j, stored flat as dp[j * (k + 1) + c] (likewise `parent`).
    let inf = f64::INFINITY;
    let w = k + 1;
    let mut dp = vec![inf; n * w];
    let mut parent = vec![usize::MAX; n * w];
    dp[1] = 0.0;
    for j in 1..n {
        for c in 2..=k {
            for i in 0..j {
                if dp[i * w + c - 1] == inf {
                    continue;
                }
                let cand = dp[i * w + c - 1] + segment_error(axis, profile, i, j);
                if cand < dp[j * w + c] {
                    dp[j * w + c] = cand;
                    parent[j * w + c] = i;
                }
            }
        }
    }
    let mut picks = Vec::with_capacity(k);
    let mut j = n - 1;
    let mut c = k;
    while j != usize::MAX && c >= 1 {
        picks.push(j);
        let p = parent[j * w + c];
        if c == 1 {
            break;
        }
        j = p;
        c -= 1;
    }
    picks.reverse();
    debug_assert_eq!(picks.first(), Some(&0));
    debug_assert_eq!(picks.last(), Some(&(n - 1)));
    picks
}

/// Average of each slew-axis row (profile used to pick slew indices).
fn slew_profile(lut: &Lut2) -> Vec<f64> {
    let cols = lut.load_axis().len();
    lut.values().chunks(cols).map(|row| row.iter().sum::<f64>() / cols as f64).collect()
}

/// Average of each load-axis column (profile used to pick load indices).
fn load_profile(lut: &Lut2) -> Vec<f64> {
    let cols = lut.load_axis().len();
    let rows = lut.slew_axis().len();
    (0..cols)
        .map(|c| (0..rows).map(|r| lut.values()[r * cols + c]).sum::<f64>() / rows as f64)
        .collect()
}

/// The entries of `axis` at the selected (increasing) indices: a valid
/// axis again, so no re-validation is needed.
fn pick(axis: &[f64], idx: &[usize]) -> Arc<[f64]> {
    idx.iter().map(|&i| axis[i]).collect()
}

/// Compresses one arc's tables to at most `ks × kl` entries per table,
/// selecting indices from the late rise-delay profile (all eight tables of
/// the arc share axes so the model stays consistent).
///
/// Each table is resampled on its own axis entries at the selected
/// indices, through one [`LutGrid`]: values at the selected grid points
/// are `Lut2::value` there, bit for bit, and tables whose axes equal the
/// reference's share one copy of each selected axis.
#[must_use]
pub fn compress_tables(
    tables: &Split<Arc<ArcTables>>,
    ks: usize,
    kl: usize,
) -> Split<Arc<ArcTables>> {
    let reference = &tables.late.delay.rise;
    let slew_idx =
        select_axis_indices(reference.slew_axis(), &slew_profile(reference), ks);
    let load_idx =
        select_axis_indices(reference.load_axis(), &load_profile(reference), kl);
    let rows = pick(reference.slew_axis(), &slew_idx);
    let cols = pick(reference.load_axis(), &load_idx);
    let mut grid = LutGrid::new(&rows, &cols);
    let mut resample = |lut: &Lut2| {
        if same_axis(lut.slew_axis(), reference.slew_axis())
            && same_axis(lut.load_axis(), reference.load_axis())
        {
            grid.sample(lut)
        } else {
            let (rows, cols) = (pick(lut.slew_axis(), &slew_idx), pick(lut.load_axis(), &load_idx));
            LutGrid::new(&rows, &cols).sample(lut)
        }
    };
    Split::from_fn(|mode| {
        let t = &tables[mode];
        Arc::new(ArcTables {
            delay: TransPair::new(resample(&t.delay.rise), resample(&t.delay.fall)),
            slew: TransPair::new(resample(&t.slew.rise), resample(&t.slew.fall)),
        })
    })
}

/// The per-point oracle of [`compress_tables`]: each table resampled with
/// `Lut2::value` at every selected grid point of its own axes. Not part of
/// the API; the kernel's bit-identity test and the `lut_grid` bench of
/// `tmm-bench` check against it.
#[doc(hidden)]
#[must_use]
pub fn compress_tables_per_point(
    tables: &Split<Arc<ArcTables>>,
    ks: usize,
    kl: usize,
) -> Split<Arc<ArcTables>> {
    let reference = &tables.late.delay.rise;
    let slew_idx = select_axis_indices(reference.slew_axis(), &slew_profile(reference), ks);
    let load_idx = select_axis_indices(reference.load_axis(), &load_profile(reference), kl);
    let resample = |lut: &Lut2| {
        let (rows, cols) = (pick(lut.slew_axis(), &slew_idx), pick(lut.load_axis(), &load_idx));
        Lut2::from_fn_unchecked(rows, cols, |s, l| lut.value(s, l))
    };
    Split::from_fn(|mode| {
        let t = &tables[mode];
        Arc::new(ArcTables {
            delay: TransPair::new(resample(&t.delay.rise), resample(&t.delay.fall)),
            slew: TransPair::new(resample(&t.slew.rise), resample(&t.slew.fall)),
        })
    })
}

/// Applies LUT index selection to every live table-bearing arc of a graph.
/// Returns the number of arcs rewritten.
pub fn compress_graph_luts(graph: &mut ArcGraph, ks: usize, kl: usize) -> usize {
    let mut rewritten = 0usize;
    let arc_count = graph.arcs().len();
    for idx in 0..arc_count {
        let id = ArcId(idx as u32);
        let arc = graph.arc(id);
        if arc.dead {
            continue;
        }
        let Some(tables) = arc.timing.tables() else { continue };
        let ref_lut = &tables.late.delay.rise;
        if ref_lut.slew_axis().len() <= ks && ref_lut.load_axis().len() <= kl {
            continue;
        }
        let compressed = compress_tables(tables, ks, kl);
        let was_composed = matches!(arc.timing, ArcTiming::Composed(_));
        graph.arc_mut(id).timing = if was_composed {
            ArcTiming::Composed(compressed)
        } else {
            ArcTiming::Table(compressed)
        };
        rewritten += 1;
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_profile_needs_only_endpoints() {
        let axis: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let profile: Vec<f64> = axis.iter().map(|x| 2.0 * x + 1.0).collect();
        let picks = select_axis_indices(&axis, &profile, 2);
        assert_eq!(picks, vec![0, 6]);
        // a 2-point selection of a linear profile has zero error
        assert_eq!(segment_error(&axis, &profile, 0, 6), 0.0);
    }

    #[test]
    fn kink_is_captured_by_third_point() {
        let axis = [0.0, 1.0, 2.0, 3.0, 4.0];
        // piecewise linear with a kink at x=2
        let profile = [0.0, 1.0, 2.0, 10.0, 18.0];
        let picks = select_axis_indices(&axis, &profile, 3);
        assert_eq!(picks, vec![0, 2, 4], "the kink index must be selected");
    }

    #[test]
    fn k_clamps_to_axis_length() {
        let axis = [0.0, 1.0];
        let profile = [5.0, 6.0];
        assert_eq!(select_axis_indices(&axis, &profile, 10), vec![0, 1]);
    }

    #[test]
    fn single_point_axis_is_kept_verbatim() {
        // Scalar characterisation: one axis entry. The old
        // `assert!(n >= 2)` + `k.clamp(2, 1)` both panicked here.
        assert_eq!(select_axis_indices(&[3.5], &[7.0], 4), vec![0]);
        assert_eq!(select_axis_indices(&[3.5], &[7.0], 0), vec![0]);
        let empty: Vec<usize> = Vec::new();
        assert_eq!(select_axis_indices(&[], &[], 2), empty);
    }

    #[test]
    fn duplicate_axis_values_never_produce_nan() {
        // A composed arc can inherit an axis with repeated grid points;
        // the vertical segment must not yield NaN errors (which would
        // poison every DP comparison and derail index selection).
        let axis = [0.0, 1.0, 1.0, 2.0, 3.0];
        let profile = [0.0, 1.0, 5.0, 2.0, 3.0];
        for k in 2..=5 {
            let picks = select_axis_indices(&axis, &profile, k);
            assert_eq!(*picks.first().unwrap(), 0);
            assert_eq!(*picks.last().unwrap(), 4);
            assert!(picks.len() <= k.max(2));
            assert!(picks.windows(2).all(|w| w[0] < w[1]), "strictly increasing picks");
        }
        // The degenerate segment error itself is finite.
        assert!(segment_error(&axis, &profile, 1, 2).is_finite());
        let e = segment_error(&[1.0, 1.0, 1.0], &[0.0, 4.0, 0.0], 0, 2);
        assert_eq!(e, 4.0, "vertical segment charges |y0 - y_m|");
    }

    #[test]
    fn compress_preserves_values_at_selected_points() {
        let lut = Lut2::from_fn(
            vec![5.0, 10.0, 20.0, 40.0, 80.0],
            vec![1.0, 2.0, 4.0, 8.0],
            |s, l| 3.0 + 0.2 * s + 1.5 * l,
        )
        .unwrap();
        let tables = Split::uniform(Arc::new(ArcTables {
            delay: TransPair::uniform(lut.clone()),
            slew: TransPair::uniform(lut.clone()),
        }));
        let small = compress_tables(&tables, 3, 2);
        let c = &small.late.delay.rise;
        assert_eq!(c.slew_axis().len(), 3);
        assert_eq!(c.load_axis().len(), 2);
        // endpoints exact; a linear function is reproduced everywhere
        for (s, l) in [(5.0, 1.0), (80.0, 8.0), (20.0, 4.0), (40.0, 2.0)] {
            assert!((c.value(s, l) - lut.value(s, l)).abs() < 1e-9, "({s},{l})");
        }
    }

    #[test]
    fn compression_through_the_kernel_equals_pointwise_value() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let wide: Vec<f64> = (0..20).map(|i| 1.0 + f64::from(i) * f64::from(i)).collect();
        let lut = |sa: &[f64], la: &[f64], k: f64| {
            Lut2::from_fn(sa.to_vec(), la.to_vec(), |s, l| {
                if s < 3.0 { -0.0 } else { k * (s * 0.37).sin() * l - 0.01 * s * s }
            })
            .unwrap()
        };
        // The reference (late rise delay) and most tables share a 20 × 9
        // grid; the early slew tables sit on axes of their own, resampled
        // at the same indices on their own entries.
        let (sa, la) = (&wide[..], &wide[..9]);
        let own: Vec<f64> = wide.iter().map(|x| x * 1.5 + 0.25).collect();
        let tables = Split::new(
            Arc::new(ArcTables {
                delay: TransPair::new(lut(sa, la, 1.0), lut(sa, la, 2.0)),
                slew: TransPair::new(lut(&own, &own[..9], 3.0), lut(&own, &own[..9], -4.0)),
            }),
            Arc::new(ArcTables {
                delay: TransPair::new(lut(sa, la, 5.0), lut(sa, la, 6.0)),
                slew: TransPair::new(lut(sa, la, 7.0), lut(sa, la, -8.0)),
            }),
        );
        let all_bits = |t: &Split<Arc<ArcTables>>| {
            let mut out = Vec::new();
            for mode in [tmm_sta::split::Mode::Early, tmm_sta::split::Mode::Late] {
                let t = &t[mode];
                for lut in [&t.delay.rise, &t.delay.fall, &t.slew.rise, &t.slew.fall] {
                    out.push((bits(lut.slew_axis()), bits(lut.load_axis()), bits(lut.values())));
                }
            }
            out
        };
        for (ks, kl) in [(4, 4), (7, 3), (20, 9), (2, 2)] {
            let small = compress_tables(&tables, ks, kl);
            assert_eq!(
                all_bits(&small),
                all_bits(&compress_tables_per_point(&tables, ks, kl)),
                "{ks}x{kl}"
            );
            // Tables on the reference grid share one copy of each axis.
            assert!(Arc::ptr_eq(
                small.late.delay.rise.shared_slew_axis(),
                small.early.delay.fall.shared_slew_axis()
            ));
        }
    }

    #[test]
    fn graph_compression_shrinks_lut_entries() {
        use tmm_circuits::CircuitSpec;
        use tmm_sta::graph::ArcGraph;
        use tmm_sta::liberty::Library;
        let lib = Library::synthetic(3);
        let n = CircuitSpec::new("c").cloud(2, 5).register_banks(0, 1).seed(4).generate(&lib).unwrap();
        let mut g = ArcGraph::from_netlist(&n, &lib).unwrap();
        let before = g.lut_entries();
        let rewritten = compress_graph_luts(&mut g, 4, 4);
        assert!(rewritten > 0);
        assert!(g.lut_entries() < before, "{} -> {}", before, g.lut_entries());
        g.validate().unwrap();
    }
}
