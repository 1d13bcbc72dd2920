//! The one LUT-grid sampling kernel behind every table macro generation
//! builds: serial composition (`graph::compose_arc_pair`), the parallel
//! merge (`graph::merge_parallel_group`) and LUT compression's resampling
//! (`tmm_macromodel::lut_select`).
//!
//! A grid is an output slew axis (rows) × an output load axis (columns).
//! An output table starts at the mode's neutral value and folds in one
//! source at a time — one mid edge of a serial composition, one member of
//! a parallel group — with [`Mode::worse`], so every cell sees the same
//! `worse` sequence a per-point loop over the sources produces.
//!
//! The kernel never evaluates [`Lut2::value`] point by point. It locates
//! the grid's rows and columns once per distinct slew or load axis
//! (cached across sources and across the eight tables of an arc), a
//! source's input slews once per row, and evaluates with
//! [`Lut2::row_at`] and [`crate::liberty::LutRow::at`]. [`Lut2::value`]
//! is [`AxisPos::locate`], `row_at` and `at` at one point, so every
//! output bit equals the per-point result.
//!
//! Output tables take the grid's axes by reference count, not by copy.

use crate::liberty::{same_axis, AxisPos, Lut2};
use crate::split::Mode;
use std::sync::Arc;

/// Points a scratch buffer holds on the stack; longer axes spill to the
/// heap, so a grid of ordinary size allocates nothing but its output
/// tables.
const INLINE: usize = 16;

/// One source folded into a grid: a delay/slew table pair, or a wire
/// (fixed delay, slew scaled by `degrade`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    /// Delay and output-slew tables of one output edge at one corner.
    Tables {
        /// Delay table.
        delay: &'a Lut2,
        /// Output-slew table.
        slew: &'a Lut2,
    },
    /// A wire: `delay` added, input slew multiplied by `degrade`.
    Wire {
        /// Fixed delay in ps.
        delay: f64,
        /// Slew multiplier.
        degrade: f64,
    },
}

/// `len` values on the stack up to [`INLINE`], on the heap beyond.
#[derive(Debug)]
pub(crate) struct Scratch<T> {
    len: usize,
    inline: [T; INLINE],
    heap: Vec<T>,
}

impl<T: Copy + Default> Default for Scratch<T> {
    fn default() -> Self {
        Scratch {
            len: 0,
            inline: [T::default(); INLINE],
            heap: Vec::new(),
        }
    }
}

impl<T: Copy + Default> Scratch<T> {
    /// The buffer resized to `len` values (their contents unspecified).
    pub(crate) fn resize(&mut self, len: usize) -> &mut [T] {
        self.len = len;
        if len <= INLINE {
            &mut self.inline[..len]
        } else {
            self.heap.resize(len, T::default());
            &mut self.heap[..]
        }
    }

    /// The buffer's current values.
    #[must_use]
    pub(crate) fn get(&self) -> &[T] {
        if self.len <= INLINE {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

/// A set of grid points located on the last axis seen.
#[derive(Default)]
struct Located {
    axis: Option<Arc<[f64]>>,
    pos: Scratch<AxisPos>,
}

impl Located {
    /// Positions of `points` on `axis`, located only when `axis` differs
    /// from the one the cache holds.
    fn on(&mut self, axis: &Arc<[f64]>, points: &[f64]) -> &[AxisPos] {
        if !self.axis.as_ref().is_some_and(|held| same_axis(held, axis)) {
            for (p, &x) in self.pos.resize(points.len()).iter_mut().zip(points) {
                *p = AxisPos::locate(axis, x);
            }
            self.axis = Some(axis.clone());
        }
        self.pos.get()
    }
}

/// A table pair's located grid lines: `[0]` for the delay table and `[1]`
/// for the slew table when its axis differs.
fn located_pair<'s>(
    cache: &'s mut [Located; 2],
    delay: &Arc<[f64]>,
    slew: &Arc<[f64]>,
    points: &[f64],
) -> (&'s [AxisPos], &'s [AxisPos]) {
    let [c0, c1] = cache;
    let d = c0.on(delay, points);
    let s = if same_axis(delay, slew) {
        d
    } else {
        c1.on(slew, points)
    };
    (d, s)
}

/// The grid-sampling kernel: an output grid plus the row and column
/// positions it has located so far. Build one per composed, merged or
/// compressed arc and pass every table of the arc through it.
pub struct LutGrid<'a> {
    rows: &'a Arc<[f64]>,
    cols: &'a Arc<[f64]>,
    /// Grid rows on source slew axes (for [`LutGrid::at_rows`]).
    rows_at: [Located; 2],
    /// Grid columns on source load axes.
    cols_at: [Located; 2],
}

impl<'a> LutGrid<'a> {
    /// A kernel over `rows × cols` (output slew axis × output load axis).
    #[must_use]
    pub fn new(rows: &'a Arc<[f64]>, cols: &'a Arc<[f64]>) -> Self {
        LutGrid {
            rows,
            cols,
            rows_at: Default::default(),
            cols_at: Default::default(),
        }
    }

    /// A fresh output table body at `mode`'s neutral value, ready for
    /// [`LutGrid::fold`].
    #[must_use]
    pub(crate) fn neutral(&self, mode: Mode) -> Vec<f64> {
        vec![mode.neutral(); self.rows.len() * self.cols.len()]
    }

    /// Writes `(delay, slew)` of `source` at each grid row's slew and the
    /// fixed `load` into `out` (one entry per row): bit-identical to
    /// evaluating both tables with [`Lut2::value`] there. A serial
    /// composition's first stage drives its frozen mid load this way.
    pub(crate) fn at_rows(&mut self, source: Source<'_>, load: f64, out: &mut [(f64, f64)]) {
        match source {
            Source::Tables { delay, slew } => {
                let ld = AxisPos::locate(delay.load_axis(), load);
                let ls = if same_axis(delay.load_axis(), slew.load_axis()) {
                    ld
                } else {
                    AxisPos::locate(slew.load_axis(), load)
                };
                let (rd, rs) = located_pair(
                    &mut self.rows_at,
                    delay.shared_slew_axis(),
                    slew.shared_slew_axis(),
                    self.rows,
                );
                for ((o, &pd), &ps) in out.iter_mut().zip(rd).zip(rs) {
                    *o = (delay.row_at(pd).at(ld), slew.row_at(ps).at(ls));
                }
            }
            Source::Wire { delay, degrade } => {
                for (o, &x) in out.iter_mut().zip(self.rows.iter()) {
                    *o = (delay, x * degrade);
                }
            }
        }
    }

    /// Folds one source into the output bodies `delay` and `slew`.
    ///
    /// Row `i` drives the source through `row(i, rows[i]) = (offset, x)`:
    /// the source is evaluated at input slew `x` and each column's load,
    /// and the cell becomes `worse(delay, offset + d)` and
    /// `worse(slew, s)`. A source without a delay offset passes `-0.0`,
    /// the additive identity of every `f64` (`-0.0 + v` is `v`, bit for
    /// bit, signed zeros included).
    pub(crate) fn fold(
        &mut self,
        mode: Mode,
        delay: &mut [f64],
        slew: &mut [f64],
        source: Source<'_>,
        row: impl FnMut(usize, f64) -> (f64, f64),
    ) {
        // One monomorphic copy per corner, so the inner loop carries no
        // match on the mode.
        match mode {
            Mode::Early => self.fold_by(|a, b| Mode::Early.worse(a, b), delay, slew, source, row),
            Mode::Late => self.fold_by(|a, b| Mode::Late.worse(a, b), delay, slew, source, row),
        }
    }

    fn fold_by(
        &mut self,
        worse: impl Fn(f64, f64) -> f64,
        delay: &mut [f64],
        slew: &mut [f64],
        source: Source<'_>,
        mut row: impl FnMut(usize, f64) -> (f64, f64),
    ) {
        let n = self.cols.len();
        let rows = delay
            .chunks_exact_mut(n)
            .zip(slew.chunks_exact_mut(n))
            .zip(self.rows.iter())
            .enumerate();
        match source {
            Source::Tables {
                delay: dt,
                slew: st,
            } => {
                let (cd, cs) = located_pair(
                    &mut self.cols_at,
                    dt.shared_load_axis(),
                    st.shared_load_axis(),
                    self.cols,
                );
                let shared_rows = same_axis(dt.slew_axis(), st.slew_axis());
                for (i, ((out_d, out_s), &in_slew)) in rows {
                    let (offset, x) = row(i, in_slew);
                    let rd = AxisPos::locate(dt.slew_axis(), x);
                    let rs = if shared_rows {
                        rd
                    } else {
                        AxisPos::locate(st.slew_axis(), x)
                    };
                    let (row_d, row_s) = (dt.row_at(rd), st.row_at(rs));
                    for (((od, os), &ld), &ls) in
                        out_d.iter_mut().zip(out_s.iter_mut()).zip(cd).zip(cs)
                    {
                        *od = worse(*od, offset + row_d.at(ld));
                        *os = worse(*os, row_s.at(ls));
                    }
                }
            }
            Source::Wire { delay: wd, degrade } => {
                for (i, ((out_d, out_s), &in_slew)) in rows {
                    let (offset, x) = row(i, in_slew);
                    let (d, s) = (offset + wd, x * degrade);
                    for (od, os) in out_d.iter_mut().zip(out_s.iter_mut()) {
                        *od = worse(*od, d);
                        *os = worse(*os, s);
                    }
                }
            }
        }
    }

    /// A table on this grid's axes with body `values` (from
    /// [`LutGrid::neutral`] after its folds).
    #[must_use]
    pub(crate) fn table(&self, values: Vec<f64>) -> Lut2 {
        Lut2::new_unchecked(self.rows.clone(), self.cols.clone(), values)
    }

    /// `lut` resampled on this grid: each cell is `lut.value(row, col)`,
    /// bit for bit.
    #[must_use]
    pub fn sample(&mut self, lut: &Lut2) -> Lut2 {
        let rows = self.rows_at[0].on(lut.shared_slew_axis(), self.rows);
        let cols = self.cols_at[0].on(lut.shared_load_axis(), self.cols);
        let mut values = Vec::with_capacity(rows.len() * cols.len());
        for &r in rows {
            let r = lut.row_at(r);
            values.extend(cols.iter().map(|&c| r.at(c)));
        }
        self.table(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut(slew: &[f64], load: &[f64], f: impl Fn(f64, f64) -> f64) -> Lut2 {
        Lut2::from_fn(slew.to_vec(), load.to_vec(), f).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sample_equals_pointwise_value_off_and_on_the_axes() {
        let src = lut(&[5.0, 10.0, 20.0, 40.0], &[1.0, 2.0, 4.0], |s, l| {
            0.3 * s * s - l + 1e-3 * s * l
        });
        // Rows and columns inside, on, below and above the source grid, and
        // more of them than the inline position buffer holds.
        let rows: Arc<[f64]> = (0..20).map(|i| -3.0 + 2.7 * f64::from(i)).collect();
        let cols: Arc<[f64]> = [-0.0, 0.5, 1.0, 3.0, 4.0, 9.0].into();
        let mut grid = LutGrid::new(&rows, &cols);
        let out = grid.sample(&src);
        let want: Vec<f64> = rows
            .iter()
            .flat_map(|&s| cols.iter().map(move |&l| (s, l)))
            .map(|(s, l)| src.value(s, l))
            .collect();
        assert_eq!(bits(out.values()), bits(&want));
        assert!(
            Arc::ptr_eq(out.shared_slew_axis(), &rows),
            "axes are shared, not copied"
        );
    }

    #[test]
    fn fold_order_is_the_pointwise_worse_sequence() {
        let a = lut(&[5.0, 20.0, 80.0], &[1.0, 8.0], |s, l| s + 2.0 * l);
        let b = lut(&[1.0, 50.0, 90.0], &[0.5, 2.0, 30.0], |s, l| {
            40.0 - 0.1 * s * l
        });
        let rows = a.shared_slew_axis().clone();
        let cols = b.shared_load_axis().clone();
        for mode in Mode::ALL {
            let mut grid = LutGrid::new(&rows, &cols);
            let (mut d, mut s) = (grid.neutral(mode), grid.neutral(mode));
            grid.fold(
                mode,
                &mut d,
                &mut s,
                Source::Tables {
                    delay: &a,
                    slew: &b,
                },
                |_, x| (-0.0, x),
            );
            grid.fold(
                mode,
                &mut d,
                &mut s,
                Source::Wire {
                    delay: 7.0,
                    degrade: 1.5,
                },
                |_, x| (0.25, x),
            );
            grid.fold(
                mode,
                &mut d,
                &mut s,
                Source::Tables {
                    delay: &b,
                    slew: &a,
                },
                |_, x| (1.0, 2.0 * x),
            );
            let mut i = 0;
            for &x in rows.iter() {
                for &l in cols.iter() {
                    let wd = mode.worse(mode.worse(mode.neutral(), a.value(x, l)), 0.25 + 7.0);
                    let ws = mode.worse(mode.worse(mode.neutral(), b.value(x, l)), x * 1.5);
                    let wd = mode.worse(wd, 1.0 + b.value(2.0 * x, l));
                    let ws = mode.worse(ws, a.value(2.0 * x, l));
                    assert_eq!(
                        (d[i].to_bits(), s[i].to_bits()),
                        (wd.to_bits(), ws.to_bits())
                    );
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn at_rows_equals_pointwise_value_at_a_fixed_load() {
        let d = lut(&[5.0, 10.0, 20.0, 40.0], &[1.0, 2.0, 4.0], |s, l| {
            s * l - 30.0
        });
        let s = lut(&[1.0, 3.0, 90.0], &[0.5, 8.0], |s, l| 0.2 * s + l);
        let rows: Arc<[f64]> = (0..18).map(|i| -4.0 + 6.5 * f64::from(i)).collect();
        let cols: Arc<[f64]> = [1.0, 2.0].into();
        let mut grid = LutGrid::new(&rows, &cols);
        for load in [0.1, 3.0, 70.0] {
            let mut out = vec![(0.0, 0.0); rows.len()];
            grid.at_rows(
                Source::Tables {
                    delay: &d,
                    slew: &s,
                },
                load,
                &mut out,
            );
            for (&(od, os), &x) in out.iter().zip(rows.iter()) {
                assert_eq!(od.to_bits(), d.value(x, load).to_bits());
                assert_eq!(os.to_bits(), s.value(x, load).to_bits());
            }
        }
    }

    #[test]
    fn negative_zero_offset_is_the_identity() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!((-0.0 + v).to_bits(), v.to_bits(), "{v}");
        }
    }
}
