//! Synthetic NLDM cell libraries.
//!
//! The TAU 2016/2017 contests ship industrial early/late Liberty libraries.
//! This module replaces them with a deterministic synthetic library: every
//! combinational arc carries 2-D non-linear delay and output-transition
//! lookup tables ([`Lut2`]) indexed by input slew (ps) and output load (fF),
//! monotone in both axes, with distinct early/late corners. Sequential cells
//! (D flip-flops) carry a clock-to-output arc plus setup/hold constraints.
//!
//! Units across the crate: time in picoseconds, capacitance in femtofarads.

use crate::split::{Edge, Mode, Split, TransPair};
use crate::{Result, StaError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Default input-slew axis (ps) used by synthetic tables.
pub const DEFAULT_SLEW_AXIS: [f64; 7] = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0];
/// Default output-load axis (fF) used by synthetic tables.
pub const DEFAULT_LOAD_AXIS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Where a value falls on one table axis: the lower segment index and the
/// interpolation fraction. Values outside the axis extrapolate linearly
/// (negative fraction below it, above 1 beyond it).
///
/// [`Lut2::value`] locates both of its arguments this way; a caller that
/// evaluates many points sharing a row or a column locates each axis value
/// once with [`AxisPos::locate`] and evaluates with [`Lut2::row_at`] and
/// [`LutRow::at`], the two steps `value` itself is made of — same bits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AxisPos {
    seg: usize,
    frac: f64,
}

impl AxisPos {
    /// Locates `x` on `axis` (at least two entries, increasing).
    #[inline]
    #[must_use]
    pub fn locate(axis: &[f64], x: f64) -> Self {
        debug_assert!(axis.len() >= 2);
        let last = axis.len() - 2;
        let mut i = 0;
        while i < last && x > axis[i + 1] {
            i += 1;
        }
        let span = axis[i + 1] - axis[i];
        AxisPos { seg: i, frac: (x - axis[i]) / span }
    }
}

/// `true` when two axes hold the same bits, so positions located on one
/// are valid on the other. Axes shared by reference count answer without
/// a scan.
#[inline]
#[must_use]
pub fn same_axis(a: &[f64], b: &[f64]) -> bool {
    std::ptr::eq(a, b)
        || (a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// A 2-D NLDM lookup table: rows indexed by input slew, columns by output
/// load. Evaluation is bilinear inside the grid and linearly extrapolated
/// outside it, matching common Liberty semantics.
///
/// The axes are shared (`Arc<[f64]>`): tables built from another table's
/// grid — composed, merged, compressed, scaled, or parsed after a table
/// with the same axes — hold the same allocation instead of a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Lut2 {
    slew_axis: Arc<[f64]>,
    load_axis: Arc<[f64]>,
    /// Row-major values: `values[si * load_axis.len() + li]`.
    values: Vec<f64>,
}

impl Lut2 {
    /// Creates a table from explicit axes and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadLutAxis`] if either axis has fewer than two
    /// entries or is not strictly increasing, and [`StaError::BadLutShape`]
    /// if `values.len() != slew_axis.len() * load_axis.len()`.
    pub fn new(
        slew_axis: impl Into<Arc<[f64]>>,
        load_axis: impl Into<Arc<[f64]>>,
        values: Vec<f64>,
    ) -> Result<Self> {
        fn check(axis: &[f64], name: &'static str) -> Result<()> {
            if axis.len() < 2 || axis.windows(2).any(|w| w[1] <= w[0]) {
                return Err(StaError::BadLutAxis(name));
            }
            Ok(())
        }
        let (slew_axis, load_axis) = (slew_axis.into(), load_axis.into());
        check(&slew_axis, "slew")?;
        check(&load_axis, "load")?;
        let expected = slew_axis.len() * load_axis.len();
        if values.len() != expected {
            return Err(StaError::BadLutShape { expected, actual: values.len() });
        }
        Ok(Lut2 { slew_axis, load_axis, values })
    }

    /// Creates a table without validating the axes, only the shape.
    ///
    /// Exists for fault injection (`tmm-faults`) and validator tests,
    /// which need to build deliberately broken tables — non-monotone or
    /// non-finite axes — that [`Lut2::new`] would reject, and for tables
    /// sampled on axes taken from a valid table.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != slew_axis.len() * load_axis.len()`;
    /// a shape mismatch would make [`Lut2::value`] index out of bounds.
    #[must_use]
    pub fn new_unchecked(
        slew_axis: impl Into<Arc<[f64]>>,
        load_axis: impl Into<Arc<[f64]>>,
        values: Vec<f64>,
    ) -> Self {
        let (slew_axis, load_axis) = (slew_axis.into(), load_axis.into());
        assert_eq!(
            values.len(),
            slew_axis.len() * load_axis.len(),
            "LUT body does not match its axes"
        );
        Lut2 { slew_axis, load_axis, values }
    }

    /// Builds a table by sampling `f(slew, load)` on the given axes.
    ///
    /// # Errors
    ///
    /// Same axis validation as [`Lut2::new`].
    pub fn from_fn(
        slew_axis: impl Into<Arc<[f64]>>,
        load_axis: impl Into<Arc<[f64]>>,
        f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self> {
        let (slew_axis, load_axis) = (slew_axis.into(), load_axis.into());
        let values = sample(&slew_axis, &load_axis, f);
        Lut2::new(slew_axis, load_axis, values)
    }

    /// Builds a table by sampling `f(slew, load)` on axes that are already
    /// known to be valid — taken from an existing [`Lut2`] or a compile-time
    /// constant grid — skipping the axis re-validation of [`Lut2::from_fn`].
    ///
    /// The shape always matches by construction, so this is infallible.
    #[must_use]
    pub fn from_fn_unchecked(
        slew_axis: impl Into<Arc<[f64]>>,
        load_axis: impl Into<Arc<[f64]>>,
        f: impl FnMut(f64, f64) -> f64,
    ) -> Self {
        let (slew_axis, load_axis) = (slew_axis.into(), load_axis.into());
        let values = sample(&slew_axis, &load_axis, f);
        Lut2 { slew_axis, load_axis, values }
    }

    /// A 1×1-segment constant table (useful for fixed-delay arcs in tests).
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for interface uniformity.
    pub fn constant(value: f64) -> Result<Self> {
        Lut2::from_fn(vec![1.0, 100.0], vec![1.0, 100.0], |_, _| value)
    }

    /// Evaluates the table at `(slew, load)` with bilinear interpolation and
    /// linear extrapolation outside the characterised grid.
    #[inline]
    #[must_use]
    pub fn value(&self, slew: f64, load: f64) -> f64 {
        let row = AxisPos::locate(&self.slew_axis, slew);
        let col = AxisPos::locate(&self.load_axis, load);
        self.row_at(row).at(col)
    }

    /// The two rows around a located slew, for evaluating many loads at
    /// that slew with [`LutRow::at`] (which panics when the position lies
    /// beyond this table's slew axis).
    #[inline]
    #[must_use]
    pub fn row_at(&self, slew: AxisPos) -> LutRow<'_> {
        let cols = self.load_axis.len();
        LutRow { values: &self.values, lo: slew.seg * cols, cols, frac: slew.frac }
    }

    /// The input-slew axis (ps).
    #[must_use]
    pub fn slew_axis(&self) -> &[f64] {
        &self.slew_axis
    }

    /// The output-load axis (fF).
    #[must_use]
    pub fn load_axis(&self) -> &[f64] {
        &self.load_axis
    }

    /// The input-slew axis as the shared allocation, for building another
    /// table on the same grid without copying it.
    #[must_use]
    pub fn shared_slew_axis(&self) -> &Arc<[f64]> {
        &self.slew_axis
    }

    /// The output-load axis as the shared allocation.
    #[must_use]
    pub fn shared_load_axis(&self) -> &Arc<[f64]> {
        &self.load_axis
    }

    /// Row-major table body.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of stored entries (used for model-size accounting).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the table stores no entries (cannot happen for valid
    /// tables but provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns a copy with every value multiplied by `k` (same axes).
    #[must_use]
    pub fn scaled(&self, k: f64) -> Lut2 {
        Lut2 {
            slew_axis: self.slew_axis.clone(),
            load_axis: self.load_axis.clone(),
            values: self.values.iter().map(|v| v * k).collect(),
        }
    }
}

/// The two rows of a [`Lut2`] around one located slew ([`Lut2::row_at`]).
#[derive(Debug, Clone, Copy)]
pub struct LutRow<'a> {
    /// The whole table body, indexed as [`Lut2::value`] always has: no
    /// slice is cut per row.
    values: &'a [f64],
    /// Index of the lower row's first entry.
    lo: usize,
    cols: usize,
    frac: f64,
}

impl LutRow<'_> {
    /// The table's value at this row's slew and a located load: bilinear
    /// inside the grid, linear outside it. [`Lut2::value`] is this on the
    /// row and load it locates.
    #[inline]
    #[must_use]
    pub fn at(&self, load: AxisPos) -> f64 {
        let (li, lf) = (load.seg, load.frac);
        let (lo, hi) = (self.lo + li, self.lo + self.cols + li);
        let (v00, v01) = (self.values[lo], self.values[lo + 1]);
        let (v10, v11) = (self.values[hi], self.values[hi + 1]);
        let a = v00 + (v01 - v00) * lf;
        let b = v10 + (v11 - v10) * lf;
        a + (b - a) * self.frac
    }
}

/// `f` sampled over `slew_axis × load_axis`, row-major.
fn sample(slew_axis: &[f64], load_axis: &[f64], mut f: impl FnMut(f64, f64) -> f64) -> Vec<f64> {
    let mut values = Vec::with_capacity(slew_axis.len() * load_axis.len());
    for &s in slew_axis {
        for &l in load_axis {
            values.push(f(s, l));
        }
    }
    values
}

/// Unateness of a combinational timing arc: which input edge produces which
/// output edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingSense {
    /// Rising input → rising output (buffers, AND/OR).
    PositiveUnate,
    /// Rising input → falling output (inverters, NAND/NOR).
    NegativeUnate,
    /// Either input edge may produce either output edge (XOR, MUX select).
    NonUnate,
}

impl TimingSense {
    /// Input edges that can produce output edge `out` through this arc.
    #[must_use]
    pub fn input_edges(self, out: Edge) -> &'static [Edge] {
        match self {
            TimingSense::PositiveUnate => match out {
                Edge::Rise => &[Edge::Rise],
                Edge::Fall => &[Edge::Fall],
            },
            TimingSense::NegativeUnate => match out {
                Edge::Rise => &[Edge::Fall],
                Edge::Fall => &[Edge::Rise],
            },
            TimingSense::NonUnate => &[Edge::Rise, Edge::Fall],
        }
    }
}

impl fmt::Display for TimingSense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingSense::PositiveUnate => write!(f, "positive_unate"),
            TimingSense::NegativeUnate => write!(f, "negative_unate"),
            TimingSense::NonUnate => write!(f, "non_unate"),
        }
    }
}

/// Delay and output-transition tables for one arc at one corner, indexed by
/// the *output* edge.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcTables {
    /// Propagation delay per output edge.
    pub delay: TransPair<Lut2>,
    /// Output transition (slew) per output edge.
    pub slew: TransPair<Lut2>,
}

/// One characterised timing arc of a cell template.
#[derive(Debug, Clone)]
pub struct TimingArc {
    /// Index of the input pin within the template's pin list.
    pub from_pin: usize,
    /// Index of the output pin within the template's pin list.
    pub to_pin: usize,
    /// Unateness of the arc.
    pub sense: TimingSense,
    /// Early/late table sets. Tables are shared (`Arc`) because macro-model
    /// generation clones graphs aggressively.
    pub tables: Split<Arc<ArcTables>>,
}

/// Direction of a cell pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Signal input.
    Input,
    /// Signal output.
    Output,
    /// Clock input of a sequential cell.
    Clock,
}

/// One pin of a cell template.
#[derive(Debug, Clone)]
pub struct PinSpec {
    /// Pin name (e.g. `"A"`, `"Z"`, `"CK"`).
    pub name: String,
    /// Direction.
    pub direction: PinDirection,
    /// Input pin capacitance in fF (0 for outputs).
    pub cap: f64,
}

/// Setup/hold constraints of a sequential cell, relative to the clock pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialSpec {
    /// Data pin index within the template pin list.
    pub d_pin: usize,
    /// Clock pin index within the template pin list.
    pub ck_pin: usize,
    /// Output pin index within the template pin list.
    pub q_pin: usize,
    /// Setup time in ps (data must be stable this long before the clock).
    pub setup: f64,
    /// Hold time in ps (data must be stable this long after the clock).
    pub hold: f64,
}

/// Coarse functional class of a cell; drives synthesis choices in the
/// benchmark generator and feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Combinational logic gate.
    Combinational,
    /// Buffer/inverter intended for the clock network.
    ClockBuffer,
    /// Edge-triggered flip-flop.
    Sequential,
}

/// A library cell template: pins plus characterised timing arcs.
#[derive(Debug, Clone)]
pub struct CellTemplate {
    /// Cell name, e.g. `"NAND2X1"`.
    pub name: String,
    /// Functional class.
    pub class: CellClass,
    /// Ordered pin list.
    pub pins: Vec<PinSpec>,
    /// Characterised arcs.
    pub arcs: Vec<TimingArc>,
    /// Setup/hold data for sequential cells.
    pub sequential: Option<SequentialSpec>,
}

impl CellTemplate {
    /// Finds a pin index by name.
    #[must_use]
    pub fn pin_index(&self, name: &str) -> Option<usize> {
        self.pins.iter().position(|p| p.name == name)
    }

    /// Iterator over indices of input (and clock) pins.
    pub fn input_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.direction, PinDirection::Input | PinDirection::Clock))
            .map(|(i, _)| i)
    }

    /// Iterator over indices of output pins.
    pub fn output_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == PinDirection::Output)
            .map(|(i, _)| i)
    }
}

/// An early/late NLDM cell library.
///
/// Create one with [`Library::synthetic`] (seeded, deterministic) or assemble
/// templates manually for tests.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    templates: Vec<CellTemplate>,
    by_name: HashMap<String, usize>,
}

impl Library {
    /// Creates an empty library with the given name.
    #[must_use]
    pub fn empty(name: impl Into<String>) -> Self {
        Library { name: name.into(), templates: Vec::new(), by_name: HashMap::new() }
    }

    /// The library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a template, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::DuplicateName`] if a template with the same name
    /// already exists.
    pub fn add_template(&mut self, template: CellTemplate) -> Result<usize> {
        if self.by_name.contains_key(&template.name) {
            return Err(StaError::DuplicateName(template.name));
        }
        let idx = self.templates.len();
        self.by_name.insert(template.name.clone(), idx);
        self.templates.push(template);
        Ok(idx)
    }

    /// Looks up a template by name.
    #[must_use]
    pub fn template(&self, name: &str) -> Option<&CellTemplate> {
        self.by_name.get(name).map(|&i| &self.templates[i])
    }

    /// Looks up a template index by name.
    #[must_use]
    pub fn template_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Template by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn template_at(&self, idx: usize) -> &CellTemplate {
        &self.templates[idx]
    }

    /// All templates.
    #[must_use]
    pub fn templates(&self) -> &[CellTemplate] {
        &self.templates
    }

    /// Names of combinational cells with exactly `n` signal inputs.
    #[must_use]
    pub fn combinational_with_inputs(&self, n: usize) -> Vec<&str> {
        self.templates
            .iter()
            .filter(|t| t.class == CellClass::Combinational && t.input_pins().count() == n)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Builds the deterministic synthetic library used across the
    /// reproduction. The same `seed` always yields the same tables.
    ///
    /// The library contains inverters, buffers (×1/×2/×4 drive), 2-input
    /// NAND/NOR/AND/OR/XOR, AOI21/OAI21, a 2:1 mux, dedicated clock buffers,
    /// and a D flip-flop.
    #[must_use]
    pub fn synthetic(seed: u64) -> Self {
        SyntheticBuilder::new(seed).build()
    }
}

/// One arc's characterisation coefficients (drawn once, shared by corners
/// and the rise/fall asymmetry).
struct ArcCoefficients {
    base: f64,
    k_load: f64,
    k_slew: f64,
    k_cross: f64,
    k_slew_nl: f64,
    k_load_nl: f64,
    s_base: f64,
    s_load: f64,
    s_slew: f64,
    s_slew_nl: f64,
    skew: f64,
}

/// Internal helper constructing the synthetic library.
struct SyntheticBuilder {
    rng: StdRng,
    /// The default slew and load axes, shared by every table.
    axes: (Arc<[f64]>, Arc<[f64]>),
}

impl SyntheticBuilder {
    fn new(seed: u64) -> Self {
        SyntheticBuilder {
            rng: StdRng::seed_from_u64(seed ^ 0x51be_11b5),
            axes: (DEFAULT_SLEW_AXIS.into(), DEFAULT_LOAD_AXIS.into()),
        }
    }

    /// Random coefficient in `[lo, hi)`.
    fn coef(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Produces delay/slew tables for one arc at one corner from a shared
    /// coefficient draw, so the early corner is a uniformly derated copy of
    /// the same surface (guaranteeing `early < late` everywhere). Larger
    /// `drive` means lower load sensitivity.
    fn arc_tables(
        rng_draws: &ArcCoefficients,
        axes: &(Arc<[f64]>, Arc<[f64]>),
        mode: Mode,
    ) -> Arc<ArcTables> {
        let derate = match mode {
            Mode::Early => 0.88,
            Mode::Late => 1.0,
        };
        let &ArcCoefficients {
            base,
            k_load,
            k_slew,
            k_cross,
            k_slew_nl,
            k_load_nl,
            s_base,
            s_load,
            s_slew,
            s_slew_nl,
            skew,
        } = rng_draws;
        let delay_fn = move |slew: f64, load: f64, edge_k: f64| {
            derate
                * edge_k
                * (base
                    + k_load * load
                    + k_slew * slew
                    + k_cross * slew * load * 0.1
                    + k_slew_nl * (slew / 100.0) * (slew / 100.0)
                    + k_load_nl * (load / 32.0) * (load / 32.0))
        };
        let slew_fn = move |slew: f64, load: f64, edge_k: f64| {
            derate
                * edge_k
                * (s_base
                    + s_load * load
                    + s_slew * slew
                    + s_slew_nl * (slew / 100.0) * (slew / 100.0))
        };

        // The default axes are compile-time constants, already valid; the
        // whole library shares one allocation of each.
        let mk = |f: &dyn Fn(f64, f64) -> f64| {
            Lut2::from_fn_unchecked(axes.0.clone(), axes.1.clone(), f)
        };

        let delay = TransPair::new(
            mk(&|s, l| delay_fn(s, l, 1.0)),
            mk(&|s, l| delay_fn(s, l, skew)),
        );
        let slew = TransPair::new(
            mk(&|s, l| slew_fn(s, l, 1.0)),
            mk(&|s, l| slew_fn(s, l, skew)),
        );
        Arc::new(ArcTables { delay, slew })
    }

    fn split_tables(&mut self, base: f64, drive: f64) -> Split<Arc<ArcTables>> {
        // One coefficient draw per arc; the early corner is the same surface
        // derated by 0.88, modelling the min-delay library.
        let coefficients = ArcCoefficients {
            base,
            k_load: self.coef(1.4, 2.2) / drive,
            k_slew: self.coef(0.10, 0.22),
            k_cross: self.coef(0.015, 0.045) / drive,
            // Curvature terms: real NLDM surfaces bend at high input slew
            // and high load. Without them every table would be globally
            // bilinear, serial merging would be *exact* for almost every
            // pin, and the timing-sensitivity distribution would collapse
            // to zero (unlike the paper's Fig. 6).
            k_slew_nl: self.coef(8.0, 20.0),
            k_load_nl: self.coef(2.0, 6.0) / drive,
            s_base: self.coef(3.0, 6.0),
            s_load: self.coef(0.9, 1.6) / drive,
            s_slew: self.coef(0.08, 0.20),
            s_slew_nl: self.coef(4.0, 10.0),
            skew: self.coef(0.92, 1.12),
        };
        Split::new(
            Self::arc_tables(&coefficients, &self.axes, Mode::Early),
            Self::arc_tables(&coefficients, &self.axes, Mode::Late),
        )
    }

    fn input_pin(&mut self, name: &str) -> PinSpec {
        PinSpec { name: name.into(), direction: PinDirection::Input, cap: self.coef(1.2, 2.6) }
    }

    fn output_pin(&self, name: &str) -> PinSpec {
        PinSpec { name: name.into(), direction: PinDirection::Output, cap: 0.0 }
    }

    fn gate(
        &mut self,
        name: &str,
        class: CellClass,
        inputs: &[&str],
        sense: TimingSense,
        base: f64,
        drive: f64,
    ) -> CellTemplate {
        let mut pins: Vec<PinSpec> = inputs.iter().map(|n| self.input_pin(n)).collect();
        pins.push(self.output_pin("Z"));
        let out = pins.len() - 1;
        let arcs = (0..inputs.len())
            .map(|i| {
                let arc_base = base * self.coef(0.9, 1.15);
                TimingArc {
                    from_pin: i,
                    to_pin: out,
                    sense,
                    tables: self.split_tables(arc_base, drive),
                }
            })
            .collect();
        CellTemplate { name: name.into(), class, pins, arcs, sequential: None }
    }

    fn dff(&mut self, name: &str) -> CellTemplate {
        let pins = vec![
            self.input_pin("D"),
            PinSpec { name: "CK".into(), direction: PinDirection::Clock, cap: self.coef(1.0, 1.8) },
            self.output_pin("Q"),
        ];
        let arcs = vec![TimingArc {
            from_pin: 1,
            to_pin: 2,
            sense: TimingSense::PositiveUnate,
            tables: self.split_tables(28.0, 1.2),
        }];
        CellTemplate {
            name: name.into(),
            class: CellClass::Sequential,
            pins,
            arcs,
            sequential: Some(SequentialSpec {
                d_pin: 0,
                ck_pin: 1,
                q_pin: 2,
                setup: self.coef(18.0, 26.0),
                hold: self.coef(3.0, 7.0),
            }),
        }
    }

    fn build(mut self) -> Library {
        use CellClass::{ClockBuffer, Combinational};
        use TimingSense::{NegativeUnate, NonUnate, PositiveUnate};
        let mut lib = Library::empty("tmm_synth_045");
        let cells = vec![
            self.gate("INVX1", Combinational, &["A"], NegativeUnate, 9.0, 1.0),
            self.gate("INVX2", Combinational, &["A"], NegativeUnate, 8.0, 2.0),
            self.gate("BUFX1", Combinational, &["A"], PositiveUnate, 16.0, 1.0),
            self.gate("BUFX2", Combinational, &["A"], PositiveUnate, 14.0, 2.0),
            self.gate("BUFX4", Combinational, &["A"], PositiveUnate, 13.0, 4.0),
            self.gate("NAND2X1", Combinational, &["A", "B"], NegativeUnate, 12.0, 1.1),
            self.gate("NOR2X1", Combinational, &["A", "B"], NegativeUnate, 14.0, 0.9),
            self.gate("AND2X1", Combinational, &["A", "B"], PositiveUnate, 19.0, 1.0),
            self.gate("OR2X1", Combinational, &["A", "B"], PositiveUnate, 20.0, 1.0),
            self.gate("XOR2X1", Combinational, &["A", "B"], NonUnate, 24.0, 0.9),
            self.gate("AOI21X1", Combinational, &["A", "B", "C"], NegativeUnate, 16.0, 1.0),
            self.gate("OAI21X1", Combinational, &["A", "B", "C"], NegativeUnate, 17.0, 1.0),
            self.gate("MUX2X1", Combinational, &["A", "B", "S"], NonUnate, 22.0, 1.0),
            self.gate("CLKBUFX2", ClockBuffer, &["A"], PositiveUnate, 12.0, 2.5),
            self.gate("CLKBUFX4", ClockBuffer, &["A"], PositiveUnate, 11.0, 4.5),
            self.dff("DFFX1"),
        ];
        for c in cells {
            // The synthetic cell list is static with unique names, so the
            // only failure `add_template` can report cannot occur.
            if lib.add_template(c).is_err() {
                unreachable!("synthetic cell names are unique");
            }
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_position_interior_and_extrapolation() {
        let axis = [1.0, 2.0, 4.0];
        assert_eq!(AxisPos::locate(&axis, 1.5), AxisPos { seg: 0, frac: 0.5 });
        let p = AxisPos::locate(&axis, 3.0);
        assert_eq!(p.seg, 1);
        assert!((p.frac - 0.5).abs() < 1e-12);
        // below range: negative fraction on first segment
        let p = AxisPos::locate(&axis, 0.0);
        assert_eq!(p.seg, 0);
        assert!(p.frac < 0.0);
        // above range: fraction > 1 on last segment
        let p = AxisPos::locate(&axis, 8.0);
        assert_eq!(p.seg, 1);
        assert!(p.frac > 1.0);
    }

    #[test]
    fn lut_rejects_bad_axes() {
        assert!(matches!(
            Lut2::new(vec![1.0], vec![1.0, 2.0], vec![0.0, 0.0]),
            Err(StaError::BadLutAxis("slew"))
        ));
        assert!(matches!(
            Lut2::new(vec![1.0, 2.0], vec![2.0, 2.0], vec![0.0; 4]),
            Err(StaError::BadLutAxis("load"))
        ));
        assert!(matches!(
            Lut2::new(vec![1.0, 2.0], vec![1.0, 2.0], vec![0.0; 3]),
            Err(StaError::BadLutShape { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn lut_bilinear_matches_plane() {
        // f(s,l) = 2s + 3l is reproduced exactly by bilinear interpolation.
        let lut = Lut2::from_fn(vec![1.0, 2.0, 4.0], vec![1.0, 3.0], |s, l| 2.0 * s + 3.0 * l)
            .unwrap();
        for (s, l) in [(1.5, 2.0), (3.0, 1.0), (4.0, 3.0), (0.5, 0.5), (6.0, 5.0)] {
            let want = 2.0 * s + 3.0 * l;
            assert!((lut.value(s, l) - want).abs() < 1e-9, "f({s},{l})");
        }
    }

    #[test]
    fn lut_constant_and_scaled() {
        let lut = Lut2::constant(7.0).unwrap();
        assert_eq!(lut.value(12.0, 34.0), 7.0);
        let lut2 = lut.scaled(2.0);
        assert_eq!(lut2.value(1.0, 1.0), 14.0);
        assert_eq!(lut2.len(), lut.len());
    }

    #[test]
    fn synthetic_library_is_deterministic() {
        let a = Library::synthetic(3);
        let b = Library::synthetic(3);
        let c = Library::synthetic(4);
        let ta = a.template("NAND2X1").unwrap();
        let tb = b.template("NAND2X1").unwrap();
        let tc = c.template("NAND2X1").unwrap();
        let va = ta.arcs[0].tables.late.delay.rise.value(20.0, 8.0);
        let vb = tb.arcs[0].tables.late.delay.rise.value(20.0, 8.0);
        let vc = tc.arcs[0].tables.late.delay.rise.value(20.0, 8.0);
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn synthetic_tables_monotone_in_load_and_slew() {
        let lib = Library::synthetic(11);
        for t in lib.templates() {
            for arc in &t.arcs {
                for mode in Mode::ALL {
                    let tab = &arc.tables[mode];
                    for edge in Edge::ALL {
                        let d = &tab.delay[edge];
                        let base = d.value(10.0, 2.0);
                        assert!(d.value(10.0, 20.0) > base, "{}: load monotone", t.name);
                        assert!(d.value(100.0, 2.0) > base, "{}: slew monotone", t.name);
                        assert!(base > 0.0, "{}: positive delay", t.name);
                    }
                }
            }
        }
    }

    #[test]
    fn early_corner_is_faster_than_late() {
        let lib = Library::synthetic(5);
        for t in lib.templates() {
            for arc in &t.arcs {
                let e = arc.tables.early.delay.rise.value(20.0, 8.0);
                let l = arc.tables.late.delay.rise.value(20.0, 8.0);
                assert!(e < l, "{}: early {e} should be < late {l}", t.name);
            }
        }
    }

    #[test]
    fn sense_input_edges() {
        assert_eq!(TimingSense::PositiveUnate.input_edges(Edge::Rise), &[Edge::Rise]);
        assert_eq!(TimingSense::NegativeUnate.input_edges(Edge::Rise), &[Edge::Fall]);
        assert_eq!(TimingSense::NonUnate.input_edges(Edge::Fall).len(), 2);
    }

    #[test]
    fn dff_has_sequential_spec_and_ck_to_q_arc() {
        let lib = Library::synthetic(1);
        let dff = lib.template("DFFX1").unwrap();
        let seq = dff.sequential.expect("dff is sequential");
        assert_eq!(dff.pins[seq.ck_pin].direction, PinDirection::Clock);
        assert!(seq.setup > seq.hold);
        assert_eq!(dff.arcs.len(), 1);
        assert_eq!(dff.arcs[0].from_pin, seq.ck_pin);
        assert_eq!(dff.arcs[0].to_pin, seq.q_pin);
    }

    #[test]
    fn library_lookup_and_duplicates() {
        let mut lib = Library::empty("t");
        let t = CellTemplate {
            name: "X".into(),
            class: CellClass::Combinational,
            pins: vec![],
            arcs: vec![],
            sequential: None,
        };
        lib.add_template(t.clone()).unwrap();
        assert!(lib.template("X").is_some());
        assert!(lib.template("Y").is_none());
        assert!(matches!(lib.add_template(t), Err(StaError::DuplicateName(_))));
    }

    #[test]
    fn combinational_with_inputs_filters_correctly() {
        let lib = Library::synthetic(2);
        let one = lib.combinational_with_inputs(1);
        assert!(one.contains(&"INVX1"));
        assert!(!one.contains(&"CLKBUFX2"), "clock buffers are not general combinational");
        let two = lib.combinational_with_inputs(2);
        assert!(two.contains(&"NAND2X1"));
        assert!(two.contains(&"XOR2X1"));
    }
}
