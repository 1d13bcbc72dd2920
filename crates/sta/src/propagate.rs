//! Forward/backward timing propagation.
//!
//! [`Analysis::run`] performs a full early/late × rise/fall block-level
//! timing analysis over an [`crate::graph::ArcGraph`] under one [`Context`]:
//!
//! 1. **Forward**: slew and arrival time from primary inputs and the clock
//!    source, in topological order (worst-slew merging, per-mode worst
//!    arrival). Launching-clock tags are carried along critical arrivals so
//!    CPPR can later locate the launch clock path.
//! 2. **Endpoints**: required arrival times at primary outputs (from the
//!    context) and at flip-flop data pins (from the captured clock arrival,
//!    period, setup/hold, and — when enabled — the CPPR credit).
//! 3. **Backward**: required-time propagation and slack computation.
//!
//! The result exposes per-node quantities and a [`BoundarySnapshot`] used by
//! the model-accuracy comparisons.

use crate::aocv::AocvSpec;
use crate::compare::BoundarySnapshot;
use crate::constraints::Context;
use crate::cppr::common_path_credit;
use crate::graph::{ArcData, ArcTiming, NodeId, NodeKind};
use crate::idhash::IdMap;
use crate::liberty::{ArcTables, AxisPos, Lut2};
use crate::split::{Edge, Mode, Quad, Split, TransPair};
use crate::view::TimingGraph;
use crate::Result;
use std::sync::Arc;

/// Sentinel for "no node" in packed tag arrays.
const NONE: u32 = u32::MAX;

/// Options controlling an analysis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisOptions {
    /// Apply common path pessimism removal to flip-flop check required
    /// times.
    pub cppr: bool,
    /// Apply depth-based AOCV derating ([`AocvSpec::standard`]) to cell
    /// arcs. For a custom table use [`Analysis::run_with_aocv`].
    pub aocv: bool,
}

/// Per-check CPPR accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CheckCredit {
    /// Credit applied to the setup requirement, per data edge.
    pub setup: TransPair<f64>,
    /// Credit applied to the hold requirement, per data edge.
    pub hold: TransPair<f64>,
}

/// A completed timing analysis over one graph and context.
#[derive(Debug, Clone)]
pub struct Analysis {
    at: Vec<Quad>,
    slew: Vec<Quad>,
    rat: Vec<Quad>,
    launch_tag: Vec<Split<TransPair<u32>>>,
    clock_parent: Vec<u32>,
    credits: Vec<CheckCredit>,
    boundary: BoundarySnapshot,
    options: AnalysisOptions,
}

impl Analysis {
    /// Runs a plain analysis (CPPR off).
    ///
    /// # Errors
    ///
    /// Currently infallible for valid graphs; returns `Err` only if the
    /// graph's topological order is missing (never after
    /// [`crate::graph::ArcGraph::from_netlist`]). Accepts any [`TimingGraph`] — flat
    /// graphs, frozen cores, and copy-on-write views all analyse the same
    /// way.
    pub fn run<G: TimingGraph>(graph: &G, ctx: &Context) -> Result<Analysis> {
        Self::run_with_options(graph, ctx, AnalysisOptions::default())
    }

    /// Runs an analysis with explicit options (the standard AOCV table is
    /// used when `options.aocv` is set).
    ///
    /// # Errors
    ///
    /// See [`Analysis::run`].
    pub fn run_with_options<G: TimingGraph>(
        graph: &G,
        ctx: &Context,
        options: AnalysisOptions,
    ) -> Result<Analysis> {
        let standard;
        let spec = if options.aocv {
            standard = AocvSpec::standard();
            Some(&standard)
        } else {
            None
        };
        Self::run_with_aocv(graph, ctx, options, spec)
    }

    /// Runs an analysis with an explicit AOCV derate table (overriding the
    /// `options.aocv` flag).
    ///
    /// # Errors
    ///
    /// See [`Analysis::run`].
    pub fn run_with_aocv<G: TimingGraph>(
        graph: &G,
        ctx: &Context,
        options: AnalysisOptions,
        aocv: Option<&AocvSpec>,
    ) -> Result<Analysis> {
        tmm_obs::counter_add("tmm_sta_full_analyses_total", &[], 1);
        let evaluator = Evaluator::new(graph, aocv.cloned());
        let mut state = PropState::new(graph);
        let q_to_ck = q_to_ck_map(graph);
        let po_loads = ctx.po_loads();
        serial_sweep(graph, ctx, options, &evaluator, &q_to_ck, &po_loads, &mut state, || {});
        Ok(Self::from_state(graph, state, options))
    }

    /// Assembles a completed analysis from raw propagation state.
    pub(crate) fn from_state<G: TimingGraph>(
        graph: &G,
        state: PropState,
        options: AnalysisOptions,
    ) -> Analysis {
        let boundary =
            Self::snapshot(graph, &state.at, &state.slew, &state.rat, &state.credits);
        Analysis {
            at: state.at,
            slew: state.slew,
            rat: state.rat,
            launch_tag: state.launch_tag,
            clock_parent: state.clock_parent,
            credits: state.credits,
            boundary,
            options,
        }
    }

    pub(crate) fn snapshot<G: TimingGraph>(
        graph: &G,
        at: &[Quad],
        slew: &[Quad],
        rat: &[Quad],
        credits: &[CheckCredit],
    ) -> BoundarySnapshot {
        let mut out = BoundarySnapshot::default();
        Self::snapshot_into(graph, at, slew, rat, credits, &mut out);
        out
    }

    /// Refreshes `out` in place to the boundary of `graph` under the given
    /// state: values are rewritten, and a name is copied only where it
    /// differs from the one already there, so re-snapshotting the same
    /// graph's boundary allocates nothing.
    pub(crate) fn snapshot_into<G: TimingGraph>(
        graph: &G,
        at: &[Quad],
        slew: &[Quad],
        rat: &[Quad],
        credits: &[CheckCredit],
        out: &mut BoundarySnapshot,
    ) {
        fn set_name(dst: &mut String, src: &str) {
            if dst != src {
                dst.clear();
                dst.push_str(src);
            }
        }
        /// Slot `k` of `list`, appending a default entry when the list
        /// ends just before it.
        fn slot<T: Default>(list: &mut Vec<T>, k: usize) -> &mut T {
            if k == list.len() {
                list.push(T::default());
            }
            &mut list[k]
        }
        /// Cuts or sizes `list` for exactly `n` entries.
        fn fit<T>(list: &mut Vec<T>, n: usize) {
            list.truncate(n);
            list.reserve_exact(n - list.len());
        }
        let pos = graph.primary_outputs();
        fit(&mut out.po, pos.len());
        for (k, &n) in pos.iter().enumerate() {
            let i = n.index();
            let p = slot(&mut out.po, k);
            set_name(&mut p.name, graph.node_name(n));
            p.at = at[i];
            p.slew = slew[i];
            p.rat = rat[i];
            p.slack = slack_of(&at[i], &rat[i]);
        }
        let pis = graph.primary_inputs();
        fit(&mut out.pi, pis.len());
        for (k, &n) in pis.iter().enumerate() {
            let p = slot(&mut out.pi, k);
            set_name(&mut p.name, graph.node_name(n));
            p.rat = rat[n.index()];
        }
        let live = graph
            .checks()
            .iter()
            .enumerate()
            .filter(|(_, c)| !graph.node_dead(c.d) && !graph.node_dead(c.ck));
        let mut k = 0;
        for (ci, c) in live {
            let s = slack_of(&at[c.d.index()], &rat[c.d.index()]);
            let t = slot(&mut out.checks, k);
            set_name(&mut t.name, &c.name);
            t.setup_slack = s.late;
            t.hold_slack = s.early;
            t.setup_credit = credits[ci].setup;
            t.hold_credit = credits[ci].hold;
            k += 1;
        }
        out.checks.truncate(k);
    }

    /// Arrival times of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn at(&self, n: NodeId) -> Quad {
        self.at[n.index()]
    }

    /// Slews of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn slew(&self, n: NodeId) -> Quad {
        self.slew[n.index()]
    }

    /// Required arrival times of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn rat(&self, n: NodeId) -> Quad {
        self.rat[n.index()]
    }

    /// Slack of node `n` (`rat − at` late, `at − rat` early); `NaN` where
    /// either side is unconstrained.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn slack(&self, n: NodeId) -> Quad {
        slack_of(&self.at[n.index()], &self.rat[n.index()])
    }

    /// The boundary snapshot used for model-accuracy comparison.
    #[must_use]
    pub fn boundary(&self) -> &BoundarySnapshot {
        &self.boundary
    }

    /// Takes the boundary snapshot, dropping the per-node state.
    pub(crate) fn into_boundary(self) -> BoundarySnapshot {
        self.boundary
    }

    /// CPPR credits per check (zero when CPPR was disabled).
    #[must_use]
    pub fn credits(&self) -> &[CheckCredit] {
        &self.credits
    }

    /// The options this analysis ran with.
    #[must_use]
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Critical-clock-path parent of each node (`u32::MAX` when none);
    /// consumed by the CPPR report.
    #[must_use]
    pub fn clock_parents(&self) -> &[u32] {
        &self.clock_parent
    }

    /// Launching-clock tag of node `n` (the clock pin of the flip-flop that
    /// launched the critical path), if any.
    #[must_use]
    pub fn launch_tag(&self, n: NodeId, mode: Mode, edge: Edge) -> Option<NodeId> {
        let t = self.launch_tag[n.index()][mode][edge];
        (t != NONE).then_some(NodeId(t))
    }
}

/// Slack from one node's arrival and required times (`rat − at` late,
/// `at − rat` early); `NaN` where either side is unconstrained. The one
/// definition behind [`Analysis::slack`], the boundary snapshot and
/// [`crate::incremental::IncrementalState::slack`].
pub(crate) fn slack_of(at: &Quad, rat: &Quad) -> Quad {
    Split::from_fn(|mode| {
        TransPair::from_fn(|edge| {
            let a = at[mode][edge];
            let r = rat[mode][edge];
            if !a.is_finite() || !r.is_finite() {
                f64::NAN
            } else {
                match mode {
                    Mode::Late => r - a,
                    Mode::Early => a - r,
                }
            }
        })
    })
}

/// Arc evaluator with optional AOCV derating. Owns its derate table and the
/// per-node structural depths so the incremental timer can hold one across
/// updates.
#[derive(Debug, Clone)]
pub(crate) struct Evaluator {
    aocv: Option<AocvSpec>,
    depths: Option<Vec<u32>>,
}

impl Evaluator {
    pub(crate) fn new<G: TimingGraph>(graph: &G, aocv: Option<AocvSpec>) -> Self {
        // `levels_from_inputs` lends a borrowed slice on cores; this copy
        // happens only when AOCV actually needs to own the depths.
        let depths = aocv.as_ref().map(|_| graph.levels_from_inputs().into_owned());
        Evaluator { aocv, depths }
    }

    /// `true` when this evaluator derates by structural depth (AOCV on).
    pub(crate) fn has_aocv(&self) -> bool {
        self.aocv.is_some()
    }

    /// `d` with the depth-based derate of `arc`'s sink applied; wire arcs
    /// and slews are not derated (graph-based AOCV convention).
    fn derate(&self, arc: &ArcData, mode: Mode, d: f64) -> f64 {
        match (&arc.timing, &self.aocv, &self.depths) {
            (ArcTiming::Wire { .. }, _, _) | (_, None, _) => d,
            (_, Some(spec), Some(depth)) => {
                let level = depth[arc.to.index()];
                let level = if level == u32::MAX { 0 } else { level };
                d * spec.derate(mode, level)
            }
            (_, Some(_), None) => unreachable!("depths computed when aocv is set"),
        }
    }
}

/// One arc's delay and slew at one mode, evaluated through table
/// positions located at most once each: the load, and the input slew per
/// input edge, on the axes of the mode's rise-delay table. A table built
/// on those same axis allocations reuses the positions; a table on other
/// axes locates its own, so no lookup locates more than [`Lut2::value`]
/// would. Each value is `row_at(slew).at(load)` — what `value` computes —
/// so the bits are the same.
struct ArcLookup<'a> {
    arc: &'a ArcData,
    mode: Mode,
    load: f64,
    load_pos: Option<AxisPos>,
    slew_pos: TransPair<Option<AxisPos>>,
}

impl<'a> ArcLookup<'a> {
    fn new(arc: &'a ArcData, mode: Mode, load: f64) -> Self {
        ArcLookup { arc, mode, load, load_pos: None, slew_pos: TransPair::uniform(None) }
    }

    /// Derated delay to `out_edge` from input slew `slew` of `in_edge`.
    fn delay(&mut self, ev: &Evaluator, out_edge: Edge, in_edge: Edge, slew: f64) -> f64 {
        let arc = self.arc;
        let d = match &arc.timing {
            ArcTiming::Table(t) | ArcTiming::Composed(t) => {
                let t = &t[self.mode];
                self.value(t, &t.delay[out_edge], in_edge, slew)
            }
            ArcTiming::Wire { delay, .. } => *delay,
        };
        ev.derate(arc, self.mode, d)
    }

    /// Output slew at `out_edge` from input slew `slew` of `in_edge`.
    fn slew(&mut self, out_edge: Edge, in_edge: Edge, slew: f64) -> f64 {
        match &self.arc.timing {
            ArcTiming::Table(t) | ArcTiming::Composed(t) => {
                let t = &t[self.mode];
                self.value(t, &t.slew[out_edge], in_edge, slew)
            }
            ArcTiming::Wire { degrade, .. } => slew * degrade,
        }
    }

    /// `lut` (one of `tables`) at `slew` and the arc's load.
    fn value(&mut self, tables: &ArcTables, lut: &Lut2, in_edge: Edge, slew: f64) -> f64 {
        let home = &tables.delay.rise;
        let row = if Arc::ptr_eq(lut.shared_slew_axis(), home.shared_slew_axis()) {
            *self.slew_pos[in_edge].get_or_insert_with(|| AxisPos::locate(home.slew_axis(), slew))
        } else {
            AxisPos::locate(lut.slew_axis(), slew)
        };
        let load = self.load;
        let col = if Arc::ptr_eq(lut.shared_load_axis(), home.shared_load_axis()) {
            *self.load_pos.get_or_insert_with(|| AxisPos::locate(home.load_axis(), load))
        } else {
            AxisPos::locate(lut.load_axis(), load)
        };
        lut.row_at(row).at(col)
    }
}

/// Raw per-node propagation state shared by the full analysis and the
/// incremental timer.
#[derive(Debug, Clone)]
pub(crate) struct PropState {
    pub(crate) at: Vec<Quad>,
    pub(crate) slew: Vec<Quad>,
    pub(crate) rat: Vec<Quad>,
    pub(crate) launch_tag: Vec<Split<TransPair<u32>>>,
    pub(crate) clock_parent: Vec<u32>,
    pub(crate) credits: Vec<CheckCredit>,
}

/// Neutral arrival/slew quad: the value a node holds before any fan-in
/// has been folded in.
fn neutral_quad() -> Quad {
    Split::from_fn(|mode| TransPair::uniform(mode.neutral()))
}

/// Flip-neutral required-time quad: the value a node holds before any
/// fan-out has been folded in.
fn neutral_rat() -> Quad {
    Split::from_fn(|mode| TransPair::uniform(mode.flip().neutral()))
}

impl PropState {
    pub(crate) fn new<G: TimingGraph>(graph: &G) -> Self {
        let mut state = PropState {
            at: Vec::new(),
            slew: Vec::new(),
            rat: Vec::new(),
            launch_tag: Vec::new(),
            clock_parent: Vec::new(),
            credits: vec![CheckCredit::default(); graph.checks().len()],
        };
        state.grow_to(graph.node_count());
        state
    }

    /// Extends the per-node vectors to cover `n` node slots, initialising
    /// the new tail exactly as [`PropState::new`] would (neutral arrivals
    /// and slews, flip-neutral required times, unanchored tags). Used when
    /// re-timing a view whose structural edits appended nodes after the
    /// core's slots.
    pub(crate) fn grow_to(&mut self, n: usize) {
        // Exact growth: a session keeps its state across buffer inserts,
        // one slot each, and amortised doubling would hold up to twice
        // the memory for good.
        fn grow<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
            v.reserve_exact(n.saturating_sub(v.len()));
            v.resize(n, value);
        }
        if self.at.len() >= n {
            return;
        }
        grow(&mut self.at, n, neutral_quad());
        grow(&mut self.slew, n, neutral_quad());
        grow(&mut self.rat, n, neutral_rat());
        grow(&mut self.launch_tag, n, Split::uniform(TransPair::uniform(NONE)));
        grow(&mut self.clock_parent, n, NONE);
    }

    /// Copies node `i`'s values from `source` (a state with node `i`).
    pub(crate) fn copy_node_from(&mut self, source: &PropState, i: usize) {
        self.at[i] = source.at[i];
        self.slew[i] = source.slew[i];
        self.rat[i] = source.rat[i];
        self.launch_tag[i] = source.launch_tag[i];
        self.clock_parent[i] = source.clock_parent[i];
    }

    /// Drops the node slots from `n` on (slots [`PropState::grow_to`]
    /// appended), keeping their buffers.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.at.truncate(n);
        self.slew.truncate(n);
        self.rat.truncate(n);
        self.launch_tag.truncate(n);
        self.clock_parent.truncate(n);
    }

    /// Puts node `i` back to the values [`PropState::new`] gives it. The
    /// kernels skip dead nodes, so a node an edit hid keeps whatever it
    /// held last unless it is reset here.
    pub(crate) fn reset_node(&mut self, i: usize) {
        self.at[i] = neutral_quad();
        self.slew[i] = neutral_quad();
        self.rat[i] = neutral_rat();
        self.launch_tag[i] = Split::uniform(TransPair::uniform(NONE));
        self.clock_parent[i] = NONE;
    }
}

/// Map FF output node -> FF clock node for launch-tag anchoring.
pub(crate) fn q_to_ck_map<G: TimingGraph>(graph: &G) -> IdMap<usize, u32> {
    graph.checks().iter().map(|c| (c.q.index(), c.ck.0)).collect()
}

/// The forward → endpoint → backward sweep in topological order — the one
/// full propagation loop, shared by [`Analysis::run_with_aocv`],
/// [`crate::retime::ReferenceAnalysis::new`] and
/// [`crate::incremental::IncrementalState::new`]. `after_forward` runs
/// between the forward pass and the endpoint RATs (reference builds
/// report their heartbeat there; the others pass a no-op).
#[allow(clippy::too_many_arguments)]
pub(crate) fn serial_sweep<G: TimingGraph>(
    graph: &G,
    ctx: &Context,
    options: AnalysisOptions,
    evaluator: &Evaluator,
    q_to_ck: &IdMap<usize, u32>,
    po_loads: &[f64],
    state: &mut PropState,
    after_forward: impl FnOnce(),
) {
    for &nid in graph.topo_order() {
        forward_node(graph, ctx, po_loads, q_to_ck, evaluator, state, nid);
    }
    after_forward();
    endpoint_rats(graph, ctx, options, state, |_| {});
    for &nid in graph.topo_order().iter().rev() {
        backward_node(graph, po_loads, evaluator, state, nid);
    }
}

/// Recomputes the forward quantities (arrival, slew, launch tag, clock
/// parent) of one node from its fan-in. Returns `true` when any stored
/// value changed; dead nodes are left as they are.
pub(crate) fn forward_node<G: TimingGraph>(
    graph: &G,
    ctx: &Context,
    po_loads: &[f64],
    q_to_ck: &IdMap<usize, u32>,
    evaluator: &Evaluator,
    state: &mut PropState,
    nid: NodeId,
) -> bool {
    if graph.node_dead(nid) {
        return false;
    }
    let kind = graph.node_kind(nid);
    let i = nid.index();
    let mut at = state.at[i];
    let mut slew = state.slew[i];
    let mut tag = state.launch_tag[i];
    let mut parent = state.clock_parent[i];
    match kind {
        NodeKind::PrimaryInput(p) => {
            let c = &ctx.pi[p as usize];
            for mode in Mode::ALL {
                for edge in Edge::ALL {
                    at[mode][edge] = c.at[mode];
                    slew[mode][edge] = c.slew;
                }
            }
        }
        NodeKind::ClockSource => {
            for mode in Mode::ALL {
                for edge in Edge::ALL {
                    at[mode][edge] = ctx.clock.source_latency;
                    slew[mode][edge] = ctx.clock.slew;
                }
            }
        }
        _ => {
            // One walk over the fan-in folds every arc into all four
            // (mode, edge) accumulators; each accumulator still sees its
            // candidates in fan-in order, then input-edge order.
            let load = graph.load_of(nid, po_loads);
            at = neutral_quad();
            slew = neutral_quad();
            tag = Split::uniform(TransPair::uniform(NONE));
            parent = NONE;
            for aid in graph.fanin(nid) {
                let arc = graph.arc(aid);
                let from = arc.from.index();
                for mode in Mode::ALL {
                    let mut lookup = ArcLookup::new(arc, mode, load);
                    for out_edge in Edge::ALL {
                        for &in_edge in arc.sense.input_edges(out_edge) {
                            let at_u = state.at[from][mode][in_edge];
                            if !at_u.is_finite() {
                                continue;
                            }
                            let slew_u = state.slew[from][mode][in_edge];
                            let d = lookup.delay(evaluator, out_edge, in_edge, slew_u);
                            let s = lookup.slew(out_edge, in_edge, slew_u);
                            let cand = at_u + d;
                            let best_at = &mut at[mode][out_edge];
                            if mode.is_worse(cand, *best_at) || *best_at == mode.neutral() {
                                *best_at = mode.worse(*best_at, cand);
                                if *best_at == cand {
                                    tag[mode][out_edge] = state.launch_tag[from][mode][in_edge];
                                    if mode == Mode::Late && out_edge == Edge::Rise {
                                        parent = arc.from.0;
                                    }
                                }
                            }
                            let best_slew = &mut slew[mode][out_edge];
                            *best_slew = mode.worse(*best_slew, s);
                        }
                    }
                }
            }
            // A flip-flop output launches a fresh clock tag.
            if matches!(kind, NodeKind::FfOutput) {
                if let Some(&ck) = q_to_ck.get(&i) {
                    for mode in Mode::ALL {
                        for edge in Edge::ALL {
                            tag[mode][edge] = ck;
                        }
                    }
                }
            }
        }
    }
    let changed = quad_ne(&state.at[i], &at)
        || quad_ne(&state.slew[i], &slew)
        || state.launch_tag[i] != tag
        || state.clock_parent[i] != parent;
    state.at[i] = at;
    state.slew[i] = slew;
    state.launch_tag[i] = tag;
    state.clock_parent[i] = parent;
    changed
}

/// (Re)initialises the required times at every endpoint (POs from the
/// context, flip-flop data pins from the captured clock and — when enabled
/// — the CPPR credit), handing each endpoint node whose RAT changed in
/// any bit to `changed`.
pub(crate) fn endpoint_rats<G: TimingGraph>(
    graph: &G,
    ctx: &Context,
    options: AnalysisOptions,
    state: &mut PropState,
    mut changed: impl FnMut(NodeId),
) {
    for (p, &po) in graph.primary_outputs().iter().enumerate() {
        let c = &ctx.po[p];
        let i = po.index();
        let old = state.rat[i];
        for edge in Edge::ALL {
            state.rat[i][Mode::Late][edge] = c.rat.late;
            state.rat[i][Mode::Early][edge] = c.rat.early;
        }
        if quad_ne(&old, &state.rat[i]) {
            changed(po);
        }
    }
    for (ci, check) in graph.checks().iter().enumerate() {
        if graph.node_dead(check.d) || graph.node_dead(check.ck) {
            continue;
        }
        let ck_early = state.at[check.ck.index()][Mode::Early][Edge::Rise];
        let ck_late = state.at[check.ck.index()][Mode::Late][Edge::Rise];
        let i = check.d.index();
        let old = state.rat[i];
        if !ck_early.is_finite() || !ck_late.is_finite() {
            // An unclocked check constrains nothing: its data pin keeps
            // the neutral required time and the check no credit, as a
            // fresh state has them (lowering gives each data pin one
            // check), whatever an earlier clock arrival left here.
            state.credits[ci] = CheckCredit::default();
            state.rat[i] = neutral_rat();
            if quad_ne(&old, &state.rat[i]) {
                changed(check.d);
            }
            continue;
        }
        for edge in Edge::ALL {
            let (setup_credit, hold_credit) = if options.cppr {
                let launch_setup = state.launch_tag[i][Mode::Late][edge];
                let launch_hold = state.launch_tag[i][Mode::Early][edge];
                (
                    common_path_credit(&state.at, &state.clock_parent, launch_setup, check.ck.0),
                    common_path_credit(&state.at, &state.clock_parent, launch_hold, check.ck.0),
                )
            } else {
                (0.0, 0.0)
            };
            state.credits[ci].setup[edge] = setup_credit;
            state.credits[ci].hold[edge] = hold_credit;
            state.rat[i][Mode::Late][edge] =
                ck_early + ctx.clock.period - check.setup + setup_credit;
            state.rat[i][Mode::Early][edge] = ck_late + check.hold - hold_credit;
        }
        if quad_ne(&old, &state.rat[i]) {
            changed(check.d);
        }
    }
}

/// `true` when two quads differ in any bit (`-0.0` differs from `0.0`, a
/// `NaN` equals the same `NaN`): the change test of every sweep kernel.
fn quad_ne(a: &Quad, b: &Quad) -> bool {
    Mode::ALL
        .into_iter()
        .any(|m| Edge::ALL.into_iter().any(|e| a[m][e].to_bits() != b[m][e].to_bits()))
}

/// Recomputes the required time of one node by folding over its fan-out
/// (resetting first). Endpoints (POs, flip-flop data pins) keep their
/// [`endpoint_rats`] initialisation and report no change, as dead nodes
/// do. Returns `true` when the stored RAT changed.
pub(crate) fn backward_node<G: TimingGraph>(
    graph: &G,
    po_loads: &[f64],
    evaluator: &Evaluator,
    state: &mut PropState,
    nid: NodeId,
) -> bool {
    if graph.node_dead(nid)
        || matches!(graph.node_kind(nid), NodeKind::PrimaryOutput(_) | NodeKind::FfData(_))
    {
        return false;
    }
    let i = nid.index();
    let mut rat = neutral_rat();
    for aid in graph.fanout(nid) {
        let arc = graph.arc(aid);
        let load = graph.load_of(arc.to, po_loads);
        for mode in Mode::ALL {
            let mut lookup = ArcLookup::new(arc, mode, load);
            for out_edge in Edge::ALL {
                let rat_v = state.rat[arc.to.index()][mode][out_edge];
                if !rat_v.is_finite() {
                    continue;
                }
                for &in_edge in arc.sense.input_edges(out_edge) {
                    let slew_u = state.slew[i][mode][in_edge];
                    if !slew_u.is_finite() {
                        continue;
                    }
                    let d = lookup.delay(evaluator, out_edge, in_edge, slew_u);
                    let cand = rat_v - d;
                    let cur = rat[mode][in_edge];
                    rat[mode][in_edge] = mode.flip().worse(cur, cand);
                }
            }
        }
    }
    let changed = quad_ne(&state.rat[i], &rat);
    state.rat[i] = rat;
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{Context, ContextSampler};
    use crate::graph::ArcGraph;
    use crate::liberty::Library;
    use crate::netlist::NetlistBuilder;

    fn chain(n_inv: usize) -> (ArcGraph, Library) {
        let lib = Library::synthetic(1);
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a").unwrap();
        let z = b.output("z").unwrap();
        let mut prev = a;
        for i in 0..n_inv {
            let c = b.cell(&format!("u{i}"), "INVX1").unwrap();
            b.connect(&format!("n{i}"), prev, &[b.pin_of(c, "A").unwrap()]).unwrap();
            prev = b.pin_of(c, "Z").unwrap();
        }
        b.connect("n_out", prev, &[z]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        (g, lib)
    }

    fn clocked_pair() -> (ArcGraph, Library) {
        // clk -> cb1 -> {ff1.CK, cb2 -> ff2.CK}; d -> ff1.D;
        // ff1.Q -> inv -> ff2.D; ff2.Q -> q
        let lib = Library::synthetic(3);
        let mut b = NetlistBuilder::new("pair", &lib);
        let clk = b.clock_input("clk").unwrap();
        let d = b.input("d").unwrap();
        let q = b.output("q").unwrap();
        let cb1 = b.cell("cb1", "CLKBUFX2").unwrap();
        let cb2 = b.cell("cb2", "CLKBUFX2").unwrap();
        let ff1 = b.cell("ff1", "DFFX1").unwrap();
        let ff2 = b.cell("ff2", "DFFX1").unwrap();
        let inv = b.cell("inv", "INVX1").unwrap();
        b.connect("n_clk", clk, &[b.pin_of(cb1, "A").unwrap()]).unwrap();
        b.connect(
            "n_cb1",
            b.pin_of(cb1, "Z").unwrap(),
            &[b.pin_of(ff1, "CK").unwrap(), b.pin_of(cb2, "A").unwrap()],
        )
        .unwrap();
        b.connect("n_cb2", b.pin_of(cb2, "Z").unwrap(), &[b.pin_of(ff2, "CK").unwrap()])
            .unwrap();
        b.connect("n_d", d, &[b.pin_of(ff1, "D").unwrap()]).unwrap();
        b.connect("n_q1", b.pin_of(ff1, "Q").unwrap(), &[b.pin_of(inv, "A").unwrap()])
            .unwrap();
        b.connect("n_i", b.pin_of(inv, "Z").unwrap(), &[b.pin_of(ff2, "D").unwrap()])
            .unwrap();
        b.connect("n_q2", b.pin_of(ff2, "Q").unwrap(), &[q]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        (g, lib)
    }

    #[test]
    fn arrival_grows_along_chain() {
        let (g, _) = chain(4);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let pi = g.primary_inputs()[0];
        let po = g.primary_outputs()[0];
        let at_pi = an.at(pi)[Mode::Late][Edge::Rise];
        let at_po = an.at(po)[Mode::Late][Edge::Rise];
        assert_eq!(at_pi, 0.0);
        assert!(at_po > 40.0, "4 inverters should accumulate delay, got {at_po}");
        assert!(
            an.at(po)[Mode::Early][Edge::Rise] < at_po,
            "early arrival must be faster"
        );
    }

    #[test]
    fn inverter_chain_flips_edges() {
        // Through one inverter, a rise at the output comes from a fall at
        // the input; with symmetric PI constraints both output edges are
        // finite and positive.
        let (g, _) = chain(1);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let po = g.primary_outputs()[0];
        for edge in Edge::ALL {
            assert!(an.at(po)[Mode::Late][edge].is_finite());
        }
    }

    #[test]
    fn rat_propagates_backward_and_slack_adds_up() {
        let (g, _) = chain(3);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let pi = g.primary_inputs()[0];
        let po = g.primary_outputs()[0];
        let rat_pi = an.rat(pi)[Mode::Late][Edge::Rise];
        assert!(rat_pi.is_finite());
        // On a single path the *worst* late slack must agree between the two
        // ends (edges swap through each inverter, so compare the min over
        // edges rather than edge-by-edge).
        let worst = |q: crate::split::Quad| q.late.rise.min(q.late.fall);
        let slack_pi = worst(an.slack(pi));
        let slack_po = worst(an.slack(po));
        assert!(
            (slack_pi - slack_po).abs() < 1e-9,
            "single path: {slack_pi} vs {slack_po}"
        );
    }

    #[test]
    fn boundary_snapshot_has_all_ports() {
        let (g, _) = chain(2);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        assert_eq!(an.boundary().po.len(), 1);
        assert_eq!(an.boundary().pi.len(), 1);
        assert!(an.boundary().max_abs_at() > 0.0);
    }

    #[test]
    fn heavier_po_load_slows_arrival() {
        let (g, _) = chain(2);
        let mut ctx = Context::nominal(&g);
        let an_light = Analysis::run(&g, &ctx).unwrap();
        ctx.po[0].load = 40.0;
        let an_heavy = Analysis::run(&g, &ctx).unwrap();
        let po = g.primary_outputs()[0];
        assert!(
            an_heavy.at(po)[Mode::Late][Edge::Rise] > an_light.at(po)[Mode::Late][Edge::Rise]
        );
    }

    #[test]
    fn clocked_design_checks_have_finite_slack() {
        let (g, _) = clocked_pair();
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        assert_eq!(an.boundary().checks.len(), 2);
        // ff2's check is the FF-to-FF path: must be finite.
        let ff2 = an.boundary().checks.iter().find(|c| c.name == "ff2").unwrap();
        for edge in Edge::ALL {
            assert!(ff2.setup_slack[edge].is_finite(), "setup slack finite");
            assert!(ff2.hold_slack[edge].is_finite(), "hold slack finite");
        }
    }

    #[test]
    fn cppr_improves_setup_slack_on_shared_clock_path() {
        let (g, _) = clocked_pair();
        let ctx = Context::nominal(&g);
        let plain = Analysis::run(&g, &ctx).unwrap();
        let cppr =
            Analysis::run_with_options(&g, &ctx, AnalysisOptions { cppr: true, ..Default::default() }).unwrap();
        let f = |an: &Analysis| {
            an.boundary()
                .checks
                .iter()
                .find(|c| c.name == "ff2")
                .map(|c| c.setup_slack[Edge::Rise])
                .unwrap()
        };
        let s0 = f(&plain);
        let s1 = f(&cppr);
        assert!(
            s1 > s0,
            "CPPR must relax the ff1->ff2 setup check: {s0} -> {s1}"
        );
        let credit = cppr.credits()[1].setup[Edge::Rise].max(cppr.credits()[0].setup[Edge::Rise]);
        assert!(credit > 0.0, "some credit should be found");
    }

    #[test]
    fn launch_tag_identifies_launching_ff() {
        let (g, _) = clocked_pair();
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let ff2_d = g.checks().iter().find(|c| c.name == "ff2").unwrap().d;
        let ff1_ck = g.checks().iter().find(|c| c.name == "ff1").unwrap().ck;
        assert_eq!(an.launch_tag(ff2_d, Mode::Late, Edge::Rise), Some(ff1_ck));
    }

    #[test]
    fn aocv_widens_shallow_and_narrows_relative_deep_margins() {
        // With AOCV on, late arrivals grow and early arrivals shrink, but
        // the per-stage inflation must *decay* with depth: the late/early
        // gap of a long chain grows by a smaller factor than flat ±7 %
        // derating would give.
        let (g, _) = chain(12);
        let ctx = Context::nominal(&g);
        let plain = Analysis::run(&g, &ctx).unwrap();
        let aocv =
            Analysis::run_with_options(&g, &ctx, AnalysisOptions { aocv: true, cppr: false })
                .unwrap();
        let po = g.primary_outputs()[0];
        let late_plain = plain.at(po)[Mode::Late][Edge::Rise];
        let late_aocv = aocv.at(po)[Mode::Late][Edge::Rise];
        let early_plain = plain.at(po)[Mode::Early][Edge::Rise];
        let early_aocv = aocv.at(po)[Mode::Early][Edge::Rise];
        assert!(late_aocv > late_plain, "late must slow down under AOCV");
        assert!(early_aocv < early_plain, "early must speed up under AOCV");
        // The deep end of the chain sees at most +2% late derate, so the
        // total inflation stays well under the flat 7 % bound.
        assert!(
            late_aocv < late_plain * 1.07,
            "deep-path inflation must be below the shallow derate: {} vs {}",
            late_aocv,
            late_plain * 1.07
        );
    }

    #[test]
    fn custom_aocv_spec_overrides_flag() {
        use crate::aocv::{AocvSpec, AocvStage};
        let (g, _) = chain(3);
        let ctx = Context::nominal(&g);
        let heavy = AocvSpec::new(vec![AocvStage { min_depth: 0, early: 0.5, late: 2.0 }]);
        let an = Analysis::run_with_aocv(
            &g,
            &ctx,
            AnalysisOptions::default(),
            Some(&heavy),
        )
        .unwrap();
        let plain = Analysis::run(&g, &ctx).unwrap();
        let po = g.primary_outputs()[0];
        assert!(
            an.at(po)[Mode::Late][Edge::Rise] > 1.5 * plain.at(po)[Mode::Late][Edge::Rise],
            "a 2x derate must roughly double late cell delay"
        );
    }

    #[test]
    fn random_contexts_never_produce_nan_at_reachable_pos(
    ) {
        let (g, _) = chain(3);
        let mut sampler = ContextSampler::new(77);
        for ctx in sampler.sample_many(&g, 10) {
            let an = Analysis::run(&g, &ctx).unwrap();
            let po = g.primary_outputs()[0];
            for mode in Mode::ALL {
                for edge in Edge::ALL {
                    assert!(an.at(po)[mode][edge].is_finite());
                    assert!(an.slew(po)[mode][edge].is_finite());
                    assert!(an.rat(po)[mode][edge].is_finite());
                }
            }
        }
    }
}
