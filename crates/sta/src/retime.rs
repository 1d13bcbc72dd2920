//! Cone-limited re-timing of edited [`GraphView`]s.
//!
//! Timing-sensitivity evaluation probes thousands of single-pin edits of the
//! same design: bypass one candidate pin, re-time, compare boundaries, undo.
//! Cloning the graph and re-running a full analysis per probe is O(graph)
//! work for an O(cone) question. [`ReferenceAnalysis`] answers it in cone
//! time: it runs one full analysis of the *unedited* frozen
//! [`DesignCore`] and keeps the raw propagation state;
//! [`ReferenceAnalysis::retime`] then runs the incremental cone sweep
//! ([`crate::incremental`]) on a scratch copy of that state, seeded from
//! the view's edits — forward from the to-nodes and backward from the
//! from-nodes of every hidden or added arc. Nodes outside the edits' cones
//! are never touched and reuse the reference state at the frontier.
//!
//! A scratch belongs to the reference that made it and keeps an undo log:
//! each re-time records the nodes whose stored values its sweep changed,
//! and the next re-time copies only those back from the reference (plus
//! the check credits) and drops any slots an inserted-node view appended.
//! A probe therefore pays for its cone, not for a copy of the design's
//! state.
//!
//! The result is bit-identical to running [`Analysis::run_with_options`]
//! on the edited view from scratch — the equivalence is enforced by the
//! tests below and by the cross-crate determinism suite. Structural
//! insertions ([`GraphView::insert_node_on_arc`]) switch the view to an
//! overlay topological order that covers the appended nodes; the sweep
//! follows the *view's* order, and the scratch state grows to the view's
//! node count with the same neutral initial values a from-scratch analysis
//! would use.
//!
//! AOCV is the one option that breaks cone locality: bypassing a node
//! changes structural depths — and therefore derates — arbitrarily far from
//! the edit. With AOCV enabled, [`ReferenceAnalysis::retime`] transparently
//! falls back to a full (but still clone-free) analysis of the view, and
//! leaves the scratch's state as it was.

use crate::compare::BoundarySnapshot;
use crate::constraints::Context;
use crate::graph::NodeId;
use crate::incremental::{IncrementalStats, SweepInputs, Worklists};
use crate::propagate::{serial_sweep, Analysis, AnalysisOptions, PropState};
use crate::view::{DesignCore, GraphView, TimingGraph};
use crate::{Result, StaError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of [`ReferenceAnalysis`] ids: a scratch is bound to the id of
/// the reference that made it.
static NEXT_REFERENCE_ID: AtomicU64 = AtomicU64::new(0);

/// Reusable working memory for [`ReferenceAnalysis::retime`].
///
/// Holds a mutable copy of its reference's propagation state, the undo
/// log of the last re-time, the worklists and the boundary snapshot each
/// probe is written into, so repeated probes allocate nothing. Obtain one
/// from [`ReferenceAnalysis::scratch`]; it serves only that reference.
#[derive(Debug, Clone)]
pub struct RetimeScratch {
    state: PropState,
    lists: Worklists,
    undo: UndoLog,
    /// The last probe's boundary, refreshed in place by every re-time.
    boundary: BoundarySnapshot,
    /// Id of the reference that made this scratch.
    owner: u64,
    stats: IncrementalStats,
}

impl RetimeScratch {
    /// Work counters accumulated across all re-times through this scratch
    /// (`updates` counts cone-mode probes, `full_fallbacks` AOCV probes).
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Bytes a scratch holds for a reference over `nodes` node slots,
    /// beyond its copy of the reference state: the undo log (one id and
    /// one bit per node) and the two worklists.
    #[must_use]
    pub fn bytes_beyond_state(nodes: usize) -> usize {
        nodes * 4 + nodes.div_ceil(64) * 8 + Worklists::bytes_for(nodes)
    }

    /// Puts the state back to `reference`: the logged nodes, the check
    /// credits, and the node count.
    fn restore(&mut self, reference: &PropState) {
        for &i in &self.undo.nodes {
            self.state.copy_node_from(reference, i as usize);
            self.undo.logged[i as usize / 64] &= !(1 << (i % 64));
        }
        self.undo.nodes.clear();
        self.state.credits.copy_from_slice(&reference.credits);
        self.state.truncate(reference.at.len());
    }
}

/// The reference nodes a re-time changed, each once. Slots past the
/// reference's node count are not logged: the restore drops them.
#[derive(Debug, Clone)]
struct UndoLog {
    /// Logged node ids; holds capacity for every reference node, so
    /// logging never allocates.
    nodes: Vec<u32>,
    /// One bit per reference node: set while the node is in `nodes`.
    logged: Vec<u64>,
    base: usize,
}

impl UndoLog {
    fn new(base: usize) -> Self {
        UndoLog { nodes: Vec::with_capacity(base), logged: vec![0; base.div_ceil(64)], base }
    }

    fn record(&mut self, n: NodeId) {
        let i = n.index();
        if i >= self.base {
            return;
        }
        let (word, bit) = (&mut self.logged[i / 64], 1u64 << (i % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.nodes.push(n.0);
        }
    }
}

/// A full analysis of an unedited [`DesignCore`], frozen so that edited
/// [`GraphView`]s over the same core can be re-timed in cone time.
///
/// The reference is immutable after construction and can be shared by
/// reference across worker threads; all mutable probe state lives in
/// [`RetimeScratch`].
#[derive(Debug)]
pub struct ReferenceAnalysis {
    /// Unique per reference; binds the scratches it makes.
    id: u64,
    core: Arc<DesignCore>,
    inputs: SweepInputs,
    state: PropState,
    boundary: BoundarySnapshot,
}

impl ReferenceAnalysis {
    /// Runs the full reference analysis of `core` under `ctx` and retains
    /// its raw state.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (infallible for valid graphs).
    pub fn new(core: Arc<DesignCore>, ctx: Context, options: AnalysisOptions) -> Result<Self> {
        let inputs = SweepInputs::new(&*core, ctx, options);
        let mut state = PropState::new(&*core);
        // Live heartbeat: one slot covering the forward + backward passes
        // (2 units per node), read by the status endpoint and the stage
        // deadline watchdog. Inert (a None branch) unless one is up.
        let pins = core.topo_order().len() as u64;
        let heartbeat = tmm_obs::progress_start("propagation", "", pins * 2);
        serial_sweep(
            &*core, &inputs.ctx, options, &inputs.evaluator, &inputs.q_to_ck, &inputs.po_loads,
            &mut state, || heartbeat.set_done(pins),
        );
        heartbeat.complete();
        let boundary =
            Analysis::snapshot(&*core, &state.at, &state.slew, &state.rat, &state.credits);
        let id = NEXT_REFERENCE_ID.fetch_add(1, Ordering::Relaxed);
        Ok(ReferenceAnalysis { id, core, inputs, state, boundary })
    }

    /// The frozen core this reference was computed on.
    #[must_use]
    pub fn core(&self) -> &Arc<DesignCore> {
        &self.core
    }

    /// The boundary context the reference ran under.
    #[must_use]
    pub fn ctx(&self) -> &Context {
        &self.inputs.ctx
    }

    /// The analysis options the reference ran with.
    #[must_use]
    pub fn options(&self) -> AnalysisOptions {
        self.inputs.options
    }

    /// The boundary snapshot of the unedited core — what every probe's
    /// edited boundary is compared against.
    #[must_use]
    pub fn boundary(&self) -> &BoundarySnapshot {
        &self.boundary
    }

    /// Materialises the reference state as a regular [`Analysis`].
    #[must_use]
    pub fn analysis(&self) -> Analysis {
        Analysis::from_state(&*self.core, self.state.clone(), self.inputs.options)
    }

    /// Allocates a scratch bound to this reference.
    #[must_use]
    pub fn scratch(&self) -> RetimeScratch {
        RetimeScratch {
            state: self.state.clone(),
            lists: Worklists::default(),
            undo: UndoLog::new(self.state.at.len()),
            boundary: self.boundary.clone(),
            owner: self.id,
            stats: IncrementalStats::default(),
        }
    }

    /// Re-times `view` against this reference and returns its boundary
    /// snapshot, recomputing only the affected cone. The result is
    /// bit-identical to a fresh [`Analysis::run_with_options`] of the view.
    ///
    /// The snapshot is borrowed: a pristine view gets the reference's own
    /// boundary, an edited one the scratch's, rewritten in place (names
    /// are copied only where they differ). After the first probe through
    /// a scratch, a cone re-time allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] when `view` was built over a
    /// different core than this reference, or when `scratch` was made by a
    /// different reference.
    pub fn retime<'a>(
        &'a self,
        view: &GraphView,
        scratch: &'a mut RetimeScratch,
    ) -> Result<&'a BoundarySnapshot> {
        if !Arc::ptr_eq(view.core(), &self.core) {
            return Err(StaError::IllegalEdit(
                "view was built over a different design core than this reference".into(),
            ));
        }
        if scratch.owner != self.id {
            return Err(StaError::IllegalEdit(
                "retime scratch was made by a different reference".into(),
            ));
        }
        if view.is_pristine() {
            scratch.stats.updates += 1;
            tmm_obs::counter_add("tmm_sta_retimes_total", &[], 1);
            return Ok(&self.boundary);
        }
        if self.inputs.evaluator.has_aocv() {
            // Bypassing shifts structural depths — and so AOCV derates — on
            // paths far outside the edit cone; re-time the whole view. Each
            // probe lands in exactly one bucket: a fallback is *not* also
            // counted as a cone re-time, so `updates + full_fallbacks` is
            // the total number of probes served.
            scratch.stats.full_fallbacks += 1;
            tmm_obs::counter_add("tmm_sta_retime_full_fallbacks_total", &[], 1);
            let an = Analysis::run_with_options(view, &self.inputs.ctx, self.inputs.options)?;
            scratch.boundary = an.into_boundary();
            return Ok(&scratch.boundary);
        }
        scratch.stats.updates += 1;
        tmm_obs::counter_add("tmm_sta_retimes_total", &[], 1);

        // Undo the last probe's changes; the sweep then grows the state to
        // the view's node count (structural edits may append nodes after
        // the core's slots), re-times the edits' cones and logs what it
        // changes for the next probe to undo.
        scratch.restore(&self.state);
        let RetimeScratch { state, lists, undo, stats, .. } = scratch;
        self.inputs.sync_view_edits(view, state, lists, stats, [], [], |n| undo.record(n));

        let state = &scratch.state;
        Analysis::snapshot_into(
            view,
            &state.at,
            &state.slew,
            &state.rat,
            &state.credits,
            &mut scratch.boundary,
        );
        Ok(&scratch.boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ArcGraph, NodeId};
    use crate::liberty::Library;
    use crate::netlist::NetlistBuilder;

    fn chain_graph(n_inv: usize) -> ArcGraph {
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
        ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap()
    }

    /// clk -> cb -> {ff1.CK, ff2.CK}; a,c -> g1 -> ff1.D;
    /// ff1.Q -> g2 -> {z0, ff2.D}; ff2.Q -> g3 -> z1.
    fn clocked_graph() -> ArcGraph {
        let lib = Library::synthetic(7);
        let mut b = NetlistBuilder::new("clocked", &lib);
        let clk = b.clock_input("clk").unwrap();
        let a = b.input("a").unwrap();
        let c = b.input("c").unwrap();
        let z0 = b.output("z0").unwrap();
        let z1 = b.output("z1").unwrap();
        let cb = b.cell("cb", "CLKBUFX2").unwrap();
        let ff1 = b.cell("ff1", "DFFX1").unwrap();
        let ff2 = b.cell("ff2", "DFFX1").unwrap();
        let g1 = b.cell("g1", "NAND2X1").unwrap();
        let g2 = b.cell("g2", "INVX1").unwrap();
        let g3 = b.cell("g3", "BUFX2").unwrap();
        b.connect("n_clk", clk, &[b.pin_of(cb, "A").unwrap()]).unwrap();
        b.connect(
            "n_ck",
            b.pin_of(cb, "Z").unwrap(),
            &[b.pin_of(ff1, "CK").unwrap(), b.pin_of(ff2, "CK").unwrap()],
        )
        .unwrap();
        b.connect("n_a", a, &[b.pin_of(g1, "A").unwrap()]).unwrap();
        b.connect("n_c", c, &[b.pin_of(g1, "B").unwrap()]).unwrap();
        b.connect("n_g1", b.pin_of(g1, "Z").unwrap(), &[b.pin_of(ff1, "D").unwrap()])
            .unwrap();
        b.connect("n_q1", b.pin_of(ff1, "Q").unwrap(), &[b.pin_of(g2, "A").unwrap()])
            .unwrap();
        b.connect("n_g2", b.pin_of(g2, "Z").unwrap(), &[z0, b.pin_of(ff2, "D").unwrap()])
            .unwrap();
        b.connect("n_q2", b.pin_of(ff2, "Q").unwrap(), &[b.pin_of(g3, "A").unwrap()])
            .unwrap();
        b.connect("n_g3", b.pin_of(g3, "Z").unwrap(), &[z1]).unwrap();
        ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap()
    }

    fn find(g: &ArcGraph, name: &str) -> NodeId {
        NodeId(g.nodes().iter().position(|n| n.name == name).unwrap() as u32)
    }

    fn assert_bit_identical(a: &BoundarySnapshot, b: &BoundarySnapshot) {
        let d = a.diff(b);
        assert_eq!(d.max, 0.0, "boundaries diverged (max diff {})", d.max);
        assert!(d.count > 0);
    }

    #[test]
    fn pristine_view_returns_the_reference_boundary() {
        let g = chain_graph(3);
        let core = DesignCore::freeze(&g);
        let reference =
            ReferenceAnalysis::new(core.clone(), Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        let mut scratch = reference.scratch();
        let view = GraphView::new(core);
        let b = reference.retime(&view, &mut scratch).unwrap();
        assert_bit_identical(reference.boundary(), b);
        assert_eq!(scratch.stats().forward_recomputed, 0, "no cone work on a pristine view");
    }

    #[test]
    fn retime_matches_full_view_analysis_and_clone_editing() {
        let g = chain_graph(4);
        let core = DesignCore::freeze(&g);
        let ctx = Context::nominal(&g);
        let reference =
            ReferenceAnalysis::new(core.clone(), ctx.clone(), AnalysisOptions::default()).unwrap();
        let mut scratch = reference.scratch();

        for victim in ["u1/Z", "u2/A"] {
            let mut view = GraphView::new(core.clone());
            view.bypass_node(find(&g, victim)).unwrap();
            let cone = reference.retime(&view, &mut scratch).unwrap();

            let full = Analysis::run(&view, &ctx).unwrap();
            assert_bit_identical(full.boundary(), cone);

            let mut clone = g.clone();
            clone.bypass_node(find(&g, victim)).unwrap();
            let edited = Analysis::run(&clone, &ctx).unwrap();
            assert_bit_identical(edited.boundary(), cone);
        }
    }

    #[test]
    fn clock_network_edit_retimes_check_rats_with_cppr() {
        let g = clocked_graph();
        let core = DesignCore::freeze(&g);
        let ctx = Context::nominal(&g);
        let options = AnalysisOptions { cppr: true, ..Default::default() };
        let reference = ReferenceAnalysis::new(core.clone(), ctx.clone(), options).unwrap();
        let mut scratch = reference.scratch();

        // cb/A sits between the clock port and the buffered clock net, so
        // bypassing it shifts every FF clock arrival and check RAT.
        for victim in ["cb/A", "g2/A", "g3/Z"] {
            let mut view = GraphView::new(core.clone());
            view.bypass_node(find(&g, victim)).unwrap();
            let cone = reference.retime(&view, &mut scratch).unwrap();
            let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
            assert_bit_identical(full.boundary(), cone);
        }
    }

    #[test]
    fn aocv_falls_back_to_full_view_analysis() {
        let g = chain_graph(5);
        let core = DesignCore::freeze(&g);
        let ctx = Context::nominal(&g);
        let options = AnalysisOptions { aocv: true, cppr: false };
        let reference = ReferenceAnalysis::new(core.clone(), ctx.clone(), options).unwrap();
        let mut scratch = reference.scratch();

        let mut view = GraphView::new(core);
        view.bypass_node(find(&g, "u2/Z")).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap().clone();
        assert_eq!(scratch.stats().full_fallbacks, 1);
        assert_eq!(
            scratch.stats().updates,
            0,
            "a fallback must not double-count as a cone re-time"
        );
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), &cone);

        // A pristine probe under AOCV is served from the reference boundary
        // without falling back: cone bucket, zero extra fallbacks.
        let pristine = GraphView::new(reference.core().clone());
        reference.retime(&pristine, &mut scratch).unwrap();
        assert_eq!(scratch.stats().updates, 1);
        assert_eq!(scratch.stats().full_fallbacks, 1);
    }

    fn first_table_arc(g: &ArcGraph) -> crate::graph::ArcId {
        crate::graph::ArcId(g
            .arcs()
            .iter()
            .position(|a| {
                !a.dead && !a.is_clock && matches!(a.timing, crate::graph::ArcTiming::Table(_))
            })
            .unwrap() as u32)
    }

    #[test]
    fn structural_edits_retime_bit_identically_to_full_analysis() {
        let g = clocked_graph();
        let core = DesignCore::freeze(&g);
        let ctx = Context::nominal(&g);
        let options = AnalysisOptions { cppr: true, ..Default::default() };
        let reference = ReferenceAnalysis::new(core.clone(), ctx.clone(), options).unwrap();
        let mut scratch = reference.scratch();

        // Cell resize.
        let mut view = GraphView::new(core.clone());
        view.resize_arc(first_table_arc(&g), 0.6).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), cone);

        // Buffer insert: appends a node past the core's slots, forcing the
        // scratch to grow and the sweeps onto the overlay topo order.
        let mut view = GraphView::new(core.clone());
        view.insert_node_on_arc(first_table_arc(&g), "eco_buf", 4.0).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), cone);

        // Cell delete (bypass) stacked on top of an insert in one view.
        let mut view = GraphView::new(core.clone());
        view.insert_node_on_arc(first_table_arc(&g), "eco_buf2", 2.0).unwrap();
        view.bypass_node(find(&g, "g2/A")).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), cone);

        // A later core-sized probe through the same (grown) scratch stays
        // exact.
        let mut view = GraphView::new(core.clone());
        view.bypass_node(find(&g, "g3/Z")).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), cone);
    }

    // Satellite: structural edits under AOCV must take the fallback
    // bucket exactly once per probe — never also counted as a cone
    // re-time, and never double-counted by the growth path.
    #[test]
    fn structural_aocv_fallback_counts_exactly_once_per_probe() {
        let g = chain_graph(5);
        let core = DesignCore::freeze(&g);
        let ctx = Context::nominal(&g);
        let options = AnalysisOptions { aocv: true, cppr: false };
        let reference = ReferenceAnalysis::new(core.clone(), ctx.clone(), options).unwrap();
        let mut scratch = reference.scratch();

        let mut view = GraphView::new(core.clone());
        view.insert_node_on_arc(first_table_arc(&g), "eco_buf", 3.0).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap().clone();
        assert_eq!(scratch.stats().full_fallbacks, 1);
        assert_eq!(scratch.stats().updates, 0);
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), &cone);

        let mut view = GraphView::new(core.clone());
        view.resize_arc(first_table_arc(&g), 1.4).unwrap();
        reference.retime(&view, &mut scratch).unwrap();
        assert_eq!(scratch.stats().full_fallbacks, 2);
        assert_eq!(scratch.stats().updates, 0);

        // retimes + full_fallbacks must equal the probes served.
        let pristine = GraphView::new(core);
        reference.retime(&pristine, &mut scratch).unwrap();
        let s = scratch.stats();
        assert_eq!(s.updates + s.full_fallbacks, 3);
    }

    #[test]
    fn retime_work_stays_inside_the_cone() {
        let g = chain_graph(12);
        let core = DesignCore::freeze(&g);
        let reference =
            ReferenceAnalysis::new(core.clone(), Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        let mut scratch = reference.scratch();
        // Bypass near the output: the forward cone is a couple of nodes.
        let mut view = GraphView::new(core);
        view.bypass_node(find(&g, "u10/Z")).unwrap();
        reference.retime(&view, &mut scratch).unwrap();
        let s = scratch.stats();
        assert!(
            s.forward_recomputed < g.live_nodes() / 2,
            "forward work {} should stay well below the {} live nodes",
            s.forward_recomputed,
            g.live_nodes()
        );
    }

    #[test]
    fn scratch_reuse_across_probes_stays_exact() {
        let g = chain_graph(6);
        let core = DesignCore::freeze(&g);
        let ctx = Context::nominal(&g);
        let reference =
            ReferenceAnalysis::new(core.clone(), ctx.clone(), AnalysisOptions::default()).unwrap();
        let mut scratch = reference.scratch();
        for i in 0..6 {
            let mut view = GraphView::new(core.clone());
            view.bypass_node(find(&g, &format!("u{i}/Z"))).unwrap();
            let cone = reference.retime(&view, &mut scratch).unwrap();
            let full = Analysis::run(&view, &ctx).unwrap();
            assert_bit_identical(full.boundary(), cone);
        }
        assert_eq!(scratch.stats().updates, 6);
    }

    #[test]
    fn foreign_views_and_scratches_are_rejected() {
        let g = chain_graph(2);
        let core_a = DesignCore::freeze(&g);
        let core_b = DesignCore::freeze(&g);
        let reference =
            ReferenceAnalysis::new(core_a.clone(), Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        let mut scratch = reference.scratch();
        let foreign = GraphView::new(core_b);
        assert!(reference.retime(&foreign, &mut scratch).is_err());

        // A second reference over the same core and context has the same
        // node count, yet its scratch undoes another reference's probes:
        // refused before any state is touched.
        let twin =
            ReferenceAnalysis::new(core_a.clone(), Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        let mut view = GraphView::new(core_a);
        view.bypass_node(find(&g, "u0/Z")).unwrap();
        let mut twin_scratch = twin.scratch();
        assert!(matches!(
            reference.retime(&view, &mut twin_scratch),
            Err(StaError::IllegalEdit(_))
        ));
        assert_eq!(twin_scratch.stats(), IncrementalStats::default());
        assert!(twin.retime(&view, &mut twin_scratch).is_ok());
    }

    /// Four clocked flip-flops between a reconvergent input layer and an
    /// output cloud: enough bypassable pins, data arcs and shared cones to
    /// interleave many different probes.
    fn mesh_graph() -> ArcGraph {
        let lib = Library::synthetic(11);
        let mut b = NetlistBuilder::new("mesh", &lib);
        let clk = b.clock_input("clk").unwrap();
        let ins: Vec<_> = (0..4).map(|k| b.input(&format!("i{k}")).unwrap()).collect();
        let outs: Vec<_> = (0..3).map(|k| b.output(&format!("z{k}")).unwrap()).collect();
        let cb = b.cell("cb", "CLKBUFX2").unwrap();
        let ffs: Vec<_> = (0..4).map(|k| b.cell(&format!("ff{k}"), "DFFX1").unwrap()).collect();
        let g0: Vec<_> = (0..4).map(|k| b.cell(&format!("g{k}"), "NAND2X1").unwrap()).collect();
        let h: Vec<_> = (0..4).map(|k| b.cell(&format!("h{k}"), "NAND2X1").unwrap()).collect();
        let bf: Vec<_> = (0..4).map(|k| b.cell(&format!("b{k}"), "BUFX2").unwrap()).collect();
        let inv = b.cell("inv", "INVX1").unwrap();
        let nd = b.cell("nd", "NAND2X1").unwrap();
        let pin = |b: &NetlistBuilder, c, p| b.pin_of(c, p).unwrap();
        b.connect("n_clk", clk, &[pin(&b, cb, "A")]).unwrap();
        let cks: Vec<_> = ffs.iter().map(|&f| pin(&b, f, "CK")).collect();
        b.connect("n_ck", pin(&b, cb, "Z"), &cks).unwrap();
        for k in 0..4 {
            // Input k feeds gate k and gate k-1: reconvergent fan-out.
            let sinks = [pin(&b, g0[k], "A"), pin(&b, g0[(k + 3) % 4], "B")];
            b.connect(&format!("n_i{k}"), ins[k], &sinks).unwrap();
            b.connect(&format!("n_g{k}"), pin(&b, g0[k], "Z"), &[pin(&b, ffs[k], "D")]).unwrap();
            let sinks = [pin(&b, h[k], "A"), pin(&b, h[(k + 3) % 4], "B")];
            b.connect(&format!("n_q{k}"), pin(&b, ffs[k], "Q"), &sinks).unwrap();
            b.connect(&format!("n_h{k}"), pin(&b, h[k], "Z"), &[pin(&b, bf[k], "A")]).unwrap();
        }
        b.connect("n_b0", pin(&b, bf[0], "Z"), &[outs[0], pin(&b, inv, "A")]).unwrap();
        b.connect("n_b1", pin(&b, bf[1], "Z"), &[outs[1]]).unwrap();
        b.connect("n_b2", pin(&b, bf[2], "Z"), &[pin(&b, nd, "A")]).unwrap();
        b.connect("n_b3", pin(&b, bf[3], "Z"), &[pin(&b, nd, "B")]).unwrap();
        b.connect("n_nd", pin(&b, nd, "Z"), &[outs[2]]).unwrap();
        b.connect("n_inv", pin(&b, inv, "Z"), &[]).unwrap();
        ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap()
    }

    /// Every bit of a boundary snapshot (names included), so two snapshots
    /// compare exactly: `-0.0` differs from `0.0`.
    fn snapshot_bits(b: &BoundarySnapshot) -> Vec<String> {
        let quad = |q: &crate::split::Quad| {
            crate::split::mode_edge_iter().map(|(m, e)| q[m][e].to_bits()).collect::<Vec<_>>()
        };
        let pair = |p: &crate::split::TransPair<f64>| [p.rise.to_bits(), p.fall.to_bits()];
        let po = b.po.iter().map(|p| {
            format!("{} {:?}", p.name, [p.at, p.slew, p.rat, p.slack].map(|q| quad(&q)))
        });
        let pi = b.pi.iter().map(|p| format!("{} {:?}", p.name, quad(&p.rat)));
        let checks = b.checks.iter().map(|c| {
            let parts = [c.setup_slack, c.hold_slack, c.setup_credit, c.hold_credit];
            format!("{} {:?}", c.name, parts.map(|p| pair(&p)))
        });
        po.chain(pi).chain(checks).collect()
    }

    /// Probes of every kind over one core: single bypasses (each hides a
    /// node, so each sweep has a dead seed), data-arc resizes, buffer
    /// inserts (which grow the state past the core's slots), and an insert
    /// stacked with a bypass.
    fn probe_views(g: &ArcGraph, core: &Arc<DesignCore>) -> Vec<(String, GraphView)> {
        let mut views = Vec::new();
        for i in 0..g.node_count() {
            let mut view = GraphView::new(core.clone());
            if view.bypass_node(NodeId(i as u32)).is_ok() {
                views.push((format!("bypass {}", g.node(NodeId(i as u32)).name), view));
            }
        }
        let data_arcs: Vec<crate::graph::ArcId> = (0..g.arcs().len() as u32)
            .map(crate::graph::ArcId)
            .filter(|&a| {
                let arc = g.arc(a);
                let table = matches!(arc.timing, crate::graph::ArcTiming::Table(_));
                !arc.dead && !arc.is_clock && table
            })
            .collect();
        for (k, &a) in data_arcs.iter().enumerate() {
            let mut view = GraphView::new(core.clone());
            view.resize_arc(a, if k % 2 == 0 { 0.6 } else { 1.4 }).unwrap();
            views.push((format!("resize arc {}", a.index()), view));
            let mut view = GraphView::new(core.clone());
            view.insert_node_on_arc(a, &format!("buf{k}"), 1.5 + k as f64).unwrap();
            if k % 3 == 0 {
                let mut nodes = (0..g.node_count() as u32).map(NodeId);
                if let Some(n) = nodes.find(|&n| view.can_bypass(n)) {
                    view.bypass_node(n).unwrap();
                }
            }
            views.push((format!("insert on arc {}", a.index()), view));
        }
        views
    }

    /// Three references, each with its own scratch, re-time interleaved
    /// probes of every kind; each result equals a from-scratch analysis of
    /// the view bit for bit, at CPPR off and on.
    #[test]
    fn interleaved_references_with_own_scratches_match_full_analysis() {
        use crate::constraints::ContextSampler;
        let g = mesh_graph();
        let core = DesignCore::freeze(&g);
        let views = probe_views(&g, &core);
        assert!(views.len() >= 30, "only {} probe views", views.len());
        let contexts = ContextSampler::new(5).sample_many(&g, 3);
        for cppr in [false, true] {
            let options = AnalysisOptions { cppr, ..Default::default() };
            let references: Vec<ReferenceAnalysis> = contexts
                .iter()
                .map(|c| ReferenceAnalysis::new(core.clone(), c.clone(), options).unwrap())
                .collect();
            let mut scratches: Vec<RetimeScratch> =
                references.iter().map(ReferenceAnalysis::scratch).collect();
            let mut probes = 0;
            for step in 0..2 * views.len() {
                // Views in a stride order, references rotating, so every
                // scratch undoes probes of every kind in every order.
                let (name, view) = &views[(step * 7) % views.len()];
                let r = step % references.len();
                let got = snapshot_bits(references[r].retime(view, &mut scratches[r]).unwrap());
                let full = Analysis::run_with_options(view, &contexts[r], options).unwrap();
                assert_eq!(got, snapshot_bits(full.boundary()), "cppr {cppr}: {name} on ref {r}");
                probes += 1;
            }
            assert!(probes >= 50);
            assert!(scratches.iter().all(|s| s.stats().forward_recomputed > 0));
        }
    }

    /// A scratch reused across probes returns exactly what a fresh scratch
    /// and a full analysis of the view return, probe for probe — including
    /// where a probe's clock arrival stops being finite, so a check must
    /// drop the RAT and credits an earlier probe left (this design clocks
    /// its flip-flops from a data input, which a resize may overflow).
    #[test]
    fn reused_scratch_matches_a_fresh_one_probe_for_probe() {
        let lib = Library::synthetic(3);
        let mut b = NetlistBuilder::new("dclk", &lib);
        let a = b.input("a").unwrap();
        let d = b.input("d").unwrap();
        let q = b.output("q").unwrap();
        let g = b.cell("g", "BUFX2").unwrap();
        let ff1 = b.cell("ff1", "DFFX1").unwrap();
        let ff2 = b.cell("ff2", "DFFX1").unwrap();
        let inv = b.cell("inv", "INVX1").unwrap();
        let pin = |b: &NetlistBuilder, c, p| b.pin_of(c, p).unwrap();
        b.connect("n_a", a, &[pin(&b, g, "A")]).unwrap();
        b.connect("n_ck", pin(&b, g, "Z"), &[pin(&b, ff1, "CK"), pin(&b, ff2, "CK")]).unwrap();
        b.connect("n_d", d, &[pin(&b, ff1, "D")]).unwrap();
        b.connect("n_q1", pin(&b, ff1, "Q"), &[pin(&b, inv, "A")]).unwrap();
        b.connect("n_i", pin(&b, inv, "Z"), &[pin(&b, ff2, "D")]).unwrap();
        b.connect("n_q2", pin(&b, ff2, "Q"), &[q]).unwrap();
        let dg = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        let core = DesignCore::freeze(&dg);
        let g_arc = crate::graph::ArcId(
            dg.arcs()
                .iter()
                .position(|x| dg.node(x.from).name == "g/A" && !x.dead)
                .unwrap() as u32,
        );
        let mut views = probe_views(&dg, &core);
        for factor in [0.5, 1e308, 2.0, 1e308] {
            let mut view = GraphView::new(core.clone());
            view.resize_arc(g_arc, factor).unwrap();
            views.push((format!("clock resize x{factor:e}"), view));
        }
        let mut ctx = Context::nominal(&dg);
        ctx.pi[0].at = crate::split::Split::new(0.0, 25.0); // credits move with g's delay
        let mut overflow_probes = 0;
        for (core, views) in [(core, views), {
            let g = mesh_graph();
            let core = DesignCore::freeze(&g);
            let views = probe_views(&g, &core);
            (core, views)
        }] {
            for cppr in [false, true] {
                let options = AnalysisOptions { cppr, ..Default::default() };
                let ctx =
                    if core.name() == "dclk" { ctx.clone() } else { Context::nominal(&*core) };
                let reference = ReferenceAnalysis::new(core.clone(), ctx, options).unwrap();
                let mut reused = reference.scratch();
                for round in 0..2 {
                    for (name, view) in views.iter().rev() {
                        let got = snapshot_bits(reference.retime(view, &mut reused).unwrap());
                        let mut fresh = reference.scratch();
                        let want = snapshot_bits(reference.retime(view, &mut fresh).unwrap());
                        assert_eq!(got, want, "cppr {cppr}, round {round}: {name}");
                        let full = Analysis::run_with_options(view, reference.ctx(), options);
                        let full = snapshot_bits(full.unwrap().boundary());
                        assert_eq!(got, full, "cppr {cppr}, round {round}: {name} vs full");
                        overflow_probes += usize::from(name.ends_with("x1e308"));
                    }
                }
            }
        }
        assert_eq!(overflow_probes, 8);
    }
}
