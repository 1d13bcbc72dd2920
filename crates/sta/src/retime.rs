//! Cone-limited re-timing of edited [`GraphView`]s.
//!
//! Timing-sensitivity evaluation probes thousands of single-pin edits of the
//! same design: bypass one candidate pin, re-time, compare boundaries, undo.
//! Cloning the graph and re-running a full analysis per probe is O(graph)
//! work for an O(cone) question. [`ReferenceAnalysis`] answers it in cone
//! time: it runs one full analysis of the *unedited* frozen
//! [`DesignCore`] and keeps the raw propagation state;
//! [`ReferenceAnalysis::retime`] then resets a scratch copy of that state
//! and runs the incremental cone sweep ([`crate::incremental`]) seeded
//! from the view's edits — forward from the to-nodes and backward from the
//! from-nodes of every hidden or added arc. Nodes outside the edits' cones
//! are never touched and reuse the reference state at the frontier.
//!
//! The result is bit-identical to running [`Analysis::run_with_options`]
//! on the edited view from scratch — the equivalence is enforced by the
//! tests below and by the cross-crate determinism suite. Structural
//! insertions ([`GraphView::insert_node_on_arc`]) switch the view to an
//! overlay topological order that covers the appended nodes; the sweep
//! iterates the *view's* order, and the scratch state grows to the view's
//! node count with the same neutral initial values a from-scratch analysis
//! would use.
//!
//! AOCV is the one option that breaks cone locality: bypassing a node
//! changes structural depths — and therefore derates — arbitrarily far from
//! the edit. With AOCV enabled, [`ReferenceAnalysis::retime`] transparently
//! falls back to a full (but still clone-free) analysis of the view.

use crate::compare::BoundarySnapshot;
use crate::constraints::Context;
use crate::incremental::{IncrementalStats, SweepInputs, Worklists};
use crate::propagate::{full_sweep_leveled, Analysis, AnalysisOptions, PropState};
use crate::view::{DesignCore, GraphView};
use crate::{Result, StaError};
use std::sync::Arc;

/// Reusable per-thread working memory for [`ReferenceAnalysis::retime`].
///
/// Holds a mutable copy of the reference propagation state plus the
/// worklist bitmaps, so repeated probes allocate nothing. Obtain one from
/// [`ReferenceAnalysis::scratch`] and reuse it across probes on the same
/// reference (each worker thread needs its own).
#[derive(Debug, Clone)]
pub struct RetimeScratch {
    state: PropState,
    lists: Worklists,
    /// Node-slot count of the reference this scratch was sized for. The
    /// bitmaps and state may grow past this while re-timing views with
    /// inserted nodes; `base` is what identifies the home reference.
    base: usize,
    stats: IncrementalStats,
}

impl RetimeScratch {
    /// Work counters accumulated across all re-times through this scratch
    /// (`updates` counts cone-mode probes, `full_fallbacks` AOCV probes).
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Node-slot count of the reference this scratch was sized for —
    /// compare against the current reference before reusing a cached
    /// scratch (a mismatch makes [`ReferenceAnalysis::retime`] refuse it).
    #[must_use]
    pub fn base_nodes(&self) -> usize {
        self.base
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
        Self::new_with_threads(core, ctx, options, 1)
    }

    /// Like [`ReferenceAnalysis::new`] but shards the initial full sweep
    /// across `threads` workers over the core's level schedule
    /// (bit-identical to the serial sweep; `threads <= 1` is exactly it).
    ///
    /// # Errors
    ///
    /// See [`ReferenceAnalysis::new`]; additionally reports a worker panic
    /// as [`StaError::IllegalEdit`].
    pub fn new_with_threads(
        core: Arc<DesignCore>,
        ctx: Context,
        options: AnalysisOptions,
        threads: usize,
    ) -> Result<Self> {
        let inputs = SweepInputs::new(&*core, ctx, options);
        let mut state = PropState::new(&*core);
        full_sweep_leveled(
            &*core, &inputs.ctx, options, threads, &inputs.evaluator, &inputs.q_to_ck,
            &inputs.po_loads, &mut state,
        )?;
        let boundary =
            Analysis::snapshot(&*core, &state.at, &state.slew, &state.rat, &state.credits);
        Ok(ReferenceAnalysis { core, inputs, state, boundary })
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

    /// Allocates a scratch sized for this reference.
    #[must_use]
    pub fn scratch(&self) -> RetimeScratch {
        RetimeScratch {
            state: self.state.clone(),
            lists: Worklists::default(),
            base: self.state.at.len(),
            stats: IncrementalStats::default(),
        }
    }

    /// Re-times `view` against this reference and returns its boundary
    /// snapshot, recomputing only the affected cone. The result is
    /// bit-identical to a fresh [`Analysis::run_with_options`] of the view.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] when `view` was built over a
    /// different core than this reference, or when `scratch` was sized for
    /// a different reference.
    pub fn retime(
        &self,
        view: &GraphView,
        scratch: &mut RetimeScratch,
    ) -> Result<BoundarySnapshot> {
        if !Arc::ptr_eq(view.core(), &self.core) {
            return Err(StaError::IllegalEdit(
                "view was built over a different design core than this reference".into(),
            ));
        }
        if scratch.base != self.state.at.len() {
            return Err(StaError::IllegalEdit(
                "retime scratch was sized for a different reference".into(),
            ));
        }
        if view.is_pristine() {
            scratch.stats.updates += 1;
            tmm_obs::counter_add("tmm_sta_retimes_total", &[], 1);
            return Ok(self.boundary.clone());
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
            return Ok(an.boundary().clone());
        }
        scratch.stats.updates += 1;
        tmm_obs::counter_add("tmm_sta_retimes_total", &[], 1);

        // Reset the working state to the reference; the sweep then grows
        // it to the view's node count (structural edits may append nodes
        // after the core's slots) and re-times the edits' cones.
        scratch.state.clone_from(&self.state);
        self.inputs.sync_view_edits(
            view,
            &mut scratch.state,
            &mut scratch.lists,
            &mut scratch.stats,
            [],
            [],
        );

        Ok(Analysis::snapshot(
            view,
            &scratch.state.at,
            &scratch.state.slew,
            &scratch.state.rat,
            &scratch.state.credits,
        ))
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
        assert_bit_identical(reference.boundary(), &b);
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
            assert_bit_identical(full.boundary(), &cone);

            let mut clone = g.clone();
            clone.bypass_node(find(&g, victim)).unwrap();
            let edited = Analysis::run(&clone, &ctx).unwrap();
            assert_bit_identical(edited.boundary(), &cone);
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
            assert_bit_identical(full.boundary(), &cone);
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
        let cone = reference.retime(&view, &mut scratch).unwrap();
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
        assert_bit_identical(full.boundary(), &cone);

        // Buffer insert: appends a node past the core's slots, forcing the
        // scratch to grow and the sweeps onto the overlay topo order.
        let mut view = GraphView::new(core.clone());
        view.insert_node_on_arc(first_table_arc(&g), "eco_buf", 4.0).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), &cone);

        // Cell delete (bypass) stacked on top of an insert in one view.
        let mut view = GraphView::new(core.clone());
        view.insert_node_on_arc(first_table_arc(&g), "eco_buf2", 2.0).unwrap();
        view.bypass_node(find(&g, "g2/A")).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), &cone);

        // A later core-sized probe through the same (grown) scratch stays
        // exact.
        let mut view = GraphView::new(core.clone());
        view.bypass_node(find(&g, "g3/Z")).unwrap();
        let cone = reference.retime(&view, &mut scratch).unwrap();
        let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
        assert_bit_identical(full.boundary(), &cone);
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
        let cone = reference.retime(&view, &mut scratch).unwrap();
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
            assert_bit_identical(full.boundary(), &cone);
        }
        assert_eq!(scratch.stats().updates, 6);
    }

    #[test]
    fn foreign_views_and_scratches_are_rejected() {
        let g = chain_graph(2);
        let core_a = DesignCore::freeze(&g);
        let core_b = DesignCore::freeze(&g);
        let reference =
            ReferenceAnalysis::new(core_a, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        let mut scratch = reference.scratch();
        let foreign = GraphView::new(core_b);
        assert!(reference.retime(&foreign, &mut scratch).is_err());
    }
}
