//! Incremental timing updates (the iTimerC-style capability the paper's
//! reference timers provide).
//!
//! Hierarchical timing re-times the same block under many slightly
//! different boundary conditions and small netlist edits; recomputing the
//! whole graph for one changed port or one edited cell wastes almost all
//! of the work. One pruned cone sweep serves both kinds of change. It takes
//! two seed sets — forward seeds are nodes whose fan-in changed, backward
//! seeds are nodes whose fan-out or out-arc load changed — and runs:
//!
//! - **forward**: a worklist sweep in topological order from the forward
//!   seeds, pruned as soon as a node's recomputed values are bit-identical
//!   to the stored ones;
//! - **endpoints**: required times (and CPPR credits) are refreshed;
//! - **backward**: a reverse sweep seeded by the backward seeds, the
//!   changed endpoints and the forward-changed nodes, pruned the same way.
//!
//! Two front ends feed it:
//!
//! - [`IncrementalState`] keeps a session's propagation state alive across
//!   boundary re-constraints ([`IncrementalState::set_pi`],
//!   [`IncrementalState::set_po_load`], [`IncrementalState::set_po_rat`])
//!   and overlay edits of its view ([`IncrementalState::resync`]). A
//!   re-constraint updates the context at once but only records its seeds;
//!   the next read ([`IncrementalState::analysis`] or a point accessor such
//!   as [`IncrementalState::slack`]) runs one sweep for every re-constraint
//!   recorded since the last one, and a re-sync folds them into its own
//!   sweep. A burst of writes therefore costs one sweep over the union of
//!   their cones, and [`IncrementalStats::updates`] counts sweeps, not
//!   commands;
//! - [`crate::retime::ReferenceAnalysis::retime`] re-times one probe's
//!   edited view against a frozen reference.
//!
//! The sweeps reuse the per-node kernels of the full analysis
//! ([`crate::propagate`]), so every update is bit-identical to a fresh
//! full analysis (enforced by the tests below, the serve equivalence suite
//! and the `retime-equality` differential check, which also drives an
//! [`IncrementalState`] through re-constraint bursts and ECO edits). A
//! union of seeds keeps the sweep's one invariant — every node whose
//! inputs changed is seeded — so coalescing changes no bit.

use crate::aocv::AocvSpec;
use crate::constraints::{Context, PiConstraint};
use crate::graph::{ArcData, NodeId};
use crate::idhash::IdMap;
use crate::propagate::{
    backward_node, endpoint_rats, forward_node, q_to_ck_map, serial_sweep, slack_of, Analysis,
    AnalysisOptions, Evaluator, PropState,
};
use crate::split::{Quad, Split};
use crate::view::{GraphView, TimingGraph};
use crate::{Result, StaError};

/// Counters describing how much work incremental updates performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Cone sweeps run: by an [`IncrementalState`], one per read that
    /// found re-constraints pending (however many were recorded) and one
    /// per overlay re-sync (pending re-constraints ride along); by
    /// [`crate::retime::ReferenceAnalysis::retime`], one per probe
    /// (pristine views included). Disjoint from
    /// [`IncrementalStats::full_fallbacks`]: every re-sync or probe
    /// increments exactly one of the two.
    pub updates: usize,
    /// Updates that ran a full analysis instead (overlay edits under AOCV).
    pub full_fallbacks: usize,
    /// Nodes re-evaluated in forward sweeps.
    pub forward_recomputed: usize,
    /// Nodes re-evaluated in backward sweeps.
    pub backward_recomputed: usize,
}

/// Everything a sweep reads besides the graph and the state: the boundary
/// context, the options, and what is derived from them once.
#[derive(Debug)]
pub(crate) struct SweepInputs {
    pub(crate) ctx: Context,
    pub(crate) options: AnalysisOptions,
    pub(crate) evaluator: Evaluator,
    pub(crate) q_to_ck: IdMap<usize, u32>,
    pub(crate) po_loads: Vec<f64>,
}

/// Reusable worklist bitmaps of the cone sweep.
#[derive(Debug, Clone, Default)]
pub(crate) struct Worklists {
    /// Forward worklist: nodes whose arrival must be recomputed.
    dirty: Vec<bool>,
    /// Backward worklist: nodes whose required time must be recomputed.
    stale: Vec<bool>,
}

impl SweepInputs {
    pub(crate) fn new<G: TimingGraph>(graph: &G, ctx: Context, options: AnalysisOptions) -> Self {
        SweepInputs {
            evaluator: Evaluator::new(graph, options.aocv.then(AocvSpec::standard)),
            q_to_ck: q_to_ck_map(graph),
            po_loads: ctx.po_loads(),
            ctx,
            options,
        }
    }

    /// One full serial propagation of `graph` into a fresh state.
    fn full_state<G: TimingGraph>(&self, graph: &G) -> PropState {
        let mut state = PropState::new(graph);
        serial_sweep(
            graph,
            &self.ctx,
            self.options,
            &self.evaluator,
            &self.q_to_ck,
            &self.po_loads,
            &mut state,
            || {},
        );
        state
    }

    /// The pruned cone sweep: forward from `forward_seeds`, endpoint
    /// refresh, backward from `backward_seeds` plus the changed endpoints
    /// and the forward-changed nodes. `state` grows to the graph's node
    /// count first (new slots start neutral). A dead seed is a node an edit
    /// hid: the kernels skip it, so it is reset to the neutral values a
    /// from-scratch analysis leaves there.
    ///
    /// Both sweeps iterate the graph's current `topo_order()`. A composed
    /// arc `u → v` only exists where paths `u → n → v` existed, so the
    /// core's order stays valid for bypass- and resize-edited views;
    /// buffer insertions switch a view to an overlay order that covers the
    /// new nodes.
    pub(crate) fn cone_sweep<G: TimingGraph>(
        &self,
        graph: &G,
        state: &mut PropState,
        lists: &mut Worklists,
        stats: &mut IncrementalStats,
        forward_seeds: impl IntoIterator<Item = NodeId>,
        backward_seeds: impl IntoIterator<Item = NodeId>,
    ) {
        let n = graph.node_count();
        state.grow_to(n);
        for list in [&mut lists.dirty, &mut lists.stale] {
            list.clear();
            list.resize(n, false);
        }
        let mut any_forward = false;
        for s in forward_seeds {
            if graph.node_dead(s) {
                state.reset_node(s.index());
            } else {
                lists.dirty[s.index()] = true;
                any_forward = true;
            }
        }
        for s in backward_seeds {
            if graph.node_dead(s) {
                state.reset_node(s.index());
            } else {
                lists.stale[s.index()] = true;
            }
        }

        if any_forward {
            for &nid in graph.topo_order() {
                if !lists.dirty[nid.index()] {
                    continue;
                }
                stats.forward_recomputed += 1;
                let changed = forward_node(
                    graph,
                    &self.ctx,
                    &self.po_loads,
                    &self.q_to_ck,
                    &self.evaluator,
                    state,
                    nid,
                );
                if changed {
                    for aid in graph.fanout(nid) {
                        lists.dirty[graph.arc(aid).to.index()] = true;
                    }
                    // A changed slew changes the delays of this node's own
                    // out-arcs, so its RAT is stale too.
                    lists.stale[nid.index()] = true;
                    for aid in graph.fanin(nid) {
                        lists.stale[graph.arc(aid).from.index()] = true;
                    }
                }
            }
        }

        // Endpoint required times (and CPPR credits) are cheap to refresh
        // wholesale; only the endpoints that moved seed the backward sweep.
        endpoint_rats(graph, &self.ctx, self.options, state, |e| {
            for aid in graph.fanin(e) {
                lists.stale[graph.arc(aid).from.index()] = true;
            }
        });

        for &nid in graph.topo_order().iter().rev() {
            if !lists.stale[nid.index()] {
                continue;
            }
            stats.backward_recomputed += 1;
            if backward_node(graph, &self.po_loads, &self.evaluator, state, nid) {
                for aid in graph.fanin(nid) {
                    lists.stale[graph.arc(aid).from.index()] = true;
                }
            }
        }
    }

    /// Brings `state` — exact for `view` minus some of its edits — up to
    /// date with all of them. Seeds come from every arc the view's edits
    /// touched: hidden arcs (added arcs a later edit hid included) and live
    /// added arcs. Forward seeds are their sinks, whose fan-in changed;
    /// backward seeds are their sources, whose fan-out changed. Edits the
    /// state already reflects prune at their first node. The caller's own
    /// seeds (`forward_seeds`, `backward_seeds`) join the same sweep.
    pub(crate) fn sync_view_edits(
        &self,
        view: &GraphView,
        state: &mut PropState,
        lists: &mut Worklists,
        stats: &mut IncrementalStats,
        forward_seeds: impl IntoIterator<Item = NodeId>,
        backward_seeds: impl IntoIterator<Item = NodeId>,
    ) {
        fn edit_arcs(view: &GraphView) -> impl Iterator<Item = &ArcData> + '_ {
            view.hidden_arc_ids()
                .chain(view.extra_arc_ids().filter(move |&a| !view.arc_hidden(a)))
                .map(move |a| view.arc(a))
        }
        self.cone_sweep(
            view,
            state,
            lists,
            stats,
            edit_arcs(view).map(|a| a.to).chain(forward_seeds),
            edit_arcs(view).map(|a| a.from).chain(backward_seeds),
        );
    }
}

/// Re-constraints recorded since the last sweep, as one mark per port so
/// the record stays bounded however many writes arrive between reads.
#[derive(Debug)]
struct Pending {
    /// Re-constrained primary inputs, by port index (forward seeds).
    pis: Vec<bool>,
    /// Primary outputs whose load changed, by port index.
    po_loads: Vec<bool>,
    /// `true` once anything was recorded. A RAT change marks nothing else:
    /// every sweep refreshes the endpoint required times.
    any: bool,
}

impl Pending {
    fn new(ctx: &Context) -> Self {
        Pending { pis: vec![false; ctx.pi.len()], po_loads: vec![false; ctx.po.len()], any: false }
    }

    fn clear(&mut self) {
        self.pis.fill(false);
        self.po_loads.fill(false);
        self.any = false;
    }

    /// Drains the record into sweep seeds over `graph`: the re-constrained
    /// PIs and the loaded pins forward, the loaded pins' drivers backward.
    /// `None` when nothing was recorded.
    fn take_seeds<G: TimingGraph>(&mut self, graph: &G) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
        if !self.any {
            return None;
        }
        let mut forward: Vec<NodeId> = graph
            .primary_inputs()
            .iter()
            .zip(&self.pis)
            .filter_map(|(&n, &marked)| marked.then_some(n))
            .collect();
        let mut backward = Vec::new();
        if self.po_loads.contains(&true) {
            // One scan for every pending port: a loaded pin re-times
            // forward, and the load axis changes the delay of every arc
            // into it, so the sources of those arcs re-derive their
            // required times.
            let changed = |p: &u32| self.po_loads.get(*p as usize) == Some(&true);
            for n in (0..graph.node_count() as u32).map(NodeId) {
                if !graph.node_dead(n) && graph.node_po_loads(n).iter().any(changed) {
                    forward.push(n);
                    backward.extend(graph.fanin(n).map(|aid| graph.arc(aid).from));
                }
            }
        }
        self.clear();
        Some((forward, backward))
    }
}

/// Graph-free incremental propagation state for long-lived what-if
/// sessions.
///
/// The struct does **not** borrow the graph — every method that times
/// takes it as a parameter instead — so a session can own its
/// [`crate::view::GraphView`] overlay and this state in one value.
///
/// Re-constraints are lazy: they update the context and record their
/// seeds, and the next read sweeps once for all of them. Every read takes
/// `&mut self` for that reason, so no caller can see a stale value.
///
/// The caller passes the *same* graph to every call. The one permitted
/// change is an overlay edit of a [`GraphView`], after which
/// [`IncrementalState::resync`] must run before anything else.
#[derive(Debug)]
pub struct IncrementalState {
    inputs: SweepInputs,
    state: PropState,
    lists: Worklists,
    stats: IncrementalStats,
    pending: Pending,
}

impl IncrementalState {
    /// Performs the initial full analysis on `graph` and retains its state.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (infallible for valid graphs).
    pub fn new<G: TimingGraph>(
        graph: &G,
        ctx: Context,
        options: AnalysisOptions,
    ) -> Result<Self> {
        let pending = Pending::new(&ctx);
        let inputs = SweepInputs::new(graph, ctx, options);
        let state = inputs.full_state(graph);
        Ok(IncrementalState {
            inputs,
            state,
            lists: Worklists::default(),
            stats: IncrementalStats::default(),
            pending,
        })
    }

    /// The current boundary context (re-constraints included as soon as
    /// they are made).
    #[must_use]
    pub fn ctx(&self) -> &Context {
        &self.inputs.ctx
    }

    /// The analysis options the state was built with.
    #[must_use]
    pub fn options(&self) -> AnalysisOptions {
        self.inputs.options
    }

    /// Work counters. Re-constraints still pending have not swept yet.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Materialises the current state as a regular [`Analysis`] (with its
    /// boundary snapshot), sweeping pending re-constraints first.
    #[must_use]
    pub fn analysis<G: TimingGraph>(&mut self, graph: &G) -> Analysis {
        let options = self.inputs.options;
        Analysis::from_state(graph, self.flushed(graph).clone(), options)
    }

    /// Arrival times of node `n` (see [`Analysis::at`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn at<G: TimingGraph>(&mut self, graph: &G, n: NodeId) -> Quad {
        self.flushed(graph).at[n.index()]
    }

    /// Slews of node `n` (see [`Analysis::slew`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn slew<G: TimingGraph>(&mut self, graph: &G, n: NodeId) -> Quad {
        self.flushed(graph).slew[n.index()]
    }

    /// Required arrival times of node `n` (see [`Analysis::rat`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn rat<G: TimingGraph>(&mut self, graph: &G, n: NodeId) -> Quad {
        self.flushed(graph).rat[n.index()]
    }

    /// Slack of node `n` (see [`Analysis::slack`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn slack<G: TimingGraph>(&mut self, graph: &G, n: NodeId) -> Quad {
        let state = self.flushed(graph);
        slack_of(&state.at[n.index()], &state.rat[n.index()])
    }

    /// Changes one primary input's boundary constraint; its cone re-times
    /// at the next read.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_pi(&mut self, pi_index: usize, constraint: PiConstraint) -> Result<()> {
        let slot = self
            .inputs
            .ctx
            .pi
            .get_mut(pi_index)
            .ok_or_else(|| StaError::UnknownPort(format!("pi #{pi_index}")))?;
        *slot = constraint;
        self.pending.pis[pi_index] = true;
        self.pending.any = true;
        Ok(())
    }

    /// Changes one primary output's external load; every pin driving a
    /// net attached to that port re-times at the next read.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_po_load(&mut self, po_index: usize, load: f64) -> Result<()> {
        let port = self
            .inputs
            .ctx
            .po
            .get_mut(po_index)
            .ok_or_else(|| StaError::UnknownPort(format!("po #{po_index}")))?;
        port.load = load;
        self.inputs.po_loads[po_index] = load;
        self.pending.po_loads[po_index] = true;
        self.pending.any = true;
        Ok(())
    }

    /// Changes one primary output's required arrival times; only the
    /// backward cone re-times, at the next read.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_po_rat(&mut self, po_index: usize, rat: Split<f64>) -> Result<()> {
        let port = self
            .inputs
            .ctx
            .po
            .get_mut(po_index)
            .ok_or_else(|| StaError::UnknownPort(format!("po #{po_index}")))?;
        port.rat = rat;
        self.pending.any = true;
        Ok(())
    }

    /// Re-syncs the state after overlay edits to `view` (the view every
    /// earlier call saw, plus new edits). Only the new edits' cones
    /// re-time, in one sweep with any pending re-constraints. Under AOCV
    /// an edit shifts structural depths — and so derates — outside any
    /// cone, so the state is rebuilt from scratch instead; returns `true`
    /// when that full rebuild ran.
    pub fn resync(&mut self, view: &GraphView) -> bool {
        if self.inputs.evaluator.has_aocv() {
            // The rebuild reads the context, which already holds every
            // pending value; their seeds belong to the pre-edit view.
            self.pending.clear();
            self.stats.full_fallbacks += 1;
            self.inputs = SweepInputs::new(view, self.inputs.ctx.clone(), self.inputs.options);
            self.state = self.inputs.full_state(view);
            return true;
        }
        let (forward, backward) = self.pending.take_seeds(view).unwrap_or_default();
        self.stats.updates += 1;
        self.inputs.sync_view_edits(
            view,
            &mut self.state,
            &mut self.lists,
            &mut self.stats,
            forward,
            backward,
        );
        false
    }

    /// The state with every pending re-constraint swept in.
    fn flushed<G: TimingGraph>(&mut self, graph: &G) -> &PropState {
        if let Some((forward, backward)) = self.pending.take_seeds(graph) {
            self.stats.updates += 1;
            self.inputs.cone_sweep(
                graph,
                &mut self.state,
                &mut self.lists,
                &mut self.stats,
                forward,
                backward,
            );
        }
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ContextSampler;
    use crate::graph::{ArcGraph, ArcId};
    use crate::split::{Edge, Mode};
    use crate::view::DesignCore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tmm_circuits_free::design;

    /// Local generator (tmm-circuits depends on this crate, so tests build
    /// their own design).
    mod tmm_circuits_free {
        use crate::graph::ArcGraph;
        use crate::liberty::Library;
        use crate::netlist::NetlistBuilder;

        pub fn design() -> (ArcGraph, Library) {
            let lib = Library::synthetic(7);
            let mut b = NetlistBuilder::new("inc", &lib);
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
            let g4 = b.cell("g4", "BUFX2").unwrap();
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
            b.connect(
                "n_g2",
                b.pin_of(g2, "Z").unwrap(),
                &[z0, b.pin_of(ff2, "D").unwrap()],
            )
            .unwrap();
            b.connect("n_q2", b.pin_of(ff2, "Q").unwrap(), &[b.pin_of(g3, "A").unwrap()])
                .unwrap();
            b.connect("n_g3", b.pin_of(g3, "Z").unwrap(), &[b.pin_of(g4, "A").unwrap()])
                .unwrap();
            b.connect("n_g4", b.pin_of(g4, "Z").unwrap(), &[z1]).unwrap();
            (ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap(), lib)
        }
    }

    /// The design frozen into a core, and a pristine view over it.
    fn view_of(g: &ArcGraph) -> GraphView {
        GraphView::new(DesignCore::freeze(g))
    }

    /// Node-by-node bit comparison against a from-scratch analysis of the
    /// view — every slot, hidden and inserted nodes included.
    /// The point accessors are checked against it too.
    fn assert_matches_full(inc: &mut IncrementalState, view: &GraphView) {
        let fresh = Analysis::run_with_options(view, inc.ctx(), inc.options()).unwrap();
        let got = inc.analysis(view);
        let d = fresh.boundary().diff(got.boundary());
        assert_eq!(d.max, 0.0, "incremental state diverged from full analysis");
        assert!(d.count > 0);
        assert_eq!(fresh.clock_parents(), got.clock_parents(), "clock parents differ");
        for i in 0..view.node_count() {
            let n = NodeId(i as u32);
            let name = view.node_name(n);
            for mode in Mode::ALL {
                for edge in Edge::ALL {
                    for (what, a, b) in [
                        ("at", fresh.at(n)[mode][edge], got.at(n)[mode][edge]),
                        ("slew", fresh.slew(n)[mode][edge], got.slew(n)[mode][edge]),
                        ("rat", fresh.rat(n)[mode][edge], got.rat(n)[mode][edge]),
                        ("point at", fresh.at(n)[mode][edge], inc.at(view, n)[mode][edge]),
                        ("point slew", fresh.slew(n)[mode][edge], inc.slew(view, n)[mode][edge]),
                        ("point rat", fresh.rat(n)[mode][edge], inc.rat(view, n)[mode][edge]),
                        ("point slack", fresh.slack(n)[mode][edge], inc.slack(view, n)[mode][edge]),
                    ] {
                        assert!(a.to_bits() == b.to_bits(), "{what} mismatch on {name}: {a} vs {b}");
                    }
                    assert_eq!(
                        fresh.launch_tag(n, mode, edge),
                        got.launch_tag(n, mode, edge),
                        "launch tag mismatch on {name}"
                    );
                }
            }
        }
    }

    /// Applies one random data-path edit of the three ECO kinds (cell
    /// resize, buffer insert, cell delete) to `view`.
    fn random_eco(view: &mut GraphView, rng: &mut StdRng, k: usize) {
        let arcs: Vec<ArcId> = (0..view.node_count() as u32)
            .map(NodeId)
            .filter(|&n| !view.node_dead(n))
            .flat_map(|n| view.fanout(n).collect::<Vec<_>>())
            .filter(|&a| !view.arc(a).is_clock)
            .collect();
        let victims: Vec<NodeId> = (0..view.node_count() as u32)
            .map(NodeId)
            .filter(|&n| view.can_bypass(n) && !view.node_is_clock_network(n))
            .collect();
        let arc = arcs[rng.gen_range(0..arcs.len())];
        match rng.gen_range(0..3) {
            0 => {
                view.resize_arc(arc, rng.gen_range(0.5..1.5)).unwrap();
            }
            1 => {
                view.insert_node_on_arc(arc, &format!("eco_buf{k}"), rng.gen_range(0.0..5.0))
                    .unwrap();
            }
            _ if !victims.is_empty() => {
                view.bypass_node(victims[rng.gen_range(0..victims.len())]).unwrap();
            }
            _ => {
                view.resize_arc(arc, 0.7).unwrap();
            }
        }
    }

    #[test]
    fn initial_state_matches_full_analysis() {
        let (g, _) = design();
        let view = view_of(&g);
        let mut inc = IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
            .unwrap();
        assert_matches_full(&mut inc, &view);
    }

    #[test]
    fn po_load_update_matches_full_recompute() {
        let (g, _) = design();
        let view = view_of(&g);
        let mut inc =
            IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        for load in [1.0, 17.5, 44.0, 3.2] {
            inc.set_po_load(0, load).unwrap();
            assert_matches_full(&mut inc, &view);
        }
        assert_eq!(inc.stats().updates, 4);
        assert!(inc.stats().forward_recomputed > 0);
    }

    #[test]
    fn pi_update_matches_full_recompute() {
        let (g, _) = design();
        let view = view_of(&g);
        let mut inc =
            IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        inc.set_pi(0, PiConstraint { at: Split::new(5.0, 9.0), slew: 77.0 }).unwrap();
        assert_matches_full(&mut inc, &view);
        inc.set_pi(1, PiConstraint { at: Split::new(0.0, 0.0), slew: 8.0 }).unwrap();
        assert_matches_full(&mut inc, &view);
    }

    #[test]
    fn po_rat_update_touches_only_backward_cone() {
        let (g, _) = design();
        let view = view_of(&g);
        let mut inc =
            IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        let before = inc.stats();
        inc.set_po_rat(1, Split::new(-10.0, 900.0)).unwrap();
        assert_eq!(inc.stats(), before, "a write only records");
        assert_matches_full(&mut inc, &view);
        assert_eq!(inc.stats().forward_recomputed, before.forward_recomputed, "no forward work");
        assert!(inc.stats().backward_recomputed > 0);
    }

    /// Random mixes of the three re-constraints and overlay edits stay
    /// bit-exact after every step, at CPPR off and on.
    #[test]
    fn random_update_sequences_stay_exact() {
        let (g, _) = design();
        let ctx = ContextSampler::new(42).sample(&g);
        for cppr in [false, true] {
            let mut view = view_of(&g);
            let options = AnalysisOptions { cppr, ..Default::default() };
            let mut inc = IncrementalState::new(&view, ctx.clone(), options).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let mut edits = 0;
            for step in 0..40 {
                match rng.gen_range(0..4) {
                    0 => {
                        let pi = rng.gen_range(0..g.primary_inputs().len());
                        let base = rng.gen_range(0.0..100.0);
                        let constraint = PiConstraint {
                            at: Split::new(base, base + rng.gen_range(0.0..20.0)),
                            slew: rng.gen_range(6.0..150.0),
                        };
                        inc.set_pi(pi, constraint).unwrap();
                    }
                    1 => {
                        let po = rng.gen_range(0..g.primary_outputs().len());
                        inc.set_po_load(po, rng.gen_range(1.0..48.0)).unwrap();
                    }
                    2 => {
                        let po = rng.gen_range(0..g.primary_outputs().len());
                        let rat =
                            Split::new(rng.gen_range(-40.0..40.0), rng.gen_range(400.0..900.0));
                        inc.set_po_rat(po, rat).unwrap();
                    }
                    _ => {
                        random_eco(&mut view, &mut rng, step);
                        assert!(!inc.resync(&view), "no rebuild without AOCV");
                        edits += 1;
                    }
                }
                assert_matches_full(&mut inc, &view);
            }
            assert!(edits > 0, "the sequence must exercise overlay edits");
            assert_eq!(inc.stats().full_fallbacks, 0);
        }
    }

    #[test]
    fn aocv_edits_rebuild_and_reconstraints_stay_incremental() {
        let (g, _) = design();
        let options = AnalysisOptions { aocv: true, cppr: true };
        let mut view = view_of(&g);
        let mut inc = IncrementalState::new(&view, Context::nominal(&g), options).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for step in 0..6 {
            random_eco(&mut view, &mut rng, step);
            assert!(inc.resync(&view), "an AOCV edit must take the rebuild path");
            assert_matches_full(&mut inc, &view);
            inc.set_po_load(step % 2, 5.0 + step as f64).unwrap();
            assert_matches_full(&mut inc, &view);
        }
        let s = inc.stats();
        assert_eq!(s.full_fallbacks, 6);
        assert_eq!(s.updates, 6, "re-constraints stay on the cone sweep");
    }

    #[test]
    fn resync_work_stays_inside_the_edit_cone() {
        let (g, _) = design();
        let mut view = view_of(&g);
        let mut inc =
            IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        // Resizing g4's cell arc touches g4/Z, z1 and a short backward cone.
        let g4 = (0..g.node_count() as u32)
            .map(NodeId)
            .find(|&n| g.node(n).name == "g4/A")
            .unwrap();
        let arc = view.fanout(g4).next().unwrap();
        view.resize_arc(arc, 1.3).unwrap();
        assert!(!inc.resync(&view));
        assert_matches_full(&mut inc, &view);
        let s = inc.stats();
        assert!(
            s.forward_recomputed + s.backward_recomputed < g.live_nodes(),
            "forward {} + backward {} should be < {}",
            s.forward_recomputed,
            s.backward_recomputed,
            g.live_nodes()
        );
    }

    #[test]
    fn incremental_work_is_a_fraction_of_full_work() {
        let (g, _) = design();
        let view = view_of(&g);
        let mut inc =
            IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        inc.set_po_load(1, 30.0).unwrap();
        let _ = inc.at(&view, NodeId(0));
        let s = inc.stats();
        assert_eq!(s.updates, 1);
        // Changing z1's load touches g4/Z forward and a short backward
        // cone, not the whole graph twice.
        assert!(
            s.forward_recomputed + s.backward_recomputed < g.live_nodes(),
            "forward {} + backward {} should be < {}",
            s.forward_recomputed,
            s.backward_recomputed,
            g.live_nodes()
        );
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let (g, _) = design();
        let view = view_of(&g);
        let mut inc =
            IncrementalState::new(&view, Context::nominal(&g), AnalysisOptions::default())
                .unwrap();
        assert!(inc.set_po_load(99, 1.0).is_err());
        let constraint = PiConstraint { at: Split::new(0.0, 0.0), slew: 1.0 };
        assert!(inc.set_pi(99, constraint).is_err());
        assert!(inc.set_po_rat(99, Split::new(0.0, 1.0)).is_err());
        let _ = inc.slack(&view, NodeId(0));
        assert_eq!(inc.stats().updates, 0, "a refused update records nothing");
    }

    /// Applies one random re-constraint to `inc` and to the shadow context
    /// `want`. Ports are drawn from the first two of each kind, so bursts
    /// repeat ports.
    fn random_reconstraint(inc: &mut IncrementalState, want: &mut Context, rng: &mut StdRng) {
        match rng.gen_range(0..3) {
            0 => {
                let pi = rng.gen_range(0..want.pi.len().min(2));
                let base = rng.gen_range(0.0..100.0);
                let constraint = PiConstraint {
                    at: Split::new(base, base + rng.gen_range(0.0..20.0)),
                    slew: rng.gen_range(6.0..150.0),
                };
                inc.set_pi(pi, constraint).unwrap();
                want.pi[pi] = constraint;
            }
            1 => {
                let po = rng.gen_range(0..want.po.len());
                let load = rng.gen_range(1.0..48.0);
                inc.set_po_load(po, load).unwrap();
                want.po[po].load = load;
            }
            _ => {
                let po = rng.gen_range(0..want.po.len());
                let rat = Split::new(rng.gen_range(-40.0..40.0), rng.gen_range(400.0..900.0));
                inc.set_po_rat(po, rat).unwrap();
                want.po[po].rat = rat;
            }
        }
    }

    /// Seeded bursts of 1–40 re-constraints of all three kinds, ports
    /// repeated, then one read: every burst costs exactly one sweep and
    /// stays bit-exact, at CPPR off and on. Each burst sets one PI twice,
    /// and the last write must win.
    #[test]
    fn coalesced_reconstraints_cost_one_sweep() {
        let (g, _) = design();
        let view = view_of(&g);
        for cppr in [false, true] {
            let mut want = ContextSampler::new(7).sample(&g);
            let options = AnalysisOptions { cppr, ..Default::default() };
            let mut inc = IncrementalState::new(&view, want.clone(), options).unwrap();
            let mut rng = StdRng::seed_from_u64(17);
            for burst in 0..16 {
                let len = if burst == 0 { 1 } else { rng.gen_range(1..41) };
                let first = PiConstraint { at: Split::new(1.0, 2.0), slew: 140.0 };
                let last = PiConstraint { at: Split::new(30.0, 35.0 + burst as f64), slew: 9.0 };
                inc.set_pi(0, first).unwrap();
                for _ in 1..len {
                    random_reconstraint(&mut inc, &mut want, &mut rng);
                }
                inc.set_pi(0, last).unwrap();
                want.pi[0] = last;
                let before = inc.stats();
                assert_eq!(inc.ctx(), &want, "the context takes every write at once");
                assert_matches_full(&mut inc, &view);
                let after = inc.stats();
                assert_eq!(after.updates, before.updates + 1, "burst {burst}: one sweep");
                let _ = inc.slack(&view, NodeId(0));
                assert_eq!(inc.stats(), after, "a read with nothing pending does no work");
            }
            assert_eq!(inc.stats().updates, 16);
            assert_eq!(inc.stats().full_fallbacks, 0);
        }
    }

    /// Re-constraints still pending when an ECO edit lands ride along with
    /// its re-sync: in the edit's sweep without AOCV, and in the full
    /// rebuild under AOCV, which must not sweep them with the pre-edit
    /// evaluator.
    #[test]
    fn pending_reconstraints_cross_a_resync() {
        let (g, _) = design();
        for aocv in [false, true] {
            let mut want = ContextSampler::new(3).sample(&g);
            let options = AnalysisOptions { aocv, cppr: true };
            let mut view = view_of(&g);
            let mut inc = IncrementalState::new(&view, want.clone(), options).unwrap();
            let mut rng = StdRng::seed_from_u64(23);
            for step in 0..8 {
                for _ in 0..rng.gen_range(1..13) {
                    random_reconstraint(&mut inc, &mut want, &mut rng);
                }
                let before = inc.stats();
                random_eco(&mut view, &mut rng, step);
                assert_eq!(inc.resync(&view), aocv, "the rebuild path is AOCV's");
                assert_eq!(inc.ctx(), &want);
                assert_matches_full(&mut inc, &view);
                let s = inc.stats();
                if aocv {
                    assert_eq!(s.updates, before.updates, "the rebuild drops pending seeds");
                    assert_eq!(s.full_fallbacks, before.full_fallbacks + 1);
                } else {
                    assert_eq!(s.updates, before.updates + 1, "one sweep for edit and burst");
                }
            }
        }
    }
}
