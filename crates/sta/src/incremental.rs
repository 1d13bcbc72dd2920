//! Incremental timing updates (the iTimerC-style capability the paper's
//! reference timers provide).
//!
//! Hierarchical timing re-times the same block under many slightly
//! different boundary conditions; recomputing the whole graph for a single
//! changed port wastes almost all of the work. [`IncrementalTimer`] keeps
//! the propagation state alive and, on a boundary change, re-evaluates only
//! the affected cone:
//!
//! - **forward**: a worklist sweep in topological order starting from the
//!   changed ports, pruned as soon as a node's recomputed values are
//!   bit-identical to the stored ones;
//! - **endpoints**: required times (and CPPR credits) are refreshed;
//! - **backward**: a reverse sweep seeded by the changed endpoints, the
//!   forward-changed nodes, and the fan-in of load-changed pins, pruned the
//!   same way.
//!
//! Every update is verified (in tests) to produce state bit-identical to a
//! fresh full analysis.

use crate::aocv::AocvSpec;
use crate::constraints::{Context, PiConstraint};
use crate::graph::{ArcGraph, NodeId};
use crate::propagate::{
    backward_node, endpoint_rats, forward_node, q_to_ck_map, serial_sweep, Analysis,
    AnalysisOptions, Evaluator, PropState,
};
use crate::split::Split;
use crate::view::TimingGraph;
use crate::{Result, StaError};
use std::collections::HashMap;

/// Counters describing how much work incremental updates performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Boundary updates applied.
    pub updates: usize,
    /// Nodes re-evaluated in forward sweeps.
    pub forward_recomputed: usize,
    /// Nodes re-evaluated in backward sweeps.
    pub backward_recomputed: usize,
}

/// Graph-free incremental propagation state: the session-safe core of
/// [`IncrementalTimer`].
///
/// Unlike the timer, this struct does **not** borrow the graph — every
/// method takes `graph: &G` as a parameter instead. That makes it usable by
/// long-lived what-if sessions that own both their
/// [`crate::view::GraphView`] overlay and the propagation state in one
/// value (a borrowing timer would make such a session self-referential).
///
/// The caller is responsible for passing the *same* graph (same topology,
/// same node numbering) to every call; the state vectors are sized to that
/// graph's `node_count()` at construction.
#[derive(Debug)]
pub struct IncrementalState {
    ctx: Context,
    options: AnalysisOptions,
    evaluator: Evaluator,
    q_to_ck: HashMap<usize, u32>,
    state: PropState,
    stats: IncrementalStats,
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
        let aocv = options.aocv.then(AocvSpec::standard);
        let evaluator = Evaluator::new(graph, aocv);
        let q_to_ck = q_to_ck_map(graph);
        let mut state = PropState::new(graph);
        let po_loads = ctx.po_loads();
        serial_sweep(graph, &ctx, options, &evaluator, &q_to_ck, &po_loads, &mut state, || {});
        Ok(IncrementalState {
            ctx,
            options,
            evaluator,
            q_to_ck,
            state,
            stats: IncrementalStats::default(),
        })
    }

    /// The current boundary context.
    #[must_use]
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// The analysis options the state was built with.
    #[must_use]
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Materialises the current state as a regular [`Analysis`] (with its
    /// boundary snapshot).
    #[must_use]
    pub fn analysis<G: TimingGraph>(&self, graph: &G) -> Analysis {
        Analysis::from_state(graph, self.state.clone(), self.options)
    }

    /// Changes one primary input's boundary constraint and updates the
    /// affected cone.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_pi<G: TimingGraph>(
        &mut self,
        graph: &G,
        pi_index: usize,
        constraint: PiConstraint,
    ) -> Result<()> {
        if pi_index >= self.ctx.pi.len() {
            return Err(StaError::UnknownPort(format!("pi #{pi_index}")));
        }
        self.ctx.pi[pi_index] = constraint;
        let seed = graph.primary_inputs()[pi_index];
        self.update(graph, &[seed], &[]);
        Ok(())
    }

    /// Changes one primary output's external load and updates the affected
    /// cone (every pin driving a net attached to that port re-times).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_po_load<G: TimingGraph>(
        &mut self,
        graph: &G,
        po_index: usize,
        load: f64,
    ) -> Result<()> {
        if po_index >= self.ctx.po.len() {
            return Err(StaError::UnknownPort(format!("po #{po_index}")));
        }
        self.ctx.po[po_index].load = load;
        let seeds: Vec<NodeId> = (0..graph.node_count() as u32)
            .map(NodeId)
            .filter(|&n| {
                !graph.node_dead(n) && graph.node_po_loads(n).contains(&(po_index as u32))
            })
            .collect();
        self.update(graph, &seeds, &seeds);
        Ok(())
    }

    /// Changes one primary output's required arrival times; only the
    /// backward cone re-times.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_po_rat<G: TimingGraph>(
        &mut self,
        graph: &G,
        po_index: usize,
        rat: Split<f64>,
    ) -> Result<()> {
        if po_index >= self.ctx.po.len() {
            return Err(StaError::UnknownPort(format!("po #{po_index}")));
        }
        self.ctx.po[po_index].rat = rat;
        self.update(graph, &[], &[]);
        Ok(())
    }

    /// Core update: forward sweep from `forward_seeds`, endpoint refresh,
    /// backward sweep seeded by changed endpoints plus forward-changed
    /// nodes plus the fan-in of `load_changed` pins (whose incoming arc
    /// delays changed through the load axis).
    fn update<G: TimingGraph>(
        &mut self,
        graph: &G,
        forward_seeds: &[NodeId],
        load_changed: &[NodeId],
    ) {
        self.stats.updates += 1;
        let n = graph.node_count();
        let po_loads = self.ctx.po_loads();

        let mut dirty = vec![false; n];
        for &s in forward_seeds {
            dirty[s.index()] = true;
        }
        let mut fwd_changed = vec![false; n];
        if forward_seeds.iter().any(|&s| !graph.node_dead(s)) {
            for &nid in graph.topo_order() {
                if !dirty[nid.index()] {
                    continue;
                }
                self.stats.forward_recomputed += 1;
                let changed = forward_node(
                    graph,
                    &self.ctx,
                    &po_loads,
                    &self.q_to_ck,
                    &self.evaluator,
                    &mut self.state,
                    nid,
                );
                if changed {
                    fwd_changed[nid.index()] = true;
                    for aid in graph.fanout(nid) {
                        dirty[graph.arc(aid).to.index()] = true;
                    }
                }
            }
        }

        // Endpoint required times (and CPPR credits) are cheap to refresh
        // wholesale; collect which endpoints actually moved.
        let changed_endpoints = endpoint_rats(graph, &self.ctx, self.options, &mut self.state);

        let mut stale = vec![false; n];
        for e in changed_endpoints {
            for aid in graph.fanin(NodeId(e as u32)) {
                stale[graph.arc(aid).from.index()] = true;
            }
        }
        for i in 0..n {
            if fwd_changed[i] {
                // A changed slew changes the delays of this node's own
                // out-arcs, so its RAT is stale too.
                stale[i] = true;
                for aid in graph.fanin(NodeId(i as u32)) {
                    stale[graph.arc(aid).from.index()] = true;
                }
            }
        }
        for &lc in load_changed {
            for aid in graph.fanin(lc) {
                stale[graph.arc(aid).from.index()] = true;
            }
        }
        for &nid in graph.topo_order().iter().rev() {
            if !stale[nid.index()] {
                continue;
            }
            self.stats.backward_recomputed += 1;
            let changed = backward_node(graph, &po_loads, &self.evaluator, &mut self.state, nid);
            if changed {
                for aid in graph.fanin(nid) {
                    stale[graph.arc(aid).from.index()] = true;
                }
            }
        }
    }
}

/// A timer that keeps propagation state alive across boundary-condition
/// changes.
///
/// Generic over any [`TimingGraph`] implementation, so it can run on a flat
/// [`ArcGraph`], a frozen [`crate::view::DesignCore`], or an edited
/// [`crate::view::GraphView`] alike; the default parameter keeps existing
/// `IncrementalTimer<'_>` signatures meaning the `ArcGraph` case.
///
/// This is a thin borrowing wrapper over [`IncrementalState`]; callers that
/// need to own the graph and the state together (e.g. a serving session)
/// should use `IncrementalState` directly.
#[derive(Debug)]
pub struct IncrementalTimer<'g, G: TimingGraph = ArcGraph> {
    graph: &'g G,
    inner: IncrementalState,
}

impl<'g, G: TimingGraph> IncrementalTimer<'g, G> {
    /// Performs the initial full analysis and retains its state.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (infallible for valid graphs).
    pub fn new(graph: &'g G, ctx: Context, options: AnalysisOptions) -> Result<Self> {
        Ok(IncrementalTimer { graph, inner: IncrementalState::new(graph, ctx, options)? })
    }

    /// The current boundary context.
    #[must_use]
    pub fn ctx(&self) -> &Context {
        self.inner.ctx()
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.inner.stats()
    }

    /// The analysis options the timer runs under.
    #[must_use]
    pub fn options(&self) -> AnalysisOptions {
        self.inner.options()
    }

    /// Materialises the current state as a regular [`Analysis`] (with its
    /// boundary snapshot).
    #[must_use]
    pub fn analysis(&self) -> Analysis {
        self.inner.analysis(self.graph)
    }

    /// Changes one primary input's boundary constraint and updates the
    /// affected cone.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_pi(&mut self, pi_index: usize, constraint: PiConstraint) -> Result<()> {
        self.inner.set_pi(self.graph, pi_index, constraint)
    }

    /// Changes one primary output's external load and updates the affected
    /// cone (every pin driving a net attached to that port re-times).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_po_load(&mut self, po_index: usize, load: f64) -> Result<()> {
        self.inner.set_po_load(self.graph, po_index, load)
    }

    /// Changes one primary output's required arrival times; only the
    /// backward cone re-times.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownPort`] for an out-of-range index.
    pub fn set_po_rat(&mut self, po_index: usize, rat: Split<f64>) -> Result<()> {
        self.inner.set_po_rat(self.graph, po_index, rat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ContextSampler;
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
            b.connect("n_g3", b.pin_of(g3, "Z").unwrap(), &[z1]).unwrap();
            (ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap(), lib)
        }
    }

    fn assert_matches_full(timer: &IncrementalTimer<'_>, graph: &ArcGraph) {
        let fresh =
            Analysis::run_with_options(graph, timer.ctx(), timer.options()).unwrap();
        let inc = timer.analysis();
        let d = fresh.boundary().diff(inc.boundary());
        assert_eq!(d.max, 0.0, "incremental state diverged from full analysis");
        assert!(d.count > 0);
        // Also compare internal quantities node by node.
        for i in 0..graph.node_count() {
            let n = NodeId(i as u32);
            if graph.node(n).dead {
                continue;
            }
            for mode in crate::split::Mode::ALL {
                for edge in crate::split::Edge::ALL {
                    let (a, b) = (fresh.at(n)[mode][edge], inc.at(n)[mode][edge]);
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "at mismatch on {}: {a} vs {b}",
                        graph.node(n).name
                    );
                    let (a, b) = (fresh.rat(n)[mode][edge], inc.rat(n)[mode][edge]);
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "rat mismatch on {}: {a} vs {b}",
                        graph.node(n).name
                    );
                }
            }
        }
    }

    #[test]
    fn initial_state_matches_full_analysis() {
        let (g, _) = design();
        let ctx = Context::nominal(&g);
        let timer = IncrementalTimer::new(&g, ctx, AnalysisOptions::default()).unwrap();
        assert_matches_full(&timer, &g);
    }

    #[test]
    fn po_load_update_matches_full_recompute() {
        let (g, _) = design();
        let ctx = Context::nominal(&g);
        let mut timer = IncrementalTimer::new(&g, ctx, AnalysisOptions::default()).unwrap();
        for load in [1.0, 17.5, 44.0, 3.2] {
            timer.set_po_load(0, load).unwrap();
            assert_matches_full(&timer, &g);
        }
        assert_eq!(timer.stats().updates, 4);
        assert!(timer.stats().forward_recomputed > 0);
    }

    #[test]
    fn pi_update_matches_full_recompute() {
        let (g, _) = design();
        let ctx = Context::nominal(&g);
        let mut timer = IncrementalTimer::new(&g, ctx, AnalysisOptions::default()).unwrap();
        timer
            .set_pi(0, PiConstraint { at: Split::new(5.0, 9.0), slew: 77.0 })
            .unwrap();
        assert_matches_full(&timer, &g);
        timer
            .set_pi(1, PiConstraint { at: Split::new(0.0, 0.0), slew: 8.0 })
            .unwrap();
        assert_matches_full(&timer, &g);
    }

    #[test]
    fn po_rat_update_touches_only_backward_cone() {
        let (g, _) = design();
        let ctx = Context::nominal(&g);
        let mut timer = IncrementalTimer::new(&g, ctx, AnalysisOptions::default()).unwrap();
        let fwd_before = timer.stats().forward_recomputed;
        timer.set_po_rat(1, Split::new(-10.0, 900.0)).unwrap();
        assert_eq!(timer.stats().forward_recomputed, fwd_before, "no forward work");
        assert!(timer.stats().backward_recomputed > 0);
        assert_matches_full(&timer, &g);
    }

    #[test]
    fn random_update_sequences_stay_exact() {
        use rand::{Rng, SeedableRng};
        let (g, _) = design();
        let mut sampler = ContextSampler::new(42);
        let ctx = sampler.sample(&g);
        for cppr in [false, true] {
            let mut timer = IncrementalTimer::new(
                &g,
                ctx.clone(),
                AnalysisOptions { cppr, ..Default::default() },
            )
            .unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(99);
            for _ in 0..20 {
                match rng.gen_range(0..3) {
                    0 => {
                        let pi = rng.gen_range(0..g.primary_inputs().len());
                        let base = rng.gen_range(0.0..100.0);
                        timer
                            .set_pi(
                                pi,
                                PiConstraint {
                                    at: Split::new(base, base + rng.gen_range(0.0..20.0)),
                                    slew: rng.gen_range(6.0..150.0),
                                },
                            )
                            .unwrap();
                    }
                    1 => {
                        let po = rng.gen_range(0..g.primary_outputs().len());
                        timer.set_po_load(po, rng.gen_range(1.0..48.0)).unwrap();
                    }
                    _ => {
                        let po = rng.gen_range(0..g.primary_outputs().len());
                        timer
                            .set_po_rat(
                                po,
                                Split::new(
                                    rng.gen_range(-40.0..40.0),
                                    rng.gen_range(400.0..900.0),
                                ),
                            )
                            .unwrap();
                    }
                }
                assert_matches_full(&timer, &g);
            }
        }
    }

    #[test]
    fn incremental_work_is_a_fraction_of_full_work() {
        let (g, _) = design();
        let ctx = Context::nominal(&g);
        let mut timer = IncrementalTimer::new(&g, ctx, AnalysisOptions::default()).unwrap();
        timer.set_po_load(1, 30.0).unwrap();
        let s = timer.stats();
        // Changing z1's load touches g3/Z forward and a short backward cone,
        // not the whole 18-node graph twice.
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
        let ctx = Context::nominal(&g);
        let mut timer = IncrementalTimer::new(&g, ctx, AnalysisOptions::default()).unwrap();
        assert!(timer.set_po_load(99, 1.0).is_err());
        assert!(timer.set_pi(99, PiConstraint { at: Split::new(0.0, 0.0), slew: 1.0 }).is_err());
        assert!(timer.set_po_rat(99, Split::new(0.0, 1.0)).is_err());
    }
}
