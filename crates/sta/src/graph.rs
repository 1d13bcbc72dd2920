//! The pin-level timing graph every analysis runs on.
//!
//! [`ArcGraph`] is the common representation shared by flat designs (lowered
//! from a [`crate::netlist::Netlist`]) and generated macro models (built
//! directly by the macro-model crate). Nodes are pins; arcs are either
//! characterised cell arcs ([`ArcTiming::Table`]), wire arcs
//! ([`ArcTiming::Wire`]), or merged arcs produced by graph reduction
//! ([`ArcTiming::Composed`]).
//!
//! The editing primitives [`ArcGraph::bypass_node`] and
//! [`ArcGraph::coalesce_parallel`] implement the *serial merging* and
//! *parallel merging* of the paper (§5.2); the same bypass operation defines
//! the pin-removal semantics of the timing-sensitivity metric (§4.1), so a
//! pin's TS is exactly the boundary error caused by merging it away.

use crate::liberty::{ArcTables, CellClass, Library, Lut2, PinDirection, TimingSense};
use crate::lut_grid::{LutGrid, Scratch, Source};
use crate::netlist::{Netlist, PortKind};
use crate::split::{Edge, Mode, Split, TransPair};
use crate::{Result, StaError};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifier of a node (pin) in an [`ArcGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Identifier of an arc in an [`ArcGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl ArcId {
    /// The index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Functional role of a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input port; payload is the PI index used by contexts.
    PrimaryInput(u32),
    /// Primary output port; payload is the PO index used by contexts.
    PrimaryOutput(u32),
    /// The clock source port.
    ClockSource,
    /// Flip-flop data pin; payload indexes [`ArcGraph::checks`].
    FfData(u32),
    /// Flip-flop clock pin.
    FfClock,
    /// Flip-flop output pin.
    FfOutput,
    /// Any other (combinational) pin.
    Internal,
}

impl NodeKind {
    /// `true` for boundary ports (PI, PO, clock source).
    #[must_use]
    pub fn is_port(self) -> bool {
        matches!(
            self,
            NodeKind::PrimaryInput(_) | NodeKind::PrimaryOutput(_) | NodeKind::ClockSource
        )
    }
}

/// One node (pin) of the timing graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Pin name (unique within the design).
    pub name: String,
    /// Role.
    pub kind: NodeKind,
    /// Context-independent part of this node's driven load in fF
    /// (wire capacitance plus connected input-pin capacitances). Only
    /// meaningful for nodes that drive a net.
    pub base_load: f64,
    /// PO indices whose context-supplied load adds to this node's load
    /// (the node drives a net connected to those output ports).
    pub po_loads: Vec<u32>,
    /// `true` when the pin belongs to the clock distribution network.
    pub is_clock_network: bool,
    /// Tombstone used by graph editing.
    pub dead: bool,
}

/// Timing behaviour of an arc.
#[derive(Debug, Clone)]
pub enum ArcTiming {
    /// NLDM cell arc: early/late delay+slew tables, load taken at the
    /// arc's target node.
    Table(Split<Arc<ArcTables>>),
    /// Wire arc: fixed extra delay and multiplicative slew degradation.
    Wire {
        /// Extra delay in ps.
        delay: f64,
        /// Slew multiplier (≥ 1.0 stretches transitions).
        degrade: f64,
    },
    /// A merged arc produced by graph reduction; evaluated like
    /// [`ArcTiming::Table`].
    Composed(Split<Arc<ArcTables>>),
}

impl ArcTiming {
    /// Returns the table set if this arc carries tables.
    #[must_use]
    pub fn tables(&self) -> Option<&Split<Arc<ArcTables>>> {
        match self {
            ArcTiming::Table(t) | ArcTiming::Composed(t) => Some(t),
            ArcTiming::Wire { .. } => None,
        }
    }

    /// Number of LUT entries stored by this arc (0 for wire arcs).
    #[must_use]
    pub fn lut_entries(&self) -> usize {
        match self.tables() {
            Some(t) => {
                let per = |at: &ArcTables| {
                    at.delay.rise.len() + at.delay.fall.len() + at.slew.rise.len() + at.slew.fall.len()
                };
                per(&t.early) + per(&t.late)
            }
            None => 0,
        }
    }
}

/// One arc (timing edge) of the graph.
#[derive(Debug, Clone)]
pub struct ArcData {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Unateness.
    pub sense: TimingSense,
    /// Timing behaviour.
    pub timing: ArcTiming,
    /// `true` when the arc lies inside the clock network.
    pub is_clock: bool,
    /// Tombstone used by graph editing.
    pub dead: bool,
}

/// A setup/hold check at a flip-flop data pin.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name (the flip-flop instance name).
    pub name: String,
    /// Data node.
    pub d: NodeId,
    /// Clock node of the same flip-flop.
    pub ck: NodeId,
    /// Output node of the same flip-flop.
    pub q: NodeId,
    /// Setup time in ps.
    pub setup: f64,
    /// Hold time in ps.
    pub hold: f64,
}

/// Guard against pathological serial merges: a bypass that would create more
/// than this many composed arcs is refused (the pin is effectively kept).
pub const MAX_BYPASS_ARCS: usize = 64;

/// The pin-level timing graph.
#[derive(Debug, Clone)]
pub struct ArcGraph {
    name: String,
    nodes: Vec<Node>,
    arcs: Vec<ArcData>,
    fanin: Vec<Vec<u32>>,
    fanout: Vec<Vec<u32>>,
    primary_inputs: Vec<NodeId>,
    primary_outputs: Vec<NodeId>,
    clock_source: Option<NodeId>,
    checks: Vec<Check>,
    topo: Vec<NodeId>,
}

impl ArcGraph {
    /// Creates an empty graph (used by macro-model construction).
    #[must_use]
    pub fn empty(name: impl Into<String>) -> Self {
        ArcGraph {
            name: name.into(),
            nodes: Vec::new(),
            arcs: Vec::new(),
            fanin: Vec::new(),
            fanout: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            clock_source: None,
            checks: Vec::new(),
            topo: Vec::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live (non-tombstoned) nodes.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Number of live arcs.
    #[must_use]
    pub fn live_arcs(&self) -> usize {
        self.arcs.iter().filter(|a| !a.dead).count()
    }

    /// Total node slots including tombstones (valid index bound).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Arc by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn arc(&self, id: ArcId) -> &ArcData {
        &self.arcs[id.index()]
    }

    /// All arcs (including tombstones; check [`ArcData::dead`]).
    #[must_use]
    pub fn arcs(&self) -> &[ArcData] {
        &self.arcs
    }

    /// All nodes (including tombstones; check [`Node::dead`]).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Live incoming arc ids of `n`.
    pub fn fanin(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.fanin[n.index()].iter().map(|&i| ArcId(i)).filter(move |&a| !self.arcs[a.index()].dead)
    }

    /// Live outgoing arc ids of `n`.
    pub fn fanout(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.fanout[n.index()].iter().map(|&i| ArcId(i)).filter(move |&a| !self.arcs[a.index()].dead)
    }

    /// Live in-degree of `n`.
    #[must_use]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.fanin(n).count()
    }

    /// Live out-degree of `n`.
    #[must_use]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.fanout(n).count()
    }

    /// Primary input nodes, in context order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NodeId] {
        &self.primary_inputs
    }

    /// Primary output nodes, in context order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[NodeId] {
        &self.primary_outputs
    }

    /// The clock source node, if any.
    #[must_use]
    pub fn clock_source(&self) -> Option<NodeId> {
        self.clock_source
    }

    /// Setup/hold checks.
    #[must_use]
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Topological order over live nodes (dead nodes are skipped by
    /// consumers; the order remains valid across [`ArcGraph::bypass_node`]
    /// edits because bypass only adds arcs between nodes already ordered).
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Effective load (fF) of a driving node given context PO loads indexed
    /// by PO position.
    #[must_use]
    pub fn load_of(&self, n: NodeId, po_loads: &[f64]) -> f64 {
        let node = &self.nodes[n.index()];
        let extra: f64 =
            node.po_loads.iter().map(|&p| po_loads.get(p as usize).copied().unwrap_or(0.0)).sum();
        node.base_load + extra
    }

    /// Total LUT entries across live arcs (model-size accounting).
    #[must_use]
    pub fn lut_entries(&self) -> usize {
        self.arcs.iter().filter(|a| !a.dead).map(|a| a.timing.lut_entries()).sum()
    }

    /// Rough memory footprint of the graph structure in bytes.
    #[must_use]
    pub fn memory_estimate(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + n.name.len() + n.po_loads.len() * 4)
            .sum();
        let arc_bytes = self.arcs.len() * std::mem::size_of::<ArcData>();
        let lut_bytes = self.lut_entries() * std::mem::size_of::<f64>();
        let adj_bytes: usize =
            self.fanin.iter().chain(&self.fanout).map(|v| v.len() * 4 + 24).sum();
        node_bytes + arc_bytes + lut_bytes + adj_bytes + self.topo.len() * 4
    }

    // ------------------------------------------------------------------
    // Construction primitives (used by lowering and by macro models).
    // ------------------------------------------------------------------

    /// Adds a node and returns its id. Registers ports/checks by kind.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        match kind {
            NodeKind::PrimaryInput(_) => self.primary_inputs.push(id),
            NodeKind::PrimaryOutput(_) => self.primary_outputs.push(id),
            NodeKind::ClockSource => self.clock_source = Some(id),
            _ => {}
        }
        self.nodes.push(Node {
            name: name.into(),
            kind,
            base_load: 0.0,
            po_loads: Vec::new(),
            is_clock_network: false,
            dead: false,
        });
        self.fanin.push(Vec::new());
        self.fanout.push(Vec::new());
        id
    }

    /// Adds an arc and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_arc(
        &mut self,
        from: NodeId,
        to: NodeId,
        sense: TimingSense,
        timing: ArcTiming,
        is_clock: bool,
    ) -> ArcId {
        assert!(from.index() < self.nodes.len() && to.index() < self.nodes.len());
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push(ArcData { from, to, sense, timing, is_clock, dead: false });
        self.fanout[from.index()].push(id.0);
        self.fanin[to.index()].push(id.0);
        id
    }

    /// Registers a setup/hold check. The data node's kind is updated to
    /// reference it.
    pub fn add_check(&mut self, check: Check) -> usize {
        let idx = self.checks.len();
        self.nodes[check.d.index()].kind = NodeKind::FfData(idx as u32);
        self.checks.push(check);
        idx
    }

    /// Mutable access to a node (for lowering / generators).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Mutable access to an arc (LUT compression rewrites arc tables).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn arc_mut(&mut self, id: ArcId) -> &mut ArcData {
        &mut self.arcs[id.index()]
    }

    /// Renames the graph (macro models get derived names).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Recomputes the topological order.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalCycle`] when live arcs form a cycle.
    pub fn rebuild_topo(&mut self) -> Result<()> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for a in self.arcs.iter().filter(|a| !a.dead) {
            if !self.nodes[a.from.index()].dead && !self.nodes[a.to.index()].dead {
                indeg[a.to.index()] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n)
            .filter(|&i| !self.nodes[i].dead && indeg[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i as u32));
            for &ai in &self.fanout[i] {
                let arc = &self.arcs[ai as usize];
                if arc.dead || self.nodes[arc.to.index()].dead {
                    continue;
                }
                let t = arc.to.index();
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        let live = self.nodes.iter().filter(|x| !x.dead).count();
        if order.len() != live {
            return Err(StaError::CombinationalCycle(live - order.len()));
        }
        self.topo = order;
        Ok(())
    }

    /// Marks the clock network: every node reachable from the clock source
    /// without passing *through* a flip-flop clock pin, and every arc between
    /// two marked nodes. Returns the number of marked nodes.
    pub fn mark_clock_network(&mut self) -> usize {
        for node in &mut self.nodes {
            node.is_clock_network = false;
        }
        for arc in &mut self.arcs {
            arc.is_clock = false;
        }
        let Some(src) = self.clock_source else { return 0 };
        let mut stack = vec![src];
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            let node = &mut self.nodes[n.index()];
            if node.dead || node.is_clock_network {
                continue;
            }
            node.is_clock_network = true;
            count += 1;
            if matches!(node.kind, NodeKind::FfClock) {
                continue; // clock terminates at FF clock pins
            }
            let outs: Vec<u32> = self.fanout[n.index()].clone();
            for ai in outs {
                let (to, dead) = {
                    let a = &self.arcs[ai as usize];
                    (a.to, a.dead)
                };
                if !dead && !self.nodes[to.index()].dead {
                    stack.push(to);
                }
            }
        }
        for ai in 0..self.arcs.len() {
            let (from, to, dead) =
                (self.arcs[ai].from, self.arcs[ai].to, self.arcs[ai].dead);
            if !dead
                && self.nodes[from.index()].is_clock_network
                && self.nodes[to.index()].is_clock_network
            {
                self.arcs[ai].is_clock = true;
            }
        }
        count
    }

    // ------------------------------------------------------------------
    // Lowering from a netlist.
    // ------------------------------------------------------------------

    /// Lowers a validated netlist to a timing graph against its library.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalCycle`] for cyclic combinational
    /// logic.
    pub fn from_netlist(netlist: &Netlist, library: &Library) -> Result<Self> {
        let mut g = ArcGraph::empty(netlist.name());
        let mut pi_idx = 0u32;
        let mut po_idx = 0u32;
        // One node per netlist pin, same index.
        for pin in netlist.pins() {
            let kind = match pin.port {
                Some(PortKind::Input) => {
                    let k = NodeKind::PrimaryInput(pi_idx);
                    pi_idx += 1;
                    k
                }
                Some(PortKind::Output) => {
                    let k = NodeKind::PrimaryOutput(po_idx);
                    po_idx += 1;
                    k
                }
                Some(PortKind::Clock) => NodeKind::ClockSource,
                None => {
                    let Some(owner) = pin.cell else {
                        // The netlist builder guarantees every non-port pin
                        // has an owning cell; report instead of panicking.
                        return Err(StaError::IllegalEdit(format!(
                            "pin #{} has neither a port nor an owning cell",
                            g.nodes.len()
                        )));
                    };
                    let cell = netlist.cell(owner);
                    let tmpl = library.template_at(cell.template);
                    match (&tmpl.sequential, pin.direction) {
                        (Some(seq), _) if pin.template_pin == seq.d_pin => NodeKind::Internal, // patched below
                        (Some(seq), _) if pin.template_pin == seq.ck_pin => NodeKind::FfClock,
                        (Some(seq), _) if pin.template_pin == seq.q_pin => NodeKind::FfOutput,
                        (_, PinDirection::Clock) => NodeKind::FfClock,
                        _ => NodeKind::Internal,
                    }
                }
            };
            g.add_node(pin.name.clone(), kind);
        }
        // Net arcs, loads, and PO load attachment.
        for net in netlist.nets() {
            let driver = NodeId(net.driver.0);
            let mut load = net.parasitics.wire_cap;
            for (i, &sink) in net.sinks.iter().enumerate() {
                let sp = netlist.pin(sink);
                load += sp.cap;
                if let Some(PortKind::Output) = sp.port {
                    if let NodeKind::PrimaryOutput(p) = g.nodes[sink.0 as usize].kind {
                        g.nodes[driver.index()].po_loads.push(p);
                    }
                }
                g.add_arc(
                    driver,
                    NodeId(sink.0),
                    TimingSense::PositiveUnate,
                    ArcTiming::Wire {
                        delay: net.parasitics.sink_delay(i),
                        degrade: net.parasitics.degrade(),
                    },
                    false,
                );
            }
            g.nodes[driver.index()].base_load = load;
        }
        // Cell arcs and checks.
        for cell in netlist.cells() {
            let tmpl = library.template_at(cell.template);
            for arc in &tmpl.arcs {
                let from = NodeId(cell.pins[arc.from_pin].0);
                let to = NodeId(cell.pins[arc.to_pin].0);
                g.add_arc(from, to, arc.sense, ArcTiming::Table(arc.tables.clone()), false);
            }
            if let Some(seq) = &tmpl.sequential {
                let d = NodeId(cell.pins[seq.d_pin].0);
                let ck = NodeId(cell.pins[seq.ck_pin].0);
                let q = NodeId(cell.pins[seq.q_pin].0);
                g.add_check(Check {
                    name: cell.name.clone(),
                    d,
                    ck,
                    q,
                    setup: seq.setup,
                    hold: seq.hold,
                });
            }
        }
        // Clock-buffer cells get their arcs flagged via network marking.
        let _ = library
            .templates()
            .iter()
            .filter(|t| t.class == CellClass::ClockBuffer)
            .count();
        g.mark_clock_network();
        g.rebuild_topo()?;
        Ok(g)
    }

    // ------------------------------------------------------------------
    // Arc evaluation shared by propagation and composition.
    // ------------------------------------------------------------------

    /// Evaluates an arc's delay and output slew for one mode and output edge
    /// given input slew and output load.
    #[must_use]
    pub fn eval_arc(
        arc: &ArcData,
        mode: Mode,
        out_edge: Edge,
        in_slew: f64,
        out_load: f64,
    ) -> (f64, f64) {
        match &arc.timing {
            ArcTiming::Table(t) | ArcTiming::Composed(t) => {
                let tab = &t[mode];
                (
                    tab.delay[out_edge].value(in_slew, out_load),
                    tab.slew[out_edge].value(in_slew, out_load),
                )
            }
            ArcTiming::Wire { delay, degrade } => (*delay, in_slew * degrade),
        }
    }

    // ------------------------------------------------------------------
    // Graph editing: serial / parallel merging.
    // ------------------------------------------------------------------

    /// Whether `n` is eligible for removal by [`ArcGraph::bypass_node`]:
    /// a live internal (non-port, non-flip-flop) pin whose bypass fan-in ×
    /// fan-out product stays within [`MAX_BYPASS_ARCS`].
    #[must_use]
    pub fn can_bypass(&self, n: NodeId) -> bool {
        self.can_bypass_with_limit(n, MAX_BYPASS_ARCS)
    }

    /// Like [`ArcGraph::can_bypass`] with an explicit fan-in × fan-out
    /// budget (ETM-style full composition uses a much larger one).
    #[must_use]
    pub fn can_bypass_with_limit(&self, n: NodeId, limit: usize) -> bool {
        let node = &self.nodes[n.index()];
        if node.dead || node.kind != NodeKind::Internal {
            return false;
        }
        let fi = self.in_degree(n);
        let fo = self.out_degree(n);
        fi * fo <= limit
    }

    /// Removes node `n` by serially merging every in-arc with every out-arc
    /// (the paper's pin-removal / serial-merging operation). The node's load
    /// is frozen at its context-independent `base_load`, which is exactly
    /// why removing a *timing-variant* pin introduces boundary error.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] when the node is a port, a
    /// flip-flop pin, dead, or the merge would exceed [`MAX_BYPASS_ARCS`].
    pub fn bypass_node(&mut self, n: NodeId) -> Result<()> {
        self.bypass_node_with_limit(n, MAX_BYPASS_ARCS)
    }

    /// Like [`ArcGraph::bypass_node`] with an explicit fan-in × fan-out
    /// budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ArcGraph::bypass_node`], with `limit` replacing
    /// [`MAX_BYPASS_ARCS`].
    pub fn bypass_node_with_limit(&mut self, n: NodeId, limit: usize) -> Result<()> {
        if n.index() >= self.nodes.len() {
            return Err(StaError::NodeOutOfRange(n.index()));
        }
        if !self.can_bypass_with_limit(n, limit) {
            return Err(StaError::IllegalEdit(format!(
                "node {} ({}) cannot be bypassed",
                n,
                self.nodes[n.index()].name
            )));
        }
        let ins: Vec<ArcId> = self.fanin(n).collect();
        let outs: Vec<ArcId> = self.fanout(n).collect();
        let mid_load = self.nodes[n.index()].base_load;
        let was_clock = self.nodes[n.index()].is_clock_network;
        for &ia in &ins {
            for &oa in &outs {
                let composed = self.compose_arcs(ia, oa, mid_load);
                let (from, to) = (self.arcs[ia.index()].from, self.arcs[oa.index()].to);
                let sense = compose_sense(self.arcs[ia.index()].sense, self.arcs[oa.index()].sense);
                let is_clock =
                    was_clock && self.arcs[ia.index()].is_clock && self.arcs[oa.index()].is_clock;
                self.add_arc(from, to, sense, composed, is_clock);
            }
        }
        for a in ins.into_iter().chain(outs) {
            self.arcs[a.index()].dead = true;
        }
        self.nodes[n.index()].dead = true;
        Ok(())
    }

    /// Composes arc `a` (into the removed node) with arc `b` (out of it),
    /// freezing the intermediate load at `mid_load`.
    fn compose_arcs(&self, a: ArcId, b: ArcId, mid_load: f64) -> ArcTiming {
        compose_arc_pair(&self.arcs[a.index()], &self.arcs[b.index()], mid_load)
    }

    /// Parallel merging: collapses all live arcs sharing `(from, to)` into a
    /// single arc taking the mode-worst delay/slew at every table sample.
    /// Returns the number of arcs removed.
    pub fn coalesce_parallel(&mut self, from: NodeId, to: NodeId) -> usize {
        // Both adjacency lists hold arc ids in ascending order (initial
        // build and `add_arc` only append), so filtering either side yields
        // the identical group in the identical order. Scan whichever raw
        // list is shorter: during keep-none merges a hub's fanout can reach
        // tens of thousands of entries while the target's fanin stays
        // small, and always scanning the fanout made merging quadratic in
        // hub degree.
        let group: Vec<ArcId> =
            if self.fanout[from.index()].len() <= self.fanin[to.index()].len() {
                self.fanout(from).filter(|&a| self.arcs[a.index()].to == to).collect()
            } else {
                self.fanin(to).filter(|&a| self.arcs[a.index()].from == from).collect()
            };
        if group.len() < 2 {
            return 0;
        }
        let merged = merge_parallel_group(group.iter().map(|&a| &self.arcs[a.index()]));
        match merged {
            ParallelMerge::KeepFirst => {
                for &a in &group[1..] {
                    self.arcs[a.index()].dead = true;
                }
            }
            ParallelMerge::Replace { sense, timing, is_clock } => {
                for &a in &group {
                    self.arcs[a.index()].dead = true;
                }
                self.add_arc(from, to, sense, timing, is_clock);
            }
        }
        group.len() - 1
    }

    /// Kills every node whose entry in `keep` is `false` (along with all
    /// arcs touching it) and rebuilds the topological order. Used by ILM
    /// extraction to drop register-to-register internals wholesale; unlike
    /// [`ArcGraph::bypass_node`] no composed arcs are created.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] if `keep.len()` mismatches the node
    /// count, and propagates [`StaError::CombinationalCycle`] from the topo
    /// rebuild (cannot happen when removing nodes from a DAG).
    pub fn retain_nodes(&mut self, keep: &[bool]) -> Result<()> {
        if keep.len() != self.nodes.len() {
            return Err(StaError::IllegalEdit(format!(
                "keep mask has {} entries for {} nodes",
                keep.len(),
                self.nodes.len()
            )));
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !keep[i] {
                node.dead = true;
            }
        }
        for arc in &mut self.arcs {
            if !keep[arc.from.index()] || !keep[arc.to.index()] {
                arc.dead = true;
            }
        }
        self.rebuild_topo()
    }

    /// Deletes a dangling node (no live in-arcs or no live out-arcs) along
    /// with its remaining arcs. Ports, FF pins and clock-network nodes are
    /// never deleted.
    ///
    /// Returns `true` if the node was removed.
    pub fn prune_dangling(&mut self, n: NodeId) -> bool {
        let node = &self.nodes[n.index()];
        if node.dead
            || node.kind != NodeKind::Internal
            || node.is_clock_network
            || (self.in_degree(n) > 0 && self.out_degree(n) > 0)
        {
            return false;
        }
        let arcs: Vec<ArcId> = self.fanin(n).chain(self.fanout(n)).collect();
        for a in arcs {
            self.arcs[a.index()].dead = true;
        }
        self.nodes[n.index()].dead = true;
        true
    }

    /// Structural levels: minimum arc count from any PI or clock source to
    /// each node (`u32::MAX` for unreachable nodes).
    #[must_use]
    pub fn levels_from_inputs(&self) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.nodes.len()];
        for id in &self.topo {
            let i = id.index();
            if self.nodes[i].dead {
                continue;
            }
            if matches!(
                self.nodes[i].kind,
                NodeKind::PrimaryInput(_) | NodeKind::ClockSource
            ) {
                level[i] = 0;
            }
            if level[i] == u32::MAX {
                continue;
            }
            for a in self.fanout(*id) {
                let t = self.arcs[a.index()].to.index();
                level[t] = level[t].min(level[i] + 1);
            }
        }
        level
    }

    /// Structural levels: minimum arc count from each node to any PO or FF
    /// data pin (`u32::MAX` for nodes that reach no endpoint).
    #[must_use]
    pub fn levels_to_outputs(&self) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.nodes.len()];
        for id in self.topo.iter().rev() {
            let i = id.index();
            if self.nodes[i].dead {
                continue;
            }
            if matches!(self.nodes[i].kind, NodeKind::PrimaryOutput(_) | NodeKind::FfData(_)) {
                level[i] = 0;
            }
            if level[i] == u32::MAX {
                continue;
            }
            for a in self.fanin(*id) {
                let f = self.arcs[a.index()].from.index();
                level[f] = level[f].min(level[i] + 1);
            }
        }
        level
    }

    /// Validates internal invariants (adjacency symmetry, port registration,
    /// topo covers all live nodes). Intended for tests and debug builds.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        for (i, a) in self.arcs.iter().enumerate() {
            if a.dead {
                continue;
            }
            if self.nodes[a.from.index()].dead || self.nodes[a.to.index()].dead {
                return Err(StaError::IllegalEdit(format!("arc {i} touches dead node")));
            }
            if !self.fanout[a.from.index()].contains(&(i as u32)) {
                return Err(StaError::IllegalEdit(format!("arc {i} missing from fanout")));
            }
            if !self.fanin[a.to.index()].contains(&(i as u32)) {
                return Err(StaError::IllegalEdit(format!("arc {i} missing from fanin")));
            }
        }
        let live = self.nodes.iter().filter(|n| !n.dead).count();
        let in_topo = self.topo.iter().filter(|n| !self.nodes[n.index()].dead).count();
        if in_topo != live {
            return Err(StaError::IllegalEdit(format!(
                "topo covers {in_topo} of {live} live nodes"
            )));
        }
        Ok(())
    }
}

impl ArcGraph {
    /// Reassembles a graph from raw parts (used by
    /// [`crate::view::GraphView::materialize`]). Adjacency lists are rebuilt
    /// from *all* arcs — dead ones included — in arc-id order, reproducing
    /// exactly the tombstone layout that in-place editing of the original
    /// graph would have left behind; the topological order is then
    /// recomputed over the live subgraph.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalCycle`] when the live arcs form a
    /// cycle, and [`StaError::IllegalEdit`] when an arc endpoint is out of
    /// range.
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        arcs: Vec<ArcData>,
        primary_inputs: Vec<NodeId>,
        primary_outputs: Vec<NodeId>,
        clock_source: Option<NodeId>,
        checks: Vec<Check>,
    ) -> Result<Self> {
        let n = nodes.len();
        let mut fanin: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, a) in arcs.iter().enumerate() {
            if a.from.index() >= n || a.to.index() >= n {
                return Err(StaError::IllegalEdit(format!(
                    "arc {i} endpoint out of range ({} nodes)",
                    n
                )));
            }
            fanout[a.from.index()].push(i as u32);
            fanin[a.to.index()].push(i as u32);
        }
        let mut g = ArcGraph {
            name,
            nodes,
            arcs,
            fanin,
            fanout,
            primary_inputs,
            primary_outputs,
            clock_source,
            checks,
            topo: Vec::new(),
        };
        g.rebuild_topo()?;
        Ok(g)
    }
}

/// Outcome of merging a parallel-arc group, computed by
/// [`merge_parallel_group`] without mutating any graph.
pub enum ParallelMerge {
    /// All members are bit-identical wire arcs: keep the first, kill the
    /// rest.
    KeepFirst,
    /// Replace the whole group by one mode-worst composed arc.
    Replace {
        /// Sense of the replacement arc.
        sense: TimingSense,
        /// Timing of the replacement arc.
        timing: ArcTiming,
        /// Clock flag of the replacement arc.
        is_clock: bool,
    },
}

impl ArcData {
    /// This arc's delay/slew source for `out_edge` at `mode`, as the
    /// grid kernel folds it.
    fn source(&self, mode: Mode, out_edge: Edge) -> Source<'_> {
        match &self.timing {
            ArcTiming::Table(t) | ArcTiming::Composed(t) => {
                Source::Tables { delay: &t[mode].delay[out_edge], slew: &t[mode].slew[out_edge] }
            }
            ArcTiming::Wire { delay, degrade } => Source::Wire { delay: *delay, degrade: *degrade },
        }
    }
}

/// Serially composes arc `arc_a` (into a removed node) with arc `arc_b`
/// (out of it), freezing the intermediate load at `mid_load`. Pure — shared
/// by [`ArcGraph::bypass_node`] and the copy-on-write
/// [`crate::view::GraphView`] so both produce bit-identical composed arcs.
///
/// Each output table folds the mid edges feeding its output edge in
/// [`TimingSense::input_edges`] order through one [`LutGrid`]; the first
/// stage drives the frozen mid load, so it is evaluated once per row and
/// mid edge at each corner.
#[must_use]
pub fn compose_arc_pair(arc_a: &ArcData, arc_b: &ArcData, mid_load: f64) -> ArcTiming {
    if let (ArcTiming::Wire { delay: d1, degrade: g1 }, ArcTiming::Wire { delay: d2, degrade: g2 }) =
        (&arc_a.timing, &arc_b.timing)
    {
        return ArcTiming::Wire { delay: d1 + d2, degrade: g1 * g2 };
    }
    // Choose axes: input-slew axis from the upstream table (or the
    // downstream one if upstream is a wire), load axis from downstream.
    let (rows, cols) = match (arc_a.timing.tables(), arc_b.timing.tables()) {
        (Some(ta), Some(tb)) => {
            (ta.late.delay.rise.shared_slew_axis(), tb.late.delay.rise.shared_load_axis())
        }
        (Some(ta), None) => {
            (ta.late.delay.rise.shared_slew_axis(), ta.late.delay.rise.shared_load_axis())
        }
        (None, Some(tb)) => {
            (tb.late.delay.rise.shared_slew_axis(), tb.late.delay.rise.shared_load_axis())
        }
        // Both sides are wires — the early return above already
        // handled this; stay total rather than panic.
        (None, None) => return ArcTiming::Wire { delay: 0.0, degrade: 1.0 },
    };
    let mut grid = LutGrid::new(rows, cols);
    // The first stage at each row, per mid edge: shared by both output
    // edges of a corner.
    let (mut first_rise, mut first_fall) = (Scratch::default(), Scratch::default());
    let tables = Split::from_fn(|mode| {
        let n = rows.len();
        grid.at_rows(arc_a.source(mode, Edge::Rise), mid_load, first_rise.resize(n));
        grid.at_rows(arc_a.source(mode, Edge::Fall), mid_load, first_fall.resize(n));
        let mut per_edge = |out_edge: Edge| -> (Lut2, Lut2) {
            let (mut delay, mut slew) = (grid.neutral(mode), grid.neutral(mode));
            let second = arc_b.source(mode, out_edge);
            for &mid_edge in arc_b.sense.input_edges(out_edge) {
                let first = match mid_edge {
                    Edge::Rise => first_rise.get(),
                    Edge::Fall => first_fall.get(),
                };
                grid.fold(mode, &mut delay, &mut slew, second, |i, _| first[i]);
            }
            (grid.table(delay), grid.table(slew))
        };
        let (dr, sr) = per_edge(Edge::Rise);
        let (df, sf) = per_edge(Edge::Fall);
        Arc::new(ArcTables {
            delay: TransPair::new(dr, df),
            slew: TransPair::new(sr, sf),
        })
    });
    ArcTiming::Composed(tables)
}

/// Computes the parallel merge of a group of arcs sharing `(from, to)`,
/// in group order, without mutating any graph. Pure — shared by
/// [`ArcGraph::coalesce_parallel`] and the copy-on-write
/// [`crate::view::GraphView`] so both produce bit-identical merged arcs.
///
/// `members` is walked several times and collects nothing, so a caller
/// can pass a view over arc ids it already holds without allocating.
/// Each output table folds the members in group order through one
/// [`LutGrid`]. Callers guarantee at least two members.
#[must_use]
pub fn merge_parallel_group<'a>(
    members: impl Iterator<Item = &'a ArcData> + Clone,
) -> ParallelMerge {
    let Some(first) = members.clone().next() else {
        return ParallelMerge::KeepFirst;
    };
    // All-wire groups fold into one wire arc (worst = max delay for the
    // late corner; we keep a single wire with the max delay, which is
    // conservative for late and optimistic for early — so only fold
    // wires when they are identical; otherwise go through tables).
    let all_same_wire = members.clone().all(|m| match &m.timing {
        ArcTiming::Wire { delay, degrade } => {
            if let ArcTiming::Wire { delay: d0, degrade: g0 } = &first.timing {
                (delay - d0).abs() < 1e-12 && (degrade - g0).abs() < 1e-12
            } else {
                false
            }
        }
        _ => false,
    });
    if all_same_wire {
        return ParallelMerge::KeepFirst;
    }
    let wire_axes: (Arc<[f64]>, Arc<[f64]>);
    let (rows, cols) = match members.clone().find_map(|m| m.timing.tables()) {
        Some(t) => (t.late.delay.rise.shared_slew_axis(), t.late.delay.rise.shared_load_axis()),
        None => {
            wire_axes = ([5.0, 320.0].into(), [1.0, 64.0].into());
            (&wire_axes.0, &wire_axes.1)
        }
    };
    let merged_sense = members
        .clone()
        .map(|m| m.sense)
        .reduce(|a, b| if a == b { a } else { TimingSense::NonUnate })
        .unwrap_or(TimingSense::NonUnate);
    let mut grid = LutGrid::new(rows, cols);
    let tables = Split::from_fn(|mode| {
        let mut per_edge = |out_edge: Edge| -> (Lut2, Lut2) {
            let (mut delay, mut slew) = (grid.neutral(mode), grid.neutral(mode));
            for m in members.clone() {
                // No delay offset: -0.0 is the additive identity.
                grid.fold(mode, &mut delay, &mut slew, m.source(mode, out_edge), |_, in_slew| {
                    (-0.0, in_slew)
                });
            }
            (grid.table(delay), grid.table(slew))
        };
        let (dr, sr) = per_edge(Edge::Rise);
        let (df, sf) = per_edge(Edge::Fall);
        Arc::new(ArcTables { delay: TransPair::new(dr, df), slew: TransPair::new(sr, sf) })
    });
    let is_clock = members.clone().all(|m| m.is_clock);
    ParallelMerge::Replace { sense: merged_sense, timing: ArcTiming::Composed(tables), is_clock }
}

/// Sense of a two-arc serial composition.
#[must_use]
pub fn compose_sense(a: TimingSense, b: TimingSense) -> TimingSense {
    use TimingSense::{NegativeUnate, NonUnate, PositiveUnate};
    match (a, b) {
        (NonUnate, _) | (_, NonUnate) => NonUnate,
        (PositiveUnate, x) => x,
        (NegativeUnate, PositiveUnate) => NegativeUnate,
        (NegativeUnate, NegativeUnate) => PositiveUnate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liberty::Library;
    use crate::lut_oracle::{compose_arc_pair_two_pass, merge_tables_two_pass};
    use crate::netlist::NetlistBuilder;

    fn chain_graph(n_inv: usize) -> (ArcGraph, Library) {
        let lib = Library::synthetic(1);
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a").unwrap();
        let z = b.output("z").unwrap();
        let cells: Vec<_> =
            (0..n_inv).map(|i| b.cell(&format!("u{i}"), "INVX1").unwrap()).collect();
        let mut prev = a;
        for (i, &c) in cells.iter().enumerate() {
            b.connect(&format!("n{i}"), prev, &[b.pin_of(c, "A").unwrap()]).unwrap();
            prev = b.pin_of(c, "Z").unwrap();
        }
        b.connect("n_out", prev, &[z]).unwrap();
        let netlist = b.finish().unwrap();
        let g = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        (g, lib)
    }

    #[test]
    fn lowering_counts_nodes_and_arcs() {
        let (g, _) = chain_graph(3);
        // nodes: a, z, 3 cells × 2 pins = 8
        assert_eq!(g.live_nodes(), 8);
        // arcs: 4 net arcs + 3 cell arcs = 7
        assert_eq!(g.live_arcs(), 7);
        assert_eq!(g.primary_inputs().len(), 1);
        assert_eq!(g.primary_outputs().len(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn topo_respects_arc_direction() {
        let (g, _) = chain_graph(4);
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.node_count()];
            for (i, n) in g.topo_order().iter().enumerate() {
                pos[n.index()] = i;
            }
            pos
        };
        for a in g.arcs().iter().filter(|a| !a.dead) {
            assert!(pos[a.from.index()] < pos[a.to.index()]);
        }
    }

    #[test]
    fn load_accumulates_wire_and_pin_caps() {
        let (g, _) = chain_graph(1);
        // "a" drives net n0 with one INVX1/A sink; load > pin cap alone
        let a = g.primary_inputs()[0];
        let load = g.load_of(a, &[]);
        assert!(load > 1.0, "load {load} should include wire + pin cap");
    }

    #[test]
    fn po_load_is_context_dependent() {
        let (g, _) = chain_graph(1);
        // u0/Z drives the PO; its load must grow with the context PO load.
        let driver = g
            .nodes()
            .iter()
            .position(|n| n.name == "u0/Z")
            .map(|i| NodeId(i as u32))
            .unwrap();
        let l0 = g.load_of(driver, &[0.0]);
        let l1 = g.load_of(driver, &[10.0]);
        assert!((l1 - l0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn bypass_single_inverter_pin() {
        let (mut g, _) = chain_graph(2);
        // u0/Z is internal with 1 in (cell arc) and 1 out (net arc).
        let n = g
            .nodes()
            .iter()
            .position(|x| x.name == "u0/Z")
            .map(|i| NodeId(i as u32))
            .unwrap();
        let arcs_before = g.live_arcs();
        g.bypass_node(n).unwrap();
        g.validate().unwrap();
        assert_eq!(g.live_arcs(), arcs_before - 1); // 2 removed, 1 added
        assert!(g.node(n).dead);
    }

    #[test]
    fn bypass_refuses_ports_and_ff_pins() {
        let (mut g, _) = chain_graph(1);
        let pi = g.primary_inputs()[0];
        assert!(g.bypass_node(pi).is_err());
        let po = g.primary_outputs()[0];
        assert!(g.bypass_node(po).is_err());
    }

    #[test]
    fn bypass_preserves_end_to_end_delay() {
        // Compose u0/Z out of a 2-inverter chain and verify the composed arc
        // delay equals the sum of the original arcs at a sample point.
        let (g0, _) = chain_graph(2);
        let mut g = g0.clone();
        let mid = g
            .nodes()
            .iter()
            .position(|x| x.name == "u0/Z")
            .map(|i| NodeId(i as u32))
            .unwrap();
        let mid_load = g.node(mid).base_load;
        // original: cell arc (u0/A -> u0/Z), then wire arc (u0/Z -> u1/A)
        let cell_arc = g0.fanin(mid).next().unwrap();
        let wire_arc = g0.fanout(mid).next().unwrap();
        let (d1, s1) =
            ArcGraph::eval_arc(g0.arc(cell_arc), Mode::Late, Edge::Rise, 20.0, mid_load);
        let (d2, _) = ArcGraph::eval_arc(g0.arc(wire_arc), Mode::Late, Edge::Rise, s1, 0.0);
        g.bypass_node(mid).unwrap();
        let composed = g
            .arcs()
            .iter()
            .position(|a| !a.dead && a.from == g0.arc(cell_arc).from)
            .map(|i| ArcId(i as u32))
            .unwrap();
        let (dc, _) = ArcGraph::eval_arc(g.arc(composed), Mode::Late, Edge::Rise, 20.0, 0.0);
        assert!(
            (dc - (d1 + d2)).abs() < 1e-6,
            "composed {dc} vs sum {}",
            d1 + d2
        );
    }

    #[test]
    fn compose_sense_table() {
        use TimingSense::{NegativeUnate, NonUnate, PositiveUnate};
        assert_eq!(compose_sense(PositiveUnate, PositiveUnate), PositiveUnate);
        assert_eq!(compose_sense(PositiveUnate, NegativeUnate), NegativeUnate);
        assert_eq!(compose_sense(NegativeUnate, NegativeUnate), PositiveUnate);
        assert_eq!(compose_sense(NegativeUnate, PositiveUnate), NegativeUnate);
        assert_eq!(compose_sense(NonUnate, PositiveUnate), NonUnate);
        assert_eq!(compose_sense(NegativeUnate, NonUnate), NonUnate);
    }

    #[test]
    fn coalesce_parallel_merges_duplicate_arcs() {
        let (mut g, _) = chain_graph(3);
        // bypass u1's both pins to create parallel u0/Z->u2/A path? Instead
        // bypass u1/A then u1/Z, producing one composed arc; duplicate it by
        // a second bypass is not straightforward here, so test directly:
        let from = NodeId(
            g.nodes().iter().position(|x| x.name == "u0/Z").unwrap() as u32
        );
        let to = NodeId(
            g.nodes().iter().position(|x| x.name == "u1/A").unwrap() as u32
        );
        // add a duplicate wire arc, then coalesce
        g.add_arc(
            from,
            to,
            TimingSense::PositiveUnate,
            ArcTiming::Wire { delay: 2.0, degrade: 1.0 },
            false,
        );
        let removed = g.coalesce_parallel(from, to);
        assert_eq!(removed, 1);
        let live: Vec<_> = g.fanout(from).filter(|&a| g.arc(a).to == to).collect();
        assert_eq!(live.len(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn levels_from_inputs_and_to_outputs() {
        let (g, _) = chain_graph(2);
        let lf = g.levels_from_inputs();
        let lt = g.levels_to_outputs();
        let a = g.primary_inputs()[0];
        let z = g.primary_outputs()[0];
        assert_eq!(lf[a.index()], 0);
        assert_eq!(lt[z.index()], 0);
        // a -> u0/A -> u0/Z -> u1/A -> u1/Z -> z : 5 arcs
        assert_eq!(lf[z.index()], 5);
        assert_eq!(lt[a.index()], 5);
    }

    #[test]
    fn clock_network_marking() {
        let lib = Library::synthetic(2);
        let mut b = NetlistBuilder::new("clocked", &lib);
        let clk = b.clock_input("clk").unwrap();
        let d_in = b.input("d").unwrap();
        let q_out = b.output("q").unwrap();
        let cb = b.cell("cb", "CLKBUFX2").unwrap();
        let ff = b.cell("ff", "DFFX1").unwrap();
        b.connect("n_clk", clk, &[b.pin_of(cb, "A").unwrap()]).unwrap();
        b.connect("n_ck", b.pin_of(cb, "Z").unwrap(), &[b.pin_of(ff, "CK").unwrap()])
            .unwrap();
        b.connect("n_d", d_in, &[b.pin_of(ff, "D").unwrap()]).unwrap();
        b.connect("n_q", b.pin_of(ff, "Q").unwrap(), &[q_out]).unwrap();
        let netlist = b.finish().unwrap();
        let g = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let clocked: Vec<&str> = g
            .nodes()
            .iter()
            .filter(|n| n.is_clock_network)
            .map(|n| n.name.as_str())
            .collect();
        assert!(clocked.contains(&"clk"));
        assert!(clocked.contains(&"cb/A"));
        assert!(clocked.contains(&"cb/Z"));
        assert!(clocked.contains(&"ff/CK"));
        assert!(!clocked.contains(&"ff/Q"), "Q is data, not clock");
        assert!(!clocked.contains(&"d"));
        assert_eq!(g.checks().len(), 1);
        let chk = &g.checks()[0];
        assert_eq!(g.node(chk.d).name, "ff/D");
        assert!(matches!(g.node(chk.d).kind, NodeKind::FfData(0)));
    }

    #[test]
    fn prune_dangling_removes_isolated_internal() {
        let (mut g, _) = chain_graph(2);
        let mid = NodeId(g.nodes().iter().position(|x| x.name == "u0/Z").unwrap() as u32);
        g.bypass_node(mid).unwrap();
        // u0/A now feeds only the dead node? No: bypass rewired. Create a
        // genuinely dangling node instead.
        let d = g.add_node("dangling", NodeKind::Internal);
        g.rebuild_topo().unwrap();
        assert!(g.prune_dangling(d));
        assert!(!g.prune_dangling(g.primary_inputs()[0]));
    }

    #[test]
    fn lut_entries_counts_table_arcs() {
        let (g, _) = chain_graph(1);
        // one cell arc: 2 corners × (2 delay + 2 slew) tables × 49 entries
        assert_eq!(g.lut_entries(), 2 * 4 * 49);
        assert!(g.memory_estimate() > 0);
    }

    #[test]
    fn cycle_detection() {
        let mut g = ArcGraph::empty("cyc");
        let a = g.add_node("a", NodeKind::Internal);
        let b = g.add_node("b", NodeKind::Internal);
        g.add_arc(a, b, TimingSense::PositiveUnate, ArcTiming::Wire { delay: 1.0, degrade: 1.0 }, false);
        g.add_arc(b, a, TimingSense::PositiveUnate, ArcTiming::Wire { delay: 1.0, degrade: 1.0 }, false);
        assert!(matches!(g.rebuild_topo(), Err(StaError::CombinationalCycle(_))));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_timing_bits_eq(a: &ArcTiming, b: &ArcTiming, what: &str) {
        match (a, b) {
            (
                ArcTiming::Wire { delay: d1, degrade: g1 },
                ArcTiming::Wire { delay: d2, degrade: g2 },
            ) => {
                assert_eq!(d1.to_bits(), d2.to_bits(), "{what}: wire delay");
                assert_eq!(g1.to_bits(), g2.to_bits(), "{what}: wire degrade");
            }
            (ArcTiming::Composed(ta), ArcTiming::Composed(tb)) => {
                for mode in Mode::ALL {
                    for edge in Edge::ALL {
                        for (la, lb) in [
                            (&ta[mode].delay[edge], &tb[mode].delay[edge]),
                            (&ta[mode].slew[edge], &tb[mode].slew[edge]),
                        ] {
                            assert_eq!(bits(la.slew_axis()), bits(lb.slew_axis()), "{what}");
                            assert_eq!(bits(la.load_axis()), bits(lb.load_axis()), "{what}");
                            assert_eq!(bits(la.values()), bits(lb.values()), "{what}");
                        }
                    }
                }
            }
            _ => panic!("{what}: timing kinds differ"),
        }
    }

    /// A table arc whose delay tables sit on `delay_axes` and whose slew
    /// tables sit on `slew_axes` (early and late corners differ too), with
    /// values from `f(table, slew, load)`.
    fn axes_arc(
        template: &ArcData,
        delay_axes: (&[f64], &[f64]),
        slew_axes: (&[f64], &[f64]),
        f: impl Fn(usize, f64, f64) -> f64,
    ) -> ArcData {
        let tables = Split::from_fn(|mode| {
            let k = 4 * mode.index();
            let lut = |i: usize, (sa, la): (&[f64], &[f64])| {
                Lut2::from_fn(sa.to_vec(), la.to_vec(), |s, l| f(k + i, s, l)).unwrap()
            };
            Arc::new(ArcTables {
                delay: TransPair::new(lut(0, delay_axes), lut(1, delay_axes)),
                slew: TransPair::new(lut(2, slew_axes), lut(3, slew_axes)),
            })
        });
        ArcData { timing: ArcTiming::Table(tables), ..template.clone() }
    }

    /// One Table, one Wire and one Composed arc in each of the three
    /// senses, from the synthetic library's characterised cells, a wire
    /// with a `-0.0` delay, and table arcs off the default grid: delay and slew tables on different
    /// non-default axes, a 20-point axis (longer than the kernel's inline
    /// position buffer), output slews that drive the next stage below and
    /// above its slew axis, and `-0.0` and negative entries.
    fn sampling_arcs() -> Vec<(String, ArcData)> {
        let lib = Library::synthetic(5);
        let mut b = NetlistBuilder::new("mix", &lib);
        let a = b.input("a").unwrap();
        let c = b.input("c").unwrap();
        let z = b.output("z").unwrap();
        let g1 = b.cell("g1", "NAND2X1").unwrap();
        let g2 = b.cell("g2", "BUFX2").unwrap();
        b.connect("n_a", a, &[b.pin_of(g1, "A").unwrap()]).unwrap();
        b.connect("n_c", c, &[b.pin_of(g1, "B").unwrap()]).unwrap();
        b.connect("n_1", b.pin_of(g1, "Z").unwrap(), &[b.pin_of(g2, "A").unwrap()]).unwrap();
        b.connect("n_z", b.pin_of(g2, "Z").unwrap(), &[z]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        let tables: Vec<&ArcData> =
            g.arcs().iter().filter(|x| matches!(x.timing, ArcTiming::Table(_))).collect();
        // A NAND input arc and the buffer arc: two different cells' tables.
        let (t0, t1) = (tables[0], tables[tables.len() - 1]);
        let wire = g.arcs().iter().find(|x| matches!(x.timing, ArcTiming::Wire { .. })).unwrap();
        let composed = ArcData { timing: compose_arc_pair(t0, t1, 3.5), ..t0.clone() };
        let wide: Vec<f64> = (0..20).map(|i| 0.5 * 1.4f64.powi(i)).collect();
        // Delay and slew tables on different axes; slews run from below
        // zero (extrapolating below every slew axis) to ~1500 ps (above
        // them); delays hold -0.0 and negative entries.
        let skewed = axes_arc(
            t0,
            (&[2.0, 7.0, 13.0, 50.0, 300.0], &[0.5, 3.0, 9.0]),
            (&[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0], &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
            |k, s, l| match k % 4 {
                0 if s < 10.0 => -0.0,
                0 | 1 => 0.3 * s - 2.0 * l - k as f64,
                2 => 0.5 * s + l - 20.0,
                _ => 1.5 * s + 0.1 * l * l,
            },
        );
        let wide_arc = axes_arc(t1, (&wide, &wide[..9]), (&wide[3..], &wide), |k, s, l| {
            if k % 4 < 2 {
                (s * 0.01).sin() * 40.0 - l * 0.2 + k as f64
            } else {
                0.8 * s + 0.05 * l - 3.0
            }
        });
        // A wire whose delay is -0.0: a merged cell keeps that sign only if
        // nothing is added to the members' delays.
        let zero_wire =
            ArcData { timing: ArcTiming::Wire { delay: -0.0, degrade: 1.25 }, ..wire.clone() };
        let mut out = Vec::new();
        for sense in [TimingSense::PositiveUnate, TimingSense::NegativeUnate, TimingSense::NonUnate]
        {
            for (kind, arc) in [
                ("nand", t0),
                ("buf", t1),
                ("wire", wire),
                ("zero_wire", &zero_wire),
                ("composed", &composed),
                ("skewed", &skewed),
                ("wide", &wide_arc),
            ] {
                out.push((format!("{kind}/{sense:?}"), ArcData { sense, ..arc.clone() }));
            }
        }
        out
    }

    #[test]
    fn one_pass_lut_sampling_is_bit_identical_to_two_pass() {
        let arcs = sampling_arcs();
        for (na, a) in &arcs {
            for (nb, b) in &arcs {
                // A mid load inside the grid, and one past its top.
                for mid_load in [2.25, 150.0] {
                    let what = format!("compose {na} -> {nb} at {mid_load}");
                    let new = compose_arc_pair(a, b, mid_load);
                    let oracle = compose_arc_pair_two_pass(a, b, mid_load);
                    assert_timing_bits_eq(&new, &oracle, &what);
                }

                let group = [a, b, a];
                match merge_parallel_group(group.iter().copied()) {
                    ParallelMerge::KeepFirst => {
                        assert!(matches!(
                            (&a.timing, &b.timing),
                            (ArcTiming::Wire { .. }, ArcTiming::Wire { .. })
                        ));
                    }
                    ParallelMerge::Replace { timing, .. } => {
                        let what = format!("merge {na} || {nb}");
                        assert_timing_bits_eq(&timing, &merge_tables_two_pass(&group), &what);
                    }
                }
            }
        }
    }
}
