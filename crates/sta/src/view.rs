//! Immutable design core + copy-on-write graph views.
//!
//! The timing-sensitivity metric (§4.1) probes the design once per
//! candidate pin: remove the pin, re-time, measure the boundary error.
//! Cloning the whole [`ArcGraph`] per probe makes TS generation
//! O(pins × contexts × graph) in allocation alone. This module splits the
//! graph into two layers so a probe costs only its own edits:
//!
//! - [`DesignCore`] — the frozen, [`Arc`]-shared part: node and arc
//!   storage, CSR adjacency over the live arcs, ports, checks, topological
//!   order and structural levels. Built once per design, never mutated.
//! - [`GraphView`] — a lightweight overlay recording edits (hidden nodes
//!   and arcs, composed replacement arcs) copy-on-write. Creating a view is
//!   O(1); bypassing a pin touches only its own fan-in × fan-out.
//!
//! Both layers — and the original [`ArcGraph`] — implement the
//! [`TimingGraph`] trait that the propagation engine runs against, so a
//! view can be analysed directly without materialising an edited clone.
//! Edits compose through the *same* pure helpers
//! ([`crate::graph::compose_arc_pair`] / `merge_parallel_group` via
//! [`GraphView::coalesce_parallel`]) that in-place editing uses, which is
//! what makes view-driven results bit-identical to clone-driven ones.

use crate::graph::{
    compose_arc_pair, compose_sense, merge_parallel_group, ArcData, ArcGraph, ArcId, ArcTiming,
    Check, Node, NodeId, NodeKind, ParallelMerge, MAX_BYPASS_ARCS,
};
use crate::idhash::{IdMap, IdSet};
use crate::liberty::{ArcTables, Lut2, TimingSense};
use crate::split::{Split, TransPair};
use crate::{Result, StaError};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

/// The read surface the propagation engine needs from a timing graph.
///
/// Implemented by [`ArcGraph`] (flat designs and macro models),
/// [`DesignCore`] (the frozen share) and [`GraphView`] (copy-on-write
/// overlays). All adjacency iterators yield **live** arcs only.
///
/// Node attributes are exposed through fine-grained accessors
/// (`node_kind`, `node_name`, …) instead of a whole-record getter so that
/// [`DesignCore`] can store nodes struct-of-arrays: at millions of pins,
/// per-node `String`/`Vec` headers dominate the footprint and defeat
/// cache locality on the propagation hot path.
///
/// Note for [`GraphView`]: the per-attribute accessors report the core's
/// stored state, which does not reflect view edits — always use
/// [`TimingGraph::node_dead`] for liveness.
pub trait TimingGraph {
    /// Total node slots including tombstones (valid index bound).
    fn node_count(&self) -> usize;

    /// Functional role of node `id`.
    fn node_kind(&self, id: NodeId) -> NodeKind;

    /// Pin name of node `id`.
    fn node_name(&self, id: NodeId) -> &str;

    /// Context-independent driven load of node `id` in fF.
    fn node_base_load(&self, id: NodeId) -> f64;

    /// Whether node `id` belongs to the clock distribution network.
    fn node_is_clock_network(&self, id: NodeId) -> bool;

    /// PO indices whose context-supplied load adds to node `id`'s load.
    fn node_po_loads(&self, id: NodeId) -> &[u32];

    /// Whether node `id` is dead (tombstoned in the core or hidden by a
    /// view edit).
    fn node_dead(&self, id: NodeId) -> bool;

    /// Arc by id.
    fn arc(&self, id: ArcId) -> &ArcData;

    /// Live incoming arc ids of `n`.
    fn fanin(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_;

    /// Live outgoing arc ids of `n`.
    fn fanout(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_;

    /// Topological order over live nodes (dead nodes may appear and are
    /// skipped by consumers; the order stays valid across bypass edits
    /// because those only add arcs between nodes already ordered).
    fn topo_order(&self) -> &[NodeId];

    /// Primary input nodes, in context order.
    fn primary_inputs(&self) -> &[NodeId];

    /// Primary output nodes, in context order.
    fn primary_outputs(&self) -> &[NodeId];

    /// The clock source node, if any.
    fn clock_source(&self) -> Option<NodeId>;

    /// Setup/hold checks.
    fn checks(&self) -> &[Check];

    /// Live in-degree of `n`.
    fn in_degree(&self, n: NodeId) -> usize {
        self.fanin(n).count()
    }

    /// Live out-degree of `n`.
    fn out_degree(&self, n: NodeId) -> usize {
        self.fanout(n).count()
    }

    /// Effective load (fF) of a driving node given context PO loads indexed
    /// by PO position.
    fn load_of(&self, n: NodeId, po_loads: &[f64]) -> f64 {
        let extra: f64 = self
            .node_po_loads(n)
            .iter()
            .map(|&p| po_loads.get(p as usize).copied().unwrap_or(0.0))
            .sum();
        self.node_base_load(n) + extra
    }

    /// Structural levels: minimum arc count from any PI or clock source to
    /// each node (`u32::MAX` for unreachable nodes). Mirrors
    /// [`ArcGraph::levels_from_inputs`] exactly so AOCV depths agree across
    /// graph representations.
    ///
    /// Returns a [`Cow`] so implementations with precomputed levels
    /// ([`DesignCore`]) can lend their slice instead of cloning it on
    /// every retime/AOCV call.
    fn levels_from_inputs(&self) -> Cow<'_, [u32]> {
        let mut level = vec![u32::MAX; self.node_count()];
        for id in self.topo_order().to_vec() {
            let i = id.index();
            if self.node_dead(id) {
                continue;
            }
            if matches!(self.node_kind(id), NodeKind::PrimaryInput(_) | NodeKind::ClockSource) {
                level[i] = 0;
            }
            if level[i] == u32::MAX {
                continue;
            }
            for a in self.fanout(id) {
                let t = self.arc(a).to.index();
                level[t] = level[t].min(level[i] + 1);
            }
        }
        Cow::Owned(level)
    }

    /// Longest-path dependency schedule for level-parallel propagation, if
    /// this representation carries one ([`DesignCore`] computes it at
    /// freeze; views without inserted nodes inherit the core's). `None`
    /// means callers must fall back to serial topological sweeps.
    fn level_schedule(&self) -> Option<&LevelSchedule> {
        None
    }
}

/// Longest-path level buckets over the live graph: nodes in
/// `level(l)` depend only on nodes in strictly lower levels, so every
/// bucket can be swept in parallel while buckets stay sequential.
///
/// Built once at [`DesignCore::freeze`]. The schedule stays valid for any
/// [`GraphView`] without inserted nodes: hiding arcs only removes
/// dependencies, and every composed/replacement arc `u → w` shortcuts an
/// existing core path, so `level(u) < level(w)` already holds.
#[derive(Debug, Clone, Default)]
pub struct LevelSchedule {
    starts: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl LevelSchedule {
    /// Longest-path levels over the live arcs of `graph`, bucketed with
    /// topological order preserved inside each bucket.
    #[must_use]
    pub fn build<G: TimingGraph>(graph: &G) -> LevelSchedule {
        let n = graph.node_count();
        let mut depth = vec![0u32; n];
        let mut max_depth = 0u32;
        for &id in graph.topo_order() {
            if graph.node_dead(id) {
                continue;
            }
            let d = depth[id.index()];
            max_depth = max_depth.max(d);
            for a in graph.fanout(id) {
                let t = graph.arc(a).to.index();
                depth[t] = depth[t].max(d + 1);
            }
        }
        let levels = if n == 0 { 0 } else { max_depth as usize + 1 };
        let mut counts = vec![0u32; levels];
        for &id in graph.topo_order() {
            if !graph.node_dead(id) {
                counts[depth[id.index()] as usize] += 1;
            }
        }
        let mut starts = Vec::with_capacity(levels + 1);
        let mut acc = 0u32;
        starts.push(0);
        for c in &counts {
            acc += c;
            starts.push(acc);
        }
        let mut cursor: Vec<u32> = starts[..levels].to_vec();
        let mut nodes = vec![NodeId(0); acc as usize];
        for &id in graph.topo_order() {
            if graph.node_dead(id) {
                continue;
            }
            let l = depth[id.index()] as usize;
            nodes[cursor[l] as usize] = id;
            cursor[l] += 1;
        }
        LevelSchedule { starts, nodes }
    }

    /// Number of levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Live nodes of level `l`, in topological order.
    #[must_use]
    pub fn level(&self, l: usize) -> &[NodeId] {
        &self.nodes[self.starts[l] as usize..self.starts[l + 1] as usize]
    }

    /// Total live nodes covered by the schedule.
    #[must_use]
    pub fn scheduled_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn byte_estimate(&self) -> usize {
        self.starts.len() * 4 + self.nodes.len() * 4
    }
}

impl TimingGraph for ArcGraph {
    fn node_count(&self) -> usize {
        ArcGraph::node_count(self)
    }

    fn node_kind(&self, id: NodeId) -> NodeKind {
        ArcGraph::node(self, id).kind
    }

    fn node_name(&self, id: NodeId) -> &str {
        &ArcGraph::node(self, id).name
    }

    fn node_base_load(&self, id: NodeId) -> f64 {
        ArcGraph::node(self, id).base_load
    }

    fn node_is_clock_network(&self, id: NodeId) -> bool {
        ArcGraph::node(self, id).is_clock_network
    }

    fn node_po_loads(&self, id: NodeId) -> &[u32] {
        &ArcGraph::node(self, id).po_loads
    }

    fn node_dead(&self, id: NodeId) -> bool {
        ArcGraph::node(self, id).dead
    }

    fn arc(&self, id: ArcId) -> &ArcData {
        ArcGraph::arc(self, id)
    }

    fn fanin(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        ArcGraph::fanin(self, n)
    }

    fn fanout(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        ArcGraph::fanout(self, n)
    }

    fn topo_order(&self) -> &[NodeId] {
        ArcGraph::topo_order(self)
    }

    fn primary_inputs(&self) -> &[NodeId] {
        ArcGraph::primary_inputs(self)
    }

    fn primary_outputs(&self) -> &[NodeId] {
        ArcGraph::primary_outputs(self)
    }

    fn clock_source(&self) -> Option<NodeId> {
        ArcGraph::clock_source(self)
    }

    fn checks(&self) -> &[Check] {
        ArcGraph::checks(self)
    }

    fn in_degree(&self, n: NodeId) -> usize {
        ArcGraph::in_degree(self, n)
    }

    fn out_degree(&self, n: NodeId) -> usize {
        ArcGraph::out_degree(self, n)
    }

    fn load_of(&self, n: NodeId, po_loads: &[f64]) -> f64 {
        ArcGraph::load_of(self, n, po_loads)
    }

    fn levels_from_inputs(&self) -> Cow<'_, [u32]> {
        Cow::Owned(ArcGraph::levels_from_inputs(self))
    }
}

const NODE_FLAG_DEAD: u8 = 1;
const NODE_FLAG_CLOCK: u8 = 2;

/// The immutable, shareable part of a design: full node/arc storage
/// (tombstones included, so arc and node ids line up with the frozen
/// graph), CSR adjacency over the live arcs, ports, checks, topological
/// order, precomputed structural levels and the longest-path
/// [`LevelSchedule`].
///
/// Node attributes are stored **struct-of-arrays**: kind/load/flag
/// vectors, one shared name arena, and a CSR po-load table. At
/// million-pin scale this removes the per-node `String` and `Vec`
/// headers (48 bytes each, plus allocator slack) that dominate an
/// array-of-structs layout, and keeps each propagation-hot attribute in
/// its own densely packed array. LUT tables are deduplicated into a
/// flattened pool of unique [`ArcTables`] references, so
/// [`DesignCore::memory_estimate`] counts each shared table once —
/// matching the real footprint instead of multiplying it by fan-out.
///
/// Built once per design by [`DesignCore::freeze`] and shared across
/// threads behind an [`Arc`]; every TS probe then pays only for its own
/// [`GraphView`] overlay.
#[derive(Debug)]
pub struct DesignCore {
    name: String,
    node_kinds: Vec<NodeKind>,
    node_base_loads: Vec<f64>,
    node_flags: Vec<u8>,
    name_starts: Vec<u32>,
    name_arena: String,
    po_load_starts: Vec<u32>,
    po_load_ids: Vec<u32>,
    arcs: Vec<ArcData>,
    lut_pool: Vec<Arc<ArcTables>>,
    lut_pool_value_entries: usize,
    lut_pool_axis_entries: usize,
    fanin_start: Vec<u32>,
    fanin_ids: Vec<u32>,
    fanout_start: Vec<u32>,
    fanout_ids: Vec<u32>,
    primary_inputs: Vec<NodeId>,
    primary_outputs: Vec<NodeId>,
    clock_source: Option<NodeId>,
    checks: Vec<Check>,
    topo: Vec<NodeId>,
    levels: Vec<u32>,
    schedule: LevelSchedule,
}

impl DesignCore {
    /// Freezes a graph into an immutable, `Arc`-shared core. The CSR
    /// adjacency stores the *live* arc ids in the graph's original
    /// adjacency order, so iteration order — and therefore every worst-case
    /// merge tie-break — is identical to iterating the source graph.
    #[must_use]
    pub fn freeze(graph: &ArcGraph) -> Arc<DesignCore> {
        let n = graph.node_count();
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_ids = Vec::new();
        let mut fanout_start = Vec::with_capacity(n + 1);
        let mut fanout_ids = Vec::new();
        for i in 0..n {
            let id = NodeId(i as u32);
            fanin_start.push(fanin_ids.len() as u32);
            fanin_ids.extend(graph.fanin(id).map(|a| a.0));
            fanout_start.push(fanout_ids.len() as u32);
            fanout_ids.extend(graph.fanout(id).map(|a| a.0));
        }
        fanin_start.push(fanin_ids.len() as u32);
        fanout_start.push(fanout_ids.len() as u32);
        fanin_ids.shrink_to_fit();
        fanout_ids.shrink_to_fit();

        let mut node_kinds = Vec::with_capacity(n);
        let mut node_base_loads = Vec::with_capacity(n);
        let mut node_flags = Vec::with_capacity(n);
        let mut name_starts = Vec::with_capacity(n + 1);
        let name_len: usize = graph.nodes().iter().map(|nd| nd.name.len()).sum();
        let mut name_arena = String::with_capacity(name_len);
        let po_len: usize = graph.nodes().iter().map(|nd| nd.po_loads.len()).sum();
        let mut po_load_starts = Vec::with_capacity(n + 1);
        let mut po_load_ids = Vec::with_capacity(po_len);
        for nd in graph.nodes() {
            node_kinds.push(nd.kind);
            node_base_loads.push(nd.base_load);
            let mut flags = 0u8;
            if nd.dead {
                flags |= NODE_FLAG_DEAD;
            }
            if nd.is_clock_network {
                flags |= NODE_FLAG_CLOCK;
            }
            node_flags.push(flags);
            name_starts.push(name_arena.len() as u32);
            name_arena.push_str(&nd.name);
            po_load_starts.push(po_load_ids.len() as u32);
            po_load_ids.extend_from_slice(&nd.po_loads);
        }
        name_starts.push(name_arena.len() as u32);
        po_load_starts.push(po_load_ids.len() as u32);

        let arcs: Vec<ArcData> = graph.arcs().to_vec();
        let mut seen = HashSet::new();
        let mut lut_pool: Vec<Arc<ArcTables>> = Vec::new();
        let mut lut_pool_value_entries = 0usize;
        let mut lut_pool_axis_entries = 0usize;
        for a in &arcs {
            if let Some(t) = a.timing.tables() {
                for table in [&t.early, &t.late] {
                    if seen.insert(Arc::as_ptr(table) as usize) {
                        let per = |l: &Lut2| l.values().len();
                        let axes = |l: &Lut2| l.slew_axis().len() + l.load_axis().len();
                        lut_pool_value_entries += per(&table.delay.rise)
                            + per(&table.delay.fall)
                            + per(&table.slew.rise)
                            + per(&table.slew.fall);
                        lut_pool_axis_entries += axes(&table.delay.rise)
                            + axes(&table.delay.fall)
                            + axes(&table.slew.rise)
                            + axes(&table.slew.fall);
                        lut_pool.push(Arc::clone(table));
                    }
                }
            }
        }

        let topo = graph.topo_order().to_vec();
        let levels = ArcGraph::levels_from_inputs(graph);
        let schedule = LevelSchedule::build(graph);
        Arc::new(DesignCore {
            name: graph.name().to_string(),
            node_kinds,
            node_base_loads,
            node_flags,
            name_starts,
            name_arena,
            po_load_starts,
            po_load_ids,
            arcs,
            lut_pool,
            lut_pool_value_entries,
            lut_pool_axis_entries,
            fanin_start,
            fanin_ids,
            fanout_start,
            fanout_ids,
            primary_inputs: graph.primary_inputs().to_vec(),
            primary_outputs: graph.primary_outputs().to_vec(),
            clock_source: graph.clock_source(),
            checks: graph.checks().to_vec(),
            topo,
            levels,
            schedule,
        })
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of arc slots stored by the core (extra view arcs get ids
    /// starting here).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Live fan-in arc ids of `n` (CSR slice).
    #[must_use]
    pub fn fanin_slice(&self, n: NodeId) -> &[u32] {
        &self.fanin_ids[self.fanin_start[n.index()] as usize..self.fanin_start[n.index() + 1] as usize]
    }

    /// Live fan-out arc ids of `n` (CSR slice).
    #[must_use]
    pub fn fanout_slice(&self, n: NodeId) -> &[u32] {
        &self.fanout_ids
            [self.fanout_start[n.index()] as usize..self.fanout_start[n.index() + 1] as usize]
    }

    /// The longest-path level buckets computed at freeze.
    #[must_use]
    pub fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    /// Unique LUT table sets shared by this core's arcs (the flattened
    /// LUT pool; each entry is counted once in
    /// [`DesignCore::memory_estimate`] no matter how many arcs share it).
    #[must_use]
    pub fn lut_pool_len(&self) -> usize {
        self.lut_pool.len()
    }

    /// Reconstructs the array-of-structs node record for `id` (allocates;
    /// used by [`GraphView::materialize`], not on hot paths).
    #[must_use]
    pub fn node_record(&self, id: NodeId) -> Node {
        Node {
            name: self.node_name_of(id).to_string(),
            kind: self.node_kinds[id.index()],
            base_load: self.node_base_loads[id.index()],
            po_loads: self.po_loads_of(id).to_vec(),
            is_clock_network: self.node_flags[id.index()] & NODE_FLAG_CLOCK != 0,
            dead: self.node_flags[id.index()] & NODE_FLAG_DEAD != 0,
        }
    }

    fn node_name_of(&self, id: NodeId) -> &str {
        let s = self.name_starts[id.index()] as usize;
        let e = self.name_starts[id.index() + 1] as usize;
        &self.name_arena[s..e]
    }

    fn po_loads_of(&self, id: NodeId) -> &[u32] {
        let s = self.po_load_starts[id.index()] as usize;
        let e = self.po_load_starts[id.index() + 1] as usize;
        &self.po_load_ids[s..e]
    }

    /// Estimated heap footprint of the core in bytes, accurate to within
    /// ~10% of the real allocation (verified by test): SoA node columns,
    /// arc records, the **deduplicated** LUT pool (values + axes + struct
    /// overhead, each shared table counted once), CSR adjacency, checks,
    /// and the topo/levels/schedule arrays. Counted **once** per design no
    /// matter how many views share it (views account their own overlays
    /// via [`GraphView::memory_estimate`]).
    #[must_use]
    pub fn memory_estimate(&self) -> usize {
        let n = self.node_kinds.len();
        let node_bytes = n * std::mem::size_of::<NodeKind>() // kinds
            + n * 8 // base loads
            + n // flags
            + self.name_arena.len()
            + (self.name_starts.len() + self.po_load_starts.len() + self.po_load_ids.len()) * 4;
        let arc_bytes = self.arcs.len() * std::mem::size_of::<ArcData>();
        let lut_bytes = (self.lut_pool_value_entries + self.lut_pool_axis_entries)
            * std::mem::size_of::<f64>()
            + self.lut_pool.len()
                * (std::mem::size_of::<ArcTables>() + std::mem::size_of::<Arc<ArcTables>>())
            + self.lut_pool.len() * std::mem::size_of::<Arc<ArcTables>>(); // pool vec itself
        let adj_bytes = (self.fanin_ids.len()
            + self.fanout_ids.len()
            + self.fanin_start.len()
            + self.fanout_start.len())
            * 4;
        let check_bytes = self.checks.len() * std::mem::size_of::<Check>()
            + self.checks.iter().map(|c| c.name.len()).sum::<usize>();
        let port_bytes = (self.primary_inputs.len() + self.primary_outputs.len()) * 4;
        node_bytes
            + arc_bytes
            + lut_bytes
            + adj_bytes
            + check_bytes
            + port_bytes
            + (self.topo.len() + self.levels.len()) * 4
            + self.schedule.byte_estimate()
    }
}

impl TimingGraph for DesignCore {
    fn node_count(&self) -> usize {
        self.node_kinds.len()
    }

    fn node_kind(&self, id: NodeId) -> NodeKind {
        self.node_kinds[id.index()]
    }

    fn node_name(&self, id: NodeId) -> &str {
        self.node_name_of(id)
    }

    fn node_base_load(&self, id: NodeId) -> f64 {
        self.node_base_loads[id.index()]
    }

    fn node_is_clock_network(&self, id: NodeId) -> bool {
        self.node_flags[id.index()] & NODE_FLAG_CLOCK != 0
    }

    fn node_po_loads(&self, id: NodeId) -> &[u32] {
        self.po_loads_of(id)
    }

    fn node_dead(&self, id: NodeId) -> bool {
        self.node_flags[id.index()] & NODE_FLAG_DEAD != 0
    }

    fn arc(&self, id: ArcId) -> &ArcData {
        &self.arcs[id.index()]
    }

    fn fanin(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.fanin_slice(n).iter().map(|&i| ArcId(i))
    }

    fn fanout(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.fanout_slice(n).iter().map(|&i| ArcId(i))
    }

    fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    fn primary_inputs(&self) -> &[NodeId] {
        &self.primary_inputs
    }

    fn primary_outputs(&self) -> &[NodeId] {
        &self.primary_outputs
    }

    fn clock_source(&self) -> Option<NodeId> {
        self.clock_source
    }

    fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn in_degree(&self, n: NodeId) -> usize {
        self.fanin_slice(n).len()
    }

    fn out_degree(&self, n: NodeId) -> usize {
        self.fanout_slice(n).len()
    }

    fn levels_from_inputs(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(&self.levels)
    }

    fn level_schedule(&self) -> Option<&LevelSchedule> {
        Some(&self.schedule)
    }
}

/// A copy-on-write overlay over an [`Arc`]-shared [`DesignCore`].
///
/// Records hidden (logically deleted) nodes and arcs plus composed
/// replacement arcs without touching the core. Replacement arcs get ids
/// continuing after the core's arc slots, appended in creation order — the
/// same order in-place editing of a clone would have produced — so
/// adjacency iteration, and with it every worst-merge tie-break, matches
/// the edited clone bit-for-bit.
#[derive(Debug, Clone)]
pub struct GraphView {
    core: Arc<DesignCore>,
    hidden_nodes: IdSet,
    hidden_arcs: IdSet,
    extra_arcs: Vec<ArcData>,
    extra_fanin: IdMap<u32, Vec<u32>>,
    extra_fanout: IdMap<u32, Vec<u32>>,
    /// Nodes added by structural edits (ids continue after the core's
    /// node slots, mirroring how extra arcs extend the core's arc ids).
    extra_nodes: Vec<Node>,
    /// Replacement topological order covering the extra nodes; empty while
    /// the view has no inserted nodes (the core's order stays valid for
    /// pure hide/replace edits).
    topo_override: Vec<NodeId>,
    /// Running total of LUT entries held by `extra_arcs`, maintained by
    /// [`GraphView::push_extra`] so [`GraphView::memory_estimate`] is O(1)
    /// — budget-bounded merges poll it after every edit.
    extra_lut_entries: usize,
    /// Running byte total for `extra_nodes` (same O(1)-estimate contract).
    extra_node_bytes: usize,
}

impl GraphView {
    /// Creates an edit-free view of `core` (O(1); no per-node state).
    #[must_use]
    pub fn new(core: Arc<DesignCore>) -> Self {
        GraphView {
            core,
            hidden_nodes: IdSet::default(),
            hidden_arcs: IdSet::default(),
            extra_arcs: Vec::new(),
            extra_fanin: IdMap::default(),
            extra_fanout: IdMap::default(),
            extra_nodes: Vec::new(),
            topo_override: Vec::new(),
            extra_lut_entries: 0,
            extra_node_bytes: 0,
        }
    }

    /// The shared core this view overlays.
    #[must_use]
    pub fn core(&self) -> &Arc<DesignCore> {
        &self.core
    }

    /// `true` when the view carries no edits.
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        self.hidden_nodes.is_empty()
            && self.hidden_arcs.is_empty()
            && self.extra_arcs.is_empty()
            && self.extra_nodes.is_empty()
    }

    /// Ids of arcs hidden by view edits.
    pub fn hidden_arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        self.hidden_arcs.iter().map(|&i| ArcId(i))
    }

    /// Ids of the replacement arcs this view added (including any that a
    /// later edit hid again; check [`GraphView::arc_hidden`]).
    pub fn extra_arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        let base = self.core.arc_count() as u32;
        (0..self.extra_arcs.len() as u32).map(move |i| ArcId(base + i))
    }

    /// Whether arc `a` is hidden by a view edit.
    #[must_use]
    pub fn arc_hidden(&self, a: ArcId) -> bool {
        self.hidden_arcs.contains(&a.0)
    }

    /// Whether node `n` is hidden by a view edit.
    #[must_use]
    pub fn node_hidden(&self, n: NodeId) -> bool {
        self.hidden_nodes.contains(&n.0)
    }

    fn push_extra(&mut self, arc: ArcData) -> ArcId {
        let id = (self.core.arc_count() + self.extra_arcs.len()) as u32;
        self.extra_fanout.entry(arc.from.0).or_default().push(id);
        self.extra_fanin.entry(arc.to.0).or_default().push(id);
        self.extra_lut_entries += arc.timing.lut_entries();
        self.extra_arcs.push(arc);
        ArcId(id)
    }

    /// Whether `n` is eligible for [`GraphView::bypass_node`] (mirrors
    /// [`ArcGraph::can_bypass`]).
    #[must_use]
    pub fn can_bypass(&self, n: NodeId) -> bool {
        self.can_bypass_with_limit(n, MAX_BYPASS_ARCS)
    }

    /// Like [`GraphView::can_bypass`] with an explicit fan-in × fan-out
    /// budget.
    #[must_use]
    pub fn can_bypass_with_limit(&self, n: NodeId, limit: usize) -> bool {
        if n.index() >= self.core.node_count() {
            return false;
        }
        if self.node_dead(n) || self.core.node_kind(n) != NodeKind::Internal {
            return false;
        }
        let fi = TimingGraph::in_degree(self, n);
        let fo = TimingGraph::out_degree(self, n);
        fi * fo <= limit
    }

    /// Copy-on-write serial merge: hides `n` and its arcs, adds one
    /// composed replacement arc per fan-in × fan-out pair. Semantically
    /// identical to [`ArcGraph::bypass_node`] on an edited clone.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] when the node is a port, a
    /// flip-flop pin, dead, or the merge would exceed [`MAX_BYPASS_ARCS`].
    pub fn bypass_node(&mut self, n: NodeId) -> Result<()> {
        self.bypass_node_with_limit(n, MAX_BYPASS_ARCS)
    }

    /// Like [`GraphView::bypass_node`] with an explicit fan-in × fan-out
    /// budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphView::bypass_node`], with `limit`
    /// replacing [`MAX_BYPASS_ARCS`].
    pub fn bypass_node_with_limit(&mut self, n: NodeId, limit: usize) -> Result<()> {
        if n.index() >= self.core.node_count() {
            return Err(StaError::NodeOutOfRange(n.index()));
        }
        if !self.can_bypass_with_limit(n, limit) {
            return Err(StaError::IllegalEdit(format!(
                "node {} ({}) cannot be bypassed",
                n,
                self.core.node_name(n)
            )));
        }
        let ins: Vec<ArcId> = TimingGraph::fanin(self, n).collect();
        let outs: Vec<ArcId> = TimingGraph::fanout(self, n).collect();
        let mid_load = self.core.node_base_load(n);
        let was_clock = self.core.node_is_clock_network(n);
        let mut new_arcs: Vec<ArcData> = Vec::with_capacity(ins.len() * outs.len());
        for &ia in &ins {
            for &oa in &outs {
                let arc_a = TimingGraph::arc(self, ia);
                let arc_b = TimingGraph::arc(self, oa);
                let composed = compose_arc_pair(arc_a, arc_b, mid_load);
                new_arcs.push(ArcData {
                    from: arc_a.from,
                    to: arc_b.to,
                    sense: compose_sense(arc_a.sense, arc_b.sense),
                    timing: composed,
                    is_clock: was_clock && arc_a.is_clock && arc_b.is_clock,
                    dead: false,
                });
            }
        }
        for arc in new_arcs {
            self.push_extra(arc);
        }
        for a in ins.into_iter().chain(outs) {
            self.hidden_arcs.insert(a.0);
        }
        self.hidden_nodes.insert(n.0);
        Ok(())
    }

    /// Copy-on-write parallel merge of all live arcs sharing `(from, to)`;
    /// semantically identical to [`ArcGraph::coalesce_parallel`]. Returns
    /// the number of arcs removed.
    pub fn coalesce_parallel(&mut self, from: NodeId, to: NodeId) -> usize {
        // Core CSR slices and overlay extras both hold arc ids in ascending
        // order, so filtering either adjacency side yields the identical
        // group in the identical order. Scan whichever raw side is shorter
        // (hidden entries included — raw length is O(1) while a live count
        // is not): hub fanouts grow enormous during keep-none merges and
        // always scanning them made merging quadratic in hub degree.
        let out_raw = if from.index() < self.core.node_count() {
            self.core.fanout_slice(from).len()
        } else {
            0
        } + self.extra_fanout.get(&from.0).map_or(0, Vec::len);
        let in_raw = if to.index() < self.core.node_count() {
            self.core.fanin_slice(to).len()
        } else {
            0
        } + self.extra_fanin.get(&to.0).map_or(0, Vec::len);
        let group: Vec<ArcId> = if out_raw <= in_raw {
            TimingGraph::fanout(self, from)
                .filter(|&a| TimingGraph::arc(self, a).to == to)
                .collect()
        } else {
            TimingGraph::fanin(self, to)
                .filter(|&a| TimingGraph::arc(self, a).from == from)
                .collect()
        };
        if group.len() < 2 {
            return 0;
        }
        let merged = {
            let members: Vec<&ArcData> =
                group.iter().map(|&a| TimingGraph::arc(self, a)).collect();
            merge_parallel_group(&members)
        };
        match merged {
            ParallelMerge::KeepFirst => {
                for &a in &group[1..] {
                    self.hidden_arcs.insert(a.0);
                }
            }
            ParallelMerge::Replace { sense, timing, is_clock } => {
                for &a in &group {
                    self.hidden_arcs.insert(a.0);
                }
                self.push_extra(ArcData { from, to, sense, timing, is_clock, dead: false });
            }
        }
        group.len() - 1
    }

    /// Copy-on-write pendant of [`ArcGraph::prune_dangling`]: hides a
    /// dangling internal node along with its remaining arcs. Ports, FF pins
    /// and clock-network nodes are never removed. Returns `true` if the
    /// node was hidden.
    pub fn prune_dangling(&mut self, n: NodeId) -> bool {
        if n.index() >= self.core.node_count() {
            return false;
        }
        if self.node_dead(n)
            || self.core.node_kind(n) != NodeKind::Internal
            || self.core.node_is_clock_network(n)
            || (TimingGraph::in_degree(self, n) > 0 && TimingGraph::out_degree(self, n) > 0)
        {
            return false;
        }
        let arcs: Vec<ArcId> =
            TimingGraph::fanin(self, n).chain(TimingGraph::fanout(self, n)).collect();
        for a in arcs {
            self.hidden_arcs.insert(a.0);
        }
        self.hidden_nodes.insert(n.0);
        true
    }

    /// Validates that `a` is a live, non-hidden, data-path arc eligible
    /// for a structural ECO edit, and returns a clone of its record.
    fn eco_arc(&self, a: ArcId) -> Result<ArcData> {
        let total = self.core.arc_count() + self.extra_arcs.len();
        if a.index() >= total {
            return Err(StaError::IllegalEdit(format!("arc {} is out of range", a.index())));
        }
        if self.arc_hidden(a) {
            return Err(StaError::IllegalEdit(format!("arc {} is hidden", a.index())));
        }
        let arc = TimingGraph::arc(self, a).clone();
        if arc.dead {
            return Err(StaError::IllegalEdit(format!("arc {} is dead", a.index())));
        }
        if arc.is_clock {
            return Err(StaError::IllegalEdit(format!(
                "arc {} is on the clock network; ECO edits are data-path only",
                a.index()
            )));
        }
        if TimingGraph::node_dead(self, arc.from) || TimingGraph::node_dead(self, arc.to) {
            return Err(StaError::IllegalEdit(format!(
                "arc {} has a dead endpoint",
                a.index()
            )));
        }
        Ok(arc)
    }

    /// Scales every delay/slew LUT entry of `tables` by `factor`,
    /// preserving the axes bit-for-bit.
    fn scale_tables(tables: &Split<Arc<ArcTables>>, factor: f64) -> Split<Arc<ArcTables>> {
        let scale_lut = |lut: &Lut2| {
            Lut2::new_unchecked(
                lut.slew_axis().to_vec(),
                lut.load_axis().to_vec(),
                lut.values().iter().map(|v| v * factor).collect(),
            )
        };
        let scale_mode = |t: &Arc<ArcTables>| {
            Arc::new(ArcTables {
                delay: TransPair::new(scale_lut(&t.delay.rise), scale_lut(&t.delay.fall)),
                slew: TransPair::new(scale_lut(&t.slew.rise), scale_lut(&t.slew.fall)),
            })
        };
        Split::new(scale_mode(&tables.early), scale_mode(&tables.late))
    }

    /// Cell-resize ECO: replaces arc `a` with a copy whose timing is
    /// scaled by `factor` (< 1 models an upsized, faster cell; > 1 a
    /// downsized one). Table/composed arcs scale every delay and slew LUT
    /// entry; wire arcs scale the delay. The original arc is hidden and
    /// the replacement appended, so the edit is a pure overlay. Returns
    /// the replacement arc id.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] when the arc is dead, hidden,
    /// out of range, on the clock network, or `factor` is not a finite
    /// positive number.
    pub fn resize_arc(&mut self, a: ArcId, factor: f64) -> Result<ArcId> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(StaError::IllegalEdit(format!(
                "resize factor {factor} must be finite and positive"
            )));
        }
        let arc = self.eco_arc(a)?;
        let timing = match &arc.timing {
            ArcTiming::Wire { delay, degrade } => {
                ArcTiming::Wire { delay: delay * factor, degrade: *degrade }
            }
            ArcTiming::Table(t) => ArcTiming::Table(Self::scale_tables(t, factor)),
            ArcTiming::Composed(t) => ArcTiming::Composed(Self::scale_tables(t, factor)),
        };
        self.hidden_arcs.insert(a.0);
        Ok(self.push_extra(ArcData {
            from: arc.from,
            to: arc.to,
            sense: arc.sense,
            timing,
            is_clock: false,
            dead: false,
        }))
    }

    /// Buffer-insert ECO: splits arc `u → v` into `u → b → v` where `b`
    /// is a new internal node appended after the core's node slots. The
    /// `u → b` arc keeps the original timing and sense; the `b → v` arc
    /// is a wire of `wire_delay` picoseconds. The first insertion switches
    /// the view to an overlay topological order (core order with inserted
    /// nodes spliced in just before their sinks). Returns the new node id.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::IllegalEdit`] under the same arc conditions as
    /// [`GraphView::resize_arc`], or when `wire_delay` is not finite and
    /// non-negative.
    pub fn insert_node_on_arc(&mut self, a: ArcId, name: &str, wire_delay: f64) -> Result<NodeId> {
        if !wire_delay.is_finite() || wire_delay < 0.0 {
            return Err(StaError::IllegalEdit(format!(
                "wire delay {wire_delay} must be finite and non-negative"
            )));
        }
        let arc = self.eco_arc(a)?;
        let b = NodeId((self.core.node_count() + self.extra_nodes.len()) as u32);
        self.extra_node_bytes += std::mem::size_of::<Node>() + name.len();
        self.extra_nodes.push(Node {
            name: name.to_string(),
            kind: NodeKind::Internal,
            base_load: 0.0,
            po_loads: Vec::new(),
            is_clock_network: false,
            dead: false,
        });
        if self.topo_override.is_empty() {
            self.topo_override = self.core.topo_order().to_vec();
        }
        // b's only fan-in is arc.from, which precedes arc.to, so placing b
        // immediately before its sink keeps the order topological.
        let sink_pos = self
            .topo_override
            .iter()
            .position(|&n| n == arc.to)
            .ok_or_else(|| StaError::IllegalEdit(format!("arc {} sink not in topo", a.index())))?;
        self.topo_override.insert(sink_pos, b);
        self.hidden_arcs.insert(a.0);
        self.push_extra(ArcData {
            from: arc.from,
            to: b,
            sense: arc.sense,
            timing: arc.timing,
            is_clock: false,
            dead: false,
        });
        self.push_extra(ArcData {
            from: b,
            to: arc.to,
            sense: TimingSense::PositiveUnate,
            timing: ArcTiming::Wire { delay: wire_delay, degrade: 1.0 },
            is_clock: false,
            dead: false,
        });
        Ok(b)
    }

    /// Every node this view's edits touch: endpoints of hidden and added
    /// arcs, hidden nodes, and inserted nodes. Sorted and deduplicated.
    /// Ids are stable across [`GraphView::materialize`], so the list seeds
    /// downstream change-propagation (e.g. the incremental TS dirty set)
    /// against the materialised graph's frozen core.
    #[must_use]
    pub fn edited_nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<u32> = Vec::new();
        for &a in &self.hidden_arcs {
            let arc = TimingGraph::arc(self, ArcId(a));
            ids.push(arc.from.0);
            ids.push(arc.to.0);
        }
        for arc in &self.extra_arcs {
            ids.push(arc.from.0);
            ids.push(arc.to.0);
        }
        ids.extend(self.hidden_nodes.iter().copied());
        let base = self.core.node_count() as u32;
        ids.extend((0..self.extra_nodes.len() as u32).map(|i| base + i));
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(NodeId).collect()
    }

    /// Rough memory footprint of this view's **overlay only** in bytes
    /// (the shared core is accounted once via
    /// [`DesignCore::memory_estimate`]).
    ///
    /// O(1): budget-bounded merges poll this after every edit, so the
    /// LUT-entry and node-byte sums are maintained incrementally and the
    /// adjacency term is closed-form (every extra arc adds exactly one id
    /// to a fan-in and a fan-out list).
    #[must_use]
    pub fn memory_estimate(&self) -> usize {
        let hidden_bytes = (self.hidden_nodes.len() + self.hidden_arcs.len()) * 4;
        let extra_arc_bytes = self.extra_arcs.len() * std::mem::size_of::<ArcData>();
        let extra_lut_bytes = self.extra_lut_entries * std::mem::size_of::<f64>();
        let adj_bytes = self.extra_arcs.len() * 8
            + (self.extra_fanin.len() + self.extra_fanout.len()) * 24;
        hidden_bytes
            + extra_arc_bytes
            + extra_lut_bytes
            + adj_bytes
            + self.extra_node_bytes
            + self.topo_override.len() * 4
    }

    /// Materialises the edited graph as a standalone [`ArcGraph`]: core
    /// nodes/arcs with hidden ones tombstoned, extra arcs appended in
    /// creation order, adjacency rebuilt in arc-id order — byte-identical
    /// to what in-place editing of a clone of the frozen graph would have
    /// produced.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalCycle`] when the live arcs form a
    /// cycle (impossible for views edited only through bypass/coalesce of a
    /// valid DAG, possible for corrupted cores).
    pub fn materialize(&self) -> Result<ArcGraph> {
        let mut nodes: Vec<Node> = (0..self.core.node_count())
            .map(|i| self.core.node_record(NodeId(i as u32)))
            .collect();
        nodes.extend(self.extra_nodes.iter().cloned());
        for &h in &self.hidden_nodes {
            nodes[h as usize].dead = true;
        }
        let mut arcs = self.core.arcs.clone();
        arcs.extend(self.extra_arcs.iter().cloned());
        for &h in &self.hidden_arcs {
            arcs[h as usize].dead = true;
        }
        ArcGraph::from_parts(
            self.core.name.clone(),
            nodes,
            arcs,
            self.core.primary_inputs.clone(),
            self.core.primary_outputs.clone(),
            self.core.clock_source,
            self.core.checks.clone(),
        )
    }
}

impl TimingGraph for GraphView {
    fn node_count(&self) -> usize {
        self.core.node_count() + self.extra_nodes.len()
    }

    fn node_kind(&self, id: NodeId) -> NodeKind {
        let base = self.core.node_count();
        if id.index() < base {
            self.core.node_kind(id)
        } else {
            self.extra_nodes[id.index() - base].kind
        }
    }

    fn node_name(&self, id: NodeId) -> &str {
        let base = self.core.node_count();
        if id.index() < base {
            self.core.node_name(id)
        } else {
            &self.extra_nodes[id.index() - base].name
        }
    }

    fn node_base_load(&self, id: NodeId) -> f64 {
        let base = self.core.node_count();
        if id.index() < base {
            self.core.node_base_load(id)
        } else {
            self.extra_nodes[id.index() - base].base_load
        }
    }

    fn node_is_clock_network(&self, id: NodeId) -> bool {
        let base = self.core.node_count();
        if id.index() < base {
            self.core.node_is_clock_network(id)
        } else {
            self.extra_nodes[id.index() - base].is_clock_network
        }
    }

    fn node_po_loads(&self, id: NodeId) -> &[u32] {
        let base = self.core.node_count();
        if id.index() < base {
            self.core.node_po_loads(id)
        } else {
            &self.extra_nodes[id.index() - base].po_loads
        }
    }

    fn node_dead(&self, id: NodeId) -> bool {
        if id.index() >= self.core.node_count() {
            return self.hidden_nodes.contains(&id.0);
        }
        self.core.node_dead(id) || self.hidden_nodes.contains(&id.0)
    }

    fn arc(&self, id: ArcId) -> &ArcData {
        let base = self.core.arc_count();
        if id.index() < base {
            self.core.arc(id)
        } else {
            &self.extra_arcs[id.index() - base]
        }
    }

    fn fanin(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        let core_ids: &[u32] =
            if n.index() < self.core.node_count() { self.core.fanin_slice(n) } else { &[] };
        core_ids
            .iter()
            .copied()
            .chain(self.extra_fanin.get(&n.0).into_iter().flatten().copied())
            .filter(move |i| !self.hidden_arcs.contains(i))
            .map(ArcId)
    }

    fn fanout(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        let core_ids: &[u32] =
            if n.index() < self.core.node_count() { self.core.fanout_slice(n) } else { &[] };
        core_ids
            .iter()
            .copied()
            .chain(self.extra_fanout.get(&n.0).into_iter().flatten().copied())
            .filter(move |i| !self.hidden_arcs.contains(i))
            .map(ArcId)
    }

    fn topo_order(&self) -> &[NodeId] {
        if self.topo_override.is_empty() {
            self.core.topo_order()
        } else {
            &self.topo_override
        }
    }

    fn primary_inputs(&self) -> &[NodeId] {
        TimingGraph::primary_inputs(&*self.core)
    }

    fn primary_outputs(&self) -> &[NodeId] {
        TimingGraph::primary_outputs(&*self.core)
    }

    fn clock_source(&self) -> Option<NodeId> {
        TimingGraph::clock_source(&*self.core)
    }

    fn checks(&self) -> &[Check] {
        TimingGraph::checks(&*self.core)
    }

    fn level_schedule(&self) -> Option<&LevelSchedule> {
        // Hidden arcs only remove dependencies, and every replacement arc
        // shortcuts an existing core path, so the core schedule stays a
        // valid dependency order as long as no node was inserted.
        if self.extra_nodes.is_empty() {
            self.core.level_schedule()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Context;
    use crate::liberty::Library;
    use crate::netlist::NetlistBuilder;
    use crate::propagate::Analysis;

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

    fn find(g: &ArcGraph, name: &str) -> NodeId {
        NodeId(g.nodes().iter().position(|n| n.name == name).unwrap() as u32)
    }

    #[test]
    fn pristine_view_matches_source_graph() {
        let g = chain_graph(3);
        let core = DesignCore::freeze(&g);
        let view = GraphView::new(core.clone());
        assert!(view.is_pristine());
        assert_eq!(TimingGraph::node_count(&view), g.node_count());
        for i in 0..g.node_count() {
            let n = NodeId(i as u32);
            assert_eq!(view.node_dead(n), g.node(n).dead);
            let a: Vec<ArcId> = g.fanin(n).collect();
            let b: Vec<ArcId> = TimingGraph::fanin(&view, n).collect();
            assert_eq!(a, b, "fanin order must be preserved");
            let a: Vec<ArcId> = g.fanout(n).collect();
            let b: Vec<ArcId> = TimingGraph::fanout(&view, n).collect();
            assert_eq!(a, b, "fanout order must be preserved");
        }
        assert_eq!(TimingGraph::topo_order(&view), g.topo_order());
        assert_eq!(view.levels_from_inputs().as_ref(), g.levels_from_inputs().as_slice());
        // The core lends its precomputed levels instead of cloning them.
        assert!(matches!(TimingGraph::levels_from_inputs(&*core), Cow::Borrowed(_)));
    }

    #[test]
    fn level_schedule_is_a_valid_dependency_order() {
        let g = chain_graph(5);
        let core = DesignCore::freeze(&g);
        let sched = core.schedule();
        assert_eq!(sched.scheduled_nodes(), g.live_nodes());
        let mut level_of = vec![usize::MAX; g.node_count()];
        for l in 0..sched.level_count() {
            for &n in sched.level(l) {
                level_of[n.index()] = l;
            }
        }
        for a in g.arcs().iter().filter(|a| !a.dead) {
            if g.node(a.from).dead || g.node(a.to).dead {
                continue;
            }
            assert!(
                level_of[a.from.index()] < level_of[a.to.index()],
                "arc {} -> {} must cross levels",
                a.from,
                a.to
            );
        }
        // Views without inserted nodes inherit the schedule; a node
        // insertion invalidates it.
        let mut view = GraphView::new(core.clone());
        view.bypass_node(find(&g, "u2/Z")).unwrap();
        assert!(view.level_schedule().is_some());
        view.insert_node_on_arc(first_table_arc(&g), "eco_b", 1.0).unwrap();
        assert!(view.level_schedule().is_none());
    }

    #[test]
    fn memory_estimate_matches_component_accounting_within_ten_percent() {
        let g = chain_graph(40);
        let core = DesignCore::freeze(&g);
        // Independent accounting walked over the source graph: SoA node
        // columns, arc records, unique shared tables (by pointer), CSR
        // adjacency and the order/level/schedule arrays.
        let n = g.node_count();
        let node_bytes: usize = n * (std::mem::size_of::<NodeKind>() + 8 + 1)
            + g.nodes().iter().map(|nd| nd.name.len()).sum::<usize>()
            + (n + 1) * 8
            + g.nodes().iter().map(|nd| nd.po_loads.len() * 4).sum::<usize>();
        let arc_bytes = g.arcs().len() * std::mem::size_of::<ArcData>();
        let mut seen = std::collections::HashSet::new();
        let mut lut_bytes = 0usize;
        for a in g.arcs() {
            if let Some(t) = a.timing.tables() {
                for table in [&t.early, &t.late] {
                    if seen.insert(Arc::as_ptr(table) as usize) {
                        let per = |l: &Lut2| {
                            (l.values().len() + l.slew_axis().len() + l.load_axis().len()) * 8
                        };
                        lut_bytes += per(&table.delay.rise)
                            + per(&table.delay.fall)
                            + per(&table.slew.rise)
                            + per(&table.slew.fall)
                            + std::mem::size_of::<ArcTables>()
                            + 2 * std::mem::size_of::<Arc<ArcTables>>();
                    }
                }
            }
        }
        let live_arcs = g.live_arcs();
        let adj_bytes = live_arcs * 2 * 4 + (n + 1) * 8;
        let sched = core.schedule();
        let actual = node_bytes
            + arc_bytes
            + lut_bytes
            + adj_bytes
            + g.checks().len() * std::mem::size_of::<Check>()
            + g.checks().iter().map(|c| c.name.len()).sum::<usize>()
            + (g.primary_inputs().len() + g.primary_outputs().len()) * 4
            + (g.topo_order().len() + n) * 4
            + (sched.level_count() + 1 + sched.scheduled_nodes()) * 4;
        let est = core.memory_estimate();
        let rel = (est as f64 - actual as f64).abs() / actual as f64;
        assert!(
            rel < 0.10,
            "estimate {est} vs accounting {actual} differs by {:.1}%",
            rel * 100.0
        );
    }

    #[test]
    fn view_bypass_matches_clone_bypass_bit_exactly() {
        let g = chain_graph(3);
        let core = DesignCore::freeze(&g);
        let mid = find(&g, "u1/Z");

        let mut clone = g.clone();
        clone.bypass_node(mid).unwrap();
        let mut view = GraphView::new(core);
        view.bypass_node(mid).unwrap();
        let materialized = view.materialize().unwrap();

        let ctx = Context::nominal(&g);
        let a = Analysis::run(&clone, &ctx).unwrap();
        let b = Analysis::run(&materialized, &ctx).unwrap();
        let d = a.boundary().diff(b.boundary());
        assert_eq!(d.max, 0.0, "materialised view must time identically");
        // The view itself (without materialising) must also agree.
        let c = Analysis::run(&view, &ctx).unwrap();
        assert_eq!(a.boundary().diff(c.boundary()).max, 0.0);
        assert_eq!(clone.live_arcs(), materialized.live_arcs());
        assert_eq!(clone.live_nodes(), materialized.live_nodes());
    }

    #[test]
    fn view_refuses_ports_and_double_bypass() {
        let g = chain_graph(2);
        let core = DesignCore::freeze(&g);
        let mut view = GraphView::new(core);
        assert!(view.bypass_node(g.primary_inputs()[0]).is_err());
        let mid = find(&g, "u0/Z");
        view.bypass_node(mid).unwrap();
        assert!(view.bypass_node(mid).is_err(), "hidden node cannot be bypassed again");
        assert!(!view.can_bypass(mid));
    }

    #[test]
    fn overlay_memory_is_small_against_the_core() {
        // Large enough that the deduplicated LUT pool (one shared table
        // for the whole chain) is amortised over many nodes/arcs — on a
        // handful of cells the pool dominates and the ratio is meaningless.
        let g = chain_graph(64);
        let core = DesignCore::freeze(&g);
        let mut view = GraphView::new(core.clone());
        assert_eq!(GraphView::new(core.clone()).memory_estimate(), 0);
        view.bypass_node(find(&g, "u2/Z")).unwrap();
        assert!(view.memory_estimate() > 0);
        assert!(
            view.memory_estimate() < core.memory_estimate() / 2,
            "one bypass overlay ({}) must stay far below the core ({})",
            view.memory_estimate(),
            core.memory_estimate()
        );
    }

    #[test]
    fn overlay_estimate_counters_match_brute_force_recompute() {
        // memory_estimate is O(1) via incrementally maintained counters; a
        // drifted counter would silently mis-size budget flushes. Pin it to
        // a from-scratch recompute over the overlay after a mix of edits.
        let g = chain_graph(16);
        let core = DesignCore::freeze(&g);
        let mut view = GraphView::new(core.clone());
        view.bypass_node(find(&g, "u2/Z")).unwrap();
        view.bypass_node(find(&g, "u5/Z")).unwrap();
        view.coalesce_parallel(find(&g, "u1/Z"), find(&g, "u3/A"));
        let rep = ArcId(g.arcs().len() as u32); // first bypass replacement
        let rep2 = view.resize_arc(rep, 0.5).unwrap();
        view.insert_node_on_arc(rep2, "rebuf", 2.0).unwrap();
        let brute: usize = {
            let hidden = (view.hidden_nodes.len() + view.hidden_arcs.len()) * 4;
            let arcs = view.extra_arcs.len() * std::mem::size_of::<ArcData>();
            let luts = view.extra_arcs.iter().map(|x| x.timing.lut_entries()).sum::<usize>()
                * std::mem::size_of::<f64>();
            let adj = view
                .extra_fanin
                .values()
                .chain(view.extra_fanout.values())
                .map(|v| v.len() * 4 + 24)
                .sum::<usize>();
            let nodes = view
                .extra_nodes
                .iter()
                .map(|n| std::mem::size_of::<Node>() + n.name.len() + n.po_loads.len() * 4)
                .sum::<usize>();
            hidden + arcs + luts + adj + nodes + view.topo_override.len() * 4
        };
        assert_eq!(view.memory_estimate(), brute);
    }

    fn first_table_arc(g: &ArcGraph) -> ArcId {
        ArcId(g
            .arcs()
            .iter()
            .position(|a| !a.dead && !a.is_clock && matches!(a.timing, ArcTiming::Table(_)))
            .unwrap() as u32)
    }

    #[test]
    fn resize_times_identically_to_its_materialized_graph() {
        let g = chain_graph(4);
        let core = DesignCore::freeze(&g);
        let mut view = GraphView::new(core);
        let victim = first_table_arc(&g);
        let replacement = view.resize_arc(victim, 0.75).unwrap();
        assert!(view.arc_hidden(victim));
        assert_eq!(replacement.index(), g.arcs().len());

        let m = view.materialize().unwrap();
        m.validate().unwrap();
        let ctx = Context::nominal(&g);
        let a = Analysis::run(&view, &ctx).unwrap();
        let b = Analysis::run(&m, &ctx).unwrap();
        assert_eq!(a.boundary().diff(b.boundary()).max, 0.0);
        // The resize must actually move timing against the base design.
        let base = Analysis::run(&g, &ctx).unwrap();
        assert!(base.boundary().diff(a.boundary()).max > 0.0);
    }

    #[test]
    fn resize_rejects_bad_factors_and_hidden_arcs() {
        let g = chain_graph(2);
        let core = DesignCore::freeze(&g);
        let mut view = GraphView::new(core);
        let victim = first_table_arc(&g);
        assert!(view.resize_arc(victim, 0.0).is_err());
        assert!(view.resize_arc(victim, -1.0).is_err());
        assert!(view.resize_arc(victim, f64::NAN).is_err());
        assert!(view.resize_arc(ArcId(u32::MAX), 0.5).is_err());
        view.resize_arc(victim, 0.5).unwrap();
        assert!(view.resize_arc(victim, 0.5).is_err(), "hidden arc cannot be resized again");
    }

    #[test]
    fn insert_node_times_identically_to_its_materialized_graph() {
        let g = chain_graph(4);
        let core = DesignCore::freeze(&g);
        let mut view = GraphView::new(core.clone());
        let victim = first_table_arc(&g);
        let b = view.insert_node_on_arc(victim, "eco_buf0", 3.0).unwrap();
        assert_eq!(b.index(), g.node_count(), "inserted node continues core ids");
        assert_eq!(TimingGraph::node_count(&view), g.node_count() + 1);
        assert!(!view.node_dead(b));
        assert_eq!(TimingGraph::in_degree(&view, b), 1);
        assert_eq!(TimingGraph::out_degree(&view, b), 1);
        // The overlay topo covers the new node and stays a valid order.
        let topo = TimingGraph::topo_order(&view);
        assert_eq!(topo.len(), g.topo_order().len() + 1);
        let pos_of = |n: NodeId| topo.iter().position(|&x| x == n).unwrap();
        let from = TimingGraph::arc(&view, ArcId(g.arcs().len() as u32)).from;
        let to = TimingGraph::arc(&view, ArcId(g.arcs().len() as u32 + 1)).to;
        assert!(pos_of(from) < pos_of(b) && pos_of(b) < pos_of(to));

        let m = view.materialize().unwrap();
        m.validate().unwrap();
        let ctx = Context::nominal(&g);
        let a = Analysis::run(&view, &ctx).unwrap();
        let c = Analysis::run(&m, &ctx).unwrap();
        assert_eq!(a.boundary().diff(c.boundary()).max, 0.0);
        // A second insert on a replacement arc keeps composing.
        let b2 = view.insert_node_on_arc(ArcId(g.arcs().len() as u32 + 1), "eco_buf1", 2.0).unwrap();
        assert_eq!(b2.index(), g.node_count() + 1);
        let m2 = view.materialize().unwrap();
        m2.validate().unwrap();
        let a2 = Analysis::run(&view, &ctx).unwrap();
        let c2 = Analysis::run(&m2, &ctx).unwrap();
        assert_eq!(a2.boundary().diff(c2.boundary()).max, 0.0);
    }

    // Satellite: overlay-only accounting under deletions and inserted
    // nodes — must never count core storage and never underflow.
    #[test]
    fn memory_estimate_stays_overlay_only_under_structural_edits() {
        let g = chain_graph(6);
        let core = DesignCore::freeze(&g);

        // Deletion-only overlay: no extra arcs, only hidden ids. The
        // estimate must stay positive-but-tiny, not wrap around zero.
        let mut deleter = GraphView::new(core.clone());
        let victim = find(&g, "u2/Z");
        let arcs: Vec<ArcId> = TimingGraph::fanin(&deleter, victim)
            .chain(TimingGraph::fanout(&deleter, victim))
            .collect();
        for a in arcs {
            deleter.hidden_arcs.insert(a.0);
        }
        assert!(deleter.prune_dangling(victim));
        let del_mem = deleter.memory_estimate();
        assert!(del_mem > 0, "hidden-only overlay still costs its id set");
        assert!(del_mem < 256, "deletions must not be charged core bytes (got {del_mem})");

        // Inserted nodes are charged (node record + name + topo copy),
        // and the estimate grows monotonically with each insert.
        let mut inserter = GraphView::new(core.clone());
        let before = inserter.memory_estimate();
        assert_eq!(before, 0);
        inserter.insert_node_on_arc(first_table_arc(&g), "eco_buf0", 1.0).unwrap();
        let one = inserter.memory_estimate();
        assert!(one > 0);
        inserter.insert_node_on_arc(ArcId(g.arcs().len() as u32 + 1), "eco_buf1", 1.0).unwrap();
        let two = inserter.memory_estimate();
        assert!(two > one, "second insert must grow the overlay ({one} -> {two})");
        assert!(
            two < core.memory_estimate(),
            "overlay ({}) must stay below the core ({})",
            two,
            core.memory_estimate()
        );
    }

    #[test]
    fn materialize_round_trips_unedited_view() {
        let g = chain_graph(2);
        let core = DesignCore::freeze(&g);
        let view = GraphView::new(core);
        let m = view.materialize().unwrap();
        assert_eq!(m.live_nodes(), g.live_nodes());
        assert_eq!(m.live_arcs(), g.live_arcs());
        assert_eq!(m.topo_order(), g.topo_order());
        m.validate().unwrap();
    }
}
