//! Interface logic model (ILM) extraction.
//!
//! The ILM keeps exactly the logic visible from the block boundary: the
//! combinational cones from primary inputs to the first register stage, from
//! the last register stage to primary outputs, the interface registers
//! themselves, and the clock network driving them. Register-to-register
//! internals are dropped wholesale. Every approach compared in the paper
//! except ATM starts from this netlist (§5.2, Fig. 9 step 1).

use tmm_sta::graph::{ArcGraph, NodeId, NodeKind};
use tmm_sta::Result;

/// Classification of why a node is kept in the interface logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlmRegion {
    /// Not part of the interface logic (removed).
    Dropped,
    /// On a combinational path from a primary input.
    InputCone,
    /// On a combinational path to a primary output.
    OutputCone,
    /// Pin of an interface register.
    InterfaceRegister,
    /// Clock-network pin driving an interface register.
    ClockNetwork,
    /// Boundary port.
    Port,
}

/// Per-node ILM classification for a graph.
#[derive(Debug, Clone)]
pub struct IlmMask {
    regions: Vec<IlmRegion>,
}

impl IlmMask {
    /// Computes the interface-logic classification of every node.
    #[must_use]
    pub fn compute(graph: &ArcGraph) -> Self {
        let n = graph.node_count();
        let mut regions = vec![IlmRegion::Dropped; n];

        // Forward cone from primary inputs (combinational only: traversal
        // never passes a flip-flop because FfData has no outgoing arcs and
        // FfOutput is only entered through its clock arc).
        let mut stack: Vec<NodeId> = graph.primary_inputs().to_vec();
        let mut in_cone = vec![false; n];
        while let Some(u) = stack.pop() {
            if in_cone[u.index()] || graph.node(u).dead {
                continue;
            }
            in_cone[u.index()] = true;
            if !matches!(graph.node(u).kind, NodeKind::FfData(_)) {
                for a in graph.fanout(u) {
                    stack.push(graph.arc(a).to);
                }
            }
        }

        // Backward cone from primary outputs, stopping at FF outputs.
        let mut out_cone = vec![false; n];
        let mut stack: Vec<NodeId> = graph.primary_outputs().to_vec();
        while let Some(u) = stack.pop() {
            if out_cone[u.index()] || graph.node(u).dead {
                continue;
            }
            out_cone[u.index()] = true;
            if !matches!(graph.node(u).kind, NodeKind::FfOutput) {
                for a in graph.fanin(u) {
                    stack.push(graph.arc(a).from);
                }
            }
        }

        for i in 0..n {
            if graph.node(NodeId(i as u32)).dead {
                continue;
            }
            if in_cone[i] {
                regions[i] = IlmRegion::InputCone;
            }
            if out_cone[i] {
                regions[i] = IlmRegion::OutputCone;
            }
        }

        // Interface registers: capture FFs whose D lies in the input cone,
        // launch FFs whose Q lies in the output cone.
        let mut kept_cks: Vec<NodeId> = Vec::new();
        for check in graph.checks() {
            let capture = in_cone[check.d.index()];
            let launch = out_cone[check.q.index()];
            if capture {
                regions[check.d.index()] = IlmRegion::InterfaceRegister;
            }
            if launch {
                regions[check.q.index()] = IlmRegion::InterfaceRegister;
            }
            if capture || launch {
                regions[check.ck.index()] = IlmRegion::InterfaceRegister;
                kept_cks.push(check.ck);
            }
        }

        // Clock network backward from kept clock pins to the source.
        let mut stack = kept_cks;
        while let Some(u) = stack.pop() {
            for a in graph.fanin(u) {
                let f = graph.arc(a).from;
                let node = graph.node(f);
                if node.dead || !node.is_clock_network {
                    continue;
                }
                if regions[f.index()] != IlmRegion::ClockNetwork
                    && regions[f.index()] != IlmRegion::InterfaceRegister
                {
                    regions[f.index()] = IlmRegion::ClockNetwork;
                    stack.push(f);
                }
            }
        }

        // Ports always survive (their region overrides cones for clarity).
        for &p in graph.primary_inputs().iter().chain(graph.primary_outputs()) {
            regions[p.index()] = IlmRegion::Port;
        }
        if let Some(c) = graph.clock_source() {
            regions[c.index()] = IlmRegion::Port;
        }

        IlmMask { regions }
    }

    /// Region of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn region(&self, i: NodeId) -> IlmRegion {
        self.regions[i.index()]
    }

    /// `true` when the node survives ILM extraction.
    #[must_use]
    pub fn keeps(&self, i: NodeId) -> bool {
        self.regions[i.index()] != IlmRegion::Dropped
    }

    /// Boolean keep mask indexed by node.
    #[must_use]
    fn as_keep_mask(&self) -> Vec<bool> {
        self.regions.iter().map(|&r| r != IlmRegion::Dropped).collect()
    }

    /// Number of kept nodes.
    #[must_use]
    pub fn kept_count(&self) -> usize {
        self.regions.iter().filter(|&&r| r != IlmRegion::Dropped).count()
    }
}

/// Extracts the interface logic netlist: clones `graph` and removes every
/// node outside the ILM regions.
///
/// # Errors
///
/// Propagates graph-edit errors (the mask is always well-formed, so this is
/// effectively infallible for valid graphs).
pub fn extract_ilm(graph: &ArcGraph) -> Result<(ArcGraph, IlmMask)> {
    let mask = IlmMask::compute(graph);
    let mut ilm = graph.clone();
    ilm.retain_nodes(&mask.as_keep_mask())?;
    ilm.set_name(format!("{}_ilm", graph.name()));
    Ok((ilm, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::constraints::Context;
    use tmm_sta::liberty::Library;
    use tmm_sta::propagate::Analysis;

    fn pipeline_graph(banks: usize) -> (ArcGraph, Library) {
        let lib = Library::synthetic(4);
        let n = CircuitSpec::new("p")
            .inputs(5)
            .outputs(5)
            .register_banks(banks, 5)
            .cloud(3, 7)
            .seed(17)
            .generate(&lib)
            .unwrap();
        (ArcGraph::from_netlist(&n, &lib).unwrap(), lib)
    }

    #[test]
    fn ilm_drops_internal_registers_with_three_banks() {
        let (g, _) = pipeline_graph(3);
        let (ilm, mask) = extract_ilm(&g).unwrap();
        assert!(ilm.live_nodes() < g.live_nodes(), "something must be dropped");
        // Middle-bank FFs are neither capture-from-PI nor launch-to-PO.
        let dropped_ffs = g
            .checks()
            .iter()
            .filter(|c| !mask.keeps(c.d) && !mask.keeps(c.q))
            .count();
        assert!(dropped_ffs > 0, "middle bank registers should be dropped");
        ilm.validate().unwrap();
    }

    #[test]
    fn ilm_preserves_boundary_timing_exactly() {
        // ILM removes only logic invisible from the boundary, so boundary
        // timing must match the flat design bit-for-bit.
        let (g, _) = pipeline_graph(3);
        let (ilm, _) = extract_ilm(&g).unwrap();
        let ctx = Context::nominal(&g);
        let flat = Analysis::run(&g, &ctx).unwrap();
        let reduced = Analysis::run(&ilm, &ctx).unwrap();
        let d = flat.boundary().diff(reduced.boundary());
        assert!(d.count > 0);
        assert!(d.max < 1e-9, "ILM must be exact, got max err {}", d.max);
    }

    #[test]
    fn ports_and_clock_source_always_kept() {
        let (g, _) = pipeline_graph(2);
        let (_, mask) = extract_ilm(&g).unwrap();
        for &p in g.primary_inputs().iter().chain(g.primary_outputs()) {
            assert_eq!(mask.region(p), IlmRegion::Port);
        }
        let c = g.clock_source().unwrap();
        assert_eq!(mask.region(c), IlmRegion::Port);
    }

    #[test]
    fn clock_network_to_interface_ffs_survives() {
        let (g, _) = pipeline_graph(2);
        let (ilm, mask) = extract_ilm(&g).unwrap();
        // every kept check still has a live clock path
        let ctx = Context::nominal(&ilm);
        let an = Analysis::run(&ilm, &ctx).unwrap();
        for check in ilm.checks() {
            if ilm.node(check.d).dead || ilm.node(check.ck).dead {
                continue;
            }
            assert!(
                an.at(check.ck)[tmm_sta::Mode::Late][tmm_sta::Edge::Rise].is_finite(),
                "clock must reach kept register {}",
                check.name
            );
            assert!(mask.keeps(check.ck));
        }
    }

    #[test]
    fn single_bank_design_keeps_everything_reachable() {
        // With one bank, every register is interface (capture from PI and
        // launch to PO), so almost nothing is dropped.
        let (g, _) = pipeline_graph(1);
        let (_, mask) = extract_ilm(&g).unwrap();
        let dropped = (0..g.node_count())
            .filter(|&i| !g.node(NodeId(i as u32)).dead && !mask.keeps(NodeId(i as u32)))
            .count();
        // Dangling cells can still be dropped, but registers cannot.
        for c in g.checks() {
            assert!(mask.keeps(c.ck), "bank-1 register {} must stay", c.name);
        }
        let total = g.live_nodes();
        assert!(dropped < total / 4, "dropped {dropped} of {total}");
    }
}
