//! Common path pessimism removal (CPPR).
//!
//! With distinct early/late libraries, the shared prefix of a launch and
//! capture clock path is counted once with early delays and once with late
//! delays — pessimism that cannot occur physically, because a single clock
//! edge traverses the shared segment exactly once. CPPR credits back the
//! early/late difference at the deepest common point of the two clock paths
//! (the classic path-based formulation of iTimerC 2.0 / Huang et al.).
//!
//! The credit computation itself is consumed by
//! [`crate::propagate::Analysis`] when [`AnalysisOptions::cppr`] is set;
//! this module additionally offers [`CpprReport`] for inspecting per-check
//! credits and the clock-tree common points.
//!
//! [`AnalysisOptions::cppr`]: crate::propagate::AnalysisOptions

use crate::graph::NodeId;
use crate::propagate::Analysis;
use crate::split::{Edge, Mode, Quad};
use crate::view::TimingGraph;

const NONE: u32 = u32::MAX;

/// Computes the CPPR credit between a launching clock pin and a capturing
/// clock pin given per-node arrivals and critical clock-path parents.
///
/// Returns `0.0` when either tag is missing or the paths share no node.
/// The credit is the late/early arrival gap at the deepest common node,
/// clamped to be non-negative.
pub(crate) fn common_path_credit(
    at: &[Quad],
    clock_parent: &[u32],
    launch_ck: u32,
    capture_ck: u32,
) -> f64 {
    if launch_ck == NONE || capture_ck == NONE {
        return 0.0;
    }
    // Whether `node` is on the launch ancestry (bounded by clock depth).
    // Re-walking the short clock path per query keeps every re-time free
    // of allocation; collecting it first would scan it just the same.
    let on_launch_path = |node: u32| {
        let mut cur = launch_ck;
        let mut guard = 0usize;
        while cur != NONE && guard < at.len() + 1 {
            if cur == node {
                return true;
            }
            cur = clock_parent[cur as usize];
            guard += 1;
        }
        false
    };
    // Walk capture ancestry until we meet it.
    let mut cur = capture_ck;
    let mut guard = 0usize;
    while cur != NONE && guard < at.len() + 1 {
        if on_launch_path(cur) {
            let late = at[cur as usize][Mode::Late][Edge::Rise];
            let early = at[cur as usize][Mode::Early][Edge::Rise];
            if late.is_finite() && early.is_finite() {
                return (late - early).max(0.0);
            }
            return 0.0;
        }
        cur = clock_parent[cur as usize];
        guard += 1;
    }
    0.0
}

/// CPPR accounting for one flip-flop check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckCppr {
    /// Check (flip-flop) name.
    pub name: String,
    /// Launching clock pin of the critical setup path, if any.
    pub launch_ck: Option<NodeId>,
    /// Capturing clock pin.
    pub capture_ck: NodeId,
    /// Setup credit (rise data edge).
    pub setup_credit: f64,
    /// Hold credit (rise data edge).
    pub hold_credit: f64,
}

/// Per-design CPPR report derived from a completed analysis.
#[derive(Debug, Clone, Default)]
pub struct CpprReport {
    /// One entry per flip-flop check.
    pub checks: Vec<CheckCppr>,
}

impl CpprReport {
    /// Builds the report from a CPPR-enabled analysis.
    #[must_use]
    pub fn from_analysis<G: TimingGraph>(graph: &G, analysis: &Analysis) -> Self {
        let checks = graph
            .checks()
            .iter()
            .enumerate()
            .map(|(ci, c)| CheckCppr {
                name: c.name.clone(),
                launch_ck: analysis.launch_tag(c.d, Mode::Late, Edge::Rise),
                capture_ck: c.ck,
                setup_credit: analysis.credits()[ci].setup[Edge::Rise],
                hold_credit: analysis.credits()[ci].hold[Edge::Rise],
            })
            .collect();
        CpprReport { checks }
    }

    /// Total setup credit recovered across all checks.
    #[must_use]
    pub fn total_setup_credit(&self) -> f64 {
        self.checks.iter().map(|c| c.setup_credit).sum()
    }

    /// Number of checks that received a non-zero credit.
    #[must_use]
    pub fn credited_checks(&self) -> usize {
        self.checks.iter().filter(|c| c.setup_credit > 0.0 || c.hold_credit > 0.0).count()
    }
}

/// Multiple-fan-out pins of the clock network — the potential common points
/// of launch/capture clock-path pairs. These are exactly the pins the paper
/// labels as CPPR-crucial when generating training data (§5.1) and feeds to
/// the dedicated `is_CPPR` feature (§5.3).
#[must_use]
pub fn cppr_crucial_pins<G: TimingGraph>(graph: &G) -> Vec<NodeId> {
    (0..graph.node_count())
        .map(|i| NodeId(i as u32))
        .filter(|&n| {
            !graph.node_dead(n) && graph.node_is_clock_network(n) && graph.out_degree(n) > 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Context;
    use crate::graph::ArcGraph;
    use crate::liberty::Library;
    use crate::netlist::NetlistBuilder;
    use crate::propagate::{Analysis, AnalysisOptions};

    /// Builds clk -> root buffer -> two branch buffers -> 2 FFs each, with
    /// a data path from ff_a0 to ff_b0 (different branches: shallow common
    /// point) and from ff_a0 to ff_a1 (same branch: deep common point).
    fn two_branch_tree() -> (ArcGraph, Library) {
        let lib = Library::synthetic(6);
        let mut b = NetlistBuilder::new("tree", &lib);
        let clk = b.clock_input("clk").unwrap();
        let d = b.input("d").unwrap();
        let q = b.output("q").unwrap();
        let q2 = b.output("q2").unwrap();
        let root = b.cell("root", "CLKBUFX4").unwrap();
        let ba = b.cell("ba", "CLKBUFX2").unwrap();
        let bb = b.cell("bb", "CLKBUFX2").unwrap();
        let ffa0 = b.cell("ffa0", "DFFX1").unwrap();
        let ffa1 = b.cell("ffa1", "DFFX1").unwrap();
        let ffb0 = b.cell("ffb0", "DFFX1").unwrap();
        let i1 = b.cell("i1", "INVX1").unwrap();
        let i2 = b.cell("i2", "INVX1").unwrap();
        b.connect("n_clk", clk, &[b.pin_of(root, "A").unwrap()]).unwrap();
        b.connect(
            "n_root",
            b.pin_of(root, "Z").unwrap(),
            &[b.pin_of(ba, "A").unwrap(), b.pin_of(bb, "A").unwrap()],
        )
        .unwrap();
        b.connect(
            "n_ba",
            b.pin_of(ba, "Z").unwrap(),
            &[b.pin_of(ffa0, "CK").unwrap(), b.pin_of(ffa1, "CK").unwrap()],
        )
        .unwrap();
        b.connect("n_bb", b.pin_of(bb, "Z").unwrap(), &[b.pin_of(ffb0, "CK").unwrap()])
            .unwrap();
        b.connect("n_d", d, &[b.pin_of(ffa0, "D").unwrap()]).unwrap();
        // ffa0 -> i1 -> ffa1 (same branch)
        b.connect("n_q0", b.pin_of(ffa0, "Q").unwrap(), &[b.pin_of(i1, "A").unwrap()])
            .unwrap();
        b.connect("n_i1", b.pin_of(i1, "Z").unwrap(), &[b.pin_of(ffa1, "D").unwrap()])
            .unwrap();
        // ffa1 -> i2 -> ffb0 (cross branch)
        b.connect("n_q1", b.pin_of(ffa1, "Q").unwrap(), &[b.pin_of(i2, "A").unwrap()])
            .unwrap();
        b.connect("n_i2", b.pin_of(i2, "Z").unwrap(), &[b.pin_of(ffb0, "D").unwrap()])
            .unwrap();
        b.connect("n_q2o", b.pin_of(ffb0, "Q").unwrap(), &[q, q2]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        (g, lib)
    }

    #[test]
    fn same_branch_credit_exceeds_cross_branch_credit() {
        let (g, _) = two_branch_tree();
        let ctx = Context::nominal(&g);
        let an = Analysis::run_with_options(&g, &ctx, AnalysisOptions { cppr: true, ..Default::default() }).unwrap();
        let report = CpprReport::from_analysis(&g, &an);
        let ffa1 = report.checks.iter().find(|c| c.name == "ffa1").unwrap();
        let ffb0 = report.checks.iter().find(|c| c.name == "ffb0").unwrap();
        // ffa0 -> ffa1 shares clk+root+ba (deep); ffa1 -> ffb0 shares
        // clk+root only (shallow).
        assert!(
            ffa1.setup_credit > ffb0.setup_credit,
            "deep common point should credit more: {} vs {}",
            ffa1.setup_credit,
            ffb0.setup_credit
        );
        assert!(ffb0.setup_credit > 0.0, "cross-branch still shares the root");
        assert!(report.total_setup_credit() > 0.0);
        assert!(report.credited_checks() >= 2);
    }

    #[test]
    fn crucial_pins_are_multi_fanout_clock_pins() {
        let (g, _) = two_branch_tree();
        let crucial = cppr_crucial_pins(&g);
        let names: Vec<&str> = crucial.iter().map(|&n| g.node(n).name.as_str()).collect();
        // root/Z drives two branch buffers; ba/Z drives two FFs.
        assert!(names.contains(&"root/Z"), "names: {names:?}");
        assert!(names.contains(&"ba/Z"), "names: {names:?}");
        assert!(!names.contains(&"bb/Z"), "bb/Z drives a single FF: {names:?}");
    }

    #[test]
    fn credit_is_zero_without_tags() {
        let at = vec![crate::split::quad(0.0); 4];
        let parents = vec![NONE; 4];
        assert_eq!(common_path_credit(&at, &parents, NONE, 2), 0.0);
        assert_eq!(common_path_credit(&at, &parents, 1, NONE), 0.0);
        // disjoint paths
        assert_eq!(common_path_credit(&at, &parents, 0, 1), 0.0);
    }

    #[test]
    fn credit_clamps_negative_gap() {
        // Node 0 is its own common point with inverted early/late.
        let mut at = vec![crate::split::quad(0.0); 1];
        at[0][Mode::Late][Edge::Rise] = 1.0;
        at[0][Mode::Early][Edge::Rise] = 5.0;
        let parents = vec![NONE];
        assert_eq!(common_path_credit(&at, &parents, 0, 0), 0.0);
    }
}
