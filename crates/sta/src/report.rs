//! Timing reports: critical-path extraction and design slack summaries.
//!
//! A timer is only as useful as its reports. This module reconstructs the
//! worst paths of a completed [`Analysis`] by walking arrival times
//! backwards through the graph (re-evaluating arc delays to find each
//! step's critical predecessor), and aggregates endpoint slacks into the
//! usual WNS/TNS summary.

use crate::constraints::Context;
use crate::graph::{ArcGraph, NodeId};
use crate::propagate::Analysis;
use crate::split::{Edge, Mode};

/// One pin along a reported timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The pin.
    pub node: NodeId,
    /// Pin name.
    pub name: String,
    /// Transition edge of the signal at this pin.
    pub edge: Edge,
    /// Arrival time at this pin (ps).
    pub at: f64,
    /// Incremental delay of the arc into this pin (0 for the startpoint).
    pub incr: f64,
}

/// A reported timing path from a startpoint to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Steps from startpoint to endpoint.
    pub steps: Vec<PathStep>,
    /// Endpoint slack (ps).
    pub slack: f64,
    /// Analysis mode of the path.
    pub mode: Mode,
    /// Endpoint name (PO port or flip-flop check).
    pub endpoint: String,
}

impl TimingPath {
    /// Total path delay (endpoint arrival − startpoint arrival).
    #[must_use]
    pub fn delay(&self) -> f64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(a), Some(b)) => b.at - a.at,
            _ => 0.0,
        }
    }
}

/// Design-level slack aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlackSummary {
    /// Worst negative slack (0 when no endpoint fails).
    pub wns: f64,
    /// Total negative slack (sum of all failing endpoint slacks).
    pub tns: f64,
    /// Number of failing endpoints.
    pub failing: usize,
    /// Number of constrained endpoints.
    pub endpoints: usize,
}

/// Summarises late-mode slacks over every constrained endpoint (POs and
/// flip-flop setup checks).
#[must_use]
pub fn slack_summary(analysis: &Analysis) -> SlackSummary {
    let mut summary = SlackSummary::default();
    let mut visit = |slack: f64| {
        if !slack.is_finite() {
            return;
        }
        summary.endpoints += 1;
        if slack < 0.0 {
            summary.failing += 1;
            summary.tns += slack;
            summary.wns = summary.wns.min(slack);
        }
    };
    for po in &analysis.boundary().po {
        visit(po.slack.late.rise.min(po.slack.late.fall));
    }
    for ck in &analysis.boundary().checks {
        visit(ck.setup_slack.rise.min(ck.setup_slack.fall));
    }
    summary
}

/// Traces the critical (latest-arrival) path into `(endpoint, edge)` in
/// `mode`, reconstructing each step's critical predecessor by re-evaluating
/// arc delays against the recorded arrivals.
///
/// Note: tracing re-evaluates *un-derated* delays; under AOCV analyses the
/// predecessor choice tolerates the small derate mismatch by picking the
/// closest-matching arc.
fn trace_path(
    graph: &ArcGraph,
    analysis: &Analysis,
    ctx: &Context,
    endpoint: NodeId,
    mode: Mode,
    edge: Edge,
) -> Vec<PathStep> {
    let po_loads = ctx.po_loads();
    let mut rev = Vec::new();
    let mut cur = endpoint;
    let mut cur_edge = edge;
    let mut guard = 0usize;
    loop {
        let at_cur = analysis.at(cur)[mode][cur_edge];
        rev.push((cur, cur_edge, at_cur));
        guard += 1;
        if guard > graph.node_count() + 1 {
            break; // defensive: cannot happen on a DAG
        }
        let load = graph.load_of(cur, &po_loads);
        let mut best: Option<(NodeId, Edge, f64)> = None;
        let mut best_gap = f64::INFINITY;
        for aid in graph.fanin(cur) {
            let arc = graph.arc(aid);
            for &in_edge in arc.sense.input_edges(cur_edge) {
                let at_u = analysis.at(arc.from)[mode][in_edge];
                if !at_u.is_finite() {
                    continue;
                }
                let slew_u = analysis.slew(arc.from)[mode][in_edge];
                let (d, _) = ArcGraph::eval_arc(arc, mode, cur_edge, slew_u, load);
                let gap = (at_u + d - at_cur).abs();
                if gap < best_gap {
                    best_gap = gap;
                    best = Some((arc.from, in_edge, at_u));
                }
            }
        }
        match best {
            Some((prev, prev_edge, _)) => {
                cur = prev;
                cur_edge = prev_edge;
            }
            None => break,
        }
    }
    rev.reverse();
    let mut steps = Vec::with_capacity(rev.len());
    let mut prev_at = rev.first().map_or(0.0, |&(_, _, at)| at);
    for (node, step_edge, at) in rev {
        steps.push(PathStep {
            node,
            name: graph.node(node).name.clone(),
            edge: step_edge,
            at,
            incr: at - prev_at,
        });
        prev_at = at;
    }
    steps
}

/// Extracts the `k` worst paths of the design in `mode` (one per endpoint,
/// endpoints ranked by slack ascending). `Late` reports setup-critical
/// (longest) paths; `Early` reports hold-critical (shortest) paths.
#[must_use]
fn critical_paths_in_mode(
    graph: &ArcGraph,
    analysis: &Analysis,
    ctx: &Context,
    mode: Mode,
    k: usize,
) -> Vec<TimingPath> {
    // Collect (endpoint node, worst edge, slack, name).
    let mut endpoints: Vec<(NodeId, Edge, f64, String)> = Vec::new();
    for &po in graph.primary_outputs() {
        let s = *analysis.slack(po).get(mode);
        let (edge, slack) =
            if s.rise <= s.fall { (Edge::Rise, s.rise) } else { (Edge::Fall, s.fall) };
        if slack.is_finite() {
            endpoints.push((po, edge, slack, graph.node(po).name.clone()));
        }
    }
    for check in graph.checks() {
        if graph.node(check.d).dead {
            continue;
        }
        let s = *analysis.slack(check.d).get(mode);
        let (edge, slack) =
            if s.rise <= s.fall { (Edge::Rise, s.rise) } else { (Edge::Fall, s.fall) };
        if slack.is_finite() {
            endpoints.push((check.d, edge, slack, check.name.clone()));
        }
    }
    endpoints.sort_by(|a, b| a.2.total_cmp(&b.2));
    endpoints
        .into_iter()
        .take(k)
        .map(|(node, edge, slack, endpoint)| TimingPath {
            steps: trace_path(graph, analysis, ctx, node, mode, edge),
            slack,
            mode,
            endpoint,
        })
        .collect()
}

/// Extracts the `k` worst late-mode (setup) paths.
#[must_use]
pub fn critical_paths(
    graph: &ArcGraph,
    analysis: &Analysis,
    ctx: &Context,
    k: usize,
) -> Vec<TimingPath> {
    critical_paths_in_mode(graph, analysis, ctx, Mode::Late, k)
}

/// Formats a path as a classic timing-report block.
#[must_use]
pub fn format_path(path: &TimingPath) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Path to {} ({} mode), slack {:.3} ps, delay {:.3} ps",
        path.endpoint,
        path.mode,
        path.slack,
        path.delay()
    );
    let _ = writeln!(out, "{:>10} {:>10} {:>5}  pin", "incr", "arrival", "edge");
    for step in &path.steps {
        let _ = writeln!(
            out,
            "{:>10.3} {:>10.3} {:>5}  {}",
            step.incr, step.at, step.edge.to_string(), step.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liberty::Library;
    use crate::netlist::NetlistBuilder;
    use crate::propagate::Analysis;

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
        (ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap(), lib)
    }

    #[test]
    fn chain_path_visits_every_stage_in_order() {
        let (g, _) = chain(4);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let paths = critical_paths(&g, &an, &ctx, 1);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        // a, u0/A, u0/Z, ..., z : 2 + 2*4 = 10 pins
        assert_eq!(p.steps.len(), 10);
        assert_eq!(p.steps.first().unwrap().name, "a");
        assert_eq!(p.steps.last().unwrap().name, "z");
        // arrivals are monotone and increments non-negative
        for w in p.steps.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        for s in &p.steps[1..] {
            assert!(s.incr >= 0.0);
        }
        // path delay equals endpoint arrival minus startpoint arrival
        let at_end = an.at(g.primary_outputs()[0])[Mode::Late][p.steps.last().unwrap().edge];
        assert!((p.delay() - (at_end - 0.0)).abs() < 1e-9);
    }

    #[test]
    fn edges_alternate_through_inverters() {
        let (g, _) = chain(3);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let p = &critical_paths(&g, &an, &ctx, 1)[0];
        // Each inverter output flips the edge of its input; net arcs keep it.
        let mut flips = 0;
        for w in p.steps.windows(2) {
            if w[0].edge != w[1].edge {
                flips += 1;
            }
        }
        assert_eq!(flips, 3, "three inverters, three edge flips");
    }

    #[test]
    fn slack_summary_counts_violations() {
        let (g, _) = chain(3);
        let mut ctx = Context::nominal(&g);
        // Impossible requirement: everything fails.
        ctx.po[0].rat.late = -1000.0;
        let an = Analysis::run(&g, &ctx).unwrap();
        let s = slack_summary(&an);
        assert_eq!(s.endpoints, 1);
        assert_eq!(s.failing, 1);
        assert!(s.wns < 0.0);
        assert!((s.tns - s.wns).abs() < 1e-12, "single endpoint: tns == wns");
        // Relaxed requirement: nothing fails.
        ctx.po[0].rat.late = 100_000.0;
        let an = Analysis::run(&g, &ctx).unwrap();
        let s = slack_summary(&an);
        assert_eq!(s.failing, 0);
        assert_eq!(s.wns, 0.0);
    }

    #[test]
    fn k_limits_path_count_and_orders_by_slack() {
        let lib = Library::synthetic(2);
        let mut b = NetlistBuilder::new("fork", &lib);
        let a = b.input("a").unwrap();
        let z1 = b.output("z1").unwrap();
        let z2 = b.output("z2").unwrap();
        let u1 = b.cell("u1", "BUFX1").unwrap();
        let u2 = b.cell("u2", "BUFX1").unwrap();
        let u3 = b.cell("u3", "BUFX1").unwrap();
        b.connect("n0", a, &[b.pin_of(u1, "A").unwrap()]).unwrap();
        // z1 via one buffer, z2 via two buffers (longer, less slack)
        b.connect("n1", b.pin_of(u1, "Z").unwrap(), &[z1, b.pin_of(u2, "A").unwrap()])
            .unwrap();
        b.connect("n2", b.pin_of(u2, "Z").unwrap(), &[b.pin_of(u3, "A").unwrap()]).unwrap();
        b.connect("n3", b.pin_of(u3, "Z").unwrap(), &[z2]).unwrap();
        let g = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let paths = critical_paths(&g, &an, &ctx, 5);
        assert_eq!(paths.len(), 2, "two endpoints only");
        assert!(paths[0].slack <= paths[1].slack);
        assert_eq!(paths[0].endpoint, "z2", "longer path is more critical");
        let one = critical_paths(&g, &an, &ctx, 1);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn hold_paths_trace_shortest_arrivals() {
        let (g, _) = chain(3);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let late = &critical_paths_in_mode(&g, &an, &ctx, Mode::Late, 1)[0];
        let early = &critical_paths_in_mode(&g, &an, &ctx, Mode::Early, 1)[0];
        assert_eq!(early.mode, Mode::Early);
        assert!(
            early.delay() < late.delay(),
            "hold path must be faster: {} vs {}",
            early.delay(),
            late.delay()
        );
        assert_eq!(early.steps.len(), late.steps.len(), "single chain: same pins");
        // every early arrival is below the matching late arrival
        for (e, l) in early.steps.iter().zip(&late.steps) {
            assert!(e.at <= l.at + 1e-9);
        }
    }

    #[test]
    fn format_path_is_human_readable() {
        let (g, _) = chain(2);
        let ctx = Context::nominal(&g);
        let an = Analysis::run(&g, &ctx).unwrap();
        let p = &critical_paths(&g, &an, &ctx, 1)[0];
        let text = format_path(p);
        assert!(text.contains("slack"));
        assert!(text.contains("u0/Z"));
        assert!(text.lines().count() >= p.steps.len() + 2);
    }
}
