//! The differential-check catalog.
//!
//! Every check compares two or more independent ways of computing the same
//! timing quantity, or asserts a semantic invariant no single engine can
//! self-check. Checks report a divergence as a human-readable detail
//! string; `None` means the design passed. An *error* from an engine under
//! test is itself a divergence — a corrupted design must be rejected
//! loudly, not analyzed differently.
//!
//! Cross-engine equality is *bit* equality over the full boundary
//! snapshot, with NaN compared by pattern (all NaNs equal): the plain
//! [`BoundarySnapshot::diff`] statistic skips non-finite pairs, which
//! would let a corruption that turns one engine's numbers into NaN slide
//! through unnoticed.

use crate::design::DiffDesign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmm_gnn::kernels::{self, naive, KernelPolicy};
use tmm_gnn::{GnnModel, Matrix, ModelConfig, NeighborMode, NodeGraph, TrainConfig, TrainSample};
use tmm_faults::EcoStream;
use tmm_macromodel::eval::{evaluate, EvalOptions};
use tmm_macromodel::{
    reduce_graph_via_view_budget_ckpt, LutCache, MacroModel, MacroModelOptions, ReducePolicy,
};
use tmm_sensitivity::{
    dirty_probe_set, evaluate_ts, evaluate_ts_cloning, evaluate_ts_incremental,
    evaluate_ts_with_core, evaluate_ts_with_core_ckpt, extract_features, pin_graph_edges,
    TsOptions, TsResult,
};
use tmm_sta::compare::BoundarySnapshot;
use tmm_sta::constraints::{Context, PiConstraint};
use tmm_sta::cppr::CpprReport;
use tmm_sta::graph::{ArcId, ArcTiming, NodeId, NodeKind};
use tmm_sta::incremental::IncrementalState;
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::report::critical_paths;
use tmm_sta::retime::ReferenceAnalysis;
use tmm_sta::split::{mode_edge_iter, Edge, Split};
use tmm_sta::view::{DesignCore, GraphView, TimingGraph};

/// Absolute tolerance for the semantic (non-bit) invariants.
pub const SEM_TOL: f64 = 1e-9;

/// Stable names of every check, in execution order. These names appear in
/// reports, repro artifacts, and metrics labels, and are the replay keys.
pub const CHECK_NAMES: [&str; 11] = [
    "engine-equality",
    "retime-equality",
    "ts-threads",
    "ts-mem-budget",
    "gnn-backend",
    "slack-conservation",
    "ts-monotone-merge",
    "ilm-boundary",
    "cppr-credit",
    "ckpt-replay",
    "eco-equality",
];

/// Per-check tuning knobs (kept small: differential coverage comes from
/// many designs, not exhaustive per-design work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Boundary contexts per TS evaluation.
    pub ts_contexts: usize,
    /// Worker-thread count for the parallel side of `ts-threads` and
    /// `gnn-backend`.
    pub threads: usize,
    /// Bypass probes per design in `retime-equality`.
    pub probes: usize,
    /// Length of the seeded ECO edit stream driven by `eco-equality`.
    pub eco_edits: usize,
    /// Deliberately carry one stale dirty pin per edit in
    /// `eco-equality`'s incremental sweep — the suite's self-test that
    /// the prefix-replay oracle catches (and shrinks) a stale carry.
    pub eco_stale_carry: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            ts_contexts: 2,
            threads: 3,
            probes: 4,
            eco_edits: 3,
            eco_stale_carry: false,
        }
    }
}

/// One confirmed disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which check fired (an entry of [`CHECK_NAMES`]).
    pub check: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Runs every check against `design`, collecting all divergences (one per
/// check at most — each check stops at its first finding).
#[must_use]
pub fn run_all(design: &DiffDesign, opts: &CheckOptions) -> Vec<Divergence> {
    CHECK_NAMES
        .iter()
        .filter_map(|&name| {
            let mut span = tmm_obs::span("diffcheck_check", "diffcheck");
            span.arg("check", name);
            span.arg("design", &design.name);
            tmm_obs::counter_add("tmm_diffcheck_checks_total", &[("check", name)], 1);
            let detail = run_named(design, name, opts)?;
            tmm_obs::counter_add("tmm_diffcheck_divergences_total", &[("check", name)], 1);
            Some(Divergence { check: name, detail })
        })
        .collect()
}

/// Runs one check by name (the shrinker's and replayer's entry point).
/// Unknown names report themselves as a divergence so a corrupted repro
/// file cannot silently "pass".
#[must_use]
pub fn run_named(design: &DiffDesign, name: &str, opts: &CheckOptions) -> Option<String> {
    match name {
        "engine-equality" => engine_equality(design),
        "retime-equality" => retime_equality(design, opts),
        "ts-threads" => ts_threads(design, opts),
        "ts-mem-budget" => ts_mem_budget(design, opts),
        "gnn-backend" => gnn_backend(design, opts),
        "slack-conservation" => slack_conservation(design),
        "ts-monotone-merge" => ts_monotone_merge(design, opts),
        "ilm-boundary" => ilm_boundary(design),
        "cppr-credit" => cppr_credit(design),
        "ckpt-replay" => ckpt_replay(design, opts),
        "eco-equality" => eco_equality(design, opts),
        other => Some(format!("unknown check '{other}'")),
    }
}

/// Canonical bit pattern: all NaNs compare equal, everything else exact.
fn fbits(x: f64) -> u64 {
    if x.is_nan() {
        u64::MAX
    } else {
        x.to_bits()
    }
}

/// Bit-level comparison of two boundary snapshots (NaN-pattern aware,
/// matched by name). Returns the first mismatch rendered.
fn boundary_bit_diff(a: &BoundarySnapshot, b: &BoundarySnapshot) -> Option<String> {
    if a.po.len() != b.po.len() || a.pi.len() != b.pi.len() || a.checks.len() != b.checks.len()
    {
        return Some(format!(
            "boundary shape differs: {}/{}/{} vs {}/{}/{} (po/pi/checks)",
            a.po.len(),
            a.pi.len(),
            a.checks.len(),
            b.po.len(),
            b.pi.len(),
            b.checks.len()
        ));
    }
    let b_po: std::collections::HashMap<&str, usize> =
        b.po.iter().enumerate().map(|(i, p)| (p.name.as_str(), i)).collect();
    for p in &a.po {
        let Some(&j) = b_po.get(p.name.as_str()) else {
            return Some(format!("PO {} missing from one side", p.name));
        };
        let q = &b.po[j];
        for (m, e) in mode_edge_iter() {
            for (what, x, y) in [
                ("at", p.at[m][e], q.at[m][e]),
                ("slew", p.slew[m][e], q.slew[m][e]),
                ("rat", p.rat[m][e], q.rat[m][e]),
                ("slack", p.slack[m][e], q.slack[m][e]),
            ] {
                if fbits(x) != fbits(y) {
                    return Some(format!("PO {} {what}[{m:?}][{e:?}]: {x} vs {y}", p.name));
                }
            }
        }
    }
    let b_pi: std::collections::HashMap<&str, usize> =
        b.pi.iter().enumerate().map(|(i, p)| (p.name.as_str(), i)).collect();
    for p in &a.pi {
        let Some(&j) = b_pi.get(p.name.as_str()) else {
            return Some(format!("PI {} missing from one side", p.name));
        };
        for (m, e) in mode_edge_iter() {
            let (x, y) = (p.rat[m][e], b.pi[j].rat[m][e]);
            if fbits(x) != fbits(y) {
                return Some(format!("PI {} rat[{m:?}][{e:?}]: {x} vs {y}", p.name));
            }
        }
    }
    let b_ck: std::collections::HashMap<&str, usize> =
        b.checks.iter().enumerate().map(|(i, c)| (c.name.as_str(), i)).collect();
    for c in &a.checks {
        let Some(&j) = b_ck.get(c.name.as_str()) else {
            return Some(format!("check {} missing from one side", c.name));
        };
        let q = &b.checks[j];
        for e in Edge::ALL {
            for (what, x, y) in [
                ("setup_slack", c.setup_slack[e], q.setup_slack[e]),
                ("hold_slack", c.hold_slack[e], q.hold_slack[e]),
                ("setup_credit", c.setup_credit[e], q.setup_credit[e]),
                ("hold_credit", c.hold_credit[e], q.hold_credit[e]),
            ] {
                if fbits(x) != fbits(y) {
                    return Some(format!("check {} {what}[{e:?}]: {x} vs {y}", c.name));
                }
            }
        }
    }
    None
}

/// The four (CPPR × AOCV) analysis-option corners.
const OPTION_CORNERS: [(bool, bool); 4] =
    [(false, false), (true, false), (false, true), (true, true)];

/// Flat [`Analysis`] vs pristine [`GraphView`] analysis vs
/// [`ReferenceAnalysis`] — all three must agree bit-for-bit at every
/// option corner. The clean graph is the oracle; the (possibly tainted)
/// twin feeds the view engines.
fn engine_equality(d: &DiffDesign) -> Option<String> {
    let ctx = Context::nominal(&d.flat);
    for (cppr, aocv) in OPTION_CORNERS {
        let o = AnalysisOptions { cppr, aocv };
        let oracle = match Analysis::run_with_options(&d.flat, &ctx, o) {
            Ok(a) => a,
            Err(e) => return Some(format!("flat analysis failed (cppr={cppr} aocv={aocv}): {e}")),
        };
        let core = DesignCore::freeze(&d.tainted);
        let view = GraphView::new(core.clone());
        let viewed = match Analysis::run_with_options(&view, &ctx, o) {
            Ok(a) => a,
            Err(e) => return Some(format!("view analysis failed (cppr={cppr} aocv={aocv}): {e}")),
        };
        if let Some(diff) = boundary_bit_diff(oracle.boundary(), viewed.boundary()) {
            return Some(format!("flat vs view (cppr={cppr} aocv={aocv}): {diff}"));
        }
        let reference = match ReferenceAnalysis::new(core, ctx.clone(), o) {
            Ok(r) => r,
            Err(e) => {
                return Some(format!("reference analysis failed (cppr={cppr} aocv={aocv}): {e}"))
            }
        };
        if let Some(diff) = boundary_bit_diff(oracle.boundary(), reference.boundary()) {
            return Some(format!("flat vs reference (cppr={cppr} aocv={aocv}): {diff}"));
        }
    }
    None
}

/// Deterministically spread `k` probe pins over the design's bypassable
/// internal nodes.
fn probe_nodes(graph: &tmm_sta::graph::ArcGraph, k: usize) -> Vec<NodeId> {
    let all: Vec<NodeId> = (0..graph.node_count())
        .map(|i| NodeId(i as u32))
        .filter(|&n| {
            !graph.node(n).dead
                && graph.node(n).kind == NodeKind::Internal
                && graph.can_bypass(n)
        })
        .collect();
    if all.is_empty() {
        return all;
    }
    let stride = (all.len() / k.max(1)).max(1);
    all.into_iter().step_by(stride).take(k).collect()
}

/// Cone-limited retime vs full view analysis on single-pin bypasses, at
/// three option corners (the AOCV corner exercises the full-analysis
/// fallback). Also asserts the probe-accounting invariant: every probe
/// lands in exactly one of the cone/fallback stat buckets. At each corner
/// the session front end of the same cone sweep runs too
/// ([`incremental_session_equality`]).
fn retime_equality(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    let ctx = Context::nominal(&d.flat);
    let (core, stream) = eco_stream_for(d, opts);
    let probes = probe_nodes(&d.tainted, opts.probes);
    for (cppr, aocv) in [(false, false), (true, false), (false, true)] {
        let o = AnalysisOptions { cppr, aocv };
        let reference = match ReferenceAnalysis::new(core.clone(), ctx.clone(), o) {
            Ok(r) => r,
            Err(e) => return Some(format!("reference failed (cppr={cppr} aocv={aocv}): {e}")),
        };
        let mut scratch = reference.scratch();
        let mut served = 0usize;
        for &n in &probes {
            let mut view = GraphView::new(core.clone());
            if view.bypass_node(n).is_err() {
                continue;
            }
            let cone = match reference.retime(&view, &mut scratch) {
                Ok(b) => b,
                Err(e) => {
                    return Some(format!(
                        "retime failed at node {} (cppr={cppr} aocv={aocv}): {e}",
                        n.index()
                    ))
                }
            };
            served += 1;
            let full = match Analysis::run_with_options(&view, &ctx, o) {
                Ok(a) => a,
                Err(e) => {
                    return Some(format!(
                        "full view analysis failed at node {} (cppr={cppr} aocv={aocv}): {e}",
                        n.index()
                    ))
                }
            };
            if let Some(diff) = boundary_bit_diff(full.boundary(), cone) {
                return Some(format!(
                    "retime vs full at node {} (cppr={cppr} aocv={aocv}): {diff}",
                    n.index()
                ));
            }
        }
        let s = scratch.stats();
        if s.updates + s.full_fallbacks != served {
            return Some(format!(
                "probe accounting (cppr={cppr} aocv={aocv}): {} cone + {} fallback != {served} probes served",
                s.updates, s.full_fallbacks
            ));
        }
        if aocv && served > 0 && s.full_fallbacks != served {
            return Some(format!(
                "AOCV probes must all fall back: {} of {served} did",
                s.full_fallbacks
            ));
        }
        if let Some(diff) = incremental_session_equality(&core, &stream, &ctx, o) {
            return Some(format!("incremental session (cppr={cppr} aocv={aocv}): {diff}"));
        }
    }
    None
}

/// Drives one [`IncrementalState`] through the design's seeded ECO stream
/// on a single view. Each edit is preceded and followed by a burst of
/// re-constraints (`setpi`, `setpoload` and `setporat` on several ports),
/// so the burst before it is still pending when the edit's re-sync runs.
/// The two bursts start at different ports, so the second does not
/// re-seed what the first left pending.
/// After every step one read bit-compares every node (hidden and inserted
/// ones included) with a from-scratch analysis of the view.
fn incremental_session_equality(
    core: &std::sync::Arc<DesignCore>,
    stream: &EcoStream,
    ctx: &Context,
    o: AnalysisOptions,
) -> Option<String> {
    /// Ports each burst re-constrains, per kind.
    const BURST_PORTS: usize = 3;
    let mut view = GraphView::new(core.clone());
    let mut inc = match IncrementalState::new(&view, ctx.clone(), o) {
        Ok(s) => s,
        Err(e) => return Some(format!("initial build failed: {e}")),
    };
    let (pis, pos) = (ctx.pi.len(), ctx.po.len());
    // Burst `b` re-constrains ports `b * BURST_PORTS ..` of each kind.
    let burst = |inc: &mut IncrementalState, b: usize| -> Result<(), String> {
        for j in 0..BURST_PORTS {
            let port = b * BURST_PORTS + j;
            let v = port as f64;
            if pis > 0 {
                let constraint = PiConstraint { at: Split::new(v, v + 7.5), slew: 12.0 + 3.0 * v };
                inc.set_pi(port % pis, constraint).map_err(|e| format!("setpi: {e}"))?;
            }
            if pos > 0 {
                inc.set_po_load(port % pos, 2.0 + v).map_err(|e| format!("setpoload: {e}"))?;
                let rat = Split::new(-5.0 - v, 600.0 + 10.0 * v);
                inc.set_po_rat(port % pos, rat).map_err(|e| format!("setporat: {e}"))?;
            }
        }
        Ok(())
    };
    for (k, edit) in stream.edits().iter().enumerate() {
        let what = format!("edit {k} ({})", edit.describe());
        if let Err(e) = burst(&mut inc, 2 * k) {
            return Some(format!("burst before {what} failed: {e}"));
        }
        if let Err(e) = edit.apply(&mut view) {
            // The full stream applies cleanly by construction.
            return Some(format!("{what}: failed to apply: {e}"));
        }
        let rebuilt = inc.resync(&view);
        if rebuilt != o.aocv {
            return Some(format!("{what}: re-sync rebuilt={rebuilt} with aocv={}", o.aocv));
        }
        if let Err(e) = burst(&mut inc, 2 * k + 1) {
            return Some(format!("burst after {what} failed: {e}"));
        }
        let full = match Analysis::run_with_options(&view, inc.ctx(), o) {
            Ok(a) => a,
            Err(e) => return Some(format!("after {what}: full view analysis failed: {e}")),
        };
        let got = inc.analysis(&view);
        if let Some(diff) = boundary_bit_diff(full.boundary(), got.boundary()) {
            return Some(format!("after {what}: {diff}"));
        }
        for i in 0..view.node_count() {
            let n = NodeId(i as u32);
            for (m, e) in mode_edge_iter() {
                for (q, x, y) in [
                    ("at", full.at(n)[m][e], got.at(n)[m][e]),
                    ("slew", full.slew(n)[m][e], got.slew(n)[m][e]),
                    ("rat", full.rat(n)[m][e], got.rat(n)[m][e]),
                ] {
                    if fbits(x) != fbits(y) {
                        return Some(format!(
                            "after {what}: node {} {q}[{m:?}][{e:?}]: {x} vs {y}",
                            view.node_name(n)
                        ));
                    }
                }
            }
        }
    }
    None
}

/// Live internal pins (the TS candidate set).
fn internal_candidates(graph: &tmm_sta::graph::ArcGraph) -> Vec<bool> {
    (0..graph.node_count())
        .map(|i| {
            let n = NodeId(i as u32);
            !graph.node(n).dead && graph.node(n).kind == NodeKind::Internal
        })
        .collect()
}

/// Renders the first difference between two TS sweeps, or `None`.
fn ts_bit_diff(a: &TsResult, b: &TsResult, what: &str) -> Option<String> {
    if a.evaluated != b.evaluated || a.skipped != b.skipped {
        return Some(format!(
            "{what}: evaluated/skipped {} / {} vs {} / {}",
            a.evaluated, b.evaluated, a.skipped, b.skipped
        ));
    }
    if a.failures.len() != b.failures.len()
        || a.failures
            .iter()
            .zip(&b.failures)
            .any(|(x, y)| x.node != y.node || x.cause != y.cause)
    {
        return Some(format!(
            "{what}: quarantine attribution differs ({} vs {} failures)",
            a.failures.len(),
            b.failures.len()
        ));
    }
    for (i, (x, y)) in a.ts.iter().zip(&b.ts).enumerate() {
        if fbits(*x) != fbits(*y) {
            return Some(format!("{what}: ts[{i}] {x} vs {y}"));
        }
    }
    None
}

/// TS sweep: serial vs multi-threaded (view engine), and view engine vs
/// the clone-per-pin reference — all three bit-identical, including the
/// quarantine lists.
fn ts_threads(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    let cand = internal_candidates(&d.tainted);
    let base = TsOptions { contexts: opts.ts_contexts.max(1), threads: 1, ..Default::default() };
    let serial = match evaluate_ts(&d.tainted, &cand, &base) {
        Ok(r) => r,
        Err(e) => return Some(format!("serial view sweep failed: {e}")),
    };
    let par = match evaluate_ts(
        &d.tainted,
        &cand,
        &TsOptions { threads: opts.threads.max(2), ..base },
    ) {
        Ok(r) => r,
        Err(e) => return Some(format!("parallel view sweep failed: {e}")),
    };
    if let Some(diff) = ts_bit_diff(&serial, &par, "serial vs parallel") {
        return Some(diff);
    }
    let clone = match evaluate_ts_cloning(&d.tainted, &cand, &base) {
        Ok(r) => r,
        Err(e) => return Some(format!("clone sweep failed: {e}")),
    };
    ts_bit_diff(&serial, &clone, "view vs clone")
}

/// Budget-chunked vs unbounded TS: the sweep under a 1 MiB budget must
/// match the all-contexts-resident sweep byte-for-byte (running totals are
/// chained across groups in context order; only the final divide differs
/// from no division of work at all). Diffcheck designs are deliberately
/// small — often small enough that every context fits a 1 MiB budget — so
/// the context count is raised via [`ts_min_chunked_contexts`] until the
/// grouped path is guaranteed to split into at least two groups.
///
/// The incremental sweep runs through the same grouped path, so it must
/// match too: with every pin dirty it must equal the unbounded sweep of
/// the same core, and after one cell resize with its real
/// [`dirty_probe_set`] it must equal the unbounded sweep of the edited
/// core.
///
/// [`ts_min_chunked_contexts`]: tmm_sensitivity::ts_min_chunked_contexts
fn ts_mem_budget(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    let cand = internal_candidates(&d.tainted);
    let core = DesignCore::freeze(&d.tainted);
    // `ts_min_chunked_contexts` is bounded: one reference analysis costs at
    // least ~4 KiB, so 1 MiB never asks for more than ~260 contexts.
    let contexts = tmm_sensitivity::ts_min_chunked_contexts(&core, 1).max(opts.ts_contexts.max(2));
    let base = TsOptions { contexts, threads: 1, ..Default::default() };
    let unbounded = match evaluate_ts_with_core(&core, &cand, &base) {
        Ok(r) => r,
        Err(e) => return Some(format!("unbounded sweep failed: {e}")),
    };
    let chunked = match evaluate_ts_with_core(
        &core,
        &cand,
        &TsOptions { mem_budget_mb: 1, ..base },
    ) {
        Ok(r) => r,
        Err(e) => return Some(format!("budget-chunked sweep failed: {e}")),
    };
    if let Some(diff) = ts_bit_diff(&unbounded, &chunked, "unbounded vs 1 MiB budget") {
        return Some(diff);
    }
    // The parallel chunked sweep must agree too — grouping changes the
    // work-list shape the workers see.
    let par = match evaluate_ts_with_core(
        &core,
        &cand,
        &TsOptions { mem_budget_mb: 1, threads: opts.threads.max(2), ..base },
    ) {
        Ok(r) => r,
        Err(e) => return Some(format!("parallel budget-chunked sweep failed: {e}")),
    };
    if let Some(diff) = ts_bit_diff(&unbounded, &par, "unbounded vs parallel 1 MiB budget") {
        return Some(diff);
    }
    let budgeted = TsOptions { mem_budget_mb: 1, ..base };
    let all_dirty = vec![true; cand.len()];
    let inc = match evaluate_ts_incremental(&core, &cand, &budgeted, &unbounded, &all_dirty) {
        Ok(r) => r,
        Err(e) => return Some(format!("all-dirty incremental 1 MiB sweep failed: {e}")),
    };
    if let Some(diff) = ts_bit_diff(&unbounded, &inc, "unbounded vs all-dirty incremental 1 MiB")
    {
        return Some(diff);
    }
    // One cell resize: the first live data-path lookup-table arc (a design
    // without one has nothing more to check).
    let victim = d.tainted.arcs().iter().position(|a| {
        !a.dead
            && !a.is_clock
            && matches!(a.timing, ArcTiming::Table(_))
            && !d.tainted.node(a.from).is_clock_network
    })?;
    let mut view = GraphView::new(core.clone());
    if let Err(e) = view.resize_arc(ArcId(victim as u32), 1.3) {
        return Some(format!("resize of arc {victim} failed: {e}"));
    }
    let changed = view.edited_nodes();
    let edited = match view.materialize() {
        Ok(g) => g,
        Err(e) => return Some(format!("resize of arc {victim}: materialize failed: {e}")),
    };
    let new_core = DesignCore::freeze(&edited);
    let new_cand = internal_candidates(&edited);
    let dirty = dirty_probe_set(&new_core, &changed, cand.len());
    let scratch = match evaluate_ts_with_core(&new_core, &new_cand, &base) {
        Ok(r) => r,
        Err(e) => return Some(format!("unbounded sweep after the resize failed: {e}")),
    };
    let inc = match evaluate_ts_incremental(
        &new_core,
        &new_cand,
        &TsOptions { threads: opts.threads.max(2), ..budgeted },
        &unbounded,
        &dirty,
    ) {
        Ok(r) => r,
        Err(e) => return Some(format!("parallel incremental 1 MiB sweep failed: {e}")),
    };
    ts_bit_diff(&scratch, &inc, "unbounded vs parallel incremental 1 MiB after a resize")
}

/// GNN kernels on the design's real pin graph (hub-degree fan-outs that
/// random test graphs rarely produce): each of the nine blocked kernels
/// must match its [`naive`] reference bit-for-bit at 1 and at
/// `opts.threads` (≥ 2) worker threads, and training plus prediction with
/// 1 vs `opts.threads` threads must be bit-identical.
fn gnn_backend(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    let n = d.tainted.node_count();
    let features = extract_features(&d.tainted, false);
    let graph = NodeGraph::from_edges(n, &pin_graph_edges(&d.tainted), NeighborMode::Undirected);
    let threads = opts.threads.max(2);
    for t in [1, threads] {
        if let Some(diff) = kernels_match_naive(&graph, &features, d.params.seed, t) {
            return Some(diff);
        }
    }
    let mut rng = StdRng::seed_from_u64(d.params.seed ^ 0x6e6e_6e6e);
    let labels: Vec<f32> = (0..n).map(|_| f32::from(u8::from(rng.gen_bool(0.3)))).collect();
    let sample = TrainSample { graph, features, labels, mask: None };
    let in_dim = sample.features.cols();
    let run = |threads| {
        let mut model = GnnModel::new(
            in_dim,
            ModelConfig { hidden: 8, layers: 2, ..Default::default() },
        );
        model.train(
            std::slice::from_ref(&sample),
            &TrainConfig { epochs: 6, threads, ..Default::default() },
        );
        (model.to_text(), model.predict_par(&sample.graph, &sample.features, threads))
    };
    let (text_1, preds_1) = run(1);
    let (text_n, preds_n) = run(threads);
    if let Some(i) = first_bit_diff(&preds_1, &preds_n) {
        return Some(format!(
            "1 vs {threads}-thread prediction at node {i}: {} vs {}",
            preds_1[i], preds_n[i]
        ));
    }
    (text_1 != text_n).then(|| format!("1 vs {threads}-thread training: weights differ"))
}

/// Index of the first element whose bit pattern differs (all NaNs equal).
fn first_bit_diff(a: &[f32], b: &[f32]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()))
}

/// Runs every blocked kernel and its naive reference on the pin graph `g`
/// with node features `h` as the dense operand; the first kernel whose
/// output differs is reported.
fn kernels_match_naive(g: &NodeGraph, h: &Matrix, seed: u64, threads: usize) -> Option<String> {
    let pol = KernelPolicy::with_threads(threads);
    let (n, d) = (h.rows(), h.cols());
    let h = h.data();
    let hidden = 8;
    let w = Matrix::xavier_seeded(d, hidden, seed).data().to_vec();
    let w_t = Matrix::xavier_seeded(hidden, d, seed ^ 1).data().to_vec();
    let grad = Matrix::xavier_seeded(n, hidden, seed ^ 2).data().to_vec();
    let dx = Matrix::xavier_seeded(n, 2 * d, seed ^ 3).data().to_vec();
    let dp = 3;
    let p = Matrix::xavier_seeded(n, dp, seed ^ 4).data().to_vec();
    let check = |name: &str, naive_out: &[f32], blocked_out: &[f32]| {
        first_bit_diff(naive_out, blocked_out).map(|i| {
            format!(
                "{name} naive vs blocked at {threads} thread(s), element {i}: {} vs {}",
                naive_out[i], blocked_out[i]
            )
        })
    };
    // Blocked outputs start from a different fill so a kernel that skips
    // writing an element cannot pass by accident.
    let pair = |len: usize| (vec![0.0f32; len], vec![1.0f32; len]);

    let (mut a, mut b) = pair(n * hidden);
    naive::gemm(h, &w, &mut a, n, d, hidden);
    kernels::gemm(h, &w, &mut b, n, d, hidden, pol);
    let mut found = check("gemm", &a, &b);

    let (mut a, mut b) = pair(n * hidden);
    naive::gemm_nt(h, &w_t, &mut a, n, d, hidden);
    kernels::gemm_nt(h, &w_t, &mut b, n, d, hidden, &mut Vec::new(), pol);
    found = found.or_else(|| check("gemm_nt", &a, &b));

    let (mut a, mut b) = pair(d * hidden);
    let (mut scratch_a, mut scratch_b) = (Vec::new(), Vec::new());
    naive::gemm_tn(h, &grad, &mut a, n, d, hidden, d, &mut scratch_a);
    kernels::gemm_tn(h, &grad, &mut b, n, d, hidden, d, &mut scratch_b, pol);
    found = found.or_else(|| check("gemm_tn", &a, &b));

    let (mut a, mut b) = pair(n * d);
    naive::mean_aggregate(g, h, d, &mut a);
    kernels::mean_aggregate_into(g, h, d, &mut b, pol);
    found = found.or_else(|| check("mean_aggregate", &a, &b));

    let (mut a, mut b) = pair(n * d);
    naive::mean_aggregate_adjoint(g, h, d, &mut a);
    kernels::mean_aggregate_adjoint_into(g, h, d, &mut b, pol);
    found = found.or_else(|| check("mean_aggregate_adjoint", &a, &b));

    let (mut a, mut b) = pair(n * d);
    naive::gcn_propagate(g, h, d, &mut a);
    kernels::gcn_propagate_into(g, h, d, &mut b, pol);
    found = found.or_else(|| check("gcn_propagate", &a, &b));

    let (mut a, mut b) = pair(n * 2 * d);
    naive::sage_gather(g, h, d, &mut a);
    kernels::sage_gather(g, h, d, &mut b, pol);
    found = found.or_else(|| check("sage_gather", &a, &b));

    let (mut a, mut b) = pair(n * d);
    naive::sage_adjoint(g, &dx, d, &mut a);
    kernels::sage_adjoint(g, &dx, d, &mut b, pol);
    found = found.or_else(|| check("sage_adjoint", &a, &b));

    let (mut a, mut b) = pair(n * (d + dp));
    let (mut arg_a, mut arg_b) = (vec![0u32; n * dp], vec![1u32; n * dp]);
    naive::pool_max(g, &p, dp, h, d, &mut a, &mut arg_a);
    kernels::pool_max(g, &p, dp, h, d, &mut b, &mut arg_b, pol);
    found = found.or_else(|| check("pool_max", &a, &b));
    found.or_else(|| {
        let i = arg_a.iter().zip(&arg_b).position(|(x, y)| x != y)?;
        Some(format!(
            "pool_max argmax naive vs blocked at {threads} thread(s), element {i}: {} vs {}",
            arg_a[i], arg_b[i]
        ))
    })
}

/// Semantic invariants of a single analysis: the boundary snapshot's slack
/// must equal `rat − at` (late) / `at − rat` (early) bit-for-bit, the
/// snapshot must cover every boundary object, and arrivals along traced
/// critical paths must be non-decreasing (delays are never negative).
fn slack_conservation(d: &DiffDesign) -> Option<String> {
    let ctx = Context::nominal(&d.flat);
    let an = match Analysis::run_with_options(
        &d.tainted,
        &ctx,
        AnalysisOptions { cppr: true, aocv: false },
    ) {
        Ok(a) => a,
        Err(e) => return Some(format!("analysis failed: {e}")),
    };
    let b = an.boundary();
    if b.po.len() != d.tainted.primary_outputs().len() {
        return Some(format!(
            "snapshot covers {} of {} POs",
            b.po.len(),
            d.tainted.primary_outputs().len()
        ));
    }
    if b.checks.len() != d.tainted.checks().iter().filter(|c| !d.tainted.node(c.d).dead).count()
    {
        return Some("snapshot check coverage differs from live graph checks".into());
    }
    for po in &b.po {
        for (m, e) in mode_edge_iter() {
            let (at, rat) = (po.at[m][e], po.rat[m][e]);
            let expected = if at.is_finite() && rat.is_finite() {
                match m {
                    tmm_sta::Mode::Late => rat - at,
                    tmm_sta::Mode::Early => at - rat,
                }
            } else {
                f64::NAN
            };
            if fbits(po.slack[m][e]) != fbits(expected) {
                return Some(format!(
                    "PO {} slack[{m:?}][{e:?}] = {} but rat - at = {expected}",
                    po.name, po.slack[m][e]
                ));
            }
        }
    }
    for path in critical_paths(&d.tainted, &an, &ctx, 3) {
        for w in path.steps.windows(2) {
            if w[1].incr < -SEM_TOL {
                return Some(format!(
                    "arrival decreases along critical path to {}: {} -> {} at {}",
                    path.endpoint, w[0].at, w[1].at, w[1].name
                ));
            }
        }
    }
    None
}

/// Progressively merging pins in ascending-TS order must not *shrink* the
/// boundary error: each larger merge set contains the smaller ones, so the
/// error envelope is non-decreasing (within tolerance — exact cancellation
/// across merges is theoretically possible but indicates an engine bug at
/// any observable magnitude).
fn ts_monotone_merge(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    let cand = internal_candidates(&d.tainted);
    let core = DesignCore::freeze(&d.tainted);
    let ts_opts = TsOptions { contexts: opts.ts_contexts.max(1), ..Default::default() };
    let r = match evaluate_ts_with_core(&core, &cand, &ts_opts) {
        Ok(r) => r,
        Err(e) => return Some(format!("TS sweep failed: {e}")),
    };
    let mut ranked = r.ranked_pins();
    ranked.reverse(); // ascending TS: merge the least sensitive pins first
    let ctx = Context::nominal(&d.flat);
    let reference = match ReferenceAnalysis::new(core.clone(), ctx, AnalysisOptions::default()) {
        Ok(rf) => rf,
        Err(e) => return Some(format!("reference failed: {e}")),
    };
    let mut scratch = reference.scratch();
    let mut view = GraphView::new(core);
    let mut envelope = 0.0f64;
    let mut merged = 0usize;
    let mut queue = ranked.into_iter();
    for target in [1usize, 2, 4, 8, 16] {
        while merged < target {
            let Some(i) = queue.next() else { break };
            let n = NodeId(i as u32);
            if view.can_bypass(n) && view.bypass_node(n).is_ok() {
                merged += 1;
            }
        }
        if merged == 0 {
            break;
        }
        let edited = match reference.retime(&view, &mut scratch) {
            Ok(b) => b,
            Err(e) => return Some(format!("retime of {merged}-pin merge failed: {e}")),
        };
        let diff = reference.boundary().diff(edited).max;
        if diff + SEM_TOL < envelope {
            return Some(format!(
                "boundary error shrank from {envelope} to {diff} after merging {merged} lowest-TS pins"
            ));
        }
        envelope = envelope.max(diff);
        if merged < target {
            break; // ran out of mergeable pins
        }
    }
    None
}

/// ILM exactness: a keep-all, uncompressed macro model must reproduce the
/// boundary exactly (≤ [`SEM_TOL`]) before and after generation, with and
/// without CPPR — and must actually have comparable boundary values.
fn ilm_boundary(d: &DiffDesign) -> Option<String> {
    let keep = vec![true; d.tainted.node_count()];
    let model = match MacroModel::generate(
        &d.tainted,
        &keep,
        &MacroModelOptions { compress_luts: false, ..Default::default() },
    ) {
        Ok(m) => m,
        Err(e) => return Some(format!("macro generation failed: {e}")),
    };
    for cppr in [false, true] {
        let r = match evaluate(
            &d.tainted,
            &model,
            &EvalOptions { contexts: 2, cppr, ..Default::default() },
        ) {
            Ok(r) => r,
            Err(e) => return Some(format!("evaluation failed (cppr={cppr}): {e}")),
        };
        if r.accuracy.count == 0 {
            return Some(format!(
                "no comparable finite boundary values between flat and macro (cppr={cppr})"
            ));
        }
        if r.accuracy.max > SEM_TOL {
            return Some(format!(
                "keep-all macro boundary error {} ps exceeds {SEM_TOL} (cppr={cppr})",
                r.accuracy.max
            ));
        }
    }
    None
}

/// CPPR invariants: every credit is non-negative (at every common point /
/// check), bounded by the late/early clock gap at the capture pin, and
/// enabling CPPR can only *improve* check slacks.
fn cppr_credit(d: &DiffDesign) -> Option<String> {
    if d.tainted.checks().is_empty() {
        return None; // combinational design: nothing to credit
    }
    let ctx = Context::nominal(&d.flat);
    let with = match Analysis::run_with_options(
        &d.tainted,
        &ctx,
        AnalysisOptions { cppr: true, aocv: false },
    ) {
        Ok(a) => a,
        Err(e) => return Some(format!("CPPR analysis failed: {e}")),
    };
    let without = match Analysis::run_with_options(&d.tainted, &ctx, AnalysisOptions::default()) {
        Ok(a) => a,
        Err(e) => return Some(format!("non-CPPR analysis failed: {e}")),
    };
    for (ci, credit) in with.credits().iter().enumerate() {
        for e in Edge::ALL {
            for (what, c) in [("setup", credit.setup[e]), ("hold", credit.hold[e])] {
                // `!(c >= 0)` also catches NaN credits.
                if !(c >= 0.0) {
                    return Some(format!("check #{ci} {what} credit[{e:?}] = {c} is not >= 0"));
                }
            }
        }
    }
    let report = CpprReport::from_analysis(&d.tainted, &with);
    for (check, cp) in d.tainted.checks().iter().zip(&report.checks) {
        let gap =
            with.at(check.ck).late.rise - with.at(check.ck).early.rise;
        if gap.is_finite() && cp.setup_credit > gap + SEM_TOL {
            return Some(format!(
                "check {} setup credit {} exceeds clock-path gap {gap}",
                check.name, cp.setup_credit
            ));
        }
    }
    let without_by_name: std::collections::HashMap<&str, usize> = without
        .boundary()
        .checks
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    for c in &with.boundary().checks {
        let Some(&j) = without_by_name.get(c.name.as_str()) else {
            return Some(format!("check {} present only with CPPR", c.name));
        };
        let base = &without.boundary().checks[j];
        for e in Edge::ALL {
            for (what, cp, np) in [
                ("setup", c.setup_slack[e], base.setup_slack[e]),
                ("hold", c.hold_slack[e], base.hold_slack[e]),
            ] {
                if cp.is_finite() && np.is_finite() && cp + SEM_TOL < np {
                    return Some(format!(
                        "check {} {what} slack[{e:?}] degrades under CPPR: {np} -> {cp}",
                        c.name
                    ));
                }
            }
        }
    }
    None
}

/// Checkpoint replay equivalence: a TS sweep and a via-view reduction
/// resumed from a *truncated prefix* of their own checkpoint writes (the
/// state a kill mid-run leaves behind, completion markers dropped) must be
/// bit-identical to the uninterrupted runs — same TS values, same
/// quarantine attribution, same merge decisions, same reduced-graph
/// boundary timing.
fn ckpt_replay(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    use tmm_ckpt::MemStore;

    // TS sweep: uninterrupted checkpointed run vs resumes from prefixes.
    let cand = internal_candidates(&d.tainted);
    let core = DesignCore::freeze(&d.tainted);
    let ts_opts = TsOptions { contexts: opts.ts_contexts.max(1), ..Default::default() };
    let mut full = MemStore::new();
    let complete = match evaluate_ts_with_core_ckpt(&core, &cand, &ts_opts, &mut full, "ts") {
        Ok(r) => r,
        Err(e) => return Some(format!("checkpointed TS sweep failed: {e}")),
    };
    for cut in [0, full.saves() / 2, full.saves().saturating_sub(1)] {
        let mut store = full.truncated(cut);
        let resumed = match evaluate_ts_with_core_ckpt(&core, &cand, &ts_opts, &mut store, "ts")
        {
            Ok(r) => r,
            Err(e) => return Some(format!("TS resume from {cut} saved chunk(s) failed: {e}")),
        };
        if let Some(diff) =
            ts_bit_diff(&complete, &resumed, &format!("TS resume from {cut} chunk(s)"))
        {
            return Some(diff);
        }
    }

    // Via-view reduction: merge every other internal pin, kill between
    // merge passes, resume, and require identical decisions and boundary.
    let keep: Vec<bool> = (0..d.tainted.node_count())
        .map(|i| !cand[i] || i % 2 == 0)
        .collect();
    let policy = ReducePolicy::default();
    let mut rfull = MemStore::new();
    let complete_red =
        match reduce_graph_via_view_budget_ckpt(&core, &keep, &policy, 0, &mut rfull, "merge") {
            Ok(r) => r,
            Err(e) => return Some(format!("checkpointed reduction failed: {e}")),
        };
    let ctx = Context::nominal(&complete_red.graph);
    let complete_an =
        match Analysis::run_with_options(&complete_red.graph, &ctx, AnalysisOptions::default()) {
            Ok(a) => a,
            Err(e) => return Some(format!("analysis of the reduced graph failed: {e}")),
        };
    for cut in [0, rfull.saves() / 2, rfull.saves().saturating_sub(1)] {
        let mut store = rfull.truncated(cut);
        let resumed =
            match reduce_graph_via_view_budget_ckpt(&core, &keep, &policy, 0, &mut store, "merge")
            {
                Ok(r) => r,
                Err(e) => {
                    return Some(format!("reduction resume from {cut} pass(es) failed: {e}"))
                }
            };
        if resumed.stats != complete_red.stats {
            return Some(format!(
                "reduction resume from {cut} pass(es): stats {:?} vs {:?}",
                resumed.stats, complete_red.stats
            ));
        }
        if resumed.graph.live_nodes() != complete_red.graph.live_nodes()
            || resumed.graph.live_arcs() != complete_red.graph.live_arcs()
        {
            return Some(format!(
                "reduction resume from {cut} pass(es): {}/{} live nodes/arcs vs {}/{}",
                resumed.graph.live_nodes(),
                resumed.graph.live_arcs(),
                complete_red.graph.live_nodes(),
                complete_red.graph.live_arcs()
            ));
        }
        let resumed_an =
            match Analysis::run_with_options(&resumed.graph, &ctx, AnalysisOptions::default()) {
                Ok(a) => a,
                Err(e) => {
                    return Some(format!(
                        "analysis of the resumed reduction ({cut} pass(es)) failed: {e}"
                    ))
                }
            };
        if let Some(diff) = boundary_bit_diff(complete_an.boundary(), resumed_an.boundary()) {
            return Some(format!("reduction resume from {cut} pass(es): {diff}"));
        }
    }
    None
}

/// The frozen core of the tainted twin plus the design's deterministic
/// ECO stream (a pure function of the design seed and the edit budget).
fn eco_stream_for(
    d: &DiffDesign,
    opts: &CheckOptions,
) -> (std::sync::Arc<DesignCore>, EcoStream) {
    let core = DesignCore::freeze(&d.tainted);
    let stream = EcoStream::generate(&core, opts.eco_edits, d.params.seed ^ 0xec0);
    (core, stream)
}

/// Deterministic keep mask from a TS sweep: non-candidate pins are always
/// kept; a candidate is kept when its TS clears the median of the finite
/// TS values. Both the median and the comparison use `f64::total_cmp`, so
/// bit-identical sweeps yield identical masks — any mask difference traces
/// back to a TS bit difference.
fn keep_from_ts(ts: &TsResult, cand: &[bool]) -> Vec<bool> {
    let mut finite: Vec<f64> = ts.ts.iter().copied().filter(|t| t.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let threshold = finite.get(finite.len() / 2).copied();
    cand.iter()
        .enumerate()
        .map(|(i, &c)| {
            if !c {
                return true;
            }
            let t = ts.ts[i];
            match threshold {
                Some(th) => {
                    !t.is_finite() || t.total_cmp(&th) != std::cmp::Ordering::Less
                }
                None => true,
            }
        })
        .collect()
}

/// Streaming-ECO prefix-replay oracle, optionally restricted to the edits
/// selected by `mask` (`None` = the whole stream).
///
/// Each selected edit is applied as a [`GraphView`] overlay edit over the
/// previous core and re-frozen; the TS sweep is then run both
/// *incrementally* (carrying every pin outside the edit's dirty cone from
/// the previous sweep) and *from scratch*, and the macro model is
/// regenerated both *patched* (LUT-fit cache carried across edits) and
/// *from scratch*. The TS pair must agree bit-for-bit and the model pair
/// byte-for-byte after every prefix.
///
/// With a partial mask, a masked-out edit may strand a survivor whose
/// target (a buffer node or replacement arc created by the dropped edit)
/// never came to exist; such edits are skipped, which is what makes the
/// mask usable for delta-debugging a failing sequence.
#[must_use]
pub fn eco_equality_masked(
    d: &DiffDesign,
    opts: &CheckOptions,
    mask: Option<&[bool]>,
) -> Option<String> {
    let ts_opts = TsOptions { contexts: opts.ts_contexts.max(1), ..Default::default() };
    let mm_opts = MacroModelOptions::default();
    let (core0, stream) = eco_stream_for(d, opts);
    if stream.is_empty() {
        return None;
    }
    let cand0 = internal_candidates(&d.tainted);
    let mut previous = match evaluate_ts_with_core(&core0, &cand0, &ts_opts) {
        Ok(r) => r,
        Err(e) => return Some(format!("baseline TS sweep failed: {e}")),
    };
    let mut core = core0;
    let mut cache = LutCache::new();
    for (k, edit) in stream.edits().iter().enumerate() {
        if mask.is_some_and(|m| !m.get(k).copied().unwrap_or(false)) {
            continue;
        }
        let what = format!("edit {k} ({})", edit.describe());
        let mut view = GraphView::new(core.clone());
        if let Err(e) = edit.apply(&mut view) {
            if mask.is_none() {
                // The full stream applies cleanly by construction; an
                // apply failure means id stability broke somewhere.
                return Some(format!("{what}: failed to apply: {e}"));
            }
            continue;
        }
        let changed = view.edited_nodes();
        let edited = match view.materialize() {
            Ok(g) => g,
            Err(e) => return Some(format!("{what}: materialize failed: {e}")),
        };
        let new_core = DesignCore::freeze(&edited);
        let cand = internal_candidates(&edited);
        let old_nodes = tmm_sta::view::TimingGraph::node_count(&*core);
        let mut dirty = dirty_probe_set(&new_core, &changed, old_nodes);
        if opts.eco_stale_carry {
            // Injected bug: declare the first recomputable dirty pin
            // clean, so the incremental sweep carries its stale value.
            if let Some(i) = (0..dirty.len()).find(|&i| {
                dirty[i] && cand[i] && previous.ts.get(i).is_some_and(|t| t.is_finite())
            }) {
                dirty[i] = false;
            }
        }
        let inc = match evaluate_ts_incremental(&new_core, &cand, &ts_opts, &previous, &dirty) {
            Ok(r) => r,
            Err(e) => return Some(format!("{what}: incremental TS sweep failed: {e}")),
        };
        let scratch = match evaluate_ts_with_core(&new_core, &cand, &ts_opts) {
            Ok(r) => r,
            Err(e) => return Some(format!("{what}: from-scratch TS sweep failed: {e}")),
        };
        if let Some(diff) =
            ts_bit_diff(&inc, &scratch, &format!("{what}: incremental vs scratch TS"))
        {
            return Some(diff);
        }
        let keep_inc = keep_from_ts(&inc, &cand);
        let keep_scratch = keep_from_ts(&scratch, &cand);
        let patched = match MacroModel::generate_patched(&edited, &keep_inc, &mm_opts, &mut cache)
        {
            Ok(m) => m,
            Err(e) => return Some(format!("{what}: patched generation failed: {e}")),
        };
        let rebuilt = match MacroModel::generate(&edited, &keep_scratch, &mm_opts) {
            Ok(m) => m,
            Err(e) => return Some(format!("{what}: from-scratch generation failed: {e}")),
        };
        let (pa, pb) = (patched.serialize(), rebuilt.serialize());
        if pa != pb {
            return Some(format!(
                "{what}: patched macro differs from a from-scratch rebuild ({} vs {} bytes)",
                pa.len(),
                pb.len()
            ));
        }
        previous = inc;
        core = new_core;
    }
    None
}

/// Delta-debugs a failing edit stream to a locally minimal failing
/// subsequence: classic ddmin over the edit-inclusion mask, re-running
/// the prefix-replay oracle on each candidate subset.
fn ddmin_edit_mask(
    d: &DiffDesign,
    opts: &CheckOptions,
    len: usize,
    full_detail: String,
) -> (Vec<bool>, String) {
    let mut mask = vec![true; len];
    let mut detail = full_detail;
    let mut granularity = 2usize;
    loop {
        let active: Vec<usize> = (0..len).filter(|&i| mask[i]).collect();
        if active.len() <= 1 {
            break;
        }
        let gran = granularity.min(active.len());
        let chunk = active.len().div_ceil(gran);
        let mut reduced = false;
        for part in active.chunks(chunk) {
            let mut trial = mask.clone();
            for &i in part {
                trial[i] = false;
            }
            if let Some(dd) = eco_equality_masked(d, opts, Some(&trial)) {
                mask = trial;
                detail = dd;
                reduced = true;
                break;
            }
        }
        if reduced {
            granularity = 2;
        } else if gran >= active.len() {
            break;
        } else {
            granularity = (gran * 2).min(active.len());
        }
    }
    (mask, detail)
}

/// Streaming-ECO equality: after every prefix of the design's seeded ECO
/// stream, the incrementally regenerated macro (cone-limited TS carry +
/// cached LUT fits) must be byte-identical to a from-scratch rebuild. On
/// divergence the edit stream is delta-debugged to a minimal failing
/// subsequence, which is reported in the detail (and thus lands in the
/// repro artifact).
fn eco_equality(d: &DiffDesign, opts: &CheckOptions) -> Option<String> {
    let detail = eco_equality_masked(d, opts, None)?;
    let (_, stream) = eco_stream_for(d, opts);
    let (mask, min_detail) = ddmin_edit_mask(d, opts, stream.len(), detail);
    let kept: Vec<String> = stream
        .edits()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask.get(*i).copied().unwrap_or(false))
        .map(|(i, e)| format!("#{i} {}", e.describe()))
        .collect();
    Some(format!(
        "minimal failing edit sequence [{}] of {} edits: {min_detail}",
        kept.join(", "),
        stream.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{sample_params, design_rng, DiffDesign};
    use tmm_faults::FaultOp;
    use tmm_sta::liberty::Library;

    fn clean_design(idx: usize) -> DiffDesign {
        let lib = Library::synthetic(1);
        let params = sample_params(&mut design_rng(42, idx));
        DiffDesign::build(&lib, "chk", &params, None).unwrap()
    }

    #[test]
    fn clean_designs_pass_every_check() {
        let opts = CheckOptions::default();
        for idx in 0..3 {
            let d = clean_design(idx);
            let divergences = run_all(&d, &opts);
            assert!(
                divergences.is_empty(),
                "design {idx} ({:?}) diverged: {divergences:?}",
                d.params
            );
        }
    }

    #[test]
    fn nan_lut_injection_is_caught() {
        let lib = Library::synthetic(1);
        let params = sample_params(&mut design_rng(42, 1));
        let d = DiffDesign::build(&lib, "inj", &params, Some((FaultOp::NanLutEntries, 9))).unwrap();
        assert!(d.injected);
        let divergences = run_all(&d, &CheckOptions::default());
        assert!(
            divergences.iter().any(|dv| dv.check == "engine-equality"),
            "engine equality must flag a NaN-corrupted twin, got {divergences:?}"
        );
    }

    #[test]
    fn unknown_check_is_a_divergence() {
        let d = clean_design(0);
        assert!(run_named(&d, "no-such-check", &CheckOptions::default()).is_some());
    }

    /// The oracle's own self-test: deliberately carrying one stale dirty
    /// pin per edit must be caught, and the reported detail must carry a
    /// delta-debugged minimal edit subsequence.
    #[test]
    fn eco_stale_carry_injection_is_caught_and_shrunk() {
        let opts = CheckOptions { eco_stale_carry: true, eco_edits: 6, ..Default::default() };
        let mut caught = false;
        for idx in 0..4 {
            let d = clean_design(idx);
            let Some(detail) = run_named(&d, "eco-equality", &opts) else { continue };
            assert!(
                detail.contains("minimal failing edit sequence"),
                "divergence must be shrunk to a minimal sequence: {detail}"
            );
            assert!(
                detail.contains("incremental vs scratch TS"),
                "a stale carry must surface as a TS bit difference: {detail}"
            );
            caught = true;
            break;
        }
        assert!(caught, "stale-carry injection must diverge on at least one design");
    }

    /// A fully masked-out stream runs no edits and therefore passes even
    /// with the staleness bug armed — the mask is a faithful subset
    /// selector, not an approximation.
    #[test]
    fn empty_edit_mask_is_trivially_clean() {
        let opts = CheckOptions { eco_stale_carry: true, eco_edits: 6, ..Default::default() };
        let d = clean_design(1);
        let (_, stream) = super::eco_stream_for(&d, &opts);
        let mask = vec![false; stream.len()];
        assert_eq!(eco_equality_masked(&d, &opts, Some(&mask)), None);
    }
}
