//! Keep-set-driven graph reduction: the paper's serial and parallel merging
//! (§5.2, Fig. 9 step 2).
//!
//! Given the interface logic netlist and a per-pin keep decision (from the
//! GNN prediction or a baseline heuristic), every non-kept internal pin is
//! bypassed (serial merging) and duplicate arcs between the same endpoints
//! are folded (parallel merging). Parallel merging happens *incrementally*
//! after each bypass so the arc count stays bounded by kept-pin pairs even
//! under ETM-style total collapse.
//!
//! Macro generation merges through [`reduce_graph_via_view_budget`]: edits
//! are recorded on a copy-on-write [`GraphView`] over a frozen core and
//! materialised once at the end, so the ILM is never cloned.
//! [`reduce_graph`] mutates an [`ArcGraph`] in place; it makes the same
//! merge decisions in the same order and allocates replacement arcs the
//! same ids, and is kept as the byte-identity reference that tests, the
//! differential checker and benches compare the view merge against.

use std::sync::Arc;
use tmm_sta::graph::{ArcGraph, NodeId, NodeKind};
use tmm_sta::view::{DesignCore, GraphView, TimingGraph};
use tmm_sta::Result;

/// Counters describing one reduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceStats {
    /// Pins removed by serial merging.
    pub bypassed: usize,
    /// Pins that were slated for removal but refused (fan-in × fan-out
    /// exceeded the budget, or the merge would have grown the model under a
    /// no-growth policy); they stay in the model.
    pub refused: usize,
    /// Arcs folded by parallel merging.
    pub parallel_merged: usize,
    /// Dangling pins pruned after merging.
    pub pruned: usize,
}

/// How aggressively serial merging may restructure the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducePolicy {
    /// Fan-in × fan-out budget per bypass.
    pub max_bypass: usize,
    /// Permit merges that *increase* the arc count (`fi·fo > fi+fo`).
    /// ILM-based modelers keep such branch pins — removing them inflates the
    /// model — while ETM-style total collapse (ATM) allows the growth and
    /// relies on parallel merging to fold the blow-up back down.
    pub allow_growth: bool,
}

impl Default for ReducePolicy {
    fn default() -> Self {
        ReducePolicy { max_bypass: 64, allow_growth: false }
    }
}

/// Reduces `graph` in place: every live [`NodeKind::Internal`] node `i` with
/// `keep[i] == false` is serially merged away (policy permitting), with
/// incremental parallel merging; dangling internals are pruned last.
/// Under a no-growth policy, passes repeat until a fixpoint because chain
/// merges can make previously growth-refused pins eligible.
///
/// # Errors
///
/// Returns an error when the reduced graph fails to re-toposort — a graph
/// invariant violation that reduction of a valid DAG cannot produce, but
/// which corrupted input graphs can.
///
/// # Panics
///
/// Panics if `keep.len() != graph.node_count()`.
pub fn reduce_graph(
    graph: &mut ArcGraph,
    keep: &[bool],
    policy: &ReducePolicy,
) -> Result<ReduceStats> {
    assert_eq!(keep.len(), graph.node_count(), "keep mask size mismatch");
    let mut stats = ReduceStats::default();
    let order: Vec<NodeId> = graph.topo_order().to_vec();
    for _pass in 0..4 {
        let mut progressed = false;
        stats.refused = 0;
        for &n in &order {
            let node = graph.node(n);
            if node.dead || node.kind != NodeKind::Internal || keep[n.index()] {
                continue;
            }
            let fi = graph.in_degree(n);
            let fo = graph.out_degree(n);
            let grows = fi * fo > fi + fo;
            if !graph.can_bypass_with_limit(n, policy.max_bypass)
                || (grows && !policy.allow_growth)
            {
                stats.refused += 1;
                continue;
            }
            let sources: Vec<NodeId> = graph.fanin(n).map(|a| graph.arc(a).from).collect();
            let targets: Vec<NodeId> = graph.fanout(n).map(|a| graph.arc(a).to).collect();
            if graph.bypass_node_with_limit(n, policy.max_bypass).is_err() {
                // Eligibility was checked above, so this is a graph in a
                // state the editor refuses to touch; keep the pin instead
                // of panicking.
                stats.refused += 1;
                continue;
            }
            stats.bypassed += 1;
            progressed = true;
            for &u in &sources {
                for &v in &targets {
                    stats.parallel_merged += graph.coalesce_parallel(u, v);
                }
            }
        }
        if !progressed {
            break;
        }
    }
    // Final sweep for any parallel arcs created between kept nodes by
    // distinct bypasses that shared no endpoint pair at merge time.
    let node_ids: Vec<NodeId> =
        (0..graph.node_count() as u32).map(NodeId).filter(|&n| !graph.node(n).dead).collect();
    for &u in &node_ids {
        let mut targets: Vec<NodeId> = graph.fanout(u).map(|a| graph.arc(a).to).collect();
        targets.sort_unstable();
        targets.dedup();
        for v in targets {
            stats.parallel_merged += graph.coalesce_parallel(u, v);
        }
    }
    // Prune dangling internal pins until fixpoint — but never pins the
    // keep-set asked to preserve (keep-all must be the identity).
    loop {
        let mut removed = 0usize;
        for i in 0..graph.node_count() {
            if !keep[i] && graph.prune_dangling(NodeId(i as u32)) {
                removed += 1;
            }
        }
        if removed == 0 {
            break;
        }
        stats.pruned += removed;
    }
    graph.rebuild_topo()?;
    Ok(stats)
}

/// Outcome of a view-driven reduction.
#[derive(Debug)]
pub struct ViewReduction {
    /// The materialised reduced graph.
    pub graph: ArcGraph,
    /// Merge counters (identical to what [`reduce_graph`] reports).
    pub stats: ReduceStats,
    /// Bytes of copy-on-write overlay the reduction held when it finished
    /// (post-flush under a memory budget) — the only per-reduction memory
    /// besides the shared core.
    pub overlay_bytes: usize,
    /// Mid-reduction materialise+refreeze cycles forced by the memory
    /// budget (0 when unbudgeted or the overlay never outgrew it).
    pub flushes: usize,
}

/// Reduces a design through a copy-on-write [`GraphView`] over its frozen
/// `core`, materialising the result once at the end. Mirrors
/// [`reduce_graph`] decision-for-decision (same visit order, same budget
/// checks, same replacement-arc ids), so the materialised graph is
/// byte-identical to in-place reduction of the same graph.
///
/// `mem_budget_mb` bounds peak memory (MiB, 0 = unbounded): whenever the
/// copy-on-write overlay outgrows what the budget leaves beside the frozen
/// core, the view is materialised and refrozen mid-reduction and editing
/// continues over the new core with an empty overlay. Replacement-arc ids
/// keep counting from where they were, so the final graph is
/// byte-identical to an unbudgeted reduction — only peak RSS (and
/// [`ViewReduction::flushes`]) differ.
///
/// # Errors
///
/// Returns an error when the materialised graph fails to re-toposort —
/// impossible for reductions of a valid DAG.
///
/// # Panics
///
/// Panics if `keep.len() != core.node_count()`.
pub fn reduce_graph_via_view_budget(
    core: &Arc<DesignCore>,
    keep: &[bool],
    policy: &ReducePolicy,
    mem_budget_mb: usize,
) -> Result<ViewReduction> {
    reduce_via_view_impl(core, keep, policy, mem_budget_mb, None)
}

/// [`reduce_graph_via_view_budget`] with crash-safe pass checkpointing:
/// after each merge pass its *decision trace* (bypassed node list in
/// order, refused count, progress flag) is persisted to `store` under
/// `stage`; on resume, recorded passes are replayed — the same edits in
/// the same order, skipping the eligibility scans — before live merging
/// continues. A resumed reduction is byte-identical to an uninterrupted
/// one. Flush points are not recorded in the trace (they change no
/// decision), so a run may resume under a different budget and still
/// produce the identical graph.
///
/// # Errors
///
/// As [`reduce_graph_via_view_budget`]; checkpoint-layer failures
/// (unwritable store, corrupt trace, a trace that does not replay on this
/// graph) surface as [`tmm_sta::StaError::Validation`] with artifact
/// `"checkpoint"`.
///
/// # Panics
///
/// Panics if `keep.len() != core.node_count()`.
pub fn reduce_graph_via_view_budget_ckpt(
    core: &Arc<DesignCore>,
    keep: &[bool],
    policy: &ReducePolicy,
    mem_budget_mb: usize,
    store: &mut dyn tmm_ckpt::StageStore,
    stage: &str,
) -> Result<ViewReduction> {
    reduce_via_view_impl(core, keep, policy, mem_budget_mb, Some((store, stage)))
}

/// Maps a checkpoint-layer failure into the STA error domain so merge
/// callers keep a single error channel.
fn ckpt_to_sta(e: tmm_ckpt::CkptError) -> tmm_sta::StaError {
    tmm_sta::StaError::Validation { artifact: "checkpoint", errors: 1, first: e.to_string() }
}

/// One recorded merge pass (`mergepass v1`).
struct MergeTrace {
    refused: usize,
    progressed: bool,
    bypassed: Vec<u32>,
}

fn render_merge_pass(pass: usize, trace: &MergeTrace) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "mergepass v1 pass {pass} refused {} progressed {} bypassed {}\n",
        trace.refused,
        u8::from(trace.progressed),
        trace.bypassed.len()
    );
    for id in &trace.bypassed {
        let _ = writeln!(out, "{id}");
    }
    out
}

fn parse_merge_pass(payload: &str, expect_pass: usize) -> std::result::Result<MergeTrace, String> {
    fn word<'a>(
        t: &mut impl Iterator<Item = &'a str>,
        kw: &str,
    ) -> std::result::Result<(), String> {
        match t.next() {
            Some(w) if w == kw => Ok(()),
            other => Err(format!("expected `{kw}`, found {other:?}")),
        }
    }
    fn num<'a>(
        t: &mut impl Iterator<Item = &'a str>,
        what: &str,
    ) -> std::result::Result<usize, String> {
        t.next()
            .ok_or_else(|| format!("missing {what}"))?
            .parse::<usize>()
            .map_err(|e| format!("bad {what}: {e}"))
    }
    let mut t = payload.split_whitespace();
    word(&mut t, "mergepass")?;
    word(&mut t, "v1")?;
    word(&mut t, "pass")?;
    let pass = num(&mut t, "pass index")?;
    if pass != expect_pass {
        return Err(format!("trace records pass {pass}, expected pass {expect_pass}"));
    }
    word(&mut t, "refused")?;
    let refused = num(&mut t, "refused count")?;
    word(&mut t, "progressed")?;
    let progressed = match num(&mut t, "progressed flag")? {
        0 => false,
        1 => true,
        other => return Err(format!("bad progressed flag {other}")),
    };
    word(&mut t, "bypassed")?;
    let count = num(&mut t, "bypassed count")?;
    let mut bypassed = Vec::with_capacity(count);
    for i in 0..count {
        let id = t
            .next()
            .ok_or_else(|| format!("trace truncated: {i} of {count} node ids"))?
            .parse::<u32>()
            .map_err(|e| format!("bad node id: {e}"))?;
        bypassed.push(id);
    }
    if t.next().is_some() {
        return Err("trailing tokens after bypassed node list".into());
    }
    Ok(MergeTrace { refused, progressed, bypassed })
}

/// Replays one recorded merge pass on `view`: the same bypasses and
/// incremental parallel merges, in the same order, without re-running the
/// eligibility scans. Counter updates mirror the live pass exactly.
fn replay_merge_pass(
    view: &mut GraphView,
    trace: &MergeTrace,
    policy: &ReducePolicy,
    stats: &mut ReduceStats,
    mem_budget_mb: usize,
    allowance: &mut Option<usize>,
    flushes: &mut usize,
) -> std::result::Result<(), String> {
    stats.refused = trace.refused;
    let (mut sources, mut targets) = (Vec::new(), Vec::new());
    for &id in &trace.bypassed {
        let n = NodeId(id);
        if n.index() >= view.node_count() {
            return Err(format!("trace bypasses node {id}, graph has {}", view.node_count()));
        }
        endpoints(view, n, &mut sources, &mut targets);
        view.bypass_node_with_limit(n, policy.max_bypass)
            .map_err(|e| format!("recorded bypass of node {id} does not replay: {e}"))?;
        stats.bypassed += 1;
        for &u in &sources {
            for &v in &targets {
                stats.parallel_merged += view.coalesce_parallel(u, v);
            }
        }
        flush_if_over_budget(view, mem_budget_mb, allowance, flushes)
            .map_err(|e| format!("budget flush during replay: {e}"))?;
    }
    Ok(())
}

/// Fills `sources`/`targets` with the far ends of `n`'s fan-in and fan-out
/// arcs (the pairs a bypass of `n` may leave parallel), reusing the
/// buffers across bypasses.
fn endpoints(view: &GraphView, n: NodeId, sources: &mut Vec<NodeId>, targets: &mut Vec<NodeId>) {
    sources.clear();
    sources.extend(view.fanin(n).map(|a| view.arc(a).from));
    targets.clear();
    targets.extend(view.fanout(n).map(|a| view.arc(a).to));
}

/// Minimum overlay the budget always allows: below this a flush costs more
/// (a full materialise + refreeze) than the bytes it frees, and a budget
/// smaller than the core itself would otherwise thrash on every edit.
const MERGE_FLUSH_MIN_OVERLAY: usize = 64 * 1024;

/// Materialises and refreezes `view` in place when its overlay has
/// outgrown what `mem_budget_mb` leaves beside the frozen core. Editing
/// then continues over the new core with an empty overlay. Replacement
/// arc ids keep counting from `core.arc_count()` (the refrozen core
/// absorbed exactly the arcs the overlay held, in id order) and merges
/// never insert nodes, so a flushed reduction materialises the identical
/// graph an unflushed one would — this is what bounds peak RSS without
/// cloning the whole design.
fn flush_if_over_budget(
    view: &mut GraphView,
    mem_budget_mb: usize,
    allowance: &mut Option<usize>,
    flushes: &mut usize,
) -> Result<()> {
    if mem_budget_mb == 0 {
        return Ok(());
    }
    // The core only changes at a flush, so its O(nodes+arcs) estimate is
    // cached between flushes — this check runs after every bypass and must
    // stay O(1) (the overlay estimate itself is counter-maintained).
    let cap = match *allowance {
        Some(cap) => cap,
        None => {
            let budget = mem_budget_mb.saturating_mul(1024 * 1024);
            let core_bytes = view.core().memory_estimate();
            // Never flush before the overlay has grown to a quarter of the
            // core: a flush costs one O(core + overlay) materialise +
            // refreeze, so this floor amortises total flush work to O(total
            // overlay produced). Without it a budget at or below the core
            // size would flush after nearly every bypass — quadratic — to
            // honour a bound the core alone already exceeds. The budget is
            // best-effort: peak working set stays within
            // max(budget, 1.25 × core).
            let cap = budget
                .saturating_sub(core_bytes)
                .max(core_bytes / 4)
                .max(MERGE_FLUSH_MIN_OVERLAY);
            *allowance = Some(cap);
            cap
        }
    };
    if view.memory_estimate() <= cap {
        return Ok(());
    }
    let graph = view.materialize()?;
    *view = GraphView::new(DesignCore::freeze(&graph));
    *allowance = None;
    *flushes += 1;
    tmm_obs::counter_add("tmm_mem_budget_flushes_total", &[], 1);
    Ok(())
}

fn reduce_via_view_impl(
    core: &Arc<DesignCore>,
    keep: &[bool],
    policy: &ReducePolicy,
    mem_budget_mb: usize,
    mut ckpt: Option<(&mut dyn tmm_ckpt::StageStore, &str)>,
) -> Result<ViewReduction> {
    assert_eq!(keep.len(), core.node_count(), "keep mask size mismatch");
    let mut view = GraphView::new(core.clone());
    let mut stats = ReduceStats::default();
    let mut flushes = 0usize;
    let mut allowance: Option<usize> = None;
    // The visit order is captured from the ORIGINAL core and survives
    // budget flushes — a refrozen core re-toposorts, and switching to its
    // order mid-run would change the bypass sequence.
    let order: Vec<NodeId> = core.topo_order().to_vec();
    // Live heartbeat: up to 4 passes over the same visit order. `done`
    // only ever advances (complete() snaps to total on early fixpoint),
    // so /progress stays monotonic across passes.
    let heartbeat = tmm_obs::progress_start("macro_merge", "", (order.len() * 4) as u64);
    let (mut sources, mut targets) = (Vec::new(), Vec::new());
    for pass in 0..4 {
        // A recorded pass replays verbatim: the checkpoint stores only the
        // decision trace, never graph state, so a resumed reduction walks
        // the identical edit sequence and lands on the identical overlay.
        if let Some((store, stage)) = ckpt.as_mut() {
            let seq = pass as u64;
            if let Some(payload) = store.load(stage, seq).map_err(ckpt_to_sta)? {
                let trace = parse_merge_pass(&payload, pass).map_err(|m| {
                    ckpt_to_sta(tmm_ckpt::CkptError::Corrupt(format!(
                        "merge trace {stage}/{seq}: {m}"
                    )))
                })?;
                replay_merge_pass(
                    &mut view,
                    &trace,
                    policy,
                    &mut stats,
                    mem_budget_mb,
                    &mut allowance,
                    &mut flushes,
                )
                .map_err(|m| {
                    ckpt_to_sta(tmm_ckpt::CkptError::Corrupt(format!(
                        "merge trace {stage}/{seq}: {m}"
                    )))
                })?;
                heartbeat.add(order.len() as u64);
                if !trace.progressed {
                    break;
                }
                continue;
            }
        }
        let mut progressed = false;
        stats.refused = 0;
        let mut trace_nodes: Vec<u32> = Vec::new();
        for &n in &order {
            heartbeat.add(1);
            if view.node_dead(n) || view.node_kind(n) != NodeKind::Internal || keep[n.index()]
            {
                continue;
            }
            let fi = view.in_degree(n);
            let fo = view.out_degree(n);
            let grows = fi * fo > fi + fo;
            if !view.can_bypass_with_limit(n, policy.max_bypass)
                || (grows && !policy.allow_growth)
            {
                stats.refused += 1;
                continue;
            }
            endpoints(&view, n, &mut sources, &mut targets);
            if view.bypass_node_with_limit(n, policy.max_bypass).is_err() {
                // Eligibility was checked above, so this is a graph in a
                // state the editor refuses to touch; keep the pin instead
                // of panicking.
                stats.refused += 1;
                continue;
            }
            stats.bypassed += 1;
            progressed = true;
            if ckpt.is_some() {
                trace_nodes.push(n.0);
            }
            for &u in &sources {
                for &v in &targets {
                    stats.parallel_merged += view.coalesce_parallel(u, v);
                }
            }
            flush_if_over_budget(&mut view, mem_budget_mb, &mut allowance, &mut flushes)?;
        }
        if let Some((store, stage)) = ckpt.as_mut() {
            let trace =
                MergeTrace { refused: stats.refused, progressed, bypassed: trace_nodes };
            store
                .save(stage, pass as u64, &render_merge_pass(pass, &trace))
                .map_err(ckpt_to_sta)?;
        }
        if !progressed {
            break;
        }
    }
    if let Some((store, stage)) = ckpt.as_mut() {
        store.mark_done(stage).map_err(ckpt_to_sta)?;
    }
    // Final sweep for any parallel arcs created between kept nodes by
    // distinct bypasses that shared no endpoint pair at merge time.
    let node_ids: Vec<NodeId> = (0..core.node_count() as u32)
        .map(NodeId)
        .filter(|&n| !view.node_dead(n))
        .collect();
    for &u in &node_ids {
        targets.clear();
        targets.extend(view.fanout(u).map(|a| view.arc(a).to));
        targets.sort_unstable();
        targets.dedup();
        for &v in &targets {
            stats.parallel_merged += view.coalesce_parallel(u, v);
        }
    }
    // Prune dangling internal pins until fixpoint — but never pins the
    // keep-set asked to preserve (keep-all must be the identity).
    loop {
        let mut removed = 0usize;
        for (i, &kept) in keep.iter().enumerate() {
            if !kept && view.prune_dangling(NodeId(i as u32)) {
                removed += 1;
            }
        }
        if removed == 0 {
            break;
        }
        stats.pruned += removed;
    }
    heartbeat.complete();
    let overlay_bytes = view.memory_estimate();
    let graph = view.materialize()?;
    Ok(ViewReduction { graph, stats, overlay_bytes, flushes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::constraints::Context;
    use tmm_sta::liberty::Library;
    use tmm_sta::propagate::Analysis;

    fn small_graph() -> ArcGraph {
        let lib = Library::synthetic(2);
        let n = CircuitSpec::new("r")
            .inputs(4)
            .outputs(4)
            .register_banks(1, 4)
            .cloud(3, 6)
            .seed(21)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    #[test]
    fn keep_all_is_identity() {
        let mut g = small_graph();
        let before = (g.live_nodes(), g.live_arcs());
        let keep = vec![true; g.node_count()];
        let stats = reduce_graph(&mut g, &keep, &ReducePolicy::default()).unwrap();
        assert_eq!(stats.bypassed, 0);
        assert_eq!((g.live_nodes(), g.live_arcs()), before);
    }

    #[test]
    fn keep_none_collapses_internals() {
        let mut g = small_graph();
        let nodes_before = g.live_nodes();
        let keep = vec![false; g.node_count()];
        let stats = reduce_graph(&mut g, &keep, &ReducePolicy { max_bypass: 4096, allow_growth: true }).unwrap();
        assert!(stats.bypassed > 0);
        assert!(g.live_nodes() < nodes_before);
        // Only ports, FF pins and refused/clock-kept pins remain internal.
        let internals = (0..g.node_count() as u32)
            .map(NodeId)
            .filter(|&n| !g.node(n).dead && g.node(n).kind == NodeKind::Internal)
            .count();
        assert!(
            internals <= stats.refused,
            "all non-refused internals gone: {internals} vs refused {stats:?}"
        );
        g.validate().unwrap();
    }

    #[test]
    fn full_collapse_error_stays_in_the_ps_regime() {
        // Collapsing *everything* removes timing-variant pins, so error is
        // expected (that is the point of the TS metric) — but it must stay
        // bounded: the frozen internal loads match the nominal context, so
        // only max/min crossings in non-unate merges deviate.
        let g0 = small_graph();
        let mut g = g0.clone();
        let keep = vec![false; g.node_count()];
        reduce_graph(&mut g, &keep, &ReducePolicy { max_bypass: 4096, allow_growth: true }).unwrap();
        let ctx = Context::nominal(&g0);
        let flat = Analysis::run(&g0, &ctx).unwrap();
        let red = Analysis::run(&g, &ctx).unwrap();
        let d = flat.boundary().diff(red.boundary());
        assert!(d.count > 0);
        assert!(d.max > 0.0, "full collapse of variant pins cannot be exact");
        assert!(d.max < 500.0, "error must stay in the ps regime, got {}", d.max);
    }

    #[test]
    fn keeping_pins_reduces_collapse_error() {
        // Keeping every pin is exact; keeping none incurs interpolation
        // error. Error must be monotone in that direction.
        let g0 = small_graph();
        let ctx = Context::nominal(&g0);
        let flat = Analysis::run(&g0, &ctx).unwrap();

        let mut g_none = g0.clone();
        reduce_graph(&mut g_none, &vec![false; g0.node_count()], &ReducePolicy { max_bypass: 4096, allow_growth: true }).unwrap();
        let err_none =
            flat.boundary().diff(Analysis::run(&g_none, &ctx).unwrap().boundary()).max;

        let mut g_all = g0.clone();
        reduce_graph(&mut g_all, &vec![true; g0.node_count()], &ReducePolicy { max_bypass: 4096, allow_growth: true }).unwrap();
        let err_all =
            flat.boundary().diff(Analysis::run(&g_all, &ctx).unwrap().boundary()).max;

        assert!(err_all <= err_none + 1e-12, "{err_all} vs {err_none}");
        assert_eq!(err_all, 0.0);
    }

    #[test]
    fn view_reduction_matches_in_place_reduction_exactly() {
        let g0 = small_graph();
        let n = g0.node_count();
        let keep_alternating: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let cases: Vec<(Vec<bool>, ReducePolicy)> = vec![
            (vec![false; n], ReducePolicy { max_bypass: 4096, allow_growth: true }),
            (vec![false; n], ReducePolicy::default()),
            (vec![true; n], ReducePolicy::default()),
            (keep_alternating, ReducePolicy::default()),
        ];
        for (keep, policy) in cases {
            let mut in_place = g0.clone();
            let stats_a = reduce_graph(&mut in_place, &keep, &policy).unwrap();
            let core = DesignCore::freeze(&g0);
            let via_view = reduce_graph_via_view_budget(&core, &keep, &policy, 0).unwrap();
            assert_eq!(stats_a, via_view.stats, "merge counters must agree");
            let v = &via_view.graph;
            assert_eq!(in_place.node_count(), v.node_count());
            assert_eq!(in_place.arcs().len(), v.arcs().len(), "same arc id allocation");
            for (a, b) in in_place.nodes().iter().zip(v.nodes()) {
                assert_eq!(a.dead, b.dead, "node liveness must agree ({})", a.name);
            }
            for (i, (a, b)) in in_place.arcs().iter().zip(v.arcs()).enumerate() {
                assert_eq!((a.from, a.to, a.dead), (b.from, b.to, b.dead), "arc {i}");
                assert_eq!(a.is_clock, b.is_clock, "arc {i} clock flag");
            }
            assert_eq!(in_place.topo_order(), v.topo_order());
            let ctx = Context::nominal(&g0);
            let x = Analysis::run(&in_place, &ctx).unwrap();
            let y = Analysis::run(v, &ctx).unwrap();
            assert_eq!(x.boundary().diff(y.boundary()).max, 0.0, "bit-identical timing");
        }
    }

    #[test]
    fn view_reduction_overlay_is_accounted() {
        let g0 = small_graph();
        let core = DesignCore::freeze(&g0);
        let keep = vec![false; g0.node_count()];
        let r = reduce_graph_via_view_budget(
            &core,
            &keep,
            &ReducePolicy { max_bypass: 4096, allow_growth: true },
            0,
        )
        .unwrap();
        assert!(r.overlay_bytes > 0, "a reducing run must record overlay edits");
        // A pristine (keep-everything, nothing-merged) view costs almost
        // nothing next to the shared core: that is the point of the split.
        let keep_all = vec![true; g0.node_count()];
        let pristine =
            reduce_graph_via_view_budget(&core, &keep_all, &ReducePolicy::default(), 0).unwrap();
        assert!(
            pristine.overlay_bytes < core.memory_estimate() / 4,
            "near-pristine overlay ({}) must be small next to the core ({})",
            pristine.overlay_bytes,
            core.memory_estimate()
        );
    }

    #[test]
    fn budgeted_reduction_is_identical_and_actually_flushes() {
        // A tiny budget must force at least one mid-merge flush, and the
        // flushed run must produce the exact same graph and counters as the
        // unbudgeted one: a flush re-freezes the view but never changes a
        // merge decision or an arc id.
        let lib = Library::synthetic(2);
        let n = CircuitSpec::sized("bud", 1500).seed(33).generate(&lib).unwrap();
        let g0 = ArcGraph::from_netlist(&n, &lib).unwrap();
        let core = DesignCore::freeze(&g0);
        let keep = vec![false; g0.node_count()];
        let policy = ReducePolicy { max_bypass: 4096, allow_growth: true };
        let plain = reduce_graph_via_view_budget(&core, &keep, &policy, 0).unwrap();
        assert_eq!(plain.flushes, 0, "no budget, no flushing");
        let budgeted = reduce_graph_via_view_budget(&core, &keep, &policy, 1).unwrap();
        assert!(budgeted.flushes > 0, "a 1 MiB budget must trigger flushes");
        assert_eq!(plain.stats, budgeted.stats, "flushing must not change decisions");
        assert_eq!(plain.graph.node_count(), budgeted.graph.node_count());
        assert_eq!(plain.graph.arcs().len(), budgeted.graph.arcs().len());
        for (a, b) in plain.graph.nodes().iter().zip(budgeted.graph.nodes()) {
            assert_eq!((a.dead, &a.name), (b.dead, &b.name));
        }
        for (i, (a, b)) in plain.graph.arcs().iter().zip(budgeted.graph.arcs()).enumerate() {
            assert_eq!((a.from, a.to, a.dead, a.is_clock), (b.from, b.to, b.dead, b.is_clock), "arc {i}");
        }
        let ctx = Context::nominal(&g0);
        let x = Analysis::run(&plain.graph, &ctx).unwrap();
        let y = Analysis::run(&budgeted.graph, &ctx).unwrap();
        assert_eq!(x.boundary().diff(y.boundary()).max, 0.0, "bit-identical timing");
    }

    #[test]
    fn merge_pass_trace_round_trips() {
        let trace = MergeTrace { refused: 3, progressed: true, bypassed: vec![7, 0, 42] };
        let text = render_merge_pass(2, &trace);
        let back = parse_merge_pass(&text, 2).unwrap();
        assert_eq!(back.refused, trace.refused);
        assert_eq!(back.progressed, trace.progressed);
        assert_eq!(back.bypassed, trace.bypassed);
        // wrong pass index is rejected (stale trace from another pass)
        assert!(parse_merge_pass(&text, 1).is_err());
        // Torn payloads that lose tokens are rejected, never half-applied.
        // (A cut *inside* the final integer can still tokenise — that tear
        // is caught by the artifact checksum the store verifies on load.)
        for cut in [text.len() / 3, text.len() - 3] {
            assert!(parse_merge_pass(&text[..cut], 2).is_err(), "cut at {cut}");
        }
        assert!(parse_merge_pass(&format!("{text} 9"), 2).is_err(), "trailing tokens");
    }

    #[test]
    fn checkpointed_reduction_resume_is_bit_identical() {
        use tmm_ckpt::{MemStore, StageStore};
        let g0 = small_graph();
        let n = g0.node_count();
        let keep_alternating: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let cases: Vec<(Vec<bool>, ReducePolicy)> = vec![
            (vec![false; n], ReducePolicy { max_bypass: 4096, allow_growth: true }),
            (vec![false; n], ReducePolicy::default()),
            (keep_alternating, ReducePolicy::default()),
        ];
        let serialize = |g: &ArcGraph| {
            let mut s = String::new();
            for node in g.nodes() {
                s.push_str(&format!("{} {} {:?}\n", node.name, node.dead, node.kind));
            }
            for a in g.arcs() {
                s.push_str(&format!("{} {} {} {}\n", a.from.0, a.to.0, a.dead, a.is_clock));
            }
            s
        };
        for (keep, policy) in cases {
            let core = DesignCore::freeze(&g0);
            let plain = reduce_graph_via_view_budget(&core, &keep, &policy, 0).unwrap();

            let mut full = MemStore::default();
            let ckpted =
                reduce_graph_via_view_budget_ckpt(&core, &keep, &policy, 0, &mut full, "merge").unwrap();
            assert_eq!(plain.stats, ckpted.stats, "checkpointing must not change decisions");
            assert_eq!(serialize(&plain.graph), serialize(&ckpted.graph));
            assert!(full.is_done("merge"));
            let saves = full.saves();
            assert!(saves >= 1, "at least one pass trace must be recorded");

            // Kill after every prefix of saved passes; resume must land on
            // the identical graph and counters.
            for kept_saves in 0..=saves {
                let mut store = full.truncated(kept_saves);
                let resumed =
                    reduce_graph_via_view_budget_ckpt(&core, &keep, &policy, 0, &mut store, "merge")
                        .unwrap();
                assert_eq!(plain.stats, resumed.stats, "kept_saves={kept_saves}");
                assert_eq!(
                    serialize(&plain.graph),
                    serialize(&resumed.graph),
                    "kept_saves={kept_saves}: resumed reduction must be bit-identical"
                );
                assert!(store.is_done("merge"));
            }
        }
    }

    #[test]
    fn stale_merge_trace_for_different_keep_set_is_rejected_or_replayed_consistently() {
        use tmm_ckpt::{MemStore, StageStore};
        // A trace recorded under keep-none replayed against a keep-set that
        // preserves the traced nodes: the bypass of a *kept* node must not
        // silently happen — the classed checkpoint error surfaces (replay
        // refuses) or, where the edit is still legal, the caller's manifest
        // fingerprint (enforced a layer up) is the guard. Here we check the
        // hard failure path: a trace naming a node id beyond the graph.
        let g0 = small_graph();
        let core = DesignCore::freeze(&g0);
        let keep = vec![false; g0.node_count()];
        let mut store = MemStore::default();
        let bogus = MergeTrace {
            refused: 0,
            progressed: true,
            bypassed: vec![g0.node_count() as u32 + 5],
        };
        store.save("merge", 0, &render_merge_pass(0, &bogus)).unwrap();
        let err = reduce_graph_via_view_budget_ckpt(
            &core,
            &keep,
            &ReducePolicy::default(),
            0,
            &mut store,
            "merge",
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checkpoint"), "classed as a checkpoint failure: {msg}");
    }

    #[test]
    fn stats_are_consistent() {
        let mut g = small_graph();
        let keep = vec![false; g.node_count()];
        let live_before = g.live_nodes();
        let stats = reduce_graph(&mut g, &keep, &ReducePolicy { max_bypass: 4096, allow_growth: true }).unwrap();
        assert_eq!(
            live_before - g.live_nodes(),
            stats.bypassed + stats.pruned,
            "every vanished node is accounted for"
        );
    }
}
