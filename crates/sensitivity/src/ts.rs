//! The timing sensitivity (TS) metric — §4.1, Eqs. (1)–(2), Fig. 5.
//!
//! The TS of a pin is the average relative change of boundary timing values
//! (slew, arrival, required arrival, slack — plus check slacks in CPPR
//! mode) caused by removing the pin, averaged over several random boundary
//! contexts. Removal here *is* the serial merge used by macro generation
//! ([`ArcGraph::bypass_node`]), so TS measures exactly the error that
//! merging the pin into the model would cause.
//!
//! Evaluation freezes the design once into an [`Arc`]-shared
//! [`DesignCore`], runs one [`ReferenceAnalysis`] per context, and probes
//! each pin with a copy-on-write [`GraphView`] that is re-timed only over
//! the edit's cone — O(cone) per probe. [`evaluate_ts_cloning`] is the
//! bit-exact reference it is checked against: it clones the full graph and
//! re-runs a full analysis per probe (O(graph)), and is called only by
//! tests, the differential checker and benches.

use std::sync::Arc;
use tmm_sta::compare::BoundarySnapshot;
use tmm_sta::constraints::{Context, ContextSampler};
use tmm_sta::graph::{ArcGraph, NodeId};
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::retime::{ReferenceAnalysis, RetimeScratch};
use tmm_sta::split::{mode_edge_iter, Edge};
use tmm_sta::view::{DesignCore, GraphView, TimingGraph};
use tmm_sta::Result;

/// Options for one TS evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsOptions {
    /// Number of random boundary contexts (`|C|` in Eq. (1)).
    pub contexts: usize,
    /// Context sampler seed.
    pub seed: u64,
    /// Worker threads for the per-pin evaluation loop (1 = sequential,
    /// 0 = one per available hardware thread). Pin removals are
    /// independent, so the sweep parallelises perfectly; results are
    /// deterministic regardless of thread count.
    pub threads: usize,
    /// Run the underlying analyses with CPPR.
    pub cppr: bool,
    /// Run the underlying analyses with AOCV derating (the generality axis
    /// of §5.3: TS adapts to whichever analysis mode is active).
    pub aocv: bool,
    /// Values below this count as "zero TS" when labelling.
    pub zero_eps: f64,
    /// Approximate peak-memory budget in MiB for the sweep (0 =
    /// unbounded). When the resident reference analyses for all contexts
    /// would exceed it, the contexts are processed in groups small enough
    /// to fit, carrying per-pin running totals between groups — the
    /// grouped sweep is bit-identical to the unbounded one.
    pub mem_budget_mb: usize,
}

impl Default for TsOptions {
    fn default() -> Self {
        TsOptions {
            contexts: 4,
            seed: 0x7357,
            threads: 1,
            cppr: false,
            aocv: false,
            zero_eps: 1e-6,
            mem_budget_mb: 0,
        }
    }
}

/// A per-pin evaluation failure that was quarantined instead of aborting
/// the sweep. The pin keeps `NaN` TS (and is conservatively labelled
/// variant downstream, like a refused bypass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsFailure {
    /// Node index of the failed probe.
    pub node: usize,
    /// Rendered error cause.
    pub cause: String,
}

/// Result of a TS evaluation.
#[derive(Debug, Clone)]
pub struct TsResult {
    /// Per-node TS; `NaN` for pins that were not evaluated (not a
    /// candidate, not removable, or quarantined).
    pub ts: Vec<f64>,
    /// Number of pins successfully evaluated.
    pub evaluated: usize,
    /// Number of candidate pins that could not be bypassed (kept
    /// conservatively; they get `NaN`).
    pub skipped: usize,
    /// Per-pin failures quarantined during the sweep (each pin keeps `NaN`
    /// and the sweep continues).
    pub failures: Vec<TsFailure>,
}

impl TsResult {
    /// Binary labels per Eq. (1)'s usage in §5.1: 1 iff TS is non-zero
    /// (above `zero_eps`); unevaluated pins are 0.
    #[must_use]
    pub fn labels(&self, zero_eps: f64) -> Vec<f32> {
        self.ts
            .iter()
            .map(|&t| if t.is_finite() && t > zero_eps { 1.0 } else { 0.0 })
            .collect()
    }

    /// Regression targets (§5.3): the TS value itself, 0 where unevaluated.
    #[must_use]
    pub fn regression_targets(&self) -> Vec<f32> {
        self.ts.iter().map(|&t| if t.is_finite() { t as f32 } else { 0.0 }).collect()
    }

    /// Node indices ranked by descending TS under a *total* order
    /// ([`f64::total_cmp`], ties broken by index for determinism).
    /// Non-finite entries — unevaluated, skipped, or quarantined pins —
    /// are excluded entirely rather than landing at an arbitrary end of the
    /// order, which is what a naive `partial_cmp().unwrap_or(Equal)` sort
    /// silently does. Callers that must act on quarantined pins should read
    /// [`TsResult::failures`] instead; this ranking only ever contains pins
    /// whose TS was actually measured.
    #[must_use]
    pub fn ranked_pins(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self
            .ts
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_finite())
            .map(|(i, _)| i)
            .collect();
        idx.sort_by(|&a, &b| self.ts[b].total_cmp(&self.ts[a]).then(a.cmp(&b)));
        idx
    }
}

/// Mean relative difference of one quantity category over matched boundary
/// entries (the inner sum of Eq. (2)); denominators are floored at 1 ps to
/// keep near-zero references from exploding the metric.
///
/// Entries are matched by position. Removing one pin never changes the
/// port or check lists, so both snapshots list the same names in the same
/// order; when they do not, the probe fails (and is quarantined) rather
/// than being compared under a different matching.
fn relative_diff(before: &BoundarySnapshot, after: &BoundarySnapshot) -> Result<[f64; 4]> {
    fn aligned<T>(a: &[T], b: &[T], name: impl Fn(&T) -> &str) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| name(x) == name(y))
    }
    if !aligned(&before.po, &after.po, |p| &p.name)
        || !aligned(&before.pi, &after.pi, |p| &p.name)
        || !aligned(&before.checks, &after.checks, |c| &c.name)
    {
        return Err(tmm_sta::StaError::IllegalEdit(
            "edited boundary does not list the reference's ports and checks in order".into(),
        ));
    }
    let mut sums = [0.0f64; 4]; // slew, at, rat, slack
    let mut counts = [0usize; 4];
    let acc = |cat: usize, b: f64, a: f64, sums: &mut [f64; 4], counts: &mut [usize; 4]| {
        if b.is_finite() && a.is_finite() {
            sums[cat] += (a - b).abs() / b.abs().max(1.0);
            counts[cat] += 1;
        }
    };
    for (p, q) in before.po.iter().zip(&after.po) {
        for (m, e) in mode_edge_iter() {
            acc(0, p.slew[m][e], q.slew[m][e], &mut sums, &mut counts);
            acc(1, p.at[m][e], q.at[m][e], &mut sums, &mut counts);
            acc(2, p.rat[m][e], q.rat[m][e], &mut sums, &mut counts);
            acc(3, p.slack[m][e], q.slack[m][e], &mut sums, &mut counts);
        }
    }
    for (p, q) in before.pi.iter().zip(&after.pi) {
        for (m, e) in mode_edge_iter() {
            acc(2, p.rat[m][e], q.rat[m][e], &mut sums, &mut counts);
        }
    }
    for (c, q) in before.checks.iter().zip(&after.checks) {
        for e in Edge::ALL {
            acc(3, c.setup_slack[e], q.setup_slack[e], &mut sums, &mut counts);
            acc(3, c.hold_slack[e], q.hold_slack[e], &mut sums, &mut counts);
        }
    }
    let mut out = [0.0f64; 4];
    for k in 0..4 {
        out[k] = if counts[k] > 0 { sums[k] / counts[k] as f64 } else { 0.0 };
    }
    Ok(out)
}

/// One TS probe: bypasses pin `i` in a fresh view of `core`, re-times it
/// under every reference through `scratch`, and adds each context's mean
/// category change (Eq. (2)) to `total`, in reference order. Returns the
/// new running total; the caller divides by the context count.
fn probe_pin(
    core: &Arc<DesignCore>,
    references: &[ReferenceAnalysis],
    i: usize,
    mut total: f64,
    scratch: &mut RetimeScratch,
) -> Result<f64> {
    let mut view = GraphView::new(core.clone());
    view.bypass_node(NodeId(i as u32))?;
    for reference in references {
        let edited = reference.retime(&view, scratch)?;
        let cats = relative_diff(reference.boundary(), edited)?;
        total += cats.iter().sum::<f64>() / 4.0;
    }
    Ok(total)
}

/// Times one TS probe into the per-pin latency histogram. While metrics
/// are disabled this is one relaxed load and no clock read, keeping the
/// sweep's hot loop inert.
fn timed_probe<F: FnOnce() -> Result<f64>>(engine: &'static str, f: F) -> Result<f64> {
    if !tmm_obs::metrics_enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let r = f();
    tmm_obs::observe("tmm_ts_pin_seconds", &[("engine", engine)], start.elapsed().as_secs_f64());
    r
}

/// Records sweep totals (and a quarantine warning, if any) once per TS
/// evaluation.
fn record_sweep_outcome(result: &TsResult, engine: &'static str) {
    let labels = [("engine", engine)];
    tmm_obs::counter_add("tmm_ts_pins_evaluated_total", &labels, result.evaluated as u64);
    tmm_obs::counter_add("tmm_ts_pins_skipped_total", &labels, result.skipped as u64);
    tmm_obs::counter_add("tmm_ts_pins_quarantined_total", &labels, result.failures.len() as u64);
    if !result.failures.is_empty() {
        // Summary stays at debug: the framework re-logs quarantines at warn
        // with the design name attached, which this layer cannot know.
        tmm_obs::debug(
            &[
                ("stage", "ts_sweep"),
                ("engine", engine),
                ("quarantined", &result.failures.len().to_string()),
            ],
            "TS probes quarantined; affected pins keep NaN and are labelled conservatively",
        );
        for f in &result.failures {
            tmm_obs::debug(
                &[("stage", "ts_sweep"), ("node", &f.node.to_string()), ("cause", &f.cause)],
                "quarantined TS probe",
            );
        }
    }
}

/// Resolves the configured thread count: 0 means one worker per available
/// hardware thread.
fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        configured
    }
}

/// Approximate resident bytes of one [`ReferenceAnalysis`]: the raw
/// propagation state dominates (at/slew/rat quads, launch tags, clock
/// parents per node), plus a fixed allowance for the boundary snapshot.
/// A worker's [`RetimeScratch`] is a copy of that state, so it costs the
/// same.
pub(crate) fn reference_state_bytes(nodes: usize) -> usize {
    nodes * (3 * 32 + 16 + 4) + 4096
}

/// How many reference analyses fit in `budget_mb` (> 0) next to the
/// frozen core and the `workers` retime scratches the sweep keeps
/// resident.
fn references_that_fit(core: &DesignCore, budget_mb: usize, workers: usize) -> usize {
    let budget = budget_mb.saturating_mul(1024 * 1024);
    let per = reference_state_bytes(core.node_count());
    let fixed = core.memory_estimate().saturating_add(workers.saturating_mul(per));
    budget.saturating_sub(fixed) / per.max(1)
}

/// How many contexts' reference analyses fit in `budget_mb` alongside the
/// frozen core and one retime scratch per worker (0 = unbounded → all of
/// them, the pre-budget behaviour). Always at least 1: a budget too small
/// for even one reference degrades to maximal chunking rather than
/// failing.
fn ts_context_group_size(
    core: &DesignCore,
    budget_mb: usize,
    contexts: usize,
    workers: usize,
) -> usize {
    if budget_mb == 0 {
        return contexts.max(1);
    }
    references_that_fit(core, budget_mb, workers).clamp(1, contexts.max(1))
}

/// Smallest context count that makes a `budget_mb`-bounded sweep over
/// `core` split into at least two context groups, at any worker count.
/// Differential checks use this to guarantee the chunked accumulation path
/// actually engages even on designs small enough that the whole sweep
/// would fit the budget.
#[must_use]
pub fn ts_min_chunked_contexts(core: &DesignCore, budget_mb: usize) -> usize {
    if budget_mb == 0 {
        return 2;
    }
    // One more context than fits resident forces a second group. One
    // worker holds the fewest scratches, so its groups are the largest;
    // more workers only split the contexts further.
    references_that_fit(core, budget_mb, 1).max(1) + 1
}

/// One pin's sweep outcome: its node index and either the measured TS or
/// the rendered quarantine cause.
type PinOutcome = (usize, std::result::Result<f64, String>);

/// Stitches per-pin outcomes into the TS vector and failure list,
/// preserving work order.
fn apply_outcomes(outcomes: Vec<PinOutcome>, ts: &mut [f64], failures: &mut Vec<TsFailure>) {
    for (i, outcome) in outcomes {
        match outcome {
            Ok(v) => ts[i] = v,
            Err(cause) => failures.push(TsFailure { node: i, cause }),
        }
    }
}

/// Runs `eval` over `work`, quarantining per-pin failures, and returns
/// the outcomes in work order. Each entry of `workers` is one worker's own
/// state (a retime scratch), passed to every call that worker makes: the
/// work is split into one contiguous part per worker on scoped threads,
/// or run on the calling thread when only one worker (or one pin) is
/// there. The outcome list is the same for any worker count.
fn sweep_outcomes<S, F>(work: &[usize], workers: &mut [S], eval: F) -> Result<Vec<PinOutcome>>
where
    S: Send,
    F: Fn(usize, &mut S) -> Result<f64> + Sync,
{
    let run = |part: &[usize], state: &mut S| -> Vec<PinOutcome> {
        part.iter().map(|&i| (i, eval(i, state).map_err(|e| e.to_string()))).collect()
    };
    let threads = workers.len().min(work.len());
    if threads <= 1 {
        return match workers.first_mut() {
            Some(state) => Ok(run(work, state)),
            None if work.is_empty() => Ok(Vec::new()),
            None => Err(tmm_sta::StaError::IllegalEdit("TS sweep was given no worker".into())),
        };
    }
    // Pin removals are independent: chunk the work list across scoped
    // workers and stitch results back by index (deterministic).
    let chunk = work.len().div_ceil(threads);
    let run = &run;
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .zip(workers.iter_mut())
            .map(|(part, state)| scope.spawn(move || run(part, state)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => Ok(r),
                // A worker panic is a bug, not an input error; surface
                // it as a structured error instead of aborting the
                // whole process from a non-main thread.
                Err(_) => Err(tmm_sta::StaError::IllegalEdit("TS worker panicked".into())),
            })
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Pins per checkpointed TS chunk: small enough that a kill mid-sweep
/// loses little work, large enough that artifact overhead stays noise.
pub const TS_CKPT_CHUNK: usize = 32;

/// Maps a checkpoint-layer failure into the STA error domain so TS
/// callers keep a single error channel.
fn ckpt_to_sta(e: tmm_ckpt::CkptError) -> tmm_sta::StaError {
    tmm_sta::StaError::Validation { artifact: "checkpoint", errors: 1, first: e.to_string() }
}

/// Renders one chunk of pin outcomes as a checkpoint payload
/// (`ts_chunk v2`): one line per pin, `{v:e}` exact-f64 values, the
/// quarantine cause carried verbatim to end of line.
fn render_ts_chunk(outcomes: &[PinOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("ts_chunk v2 {}\n", outcomes.len());
    for (i, o) in outcomes {
        match o {
            Ok(v) => {
                let _ = writeln!(out, "pin {i} ok {v:e}");
            }
            Err(cause) => {
                let _ = writeln!(out, "pin {i} fail {}", cause.replace('\n', " "));
            }
        }
    }
    out
}

/// Parses a `ts_chunk v2` payload back into pin outcomes, verifying the
/// recorded pins match `expect` (this run's deterministic work slice) so
/// a chunk written against a different candidate set is rejected.
fn parse_ts_chunk(payload: &str, expect: &[usize]) -> std::result::Result<Vec<PinOutcome>, String> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or("empty chunk payload")?;
    let mut h = header.split_whitespace();
    if h.next() != Some("ts_chunk") || h.next() != Some("v2") {
        return Err(format!("bad chunk header `{header}`"));
    }
    let count: usize =
        h.next().and_then(|t| t.parse().ok()).ok_or_else(|| "bad chunk count".to_string())?;
    let mut out: Vec<PinOutcome> = Vec::with_capacity(count);
    for line in lines {
        let rest = line.strip_prefix("pin ").ok_or_else(|| format!("bad chunk line `{line}`"))?;
        let (idx, rest) =
            rest.split_once(' ').ok_or_else(|| format!("bad chunk line `{line}`"))?;
        let i: usize = idx.parse().map_err(|_| format!("bad pin index `{idx}`"))?;
        if let Some(v) = rest.strip_prefix("ok ") {
            let v: f64 = v.parse().map_err(|_| format!("bad TS value `{v}`"))?;
            out.push((i, Ok(v)));
        } else if let Some(cause) = rest.strip_prefix("fail ") {
            out.push((i, Err(cause.to_string())));
        } else if rest == "fail" {
            out.push((i, Err(String::new())));
        } else {
            return Err(format!("bad chunk line `{line}`"));
        }
    }
    if out.len() != count {
        return Err(format!("chunk lists {} pins, header says {count}", out.len()));
    }
    if out.len() != expect.len() || out.iter().zip(expect).any(|((i, _), &e)| *i != e) {
        return Err("chunk pins disagree with this run's work list".to_string());
    }
    Ok(out)
}

/// Evaluates the TS of every candidate pin of `graph` (Fig. 5 flow).
/// `candidates[i] == true` requests evaluation of node `i`; ports, FF pins
/// and dead nodes are silently skipped. Freezes the graph into a
/// [`DesignCore`] internally — callers that already hold a frozen core
/// should use [`evaluate_ts_with_core`] to skip the freeze.
///
/// # Errors
///
/// Propagates analysis errors (infallible for valid graphs). Per-pin probe
/// failures do *not* abort the sweep; they are quarantined into
/// [`TsResult::failures`].
///
/// # Panics
///
/// Panics if `candidates.len() != graph.node_count()`.
pub fn evaluate_ts(graph: &ArcGraph, candidates: &[bool], opts: &TsOptions) -> Result<TsResult> {
    evaluate_ts_with_core(&DesignCore::freeze(graph), candidates, opts)
}

/// View-engine TS evaluation over an already-frozen core. One
/// [`ReferenceAnalysis`] per context is shared (by reference) across all
/// worker threads; each probe builds an O(1) [`GraphView`], bypasses its
/// pin, and re-times only the affected cone.
///
/// # Errors
///
/// Propagates reference-analysis errors; per-pin failures are quarantined.
///
/// # Panics
///
/// Panics if `candidates.len() != core.node_count()`.
pub fn evaluate_ts_with_core(
    core: &Arc<DesignCore>,
    candidates: &[bool],
    opts: &TsOptions,
) -> Result<TsResult> {
    ts_sweep(core, candidates, opts, None, None)
}

/// [`evaluate_ts_with_core`] with crash-safe chunk checkpointing: the
/// deterministic work list is processed in [`TS_CKPT_CHUNK`]-pin chunks,
/// each persisted to `store` under `stage` as it completes and loaded
/// back (instead of recomputed) on resume. Because chunks are stitched in
/// index order, a resumed sweep is bit-identical to an uninterrupted one
/// — TS values *and* failure ordering.
///
/// # Errors
///
/// Propagates reference-analysis errors; checkpoint-layer failures
/// (unwritable store, corrupt or mismatched chunk artifact) surface as
/// [`tmm_sta::StaError::Validation`] with artifact `"checkpoint"`.
///
/// # Panics
///
/// Panics if `candidates.len() != core.node_count()`.
pub fn evaluate_ts_with_core_ckpt(
    core: &Arc<DesignCore>,
    candidates: &[bool],
    opts: &TsOptions,
    store: &mut dyn tmm_ckpt::StageStore,
    stage: &str,
) -> Result<TsResult> {
    ts_sweep(core, candidates, opts, None, Some((store, stage)))
}

/// The one TS sweep behind every view-engine entry point.
///
/// Builds the deterministic work list (candidate, live, bypassable pins in
/// index order) and the recompute list: the whole work list, or with
/// `carry = Some((previous, dirty))` only the pins that cannot carry their
/// previous value (see [`evaluate_ts_incremental`]). The recompute list is
/// probed in context groups sized by [`TsOptions::mem_budget_mb`], one
/// [`ReferenceAnalysis`] per context of the current group built on
/// `threads` workers; no reference is built when nothing needs probing.
/// With `ckpt` each group is processed in [`TS_CKPT_CHUNK`]-pin chunks
/// persisted to the store (chunk `seq = (group << 32) | chunk`), otherwise
/// as one pass over its active pins. Carried and fresh outcomes are
/// stitched back in work order, so the result does not depend on the
/// carry, the budget, the thread count or a resume.
fn ts_sweep(
    core: &Arc<DesignCore>,
    candidates: &[bool],
    opts: &TsOptions,
    carry: Option<(&TsResult, &[bool])>,
    mut ckpt: Option<(&mut dyn tmm_ckpt::StageStore, &str)>,
) -> Result<TsResult> {
    let n = core.node_count();
    assert_eq!(candidates.len(), n, "candidate mask size mismatch");
    if let Some((_, dirty)) = carry {
        assert_eq!(dirty.len(), n, "dirty mask size mismatch");
    }
    let engine = if carry.is_some() { "incremental" } else { "view" };
    let mut sweep_span = tmm_obs::span("ts_sweep", "sensitivity");
    sweep_span.arg("engine", engine);
    let analysis_opts = AnalysisOptions { cppr: opts.cppr, aocv: opts.aocv };
    let mut sampler = ContextSampler::new(opts.seed);
    let contexts: Vec<Context> = sampler.sample_many(&**core, opts.contexts.max(1));
    let n_ctx = contexts.len();

    let probe = GraphView::new(core.clone());
    let mut skipped = 0usize;
    let mut work: Vec<usize> = Vec::new();
    for (i, &wanted) in candidates.iter().enumerate() {
        if !wanted {
            continue;
        }
        let nid = NodeId(i as u32);
        if probe.node_dead(nid) {
            continue;
        }
        if !probe.can_bypass(nid) {
            skipped += 1;
            continue;
        }
        work.push(i);
    }

    let prev_failed: std::collections::HashMap<usize, &str> = carry
        .map(|(previous, _)| {
            previous.failures.iter().map(|f| (f.node, f.cause.as_str())).collect()
        })
        .unwrap_or_default();
    // A pin carries when it is clean AND the previous sweep actually
    // produced something for it — a recorded quarantine or a finite TS.
    // Anything else (new pin, previously absent, previously unevaluated)
    // recomputes.
    let carried = |i: usize| -> Option<std::result::Result<f64, &str>> {
        let (previous, dirty) = carry?;
        if dirty[i] || i >= previous.ts.len() {
            return None;
        }
        match prev_failed.get(&i) {
            Some(&cause) => Some(Err(cause)),
            None => previous.ts[i].is_finite().then_some(Ok(previous.ts[i])),
        }
    };
    let recompute: Vec<usize> = work.iter().copied().filter(|&i| carried(i).is_none()).collect();

    let threads = resolve_threads(opts.threads).min(recompute.len().max(1));
    let group_size = ts_context_group_size(core, opts.mem_budget_mb, n_ctx, threads);
    let n_groups = if recompute.is_empty() { 0 } else { n_ctx.div_ceil(group_size) };
    if n_groups > 1 {
        // Budget forced the context set into chunks (PR 8 landed this
        // path without a series).
        tmm_obs::counter_add("tmm_ts_chunk_splits_total", &[], (n_groups - 1) as u64);
    }
    // Live heartbeat: every group re-sweeps the surviving recompute list,
    // so the stage total is groups × pins and advances monotonically —
    // one unit per finished probe, and the pins a chunk did not probe
    // (loaded from the store or failed in an earlier group) once the
    // chunk is done.
    let heartbeat =
        tmm_obs::progress_start("ts_sweep", "", (n_groups * recompute.len().max(1)) as u64);
    // Per-pin running totals chained across context groups: each group
    // appends its contexts (in ascending context order) to the same f64
    // accumulation sequence and the single divide happens at the very end,
    // so the grouped sweep is bit-identical to all-contexts-at-once
    // regardless of group size. A pin that fails keeps the cause of its
    // first failing context and is skipped in later groups.
    let mut totals = vec![0.0f64; n];
    let mut failed: Vec<Option<String>> = vec![None; n];
    for (g, ctx_group) in contexts.chunks(group_size).take(n_groups).enumerate() {
        // Only this group's references are resident: the previous group's
        // were dropped at the end of the last iteration, which is what
        // keeps peak RSS within the budget.
        let references: Vec<ReferenceAnalysis> = ctx_group
            .iter()
            .map(|c| {
                ReferenceAnalysis::new_with_threads(
                    core.clone(),
                    c.clone(),
                    analysis_opts,
                    threads,
                )
            })
            .collect::<Result<_>>()?;
        // One scratch per worker, living as long as this group's
        // references: retime resets it per probe, so one scratch serves
        // every reference (they share node count).
        let mut scratches: Vec<RetimeScratch> =
            (0..threads).map(|_| references[0].scratch()).collect();
        let totals_ref = &totals;
        let eval = |i: usize, scratch: &mut RetimeScratch| {
            let r = timed_probe(engine, || probe_pin(core, &references, i, totals_ref[i], scratch));
            heartbeat.add(1);
            r
        };
        // Without a store the group is one chunk, swept in one call. With
        // one it is swept in [`TS_CKPT_CHUNK`]-pin chunks: a chunk already
        // in the store is loaded instead of recomputed, a fresh chunk is
        // persisted before the next one starts. Chunks always cover the
        // full recompute list (carried failures re-render their cause) and
        // are stitched in (group, chunk) order, so TS values and the
        // failure list come out identical either way.
        let chunk_len = if ckpt.is_some() { TS_CKPT_CHUNK } else { recompute.len().max(1) };
        let mut group_outcomes: Vec<PinOutcome> = Vec::with_capacity(recompute.len());
        for (c, chunk) in recompute.chunks(chunk_len).enumerate() {
            let seq = ((g as u64) << 32) | c as u64;
            let stored = match ckpt.as_mut() {
                Some((store, stage)) => store
                    .load(stage, seq)
                    .map_err(ckpt_to_sta)?
                    .map(|payload| parse_ts_chunk(&payload, chunk))
                    .transpose()
                    .map_err(|m| {
                        ckpt_to_sta(tmm_ckpt::CkptError::Corrupt(format!(
                            "TS chunk {stage}/{seq}: {m}"
                        )))
                    })?,
                None => None,
            };
            let mut probed = 0;
            let outcomes = match stored {
                Some(outcomes) => outcomes,
                None => {
                    let active: Vec<usize> =
                        chunk.iter().copied().filter(|&i| failed[i].is_none()).collect();
                    probed = active.len();
                    let mut fresh = sweep_outcomes(&active, &mut scratches, eval)?.into_iter();
                    let outcomes: Vec<PinOutcome> = chunk
                        .iter()
                        .map(|&i| match &failed[i] {
                            Some(cause) => (i, Err(cause.clone())),
                            None => {
                                fresh.next().unwrap_or((i, Err("missing sweep outcome".into())))
                            }
                        })
                        .collect();
                    if let Some((store, stage)) = ckpt.as_mut() {
                        store.save(stage, seq, &render_ts_chunk(&outcomes)).map_err(ckpt_to_sta)?;
                    }
                    outcomes
                }
            };
            group_outcomes.extend(outcomes);
            heartbeat.add((chunk.len() - probed) as u64);
        }
        for (i, outcome) in group_outcomes {
            match outcome {
                Ok(v) => totals[i] = v,
                Err(cause) => {
                    failed[i].get_or_insert(cause);
                }
            }
        }
    }
    if let Some((store, stage)) = ckpt.as_mut() {
        store.mark_done(stage).map_err(ckpt_to_sta)?;
    }
    // Stitch in work order: the previous value or quarantine verbatim
    // where carried, the finished running total or first failure where
    // recomputed.
    let outcomes: Vec<PinOutcome> = work
        .iter()
        .map(|&i| {
            let outcome = match carried(i) {
                Some(o) => o.map_err(str::to_string),
                None => match failed[i].take() {
                    Some(cause) => Err(cause),
                    None => Ok(totals[i] / n_ctx as f64),
                },
            };
            (i, outcome)
        })
        .collect();
    let mut ts = vec![f64::NAN; n];
    let mut failures = Vec::new();
    apply_outcomes(outcomes, &mut ts, &mut failures);
    let evaluated = work.len() - failures.len();
    heartbeat.complete();
    sweep_span.arg_f64("pins", work.len() as f64);
    sweep_span.arg_f64("evaluated", evaluated as f64);
    if carry.is_some() {
        let carried_pins = work.len() - recompute.len();
        sweep_span.arg_f64("carried", carried_pins as f64);
        sweep_span.arg_f64("recomputed", recompute.len() as f64);
        tmm_obs::counter_add("tmm_ts_pins_carried_total", &[("engine", engine)], carried_pins as u64);
    }
    let result = TsResult { ts, evaluated, skipped, failures };
    record_sweep_outcome(&result, engine);
    Ok(result)
}

/// Marks the forward closure of the already-set nodes: one pass over the
/// topological order, spreading each set node to its fanout targets. The
/// seeds stay set.
fn fwd_closure(core: &DesignCore, set: &mut [bool]) {
    for &nid in core.topo_order() {
        if set[nid.index()] {
            for a in core.fanout(nid) {
                set[core.arc(a).to.index()] = true;
            }
        }
    }
}

/// Marks the backward closure of the already-set nodes: one reverse pass
/// over the topological order, spreading each set node to its fanin
/// sources. The seeds stay set.
fn bwd_closure(core: &DesignCore, set: &mut [bool]) {
    for &nid in core.topo_order().iter().rev() {
        if set[nid.index()] {
            for a in core.fanin(nid) {
                set[core.arc(a).from.index()] = true;
            }
        }
    }
}

/// Computes which probes an ECO-style edit can affect, so an incremental
/// TS sweep may carry every other pin's value forward unchanged.
///
/// `changed` lists the nodes the edit touched on the *new* core
/// ([`GraphView::edited_nodes`] of the pre-materialise view — overlay ids
/// are stable across materialisation); `old_node_count` is the node count
/// before the edit, so inserted nodes (which have no previous TS at all)
/// are always dirty.
///
/// A probe at pin `p` measures the boundary delta of bypassing `p`. Its
/// value can only change when the edit perturbs a timing value the
/// probe's own delta propagation reads. Conservatively:
///
/// 1. `F_e` — forward closure of the edited nodes: every AT/slew the edit
///    can move. Widened through setup/hold checks (`ck ∈ F_e` moves the
///    check's required time at `d`, and check pins have no fanout of
///    their own).
/// 2. `R` — backward closure of `F_e` widened by check coupling *in both
///    directions* (`ck ∈ F_e` moves the required time at `d`; `d ∈ F_e`
///    moves the check slack read by every probe on the capture clock
///    path — checks are not arcs, so no closure crosses them on its
///    own): every RAT/slack the edit can move. `R ⊇ F_e` also covers
///    every probe whose *forward* cone meets a perturbed AT — a side
///    input competing inside the probe's fanout must itself lie in the
///    forward-closed `F_e`, which puts the probe upstream of it, i.e.
///    inside `R`.
/// 3. The backward hazard: the boundary reports the RAT of every data
///    primary input, and the edit perturbs the reference RAT of each PI
///    in `S = R ∩ fwd(PIs)` (`min` competition can flip, and the
///    reference denominator of the probe's relative delta moves). A
///    probe perturbs the *bypassed* RAT of such a PI whenever its own
///    influence cone meets the PI's cone — including through a capture
///    clock: bypassing a clock-buffer pin moves check required times,
///    which back-propagate into the same PI RATs. So the final widening
///    is `bwd(fwd(S) ∪ {ck : check d ∈ fwd(S)})` — everything whose
///    influence cone (data fanout or captured check) meets a perturbed
///    PI's cone. Seeding the forward closure
///    from the *data* PI cones only — never the clock source — is what
///    keeps this from saturating into "everything launched by the
///    clock": the trailing backward closure walks capture subtrees and
///    upstream logic but never re-expands forward.
///
/// Register boundaries act as firewalls (data pins have no fanout; Q pins
/// have no data fanin), so one edit dirties its own pipeline stage plus
/// coupled neighbours, not the design; the carried fraction grows with
/// design size. The result is a per-node mask aligned with the new core's
/// node ids.
#[must_use]
pub fn dirty_probe_set(
    core: &DesignCore,
    changed: &[NodeId],
    old_node_count: usize,
) -> Vec<bool> {
    let n = core.node_count();
    let mut fwd = vec![false; n];
    for &c in changed {
        if c.index() < n {
            fwd[c.index()] = true;
        }
    }
    for slot in fwd.iter_mut().take(n).skip(old_node_count.min(n)) {
        *slot = true;
    }
    fwd_closure(core, &mut fwd);
    // Check coupling, both directions: a moved clock-pin arrival moves the
    // data pin's required time, and a moved data-pin arrival/slew moves the
    // check slack every probe on the *capture* clock path reads — checks
    // are not arcs, so neither closure crosses them on its own.
    let mut reach = fwd.clone();
    for c in core.checks() {
        if fwd[c.ck.index()] {
            reach[c.d.index()] = true;
        }
        if fwd[c.d.index()] {
            reach[c.ck.index()] = true;
        }
    }
    bwd_closure(core, &mut reach);
    // `reach` = every node whose AT/slew/RAT the edit can perturb.
    let mut pi_cone = vec![false; n];
    for &p in core.primary_inputs() {
        pi_cone[p.index()] = true;
    }
    fwd_closure(core, &mut pi_cone);
    let mut shared = vec![false; n];
    for i in 0..n {
        shared[i] = reach[i] && pi_cone[i];
    }
    fwd_closure(core, &mut shared);
    for c in core.checks() {
        if shared[c.d.index()] {
            shared[c.ck.index()] = true;
        }
    }
    bwd_closure(core, &mut shared);
    let mut dirty = reach;
    for (d, s) in dirty.iter_mut().zip(&shared) {
        *d |= s;
    }
    dirty
}

/// Incremental TS evaluation after an ECO edit: pins outside the edit's
/// influence (per `dirty`, from [`dirty_probe_set`]) carry their value —
/// or their quarantined failure — over from `previous` bit-exactly; only
/// dirty pins are re-probed. The stitched result is bit-identical to a
/// from-scratch [`evaluate_ts_with_core`] on the same core (values,
/// counts *and* failure ordering), at the cost of only the dirty cone.
///
/// `previous` may come from a smaller core (pure insertions): pins past
/// its end are recomputed. The dirty pins go through the same grouped
/// sweep as [`evaluate_ts_with_core`], so [`TsOptions::mem_budget_mb`] and
/// [`TsOptions::threads`] apply and leave the result unchanged; reference
/// analyses are built only when at least one pin needs recomputation.
///
/// # Errors
///
/// Propagates reference-analysis errors; per-pin failures are quarantined
/// as in the full sweep.
///
/// # Panics
///
/// Panics if `candidates.len()` or `dirty.len()` differ from
/// `core.node_count()`.
pub fn evaluate_ts_incremental(
    core: &Arc<DesignCore>,
    candidates: &[bool],
    opts: &TsOptions,
    previous: &TsResult,
    dirty: &[bool],
) -> Result<TsResult> {
    ts_sweep(core, candidates, opts, Some((previous, dirty)), None)
}

/// Reference TS evaluation: one full-graph clone and full analysis per
/// probe, O(graph) each. Bit-identical to [`evaluate_ts`] (the cone-limited
/// view sweep) and kept only as its oracle for tests, the differential
/// checker and benches; no pipeline option selects it.
///
/// # Errors
///
/// Propagates analysis errors; per-pin failures are quarantined.
///
/// # Panics
///
/// Panics if `candidates.len() != graph.node_count()`.
pub fn evaluate_ts_cloning(
    graph: &ArcGraph,
    candidates: &[bool],
    opts: &TsOptions,
) -> Result<TsResult> {
    assert_eq!(candidates.len(), graph.node_count(), "candidate mask size mismatch");
    let mut sweep_span = tmm_obs::span("ts_sweep", "sensitivity");
    sweep_span.arg("engine", "clone");
    let analysis_opts = AnalysisOptions { cppr: opts.cppr, aocv: opts.aocv };
    let mut sampler = ContextSampler::new(opts.seed);
    let contexts: Vec<Context> = sampler.sample_many(graph, opts.contexts.max(1));
    let references: Vec<BoundarySnapshot> = contexts
        .iter()
        .map(|c| Ok(Analysis::run_with_options(graph, c, analysis_opts)?.boundary().clone()))
        .collect::<Result<_>>()?;

    let mut ts = vec![f64::NAN; graph.node_count()];
    let mut skipped = 0usize;
    let mut work: Vec<usize> = Vec::new();
    for (i, &candidate) in candidates.iter().enumerate() {
        let n = NodeId(i as u32);
        if !candidate || graph.node(n).dead {
            continue;
        }
        if !graph.can_bypass(n) {
            skipped += 1;
            continue;
        }
        work.push(i);
    }

    // Evaluate one pin: clone, bypass, re-propagate under every context.
    let eval_pin = |i: usize| -> Result<f64> {
        let mut edited = graph.clone();
        edited.bypass_node(NodeId(i as u32))?;
        let mut total = 0.0f64;
        for (ctx, reference) in contexts.iter().zip(&references) {
            let an = Analysis::run_with_options(&edited, ctx, analysis_opts)?;
            let cats = relative_diff(reference, an.boundary())?;
            total += cats.iter().sum::<f64>() / 4.0;
        }
        Ok(total / contexts.len() as f64)
    };

    let threads = resolve_threads(opts.threads).min(work.len().max(1));
    let mut failures = Vec::new();
    let outcomes =
        sweep_outcomes(&work, &mut vec![(); threads], |i, _| timed_probe("clone", || eval_pin(i)))?;
    apply_outcomes(outcomes, &mut ts, &mut failures);
    let evaluated = work.len() - failures.len();
    sweep_span.arg_f64("pins", work.len() as f64);
    sweep_span.arg_f64("evaluated", evaluated as f64);
    let result = TsResult { ts, evaluated, skipped, failures };
    record_sweep_outcome(&result, "clone");
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::liberty::Library;

    fn graph() -> ArcGraph {
        let lib = Library::synthetic(9);
        let n = CircuitSpec::new("ts")
            .inputs(4)
            .outputs(4)
            .register_banks(1, 4)
            .cloud(2, 5)
            .seed(13)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    fn internal_candidates(g: &ArcGraph) -> Vec<bool> {
        (0..g.node_count())
            .map(|i| {
                let n = NodeId(i as u32);
                !g.node(n).dead && g.node(n).kind == tmm_sta::graph::NodeKind::Internal
            })
            .collect()
    }

    #[test]
    fn ts_is_deterministic_and_mostly_small() {
        let g = graph();
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 2, ..Default::default() };
        let a = evaluate_ts(&g, &cand, &opts).unwrap();
        let b = evaluate_ts(&g, &cand, &opts).unwrap();
        assert_eq!(a.evaluated, b.evaluated);
        assert!(a.evaluated > 10);
        for (x, y) in a.ts.iter().zip(&b.ts) {
            if x.is_finite() || y.is_finite() {
                assert_eq!(x, y);
            }
        }
        // TS values are relative quantities: small positives
        let finite: Vec<f64> = a.ts.iter().copied().filter(|t| t.is_finite()).collect();
        assert!(finite.iter().all(|&t| (0.0..10.0).contains(&t)));
        assert!(a.failures.is_empty(), "healthy sweep quarantines nothing");
    }

    #[test]
    fn view_engine_matches_clone_engine_bit_exactly() {
        let g = graph();
        let cand = internal_candidates(&g);
        for (threads_v, threads_c) in [(1, 1), (3, 2)] {
            let view = evaluate_ts(
                &g,
                &cand,
                &TsOptions { contexts: 2, threads: threads_v, ..Default::default() },
            )
            .unwrap();
            let clone = evaluate_ts_cloning(
                &g,
                &cand,
                &TsOptions { contexts: 2, threads: threads_c, ..Default::default() },
            )
            .unwrap();
            assert_eq!(view.evaluated, clone.evaluated);
            assert_eq!(view.skipped, clone.skipped);
            for (i, (a, b)) in view.ts.iter().zip(&clone.ts).enumerate() {
                if a.is_finite() || b.is_finite() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "engines disagree on node {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_core_entry_point_matches_flat_entry_point() {
        let g = graph();
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 2, ..Default::default() };
        let flat = evaluate_ts(&g, &cand, &opts).unwrap();
        let core = DesignCore::freeze(&g);
        let shared = evaluate_ts_with_core(&core, &cand, &opts).unwrap();
        for (a, b) in flat.ts.iter().zip(&shared.ts) {
            if a.is_finite() || b.is_finite() {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn many_pins_have_near_zero_ts() {
        // The premise of §4.2 (and Fig. 6): the majority of pins barely
        // influence boundary timing.
        let g = graph();
        let cand = internal_candidates(&g);
        let r = evaluate_ts(&g, &cand, &TsOptions { contexts: 2, ..Default::default() }).unwrap();
        let finite: Vec<f64> = r.ts.iter().copied().filter(|t| t.is_finite()).collect();
        let near_zero = finite.iter().filter(|&&t| t < 1e-7).count();
        assert!(
            near_zero * 3 > finite.len(),
            "at least a third near-zero: {near_zero}/{}",
            finite.len()
        );
        let positive = finite.iter().filter(|&&t| t > 1e-7).count();
        assert!(positive > 0, "some pins must matter");
    }

    #[test]
    fn po_adjacent_pins_have_higher_ts_than_deep_pins() {
        let g = graph();
        let cand = internal_candidates(&g);
        let r = evaluate_ts(&g, &cand, &TsOptions { contexts: 2, ..Default::default() }).unwrap();
        let levels_to_po = g.levels_to_outputs();
        let mut near = Vec::new();
        let mut far = Vec::new();
        for i in 0..g.node_count() {
            if !r.ts[i].is_finite() {
                continue;
            }
            match levels_to_po[i] {
                0..=2 => near.push(r.ts[i]),
                6..=u32::MAX => far.push(r.ts[i]),
                _ => {}
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        if !near.is_empty() && !far.is_empty() {
            assert!(avg(&near) >= avg(&far), "{} vs {}", avg(&near), avg(&far));
        }
    }

    #[test]
    fn labels_threshold_on_zero_eps() {
        let r = TsResult {
            ts: vec![f64::NAN, 0.0, 1e-9, 0.5],
            evaluated: 3,
            skipped: 0,
            failures: Vec::new(),
        };
        assert_eq!(r.labels(1e-7), vec![0.0, 0.0, 0.0, 1.0]);
        assert_eq!(r.regression_targets(), vec![0.0, 0.0, 1e-9 as f32, 0.5]);
    }

    #[test]
    fn ranked_pins_excludes_nan_and_uses_total_order() {
        // A NaN pin sits exactly where the classification boundary would
        // put it (between the two finite values): it must neither rank nor
        // perturb the order of its neighbours, and labels must call it 0.
        let r = TsResult {
            ts: vec![0.5, f64::NAN, 1e-7, -0.0, 0.5],
            evaluated: 4,
            skipped: 0,
            failures: vec![TsFailure { node: 1, cause: "quarantined".into() }],
        };
        assert_eq!(r.ranked_pins(), vec![0, 4, 2, 3], "NaN excluded, ties by index");
        assert_eq!(r.labels(1e-7), vec![1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn aocv_fallback_path_matches_clone_engine_and_attribution() {
        // Under AOCV the view engine serves every probe through the
        // full-analysis fallback; results and quarantine attribution must
        // be identical to the clone oracle (which always runs full).
        let g = graph();
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 2, aocv: true, ..Default::default() };
        let view = evaluate_ts(&g, &cand, &opts).unwrap();
        let clone = evaluate_ts_cloning(&g, &cand, &opts).unwrap();
        assert_eq!(view.evaluated, clone.evaluated);
        assert_eq!(view.skipped, clone.skipped);
        assert_eq!(view.failures, clone.failures, "quarantine attribution differs across paths");
        for (a, b) in view.ts.iter().zip(&clone.ts) {
            if a.is_finite() || b.is_finite() {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn parallel_evaluation_matches_sequential_exactly() {
        let g = graph();
        let cand = internal_candidates(&g);
        type Engine = fn(&ArcGraph, &[bool], &TsOptions) -> Result<TsResult>;
        for engine in [evaluate_ts as Engine, evaluate_ts_cloning] {
            let seq =
                engine(&g, &cand, &TsOptions { contexts: 2, threads: 1, ..Default::default() })
                    .unwrap();
            // threads == 0 resolves to available parallelism.
            let par =
                engine(&g, &cand, &TsOptions { contexts: 2, threads: 0, ..Default::default() })
                    .unwrap();
            assert_eq!(seq.evaluated, par.evaluated);
            for (a, b) in seq.ts.iter().zip(&par.ts) {
                assert_eq!(a.to_bits(), b.to_bits(), "thread count must not change results");
            }
        }
    }

    #[test]
    fn ts_chunk_payload_round_trips() {
        let outcomes: Vec<PinOutcome> = vec![
            (3, Ok(0.125)),
            (7, Err("probe exploded: node 7".into())),
            (9, Err(String::new())),
            (11, Ok(f64::MIN_POSITIVE)),
        ];
        let text = render_ts_chunk(&outcomes);
        let parsed = parse_ts_chunk(&text, &[3, 7, 9, 11]).unwrap();
        assert_eq!(parsed, outcomes);
        // A chunk recorded against a different work slice is rejected.
        assert!(parse_ts_chunk(&text, &[3, 7, 9, 12]).is_err());
        assert!(parse_ts_chunk(&text, &[3, 7, 9]).is_err());
        // A chunk missing lines disagrees with its own header count.
        let torn: String =
            text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(parse_ts_chunk(&torn, &[3, 7]).is_err());
    }

    fn big_graph() -> ArcGraph {
        let lib = Library::synthetic(9);
        let n = CircuitSpec::new("ts-big")
            .inputs(6)
            .outputs(6)
            .register_banks(2, 6)
            .cloud(3, 30)
            .seed(17)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    #[test]
    fn context_groups_leave_room_for_one_scratch_per_worker() {
        let core = DesignCore::freeze(&big_graph());
        let per = reference_state_bytes(core.node_count());
        let mb = 4;
        let room = mb * 1024 * 1024 - core.memory_estimate();
        assert!(room > 8 * per, "{mb} MiB must hold several references for this test");
        for workers in 1..=4 {
            assert_eq!(
                ts_context_group_size(&core, mb, usize::MAX, workers),
                (room - workers * per) / per,
                "{workers} worker(s)"
            );
        }
        // Unbounded and starved budgets keep their old meaning.
        assert_eq!(ts_context_group_size(&core, 0, 7, 4), 7);
        assert_eq!(ts_context_group_size(&core, mb, 7, room / per + 1), 1);
        // The chunking threshold splits the sweep at every worker count.
        let min = ts_min_chunked_contexts(&core, mb);
        assert_eq!(min, ts_context_group_size(&core, mb, usize::MAX, 1) + 1);
        for workers in 1..=4 {
            assert!(ts_context_group_size(&core, mb, min, workers) < min);
        }
    }

    #[test]
    fn chunked_checkpoint_resume_is_bit_identical() {
        use std::sync::Arc;
        use tmm_ckpt::{MemStore, StageStore};
        let g = big_graph();
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 2, ..Default::default() };
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let plain = evaluate_ts_with_core(&core, &cand, &opts).unwrap();

        let mut full = MemStore::new();
        let first = evaluate_ts_with_core_ckpt(&core, &cand, &opts, &mut full, "ts.big").unwrap();
        assert_eq!(first.evaluated, plain.evaluated);
        assert_eq!(first.failures, plain.failures);
        for (x, y) in first.ts.iter().zip(&plain.ts) {
            if x.is_finite() || y.is_finite() {
                assert_eq!(x.to_bits(), y.to_bits(), "ckpt sweep differs from plain sweep");
            }
        }
        let saves = full.saves();
        assert!(saves >= 2, "work should span several chunks, got {saves}");

        // Simulate a kill after each chunk prefix and resume.
        for kept in 0..=saves {
            let mut store = full.truncated(kept);
            let again =
                evaluate_ts_with_core_ckpt(&core, &cand, &opts, &mut store, "ts.big").unwrap();
            assert_eq!(again.evaluated, plain.evaluated, "kept={kept}");
            assert_eq!(again.skipped, plain.skipped, "kept={kept}");
            assert_eq!(again.failures, plain.failures, "kept={kept}");
            for (x, y) in again.ts.iter().zip(&plain.ts) {
                if x.is_finite() || y.is_finite() {
                    assert_eq!(x.to_bits(), y.to_bits(), "resume differs at kept={kept}");
                }
            }
            assert!(store.is_done("ts.big"), "resumed sweep must mark its stage done");
        }
    }

    #[test]
    fn stale_chunk_for_different_candidates_is_rejected() {
        use std::sync::Arc;
        use tmm_ckpt::MemStore;
        let g = graph();
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 1, ..Default::default() };
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let mut store = MemStore::new();
        evaluate_ts_with_core_ckpt(&core, &cand, &opts, &mut store, "ts").unwrap();
        // Drop the first candidate: the deterministic work list shifts, so
        // every recorded chunk disagrees and must be rejected, not reused.
        let mut fewer = cand.clone();
        let first = cand.iter().position(|&c| c).unwrap();
        fewer[first] = false;
        let mut truncated = store.truncated(1);
        let err = evaluate_ts_with_core_ckpt(&core, &fewer, &opts, &mut truncated, "ts")
            .unwrap_err();
        assert!(
            err.to_string().contains("checkpoint"),
            "expected a classed checkpoint error, got: {err}"
        );
    }

    /// First live combinational lookup-table arc whose source is off the
    /// clock network: a safe ECO victim. Launch arcs (CK→Q) are excluded —
    /// resizing one shifts launch timing for the whole downstream cone and
    /// legitimately dirties every probe, which would defeat the clean-pin
    /// assertions below.
    fn first_table_arc(g: &ArcGraph) -> tmm_sta::graph::ArcId {
        use tmm_sta::graph::{ArcId, ArcTiming};
        ArcId(
            g.arcs()
                .iter()
                .position(|a| {
                    !a.dead
                        && !a.is_clock
                        && matches!(a.timing, ArcTiming::Table(_))
                        && !g.node(a.from).is_clock_network
                })
                .unwrap() as u32,
        )
    }

    fn assert_ts_bit_identical(a: &TsResult, b: &TsResult, what: &str) {
        assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated differs");
        assert_eq!(a.skipped, b.skipped, "{what}: skipped differs");
        assert_eq!(a.failures, b.failures, "{what}: failures differ");
        assert_eq!(a.ts.len(), b.ts.len(), "{what}: length differs");
        for (i, (x, y)) in a.ts.iter().zip(&b.ts).enumerate() {
            if x.is_finite() || y.is_finite() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: node {i}: {x} vs {y}");
            }
        }
    }

    /// Runs one ECO edit through the incremental path and checks the
    /// stitched result against a from-scratch sweep of the edited core.
    /// Returns the new core/candidates/result for chaining.
    #[allow(clippy::type_complexity)]
    fn step_and_check(
        core: &Arc<DesignCore>,
        previous: &TsResult,
        opts: &TsOptions,
        edit: impl FnOnce(&mut GraphView),
        what: &str,
    ) -> (Arc<DesignCore>, Vec<bool>, TsResult) {
        let mut view = GraphView::new(core.clone());
        edit(&mut view);
        let changed = view.edited_nodes();
        let edited = view.materialize().unwrap();
        let new_core: Arc<DesignCore> = DesignCore::freeze(&edited);
        let cand = internal_candidates(&edited);
        let dirty = dirty_probe_set(&new_core, &changed, core.node_count());
        let clean = dirty.iter().filter(|&&d| !d).count();
        assert!(clean > 0, "{what}: one edit must leave clean pins on this design");
        let scratch = evaluate_ts_with_core(&new_core, &cand, opts).unwrap();
        let inc = evaluate_ts_incremental(&new_core, &cand, opts, previous, &dirty).unwrap();
        assert_ts_bit_identical(&inc, &scratch, what);
        (new_core, cand, inc)
    }

    #[test]
    fn incremental_sweep_matches_scratch_after_each_eco_edit() {
        let g = graph();
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 2, cppr: true, ..Default::default() };
        let base = evaluate_ts_with_core(&core, &cand, &opts).unwrap();

        // Edit 1: cell resize (pure timing change, node set unchanged).
        let victim = first_table_arc(&g);
        let (core2, _, r2) = step_and_check(
            &core,
            &base,
            &opts,
            |v| {
                v.resize_arc(victim, 0.8).unwrap();
            },
            "resize",
        );
        // Edit 2: buffer insert (node growth; previous TS vector is
        // shorter than the new core, the new pin must recompute).
        let victim2 = first_table_arc_on_core(&GraphView::new(core2.clone()));
        let (core3, cand3, r3) = step_and_check(
            &core2,
            &r2,
            &opts,
            |v| {
                v.insert_node_on_arc(victim2, "eco_buf_t", 2.5).unwrap();
            },
            "insert",
        );
        assert_eq!(core3.node_count(), core2.node_count() + 1);
        // Edit 3: cell delete (bypass an evaluable internal pin).
        let del = {
            let probe = GraphView::new(core3.clone());
            (0..core3.node_count())
                .map(|i| NodeId(i as u32))
                .find(|&nid| {
                    cand3[nid.index()] && !probe.node_dead(nid) && probe.can_bypass(nid)
                })
                .unwrap()
        };
        step_and_check(
            &core3,
            &r3,
            &opts,
            |v| {
                v.bypass_node(del).unwrap();
            },
            "delete",
        );
    }

    /// First live, non-clock table arc visible through a view over a core
    /// (mirrors `first_table_arc` but core ids can differ from the flat
    /// graph after a materialise round-trip).
    fn first_table_arc_on_core(view: &GraphView) -> tmm_sta::graph::ArcId {
        use tmm_sta::graph::{ArcId, ArcTiming};
        let core = view.core();
        (0..core.arc_count() as u32)
            .map(ArcId)
            .find(|&a| {
                let arc = TimingGraph::arc(&**core, a);
                !arc.dead
                    && !arc.is_clock
                    && matches!(arc.timing, ArcTiming::Table(_))
                    && !TimingGraph::node_is_clock_network(&**core, arc.from)
                    && !TimingGraph::node_dead(&**core, arc.from)
                    && !TimingGraph::node_dead(&**core, arc.to)
            })
            .unwrap()
    }

    #[test]
    fn incremental_with_all_dirty_equals_scratch_and_all_clean_carries() {
        let g = graph();
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 2, ..Default::default() };
        let base = evaluate_ts_with_core(&core, &cand, &opts).unwrap();
        // All-dirty degenerates to a full recompute.
        let all_dirty = vec![true; core.node_count()];
        let full = evaluate_ts_incremental(&core, &cand, &opts, &base, &all_dirty).unwrap();
        assert_ts_bit_identical(&full, &base, "all-dirty");
        // All-clean carries everything verbatim.
        let all_clean = vec![false; core.node_count()];
        let carried = evaluate_ts_incremental(&core, &cand, &opts, &base, &all_clean).unwrap();
        assert_ts_bit_identical(&carried, &base, "all-clean");
    }

    /// A grown core (one inserted buffer) re-probes cleanly at 2 threads:
    /// an all-dirty incremental sweep carried over from the smaller core
    /// quarantines nothing and matches a from-scratch sweep of the grown
    /// core bit for bit, as the all-dirty sweep on the original core
    /// matches its own from-scratch sweep.
    #[test]
    fn grown_core_reprobes_cleanly_at_two_threads() {
        let g = big_graph();
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let cand = internal_candidates(&g);
        let opts = TsOptions { contexts: 1, threads: 2, ..Default::default() };
        let base = evaluate_ts_with_core(&core, &cand, &opts).unwrap();
        let all_dirty = vec![true; core.node_count()];
        let first = evaluate_ts_incremental(&core, &cand, &opts, &base, &all_dirty).unwrap();
        assert_ts_bit_identical(&first, &base, "first core");

        let mut view = GraphView::new(core.clone());
        view.insert_node_on_arc(first_table_arc(&g), "eco_buf_s", 1.5).unwrap();
        let grown_graph = view.materialize().unwrap();
        let grown: Arc<DesignCore> = DesignCore::freeze(&grown_graph);
        assert_eq!(grown.node_count(), core.node_count() + 1);
        let cand = internal_candidates(&grown_graph);
        let all_dirty = vec![true; grown.node_count()];
        let second = evaluate_ts_incremental(&grown, &cand, &opts, &first, &all_dirty).unwrap();
        assert!(second.failures.is_empty(), "grown core quarantined: {:?}", second.failures);
        let scratch = evaluate_ts_with_core(&grown, &cand, &opts).unwrap();
        assert_ts_bit_identical(&second, &scratch, "grown core");
    }

    /// The incremental sweep is the grouped sweep: under a 1 MiB budget at
    /// a context count that forces at least two context groups, it matches
    /// the unbounded from-scratch sweep bit for bit at 1 and 2 threads —
    /// with every pin dirty, and with the real dirty cone of one resize.
    #[test]
    fn incremental_sweep_under_a_memory_budget_matches_unbounded_scratch() {
        let g = big_graph();
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let cand = internal_candidates(&g);
        let contexts = ts_min_chunked_contexts(&core, 1);
        let unbounded = TsOptions { contexts, ..Default::default() };
        let base = evaluate_ts_with_core(&core, &cand, &unbounded).unwrap();

        let mut view = GraphView::new(core.clone());
        view.resize_arc(first_table_arc(&g), 1.3).unwrap();
        let changed = view.edited_nodes();
        let edited = view.materialize().unwrap();
        let new_core: Arc<DesignCore> = DesignCore::freeze(&edited);
        let new_cand = internal_candidates(&edited);
        let dirty = dirty_probe_set(&new_core, &changed, core.node_count());
        assert!(dirty.contains(&false), "one resize must leave pins to carry");
        let scratch = evaluate_ts_with_core(&new_core, &new_cand, &unbounded).unwrap();

        let all_dirty = vec![true; core.node_count()];
        for threads in [1, 2] {
            assert!(
                ts_context_group_size(&core, 1, contexts, threads) < contexts,
                "{contexts} contexts must split into groups at {threads} thread(s)"
            );
            let budgeted = TsOptions { mem_budget_mb: 1, threads, ..unbounded };
            let full =
                evaluate_ts_incremental(&core, &cand, &budgeted, &base, &all_dirty).unwrap();
            assert_ts_bit_identical(&full, &base, &format!("all dirty, {threads} thread(s)"));
            let inc =
                evaluate_ts_incremental(&new_core, &new_cand, &budgeted, &base, &dirty).unwrap();
            assert_ts_bit_identical(&inc, &scratch, &format!("resize cone, {threads} thread(s)"));
        }
    }

    #[test]
    fn dirty_probe_set_is_a_cone_not_the_design() {
        let g = big_graph();
        let core: Arc<DesignCore> = DesignCore::freeze(&g);
        let mut view = GraphView::new(core.clone());
        view.resize_arc(first_table_arc(&g), 0.9).unwrap();
        let changed = view.edited_nodes();
        let edited = view.materialize().unwrap();
        let new_core: Arc<DesignCore> = DesignCore::freeze(&edited);
        let dirty = dirty_probe_set(&new_core, &changed, core.node_count());
        let dirty_count = dirty.iter().filter(|&&d| d).count();
        assert!(dirty_count > 0, "an edit must dirty its own cone");
        assert!(
            dirty_count < new_core.node_count(),
            "a single-arc edit must not dirty every node ({dirty_count}/{})",
            new_core.node_count()
        );
    }

    #[test]
    fn ports_and_ff_pins_never_evaluated() {
        let g = graph();
        let all = vec![true; g.node_count()];
        let r = evaluate_ts(&g, &all, &TsOptions { contexts: 1, ..Default::default() }).unwrap();
        for &p in g.primary_inputs().iter().chain(g.primary_outputs()) {
            assert!(r.ts[p.index()].is_nan());
        }
        for c in g.checks() {
            assert!(r.ts[c.d.index()].is_nan());
            assert!(r.ts[c.ck.index()].is_nan());
        }
    }
}
