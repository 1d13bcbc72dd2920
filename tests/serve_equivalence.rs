//! Session-isolation properties for the `tmm-serve` what-if engine.
//!
//! The serving layer is only admissible because concurrency changes
//! *nothing* observable: N sessions with interleaved edits over one
//! shared [`DesignCore`] must answer every query with exactly the bits a
//! fresh single-threaded replay produces, and a session's final state
//! must equal an independently reconstructed `GraphView` + `Context`
//! analysed from scratch. These properties are exercised here over
//! random designs, random op scripts, and random worker counts.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::sync::Arc;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::faults::eco::{EcoEdit, EcoStream};
use timing_macro_gnn::serve::{
    format_quad, DesignEntry, DesignPool, EngineOptions, QueryKind, ServeEngine, Session,
};
use timing_macro_gnn::sta::constraints::{Context, PiConstraint};
use timing_macro_gnn::sta::graph::{ArcGraph, NodeId};
use timing_macro_gnn::sta::liberty::Library;
use timing_macro_gnn::sta::propagate::{Analysis, AnalysisOptions};
use timing_macro_gnn::sta::split::Split;
use timing_macro_gnn::sta::view::{GraphView, TimingGraph};

/// One scripted session operation (mirrors the wire commands the engine
/// executes, but kept structured so the reference replay is trivial).
#[derive(Debug, Clone)]
enum ScriptOp {
    Query(QueryKind, String),
    SetPi(usize, f64, f64, f64),
    SetPoLoad(usize, f64),
    Eco(EcoEdit),
}

/// Deterministic per-session op script: mostly queries, some boundary
/// re-constraints, a few prefix-ordered ECO edits.
fn build_script(
    entry: &Arc<DesignEntry>,
    graph: &ArcGraph,
    seed: u64,
    steps: usize,
) -> Vec<ScriptOp> {
    let pins: Vec<String> =
        graph.topo_order().iter().map(|&n| graph.node_name(n).to_string()).collect();
    let eco = EcoStream::generate(&entry.core, 8, seed).edits().to_vec();
    let mut eco_cursor = 0usize;
    let pi_count = entry.ctx.pi.len();
    let po_count = entry.ctx.po.len();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        // SplitMix-ish mixer; the exact stream does not matter, only that
        // it is deterministic in `seed`.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let roll = next() % 10;
        let op = match roll {
            0..=5 => {
                let kind = match next() % 4 {
                    0 => QueryKind::At,
                    1 => QueryKind::Rat,
                    2 => QueryKind::Slack,
                    _ => QueryKind::Slew,
                };
                ScriptOp::Query(kind, pins[(next() as usize) % pins.len()].clone())
            }
            6 | 7 if pi_count > 0 => {
                let idx = (next() as usize) % pi_count;
                let e = (next() % 200) as f64 / 10.0;
                ScriptOp::SetPi(idx, e, e + (next() % 100) as f64 / 10.0, 5.0 + (next() % 400) as f64 / 10.0)
            }
            8 if po_count > 0 => {
                ScriptOp::SetPoLoad((next() as usize) % po_count, 1.0 + (next() % 300) as f64 / 10.0)
            }
            _ => {
                if eco_cursor < eco.len() {
                    eco_cursor += 1;
                    ScriptOp::Eco(eco[eco_cursor - 1].clone())
                } else {
                    ScriptOp::Query(QueryKind::Slack, pins[(next() as usize) % pins.len()].clone())
                }
            }
        };
        ops.push(op);
    }
    ops
}

fn wire_line(sid: u64, op: &ScriptOp) -> String {
    use timing_macro_gnn::serve::protocol::{format_command, Command};
    let cmd = match op {
        ScriptOp::Query(kind, pin) => {
            Command::Query { sid, kind: *kind, pin: pin.clone() }
        }
        ScriptOp::SetPi(idx, e, l, s) => Command::SetPi {
            sid,
            idx: *idx,
            at_early: *e,
            at_late: *l,
            slew: *s,
        },
        ScriptOp::SetPoLoad(idx, load) => Command::SetPoLoad { sid, idx: *idx, load: *load },
        ScriptOp::Eco(edit) => Command::Eco { sid, edit: edit.clone() },
    };
    format_command(&cmd)
}

/// Replays one script on a fresh single-threaded [`Session`] and returns
/// the expected response line per op.
fn serial_reference(entry: &Arc<DesignEntry>, sid: u64, script: &[ScriptOp]) -> Vec<String> {
    let mut session = Session::open(sid, Arc::clone(entry));
    script
        .iter()
        .map(|op| match op {
            ScriptOp::Query(kind, pin) => {
                format!("ok {}", format_quad(session.query(*kind, pin).unwrap()))
            }
            ScriptOp::SetPi(idx, e, l, s) => {
                session.set_pi(*idx, *e, *l, *s).unwrap();
                "ok".to_string()
            }
            ScriptOp::SetPoLoad(idx, load) => {
                session.set_po_load(*idx, *load).unwrap();
                "ok".to_string()
            }
            ScriptOp::Eco(edit) => {
                session.apply_eco(edit).unwrap();
                "ok".to_string()
            }
        })
        .collect()
}

/// Queries every pin of `view` — deleted and inserted ones included —
/// through `session` and compares all four quantities with a from-scratch
/// batch [`Analysis`] of `view` under `ctx` (no serve, session or
/// incremental code involved in the reference).
fn assert_session_matches_scratch(
    session: &mut Session,
    view: &GraphView,
    ctx: &Context,
    options: AnalysisOptions,
    what: &str,
) {
    let analysis = Analysis::run_with_options(view, ctx, options).unwrap();
    for i in 0..view.node_count() {
        let n = NodeId(i as u32);
        let pin = view.node_name(n);
        for (kind, want) in [
            (QueryKind::At, analysis.at(n)),
            (QueryKind::Rat, analysis.rat(n)),
            (QueryKind::Slack, analysis.slack(n)),
            (QueryKind::Slew, analysis.slew(n)),
        ] {
            let got = session.query(kind, pin).unwrap();
            assert_eq!(
                format_quad(got),
                format_quad(want),
                "{what}: {} of {pin} (dead: {}) differs from scratch",
                kind.name(),
                view.node_dead(n)
            );
        }
    }
}

fn built_design(seed: u64, pins: usize) -> (ArcGraph, Library) {
    let lib = Library::synthetic(7);
    let netlist =
        CircuitSpec::sized("serve_eq", pins).seed(seed).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    (graph, lib)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// N concurrent sessions with interleaved edit/query scripts on one
    /// shared core answer bit-identically to fresh single-threaded
    /// replays of the same scripts — for any worker count.
    #[test]
    fn concurrent_sessions_match_serial_replay_bit_exactly(
        seed in 0u64..300,
        sessions in 2usize..5,
        workers in 1usize..4,
        steps in 6usize..14,
    ) {
        let (graph, _lib) = built_design(seed, 220);
        let entry = DesignEntry::new(
            &graph,
            Context::nominal(&graph),
            AnalysisOptions::default(),
            None,
        );
        let mut pool = DesignPool::new();
        pool.insert(Arc::clone(&entry));
        let engine = ServeEngine::new(Arc::new(pool), EngineOptions { workers });

        let opens = "open serve_eq\n".repeat(sessions);
        let sids: Vec<u64> = engine
            .submit_lines(&opens)
            .lines()
            .map(|l| l.strip_prefix("ok ").unwrap().parse().unwrap())
            .collect();
        prop_assert_eq!(sids.len(), sessions);

        let scripts: Vec<Vec<ScriptOp>> = sids
            .iter()
            .map(|sid| build_script(&entry, &graph, seed ^ (sid * 0x51_7c_c1), steps))
            .collect();

        // Interleave the sessions' ops round-robin into one submission so
        // different shards genuinely run concurrently, then demultiplex
        // the response lines back per session.
        let mut body = String::new();
        let mut line_owner = Vec::new();
        for step in 0..steps {
            for (si, script) in scripts.iter().enumerate() {
                body.push_str(&wire_line(sids[si], &script[step]));
                body.push('\n');
                line_owner.push((si, step));
            }
        }
        let responses: Vec<String> =
            engine.submit_lines(&body).lines().map(str::to_string).collect();
        prop_assert_eq!(responses.len(), line_owner.len());

        for (si, sid) in sids.iter().enumerate() {
            let expected = serial_reference(&entry, *sid, &scripts[si]);
            for (line, &(owner, step)) in responses.iter().zip(&line_owner) {
                if owner == si {
                    prop_assert_eq!(
                        line,
                        &expected[step],
                        "sid {} step {} diverged from serial replay",
                        sid,
                        step
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// After every op, every pin a session answers for equals a
    /// from-scratch batch analysis of an independently reconstructed
    /// overlay + context, at every CPPR × AOCV corner. ECO edits re-sync
    /// the session's state instead of rebuilding it (AOCV excepted).
    #[test]
    fn session_end_state_matches_from_scratch_analysis(
        seed in 0u64..300,
        steps in 4usize..12,
        cppr in proptest::bool::ANY,
        aocv in proptest::bool::ANY,
    ) {
        let (graph, _lib) = built_design(seed, 200);
        let options = AnalysisOptions { cppr, aocv };
        let entry = DesignEntry::new(&graph, Context::nominal(&graph), options, None);
        let script = build_script(&entry, &graph, seed ^ 0xABCD, steps);

        let mut session = Session::open(1, Arc::clone(&entry));
        let mut view = GraphView::new(Arc::clone(&entry.core));
        let mut ctx = entry.ctx.clone();
        let mut rebuilds = 0;
        for (k, op) in script.iter().enumerate() {
            match op {
                ScriptOp::Query(kind, pin) => {
                    let _ = session.query(*kind, pin).unwrap();
                }
                ScriptOp::SetPi(idx, e, l, s) => {
                    session.set_pi(*idx, *e, *l, *s).unwrap();
                    ctx.pi[*idx] = PiConstraint { at: Split::new(*e, *l), slew: *s };
                }
                ScriptOp::SetPoLoad(idx, load) => {
                    session.set_po_load(*idx, *load).unwrap();
                    ctx.po[*idx].load = *load;
                }
                ScriptOp::Eco(edit) => {
                    session.apply_eco(edit).unwrap();
                    edit.apply(&mut view).unwrap();
                    // The state exists from the first comparison on; under
                    // AOCV every later edit rebuilds it.
                    rebuilds += usize::from(aocv && k > 0);
                }
            }
            let what = format!("seed {seed} cppr {cppr} aocv {aocv} op {k} ({op:?})");
            assert_session_matches_scratch(&mut session, &view, &ctx, options, &what);
        }
        prop_assert_eq!(session.propagations, 1 + rebuilds as u64);
    }
}
