//! `tmm-serve`: a concurrent what-if timing-query service over the
//! shared analysis core.
//!
//! The paper's macro models exist so boundary timing questions can be
//! answered orders of magnitude faster than flat analysis; this crate
//! turns that into a long-lived service. Designs (and their macro
//! models) load **once** into a [`DesignPool`] of frozen, `Arc`-shared
//! [`tmm_sta::view::DesignCore`]s; each client session layers one
//! copy-on-write [`tmm_sta::view::GraphView`] overlay plus its own
//! boundary context on top, so a thousand sessions share one core's
//! memory.
//!
//! * [`session`] — [`DesignEntry`]/[`DesignPool`]/[`Session`]: overlay +
//!   context + incremental propagation state per client.
//! * [`engine`] — [`ServeEngine`]: sessions sharded across a fixed
//!   worker pool by `sid % workers`; per-session operations execute
//!   serially in submission order, which makes every response
//!   bit-identical to a single-threaded replay.
//! * [`protocol`] — the framed text protocol (floats as exact bit
//!   patterns, so clients can verify determinism).
//! * [`server`] — the blocking-HTTP front-end riding [`tmm_obs::http`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod server;
pub mod session;

pub use engine::{EngineOptions, ServeEngine};
pub use protocol::{format_f64, format_quad, parse_command, parse_f64, Command, QueryKind};
pub use server::{serve, ServerHandle};
pub use session::{DesignEntry, DesignPool, Session};

/// Errors a serve operation can produce (rendered as `err …` response
/// lines on the wire).
#[derive(Debug)]
pub enum ServeError {
    /// No pooled design under that name.
    UnknownDesign(String),
    /// No open session with that id on its shard.
    UnknownSession(u64),
    /// Pin name resolves to nothing in the session's overlay.
    UnknownPin(String),
    /// The design has no macro model loaded.
    NoModel(String),
    /// Underlying analysis/edit error.
    Sta(tmm_sta::StaError),
    /// Malformed or unroutable command.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDesign(d) => write!(f, "unknown design `{d}`"),
            ServeError::UnknownSession(sid) => write!(f, "unknown session {sid}"),
            ServeError::UnknownPin(p) => write!(f, "unknown pin `{p}`"),
            ServeError::NoModel(d) => write!(f, "design `{d}` has no macro model"),
            ServeError::Sta(e) => write!(f, "{e}"),
            ServeError::Protocol(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::constraints::Context;
    use tmm_sta::graph::ArcGraph;
    use tmm_sta::liberty::Library;
    use tmm_sta::propagate::{Analysis, AnalysisOptions};

    fn pool_with(name: &str, pins: usize, seed: u64) -> (Arc<DesignPool>, ArcGraph) {
        let lib = Library::synthetic(7);
        let netlist = CircuitSpec::sized(name, pins).seed(seed).generate(&lib).unwrap();
        let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let ctx = Context::nominal(&graph);
        let entry = DesignEntry::new(&graph, ctx, AnalysisOptions::default(), None);
        let mut pool = DesignPool::new();
        pool.insert(entry);
        (Arc::new(pool), graph)
    }

    fn first_pin(graph: &ArcGraph) -> String {
        use tmm_sta::view::TimingGraph;
        let n = graph.topo_order()[graph.topo_order().len() / 2];
        graph.node_name(n).to_string()
    }

    #[test]
    fn open_query_close_round_trip_matches_direct_analysis() {
        let (pool, graph) = pool_with("serve_rt", 300, 11);
        let engine = ServeEngine::new(pool, EngineOptions { workers: 2 });
        let pin = first_pin(&graph);
        let out = engine.submit_lines(&format!("open serve_rt\nslack 1 {pin}\nclose 1\n"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert_eq!(lines[0], "ok 1");
        assert!(lines[1].starts_with("ok 0x"), "{out}");
        assert_eq!(lines[2], "ok");

        // The response bits must equal a direct single-threaded analysis.
        let ctx = Context::nominal(&graph);
        let direct = Analysis::run(&graph, &ctx).unwrap();
        let n = {
            use tmm_sta::view::TimingGraph;
            graph
                .topo_order()
                .iter()
                .copied()
                .find(|&n| graph.node_name(n) == pin)
                .unwrap()
        };
        assert_eq!(lines[1], format!("ok {}", format_quad(direct.slack(n))));
    }

    #[test]
    fn errors_are_classed_not_fatal() {
        let (pool, _) = pool_with("serve_err", 200, 3);
        let engine = ServeEngine::new(pool, EngineOptions { workers: 2 });
        let out = engine.submit_lines(
            "open nope\nslack 99 a\nopen serve_err\nslack 2 not_a_pin\nbogus cmd\nping\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err unknown design"), "{out}");
        assert!(lines[1].starts_with("err unknown session"), "{out}");
        assert_eq!(lines[2], "ok 2", "a failed open still consumes an id: {out}");
        assert!(lines[3].starts_with("err unknown pin"), "{out}");
        assert!(lines[4].starts_with("err"), "{out}");
        assert_eq!(lines[5], "ok");
    }

    /// An ECO resize that overflows a clock arrival (this design clocks its
    /// flip-flops from a data input through a buffer) leaves the checks it
    /// feeds unclocked; a session's incremental state must then read what
    /// a from-scratch analysis of the edited view reads, CPPR off and on.
    #[test]
    fn clock_overflow_eco_matches_from_scratch_analysis() {
        use tmm_sta::netlist::NetlistBuilder;
        use tmm_sta::view::{GraphView, TimingGraph};
        let lib = Library::synthetic(3);
        let mut b = NetlistBuilder::new("serve_dclk", &lib);
        let a = b.input("a").unwrap();
        let d = b.input("d").unwrap();
        let q = b.output("q").unwrap();
        let g = b.cell("g", "BUFX2").unwrap();
        let ff1 = b.cell("ff1", "DFFX1").unwrap();
        let ff2 = b.cell("ff2", "DFFX1").unwrap();
        let inv = b.cell("inv", "INVX1").unwrap();
        let pin = |b: &NetlistBuilder, c, p| b.pin_of(c, p).unwrap();
        b.connect("n_a", a, &[pin(&b, g, "A")]).unwrap();
        b.connect("n_ck", pin(&b, g, "Z"), &[pin(&b, ff1, "CK"), pin(&b, ff2, "CK")]).unwrap();
        b.connect("n_d", d, &[pin(&b, ff1, "D")]).unwrap();
        b.connect("n_q1", pin(&b, ff1, "Q"), &[pin(&b, inv, "A")]).unwrap();
        b.connect("n_i", pin(&b, inv, "Z"), &[pin(&b, ff2, "D")]).unwrap();
        b.connect("n_q2", pin(&b, ff2, "Q"), &[q]).unwrap();
        let graph = ArcGraph::from_netlist(&b.finish().unwrap(), &lib).unwrap();
        let g_arc = graph.arcs().iter().position(|x| graph.node(x.from).name == "g/A").unwrap();
        let pins: Vec<&str> = graph.topo_order().iter().map(|&n| graph.node_name(n)).collect();
        let mut ctx = Context::nominal(&graph);
        ctx.pi[0].at = tmm_sta::split::Split::new(0.0, 25.0); // CPPR credits are nonzero
        for cppr in [false, true] {
            let options = AnalysisOptions { cppr, ..AnalysisOptions::default() };
            let entry = DesignEntry::new(&graph, ctx.clone(), options, None);
            let mut view = GraphView::new(Arc::clone(&entry.core));
            let mut pool = DesignPool::new();
            pool.insert(entry);
            let engine = ServeEngine::new(Arc::new(pool), EngineOptions { workers: 2 });
            let slacks: String = pins.iter().map(|p| format!("slack 1 {p}\n")).collect();
            let before = engine.submit_lines(&format!("open serve_dclk\n{slacks}"));
            assert!(before.lines().all(|l| l.starts_with("ok")), "{before}");
            assert_eq!(engine.submit_lines(&format!("eco 1 resize {g_arc} 1e308\n")), "ok\n");
            view.resize_arc(tmm_sta::graph::ArcId(g_arc as u32), 1e308).unwrap();
            let full = Analysis::run_with_options(&view, &ctx, options).unwrap();
            assert!(graph.checks().iter().all(|c| !full.at(c.ck).late.rise.is_finite()));
            let after = engine.submit_lines(&slacks);
            for (line, &n) in after.lines().zip(graph.topo_order()) {
                let want = format!("ok {}", format_quad(full.slack(n)));
                assert_eq!(line, want, "cppr {cppr}: {}", graph.node_name(n));
            }
            assert_eq!(after.lines().count(), pins.len());
        }
    }

    #[test]
    fn sessions_are_isolated_across_shards() {
        let (pool, graph) = pool_with("serve_iso", 300, 7);
        let engine = ServeEngine::new(pool, EngineOptions { workers: 3 });
        let pin = first_pin(&graph);
        // Open two sessions; perturb only the second; the first must
        // keep answering baseline values.
        let out = engine.submit_lines("open serve_iso\nopen serve_iso\n");
        assert_eq!(out, "ok 1\nok 2\n");
        let baseline = engine.submit_lines(&format!("slack 1 {pin}\n"));
        engine
            .submit_lines("setpi 2 0 0x4008000000000000 0x4010000000000000 0x4037000000000000\n")
            .lines()
            .for_each(|l| assert_eq!(l, "ok"));
        let after = engine.submit_lines(&format!("slack 1 {pin}\n"));
        assert_eq!(baseline, after, "session 1 unaffected by session 2's edit");
    }

    #[test]
    fn http_round_trip_over_the_wire() {
        let (pool, graph) = pool_with("serve_http", 250, 5);
        let engine = Arc::new(ServeEngine::new(pool, EngineOptions { workers: 2 }));
        let handle = serve(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
        let addr = handle.addr();
        let pin = first_pin(&graph);

        let (status, body) = tmm_obs::http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("ok serve_http"), "{body}");

        let (status, body) = tmm_obs::http_request(
            addr,
            "POST",
            "/v1",
            &format!("open serve_http\nat 1 {pin}\nslack 1 {pin}\nclose 1\n"),
        )
        .unwrap();
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "{body}");
        assert_eq!(lines[0], "ok 1");
        assert!(lines[1].starts_with("ok 0x"));
        assert!(lines[3] == "ok");

        let (status, _) = tmm_obs::http_request(addr, "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = tmm_obs::http_request(addr, "PUT", "/v1", "x").unwrap();
        assert_eq!(status, 405);
        drop(handle);
    }

    #[test]
    fn dropped_server_refuses_connections_promptly() {
        let (pool, _) = pool_with("serve_drop", 100, 2);
        let engine = Arc::new(ServeEngine::new(pool, EngineOptions { workers: 1 }));
        let handle = serve(engine, "127.0.0.1:0").expect("bind");
        let addr = handle.addr();
        let (status, _) = tmm_obs::http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        let started = std::time::Instant::now();
        drop(handle);
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "drop took {took:?}");
        let err = std::net::TcpStream::connect(addr).expect_err("port still open after drop");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }
}
