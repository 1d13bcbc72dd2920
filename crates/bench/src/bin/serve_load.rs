//! Seeded closed-loop load generator for the `tmm-serve` what-if service.
//!
//! Drives a mixed stream of point queries, boundary re-constraints, ECO
//! edits, and macro evaluations across N concurrent sessions, either
//! against an in-process [`ServeEngine`] (default; this is the acceptance
//! configuration) or over the wire against a running `tmm serve`
//! (`--addr`). Every client thread keeps a single-threaded mirror
//! [`Session`] per server session and replays the identical operation
//! stream into it; sampled responses are compared **bit for bit** against
//! the mirror — any divergence is a determinism bug and fails the run.
//! Against a server started with `--cppr`/`--aocv`, pass the same switches
//! here so the mirror times under the same analysis options.
//!
//! Batches are homogeneous per query class so latency percentiles
//! attribute cleanly; the results land in `BENCH_serve.json`
//! (`serve_<class>_p50|p95|p99` records carry the percentile as
//! `wall_ms`, `serve_overall` carries total wall time plus commands/s as
//! `throughput`) and are gated in CI by `tmm benchdiff`.

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmm_circuits::CircuitSpec;
use tmm_faults::eco::{EcoEdit, EcoStream};
use tmm_macromodel::baselines::generate_libabs;
use tmm_macromodel::MacroModelOptions;
use tmm_serve::{
    format_f64, format_quad, DesignEntry, DesignPool, EngineOptions, QueryKind, ServeEngine,
    Session,
};
use tmm_sta::constraints::Context;
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::propagate::AnalysisOptions;
use tmm_sta::view::TimingGraph;

/// Value of `--name <v>` in `argv`, if present.
fn arg_value(argv: &[String], name: &str) -> Option<String> {
    argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1).cloned())
}

fn parsed_arg<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match arg_value(argv, name) {
        Some(v) => match v.parse() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("bad value for {name}: {e}");
                std::process::exit(1);
            }
        },
        None => default,
    }
}

/// How a batch travels: straight into the engine, or over HTTP.
enum Transport {
    Local(Arc<ServeEngine>),
    Http(SocketAddr),
}

impl Transport {
    fn submit(&self, body: &str) -> String {
        match self {
            Transport::Local(engine) => engine.submit_lines(body),
            Transport::Http(addr) => {
                let (status, resp) = tmm_obs::http_request(*addr, "POST", "/v1", body)
                    .unwrap_or_else(|e| panic!("POST /v1 failed: {e}"));
                assert_eq!(status, 200, "POST /v1 returned {status}: {resp}");
                resp
            }
        }
    }
}

/// The query classes the generator mixes (also the BENCH stage names).
const CLASSES: [&str; 4] = ["query", "reconstrain", "eco", "macroeval"];

/// Per-class batch latencies (ms), merged across client threads.
#[derive(Default)]
struct Latencies {
    by_class: [Vec<f64>; 4],
}

fn class_index(name: &str) -> usize {
    CLASSES.iter().position(|c| *c == name).unwrap()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One client thread's slice of the work: the sessions it owns plus the
/// mirror state that shadows them.
struct ClientSession {
    sid: u64,
    mirror: Session,
    eco: Vec<EcoEdit>,
    eco_cursor: usize,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let design_name = arg_value(&argv, "--design-name").unwrap_or_else(|| "serve_load".into());
    let pins: usize = parsed_arg(&argv, "--pins", 600);
    let seed: u64 = parsed_arg(&argv, "--seed", 1);
    let sessions: usize = parsed_arg(&argv, "--sessions", 8);
    let threads: usize = parsed_arg(&argv, "--threads", 4).max(1);
    let target: u64 = parsed_arg(&argv, "--queries", 1_000_000);
    let batch: usize = parsed_arg(&argv, "--batch", 256).max(1);
    let sample_every: usize = parsed_arg(&argv, "--sample-every", 256).max(1);
    let workers: usize = parsed_arg(&argv, "--workers", 4);
    let out = arg_value(&argv, "--out").unwrap_or_else(|| "BENCH_serve.json".into());
    let with_model = argv.iter().any(|a| a == "--with-model");
    let addr = arg_value(&argv, "--addr");
    // Must match the server's own `--cppr`/`--aocv`: the mirror times under
    // these options, and any mismatch reads as a divergence.
    let options = AnalysisOptions {
        cppr: argv.iter().any(|a| a == "--cppr"),
        aocv: argv.iter().any(|a| a == "--aocv"),
    };

    // The mirror is built from the same seeded spec `tmm gen` uses, so an
    // HTTP run against `tmm serve --design <generated>` shadows the exact
    // same design (same name, pins, seed → same netlist bytes).
    let library = Library::synthetic(7);
    let netlist = CircuitSpec::sized(&design_name, pins)
        .seed(seed)
        .generate(&library)
        .expect("netlist generation");
    let graph = ArcGraph::from_netlist(&netlist, &library).expect("graph build");
    let model = if with_model {
        Some(generate_libabs(&graph, &MacroModelOptions::default()).expect("libabs model"))
    } else {
        None
    };
    let make_entry = |model| {
        DesignEntry::new(&graph, Context::nominal(&graph), options, model)
    };
    // Mirrors need their own entry (sessions take the Arc); generation is
    // deterministic, so the server-side copy is semantically identical.
    let mirror_entry = make_entry(if with_model {
        Some(generate_libabs(&graph, &MacroModelOptions::default()).expect("libabs model"))
    } else {
        None
    });

    let transport = match addr {
        Some(a) => {
            let sa = a
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .unwrap_or_else(|| panic!("cannot resolve --addr {a}"));
            Transport::Http(sa)
        }
        None => {
            let mut pool = DesignPool::new();
            pool.insert(make_entry(model));
            Transport::Local(Arc::new(ServeEngine::new(
                Arc::new(pool),
                EngineOptions { workers },
            )))
        }
    };

    // Candidate pins for point queries: live names over the base graph.
    let pin_names: Vec<String> =
        graph.topo_order().iter().map(|&n| graph.node_name(n).to_string()).collect();
    let pi_count = Context::nominal(&graph).pi.len();
    let po_count = Context::nominal(&graph).po.len();

    // Open all sessions up front (deterministic ids 1..=sessions), then
    // deal them round-robin to the client threads.
    let open_body = format!("open {design_name}\n").repeat(sessions);
    let opened = transport.submit(&open_body);
    let sids: Vec<u64> = opened
        .lines()
        .map(|l| {
            l.strip_prefix("ok ")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("open failed: {l}"))
        })
        .collect();
    assert_eq!(sids.len(), sessions, "expected {sessions} sessions: {opened}");

    let mut per_thread: Vec<Vec<ClientSession>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, &sid) in sids.iter().enumerate() {
        per_thread[i % threads].push(ClientSession {
            sid,
            mirror: Session::open(sid, Arc::clone(&mirror_entry)),
            eco: EcoStream::generate(&mirror_entry.core, 64, seed ^ sid).edits().to_vec(),
            eco_cursor: 0,
        });
    }

    let issued = AtomicU64::new(0);
    let compared = AtomicU64::new(0);
    let diverged = AtomicU64::new(0);
    let latencies = Mutex::new(Latencies::default());
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for (tid, mut owned) in per_thread.into_iter().enumerate() {
            let transport = &transport;
            let issued = &issued;
            let compared = &compared;
            let diverged = &diverged;
            let latencies = &latencies;
            let pin_names = &pin_names;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC11E_47 ^ (tid as u64) << 32);
                let mut local = Latencies::default();
                let mut round = 0usize;
                while issued.load(Ordering::Relaxed) < target {
                    let slot = round % owned.len();
                    let cs = &mut owned[slot];
                    round += 1;
                    // Class mix: mostly point queries; re-constraints are
                    // common; topology edits and macro evals are rare
                    // (each ECO forces a full repropagation).
                    let roll: u32 = rng.gen_range(0..100u32);
                    let class = if roll < 78 {
                        "query"
                    } else if roll < 96 {
                        "reconstrain"
                    } else if roll < 98 && cs.eco_cursor < cs.eco.len() {
                        "eco"
                    } else if cs.mirror.design().model.is_some() {
                        "macroeval"
                    } else {
                        "reconstrain"
                    };
                    let (body, expected) =
                        build_batch(class, cs, &mut rng, pin_names, pi_count, po_count, batch);
                    if body.is_empty() {
                        continue;
                    }
                    let sent = body.lines().count() as u64;
                    let t = Instant::now();
                    let resp = transport.submit(&body);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    local.by_class[class_index(class)].push(ms);
                    issued.fetch_add(sent, Ordering::Relaxed);
                    // Bit-compare against the single-threaded mirror. The mirror
                    // replays every operation anyway (it must track state),
                    // so full comparison costs only the string equality;
                    // `--sample-every` thins the expensive query compares.
                    for (i, (got, want)) in resp.lines().zip(expected.iter()).enumerate() {
                        let Some(want) = want else { continue };
                        if want.starts_with("ok 0x") && i % sample_every != 0 && i != 0 {
                            continue;
                        }
                        compared.fetch_add(1, Ordering::Relaxed);
                        if got != want {
                            diverged.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "DIVERGENCE sid {} line {i}: server `{got}` mirror `{want}`",
                                cs.sid
                            );
                        }
                    }
                }
                let mut merged = latencies.lock().unwrap();
                for (dst, src) in merged.by_class.iter_mut().zip(local.by_class) {
                    dst.extend(src);
                }
            });
        }
    });

    let wall = t0.elapsed();
    let close_body: String = sids.iter().map(|sid| format!("close {sid}\n")).collect();
    transport.submit(&close_body);

    let total = issued.load(Ordering::Relaxed);
    let checks = compared.load(Ordering::Relaxed);
    let bad = diverged.load(Ordering::Relaxed);
    let qps = total as f64 / wall.as_secs_f64().max(1e-9);

    let mut report = tmm_obs::RunReport::new("serve_load");
    report.fact("commands", total);
    report.fact("sessions", sessions);
    report.fact("threads", threads);
    report.fact("bit_compares", checks);
    report.fact("divergences", bad);
    report.capture_environment();

    let mut records = Vec::new();
    let merged = latencies.into_inner().unwrap();
    for (ci, class) in CLASSES.iter().enumerate() {
        let mut xs = merged.by_class[ci].clone();
        if xs.is_empty() {
            continue;
        }
        xs.sort_by(f64::total_cmp);
        for (tag, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            records.push(tmm_obs::BenchRecord {
                stage: format!("serve_{class}_{tag}"),
                design: design_name.clone(),
                wall_ms: percentile(&xs, p),
                throughput: 0.0,
            });
        }
        println!(
            "{class:<12} {:>7} batches  p50 {:>8.3} ms  p95 {:>8.3} ms  p99 {:>8.3} ms",
            xs.len(),
            percentile(&xs, 50.0),
            percentile(&xs, 95.0),
            percentile(&xs, 99.0)
        );
    }
    records.push(tmm_obs::BenchRecord {
        stage: "serve_overall".into(),
        design: design_name.clone(),
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput: qps,
    });
    let doc = tmm_obs::render_bench_json("serve", &records, &report);
    if let Err(e) = tmm_ckpt::atomic_write_str(&out, &doc) {
        eprintln!("warning: could not write {out}: {e}");
    }
    println!(
        "\n{total} commands over {sessions} sessions in {:.2}s ({qps:.0}/s); \
         {checks} bit-compares, {bad} divergence(s); wrote {out}",
        wall.as_secs_f64()
    );
    if bad > 0 {
        std::process::exit(2);
    }
}

/// Builds one homogeneous batch for `class`, applies the same operations
/// to the mirror, and returns (wire body, expected response per line —
/// `None` marks lines excluded from comparison).
fn build_batch(
    class: &str,
    cs: &mut ClientSession,
    rng: &mut StdRng,
    pin_names: &[String],
    pi_count: usize,
    po_count: usize,
    batch: usize,
) -> (String, Vec<Option<String>>) {
    let sid = cs.sid;
    let mut body = String::new();
    let mut expected = Vec::new();
    match class {
        "query" => {
            for _ in 0..batch {
                let kind = match rng.gen_range(0..4u32) {
                    0 => QueryKind::At,
                    1 => QueryKind::Rat,
                    2 => QueryKind::Slack,
                    _ => QueryKind::Slew,
                };
                let pin = &pin_names[rng.gen_range(0..pin_names.len())];
                body.push_str(&format!("{} {sid} {pin}\n", kind.name()));
                expected.push(Some(format!(
                    "ok {}",
                    format_quad(cs.mirror.query(kind, pin).expect("mirror query"))
                )));
            }
        }
        "reconstrain" => {
            for _ in 0..batch.min(32) {
                match rng.gen_range(0..3u32) {
                    0 if pi_count > 0 => {
                        let idx = rng.gen_range(0..pi_count);
                        let e: f64 = rng.gen_range(0.0..20.0);
                        let l: f64 = e + rng.gen_range(0.0..10.0);
                        let s: f64 = rng.gen_range(5.0..60.0);
                        body.push_str(&format!(
                            "setpi {sid} {idx} {} {} {}\n",
                            format_f64(e),
                            format_f64(l),
                            format_f64(s)
                        ));
                        cs.mirror.set_pi(idx, e, l, s).expect("mirror setpi");
                    }
                    1 if po_count > 0 => {
                        let idx = rng.gen_range(0..po_count);
                        let load: f64 = rng.gen_range(1.0..40.0);
                        body.push_str(&format!("setpoload {sid} {idx} {}\n", format_f64(load)));
                        cs.mirror.set_po_load(idx, load).expect("mirror setpoload");
                    }
                    _ if po_count > 0 => {
                        let idx = rng.gen_range(0..po_count);
                        let e: f64 = rng.gen_range(100.0..900.0);
                        let l: f64 = rng.gen_range(100.0..900.0);
                        body.push_str(&format!(
                            "setporat {sid} {idx} {} {}\n",
                            format_f64(e),
                            format_f64(l)
                        ));
                        cs.mirror.set_po_rat(idx, e, l).expect("mirror setporat");
                    }
                    _ => continue,
                }
                expected.push(Some("ok".to_string()));
            }
        }
        "eco" => {
            // Up to 4 prefix-ordered edits from the session's stream;
            // validity is guaranteed by EcoStream's simulation.
            for _ in 0..4 {
                let Some(edit) = cs.eco.get(cs.eco_cursor) else { break };
                cs.eco_cursor += 1;
                let cmd = tmm_serve::protocol::format_command(
                    &tmm_serve::Command::Eco { sid, edit: edit.clone() },
                );
                body.push_str(&cmd);
                body.push('\n');
                cs.mirror.apply_eco(edit).expect("mirror eco");
                expected.push(Some("ok".to_string()));
            }
        }
        "macroeval" => {
            for _ in 0..8 {
                body.push_str(&format!("macroeval {sid}\n"));
                expected.push(Some(format!(
                    "ok {}",
                    format_f64(cs.mirror.macro_eval().expect("mirror macroeval"))
                )));
            }
        }
        other => panic!("unknown class {other}"),
    }
    (body, expected)
}
