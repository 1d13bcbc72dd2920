//! `ServeEngine::submit_lines` answers a body byte for byte as parsing
//! every trimmed, non-blank line with `parse_command` and running the
//! parsed commands through `ServeEngine::submit` does (parse errors in
//! their line's slot), at every worker count.
//!
//! The script is hostile on purpose: blank and whitespace-only lines,
//! `\r\n` endings, Unicode whitespace (U+00A0, U+3000) between and around
//! tokens, unknown verbs, trailing tokens, malformed floats and integers,
//! unknown sessions and pins, and `open`/`ping`/`close` interleaved with
//! session commands, shuffled into many orders.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use tmm_circuits::CircuitSpec;
use tmm_serve::{parse_command, DesignEntry, DesignPool, EngineOptions, ServeEngine};
use tmm_sta::constraints::Context;
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::propagate::AnalysisOptions;
use tmm_sta::view::TimingGraph;

fn pool() -> (Arc<DesignPool>, Vec<String>) {
    let lib = Library::synthetic(7);
    let netlist = CircuitSpec::sized("bytes", 300).seed(5).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let pins = graph.topo_order().iter().map(|&n| graph.node_name(n).to_string()).collect();
    let entry =
        DesignEntry::new(&graph, Context::nominal(&graph), AnalysisOptions::default(), None);
    let mut pool = DesignPool::new();
    pool.insert(entry);
    (Arc::new(pool), pins)
}

fn hostile_lines(pins: &[String]) -> Vec<String> {
    let (p0, p1, p2) = (&pins[3], &pins[pins.len() / 2], &pins[pins.len() - 1]);
    [
        "".to_string(),
        " \t  ".to_string(),
        "\u{a0}\u{3000}".to_string(),
        "open bytes\r".to_string(),
        "open bytes".to_string(),
        "open nope".to_string(),
        "\topen bytes  ".to_string(),
        "open".to_string(),
        "open bytes extra".to_string(),
        "ping".to_string(),
        "ping extra".to_string(),
        format!("slack 1 {p0}\r"),
        format!("at\u{a0}2\u{3000}{p1}"),
        format!("\u{3000}rat 4 {p2}\u{a0}"),
        format!("slew 1 {p0} trailing"),
        "frobnicate 1".to_string(),
        format!("slack x {p0}"),
        format!("slack -1 {p0}"),
        format!("slack 18446744073709551616 {p0}"),
        format!("slack 99 {p0}"),
        "slack 1 no_such_pin".to_string(),
        "slack 2".to_string(),
        "setpi 1 0 1.5 0x4008000000000000 0xzz".to_string(),
        "setpi 2 0 1.5 abc 3".to_string(),
        "setpi 2 0 1.5 2.5 9".to_string(),
        "setpi 4 0 0x3ff8000000000000 0x4004000000000000 0x4022000000000000".to_string(),
        "setpoload 4 0 17.25".to_string(),
        "setporat 1 99999 1 2".to_string(),
        "setporat 1 0 -4 880".to_string(),
        "eco 2 warp 5 1.0".to_string(),
        "eco 2 resize 7".to_string(),
        "eco 2 delete -3".to_string(),
        "macroeval 1".to_string(),
        format!("slack 4 {p1}"),
        "close 2".to_string(),
        format!("slack 2 {p0}"),
        "close 2".to_string(),
        "close".to_string(),
        "open bytes".to_string(),
        format!("slack 5 {p2}"),
        format!("at 3 {p1}"),
    ]
    .to_vec()
}

/// The reply `submit_lines` must give: `parse_command` per line, one
/// `submit` of the commands that parsed, errors in their slots.
fn reference(engine: &ServeEngine, body: &str) -> String {
    let lines: Vec<&str> = body.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    let mut out: Vec<String> = vec![String::new(); lines.len()];
    let mut cmds = Vec::new();
    let mut slots = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match parse_command(line) {
            Ok(cmd) => {
                slots.push(i);
                cmds.push(cmd);
            }
            Err(e) => out[i] = format!("err {e}"),
        }
    }
    for (slot, reply) in slots.into_iter().zip(engine.submit(cmds)) {
        out[slot] = reply;
    }
    out.into_iter().map(|l| l + "\n").collect()
}

#[test]
fn submit_lines_equals_parse_then_submit_on_a_hostile_script() {
    let (pool, pins) = pool();
    let lines = hostile_lines(&pins);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for round in 0..12 {
        let mut order: Vec<&String> = lines.iter().collect();
        if round > 0 {
            for i in (1..order.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        // Newline-terminated, and (every other round) a last line without one.
        let mut body: String = order.iter().map(|l| format!("{l}\n")).collect();
        if round % 2 == 1 {
            body.pop();
        }
        for workers in 1..=4 {
            if round == 0 {
                // No line reaches a shard: every reply is written inline.
                let engine = ServeEngine::new(Arc::clone(&pool), EngineOptions { workers });
                assert_eq!(engine.submit_lines(""), "");
                assert_eq!(engine.submit_lines(" \r\n\n"), "");
                let inline = "ping\r\nbogus 1\n\nping";
                assert_eq!(engine.submit_lines(inline), reference(&engine, inline));
                assert_eq!(engine.submit_lines(inline), "ok\nerr unknown command `bogus`\nok\n");
            }
            let reference_engine = ServeEngine::new(Arc::clone(&pool), EngineOptions { workers });
            let engine = ServeEngine::new(Arc::clone(&pool), EngineOptions { workers });
            // Twice: the second pass runs against the sessions the first opened.
            for pass in 0..2 {
                let want = reference(&reference_engine, &body);
                let got = engine.submit_lines(&body);
                assert_eq!(got, want, "round {round}, workers {workers}, pass {pass}");
                if round == 0 && pass == 0 {
                    let replies: Vec<&str> = got.lines().collect();
                    assert_eq!(replies[0], "ok 1");
                    assert_eq!(replies[3], "ok 4");
                    // Tokens split at U+00A0/U+3000: answered, not refused.
                    assert!(replies[9].starts_with("ok 0x"), "{}", replies[9]);
                    assert!(replies[10].starts_with("ok 0x"), "{}", replies[10]);
                }
            }
        }
    }
}
