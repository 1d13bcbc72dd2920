//! Every text artifact the pipeline writes — library, netlist, boundary
//! context and macro model — is byte-identical to the same text written
//! with `format!("{v:e}")` for each `f64`, on all six training designs and
//! all eleven Table-2 designs. The oracle writers below are the formats as
//! specified with std's `{:e}`; the program writes its floats with
//! `tmm_sta::io::write_f64_exp` instead. Every number in those artifacts
//! also reads back through `tmm_sta::io::read_f64` to the bits
//! `str::parse` gives.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use timing_macro_gnn::circuits::designs::{eval_suite, suite_library, training_suite};
use timing_macro_gnn::macromodel::{MacroModel, MacroModelOptions};
use timing_macro_gnn::sta::constraints::{Context, ContextSampler};
use timing_macro_gnn::sta::graph::{ArcGraph, ArcTiming, NodeKind};
use timing_macro_gnn::sta::io::{
    read_f64, sense_name, write_context, write_library, write_netlist,
};
use timing_macro_gnn::sta::liberty::{CellClass, Library, Lut2, PinDirection};
use timing_macro_gnn::sta::netlist::Netlist;
use timing_macro_gnn::sta::split::Mode;

fn oracle_lut(out: &mut String, indent: &str, label: &str, lut: &Lut2) {
    let _ = write!(out, "{indent}{label} lut slew [");
    for v in lut.slew_axis() {
        let _ = write!(out, " {v:e}");
    }
    let _ = write!(out, " ] load [");
    for v in lut.load_axis() {
        let _ = write!(out, " {v:e}");
    }
    let _ = write!(out, " ] values [");
    for v in lut.values() {
        let _ = write!(out, " {v:e}");
    }
    let _ = writeln!(out, " ];");
}

fn oracle_library(library: &Library) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "library \"{}\" {{", library.name());
    for t in library.templates() {
        let class = match t.class {
            CellClass::Combinational => "comb",
            CellClass::ClockBuffer => "clock_buffer",
            CellClass::Sequential => "seq",
        };
        let _ = writeln!(out, "  cell \"{}\" class {class} {{", t.name);
        for p in &t.pins {
            let dir = match p.direction {
                PinDirection::Input => "input",
                PinDirection::Output => "output",
                PinDirection::Clock => "clock",
            };
            let _ = writeln!(out, "    pin \"{}\" {dir} cap {:e};", p.name, p.cap);
        }
        if let Some(seq) = &t.sequential {
            let _ = writeln!(
                out,
                "    sequential d {} ck {} q {} setup {:e} hold {:e};",
                seq.d_pin, seq.ck_pin, seq.q_pin, seq.setup, seq.hold
            );
        }
        for arc in &t.arcs {
            let _ = writeln!(
                out,
                "    arc {} -> {} {} {{",
                arc.from_pin,
                arc.to_pin,
                sense_name(arc.sense)
            );
            for mode in Mode::ALL {
                let tab = &arc.tables[mode];
                let _ = writeln!(out, "      corner {mode} {{");
                oracle_lut(&mut out, "        ", "delay rise", &tab.delay.rise);
                oracle_lut(&mut out, "        ", "delay fall", &tab.delay.fall);
                oracle_lut(&mut out, "        ", "slew rise", &tab.slew.rise);
                oracle_lut(&mut out, "        ", "slew fall", &tab.slew.fall);
                let _ = writeln!(out, "      }}");
            }
            let _ = writeln!(out, "    }}");
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

fn oracle_netlist(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "design \"{}\" library \"{}\" {{",
        netlist.name(),
        netlist.library_name()
    );
    for &pi in netlist.primary_inputs() {
        let _ = writeln!(out, "  input \"{}\";", netlist.pin(pi).name);
    }
    if let Some(clk) = netlist.clock_port() {
        let _ = writeln!(out, "  clock \"{}\";", netlist.pin(clk).name);
    }
    for &po in netlist.primary_outputs() {
        let _ = writeln!(out, "  output \"{}\";", netlist.pin(po).name);
    }
    for cell in netlist.cells() {
        let _ = writeln!(out, "  cell \"{}\" template {};", cell.name, cell.template);
    }
    for net in netlist.nets() {
        let _ = write!(
            out,
            "  net \"{}\" driver \"{}\" sinks [",
            net.name,
            netlist.pin(net.driver).name
        );
        for &s in &net.sinks {
            let _ = write!(out, " \"{}\"", netlist.pin(s).name);
        }
        let _ = write!(out, " ] wire_cap {:e} sink_delays [", net.parasitics.wire_cap);
        for d in &net.parasitics.sink_delays {
            let _ = write!(out, " {d:e}");
        }
        let _ = writeln!(out, " ] degrade {:e};", net.parasitics.slew_degrade);
    }
    let _ = writeln!(out, "}}");
    out
}

fn oracle_context(ctx: &Context) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "context {{");
    let _ = writeln!(
        out,
        "  clock period {:e} latency {:e} slew {:e};",
        ctx.clock.period, ctx.clock.source_latency, ctx.clock.slew
    );
    for (i, pi) in ctx.pi.iter().enumerate() {
        let _ = writeln!(
            out,
            "  pi {i} at early {:e} late {:e} slew {:e};",
            pi.at.early, pi.at.late, pi.slew
        );
    }
    for (i, po) in ctx.po.iter().enumerate() {
        let _ = writeln!(
            out,
            "  po {i} load {:e} rat early {:e} late {:e};",
            po.load, po.rat.early, po.rat.late
        );
    }
    let _ = writeln!(out, "}}");
    out
}

fn oracle_model(model: &MacroModel) -> String {
    let mut out = String::new();
    let g = model.graph();
    let _ = writeln!(out, "macro_model \"{}\" {{", model.name());
    for (i, node) in g.nodes().iter().enumerate() {
        if node.dead {
            continue;
        }
        let kind = match node.kind {
            NodeKind::PrimaryInput(p) => format!("pi {p}"),
            NodeKind::PrimaryOutput(p) => format!("po {p}"),
            NodeKind::ClockSource => "clock_source".to_string(),
            NodeKind::FfData(_) => "ff_d".to_string(),
            NodeKind::FfClock => "ff_ck".to_string(),
            NodeKind::FfOutput => "ff_q".to_string(),
            NodeKind::Internal => "internal".to_string(),
        };
        let _ = write!(
            out,
            "  pin {i} \"{}\" {kind} load {:e} clock {} po_loads [",
            node.name,
            node.base_load,
            u8::from(node.is_clock_network)
        );
        for p in &node.po_loads {
            let _ = write!(out, " {p}");
        }
        let _ = writeln!(out, " ];");
    }
    for check in g.checks() {
        if g.node(check.d).dead || g.node(check.ck).dead {
            continue;
        }
        let q = if g.node(check.q).dead { "none".to_string() } else { check.q.0.to_string() };
        let _ = writeln!(
            out,
            "  check \"{}\" d {} ck {} q {q} setup {:e} hold {:e};",
            check.name, check.d.0, check.ck.0, check.setup, check.hold
        );
    }
    for arc in g.arcs() {
        if arc.dead {
            continue;
        }
        let clock_flag = u8::from(arc.is_clock);
        match &arc.timing {
            ArcTiming::Wire { delay, degrade } => {
                let _ = writeln!(
                    out,
                    "  wire {} -> {} delay {delay:e} degrade {degrade:e} clock {clock_flag};",
                    arc.from.0, arc.to.0
                );
            }
            ArcTiming::Table(t) | ArcTiming::Composed(t) => {
                let composed = matches!(arc.timing, ArcTiming::Composed(_));
                let _ = writeln!(
                    out,
                    "  arc {} -> {} {} {} clock {clock_flag} {{",
                    arc.from.0,
                    arc.to.0,
                    sense_name(arc.sense),
                    if composed { "composed" } else { "table" },
                );
                for mode in Mode::ALL {
                    let _ = writeln!(out, "    corner {mode} {{");
                    oracle_lut(&mut out, "      ", "delay rise", &t[mode].delay.rise);
                    oracle_lut(&mut out, "      ", "delay fall", &t[mode].delay.fall);
                    oracle_lut(&mut out, "      ", "slew rise", &t[mode].slew.rise);
                    oracle_lut(&mut out, "      ", "slew fall", &t[mode].slew.fall);
                    let _ = writeln!(out, "    }}");
                }
                let _ = writeln!(out, "  }}");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[test]
fn every_suite_artifact_is_byte_identical_to_std_exp_text() {
    let lib = suite_library();
    assert!(write_library(&lib) == oracle_library(&lib), "library text differs");
    let mut designs = training_suite(&lib).unwrap();
    designs.extend(eval_suite(&lib).unwrap());
    assert_eq!(designs.len(), 17);
    for (i, d) in designs.iter().enumerate() {
        assert!(write_netlist(&d.netlist) == oracle_netlist(&d.netlist), "{}: netlist", d.name);
        let flat = ArcGraph::from_netlist(&d.netlist, &lib).unwrap();
        let ctx = ContextSampler::new(i as u64).sample(&flat);
        assert!(write_context(&ctx) == oracle_context(&ctx), "{}: context", d.name);
        // Every third pin kept: the model holds table, composed and wire
        // arcs, checks and port loads.
        let keep: Vec<bool> = (0..flat.node_count()).map(|n| n % 3 == 0).collect();
        let model = MacroModel::generate(&flat, &keep, &MacroModelOptions::default()).unwrap();
        let text = model.serialize();
        assert!(text.contains(" composed clock "), "{}: no composed arc", d.name);
        assert!(text == oracle_model(&model), "{}: macro model", d.name);
    }
}

/// Checks every number token of `text` (a digit not preceded by an
/// identifier character, with its sign) against `str::parse`, and
/// returns how many there were.
fn check_numbers(text: &str, what: &str) -> usize {
    let bytes = text.as_bytes();
    let mut count = 0;
    let mut i = 0;
    while i < bytes.len() {
        let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
        let starts = bytes[i].is_ascii_digit()
            || (bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        if !starts || (i > 0 && word(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let (value, len) = read_f64(&text[i..]);
        let token = &text[i..i + len];
        let want = token.parse::<f64>().expect("writers print valid numbers");
        assert_eq!(value.map(f64::to_bits), Some(want.to_bits()), "{what}: `{token}`");
        count += 1;
        i += len;
    }
    count
}

#[test]
fn every_suite_number_reads_as_std() {
    let lib = suite_library();
    let mut count = check_numbers(&write_library(&lib), "library");
    let mut designs = training_suite(&lib).unwrap();
    designs.extend(eval_suite(&lib).unwrap());
    for (i, d) in designs.iter().enumerate() {
        count += check_numbers(&write_netlist(&d.netlist), &d.name);
        let flat = ArcGraph::from_netlist(&d.netlist, &lib).unwrap();
        let ctx = ContextSampler::new(i as u64).sample(&flat);
        count += check_numbers(&write_context(&ctx), &d.name);
        let keep: Vec<bool> = (0..flat.node_count()).map(|n| n % 3 == 0).collect();
        let model = MacroModel::generate(&flat, &keep, &MacroModelOptions::default()).unwrap();
        count += check_numbers(&model.serialize(), &d.name);
    }
    assert!(count > 1_000_000, "only {count} numbers checked");
}
