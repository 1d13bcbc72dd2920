//! Structural text format for netlists (the Verilog + SPEF role of the
//! contest inputs).
//!
//! Pins are referenced as `"<port>"` or `"<instance>/<pin>"`. Parsing
//! rebuilds the netlist through [`NetlistBuilder`], so every structural
//! validation (drivers, double connections, floating pins) applies to
//! loaded files too.

use crate::io::float_fmt::{write_f64_exp, write_f64_list};
use crate::io::lexer::Lexer;
use crate::liberty::Library;
use crate::netlist::{Netlist, NetlistBuilder, PinId, PortKind};
use crate::parasitics::NetParasitics;
use crate::Result;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serialises a netlist to its text format.
#[must_use]
pub fn write_netlist(netlist: &Netlist) -> String {
    let mut out = String::with_capacity(64 * 1024);
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
        // The template name is recovered through the library at parse time;
        // store the index-independent name by looking at any pin path.
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
        out.push_str(" ] wire_cap ");
        write_f64_exp(&mut out, net.parasitics.wire_cap);
        out.push_str(" sink_delays [");
        write_f64_list(&mut out, &net.parasitics.sink_delays);
        out.push_str(" ] degrade ");
        write_f64_exp(&mut out, net.parasitics.slew_degrade);
        out.push_str(";\n");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Parses a netlist from its text format against `library` (which must be
/// the library the netlist was written with; template indices are stored).
///
/// # Errors
///
/// Returns [`crate::StaError::ParseFormat`] on malformed input and any
/// structural error [`NetlistBuilder`] reports.
pub fn parse_netlist(src: &str, library: &Library) -> Result<Netlist> {
    let mut lx = Lexer::new(src);
    lx.expect_ident("design")?;
    let name = lx.string()?;
    lx.expect_ident("library")?;
    let lib_name = lx.string()?;
    if lib_name != library.name() {
        return Err(lx.error(format!(
            "netlist was written against library `{lib_name}`, got `{}`",
            library.name()
        )));
    }
    lx.expect_punct('{')?;
    let mut builder = NetlistBuilder::new(name, library);
    // Pin references by full name.
    let mut pin_by_name: HashMap<String, PinId> = HashMap::new();
    while !lx.eat_punct('}') {
        match lx.ident()? {
            "input" => {
                let pname = lx.string()?;
                let id = builder.input(pname)?;
                pin_by_name.insert(pname.to_owned(), id);
                lx.expect_punct(';')?;
            }
            "clock" => {
                let pname = lx.string()?;
                let id = builder.clock_input(pname)?;
                pin_by_name.insert(pname.to_owned(), id);
                lx.expect_punct(';')?;
            }
            "output" => {
                let pname = lx.string()?;
                let id = builder.output(pname)?;
                pin_by_name.insert(pname.to_owned(), id);
                lx.expect_punct(';')?;
            }
            "cell" => {
                let inst = lx.string()?;
                lx.expect_ident("template")?;
                let tidx: usize = lx.unsigned()?;
                lx.expect_punct(';')?;
                if tidx >= library.templates().len() {
                    return Err(lx.error(format!("template index {tidx} out of range")));
                }
                let template = &library.templates()[tidx];
                let cell = builder.cell(inst, &template.name)?;
                for spec in &template.pins {
                    let id = builder.pin_of(cell, &spec.name)?;
                    pin_by_name.insert(format!("{inst}/{}", spec.name), id);
                }
            }
            "net" => {
                let nname = lx.string()?;
                lx.expect_ident("driver")?;
                let dname = lx.string()?;
                lx.expect_ident("sinks")?;
                let snames = lx.string_list()?;
                lx.expect_ident("wire_cap")?;
                let wire_cap = lx.number()?;
                lx.expect_ident("sink_delays")?;
                let mut sink_delays = Vec::new();
                lx.number_list_into(&mut sink_delays)?;
                lx.expect_ident("degrade")?;
                let degrade = lx.number()?;
                lx.expect_punct(';')?;
                let resolve = |n: &str, lx: &Lexer<'_>| {
                    pin_by_name
                        .get(n)
                        .copied()
                        .ok_or_else(|| lx.error(format!("unknown pin `{n}`")))
                };
                let driver = resolve(dname, &lx)?;
                let sinks: Vec<PinId> =
                    snames.iter().map(|s| resolve(s, &lx)).collect::<Result<_>>()?;
                builder.connect_with(
                    nname,
                    driver,
                    &sinks,
                    NetParasitics { wire_cap, sink_delays, slew_degrade: degrade },
                )?;
            }
            other => return Err(lx.error(format!("unknown design item `{other}`"))),
        }
    }
    lx.expect_end("design")?;
    builder.finish()
}

/// Returns `true` when a pin name refers to a boundary port of `netlist`
/// (helper for tools reading pin references from files).
#[must_use]
pub fn is_port_reference(netlist: &Netlist, name: &str) -> bool {
    netlist
        .pins()
        .iter()
        .any(|p| p.name == name && matches!(p.port, Some(PortKind::Input | PortKind::Output | PortKind::Clock)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ArcGraph;
    use crate::constraints::Context;
    use crate::propagate::Analysis;

    fn sample() -> (Netlist, Library) {
        let lib = Library::synthetic(8);
        let mut b = NetlistBuilder::new("rt", &lib);
        let clk = b.clock_input("clk").unwrap();
        let a = b.input("a").unwrap();
        let z = b.output("z").unwrap();
        let inv = b.cell("inv", "INVX1").unwrap();
        let ff = b.cell("ff", "DFFX1").unwrap();
        let cb = b.cell("cb", "CLKBUFX2").unwrap();
        b.connect("n_clk", clk, &[b.pin_of(cb, "A").unwrap()]).unwrap();
        b.connect("n_ck", b.pin_of(cb, "Z").unwrap(), &[b.pin_of(ff, "CK").unwrap()]).unwrap();
        b.connect("n_a", a, &[b.pin_of(ff, "D").unwrap()]).unwrap();
        b.connect("n_q", b.pin_of(ff, "Q").unwrap(), &[b.pin_of(inv, "A").unwrap()]).unwrap();
        b.connect_with(
            "n_z",
            b.pin_of(inv, "Z").unwrap(),
            &[z],
            NetParasitics { wire_cap: 1.25, sink_delays: vec![0.5], slew_degrade: 1.01 },
        )
        .unwrap();
        (b.finish().unwrap(), lib)
    }

    #[test]
    fn round_trip_preserves_structure_and_timing() {
        let (netlist, lib) = sample();
        let text = write_netlist(&netlist);
        let back = parse_netlist(&text, &lib).unwrap();
        assert_eq!(back.stats(), netlist.stats());
        assert_eq!(back.name(), netlist.name());
        // Timing must be identical, not just structure.
        let g1 = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let g2 = ArcGraph::from_netlist(&back, &lib).unwrap();
        let ctx = Context::nominal(&g1);
        let a1 = Analysis::run(&g1, &ctx).unwrap();
        let a2 = Analysis::run(&g2, &ctx).unwrap();
        let d = a1.boundary().diff(a2.boundary());
        assert_eq!(d.max, 0.0, "round trip must be timing-exact");
        assert!(d.count > 0);
    }

    #[test]
    fn generated_designs_round_trip() {
        // The full generator output must survive the format.
        let lib = Library::synthetic(8);
        let netlist = {
            use tmm_circuits_shim::generate;
            generate(&lib)
        };
        let text = write_netlist(&netlist);
        let back = parse_netlist(&text, &lib).unwrap();
        assert_eq!(back.stats(), netlist.stats());
    }

    /// Local miniature generator to avoid a circular dev-dependency on
    /// tmm-circuits.
    mod tmm_circuits_shim {
        use super::super::*;
        pub fn generate(lib: &Library) -> Netlist {
            let mut b = NetlistBuilder::new("gen", lib);
            let a = b.input("a").unwrap();
            let bb = b.input("b").unwrap();
            let z = b.output("z").unwrap();
            let g1 = b.cell("g1", "NAND2X1").unwrap();
            let g2 = b.cell("g2", "XOR2X1").unwrap();
            b.connect("n0", a, &[b.pin_of(g1, "A").unwrap(), b.pin_of(g2, "A").unwrap()])
                .unwrap();
            b.connect("n1", bb, &[b.pin_of(g1, "B").unwrap()]).unwrap();
            b.connect("n2", b.pin_of(g1, "Z").unwrap(), &[b.pin_of(g2, "B").unwrap()])
                .unwrap();
            b.connect("n3", b.pin_of(g2, "Z").unwrap(), &[z]).unwrap();
            b.finish().unwrap()
        }
    }

    #[test]
    fn rejects_wrong_library() {
        let (netlist, _) = sample();
        let other = Library::synthetic(9999);
        let text = write_netlist(&netlist);
        // same name (both synthetic libs share a name), so forge one
        let forged = text.replace("tmm_synth_045", "other_lib");
        assert!(parse_netlist(&forged, &other).is_err());
    }

    #[test]
    fn rejects_unknown_pin_reference() {
        let (_, lib) = sample();
        let src = r#"design "x" library "tmm_synth_045" {
            input "a";
            net "n" driver "ghost" sinks [ ] wire_cap 0.0 sink_delays [ ] degrade 1.0;
        }"#;
        let err = parse_netlist(src, &lib).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn rejects_fractional_template_index() {
        let (netlist, lib) = sample();
        let text = write_netlist(&netlist);
        let at = text.find(" template ").unwrap();
        let line = text[..at].lines().count();
        let end = at + text[at..].find(';').unwrap();
        let forged = format!("{}.5{}", &text[..end], &text[end..]);
        match parse_netlist(&forged, &lib).unwrap_err() {
            crate::StaError::ParseFormat { line: got, message } => {
                assert_eq!(got, line);
                assert!(message.contains("integer"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn port_reference_helper() {
        let (netlist, _) = sample();
        assert!(is_port_reference(&netlist, "a"));
        assert!(is_port_reference(&netlist, "clk"));
        assert!(!is_port_reference(&netlist, "inv/A"));
        assert!(!is_port_reference(&netlist, "nope"));
    }
}
