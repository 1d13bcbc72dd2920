//! Liberty-style text format for cell libraries.
//!
//! Stores every template with its pins, sequential data, and all eight NLDM
//! tables per arc (2 corners × delay/slew × rise/fall). The writer emits
//! full `f64` precision (`{:e}` scientific notation), so
//! `parse_library(&write_library(lib))` reproduces the library exactly.

use crate::io::lexer::Lexer;
use crate::liberty::{
    ArcTables, CellClass, CellTemplate, Library, Lut2, PinDirection, PinSpec, SequentialSpec,
    TimingArc, TimingSense,
};
use crate::split::{Mode, Split, TransPair};
use crate::Result;
use std::fmt::Write as _;
use std::sync::Arc;

/// Writes one `<label> lut slew [..] load [..] values [..];` block. Public
/// so the macro-model format can share the exact same table encoding.
pub fn write_lut(out: &mut String, indent: &str, label: &str, lut: &Lut2) {
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

/// Keyword for a timing sense (shared with the macro-model format).
#[must_use]
pub fn sense_name(sense: TimingSense) -> &'static str {
    match sense {
        TimingSense::PositiveUnate => "positive_unate",
        TimingSense::NegativeUnate => "negative_unate",
        TimingSense::NonUnate => "non_unate",
    }
}

/// Serialises a library to its text format.
#[must_use]
pub fn write_library(library: &Library) -> String {
    let mut out = String::with_capacity(256 * 1024);
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
                write_lut(&mut out, "        ", "delay rise", &tab.delay.rise);
                write_lut(&mut out, "        ", "delay fall", &tab.delay.fall);
                write_lut(&mut out, "        ", "slew rise", &tab.slew.rise);
                write_lut(&mut out, "        ", "slew fall", &tab.slew.fall);
                let _ = writeln!(out, "      }}");
            }
            let _ = writeln!(out, "    }}");
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Parses one table block written by [`write_lut`] (after its label).
///
/// # Errors
///
/// Returns [`crate::StaError::ParseFormat`] on malformed input.
pub fn parse_lut(lx: &mut Lexer<'_>) -> Result<Lut2> {
    lx.expect_ident("lut")?;
    lx.expect_ident("slew")?;
    let slew = lx.number_list()?;
    lx.expect_ident("load")?;
    let load = lx.number_list()?;
    lx.expect_ident("values")?;
    // The body holds slew × load values: reserving them up front saves the
    // growth reallocations, a visible share of model parse time. The cap
    // keeps a malformed axis from requesting a huge allocation.
    let mut values = Vec::with_capacity(slew.len().saturating_mul(load.len()).min(4096));
    lx.expect_punct('[')?;
    while !lx.eat_punct(']') {
        values.push(lx.number()?);
    }
    lx.expect_punct(';')?;
    Lut2::new(slew, load, values)
}

/// Parses one `{ delay/slew rise/fall lut ...; }` corner block.
///
/// # Errors
///
/// Returns [`crate::StaError::ParseFormat`] on malformed input or missing tables.
pub fn parse_corner(lx: &mut Lexer<'_>) -> Result<ArcTables> {
    lx.expect_punct('{')?;
    let mut delay_rise = None;
    let mut delay_fall = None;
    let mut slew_rise = None;
    let mut slew_fall = None;
    while !lx.eat_punct('}') {
        let kind = lx.ident()?;
        let edge = lx.ident()?;
        let lut = parse_lut(lx)?;
        match (kind, edge) {
            ("delay", "rise") => delay_rise = Some(lut),
            ("delay", "fall") => delay_fall = Some(lut),
            ("slew", "rise") => slew_rise = Some(lut),
            ("slew", "fall") => slew_fall = Some(lut),
            _ => return Err(lx.error(format!("unknown table `{kind} {edge}`"))),
        }
    }
    let missing = || lx.error("corner missing a table");
    Ok(ArcTables {
        delay: TransPair::new(delay_rise.ok_or_else(missing)?, delay_fall.ok_or_else(missing)?),
        slew: TransPair::new(slew_rise.ok_or_else(missing)?, slew_fall.ok_or_else(missing)?),
    })
}

fn parse_cell(lx: &mut Lexer<'_>) -> Result<CellTemplate> {
    let name = lx.string()?.to_owned();
    lx.expect_ident("class")?;
    let class = match lx.ident()? {
        "comb" => CellClass::Combinational,
        "clock_buffer" => CellClass::ClockBuffer,
        "seq" => CellClass::Sequential,
        other => return Err(lx.error(format!("unknown cell class `{other}`"))),
    };
    lx.expect_punct('{')?;
    let mut pins = Vec::new();
    let mut arcs = Vec::new();
    let mut sequential = None;
    while !lx.eat_punct('}') {
        match lx.ident()? {
            "pin" => {
                let pname = lx.string()?.to_owned();
                let direction = match lx.ident()? {
                    "input" => PinDirection::Input,
                    "output" => PinDirection::Output,
                    "clock" => PinDirection::Clock,
                    other => return Err(lx.error(format!("unknown direction `{other}`"))),
                };
                lx.expect_ident("cap")?;
                let cap = lx.number()?;
                lx.expect_punct(';')?;
                pins.push(PinSpec { name: pname, direction, cap });
            }
            "sequential" => {
                lx.expect_ident("d")?;
                let d_pin = lx.unsigned()?;
                lx.expect_ident("ck")?;
                let ck_pin = lx.unsigned()?;
                lx.expect_ident("q")?;
                let q_pin = lx.unsigned()?;
                lx.expect_ident("setup")?;
                let setup = lx.number()?;
                lx.expect_ident("hold")?;
                let hold = lx.number()?;
                lx.expect_punct(';')?;
                sequential = Some(SequentialSpec { d_pin, ck_pin, q_pin, setup, hold });
            }
            "arc" => {
                let from_pin = lx.unsigned()?;
                lx.expect_punct('-')?;
                lx.expect_punct('>')?;
                let to_pin = lx.unsigned()?;
                let sense = parse_sense(lx)?;
                lx.expect_punct('{')?;
                let mut early = None;
                let mut late = None;
                while !lx.eat_punct('}') {
                    lx.expect_ident("corner")?;
                    match lx.ident()? {
                        "early" => early = Some(parse_corner(lx)?),
                        "late" => late = Some(parse_corner(lx)?),
                        other => return Err(lx.error(format!("unknown corner `{other}`"))),
                    }
                }
                let early = early.ok_or_else(|| lx.error("arc missing early corner"))?;
                let late = late.ok_or_else(|| lx.error("arc missing late corner"))?;
                arcs.push(TimingArc {
                    from_pin,
                    to_pin,
                    sense,
                    tables: Split::new(Arc::new(early), Arc::new(late)),
                });
            }
            other => return Err(lx.error(format!("unknown cell item `{other}`"))),
        }
    }
    Ok(CellTemplate { name, class, pins, arcs, sequential })
}

/// Parses a timing-sense keyword (shared with the macro-model format).
///
/// # Errors
///
/// Returns [`crate::StaError::ParseFormat`] on an unknown keyword.
pub fn parse_sense(lx: &mut Lexer<'_>) -> Result<TimingSense> {
    match lx.ident()? {
        "positive_unate" => Ok(TimingSense::PositiveUnate),
        "negative_unate" => Ok(TimingSense::NegativeUnate),
        "non_unate" => Ok(TimingSense::NonUnate),
        other => Err(lx.error(format!("unknown sense `{other}`"))),
    }
}

/// Parses a library from its text format.
///
/// # Errors
///
/// Returns [`crate::StaError::ParseFormat`] with a line number on malformed input,
/// or table-validation errors from [`Lut2::new`].
pub fn parse_library(src: &str) -> Result<Library> {
    let mut lx = Lexer::new(src);
    lx.expect_ident("library")?;
    let name = lx.string()?;
    lx.expect_punct('{')?;
    let mut library = Library::empty(name);
    while !lx.eat_punct('}') {
        lx.expect_ident("cell")?;
        let cell = parse_cell(&mut lx)?;
        library.add_template(cell)?;
    }
    lx.expect_end("library")?;
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::Edge;
    use crate::StaError;

    #[test]
    fn round_trip_preserves_everything() {
        let lib = Library::synthetic(17);
        let text = write_library(&lib);
        let back = parse_library(&text).unwrap();
        assert_eq!(back.name(), lib.name());
        assert_eq!(back.templates().len(), lib.templates().len());
        for (a, b) in lib.templates().iter().zip(back.templates()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.class, b.class);
            assert_eq!(a.pins.len(), b.pins.len());
            for (pa, pb) in a.pins.iter().zip(&b.pins) {
                assert_eq!(pa.name, pb.name);
                assert_eq!(pa.direction, pb.direction);
                assert_eq!(pa.cap, pb.cap, "cap must round-trip exactly");
            }
            assert_eq!(a.sequential.is_some(), b.sequential.is_some());
            if let (Some(sa), Some(sb)) = (&a.sequential, &b.sequential) {
                assert_eq!(sa.setup, sb.setup);
                assert_eq!(sa.hold, sb.hold);
            }
            assert_eq!(a.arcs.len(), b.arcs.len());
            for (aa, ab) in a.arcs.iter().zip(&b.arcs) {
                assert_eq!(aa.sense, ab.sense);
                for mode in Mode::ALL {
                    for edge in Edge::ALL {
                        assert_eq!(
                            aa.tables[mode].delay[edge].values(),
                            ab.tables[mode].delay[edge].values(),
                            "table bodies must round-trip exactly"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_library("library \"x\" {\n  cell \"a\" class nonsense {}\n}")
            .unwrap_err();
        match err {
            StaError::ParseFormat { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("nonsense"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn corner_missing_a_table_reports_its_line() {
        let src = "{\n  delay rise lut slew [ 1 2 ] load [ 1 2 ] values [ 1 2 3 4 ];\n}\nnext";
        match parse_corner(&mut Lexer::new(src)).unwrap_err() {
            StaError::ParseFormat { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("missing a table"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_fractional_pin_indices() {
        let text = write_library(&Library::synthetic(1)).replacen(" -> ", ".5 -> ", 1);
        assert!(matches!(parse_library(&text), Err(StaError::ParseFormat { .. })));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let lib = Library::synthetic(1);
        let mut text = write_library(&lib);
        text.push_str("\nextra");
        assert!(parse_library(&text).is_err());
    }

    #[test]
    fn empty_library_round_trips() {
        let lib = Library::empty("void");
        let text = write_library(&lib);
        let back = parse_library(&text).unwrap();
        assert_eq!(back.name(), "void");
        assert!(back.templates().is_empty());
    }
}
