//! Text format for boundary contexts (the role of the contest `.timing`
//! assertion files: PI arrival/slew, PO load/required time, clock spec).

use crate::constraints::{ClockSpec, Context, PiConstraint, PoConstraint};
use crate::io::float_fmt::write_f64_exp;
use crate::io::lexer::Lexer;
use crate::split::Split;
use crate::Result;
use std::fmt::Write as _;

/// Serialises a context to its text format.
#[must_use]
pub fn write_context(ctx: &Context) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "context {{");
    out.push_str("  clock");
    write_fields(
        &mut out,
        &[
            ("period", ctx.clock.period),
            ("latency", ctx.clock.source_latency),
            ("slew", ctx.clock.slew),
        ],
    );
    for (i, pi) in ctx.pi.iter().enumerate() {
        let _ = write!(out, "  pi {i} at");
        write_fields(&mut out, &[("early", pi.at.early), ("late", pi.at.late), ("slew", pi.slew)]);
    }
    for (i, po) in ctx.po.iter().enumerate() {
        let _ = write!(out, "  po {i}");
        write_fields(&mut out, &[("load", po.load), ("rat early", po.rat.early), ("late", po.rat.late)]);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Appends ` <key> <value>...;` and a newline, each value in
/// [`write_f64_exp`]'s text.
fn write_fields(out: &mut String, fields: &[(&str, f64)]) {
    for &(key, v) in fields {
        out.push(' ');
        out.push_str(key);
        out.push(' ');
        write_f64_exp(out, v);
    }
    out.push_str(";\n");
}

/// Parses a context from its text format. Entries may appear in any order;
/// `pi`/`po` indices must be dense starting at 0.
///
/// # Errors
///
/// Returns [`crate::StaError::ParseFormat`] on malformed input or sparse
/// indices.
pub fn parse_context(src: &str) -> Result<Context> {
    let mut lx = Lexer::new(src);
    lx.expect_ident("context")?;
    lx.expect_punct('{')?;
    let mut clock = ClockSpec::default();
    let mut pi: Vec<(usize, PiConstraint)> = Vec::new();
    let mut po: Vec<(usize, PoConstraint)> = Vec::new();
    while !lx.eat_punct('}') {
        match lx.ident()? {
            "clock" => {
                lx.expect_ident("period")?;
                clock.period = lx.number()?;
                lx.expect_ident("latency")?;
                clock.source_latency = lx.number()?;
                lx.expect_ident("slew")?;
                clock.slew = lx.number()?;
                lx.expect_punct(';')?;
            }
            "pi" => {
                let idx: usize = lx.unsigned()?;
                lx.expect_ident("at")?;
                lx.expect_ident("early")?;
                let early = lx.number()?;
                lx.expect_ident("late")?;
                let late = lx.number()?;
                lx.expect_ident("slew")?;
                let slew = lx.number()?;
                lx.expect_punct(';')?;
                pi.push((idx, PiConstraint { at: Split::new(early, late), slew }));
            }
            "po" => {
                let idx: usize = lx.unsigned()?;
                lx.expect_ident("load")?;
                let load = lx.number()?;
                lx.expect_ident("rat")?;
                lx.expect_ident("early")?;
                let early = lx.number()?;
                lx.expect_ident("late")?;
                let late = lx.number()?;
                lx.expect_punct(';')?;
                po.push((idx, PoConstraint { load, rat: Split::new(early, late) }));
            }
            other => return Err(lx.error(format!("unknown context item `{other}`"))),
        }
    }
    pi.sort_by_key(|&(i, _)| i);
    po.sort_by_key(|&(i, _)| i);
    for (want, &(got, _)) in pi.iter().enumerate() {
        if want != got {
            return Err(lx.error(format!("pi indices not dense: missing {want}")));
        }
    }
    for (want, &(got, _)) in po.iter().enumerate() {
        if want != got {
            return Err(lx.error(format!("po indices not dense: missing {want}")));
        }
    }
    Ok(Context {
        pi: pi.into_iter().map(|(_, c)| c).collect(),
        po: po.into_iter().map(|(_, c)| c).collect(),
        clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ContextSampler;
    use crate::graph::{ArcGraph, NodeKind};

    fn graph() -> ArcGraph {
        let mut g = ArcGraph::empty("ctx");
        g.add_node("a", NodeKind::PrimaryInput(0));
        g.add_node("b", NodeKind::PrimaryInput(1));
        g.add_node("z", NodeKind::PrimaryOutput(0));
        g.rebuild_topo().unwrap();
        g
    }

    #[test]
    fn round_trip_is_exact() {
        let g = graph();
        let mut sampler = ContextSampler::new(3);
        for ctx in sampler.sample_many(&g, 10) {
            let back = parse_context(&write_context(&ctx)).unwrap();
            assert_eq!(back, ctx, "context must round-trip bit-exactly");
        }
    }

    #[test]
    fn rejects_sparse_indices() {
        let src = "context { pi 1 at early 0 late 0 slew 5; }";
        let err = parse_context(src).unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn rejects_fractional_and_negative_indices() {
        for bad in ["pi 0.5 at early 0 late 0 slew 5;", "po -1 load 4 rat early 0 late 600;"] {
            let err = parse_context(&format!("context {{\n {bad}\n}}")).unwrap_err();
            assert!(
                matches!(err, crate::StaError::ParseFormat { line: 2, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn rejects_unknown_items() {
        assert!(parse_context("context { bogus 1; }").is_err());
    }

    #[test]
    fn order_independence() {
        let src = "context {\n po 0 load 4 rat early 0 late 600;\n clock period 500 latency 1 slew 10;\n pi 0 at early 1 late 2 slew 20;\n}";
        let ctx = parse_context(src).unwrap();
        assert_eq!(ctx.clock.period, 500.0);
        assert_eq!(ctx.pi[0].at.late, 2.0);
        assert_eq!(ctx.po[0].load, 4.0);
    }
}
