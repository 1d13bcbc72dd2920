//! Self-contained repro artifacts (`.repro.ron`).
//!
//! A repro records everything needed to re-run one confirmed divergence
//! years later with no access to the sweep that found it: the check name,
//! the shrunk generator parameter vector, the fault injection (if any),
//! and — for human inspection and as a tamper check — the full netlist
//! text of the shrunk design. The format is a small, stable RON-like
//! dialect written and parsed by hand (the container carries no serde);
//! [`Repro::replay`] re-generates the design from its parameters, verifies
//! the embedded netlist still matches, and re-runs the named check.

use crate::checks::{run_named, CheckOptions, CHECK_NAMES};
use crate::design::{graph_fault_by_name, DiffDesign};
use tmm_circuits::SpecParams;
use tmm_sta::io::{parse_netlist, write_netlist};
use tmm_sta::liberty::Library;

/// Schema tag written into (and required from) every artifact.
pub const SCHEMA: &str = "tmm-repro/v1";

/// One divergence, reduced and packaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Which differential check fired ([`crate::checks::CHECK_NAMES`]).
    pub check: String,
    /// Design display name.
    pub design: String,
    /// Synthetic-library seed the design was generated against.
    pub library: u64,
    /// Sweep seed that discovered the failure (provenance only).
    pub sweep_seed: u64,
    /// Injected fault, as `(operator name, fault seed)`; `None` for an
    /// organic divergence.
    pub inject: Option<(String, u64)>,
    /// Shrunk generator parameter vector.
    pub params: SpecParams,
    /// Cell count of the shrunk design.
    pub cells: usize,
    /// Divergence detail as reported by the check.
    pub detail: String,
    /// Netlist text of the shrunk (clean) design.
    pub netlist: String,
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '\\' => vec!['\\', '\\'],
            '"' => vec!['\\', '"'],
            '\n' => vec!['\\', 'n'],
            other => vec![other],
        })
        .collect()
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

impl Repro {
    /// Renders the artifact text.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "(");
        let _ = writeln!(out, "    schema: \"{SCHEMA}\",");
        let _ = writeln!(out, "    check: \"{}\",", self.check);
        let _ = writeln!(out, "    design: \"{}\",", self.design);
        let _ = writeln!(out, "    library: {},", self.library);
        let _ = writeln!(out, "    sweep_seed: {},", self.sweep_seed);
        match &self.inject {
            Some((op, seed)) => {
                let _ = writeln!(out, "    inject: (\"{op}\", {seed}),");
            }
            None => {
                let _ = writeln!(out, "    inject: none,");
            }
        }
        let _ = writeln!(out, "    params: (");
        for (name, value, _) in self.params.dims() {
            let _ = writeln!(out, "        {name}: {value},");
        }
        let _ = writeln!(out, "        seed: {},", self.params.seed);
        let _ = writeln!(out, "    ),");
        let _ = writeln!(out, "    cells: {},", self.cells);
        let _ = writeln!(out, "    detail: \"{}\",", escape(&self.detail));
        let _ = writeln!(out, "    netlist: r#\"");
        out.push_str(&self.netlist);
        if !self.netlist.ends_with('\n') {
            out.push('\n');
        }
        let _ = writeln!(out, "\"#,");
        let _ = writeln!(out, ")");
        out
    }

    /// Parses an artifact rendered by [`Repro::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(src: &str) -> Result<Repro, String> {
        fn str_field(src: &str, key: &str) -> Result<String, String> {
            let tag = format!("{key}: \"");
            let start = src.find(&tag).ok_or_else(|| format!("missing field '{key}'"))?
                + tag.len();
            let rest = &src[start..];
            // Scan to the first unescaped quote.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in rest.char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => {
                        end = Some(i);
                        break;
                    }
                    _ => escaped = false,
                }
            }
            let end = end.ok_or_else(|| format!("unterminated string for '{key}'"))?;
            Ok(unescape(&rest[..end]))
        }
        fn num_field(src: &str, key: &str) -> Result<u64, String> {
            let tag = format!("{key}: ");
            let start = src.find(&tag).ok_or_else(|| format!("missing field '{key}'"))?
                + tag.len();
            let digits: String =
                src[start..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().map_err(|e| format!("bad number for '{key}': {e}"))
        }

        let schema = str_field(src, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (expected '{SCHEMA}')"));
        }
        let inject = if src.contains("inject: none") {
            None
        } else {
            let start = src
                .find("inject: (\"")
                .ok_or_else(|| "missing field 'inject'".to_string())?;
            let rest = &src[start + "inject: (\"".len()..];
            let close =
                rest.find('"').ok_or_else(|| "malformed 'inject' field".to_string())?;
            let op = rest[..close].to_string();
            let after = rest[close + 1..]
                .strip_prefix(", ")
                .ok_or_else(|| "malformed 'inject' field".to_string())?;
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            let seed = digits.parse().map_err(|e| format!("bad inject seed: {e}"))?;
            Some((op, seed))
        };
        // The params block is the only nested group; scope numeric lookups
        // to it so `seed:` (also a top-level-sounding name) can't collide.
        let pstart =
            src.find("params: (").ok_or_else(|| "missing field 'params'".to_string())?;
        let pend = src[pstart..]
            .find("\n    ),")
            .map(|i| pstart + i)
            .ok_or_else(|| "unterminated 'params' block".to_string())?;
        let pblock = &src[pstart..pend];
        let pnum = |key: &str| num_field(pblock, key);
        let usize_of = |v: u64| -> usize { v as usize };
        let params = SpecParams {
            inputs: usize_of(pnum("inputs")?),
            outputs: usize_of(pnum("outputs")?),
            banks: usize_of(pnum("banks")?),
            regs_per_bank: usize_of(pnum("regs_per_bank")?),
            cloud_depth: usize_of(pnum("cloud_depth")?),
            cloud_width: usize_of(pnum("cloud_width")?),
            clock_fanout: usize_of(pnum("clock_fanout")?),
            seed: pnum("seed")?,
        };
        let nstart = src
            .find("netlist: r#\"")
            .ok_or_else(|| "missing field 'netlist'".to_string())?
            + "netlist: r#\"".len();
        let nend = src[nstart..]
            .find("\"#")
            .map(|i| nstart + i)
            .ok_or_else(|| "unterminated 'netlist' block".to_string())?;
        let netlist = src[nstart..nend].trim_start_matches('\n').to_string();
        Ok(Repro {
            check: str_field(src, "check")?,
            design: str_field(src, "design")?,
            library: num_field(src, "library")?,
            sweep_seed: num_field(src, "sweep_seed")?,
            inject,
            params,
            cells: usize_of(num_field(src, "cells")?),
            detail: str_field(src, "detail")?,
            netlist,
        })
    }

    /// Re-generates the design from the recorded parameters, verifies the
    /// embedded netlist still corresponds to it, and re-runs the recorded
    /// check. Returns the check's divergence detail (`None` = the failure
    /// no longer reproduces).
    ///
    /// # Errors
    ///
    /// Fails when the artifact is inconsistent: unknown check (a renamed
    /// or retired one included) or fault operator, a fault that no longer
    /// applies, a netlist that does not parse against the recorded
    /// library, or a regenerated design that differs from the embedded
    /// one.
    pub fn replay(&self, opts: &CheckOptions) -> Result<Option<String>, String> {
        if !CHECK_NAMES.contains(&self.check.as_str()) {
            return Err(format!("unknown check '{}'", self.check));
        }
        let library = Library::synthetic(self.library);
        let inject = match &self.inject {
            Some((name, seed)) => Some((
                graph_fault_by_name(name)
                    .ok_or_else(|| format!("unknown fault operator '{name}'"))?,
                *seed,
            )),
            None => None,
        };
        let design = DiffDesign::build(&library, &self.design, &self.params, inject)
            .map_err(|e| format!("design rebuild failed: {e}"))?;
        if inject.is_some() && !design.injected {
            return Err("recorded fault no longer applies to the rebuilt design".into());
        }
        let embedded = parse_netlist(&self.netlist, &library)
            .map_err(|e| format!("embedded netlist does not parse: {e}"))?;
        if write_netlist(&embedded) != write_netlist(&design.netlist) {
            return Err("embedded netlist differs from the regenerated design".into());
        }
        Ok(run_named(&design, &self.check, opts))
    }
}

/// Builds an artifact from a shrunk failing design.
#[must_use]
pub fn package(
    design: &DiffDesign,
    check: &str,
    library: u64,
    sweep_seed: u64,
    inject: Option<(&str, u64)>,
    detail: &str,
) -> Repro {
    Repro {
        check: check.to_string(),
        design: design.name.clone(),
        library,
        sweep_seed,
        inject: inject.map(|(op, s)| (op.to_string(), s)),
        params: design.params,
        cells: design.cells(),
        detail: detail.to_string(),
        netlist: write_netlist(&design.netlist),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{design_rng, sample_params};
    use tmm_faults::FaultOp;

    fn sample_repro(inject: Option<(FaultOp, u64)>) -> Repro {
        let lib = Library::synthetic(1);
        let params = sample_params(&mut design_rng(3, 0));
        let d = DiffDesign::build(&lib, "r0", &params, inject).unwrap();
        package(
            &d,
            "engine-equality",
            1,
            3,
            inject.map(|(op, s)| (op.name(), s)),
            "PO y at[Late][Rise]: NaN vs 12.5 \"quoted\"\nsecond line",
        )
    }

    #[test]
    fn render_parse_round_trip() {
        for inject in [None, Some((FaultOp::DropClock, 7))] {
            let r = sample_repro(inject);
            let parsed = Repro::parse(&r.render()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn replay_reports_the_recorded_divergence() {
        let r = sample_repro(Some((FaultOp::DropClock, 7)));
        let outcome = r.replay(&CheckOptions::default()).unwrap();
        assert!(outcome.is_some(), "injected clock-drop divergence must replay");
        let clean = sample_repro(None);
        assert_eq!(clean.replay(&CheckOptions::default()).unwrap(), None);
    }

    /// An artifact naming a check the catalog no longer has (`ts-threads`
    /// was renamed `ts-clone`) is refused, not reported as reproducing.
    #[test]
    fn retired_check_names_do_not_replay() {
        let retired = Repro { check: "ts-threads".into(), ..sample_repro(None) };
        let err = retired.replay(&CheckOptions::default()).unwrap_err();
        assert!(err.contains("unknown check 'ts-threads'"), "{err}");
    }

    /// Satellite of the crash-safety work: a torn or corrupted `.repro.ron`
    /// (the kind a killed writer or bit rot leaves behind) must surface as
    /// a classed parse/replay error — never a panic, never a silent
    /// "reproduces" on garbage.
    #[test]
    fn truncated_or_corrupt_artifacts_never_panic() {
        let r = sample_repro(None);
        let text = r.render();
        let check = |hurt: String, what: String| {
            let parsed = std::panic::catch_unwind(|| Repro::parse(&hurt));
            let Ok(parse_result) = parsed else {
                panic!("Repro::parse panicked on {what}");
            };
            if let Ok(repro) = parse_result {
                // Still-parseable damage must be caught by replay's own
                // consistency checks (or legitimately replay clean when
                // the damage hit only ignorable bytes).
                let replayed = std::panic::catch_unwind(|| repro.replay(&CheckOptions::default()));
                assert!(replayed.is_ok(), "replay panicked on {what}");
            }
        };
        // Byte truncations at every boundary-aligned cut.
        let step = (text.len() / 61).max(1);
        for cut in (0..text.len()).step_by(step) {
            if !text.is_char_boundary(cut) {
                continue;
            }
            check(text[..cut].to_string(), format!("truncation at byte {cut}"));
        }
        // Seeded fault-operator corruption (truncation at random points).
        for seed in 0..24 {
            check(
                tmm_faults::corrupt_text(FaultOp::TruncateText, &text, seed),
                format!("truncate-text seed {seed}"),
            );
        }
        // An outright truncated artifact must not parse at all.
        assert!(Repro::parse(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn tampered_artifacts_are_rejected() {
        let r = sample_repro(None);
        let text = r.render();
        assert!(Repro::parse(&text.replace(SCHEMA, "tmm-repro/v0")).is_err());
        assert!(Repro::parse(&text.replace("params: (", "pa: (")).is_err());
        // A netlist that belongs to a different design must fail replay.
        let mut other = sample_repro(None);
        other.params.seed ^= 1;
        let err = other.replay(&CheckOptions::default());
        assert!(err.is_err(), "mismatched netlist/params must not replay silently");
    }
}
