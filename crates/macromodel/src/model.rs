//! The timing macro model container and its generation pipeline.
//!
//! [`MacroModel::generate`] runs the paper's Fig. 9 flow: ILM extraction →
//! keep-set-driven serial/parallel merging → LUT index selection → model.
//! Merging always runs on a copy-on-write view over the frozen ILM
//! ([`crate::reduce::reduce_graph_via_view_budget`]); the in-place
//! [`crate::reduce::reduce_graph`] is only its test reference.
//! The result is itself an [`ArcGraph`], so *using* the model is just
//! running the standard analysis on it — exactly how hierarchical timers
//! consume macro models.

use crate::ilm::extract_ilm;
use crate::lut_select::compress_graph_luts;
use crate::reduce::{ReducePolicy, ReduceStats};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tmm_sta::constraints::Context;
use tmm_sta::graph::{ArcGraph, ArcTiming, NodeKind};
use tmm_sta::io;
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::split::Mode;
use tmm_sta::validate::{validate_arc_graph, ValidationReport};
use tmm_sta::Result;

/// Options controlling macro model generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroModelOptions {
    /// Slew-axis points kept per table after index selection.
    pub lut_slew_points: usize,
    /// Load-axis points kept per table after index selection.
    pub lut_load_points: usize,
    /// Fan-in × fan-out budget for serial merging; pins exceeding it are
    /// kept (ETM-style generation raises this dramatically).
    pub max_bypass: usize,
    /// Permit merges that grow the arc count (`fi·fo > fi+fo`). ILM-based
    /// methods leave this off — removing a branch pin would inflate the
    /// model — while ETM-style total collapse turns it on.
    pub allow_growth: bool,
    /// Skip LUT index selection (ablation hook).
    pub compress_luts: bool,
    /// Soft working-memory budget in MiB for the merge (0 = unbounded).
    /// When the copy-on-write overlay outgrows `budget − core`, the view is
    /// materialised and re-frozen mid-merge so peak RSS stays near the
    /// budget. Flushing never changes a merge decision — the model stays
    /// byte-identical.
    pub mem_budget_mb: usize,
}

impl Default for MacroModelOptions {
    fn default() -> Self {
        MacroModelOptions {
            lut_slew_points: 4,
            lut_load_points: 4,
            max_bypass: 64,
            allow_growth: false,
            compress_luts: true,
            mem_budget_mb: 0,
        }
    }
}

/// Generation statistics reported by the experiment tables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GenStats {
    /// Wall-clock generation time.
    pub gen_time: Duration,
    /// Pins surviving in the model.
    pub kept_pins: usize,
    /// Pins of the flat design (for reduction-ratio reporting).
    pub flat_pins: usize,
    /// Serial/parallel merge counters.
    pub reduce: ReduceStats,
    /// Peak estimated working memory during generation in bytes (a
    /// documented substitution for the paper's RSS numbers): the flat
    /// graph, the frozen ILM core counted once, and the copy-on-write merge
    /// overlay on top.
    pub gen_memory: usize,
}

/// A generated timing macro model.
#[derive(Debug, Clone)]
pub struct MacroModel {
    name: String,
    graph: ArcGraph,
    stats: GenStats,
}

impl MacroModel {
    /// Runs the full generation pipeline on a flat design graph with a
    /// per-node keep mask (indices match `flat`'s nodes; `true` pins are
    /// preserved).
    ///
    /// # Errors
    ///
    /// Propagates graph-edit errors from ILM extraction (effectively
    /// infallible for valid graphs).
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != flat.node_count()`.
    pub fn generate(
        flat: &ArcGraph,
        keep: &[bool],
        options: &MacroModelOptions,
    ) -> Result<MacroModel> {
        Self::generate_impl(flat, keep, options, None, None)
    }

    /// [`MacroModel::generate`] with the LUT-fitting stage routed through a
    /// [`crate::lut_cache::LutCache`] — the incremental (ECO) regeneration
    /// entry point. Merging re-runs in full (it is cheap and
    /// order-sensitive), but every arc whose uncompressed tables match a
    /// previous generation replays its fitted LUTs from the cache instead
    /// of re-running the selection DP. The result is byte-identical to
    /// [`MacroModel::generate`]; only the wall time changes.
    ///
    /// # Errors
    ///
    /// As [`MacroModel::generate`].
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != flat.node_count()`.
    pub fn generate_patched(
        flat: &ArcGraph,
        keep: &[bool],
        options: &MacroModelOptions,
        cache: &mut crate::lut_cache::LutCache,
    ) -> Result<MacroModel> {
        Self::generate_impl(flat, keep, options, None, Some(cache))
    }

    /// [`MacroModel::generate`] with crash-safe merge checkpointing: each
    /// merge pass persists its decision trace into `store` under `stage`
    /// (via [`crate::reduce::reduce_graph_via_view_budget_ckpt`]), so a killed
    /// generation resumes mid-merge and produces a byte-identical model.
    ///
    /// # Errors
    ///
    /// As [`MacroModel::generate`]; checkpoint-layer failures surface as
    /// [`tmm_sta::StaError::Validation`] with artifact `"checkpoint"`.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != flat.node_count()`.
    pub fn generate_ckpt(
        flat: &ArcGraph,
        keep: &[bool],
        options: &MacroModelOptions,
        store: &mut dyn tmm_ckpt::StageStore,
        stage: &str,
    ) -> Result<MacroModel> {
        Self::generate_impl(flat, keep, options, Some((store, stage)), None)
    }

    fn generate_impl(
        flat: &ArcGraph,
        keep: &[bool],
        options: &MacroModelOptions,
        ckpt: Option<(&mut dyn tmm_ckpt::StageStore, &str)>,
        lut_cache: Option<&mut crate::lut_cache::LutCache>,
    ) -> Result<MacroModel> {
        assert_eq!(keep.len(), flat.node_count(), "keep mask size mismatch");
        let mut span = tmm_obs::span("macro_generate", "macromodel");
        let start = Instant::now();
        let policy =
            ReducePolicy { max_bypass: options.max_bypass, allow_growth: options.allow_growth };
        // The frozen core is shared (counted once); edits live in a small
        // overlay until a single materialisation at the end. Neither the
        // ILM graph (once frozen) nor the core (once materialised) outlives
        // this block.
        let (gen_memory, reduce, mut graph) = {
            let core = tmm_sta::view::DesignCore::freeze(&extract_ilm(flat)?.0);
            let vr = match ckpt {
                Some((store, stage)) => crate::reduce::reduce_graph_via_view_budget_ckpt(
                    &core,
                    keep,
                    &policy,
                    options.mem_budget_mb,
                    store,
                    stage,
                )?,
                None => crate::reduce::reduce_graph_via_view_budget(
                    &core,
                    keep,
                    &policy,
                    options.mem_budget_mb,
                )?,
            };
            let mem = flat.memory_estimate() + core.memory_estimate() + vr.overlay_bytes;
            (mem, vr.stats, vr.graph)
        };
        if options.compress_luts {
            match lut_cache {
                Some(cache) => {
                    let before = cache.hits();
                    crate::lut_cache::compress_graph_luts_cached(
                        &mut graph,
                        options.lut_slew_points,
                        options.lut_load_points,
                        cache,
                    );
                    tmm_obs::counter_add(
                        "tmm_macro_lut_cache_hits_total",
                        &[],
                        cache.hits() - before,
                    );
                }
                None => {
                    compress_graph_luts(
                        &mut graph,
                        options.lut_slew_points,
                        options.lut_load_points,
                    );
                }
            }
            tmm_obs::counter_add("tmm_macro_lut_compressions_total", &[], 1);
        }
        graph.set_name(format!("{}_macro", flat.name()));
        let stats = GenStats {
            gen_time: start.elapsed(),
            kept_pins: graph.live_nodes(),
            flat_pins: flat.live_nodes(),
            reduce,
            gen_memory,
        };
        tmm_obs::counter_add("tmm_macro_pins_bypassed_total", &[], reduce.bypassed as u64);
        tmm_obs::counter_add("tmm_macro_merges_refused_total", &[], reduce.refused as u64);
        tmm_obs::counter_add(
            "tmm_macro_arcs_parallel_merged_total",
            &[],
            reduce.parallel_merged as u64,
        );
        span.arg_f64("kept_pins", stats.kept_pins as f64);
        span.arg_f64("flat_pins", stats.flat_pins as f64);
        Ok(MacroModel { name: graph.name().to_string(), graph, stats })
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reduced timing graph backing the model.
    #[must_use]
    pub fn graph(&self) -> &ArcGraph {
        &self.graph
    }

    /// Generation statistics.
    #[must_use]
    pub fn stats(&self) -> &GenStats {
        &self.stats
    }

    /// Times the model under a boundary context — model *usage* in the
    /// paper's terminology.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (infallible for generated models).
    pub fn analyze(&self, ctx: &Context, options: AnalysisOptions) -> Result<Analysis> {
        Analysis::run_with_options(&self.graph, ctx, options)
    }

    /// Estimated resident memory of using the model, in bytes.
    #[must_use]
    pub fn usage_memory(&self) -> usize {
        self.graph.memory_estimate()
    }

    /// Serialises the model into its text library format; the byte length
    /// of this string is the paper's "model file size" metric, and
    /// [`MacroModel::parse`] reconstructs an identical model from it
    /// (hierarchical flows hand exactly this file to the top-level timer).
    #[must_use]
    pub fn serialize(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        let g = &self.graph;
        let _ = writeln!(out, "macro_model \"{}\" {{", self.name);
        for (i, node) in g.nodes().iter().enumerate() {
            if node.dead {
                continue;
            }
            let kind = match node.kind {
                NodeKind::PrimaryInput(p) => format!("pi {p}"),
                NodeKind::PrimaryOutput(p) => format!("po {p}"),
                NodeKind::ClockSource => "clock_source".to_string(),
                // FfData's check index is re-derived from check records.
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
            // An input-interface flip-flop can lose its (unused) output pin
            // to ILM extraction while its capture check stays; `q none`
            // marks that case.
            let q = if g.node(check.q).dead {
                "none".to_string()
            } else {
                check.q.0.to_string()
            };
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
                        io::sense_name(arc.sense),
                        if composed { "composed" } else { "table" },
                    );
                    for mode in Mode::ALL {
                        let _ = writeln!(out, "    corner {mode} {{");
                        io::write_lut(&mut out, "      ", "delay rise", &t[mode].delay.rise);
                        io::write_lut(&mut out, "      ", "delay fall", &t[mode].delay.fall);
                        io::write_lut(&mut out, "      ", "slew rise", &t[mode].slew.rise);
                        io::write_lut(&mut out, "      ", "slew fall", &t[mode].slew.fall);
                        let _ = writeln!(out, "    }}");
                    }
                    let _ = writeln!(out, "  }}");
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Reconstructs a model from [`MacroModel::serialize`] output. Node ids
    /// in the file are remapped to a compact graph; generation statistics
    /// are not stored in the file and come back as defaults.
    ///
    /// # Errors
    ///
    /// Returns [`tmm_sta::StaError::ParseFormat`] on malformed input.
    pub fn parse(src: &str) -> Result<MacroModel> {
        use std::collections::HashMap;
        use tmm_sta::graph::{ArcGraph, Check, NodeId};
        use tmm_sta::io::Lexer;
        use tmm_sta::liberty::ArcTables;
        use tmm_sta::split::Split;

        let mut lx = Lexer::new(src);
        lx.expect_ident("macro_model")?;
        let name = lx.string()?.to_owned();
        lx.expect_punct('{')?;
        let mut graph = ArcGraph::empty(name.clone());
        let mut remap: HashMap<u64, NodeId> = HashMap::new();
        let resolve = |remap: &HashMap<u64, NodeId>, old: u64, lx: &Lexer<'_>| {
            remap
                .get(&old)
                .copied()
                .ok_or_else(|| lx.error(format!("unknown pin id {old}")))
        };
        while !lx.eat_punct('}') {
            match lx.ident()? {
                "pin" => {
                    let old_id: u64 = lx.unsigned()?;
                    if remap.contains_key(&old_id) {
                        return Err(lx.error(format!("duplicate pin id {old_id}")));
                    }
                    let pname = lx.string()?;
                    let kind = match lx.ident()? {
                        "pi" => NodeKind::PrimaryInput(lx.unsigned()?),
                        "po" => NodeKind::PrimaryOutput(lx.unsigned()?),
                        "clock_source" => NodeKind::ClockSource,
                        "ff_d" => NodeKind::Internal, // patched by check records
                        "ff_ck" => NodeKind::FfClock,
                        "ff_q" => NodeKind::FfOutput,
                        "internal" => NodeKind::Internal,
                        other => return Err(lx.error(format!("unknown pin kind `{other}`"))),
                    };
                    lx.expect_ident("load")?;
                    let load = lx.number()?;
                    lx.expect_ident("clock")?;
                    let is_clock = lx.number()? != 0.0;
                    lx.expect_ident("po_loads")?;
                    let po_loads: Vec<u32> = lx.list(Lexer::unsigned)?;
                    lx.expect_punct(';')?;
                    let id = graph.add_node(pname, kind);
                    let node = graph.node_mut(id);
                    node.base_load = load;
                    node.is_clock_network = is_clock;
                    node.po_loads = po_loads;
                    remap.insert(old_id, id);
                }
                "check" => {
                    let cname = lx.string()?.to_owned();
                    lx.expect_ident("d")?;
                    let d = resolve(&remap, lx.unsigned()?, &lx)?;
                    lx.expect_ident("ck")?;
                    let ck = resolve(&remap, lx.unsigned()?, &lx)?;
                    lx.expect_ident("q")?;
                    // `q none` marks a launch pin dropped by ILM extraction;
                    // the data pin stands in (it is a terminal node, so it
                    // never anchors a launch tag).
                    let q = if lx.eat_ident("none") {
                        d
                    } else {
                        resolve(&remap, lx.unsigned()?, &lx)?
                    };
                    lx.expect_ident("setup")?;
                    let setup = lx.number()?;
                    lx.expect_ident("hold")?;
                    let hold = lx.number()?;
                    lx.expect_punct(';')?;
                    graph.add_check(Check { name: cname, d, ck, q, setup, hold });
                }
                "wire" => {
                    let from = resolve(&remap, lx.unsigned()?, &lx)?;
                    lx.expect_punct('-')?;
                    lx.expect_punct('>')?;
                    let to = resolve(&remap, lx.unsigned()?, &lx)?;
                    lx.expect_ident("delay")?;
                    let delay = lx.number()?;
                    lx.expect_ident("degrade")?;
                    let degrade = lx.number()?;
                    lx.expect_ident("clock")?;
                    let is_clock = lx.number()? != 0.0;
                    lx.expect_punct(';')?;
                    graph.add_arc(
                        from,
                        to,
                        tmm_sta::liberty::TimingSense::PositiveUnate,
                        ArcTiming::Wire { delay, degrade },
                        is_clock,
                    );
                }
                "arc" => {
                    let from = resolve(&remap, lx.unsigned()?, &lx)?;
                    lx.expect_punct('-')?;
                    lx.expect_punct('>')?;
                    let to = resolve(&remap, lx.unsigned()?, &lx)?;
                    let sense = io::parse_sense(&mut lx)?;
                    let composed = match lx.ident()? {
                        "composed" => true,
                        "table" => false,
                        other => return Err(lx.error(format!("unknown arc kind `{other}`"))),
                    };
                    lx.expect_ident("clock")?;
                    let is_clock = lx.number()? != 0.0;
                    lx.expect_punct('{')?;
                    let mut early: Option<ArcTables> = None;
                    let mut late: Option<ArcTables> = None;
                    while !lx.eat_punct('}') {
                        lx.expect_ident("corner")?;
                        match lx.ident()? {
                            "early" => early = Some(io::parse_corner(&mut lx)?),
                            "late" => late = Some(io::parse_corner(&mut lx)?),
                            other => return Err(lx.error(format!("unknown corner `{other}`"))),
                        }
                    }
                    let early = early.ok_or_else(|| lx.error("arc missing early corner"))?;
                    let late = late.ok_or_else(|| lx.error("arc missing late corner"))?;
                    let tables =
                        Split::new(std::sync::Arc::new(early), std::sync::Arc::new(late));
                    let timing = if composed {
                        ArcTiming::Composed(tables)
                    } else {
                        ArcTiming::Table(tables)
                    };
                    graph.add_arc(from, to, sense, timing, is_clock);
                }
                other => return Err(lx.error(format!("unknown macro-model item `{other}`"))),
            }
        }
        lx.expect_end("macro model")?;
        graph.rebuild_topo()?;
        let stats = GenStats {
            kept_pins: graph.live_nodes(),
            flat_pins: graph.live_nodes(),
            ..Default::default()
        };
        Ok(MacroModel { name, graph, stats })
    }

    /// Byte length of the serialised model (the "model file size" column).
    #[must_use]
    pub fn file_size_bytes(&self) -> usize {
        self.serialize().len()
    }

    /// Validates the model: structural/semantic checks on its timing
    /// graph plus serialisation round-trip integrity. The serialised
    /// text must parse back and re-serialise to a fixed point (the
    /// first round may legitimately compact node ids, so the comparison
    /// is between the first and second reparse).
    #[must_use]
    pub fn validate(&self) -> ValidationReport {
        let mut report = ValidationReport::new("macro model");
        report.merge(validate_arc_graph(&self.graph));
        let text = self.serialize();
        match MacroModel::parse(&text) {
            Err(e) => {
                report.error("round-trip-parse", format!("serialised model failed to parse: {e}"));
            }
            Ok(first) => {
                let canonical = first.serialize();
                match MacroModel::parse(&canonical) {
                    Err(e) => report.error(
                        "round-trip-parse",
                        format!("re-serialised model failed to parse: {e}"),
                    ),
                    Ok(second) => {
                        if second.serialize() != canonical {
                            report.error(
                                "round-trip-mismatch",
                                "serialised model does not reach a round-trip fixed point",
                            );
                        }
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::liberty::Library;
    use tmm_sta::StaError;

    fn flat() -> ArcGraph {
        let lib = Library::synthetic(5);
        let n = CircuitSpec::new("m")
            .inputs(4)
            .outputs(4)
            .register_banks(2, 4)
            .cloud(3, 6)
            .seed(31)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    #[test]
    fn generate_keep_all_matches_flat_exactly() {
        let g = flat();
        let keep = vec![true; g.node_count()];
        let opts = MacroModelOptions { compress_luts: false, ..Default::default() };
        let model = MacroModel::generate(&g, &keep, &opts).unwrap();
        let ctx = Context::nominal(&g);
        let fa = Analysis::run(&g, &ctx).unwrap();
        let ma = model.analyze(&ctx, AnalysisOptions::default()).unwrap();
        let d = fa.boundary().diff(ma.boundary());
        assert!(d.max < 1e-9, "keep-all ILM model is exact, got {}", d.max);
    }

    #[test]
    fn smaller_keep_set_gives_smaller_file() {
        let g = flat();
        let all = MacroModel::generate(&g, &vec![true; g.node_count()], &MacroModelOptions::default())
            .unwrap();
        let none =
            MacroModel::generate(&g, &vec![false; g.node_count()], &MacroModelOptions::default())
                .unwrap();
        assert!(
            none.file_size_bytes() < all.file_size_bytes(),
            "{} vs {}",
            none.file_size_bytes(),
            all.file_size_bytes()
        );
        assert!(none.stats().kept_pins < all.stats().kept_pins);
    }

    #[test]
    fn lut_compression_shrinks_file() {
        let g = flat();
        let keep = vec![false; g.node_count()];
        let with = MacroModel::generate(
            &g,
            &keep,
            &MacroModelOptions { compress_luts: true, ..Default::default() },
        )
        .unwrap();
        let without = MacroModel::generate(
            &g,
            &keep,
            &MacroModelOptions { compress_luts: false, ..Default::default() },
        )
        .unwrap();
        assert!(with.file_size_bytes() < without.file_size_bytes());
    }

    #[test]
    fn validate_is_clean_for_generated_models() {
        let g = flat();
        for keep_all in [true, false] {
            let model = MacroModel::generate(
                &g,
                &vec![keep_all; g.node_count()],
                &MacroModelOptions::default(),
            )
            .unwrap();
            let report = model.validate();
            assert!(report.is_clean(), "keep_all={keep_all}: {report}");
        }
    }

    #[test]
    fn serialization_contains_ports_and_checks() {
        let g = flat();
        let model =
            MacroModel::generate(&g, &vec![true; g.node_count()], &MacroModelOptions::default())
                .unwrap();
        let text = model.serialize();
        assert!(text.contains("macro_model"));
        assert!(text.contains(" pi "));
        assert!(text.contains(" po "));
        assert!(text.contains("check "));
        assert!(text.contains("arc "));
        assert_eq!(text.len(), model.file_size_bytes());
    }

    #[test]
    fn serialize_parse_round_trip_is_timing_exact() {
        let g = flat();
        let keep = vec![false; g.node_count()];
        let model = MacroModel::generate(&g, &keep, &MacroModelOptions::default()).unwrap();
        let text = model.serialize();
        let back = MacroModel::parse(&text).unwrap();
        assert_eq!(back.name(), model.name());
        assert_eq!(back.graph().live_nodes(), model.graph().live_nodes());
        assert_eq!(back.graph().live_arcs(), model.graph().live_arcs());
        // The reloaded model must time identically under several contexts.
        use tmm_sta::constraints::ContextSampler;
        let mut sampler = ContextSampler::new(12);
        for ctx in sampler.sample_many(model.graph(), 3) {
            let a = model.analyze(&ctx, AnalysisOptions::default()).unwrap();
            let b = back.analyze(&ctx, AnalysisOptions::default()).unwrap();
            let d = a.boundary().diff(b.boundary());
            assert_eq!(d.max, 0.0, "reloaded model must match exactly");
            assert!(d.count > 0);
        }
    }

    #[test]
    fn parse_round_trip_preserves_checks_and_cppr() {
        let g = flat();
        let model = MacroModel::generate(
            &g,
            &vec![true; g.node_count()],
            &MacroModelOptions { compress_luts: false, ..Default::default() },
        )
        .unwrap();
        let back = MacroModel::parse(&model.serialize()).unwrap();
        let live_checks = |g: &ArcGraph| {
            g.checks()
                .iter()
                .filter(|c| !g.node(c.d).dead && !g.node(c.ck).dead)
                .count()
        };
        assert_eq!(live_checks(back.graph()), live_checks(model.graph()));
        let ctx = Context::nominal(model.graph());
        let a = model.analyze(&ctx, AnalysisOptions { cppr: true, ..Default::default() }).unwrap();
        let b = back.analyze(&ctx, AnalysisOptions { cppr: true, ..Default::default() }).unwrap();
        let d = a.boundary().diff(b.boundary());
        assert_eq!(d.max, 0.0, "CPPR credits must survive the round trip");
    }

    #[test]
    fn parse_rejects_malformed_models() {
        assert!(MacroModel::parse("not_a_model").is_err());
        assert!(MacroModel::parse("macro_model \"x\" { pin 0 \"a\" bogus 0; }").is_err());
        // dangling arc reference
        let src = "macro_model \"x\" { wire 0 -> 1 delay 1e0 degrade 1e0 clock 0; }";
        assert!(MacroModel::parse(src).is_err());
    }

    /// A minimal well-formed model: one input wired to one output, one
    /// item per line (`line` 1 is the header).
    const TINY: &str = "macro_model \"t\" {\n\
        pin 0 \"a\" pi 0 load 1e0 clock 0 po_loads [ ];\n\
        pin 1 \"z\" po 0 load 0e0 clock 0 po_loads [ 0 ];\n\
        wire 0 -> 1 delay 1e0 degrade 1e0 clock 0;\n\
        }\n";

    fn parse_error_line(src: &str) -> (usize, String) {
        match MacroModel::parse(src) {
            Err(StaError::ParseFormat { line, message }) => (line, message),
            other => panic!("expected a parse error, got {:?}", other.map(|m| m.serialize())),
        }
    }

    #[test]
    fn tiny_model_parses() {
        let m = MacroModel::parse(TINY).unwrap();
        assert_eq!(m.graph().live_nodes(), 2);
    }

    #[test]
    fn parse_rejects_duplicate_pin_id() {
        let pin = "pin 0 \"b\" internal load 0e0 clock 0 po_loads [ ];";
        let src = TINY.replace("wire", &format!("{pin}\n  wire"));
        let (line, message) = parse_error_line(&src);
        assert_eq!(line, 4);
        assert!(message.contains("duplicate pin id 0"), "{message}");
    }

    #[test]
    fn parse_rejects_fractional_wire_endpoints() {
        let (line, message) = parse_error_line(&TINY.replace("wire 0 -> 1", "wire 0.7 -> 1.9"));
        assert_eq!(line, 4);
        assert!(message.contains("0.7"), "{message}");
    }

    #[test]
    fn parse_rejects_out_of_range_pi_index() {
        let (line, message) = parse_error_line(&TINY.replace("pi 0", "pi 4294967296.5"));
        assert_eq!(line, 2);
        assert!(message.contains("u32"), "{message}");
    }

    #[test]
    fn parse_rejects_negative_po_loads() {
        let (line, message) = parse_error_line(&TINY.replace("[ 0 ]", "[ -3 ]"));
        assert_eq!(line, 3);
        assert!(message.contains("-3"), "{message}");
    }

    #[test]
    fn unknown_item_reports_its_line() {
        let pin = "pin 2 \"c\" internal load 0e0 clock 0 po_loads [ ];";
        let src = TINY.replace("wire", &format!("{pin}\n  bogus 1;\n  wire"));
        let (line, message) = parse_error_line(&src);
        assert_eq!(line, 5);
        assert!(message.contains("bogus"), "{message}");
    }

    #[test]
    fn parse_never_panics_on_truncated_or_corrupt_input() {
        use tmm_faults::{corrupt_text, FaultOp};
        let g = flat();
        let model =
            MacroModel::generate(&g, &vec![false; g.node_count()], &MacroModelOptions::default())
                .unwrap();
        let text = model.serialize();
        let check = |hurt: String, what: String| {
            let outcome =
                std::panic::catch_unwind(move || MacroModel::parse(&hurt).map(|_| ()));
            let parsed = outcome.unwrap_or_else(|_| panic!("parse panicked on {what}"));
            // Either a classed parse error or a complete, reloadable model
            // (a cut in trailing whitespace is benign) — never partial
            // state: `parse` returns a value only after the whole body and
            // the re-toposort succeed.
            if let Err(e) = parsed {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "{what}: error must carry a message");
            }
        };
        // The fault crate's truncation operator (seeded cut points) …
        for seed in 0..48u64 {
            check(
                corrupt_text(FaultOp::TruncateText, &text, seed),
                format!("truncate-text seed {seed}"),
            );
        }
        // … plus deterministic byte-boundary cuts across the whole file,
        // including cuts inside multi-byte tokens and mid-LUT.
        let step = text.len() / 97 + 1;
        for cut in (0..text.len()).step_by(step) {
            check(text[..cut].to_string(), format!("byte cut at {cut}"));
        }
        // Structured corruption: swapped punctuation and injected garbage.
        check(text.replace("->", "«"), "arrow replaced".to_string());
        check(text.replace('{', ";"), "braces replaced".to_string());
        check(format!("{text}\nwire 0 -> 99999 delay"), "dangling tail".to_string());
    }

    #[test]
    fn generate_ckpt_resume_yields_byte_identical_serialized_model() {
        use tmm_ckpt::{MemStore, StageStore};
        let g = flat();
        let keep = vec![false; g.node_count()];
        let opts = MacroModelOptions::default();
        let plain = MacroModel::generate(&g, &keep, &opts).unwrap();

        let mut full = MemStore::default();
        let ckpted = MacroModel::generate_ckpt(&g, &keep, &opts, &mut full, "merge").unwrap();
        assert_eq!(plain.serialize(), ckpted.serialize());
        assert!(full.is_done("merge"));

        for kept_saves in 0..=full.saves() {
            let mut store = full.truncated(kept_saves);
            let resumed =
                MacroModel::generate_ckpt(&g, &keep, &opts, &mut store, "merge").unwrap();
            assert_eq!(
                plain.serialize(),
                resumed.serialize(),
                "kept_saves={kept_saves}: resumed generation must serialize identically"
            );
            assert_eq!(plain.stats().reduce, resumed.stats().reduce);
        }
    }

    #[test]
    fn view_merge_serializes_byte_identically_to_in_place_reference() {
        let g = flat();
        for keep_all in [true, false] {
            let keep = vec![keep_all; g.node_count()];
            for compress in [true, false] {
                let opts = MacroModelOptions { compress_luts: compress, ..Default::default() };
                let view_model = MacroModel::generate(&g, &keep, &opts).unwrap();
                // The same flow with the in-place reference merge.
                let (mut graph, _) = extract_ilm(&g).unwrap();
                let policy = ReducePolicy { max_bypass: opts.max_bypass, allow_growth: false };
                let reduce = crate::reduce::reduce_graph(&mut graph, &keep, &policy).unwrap();
                if compress {
                    compress_graph_luts(&mut graph, opts.lut_slew_points, opts.lut_load_points);
                }
                graph.set_name(format!("{}_macro", g.name()));
                let in_place_model = MacroModel {
                    name: graph.name().to_string(),
                    graph,
                    stats: GenStats { reduce, ..GenStats::default() },
                };
                assert_eq!(view_model.stats().reduce, reduce);
                assert_eq!(
                    view_model.serialize(),
                    in_place_model.serialize(),
                    "keep_all={keep_all} compress={compress}: merges must agree byte-for-byte"
                );
            }
        }
    }

    #[test]
    fn patched_generation_is_byte_identical_and_hits_cache_on_regen() {
        let g = flat();
        let keep = vec![false; g.node_count()];
        let opts = MacroModelOptions::default();
        let scratch = MacroModel::generate(&g, &keep, &opts).unwrap();
        let mut cache = crate::lut_cache::LutCache::new();
        let first = MacroModel::generate_patched(&g, &keep, &opts, &mut cache).unwrap();
        assert_eq!(first.serialize(), scratch.serialize(), "cold cache must not change bytes");
        assert!(cache.misses() > 0);
        let misses = cache.misses();
        let again = MacroModel::generate_patched(&g, &keep, &opts, &mut cache).unwrap();
        assert_eq!(again.serialize(), scratch.serialize(), "warm cache must not change bytes");
        assert_eq!(cache.misses(), misses, "unchanged design re-fits nothing");
        assert!(cache.hits() > 0);
    }

    #[test]
    fn stats_record_timing_and_sizes() {
        let g = flat();
        let model =
            MacroModel::generate(&g, &vec![false; g.node_count()], &MacroModelOptions::default())
                .unwrap();
        let s = model.stats();
        assert!(s.flat_pins > s.kept_pins);
        assert!(s.reduce.bypassed > 0);
        assert!(s.gen_memory > 0);
        assert!(model.usage_memory() > 0);
        assert!(model.usage_memory() < s.gen_memory);
    }
}
