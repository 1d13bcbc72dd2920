//! Baseline macro-modeling approaches the paper compares against.
//!
//! - [`itimerm_keep_mask`] — iTimerM \[5\]: propagate extreme boundary slews
//!   and keep pins whose slew *range* exceeds a user tolerance (the
//!   threshold-tuning burden the paper criticises in §1).
//! - [`libabs_keep_mask`] — LibAbs/\[4\]-style structural tree reduction:
//!   keep tree roots/leaves (multi-fan-in or multi-fan-out pins) regardless
//!   of their timing behaviour.
//! - [`generate_atm`] — ATM \[6\]-style ETM: collapse *every* internal pin
//!   under a huge merge budget, producing tiny context-baked port-to-port
//!   models with higher error and slow generation.

use crate::model::{MacroModel, MacroModelOptions};
use tmm_sta::constraints::Context;
use tmm_sta::graph::{ArcGraph, NodeId, NodeKind};
use tmm_sta::propagate::Analysis;
use tmm_sta::split::{mode_edge_iter, Split};
use tmm_sta::view::TimingGraph;
use tmm_sta::Result;

/// Pins that every ILM-based method must keep regardless of sensitivity:
/// pins driving a net connected to a primary output (their delay depends on
/// the context output load) and pins directly feeding a primary output.
#[must_use]
pub fn output_variant_pins<G: TimingGraph>(graph: &G) -> Vec<bool> {
    let mut keep = vec![false; graph.node_count()];
    for (i, k) in keep.iter_mut().enumerate() {
        let n = NodeId(i as u32);
        if !graph.node_dead(n) && !graph.node_po_loads(n).is_empty() {
            *k = true;
        }
    }
    for &po in graph.primary_outputs() {
        for a in graph.fanin(po) {
            keep[graph.arc(a).from.index()] = true;
        }
    }
    keep
}

/// Per-pin slew range under extreme boundary contexts: the iTimerM variant
/// metric. Returns the max over modes/edges of `|slew_hi − slew_lo|` in ps.
///
/// # Errors
///
/// Propagates analysis errors (infallible for valid graphs).
pub fn slew_range<G: TimingGraph>(graph: &G) -> Result<Vec<f64>> {
    let mut lo = Context::nominal(graph);
    for pi in &mut lo.pi {
        pi.slew = 5.0;
    }
    for po in &mut lo.po {
        po.load = 1.0;
    }
    let mut hi = Context::nominal(graph);
    for pi in &mut hi.pi {
        pi.slew = 150.0;
    }
    for po in &mut hi.po {
        po.load = 48.0;
    }
    let a_lo = Analysis::run(graph, &lo)?;
    let a_hi = Analysis::run(graph, &hi)?;
    let mut range = vec![0.0f64; graph.node_count()];
    for i in 0..graph.node_count() {
        let n = NodeId(i as u32);
        if graph.node_dead(n) {
            continue;
        }
        let (sl, sh) = (a_lo.slew(n), a_hi.slew(n));
        let mut r: f64 = 0.0;
        for (m, e) in mode_edge_iter() {
            let (a, b) = (sl[m][e], sh[m][e]);
            if a.is_finite() && b.is_finite() {
                r = r.max((b - a).abs());
            }
        }
        range[i] = r;
    }
    Ok(range)
}

/// iTimerM-style keep mask: slew range above `tolerance_ps`, plus the
/// output-variant pins.
///
/// # Errors
///
/// Propagates analysis errors from the range propagation.
pub fn itimerm_keep_mask(graph: &ArcGraph, tolerance_ps: f64) -> Result<Vec<bool>> {
    let range = slew_range(graph)?;
    let mut keep = output_variant_pins(graph);
    for (i, &r) in range.iter().enumerate() {
        if r > tolerance_ps {
            keep[i] = true;
        }
    }
    Ok(keep)
}

/// Default iTimerM tolerance used by the experiment tables (ps).
pub const ITIMERM_DEFAULT_TOLERANCE: f64 = 2.0;

/// Generates an iTimerM-style macro model.
///
/// # Errors
///
/// Propagates analysis and generation errors.
pub fn generate_itimerm(
    flat: &ArcGraph,
    tolerance_ps: f64,
    options: &MacroModelOptions,
) -> Result<MacroModel> {
    let keep = itimerm_keep_mask(flat, tolerance_ps)?;
    MacroModel::generate(flat, &keep, options)
}

/// LibAbs/\[4\]-style structural keep mask: pins that are roots or leaves of
/// maximal trees (fan-in > 1 or fan-out > 1) are kept; pure chain pins are
/// merged regardless of how timing-variant they are.
#[must_use]
pub fn libabs_keep_mask(graph: &ArcGraph) -> Vec<bool> {
    let mut keep = output_variant_pins(graph);
    for i in 0..graph.node_count() {
        let n = NodeId(i as u32);
        let node = graph.node(n);
        if node.dead || node.kind != NodeKind::Internal {
            continue;
        }
        if graph.in_degree(n) > 1 || graph.out_degree(n) > 1 {
            keep[i] = true;
        }
    }
    keep
}

/// Generates a LibAbs-style macro model.
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_libabs(flat: &ArcGraph, options: &MacroModelOptions) -> Result<MacroModel> {
    let keep = libabs_keep_mask(flat);
    MacroModel::generate(flat, &keep, options)
}

/// Generates an ATM-style extracted timing model: every internal pin is
/// merged away under a large budget, leaving near-port-to-port arcs with
/// context-baked internals. Mirrors the paper's observed trade-off: tiny
/// models, faster usage, markedly worse accuracy, much slower generation.
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_atm(flat: &ArcGraph, options: &MacroModelOptions) -> Result<MacroModel> {
    let keep = vec![false; flat.node_count()];
    let opts = MacroModelOptions {
        max_bypass: options.max_bypass.max(4096),
        allow_growth: true,
        lut_slew_points: options.lut_slew_points.min(2),
        lut_load_points: options.lut_load_points.min(2),
        compress_luts: true,
        mem_budget_mb: options.mem_budget_mb,
    };
    MacroModel::generate(flat, &keep, &opts)
}

/// Per-pin split of the slew ranges for early/late (used by the sensitivity
/// filter's standardisation tests and diagnostics).
///
/// # Errors
///
/// Propagates analysis errors.
pub fn slew_range_split<G: TimingGraph>(graph: &G) -> Result<Vec<Split<f64>>> {
    let range = slew_range(graph)?;
    Ok(range.into_iter().map(Split::uniform).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::constraints::ContextSampler;
    use tmm_sta::liberty::Library;
    use tmm_sta::propagate::AnalysisOptions;

    fn flat() -> ArcGraph {
        let lib = Library::synthetic(6);
        let n = CircuitSpec::new("b")
            .inputs(5)
            .outputs(5)
            .register_banks(2, 5)
            .cloud(3, 7)
            .seed(77)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    #[test]
    fn slew_range_decays_with_depth() {
        // Shielding (paper Fig. 7): pins near the PIs see a larger slew
        // range than pins deep in the logic.
        let g = flat();
        let range = slew_range(&g).unwrap();
        let levels = g.levels_from_inputs();
        let mut shallow = Vec::new();
        let mut deep = Vec::new();
        for i in 0..g.node_count() {
            if g.node(NodeId(i as u32)).dead {
                continue;
            }
            if levels[i] != u32::MAX && levels[i] <= 2 {
                shallow.push(range[i]);
            } else if levels[i] != u32::MAX && levels[i] >= 6 {
                deep.push(range[i]);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(!shallow.is_empty() && !deep.is_empty());
        assert!(
            avg(&shallow) > avg(&deep),
            "shielding: shallow {} vs deep {}",
            avg(&shallow),
            avg(&deep)
        );
    }

    #[test]
    fn itimerm_tolerance_controls_model_size() {
        let g = flat();
        let tight = itimerm_keep_mask(&g, 0.5).unwrap();
        let loose = itimerm_keep_mask(&g, 20.0).unwrap();
        let count = |m: &[bool]| m.iter().filter(|&&b| b).count();
        assert!(count(&tight) > count(&loose), "{} vs {}", count(&tight), count(&loose));
    }

    #[test]
    fn atm_model_is_much_smaller_but_less_accurate() {
        let g = flat();
        let itm =
            generate_itimerm(&g, ITIMERM_DEFAULT_TOLERANCE, &MacroModelOptions::default()).unwrap();
        let atm = generate_atm(&g, &MacroModelOptions::default()).unwrap();
        assert!(
            atm.file_size_bytes() < itm.file_size_bytes(),
            "ATM {} vs iTimerM {}",
            atm.file_size_bytes(),
            itm.file_size_bytes()
        );
        // accuracy comparison over fresh contexts
        let mut sampler = ContextSampler::new(5);
        let mut err_itm: f64 = 0.0;
        let mut err_atm: f64 = 0.0;
        for ctx in sampler.sample_many(&g, 4) {
            let fa = Analysis::run(&g, &ctx).unwrap();
            let mi = itm.analyze(&ctx, AnalysisOptions::default()).unwrap();
            let ma = atm.analyze(&ctx, AnalysisOptions::default()).unwrap();
            err_itm = err_itm.max(fa.boundary().diff(mi.boundary()).max);
            err_atm = err_atm.max(fa.boundary().diff(ma.boundary()).max);
        }
        assert!(
            err_atm > err_itm,
            "ATM should be less accurate: {err_atm} vs {err_itm}"
        );
    }

    #[test]
    fn libabs_keeps_structural_pins() {
        let g = flat();
        let mask = libabs_keep_mask(&g);
        for i in 0..g.node_count() {
            let n = NodeId(i as u32);
            let node = g.node(n);
            if node.dead || node.kind != NodeKind::Internal {
                continue;
            }
            if g.out_degree(n) > 1 {
                assert!(mask[i], "multi-fanout pin {} must be kept", node.name);
            }
        }
    }

    #[test]
    fn output_variant_pins_cover_po_drivers() {
        let g = flat();
        let keep = output_variant_pins(&g);
        for &po in g.primary_outputs() {
            for a in g.fanin(po) {
                assert!(keep[g.arc(a).from.index()]);
            }
        }
    }
}
