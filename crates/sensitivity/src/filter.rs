//! Insensitive-pin filtering — §4.2, Figs. 7–8.
//!
//! Running the full TS flow for every pin is expensive (one propagation per
//! pin per context). The filter exploits the shielding effect: extreme
//! boundary slews are propagated once, the resulting per-pin slew
//! *difference* (SD) is standardised, and pins whose SD falls below a
//! threshold are excluded from TS evaluation. The threshold is deliberately
//! coarse — it only prunes the candidate list, so model quality does not
//! depend on it (validated by the Table 6 experiment).

use tmm_macromodel::baselines::{output_variant_pins, slew_range};
use tmm_sta::cppr::cppr_crucial_pins;
use tmm_sta::graph::{NodeId, NodeKind};
use tmm_sta::view::TimingGraph;
use tmm_sta::Result;

/// Options for the insensitive-pin filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterOptions {
    /// Standardised-SD threshold: pins with `z(SD) < threshold` are
    /// filtered out. The paper never tunes this; neither do we.
    pub threshold: f64,
    /// Additionally retain multiple-fan-out clock pins (CPPR mode).
    /// Dataset generation sets it from [`crate::TsOptions::cppr`].
    pub keep_cppr_pins: bool,
}

impl Default for FilterOptions {
    fn default() -> Self {
        FilterOptions { threshold: -0.25, keep_cppr_pins: false }
    }
}

/// Result of one filtering pass.
#[derive(Debug, Clone)]
pub struct FilterResult {
    /// Per-node survival: `true` pins proceed to TS evaluation.
    pub survivors: Vec<bool>,
    /// Raw slew differences per node (ps).
    pub sd: Vec<f64>,
    /// Standardised slew differences per node.
    pub sd_z: Vec<f64>,
    /// Count of candidate pins removed by the filter.
    pub filtered_out: usize,
    /// Count of surviving candidate pins.
    pub survived: usize,
}

impl FilterResult {
    /// Fraction of candidate pins removed (the paper reports > 88 %;
    /// the exact number depends on the SD distribution).
    #[must_use]
    pub fn filter_rate(&self) -> f64 {
        let total = self.filtered_out + self.survived;
        if total == 0 {
            0.0
        } else {
            self.filtered_out as f64 / total as f64
        }
    }
}

/// Standardises slew differences over the candidate population. Only
/// *finite* candidate SDs enter the mean/variance: a single NaN (e.g. a
/// pin quarantined during slew propagation) would otherwise poison the
/// mean and turn every sd_z into NaN, silently filtering out the whole
/// design. Non-finite SDs map to NaN sd_z, which the survival test treats
/// as a conservative keep.
#[must_use]
pub fn standardise_sd(sd: &[f64], candidate: &[bool]) -> Vec<f64> {
    let vals: Vec<f64> = (0..sd.len())
        .filter(|&i| candidate[i] && sd[i].is_finite())
        .map(|i| sd[i])
        .collect();
    let n = vals.len().max(1) as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = var.sqrt().max(1e-12);
    sd.iter().map(|&v| (v - mean) / std).collect()
}

/// Runs the insensitive-pin filter over the internal pins of `graph`.
///
/// # Errors
///
/// Propagates analysis errors from the extreme-slew propagation.
pub fn filter_insensitive<G: TimingGraph>(
    graph: &G,
    opts: &FilterOptions,
) -> Result<FilterResult> {
    let mut span = tmm_obs::span("insensitive_filter", "sensitivity");
    let sd = slew_range(graph)?;
    // Candidates: live internal pins (the only removable kind).
    let candidate: Vec<bool> = (0..graph.node_count())
        .map(|i| {
            let n = NodeId(i as u32);
            !graph.node_dead(n) && graph.node_kind(n) == NodeKind::Internal
        })
        .collect();
    let sd_z = standardise_sd(&sd, &candidate);

    let hard_keep = output_variant_pins(graph);
    let cppr_keep: Vec<NodeId> =
        if opts.keep_cppr_pins { cppr_crucial_pins(graph) } else { Vec::new() };

    let mut survivors = vec![false; graph.node_count()];
    let mut filtered_out = 0usize;
    let mut survived = 0usize;
    for i in 0..graph.node_count() {
        if !candidate[i] {
            continue;
        }
        // NaN sd_z (unmeasured pin) must KEEP: `NaN >= t` is false, so the
        // naive comparison would silently drop exactly the pins we know
        // least about. Keeping them is the conservative direction — they
        // proceed to TS evaluation, which quarantines them properly.
        let keep = !sd_z[i].is_finite()
            || sd_z[i] >= opts.threshold
            || hard_keep[i]
            || cppr_keep.contains(&NodeId(i as u32));
        survivors[i] = keep;
        if keep {
            survived += 1;
        } else {
            filtered_out += 1;
        }
    }
    span.arg_f64("filtered_out", filtered_out as f64);
    span.arg_f64("survived", survived as f64);
    tmm_obs::counter_add("tmm_filter_pins_removed_total", &[], filtered_out as u64);
    tmm_obs::counter_add("tmm_filter_pins_survived_total", &[], survived as u64);
    let total = filtered_out + survived;
    if total > 0 {
        tmm_obs::gauge_set("tmm_filter_rate", &[], filtered_out as f64 / total as f64);
    }
    Ok(FilterResult { survivors, sd, sd_z, filtered_out, survived })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_circuits::CircuitSpec;
    use tmm_sta::graph::ArcGraph;
    use tmm_sta::liberty::Library;

    fn graph(banks: usize, depth: usize) -> ArcGraph {
        let lib = Library::synthetic(10);
        let n = CircuitSpec::new("f")
            .inputs(5)
            .outputs(5)
            .register_banks(banks, 4)
            .cloud(depth, 7)
            .seed(23)
            .generate(&lib)
            .unwrap();
        ArcGraph::from_netlist(&n, &lib).unwrap()
    }

    #[test]
    fn filter_removes_a_large_share_of_pins() {
        let g = graph(2, 4);
        let r = filter_insensitive(&g, &FilterOptions::default()).unwrap();
        assert!(r.filtered_out > 0);
        assert!(r.survived > 0);
        assert!(
            r.filter_rate() > 0.4,
            "deep designs shield most pins; rate {}",
            r.filter_rate()
        );
    }

    #[test]
    fn output_net_pins_always_survive() {
        let g = graph(1, 2);
        let r = filter_insensitive(&g, &FilterOptions::default()).unwrap();
        for &po in g.primary_outputs() {
            for a in g.fanin(po) {
                let d = g.arc(a).from;
                if g.node(d).kind == NodeKind::Internal {
                    assert!(r.survivors[d.index()], "PO driver {} must survive", g.node(d).name);
                }
            }
        }
    }

    #[test]
    fn cppr_mode_keeps_clock_branch_points() {
        let g = graph(3, 2);
        let crucial = cppr_crucial_pins(&g);
        let with = filter_insensitive(
            &g,
            &FilterOptions { keep_cppr_pins: true, ..Default::default() },
        )
        .unwrap();
        for &n in &crucial {
            if g.node(n).kind == NodeKind::Internal {
                assert!(with.survivors[n.index()], "{} must survive in CPPR mode", g.node(n).name);
            }
        }
    }

    #[test]
    fn threshold_is_coarse_not_critical() {
        // Different thresholds change the candidate count but both keep the
        // truly sensitive (high-SD) pins — the paper's robustness claim.
        let g = graph(2, 3);
        let strict =
            filter_insensitive(&g, &FilterOptions { threshold: 0.5, ..Default::default() })
                .unwrap();
        let lax =
            filter_insensitive(&g, &FilterOptions { threshold: -1.0, ..Default::default() })
                .unwrap();
        assert!(strict.survived <= lax.survived);
        // every strict survivor is also a lax survivor
        for i in 0..g.node_count() {
            if strict.survivors[i] {
                assert!(lax.survivors[i]);
            }
        }
    }

    #[test]
    fn nan_sd_does_not_poison_standardisation_and_survives() {
        // One quarantined pin with NaN SD sits among candidates whose SDs
        // straddle the classification boundary. The NaN must neither shift
        // the finite pins' z-scores nor be silently filtered out itself.
        let sd = vec![1.0, f64::NAN, 2.0, 3.0, 4.0];
        let candidate = vec![true; 5];
        let with_nan = standardise_sd(&sd, &candidate);
        let clean = standardise_sd(&[1.0, 2.0, 3.0, 4.0], &[true; 4]);
        assert_eq!(with_nan[0].to_bits(), clean[0].to_bits());
        assert_eq!(with_nan[2].to_bits(), clean[1].to_bits());
        assert_eq!(with_nan[3].to_bits(), clean[2].to_bits());
        assert_eq!(with_nan[4].to_bits(), clean[3].to_bits());
        assert!(with_nan[1].is_nan(), "unmeasured pin stays unmeasured");
        // Survival: NaN sd_z is a conservative keep at any threshold.
        for threshold in [-1.0, 0.0, 1.0] {
            let keep = !with_nan[1].is_finite() || with_nan[1] >= threshold;
            assert!(keep);
        }
    }

    #[test]
    fn standardisation_centers_candidates() {
        let g = graph(2, 3);
        let r = filter_insensitive(&g, &FilterOptions::default()).unwrap();
        let zs: Vec<f64> = (0..g.node_count())
            .filter(|&i| {
                !g.node(NodeId(i as u32)).dead
                    && g.node(NodeId(i as u32)).kind == NodeKind::Internal
            })
            .map(|i| r.sd_z[i])
            .collect();
        let mean: f64 = zs.iter().sum::<f64>() / zs.len() as f64;
        assert!(mean.abs() < 1e-6, "standardised mean ≈ 0, got {mean}");
    }
}
