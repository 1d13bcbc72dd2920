//! Boundary timing snapshots and model-accuracy comparison.
//!
//! The paper defines model accuracy (Fig. 2) as the difference between the
//! timing analysis results of the flat design and of the macro model, under
//! the same boundary context. [`BoundarySnapshot`] captures everything
//! visible at the boundary — PO arrival/slew/required/slack, PI required
//! times, and flip-flop check slacks — and [`BoundarySnapshot::diff`]
//! reduces two snapshots to the max/avg error statistics reported in every
//! results table.

use crate::split::{mode_edge_iter, Quad, TransPair};
use std::collections::HashMap;

/// Boundary timing at one primary output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoTiming {
    /// Port name.
    pub name: String,
    /// Arrival times.
    pub at: Quad,
    /// Transition times.
    pub slew: Quad,
    /// Required arrival times.
    pub rat: Quad,
    /// Slack.
    pub slack: Quad,
}

/// Boundary timing at one primary input (only the back-propagated required
/// time is observable there).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PiTiming {
    /// Port name.
    pub name: String,
    /// Required arrival times.
    pub rat: Quad,
}

/// Slack of one flip-flop check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckTiming {
    /// Check (flip-flop) name.
    pub name: String,
    /// Setup slack per data edge.
    pub setup_slack: TransPair<f64>,
    /// Hold slack per data edge.
    pub hold_slack: TransPair<f64>,
    /// CPPR credit applied to the setup check.
    pub setup_credit: TransPair<f64>,
    /// CPPR credit applied to the hold check.
    pub hold_credit: TransPair<f64>,
}

/// Everything observable at the design boundary after one analysis.
#[derive(Debug, Clone, Default)]
pub struct BoundarySnapshot {
    /// Per-PO timing.
    pub po: Vec<PoTiming>,
    /// Per-PI timing.
    pub pi: Vec<PiTiming>,
    /// Per-check timing.
    pub checks: Vec<CheckTiming>,
}

/// Error statistics between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffStats {
    /// Maximum absolute difference in ps.
    pub max: f64,
    /// Mean absolute difference in ps.
    pub avg: f64,
    /// Number of compared finite value pairs.
    pub count: usize,
}

impl DiffStats {
    fn accumulate(&mut self, a: f64, b: f64) {
        if a.is_finite() && b.is_finite() {
            let d = (a - b).abs();
            self.max = self.max.max(d);
            self.avg += d;
            self.count += 1;
        }
    }

    fn finish(mut self) -> Self {
        if self.count > 0 {
            self.avg /= self.count as f64;
        }
        self
    }

    /// Merges another statistics record into this one (used to aggregate
    /// over several evaluation contexts).
    #[must_use]
    pub fn merged(self, other: DiffStats) -> DiffStats {
        let total = self.count + other.count;
        DiffStats {
            max: self.max.max(other.max),
            avg: if total == 0 {
                0.0
            } else {
                (self.avg * self.count as f64 + other.avg * other.count as f64) / total as f64
            },
            count: total,
        }
    }
}

impl BoundarySnapshot {
    /// Largest |arrival| over all POs (late/early, both edges). Handy as a
    /// quick non-triviality probe in examples and tests.
    #[must_use]
    pub fn max_abs_at(&self) -> f64 {
        let mut m: f64 = 0.0;
        for po in &self.po {
            for (mode, edge) in mode_edge_iter() {
                let v = po.at[mode][edge];
                if v.is_finite() {
                    m = m.max(v.abs());
                }
            }
        }
        m
    }

    /// Compares this snapshot (reference / flat) against `other` (macro),
    /// matching entries by name so reduced models with fewer checks compare
    /// only the checks they retain.
    #[must_use]
    pub fn diff(&self, other: &BoundarySnapshot) -> DiffStats {
        let mut stats = DiffStats::default();
        let theirs_po: HashMap<&str, &PoTiming> =
            other.po.iter().map(|p| (p.name.as_str(), p)).collect();
        for po in &self.po {
            let Some(b) = theirs_po.get(po.name.as_str()) else { continue };
            for (mode, edge) in mode_edge_iter() {
                stats.accumulate(po.at[mode][edge], b.at[mode][edge]);
                stats.accumulate(po.slew[mode][edge], b.slew[mode][edge]);
                stats.accumulate(po.rat[mode][edge], b.rat[mode][edge]);
                stats.accumulate(po.slack[mode][edge], b.slack[mode][edge]);
            }
        }
        let theirs_pi: HashMap<&str, &PiTiming> =
            other.pi.iter().map(|p| (p.name.as_str(), p)).collect();
        for pi in &self.pi {
            let Some(b) = theirs_pi.get(pi.name.as_str()) else { continue };
            for (mode, edge) in mode_edge_iter() {
                stats.accumulate(pi.rat[mode][edge], b.rat[mode][edge]);
            }
        }
        let theirs_ck: HashMap<&str, &CheckTiming> =
            other.checks.iter().map(|c| (c.name.as_str(), c)).collect();
        for ck in &self.checks {
            let Some(b) = theirs_ck.get(ck.name.as_str()) else { continue };
            for edge in crate::split::Edge::ALL {
                stats.accumulate(ck.setup_slack[edge], b.setup_slack[edge]);
                stats.accumulate(ck.hold_slack[edge], b.hold_slack[edge]);
            }
        }
        stats.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{quad, Split, TransPair};

    fn po(name: &str, at: f64) -> PoTiming {
        PoTiming { name: name.into(), at: quad(at), slew: quad(10.0), rat: quad(50.0), slack: quad(5.0) }
    }

    #[test]
    fn identical_snapshots_diff_to_zero() {
        let snap = BoundarySnapshot {
            po: vec![po("z", 12.0)],
            pi: vec![PiTiming { name: "a".into(), rat: quad(3.0) }],
            checks: vec![],
        };
        let d = snap.diff(&snap.clone());
        assert_eq!(d.max, 0.0);
        assert_eq!(d.avg, 0.0);
        assert!(d.count > 0);
    }

    #[test]
    fn diff_measures_at_shift() {
        let a = BoundarySnapshot { po: vec![po("z", 10.0)], pi: vec![], checks: vec![] };
        let b = BoundarySnapshot { po: vec![po("z", 11.0)], pi: vec![], checks: vec![] };
        let d = a.diff(&b);
        assert!((d.max - 1.0).abs() < 1e-12);
        assert!(d.avg > 0.0 && d.avg <= 1.0);
    }

    #[test]
    fn diff_ignores_unmatched_names_and_nan() {
        let mut one = po("z", 10.0);
        one.at[crate::split::Mode::Late][crate::split::Edge::Rise] = f64::NAN;
        let a = BoundarySnapshot { po: vec![one, po("only_a", 1.0)], pi: vec![], checks: vec![] };
        let b = BoundarySnapshot { po: vec![po("z", 10.0)], pi: vec![], checks: vec![] };
        let d = a.diff(&b);
        assert_eq!(d.max, 0.0, "NaN pair skipped, unmatched PO skipped");
    }

    #[test]
    fn check_slacks_compared_by_name() {
        let ck = |name: &str, s: f64| CheckTiming {
            name: name.into(),
            setup_slack: TransPair::uniform(s),
            hold_slack: TransPair::uniform(1.0),
            setup_credit: TransPair::uniform(0.0),
            hold_credit: TransPair::uniform(0.0),
        };
        let a = BoundarySnapshot {
            po: vec![],
            pi: vec![],
            checks: vec![ck("ff1", 5.0), ck("ff_internal", 2.0)],
        };
        // macro model retains only ff1
        let b = BoundarySnapshot { po: vec![], pi: vec![], checks: vec![ck("ff1", 5.5)] };
        let d = a.diff(&b);
        assert!((d.max - 0.5).abs() < 1e-12);
        assert_eq!(d.count, 4, "2 edges × setup+hold of the single shared check");
    }

    #[test]
    fn merged_combines_weighted_averages() {
        let a = DiffStats { max: 1.0, avg: 1.0, count: 2 };
        let b = DiffStats { max: 3.0, avg: 2.0, count: 4 };
        let m = a.merged(b);
        assert_eq!(m.max, 3.0);
        assert_eq!(m.count, 6);
        assert!((m.avg - (1.0 * 2.0 + 2.0 * 4.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_at_scans_all_components() {
        let mut p = po("z", 1.0);
        p.at = Split::new(TransPair::new(1.0, -9.0), TransPair::new(2.0, 3.0));
        let snap = BoundarySnapshot { po: vec![p], pi: vec![], checks: vec![] };
        assert_eq!(snap.max_abs_at(), 9.0);
    }
}
