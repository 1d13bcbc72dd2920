//! Randomized cross-engine differential checking for the TMM stack.
//!
//! Static timing has no external oracle: the only way to know the engines
//! are right is to make them disagree. This crate generates seeded random
//! designs with [`tmm_circuits`], runs every engine pairing the workspace
//! supports — flat [`Analysis`](tmm_sta::propagate::Analysis) vs
//! copy-on-write [`GraphView`](tmm_sta::view::GraphView) vs cone-limited
//! [`ReferenceAnalysis`](tmm_sta::retime::ReferenceAnalysis), with CPPR and
//! AOCV on and off; naive vs blocked GNN kernels; serial vs threaded and
//! view vs clone TS sweeps — and checks bit-equality plus semantic
//! invariants no single engine can self-check (slack conservation along
//! complete paths, a monotone error envelope under progressively larger
//! merges, ILM boundary exactness, CPPR credit non-negativity).
//!
//! On a mismatch the failing design is shrunk to a minimal repro by
//! delta-debugging the generator's parameter vector ([`shrink`]) and
//! packaged as a self-contained `.repro.ron` artifact ([`repro`]) that
//! replays without the sweep that found it. Deliberate bugs can be
//! injected with [`tmm_faults`] operators to prove the harness catches
//! them end to end.
//!
//! # Example
//!
//! ```
//! use tmm_diffcheck::{run_sweep, DiffcheckOptions};
//!
//! let outcome = run_sweep(&DiffcheckOptions { designs: 2, ..Default::default() }).unwrap();
//! assert_eq!(outcome.findings.len(), 0, "engines agree on clean designs");
//! assert_eq!(outcome.designs_run, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod design;
pub mod repro;
pub mod shrink;

pub use checks::{
    eco_equality_masked, run_all, run_named, CheckOptions, Divergence, CHECK_NAMES,
};
pub use design::{design_rng, graph_fault_by_name, sample_params, DiffDesign};
pub use repro::{package, Repro, SCHEMA};
pub use shrink::{shrink_design, ShrinkResult};

use tmm_faults::FaultOp;
use tmm_sta::liberty::Library;
use tmm_sta::Result;

/// Sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffcheckOptions {
    /// Sweep seed: design `i` is derived deterministically from
    /// `(seed, i)`, so any single design reproduces in isolation.
    pub seed: u64,
    /// Number of random designs to generate and check.
    pub designs: usize,
    /// Synthetic-library seed shared by all designs of the sweep.
    pub library: u64,
    /// Per-check tuning knobs.
    pub check: CheckOptions,
    /// Deliberate fault to inject into every design's tainted twin
    /// (operator + fault seed); `None` checks the engines as shipped.
    pub inject: Option<(FaultOp, u64)>,
    /// Stop the sweep after this many confirmed findings (each finding is
    /// shrunk and packaged, which dwarfs the per-design check cost).
    pub max_findings: usize,
    /// Per-stage deadline: when no progress slot moves for this many
    /// milliseconds, the process exits with code 6 instead of hanging —
    /// the supervision nightly cron jobs rely on. `None` disables the
    /// watchdog.
    pub deadline_ms: Option<u64>,
}

impl Default for DiffcheckOptions {
    fn default() -> Self {
        DiffcheckOptions {
            seed: 0,
            designs: 50,
            library: 1,
            check: CheckOptions::default(),
            inject: None,
            max_findings: 3,
            deadline_ms: None,
        }
    }
}

/// One confirmed, shrunk, packaged divergence.
#[derive(Debug, Clone)]
pub struct SweepFinding {
    /// Index of the design (within the sweep) that first exposed it.
    pub design_index: usize,
    /// The first divergence the design reported.
    pub divergence: Divergence,
    /// Cell count before shrinking.
    pub original_cells: usize,
    /// Cell count after shrinking.
    pub shrunk_cells: usize,
    /// The packaged artifact (render with [`Repro::render`]).
    pub repro: Repro,
}

/// Aggregate result of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Designs generated and checked.
    pub designs_run: usize,
    /// Designs on which the requested fault actually applied (equals
    /// `designs_run` when nothing was injected).
    pub injections_applied: usize,
    /// Shrunk, packaged findings (at most `max_findings`).
    pub findings: Vec<SweepFinding>,
}

/// Runs a full differential sweep: generate → check → shrink → package.
///
/// # Errors
///
/// Propagates design generation failures (a sweep over valid parameter
/// ranges does not fail in practice); check divergences are *data*, not
/// errors, and come back in [`SweepOutcome::findings`].
pub fn run_sweep(opts: &DiffcheckOptions) -> Result<SweepOutcome> {
    let mut sweep_span = tmm_obs::span("diffcheck_sweep", "diffcheck");
    sweep_span.arg("designs", &opts.designs.to_string());
    // Each design holds a progress slot, and the stages inside it publish
    // theirs; a design whose slots all stand still past the deadline
    // aborts with the classed exit code 6 (the `tmm` CLI convention)
    // instead of wedging the cron job.
    let _watchdog = opts.deadline_ms.map(|ms| {
        tmm_ckpt::StageSupervisor::start(
            "diffcheck sweep",
            std::time::Duration::from_millis(ms),
            tmm_ckpt::DeadlineAction::Exit(6),
        )
    });
    let library = Library::synthetic(opts.library);
    let mut outcome = SweepOutcome::default();
    for idx in 0..opts.designs {
        let params = sample_params(&mut design_rng(opts.seed, idx));
        let name = format!("d{idx}");
        let _design_progress = tmm_obs::progress_start("diffcheck", &name, 0);
        let design = DiffDesign::build(&library, &name, &params, opts.inject)?;
        outcome.designs_run += 1;
        if opts.inject.is_none() || design.injected {
            outcome.injections_applied += 1;
        } else {
            // The operator found nothing to corrupt (e.g. drop-clock on a
            // combinational design): twins are identical, nothing to learn.
            continue;
        }
        let divergences = run_all(&design, &opts.check);
        let Some(first) = divergences.into_iter().next() else { continue };
        tmm_obs::info(
            &[("stage", "diffcheck"), ("design", &name), ("check", first.check)],
            &format!("divergence: {}", first.detail),
        );
        let shrunk = shrink_design(
            &library,
            &name,
            &params,
            first.check,
            opts.inject,
            &opts.check,
        );
        let minimal = DiffDesign::build(&library, &name, &shrunk.params, opts.inject)?;
        let repro = package(
            &minimal,
            first.check,
            opts.library,
            opts.seed,
            opts.inject.map(|(op, s)| (op.name(), s)),
            &shrunk.detail,
        );
        outcome.findings.push(SweepFinding {
            design_index: idx,
            divergence: first,
            original_cells: design.cells(),
            shrunk_cells: shrunk.cells,
            repro,
        });
        if outcome.findings.len() >= opts.max_findings {
            tmm_obs::warn(
                &[("stage", "diffcheck")],
                &format!(
                    "stopping after {} findings ({} designs run)",
                    outcome.findings.len(),
                    outcome.designs_run
                ),
            );
            break;
        }
    }
    tmm_obs::counter_add(
        "tmm_diffcheck_designs_total",
        &[],
        outcome.designs_run as u64,
    );
    outcome
        .findings
        .iter()
        .for_each(|f| sweep_span.arg("finding", f.divergence.check));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_over_a_handful_of_designs_is_quiet() {
        let outcome = run_sweep(&DiffcheckOptions {
            designs: 4,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(outcome.designs_run, 4);
        assert_eq!(outcome.injections_applied, 4);
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    }

    #[test]
    fn injected_sweep_catches_shrinks_and_packages() {
        let outcome = run_sweep(&DiffcheckOptions {
            designs: 2,
            inject: Some((FaultOp::DropClock, 5)),
            max_findings: 1,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(outcome.findings.len(), 1);
        let f = &outcome.findings[0];
        assert!(f.shrunk_cells <= f.original_cells.max(1));
        assert!(f.shrunk_cells <= 20, "shrunk to {} cells", f.shrunk_cells);
        // The packaged artifact round-trips and replays the divergence.
        let parsed = Repro::parse(&f.repro.render()).unwrap();
        let replayed = parsed.replay(&CheckOptions::default()).unwrap();
        assert!(replayed.is_some(), "repro must still diverge on replay");
    }
}

