//! Generality experiment beyond the paper's tables (motivated by §1/§5.3):
//! the same framework retargeted to **AOCV** analysis — training data is
//! regenerated under depth-based derating, the GNN retrains, and the
//! resulting models are evaluated with AOCV enabled, against an
//! AOCV-evaluated iTimerM baseline.
//!
//! Expected shape: the framework needs *no algorithmic change* — only the
//! analysis-mode switch — and still matches iTimerM's accuracy at a smaller
//! model size, mirroring the CPPR result.

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tmm_bench::{
    eval_itimerm, eval_ours, library, print_header, print_ratio, print_row, ratio_summary,
    train_standard,
};
use tmm_circuits::designs::eval_suite;
use tmm_core::FrameworkConfig;
use tmm_macromodel::eval::EvalOptions;
use tmm_sensitivity::TsOptions;

fn main() {
    let lib = library();
    let config = FrameworkConfig {
        ts: TsOptions { aocv: true, ..Default::default() },
        ..Default::default()
    };
    let fw = train_standard(config, &lib).expect("training succeeds");
    let suite = eval_suite(&lib).expect("suite generation");
    let opts = EvalOptions { contexts: 5, aocv: true, ..Default::default() };

    print_header("AOCV generality: framework retargeted to depth-derated analysis");
    let mut ours = Vec::new();
    let mut itm = Vec::new();
    for entry in suite.iter().filter(|e| !e.name.ends_with("_eval")) {
        let o = eval_ours(&fw, entry, &lib, &opts).expect("eval ours");
        let i = eval_itimerm(entry, &lib, &opts).expect("eval itimerm");
        print_row(&o);
        print_row(&i);
        ours.push(o);
        itm.push(i);
    }
    println!();
    print_ratio("AOCV average (iTimerM vs Ours)", &ratio_summary(&ours, &itm));
}
