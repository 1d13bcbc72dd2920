//! Incremental timing: re-time a block across many boundary changes
//! without full recomputation — the workload pattern of hierarchical
//! timing closure, where a macro's context shifts a little on every
//! optimisation step.
//!
//! ```text
//! cargo run --release --example incremental_timing
//! ```

use std::time::Instant;
use timing_macro_gnn::circuits::CircuitSpec;
use timing_macro_gnn::sta::constraints::{Context, PiConstraint};
use timing_macro_gnn::sta::graph::ArcGraph;
use timing_macro_gnn::sta::incremental::IncrementalState;
use timing_macro_gnn::sta::liberty::Library;
use timing_macro_gnn::sta::propagate::{Analysis, AnalysisOptions};
use timing_macro_gnn::sta::report::slack_summary;
use timing_macro_gnn::sta::split::Split;
use timing_macro_gnn::sta::view::{DesignCore, GraphView};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = Library::synthetic(7);
    let design = CircuitSpec::sized("inc_demo", 6000).seed(55).generate(&library)?;
    let flat = ArcGraph::from_netlist(&design, &library)?;
    println!("design: {} pins, {} arcs", flat.live_nodes(), flat.live_arcs());

    let ctx = Context::nominal(&flat);
    // The incremental state works over a frozen core; a pristine view of it
    // times exactly like the flat graph.
    let view = GraphView::new(DesignCore::freeze(&flat));
    let mut timer = IncrementalState::new(&view, ctx.clone(), AnalysisOptions::default())?;

    // An optimisation loop nudges one output load and one input slew per
    // iteration — the classic ECO pattern — and reads the output's slack.
    // The two re-constraints are swept together at that read.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let iterations = 200;

    let t_inc = Instant::now();
    for _ in 0..iterations {
        let po = rng.gen_range(0..flat.primary_outputs().len());
        timer.set_po_load(po, rng.gen_range(1.0..48.0))?;
        let pi = rng.gen_range(0..flat.primary_inputs().len());
        let base = rng.gen_range(0.0..100.0);
        let constraint =
            PiConstraint { at: Split::new(base, base + 10.0), slew: rng.gen_range(6.0..150.0) };
        timer.set_pi(pi, constraint)?;
        let _ = timer.slack(&view, flat.primary_outputs()[po]);
    }
    let inc_time = t_inc.elapsed();
    let final_summary = slack_summary(&timer.analysis(&view));

    // The same sequence with full recomputation each step.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut full_ctx = ctx;
    let t_full = Instant::now();
    let mut last = None;
    for _ in 0..iterations {
        let po = rng.gen_range(0..flat.primary_outputs().len());
        full_ctx.po[po].load = rng.gen_range(1.0..48.0);
        let pi = rng.gen_range(0..flat.primary_inputs().len());
        let base = rng.gen_range(0.0..100.0);
        full_ctx.pi[pi] =
            PiConstraint { at: Split::new(base, base + 10.0), slew: rng.gen_range(6.0..150.0) };
        last = Some(Analysis::run(&flat, &full_ctx)?);
    }
    let full_time = t_full.elapsed();

    let stats = timer.stats();
    println!("\n{iterations} boundary-change iterations (2 edits and a read each):");
    println!("  full recompute : {:>8.1} ms", full_time.as_secs_f64() * 1e3);
    println!(
        "  incremental    : {:>8.1} ms ({:.1}x faster)",
        inc_time.as_secs_f64() * 1e3,
        full_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-9)
    );
    println!(
        "  work: {} cone sweeps, {} forward + {} backward node updates vs {} full-graph passes",
        stats.updates,
        stats.forward_recomputed,
        stats.backward_recomputed,
        iterations * 2,
    );
    let Some(last) = last else {
        return Err("no iterations ran".into());
    };
    let reference = slack_summary(&last);
    println!(
        "  final WNS agrees: incremental {:.3} ps vs full {:.3} ps",
        final_summary.wns, reference.wns
    );
    assert_eq!(final_summary.wns.to_bits(), reference.wns.to_bits());
    Ok(())
}
