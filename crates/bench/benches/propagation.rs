//! Criterion bench: forward/backward timing propagation throughput on
//! designs of increasing size (the inner loop of everything else).

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmm_circuits::CircuitSpec;
use tmm_sta::constraints::Context;
use tmm_sta::graph::ArcGraph;
use tmm_sta::incremental::IncrementalState;
use tmm_sta::liberty::Library;
use tmm_sta::propagate::{Analysis, AnalysisOptions};
use tmm_sta::view::{DesignCore, GraphView};

fn bench_propagation(c: &mut Criterion) {
    let lib = Library::synthetic(1);
    let mut group = c.benchmark_group("propagation");
    group.sample_size(20);
    for target in [500usize, 2000, 8000] {
        let netlist = CircuitSpec::sized("p", target).seed(7).generate(&lib).unwrap();
        let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
        let ctx = Context::nominal(&graph);
        group.bench_with_input(
            BenchmarkId::new("full_analysis", graph.live_nodes()),
            &graph,
            |b, g| b.iter(|| Analysis::run(g, &ctx).unwrap()),
        );
    }
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let lib = Library::synthetic(1);
    let netlist = CircuitSpec::sized("i", 4000).seed(7).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let ctx = Context::nominal(&graph);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(20);
    group.bench_function("full_per_load_change", |b| {
        let mut ctx = ctx.clone();
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            ctx.po[0].load = if toggle { 40.0 } else { 2.0 };
            Analysis::run(&graph, &ctx).unwrap()
        })
    });
    // A re-constraint only records its seeds; the point read after it runs
    // the cone sweep, so each iteration times one sweep.
    group.bench_function("incremental_per_load_change", |b| {
        let view = GraphView::new(DesignCore::freeze(&graph));
        let mut timer =
            IncrementalState::new(&view, ctx.clone(), AnalysisOptions::default()).unwrap();
        let po = graph.primary_outputs()[0];
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            timer.set_po_load(0, if toggle { 40.0 } else { 2.0 }).unwrap();
            timer.slack(&view, po)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_propagation, bench_incremental);
criterion_main!(benches);
