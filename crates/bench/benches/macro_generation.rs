//! Criterion bench: macro model generation time — ILM-based reduction with
//! an iTimerM-style keep-set versus ATM-style total collapse (the paper's
//! "generation runtime" columns), plus the LUT-compression ablation and
//! the model file I/O the paper's usage time starts with.

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use tmm_circuits::CircuitSpec;
use tmm_macromodel::baselines::{generate_atm, itimerm_keep_mask, ITIMERM_DEFAULT_TOLERANCE};
use tmm_macromodel::{MacroModel, MacroModelOptions};
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;

fn bench_generation(c: &mut Criterion) {
    let lib = Library::synthetic(1);
    let netlist = CircuitSpec::sized("g", 2000).seed(9).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let keep = itimerm_keep_mask(&graph, ITIMERM_DEFAULT_TOLERANCE).unwrap();

    let mut group = c.benchmark_group("macro_generation");
    group.sample_size(10);
    group.bench_function("ilm_keepset", |b| {
        b.iter(|| MacroModel::generate(&graph, &keep, &MacroModelOptions::default()).unwrap())
    });
    group.bench_function("ilm_keepset_no_lut_compress", |b| {
        b.iter(|| {
            MacroModel::generate(
                &graph,
                &keep,
                &MacroModelOptions { compress_luts: false, ..Default::default() },
            )
            .unwrap()
        })
    });
    group.bench_function("atm_total_collapse", |b| {
        b.iter(|| generate_atm(&graph, &MacroModelOptions::default()).unwrap())
    });
    group.finish();
}

fn bench_model_io(c: &mut Criterion) {
    let lib = Library::synthetic(1);
    let netlist = CircuitSpec::sized("io", 2000).seed(9).generate(&lib).unwrap();
    let graph = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let keep = itimerm_keep_mask(&graph, ITIMERM_DEFAULT_TOLERANCE).unwrap();
    let model = MacroModel::generate(&graph, &keep, &MacroModelOptions::default()).unwrap();
    let text = model.serialize();

    let mut group = c.benchmark_group("model_io");
    group.sample_size(10);
    group.bench_function("serialize", |b| b.iter(|| model.serialize()));
    group.bench_function("parse", |b| b.iter(|| MacroModel::parse(&text).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_generation, bench_model_io);
criterion_main!(benches);
