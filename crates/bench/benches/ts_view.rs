//! Criterion bench: TS probing through the copy-on-write [`GraphView`] +
//! cone-limited retime versus the clone-per-pin reference. Both produce
//! bit-identical `TsResult::ts`; the view engine's advantage is structural —
//! no graph clone and only the edited cone re-propagated per probe.

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use tmm_circuits::CircuitSpec;
use tmm_macromodel::extract_ilm;
use tmm_sensitivity::{
    evaluate_ts, evaluate_ts_cloning, evaluate_ts_with_core, filter_insensitive, FilterOptions,
    TsOptions,
};
use tmm_sta::graph::ArcGraph;
use tmm_sta::liberty::Library;
use tmm_sta::retime::ReferenceAnalysis;
use tmm_sta::view::{DesignCore, GraphView, TimingGraph};

fn bench_ts_view(c: &mut Criterion) {
    let lib = Library::synthetic(1);
    let netlist = CircuitSpec::sized("v", 800).seed(11).generate(&lib).unwrap();
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let (ilm, _) = extract_ilm(&flat).unwrap();
    let filtered = filter_insensitive(&ilm, &FilterOptions::default()).unwrap();
    let core = DesignCore::freeze(&ilm);

    let mut group = c.benchmark_group("ts_view");
    group.sample_size(10);
    let opts = TsOptions { contexts: 2, ..Default::default() };
    group.bench_function("engine_clone", |b| {
        b.iter(|| evaluate_ts_cloning(&ilm, &filtered.survivors, &opts).unwrap())
    });
    group.bench_function("engine_view", |b| {
        b.iter(|| evaluate_ts(&ilm, &filtered.survivors, &opts).unwrap())
    });
    // Entry point that amortises the freeze across sweeps (what
    // `build_dataset` uses): the core is frozen once outside the loop.
    group.bench_function("engine_view_prefrozen", |b| {
        b.iter(|| evaluate_ts_with_core(&core, &filtered.survivors, &opts).unwrap())
    });
    group.finish();

    // Single-probe costs: one bypass edit, retimed via the cone versus a
    // fresh full analysis of the same view.
    let reference = ReferenceAnalysis::new(
        core.clone(),
        tmm_sta::constraints::Context::nominal(&*core),
        tmm_sta::propagate::AnalysisOptions::default(),
    )
    .unwrap();
    let probe = GraphView::new(core.clone());
    let victim = (0..core.node_count())
        .map(|i| tmm_sta::graph::NodeId(i as u32))
        .find(|&n| filtered.survivors[n.index()] && probe.can_bypass(n))
        .expect("at least one bypassable survivor");

    let mut group = c.benchmark_group("ts_probe");
    group.sample_size(30);
    group.bench_function("cone_retime", |b| {
        let mut scratch = reference.scratch();
        b.iter(|| {
            let mut view = GraphView::new(core.clone());
            view.bypass_node(victim).unwrap();
            std::hint::black_box(reference.retime(&view, &mut scratch).unwrap());
        })
    });
    group.bench_function("full_analysis", |b| {
        b.iter(|| {
            let mut view = GraphView::new(core.clone());
            view.bypass_node(victim).unwrap();
            tmm_sta::propagate::Analysis::run_with_options(
                &view,
                reference.ctx(),
                reference.options(),
            )
            .unwrap()
            .boundary()
            .clone()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ts_view);
criterion_main!(benches);
