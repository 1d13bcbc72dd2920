//! Robustness guarantee: every corruption operator, applied to every
//! text artifact the pipeline exchanges, must drive the parsers into a
//! structured `Err` (or a benign `Ok` when the corruption happens to
//! keep the artifact well-formed) — never a panic.
//!
//! The exhaustive sweep covers all 14 operators × 256 seeds × 4 parsers
//! deterministically; a property test on top samples a much wider seed
//! space, and a splice sweep puts multi-byte characters at char
//! boundaries throughout every artifact.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use tmm_faults::{corrupt_text, FaultOp};
use tmm_macromodel::{MacroModel, MacroModelOptions};
use tmm_sta::constraints::ContextSampler;
use tmm_sta::graph::ArcGraph;
use tmm_sta::io::{
    parse_context, parse_library, parse_netlist, write_context, write_library, write_netlist,
};
use tmm_sta::liberty::Library;

/// Small but representative artifacts: a library, a sequential design
/// with a logic cloud, a boundary context for it, and a generated macro
/// model.
struct Artifacts {
    lib: Library,
    lib_text: String,
    net_text: String,
    ctx_text: String,
    model_text: String,
}

fn artifacts() -> Artifacts {
    let lib = Library::synthetic(11);
    let netlist = tmm_circuits::CircuitSpec::new("fuzzed")
        .inputs(2)
        .outputs(2)
        .register_banks(1, 2)
        .cloud(1, 3)
        .seed(23)
        .generate(&lib)
        .unwrap();
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let model =
        MacroModel::generate(&flat, &vec![true; flat.node_count()], &MacroModelOptions::default())
            .unwrap();
    Artifacts {
        lib_text: write_library(&lib),
        net_text: write_netlist(&netlist),
        ctx_text: write_context(&ContextSampler::new(5).sample(&flat)),
        model_text: model.serialize(),
        lib,
    }
}

/// Runs all four parsers over the artifacts after `hurt` rewrote each
/// text. Any panic fails the enclosing test.
fn exercise_with(a: &Artifacts, hurt: impl Fn(&str) -> String) {
    let _ = parse_library(&hurt(&a.lib_text));
    let _ = parse_netlist(&hurt(&a.net_text), &a.lib);
    let _ = parse_context(&hurt(&a.ctx_text));
    let _ = MacroModel::parse(&hurt(&a.model_text));
}

/// One `(op, seed)` pair of the corruption operators over every artifact.
fn exercise(a: &Artifacts, op: FaultOp, seed: u64) {
    exercise_with(a, |text| corrupt_text(op, text, seed));
}

#[test]
fn all_ops_256_seeds_never_panic() {
    let a = artifacts();
    for op in FaultOp::ALL {
        for seed in 0..256u64 {
            exercise(&a, op, seed);
        }
    }
}

/// A corrupted library that still parses must also survive validation
/// and re-serialisation (no panic on semantically poisoned data).
#[test]
fn reparsed_corrupt_libraries_survive_validation() {
    let lib_text = artifacts().lib_text;
    for op in FaultOp::ALL {
        for seed in 0..64u64 {
            if let Ok(lib) = parse_library(&corrupt_text(op, &lib_text, seed)) {
                let _ = tmm_sta::validate::validate_library(&lib);
                let _ = write_library(&lib);
            }
        }
    }
}

/// A corrupted model that still parses must survive validation — the
/// round-trip check inside `MacroModel::validate` re-serialises and
/// re-parses, so this also fuzzes the writer.
#[test]
fn reparsed_corrupt_models_survive_validation() {
    let model_text = artifacts().model_text;
    for op in FaultOp::ALL {
        for seed in 0..64u64 {
            if let Ok(model) = MacroModel::parse(&corrupt_text(op, &model_text, seed)) {
                let _ = model.validate();
            }
        }
    }
}

/// Multi-byte characters spliced in at char boundaries: the byte lexer
/// slices the source at byte offsets, so a character next to a string
/// quote, inside a number, inside a comment or at the end of input must
/// never split a slice. `GarbleText` only splices ASCII, and
/// `FaultOp::ALL` is left alone because seeded streams depend on it.
#[test]
fn multibyte_splices_never_panic() {
    const WIDE: [&str; 6] = ["é", "→", "🙂", "\u{feff}", "é\"", "#🙂\n"];
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let a = artifacts();
    for seed in 0..256u64 {
        exercise_with(&a, |text| {
            let mut state = seed;
            let mut out = text.to_owned();
            for _ in 0..=splitmix(&mut state) % 3 {
                let mut at = (splitmix(&mut state) % (out.len() as u64 + 1)) as usize;
                while !out.is_char_boundary(at) {
                    at -= 1;
                }
                out.insert_str(at, WIDE[(splitmix(&mut state) % WIDE.len() as u64) as usize]);
            }
            out
        });
    }
}

/// ECO operators: generating and applying a seeded stream must never
/// panic, for any seed, and the same seed must replay the identical
/// edit stream (the contract the prefix-replay oracle builds on).
#[test]
fn eco_streams_never_panic_and_replay_deterministically() {
    use tmm_faults::EcoStream;
    use tmm_sta::view::DesignCore;

    let lib = Library::synthetic(11);
    let netlist = tmm_circuits::CircuitSpec::new("eco_fuzzed")
        .inputs(2)
        .outputs(2)
        .register_banks(1, 2)
        .cloud(1, 3)
        .seed(23)
        .generate(&lib)
        .unwrap();
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let core = DesignCore::freeze(&flat);

    for seed in 0..96u64 {
        let stream = EcoStream::generate(&core, 12, seed);
        let replay = EcoStream::generate(&core, 12, seed);
        assert_eq!(
            stream.edits(),
            replay.edits(),
            "seed {seed} did not replay the identical edit stream"
        );
        // Applying the full stream (and materialising the result) must
        // never panic; the materialised graph must stay valid.
        let view = stream.apply_prefix(&core, stream.len()).unwrap();
        let edited = view.materialize().unwrap();
        edited.validate().unwrap();
    }
}

/// Tiny degenerate designs must exhaust their edit sites gracefully
/// (shorter stream), never panic or loop.
#[test]
fn eco_streams_on_tiny_designs_stop_gracefully() {
    use tmm_faults::EcoStream;
    use tmm_sta::view::DesignCore;

    let lib = Library::synthetic(3);
    let netlist = tmm_circuits::CircuitSpec::new("eco_tiny")
        .inputs(1)
        .outputs(1)
        .register_banks(0, 1)
        .cloud(1, 1)
        .seed(5)
        .generate(&lib)
        .unwrap();
    let flat = ArcGraph::from_netlist(&netlist, &lib).unwrap();
    let core = DesignCore::freeze(&flat);
    for seed in 0..32u64 {
        let stream = EcoStream::generate(&core, 200, seed);
        assert!(stream.len() <= 200);
        let view = stream.apply_prefix(&core, stream.len()).unwrap();
        view.materialize().unwrap().validate().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

    /// Wide-seed sampling on top of the exhaustive sweep; every case
    /// covers all 14 ops at one randomly drawn seed.
    #[test]
    fn random_seeds_never_panic(seed in 0u64..u64::MAX / 2) {
        use std::sync::OnceLock;
        static ARTIFACTS: OnceLock<Artifacts> = OnceLock::new();
        let a = ARTIFACTS.get_or_init(artifacts);
        for op in FaultOp::ALL {
            exercise(a, op, seed);
        }
    }

    /// Wide-seed ECO stream sampling: generation, replay equality and
    /// prefix application never panic at any seed.
    #[test]
    fn random_eco_seeds_never_panic(seed in 0u64..u64::MAX / 2) {
        use std::sync::OnceLock;
        use tmm_faults::EcoStream;
        use tmm_sta::view::DesignCore;
        static CORE: OnceLock<std::sync::Arc<DesignCore>> = OnceLock::new();
        let core = CORE.get_or_init(|| {
            let lib = Library::synthetic(11);
            let netlist = tmm_circuits::CircuitSpec::new("eco_prop")
                .inputs(2)
                .outputs(2)
                .register_banks(1, 2)
                .cloud(1, 3)
                .seed(23)
                .generate(&lib)
                .unwrap();
            DesignCore::freeze(&ArcGraph::from_netlist(&netlist, &lib).unwrap())
        });
        let stream = EcoStream::generate(core, 8, seed);
        prop_assert_eq!(stream.edits(), EcoStream::generate(core, 8, seed).edits());
        let view = stream.apply_prefix(core, stream.len()).unwrap();
        let _ = view.materialize().unwrap();
    }
}
