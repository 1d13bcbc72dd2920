//! Criterion bench: the exact float writer `tmm_sta::io::write_f64_exp`
//! against `write!(out, "{v:e}")`, which writes the same bytes. Each
//! iteration appends 1024 values to a reused buffer, so ns/iter ÷ 1024 is
//! the cost per value. Two value sets: the suite library's LUT entries
//! (what model and library files are made of) and raw random bit patterns.

// Experiment driver: aborting with a message on a broken setup is the
// intended failure mode (the clippy gate targets library code paths).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use tmm_circuits::designs::suite_library;
use tmm_sta::io::write_f64_exp;

const VALUES: usize = 1024;

fn lut_values() -> Vec<f64> {
    let lib = suite_library();
    let mut values = Vec::with_capacity(VALUES);
    for t in lib.templates() {
        for arc in &t.arcs {
            for lut in [&arc.tables.late.delay.rise, &arc.tables.early.slew.fall] {
                values.extend_from_slice(lut.values());
            }
        }
    }
    values.truncate(VALUES);
    assert_eq!(values.len(), VALUES, "suite library has too few LUT values");
    values
}

fn random_values() -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..VALUES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        })
        .collect()
}

fn bench_float_fmt(c: &mut Criterion) {
    let mut out = String::with_capacity(32 * VALUES);
    for (set, values) in [("lut", lut_values()), ("random_bits", random_values())] {
        let mut check = String::new();
        for &v in &values {
            write_f64_exp(&mut check, v);
            check.push(' ');
        }
        let std_text: String = values.iter().map(|v| format!("{v:e} ")).collect();
        assert_eq!(check, std_text, "{set}: writer and {{:e}} disagree");

        let mut group = c.benchmark_group(format!("float_fmt/{set}"));
        group.sample_size(200);
        group.bench_function("write_f64_exp_x1024", |b| {
            b.iter(|| {
                out.clear();
                for &v in &values {
                    out.push(' ');
                    write_f64_exp(&mut out, v);
                }
                out.len()
            })
        });
        group.bench_function("std_exp_x1024", |b| {
            b.iter(|| {
                out.clear();
                for v in &values {
                    let _ = write!(out, " {v:e}");
                }
                out.len()
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_float_fmt);
criterion_main!(benches);
