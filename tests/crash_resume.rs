//! Crash-safety of the `tmm` CLI, end to end over real processes: a
//! `tmm model` run killed at a seeded checkpoint transition and resumed
//! with `--resume` must produce a byte-identical macro model; resuming
//! under a different configuration must be a classed refusal (exit 4);
//! a hung stage must trip the deadline watchdog (exit 6) and name the
//! stage, including the load before the first framework stage, while a
//! healthy run without checkpoints must not; and the built-in `tmm ckptcheck`
//! harness must pass its own sweep.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmm-crash-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns the real `tmm` binary with a scrubbed crash-injection
/// environment plus the given overrides.
fn tmm(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tmm"));
    cmd.args(args);
    cmd.env_remove("TMM_CRASH_AT");
    cmd.env_remove("TMM_CKPT_TALLY_OUT");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn tmm")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// Generates a small clocked design + library into `dir`, returning the
/// two file paths.
fn gen_design(dir: &std::path::Path) -> (String, String) {
    let design = dir.join("d.tmm").to_string_lossy().to_string();
    let lib = dir.join("l.tmm").to_string_lossy().to_string();
    let out = tmm(
        &["gen", "--name", "crashy", "--pins", "60", "--seed", "11", "--out", &design,
          "--lib-out", &lib],
        &[],
    );
    assert!(out.status.success(), "gen failed: {}", stderr_of(&out));
    (design, lib)
}

#[test]
fn killed_run_resumes_byte_identical_and_stale_resume_is_refused() {
    let dir = scratch("kill-resume");
    let (design, lib) = gen_design(&dir);
    let ckpt = dir.join("ckpt").to_string_lossy().to_string();
    let model = dir.join("m.tmm").to_string_lossy().to_string();
    let tally = dir.join("tally.tmm").to_string_lossy().to_string();

    // Uninterrupted baseline, enumerating the crash points as it runs.
    let base_args =
        ["model", "--design", &design, "--lib", &lib, "--out", &model, "--checkpoint-dir", &ckpt];
    let out = tmm(&base_args, &[("TMM_CKPT_TALLY_OUT", tally.as_str())]);
    assert!(out.status.success(), "baseline failed: {}", stderr_of(&out));
    let baseline = std::fs::read_to_string(&model).unwrap();
    let total: u64 = std::fs::read_to_string(&tally)
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(total > 0, "a checkpointed run must hit crash points");

    // Kill a fresh run mid-pipeline, then resume it.
    let ckpt2 = dir.join("ckpt-killed").to_string_lossy().to_string();
    let model2 = dir.join("m2.tmm").to_string_lossy().to_string();
    let kill_args =
        ["model", "--design", &design, "--lib", &lib, "--out", &model2, "--checkpoint-dir", &ckpt2];
    let spec = format!("*:{}", (total / 2).max(1));
    let killed = tmm(&kill_args, &[("TMM_CRASH_AT", spec.as_str())]);
    assert!(
        !killed.status.success(),
        "run armed with TMM_CRASH_AT={spec} must abort (total {total} points)"
    );
    let resumed = tmm(
        &["model", "--design", &design, "--lib", &lib, "--out", &model2, "--checkpoint-dir",
          &ckpt2, "--resume"],
        &[],
    );
    assert!(resumed.status.success(), "resume failed: {}", stderr_of(&resumed));
    let resumed_bytes = std::fs::read_to_string(&model2).unwrap();
    assert_eq!(resumed_bytes, baseline, "resumed model must be byte-identical to the baseline");

    // Stale-checkpoint guard: the same directory under a flipped
    // configuration is a classed validation refusal, never a reuse.
    let stale = tmm(
        &["model", "--design", &design, "--lib", &lib, "--out", &model2, "--checkpoint-dir",
          &ckpt2, "--resume", "--cppr"],
        &[],
    );
    assert_eq!(
        stale.status.code(),
        Some(4),
        "flipped config must exit 4, got {:?}: {}",
        stale.status.code(),
        stderr_of(&stale)
    );
    assert!(
        stderr_of(&stale).contains("refusing to resume"),
        "refusal must say why: {}",
        stderr_of(&stale)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ckptcheck_harness_passes_its_own_sweep() {
    let dir = scratch("ckptcheck");
    let (design, lib) = gen_design(&dir);
    let out_dir = dir.join("ck").to_string_lossy().to_string();
    let out = tmm(
        &["ckptcheck", "--design", &design, "--lib", &lib, "--out-dir", &out_dir, "--kills", "2"],
        &[],
    );
    assert!(out.status.success(), "ckptcheck failed: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("byte-identical"), "unexpected ckptcheck output: {stdout}");
    assert!(stdout.contains("stale-checkpoint probe"), "probe missing from: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_stage_trips_the_deadline_exit_code() {
    // Building each diffcheck design takes well over a millisecond with
    // no progress slot moving, so a 1 ms deadline is guaranteed to
    // fire — deterministically exercising exit code 6.
    let out = tmm(&["diffcheck", "--designs", "2", "--deadline-ms", "1"], &[]);
    assert_eq!(
        out.status.code(),
        Some(6),
        "deadline watchdog must exit 6, got {:?}: {}",
        out.status.code(),
        stderr_of(&out)
    );
    assert!(
        stderr_of(&out).contains("deadline"),
        "watchdog must report the deadline: {}",
        stderr_of(&out)
    );
}

#[test]
fn deadline_during_load_names_the_load_stage() {
    // Parsing and lowering a 20 000-pin design takes ~100 ms even
    // optimised, and nothing in it moves a progress slot, so a 1 ms
    // deadline trips inside the load and must say so rather than `(none)`.
    let dir = scratch("deadline-load");
    let design = dir.join("d.tmm").to_string_lossy().to_string();
    let lib = dir.join("l.tmm").to_string_lossy().to_string();
    let out = tmm(
        &["gen", "--name", "ld", "--pins", "20000", "--seed", "5", "--out", &design,
          "--lib-out", &lib],
        &[],
    );
    assert!(out.status.success(), "gen failed: {}", stderr_of(&out));
    let model = dir.join("m.tmm").to_string_lossy().to_string();
    let out = tmm(
        &["model", "--design", &design, "--lib", &lib, "--out", &model,
          "--stage-deadline-ms", "1"],
        &[],
    );
    assert_eq!(out.status.code(), Some(6), "expected a deadline abort: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains(&format!("exceeded in stage `load` on `{design}`")),
        "the abort must name the load stage: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(pins, deadline_ms)` for the healthy-run deadline test. An optimised
/// `tmm` trains the 3 000-pin design in ~0.8 s at ~7 ms per epoch, so
/// 300 ms is longer than any pause between progress updates but shorter
/// than training as a whole. A debug build runs ~100x slower; a 600-pin
/// design under 2 s keeps both margins.
const HEALTHY_RUN: (&str, &str) =
    if cfg!(debug_assertions) { ("600", "2000") } else { ("3000", "300") };

#[test]
fn deadline_without_checkpoints_lets_a_healthy_run_finish() {
    // Without --checkpoint-dir nothing is saved, so the watchdog hears
    // only the progress slots: TS probes, GNN epochs and merge passes
    // must keep it quiet through a stage longer than the deadline.
    let dir = scratch("deadline-healthy");
    let design = dir.join("d.tmm").to_string_lossy().to_string();
    let lib = dir.join("l.tmm").to_string_lossy().to_string();
    let (pins, deadline) = HEALTHY_RUN;
    let out = tmm(
        &["gen", "--name", "dl", "--pins", pins, "--seed", "3", "--out", &design, "--lib-out",
          &lib],
        &[],
    );
    assert!(out.status.success(), "gen failed: {}", stderr_of(&out));
    let plain = dir.join("plain.tmm").to_string_lossy().to_string();
    let out = tmm(&["model", "--design", &design, "--lib", &lib, "--out", &plain], &[]);
    assert!(out.status.success(), "model failed: {}", stderr_of(&out));
    let watched = dir.join("watched.tmm").to_string_lossy().to_string();
    let out = tmm(
        &["model", "--design", &design, "--lib", &lib, "--out", &watched,
          "--stage-deadline-ms", deadline],
        &[],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "a run that keeps advancing must not trip a {deadline} ms deadline: {}",
        stderr_of(&out)
    );
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&watched).unwrap(),
        "the armed watchdog must not change the model bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
