//! The on-disk checkpoint session: one directory, one manifest, one
//! (config fingerprint, design) pair. Implements [`StageStore`] with
//! atomic artifact + manifest writes and crash-injection points at every
//! durable transition, so `tmm ckptcheck` can kill a run between any two
//! filesystem effects and resume must still converge bit-identically.

use crate::artifact::Artifact;
use crate::manifest::Manifest;
use crate::{atomic, crash, CkptError, StageStore};
use std::path::{Path, PathBuf};
use tmm_obs::fingerprint;

/// Manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.tmm";

/// Replaces anything that would break the whitespace-delimited artifact
/// and manifest grammars with `_`.
fn sanitize(stage: &str) -> String {
    stage
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') { c } else { '_' })
        .collect()
}

/// An open checkpoint session (see module docs).
#[derive(Debug)]
pub struct Session {
    dir: PathBuf,
    manifest: Manifest,
    resumed: usize,
}

impl Session {
    /// Opens a checkpoint session in `dir`, creating the directory as
    /// needed.
    ///
    /// With `resume = false` a fresh manifest is written (pre-existing
    /// checkpoints are ignored and overwritten as the run progresses).
    /// With `resume = true` an existing manifest is loaded and verified;
    /// a missing manifest starts fresh — there is simply nothing to
    /// resume.
    ///
    /// # Errors
    ///
    /// [`CkptError::Mismatch`] when the existing manifest belongs to a
    /// different config fingerprint or design (stale checkpoints are
    /// rejected, never silently reused); [`CkptError::Corrupt`] when the
    /// manifest fails verification; [`CkptError::Io`] on filesystem
    /// failure.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: &str,
        design: &str,
        resume: bool,
    ) -> Result<Session, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            CkptError::Io(format!("cannot create checkpoint dir {}: {e}", dir.display()))
        })?;
        let mpath = dir.join(MANIFEST_FILE);
        if resume && mpath.exists() {
            let text = std::fs::read_to_string(&mpath).map_err(|e| {
                CkptError::Io(format!("cannot read manifest {}: {e}", mpath.display()))
            })?;
            let manifest = Manifest::parse(&text)?;
            if manifest.config != config || manifest.design != design {
                return Err(CkptError::Mismatch(format!(
                    "checkpoints in {} were written by config {} for design `{}`; this run is \
                     config {config} for design `{design}` — refusing to resume",
                    dir.display(),
                    manifest.config,
                    manifest.design
                )));
            }
            let resumed = manifest.entry_count();
            tmm_obs::info(
                &[("dir", &dir.display().to_string()), ("entries", &resumed.to_string())],
                "resuming from checkpoint manifest",
            );
            tmm_obs::counter_add("tmm_ckpt_sessions_resumed_total", &[], 1);
            return Ok(Session { dir, manifest, resumed });
        }
        let session = Session { dir, manifest: Manifest::new(config, design), resumed: 0 };
        session.persist()?;
        Ok(session)
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of manifest entries found at resume time (0 for fresh).
    #[must_use]
    pub fn resumed_entries(&self) -> usize {
        self.resumed
    }

    /// Read access to the manifest (for harnesses and diagnostics).
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Records a free-form manifest note and persists it.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on filesystem failure.
    pub fn note(&mut self, key: &str, value: &str) -> Result<(), CkptError> {
        self.manifest.set_note(&sanitize(key), value);
        self.persist()
    }

    fn persist(&self) -> Result<(), CkptError> {
        atomic::atomic_write_str(self.dir.join(MANIFEST_FILE), &self.manifest.render())
    }
}

impl StageStore for Session {
    fn latest(&self, stage: &str) -> Option<u64> {
        self.manifest.latest(&sanitize(stage))
    }

    fn load(&mut self, stage: &str, seq: u64) -> Result<Option<String>, CkptError> {
        let stage = sanitize(stage);
        let Some((file, sum)) = self.manifest.entry(&stage, seq) else {
            return Ok(None);
        };
        let path = self.dir.join(file);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            CkptError::Corrupt(format!(
                "manifest lists {} but it cannot be read: {e}",
                path.display()
            ))
        })?;
        let art = Artifact::parse(&text)?;
        if art.stage != stage || art.seq != seq || art.config != self.manifest.config {
            return Err(CkptError::Corrupt(format!(
                "{} is artifact {}/{} (config {}), manifest expected {stage}/{seq} (config {})",
                path.display(),
                art.stage,
                art.seq,
                art.config,
                self.manifest.config
            )));
        }
        if fingerprint(&art.payload) != sum {
            return Err(CkptError::Corrupt(format!(
                "{} payload checksum disagrees with the manifest",
                path.display()
            )));
        }
        tmm_obs::counter_add("tmm_ckpt_loads_total", &[], 1);
        tmm_obs::debug(&[("stage", &stage), ("seq", &seq.to_string())], "checkpoint loaded");
        Ok(Some(art.payload))
    }

    fn save(&mut self, stage: &str, seq: u64, payload: &str) -> Result<(), CkptError> {
        let stage = sanitize(stage);
        // Kill window 1: nothing durable yet — resume recomputes this
        // artifact from the previous one.
        crash::crash_point(&format!("ckpt.{stage}.save"));
        let file = format!("{stage}.{seq}.ckpt");
        let text = Artifact::render_parts(&stage, seq, &self.manifest.config, payload);
        atomic::atomic_write_str(self.dir.join(&file), &text)?;
        // Kill window 2: artifact durable, manifest not — the orphaned
        // file is invisible to resume (the manifest is the index) and
        // gets overwritten by the recompute.
        crash::crash_point(&format!("ckpt.{stage}.commit"));
        self.manifest.upsert(&stage, seq, &file, &fingerprint(payload));
        self.persist()?;
        tmm_obs::counter_add("tmm_ckpt_saves_total", &[], 1);
        Ok(())
    }

    fn mark_done(&mut self, stage: &str) -> Result<(), CkptError> {
        let stage = sanitize(stage);
        // Kill window 3: all stage artifacts durable, completion marker
        // not — resume replays the stage from its artifacts.
        crash::crash_point(&format!("ckpt.{stage}.done"));
        self.manifest.mark_done(&stage);
        self.persist()?;
        Ok(())
    }

    fn is_done(&self, stage: &str) -> bool {
        self.manifest.is_done(&sanitize(stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tmm-ckpt-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_resume_round_trip() {
        let dir = scratch("roundtrip");
        let mut s = Session::open(&dir, "fp1", "d1", false).unwrap();
        s.save("ts.d1", 0, "chunk zero").unwrap();
        s.save("ts.d1", 1, "chunk one").unwrap();
        s.mark_done("ts.d1").unwrap();
        s.note("macro_model_sum", "abcd").unwrap();
        drop(s);

        let mut r = Session::open(&dir, "fp1", "d1", true).unwrap();
        assert_eq!(r.resumed_entries(), 2);
        assert_eq!(r.latest("ts.d1"), Some(1));
        assert_eq!(r.load("ts.d1", 0).unwrap().as_deref(), Some("chunk zero"));
        assert!(r.is_done("ts.d1"));
        assert_eq!(r.manifest().note("macro_model_sum"), Some("abcd"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let dir = scratch("mismatch");
        drop(Session::open(&dir, "fp1", "d1", false).unwrap());
        let err = Session::open(&dir, "fp2", "d1", true).unwrap_err();
        assert_eq!(err.class(), "mismatch");
        let err = Session::open(&dir, "fp1", "other", true).unwrap_err();
        assert_eq!(err.class(), "mismatch");
        // A fresh (non-resume) open of the same dir is always allowed.
        assert!(Session::open(&dir, "fp2", "d2", false).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_manifest_starts_fresh() {
        let dir = scratch("fresh");
        let s = Session::open(&dir, "fp1", "d1", true).unwrap();
        assert_eq!(s.resumed_entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_rejected_at_load() {
        let dir = scratch("corrupt");
        let mut s = Session::open(&dir, "fp1", "d1", false).unwrap();
        s.save("merge", 0, "pass zero trace").unwrap();
        // Tear the artifact behind the manifest's back.
        let path = dir.join("merge.0.ckpt");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let mut r = Session::open(&dir, "fp1", "d1", true).unwrap();
        assert_eq!(r.load("merge", 0).unwrap_err().class(), "corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_names_are_sanitized() {
        let dir = scratch("sanitize");
        let mut s = Session::open(&dir, "fp1", "d1", false).unwrap();
        s.save("ts my design/2", 0, "x").unwrap();
        assert_eq!(s.latest("ts my design/2"), Some(0));
        assert_eq!(s.load("ts_my_design_2", 0).unwrap().as_deref(), Some("x"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
