//! # tmm-ckpt — crash-safe checkpoint/resume substrate
//!
//! Every long-running pipeline stage (TS sweeps, GNN training epochs,
//! macro merging) persists its progress through this crate so that a run
//! killed at *any* point and resumed is **bit-identical** to an
//! uninterrupted run. The design leans entirely on the determinism the
//! rest of the stack already guarantees: a checkpoint never stores
//! anything that a deterministic recompute could not reproduce — it only
//! stores it so the recompute can be *skipped*.
//!
//! Building blocks:
//!
//! * [`atomic_write`] — temp-file + `fsync` + rename, so no artifact is
//!   ever observable in a torn state;
//! * [`Artifact`] — one versioned, length- and checksum-guarded
//!   checkpoint payload (`tmm-ckpt/v1`);
//! * [`Manifest`] — the per-run index (`tmm-ckpt-manifest/v1`) recording
//!   the config fingerprint + design name, every artifact's checksum,
//!   per-stage completion markers, and free-form notes, itself
//!   checksummed;
//! * [`Session`] — an on-disk [`StageStore`] bound to one checkpoint
//!   directory; stale or mismatched checkpoints are rejected with a
//!   classed [`CkptError`], never silently loaded;
//! * [`crash_point`] — deterministic seeded crash injection
//!   (`TMM_CRASH_AT=<point>:<n>` or `*:<n>`), the mechanism behind
//!   `tmm ckptcheck`;
//! * [`StageSupervisor`] — per-stage deadline watchdog over the
//!   `tmm_obs` progress slots, with a classed exit (or a testable flag)
//!   instead of a hang.

pub mod artifact;
pub mod atomic;
pub mod crash;
pub mod manifest;
pub mod session;
pub mod supervisor;

pub use artifact::Artifact;
pub use atomic::{atomic_write, atomic_write_str};
pub use crash::{crash_point, render_tally, tally, total_hits, write_tally_if_requested};
pub use manifest::Manifest;
pub use session::Session;
pub use supervisor::{DeadlineAction, StageSupervisor};

use std::collections::BTreeMap;
use std::fmt;

/// Classed checkpoint failure. The class determines how callers react:
/// `Io` is an environment problem, `Corrupt` means an artifact failed its
/// length/checksum/format guards (a torn or edited file), `Mismatch`
/// means a well-formed checkpoint belongs to a different configuration
/// or design and must not be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Filesystem failure (unreadable/unwritable checkpoint directory).
    Io(String),
    /// Artifact or manifest failed verification (torn/edited file).
    Corrupt(String),
    /// Checkpoint belongs to a different config fingerprint or design.
    Mismatch(String),
}

impl CkptError {
    /// Stable lowercase class name for diagnostics and metrics labels.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            CkptError::Io(_) => "io",
            CkptError::Corrupt(_) => "corrupt",
            CkptError::Mismatch(_) => "mismatch",
        }
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CkptError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Sequenced per-stage checkpoint storage. Stages are free-form string
/// keys (`"ts.<design>"`, `"train"`, `"train_final"`); within a stage,
/// artifacts carry monotonically interpretable sequence numbers (chunk
/// index, epoch bucket). Implementations must make `save`
/// atomic: after a crash, `load` either returns the full payload or
/// reports the artifact missing/corrupt — never a prefix.
pub trait StageStore {
    /// Highest sequence number saved for `stage`, if any.
    fn latest(&self, stage: &str) -> Option<u64>;
    /// Loads one artifact's payload; `Ok(None)` when never saved.
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupt`] when the artifact fails verification,
    /// [`CkptError::Io`] when the backing storage fails.
    fn load(&mut self, stage: &str, seq: u64) -> Result<Option<String>, CkptError>;
    /// Durably stores one artifact payload.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the backing storage fails.
    fn save(&mut self, stage: &str, seq: u64, payload: &str) -> Result<(), CkptError>;
    /// Marks `stage` complete (resume skips it wholesale).
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the backing storage fails.
    fn mark_done(&mut self, stage: &str) -> Result<(), CkptError>;
    /// Whether `stage` was marked complete.
    fn is_done(&self, stage: &str) -> bool;
}

/// The no-checkpointing store: remembers nothing, every `load` misses.
/// Lets checkpoint-aware entry points serve the plain un-checkpointed
/// call paths without duplication.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStore;

impl StageStore for NullStore {
    fn latest(&self, _stage: &str) -> Option<u64> {
        None
    }
    fn load(&mut self, _stage: &str, _seq: u64) -> Result<Option<String>, CkptError> {
        Ok(None)
    }
    fn save(&mut self, _stage: &str, _seq: u64, _payload: &str) -> Result<(), CkptError> {
        Ok(())
    }
    fn mark_done(&mut self, _stage: &str) -> Result<(), CkptError> {
        Ok(())
    }
    fn is_done(&self, _stage: &str) -> bool {
        false
    }
}

/// In-memory store that additionally records save *order*, so tests and
/// the diffcheck `ckpt-replay` check can simulate a kill-at-point-N by
/// truncating to a prefix of the writes a full run performed.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    entries: BTreeMap<(String, u64), String>,
    done: Vec<String>,
    order: Vec<(String, u64)>,
}

impl MemStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of distinct save operations recorded.
    #[must_use]
    pub fn saves(&self) -> usize {
        self.order.len()
    }

    /// A copy holding only the first `n` saves and *no* completion
    /// markers — the state a process killed right after its `n`-th
    /// checkpoint write would leave on disk.
    #[must_use]
    pub fn truncated(&self, n: usize) -> MemStore {
        let order: Vec<(String, u64)> = self.order.iter().take(n).cloned().collect();
        let keep: std::collections::BTreeSet<&(String, u64)> = order.iter().collect();
        MemStore {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| keep.contains(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            done: Vec::new(),
            order,
        }
    }
}

impl StageStore for MemStore {
    fn latest(&self, stage: &str) -> Option<u64> {
        self.entries
            .keys()
            .filter(|(s, _)| s == stage)
            .map(|&(_, seq)| seq)
            .max()
    }
    fn load(&mut self, stage: &str, seq: u64) -> Result<Option<String>, CkptError> {
        Ok(self.entries.get(&(stage.to_string(), seq)).cloned())
    }
    fn save(&mut self, stage: &str, seq: u64, payload: &str) -> Result<(), CkptError> {
        let key = (stage.to_string(), seq);
        if self.entries.insert(key.clone(), payload.to_string()).is_none() {
            self.order.push(key);
        }
        Ok(())
    }
    fn mark_done(&mut self, stage: &str) -> Result<(), CkptError> {
        if !self.is_done(stage) {
            self.done.push(stage.to_string());
        }
        Ok(())
    }
    fn is_done(&self, stage: &str) -> bool {
        self.done.iter().any(|s| s == stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_store_never_hits() {
        let mut s = NullStore;
        s.save("a", 0, "x").unwrap();
        assert_eq!(s.load("a", 0).unwrap(), None);
        assert_eq!(s.latest("a"), None);
        s.mark_done("a").unwrap();
        assert!(!s.is_done("a"));
    }

    #[test]
    fn mem_store_round_trips_and_truncates() {
        let mut s = MemStore::new();
        s.save("ts", 0, "chunk0").unwrap();
        s.save("ts", 1, "chunk1").unwrap();
        s.save("train", 0, "epoch10").unwrap();
        s.mark_done("ts").unwrap();
        assert_eq!(s.saves(), 3);
        assert_eq!(s.latest("ts"), Some(1));
        assert_eq!(s.load("ts", 1).unwrap().as_deref(), Some("chunk1"));
        assert!(s.is_done("ts"));

        let cut = s.truncated(2);
        assert_eq!(cut.saves(), 2);
        assert_eq!(cut.latest("ts"), Some(1));
        assert_eq!(cut.latest("train"), None);
        assert!(!cut.is_done("ts"), "a kill drops completion markers");
    }

    #[test]
    fn error_classes_are_stable() {
        assert_eq!(CkptError::Io(String::new()).class(), "io");
        assert_eq!(CkptError::Corrupt(String::new()).class(), "corrupt");
        assert_eq!(CkptError::Mismatch(String::new()).class(), "mismatch");
    }
}
