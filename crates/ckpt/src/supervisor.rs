//! Per-stage deadline supervision over the progress slots
//! ([`tmm_obs::progress_start`]): while armed, the watchdog holds
//! progress publishing on and fires when no slot has been claimed or
//! released and no slot's `done` has moved for longer than the deadline.
//! Firing either exits the process with a classed code — the checkpoint
//! manifest is already durable, so the run stays resumable — or sets a
//! flag for in-process tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the watchdog does when the deadline expires.
#[derive(Debug, Clone)]
pub enum DeadlineAction {
    /// Report the hung stage on stderr and exit the process with this
    /// code (the `tmm` CLI uses 6). Checkpoints on disk stay resumable.
    Exit(u8),
    /// Set the flag and stop watching — the in-process testable action.
    Flag(Arc<AtomicBool>),
}

/// A running deadline watchdog; dropping it stops the watch.
#[derive(Debug)]
pub struct StageSupervisor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    _publishing: tmm_obs::LiveHold,
}

impl StageSupervisor {
    /// Starts watching: if the progress slots stand still for
    /// `deadline`, the `action` fires. `what` names the supervised
    /// activity in the abort message; the hung stage is the innermost
    /// active slot. Slots claimed before the watch starts publish nothing,
    /// so arm it before the work it supervises.
    #[must_use]
    pub fn start(what: &str, deadline: Duration, action: DeadlineAction) -> StageSupervisor {
        let publishing = tmm_obs::hold_live();
        let stop = Arc::new(AtomicBool::new(false));
        let watched = Arc::clone(&stop);
        let what = what.to_string();
        let poll = (deadline / 8).clamp(Duration::from_millis(5), Duration::from_millis(250));
        let handle = std::thread::Builder::new()
            .name("tmm-deadline".to_string())
            .spawn(move || {
                let mut last = tmm_obs::slot_pulse();
                let mut moved_at = Instant::now();
                loop {
                    std::thread::sleep(poll);
                    if watched.load(Ordering::Relaxed) {
                        return;
                    }
                    let pulse = tmm_obs::slot_pulse();
                    if pulse != last {
                        last = pulse;
                        moved_at = Instant::now();
                    } else if moved_at.elapsed() > deadline {
                        fire(&what, deadline, &action);
                        return;
                    }
                }
            });
        // Thread spawn failure: run unsupervised rather than fail the
        // pipeline over a watchdog.
        StageSupervisor { stop, handle: handle.ok(), _publishing: publishing }
    }
}

/// `(stage, design)` of the most recently claimed slot still active —
/// the innermost running stage — or `None` between stages.
fn stalled_stage() -> Option<(String, String)> {
    tmm_obs::progress_entries()
        .into_iter()
        .filter(|e| e.active)
        .max_by_key(|e| e.generation)
        .map(|e| (e.stage, e.design))
}

fn fire(what: &str, deadline: Duration, action: &DeadlineAction) {
    let deadline_ms = deadline.as_millis().to_string();
    let (stage, design) = stalled_stage().unwrap_or_else(|| ("(none)".into(), String::new()));
    tmm_obs::error(
        &[("stage", &stage), ("design", &design), ("deadline_ms", &deadline_ms)],
        "stage deadline exceeded",
    );
    match action {
        DeadlineAction::Exit(code) => {
            let on = if design.is_empty() { String::new() } else { format!(" on `{design}`") };
            eprintln!(
                "tmm: deadline of {deadline_ms} ms exceeded in stage `{stage}`{on} during \
                 {what}; aborting (checkpoints on disk remain resumable)"
            );
            std::process::exit(i32::from(*code));
        }
        DeadlineAction::Flag(flag) => flag.store(true, Ordering::SeqCst),
    }
}

impl Drop for StageSupervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The slots are process-global and any slot's movement quiets every
    /// watchdog, so these tests run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn watch(deadline_ms: u64) -> (StageSupervisor, Arc<AtomicBool>) {
        let flag = Arc::new(AtomicBool::new(false));
        let watch = StageSupervisor::start(
            "unit test",
            Duration::from_millis(deadline_ms),
            DeadlineAction::Flag(Arc::clone(&flag)),
        );
        (watch, flag)
    }

    #[test]
    fn idle_claimed_slot_trips_the_flag() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let (watch, flag) = watch(40);
        let slot = tmm_obs::progress_start("supervisor-test-hang", "d7", 10);
        assert_eq!(
            stalled_stage(),
            Some(("supervisor-test-hang".to_string(), "d7".to_string())),
            "the abort names the innermost active slot"
        );
        let t0 = Instant::now();
        while !flag.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(slot);
        drop(watch);
        assert!(flag.load(Ordering::SeqCst), "watchdog must fire on a slot that never moves");
    }

    #[test]
    fn progress_adds_alone_keep_the_watchdog_quiet() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let (watch, flag) = watch(150);
        let slot = tmm_obs::progress_start("supervisor-test-busy", "", 0);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(600) {
            slot.add(1);
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(watch);
        drop(slot);
        assert!(!flag.load(Ordering::SeqCst), "a slot that keeps advancing must not trip");
    }

    #[test]
    fn the_watch_holds_publishing_on_only_while_armed() {
        let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let (watch, _flag) = watch(60_000);
        assert!(tmm_obs::live_enabled());
        drop(watch);
        assert!(!tmm_obs::live_enabled());
    }
}
