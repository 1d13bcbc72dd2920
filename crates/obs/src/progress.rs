//! Progress heartbeats for long-running stages: a fixed pool of
//! lock-free slots each publishing `{stage, design, done, total}`. The
//! slots are the pipeline's one record of liveness: the live status
//! endpoint ([`crate::live`]) renders them as `/progress` JSON and derives
//! the windowed `tmm_progress_per_sec` rates from them, and the stage
//! deadline watchdog (`tmm_ckpt::StageSupervisor`) watches
//! [`slot_pulse`] for movement.
//!
//! The design keeps the pipeline's overhead contract intact:
//!
//! * **Disabled path** — [`progress_start`] begins with one relaxed atomic
//!   load and returns an inert handle while nobody [`hold_live`]s
//!   publishing: no allocation, no locking, no clock read. Heartbeat
//!   updates on an inert handle are a branch on an `Option`.
//! * **Steady state** — once a stage holds a slot, every update
//!   ([`ProgressTask::add`], [`ProgressTask::set_done`]) is a single
//!   relaxed atomic RMW/store into the pre-claimed slot: zero allocation,
//!   no locks, no clock read, safe to call from any worker thread. Rates
//!   are computed by the sampler that reads the slots, never here.
//! * **Slot claim/release** — the only locking happens at stage
//!   boundaries (claiming a slot stores the stage/design strings under a
//!   mutex), which is cold by construction.
//!
//! Progress is read-only telemetry: nothing here feeds back into
//! computation, so enabling it cannot change any numerical result.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of concurrently publishable slots. Stages are coarse (one slot
/// per long-running loop), so collisions only matter under pathological
/// nesting; an exhausted pool degrades to inert handles, never an error.
const SLOT_COUNT: usize = 32;

/// Completed-stage snapshots retained for `/progress` (latest per
/// `{stage, design}` pair, bounded).
const COMPLETED_CAP: usize = 64;

/// Horizon of the windowed `per_sec` rates, seconds.
pub const RATE_WINDOW_SECS: u64 = 10;

static LIVE_HOLDS: AtomicUsize = AtomicUsize::new(0);

/// Claims plus releases so far; a claim's value is its generation.
static SLOT_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Keeps live telemetry (progress slots, open-span stacks) on while
/// alive. Holders count: the status endpoint and the deadline watchdog
/// each hold one, and dropping either leaves the other's publishing on.
#[must_use = "live telemetry switches off again when the hold drops"]
#[derive(Debug)]
pub struct LiveHold(());

/// Turns live telemetry on until the returned hold drops.
pub fn hold_live() -> LiveHold {
    LIVE_HOLDS.fetch_add(1, Ordering::Relaxed);
    LiveHold(())
}

impl Drop for LiveHold {
    fn drop(&mut self) {
        LIVE_HOLDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// `true` while anyone holds live telemetry on (one relaxed load).
#[inline]
#[must_use]
pub fn live_enabled() -> bool {
    LIVE_HOLDS.load(Ordering::Relaxed) > 0
}

/// One heartbeat slot: atomics for the hot fields, claimed flag for
/// pool membership. Stage/design strings live in the side metadata table
/// so the hot path never touches them.
struct Slot {
    claimed: AtomicBool,
    /// The claim's generation while published, 0 while free or being
    /// (re)claimed — so a re-claimed slot never reads as the old claim.
    generation: AtomicU64,
    done: AtomicU64,
    total: AtomicU64,
    start_us: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            claimed: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
        }
    }
}

fn slots() -> &'static Vec<Slot> {
    static SLOTS: OnceLock<Vec<Slot>> = OnceLock::new();
    SLOTS.get_or_init(|| (0..SLOT_COUNT).map(|_| Slot::new()).collect())
}

/// Stage/design names per slot, written only at claim/release.
fn meta() -> MutexGuard<'static, Vec<Option<(String, String)>>> {
    static META: OnceLock<Mutex<Vec<Option<(String, String)>>>> = OnceLock::new();
    META.get_or_init(|| Mutex::new(vec![None; SLOT_COUNT]))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Final snapshots of completed stages, latest per `{stage, design}`.
fn completed() -> MutexGuard<'static, Vec<ProgressEntry>> {
    static DONE: OnceLock<Mutex<Vec<ProgressEntry>>> = OnceLock::new();
    DONE.get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Microseconds since the shared process epoch.
pub(crate) fn epoch_micros() -> u64 {
    crate::span::epoch().elapsed().as_micros() as u64
}

/// A claimed heartbeat slot (or an inert handle while live telemetry is
/// disabled). Updates are lock-free; the slot is released and its final
/// state archived when the handle drops.
#[must_use = "progress stops publishing when the handle drops"]
pub struct ProgressTask {
    slot: Option<usize>,
}

/// Claims a heartbeat slot for a stage processing `total` units (0 =
/// unknown or open-ended). Returns an inert handle when live telemetry is
/// disabled or the pool is exhausted — publishing is best-effort by
/// design.
pub fn progress_start(stage: &str, design: &str, total: u64) -> ProgressTask {
    if !live_enabled() {
        return ProgressTask { slot: None };
    }
    let pool = slots();
    for (i, slot) in pool.iter().enumerate() {
        if slot
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            slot.done.store(0, Ordering::Relaxed);
            slot.total.store(total, Ordering::Relaxed);
            slot.start_us.store(epoch_micros(), Ordering::Relaxed);
            meta()[i] = Some((stage.to_string(), design.to_string()));
            let generation = SLOT_EVENTS.fetch_add(1, Ordering::AcqRel) + 1;
            // Release pairs with the Acquire generation loads of the
            // readers: one that sees this claim sees its reset `done`.
            slot.generation.store(generation, Ordering::Release);
            return ProgressTask { slot: Some(i) };
        }
    }
    ProgressTask { slot: None }
}

impl ProgressTask {
    /// Adds `n` completed units (relaxed fetch-add; callable from any
    /// worker thread). No-op on an inert handle.
    pub fn add(&self, n: u64) {
        if let Some(i) = self.slot {
            slots()[i].done.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets the completed-unit count absolutely.
    pub fn set_done(&self, done: u64) {
        if let Some(i) = self.slot {
            slots()[i].done.store(done, Ordering::Relaxed);
        }
    }

    /// Marks the stage complete: `done` snaps to `total`. Use when a
    /// stage finishes early (convergence, empty tail) so the heartbeat
    /// never reads as abandoned mid-flight.
    pub fn complete(&self) {
        if let Some(i) = self.slot {
            let slot = &slots()[i];
            let total = slot.total.load(Ordering::Relaxed);
            let done = slot.done.load(Ordering::Relaxed);
            slot.total.store(done.max(total).max(done), Ordering::Relaxed);
            slot.done.store(done.max(total), Ordering::Relaxed);
        }
    }
}

impl Drop for ProgressTask {
    fn drop(&mut self) {
        let Some(i) = self.slot else { return };
        let slot = &slots()[i];
        slot.generation.store(0, Ordering::Release);
        let entry = {
            let mut m = meta();
            let (stage, design) = m[i].take().unwrap_or_default();
            let start = slot.start_us.load(Ordering::Relaxed);
            ProgressEntry {
                stage,
                design,
                done: slot.done.load(Ordering::Relaxed),
                total: slot.total.load(Ordering::Relaxed),
                elapsed_ms: epoch_micros().saturating_sub(start) / 1000,
                ..ProgressEntry::default()
            }
        };
        {
            let mut done = completed();
            done.retain(|e| !(e.stage == entry.stage && e.design == entry.design));
            done.push(entry);
            let excess = done.len().saturating_sub(COMPLETED_CAP);
            if excess > 0 {
                done.drain(..excess);
            }
        }
        SLOT_EVENTS.fetch_add(1, Ordering::AcqRel);
        slot.claimed.store(false, Ordering::Release);
    }
}

/// A lock-free reading of the slot pool. Two pulses compare equal only
/// if no slot was claimed or released and no active slot's `done` moved
/// between them (short of `done` moving away and back again) — what the
/// deadline watchdog treats as silence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotPulse {
    /// Slot claims plus releases so far.
    pub events: u64,
    /// `(generation, done)` of every published slot, in slot order.
    pub active: Vec<(u64, u64)>,
}

/// Reads every slot's `(generation, done)` without taking a lock.
#[must_use]
pub fn slot_pulse() -> SlotPulse {
    let events = SLOT_EVENTS.load(Ordering::Acquire);
    let active = slots()
        .iter()
        .filter_map(|slot| {
            let generation = slot.generation.load(Ordering::Acquire);
            (generation != 0).then(|| (generation, slot.done.load(Ordering::Relaxed)))
        })
        .collect();
    SlotPulse { events, active }
}

/// Recent `(at_ms, done)` samples per claim generation.
type RateHistory = HashMap<u64, VecDeque<(u64, u64)>>;

/// The rate samples, fed by the live sampler thread ([`sample_rates`])
/// and read when rendering.
fn rate_history() -> MutexGuard<'static, RateHistory> {
    static HISTORY: OnceLock<Mutex<RateHistory>> = OnceLock::new();
    HISTORY.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Samples every published slot for the windowed rates, forgetting
/// claims that have ended and samples older than [`RATE_WINDOW_SECS`].
pub(crate) fn sample_rates() {
    let at_ms = epoch_micros() / 1000;
    let pulse = slot_pulse();
    let mut history = rate_history();
    history.retain(|g, _| pulse.active.iter().any(|(active, _)| active == g));
    for (generation, done) in pulse.active {
        let samples = history.entry(generation).or_default();
        samples.push_back((at_ms, done));
        while samples.front().is_some_and(|&(t, _)| at_ms - t > RATE_WINDOW_SECS * 1000) {
            samples.pop_front();
        }
    }
}

/// Forgets every rate sample (the sampler stopped).
pub(crate) fn clear_rates() {
    rate_history().clear();
}

/// Units per second between the oldest and newest sample of one claim;
/// 0 until it has two samples, and never negative (`set_done` may move
/// `done` backwards).
fn per_sec(samples: Option<&VecDeque<(u64, u64)>>) -> f64 {
    match samples.map(|s| (s.front(), s.back())) {
        Some((Some(&(t0, d0)), Some(&(t1, d1)))) if t1 > t0 => {
            d1.saturating_sub(d0) as f64 * 1000.0 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// One `/progress` row.
#[derive(Debug, Clone, Default)]
pub struct ProgressEntry {
    /// Stage name (`ts_sweep`, `macro_merge`, …).
    pub stage: String,
    /// Design the stage runs over (may be empty).
    pub design: String,
    /// Completed units.
    pub done: u64,
    /// Total units (0 = unknown).
    pub total: u64,
    /// Milliseconds since the stage claimed its slot.
    pub elapsed_ms: u64,
    /// `true` for live slots, `false` for archived completed stages.
    pub active: bool,
    /// The claim's generation (live slots; 0 once archived). The newest
    /// live claim is the innermost running stage.
    pub generation: u64,
    /// Units per second over the last [`RATE_WINDOW_SECS`] (live slots
    /// while the status sampler runs; 0 otherwise).
    pub per_sec: f64,
}

impl ProgressEntry {
    /// Remaining-time estimate from linear extrapolation, `None` until
    /// any progress is recorded or when the total is unknown.
    ///
    /// ECO streams can extend a stage mid-run, so `done > total` is a
    /// legal transient; it clamps to `Some(0)` (nothing known to remain)
    /// rather than wrapping `total - done` through `u64`.
    #[must_use]
    pub fn eta_ms(&self) -> Option<u64> {
        if self.done == 0 || self.total == 0 {
            return None;
        }
        let remaining = self.total.saturating_sub(self.done);
        Some(self.elapsed_ms.saturating_mul(remaining) / self.done)
    }
}

/// Snapshot of every live slot followed by the archived completed stages
/// (oldest first).
#[must_use]
pub fn progress_entries() -> Vec<ProgressEntry> {
    let now_us = epoch_micros();
    let pool = slots();
    let mut out = Vec::new();
    {
        let m = meta();
        let history = rate_history();
        for (i, slot) in pool.iter().enumerate() {
            let generation = slot.generation.load(Ordering::Acquire);
            if generation == 0 {
                continue;
            }
            let Some((stage, design)) = m[i].clone() else { continue };
            let start = slot.start_us.load(Ordering::Relaxed);
            out.push(ProgressEntry {
                stage,
                design,
                done: slot.done.load(Ordering::Relaxed),
                total: slot.total.load(Ordering::Relaxed),
                elapsed_ms: now_us.saturating_sub(start) / 1000,
                active: true,
                generation,
                per_sec: per_sec(history.get(&generation)),
            });
        }
    }
    out.extend(completed().iter().cloned());
    out
}

/// Clears the archived completed stages (live slots are untouched).
pub fn reset_progress() {
    completed().clear();
}

/// Renders the `/progress` heartbeat document (`tmm-progress/v1`).
/// `rss_timeline` is the service thread's `(at_ms, rss_bytes,
/// spans_buffered)` samples; pass `&[]` when no sampler is running.
#[must_use]
pub fn render_progress_json(rss_timeline: &[(u64, u64, u64)]) -> String {
    use std::fmt::Write as _;
    let entries = progress_entries();
    let mut out = String::with_capacity(256 + entries.len() * 128);
    out.push_str("{\"schema\":\"tmm-progress/v1\",\"uptime_ms\":");
    let _ = write!(out, "{}", epoch_micros() / 1000);
    out.push_str(",\"slots\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"stage\":");
        crate::json::write_escaped(&mut out, &e.stage);
        out.push_str(",\"design\":");
        crate::json::write_escaped(&mut out, &e.design);
        let _ = write!(
            out,
            ",\"done\":{},\"total\":{},\"elapsed_ms\":{},\"eta_ms\":",
            e.done, e.total, e.elapsed_ms
        );
        match e.eta_ms() {
            Some(ms) => {
                let _ = write!(out, "{ms}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"per_sec\":");
        crate::json::write_number(&mut out, e.per_sec);
        let _ = write!(out, ",\"active\":{}}}", e.active);
    }
    out.push_str("],\"rss\":{\"current_bytes\":");
    let _ = write!(out, "{}", crate::report::current_rss_bytes());
    out.push_str(",\"peak_bytes\":");
    let _ = write!(out, "{}", crate::report::peak_rss_bytes());
    out.push_str(",\"timeline\":[");
    for (i, (at_ms, rss, spans)) in rss_timeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"at_ms\":{at_ms},\"rss_bytes\":{rss},\"spans_buffered\":{spans}}}"
        );
    }
    out.push_str("]}}\n");
    out
}

/// The live flag is process-global, and libtest runs unit tests on
/// parallel threads: every test in this crate that enables or disables
/// live telemetry (or asserts on it) holds this lock.
#[cfg(test)]
pub(crate) static LIVE_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn with_live<R>(f: impl FnOnce() -> R) -> R {
        let _g = LIVE_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_progress();
        let hold = hold_live();
        let r = f();
        drop(hold);
        reset_progress();
        r
    }

    #[test]
    fn disabled_progress_is_inert() {
        let _g = LIVE_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_progress();
        let p = progress_start("stage", "design", 100);
        p.add(5);
        drop(p);
        assert!(progress_entries().is_empty());
    }

    #[test]
    fn slot_publishes_and_archives() {
        with_live(|| {
            let p = progress_start("ts_sweep", "d1", 10);
            p.add(3);
            p.add(4);
            let live: Vec<_> =
                progress_entries().into_iter().filter(|e| e.active).collect();
            assert_eq!(live.len(), 1);
            assert_eq!(live[0].stage, "ts_sweep");
            assert_eq!(live[0].done, 7);
            assert_eq!(live[0].total, 10);
            p.complete();
            drop(p);
            let entries = progress_entries();
            let archived: Vec<_> = entries.iter().filter(|e| !e.active).collect();
            assert_eq!(archived.len(), 1);
            assert_eq!(archived[0].done, 10, "complete() snaps done to total");
            assert!(entries.iter().all(|e| !e.active), "slot released on drop");
        });
    }

    #[test]
    fn holds_count_so_either_holder_keeps_publishing_on() {
        let _g = LIVE_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!live_enabled());
        let endpoint = hold_live();
        let watchdog = hold_live();
        drop(endpoint);
        assert!(live_enabled(), "the watchdog's hold outlives the endpoint's");
        drop(watchdog);
        assert!(!live_enabled());
    }

    #[test]
    fn pulse_moves_on_claim_add_and_release_only() {
        with_live(|| {
            let before = slot_pulse();
            assert_eq!(slot_pulse(), before, "nothing happened");
            let p = progress_start("pulse", "d", 0);
            let claimed = slot_pulse();
            assert_ne!(claimed, before, "a claim is movement");
            p.add(0);
            assert_eq!(slot_pulse(), claimed, "a zero add is not");
            p.add(2);
            let added = slot_pulse();
            assert_ne!(added, claimed, "an add is movement");
            drop(p);
            let released = slot_pulse();
            assert_ne!(released, added, "a release is movement");
            // Re-claiming (most likely the same slot) with the same `done`
            // still reads as a new claim, never as the old one.
            let q = progress_start("pulse", "d", 0);
            q.add(2);
            let reclaimed = slot_pulse();
            assert_ne!(reclaimed.active, added.active, "generation tells claims apart");
        });
    }

    #[test]
    fn per_sec_spans_the_window_and_never_goes_negative() {
        let samples: VecDeque<(u64, u64)> = [(1000, 10), (1250, 20), (2000, 60)].into();
        assert!((per_sec(Some(&samples)) - 50.0).abs() < 1e-9);
        let one: VecDeque<(u64, u64)> = [(1000, 10)].into();
        assert_eq!(per_sec(Some(&one)), 0.0, "one sample has no rate");
        assert_eq!(per_sec(None), 0.0);
        let back: VecDeque<(u64, u64)> = [(1000, 10), (2000, 4)].into();
        assert_eq!(per_sec(Some(&back)), 0.0, "set_done moved backwards");
    }

    #[test]
    fn sampled_slot_reports_its_rate() {
        with_live(|| {
            let p = progress_start("rated", "d", 0);
            sample_rates();
            p.add(500);
            std::thread::sleep(std::time::Duration::from_millis(20));
            sample_rates();
            let entry = progress_entries()
                .into_iter()
                .find(|e| e.active && e.stage == "rated")
                .expect("live row");
            assert!(entry.per_sec > 0.0, "{entry:?}");
            drop(p);
            clear_rates();
        });
    }

    #[test]
    fn eta_extrapolates_linearly() {
        let e = ProgressEntry {
            done: 25,
            total: 100,
            elapsed_ms: 1000,
            ..ProgressEntry::default()
        };
        assert_eq!(e.eta_ms(), Some(3000));
        let unknown = ProgressEntry { done: 5, total: 0, ..ProgressEntry::default() };
        assert_eq!(unknown.eta_ms(), None);
    }

    #[test]
    fn eta_clamps_when_stream_extends_past_total() {
        // An ECO stream reported total=100 then kept producing: done can
        // legitimately exceed total mid-run. The ETA must clamp to 0, not
        // wrap (total - done) through u64 into a ~584-million-year ETA.
        let over = ProgressEntry {
            done: 140,
            total: 100,
            elapsed_ms: 5000,
            ..ProgressEntry::default()
        };
        assert_eq!(over.eta_ms(), Some(0));
        let exact = ProgressEntry {
            done: 100,
            total: 100,
            elapsed_ms: 5000,
            ..ProgressEntry::default()
        };
        assert_eq!(exact.eta_ms(), Some(0));
        let none_done = ProgressEntry { done: 0, total: 100, ..ProgressEntry::default() };
        assert_eq!(none_done.eta_ms(), None);
    }

    #[test]
    fn progress_json_is_valid_and_schema_tagged() {
        with_live(|| {
            let p = progress_start("macro_merge", "d\"2", 4);
            p.add(1);
            let doc = render_progress_json(&[(10, 4096, 2)]);
            drop(p);
            let v = crate::json::parse(&doc).expect("valid progress JSON");
            assert_eq!(
                v.get("schema").and_then(crate::json::Value::as_str),
                Some("tmm-progress/v1")
            );
            let slots = v.get("slots").and_then(|s| s.as_array()).expect("slots");
            assert_eq!(slots.len(), 1);
            assert_eq!(
                slots[0].get("design").and_then(crate::json::Value::as_str),
                Some("d\"2")
            );
            assert_eq!(
                slots[0].get("per_sec").and_then(crate::json::Value::as_f64),
                Some(0.0),
                "an unsampled slot has no rate yet"
            );
            let rss = v.get("rss").expect("rss object");
            let timeline = rss.get("timeline").and_then(|t| t.as_array()).expect("timeline");
            assert_eq!(timeline.len(), 1);
        });
    }

    #[test]
    fn exhausted_pool_degrades_to_inert() {
        with_live(|| {
            let held: Vec<ProgressTask> =
                (0..SLOT_COUNT).map(|i| progress_start("s", &i.to_string(), 1)).collect();
            let overflow = progress_start("overflow", "d", 1);
            assert!(overflow.slot.is_none(), "pool exhaustion must degrade, not panic");
            drop(overflow);
            drop(held);
            let p = progress_start("after", "d", 1);
            assert!(p.slot.is_some(), "released slots are reusable");
        });
    }
}
