//! Sliding-window instruments for the live status endpoint: rate
//! counters (events/s over the last N seconds) and windowed histograms
//! (recent p50/p95/mean), so `/metrics` reports *current* throughput
//! instead of lifetime averages.
//!
//! Window series are intentionally **not** part of the deterministic
//! registry ([`crate::metrics`]): their values depend on wall-clock
//! bucketing, so they appear only in the live endpoint's response
//! (appended by [`crate::live`]) and never in `--metrics-out` artifacts.
//! Recording is gated on [`crate::progress::live_enabled`] — one relaxed
//! load, then a by-`&str` map lookup on the pre-inserted series (no
//! allocation in steady state). Call sites are stage-granular (per
//! level, per TS chunk, per merge flush, per epoch), never per-pin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Seconds of history a rate window retains (ring size).
pub const RATE_BUCKETS: usize = 16;
/// Default averaging horizon for reported rates, seconds.
pub const RATE_HORIZON_SECS: u64 = 10;
/// Observations a windowed histogram retains.
pub const HIST_CAPACITY: usize = 256;
/// Age horizon for histogram summaries, seconds.
pub const HIST_HORIZON_SECS: u64 = 60;

fn now_sec() -> u64 {
    crate::span::epoch().elapsed().as_secs()
}

/// A ring of per-second event counts. Additions are lock-free; a bucket
/// whose second has rotated out is reset by the first writer to touch it
/// (a rare cross-thread race at second boundaries can under-count one
/// bucket — acceptable for telemetry).
pub struct RateWindow {
    secs: [AtomicU64; RATE_BUCKETS],
    counts: [AtomicU64; RATE_BUCKETS],
}

impl Default for RateWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RateWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        RateWindow {
            secs: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records `n` events at `at_sec` (seconds since the process epoch).
    pub fn add_at(&self, at_sec: u64, n: u64) {
        let i = (at_sec as usize) % RATE_BUCKETS;
        let prev = self.secs[i].swap(at_sec, Ordering::Relaxed);
        if prev != at_sec {
            self.counts[i].store(n, Ordering::Relaxed);
        } else {
            self.counts[i].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Events per second over `(at_sec - horizon, at_sec]`.
    #[must_use]
    pub fn rate_at(&self, at_sec: u64, horizon_secs: u64) -> f64 {
        let horizon = horizon_secs.max(1);
        let mut total = 0u64;
        for i in 0..RATE_BUCKETS {
            let sec = self.secs[i].load(Ordering::Relaxed);
            if sec != u64::MAX && sec <= at_sec && at_sec - sec < horizon {
                total += self.counts[i].load(Ordering::Relaxed);
            }
        }
        total as f64 / horizon as f64
    }
}

/// A bounded ring of timestamped observations summarised as recent
/// p50/p95/mean at export time.
pub struct WindowHist {
    /// `(at_sec, value)`, insertion-ordered, capped at [`HIST_CAPACITY`].
    entries: Mutex<Vec<(u64, f64)>>,
    next: AtomicU64,
}

impl Default for WindowHist {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        WindowHist { entries: Mutex::new(Vec::new()), next: AtomicU64::new(0) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<(u64, f64)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one observation at `at_sec`.
    pub fn observe_at(&self, at_sec: u64, v: f64) {
        if !v.is_finite() {
            return;
        }
        let slot = (self.next.fetch_add(1, Ordering::Relaxed) as usize) % HIST_CAPACITY;
        let mut entries = self.lock();
        if slot < entries.len() {
            entries[slot] = (at_sec, v);
        } else {
            entries.push((at_sec, v));
        }
    }

    /// `(count, mean, p50, p95)` over observations younger than
    /// [`HIST_HORIZON_SECS`] at `at_sec`; `None` when the window is empty.
    #[must_use]
    pub fn summary_at(&self, at_sec: u64) -> Option<(usize, f64, f64, f64)> {
        let mut recent: Vec<f64> = self
            .lock()
            .iter()
            .filter(|(sec, _)| *sec <= at_sec && at_sec - sec < HIST_HORIZON_SECS)
            .map(|(_, v)| *v)
            .collect();
        if recent.is_empty() {
            return None;
        }
        recent.sort_by(f64::total_cmp);
        let count = recent.len();
        let mean = recent.iter().sum::<f64>() / count as f64;
        let pick = |q: f64| recent[(((count - 1) as f64) * q).round() as usize];
        Some((count, mean, pick(0.50), pick(0.95)))
    }
}

enum Instrument {
    Rate(RateWindow),
    Hist(WindowHist),
}

fn registry() -> MutexGuard<'static, std::collections::BTreeMap<String, Instrument>> {
    static REG: OnceLock<Mutex<std::collections::BTreeMap<String, Instrument>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Records `n` events on the named rate window (created on first use).
/// One relaxed load and a no-op while live telemetry is disabled.
pub fn rate_add(name: &str, n: u64) {
    if !crate::progress::live_enabled() {
        return;
    }
    let at = now_sec();
    let mut reg = registry();
    if !reg.contains_key(name) {
        reg.insert(name.to_string(), Instrument::Rate(RateWindow::new()));
    }
    if let Some(Instrument::Rate(w)) = reg.get(name) {
        w.add_at(at, n);
    }
}

/// Records one observation on the named windowed histogram (created on
/// first use). No-op while live telemetry is disabled.
pub fn window_observe(name: &str, v: f64) {
    if !crate::progress::live_enabled() {
        return;
    }
    let at = now_sec();
    let mut reg = registry();
    if !reg.contains_key(name) {
        reg.insert(name.to_string(), Instrument::Hist(WindowHist::new()));
    }
    if let Some(Instrument::Hist(h)) = reg.get(name) {
        h.observe_at(at, v);
    }
}

/// Clears every window series (for tests).
pub fn reset_windows() {
    registry().clear();
}

/// Renders every window series as Prometheus gauge lines. Appended to the
/// live `/metrics` response only — never part of `--metrics-out`.
#[must_use]
pub fn export_windows() -> String {
    use std::fmt::Write as _;
    let at = now_sec();
    let mut out = String::new();
    for (name, inst) in registry().iter() {
        match inst {
            Instrument::Rate(w) => {
                let _ = writeln!(out, "# TYPE {name}_per_sec gauge");
                out.push_str(name);
                let _ = write!(out, "_per_sec{{window=\"{RATE_HORIZON_SECS}s\"}} ");
                crate::json::write_number(&mut out, w.rate_at(at, RATE_HORIZON_SECS));
                out.push('\n');
            }
            Instrument::Hist(h) => {
                let Some((count, mean, p50, p95)) = h.summary_at(at) else { continue };
                let _ = writeln!(out, "# TYPE {name}_window gauge");
                for (suffix, v) in
                    [("count", count as f64), ("mean", mean), ("p50", p50), ("p95", p95)]
                {
                    out.push_str(name);
                    let _ = write!(
                        out,
                        "_window{{window=\"{HIST_HORIZON_SECS}s\",stat=\"{suffix}\"}} "
                    );
                    crate::json::write_number(&mut out, v);
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    static GUARD: TestMutex<()> = TestMutex::new(());

    #[test]
    fn rate_window_reports_recent_rate() {
        let w = RateWindow::new();
        for sec in 100..110 {
            w.add_at(sec, 50);
        }
        // 500 events over the 10s horizon ending at sec 109.
        assert!((w.rate_at(109, 10) - 50.0).abs() < 1e-9);
        // 20 seconds later everything has aged out.
        assert!((w.rate_at(129, 10)).abs() < 1e-9);
    }

    #[test]
    fn rate_bucket_reuse_resets_stale_second() {
        let w = RateWindow::new();
        w.add_at(5, 100);
        // Second 5 + RATE_BUCKETS lands in the same ring slot.
        w.add_at(5 + RATE_BUCKETS as u64, 7);
        assert!((w.rate_at(5 + RATE_BUCKETS as u64, 1) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn hist_summary_orders_quantiles() {
        let h = WindowHist::new();
        for i in 1..=100 {
            h.observe_at(10, f64::from(i));
        }
        let (count, mean, p50, p95) = h.summary_at(10).expect("non-empty");
        assert_eq!(count, 100);
        assert!((mean - 50.5).abs() < 1e-9);
        assert!(p50 >= 50.0 && p50 <= 51.0, "p50 {p50}");
        assert!(p95 >= 95.0 && p95 <= 96.0, "p95 {p95}");
        assert!(h.summary_at(10 + HIST_HORIZON_SECS).is_none(), "ages out");
    }

    #[test]
    fn hist_ring_overwrites_oldest() {
        let h = WindowHist::new();
        for i in 0..(HIST_CAPACITY + 10) {
            h.observe_at(1, i as f64);
        }
        let (count, _, _, _) = h.summary_at(1).expect("non-empty");
        assert_eq!(count, HIST_CAPACITY);
    }

    #[test]
    fn registry_gates_on_live_and_exports() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let _live =
            crate::progress::LIVE_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        crate::progress::disable_live();
        reset_windows();
        rate_add("tmm_pins_processed", 10);
        window_observe("tmm_flush_ms", 5.0);
        assert!(export_windows().is_empty(), "disabled: nothing recorded");

        crate::progress::enable_live();
        rate_add("tmm_pins_processed", 10);
        window_observe("tmm_flush_ms", 5.0);
        let text = export_windows();
        assert!(text.contains("tmm_pins_processed_per_sec{window=\"10s\"}"), "{text}");
        assert!(text.contains("tmm_flush_ms_window{window=\"60s\",stat=\"p95\"}"), "{text}");
        crate::progress::disable_live();
        reset_windows();
    }
}
