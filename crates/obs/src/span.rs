//! Hierarchical tracing spans with monotonic timings, exported as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` and Perfetto).
//!
//! Spans are recorded into **per-thread buffers** and merged into the
//! process-global trace when the thread's outermost span closes; at export
//! the merged records are sorted by `(start, -duration, name, tid)` so the
//! emitted file is deterministic for a given set of recorded intervals.
//!
//! Buffers are **bounded** ([`set_span_buffer_cap`]): once a thread buffer
//! (or the merged trace) reaches the cap, the oldest depth>0 record is
//! dropped and [`dropped_spans`] is incremented, so `--trace-out` on a
//! multi-million-pin run cannot dominate RSS. Depth-0 stage spans are
//! never dropped — they feed [`stage_summaries`] and the run report.
//! While a thread's buffer is filling its root span is still open, so the
//! buffer holds only depth≥1 records and dropping from the front is
//! always safe.
//!
//! Tracing is **disabled by default**: [`span`] then returns an inert
//! guard after two relaxed atomic loads — no clock read, no allocation —
//! so instrumented code paths cost nothing in production runs and in the
//! `zero_alloc` harness. When the live status endpoint is up
//! ([`crate::progress::live_enabled`]) spans additionally maintain a
//! per-thread **open-span stack** ([`open_span_snapshot`]) served at
//! `/spans`; that bookkeeping never touches the recorded trace, so live
//! telemetry cannot change any exported artifact.

use crate::report::process_cpu_seconds;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Default cap on buffered span records (per thread buffer and for the
/// merged trace): bounds trace memory to tens of MiB on huge runs.
pub const DEFAULT_SPAN_BUFFER_CAP: usize = 262_144;

static SPAN_BUFFER_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_SPAN_BUFFER_CAP);
static DROPPED_SPANS: AtomicU64 = AtomicU64::new(0);

/// Enables span recording process-wide.
pub fn enable_tracing() {
    TRACING_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables span recording; already-recorded spans are retained until
/// [`reset_trace`].
pub fn disable_tracing() {
    TRACING_ENABLED.store(false, Ordering::Relaxed);
}

/// `true` when span recording is on (one relaxed load).
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Sets the cap on buffered span records. Applies independently to each
/// thread's fill buffer and to the merged global trace; 0 is clamped to 1.
pub fn set_span_buffer_cap(cap: usize) {
    SPAN_BUFFER_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The current span-buffer cap.
#[must_use]
pub fn span_buffer_cap() -> usize {
    SPAN_BUFFER_CAP.load(Ordering::Relaxed)
}

/// Total spans dropped to honour the buffer cap since the last
/// [`reset_trace`].
#[must_use]
pub fn dropped_spans() -> u64 {
    DROPPED_SPANS.load(Ordering::Relaxed)
}

/// The process epoch all span timestamps are relative to. Shared with the
/// progress/window clocks so every live timestamp is comparable.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (trace event `name`).
    pub name: &'static str,
    /// Category (trace event `cat`); stage-level spans use `"stage"`.
    pub cat: &'static str,
    /// Start offset from the process epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Process CPU seconds consumed between open and close (all threads).
    pub cpu_s: f64,
    /// Stable per-thread id (assignment order of first span per thread).
    pub tid: u64,
    /// Nesting depth on its thread (0 = outermost).
    pub depth: usize,
    /// Pre-rendered JSON object body for the `args` field (no braces), or
    /// empty.
    pub args: String,
}

/// A currently-open span on some thread, as served by `/spans`.
#[derive(Debug, Clone)]
pub struct OpenSpanInfo {
    /// Span name.
    pub name: &'static str,
    /// Category.
    pub cat: &'static str,
    /// Start offset from the process epoch, microseconds.
    pub start_us: u64,
    /// Nesting depth on its thread (0 = outermost).
    pub depth: usize,
}

fn global_trace() -> MutexGuard<'static, Vec<SpanRecord>> {
    static TRACE: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    TRACE
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Open-span stacks keyed by tid. Touched only while live telemetry is
/// enabled, at span open/close (never in the disabled fast path).
fn open_spans() -> MutexGuard<'static, BTreeMap<u64, Vec<OpenSpanInfo>>> {
    static OPEN: OnceLock<Mutex<BTreeMap<u64, Vec<OpenSpanInfo>>>> = OnceLock::new();
    OPEN.get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Snapshot of every thread's currently-open span stack (outermost
/// first), keyed by tid. Empty unless live telemetry is enabled.
#[must_use]
pub fn open_span_snapshot() -> Vec<(u64, Vec<OpenSpanInfo>)> {
    open_spans().iter().map(|(tid, stack)| (*tid, stack.clone())).collect()
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
    static BUFFER: RefCell<VecDeque<SpanRecord>> = const { RefCell::new(VecDeque::new()) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// An open span; records itself into the thread buffer on drop. Obtained
/// from [`span`]; inert (and free) while tracing is disabled.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    live: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    cpu_start: f64,
    depth: usize,
    args: String,
    /// Record into the trace buffer at close (tracing was on at open).
    traced: bool,
    /// Pop the live open-span stack at close (live telemetry was on at
    /// open) — flags are latched at open so toggles mid-span stay
    /// balanced.
    live_tracked: bool,
}

/// Opens a span. While both tracing and live telemetry are disabled this
/// is two relaxed loads and returns an inert guard. Spans nest
/// per-thread; close order must be LIFO (guaranteed by drop scoping).
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    let traced = tracing_enabled();
    let live_tracked = crate::progress::live_enabled();
    if !traced && !live_tracked {
        return SpanGuard { live: None };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let start_us = epoch().elapsed().as_micros() as u64;
    if live_tracked {
        open_spans()
            .entry(thread_id())
            .or_default()
            .push(OpenSpanInfo { name, cat, start_us, depth });
    }
    SpanGuard {
        live: Some(OpenSpan {
            name,
            cat,
            start_us,
            // CPU sampling is /proc-backed and stage-granular; only
            // outermost traced spans pay for it.
            cpu_start: if depth == 0 && traced { process_cpu_seconds() } else { f64::NAN },
            depth,
            args: String::new(),
            traced,
            live_tracked,
        }),
    }
}

impl SpanGuard {
    /// Attaches a string argument rendered into the trace event's `args`
    /// object. No-op on an inert guard.
    pub fn arg(&mut self, key: &str, value: &str) {
        if let Some(open) = &mut self.live {
            if !open.args.is_empty() {
                open.args.push(',');
            }
            crate::json::write_escaped(&mut open.args, key);
            open.args.push(':');
            crate::json::write_escaped(&mut open.args, value);
        }
    }

    /// Attaches a numeric argument. No-op on an inert guard.
    pub fn arg_f64(&mut self, key: &str, value: f64) {
        if let Some(open) = &mut self.live {
            if !open.args.is_empty() {
                open.args.push(',');
            }
            crate::json::write_escaped(&mut open.args, key);
            open.args.push(':');
            crate::json::write_number(&mut open.args, value);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.live.take() else { return };
        DEPTH.with(|d| d.set(open.depth));
        if open.live_tracked {
            let mut map = open_spans();
            if let Some(stack) = map.get_mut(&thread_id()) {
                stack.pop();
                if stack.is_empty() {
                    map.remove(&thread_id());
                }
            }
        }
        // Stage spans publish their close-time RSS high-water mark into
        // the registry (gauge_set is itself gated on metrics being on).
        if open.cat == crate::STAGE_CAT && crate::metrics::metrics_enabled() {
            crate::metrics::gauge_set(
                "tmm_stage_peak_rss_bytes",
                &[("stage", open.name)],
                crate::report::peak_rss_bytes() as f64,
            );
        }
        if !open.traced {
            return;
        }
        // End and start truncate against the same epoch, so a child that
        // closes before its parent never reads as ending after it.
        let end_us = epoch().elapsed().as_micros() as u64;
        let dur_us = end_us.saturating_sub(open.start_us);
        let cpu_s = if open.cpu_start.is_finite() {
            (process_cpu_seconds() - open.cpu_start).max(0.0)
        } else {
            0.0
        };
        let record = SpanRecord {
            name: open.name,
            cat: open.cat,
            start_us: open.start_us,
            dur_us,
            cpu_s,
            tid: thread_id(),
            depth: open.depth,
            args: open.args,
        };
        let cap = span_buffer_cap();
        BUFFER.with(|b| {
            let mut buf = b.borrow_mut();
            if buf.len() >= cap {
                // The root span closes last, so a full buffer holds only
                // depth>0 records: the front is the oldest droppable one.
                buf.pop_front();
                DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
            }
            buf.push_back(record);
        });
        if open.depth == 0 {
            // Outermost span on this thread closed: merge the thread
            // buffer into the global trace, then enforce the cap there
            // too (oldest depth>0 records go first; depth-0 stage spans
            // are never dropped).
            let drained: Vec<SpanRecord> =
                BUFFER.with(|b| b.borrow_mut().drain(..).collect());
            let mut trace = global_trace();
            trace.extend(drained);
            if trace.len() > cap {
                let mut excess = trace.len() - cap;
                trace.retain(|r| {
                    if excess > 0 && r.depth > 0 {
                        excess -= 1;
                        DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
                        false
                    } else {
                        true
                    }
                });
            }
        }
    }
}

/// Number of merged span records currently held (cheap; no clone). Used
/// by the live RSS sampler to correlate memory with trace growth.
#[must_use]
pub fn trace_record_count() -> usize {
    global_trace().len()
}

/// Snapshot of every merged span, deterministically ordered by
/// `(start, longest-first, name, tid)`.
#[must_use]
pub fn trace_records() -> Vec<SpanRecord> {
    let mut records = global_trace().clone();
    records.sort_by(|a, b| {
        a.start_us
            .cmp(&b.start_us)
            .then(b.dur_us.cmp(&a.dur_us))
            .then(a.name.cmp(b.name))
            .then(a.tid.cmp(&b.tid))
    });
    records
}

/// Clears every merged span and the dropped-span counter (the enabled
/// flag and the buffer cap are untouched). Spans still buffered on live
/// threads are unaffected.
pub fn reset_trace() {
    global_trace().clear();
    DROPPED_SPANS.store(0, Ordering::Relaxed);
}

/// Aggregated wall/CPU time of stage-level spans (category `"stage"`), in
/// first-seen order: `(name, wall_seconds, cpu_seconds)`.
#[must_use]
pub fn stage_summaries() -> Vec<(String, f64, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut wall: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut cpu: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for r in trace_records() {
        if r.cat != "stage" {
            continue;
        }
        if !wall.contains_key(r.name) {
            order.push(r.name.to_string());
        }
        *wall.entry(r.name.to_string()).or_insert(0.0) += r.dur_us as f64 / 1e6;
        *cpu.entry(r.name.to_string()).or_insert(0.0) += r.cpu_s;
    }
    order
        .into_iter()
        .map(|n| {
            let w = wall.get(&n).copied().unwrap_or(0.0);
            let c = cpu.get(&n).copied().unwrap_or(0.0);
            (n, w, c)
        })
        .collect()
}

/// Renders the merged trace as a Chrome `trace_event` JSON document
/// (object format with a `traceEvents` array of complete `"X"` events).
#[must_use]
pub fn export_trace() -> String {
    use std::fmt::Write as _;
    let records = trace_records();
    let mut out = String::with_capacity(256 + records.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"ph\":\"X\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", r.tid);
        out.push_str(",\"ts\":");
        let _ = write!(out, "{}", r.start_us);
        out.push_str(",\"dur\":");
        let _ = write!(out, "{}", r.dur_us);
        out.push_str(",\"name\":");
        crate::json::write_escaped(&mut out, r.name);
        out.push_str(",\"cat\":");
        crate::json::write_escaped(&mut out, r.cat);
        out.push_str(",\"args\":{");
        out.push_str(&r.args);
        if !r.args.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "\"depth\":{}", r.depth);
        if r.cpu_s > 0.0 {
            out.push_str(",\"cpu_ms\":");
            crate::json::write_number(&mut out, r.cpu_s * 1e3);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    static GUARD: TestMutex<()> = TestMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        reset_trace();
        enable_tracing();
        let r = f();
        disable_tracing();
        reset_trace();
        set_span_buffer_cap(DEFAULT_SPAN_BUFFER_CAP);
        r
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        reset_trace();
        disable_tracing();
        {
            let mut s = span("nothing", "test");
            s.arg("k", "v");
        }
        assert!(trace_records().is_empty());
        assert!(open_span_snapshot().is_empty());
    }

    #[test]
    fn nesting_invariants_hold() {
        with_tracing(|| {
            {
                let _outer = span("outer", "stage");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span("inner", "test");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                {
                    let _inner2 = span("inner2", "test");
                }
            }
            let records = trace_records();
            assert_eq!(records.len(), 3);
            let outer = records.iter().find(|r| r.name == "outer").expect("outer");
            assert_eq!(outer.depth, 0);
            for r in &records {
                if r.name == "outer" {
                    continue;
                }
                assert_eq!(r.depth, 1, "{}", r.name);
                assert!(r.start_us >= outer.start_us, "child starts inside parent");
                assert!(
                    r.start_us + r.dur_us <= outer.start_us + outer.dur_us,
                    "child ends inside parent"
                );
                assert_eq!(r.tid, outer.tid, "same thread, same tid");
            }
        });
    }

    #[test]
    fn worker_thread_spans_merge_at_close() {
        with_tracing(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _s = span("worker", "test");
                    });
                }
            });
            let records = trace_records();
            assert_eq!(records.len(), 4);
            let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
            tids.sort_unstable();
            tids.dedup();
            assert_eq!(tids.len(), 4, "each worker gets its own tid");
        });
    }

    #[test]
    fn export_is_valid_json_with_args() {
        let text = with_tracing(|| {
            {
                let mut s = span("stage_a", "stage");
                s.arg("design", "d\"quoted\"");
                s.arg_f64("pins", 42.0);
            }
            export_trace()
        });
        let v = crate::json::parse(&text).expect("trace must parse as JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("ph").and_then(crate::json::Value::as_str), Some("X"));
        assert_eq!(
            e.get("args").and_then(|a| a.get("design")).and_then(crate::json::Value::as_str),
            Some("d\"quoted\"")
        );
    }

    #[test]
    fn stage_summaries_aggregate_by_name() {
        with_tracing(|| {
            for _ in 0..2 {
                let _s = span("stage_x", "stage");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _other = span("not_a_stage", "misc");
            drop(_other);
            let sums = stage_summaries();
            assert_eq!(sums.len(), 1);
            assert_eq!(sums[0].0, "stage_x");
            assert!(sums[0].1 >= 0.002, "two 1ms sleeps: {}", sums[0].1);
        });
    }

    #[test]
    fn buffer_cap_drops_oldest_inner_spans() {
        with_tracing(|| {
            set_span_buffer_cap(8);
            {
                let _root = span("capped_root", "stage");
                for _ in 0..20 {
                    let _inner = span("inner", "test");
                }
            }
            let records = trace_records();
            // Cap 8: seven inner survivors pre-root, then the root record
            // evicts one more at push; the root itself is never dropped.
            assert!(records.iter().any(|r| r.name == "capped_root"));
            assert!(records.len() <= 8, "{} records exceed cap", records.len());
            assert_eq!(dropped_spans(), 20 - (records.len() as u64 - 1));
        });
    }

    #[test]
    fn global_cap_preserves_depth0_records() {
        with_tracing(|| {
            set_span_buffer_cap(4);
            for _ in 0..6 {
                let _root = span("root", "stage");
                let _inner = span("inner", "test");
                drop(_inner);
            }
            let records = trace_records();
            assert!(records.len() <= 6, "roots are kept even over cap");
            let roots = records.iter().filter(|r| r.depth == 0).count();
            assert_eq!(roots, 6, "depth-0 spans are never dropped");
        });
    }

    #[test]
    fn live_open_span_stack_tracks_nesting() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let _live =
            crate::progress::LIVE_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_trace();
        disable_tracing();
        let live = crate::progress::hold_live();
        {
            let _a = span("live_outer", "stage");
            let _b = span("live_inner", "test");
            let snap = open_span_snapshot();
            assert_eq!(snap.len(), 1, "one thread has open spans");
            let stack = &snap[0].1;
            assert_eq!(stack.len(), 2);
            assert_eq!(stack[0].name, "live_outer");
            assert_eq!(stack[0].depth, 0);
            assert_eq!(stack[1].name, "live_inner");
            assert_eq!(stack[1].depth, 1);
        }
        assert!(open_span_snapshot().is_empty(), "stack pops on close");
        assert!(trace_records().is_empty(), "live-only spans are not recorded");
        drop(live);
    }
}
