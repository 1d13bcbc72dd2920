//! `tmm-obs`: zero-dependency observability for the TMM pipeline.
//!
//! Three facilities, all process-global and all **off by default**:
//!
//! * **Tracing spans** ([`span`], [`export_trace`]) — hierarchical,
//!   monotonic-clock timed, buffered per thread and merged
//!   deterministically when the enclosing root span closes. Exported as
//!   Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
//! * **Metrics registry** ([`counter_add`], [`gauge_set`], [`observe`],
//!   [`export_metrics`]) — counters, gauges, and fixed-bucket histograms,
//!   exported as Prometheus text exposition.
//! * **Structured logging** ([`log`], [`warn`], …) — leveled `key=value`
//!   events on stderr, configured via `TMM_LOG` or [`set_log_level`].
//!
//! Plus [`RunReport`] (a machine-readable per-run JSON summary) and the
//! artifact validators behind `tmm obscheck`.
//!
//! # Overhead contract
//!
//! Every recording entry point starts with one relaxed atomic load and
//! returns immediately when its subsystem is disabled — no allocation, no
//! locking, no syscalls. Hot loops (GEMM/CSR kernels, per-row training)
//! are never instrumented directly; instrumentation sits at stage, epoch,
//! design, and pin-probe granularity. Instrumentation is read-only: it
//! never feeds back into computation, so enabling it cannot change any
//! numerical result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod live;
pub mod log;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod span;
pub mod validate;

pub use log::{debug, error, info, log, log_enabled, log_level, set_log_level, warn, Level};
pub use metrics::{
    counter_add, disable_metrics, enable_metrics, export_metrics, gauge_set, metric_series_count,
    metrics_enabled, observe, observe_with_buckets, reset_metrics, DEFAULT_BUCKETS,
};
pub use http::{http_request, read_request, write_fully, write_response, Request};
pub use live::{serve_status, LiveStatus};
pub use progress::{
    hold_live, live_enabled, progress_entries, progress_start, render_progress_json,
    reset_progress, slot_pulse, LiveHold, ProgressEntry, ProgressTask, SlotPulse,
};
pub use report::{
    current_rss_bytes, fingerprint, peak_rss_bytes, process_cpu_seconds, render_bench_json,
    BenchRecord, RunReport, StageTime,
};
pub use span::{
    disable_tracing, dropped_spans, enable_tracing, export_trace, open_span_snapshot, reset_trace,
    set_span_buffer_cap, span, span_buffer_cap, stage_summaries, trace_record_count,
    trace_records, tracing_enabled, OpenSpanInfo, SpanGuard, DEFAULT_SPAN_BUFFER_CAP,
};
pub use validate::{
    validate_bench_json, validate_metrics_text, validate_progress_json, validate_run_report,
    validate_trace_json,
};

/// Category name for top-level pipeline-stage spans. Stage spans drive
/// [`stage_summaries`] and the `stages` array of [`RunReport`].
pub const STAGE_CAT: &str = "stage";
