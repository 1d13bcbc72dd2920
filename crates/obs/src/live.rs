//! The live status endpoint: zero-dependency blocking HTTP/1.0 serving
//!
//! * `/metrics` — the deterministic Prometheus registry
//!   ([`crate::export_metrics`]) **plus** a live-only appendix: one
//!   windowed `tmm_progress_per_sec` rate per active progress slot,
//!   current and peak RSS, dropped-span and uptime gauges. The appendix
//!   exists only in this response, never in `--metrics-out` artifacts, so
//!   a run with the endpoint up stays byte-identical to one without.
//! * `/progress` — the `tmm-progress/v1` heartbeat JSON
//!   ([`crate::progress::render_progress_json`]) including each row's
//!   windowed `per_sec` and the RSS timeline sampled by the sampler
//!   thread.
//! * `/spans` — the currently-open span stack per thread
//!   (`tmm-spans/v1`).
//!
//! Requests are served by one handler of the shared blocking listener
//! ([`crate::http::listen`], listener name `status`). A separate sampler
//! thread records `(at_ms, rss_bytes, spans_buffered)` every 250 ms into
//! a bounded ring, and samples every active progress slot's
//! `(generation, done)` for the rates. Dropping the returned
//! [`LiveStatus`] guard stops both and releases its live-telemetry hold.

use crate::http::{listen, Listener, ListenerConfig, Request, Response};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// RSS timeline samples retained (at 4 samples/s this spans 2.5 min).
const RSS_TIMELINE_CAP: usize = 600;
/// Pause between RSS samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// One handler: scrapes are rare and cheap, and must not compete with
/// the run they observe.
const LISTENER: ListenerConfig = ListenerConfig {
    name: "status",
    handlers: 1,
    queue: 16,
    read_timeout: Duration::from_millis(500),
    write_timeout: Duration::from_secs(2),
    request_deadline: Duration::from_secs(2),
};

type RssTimeline = Arc<Mutex<VecDeque<(u64, u64, u64)>>>;

/// Guard for a running status endpoint. Keep it alive for the duration
/// of the run; dropping it stops the listener and the sampler and
/// releases its hold on live telemetry.
pub struct LiveStatus {
    addr: SocketAddr,
    listener: Option<Listener>,
    stop_sampler: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    _live: crate::progress::LiveHold,
}

impl LiveStatus {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for LiveStatus {
    fn drop(&mut self) {
        self.stop_sampler.store(true, Ordering::SeqCst);
        if let Some(h) = self.sampler.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        drop(self.listener.take());
        crate::progress::clear_rates();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port),
/// holds live telemetry on, and starts the listener and the sampler.
///
/// # Errors
///
/// Propagates the bind failure (address in use, bad syntax, …).
pub fn serve_status(addr: &str) -> std::io::Result<LiveStatus> {
    let timeline: RssTimeline = Arc::new(Mutex::new(VecDeque::new()));
    let route_timeline = Arc::clone(&timeline);
    let listener = listen(addr, LISTENER, move |req| route(req, &route_timeline))?;
    let live = crate::progress::hold_live();
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&stop_sampler);
    let sampler = std::thread::Builder::new()
        .name("tmm-status-rss".into())
        .spawn(move || sample_loop(&stop, &timeline))?;
    let addr = listener.addr();
    crate::log::info(&[("addr", addr.to_string().as_str())], "status endpoint up");
    Ok(LiveStatus {
        addr,
        listener: Some(listener),
        stop_sampler,
        sampler: Some(sampler),
        _live: live,
    })
}

/// Samples now and then every [`SAMPLE_EVERY`] until `stop`; drop
/// unparks the thread, so it never waits out a full period.
fn sample_loop(stop: &AtomicBool, timeline: &RssTimeline) {
    let started = Instant::now();
    let mut next = started;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now >= next {
            sample_rss(started, timeline);
            crate::progress::sample_rates();
            next = now + SAMPLE_EVERY;
        }
        std::thread::park_timeout(next.saturating_duration_since(Instant::now()));
    }
}

fn sample_rss(started: Instant, timeline: &RssTimeline) {
    let at_ms = started.elapsed().as_millis() as u64;
    let rss = crate::report::current_rss_bytes();
    let spans = crate::span::trace_record_count() as u64;
    let mut tl = timeline.lock().unwrap_or_else(PoisonError::into_inner);
    if tl.len() >= RSS_TIMELINE_CAP {
        tl.pop_front();
    }
    tl.push_back((at_ms, rss, spans));
}

fn route(req: &Request, timeline: &RssTimeline) -> Response {
    if req.method != "GET" && req.method != "HEAD" {
        return (405, "text/plain", "method not allowed\n".to_string());
    }
    match req.path.as_str() {
        "/metrics" => {
            let mut body = crate::metrics::export_metrics();
            body.push_str(&live_metrics_appendix());
            (200, "text/plain; version=0.0.4", body)
        }
        "/progress" => {
            let samples: Vec<(u64, u64, u64)> = {
                let tl = timeline.lock().unwrap_or_else(PoisonError::into_inner);
                tl.iter().copied().collect()
            };
            (200, "application/json", crate::progress::render_progress_json(&samples))
        }
        "/spans" => (200, "application/json", render_spans_json()),
        "/" => (
            200,
            "text/plain",
            "tmm live status\nendpoints: /metrics /progress /spans\n".to_string(),
        ),
        _ => (404, "text/plain", "not found\n".to_string()),
    }
}

/// Live-only gauge lines appended to the `/metrics` response: one
/// windowed rate per active progress slot plus process vitals. Never
/// part of `--metrics-out`.
#[must_use]
pub fn live_metrics_appendix() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let live: Vec<_> =
        crate::progress::progress_entries().into_iter().filter(|e| e.active).collect();
    if !live.is_empty() {
        let _ = writeln!(out, "# TYPE tmm_progress_per_sec gauge");
    }
    let window = format!("{}s", crate::progress::RATE_WINDOW_SECS);
    for e in &live {
        out.push_str("tmm_progress_per_sec");
        out.push_str(&crate::metrics::render_labels(&[
            ("stage", &e.stage),
            ("design", &e.design),
            ("window", &window),
        ]));
        out.push(' ');
        crate::json::write_number(&mut out, e.per_sec);
        out.push('\n');
    }
    let _ = writeln!(out, "# TYPE tmm_live_rss_bytes gauge");
    let _ = writeln!(out, "tmm_live_rss_bytes {}", crate::report::current_rss_bytes());
    let _ = writeln!(out, "# TYPE tmm_live_peak_rss_bytes gauge");
    let _ = writeln!(out, "tmm_live_peak_rss_bytes {}", crate::report::peak_rss_bytes());
    let _ = writeln!(out, "# TYPE tmm_live_dropped_spans_total gauge");
    let _ = writeln!(out, "tmm_live_dropped_spans_total {}", crate::span::dropped_spans());
    let _ = writeln!(out, "# TYPE tmm_live_uptime_seconds gauge");
    let _ = writeln!(out, "tmm_live_uptime_seconds {}", crate::progress::epoch_micros() / 1_000_000);
    out
}

/// Renders the `tmm-spans/v1` document: every thread's currently-open
/// span stack, outermost first.
#[must_use]
pub fn render_spans_json() -> String {
    use std::fmt::Write as _;
    let now_us = crate::progress::epoch_micros();
    let snapshot = crate::span::open_span_snapshot();
    let mut out = String::with_capacity(128 + snapshot.len() * 160);
    out.push_str("{\"schema\":\"tmm-spans/v1\",\"threads\":[");
    for (i, (tid, stack)) in snapshot.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"tid\":{tid},\"stack\":[");
        for (j, s) in stack.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            crate::json::write_escaped(&mut out, s.name);
            out.push_str(",\"cat\":");
            crate::json::write_escaped(&mut out, s.cat);
            let _ = write!(
                out,
                ",\"depth\":{},\"start_us\":{},\"elapsed_ms\":{}}}",
                s.depth,
                s.start_us,
                now_us.saturating_sub(s.start_us) / 1000
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn endpoint_serves_all_routes() {
        let _live = crate::progress::LIVE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let live = serve_status("127.0.0.1:0").expect("bind");
        let addr = live.addr();
        assert!(crate::progress::live_enabled());

        let p = crate::progress::progress_start("live_test_stage", "d", 10);
        p.add(4);

        let (status, body) = http_get(addr, "/progress");
        assert_eq!(status, 200);
        let v = crate::json::parse(&body).expect("progress JSON parses");
        assert_eq!(
            v.get("schema").and_then(crate::json::Value::as_str),
            Some("tmm-progress/v1")
        );
        let slots = v.get("slots").and_then(|s| s.as_array()).expect("slots");
        assert!(
            slots.iter().any(|s| {
                s.get("stage").and_then(crate::json::Value::as_str) == Some("live_test_stage")
            }),
            "{body}"
        );

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("tmm_live_rss_bytes"), "{body}");
        assert!(
            body.contains(
                "tmm_progress_per_sec{design=\"d\",stage=\"live_test_stage\",window=\"10s\"}"
            ),
            "{body}"
        );
        crate::validate::validate_metrics_text(&body).expect("valid exposition");

        let (status, body) = http_get(addr, "/spans");
        assert_eq!(status, 200);
        let v = crate::json::parse(&body).expect("spans JSON parses");
        assert_eq!(
            v.get("schema").and_then(crate::json::Value::as_str),
            Some("tmm-spans/v1")
        );

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);

        drop(p);
        drop(live);
        assert!(!crate::progress::live_enabled(), "drop releases the live hold");
        crate::progress::reset_progress();
    }

    #[test]
    fn spans_json_renders_open_stack() {
        let _live = crate::progress::LIVE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let live = crate::progress::hold_live();
        let _s = crate::span::span("render_open", "stage");
        let doc = render_spans_json();
        let v = crate::json::parse(&doc).expect("valid");
        let threads = v.get("threads").and_then(|t| t.as_array()).expect("threads");
        assert!(threads.iter().any(|t| {
            t.get("stack").and_then(|s| s.as_array()).is_some_and(|stack| {
                stack.iter().any(|s| {
                    s.get("name").and_then(crate::json::Value::as_str) == Some("render_open")
                })
            })
        }));
        drop(_s);
        drop(live);
    }
}
