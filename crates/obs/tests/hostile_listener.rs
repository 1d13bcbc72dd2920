//! Hostile clients against the shared blocking listener.
//!
//! This is the only test in its binary, so no other test's threads share
//! the process thread count it bounds.

// Integration-test harness code: the clippy.toml test exemptions do not
// reach helper fns outside #[test], so state the exemption explicitly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tmm_obs::http::{listen, ListenerConfig};

const HANDLERS: usize = 2;
const QUEUE: usize = 4;
const IDLE_CLIENTS: usize = 32;

/// `Threads:` of this process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// The status code of the response `stream` receives before close.
fn status_of(stream: &mut TcpStream) -> u16 {
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("server answers, then closes");
    reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {reply:?}"))
}

#[test]
fn idle_flood_is_refused_with_bounded_threads_then_served() {
    tmm_obs::enable_metrics();
    let baseline = threads();
    let config = ListenerConfig {
        name: "hostile_test",
        handlers: HANDLERS,
        queue: QUEUE,
        // Only the whole-request deadline ends an idle connection.
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_millis(300),
    };
    let listener =
        listen("127.0.0.1:0", config, |req| (200, "text/plain", req.path.clone())).expect("bind");
    let addr = listener.addr();
    let mut peak = threads();

    // Connections that never send a byte: each accepted one holds a
    // handler until the deadline; the rest must be refused at once.
    let mut idle: Vec<TcpStream> =
        (0..IDLE_CLIENTS).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    peak = peak.max(threads());
    let (mut refused, mut timed_out) = (0, 0);
    for stream in &mut idle {
        stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        match status_of(stream) {
            503 => refused += 1,
            408 => timed_out += 1,
            other => panic!("idle client answered {other}"),
        }
        peak = peak.max(threads());
    }
    assert!(peak <= baseline + HANDLERS + 1, "threads peaked at {peak}, baseline {baseline}");
    // The queue takes QUEUE before any handler dequeues, and at most
    // HANDLERS + QUEUE are ever admitted.
    assert!(
        (QUEUE..=HANDLERS + QUEUE).contains(&timed_out),
        "{timed_out} admitted, {refused} refused"
    );
    assert_eq!(refused + timed_out, IDLE_CLIENTS);
    assert!(
        tmm_obs::export_metrics().contains(&format!("tmm_http_refused_total {refused}\n")),
        "one counter increment per 503"
    );

    // Every idle connection is gone: a well-formed request is served.
    let (status, body) = tmm_obs::http_request(addr, "GET", "/after", "").expect("request");
    assert_eq!((status, body.as_str()), (200, "/after"));

    // Drop is prompt even with handlers blocked on idle clients: each
    // finishes within its deadline and queued ones are closed unserved.
    let _busy: Vec<TcpStream> =
        (0..HANDLERS + 1).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    let started = Instant::now();
    drop(listener);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "drop took {took:?}");
    assert!(TcpStream::connect(addr).is_err(), "port closed after drop");
}
