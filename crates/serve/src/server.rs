//! The TCP front-end: the routes of `tmm serve` on the shared `tmm-obs`
//! blocking listener ([`tmm_obs::http::listen`]) — still zero
//! dependencies.
//!
//! Routes:
//!
//! * `POST /v1` — a batch of protocol commands (newline-separated body),
//!   answered line-for-line (see [`crate::protocol`]).
//! * `GET /metrics` — the Prometheus registry plus the live appendix,
//!   which now includes the `tmm_serve_*` series.
//! * `GET /healthz` — `ok` plus the pooled design names.
//!
//! Connections are served by a fixed pool of 8 handler threads fed
//! through a queue of 64; one arriving while the queue is full is
//! answered `503` and closed, so thread count stays bounded however many
//! clients connect. The engine below is the concurrency boundary that
//! keeps results deterministic.

use crate::engine::ServeEngine;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tmm_obs::http::{listen, Listener, ListenerConfig, Request, Response};

/// Sizes and time bounds of the serve listener: a client waits for a
/// handler rather than being refused until 72 connections are open.
const LISTENER: ListenerConfig = ListenerConfig {
    name: "serve",
    handlers: 8,
    queue: 64,
    read_timeout: Duration::from_secs(10),
    write_timeout: Duration::from_secs(10),
    request_deadline: Duration::from_secs(30),
};

/// Guard for a running serve endpoint: dropping it stops the listener
/// and joins its threads (engine workers stop when the engine itself
/// drops).
pub struct ServerHandle {
    listener: Listener,
    engine: Arc<ServeEngine>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The engine, for in-process submission alongside the socket.
    #[must_use]
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }
}

/// Binds `addr` and starts accepting serve traffic for `engine`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(engine: Arc<ServeEngine>, addr: &str) -> std::io::Result<ServerHandle> {
    let route_engine = Arc::clone(&engine);
    let listener = listen(addr, LISTENER, move |req| route(req, &route_engine))?;
    tmm_obs::info(&[("addr", listener.addr().to_string().as_str())], "serve endpoint up");
    Ok(ServerHandle { listener, engine })
}

fn route(req: &Request, engine: &ServeEngine) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1") => (200, "text/plain", engine.submit_lines(&req.body)),
        ("GET" | "HEAD", "/metrics") => {
            let mut body = tmm_obs::export_metrics();
            body.push_str(&tmm_obs::live::live_metrics_appendix());
            (200, "text/plain; version=0.0.4", body)
        }
        ("GET" | "HEAD", "/healthz") => {
            (200, "text/plain", format!("ok {}\n", engine.pool().names().join(" ")))
        }
        ("GET" | "HEAD", "/") => (
            200,
            "text/plain",
            "tmm serve\nendpoints: POST /v1, GET /metrics, GET /healthz\n".to_string(),
        ),
        ("POST" | "GET" | "HEAD", _) => (404, "text/plain", "not found\n".to_string()),
        _ => (405, "text/plain", "method not allowed\n".to_string()),
    }
}
