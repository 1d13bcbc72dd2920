//! The sharded session engine.
//!
//! Sessions are pinned to one of a fixed pool of worker threads by
//! `session_id % workers` at open time; a session's operations execute on
//! that worker only, in submission order. That is the whole determinism
//! argument: per session there is exactly one executor and one total
//! order, so results are bit-identical to applying the same operations on
//! a single thread — the same discipline `run_leveled` uses (parallelism
//! may only change *when* work happens, never *what* is computed).
//!
//! Batching: one submitted batch becomes at most one job per shard. A
//! session records re-constraints without timing them, and its next query
//! runs one cone sweep for all of them; queries read the session's
//! incremental state in place.

use crate::protocol::{format_f64, format_quad, parse_command, Command};
use crate::session::{DesignPool, Session};
use crate::ServeError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// Engine construction options.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Worker (shard) threads. Clamped to at least 1.
    pub workers: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { workers: 4 }
    }
}

/// One operation routed to a shard: either a pre-assigned open or a
/// regular command.
enum Op {
    /// Open with the engine-assigned session id.
    Open { sid: u64, design: String },
    /// Any session-addressed command.
    Cmd(Command),
}

struct Job {
    ops: Vec<(usize, Op)>,
    reply: mpsc::Sender<Vec<(usize, String)>>,
}

struct Shard {
    tx: Mutex<mpsc::Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The concurrent what-if engine: a design pool plus a fixed worker pool.
pub struct ServeEngine {
    shards: Vec<Shard>,
    next_sid: AtomicU64,
    pool: Arc<DesignPool>,
    open_sessions: Arc<AtomicI64>,
    /// Open-ended progress slot counting submitted queries, the source of
    /// the live query rate (inert unless live telemetry is on when the
    /// engine starts).
    queries: tmm_obs::ProgressTask,
}

impl ServeEngine {
    /// Spawns the worker pool over `pool`.
    #[must_use]
    pub fn new(pool: Arc<DesignPool>, options: EngineOptions) -> ServeEngine {
        let workers = options.workers.max(1);
        let open_sessions = Arc::new(AtomicI64::new(0));
        let mut shards = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            let pool = Arc::clone(&pool);
            let open = Arc::clone(&open_sessions);
            let handle = std::thread::Builder::new()
                .name(format!("tmm-serve-{w}"))
                .spawn(move || worker_loop(&rx, &pool, &open))
                .ok();
            shards.push(Shard { tx: Mutex::new(tx), handle });
        }
        ServeEngine {
            shards,
            next_sid: AtomicU64::new(1),
            pool,
            open_sessions,
            queries: tmm_obs::progress_start("serve_queries", "", 0),
        }
    }

    /// The design pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<DesignPool> {
        &self.pool
    }

    /// Sessions currently open across all shards.
    #[must_use]
    pub fn open_sessions(&self) -> i64 {
        self.open_sessions.load(Ordering::Relaxed)
    }

    fn shard_of(&self, sid: u64) -> usize {
        (sid % self.shards.len() as u64) as usize
    }

    /// Executes one batch of commands and returns one response line per
    /// command, in order. Commands addressing different sessions may run
    /// concurrently (different shards); commands of one session run
    /// serially in batch order.
    #[must_use]
    pub fn submit(&self, cmds: Vec<Command>) -> Vec<String> {
        let n = cmds.len();
        let mut responses: Vec<Option<String>> = vec![None; n];
        let mut per_shard: Vec<Vec<(usize, Op)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut queries = 0;
        for (i, cmd) in cmds.into_iter().enumerate() {
            match cmd {
                Command::Ping => responses[i] = Some("ok".to_string()),
                Command::Open { design } => {
                    let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
                    per_shard[self.shard_of(sid)].push((i, Op::Open { sid, design }));
                }
                cmd => {
                    queries += u64::from(matches!(cmd, Command::Query { .. }));
                    // sid() is Some for everything but Open/Ping.
                    let sid = cmd.sid().unwrap_or(0);
                    per_shard[self.shard_of(sid)].push((i, Op::Cmd(cmd)));
                }
            }
        }
        let mut pending = Vec::new();
        for (shard, ops) in per_shard.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            let sent = {
                let tx = self.shards[shard].tx.lock().unwrap_or_else(PoisonError::into_inner);
                tx.send(Job { ops, reply: reply_tx }).is_ok()
            };
            if sent {
                pending.push(reply_rx);
            }
        }
        for rx in pending {
            if let Ok(lines) = rx.recv() {
                for (i, line) in lines {
                    responses[i] = Some(line);
                }
            }
        }
        self.queries.add(queries);
        responses
            .into_iter()
            .map(|r| r.unwrap_or_else(|| "err shard unavailable".to_string()))
            .collect()
    }

    /// Parses a newline-separated command body, executes it, and joins
    /// the response lines. Blank lines are skipped; parse errors turn
    /// into `err …` lines without aborting the rest of the batch.
    #[must_use]
    pub fn submit_lines(&self, body: &str) -> String {
        let lines: Vec<&str> =
            body.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        let mut parse_errs: Vec<(usize, String)> = Vec::new();
        let mut cmds = Vec::with_capacity(lines.len());
        let mut slots = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match parse_command(line) {
                Ok(cmd) => {
                    slots.push(i);
                    cmds.push(cmd);
                }
                Err(e) => parse_errs.push((i, format!("err {e}"))),
            }
        }
        tmm_obs::counter_add("tmm_serve_batches_total", &[], 1);
        let executed = self.submit(cmds);
        let mut out: Vec<String> = vec![String::new(); lines.len()];
        for (slot, line) in slots.into_iter().zip(executed) {
            out[slot] = line;
        }
        for (slot, line) in parse_errs {
            out[slot] = line;
        }
        let mut body = out.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        body
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops.
        for shard in &mut self.shards {
            let (dead_tx, _) = mpsc::channel();
            let mut guard = shard.tx.lock().unwrap_or_else(PoisonError::into_inner);
            *guard = dead_tx;
        }
        for shard in &mut self.shards {
            if let Some(h) = shard.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(
    rx: &mpsc::Receiver<Job>,
    pool: &Arc<DesignPool>,
    open_sessions: &Arc<AtomicI64>,
) {
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    while let Ok(job) = rx.recv() {
        let mut lines = Vec::with_capacity(job.ops.len());
        for (i, op) in job.ops {
            let line = execute(op, pool, &mut sessions, open_sessions);
            lines.push((i, line));
        }
        let _ = job.reply.send(lines);
    }
    open_sessions.fetch_sub(sessions.len() as i64, Ordering::Relaxed);
}

fn execute(
    op: Op,
    pool: &Arc<DesignPool>,
    sessions: &mut HashMap<u64, Session>,
    open_sessions: &Arc<AtomicI64>,
) -> String {
    match run_op(op, pool, sessions, open_sessions) {
        Ok(line) => line,
        Err(e) => format!("err {e}"),
    }
}

fn run_op(
    op: Op,
    pool: &Arc<DesignPool>,
    sessions: &mut HashMap<u64, Session>,
    open_sessions: &Arc<AtomicI64>,
) -> Result<String, ServeError> {
    let cmd = match op {
        Op::Open { sid, design } => {
            let entry = pool.get(&design)?;
            sessions.insert(sid, Session::open(sid, entry));
            let open = open_sessions.fetch_add(1, Ordering::Relaxed) + 1;
            tmm_obs::counter_add("tmm_serve_sessions_opened_total", &[], 1);
            #[allow(clippy::cast_precision_loss)]
            tmm_obs::gauge_set("tmm_serve_sessions_open", &[], open as f64);
            return Ok(format!("ok {sid}"));
        }
        Op::Cmd(Command::Close { sid }) => {
            sessions.remove(&sid).ok_or(ServeError::UnknownSession(sid))?;
            let open = open_sessions.fetch_sub(1, Ordering::Relaxed) - 1;
            #[allow(clippy::cast_precision_loss)]
            tmm_obs::gauge_set("tmm_serve_sessions_open", &[], open as f64);
            return Ok("ok".to_string());
        }
        Op::Cmd(cmd) => cmd,
    };
    // Open/Ping never reach run_op as Cmd.
    let sid = cmd
        .sid()
        .ok_or_else(|| ServeError::Protocol(format!("unroutable command {cmd:?}")))?;
    let session = sessions.get_mut(&sid).ok_or(ServeError::UnknownSession(sid))?;
    let before = session.propagations;
    let reply = run_session_cmd(session, cmd);
    // Every full build counts, whichever command triggered it: a session's
    // first timing command, or an ECO edit under AOCV.
    tmm_obs::counter_add("tmm_serve_propagations_total", &[], session.propagations - before);
    reply
}

fn run_session_cmd(session: &mut Session, cmd: Command) -> Result<String, ServeError> {
    match cmd {
        Command::Query { kind, pin, .. } => {
            let quad = session.query(kind, &pin)?;
            tmm_obs::counter_add("tmm_serve_queries_total", &[("class", kind.name())], 1);
            Ok(format!("ok {}", format_quad(quad)))
        }
        Command::SetPi { idx, at_early, at_late, slew, .. } => {
            session.set_pi(idx, at_early, at_late, slew)?;
            tmm_obs::counter_add("tmm_serve_reconstraints_total", &[], 1);
            Ok("ok".to_string())
        }
        Command::SetPoLoad { idx, load, .. } => {
            session.set_po_load(idx, load)?;
            tmm_obs::counter_add("tmm_serve_reconstraints_total", &[], 1);
            Ok("ok".to_string())
        }
        Command::SetPoRat { idx, early, late, .. } => {
            session.set_po_rat(idx, early, late)?;
            tmm_obs::counter_add("tmm_serve_reconstraints_total", &[], 1);
            Ok("ok".to_string())
        }
        Command::Eco { edit, .. } => {
            session.apply_eco(&edit)?;
            tmm_obs::counter_add("tmm_serve_eco_edits_total", &[], 1);
            Ok("ok".to_string())
        }
        Command::MacroEval { .. } => {
            let worst = session.macro_eval()?;
            tmm_obs::counter_add("tmm_serve_macro_evals_total", &[], 1);
            Ok(format!("ok {}", format_f64(worst)))
        }
        cmd => Err(ServeError::Protocol(format!("unroutable command {cmd:?}"))),
    }
}
