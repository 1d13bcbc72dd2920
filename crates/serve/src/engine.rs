//! The sharded session engine.
//!
//! Sessions are pinned to one of a fixed pool of worker threads by
//! `session_id % workers` at open time; a session's operations execute on
//! that worker only, in submission order. That is the whole determinism
//! argument: per session there is exactly one executor and one total
//! order, so results are bit-identical to applying the same operations on
//! a single thread (parallelism may only change *when* work happens,
//! never *what* is computed).
//!
//! Batching: one submitted batch becomes at most one job per shard. The
//! submitting thread parses each line once to route it (pings and parse
//! errors are answered there, opens take their session ids in line
//! order); a text batch's job carries the body and the byte ranges of its
//! lines, and its worker parses them again with the same borrowed parser
//! and writes every reply line into one buffer. A session records
//! re-constraints without timing them, and its next query runs one cone
//! sweep for all of them; queries read the session's incremental state in
//! place. Serve counters are summed per job and recorded once per job.

use crate::protocol::{parse_command_ref, push_f64, push_quad, Command, CommandRef, QueryKind};
use crate::session::{DesignPool, Session};
use crate::ServeError;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Reply bytes reserved per routed line: a quad reply (`ok`, four
/// 18-byte tokens, separators, newline), the longest reply that does not
/// echo client text.
const REPLY_LINE: usize = 79;

/// Owner tag of a line the submitting thread answers `ok` (a ping).
const PING: u32 = u32::MAX;
/// Owner tag of a line the submitting thread answers with its parse error.
const PARSE_ERR: u32 = u32::MAX - 1;

/// The commands one shard runs for one batch, in batch order, each with
/// its pre-assigned session id (an `open`'s; 0 for any other command).
enum Work {
    /// `submit_lines`: the batch body and the byte range of each line.
    Lines { body: Arc<str>, lines: Vec<(usize, usize, u64)> },
    /// `submit`: owned commands.
    Cmds(Vec<(Command, u64)>),
}

struct Job {
    shard: usize,
    work: Work,
    reply: mpsc::Sender<Reply>,
}

/// One job's answers: its reply lines, each `\n`-terminated, in execution
/// order, and the end offset of each line in `text`.
struct Reply {
    shard: usize,
    text: String,
    ends: Vec<usize>,
}

/// A shard's job queue. When its worker stops (the engine dropped, or a
/// panic) the queue closes and drops what is left, so a submitter never
/// waits on a dead shard: a dropped job's lines read `err shard
/// unavailable`.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `job`; `false` (and the job dropped) once closed.
    fn push(&self, job: Job) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// The next job, waiting for one; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuses further jobs and drops the queued ones.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.jobs.clear();
        drop(state);
        self.ready.notify_all();
    }
}

/// Closes a worker's queue however the worker stops.
struct CloseOnDrop<'a>(&'a Queue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

struct Shard {
    queue: Arc<Queue>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A batch routed across shards, in line order.
struct Plan<T> {
    /// Per non-blank line: the shard that answers it, [`PING`] or
    /// [`PARSE_ERR`].
    owners: Vec<u32>,
    /// `err …` lines of the lines that failed to parse, in order.
    errors: Vec<String>,
    /// Per routed line, in order: what its shard runs.
    items: Vec<T>,
    /// Point queries routed (the live query rate).
    queries: u64,
}

impl<T> Plan<T> {
    fn with_capacity(lines: usize) -> Plan<T> {
        Plan {
            owners: Vec::with_capacity(lines),
            errors: Vec::new(),
            items: Vec::with_capacity(lines),
            queries: 0,
        }
    }

    /// Records one parsed line: routed by `route` (see
    /// [`ServeEngine::route`]), its shard running `item(open_sid)`.
    fn add(&mut self, route: Option<(usize, u64)>, query: bool, item: impl FnOnce(u64) -> T) {
        match route {
            None => self.owners.push(PING),
            Some((shard, open_sid)) => {
                self.owners.push(shard as u32);
                self.items.push(item(open_sid));
                self.queries += u64::from(query);
            }
        }
    }

    fn error(&mut self, message: &str) {
        self.owners.push(PARSE_ERR);
        self.errors.push(format!("err {message}"));
    }

    /// The routed items grouped by shard, each group in line order.
    fn take_by_shard(&mut self, shards: usize) -> Vec<(usize, Vec<T>)> {
        let items = std::mem::take(&mut self.items);
        if items.is_empty() {
            return Vec::new();
        }
        let mut counts = vec![0usize; shards];
        for &o in &self.owners {
            if let Some(c) = counts.get_mut(o as usize) {
                *c += 1;
            }
        }
        if let Some(only) = counts.iter().position(|&c| c == items.len()) {
            return vec![(only, items)];
        }
        let mut groups: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let routed = self.owners.iter().filter(|&&o| (o as usize) < shards);
        for (&o, item) in routed.zip(items) {
            groups[o as usize].push(item);
        }
        groups.into_iter().enumerate().filter(|(_, g)| !g.is_empty()).collect()
    }

    /// Calls `each` with every reply line (without its newline) in line
    /// order.
    fn for_each_reply<'r>(&'r self, replies: &'r [Option<Reply>], mut each: impl FnMut(&'r str)) {
        let mut cursor = vec![(0usize, 0usize); replies.len()];
        let mut errors = self.errors.iter();
        for &o in &self.owners {
            match o {
                PING => each("ok"),
                PARSE_ERR => each(errors.next().map_or("err", String::as_str)),
                shard => {
                    let shard = shard as usize;
                    let (line, start) = cursor[shard];
                    match replies[shard].as_ref().and_then(|r| Some((r, *r.ends.get(line)?))) {
                        Some((reply, end)) => {
                            each(&reply.text[start..end - 1]);
                            cursor[shard] = (line + 1, end);
                        }
                        None => each("err shard unavailable"),
                    }
                }
            }
        }
    }
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
            let queue = Arc::new(Queue::default());
            let worker_queue = Arc::clone(&queue);
            let pool = Arc::clone(&pool);
            let open = Arc::clone(&open_sessions);
            let handle = std::thread::Builder::new()
                .name(format!("tmm-serve-{w}"))
                .spawn(move || worker_loop(&worker_queue, &pool, &open))
                .ok();
            if handle.is_none() {
                queue.close();
            }
            shards.push(Shard { queue, handle });
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

    /// Routes one parsed command: `None` for a ping, which the submitting
    /// thread answers; otherwise the shard that runs it and, for an
    /// `open`, the session id it takes (ids go out in line order).
    fn route(&self, cmd: &CommandRef<'_>) -> Option<(usize, u64)> {
        match cmd {
            CommandRef::Ping => None,
            CommandRef::Open { .. } => {
                let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
                Some((self.shard_of(sid), sid))
            }
            // sid() is Some for everything but Open/Ping.
            cmd => Some((self.shard_of(cmd.sid().unwrap_or(0)), 0)),
        }
    }

    /// Sends each shard its share of `plan` and waits for the replies,
    /// indexed by shard (`None` where a shard is gone).
    fn run<T>(&self, plan: &mut Plan<T>, work: impl Fn(Vec<T>) -> Work) -> Vec<Option<Reply>> {
        let (tx, rx) = mpsc::channel();
        for (shard, items) in plan.take_by_shard(self.shards.len()) {
            let job = Job { shard, work: work(items), reply: tx.clone() };
            self.shards[shard].queue.push(job);
        }
        drop(tx);
        let mut replies: Vec<Option<Reply>> = (0..self.shards.len()).map(|_| None).collect();
        // Ends once every job has replied or been dropped.
        for reply in rx {
            let shard = reply.shard;
            replies[shard] = Some(reply);
        }
        self.queries.add(plan.queries);
        replies
    }

    /// Executes one batch of commands and returns one response line per
    /// command, in order. Commands addressing different sessions may run
    /// concurrently (different shards); commands of one session run
    /// serially in batch order.
    #[must_use]
    pub fn submit(&self, cmds: Vec<Command>) -> Vec<String> {
        let mut plan = Plan::with_capacity(cmds.len());
        for cmd in cmds {
            let borrowed = cmd.borrowed();
            let route = self.route(&borrowed);
            let query = matches!(borrowed, CommandRef::Query { .. });
            plan.add(route, query, |sid| (cmd, sid));
        }
        let replies = self.run(&mut plan, Work::Cmds);
        let mut out = Vec::with_capacity(plan.owners.len());
        plan.for_each_reply(&replies, |line| out.push(line.to_string()));
        out
    }

    /// Parses a newline-separated command body, executes it, and returns
    /// the response lines, each newline-terminated. Lines are trimmed and
    /// blank ones skipped; parse errors turn into `err …` lines without
    /// aborting the rest of the batch. Replies equal those of
    /// [`parse_command`](crate::parse_command) on every line followed by
    /// [`ServeEngine::submit`].
    #[must_use]
    pub fn submit_lines(&self, body: &str) -> String {
        tmm_obs::counter_add("tmm_serve_batches_total", &[], 1);
        let lines = body.bytes().filter(|&b| b == b'\n').count() + 1;
        let mut plan = Plan::with_capacity(lines);
        // `lines()` would also drop a `\r` before each `\n`; `trim` does.
        for line in body.split('\n').map(str::trim).filter(|l| !l.is_empty()) {
            let start = line.as_ptr() as usize - body.as_ptr() as usize;
            match parse_command_ref(line) {
                Ok(cmd) => {
                    plan.add(self.route(&cmd), matches!(cmd, CommandRef::Query { .. }), |sid| {
                        (start, start + line.len(), sid)
                    })
                }
                Err(e) => plan.error(&e),
            }
        }
        let text: Arc<str> = Arc::from(body);
        let mut replies =
            self.run(&mut plan, |lines| Work::Lines { body: Arc::clone(&text), lines });
        // One shard answered every line: its buffer is the reply.
        if let Some(reply) =
            replies.iter_mut().flatten().find(|r| r.ends.len() == plan.owners.len())
        {
            return std::mem::take(&mut reply.text);
        }
        let bytes = replies.iter().flatten().map(|r| r.text.len()).sum::<usize>()
            + plan.errors.iter().map(|e| e.len() + 1).sum::<usize>()
            + 3 * plan.owners.len();
        let mut out = String::with_capacity(bytes);
        plan.for_each_reply(&replies, |line| {
            out.push_str(line);
            out.push('\n');
        });
        out
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // No batch is in flight here, so closing drops no job; it ends
        // the worker loops.
        for shard in &self.shards {
            shard.queue.close();
        }
        for shard in &mut self.shards {
            if let Some(h) = shard.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(queue: &Queue, pool: &Arc<DesignPool>, open_sessions: &Arc<AtomicI64>) {
    let _close = CloseOnDrop(queue);
    let mut worker = Worker { pool, open_sessions, sessions: HashMap::new() };
    while let Some(job) = queue.pop() {
        let reply = worker.run(job.shard, &job.work);
        let _ = job.reply.send(reply);
    }
    open_sessions.fetch_sub(worker.sessions.len() as i64, Ordering::Relaxed);
}

/// Serve counters summed over one job, recorded once when it ends.
#[derive(Default)]
struct Tally {
    queries: [u64; 4],
    reconstraints: u64,
    eco_edits: u64,
    macro_evals: u64,
    /// Full propagations; recorded (even as 0) once a command reached a
    /// session.
    propagations: Option<u64>,
}

impl Tally {
    fn record(&self) {
        if !tmm_obs::metrics_enabled() {
            return;
        }
        for kind in QueryKind::ALL {
            let n = self.queries[kind as usize];
            if n > 0 {
                tmm_obs::counter_add("tmm_serve_queries_total", &[("class", kind.name())], n);
            }
        }
        if let Some(n) = self.propagations {
            tmm_obs::counter_add("tmm_serve_propagations_total", &[], n);
        }
        for (name, n) in [
            ("tmm_serve_reconstraints_total", self.reconstraints),
            ("tmm_serve_eco_edits_total", self.eco_edits),
            ("tmm_serve_macro_evals_total", self.macro_evals),
        ] {
            if n > 0 {
                tmm_obs::counter_add(name, &[], n);
            }
        }
    }
}

/// One shard's executor: the sessions pinned to it.
struct Worker<'p> {
    pool: &'p Arc<DesignPool>,
    open_sessions: &'p Arc<AtomicI64>,
    sessions: HashMap<u64, Session>,
}

impl Worker<'_> {
    /// Runs one job, writing every reply line into one buffer.
    fn run(&mut self, shard: usize, work: &Work) -> Reply {
        let n = match work {
            Work::Lines { lines, .. } => lines.len(),
            Work::Cmds(cmds) => cmds.len(),
        };
        let mut reply = Reply {
            shard,
            text: String::with_capacity(n * REPLY_LINE),
            ends: Vec::with_capacity(n),
        };
        let mut tally = Tally::default();
        match work {
            Work::Lines { body, lines } => {
                for &(start, end, sid) in lines {
                    let cmd = parse_command_ref(&body[start..end]);
                    self.answer(cmd, sid, &mut tally, &mut reply);
                }
            }
            Work::Cmds(cmds) => {
                for (cmd, sid) in cmds {
                    self.answer(Ok(cmd.borrowed()), *sid, &mut tally, &mut reply);
                }
            }
        }
        tally.record();
        reply
    }

    /// Appends one reply line: `ok …` from the command, or `err …` from
    /// its parse or execution error.
    fn answer(
        &mut self,
        cmd: Result<CommandRef<'_>, String>,
        open_sid: u64,
        tally: &mut Tally,
        reply: &mut Reply,
    ) {
        let out = &mut reply.text;
        let start = out.len();
        let done =
            cmd.map_err(ServeError::Protocol).and_then(|cmd| self.apply(cmd, open_sid, tally, out));
        if let Err(e) = done {
            out.truncate(start);
            let _ = write!(out, "err {e}");
        }
        out.push('\n');
        reply.ends.push(out.len());
    }

    fn apply(
        &mut self,
        cmd: CommandRef<'_>,
        open_sid: u64,
        tally: &mut Tally,
        out: &mut String,
    ) -> Result<(), ServeError> {
        match cmd {
            CommandRef::Open { design } => {
                let entry = self.pool.get(design)?;
                self.sessions.insert(open_sid, Session::open(open_sid, entry));
                let open = self.open_sessions.fetch_add(1, Ordering::Relaxed) + 1;
                tmm_obs::counter_add("tmm_serve_sessions_opened_total", &[], 1);
                #[allow(clippy::cast_precision_loss)]
                tmm_obs::gauge_set("tmm_serve_sessions_open", &[], open as f64);
                let _ = write!(out, "ok {open_sid}");
                return Ok(());
            }
            CommandRef::Close { sid } => {
                self.sessions.remove(&sid).ok_or(ServeError::UnknownSession(sid))?;
                let open = self.open_sessions.fetch_sub(1, Ordering::Relaxed) - 1;
                #[allow(clippy::cast_precision_loss)]
                tmm_obs::gauge_set("tmm_serve_sessions_open", &[], open as f64);
                out.push_str("ok");
                return Ok(());
            }
            _ => {}
        }
        // Ping is answered by the submitting thread.
        let sid =
            cmd.sid().ok_or_else(|| ServeError::Protocol(format!("unroutable command {cmd:?}")))?;
        let session = self.sessions.get_mut(&sid).ok_or(ServeError::UnknownSession(sid))?;
        let before = session.propagations;
        let reply = session_command(session, cmd, tally, out);
        // Every full build counts, whichever command triggered it: a
        // session's first timing command, or an ECO edit under AOCV.
        *tally.propagations.get_or_insert(0) += session.propagations - before;
        reply
    }
}

fn session_command(
    session: &mut Session,
    cmd: CommandRef<'_>,
    tally: &mut Tally,
    out: &mut String,
) -> Result<(), ServeError> {
    match cmd {
        CommandRef::Query { kind, pin, .. } => {
            let quad = session.query(kind, pin)?;
            tally.queries[kind as usize] += 1;
            out.push_str("ok ");
            push_quad(out, quad);
        }
        CommandRef::SetPi { idx, at_early, at_late, slew, .. } => {
            session.set_pi(idx, at_early, at_late, slew)?;
            tally.reconstraints += 1;
            out.push_str("ok");
        }
        CommandRef::SetPoLoad { idx, load, .. } => {
            session.set_po_load(idx, load)?;
            tally.reconstraints += 1;
            out.push_str("ok");
        }
        CommandRef::SetPoRat { idx, early, late, .. } => {
            session.set_po_rat(idx, early, late)?;
            tally.reconstraints += 1;
            out.push_str("ok");
        }
        CommandRef::Eco { edit, .. } => {
            session.apply_eco(&edit.into_owned())?;
            tally.eco_edits += 1;
            out.push_str("ok");
        }
        CommandRef::MacroEval { .. } => {
            let worst = session.macro_eval()?;
            tally.macro_evals += 1;
            out.push_str("ok ");
            push_f64(out, worst);
        }
        cmd => return Err(ServeError::Protocol(format!("unroutable command {cmd:?}"))),
    }
    Ok(())
}
