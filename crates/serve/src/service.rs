//! The long-running experiment service: a TCP server that accepts
//! [`RunSpec`] submissions, deduplicates them against the in-memory
//! cache and the persistent store, shards uncached runs across a worker
//! pool, and streams per-job progress events.
//!
//! ## Protocol
//!
//! Newline-delimited JSON over TCP — one request object per line, one
//! (or, for `watch`, many) response object(s) per line:
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"ping"}` | `{"ok":true,"pong":true,...}` |
//! | `{"cmd":"submit","plan":[<spec>...]}` | `{"ok":true,"job":N,"total":T,"cached":C}` |
//! | `{"cmd":"status","job":N}` | `{"ok":true,"state":...,"rows":[...]}` |
//! | `{"cmd":"watch","job":N}` | event lines, then `{"event":"job_done"}` |
//! | `{"cmd":"stats"}` | `{"ok":true,"executed":...,...}` |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"stopping":true}` |
//!
//! Every error is `{"ok":false,"error":"..."}` — a malformed line never
//! kills the connection, let alone the server. A line longer than
//! [`MAX_LINE_BYTES`] is the one exception: the server answers with an
//! error and closes that connection instead of buffering without bound.
//!
//! ## Execution
//!
//! The worker pool is sized exactly like [`Harness::execute`] sizes its
//! sweep: `sweep_share(threads, node_workers())`, so `pool width × lane
//! workers` stays within the configured budget even when each simulated
//! machine spins up its own lane threads. Each work item resolves
//! through the same claim protocol the harness uses ([`SharedCache`]),
//! so a spec submitted twice — in one job, across jobs, or while
//! already running — is simulated exactly once; the second submission
//! reports `memory` provenance. Store hits report `store`, fresh
//! simulations `computed`, each with its wall-clock cost.
//!
//! [`Harness::execute`]: piranha_harness::Harness::execute

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use piranha_harness::{node_workers, Provenance, ResultStore, RunRequest, SharedCache};

use crate::envelope::SCHEMA_VERSION;
use crate::json::Json;
use crate::spec::RunSpec;

/// The longest request line the server reads, in bytes (newline not
/// counted). Past it the connection gets an error and is closed, so a
/// client that never sends a newline cannot grow server memory.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The sweep thread budget the worker pool is carved from
    /// (default: [`piranha_harness::default_threads`]).
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: piranha_harness::default_threads(),
        }
    }
}

/// Lifecycle of one entry of a job.
#[derive(Debug, Clone)]
enum EntryState {
    Queued,
    Running,
    Done {
        provenance: &'static str,
        wall_ms: u64,
        fingerprint: u64,
        ipns: f64,
    },
    /// The simulation panicked; `error` is the panic message.
    Failed {
        error: String,
    },
}

impl EntryState {
    /// Done or failed: nothing more will happen to the entry.
    fn finished(&self) -> bool {
        matches!(self, EntryState::Done { .. } | EntryState::Failed { .. })
    }
}

#[derive(Debug)]
struct Entry {
    label: String,
    key: String,
    state: EntryState,
}

#[derive(Debug, Default)]
struct Job {
    entries: Vec<Entry>,
    /// Entries finished, failed ones included.
    done: usize,
    /// Pre-rendered progress event lines, replayed to `watch`ers.
    events: Vec<String>,
}

impl Job {
    fn state(&self) -> &'static str {
        let failed = |e: &Entry| matches!(e.state, EntryState::Failed { .. });
        if self.done == self.entries.len() {
            if self.entries.iter().any(failed) {
                "failed"
            } else {
                "done"
            }
        } else if self
            .entries
            .iter()
            .any(|e| matches!(e.state, EntryState::Running))
        {
            "running"
        } else {
            "queued"
        }
    }

    fn rows(&self) -> Json {
        Json::arr(
            self.entries
                .iter()
                .map(|e| {
                    let mut fields = vec![
                        ("label".into(), Json::str(&e.label)),
                        (
                            "key_address".into(),
                            Json::str(crate::DiskStore::address(&e.key)),
                        ),
                    ];
                    match &e.state {
                        EntryState::Queued => fields.push(("state".into(), Json::str("queued"))),
                        EntryState::Running => fields.push(("state".into(), Json::str("running"))),
                        EntryState::Done {
                            provenance,
                            wall_ms,
                            fingerprint,
                            ipns,
                        } => {
                            fields.push(("state".into(), Json::str("done")));
                            fields.push(("provenance".into(), Json::str(*provenance)));
                            fields.push(("wall_ms".into(), Json::U64(*wall_ms)));
                            fields.push((
                                "fingerprint".into(),
                                Json::str(format!("{fingerprint:016x}")),
                            ));
                            fields.push(("ipns".into(), Json::F64(*ipns)));
                        }
                        EntryState::Failed { error } => {
                            fields.push(("state".into(), Json::str("failed")));
                            fields.push(("error".into(), Json::str(error)));
                        }
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

struct WorkItem {
    job: u64,
    idx: usize,
    req: RunRequest,
}

struct ServerState {
    cache: SharedCache,
    store: Option<Arc<dyn ResultStore>>,
    jobs: Mutex<HashMap<u64, Job>>,
    job_cv: Condvar,
    next_job: AtomicUsize,
    queue: Mutex<VecDeque<WorkItem>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    workers: usize,
    executed: AtomicUsize,
    store_hits: AtomicUsize,
    mem_hits: AtomicUsize,
}

impl ServerState {
    /// Transition an entry and append its progress event under ONE
    /// lock acquisition: a watcher must never observe the job finished
    /// (`done == entries`) while the final event line is still
    /// in flight.
    fn set_entry_state(&self, job_id: u64, idx: usize, state: EntryState, event: Json) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(job) = jobs.get_mut(&job_id) {
            if state.finished() && !job.entries[idx].state.finished() {
                job.done += 1;
            }
            job.entries[idx].state = state;
            job.events.push(event.to_string());
        }
        drop(jobs);
        self.job_cv.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let item = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(item) = q.pop_front() {
                        break item;
                    }
                    q = self.queue_cv.wait(q).unwrap();
                }
            };
            let label = {
                let jobs = self.jobs.lock().unwrap();
                jobs.get(&item.job)
                    .map(|j| j.entries[item.idx].label.clone())
                    .unwrap_or_default()
            };
            self.set_entry_state(
                item.job,
                item.idx,
                EntryState::Running,
                Json::obj(vec![
                    ("event".into(), Json::str("running")),
                    ("label".into(), Json::str(&label)),
                ]),
            );
            let start = Instant::now();
            // A panicking simulation (a protocol deadlock, the event
            // budget) fails its own entry; the worker lives on, and the
            // claim guard releases the key as the panic unwinds.
            let resolved = catch_unwind(AssertUnwindSafe(|| {
                self.cache.resolve(self.store.as_deref(), &item.req)
            }));
            let (r, provenance) = match resolved {
                Ok(resolved) => resolved,
                Err(payload) => {
                    let error = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "the simulation panicked".into());
                    self.set_entry_state(
                        item.job,
                        item.idx,
                        EntryState::Failed {
                            error: error.clone(),
                        },
                        Json::obj(vec![
                            ("event".into(), Json::str("failed")),
                            ("label".into(), Json::str(&label)),
                            ("error".into(), Json::str(error)),
                        ]),
                    );
                    continue;
                }
            };
            match provenance {
                Provenance::Memory => &self.mem_hits,
                Provenance::Store => &self.store_hits,
                Provenance::Computed => &self.executed,
            }
            .fetch_add(1, Ordering::Relaxed);
            let provenance = provenance.label();
            let wall_ms = start.elapsed().as_millis() as u64;
            let (fingerprint, ipns) = (r.fingerprint(), r.throughput_ipns());
            self.set_entry_state(
                item.job,
                item.idx,
                EntryState::Done {
                    provenance,
                    wall_ms,
                    fingerprint,
                    ipns,
                },
                Json::obj(vec![
                    ("event".into(), Json::str("done")),
                    ("label".into(), Json::str(&label)),
                    ("provenance".into(), Json::str(provenance)),
                    ("wall_ms".into(), Json::U64(wall_ms)),
                    (
                        "fingerprint".into(),
                        Json::str(format!("{fingerprint:016x}")),
                    ),
                ]),
            );
        }
    }
}

/// The experiment server. [`Server::bind`] starts the worker pool;
/// [`Server::run`] serves connections until a `shutdown` command.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the worker pool. `store` is consulted before simulating
    /// and receives every computed result.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Option<Arc<dyn ResultStore>>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Same nested-parallelism budget composition as
        // Harness::execute: each simulation may use up to node_workers()
        // lane threads, so the pool takes its share of the budget.
        let workers = piranha_parsim::sweep_share(cfg.threads.max(1), node_workers());
        let state = Arc::new(ServerState {
            cache: SharedCache::new(),
            store,
            jobs: Mutex::new(HashMap::new()),
            job_cv: Condvar::new(),
            next_job: AtomicUsize::new(1),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            workers,
            executed: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            mem_hits: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || state.worker_loop())
            })
            .collect();
        Ok(Server {
            listener,
            state,
            workers: handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections until a client sends `shutdown`. Each
    /// connection is handled on its own thread; worker threads are
    /// joined before returning.
    pub fn run(mut self) {
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let addr = self.local_addr().ok();
            std::thread::spawn(move || {
                let _ = handle_conn(stream, &state);
                // After a shutdown command, poke the accept loop so it
                // observes the stop flag instead of blocking forever.
                if state.stop.load(Ordering::Relaxed) {
                    state.queue_cv.notify_all();
                    if let Some(addr) = addr {
                        let _ = TcpStream::connect(addr);
                    }
                }
            });
        }
        self.state.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn respond(out: &mut impl Write, v: Json) -> std::io::Result<()> {
    writeln!(out, "{v}")?;
    out.flush()
}

fn error(msg: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(msg)),
    ])
}

fn handle_conn(stream: TcpStream, state: &ServerState) -> std::io::Result<()> {
    // Response lines are small; without NODELAY, Nagle + delayed ACK
    // turns each round trip into a ~40 ms stall.
    stream.set_nodelay(true)?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an overlong line from one that
        // is exactly `MAX_LINE_BYTES` long.
        let n = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if n > MAX_LINE_BYTES {
            respond(
                &mut out,
                error(format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            )?;
            out.shutdown(Shutdown::Write)?;
            linger(&mut reader);
            return Ok(());
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let req = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                respond(&mut out, error(format!("bad request: {e}")))?;
                continue;
            }
        };
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("");
        match cmd {
            "ping" => respond(
                &mut out,
                Json::obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("pong".into(), Json::Bool(true)),
                    ("schema".into(), Json::U64(SCHEMA_VERSION)),
                    ("workers".into(), Json::U64(state.workers as u64)),
                ]),
            )?,
            "submit" => {
                let v = submit(state, &req);
                respond(&mut out, v)?;
            }
            "status" => {
                let v = status(state, &req);
                respond(&mut out, v)?;
            }
            "watch" => watch(state, &req, &mut out)?,
            "stats" => respond(
                &mut out,
                Json::obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    (
                        "jobs".into(),
                        Json::U64(state.jobs.lock().unwrap().len() as u64),
                    ),
                    (
                        "executed".into(),
                        Json::U64(state.executed.load(Ordering::Relaxed) as u64),
                    ),
                    (
                        "store_hits".into(),
                        Json::U64(state.store_hits.load(Ordering::Relaxed) as u64),
                    ),
                    (
                        "memory_hits".into(),
                        Json::U64(state.mem_hits.load(Ordering::Relaxed) as u64),
                    ),
                    ("cache_entries".into(), Json::U64(state.cache.len() as u64)),
                    ("workers".into(), Json::U64(state.workers as u64)),
                ]),
            )?,
            "shutdown" => {
                state.stop.store(true, Ordering::Relaxed);
                respond(
                    &mut out,
                    Json::obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("stopping".into(), Json::Bool(true)),
                    ]),
                )?;
                return Ok(());
            }
            other => respond(&mut out, error(format!("unknown command {other:?}")))?,
        }
    }
    Ok(())
}

/// How long a connection closed on an overlong line keeps discarding
/// input before the socket is dropped.
const LINGER: Duration = Duration::from_secs(1);

/// Read and discard what the client is still sending, until it stops or
/// [`LINGER`] runs out. Closing a socket with unread input resets the
/// connection, and the reset can destroy the error reply before the
/// client reads it.
fn linger(reader: &mut BufReader<TcpStream>) {
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 8 << 10];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
            break;
        }
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn submit(state: &ServerState, req: &Json) -> Json {
    let Some(plan) = req.get("plan").and_then(Json::as_arr) else {
        return error("submit needs a 'plan' array of run specs");
    };
    if plan.is_empty() {
        return error("submit plan is empty");
    }
    let mut resolved = Vec::with_capacity(plan.len());
    for item in plan {
        let spec = match RunSpec::from_json(item) {
            Ok(s) => s,
            Err(e) => return error(e),
        };
        match spec.resolve() {
            Ok(r) => resolved.push((spec, r)),
            Err(e) => return error(e),
        }
    }
    let job_id = state.next_job.fetch_add(1, Ordering::Relaxed) as u64;
    let mut job = Job::default();
    let mut items = Vec::new();
    let mut cached = 0usize;
    for (idx, (spec, req)) in resolved.into_iter().enumerate() {
        let key = req.key();
        let label = spec.label();
        // Already resolved in memory: answer instantly, no queueing.
        if let Some(r) = state.cache.lookup(&key) {
            state.mem_hits.fetch_add(1, Ordering::Relaxed);
            cached += 1;
            job.done += 1;
            job.entries.push(Entry {
                label: label.clone(),
                key,
                state: EntryState::Done {
                    provenance: "memory",
                    wall_ms: 0,
                    fingerprint: r.fingerprint(),
                    ipns: r.throughput_ipns(),
                },
            });
            job.events.push(
                Json::obj(vec![
                    ("event".into(), Json::str("done")),
                    ("label".into(), Json::str(&label)),
                    ("provenance".into(), Json::str("memory")),
                    ("wall_ms".into(), Json::U64(0)),
                    (
                        "fingerprint".into(),
                        Json::str(format!("{:016x}", r.fingerprint())),
                    ),
                ])
                .to_string(),
            );
            continue;
        }
        job.events.push(
            Json::obj(vec![
                ("event".into(), Json::str("queued")),
                ("label".into(), Json::str(&label)),
            ])
            .to_string(),
        );
        job.entries.push(Entry {
            label,
            key,
            state: EntryState::Queued,
        });
        items.push(WorkItem {
            job: job_id,
            idx,
            req,
        });
    }
    let total = job.entries.len();
    state.jobs.lock().unwrap().insert(job_id, job);
    state.job_cv.notify_all();
    if !items.is_empty() {
        let mut q = state.queue.lock().unwrap();
        q.extend(items);
        drop(q);
        state.queue_cv.notify_all();
    }
    Json::obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("job".into(), Json::U64(job_id)),
        ("total".into(), Json::U64(total as u64)),
        ("cached".into(), Json::U64(cached as u64)),
    ])
}

fn status(state: &ServerState, req: &Json) -> Json {
    let Some(job_id) = req.get("job").and_then(Json::as_u64) else {
        return error("status needs a 'job' id");
    };
    let jobs = state.jobs.lock().unwrap();
    let Some(job) = jobs.get(&job_id) else {
        return error(format!("unknown job {job_id}"));
    };
    Json::obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("job".into(), Json::U64(job_id)),
        ("state".into(), Json::str(job.state())),
        ("total".into(), Json::U64(job.entries.len() as u64)),
        ("done".into(), Json::U64(job.done as u64)),
        ("rows".into(), job.rows()),
    ])
}

/// Stream a job's progress events (replaying history first), ending
/// with a `job_done` line once every entry is done or failed.
fn watch(state: &ServerState, req: &Json, out: &mut impl Write) -> std::io::Result<()> {
    let Some(job_id) = req.get("job").and_then(Json::as_u64) else {
        return respond(out, error("watch needs a 'job' id"));
    };
    let mut sent = 0usize;
    loop {
        let (batch, finished) = {
            let mut jobs = state.jobs.lock().unwrap();
            loop {
                let Some(job) = jobs.get(&job_id) else {
                    drop(jobs);
                    return respond(out, error(format!("unknown job {job_id}")));
                };
                let finished = job.done == job.entries.len();
                if job.events.len() > sent || finished {
                    break (job.events[sent..].to_vec(), finished);
                }
                jobs = state.job_cv.wait(jobs).unwrap();
            }
        };
        for line in &batch {
            writeln!(out, "{line}")?;
        }
        sent += batch.len();
        out.flush()?;
        if finished {
            let jobs = state.jobs.lock().unwrap();
            // Events can land between snapshot and finish; drain them.
            if jobs.get(&job_id).is_some_and(|j| j.events.len() > sent) {
                continue;
            }
            drop(jobs);
            return respond(
                out,
                Json::obj(vec![
                    ("event".into(), Json::str("job_done")),
                    ("job".into(), Json::U64(job_id)),
                ]),
            );
        }
    }
}
