//! Parallel, memoizing experiment harness.
//!
//! The paper's evaluation (§4) needs ~20 independent `Machine`
//! simulations, and several figures share baselines (OOO, P1, P8 appear
//! in four figures each). Simulations of *different* configurations are
//! embarrassingly parallel — each `Machine` is a self-contained
//! deterministic event simulation — so this crate:
//!
//! 1. collects the [`RunRequest`]s a figure (or all figures) needs into
//!    a [`RunPlan`],
//! 2. deduplicates them by a stable cache key,
//! 3. executes the unique runs across `std::thread::scope` workers
//!    (bounded by `available_parallelism`, overridable with the
//!    `PIRANHA_THREADS` environment variable), and
//! 4. hands the memoized [`RunResult`]s back through [`Harness::fetch`].
//!
//! Because each simulation is deterministic and runs on its own thread
//! with its own `Machine`, the parallel path is *bit-identical* to the
//! serial path — the only thing that changes is wall-clock time.
//!
//! # Examples
//!
//! ```no_run
//! use piranha_harness::{Harness, RunPlan, RunRequest, RunScale};
//! use piranha_system::SystemConfig;
//! use piranha_workloads::{OltpConfig, Workload};
//!
//! let w = Workload::Oltp(OltpConfig::paper_default());
//! let scale = RunScale::quick();
//! let mut plan = RunPlan::new();
//! for cfg in [SystemConfig::ooo(), SystemConfig::piranha_p8()] {
//!     plan.add(cfg, w.clone(), scale);
//! }
//! let mut h = Harness::new();
//! h.execute(&plan);
//! let ooo = h.fetch(&plan.requests()[0]); // memoized
//! println!("OOO: {:.2} instrs/ns", ooo.throughput_ipns());
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use piranha_system::{Machine, RunResult, SampleConfig, SystemConfig};
use piranha_workloads::Workload;

/// A persistent backing store for memoized results, keyed by
/// [`cache_key`]. Implemented by `piranha_serve::DiskStore` (a
/// content-addressed on-disk cache with a versioned JSON envelope); the
/// harness only sees this trait, so the store crate can sit above it in
/// the dependency graph.
///
/// Contract: `load(key)` returns a result **bit-identical** to what
/// [`RunRequest::run`] produces for the request behind `key`, or `None`
/// (missing, corrupt, or written by an incompatible build — the store
/// must reject rather than serve those). `save` must tolerate concurrent
/// writers of the same key: the simulator is deterministic, so
/// last-writer-wins is safe.
pub trait ResultStore: Send + Sync {
    /// Fetch the persisted result for `key`, if a valid entry exists.
    fn load(&self, key: &str) -> Option<RunResult>;
    /// Persist `result` under `key`. Errors are the store's to swallow
    /// (a full disk must not fail the sweep); it simply won't hit later.
    fn save(&self, key: &str, result: &RunResult);
}

/// The process-wide default store newly built harnesses attach
/// (`Harness::new` / `Harness::with_threads`). Installed by the
/// `--store=<dir>` / `PIRANHA_STORE` rider of the figure binaries.
static DEFAULT_STORE: RwLock<Option<Arc<dyn ResultStore>>> = RwLock::new(None);

/// Install (or clear) the process-wide default result store. Every
/// harness constructed afterwards persists its runs there; existing
/// harnesses are unaffected.
pub fn set_default_store(store: Option<Arc<dyn ResultStore>>) {
    *DEFAULT_STORE.write().unwrap() = store;
}

/// The currently installed process-wide default store, if any.
pub fn default_store() -> Option<Arc<dyn ResultStore>> {
    DEFAULT_STORE.read().unwrap().clone()
}

/// Where a memoized result came from, for cache-provenance accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the in-memory cache (or computed by a concurrent
    /// claimant of the same key while we waited).
    Memory,
    /// Loaded from the persistent [`ResultStore`].
    Store,
    /// Simulated by this call.
    Computed,
}

impl Provenance {
    /// The lowercase tag the serve wire protocol reports.
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Memory => "memory",
            Provenance::Store => "store",
            Provenance::Computed => "computed",
        }
    }
}

/// In-flight-aware memo table shared between harnesses (and the serve
/// worker pool). Each key is either absent, being computed by exactly
/// one claimant, or ready; [`SharedCache::claim`] blocks on in-flight
/// keys instead of recomputing, which makes duplicate submissions of
/// the same tuple idempotent across threads.
#[derive(Debug, Clone, Default)]
pub struct SharedCache {
    inner: Arc<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: Mutex<HashMap<String, Slot>>,
    ready: Condvar,
}

#[derive(Debug, Clone)]
enum Slot {
    InFlight,
    Ready(Arc<RunResult>),
}

/// The outcome of [`SharedCache::claim`]: either the key is already
/// resolved, or the caller now owns the obligation to compute it.
pub enum Claim {
    /// The result is ready (possibly after waiting on another claimant).
    Ready(Arc<RunResult>),
    /// The caller must compute the result and [`ClaimGuard::fulfill`]
    /// it. Dropping the guard unfulfilled (e.g. on panic) releases the
    /// key so waiting claimants retry instead of hanging.
    Owed(ClaimGuard),
}

/// Ownership token for an in-flight key (see [`Claim::Owed`]).
pub struct ClaimGuard {
    cache: SharedCache,
    key: String,
    fulfilled: bool,
}

impl ClaimGuard {
    /// The claimed key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Publish the computed result and wake every waiting claimant.
    pub fn fulfill(mut self, result: RunResult) -> Arc<RunResult> {
        let r = Arc::new(result);
        {
            let mut map = self.cache.inner.map.lock().unwrap();
            map.insert(self.key.clone(), Slot::Ready(Arc::clone(&r)));
        }
        self.cache.inner.ready.notify_all();
        self.fulfilled = true;
        r
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if !self.fulfilled {
            // Abandoned (panic or early return): release the key so a
            // waiting claimant can take over rather than deadlock.
            let mut map = self.cache.inner.map.lock().unwrap();
            if matches!(map.get(&self.key), Some(Slot::InFlight)) {
                map.remove(&self.key);
            }
            drop(map);
            self.cache.inner.ready.notify_all();
        }
    }
}

impl SharedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ready result for `key`, if any (never blocks).
    pub fn lookup(&self, key: &str) -> Option<Arc<RunResult>> {
        match self.inner.map.lock().unwrap().get(key) {
            Some(Slot::Ready(r)) => Some(Arc::clone(r)),
            _ => None,
        }
    }

    /// Resolve `key` to a ready result or the obligation to compute it.
    /// If another claimant is already computing `key`, this blocks until
    /// that computation lands (or is abandoned, in which case the claim
    /// is retried and may become ours).
    pub fn claim(&self, key: &str) -> Claim {
        let mut map = self.inner.map.lock().unwrap();
        loop {
            match map.get(key) {
                Some(Slot::Ready(r)) => return Claim::Ready(Arc::clone(r)),
                Some(Slot::InFlight) => {
                    map = self.inner.ready.wait(map).unwrap();
                }
                None => {
                    map.insert(key.to_string(), Slot::InFlight);
                    return Claim::Owed(ClaimGuard {
                        cache: self.clone(),
                        key: key.to_string(),
                        fulfilled: false,
                    });
                }
            }
        }
    }

    /// Resolve `req` to its result: the one claim → store → run → save
    /// path every [`Harness`] and the serve worker pool share. A ready
    /// entry is returned as is; otherwise the caller claims the key
    /// (blocking while another claimant computes it), then loads the
    /// result from `store` or runs the simulation and saves it there.
    pub fn resolve(
        &self,
        store: Option<&dyn ResultStore>,
        req: &RunRequest,
    ) -> (Arc<RunResult>, Provenance) {
        let key = req.key();
        match self.claim(&key) {
            Claim::Ready(r) => (r, Provenance::Memory),
            Claim::Owed(guard) => {
                if let Some(r) = store.and_then(|s| s.load(&key)) {
                    PROCESS_STORE_HITS.fetch_add(1, Ordering::Relaxed);
                    return (guard.fulfill(r), Provenance::Store);
                }
                let r = req.run();
                if let Some(s) = store {
                    s.save(&key, &r);
                }
                PROCESS_COMPUTED.fetch_add(1, Ordering::Relaxed);
                (guard.fulfill(r), Provenance::Computed)
            }
        }
    }

    /// Number of *ready* entries.
    pub fn len(&self) -> usize {
        self.inner
            .map
            .lock()
            .unwrap()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether no entry is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How long to run each configuration. Figures in the paper used 500
/// OLTP transactions; we size in instructions per CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunScale {
    /// Warm-up instructions per CPU (caches, open pages, BTB).
    pub warmup: u64,
    /// Measured instructions per CPU.
    pub measure: u64,
    /// When true, the instruction budget is ignored and the machine runs
    /// until every stream ends (bounded workloads only: `txn_limit` /
    /// `line_limit` set). Fault experiments use this mode so a faulted
    /// run provably completes the same work as its fault-free baseline.
    pub to_completion: bool,
}

impl RunScale {
    /// Full-size runs for the shipped figures.
    pub fn full() -> Self {
        RunScale {
            warmup: 600_000,
            measure: 1_000_000,
            to_completion: false,
        }
    }

    /// Small runs for CI and the `--quick` figure runs.
    pub fn quick() -> Self {
        RunScale {
            warmup: 200_000,
            measure: 300_000,
            to_completion: false,
        }
    }

    /// Tiny runs for unit tests of the harness itself.
    pub fn tiny() -> Self {
        RunScale {
            warmup: 2_000,
            measure: 10_000,
            to_completion: false,
        }
    }

    /// Run-to-completion mode (no fixed instruction budget).
    pub fn completion() -> Self {
        RunScale {
            warmup: 0,
            measure: 0,
            to_completion: true,
        }
    }

    /// Huge runs, a tier beyond [`RunScale::full`] — affordable only
    /// under sampled execution ([`RunRequest::sample`]), where the
    /// detailed model covers a small fraction of the instructions.
    pub fn huge() -> Self {
        RunScale {
            warmup: 2_000_000,
            measure: 8_000_000,
            to_completion: false,
        }
    }
}

/// The process-wide lane-worker count applied to every machine the
/// harness drives (1 = serial within each simulation, the default).
static NODE_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Set the per-machine lane-worker count (`--parallel=<n>` in the
/// figure binaries) that [`RunRequest::build`] applies. Clamped to ≥ 1. The harness divides its sweep
/// thread budget by the widest [`effective_lane_width`] in a batch so
/// `sweep threads × lane workers` stays within the configured
/// parallelism (see [`Harness::execute`]).
pub fn set_node_workers(workers: usize) {
    NODE_WORKERS.store(workers.max(1), Ordering::Relaxed);
}

/// The current per-machine lane-worker count.
pub fn node_workers() -> usize {
    NODE_WORKERS.load(Ordering::Relaxed).max(1)
}

/// Process-wide provenance tally, summed over every
/// [`SharedCache::resolve`] in the process. The figure binaries build many short-lived harnesses
/// internally; these counters let `--store=` report one summary line
/// (and let CI assert a warm store recomputes nothing) without
/// threading each harness's per-instance counters out.
static PROCESS_COMPUTED: AtomicUsize = AtomicUsize::new(0);
static PROCESS_STORE_HITS: AtomicUsize = AtomicUsize::new(0);

/// `(computed, store_hits)` summed across every resolution in this
/// process (harnesses and the serve worker pool): simulations actually executed versus results served
/// from the persistent [`ResultStore`]. In-memory cache hits are not
/// counted (they cost nothing and would dwarf the interesting numbers).
pub fn process_counters() -> (usize, usize) {
    (
        PROCESS_COMPUTED.load(Ordering::Relaxed),
        PROCESS_STORE_HITS.load(Ordering::Relaxed),
    )
}

/// The lane-worker threads one request will *actually* spawn, as opposed
/// to the process-wide [`node_workers`] setting: single-chip machines run
/// the serial engine regardless of the setting, and multi-chip machines
/// clamp it to their lane count (`nodes + io_nodes`). The harness sizes
/// its sweep-level thread pool against the widest request in a batch, so
/// a sweep of single-chip configs is not throttled by a `--parallel=8`
/// flag that none of its machines can use.
pub fn effective_lane_width(cfg: &SystemConfig, node_workers: usize) -> usize {
    let lanes = cfg.nodes + cfg.io_nodes;
    if lanes > 1 {
        node_workers.clamp(1, lanes)
    } else {
        1
    }
}

/// One simulation: the one description of a run. Figures plan them,
/// and the harness and the serve worker pool memoize them by
/// [`RunRequest::key`]. A caller that needs more than the result —
/// explicit lane workers, an attached probe, the machine itself after
/// the run — sets it on the machine between [`RunRequest::build`] and
/// [`RunRequest::drive`]; open-loop traffic and fault injection are
/// [`SystemConfig`] fields.
///
/// # Examples
///
/// ```no_run
/// use piranha_harness::{RunRequest, RunScale};
/// use piranha_system::SystemConfig;
/// use piranha_workloads::{OltpConfig, Workload};
///
/// let req = RunRequest::new(
///     SystemConfig::piranha_pn(4).scaled_to_chips(2),
///     Workload::Oltp(OltpConfig::paper_default()),
///     RunScale::quick(),
/// );
/// let mut m = req.build();
/// m.set_parallel_workers(2); // bit-identical to serial
/// let r = req.drive(&mut m);
/// println!("{:#018x} after {:?}", r.fingerprint(), m.now());
/// ```
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The machine configuration to simulate.
    pub cfg: SystemConfig,
    /// The workload to drive it with.
    pub workload: Workload,
    /// Instruction budget.
    pub scale: RunScale,
    /// Run under SMARTS-style sampling instead of full detail: the
    /// machine functionally fast-forwards between detailed measurement
    /// windows and the result carries a
    /// [`piranha_system::SampleEstimate`] in `RunResult::sample`.
    /// Sampling warms up per the schedule's own `warmup`, so of the
    /// scale only the budget counts: `to_completion` runs every stream
    /// to its end, otherwise the run stops after `warmup + measure`
    /// instructions per CPU.
    pub sample: Option<SampleConfig>,
}

impl RunRequest {
    /// A full-detail request.
    pub fn new(cfg: SystemConfig, workload: Workload, scale: RunScale) -> Self {
        RunRequest {
            cfg,
            workload,
            scale,
            sample: None,
        }
    }

    /// The stable cache key identifying this simulation: exactly
    /// [`cache_key`] for a full-detail request, with the sampling
    /// schedule appended for a sampled one.
    pub fn key(&self) -> String {
        let key = cache_key(&self.cfg, &self.workload, self.scale);
        match &self.sample {
            None => key,
            Some(s) => format!("{key}|{s:?}"),
        }
    }

    /// Build the machine, running multi-chip configurations with the
    /// process-wide [`node_workers`] lane threads (wall-clock only:
    /// results are bit-identical at every count).
    pub fn build(&self) -> Machine {
        let mut m = Machine::new(self.cfg.clone(), &self.workload);
        m.set_parallel_workers(node_workers());
        m
    }

    /// Drive a built machine through this request's run: a warmup +
    /// measure window, a run to stream completion, or a sampled run.
    pub fn drive(&self, m: &mut Machine) -> RunResult {
        let s = self.scale;
        match &self.sample {
            Some(sample) => {
                m.run_sampled(sample, (!s.to_completion).then_some(s.warmup + s.measure))
            }
            None if s.to_completion => m.run_to_completion(),
            None => m.run(s.warmup, s.measure),
        }
    }

    /// [`RunRequest::build`] then [`RunRequest::drive`] on the calling
    /// thread: the primitive every scheduler runs.
    pub fn run(&self) -> RunResult {
        self.drive(&mut self.build())
    }
}

/// The stable cache key of a `(config, workload, scale)` tuple.
///
/// Built from the `Debug` renderings, which cover every field of the
/// derived config structs — two tuples collide exactly when they would
/// produce identical simulations (configurations are pure data and the
/// simulator is deterministic).
pub fn cache_key(cfg: &SystemConfig, w: &Workload, scale: RunScale) -> String {
    format!("{cfg:?}|{w:?}|{scale:?}")
}

/// A deduplicated batch of simulations to run.
#[derive(Debug, Default, Clone)]
pub struct RunPlan {
    reqs: Vec<RunRequest>,
    keys: HashSet<String>,
}

impl RunPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one simulation; duplicates (by cache key) are dropped.
    /// Returns whether the request was new.
    pub fn add(&mut self, cfg: SystemConfig, workload: Workload, scale: RunScale) -> bool {
        self.push(RunRequest::new(cfg, workload, scale))
    }

    /// Add a pre-built request; duplicates (by cache key) are dropped.
    pub fn push(&mut self, req: RunRequest) -> bool {
        if self.keys.insert(req.key()) {
            self.reqs.push(req);
            true
        } else {
            false
        }
    }

    /// Fold another plan's requests into this one.
    pub fn merge(&mut self, other: RunPlan) {
        for r in other.reqs {
            self.push(r);
        }
    }

    /// Number of unique simulations planned.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// The unique requests, in insertion order.
    pub fn requests(&self) -> &[RunRequest] {
        &self.reqs
    }
}

/// The worker-thread count the harness uses by default: the
/// `PIRANHA_THREADS` environment variable if set (and ≥ 1), else
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PIRANHA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A memoizing executor for simulation runs.
///
/// Results are cached by [`cache_key`] in a [`SharedCache`];
/// [`Harness::execute`] runs every uncached request of a [`RunPlan`]
/// across scoped worker threads, and [`Harness::fetch`] returns cached
/// results (simulating inline, serially, on a miss so figures never see
/// a gap).
///
/// Two extra layers compose in transparently:
///
/// - **Persistence** — with a [`ResultStore`] attached (explicitly via
///   [`Harness::set_store`] or process-wide via [`set_default_store`]),
///   every miss consults the store before simulating and every computed
///   result is persisted, so sweeps resume across processes.
/// - **In-flight dedup** — the cache tracks keys *being* computed, so a
///   key submitted while already in flight (a second harness sharing the
///   cache, or the serve worker pool) waits on the running computation
///   instead of recomputing it.
pub struct Harness {
    cache: SharedCache,
    store: Option<Arc<dyn ResultStore>>,
    threads: usize,
    executed: usize,
    hits: usize,
    store_hits: usize,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("cached", &self.cache.len())
            .field("threads", &self.threads)
            .field("executed", &self.executed)
            .field("hits", &self.hits)
            .field("store_hits", &self.store_hits)
            .field("store", &self.store.is_some())
            .finish()
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness using [`default_threads`] workers (and the process-wide
    /// default [`ResultStore`], if one is installed).
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// A harness with an explicit worker count (`1` = serial). Picks up
    /// the process-wide default store.
    pub fn with_threads(threads: usize) -> Self {
        Harness {
            cache: SharedCache::new(),
            store: default_store(),
            threads: threads.max(1),
            executed: 0,
            hits: 0,
            store_hits: 0,
        }
    }

    /// A strictly serial harness (still memoizing).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Attach (or detach) a persistent result store.
    pub fn set_store(&mut self, store: Option<Arc<dyn ResultStore>>) {
        self.store = store;
    }

    /// The in-memory cache, cloneable into another harness
    /// ([`Harness::with_cache`]) or the serve worker pool so concurrent
    /// consumers share results and in-flight dedup.
    pub fn shared_cache(&self) -> SharedCache {
        self.cache.clone()
    }

    /// Replace the in-memory cache (builder-style), typically with one
    /// shared from another harness.
    pub fn with_cache(mut self, cache: SharedCache) -> Self {
        self.cache = cache;
        self
    }

    /// The worker-thread bound.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many simulations this harness actually executed (store loads
    /// and waits on another claimant's computation are *not* counted).
    pub fn unique_runs(&self) -> usize {
        self.executed
    }

    /// How many [`Harness::fetch`] calls were answered from the cache.
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// How many results were served from the persistent store instead of
    /// being recomputed.
    pub fn store_hits(&self) -> usize {
        self.store_hits
    }

    /// Execute every request of `plan` that is not already cached,
    /// fanning the unique runs out over up to `threads` scoped workers.
    ///
    /// The calling thread is worker 0 and spawns the other `workers - 1`;
    /// all pull tasks from one shared index in plan order, so one worker
    /// is exactly the serial loop and spawns no thread. Each task builds
    /// its own `Machine`, making results independent of scheduling.
    /// Requests whose key lands in the persistent store or is computed
    /// concurrently by another cache sharer are *not* re-simulated.
    pub fn execute(&mut self, plan: &RunPlan) {
        let todo: Vec<&RunRequest> = plan
            .requests()
            .iter()
            .filter(|r| self.cache.lookup(&r.key()).is_none())
            .collect();
        if todo.is_empty() {
            return;
        }
        // Nested-parallelism budget: each simulation may itself spin up
        // lane threads, so the sweep gets its share of the thread budget
        // (at least one worker either way). Divide by what the batch's
        // machines will actually use — single-chip runs are serial no
        // matter the `node_workers()` setting, and multi-chip runs clamp
        // it to their lane count — not by the raw setting, which would
        // starve sweeps of small configs under a wide `--parallel` flag.
        let per_run = todo
            .iter()
            .map(|r| effective_lane_width(&r.cfg, node_workers()))
            .max()
            .unwrap_or(1);
        let workers = piranha_parsim::sweep_share(self.threads, per_run).min(todo.len());
        let [next, executed, store_hits] = [0; 3].map(AtomicUsize::new);
        let pull = || {
            while let Some(req) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                let counter = match self.cache.resolve(self.store.as_deref(), req).1 {
                    Provenance::Computed => &executed,
                    Provenance::Store => &store_hits,
                    Provenance::Memory => continue,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(pull);
            }
            pull();
        });
        self.executed += executed.into_inner();
        self.store_hits += store_hits.into_inner();
    }

    /// The memoized result of one request; simulates inline (serially)
    /// if it is not cached yet — or loads it from the store, or waits
    /// for a concurrent claimant, through the same claim protocol
    /// [`Harness::execute`] uses.
    pub fn fetch(&mut self, req: &RunRequest) -> Arc<RunResult> {
        let (r, p) = self.cache.resolve(self.store.as_deref(), req);
        match p {
            Provenance::Memory => self.hits += 1,
            Provenance::Store => self.store_hits += 1,
            Provenance::Computed => self.executed += 1,
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_workloads::SynthConfig;

    fn synth() -> Workload {
        Workload::Synth(SynthConfig::light())
    }

    fn tiny_cfg(name: &str, cpus: usize) -> SystemConfig {
        let mut c = SystemConfig::piranha_pn(cpus.max(1));
        c.name = name.into();
        c.cpu_quantum = 500;
        c
    }

    #[test]
    fn plan_deduplicates_by_key() {
        let mut plan = RunPlan::new();
        assert!(plan.add(tiny_cfg("A", 1), synth(), RunScale::tiny()));
        assert!(
            !plan.add(tiny_cfg("A", 1), synth(), RunScale::tiny()),
            "exact dup dropped"
        );
        assert!(
            plan.add(tiny_cfg("A", 2), synth(), RunScale::tiny()),
            "config change kept"
        );
        assert!(
            plan.add(tiny_cfg("A", 1), synth(), RunScale::quick()),
            "scale change kept"
        );
        assert_eq!(plan.len(), 3);
        let mut other = RunPlan::new();
        other.add(tiny_cfg("A", 2), synth(), RunScale::tiny());
        other.add(tiny_cfg("B", 1), synth(), RunScale::tiny());
        plan.merge(other);
        assert_eq!(plan.len(), 4, "merge dedups against existing keys");
    }

    #[test]
    fn execute_memoizes_and_get_hits() {
        let mut plan = RunPlan::new();
        plan.add(tiny_cfg("A", 1), synth(), RunScale::tiny());
        plan.add(tiny_cfg("B", 1), synth(), RunScale::tiny());
        let mut h = Harness::serial();
        h.execute(&plan);
        assert_eq!(h.unique_runs(), 2);
        h.execute(&plan);
        assert_eq!(h.unique_runs(), 2, "re-executing a cached plan is free");
        let _ = h.fetch(&plan.requests()[0]);
        assert_eq!(h.cache_hits(), 1);
        assert_eq!(h.unique_runs(), 2, "fetch() was served from cache");
    }

    #[test]
    fn parallel_results_are_bit_identical_to_serial() {
        let mut plan = RunPlan::new();
        for (name, cpus) in [("A", 1), ("B", 2), ("C", 1), ("D", 2), ("E", 1)] {
            plan.add(tiny_cfg(name, cpus), synth(), RunScale::tiny());
        }
        let mut serial = Harness::serial();
        serial.execute(&plan);
        let mut parallel = Harness::with_threads(4);
        parallel.execute(&plan);
        for req in plan.requests() {
            let (a, b) = (serial.fetch(req), parallel.fetch(req));
            assert_eq!(a.name, b.name);
            assert_eq!(a.window, b.window);
            assert_eq!(a.total_instrs(), b.total_instrs());
            assert_eq!(a.cpus.len(), b.cpus.len());
            for (x, y) in a.cpus.iter().zip(&b.cpus) {
                assert_eq!(
                    format!("{x:?}"),
                    format!("{y:?}"),
                    "per-CPU stats identical"
                );
            }
        }
    }

    #[test]
    fn get_runs_inline_on_miss() {
        let mut h = Harness::new();
        let r = h.fetch(&RunRequest::new(
            tiny_cfg("A", 1),
            synth(),
            RunScale::tiny(),
        ));
        assert!(r.total_instrs() >= 10_000);
        assert_eq!(h.unique_runs(), 1);
        assert_eq!(h.cache_hits(), 0);
    }

    /// A sampling schedule small enough for tiny synthetic runs.
    fn tiny_sample() -> SampleConfig {
        SampleConfig {
            warmup: 1_000,
            period: 5_000,
            detail_warmup: 100,
            window: 500,
            max_windows: 8,
        }
    }

    #[test]
    fn lane_workers_do_not_change_multichip_results() {
        let req = RunRequest::new(
            tiny_cfg("MC", 2).scaled_to_chips(2),
            synth(),
            RunScale::tiny(),
        );
        let run = |workers| {
            let mut m = req.build();
            m.set_parallel_workers(workers);
            req.drive(&mut m)
        };
        let (serial, threaded) = (run(1), run(2));
        assert_eq!(serial.fingerprint(), threaded.fingerprint());
        assert_eq!(serial.window, threaded.window);
        assert_eq!(serial.total_instrs(), threaded.total_instrs());
    }

    #[test]
    fn sampled_run_carries_estimate_and_respects_budget() {
        let scale = RunScale {
            warmup: 5_000,
            measure: 20_000,
            to_completion: false,
        };
        let req = RunRequest {
            sample: Some(tiny_sample()),
            ..RunRequest::new(tiny_cfg("S", 2), synth(), scale)
        };
        let r = req.run();
        let est = r.sample.as_ref().expect("sampled run carries estimate");
        assert!(est.windows >= 3);
        assert!(est.cpi_mean > 0.0);
        // The budget is per-CPU: warming plus detailed windows must
        // together cover scale.warmup + scale.measure on both CPUs.
        assert!(est.detailed_instrs + est.warmed_instrs >= 2 * 25_000);
    }

    #[test]
    fn traffic_run_carries_summary_and_is_memoized_separately() {
        let cfg = tiny_cfg("T", 2);
        let oltp = piranha_workloads::OltpConfig {
            txn_limit: 10,
            ..piranha_workloads::OltpConfig::paper_default()
        };
        let w = Workload::Oltp(oltp);
        let mut loaded = cfg.clone();
        loaded.traffic = piranha_system::TrafficConfig::poisson(200.0);
        let r = RunRequest::new(loaded.clone(), w.clone(), RunScale::completion()).run();
        let t = r.traffic.as_ref().expect("traffic summary present");
        assert!(t.ledger.conserved(), "ledger: {:?}", t.ledger);
        assert_eq!(t.ledger.completed, 20, "both cores drained their limit");
        // The traffic config is part of the cache key, so loaded and
        // unloaded runs of the same (cfg, workload, scale) never collide.
        assert_ne!(
            cache_key(&cfg, &w, RunScale::completion()),
            cache_key(&loaded, &w, RunScale::completion())
        );
    }

    #[test]
    fn lane_width_reflects_actual_threads_not_the_setting() {
        // A single-chip machine runs the serial engine: its width is 1
        // no matter how wide --parallel is set.
        assert_eq!(effective_lane_width(&tiny_cfg("A", 2), 8), 1);
        // Multi-chip machines clamp the setting to their lane count.
        let multi = tiny_cfg("A", 2).scaled_to_chips(2);
        assert_eq!(effective_lane_width(&multi, 8), 2);
        assert_eq!(effective_lane_width(&multi, 1), 1);
        let wide = tiny_cfg("A", 2).scaled_to_chips(4);
        assert_eq!(effective_lane_width(&wide, 3), 3);
    }

    #[test]
    fn thread_env_override_parses() {
        // Only checks the parser contract; the env var itself is global
        // state we do not mutate in tests.
        assert!(default_threads() >= 1);
    }

    /// In-memory [`ResultStore`] with save/load counters, standing in
    /// for the on-disk store in unit tests.
    #[derive(Default)]
    struct MemStore {
        map: Mutex<HashMap<String, RunResult>>,
        saves: AtomicUsize,
        loads: AtomicUsize,
    }

    impl ResultStore for MemStore {
        fn load(&self, key: &str) -> Option<RunResult> {
            let r = self.map.lock().unwrap().get(key).cloned();
            if r.is_some() {
                self.loads.fetch_add(1, Ordering::Relaxed);
            }
            r
        }
        fn save(&self, key: &str, result: &RunResult) {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.map
                .lock()
                .unwrap()
                .insert(key.to_string(), result.clone());
        }
    }

    #[test]
    fn store_persists_and_short_circuits_recompute() {
        let store = Arc::new(MemStore::default());
        let mut plan = RunPlan::new();
        plan.add(tiny_cfg("A", 1), synth(), RunScale::tiny());
        plan.add(tiny_cfg("B", 1), synth(), RunScale::tiny());
        // A sampled request keys apart from its full-detail twin.
        let sampled = RunRequest {
            sample: Some(tiny_sample()),
            ..plan.requests()[0].clone()
        };
        assert_ne!(sampled.key(), plan.requests()[0].key());
        assert!(plan.push(sampled.clone()));

        let mut first = Harness::serial();
        first.set_store(Some(store.clone() as Arc<dyn ResultStore>));
        first.execute(&plan);
        assert_eq!(first.unique_runs(), 3);
        assert_eq!(first.store_hits(), 0);
        assert_eq!(store.saves.load(Ordering::Relaxed), 3);

        // A fresh harness (fresh in-memory cache, same store) resumes
        // from disk: zero simulations, three store hits.
        let mut second = Harness::serial();
        second.set_store(Some(store.clone() as Arc<dyn ResultStore>));
        second.execute(&plan);
        assert_eq!(second.unique_runs(), 0, "resumed entirely from store");
        assert_eq!(second.store_hits(), 3);
        assert_eq!(store.saves.load(Ordering::Relaxed), 3, "nothing re-saved");
        assert!(second.fetch(&sampled).sample.is_some(), "estimate loaded");

        // And the results agree bit-for-bit with a storeless run.
        let mut bare = Harness::serial();
        bare.execute(&plan);
        for req in plan.requests() {
            let a = second.fetch(req);
            let b = bare.fetch(req);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn partial_store_resumes_only_missing_rows() {
        let store = Arc::new(MemStore::default());
        let mut warm = RunPlan::new();
        warm.add(tiny_cfg("A", 1), synth(), RunScale::tiny());
        let mut h = Harness::serial();
        h.set_store(Some(store.clone() as Arc<dyn ResultStore>));
        h.execute(&warm);

        // A superset plan in a fresh harness recomputes only row B, as a
        // killed-and-restarted sweep would.
        let mut full = warm.clone();
        full.add(tiny_cfg("B", 1), synth(), RunScale::tiny());
        let mut resumed = Harness::serial();
        resumed.set_store(Some(store.clone() as Arc<dyn ResultStore>));
        resumed.execute(&full);
        assert_eq!(resumed.store_hits(), 1);
        assert_eq!(resumed.unique_runs(), 1);
    }

    #[test]
    fn duplicate_submission_in_flight_is_idempotent() {
        // Two harnesses sharing one cache race the same plan; the
        // in-flight claim protocol must hand every key to exactly one of
        // them, so total simulations equal the number of unique tuples.
        let mut plan = RunPlan::new();
        for (name, cpus) in [("A", 1), ("B", 2), ("C", 1), ("D", 2)] {
            plan.add(tiny_cfg(name, cpus), synth(), RunScale::tiny());
        }
        let lead = Harness::with_threads(2);
        let cache = lead.shared_cache();
        let (a, b) = std::thread::scope(|s| {
            let plan_a = plan.clone();
            let cache_a = cache.clone();
            let ta = s.spawn(move || {
                let mut h = Harness::with_threads(2).with_cache(cache_a);
                h.set_store(None);
                h.execute(&plan_a);
                h.unique_runs()
            });
            let plan_b = plan.clone();
            let tb = s.spawn(move || {
                let mut h = Harness::with_threads(2).with_cache(cache);
                h.set_store(None);
                h.execute(&plan_b);
                h.unique_runs()
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a + b, plan.len(), "each tuple simulated exactly once");
        assert_eq!(lead.shared_cache().len(), plan.len());
    }

    #[test]
    fn abandoned_claim_is_released_to_waiters() {
        let cache = SharedCache::new();
        let key = "k";
        let Claim::Owed(guard) = cache.claim(key) else {
            panic!("fresh key must be owed");
        };
        // Simulate a panicking worker: the guard drops unfulfilled while
        // another thread is blocked waiting on the in-flight entry.
        let waiter = std::thread::spawn({
            let cache = cache.clone();
            move || match cache.claim(key) {
                Claim::Ready(_) => panic!("nothing was ever fulfilled"),
                Claim::Owed(g) => g.key().to_string(),
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard);
        assert_eq!(waiter.join().unwrap(), key, "waiter inherited the claim");
        assert!(cache.lookup(key).is_none());
    }
}
