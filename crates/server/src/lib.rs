//! # graphmem-server — concurrent experiment service
//!
//! A std-only HTTP/1.1 experiment service: clients POST typed
//! [`RunSpec`]s (single configs or sweep grids), a bounded job queue
//! feeds a worker pool that executes each config
//! through the fault-tolerant supervisor
//! ([`graphmem_core::supervise_one`]), and a two-tier content-addressed
//! [`ResultStore`] keyed on the FNV-1a `config_hash` makes repeated
//! submissions of the same config return the *byte-identical*
//! `RunReport` JSON without re-running.
//!
//! ## API
//!
//! | route | behaviour |
//! |---|---|
//! | `POST /runs` | submit a spec (`{…}` or `{"spec":{…},"sweep":"pressure"}`); `202` with job id + config hashes, `429` when the queue is full |
//! | `GET /runs/<id>` | stream per-config progress as JSON Lines, then a summary row |
//! | `GET /results/<hash>` | the stored report JSON, byte-exact (`404` if absent) |
//! | `GET /metrics` | queue depth, worker utilization, cache hit/miss, durability and breaker counters |
//! | `GET /healthz` | liveness + degradation: queue depth, open breakers; `503` with reasons once the store flips read-only |
//!
//! Shutdown (SIGINT in the CLI, [`Server::join`] in-process) is
//! drain-then-flush: the accept loop stops, in-flight configs finish or
//! are cancelled through the supervisor's cooperative cancel flag,
//! still-queued configs settle as `interrupted`, and every completed
//! result has already been flushed to the on-disk shard tier.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod jobs;
pub mod store;

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use graphmem_core::breaker::{BreakerConfig, CircuitBreakers};
use graphmem_core::durable::{FsyncPolicy, IoFaultPlan};
use graphmem_core::{
    graphcache, supervise_one, Experiment, FaultPlan, GraphmemError, RunSpec, SupervisorConfig,
    SweepKind,
};
use graphmem_telemetry::counters::{self, Field};
use graphmem_telemetry::json::{JsonObject, JsonValue};

use jobs::{ConfigState, Job};
use store::ResultStore;

/// Everything the service needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing experiments.
    pub workers: usize,
    /// Max configs queued (not yet running); beyond this, `POST /runs`
    /// answers `429`.
    pub queue_capacity: usize,
    /// Durable result-store directory; `None` keeps results in memory
    /// only.
    pub cache_dir: Option<PathBuf>,
    /// Supervisor retries per config (transient failures only).
    pub retries: u32,
    /// Optional per-config watchdog timeout.
    pub timeout: Option<Duration>,
    /// When result-shard appends are pushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Deterministic IO faults injected into result-shard appends, by
    /// append index (`--chaos io-torn@…,enospc@…`).
    pub io_faults: IoFaultPlan,
    /// Deterministic compute faults injected into executed (non-cached)
    /// configs, by execution order (`--chaos panic@…`).
    pub compute_faults: FaultPlan,
    /// Consecutive panic/timeout outcomes that trip a config's circuit
    /// breaker (0 disables breaking).
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
}

/// The service's default bind address, and where `graphmem submit` looks
/// for it.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_dir: None,
            retries: 1,
            timeout: None,
            fsync: FsyncPolicy::Always,
            io_faults: IoFaultPlan::none(),
            compute_faults: FaultPlan::none(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(10),
        }
    }
}

/// Settled jobs kept for `GET /runs/<id>` after they finish; older
/// settled jobs are evicted (and answer `404`). Pending and running jobs
/// are never evicted, so the table holds at most this many plus the jobs
/// still in flight, which admission control bounds by the queue.
const RETAINED_JOBS: usize = 1024;

/// Pause after an `accept` error (EMFILE, ENFILE, ENOBUFS) so a persistent
/// one cannot spin the accept loop, and between failed wake connections in
/// [`Server::join`].
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// One queued unit of work: a single config of a job.
#[derive(Debug)]
struct Task {
    job: Arc<Job>,
    index: usize,
    exp: Experiment,
}

#[derive(Debug)]
struct ServerState {
    queue: Mutex<VecDeque<Task>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    /// Jobs by id; ids are monotonic, so iteration order is age order.
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_job: AtomicU64,
    store: ResultStore,
    shutdown: Arc<AtomicBool>,
    workers_total: usize,
    workers_busy: AtomicUsize,
    jobs_submitted: AtomicU64,
    configs_done: AtomicU64,
    configs_failed: AtomicU64,
    rejected: AtomicU64,
    /// Governor decisions aggregated across every executed (non-cached)
    /// governed config, for `/metrics`.
    governor_promotions: AtomicU64,
    governor_demotions: AtomicU64,
    governor_denied: AtomicU64,
    breakers: Arc<CircuitBreakers>,
    /// How every executed config is supervised: retries, watchdog,
    /// compute faults, breakers, and the shutdown flag as its cancel.
    supervisor: SupervisorConfig,
    /// Executed (non-cached) configs so far — the index the compute
    /// fault plan keys on.
    task_clock: AtomicU64,
}

/// A running service instance: accept loop + worker pool, shut down via
/// [`Server::shutdown`] / [`Server::join`].
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return a handle.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the listener cannot bind or the
    /// cache directory cannot be created.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let workers_total = config.workers.max(1);
        // At least one prepared graph per worker, so concurrent workers on
        // distinct graphs don't thrash each other.
        graphcache::shared().set_capacity(graphcache::DEFAULT_ENTRIES.max(workers_total));
        let store = ResultStore::open_with(
            config.cache_dir,
            store::DEFAULT_MEM_ENTRIES,
            config.fsync,
            config.io_faults,
        )?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let breakers = Arc::new(CircuitBreakers::new(BreakerConfig {
            threshold: config.breaker_threshold,
            cooldown: config.breaker_cooldown,
        }));

        let state = Arc::new(ServerState {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            store,
            shutdown: Arc::clone(&shutdown),
            workers_total,
            workers_busy: AtomicUsize::new(0),
            jobs_submitted: AtomicU64::new(0),
            configs_done: AtomicU64::new(0),
            configs_failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            governor_promotions: AtomicU64::new(0),
            governor_demotions: AtomicU64::new(0),
            governor_denied: AtomicU64::new(0),
            breakers: Arc::clone(&breakers),
            supervisor: SupervisorConfig {
                retries: config.retries,
                timeout: config.timeout,
                faults: config.compute_faults,
                breakers: Some(breakers),
                cancel: Some(shutdown),
                ..SupervisorConfig::default()
            },
            task_clock: AtomicU64::new(0),
        });

        let workers = (0..workers_total)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&listener, &state))
        };

        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown without blocking: stops accepting, cancels the
    /// supervisor's in-flight work cooperatively, wakes idle workers.
    pub fn shutdown(&self) {
        self.signal();
        // The accept loop blocks in `accept`; one loopback connection wakes
        // it to see the flag. Refused once the loop has already exited;
        // [`Server::join`] retries a wake that fails for any other reason.
        let _ = TcpStream::connect(wake_addr(self.addr));
    }

    /// Set the shutdown flag and wake idle workers.
    fn signal(&self) {
        // Set the flag under the queue lock: a worker checks it under the
        // same lock before waiting, so it cannot miss the notify.
        {
            let _queue = lock_clean(&self.state.queue);
            self.state.shutdown.store(true, Ordering::SeqCst);
        }
        self.state.queue_cv.notify_all();
    }

    /// Drain and stop: signal shutdown, join the worker pool, settle every
    /// still-queued config as `interrupted` so progress streams terminate,
    /// then join the accept loop. Completed results were flushed to the
    /// durable tier as they were produced.
    pub fn join(self) {
        self.join_waking_with(TcpStream::connect);
    }

    /// [`Server::join`], opening the accept loop's wake connections with
    /// `connect`.
    fn join_waking_with(mut self, mut connect: impl FnMut(SocketAddr) -> io::Result<TcpStream>) {
        self.signal();
        let wake = wake_addr(self.addr);
        let mut woken = connect(wake).is_ok();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let drained: Vec<Task> = lock_clean(&self.state.queue).drain(..).collect();
        for task in drained {
            task.job.set_state(task.index, ConfigState::Interrupted);
        }
        for job in lock_clean(&self.state.jobs).values() {
            job.interrupt_pending();
        }
        if let Some(accept) = self.accept.take() {
            // The wake connection fails while descriptors are exhausted
            // (EMFILE, ENFILE). Every job has settled by now, so the
            // progress streams holding descriptors are closing: retry
            // until one wake connection lands or the loop has exited.
            while !woken && !accept.is_finished() {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                woken = connect(wake).is_ok();
            }
            let _ = accept.join();
        }
    }

    /// Block until `cancel` flips (e.g. a SIGINT flag), then drain and
    /// stop. This is the CLI's `graphmem serve` main loop.
    pub fn run_until(self, cancel: &AtomicBool) {
        while !cancel.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let task = {
            let mut queue = lock_clean(&state.queue);
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = state
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        state.workers_busy.fetch_add(1, Ordering::SeqCst);
        run_task(state, &task);
        state.workers_busy.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_task(state: &ServerState, task: &Task) {
    let fallback = task.exp.config_hash();
    let hash = task.job.hashes.get(task.index).unwrap_or(&fallback);
    task.job.set_state(task.index, ConfigState::Running);

    if state.store.get(hash).is_some() {
        state.configs_done.fetch_add(1, Ordering::Relaxed);
        task.job
            .set_state(task.index, ConfigState::Done { cached: true });
        return;
    }

    // Consume one tick of the chaos clock per *executed* config so the
    // `--chaos` indices mean "the Nth config that actually runs".
    let chaos_index = state.task_clock.fetch_add(1, Ordering::SeqCst) as usize;
    let settled = match supervise_one(chaos_index, &task.exp, hash, &state.supervisor) {
        Ok(report) => {
            if let Some(gov) = &report.governor {
                state
                    .governor_promotions
                    .fetch_add(gov.promotions, Ordering::Relaxed);
                state
                    .governor_demotions
                    .fetch_add(gov.demotions, Ordering::Relaxed);
                state
                    .governor_denied
                    .fetch_add(gov.denied_by_fragmentation, Ordering::Relaxed);
            }
            let json = report.to_json();
            if let Err(err) = state.store.put(hash, &json) {
                eprintln!("graphmem-server: result flush failed for {hash}: {err}");
            }
            state.configs_done.fetch_add(1, Ordering::Relaxed);
            ConfigState::Done { cached: false }
        }
        Err(failure) if matches!(failure.error, GraphmemError::Interrupted) => {
            ConfigState::Interrupted
        }
        Err(failure) => {
            state.configs_failed.fetch_add(1, Ordering::Relaxed);
            ConfigState::Failed {
                code: failure.error.code().to_string(),
                message: failure.error.to_string(),
            }
        }
    };
    task.job.set_state(task.index, settled);
}

/// Where [`Server::shutdown`] connects to wake the accept loop: the bound
/// address, or loopback when bound to the unspecified address.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Block in `accept` and serve each connection on its own thread, so a
/// long-lived `GET /runs/<id>` stream never delays another connection. The
/// connection that wakes the loop after [`Server::shutdown`] is dropped
/// unserved.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let state = Arc::clone(state);
                std::thread::spawn(move || handle_connection(&state, stream));
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn error_body(message: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("error", message);
    o.finish()
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let request = match http::read_request(&mut stream) {
        Ok(req) => req,
        Err(err) => {
            let _ = http::respond_json(&mut stream, 400, &error_body(&err.to_string()));
            return;
        }
    };
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/runs") => submit_runs(state, &mut stream, &request.body),
        ("GET", path) if path.starts_with("/runs/") => {
            stream_job(state, &mut stream, &path["/runs/".len()..])
        }
        ("GET", path) if path.starts_with("/results/") => {
            serve_result(state, &mut stream, &path["/results/".len()..])
        }
        // Content negotiation: Prometheus scrapers ask for text/plain and
        // get the exposition format; everything else keeps the JSON body.
        ("GET", "/metrics") if request.accept.contains("text/plain") => http::respond_text(
            &mut stream,
            200,
            &counters::prometheus(&MetricsSnapshot::take(state), "graphmem_"),
        ),
        ("GET", "/metrics") => {
            http::respond_json(&mut stream, 200, &MetricsSnapshot::take(state).to_json())
        }
        ("GET", "/healthz") => serve_health(state, &mut stream),
        ("POST" | "GET", _) => http::respond_json(&mut stream, 404, &error_body("no such route")),
        _ => http::respond_json(&mut stream, 405, &error_body("method not allowed")),
    };
    let _ = outcome;
}

/// Parse a `POST /runs` body into the experiment grid it describes. The
/// body is either a bare spec object or `{"spec":{…},"sweep":"<kind>"}`.
fn parse_submission(body: &str) -> Result<Vec<Experiment>, String> {
    let value = JsonValue::parse(body)?;
    let spec_value = value.get("spec").unwrap_or(&value);
    let spec = RunSpec::from_json_value(spec_value)?;
    let sweep = match value.get("sweep") {
        None | Some(JsonValue::Null) => None,
        Some(v) => {
            let token = v.as_str().ok_or("sweep must be a string")?;
            Some(SweepKind::from_token(token)?)
        }
    };
    spec.experiments(sweep).map_err(|e| e.to_string())
}

fn submit_runs(state: &ServerState, stream: &mut TcpStream, body: &str) -> io::Result<()> {
    let experiments = match parse_submission(body) {
        Ok(exps) => exps,
        Err(message) => return http::respond_json(stream, 400, &error_body(&message)),
    };
    let hashes: Vec<String> = experiments.iter().map(Experiment::config_hash).collect();

    // Admission control under the queue lock: either the whole grid fits
    // or the submission bounces — partial jobs would never settle.
    let job = {
        let mut queue = lock_clean(&state.queue);
        if queue.len() + experiments.len() > state.queue_capacity {
            drop(queue);
            state.rejected.fetch_add(1, Ordering::Relaxed);
            let mut o = JsonObject::new();
            o.field_str("error", "queue full");
            o.field_u64("queue_capacity", state.queue_capacity as u64);
            return http::respond_json(stream, 429, &o.finish());
        }
        let id = state.next_job.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(Job::new(id, hashes.clone()));
        for (index, exp) in experiments.into_iter().enumerate() {
            queue.push_back(Task {
                job: Arc::clone(&job),
                index,
                exp,
            });
        }
        job
    };
    state.queue_cv.notify_all();
    state.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    retain_job(&mut lock_clean(&state.jobs), &job);

    let mut o = JsonObject::new();
    o.field_u64("job", job.id);
    o.field_u64("total", job.total() as u64);
    o.field_raw("hashes", &hashes.json());
    http::respond_json(stream, 202, &o.finish())
}

fn stream_job(state: &ServerState, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    let Ok(id) = id.parse::<u64>() else {
        return http::respond_json(stream, 400, &error_body("job id must be an integer"));
    };
    let Some(job) = lock_clean(&state.jobs).get(&id).map(Arc::clone) else {
        return http::respond_json(stream, 404, &error_body("no such job"));
    };
    http::start_stream(stream)?;
    for index in 0..job.total() {
        let settled = job.wait_settled(index);
        writeln!(stream, "{}", job.progress_row(index, &settled))?;
        stream.flush()?;
    }
    writeln!(stream, "{}", job.summary_row())?;
    stream.flush()
}

/// Add `job` to the table, then evict the oldest settled jobs beyond
/// [`RETAINED_JOBS`]. Unsettled jobs stay whatever their age.
fn retain_job(jobs: &mut BTreeMap<u64, Arc<Job>>, job: &Arc<Job>) {
    jobs.insert(job.id, Arc::clone(job));
    let excess = jobs.len().saturating_sub(RETAINED_JOBS);
    let evict: Vec<u64> = jobs
        .iter()
        .filter(|(_, job)| job.is_settled())
        .map(|(id, _)| *id)
        .take(excess)
        .collect();
    for id in evict {
        jobs.remove(&id);
    }
}

/// `GET /healthz`: liveness plus degradation. `200 {"ok":true,…}` while
/// the durable tier is writable; `503 {"ok":false,…}` once the store has
/// flipped read-only, with the reasons listed — results still serve from
/// memory, which is exactly what "degraded" means. Open circuit breakers
/// are reported but do not flip liveness: they protect capacity rather
/// than reduce it.
fn serve_health(state: &ServerState, stream: &mut TcpStream) -> io::Result<()> {
    let degraded = state.store.is_degraded();
    let breakers = state.breakers.snapshot();
    let reasons: Vec<String> = state.store.degraded_reason().into_iter().collect();
    let mut o = JsonObject::new();
    o.field_bool("ok", !degraded);
    o.field_bool("degraded", degraded);
    o.field_u64("queue_depth", lock_clean(&state.queue).len() as u64);
    o.field_raw("open_breakers", &breakers.open.json());
    o.field_raw("reasons", &reasons.json());
    http::respond_json(stream, if degraded { 503 } else { 200 }, &o.finish())
}

fn serve_result(state: &ServerState, stream: &mut TcpStream, hash: &str) -> io::Result<()> {
    match state.store.peek(hash) {
        Some(json) => http::respond_json(stream, 200, &json),
        None => http::respond_json(stream, 404, &error_body("no result for that hash")),
    }
}

graphmem_telemetry::counters! {
    /// One coherent-enough reading of every service metric, taken once and
    /// rendered as either JSON or the Prometheus text exposition so the two
    /// representations always agree field-for-field. Each field's doc
    /// comment is its Prometheus `# HELP` text and its section its `# TYPE`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        gauge {
            /// Configs queued and not yet running
            queue_depth: u64,
            /// Queue size beyond which submissions are rejected
            queue_capacity: u64,
            /// Experiment worker threads
            workers: u64,
            /// Workers currently executing a config
            workers_busy: u64,
        }
        cumulative {
            /// Accepted POST /runs submissions
            jobs_submitted: u64,
            /// Configs finished successfully (including cached)
            configs_completed: u64,
            /// Configs that settled as failed
            configs_failed: u64,
            /// Submissions bounced with 429 (queue full)
            submissions_rejected: u64,
            /// Result-store lookups answered from cache
            result_hits: u64,
            /// Result-store lookups that required a run
            result_misses: u64,
            /// Prepared-graph cache hits
            graph_cache_hits: u64,
            /// Prepared-graph cache misses
            graph_cache_misses: u64,
        }
        gauge {
            /// Prepared graphs currently cached
            graph_cache_len: u64,
        }
        cumulative {
            /// Simulated accesses bulk-charged via a remembered translation
            translation_memo_hits: u64,
            /// Simulated accesses that performed a real MMU probe on the fast path
            translation_memo_misses: u64,
            /// Result records appended to durable shards
            store_records_written: u64,
            /// Explicit fsyncs issued by shard appends
            store_fsyncs: u64,
            /// Torn final shard records truncated at open or rolled back
            store_torn_tails_recovered: u64,
            /// Corrupt shard records moved to .quarantine sidecars
            store_quarantined: u64,
            /// Corrupt shard lines observed by reads
            store_corrupt_lines: u64,
        }
        gauge {
            /// 1 when the result store has flipped read-only
            store_degraded: u64,
            /// Config circuit breakers currently open or probing
            breaker_open: u64,
        }
        cumulative {
            /// Circuit breakers tripped open
            breaker_trips: u64,
            /// Submissions rejected by an open circuit breaker
            breaker_rejections: u64,
            /// Page-size governor promotions across executed governed configs
            governor_promotions: u64,
            /// Page-size governor demotions across executed governed configs
            governor_demotions: u64,
            /// Governor promotions denied by fragmentation (no contiguity)
            governor_denied: u64,
        }
    }
}

impl MetricsSnapshot {
    /// Every metric is an independent statistic: a scrape needs no
    /// ordering relationship between counters (a reader observing
    /// `configs_completed` slightly behind `jobs_submitted` is fine), so
    /// all loads are uniformly `Relaxed` — mixing in `SeqCst` for some
    /// fields bought no extra consistency, only the appearance of it.
    fn take(state: &ServerState) -> MetricsSnapshot {
        let (result_hits, result_misses) = state.store.stats();
        let (graph_cache_hits, graph_cache_misses) = graphcache::shared().stats();
        let (translation_memo_hits, translation_memo_misses) = graphmem_core::memostats::snapshot();
        let counters = state.store.counters();
        let breakers = state.breakers.snapshot();
        MetricsSnapshot {
            queue_depth: lock_clean(&state.queue).len() as u64,
            queue_capacity: state.queue_capacity as u64,
            workers: state.workers_total as u64,
            workers_busy: state.workers_busy.load(Ordering::Relaxed) as u64,
            jobs_submitted: state.jobs_submitted.load(Ordering::Relaxed),
            configs_completed: state.configs_done.load(Ordering::Relaxed),
            configs_failed: state.configs_failed.load(Ordering::Relaxed),
            submissions_rejected: state.rejected.load(Ordering::Relaxed),
            result_hits,
            result_misses,
            graph_cache_hits,
            graph_cache_misses,
            graph_cache_len: graphcache::shared().len() as u64,
            translation_memo_hits,
            translation_memo_misses,
            store_records_written: counters.records_written,
            store_fsyncs: counters.fsyncs,
            store_torn_tails_recovered: counters.torn_tails_recovered,
            store_quarantined: counters.quarantined,
            store_corrupt_lines: counters.corrupt_lines,
            store_degraded: u64::from(state.store.is_degraded()),
            breaker_open: breakers.open.len() as u64,
            breaker_trips: breakers.trips,
            breaker_rejections: breakers.rejections,
            governor_promotions: state.governor_promotions.load(Ordering::Relaxed),
            governor_demotions: state.governor_demotions.load(Ordering::Relaxed),
            governor_denied: state.governor_denied.load(Ordering::Relaxed),
        }
    }
}

/// Lock a mutex, recovering the guard if another thread panicked while
/// holding it.
fn lock_clean<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, settled: bool) -> Arc<Job> {
        let job = Arc::new(Job::new(id, vec![format!("{id:016x}")]));
        if settled {
            job.set_state(0, ConfigState::Done { cached: true });
        }
        job
    }

    #[test]
    fn settled_jobs_beyond_retention_answer_404_and_unsettled_jobs_stay() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();
        let running = job(1, false);
        {
            let mut jobs = lock_clean(&server.state.jobs);
            retain_job(&mut jobs, &running);
            for id in 2..=RETAINED_JOBS as u64 + 2 {
                retain_job(&mut jobs, &job(id, true));
            }
            assert_eq!(jobs.len(), RETAINED_JOBS);
            assert!(jobs.contains_key(&1), "an unsettled job is never evicted");
            assert!(!jobs.contains_key(&2) && !jobs.contains_key(&3));
        }
        let (status, _) = http::request(&addr, "GET", "/runs/2", "").expect("evicted");
        assert_eq!(status, 404, "an evicted settled job is gone");
        let status = http::stream_lines(&addr, "/runs/4", |_| {}).expect("retained");
        assert_eq!(status, 200, "a retained settled job still streams");

        // Once settled, the oldest job is the next to go.
        running.set_state(0, ConfigState::Done { cached: false });
        let newest = RETAINED_JOBS as u64 + 3;
        retain_job(&mut lock_clean(&server.state.jobs), &job(newest, true));
        let (status, _) = http::request(&addr, "GET", "/runs/1", "").expect("evicted");
        assert_eq!(status, 404);
        server.join();
    }
    #[test]
    fn join_retries_a_wake_connection_that_fails() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut attempts = 0;
            server.join_waking_with(|addr| {
                attempts += 1;
                if attempts == 1 {
                    Err(io::Error::from_raw_os_error(24)) // EMFILE
                } else {
                    TcpStream::connect(addr)
                }
            });
            let _ = done_tx.send(attempts);
        });
        let attempts = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("join hangs when its first wake connection fails");
        assert_eq!(attempts, 2, "one failed wake, then one that lands");
    }
}
