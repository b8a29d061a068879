//! Supervised sweep execution: panic isolation, retries, watchdog
//! timeouts, checkpoint/resume manifests, and deterministic fault
//! injection.
//!
//! The paper's figures are grids of dozens of independent experiment
//! runs; at larger `GRAPHMEM_SCALE` a grid takes minutes to hours. The
//! supervisor makes those grids robust under adversity:
//!
//! * **Panic isolation** — each experiment runs inside
//!   `catch_unwind`, so one diverging config yields one structured
//!   failure record instead of aborting the grid. A grid of N configs
//!   always produces N outcomes.
//! * **Retry with backoff** — transient failures
//!   ([`GraphmemError::is_transient`], i.e. IO) are retried up to
//!   [`SupervisorConfig::retries`] times with capped exponential backoff
//!   plus deterministic jitter ([`durable::backoff_delay`]).
//! * **Watchdog** — an optional per-experiment wall-clock limit; a run
//!   that exceeds it is recorded as [`GraphmemError::Timeout`].
//! * **Checkpoint/resume** — each completed [`RunReport`] is appended to
//!   a JSONL *run-manifest* keyed by [`Experiment::config_hash`], framed
//!   with a per-record CRC32 and fsynced per
//!   [`SupervisorConfig::fsync`]; a later sweep pointed at the manifest
//!   skips completed configs and (because runs are deterministic and
//!   report JSON round-trips byte-exactly) produces bit-identical
//!   results to an uninterrupted run. Readers tolerate a torn final
//!   record (kill mid-append) and report interior corruption as a typed
//!   [`GraphmemError::Manifest`].
//! * **Circuit breaking** — an optional shared
//!   [`CircuitBreakers`] registry rejects configs that failed
//!   persistently (panics/timeouts) until
//!   their cooldown elapses, so one poisonous config cannot monopolize
//!   the workers.
//! * **Fault injection** — a seeded [`FaultPlan`] injects panics, delays,
//!   and IO errors into chosen grid indices, and an [`IoFaultPlan`]
//!   injects EIO/ENOSPC/torn writes into the manifest writer, so tests
//!   and CI can exercise all of the above deterministically.

use std::collections::HashMap;
use std::io::{self, BufRead};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use graphmem_telemetry::counters::read_field;
use graphmem_telemetry::json::{JsonObject, JsonValue};
use graphmem_telemetry::{EventKind, Tracer};

use crate::breaker::{BreakerDecision, CircuitBreakers};
use crate::durable::{self, DurableAppender, Framed, FsyncPolicy, IoFaultPlan};
use crate::error::GraphmemError;
use crate::experiment::Experiment;
use crate::report::RunReport;

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic inside the experiment (exercises `catch_unwind` isolation;
    /// never retried — panics are not transient).
    Panic,
    /// Fail with a transient IO error (recoverable by retry).
    IoError,
    /// Sleep this long before running (exercises the watchdog).
    Delay {
        /// Artificial delay in wall-clock milliseconds.
        ms: u64,
    },
}

impl FaultSpec {
    /// Parse the compute-fault token grammar shared by the CLI `--chaos`
    /// flag and tests: `panic`, `io`, or `delay:<ms>`.
    ///
    /// # Errors
    ///
    /// Returns a display-ready message naming the accepted tokens.
    pub fn from_token(token: &str) -> Result<FaultSpec, String> {
        if let Some(ms) = token.strip_prefix("delay:") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad delay '{ms}' (milliseconds)"))?;
            return Ok(FaultSpec::Delay { ms });
        }
        match token {
            "panic" => Ok(FaultSpec::Panic),
            "io" => Ok(FaultSpec::IoError),
            other => Err(format!(
                "compute fault must be panic|io|delay:<ms>, got '{other}'"
            )),
        }
    }

    /// The canonical token for this fault (inverse of
    /// [`Self::from_token`]).
    pub fn token(&self) -> String {
        match self {
            FaultSpec::Panic => "panic".into(),
            FaultSpec::IoError => "io".into(),
            FaultSpec::Delay { ms } => format!("delay:{ms}"),
        }
    }
}

/// A deterministic plan of faults to inject into a sweep, by grid index.
///
/// Faults fire on the *first* attempt of an experiment only, so a
/// retried IO fault recovers — exactly the transient-failure story the
/// supervisor exists to handle — while a panic (never retried) stays
/// fatal for that config.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault at grid index `index` (builder style).
    pub fn inject(mut self, index: usize, fault: FaultSpec) -> FaultPlan {
        self.faults.push((index, fault));
        self
    }

    /// A plan with one panic at a seed-chosen index in `0..n`
    /// (SplitMix64, so any u64 seed maps uniformly). Used by the
    /// kill/resume differential tests.
    pub fn seeded_panic(seed: u64, n: usize) -> FaultPlan {
        assert!(n > 0, "need at least one grid slot");
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        FaultPlan::none().inject((z % n as u64) as usize, FaultSpec::Panic)
    }

    /// The fault planned for grid index `index`, if any.
    pub fn fault_for(&self, index: usize) -> Option<&FaultSpec> {
        self.faults
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, f)| f)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned `(index, fault)` pairs, in insertion order.
    pub fn entries(&self) -> &[(usize, FaultSpec)] {
        &self.faults
    }
}

/// Ceiling on the exponential backoff between retries.
pub const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// How a sweep is supervised. `Default` gives one thread, no retries, no
/// watchdog, no manifest, no telemetry, and no faults.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads (must be ≥ 1).
    pub threads: usize,
    /// Retries per experiment after the first attempt, applied only to
    /// transient errors.
    pub retries: u32,
    /// Optional per-experiment wall-clock watchdog.
    pub timeout: Option<Duration>,
    /// Base backoff between retries; attempt *k* waits
    /// `min(BACKOFF_CAP, backoff × 2^(k−1))` plus a deterministic jitter
    /// derived from the config hash (see [`durable::backoff_delay`]).
    pub backoff: Duration,
    /// Append each completed report to this JSONL run-manifest.
    pub manifest: Option<PathBuf>,
    /// When manifest appends are pushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Deterministic IO faults injected into manifest appends, by append
    /// index (tests / chaos CI).
    pub manifest_faults: IoFaultPlan,
    /// Optional shared per-`config_hash` circuit-breaker registry; when
    /// set, configs whose breaker is open fail fast with
    /// [`GraphmemError::CircuitOpen`] instead of occupying a worker.
    pub breakers: Option<Arc<CircuitBreakers>>,
    /// Skip configs already completed in this manifest (may be the same
    /// file as `manifest`).
    pub resume: Option<PathBuf>,
    /// Tracer receiving supervisor lifecycle events
    /// (`experiment_retry` / `experiment_failure` / `experiment_complete`).
    pub telemetry: Tracer,
    /// Deterministic fault plan (tests / chaos CI).
    pub faults: FaultPlan,
    /// Cooperative cancel flag (e.g. set by a SIGINT handler): when it
    /// flips, not-yet-started experiments are recorded as
    /// [`GraphmemError::Interrupted`] and the sweep drains quickly.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: 1,
            retries: 0,
            timeout: None,
            backoff: Duration::from_millis(10),
            manifest: None,
            fsync: FsyncPolicy::Always,
            manifest_faults: IoFaultPlan::none(),
            breakers: None,
            resume: None,
            telemetry: Tracer::disabled(),
            faults: FaultPlan::none(),
            cancel: None,
        }
    }
}

/// A structured record of one experiment the supervisor gave up on.
#[derive(Debug)]
pub struct FailureRecord {
    /// Grid index of the failed experiment.
    pub index: usize,
    /// Its config hash (the manifest / resume identity).
    pub config_hash: String,
    /// Attempts made, including the first.
    pub attempts: u32,
    /// The final error.
    pub error: GraphmemError,
}

/// Everything a supervised sweep produced: one outcome per grid slot, in
/// grid order.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-config outcome, in input order — always the full grid length.
    pub outcomes: Vec<Result<RunReport, FailureRecord>>,
    /// How many slots were satisfied from the resume manifest without
    /// re-running.
    pub resumed: usize,
    /// Whether the sweep was cancelled before finishing.
    pub interrupted: bool,
}

impl SweepOutcome {
    /// The completed reports, in grid order (failures skipped).
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }

    /// The failure records, in grid order.
    pub fn failures(&self) -> impl Iterator<Item = &FailureRecord> {
        self.outcomes.iter().filter_map(|o| o.as_ref().err())
    }

    /// Whether every slot completed.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }

    /// All reports, or the first failure (grid order) if any config
    /// failed — the all-or-nothing view `run_parallel` exposes.
    ///
    /// # Errors
    ///
    /// Returns the first [`FailureRecord`]'s error.
    pub fn into_reports(self) -> Result<Vec<RunReport>, GraphmemError> {
        let mut reports = Vec::with_capacity(self.outcomes.len());
        for o in self.outcomes {
            match o {
                Ok(r) => reports.push(r),
                Err(f) => return Err(f.error),
            }
        }
        Ok(reports)
    }
}

/// Read a run-manifest into a `config-hash → report` map.
///
/// Records written by the current writer carry a CRC32 frame
/// ([`durable::frame_record`]); unframed lines from pre-framing writers
/// are still accepted on content. The final line may be torn or
/// truncated (the writer was killed mid-append); that line is ignored. A
/// malformed or CRC-failing line *before* the end is corruption and
/// reported as [`GraphmemError::Manifest`].
///
/// # Errors
///
/// Returns [`GraphmemError::Io`] if the file cannot be read and
/// [`GraphmemError::Manifest`] on interior corruption.
pub fn read_manifest(path: impl AsRef<Path>) -> Result<HashMap<String, RunReport>, GraphmemError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| GraphmemError::io(format!("open manifest '{}'", path.display()), e))?;
    let mut completed = HashMap::new();
    let lines: Vec<String> = io::BufReader::new(file)
        .lines()
        .collect::<io::Result<_>>()
        .map_err(|e| GraphmemError::io(format!("read manifest '{}'", path.display()), e))?;
    let last = lines.len();
    for (idx, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match durable::parse_framed(line) {
            Framed::Valid(payload) => parse_manifest_line(payload),
            Framed::Legacy(raw) => parse_manifest_line(raw),
            Framed::Corrupt => Err("record failed its CRC32 check".to_string()),
        };
        match parsed {
            Ok((hash, report)) => {
                completed.insert(hash, report);
            }
            // A broken *final* line is the normal kill-mid-write artifact;
            // the config simply re-runs. Anything earlier is corruption.
            Err(_) if idx + 1 == last => {}
            Err(message) => {
                return Err(GraphmemError::Manifest {
                    path: path.display().to_string(),
                    line: idx + 1,
                    message,
                });
            }
        }
    }
    Ok(completed)
}

fn parse_manifest_line(line: &str) -> Result<(String, RunReport), String> {
    let v = JsonValue::parse(line)?;
    let hash = read_field(&v, "hash").map_err(|e| format!("manifest record: {e}"))?;
    let report = v
        .get("report")
        .ok_or("manifest record: field 'report' is missing")?;
    Ok((hash, RunReport::from_json_value(report)?))
}

/// Append-mode manifest writer: one CRC-framed, fsync-policied JSONL
/// record per completed report, so every acknowledged experiment
/// survives a kill of the process.
#[derive(Debug)]
struct ManifestWriter {
    appender: DurableAppender,
    faults: IoFaultPlan,
    /// Append attempts so far — the index the fault plan keys on (failed
    /// appends advance it too, so a plan's indices match submission
    /// order, not success order).
    attempts: u64,
}

impl ManifestWriter {
    fn open(
        path: &Path,
        fsync: FsyncPolicy,
        faults: IoFaultPlan,
    ) -> Result<ManifestWriter, GraphmemError> {
        // A previous writer may have died mid-append; drop its partial
        // final record so our first append starts on a fresh line.
        durable::truncate_torn_tail(path)
            .map_err(|e| GraphmemError::io(format!("recover manifest '{}'", path.display()), e))?;
        let appender = DurableAppender::open(path, fsync)
            .map_err(|e| GraphmemError::io(format!("open manifest '{}'", path.display()), e))?;
        Ok(ManifestWriter {
            appender,
            faults,
            attempts: 0,
        })
    }

    fn append(&mut self, hash: &str, report: &RunReport) -> Result<(), GraphmemError> {
        let mut o = JsonObject::new();
        o.field_str("hash", hash);
        o.field_raw("report", &report.to_json());
        let payload = o.finish();
        let index = self.attempts;
        self.attempts += 1;
        let fault = self.faults.fault_for(index);
        let torn = self.faults.torn_prefix(index, payload.len());
        self.appender
            .append(&payload, fault, torn)
            .map(|_synced| ())
            .map_err(|e| {
                GraphmemError::io(
                    format!("append to manifest '{}'", self.appender.path().display()),
                    e,
                )
            })
    }
}

/// Run `experiments` under supervision: up to `config.threads` workers,
/// panic isolation, retries, watchdog, manifest checkpointing, and fault
/// injection, per [`SupervisorConfig`]. Returns one outcome per config,
/// in input order — an individual failure never aborts the grid.
///
/// # Errors
///
/// Returns an error only for problems with the supervision itself:
/// `threads == 0`, an unreadable/corrupt resume manifest, or a manifest
/// write failure (checkpointing silently not happening would defeat its
/// purpose). Per-experiment failures are reported inside the
/// [`SweepOutcome`].
pub fn run_supervised(
    experiments: &[Experiment],
    config: &SupervisorConfig,
) -> Result<SweepOutcome, GraphmemError> {
    if config.threads == 0 {
        return Err(GraphmemError::InvalidConfig(
            "sweep needs at least one worker thread".into(),
        ));
    }
    let completed = match &config.resume {
        Some(path) => read_manifest(path)?,
        None => HashMap::new(),
    };
    let manifest = match &config.manifest {
        Some(path) => Some(Mutex::new(ManifestWriter::open(
            path,
            config.fsync,
            config.manifest_faults.clone(),
        )?)),
        None => None,
    };

    let hashes: Vec<String> = experiments.iter().map(Experiment::config_hash).collect();
    let mut outcomes: Vec<Option<Result<RunReport, FailureRecord>>> =
        experiments.iter().map(|_| None).collect();
    let mut resumed = 0;
    let mut todo: Vec<usize> = Vec::new();
    for (i, hash) in hashes.iter().enumerate() {
        match completed.get(hash) {
            Some(report) => {
                outcomes[i] = Some(Ok(report.clone()));
                resumed += 1;
            }
            None => todo.push(i),
        }
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunReport, FailureRecord>>>> =
        outcomes.iter().map(|_| Mutex::new(None)).collect();
    let manifest_error: Mutex<Option<GraphmemError>> = Mutex::new(None);

    let work = || loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        let Some(&index) = todo.get(t) else { return };
        let outcome = if lock_clean(&manifest_error).is_some() {
            Err(interrupted(index, &hashes[index]))
        } else {
            supervise_one(index, &experiments[index], &hashes[index], config)
        };
        if let Ok(report) = &outcome {
            if let Some(writer) = &manifest {
                let res = lock_clean(writer).append(&hashes[index], report);
                if let Err(e) = res {
                    // First writer error wins; everything after
                    // drains as Interrupted.
                    lock_clean(&manifest_error).get_or_insert(e);
                }
            }
        }
        *lock_clean(&slots[index]) = Some(outcome);
    };
    // The calling thread is one of the workers, so a single-threaded run
    // spawns nothing.
    std::thread::scope(|scope| {
        for _ in 1..config.threads.min(todo.len().max(1)) {
            scope.spawn(work);
        }
        work();
    });

    if let Some(e) = lock_clean(&manifest_error).take() {
        return Err(e);
    }
    for (slot, outcome) in slots.into_iter().zip(outcomes.iter_mut()) {
        if let Some(o) = lock_clean(&slot).take() {
            *outcome = Some(o);
        }
    }
    let interrupted = outcomes
        .iter()
        .flatten()
        .any(|o| matches!(o, Err(f) if matches!(f.error, GraphmemError::Interrupted)));
    Ok(SweepOutcome {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every grid slot resolved"))
            .collect(),
        resumed,
        interrupted,
    })
}

/// Lock a mutex, recovering the guard if a worker panicked while holding
/// it (the protected values stay structurally valid across all uses
/// here).
fn lock_clean<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run one experiment to its final outcome under `config`: the cancel
/// check, breaker admission, attempts with the fault `config.faults`
/// plans for `index`, backoff and telemetry. `hash` is the experiment's
/// [`Experiment::config_hash`]. [`run_supervised`] calls this once per
/// grid slot; a caller that schedules configs itself (the experiment
/// service) calls it directly, and `config`'s grid-level fields
/// (`threads`, `manifest`, `resume` and their fsync and IO faults) do
/// not apply.
pub fn supervise_one(
    index: usize,
    experiment: &Experiment,
    hash: &str,
    config: &SupervisorConfig,
) -> Result<RunReport, FailureRecord> {
    if config
        .cancel
        .as_ref()
        .is_some_and(|c| c.load(Ordering::Relaxed))
    {
        return Err(interrupted(index, hash));
    }
    let decision = match &config.breakers {
        Some(b) => b.admit(hash),
        None => BreakerDecision::Admit,
    };
    if decision == BreakerDecision::Reject {
        config.telemetry.emit(EventKind::ExperimentFailure {
            index: index as u32,
            attempts: 0,
        });
        return Err(FailureRecord {
            index,
            config_hash: hash.to_string(),
            attempts: 0,
            error: GraphmemError::CircuitOpen {
                config_hash: hash.to_string(),
            },
        });
    }
    let fault = config.faults.fault_for(index);
    // Jitter the retry schedule per config, not per process, so two
    // workers retrying different configs don't sleep in lockstep.
    let seed = backoff_seed(hash);
    let mut attempt: u32 = 0;
    loop {
        // Injected faults fire on the first attempt only, so retries
        // model recovery from a transient environment problem.
        let this_fault = if attempt == 0 { fault } else { None };
        let result = run_attempt(experiment, this_fault, config.timeout);
        attempt += 1;
        match result {
            Ok(report) => {
                if let Some(b) = &config.breakers {
                    b.record_success(hash);
                    if decision == BreakerDecision::AdmitProbe {
                        config.telemetry.emit(EventKind::BreakerClose {
                            index: index as u32,
                        });
                    }
                }
                config.telemetry.emit(EventKind::ExperimentComplete {
                    index: index as u32,
                    attempts: attempt,
                });
                return Ok(report);
            }
            Err(error) if error.is_transient() && attempt <= config.retries => {
                config.telemetry.emit(EventKind::ExperimentRetry {
                    index: index as u32,
                    attempt,
                });
                std::thread::sleep(durable::backoff_delay(
                    config.backoff,
                    BACKOFF_CAP,
                    attempt,
                    seed,
                ));
            }
            Err(error) => {
                if let Some(b) = &config.breakers {
                    // Panics and watchdog timeouts are config-shaped and
                    // advance the breaker; anything else is environment
                    // noise and resets its consecutive counter.
                    let counting = matches!(
                        error,
                        GraphmemError::Panic(_) | GraphmemError::Timeout { .. }
                    );
                    if b.record_failure(hash, counting) {
                        config.telemetry.emit(EventKind::BreakerOpen {
                            index: index as u32,
                            failures: b.config().threshold,
                        });
                    }
                }
                config.telemetry.emit(EventKind::ExperimentFailure {
                    index: index as u32,
                    attempts: attempt,
                });
                return Err(FailureRecord {
                    index,
                    config_hash: hash.to_string(),
                    attempts: attempt,
                    error,
                });
            }
        }
    }
}

/// The record of a config that was never started because its run was
/// cancelled.
fn interrupted(index: usize, hash: &str) -> FailureRecord {
    FailureRecord {
        index,
        config_hash: hash.to_string(),
        attempts: 0,
        error: GraphmemError::Interrupted,
    }
}

/// Fold a config hash into the u64 seed [`durable::backoff_delay`]
/// jitters with — deterministic across processes, unlike `DefaultHasher`.
fn backoff_seed(hash: &str) -> u64 {
    hash.bytes().fold(0x6772_7068_6d65_6d00, |acc, b| {
        durable::splitmix64(acc ^ u64::from(b))
    })
}

/// One attempt, under the watchdog when configured. The timed-out worker
/// thread is abandoned (it holds only cloned state and a dead channel);
/// a simulated run cannot be interrupted midway, matching how a stuck
/// real experiment would be handled.
fn run_attempt(
    experiment: &Experiment,
    fault: Option<&FaultSpec>,
    timeout: Option<Duration>,
) -> Result<RunReport, GraphmemError> {
    match timeout {
        None => execute(experiment, fault),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let experiment = experiment.clone();
            let fault = fault.cloned();
            std::thread::spawn(move || {
                let _ = tx.send(execute(&experiment, fault.as_ref()));
            });
            match rx.recv_timeout(limit) {
                Ok(result) => result,
                Err(_) => Err(GraphmemError::Timeout {
                    limit_ms: limit.as_millis() as u64,
                }),
            }
        }
    }
}

/// One attempt inside the panic-isolation boundary, with the fault (if
/// any) applied first. The delay sleeps *inside* the boundary so it
/// counts against the watchdog.
fn execute(experiment: &Experiment, fault: Option<&FaultSpec>) -> Result<RunReport, GraphmemError> {
    let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
        match fault {
            Some(FaultSpec::Panic) => panic!("injected fault: panic"),
            Some(FaultSpec::IoError) => {
                return Err(GraphmemError::io(
                    "injected fault",
                    io::Error::new(io::ErrorKind::Interrupted, "injected IO error"),
                ));
            }
            Some(FaultSpec::Delay { ms }) => std::thread::sleep(Duration::from_millis(*ms)),
            None => {}
        }
        experiment.try_run()
    }));
    match unwound {
        Ok(result) => result,
        Err(payload) => Err(GraphmemError::Panic(panic_message(payload))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_graph::Dataset;
    use graphmem_workloads::Kernel;

    #[test]
    fn fault_spec_tokens_round_trip() {
        for fault in [
            FaultSpec::Panic,
            FaultSpec::IoError,
            FaultSpec::Delay { ms: 250 },
        ] {
            assert_eq!(FaultSpec::from_token(&fault.token()).unwrap(), fault);
        }
        assert!(FaultSpec::from_token("delay:soon").is_err());
        assert!(
            FaultSpec::from_token("eio").is_err(),
            "io faults are not compute faults"
        );
    }

    fn tiny_grid(n: usize) -> Vec<Experiment> {
        (0..n)
            .map(|i| {
                Experiment::builder(Dataset::Wiki, Kernel::Bfs)
                    .scale(11)
                    .seed_offset(i as u64)
                    .build()
                    .expect("valid config")
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("graphmem_sup_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn panic_yields_failure_record_not_abort() {
        let grid = tiny_grid(3);
        let config = SupervisorConfig {
            threads: 2,
            faults: FaultPlan::none().inject(1, FaultSpec::Panic),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert_eq!(outcome.outcomes.len(), 3);
        assert_eq!(outcome.reports().count(), 2);
        let failures: Vec<_> = outcome.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        assert!(matches!(failures[0].error, GraphmemError::Panic(_)));
        assert!(failures[0].error.to_string().contains("injected fault"));
    }

    #[test]
    fn transient_io_fault_recovers_on_retry() {
        let grid = tiny_grid(2);
        let config = SupervisorConfig {
            retries: 2,
            backoff: Duration::from_millis(1),
            faults: FaultPlan::none().inject(0, FaultSpec::IoError),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert!(outcome.is_complete());
        // And without retries the same fault is fatal.
        let config = SupervisorConfig {
            faults: FaultPlan::none().inject(0, FaultSpec::IoError),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert_eq!(outcome.failures().count(), 1);
    }

    #[test]
    fn watchdog_times_out_a_stalled_experiment() {
        let grid = tiny_grid(2);
        // Warm the prepared-graph memo first: the watchdog budget below is
        // sized for kernel execution, not first-touch graph generation, so
        // without this the test would depend on sibling tests having
        // prepared the same graphs already.
        let warm = run_supervised(&grid, &SupervisorConfig::default()).unwrap();
        assert!(warm.is_complete());
        // The budget must beat a debug-build kernel run on a loaded CI
        // host, while staying far under the injected stall; 400 ms vs a
        // 5 s delay keeps an order of magnitude of slack on each side.
        let config = SupervisorConfig {
            timeout: Some(Duration::from_millis(400)),
            faults: FaultPlan::none().inject(1, FaultSpec::Delay { ms: 5_000 }),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        let failures: Vec<_> = outcome.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(matches!(
            failures[0].error,
            GraphmemError::Timeout { limit_ms: 400 }
        ));
        assert_eq!(outcome.reports().count(), 1);
    }

    #[test]
    fn manifest_checkpoints_and_resume_skips_completed() {
        let grid = tiny_grid(3);
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        let config = SupervisorConfig {
            manifest: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let first = run_supervised(&grid, &config).unwrap();
        assert!(first.is_complete());
        assert_eq!(first.resumed, 0);

        let config = SupervisorConfig {
            resume: Some(path.clone()),
            faults: FaultPlan::none().inject(0, FaultSpec::Panic),
            ..SupervisorConfig::default()
        };
        let second = run_supervised(&grid, &config).unwrap();
        let _ = std::fs::remove_file(&path);
        // Every slot came from the manifest — the injected panic never
        // fires because nothing re-runs.
        assert_eq!(second.resumed, 3);
        assert!(second.is_complete());
        for (a, b) in first.reports().zip(second.reports()) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn truncated_final_manifest_line_is_tolerated() {
        let grid = tiny_grid(2);
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let config = SupervisorConfig {
            manifest: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        run_supervised(&grid, &config).unwrap();
        // Chop the file mid-final-record, as a kill mid-append would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();
        let completed = read_manifest(&path).unwrap();
        assert_eq!(completed.len(), 1);
        // But corruption on an interior line is an error.
        std::fs::write(&path, "{garbage\n{also garbage\n").unwrap();
        let err = read_manifest(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(err, GraphmemError::Manifest { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn manifest_records_are_crc_framed() {
        let grid = tiny_grid(2);
        let path = tmp("framed");
        let _ = std::fs::remove_file(&path);
        let config = SupervisorConfig {
            manifest: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        run_supervised(&grid, &config).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(
                matches!(durable::parse_framed(line), Framed::Valid(_)),
                "unframed manifest line: {line:?}"
            );
        }
        // Flipping one payload byte turns a valid interior record into a
        // typed Manifest error, not a silently different result.
        let mut bytes = text.into_bytes();
        bytes[10] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = read_manifest(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(err, GraphmemError::Manifest { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn torn_manifest_append_fails_the_sweep_but_recovers_on_rerun() {
        let grid = tiny_grid(2);
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let config = SupervisorConfig {
            manifest: Some(path.clone()),
            manifest_faults: crate::IoFaultPlan::none().inject(0, crate::IoFaultKind::Torn),
            ..SupervisorConfig::default()
        };
        // A manifest write failure is a supervision error (silent
        // non-checkpointing would defeat the manifest's purpose).
        let err = run_supervised(&grid, &config).unwrap_err();
        assert!(matches!(err, GraphmemError::Io { .. }), "{err}");
        // The torn partial record reads back as a tolerated torn tail…
        let completed = read_manifest(&path).unwrap();
        assert!(completed.len() <= 1, "torn record must not parse");
        // …and a clean rerun over the same file completes and yields a
        // fully readable manifest.
        let config = SupervisorConfig {
            manifest: Some(path.clone()),
            resume: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert!(outcome.is_complete());
        let completed = read_manifest(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(completed.len(), 2);
    }

    #[test]
    fn open_breaker_rejects_resubmission_with_circuit_open() {
        use crate::breaker::{BreakerConfig, CircuitBreakers};
        let grid = tiny_grid(1);
        let breakers = Arc::new(CircuitBreakers::new(BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_secs(60),
        }));
        let config = SupervisorConfig {
            faults: FaultPlan::none().inject(0, FaultSpec::Panic),
            breakers: Some(Arc::clone(&breakers)),
            ..SupervisorConfig::default()
        };
        let first = run_supervised(&grid, &config).unwrap();
        assert!(matches!(
            first.failures().next().unwrap().error,
            GraphmemError::Panic(_)
        ));
        assert_eq!(breakers.snapshot().trips, 1);
        // Resubmitting the same config (no fault this time) is rejected
        // without running: the breaker is cooling down.
        let config = SupervisorConfig {
            breakers: Some(Arc::clone(&breakers)),
            ..SupervisorConfig::default()
        };
        let second = run_supervised(&grid, &config).unwrap();
        let failure = second.failures().next().unwrap();
        assert!(matches!(failure.error, GraphmemError::CircuitOpen { .. }));
        assert_eq!(failure.attempts, 0, "rejected before any attempt");
        assert_eq!(breakers.snapshot().rejections, 1);
    }

    #[test]
    fn breaker_probe_closes_after_cooldown_and_emits_events() {
        use crate::breaker::{BreakerConfig, CircuitBreakers};
        use graphmem_telemetry::{EventMask, TraceConfig};
        let grid = tiny_grid(1);
        let tracer = Tracer::enabled(TraceConfig::default().mask(EventMask::SUPERVISOR));
        let breakers = Arc::new(CircuitBreakers::new(BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_millis(20),
        }));
        let config = SupervisorConfig {
            telemetry: tracer.clone(),
            faults: FaultPlan::none().inject(0, FaultSpec::Panic),
            breakers: Some(Arc::clone(&breakers)),
            ..SupervisorConfig::default()
        };
        run_supervised(&grid, &config).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // Cooldown elapsed: the resubmission runs as the half-open probe
        // and, with no fault injected, closes the breaker.
        let config = SupervisorConfig {
            telemetry: tracer.clone(),
            breakers: Some(Arc::clone(&breakers)),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert!(outcome.is_complete());
        assert!(breakers.snapshot().open.is_empty());
        let names: Vec<&str> = tracer.events().iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"breaker_open"), "{names:?}");
        assert!(names.contains(&"breaker_close"), "{names:?}");
    }

    #[test]
    fn backoff_seed_is_a_stable_function_of_the_hash() {
        assert_eq!(backoff_seed("abc"), backoff_seed("abc"));
        assert_ne!(backoff_seed("abc"), backoff_seed("abd"));
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        let err = run_supervised(
            &tiny_grid(1),
            &SupervisorConfig {
                threads: 0,
                ..SupervisorConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GraphmemError::InvalidConfig(_)));
    }

    #[test]
    fn empty_grid_completes_without_spawning_work() {
        let outcome = run_supervised(&[], &SupervisorConfig::default()).unwrap();
        assert!(outcome.outcomes.is_empty());
        assert!(outcome.is_complete());
        assert!(!outcome.interrupted);
    }

    #[test]
    fn cancel_flag_drains_remaining_slots_as_interrupted() {
        let grid = tiny_grid(3);
        let cancel = Arc::new(AtomicBool::new(true)); // pre-cancelled
        let config = SupervisorConfig {
            cancel: Some(Arc::clone(&cancel)),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert!(outcome.interrupted);
        assert_eq!(outcome.reports().count(), 0);
        assert!(outcome
            .failures()
            .all(|f| matches!(f.error, GraphmemError::Interrupted)));
    }

    #[test]
    fn seeded_panic_plans_are_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded_panic(seed, 7);
            let b = FaultPlan::seeded_panic(seed, 7);
            assert_eq!(a, b);
            let (idx, fault) = &a.entries()[0];
            assert!(*idx < 7);
            assert_eq!(*fault, FaultSpec::Panic);
        }
    }

    #[test]
    fn telemetry_sees_supervisor_lifecycle() {
        use graphmem_telemetry::{EventMask, TraceConfig};
        let tracer = Tracer::enabled(TraceConfig::default().mask(EventMask::SUPERVISOR));
        let grid = tiny_grid(2);
        let config = SupervisorConfig {
            retries: 1,
            backoff: Duration::from_millis(1),
            telemetry: tracer.clone(),
            faults: FaultPlan::none()
                .inject(0, FaultSpec::IoError)
                .inject(1, FaultSpec::Panic),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).unwrap();
        assert_eq!(outcome.reports().count(), 1);
        let names: Vec<&str> = tracer.events().iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"experiment_retry"), "{names:?}");
        assert!(names.contains(&"experiment_failure"), "{names:?}");
        assert!(names.contains(&"experiment_complete"), "{names:?}");
    }
}
