//! Argument parsing for the `graphmem` binary.
//!
//! Flags lower into the typed [`RunSpec`] from `graphmem-core` through
//! the shared token grammar in [`graphmem_core::spec`] — the same
//! grammar the experiment service's JSON API uses — so a config typed at
//! a shell and the same config POSTed to `graphmem serve` produce the
//! identical experiment and config hash.

use graphmem_core::spec::{
    dataset_from_token, file_from_token, kernel_from_token, order_from_token, policy_from_token,
    preprocess_from_token, surplus_from_token,
};
use graphmem_core::{
    FaultSpec, FsyncPolicy, IoFaultKind, MemoryCondition, RunSpec, Surplus, SweepKind,
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `graphmem run`
    Run(RunArgs),
    /// `graphmem sweep <kind>`
    Sweep(SweepKind, RunArgs),
    /// `graphmem serve`
    Serve(ServeArgs),
    /// `graphmem submit`
    Submit(SubmitArgs),
    /// `graphmem datasets`
    Datasets,
    /// `graphmem help`
    Help,
}

/// A `run` / `sweep` invocation: the experiment description plus local
/// execution options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// What to run (the shared typed spec).
    pub spec: RunSpec,
    /// How to run it here (telemetry, threads, manifests, chaos).
    pub exec: ExecArgs,
}

/// Local execution options that are *not* part of a config's identity —
/// they never reach the config hash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecArgs {
    /// Stream telemetry events to this JSONL file.
    pub telemetry: Option<String>,
    /// Write the sampled metrics series to this CSV file (`run` with
    /// `--sample-interval` only).
    pub series: Option<String>,
    /// Enable the translation-attribution profiler (per-array TLB/walk
    /// accounting plus fragmentation/coverage series).
    pub attribution: bool,
    /// Print the report as one JSON object instead of prose.
    pub json: bool,
    /// Worker threads for `sweep` (defaults to the machine's parallelism).
    pub threads: Option<usize>,
    /// Append completed sweep reports to this JSONL run-manifest.
    pub manifest: Option<String>,
    /// Skip sweep configs already completed in this manifest.
    pub resume: Option<String>,
    /// Retries per experiment for transient failures.
    pub retries: u32,
    /// Per-experiment wall-clock watchdog, in seconds.
    pub timeout_secs: Option<f64>,
    /// Deterministic fault injections, as `(grid index, fault)` pairs.
    pub chaos: Vec<(usize, FaultSpec)>,
    /// Deterministic *IO* fault injections against the manifest writer,
    /// as `(record index, fault)` pairs (`eio`, `enospc`, `io-torn`).
    pub io_chaos: Vec<(u64, IoFaultKind)>,
    /// Fsync cadence for the run manifest (`None` keeps the supervisor's
    /// default, which is `always`).
    pub fsync: Option<FsyncPolicy>,
}

/// A `graphmem serve` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bind address.
    pub addr: String,
    /// Worker threads executing experiments.
    pub workers: usize,
    /// Max queued configs before `POST /runs` answers 429.
    pub queue: usize,
    /// Durable result-store directory (in-memory only when absent).
    pub cache_dir: Option<String>,
    /// Supervisor retries per config.
    pub retries: u32,
    /// Per-config watchdog, in seconds (scaled to millis precision).
    pub timeout_ms: Option<u64>,
    /// Fsync cadence for result-store shards (`None` = server default,
    /// which is `always`).
    pub fsync: Option<FsyncPolicy>,
    /// Deterministic compute-fault injections against the Nth *executed*
    /// (non-cached) config, for degraded-mode and breaker testing.
    pub chaos: Vec<(usize, FaultSpec)>,
    /// Deterministic IO-fault injections against the Nth store append.
    pub io_chaos: Vec<(u64, IoFaultKind)>,
    /// Circuit-breaker trip threshold (`None` = server default; `0`
    /// disables breaking entirely).
    pub breaker: Option<u32>,
    /// Circuit-breaker half-open cooldown, in milliseconds.
    pub breaker_cooldown_ms: Option<u64>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: DEFAULT_ADDR.to_string(),
            workers: 2,
            queue: 64,
            cache_dir: None,
            retries: 1,
            timeout_ms: None,
            fsync: None,
            chaos: Vec::new(),
            io_chaos: Vec::new(),
            breaker: None,
            breaker_cooldown_ms: None,
        }
    }
}

/// A `graphmem submit` invocation: ship a spec to a running server.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Server address.
    pub addr: String,
    /// Expand the spec into this sweep grid server-side.
    pub sweep: Option<SweepKind>,
    /// The experiment description to submit.
    pub spec: RunSpec,
    /// Echo the raw progress JSONL instead of prose.
    pub json: bool,
}

impl Default for SubmitArgs {
    fn default() -> Self {
        SubmitArgs {
            addr: DEFAULT_ADDR.to_string(),
            sweep: None,
            spec: RunSpec::default(),
            json: false,
        }
    }
}

/// Default experiment-service address for `serve` and `submit`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parse a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] with a message suitable for direct display.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("datasets") => Ok(Command::Datasets),
        Some("run") => {
            let args = parse_run_args(it.as_slice())?;
            if args.exec.series.is_some() && args.spec.sample_interval.is_none() {
                return err("--series needs --sample-interval: an unsampled run has no series");
            }
            Ok(Command::Run(args))
        }
        Some("sweep") => {
            let kind = match it.next() {
                Some(word) => SweepKind::from_token(word).map_err(ParseError)?,
                None => return err("sweep needs one of pressure|frag|selectivity"),
            };
            let args = parse_run_args(it.as_slice())?;
            if args.exec.series.is_some() {
                return err("--series is a run option: a sweep writes no series");
            }
            Ok(Command::Sweep(kind, args))
        }
        Some("serve") => Ok(Command::Serve(parse_serve_args(it.as_slice())?)),
        Some("submit") => Ok(Command::Submit(parse_submit_args(it.as_slice())?)),
        Some(other) => err(format!("unknown command '{other}' (try 'graphmem help')")),
    }
}

type ArgIter<'a> = std::slice::Iter<'a, String>;

fn next_value<'a>(it: &mut ArgIter<'a>, flag: &str) -> Result<&'a str, ParseError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// Pressure/fragmentation knobs collected across flags, composed into a
/// [`MemoryCondition`] once the whole line is parsed.
#[derive(Default)]
struct ConditionKnobs {
    surplus: Option<Surplus>,
    frag: f64,
}

/// Apply one experiment-description flag to `spec`, returning `false`
/// when the flag is not a spec flag (so the caller can try its own).
fn spec_flag(
    spec: &mut RunSpec,
    knobs: &mut ConditionKnobs,
    flag: &str,
    it: &mut ArgIter<'_>,
) -> Result<bool, ParseError> {
    match flag {
        "--dataset" => {
            spec.dataset = dataset_from_token(next_value(it, flag)?).map_err(ParseError)?;
        }
        "--kernel" => {
            spec.kernel = kernel_from_token(next_value(it, flag)?).map_err(ParseError)?;
        }
        "--scale" => {
            spec.scale = Some(
                next_value(it, flag)?
                    .parse()
                    .map_err(|_| ParseError("--scale needs an integer".into()))?,
            );
        }
        "--policy" => {
            spec.plan.policy = policy_from_token(next_value(it, flag)?).map_err(ParseError)?;
        }
        "--governor" => {
            spec.plan.governor = Some(
                next_value(it, flag)?
                    .parse()
                    .map_err(|e| ParseError(format!("--governor: {e}")))?,
            );
        }
        "--khugepaged" => {
            spec.plan.khugepaged_enabled = Some(match next_value(it, flag)? {
                "on" => true,
                "off" => false,
                other => return err(format!("--khugepaged must be on|off, got '{other}'")),
            });
        }
        "--khugepaged-interval" => {
            spec.plan.khugepaged_interval = Some(
                next_value(it, flag)?
                    .parse()
                    .map_err(|_| ParseError("--khugepaged-interval needs an integer".into()))?,
            );
        }
        "--defrag-blocks" => {
            spec.plan.defrag_scan_blocks = Some(
                next_value(it, flag)?
                    .parse()
                    .map_err(|_| ParseError("--defrag-blocks needs an integer".into()))?,
            );
        }
        "--preprocess" => {
            spec.preprocess = preprocess_from_token(next_value(it, flag)?).map_err(ParseError)?;
        }
        "--order" => {
            spec.order = order_from_token(next_value(it, flag)?).map_err(ParseError)?;
        }
        "--surplus" => {
            knobs.surplus = Some(surplus_from_token(next_value(it, flag)?).map_err(ParseError)?);
        }
        "--frag" => {
            let frag: f64 = next_value(it, flag)?
                .parse()
                .map_err(|_| ParseError("--frag needs a fraction".into()))?;
            if !(0.0..=1.0).contains(&frag) {
                return err("--frag must be within 0..=1");
            }
            knobs.frag = frag;
        }
        "--file" => {
            spec.file = file_from_token(next_value(it, flag)?).map_err(ParseError)?;
        }
        "--no-verify" => spec.verify = false,
        "--sample-interval" => {
            let n: u64 = next_value(it, flag)?
                .parse()
                .map_err(|_| ParseError("--sample-interval needs an integer".into()))?;
            if n == 0 {
                return err("--sample-interval must be positive");
            }
            spec.sample_interval = Some(n);
        }
        "--seed-offset" => {
            spec.seed_offset = next_value(it, flag)?
                .parse()
                .map_err(|_| ParseError("--seed-offset needs an integer".into()))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Apply one local-execution flag to `exec`, returning `false` when the
/// flag is not an exec flag.
fn exec_flag(exec: &mut ExecArgs, flag: &str, it: &mut ArgIter<'_>) -> Result<bool, ParseError> {
    match flag {
        "--telemetry" => exec.telemetry = Some(next_value(it, flag)?.to_string()),
        "--series" => exec.series = Some(next_value(it, flag)?.to_string()),
        "--attribution" => exec.attribution = true,
        "--json" => exec.json = true,
        "--threads" => {
            let n: usize = next_value(it, flag)?
                .parse()
                .map_err(|_| ParseError("--threads needs an integer".into()))?;
            if n == 0 {
                return err("--threads must be positive");
            }
            exec.threads = Some(n);
        }
        "--manifest" => exec.manifest = Some(next_value(it, flag)?.to_string()),
        "--resume" => exec.resume = Some(next_value(it, flag)?.to_string()),
        "--retries" => {
            exec.retries = next_value(it, flag)?
                .parse()
                .map_err(|_| ParseError("--retries needs an integer".into()))?;
        }
        "--timeout" => exec.timeout_secs = Some(parse_timeout(next_value(it, flag)?)?),
        "--chaos" => {
            let plan = parse_chaos(next_value(it, flag)?)?;
            exec.chaos = plan.compute;
            exec.io_chaos = plan.io;
        }
        "--fsync" => exec.fsync = Some(parse_fsync(next_value(it, flag)?)?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_fsync(v: &str) -> Result<FsyncPolicy, ParseError> {
    FsyncPolicy::from_token(v).map_err(|e| ParseError(format!("--fsync: {e}")))
}

fn parse_timeout(v: &str) -> Result<f64, ParseError> {
    let secs: f64 = v
        .parse()
        .map_err(|_| ParseError("--timeout needs seconds (e.g. 0.5 or 120)".into()))?;
    if !secs.is_finite() || secs <= 0.0 {
        return err("--timeout must be a positive number of seconds");
    }
    Ok(secs)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, ParseError> {
    let mut spec = RunSpec::default();
    let mut exec = ExecArgs::default();
    let mut knobs = ConditionKnobs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if spec_flag(&mut spec, &mut knobs, flag, &mut it)? {
            continue;
        }
        if exec_flag(&mut exec, flag, &mut it)? {
            continue;
        }
        return err(format!("unknown option '{flag}'"));
    }
    spec.condition = MemoryCondition::from_knobs(knobs.surplus, knobs.frag);
    Ok(RunArgs { spec, exec })
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, ParseError> {
    let mut serve = ServeArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => serve.addr = next_value(&mut it, flag)?.to_string(),
            "--workers" => {
                let n: usize = next_value(&mut it, flag)?
                    .parse()
                    .map_err(|_| ParseError("--workers needs an integer".into()))?;
                if n == 0 {
                    return err("--workers must be positive");
                }
                serve.workers = n;
            }
            "--queue" => {
                let n: usize = next_value(&mut it, flag)?
                    .parse()
                    .map_err(|_| ParseError("--queue needs an integer".into()))?;
                if n == 0 {
                    return err("--queue must be positive");
                }
                serve.queue = n;
            }
            "--cache-dir" => serve.cache_dir = Some(next_value(&mut it, flag)?.to_string()),
            "--retries" => {
                serve.retries = next_value(&mut it, flag)?
                    .parse()
                    .map_err(|_| ParseError("--retries needs an integer".into()))?;
            }
            "--timeout" => {
                let secs = parse_timeout(next_value(&mut it, flag)?)?;
                serve.timeout_ms = Some((secs * 1000.0) as u64);
            }
            "--fsync" => serve.fsync = Some(parse_fsync(next_value(&mut it, flag)?)?),
            "--chaos" => {
                let plan = parse_chaos(next_value(&mut it, flag)?)?;
                serve.chaos = plan.compute;
                serve.io_chaos = plan.io;
            }
            "--breaker" => {
                serve.breaker = Some(
                    next_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| ParseError("--breaker needs an integer threshold".into()))?,
                );
            }
            "--breaker-cooldown" => {
                let secs = parse_timeout(next_value(&mut it, flag)?)
                    .map_err(|e| ParseError(e.0.replace("--timeout", "--breaker-cooldown")))?;
                serve.breaker_cooldown_ms = Some((secs * 1000.0) as u64);
            }
            other => return err(format!("unknown option '{other}'")),
        }
    }
    Ok(serve)
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, ParseError> {
    let mut submit = SubmitArgs::default();
    let mut knobs = ConditionKnobs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if spec_flag(&mut submit.spec, &mut knobs, flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => submit.addr = next_value(&mut it, flag)?.to_string(),
            "--sweep" => {
                submit.sweep =
                    Some(SweepKind::from_token(next_value(&mut it, flag)?).map_err(ParseError)?);
            }
            "--json" => submit.json = true,
            other => return err(format!("unknown option '{other}'")),
        }
    }
    submit.spec.condition = MemoryCondition::from_knobs(knobs.surplus, knobs.frag);
    Ok(submit)
}

/// A parsed `--chaos` list, split by which layer each fault targets:
/// compute faults fire inside the experiment at a grid index, IO faults
/// fire inside the durable writer at a record index.
#[derive(Debug, Default, PartialEq, Eq)]
struct ChaosPlan {
    compute: Vec<(usize, FaultSpec)>,
    io: Vec<(u64, IoFaultKind)>,
}

/// Parse a fault-injection spec: a comma list of `<kind>@<index>` where
/// kind is a compute fault (`panic`, `io`, `delay:<ms>`, keyed by grid
/// index) or an IO fault (`eio`, `enospc`, `io-torn`, keyed by durable
/// record index) — e.g. `panic@2,io@5,enospc@3`. The two token
/// grammars are owned by [`FaultSpec::from_token`] and
/// [`IoFaultKind::from_token`] in `graphmem-core`; this function only
/// splits the list and routes each entry to the right layer.
fn parse_chaos(v: &str) -> Result<ChaosPlan, ParseError> {
    const KINDS: &str = "panic|io|delay:<ms>|eio|enospc|io-torn";
    let mut plan = ChaosPlan::default();
    for part in v.split(',') {
        let Some((kind, index)) = part.split_once('@') else {
            return err(format!(
                "--chaos entry '{part}' must be <kind>@<index> ({KINDS})"
            ));
        };
        let index: u64 = index
            .parse()
            .map_err(|_| ParseError(format!("--chaos entry '{part}': bad index '{index}'")))?;
        match FaultSpec::from_token(kind) {
            Ok(fault) => plan.compute.push((index as usize, fault)),
            // `delay:` entries are unambiguously compute faults, so a
            // malformed delay reports the compute-side error instead of
            // falling through to "unknown fault".
            Err(e) if kind.starts_with("delay:") => {
                return err(format!("--chaos entry '{part}': {e}"));
            }
            Err(_) => match IoFaultKind::from_token(kind) {
                Ok(io) => plan.io.push((index, io)),
                Err(_) => {
                    return err(format!(
                        "--chaos entry '{part}': unknown fault '{kind}' ({KINDS})"
                    ));
                }
            },
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_core::prelude::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bare_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("datasets")).unwrap(), Command::Datasets);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(run) = parse(&args("run")).unwrap() else {
            panic!()
        };
        assert_eq!(run.spec, RunSpec::default());
        assert_eq!(run.exec, ExecArgs::default());
    }

    #[test]
    fn run_full_options() {
        let cmd = parse(&args(
            "run --dataset twit --kernel sssp --scale 14 --policy selective:0.25 \
             --preprocess dbg --order property-first --surplus 0.12 --frag 0.5 --file cache \
             --no-verify --seed-offset 3",
        ))
        .unwrap();
        let Command::Run(r) = cmd else { panic!() };
        assert_eq!(r.spec.dataset, Dataset::Twitter);
        assert_eq!(r.spec.kernel, Kernel::Sssp);
        assert_eq!(r.spec.scale, Some(14));
        assert_eq!(
            r.spec.plan.policy,
            PagePolicy::SelectiveProperty { fraction: 0.25 }
        );
        assert_eq!(r.spec.preprocess, Preprocessing::Dbg);
        assert_eq!(r.spec.order, AllocOrder::PropertyFirst);
        assert_eq!(r.spec.condition.fragmentation, 0.5);
        assert_eq!(r.spec.file, FilePlacement::LocalPageCache);
        assert_eq!(r.spec.seed_offset, 3);
        assert!(!r.spec.verify);
    }

    #[test]
    fn flags_and_json_produce_the_same_spec() {
        // The tentpole invariant: both frontends share one lowering path,
        // so the flag form and the wire form agree on the config hash.
        let Command::Run(run) = parse(&args(
            "run --dataset wiki --kernel pr --scale 12 --policy auto:0.8 --surplus 0.25",
        ))
        .unwrap() else {
            panic!()
        };
        let wire = RunSpec::from_json(&run.spec.to_json()).unwrap();
        assert_eq!(run.spec, wire);
        assert_eq!(run.spec.config_hash().unwrap(), wire.config_hash().unwrap());
    }

    #[test]
    fn policy_variants() {
        use graphmem_core::spec::policy_from_token;
        assert_eq!(policy_from_token("4k").unwrap(), PagePolicy::BaseOnly);
        assert_eq!(policy_from_token("thp").unwrap(), PagePolicy::ThpSystemWide);
        assert_eq!(
            policy_from_token("property").unwrap(),
            PagePolicy::property_only()
        );
        assert_eq!(
            policy_from_token("auto:0.8").unwrap(),
            PagePolicy::AutoSelective { coverage: 0.8 }
        );
        assert_eq!(
            policy_from_token("hugetlb").unwrap(),
            PagePolicy::HugetlbProperty
        );
        assert!(policy_from_token("selective:1.5").is_err());
        assert!(policy_from_token("bogus").is_err());
    }

    #[test]
    fn plan_flags() {
        let Command::Run(r) = parse(&args(
            "run --policy thp --governor epoch=500000,promote=1.5 --khugepaged off \
             --khugepaged-interval 250000 --defrag-blocks 4",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.spec.plan.policy, PagePolicy::ThpSystemWide);
        let gov = r.spec.plan.governor.expect("governor set");
        assert_eq!(gov.epoch_cycles, 500_000);
        assert_eq!(gov.promote_cost, 1.5);
        assert_eq!(r.spec.plan.khugepaged_enabled, Some(false));
        assert_eq!(r.spec.plan.khugepaged_interval, Some(250_000));
        assert_eq!(r.spec.plan.defrag_scan_blocks, Some(4));
        // The governor token round-trips through the spec's JSON form.
        let wire = RunSpec::from_json(&r.spec.to_json()).unwrap();
        assert_eq!(wire, r.spec);
        let e = parse(&args("run --governor epoch=nope")).unwrap_err();
        assert!(e.to_string().contains("--governor"), "{e}");
        let e = parse(&args("run --khugepaged maybe")).unwrap_err();
        assert!(e.to_string().contains("--khugepaged"), "{e}");
    }

    #[test]
    fn telemetry_flags() {
        let Command::Run(r) = parse(&args(
            "run --telemetry /tmp/t.jsonl --sample-interval 100000 --series /tmp/s.csv --json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.exec.telemetry.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(r.spec.sample_interval, Some(100_000));
        assert_eq!(r.exec.series.as_deref(), Some("/tmp/s.csv"));
        assert!(r.exec.json);
        assert!(!r.exec.attribution);
        let Command::Run(r) = parse(&args("run --attribution")).unwrap() else {
            panic!()
        };
        assert!(r.exec.attribution);
        assert!(parse(&args("run --sample-interval 0")).is_err());
        assert!(parse(&args("run --sample-interval many")).is_err());
        assert!(parse(&args("run --telemetry")).is_err());
    }

    #[test]
    fn sweep_kinds() {
        for (word, kind) in [
            ("pressure", SweepKind::Pressure),
            ("frag", SweepKind::Fragmentation),
            ("selectivity", SweepKind::Selectivity),
        ] {
            let Command::Sweep(k, _) = parse(&args(&format!("sweep {word}"))).unwrap() else {
                panic!()
            };
            assert_eq!(k, kind);
        }
        assert!(parse(&args("sweep sideways")).is_err());
    }

    #[test]
    fn error_messages_are_helpful() {
        let e = parse(&args("run --dataset mars")).unwrap_err();
        assert!(e.to_string().contains("mars"));
        let e = parse(&args("run --scale")).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
        let e = parse(&args("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
        // A --series that would write nothing is refused, not ignored.
        let e = parse(&args("run --dataset wiki --series x.csv")).unwrap_err();
        assert!(e.to_string().contains("--series"), "{e}");
        assert!(e.to_string().contains("--sample-interval"), "{e}");
        let e = parse(&args("sweep frag --sample-interval 100000 --series x.csv")).unwrap_err();
        assert!(e.to_string().contains("--series"), "{e}");
    }

    #[test]
    fn robustness_flags() {
        let Command::Sweep(_, r) = parse(&args(
            "sweep pressure --manifest runs.jsonl --resume runs.jsonl --retries 3 \
             --timeout 1.5 --chaos panic@2,io@5,delay:250@0",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.exec.manifest.as_deref(), Some("runs.jsonl"));
        assert_eq!(r.exec.resume.as_deref(), Some("runs.jsonl"));
        assert_eq!(r.exec.retries, 3);
        assert_eq!(r.exec.timeout_secs, Some(1.5));
        assert_eq!(
            r.exec.chaos,
            vec![
                (2, FaultSpec::Panic),
                (5, FaultSpec::IoError),
                (0, FaultSpec::Delay { ms: 250 }),
            ]
        );
        assert!(r.exec.io_chaos.is_empty());
        assert_eq!(r.exec.fsync, None, "fsync defaults to the supervisor's");
    }

    #[test]
    fn durability_flags() {
        // One --chaos list mixes compute and IO faults; they split by
        // target layer.
        let Command::Sweep(_, r) = parse(&args(
            "sweep pressure --fsync every:8 --chaos panic@1,io-torn@3,enospc@0,eio@7",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.exec.fsync, Some(FsyncPolicy::EveryN(8)));
        assert_eq!(r.exec.chaos, vec![(1, FaultSpec::Panic)]);
        assert_eq!(
            r.exec.io_chaos,
            vec![
                (3, IoFaultKind::Torn),
                (0, IoFaultKind::Enospc),
                (7, IoFaultKind::Eio),
            ]
        );
        let Command::Sweep(_, r) = parse(&args("sweep pressure --fsync never")).unwrap() else {
            panic!()
        };
        assert_eq!(r.exec.fsync, Some(FsyncPolicy::Never));
        let e = parse(&args("sweep pressure --fsync sometimes")).unwrap_err();
        assert!(e.to_string().contains("--fsync"), "{e}");
        let e = parse(&args("sweep pressure --fsync every:0")).unwrap_err();
        assert!(e.to_string().contains("--fsync"), "{e}");
    }

    #[test]
    fn robustness_flag_errors_name_the_flag() {
        let e = parse(&args("sweep pressure --timeout -1")).unwrap_err();
        assert!(e.to_string().contains("--timeout"), "{e}");
        let e = parse(&args("sweep pressure --retries lots")).unwrap_err();
        assert!(e.to_string().contains("--retries"), "{e}");
        let e = parse(&args("sweep pressure --chaos explode@1")).unwrap_err();
        assert!(e.to_string().contains("explode"), "{e}");
        let e = parse(&args("sweep pressure --chaos panic")).unwrap_err();
        assert!(e.to_string().contains("<kind>@<index>"), "{e}");
        let e = parse(&args("sweep pressure --chaos delay:soon@1")).unwrap_err();
        assert!(e.to_string().contains("bad delay"), "{e}");
    }

    #[test]
    fn condition_composition() {
        let Command::Run(r) = parse(&args("run --surplus 0.06")).unwrap() else {
            panic!()
        };
        assert_eq!(
            r.spec.condition,
            MemoryCondition::pressured(Surplus::FractionOfWss(0.06))
        );
        let Command::Run(r) = parse(&args("run --frag 0.25")).unwrap() else {
            panic!()
        };
        assert_eq!(r.spec.condition, MemoryCondition::fragmented(0.25));
    }

    #[test]
    fn serve_flags() {
        let Command::Serve(s) = parse(&args("serve")).unwrap() else {
            panic!()
        };
        assert_eq!(s, ServeArgs::default());
        let Command::Serve(s) = parse(&args(
            "serve --addr 127.0.0.1:0 --workers 4 --queue 128 --cache-dir /tmp/cache \
             --retries 2 --timeout 0.5",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.workers, 4);
        assert_eq!(s.queue, 128);
        assert_eq!(s.cache_dir.as_deref(), Some("/tmp/cache"));
        assert_eq!(s.retries, 2);
        assert_eq!(s.timeout_ms, Some(500));
        assert!(parse(&args("serve --workers 0")).is_err());
        assert!(parse(&args("serve --dataset wiki")).is_err());
    }

    #[test]
    fn serve_durability_flags() {
        let Command::Serve(s) = parse(&args(
            "serve --fsync every:4 --chaos enospc@2,panic@0 --breaker 3 --breaker-cooldown 0.25",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.fsync, Some(FsyncPolicy::EveryN(4)));
        assert_eq!(s.chaos, vec![(0, FaultSpec::Panic)]);
        assert_eq!(s.io_chaos, vec![(2, IoFaultKind::Enospc)]);
        assert_eq!(s.breaker, Some(3));
        assert_eq!(s.breaker_cooldown_ms, Some(250));
        // `--breaker 0` is valid: it disables circuit breaking.
        let Command::Serve(s) = parse(&args("serve --breaker 0")).unwrap() else {
            panic!()
        };
        assert_eq!(s.breaker, Some(0));
        let e = parse(&args("serve --breaker lots")).unwrap_err();
        assert!(e.to_string().contains("--breaker"), "{e}");
        let e = parse(&args("serve --breaker-cooldown -2")).unwrap_err();
        assert!(e.to_string().contains("--breaker-cooldown"), "{e}");
        let e = parse(&args("serve --fsync every:")).unwrap_err();
        assert!(e.to_string().contains("--fsync"), "{e}");
    }

    #[test]
    fn submit_flags() {
        let Command::Submit(s) = parse(&args(
            "submit --addr 127.0.0.1:9999 --sweep frag --dataset wiki --scale 11 --json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.addr, "127.0.0.1:9999");
        assert_eq!(s.sweep, Some(SweepKind::Fragmentation));
        assert_eq!(s.spec.dataset, Dataset::Wiki);
        assert_eq!(s.spec.scale, Some(11));
        assert!(s.json);
        // Exec-only flags make no sense remotely.
        assert!(parse(&args("submit --threads 4")).is_err());
        assert!(parse(&args("submit --manifest runs.jsonl")).is_err());
    }
}
