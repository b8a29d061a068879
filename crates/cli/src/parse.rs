//! Argument parsing for the `graphmem` binary.
//!
//! Each subcommand parses straight into the type it runs on: `run` into a
//! [`RunArgs`], `sweep` into a [`RunSpec`] and a [`SupervisorConfig`],
//! `serve` into a [`ServerConfig`], `submit` into a [`SubmitArgs`], and
//! `claims` into a [`Scale`] and the selected [`Claim`]s. A flag the
//! subcommand does not read is a [`ParseError`] naming it.
//!
//! Flags lower into the typed [`RunSpec`] from `graphmem-core` through
//! the shared token grammar in [`graphmem_core::spec`] — the same
//! grammar the experiment service's JSON API uses — so a config typed at
//! a shell and the same config POSTed to `graphmem serve` produce the
//! identical experiment and config hash.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use graphmem_core::claims::{self, Claim, Scale};
use graphmem_core::spec::{
    dataset_from_token, file_from_token, kernel_from_token, order_from_token, policy_from_token,
    preprocess_from_token, surplus_from_token,
};
use graphmem_core::{
    FaultPlan, FaultSpec, FsyncPolicy, IoFaultKind, IoFaultPlan, MemoryCondition, RunSpec,
    SupervisorConfig, Surplus, SweepKind,
};
use graphmem_server::{ServerConfig, DEFAULT_ADDR};

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// `graphmem run`
    Run(RunArgs),
    /// `graphmem sweep <kind>`: the grid, the spec it expands, and how
    /// the grid is supervised.
    Sweep(SweepKind, RunSpec, SupervisorConfig),
    /// `graphmem serve`
    Serve(ServerConfig),
    /// `graphmem submit`
    Submit(SubmitArgs),
    /// `graphmem claims`: the scale and the claims to run (all of the
    /// registry unless `--only` narrowed it).
    Claims(Scale, Vec<&'static Claim>),
    /// `graphmem datasets`
    Datasets,
    /// `graphmem help`
    Help,
}

/// A `run` invocation: the experiment description plus where its
/// outputs go. The output flags never reach the config hash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunArgs {
    /// What to run (the shared typed spec).
    pub spec: RunSpec,
    /// Stream telemetry events to this JSONL file.
    pub telemetry: Option<String>,
    /// Write the sampled metrics series to this CSV file (needs
    /// `--sample-interval`).
    pub series: Option<String>,
    /// Enable the translation-attribution profiler (per-array TLB/walk
    /// accounting plus fragmentation/coverage series).
    pub attribution: bool,
    /// Print the report as one JSON object instead of prose.
    pub json: bool,
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
        Some("run") => Ok(Command::Run(parse_run_args(it.as_slice())?)),
        Some("sweep") => {
            let kind = match it.next() {
                Some(word) => SweepKind::from_token(word).map_err(ParseError)?,
                None => return err("sweep needs one of pressure|frag|selectivity"),
            };
            let (spec, config) = parse_sweep_args(it.as_slice())?;
            Ok(Command::Sweep(kind, spec, config))
        }
        Some("serve") => Ok(Command::Serve(parse_serve_args(it.as_slice())?)),
        Some("submit") => Ok(Command::Submit(parse_submit_args(it.as_slice())?)),
        Some("claims") => {
            let (scale, selected) = parse_claims_args(it.as_slice())?;
            Ok(Command::Claims(scale, selected))
        }
        Some(other) => err(format!("unknown command '{other}' (try 'graphmem help')")),
    }
}

type ArgIter<'a> = std::slice::Iter<'a, String>;

fn next_value<'a>(it: &mut ArgIter<'a>, flag: &str) -> Result<&'a str, ParseError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// The value after `flag`, parsed as a `T`; `what` names the expected
/// kind of value in the error.
fn parse_value<T: FromStr>(it: &mut ArgIter<'_>, flag: &str, what: &str) -> Result<T, ParseError> {
    next_value(it, flag)?
        .parse()
        .map_err(|_| ParseError(format!("{flag} needs {what}")))
}

/// The value after `flag` as a positive count.
fn positive(it: &mut ArgIter<'_>, flag: &str) -> Result<usize, ParseError> {
    match parse_value(it, flag, "an integer")? {
        0 => err(format!("{flag} must be positive")),
        n => Ok(n),
    }
}

/// The value after `flag` as a positive number of seconds. Values a
/// [`Duration`] cannot hold (NaN, infinite, negative, too large) and
/// values that round to zero are refused.
fn seconds(it: &mut ArgIter<'_>, flag: &str) -> Result<Duration, ParseError> {
    let v = next_value(it, flag)?;
    v.parse()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| {
            ParseError(format!(
                "{flag} needs a positive number of seconds (e.g. 0.5 or 120), got '{v}'"
            ))
        })
}

fn fsync(it: &mut ArgIter<'_>, flag: &str) -> Result<FsyncPolicy, ParseError> {
    FsyncPolicy::from_token(next_value(it, flag)?).map_err(|e| ParseError(format!("{flag}: {e}")))
}

/// Walk `args`, handing each flag (with the iterator, to take its value)
/// to `apply`, which returns `false` for a flag `cmd` does not read.
fn walk(
    cmd: &str,
    args: &[String],
    mut apply: impl FnMut(&str, &mut ArgIter<'_>) -> Result<bool, ParseError>,
) -> Result<(), ParseError> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !apply(flag, &mut it)? {
            return err(format!(
                "'{flag}' is not a {cmd} option (try 'graphmem help')"
            ));
        }
    }
    Ok(())
}

/// The experiment-description flags `run`, `sweep` and `submit` share.
/// Pressure and fragmentation are collected across flags and composed
/// into the spec's [`MemoryCondition`] by [`SpecFlags::finish`].
#[derive(Default)]
struct SpecFlags {
    spec: RunSpec,
    surplus: Option<Surplus>,
    frag: f64,
}

impl SpecFlags {
    /// Apply one flag, returning `false` when it is not a spec flag.
    fn apply(&mut self, flag: &str, it: &mut ArgIter<'_>) -> Result<bool, ParseError> {
        let spec = &mut self.spec;
        match flag {
            "--dataset" => {
                spec.dataset = dataset_from_token(next_value(it, flag)?).map_err(ParseError)?;
            }
            "--kernel" => {
                spec.kernel = kernel_from_token(next_value(it, flag)?).map_err(ParseError)?;
            }
            "--scale" => spec.scale = Some(parse_value(it, flag, "an integer")?),
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
                spec.plan.khugepaged_interval = Some(parse_value(it, flag, "an integer")?);
            }
            "--defrag-blocks" => {
                spec.plan.defrag_scan_blocks = Some(parse_value(it, flag, "an integer")?);
            }
            "--preprocess" => {
                spec.preprocess =
                    preprocess_from_token(next_value(it, flag)?).map_err(ParseError)?;
            }
            "--order" => {
                spec.order = order_from_token(next_value(it, flag)?).map_err(ParseError)?;
            }
            "--surplus" => {
                self.surplus = Some(surplus_from_token(next_value(it, flag)?).map_err(ParseError)?);
            }
            "--frag" => {
                let frag: f64 = parse_value(it, flag, "a fraction")?;
                if !(0.0..=1.0).contains(&frag) {
                    return err("--frag must be within 0..=1");
                }
                self.frag = frag;
            }
            "--file" => {
                spec.file = file_from_token(next_value(it, flag)?).map_err(ParseError)?;
            }
            "--no-verify" => spec.verify = false,
            "--sample-interval" => {
                let n: u64 = parse_value(it, flag, "an integer")?;
                if n == 0 {
                    return err("--sample-interval must be positive");
                }
                spec.sample_interval = Some(n);
            }
            "--seed-offset" => spec.seed_offset = parse_value(it, flag, "an integer")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn finish(mut self) -> RunSpec {
        self.spec.condition = MemoryCondition::from_knobs(self.surplus, self.frag);
        self.spec
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, ParseError> {
    let mut spec = SpecFlags::default();
    let mut run = RunArgs::default();
    walk("run", args, |flag, it| {
        match flag {
            "--telemetry" => run.telemetry = Some(next_value(it, flag)?.to_string()),
            "--series" => run.series = Some(next_value(it, flag)?.to_string()),
            "--attribution" => run.attribution = true,
            "--json" => run.json = true,
            _ => return spec.apply(flag, it),
        }
        Ok(true)
    })?;
    run.spec = spec.finish();
    if run.series.is_some() && run.spec.sample_interval.is_none() {
        return err("--series needs --sample-interval: an unsampled run has no series");
    }
    Ok(run)
}

fn parse_sweep_args(args: &[String]) -> Result<(RunSpec, SupervisorConfig), ParseError> {
    let mut spec = SpecFlags::default();
    let mut config = SupervisorConfig {
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        ..SupervisorConfig::default()
    };
    walk("sweep", args, |flag, it| {
        match flag {
            "--threads" => config.threads = positive(it, flag)?,
            "--manifest" => config.manifest = Some(PathBuf::from(next_value(it, flag)?)),
            "--resume" => config.resume = Some(PathBuf::from(next_value(it, flag)?)),
            "--retries" => config.retries = parse_value(it, flag, "an integer")?,
            "--timeout" => config.timeout = Some(seconds(it, flag)?),
            "--chaos" => (config.faults, config.manifest_faults) = chaos(it, flag)?,
            "--fsync" => config.fsync = fsync(it, flag)?,
            _ => return spec.apply(flag, it),
        }
        Ok(true)
    })?;
    Ok((spec.finish(), config))
}

fn parse_serve_args(args: &[String]) -> Result<ServerConfig, ParseError> {
    let mut config = ServerConfig::default();
    walk("serve", args, |flag, it| {
        match flag {
            "--addr" => config.addr = next_value(it, flag)?.to_string(),
            "--workers" => config.workers = positive(it, flag)?,
            "--queue" => config.queue_capacity = positive(it, flag)?,
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(next_value(it, flag)?)),
            "--retries" => config.retries = parse_value(it, flag, "an integer")?,
            "--timeout" => config.timeout = Some(seconds(it, flag)?),
            "--fsync" => config.fsync = fsync(it, flag)?,
            "--chaos" => (config.compute_faults, config.io_faults) = chaos(it, flag)?,
            "--breaker" => {
                config.breaker_threshold = parse_value(it, flag, "an integer threshold")?;
            }
            "--breaker-cooldown" => config.breaker_cooldown = seconds(it, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(config)
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, ParseError> {
    let mut spec = SpecFlags::default();
    let mut submit = SubmitArgs::default();
    walk("submit", args, |flag, it| {
        match flag {
            "--addr" => submit.addr = next_value(it, flag)?.to_string(),
            "--sweep" => {
                submit.sweep =
                    Some(SweepKind::from_token(next_value(it, flag)?).map_err(ParseError)?);
            }
            "--json" => submit.json = true,
            _ => return spec.apply(flag, it),
        }
        Ok(true)
    })?;
    submit.spec = spec.finish();
    Ok(submit)
}

fn parse_claims_args(args: &[String]) -> Result<(Scale, Vec<&'static Claim>), ParseError> {
    let mut scale = Scale::Paper;
    let mut selected: Vec<&'static Claim> = claims::REGISTRY.iter().collect();
    walk("claims", args, |flag, it| {
        match flag {
            "--scale" => {
                scale = Scale::from_token(next_value(it, flag)?)
                    .map_err(|e| ParseError(format!("{flag}: {e}")))?;
            }
            "--only" => {
                selected = next_value(it, flag)?
                    .split(',')
                    .map(|id| {
                        claims::find(id).ok_or_else(|| {
                            let ids: Vec<&str> = claims::REGISTRY.iter().map(|c| c.id).collect();
                            ParseError(format!(
                                "{flag}: unknown claim '{id}' (one of {})",
                                ids.join("|")
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((scale, selected))
}

/// Parse the fault-injection list after `flag`: a comma list of
/// `<kind>@<index>` where kind is a compute fault (`panic`, `io`,
/// `delay:<ms>`, keyed by grid index) or an IO fault (`eio`, `enospc`,
/// `io-torn`, keyed by durable record index) — e.g.
/// `panic@2,io@5,enospc@3`. The two token grammars are owned by
/// [`FaultSpec::from_token`] and [`IoFaultKind::from_token`] in
/// `graphmem-core`; this function only splits the list and routes each
/// entry to the plan of the layer it targets.
fn chaos(it: &mut ArgIter<'_>, flag: &str) -> Result<(FaultPlan, IoFaultPlan), ParseError> {
    const KINDS: &str = "panic|io|delay:<ms>|eio|enospc|io-torn";
    let (mut compute, mut io) = (FaultPlan::none(), IoFaultPlan::none());
    for part in next_value(it, flag)?.split(',') {
        let Some((kind, index)) = part.split_once('@') else {
            return err(format!(
                "{flag} entry '{part}' must be <kind>@<index> ({KINDS})"
            ));
        };
        let index: u64 = index
            .parse()
            .map_err(|_| ParseError(format!("{flag} entry '{part}': bad index '{index}'")))?;
        match FaultSpec::from_token(kind) {
            Ok(fault) => compute = compute.inject(index as usize, fault),
            // `delay:` entries are unambiguously compute faults, so a
            // malformed delay reports the compute-side error instead of
            // falling through to "unknown fault".
            Err(e) if kind.starts_with("delay:") => {
                return err(format!("{flag} entry '{part}': {e}"));
            }
            Err(_) => match IoFaultKind::from_token(kind) {
                Ok(kind) => io = io.inject(index, kind),
                Err(_) => {
                    return err(format!(
                        "{flag} entry '{part}': unknown fault '{kind}' ({KINDS})"
                    ));
                }
            },
        }
    }
    Ok((compute, io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_core::prelude::*;
    use graphmem_core::GraphmemError;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bare_and_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&args("help")).unwrap(), Command::Help));
        assert!(matches!(
            parse(&args("datasets")).unwrap(),
            Command::Datasets
        ));
    }

    #[test]
    fn run_defaults() {
        let Command::Run(run) = parse(&args("run")).unwrap() else {
            panic!()
        };
        assert_eq!(run, RunArgs::default());
        assert_eq!(run.spec, RunSpec::default());
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
        assert_eq!(r.telemetry.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(r.spec.sample_interval, Some(100_000));
        assert_eq!(r.series.as_deref(), Some("/tmp/s.csv"));
        assert!(r.json);
        assert!(!r.attribution);
        let Command::Run(r) = parse(&args("run --attribution")).unwrap() else {
            panic!()
        };
        assert!(r.attribution);
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
            let Command::Sweep(k, _, _) = parse(&args(&format!("sweep {word}"))).unwrap() else {
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
    }

    #[test]
    fn robustness_flags() {
        let Command::Sweep(_, _, c) = parse(&args(
            "sweep pressure --manifest runs.jsonl --resume runs.jsonl --retries 3 \
             --timeout 1.5 --chaos panic@2,io@5,delay:250@0",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.manifest, Some(PathBuf::from("runs.jsonl")));
        assert_eq!(c.resume, Some(PathBuf::from("runs.jsonl")));
        assert_eq!(c.retries, 3);
        assert_eq!(c.timeout, Some(Duration::from_millis(1500)));
        assert_eq!(
            c.faults.entries(),
            [
                (2, FaultSpec::Panic),
                (5, FaultSpec::IoError),
                (0, FaultSpec::Delay { ms: 250 }),
            ]
        );
        assert!(c.manifest_faults.is_empty());
        assert_eq!(
            c.fsync,
            FsyncPolicy::Always,
            "fsync defaults to the supervisor's"
        );
        let Command::Sweep(_, _, c) = parse(&args("sweep pressure --threads 3")).unwrap() else {
            panic!()
        };
        assert_eq!(c.threads, 3);
        let Command::Sweep(_, _, c) = parse(&args("sweep pressure")).unwrap() else {
            panic!()
        };
        assert!(
            c.threads >= 1,
            "--threads defaults to the machine's parallelism"
        );
        assert!(
            c.cancel.is_none(),
            "the SIGINT flag is attached when the sweep runs"
        );
    }

    #[test]
    fn durability_flags() {
        // One --chaos list mixes compute and IO faults; they split by
        // target layer.
        let Command::Sweep(_, _, c) = parse(&args(
            "sweep pressure --fsync every:8 --chaos panic@1,io-torn@3,enospc@0,eio@7",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.fsync, FsyncPolicy::EveryN(8));
        assert_eq!(c.faults.entries(), [(1, FaultSpec::Panic)]);
        assert_eq!(
            c.manifest_faults.entries(),
            [
                (3, IoFaultKind::Torn),
                (0, IoFaultKind::Enospc),
                (7, IoFaultKind::Eio),
            ]
        );
        let Command::Sweep(_, _, c) = parse(&args("sweep pressure --fsync never")).unwrap() else {
            panic!()
        };
        assert_eq!(c.fsync, FsyncPolicy::Never);
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
        let d = ServerConfig::default();
        assert_eq!(s.addr, d.addr);
        assert_eq!(s.addr, DEFAULT_ADDR);
        assert_eq!(s.workers, d.workers);
        assert_eq!(s.queue_capacity, d.queue_capacity);
        assert_eq!(s.cache_dir, d.cache_dir);
        assert_eq!(s.retries, d.retries);
        assert_eq!(s.timeout, d.timeout);
        assert_eq!(s.fsync, d.fsync);
        assert_eq!(s.compute_faults, d.compute_faults);
        assert_eq!(s.io_faults, d.io_faults);
        assert_eq!(s.breaker_threshold, d.breaker_threshold);
        assert_eq!(s.breaker_cooldown, d.breaker_cooldown);
        let Command::Serve(s) = parse(&args(
            "serve --addr 127.0.0.1:0 --workers 4 --queue 128 --cache-dir /tmp/cache \
             --retries 2 --timeout 0.5",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.workers, 4);
        assert_eq!(s.queue_capacity, 128);
        assert_eq!(s.cache_dir, Some(PathBuf::from("/tmp/cache")));
        assert_eq!(s.retries, 2);
        assert_eq!(s.timeout, Some(Duration::from_millis(500)));
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
        assert_eq!(s.fsync, FsyncPolicy::EveryN(4));
        assert_eq!(s.compute_faults.entries(), [(0, FaultSpec::Panic)]);
        assert_eq!(s.io_faults.entries(), [(2, IoFaultKind::Enospc)]);
        assert_eq!(s.breaker_threshold, 3);
        assert_eq!(s.breaker_cooldown, Duration::from_millis(250));
        // `--breaker 0` is valid: it disables circuit breaking.
        let Command::Serve(s) = parse(&args("serve --breaker 0")).unwrap() else {
            panic!()
        };
        assert_eq!(s.breaker_threshold, 0);
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

    #[test]
    fn durations_are_exact_and_unrepresentable_ones_are_refused() {
        // 1e300 s overflows a Duration: a usage error, not a panic.
        let e = parse(&args("sweep frag --timeout 1e300")).unwrap_err();
        assert!(e.to_string().contains("--timeout"), "{e}");
        let e = parse(&args("serve --breaker-cooldown 1e300")).unwrap_err();
        assert!(e.to_string().contains("--breaker-cooldown"), "{e}");
        // A sub-millisecond watchdog keeps its value: truncated to 0 ms
        // it would fail every config.
        let Command::Serve(s) = parse(&args("serve --timeout 0.0004")).unwrap() else {
            panic!()
        };
        assert_eq!(s.timeout, Some(Duration::from_micros(400)));
        for bad in ["NaN", "inf", "0", "1e-12", "-0.5"] {
            let e = parse(&args(&format!("serve --timeout {bad}"))).unwrap_err();
            assert!(e.to_string().contains("--timeout"), "{bad}: {e}");
        }
    }

    /// Every flag in [`USAGE`], with whether it takes a value and the
    /// subcommands whose sections list it.
    fn usage_flags() -> BTreeMap<String, (bool, Vec<&'static str>)> {
        let mut flags: BTreeMap<String, (bool, Vec<&'static str>)> = BTreeMap::new();
        let mut section: Vec<&'static str> = Vec::new();
        for line in crate::USAGE.lines() {
            if !line.starts_with(' ') {
                // A section header such as "SWEEP (sweep only):" names the
                // subcommands its flags belong to.
                section = ["run", "sweep", "serve", "submit", "claims"]
                    .into_iter()
                    .filter(|cmd| {
                        line.split_once('(').is_some_and(|(_, names)| {
                            names
                                .split(|c: char| !c.is_ascii_alphabetic())
                                .any(|w| w == *cmd)
                        })
                    })
                    .collect();
                continue;
            }
            // Flag lines are indented four spaces; deeper lines continue
            // a description.
            let Some(mut words) = line
                .strip_prefix("    --")
                .map(|rest| rest.split_whitespace())
            else {
                continue;
            };
            let flag = format!("--{}", words.next().unwrap_or_default());
            let takes_value = words.next().is_some_and(|w| w.starts_with('<'));
            let entry = flags.entry(flag).or_default();
            entry.0 = takes_value;
            entry.1.extend(&section);
        }
        flags
    }

    /// A valid value for each value-taking flag in [`USAGE`], as `cmd`
    /// reads it.
    fn sample_value(cmd: &str, flag: &str) -> &'static str {
        match flag {
            "--dataset" => "wiki",
            "--kernel" => "pr",
            "--scale" if cmd == "claims" => "tiny",
            "--scale" => "11",
            "--only" => "fig01,table1",
            "--policy" => "thp",
            "--governor" => "epoch=100000",
            "--khugepaged" => "off",
            "--khugepaged-interval" | "--defrag-blocks" | "--seed-offset" => "4",
            "--preprocess" => "dbg",
            "--order" => "property-first",
            "--surplus" => "0.1",
            "--frag" => "0.5",
            "--file" => "cache",
            "--sample-interval" => "100000",
            "--threads" | "--workers" | "--queue" | "--retries" | "--breaker" => "2",
            "--manifest" | "--resume" | "--telemetry" => "x.jsonl",
            "--series" => "x.csv",
            "--timeout" | "--breaker-cooldown" => "0.5",
            "--chaos" => "panic@0,eio@1",
            "--fsync" => "every:2",
            "--addr" => "127.0.0.1:0",
            "--cache-dir" => "cache",
            "--sweep" => "frag",
            other => panic!("USAGE lists {other}, which has no sample value here"),
        }
    }

    #[test]
    fn each_command_accepts_exactly_the_flags_usage_lists_for_it() {
        let flags = usage_flags();
        assert!(flags.len() >= 30, "USAGE flags not found: {flags:?}");
        assert_eq!(flags["--timeout"].1, ["sweep", "serve"]);
        assert_eq!(flags["--json"].1, ["submit", "run"]);
        for (cmd, words) in [
            ("run", "run"),
            ("sweep", "sweep frag"),
            ("serve", "serve"),
            ("submit", "submit"),
            ("claims", "claims"),
        ] {
            for (flag, (takes_value, listed_for)) in &flags {
                let mut argv = args(words);
                argv.push(flag.clone());
                if *takes_value {
                    argv.push(sample_value(cmd, flag).to_string());
                }
                if flag == "--series" {
                    argv.extend(args("--sample-interval 100000"));
                }
                match parse(&argv) {
                    Ok(_) => assert!(listed_for.contains(&cmd), "{argv:?} accepted"),
                    Err(e) => {
                        assert!(!listed_for.contains(&cmd), "{argv:?} refused: {e}");
                        assert!(e.to_string().contains(flag.as_str()), "{argv:?}: {e}");
                    }
                }
            }
        }
        // Refusals whose message also says why, and whole command lines
        // mixing flags of several subcommands.
        for (line, needles) in [
            (
                "run --dataset wiki --series x.csv",
                &["--series", "--sample-interval"][..],
            ),
            (
                "sweep frag --sample-interval 100000 --series x.csv",
                &["--series", "sweep"],
            ),
            (
                "sweep frag --telemetry t.jsonl --attribution --json",
                &["--telemetry"],
            ),
            ("sweep frag --attribution", &["--attribution"]),
            (
                "run --chaos panic@0 --timeout 0.001 --manifest m.jsonl",
                &["--chaos"],
            ),
            ("run --threads 4", &["--threads", "run"]),
            ("serve --dataset wiki", &["--dataset", "serve"]),
            ("submit --manifest runs.jsonl", &["--manifest", "submit"]),
            ("claims --threads 2", &["--threads", "claims"]),
            ("claims --scale 11", &["--scale", "tiny|small|paper"]),
            ("claims --only fig99", &["--only", "fig99", "fig01"]),
        ] {
            let e = parse(&args(line)).unwrap_err().to_string();
            for needle in needles {
                assert!(e.contains(needle), "{line}: {e}");
            }
        }
    }

    /// Parse `argv`, then lower it the way `execute` does before it runs
    /// anything: a parse error, or the lowering's own result.
    fn parse_and_lower(argv: &[String]) -> Result<Result<(), GraphmemError>, ParseError> {
        Ok(match parse(argv)? {
            Command::Run(run) => run.spec.to_experiment().map(drop),
            Command::Sweep(kind, spec, _) => spec.experiments(Some(kind)).map(drop),
            Command::Submit(submit) => submit.spec.experiments(submit.sweep).map(drop),
            Command::Serve(_) | Command::Claims(..) | Command::Datasets | Command::Help => Ok(()),
        })
    }

    /// A command line built from the subcommand words, the flags in
    /// [`USAGE`] and mangled values, with tokens then dropped, duplicated
    /// or truncated.
    fn fuzz_argv(rng: &mut proptest::TestRng, flags: &[(String, bool)]) -> Vec<String> {
        const COMMANDS: &[&str] = &[
            "run",
            "run",
            "run",
            "sweep pressure",
            "sweep frag",
            "sweep selectivity",
            "sweep sideways",
            "sweep",
            "serve",
            "serve",
            "submit",
            "submit",
            "claims",
            "datasets",
            "help",
            "frobnicate",
            "",
        ];
        const MANGLED: &[&str] = &[
            "",
            "0",
            "-1",
            "-0",
            "NaN",
            "inf",
            "-inf",
            "1e300",
            "-1e300",
            "1e-300",
            "99999999999999999999999",
            "18446744073709551616",
            "4294967297",
            "255",
            "64",
            "0.5",
            "1.5",
            "@",
            ":",
            ",",
            "@@",
            "panic@",
            "@1",
            "panic@1,",
            "panic@-1",
            "delay:@0",
            "delay:99999999999999999999@0",
            "enospc@18446744073709551615",
            "every:",
            "every:0",
            "every:-1",
            "selective:",
            "selective:NaN",
            "auto:1e300",
            "bytes:",
            "bytes:-1",
            "epoch=",
            "epoch=0",
            "=",
            "max=1e300",
            "1,2",
            "a:b@c,d",
            "--json",
            "\u{0}",
            "é",
        ];
        let pick = |rng: &mut proptest::TestRng, n: usize| rng.below(n as u64) as usize;
        let mut argv = args(COMMANDS[pick(rng, COMMANDS.len())]);
        let cmd = argv.first().cloned().unwrap_or_default();
        for _ in 0..rng.below(7) {
            let (flag, takes_value) = &flags[pick(rng, flags.len())];
            argv.push(flag.clone());
            if *takes_value || rng.below(8) == 0 {
                argv.push(if rng.below(2) == 0 {
                    MANGLED[pick(rng, MANGLED.len())].to_string()
                } else if *takes_value {
                    sample_value(&cmd, flag).to_string()
                } else {
                    "stray".to_string()
                });
            }
        }
        for _ in 0..rng.below(3) {
            if argv.is_empty() {
                break;
            }
            let i = pick(rng, argv.len());
            match rng.below(4) {
                0 => drop(argv.remove(i)),
                1 => argv.insert(i, argv[i].clone()),
                2 => argv.truncate(i),
                _ => {
                    let chars: Vec<char> = argv[i].chars().collect();
                    argv[i] = chars[..pick(rng, chars.len() + 1)].iter().collect();
                }
            }
        }
        argv
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Property: CLI tokens never panic the parser, and every command
        /// line that parses lowers to experiments or a typed
        /// `InvalidConfig`.
        #[test]
        fn mangled_command_lines_fail_typed(case in 0u32..u32::MAX) {
            let flags: Vec<(String, bool)> =
                usage_flags().into_iter().map(|(f, (v, _))| (f, v)).collect();
            let mut rng = proptest::TestRng::for_case("cli_fuzz", case);
            let argv = fuzz_argv(&mut rng, &flags);
            let lowered = std::panic::catch_unwind(|| parse_and_lower(&argv));
            prop_assert!(lowered.is_ok(), "panicked on {argv:?}");
            if let Ok(Ok(Err(e))) = lowered {
                prop_assert!(matches!(e, GraphmemError::InvalidConfig(_)), "{e} on {argv:?}");
            }
        }
    }
}
