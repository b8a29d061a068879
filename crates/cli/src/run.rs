//! Command execution: lower parsed specs through `graphmem-core` and
//! print results (or drive / talk to the experiment service).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use graphmem_core::{
    run_supervised, RunReport, RunSpec, SupervisorConfig, SweepKind, SweepOutcome,
};
use graphmem_graph::Dataset;
use graphmem_server::{http, Server, ServerConfig};
use graphmem_telemetry::json::{JsonObject, JsonValue};
use graphmem_telemetry::{JsonlSink, TraceConfig, Tracer};

use crate::parse::{Command, RunArgs, SubmitArgs};
use crate::USAGE;

/// Process exit code: everything succeeded.
pub const EXIT_OK: u8 = 0;
/// Process exit code: the command failed outright.
pub const EXIT_FAILURE: u8 = 1;
/// Process exit code: bad usage (reserved for `main`'s parse errors).
pub const EXIT_USAGE: u8 = 2;
/// Process exit code: a sweep finished but some configs failed; the
/// completed reports were still printed (and checkpointed when a
/// manifest is configured).
pub const EXIT_PARTIAL: u8 = 3;
/// Process exit code: interrupted by SIGINT (128 + 2, the shell
/// convention); completed work was flushed to the manifest.
pub const EXIT_INTERRUPTED: u8 = 130;

/// Execute a parsed command, writing human-readable output to stdout.
/// Returns the process exit code (`EXIT_OK` / `EXIT_FAILURE` /
/// `EXIT_PARTIAL` / `EXIT_INTERRUPTED`).
pub fn execute(cmd: Command) -> u8 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            EXIT_OK
        }
        Command::Datasets => {
            datasets();
            EXIT_OK
        }
        Command::Run(args) => run_cmd(&args),
        Command::Sweep(kind, spec, config) => sweep_cmd(kind, &spec, config),
        Command::Serve(config) => serve_cmd(config),
        Command::Submit(args) => submit_cmd(&args),
    }
}

fn run_cmd(args: &RunArgs) -> u8 {
    let mut experiment = match args.spec.to_experiment() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_FAILURE;
        }
    };
    if let Some(path) = &args.telemetry {
        let sink = match JsonlSink::create(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot create telemetry file {path}: {e}");
                return EXIT_FAILURE;
            }
        };
        experiment =
            experiment.telemetry(Tracer::enabled(TraceConfig::default().sink(Box::new(sink))));
    }
    if args.attribution {
        experiment = experiment.attribution(true);
    }
    let report = match experiment.try_run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_FAILURE;
        }
    };
    if let (Some(path), Some(series)) = (&args.series, &report.series) {
        if let Err(e) = series.write_csv(path) {
            eprintln!("cannot write series file {path}: {e}");
            return EXIT_FAILURE;
        }
        // The attribution profiler's memory-state series rides along as a
        // second CSV next to the metrics series.
        if let Some(mem) = report.attribution.as_ref().and_then(|a| a.memory.as_ref()) {
            let mpath = format!("{path}.memstate.csv");
            if let Err(e) = mem.write_csv(&mpath) {
                eprintln!("cannot write memory-state series file {mpath}: {e}");
                return EXIT_FAILURE;
            }
        }
    }
    if args.json {
        println!("{}", report.to_json());
    } else {
        print_report(&report);
        if let Some(attr) = &report.attribution {
            println!("  attribution (per array, whole run):");
            for line in attr.render_table().lines() {
                println!("    {line}");
            }
        }
    }
    EXIT_OK
}

fn print_report(r: &RunReport) {
    println!("{}", r.summary());
    println!(
        "  cycles: preprocess {:.2}M + init {:.2}M + compute {:.2}M = {:.2}M total",
        r.preprocess_cycles as f64 / 1e6,
        r.init_cycles as f64 / 1e6,
        r.compute_cycles as f64 / 1e6,
        r.total_cycles() as f64 / 1e6
    );
    println!(
        "  tlb: dtlb miss {:.1}%, page walks {:.1}% of accesses, translation {:.1}% of compute",
        r.dtlb_miss_rate() * 100.0,
        r.stlb_miss_rate() * 100.0,
        r.translation_overhead() * 100.0
    );
    println!(
        "  huge pages: {:.1}% of property array, {:.2}% of total footprint ({} KiB)",
        r.property_huge_fraction() * 100.0,
        r.huge_memory_fraction() * 100.0,
        r.total_huge_bytes / 1024
    );
    println!(
        "  os: {} faults ({} huge, {} fallbacks), {} compactions, {} promotions, {} swap-ins",
        r.os.faults,
        r.os.huge_faults,
        r.os.huge_fallbacks,
        r.os.direct_compactions,
        r.os.promotions,
        r.os.swap_ins
    );
    if let Some(gov) = &r.governor {
        println!(
            "  governor [{}]: {} epochs, {} promotions, {} demotions, {} denied by fragmentation",
            gov.config, gov.epochs, gov.promotions, gov.demotions, gov.denied_by_fragmentation
        );
    }
}

/// The process-wide SIGINT flag, installing the handler on first use.
/// Ctrl-C flips the flag; the supervisor records not-yet-started configs
/// as interrupted and drains, so everything already completed has been
/// flushed to the manifest by the time the process exits with
/// [`EXIT_INTERRUPTED`].
fn sigint_flag() -> Arc<AtomicBool> {
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    Arc::clone(FLAG.get_or_init(|| {
        const SIGINT: i32 = 2;
        extern "C" fn on_sigint(_: i32) {
            if let Some(flag) = flag_storage().get() {
                flag.store(true, Ordering::Relaxed);
            }
        }
        fn flag_storage() -> &'static OnceLock<Arc<AtomicBool>> {
            static STORAGE: OnceLock<Arc<AtomicBool>> = OnceLock::new();
            &STORAGE
        }
        extern "C" {
            // Always present via the C runtime; avoids a libc crate
            // dependency for one call. `usize` stands in for the
            // handler-pointer type.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let flag = Arc::new(AtomicBool::new(false));
        let _ = flag_storage().set(Arc::clone(&flag));
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
        flag
    }))
}

fn print_sweep_outcome(kind: SweepKind, params: &[f64], outcome: &SweepOutcome) {
    if outcome.resumed > 0 {
        println!(
            "resumed {} of {} configs from manifest",
            outcome.resumed,
            outcome.outcomes.len()
        );
    }
    println!(
        "{:>9} {:>12} {:>9} {:>9} {:>11}",
        kind.param_name(),
        "compute Mcy",
        "dtlb%",
        "walk%",
        "huge-mem%"
    );
    for (p, o) in params.iter().zip(&outcome.outcomes) {
        match o {
            Ok(r) => println!(
                "{:>9.2} {:>12.2} {:>8.1}% {:>8.1}% {:>10.2}%  {}",
                p,
                r.compute_cycles as f64 / 1e6,
                r.dtlb_miss_rate() * 100.0,
                r.stlb_miss_rate() * 100.0,
                r.huge_memory_fraction() * 100.0,
                if r.verified { "" } else { "WRONG RESULT" }
            ),
            Err(f) => println!(
                "{:>9.2} {:>12} {:>9} {:>9} {:>11}  FAILED[{}] after {} attempt{}: {}",
                p,
                "-",
                "-",
                "-",
                "-",
                f.error.code(),
                f.attempts,
                if f.attempts == 1 { "" } else { "s" },
                f.error
            ),
        }
    }
    let failed = outcome.failures().count();
    if failed > 0 {
        eprintln!(
            "{failed} of {} configs failed ({} completed)",
            outcome.outcomes.len(),
            outcome.reports().count()
        );
    }
}

fn sweep_cmd(kind: SweepKind, spec: &RunSpec, config: SupervisorConfig) -> u8 {
    let exps = match spec.experiments(Some(kind)) {
        Ok(exps) => exps,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_FAILURE;
        }
    };
    let config = SupervisorConfig {
        cancel: Some(sigint_flag()),
        ..config
    };
    let outcome = match run_supervised(&exps, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_FAILURE;
        }
    };
    print_sweep_outcome(kind, kind.params(), &outcome);
    if outcome.interrupted {
        eprintln!("interrupted; completed configs are in the manifest (resume with --resume)");
        EXIT_INTERRUPTED
    } else if outcome.is_complete() {
        EXIT_OK
    } else {
        EXIT_PARTIAL
    }
}

fn serve_cmd(config: ServerConfig) -> u8 {
    let addr = config.addr.clone();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start experiment service on {addr}: {e}");
            return EXIT_FAILURE;
        }
    };
    println!("graphmem experiment service listening on {}", server.addr());
    println!("  POST /runs | GET /runs/<id> | GET /results/<hash> | GET /metrics | GET /healthz");
    let cancel = sigint_flag();
    server.run_until(&cancel);
    eprintln!("interrupt received: queue drained, results flushed");
    EXIT_OK
}

fn submit_cmd(args: &SubmitArgs) -> u8 {
    let body = {
        let mut o = JsonObject::new();
        o.field_raw("spec", &args.spec.to_json());
        if let Some(kind) = args.sweep {
            o.field_str("sweep", kind.token());
        }
        o.finish()
    };
    let (status, response) = match http::request(&args.addr, "POST", "/runs", &body) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot reach experiment service at {}: {e}", args.addr);
            return EXIT_FAILURE;
        }
    };
    if status != 202 {
        eprintln!("submission rejected ({status}): {response}");
        return EXIT_FAILURE;
    }
    let Some(job) = JsonValue::parse(&response)
        .ok()
        .and_then(|v| v.get("job").and_then(JsonValue::as_u64))
    else {
        eprintln!("malformed acceptance from server: {response}");
        return EXIT_FAILURE;
    };
    if !args.json {
        println!("accepted as job {job}; streaming progress");
    }

    let mut failed = 0u64;
    let mut interrupted = 0u64;
    let echo_raw = args.json;
    let streamed = http::stream_lines(&args.addr, &format!("/runs/{job}"), |line| {
        if echo_raw {
            println!("{line}");
        } else {
            print_progress_line(line);
        }
        if let Ok(v) = JsonValue::parse(line) {
            match v.get("status").and_then(JsonValue::as_str) {
                Some("failed") => failed += 1,
                Some("interrupted") => interrupted += 1,
                _ => {}
            }
        }
    });
    match streamed {
        Ok(200) => {}
        Ok(status) => {
            eprintln!("progress stream for job {job} failed with status {status}");
            return EXIT_FAILURE;
        }
        Err(e) => {
            eprintln!("progress stream for job {job} dropped: {e}");
            return EXIT_FAILURE;
        }
    }
    if interrupted > 0 {
        eprintln!("server shut down before the job finished");
        EXIT_INTERRUPTED
    } else if failed > 0 {
        EXIT_PARTIAL
    } else {
        EXIT_OK
    }
}

/// Render one streamed progress row as prose.
fn print_progress_line(line: &str) {
    let Ok(v) = JsonValue::parse(line) else {
        println!("{line}");
        return;
    };
    match v.get("index").and_then(JsonValue::as_u64) {
        Some(index) => {
            let hash = v.get("hash").and_then(JsonValue::as_str).unwrap_or("?");
            let status = v.get("status").and_then(JsonValue::as_str).unwrap_or("?");
            match status {
                "done" => {
                    let cached = v.get("cached").and_then(JsonValue::as_bool) == Some(true);
                    println!(
                        "  config {index} [{hash}]: done{}",
                        if cached { " (cached)" } else { "" }
                    );
                }
                "failed" => {
                    let message = v.get("message").and_then(JsonValue::as_str).unwrap_or("");
                    println!("  config {index} [{hash}]: FAILED {message}");
                }
                other => println!("  config {index} [{hash}]: {other}"),
            }
        }
        None => {
            // The trailing summary row.
            let done = v.get("done").and_then(JsonValue::as_u64).unwrap_or(0);
            let total = v.get("total").and_then(JsonValue::as_u64).unwrap_or(0);
            let cached = v.get("cached").and_then(JsonValue::as_u64).unwrap_or(0);
            println!("job finished: {done}/{total} done ({cached} from cache)");
        }
    }
}

fn datasets() {
    println!(
        "{:<8} {:>6} {:>10} {:>11} {:>9}  structure",
        "name", "scale", "vertices", "edges", "avg-deg"
    );
    for ds in Dataset::ALL {
        let cfg = ds.rmat_config(ds.default_scale());
        println!(
            "{:<8} {:>6} {:>10} {:>11} {:>9}  {}",
            ds.name(),
            ds.default_scale(),
            1u64 << ds.default_scale(),
            (cfg.avg_degree as u64) << ds.default_scale(),
            cfg.avg_degree,
            if cfg.shuffle_ids {
                "shuffled IDs (no hub clustering)"
            } else {
                "hubs clustered at low IDs"
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, Command};
    use graphmem_core::sweep;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Build and run one sweep's experiments on `threads` workers,
    /// returning `(parameter, report)` rows in sweep order.
    fn sweep_rows(kind: SweepKind, spec: &RunSpec, threads: usize) -> Vec<(f64, RunReport)> {
        let exps = spec.experiments(Some(kind)).expect("valid spec");
        let reports = sweep::run_parallel(exps, threads).expect("sweep failed");
        kind.params().iter().copied().zip(reports).collect()
    }

    /// End-to-end: a tiny run through the real lowering path must not
    /// panic and must produce a verified report.
    #[test]
    fn build_and_run_tiny_experiment() {
        let Command::Run(run) = parse(&args(
            "run --dataset wiki --kernel bfs --scale 11 --policy thp",
        ))
        .unwrap() else {
            panic!()
        };
        let report = run.spec.to_experiment().unwrap().run();
        assert!(report.verified);
        assert!(report.compute_cycles > 0);
    }

    #[test]
    fn datasets_listing_does_not_panic() {
        datasets();
    }

    #[test]
    fn sweep_command_executes_end_to_end() {
        let cmd = parse(&args(
            "sweep selectivity --dataset wiki --scale 11 --preprocess dbg",
        ))
        .unwrap();
        assert_eq!(execute(cmd), EXIT_OK); // all six selectivity points run
    }

    #[test]
    fn sweep_two_threads_bit_identical_to_serial() {
        let Command::Sweep(kind, spec, config) = parse(&args(
            "sweep frag --dataset wiki --scale 11 --policy thp --threads 2",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(config.threads, 2);
        let par = sweep_rows(kind, &spec, 2);
        let ser = sweep_rows(kind, &spec, 1);
        assert_eq!(par.len(), ser.len());
        for ((pp, pr), (sp, sr)) in par.iter().zip(&ser) {
            assert_eq!(pp, sp);
            assert_eq!(pr.to_json(), sr.to_json(), "thread count changed a report");
        }
    }

    #[test]
    fn chaotic_sweep_reports_partial_failure() {
        let cmd = parse(&args(
            "sweep frag --dataset wiki --scale 11 --chaos panic@1",
        ))
        .unwrap();
        assert_eq!(execute(cmd), EXIT_PARTIAL);
    }

    #[test]
    fn chaotic_sweep_recovers_with_retries() {
        let cmd = parse(&args(
            "sweep frag --dataset wiki --scale 11 --chaos io@1 --retries 2",
        ))
        .unwrap();
        assert_eq!(execute(cmd), EXIT_OK);
    }

    #[test]
    fn sweep_manifest_resume_round_trip() {
        let path =
            std::env::temp_dir().join(format!("graphmem_cli_resume_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let first = parse(&args(&format!(
            "sweep frag --dataset wiki --scale 11 --manifest {}",
            path.display()
        )))
        .unwrap();
        assert_eq!(execute(first), EXIT_OK);
        let resumed = parse(&args(&format!(
            "sweep frag --dataset wiki --scale 11 --resume {} --chaos panic@0",
            path.display()
        )))
        .unwrap();
        // Fully resumed: the injected panic never fires, nothing re-runs.
        let code = execute(resumed);
        let _ = std::fs::remove_file(&path);
        assert_eq!(code, EXIT_OK);
    }

    #[test]
    fn invalid_spec_fails_cleanly() {
        let cmd = parse(&args("run --dataset wiki --scale 40")).unwrap();
        assert_eq!(execute(cmd), EXIT_FAILURE); // scale out of range
    }

    #[test]
    fn submit_without_server_fails_cleanly() {
        let cmd = parse(&args("submit --addr 127.0.0.1:1 --dataset wiki --scale 10")).unwrap();
        assert_eq!(execute(cmd), EXIT_FAILURE);
    }

    #[test]
    fn print_report_formats() {
        let Command::Run(run) = parse(&args("run --dataset wiki --scale 10")).unwrap() else {
            panic!()
        };
        let report = run.spec.to_experiment().unwrap().run();
        print_report(&report); // smoke: formatting must not panic
    }

    #[test]
    fn attribution_flag_attaches_profile() {
        let Command::Run(run) =
            parse(&args("run --dataset wiki --scale 11 --attribution --json")).unwrap()
        else {
            panic!()
        };
        assert!(run.attribution);
        let report = run.spec.to_experiment().unwrap().attribution(true).run();
        assert!(report.to_json().contains(r#""attribution":{"regions":["#));
        let attr = report.attribution.expect("profile attached");
        assert!(attr.region("property_array").is_some());
        // The rendered table is what prose mode prints.
        assert!(attr.render_table().contains("property_array"));
    }

    #[test]
    fn progress_lines_render_without_panicking() {
        print_progress_line("{\"index\":0,\"hash\":\"abcd\",\"status\":\"done\",\"cached\":true}");
        print_progress_line(
            "{\"index\":1,\"status\":\"failed\",\"code\":\"panic\",\"message\":\"x\"}",
        );
        print_progress_line(
            "{\"job\":1,\"total\":2,\"done\":1,\"cached\":1,\"failed\":1,\"interrupted\":0}",
        );
        print_progress_line("not json");
    }
}
