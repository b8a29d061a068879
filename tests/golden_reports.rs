//! Golden report digests: the simulated output of a tiny grid, pinned.
//!
//! `RunReport` bytes for a given spec are the fixed point of the model —
//! they change only when a change sets out to change the model. The
//! differential harness cannot see an exact-by-construction rewrite of
//! the shared TLB/cache structures go wrong, because the batch APIs and
//! its reference stepper run on the same structures. This test can: it
//! hashes each report's JSON and compares against digests recorded in
//! `golden/report_digests.txt`.
//!
//! The grid is all four kernels on the wiki preset under two plans:
//! base pages only, and system-wide THP on a 0.6-fragmented machine with
//! the page-size governor running. If a change is meant to alter the
//! model, replace the fixture with the `actual` lines the failure prints.
//!
//! Observation is pinned too (`golden/observation_digests.txt`): the full
//! telemetry event stream of two runs and the access trace of a third,
//! each recorded alongside an unobserved twin that must match it. An
//! observer that changed which pipeline runs would move these.

use graphmem_core::{
    Experiment, GovernorConfig, MemoryCondition, PagePolicy, PageSizePlan, RunReport, RunSpec,
    Surplus,
};
use graphmem_graph::Dataset;
use graphmem_integration_tests::{assert_fixture_section, debug_digest, fnv1a, Fnv1a};
use graphmem_os::{System, SystemSpec, ThpMode};
use graphmem_telemetry::{EventMask, TraceConfig, Tracer};
use graphmem_workloads::{default_root, AllocOrder, GraphArrays, Kernel};

const FIXTURE: &str = include_str!("golden/report_digests.txt");
const OBSERVATION: &str = include_str!("golden/observation_digests.txt");
const ORACLE: &str = include_str!("golden/oracle_digests.txt");

const KERNELS: [Kernel; 4] = [Kernel::Bfs, Kernel::Pagerank, Kernel::Sssp, Kernel::Cc];

fn builder(kernel: Kernel, plan: PageSizePlan, condition: MemoryCondition) -> Experiment {
    Experiment::builder(Dataset::Wiki, kernel)
        .scale(Dataset::Wiki.default_scale() - 4)
        .plan(plan)
        .condition(condition)
}

fn run(kernel: Kernel, plan: PageSizePlan, condition: MemoryCondition) -> RunReport {
    builder(kernel, plan, condition)
        .build()
        .expect("valid config")
        .run()
}

fn governed_thp() -> PageSizePlan {
    PageSizePlan::with_policy(PagePolicy::ThpSystemWide).governed(GovernorConfig {
        epoch_cycles: 200_000,
        promote_cost: 0.5,
        demote_cost: 0.1,
        ..GovernorConfig::default()
    })
}

#[test]
fn report_digests_match_fixture() {
    let mut actual = String::new();
    for kernel in KERNELS {
        let cells = [
            (
                "base",
                run(
                    kernel,
                    PageSizePlan::with_policy(PagePolicy::BaseOnly),
                    MemoryCondition::unbounded(),
                ),
            ),
            (
                "thp-frag0.6-governed",
                run(kernel, governed_thp(), MemoryCondition::fragmented(0.6)),
            ),
        ];
        assert!(
            cells[1].1.governor.as_ref().is_some_and(|g| g.epochs > 0),
            "{kernel}: the governed cell must run governor epochs to be probative"
        );
        for (plan, report) in cells {
            let digest = fnv1a(report.to_json().as_bytes());
            actual.push_str(&format!("{kernel} {plan} {digest}\n"));
        }
    }
    let expected: String = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "report digests moved: the simulated model changed"
    );
}

/// A tracer recording every event kind, with a ring large enough that
/// nothing is displaced.
fn record_everything() -> Tracer {
    Tracer::enabled(
        TraceConfig::default()
            .mask(EventMask::ALL)
            .ring_capacity(1 << 21),
    )
}

/// Run `builder` with a record-everything tracer attached; returns the
/// report and one fixture line: event count, event-stream digest and
/// report digest.
fn observed(builder: Experiment) -> (RunReport, String) {
    let tracer = record_everything();
    let report = builder
        .telemetry(tracer.clone())
        .build()
        .expect("valid config")
        .run();
    let stats = tracer.stats();
    assert_eq!(stats.dropped_from_ring, 0, "the ring must hold every event");
    let events = tracer.events();
    assert!(events.len() > 1000, "too few events to be probative");
    let line = format!(
        "{} {} {}",
        events.len(),
        debug_digest(&events),
        fnv1a(report.to_json().as_bytes())
    );
    (report, line)
}

/// The full telemetry event stream of a sampled, pressured THP BFS run is
/// pinned, cycle stamps included, and attaching the tracer leaves the
/// report byte-identical to an unobserved run.
#[test]
fn telemetry_stream_of_pressured_thp_bfs_is_pinned() {
    let cell = || {
        builder(
            Kernel::Bfs,
            PageSizePlan::with_policy(PagePolicy::ThpSystemWide),
            MemoryCondition::pressured(Surplus::FractionOfWss(0.2)),
        )
        .sample_interval(50_000)
    };
    let (report, line) = observed(cell());
    let plain = cell().build().expect("valid config").run();
    assert_eq!(
        report.to_json(),
        plain.to_json(),
        "telemetry perturbed the run"
    );
    assert_fixture_section(
        OBSERVATION,
        "telemetry bfs-thp-pressured0.2",
        &format!("{line}\n"),
    );
}

/// The same for the governed PageRank cell of the report grid: its
/// observed report must still carry the grid's pinned digest.
#[test]
fn telemetry_stream_of_governed_pagerank_is_pinned() {
    let (report, line) = observed(builder(
        Kernel::Pagerank,
        governed_thp(),
        MemoryCondition::fragmented(0.6),
    ));
    let grid = format!(
        "pr thp-frag0.6-governed {}",
        fnv1a(report.to_json().as_bytes())
    );
    assert!(
        FIXTURE.lines().any(|l| l == grid),
        "telemetry perturbed the governed run"
    );
    assert_fixture_section(
        OBSERVATION,
        "telemetry pr-thp-frag0.6-governed",
        &format!("{line}\n"),
    );
}

/// The access trace of a THP BFS run — initialization and kernel — is
/// pinned, one entry per element access, and recording it leaves the
/// clock and counters exactly where an unrecorded run leaves them.
#[test]
fn access_trace_of_thp_bfs_is_pinned() {
    let csr = Dataset::Wiki.generate_with_scale(Dataset::Wiki.default_scale() - 4);
    let run = |trace: bool| {
        let mut spec = SystemSpec::scaled_with_order(64, 4);
        spec.thp.mode = ThpMode::Always;
        let mut sys = System::new(spec);
        if trace {
            sys.start_tracing();
        }
        let mut arrays = GraphArrays::map(&mut sys, &csr, Kernel::Bfs);
        arrays.initialize(&mut sys, AllocOrder::Natural);
        Kernel::Bfs.run_simulated(&mut sys, &mut arrays, default_root(&csr));
        let trace = sys.take_trace();
        (sys.clock(), *sys.perf(), *sys.os_stats(), trace)
    };
    let (clock, perf, os, trace) = run(true);
    let (plain_clock, plain_perf, plain_os, _) = run(false);
    assert_eq!(
        (clock, perf, os),
        (plain_clock, plain_perf, plain_os),
        "tracing perturbed the run"
    );
    assert!(
        os.huge_faults > 0,
        "the run must map huge pages to be probative"
    );
    // A faulting element is retried once but traced once.
    assert_eq!(trace.len() as u64 + os.faults, perf.accesses);
    let mut h = Fnv1a::default();
    for (addr, is_write) in trace.iter() {
        h.update(&addr.0.to_le_bytes());
        h.update(&[u8::from(is_write)]);
    }
    let line = format!("{} {} {clock}\n", trace.len(), h.hex());
    assert_fixture_section(OBSERVATION, "access-trace bfs-thp", &line);
}

/// `config_hash` is a config's identity in manifests and store shards:
/// the default spec's hash is pinned.
#[test]
fn default_spec_config_hash_is_pinned() {
    let hash = RunSpec::default()
        .config_hash()
        .expect("default spec is valid");
    assert_fixture_section(ORACLE, "spec default", &format!("{hash}\n"));
}

/// A `graphmem run --json` report carrying every optional section
/// (`series`, `attribution` with `memory`, `governor`), written by an
/// earlier build and committed verbatim.
const FULL_REPORT: &str = include_str!("golden/full_report.json");
/// The result-store shard line (CRC-framed `{"hash":…,"report":…}`) that
/// holds [`FULL_REPORT`].
const FULL_REPORT_SHARD: &str = include_str!("golden/full_report_shard.jsonl");

#[test]
fn committed_report_parses_and_reserializes_byte_identically() {
    let text = FULL_REPORT.trim_end_matches('\n');
    let report = RunReport::from_json(text).expect("committed report parses");
    for (section, present) in [
        ("series", report.series.is_some()),
        ("attribution", report.attribution.is_some()),
        (
            "attribution.memory",
            report
                .attribution
                .as_ref()
                .is_some_and(|a| a.memory.is_some()),
        ),
        ("governor", report.governor.is_some()),
    ] {
        assert!(present, "fixture lost its {section} section");
    }
    assert_eq!(report.to_json(), text);
}

#[test]
fn committed_shard_line_parses_and_reframes_byte_identically() {
    use graphmem_core::durable::{frame_record, parse_framed, Framed};
    use graphmem_server::store::ResultStore;
    use graphmem_telemetry::json::JsonValue;

    let line = FULL_REPORT_SHARD.trim_end_matches('\n');
    let Framed::Valid(payload) = parse_framed(line) else {
        panic!("committed shard line fails its CRC");
    };
    let record = JsonValue::parse(payload).expect("shard payload is JSON");
    let hash = record
        .get("hash")
        .and_then(JsonValue::as_str)
        .expect("shard record names its hash");
    let report = RunReport::from_json_value(record.get("report").expect("report"))
        .expect("shard report parses");
    let json = report.to_json();
    assert_eq!(json, FULL_REPORT.trim_end_matches('\n'));
    let reframed = frame_record(&format!("{{\"hash\":\"{hash}\",\"report\":{json}}}"));
    assert_eq!(reframed, line);

    // The store's own reader serves the same bytes from the old shard.
    let dir = std::env::temp_dir().join(format!("graphmem_golden_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shard = format!("results-{}.jsonl", &hash[..1]);
    std::fs::write(dir.join(shard), FULL_REPORT_SHARD).expect("write shard");
    let store = ResultStore::open(Some(dir.clone()), 4).expect("store opens");
    assert_eq!(store.get(hash).as_deref(), Some(json.as_str()));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
