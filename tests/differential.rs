//! Differential cycle-exactness harness for the access pipeline.
//!
//! The batch APIs (`access_run`, `access_gather`, `access_gather_rmw`)
//! bulk-charge same-page elements through a persistent translation cursor
//! and poll daemons only when the event horizon fires. They must be
//! *bit-identical* in simulated outcome to the naive reference stepper
//! below, which polls every daemon before every element and then issues
//! one scalar access. Randomized access streams run through both here.
//!
//! Whole-kernel runs are pinned by digest instead: their reports were
//! recorded in `golden/oracle_digests.txt` while a second, element-at-a-time
//! pipeline still checked them field by field.

use graphmem_core::{Experiment, GovernorConfig, MemoryCondition, PagePolicy, RunReport, Surplus};
use graphmem_graph::{Csr, Dataset};
use graphmem_integration_tests::{assert_fixture_section, debug_digest, fnv1a};
use graphmem_os::{
    GovernorEpochSample, OsStats, RegionCounters, System, SystemSpec, ThpMode, VirtAddr,
};
use graphmem_telemetry::{EventKind, EventMask, TraceConfig, Tracer};
use graphmem_vm::PerfCounters;
use graphmem_workloads::{AllocOrder, ArrayProfile, GraphArrays, Kernel};
use proptest::prelude::*;

const ORACLE: &str = include_str!("golden/oracle_digests.txt");

/// One fixture line: the report's JSON digest and the config hash.
fn cell(name: &str, report: &RunReport, exp: &Experiment) -> String {
    format!(
        "{name} {} {}\n",
        fnv1a(report.to_json().as_bytes()),
        exp.config_hash()
    )
}

/// The reference stepper: poll every daemon and the sampler, then one
/// scalar access. Polling clears the translation cursor, so every step
/// is a real MMU probe. After the last step, poll once more
/// (`run_due_events`) for the events that access made due.
fn step(sys: &mut System, addr: VirtAddr, is_write: bool) {
    sys.run_due_events();
    if is_write {
        sys.write(addr);
    } else {
        sys.read(addr);
    }
}

/// Four scale steps below the dataset preset: the sizes the pinned
/// oracle verdicts were recorded at.
fn oracle_scale(ds: Dataset) -> u8 {
    ds.default_scale() - 4
}

/// All four kernels on all four dataset presets: every report, and the
/// config hash of its spec, match the pinned oracle verdict.
#[test]
fn all_kernels_all_datasets_bit_identical() {
    let mut actual = String::new();
    for ds in Dataset::ALL {
        for kernel in Kernel::EXTENDED {
            let exp = Experiment::builder(ds, kernel)
                .scale(oracle_scale(ds))
                .huge_order(4)
                .policy(PagePolicy::ThpSystemWide)
                .build()
                .expect("valid config");
            actual += &cell(&format!("{}/{kernel}", ds.name()), &exp.run(), &exp);
        }
    }
    assert_fixture_section(ORACLE, "datasets", &actual);
}

/// Epoch sampling interacts with the event-horizon watermark: a sampled
/// run's report, series included (sample cycles, counter snapshots),
/// matches the pinned oracle verdict.
#[test]
fn sampled_series_bit_identical() {
    let exp = Experiment::builder(Dataset::Wiki, Kernel::Pagerank)
        .scale(oracle_scale(Dataset::Wiki))
        .huge_order(4)
        .policy(PagePolicy::ThpSystemWide)
        .sample_interval(200_000)
        .build()
        .expect("valid config");
    let report = exp.run();
    assert!(
        report.series.as_ref().is_some_and(|s| s.len() > 2),
        "series too short to be probative"
    );
    assert_fixture_section(ORACLE, "sampled", &cell("pagerank", &report, &exp));
}

/// Attribution rides the page-run fast path (region tagging once per
/// probe). The attribution tables, the memstate series a sampled
/// attribution run records, and everything else in the report match the
/// pinned oracle verdict.
#[test]
fn attribution_bit_identical_on_fast_path() {
    let exp = Experiment::builder(Dataset::Wiki, Kernel::Pagerank)
        .scale(oracle_scale(Dataset::Wiki))
        .huge_order(4)
        .policy(PagePolicy::ThpSystemWide)
        .sample_interval(250_000)
        .build()
        .expect("valid config")
        .attribution(true);
    let report = exp.run();
    let regions = report
        .attribution
        .as_ref()
        .expect("attribution enabled")
        .regions
        .len();
    assert!(regions > 1, "need several regions to be probative");
    // The serialized report embeds the full attribution tables and
    // memstate series.
    assert_fixture_section(ORACLE, "attribution", &cell("pagerank", &report, &exp));
}

/// Per-array profiles (reads/writes/seq-breaks/page histograms) are not
/// part of `RunReport`, so pin them on direct kernel runs: BFS, and
/// PageRank, whose scatter-add and convergence sweep run through the
/// gather-RMW and scalar paths of every property array.
#[test]
fn per_array_profiles_bit_identical() {
    let csr = Dataset::Wiki.generate_with_scale(oracle_scale(Dataset::Wiki));
    let root = graphmem_workloads::default_root(&csr);
    let run = |kernel: Kernel| {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let mut arrays = GraphArrays::map(&mut sys, &csr, kernel);
        arrays.initialize(&mut sys, AllocOrder::Natural);
        for p in &arrays.prop {
            p.profile_pages(1 << 16);
        }
        kernel.run_simulated(&mut sys, &mut arrays, root);
        let profiles: Vec<_> = arrays.profile().arrays().to_vec();
        (
            profiles,
            arrays
                .prop
                .iter()
                .map(|p| p.page_profile())
                .collect::<Vec<_>>(),
        )
    };
    let (bfs, mut bfs_pages) = run(Kernel::Bfs);
    let pr = run(Kernel::Pagerank);
    let line = format!(
        "bfs {}\npr {}\n",
        debug_digest(&(bfs, bfs_pages.remove(0))),
        debug_digest(&pr)
    );
    assert_fixture_section(ORACLE, "profiles", &line);
}

/// Everything a direct PageRank run leaves behind, simulated state and
/// host-side statistics alike.
#[derive(Debug, PartialEq)]
struct PagerankOutcome {
    output: Vec<u64>,
    clock: u64,
    perf: PerfCounters,
    os: OsStats,
    cache: [(u64, u64); 3],
    memo: (u64, u64),
    profiles: Vec<ArrayProfile>,
    pages: Vec<Option<Vec<u64>>>,
    governor: Option<Vec<GovernorEpochSample>>,
    regions: Option<Vec<RegionCounters>>,
}

/// The page-size setups PageRank replays under.
#[derive(Debug, Clone, Copy)]
enum Setup {
    /// 4 KiB pages only.
    Base,
    /// System-wide THP.
    Thp,
    /// System-wide THP with the governor (2 M-cycle epochs, so
    /// attribution is on) at fragmentation 0.6, with free memory for
    /// twice the working set: the governor advises its hot regions in
    /// its first epochs, and every later epoch is inert.
    Governed,
}

/// PageRank on `ds` at oracle scale, sized like `Experiment::try_run`
/// sizes its node, at huge order 4 under `setup`. `traced` attaches an
/// `AccessTrace`, which forces every iteration through the simulator.
/// Also returns the steady-epoch `(simulated, replayed)` counts.
fn pagerank_outcome(csr: &Csr, setup: Setup, traced: bool) -> (PagerankOutcome, (u64, u64)) {
    let (vertex_bytes, edge_bytes, _) = csr.array_bytes();
    let wss = vertex_bytes + edge_bytes + 2 * u64::from(csr.num_vertices()) * 8;
    let mut spec = SystemSpec::scaled_with_order((wss * 3 / (1 << 20) + 64).max(64), 4);
    if !matches!(setup, Setup::Base) {
        spec.thp.mode = ThpMode::Always;
    }
    let mut sys = System::new(spec);
    let _pressure = matches!(setup, Setup::Governed).then(|| {
        sys.enable_governor(GovernorConfig {
            epoch_cycles: 2_000_000,
            ..GovernorConfig::default()
        });
        MemoryCondition::from_knobs(Some(Surplus::FractionOfWss(1.0)), 0.6).apply(&mut sys, wss)
    });
    let mut arrays = GraphArrays::map(&mut sys, csr, Kernel::Pagerank);
    arrays.initialize(&mut sys, AllocOrder::Natural);
    for p in &arrays.prop {
        p.profile_pages(1 << 16);
    }
    if traced {
        sys.start_tracing();
    }
    let output = Kernel::Pagerank.run_simulated(&mut sys, &mut arrays, 0);
    if traced {
        assert!(!sys.take_trace().is_empty());
    }
    let outcome = PagerankOutcome {
        output,
        clock: sys.clock(),
        perf: *sys.perf(),
        os: *sys.os_stats(),
        cache: sys.cache_stats(),
        memo: sys.memo_stats(),
        profiles: arrays.profile().arrays().to_vec(),
        pages: arrays.prop.iter().map(|p| p.page_profile()).collect(),
        governor: sys.governor_series().map(<[_]>::to_vec),
        regions: sys.attribution_regions().map(<[_]>::to_vec),
    };
    (outcome, sys.steady_epoch_stats())
}

/// Replayed PageRank iterations leave exactly what simulated ones leave:
/// on every dataset preset, at 4 KiB, under THP and governed THP, a run
/// that may replay steady iterations matches one whose attached
/// `AccessTrace` forces each through the simulator, governor series and
/// attribution counters included. Every setup simulates 2 of the 6
/// iterations (the first two establish and confirm the fixed point) and
/// replays the rest, through every khugepaged pass and governor epoch
/// that falls inside them: at oracle scale an iteration takes 11-21 M
/// cycles, against khugepaged's 20 M and the governor's 2 M.
#[test]
fn replayed_pagerank_iterations_match_simulated_ones() {
    for ds in Dataset::ALL {
        let csr = ds.generate_with_scale(oracle_scale(ds));
        for setup in [Setup::Base, Setup::Thp, Setup::Governed] {
            let (plain, epochs) = pagerank_outcome(&csr, setup, false);
            let (traced, traced_epochs) = pagerank_outcome(&csr, setup, true);
            let cell = format!("{}/{setup:?}", ds.name());
            assert_eq!(plain, traced, "{cell}");
            assert_eq!(traced_epochs, (epochs.0 + epochs.1, 0), "{cell}");
            assert_eq!(epochs, (2, 4), "{cell}");
            if let Some(series) = &plain.governor {
                assert!(
                    series.len() > 20,
                    "{cell}: {} governor epochs",
                    series.len()
                );
            }
        }
    }
}

/// A run that faults on a page boundary mid-batch must resume at the
/// faulting element, not the run start: the access count equals one per
/// element plus exactly one retried attempt per fault.
#[test]
fn access_run_fault_mid_run_resumes_at_faulting_element() {
    let mut sys = System::new(SystemSpec::scaled_demo());
    let base = sys.mmap(1 << 20, "probe");
    // Warm the first page so the run starts hit, then crosses into an
    // unpopulated page and faults mid-run.
    sys.write(base);
    let perf0 = *sys.perf();
    let faults0 = sys.os_stats().faults;
    let count = 1024u64; // 8 KiB at stride 8: spans pages 0..2
    sys.access_run(base, 8, count, false);
    let accesses = sys.perf().accesses - perf0.accesses;
    let faults = sys.os_stats().faults - faults0;
    assert!(faults >= 1, "run should fault crossing the page boundary");
    assert_eq!(
        accesses,
        count + faults,
        "each fault must retry only the faulting element"
    );
    // And the whole run must reconcile with the reference stepper.
    let mut twin = System::new(SystemSpec::scaled_demo());
    let tbase = twin.mmap(1 << 20, "probe");
    step(&mut twin, tbase, true);
    for i in 0..count {
        step(&mut twin, tbase.add(i * 8), false);
    }
    twin.run_due_events();
    assert_eq!(sys.perf(), twin.perf());
    assert_eq!(sys.clock(), twin.clock());
}

/// A tracer recording every event kind when `on`, else a disabled one.
fn tracer(on: bool) -> Tracer {
    if on {
        Tracer::enabled(TraceConfig::default().mask(EventMask::ALL))
    } else {
        Tracer::disabled()
    }
}

/// Build the twin systems for the proptest: one driven through the batch
/// APIs, one through the reference stepper, each with its own tracer.
fn twin_systems(traced: bool) -> (System, VirtAddr, System, VirtAddr) {
    let mut a = System::new(SystemSpec::scaled_demo());
    a.attach_telemetry(tracer(traced));
    let abase = a.mmap(1 << 21, "stream");
    let mut b = System::new(SystemSpec::scaled_demo());
    b.attach_telemetry(tracer(traced));
    let bbase = b.mmap(1 << 21, "stream");
    (a, abase, b, bbase)
}

/// An event a daemon emits before its first kernel charge must carry the
/// cycle the daemon ran at. A khugepaged pass over a VMA smaller than a
/// huge page examines nothing and charges nothing, yet its scan event is
/// stamped identically under the batch APIs, whose hit charges between
/// probes never touch the tracer clock, and under the reference stepper.
#[test]
fn uncharged_daemon_events_are_stamped_like_the_stepper() {
    let build = || {
        let mut spec = SystemSpec::scaled_with_order(64, 4);
        spec.thp.mode = ThpMode::Always;
        spec.thp.khugepaged.scan_interval_cycles = 10_000;
        let mut s = System::new(spec);
        s.attach_telemetry(tracer(true));
        let b = s.mmap(16 * 1024, "small");
        s.populate(b, 16 * 1024);
        (s, b)
    };
    let (mut sys, base) = build();
    let (mut twin, tbase) = build();
    for _ in 0..20 {
        sys.access_run(base, 8, 2048, false);
        for i in 0..2048 {
            step(&mut twin, tbase.add(i * 8), false);
        }
    }
    twin.run_due_events();
    let scans = sys
        .telemetry()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::KhugepagedScan { .. }))
        .count();
    assert!(scans > 2, "khugepaged must run several passes: {scans}");
    assert_eq!(sys.clock(), twin.clock());
    assert_eq!(sys.telemetry().events(), twin.telemetry().events());
}

/// One randomized batch operation over a 2 MiB region of u64 elements.
#[derive(Debug, Clone)]
enum Op {
    Run {
        start: u32,
        stride: u64,
        count: u64,
        write: bool,
    },
    Gather {
        indices: Vec<u32>,
        write: bool,
    },
    Rmw {
        indices: Vec<u32>,
    },
}

const REGION_ELEMS: u32 = (1 << 21) / 8;

fn arb_op() -> impl Strategy<Value = Op> {
    let idx = 0..REGION_ELEMS;
    prop_oneof![
        (0..REGION_ELEMS / 2, 1u64..4, 0u64..200, any::<bool>()).prop_map(
            |(start, stride, count, write)| Op::Run {
                start,
                stride,
                count,
                write
            }
        ),
        (
            proptest::collection::vec(idx.clone(), 0..100),
            any::<bool>()
        )
            .prop_map(|(indices, write)| Op::Gather { indices, write }),
        proptest::collection::vec(idx, 0..60).prop_map(|indices| Op::Rmw { indices }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random mixes of strided runs, gathers, and gather-RMWs through the
    /// batch APIs reconcile exactly with the reference stepper: same
    /// clock, same counters, same OS stats, and, when traced, the same
    /// cycle-stamped event stream.
    #[test]
    fn random_batches_reconcile_with_scalar_loops(
        ops in proptest::collection::vec(arb_op(), 1..12),
        traced in any::<bool>(),
    ) {
        let (mut sys, base, mut twin, tbase) = twin_systems(traced);
        for op in &ops {
            match op {
                Op::Run { start, stride, count, write } => {
                    let off = u64::from(*start) * 8;
                    sys.access_run(base.add(off), *stride * 8, *count, *write);
                    for i in 0..*count {
                        step(&mut twin, tbase.add(off + i * *stride * 8), *write);
                    }
                }
                Op::Gather { indices, write } => {
                    sys.access_gather(base, 8, indices, *write);
                    for &i in indices {
                        step(&mut twin, tbase.add(u64::from(i) * 8), *write);
                    }
                }
                Op::Rmw { indices } => {
                    sys.access_gather_rmw(base, 8, indices);
                    for &i in indices {
                        let addr = tbase.add(u64::from(i) * 8);
                        step(&mut twin, addr, false);
                        step(&mut twin, addr, true);
                    }
                }
            }
            twin.run_due_events();
            prop_assert_eq!(sys.clock(), twin.clock());
        }
        prop_assert_eq!(sys.perf(), twin.perf());
        prop_assert_eq!(sys.os_stats(), twin.os_stats());
        prop_assert_eq!(sys.telemetry().events(), twin.telemetry().events());
    }

    /// Bulk `charge_page_hits` equals n scalar hits for arbitrary run
    /// length, page size (huge order + THP mode), and event-horizon split
    /// point: an epoch sampler forces bulk charges to split mid-page at
    /// arbitrary cycle boundaries, and the sampled series must capture the
    /// identical counter snapshots at the identical cycles as the
    /// reference stepper; when traced, both record the same event stream.
    #[test]
    fn bulk_charges_split_at_event_horizon_match_scalar(
        huge_order in prop_oneof![Just(4u8), Just(6u8)],
        thp_always in any::<bool>(),
        interval in 5_000u64..80_000,
        stride_elems in 1u64..4,
        count in 1u64..3000,
        start in 0u32..1000,
        write in any::<bool>(),
        traced in any::<bool>(),
    ) {
        let build = || {
            let mut spec = SystemSpec::scaled_with_order(64, huge_order);
            if thp_always {
                spec.thp.mode = ThpMode::Always;
            }
            let mut s = System::new(spec);
            s.attach_telemetry(tracer(traced));
            s.enable_sampling(interval);
            let b = s.mmap(1 << 21, "stream");
            (s, b)
        };
        let (mut sys, base) = build();
        let (mut twin, tbase) = build();
        let off = u64::from(start) * 8;
        let stride = stride_elems * 8;
        sys.access_run(base.add(off), stride, count, write);
        for i in 0..count {
            step(&mut twin, tbase.add(off + i * stride), write);
        }
        twin.run_due_events();
        prop_assert_eq!(sys.clock(), twin.clock());
        prop_assert_eq!(sys.perf(), twin.perf());
        prop_assert_eq!(sys.os_stats(), twin.os_stats());
        prop_assert_eq!(sys.take_series(), twin.take_series());
        prop_assert_eq!(sys.telemetry().events(), twin.telemetry().events());
        // Every fast-path element is either bulk-charged or probed.
        let (hits, misses) = sys.memo_stats();
        prop_assert_eq!(hits + misses, count);
    }
}
