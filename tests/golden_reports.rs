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
//! Two more runs pin the huge-page split: one where swap reclaim splits
//! huge pages, one where the utilization daemon does.
//!
//! Observation is pinned too (`golden/observation_digests.txt`): the full
//! telemetry event stream of two runs and the access trace of a third,
//! each recorded alongside an unobserved twin that must match it. An
//! observer that changed which pipeline runs would move these.
//!
//! The graphs every run starts from are pinned as well
//! (`golden/graph_digests.txt`): a digest of the generator's CSR arrays
//! for every dataset preset at two scales, two seeds, with and without
//! weights. A faster generator must reproduce them exactly.
//!
//! So is the page table (`golden/pagetable_digests.txt`): the walk paths,
//! call results and mapping counts a fixed script leaves, for three huge
//! orders. A new page-table layout must reproduce every PTE location.

use graphmem_core::{
    Experiment, GovernorConfig, MemoryCondition, PagePolicy, PageSizePlan, RunReport, RunSpec,
    Surplus,
};
use graphmem_graph::Dataset;
use graphmem_integration_tests::{assert_fixture_section, debug_digest, fnv1a, Fnv1a};
use graphmem_os::{System, SystemSpec, ThpMode, UtilizationPolicy};
use graphmem_telemetry::{EventMask, TraceConfig, Tracer};
use graphmem_vm::{PageSize, VirtAddr};
use graphmem_workloads::{default_root, AllocOrder, GraphArrays, Kernel};

const FIXTURE: &str = include_str!("golden/report_digests.txt");
const OBSERVATION: &str = include_str!("golden/observation_digests.txt");
const ORACLE: &str = include_str!("golden/oracle_digests.txt");
const GRAPHS: &str = include_str!("golden/graph_digests.txt");

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
        let actual: String = cells
            .iter()
            .map(|(plan, report)| format!("{plan} {}\n", fnv1a(report.to_json().as_bytes())))
            .collect();
        assert_fixture_section(FIXTURE, &kernel.to_string(), &actual);
    }
}

/// An oversubscribed THP run: 6% less free memory than the working set,
/// so reclaim splits huge pages before it can swap their base pages.
#[test]
fn swap_split_report_is_pinned() {
    let report = run(
        Kernel::Bfs,
        PageSizePlan::with_policy(PagePolicy::ThpSystemWide),
        MemoryCondition::pressured(Surplus::FractionOfWss(-0.06)),
    );
    assert!(
        report.os.demotions > 0 && report.os.swap_outs > 0,
        "the run must split huge pages for swap to be probative: {:?}",
        report.os
    );
    let line = format!("bfs-thp {}\n", fnv1a(report.to_json().as_bytes()));
    assert_fixture_section(FIXTURE, "swap-split", &line);
}

/// A THP program under the utilization daemon with `reclaim_untouched`:
/// odd regions are used in full, even ones only in their first quarter,
/// so kbloatd splits the even huge pages and frees their untouched base
/// pages. Pinned as a digest of the clock, perf and OS counters, the
/// free frames and the mapping report.
#[test]
fn kbloatd_split_run_is_pinned() {
    const REGIONS: u64 = 32;
    let mut spec = SystemSpec::scaled_with_order(64, 4);
    spec.thp.mode = ThpMode::Always;
    spec.thp.utilization_demotion = Some(UtilizationPolicy {
        threshold: 0.5,
        scan_interval_cycles: 1_000_000,
        reclaim_untouched: true,
    });
    let mut sys = System::new(spec);
    let huge = sys.geometry().bytes(PageSize::Huge);
    let pages = huge / 4096;
    let a = sys.mmap(REGIONS * huge, "sparse");
    let hot: Vec<VirtAddr> = (0..REGIONS)
        .flat_map(|r| {
            let used = if r % 2 == 0 { pages / 4 } else { pages };
            (0..used).map(move |p| a.add(r * huge + p * 4096))
        })
        .collect();
    for &va in &hot {
        sys.write(va);
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sys.read(hot[(x % hot.len() as u64) as usize]);
    }
    let os = *sys.os_stats();
    assert!(
        os.demotions > 0 && os.util_demotions > 0 && os.bloat_frames_reclaimed > 0,
        "kbloatd must split and reclaim to be probative: {os:?}"
    );
    let state = (
        sys.clock(),
        *sys.perf(),
        os,
        sys.zone(sys.local_node()).free_frames(),
        sys.mapping_report(a),
    );
    assert_fixture_section(
        FIXTURE,
        "kbloatd-split",
        &format!("sparse-thp {}\n", debug_digest(&state)),
    );
}

/// The generated graphs are pinned: FNV-1a over the little-endian bytes
/// of `offsets`, `edges` and (when weighted) `values`, for every preset ×
/// scale {8, 12} × seed offset {0, 1} × weighted {no, yes}.
#[test]
fn graph_digests_match_fixture() {
    let mut actual = String::new();
    for dataset in Dataset::ALL {
        for scale in [8, 12] {
            for seed_offset in [0, 1] {
                for weighted in [false, true] {
                    let g = dataset.generate_with_seed(scale, weighted, seed_offset);
                    let mut h = Fnv1a::default();
                    for &o in g.offsets() {
                        h.update(&o.to_le_bytes());
                    }
                    for &e in g.edges() {
                        h.update(&e.to_le_bytes());
                    }
                    for &w in g.values().unwrap_or_default() {
                        h.update(&w.to_le_bytes());
                    }
                    let kind = if weighted { "weighted" } else { "unweighted" };
                    actual.push_str(&format!(
                        "{dataset} {scale} {seed_offset} {kind} {} {}\n",
                        g.num_edges(),
                        h.hex()
                    ));
                }
            }
        }
    }
    assert_fixture_section(GRAPHS, "csr", &actual);
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

/// `graphmem run --dataset wiki --scale 11 --attribution
/// --sample-interval 100000 --series series.csv`: the metrics series CSV
/// and its `series.csv.memstate.csv` sidecar, written by an earlier build
/// and committed verbatim.
const SERIES_CSV: &str = include_str!("golden/series.csv");
const MEMSTATE_CSV: &str = include_str!("golden/series.memstate.csv");

#[test]
fn series_csv_bytes_match_fixtures() {
    let spec = RunSpec {
        dataset: Dataset::Wiki,
        scale: Some(11),
        sample_interval: Some(100_000),
        ..RunSpec::default()
    };
    let report = spec
        .to_experiment()
        .expect("valid spec")
        .attribution(true)
        .run();
    let series = report.series.expect("sampled run has a series");
    assert_eq!(series.to_csv(), SERIES_CSV);
    let memory = report
        .attribution
        .and_then(|a| a.memory)
        .expect("attributed run has a memory-state series");
    assert_eq!(memory.to_csv(), MEMSTATE_CSV);
}

/// Page-table state is pinned (`golden/pagetable_digests.txt`): for huge
/// orders {4, 6, 9}, a fixed script of base and huge maps, failing
/// calls, demote, remap, swap-out and swap-in, promote (whose table
/// frames go back to the zone), a second demote, unmaps and a re-map
/// runs on a fresh table. Each line records the table frames left, and
/// digests of every call's result, of `walk_path` steps with the walk
/// result over an address sweep, and of `count_mapped` per huge region
/// plus the full `for_each_mapped` listing.
#[test]
fn pagetable_digests_match_fixture() {
    let mut actual = String::new();
    for order in [4u8, 6, 9] {
        actual.push_str(&pagetable_script(order));
    }
    assert_fixture_section(PAGETABLES, "pagetable", &actual);
}

const PAGETABLES: &str = include_str!("golden/pagetable_digests.txt");

fn pagetable_script(order: u8) -> String {
    use graphmem_physmem::{MemConfig, Owner, Zone};
    use graphmem_vm::PageTable;
    use std::fmt::Write as _;

    let cfg = MemConfig::with_huge_order(order);
    let (hb, hf) = (cfg.huge_bytes(), cfg.huge_frames());
    let mut zone = Zone::new(0, (64 * hf).max(4096), cfg);
    let mut pt = PageTable::new(0, cfg);
    let mut ops = Fnv1a::default();
    let huge = |i: u64| VirtAddr(i * hb);
    let page = |base: VirtAddr, i: u64| base.add(i * 4096);
    // Far-apart regions that hang off other upper-level tables.
    let mid = VirtAddr(1 << 30);
    let far = VirtAddr(1 << 39);
    let kernel = |zone: &mut Zone| zone.alloc_frame(Owner::Kernel);

    // Base pages: all of region 0, every third page of region 1, and a
    // few pages far away.
    let mut bases: Vec<VirtAddr> = (0..hf).map(|i| page(huge(0), i)).collect();
    bases.extend((0..hf).step_by(3).map(|i| page(huge(1), i)));
    bases.extend([mid, page(mid, 7), far, page(far, 5)]);
    for va in bases {
        let f = zone.alloc_frame(Owner::user()).expect("data frame");
        let r = pt.map(va, PageSize::Base, f, 0, &mut || kernel(&mut zone));
        write!(ops, "{r:?}").unwrap();
    }
    // Huge pages.
    for va in [huge(2), huge(3), huge(6), far.add(4 * hb)] {
        let r = zone
            .alloc(cfg.huge_order, Owner::user())
            .expect("huge block");
        let res = pt.map(va, PageSize::Huge, r.base, 0, &mut || kernel(&mut zone));
        write!(ops, "{res:?}").unwrap();
    }
    // Calls that must fail, and what a map would need.
    write!(
        ops,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        pt.map(huge(2), PageSize::Base, 1, 0, &mut || None),
        pt.map(huge(0), PageSize::Huge, 1, 0, &mut || None),
        pt.map(huge(2).add(4096), PageSize::Huge, 1, 0, &mut || None),
        pt.unmap(page(huge(1), 1)),
        pt.remap(huge(2), 1, 0),
        pt.set_swapped(huge(3), 1),
        pt.promote(huge(1), 1, 0),
        pt.demote(huge(0), &mut || None),
        pt.restore_swapped(huge(0), 1, 0),
    )
    .unwrap();
    for (va, size) in [
        (huge(5), PageSize::Huge),
        (page(huge(5), 1), PageSize::Base),
        (page(huge(1), 1), PageSize::Base),
        (VirtAddr(1 << 35), PageSize::Base),
        (VirtAddr(1 << 44), PageSize::Huge),
    ] {
        write!(ops, "{}", pt.tables_needed(va, size)).unwrap();
    }
    // Demote region 3, then migrate, swap out and swap in some of it.
    let r = pt.demote(huge(3).add(5000), &mut || kernel(&mut zone));
    write!(ops, "{r:?}").unwrap();
    for i in [2, hf - 1] {
        let f = zone.alloc_frame(Owner::user()).expect("data frame");
        write!(ops, "{:?}", pt.remap(page(huge(3), i), f, 0)).unwrap();
    }
    write!(
        ops,
        "{:?}{:?}{:?}",
        pt.set_swapped(page(huge(3), 1), 11),
        pt.set_swapped(huge(1), 12),
        pt.set_swapped(page(far, 5), 13),
    )
    .unwrap();
    let f = zone.alloc_frame(Owner::user()).expect("data frame");
    write!(ops, "{:?}", pt.restore_swapped(page(huge(3), 1), f, 0)).unwrap();
    // Promote region 0; its leaf table's frames go back to the zone.
    let r = zone
        .alloc(cfg.huge_order, Owner::user())
        .expect("huge block");
    let (old, tables) = pt.promote(huge(0), r.base, 0).expect("region 0 is full");
    write!(ops, "{old:?}{tables:?}").unwrap();
    for l in old {
        zone.free_frame(l.frame);
    }
    for t in tables {
        zone.free_frame(t);
    }
    // A second demote, then unmaps and a huge re-map of a freed slot.
    let r = pt.demote(huge(6), &mut || kernel(&mut zone));
    write!(ops, "{r:?}").unwrap();
    write!(
        ops,
        "{:?}{:?}{:?}{:?}",
        pt.unmap(huge(2)),
        pt.unmap(page(huge(6), 3)),
        pt.unmap(mid),
        pt.unmap(far.add(4 * hb).add(4096)),
    )
    .unwrap();
    let r = zone
        .alloc(cfg.huge_order, Owner::user())
        .expect("huge block");
    let res = pt.map(huge(2), PageSize::Huge, r.base, 0, &mut || {
        kernel(&mut zone)
    });
    write!(ops, "{res:?}").unwrap();

    // Sweep every page of regions 0..8 and of the far-away regions.
    let mut walks = Fnv1a::default();
    let sweep = (0..8 * hf)
        .map(|i| page(huge(0), i))
        .chain((0..2 * hf).map(|i| page(mid, i)))
        .chain((0..6 * hf).map(|i| page(far, i)));
    for va in sweep {
        let (path, res) = pt.walk_path(va.add(123));
        assert_eq!(pt.walk(va), res, "walk and walk_path disagree at {va:?}");
        write!(walks, "{:?}{res:?}", &path[..]).unwrap();
    }
    let mut counts = Fnv1a::default();
    for base in [huge(0), mid, far] {
        for i in 0..8 {
            let lo = base.add(i * hb);
            write!(counts, "{:?}", pt.count_mapped(lo, lo.add(hb))).unwrap();
        }
    }
    pt.for_each_mapped(VirtAddr(0), VirtAddr(1 << 47), &mut |va, l| {
        write!(counts, "{va:?}{l:?}").unwrap();
    });
    format!(
        "{order} {} {} {} {}\n",
        pt.table_frames(),
        ops.hex(),
        walks.hex(),
        counts.hex()
    )
}
