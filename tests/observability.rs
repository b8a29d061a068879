//! Observability invariants for the translation-attribution profiler.
//!
//! Three contracts are enforced here. **Non-perturbation**: attribution is
//! side-band observation, so a run with it enabled must be bit-identical
//! (after stripping the profile itself) to the same run without it, and
//! both reports match their pinned digests. **Fidelity**: on a pointer-indirect kernel whose
//! property array outgrows the STLB's reach, the profile must attribute
//! the majority of STLB misses and walk cycles to that array — the
//! paper's Fig. 4/5 observation. **Exactness**: the attribution report
//! and its histograms survive JSON round-trips byte-identically, and the
//! fragmentation index moves monotonically as the Fragmenter carves up
//! the zone.

use graphmem_core::{
    AttributionReport, Experiment, MemoryCondition, PagePolicy, RegionReport, RunReport,
};
use graphmem_graph::Dataset;
use graphmem_integration_tests::{assert_fixture_section, fnv1a};
use graphmem_os::{MemStateSample, MemStateSeries, RegionCounters, System, SystemSpec, VirtAddr};
use graphmem_physmem::Fragmenter;
use graphmem_telemetry::json::JsonValue;
use graphmem_telemetry::Histogram;
use graphmem_workloads::Kernel;
use proptest::prelude::*;

const ORACLE: &str = include_str!("golden/oracle_digests.txt");

fn tiny_scale(ds: Dataset) -> u8 {
    ds.default_scale() - 4
}

/// Attribution must never perturb the simulated machine: the report of an
/// attributed run, with the profile stripped, serializes byte-identically
/// to the unattributed run, and both reports match the pinned oracle
/// verdict.
#[test]
fn attribution_never_perturbs_the_run() {
    let mut actual = String::new();
    for kernel in [Kernel::Bfs, Kernel::Pagerank] {
        let exp = |attr: bool| {
            Experiment::builder(Dataset::Wiki, kernel)
                .scale(tiny_scale(Dataset::Wiki))
                .huge_order(4)
                .policy(PagePolicy::ThpSystemWide)
                .sample_interval(200_000)
                .build()
                .expect("valid config")
                .attribution(attr)
        };
        let plain: RunReport = exp(false).run();
        let mut profiled = exp(true).run();
        actual += &format!(
            "{kernel} {} {} {}\n",
            fnv1a(plain.to_json().as_bytes()),
            fnv1a(profiled.to_json().as_bytes()),
            exp(false).config_hash()
        );
        assert!(profiled.attribution.is_some(), "{kernel}: profile attached");
        profiled.attribution = None;
        assert_eq!(
            plain.to_json(),
            profiled.to_json(),
            "{kernel}: attribution perturbed the run"
        );
    }
    assert_fixture_section(ORACLE, "observe", &actual);
}

/// The paper's Fig. 4/5 claim, reproduced end-to-end: once the property
/// array outgrows the STLB's reach (Kron at scale 17 under 4 KiB pages),
/// the pointer-indirect BFS property array collects the *majority* of
/// both attributed STLB misses and attributed walk cycles, despite being
/// a small fraction of the footprint.
#[test]
fn property_array_dominates_translation_cost_at_scale() {
    let report = Experiment::builder(Dataset::Kron25, Kernel::Bfs)
        .scale(17)
        .policy(PagePolicy::BaseOnly)
        .skip_verification()
        .build()
        .expect("valid config")
        .attribution(true)
        .run();
    let attr = report.attribution.expect("profile attached");

    let prop = attr.region("property_array").expect("property array row");
    let footprint_share = prop.mapped_bytes as f64 / report.footprint_bytes as f64;
    assert!(
        footprint_share < 0.25,
        "property array is a minor footprint share, got {footprint_share:.3}"
    );
    let stlb = attr.stlb_miss_share("property_array");
    let walk = attr.walk_cycle_share("property_array");
    assert!(stlb > 0.5, "STLB-miss majority expected, got {stlb:.3}");
    assert!(walk > 0.5, "walk-cycle majority expected, got {walk:.3}");

    // The per-region counters cover the machine-wide aggregates: the
    // profile spans the whole run (init + compute), so its totals bound
    // the compute-phase counters in `report.perf` from above — nothing
    // the kernel touched escaped attribution.
    let attributed = attr.total_stlb_misses();
    assert!(
        attributed >= report.perf.stlb_misses,
        "attributed misses ({attributed}) must cover the compute phase ({})",
        report.perf.stlb_misses
    );
    let accesses: u64 = attr
        .regions
        .iter()
        .map(|r| r.counters.accesses_total())
        .sum();
    assert!(
        accesses >= report.perf.accesses,
        "attributed accesses ({accesses}) must cover the compute phase ({})",
        report.perf.accesses
    );
}

/// A fragmented run records a memory-state series whose first sample
/// already shows the Fragmenter's damage relative to a pristine run.
#[test]
fn fragmented_run_records_a_degraded_memstate_series() {
    let run = |cond: MemoryCondition| {
        Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .scale(tiny_scale(Dataset::Wiki))
            .policy(PagePolicy::ThpSystemWide)
            .sample_interval(200_000)
            .condition(cond)
            .build()
            .expect("valid config")
            .attribution(true)
            .run()
    };
    let pristine = run(MemoryCondition::unbounded());
    let fragged = run(MemoryCondition::fragmented(0.8));
    let series = |r: &RunReport| {
        r.attribution
            .as_ref()
            .and_then(|a| a.memory.clone())
            .expect("sampled run records a memstate series")
    };
    let (p, f) = (series(&pristine), series(&fragged));
    assert!(p.len() > 2, "series too short to be probative");
    assert_eq!(p.regions(), f.regions(), "same VMAs in both runs");
    let first = |s: &MemStateSeries| s.samples().first().cloned().expect("first sample");
    let (p0, f0) = (first(&p), first(&f));
    assert!(
        f0.unusable_index > p0.unusable_index,
        "fragmentation raises the unusable index ({} -> {})",
        p0.unusable_index,
        f0.unusable_index
    );
    assert!(
        f0.free_huge_blocks < p0.free_huge_blocks,
        "fragmentation consumes huge blocks ({} -> {})",
        p0.free_huge_blocks,
        f0.free_huge_blocks
    );
}

/// The memory-state series closes the way the metrics series does. When
/// the run's last access lands exactly on an epoch boundary, the closing
/// snapshot replaces that epoch's sample in both series, so neither ends
/// with a repeated cycle and the two list the same cycles.
#[test]
fn memstate_series_closes_on_the_metrics_series_cycles() {
    const READS: u64 = 1500;
    const REGION: u64 = 1 << 20;
    let build = || {
        let mut sys = System::new(SystemSpec::scaled_with_order(64, 4));
        sys.enable_attribution(true);
        let base = sys.mmap(REGION, "data");
        sys.populate(base, REGION);
        (sys, base)
    };
    let read_all = |sys: &mut System, base: VirtAddr| {
        for i in 0..READS {
            sys.read(base.add(i * 4160 % REGION));
        }
    };
    // An unsampled twin finds the clock the last read ends on; that clock
    // is the sampled run's interval, so its only epoch closes on the last
    // read.
    let (mut twin, base) = build();
    read_all(&mut twin, base);
    let (mut sys, base) = build();
    sys.enable_sampling(twin.clock());
    read_all(&mut sys, base);
    assert_eq!(sys.clock(), twin.clock(), "sampling perturbed the run");
    let metrics: Vec<u64> = sys
        .take_series()
        .expect("sampling is on")
        .samples()
        .iter()
        .map(|s| s.cycle)
        .collect();
    let memory: Vec<u64> = sys
        .take_memstate()
        .expect("attribution is on")
        .samples()
        .iter()
        .map(|s| s.cycle)
        .collect();
    assert_eq!(memory, metrics, "memory-state and metrics cycles differ");
    assert!(
        memory.windows(2).all(|w| w[0] < w[1]),
        "cycles must strictly increase: {memory:?}"
    );
}

/// Driving the Fragmenter directly at ever higher levels: free huge
/// blocks only fall, the unusable-free-space index only rises, and both
/// agree with the buddyinfo snapshot at every step.
#[test]
fn fragmenter_moves_the_index_monotonically() {
    let mut sys = System::new(SystemSpec::scaled_demo());
    let node = sys.local_node();
    let huge_order = sys.zone(node).config().huge_order as usize;
    let mut artifacts = Vec::new();
    let mut last = sys.memstate_sample();
    assert!(last.free_huge_blocks > 0, "pristine zone has huge blocks");
    for level in [0.2, 0.4, 0.6, 0.8, 0.95] {
        artifacts.push(Fragmenter::apply(sys.zone_mut(node), level));
        let cur = sys.memstate_sample();
        assert!(
            cur.free_huge_blocks <= last.free_huge_blocks,
            "huge blocks rose under fragmentation at level {level}"
        );
        assert!(
            cur.unusable_index >= last.unusable_index,
            "unusable index fell under fragmentation at level {level}"
        );
        assert_eq!(
            cur.buddy[huge_order], cur.free_huge_blocks,
            "buddyinfo top order disagrees with the huge-block gauge"
        );
        last = cur;
    }
    assert_eq!(last.free_huge_blocks, 0, "level 0.95 exhausts huge blocks");
    assert!(last.unusable_index > 0.9, "index saturates near 1");
}

fn arb_histogram() -> impl Strategy<Value = Histogram> {
    proptest::collection::vec(0u64..100_000, 0..32).prop_map(|vals| {
        let mut h = Histogram::new();
        for v in vals {
            h.record(v);
        }
        h
    })
}

fn arb_counters() -> impl Strategy<Value = RegionCounters> {
    (
        proptest::collection::vec(any::<u32>(), 12..13),
        any::<u16>(),
        any::<u32>(),
        arb_histogram(),
    )
        .prop_map(|(v, faults, fault_cycles, walk_latency)| {
            let pair = |i: usize| [u64::from(v[2 * i]), u64::from(v[2 * i + 1])];
            RegionCounters {
                accesses: pair(0),
                dtlb_misses: pair(1),
                stlb_hits: pair(2),
                stlb_misses: pair(3),
                walk_pte_reads: pair(4),
                translation_cycles: pair(5),
                faults: u64::from(faults),
                fault_cycles: u64::from(fault_cycles),
                walk_latency,
            }
        })
}

fn arb_report() -> impl Strategy<Value = AttributionReport> {
    let region = (0u32..1000, arb_counters(), any::<u32>(), any::<u32>()).prop_map(
        |(tag, counters, mapped, huge)| RegionReport {
            name: format!("region_{tag}"),
            counters,
            mapped_bytes: u64::from(mapped),
            huge_bytes: u64::from(huge),
        },
    );
    let sample = (
        any::<u32>(),
        proptest::collection::vec(0u64..1000, 0..6),
        proptest::collection::vec(0.0f64..1.0, 0..4),
    )
        .prop_map(|(cycle, buddy, coverage)| MemStateSample {
            cycle: u64::from(cycle),
            free_frames: buddy.iter().sum(),
            free_huge_blocks: buddy.last().copied().unwrap_or(0),
            unusable_index: 0.5,
            buddy,
            coverage,
        });
    let series = (0usize..4, proptest::collection::vec(sample, 0..4)).prop_map(
        |(region_count, mut samples)| {
            let mut s = MemStateSeries::default();
            let names: Vec<String> = (0..region_count).map(|i| format!("vma_{i}")).collect();
            s.note_regions(&names);
            samples.sort_by_key(|sm| sm.cycle); // pushes must be in time order
            for sm in samples {
                s.push(sm);
            }
            s
        },
    );
    (
        proptest::collection::vec(region, 0..5),
        any::<bool>(),
        series,
    )
        .prop_map(|(regions, with_memory, memory)| AttributionReport {
            regions,
            memory: with_memory.then_some(memory),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any attribution report — arbitrary counters, histograms, and
    /// memory-state series — survives a JSON round-trip byte-identically.
    #[test]
    fn attribution_json_round_trips_byte_identically(report in arb_report()) {
        let text = report.to_json();
        let parsed = JsonValue::parse(&text).expect("serializer emits valid JSON");
        let back = AttributionReport::from_json_value(&parsed).expect("round-trip parses");
        prop_assert_eq!(&back, &report);
        prop_assert_eq!(back.to_json(), text);
    }

    /// Histograms round-trip through JSON exactly, and the quantile bound
    /// never undershoots the recorded values it summarizes.
    #[test]
    fn histogram_json_round_trips(h in arb_histogram()) {
        let text = h.to_json();
        let parsed = JsonValue::parse(&text).expect("valid JSON");
        let back = Histogram::from_json_value(&parsed).expect("parses");
        prop_assert_eq!(&back, &h);
        prop_assert_eq!(back.to_json(), text);
        if let Some(p100) = h.quantile_bound(1.0) {
            prop_assert!(h.quantile_bound(0.5).expect("median exists") <= p100);
        }
    }
}
