//! Steady-epoch replay against full simulation.
//!
//! Every test drives one system that may replay and a twin whose attached
//! `AccessTrace` forces every epoch through the simulator, through the
//! same calls, and requires the same clock, counters, OS statistics,
//! data-cache statistics, memo statistics, sampled series, governor
//! series and attribution counters. The guard tests then check that each
//! condition that must force simulation does, and that a deadline past
//! an epoch's end, or an inert daemon pass inside it, does not.

use std::cell::RefCell;

use graphmem_os::{
    GovernorConfig, GovernorEpochSample, OsStats, RegionCounters, SteadyEpoch, System, SystemSpec,
    ThpMode, UtilizationPolicy, VirtAddr,
};
use graphmem_physmem::Fragmenter;
use graphmem_telemetry::{EventMask, MetricsSeries, TraceConfig, Tracer};
use graphmem_vm::PerfCounters;

/// Huge order of the rig: 64 KiB huge pages, so one leaf directory (one
/// level-2 page-walk-cache entry) covers 64 KiB.
const HUGE_ORDER: u8 = 4;
/// Pages the body touches in region `a`, one per leaf directory: more than
/// the 32 level-2 page-walk-cache entries and than the 8 ways of the STLB
/// set they all share, so `b`'s translation is evicted everywhere by the
/// time an epoch ends.
const PAGES: u64 = 40;
const STRIDE: u64 = 64 << 10;
/// Loads per page of `a`, one 8-byte word apart: a probe, then cursor hits.
const LOADS: u64 = 4;
const EPOCHS: usize = 6;

/// The rig's regions: `a` and `b` for the steady body, `c` for fresh pages.
#[derive(Clone, Copy)]
struct Regions {
    a: VirtAddr,
    b: VirtAddr,
    c: VirtAddr,
}

impl Regions {
    /// The body's last address: re-reading it leaves every TLB, cache and
    /// the translation cursor exactly as the body left them.
    fn last(&self) -> VirtAddr {
        self.a.add((PAGES - 1) * STRIDE + (LOADS - 1) * 8)
    }
}

/// The steady body: one load from `b`, then `LOADS` from the first line of
/// each leaf directory of `a`. Its first run faults every page in. An
/// event between two loads of one page clears the translation cursor, so
/// the next load probes instead of riding it and the epoch's memo
/// statistics differ from an undisturbed one's.
fn steady(sys: &mut System, at: Regions, _epoch: usize) {
    sys.read(at.b);
    for page in 0..PAGES {
        sys.access_run(at.a.add(page * STRIDE), 8, LOADS, false);
    }
}

fn no_setup(_: &mut System) {}

fn no_gap(_: &mut System, _: Regions, _: usize) {}

type Outcome = (
    u64,
    PerfCounters,
    OsStats,
    [(u64, u64); 3],
    (u64, u64),
    Option<MetricsSeries>,
    Option<Vec<GovernorEpochSample>>,
    Option<Vec<RegionCounters>>,
);

/// The rig's machine: 64 MiB at huge order `HUGE_ORDER`, THP `thp`.
fn rig(thp: ThpMode) -> SystemSpec {
    let mut spec = SystemSpec::scaled_with_order(64, HUGE_ORDER);
    spec.thp.mode = thp;
    spec
}

/// Boot `spec` (traced or not), apply `setup`, then run `EPOCHS` epochs
/// of `body` with one record, calling `gap` before each. Returns the end
/// state and, after each epoch, the `(simulated, replayed)` counts and
/// the clock.
fn run(
    spec: &SystemSpec,
    traced: bool,
    setup: &dyn Fn(&mut System),
    body: &dyn Fn(&mut System, Regions, usize),
    gap: &dyn Fn(&mut System, Regions, usize),
) -> (Outcome, Vec<(u64, u64)>, Vec<u64>) {
    let mut sys = System::new(spec.clone());
    let at = Regions {
        b: sys.mmap(4096, "b"),
        a: sys.mmap(PAGES * STRIDE, "a"),
        c: sys.mmap(EPOCHS as u64 * 4096, "c"),
    };
    if traced {
        sys.start_tracing();
    }
    setup(&mut sys);
    let mut record = SteadyEpoch::default();
    let mut stats = Vec::new();
    let mut clocks = Vec::new();
    for k in 0..EPOCHS {
        gap(&mut sys, at, k);
        sys.steady_epoch(&mut record, |sys| body(sys, at, k));
        stats.push(sys.steady_epoch_stats());
        clocks.push(sys.clock());
    }
    let outcome = (
        sys.clock(),
        *sys.perf(),
        *sys.os_stats(),
        sys.cache_stats(),
        sys.memo_stats(),
        sys.take_series(),
        sys.governor_series().map(<[_]>::to_vec),
        sys.attribution_regions().map(<[_]>::to_vec),
    );
    (outcome, stats, clocks)
}

/// Run the same calls on a system that may replay and on a traced twin;
/// assert they end identically and return the first system's per-epoch
/// `(simulated, replayed)` counts and its end state.
fn against_traced_twin(
    spec: &SystemSpec,
    setup: &dyn Fn(&mut System),
    body: &dyn Fn(&mut System, Regions, usize),
    gap: &dyn Fn(&mut System, Regions, usize),
) -> (Vec<(u64, u64)>, Outcome) {
    let (plain, stats, _) = run(spec, false, setup, body, gap);
    let (twin, twin_stats, _) = run(spec, true, setup, body, gap);
    assert_eq!(plain, twin);
    assert_eq!(twin_stats.last(), Some(&(EPOCHS as u64, 0)));
    (stats, plain)
}

/// The clock after each epoch of an undisturbed run of `steady` under
/// `thp`.
fn undisturbed_clocks(thp: ThpMode) -> Vec<u64> {
    run(&rig(thp), false, &no_setup, &steady, &no_gap).2
}

#[test]
fn steady_epochs_replay_once_the_state_repeats() {
    let (stats, _) = against_traced_twin(&rig(ThpMode::Never), &no_setup, &steady, &no_gap);
    // Epoch 0 faults everything in and epoch 1 settles the caches' recency
    // order; epoch 2 starts from the steady state and confirms it ends
    // there; the rest replay.
    assert_eq!(stats.last(), Some(&(3, EPOCHS as u64 - 3)));
}

#[test]
fn an_epoch_that_faults_is_never_reused() {
    let fresh_page_each_epoch = |sys: &mut System, at: Regions, k: usize| {
        steady(sys, at, k);
        sys.read(at.c.add(k as u64 * 4096));
    };
    let (stats, _) = against_traced_twin(
        &rig(ThpMode::Never),
        &no_setup,
        &fresh_page_each_epoch,
        &no_gap,
    );
    assert_eq!(stats.last(), Some(&(EPOCHS as u64, 0)));
}

#[test]
fn a_deadline_past_the_epochs_end_replays() {
    // A sampler whose first epoch is never reached.
    let sample = |sys: &mut System| sys.enable_sampling(1 << 50);
    let (stats, _) = against_traced_twin(&rig(ThpMode::Never), &sample, &steady, &no_gap);
    assert_eq!(stats.last(), Some(&(3, EPOCHS as u64 - 3)));
    // System-wide THP schedules khugepaged every 20 M cycles, long after
    // the rig's last epoch. Huge pages settle the TLBs an epoch sooner.
    let (stats, end) = against_traced_twin(&rig(ThpMode::Always), &no_setup, &steady, &no_gap);
    assert_eq!(stats.last(), Some(&(2, EPOCHS as u64 - 2)));
    assert_eq!(end.2.khugepaged_scans, 0);
}

/// An event fires at the first access whose clock reaches the horizon, so
/// an epoch that would end exactly on a deadline runs the event on its
/// last access and must be simulated.
#[test]
fn a_deadline_at_the_epochs_end_forces_simulation() {
    // Undisturbed, epoch 3 is the first replay.
    let end_of_epoch_3 = undisturbed_clocks(ThpMode::Never)[3];
    let sample = |sys: &mut System| sys.enable_sampling(end_of_epoch_3);
    let (stats, end) = against_traced_twin(&rig(ThpMode::Never), &sample, &steady, &no_gap);
    assert_eq!(stats[3], (4, 0));
    let series = end.5.expect("sampling is on");
    assert_eq!(series.samples()[0].cycle, end_of_epoch_3);
}

/// A sample inside the epoch that records the fixed point does not stop
/// the recording: the sampler reads the counters at the access it falls
/// after, which the record leaves alone. A replay cannot take that
/// reading, so every later epoch a sample falls in simulates, and only
/// those.
#[test]
fn a_sample_inside_an_epoch_simulates_only_that_epoch() {
    // Every one and a half epochs, so some later epochs hold a sample and
    // some do not.
    let undisturbed = undisturbed_clocks(ThpMode::Never);
    let interval = (undisturbed[2] - undisturbed[1]) * 3 / 2;
    let sample = |sys: &mut System| sys.enable_sampling(interval);
    let spec = rig(ThpMode::Never);
    let (plain, stats, clocks) = run(&spec, false, &sample, &steady, &no_gap);
    let (twin, _, _) = run(&spec, true, &sample, &steady, &no_gap);
    assert_eq!(plain, twin);
    let series = plain.5.expect("sampling is on");
    let samples = &series.samples()[..series.len() - 1]; // not the closing one
    let sampled = |k: usize| {
        samples
            .iter()
            .any(|s| (clocks[k - 1] + 1..=clocks[k]).contains(&s.cycle))
    };
    assert!(sampled(2));
    assert_eq!(stats[2], (3, 0));
    let later: Vec<bool> = (3..EPOCHS).map(sampled).collect();
    assert!(later.contains(&true) && later.contains(&false), "{later:?}");
    for k in 3..EPOCHS {
        assert_eq!(stats[k].0 > stats[k - 1].0, sampled(k), "epoch {k}");
    }
}

/// A khugepaged pass with nothing to promote still charges its scan and
/// counts it. It changes no TLB, cache or page-table state, so the epoch
/// it falls in replays: the record's delta leaves the pass out, and the
/// replay runs the pass at the access it falls after.
#[test]
fn an_inert_khugepaged_pass_keeps_the_record() {
    // Epoch 2 is the first replay of a pass-free THP run.
    let (_, free, clocks) = run(&rig(ThpMode::Always), false, &no_setup, &steady, &no_gap);
    assert_eq!(free[2], (2, 1));
    let mut spec = rig(ThpMode::Always);
    spec.thp.khugepaged.scan_interval_cycles = clocks[2] + (clocks[3] - clocks[2]) / 2;
    let (stats, end) = against_traced_twin(&spec, &no_setup, &steady, &no_gap);
    assert_eq!(end.2.khugepaged_scans, 1);
    assert_eq!(end.2.promotions, 0);
    assert_eq!(stats[3], (2, 2), "epoch 3, with the pass inside, replayed");
    assert_eq!(stats.last(), Some(&(2, EPOCHS as u64 - 2)));
}

/// A pass the walk puts on the epoch's last access leaves the cursor
/// empty, as the simulated pass would: the next epoch starts from a state
/// the record has not seen and simulates, and so does the one after,
/// which starts from the record's state again only once.
#[test]
fn a_pass_on_an_epochs_last_access_leaves_the_cursor_empty() {
    let end_of_epoch_3 = undisturbed_clocks(ThpMode::Always)[3];
    let mut spec = rig(ThpMode::Always);
    spec.thp.khugepaged.scan_interval_cycles = end_of_epoch_3;
    let (stats, end) = against_traced_twin(&spec, &no_setup, &steady, &no_gap);
    assert_eq!(end.2.khugepaged_scans, 1);
    assert_eq!(stats[3], (2, 2), "the pass fell on epoch 3's last access");
    assert_eq!(stats[4], (3, 2));
    assert_eq!(stats[5], (4, 2));
}

/// Map `a` with base pages before epoch 0 (Madvise mode, nothing
/// advised yet).
fn populate_a(sys: &mut System) {
    let a = sys
        .address_space()
        .iter()
        .nth(1)
        .expect("a is mapped")
        .1
        .start();
    sys.populate(a, PAGES * STRIDE);
}

/// A pass that would promote cannot be replayed: the walk meets it, undoes
/// the passes before it, and the epoch simulates, promotion and all.
#[test]
fn a_pass_that_would_promote_forces_simulation() {
    // `a`, advised between epochs 2 and 3, becomes khugepaged's candidate.
    let mut spec = rig(ThpMode::Madvise);
    let (_, _, clocks) = run(&spec, false, &populate_a, &steady, &no_gap);
    spec.thp.khugepaged.scan_interval_cycles = clocks[2] + (clocks[3] - clocks[2]) / 2;
    let advise_a = |sys: &mut System, at: Regions, k: usize| {
        if k == 3 {
            sys.madvise_hugepage(at.a, PAGES * STRIDE);
        }
    };
    let (stats, end) = against_traced_twin(&spec, &populate_a, &steady, &advise_a);
    assert_eq!(end.2.khugepaged_scans, 1);
    assert!(end.2.promotions > 0);
    assert_eq!(stats[2], (2, 1));
    assert_eq!(stats[3], (3, 1), "epoch 3's pass promotes");
}

/// A candidate the pass cannot get a huge frame for fails before any
/// memory moves when the buddy has no free huge block and compaction is
/// off, or finds no block to vacate (the zone is fragmented before `a`
/// is populated, so every block holding a user frame also holds a kernel
/// one): the pass changes counters only, so it is inert and the epochs
/// it falls in replay.
#[test]
fn a_pass_denied_a_huge_frame_is_inert() {
    for defrag in [false, true] {
        let mut spec = rig(ThpMode::Madvise);
        spec.thp.fault_defrag = defrag;
        let (_, _, clocks) = run(&spec, false, &populate_a, &steady, &no_gap);
        // A pass every epoch and a half, so most epochs hold one.
        spec.thp.khugepaged.scan_interval_cycles = (clocks[2] - clocks[1]) * 3 / 2;
        let fragmented_then_advised = |sys: &mut System| {
            let node = sys.local_node();
            let _pins = Fragmenter::apply(sys.zone_mut(node), 1.0);
            assert_eq!(sys.zone(node).free_huge_blocks(), 0);
            populate_a(sys);
            let a = sys
                .address_space()
                .iter()
                .nth(1)
                .expect("a is mapped")
                .1
                .start();
            sys.madvise_hugepage(a, PAGES * STRIDE);
        };
        // Passes so far, before each epoch of the first (plain) run.
        let scans = RefCell::new(Vec::new());
        let count_scans = |sys: &mut System, _: Regions, _: usize| {
            scans.borrow_mut().push(sys.os_stats().khugepaged_scans);
        };
        let (stats, end) =
            against_traced_twin(&spec, &fragmented_then_advised, &steady, &count_scans);
        assert_eq!(end.2.promotions, 0, "defrag {defrag}");
        assert_eq!(end.2.frames_migrated, 0, "defrag {defrag}");
        assert_eq!(end.2.direct_compactions > 0, defrag);
        let mut scans = scans.into_inner();
        scans.truncate(EPOCHS);
        scans.push(end.2.khugepaged_scans);
        let replayed_with_a_pass = (1..EPOCHS)
            .filter(|&k| stats[k].1 > stats[k - 1].1 && scans[k + 1] > scans[k])
            .count();
        assert!(
            replayed_with_a_pass >= 2,
            "defrag {defrag}: {stats:?} {scans:?}"
        );
    }
}

/// A governor epoch falls inside every epoch of the body. Once the
/// governor has advised the regions it finds hot, its epochs are inert
/// and replay: each charges its scan, takes its baseline from the region
/// counters the log predicts at its access, and appends its sample,
/// exactly as the traced twin's simulated epochs do.
#[test]
fn inert_governor_epochs_inside_an_epoch_replay() {
    let undisturbed = undisturbed_clocks(ThpMode::Always);
    let governor = |sys: &mut System| {
        sys.enable_governor(GovernorConfig {
            epoch_cycles: undisturbed[2] - undisturbed[1],
            promote_cost: 0.5,
            demote_cost: 0.1,
            max_actions: 4,
        });
    };
    let spec = rig(ThpMode::Always);
    let (plain, stats, clocks) = run(&spec, false, &governor, &steady, &no_gap);
    let (twin, _, _) = run(&spec, true, &governor, &steady, &no_gap);
    assert_eq!(plain, twin);
    assert_eq!(stats.last(), Some(&(2, EPOCHS as u64 - 2)));
    let series = plain.6.expect("the governor is on");
    for k in 2..EPOCHS {
        let inside = series
            .iter()
            .filter(|s| (clocks[k - 1] + 1..=clocks[k]).contains(&s.cycle))
            .count();
        assert!(inside > 0, "no governor epoch inside epoch {k}");
    }
    let regions = plain.7.expect("the governor turns attribution on");
    let accesses: u64 = regions.iter().map(RegionCounters::accesses_total).sum();
    assert_eq!(accesses, plain.1.accesses);
}

/// kbloatd's accessed bitmaps are set per access, which a replay skips:
/// utilization tracking observes the stream even before its first scan.
#[test]
fn utilization_tracking_forces_simulation() {
    let mut spec = rig(ThpMode::Always);
    spec.thp.utilization_demotion = Some(UtilizationPolicy {
        threshold: 0.5,
        scan_interval_cycles: 1 << 50,
        reclaim_untouched: false,
    });
    let (stats, _) = against_traced_twin(&spec, &no_setup, &steady, &no_gap);
    assert_eq!(stats.last(), Some(&(EPOCHS as u64, 0)));
}

#[test]
fn an_observer_forces_simulation() {
    let observers: [&dyn Fn(&mut System); 2] = [&|sys| sys.start_tracing(), &|sys| {
        sys.attach_telemetry(Tracer::enabled(TraceConfig::default().mask(EventMask::ALL)))
    }];
    for observe in observers {
        let (stats, _) = against_traced_twin(&rig(ThpMode::Never), observe, &steady, &no_gap);
        assert_eq!(stats.last(), Some(&(EPOCHS as u64, 0)));
    }
}

/// Attribution is not an observer: the record holds each region's
/// counters, and a replay adds them.
#[test]
fn attribution_replays_with_its_region_counters() {
    let attribute = |sys: &mut System| sys.enable_attribution(true);
    let (stats, end) = against_traced_twin(&rig(ThpMode::Never), &attribute, &steady, &no_gap);
    assert_eq!(stats.last(), Some(&(3, EPOCHS as u64 - 3)));
    let regions = end.7.expect("attribution is on");
    let accesses: u64 = regions.iter().map(RegionCounters::accesses_total).sum();
    assert_eq!(accesses, end.1.accesses);
}

/// Unmapping `b` between epochs changes nothing the way snapshot or the
/// translation cursor holds: `b`'s translation is long evicted, and
/// re-reading the body's last address restores the cursor. Only the page
/// table's generation tells the next epoch that its load from `b` now
/// faults.
#[test]
fn a_page_table_change_between_epochs_forces_simulation() {
    const UNMAP_AT: usize = 4;
    let unmap_b = |sys: &mut System, at: Regions, k: usize| {
        if k == UNMAP_AT {
            sys.release_region(at.b);
        }
        if k > 0 {
            sys.read(at.last());
        }
    };
    let (stats, _) = against_traced_twin(&rig(ThpMode::Never), &no_setup, &steady, &unmap_b);
    // Epoch 3 replays; epoch 4 faults `b` back in, and epoch 5 starts
    // from a page table the record has not seen; both simulate.
    assert_eq!(stats[UNMAP_AT - 1], (3, 1));
    assert_eq!(stats[UNMAP_AT + 1], (5, 1));
}
