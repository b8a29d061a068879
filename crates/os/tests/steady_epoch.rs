//! Steady-epoch replay against full simulation.
//!
//! Every test drives one system that may replay and a twin whose attached
//! `AccessTrace` forces every epoch through the simulator, through the
//! same calls, and requires the same clock, counters, OS statistics,
//! data-cache statistics, memo statistics and sampled series. The guard
//! tests then check that each condition that must force simulation does,
//! and that a deadline past an epoch's end does not.

use graphmem_os::{OsStats, SteadyEpoch, System, SystemSpec, ThpMode, UtilizationPolicy, VirtAddr};
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

/// The clock after each epoch of an undisturbed 4 KiB run of `steady`.
fn undisturbed_clocks() -> Vec<u64> {
    run(&rig(ThpMode::Never), false, &no_setup, &steady, &no_gap).2
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
    let end_of_epoch_3 = undisturbed_clocks()[3];
    let sample = |sys: &mut System| sys.enable_sampling(end_of_epoch_3);
    let (stats, end) = against_traced_twin(&rig(ThpMode::Never), &sample, &steady, &no_gap);
    assert_eq!(stats[3], (4, 0));
    let series = end.5.expect("sampling is on");
    assert_eq!(series.samples()[0].cycle, end_of_epoch_3);
}

/// An event inside the epoch that would record the fixed point leaves no
/// record: it cleared the translation cursor mid-epoch, so that epoch's
/// memo statistics are not the steady ones. The next epoch records.
#[test]
fn an_event_inside_an_epoch_is_never_recorded() {
    let clocks = undisturbed_clocks();
    let mid_epoch_2 = clocks[1] + (clocks[2] - clocks[1]) / 2;
    let sample = |sys: &mut System| sys.enable_sampling(mid_epoch_2);
    let (stats, end) = against_traced_twin(&rig(ThpMode::Never), &sample, &steady, &no_gap);
    assert_eq!(stats[2], (3, 0));
    assert_eq!(stats.last(), Some(&(4, EPOCHS as u64 - 4)));
    let first_sample = end.5.expect("sampling is on").samples()[0].cycle;
    assert!((mid_epoch_2..clocks[2]).contains(&first_sample));
}

/// A khugepaged pass with nothing to promote still charges its scan and
/// counts it, so the epoch it falls in simulates. The record's delta is a
/// function of the start state alone, and the pass leaves that state as
/// it found it, so the record survives and the next epoch, whose deadline
/// is a full interval away, replays.
#[test]
fn an_inert_khugepaged_pass_keeps_the_record() {
    // Epoch 2 is the first replay of a pass-free THP run.
    let (_, free, clocks) = run(&rig(ThpMode::Always), false, &no_setup, &steady, &no_gap);
    assert_eq!(free[2], (2, 1));
    let mut spec = rig(ThpMode::Always);
    spec.thp.khugepaged.scan_interval_cycles = clocks[1] + (clocks[2] - clocks[1]) / 2;
    let (stats, end) = against_traced_twin(&spec, &no_setup, &steady, &no_gap);
    assert_eq!(end.2.khugepaged_scans, 1);
    assert_eq!(end.2.promotions, 0);
    assert_eq!(stats[2], (3, 0));
    assert_eq!(stats.last(), Some(&(3, EPOCHS as u64 - 3)));
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
    let observers: [&dyn Fn(&mut System); 3] = [
        &|sys| sys.start_tracing(),
        &|sys| sys.attach_telemetry(Tracer::enabled(TraceConfig::default().mask(EventMask::ALL))),
        &|sys| sys.enable_attribution(true),
    ];
    for observe in observers {
        let (stats, _) = against_traced_twin(&rig(ThpMode::Never), observe, &steady, &no_gap);
        assert_eq!(stats.last(), Some(&(EPOCHS as u64, 0)));
    }
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
