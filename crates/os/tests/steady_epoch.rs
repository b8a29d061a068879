//! Steady-epoch replay against full simulation.
//!
//! Every test drives one system that may replay and a twin whose attached
//! `AccessTrace` forces every epoch through the simulator, through the
//! same calls, and requires the same clock, counters, OS statistics,
//! data-cache statistics and memo statistics. The guard tests then check
//! that each condition that must force simulation does.

use graphmem_os::{OsStats, SteadyEpoch, System, SystemSpec, ThpMode, VirtAddr};
use graphmem_telemetry::{EventMask, TraceConfig, Tracer};
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
        self.a.add((PAGES - 1) * STRIDE)
    }
}

/// The steady body: one load from `b`, then one per leaf directory of `a`.
/// Its first run faults every page in.
fn steady(sys: &mut System, at: Regions, _epoch: usize) {
    sys.read(at.b);
    sys.access_run(at.a, STRIDE, PAGES, false);
}

fn no_setup(_: &mut System) {}

fn no_gap(_: &mut System, _: Regions, _: usize) {}

type Outcome = (u64, PerfCounters, OsStats, [(u64, u64); 3], (u64, u64));

/// Boot a rig (THP `thp`, traced or not), apply `setup`, then run
/// `EPOCHS` epochs of `body` with one record, calling `gap` before each.
/// Returns the end state and the `(simulated, replayed)` counts after
/// each epoch.
fn run(
    thp: ThpMode,
    traced: bool,
    setup: &dyn Fn(&mut System),
    body: &dyn Fn(&mut System, Regions, usize),
    gap: &dyn Fn(&mut System, Regions, usize),
) -> (Outcome, Vec<(u64, u64)>) {
    let mut spec = SystemSpec::scaled_with_order(64, HUGE_ORDER);
    spec.thp.mode = thp;
    let mut sys = System::new(spec);
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
    for k in 0..EPOCHS {
        gap(&mut sys, at, k);
        sys.steady_epoch(&mut record, |sys| body(sys, at, k));
        stats.push(sys.steady_epoch_stats());
    }
    let outcome = (
        sys.clock(),
        *sys.perf(),
        *sys.os_stats(),
        sys.cache_stats(),
        sys.memo_stats(),
    );
    (outcome, stats)
}

/// Run the same calls on a system that may replay and on a traced twin;
/// assert they end identically and return the first system's per-epoch
/// `(simulated, replayed)` counts.
fn against_traced_twin(
    thp: ThpMode,
    setup: &dyn Fn(&mut System),
    body: &dyn Fn(&mut System, Regions, usize),
    gap: &dyn Fn(&mut System, Regions, usize),
) -> Vec<(u64, u64)> {
    let (plain, stats) = run(thp, false, setup, body, gap);
    let (twin, twin_stats) = run(thp, true, setup, body, gap);
    assert_eq!(plain, twin);
    assert_eq!(twin_stats.last(), Some(&(EPOCHS as u64, 0)));
    stats
}

#[test]
fn steady_epochs_replay_once_the_state_repeats() {
    let stats = against_traced_twin(ThpMode::Never, &no_setup, &steady, &no_gap);
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
    let stats = against_traced_twin(ThpMode::Never, &no_setup, &fresh_page_each_epoch, &no_gap);
    assert_eq!(stats.last(), Some(&(EPOCHS as u64, 0)));
}

#[test]
fn a_scheduled_event_forces_simulation() {
    // A sampler whose first epoch is never reached still schedules it.
    let sample = |sys: &mut System| sys.enable_sampling(1 << 50);
    let stats = against_traced_twin(ThpMode::Never, &sample, &steady, &no_gap);
    assert_eq!(stats.last(), Some(&(EPOCHS as u64, 0)));
    // System-wide THP schedules khugepaged.
    let stats = against_traced_twin(ThpMode::Always, &no_setup, &steady, &no_gap);
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
        let stats = against_traced_twin(ThpMode::Never, observe, &steady, &no_gap);
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
    let stats = against_traced_twin(ThpMode::Never, &no_setup, &steady, &unmap_b);
    // Epoch 3 replays; epoch 4 faults `b` back in, and epoch 5 starts
    // from a page table the record has not seen; both simulate.
    assert_eq!(stats[UNMAP_AT - 1], (3, 1));
    assert_eq!(stats[UNMAP_AT + 1], (5, 1));
}
