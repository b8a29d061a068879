//! Steady-epoch replay: skip simulating an epoch whose outcome is already
//! known (see [`SteadyEpoch`]).

use graphmem_vm::{
    PerfCounters, RegionCounters, TranslationMemo, VirtAddr, WalkResult, WaySnapshot,
};

use crate::costlog::CostLog;
use crate::governor::Signal;
use crate::stats::OsStats;
use crate::system::System;

/// The record [`System::steady_epoch`] keeps between the epochs of one
/// loop: the state the last simulated epoch started from and, when an
/// epoch from that state proved reusable, what its accesses added. Start
/// each loop with [`SteadyEpoch::default`]; one record serves one
/// repeating body.
///
/// An iterative all-edge kernel (PageRank's push phase plus its
/// convergence sweep) issues the same access stream every iteration. Once
/// an iteration starts from the very TLB, page-walk-cache, data-cache and
/// translation-cursor state the previous one started from, its accesses
/// must add the same counters and end in the same state, so simulating
/// it again only recomputes numbers the simulator already has. An epoch
/// is replayed only when all of these hold:
///
/// - nothing observes it: no [`AccessTrace`], telemetry tracer or
///   utilization tracking is attached (attribution is replayed: the
///   record holds each region's counters);
/// - the record holds a delta and the epoch about to run starts from the
///   recorded state: every TLB, PWC and data-cache way ([`WaySnapshot`]),
///   the translation cursor, and the page table's
///   [generation](graphmem_vm::PageTable::generation);
/// - either it ends before the next scheduled event
///   (`clock + delta < horizon`; an event fires at the first access whose
///   clock reaches the horizon, so an epoch ending exactly on it would
///   have run the event), or every daemon pass that falls inside it would
///   be *inert*: a khugepaged pass whose every scan window fails the pure
///   promotion check, or a governor epoch whose hot regions are all
///   advised already and hold no promotable chunk. kbloatd and the
///   sampler, which read what a replay skips, still force simulation.
///
/// A delta is recorded only from a simulated, unobserved epoch that
/// neither faulted nor let a daemon pass act, changed no [`OsStats`] but
/// `khugepaged_scans` and `kernel_cycles`, and ended in exactly the state
/// it started from. That makes it a fixed point: from its start state,
/// the body's access stream returns the machine to that state, so a
/// replay ends exactly where a simulation would have. Access costs never
/// read the clock and inert passes change no TLB, cache or page-table
/// state, so the delta, which leaves the passes' own charges out, is a
/// function of the start state alone: an epoch that starts from the
/// recorded state but must simulate (a pass inside it would act) keeps
/// the record for the epochs after it.
///
/// An epoch simulated while the next deadline lies within two epochs as
/// long as the loop's last simulated one, and no record has a log yet,
/// also logs each access's cost, run-length coded, plus one bit per
/// access for
/// whether it hit the translation cursor or would have, and, with
/// attribution on, each cursor miss's region and translation cycles. A
/// replay with deadlines inside walks that log with the access path's
/// own compare, runs each due pass at the exact access it falls after
/// (on the region counters the log predicts there), and only then adds
/// the delta. A PageRank iteration on kron at scale 16 (3.58 M accesses)
/// logs about 1.8 MiB.
///
/// [`AccessTrace`]: graphmem_vm::AccessTrace
#[derive(Debug, Default)]
pub struct SteadyEpoch {
    ways: WaySnapshot,
    memo: Option<TranslationMemo>,
    pt_generation: u64,
    /// Access cycles of the loop's last simulated epoch: whether the next
    /// epoch will hold a deadline is judged from it.
    last_cycles: Option<u64>,
    /// What the recorded epoch's accesses added, when it may be replayed.
    delta: Option<EpochDelta>,
}

/// Everything a simulated epoch's accesses added that a replay must add
/// too. Daemon passes inside the epoch are not part of it: a replay runs
/// its own.
#[derive(Debug)]
struct EpochDelta {
    /// Cycles the accesses took, without any daemon's charges.
    clock: u64,
    perf: PerfCounters,
    cache: [(u64, u64); 3],
    /// Translation-cursor `(hits, misses)` had no pass cleared it.
    memo: (u64, u64),
    /// Each region's attribution counters, by region id, when attribution
    /// was on.
    regions: Option<Vec<RegionCounters>>,
    /// The access-by-access log, when the epoch was logged.
    log: Option<CostLog>,
}

/// Counter readings at one end of a simulated epoch.
struct Readings {
    clock: u64,
    events_run: u64,
    passes_acted: u64,
    perf: PerfCounters,
    os: OsStats,
    cache: [(u64, u64); 3],
    memo: (u64, u64),
    regions: Option<Vec<RegionCounters>>,
}

/// What due events may change in a replay, so a walk that meets a pass
/// that would act can undo the inert ones before it.
struct DaemonState {
    clock: u64,
    stats: OsStats,
    khugepaged: (u64, (usize, u64)),
    governor: Option<(u64, Vec<Signal>, usize)>,
    events_run: u64,
    next_event_cycle: u64,
    memo: Option<TranslationMemo>,
}

impl DaemonState {
    fn save(sys: &System) -> Self {
        DaemonState {
            clock: sys.clock,
            stats: sys.stats,
            khugepaged: (sys.kh.next_run, sys.kh.cursor),
            governor: sys
                .gov
                .as_ref()
                .map(|g| (g.next_run, g.baseline.clone(), g.series.len())),
            events_run: sys.events_run,
            next_event_cycle: sys.next_event_cycle,
            memo: sys.run_memo,
        }
    }

    fn restore(self, sys: &mut System) {
        sys.clock = self.clock;
        sys.stats = self.stats;
        (sys.kh.next_run, sys.kh.cursor) = self.khugepaged;
        if let (Some(g), Some((next_run, baseline, len))) = (&mut sys.gov, self.governor) {
            g.next_run = next_run;
            g.baseline = baseline;
            g.series.truncate(len);
        }
        sys.events_run = self.events_run;
        sys.next_event_cycle = self.next_event_cycle;
        sys.set_run_memo(self.memo);
    }
}

impl SteadyEpoch {
    /// Whether `sys` stands exactly where the recorded epoch started.
    fn starts_at(&self, sys: &System) -> bool {
        sys.run_memo == self.memo
            && sys.pt.generation() == self.pt_generation
            && sys.mmu.ways_match(&self.ways)
    }
}

impl System {
    /// Run one epoch of a loop whose every epoch issues the same access
    /// stream, replaying it from `record` instead of simulating it when
    /// the record proves the outcome and every daemon pass inside the
    /// epoch would be inert (see [`SteadyEpoch`] for the guard). Returns
    /// what `body` returns.
    ///
    /// A replayed epoch runs `body` host-side only: [`System::read`],
    /// [`System::write`], [`System::access_run`], [`System::access_gather`]
    /// and [`System::access_gather_rmw`] return at once, and the recorded
    /// clock, [`PerfCounters`], data-cache, attribution and
    /// [`System::memo_stats`] deltas are added afterwards, with the
    /// charges and bookkeeping of the passes that fell inside. `body` must
    /// therefore issue the same accesses every epoch, read no simulated
    /// state, and make no other call into the system (syscalls,
    /// `populate`): a replay panics if the access count differs from the
    /// recorded one.
    ///
    /// Replays never change simulated results; [`System::steady_epoch_stats`]
    /// counts them host-side.
    pub fn steady_epoch<R>(
        &mut self,
        record: &mut SteadyEpoch,
        body: impl FnOnce(&mut System) -> R,
    ) -> R {
        debug_assert!(!self.divert, "a steady epoch inside another");
        if self.observed() {
            self.steady_epochs.0 += 1;
            return body(self);
        }
        if record.starts_at(self) {
            if let Some(delta) = &record.delta {
                if let Some(memo) = self.try_replay(delta, record.memo) {
                    return self.replay(delta, memo, body);
                }
            }
        } else {
            // A new start state: record it; no delta is known for it yet.
            self.mmu.snapshot_ways(&mut record.ways);
            record.memo = self.run_memo;
            record.pt_generation = self.pt.generation();
            record.delta = None;
        }
        // Log the epoch if the next deadline falls within two epochs as
        // long as the last one (this one, or the first that may replay
        // it) and the record has no log yet. A replay needs the log only
        // to place deadlines, so runs whose deadlines stay clear of their
        // epochs (or that have none, like 4 KiB runs) never pay for it.
        let deadline_near = record.last_cycles.is_some_and(|cycles| {
            self.clock < self.next_event_cycle && self.clock + 2 * cycles >= self.next_event_cycle
        });
        let logging = deadline_near && record.delta.as_ref().is_none_or(|d| d.log.is_none());
        if logging {
            self.cost_log = Some(Box::new(CostLog::new(
                self.mmu.config().cost.l1_hit,
                self.attribution_on,
                self.attr_region_cache.map_or(0, |(_, _, id)| id),
                (self.memo_lo, self.memo_span),
            )));
            self.divert = true;
        }
        let start = self.readings();
        let out = body(self);
        self.divert = false;
        let log = self.cost_log.take().map(|log| log.finish());
        self.steady_epochs.0 += 1;
        let end = self.readings();
        record.last_cycles =
            Some(end.clock - start.clock - (end.os.kernel_cycles - start.os.kernel_cycles));
        // A logged fixed point replaces a record without a log; a record
        // stays valid for its start state until that changes.
        if record.delta.is_none() || logging {
            if let Some(delta) = self.fixed_point(&start, end, log, record) {
                record.delta = Some(delta);
            }
        }
        out
    }

    /// `(simulated, replayed)`: how many [`System::steady_epoch`] epochs
    /// ran through the simulator and how many were replayed from a record.
    /// Host-side observability only, like [`System::memo_stats`].
    pub fn steady_epoch_stats(&self) -> (u64, u64) {
        self.steady_epochs
    }

    /// Whether anything observes the access stream: an access trace,
    /// telemetry or utilization tracking (kbloatd's accessed bitmaps),
    /// each of which a replay would skip.
    fn observed(&self) -> bool {
        self.tracer.is_some() || self.telemetry_on || self.mmu.tracks_utilization()
    }

    fn readings(&self) -> Readings {
        Readings {
            clock: self.clock,
            events_run: self.events_run,
            passes_acted: self.passes_acted,
            perf: *self.mmu.counters(),
            os: self.stats,
            cache: self.mmu.cache_stats(),
            memo: (self.memo_hits, self.memo_misses),
            regions: self.mmu.attribution_regions().map(<[_]>::to_vec),
        }
    }

    /// The delta of the simulated epoch from `start` to `end`, if it may
    /// be replayed (see [`SteadyEpoch`]).
    fn fixed_point(
        &self,
        start: &Readings,
        end: Readings,
        log: Option<CostLog>,
        record: &SteadyEpoch,
    ) -> Option<EpochDelta> {
        let os = end.os.since(&start.os);
        // Inert passes count their scans, charge the kernel, and may try
        // a compaction that finds nothing to move.
        let scans_only = OsStats {
            khugepaged_scans: 0,
            kernel_cycles: 0,
            direct_compactions: 0,
            ..os
        } == OsStats::default();
        let events_ran = end.events_run != start.events_run;
        if self.observed()
            || !scans_only
            || end.perf.faults != start.perf.faults
            || end.passes_acted != start.passes_acted
            || (events_ran && log.is_none())
            || !record.starts_at(self)
        {
            return None;
        }
        let perf = end.perf.since(&start.perf);
        let memo = (end.memo.0 - start.memo.0, end.memo.1 - start.memo.1);
        if let Some(log) = &log {
            // The log must place every access, and account for the
            // cursor statistics the epoch counted.
            let exact = log.exact() && log.len() == perf.accesses && log.recorded_memo() == memo;
            debug_assert!(exact, "a steady epoch's cost log disagrees with its run");
            if !exact {
                return None;
            }
        }
        let regions = end.regions.map(|end_regions| {
            let before = start.regions.as_deref().unwrap_or(&[]);
            let none = RegionCounters::default();
            let mut d: Vec<RegionCounters> = end_regions
                .iter()
                .enumerate()
                .map(|(i, r)| r.since(before.get(i).unwrap_or(&none)))
                .collect();
            // A region no access touched must not grow a replay's table.
            while d.last() == Some(&none) {
                d.pop();
            }
            d
        });
        Some(EpochDelta {
            clock: end.clock - start.clock - os.kernel_cycles,
            perf,
            cache: std::array::from_fn(|l| {
                (
                    end.cache[l].0 - start.cache[l].0,
                    end.cache[l].1 - start.cache[l].1,
                )
            }),
            memo: log.as_ref().map_or(memo, CostLog::uncleared_memo),
            regions,
            log,
        })
    }

    /// Account for a replay of `delta` from the recorded state, if one is
    /// allowed: advance the clock past the epoch, running the passes that
    /// fall inside it, and return the cursor `(hits, misses)` the epoch
    /// adds. `cursor` is the recorded cursor, which the epoch ends on.
    /// Returns `None`, having changed nothing, when the epoch must be
    /// simulated.
    fn try_replay(
        &mut self,
        delta: &EpochDelta,
        cursor: Option<TranslationMemo>,
    ) -> Option<(u64, u64)> {
        if delta.regions.is_some() != self.attribution_on || self.clock >= self.next_event_cycle {
            return None;
        }
        if self.clock + delta.clock < self.next_event_cycle {
            self.clock += delta.clock;
            return Some(delta.memo);
        }
        self.replay_passes(delta.log.as_ref()?, cursor)
    }

    /// Walk `log` from the current clock with the access path's compare
    /// (`clock >= next_event_cycle` after an access), running the due
    /// events at each access they fall after, on the region signals the
    /// log predicts there. Each pass runs only if it is inert; at the
    /// first that would act, everything the walk ran is undone and `None`
    /// returned. Otherwise the clock ends past the epoch and the cursor
    /// on `cursor`, or empty if events ran after the last access, and the
    /// epoch's cursor `(hits, misses)` are returned.
    fn replay_passes(
        &mut self,
        log: &CostLog,
        cursor: Option<TranslationMemo>,
    ) -> Option<(u64, u64)> {
        let saved = DaemonState::save(self);
        let mut signals = log.signals(self.region_signals());
        let follower = log.follower();
        let mut clock = self.clock;
        let mut k = 0u64; // accesses charged
        let mut cleared = 0u64; // cursor hits the passes turn into probes
        let mut cursor_left_empty = false;
        for (leader, mut followers) in log.records() {
            clock += leader;
            k += 1;
            loop {
                if clock >= self.next_event_cycle {
                    self.clock = clock;
                    let at = if self.gov.is_some() {
                        signals.through(k - 1)
                    } else {
                        Vec::new()
                    };
                    if !self.due_events(Some(&at)) || self.clock >= self.next_event_cycle {
                        saved.restore(self);
                        return None;
                    }
                    clock = self.clock;
                    // The next access probes: a miss where it would have hit.
                    cleared += u64::from(log.hit(k));
                    cursor_left_empty = k == log.len();
                }
                if followers == 0 {
                    break;
                }
                // Followers up to and including the one that reaches the
                // horizon; free followers never do.
                let to_horizon = self.next_event_cycle - clock;
                let reach = if follower == 0 {
                    u64::MAX
                } else {
                    to_horizon.div_ceil(follower)
                };
                let n = reach.min(followers);
                clock += n * follower;
                k += n;
                followers -= n;
            }
        }
        debug_assert_eq!(k, log.len());
        self.clock = clock;
        if !cursor_left_empty {
            self.set_run_memo(cursor);
        }
        let (hits, misses) = log.uncleared_memo();
        Some((hits - cleared, misses + cleared))
    }

    /// Run `body` host-side only, then add `delta` and the cursor
    /// statistics `memo`; [`System::try_replay`] has moved the clock.
    fn replay<R>(
        &mut self,
        delta: &EpochDelta,
        memo: (u64, u64),
        body: impl FnOnce(&mut System) -> R,
    ) -> R {
        self.divert = true;
        self.replayed_accesses = 0;
        let out = body(self);
        self.divert = false;
        assert_eq!(
            self.replayed_accesses, delta.perf.accesses,
            "a replayed steady epoch issued a different number of accesses than the recorded one"
        );
        assert!(
            !self.observed(),
            "a replayed steady epoch attached an observer"
        );
        self.mmu.add_unsimulated(
            &delta.perf,
            &delta.cache,
            delta.regions.as_deref().unwrap_or(&[]),
        );
        self.memo_hits += memo.0;
        self.memo_misses += memo.1;
        self.steady_epochs.1 += 1;
        out
    }

    /// Where every access call goes while a steady epoch replays or logs:
    /// `n` accesses, `element(i)` giving the `i`th one's address and
    /// whether it writes, counted (a replay) or run one by one through
    /// the pipeline and logged. One access at a time is exactly the batch
    /// calls' outcome; only host time differs.
    #[cold]
    #[inline(never)]
    pub(crate) fn divert_accesses(&mut self, n: u64, element: &dyn Fn(u64) -> (VirtAddr, bool)) {
        if self.cost_log.is_none() {
            self.replayed_accesses += n;
            return;
        }
        for i in 0..n {
            let (addr, is_write) = element(i);
            self.access_logged(addr, is_write);
        }
    }

    /// One access of an epoch being logged: the cursor pipeline, then its
    /// own cycles (without the charges of any events it made due), and
    /// for a probe, its region, translation cycles and page.
    fn access_logged(&mut self, addr: VirtAddr, is_write: bool) {
        let (clock, kernel, hits) = (self.clock, self.stats.kernel_cycles, self.memo_hits);
        let (events, translation) = (self.events_run, self.mmu.counters().translation_cycles);
        self.access_cursor(addr, is_write);
        let cycles = self.clock - clock - (self.stats.kernel_cycles - kernel);
        let probe = (self.memo_hits == hits).then(|| {
            let page = if self.run_memo.is_some() {
                (self.memo_lo, self.memo_span)
            } else {
                // Events after the probe cleared the cursor it set.
                match self.pt.walk(addr) {
                    WalkResult::Mapped(leaf) => {
                        let bytes = self.geom.bytes(leaf.size);
                        (addr.align_down(bytes).0, bytes)
                    }
                    _ => (u64::MAX, 0),
                }
            };
            let region = self.attr_region_cache.map_or(0, |(_, _, id)| id);
            (
                region,
                self.mmu.counters().translation_cycles - translation,
                page,
            )
        });
        if let Some(log) = &mut self.cost_log {
            log.push(addr.0, cycles, probe);
            if self.events_run != events {
                log.events_ran();
            }
        }
    }
}
