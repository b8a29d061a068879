//! Steady-epoch replay: skip simulating an epoch whose outcome is already
//! known (see [`SteadyEpoch`]).

use graphmem_vm::{PerfCounters, TranslationMemo, WaySnapshot};

use crate::stats::OsStats;
use crate::system::System;

/// The record [`System::steady_epoch`] keeps between the epochs of one
/// loop: the state the last simulated epoch started from and, when an
/// epoch from that state proved reusable, the counters it added. Start
/// each loop with [`SteadyEpoch::default`]; one record serves one
/// repeating body.
///
/// An iterative all-edge kernel (PageRank's push phase plus its
/// convergence sweep) issues the same access stream every iteration. Once
/// an iteration starts from the very TLB, page-walk-cache, data-cache and
/// translation-cursor state the previous one started from, it must add
/// the same counters and end in the same state, so simulating it again
/// only recomputes numbers the simulator already has. An epoch is
/// replayed only when all of these hold:
///
/// - nothing observes it: no [`AccessTrace`], telemetry tracer,
///   attribution table or utilization tracking is attached;
/// - the record holds a delta and the epoch about to run starts from the
///   recorded state: every TLB, PWC and data-cache way ([`WaySnapshot`]),
///   the translation cursor, and the page table's
///   [generation](graphmem_vm::PageTable::generation);
/// - it ends before the next scheduled event: `clock + delta < horizon`.
///   An event fires at the first access whose clock reaches the horizon,
///   so an epoch ending exactly on it would have run the event.
///
/// A delta is recorded only from a simulated epoch that ran no scheduled
/// event, neither faulted nor changed [`OsStats`], was not observed, and
/// ended in exactly the state it started from. That makes it a fixed
/// point: from its start state, the body's access stream returns the
/// machine to that state, so a replay ends exactly where a simulation
/// would have. Access costs never read the clock, so the delta is a
/// function of the start state alone: an epoch that starts from the
/// recorded state but must simulate (a deadline falls inside it) keeps
/// the record for the epochs after it.
///
/// [`AccessTrace`]: graphmem_vm::AccessTrace
#[derive(Debug, Default)]
pub struct SteadyEpoch {
    ways: WaySnapshot,
    memo: Option<TranslationMemo>,
    pt_generation: u64,
    /// What the recorded epoch added, when it may be replayed.
    delta: Option<EpochDelta>,
}

/// Everything a simulated epoch added that a replay must add too.
#[derive(Debug, Clone, Copy)]
struct EpochDelta {
    clock: u64,
    perf: PerfCounters,
    cache: [(u64, u64); 3],
    memo: (u64, u64),
}

/// Counter readings at one end of a simulated epoch.
struct Readings {
    clock: u64,
    events_run: u64,
    perf: PerfCounters,
    os: OsStats,
    cache: [(u64, u64); 3],
    memo: (u64, u64),
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
    /// the record proves the outcome and the epoch ends before the next
    /// scheduled event (see [`SteadyEpoch`] for the guard). Returns what
    /// `body` returns.
    ///
    /// A replayed epoch runs `body` host-side only: [`System::read`],
    /// [`System::write`], [`System::access_run`], [`System::access_gather`]
    /// and [`System::access_gather_rmw`] return at once, and the recorded
    /// clock, [`PerfCounters`], data-cache and [`System::memo_stats`]
    /// deltas are added afterwards. `body` must therefore issue the same
    /// accesses every epoch, read no simulated state, and make no other
    /// call into the system (syscalls, `populate`): a replay panics if the
    /// access count differs from the recorded one.
    ///
    /// Replays never change simulated results; [`System::steady_epoch_stats`]
    /// counts them host-side.
    pub fn steady_epoch<R>(
        &mut self,
        record: &mut SteadyEpoch,
        body: impl FnOnce(&mut System) -> R,
    ) -> R {
        debug_assert!(!self.replaying, "a steady epoch inside a replayed one");
        if self.observed() {
            self.steady_epochs.0 += 1;
            return body(self);
        }
        if record.starts_at(self) {
            let before_horizon = |d: &EpochDelta| self.clock + d.clock < self.next_event_cycle;
            if let Some(delta) = record.delta.filter(before_horizon) {
                return self.replay(delta, body);
            }
        } else {
            // A new start state: record it; no delta is known for it yet.
            self.mmu.snapshot_ways(&mut record.ways);
            record.memo = self.run_memo;
            record.pt_generation = self.pt.generation();
            record.delta = None;
        }
        let start = self.readings();
        let out = body(self);
        self.steady_epochs.0 += 1;
        let end = self.readings();
        let fixed_point = !self.observed()
            && end.events_run == start.events_run
            && end.perf.faults == start.perf.faults
            && end.os == start.os
            && record.starts_at(self);
        if fixed_point {
            record.delta = Some(EpochDelta {
                clock: end.clock - start.clock,
                perf: end.perf.since(&start.perf),
                cache: std::array::from_fn(|l| {
                    (
                        end.cache[l].0 - start.cache[l].0,
                        end.cache[l].1 - start.cache[l].1,
                    )
                }),
                memo: (end.memo.0 - start.memo.0, end.memo.1 - start.memo.1),
            });
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
    /// telemetry, attribution or utilization tracking (kbloatd's accessed
    /// bitmaps), each of which a replay would skip.
    fn observed(&self) -> bool {
        self.tracer.is_some()
            || self.telemetry_on
            || self.mmu.attribution_enabled()
            || self.mmu.tracks_utilization()
    }

    fn readings(&self) -> Readings {
        Readings {
            clock: self.clock,
            events_run: self.events_run,
            perf: *self.mmu.counters(),
            os: self.stats,
            cache: self.mmu.cache_stats(),
            memo: (self.memo_hits, self.memo_misses),
        }
    }

    /// Run `body` host-side only, then add `delta`.
    fn replay<R>(&mut self, delta: EpochDelta, body: impl FnOnce(&mut System) -> R) -> R {
        self.replaying = true;
        self.replayed_accesses = 0;
        let out = body(self);
        self.replaying = false;
        assert_eq!(
            self.replayed_accesses, delta.perf.accesses,
            "a replayed steady epoch issued a different number of accesses than the recorded one"
        );
        assert!(
            !self.observed(),
            "a replayed steady epoch attached an observer"
        );
        self.clock += delta.clock;
        self.mmu.add_unsimulated(&delta.perf, &delta.cache);
        self.memo_hits += delta.memo.0;
        self.memo_misses += delta.memo.1;
        self.steady_epochs.1 += 1;
        out
    }
}
