//! Steady-epoch replay: skip simulating an epoch whose outcome is already
//! known (see [`SteadyEpoch`]).

use graphmem_vm::{PerfCounters, TranslationMemo, WaySnapshot};

use crate::stats::OsStats;
use crate::system::System;

/// The record [`System::steady_epoch`] keeps between the epochs of one
/// loop: the state the last simulated epoch started from and, when that
/// epoch is reusable, the counters it added. Start each loop with
/// [`SteadyEpoch::default`]; one record serves one repeating body.
///
/// An iterative all-edge kernel (PageRank's push phase plus its
/// convergence sweep) issues the same access stream every iteration. Once
/// an iteration starts from the very TLB, page-walk-cache, data-cache and
/// translation-cursor state the previous one started from, it must add
/// the same counters and end in the same state, so simulating it again
/// only recomputes numbers the simulator already has. An epoch is
/// replayed only when all of these hold:
///
/// - nothing can observe or interrupt it: no event is scheduled (the
///   event horizon is `u64::MAX`), and no [`AccessTrace`], telemetry
///   tracer or attribution table is attached, at both ends of the epoch;
/// - the recorded epoch neither faulted nor changed [`OsStats`], and
///   ended in exactly the state it started from: every TLB, PWC and
///   data-cache way ([`WaySnapshot`]), the translation cursor, and the
///   page table's [generation](graphmem_vm::PageTable::generation);
/// - the epoch about to run starts from that same state.
///
/// The last two make the recorded epoch a fixed point: from its start
/// state, the body's access stream returns the machine to that state, so
/// a replay ends exactly where a simulation would have.
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
    /// the record proves the outcome (see [`SteadyEpoch`] for the guard).
    /// Returns what `body` returns.
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
        if !self.replayable() {
            record.delta = None;
            self.steady_epochs.0 += 1;
            return body(self);
        }
        if let Some(delta) = record.delta.filter(|_| record.starts_at(self)) {
            return self.replay(delta, body);
        }
        // Simulate, recording the start state and what the epoch adds.
        self.mmu.snapshot_ways(&mut record.ways);
        record.memo = self.run_memo;
        record.pt_generation = self.pt.generation();
        let start = self.readings();
        let out = body(self);
        self.steady_epochs.0 += 1;
        let end = self.readings();
        let fixed_point = self.replayable()
            && end.perf.faults == start.perf.faults
            && end.os == start.os
            && record.starts_at(self);
        record.delta = fixed_point.then(|| EpochDelta {
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
        out
    }

    /// `(simulated, replayed)`: how many [`System::steady_epoch`] epochs
    /// ran through the simulator and how many were replayed from a record.
    /// Host-side observability only, like [`System::memo_stats`].
    pub fn steady_epoch_stats(&self) -> (u64, u64) {
        self.steady_epochs
    }

    /// Whether nothing could observe or interrupt an epoch: no scheduled
    /// event and no access observer.
    fn replayable(&self) -> bool {
        self.next_event_cycle == u64::MAX
            && self.tracer.is_none()
            && !self.telemetry_on
            && !self.mmu.attribution_enabled()
    }

    fn readings(&self) -> Readings {
        Readings {
            clock: self.clock,
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
            self.replayable(),
            "a replayed steady epoch scheduled an event or attached an observer"
        );
        self.clock += delta.clock;
        self.mmu.add_unsimulated(&delta.perf, &delta.cache);
        self.memo_hits += delta.memo.0;
        self.memo_misses += delta.memo.1;
        self.steady_epochs.1 += 1;
        out
    }
}
