//! The simulated system: zones + process + MMU + kernel policies.

use std::collections::{HashMap, VecDeque};

use graphmem_physmem::{Frame, FrameRange, NodeId, Owner, Zone, FRAME_SIZE};
use graphmem_telemetry::{
    EpochSampler, EventKind, MemStateSample, MemStateSeries, MetricsSample, MetricsSeries,
    ReclaimKind, Tracer,
};
use graphmem_vm::{
    AccessTrace, Fault, FaultKind, MemorySystem, PageGeometry, PageSize, PageTable, PerfCounters,
    RegionCounters, TranslationMemo, VirtAddr,
};

use crate::config::{FilePlacement, OsCostModel, SystemSpec, ThpMode, ThpPolicy};
use crate::governor::GovernorState;
use crate::pagecache::PageCache;
use crate::stats::OsStats;
use crate::swapdev::SwapDevice;
use crate::vma::{AddressSpace, VmaId};

/// Zone-tag namespace: the OS stores reverse-mapping hints in frame tags.
/// High bits select the namespace; background ("other process") frames have
/// tag 0 and need no fixup on migration.
pub(crate) const TAG_VPN: u64 = 1 << 62;
pub(crate) const TAG_CACHE: u64 = 1 << 61;
pub(crate) const TAG_PAYLOAD: u64 = (1 << 61) - 1;

/// Summary of how a VMA is currently mapped (huge-page usage accounting —
/// the paper's "fraction of memory backed by huge pages").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingReport {
    /// Present base pages.
    pub base_pages: u64,
    /// Present huge pages.
    pub huge_pages: u64,
    /// Bytes backed by huge pages.
    pub huge_bytes: u64,
    /// Bytes mapped in total.
    pub mapped_bytes: u64,
}

impl MappingReport {
    /// Fraction of mapped bytes backed by huge pages.
    pub fn huge_fraction(&self) -> f64 {
        if self.mapped_bytes == 0 {
            0.0
        } else {
            self.huge_bytes as f64 / self.mapped_bytes as f64
        }
    }
}

/// A snapshot of all clocks/counters, for measuring deltas across phases.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    /// Simulated clock at snapshot time.
    pub clock: u64,
    /// Hardware counters at snapshot time.
    pub perf: PerfCounters,
    /// OS counters at snapshot time.
    pub os: OsStats,
}

/// Background promotion daemon bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct KhugepagedState {
    pub(crate) next_run: u64,
    /// Scan cursor: (vma index, byte offset into the vma).
    pub(crate) cursor: (usize, u64),
}

/// The simulated machine + kernel + single bound process.
///
/// See the crate-level docs for an overview and example. Experiment code
/// applies memory pressure and fragmentation by manipulating the zones
/// directly ([`System::zone_mut`]) with
/// [`Memhog`](graphmem_physmem::Memhog) /
/// [`Fragmenter`](graphmem_physmem::Fragmenter) before the workload runs,
/// exactly as the paper runs `memhog` and `frag` before its applications.
#[derive(Debug)]
pub struct System {
    pub(crate) geom: PageGeometry,
    pub(crate) thp: ThpPolicy,
    pub(crate) cost: OsCostModel,
    pub(crate) local_node: NodeId,
    pub(crate) file_placement: FilePlacement,
    pub(crate) zones: Vec<Zone>,
    pub(crate) aspace: AddressSpace,
    pub(crate) pt: PageTable,
    pub(crate) mmu: MemorySystem,
    pub(crate) cache: PageCache,
    pub(crate) swap: SwapDevice,
    pub(crate) stats: OsStats,
    pub(crate) clock: u64,
    /// FIFO of resident pages — swap-victim candidates.
    pub(crate) resident: VecDeque<(u64, PageSize)>,
    pub(crate) kh: KhugepagedState,
    /// Next scheduled run of the utilization-demotion daemon.
    pub(crate) bloat_next_run: u64,
    /// Page-size governor state (`None` when the governor is off — the
    /// default, in which case it contributes no deadline, no charges, and
    /// no counters).
    pub(crate) gov: Option<GovernorState>,
    /// Optional access-trace recorder (see [`System::start_tracing`]).
    pub(crate) tracer: Option<AccessTrace>,
    /// Telemetry event tracer, cloned into the MMU and zones (see
    /// [`System::attach_telemetry`]). Disabled by default.
    pub(crate) telemetry: Tracer,
    /// Epoch metrics sampler (see [`System::enable_sampling`]).
    pub(crate) sampler: Option<EpochSampler>,
    /// Event horizon: the earliest cycle at which any scheduled event
    /// (khugepaged scan, bloat-daemon scan, sample epoch) becomes due, or
    /// `u64::MAX` when all are off. Invariant: never later than the true
    /// earliest deadline, so `clock < next_event_cycle` proves no event is
    /// due. Recomputed by [`System::recompute_event_horizon`] whenever a
    /// daemon runs, a sample is recorded, or an interval/toggle changes.
    pub(crate) next_event_cycle: u64,
    /// Cached `telemetry.is_enabled()` so the probe path can skip the
    /// `set_clock` stamps entirely when no tracer is attached.
    pub(crate) telemetry_on: bool,
    /// Whether per-region attribution is on (see
    /// [`System::enable_attribution`]). Mirrors the MMU's table so the
    /// batch APIs know to fall to the region-tagging scalar path.
    pub(crate) attribution_on: bool,
    /// One-entry VMA-resolution cache for region tagging: `(start, end,
    /// region id)` of the last VMA hit, so consecutive accesses to the same
    /// array skip the address-space walk.
    pub(crate) attr_region_cache: Option<(VirtAddr, VirtAddr, usize)>,
    /// Per-epoch memory-state series (buddyinfo, fragmentation, per-VMA
    /// huge coverage), recorded alongside the metrics sampler when
    /// attribution is on.
    pub(crate) memstate: Option<MemStateSeries>,
    /// Host-side page-run fast-path statistics: elements bulk-charged via a
    /// [`TranslationMemo`] (hits) vs. real probed accesses on the fast path
    /// (misses). Pure host observability — never part of the simulated
    /// state, never compared by differential tests.
    pub(crate) memo_hits: u64,
    pub(crate) memo_misses: u64,
    /// The persistent translation cursor: the memo of the most recent
    /// probed fast-path access, carried across batch calls and scalar
    /// accesses so consecutive touches of one page — a vertex's edge
    /// segment, then the next vertex's — skip the re-probe. Cleared
    /// whenever TLBs or the page table may change (due events, fault
    /// handling, unmapping syscalls, telemetry and attribution switches).
    pub(crate) run_memo: Option<TranslationMemo>,
    /// Cached extent of `run_memo`'s mapping page, as `page start` and
    /// `page bytes` (`u64::MAX`/`0` when no memo), so the cursor-hit test
    /// is two integer ops: `addr - lo < span`. Huge-page memos make this
    /// span 2 MB-class, which is where THP runs earn their keep.
    pub(crate) memo_lo: u64,
    pub(crate) memo_span: u64,
    /// Whether a steady epoch is being replayed (see
    /// [`System::steady_epoch`]): every access call returns at once,
    /// counting its elements into `replayed_accesses`.
    pub(crate) replaying: bool,
    pub(crate) replayed_accesses: u64,
    /// Host-side `(simulated, replayed)` steady-epoch counts.
    pub(crate) steady_epochs: (u64, u64),
    /// How many times [`System::run_due_events`] has run, so a steady
    /// epoch can tell whether any deadline fell inside it.
    pub(crate) events_run: u64,
    /// Boot-time-reserved hugetlbfs pool (paper §2.3's explicit huge
    /// pages): guaranteed huge frames, immune to later fragmentation.
    pub(crate) hugetlb_pool: Vec<FrameRange>,
    /// Pgtable deposits: leaf-table frames reserved per huge mapping
    /// (keyed by the region's base VPN) so a later split never has to
    /// allocate — exactly Linux's `pgtable_trans_huge_deposit`.
    pub(crate) deposits: HashMap<u64, Vec<Frame>>,
}

impl System {
    /// Boot a system from a specification.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no nodes or the bound node is out of range.
    pub fn new(spec: SystemSpec) -> Self {
        assert!(!spec.node_bytes.is_empty(), "need at least one NUMA node");
        assert!(
            (spec.local_node as usize) < spec.node_bytes.len(),
            "local node out of range"
        );
        let zones = spec
            .node_bytes
            .iter()
            .enumerate()
            .map(|(n, &bytes)| Zone::new(n as NodeId, bytes / FRAME_SIZE, spec.memcfg))
            .collect();
        let geom = PageGeometry::new(spec.memcfg);
        let kh = KhugepagedState {
            next_run: spec.thp.khugepaged.scan_interval_cycles,
            cursor: (0, 0),
        };
        let mut sys = System {
            geom,
            thp: spec.thp,
            cost: spec.cost,
            local_node: spec.local_node,
            file_placement: spec.file_placement,
            zones,
            aspace: AddressSpace::new(geom.bytes(PageSize::Huge)),
            pt: PageTable::new(spec.local_node, spec.memcfg),
            mmu: {
                let mut m = MemorySystem::new(spec.mmu);
                if spec.thp.utilization_demotion.is_some() {
                    m.track_utilization(true);
                }
                m
            },
            cache: PageCache::new(),
            swap: SwapDevice::new(),
            stats: OsStats::default(),
            clock: 0,
            resident: VecDeque::new(),
            kh,
            bloat_next_run: spec
                .thp
                .utilization_demotion
                .map_or(u64::MAX, |p| p.scan_interval_cycles),
            gov: None,
            tracer: None,
            telemetry: Tracer::disabled(),
            sampler: None,
            next_event_cycle: 0,
            telemetry_on: false,
            attribution_on: false,
            attr_region_cache: None,
            memstate: None,
            memo_hits: 0,
            memo_misses: 0,
            run_memo: None,
            memo_lo: u64::MAX,
            memo_span: 0,
            replaying: false,
            replayed_accesses: 0,
            steady_epochs: (0, 0),
            events_run: 0,
            hugetlb_pool: Vec::new(),
            deposits: HashMap::new(),
        };
        sys.recompute_event_horizon();
        sys
    }

    // ------------------------------------------------------------------
    // Syscall surface
    // ------------------------------------------------------------------

    /// `mmap` an anonymous region; returns its base address.
    pub fn mmap(&mut self, len: u64, name: &str) -> VirtAddr {
        self.charge(self.cost.syscall);
        let id = self.aspace.mmap(len, name);
        self.aspace.get(id).start()
    }

    /// Reserve `pages` huge pages into the hugetlbfs pool (the equivalent
    /// of writing `nr_hugepages`, paper §2.3). Returns how many were
    /// actually reserved — under fragmentation the pool may come up short,
    /// which is exactly why boot-time reservation is the recommended use.
    pub fn hugetlb_reserve(&mut self, pages: u64) -> u64 {
        self.charge(self.cost.syscall);
        let ln = self.local_node as usize;
        let order = self.zones[ln].config().huge_order;
        for got in 0..pages {
            match self.zones[ln].alloc(order, Owner::user_locked()) {
                Some(r) => self.hugetlb_pool.push(r),
                None => return got,
            }
        }
        pages
    }

    /// Huge pages currently available in the hugetlbfs pool.
    pub fn hugetlb_free(&self) -> u64 {
        self.hugetlb_pool.len() as u64
    }

    /// `mmap` a region backed by the hugetlbfs pool (`MAP_HUGETLB`);
    /// length rounds up to whole huge pages. Touching more pages than the
    /// pool holds is the real-world `SIGBUS` — simulated as a panic.
    pub fn mmap_hugetlb(&mut self, len: u64, name: &str) -> VirtAddr {
        self.charge(self.cost.syscall);
        let id = self.aspace.mmap_hugetlb(len, name);
        self.aspace.get(id).start()
    }

    /// `madvise(addr, len, MADV_HUGEPAGE)` — mark a range huge-eligible
    /// under [`ThpMode::Madvise`]. This is the paper's selective-THP
    /// mechanism (§5.2): advising only the first *s*% of the property array.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside any VMA.
    pub fn madvise_hugepage(&mut self, addr: VirtAddr, len: u64) {
        self.charge(self.cost.syscall);
        let (id, _) = self.aspace.find(addr).expect("madvise outside any VMA");
        self.aspace.get_mut(id).advise(addr, addr.add(len));
    }

    /// `mlock` the VMA containing `addr` (exempt from swap).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside any VMA.
    pub fn mlock_region(&mut self, addr: VirtAddr) {
        self.charge(self.cost.syscall);
        let (id, _) = self.aspace.find(addr).expect("mlock outside any VMA");
        self.aspace.get_mut(id).set_locked(true);
    }

    /// Unmap every present page of the VMA containing `addr` and free the
    /// frames (used for temporary initialization buffers, paper §4.3).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside any VMA.
    pub fn release_region(&mut self, addr: VirtAddr) {
        self.charge(self.cost.syscall);
        // Unmapping invalidates TLB entries the cursor may rely on.
        self.clear_run_memo();
        let (_, vma) = self.aspace.find(addr).expect("release outside any VMA");
        let hugetlb = vma.hugetlb();
        let (start, end) = (vma.start(), vma.end());
        let mut pages: Vec<(VirtAddr, graphmem_vm::Leaf)> = Vec::new();
        self.pt
            .for_each_mapped(start, end, &mut |v, l| pages.push((v, l)));
        for (va, leaf) in pages {
            self.pt.unmap(va).expect("page vanished during release");
            self.mmu.invalidate_page(va, leaf.size);
            let zone = &mut self.zones[leaf.node as usize];
            match leaf.size {
                PageSize::Base => zone.free_frame(leaf.frame),
                PageSize::Huge if hugetlb => {
                    // Back to the reservation pool, as hugetlbfs does.
                    let frames = zone.config().huge_frames();
                    self.hugetlb_pool.push(FrameRange::new(leaf.frame, frames));
                }
                PageSize::Huge => {
                    zone.free(leaf.frame, zone.config().huge_order);
                    let deposit = self
                        .deposits
                        .remove(&va.vpn())
                        .expect("a THP huge page holds its pgtable deposit");
                    let ln = self.local_node as usize;
                    for f in deposit {
                        self.zones[ln].free_frame(f);
                    }
                }
            }
        }
        self.charge(self.cost.tlb_shootdown);
    }

    /// Drop the entire page cache (`echo 1 > /proc/sys/vm/drop_caches`).
    pub fn drop_caches(&mut self) {
        self.charge(self.cost.syscall);
        let mut dropped = 0u32;
        for (node, frame) in self.cache.drop_all() {
            self.zones[node as usize].free_frame(frame);
            self.stats.cache_reclaims += 1;
            dropped += 1;
        }
        if dropped > 0 {
            self.telemetry.emit(EventKind::Reclaim {
                kind: ReclaimKind::CacheDrop,
                frames: dropped,
            });
        }
    }

    // ------------------------------------------------------------------
    // Memory access path
    // ------------------------------------------------------------------

    /// Simulated load from `addr`.
    pub fn read(&mut self, addr: VirtAddr) {
        self.access(addr, false);
    }

    /// Simulated store to `addr`.
    pub fn write(&mut self, addr: VirtAddr) {
        self.access(addr, true);
    }

    fn access(&mut self, addr: VirtAddr, is_write: bool) {
        if self.replaying {
            self.replayed_accesses += 1;
            return;
        }
        if let Some(t) = &mut self.tracer {
            t.push(addr, is_write);
        }
        self.access_cursor(addr, is_write);
    }

    /// The per-access pipeline: one access through the
    /// persistent translation cursor. A cursor hit — the address lands on
    /// the mapping page of the last probed access — bulk-charges the
    /// element as a proven L1 TLB hit (no TLB probe, no region re-tag); a
    /// miss runs the full probed pipeline and refreshes the cursor.
    ///
    /// Region tagging on the hit path is skipped soundly: whenever the
    /// cursor is live, the attribution region latch was set by the probe
    /// that created it, and pages never span VMAs, so re-tagging would be
    /// a no-op.
    #[inline]
    fn access_cursor(&mut self, addr: VirtAddr, is_write: bool) {
        // The second clause keeps the budget subtraction positive: syscall
        // charges or populate's bulk cycles can push the clock past a
        // stale-low horizon without running events. Falling to the probe
        // path there is exactly scalar stepping — access first, then the
        // event check fires inside `access_probed_hot`.
        if addr.0.wrapping_sub(self.memo_lo) < self.memo_span && self.clock < self.next_event_cycle
        {
            let memo = self.run_memo.expect("cursor extent live without a memo");
            let budget = self.next_event_cycle - self.clock;
            let charge = self
                .mmu
                .charge_page_hits(&memo, addr, 0, 1, is_write, budget);
            self.clock += charge.cycles;
            self.memo_hits += 1;
            if self.clock >= self.next_event_cycle {
                self.run_due_events();
            }
            return;
        }
        if self.attribution_on {
            self.note_region(addr);
        }
        self.memo_misses += 1;
        let memo = self.access_probed_hot(addr, is_write);
        self.set_run_memo(memo);
    }

    /// Install (or clear) the persistent translation cursor, keeping the
    /// cached page extent in step.
    #[inline]
    fn set_run_memo(&mut self, memo: Option<TranslationMemo>) {
        self.run_memo = memo;
        match &memo {
            Some(m) => (self.memo_lo, self.memo_span) = self.mmu.memo_extent(m),
            None => (self.memo_lo, self.memo_span) = (u64::MAX, 0),
        }
    }

    /// Clear the persistent translation cursor. Required before anything
    /// that can mutate TLBs or remap pages outside the probed pipeline.
    #[inline]
    pub(crate) fn clear_run_memo(&mut self) {
        self.run_memo = None;
        self.memo_lo = u64::MAX;
        self.memo_span = 0;
    }

    /// One probed access, retried through fault service, with the event
    /// check after it. Returns the [`TranslationMemo`] of the successful
    /// access so the caller can bulk-charge follow-up same-page elements.
    ///
    /// Returns `None` when due events ran after the access — daemons can
    /// flush TLBs, so the memo must be discarded and the next element
    /// re-probed. A fault does not invalidate the eventual memo: the
    /// successful retry is itself a fresh proof of residency.
    ///
    /// With telemetry attached, the tracer clock is stamped before each
    /// probe attempt: the MMU emits its events (fills, walks) only while
    /// probing, and fault service stamps its own kernel charges, so bulk
    /// hit charges between probes need no stamps.
    #[inline]
    fn access_probed_hot(&mut self, addr: VirtAddr, is_write: bool) -> Option<TranslationMemo> {
        for _attempt in 0..4 {
            if self.telemetry_on {
                self.telemetry.set_clock(self.clock);
            }
            match self.mmu.access_probed(&self.pt, addr, is_write) {
                Ok((cost, memo)) => {
                    self.clock += cost.cycles;
                    if self.clock >= self.next_event_cycle {
                        self.run_due_events();
                        return None;
                    }
                    return Some(memo);
                }
                Err(fault) => {
                    self.clock += fault.cycles;
                    self.handle_fault(fault);
                    self.maybe_sample();
                }
            }
        }
        panic!("access to {addr} still faulting after fault handling");
    }

    /// Run every scheduled event that has become due, then refresh the
    /// watermark. Cold: on the hot path this is reached only when the
    /// watermark compare fires. The checks run in a fixed order
    /// (khugepaged, utilization demotion, governor, sampler) and each
    /// re-reads the clock, so cascades (a daemon's kernel cycles pushing
    /// the clock past a sample boundary) resolve in one call.
    ///
    /// Public only for the reference stepper in the integration tests,
    /// which polls every daemon before every access: calling this clears
    /// the translation cursor, so the next access is a real probe.
    #[doc(hidden)]
    #[cold]
    pub fn run_due_events(&mut self) {
        self.events_run += 1;
        if self.telemetry_on {
            self.telemetry.set_clock(self.clock);
        }
        // Daemons can promote, demote, migrate, and flush TLBs: the
        // translation cursor is no longer proof of residency.
        self.clear_run_memo();
        self.maybe_khugepaged();
        self.maybe_kbloatd();
        self.maybe_governor();
        self.maybe_sample();
        self.recompute_event_horizon();
    }

    /// Recompute [`Self::next_event_cycle`] from the live daemon deadlines
    /// and the sampler's next epoch. Must be called whenever any of those
    /// change; a stale-low watermark only costs a wasted re-check, but a
    /// stale-high one would skip events, so every deadline mutation routes
    /// through here.
    pub(crate) fn recompute_event_horizon(&mut self) {
        let mut next = u64::MAX;
        if self.thp.khugepaged.enabled && self.thp.mode != ThpMode::Never {
            next = next.min(self.kh.next_run);
        }
        if self.thp.utilization_demotion.is_some() {
            next = next.min(self.bloat_next_run);
        }
        if let Some(g) = &self.gov {
            next = next.min(g.next_run);
        }
        if let Some(s) = &self.sampler {
            next = next.min(s.next_due());
        }
        self.next_event_cycle = next;
    }

    /// Simulated strided run: `count` accesses of one VMA-resident stream
    /// starting at `base`, `stride` bytes apart. Semantically identical to
    /// calling [`System::read`]/[`System::write`] per element — same
    /// counters, same cycles, same fault handling (a mid-run fault retries
    /// the faulting element only) — but translation is amortized at page
    /// granularity: one real [`MemorySystem::access_probed`] per base page,
    /// with the remaining same-page elements bulk-charged through
    /// [`MemorySystem::charge_page_hits`]. Bulk charges are split at the
    /// event horizon so daemons and samplers fire on the same cycle they
    /// would under scalar stepping, and the memo is discarded whenever
    /// events run (they may flush TLBs).
    pub fn access_run(&mut self, base: VirtAddr, stride: u64, count: u64, is_write: bool) {
        if self.replaying {
            self.replayed_accesses += count;
            return;
        }
        if let Some(t) = &mut self.tracer {
            for i in 0..count {
                t.push(base.add(i * stride), is_write);
            }
        }
        let mut i = 0u64;
        while i < count {
            let addr = base.add(i * stride);
            let memo = if addr.0.wrapping_sub(self.memo_lo) < self.memo_span
                && self.clock < self.next_event_cycle
            {
                // Element i is already proven resident by the persistent
                // cursor (possibly set by a previous batch call): no probe,
                // bulk-charge straight from here. The horizon clause keeps
                // the budget subtraction positive (see `access_cursor`).
                self.run_memo.expect("cursor extent live without a memo")
            } else {
                if self.attribution_on {
                    // The probed page's elements all share the probe's VMA
                    // (VMAs are huge-page aligned), so per-probe tagging
                    // equals the scalar path's per-element tagging.
                    self.note_region(addr);
                }
                self.memo_misses += 1;
                let memo = self.access_probed_hot(addr, is_write);
                self.set_run_memo(memo);
                i += 1;
                let Some(memo) = memo else { continue };
                memo
            };
            // Elements from i onward that stay on the memo's mapping page
            // (the whole huge page for a huge entry).
            let page_end = self.memo_lo + self.memo_span;
            let next = base.0 + i * stride;
            // stride == 0 (a repeated address) divides to None: every
            // remaining element stays on the probed page.
            let mut remaining = if i >= count || next >= page_end {
                0
            } else {
                (page_end - next - 1)
                    .checked_div(stride)
                    .map_or(count - i, |fit| (fit + 1).min(count - i))
            };
            while remaining > 0 {
                // `clock < next_event_cycle` holds here (events just ran or
                // were proven not due), so the budget is positive.
                let budget = self.next_event_cycle - self.clock;
                let charge = self.mmu.charge_page_hits(
                    &memo,
                    base.add(i * stride),
                    stride,
                    remaining,
                    is_write,
                    budget,
                );
                self.clock += charge.cycles;
                self.memo_hits += charge.elems;
                i += charge.elems;
                remaining -= charge.elems;
                if self.clock >= self.next_event_cycle {
                    self.run_due_events();
                    if remaining > 0 {
                        // Events may have flushed TLBs: the memo is stale;
                        // re-probe the next element as a fresh page leader.
                        break;
                    }
                }
            }
        }
    }

    /// Gather variant of [`System::access_run`] for the pointer-indirect
    /// property-array pattern: one access per index, at
    /// `base + index * elem_bytes`, in slice order. Consecutive indices
    /// landing on the same mapping page — the same 2 MB-class page under
    /// THP — skip the translation probe via the persistent cursor.
    pub fn access_gather(
        &mut self,
        base: VirtAddr,
        elem_bytes: u64,
        indices: &[u32],
        is_write: bool,
    ) {
        if self.replaying {
            self.replayed_accesses += indices.len() as u64;
            return;
        }
        if let Some(t) = &mut self.tracer {
            for &i in indices {
                t.push(base.add(u64::from(i) * elem_bytes), is_write);
            }
        }
        for &i in indices {
            self.access_cursor(base.add(u64::from(i) * elem_bytes), is_write);
        }
    }

    /// Gather read-modify-write: for each index in slice order, a simulated
    /// load then store of the same element (the scatter-add pattern in
    /// PageRank's push phase). The store always lands on the load's page,
    /// so it rides the cursor the load just refreshed.
    pub fn access_gather_rmw(&mut self, base: VirtAddr, elem_bytes: u64, indices: &[u32]) {
        if self.replaying {
            self.replayed_accesses += 2 * indices.len() as u64;
            return;
        }
        if let Some(t) = &mut self.tracer {
            for &i in indices {
                let addr = base.add(u64::from(i) * elem_bytes);
                t.push(addr, false);
                t.push(addr, true);
            }
        }
        for &i in indices {
            let addr = base.add(u64::from(i) * elem_bytes);
            self.access_cursor(addr, false);
            self.access_cursor(addr, true);
        }
    }

    /// Host-side page-run fast-path statistics: `(hits, misses)` — elements
    /// bulk-charged via a remembered translation vs. real probed accesses.
    /// Observability only; no effect on simulated state.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Advance the clock by `cycles` of bulk (non-kernel) work, keeping
    /// telemetry stamps and epoch sampling in step — the same bookkeeping
    /// the access fault path does after charging fault cycles.
    pub(crate) fn advance_clock(&mut self, cycles: u64) {
        debug_assert!(!self.replaying, "bulk cycles inside a replayed epoch");
        self.clock += cycles;
        if self.telemetry_on {
            self.telemetry.set_clock(self.clock);
        }
        self.maybe_sample();
    }

    /// First-touch a whole range with sequential stores, one simulated
    /// store per base page plus a bulk cost for the remaining cache lines
    /// of each page (models `memset`-style initialization without
    /// simulating every line).
    pub fn populate(&mut self, addr: VirtAddr, len: u64) {
        debug_assert!(!self.replaying, "populate inside a replayed epoch");
        let lines_per_page = FRAME_SIZE / 64;
        let bulk = (lines_per_page - 1) * 4; // remaining lines hit L1
        let mut off = 0;
        while off < len {
            self.write(addr.add(off));
            self.advance_clock(bulk);
            off += FRAME_SIZE;
        }
    }

    /// Load `len` bytes of file data into `[addr, addr+len)` according to
    /// the configured [`FilePlacement`]: charges I/O costs, occupies page
    /// cache where applicable, and first-touches the destination buffer.
    pub fn load_file(&mut self, addr: VirtAddr, len: u64) {
        let frames = len.div_ceil(FRAME_SIZE);
        match self.file_placement {
            FilePlacement::LocalPageCache => {
                // Disk → page cache (local node) → user buffer.
                for _ in 0..frames {
                    self.charge(self.cost.disk_read_frame);
                    if let Some(frame) =
                        self.zones[self.local_node as usize].alloc_frame(Owner::PageCache)
                    {
                        let idx = self.cache.insert(self.local_node, frame);
                        self.zones[self.local_node as usize].set_tag(frame, TAG_CACHE | idx);
                        self.stats.cache_fills += 1;
                    }
                    // If the node is too full even for cache pages, Linux
                    // simply serves the read without caching it.
                    self.charge(self.cost.cache_copy_frame);
                }
            }
            FilePlacement::TmpfsRemote => {
                // Data staged on the remote node; reads are remote memory.
                for _ in 0..frames {
                    self.charge(self.cost.remote_read_frame);
                }
            }
            FilePlacement::DirectIo => {
                for _ in 0..frames {
                    self.charge(self.cost.disk_read_frame);
                }
            }
        }
        self.populate(addr, len);
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Begin recording every subsequent data access into an
    /// [`AccessTrace`] (replayable against other MMU configurations; see
    /// `graphmem_vm::AccessTrace::replay`).
    pub fn start_tracing(&mut self) {
        self.tracer = Some(AccessTrace::new());
    }

    /// Stop recording and take the trace (empty if tracing was never
    /// started).
    pub fn take_trace(&mut self) -> AccessTrace {
        self.tracer.take().unwrap_or_default()
    }

    /// Attach a telemetry [`Tracer`]: clones of the handle are installed
    /// in the MMU and every zone, so hardware, buddy-allocator, and kernel
    /// events all stamp against the one simulated clock. Pass
    /// [`Tracer::disabled()`] to detach. Observation never perturbs the
    /// simulation: the clock and every counter advance identically whether
    /// or not a tracer is attached.
    pub fn attach_telemetry(&mut self, tracer: Tracer) {
        tracer.set_clock(self.clock);
        self.mmu.set_tracer(tracer.clone());
        for zone in &mut self.zones {
            zone.set_tracer(tracer.clone());
        }
        self.telemetry_on = tracer.is_enabled();
        self.telemetry = tracer;
        self.clear_run_memo();
        self.recompute_event_horizon();
    }

    /// The telemetry handle currently attached (disabled by default).
    pub fn telemetry(&self) -> &Tracer {
        &self.telemetry
    }

    /// Snapshot counters and memory-state gauges every `interval`
    /// simulated cycles into a [`MetricsSeries`] (collect it with
    /// [`System::take_series`]).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_sampling(&mut self, interval: u64) {
        self.sampler = Some(EpochSampler::new(interval));
        self.recompute_event_horizon();
    }

    /// Stop sampling and take the series, closing it with a final snapshot
    /// of the current counters. `None` if sampling was never enabled.
    pub fn take_series(&mut self) -> Option<MetricsSeries> {
        let mut series = self.sampler.take()?.into_series();
        series.close(self.metrics_sample());
        self.recompute_event_horizon();
        Some(series)
    }

    /// Enable per-region translation-cost attribution: every subsequent
    /// access is charged to the VMA containing its address (see
    /// `graphmem_vm::attribution`), and a [`MemStateSeries`] of
    /// buddyinfo/fragmentation/coverage snapshots is recorded: one on each
    /// sampled epoch when epoch sampling is on, and always one closing
    /// snapshot when [`System::take_memstate`] takes the series.
    ///
    /// Pure observation: simulated clocks, counters, and TLB/cache state
    /// advance identically whether or not attribution is on. Regions are
    /// tagged once per probe; the elements bulk-charged on a probed page
    /// share its VMA.
    pub fn enable_attribution(&mut self, on: bool) {
        self.attribution_on = on;
        self.attr_region_cache = None;
        // The cursor-hit path skips region tagging on the strength of the
        // probe that created the memo; a probe made under the old setting
        // proves nothing now.
        self.clear_run_memo();
        self.mmu.enable_attribution(on);
        self.memstate = on.then(MemStateSeries::default);
    }

    /// Whether per-region attribution is currently enabled.
    pub fn attribution_enabled(&self) -> bool {
        self.attribution_on
    }

    /// Per-region attribution counters accumulated so far, indexed by
    /// region id (= VMA id, in [`AddressSpace::iter`] order). `None` when
    /// attribution is off.
    pub fn attribution_regions(&self) -> Option<&[RegionCounters]> {
        self.mmu.attribution_regions()
    }

    /// Names of all regions (VMAs) in region-id order.
    pub fn region_names(&self) -> Vec<String> {
        self.aspace
            .iter()
            .map(|(_, v)| v.name().to_string())
            .collect()
    }

    /// Per-region mapping reports `(name, report)` in region-id order.
    pub fn region_mapping_reports(&self) -> Vec<(String, MappingReport)> {
        self.aspace
            .iter()
            .map(|(_, vma)| {
                let (base, huge) = self.pt.count_mapped(vma.start(), vma.end());
                let huge_bytes = huge * self.geom.bytes(PageSize::Huge);
                (
                    vma.name().to_string(),
                    MappingReport {
                        base_pages: base,
                        huge_pages: huge,
                        huge_bytes,
                        mapped_bytes: base * FRAME_SIZE + huge_bytes,
                    },
                )
            })
            .collect()
    }

    /// Stop memory-state recording and take the series, closing it with a
    /// final snapshot. `None` if attribution was never enabled.
    pub fn take_memstate(&mut self) -> Option<MemStateSeries> {
        let mut series = self.memstate.take()?;
        series.note_regions(&self.region_names());
        series.close(self.memstate_sample());
        Some(series)
    }

    /// Resolve `addr` to its VMA and point the MMU's attribution cursor at
    /// it. One-entry cache: graph kernels access the same array in long
    /// bursts, so the address-space walk is rarely taken. Addresses outside
    /// every VMA (never produced by the workloads) leave the cursor where
    /// it was.
    #[inline]
    fn note_region(&mut self, addr: VirtAddr) {
        if let Some((start, end, id)) = self.attr_region_cache {
            if addr >= start && addr < end {
                self.mmu.set_region(id);
                return;
            }
        }
        if let Some((id, vma)) = self.aspace.find(addr) {
            self.attr_region_cache = Some((vma.start(), vma.end(), id.0));
            self.mmu.set_region(id.0);
        }
    }

    /// Build one memory-state snapshot: local-zone buddy free lists,
    /// fragmentation index, and per-VMA huge coverage.
    pub fn memstate_sample(&self) -> MemStateSample {
        let zone = &self.zones[self.local_node as usize];
        let huge_order = zone.config().huge_order;
        let coverage = self
            .aspace
            .iter()
            .map(|(_, vma)| {
                let (base, huge) = self.pt.count_mapped(vma.start(), vma.end());
                let huge_bytes = huge * self.geom.bytes(PageSize::Huge);
                let mapped = base * FRAME_SIZE + huge_bytes;
                if mapped == 0 {
                    0.0
                } else {
                    huge_bytes as f64 / mapped as f64
                }
            })
            .collect();
        MemStateSample {
            cycle: self.clock,
            free_frames: zone.free_frames(),
            free_huge_blocks: zone.free_huge_blocks(),
            unusable_index: zone.unusable_index(huge_order),
            buddy: zone.buddyinfo(),
            coverage,
        }
    }

    /// Append a memory-state snapshot if recording is on (called on every
    /// sampled epoch).
    fn record_memstate(&mut self) {
        if let Some(mut series) = self.memstate.take() {
            series.note_regions(&self.region_names());
            series.push(self.memstate_sample());
            self.memstate = Some(series);
        }
    }

    /// Build an epoch snapshot of the cumulative counters plus
    /// instantaneous gauges of the local zone and address space.
    pub fn metrics_sample(&self) -> MetricsSample {
        let perf = self.mmu.counters();
        let zone = &self.zones[self.local_node as usize];
        let map = self.mapping_report_total();
        MetricsSample {
            cycle: self.clock,
            accesses: perf.accesses,
            dtlb_misses: perf.dtlb_misses,
            stlb_misses: perf.stlb_misses,
            walk_pte_reads: perf.walk_pte_reads,
            translation_cycles: perf.translation_cycles,
            faults: self.stats.faults,
            huge_faults: self.stats.huge_faults,
            huge_fallbacks: self.stats.huge_fallbacks,
            promotions: self.stats.promotions,
            demotions: self.stats.demotions,
            khugepaged_scans: self.stats.khugepaged_scans,
            direct_compactions: self.stats.direct_compactions,
            frames_migrated: self.stats.frames_migrated,
            swap_outs: self.stats.swap_outs,
            swap_ins: self.stats.swap_ins,
            kernel_cycles: self.stats.kernel_cycles,
            free_frames: zone.free_frames(),
            free_huge_blocks: zone.free_huge_blocks(),
            base_pages_mapped: map.base_pages,
            huge_pages_mapped: map.huge_pages,
            fragmentation_index: zone.fragmentation_level(),
            huge_coverage: map.huge_fraction(),
        }
    }

    fn maybe_sample(&mut self) {
        if self.sampler.as_ref().is_some_and(|s| s.due(self.clock)) {
            let sample = self.metrics_sample();
            if let Some(s) = self.sampler.as_mut() {
                s.record(sample);
            }
            self.record_memstate();
            self.recompute_event_horizon();
        }
    }

    /// The current page table (for trace replay against this process's
    /// final mappings).
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// Simulated cycle clock (includes kernel time).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Hardware performance counters.
    pub fn perf(&self) -> &PerfCounters {
        self.mmu.counters()
    }

    /// Data-cache `(hits, misses)` per level, L1 → L3.
    pub fn cache_stats(&self) -> [(u64, u64); 3] {
        self.mmu.cache_stats()
    }

    /// OS event counters.
    pub fn os_stats(&self) -> &OsStats {
        &self.stats
    }

    /// Snapshot clocks and counters.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            clock: self.clock,
            perf: *self.mmu.counters(),
            os: self.stats,
        }
    }

    /// Deltas since `cp`: `(cycles, perf, os)`.
    pub fn since(&self, cp: &Checkpoint) -> (u64, PerfCounters, OsStats) {
        (
            self.clock - cp.clock,
            self.mmu.counters().since(&cp.perf),
            self.stats.since(&cp.os),
        )
    }

    /// Mapping statistics for the VMA containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside any VMA.
    pub fn mapping_report(&self, addr: VirtAddr) -> MappingReport {
        let (_, vma) = self.aspace.find(addr).expect("report outside any VMA");
        let (base, huge) = self.pt.count_mapped(vma.start(), vma.end());
        let huge_bytes = huge * self.geom.bytes(PageSize::Huge);
        MappingReport {
            base_pages: base,
            huge_pages: huge,
            huge_bytes,
            mapped_bytes: base * FRAME_SIZE + huge_bytes,
        }
    }

    /// Mapping statistics across every VMA.
    pub fn mapping_report_total(&self) -> MappingReport {
        let mut total = MappingReport {
            base_pages: 0,
            huge_pages: 0,
            huge_bytes: 0,
            mapped_bytes: 0,
        };
        for (_, vma) in self.aspace.iter() {
            let (base, huge) = self.pt.count_mapped(vma.start(), vma.end());
            total.base_pages += base;
            total.huge_pages += huge;
        }
        total.huge_bytes = total.huge_pages * self.geom.bytes(PageSize::Huge);
        total.mapped_bytes = total.base_pages * FRAME_SIZE + total.huge_bytes;
        total
    }

    /// The zone of NUMA `node` (read-only).
    pub fn zone(&self, node: NodeId) -> &Zone {
        &self.zones[node as usize]
    }

    /// Mutable access to a zone, for experiment setup (memhog, frag,
    /// background noise) before the workload runs.
    pub fn zone_mut(&mut self, node: NodeId) -> &mut Zone {
        &mut self.zones[node as usize]
    }

    /// The node the process is bound to.
    pub fn local_node(&self) -> NodeId {
        self.local_node
    }

    /// Page geometry in effect.
    pub fn geometry(&self) -> PageGeometry {
        self.geom
    }

    /// The address space (VMA map).
    pub fn address_space(&self) -> &AddressSpace {
        &self.aspace
    }

    /// Page cache occupancy.
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    // ------------------------------------------------------------------
    // Internals shared across the impl files
    // ------------------------------------------------------------------

    pub(crate) fn charge(&mut self, cycles: u64) {
        debug_assert!(!self.replaying, "kernel cycles inside a replayed epoch");
        self.clock += cycles;
        self.stats.kernel_cycles += cycles;
        self.telemetry.set_clock(self.clock);
    }

    pub(crate) fn fault_dispatch(&mut self, fault: Fault) {
        self.stats.faults += 1;
        self.charge(self.cost.fault_base);
        match fault.kind {
            FaultKind::NotMapped => self.demand_fault(fault.vaddr),
            FaultKind::SwappedOut(slot) => self.swap_in(fault.vaddr, slot),
        }
    }

    fn handle_fault(&mut self, fault: Fault) {
        // Fault service can allocate, reclaim, compact, swap, and
        // invalidate translations: the cursor's residency proof is void.
        self.clear_run_memo();
        self.fault_dispatch(fault);
    }

    /// Whether `vaddr`'s huge region is THP-eligible in VMA `id`:
    /// the aligned region must fit in the VMA, pass the mode check
    /// (always / advised), and have no page table yet — a region split
    /// earlier keeps its leaf table even once every base page is gone.
    pub(crate) fn huge_eligible(&self, id: VmaId, vaddr: VirtAddr) -> bool {
        let huge_bytes = self.geom.bytes(PageSize::Huge);
        let lo = vaddr.align_down(huge_bytes);
        let hi = lo.add(huge_bytes);
        let vma = self.aspace.get(id);
        lo >= vma.start()
            && hi <= vma.end()
            && self.thp_allows(id, lo, hi)
            && self.pt.huge_slot_empty(lo)
    }

    /// Whether the THP mode lets `[lo, hi)` of VMA `id` be backed by a
    /// huge page: always, or when advised under `madvise`. Shared by the
    /// fault path and promotion.
    pub(crate) fn thp_allows(&self, id: VmaId, lo: VirtAddr, hi: VirtAddr) -> bool {
        match self.thp.mode {
            ThpMode::Never => false,
            ThpMode::Always => true,
            ThpMode::Madvise => self.aspace.get(id).range_advised(lo, hi),
        }
    }

    /// Allocate one local frame for user data, reclaiming page cache and
    /// then swapping as needed.
    ///
    /// # Panics
    ///
    /// Panics on true OOM (nothing reclaimable or swappable remains).
    pub(crate) fn alloc_user_frame(&mut self, locked: bool) -> Frame {
        let owner = user_owner(locked);
        for _ in 0..64 {
            if let Some(f) = self.zones[self.local_node as usize].alloc_frame(owner) {
                return f;
            }
            if !self.reclaim_one_frame() && !self.swap_out_one() {
                break;
            }
        }
        panic!("out of memory: no free, reclaimable, or swappable frames left");
    }
}

/// The owner of a user frame: mlocked ones are unmovable.
pub(crate) fn user_owner(locked: bool) -> Owner {
    if locked {
        Owner::user_locked()
    } else {
        Owner::user()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemSpec;

    #[test]
    fn boot_and_mmap() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let a = sys.mmap(1 << 20, "a");
        let b = sys.mmap(1 << 20, "b");
        assert_ne!(a, b);
        assert!(a.is_aligned(sys.geometry().bytes(PageSize::Huge)));
        assert_eq!(sys.address_space().len(), 2);
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let a = sys.mmap(1 << 20, "a");
        sys.write(a);
        assert_eq!(sys.os_stats().faults, 1);
        assert_eq!(sys.os_stats().base_faults, 1); // THP off by default
        let clock_after_fault = sys.clock();
        sys.read(a.add(8));
        assert_eq!(sys.os_stats().faults, 1);
        assert!(sys.clock() - clock_after_fault < 100);
    }

    #[test]
    fn populate_maps_whole_range() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let a = sys.mmap(256 * 1024, "a");
        sys.populate(a, 256 * 1024);
        let rep = sys.mapping_report(a);
        assert_eq!(rep.mapped_bytes, 256 * 1024);
        assert_eq!(rep.huge_pages, 0);
    }

    #[test]
    fn release_region_frees_memory() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let free0 = sys.zone(1).free_frames();
        let a = sys.mmap(512 * 1024, "tmp");
        sys.populate(a, 512 * 1024);
        assert!(sys.zone(1).free_frames() < free0);
        sys.release_region(a);
        // Only page-table frames remain allocated.
        let used = free0 - sys.zone(1).free_frames();
        assert!(used <= sys.pt.table_frames() + 2, "used {used}");
    }

    #[test]
    #[should_panic(expected = "outside any VMA")]
    fn madvise_outside_vma_panics() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        sys.madvise_hugepage(VirtAddr(0x1000), 4096);
    }
}
