//! The per-core memory system: TLB hierarchy + page walker + data caches.

use std::collections::HashMap;

use graphmem_physmem::{NodeId, FRAME_SIZE};
use graphmem_telemetry::counters::Cumulative;
use graphmem_telemetry::{EventKind, EventMask, TlbLevel, Tracer};

use crate::addr::{PageGeometry, PageSize, VirtAddr};
use crate::attribution::{size_idx, AttributionTable, RegionCounters};
use crate::cache::{CacheHierarchy, CacheLevel};
use crate::config::MmuConfig;
use crate::counters::PerfCounters;
use crate::pagetable::{PageTable, WalkResult};
use crate::pwc::PageWalkCaches;
use crate::tlb::{SetAssocTlb, TlbEntry};

/// How a data access was translated and serviced, with its cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCost {
    /// Total cycles charged for the access (translation + data).
    pub cycles: u64,
    /// Cache level that serviced the data.
    pub level: CacheLevel,
    /// Whether translation needed a hardware page walk.
    pub walked: bool,
}

/// A translation fault the OS must resolve before the access can retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Faulting virtual address.
    pub vaddr: VirtAddr,
    /// What the walker found.
    pub kind: FaultKind,
    /// Cycles already burned discovering the fault (partial walk).
    pub cycles: u64,
}

/// Cause of a [`Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No translation exists — first touch or unmapped.
    NotMapped,
    /// The page is swapped out; payload is the swap slot.
    SwappedOut(u64),
}

/// Proof, returned by [`MemorySystem::access_probed`], that one *mapping
/// page* (base or huge) just translated successfully — the ticket that
/// admits follow-up accesses anywhere on that page into
/// [`MemorySystem::charge_page_hits`].
///
/// The guarantee it carries: the probed access ran the full scalar pipeline
/// and left the resolved entry resident in its L1 DTLB, most recently used
/// in its set (hit-refreshed or just filled). Any subsequent scalar access
/// within the entry's page therefore deterministically takes that L1-hit
/// path, and leaves the DTLB as it found it, as long as no TLB mutation
/// (fill, invalidate, flush) intervenes:
///
/// - base entry: the access's base VPN is the entry's VPN, so the base
///   DTLB probe hits;
/// - huge entry: a huge leaf in the page table implies no base DTLB entry
///   covers *any* of its constituent base pages — base entries are only
///   filled from base leaves, and every base→huge remap (promotion) does a
///   full TLB flush — so the base probe misses and the huge probe hits.
///
/// Bulk charges never fill, so the memo stays valid until the caller runs
/// something that can mutate TLBs or the page table (OS daemons, fault
/// handling, unmapping syscalls) and must then discard it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationMemo {
    entry: TlbEntry,
}

/// Outcome of one [`MemorySystem::charge_page_hits`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRunCharge {
    /// Elements actually charged — short of the requested count exactly
    /// when the cycle budget was crossed (the crossing element is included,
    /// matching scalar access-then-check stepping).
    pub elems: u64,
    /// Cycles accrued by the charged elements.
    pub cycles: u64,
}

/// A copy of every TLB, page-walk-cache and data-cache way of a
/// [`MemorySystem`], in recency order: together with the page table, the
/// state that decides what every later access costs. Taken with
/// [`MemorySystem::snapshot_ways`] and compared against the live state
/// with [`MemorySystem::ways_match`]; counters are not part of it.
#[derive(Debug, Default)]
pub struct WaySnapshot {
    words: Vec<u64>,
}

/// The simulated MMU + cache front end of one core.
///
/// See the crate-level example for typical use. All state (TLBs, page-walk
/// caches, data caches, counters) is owned here; the page table is passed by
/// reference on each access because it belongs to the (OS-managed) process.
#[derive(Debug)]
pub struct MemorySystem {
    geom: PageGeometry,
    cfg: MmuConfig,
    dtlb_base: SetAssocTlb,
    dtlb_huge: SetAssocTlb,
    stlb: SetAssocTlb,
    pwc: PageWalkCaches,
    caches: CacheHierarchy,
    counters: PerfCounters,
    /// Optional per-huge-page utilization bitmaps (which constituent base
    /// pages have been touched), keyed by huge page number. Emulates the
    /// access-bit scanning that Ingens/HawkEye-style policies rely on;
    /// disabled (None) unless the OS turns it on.
    utilization: Option<HashMap<u64, Vec<bool>>>,
    /// Optional per-region translation-cost attribution (see the
    /// [`attribution`](crate::attribution) module). Side-band observation:
    /// never touches counters, TLB/cache state, or cycle charges.
    attribution: Option<AttributionTable>,
    /// Telemetry handle (disabled by default: one branch per emit site).
    tracer: Tracer,
}

impl MemorySystem {
    /// Build a memory system from a configuration.
    pub fn new(cfg: MmuConfig) -> Self {
        let geom = PageGeometry::new(cfg.memcfg);
        // Widths of a page table for this geometry determine PWC prefixes.
        let pt = PageTable::new(0, cfg.memcfg);
        let w = pt.level_widths();
        let shifts = [w[1] + w[2] + w[3], w[2] + w[3], w[3]];
        MemorySystem {
            geom,
            cfg,
            dtlb_base: SetAssocTlb::new(cfg.tlb.dtlb_base.entries, cfg.tlb.dtlb_base.ways),
            dtlb_huge: SetAssocTlb::new(cfg.tlb.dtlb_huge.entries, cfg.tlb.dtlb_huge.ways),
            stlb: SetAssocTlb::new(cfg.tlb.stlb.entries, cfg.tlb.stlb.ways),
            pwc: PageWalkCaches::new(cfg.pwc_entries, shifts),
            caches: CacheHierarchy::new(cfg.l1, cfg.l2, cfg.l3),
            counters: PerfCounters::new(),
            utilization: None,
            attribution: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a telemetry tracer; the MMU emits TLB fill/evict and page-walk
    /// events through it. Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Enable per-huge-page utilization tracking (the simulated analogue of
    /// scanning page-table accessed bits, as Ingens/HawkEye do). Costs a
    /// little host time per access; simulated timing is unaffected.
    pub fn track_utilization(&mut self, on: bool) {
        self.utilization = if on { Some(HashMap::new()) } else { None };
    }

    /// Whether per-huge-page utilization tracking is on: every huge-page
    /// access then sets a bit, so the access stream is observed.
    pub fn tracks_utilization(&self) -> bool {
        self.utilization.is_some()
    }

    /// Fraction of the huge page `hvpn`'s base pages that have been touched
    /// since tracking began (None if tracking is off or never touched).
    pub fn utilization_of(&self, hvpn: u64) -> Option<f64> {
        let map = self.utilization.as_ref()?;
        let bits = map.get(&hvpn)?;
        Some(bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64)
    }

    /// The touched-bitmap of huge page `hvpn` (one flag per constituent
    /// base page), if tracking is on and the page was ever accessed.
    pub fn utilization_bitmap(&self, hvpn: u64) -> Option<Vec<bool>> {
        self.utilization.as_ref()?.get(&hvpn).cloned()
    }

    /// Forget the utilization history of `hvpn` (after demotion/unmap).
    pub fn clear_utilization(&mut self, hvpn: u64) {
        if let Some(map) = &mut self.utilization {
            map.remove(&hvpn);
        }
    }

    /// Enable per-region translation-cost attribution (clears any previous
    /// table). Costs a little host time per access; simulated timing and
    /// [`PerfCounters`] are unaffected.
    pub fn enable_attribution(&mut self, on: bool) {
        self.attribution = if on {
            Some(AttributionTable::default())
        } else {
            None
        };
    }

    /// Whether attribution is currently enabled.
    pub fn attribution_enabled(&self) -> bool {
        self.attribution.is_some()
    }

    /// Charge subsequent accesses to `region` (a VMA id threaded in by the
    /// OS). No-op when attribution is disabled, so callers may tag
    /// unconditionally.
    #[inline]
    pub fn set_region(&mut self, region: usize) {
        if let Some(attr) = &mut self.attribution {
            attr.set_region(region);
        }
    }

    /// Per-region counters accumulated so far (None when attribution is
    /// off), indexed by region id.
    pub fn attribution_regions(&self) -> Option<&[RegionCounters]> {
        self.attribution.as_ref().map(AttributionTable::regions)
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MmuConfig {
        &self.cfg
    }

    /// Hardware counters accumulated so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Perform one data access at `vaddr`.
    ///
    /// On success returns the cycle cost; on a translation fault returns
    /// [`Fault`] (with the cycles burned so far) for the OS to handle, after
    /// which the caller retries.
    ///
    /// The base-page L1 TLB hit (the 75–95 % common case on graph kernels)
    /// resolves with one VPN computation and one TLB probe before falling
    /// through to the full translation pipeline: the base DTLB is always
    /// consulted first and short-circuits on a hit, then the huge DTLB,
    /// the STLB, and the hardware walk.
    ///
    /// # Errors
    ///
    /// Returns [`Fault`] when no present translation covers `vaddr`.
    #[inline]
    pub fn access(
        &mut self,
        pt: &PageTable,
        vaddr: VirtAddr,
        is_write: bool,
    ) -> Result<AccessCost, Fault> {
        self.access_probed(pt, vaddr, is_write).map(|(c, _)| c)
    }

    /// [`Self::access`], additionally returning a [`TranslationMemo`] for
    /// the resolved page so the caller can bulk-charge follow-up same-page
    /// accesses through [`Self::charge_page_hits`]. Identical simulated
    /// behaviour to `access` — it *is* `access`; the memo is a pure
    /// out-parameter.
    ///
    /// # Errors
    ///
    /// Returns [`Fault`] when no present translation covers `vaddr`.
    #[inline]
    pub fn access_probed(
        &mut self,
        pt: &PageTable,
        vaddr: VirtAddr,
        is_write: bool,
    ) -> Result<(AccessCost, TranslationMemo), Fault> {
        self.counters.accesses += 1;
        if is_write {
            self.counters.writes += 1;
        } else {
            self.counters.reads += 1;
        }

        let base_vpn = self.geom.page_number(vaddr, PageSize::Base);
        if let Some(e) = self.dtlb_base.lookup(base_vpn, PageSize::Base) {
            let cost = self.finish_data_access(e, vaddr, 0, false);
            return Ok((cost, TranslationMemo { entry: e }));
        }
        let (cost, entry) = self.access_slow(pt, vaddr)?;
        Ok((cost, TranslationMemo { entry }))
    }

    /// Everything past the base-page L1 probe: huge-page L1, STLB, and the
    /// hardware walk. Out of line so the fast path stays small.
    fn access_slow(
        &mut self,
        pt: &PageTable,
        vaddr: VirtAddr,
    ) -> Result<(AccessCost, TlbEntry), Fault> {
        let mut cycles = 0u64;
        let mut walked = false;

        let huge_vpn = self.geom.page_number(vaddr, PageSize::Huge);
        let entry = if let Some(e) = self.dtlb_huge.lookup(huge_vpn, PageSize::Huge) {
            e
        } else {
            self.counters.dtlb_misses += 1;
            if let Some(e) = self.lookup_stlb(vaddr) {
                self.counters.stlb_hits += 1;
                let penalty = self.cfg.cost.stlb_hit_penalty;
                cycles += penalty;
                self.counters.translation_cycles += penalty;
                if let Some(attr) = &mut self.attribution {
                    let c = attr.cur();
                    let i = size_idx(e.size);
                    c.dtlb_misses[i] += 1;
                    c.stlb_hits[i] += 1;
                    c.translation_cycles[i] += penalty;
                }
                self.fill_l1(e);
                e
            } else {
                self.counters.stlb_misses += 1;
                walked = true;
                match self.walk(pt, vaddr) {
                    Ok((e, walk_cycles)) => {
                        cycles += walk_cycles;
                        if let Some(attr) = &mut self.attribution {
                            let c = attr.cur();
                            let i = size_idx(e.size);
                            c.dtlb_misses[i] += 1;
                            c.stlb_misses[i] += 1;
                        }
                        self.fill_l1(e);
                        self.fill_stlb(e);
                        e
                    }
                    Err((kind, walk_cycles)) => {
                        self.counters.faults += 1;
                        if let Some(attr) = &mut self.attribution {
                            let c = attr.cur();
                            // Size never learned: charge the base column,
                            // and count the faulted attempt so per-region
                            // accesses sum to the aggregate.
                            c.accesses[0] += 1;
                            c.dtlb_misses[0] += 1;
                            c.stlb_misses[0] += 1;
                            c.faults += 1;
                        }
                        return Err(Fault {
                            vaddr,
                            kind,
                            cycles: cycles + walk_cycles,
                        });
                    }
                }
            }
        };

        Ok((self.finish_data_access(entry, vaddr, cycles, walked), entry))
    }

    /// The virtual extent a [`TranslationMemo`] covers, as
    /// `(page start, page bytes)` of its mapping page — 2 MB-class spans
    /// for huge entries. Callers cache this to test coverage of follow-up
    /// addresses with two integer compares.
    #[inline]
    pub fn memo_extent(&self, memo: &TranslationMemo) -> (u64, u64) {
        let shift = self.geom.shift(memo.entry.size);
        (memo.entry.vpn << shift, 1u64 << shift)
    }

    /// Bulk-charge `count` same-page accesses — `start`, `start + stride`,
    /// … — that a [`TranslationMemo`] proves would each be scalar L1 TLB
    /// hits, stopping once accrued cycles reach `budget` (the crossing
    /// element is included, because scalar stepping charges an access and
    /// *then* checks the event horizon). "Same-page" means the memo's
    /// *mapping* page: a whole huge page for a huge entry.
    ///
    /// Replays exactly what `count` scalar [`Self::access`] calls would
    /// have done, element for element:
    ///
    /// - access/read/write counters; TLB recency needs no update, because
    ///   the probe left the memo's entry most recently used in its L1
    ///   DTLB, hits on it leave the set as it is, and a missing base probe
    ///   changes nothing (a huge L1 hit is not a `dtlb_misses` event, and
    ///   neither probe charges cycles);
    /// - data caches: within the page, the first access to each L1 line
    ///   (the *line leader*) is a real [`CacheHierarchy::access`] probe —
    ///   its service level is genuinely unknown — while the followers it
    ///   proves resident are bulk-charged L1 hits at L1 cost;
    /// - attribution: `elems` accesses tagged to the current region under
    ///   the entry's page-size column, exactly as n scalar tail calls;
    /// - utilization (huge entries, tracking on): the touched bit of every
    ///   constituent base page a charged element lands on is set, exactly
    ///   the bits n scalar accesses would have set.
    ///
    /// The caller must ensure all `count` elements lie on the memo's
    /// mapping page and that no TLB mutation happened since the memo was
    /// issued.
    pub fn charge_page_hits(
        &mut self,
        memo: &TranslationMemo,
        start: VirtAddr,
        stride: u64,
        count: u64,
        is_write: bool,
        budget: u64,
    ) -> PageRunCharge {
        debug_assert!(count > 0);
        let entry = memo.entry;
        debug_assert_eq!(self.geom.page_number(start, entry.size), entry.vpn);
        debug_assert_eq!(
            self.geom
                .page_number(start.add((count - 1) * stride), entry.size),
            entry.vpn
        );
        // The huge-memo residency argument (see TranslationMemo): no base
        // DTLB entry may shadow any sub-page we are about to bulk-charge.
        #[cfg(debug_assertions)]
        if entry.size == PageSize::Huge {
            for vaddr in [start, start.add((count - 1) * stride)] {
                debug_assert!(
                    !self
                        .dtlb_base
                        .resident(self.geom.page_number(vaddr, PageSize::Base), PageSize::Base),
                    "base DTLB entry shadows a huge-memo sub-page"
                );
            }
        }
        let remote = entry.node != self.cfg.local_node;
        let l1_cost = self.cfg.cost.level_cycles(CacheLevel::L1, remote);
        let line_bytes = self.caches.l1_line_bytes();
        let mut cycles = 0u64;
        let mut elems = 0u64;
        'run: while elems < count {
            let vaddr = start.add(elems * stride);
            let paddr = self.global_paddr(entry, vaddr);
            let level = self.caches.access(paddr);
            let c = self.cfg.cost.level_cycles(level, remote);
            self.counters.data_cycles += c;
            self.counters.data_level_hits[match level {
                CacheLevel::L1 => 0,
                CacheLevel::L2 => 1,
                CacheLevel::L3 => 2,
                CacheLevel::Memory => 3,
            }] += 1;
            cycles += c;
            elems += 1;
            // A single-element charge (a gather's cursor hit) stops here,
            // before the follower arithmetic and its two divisions.
            if cycles >= budget || elems == count {
                break 'run;
            }
            // Followers on the leader's L1 line are guaranteed L1 hits;
            // cap the bulk charge so the budget-crossing element is the
            // last one charged.
            // stride == 0 (gather revisits) divides to None: the whole
            // remainder sits on the leader's line.
            let mut tail = (line_bytes - 1 - (paddr & (line_bytes - 1)))
                .checked_div(stride)
                .map_or(count - elems, |fit| fit.min(count - elems));
            if l1_cost > 0 {
                tail = tail.min((budget - cycles).div_ceil(l1_cost));
            }
            if tail > 0 {
                self.caches.charge_l1_hits(paddr, tail);
                self.counters.data_cycles += l1_cost * tail;
                self.counters.data_level_hits[0] += tail;
                cycles += l1_cost * tail;
                elems += tail;
                if cycles >= budget {
                    break 'run;
                }
            }
        }
        self.counters.accesses += elems;
        if is_write {
            self.counters.writes += elems;
        } else {
            self.counters.reads += elems;
        }
        // No TLB update: the probe left the entry most recently used in its
        // L1 DTLB and nothing has touched that DTLB since, so n more hits
        // leave it as it is. For a huge entry, scalar stepping would also
        // probe the base DTLB first and miss, which changes nothing.
        debug_assert!(
            match entry.size {
                PageSize::Base => self.dtlb_base.is_mru(entry.vpn, PageSize::Base),
                PageSize::Huge => self.dtlb_huge.is_mru(entry.vpn, PageSize::Huge),
            },
            "memo entry is not most recently used in its L1 DTLB"
        );
        if let Some(attr) = &mut self.attribution {
            attr.cur().accesses[size_idx(entry.size)] += elems;
        }
        if entry.size == PageSize::Huge && self.utilization.is_some() {
            // Scalar stepping sets the touched bit of each element's base
            // sub-page; replay that for the charged elements. Bits are
            // idempotent, so marking once per distinct sub-page in element
            // order reproduces the scalar final state.
            let frames = self.geom.frames(PageSize::Huge);
            let base_bytes = self.geom.bytes(PageSize::Base);
            if let Some(map) = &mut self.utilization {
                let bits = map
                    .entry(entry.vpn)
                    .or_insert_with(|| vec![false; frames as usize]);
                let last = self
                    .geom
                    .page_number(start.add((elems - 1) * stride), PageSize::Base);
                // Mark one bit per *distinct* sub-page of the element
                // sequence, jumping straight to the first element past each
                // sub-page boundary instead of walking every element
                // (addresses are non-decreasing in the element index, and
                // bits are idempotent, so the final state is exactly what
                // per-element marking would produce).
                let mut vaddr = start;
                loop {
                    let vpn = self.geom.page_number(vaddr, PageSize::Base);
                    bits[(vpn % frames) as usize] = true;
                    if vpn == last || stride == 0 {
                        break;
                    }
                    let boundary = (vpn + 1) * base_bytes;
                    let k = (boundary - start.0).div_ceil(stride);
                    vaddr = start.add(k * stride);
                }
            }
        }
        PageRunCharge { elems, cycles }
    }

    /// Shared tail of every successful translation: huge-page utilization
    /// tracking plus the data access through the cache hierarchy.
    #[inline]
    fn finish_data_access(
        &mut self,
        entry: TlbEntry,
        vaddr: VirtAddr,
        cycles: u64,
        walked: bool,
    ) -> AccessCost {
        if let Some(attr) = &mut self.attribution {
            attr.cur().accesses[size_idx(entry.size)] += 1;
        }
        if self.utilization.is_some() && entry.size == PageSize::Huge {
            let frames = self.geom.frames(PageSize::Huge) as usize;
            let sub = (vaddr.vpn() % frames as u64) as usize;
            if let Some(map) = &mut self.utilization {
                map.entry(entry.vpn).or_insert_with(|| vec![false; frames])[sub] = true;
            }
        }

        // Data access through the cache hierarchy at the physical address.
        let paddr = self.global_paddr(entry, vaddr);
        let level = self.caches.access(paddr);
        let remote = entry.node != self.cfg.local_node;
        let data_cycles = self.cfg.cost.level_cycles(level, remote);
        self.counters.data_cycles += data_cycles;
        self.counters.data_level_hits[match level {
            CacheLevel::L1 => 0,
            CacheLevel::L2 => 1,
            CacheLevel::L3 => 2,
            CacheLevel::Memory => 3,
        }] += 1;

        AccessCost {
            cycles: cycles + data_cycles,
            level,
            walked,
        }
    }

    fn lookup_stlb(&mut self, vaddr: VirtAddr) -> Option<TlbEntry> {
        let base_vpn = self.geom.page_number(vaddr, PageSize::Base);
        if let Some(e) = self.stlb.lookup(base_vpn, PageSize::Base) {
            return Some(e);
        }
        let huge_vpn = self.geom.page_number(vaddr, PageSize::Huge);
        self.stlb.lookup(huge_vpn, PageSize::Huge)
    }

    fn fill_l1(&mut self, e: TlbEntry) {
        let victim = match e.size {
            PageSize::Base => self.dtlb_base.insert(e),
            PageSize::Huge => self.dtlb_huge.insert(e),
        };
        self.trace_fill(TlbLevel::L1, e, victim);
    }

    fn fill_stlb(&mut self, e: TlbEntry) {
        let victim = self.stlb.insert(e);
        self.trace_fill(TlbLevel::Stlb, e, victim);
    }

    /// Emit fill/evict events for one TLB insertion. The mask pre-check
    /// keeps this to a single branch when tracing is off or these
    /// (per-access volume) hardware events are masked out.
    fn trace_fill(&self, level: TlbLevel, e: TlbEntry, victim: Option<TlbEntry>) {
        if !self
            .tracer
            .wants(EventMask::TLB_FILL | EventMask::TLB_EVICT)
        {
            return;
        }
        self.tracer.emit(EventKind::TlbFill {
            level,
            huge: e.size == PageSize::Huge,
            vpn: e.vpn,
        });
        if let Some(v) = victim {
            self.tracer.emit(EventKind::TlbEvict {
                level,
                huge: v.size == PageSize::Huge,
                vpn: v.vpn,
            });
        }
    }

    /// Hardware page walk: consult the page-walk caches, charge each PTE
    /// read through the data caches, and fill the PWCs on the way out.
    fn walk(
        &mut self,
        pt: &PageTable,
        vaddr: VirtAddr,
    ) -> Result<(TlbEntry, u64), (FaultKind, u64)> {
        let (path, result) = pt.walk_path(vaddr);
        let vpn = vaddr.vpn();
        // Levels that point at tables: all but the last path element.
        let table_levels = path.len().saturating_sub(1);
        let pwc_hit = self.pwc.deepest_hit(vpn, table_levels);
        let skip = match pwc_hit {
            Some(level) => level + 1,
            None => 0,
        };
        let mut cycles = self.cfg.cost.walk_base;
        let mut pte_reads = 0u32;
        for (frame, offset, node) in path.iter().skip(skip) {
            let paddr = Self::compose_paddr(*node, *frame, *offset);
            let level = self.caches.access(paddr);
            let remote = *node != self.cfg.local_node;
            cycles += self.cfg.cost.level_cycles(level, remote);
            self.counters.walk_pte_reads += 1;
            pte_reads += 1;
        }
        self.counters.translation_cycles += cycles;
        if let Some(attr) = &mut self.attribution {
            let c = attr.cur();
            match result {
                WalkResult::Mapped(leaf) => {
                    let i = size_idx(leaf.size);
                    c.walk_pte_reads[i] += u64::from(pte_reads);
                    c.translation_cycles[i] += cycles;
                    c.walk_latency.record(cycles);
                }
                // Faulting walks: size never learned, so PTE reads land in
                // the base column and the cycles in `fault_cycles` (the
                // latency histogram holds only completed walks).
                WalkResult::NotMapped | WalkResult::Swapped(_) => {
                    c.walk_pte_reads[0] += u64::from(pte_reads);
                    c.fault_cycles += cycles;
                }
            }
        }
        match result {
            WalkResult::Mapped(leaf) => {
                self.pwc.fill(vpn, table_levels);
                if self.tracer.wants(EventMask::PAGE_WALK) {
                    self.tracer.emit(EventKind::PageWalk {
                        vaddr: vaddr.0,
                        pte_reads,
                        cycles: cycles as u32,
                        huge_leaf: leaf.size == PageSize::Huge,
                    });
                }
                let entry = TlbEntry {
                    vpn: self.geom.page_number(vaddr, leaf.size),
                    size: leaf.size,
                    frame: leaf.frame,
                    node: leaf.node,
                };
                Ok((entry, cycles))
            }
            WalkResult::NotMapped => Err((FaultKind::NotMapped, cycles)),
            WalkResult::Swapped(slot) => Err((FaultKind::SwappedOut(slot), cycles)),
        }
    }

    /// Synthesize a globally unique physical address for cache indexing
    /// from a (node, zone-local frame) pair.
    fn compose_paddr(node: NodeId, frame: u64, offset: u64) -> u64 {
        const NODE_SPAN_FRAMES: u64 = 1 << 26; // 256 GiB per node
        (node as u64 * NODE_SPAN_FRAMES + frame) * FRAME_SIZE + offset
    }

    fn global_paddr(&self, entry: TlbEntry, vaddr: VirtAddr) -> u64 {
        let page_bytes = self.geom.bytes(entry.size);
        let offset = vaddr.0 & (page_bytes - 1);
        Self::compose_paddr(entry.node, entry.frame, 0) + offset
    }

    /// Invalidate any TLB and paging-structure-cache entries covering
    /// `vaddr` at `size` (single-page shootdown, e.g. after migration).
    pub fn invalidate_page(&mut self, vaddr: VirtAddr, size: PageSize) {
        let vpn = self.geom.page_number(vaddr, size);
        match size {
            PageSize::Base => {
                self.dtlb_base.invalidate(vpn, PageSize::Base);
                self.stlb.invalidate(vpn, PageSize::Base);
            }
            PageSize::Huge => {
                self.dtlb_huge.invalidate(vpn, PageSize::Huge);
                self.stlb.invalidate(vpn, PageSize::Huge);
            }
        }
        self.pwc.invalidate_leaf_dir(vaddr.vpn());
    }

    /// Full TLB + paging-structure-cache shootdown (bulk remappings:
    /// promotion, demotion, compaction sweeps).
    pub fn flush_tlb(&mut self) {
        self.dtlb_base.flush();
        self.dtlb_huge.flush();
        self.stlb.flush();
        self.pwc.flush();
    }

    /// Data cache hit/miss statistics per level (L1→L3).
    pub fn cache_stats(&self) -> [(u64, u64); 3] {
        self.caches.level_stats()
    }

    /// Feed the way state to `f` as word runs (the three TLBs, then each
    /// page-walk-cache level, then each data-cache level), stopping at the
    /// first run `f` rejects. Returns whether every run was accepted.
    fn for_each_way_run(&self, mut f: impl FnMut(&[u64]) -> bool) -> bool {
        let mut tlbs = Vec::new();
        for tlb in [&self.dtlb_base, &self.dtlb_huge, &self.stlb] {
            tlb.push_ways(&mut tlbs);
        }
        f(&tlbs)
            && self.pwc.ways().iter().all(|level| f(level))
            && self.caches.ways().into_iter().all(f)
    }

    /// Copy every TLB, page-walk-cache and data-cache way into `snap`,
    /// reusing its buffer.
    pub fn snapshot_ways(&self, snap: &mut WaySnapshot) {
        snap.words.clear();
        self.for_each_way_run(|run| {
            snap.words.extend_from_slice(run);
            true
        });
    }

    /// Whether every TLB, page-walk-cache and data-cache way holds what it
    /// held when `snap` was taken, recency order included.
    pub fn ways_match(&self, snap: &WaySnapshot) -> bool {
        let mut rest = snap.words.as_slice();
        self.for_each_way_run(|run| match rest.split_at_checked(run.len()) {
            Some((head, tail)) if head == run => {
                rest = tail;
                true
            }
            _ => false,
        }) && rest.is_empty()
    }

    /// Add the counters of accesses that were accounted without being
    /// simulated (a replayed epoch): hardware counters and per-level
    /// data-cache `(hits, misses)`, L1 → L3. TLB and cache contents are
    /// left as they are.
    pub fn add_unsimulated(&mut self, perf: &PerfCounters, cache: &[(u64, u64); 3]) {
        self.counters.accumulate(perf);
        self.caches.add_level_stats(cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_physmem::{MemConfig, Owner, Zone};

    struct Rig {
        zone: Zone,
        pt: PageTable,
        mmu: MemorySystem,
    }

    fn rig(order: u8) -> Rig {
        let memcfg = MemConfig::with_huge_order(order);
        Rig {
            zone: Zone::new(1, 256 * memcfg.huge_frames(), memcfg),
            pt: PageTable::new(1, memcfg),
            mmu: MemorySystem::new(MmuConfig::haswell(memcfg)),
        }
    }

    fn map_base(r: &mut Rig, vaddr: u64) -> u64 {
        let f = r.zone.alloc_frame(Owner::user()).unwrap();
        let zone = &mut r.zone;
        r.pt.map(VirtAddr(vaddr), PageSize::Base, f, 1, &mut || {
            zone.alloc_frame(Owner::Kernel)
        })
        .unwrap();
        f
    }

    #[test]
    fn unmapped_access_faults_with_cycles() {
        let mut r = rig(9);
        let err = r.mmu.access(&r.pt, VirtAddr(0x1000), false).unwrap_err();
        assert_eq!(err.kind, FaultKind::NotMapped);
        assert_eq!(r.mmu.counters().faults, 1);
        // Empty root: no PTE reads possible, zero walk cycles is fine.
        map_base(&mut r, 0x1000);
        let err2 = r.mmu.access(&r.pt, VirtAddr(0x2000), false).unwrap_err();
        // Now the walk reads real PTEs before discovering the hole.
        assert!(err2.cycles > 0);
    }

    #[test]
    fn second_access_hits_dtlb() {
        let mut r = rig(9);
        map_base(&mut r, 0x5000);
        let first = r.mmu.access(&r.pt, VirtAddr(0x5000), false).unwrap();
        assert!(first.walked);
        let second = r.mmu.access(&r.pt, VirtAddr(0x5100), true).unwrap();
        assert!(!second.walked);
        assert!(second.cycles < first.cycles);
        let c = r.mmu.counters();
        assert_eq!(c.accesses, 2);
        assert_eq!(c.dtlb_misses, 1);
        assert_eq!(c.stlb_misses, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn dtlb_capacity_evictions_hit_stlb() {
        let mut r = rig(9);
        // Map enough pages to overflow the 64-entry L1 DTLB but stay well
        // inside the 1024-entry STLB.
        for i in 0..256u64 {
            map_base(&mut r, i * 4096);
        }
        // Touch all pages once (cold walks), then again (DTLB misses that
        // hit STLB for most).
        for i in 0..256u64 {
            r.mmu.access(&r.pt, VirtAddr(i * 4096), false).unwrap();
        }
        let walks_cold = r.mmu.counters().stlb_misses;
        assert_eq!(walks_cold, 256);
        for i in 0..256u64 {
            r.mmu.access(&r.pt, VirtAddr(i * 4096), false).unwrap();
        }
        let c = r.mmu.counters();
        assert_eq!(c.stlb_misses, 256, "second sweep must not walk");
        assert!(c.stlb_hits > 150, "most second-sweep misses hit STLB");
    }

    #[test]
    fn huge_mapping_uses_huge_dtlb_and_covers_region() {
        let mut r = rig(9);
        let cfg = r.zone.config();
        let hr = r.zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let hv = VirtAddr(cfg.huge_bytes() * 4);
        let zone = &mut r.zone;
        r.pt.map(hv, PageSize::Huge, hr.base, 1, &mut || {
            zone.alloc_frame(Owner::Kernel)
        })
        .unwrap();
        r.mmu.access(&r.pt, hv, false).unwrap();
        // Any address within the huge page hits the DTLB now.
        let far = hv.add(cfg.huge_bytes() - 64);
        let cost = r.mmu.access(&r.pt, far, false).unwrap();
        assert!(!cost.walked);
        assert_eq!(r.mmu.counters().dtlb_misses, 1);
    }

    #[test]
    fn swapped_page_faults_with_slot() {
        let mut r = rig(9);
        map_base(&mut r, 0x3000);
        r.pt.set_swapped(VirtAddr(0x3000), 55).unwrap();
        let err = r.mmu.access(&r.pt, VirtAddr(0x3000), false).unwrap_err();
        assert_eq!(err.kind, FaultKind::SwappedOut(55));
    }

    #[test]
    fn stale_tlb_after_remap_requires_invalidate() {
        let mut r = rig(9);
        map_base(&mut r, 0x9000);
        r.mmu.access(&r.pt, VirtAddr(0x9000), false).unwrap();
        // Unmap behind the TLB's back: access still "hits" (stale), which is
        // why the OS must shoot down.
        r.pt.unmap(VirtAddr(0x9000)).unwrap();
        assert!(r.mmu.access(&r.pt, VirtAddr(0x9000), false).is_ok());
        r.mmu.invalidate_page(VirtAddr(0x9000), PageSize::Base);
        assert!(r.mmu.access(&r.pt, VirtAddr(0x9000), false).is_err());
    }

    #[test]
    fn flush_tlb_forces_walks() {
        let mut r = rig(9);
        map_base(&mut r, 0x1000);
        r.mmu.access(&r.pt, VirtAddr(0x1000), false).unwrap();
        r.mmu.flush_tlb();
        let cost = r.mmu.access(&r.pt, VirtAddr(0x1000), false).unwrap();
        assert!(cost.walked);
    }

    #[test]
    fn pwc_shortens_neighbouring_walks() {
        let mut r = rig(9);
        map_base(&mut r, 0x0000);
        map_base(&mut r, 0x1000);
        r.mmu.access(&r.pt, VirtAddr(0x0000), false).unwrap();
        let reads_after_first = r.mmu.counters().walk_pte_reads;
        assert_eq!(reads_after_first, 4);
        r.mmu.access(&r.pt, VirtAddr(0x1000), false).unwrap();
        // Second walk skips the three upper levels via the PDE cache.
        assert_eq!(r.mmu.counters().walk_pte_reads, reads_after_first + 1);
    }

    /// `charge_page_hits` must equal n scalar accesses on a warmed base
    /// page — counters, cache state, TLB recency — for strides that stay
    /// within and that straddle L1 lines, and regardless of where a cycle
    /// budget splits the run.
    #[test]
    fn bulk_page_charge_matches_scalar_base_page() {
        for stride in [4u64, 8, 64, 96] {
            for budget_split in [u64::MAX, 1, 57, 300] {
                let mut fast = rig(9);
                let mut scalar = rig(9);
                map_base(&mut fast, 0x4000);
                map_base(&mut scalar, 0x4000);
                let count = (4096 - 4) / stride; // elements after the probe
                let (probe_f, memo) = fast
                    .mmu
                    .access_probed(&fast.pt, VirtAddr(0x4000), false)
                    .unwrap();
                let probe_s = scalar
                    .mmu
                    .access(&scalar.pt, VirtAddr(0x4000), false)
                    .unwrap();
                assert_eq!(probe_f, probe_s);
                // Fast side: charge with an arbitrary first budget, then
                // finish the remainder unbudgeted (as the OS loop does
                // after servicing its event horizon).
                let start = VirtAddr(0x4000 + stride);
                let c1 = fast
                    .mmu
                    .charge_page_hits(&memo, start, stride, count, true, budget_split);
                let mut done = c1.elems;
                let mut fast_cycles = c1.cycles;
                if done < count {
                    let rest = fast.mmu.charge_page_hits(
                        &memo,
                        start.add(done * stride),
                        stride,
                        count - done,
                        true,
                        u64::MAX,
                    );
                    done += rest.elems;
                    fast_cycles += rest.cycles;
                }
                assert_eq!(done, count);
                // Scalar side: one access per element.
                let mut scalar_cycles = 0u64;
                for i in 0..count {
                    let cost = scalar
                        .mmu
                        .access(&scalar.pt, start.add(i * stride), true)
                        .unwrap();
                    scalar_cycles += cost.cycles;
                }
                assert_eq!(fast_cycles, scalar_cycles, "stride {stride}");
                assert_eq!(fast.mmu.counters(), scalar.mmu.counters());
                assert_eq!(fast.mmu.cache_stats(), scalar.mmu.cache_stats());
                // Recency canary: drive both through an identical follow-up
                // stream that forces evictions; divergent recency order
                // would surface as divergent costs or counters.
                for i in 0..200u64 {
                    map_base(&mut fast, 0x100_0000 + i * 0x1000);
                    map_base(&mut scalar, 0x100_0000 + i * 0x1000);
                    let a = VirtAddr(0x100_0000 + i * 0x1000);
                    let rf = fast.mmu.access(&fast.pt, a, false);
                    let rs = scalar.mmu.access(&scalar.pt, a, false);
                    assert_eq!(rf, rs);
                }
                assert_eq!(fast.mmu.counters(), scalar.mmu.counters());
            }
        }
    }

    /// Same equivalence on a huge-page mapping: bulk charges must leave both
    /// DTLBs as the scalar hits do, with attribution landing in the huge
    /// column.
    #[test]
    fn bulk_page_charge_matches_scalar_huge_page() {
        let mut fast = rig(9);
        let mut scalar = rig(9);
        for r in [&mut fast, &mut scalar] {
            let cfg = r.zone.config();
            let hr = r.zone.alloc(cfg.huge_order, Owner::user()).unwrap();
            let hv = VirtAddr(cfg.huge_bytes() * 2);
            let zone = &mut r.zone;
            r.pt.map(hv, PageSize::Huge, hr.base, 1, &mut || {
                zone.alloc_frame(Owner::Kernel)
            })
            .unwrap();
            r.mmu.enable_attribution(true);
            r.mmu.set_region(3);
            // Warm the base DTLB with a base page so its huge-run misses
            // probe a non-empty array on both sides.
            map_base(r, 0x1000);
            r.mmu.access(&r.pt, VirtAddr(0x1000), false).unwrap();
        }
        let hv = VirtAddr(fast.zone.config().huge_bytes() * 2);
        let (probe_f, memo) = fast.mmu.access_probed(&fast.pt, hv, false).unwrap();
        let probe_s = scalar.mmu.access(&scalar.pt, hv, false).unwrap();
        assert_eq!(probe_f, probe_s);
        let start = hv.add(8);
        let charge = fast
            .mmu
            .charge_page_hits(&memo, start, 8, 511, false, u64::MAX);
        assert_eq!(charge.elems, 511);
        let mut scalar_cycles = 0;
        for i in 0..511u64 {
            scalar_cycles += scalar
                .mmu
                .access(&scalar.pt, start.add(i * 8), false)
                .unwrap()
                .cycles;
        }
        assert_eq!(charge.cycles, scalar_cycles);
        assert_eq!(fast.mmu.counters(), scalar.mmu.counters());
        assert_eq!(fast.mmu.cache_stats(), scalar.mmu.cache_stats());
        let (af, asc) = (
            fast.mmu.attribution_regions().unwrap()[3].clone(),
            scalar.mmu.attribution_regions().unwrap()[3].clone(),
        );
        assert_eq!(af, asc);
        assert_eq!(af.accesses[1], 512, "all huge-page accesses attributed");
    }

    #[test]
    fn remote_data_costs_more_than_local() {
        let memcfg = MemConfig::default();
        let mut zone0 = Zone::new(0, 1024, memcfg);
        let mut pt = PageTable::new(0, memcfg);
        let mut mmu = MemorySystem::new(MmuConfig::haswell(memcfg)); // local node 1
        let f = zone0.alloc_frame(Owner::user()).unwrap();
        pt.map(VirtAddr(0x1000), PageSize::Base, f, 0, &mut || {
            zone0.alloc_frame(Owner::Kernel)
        })
        .unwrap();
        let remote_cost = mmu.access(&pt, VirtAddr(0x1000), false).unwrap();
        // Compare against a local-node mapping of the same shape.
        let mut rloc = rig(9);
        map_base(&mut rloc, 0x1000);
        let local_cost = rloc.mmu.access(&rloc.pt, VirtAddr(0x1000), false).unwrap();
        assert!(remote_cost.cycles > local_cost.cycles);
    }
}
