//! Per-region (per-VMA) attribution of translation costs.
//!
//! The paper's central analytical move is attributing TLB misses to the
//! data structure that caused them (Fig. 4/5): the property array, accessed
//! via pointer indirection, is responsible for the majority of DTLB misses,
//! which justifies backing only it with huge pages. [`PerfCounters`]
//! aggregates over the whole core; this module keeps a side-band
//! [`RegionCounters`] per region id (the OS threads VMA ids through
//! [`MemorySystem::set_region`](crate::MemorySystem::set_region)) so every
//! miss, walk PTE read, translation cycle, and fault is charged to the
//! array that triggered it, split by the page size that ultimately
//! translated the access.
//!
//! Attribution is pure observation: recording never touches the simulated
//! clock, the TLB/cache state, or [`PerfCounters`] — a run with attribution
//! enabled is bit-identical to one without (enforced by the differential
//! tests). Per-region counters reconcile exactly with the aggregate:
//! summing any field over all regions yields the corresponding
//! [`PerfCounters`] field.
//!
//! Events whose page size is never learned (a walk that faults) are charged
//! to the base-page column, and the cycles burned discovering the fault go
//! to [`RegionCounters::fault_cycles`] rather than the walk-latency
//! histogram, which only holds *successful* walks.
//!
//! [`PerfCounters`]: crate::PerfCounters

use graphmem_telemetry::counters::Cumulative;
use graphmem_telemetry::Histogram;

use crate::addr::PageSize;

/// Column index for a page size: 0 = base, 1 = huge.
#[inline]
pub fn size_idx(size: PageSize) -> usize {
    match size {
        PageSize::Base => 0,
        PageSize::Huge => 1,
    }
}

graphmem_telemetry::counters! {
    /// Translation-cost counters for one region (VMA), split by the page size
    /// that translated each event (`[base, huge]`).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RegionCounters {
        cumulative {
            /// Accesses attributed to the region (faulting attempts count under
            /// base, like every size-unknown event).
            accesses: [u64; 2],
            /// First-level DTLB misses.
            dtlb_misses: [u64; 2],
            /// DTLB misses that hit the unified STLB.
            stlb_hits: [u64; 2],
            /// DTLB misses that also missed the STLB → hardware page walks.
            stlb_misses: [u64; 2],
            /// PTE reads issued by the page walker on the region's behalf.
            walk_pte_reads: [u64; 2],
            /// Translation cycles (STLB penalties + successful walk cycles).
            translation_cycles: [u64; 2],
            /// Faults surfaced to the OS while accessing the region.
            faults: u64,
            /// Cycles burned by walks that ended in a fault (kept out of
            /// [`Self::walk_latency`] so the histogram only holds completed walks).
            fault_cycles: u64,
            /// Log₂ histogram of successful page-walk latencies (cycles).
            walk_latency: Histogram,
        }
    }
}

impl RegionCounters {
    /// Total accesses, both page sizes.
    pub fn accesses_total(&self) -> u64 {
        self.accesses[0] + self.accesses[1]
    }

    /// Total DTLB misses, both page sizes.
    pub fn dtlb_misses_total(&self) -> u64 {
        self.dtlb_misses[0] + self.dtlb_misses[1]
    }

    /// Total STLB misses (hardware walks), both page sizes.
    pub fn stlb_misses_total(&self) -> u64 {
        self.stlb_misses[0] + self.stlb_misses[1]
    }

    /// Total translation cycles including fault discovery — reconciles with
    /// [`PerfCounters::translation_cycles`](crate::PerfCounters).
    pub fn translation_cycles_total(&self) -> u64 {
        self.translation_cycles[0] + self.translation_cycles[1] + self.fault_cycles
    }

    /// Cycles spent in hardware page walks (successful + faulting).
    pub fn walk_cycles_total(&self) -> u64 {
        self.walk_latency.sum() + self.fault_cycles
    }

    /// Fraction of the region's accesses translated by a huge page.
    pub fn huge_access_fraction(&self) -> f64 {
        let total = self.accesses_total();
        if total == 0 {
            0.0
        } else {
            self.accesses[1] as f64 / total as f64
        }
    }
}

/// The per-region attribution table owned by a
/// [`MemorySystem`](crate::MemorySystem): a current-region cursor plus one
/// [`RegionCounters`] per region id.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttributionTable {
    current: usize,
    regions: Vec<RegionCounters>,
}

impl AttributionTable {
    /// Point subsequent recordings at `region`, growing the table on
    /// demand.
    #[inline]
    pub(crate) fn set_region(&mut self, region: usize) {
        if region >= self.regions.len() {
            self.regions
                .resize_with(region + 1, RegionCounters::default);
        }
        self.current = region;
    }

    /// Counters of the current region.
    #[inline]
    pub(crate) fn cur(&mut self) -> &mut RegionCounters {
        if self.regions.is_empty() {
            self.regions.push(RegionCounters::default());
        }
        &mut self.regions[self.current]
    }

    /// All per-region counters, indexed by region id.
    pub(crate) fn regions(&self) -> &[RegionCounters] {
        &self.regions
    }

    /// Add per-region changes, indexed by region id, growing the table on
    /// demand. The cursor stays where it is.
    pub(crate) fn add(&mut self, deltas: &[RegionCounters]) {
        if deltas.len() > self.regions.len() {
            self.regions
                .resize_with(deltas.len(), RegionCounters::default);
        }
        for (r, d) in self.regions.iter_mut().zip(deltas) {
            Cumulative::accumulate(r, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_telemetry::json::JsonValue;

    #[test]
    fn table_grows_on_demand_and_tracks_cursor() {
        let mut t = AttributionTable::default();
        t.cur().accesses[0] += 1; // before any region: lands in region 0
        t.set_region(3);
        t.cur().accesses[1] += 5;
        assert_eq!(t.regions().len(), 4);
        assert_eq!(t.regions()[0].accesses, [1, 0]);
        assert_eq!(t.regions()[3].accesses, [0, 5]);
        assert_eq!(t.regions()[3].accesses_total(), 5);
        assert_eq!(t.regions()[3].huge_access_fraction(), 1.0);
    }

    #[test]
    fn totals_reconcile_fields() {
        let mut c = RegionCounters {
            translation_cycles: [10, 20],
            fault_cycles: 5,
            ..Default::default()
        };
        c.walk_latency.record(12);
        c.walk_latency.record(18);
        assert_eq!(c.translation_cycles_total(), 35);
        assert_eq!(c.walk_cycles_total(), 35);
        assert_eq!(c.huge_access_fraction(), 0.0);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut c = RegionCounters {
            accesses: [100, 50],
            dtlb_misses: [10, 2],
            stlb_hits: [4, 1],
            stlb_misses: [6, 1],
            walk_pte_reads: [19, 2],
            translation_cycles: [900, 80],
            faults: 3,
            fault_cycles: 120,
            walk_latency: Histogram::new(),
        };
        c.walk_latency.record(150);
        c.walk_latency.record(40);
        let text = c.to_json();
        let back = RegionCounters::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn from_json_rejects_short_pairs() {
        let v = JsonValue::parse(r#"{"accesses":[1]}"#).unwrap();
        assert!(RegionCounters::from_json_value(&v).is_err());
    }
}
