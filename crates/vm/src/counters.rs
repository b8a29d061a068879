//! Hardware performance counters, mirroring what the paper records with
//! `perf` (TLB miss rates, STLB miss rates, page-walk activity).

graphmem_telemetry::counters! {
    /// Cumulative hardware event counts for one [`MemorySystem`](crate::MemorySystem).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PerfCounters {
        cumulative {
            /// Data accesses performed (loads + stores).
            accesses: u64,
            /// Loads.
            reads: u64,
            /// Stores.
            writes: u64,
            /// First-level DTLB misses.
            dtlb_misses: u64,
            /// DTLB misses that hit the unified STLB.
            stlb_hits: u64,
            /// DTLB misses that also missed the STLB → hardware page walks.
            stlb_misses: u64,
            /// PTE reads issued by the page walker (after page-walk-cache skips).
            walk_pte_reads: u64,
            /// Cycles spent in address translation (STLB penalties + walk PTE
            /// reads), i.e. the shaded overhead of the paper's Fig. 2.
            translation_cycles: u64,
            /// Cycles spent in data accesses after translation.
            data_cycles: u64,
            /// Data accesses serviced by each level: L1, L2, L3, DRAM.
            data_level_hits: [u64; 4],
            /// Faults surfaced to the OS (page not present / swapped).
            faults: u64,
        }
    }
}

impl PerfCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// DTLB miss rate: fraction of accesses missing the first-level DTLB
    /// (the full bar height of the paper's Fig. 3).
    pub fn dtlb_miss_rate(&self) -> f64 {
        ratio(self.dtlb_misses, self.accesses)
    }

    /// STLB miss rate: fraction of accesses that walked the page table
    /// (the shaded portion of the paper's Fig. 3 bars).
    pub fn stlb_miss_rate(&self) -> f64 {
        ratio(self.stlb_misses, self.accesses)
    }

    /// Fraction of `total_cycles` spent on address translation (Fig. 2).
    pub fn translation_overhead(&self, total_cycles: u64) -> f64 {
        ratio(self.translation_cycles, total_cycles)
    }

    /// Total cycles the memory system charged (translation + data).
    pub fn memory_cycles(&self) -> u64 {
        self.translation_cycles + self.data_cycles
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominator() {
        let c = PerfCounters::new();
        assert_eq!(c.dtlb_miss_rate(), 0.0);
        assert_eq!(c.stlb_miss_rate(), 0.0);
        assert_eq!(c.translation_overhead(0), 0.0);
    }

    #[test]
    fn rates_compute() {
        let c = PerfCounters {
            accesses: 100,
            dtlb_misses: 25,
            stlb_misses: 10,
            translation_cycles: 50,
            data_cycles: 150,
            ..PerfCounters::default()
        };
        assert_eq!(c.dtlb_miss_rate(), 0.25);
        assert_eq!(c.stlb_miss_rate(), 0.10);
        assert_eq!(c.translation_overhead(200), 0.25);
        assert_eq!(c.memory_cycles(), 200);
    }

    #[test]
    fn rates_are_zero_when_no_accesses_even_with_miss_counts() {
        // A counter snapshot taken mid-fault can have miss events charged
        // before the access retires; rates must not divide by zero.
        let c = PerfCounters {
            dtlb_misses: 7,
            stlb_misses: 3,
            translation_cycles: 90,
            ..PerfCounters::default()
        };
        assert_eq!(c.accesses, 0);
        assert_eq!(c.dtlb_miss_rate(), 0.0);
        assert_eq!(c.stlb_miss_rate(), 0.0);
        assert_eq!(c.translation_overhead(0), 0.0);
        assert_eq!(c.memory_cycles(), 90);
    }

    #[test]
    fn since_self_is_zero() {
        let c = PerfCounters {
            accesses: 42,
            reads: 30,
            writes: 12,
            dtlb_misses: 9,
            stlb_hits: 5,
            stlb_misses: 4,
            walk_pte_reads: 11,
            translation_cycles: 77,
            data_cycles: 123,
            data_level_hits: [6, 5, 4, 3],
            faults: 2,
        };
        assert_eq!(c.since(&c), PerfCounters::default());
    }

    #[test]
    fn since_then_rates_give_interval_rates() {
        let earlier = PerfCounters {
            accesses: 100,
            dtlb_misses: 50,
            stlb_misses: 25,
            ..PerfCounters::default()
        };
        let later = PerfCounters {
            accesses: 300,
            dtlb_misses: 70,
            stlb_misses: 35,
            ..PerfCounters::default()
        };
        let d = later.since(&earlier);
        // Cumulative rates (later) differ from the interval rates (delta):
        // the delta isolates the most recent phase.
        assert_eq!(d.dtlb_miss_rate(), 0.10);
        assert_eq!(d.stlb_miss_rate(), 0.05);
        assert!(later.dtlb_miss_rate() > d.dtlb_miss_rate());
    }

    #[test]
    fn since_subtracts() {
        let a = PerfCounters {
            accesses: 10,
            data_level_hits: [1, 2, 3, 4],
            ..PerfCounters::default()
        };
        let b = PerfCounters {
            accesses: 25,
            data_level_hits: [2, 4, 6, 8],
            ..PerfCounters::default()
        };
        let d = b.since(&a);
        assert_eq!(d.accesses, 15);
        assert_eq!(d.data_level_hits, [1, 2, 3, 4]);
    }
}
