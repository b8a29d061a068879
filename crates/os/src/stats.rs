//! OS-level event counters.

graphmem_telemetry::counters! {
    /// Cumulative kernel event counts for a [`System`](crate::System).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OsStats {
        cumulative {
            /// Page faults handled.
            faults: u64,
            /// Faults satisfied with a huge page.
            huge_faults: u64,
            /// Faults satisfied with a base page.
            base_faults: u64,
            /// Faults that were huge-eligible but fell back to a base page
            /// (no huge block free and compaction failed/disabled).
            huge_fallbacks: u64,
            /// Direct (fault-time) compaction invocations.
            direct_compactions: u64,
            /// Pageblocks freed by compaction (direct + khugepaged).
            blocks_compacted: u64,
            /// Frames migrated by compaction.
            frames_migrated: u64,
            /// Huge-page promotions performed by khugepaged.
            promotions: u64,
            /// khugepaged scan passes.
            khugepaged_scans: u64,
            /// Huge pages demoted (split) — swap pressure or explicit.
            demotions: u64,
            /// Huge pages demoted by the utilization daemon (bloat splits).
            util_demotions: u64,
            /// Untouched base frames reclaimed after utilization demotions.
            bloat_frames_reclaimed: u64,
            /// Frames written out to swap.
            swap_outs: u64,
            /// Frames read back from swap.
            swap_ins: u64,
            /// Page-cache frames reclaimed.
            cache_reclaims: u64,
            /// Frames loaded into the page cache.
            cache_fills: u64,
            /// Cycles spent inside the kernel (faults, compaction, reclaim, I/O).
            kernel_cycles: u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = OsStats {
            faults: 5,
            kernel_cycles: 100,
            ..OsStats::default()
        };
        let b = OsStats {
            faults: 12,
            kernel_cycles: 450,
            ..OsStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.faults, 7);
        assert_eq!(d.kernel_cycles, 350);
    }
}
