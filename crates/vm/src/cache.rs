//! Set-associative data cache hierarchy.
//!
//! Both application data accesses and page-walk PTE reads are charged
//! through this model, because page walks hit the regular cache hierarchy on
//! real x86 CPUs (paper §2.2: "Most DTLB misses result in STLB misses,
//! incurring costly page table walks to CPU caches and DRAM").

use crate::lru::{touch, INVALID};

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hash the set index over higher address bits (Intel LLCs distribute
    /// addresses across slices with such a hash). Defeats the pathological
    /// phase-locking that pure modulo indexing exhibits when same-sized
    /// arrays are allocated physically contiguously.
    pub hashed_index: bool,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non power-of-two
    /// set count).
    pub fn sets(&self) -> u64 {
        assert!(self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes as u64);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// First-level data cache hit.
    L1,
    /// Second-level cache hit.
    L2,
    /// Last-level cache hit.
    L3,
    /// Missed everywhere; serviced by DRAM.
    Memory,
}

/// One set-associative, LRU, physically-indexed cache level.
///
/// Each way is one line address; an 8-way set is exactly one 64-byte host
/// cache line. Sets are kept in recency order (see [`crate::lru`]), so a
/// hit on the most-recently-used line — the common case — costs one
/// compare and no shift.
#[derive(Debug)]
struct CacheArray {
    /// `sets - 1`; the set count is a power of two, so indexing is a mask
    /// (a hardware divide here dominates the whole simulated access path).
    set_mask: u64,
    /// `log2(sets)`, used by the slice-hash fold.
    set_bits: u32,
    ways: u32,
    line_shift: u8,
    hashed_index: bool,
    /// `lines[set * ways..][..ways]`: the set's line addresses,
    /// most-recently-used first, with invalid ways ([`INVALID`]) trailing.
    lines: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        let n = (sets * geom.ways as u64) as usize;
        CacheArray {
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            ways: geom.ways,
            line_shift: geom.line_bytes.trailing_zeros() as u8,
            hashed_index: geom.hashed_index,
            lines: vec![INVALID; n],
            hits: 0,
            misses: 0,
        }
    }

    /// The set holding `line`.
    #[inline]
    fn set(&mut self, line: u64) -> &mut [u64] {
        let index_key = if self.hashed_index {
            // Fold higher address bits into the index (slice-hash style).
            let b = self.set_bits;
            line ^ (line >> b) ^ (line >> (2 * b))
        } else {
            line
        };
        let ways = self.ways as usize;
        let base = (index_key & self.set_mask) as usize * ways;
        &mut self.lines[base..base + ways]
    }

    /// Look up (and on miss, fill) the line containing `paddr`.
    #[inline]
    fn access(&mut self, paddr: u64) -> bool {
        let line = paddr >> self.line_shift;
        let hit = touch(self.set(line), line);
        self.hits += hit as u64;
        self.misses += !hit as u64;
        hit
    }

    fn flush(&mut self) {
        self.lines.fill(INVALID);
    }
}

/// A three-level inclusive-fill cache hierarchy.
///
/// Writes are modelled identically to reads (write-allocate, no separate
/// write-back charge); this keeps the model simple while preserving the
/// locality behaviour that matters for the paper's experiments.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: CacheArray,
    l2: CacheArray,
    l3: CacheArray,
}

impl CacheHierarchy {
    /// Build a hierarchy from three level geometries.
    pub fn new(l1: CacheGeometry, l2: CacheGeometry, l3: CacheGeometry) -> Self {
        CacheHierarchy {
            l1: CacheArray::new(l1),
            l2: CacheArray::new(l2),
            l3: CacheArray::new(l3),
        }
    }

    /// Access the line containing physical address `paddr`; returns the
    /// level that serviced it, filling all levels above.
    #[inline]
    pub fn access(&mut self, paddr: u64) -> CacheLevel {
        if self.l1.access(paddr) {
            CacheLevel::L1
        } else if self.l2.access(paddr) {
            CacheLevel::L2
        } else if self.l3.access(paddr) {
            CacheLevel::L3
        } else {
            CacheLevel::Memory
        }
    }

    /// Replay `n` guaranteed L1 hits on the line containing `paddr`, which
    /// the caller's last access left most recently used in its L1 set.
    /// Hits on the front way leave the set exactly as it is, and the L2/L3
    /// arrays are untouched, as when a scalar access hits L1: only the hit
    /// counter moves.
    #[inline]
    pub(crate) fn charge_l1_hits(&mut self, paddr: u64, n: u64) {
        debug_assert!(
            {
                let line = paddr >> self.l1.line_shift;
                self.l1.set(line)[0] == line
            },
            "bulk hits on a line that is not most recently used"
        );
        self.l1.hits += n;
    }

    /// L1 line size in bytes (page-run charging groups elements by line).
    #[inline]
    pub(crate) fn l1_line_bytes(&self) -> u64 {
        1u64 << self.l1.line_shift
    }

    /// Invalidate every line (used after wholesale page migrations in
    /// tests; real kernels do not flush caches on migration, so the OS
    /// layer does not call this on the hot path).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
    }

    /// `(hits, misses)` for each level, L1 → L3.
    pub fn level_stats(&self) -> [(u64, u64); 3] {
        [
            (self.l1.hits, self.l1.misses),
            (self.l2.hits, self.l2.misses),
            (self.l3.hits, self.l3.misses),
        ]
    }

    /// Valid lines held by each level, L1 → L3.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> [usize; 3] {
        [&self.l1, &self.l2, &self.l3].map(|a| a.lines.iter().filter(|&&l| l != INVALID).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        // L1: 2 sets x 2 ways x 64B = 256B, L2: 512B, L3: 1KiB.
        CacheHierarchy::new(
            CacheGeometry {
                size_bytes: 256,
                ways: 2,
                line_bytes: 64,
                hashed_index: false,
            },
            CacheGeometry {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
                hashed_index: false,
            },
            CacheGeometry {
                size_bytes: 1024,
                ways: 4,
                line_bytes: 64,
                hashed_index: false,
            },
        )
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hashed_index: false,
        };
        assert_eq!(g.sets(), 64);
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000), CacheLevel::Memory);
        assert_eq!(c.access(0x1000), CacheLevel::L1);
        assert_eq!(c.access(0x1004), CacheLevel::L1); // same line
    }

    #[test]
    fn eviction_falls_back_to_outer_levels() {
        let mut c = tiny();
        // Fill set 0 of L1 (lines with same set index): lines 0, 2, 4 (2 sets).
        c.access(0);
        c.access(2 * 64);
        c.access(4 * 64); // evicts line 0 from L1 (2 ways)
                          // Line 0 should now be an L2 hit, not L1.
        assert_eq!(c.access(0), CacheLevel::L2);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = tiny();
        c.access(0);
        c.access(2 * 64);
        c.access(0); // touch line 0 again; line 2 is now LRU
        c.access(4 * 64); // evicts line 2
        assert_eq!(c.access(0), CacheLevel::L1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        let [(h1, m1), _, _] = c.level_stats();
        assert_eq!((h1, m1), (1, 1));
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), CacheLevel::Memory);
    }

    /// A real access followed by a bulk L1-hit charge must leave recency
    /// order, stats, and future eviction decisions identical to n + 1
    /// scalar accesses.
    #[test]
    fn bulk_l1_charge_matches_scalar_hits() {
        for n in [1u64, 3, 16, 500] {
            let mut scalar = tiny();
            let mut bulk = tiny();
            for c in [&mut scalar, &mut bulk] {
                c.access(0); // fill line 0 (set 0)
                c.access(2 * 64); // fill line 2 (set 0); line 0 is LRU
            }
            for _ in 0..=n {
                assert_eq!(scalar.access(4), CacheLevel::L1); // line 0, offset 4
            }
            assert_eq!(bulk.access(4), CacheLevel::L1);
            bulk.charge_l1_hits(8, n);
            assert_eq!(scalar.l1.lines, bulk.l1.lines);
            assert_eq!(scalar.level_stats(), bulk.level_stats());
            // LRU consequence: line 2 is now the victim in both.
            scalar.access(4 * 64);
            bulk.access(4 * 64);
            assert_eq!(scalar.access(0), CacheLevel::L1);
            assert_eq!(bulk.access(0), CacheLevel::L1);
            assert_eq!(scalar.access(2 * 64), CacheLevel::L2);
            assert_eq!(bulk.access(2 * 64), CacheLevel::L2);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_panics() {
        let g = CacheGeometry {
            size_bytes: 3 * 64,
            ways: 1,
            line_bytes: 64,
            hashed_index: false,
        };
        let _ = g.sets();
    }
}
