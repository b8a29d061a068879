//! Page-walk caches (paging-structure caches).
//!
//! Intel CPUs cache upper-level page-table entries (PML4E/PDPTE/PDE caches)
//! so a TLB miss rarely costs a full 4-reference walk. We model one small
//! fully-associative LRU cache per non-leaf level.

use crate::lru::{hit, touch, INVALID};

/// The set of per-level paging-structure caches (levels 0..=2; leaf PTEs are
/// cached by the TLBs, not here).
#[derive(Debug)]
pub(crate) struct PageWalkCaches {
    /// One small fully-associative LRU set of level-tagged prefixes per
    /// level, in recency order (see [`crate::lru`]).
    levels: [Vec<u64>; 3],
    /// `shift[i]`: right-shift of the base VPN giving level `i`'s prefix.
    shifts: [u8; 3],
}

impl PageWalkCaches {
    /// `entries[i]` = capacity of the level-`i` cache;
    /// `shift_below[i]` = VPN bits covered below level `i`'s index.
    pub(crate) fn new(entries: [u32; 3], shifts: [u8; 3]) -> Self {
        PageWalkCaches {
            levels: entries.map(|n| vec![INVALID; n as usize]),
            shifts,
        }
    }

    fn prefix(&self, vpn: u64, level: usize) -> u64 {
        // Tag with the level so prefixes of different levels never alias.
        (vpn >> self.shifts[level]) | ((level as u64 + 1) << 60)
    }

    /// Deepest cached level for `vpn`, if any: a hit at level `i` means the
    /// hardware walker may skip reading PTEs at levels `0..=i` and start at
    /// `i + 1`. Only levels `< max_level` are consulted (a huge-page walk
    /// has no level-2 *table* entry).
    pub(crate) fn deepest_hit(&mut self, vpn: u64, max_level: usize) -> Option<usize> {
        let top = max_level.min(3);
        for level in (0..top).rev() {
            let p = self.prefix(vpn, level);
            if hit(&mut self.levels[level], p) {
                return Some(level);
            }
        }
        None
    }

    /// Record that levels `0..filled` of the walk for `vpn` read valid
    /// table pointers. The level [`Self::deepest_hit`] just hit is already
    /// most recently used, so refreshing it again changes nothing.
    pub(crate) fn fill(&mut self, vpn: u64, filled: usize) {
        for level in 0..filled.min(3) {
            let p = self.prefix(vpn, level);
            touch(&mut self.levels[level], p);
        }
    }

    /// Invalidate the cached level-2 entry covering `vpn` (needed when a
    /// region is promoted or demoted, which rewrites the level-2 PTE).
    pub(crate) fn invalidate_leaf_dir(&mut self, vpn: u64) {
        let p = self.prefix(vpn, 2);
        let set = &mut self.levels[2];
        if let Some(w) = set.iter().position(|&k| k == p) {
            // Ways behind it move up one, keeping invalid ways at the tail.
            let last = set.len() - 1;
            set[w..].rotate_left(1);
            set[last] = INVALID;
        }
    }

    /// Every level's set, root level first, in recency order.
    pub(crate) fn ways(&self) -> &[Vec<u64>; 3] {
        &self.levels
    }

    pub(crate) fn flush(&mut self) {
        for set in &mut self.levels {
            set.fill(INVALID);
        }
    }

    /// Valid entries held by level `level`.
    #[cfg(test)]
    pub(crate) fn occupancy(&self, level: usize) -> usize {
        self.levels[level].iter().filter(|&&k| k != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pwc() -> PageWalkCaches {
        PageWalkCaches::new([2, 4, 32], [27, 18, 9])
    }

    #[test]
    fn miss_then_hit_at_deepest_filled_level() {
        let mut p = pwc();
        let vpn = 0x12345;
        assert_eq!(p.deepest_hit(vpn, 3), None);
        p.fill(vpn, 3);
        assert_eq!(p.deepest_hit(vpn, 3), Some(2));
        // A different address sharing only the top-level prefix hits level 0.
        let far = vpn ^ (1 << 20);
        assert_eq!(p.deepest_hit(far, 3), Some(0));
    }

    #[test]
    fn max_level_limits_lookup() {
        let mut p = pwc();
        p.fill(7, 3);
        // Huge-page walk: level 2 holds the leaf, only levels 0..2 usable.
        assert_eq!(p.deepest_hit(7, 2), Some(1));
    }

    #[test]
    fn lru_eviction_in_tiny_level() {
        let mut p = pwc();
        // Level 0 has 2 entries; prefixes differ above bit 27.
        let a = 1u64 << 27;
        let b = 2u64 << 27;
        let c = 3u64 << 27;
        p.fill(a, 1);
        p.fill(b, 1);
        assert_eq!(p.deepest_hit(a, 3), Some(0)); // refresh a
        p.fill(c, 1); // evicts b
        assert_eq!(p.deepest_hit(b, 3), None);
        assert_eq!(p.deepest_hit(a, 3), Some(0));
    }

    #[test]
    fn invalidate_leaf_dir_clears_only_level2() {
        let mut p = pwc();
        p.fill(99, 3);
        p.invalidate_leaf_dir(99);
        assert_eq!(p.deepest_hit(99, 3), Some(1));
    }

    #[test]
    fn flush_clears_everything() {
        let mut p = pwc();
        p.fill(5, 3);
        p.flush();
        assert_eq!(p.deepest_hit(5, 3), None);
    }
}
