//! Multi-level radix page tables whose table pages live in simulated
//! physical memory.
//!
//! The layout generalizes the x86-64 4-level table: the leaf level covers
//! `huge_order` bits so that a huge page is exactly one entry at the
//! next-to-leaf level, and the remaining VPN bits are split evenly across
//! three upper levels. With the real 2 MiB configuration this degenerates to
//! the textbook 9-9-9-9 x86-64 layout.
//!
//! Table pages are allocated through a caller-supplied allocator (the
//! simulated OS passes a closure that takes kernel frames from the buddy
//! allocator), so page tables themselves consume — and fragment — simulated
//! physical memory, as they do on a real machine.
//!
//! Every table lives in one arena: its slots are a run of one `Vec` of
//! `Copy` entries, a slot points at a child table by index, and a record
//! per table names its run of slots and its run of backing frames. One
//! descent (`PageTable::slot`) finds the slot an address resolves to;
//! every lookup and mutator starts from the index it returns.

use graphmem_physmem::{Frame, MemConfig, NodeId, FRAME_SIZE};

use crate::addr::{PageGeometry, PageSize, VirtAddr, BASE_SHIFT};

/// Virtual address bits (x86-64 canonical user space).
pub const VADDR_BITS: u8 = 48;

const PTE_BYTES: u64 = 8;

/// A present translation: the physical placement of one mapped page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    /// First base frame of the backing physical page.
    pub frame: Frame,
    /// NUMA node of the backing frames.
    pub node: NodeId,
    /// Size class of the mapping.
    pub size: PageSize,
}

/// The up-to-four `(frame, offset-in-frame, node)` PTE locations a
/// hardware walker reads for one address, stored inline: a walk runs on
/// every TLB miss, so this must not heap-allocate.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkPath {
    steps: [(Frame, u64, NodeId); 4],
    len: u8,
}

impl WalkPath {
    fn push(&mut self, step: (Frame, u64, NodeId)) {
        self.steps[self.len as usize] = step;
        self.len += 1;
    }
}

impl std::ops::Deref for WalkPath {
    type Target = [(Frame, u64, NodeId)];
    fn deref(&self) -> &Self::Target {
        &self.steps[..self.len as usize]
    }
}

/// Result of software-walking an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkResult {
    /// The address is mapped.
    Mapped(Leaf),
    /// No translation exists (never touched, or unmapped).
    NotMapped,
    /// The page was swapped out; the payload is the swap slot id.
    Swapped(u64),
}

/// Errors from [`PageTable::map`] and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// A translation already exists for this address.
    AlreadyMapped,
    /// The table-page allocator returned `None` (simulated OOM).
    OutOfTableMemory,
    /// The virtual address is not aligned to the requested page size.
    Misaligned,
    /// No translation exists where one was required.
    NotMapped,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MapError::AlreadyMapped => "translation already exists",
            MapError::OutOfTableMemory => "out of memory for page-table pages",
            MapError::Misaligned => "virtual address misaligned for page size",
            MapError::NotMapped => "no translation exists",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MapError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Empty,
    /// Index of a child table in [`PageTable::tables`].
    Table(usize),
    Leaf(Leaf),
    /// Swapped-out base page (huge pages are demoted before swap-out).
    Swapped(u64),
}

/// One table level's index field of the VPN, and its tables' size.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// VPN bits below this level's index.
    shift: u8,
    /// Index bits: a table of this level has `1 << width` slots.
    width: u8,
    /// Frames backing one table of this level.
    frames: u32,
}

impl Level {
    fn index(self, vpn: u64) -> usize {
        ((vpn >> self.shift) & ((1 << self.width) - 1)) as usize
    }
}

/// Where one table's slots and backing frames sit in the arena.
#[derive(Debug, Clone, Copy)]
struct Table {
    /// First slot, in [`PageTable::slots`].
    slots: usize,
    /// First backing frame, in [`PageTable::frames`].
    frames: usize,
    /// Backing frames taken so far. A table is live — walkable — once it
    /// holds all of its level's; until then (the root before the first
    /// `map`, or a table whose backing ran out of memory) it reads as
    /// unmapped and the next allocation resumes where it stopped.
    held: u32,
}

/// A process page table.
#[derive(Debug)]
pub struct PageTable {
    node: NodeId,
    geom: PageGeometry,
    /// Root (level 0) to leaf (level 3).
    levels: [Level; 4],
    /// Every table's slots, each table's in one run.
    slots: Vec<Entry>,
    /// Every table's record; the root is table 0.
    tables: Vec<Table>,
    /// Every table's backing frames, each table's in one run.
    frames: Vec<Frame>,
    /// Leaf tables that hold no slot of the tree (released by `promote`, or
    /// left by a `demote` that ran out of memory), all slots `Empty`.
    /// The next leaf table made is taken from here.
    free: Vec<usize>,
    /// Total frames held by table pages.
    table_frames: u64,
    /// Bumped by every mutating call (see [`PageTable::generation`]).
    generation: u64,
}

/// A table-page allocator: returns one kernel frame or `None` on OOM.
pub type TableAlloc<'a> = dyn FnMut() -> Option<Frame> + 'a;

/// Depth at which a leaf of `size` lives (entry level index).
fn leaf_level(size: PageSize) -> usize {
    match size {
        PageSize::Base => 3,
        PageSize::Huge => 2,
    }
}

impl PageTable {
    /// Create an empty page table on NUMA `node`.
    ///
    /// The root table is lazily backed: its frames are taken from the first
    /// `map` call's allocator, so constructing a table never fails.
    pub fn new(node: NodeId, cfg: MemConfig) -> Self {
        let leaf_width = cfg.huge_order;
        let rem = VADDR_BITS - BASE_SHIFT - leaf_width;
        let w1 = rem / 3;
        let w0 = rem - 2 * w1;
        let level = |shift: u8, width: u8| Level {
            shift,
            width,
            frames: ((PTE_BYTES << width).div_ceil(FRAME_SIZE)) as u32,
        };
        let mut pt = PageTable {
            node,
            geom: PageGeometry::new(cfg),
            levels: [
                level(2 * w1 + leaf_width, w0),
                level(w1 + leaf_width, w1),
                level(leaf_width, w1),
                level(0, leaf_width),
            ],
            slots: Vec::new(),
            tables: Vec::new(),
            frames: Vec::new(),
            free: Vec::new(),
            table_frames: 0,
            generation: 0,
        };
        pt.new_table(0);
        pt
    }

    /// NUMA node table pages are allocated on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Page geometry in effect.
    pub fn geometry(&self) -> PageGeometry {
        self.geom
    }

    /// Entry-index widths per level, root first. The x86-64 configuration
    /// yields `[9, 9, 9, 9]`.
    pub fn level_widths(&self) -> [u8; 4] {
        self.levels.map(|l| l.width)
    }

    /// A count of the mutating calls made so far, failed ones included:
    /// equal generations prove that no mapping changed in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Frames currently consumed by table pages.
    pub fn table_frames(&self) -> u64 {
        self.table_frames
    }

    /// Frames one leaf table occupies — the size of the pgtable *deposit*
    /// the OS reserves at THP-fault time so a later split never allocates.
    pub fn leaf_table_frames(&self) -> u64 {
        u64::from(self.levels[3].frames)
    }

    /// The descent. Walks from the root toward level `stop` through live
    /// tables, calling `step(table, i)` for each slot it reads, topmost
    /// first. Returns `Ok((level, slot))` for the slot it ends on — the
    /// one at `stop`, or the first on the way that does not point at a
    /// table — or `Err((level, table))` for the first table on the way
    /// that is not live.
    fn slot(
        &self,
        vaddr: VirtAddr,
        stop: usize,
        mut step: impl FnMut(Table, usize),
    ) -> Result<(usize, usize), (usize, usize)> {
        let vpn = vaddr.vpn();
        let (mut level, mut table) = (0, 0);
        loop {
            let t = self.tables[table];
            let l = self.levels[level];
            if t.held < l.frames {
                return Err((level, table));
            }
            let i = l.index(vpn);
            step(t, i);
            match self.slots[t.slots + i] {
                Entry::Table(child) if level < stop => (level, table) = (level + 1, child),
                _ => return Ok((level, t.slots + i)),
            }
        }
    }

    /// The slot a full-depth descent for `vaddr` ends on, if every table on
    /// the way is live.
    fn find(&self, vaddr: VirtAddr) -> Option<usize> {
        self.slot(vaddr, 3, |_, _| {}).ok().map(|(_, s)| s)
    }

    /// Add an empty, unbacked table of `level` to the arena (a leaf table
    /// comes off the free list when one is there).
    fn new_table(&mut self, level: usize) -> usize {
        if level == 3 {
            if let Some(t) = self.free.pop() {
                return t;
            }
        }
        let l = self.levels[level];
        self.tables.push(Table {
            slots: self.slots.len(),
            frames: self.frames.len(),
            held: 0,
        });
        self.slots
            .resize(self.slots.len() + (1 << l.width), Entry::Empty);
        self.frames.resize(self.frames.len() + l.frames as usize, 0);
        self.tables.len() - 1
    }

    /// Take the frames `table` (of `level`) still lacks from `alloc`. Each
    /// frame is held and counted the moment it is handed out, so a failure
    /// part-way loses none.
    fn back(
        &mut self,
        table: usize,
        level: usize,
        alloc: &mut TableAlloc<'_>,
    ) -> Result<(), MapError> {
        let t = &mut self.tables[table];
        while t.held < self.levels[level].frames {
            let frame = alloc().ok_or(MapError::OutOfTableMemory)?;
            self.frames[t.frames + t.held as usize] = frame;
            t.held += 1;
            self.table_frames += 1;
        }
        Ok(())
    }

    /// Where the PTE in slot `i` of `t` sits in physical memory.
    fn pte(&self, t: Table, i: usize) -> (Frame, u64, NodeId) {
        let byte = i as u64 * PTE_BYTES;
        let frame = self.frames[t.frames + (byte / FRAME_SIZE) as usize];
        (frame, byte % FRAME_SIZE, self.node)
    }

    /// What a walk that ends on `slot` translates to.
    fn result(&self, slot: usize) -> WalkResult {
        match self.slots[slot] {
            Entry::Leaf(l) => WalkResult::Mapped(l),
            Entry::Swapped(s) => WalkResult::Swapped(s),
            Entry::Empty | Entry::Table(_) => WalkResult::NotMapped,
        }
    }

    /// Map `vaddr` (aligned to `size`) to the page starting at `frame` on
    /// NUMA node `frame_node`.
    ///
    /// # Errors
    ///
    /// * [`MapError::Misaligned`] — `vaddr` not aligned to the page size.
    /// * [`MapError::AlreadyMapped`] — a translation (or swap entry) exists.
    /// * [`MapError::OutOfTableMemory`] — `alloc` failed. Every frame it
    ///   handed out stays held (and counted in [`table_frames`]) by the
    ///   table it was for, and a retry resumes from there.
    ///
    /// [`table_frames`]: PageTable::table_frames
    pub fn map(
        &mut self,
        vaddr: VirtAddr,
        size: PageSize,
        frame: Frame,
        frame_node: NodeId,
        alloc: &mut TableAlloc<'_>,
    ) -> Result<(), MapError> {
        self.generation += 1;
        if !vaddr.is_aligned(self.geom.bytes(size)) {
            return Err(MapError::Misaligned);
        }
        let stop = leaf_level(size);
        // Descend; back each unbacked table and make each missing one on
        // the way, then descend again from the root.
        loop {
            match self.slot(vaddr, stop, |_, _| {}) {
                Err((level, table)) => self.back(table, level, alloc)?,
                Ok((level, slot)) => match self.slots[slot] {
                    Entry::Empty if level == stop => {
                        self.slots[slot] = Entry::Leaf(Leaf {
                            frame,
                            node: frame_node,
                            size,
                        });
                        return Ok(());
                    }
                    Entry::Empty => self.slots[slot] = Entry::Table(self.new_table(level + 1)),
                    _ => return Err(MapError::AlreadyMapped),
                },
            }
        }
    }

    /// How many table frames a `map(vaddr, size, ..)` would need to
    /// allocate right now (0 if all intermediate tables already exist).
    /// Lets the OS pre-flight memory before mapping.
    pub fn tables_needed(&self, vaddr: VirtAddr, size: PageSize) -> u64 {
        let stop = leaf_level(size);
        let from = |level: usize| -> u64 {
            self.levels[level..=stop]
                .iter()
                .map(|l| u64::from(l.frames))
                .sum()
        };
        let held = |table: usize| u64::from(self.tables[table].held);
        match self.slot(vaddr, stop, |_, _| {}) {
            Err((level, table)) => from(level) - held(table),
            Ok((level, slot)) if level < stop && self.slots[slot] == Entry::Empty => {
                // A new leaf table comes off the free list, frames and all.
                let spare = match level + 1 {
                    3 => self.free.last().map_or(0, |&t| held(t)),
                    _ => 0,
                };
                from(level + 1) - spare
            }
            // Present already, or map will fail with AlreadyMapped.
            Ok(_) => 0,
        }
    }

    /// Software walk: what does `vaddr` translate to?
    pub fn walk(&self, vaddr: VirtAddr) -> WalkResult {
        self.find(vaddr)
            .map_or(WalkResult::NotMapped, |s| self.result(s))
    }

    /// Hardware-walk path: the physical locations (frame, offset-in-frame)
    /// of each PTE a hardware walker reads for `vaddr`, topmost first,
    /// together with the walk result. Used by the MMU to charge PTE reads
    /// through the cache hierarchy.
    pub fn walk_path(&self, vaddr: VirtAddr) -> (WalkPath, WalkResult) {
        let mut path = WalkPath::default();
        let end = self.slot(vaddr, 3, |t, i| path.push(self.pte(t, i)));
        let result = end.map_or(WalkResult::NotMapped, |(_, s)| self.result(s));
        (path, result)
    }

    /// Remove the translation for `vaddr`, returning its leaf.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no present translation exists.
    pub fn unmap(&mut self, vaddr: VirtAddr) -> Result<Leaf, MapError> {
        self.generation += 1;
        let slot = self.find(vaddr).ok_or(MapError::NotMapped)?;
        let Entry::Leaf(leaf) = self.slots[slot] else {
            return Err(MapError::NotMapped);
        };
        self.slots[slot] = Entry::Empty;
        Ok(leaf)
    }

    /// The slot holding the present **base** translation of `vaddr`.
    fn base_leaf(&self, vaddr: VirtAddr) -> Result<(usize, Leaf), MapError> {
        match self.find(vaddr).map(|s| (s, self.slots[s])) {
            Some((s, Entry::Leaf(leaf))) if leaf.size == PageSize::Base => Ok((s, leaf)),
            _ => Err(MapError::NotMapped),
        }
    }

    /// Point an existing **base** translation at a new frame (page
    /// migration). The caller is responsible for the TLB shootdown.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if the address is not mapped by a base page.
    pub fn remap(
        &mut self,
        vaddr: VirtAddr,
        new_frame: Frame,
        frame_node: NodeId,
    ) -> Result<Leaf, MapError> {
        self.generation += 1;
        let (slot, old) = self.base_leaf(vaddr)?;
        self.slots[slot] = Entry::Leaf(Leaf {
            frame: new_frame,
            node: frame_node,
            ..old
        });
        Ok(old)
    }

    /// Replace a present **base** translation with a swap marker.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if the address is not mapped by a base page
    /// (huge pages must be demoted before swap-out).
    pub fn set_swapped(&mut self, vaddr: VirtAddr, slot: u64) -> Result<Leaf, MapError> {
        self.generation += 1;
        let (s, leaf) = self.base_leaf(vaddr)?;
        self.slots[s] = Entry::Swapped(slot);
        Ok(leaf)
    }

    /// Replace a swap marker with a present base translation (swap-in).
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if the address holds no swap marker.
    pub fn restore_swapped(
        &mut self,
        vaddr: VirtAddr,
        frame: Frame,
        frame_node: NodeId,
    ) -> Result<(), MapError> {
        self.generation += 1;
        match self.find(vaddr) {
            Some(s) if matches!(self.slots[s], Entry::Swapped(_)) => {
                self.slots[s] = Entry::Leaf(Leaf {
                    frame,
                    node: frame_node,
                    size: PageSize::Base,
                });
                Ok(())
            }
            _ => Err(MapError::NotMapped),
        }
    }

    /// The level-2 ("leaf directory") slot covering `vaddr`, i.e. the slot
    /// where a huge leaf or the pointer to a leaf table lives.
    fn dir_slot(&self, vaddr: VirtAddr) -> Result<usize, MapError> {
        let huge = vaddr.align_down(self.geom.bytes(PageSize::Huge));
        match self.slot(huge, 2, |_, _| {}) {
            Ok((2, s)) => Ok(s),
            _ => Err(MapError::NotMapped),
        }
    }

    /// Whether the level-2 slot covering `vaddr` holds neither a huge leaf
    /// nor a leaf table (Linux's `pmd_none`): only then can a huge page
    /// be mapped there. A leaf table stays after its last base page is
    /// unmapped, so an empty region is not necessarily an empty slot.
    pub fn huge_slot_empty(&self, vaddr: VirtAddr) -> bool {
        self.dir_slot(vaddr)
            .map_or(true, |s| self.slots[s] == Entry::Empty)
    }

    /// Demote the huge mapping covering `vaddr` into base mappings of its
    /// constituent frames. The new leaf table's pages come from `alloc`.
    ///
    /// # Errors
    ///
    /// * [`MapError::NotMapped`] — no huge mapping covers `vaddr`.
    /// * [`MapError::OutOfTableMemory`] — `alloc` failed; the frames it
    ///   did hand out stay held by a spare leaf table the next one reuses.
    pub fn demote(
        &mut self,
        vaddr: VirtAddr,
        alloc: &mut TableAlloc<'_>,
    ) -> Result<Leaf, MapError> {
        self.generation += 1;
        let dir = self.dir_slot(vaddr)?;
        let old = match self.slots[dir] {
            Entry::Leaf(l) if l.size == PageSize::Huge => l,
            _ => return Err(MapError::NotMapped),
        };
        let table = self.new_table(3);
        if let Err(e) = self.back(table, 3, alloc) {
            self.free.push(table);
            return Err(e);
        }
        let first = self.tables[table].slots;
        let leaves = &mut self.slots[first..first + (1 << self.levels[3].width)];
        for (frame, slot) in (old.frame..).zip(leaves) {
            *slot = Entry::Leaf(Leaf {
                frame,
                size: PageSize::Base,
                ..old
            });
        }
        self.slots[dir] = Entry::Table(table);
        Ok(old)
    }

    /// Promote the huge-aligned region at `vaddr` to a huge mapping backed
    /// by `new_frame`: replaces the leaf table with a huge leaf. Returns the
    /// previous base leaves (for the OS to copy from and free) and the freed
    /// table frames.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] unless *every* slot of the region holds a
    /// present base mapping (Linux khugepaged also requires this unless it
    /// allocates fill pages; our OS pre-populates instead).
    pub fn promote(
        &mut self,
        vaddr: VirtAddr,
        new_frame: Frame,
        frame_node: NodeId,
    ) -> Result<(Vec<Leaf>, Vec<Frame>), MapError> {
        self.generation += 1;
        let dir = self.dir_slot(vaddr)?;
        let Entry::Table(table) = self.slots[dir] else {
            return Err(MapError::NotMapped);
        };
        let t = self.tables[table];
        let l = self.levels[3];
        if t.held < l.frames {
            return Err(MapError::NotMapped);
        }
        let leaves = &mut self.slots[t.slots..t.slots + (1 << l.width)];
        let old = leaves
            .iter()
            .map(|e| match *e {
                Entry::Leaf(leaf) if leaf.size == PageSize::Base => Some(leaf),
                _ => None,
            })
            .collect::<Option<Vec<Leaf>>>()
            .ok_or(MapError::NotMapped)?;
        leaves.fill(Entry::Empty);
        let frames = self.frames[t.frames..t.frames + l.frames as usize].to_vec();
        self.tables[table].held = 0;
        self.table_frames -= u64::from(l.frames);
        self.free.push(table);
        self.slots[dir] = Entry::Leaf(Leaf {
            frame: new_frame,
            node: frame_node,
            size: PageSize::Huge,
        });
        Ok((old, frames))
    }

    /// Visit every present mapping in `[start, end)` as `(vaddr, leaf)`,
    /// in ascending address order.
    pub fn for_each_mapped(
        &self,
        start: VirtAddr,
        end: VirtAddr,
        f: &mut dyn FnMut(VirtAddr, Leaf),
    ) {
        self.visit(0, 0, 0, start.0, end.0, f);
    }

    /// Visit the slots of `table` (of `level`, covering addresses from
    /// `prefix`) that overlap `[start, end)`: only the run from the first
    /// overlapping index to the last is read.
    fn visit(
        &self,
        table: usize,
        level: usize,
        prefix: u64,
        start: u64,
        end: u64,
        f: &mut dyn FnMut(VirtAddr, Leaf),
    ) {
        let (t, l) = (self.tables[table], self.levels[level]);
        if t.held < l.frames || end <= prefix {
            return;
        }
        let bits = l.shift + BASE_SHIFT;
        let first = (start.saturating_sub(prefix) >> bits) as usize;
        let last = ((end - 1 - prefix) >> bits).min((1 << l.width) - 1) as usize;
        for i in first..=last {
            let lo = prefix | ((i as u64) << bits);
            match self.slots[t.slots + i] {
                Entry::Empty | Entry::Swapped(_) => {}
                Entry::Leaf(leaf) => f(VirtAddr(lo), leaf),
                Entry::Table(child) => self.visit(child, level + 1, lo, start, end, f),
            }
        }
    }

    /// Count present base and huge mappings in `[start, end)`.
    pub fn count_mapped(&self, start: VirtAddr, end: VirtAddr) -> (u64, u64) {
        let (mut base, mut huge) = (0, 0);
        self.for_each_mapped(start, end, &mut |_, l| match l.size {
            PageSize::Base => base += 1,
            PageSize::Huge => huge += 1,
        });
        (base, huge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_physmem::{Owner, Zone};

    fn setup(order: u8) -> (Zone, PageTable) {
        let cfg = MemConfig::with_huge_order(order);
        let zone = Zone::new(0, 64 * cfg.huge_frames(), cfg);
        let pt = PageTable::new(0, cfg);
        (zone, pt)
    }

    fn kalloc(zone: &mut Zone) -> impl FnMut() -> Option<Frame> + '_ {
        move || zone.alloc_frame(Owner::Kernel)
    }

    #[test]
    fn widths_match_x86_for_real_config() {
        let pt = PageTable::new(0, MemConfig::default());
        assert_eq!(pt.level_widths(), [9, 9, 9, 9]);
    }

    #[test]
    fn widths_cover_vaddr_for_scaled_config() {
        for order in 1..=10 {
            let pt = PageTable::new(0, MemConfig::with_huge_order(order));
            let total: u8 = pt.level_widths().iter().sum();
            assert_eq!(total, VADDR_BITS - BASE_SHIFT);
            assert_eq!(pt.level_widths()[3], order);
        }
    }

    #[test]
    fn map_walk_unmap_base_page() {
        let (mut zone, mut pt) = setup(9);
        let frame = zone.alloc_frame(Owner::user()).unwrap();
        pt.map(
            VirtAddr(0x7000),
            PageSize::Base,
            frame,
            0,
            &mut kalloc(&mut zone),
        )
        .unwrap();
        match pt.walk(VirtAddr(0x7abc)) {
            WalkResult::Mapped(l) => {
                assert_eq!(l.frame, frame);
                assert_eq!(l.size, PageSize::Base);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(pt.walk(VirtAddr(0x8000)), WalkResult::NotMapped);
        let leaf = pt.unmap(VirtAddr(0x7000)).unwrap();
        assert_eq!(leaf.frame, frame);
        assert_eq!(pt.walk(VirtAddr(0x7000)), WalkResult::NotMapped);
    }

    #[test]
    fn map_huge_page_and_walk_interior() {
        let (mut zone, mut pt) = setup(9);
        let cfg = zone.config();
        let range = zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let huge_bytes = 2 * 1024 * 1024;
        pt.map(
            VirtAddr(huge_bytes),
            PageSize::Huge,
            range.base,
            0,
            &mut kalloc(&mut zone),
        )
        .unwrap();
        match pt.walk(VirtAddr(huge_bytes + 123456)) {
            WalkResult::Mapped(l) => assert_eq!(l.size, PageSize::Huge),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn misaligned_huge_map_fails() {
        let (mut zone, mut pt) = setup(9);
        let err = pt
            .map(
                VirtAddr(0x1000),
                PageSize::Huge,
                0,
                0,
                &mut kalloc(&mut zone),
            )
            .unwrap_err();
        assert_eq!(err, MapError::Misaligned);
    }

    #[test]
    fn double_map_fails() {
        let (mut zone, mut pt) = setup(9);
        pt.map(VirtAddr(0), PageSize::Base, 1, 0, &mut kalloc(&mut zone))
            .unwrap();
        assert_eq!(
            pt.map(VirtAddr(0), PageSize::Base, 2, 0, &mut kalloc(&mut zone)),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn table_oom_is_reported() {
        let cfg = MemConfig::default();
        let mut pt = PageTable::new(0, cfg);
        let mut alloc = || None;
        assert_eq!(
            pt.map(VirtAddr(0), PageSize::Base, 1, 0, &mut alloc),
            Err(MapError::OutOfTableMemory)
        );
    }

    /// An allocator that hands out `k` frames, then fails, fails a map or
    /// demote part-way; every frame it handed out stays counted, and a
    /// retry with a working allocator completes the same call.
    #[test]
    fn failed_allocations_keep_every_frame_counted() {
        for order in [2, 9, 10] {
            let cfg = MemConfig::with_huge_order(order);
            let fresh = PageTable::new(0, cfg);
            let need = fresh.tables_needed(VirtAddr(0), PageSize::Base);
            for k in 0..need {
                let (mut zone, mut pt) = setup(order);
                let mut handed = 0;
                let mut failing = || {
                    (handed < k).then(|| {
                        handed += 1;
                        zone.alloc_frame(Owner::Kernel).expect("zone has room")
                    })
                };
                let err = pt.map(VirtAddr(0), PageSize::Base, 1, 0, &mut failing);
                assert_eq!(err, Err(MapError::OutOfTableMemory));
                assert_eq!(pt.table_frames(), k, "order {order}, fail on call {k}");
                assert_eq!(pt.walk(VirtAddr(0)), WalkResult::NotMapped);
                assert_eq!(pt.tables_needed(VirtAddr(0), PageSize::Base), need - k);
                let free = zone.free_frames();
                pt.map(VirtAddr(0), PageSize::Base, 1, 0, &mut kalloc(&mut zone))
                    .unwrap();
                assert_eq!(pt.table_frames(), need);
                assert_eq!(free - zone.free_frames(), need - k);
            }

            // A demote that fails part-way leaves its frames on a spare
            // leaf table, which the retry finishes backing.
            let leaf = fresh.leaf_table_frames();
            for k in 0..leaf {
                let (mut zone, mut pt) = setup(order);
                let hv = VirtAddr(cfg.huge_bytes());
                pt.map(hv, PageSize::Huge, 0, 0, &mut kalloc(&mut zone))
                    .unwrap();
                let before = pt.table_frames();
                let mut handed = 0;
                let mut failing = || {
                    (handed < k).then(|| {
                        handed += 1;
                        zone.alloc_frame(Owner::Kernel).expect("zone has room")
                    })
                };
                assert_eq!(pt.demote(hv, &mut failing), Err(MapError::OutOfTableMemory));
                assert_eq!(pt.table_frames(), before + k);
                assert_eq!(pt.tables_needed(hv.add(4096), PageSize::Base), 0);
                pt.demote(hv, &mut kalloc(&mut zone)).unwrap();
                assert_eq!(pt.table_frames(), before + leaf);
            }
        }
    }

    /// A leaf table `promote` releases is the one the next `demote` fills:
    /// the arena does not grow.
    #[test]
    fn demote_reuses_the_leaf_table_promote_released() {
        let (mut zone, mut pt) = setup(4);
        let cfg = zone.config();
        let hv = VirtAddr(cfg.huge_bytes());
        pt.map(hv, PageSize::Huge, 0, 0, &mut kalloc(&mut zone))
            .unwrap();
        pt.demote(hv, &mut kalloc(&mut zone)).unwrap();
        let (tables, slots) = (pt.tables.len(), pt.slots.len());
        for _ in 0..3 {
            let (_, frames) = pt.promote(hv, 0, 0).unwrap();
            assert_eq!(pt.free.len(), 1);
            frames.into_iter().for_each(|f| zone.free_frame(f));
            pt.demote(hv, &mut kalloc(&mut zone)).unwrap();
            assert!(pt.free.is_empty());
        }
        assert_eq!((pt.tables.len(), pt.slots.len()), (tables, slots));
        assert_eq!(pt.count_mapped(hv, hv.add(cfg.huge_bytes())), (16, 0));
    }

    #[test]
    fn walk_path_has_4_levels_for_base_3_for_huge() {
        let (mut zone, mut pt) = setup(9);
        let f = zone.alloc_frame(Owner::user()).unwrap();
        pt.map(
            VirtAddr(0x1000),
            PageSize::Base,
            f,
            0,
            &mut kalloc(&mut zone),
        )
        .unwrap();
        let (path, res) = pt.walk_path(VirtAddr(0x1000));
        assert_eq!(path.len(), 4);
        assert!(matches!(res, WalkResult::Mapped(_)));

        let cfg = zone.config();
        let hr = zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let hv = VirtAddr(1u64 << 30);
        pt.map(hv, PageSize::Huge, hr.base, 0, &mut kalloc(&mut zone))
            .unwrap();
        let (path, res) = pt.walk_path(hv);
        assert_eq!(path.len(), 3);
        assert!(matches!(res, WalkResult::Mapped(_)));
    }

    #[test]
    fn page_tables_consume_zone_frames() {
        let (mut zone, mut pt) = setup(9);
        let before = zone.free_frames();
        let f = zone.alloc_frame(Owner::user()).unwrap();
        pt.map(
            VirtAddr(0x1000),
            PageSize::Base,
            f,
            0,
            &mut kalloc(&mut zone),
        )
        .unwrap();
        // 4 table pages + 1 data page.
        assert_eq!(pt.table_frames(), 4);
        assert_eq!(zone.free_frames(), before - 5);
    }

    #[test]
    fn swap_roundtrip() {
        let (mut zone, mut pt) = setup(9);
        let f = zone.alloc_frame(Owner::user()).unwrap();
        let v = VirtAddr(0x4000);
        pt.map(v, PageSize::Base, f, 0, &mut kalloc(&mut zone))
            .unwrap();
        let leaf = pt.set_swapped(v, 7).unwrap();
        assert_eq!(leaf.frame, f);
        assert_eq!(pt.walk(v), WalkResult::Swapped(7));
        pt.restore_swapped(v, 42, 0).unwrap();
        assert_eq!(
            pt.walk(v),
            WalkResult::Mapped(Leaf {
                frame: 42,
                node: 0,
                size: PageSize::Base
            })
        );
    }

    #[test]
    fn demote_splits_huge_into_bases() {
        let (mut zone, mut pt) = setup(4); // 16-frame huge pages
        let cfg = zone.config();
        let hr = zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let hv = VirtAddr(cfg.huge_bytes() * 3);
        pt.map(hv, PageSize::Huge, hr.base, 0, &mut kalloc(&mut zone))
            .unwrap();
        let old = pt.demote(hv.add(5000), &mut kalloc(&mut zone)).unwrap();
        assert_eq!(old.frame, hr.base);
        for i in 0..cfg.huge_frames() {
            match pt.walk(hv.add(i * 4096)) {
                WalkResult::Mapped(l) => {
                    assert_eq!(l.size, PageSize::Base);
                    assert_eq!(l.frame, hr.base + i);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn promote_rebuilds_huge_leaf_and_returns_table_frames() {
        let (mut zone, mut pt) = setup(4);
        let cfg = zone.config();
        let hv = VirtAddr(cfg.huge_bytes());
        // Map every base page of the region.
        let mut frames = Vec::new();
        for i in 0..cfg.huge_frames() {
            let f = zone.alloc_frame(Owner::user()).unwrap();
            frames.push(f);
            pt.map(
                hv.add(i * 4096),
                PageSize::Base,
                f,
                0,
                &mut kalloc(&mut zone),
            )
            .unwrap();
        }
        let tf_before = pt.table_frames();
        let hr = zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let (old, table_frames) = pt.promote(hv, hr.base, 0).unwrap();
        assert_eq!(old.len(), cfg.huge_frames() as usize);
        assert_eq!(old.iter().map(|l| l.frame).collect::<Vec<_>>(), frames);
        assert_eq!(pt.table_frames(), tf_before - table_frames.len() as u64);
        match pt.walk(hv.add(999)) {
            WalkResult::Mapped(l) => assert_eq!((l.frame, l.size), (hr.base, PageSize::Huge)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn promote_refuses_partial_regions() {
        let (mut zone, mut pt) = setup(4);
        let cfg = zone.config();
        let hv = VirtAddr(cfg.huge_bytes());
        let f = zone.alloc_frame(Owner::user()).unwrap();
        pt.map(hv, PageSize::Base, f, 0, &mut kalloc(&mut zone))
            .unwrap();
        assert_eq!(pt.promote(hv, 0, 0), Err(MapError::NotMapped));
    }

    #[test]
    fn for_each_mapped_respects_range() {
        let (mut zone, mut pt) = setup(9);
        for i in 0..8u64 {
            let f = zone.alloc_frame(Owner::user()).unwrap();
            pt.map(
                VirtAddr(i * 4096),
                PageSize::Base,
                f,
                0,
                &mut kalloc(&mut zone),
            )
            .unwrap();
        }
        let mut seen = Vec::new();
        pt.for_each_mapped(VirtAddr(2 * 4096), VirtAddr(5 * 4096), &mut |v, _| {
            seen.push(v.vpn())
        });
        assert_eq!(seen, vec![2, 3, 4]);
        assert_eq!(
            pt.count_mapped(VirtAddr(0), VirtAddr(u64::MAX >> 16)),
            (8, 0)
        );
    }

    #[test]
    fn huge_slot_empty_until_a_table_or_huge_leaf_occupies_it() {
        let (mut zone, mut pt) = setup(4);
        let hb = MemConfig::with_huge_order(4).huge_bytes();
        let (a, b) = (VirtAddr(0), VirtAddr(hb));
        assert!(pt.huge_slot_empty(a) && pt.huge_slot_empty(b));
        let f = zone.alloc_frame(Owner::user()).unwrap();
        pt.map(a.add(4096), PageSize::Base, f, 0, &mut kalloc(&mut zone))
            .unwrap();
        assert!(!pt.huge_slot_empty(a) && pt.huge_slot_empty(b));
        // Unmapping the last base page leaves the leaf table in place.
        pt.unmap(a.add(4096)).unwrap();
        assert_eq!(pt.count_mapped(a, b), (0, 0));
        assert!(!pt.huge_slot_empty(a));
        let r = zone.alloc(4, Owner::user()).unwrap();
        pt.map(b, PageSize::Huge, r.base, 0, &mut kalloc(&mut zone))
            .unwrap();
        assert!(!pt.huge_slot_empty(b.add(4096)));
    }
}
