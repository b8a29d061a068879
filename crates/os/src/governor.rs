//! The page-size governor: a closed-loop, epoch-driven control daemon
//! that turns the paper's manual selectivity tuning (§5.2) into runtime
//! policy. Each epoch it reads the per-VMA translation-attribution
//! counters the simulated MMU already collects (`graphmem_vm::attribution`)
//! plus the local zone's buddy/fragmentation gauges, then:
//!
//! * **promotes** regions whose measured translation cost per access
//!   exceeds the `promote` threshold, reusing khugepaged's promotion
//!   machinery (bounded compaction, pgtable deposit);
//! * **demotes** cold huge mappings — regions paying less than the
//!   `demote` threshold per access — when promotions were denied for lack
//!   of contiguity, so the freed (movable) base frames can be compacted
//!   into huge blocks that hot regions claim on the next epoch. This is
//!   what makes the paper's §4.4 pressure scenarios *recoverable*.
//!
//! The governor is fully deterministic: it runs on the simulated clock
//! (scheduled through the same event horizon as khugepaged and the
//! sampler), consumes only simulated state, and charges its scan and
//! action costs to the kernel like every other daemon. Disabled (the
//! default), it contributes nothing — no deadline, no counters, no
//! charges — so governor-off runs are bit-identical to a build without
//! this module.

use std::fmt;
use std::str::FromStr;

use graphmem_telemetry::{DemotionReason, EventKind};
use graphmem_vm::{PageSize, RegionCounters, VirtAddr};

use crate::khugepaged::PromoteOutcome;
use crate::system::System;
use crate::vma::VmaId;

/// Tunable policy of the page-size governor. The canonical textual form
/// (`epoch=…,promote=…,demote=…,max=…`) round-trips exactly through
/// [`FromStr`]/[`fmt::Display`] and is the token used by the CLI
/// (`--governor`), spec JSON, and Prometheus labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Simulated cycles between control epochs.
    pub epoch_cycles: u64,
    /// Translation cycles per access at or above which a region is hot
    /// enough to promote.
    pub promote_cost: f64,
    /// Translation cycles per access below which a huge-backed region is
    /// cold enough to sacrifice under contiguity scarcity.
    pub demote_cost: f64,
    /// Per-epoch cap on promotions (and, separately, demotions).
    pub max_actions: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            epoch_cycles: 10_000_000,
            promote_cost: 2.0,
            demote_cost: 0.5,
            max_actions: 8,
        }
    }
}

impl GovernorConfig {
    /// Check the invariants shared by every construction path (CLI, JSON,
    /// builder).
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_cycles == 0 {
            return Err("governor epoch must be positive".to_string());
        }
        if self.max_actions == 0 {
            return Err("governor max actions must be positive".to_string());
        }
        if !self.promote_cost.is_finite() || self.promote_cost < 0.0 {
            return Err("governor promote threshold must be finite and non-negative".to_string());
        }
        if !self.demote_cost.is_finite() || self.demote_cost < 0.0 {
            return Err("governor demote threshold must be finite and non-negative".to_string());
        }
        if self.demote_cost > self.promote_cost {
            return Err(format!(
                "governor demote threshold ({}) must not exceed the promote threshold ({})",
                self.demote_cost, self.promote_cost
            ));
        }
        Ok(())
    }
}

impl fmt::Display for GovernorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch={},promote={},demote={},max={}",
            self.epoch_cycles, self.promote_cost, self.demote_cost, self.max_actions
        )
    }
}

impl FromStr for GovernorConfig {
    type Err = String;

    /// Parse `epoch=N,promote=X,demote=Y,max=K` (any subset, any order;
    /// omitted keys keep their defaults).
    fn from_str(s: &str) -> Result<Self, String> {
        let mut cfg = GovernorConfig::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("governor token '{part}' is not key=value"))?;
            match key {
                "epoch" => {
                    cfg.epoch_cycles = value
                        .parse()
                        .map_err(|_| format!("governor epoch '{value}' is not an integer"))?;
                }
                "promote" => {
                    cfg.promote_cost = value
                        .parse()
                        .map_err(|_| format!("governor promote '{value}' is not a number"))?;
                }
                "demote" => {
                    cfg.demote_cost = value
                        .parse()
                        .map_err(|_| format!("governor demote '{value}' is not a number"))?;
                }
                "max" => {
                    cfg.max_actions = value
                        .parse()
                        .map_err(|_| format!("governor max '{value}' is not an integer"))?;
                }
                other => {
                    return Err(format!(
                        "unknown governor key '{other}' (expected epoch/promote/demote/max)"
                    ))
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Cumulative governor counters over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Control epochs completed.
    pub epochs: u64,
    /// Regions promoted by governor decisions.
    pub promotions: u64,
    /// Huge mappings demoted by governor decisions.
    pub demotions: u64,
    /// Promotions denied because no huge block could be found or
    /// compacted.
    pub denied_by_fragmentation: u64,
}

graphmem_telemetry::counters! {
    /// One epoch's decisions, in decision order.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct GovernorEpochSample {
        cumulative {
            /// Simulated cycle at which the epoch closed.
            cycle: u64,
        }
        gauge {
            /// Regions promoted this epoch.
            promoted: u32,
            /// Huge mappings demoted this epoch.
            demoted: u32,
            /// Promotions denied for lack of contiguity this epoch.
            denied: u32,
            /// Local-zone fragmentation level (fraction of free memory not
            /// huge-allocatable) at epoch close.
            fragmentation: f64,
        }
    }
}

/// Governor daemon bookkeeping on a [`System`].
#[derive(Debug)]
pub(crate) struct GovernorState {
    pub(crate) config: GovernorConfig,
    pub(crate) next_run: u64,
    /// Per-region signals at the end of the previous epoch; the epoch's
    /// input is the change since these.
    pub(crate) baseline: Vec<Signal>,
    pub(crate) series: Vec<GovernorEpochSample>,
}

/// What the governor reads of one region's attribution counters:
/// accesses and steady-state translation cycles. Fault discovery is a
/// one-time cost that would misclassify freshly touched regions as hot,
/// so it is left out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Signal {
    pub(crate) accesses: u64,
    pub(crate) cycles: u64,
}

impl Signal {
    fn of(c: &RegionCounters) -> Self {
        Signal {
            accesses: c.accesses_total(),
            cycles: c.translation_cycles[0] + c.translation_cycles[1],
        }
    }
}

/// A promotion/demotion candidate: region id plus its measured
/// translation cost per access over the last epoch.
struct Candidate {
    id: usize,
    cost: f64,
}

/// One epoch's classification, before anything is applied.
pub(crate) struct GovernorPlan {
    hot: Vec<Candidate>,
    cold: Vec<Candidate>,
}

impl System {
    /// Enable the page-size governor with `config`. Implies per-region
    /// attribution (the governor's input signal), which is pure
    /// observation; the governor itself charges kernel cycles for its
    /// scans and actions like every other daemon.
    pub fn enable_governor(&mut self, config: GovernorConfig) {
        if !self.attribution_on {
            self.enable_attribution(true);
        }
        self.gov = Some(GovernorState {
            config,
            next_run: self.clock + config.epoch_cycles,
            baseline: Vec::new(),
            series: Vec::new(),
        });
        self.recompute_event_horizon();
    }

    /// Whether the governor is enabled.
    pub fn governor_enabled(&self) -> bool {
        self.gov.is_some()
    }

    /// Cumulative governor counters, summed over the epoch series
    /// (`None` when the governor is off).
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        let series = &self.gov.as_ref()?.series;
        let sum = |field: fn(&GovernorEpochSample) -> u32| -> u64 {
            series.iter().map(|s| u64::from(field(s))).sum()
        };
        Some(GovernorStats {
            epochs: series.len() as u64,
            promotions: sum(|s| s.promoted),
            demotions: sum(|s| s.demoted),
            denied_by_fragmentation: sum(|s| s.denied),
        })
    }

    /// The per-epoch decision series recorded so far (`None` when the
    /// governor is off).
    pub fn governor_series(&self) -> Option<&[GovernorEpochSample]> {
        self.gov.as_ref().map(|g| g.series.as_slice())
    }

    /// Run the governor if enabled and due (called from the access path;
    /// like khugepaged, the daemon steals application cycles). In a
    /// replay (`replay` holds the region signals at the access the
    /// deadline falls after) the epoch runs only if it is inert; returns
    /// whether it ran or was not due.
    pub(crate) fn maybe_governor(&mut self, replay: Option<&[Signal]>) -> bool {
        let Some(g) = &self.gov else { return true };
        if self.clock < g.next_run {
            return true;
        }
        let signals = replay.map_or_else(|| self.region_signals(), <[Signal]>::to_vec);
        let plan = self.governor_plan(&signals);
        if !self.governor_inert(&plan) {
            if replay.is_some() {
                return false;
            }
            self.passes_acted += 1;
        }
        self.governor_epoch(signals, plan);
        self.recompute_event_horizon();
        true
    }

    /// Force one control epoch immediately (tests and experiments).
    pub fn run_governor_now(&mut self) {
        if self.gov.is_some() {
            let signals = self.region_signals();
            let plan = self.governor_plan(&signals);
            self.governor_epoch(signals, plan);
            self.recompute_event_horizon();
        }
    }

    /// The governor's input now: each region's signal, by region id.
    pub(crate) fn region_signals(&self) -> Vec<Signal> {
        self.mmu
            .attribution_regions()
            .map_or_else(Vec::new, |r| r.iter().map(Signal::of).collect())
    }

    /// Classify regions by translation cost per access since the last
    /// epoch, given each region's current signal: hot ones to promote,
    /// cold ones to sacrifice if promotions are denied. Reads state only.
    fn governor_plan(&self, signals: &[Signal]) -> GovernorPlan {
        let mut plan = GovernorPlan {
            hot: Vec::new(),
            cold: Vec::new(),
        };
        let Some(g) = &self.gov else { return plan };
        let empty = Signal::default();
        for id in 0..self.aspace.len() {
            if self.aspace.get(VmaId(id)).hugetlb() {
                continue; // explicit reservations are not governed
            }
            let cur = signals.get(id).unwrap_or(&empty);
            let base = g.baseline.get(id).unwrap_or(&empty);
            let accesses = cur.accesses - base.accesses;
            let cost = if accesses == 0 {
                0.0
            } else {
                (cur.cycles - base.cycles) as f64 / accesses as f64
            };
            if accesses > 0 && cost >= g.config.promote_cost {
                plan.hot.push(Candidate { id, cost });
            } else if cost < g.config.demote_cost {
                plan.cold.push(Candidate { id, cost });
            }
        }
        // Deterministic priority: hottest first (ties by region id), so
        // the scarce contiguity goes to the region paying the most.
        plan.hot
            .sort_by(|a, b| b.cost.total_cmp(&a.cost).then(a.id.cmp(&b.id)));
        plan.cold
            .sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.id.cmp(&b.id)));
        plan
    }

    /// Whether applying `plan` would change nothing but the governor's
    /// own bookkeeping: every hot region is already advised, so its
    /// `advise` is a no-op, and none has a chunk
    /// [`System::promotable`] would let through. Nothing is then
    /// promoted or denied, so nothing is demoted either.
    fn governor_inert(&self, plan: &GovernorPlan) -> bool {
        let huge_bytes = self.geom.bytes(PageSize::Huge);
        plan.hot.iter().all(|c| {
            let vma = self.aspace.get(VmaId(c.id));
            let mut lo = vma.start();
            let mut promotable = false;
            while lo.add(huge_bytes) <= vma.end() {
                promotable |= self.promotable(VmaId(c.id), lo);
                lo = lo.add(huge_bytes);
            }
            vma.range_advised(vma.start(), vma.end()) && !promotable
        })
    }

    /// One control epoch: charge the scan, promote the hot regions, and —
    /// when promotions were denied for lack of contiguity — demote cold
    /// huge mappings so compaction can rebuild huge blocks for the next
    /// epoch. `signals` become the next epoch's baseline.
    fn governor_epoch(&mut self, signals: Vec<Signal>, plan: GovernorPlan) {
        let Some(cfg) = self.gov.as_ref().map(|g| g.config) else {
            return;
        };
        // Promotions and demotions flush TLBs; the translation cursor's
        // residency proof is void (harmless double-clear from
        // run_due_events).
        self.clear_run_memo();
        if let Some(g) = self.gov.as_mut() {
            g.next_run = self.clock + cfg.epoch_cycles;
        }
        // Reading a region's counters costs a scan block, like
        // khugepaged's per-region examination.
        self.charge(self.cost.compact_scan_block * self.aspace.len() as u64);

        let (promoted, denied) = self.governor_promote(&plan.hot, cfg.max_actions);
        // Contiguity scarcity observed: sacrifice cold huge mappings so
        // their (movable) frames can be compacted into huge blocks.
        let demoted = if denied > 0 {
            self.governor_demote(&plan.cold, cfg.max_actions)
        } else {
            0
        };

        let fragmentation = self.zones[self.local_node as usize].fragmentation_level();
        let cycle = self.clock;
        let mut epoch = 0u32;
        if let Some(g) = self.gov.as_mut() {
            g.baseline = signals;
            g.series.push(GovernorEpochSample {
                cycle,
                promoted,
                demoted,
                denied,
                fragmentation,
            });
            epoch = g.series.len() as u32;
        }
        self.telemetry.emit(EventKind::GovernorEpoch {
            epoch,
            promoted,
            demoted,
            denied,
        });
    }

    /// Promote hot candidates' base-mapped huge-aligned ranges, hottest
    /// region first, up to `budget` promotions. Returns
    /// `(promoted, denied)`; the pass stops at the first
    /// denied-by-fragmentation outcome — once contiguity (including one
    /// bounded compaction attempt) is exhausted, further attempts this
    /// epoch would only burn compaction scans.
    fn governor_promote(&mut self, hot: &[Candidate], budget: u32) -> (u32, u32) {
        let huge_bytes = self.geom.bytes(PageSize::Huge);
        let mut promoted = 0u32;
        let mut denied = 0u32;
        'regions: for c in hot {
            let id = VmaId(c.id);
            let vma = self.aspace.get(id);
            let (start, end) = (vma.start(), vma.end());
            // The governor's decision overrides madvise-mode gating: it
            // IS the advice, applied from measurement instead of source
            // annotation.
            self.aspace.get_mut(id).advise(start, end);
            let mut lo = start;
            while lo.add(huge_bytes) <= end {
                if promoted >= budget {
                    break 'regions;
                }
                match self.try_promote_region(id, lo) {
                    PromoteOutcome::Promoted { .. } => promoted += 1,
                    PromoteOutcome::NoContiguity => {
                        denied += 1;
                        break 'regions;
                    }
                    PromoteOutcome::Ineligible => {}
                }
                lo = lo.add(huge_bytes);
            }
        }
        (promoted, denied)
    }

    /// Demote cold candidates' huge mappings, coldest region first, up to
    /// `budget` demotions. The split frames are movable order-0
    /// allocations (tags preserved per sub-frame), exactly what the
    /// compactor needs to manufacture huge blocks for hot regions.
    fn governor_demote(&mut self, cold: &[Candidate], budget: u32) -> u32 {
        let mut demoted = 0u32;
        'regions: for c in cold {
            let vma = self.aspace.get(VmaId(c.id));
            let (start, end) = (vma.start(), vma.end());
            let mut pages: Vec<VirtAddr> = Vec::new();
            self.pt.for_each_mapped(start, end, &mut |va, leaf| {
                if leaf.size == PageSize::Huge {
                    pages.push(va);
                }
            });
            for va in pages {
                if demoted >= budget {
                    break 'regions;
                }
                let touched = self.demote_huge(va, DemotionReason::Governor);
                self.requeue_split(va, &touched, false);
                demoted += 1;
            }
        }
        demoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemSpec, ThpMode};
    use graphmem_physmem::Fragmenter;

    #[test]
    fn token_round_trip_is_exact() {
        for token in [
            "epoch=10000000,promote=2,demote=0.5,max=8",
            "epoch=1,promote=0,demote=0,max=1",
            "epoch=5000000,promote=3.25,demote=1.125,max=2",
        ] {
            let cfg: GovernorConfig = token.parse().expect(token);
            assert_eq!(cfg.to_string(), token);
            let again: GovernorConfig = cfg.to_string().parse().unwrap();
            assert_eq!(again, cfg);
        }
    }

    #[test]
    fn partial_tokens_keep_defaults() {
        let cfg: GovernorConfig = "promote=4".parse().unwrap();
        assert_eq!(cfg.promote_cost, 4.0);
        assert_eq!(cfg.epoch_cycles, GovernorConfig::default().epoch_cycles);
        let cfg: GovernorConfig = "".parse().unwrap();
        assert_eq!(cfg, GovernorConfig::default());
    }

    #[test]
    fn bad_tokens_are_rejected() {
        assert!("epoch=0".parse::<GovernorConfig>().is_err());
        assert!("max=0".parse::<GovernorConfig>().is_err());
        assert!("promote=1,demote=2".parse::<GovernorConfig>().is_err());
        assert!("promote=nan".parse::<GovernorConfig>().is_err());
        assert!("frobnicate=3".parse::<GovernorConfig>().is_err());
        assert!("epoch".parse::<GovernorConfig>().is_err());
    }

    #[test]
    fn governor_promotes_hot_base_region() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Madvise; // nothing advised → faults stay base
        let mut sys = System::new(spec);
        sys.enable_governor(GovernorConfig {
            epoch_cycles: 1_000_000,
            promote_cost: 0.1, // any measured cost counts as hot
            demote_cost: 0.0,
            max_actions: 16,
        });
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(4 * huge, "hot");
        sys.populate(a, 4 * huge);
        assert_eq!(sys.mapping_report(a).huge_pages, 0);
        // Give the epoch a measured access delta, then force it.
        for i in 0..4096 {
            sys.read(a.add((i * 4096) % (4 * huge)));
        }
        sys.run_governor_now();
        let stats = sys.governor_stats().unwrap();
        assert!(stats.promotions >= 4, "stats: {stats:?}");
        assert_eq!(sys.mapping_report(a).huge_pages, 4);
        assert_eq!(sys.os_stats().promotions, stats.promotions);
    }

    #[test]
    fn denied_promotions_trigger_cold_demotion() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        let mut sys = System::new(spec);
        let huge = sys.geometry().bytes(PageSize::Huge);
        // A cold region grabs huge pages at fault time...
        let cold = sys.mmap(4 * huge, "cold");
        sys.populate(cold, 4 * huge);
        assert!(sys.mapping_report(cold).huge_pages > 0);
        // ...then fragmentation eats all remaining contiguity.
        Fragmenter::apply(sys.zone_mut(1), 1.0);
        // A hot region populates base-only (no contiguity left).
        sys.thp.fault_huge = false;
        let hot = sys.mmap(2 * huge, "hot");
        sys.populate(hot, 2 * huge);
        sys.thp.fault_huge = true;
        assert_eq!(sys.mapping_report(hot).huge_pages, 0);
        sys.enable_governor(GovernorConfig {
            epoch_cycles: 1_000_000,
            promote_cost: 0.1,
            demote_cost: 0.1,
            max_actions: 8,
        });
        // Only the hot region shows an access delta this epoch.
        for i in 0..4096 {
            sys.read(hot.add((i * 4096) % (2 * huge)));
        }
        sys.run_governor_now();
        let stats = sys.governor_stats().unwrap();
        assert!(stats.denied_by_fragmentation > 0, "stats: {stats:?}");
        assert!(stats.demotions > 0, "cold region sacrificed: {stats:?}");
        assert!(sys.mapping_report(cold).huge_pages < 4);
        // The next epoch's promotion pass can compact the freed frames.
        for i in 0..4096 {
            sys.read(hot.add((i * 4096) % (2 * huge)));
        }
        sys.run_governor_now();
        let stats = sys.governor_stats().unwrap();
        assert!(
            stats.promotions > 0,
            "freed contiguity claimed by the hot region: {stats:?}"
        );
        assert!(sys.mapping_report(hot).huge_pages > 0);
    }

    #[test]
    fn governor_off_reports_nothing() {
        let sys = System::new(SystemSpec::scaled_demo());
        assert!(!sys.governor_enabled());
        assert!(sys.governor_stats().is_none());
        assert!(sys.governor_series().is_none());
    }
}
