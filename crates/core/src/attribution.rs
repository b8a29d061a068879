//! Per-array translation-cost attribution attached to a [`RunReport`].
//!
//! The paper argues from attribution: Fig. 4/5 break aggregate TLB misses
//! and walk cycles down by data structure, showing the property array —
//! accessed through pointer indirection — dominates, which justifies
//! backing only it with huge pages (§5.2). This module packages the
//! side-band per-VMA counters collected by the simulated MMU
//! ([`RegionCounters`]) together with end-of-run mapping state and the
//! epoch-sampled physical-memory series ([`MemStateSeries`]: buddyinfo
//! snapshots, unusable-free-space index, per-region huge coverage) into
//! one reportable, JSON-round-trippable [`AttributionReport`].
//!
//! Collection is observation only: enabling attribution never changes the
//! simulated clock or counters, so a run's [`RunReport`] is bit-identical
//! with and without it (enforced by the differential tests).
//!
//! [`RunReport`]: crate::RunReport

use std::fmt::Write as _;

use graphmem_os::{MemStateSeries, System};
use graphmem_telemetry::counters::{
    read_field, read_optional, write_optional, Cumulative, Field, FieldError,
};
use graphmem_telemetry::json::{JsonObject, JsonValue};
use graphmem_vm::RegionCounters;

graphmem_telemetry::counters! {
    /// Attribution for one region (VMA): its translation counters plus its
    /// end-of-run mapping footprint.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RegionReport {
        gauge {
            /// The VMA name (e.g. `"edge_array"`, `"dist"`).
            name: String,
            /// Bytes of the region mapped at end of run.
            mapped_bytes: u64,
            /// Bytes of the region backed by huge pages at end of run.
            huge_bytes: u64,
        }
        cumulative {
            /// Translation-cost counters charged to the region, split by page size.
            counters: RegionCounters,
        }
    }
}

impl RegionReport {
    /// Fraction of the region's mapped bytes backed by huge pages.
    pub fn huge_coverage(&self) -> f64 {
        if self.mapped_bytes == 0 {
            0.0
        } else {
            self.huge_bytes as f64 / self.mapped_bytes as f64
        }
    }
}

/// The per-array translation-attribution profile of one run: one
/// [`RegionReport`] per VMA (in address-space order, so graph arrays come
/// first) plus the epoch-sampled physical-memory state series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionReport {
    /// Per-region attribution, indexed by VMA id.
    pub regions: Vec<RegionReport>,
    /// Fragmentation / coverage series: one snapshot per sampled epoch
    /// when epoch sampling was on, closed by an end-of-run snapshot, so a
    /// report collected from a run always has one (the key stays optional
    /// on the wire).
    pub memory: Option<MemStateSeries>,
}

impl AttributionReport {
    /// Harvest the attribution state from a finished [`System`] run.
    /// Returns `None` when attribution was not enabled.
    pub fn collect(sys: &mut System) -> Option<AttributionReport> {
        let counters: Vec<RegionCounters> = sys.attribution_regions()?.to_vec();
        let regions = sys
            .region_mapping_reports()
            .into_iter()
            .enumerate()
            .map(|(i, (name, map))| RegionReport {
                name,
                counters: counters.get(i).cloned().unwrap_or_default(),
                mapped_bytes: map.mapped_bytes,
                huge_bytes: map.huge_bytes,
            })
            .collect();
        let memory = sys.take_memstate();
        Some(AttributionReport { regions, memory })
    }

    /// The region named `name`, if present.
    pub fn region(&self, name: &str) -> Option<&RegionReport> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Total STLB misses (hardware walks) across all regions.
    pub fn total_stlb_misses(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.counters.stlb_misses_total())
            .sum()
    }

    /// Total walk cycles (successful + faulting) across all regions.
    pub fn total_walk_cycles(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.counters.walk_cycles_total())
            .sum()
    }

    /// `name`'s share of all attributed STLB misses (0 when none occurred).
    pub fn stlb_miss_share(&self, name: &str) -> f64 {
        let total = self.total_stlb_misses();
        match self.region(name) {
            Some(r) if total > 0 => r.counters.stlb_misses_total() as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// `name`'s share of all attributed walk cycles (0 when none occurred).
    pub fn walk_cycle_share(&self, name: &str) -> f64 {
        let total = self.total_walk_cycles();
        match self.region(name) {
            Some(r) if total > 0 => r.counters.walk_cycles_total() as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// Render the profile as an aligned text table (the CLI's
    /// `--attribution` output), one row per region plus a totals row.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>11} {:>11} {:>6} {:>14} {:>6} {:>9} {:>8} {:>6}",
            "region",
            "accesses",
            "dtlb-miss",
            "stlb-miss",
            "miss%",
            "walk-cycles",
            "walk%",
            "p50-walk",
            "faults",
            "huge%",
        );
        let stlb_total = self.total_stlb_misses();
        let walk_total = self.total_walk_cycles();
        let row = |out: &mut String, name: &str, c: &RegionCounters, huge_cov: f64| {
            let share = |part: u64, total: u64| {
                if total == 0 {
                    0.0
                } else {
                    100.0 * part as f64 / total as f64
                }
            };
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>11} {:>11} {:>5.1}% {:>14} {:>5.1}% {:>9} {:>8} {:>5.1}%",
                name,
                c.accesses_total(),
                c.dtlb_misses_total(),
                c.stlb_misses_total(),
                share(c.stlb_misses_total(), stlb_total),
                c.walk_cycles_total(),
                share(c.walk_cycles_total(), walk_total),
                c.walk_latency.quantile_bound(0.5).unwrap_or(0),
                c.faults,
                100.0 * huge_cov,
            );
        };
        let mut total = RegionCounters::default();
        let mut mapped = 0u64;
        let mut huge = 0u64;
        for r in &self.regions {
            row(&mut out, &r.name, &r.counters, r.huge_coverage());
            total.accumulate(&r.counters);
            mapped += r.mapped_bytes;
            huge += r.huge_bytes;
        }
        let cov = if mapped == 0 {
            0.0
        } else {
            huge as f64 / mapped as f64
        };
        row(&mut out, "(total)", &total, cov);
        out
    }

    /// Serialize as one JSON object:
    /// `{"regions":[…],"memory":{…}}` with `"memory"` present only when a
    /// state series was sampled. [`Self::from_json_value`] inverts this
    /// byte-identically.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw("regions", &self.regions.json());
        write_optional(&mut o, "memory", &self.memory);
        o.finish()
    }

    /// Rebuild from a parsed [`JsonValue`] (inverse of [`Self::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        Self::from_json(v).map_err(|e| format!("attribution: {e}"))
    }
}

impl Field for AttributionReport {
    fn json(&self) -> String {
        self.to_json()
    }

    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        Ok(AttributionReport {
            regions: read_field(v, "regions")?,
            memory: read_optional(v, "memory")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributionReport {
        let mut a = RegionReport {
            name: "edge_array".into(),
            mapped_bytes: 1 << 20,
            huge_bytes: 0,
            ..Default::default()
        };
        a.counters.accesses = [500, 0];
        a.counters.stlb_misses = [10, 0];
        a.counters.walk_latency.record(30);
        let mut b = RegionReport {
            name: "dist".into(),
            mapped_bytes: 1 << 20,
            huge_bytes: 1 << 20,
            ..Default::default()
        };
        b.counters.accesses = [0, 900];
        b.counters.stlb_misses = [0, 30];
        b.counters.walk_latency.record(25);
        b.counters.walk_latency.record(35);
        b.counters.fault_cycles = 40;
        b.counters.faults = 1;
        AttributionReport {
            regions: vec![a, b],
            memory: None,
        }
    }

    #[test]
    fn shares_and_lookup() {
        let r = sample();
        assert_eq!(r.total_stlb_misses(), 40);
        assert!((r.stlb_miss_share("dist") - 0.75).abs() < 1e-12);
        assert!((r.walk_cycle_share("dist") - 100.0 / 130.0).abs() < 1e-12);
        assert!(r.region("vertex_array").is_none());
        assert_eq!(r.region("dist").unwrap().huge_coverage(), 1.0);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let r = sample();
        let text = r.to_json();
        let back = AttributionReport::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text);
        // The optional memory series key round-trips too.
        let mut with_mem = sample();
        let mut series = MemStateSeries::default();
        series.note_regions(&["edge_array".into(), "dist".into()]);
        series.push(graphmem_os::MemStateSample {
            cycle: 100,
            free_frames: 512,
            free_huge_blocks: 3,
            unusable_index: 0.25,
            buddy: vec![2, 1, 0, 3],
            coverage: vec![0.0, 1.0],
        });
        with_mem.memory = Some(series);
        let text = with_mem.to_json();
        let back = AttributionReport::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, with_mem);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn table_has_row_per_region_plus_total() {
        let r = sample();
        let table = r.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 regions + total
        assert!(lines[1].starts_with("edge_array"));
        assert!(lines[3].starts_with("(total)"));
        assert!(lines[3].contains("1400")); // summed accesses
    }

    #[test]
    fn from_json_names_the_broken_field() {
        let v = JsonValue::parse(r#"{"regions":[{"name":"x"}]}"#).unwrap();
        let err = AttributionReport::from_json_value(&v).unwrap_err();
        assert!(err.contains("mapped_bytes"), "{err}");
    }
}
