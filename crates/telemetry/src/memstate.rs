//! Per-epoch snapshots of physical-memory and mapping state.
//!
//! [`MetricsSample`](crate::MetricsSample) captures *hardware and OS
//! counters*; this module captures the complementary *memory state*: the
//! buddy allocator's free lists (`/proc/buddyinfo` style), the paper's
//! fragmentation / unusable-free-space index, and per-region huge-page
//! coverage. A [`MemStateSeries`] rides along on the run report only when
//! attribution is enabled, so the default report format is unchanged.
//!
//! Coverage vectors may be *ragged*: regions mapped mid-run simply start
//! appearing in later samples. The series keeps the region-name list so
//! column `i` of a coverage vector is always `regions()[i]`.

use crate::series::{Series, SeriesSample};

crate::counters! {
    /// One snapshot of zone + mapping state at a simulated cycle.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MemStateSample {
        cumulative {
            /// Simulated cycle the snapshot was taken at.
            cycle: u64,
        }
        gauge {
            /// Free base frames in the zone.
            free_frames: u64,
            /// Fully-free huge blocks (order `huge_order` buddies).
            free_huge_blocks: u64,
            /// Fraction of free memory unusable for huge allocations (the
            /// paper's §4.4.1 fragmentation metric; 0 = pristine, 1 = fully
            /// fragmented).
            unusable_index: f64,
            /// Free block counts per order, `buddy[o]` = free blocks of order
            /// `o` (`/proc/buddyinfo` row for the zone).
            buddy: Vec<u64>,
            /// Huge-page coverage fraction per tracked region, aligned with
            /// [`MemStateSeries::regions`]; may be shorter than the final
            /// region list if regions were mapped after this sample.
            coverage: Vec<f64>,
        }
    }
}

impl SeriesSample for MemStateSample {
    const HEADER: &'static str = "regions";
    type Header = Vec<String>;

    fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `buddy` spreads over `buddy_o<order>` columns (0 past a sample's
    /// top order) and `coverage` over `cov_<region>` columns. Samples taken
    /// before a region was mapped leave its coverage cell empty.
    fn csv_extra(regions: &Vec<String>, samples: &[Self]) -> (Vec<String>, Vec<Vec<String>>) {
        let orders = samples.iter().map(|s| s.buddy.len()).max().unwrap_or(0);
        let names = (0..orders)
            .map(|o| format!("buddy_o{o}"))
            .chain(regions.iter().map(|r| format!("cov_{r}")))
            .collect();
        let rows = samples
            .iter()
            .map(|s| {
                let buddy = (0..orders).map(|o| s.buddy.get(o).copied().unwrap_or(0).to_string());
                let coverage = (0..regions.len())
                    .map(|i| s.coverage.get(i).map_or_else(String::new, f64::to_string));
                buddy.chain(coverage).collect()
            })
            .collect();
        (names, rows)
    }
}

/// A time-ordered series of [`MemStateSample`]s; its header is the list of
/// region names the coverage columns refer to.
pub type MemStateSeries = Series<MemStateSample>;

impl MemStateSeries {
    /// Record the (current, possibly grown) list of tracked region names.
    /// The list only ever extends: regions are never dropped mid-run.
    pub fn note_regions(&mut self, names: &[String]) {
        if names.len() > self.header.len() {
            self.header = names.to_vec();
        }
    }

    /// Region names the coverage columns are aligned with.
    pub fn regions(&self) -> &[String] {
        &self.header
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Field;
    use crate::json::JsonValue;

    fn sample(cycle: u64, coverage: &[f64]) -> MemStateSample {
        MemStateSample {
            cycle,
            free_frames: 4096 - cycle,
            free_huge_blocks: 8,
            unusable_index: 0.25,
            buddy: vec![3, 2, 1, 0, 8],
            coverage: coverage.to_vec(),
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut s = MemStateSeries::default();
        s.push(sample(100, &[]));
        s.note_regions(&["vertex_array".to_string()]);
        s.push(sample(200, &[0.5]));
        s.note_regions(&["vertex_array".to_string(), "dist".to_string()]);
        s.push(sample(350, &[0.5, 0.875]));
        let text = s.json();
        assert!(text.starts_with(r#"{"regions":["vertex_array","dist"],"samples":[{"cycle":100,"#));
        let back = MemStateSeries::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.regions(), ["vertex_array", "dist"]);
        assert_eq!(back.json(), text);
    }

    #[test]
    fn note_regions_only_extends() {
        let mut s = MemStateSeries::default();
        s.note_regions(&["a".to_string(), "b".to_string()]);
        s.note_regions(&["a".to_string()]);
        assert_eq!(s.regions().len(), 2);
    }
}
