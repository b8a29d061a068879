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

use std::io::{self, Write};
use std::path::Path;

use crate::counters::{read_field, Counters, Field, FieldError};
use crate::json::{JsonObject, JsonValue};

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

/// A time-ordered series of [`MemStateSample`]s plus the region names the
/// coverage columns refer to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStateSeries {
    regions: Vec<String>,
    samples: Vec<MemStateSample>,
}

impl MemStateSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the (current, possibly grown) list of tracked region names.
    /// The list only ever extends: regions are never dropped mid-run.
    pub fn note_regions(&mut self, names: &[String]) {
        if names.len() > self.regions.len() {
            self.regions = names.to_vec();
        }
    }

    /// Append a snapshot (must be in time order).
    pub fn push(&mut self, sample: MemStateSample) {
        if let Some(last) = self.samples.last() {
            debug_assert!(sample.cycle >= last.cycle, "samples must be in time order");
        }
        self.samples.push(sample);
    }

    /// Region names the coverage columns are aligned with.
    pub fn regions(&self) -> &[String] {
        &self.regions
    }

    /// All snapshots, oldest first.
    pub fn samples(&self) -> &[MemStateSample] {
        &self.samples
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no snapshot has been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialize as a JSON object: `{"regions":[…],"samples":[…]}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw("regions", &self.regions.json())
            .field_raw("samples", &self.samples.json());
        o.finish()
    }

    /// Rebuild from a parsed [`JsonValue`] (inverse of [`Self::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        Self::from_json(v).map_err(|e| format!("MemStateSeries: {e}"))
    }

    /// CSV rendering. Buddy columns are `buddy_o<order>`; coverage columns
    /// are `cov_<region>`. Samples taken before a region was mapped leave
    /// its coverage cell empty.
    pub fn to_csv(&self) -> String {
        let orders = self
            .samples
            .iter()
            .map(|s| s.buddy.len())
            .max()
            .unwrap_or(0);
        // The scalar fields lead; `buddy` and `coverage` expand into one
        // column per order / region.
        let scalar_names = MemStateSample::FIELDS
            .iter()
            .zip(MemStateSample::default().scalars())
            .filter_map(|(name, cell)| cell.map(|_| *name));
        let mut out = scalar_names.collect::<Vec<_>>().join(",");
        for o in 0..orders {
            out.push_str(&format!(",buddy_o{o}"));
        }
        for r in &self.regions {
            out.push_str(&format!(",cov_{r}"));
        }
        out.push('\n');
        for s in &self.samples {
            let cells: Vec<String> = s
                .scalars()
                .into_iter()
                .flatten()
                .map(|c| c.to_string())
                .collect();
            out.push_str(&cells.join(","));
            for o in 0..orders {
                out.push_str(&format!(",{}", s.buddy.get(o).copied().unwrap_or(0)));
            }
            for i in 0..self.regions.len() {
                match s.coverage.get(i) {
                    Some(c) => out.push_str(&format!(",{c}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Write [`Self::to_csv`] to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

impl Field for MemStateSeries {
    fn json(&self) -> String {
        self.to_json()
    }

    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        Ok(MemStateSeries {
            regions: read_field(v, "regions")?,
            samples: read_field(v, "samples")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, cov: &[f64]) -> MemStateSample {
        MemStateSample {
            cycle,
            free_frames: 4096 - cycle,
            free_huge_blocks: 8,
            unusable_index: 0.25,
            buddy: vec![3, 2, 1, 0, 8],
            coverage: cov.to_vec(),
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut s = MemStateSeries::new();
        s.note_regions(&["vertex_array".to_string()]);
        s.push(sample(100, &[0.5]));
        s.note_regions(&["vertex_array".to_string(), "dist".to_string()]);
        s.push(sample(200, &[0.5, 0.875]));
        let text = s.to_json();
        let back = MemStateSeries::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn ragged_coverage_pads_csv_cells() {
        let mut s = MemStateSeries::new();
        s.push(sample(100, &[]));
        s.note_regions(&["a".to_string(), "b".to_string()]);
        s.push(sample(200, &[0.5, 1.0]));
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "cycle,free_frames,free_huge_blocks,unusable_index,buddy_o0,buddy_o1,buddy_o2,buddy_o3,buddy_o4,cov_a,cov_b"
        );
        assert!(
            lines[1].ends_with(",,"),
            "pre-map sample pads coverage: {}",
            lines[1]
        );
        assert!(
            lines[2].ends_with(",0.5,1"),
            "mapped sample has values: {}",
            lines[2]
        );
    }

    #[test]
    fn note_regions_only_extends() {
        let mut s = MemStateSeries::new();
        s.note_regions(&["a".to_string(), "b".to_string()]);
        s.note_regions(&["a".to_string()]);
        assert_eq!(s.regions().len(), 2);
    }

    #[test]
    fn empty_series_round_trips() {
        let s = MemStateSeries::new();
        let back =
            MemStateSeries::from_json_value(&JsonValue::parse(&s.to_json()).unwrap()).unwrap();
        assert_eq!(back, s);
        assert!(back.is_empty());
        assert_eq!(back.len(), 0);
    }
}
