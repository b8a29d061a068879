//! Epoch-sampled time-series metrics.
//!
//! A [`MetricsSample`] is a snapshot of *cumulative* simulator counters plus
//! a few *instantaneous* memory-state gauges, stamped with the simulated
//! cycle clock. The [`EpochSampler`] collects one every N cycles into a
//! [`MetricsSeries`]; per-epoch rates fall out of adjacent-sample deltas, so
//! the series always reconciles with end-of-run aggregate counters.

use std::io::{self, Write};
use std::path::Path;

use crate::counters::{read_field, Counters, Field, FieldError, Scalar};
use crate::json::{JsonObject, JsonValue};

crate::counters! {
    /// One epoch snapshot: cumulative counters plus instantaneous gauges.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct MetricsSample {
        cumulative {
            /// Simulated cycle at which the snapshot was taken (a delta's
            /// `cycle` is the epoch length).
            cycle: u64,
            /// Simulated memory accesses issued by the workload.
            accesses: u64,
            /// First-level DTLB misses.
            dtlb_misses: u64,
            /// Unified second-level TLB misses (page walks).
            stlb_misses: u64,
            /// PTE reads performed by page walks.
            walk_pte_reads: u64,
            /// Cycles spent in address translation.
            translation_cycles: u64,
            /// Page faults taken.
            faults: u64,
            /// Faults resolved with a huge page.
            huge_faults: u64,
            /// Huge-page faults that fell back to base pages.
            huge_fallbacks: u64,
            /// khugepaged promotions performed.
            promotions: u64,
            /// Huge mappings demoted (for swap or by the utilization daemon).
            demotions: u64,
            /// khugepaged scan passes.
            khugepaged_scans: u64,
            /// Direct-compaction attempts.
            direct_compactions: u64,
            /// Frames migrated by compaction.
            frames_migrated: u64,
            /// Pages written to swap.
            swap_outs: u64,
            /// Pages read back from swap.
            swap_ins: u64,
            /// Cycles charged to kernel work.
            kernel_cycles: u64,
        }
        gauge {
            /// Free frames in the workload's zone right now.
            free_frames: u64,
            /// Fully-free huge-page-sized blocks right now.
            free_huge_blocks: u64,
            /// Base-page mappings currently live.
            base_pages_mapped: u64,
            /// Huge-page mappings currently live.
            huge_pages_mapped: u64,
            /// Free-memory fragmentation index: 1 − (frames in fully-free huge
            /// blocks / free frames). 0 = perfectly defragmented free memory.
            fragmentation_index: f64,
            /// Fraction of mapped bytes currently backed by huge pages.
            huge_coverage: f64,
        }
    }
}

impl MetricsSample {
    /// Values in [`Counters::FIELDS`] order, rendered for CSV (floats to
    /// six decimals).
    pub fn csv_row(&self) -> String {
        let cells: Vec<String> = self
            .scalars()
            .into_iter()
            .flatten()
            .map(|cell| match cell {
                Scalar::Float(v) => format!("{v:.6}"),
                int => int.to_string(),
            })
            .collect();
        cells.join(",")
    }

    /// DTLB misses per access over this (delta) sample; 0 when idle.
    pub fn dtlb_miss_rate(&self) -> f64 {
        ratio(self.dtlb_misses, self.accesses)
    }

    /// STLB misses per access over this (delta) sample; 0 when idle.
    pub fn stlb_miss_rate(&self) -> f64 {
        ratio(self.stlb_misses, self.accesses)
    }

    /// Faults per million simulated cycles over this (delta) sample.
    pub fn faults_per_mcycle(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.faults as f64 * 1e6 / self.cycle as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A time series of epoch snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSeries {
    /// Nominal sampling interval in simulated cycles.
    pub interval: u64,
    samples: Vec<MetricsSample>,
}

impl MetricsSeries {
    /// An empty series with the given nominal interval.
    pub fn new(interval: u64) -> Self {
        MetricsSeries {
            interval,
            samples: Vec::new(),
        }
    }

    /// Append a snapshot (cycles must be non-decreasing).
    pub fn push(&mut self, sample: MetricsSample) {
        if let Some(last) = self.samples.last() {
            debug_assert!(sample.cycle >= last.cycle, "samples must be in time order");
        }
        self.samples.push(sample);
    }

    /// All snapshots, oldest first.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&MetricsSample> {
        self.samples.last()
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no snapshot has been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Per-epoch deltas between adjacent samples (the first epoch is
    /// measured from the zero sample). Summing the cumulative fields of the
    /// result reproduces the final sample exactly.
    pub fn deltas(&self) -> Vec<MetricsSample> {
        let zero = MetricsSample::default();
        self.samples
            .iter()
            .scan(zero, |prev, s| {
                let d = s.since(prev);
                *prev = *s;
                Some(d)
            })
            .collect()
    }

    /// Render as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = MetricsSample::FIELDS.join(",");
        out.push('\n');
        for s in &self.samples {
            out.push_str(&s.csv_row());
            out.push('\n');
        }
        out
    }

    /// Write [`Self::to_csv`] to a file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }

    /// Render as a JSON object (interval + array of samples).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("interval", self.interval)
            .field_raw("samples", &self.samples.json());
        o.finish()
    }

    /// Rebuild a series from a parsed JSON object — the inverse of
    /// [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<MetricsSeries, String> {
        Self::from_json(v).map_err(|e| format!("MetricsSeries: {e}"))
    }
}

impl Field for MetricsSeries {
    fn json(&self) -> String {
        self.to_json()
    }

    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        Ok(MetricsSeries {
            interval: read_field(v, "interval")?,
            samples: read_field(v, "samples")?,
        })
    }
}

/// Drives epoch sampling: tells the simulation driver when a snapshot is due
/// and accumulates the resulting series.
#[derive(Debug, Clone)]
pub struct EpochSampler {
    interval: u64,
    next: u64,
    series: MetricsSeries,
}

impl EpochSampler {
    /// Sample every `interval` simulated cycles (`interval > 0`).
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        EpochSampler {
            interval,
            next: interval,
            series: MetricsSeries::new(interval),
        }
    }

    /// Sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether the clock has crossed the next sampling point.
    #[inline]
    pub fn due(&self, clock: u64) -> bool {
        clock >= self.next
    }

    /// The cycle at which the next sample becomes due. Drivers that batch
    /// event checks behind a watermark use this to schedule the next stop.
    #[inline]
    pub fn next_due(&self) -> u64 {
        self.next
    }

    /// Record a due snapshot and schedule the next epoch after it.
    pub fn record(&mut self, sample: MetricsSample) {
        while self.next <= sample.cycle {
            self.next += self.interval;
        }
        self.series.push(sample);
    }

    /// Record the final snapshot unconditionally (end of run). If the clock
    /// has not advanced since the last snapshot, the last one is replaced so
    /// the series never ends with a duplicate cycle.
    pub fn record_final(&mut self, sample: MetricsSample) {
        if self.series.last().is_some_and(|l| l.cycle == sample.cycle) {
            let n = self.series.samples.len();
            self.series.samples[n - 1] = sample;
        } else {
            self.series.push(sample);
        }
    }

    /// The accumulated series.
    pub fn series(&self) -> &MetricsSeries {
        &self.series
    }

    /// Consume the sampler, yielding its series.
    pub fn into_series(self) -> MetricsSeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, accesses: u64, faults: u64) -> MetricsSample {
        MetricsSample {
            cycle,
            accesses,
            dtlb_misses: accesses / 10,
            faults,
            free_frames: 100,
            fragmentation_index: 0.25,
            ..MetricsSample::default()
        }
    }

    #[test]
    fn series_round_trips_through_json() {
        let mut series = MetricsSeries::new(100);
        series.push(sample(100, 10, 1));
        series.push(sample(250, 37, 2));
        let text = series.to_json();
        let v = crate::json::JsonValue::parse(&text).unwrap();
        let back = MetricsSeries::from_json_value(&v).unwrap();
        assert_eq!(back.interval, series.interval);
        assert_eq!(back.samples(), series.samples());
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn sample_from_json_names_missing_field() {
        let v = crate::json::JsonValue::parse(r#"{"cycle":5}"#).unwrap();
        let err = MetricsSample::from_json_value(&v).unwrap_err();
        assert!(err.contains("accesses"), "unexpected message: {err}");
    }

    #[test]
    fn sampler_fires_on_epoch_boundaries_only() {
        let mut s = EpochSampler::new(100);
        assert!(!s.due(0));
        assert!(!s.due(99));
        assert!(s.due(100));
        s.record(sample(105, 10, 1));
        assert!(!s.due(199)); // next epoch is at 200
        assert!(s.due(200));
        s.record(sample(450, 40, 2)); // skipped epochs collapse
        assert!(!s.due(499));
        assert!(s.due(500));
        assert_eq!(s.series().len(), 2);
    }

    #[test]
    fn record_final_replaces_duplicate_cycle() {
        let mut s = EpochSampler::new(100);
        s.record(sample(100, 10, 1));
        s.record_final(sample(100, 12, 1));
        assert_eq!(s.series().len(), 1);
        assert_eq!(s.series().last().unwrap().accesses, 12);
        s.record_final(sample(150, 20, 2));
        assert_eq!(s.series().len(), 2);
    }

    #[test]
    fn deltas_sum_back_to_final_cumulative_sample() {
        let mut series = MetricsSeries::new(100);
        series.push(sample(100, 17, 2));
        series.push(sample(200, 40, 3));
        series.push(sample(350, 95, 9));
        let deltas = series.deltas();
        assert_eq!(deltas.len(), 3);
        let total_accesses: u64 = deltas.iter().map(|d| d.accesses).sum();
        let total_faults: u64 = deltas.iter().map(|d| d.faults).sum();
        let total_cycles: u64 = deltas.iter().map(|d| d.cycle).sum();
        let last = series.last().unwrap();
        assert_eq!(total_accesses, last.accesses);
        assert_eq!(total_faults, last.faults);
        assert_eq!(total_cycles, last.cycle);
        // Gauges carry the instantaneous value, not a difference.
        assert_eq!(deltas[1].free_frames, 100);
    }

    #[test]
    fn csv_header_matches_row_arity() {
        let header_cols = MetricsSample::FIELDS.len();
        let row = sample(1, 2, 3).csv_row();
        assert_eq!(row.split(',').count(), header_cols);
        let csv = {
            let mut s = MetricsSeries::new(10);
            s.push(sample(10, 5, 1));
            s.to_csv()
        };
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap().split(',').count(),
            header_cols,
            "header arity"
        );
        assert_eq!(lines.next().unwrap().split(',').count(), header_cols);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let z = MetricsSample::default();
        assert_eq!(z.dtlb_miss_rate(), 0.0);
        assert_eq!(z.stlb_miss_rate(), 0.0);
        assert_eq!(z.faults_per_mcycle(), 0.0);
        let d = sample(200, 100, 4).since(&sample(100, 50, 2));
        assert_eq!(d.accesses, 50);
        assert_eq!(d.faults_per_mcycle(), 2.0 * 1e6 / 100.0);
    }

    #[test]
    fn json_export_contains_samples() {
        let mut s = MetricsSeries::new(10);
        s.push(sample(10, 5, 1));
        let j = s.to_json();
        assert!(j.starts_with(r#"{"interval":10,"samples":[{"cycle":10,"#));
    }
}
