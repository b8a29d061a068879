//! Epoch-sampled time-series metrics.
//!
//! A [`MetricsSample`] is a snapshot of *cumulative* simulator counters plus
//! a few *instantaneous* memory-state gauges, stamped with the simulated
//! cycle clock. The [`EpochSampler`] collects one every N cycles into a
//! [`MetricsSeries`]; per-epoch rates fall out of adjacent-sample deltas, so
//! the series always reconciles with end-of-run aggregate counters.

use crate::counters::Scalar;
use crate::series::{Series, SeriesSample};

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

impl SeriesSample for MetricsSample {
    const HEADER: &'static str = "interval";
    type Header = u64;

    fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Floats print to six decimals.
    fn csv_cell(cell: Scalar) -> String {
        match cell {
            Scalar::Float(v) => format!("{v:.6}"),
            int => int.to_string(),
        }
    }
}

/// A time series of epoch snapshots; its header is the nominal sampling
/// interval.
pub type MetricsSeries = Series<MetricsSample>;

impl MetricsSeries {
    /// Nominal sampling interval in simulated cycles.
    pub fn interval(&self) -> u64 {
        self.header
    }
}

/// Drives epoch sampling: tells the simulation driver when a snapshot is due
/// and accumulates the resulting series.
#[derive(Debug, Clone)]
pub struct EpochSampler {
    next: u64,
    series: MetricsSeries,
}

impl EpochSampler {
    /// Sample every `interval` simulated cycles (`interval > 0`).
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        EpochSampler {
            next: interval,
            series: MetricsSeries::new(interval),
        }
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
            self.next += self.series.interval();
        }
        self.series.push(sample);
    }

    /// Consume the sampler, yielding its series (close it with
    /// [`Series::close`]).
    pub fn into_series(self) -> MetricsSeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Counters, Field};

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
        let series = s.into_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series.interval(), 100);
    }

    #[test]
    fn csv_header_matches_row_arity() {
        let header_cols = MetricsSample::FIELDS.len();
        let mut s = MetricsSeries::new(10);
        s.push(sample(10, 5, 1));
        let csv = s.to_csv();
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
    fn series_round_trips_through_json() {
        let mut s = MetricsSeries::new(100);
        s.push(sample(100, 17, 2));
        s.push(sample(200, 40, 3));
        s.push(sample(350, 95, 9));
        let text = s.json();
        let back =
            MetricsSeries::from_json(&crate::json::JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.interval(), 100);
        assert_eq!(back.json(), text);
    }

    #[test]
    fn json_export_contains_samples() {
        let mut s = MetricsSeries::new(10);
        s.push(sample(10, 5, 1));
        let j = s.json();
        assert!(j.starts_with(r#"{"interval":10,"samples":[{"cycle":10,"#));
    }
}
