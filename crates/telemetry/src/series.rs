//! One container for every per-epoch series.
//!
//! A [`Series`] is a time-ordered list of [`counters!`](crate::counters!)
//! snapshots behind one header field: the metrics series
//! ([`MetricsSeries`](crate::MetricsSeries)) carries its sampling
//! `interval`, the memory-state series
//! ([`MemStateSeries`](crate::MemStateSeries)) the `regions` its coverage
//! columns refer to. The container owns the whole envelope: ordered push,
//! the closing end-of-run sample, per-epoch deltas, the JSON form
//! `{"<header>":…,"samples":[…]}` with its exact inverse, and the CSV
//! export. What differs per sample type sits behind [`SeriesSample`].

use std::fmt::Debug;
use std::io;
use std::path::Path;

use crate::counters::{read_field, Counters, Field, FieldError, Scalar};
use crate::json::{JsonObject, JsonValue};

/// A snapshot type a [`Series`] can hold: its header field and its CSV
/// layout.
pub trait SeriesSample: Counters + Clone + Default {
    /// JSON key of the series header, written before `samples`.
    const HEADER: &'static str;
    /// What the header holds.
    type Header: Field + Clone + Debug + Default + PartialEq;

    /// Simulated cycle the snapshot was taken at.
    fn cycle(&self) -> u64;

    /// One scalar field as a CSV cell (`Display` by default).
    fn csv_cell(cell: Scalar) -> String {
        cell.to_string()
    }

    /// CSV columns after the scalar fields: their names, then one row of
    /// cells per sample. None by default.
    fn csv_extra(_header: &Self::Header, samples: &[Self]) -> (Vec<String>, Vec<Vec<String>>) {
        (Vec::new(), vec![Vec::new(); samples.len()])
    }
}

/// A time-ordered series of epoch snapshots plus its header.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series<S: SeriesSample> {
    pub(crate) header: S::Header,
    samples: Vec<S>,
}

impl<S: SeriesSample> Series<S> {
    /// An empty series with the given header.
    pub fn new(header: S::Header) -> Self {
        Series {
            header,
            samples: Vec::new(),
        }
    }

    /// Append a snapshot (cycles must be non-decreasing).
    pub fn push(&mut self, sample: S) {
        if let Some(last) = self.samples.last() {
            debug_assert!(
                sample.cycle() >= last.cycle(),
                "samples must be in time order"
            );
        }
        self.samples.push(sample);
    }

    /// Append the end-of-run snapshot. If the clock has not advanced since
    /// the last sample, the closing one replaces it, so the series never
    /// ends on a repeated cycle.
    pub fn close(&mut self, sample: S) {
        if self.last().is_some_and(|l| l.cycle() == sample.cycle()) {
            self.samples.pop();
        }
        self.push(sample);
    }

    /// All snapshots, oldest first.
    pub fn samples(&self) -> &[S] {
        &self.samples
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&S> {
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
    /// measured from the zero sample). Accumulating the result reproduces
    /// the last sample exactly.
    pub fn deltas(&self) -> Vec<S> {
        let mut prev = S::default();
        self.samples
            .iter()
            .map(|s| {
                let d = s.since(&prev);
                prev = s.clone();
                d
            })
            .collect()
    }

    /// Render as CSV with a header row: the scalar fields in declaration
    /// order, then the sample type's extra columns.
    pub fn to_csv(&self) -> String {
        let (extra_names, extra_rows) = S::csv_extra(&self.header, &self.samples);
        let names = S::FIELDS
            .iter()
            .zip(S::default().scalars())
            .filter_map(|(name, cell)| cell.map(|_| name.to_string()));
        let mut out = names.chain(extra_names).collect::<Vec<_>>().join(",");
        out.push('\n');
        for (s, extra) in self.samples.iter().zip(extra_rows) {
            let cells = s.scalars().into_iter().flatten().map(S::csv_cell);
            out.push_str(&cells.chain(extra).collect::<Vec<_>>().join(","));
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
        std::fs::write(path, self.to_csv())
    }
}

impl<S: SeriesSample> Field for Series<S> {
    fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw(S::HEADER, &self.header.json())
            .field_raw("samples", &self.samples.json());
        o.finish()
    }

    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        Ok(Series {
            header: read_field(v, S::HEADER)?,
            samples: read_field(v, "samples")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStateSample, MemStateSeries, MetricsSample, MetricsSeries};

    fn metrics(cycle: u64, accesses: u64, faults: u64) -> MetricsSample {
        MetricsSample {
            cycle,
            accesses,
            dtlb_misses: accesses / 10,
            faults,
            free_frames: 100 + cycle,
            fragmentation_index: 0.25,
            ..MetricsSample::default()
        }
    }

    fn memstate(cycle: u64, coverage: &[f64]) -> MemStateSample {
        MemStateSample {
            cycle,
            free_frames: 4096 - cycle,
            free_huge_blocks: 8,
            unusable_index: 0.25,
            buddy: vec![3, 2, 1, 0, 8],
            coverage: coverage.to_vec(),
        }
    }

    fn metrics_series() -> MetricsSeries {
        let mut s = MetricsSeries::new(100);
        s.push(metrics(100, 17, 2));
        s.push(metrics(200, 40, 3));
        s.push(metrics(350, 95, 9));
        s
    }

    /// Regions mapped mid-run: the first sample predates both, the second
    /// sees one, the third both.
    fn memstate_series() -> MemStateSeries {
        let mut s = MemStateSeries::default();
        s.push(memstate(100, &[]));
        s.note_regions(&["vertex_array".to_string()]);
        s.push(memstate(200, &[0.5]));
        s.note_regions(&["vertex_array".to_string(), "dist".to_string()]);
        s.push(memstate(350, &[0.5, 0.875]));
        s
    }

    fn round_trip<S: SeriesSample + Debug + PartialEq>(s: &Series<S>) -> Series<S> {
        let text = s.json();
        let back = Series::<S>::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, s);
        assert_eq!(back.json(), text);
        back
    }

    #[test]
    fn empty_series_round_trips() {
        fn check<S: SeriesSample + Debug + PartialEq>(s: Series<S>) {
            let back = round_trip(&s);
            assert!(back.is_empty());
            assert_eq!(back.len(), 0);
            assert_eq!(back.to_csv().lines().count(), 1, "header row only");
        }
        check(MetricsSeries::new(10));
        check(MemStateSeries::default());
    }

    #[test]
    fn ragged_coverage_pads_csv_cells() {
        fn arity<S: SeriesSample>(s: &Series<S>) -> Vec<usize> {
            s.to_csv().lines().map(|l| l.split(',').count()).collect()
        }
        let m = metrics_series();
        assert_eq!(arity(&m), vec![MetricsSample::FIELDS.len(); 4]);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], MetricsSample::FIELDS.join(","));
        assert!(
            lines[1].ends_with(",0.250000,0.000000"),
            "metrics floats print six decimals: {}",
            lines[1]
        );

        let s = memstate_series();
        assert_eq!(arity(&s), vec![11; 4]);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "cycle,free_frames,free_huge_blocks,unusable_index,buddy_o0,buddy_o1,buddy_o2,buddy_o3,buddy_o4,cov_vertex_array,cov_dist"
        );
        assert!(
            lines[1].ends_with(",0.25,3,2,1,0,8,,"),
            "pre-map sample pads coverage: {}",
            lines[1]
        );
        assert!(lines[2].ends_with(",8,0.5,"), "one region: {}", lines[2]);
        assert!(lines[3].ends_with(",0.5,0.875"), "both: {}", lines[3]);
    }

    #[test]
    fn deltas_sum_back_to_final_cumulative_sample() {
        fn check<S: SeriesSample + Debug + PartialEq>(s: &Series<S>) -> Vec<S> {
            let deltas = s.deltas();
            assert_eq!(deltas.len(), s.len());
            let mut total = S::default();
            for d in &deltas {
                total.accumulate(d);
            }
            assert_eq!(Some(&total), s.last());
            deltas
        }
        let m = check(&metrics_series());
        assert_eq!(
            m.iter().map(|d| d.cycle).collect::<Vec<_>>(),
            [100, 100, 150]
        );
        assert_eq!(m.iter().map(|d| d.faults).sum::<u64>(), 9);
        // Gauges carry the instantaneous value, not a difference.
        assert_eq!(m[1].free_frames, 300);
        let s = check(&memstate_series());
        assert_eq!(
            s.iter().map(|d| d.cycle).collect::<Vec<_>>(),
            [100, 100, 150]
        );
        assert_eq!(s[1].free_frames, 3896);
    }

    #[test]
    fn close_replaces_duplicate_cycle() {
        fn check<S: SeriesSample + Debug + PartialEq>(mut s: Series<S>, same: S, later: S) {
            let n = s.len();
            s.close(same.clone());
            assert_eq!(s.len(), n, "a closing sample at the last cycle replaces it");
            assert_eq!(s.last(), Some(&same));
            s.close(later.clone());
            assert_eq!(s.len(), n + 1);
            assert_eq!(s.last(), Some(&later));
            s.close(later);
            assert_eq!(s.len(), n + 1);
        }
        check(metrics_series(), metrics(350, 99, 9), metrics(400, 120, 10));
        check(
            memstate_series(),
            memstate(350, &[1.0, 1.0]),
            memstate(400, &[1.0, 1.0]),
        );
        let mut empty = MemStateSeries::default();
        empty.close(memstate(0, &[]));
        assert_eq!(empty.len(), 1, "closing an empty series appends");
    }
}
