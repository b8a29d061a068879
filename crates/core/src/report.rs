//! Results of one measured experiment run.

use graphmem_os::{GovernorEpochSample, OsStats};
use graphmem_telemetry::counters::{read_field, read_optional, write_optional, FieldError};
use graphmem_telemetry::json::{JsonObject, JsonValue};
use graphmem_telemetry::MetricsSeries;
use graphmem_vm::PerfCounters;

use crate::attribution::AttributionReport;

graphmem_telemetry::counters! {
    /// What the page-size governor did during one run: cumulative decision
    /// counters plus the per-epoch decision series, attached to
    /// [`RunReport::governor`] when the governor was enabled.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct GovernorReport {
        gauge {
            /// The canonical governor policy token
            /// (`epoch=…,promote=…,demote=…,max=…`) — the same string accepted by
            /// `--governor` and the spec JSON, so a report names the exact policy
            /// that produced it.
            config: String,
        }
        cumulative {
            /// Control epochs completed.
            epochs: u64,
            /// Regions promoted by governor decisions.
            promotions: u64,
            /// Huge mappings demoted by governor decisions.
            demotions: u64,
            /// Promotions denied for lack of contiguity.
            denied_by_fragmentation: u64,
        }
        gauge {
            /// Per-epoch decisions, in epoch order.
            series: Vec<GovernorEpochSample>,
        }
    }
}

/// Everything measured during one [`Experiment`](crate::Experiment) run —
/// the simulated analogue of the paper's `app_output`/`results.txt`
/// artifacts (runtime, TLB miss rates, page-walk counts) plus huge-page
/// usage accounting.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration labels: dataset, kernel, policy, preprocessing,
    /// memory condition.
    pub labels: [String; 5],
    /// Cycles spent initializing (loading CSR data, zeroing properties) —
    /// where fault-time huge page creation costs land.
    pub init_cycles: u64,
    /// Cycles of the graph algorithm itself (the paper's "kernel
    /// computation time").
    pub compute_cycles: u64,
    /// Analytic preprocessing (reordering) cycles, if any.
    pub preprocess_cycles: u64,
    /// Hardware counters over the compute phase.
    pub perf: PerfCounters,
    /// OS counters over the whole run (init + compute).
    pub os: OsStats,
    /// Bytes of the full working set (all arrays).
    pub footprint_bytes: u64,
    /// Bytes of the property array(s).
    pub property_bytes: u64,
    /// Bytes of the property array(s) backed by huge pages at the end.
    pub property_huge_bytes: u64,
    /// Bytes of all arrays backed by huge pages at the end.
    pub total_huge_bytes: u64,
    /// Whether the simulated output matched the native reference.
    pub verified: bool,
    /// Epoch-sampled metrics time series, when sampling was enabled (see
    /// [`Experiment::sample_interval`](crate::Experiment::sample_interval)).
    pub series: Option<MetricsSeries>,
    /// Per-array translation attribution, when profiling was enabled (see
    /// [`Experiment::attribution`](crate::Experiment::attribution)).
    pub attribution: Option<AttributionReport>,
    /// Page-size governor counters and decision series, when the governor
    /// was enabled (see [`PageSizePlan::governor`](crate::PageSizePlan)).
    pub governor: Option<GovernorReport>,
}

impl RunReport {
    /// End-to-end cycles: preprocessing + initialization + compute.
    pub fn total_cycles(&self) -> u64 {
        self.preprocess_cycles + self.init_cycles + self.compute_cycles
    }

    /// Speedup of this run over `baseline` on compute time (the paper's
    /// primary metric).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.compute_cycles as f64 / self.compute_cycles.max(1) as f64
    }

    /// Speedup including preprocessing and initialization.
    pub fn total_speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.total_cycles() as f64 / self.total_cycles().max(1) as f64
    }

    /// Compute-phase DTLB miss rate (Fig. 3 bar height).
    pub fn dtlb_miss_rate(&self) -> f64 {
        self.perf.dtlb_miss_rate()
    }

    /// Compute-phase STLB miss (page walk) rate (Fig. 3 shaded portion).
    pub fn stlb_miss_rate(&self) -> f64 {
        self.perf.stlb_miss_rate()
    }

    /// Fraction of compute cycles spent on address translation (Fig. 2).
    pub fn translation_overhead(&self) -> f64 {
        self.perf.translation_overhead(self.compute_cycles)
    }

    /// Fraction of the application footprint backed by huge pages — the
    /// paper's "memory resources" metric (0.58–2.92 % for selective THP).
    pub fn huge_memory_fraction(&self) -> f64 {
        if self.footprint_bytes == 0 {
            0.0
        } else {
            self.total_huge_bytes as f64 / self.footprint_bytes as f64
        }
    }

    /// Fraction of the property array backed by huge pages.
    pub fn property_huge_fraction(&self) -> f64 {
        if self.property_bytes == 0 {
            0.0
        } else {
            self.property_huge_bytes as f64 / self.property_bytes as f64
        }
    }

    /// Render the full report as one JSON object (no external deps — uses
    /// the telemetry crate's tiny writer). Includes the sampled series when
    /// present.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("dataset", &self.labels[0]);
        o.field_str("kernel", &self.labels[1]);
        o.field_str("policy", &self.labels[2]);
        o.field_str("preprocessing", &self.labels[3]);
        o.field_str("condition", &self.labels[4]);
        o.field_u64("init_cycles", self.init_cycles);
        o.field_u64("compute_cycles", self.compute_cycles);
        o.field_u64("preprocess_cycles", self.preprocess_cycles);
        o.field_u64("total_cycles", self.total_cycles());
        // The counters, then the derived rates.
        let mut perf = JsonObject::new();
        self.perf.write_json(&mut perf);
        perf.field_f64("dtlb_miss_rate", self.dtlb_miss_rate());
        perf.field_f64("stlb_miss_rate", self.stlb_miss_rate());
        perf.field_f64("translation_overhead", self.translation_overhead());
        o.field_raw("perf", &perf.finish());
        o.field_raw("os", &self.os.to_json());
        o.field_u64("footprint_bytes", self.footprint_bytes);
        o.field_u64("property_bytes", self.property_bytes);
        o.field_u64("property_huge_bytes", self.property_huge_bytes);
        o.field_u64("total_huge_bytes", self.total_huge_bytes);
        o.field_f64("huge_memory_fraction", self.huge_memory_fraction());
        o.field_f64("property_huge_fraction", self.property_huge_fraction());
        o.field_bool("verified", self.verified);
        write_optional(&mut o, "series", &self.series);
        write_optional(&mut o, "attribution", &self.attribution);
        write_optional(&mut o, "governor", &self.governor);
        o.finish()
    }

    /// Parse a report previously rendered by [`Self::to_json`].
    ///
    /// Derived fields (`total_cycles`, the rate/fraction floats) are
    /// recomputed, not read back, so a rebuilt report re-serializes to the
    /// byte-identical JSON line — the property the run-manifest resume
    /// path relies on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the parse failure or the first missing /
    /// mistyped field; manifest readers attach path and line context
    /// themselves.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = JsonValue::parse(text)?;
        Self::from_json_value(&v)
    }

    /// Rebuild a report from a parsed JSON object (see [`Self::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<RunReport, String> {
        Self::read(v).map_err(|e| format!("report: {e}"))
    }

    fn read(v: &JsonValue) -> Result<RunReport, FieldError> {
        Ok(RunReport {
            labels: [
                read_field(v, "dataset")?,
                read_field(v, "kernel")?,
                read_field(v, "policy")?,
                read_field(v, "preprocessing")?,
                read_field(v, "condition")?,
            ],
            init_cycles: read_field(v, "init_cycles")?,
            compute_cycles: read_field(v, "compute_cycles")?,
            preprocess_cycles: read_field(v, "preprocess_cycles")?,
            perf: read_field(v, "perf")?,
            os: read_field(v, "os")?,
            footprint_bytes: read_field(v, "footprint_bytes")?,
            property_bytes: read_field(v, "property_bytes")?,
            property_huge_bytes: read_field(v, "property_huge_bytes")?,
            total_huge_bytes: read_field(v, "total_huge_bytes")?,
            verified: read_field(v, "verified")?,
            series: read_optional(v, "series")?,
            attribution: read_optional(v, "attribution")?,
            governor: read_optional(v, "governor")?,
        })
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} {} {} [{}]: compute {:.2}Mcy, dtlb {:.1}%, walk {:.1}%, huge {:.2}% of mem, {}",
            self.labels[0],
            self.labels[1],
            self.labels[2],
            self.labels[3],
            self.labels[4],
            self.compute_cycles as f64 / 1e6,
            self.dtlb_miss_rate() * 100.0,
            self.stlb_miss_rate() * 100.0,
            self.huge_memory_fraction() * 100.0,
            if self.verified { "ok" } else { "WRONG RESULT" },
        )
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(compute: u64) -> RunReport {
        RunReport {
            labels: [
                "kron".into(),
                "bfs".into(),
                "4KB".into(),
                "orig".into(),
                "free".into(),
            ],
            init_cycles: 100,
            compute_cycles: compute,
            preprocess_cycles: 10,
            perf: PerfCounters::default(),
            os: OsStats::default(),
            footprint_bytes: 1000,
            property_bytes: 100,
            property_huge_bytes: 50,
            total_huge_bytes: 50,
            verified: true,
            series: None,
            attribution: None,
            governor: None,
        }
    }

    #[test]
    fn metrics() {
        let fast = report(500);
        let slow = report(1000);
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert!((fast.total_speedup_over(&slow) - 1110.0 / 610.0).abs() < 1e-9);
        assert_eq!(fast.huge_memory_fraction(), 0.05);
        assert_eq!(fast.property_huge_fraction(), 0.5);
        assert_eq!(fast.total_cycles(), 610);
        assert!(fast.summary().contains("ok"));
    }

    #[test]
    fn json_export_is_one_object_with_nested_sections() {
        let mut r = report(500);
        let j = r.to_json();
        assert!(j.starts_with(r#"{"dataset":"kron","kernel":"bfs""#));
        assert!(j.contains(r#""perf":{"accesses":0"#));
        assert!(j.contains(r#""os":{"faults":0"#));
        assert!(j.contains(r#""verified":true"#));
        assert!(!j.contains(r#""series""#));
        assert!(!j.contains(r#""attribution""#));
        r.series = Some(MetricsSeries::new(100));
        assert!(r.to_json().contains(r#""series":{"interval":100"#));
        r.attribution = Some(AttributionReport::default());
        assert!(r.to_json().contains(r#""attribution":{"regions":[]"#));
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut r = report(500);
        r.perf.accesses = u64::MAX; // would corrupt through an f64 path
        r.perf.data_level_hits = [9, 8, 7, 6];
        r.os.swap_outs = (1 << 53) + 1; // above f64 integer precision
        r.series = Some(MetricsSeries::new(100));
        r.attribution = Some(AttributionReport {
            regions: vec![crate::attribution::RegionReport {
                name: "edge_array".into(),
                mapped_bytes: 4096,
                huge_bytes: 0,
                ..Default::default()
            }],
            memory: None,
        });
        r.governor = Some(GovernorReport {
            config: "epoch=10000000,promote=2,demote=0.5,max=8".into(),
            epochs: 2,
            promotions: 5,
            demotions: 1,
            denied_by_fragmentation: 3,
            series: vec![GovernorEpochSample {
                cycle: 10_000_000,
                promoted: 5,
                demoted: 1,
                denied: 3,
                fragmentation: 0.625,
            }],
        });
        let text = r.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back.labels, r.labels);
        assert_eq!(back.perf, r.perf);
        assert_eq!(back.os.swap_outs, r.os.swap_outs);
        assert_eq!(back.to_json(), text);

        // Without a series too.
        let r = report(7);
        assert_eq!(
            RunReport::from_json(&r.to_json()).unwrap().to_json(),
            r.to_json()
        );
    }

    #[test]
    fn from_json_names_the_broken_field() {
        let r = report(500);
        let text = r.to_json().replace(r#""verified":true"#, r#""verified":3"#);
        let err = RunReport::from_json(&text).unwrap_err();
        assert!(err.contains("verified"), "{err}");
        assert!(RunReport::from_json("{not json").is_err());
    }
}
