//! One codec check over every `counters!` declaration.
//!
//! Each declared counter set must round-trip through JSON exactly (u64
//! values above 2^53, shortest-round-trip floats, escaped strings), write
//! its keys in `FIELDS` order, difference to zero on cumulative fields
//! while keeping gauges, and name a missing key in its parse error. The
//! last test scans the workspace sources so a new declaration cannot skip
//! this check.

use std::fmt::Debug;
use std::path::Path;

use graphmem_core::{GovernorReport, RegionReport, RunReport};
use graphmem_os::{GovernorEpochSample, OsStats};
use graphmem_server::MetricsSnapshot;
use graphmem_telemetry::counters::{prometheus, read_field, Counters, Cumulative, Kind};
use graphmem_telemetry::json::JsonValue;
use graphmem_telemetry::{Histogram, MemStateSample, MetricsSample};
use graphmem_vm::{PerfCounters, RegionCounters};

/// Replace every zero integer with a distinct value above 2^53, nudge
/// every float onto a decimal with a long shortest representation, and
/// give every string characters that need escaping. Nonzero integers are
/// kept, so a shape can hold narrow (`u32`) fields.
fn fill(v: &mut JsonValue, next: &mut u64) {
    match v {
        JsonValue::UInt(0) => {
            *next += 1;
            *v = JsonValue::UInt((1 << 53) + *next);
        }
        JsonValue::Float(f) => {
            *next += 1;
            *f += 0.1 * *next as f64 + 0.2;
        }
        JsonValue::Str(s) => s.push_str(" \"q\"\\\n"),
        JsonValue::Array(items) => items.iter_mut().for_each(|item| fill(item, next)),
        JsonValue::Object(fields) => fields.iter_mut().for_each(|(_, f)| fill(f, next)),
        _ => {}
    }
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn parse(text: &str) -> JsonValue {
    JsonValue::parse(text).expect("writer output parses")
}

/// Every codec property, for the counter set `shape` filled with
/// extreme values. Float fields must be nonzero in `shape` (a zero float
/// renders as the integer `0`).
fn check<T: Counters + Default + PartialEq + Debug>(shape: T) {
    let name = std::any::type_name::<T>();
    let mut filled = parse(&shape.json());
    fill(&mut filled, &mut 0);
    let x = T::from_json(&filled).unwrap_or_else(|e| panic!("{name}: {e}"));

    // Exact round trip, both ways.
    let text = x.json();
    assert_eq!(
        parse(&text),
        filled,
        "{name}: values changed on the way out"
    );
    let back = T::from_json(&parse(&text)).expect("own output parses");
    assert_eq!(back, x, "{name}: values changed on the way in");
    assert_eq!(back.json(), text, "{name}: bytes changed");

    // Key order is declaration order.
    assert_eq!(keys(&filled), T::FIELDS, "{name}: key order");
    assert_eq!(T::KINDS.len(), T::FIELDS.len());
    assert_eq!(T::HELP.len(), T::FIELDS.len());

    // `since` zeroes cumulative fields and keeps gauges.
    let delta = parse(&x.since(&x).json());
    let zero = parse(&T::default().json());
    for (field, kind) in T::FIELDS.iter().zip(T::KINDS) {
        let want = match kind {
            Kind::Cumulative => zero.get(field),
            Kind::Gauge => filled.get(field),
        };
        assert_eq!(
            delta.get(field),
            want,
            "{name}.{field}: since under {kind:?}"
        );
    }

    // A missing key is named.
    for field in T::FIELDS {
        let JsonValue::Object(mut fields) = filled.clone() else {
            unreachable!("checked above")
        };
        fields.retain(|(k, _)| k != field);
        let err = T::from_json(&JsonValue::Object(fields)).expect_err("missing key rejected");
        assert_eq!(
            err.to_string(),
            format!("field '{field}' is missing"),
            "{name}"
        );
    }
}

fn region_counters() -> RegionCounters {
    let mut c = RegionCounters::default();
    c.walk_latency.record(40);
    c.walk_latency.record(900);
    c
}

fn epoch_sample(promoted: u32) -> GovernorEpochSample {
    GovernorEpochSample {
        cycle: 0,
        promoted,
        demoted: 1,
        denied: 2,
        fragmentation: 0.5,
    }
}

#[test]
fn metrics_sample() {
    check(MetricsSample {
        fragmentation_index: 0.5,
        huge_coverage: 0.25,
        ..MetricsSample::default()
    });
}

#[test]
fn mem_state_sample() {
    check(MemStateSample {
        unusable_index: 0.5,
        buddy: vec![0, 3, 0],
        coverage: vec![0.5, 0.75],
        ..MemStateSample::default()
    });
}

#[test]
fn perf_counters() {
    check(PerfCounters::default());
}

#[test]
fn os_stats() {
    check(OsStats::default());
}

#[test]
fn region_counters_with_histogram() {
    check(region_counters());
}

#[test]
fn region_report() {
    check(RegionReport {
        name: "edge_array".into(),
        counters: region_counters(),
        ..RegionReport::default()
    });
}

#[test]
fn governor_epoch_sample() {
    check(epoch_sample(3));
}

#[test]
fn governor_report() {
    check(GovernorReport {
        config: "epoch=10000000,promote=2,demote=0.5,max=8".into(),
        series: vec![epoch_sample(3), epoch_sample(u32::MAX)],
        ..GovernorReport::default()
    });
}

#[test]
fn metrics_snapshot() {
    check(MetricsSnapshot::default());
}

#[test]
fn histogram_since_is_the_inverse_of_merge() {
    let mut early = Histogram::new();
    early.record(5);
    let mut late = early.clone();
    late.record(1 << 40);
    late.record(0);
    let mut rebuilt = early.clone();
    rebuilt.merge(&late.since(&early));
    assert_eq!(rebuilt, late);
    assert_eq!(late.since(&late), Histogram::new());
}

/// A stored report whose governor series holds 2^32 + 1 must be
/// rejected, not wrapped to 1 by a narrowing cast.
#[test]
fn governor_counts_beyond_u32_are_rejected_not_truncated() {
    let stored = include_str!("golden/full_report.json");
    assert!(RunReport::from_json(stored.trim_end()).is_ok());
    let widened = stored.replacen(r#""promoted":0"#, r#""promoted":4294967297"#, 1);
    assert_eq!(
        RunReport::from_json(widened.trim_end()).unwrap_err(),
        "report: field 'governor.series.0.promoted' is out of range for u32 (4294967297)"
    );
}

// The macro itself, on a set that mixes every section and field shape.

graphmem_telemetry::counters! {
    /// A set exercising every section and nesting.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Probe {
        cumulative {
            /// Events.
            events: u64,
            /// Per-level events.
            levels: [u64; 2],
        }
        gauge {
            /// A label.
            label: String,
            /// A reading.
            level: f64,
        }
        cumulative {
            /// Latencies.
            latency: Histogram,
        }
    }
}

#[test]
fn accumulate_inverts_since() {
    let mut early = Probe {
        events: 3,
        levels: [1, 2],
        label: "a".into(),
        level: 0.5,
        ..Probe::default()
    };
    early.latency.record(7);
    let mut late = early.clone();
    late.events = 10;
    late.levels = [4, 4];
    late.label = "b".into();
    late.latency.record(900);
    let mut rebuilt = early.clone();
    rebuilt.accumulate(&late.since(&early));
    assert_eq!(rebuilt, late);
}

#[test]
fn help_kinds_and_errors() {
    assert_eq!(Probe::HELP[0], " Events.");
    assert_eq!(Probe::KINDS[2], Kind::Gauge);
    assert_eq!(Probe::KINDS[4], Kind::Cumulative);
    let v = JsonValue::parse(r#"{"events":1,"levels":[1,2,3]}"#).unwrap();
    assert_eq!(
        Probe::from_json_value(&v).unwrap_err(),
        "Probe: field 'levels' has 3 entries, expected 2"
    );
    let v = JsonValue::parse(r#"{"xs":[1,-1]}"#).unwrap();
    assert_eq!(
        read_field::<Vec<u64>>(&v, "xs").unwrap_err().to_string(),
        "field 'xs.1' is not an unsigned integer"
    );
}

#[test]
fn u32_rejects_values_that_do_not_fit() {
    let v = JsonValue::parse(&format!("{{\"n\":{},\"m\":7}}", (1u64 << 32) + 1)).unwrap();
    assert_eq!(
        read_field::<u32>(&v, "n").unwrap_err().to_string(),
        "field 'n' is out of range for u32 (4294967297)"
    );
    assert_eq!(read_field::<u32>(&v, "m"), Ok(7));
}

#[test]
fn prometheus_skips_non_scalars_and_trims_help() {
    let p = Probe {
        events: 2,
        level: 0.25,
        ..Probe::default()
    };
    assert_eq!(
        prometheus(&p, "x_"),
        "# HELP x_events Events.\n# TYPE x_events counter\nx_events 2\n\
         # HELP x_level A reading.\n# TYPE x_level gauge\nx_level 0.25\n"
    );
}

/// Every `counters!` declaration in the workspace is checked above.
#[test]
fn every_declaration_is_checked() {
    const CHECKED: [&str; 9] = [
        "GovernorEpochSample",
        "GovernorReport",
        "MemStateSample",
        "MetricsSample",
        "MetricsSnapshot",
        "OsStats",
        "PerfCounters",
        "RegionCounters",
        "RegionReport",
    ];
    fn scan(dir: &Path, found: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                scan(&path, found);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable source");
                for block in src.split("counters! {").skip(1) {
                    let decl = block.split("pub struct ").nth(1).expect("struct");
                    let name = decl.split([' ', '{']).next().expect("name");
                    found.push(name.to_string());
                }
            }
        }
    }
    let mut found = Vec::new();
    scan(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates"),
        &mut found,
    );
    found.sort();
    assert_eq!(found, CHECKED);
}
