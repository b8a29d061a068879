use std::collections::HashSet;

use graphmem_telemetry::{EventMask, TraceConfig, Tracer};

use super::registry::configs;
use super::*;
use crate::policy::PagePolicy;

#[test]
fn twelve_configs() {
    assert_eq!(configs().count(), 12);
    assert_eq!(configs().collect::<HashSet<_>>().len(), 12);
}

#[test]
fn scale_presets_control_size() {
    for s in Scale::ALL {
        assert_eq!(Scale::from_token(s.token()), Ok(s));
    }
    assert!(Scale::from_token("default").is_err());
    assert_eq!(Scale::Tiny.graph_scale(Dataset::Wiki), 15);
    assert_eq!(Scale::Small.graph_scale(Dataset::Kron25), 16);
    assert_eq!(Scale::Paper.graph_scale(Dataset::Kron25), 18);
    assert_eq!(Scale::Paper.graph_scale(Dataset::Wiki), 17);
    let key = |s: Scale| s.experiment(Dataset::Kron25, Kernel::Bfs).config_key();
    assert!(key(Scale::Tiny).contains("|Some(15)|") && key(Scale::Tiny).contains("|4|"));
    assert!(key(Scale::Paper).contains("|Some(18)|") && key(Scale::Paper).contains("|6|"));
}

#[test]
#[should_panic(expected = "arity")]
fn row_arity_checked() {
    Table::new("t", "a,b").row(vec!["1".into()]);
}

#[test]
fn table_renders_csv() {
    let mut t = Table::new("t", "a,b");
    t.row(vec!["1".into(), "x".into()]);
    assert_eq!(t.to_csv(), "a,b\n1,x\n");
}

#[test]
fn registry_ids_are_unique_and_every_grid_is_valid() {
    let ids: HashSet<&str> = REGISTRY.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), REGISTRY.len());
    for claim in REGISTRY {
        assert!(std::ptr::eq(find(claim.id).unwrap(), claim));
        for scale in Scale::ALL {
            for e in (claim.grid)(scale) {
                assert!(
                    e.clone().build().is_ok(),
                    "{}: {}",
                    claim.id,
                    e.config_key()
                );
            }
        }
    }
    assert!(find("fig99").is_none());
}

fn small(policy: PagePolicy) -> Experiment {
    Experiment::builder(Dataset::Wiki, Kernel::Bfs)
        .scale(11)
        .huge_order(4)
        .policy(policy)
}

/// Base, THP, base again: two distinct keys in three slots.
fn repeating_grid(_: Scale) -> Vec<Experiment> {
    vec![
        small(PagePolicy::BaseOnly),
        small(PagePolicy::ThpSystemWide),
        small(PagePolicy::BaseOnly),
    ]
}

/// THP (shared with the grid above) plus one config that fails at run
/// time: the scale is re-set past the supported range after building.
fn failing_grid(_: Scale) -> Vec<Experiment> {
    vec![
        small(PagePolicy::ThpSystemWide),
        small(PagePolicy::BaseOnly).scale(3),
    ]
}

/// One row per report: its JSON.
fn reports_as_rows(ev: &Evidence<'_>) -> Findings {
    let mut t = Table::new("reports", "json");
    for r in ev.reports {
        t.row(vec![r.to_json()]);
    }
    Findings {
        tables: vec![t],
        failures: Vec::new(),
    }
}

static REPEATING: Claim = Claim {
    id: "repeating",
    paper: "-",
    statement: "three slots, two configs",
    judged_at: &Scale::ALL,
    grid: repeating_grid,
    evaluate: reports_as_rows,
};

static FAILING: Claim = Claim {
    id: "failing",
    paper: "-",
    statement: "one config cannot run",
    judged_at: &Scale::ALL,
    grid: failing_grid,
    evaluate: reports_as_rows,
};

#[test]
fn runner_runs_each_config_key_once() {
    let tracer = Tracer::enabled(TraceConfig::default().mask(EventMask::SUPERVISOR));
    let config = SupervisorConfig {
        threads: 2,
        telemetry: tracer.clone(),
        ..SupervisorConfig::default()
    };
    let out = run(&[&REPEATING, &FAILING], Scale::Tiny, &config).unwrap();
    assert_eq!((out.experiments, out.distinct), (5, 3));
    let completed = tracer
        .events()
        .iter()
        .filter(|e| e.kind.name() == "experiment_complete")
        .count();
    let failed = tracer
        .events()
        .iter()
        .filter(|e| e.kind.name() == "experiment_failure")
        .count();
    assert_eq!((completed, failed), (2, 1), "each distinct key runs once");

    // The deduplicated reports equal serial runs byte for byte, in each
    // claim's own grid order.
    let serial: Vec<Vec<String>> = repeating_grid(Scale::Tiny)
        .iter()
        .map(|e| vec![e.try_run().unwrap().to_json()])
        .collect();
    let repeating = &out.claims[0];
    assert!(matches!(repeating.status, Status::Holds));
    assert_eq!(repeating.tables[0].rows, serial);

    // The failing config breaks only the claim that uses it, with its
    // typed error.
    let failing = &out.claims[1];
    match &failing.status {
        Status::Broken { config_hash, error } => {
            assert_eq!(*config_hash, failing_grid(Scale::Tiny)[1].config_hash());
            assert!(
                matches!(**error, GraphmemError::InvalidConfig(_)),
                "{error}"
            );
        }
        other => panic!("expected a broken claim, got {other:?}"),
    }
    assert!(failing.tables.is_empty());
    assert!(!out.passed());
}
