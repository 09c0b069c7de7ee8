//! The benchmark's own test: every workload at tiny size prints every
//! metric of its catalog with its unit, answers every request
//! correctly, and counts a planted wrong expected answer as a failure.

use hems_perfbench::{run, Options, Report, Scale, Workload};
use hems_serve::json::{parse, Value};

fn tiny(workload: Workload, trace: bool, plant_wrong_answer: bool) -> Report {
    run(&Options {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        plant_wrong_answer,
    })
    .unwrap_or_else(|e| panic!("{} did not run: {e}", workload.name()))
}

/// Renders the result line and checks it against the catalog: exactly
/// its metrics, each with a finite value and its unit, and a clean
/// operation count.
fn assert_result_line(workload: Workload, report: &Report, trace: bool) {
    let line = report.render(trace).expect("every catalog metric measured");
    let value = parse(&line).expect("the result line is JSON");
    assert_eq!(value.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert_eq!(value.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(value.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    let Some(Value::Obj(metrics)) = value.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let catalog = Report::catalog(trace);
    assert_eq!(metrics.len(), catalog.len(), "{}: {line}", workload.name());
    for (name, unit) in catalog {
        let metric = value
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(*unit),
            "{name}"
        );
        let v = metric.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} = {v:?}");
    }
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for workload in Workload::ALL {
        let report = tiny(workload, false, false);
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_result_line(workload, &report, false);
        for name in [
            "setup_s",
            "latency_p50_ms",
            "capacity_hz",
            "node_days_per_s",
        ] {
            assert!(report.values[name] > 0.0, "{}: {name}", workload.name());
        }
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics() {
    for workload in Workload::ALL {
        let report = tiny(workload, true, false);
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_result_line(workload, &report, true);
    }
}

#[test]
fn plan_hit_is_all_hits() {
    let report = tiny(Workload::PlanHit, true, false);
    assert_eq!(report.values["serve.cache.hit_share"], 1.0);
}

#[test]
fn plan_miss_evicts() {
    let report = tiny(Workload::PlanMiss, true, false);
    assert!(report.values["serve.cache.hit_share"] < 1.0);
    assert!(report.values["serve.cache.evictions"] > 0.0);
}

#[test]
fn fleet_counts_repeat_exactly() {
    let a = tiny(Workload::FleetDay, true, false);
    let b = tiny(Workload::FleetDay, true, false);
    for name in [
        "fleet.events",
        "fleet.node_steps",
        "fleet.committed",
        "fleet.rollbacks",
        "fleet.plan_calls",
    ] {
        assert!(a.values[name] > 0.0, "{name}");
        assert_eq!(a.values[name], b.values[name], "{name}");
    }
}

#[test]
fn a_planted_wrong_answer_is_a_failed_operation() {
    for workload in Workload::ALL {
        let report = tiny(workload, false, true);
        assert!(!report.correct, "{}", workload.name());
        assert!(
            report.ops.wrong > 0,
            "{}: {:?}",
            workload.name(),
            report.ops
        );
        assert!(report.ops.failed >= report.ops.wrong);
        let line = report.render(false).expect("renders");
        let value = parse(&line).expect("JSON");
        assert_eq!(value.get("correct"), Some(&Value::Bool(false)));
        assert!(value.get("failed").and_then(Value::as_f64) > Some(0.0));
    }
}
