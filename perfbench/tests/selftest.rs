//! Self-tests of the benchmark: seeded generators, the independent
//! verifier, metric names against `BENCHMARK.json`, and a small run of
//! both modes end to end.

use ftoa_perfbench::bench::{end_to_end, traced, Report};
use ftoa_perfbench::check::verify;
use ftoa_perfbench::stats::{median, percentile, valid_name};
use ftoa_perfbench::workloads::{trace_text, Workload};
use ftoa_types::{Assignment, Location, Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId};
use std::time::Duration;
use workload::SyntheticConfig;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const RATIONALE_JSON: &str = include_str!("../rationale.json");

/// A seconds-long weighted instance: every policy, the oracle and both
/// probes run on it in a debug build.
fn smoke() -> SyntheticConfig {
    SyntheticConfig {
        num_workers: 300,
        num_tasks: 300,
        grid_n: 10,
        region_side: 10.0,
        task_payoff: Some((1.0, 5.0)),
        worker_capacity: Some((1, 3)),
        ..SyntheticConfig::default()
    }
}

/// The `"name": "..."` values between `from` and `to` in `BENCHMARK.json`.
fn declared(from: &str, to: Option<&str>) -> Vec<String> {
    let start = BENCHMARK_JSON.find(from).expect("section present");
    let end = to.map_or(BENCHMARK_JSON.len(), |t| BENCHMARK_JSON.find(t).expect("section present"));
    BENCHMARK_JSON[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.names().map(str::to_string).collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn generators_are_deterministic_per_seed() {
    for w in Workload::ALL {
        let config = w.config();
        let a = trace_text(&config, 7);
        assert_eq!(a, trace_text(&config, 7), "{} is not deterministic", w.name());
        assert_ne!(a, trace_text(&config, 8), "{} ignores its seed", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_workloads_in_order() {
    let listed = declared("\"workloads\"", Some("\"end_to_end\""));
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
    for name in known {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
    }
}

#[test]
fn smoke_runs_report_exactly_the_declared_metrics() {
    let e2e = end_to_end(&smoke(), 3, Duration::ZERO).expect("end-to-end run");
    let layered = traced(&smoke(), 3, Duration::ZERO).expect("traced run");
    for report in [&e2e, &layered] {
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert!(report.metrics.non_finite().is_empty());
        for name in names(report) {
            assert!(valid_name(&name), "{name}");
            assert!(RATIONALE_JSON.contains(&format!("\"{name}\"")), "{name} has no rationale");
        }
    }
    let declared_e2e = declared("\"end_to_end\"", Some("\"per_layer\""));
    let declared_layers = declared("\"per_layer\"", None);
    assert_eq!(sorted(declared_e2e), names(&e2e));
    assert_eq!(sorted(declared_layers), names(&layered));
    assert!(e2e.metrics.names().all(|n| e2e.metrics.get(n).is_some_and(|v| v > 0.0)));
}

fn worker(id: usize, x: f64, capacity: u32) -> Worker {
    Worker::new(
        WorkerId(id),
        Location::new(x, 0.0),
        TimeStamp::minutes(0.0),
        TimeDelta::minutes(10.0),
    )
    .with_capacity(capacity)
}

fn task(id: usize, x: f64, release: f64, payoff: f64) -> Task {
    Task::new(
        TaskId(id),
        Location::new(x, 0.0),
        TimeStamp::minutes(release),
        TimeDelta::minutes(5.0),
    )
    .with_payoff(payoff)
}

fn pair(w: usize, t: usize, at: f64) -> Assignment {
    Assignment::new(WorkerId(w), TaskId(t), TimeStamp::minutes(at))
}

/// Two workers at the origin (capacity 1 and 2) and tasks at unit speed:
/// t0 and t1 are reachable, t2 is 100 away, t3 appears after both leave.
fn instance() -> (Vec<Worker>, Vec<Task>) {
    let workers = vec![worker(0, 0.0, 1), worker(1, 0.0, 2)];
    let tasks = vec![
        task(0, 1.0, 1.0, 2.0),
        task(1, 2.0, 2.0, 3.0),
        task(2, 100.0, 1.0, 1.0),
        task(3, 1.0, 12.0, 1.0),
    ];
    (workers, tasks)
}

fn rejection(pairs: &[Assignment], payoff: f64, online: bool) -> String {
    let (workers, tasks) = instance();
    verify(&workers, &tasks, 1.0, pairs, payoff, online).expect_err("must be rejected")
}

#[test]
fn verifier_accepts_a_feasible_set() {
    let (workers, tasks) = instance();
    let pairs = [pair(0, 0, 1.0), pair(1, 1, 2.0)];
    assert!(verify(&workers, &tasks, 1.0, &pairs, 5.0, true).is_ok());
    assert!(verify(&workers, &tasks, 1.0, &[], 0.0, true).is_ok());
}

#[test]
fn verifier_rejects_hand_built_bad_sets() {
    let twice = rejection(&[pair(0, 0, 1.0), pair(1, 0, 1.0)], 4.0, true);
    assert!(twice.contains("more than once"), "{twice}");
    let over = rejection(&[pair(0, 0, 1.0), pair(0, 1, 2.0)], 5.0, true);
    assert!(over.contains("capacity"), "{over}");
    let far = rejection(&[pair(1, 2, 1.0)], 1.0, true);
    assert!(far.contains("cannot reach"), "{far}");
    let late = rejection(&[pair(1, 3, 12.0)], 1.0, false);
    assert!(late.contains("after worker"), "{late}");
    let payoff = rejection(&[pair(0, 0, 1.0), pair(1, 1, 2.0)], 6.0, true);
    assert!(payoff.contains("payoff"), "{payoff}");
    let unknown = rejection(&[pair(5, 0, 1.0)], 2.0, true);
    assert!(unknown.contains("does not exist"), "{unknown}");
}

#[test]
fn verifier_checks_the_assignment_instant_of_online_policies_only() {
    // Feasible pair, but dated after the task's window [1, 6].
    let outside = rejection(&[pair(0, 0, 7.0)], 2.0, true);
    assert!(outside.contains("outside"), "{outside}");
    let (workers, tasks) = instance();
    assert!(verify(&workers, &tasks, 1.0, &[pair(0, 0, 0.0)], 2.0, false).is_ok());
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let samples: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&samples, 0.99), 990);
    assert_eq!(percentile(&samples, 0.999), 999);
    assert_eq!(percentile(&samples, 1.0), 1000);
    assert_eq!(percentile(&samples, 0.0), 1);
}
