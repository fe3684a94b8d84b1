//! Smoke-size runs of every workload through the real binaries: each
//! must pass its oracle, reconcile its traced run and emit exactly the
//! metrics `BENCHMARK.json` names, with their units and directions; and
//! a deliberately wrong oracle input must fail the run.

use std::path::Path;
use std::process::{Command, Output};

use serde_json::Value;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_slice(&text).expect("BENCHMARK.json parses")
}

fn list<'v>(value: &'v Value, key: &str) -> &'v [Value] {
    match value.field(key) {
        Ok(Value::Array(items)) => items,
        _ => panic!("BENCHMARK.json lacks {key}"),
    }
}

fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    value
        .field(key)
        .ok()
        .and_then(Value::as_str)
        .unwrap_or_default()
}

fn smoke(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

fn result(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// Runs `workload` in both modes and checks every named metric.
fn emits_every_metric(workload: &str) {
    let spec = benchmark();
    assert!(
        list(&spec, "workloads")
            .iter()
            .any(|w| text(w, "name") == workload),
        "{workload} is listed"
    );
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let output = smoke(workload, trace, &[]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{workload} trace={trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let result = result(&output);
        assert_eq!(result.field("correct").ok(), Some(&Value::Bool(true)));
        assert_eq!(result.field("failed").ok().and_then(Value::as_u64), Some(0));
        assert!(result.field("attempted").ok().and_then(Value::as_u64) > Some(0));
        if trace {
            // The per-layer table reconciles with the untraced latencies.
            assert!(
                stdout.contains("glue within 5% of each traced op: true"),
                "{workload}: traced run does not reconcile:\n{stdout}"
            );
        }
        let Ok(Value::Object(metrics)) = result.field("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let wanted: Vec<&str> = list(&spec, key).iter().map(|m| text(m, "name")).collect();
        assert_eq!(names, wanted, "{workload} trace={trace} metric names");
        for m in list(&spec, key) {
            let (name, unit, better) = (text(m, "name"), text(m, "unit"), text(m, "better"));
            let reported = metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap();
            assert_eq!(text(reported, "unit"), unit, "{name} unit");
            let value = reported.field("value").ok().and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} value");
            // The human-readable table states each metric's direction.
            assert!(
                stdout.lines().any(|l| {
                    let cols: Vec<&str> = l.split_whitespace().collect();
                    cols.len() >= 5 && cols[1] == name && cols[3] == unit && cols[4] == better
                }),
                "{name} printed with unit {unit} and direction {better}"
            );
            if !trace {
                assert!(
                    value > Some(0.0),
                    "{workload}: end-to-end {name} is never 0"
                );
            }
        }
    }
}

#[test]
fn crawl_durable_emits_every_metric() {
    emits_every_metric("crawl-durable");
}

#[test]
fn analyst_large_emits_every_metric() {
    emits_every_metric("analyst-large");
}

#[test]
fn window_churn_emits_every_metric() {
    emits_every_metric("window-churn");
}

#[test]
fn a_wrong_oracle_fails_the_run() {
    let output = smoke("window-churn", false, &["--corrupt-oracle"]);
    assert!(!output.status.success(), "a mismatch must fail the command");
    let result = result(&output);
    assert_eq!(result.field("correct").ok(), Some(&Value::Bool(false)));
    assert!(result.field("failed").ok().and_then(Value::as_u64) >= Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("differs from the oracle"));
}

#[test]
fn unknown_workload_prints_no_result() {
    let output = smoke("no-such-workload", false, &[]);
    assert!(!output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""));
}
