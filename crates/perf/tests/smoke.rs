//! Every workload at smoke size (`M = 8`, `n = 64`, two waves) through
//! the real binary: all gates pass, and the result line carries exactly
//! the metrics `BENCHMARK.json` lists. One test runs them in sequence so
//! no two runs compete for the CPU their timing gates depend on.

use rstp_perf::json::Json;
use rstp_perf::workload::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn workspace() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the binary from the workspace root; returns stdout and the
/// parsed result line.
fn run(args: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_rstp-perf"))
        .args(args)
        .current_dir(workspace())
        .output()
        .expect("rstp-perf starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output").to_string();
    let result = Json::parse(&last).unwrap_or_else(|e| panic!("{e}: {last}"));
    (stdout, result)
}

fn check(result: &Json, expected: &[MetricDef], attempted: f64, stdout: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        result.get("attempted").and_then(Json::as_f64),
        Some(attempted)
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for ((name, value), m) in metrics.iter().zip(expected) {
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{name}"
        );
        let v = value.get("value").and_then(Json::as_f64).expect("value");
        assert!(v.is_finite(), "{name} = {v}");
        // Every metric is printed by name with its unit.
        assert!(
            stdout.contains(name.as_str()),
            "{name} missing from:\n{stdout}"
        );
    }
}

#[test]
fn every_workload_passes_every_gate_at_smoke_size() {
    for w in WORKLOADS {
        let (stdout, result) = run(&["run", "--workload", w.name, "--seed", "1", "--smoke"]);
        check(&result, &END_TO_END, 16.0, &stdout);
        assert!(stdout.contains("0 timing violations"), "{stdout}");
    }

    // The traced run: per-layer metrics, attribution, overhead, spans.
    let trace = workspace().join("target/rstp-perf/smoke-trace.jsonl");
    let trace_arg = trace.to_string_lossy().into_owned();
    let (stdout, result) = run(&[
        "run",
        "--workload",
        "gamma-acks",
        "--seed",
        "1",
        "--smoke",
        "--trace",
        &trace_arg,
    ]);
    check(&result, &PER_LAYER, 16.0, &stdout);
    assert!(stdout.contains("attribution: pump+shard"), "{stdout}");
    assert!(stdout.contains("tracing overhead"), "{stdout}");
    let spans = std::fs::read_to_string(&trace).expect("trace file");
    let _ = std::fs::remove_file(&trace);
    let names: Vec<String> = spans
        .lines()
        .map(|l| {
            let span = Json::parse(l).expect("span line");
            for key in ["id", "parent", "start_us", "end_us", "wave", "session"] {
                assert!(span.get(key).is_some(), "span lacks {key}: {l}");
            }
            span.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    for want in [
        "wave",
        "serve.run_server",
        "gen.tick",
        "tx.step",
        "hub.send",
        "hub.poll",
        "replay.endpoint",
        "replay.wheel",
    ] {
        assert!(names.iter().any(|n| n == want), "no {want} span");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "no-such-workload", "--seed", "1"][..],
        &["run", "--workload", "beta-fanin"],
        &["frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rstp-perf"))
            .args(args)
            .current_dir(workspace())
            .output()
            .expect("rstp-perf starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
