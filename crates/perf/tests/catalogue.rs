//! `BENCHMARK.json` at the workspace root must describe exactly what the
//! binary measures: the same workloads, metric names, units and
//! directions, in the same order.

use rstp_perf::json::Json;
use rstp_perf::workload::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn benchmark() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the workspace root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks string {key}: {entry:?}"))
}

fn check_metrics(list: &Json, expected: &[MetricDef]) {
    let entries = list.as_arr().expect("metric list");
    assert_eq!(entries.len(), expected.len());
    for (entry, m) in entries.iter().zip(expected) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
    }
}

#[test]
fn workloads_match_the_catalogue() {
    let doc = benchmark();
    let listed = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(WORKLOADS) {
        assert_eq!(field(entry, "name"), w.name);
        assert_eq!(field(entry, "why"), w.why, "{}", w.name);
    }
}

#[test]
fn metrics_match_the_catalogue() {
    let doc = benchmark();
    check_metrics(doc.get("end_to_end").expect("end_to_end"), &END_TO_END);
    check_metrics(doc.get("per_layer").expect("per_layer"), &PER_LAYER);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn the_benchmark_lives_in_this_crate() {
    let doc = benchmark();
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["crates/perf"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .expect("command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"rstp-perf"), "{command:?}");
    assert_eq!(command.last(), Some(&"run"));
}
