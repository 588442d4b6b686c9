//! Fixture-tree tests: every lint catches its known-bad fixture and
//! stays quiet on the matching clean one.
//!
//! Each fixture under `tests/fixtures/` is a miniature workspace
//! (`crates/<member>/src/*.rs`, optionally `docs/` and `analysis/`);
//! the files are analysis *data*, never compiled. `*_bad` trees carry
//! exactly one violation of their target rule; `*_clean` trees express
//! the same intent the sanctioned way.

use rstp_analyze::analyze_workspace;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Findings of `rule` in the named fixture tree.
fn findings_of(name: &str, rule: &str) -> Vec<String> {
    let report = analyze_workspace(&fixture(name)).expect("fixture analyzes");
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{}: {}", f.path, f.line, f.message))
        .collect()
}

fn assert_caught(bad: &str, clean: &str, rule: &str) {
    let hits = findings_of(bad, rule);
    assert_eq!(
        hits.len(),
        1,
        "{bad} must trip {rule} exactly once: {hits:?}"
    );
    let quiet = findings_of(clean, rule);
    assert!(quiet.is_empty(), "{clean} must not trip {rule}: {quiet:?}");
}

#[test]
fn sleep_fixtures() {
    assert_caught("sleep_bad", "sleep_clean", "sleep-outside-pacer");
}

#[test]
fn wire_drift_fixtures() {
    assert_caught("wire_drift_bad", "wire_drift_clean", "wire-const-drift");
}

#[test]
fn panic_reach_fixtures() {
    assert_caught("panic_reach_bad", "panic_reach_clean", "panic-reachable");
    let hits = findings_of("panic_reach_bad", "panic-reachable");
    assert!(
        hits[0].contains("run_shard -> serve/shard::dispatch"),
        "finding must carry the entry→sink chain: {hits:?}"
    );
}

#[test]
fn blocking_fixtures() {
    assert_caught("blocking_bad", "blocking_clean", "blocking-in-nonblocking");
    let hits = findings_of("blocking_bad", "blocking-in-nonblocking");
    assert!(
        hits[0].contains("send_batch -> serve/egress::Egress::flush"),
        "finding must name the trait entry point: {hits:?}"
    );
    // The clean tree's try_lock is invisible to the waits-for graph too:
    // a lock you never park on cannot deadlock.
    let report = analyze_workspace(&fixture("blocking_clean")).expect("fixture analyzes");
    assert!(report.graph.nodes.is_empty(), "{:?}", report.graph.nodes);
}

#[test]
fn alloc_fixtures() {
    assert_caught("alloc_bad", "alloc_clean", "alloc-in-steady-state");
}

#[test]
fn lock_cycle_fixture_is_detected() {
    let hits = findings_of("lock_cycle_bad", "lock-order-cycle");
    assert_eq!(hits.len(), 1, "ABBA order must be a cycle: {hits:?}");
    assert!(
        hits[0].contains("state::table") && hits[0].contains("state::journal"),
        "cycle names both locks: {hits:?}"
    );
}

#[test]
fn acyclic_fixture_is_fully_clean() {
    // This fixture also checks the drift rule end to end: its
    // analysis/lock-order.toml is checked in and must match extraction.
    let report = analyze_workspace(&fixture("lock_acyclic_clean")).expect("fixture analyzes");
    assert!(
        report.is_clean(),
        "acyclic fixture must be clean: {:?}",
        report.findings
    );
    assert_eq!(report.graph.cycles.len(), 0);
    assert_eq!(
        report.graph.order,
        vec!["serve/state::table", "serve/state::journal"]
    );
}

#[test]
fn every_bad_fixture_fails_the_analyzer() {
    for bad in [
        "sleep_bad",
        "wire_drift_bad",
        "lock_cycle_bad",
        "panic_reach_bad",
        "blocking_bad",
        "alloc_bad",
    ] {
        let report = analyze_workspace(&fixture(bad)).expect("fixture analyzes");
        assert!(!report.is_clean(), "{bad} must produce findings");
    }
}
