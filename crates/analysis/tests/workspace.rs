//! The self-hosting regression test: the analyzer runs on the very
//! workspace that ships it, and that workspace must stay clean.
//!
//! This is the test-suite twin of the CI `analyze` job: any new
//! violation (or a baseline entry gone stale) fails `cargo test` before
//! it ever reaches CI.

use rstp_analyze::{analyze_workspace, lockorder, reach, LOCK_ORDER_PATH};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_unbaselined_findings() {
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzes");
    assert!(
        report.is_clean(),
        "fix the finding or baseline it with a reason:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The suite must actually be scanning the tree, not an empty dir.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
}

#[test]
fn serve_lock_graph_is_acyclic_and_checked_in() {
    let root = workspace_root();
    let report = analyze_workspace(&root).expect("workspace analyzes");
    assert!(
        report.graph.cycles.is_empty(),
        "serve lock graph has a cycle: {:?}",
        report.graph.cycles
    );
    assert!(
        !report.graph.nodes.is_empty(),
        "serve must have observable locks — did the extractor lose them?"
    );
    let on_disk = std::fs::read_to_string(root.join(LOCK_ORDER_PATH))
        .expect("analysis/lock-order.toml is checked in");
    assert_eq!(
        on_disk.trim_end(),
        lockorder::render_toml(&report.graph).trim_end(),
        "lock order drifted — regenerate with `rstp analyze --emit-lock-order {LOCK_ORDER_PATH}`"
    );
}

#[test]
fn call_graph_resolves_the_workspace_it_ships_in() {
    // The self-hosting bar for the interprocedural passes: at least 95%
    // of call sites in this workspace must resolve to a definition or a
    // recognized external. Below that, reachability claims are noise.
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzes");
    let stats = &report.call_graph.stats;
    assert!(
        stats.resolution_rate() >= 0.95,
        "call-site resolution fell to {:.1}% ({} of {} sites); top unresolved names: {:?}",
        stats.resolution_rate() * 100.0,
        stats.bound + stats.external,
        stats.sites,
        report
            .call_graph
            .unresolved_names
            .iter()
            .take(20)
            .collect::<Vec<_>>()
    );
    // The graph must actually cover the tree, not a sliver of it.
    assert!(
        report.call_graph.fns.len() > 500,
        "{} fns",
        report.call_graph.fns.len()
    );
    // And each pass must find its entry points — an empty entry set
    // would make every pass vacuously clean.
    for pass in &report.passes {
        assert!(
            pass.entries > 0,
            "pass {} matched no entry points — did a Matcher go stale?",
            pass.rule
        );
    }
}

#[test]
fn every_entry_matcher_matches_a_workspace_fn() {
    // A pass with several matchers keeps a nonzero entry count when one of
    // them goes stale (say, a trait method renamed), so check each one.
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzes");
    let stale = reach::unmatched_entries(&report.call_graph);
    assert!(
        stale.is_empty(),
        "entry matchers that match no fn: {stale:#?}"
    );
}

#[test]
fn hub_nesting_stays_out_of_the_edge_set() {
    // serve::hub's egress resolves a client inbox under the map lock but
    // releases the map guard (its match-arm block ends) before locking
    // the inbox. The hold-span model must see that release: an edge
    // clients -> inbox here would claim nesting that doesn't exist, and
    // the day someone *does* hold both, this test plus the drift file
    // will both move.
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzes");
    assert!(
        !report
            .graph
            .edges
            .iter()
            .any(|e| e.from == "serve/hub::clients" && e.to == "serve/hub::inbox"),
        "hub map guard must drop before the inbox lock: {:?}",
        report.graph.edges
    );
}
