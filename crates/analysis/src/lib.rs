//! rstp-analyze: invariant lints and a static lock-order race detector
//! for the RSTP workspace.
//!
//! The paper's guarantees are temporal — messages paced inside
//! `[c1, c2]`, delivery within `d`, received text a prefix of the sent
//! text. Code review can check an individual change against those
//! invariants; it cannot keep checking every change forever. This crate
//! turns the invariants into machine-checked rules over the workspace
//! source itself:
//!
//! * a **lint engine** ([`rules`]) that scans a lightweight token stream
//!   ([`lexer`], [`source`]) for invariant violations — stray sleeps,
//!   frame-size prose drifting from the wire constants;
//! * **reachability passes** ([`callgraph`], [`reach`]) that trace
//!   panics, blocking calls and allocations from the protocol entry
//!   points across files and crates;
//! * a **lock-order detector** ([`lockorder`]) that extracts the static
//!   Mutex/RwLock acquisition graph of `crates/serve` and
//!   `crates/record` and fails on
//!   cycles, emitting the acyclic order as a checked-in TOML file so
//!   regressions surface as diffs;
//! * a **baseline** ([`baseline`]) that is the only way to suppress a
//!   finding, one justification per entry, checked for staleness.
//!
//! Bans that a name resolver checks better — wall-clock reads outside
//! the tick clock, unbounded channels, panics in the protocol crates —
//! are clippy's: see the root `clippy.toml` and the
//! `[workspace.lints.clippy]` table.
//!
//! Everything is std-only: the analyzer must never be the reason the
//! workspace grows a dependency.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lockorder;
pub mod path;
pub mod reach;
pub mod rules;
pub mod source;

use callgraph::CallGraph;
use lockorder::LockGraph;
use reach::PassStats;
use rstp_bench::json::Json;
use rules::Finding;
use source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// The full result of one workspace analysis.
pub struct Report {
    /// Findings that survived the baseline, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// How many findings the baseline suppressed.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The extracted waits-for graph (locks + bounded channels) over
    /// serve, record, and net.
    pub graph: LockGraph,
    /// The workspace call graph the reachability passes ran over.
    pub call_graph: CallGraph,
    /// Per-pass reachability summaries.
    pub passes: Vec<PassStats>,
}

impl Report {
    /// True when the tree is clean (nothing survived the baseline).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Relative path of the checked-in lock-order file.
pub const LOCK_ORDER_PATH: &str = "analysis/lock-order.toml";
/// Relative path of the suppression baseline.
pub const BASELINE_PATH: &str = "analysis/baseline.toml";

/// Analyzes the workspace rooted at `root`.
///
/// Scans `crates/*/src/**/*.rs` and the facade `src/`, runs every lint,
/// extracts the serve lock graph, checks it against the checked-in
/// order file, and applies the baseline. I/O problems on the root
/// itself are an `Err`; unreadable individual files are skipped (they
/// cannot hide findings — they also fail `cargo build`).
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            fs::read_dir(&crates_dir).map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
        let mut members: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), root, &mut sources);
        }
    }
    collect_rs(&root.join("src"), root, &mut sources);
    if sources.is_empty() {
        return Err(format!(
            "no Rust sources under {} (expected crates/*/src or src)",
            root.display()
        ));
    }
    sources.sort();

    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, text)| SourceFile::new(path, text))
        .collect();

    // Token lints.
    let mut findings: Vec<Finding> = files.iter().flat_map(rules::sleep_rule).collect();

    // Wire-const drift: the wire-adjacent sources plus prose (README +
    // docs). Scoped to net/serve because the rule scans raw lines —
    // lexing can't help it skip test fixtures elsewhere.
    let mut texts: Vec<(String, String)> = sources
        .iter()
        .filter(|(p, _)| p.starts_with("crates/net/") || p.starts_with("crates/serve/"))
        .cloned()
        .collect();
    for doc in doc_files(root) {
        if let Ok(text) = fs::read_to_string(root.join(&doc)) {
            texts.push((doc, text));
        }
    }
    findings.extend(rules::wire_const_rule(&texts));

    // The interprocedural engine: workspace call graph + the three
    // reachability passes (panic / blocking / allocation).
    let call_graph = callgraph::build(&files);
    let (pass_findings, passes) = reach::run_passes(&call_graph);
    findings.extend(pass_findings);

    // Waits-for extraction over the lock-holding crates: serve, the
    // flight recorder it writes through, and net's channel fabric.
    let serve: Vec<&SourceFile> = files
        .iter()
        .filter(|f| {
            f.path.starts_with("crates/serve/src/")
                || f.path.starts_with("crates/record/src/")
                || f.path.starts_with("crates/net/src/")
        })
        .collect();
    let graph = lockorder::extract(&serve);
    for cycle in &graph.cycles {
        findings.push(Finding {
            rule: "lock-order-cycle",
            path: "crates/serve/src".to_string(),
            line: 1,
            message: format!("lock acquisition cycle: {}", cycle.join(" -> ")),
        });
    }

    // Drift against the checked-in order file.
    let expected = lockorder::render_toml(&graph);
    match fs::read_to_string(root.join(LOCK_ORDER_PATH)) {
        Ok(on_disk) => {
            if normalize(&on_disk) != normalize(&expected) {
                findings.push(Finding {
                    rule: "lock-order-drift",
                    path: LOCK_ORDER_PATH.to_string(),
                    line: 1,
                    message: "checked-in lock order no longer matches the extracted graph — \
                              regenerate with `rstp analyze --emit-lock-order` and review the \
                              diff"
                        .to_string(),
                });
            }
        }
        Err(_) if graph.nodes.is_empty() => {}
        Err(_) => {
            findings.push(Finding {
                rule: "lock-order-drift",
                path: LOCK_ORDER_PATH.to_string(),
                line: 1,
                message: "lock-order file is missing — generate it with \
                          `rstp analyze --emit-lock-order`"
                    .to_string(),
            });
        }
    }

    // Baseline: parse errors are findings, and an unparseable baseline
    // suppresses nothing.
    let entries = match fs::read_to_string(root.join(BASELINE_PATH)) {
        Ok(text) => match baseline::parse(&text) {
            Ok(entries) => entries,
            Err(msg) => {
                findings.push(Finding {
                    rule: "baseline-parse",
                    path: BASELINE_PATH.to_string(),
                    line: 1,
                    message: msg,
                });
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };
    let before = findings.len();
    let (mut findings, hygiene) = baseline::apply(findings, &entries);
    let suppressed = before - findings.len();
    findings.extend(hygiene);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));

    Ok(Report {
        findings,
        suppressed,
        files_scanned: files.len(),
        graph,
        call_graph,
        passes,
    })
}

/// Trailing-whitespace/newline-insensitive comparison for the order file.
fn normalize(s: &str) -> String {
    s.lines().map(str::trim_end).collect::<Vec<_>>().join("\n")
}

/// Recursively collects `.rs` files under `dir` as
/// `(workspace-relative path, text)`.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, root, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&p) {
                out.push((rel(&p, root), text));
            }
        }
    }
}

/// Markdown files the wire-const rule patrols.
fn doc_files(root: &Path) -> Vec<String> {
    let mut out = vec!["README.md".to_string()];
    if let Ok(entries) = fs::read_dir(root.join("docs")) {
        let mut names: Vec<String> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "md"))
            .map(|p| rel(&p, root))
            .collect();
        names.sort();
        out.extend(names);
    }
    out
}

fn rel(p: &Path, root: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Renders a report as the `rstp analyze --json` document.
///
/// Schema v2: `{tool, schema_version, files_scanned, suppressed, clean,
/// findings: [{rule, path, line, message}], lock_order: {nodes, order,
/// edges: [{from, to, site}], cycles}, call_graph: {fns, call_sites,
/// bound, external, unresolved, resolution_rate, passes: [{rule,
/// entries, reachable, findings}]}}`.
#[must_use]
pub fn report_json(report: &Report) -> String {
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(f.rule.to_string())),
                ("path".into(), Json::Str(f.path.clone())),
                ("line".into(), Json::Num(f64::from(f.line))),
                ("message".into(), Json::Str(f.message.clone())),
            ])
        })
        .collect();
    let edges = report
        .graph
        .edges
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("from".into(), Json::Str(e.from.clone())),
                ("to".into(), Json::Str(e.to.clone())),
                ("site".into(), Json::Str(e.site.clone())),
            ])
        })
        .collect();
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    let cycles = report.graph.cycles.iter().map(|c| strs(c)).collect();
    let pass_objs = report
        .passes
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(p.rule.to_string())),
                ("entries".into(), Json::Num(p.entries as f64)),
                ("reachable".into(), Json::Num(p.reachable as f64)),
                ("findings".into(), Json::Num(p.findings as f64)),
            ])
        })
        .collect();
    let stats = report.call_graph.stats;
    let call_graph = Json::Obj(vec![
        ("fns".into(), Json::Num(report.call_graph.fns.len() as f64)),
        ("call_sites".into(), Json::Num(stats.sites as f64)),
        ("bound".into(), Json::Num(stats.bound as f64)),
        ("external".into(), Json::Num(stats.external as f64)),
        ("unresolved".into(), Json::Num(stats.unresolved as f64)),
        (
            "resolution_rate".into(),
            Json::Num((stats.resolution_rate() * 1000.0).round() / 1000.0),
        ),
        ("passes".into(), Json::Arr(pass_objs)),
    ]);
    let doc = Json::Obj(vec![
        ("tool".into(), Json::Str("rstp-analyze".to_string())),
        ("schema_version".into(), Json::Num(2.0)),
        (
            "files_scanned".into(),
            Json::Num(report.files_scanned as f64),
        ),
        ("suppressed".into(), Json::Num(report.suppressed as f64)),
        (
            "clean".into(),
            Json::Str(if report.is_clean() { "true" } else { "false" }.to_string()),
        ),
        ("findings".into(), Json::Arr(findings)),
        (
            "lock_order".into(),
            Json::Obj(vec![
                ("nodes".into(), strs(&report.graph.nodes)),
                ("order".into(), strs(&report.graph.order)),
                ("edges".into(), Json::Arr(edges)),
                ("cycles".into(), Json::Arr(cycles)),
            ]),
        ),
        ("call_graph".into(), call_graph),
    ]);
    doc.render()
}

/// Renders a report as human-readable text.
#[must_use]
pub fn report_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    if report.graph.cycles.is_empty() {
        out.push_str(&format!(
            "waits-for: {} node(s), {} edge(s), acyclic\n",
            report.graph.nodes.len(),
            report.graph.edges.len()
        ));
    }
    let stats = report.call_graph.stats;
    out.push_str(&format!(
        "call-graph: {} fn(s), {} call site(s), {:.1}% resolved\n",
        report.call_graph.fns.len(),
        stats.sites,
        stats.resolution_rate() * 100.0
    ));
    for p in &report.passes {
        out.push_str(&format!(
            "pass {}: {} entry point(s), {} reachable fn(s), {} finding(s)\n",
            p.rule, p.entries, p.reachable, p.findings
        ));
    }
    out.push_str(&format!(
        "{} file(s) scanned, {} finding(s), {} baselined\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressed
    ));
    out
}
