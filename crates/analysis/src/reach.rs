//! The three interprocedural reachability passes over the workspace
//! call graph: panic-reachability from protocol entry points,
//! blocking-in-nonblocking on the record/serve per-frame paths, and
//! allocation-in-steady-state on the same per-frame paths.
//!
//! Each pass is a multi-source BFS from a fixed entry-point set.
//! Conservatism cuts one way only: the graph over-approximates calls
//! (the "all impls of that method name" fallback), so a clean pass is
//! meaningful and a finding carries a *candidate* chain that a human
//! (or the baseline) adjudicates.

use crate::callgraph::{CallGraph, FnDef, SinkKind};
use crate::rules::Finding;

/// How a pass recognizes its entry points in the symbol table.
#[derive(Debug)]
enum Matcher {
    /// Any impl of `trait_name`; `method` narrows to one method name
    /// (`None` = every method of the trait).
    TraitImpl {
        trait_name: &'static str,
        method: Option<&'static str>,
    },
    /// The method `name` on impls of `type_name`.
    TypeMethod {
        type_name: &'static str,
        name: &'static str,
    },
    /// The fn `name` defined in a file whose path ends with `suffix`.
    FileFn {
        suffix: &'static str,
        name: &'static str,
    },
    /// Any fn in crate `krate` whose name starts with one of the
    /// prefixes (the codec crate's `encode_*`/`decode_*` family).
    NamePrefix {
        krate: &'static str,
        prefixes: &'static [&'static str],
    },
}

impl Matcher {
    fn matches(&self, f: &FnDef) -> bool {
        match self {
            Matcher::TraitImpl { trait_name, method } => {
                f.trait_name.as_deref() == Some(trait_name)
                    && f.self_type.is_some()
                    && method.map_or(true, |m| f.name == m)
            }
            Matcher::TypeMethod { type_name, name } => {
                f.self_type.as_deref() == Some(type_name) && f.name == *name
            }
            Matcher::FileFn { suffix, name } => f.file.ends_with(suffix) && f.name == *name,
            Matcher::NamePrefix { krate, prefixes } => {
                f.krate == *krate && prefixes.iter().any(|p| f.name.starts_with(p))
            }
        }
    }
}

/// Entry points for the panic pass: everything the protocol's
/// correctness argument assumes cannot abort.
const PANIC_ENTRIES: &[Matcher] = &[
    Matcher::TraitImpl {
        trait_name: "Automaton",
        method: Some("apply"),
    },
    Matcher::TypeMethod {
        type_name: "WireCodec",
        name: "encode_with_session",
    },
    Matcher::TypeMethod {
        type_name: "WireCodec",
        name: "decode",
    },
    Matcher::FileFn {
        suffix: "net/src/wire.rs",
        name: "decode_any",
    },
    Matcher::FileFn {
        suffix: "net/src/wire.rs",
        name: "peek_session",
    },
    Matcher::NamePrefix {
        krate: "codec",
        prefixes: &["encode", "decode"],
    },
    Matcher::FileFn {
        suffix: "serve/src/shard.rs",
        name: "run_shard",
    },
    Matcher::TypeMethod {
        type_name: "RingProducer",
        name: "push",
    },
    Matcher::TypeMethod {
        type_name: "ShardRecorder",
        name: "record",
    },
    Matcher::TypeMethod {
        type_name: "ShardRecorder",
        name: "record_frame",
    },
    Matcher::TypeMethod {
        type_name: "ShardRecorder",
        name: "hand_off",
    },
    // The decoders of bytes read back from disk: a corrupt recording
    // must fail to parse, never abort the replay or the recovery.
    Matcher::FileFn {
        suffix: "record/src/format.rs",
        name: "decode_record",
    },
    Matcher::TypeMethod {
        type_name: "SessionSnapshot",
        name: "decode",
    },
    Matcher::TraitImpl {
        trait_name: "StateCodec",
        method: Some("decode_state"),
    },
];

/// Entry points for the blocking and allocation passes: the recorder's
/// per-event encoding and once-per-iteration hand-off, the ring's
/// single-record push, serve's per-frame ingress/egress loops, the
/// ingress pass and mailbox swap a shard runs after every wake, and the
/// parts of a shard's step that run for every session it paces: each
/// automaton's `enabled_into` and the wheel's `schedule` and `advance`.
/// The allocation pass sees explicit allocations only (the sinks of
/// `callgraph::scan_sinks`), not a container's growth (`push`,
/// `entry(..).or_default()`), so the wheel's entries cannot tell
/// whether it reuses its emptied tick lists.
/// `run_shard` itself is *not* here — its single `sleep_until` to the
/// wheel's next deadline is the designed blocking point, and its
/// admission work (session setup) may allocate; the per-frame and
/// per-step work it dispatches to is what must stay nonblocking and
/// allocation-free. `Automaton::apply` is the *panic* pass's concern:
/// its error paths format messages, which is cold-path allocation, and
/// its effects grow a receiver's state (an ack queue, the decoded
/// bits), which amortizes to nothing per step.
const STEADY_STATE_ENTRIES: &[Matcher] = &[
    Matcher::TypeMethod {
        type_name: "RingProducer",
        name: "push",
    },
    Matcher::TypeMethod {
        type_name: "ShardRecorder",
        name: "record",
    },
    Matcher::TypeMethod {
        type_name: "ShardRecorder",
        name: "record_frame",
    },
    Matcher::TypeMethod {
        type_name: "ShardRecorder",
        name: "hand_off",
    },
    Matcher::TraitImpl {
        trait_name: "EgressSink",
        method: Some("send_batch"),
    },
    Matcher::TraitImpl {
        trait_name: "ServeTransport",
        method: Some("recv_batch"),
    },
    Matcher::TypeMethod {
        type_name: "Pump",
        name: "pass",
    },
    Matcher::TypeMethod {
        type_name: "Pump",
        name: "take",
    },
    Matcher::TraitImpl {
        trait_name: "Automaton",
        method: Some("enabled_into"),
    },
    Matcher::TypeMethod {
        type_name: "TimerWheel",
        name: "schedule",
    },
    Matcher::TypeMethod {
        type_name: "TimerWheel",
        name: "advance",
    },
];

/// The entry matchers of every pass that match no fn in `graph`. A stale
/// matcher silently drops its roots while the pass's other matchers keep
/// its entry count above zero.
#[must_use]
pub fn unmatched_entries(graph: &CallGraph) -> Vec<String> {
    PANIC_ENTRIES
        .iter()
        .chain(STEADY_STATE_ENTRIES)
        .filter(|m| !graph.fns.iter().any(|f| m.matches(f)))
        .map(|m| format!("{m:?}"))
        .collect()
}

/// One pass's summary, surfaced in the JSON report.
#[derive(Clone, Debug)]
pub struct PassStats {
    /// The rule id the pass reports under.
    pub rule: &'static str,
    /// How many entry-point fns matched.
    pub entries: usize,
    /// How many fns the BFS reached (entries included).
    pub reachable: usize,
    /// How many findings the pass produced (pre-baseline).
    pub findings: usize,
}

/// Runs the three passes; returns findings plus per-pass stats.
#[must_use]
pub fn run_passes(graph: &CallGraph) -> (Vec<Finding>, Vec<PassStats>) {
    let mut findings = Vec::new();
    let mut stats = Vec::new();
    for (rule, kind, matchers) in [
        ("panic-reachable", SinkKind::Panic, PANIC_ENTRIES),
        (
            "blocking-in-nonblocking",
            SinkKind::Block,
            STEADY_STATE_ENTRIES,
        ),
        (
            "alloc-in-steady-state",
            SinkKind::Alloc,
            STEADY_STATE_ENTRIES,
        ),
    ] {
        let entries: Vec<usize> = graph
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| matchers.iter().any(|m| m.matches(f)))
            .map(|(i, _)| i)
            .collect();
        let (found, reachable) = run_one(graph, rule, kind, &entries);
        stats.push(PassStats {
            rule,
            entries: entries.len(),
            reachable,
            findings: found.len(),
        });
        findings.extend(found);
    }
    (findings, stats)
}

/// Multi-source BFS from `entries`; reports every `kind` sink in a
/// reached fn, with the shortest entry→sink chain in the message.
fn run_one(
    graph: &CallGraph,
    rule: &'static str,
    kind: SinkKind,
    entries: &[usize],
) -> (Vec<Finding>, usize) {
    const NONE: usize = usize::MAX;
    let n = graph.fns.len();
    let mut parent = vec![NONE; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &e in entries {
        if !seen[e] {
            seen[e] = true;
            parent[e] = e; // self-parent marks a BFS root
            queue.push_back(e);
        }
    }
    let mut order = Vec::new();
    while let Some(f) = queue.pop_front() {
        order.push(f);
        for &callee in &graph.edges[f] {
            if !seen[callee] {
                seen[callee] = true;
                parent[callee] = f;
                queue.push_back(callee);
            }
        }
    }

    let mut findings = Vec::new();
    let mut dedupe = std::collections::BTreeSet::new();
    for &f in &order {
        for sink in &graph.sinks[f] {
            if sink.kind != kind {
                continue;
            }
            let file = &graph.fns[f].file;
            if !dedupe.insert((file.clone(), sink.line)) {
                continue;
            }
            // Walk back to the entry for the chain.
            let mut chain = vec![f];
            let mut cur = f;
            while parent[cur] != cur {
                cur = parent[cur];
                chain.push(cur);
                if chain.len() > n {
                    break; // cannot happen; belt and braces
                }
            }
            chain.reverse();
            let rendered = chain
                .iter()
                .map(|&id| graph.fns[id].display())
                .collect::<Vec<_>>()
                .join(" -> ");
            findings.push(Finding {
                rule,
                path: file.clone(),
                line: sink.line,
                message: format!("{} reachable via {rendered}", sink.what),
            });
        }
    }
    (findings, order.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::source::SourceFile;

    #[test]
    fn panic_chain_crosses_files_and_reports_the_route() {
        let a = SourceFile::new(
            "crates/serve/src/shard.rs",
            "use rstp_net::W;\n\
             pub(crate) fn run_shard() { helper(); }\n\
             fn helper() { W::explode(); }",
        );
        let b = SourceFile::new(
            "crates/net/src/w.rs",
            "pub struct W;\nimpl W { pub fn explode() { panic!(\"boom\"); } }",
        );
        let g = build(&[a, b]);
        let (findings, stats) = run_passes(&g);
        let panic: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "panic-reachable")
            .collect();
        assert_eq!(panic.len(), 1, "{findings:?}");
        assert_eq!(panic[0].path, "crates/net/src/w.rs");
        assert!(
            panic[0]
                .message
                .contains("run_shard -> serve/shard::helper -> net/w::W::explode"),
            "{}",
            panic[0].message
        );
        assert!(stats
            .iter()
            .any(|s| s.rule == "panic-reachable" && s.entries == 1));
    }

    #[test]
    fn blocking_pass_flags_lock_under_send_batch_but_not_elsewhere() {
        let a = SourceFile::new(
            "crates/serve/src/hub.rs",
            "pub struct HubEgress;\n\
             impl EgressSink for HubEgress {\n\
               fn send_batch(&mut self) { self.inner(); }\n\
             }\n\
             impl HubEgress { fn inner(&self) { self.q.lock().ok(); } }\n\
             pub fn offline_tool() { std_lock().lock().ok(); }",
        );
        let g = build(std::slice::from_ref(&a));
        let (findings, _) = run_passes(&g);
        let blocking: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "blocking-in-nonblocking")
            .collect();
        // Only the lock reachable from send_batch is flagged; the one in
        // offline_tool is not on a steady-state path.
        assert_eq!(blocking.len(), 1, "{blocking:?}");
        assert!(blocking[0].message.contains("send_batch"));
    }

    #[test]
    fn alloc_pass_flags_to_vec_on_the_frame_path() {
        let a = SourceFile::new(
            "crates/record/src/ring.rs",
            "pub struct RingProducer;\n\
             impl RingProducer {\n\
               pub fn push(&self, bytes: &[u8]) { let _ = bytes.to_vec(); }\n\
             }",
        );
        let g = build(std::slice::from_ref(&a));
        let (findings, _) = run_passes(&g);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "alloc-in-steady-state" && f.message.contains(".to_vec()")),
            "{findings:?}"
        );
    }

    #[test]
    fn clean_steady_state_produces_no_findings() {
        let a = SourceFile::new(
            "crates/record/src/ring.rs",
            "pub struct RingProducer;\n\
             impl RingProducer {\n\
               pub fn push(&self, b: u8) -> bool {\n\
                 match self.q.try_lock() { Ok(mut g) => { g.set(b); true } Err(_) => false }\n\
               }\n\
             }",
        );
        let g = build(std::slice::from_ref(&a));
        let (findings, _) = run_passes(&g);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
