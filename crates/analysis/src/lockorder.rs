//! Static waits-for extraction and cycle detection for the blocking
//! crates (`crates/serve`, `crates/record`, `crates/net`).
//!
//! The model: every `.lock()` (and, in files that mention `RwLock`,
//! `.read()` / `.write()`) acquisition is named by the receiver field or
//! binding it is called on (`self.clients.lock()` → `clients`),
//! qualified by its crate (`serve::clients`). One lock taken in two files
//! of a crate (the ingress lock `pump`, in `server.rs` and `shard.rs`) is
//! one node, so a cycle that runs through both files closes. Two locks
//! that share a field name in one crate merge too, which can only add a
//! cycle to review, never hide one; naming a lock by its declared type
//! instead is defeated by aliases (`type Inbox = Arc<Mutex<..>>`). A
//! guard's *hold span* is approximated lexically:
//!
//! * a `let`-bound guard is held to the end of its enclosing block;
//! * a temporary guard (`x.lock()?.push(..)` in one statement) is held
//!   to the end of that statement.
//!
//! Locks are not the only way to wait. In files that mention `mpsc` /
//! `sync_channel`, a blocking channel endpoint operation (`.recv()`,
//! `.recv_timeout()`, `.send()` — but not `try_send`) becomes a
//! **channel-wait node** (`serve::pump.chan`). A channel wait
//! holds nothing afterwards, so it only ever appears as the *target*
//! of an edge; what it adds to the graph is the deadlock shape "parked
//! on a channel while holding a lock".
//!
//! An edge `A → B` means "the thread waited on B while A was
//! (statically) still held" — either directly inside A's hold span, or
//! through a same-file call to a function that (transitively) waits on
//! B; each edge's site names its file. A cycle in the edge set is a
//! potential deadlock; the acyclic order is emitted as TOML so any
//! regression shows up as a diff of a checked-in file.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One nested acquisition: `to` taken while `from` was held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEdge {
    /// The lock already held (`crate::name`).
    pub from: String,
    /// The lock acquired under it (`crate::name`).
    pub to: String,
    /// `path:function:line` of the inner acquisition or call site.
    pub site: String,
}

/// The extracted acquisition graph.
#[derive(Clone, Debug, Default)]
pub struct LockGraph {
    /// Every lock observed, sorted (`crate::name`).
    pub nodes: Vec<String>,
    /// Nested-acquisition edges, deduplicated and sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// A topological order of `nodes` (valid only when `cycles` is empty).
    pub order: Vec<String>,
    /// Each detected cycle as a closed node path `[a, b, .., a]`.
    pub cycles: Vec<Vec<String>>,
}

/// One wait point inside a function: a lock acquisition (which holds a
/// guard for a span) or a blocking channel operation (which holds
/// nothing once it returns — `holds` is false).
struct Acq {
    name: String,
    pos: usize,
    hold_end: usize,
    line: u32,
    holds: bool,
}

/// A call to a same-file function.
struct Call {
    callee: String,
    pos: usize,
    line: u32,
}

struct FnInfo {
    name: String,
    acqs: Vec<Acq>,
    calls: Vec<Call>,
}

/// Extracts the lock graph from the given files.
#[must_use]
pub fn extract(files: &[&SourceFile]) -> LockGraph {
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();

    for file in files {
        let scope = crate_scope(&file.path);
        let stem = scope.as_str();
        let track_rw = file.tokens.iter().any(|t| t.is_ident("RwLock"));
        let track_chan = file
            .tokens
            .iter()
            .any(|t| t.is_ident("mpsc") || t.is_ident("sync_channel") || t.is_ident("SyncSender"));
        let fns = functions(file, track_rw, track_chan);
        // Direct lock sets per function, then the transitive closure over
        // same-file calls.
        let direct: BTreeMap<String, BTreeSet<String>> = fns
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    f.acqs.iter().map(|a| a.name.clone()).collect(),
                )
            })
            .collect();
        let closed = close_over_calls(&fns, &direct);

        for f in &fns {
            for a in &f.acqs {
                nodes.insert(qualify(stem, &a.name));
            }
            // Direct nesting: B awaited inside A's hold span. A channel
            // wait holds nothing, so it never opens an edge.
            for a in f.acqs.iter().filter(|a| a.holds) {
                for b in &f.acqs {
                    if b.pos > a.pos && b.pos <= a.hold_end && a.name != b.name {
                        edges
                            .entry((qualify(stem, &a.name), qualify(stem, &b.name)))
                            .or_insert_with(|| site(&file.path, &f.name, b.line));
                    }
                }
                // Indirect nesting: a same-file call made under A acquires
                // whatever the callee (transitively) locks.
                for c in &f.calls {
                    if c.pos > a.pos && c.pos <= a.hold_end {
                        if let Some(callee_locks) = closed.get(&c.callee) {
                            for b in callee_locks {
                                if *b != a.name {
                                    edges
                                        .entry((qualify(stem, &a.name), qualify(stem, b)))
                                        .or_insert_with(|| site(&file.path, &f.name, c.line));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    let nodes: Vec<String> = nodes.into_iter().collect();
    let edges: Vec<LockEdge> = edges
        .into_iter()
        .map(|((from, to), site)| LockEdge { from, to, site })
        .collect();
    let (order, cycles) = toposort(&nodes, &edges);
    LockGraph {
        nodes,
        edges,
        order,
        cycles,
    }
}

fn qualify(stem: &str, lock: &str) -> String {
    format!("{stem}::{lock}")
}

fn site(path: &str, function: &str, line: u32) -> String {
    format!("{path}:{function}:{line}")
}

/// `crates/serve/src/hub.rs` → `serve`; paths outside the standard
/// layout fall back to the bare file stem.
fn crate_scope(path: &str) -> String {
    match path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
    {
        Some(krate) => krate.to_string(),
        None => path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or(path)
            .to_string(),
    }
}

/// Finds every function with a body and its wait points + call sites.
fn functions(file: &SourceFile, track_rw: bool, track_chan: bool) -> Vec<FnInfo> {
    let toks = &file.tokens;
    // Pass 1: function name set and body ranges.
    let mut ranges: Vec<(String, usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && !file.in_test[i]
        {
            let name = toks[i + 1].text.clone();
            // Find the body `{` at paren depth 0, or a `;` (declaration).
            let mut j = i + 2;
            let mut paren = 0usize;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren = paren.saturating_sub(1);
                } else if paren == 0 && t.is_punct('{') {
                    body = Some(j);
                    break;
                } else if paren == 0 && t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                let close = match_brace(toks, open);
                ranges.push((name, open, close));
                i = open + 1; // nested fns attribute their locks to the outer fn too
                continue;
            }
        }
        i += 1;
    }

    ranges
        .into_iter()
        .map(|(name, open, close)| scan_function(file, name, open, close, track_rw, track_chan))
        .collect()
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

fn scan_function(
    file: &SourceFile,
    name: String,
    open: usize,
    close: usize,
    track_rw: bool,
    track_chan: bool,
) -> FnInfo {
    let toks = &file.tokens;
    // Brace depth per token (relative to the body) and enclosing-block
    // close index per token.
    let mut depth_at = vec![0usize; close + 1 - open];
    let mut stack: Vec<usize> = Vec::new();
    let mut encl_close = vec![close; close + 1 - open];
    for (j, tok) in toks.iter().enumerate().take(close + 1).skip(open) {
        let rel = j - open;
        if tok.is_punct('{') {
            depth_at[rel] = stack.len();
            stack.push(j);
        } else if tok.is_punct('}') {
            stack.pop();
            depth_at[rel] = stack.len();
        } else {
            depth_at[rel] = stack.len();
        }
    }
    // Second pass for enclosing close: map each open brace to its close.
    let mut closes: BTreeMap<usize, usize> = BTreeMap::new();
    let mut stack2: Vec<usize> = Vec::new();
    for (j, tok) in toks.iter().enumerate().take(close + 1).skip(open) {
        if tok.is_punct('{') {
            stack2.push(j);
        } else if tok.is_punct('}') {
            if let Some(o) = stack2.pop() {
                closes.insert(o, j);
            }
        }
    }
    let mut open_stack: Vec<usize> = Vec::new();
    for (j, tok) in toks.iter().enumerate().take(close + 1).skip(open) {
        let rel = j - open;
        if tok.is_punct('{') {
            open_stack.push(j);
        }
        encl_close[rel] = open_stack
            .last()
            .and_then(|o| closes.get(o).copied())
            .unwrap_or(close);
        if tok.is_punct('}') {
            open_stack.pop();
        }
    }

    let is_acquire =
        |t: &Token| t.is_ident("lock") || (track_rw && (t.is_ident("read") || t.is_ident("write")));
    // Blocking channel endpoint ops; `try_send`/`try_recv` never park
    // and are deliberately absent.
    let is_chan_wait = |t: &Token| {
        track_chan && (t.is_ident("recv") || t.is_ident("recv_timeout") || t.is_ident("send"))
    };

    let mut acqs = Vec::new();
    let mut calls = Vec::new();
    for j in open..close {
        if file.in_test[j] {
            continue;
        }
        // `.lock(` / `.read(` / `.write(` — and, in channel-bearing
        // files, `.recv(` / `.recv_timeout(` / `.send(`.
        let acquires = toks.get(j + 1).is_some_and(&is_acquire);
        let chan_waits = !acquires && toks.get(j + 1).is_some_and(&is_chan_wait);
        if toks[j].is_punct('.')
            && (acquires || chan_waits)
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            let Some(recv) = toks
                .get(j.wrapping_sub(1))
                .filter(|t| t.kind == TokenKind::Ident && !t.text.is_empty() && t.text != "self")
            else {
                continue;
            };
            let line = toks[j + 1].line;
            let hold_end = if chan_waits {
                j // the wait returns a value, not a guard
            } else {
                hold_span_end(toks, file, open, close, j, &depth_at, &encl_close)
            };
            acqs.push(Acq {
                name: if chan_waits {
                    format!("{}.chan", recv.text)
                } else {
                    recv.text.clone()
                },
                pos: j,
                hold_end,
                line,
                holds: !chan_waits,
            });
        }
        // Same-file call site: `name(` or `self.name(`.
        if toks[j].kind == TokenKind::Ident && toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
            let prev = toks.get(j.wrapping_sub(1));
            let is_method_on_other = prev.is_some_and(|t| t.is_punct('.'))
                && !toks
                    .get(j.wrapping_sub(2))
                    .is_some_and(|t| t.is_ident("self"));
            let is_decl = prev.is_some_and(|t| t.is_ident("fn"));
            if !is_method_on_other && !is_decl {
                calls.push(Call {
                    callee: toks[j].text.clone(),
                    pos: j,
                    line: toks[j].line,
                });
            }
        }
    }
    FnInfo { name, acqs, calls }
}

/// End of the hold span for the acquisition whose `.` sits at `dot`.
fn hold_span_end(
    toks: &[Token],
    file: &SourceFile,
    open: usize,
    close: usize,
    dot: usize,
    depth_at: &[usize],
    encl_close: &[usize],
) -> usize {
    let depth = depth_at[dot - open];
    // Statement start: walk back to the nearest `;`, `{`, or `}` at the
    // same depth; the token after it opens the statement.
    let mut s = dot;
    while s > open {
        let rel = s - 1 - open;
        let t = &toks[s - 1];
        if depth_at[rel] < depth
            || (depth_at[rel] == depth && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')))
        {
            break;
        }
        s -= 1;
    }
    let let_bound = toks.get(s).is_some_and(|t| t.is_ident("let"));
    if let_bound {
        // Held to the end of the enclosing block.
        encl_close[dot - open]
    } else {
        // Held to the end of the statement.
        let mut j = dot;
        while j < close {
            let rel = j - open;
            if depth_at[rel] == depth && toks[j].is_punct(';') {
                return j;
            }
            if depth_at[rel] < depth {
                return j;
            }
            j += 1;
        }
        let _ = file;
        close
    }
}

/// Transitive closure of "locks acquired somewhere inside" over the
/// same-file call graph.
fn close_over_calls(
    fns: &[FnInfo],
    direct: &BTreeMap<String, BTreeSet<String>>,
) -> BTreeMap<String, BTreeSet<String>> {
    let mut closed = direct.clone();
    let call_map: BTreeMap<&str, Vec<&str>> = fns
        .iter()
        .map(|f| {
            (
                f.name.as_str(),
                f.calls
                    .iter()
                    .map(|c| c.callee.as_str())
                    .filter(|c| direct.contains_key(*c))
                    .collect(),
            )
        })
        .collect();
    loop {
        let mut changed = false;
        for f in fns {
            let mut add: BTreeSet<String> = BTreeSet::new();
            if let Some(callees) = call_map.get(f.name.as_str()) {
                for callee in callees {
                    if let Some(locks) = closed.get(*callee) {
                        add.extend(locks.iter().cloned());
                    }
                }
            }
            if let Some(own) = closed.get_mut(&f.name) {
                let before = own.len();
                own.extend(add);
                changed |= own.len() != before;
            }
        }
        if !changed {
            return closed;
        }
    }
}

/// Kahn topological sort; leftover nodes are walked for explicit cycles.
fn toposort(nodes: &[String], edges: &[LockEdge]) -> (Vec<String>, Vec<Vec<String>>) {
    let mut indeg: BTreeMap<&str, usize> = nodes.iter().map(|n| (n.as_str(), 0)).collect();
    let mut out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        out.entry(e.from.as_str()).or_default().push(e.to.as_str());
        if let Some(d) = indeg.get_mut(e.to.as_str()) {
            *d += 1;
        }
    }
    let mut order = Vec::new();
    // The smallest ready name goes first, so the order is deterministic
    // and one node's arrival or departure moves no unrelated pair.
    let mut ready: BTreeSet<&str> = indeg
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(n, _)| *n)
        .collect();
    let mut indeg = indeg.clone();
    while let Some(n) = ready.pop_first() {
        order.push(n.to_string());
        for m in out.get(n).into_iter().flatten() {
            if let Some(d) = indeg.get_mut(m) {
                *d -= 1;
                if *d == 0 {
                    ready.insert(m);
                }
            }
        }
    }
    if order.len() == nodes.len() {
        return (order, Vec::new());
    }
    // Walk one explicit cycle among the leftovers for the report.
    let leftover: BTreeSet<&str> = nodes
        .iter()
        .map(String::as_str)
        .filter(|n| !order.iter().any(|o| o == n))
        .collect();
    let mut cycles = Vec::new();
    if let Some(&start) = leftover.iter().next() {
        let mut path = vec![start];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        seen.insert(start);
        let mut cur = start;
        loop {
            let next = out
                .get(cur)
                .into_iter()
                .flatten()
                .find(|m| leftover.contains(**m));
            match next {
                Some(&m) if seen.contains(m) => {
                    // Close the loop at the first repeat.
                    let cut = path.iter().position(|p| *p == m).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        path[cut..].iter().map(|s| (*s).to_string()).collect();
                    cycle.push(m.to_string());
                    cycles.push(cycle);
                    break;
                }
                Some(&m) => {
                    path.push(m);
                    seen.insert(m);
                    cur = m;
                }
                None => break,
            }
        }
    }
    (order, cycles)
}

/// Renders the graph as the checked-in `analysis/lock-order.toml`.
#[must_use]
pub fn render_toml(graph: &LockGraph) -> String {
    let mut s = String::new();
    s.push_str(
        "# Waits-for order (locks + bounded-channel waits) for crates/serve, crates/record,\n\
         # and crates/net, extracted statically by rstp-analyze.\n\
         # Regenerate with: rstp analyze --emit-lock-order analysis/lock-order.toml\n\
         # A diff in this file means the blocking discipline changed — review it like an\n\
         # API change. Cycles fail `rstp analyze` outright.\n\n",
    );
    s.push_str("version = 1\n\n");
    s.push_str(&format!("nodes = {}\n", toml_array(&graph.nodes)));
    s.push_str(&format!("order = {}\n", toml_array(&graph.order)));
    for e in &graph.edges {
        s.push_str(&format!(
            "\n[[edge]]\nfrom = \"{}\"\nto = \"{}\"\nsite = \"{}\"\n",
            e.from, e.to, e.site
        ));
    }
    s
}

fn toml_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> LockGraph {
        let file = SourceFile::new("crates/serve/src/x.rs", src);
        extract(&[&file])
    }

    #[test]
    fn nested_let_bound_guards_make_an_edge() {
        let g = graph_of(
            "fn f(&self) {\n let a = self.alpha.lock().unwrap();\n \
             let b = self.beta.lock().unwrap();\n}",
        );
        assert_eq!(g.nodes, vec!["serve::alpha", "serve::beta"]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].from, "serve::alpha");
        assert_eq!(g.edges[0].to, "serve::beta");
        assert!(g.cycles.is_empty());
    }

    #[test]
    fn block_scoped_guard_released_before_second_lock_makes_no_edge() {
        // Mirrors serve::hub's egress: the map guard dies with its block
        // before the inbox lock is taken.
        let g = graph_of(
            "fn f(&self) {\n let inbox = { let map = self.clients.lock().unwrap(); \
             map.get(0).cloned() };\n inbox.lock().unwrap().push_back(1);\n}",
        );
        assert_eq!(g.nodes, vec!["serve::clients", "serve::inbox"]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn temporary_guard_spans_only_its_statement() {
        let g = graph_of(
            "fn f(&self) {\n self.alpha.lock().unwrap().push(1);\n \
             self.beta.lock().unwrap().push(2);\n}",
        );
        assert_eq!(g.nodes.len(), 2);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn cycle_between_two_functions_is_detected() {
        let g = graph_of(
            "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n\
             fn g(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }",
        );
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.cycles.len(), 1, "{:?}", g.cycles);
        let cycle = &g.cycles[0];
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn one_lock_taken_in_two_files_is_one_node_and_closes_a_cycle() {
        let a = SourceFile::new(
            "crates/serve/src/a.rs",
            "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }",
        );
        let b = SourceFile::new(
            "crates/serve/src/b.rs",
            "fn g(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }",
        );
        let g = extract(&[&a, &b]);
        assert_eq!(g.nodes, vec!["serve::alpha", "serve::beta"]);
        assert_eq!(g.edges.len(), 2, "{:?}", g.edges);
        assert_eq!(g.edges[0].site, "crates/serve/src/a.rs:f:1");
        assert_eq!(g.cycles.len(), 1, "{:?}", g.cycles);
        // The same field in another crate is another lock.
        let other = SourceFile::new(
            "crates/record/src/c.rs",
            "fn h(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }",
        );
        let g = extract(&[&a, &other]);
        assert_eq!(g.nodes.len(), 4, "{:?}", g.nodes);
        assert!(g.cycles.is_empty(), "{:?}", g.cycles);
    }

    #[test]
    fn call_graph_propagates_held_locks() {
        let g = graph_of(
            "fn helper(&self) { self.beta.lock().unwrap().push(1); }\n\
             fn f(&self) { let a = self.alpha.lock().unwrap(); self.helper(); }",
        );
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].from, "serve::alpha");
        assert_eq!(g.edges[0].to, "serve::beta");
    }

    #[test]
    fn channel_wait_under_lock_makes_a_chan_edge() {
        let g = graph_of(
            "use std::sync::mpsc;\nfn f(&self, rx: &mpsc::Receiver<u8>) {\n \
             let a = self.alpha.lock().unwrap();\n let msg = rx.recv_timeout(t);\n}",
        );
        assert_eq!(g.nodes, vec!["serve::alpha", "serve::rx.chan"]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].from, "serve::alpha");
        assert_eq!(g.edges[0].to, "serve::rx.chan");
    }

    #[test]
    fn channel_wait_holds_nothing_and_try_send_is_ignored() {
        // recv before a lock: the wait has already returned, no edge.
        let g = graph_of(
            "use std::sync::mpsc;\nfn f(&self, rx: &mpsc::Receiver<u8>) {\n \
             let msg = rx.recv();\n let a = self.alpha.lock().unwrap();\n}",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        // try_send under a lock never parks: not a waits-for edge.
        let g = graph_of(
            "use std::sync::mpsc;\nfn f(&self, tx: &mpsc::SyncSender<u8>) {\n \
             let a = self.alpha.lock().unwrap();\n let _ = tx.try_send(1);\n}",
        );
        assert_eq!(g.nodes, vec!["serve::alpha"]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        // Without an mpsc mention, .send()/.recv() are plain I/O.
        let g = graph_of("fn f(&self) { let n = self.sock.send(buf); }");
        assert!(g.nodes.is_empty());
    }

    #[test]
    fn rwlock_read_write_tracked_only_when_rwlock_present() {
        let g = graph_of(
            "use std::sync::RwLock;\nfn f(&self) { let a = self.table.read().unwrap(); \
             self.meta.write().unwrap().push(1); }",
        );
        assert_eq!(g.nodes, vec!["serve::meta", "serve::table"]);
        assert_eq!(g.edges.len(), 1);
        // Without RwLock in the file, .read()/.write() are plain I/O.
        let g = graph_of("fn f(&self) { let n = self.sock.read().unwrap(); }");
        assert!(g.nodes.is_empty());
    }

    #[test]
    fn toposort_takes_the_smallest_ready_node_first() {
        let names = |v: &[&str]| v.iter().map(|n| (*n).to_string()).collect::<Vec<_>>();
        let nodes = names(&["a", "c", "e", "g"]);
        // No edges: the order is the sorted node list.
        assert_eq!(toposort(&nodes, &[]).0, nodes);
        // An edge orders its pair; ties still go smallest first.
        let edges = [LockEdge {
            from: "g".into(),
            to: "a".into(),
            site: String::new(),
        }];
        let base = toposort(&nodes, &edges).0;
        assert_eq!(base, names(&["c", "e", "g", "a"]));
        // Adding a node, wherever its name sorts, moves no other pair.
        for extra in ["0", "b", "f", "z"] {
            let mut grown = nodes.clone();
            grown.push(extra.to_string());
            grown.sort();
            let order = toposort(&grown, &edges).0;
            let others: Vec<String> = order.into_iter().filter(|n| n != extra).collect();
            assert_eq!(others, base, "adding {extra:?}");
        }
    }

    #[test]
    fn toml_rendering_is_deterministic() {
        let src = "fn f(&self) { let a = self.alpha.lock().unwrap(); \
                   let b = self.beta.lock().unwrap(); }";
        let a = render_toml(&graph_of(src));
        let b = render_toml(&graph_of(src));
        assert_eq!(a, b);
        assert!(a.contains("nodes = [\"serve::alpha\", \"serve::beta\"]"));
        assert!(a.contains("[[edge]]"));
    }
}
