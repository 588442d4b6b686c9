//! The invariant lint rules: repo-specific, deny-by-default.
//!
//! Each rule protects a paper-level guarantee (see `docs/ANALYSIS.md`
//! for the catalog). Rules scan the token stream of non-test code; a
//! match is a [`Finding`], suppressible only through the checked-in
//! baseline file with a per-entry justification.

use crate::source::{matches_seq, Pat, SourceFile};

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case, stable).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the specific violation.
    pub message: String,
}

/// Catalog metadata for one rule.
pub struct RuleInfo {
    /// Stable identifier.
    pub id: &'static str,
    /// The paper-level invariant the rule protects.
    pub invariant: &'static str,
    /// What the rule matches.
    pub description: &'static str,
}

/// The full rule catalog (token lints, the workspace-level wire-const
/// rule, and the engine-level lock-order / baseline hygiene rules).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock-outside-driver",
        invariant: "pacing within [c1,c2]: time flows only through the driver/timer-wheel clock",
        description: "Instant::now / SystemTime::now outside net's TickClock, the one \
                      wall-clock reader",
    },
    RuleInfo {
        id: "unbounded-channel",
        invariant: "bounded queues absorb load as backpressure, never as unbounded memory",
        description: "std::sync::mpsc::channel() in net/serve; bounded sync_channel only",
    },
    RuleInfo {
        id: "panic-in-protocol-path",
        invariant: "Y is always a prefix of X: protocol crates never panic mid-transfer",
        description: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test code \
                      of core/automata/codec/sim",
    },
    RuleInfo {
        id: "sleep-outside-pacer",
        invariant: "delivery within d: blocking sleeps live only in the pacer clock",
        description: "thread::sleep outside net's TickClock in net/serve/cli non-test code",
    },
    RuleInfo {
        id: "wire-const-drift",
        invariant: "wire compatibility: frame-size prose matches the declared frame length",
        description: "a `N-byte` frame mention in code docs or markdown disagrees with \
                      FRAME_LEN_V2",
    },
    RuleInfo {
        id: "lock-order-cycle",
        invariant: "progress under load: the serve lock acquisition graph stays acyclic",
        description: "a cycle in the static Mutex/RwLock acquisition graph of crates/serve",
    },
    RuleInfo {
        id: "lock-order-drift",
        invariant: "lock-order regressions diff loudly",
        description: "analysis/lock-order.toml no longer matches the extracted graph",
    },
    RuleInfo {
        id: "panic-reachable",
        invariant: "Y is always a prefix of X: no protocol entry point reaches a panic",
        description: "an unwrap/expect/panic!/variable-index sink reachable from \
                      Automaton::step/output, codec encode/decode, the serve shard tick, \
                      the record append path, or the recording and snapshot decoders — \
                      reported with the full call chain",
    },
    RuleInfo {
        id: "blocking-in-nonblocking",
        invariant: "the record ring and serve per-frame loops are strictly nonblocking",
        description: "a lock()/recv()/bounded send()/sleep/join sink reachable from \
                      RingProducer::push, ShardRecorder::record, EgressSink::send_batch, \
                      ServeTransport::recv_batch, or SessionEndpoint::step/apply_recv",
    },
    RuleInfo {
        id: "alloc-in-steady-state",
        invariant: "allocation-free steady state (ROADMAP 1/4): the per-frame path never \
                    allocates",
        description: "a to_vec/to_owned/format!/vec!/Box::new/container-ctor sink reachable \
                      from the per-frame entry points",
    },
    RuleInfo {
        id: "stale-baseline",
        invariant: "the baseline shrinks monotonically: fixed findings leave the baseline",
        description: "a baseline entry that no current finding matches",
    },
    RuleInfo {
        id: "baseline-parse",
        invariant: "every suppression carries a justification",
        description: "analysis/baseline.toml is malformed or missing a reason",
    },
];

/// Paths (workspace-relative prefixes) where wall-clock reads are the
/// point: the tick clock, the one reader. The driver loop and the shard
/// step loop take their one reading per step through it.
const WALL_CLOCK_ALLOWED: &[&str] = &["crates/net/src/clock.rs"];

/// The one blocking-sleep site that *is* the pacer.
const SLEEP_ALLOWED: &[&str] = &["crates/net/src/clock.rs"];

/// Crates whose non-test code must never panic (the protocol path).
const PANIC_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/automata/src/",
    "crates/codec/src/",
    "crates/sim/src/",
    "crates/record/src/",
];

/// Crates where channels must be bounded and sleeps scrutinised.
const CHANNEL_SCOPE: &[&str] = &["crates/net/src/", "crates/serve/src/", "crates/record/src/"];
const SLEEP_SCOPE: &[&str] = &["crates/net/src/", "crates/serve/src/", "crates/cli/src/"];

/// Everything the wall-clock rule patrols: all first-party crate
/// sources plus the facade crate.
const WALL_CLOCK_SCOPE: &[&str] = &["crates/", "src/"];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

/// Runs every token-level rule against one file.
#[must_use]
pub fn run_token_rules(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    wall_clock_rule(file, &mut findings);
    unbounded_channel_rule(file, &mut findings);
    panic_rule(file, &mut findings);
    sleep_rule(file, &mut findings);
    findings
}

fn wall_clock_rule(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.path, WALL_CLOCK_SCOPE) || in_scope(&file.path, WALL_CLOCK_ALLOWED) {
        return;
    }
    use Pat::{Id, P};
    for (i, t) in file.code_tokens() {
        for src in ["Instant", "SystemTime"] {
            if matches_seq(&file.tokens, i, &[Id(src), P(':'), P(':'), Id("now")]) {
                out.push(Finding {
                    rule: "wall-clock-outside-driver",
                    path: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "{src}::now() outside the driver clock — route timing through \
                         TickClock so [c1,c2] accounting sees every read"
                    ),
                });
            }
        }
    }
}

fn unbounded_channel_rule(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.path, CHANNEL_SCOPE) {
        return;
    }
    use Pat::{Id, P};
    // `use ...::mpsc::channel;` and `use ...::mpsc::{channel, ...};`
    // imports make later bare `channel(...)` calls unbounded too.
    let toks = &file.tokens;
    let imported_bare = (0..toks.len()).any(|i| {
        if matches_seq(toks, i, &[Id("mpsc"), P(':'), P(':'), Id("channel")]) {
            return !matches_seq(toks, i + 4, &[P('(')]);
        }
        matches_seq(toks, i, &[Id("mpsc"), P(':'), P(':'), P('{')])
            && toks
                .iter()
                .skip(i + 4)
                .take_while(|t| !t.is_punct('}'))
                .any(|t| t.is_ident("channel"))
    });
    // True when token `i` opens a call: `(` directly, or a turbofish
    // `::<...>` followed by `(`.
    let calls_at = |i: usize| {
        if matches_seq(&file.tokens, i, &[P('(')]) {
            return true;
        }
        if !matches_seq(&file.tokens, i, &[P(':'), P(':'), P('<')]) {
            return false;
        }
        let mut depth = 0usize;
        let mut j = i + 2;
        while let Some(t) = file.tokens.get(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return matches_seq(&file.tokens, j + 1, &[P('(')]);
                }
            }
            j += 1;
        }
        false
    };
    for (i, t) in file.code_tokens() {
        let qualified = matches_seq(
            &file.tokens,
            i,
            &[Id("mpsc"), P(':'), P(':'), Id("channel")],
        ) && calls_at(i + 4);
        let bare = imported_bare
            && t.is_ident("channel")
            && calls_at(i + 1)
            && !file
                .tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_punct(':') || p.is_punct('.') || p.is_ident("fn"));
        if qualified || bare {
            out.push(Finding {
                rule: "unbounded-channel",
                path: file.path.clone(),
                line: t.line,
                message: "mpsc::channel() is unbounded — use sync_channel(cap) so overload \
                          becomes backpressure, not memory growth"
                    .to_string(),
            });
        }
    }
}

fn panic_rule(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.path, PANIC_SCOPE) {
        return;
    }
    use Pat::{Id, P};
    for (i, t) in file.code_tokens() {
        for method in ["unwrap", "expect"] {
            if matches_seq(&file.tokens, i, &[P('.'), Id(method), P('(')]) {
                // The checked-guard idiom (`a.checked_add(b).expect(...)`)
                // is machine-verified safe intent, not an unvalidated
                // panic; the call graph's sink scanner shares the check.
                if crate::callgraph::checked_guard_before(&file.tokens, i) {
                    continue;
                }
                let line = file.tokens[i + 1].line;
                out.push(Finding {
                    rule: "panic-in-protocol-path",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        ".{method}() can panic mid-transfer — return a typed error or make \
                         the invariant unrepresentable"
                    ),
                });
            }
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            if t.is_ident(mac) && matches_seq(&file.tokens, i + 1, &[P('!')]) {
                out.push(Finding {
                    rule: "panic-in-protocol-path",
                    path: file.path.clone(),
                    line: t.line,
                    message: format!("{mac}! aborts the protocol path"),
                });
            }
        }
    }
}

fn sleep_rule(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.path, SLEEP_SCOPE) || in_scope(&file.path, SLEEP_ALLOWED) {
        return;
    }
    use Pat::{Id, P};
    for (i, t) in file.code_tokens() {
        if matches_seq(
            &file.tokens,
            i,
            &[Id("thread"), P(':'), P(':'), Id("sleep"), P('(')],
        ) {
            out.push(Finding {
                rule: "sleep-outside-pacer",
                path: file.path.clone(),
                line: t.line,
                message: "thread::sleep outside TickClock::sleep_until — an unaccounted stall \
                          can silently breach the c2 window"
                    .to_string(),
            });
        }
    }
}

/// The workspace-level wire-const rule: extracts `FRAME_LEN_V2` from
/// `crates/net/src/wire.rs` and checks every `N-byte` frame mention in
/// first-party sources and docs against it.
///
/// `texts` is `(workspace-relative path, raw file text)` for every file
/// the rule should patrol — the engine passes net/serve sources plus
/// `README.md` and `docs/*.md`.
#[must_use]
pub fn wire_const_rule(texts: &[(String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((wire_path, wire_text)) = texts
        .iter()
        .find(|(p, _)| p.ends_with("crates/net/src/wire.rs") || p == "crates/net/src/wire.rs")
    else {
        return out;
    };
    let wire = SourceFile::new(wire_path, wire_text);
    let Some(frame_len) = const_value(&wire, "FRAME_LEN_V2") else {
        out.push(Finding {
            rule: "wire-const-drift",
            path: wire_path.clone(),
            line: 1,
            message: "cannot locate the FRAME_LEN_V2 declaration".to_string(),
        });
        return out;
    };
    for (path, text) in texts {
        for (lineno, line) in text.lines().enumerate() {
            let lower = line.to_ascii_lowercase();
            if !lower.contains("frame") {
                continue;
            }
            for n in byte_mentions(line) {
                if n != frame_len {
                    out.push(Finding {
                        rule: "wire-const-drift",
                        path: path.clone(),
                        line: u32::try_from(lineno + 1).unwrap_or(u32::MAX),
                        message: format!(
                            "\"{n}-byte\" frame mention disagrees with wire.rs \
                             (FRAME_LEN_V2 = {frame_len})"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Evaluates `const NAME: usize = <int>;` (a sum of integer literals).
fn const_value(file: &SourceFile, name: &str) -> Option<u64> {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))) {
            continue;
        }
        // Scan the initializer between `=` and `;`.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('=') {
            j += 1;
        }
        let mut value: Option<u64> = None;
        while j < toks.len() && !toks[j].is_punct(';') {
            let t = &toks[j];
            if let Some(n) = parse_int(&t.text) {
                value = Some(value.unwrap_or(0) + n);
            }
            j += 1;
        }
        return value;
    }
    None
}

fn parse_int(text: &str) -> Option<u64> {
    let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() || digits.len() != text.len() && !text.starts_with(&digits) {
        return None;
    }
    // Reject idents like `u32` (starts non-digit) — handled by emptiness.
    let rest = &text[digits.len()..];
    if !rest.is_empty() && !rest.chars().all(|c| c.is_ascii_alphabetic() || c == '_') {
        return None;
    }
    digits.parse().ok()
}

/// Finds every `N-byte` mention in a raw line and yields `N`.
fn byte_mentions(line: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if line[i..].starts_with("-byte") {
                if let Ok(n) = line[start..i].parse() {
                    out.push(n);
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn wall_clock_flagged_outside_allowed_modules() {
        // The paced loops read time only through the tick clock.
        for path in [
            "crates/serve/src/swarm.rs",
            "crates/net/src/driver.rs",
            "crates/serve/src/shard.rs",
        ] {
            let f = file(path, "fn f() { let t = Instant::now(); }");
            let got = run_token_rules(&f);
            assert_eq!(got.len(), 1, "{path}");
            assert_eq!(got[0].rule, "wall-clock-outside-driver");
        }
    }

    #[test]
    fn wall_clock_allowed_in_the_clock_and_test_code() {
        let clock = file(
            "crates/net/src/clock.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(run_token_rules(&clock).is_empty());
        let test = file(
            "crates/serve/src/swarm.rs",
            "#[cfg(test)] mod t { fn f() { let t = Instant::now(); } }",
        );
        assert!(run_token_rules(&test).is_empty());
    }

    #[test]
    fn unbounded_channel_flagged_qualified_and_bare() {
        let f = file(
            "crates/net/src/mem.rs",
            "use std::sync::mpsc::channel;\nfn f() { let (tx, rx) = channel(); }",
        );
        let got = run_token_rules(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        let f = file(
            "crates/net/src/mem.rs",
            "fn f() { let (tx, rx) = mpsc::channel(); }",
        );
        assert_eq!(run_token_rules(&f).len(), 1);
        // A turbofish does not hide the call.
        let f = file(
            "crates/net/src/mem.rs",
            "fn f() { let (tx, rx) = mpsc::channel::<(Instant, Vec<u8>)>(); }",
        );
        assert_eq!(run_token_rules(&f).len(), 1);
        // Nor does a grouped import.
        let f = file(
            "crates/serve/src/server.rs",
            "use std::sync::mpsc::{channel, sync_channel, Sender};\n\
             fn f() { let (tx, rx) = channel::<u8>(); }",
        );
        assert_eq!(run_token_rules(&f).len(), 1);
        let ok = file(
            "crates/net/src/mem.rs",
            "fn f() { let (tx, rx) = mpsc::sync_channel(64); }",
        );
        assert!(run_token_rules(&ok).is_empty());
    }

    #[test]
    fn panic_rule_catches_all_forms_in_scope_only() {
        let f = file(
            "crates/core/src/protocols/beta.rs",
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); unreachable!(); }",
        );
        assert_eq!(run_token_rules(&f).len(), 4);
        // Same text outside the protocol scope: quiet.
        let f = file(
            "crates/cli/src/commands.rs",
            "fn f() { x.unwrap(); panic!(\"n\"); }",
        );
        assert!(run_token_rules(&f).is_empty());
        // unwrap_or_else is not unwrap.
        let f = file(
            "crates/core/src/lib.rs",
            "fn f() { x.unwrap_or_else(|| 3); }",
        );
        assert!(run_token_rules(&f).is_empty());
    }

    #[test]
    fn sleep_rule_spares_the_pacer() {
        let f = file("crates/serve/src/server.rs", "fn f() { thread::sleep(d); }");
        assert_eq!(run_token_rules(&f).len(), 1);
        let pacer = file("crates/net/src/clock.rs", "fn f() { thread::sleep(d); }");
        assert!(run_token_rules(&pacer).is_empty());
    }

    #[test]
    fn wire_const_rule_checks_docs_against_declared_consts() {
        let wire = (
            "crates/net/src/wire.rs".to_string(),
            "pub const FRAME_LEN_V2: usize = 40;".to_string(),
        );
        let good = (
            "docs/NET.md".to_string(),
            "Every frame is a 40-byte datagram.".to_string(),
        );
        let bad = (
            "docs/SERVE.md".to_string(),
            "Each 44-byte frame carries a session id.\nA 36-byte frame has none.".to_string(),
        );
        let texts = vec![wire, good, bad];
        let got = wire_const_rule(&texts);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| f.path == "docs/SERVE.md"));
        assert!(got[0].message.contains("44-byte"));
        assert!(got[1].message.contains("36-byte"));
    }

    #[test]
    fn wire_const_rule_ignores_non_frame_byte_mentions() {
        let texts = vec![
            (
                "crates/net/src/wire.rs".to_string(),
                "pub const FRAME_LEN_V2: usize = 40;".to_string(),
            ),
            (
                "docs/NET.md".to_string(),
                "A 64-byte cache line is not a frame size... wait, it mentions frame.\n\
                 A 64-byte cache line alignment note."
                    .to_string(),
            ),
        ];
        // First line contains "frame" → flagged; second does not → quiet.
        assert_eq!(wire_const_rule(&texts).len(), 1);
    }
}
