//! The invariant lint rules: repo-specific, deny-by-default.
//!
//! Each rule protects a paper-level guarantee (see `docs/ANALYSIS.md`
//! for the catalog). The bans a name resolver checks better (wall-clock
//! reads, unbounded channels, panics in the protocol crates) live in
//! clippy's configuration; what stays here is the stray-sleep token rule
//! and the workspace-level wire-const rule. A match is a [`Finding`],
//! suppressible only through the checked-in baseline file with a
//! per-entry justification.

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

/// The one blocking-sleep site that *is* the pacer.
const SLEEP_ALLOWED: &[&str] = &["crates/net/src/clock.rs"];

/// Crates where sleeps are scrutinised.
const SLEEP_SCOPE: &[&str] = &["crates/net/src/", "crates/serve/src/", "crates/cli/src/"];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

/// The `sleep-outside-pacer` token rule: `thread::sleep` in net, serve
/// or cli non-test code outside the pacer clock.
#[must_use]
pub fn sleep_rule(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !in_scope(&file.path, SLEEP_SCOPE) || in_scope(&file.path, SLEEP_ALLOWED) {
        return out;
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
    out
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
    fn sleep_rule_spares_the_pacer() {
        let f = file("crates/serve/src/server.rs", "fn f() { thread::sleep(d); }");
        assert_eq!(sleep_rule(&f).len(), 1);
        let pacer = file("crates/net/src/clock.rs", "fn f() { thread::sleep(d); }");
        assert!(sleep_rule(&pacer).is_empty());
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
