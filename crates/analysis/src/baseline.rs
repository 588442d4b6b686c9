//! The suppression baseline: `analysis/baseline.toml`.
//!
//! Findings are deny-by-default; the only way to silence one is a
//! checked-in `[[allow]]` entry carrying a non-empty `reason`. Entries
//! match findings by `(rule, path)` and suppress at most `count` of
//! them (default 1). An entry that matches nothing — or claims more
//! findings than exist — is itself a finding (`stale-baseline`), so the
//! baseline can only shrink as violations get fixed.
//!
//! The parser handles exactly the subset the file uses: `[[allow]]`
//! tables with `key = "string"` / `key = integer` pairs and `#`
//! comments. Anything else is a hard `baseline-parse` error; a
//! suppression file too clever to parse suppresses nothing.

use crate::rules::Finding;
use std::collections::BTreeMap;

/// One `[[allow]]` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative path the entry applies to.
    pub path: String,
    /// How many findings of `(rule, path)` it covers.
    pub count: u32,
    /// Why the violation is acceptable (required, non-empty).
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for diagnostics.
    pub line: u32,
}

/// Parses baseline text. `Err` carries a message with a line number.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut open: Option<Entry> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(e) = open.take() {
                entries.push(finish(e)?);
            }
            open = Some(Entry {
                rule: String::new(),
                path: String::new(),
                count: 1,
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: unexpected table `{line}` (only [[allow]] is recognised)"
            ));
        }
        let Some(e) = open.as_mut() else {
            return Err(format!("line {lineno}: key outside an [[allow]] entry"));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "rule" => e.rule = unquote(value, lineno)?,
            "path" => e.path = unquote(value, lineno)?,
            "reason" => e.reason = unquote(value, lineno)?,
            "count" => {
                e.count = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: count must be a positive integer"))?;
                if e.count == 0 {
                    return Err(format!("line {lineno}: count must be at least 1"));
                }
            }
            other => {
                return Err(format!("line {lineno}: unknown key `{other}`"));
            }
        }
    }
    if let Some(e) = open.take() {
        entries.push(finish(e)?);
    }
    Ok(entries)
}

fn finish(e: Entry) -> Result<Entry, String> {
    if e.rule.is_empty() {
        return Err(format!(
            "line {}: [[allow]] entry is missing `rule`",
            e.line
        ));
    }
    if e.path.is_empty() {
        return Err(format!(
            "line {}: [[allow]] entry is missing `path`",
            e.line
        ));
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "line {}: [[allow]] entry for {} at {} has no `reason` — every suppression \
             must say why",
            e.line, e.rule, e.path
        ));
    }
    Ok(e)
}

fn unquote(value: &str, lineno: u32) -> Result<String, String> {
    let v = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string"))?;
    if v.contains('"') || v.contains('\\') {
        return Err(format!(
            "line {lineno}: escapes are not supported in baseline strings"
        ));
    }
    Ok(v.to_string())
}

/// Applies the baseline: returns `(surviving findings, hygiene findings)`.
///
/// Hygiene findings (`stale-baseline`) are emitted for `(rule, path)`
/// groups whose combined `count` exceeds the live findings — including
/// entries that match nothing at all.
#[must_use]
pub fn apply(findings: Vec<Finding>, entries: &[Entry]) -> (Vec<Finding>, Vec<Finding>) {
    // Budget per (rule, path) group.
    let mut budget: BTreeMap<(String, String), u32> = BTreeMap::new();
    for e in entries {
        *budget.entry((e.rule.clone(), e.path.clone())).or_insert(0) += e.count;
    }
    let mut used: BTreeMap<(String, String), u32> = BTreeMap::new();
    let mut surviving = Vec::new();
    for f in findings {
        let key = (f.rule.to_string(), f.path.clone());
        let allowed = budget.get(&key).copied().unwrap_or(0);
        let u = used.entry(key).or_insert(0);
        if *u < allowed {
            *u += 1;
        } else {
            surviving.push(f);
        }
    }
    let mut hygiene = Vec::new();
    let mut reported: BTreeMap<(String, String), bool> = BTreeMap::new();
    for e in entries {
        let key = (e.rule.clone(), e.path.clone());
        let claimed = budget.get(&key).copied().unwrap_or(0);
        let consumed = used.get(&key).copied().unwrap_or(0);
        if consumed < claimed && !reported.contains_key(&key) {
            reported.insert(key, true);
            hygiene.push(Finding {
                rule: "stale-baseline",
                path: "analysis/baseline.toml".to_string(),
                line: e.line,
                message: format!(
                    "entry for {} at {} covers {} finding(s) but only {} exist — shrink or \
                     delete it",
                    e.rule, e.path, claimed, consumed
                ),
            });
        }
    }
    (surviving, hygiene)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# comment\n\
[[allow]]\n\
rule = \"panic-reachable\"\n\
path = \"crates/combinatorics/src/multiset.rs\"\n\
count = 2\n\
reason = \"documented # Panics contracts\"\n\
\n\
[[allow]]\n\
rule = \"sleep-outside-pacer\"\n\
path = \"crates/serve/src/server.rs\"\n\
reason = \"idle nap bounded by tick/4\"\n";

    fn finding(rule: &'static str, path: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 1,
            message: String::new(),
        }
    }

    #[test]
    fn parses_entries_with_defaults() {
        let entries = parse(GOOD).expect("parses");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].count, 2);
        assert_eq!(entries[1].count, 1);
        assert_eq!(entries[1].rule, "sleep-outside-pacer");
    }

    #[test]
    fn reason_is_mandatory() {
        let bad = "[[allow]]\nrule = \"x\"\npath = \"y\"\n";
        let err = parse(bad).expect_err("must fail");
        assert!(err.contains("reason"), "{err}");
        let blank = "[[allow]]\nrule = \"x\"\npath = \"y\"\nreason = \"  \"\n";
        assert!(parse(blank).is_err());
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("[allow]\n").is_err());
        assert!(parse("rule = \"x\"\n").is_err());
        assert!(parse("[[allow]]\nrule: \"x\"\n").is_err());
        assert!(parse(
            "[[allow]]\ncount = \"three\"\nrule = \"r\"\npath = \"p\"\nreason = \"z\"\n"
        )
        .is_err());
    }

    #[test]
    fn apply_suppresses_up_to_count_and_reports_stale() {
        let entries = parse(GOOD).expect("parses");
        let findings = vec![
            finding("panic-reachable", "crates/combinatorics/src/multiset.rs"),
            finding("panic-reachable", "crates/combinatorics/src/multiset.rs"),
            finding("panic-reachable", "crates/combinatorics/src/multiset.rs"),
        ];
        let (survive, hygiene) = apply(findings, &entries);
        // Two suppressed, one survives; the sleep entry matched nothing.
        assert_eq!(survive.len(), 1);
        assert_eq!(hygiene.len(), 1);
        assert_eq!(hygiene[0].rule, "stale-baseline");
        assert!(
            hygiene[0].message.contains("sleep-outside-pacer"),
            "{}",
            hygiene[0].message
        );
    }

    #[test]
    fn exact_match_is_clean() {
        let entries =
            parse("[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"why\"\n").expect("parses");
        let (survive, hygiene) = apply(vec![finding("r", "p")], &entries);
        assert!(survive.is_empty());
        assert!(hygiene.is_empty());
    }
}
