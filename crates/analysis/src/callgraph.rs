//! Workspace-wide symbol table and call graph, built on the hand-rolled
//! lexer — still std-only, still no `syn`.
//!
//! The table records every function definition with its impl context
//! (`impl Type`, `impl Trait for Type`, `trait Trait { fn ... }`); call
//! sites are resolved conservatively:
//!
//! * `self.m(...)` binds to every `m` on the caller's impl type when one
//!   exists, otherwise to **all** workspace methods named `m` in scope;
//! * `recv.m(...)` binds to all workspace methods named `m` in scope
//!   (the "all impls of that method name" fallback — over-approximation
//!   is the price of soundness without type inference), except where
//!   `recv` is a parameter declared as a std container (`out: &mut
//!   Vec<T>`) that the body names only as a receiver (`out.m`): no
//!   pattern or `let` can have rebound it, so the call is `Vec::m`;
//! * `Type::m(...)` binds through the impl table when `Type` is a
//!   workspace type, through free functions when `Type` names a module
//!   file, and is classified *external* when it is `Vec`, `Box`, or any
//!   other name the workspace never implements;
//! * `<T as Trait>::m(...)` binds through the trait-impl table (see
//!   [`crate::path`] for the scanning);
//! * bare `f(...)` prefers same-file free functions, then same-crate,
//!   then anything in scope.
//!
//! "Scope" is the calling file's crate plus every `rstp_*` crate the
//! file names — the dependency cone a call could actually land in.
//! Calls into `std` resolve to nothing and are classified external;
//! a call whose name the workspace defines but scoping rejects is
//! *unresolved* and counted (the self-hosting test holds the resolved
//! rate above 95%).

use crate::lexer::{Token, TokenKind};
use crate::path::{parse_path_at, qualified_self_before};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One function definition in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's bare name.
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Crate short name (`serve`, `net`, ..., `rstp` for the facade).
    pub krate: String,
    /// `Some("Type")` for `impl Type` / `impl Trait for Type` methods.
    pub self_type: Option<String>,
    /// `Some("Trait")` for trait-impl methods and trait default bodies.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range `(open brace, close brace)` in the file.
    pub body: (usize, usize),
    /// Parameters declared as a std container that the body names only
    /// as method receivers, with the container's name:
    /// `("out", "Vec")` for `out: &mut Vec<A>`.
    pub std_receivers: Vec<(String, String)>,
    /// Index into the file list the graph was built from.
    pub file_idx: usize,
}

impl FnDef {
    /// Display name for chains: `crate/file::Type::name` or
    /// `crate/file::name`.
    #[must_use]
    pub fn display(&self) -> String {
        let stem = file_stem(&self.file);
        match &self.self_type {
            Some(t) => format!("{}/{stem}::{t}::{}", self.krate, self.name),
            None => format!("{}/{stem}::{}", self.krate, self.name),
        }
    }
}

/// What a sink found in a function body can do to the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// Can abort the process (`unwrap`, `panic!`, variable indexing).
    Panic,
    /// Can block the calling thread (`lock`, `recv`, `sleep`, `join`).
    Block,
    /// Allocates on every call (`to_vec`, `format!`, fresh `Vec`).
    Alloc,
}

/// One syntactic sink inside a function body.
#[derive(Clone, Debug)]
pub struct Sink {
    /// What the sink can do.
    pub kind: SinkKind,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description (`".unwrap()"`, `"format!"`, ...).
    pub what: String,
}

/// How one call site resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Bound to ≥ 1 workspace definitions.
    Bound,
    /// The name is not defined anywhere in the workspace (std or
    /// foreign) — confidently external.
    External,
    /// The workspace defines the name but scoping rejected every
    /// candidate — a blind spot, counted against the resolution rate.
    Unresolved,
}

/// Aggregate call-site accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    /// Total call sites scanned (methods, qualified, bare).
    pub sites: usize,
    /// Sites bound to at least one workspace definition.
    pub bound: usize,
    /// Sites confidently classified external (std etc.).
    pub external: usize,
    /// Sites the workspace defines but scoping could not place.
    pub unresolved: usize,
}

impl CallStats {
    /// Fraction of sites that are bound or confidently external.
    #[must_use]
    pub fn resolution_rate(&self) -> f64 {
        if self.sites == 0 {
            return 1.0;
        }
        (self.bound + self.external) as f64 / self.sites as f64
    }
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every non-test function definition found.
    pub fns: Vec<FnDef>,
    /// `edges[f]` = callee fn ids of `f`, deduplicated and sorted.
    pub edges: Vec<Vec<usize>>,
    /// `sinks[f]` = syntactic sinks in `f`'s body.
    pub sinks: Vec<Vec<Sink>>,
    /// Call-site accounting.
    pub stats: CallStats,
    /// Unresolved call-site names with occurrence counts — the
    /// self-hosting test prints these when the resolution rate slips.
    pub unresolved_names: BTreeMap<String, usize>,
}

impl CallGraph {
    /// Ids of fns matching `(self_type or trait, name)` — either side of
    /// the impl context may match `type_or_trait`.
    #[must_use]
    pub fn find(&self, type_or_trait: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name == name
                    && (f.self_type.as_deref() == Some(type_or_trait)
                        || f.trait_name.as_deref() == Some(type_or_trait))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of all methods implementing `trait_name` (any method name).
    #[must_use]
    pub fn find_trait_impls(&self, trait_name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.trait_name.as_deref() == Some(trait_name))
            .map(|(i, _)| i)
            .collect()
    }

    /// Id of the free fn `name` defined in `file`, if any.
    #[must_use]
    pub fn find_in_file(&self, file: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.name == name)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The crate short name of a workspace-relative path.
fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("rstp")
        .to_string()
}

fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path)
}

/// Marks tokens inside `#[...]` / `#![...]` attribute spans, so `cfg(`
/// never reads as a call and `#[derive(Clone)]` never reads as `Clone`
/// construction.
fn mark_attrs(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = i + 1 + usize::from(bang);
        if tokens[i].is_punct('#') && tokens.get(open).is_some_and(|t| t.is_punct('[')) {
            let mut depth = 0usize;
            let mut j = open;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            for slot in mask.iter_mut().take((j + 1).min(tokens.len())).skip(i) {
                *slot = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// One impl/trait block context.
struct ImplCtx {
    self_type: Option<String>,
    trait_name: Option<String>,
    range: (usize, usize),
}

/// Parses `impl` and `trait` block headers in one file.
fn impl_blocks(file: &SourceFile) -> Vec<ImplCtx> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Optional generics after `impl`.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                j = crate::path::skip_angles(toks, j).map_or(j + 1, |c| c + 1);
            }
            // First path (the trait, or the self type).
            let Some(p1) = parse_path_at(toks, j) else {
                i += 1;
                continue;
            };
            let mut j = p1.end;
            // Skip generic args on the path head (`impl Foo<T> {`).
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                j = crate::path::skip_angles(toks, j).map_or(j + 1, |c| c + 1);
            }
            let (self_type, trait_name, mut j) = if toks.get(j).is_some_and(|t| t.is_ident("for")) {
                match parse_path_at(toks, j + 1) {
                    Some(p2) => {
                        let mut k = p2.end;
                        if toks.get(k).is_some_and(|t| t.is_punct('<')) {
                            k = crate::path::skip_angles(toks, k).map_or(k + 1, |c| c + 1);
                        }
                        (p2.segments.last().cloned(), p1.segments.last().cloned(), k)
                    }
                    None => (None, p1.segments.last().cloned(), j + 1),
                }
            } else {
                (p1.segments.last().cloned(), None, j)
            };
            // Scan past a `where` clause to the body `{`.
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                let close = match_brace(toks, j);
                out.push(ImplCtx {
                    self_type,
                    trait_name,
                    range: (j, close),
                });
                i = j + 1;
                continue;
            }
            i = j + 1;
        } else if toks[i].is_ident("trait")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                let close = match_brace(toks, j);
                out.push(ImplCtx {
                    self_type: None,
                    trait_name: Some(name),
                    range: (j, close),
                });
                i = j + 1;
                continue;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// The parameters in the signature tokens `sig` declared as a
/// [`CONTAINER_TYPES`] type (`v: Vec<..>`, `v: &Vec<..>`, `v: &mut
/// Vec<..>`) whose every use in the `body` tokens is `v.`: a receiver,
/// never a binding that could give the name another type.
fn std_receivers(
    toks: &[Token],
    sig: (usize, usize),
    body: (usize, usize),
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for j in sig.0..sig.1 {
        if toks[j].kind != TokenKind::Ident || !toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        let mut k = j + 2;
        if toks.get(k).is_some_and(|t| t.is_punct('&')) {
            k += 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
        }
        let Some(ty) = toks
            .get(k)
            .filter(|t| CONTAINER_TYPES.contains(&t.text.as_str()))
        else {
            continue;
        };
        if !toks.get(k + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        let name = &toks[j].text;
        let only_receiver = (body.0..body.1)
            .filter(|&b| toks[b].is_ident(name))
            .all(|b| toks.get(b + 1).is_some_and(|t| t.is_punct('.')));
        if only_receiver {
            out.push((name.clone(), ty.text.clone()));
        }
    }
    out
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

/// Finds every non-test fn with a body in `file`, with impl context.
fn fn_defs(file: &SourceFile, file_idx: usize, attrs: &[bool]) -> Vec<FnDef> {
    let toks = &file.tokens;
    let impls = impl_blocks(file);
    let krate = crate_of(&file.path);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && !file.in_test[i]
            && !attrs.get(i).copied().unwrap_or(false)
        {
            let name = toks[i + 1].text.clone();
            // Body `{` at paren depth 0, or `;` (a declaration). Brackets
            // count as parens: the `;` of an array type (`-> [u8; N]`)
            // does not end the signature.
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                j = crate::path::skip_angles(toks, j).map_or(j + 1, |c| c + 1);
            }
            let mut paren = 0usize;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    paren += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
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
                let ctx = impls.iter().find(|c| c.range.0 < i && i < c.range.1);
                out.push(FnDef {
                    name,
                    file: file.path.clone(),
                    krate: krate.clone(),
                    self_type: ctx.and_then(|c| c.self_type.clone()),
                    trait_name: ctx.and_then(|c| c.trait_name.clone()),
                    line: toks[i].line,
                    body: (open, close),
                    std_receivers: std_receivers(toks, (i + 2, open), (open, close)),
                    file_idx,
                });
                // Nested items attribute to the outer fn.
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// The shape of one raw call site before resolution.
enum RawCall {
    /// `recv.m(...)`; `on_self` when the receiver is literally `self`.
    Method { name: String, on_self: bool },
    /// `Path::to::m(...)` with the qualifier's last segment kept.
    Qualified { qualifier: String, name: String },
    /// `<T as Trait>::m(...)`.
    TraitQualified {
        trait_name: String,
        type_name: Option<String>,
        name: String,
    },
    /// Bare `f(...)`.
    Bare { name: String },
}

/// Scans one fn body for call sites. `attrs` masks attribute spans. A
/// method call on one of `std_receivers` is the container's own method.
fn call_sites(
    file: &SourceFile,
    body: (usize, usize),
    std_receivers: &[(String, String)],
    attrs: &[bool],
) -> Vec<RawCall> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut j = body.0;
    while j < body.1 {
        if file.in_test[j] || attrs.get(j).copied().unwrap_or(false) {
            j += 1;
            continue;
        }
        let t = &toks[j];
        if t.kind != TokenKind::Ident {
            j += 1;
            continue;
        }
        // Where does this ident-led expression call, if anywhere? The
        // name may be followed by a turbofish before the `(`.
        let after = match parse_path_at(toks, j) {
            Some(p) if p.segments.len() == 1 => p.end,
            Some(_) | None => j + 1,
        };
        let prev = j.checked_sub(1).map(|k| &toks[k]);
        let prev_is = |c: char| prev.is_some_and(|t| t.is_punct(c));

        // A multi-segment path `a::b::c(...)`?
        if let Some(p) = parse_path_at(toks, j) {
            if p.segments.len() > 1
                && toks.get(p.end).is_some_and(|t| t.is_punct('('))
                && !prev_is(':')
                && !prev_is('.')
            {
                let name = p.segments[p.segments.len() - 1].clone();
                let qualifier = p.segments[p.segments.len() - 2].clone();
                out.push(RawCall::Qualified { qualifier, name });
                j = p.end;
                continue;
            }
        }
        // `<T as Trait>::m(...)` — the name ident preceded by `>` `::`.
        if prev_is(':') && toks.get(after).is_some_and(|t| t.is_punct('(')) {
            if let Some(q) = qualified_self_before(toks, j) {
                out.push(RawCall::TraitQualified {
                    trait_name: q.trait_name,
                    type_name: q.type_name,
                    name: t.text.clone(),
                });
                j = after;
                continue;
            }
            // Plain `path::m(` already handled by the path branch when
            // the scan started at the path head; skip the tail ident.
            j += 1;
            continue;
        }
        if !toks.get(after).is_some_and(|t| t.is_punct('(')) {
            j += 1;
            continue;
        }
        // Macro `name!(` is not a call; `fn name(` is a declaration.
        if toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
            || prev.is_some_and(|t| t.is_ident("fn"))
        {
            j += 1;
            continue;
        }
        if prev_is('.') {
            let receiver = j.checked_sub(2).and_then(|k| toks.get(k));
            let bare = j.checked_sub(3).map_or(true, |k| !toks[k].is_punct('.'));
            let container = std_receivers
                .iter()
                .find(|(param, _)| bare && receiver.is_some_and(|t| t.is_ident(param)));
            if let Some((_, ty)) = container {
                out.push(RawCall::Qualified {
                    qualifier: ty.clone(),
                    name: t.text.clone(),
                });
                j = after;
                continue;
            }
            let on_self = receiver.is_some_and(|t| t.is_ident("self"));
            out.push(RawCall::Method {
                name: t.text.clone(),
                on_self,
            });
            j = after;
            continue;
        }
        // Bare call — but `Some(x)`, `Ok(x)` etc. are enum constructors;
        // they resolve to nothing and classify external, which is fine.
        out.push(RawCall::Bare {
            name: t.text.clone(),
        });
        j = after;
        continue;
    }
    out
}

/// Builds the call graph over the given files.
#[must_use]
pub fn build(files: &[SourceFile]) -> CallGraph {
    let attr_masks: Vec<Vec<bool>> = files.iter().map(|f| mark_attrs(&f.tokens)).collect();

    // Pass 1: definitions.
    let mut fns: Vec<FnDef> = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        fns.extend(fn_defs(file, idx, &attr_masks[idx]));
    }

    // Indexes.
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_trait_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut types_defined: BTreeSet<&str> = BTreeSet::new();
    let mut any_name: BTreeSet<&str> = BTreeSet::new();
    for (id, f) in fns.iter().enumerate() {
        any_name.insert(f.name.as_str());
        if let Some(t) = &f.self_type {
            types_defined.insert(t.as_str());
            by_type_method
                .entry((t.as_str(), f.name.as_str()))
                .or_default()
                .push(id);
        }
        if let Some(tr) = &f.trait_name {
            by_trait_method
                .entry((tr.as_str(), f.name.as_str()))
                .or_default()
                .push(id);
        }
        if f.self_type.is_some() || f.trait_name.is_some() {
            methods_by_name.entry(f.name.as_str()).or_default().push(id);
        } else {
            free_by_name.entry(f.name.as_str()).or_default().push(id);
        }
    }

    // Per-file crate scope: own crate + every `rstp_*` crate named.
    let scopes: Vec<BTreeSet<String>> = files
        .iter()
        .map(|file| {
            let mut scope = BTreeSet::new();
            scope.insert(crate_of(&file.path));
            for t in &file.tokens {
                if t.kind == TokenKind::Ident {
                    if let Some(rest) = t.text.strip_prefix("rstp_") {
                        // The one lib-name/dir-name mismatch in the tree.
                        let dir = if rest == "analyze" { "analysis" } else { rest };
                        scope.insert(dir.to_string());
                    }
                }
            }
            scope
        })
        .collect();

    // Pass 2: call sites + resolution.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    let mut stats = CallStats::default();
    let mut unresolved_names: BTreeMap<String, usize> = BTreeMap::new();
    for (caller_id, f) in fns.iter().enumerate() {
        let file = &files[f.file_idx];
        let scope = &scopes[f.file_idx];
        let in_scope = |ids: &[usize]| -> Vec<usize> {
            ids.iter()
                .copied()
                .filter(|&id| scope.contains(&fns[id].krate))
                .collect()
        };
        for call in call_sites(file, f.body, &f.std_receivers, &attr_masks[f.file_idx]) {
            stats.sites += 1;
            // Candidates plus the confident classification for an empty
            // candidate set. Out-of-scope workspace definitions are
            // *impossible* targets — the crate graph is acyclic and the
            // caller's dependency cone is exactly its scope set — so an
            // empty set after scope filtering usually means "std", not
            // "unknown". `Unresolved` is reserved for genuine blind
            // spots: `Self::f` with no impl context, a module-qualified
            // call scoping rejected, a trait-qualified method the scope
            // cannot see.
            let (candidates, if_empty): (Vec<usize>, Resolution) = match &call {
                RawCall::Method { name, on_self } => {
                    let mut cands = Vec::new();
                    if *on_self {
                        if let Some(st) = &f.self_type {
                            cands = in_scope(
                                by_type_method
                                    .get(&(st.as_str(), name.as_str()))
                                    .map_or(&[][..], Vec::as_slice),
                            );
                        }
                    }
                    if cands.is_empty() {
                        cands = in_scope(
                            methods_by_name
                                .get(name.as_str())
                                .map_or(&[][..], Vec::as_slice),
                        );
                    }
                    // The fallback swallowed every in-scope possibility;
                    // an empty set is a std/primitive method.
                    (cands, Resolution::External)
                }
                RawCall::Qualified { qualifier, name } => {
                    if qualifier == "Self" && f.self_type.is_none() {
                        // `Self::f()` in a trait default body: the impl
                        // type is unknowable here. A blind spot when the
                        // workspace defines the name at all.
                        let blind = any_name.contains(name.as_str());
                        (
                            Vec::new(),
                            if blind {
                                Resolution::Unresolved
                            } else {
                                Resolution::External
                            },
                        )
                    } else {
                        let qual = if qualifier == "Self" {
                            f.self_type.clone().unwrap_or_default()
                        } else {
                            qualifier.clone()
                        };
                        if types_defined.contains(qual.as_str()) {
                            let cands = in_scope(
                                by_type_method
                                    .get(&(qual.as_str(), name.as_str()))
                                    .map_or(&[][..], Vec::as_slice),
                            );
                            // A workspace type: an empty candidate set is
                            // still a confident answer (derived or
                            // std-trait method).
                            (cands, Resolution::External)
                        } else {
                            // A module path (`lockorder::extract`)?
                            let module_fns: Vec<usize> = free_by_name
                                .get(name.as_str())
                                .map_or(&[][..], Vec::as_slice)
                                .iter()
                                .copied()
                                .filter(|&id| file_stem(&fns[id].file) == qual)
                                .collect();
                            if module_fns.is_empty() {
                                // `Vec::new`, `mem::swap`, `u64::from`.
                                (Vec::new(), Resolution::External)
                            } else {
                                // The module exists; scope rejecting all
                                // of it is a blind spot (re-exports).
                                (in_scope(&module_fns), Resolution::Unresolved)
                            }
                        }
                    }
                }
                RawCall::TraitQualified {
                    trait_name,
                    type_name,
                    name,
                } => {
                    let known = by_trait_method.contains_key(&(trait_name.as_str(), name.as_str()));
                    let all = in_scope(
                        by_trait_method
                            .get(&(trait_name.as_str(), name.as_str()))
                            .map_or(&[][..], Vec::as_slice),
                    );
                    let narrowed: Vec<usize> = match type_name {
                        Some(t) => {
                            let exact: Vec<usize> = all
                                .iter()
                                .copied()
                                .filter(|&id| fns[id].self_type.as_deref() == Some(t.as_str()))
                                .collect();
                            if exact.is_empty() {
                                all
                            } else {
                                exact
                            }
                        }
                        None => all,
                    };
                    // The trait implements the method somewhere but the
                    // scope hides every impl: blind spot. Never seen:
                    // a std trait (`<u32 as TryFrom>::try_from`).
                    (
                        narrowed,
                        if known {
                            Resolution::Unresolved
                        } else {
                            Resolution::External
                        },
                    )
                }
                RawCall::Bare { name } => {
                    let known = free_by_name.contains_key(name.as_str());
                    let all = free_by_name
                        .get(name.as_str())
                        .map_or(&[][..], Vec::as_slice);
                    let same_file: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&id| fns[id].file == f.file)
                        .collect();
                    let cands = if same_file.is_empty() {
                        let same_crate: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&id| fns[id].krate == f.krate)
                            .collect();
                        if same_crate.is_empty() {
                            in_scope(all)
                        } else {
                            same_crate
                        }
                    } else {
                        same_file
                    };
                    // The workspace defines this free fn but the caller
                    // cannot see it: usually an enum-variant/closure
                    // false positive, but a `use` re-export could hide a
                    // real call — count it against the rate.
                    (
                        cands,
                        if known {
                            Resolution::Unresolved
                        } else {
                            Resolution::External
                        },
                    )
                }
            };
            let resolution = if candidates.is_empty() {
                if_empty
            } else {
                Resolution::Bound
            };
            match resolution {
                Resolution::Bound => stats.bound += 1,
                Resolution::External => stats.external += 1,
                Resolution::Unresolved => {
                    stats.unresolved += 1;
                    let name = match &call {
                        RawCall::Method { name, .. }
                        | RawCall::Qualified { name, .. }
                        | RawCall::TraitQualified { name, .. }
                        | RawCall::Bare { name } => name.clone(),
                    };
                    *unresolved_names.entry(name).or_insert(0) += 1;
                }
            }
            edges[caller_id].extend(candidates);
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }

    // Pass 3: sinks.
    let sinks: Vec<Vec<Sink>> = fns
        .iter()
        .map(|f| scan_sinks(&files[f.file_idx], f.body, &attr_masks[f.file_idx]))
        .collect();

    CallGraph {
        fns,
        edges,
        sinks,
        stats,
        unresolved_names,
    }
}

/// Idents that, called with `::new`/`::with_capacity`/`::from`, create
/// a growable heap container.
const CONTAINER_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Scans one fn body for syntactic sinks.
fn scan_sinks(file: &SourceFile, body: (usize, usize), attrs: &[bool]) -> Vec<Sink> {
    let toks = &file.tokens;
    let has_sync_sender = toks.iter().any(|t| t.is_ident("SyncSender"));
    let mut out = Vec::new();
    for j in body.0..body.1 {
        if file.in_test[j] || attrs.get(j).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[j];
        let next_is = |off: usize, c: char| toks.get(j + off).is_some_and(|t| t.is_punct(c));
        let prev_is = |c: char| j > 0 && toks[j - 1].is_punct(c);

        if t.kind == TokenKind::Ident {
            let called = next_is(1, '(');
            let is_macro = next_is(1, '!');
            match t.text.as_str() {
                // --- panic sinks -------------------------------------
                "unwrap" | "expect"
                    if prev_is('.') && called && !checked_guard_before(toks, j - 1) =>
                {
                    out.push(Sink {
                        kind: SinkKind::Panic,
                        line: t.line,
                        what: format!(".{}()", t.text),
                    });
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if is_macro => {
                    out.push(Sink {
                        kind: SinkKind::Panic,
                        line: t.line,
                        what: format!("{}!", t.text),
                    });
                }
                // --- blocking sinks ----------------------------------
                "lock" | "recv" | "recv_timeout" | "join" | "wait" | "wait_timeout"
                    if prev_is('.') && called =>
                {
                    out.push(Sink {
                        kind: SinkKind::Block,
                        line: t.line,
                        what: format!(".{}()", t.text),
                    });
                }
                "send" if prev_is('.') && called && has_sync_sender => {
                    out.push(Sink {
                        kind: SinkKind::Block,
                        line: t.line,
                        what: ".send() on a bounded channel".to_string(),
                    });
                }
                "sleep" | "park_timeout" | "park" if called && !prev_is('.') => {
                    out.push(Sink {
                        kind: SinkKind::Block,
                        line: t.line,
                        what: format!("thread::{}()", t.text),
                    });
                }
                // --- allocation sinks --------------------------------
                "to_vec" | "to_owned" | "to_string" | "clone" if prev_is('.') && called => {
                    out.push(Sink {
                        kind: SinkKind::Alloc,
                        line: t.line,
                        what: format!(".{}()", t.text),
                    });
                }
                "format" | "vec" if is_macro => {
                    out.push(Sink {
                        kind: SinkKind::Alloc,
                        line: t.line,
                        what: format!("{}!", t.text),
                    });
                }
                "Box"
                    if next_is(1, ':')
                        && next_is(2, ':')
                        && toks.get(j + 3).is_some_and(|t| t.is_ident("new"))
                        && next_is(4, '(') =>
                {
                    out.push(Sink {
                        kind: SinkKind::Alloc,
                        line: t.line,
                        what: "Box::new()".to_string(),
                    });
                }
                name if CONTAINER_TYPES.contains(&name) && next_is(1, ':') && next_is(2, ':') => {
                    if let Some(m) = toks.get(j + 3) {
                        if (m.is_ident("new") || m.is_ident("with_capacity") || m.is_ident("from"))
                            && next_is(4, '(')
                        {
                            out.push(Sink {
                                kind: SinkKind::Alloc,
                                line: t.line,
                                what: format!("{name}::{}()", m.text),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        // Variable slice indexing: `expr[...]` where the bracket holds
        // anything beyond literals / `..` / SCREAMING consts.
        if t.is_punct('[') && j > 0 {
            let prev = &toks[j - 1];
            let indexable = prev.kind == TokenKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexable && !constant_index(toks, j) {
                out.push(Sink {
                    kind: SinkKind::Panic,
                    line: t.line,
                    what: "variable slice indexing".to_string(),
                });
            }
        }
    }
    out
}

/// True when the call chain feeding `.unwrap()`/`.expect()` at the `.`
/// index ends in a `checked_*` arithmetic call: the checked-guard idiom
/// (`a.checked_add(b).expect("overflow")`) is a machine-verified
/// overflow guard, not an unvalidated panic.
fn checked_guard_before(toks: &[Token], dot: usize) -> bool {
    if dot == 0 || !toks[dot - 1].is_punct(')') {
        return false;
    }
    // Find the matching `(` backward.
    let mut depth = 0usize;
    let mut k = dot - 1;
    loop {
        if toks[k].is_punct(')') {
            depth += 1;
        } else if toks[k].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
    k.checked_sub(1)
        .and_then(|i| toks.get(i))
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text.starts_with("checked_"))
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [a, b]`, `break [x]`, ...).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "as" | "else" | "match" | "let" | "mut" | "ref" | "move"
    )
}

/// True when the bracket span opening at `open` holds only numeric
/// literals, range dots, and SCREAMING_CASE constants — an index the
/// fixed layouts make statically safe (and the pinned golden-byte tests
/// check besides).
fn constant_index(toks: &[Token], open: usize) -> bool {
    let mut depth = 0usize;
    for t in toks.iter().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return true;
            }
        } else {
            match t.kind {
                TokenKind::Number => {}
                TokenKind::Ident => {
                    let screaming = !t.text.is_empty()
                        && t.text
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
                    if !screaming {
                        return false;
                    }
                }
                TokenKind::Punct('.')
                | TokenKind::Punct('+')
                | TokenKind::Punct('-')
                | TokenKind::Punct('=') => {}
                _ => return false,
            }
        }
    }
    // Unterminated bracket: be conservative, call it variable.
    false
}

/// Renders the graph in DOT format (for `--emit-call-graph`): one node
/// per function that participates in an edge, plus the sink counts.
#[must_use]
pub fn render_dot(graph: &CallGraph) -> String {
    let mut s = String::new();
    s.push_str("// Workspace call graph, extracted by rstp-analyze.\n");
    s.push_str(&format!(
        "// {} fns, {} call sites, {:.1}% resolved ({} bound, {} external, {} unresolved)\n",
        graph.fns.len(),
        graph.stats.sites,
        graph.stats.resolution_rate() * 100.0,
        graph.stats.bound,
        graph.stats.external,
        graph.stats.unresolved,
    ));
    s.push_str("digraph calls {\n");
    for (from, callees) in graph.edges.iter().enumerate() {
        for &to in callees {
            s.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                graph.fns[from].display(),
                graph.fns[to].display()
            ));
        }
    }
    for (id, sinks) in graph.sinks.iter().enumerate() {
        if !sinks.is_empty() {
            s.push_str(&format!(
                "  \"{}\" [sinks=\"{}\"];\n",
                graph.fns[id].display(),
                sinks.len()
            ));
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        let file = SourceFile::new("crates/serve/src/x.rs", src);
        build(std::slice::from_ref(&file))
    }

    #[test]
    fn free_fns_and_methods_are_indexed_with_context() {
        let g = graph_of(
            "fn free() {}\n\
             struct S;\n\
             impl S { fn m(&self) {} }\n\
             trait T { fn d(&self) { self.m2(); } }\n\
             impl T for S { fn t(&self) {} }",
        );
        let names: Vec<_> = g.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "m", "d", "t"]);
        assert_eq!(g.fns[1].self_type.as_deref(), Some("S"));
        assert_eq!(g.fns[2].trait_name.as_deref(), Some("T"));
        assert_eq!(g.fns[3].self_type.as_deref(), Some("S"));
        assert_eq!(g.fns[3].trait_name.as_deref(), Some("T"));
    }

    #[test]
    fn array_return_types_do_not_end_the_signature() {
        let g = graph_of(
            "struct C;\n\
             impl C { fn encode(&self, x: [u8; 2]) -> [u8; 4] { self.fill() } fn fill(&self) {} }\n\
             fn decl() -> [u8; 4];",
        );
        let encode = g.find("C", "encode")[0];
        assert_eq!(g.edges[encode], vec![g.find("C", "fill")[0]]);
        assert!(g.find_in_file("crates/serve/src/x.rs", "decl").is_empty());
    }

    #[test]
    fn self_calls_bind_to_the_impl_type() {
        let g = graph_of(
            "struct A; struct B;\n\
             impl A { fn go(&self) { self.helper(); } fn helper(&self) {} }\n\
             impl B { fn helper(&self) {} }",
        );
        let go = g.find("A", "go")[0];
        let a_helper = g.find("A", "helper")[0];
        assert_eq!(g.edges[go], vec![a_helper]);
    }

    #[test]
    fn method_fallback_is_all_impls_of_that_name() {
        let g = graph_of(
            "struct A; struct B;\n\
             fn go(x: &A) { x.helper(); }\n\
             impl A { fn helper(&self) {} }\n\
             impl B { fn helper(&self) {} }",
        );
        let go = g.find_in_file("crates/serve/src/x.rs", "go")[0];
        assert_eq!(g.edges[go].len(), 2, "both impls are candidates");
    }

    #[test]
    fn calls_on_a_std_container_parameter_are_std_calls() {
        let g = graph_of(
            "struct A;\n\
             impl A { fn push(&self, x: u8) {} }\n\
             fn fill(out: &mut Vec<u8>) { out.push(1); out.clear(); }\n\
             fn shadow(out: &mut Vec<u8>, a: Option<A>) {\n\
               if let Some(out) = a { out.push(1); }\n\
             }\n\
             fn nested(s: &S, out: &mut Vec<u8>) { s.out.push(1); }",
        );
        let push = g.find("A", "push")[0];
        let fill = g.find_in_file("crates/serve/src/x.rs", "fill")[0];
        assert!(g.edges[fill].is_empty(), "Vec::push, not A::push");
        // A body that rebinds the name, or a field of the same name,
        // keeps the all-impls fallback.
        let shadow = g.find_in_file("crates/serve/src/x.rs", "shadow")[0];
        assert_eq!(g.edges[shadow], vec![push]);
        let nested = g.find_in_file("crates/serve/src/x.rs", "nested")[0];
        assert_eq!(g.edges[nested], vec![push]);
    }

    #[test]
    fn qualified_calls_resolve_through_the_type_and_turbofish() {
        let g = graph_of(
            "struct W;\n\
             impl W { fn new() -> W { W } }\n\
             fn go() { let _ = W::new(); let _ = W::<u8>::new(); }",
        );
        let go = g.find_in_file("crates/serve/src/x.rs", "go")[0];
        let new = g.find("W", "new")[0];
        assert_eq!(g.edges[go], vec![new]);
        // Vec::new is external, not unresolved.
        let g = graph_of("fn go() { let v: Vec<u8> = Vec::new(); }");
        assert_eq!(g.stats.unresolved, 0);
    }

    #[test]
    fn fully_qualified_trait_calls_resolve() {
        let g = graph_of(
            "struct S;\n\
             trait Enc { fn enc(&self); }\n\
             impl Enc for S { fn enc(&self) {} }\n\
             fn go(s: &S) { <S as Enc>::enc(s); }",
        );
        let go = g.find_in_file("crates/serve/src/x.rs", "go")[0];
        let enc = g.find("Enc", "enc")[0];
        assert_eq!(g.edges[go], vec![enc]);
    }

    #[test]
    fn sinks_are_classified() {
        let g = graph_of(
            "fn f(v: &[u8], i: usize) {\n\
               v.get(i).unwrap();\n\
               let x = v[i];\n\
               let y = v[0];\n\
               let q = self.q.lock();\n\
               let b = v.to_vec();\n\
             }",
        );
        let sinks = &g.sinks[0];
        let panics = sinks.iter().filter(|s| s.kind == SinkKind::Panic).count();
        let blocks = sinks.iter().filter(|s| s.kind == SinkKind::Block).count();
        let allocs = sinks.iter().filter(|s| s.kind == SinkKind::Alloc).count();
        assert_eq!(panics, 2, "unwrap + v[i]; v[0] is constant: {sinks:?}");
        assert_eq!(blocks, 1);
        assert_eq!(allocs, 1);
    }

    #[test]
    fn checked_guard_expect_is_exempt() {
        let g = graph_of(
            "fn f(a: u64, b: u64) -> u64 { a.checked_add(b).expect(\"overflow\") }\n\
             fn g(a: u64) -> u64 { a.checked_mul(2).unwrap() }\n\
             fn h(o: Option<u64>) -> u64 { o.expect(\"no\") }",
        );
        assert!(g.sinks[0].is_empty(), "{:?}", g.sinks[0]);
        assert!(g.sinks[1].is_empty(), "{:?}", g.sinks[1]);
        assert_eq!(g.sinks[2].len(), 1);
    }

    #[test]
    fn screaming_const_indexing_is_not_a_sink() {
        let g = graph_of(
            "fn f(v: &[u8]) { let a = v[HEADER_LEN]; let b = v[..FRAME_LEN_V2]; let c = v[4..8]; }",
        );
        assert!(g.sinks[0].is_empty(), "{:?}", g.sinks[0]);
    }

    #[test]
    fn attributes_and_macros_are_not_calls() {
        let g = graph_of(
            "#[derive(Clone)]\nstruct S;\n#[cfg(feature = \"x\")]\nfn gated() {}\n\
             fn f() { println!(\"hi {}\", 1); }",
        );
        // `derive`, `cfg`, `println` never become call sites; println's
        // args are scanned but contain no calls.
        assert!(g.stats.sites == 0, "{:?}", g.stats);
    }

    #[test]
    fn scope_limits_cross_crate_resolution() {
        let a = SourceFile::new(
            "crates/net/src/a.rs",
            "pub fn shared() {} pub struct N; impl N { pub fn m(&self) {} }",
        );
        // serve/b.rs names rstp_net, so net is in scope.
        let b = SourceFile::new(
            "crates/serve/src/b.rs",
            "use rstp_net::N;\nfn go(n: &N) { n.m(); }",
        );
        // cli/c.rs does not name rstp_net: the method call cannot bind.
        let c = SourceFile::new("crates/cli/src/c.rs", "fn go2(n: &X) { n.m(); }");
        let g = build(&[a, b, c]);
        let go = g.find_in_file("crates/serve/src/b.rs", "go")[0];
        let m = g.find("N", "m")[0];
        assert_eq!(g.edges[go], vec![m]);
        let go2 = g.find_in_file("crates/cli/src/c.rs", "go2")[0];
        assert!(g.edges[go2].is_empty());
    }
}
