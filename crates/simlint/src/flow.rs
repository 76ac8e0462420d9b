//! Stage-2 **flow pass**: a cross-crate, call-graph-aware analysis layer
//! on top of the per-line token rules in `lib.rs`.
//!
//! The stage-1 rules see one line at a time, so they cannot answer the
//! questions that guard the degraded-mode scenarios: *can a panic fire
//! in the middle of a degraded-mode run?  Can a terminal error be
//! laundered into a retry loop?*  This module builds a lightweight item
//! index (functions, impl blocks, structs, enum variants) from the
//! [`crate::lex`] token stream, links functions into a **name-based call
//! graph**, and runs two flow analyses over it:
//!
//! * **`panic-path`** — `unwrap`/`expect`/slice indexing in any function
//!   reachable from a panic root (fault handlers, `rebuild`, the retry
//!   executor and its callers) is an error: a panic mid-degraded-mode
//!   aborts the bandwidth-under-failure scenarios.
//! * **`retry-taxonomy`** — a terminal error variant (registered with
//!   `terminal_error`) must never be classified or remapped as
//!   retriable: retrying after data loss can never succeed.
//!
//! Replay determinism itself is not a lint here: the replay tests
//! (`determinism_replay`, `span_determinism`) run every scenario twice
//! and compare digests.
//!
//! The index built here is shared by the stage-3 cost pass
//! ([`crate::cost`]): its body facts are extracted in the same parse.
//!
//! # Registration markers
//!
//! The analyses are registration-driven: ordinary `//` comments on (or
//! directly above) a declaration register it with the pass:
//!
//! ```text
//! // simlint::sim_state — replay-visible pool/target state
//! pub struct DaosSystem { … }
//!
//! // simlint::panic_root — fault handler: must never panic
//! pub fn crash_target(&mut self, t: TargetId) { … }
//!
//! // simlint::retry_entry — closure executor: callers become panic roots
//! pub fn run<T, E: Retriable>(…) { … }
//!
//! pub enum DaosError {
//!     // simlint::terminal_error — data loss, retries can never succeed
//!     Unavailable,
//! }
//! ```
//!
//! `sim_state` is read by the stage-3 `hot-state-scan` analysis.
//!
//! # Approximations (deliberate)
//!
//! The pass is std-only and name-based, not type-checked.  Call edges
//! connect a call site to **every** workspace function with the same
//! name (an explicit `Type::name` qualifier narrows the match); there is
//! no trait resolution, no closure tracking (a closure's calls are
//! attributed to the enclosing function, which is why `retry_entry`
//! promotes callers to roots), and nested items inside function bodies
//! are not indexed.  This over-approximates reachability — the safe
//! direction for `panic-path` and `retry-taxonomy`.  Findings are
//! suppressed with the same `simlint::allow(rule) — reason` directives
//! as stage 1.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use crate::lex::{lex, Tok, TokKind};
use crate::{allow_covers, classify, collect_rs_files, parse_allow, Allow, Finding, Severity};

/// Registration markers understood by the pass (`simlint::<marker>`).
/// `hot_root` and `amortized` belong to the stage-3 cost pass
/// ([`crate::cost`]), which shares this index.
pub const MARKERS: &[&str] = &[
    "sim_state",
    "panic_root",
    "retry_entry",
    "terminal_error",
    "hot_root",
    "amortized",
];

/// Identifier treated as the retriable classification in remap checks.
const RETRIABLE_TOKEN: &str = "Retriable";

/// Descriptor for a flow rule (stage 2 has no per-line predicate, so it
/// does not reuse [`crate::Rule`]).
pub struct FlowRule {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The stage-2 rule registry.
pub fn flow_rules() -> &'static [FlowRule] {
    &[
        FlowRule {
            id: "panic-path",
            severity: Severity::Error,
            summary: "unwrap/expect/indexing reachable from fault handlers, rebuild or the retry executor aborts degraded-mode runs",
        },
        FlowRule {
            id: "retry-taxonomy",
            severity: Severity::Error,
            summary: "terminal error variants must never be classified or remapped as retriable",
        },
    ]
}

// ---------------------------------------------------------------------------
// Index model
// ---------------------------------------------------------------------------

/// Everything the flow analyses need to know about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Bare function name.
    pub name: String,
    /// `Type::name` inside an impl/trait block, else the bare name.
    pub qual: String,
    /// The impl/trait self type, when inside one.
    pub impl_type: Option<String>,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Registration markers attached to this function.
    pub markers: BTreeSet<String>,
    /// Call sites: `(qualifier_or_empty, callee_name)`.
    pub calls: Vec<(String, String)>,
    /// Panic sites: `(line, "unwrap" | "expect" | "index")`.
    pub panics: Vec<(u32, String)>,
    /// Mentions of registered terminal variants: `(variant, line)`.
    pub terminal_mentions: Vec<(String, u32)>,
    /// Lines of `map_err(…)` whose arguments contain the retriable token.
    pub maperr_retriable: Vec<u32>,
    /// Match arms remapping a terminal variant to retriable: `(variant, line)`.
    pub arm_remaps: Vec<(String, u32)>,
    /// Allocation sites for the stage-3 cost pass: `(line, kind)` where
    /// kind is e.g. `"Vec::new"`, `"vec!"`, `".clone()"`.
    pub allocs: Vec<(u32, String)>,
    /// Map accesses for the double-lookup analysis:
    /// `(receiver, key, method, line)` — e.g. `("self.caps", "t", "get", 42)`.
    pub map_ops: Vec<(String, String, String, u32)>,
    /// Full scans over fields of a registered sim-state type, recorded
    /// only for methods of such types: `(line, rendered expression)`.
    pub state_loops: Vec<(u32, String)>,
}

/// The parsed item index for the workspace, shared by the flow and cost
/// passes.
#[derive(Debug, Clone)]
pub struct Index {
    /// Types registered with `sim_state`.
    pub sim_state: BTreeSet<String>,
    /// Enum variants registered with `terminal_error`, as `Enum::Variant`.
    pub terminals: BTreeSet<String>,
    /// All indexed functions, in deterministic (file, line) order.
    pub fns: Vec<FnFact>,
}

// ---------------------------------------------------------------------------
// Source collection
// ---------------------------------------------------------------------------

/// Read every `.rs` file under `root` that the flow pass analyses:
/// library code of simulation crates (tooling crates and
/// tests/benches/examples are out of scope, exactly like stage 1's
/// sim-scoped rules).  Keys are workspace-relative paths.
pub fn read_sources(root: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut out = BTreeMap::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = classify(&rel);
        if !ctx.sim_crate || !ctx.lib_code {
            continue;
        }
        out.insert(rel, std::fs::read_to_string(&path)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Marker scanning
// ---------------------------------------------------------------------------

/// Markers found per 1-based line (inside `//` comments only).
fn scan_markers(lines: &[&str]) -> BTreeMap<usize, Vec<String>> {
    let mut out: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, raw) in lines.iter().enumerate() {
        let Some(pos) = raw.find("//") else { continue };
        let comment = &raw[pos..];
        for marker in MARKERS {
            let needle = format!("simlint::{marker}");
            if let Some(mpos) = comment.find(&needle) {
                // Word boundary after, so `sim_state` never matches a
                // longer marker name by prefix.
                let after = comment[mpos + needle.len()..].chars().next();
                if !matches!(after, Some(c) if c.is_alphanumeric() || c == '_') {
                    out.entry(i + 1).or_default().push(marker.to_string());
                }
            }
        }
    }
    out
}

/// Markers attached to a declaration at `line` (1-based): same-line
/// trailing comment, or any comment/attribute line directly above.
fn markers_for(
    line: usize,
    lines: &[&str],
    marks: &BTreeMap<usize, Vec<String>>,
) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = marks.get(&line).into_iter().flatten().cloned().collect();
    let mut l = line;
    while l > 1 {
        l -= 1;
        let t = lines[l - 1].trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") {
            out.extend(marks.get(&l).into_iter().flatten().cloned());
        } else {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Item parsing
// ---------------------------------------------------------------------------

/// A function before body analysis: signature facts plus its body's token
/// range within the file's stream.
struct RawFn {
    name: String,
    qual: String,
    impl_type: Option<String>,
    line: u32,
    markers: BTreeSet<String>,
    /// Token range of the body, outer braces excluded.
    body: std::ops::Range<usize>,
}

/// A parsed struct declaration.
struct StructP {
    name: String,
    markers: BTreeSet<String>,
}

struct FileParse {
    toks: Vec<Tok>,
    fns: Vec<RawFn>,
    structs: Vec<StructP>,
    /// `(Enum::Variant, markers)` per enum variant.
    variants: Vec<(String, BTreeSet<String>)>,
}

pub(crate) const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "unsafe", "else", "in", "as",
    "let", "mut", "ref", "where", "impl", "dyn",
];

fn parse_file(source: &str) -> FileParse {
    let lines: Vec<&str> = source.lines().collect();
    let marks = scan_markers(&lines);
    let toks = lex(source);
    let mut fns = Vec::new();
    let mut structs = Vec::new();
    let mut variants = Vec::new();

    let mut p = 0usize;
    let mut depth = 0usize;
    // (self type, depth at which the impl/trait block opened)
    let mut impl_stack: Vec<(String, usize)> = Vec::new();

    while p < toks.len() {
        let t = &toks[p];
        if t.is_punct("{") {
            depth += 1;
            p += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                impl_stack.pop();
            }
            p += 1;
        } else if t.is_punct("#") {
            let (end, test_gated) = parse_attribute(&toks, p);
            p = end;
            if test_gated {
                // Skip trailing attributes, then the gated item itself.
                while p < toks.len() && toks[p].is_punct("#") {
                    let (e, _) = parse_attribute(&toks, p);
                    p = e;
                }
                p = skip_item(&toks, p);
            }
        } else if t.is_ident("impl") || t.is_ident("trait") {
            let is_trait = t.is_ident("trait");
            let (self_ty, body_open) = parse_impl_header(&toks, p + 1, is_trait);
            impl_stack.push((self_ty, depth));
            p = body_open; // the `{` (or stream end); main loop opens it
        } else if t.is_ident("struct") {
            if let Some(name_tok) = toks.get(p + 1).filter(|t| t.kind == TokKind::Ident) {
                structs.push(StructP {
                    name: name_tok.text.clone(),
                    markers: markers_for(name_tok.line as usize, &lines, &marks),
                });
                p = skip_item(&toks, p + 2);
            } else {
                p += 1;
            }
        } else if t.is_ident("enum") {
            if let Some(name_tok) = toks.get(p + 1).filter(|t| t.kind == TokKind::Ident) {
                let ename = name_tok.text.clone();
                let (vars, end) = parse_enum_variants(&toks, p + 2, &lines, &marks);
                for (vname, vmarks) in vars {
                    variants.push((format!("{ename}::{vname}"), vmarks));
                }
                p = end;
            } else {
                p += 1;
            }
        } else if t.is_ident("fn") {
            match parse_fn(&toks, p, &lines, &marks, impl_stack.last().map(|(n, _)| n)) {
                Some((raw, end)) => {
                    fns.push(raw);
                    p = end;
                }
                None => p += 1,
            }
        } else {
            p += 1;
        }
    }

    FileParse {
        toks,
        fns,
        structs,
        variants,
    }
}

/// Consume an attribute starting at the `#` token; returns the index past
/// it and whether it is `cfg`-test-gated.
fn parse_attribute(toks: &[Tok], p: usize) -> (usize, bool) {
    let mut q = p + 1;
    if toks.get(q).is_some_and(|t| t.is_punct("!")) {
        q += 1;
    }
    if !toks.get(q).is_some_and(|t| t.is_punct("[")) {
        return (p + 1, false);
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while q < toks.len() {
        let t = &toks[q];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (q + 1, saw_cfg && saw_test);
            }
        } else if t.is_ident("cfg") {
            saw_cfg = true;
        } else if t.is_ident("test") {
            saw_test = true;
        }
        q += 1;
    }
    (q, false)
}

/// Skip one item: to the matching `}` of its first brace, or to a `;`
/// reached before any brace opens.
fn skip_item(toks: &[Tok], mut p: usize) -> usize {
    let mut depth = 0usize;
    let mut opened = false;
    while p < toks.len() {
        let t = &toks[p];
        if t.is_punct("{") {
            depth += 1;
            opened = true;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if opened && depth == 0 {
                return p + 1;
            }
        } else if t.is_punct(";") && !opened {
            return p + 1;
        }
        p += 1;
    }
    p
}

/// Parse an `impl`/`trait` header starting after the keyword; returns the
/// self-type name (last path segment, generics stripped) and the index of
/// the opening `{`.
fn parse_impl_header(toks: &[Tok], mut p: usize, _is_trait: bool) -> (String, usize) {
    // Leading generic parameters: `impl<T: Foo<U>> …`.
    if toks.get(p).is_some_and(|t| t.is_punct("<")) {
        p = skip_angle_brackets(toks, p);
    }
    let (mut name, mut q) = parse_type_path(toks, p);
    if toks.get(q).is_some_and(|t| t.is_ident("for")) {
        let (n2, q2) = parse_type_path(toks, q + 1);
        name = n2;
        q = q2;
    }
    // Skip where clauses etc. up to the block open.
    while q < toks.len() && !toks[q].is_punct("{") {
        q += 1;
    }
    (name, q)
}

/// Parse a type path like `crate::fmt::Display<'a, T>`; returns the last
/// plain segment and the index past the path (generics skipped).
fn parse_type_path(toks: &[Tok], mut p: usize) -> (String, usize) {
    let mut last = String::new();
    loop {
        match toks.get(p) {
            Some(t) if t.kind == TokKind::Ident => {
                last = t.text.clone();
                p += 1;
                if toks.get(p).is_some_and(|t| t.is_punct("::")) {
                    p += 1;
                    continue;
                }
                if toks.get(p).is_some_and(|t| t.is_punct("<")) {
                    p = skip_angle_brackets(toks, p);
                }
                break;
            }
            Some(t) if t.is_punct("&") || t.is_punct("(") => {
                // `impl Trait for &T` / tuple impls: tolerated, unnamed.
                p += 1;
            }
            _ => break,
        }
    }
    (last, p)
}

/// Skip a balanced `<…>` region starting at `<`.
pub(crate) fn skip_angle_brackets(toks: &[Tok], mut p: usize) -> usize {
    let mut depth = 0isize;
    while p < toks.len() {
        let t = &toks[p];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth <= 0 {
                return p + 1;
            }
        } else if t.is_punct("->") && depth == 0 {
            return p;
        }
        p += 1;
    }
    p
}

/// Parse a `fn` item starting at the `fn` keyword.  Returns the raw
/// record and the index past the body (or past the `;` for a bodyless
/// trait method, in which case no record is produced).
fn parse_fn(
    toks: &[Tok],
    p: usize,
    lines: &[&str],
    marks: &BTreeMap<usize, Vec<String>>,
    impl_type: Option<&String>,
) -> Option<(RawFn, usize)> {
    let name_tok = toks.get(p + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(…)` pointer type, not an item
    }
    let name = name_tok.text.clone();
    let line = toks[p].line;
    let mut q = p + 2;
    if toks.get(q).is_some_and(|t| t.is_punct("<")) {
        q = skip_angle_brackets(toks, q);
    }
    if !toks.get(q).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    // Skip the parameter list.
    let mut depth = 0usize;
    while q < toks.len() {
        let t = &toks[q];
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                q += 1;
                break;
            }
        }
        q += 1;
    }
    // Return type / where clause up to the body or `;`.  `;` inside
    // brackets (`-> [u8; 4]`) does not terminate the signature.
    let mut nested = 0usize;
    while q < toks.len() {
        let t = &toks[q];
        if t.is_punct("[") || t.is_punct("(") {
            nested += 1;
        } else if t.is_punct("]") || t.is_punct(")") {
            nested = nested.saturating_sub(1);
        } else if nested == 0 && (t.is_punct("{") || t.is_punct(";")) {
            break;
        }
        q += 1;
    }
    if !toks.get(q).is_some_and(|t| t.is_punct("{")) {
        return None; // bodyless trait method declaration
    }
    // Body: balanced braces from here.
    let body_start = q + 1;
    let mut bdepth = 0usize;
    while q < toks.len() {
        if toks[q].is_punct("{") {
            bdepth += 1;
        } else if toks[q].is_punct("}") {
            bdepth -= 1;
            if bdepth == 0 {
                break;
            }
        }
        q += 1;
    }
    let body_end = q.min(toks.len());
    let qual = match impl_type {
        Some(t) if !t.is_empty() => format!("{t}::{name}"),
        _ => name.clone(),
    };
    Some((
        RawFn {
            name,
            qual,
            impl_type: impl_type.filter(|t| !t.is_empty()).cloned(),
            line,
            markers: markers_for(line as usize, lines, marks),
            body: body_start..body_end,
        },
        (q + 1).min(toks.len()),
    ))
}

/// Parse enum variants starting at (or just before) the enum's `{`;
/// returns `(variant name, markers)` pairs and the index past the body.
fn parse_enum_variants(
    toks: &[Tok],
    mut p: usize,
    lines: &[&str],
    marks: &BTreeMap<usize, Vec<String>>,
) -> (Vec<(String, BTreeSet<String>)>, usize) {
    let mut out = Vec::new();
    // Skip generics / where clause up to `{` (a `;`-terminated forward
    // declaration would be invalid Rust; bail out at `;` defensively).
    while p < toks.len() && !toks[p].is_punct("{") {
        if toks[p].is_punct(";") {
            return (out, p + 1);
        }
        p += 1;
    }
    if p >= toks.len() {
        return (out, p);
    }
    p += 1; // past `{`
    let mut depth = 1usize;
    let mut expect_variant = true;
    while p < toks.len() && depth > 0 {
        let t = &toks[p];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 1 {
            if t.is_punct(",") {
                expect_variant = true;
            } else if expect_variant && t.kind == TokKind::Ident {
                let m = markers_for(t.line as usize, lines, marks);
                out.push((t.text.clone(), m));
                expect_variant = false;
            }
        }
        p += 1;
    }
    (out, p)
}

// ---------------------------------------------------------------------------
// Body analysis
// ---------------------------------------------------------------------------

fn analyze_body(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    impl_type: Option<&str>,
    terminals: &BTreeSet<String>,
    fact: &mut FnFact,
) {
    let get = |i: usize| toks.get(i).filter(|_| body.contains(&i));
    // Token ranges covered by `matches!(…)` arguments: a terminal variant
    // named in a `matches!` pattern counts as classifying it (there is no
    // `=>` arrow to scan past in that form).
    let mut matches_ranges: Vec<std::ops::Range<usize>> = Vec::new();
    for i in body.clone() {
        if toks[i].is_ident("matches")
            && get(i + 1).is_some_and(|t| t.is_punct("!"))
            && get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            let mut depth = 0isize;
            let mut j = i + 2;
            while let Some(t) = get(j) {
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            matches_ranges.push(i + 3..j);
        }
    }
    for i in body.clone() {
        let t = &toks[i];
        let prev = i.checked_sub(1).and_then(get);
        let prev2 = i.checked_sub(2).and_then(get);
        let next = get(i + 1);

        // Call sites: `name(` — macros (`name!(`) fall out naturally
        // because the token after the name is `!`.
        if t.kind == TokKind::Ident
            && next.is_some_and(|n| n.is_punct("("))
            && !CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let qualifier = match (prev, prev2) {
                (Some(c), Some(q)) if c.is_punct("::") && q.kind == TokKind::Ident => {
                    if q.text == "Self" {
                        impl_type.unwrap_or("").to_string()
                    } else {
                        q.text.clone()
                    }
                }
                _ => String::new(),
            };
            // `.unwrap()` / `.expect(` are panic sites, not calls —
            // they are recorded below and never resolve to workspace
            // functions anyway, so keeping them out reduces noise.
            let is_panic_method = prev.is_some_and(|p| p.is_punct("."))
                && matches!(t.text.as_str(), "unwrap" | "expect");
            if !is_panic_method {
                fact.calls.push((qualifier, t.text.clone()));
            }
        }

        // Panic sites: `.unwrap()`, `.expect(`, and index expressions.
        if prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("(")) {
            if t.is_ident("unwrap") {
                fact.panics.push((t.line, "unwrap".to_string()));
            } else if t.is_ident("expect") {
                fact.panics.push((t.line, "expect".to_string()));
            }
        }
        if t.is_punct("[") {
            // Postfix position: `expr[` — an identifier, call or index
            // result directly before the bracket.  Attributes (`#[`),
            // macro brackets (`vec![`), types and slice patterns all have
            // different predecessors and are not flagged.
            let postfix = prev.is_some_and(|p| {
                (p.kind == TokKind::Ident && !CALL_KEYWORDS.contains(&p.text.as_str()))
                    || p.is_punct(")")
                    || p.is_punct("]")
            });
            if postfix {
                fact.panics.push((t.line, "index".to_string()));
            }
        }

        // Terminal variant mentions (`Enum::Variant` two-segment tails).
        if t.kind == TokKind::Ident
            && prev.is_some_and(|p| p.is_punct("::"))
            && prev2.is_some_and(|q| q.kind == TokKind::Ident)
        {
            let pair = format!(
                "{}::{}",
                prev2.map(|q| q.text.as_str()).unwrap_or(""),
                t.text
            );
            if terminals.contains(&pair) {
                // Inside an `is_retriable` classifier only an arm
                // answering `true` (or a `matches!` pattern, which always
                // answers `true`) misclassifies; a correct `=> false` arm
                // may name the variant and stays silent.
                let record = if fact.name == "is_retriable" {
                    arm_maps_to(toks, &body, i, "true").is_some()
                        || matches_ranges.iter().any(|r| r.contains(&i))
                } else {
                    true
                };
                if record {
                    fact.terminal_mentions.push((pair.clone(), t.line));
                    // Arm remap: scan forward for `=> … Retriable` before
                    // the arm ends (a `,` at this nesting level or the
                    // block close).
                    if let Some(line) = arm_maps_to(toks, &body, i, RETRIABLE_TOKEN) {
                        fact.arm_remaps.push((pair, line));
                    }
                }
            }
        }

        // `map_err(… Retriable …)`.
        if t.is_ident("map_err") && next.is_some_and(|n| n.is_punct("(")) {
            let mut depth = 0isize;
            let mut j = i + 1;
            while let Some(tok) = get(j) {
                if tok.is_punct("(") {
                    depth += 1;
                } else if tok.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tok.is_ident(RETRIABLE_TOKEN) {
                    fact.maperr_retriable.push(t.line);
                    break;
                }
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stage-3 fact extraction (cost pass)
// ---------------------------------------------------------------------------

/// Map-like methods recorded for the double-lookup analysis.
const MAP_METHODS: &[&str] = &["get", "get_mut", "contains_key", "insert", "remove"];

/// Iterator-producing methods that visit every entry of a collection.
const SCAN_METHODS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

/// Record the facts the stage-3 cost pass ([`crate::cost`]) reads:
/// allocation sites, map accesses and full scans over fields of a
/// registered sim-state type.  Runs over the same token range as
/// [`analyze_body`], in the same parse.
fn analyze_cost_facts(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    impl_is_sim_state: bool,
    fact: &mut FnFact,
) {
    let get = |i: usize| toks.get(i).filter(|_| body.contains(&i));
    for i in body.clone() {
        let t = &toks[i];
        let prev = i.checked_sub(1).and_then(get);
        let prev2 = i.checked_sub(2).and_then(get);
        let next = get(i + 1);

        // ---- allocation sites --------------------------------------------
        if t.kind == TokKind::Ident && next.is_some_and(|n| n.is_punct("(")) {
            let after_dot = prev.is_some_and(|p| p.is_punct("."));
            let path_qual = prev
                .is_some_and(|p| p.is_punct("::"))
                .then(|| prev2.map(|q| q.text.as_str()))
                .flatten();
            let kind = match t.text.as_str() {
                "new" if path_qual == Some("Vec") => Some("Vec::new"),
                "new" if path_qual == Some("Box") => Some("Box::new"),
                "from" if path_qual == Some("String") => Some("String::from"),
                "clone" if after_dot => Some(".clone()"),
                "to_vec" if after_dot => Some(".to_vec()"),
                "collect" if after_dot => Some(".collect()"),
                _ => None,
            };
            if let Some(k) = kind {
                fact.allocs.push((t.line, k.to_string()));
            }
        }
        if t.kind == TokKind::Ident
            && next.is_some_and(|n| n.is_punct("!"))
            && matches!(t.text.as_str(), "vec" | "format")
        {
            fact.allocs.push((t.line, format!("{}!", t.text)));
        }

        // ---- map accesses (double-lookup facts) --------------------------
        if t.kind == TokKind::Ident
            && MAP_METHODS.contains(&t.text.as_str())
            && prev.is_some_and(|p| p.is_punct("."))
            && next.is_some_and(|n| n.is_punct("("))
        {
            if let (Some(recv), Some(key)) = (
                receiver_chain(toks, &body, i - 1),
                first_arg(toks, &body, i + 1),
            ) {
                fact.map_ops.push((recv, key, t.text.clone(), t.line));
            }
        }

        // ---- full scans over sim-state fields ----------------------------
        if impl_is_sim_state {
            // `self.<field>.<scan_method>(…)` — explicit iterator call.
            if t.kind == TokKind::Ident
                && SCAN_METHODS.contains(&t.text.as_str())
                && prev.is_some_and(|p| p.is_punct("."))
                && next.is_some_and(|n| n.is_punct("("))
            {
                let field = i.checked_sub(2).and_then(get);
                let dot = i.checked_sub(3).and_then(get);
                let slf = i.checked_sub(4).and_then(get);
                if let Some(f2) = field.filter(|t| t.kind == TokKind::Ident) {
                    if dot.is_some_and(|d| d.is_punct("."))
                        && slf.is_some_and(|s| s.is_ident("self"))
                    {
                        fact.state_loops
                            .push((t.line, format!("self.{}.{}()", f2.text, t.text)));
                    }
                }
            }
            // `for … in &[mut] self.<field> {` — implicit IntoIterator.
            if t.is_ident("in") {
                let mut j = i + 1;
                while get(j).is_some_and(|t| t.is_punct("&") || t.is_ident("mut")) {
                    j += 1;
                }
                if get(j).is_some_and(|t| t.is_ident("self"))
                    && get(j + 1).is_some_and(|t| t.is_punct("."))
                {
                    if let Some(field) = get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                        if get(j + 3).is_some_and(|t| t.is_punct("{")) {
                            fact.state_loops
                                .push((field.line, format!("for … in &self.{}", field.text)));
                        }
                    }
                }
            }
        }
    }
}

/// Walk a `a.b.c` receiver chain back from the `.` before a method call.
/// Returns `None` for computed receivers (`f().get(…)`, `m[i].get(…)`),
/// which cannot be compared across call sites by name.
fn receiver_chain(toks: &[Tok], body: &std::ops::Range<usize>, dot: usize) -> Option<String> {
    let get = |i: usize| toks.get(i).filter(|_| body.contains(&i));
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot; // points at the `.`
    loop {
        let seg = i.checked_sub(1).and_then(get)?;
        if seg.kind != TokKind::Ident {
            return None;
        }
        parts.push(seg.text.clone());
        match i.checked_sub(2).and_then(get) {
            Some(p) if p.is_punct(".") => i -= 2,
            _ => break,
        }
    }
    parts.reverse();
    Some(parts.join("."))
}

/// Render the first argument of a call whose `(` is at `open`, with
/// `&`/`mut`/`*` stripped so `get(&k)` and `insert(k, v)` compare equal.
fn first_arg(toks: &[Tok], body: &std::ops::Range<usize>, open: usize) -> Option<String> {
    let get = |i: usize| toks.get(i).filter(|_| body.contains(&i));
    let mut depth = 0isize;
    let mut out = String::new();
    let mut i = open;
    loop {
        let t = get(i)?;
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
            if depth > 1 {
                out.push_str(&t.text);
            }
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
            out.push_str(&t.text);
        } else if depth == 1 && t.is_punct(",") {
            break;
        } else if depth >= 1 && !(t.is_punct("&") || t.is_punct("*") || t.is_ident("mut")) {
            out.push_str(&t.text);
        }
        i += 1;
    }
    (!out.is_empty()).then_some(out)
}

/// From a terminal-variant mention at `i`, detect `… => … target`
/// before the enclosing match arm ends (`target` is `Retriable` for the
/// remap check, `true` for `is_retriable` classifiers).  Returns the
/// target token's line.  Bounded scan; nesting below the arm (calls,
/// blocks) is stepped over.
fn arm_maps_to(toks: &[Tok], body: &std::ops::Range<usize>, i: usize, target: &str) -> Option<u32> {
    let mut depth = 0isize;
    let mut seen_arrow = false;
    for t in toks[..(i + 200).min(body.end)].iter().skip(i + 1) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return None; // left the arm's nesting level
            }
        } else if t.is_punct("=>") && depth == 0 {
            seen_arrow = true;
        } else if t.is_punct(",") && depth == 0 && seen_arrow {
            return None; // arm ended without the target token
        } else if seen_arrow && t.is_ident(target) {
            return Some(t.line);
        } else if !seen_arrow && t.is_punct("|") {
            // Or-pattern continues; keep scanning toward the arrow.
        } else if !seen_arrow && t.is_punct(",") && depth == 0 {
            return None; // list/tuple position, not a match pattern
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Index construction
// ---------------------------------------------------------------------------

/// Build the item index from already-read sources (path → content).
pub fn build_index(sources: &BTreeMap<String, String>) -> Index {
    let parses: Vec<(&String, FileParse)> = sources
        .iter()
        .map(|(path, src)| (path, parse_file(src)))
        .collect();

    let mut sim_state = BTreeSet::new();
    let mut terminals = BTreeSet::new();
    for (_, fp) in &parses {
        for sp in &fp.structs {
            if sp.markers.contains("sim_state") {
                sim_state.insert(sp.name.clone());
            }
        }
        for (qual, marks) in &fp.variants {
            if marks.contains("terminal_error") {
                terminals.insert(qual.clone());
            }
        }
    }

    let mut fns = Vec::new();
    for (path, fp) in &parses {
        for raw in &fp.fns {
            let mut fact = FnFact {
                name: raw.name.clone(),
                qual: raw.qual.clone(),
                impl_type: raw.impl_type.clone(),
                file: (*path).clone(),
                line: raw.line,
                markers: raw.markers.clone(),
                calls: Vec::new(),
                panics: Vec::new(),
                terminal_mentions: Vec::new(),
                maperr_retriable: Vec::new(),
                arm_remaps: Vec::new(),
                allocs: Vec::new(),
                map_ops: Vec::new(),
                state_loops: Vec::new(),
            };
            analyze_body(
                &fp.toks,
                raw.body.clone(),
                raw.impl_type.as_deref(),
                &terminals,
                &mut fact,
            );
            analyze_cost_facts(
                &fp.toks,
                raw.body.clone(),
                raw.impl_type
                    .as_deref()
                    .is_some_and(|t| sim_state.contains(t)),
                &mut fact,
            );
            fns.push(fact);
        }
    }

    Index {
        sim_state,
        terminals,
        fns,
    }
}

// ---------------------------------------------------------------------------
// Call graph + analyses
// ---------------------------------------------------------------------------

pub(crate) struct Graph {
    /// Forward adjacency: caller index → callee indices.
    pub(crate) out: Vec<Vec<usize>>,
    /// Reverse adjacency: callee index → caller indices.
    pub(crate) into: Vec<Vec<usize>>,
}

pub(crate) fn build_graph(index: &Index) -> Graph {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in index.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
        by_qual.entry(f.qual.as_str()).or_default().push(i);
    }
    let mut out = vec![Vec::new(); index.fns.len()];
    let mut into = vec![Vec::new(); index.fns.len()];
    for (i, f) in index.fns.iter().enumerate() {
        let mut targets: BTreeSet<usize> = BTreeSet::new();
        for (qualifier, name) in &f.calls {
            if !qualifier.is_empty() {
                let key = format!("{qualifier}::{name}");
                if let Some(ids) = by_qual.get(key.as_str()) {
                    targets.extend(ids.iter().copied());
                    continue;
                }
                // A CamelCase qualifier names a type; if no workspace impl
                // matches, the call targets foreign code (`Vec::new`) and
                // must not fan out to every same-named workspace fn.  A
                // lowercase qualifier is a module path (`retry::run`), where
                // the bare-name fallback is the right approximation.
                if qualifier.chars().next().is_some_and(|c| c.is_uppercase()) {
                    continue;
                }
            }
            if let Some(ids) = by_name.get(name.as_str()) {
                targets.extend(ids.iter().copied());
            }
        }
        for t in targets {
            out[i].push(t);
            into[t].push(i);
        }
    }
    Graph { out, into }
}

/// BFS over an adjacency list from a seed set; returns, per node, the
/// seed it was first reached from (`usize::MAX` = unreached).
pub(crate) fn reach(adj: &[Vec<usize>], seeds: &[usize]) -> Vec<usize> {
    let mut origin = vec![usize::MAX; adj.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in seeds {
        if origin[s] == usize::MAX {
            origin[s] = s;
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        let from = origin[n];
        for &m in &adj[n] {
            if origin[m] == usize::MAX {
                origin[m] = from;
                queue.push_back(m);
            }
        }
    }
    origin
}

/// Per-file context for rendering findings and honouring suppressions.
struct FileCtx {
    lines: Vec<String>,
    allows: BTreeMap<usize, Allow>,
}

pub(crate) struct Emitter {
    files: BTreeMap<String, FileCtx>,
    pub(crate) findings: Vec<Finding>,
}

impl Emitter {
    pub(crate) fn new(sources: &BTreeMap<String, String>) -> Emitter {
        let files = sources
            .iter()
            .map(|(path, src)| {
                let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
                let mut allows = BTreeMap::new();
                for (i, l) in lines.iter().enumerate() {
                    if let Some(a) = parse_allow(l) {
                        allows.insert(i + 1, a);
                    }
                }
                (path.clone(), FileCtx { lines, allows })
            })
            .collect();
        Emitter {
            files,
            findings: Vec::new(),
        }
    }

    /// Record a finding unless suppressed.  An `simlint::allow(rule)`
    /// comment on the offending line, the line above it, or (when
    /// `scope` names the enclosing declaration) anywhere in the
    /// contiguous comment/attribute block above that declaration covers
    /// the finding — so one function-level allow with a written reason
    /// silences a whole body of intentional sites instead of needing a
    /// comment per line, and several rules' allows can stack above one
    /// declaration (mirroring how registration markers attach).
    pub(crate) fn emit(
        &mut self,
        rule: &'static str,
        severity: Severity,
        path: &str,
        line: u32,
        scope: Option<u32>,
        message: String,
    ) {
        let line = line as usize;
        let ctx = self.files.get(path);
        if let Some(ctx) = ctx {
            let mut probe = vec![line, line.saturating_sub(1)];
            if let Some(s) = scope {
                let s = s as usize;
                probe.push(s);
                // Walk the contiguous comment/attribute block above the
                // declaration so stacked allows (one per rule) all count.
                let mut l = s;
                while l > 1 {
                    l -= 1;
                    let t = ctx.lines.get(l - 1).map(|ln| ln.trim()).unwrap_or_default();
                    if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") {
                        probe.push(l);
                    } else {
                        break;
                    }
                }
            }
            let allowed = probe
                .iter()
                .filter_map(|l| ctx.allows.get(l))
                .any(|a| allow_covers(a, rule));
            if allowed {
                return;
            }
        }
        let excerpt = ctx
            .and_then(|c| c.lines.get(line.saturating_sub(1)))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        self.findings.push(Finding {
            rule,
            severity,
            path: path.to_string(),
            line,
            message,
            excerpt,
        });
    }
}

/// A pass over a built index and its call graph, recording findings in
/// an emitter: [`analyze`] and [`crate::cost::analyze`].
pub(crate) type Pass = fn(&Index, &Graph, &mut Emitter);

/// Build the index, call graph and emitter of `sources` once and run
/// every pass over them.  The emitter supplies excerpts and
/// `simlint::allow` suppressions.  Findings come back sorted by path,
/// line and rule.
pub(crate) fn run_passes(sources: &BTreeMap<String, String>, passes: &[Pass]) -> Vec<Finding> {
    let index = build_index(sources);
    let graph = build_graph(&index);
    let mut em = Emitter::new(sources);
    for pass in passes {
        pass(&index, &graph, &mut em);
    }
    let mut findings = em.findings;
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Run the two flow analyses over a built index and its call graph.
pub(crate) fn analyze(index: &Index, graph: &Graph, em: &mut Emitter) {
    // ---- panic-path -------------------------------------------------------
    let mut panic_roots: BTreeSet<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.markers.contains("panic_root"))
        .map(|(i, _)| i)
        .collect();
    // Closure executors: a retry operation's body is a closure inside the
    // caller, and closure calls are attributed to the caller — so every
    // direct caller of a `retry_entry` function becomes a root.
    for (i, f) in index.fns.iter().enumerate() {
        if f.markers.contains("retry_entry") {
            panic_roots.extend(graph.into[i].iter().copied());
            panic_roots.insert(i);
        }
    }
    let panic_roots: Vec<usize> = panic_roots.into_iter().collect();
    if !panic_roots.is_empty() {
        let reached = reach(&graph.out, &panic_roots);
        for (i, f) in index.fns.iter().enumerate() {
            if reached[i] == usize::MAX {
                continue;
            }
            let via = &index.fns[reached[i]].qual;
            for (line, kind) in &f.panics {
                // Indexing is reported but does not fail `--deny`: without
                // type information the detector cannot tell fallible slice
                // access from fixed-size arrays or in-range-by-construction
                // hot-path indexing (the same reason clippy ships
                // `indexing_slicing` allow-by-default).
                let (what, severity) = match kind.as_str() {
                    "unwrap" => ("`.unwrap()`", Severity::Error),
                    "expect" => ("`.expect(…)`", Severity::Error),
                    _ => ("slice indexing", Severity::Warn),
                };
                em.emit(
                    "panic-path",
                    severity,
                    &f.file,
                    *line,
                    Some(f.line),
                    format!(
                        "{what} in `{}` is reachable from panic root `{via}`: a panic mid-degraded-mode aborts the bandwidth-under-failure scenarios; propagate the error instead",
                        f.qual,
                    ),
                );
            }
        }
    }

    // ---- retry-taxonomy ---------------------------------------------------
    if !index.terminals.is_empty() {
        // Producers: functions mentioning a terminal variant; carriers:
        // their transitive callers (the error propagates out through `?`).
        let producers: Vec<usize> = index
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.terminal_mentions.is_empty())
            .map(|(i, _)| i)
            .collect();
        let carrier = reach(&graph.into, &producers);

        for (i, f) in index.fns.iter().enumerate() {
            // (a) terminal variant classified retriable.
            if f.name == "is_retriable" {
                for (variant, line) in &f.terminal_mentions {
                    em.emit(
                        "retry-taxonomy",
                        Severity::Error,
                        &f.file,
                        *line,
                        Some(f.line),
                        format!(
                            "terminal error `{variant}` is classified as retriable in `{}`: retrying after data loss can never succeed",
                            f.qual,
                        ),
                    );
                }
            }
            // (b) match arm remapping terminal → retriable.
            for (variant, line) in &f.arm_remaps {
                em.emit(
                    "retry-taxonomy",
                    Severity::Error,
                    &f.file,
                    *line,
                    Some(f.line),
                    format!(
                        "terminal error `{variant}` is remapped to a retriable classification in `{}`; it must stay terminal",
                        f.qual,
                    ),
                );
            }
            // (c) blanket map_err → Retriable in a function that can
            // carry a terminal error from its callees.
            if carrier[i] != usize::MAX {
                let source = &index.fns[carrier[i]].qual;
                for line in &f.maperr_retriable {
                    em.emit(
                        "retry-taxonomy",
                        Severity::Error,
                        &f.file,
                        *line,
                        Some(f.line),
                        format!(
                            "`map_err` to a retriable error in `{}` can launder a terminal error produced by `{source}` into a retry loop",
                            f.qual,
                        ),
                    );
                }
            }
        }
    }
}

/// Convenience: read sources, build the index and analyze in one call.
pub fn analyze_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(run_passes(&read_sources(root)?, &[analyze]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srcs(files: &[(&str, &str)]) -> BTreeMap<String, String> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&srcs(files), &[analyze])
    }

    fn rules_hit(files: &[(&str, &str)]) -> Vec<&'static str> {
        run(files).into_iter().map(|f| f.rule).collect()
    }

    // ---- item parsing ----

    #[test]
    fn parses_fns_with_impl_quals() {
        let sources = srcs(&[(
            "crates/x/src/lib.rs",
            "pub struct S;\n\
             impl S {\n\
                 pub fn touch(&mut self) {}\n\
                 pub fn peek(&self) -> u32 { 0 }\n\
                 fn make() -> S { S }\n\
             }\n\
             pub fn free(s: &mut S) {}\n",
        )]);
        let idx = build_index(&sources);
        let by_qual: BTreeMap<&str, &FnFact> =
            idx.fns.iter().map(|f| (f.qual.as_str(), f)).collect();
        assert_eq!(by_qual["S::touch"].impl_type.as_deref(), Some("S"));
        assert_eq!(by_qual["S::make"].impl_type.as_deref(), Some("S"));
        assert_eq!(by_qual["free"].impl_type, None);
    }

    #[test]
    fn trait_impls_and_generics_parse() {
        let sources = srcs(&[(
            "crates/x/src/lib.rs",
            "pub trait T { fn go(&self); fn dflt(&self) -> [u8; 2] { [0, 0] } }\n\
             pub struct G<P>(P);\n\
             impl<P: Clone> T for G<P> {\n\
                 fn go(&self) { helper() }\n\
             }\n\
             fn helper() {}\n",
        )]);
        let idx = build_index(&sources);
        let quals: Vec<&str> = idx.fns.iter().map(|f| f.qual.as_str()).collect();
        // Bodyless trait method is not indexed; the default body is.
        assert!(quals.contains(&"T::dflt"), "{quals:?}");
        assert!(quals.contains(&"G::go"), "{quals:?}");
        assert!(quals.contains(&"helper"), "{quals:?}");
        let go = idx.fns.iter().find(|f| f.qual == "G::go").unwrap();
        assert!(go.calls.iter().any(|(_, n)| n == "helper"));
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let sources = srcs(&[(
            "crates/x/src/lib.rs",
            "pub fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { x.unwrap(); }\n\
             }\n",
        )]);
        let idx = build_index(&sources);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn panic_sites_detected_not_in_comments_or_strings() {
        let sources = srcs(&[(
            "crates/x/src/lib.rs",
            "fn f(v: &[u32], m: std::collections::BTreeMap<u32, u32>) -> u32 {\n\
                 // x.unwrap() in a comment\n\
                 let s = \"y.unwrap()\";\n\
                 let a = m.get(&0).unwrap();\n\
                 let b = m.get(&1).expect(\"b\");\n\
                 let c = v[0];\n\
                 let d = [1u32, 2];\n\
                 a + b + c + d[1]\n\
             }\n",
        )]);
        let idx = build_index(&sources);
        let f = &idx.fns[0];
        let kinds: Vec<&str> = f.panics.iter().map(|(_, k)| k.as_str()).collect();
        // unwrap, expect, v[0], d[1] — the array literal `[1u32, 2]` is not
        // an index (predecessor `=`), the attribute/string/comment cases
        // never lex as code.
        assert_eq!(kinds, vec!["unwrap", "expect", "index", "index"]);
    }

    // ---- panic-path ----

    #[test]
    fn panic_path_transitive_from_marked_root() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "// simlint::panic_root — fault handler\n\
             pub fn rebuild(v: &[u32]) { step(v); }\n\
             fn step(v: &[u32]) { leaf(v); }\n\
             fn leaf(v: &[u32]) { let _ = v[0]; }\n\
             pub fn unrelated(m: &std::collections::BTreeMap<u32, u32>) { m.get(&0).unwrap(); }\n",
        )];
        let findings = run(files);
        let panics: Vec<&Finding> = findings.iter().filter(|f| f.rule == "panic-path").collect();
        // v[0] in leaf is reachable from rebuild; the unwrap in `unrelated`
        // is not reachable from any root and stays clean (stage 1 still
        // warns about it, but the flow pass does not error).
        assert_eq!(panics.len(), 1, "{findings:?}");
        assert!(
            panics[0].message.contains("rebuild"),
            "{}",
            panics[0].message
        );
        assert!(panics[0].message.contains("leaf"));
        // Indexing reports as warn (no type info to prove fallibility)…
        assert_eq!(panics[0].severity, Severity::Warn);
        // …while a reachable unwrap is an error.
        let files = &[(
            "crates/sim/src/lib.rs",
            "// simlint::panic_root — fault handler\n\
             pub fn rebuild(m: &std::collections::BTreeMap<u32, u32>) { let _ = m.get(&0).unwrap(); }\n",
        )];
        let findings = run(files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn panic_path_retry_entry_promotes_callers() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "// simlint::retry_entry — closure executor\n\
             pub fn run_retry(op: impl FnMut() -> u32) -> u32 { 0 }\n\
             pub fn caller(m: &std::collections::BTreeMap<u32, u32>) {\n\
                 let _ = run_retry(|| *m.get(&0).unwrap());\n\
             }\n\
             pub fn bystander(m: &std::collections::BTreeMap<u32, u32>) { m.get(&1).copied(); }\n",
        )];
        let findings = run(files);
        let panics: Vec<&Finding> = findings.iter().filter(|f| f.rule == "panic-path").collect();
        assert_eq!(panics.len(), 1, "{findings:?}");
        assert!(panics[0].message.contains("caller"));
    }

    #[test]
    fn panic_path_suppression_on_site_line() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "// simlint::panic_root\n\
             pub fn rebuild(m: &std::collections::BTreeMap<u32, u32>) {\n\
                 // simlint::allow(panic-path) — key inserted unconditionally above\n\
                 let _ = m.get(&0).unwrap();\n\
             }\n",
        )];
        assert!(!rules_hit(files).contains(&"panic-path"));
    }

    // ---- retry-taxonomy ----

    #[test]
    fn retry_taxonomy_flags_retriable_classification() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "pub enum E {\n\
                 Timeout,\n\
                 // simlint::terminal_error — data loss is final\n\
                 Unavailable,\n\
             }\n\
             impl E {\n\
                 pub fn is_retriable(&self) -> bool {\n\
                     matches!(self, E::Timeout | E::Unavailable)\n\
                 }\n\
             }\n",
        )];
        let findings = run(files);
        let tax: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "retry-taxonomy")
            .collect();
        assert_eq!(tax.len(), 1, "{findings:?}");
        assert!(tax[0].message.contains("E::Unavailable"));
    }

    #[test]
    fn retry_taxonomy_flags_arm_remap() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "pub enum E {\n\
                 // simlint::terminal_error\n\
                 Unavailable,\n\
                 Timeout,\n\
             }\n\
             pub enum R { Retriable, Fatal }\n\
             pub fn remap(e: E) -> R {\n\
                 match e {\n\
                     E::Unavailable => R::Retriable,\n\
                     E::Timeout => R::Retriable,\n\
                 }\n\
             }\n",
        )];
        let findings = run(files);
        let tax: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "retry-taxonomy")
            .collect();
        assert_eq!(tax.len(), 1, "{findings:?}");
        assert!(tax[0].message.contains("remap"), "{}", tax[0].message);
    }

    #[test]
    fn retry_taxonomy_clean_when_terminal_stays_fatal() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "pub enum E {\n\
                 // simlint::terminal_error\n\
                 Unavailable,\n\
                 Timeout,\n\
             }\n\
             pub enum R { Retriable, Fatal }\n\
             pub fn remap(e: E) -> R {\n\
                 match e {\n\
                     E::Unavailable => R::Fatal,\n\
                     E::Timeout => R::Retriable,\n\
                 }\n\
             }\n\
             impl E {\n\
                 pub fn is_retriable(&self) -> bool { matches!(self, E::Timeout) }\n\
             }\n",
        )];
        assert!(!rules_hit(files).contains(&"retry-taxonomy"));
    }

    #[test]
    fn retry_taxonomy_maperr_carrier() {
        let files = &[(
            "crates/sim/src/lib.rs",
            "pub enum E {\n\
                 // simlint::terminal_error\n\
                 Unavailable,\n\
             }\n\
             pub enum R { Retriable }\n\
             pub fn produce() -> Result<(), E> { Err(E::Unavailable) }\n\
             pub fn launder() -> Result<(), R> {\n\
                 produce().map_err(|_| R::Retriable)\n\
             }\n\
             pub fn honest() -> Result<(), u32> {\n\
                 other().map_err(|_| 7u32)\n\
             }\n\
             pub fn other() -> Result<(), E> { Ok(()) }\n",
        )];
        let findings = run(files);
        let tax: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "retry-taxonomy")
            .collect();
        assert_eq!(tax.len(), 1, "{findings:?}");
        assert!(tax[0].message.contains("launder"), "{}", tax[0].message);
    }
}
