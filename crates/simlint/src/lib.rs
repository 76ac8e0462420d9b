//! `simlint` — a determinism lint pass for the daos-io-sim workspace.
//!
//! The simulator's top-line contract (see `simkit/src/lib.rs`) is that
//! identical inputs produce identical schedules.  That contract is easy to
//! break silently: iterate a `HashMap` while summing `f64`s or building a
//! step list and the result depends on hash seeding; read `Instant::now()`
//! or `std::env` inside sim logic and the result depends on the host.
//!
//! This crate is a line/token-level static-analysis pass over all workspace
//! `.rs` sources.  It is std-only (zero external deps) so it builds offline
//! and runs in CI in milliseconds.  It is deliberately *not* a parser: the
//! scanner strips comments and string/char literals, skips `#[cfg(test)]`
//! items, and then matches identifier tokens — crude, but fast, dependency
//! free, and precise enough for a curated rule set over one codebase.
//!
//! # Rules
//!
//! | id | severity | scope | flags |
//! |----|----------|-------|-------|
//! | `hash-collections-in-sim-state` | error | sim crates | `HashMap` / `HashSet` / `RandomState` |
//! | `unordered-float-accum` | error | sim crates | hash maps with `f64`/`f32` values |
//! | `wall-clock` | error | sim crates | `Instant::now` / `SystemTime` |
//! | `ambient-rng` | error | all lib code | `thread_rng` / `rand::random` |
//! | `env-dependent-sim` | error | sim crates | `std::env` / `available_parallelism` |
//! | `lib-unwrap` | warn | all lib code | `.unwrap()` / `.expect(` |
//!
//! Test-like code (`tests/`, `benches/`, `examples/`, `src/bin/`, and
//! `#[cfg(test)]` items) is exempt from every rule.  Tooling crates (this
//! crate and the vendored `proptest`/`rayon`/`criterion` shims) are exempt
//! from the sim-scoped rules: a timing harness *must* read the wall clock.
//!
//! # Suppressions
//!
//! A finding is suppressed by an inline comment on the same line or on the
//! line directly above:
//!
//! ```text
//! // simlint::allow(wall-clock) — diagnostics only, never feeds sim time
//! let t0 = std::time::Instant::now();
//! ```
//!
//! The reason after the rule list is **mandatory**; an `allow` without one
//! does not suppress anything (and is itself reported, so it cannot rot
//! silently).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod cost;
pub mod flow;
pub mod lex;

/// How bad a finding is. `Error` findings fail `--deny`; `Warn` never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which crates a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Simulation crates only (state + logic that must replay identically).
    SimState,
    /// Every workspace crate's library code, tooling included.
    AllLib,
}

/// Where a source file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileContext {
    /// Part of the simulator proper (false for simlint itself and the
    /// vendored dependency shims).
    pub sim_crate: bool,
    /// Library code, as opposed to tests/benches/examples/binaries.
    pub lib_code: bool,
}

/// One lint rule: an id, a severity, a scope and a token predicate.
pub struct Rule {
    pub id: &'static str,
    pub severity: Severity,
    pub scope: Scope,
    pub summary: &'static str,
    /// Returns a message if the (comment/literal-stripped) line violates
    /// the rule.
    check: fn(&str) -> Option<String>,
}

/// One violation found in one line of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl Finding {
    /// Render as one JSON object (hand-rolled: the crate is zero-dep).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"excerpt\":\"{}\"}}",
            json_escape(self.rule),
            self.severity,
            json_escape(&self.path),
            self.line,
            json_escape(&self.message),
            json_escape(&self.excerpt),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}:{}: {}\n    {}",
            self.severity, self.rule, self.path, self.line, self.message, self.excerpt
        )
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Token matching
// ---------------------------------------------------------------------------

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True if `needle` occurs in `line` with identifier boundaries on both
/// sides (so `HashMap` does not match `MyHashMapLike`). `needle` itself may
/// contain `::` / `.` / `(` — only its outer edges are boundary-checked.
pub fn contains_token(line: &str, needle: &str) -> bool {
    let (hay, pat) = (line.as_bytes(), needle.as_bytes());
    if pat.is_empty() || hay.len() < pat.len() {
        return false;
    }
    let mut i = 0;
    while i + pat.len() <= hay.len() {
        if &hay[i..i + pat.len()] == pat {
            let left_ok = i == 0 || !is_ident_char(hay[i - 1]) || !is_ident_char(pat[0]);
            let end = i + pat.len();
            let right_ok =
                end == hay.len() || !is_ident_char(hay[end]) || !is_ident_char(pat[pat.len() - 1]);
            if left_ok && right_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// For `unordered-float-accum`: does the line mention a hash map whose type
/// parameters include a float? Scans the generic argument list after each
/// `HashMap<`, tracking `<`/`>` depth.
fn hash_map_with_float_value(line: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find("HashMap<") {
        let args_start = pos + "HashMap<".len();
        let mut depth = 1usize;
        let mut end = args_start;
        let bytes = rest.as_bytes();
        while end < bytes.len() && depth > 0 {
            match bytes[end] {
                b'<' => depth += 1,
                b'>' => depth -= 1,
                _ => {}
            }
            end += 1;
        }
        let args = &rest[args_start..end.saturating_sub(1).max(args_start)];
        if contains_token(args, "f64") || contains_token(args, "f32") {
            return true;
        }
        rest = &rest[args_start..];
    }
    false
}

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

/// Every rule simlint knows about.
pub fn rules() -> &'static [Rule] {
    &[
        Rule {
            id: "hash-collections-in-sim-state",
            severity: Severity::Error,
            scope: Scope::SimState,
            summary: "HashMap/HashSet iteration order varies with hash seeding; use BTreeMap/BTreeSet in simulation state",
            check: |line| {
                for tok in ["HashMap", "HashSet", "RandomState"] {
                    if contains_token(line, tok) {
                        return Some(format!(
                            "`{tok}` in simulation state: iteration order depends on hash seeding; use the BTree equivalent or sort before iterating"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "unordered-float-accum",
            severity: Severity::Error,
            scope: Scope::SimState,
            summary: "float-valued hash maps make summation order (and thus rounding) run-dependent",
            check: |line| {
                if hash_map_with_float_value(line) {
                    Some(
                        "float-valued hash map: summing its values accumulates rounding error in hash order; use BTreeMap so the reduction order is fixed"
                            .to_string(),
                    )
                } else {
                    None
                }
            },
        },
        Rule {
            id: "wall-clock",
            severity: Severity::Error,
            scope: Scope::SimState,
            summary: "wall-clock reads make sim behaviour host/time dependent; sim time must come from the Scheduler",
            check: |line| {
                for tok in ["Instant::now", "SystemTime"] {
                    if contains_token(line, tok) {
                        return Some(format!(
                            "`{tok}` in sim logic: wall-clock reads vary per host and run; use Scheduler sim time (allow only for diagnostics that never feed the sim)"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "ambient-rng",
            severity: Severity::Error,
            scope: Scope::AllLib,
            summary: "ambient RNG is unseeded; use the seeded SplitMix64 streams carried in RunSpec",
            check: |line| {
                for tok in ["thread_rng", "rand::random"] {
                    if contains_token(line, tok) {
                        return Some(format!(
                            "`{tok}` draws from an unseeded generator; thread the seeded SplitMix64 stream through instead"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "env-dependent-sim",
            severity: Severity::Error,
            scope: Scope::SimState,
            summary: "environment reads make sim results depend on the host configuration",
            check: |line| {
                for tok in ["std::env", "env::var", "available_parallelism"] {
                    if contains_token(line, tok) {
                        return Some(format!(
                            "`{tok}` in sim logic: results must not depend on host environment (allow only for diagnostics toggles)"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "unguarded-retry-loop",
            severity: Severity::Error,
            scope: Scope::AllLib,
            summary: "retry loops without an attempt bound or deadline can spin forever; use RetryPolicy/RetryExec or a bounded for",
            check: |line| {
                let looping = contains_token(line, "loop") || contains_token(line, "while");
                if !looping {
                    return None;
                }
                let retrying = ["retry", "retries", "retrying", "backoff"]
                    .iter()
                    .any(|t| contains_token(line, t));
                if !retrying {
                    return None;
                }
                let guarded = ["attempt", "attempts", "max_attempts", "timeout", "deadline"]
                    .iter()
                    .any(|t| contains_token(line, t));
                if guarded {
                    return None;
                }
                Some(
                    "retry loop without a visible attempt/timeout bound: route it through `RetryExec` (bounded `for` over `max_attempts`) or carry the bound in the loop condition"
                        .to_string(),
                )
            },
        },
        Rule {
            id: "lib-unwrap",
            severity: Severity::Warn,
            scope: Scope::AllLib,
            summary: "unwrap/expect in library code turns recoverable errors into panics",
            check: |line| {
                for tok in [".unwrap()", ".expect("] {
                    if line.contains(tok) {
                        return Some(format!(
                            "`{}` in library code: prefer propagating the error",
                            tok.trim_end_matches('(')
                        ));
                    }
                }
                None
            },
        },
    ]
}

fn rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = rules().iter().map(|r| r.id).collect();
    ids.extend(flow::flow_rules().iter().map(|r| r.id));
    ids.extend(cost::cost_rules().iter().map(|r| r.id));
    ids
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// A parsed `// simlint::allow(rule, …) — reason` directive.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    rules: Vec<String>,
    has_reason: bool,
}

/// Parse an allow directive out of a raw source line, if present. The
/// directive only counts inside a plain `//` comment, so the marker string
/// can appear in code, literals or doc comments (`///`, `//!`) without
/// being treated as a suppression.
pub(crate) fn parse_allow(raw_line: &str) -> Option<Allow> {
    let comment = &raw_line[raw_line.find("//")?..];
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let pos = comment.find("simlint::allow(")?;
    let rest = &comment[pos + "simlint::allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    // Reason: any word characters after the closing paren, past separators
    // like `—`, `-`, `:`.
    let tail = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
    Some(Allow {
        rules,
        has_reason: tail.chars().any(|c| c.is_alphanumeric()),
    })
}

pub(crate) fn allow_covers(allow: &Allow, rule_id: &str) -> bool {
    allow.has_reason && allow.rules.iter().any(|r| r == rule_id)
}

// ---------------------------------------------------------------------------
// Source scanning
// ---------------------------------------------------------------------------

/// Multi-line lexical state carried between [`strip_line`] calls.
#[derive(Default)]
struct StripState {
    in_block_comment: bool,
    /// Inside a `"` string literal that did not close on its line.
    in_string: bool,
}

/// Strip `//` comments, `/* */` comments, and string/char literals from one
/// line. `state` carries multi-line `/* */` and `"…"` state between lines.
/// Stripped regions are replaced with spaces so token boundaries survive.
fn strip_line(raw: &str, state: &mut StripState) -> String {
    let bytes = raw.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        if state.in_block_comment {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                state.in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if state.in_string {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    state.in_string = false;
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break, // rest is comment
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                state.in_block_comment = true;
                i += 2;
            }
            b'"' => {
                // String literal (raw strings handled loosely: good enough).
                // One that does not close on this line continues on the next.
                i += 1;
                state.in_string = true;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            state.in_string = false;
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' if i + 2 < bytes.len() && (bytes[i + 1] == b'\\' || bytes[i + 2] == b'\'') => {
                // Char literal like 'x' or '\n' — but not lifetimes ('a).
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    // `out` was filled with the kept bytes at their original positions.
    String::from_utf8_lossy(&out).into_owned()
}

/// Lint one file's source text. `path` is only used to label findings.
pub fn lint_source(path: &str, source: &str, ctx: FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !ctx.lib_code {
        return findings;
    }
    let lines: Vec<&str> = source.lines().collect();

    // Pass 1: allow directives, by line index.
    let allows: Vec<Option<Allow>> = lines.iter().map(|l| parse_allow(l)).collect();

    // Pass 2: scan, skipping #[cfg(test)] items.
    let mut strip_state = StripState::default();
    let mut cfg_test_pending = false; // saw #[cfg(test)], item not yet started
                                      // Inside a #[cfg(test)] item: (brace depth, whether `{` was seen yet).
    let mut cfg_skip: Option<(usize, bool)> = None;
    for (idx, raw) in lines.iter().enumerate() {
        let stripped = strip_line(raw, &mut strip_state);
        let code = stripped.trim();

        if let Some((mut depth, mut opened)) = cfg_skip {
            for b in code.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            // A braced item ends when its braces balance; a brace-less item
            // (`use …;`, `type …;`) ends at the first `;`.
            if (opened && depth == 0) || (!opened && code.ends_with(';')) {
                cfg_skip = None;
            } else {
                cfg_skip = Some((depth, opened));
            }
            continue;
        }

        if cfg_test_pending {
            if code.starts_with("#[") || code.is_empty() {
                // further attributes / blank lines before the item itself
                continue;
            }
            cfg_test_pending = false;
            let mut depth = 0usize;
            let mut opened = false;
            for b in code.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if !((opened && depth == 0) || (!opened && code.ends_with(';'))) {
                cfg_skip = Some((depth, opened));
            }
            continue;
        }

        if code.contains("#[cfg(test)]") || code.contains("#[cfg(any(test") {
            cfg_test_pending = true;
            continue;
        }

        // An allow that names an unknown rule or lacks a reason is itself a
        // problem: it looks like a suppression but does nothing.
        if let Some(allow) = &allows[idx] {
            let known = rule_ids();
            for r in &allow.rules {
                if !known.contains(&r.as_str()) {
                    findings.push(Finding {
                        rule: "unknown-allow",
                        severity: Severity::Warn,
                        path: path.to_string(),
                        line: idx + 1,
                        message: format!("simlint::allow names unknown rule `{r}`"),
                        excerpt: raw.trim().to_string(),
                    });
                }
            }
            if !allow.has_reason {
                findings.push(Finding {
                    rule: "allow-without-reason",
                    severity: Severity::Warn,
                    path: path.to_string(),
                    line: idx + 1,
                    message: "simlint::allow requires a reason after the rule list (`— why`)"
                        .to_string(),
                    excerpt: raw.trim().to_string(),
                });
            }
        }

        if code.is_empty() {
            continue;
        }

        for rule in rules() {
            if rule.scope == Scope::SimState && !ctx.sim_crate {
                continue;
            }
            if let Some(message) = (rule.check)(&stripped) {
                let suppressed = allows[idx]
                    .as_ref()
                    .map(|a| allow_covers(a, rule.id))
                    .unwrap_or(false)
                    || (idx > 0
                        && allows[idx - 1]
                            .as_ref()
                            .map(|a| allow_covers(a, rule.id))
                            .unwrap_or(false));
                if !suppressed {
                    findings.push(Finding {
                        rule: rule.id,
                        severity: rule.severity,
                        path: path.to_string(),
                        line: idx + 1,
                        message,
                        excerpt: raw.trim().to_string(),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Crates that are tooling, not simulation: exempt from `Scope::SimState`
/// rules. The vendored shims stand in for external deps; the criterion shim
/// in particular *is* a wall-clock timer.
const TOOLING_CRATES: &[&str] = &["simlint", "proptest", "rayon", "criterion", "bench"];

/// Classify a workspace-relative path like `crates/core/src/system.rs`.
pub fn classify(rel_path: &str) -> FileContext {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1]
    } else {
        "daos-io-sim"
    };
    let sim_crate = !TOOLING_CRATES.contains(&crate_name);
    let lib_code = parts
        .iter()
        .all(|p| !matches!(*p, "tests" | "benches" | "examples" | "bin"));
    FileContext {
        sim_crate,
        lib_code,
    }
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `root` (skipping `target/` and dot-dirs).
/// Findings come back sorted by path, then line, then rule.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &source, classify(&rel)));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// Every stage over the tree at `root`: the stage-1 line rules and, when
/// `flow_passes` is set, the stage-2 flow and stage-3 cost passes over one
/// shared item index.  Findings come back sorted by path, then line, then
/// rule.
pub fn lint_workspace(root: &Path, flow_passes: bool) -> std::io::Result<Vec<Finding>> {
    let mut findings = lint_tree(root)?;
    if flow_passes {
        let sources = flow::read_sources(root)?;
        findings.extend(flow::run_passes(&sources, &[flow::analyze, cost::analyze]));
        findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_LIB: FileContext = FileContext {
        sim_crate: true,
        lib_code: true,
    };
    const TOOL_LIB: FileContext = FileContext {
        sim_crate: false,
        lib_code: true,
    };
    const SIM_TEST: FileContext = FileContext {
        sim_crate: true,
        lib_code: false,
    };

    fn rules_hit(src: &str, ctx: FileContext) -> Vec<&'static str> {
        lint_source("x.rs", src, ctx)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    // ---- hash-collections-in-sim-state ----

    #[test]
    fn hash_collections_positive() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u64, u32> = HashMap::new();\n";
        let hits = rules_hit(src, SIM_LIB);
        assert!(hits.contains(&"hash-collections-in-sim-state"), "{hits:?}");
        assert!(rules_hit("let s = HashSet::new();", SIM_LIB)
            .contains(&"hash-collections-in-sim-state"));
        assert!(rules_hit("let h = RandomState::new();", SIM_LIB)
            .contains(&"hash-collections-in-sim-state"));
    }

    #[test]
    fn hash_collections_negative() {
        assert!(rules_hit("use std::collections::BTreeMap;", SIM_LIB).is_empty());
        // Identifier-boundary check: no match inside a longer identifier.
        assert!(rules_hit("struct MyHashMapLike;", SIM_LIB).is_empty());
        // Not flagged in tooling crates or test-like code.
        assert!(rules_hit("let m = HashMap::new();", TOOL_LIB).is_empty());
        assert!(rules_hit("let m = HashMap::new();", SIM_TEST).is_empty());
        // Not flagged in comments or strings.
        assert!(rules_hit("// a HashMap would be wrong here", SIM_LIB).is_empty());
        assert!(rules_hit("let s = \"HashMap\";", SIM_LIB).is_empty());
    }

    #[test]
    fn hash_collections_allow_suppression() {
        let same_line =
            "let m = HashMap::new(); // simlint::allow(hash-collections-in-sim-state) — scratch, drained sorted\n";
        assert!(rules_hit(same_line, SIM_LIB).is_empty());
        let line_above = "// simlint::allow(hash-collections-in-sim-state) — scratch, drained sorted\nlet m = HashMap::new();\n";
        assert!(rules_hit(line_above, SIM_LIB).is_empty());
        // Without a reason the allow is inert and itself reported.
        let no_reason =
            "let m = HashMap::new(); // simlint::allow(hash-collections-in-sim-state)\n";
        let hits = rules_hit(no_reason, SIM_LIB);
        assert!(hits.contains(&"hash-collections-in-sim-state"), "{hits:?}");
        assert!(hits.contains(&"allow-without-reason"), "{hits:?}");
    }

    // ---- unordered-float-accum ----

    #[test]
    fn float_accum_positive() {
        let hits = rules_hit("let mut gb: HashMap<usize, f64> = HashMap::new();", SIM_LIB);
        assert!(hits.contains(&"unordered-float-accum"), "{hits:?}");
        // Nested generics still detected.
        let hits = rules_hit("let x: HashMap<u32, Vec<f32>> = HashMap::new();", SIM_LIB);
        assert!(hits.contains(&"unordered-float-accum"), "{hits:?}");
    }

    #[test]
    fn float_accum_negative() {
        // Integer-valued hash map: hash-collections fires, float-accum doesn't.
        let hits = rules_hit("let m: HashMap<u64, u32> = HashMap::new();", SIM_LIB);
        assert!(!hits.contains(&"unordered-float-accum"), "{hits:?}");
        // BTreeMap with floats is fine.
        assert!(rules_hit("let m: BTreeMap<usize, f64> = BTreeMap::new();", SIM_LIB).is_empty());
    }

    #[test]
    fn float_accum_allow_suppression() {
        let src = "// simlint::allow(unordered-float-accum, hash-collections-in-sim-state) — totals are order-independent here\nlet gb: HashMap<usize, f64> = HashMap::new();\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    // ---- wall-clock ----

    #[test]
    fn wall_clock_positive() {
        assert!(rules_hit("let t0 = Instant::now();", SIM_LIB).contains(&"wall-clock"));
        assert!(rules_hit("let t = SystemTime::now();", SIM_LIB).contains(&"wall-clock"));
    }

    #[test]
    fn wall_clock_negative() {
        // Sim time, not wall time.
        assert!(rules_hit("let t = sched.now();", SIM_LIB).is_empty());
        // Tooling crates may read the clock (that's their job).
        assert!(rules_hit("let t0 = Instant::now();", TOOL_LIB).is_empty());
    }

    #[test]
    fn wall_clock_allow_suppression() {
        let src = "let t0 = std::time::Instant::now(); // simlint::allow(wall-clock) — perf counter, never feeds sim time\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    // ---- ambient-rng ----

    #[test]
    fn ambient_rng_positive() {
        assert!(rules_hit("let x = thread_rng().gen::<u64>();", SIM_LIB).contains(&"ambient-rng"));
        assert!(rules_hit("let y: f64 = rand::random();", SIM_LIB).contains(&"ambient-rng"));
        // AllLib scope: fires even in tooling crates.
        assert!(rules_hit("let x = thread_rng();", TOOL_LIB).contains(&"ambient-rng"));
    }

    #[test]
    fn ambient_rng_negative() {
        assert!(rules_hit("let mut rng = SplitMix64::new(spec.seed);", SIM_LIB).is_empty());
        assert!(rules_hit("let x = thread_rng();", SIM_TEST).is_empty());
    }

    #[test]
    fn ambient_rng_allow_suppression() {
        let src =
            "let x = thread_rng(); // simlint::allow(ambient-rng) — jitter for a demo plot only\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    // ---- env-dependent-sim ----

    #[test]
    fn env_dependent_positive() {
        assert!(rules_hit("let v = std::env::var(\"X\");", SIM_LIB).contains(&"env-dependent-sim"));
        assert!(
            rules_hit("let n = std::thread::available_parallelism();", SIM_LIB)
                .contains(&"env-dependent-sim")
        );
    }

    #[test]
    fn env_dependent_negative() {
        assert!(rules_hit("let v = spec.ppn;", SIM_LIB).is_empty());
        assert!(rules_hit("let v = std::env::var(\"X\");", TOOL_LIB).is_empty());
    }

    #[test]
    fn env_dependent_allow_suppression() {
        let src = "// simlint::allow(env-dependent-sim) — opt-in diagnostics toggle, no effect on results\nlet d = std::env::var_os(\"SIM_VERBOSE\").is_some();\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    // ---- unguarded-retry-loop ----

    #[test]
    fn unguarded_retry_loop_positive() {
        // a bare spin-until-success retry, no bound in sight
        assert!(rules_hit("loop { if retry(op) { break; } }", SIM_LIB)
            .contains(&"unguarded-retry-loop"));
        assert!(
            rules_hit("while !backoff.done() { retries += 1; }", TOOL_LIB)
                .contains(&"unguarded-retry-loop"),
            "applies to tooling crates too"
        );
    }

    #[test]
    fn unguarded_retry_loop_negative() {
        // the sanctioned shape: a bounded for over max_attempts
        assert!(rules_hit("for attempt in 0..self.policy.max_attempts {", SIM_LIB).is_empty());
        // a loop that carries its bound in the condition is guarded
        assert!(rules_hit("while retries < max_attempts { retries += 1; }", SIM_LIB).is_empty());
        assert!(rules_hit("while now < deadline { retry_once(); }", SIM_LIB).is_empty());
        // loops that do not retry are none of this rule's business
        assert!(rules_hit("loop { step(); }", SIM_LIB).is_empty());
        // comments do not count
        assert!(rules_hit("// loop until the retry succeeds", SIM_LIB).is_empty());
        // not flagged in test code
        assert!(rules_hit("loop { if retry(op) { break; } }", SIM_TEST).is_empty());
    }

    #[test]
    fn unguarded_retry_loop_allow_suppression() {
        let src = "loop { retry(); } // simlint::allow(unguarded-retry-loop) — bounded by caller\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    // ---- lib-unwrap ----

    #[test]
    fn lib_unwrap_positive_is_warn() {
        let f = lint_source("x.rs", "let v = m.get(&k).unwrap();", SIM_LIB);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lib-unwrap");
        assert_eq!(f[0].severity, Severity::Warn);
        assert!(rules_hit("let v = m.get(&k).expect(\"k\");", TOOL_LIB).contains(&"lib-unwrap"));
    }

    #[test]
    fn lib_unwrap_negative() {
        assert!(rules_hit("let v = m.get(&k)?;", SIM_LIB).is_empty());
        assert!(rules_hit("let v = m.get(&k).unwrap();", SIM_TEST).is_empty());
        // `unwrap_or` is not `unwrap()`.
        assert!(rules_hit("let v = m.get(&k).copied().unwrap_or(0);", SIM_LIB).is_empty());
    }

    #[test]
    fn lib_unwrap_allow_suppression() {
        let src = "let v = m.get(&k).unwrap(); // simlint::allow(lib-unwrap) — key inserted two lines up\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    // ---- scanner machinery ----

    #[test]
    fn cfg_test_module_skipped() {
        let src = "\
pub fn real() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn helper() {
        let m: HashMap<u64, f64> = HashMap::new();
        let t = Instant::now();
        let _ = m.get(&0).unwrap();
        let _ = t;
    }
}

pub fn after_tests() { let m = HashMap::new(); }
";
        let hits = rules_hit(src, SIM_LIB);
        // Only the line *after* the test module is flagged.
        assert_eq!(hits, vec!["hash-collections-in-sim-state"]);
        let f = lint_source("x.rs", src, SIM_LIB);
        assert_eq!(f[0].line, 14);
    }

    #[test]
    fn block_comments_stripped_across_lines() {
        let src = "/* HashMap in a\n   block comment: HashMap */\nlet x = 1;\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    #[test]
    fn unknown_allow_reported() {
        let src = "let x = 1; // simlint::allow(no-such-rule) — whatever\n";
        let hits = rules_hit(src, SIM_LIB);
        assert_eq!(hits, vec!["unknown-allow"]);
        // On a comment line of its own, the usual form, too.
        let src = "// simlint::allow(no-such-rule) — whatever\nlet x = 1;\n";
        assert_eq!(rules_hit(src, SIM_LIB), vec!["unknown-allow"]);
        // A doc comment that mentions the syntax is not a directive.
        let src = "/// Write `simlint::allow(rule) — reason` above the site.\nlet x = 1;\n";
        assert!(rules_hit(src, SIM_LIB).is_empty());
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/core/src/system.rs"),
            FileContext {
                sim_crate: true,
                lib_code: true
            }
        );
        assert_eq!(
            classify("crates/simlint/src/lib.rs"),
            FileContext {
                sim_crate: false,
                lib_code: true
            }
        );
        assert_eq!(
            classify("crates/simkit/tests/determinism.rs"),
            FileContext {
                sim_crate: true,
                lib_code: false
            }
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            FileContext {
                sim_crate: true,
                lib_code: false
            }
        );
        assert_eq!(
            classify("src/lib.rs"),
            FileContext {
                sim_crate: true,
                lib_code: true
            }
        );
        assert_eq!(
            classify("crates/bench/benches/microbench.rs"),
            FileContext {
                sim_crate: false,
                lib_code: false
            }
        );
    }

    #[test]
    fn json_output_escapes() {
        let f = Finding {
            rule: "wall-clock",
            severity: Severity::Error,
            path: "a\"b.rs".to_string(),
            line: 3,
            message: "msg".to_string(),
            excerpt: "let s = \"x\";".to_string(),
        };
        let j = f.to_json();
        assert!(j.contains("\"path\":\"a\\\"b.rs\""), "{j}");
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("\"line\":3"), "{j}");
    }

    #[test]
    fn findings_sorted_and_stable() {
        // lint_source emits findings in line order; same line → registry order.
        let src = "let a = Instant::now();\nlet b: HashMap<u8, f64> = HashMap::new();\n";
        let f = lint_source("x.rs", src, SIM_LIB);
        let seq: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            seq,
            vec![
                (1, "wall-clock"),
                (2, "hash-collections-in-sim-state"),
                (2, "unordered-float-accum"),
            ]
        );
    }
}
