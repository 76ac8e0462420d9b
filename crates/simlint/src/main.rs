//! CLI for the simlint determinism pass.
//!
//! ```text
//! cargo run -p simlint --              # stage 1 + flow pass, human report
//! cargo run -p simlint -- --deny      # exit 1 on any unsuppressed error
//! cargo run -p simlint -- --json      # one JSON object per finding
//! cargo run -p simlint -- --list-rules
//! cargo run -p simlint -- --root path/to/tree
//! cargo run -p simlint -- --no-flow   # stage 1 only (line/token rules)
//! cargo run -p simlint -- --baseline simlint-baseline.json
//! cargo run -p simlint -- --save-index target/simlint-index.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::json::Json;
use simlint::{cost, flow, lint_tree, rules, Finding, Severity};

fn usage() -> &'static str {
    "simlint — determinism lint for the daos-io-sim workspace\n\n\
     USAGE: simlint [--deny] [--json] [--list-rules] [--root DIR] [--no-flow]\n\
\u{20}               [--baseline FILE] [--write-baseline FILE]\n\
\u{20}               [--save-index FILE] [--load-index FILE]\n\n\
     --deny            exit non-zero if any unsuppressed, non-baselined\n\
                       error-level finding remains\n\
     --json            emit findings as JSON lines instead of human text\n\
     --list-rules      print the rule registry (every stage) and exit\n\
     --root DIR        lint DIR instead of the inferred workspace root\n\
     --no-flow         skip the stage-2/3 passes (call-graph and cost\n\
                       analyses)\n\
     --baseline FILE   accept findings recorded in FILE: they are still\n\
                       reported, but do not fail --deny\n\
     --write-baseline FILE  record current error findings as the baseline\n\
     --save-index FILE write the parsed item index (for CI step caching)\n\
     --load-index FILE reuse a saved item index when its fingerprint still\n\
                       matches the tree (silently rebuilt otherwise)"
}

fn workspace_root() -> PathBuf {
    // When run via `cargo run -p simlint`, the manifest dir is
    // <workspace>/crates/simlint; its grandparent is the workspace root.
    if let Some(dir) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

/// Baseline identity of a finding: line numbers drift with unrelated
/// edits, so matching is by rule + path + exact offending excerpt.
fn baseline_key(rule: &str, path: &str, excerpt: &str) -> String {
    format!("{rule}\u{0}{path}\u{0}{excerpt}")
}

/// Parse a baseline file (a JSON array of finding objects, as written by
/// `--write-baseline`) into the set of accepted keys.
fn load_baseline(text: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let v = Json::parse(text)?;
    let arr = v.as_arr().ok_or("baseline must be a JSON array")?;
    let mut keys = std::collections::BTreeSet::new();
    for f in arr {
        let field = |k: &str| {
            f.get(k)
                .and_then(|x| x.as_str())
                .ok_or_else(|| format!("baseline entry missing `{k}`"))
        };
        keys.insert(baseline_key(
            field("rule")?,
            field("path")?,
            field("excerpt")?,
        ));
    }
    Ok(keys)
}

fn write_baseline(findings: &[Finding]) -> String {
    let entries: Vec<String> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| format!("  {}", f.to_json()))
        .collect();
    if entries.is_empty() {
        "[]\n".to_string()
    } else {
        format!("[\n{}\n]\n", entries.join(",\n"))
    }
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut no_flow = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline_to: Option<PathBuf> = None;
    let mut save_index: Option<PathBuf> = None;
    let mut load_index: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    let path_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| match args.next() {
        Some(d) => Ok(PathBuf::from(d)),
        None => {
            eprintln!("{flag} requires a file argument\n\n{}", usage());
            Err(ExitCode::from(2))
        }
    };
    while let Some(arg) = args.next() {
        let r = match arg.as_str() {
            "--deny" => {
                deny = true;
                Ok(())
            }
            "--json" => {
                json = true;
                Ok(())
            }
            "--no-flow" => {
                no_flow = true;
                Ok(())
            }
            "--list-rules" => {
                for r in rules() {
                    println!("{:<30} {:<5} {}", r.id, r.severity.to_string(), r.summary);
                }
                for r in flow::flow_rules() {
                    println!("{:<30} {:<5} {}", r.id, r.severity.to_string(), r.summary);
                }
                for r in cost::cost_rules() {
                    println!("{:<30} {:<5} {}", r.id, r.severity.to_string(), r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => path_arg(&mut args, "--root").map(|p| root = Some(p)),
            "--baseline" => path_arg(&mut args, "--baseline").map(|p| baseline = Some(p)),
            "--write-baseline" => {
                path_arg(&mut args, "--write-baseline").map(|p| write_baseline_to = Some(p))
            }
            "--save-index" => path_arg(&mut args, "--save-index").map(|p| save_index = Some(p)),
            "--load-index" => path_arg(&mut args, "--load-index").map(|p| load_index = Some(p)),
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        };
        if let Err(code) = r {
            return code;
        }
    }

    let root = root.unwrap_or_else(workspace_root);
    let mut findings = match lint_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simlint: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if !no_flow {
        let sources = match flow::read_sources(&root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("simlint: failed to read {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        let fresh_print = flow::fingerprint(&sources);
        let cached = load_index.as_ref().and_then(|p| {
            let text = std::fs::read_to_string(p).ok()?;
            let idx = flow::index_from_json(&text).ok()?;
            (idx.fingerprint == fresh_print).then_some(idx)
        });
        let index = cached.unwrap_or_else(|| flow::build_index(&sources));
        if let Some(p) = &save_index {
            if let Err(e) = std::fs::write(p, flow::index_to_json(&index)) {
                eprintln!("simlint: failed to write index {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
        findings.extend(flow::analyze(&index, &sources));
        findings.extend(cost::analyze(&index, &sources));
        findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    if let Some(p) = &write_baseline_to {
        if let Err(e) = std::fs::write(p, write_baseline(&findings)) {
            eprintln!("simlint: failed to write baseline {}: {e}", p.display());
            return ExitCode::from(2);
        }
        let n = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        println!(
            "simlint: wrote {} baseline entr{} to {}",
            n,
            if n == 1 { "y" } else { "ies" },
            p.display()
        );
        return ExitCode::SUCCESS;
    }

    let accepted = match &baseline {
        Some(p) => match std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| load_baseline(&t))
        {
            Ok(k) => k,
            Err(e) => {
                eprintln!("simlint: bad baseline {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => Default::default(),
    };
    let is_baselined = |f: &Finding| accepted.contains(&baseline_key(f.rule, &f.path, &f.excerpt));

    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error && !is_baselined(f))
        .count();
    let baselined = findings
        .iter()
        .filter(|f| f.severity == Severity::Error && is_baselined(f))
        .count();
    let warns = findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .count();

    if json {
        for f in &findings {
            println!("{}", f.to_json());
        }
    } else {
        for f in &findings {
            if is_baselined(f) {
                println!("{f}\n    (baselined)");
            } else {
                println!("{f}");
            }
        }
        println!(
            "simlint: {} error{}, {} warning{}, {} baselined in {}",
            errors,
            if errors == 1 { "" } else { "s" },
            warns,
            if warns == 1 { "" } else { "s" },
            baselined,
            root.display()
        );
    }

    if deny && errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
