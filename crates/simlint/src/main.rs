//! CLI for the simlint determinism pass.
//!
//! ```text
//! cargo run -p simlint --              # human report
//! cargo run -p simlint -- --deny      # exit 1 on any unsuppressed error
//! cargo run -p simlint -- --json      # one JSON object per finding
//! cargo run -p simlint -- --list-rules
//! cargo run -p simlint -- --root path/to/tree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{lint_workspace, rules, Severity};

fn usage() -> &'static str {
    "simlint — determinism lint for the daos-io-sim workspace\n\n\
     USAGE: simlint [--deny] [--json] [--list-rules] [--root DIR]\n\n\
     --deny            exit non-zero if any unsuppressed error-level\n\
                       finding remains\n\
     --json            emit findings as JSON lines instead of human text\n\
     --list-rules      print the rule registry and exit\n\
     --root DIR        lint DIR instead of the inferred workspace root"
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

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--list-rules" => {
                for r in rules() {
                    println!("{:<30} {:<5} {}", r.id, r.severity.to_string(), r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--root requires a directory argument\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(workspace_root);
    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simlint: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warns = findings.len() - errors;

    if json {
        for f in &findings {
            println!("{}", f.to_json());
        }
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "simlint: {} error{}, {} warning{} in {}",
            errors,
            if errors == 1 { "" } else { "s" },
            warns,
            if warns == 1 { "" } else { "s" },
            root.display()
        );
    }

    if deny && errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
