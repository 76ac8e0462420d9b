//! Drives the built `simlint` binary end to end over fixture trees.
//! Each fixture under `tests/fixtures/` is a miniature workspace layout
//! (`crates/<name>/src/lib.rs`) that is linted, never compiled.

use std::path::PathBuf;
use std::process::{Command, Output};

fn simlint_on(fixture: &str, args: &[&str]) -> Output {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run simlint")
}

#[test]
fn cli_deny_fails_on_fixture_errors() {
    // A `HashMap` in simulation state is error-level.
    let out = simlint_on("hash_state", &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Without `--deny` the same findings are only reported.
    let out = simlint_on("hash_state", &["--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.lines()
            .any(|l| l.contains("\"rule\":\"hash-collections-in-sim-state\"")),
        "{json}"
    );
}

#[test]
fn cli_clean_fixture_passes_deny() {
    let out = simlint_on("clean", &["--deny", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn cli_list_rules_prints_one_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--list-rules")
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    let registry: Vec<&str> = simlint::rules().iter().map(|r| r.id).collect();
    assert_eq!(listed, registry);
}

#[test]
fn cli_rejects_unknown_arguments() {
    let out = simlint_on("clean", &["--no-flow"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
