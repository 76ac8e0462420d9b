//! Fixture-workspace tests for the stage-2 flow pass.
//!
//! Each fixture under `tests/fixtures/` is a miniature workspace layout
//! (`crates/<name>/src/lib.rs`) that is analyzed — never compiled — so
//! every analysis can demonstrate at least one true positive and one
//! clean negative on stable input.  The CLI tests drive the built
//! binary end-to-end to cover `--deny`.

use std::path::PathBuf;
use std::process::Command;

use simlint::flow;
use simlint::{Finding, Severity};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze_fixture(name: &str) -> Vec<Finding> {
    flow::analyze_tree(&fixture_root(name)).expect("fixture tree readable")
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

#[test]
fn panic_path_true_positives_and_clean_negative() {
    let findings = analyze_fixture("panic_path");
    let panics: Vec<&Finding> = findings.iter().filter(|f| f.rule == "panic-path").collect();

    // Reachable unwrap: error.
    let lookup = panics
        .iter()
        .find(|f| f.message.contains("`lookup`"))
        .expect("unwrap in lookup flagged");
    assert_eq!(lookup.severity, Severity::Error);

    // Reachable slice indexing: warn only.
    let pick = panics
        .iter()
        .find(|f| f.message.contains("`pick`"))
        .expect("indexing in pick flagged");
    assert_eq!(pick.severity, Severity::Warn);

    // The retry-entry caller's own expect: error.
    let drive = panics
        .iter()
        .find(|f| f.message.contains("`drive`"))
        .expect("expect in drive flagged");
    assert_eq!(drive.severity, Severity::Error);

    // Unreachable unwrap: clean.
    assert!(
        panics.iter().all(|f| !f.message.contains("offline_lookup")),
        "{panics:#?}"
    );
}

// ---------------------------------------------------------------------------
// retry-taxonomy
// ---------------------------------------------------------------------------

#[test]
fn retry_taxonomy_true_positives_and_clean_negatives() {
    let findings = analyze_fixture("retry_taxonomy");
    let tax: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "retry-taxonomy")
        .collect();

    // (a) terminal classified retriable via `matches!`.
    assert!(
        tax.iter()
            .any(|f| f.message.contains("StoreError::Lost") && f.message.contains("is_retriable")),
        "{tax:#?}"
    );
    // (b) match arm remapping the terminal variant.
    assert!(
        tax.iter()
            .any(|f| f.message.contains("StoreError::Lost") && f.message.contains("remapped")),
        "{tax:#?}"
    );
    // (c) `map_err` laundering in a carrier of the terminal error.
    assert!(
        tax.iter()
            .any(|f| f.message.contains("map_err") && f.message.contains("`fetch`")),
        "{tax:#?}"
    );

    // Clean negatives: the correct `=> false` classifier and the local
    // `map_err` that no terminal error can reach.
    assert!(
        tax.iter().all(|f| !f.message.contains("NetError::Corrupt")),
        "{tax:#?}"
    );
    assert!(
        tax.iter().all(|f| !f.message.contains("fetch_local")),
        "{tax:#?}"
    );
}

// ---------------------------------------------------------------------------
// clean workspace
// ---------------------------------------------------------------------------

#[test]
fn clean_fixture_has_no_findings() {
    let findings = analyze_fixture("clean");
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------------
// CLI end-to-end: --deny
// ---------------------------------------------------------------------------

fn simlint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
}

#[test]
fn cli_deny_fails_on_fixture_errors() {
    // The reachable `unwrap` in the panic-path fixture is error-level.
    let status = simlint_cmd()
        .args(["--deny", "--root"])
        .arg(fixture_root("panic_path"))
        .output()
        .expect("run simlint");
    assert!(!status.status.success());
}

#[test]
fn cli_clean_fixture_passes_deny() {
    let status = simlint_cmd()
        .args(["--deny", "--root"])
        .arg(fixture_root("clean"))
        .output()
        .expect("run simlint");
    assert!(status.status.success());
}
