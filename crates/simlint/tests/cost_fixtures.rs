//! Fixture-workspace tests for the stage-3 cost pass.
//!
//! Mirrors `flow_fixtures.rs`: each fixture under `tests/fixtures/` is a
//! miniature workspace layout that is analyzed — never compiled — so
//! every cost analysis demonstrates at least one true positive and one
//! clean negative on stable input.  The CLI test drives the built
//! binary end-to-end to cover `--deny`.

use std::path::PathBuf;
use std::process::Command;

use simlint::cost;
use simlint::{Finding, Severity};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze_fixture(name: &str) -> Vec<Finding> {
    cost::analyze_tree(&fixture_root(name)).expect("fixture tree readable")
}

// ---------------------------------------------------------------------------
// hot-alloc
// ---------------------------------------------------------------------------

#[test]
fn hot_alloc_true_positive_is_error_in_engine_crate() {
    let findings = analyze_fixture("hot_alloc");
    let hit = findings
        .iter()
        .find(|f| f.rule == "hot-alloc" && f.message.contains("Engine::drain_batch"))
        .expect("per-event allocation in drain_batch flagged");
    assert_eq!(hit.severity, Severity::Error, "{hit:?}");
    assert!(hit.path.starts_with("crates/simkit/"), "{hit:?}");
    assert!(hit.message.contains("Engine::pump"), "names the hot root");
}

#[test]
fn hot_alloc_is_warn_outside_engine_crate() {
    let findings = analyze_fixture("hot_alloc");
    let hit = findings
        .iter()
        .find(|f| f.rule == "hot-alloc" && f.message.contains("`stamp`"))
        .expect("reached allocation in the sibling crate flagged");
    assert_eq!(hit.severity, Severity::Warn, "{hit:?}");
    assert!(hit.path.starts_with("crates/shim/"), "{hit:?}");
}

#[test]
fn hot_alloc_amortized_and_cold_functions_stay_clean() {
    let findings = analyze_fixture("hot_alloc");
    // The amortized setup is exempt; the cold reporter is unreachable.
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("ensure_tables")),
        "{findings:#?}"
    );
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("Engine::report")),
        "{findings:#?}"
    );
}

// ---------------------------------------------------------------------------
// double-lookup
// ---------------------------------------------------------------------------

#[test]
fn double_lookup_true_positives() {
    let findings = analyze_fixture("double_lookup");
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "double-lookup")
        .collect();
    // Probe + insert on the same key suggests the entry API.
    assert!(
        hits.iter()
            .any(|f| f.message.contains("Store::upsert") && f.message.contains("entry")),
        "{hits:#?}"
    );
    // The same key fetched twice.
    assert!(
        hits.iter().any(|f| f.message.contains("Store::double_get")),
        "{hits:#?}"
    );
}

#[test]
fn double_lookup_clean_negatives() {
    let findings = analyze_fixture("double_lookup");
    // Distinct keys and the entry API stay silent.
    assert!(
        findings.iter().all(|f| !f.message.contains("Store::pair")),
        "{findings:#?}"
    );
    assert!(
        findings.iter().all(|f| !f.message.contains("Store::bump")),
        "{findings:#?}"
    );
}

// ---------------------------------------------------------------------------
// hot-state-scan
// ---------------------------------------------------------------------------

#[test]
fn hot_state_scan_true_positive_allow_and_unreached_negatives() {
    let findings = analyze_fixture("hot_scan");
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "hot-state-scan")
        .collect();
    assert!(
        hits.iter().any(|f| f.message.contains("Flows::settle")),
        "{hits:#?}"
    );
    // The allow-carrying scan and the unreached one stay silent.
    assert!(
        hits.iter().all(|f| !f.message.contains("Flows::rebalance")),
        "{hits:#?}"
    );
    assert!(
        hits.iter().all(|f| !f.message.contains("Flows::audit")),
        "{hits:#?}"
    );
}

// ---------------------------------------------------------------------------
// clean workspace
// ---------------------------------------------------------------------------

#[test]
fn clean_fixture_has_no_cost_findings() {
    let findings = analyze_fixture("clean");
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---------------------------------------------------------------------------
// CLI end-to-end: --deny
// ---------------------------------------------------------------------------

#[test]
fn cli_deny_fails_on_hot_alloc_fixture() {
    // The engine-crate hot-alloc error fails --deny.
    let status = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--deny", "--root"])
        .arg(fixture_root("hot_alloc"))
        .output()
        .expect("run simlint");
    assert!(!status.status.success());
}
