//! Lints the real workspace in-process, with every stage, so that
//! `cargo test --workspace` fails where `simlint --deny` would, and also
//! on an `allow` naming a rule that does not exist (a warn-level finding
//! `--deny` lets through, though the comment suppresses nothing).

use std::path::Path;

use simlint::{lint_workspace, Finding, Severity};

#[test]
fn workspace_has_no_errors_and_no_unknown_allows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root, true).expect("workspace readable");
    let bad: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error || f.rule == "unknown-allow")
        .collect();
    assert!(
        bad.is_empty(),
        "{}",
        bad.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
