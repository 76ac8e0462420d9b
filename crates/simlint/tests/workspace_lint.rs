//! Lints the real workspace in-process, so that `cargo test --workspace`
//! fails where `simlint --deny` would, and also on any finding of a rule
//! other than `lib-unwrap`: an `allow` naming a rule that does not exist
//! or lacking a reason (warn-level findings `--deny` lets through, though
//! the comment suppresses nothing).  `lib-unwrap` stays a counted
//! warning tier.

use std::path::Path;

use simlint::{lint_workspace, Finding};

/// Unsuppressed `lib-unwrap` warnings in the workspace's library code.
const LIB_UNWRAPS: usize = 53;

#[test]
fn workspace_has_no_findings_but_counted_unwraps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace readable");
    let (unwraps, other): (Vec<&Finding>, Vec<&Finding>) =
        findings.iter().partition(|f| f.rule == "lib-unwrap");
    let render = |fs: &[&Finding]| {
        fs.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(other.is_empty(), "{}", render(&other));
    assert_eq!(unwraps.len(), LIB_UNWRAPS, "{}", render(&unwraps));
}
