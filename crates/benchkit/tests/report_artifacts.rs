//! The committed run-report artifacts are pinned: every paper scenario,
//! run through `run_reported` at the `repro report` spec, must render
//! the `results/report-<slug>.*` files byte for byte: report JSON and
//! text, counter-track trace and critical-path report.  A change that
//! moves any number in a report, a latency row, a counter total or one
//! event of the Perfetto trace fails here, with the file and the first
//! differing byte named.

use benchkit::report::slug;
use benchkit::runreport::{default_slo_rules, report_spec, run_reported};
use benchkit::scenarios::Scenario;
use cluster::Calibration;
use std::path::Path;

/// `rendered` must equal the committed `results/<name>`; on a mismatch
/// the message names the file and the first byte that differs.
fn check(name: &str, rendered: &str, failures: &mut Vec<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    let committed = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            failures.push(format!("{name}: cannot read {}: {e}", path.display()));
            return;
        }
    };
    let rendered = rendered.as_bytes();
    if committed != rendered {
        let at = committed
            .iter()
            .zip(rendered)
            .position(|(a, b)| a != b)
            .unwrap_or(committed.len().min(rendered.len()));
        failures.push(format!(
            "{name}: differs from the committed file at byte {at} \
             (committed {} bytes, rendered {})",
            committed.len(),
            rendered.len()
        ));
    }
}

#[test]
fn report_artifacts_match_results() {
    let spec = report_spec();
    let cal = Calibration::default();
    let rules = default_slo_rules();
    let mut failures = Vec::new();
    for scen in Scenario::ALL {
        let run = run_reported(&spec, scen, &cal, &rules);
        let stem = format!("report-{}", slug(scen.name()));
        check(
            &format!("{stem}.report.json"),
            &run.report.render_json(),
            &mut failures,
        );
        check(
            &format!("{stem}.report.txt"),
            &run.report.render_text(),
            &mut failures,
        );
        check(
            &format!("{stem}.counters.trace.json"),
            &run.exports.chrome_json,
            &mut failures,
        );
        check(
            &format!("{stem}.critical-path.txt"),
            &run.exports.critical_path,
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
