//! Span-trace determinism: the observability acceptance gate.
//!
//! For every paper scenario, an observed run (`run_reported`: spans,
//! telemetry, windowed monitor, SLO rules) must (a) leave the replay
//! digest exactly where the unobserved run puts it — observation is
//! pure — and (b) replay byte-identically: same span digest, same
//! Chrome `trace_event` JSON, same critical-path report, same run
//! report.  On top, each interface stack must actually show up in its
//! trace: parented spans from every layer the scenario's call path
//! crosses.

use benchkit::runreport::{default_slo_rules, run_reported};
use benchkit::scenarios::{run_scenario_digest, RunSpec, Scenario};
use cluster::Calibration;

fn small_spec() -> RunSpec {
    let mut spec = RunSpec::new(1, 1, 2);
    spec.ops_per_proc = 8;
    spec
}

/// Layers whose spans the scenario's call path must produce.
fn expected_layers(scen: Scenario) -> &'static [&'static str] {
    match scen {
        Scenario::IorDaos => &["ior", "libdaos", "target"],
        Scenario::IorDfs => &["ior", "libdfs", "libdaos", "target"],
        Scenario::IorDfuse => &["ior", "dfuse", "libdfs", "libdaos", "target"],
        Scenario::IorDfuseIl => &["ior", "il", "libdfs", "libdaos", "target"],
        Scenario::IorHdf5DfuseIl => &["ior", "hdf5", "il", "libdfs", "libdaos"],
        Scenario::IorHdf5Daos => &["ior", "hdf5", "libdaos", "target"],
        Scenario::FieldIo => &["fieldio", "libdaos", "target"],
        Scenario::FdbDaos => &["fdb", "libdaos", "target"],
        Scenario::IorLustre => &["ior", "lustre"],
        Scenario::FdbLustre => &["fdb", "lustre"],
        Scenario::IorCeph => &["ior", "rados"],
        Scenario::FdbCeph => &["fdb", "rados"],
    }
}

#[test]
fn every_scenario_observes_deterministically() {
    // Spans, telemetry and SLO evaluation are pure observation: with the
    // full pipeline on (windowed monitor, span log, metrics registry,
    // SLO rules), every scenario must keep the unobserved replay digest
    // and export byte-identical artifacts across replays.
    let spec = small_spec();
    let cal = Calibration::default();
    let rules = default_slo_rules();
    for scen in Scenario::ALL {
        let name = scen.name();
        let (_, plain_digest) = run_scenario_digest(&spec, scen, &cal);
        let a = run_reported(&spec, scen, &cal, &rules);
        let b = run_reported(&spec, scen, &cal, &rules);
        assert_eq!(
            a.report.replay_digest, plain_digest,
            "{name}: observation perturbed the replay digest"
        );
        assert_eq!(
            a.exports.span_digest, b.exports.span_digest,
            "{name}: span digest drifted across replays"
        );
        assert_eq!(
            a.exports.chrome_json, b.exports.chrome_json,
            "{name}: Chrome export not byte-identical"
        );
        assert_eq!(
            a.exports.critical_path, b.exports.critical_path,
            "{name}: critical-path report not byte-identical"
        );
        assert_eq!(
            a.report.render_json(),
            b.report.render_json(),
            "{name}: run-report JSON not byte-identical"
        );
        assert_eq!(
            a.report.render_text(),
            b.report.render_text(),
            "{name}: run-report text not byte-identical"
        );
        assert!(a.exports.span_count > 0, "{name}: empty trace");
        assert!(
            a.exports.chrome_json.contains("\"ph\":\"C\""),
            "{name}: no counter tracks in trace"
        );
        assert!(!a.report.counters.is_empty(), "{name}: no counters sampled");
        assert!(!a.report.verdicts.is_empty(), "{name}: no SLO verdicts");
        // each interface stack shows up: every layer the scenario's call
        // path crosses is on the critical path
        let layers = a.exports.layers();
        for want in expected_layers(scen) {
            assert!(
                layers.contains(want),
                "{name}: no {want} span on the critical path (saw {layers:?})"
            );
        }
        let top = a.exports.top_of_layer(expected_layers(scen)[0], 3);
        assert!(
            !top.is_empty() && top.len() <= 3,
            "{name}: top-3 rows {top:?}"
        );
        // parentage: some span nests under another (the JSON records the
        // parent id in its args; 0 marks a root)
        let nested = a
            .exports
            .chrome_json
            .split("},{")
            .any(|ev| ev.contains("\"parent\":") && !ev.contains("\"parent\":0,"));
        assert!(nested, "{name}: all spans are roots");
    }
}
