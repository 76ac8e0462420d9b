//! End-to-end integrity acceptance: seeded bit rot against replicated
//! and erasure-coded stores is detected and transparently repaired with
//! zero corrupt bytes served; the integrity swarm runs green over both
//! repairable races; and the planted rot-beyond-redundancy case fails
//! loudly as Corruption, ddmin-shrinks to its minimal two-rot schedule,
//! and replays byte-identically from the archived JSON.

use benchkit::chaos::{
    default_chaos_spec, parse_schedule, replay, run_case, run_seed, schedule_json, swarm, Family,
};
use benchkit::faulted::{run_faulted_with, FaultedOpts, FaultedScenario, PlanSource};
use benchkit::integrity::{integrity_plan, IntegrityFamily, IntegrityScenario};
use cluster::Calibration;
use daos_core::{DataMode, OracleKind};
use simkit::{FaultAction, FaultPlan, SimTime};

mod common;
use common::fold_cases;

fn tiny_spec() -> benchkit::RunSpec {
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 8;
    spec
}

/// A fixed schedule planting `rots` single-copy rots across the read
/// window, shards bounded by the widest redundancy group.
fn rot_plan(rots: u64, shards: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..rots {
        plan.at(
            SimTime(1_000_000 + i * 700_000),
            FaultAction::BitRot {
                locus: 0x5eed ^ (i * 0x9e37_79b9),
                shard: i % shards,
            },
        );
    }
    plan
}

#[test]
fn seeded_rot_is_detected_and_repaired_on_rp2_and_ec() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    for (scen, shards) in [
        (FaultedScenario::IorEasyRp2, 2),
        (FaultedScenario::IorHardEc2p1, 3),
    ] {
        let opts = FaultedOpts {
            plan: PlanSource::Fixed(rot_plan(2, shards)),
            mode: DataMode::Full,
            oracles: true,
            ..FaultedOpts::default()
        };
        let (report, _) = run_faulted_with(&spec, scen, &cal, &opts);
        let oracle = report.oracles.expect("oracles ran");
        assert!(
            oracle.ok(),
            "{}: single-copy rot must repair transparently:\n{}",
            scen.name(),
            oracle.render()
        );
        assert!(
            report.csum.detected >= 1,
            "{}: planted rot went undetected",
            scen.name()
        );
        assert!(report.csum.repaired >= 1, "{}: no repair", scen.name());
        assert_eq!(report.csum.served_corrupt, 0, "{}", scen.name());
        assert_eq!(report.csum.unrepairable, 0, "{}", scen.name());
    }
}

#[test]
fn integrity_swarm_is_green_over_every_scenario() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    let report = swarm::<IntegrityFamily>(&spec, &cal, &[1, 2]).unwrap();
    assert_eq!(report.verdicts.len(), 2 * IntegrityScenario::ALL.len());
    assert!(report.passed(), "integrity swarm:\n{}", report.render());
    assert_eq!(
        fold_cases(&report),
        0x0439_ea87_2888_736e,
        "integrity cases drifted:\n{}",
        report.render()
    );
    for v in &report.verdicts {
        let csum = v.csum.expect("integrity cases report checksums");
        assert_eq!(csum.served_corrupt, 0, "{}", v.render_line());
        assert!(csum.detected >= 1, "{}", v.render_line());
    }
    // the scrubbing scenario completed exactly one throttled pass per run
    for v in report
        .verdicts
        .iter()
        .filter(|v| v.scenario == IntegrityScenario::ScrubReadRace.name())
    {
        let scrub = v.scrub.expect("scrub-read-race scrubs");
        assert_eq!(scrub.passes, 1, "{}", v.render_line());
        assert!(scrub.units_scanned > 0);
        assert_eq!(scrub.unrepairable, 0);
    }
}

#[test]
fn rot_beyond_redundancy_shrinks_and_replays_from_archive() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    let scen = IntegrityScenario::RotBeyondRedundancy;

    // 1. detection: the planted double rot fails loudly as Corruption
    let v = run_seed::<IntegrityFamily>(&spec, scen, &cal, 7).unwrap();
    assert!(v.passed(), "loud corruption expected:\n{}", v.render_line());
    assert!(!v.oracle.ok());
    assert!(v
        .oracle
        .violations
        .iter()
        .all(|viol| viol.oracle == OracleKind::Corruption));
    let csum = v.csum.expect("integrity cases report checksums");
    assert_eq!(csum.served_corrupt, 0, "refused, never served");
    assert!(csum.unrepairable >= 1);

    // 2. shrinking: ddmin keeps exactly the load-bearing rot pair; the
    // preserved signature is the loud corruption verdict itself (the
    // case is green, so the harness's `!ok` probe would not shrink it)
    let outcome = simkit::shrink(&v.plan, |candidate| {
        let oracle = IntegrityFamily::run_under(&spec, scen, &cal, candidate, false)
            .unwrap()
            .oracle;
        !oracle.violations.is_empty()
            && oracle
                .violations
                .iter()
                .all(|viol| viol.oracle == OracleKind::Corruption)
    });
    assert!(outcome.reproduced, "shrinker must reproduce the corruption");
    assert_eq!(outcome.plan.len(), 2, "both rots are load-bearing");
    for ev in outcome.plan.events() {
        assert!(
            matches!(ev.action, FaultAction::BitRot { .. }),
            "only rots survive shrinking: {:?}",
            ev.action
        );
    }

    // 3. archive: the shrunken schedule round-trips through JSON and
    // replays byte-identically
    let direct = run_case::<IntegrityFamily>(&spec, scen, &cal, 7, outcome.plan.clone()).unwrap();
    assert!(!direct.oracle.ok(), "shrunken schedule still screams");
    let json = schedule_json(scen.name(), 7, &spec, &outcome.plan);
    let arch = parse_schedule(&json).expect("archive parses");
    assert_eq!(arch.plan.to_json(), outcome.plan.to_json());
    let replayed = replay(&arch, &cal).expect("archive replays");
    assert_eq!(
        replayed.digest, direct.digest,
        "replay from archive is byte-identical"
    );
    assert_eq!(replayed.csum, direct.csum);
}

#[test]
fn traced_integrity_case_keeps_its_digest() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    for scen in IntegrityScenario::ALL {
        let plan = integrity_plan(scen, 4);
        let plain = run_case::<IntegrityFamily>(&spec, scen, &cal, 4, plan.clone()).unwrap();
        let traced = IntegrityFamily::run_under(&spec, scen, &cal, &plan, true).unwrap();
        assert_eq!(
            traced.digest,
            plain.digest,
            "{}: spans moved the digest",
            scen.name()
        );
        assert_eq!(
            traced.exports.is_some(),
            IntegrityFamily::traces(scen),
            "{}: a trace exactly where the family says it records spans",
            scen.name()
        );
    }
}
