//! End-to-end rebalance chaos acceptance: a seeded swarm of live
//! membership changes (server adds, drains, crashes aimed at migration
//! traffic) runs green over the redundant scenario classes, and a
//! deliberately planted lost-extent schedule against unreplicated `S1`
//! data is caught by the durability oracle, shrunk to a minimal
//! reproducer, archived to JSON, and replayed byte-identically from the
//! archive.

use benchkit::chaos::{
    default_chaos_spec, parse_schedule, replay, run_case, schedule_json, shrink_case, swarm,
};
use benchkit::rebalance::{RebalanceFamily, RebalanceScenario};
use cluster::Calibration;
use daos_core::{OracleKind, TargetId};
use simkit::{FaultAction, FaultPlan, SimTime};

mod common;
use common::fold_cases;

#[test]
fn seeded_rebalance_swarm_is_green_over_redundant_classes() {
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 8;
    let cal = Calibration::default();

    let report = swarm::<RebalanceFamily>(&spec, &cal, &[1, 2]).unwrap();
    assert_eq!(
        report.verdicts.len(),
        2 * RebalanceScenario::SWARM.len(),
        "every seed runs every swarm scenario"
    );
    assert!(report.passed(), "rebalance swarm:\n{}", report.render());
    assert_eq!(
        fold_cases(&report),
        0x8bb4_8589_24ba_1dbe,
        "rebalance cases drifted:\n{}",
        report.render()
    );
    for v in &report.verdicts {
        assert!(
            v.oracle.checked_kv + v.oracle.checked_extents > 0,
            "case {} seed {} audited nothing",
            v.scenario,
            v.seed
        );
    }
}

/// A schedule that genuinely loses acknowledged extents: the workload
/// writes unreplicated `S1` data across both deployed servers, server 0
/// is drained (its shards start evacuating toward server 1), and then
/// every target of server 1 crashes.  Whatever originated on server 1
/// plus whatever migration already landed there is gone — `S1` has no
/// redundancy to rebuild from.  The drain and fifteen of the sixteen
/// crashes are shrinkable noise: one crashed target holding acked data
/// already violates durability.
fn planted_lost_extent_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.at(SimTime(1_000_000), FaultAction::DrainServer { server: 0 });
    for target in 0..16 {
        plan.at(
            SimTime(2_000_000),
            FaultAction::TargetCrash(TargetId { server: 1, target }.pack()),
        );
    }
    plan
}

#[test]
fn planted_lost_extent_is_caught_shrunk_and_replayed_from_archive() {
    let mut spec = default_chaos_spec();
    spec.servers = 2;
    spec.client_nodes = 1;
    // a long read phase keeps work in flight well past the drain, the
    // crash volley, and the rebuild rescan, so every event fires
    spec.ops_per_proc = 64;
    let cal = Calibration::default();
    let scen = RebalanceScenario::IorEasyS1;
    let plan = planted_lost_extent_plan();

    // 1. detection: the durability oracle flags the lost extents
    let verdict = run_case::<RebalanceFamily>(&spec, scen, &cal, 0x10EE, plan.clone()).unwrap();
    assert!(!verdict.passed(), "planted lost extents must be caught");
    assert!(
        verdict
            .oracle
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::AckedDurability),
        "expected an AckedDurability violation:\n{}",
        verdict.oracle.render()
    );

    // 2. shrinking: delta debugging strips the drain and the redundant
    // crashes down to a minimal reproducer
    let outcome = shrink_case::<RebalanceFamily>(&spec, scen, &cal, 0x10EE, &plan);
    assert!(outcome.reproduced, "shrinker must reproduce the failure");
    assert!(
        outcome.plan.len() <= 2,
        "minimal repro is at most a crash pair, got:\n{}",
        outcome.plan.to_json()
    );
    assert!(outcome.removed >= 15, "the crash volley was mostly noise");
    for ev in outcome.plan.events() {
        assert!(
            matches!(ev.action, FaultAction::TargetCrash(_)),
            "only crashes survive shrinking: {:?}",
            ev.action
        );
    }

    // 3. archive: JSON round-trips and the replay reruns the shrunken
    // schedule byte-identically
    let direct =
        run_case::<RebalanceFamily>(&spec, scen, &cal, 0x10EE, outcome.plan.clone()).unwrap();
    assert!(!direct.passed(), "shrunken schedule still fails");
    let json = schedule_json(scen.name(), 0x10EE, &spec, &outcome.plan);
    let arch = parse_schedule(&json).expect("archive parses");
    assert_eq!(arch.plan.to_json(), outcome.plan.to_json());
    let replayed = replay(&arch, &cal).expect("archive replays");
    assert_eq!(
        replayed.digest, direct.digest,
        "replay from archive is byte-identical"
    );
    assert!(!replayed.passed());
}
