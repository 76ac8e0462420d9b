//! End-to-end chaos harness acceptance: seeded swarms run green, every
//! family's cases are pinned and replay from their archives, and a
//! deliberately planted invariant violation is detected by the oracles,
//! shrunk to a minimal schedule by delta debugging, archived to JSON,
//! and replayed byte-identically from the archive.

use benchkit::chaos::{
    archive_case, default_chaos_spec, family, family_of, parse_schedule, replay, run_case,
    run_seed, schedule_json, swarm, ChaosVerdict, EngineFamily, FaultedFamily, FAMILIES,
};
use benchkit::faulted::FaultedScenario;
use benchkit::{IntegrityFamily, IntegrityScenario, RebalanceFamily, RebalanceScenario, RunSpec};
use cluster::Calibration;
use daos_core::{OracleKind, TargetId};
use simkit::{FaultAction, FaultPlan, SimTime};

mod common;
use common::fold_cases;

#[test]
fn seeded_swarm_is_green_over_both_families() {
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 8;
    let cal = Calibration::default();

    let faulted = swarm::<FaultedFamily>(&spec, &cal, &[1, 2]).unwrap();
    assert_eq!(faulted.verdicts.len(), 2 * FaultedScenario::ALL.len());
    assert!(faulted.passed(), "faulted swarm:\n{}", faulted.render());
    assert_eq!(
        fold_cases(&faulted),
        0xd345_e389_f03b_75d8,
        "faulted cases drifted:\n{}",
        faulted.render()
    );
    // every case actually audited something
    for v in &faulted.verdicts {
        assert!(
            v.oracle.checked_kv + v.oracle.checked_extents > 0,
            "case {} seed {} audited nothing",
            v.scenario,
            v.seed
        );
    }

    let mut espec = benchkit::RunSpec::new(2, 1, 2);
    espec.ops_per_proc = 8;
    let engine = swarm::<EngineFamily>(&espec, &cal, &[5]).unwrap();
    assert!(engine.passed(), "engine swarm:\n{}", engine.render());
    let pinned = swarm::<EngineFamily>(&espec, &cal, &[1, 2]).unwrap();
    assert_eq!(
        fold_cases(&pinned),
        0x9211_e105_cbac_c33a,
        "engine cases drifted:\n{}",
        pinned.render()
    );
}

#[test]
fn scenario_names_are_unique_across_families() {
    let names: Vec<&str> = FAMILIES.iter().flat_map(|f| (f.scenario_names)()).collect();
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "{name} names two scenarios");
    }
    for f in FAMILIES {
        assert_eq!(family(f.name).map(|g| g.name), Some(f.name));
        for name in (f.scenario_names)() {
            assert_eq!(family_of(name).map(|g| g.name), Some(f.name), "{name}");
        }
    }
}

/// Archive `v` as JSON, parse it back and replay it from the archive.
fn assert_replays(v: &ChaosVerdict, spec: &RunSpec, cal: &Calibration) {
    let json = schedule_json(v.scenario, v.seed, spec, &v.plan);
    assert!(json.contains("repro -- replay --schedule"), "{json}");
    let arch = parse_schedule(&json).expect("parses");
    assert_eq!(arch.scenario, v.scenario);
    assert_eq!(arch.plan.to_json(), v.plan.to_json());
    let replayed = replay(&arch, cal).expect("replays");
    assert_eq!(
        replayed.digest, v.digest,
        "{}: archive pins the run",
        v.scenario
    );
    assert_eq!(replayed.passed(), v.passed());
    assert_eq!(replayed.csum, v.csum);
    assert_eq!(replayed.scrub, v.scrub);
}

#[test]
fn one_case_per_family_archives_and_replays_identically() {
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 8;
    let cal = Calibration::default();
    let faulted = run_seed::<FaultedFamily>(&spec, FaultedScenario::IorHardEc2p1, &cal, 3).unwrap();
    assert_replays(&faulted, &spec, &cal);
    let mut espec = RunSpec::new(2, 1, 2);
    espec.ops_per_proc = 8;
    let engine = run_seed::<EngineFamily>(&espec, benchkit::Scenario::IorDfs, &cal, 3).unwrap();
    assert_replays(&engine, &espec, &cal);
    let rebalance =
        run_seed::<RebalanceFamily>(&spec, RebalanceScenario::IorHardEc2p1, &cal, 3).unwrap();
    assert_replays(&rebalance, &spec, &cal);
    // a scrubbing case, so the replay is checked on the scrub report too
    let integrity =
        run_seed::<IntegrityFamily>(&spec, IntegrityScenario::ScrubReadRace, &cal, 9).unwrap();
    assert!(integrity.scrub.is_some(), "scrub-read-race scrubs");
    assert_replays(&integrity, &spec, &cal);
}

#[test]
fn replay_rejects_an_unknown_scenario() {
    let json = schedule_json(
        "no/such-scenario",
        1,
        &default_chaos_spec(),
        &FaultPlan::new(),
    );
    let arch = parse_schedule(&json).expect("parses");
    let err = replay(&arch, &Calibration::default()).expect_err("unknown");
    assert!(err.contains("no/such-scenario"), "{err}");
}

/// A slow-disk event on a resource no deployment registers: every
/// family's replay fails with the install error instead of panicking
/// when the event would fire.
#[test]
fn replay_rejects_a_plan_naming_an_unknown_resource() {
    let plan = FaultPlan::from_json(
        r#"{"events":[{"at_ns":0,"id":0,"action":{"kind":"slow_disk","resource":1000000,"scale":0.5}}]}"#,
    )
    .expect("parses");
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 2;
    let scenarios = [
        FaultedScenario::IorEasyRp2.name(),
        benchkit::Scenario::IorDfs.name(),
        RebalanceScenario::IorEasyRp2.name(),
        IntegrityScenario::RotUnderRebalance.name(),
        IntegrityScenario::ScrubReadRace.name(),
    ];
    for scenario in scenarios {
        let arch = parse_schedule(&schedule_json(scenario, 0, &spec, &plan)).expect("parses");
        let err = replay(&arch, &Calibration::default()).expect_err("does not install");
        assert!(
            err.contains("resource 1000000 is not registered"),
            "{scenario}: {err}"
        );
    }
}

/// A schedule that genuinely breaks the redundancy invariant: the
/// rebuild chain is armed once, by the first crash (rescan fires 2 ms
/// later), so a crash landing *after* the rescan leaves its target down
/// with nothing re-protecting the groups it belonged to.  Target 2.1
/// sits in a shard group of this workload's layout; the delayed
/// completions, the sibling crash the rebuild absorbs, and the restart
/// of an unrelated target are all shrinkable noise.
fn planted_plan() -> FaultPlan {
    let crash = |s: u16, t: u16| {
        FaultAction::TargetCrash(
            TargetId {
                server: s,
                target: t,
            }
            .pack(),
        )
    };
    let mut plan = FaultPlan::new();
    // trigger crash: arms the one-shot rebuild (rescan at +2 ms)
    plan.at(SimTime(0), crash(1, 0));
    // noise: recoverable weather and a sibling crash the rebuild absorbs
    plan.at(
        SimTime(100_000),
        FaultAction::DelayedCompletion {
            payload: 0,
            extra_ns: 50_000,
        },
    );
    plan.at(SimTime(500_000), crash(1, 1));
    // the stranded crash: lands after the rescan, never restarted,
    // never re-protected
    plan.at(SimTime(3_000_000), crash(2, 1));
    // more noise: a restart that heals one of the absorbed crashes
    plan.at(
        SimTime(4_000_000),
        FaultAction::TargetRestart(
            TargetId {
                server: 1,
                target: 1,
            }
            .pack(),
        ),
    );
    plan
}

#[test]
fn planted_violation_is_caught_shrunk_and_replayed_from_archive() {
    let mut spec = default_chaos_spec();
    // a long read phase (~50 ms simulated) keeps work in flight well
    // past the rebuild rescan, so the stranded crash actually fires
    spec.ops_per_proc = 64;
    let cal = Calibration::default();
    let scen = FaultedScenario::IorEasyRp2;
    let plan = planted_plan();

    // 1. detection: the redundancy oracle flags the stranded target
    let verdict = run_case::<FaultedFamily>(&spec, scen, &cal, 0xBAD, plan.clone()).unwrap();
    assert!(!verdict.passed(), "planted violation must be caught");
    assert!(
        verdict
            .oracle
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::RedundancyRestored && v.detail.contains("2.1")),
        "expected a RedundancyRestored violation naming target 2.1:\n{}",
        verdict.oracle.render()
    );

    // 2. archiving: the schedule and a traced replay are written, and
    // delta debugging reduces the schedule to the minimal failing pair
    // (trigger crash + stranded crash), written beside them
    let out = std::env::temp_dir().join(format!("chaos-swarm-{}", std::process::id()));
    let archive = archive_case::<FaultedFamily>(&verdict, &spec, &cal, &out).expect("archives");
    let stem = archive.path.file_stem().expect("stem").to_string_lossy();
    assert_eq!(stem, "faulted-ior-easy-rp-2-crash-seed0x0bad");
    assert!(out.join(format!("{stem}.trace.json")).exists(), "traced");
    let outcome = archive.shrunk.expect("a single run fails, so it shrinks");
    assert!(outcome.reproduced, "shrinker must reproduce the failure");
    assert_eq!(
        outcome.plan.len(),
        2,
        "minimal repro is the crash pair, got:\n{}",
        outcome.plan.to_json()
    );
    assert!(outcome.removed >= 2, "noise events were removed");
    for ev in outcome.plan.events() {
        assert!(
            matches!(ev.action, FaultAction::TargetCrash(_)),
            "only crashes survive shrinking: {:?}",
            ev.action
        );
    }

    // 3. replay: the minimal reproducer's JSON round-trips and the
    // replay command reruns the shrunken schedule byte-identically
    let direct = run_case::<FaultedFamily>(&spec, scen, &cal, 0xBAD, outcome.plan.clone()).unwrap();
    assert!(!direct.passed(), "shrunken schedule still fails");
    let json = std::fs::read_to_string(archive.path.with_extension("min.json"));
    std::fs::remove_dir_all(&out).expect("removes the archive");
    let arch = parse_schedule(&json.expect("minimal reproducer written")).expect("archive parses");
    assert_eq!(arch.plan.to_json(), outcome.plan.to_json());
    let replayed = replay(&arch, &cal).expect("archive replays");
    assert_eq!(
        replayed.digest, direct.digest,
        "replay from archive is byte-identical"
    );
    assert!(!replayed.passed());
}
