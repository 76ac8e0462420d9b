//! End-to-end determinism check: every paper scenario, executed twice
//! from fresh state, must produce identical replay digests and
//! bit-identical bandwidths.  This is the runtime counterpart of the
//! clippy bans in `crates/clippy.toml` — if simulation state regresses
//! to hash-ordered iteration (or sim logic starts reading
//! clocks/environment), this test is what catches it.

mod common;

use benchkit::{
    default_chaos_spec, replay_all, run_faulted_with, run_rebalance_with, FaultedOpts,
    FaultedScenario, RebalanceOpts, RebalanceScenario, RunSpec, Scenario,
};
use cluster::Calibration;

/// FNV-1a fold of every builtin-plan digest (see
/// [`builtin_plan_digests_are_pinned`]).
const BUILTIN_PLAN_FOLD: u64 = 0x0c82_90d9_8ec9_e3a3;

/// FNV-1a fold of every paper scenario's replay digest and bandwidth
/// bits at two specs (see [`scenario_digests_are_pinned`]).
const SCENARIO_FOLD: u64 = 0xd5f4_1283_ebd5_9d30;

/// FNV-1a fold of every paper scenario's replay digest, bandwidth bits
/// and engine work counts at 1 KiB (see
/// [`small_op_scenario_digests_are_pinned`]).
const SMALL_OP_FOLD: u64 = 0xde6d_936a_e65d_1a97;

/// FNV-1a fold of every paper scenario's replay digest, bandwidth bits
/// and engine work counts at 1 MiB with 128 processes (see
/// [`bulk_scenario_work_is_pinned`]).
const BULK_WORK_FOLD: u64 = 0x553a_2beb_d98b_23d0;

#[test]
fn every_scenario_replays_identically() {
    // Small but non-trivial: multiple processes on multiple nodes so
    // completions genuinely interleave, and enough ops per process to
    // exercise setup, steady state and drain in both phases.
    let mut spec = RunSpec::new(2, 2, 4);
    spec.ops_per_proc = 12;
    let reports = replay_all(&spec, &Calibration::default());
    assert_eq!(reports.len(), Scenario::ALL.len());
    let mut failures = Vec::new();
    for r in &reports {
        if !r.deterministic() {
            failures.push(format!(
                "{}: digests {:#018x} vs {:#018x}, bandwidths {:?} vs {:?}",
                r.scenario.name(),
                r.digests[0],
                r.digests[1],
                r.bandwidths[0],
                r.bandwidths[1],
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "nondeterministic scenarios:\n{}",
        failures.join("\n")
    );
}

#[test]
fn scenario_digests_are_pinned() {
    // Double-run equality alone would let a numerics drift in the engine
    // (a solver change that moves one rate by one ulp) pass unnoticed;
    // the pinned fold catches it.  Two specs: the replay spec above and
    // a many-flow one with 128 processes, so about that many transfers
    // share the fabric at once.
    let cal = Calibration::default();
    let mut small = RunSpec::new(2, 2, 4);
    small.ops_per_proc = 12;
    let mut wide = RunSpec::new(4, 4, 32);
    wide.ops_per_proc = 8;
    let mut words = Vec::new();
    for spec in [&small, &wide] {
        for scen in Scenario::ALL {
            let (r, digest) = benchkit::run_scenario_digest(spec, scen, &cal);
            words.push(digest);
            words.push(r.write.bandwidth().to_bits());
            words.push(r.read.bandwidth().to_bits());
        }
    }
    let fold = common::fnv1a(words.iter().map(|w| w.to_le_bytes()));
    assert_eq!(
        fold, SCENARIO_FOLD,
        "scenario digest/bandwidth words {words:#018x?} fold to {fold:#018x}"
    );
}

#[test]
fn small_op_scenario_digests_are_pinned() {
    // The pins above run every scenario at 1 MiB, where IOR on DAOS
    // pays request service as a delay.  At 1 KiB the per-op service
    // resources (DAOS `tgt_svc`, the DFUSE pump, Lustre's MDS, Ceph's
    // OSDs) carry flows of their own, as in Fig. 2.  The engine's work
    // counts are exact too, so a solver change that does more or less
    // work shows up here even when every rate stays put.
    let cal = Calibration::default();
    let mut spec = RunSpec::new(2, 2, 8);
    spec.transfer = 1024;
    spec.ops_per_proc = 16;
    let mut words = Vec::new();
    for scen in Scenario::ALL {
        let (r, digest, work) = benchkit::run_scenario_work(&spec, scen, &cal);
        words.push(digest);
        words.push(r.write.bandwidth().to_bits());
        words.push(r.read.bandwidth().to_bits());
        words.extend(work);
    }
    let fold = common::fnv1a(words.iter().map(|w| w.to_le_bytes()));
    assert_eq!(
        fold, SMALL_OP_FOLD,
        "small-op digest/bandwidth/work words {words:#018x?} fold to {fold:#018x}"
    );
}

#[test]
fn bulk_scenario_work_is_pinned() {
    // The 1 KiB pin above rarely freezes a multi-hop flow; here about
    // 128 transfers of 1 MiB share the fabric at once, so most solves
    // run several filling passes over multi-hop bottlenecks.  Folding
    // the work counts catches a solver change that does more or less
    // work in that regime even where every rate stays put.
    let cal = Calibration::default();
    let mut spec = RunSpec::new(4, 4, 32);
    spec.ops_per_proc = 8;
    let mut words = Vec::new();
    for scen in Scenario::ALL {
        let (r, digest, work) = benchkit::run_scenario_work(&spec, scen, &cal);
        words.push(digest);
        words.push(r.write.bandwidth().to_bits());
        words.push(r.read.bandwidth().to_bits());
        words.extend(work);
    }
    let fold = common::fnv1a(words.iter().map(|w| w.to_le_bytes()));
    assert_eq!(
        fold, BULK_WORK_FOLD,
        "bulk digest/bandwidth/work words {words:#018x?} fold to {fold:#018x}"
    );
}

#[test]
fn digest_distinguishes_workload_shape() {
    // Changing the workload must change the digest: the digest reflects
    // the schedule, not just "a run happened".
    let cal = Calibration::default();
    let mut a = RunSpec::new(1, 1, 2);
    a.ops_per_proc = 8;
    let mut b = a.clone();
    b.ops_per_proc = 9;
    let ra = benchkit::run_scenario_digest(&a, Scenario::IorDaos, &cal).1;
    let rb = benchkit::run_scenario_digest(&b, Scenario::IorDaos, &cal).1;
    assert_ne!(ra, rb);
}

#[test]
fn builtin_plan_digests_are_pinned() {
    // Every faulted scenario with the scrubber off and on, then every
    // rebalance scenario, each under its builtin schedule.  Double-run
    // equality alone would let a driver change drift every digest and
    // stay green; the pinned fold catches any schedule change.
    let spec = default_chaos_spec();
    let cal = Calibration::default();
    let mut digests = Vec::new();
    for scen in FaultedScenario::ALL {
        for scrub in [false, true] {
            let opts = FaultedOpts {
                scrub,
                ..FaultedOpts::default()
            };
            let (r, _) = run_faulted_with(&spec, scen, &cal, &opts);
            assert!(r.rebuild.is_some(), "{}: no rebuild ran", scen.name());
            digests.push(r.digest);
        }
    }
    for scen in RebalanceScenario::ALL {
        let r = run_rebalance_with(&spec, scen, &cal, &RebalanceOpts::default()).unwrap();
        assert!(r.waves > 0, "{}: no migration wave", scen.name());
        digests.push(r.digest);
    }
    let fold = common::fnv1a(digests.iter().map(|d| d.to_le_bytes()));
    assert_eq!(
        fold, BUILTIN_PLAN_FOLD,
        "builtin digests {digests:#018x?} fold to {fold:#018x}"
    );
}
