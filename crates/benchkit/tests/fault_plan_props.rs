//! No fault plan panics a run.  Arbitrary plans, built through
//! [`FaultPlan::at`] from every [`FaultAction`] kind, run through both
//! faulted entries, [`try_run_faulted_with`] and [`run_rebalance_with`],
//! and through the engine family's entry, [`run_scenario_chaos`].
//! Their payloads name targets and servers in and out of the pool, they
//! add and drain unknown or repeated ranks, and they carry any delay
//! payload and any bit-rot locus and shard.  Capacity scales may be zero,
//! negative, NaN or huge, times fall at 0, inside the read phase, past the
//! run or at the end of the clock, and events may be duplicated.  Each run
//! must return `Ok` or `Err`: a plan the deployment cannot apply is
//! rejected before the write phase (by `check_plan` in the faulted
//! entries, by `Scheduler::install_faults` in the engine entry), and
//! every other plan runs to the end.
//!
//! Degenerate sweep points get the same contract: every scenario of
//! every chaos family, at every spec with zero or few servers, client
//! nodes, processes per node or ops, returns `Ok` or `Err` (a spec with
//! no server is rejected before anything deploys).
//!
//! The IOR runs tolerate unavailable reads: data that a plan destroys
//! beyond the class redundancy is counted as an unavailable read and
//! left to the oracles, not turned into a benchmark-driver abort.  The
//! rebalance runs use the one rebalance scenario that tolerates them,
//! IOR-easy on unreplicated `S1` objects.

use std::panic::{catch_unwind, AssertUnwindSafe};

use benchkit::faulted::try_run_faulted_with;
use benchkit::{
    run_rebalance_with, run_scenario_chaos, EngineFamily, Family, FaultedFamily, FaultedOpts,
    FaultedScenario, IntegrityFamily, PlanSource, RebalanceFamily, RebalanceOpts,
    RebalanceScenario, RunSpec, Scenario,
};
use cluster::Calibration;
use daos_core::{DataMode, TargetId};
use proptest::prelude::*;
use simkit::{FaultAction, FaultPlan, ResourceId, SimTime};

/// Targets per server: few, so a crash hits many redundancy groups.
const TARGETS: u16 = 4;

/// A small deployment: four servers (two spares more for rebalance) of
/// [`TARGETS`] targets, two client nodes of two processes, four 32 KiB
/// ops per process: a read phase of about 1.6 ms.
fn deployment() -> (RunSpec, Calibration) {
    let mut spec = RunSpec::new(4, 2, 2);
    spec.ops_per_proc = 4;
    spec.transfer = 32 << 10;
    let cal = Calibration {
        targets_per_server: TARGETS.into(),
        ..Calibration::default()
    };
    (spec, cal)
}

/// Event times a plan may hold: the phase boundary, inside the read
/// phase (mostly), while injected delays stretch it, and long past the
/// run.
fn time() -> impl Strategy<Value = SimTime> {
    prop_oneof![
        Just(0u64),
        0u64..1_500_000,
        0u64..1_500_000,
        0u64..1_500_000,
        0u64..1_500_000,
        0u64..20_000_000,
        1u64 << 40..1u64 << 50,
    ]
    .prop_map(SimTime)
}

/// Any event time, up to the end of the clock.
fn wild_time() -> impl Strategy<Value = SimTime> {
    prop_oneof![any::<u64>().prop_map(SimTime), Just(SimTime::NEVER)]
}

/// Packed ids of the targets of `servers`.
fn target(servers: std::ops::Range<u16>) -> impl Strategy<Value = u64> {
    (servers, 0..TARGETS).prop_map(|(server, target)| TargetId { server, target }.pack())
}

/// Actions every deployment can apply, over the four deployed servers:
/// crashes (twice as likely as other kinds) and restarts in any order,
/// capacity fractions down to a
/// near-dead device on any resource (registered or not), delays and
/// their clears, drains, and any bit-rot locus and shard.
fn action() -> impl Strategy<Value = FaultAction> {
    let scale = || prop_oneof![0.001f64..1.0, Just(1.0), Just(0.001)];
    let resource = || (0u32..200).prop_map(ResourceId);
    prop_oneof![
        target(0..4).prop_map(FaultAction::TargetCrash),
        target(0..4).prop_map(FaultAction::TargetCrash),
        target(0..4).prop_map(FaultAction::TargetRestart),
        (resource(), scale())
            .prop_map(|(resource, scale)| FaultAction::SlowDisk { resource, scale }),
        (resource(), scale())
            .prop_map(|(resource, scale)| FaultAction::NicBrownout { resource, scale }),
        (
            0u64..4,
            prop_oneof![Just(0u64), 0u64..1_000_000, 1u64 << 40..1u64 << 50]
        )
            .prop_map(|(payload, extra_ns)| FaultAction::DelayedCompletion { payload, extra_ns }),
        (0u64..4).prop_map(|server| FaultAction::DrainServer { server }),
        (any::<u64>(), prop_oneof![0u64..4, any::<u64>()])
            .prop_map(|(locus, shard)| FaultAction::BitRot { locus, shard }),
    ]
}

/// Membership churn only the rebalance deployment's two spare servers
/// can take: adds, repeated or not, and drains, crashes and restarts of
/// spares, which may come before the spare joins.
fn spare_action() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        (4u64..6).prop_map(|server| FaultAction::AddServer { server }),
        (4u64..6).prop_map(|server| FaultAction::DrainServer { server }),
        target(4..6).prop_map(FaultAction::TargetCrash),
        target(4..6).prop_map(FaultAction::TargetRestart),
    ]
}

/// Packed target ids outside the pool: past the targets of a server,
/// past the hardware's servers, or any `u64`.
fn wild_target() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u16..10, TARGETS..40).prop_map(|(server, target)| TargetId { server, target }.pack()),
        (4u16..10, 0..TARGETS).prop_map(|(server, target)| TargetId { server, target }.pack()),
        any::<u64>(),
    ]
}

/// Server ranks past the hardware, or any `u64`.
fn wild_rank() -> impl Strategy<Value = u64> {
    prop_oneof![6u64..10, any::<u64>()]
}

/// One malformed thing, each kind equally likely: a time past half the
/// clock, a crash or restart of a target outside the pool, a delay,
/// add or drain naming a rank outside the hardware, an add of a
/// deployed server, a delay past half the clock, a zero, negative, NaN,
/// infinite, huge or near-zero capacity scale, an unregistered
/// resource, or more server adds than there are spares.
fn wild_events() -> impl Strategy<Value = Vec<(SimTime, FaultAction)>> {
    let scale = prop_oneof![
        Just(0.0),
        Just(-0.5),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(1e300),
        Just(1e-300),
        Just(2.0),
    ];
    let resource = prop_oneof![200u32..400, any::<u32>()].prop_map(ResourceId);
    let extra_ns = prop_oneof![1u64 << 63..u64::MAX, Just(u64::MAX)];
    let add = |server| FaultAction::AddServer { server };
    prop_oneof![
        (wild_time(), action()).prop_map(|e| vec![e]),
        (time(), wild_target()).prop_map(|(at, t)| vec![(at, FaultAction::TargetCrash(t))]),
        (time(), wild_target()).prop_map(|(at, t)| vec![(at, FaultAction::TargetRestart(t))]),
        (time(), wild_rank()).prop_map(|(at, payload)| {
            let extra_ns = 100_000;
            vec![(at, FaultAction::DelayedCompletion { payload, extra_ns })]
        }),
        (time(), prop_oneof![0u64..4, wild_rank()]).prop_map(move |(at, s)| vec![(at, add(s))]),
        (time(), wild_rank())
            .prop_map(|(at, server)| vec![(at, FaultAction::DrainServer { server })]),
        (time(), 0u64..4, extra_ns).prop_map(|(at, payload, extra_ns)| {
            vec![(at, FaultAction::DelayedCompletion { payload, extra_ns })]
        }),
        (time(), 0u32..200, scale, any::<bool>()).prop_map(|(at, r, scale, disk)| {
            let resource = ResourceId(r);
            let action = if disk {
                FaultAction::SlowDisk { resource, scale }
            } else {
                FaultAction::NicBrownout { resource, scale }
            };
            vec![(at, action)]
        }),
        (time(), resource).prop_map(|(at, resource)| {
            vec![(
                at,
                FaultAction::SlowDisk {
                    resource,
                    scale: 0.5,
                },
            )]
        }),
        collection::vec((time(), (4u64..6).prop_map(add)), 3..5),
    ]
}

/// A plan of one to eleven events every deployment can apply, the first
/// `dups` of them scheduled a second time, then in a third of the plans
/// some spare churn, and in three quarters one malformed thing (a plan
/// the validator rejects costs no run, so they are cheap).
fn plan() -> impl Strategy<Value = FaultPlan> {
    let spare = prop_oneof![
        Just(Vec::new()),
        Just(Vec::new()),
        collection::vec((time(), spare_action()), 1..4)
    ];
    let wild = prop_oneof![
        Just(Vec::new()),
        wild_events(),
        wild_events(),
        wild_events()
    ];
    (
        collection::vec((time(), action()), 1..12),
        0usize..3,
        spare,
        wild,
    )
        .prop_map(|(events, dups, spare, wild)| {
            let mut plan = FaultPlan::new();
            let dup = events.iter().take(dups);
            for &(at, action) in events.iter().chain(dup).chain(&spare).chain(&wild) {
                plan.at(at, action);
            }
            plan
        })
}

/// Run `f`, turning a panic into its message.
fn no_panic<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => Ok(()),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_fault_plan_panics_a_run(plan in plan()) {
        let (spec, cal) = deployment();
        for scen in [FaultedScenario::IorEasyRp2, FaultedScenario::IorHardEc2p1] {
            let opts = FaultedOpts {
                plan: PlanSource::Fixed(plan.clone()),
                mode: DataMode::Full,
                oracles: true,
                scrub: true,
                tolerate_unavailable: true,
                ..FaultedOpts::default()
            };
            let run = no_panic(|| try_run_faulted_with(&spec, scen, &cal, &opts));
            prop_assert!(run.is_ok(), "{} panicked: {:?}\nplan: {}", scen.name(), run, plan.to_json());
        }
        let opts = RebalanceOpts {
            plan: PlanSource::Fixed(plan.clone()),
            mode: DataMode::Full,
            oracles: true,
            ..RebalanceOpts::default()
        };
        let scen = RebalanceScenario::IorEasyS1;
        let run = no_panic(|| run_rebalance_with(&spec, scen, &cal, &opts));
        prop_assert!(run.is_ok(), "{} panicked: {:?}\nplan: {}", scen.name(), run, plan.to_json());
        let scen = Scenario::IorDaos;
        let run = no_panic(|| run_scenario_chaos(&spec, scen, &cal, &plan));
        prop_assert!(run.is_ok(), "{} panicked: {:?}\nplan: {}", scen.name(), run, plan.to_json());
    }
}

/// Run every scenario of family `F` at `spec` with no faults.
fn run_family<F: Family>(spec: &RunSpec, cal: &Calibration) -> Result<(), String> {
    for &scen in F::ALL {
        let run = no_panic(|| F::run_under(spec, scen, cal, &FaultPlan::new(), false));
        run.map_err(|e| format!("{} panicked: {e}", F::scenario_name(scen)))?;
    }
    Ok(())
}

/// Every degenerate sweep point, with each of servers, client nodes,
/// processes per node and ops per process drawn from 0, 1 and 2, runs
/// every scenario of every family to `Ok` or `Err`.
#[test]
fn no_degenerate_spec_panics_a_family() {
    let (_, cal) = deployment();
    for n in 0..81 {
        let mut spec = RunSpec::new(n % 3, n / 3 % 3, n / 9 % 3);
        spec.ops_per_proc = n / 27;
        spec.transfer = 32 << 10;
        let runs = [
            run_family::<FaultedFamily>(&spec, &cal),
            run_family::<EngineFamily>(&spec, &cal),
            run_family::<RebalanceFamily>(&spec, &cal),
            run_family::<IntegrityFamily>(&spec, &cal),
        ];
        for run in runs {
            assert!(run.is_ok(), "{run:?} at {spec:?}");
        }
    }
}
