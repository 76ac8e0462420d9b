//! The rebalance scenario family: live membership changes under load.
//!
//! Each scenario runs a healthy write phase, installs a fault plan at
//! the phase boundary, then drives the read phase through the shared op
//! loop ([`crate::driver`]) with hooks that map membership events onto
//! the elastic-pool API of [`DaosSystem`]:
//!
//! * [`FaultAction::AddServer`] → [`DaosSystem::add_server`] (the
//!   deployment keeps [`SPARE_SERVERS`] unused hardware nodes to grow
//!   into) followed by a [`DaosSystem::rebalance_plan`];
//! * [`FaultAction::DrainServer`] → [`DaosSystem::drain_server`] plus a
//!   plan;
//! * planned moves ship as throttled [`DaosSystem::migration_wave`]s
//!   that compete with the foreground reads through the same fairshare
//!   NIC/engine/NVMe resources;
//! * [`FaultAction::TargetCrash`] → [`DaosSystem::crash_target`] and
//!   the crash → detect → rebuild chain of the faulted family.  A crash
//!   mid-migration invalidates the stale moves (the wave emitter drops
//!   them) and the rebuild re-protects what the crash degraded;
//! * when the pending queue drains, [`DaosSystem::finish_rebalance`]
//!   retires drained targets and promotes reintegrating ones, then one
//!   repair rescan re-protects anything a dropped move left behind.
//!
//! The chaos surface ([`rebalance_space`]) extends the faulted family's
//! with the three rebalance dimensions (server adds, server drains,
//! crashes aimed at migration sources/destinations); [`RebalanceFamily`]
//! plugs it into the shared [`crate::chaos`] harness.

use crate::chaos::{default_chaos_spec, engine_space, scratch_topology, CaseRun, Family};
use crate::driver::{run_ops, run_phase, PhaseHooks, PhaseResult, WavePump};
use crate::faulted::{apply_fault, check_plan, PlanSource, RebuildChain};
use crate::scenarios::{exec, make_sched, RunSpec};
use cluster::bench::Phase;
use cluster::{Calibration, ClusterSpec};
use daos_core::{
    ContainerProps, DaosSystem, DataMode, MigrationProgress, ObjectClass, OracleReport,
    RebuildReport, RetryPolicy, RetryStats, TargetId,
};
use ior_bench::{AccessOrder, Ior, IorBackend, IorConfig};
use simkit::{
    generate, ChaosConfig, ChaosSpace, FaultAction, FaultEvent, FaultPlan, OpId, Scheduler, SimTime,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Spare hardware nodes every rebalance deployment keeps beyond the
/// deployed servers — [`FaultAction::AddServer`] grows into them.
pub const SPARE_SERVERS: usize = 2;

/// Moves shipped per migration wave: the throttle that keeps background
/// migration from starving foreground traffic (each wave is one
/// parallel step; the next is emitted only when it completes).
const WAVE_MOVES: usize = 8;

/// Marker op ids, far above any process index and disjoint from the
/// faulted family's `1 << 40` block.
const OP_WAVE: OpId = OpId(1 << 41);
const OP_REBUILD_TRIGGER: OpId = OpId((1 << 41) + 1);
const OP_REBUILD_DONE: OpId = OpId((1 << 41) + 2);
const OP_RETIRE_REPAIR: OpId = OpId((1 << 41) + 3);

/// The live-rebalance benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebalanceScenario {
    /// IOR easy (file-per-process, sequential) on `RP_2` Arrays.
    IorEasyRp2,
    /// IOR hard (shared file, random offsets) on `EC_2P1` Arrays.
    IorHardEc2p1,
    /// IOR easy on unreplicated `S1` Arrays: no redundancy, so a crash
    /// aimed at a migration destination genuinely loses extents — the
    /// planted-violation scenario the swarm's oracles must catch.
    IorEasyS1,
}

impl RebalanceScenario {
    /// Every rebalance scenario (archive name resolution).
    pub const ALL: [RebalanceScenario; 3] = [
        RebalanceScenario::IorEasyRp2,
        RebalanceScenario::IorHardEc2p1,
        RebalanceScenario::IorEasyS1,
    ];

    /// The swarm subset: redundant classes that must stay green under
    /// the full rebalance fault surface.
    pub const SWARM: [RebalanceScenario; 2] = [
        RebalanceScenario::IorEasyRp2,
        RebalanceScenario::IorHardEc2p1,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RebalanceScenario::IorEasyRp2 => "rebalance/IOR-easy/RP_2",
            RebalanceScenario::IorHardEc2p1 => "rebalance/IOR-hard/EC_2P1",
            RebalanceScenario::IorEasyS1 => "rebalance/IOR-easy/S1",
        }
    }
}

/// The rebalance fault surface for `spec`: the faulted family's full
/// surface (whole-server crash groups, disks, NICs, delayed
/// completions) plus the three rebalance dimensions — spare-server
/// adds, deployed-server drains, and crash groups aimed at migration
/// traffic (one deployed server that holds sources/destinations, one
/// spare whose freshly added targets may be mid-reintegration).
///
/// Resource ids are enumerated from a scratch build of the **grown**
/// topology (`servers + SPARE_SERVERS`), matching the real run's
/// registration order exactly.
pub fn rebalance_space(spec: &RunSpec, cal: &Calibration) -> ChaosSpace {
    let mut space = engine_space(&scratch_topology(spec.servers + SPARE_SERVERS, spec, cal));
    let group = |server: u16| -> Vec<u64> {
        (0..cal.targets_per_server as u16)
            .map(|target| TargetId { server, target }.pack())
            .collect()
    };
    space.crash_groups = (0..spec.servers as u16).map(group).collect();
    space.delay_payloads = (0..spec.servers as u64).collect();
    space.add_servers = (spec.servers..spec.servers + SPARE_SERVERS)
        .map(|s| s as u64)
        .collect();
    // at most half the deployed servers are drainable, so redundant
    // classes always have evacuation destinations
    space.drain_servers = (0..(spec.servers / 2).max(1)).map(|s| s as u64).collect();
    space.migration_crash_groups = vec![
        group(spec.servers as u16 - 1), // a deployed migration source/dest
        group(spec.servers as u16),     // the first spare, mid-reintegration
    ];
    space
}

/// Result of one rebalance run.
#[derive(Debug, Clone)]
pub struct RebalanceRunReport {
    /// Which scenario ran.
    pub scenario: RebalanceScenario,
    /// Healthy write phase.
    pub write: PhaseResult,
    /// Read phase under membership churn.
    pub read: PhaseResult,
    /// Client-side retry counters.
    pub retry: RetryStats,
    /// Reads that failed terminally and were tolerated (only possible
    /// for the unreplicated [`RebalanceScenario::IorEasyS1`]).
    pub unavailable_reads: usize,
    /// Crash-triggered rebuild outcome, if a crash fired.
    pub rebuild: Option<RebuildReport>,
    /// Shard moves planned across every replanning pass.
    pub moves_planned: usize,
    /// Migration waves shipped.
    pub waves: usize,
    /// Migration engine progress at quiescence.
    pub migration: MigrationProgress,
    /// Pool-map version when the run ended (counts every membership
    /// transition; the healthy deployment ends the write phase at 0).
    pub map_version: u64,
    /// Post-quiescence invariant audit (durability + redundancy), when
    /// requested.
    pub oracles: Option<OracleReport>,
    /// End-to-end checksum activity at quiescence (nonzero only when
    /// the schedule planted bit rot).
    pub csum: daos_core::CsumStats,
    /// Unified telemetry report (only with [`RebalanceOpts::telemetry`]),
    /// evaluated against [`crate::runreport::faulted_slo_rules`].
    pub run_report: Option<crate::runreport::RunReport>,
    /// Replay digest over completions and fired faults.
    pub digest: u64,
}

/// Options for [`run_rebalance_with`].
#[derive(Debug, Clone)]
pub struct RebalanceOpts {
    /// The failure schedule (phase-relative when `Fixed`).
    pub plan: PlanSource,
    /// Data mode (`Full` for oracle runs).
    pub mode: DataMode,
    /// Record acked writes and audit every oracle after quiescence.
    pub oracles: bool,
    /// Enable spans, the telemetry registry and a windowed monitor, and
    /// collect a unified [`crate::runreport::RunReport`] into the
    /// result.  Observers only: the digest must match an untelemetered
    /// run's exactly.
    pub telemetry: bool,
}

impl Default for RebalanceOpts {
    fn default() -> Self {
        RebalanceOpts {
            plan: PlanSource::Builtin,
            mode: DataMode::Sized,
            oracles: false,
            telemetry: false,
        }
    }
}

/// The rebalance read phase's hooks: the membership state machine
/// (add/drain → plan → migration waves → finish → repair) and the
/// crash → detect → rebuild chain.
struct RebalanceHooks<'a> {
    daos: &'a RefCell<DaosSystem>,
    migration: WavePump,
    rebuild: RebuildChain,
    /// Shard moves planned across every replanning pass.
    moves_planned: usize,
}

impl RebalanceHooks<'_> {
    /// Replan after a membership change and start pumping waves unless
    /// one is already in flight (it will pick up the new pending moves).
    fn replan_and_pump(&mut self, sched: &mut Scheduler) {
        let report = self.daos.borrow_mut().rebalance_plan();
        self.moves_planned += report.moves_planned;
        if self.migration.idle() {
            self.pump(sched);
        }
    }

    /// Ship the next migration wave, or — when the pending queue has
    /// drained — complete the rebalance: retire/promote membership and
    /// run one repair rescan so nothing a dropped move left behind
    /// stays unprotected.
    fn pump(&mut self, sched: &mut Scheduler) {
        let wave = self.daos.borrow_mut().migration_wave(WAVE_MOVES);
        let daos = self.daos;
        self.migration.ship(sched, wave, |sched| {
            let mut d = daos.borrow_mut();
            d.finish_rebalance();
            let (_, movement) = d.rebuild();
            sched.submit(movement, OP_RETIRE_REPAIR);
        });
    }

    /// Membership/crash events may name a spare server before it has
    /// been added; state changes for ranks outside the current pool are
    /// no-ops.
    fn rank_exists(&self, server: u16) -> bool {
        (server as usize) < self.daos.borrow().server_count()
    }
}

impl PhaseHooks for RebalanceHooks<'_> {
    fn on_marker(&mut self, op: OpId, sched: &mut Scheduler) {
        if self.migration.owns(op) {
            self.pump(sched);
        } else {
            // the repair rescan's movement needs no follow-up
            self.rebuild.on_marker(op, sched, self.daos);
        }
    }

    fn on_fault(&mut self, event: &FaultEvent, sched: &mut Scheduler) {
        match event.action {
            FaultAction::AddServer { .. } => {
                self.daos.borrow_mut().add_server(sched);
                self.replan_and_pump(sched);
            }
            FaultAction::DrainServer { server } => {
                if self.rank_exists(server as u16) {
                    self.daos.borrow_mut().drain_server(server as u16);
                    self.replan_and_pump(sched);
                }
            }
            FaultAction::TargetCrash(payload) | FaultAction::TargetRestart(payload)
                if !self.rank_exists(TargetId::unpack(payload).server) => {}
            _ => apply_fault(self.daos, &mut self.rebuild, event, sched),
        }
    }
}

/// The builtin schedule: one server add and one server drain early in
/// the read phase — a plain grow-and-shrink rebalance with no weather.
pub(crate) fn builtin_plan(spec: &RunSpec) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.at(
        SimTime(1_000_000),
        FaultAction::AddServer {
            server: spec.servers as u64,
        },
    );
    plan.at(SimTime(2_000_000), FaultAction::DrainServer { server: 0 });
    plan
}

/// Execute one rebalance scenario under explicit [`RebalanceOpts`]:
/// healthy write phase, fault plan installed at the phase boundary,
/// read phase under membership churn, post-quiescence audit.  Fails
/// before anything deploys on a spec no deployment can run (no server),
/// before the write phase on a plan `check_plan` rejects, and before
/// the read phase on one that does not install (see
/// [`simkit::Scheduler::install_faults`]).
pub fn run_rebalance_with(
    spec: &RunSpec,
    scen: RebalanceScenario,
    cal: &Calibration,
    opts: &RebalanceOpts,
) -> Result<RebalanceRunReport, String> {
    spec.check()?;
    let mut sched = make_sched(spec, false);
    if opts.telemetry {
        sched.enable_spans();
        sched.set_monitor(simkit::Monitor::windowed(
            crate::runreport::RUN_REPORT_WINDOW_NS,
        ));
        sched.enable_telemetry(crate::runreport::RUN_REPORT_WINDOW_NS);
    }
    let cspec =
        ClusterSpec::new(spec.servers + SPARE_SERVERS, spec.client_nodes).with_cal(cal.clone());
    let topo = cspec.build(&mut sched);
    let plan = match &opts.plan {
        PlanSource::Builtin => builtin_plan(spec),
        PlanSource::Fixed(plan) => plan.clone(),
    };
    check_plan(&plan, &topo, spec.servers)?;
    let mut daos_sys = DaosSystem::deploy(&topo, &mut sched, spec.servers, opts.mode);
    if opts.oracles {
        daos_sys.enable_ledger();
    }
    let (cid, s) = daos_sys.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos_sys));

    let mut cfg = IorConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc);
    cfg.transfer_size = spec.transfer;
    cfg.queue_depth = spec.queue_depth;
    let oclass = match scen {
        RebalanceScenario::IorEasyRp2 => ObjectClass::RP_2,
        RebalanceScenario::IorEasyS1 => {
            // no redundancy: a crash genuinely loses extents, and the
            // oracle — not the benchmark driver — delivers that verdict
            cfg.tolerate_unavailable = true;
            ObjectClass::S1
        }
        RebalanceScenario::IorHardEc2p1 => {
            cfg.file_per_proc = false;
            cfg.access = AccessOrder::Random;
            ObjectClass::EC_2P1
        }
    };
    let backend = IorBackend::Daos {
        daos: daos.clone(),
        cid,
        oclass,
    };
    let mut ior = Ior::new(cfg, backend);
    ior.set_retry_policy(RetryPolicy::default(), spec.seed);
    let write = run_phase(&mut sched, &mut ior);
    sched.install_faults(plan.shifted(sched.now()))?;
    ior.set_phase(Phase::Read);
    // no setup barrier: IOR's read phase reuses the write phase's objects
    let mut hooks = RebalanceHooks {
        daos: &daos,
        migration: WavePump::new(OP_WAVE),
        rebuild: RebuildChain::new(OP_REBUILD_TRIGGER, OP_REBUILD_DONE),
        moves_planned: 0,
    };
    let read = run_ops(&mut sched, &mut ior, &mut hooks);

    let oracles = opts.oracles.then(|| {
        let mut d = daos.borrow_mut();
        let mut report = d.verify_durability(0);
        report.merge(d.verify_redundancy());
        report
    });
    let d = daos.borrow();
    let run_report = opts.telemetry.then(|| {
        // fold the layer-owned totals into the registry before export:
        // client retries, the crash-triggered rebuild, and the
        // migration engine's progress at quiescence
        let at = sched.now();
        ior.retry_stats().publish(sched.telemetry_mut(), at);
        if let Some(rb) = &hooks.rebuild.report {
            rb.publish(sched.telemetry_mut(), at);
        }
        d.migration_progress().publish(sched.telemetry_mut(), at);
        d.csum_stats().publish(sched.telemetry_mut(), at);
        crate::runreport::RunReport::collect(
            &sched,
            scen.name(),
            &write,
            &read,
            &crate::runreport::faulted_slo_rules(),
        )
    });
    Ok(RebalanceRunReport {
        scenario: scen,
        write,
        read,
        retry: ior.retry_stats(),
        unavailable_reads: ior.unavailable_reads(),
        rebuild: hooks.rebuild.report,
        moves_planned: hooks.moves_planned,
        waves: hooks.migration.waves,
        migration: d.migration_progress(),
        map_version: d.pool().version(),
        oracles,
        csum: d.csum_stats(),
        run_report,
        digest: sched.digest(),
    })
}

/// The rebalance family: the redundant scenarios
/// ([`RebalanceScenario::SWARM`]) under schedules drawn from
/// [`rebalance_space`], at the chaos sweep point (small ops, `Full` data
/// mode) over four deployed servers with spare hardware to grow into.
pub struct RebalanceFamily;

impl Family for RebalanceFamily {
    type Scenario = RebalanceScenario;
    const NAME: &'static str = "rebalance";
    const ALL: &'static [RebalanceScenario] = &RebalanceScenario::ALL;
    const SWARM: &'static [RebalanceScenario] = &RebalanceScenario::SWARM;

    fn scenario_name(scen: RebalanceScenario) -> &'static str {
        scen.name()
    }

    fn default_spec() -> RunSpec {
        default_chaos_spec()
    }

    fn seed_plan(spec: &RunSpec, cal: &Calibration, _: RebalanceScenario, seed: u64) -> FaultPlan {
        generate(&rebalance_space(spec, cal), &ChaosConfig::default(), seed)
    }

    /// The rebalance family records no spans.
    fn traces(_: RebalanceScenario) -> bool {
        false
    }

    fn run_under(
        spec: &RunSpec,
        scen: RebalanceScenario,
        cal: &Calibration,
        plan: &FaultPlan,
        _traced: bool,
    ) -> Result<CaseRun, String> {
        let opts = RebalanceOpts {
            plan: PlanSource::Fixed(plan.clone()),
            mode: DataMode::Full,
            oracles: true,
            ..RebalanceOpts::default()
        };
        let report = run_rebalance_with(spec, scen, cal, &opts)?;
        Ok(CaseRun {
            oracle: report.oracles.unwrap_or_default(),
            digest: report.digest,
            ..CaseRun::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::chaos::run_seed;

    fn tiny_spec() -> RunSpec {
        let mut spec = default_chaos_spec();
        spec.ops_per_proc = 8;
        spec
    }

    #[test]
    fn builtin_grow_and_drain_rebalances_cleanly() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let opts = RebalanceOpts {
            oracles: true,
            mode: DataMode::Full,
            ..RebalanceOpts::default()
        };
        let r = run_rebalance_with(&spec, RebalanceScenario::IorEasyRp2, &cal, &opts).unwrap();
        assert!(r.map_version > 0, "membership changes bump the map version");
        assert!(r.moves_planned > 0, "grow + drain must move shards");
        assert!(r.waves > 0, "moves ship in waves");
        assert_eq!(
            r.migration.moves_done, r.moves_planned,
            "a crash-free rebalance ships every planned move"
        );
        let oracle = r.oracles.expect("oracles audited");
        assert!(oracle.ok(), "{}", oracle.render());
    }

    #[test]
    fn rebalance_case_is_deterministic() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let a = run_seed::<RebalanceFamily>(&spec, RebalanceScenario::IorEasyRp2, &cal, 3).unwrap();
        assert!(a.passed(), "seed 3 must be green:\n{}", a.oracle.render());
        let b = run_seed::<RebalanceFamily>(&spec, RebalanceScenario::IorEasyRp2, &cal, 3).unwrap();
        assert_eq!(a.digest, b.digest, "same seed, same case digest");
        assert_eq!(a.plan.to_json(), b.plan.to_json());
    }

    #[test]
    fn rebalance_space_spans_all_dimensions() {
        let spec = tiny_spec();
        let space = rebalance_space(&spec, &Calibration::default());
        assert_eq!(space.add_servers, vec![4, 5]);
        assert_eq!(space.drain_servers, vec![0, 1]);
        assert_eq!(space.migration_crash_groups.len(), 2);
        assert_eq!(space.crash_groups.len(), spec.servers);
    }
}
