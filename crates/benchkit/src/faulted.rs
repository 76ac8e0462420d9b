//! Faulted scenarios: bandwidth under failure.
//!
//! Each scenario runs a healthy write phase, installs a deterministic
//! [`FaultPlan`] relative to the phase boundary, then drives the read
//! phase through the shared op loop ([`crate::driver`]) with hooks that
//! map engine fault events onto DAOS state:
//!
//! * [`FaultAction::TargetCrash`] → [`DaosSystem::crash_target`], plus an
//!   *online rebuild*: after a short detection delay the pool rebuilds
//!   while client reads continue (degraded replica fail-over for `RP_2`,
//!   reconstruction for `EC_2P1`), and the time from crash to the end of
//!   the rebuild data movement is reported as time-to-redundancy-restored;
//! * [`FaultAction::TargetRestart`] → [`DaosSystem::restart_target`];
//! * [`FaultAction::DelayedCompletion`] → [`DaosSystem::set_extra_delay`]
//!   keyed by server rank;
//! * [`FaultAction::SlowDisk`] / [`FaultAction::NicBrownout`] are applied
//!   by the engine itself as capacity scaling.
//!
//! The client side absorbs the injected `TargetDown` detections through
//! the shared [`RetryPolicy`] machinery configured on the *topmost*
//! interface layer, so the reported [`RetryStats`] count real retries,
//! timeout charges and (never, in a healthy policy) given-up operations.
//!
//! Everything — bandwidths, retry counters, the [`RebuildReport`], the
//! restore latency and the replay digest (which folds in every fired
//! fault) — must be bit-identical across replays; [`replay_faulted`]
//! checks exactly that.

use crate::driver::{run_ops, run_phase, setup_barrier, PhaseHooks, PhaseResult, WavePump};
use crate::runreport::SpanExports;
use crate::scenarios::{exec, make_sched, RunSpec};
use cluster::bench::Phase;
use cluster::{Calibration, ClusterSpec, Topology};
use daos_core::{
    ContainerProps, DaosSystem, DataMode, ObjectClass, OracleReport, RebuildReport, RetryPolicy,
    RetryStats, TargetId,
};
use field_io::FieldIo;
use ior_bench::{AccessOrder, Ior, IorBackend, IorConfig};
use simkit::{FaultAction, FaultEvent, FaultPlan, OpId, Scheduler, SimTime, Step};
use std::cell::RefCell;
use std::rc::Rc;

/// One millisecond in nanoseconds (plan-building readability).
const MS: u64 = 1_000_000;

/// Delay between a crash firing and the rebuild kicking off (RAS event
/// propagation + pool-map revision distribution).  Until it elapses,
/// reads touching the dead targets run degraded: the first op from each
/// client node fails with `TargetDown` and its retry takes the
/// fail-over/reconstruction path.
pub(crate) const REBUILD_DETECT: SimTime = SimTime::from_millis(2);

/// Marker op ids for the rebuild chain, far above any process index.
const OP_REBUILD_TRIGGER: OpId = OpId(1 << 40);
const OP_REBUILD_DONE: OpId = OpId((1 << 40) + 1);
const OP_SCRUB_WAVE: OpId = OpId((1 << 40) + 2);

/// Scan units (array chunks / KV values) verified per scrubber wave:
/// the throttle that keeps background scanning from starving foreground
/// reads — each wave is one parallel step against the shared fairshare
/// disks, and the next is emitted only when it completes.
const SCRUB_WAVE_UNITS: usize = 8;

/// The failure-injection benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultedScenario {
    /// IOR easy (file-per-process, sequential) on `RP_2` Arrays: a
    /// target crash plus a transient slow disk during the read phase;
    /// reads fail over to the surviving replica.
    IorEasyRp2,
    /// IOR hard (shared file, random offsets) on `EC_2P1` Arrays: a
    /// target crash plus a delayed-completion brownout; reads
    /// reconstruct from data + parity.
    IorHardEc2p1,
    /// Field I/O on `EC_2P1` Arrays with a crash and a NIC brownout.
    FieldIoFaulted,
}

impl FaultedScenario {
    /// Every faulted scenario, in presentation order.
    pub const ALL: [FaultedScenario; 3] = [
        FaultedScenario::IorEasyRp2,
        FaultedScenario::IorHardEc2p1,
        FaultedScenario::FieldIoFaulted,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultedScenario::IorEasyRp2 => "IOR-easy/RP_2+crash",
            FaultedScenario::IorHardEc2p1 => "IOR-hard/EC_2P1+crash",
            FaultedScenario::FieldIoFaulted => "FieldIO/EC_2P1+crash",
        }
    }
}

/// The sweep point the faulted family runs at: enough servers for
/// redundancy groups to spread over distinct engines, few enough ops to
/// keep the fault window inside the read phase.
pub fn default_faulted_spec() -> RunSpec {
    let mut spec = RunSpec::new(4, 2, 4);
    spec.ops_per_proc = 48;
    spec
}

/// Where a faulted run's failure schedule comes from.
#[derive(Debug, Clone)]
pub enum PlanSource {
    /// The scenario's built-in hand-written schedule.
    Builtin,
    /// An explicit schedule whose event times are **offsets from the
    /// write→read phase boundary** (offset 0 fires the moment the read
    /// phase starts).  Chaos-generated and shrunken schedules use this
    /// form so the same JSON replays regardless of how long the healthy
    /// phase took.
    Fixed(FaultPlan),
}

/// Options for [`run_faulted_with`] — the knobs the chaos swarm turns
/// that the fixed benchmark family keeps at their defaults.
#[derive(Debug, Clone)]
pub struct FaultedOpts {
    /// The failure schedule.
    pub plan: PlanSource,
    /// Data mode: `Sized` (default) for bandwidth runs, `Full` when the
    /// durability oracles need real bytes to compare.
    pub mode: DataMode,
    /// Record acked writes during the run and audit every invariant
    /// oracle after quiescence.
    pub oracles: bool,
    /// Record causal spans.
    pub traced: bool,
    /// Enable the telemetry registry and a windowed monitor (at
    /// [`crate::runreport::RUN_REPORT_WINDOW_NS`]) and collect a
    /// unified [`crate::runreport::RunReport`] into the result.
    /// Telemetry is an observer: the digest must match an
    /// untelemetered run's exactly.
    pub telemetry: bool,
    /// Run the background scrubber during the faulted phase: one full
    /// resumable pass in `SCRUB_WAVE_UNITS`-unit waves racing the
    /// foreground reads for the same disks.  Part of the schedule (not
    /// an observer): scrub waves shift the digest like any other work.
    pub scrub: bool,
    /// Let terminally-failed reads complete as unavailable instead of
    /// panicking the driver — the rot-beyond-redundancy scenarios where
    /// the durability oracle, not the benchmark, delivers the verdict.
    pub tolerate_unavailable: bool,
}

impl Default for FaultedOpts {
    fn default() -> Self {
        FaultedOpts {
            plan: PlanSource::Builtin,
            mode: DataMode::Sized,
            oracles: false,
            traced: false,
            telemetry: false,
            scrub: false,
            tolerate_unavailable: false,
        }
    }
}

/// Result of one faulted run.
#[derive(Debug, Clone)]
pub struct FaultedReport {
    /// Which scenario ran.
    pub scenario: FaultedScenario,
    /// Healthy write phase.
    pub write: PhaseResult,
    /// Read phase under failure.
    pub read: PhaseResult,
    /// Client-side retry counters (topmost interface layer).
    pub retry: RetryStats,
    /// Rebuild outcome, if a crash fired.
    pub rebuild: Option<RebuildReport>,
    /// Seconds from the crash firing to the rebuild movement draining.
    pub redundancy_restored_secs: Option<f64>,
    /// Post-quiescence invariant audit (only with
    /// [`FaultedOpts::oracles`]): acked-durability and reconstruction
    /// read-back, redundancy restoration, and the owning interface's
    /// consistency checks.
    pub oracles: Option<OracleReport>,
    /// End-to-end checksum activity at quiescence (after any oracle
    /// read-back): verifications, rot detections, transparent repairs,
    /// unrepairable extents, corrupt bytes served (always zero unless
    /// the verified-read path is broken).
    pub csum: daos_core::CsumStats,
    /// Scrubber progress (only with [`FaultedOpts::scrub`]).
    pub scrub: Option<daos_core::ScrubReport>,
    /// Unified telemetry report (only with [`FaultedOpts::telemetry`]),
    /// evaluated against [`crate::runreport::faulted_slo_rules`].
    pub run_report: Option<crate::runreport::RunReport>,
    /// Replay digest over completions *and* fired faults (including the
    /// installed schedule itself).
    pub digest: u64,
}

/// The two-run comparison for one faulted scenario.
#[derive(Debug, Clone)]
pub struct FaultedReplay {
    /// Both runs, from fresh state each; the second ran traced.
    pub runs: [FaultedReport; 2],
    /// The span exports of the second run.
    pub exports: SpanExports,
}

impl FaultedReplay {
    /// Bit-identical digests, bandwidths, retry counters, rebuild
    /// reports and restore latencies across both runs.  Tracing is an
    /// observer, so this also checks that it changed nothing.
    pub fn deterministic(&self) -> bool {
        let [a, b] = &self.runs;
        a.digest == b.digest
            && a.write.bandwidth() == b.write.bandwidth()
            && a.read.bandwidth() == b.read.bandwidth()
            && a.retry == b.retry
            && a.rebuild == b.rebuild
            && a.redundancy_restored_secs == b.redundancy_restored_secs
            && a.csum == b.csum
            && a.scrub == b.scrub
    }
}

/// Run `scen` twice from fresh state, the second time traced, and
/// report both runs.
pub fn replay_faulted(spec: &RunSpec, scen: FaultedScenario, cal: &Calibration) -> FaultedReplay {
    let first = run_faulted(spec, scen, cal);
    let traced = FaultedOpts {
        traced: true,
        ..FaultedOpts::default()
    };
    let (second, exports) = run_faulted_with(spec, scen, cal, &traced);
    FaultedReplay {
        runs: [first, second],
        exports: exports.expect("a traced run exports spans"),
    }
}

/// The crash → detect → rebuild → restored chain both fault-injecting
/// families share: the first crash arms a [`REBUILD_DETECT`] timer, its
/// expiry rescans the pool and submits the rebuild data movement, and
/// that movement draining marks redundancy restored.
pub(crate) struct RebuildChain {
    trigger: OpId,
    done: OpId,
    /// Rebuild outcome, once detection fired.
    pub(crate) report: Option<RebuildReport>,
    /// When the first crash fired.
    pub(crate) crash_at: Option<SimTime>,
    /// When the rebuild data movement drained.
    pub(crate) restored_at: Option<SimTime>,
}

impl RebuildChain {
    /// An unarmed chain whose timer and movement complete as `trigger`
    /// and `done`.
    pub(crate) fn new(trigger: OpId, done: OpId) -> RebuildChain {
        RebuildChain {
            trigger,
            done,
            report: None,
            crash_at: None,
            restored_at: None,
        }
    }

    /// A target crashed just now: the first crash arms detection.
    pub(crate) fn crashed(&mut self, sched: &mut Scheduler) {
        if self.crash_at.is_none() {
            self.crash_at = Some(sched.now());
            sched.submit(Step::delay(REBUILD_DETECT), self.trigger);
        }
    }

    /// Advance the chain when `op` is one of its markers.
    pub(crate) fn on_marker(
        &mut self,
        op: OpId,
        sched: &mut Scheduler,
        daos: &RefCell<DaosSystem>,
    ) {
        if op == self.trigger {
            // detection delay elapsed: rescan + start the data movement
            let (report, movement) = daos.borrow_mut().rebuild();
            self.report = Some(report);
            sched.submit(movement, self.done);
        } else if op == self.done {
            self.restored_at = Some(sched.now());
        }
    }
}

/// The faulted read phase's hooks: the mapping from fired fault events
/// onto DAOS state, the rebuild chain and the optional scrubber.
struct FaultedHooks<'a> {
    daos: &'a RefCell<DaosSystem>,
    rebuild: RebuildChain,
    /// Background scrub waves, when the run scrubs.
    scrub: Option<WavePump>,
}

impl FaultedHooks<'_> {
    /// Ship the next scrub wave: the scan resumes from its cursor and
    /// stops after one full pass over the stored units.
    fn pump_scrub(&mut self, sched: &mut Scheduler) {
        if let Some(pump) = &mut self.scrub {
            let wave = self.daos.borrow_mut().scrub_wave(SCRUB_WAVE_UNITS);
            pump.ship(sched, wave, |_| {});
        }
    }
}

impl PhaseHooks for FaultedHooks<'_> {
    fn start(&mut self, sched: &mut Scheduler) {
        if self.scrub.is_some() {
            self.daos.borrow_mut().scrub_start();
            self.pump_scrub(sched);
        }
    }

    fn on_marker(&mut self, op: OpId, sched: &mut Scheduler) {
        if op == OP_SCRUB_WAVE {
            self.pump_scrub(sched);
        } else {
            self.rebuild.on_marker(op, sched, self.daos);
        }
    }

    fn on_fault(&mut self, event: &FaultEvent, sched: &mut Scheduler) {
        apply_fault(self.daos, &mut self.rebuild, event, sched);
    }
}

/// Map a fired fault onto DAOS state: the mapping both fault-injecting
/// families share.  A crash arms `rebuild`; membership events belong to
/// the rebalance family, and capacity scaling is applied by the engine
/// before dispatch.
pub(crate) fn apply_fault(
    daos: &RefCell<DaosSystem>,
    rebuild: &mut RebuildChain,
    event: &FaultEvent,
    sched: &mut Scheduler,
) {
    let mut daos = daos.borrow_mut();
    match event.action {
        FaultAction::TargetCrash(payload) => {
            daos.crash_target(TargetId::unpack(payload));
            rebuild.crashed(sched);
        }
        FaultAction::TargetRestart(payload) => daos.restart_target(TargetId::unpack(payload)),
        FaultAction::DelayedCompletion { payload, extra_ns } => {
            daos.set_extra_delay(payload as u16, extra_ns)
        }
        // silent: no detection chain here — a verified read or a scrub
        // wave has to find the damage on its own
        FaultAction::BitRot { locus, shard } => {
            daos.apply_bit_rot(locus, shard);
        }
        FaultAction::SlowDisk { .. }
        | FaultAction::NicBrownout { .. }
        | FaultAction::AddServer { .. }
        | FaultAction::DrainServer { .. } => {}
    }
}

/// The failure schedule for a scenario, relative to the boundary between
/// the healthy write phase and the faulted read phase.
fn fault_plan(scen: FaultedScenario, topo: &Topology) -> FaultPlan {
    let mut plan = FaultPlan::new();
    // an engine (whole server) crash: every target of server 1 goes down
    // at once, so a large fraction of shard groups run degraded until
    // the rebuild re-protects them
    let crash_server = |plan: &mut FaultPlan, at: SimTime| {
        for t in 0..topo.cal.targets_per_server as u16 {
            plan.at(
                at,
                FaultAction::TargetCrash(
                    TargetId {
                        server: 1,
                        target: t,
                    }
                    .pack(),
                ),
            );
        }
    };
    match scen {
        FaultedScenario::IorEasyRp2 => {
            // transient slow disk on a *different* server, then a crash,
            // then the disk recovers
            let disk = topo.servers[0].nvme_r[0];
            plan.at(
                SimTime(MS),
                FaultAction::SlowDisk {
                    resource: disk,
                    scale: 0.4,
                },
            );
            crash_server(&mut plan, SimTime(2 * MS));
            plan.at(
                SimTime(8 * MS),
                FaultAction::SlowDisk {
                    resource: disk,
                    scale: 1.0,
                },
            );
        }
        FaultedScenario::IorHardEc2p1 => {
            // server 0 completions slow down, target on server 1 dies,
            // the slowdown clears
            plan.at(
                SimTime(MS),
                FaultAction::DelayedCompletion {
                    payload: 0,
                    extra_ns: 200_000,
                },
            );
            crash_server(&mut plan, SimTime(2 * MS));
            plan.at(
                SimTime(10 * MS),
                FaultAction::DelayedCompletion {
                    payload: 0,
                    extra_ns: 0,
                },
            );
        }
        FaultedScenario::FieldIoFaulted => {
            let nic = topo.servers[0].nic_tx;
            plan.at(
                SimTime(MS),
                FaultAction::NicBrownout {
                    resource: nic,
                    scale: 0.3,
                },
            );
            crash_server(&mut plan, SimTime(2 * MS));
            plan.at(
                SimTime(6 * MS),
                FaultAction::NicBrownout {
                    resource: nic,
                    scale: 1.0,
                },
            );
        }
    }
    plan
}

/// The latest phase-relative time a plan may schedule an event at, and
/// the longest completion delay it may inject: half the clock's range
/// (292 years), so anchoring an event after any write phase, or adding
/// a delay to any op's latency, stays inside the clock.
const MAX_PLAN_NS: u64 = u64::MAX / 2;

/// The slowest a capacity fault may make a resource, as a fraction of
/// its baseline.  A slower device is a dead one, which a plan models as
/// a crash: near-zero rates push flow deadlines past the clock and stall
/// the run.
const MIN_SCALE: f64 = 1e-3;

/// Reject a phase-relative plan that names what the deployment on `topo`
/// cannot apply: a target outside the hardware, a delay payload that is
/// no server rank, a server add outside the spare hardware or repeated,
/// a capacity scale outside `[MIN_SCALE, 1]`, or a time or delay beyond
/// [`MAX_PLAN_NS`].  `deployed` is the number of servers the pool starts
/// on; the rest of the topology's servers are spares an
/// [`FaultAction::AddServer`] grows into.  Every faulted entry checks
/// its plan here once, before the write phase, so the fault handlers
/// apply only plans they can.  Crashes and drains of a spare that has
/// not joined yet stay legal: the rebalance hooks skip them.
pub(crate) fn check_plan(plan: &FaultPlan, topo: &Topology, deployed: usize) -> Result<(), String> {
    let servers = topo.server_count() as u64;
    let mut added = Vec::new();
    for ev in plan.events() {
        let bad = |why: String| Err(format!("fault event {}: {why}", ev.id));
        if ev.at.0 > MAX_PLAN_NS {
            return bad(format!("time {} ns is past the clock's range", ev.at.0));
        }
        match ev.action {
            FaultAction::TargetCrash(payload) | FaultAction::TargetRestart(payload) => {
                let t = TargetId::unpack(payload);
                if t.pack() != payload
                    || u64::from(t.server) >= servers
                    || usize::from(t.target) >= topo.cal.targets_per_server
                {
                    return bad(format!("payload {payload:#x} names no target of the pool"));
                }
            }
            FaultAction::DelayedCompletion { payload, extra_ns } => {
                if payload >= servers || extra_ns > MAX_PLAN_NS {
                    return bad(format!("delay of {extra_ns} ns on server {payload}"));
                }
            }
            FaultAction::AddServer { server } => {
                if server < deployed as u64 || server >= servers || added.contains(&server) {
                    return bad(format!("server {server} is no spare left to add"));
                }
                added.push(server);
            }
            FaultAction::DrainServer { server } => {
                if server >= servers {
                    return bad(format!("server {server} is not in the pool"));
                }
            }
            FaultAction::SlowDisk { scale, .. } | FaultAction::NicBrownout { scale, .. } => {
                if !(MIN_SCALE..=1.0).contains(&scale) {
                    return bad(format!(
                        "capacity scale {scale} is outside [{MIN_SCALE}, 1]"
                    ));
                }
            }
            FaultAction::BitRot { .. } => {}
        }
    }
    Ok(())
}

/// Execute one faulted scenario: healthy write phase, install the fault
/// plan at the phase boundary, faulted read phase, collect the report.
pub fn run_faulted(spec: &RunSpec, scen: FaultedScenario, cal: &Calibration) -> FaultedReport {
    run_faulted_with(spec, scen, cal, &FaultedOpts::default()).0
}

/// Execute one faulted scenario under explicit [`FaultedOpts`] whose
/// plan is known to install: the built-in plans, and plans drawn from
/// [`crate::chaos::chaos_space`].  Panics on a [`PlanSource::Fixed`]
/// plan that [`try_run_faulted_with`] rejects; run such plans through
/// it.
pub fn run_faulted_with(
    spec: &RunSpec,
    scen: FaultedScenario,
    cal: &Calibration,
    opts: &FaultedOpts,
) -> (FaultedReport, Option<SpanExports>) {
    try_run_faulted_with(spec, scen, cal, opts)
        .expect("built-in and chaos-space plans are valid on their deployment")
}

/// Execute one faulted scenario under explicit [`FaultedOpts`]: the
/// general entry point behind [`run_faulted`], the chaos swarm and the
/// shrinker's replay oracle.  Fails before anything deploys on a spec
/// no deployment can run (no server), before the write phase on a plan
/// `check_plan` rejects, and before the read phase on one that does not
/// install (see [`simkit::Scheduler::install_faults`]).
pub fn try_run_faulted_with(
    spec: &RunSpec,
    scen: FaultedScenario,
    cal: &Calibration,
    opts: &FaultedOpts,
) -> Result<(FaultedReport, Option<SpanExports>), String> {
    spec.check()?;
    let mut sched = make_sched(spec, false);
    if opts.traced {
        sched.enable_spans();
    }
    if opts.telemetry {
        sched.set_monitor(simkit::Monitor::windowed(
            crate::runreport::RUN_REPORT_WINDOW_NS,
        ));
        sched.enable_telemetry(crate::runreport::RUN_REPORT_WINDOW_NS);
    }
    let cspec = ClusterSpec::new(spec.servers, spec.client_nodes).with_cal(cal.clone());
    let topo = cspec.build(&mut sched);
    let plan = match &opts.plan {
        PlanSource::Builtin => fault_plan(scen, &topo),
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
    // the read phase: setup barrier, then the op loop with the fault
    // plan live; no finalize (the family's workloads are unbuffered)
    let mut hooks = FaultedHooks {
        daos: &daos,
        rebuild: RebuildChain::new(OP_REBUILD_TRIGGER, OP_REBUILD_DONE),
        scrub: opts.scrub.then(|| WavePump::new(OP_SCRUB_WAVE)),
    };

    let (write, read, retry, iface_oracle) = match scen {
        FaultedScenario::IorEasyRp2 | FaultedScenario::IorHardEc2p1 => {
            let mut cfg = IorConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc);
            cfg.transfer_size = spec.transfer;
            cfg.queue_depth = spec.queue_depth;
            cfg.tolerate_unavailable = opts.tolerate_unavailable;
            let oclass = if scen == FaultedScenario::IorEasyRp2 {
                ObjectClass::RP_2
            } else {
                cfg.file_per_proc = false;
                cfg.access = AccessOrder::Random;
                ObjectClass::EC_2P1
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
            setup_barrier(&mut sched, &mut ior);
            let read = run_ops(&mut sched, &mut ior, &mut hooks);
            (write, read, ior.retry_stats(), None)
        }
        FaultedScenario::FieldIoFaulted => {
            // EC_2P1 data, RP_2 index: an unprotected (SX) TOC shard on
            // the crashed server would be unrecoverable data loss
            let (mut fio, s) =
                FieldIo::with_classes(daos.clone(), 0, cid, ObjectClass::EC_2P1, ObjectClass::RP_2)
                    .expect("fieldio");
            exec(&mut sched, s);
            fio.set_retry_policy(RetryPolicy::default(), spec.seed);
            let mut wl = crate::workloads::FieldIoWorkload::new(
                fio,
                spec.procs(),
                spec.client_nodes,
                spec.ops_per_proc,
                spec.transfer,
            );
            let write = run_phase(&mut sched, &mut wl);
            sched.install_faults(plan.shifted(sched.now()))?;
            wl.phase = Phase::Read;
            setup_barrier(&mut sched, &mut wl);
            let read = run_ops(&mut sched, &mut wl, &mut hooks);
            let iface = opts.oracles.then(|| wl.fio.verify_consistency(0));
            (write, read, wl.fio.retry_stats(), iface)
        }
    };

    let oracles = opts.oracles.then(|| {
        let mut report = iface_oracle.unwrap_or_default();
        let mut d = daos.borrow_mut();
        report.merge(d.verify_durability(0));
        report.merge(d.verify_redundancy());
        report
    });
    let out = hooks.rebuild;
    let redundancy_restored_secs = out
        .crash_at
        .zip(out.restored_at)
        .map(|(c, r)| r.secs_since(c));
    // snapshot after the oracle read-back so audit-triggered repairs
    // are included
    let csum = daos.borrow().csum_stats();
    let scrub = opts.scrub.then(|| daos.borrow().scrub_progress());
    let run_report = opts.telemetry.then(|| {
        // fold the layer-owned totals into the registry before export:
        // retry attempts/timeouts/circuit opens, the rebuild outcome and
        // the checksum/scrub activity only the storage layers know
        let at = sched.now();
        retry.publish(sched.telemetry_mut(), at);
        if let Some(rb) = &out.report {
            rb.publish(sched.telemetry_mut(), at);
        }
        csum.publish(sched.telemetry_mut(), at);
        if let Some(sr) = &scrub {
            sr.publish(sched.telemetry_mut(), at);
        }
        crate::runreport::RunReport::collect(
            &sched,
            scen.name(),
            &write,
            &read,
            &crate::runreport::faulted_slo_rules(),
        )
    });
    let exports = opts.traced.then(|| SpanExports::collect(&sched));
    Ok((
        FaultedReport {
            scenario: scen,
            write,
            read,
            retry,
            rebuild: out.report,
            redundancy_restored_secs,
            oracles,
            csum,
            scrub,
            run_report,
            digest: sched.digest(),
        },
        exports,
    ))
}

/// Render faulted reports as a JSON array (hand-rolled: stable field
/// order, no external dependencies) — the bandwidth-under-failure
/// artifact CI uploads.
pub fn render_json(reports: &[FaultedReport]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        let rb = r.rebuild.clone().unwrap_or_default();
        s.push_str(&format!(
            concat!(
                "  {{\"scenario\": \"{}\", \"write_bw_gib\": {:.3}, ",
                "\"read_bw_gib\": {:.3}, \"attempts\": {}, \"retries\": {}, ",
                "\"timeouts\": {}, \"gave_up\": {}, \"shards_rebuilt\": {}, ",
                "\"shards_lost\": {}, \"redundancy_restored_ms\": {}, ",
                "\"digest\": \"{:#018x}\"}}{}\n"
            ),
            r.scenario.name(),
            r.write.bandwidth() / cluster::GIB,
            r.read.bandwidth() / cluster::GIB,
            r.retry.attempts,
            r.retry.retries,
            r.retry.timeouts,
            r.retry.gave_up,
            rb.shards_rebuilt,
            rb.shards_lost,
            r.redundancy_restored_secs
                .map_or("null".to_string(), |v| format!("{:.3}", v * 1e3)),
            r.digest,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> RunSpec {
        let mut spec = default_faulted_spec();
        spec.ops_per_proc = 32;
        spec
    }

    #[test]
    fn rp2_failover_under_crash() {
        let r = run_faulted(
            &small_spec(),
            FaultedScenario::IorEasyRp2,
            &Calibration::default(),
        );
        // the crash was detected and absorbed by retries, not failures
        assert!(r.retry.retries >= 1, "{:?}", r.retry);
        assert_eq!(r.retry.gave_up, 0, "{:?}", r.retry);
        // bounded by the configured policy: every op (both phases) got
        // at most max_attempts tries
        let policy = RetryPolicy::default();
        let total_ops = (r.write.ops + r.read.ops) as u64;
        assert!(r.retry.attempts <= total_ops * policy.max_attempts as u64);
        assert!(r.retry.attempts >= total_ops);
        // the rebuild re-protected the crashed target's replicas
        let rb = r.rebuild.expect("rebuild ran");
        assert!(rb.shards_rebuilt > 0, "{rb:?}");
        assert_eq!(rb.shards_lost, 0, "RP_2 survives one crash: {rb:?}");
        let restored = r.redundancy_restored_secs.expect("restore time");
        assert!(restored > 0.0 && restored < r.read.seconds + 1.0);
        // bandwidth under failure is still real bandwidth
        assert!(r.read.bandwidth() > 0.0);
    }

    #[test]
    fn ec2p1_reconstruction_under_crash() {
        let r = run_faulted(
            &small_spec(),
            FaultedScenario::IorHardEc2p1,
            &Calibration::default(),
        );
        assert!(r.retry.retries >= 1, "{:?}", r.retry);
        assert_eq!(r.retry.gave_up, 0, "{:?}", r.retry);
        let rb = r.rebuild.expect("rebuild ran");
        assert!(rb.shards_rebuilt > 0, "{rb:?}");
        assert_eq!(rb.shards_lost, 0, "EC_2P1 survives one crash: {rb:?}");
        assert!(r.redundancy_restored_secs.is_some());
    }

    #[test]
    fn fieldio_faulted_replays_identically() {
        let rep = replay_faulted(
            &small_spec(),
            FaultedScenario::FieldIoFaulted,
            &Calibration::default(),
        );
        assert!(rep.deterministic(), "{:?}", rep.runs);
        assert!(rep.runs[0].retry.retries >= 1);
    }

    #[test]
    fn faulted_digest_differs_from_plan_change() {
        // same scenario, but the digest folds in the fired faults: a
        // faulted run can never collide with its healthy twin
        let spec = small_spec();
        let cal = Calibration::default();
        let a = run_faulted(&spec, FaultedScenario::IorEasyRp2, &cal);
        let b = run_faulted(&spec, FaultedScenario::IorEasyRp2, &cal);
        assert_eq!(a.digest, b.digest, "replays agree");
        let c = run_faulted(&spec, FaultedScenario::IorHardEc2p1, &cal);
        assert_ne!(a.digest, c.digest, "different plans diverge");
    }

    #[test]
    fn rp2_trace_shows_retries_and_rebuild_under_ops() {
        let rep = replay_faulted(
            &small_spec(),
            FaultedScenario::IorEasyRp2,
            &Calibration::default(),
        );
        // tracing never perturbs the replay digest
        assert!(
            rep.deterministic(),
            "spans changed the schedule: {:?}",
            rep.runs
        );
        let exports = &rep.exports;
        // the rebuild data movement and the client retries both appear
        // as spans on the causal timeline
        let layers = exports.layers();
        assert!(layers.contains(&"rebuild"), "no rebuild span: {layers:?}");
        assert!(
            exports.chrome_json.contains("\"cat\":\"retry\""),
            "no retry span in the trace"
        );
        // retried work is parented under the op that caused it: every
        // retry event names a non-root parent span
        let orphan = exports
            .chrome_json
            .split("},{")
            .filter(|ev| ev.contains("\"cat\":\"retry\""))
            .any(|ev| ev.contains("\"parent\":0,"));
        assert!(!orphan, "retry span without an enclosing op");
        // attempt ordinals above zero mark the re-driven work
        assert!(
            exports.chrome_json.contains("\"attempt\":1"),
            "no attempt>0 span recorded"
        );
        // fired faults land as instant marks
        assert!(exports.chrome_json.contains("\"cat\":\"fault\""));
    }

    #[test]
    fn zero_op_read_phases_return() {
        let mut spec = small_spec();
        spec.ops_per_proc = 0;
        let cal = Calibration::default();
        for scen in FaultedScenario::ALL {
            let opts = FaultedOpts {
                scrub: true,
                ..FaultedOpts::default()
            };
            let (r, _) = run_faulted_with(&spec, scen, &cal, &opts);
            assert_eq!(r.read.ops, 0, "{}", scen.name());
        }
        for scen in crate::rebalance::RebalanceScenario::ALL {
            let opts = crate::rebalance::RebalanceOpts::default();
            let r = crate::rebalance::run_rebalance_with(&spec, scen, &cal, &opts).unwrap();
            assert_eq!(r.read.ops, 0, "{}", scen.name());
        }
    }

    #[test]
    fn in_tree_plans_pass_the_validator() {
        use crate::chaos::{scratch_topology, Family, FaultedFamily};
        use crate::integrity::{IntegrityFamily, IntegrityScenario};
        use crate::rebalance::{builtin_plan, RebalanceFamily, SPARE_SERVERS};
        let cal = Calibration::default();
        let spec = crate::chaos::default_chaos_spec();
        let servers = spec.servers;
        let pool = scratch_topology(servers, &spec, &cal);
        let grown = scratch_topology(servers + SPARE_SERVERS, &spec, &cal);
        for scen in FaultedScenario::ALL {
            check_plan(&fault_plan(scen, &pool), &pool, servers).unwrap();
        }
        check_plan(&builtin_plan(&spec), &grown, servers).unwrap();
        // archived schedules are seed draws or subsets of them, and a
        // subset of a valid plan is valid
        for seed in 0..256 {
            for &scen in FaultedFamily::ALL {
                let plan = FaultedFamily::seed_plan(&spec, &cal, scen, seed);
                check_plan(&plan, &pool, servers).unwrap();
            }
            for &scen in RebalanceFamily::ALL {
                let plan = RebalanceFamily::seed_plan(&spec, &cal, scen, seed);
                check_plan(&plan, &grown, servers).unwrap();
            }
            for &scen in IntegrityFamily::ALL {
                let plan = IntegrityFamily::seed_plan(&spec, &cal, scen, seed);
                let topo = match scen {
                    IntegrityScenario::RotUnderRebalance => &grown,
                    _ => &pool,
                };
                check_plan(&plan, topo, servers).unwrap();
            }
        }
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let r = run_faulted(
            &small_spec(),
            FaultedScenario::IorEasyRp2,
            &Calibration::default(),
        );
        let json = render_json(&[r]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"scenario\""));
        assert!(json.contains("\"redundancy_restored_ms\""));
    }
}
