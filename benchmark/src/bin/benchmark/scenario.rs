//! One pass over one scenario, timed from outside the library.
//!
//! Scenarios the benchmark builds itself go through the same public
//! constructors, in the same order, as `benchkit::run_scenario_digest`,
//! so their replay digests must equal it; the cross-check in `main.rs`
//! holds the benchmark to that.  The faulted scenarios go through
//! `benchkit::run_faulted_with`, which does not expose its phases, with
//! the background scrubber on.

use benchkit::workloads::{FdbWorkload, FieldIoWorkload};
use benchkit::{run_faulted_with, run_phase, FaultedOpts, FaultedScenario, PhaseResult, RunSpec};
use benchkit::{run_scenario_digest, Scenario};
use ceph_sim::{CephDataMode, CephPoolOpts, CephSystem};
use cluster::bench::{Phase, ProcWorkload};
use cluster::{Calibration, ClusterSpec};
use daos_core::{ContainerId, ContainerProps, DaosSystem, DataMode, ObjectClass};
use daos_core::{RetryPolicy, RetryStats, ScrubReport};
use daos_dfs::{Dfs, DfsOpts};
use daos_dfuse::{DfuseMount, DfuseOpts};
use fdb_sim::{FdbCeph, FdbDaos, FdbPosix};
use field_io::FieldIo;
use ior_bench::{Ior, IorBackend, IorConfig};
use lustre_sim::{LustreDataMode, LustreSystem, StripeOpts};
use simkit::{OpId, Scheduler, Step, World};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A scenario as a workload runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Built here from the crates' constructors; phases timed one by one.
    Built(Scenario),
    /// Run through `benchkit::run_faulted_with` with its built-in plan.
    Faulted(FaultedScenario),
}

/// How a pass is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The end-to-end clock only: what a user of `repro` pays.
    Plain,
    /// Workload callbacks timed by [`Timed`]; spans off.
    Timed,
    /// Span recording on, for critical-path attribution.
    Spans,
    /// Like `Plain`, with the scrubber off.  Only faulted scenarios
    /// scrub, and scrub waves are part of their schedule, so such a pass
    /// has no reference to match.
    NoScrub,
}

/// Host seconds of the set-up steps before the first measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Scheduler plus `ClusterSpec::build`.
    pub cluster_build: f64,
    /// Storage-system deployment and container creation.
    pub deploy: f64,
    /// Interface and workload initialisation (format, mount, open).
    pub format: f64,
}

impl SetupSplit {
    pub fn total(&self) -> f64 {
        self.cluster_build + self.deploy + self.format
    }

    /// Every step's time multiplied by `k`.
    pub fn scaled(&self, k: f64) -> SetupSplit {
        SetupSplit {
            cluster_build: self.cluster_build * k,
            deploy: self.deploy * k,
            format: self.format * k,
        }
    }

    pub fn add(&mut self, other: &SetupSplit) {
        self.cluster_build += other.cluster_build;
        self.deploy += other.deploy;
        self.format += other.format;
    }
}

/// The engine's own work counters, read from `Scheduler::stat_*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub recomputes: u64,
    pub flow_visits: u64,
    pub fill_iters: u64,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds of the measured write and read phases.  For a faulted
    /// scenario this is the whole `run_faulted_with` call.
    pub phase_s: f64,
    /// Host seconds inside the workload's `setup`/`op`/`finalize`
    /// ([`Probe::Timed`] passes of built scenarios only).
    pub op_build_s: f64,
    pub write: PhaseResult,
    pub read: PhaseResult,
    pub digest: u64,
    /// Zero for faulted scenarios: their scheduler stays inside benchkit.
    pub engine: EngineCounts,
    pub retry: RetryStats,
    pub rebuild_shards: u64,
    pub scrub: ScrubReport,
    /// Critical-path self time (simulated ns) per span layer
    /// ([`Probe::Spans`] passes only).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Measured ops of both phases.
    pub fn ops(&self) -> u64 {
        (self.write.ops + self.read.ops) as u64
    }
}

/// What the reference entry point produced for a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub digest: u64,
    pub write_bw: f64,
    pub read_bw: f64,
}

impl Reference {
    fn new(digest: u64, write: &PhaseResult, read: &PhaseResult) -> Reference {
        Reference {
            digest,
            write_bw: write.bandwidth(),
            read_bw: read.bandwidth(),
        }
    }

    pub fn of(o: &Outcome) -> Reference {
        Reference::new(o.digest, &o.write, &o.read)
    }
}

/// benchkit's own result for a scenario: the program `repro` runs.
///
/// For a faulted scenario it also checks the set-up rehearsal that
/// `setup_s` times: the healthy write phase run on the rehearsed
/// deployment must equal `run_faulted_with`'s own write phase.
pub fn reference(kind: Kind, spec: &RunSpec, cal: &Calibration) -> Result<Reference, String> {
    match kind {
        Kind::Built(scen) => {
            let (r, digest) = run_scenario_digest(spec, scen, cal);
            Ok(Reference::new(digest, &r.write, &r.read))
        }
        Kind::Faulted(scen) => {
            let (report, _) = run_faulted_with(spec, scen, cal, &faulted_opts(Probe::Plain));
            let rehearsed = rehearsed_write(scen, spec, cal);
            let key = |p: &PhaseResult| (p.bytes, p.seconds, p.ops);
            if key(&rehearsed) != key(&report.write) {
                return Err(format!(
                    "set-up rehearsal's write phase gave {rehearsed:?}, run_faulted_with {:?}",
                    report.write
                ));
            }
            Ok(Reference::new(report.digest, &report.write, &report.read))
        }
    }
}

/// Run one pass.
pub fn pass(kind: Kind, spec: &RunSpec, cal: &Calibration, probe: Probe) -> Outcome {
    match kind {
        Kind::Built(scen) => built_pass(scen, spec, cal, probe),
        Kind::Faulted(scen) => faulted_pass(scen, spec, cal, probe),
    }
}

/// Build everything a pass builds before its first phase, then drop it.
pub fn rehearse_setup(kind: Kind, spec: &RunSpec, cal: &Calibration) -> SetupSplit {
    match kind {
        Kind::Built(scen) => build(scen, spec, cal, false).2,
        Kind::Faulted(scen) => faulted_build(scen, spec, cal).2,
    }
}

struct Sink;
impl World for Sink {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
}

/// Run a set-up step to completion, as benchkit does.
fn exec(sched: &mut Scheduler, step: Step) {
    sched.submit(step, OpId(u64::MAX));
    simkit::run(sched, &mut Sink);
}

/// The scheduler settings of benchkit's scenario runs, which it keeps
/// crate-private: coalescing of 100 µs for transfers of at least
/// 256 KiB and 2 µs otherwise, and a fair-share tolerance of 2%.
fn new_sched(spec: &RunSpec, spans: bool) -> Scheduler {
    let mut sched = Scheduler::new();
    sched.set_coalescing(if spec.transfer >= (256 << 10) {
        100_000
    } else {
        2_000
    });
    sched.set_fairshare_tolerance(0.02);
    if spans {
        sched.enable_spans();
    }
    sched
}

/// Laps of a stopwatch, in seconds.
struct Laps(Instant);

impl Laps {
    fn start() -> Laps {
        Laps(Instant::now())
    }

    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d.as_secs_f64()
    }
}

fn deploy_daos(
    topo: &cluster::Topology,
    sched: &mut Scheduler,
    servers: usize,
) -> (Rc<RefCell<DaosSystem>>, ContainerId) {
    let mut daos = DaosSystem::deploy(topo, sched, servers, DataMode::Sized);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(sched, s);
    (Rc::new(RefCell::new(daos)), cid)
}

fn ior_config(spec: &RunSpec) -> IorConfig {
    let mut c = IorConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc);
    c.transfer_size = spec.transfer;
    c.queue_depth = spec.queue_depth;
    c
}

/// fdb and Field I/O use `S1` wherever the spec asks for the generic `SX`.
fn narrow_class(spec_class: ObjectClass, default: ObjectClass) -> ObjectClass {
    if spec_class == ObjectClass::SX {
        default
    } else {
        spec_class
    }
}

/// The workload of a built scenario, ready for its write phase.
enum Stack {
    Ior(Ior),
    FieldIo(FieldIoWorkload),
    FdbDaos(FdbWorkload<FdbDaos>),
    FdbLustre(FdbWorkload<FdbPosix<LustreSystem>>),
    FdbCeph(FdbWorkload<FdbCeph>),
}

/// Everything before the first phase, in `benchkit::run_scenario_on`'s order.
fn build(
    scen: Scenario,
    spec: &RunSpec,
    cal: &Calibration,
    spans: bool,
) -> (Scheduler, Stack, SetupSplit) {
    let mut laps = Laps::start();
    let mut sched = new_sched(spec, spans);
    let topo = ClusterSpec::new(spec.servers, spec.client_nodes)
        .with_cal(cal.clone())
        .build(&mut sched);
    let cluster_build = laps.lap();
    let (procs, nodes, ops) = (spec.procs(), spec.client_nodes, spec.ops_per_proc);
    let (deploy, stack) = match scen {
        Scenario::IorDaos
        | Scenario::IorDfs
        | Scenario::IorDfuse
        | Scenario::IorDfuseIl
        | Scenario::FieldIo
        | Scenario::FdbDaos => {
            let (daos, cid) = deploy_daos(&topo, &mut sched, spec.servers);
            let deploy = laps.lap();
            let dfs_opts = DfsOpts {
                file_class: spec.data_class,
                dir_class: spec.meta_class,
                chunk_size: 1 << 20,
            };
            let stack = match scen {
                Scenario::IorDaos => Stack::Ior(Ior::new(
                    ior_config(spec),
                    IorBackend::Daos {
                        daos,
                        cid,
                        oclass: spec.data_class,
                    },
                )),
                Scenario::IorDfs => {
                    let (dfs, s) = Dfs::format(daos, 0, cid, dfs_opts).expect("dfs format");
                    exec(&mut sched, s);
                    Stack::Ior(Ior::new(ior_config(spec), IorBackend::Dfs(dfs)))
                }
                Scenario::IorDfuse | Scenario::IorDfuseIl => {
                    let (dfs, s) = Dfs::format(daos, 0, cid, dfs_opts).expect("dfs format");
                    exec(&mut sched, s);
                    let mut opts = if scen == Scenario::IorDfuseIl {
                        DfuseOpts::with_interception()
                    } else {
                        DfuseOpts::default()
                    };
                    if let Some(threads) = spec.fuse_threads {
                        opts.fuse_threads = threads;
                    }
                    opts.data_caching = spec.dfuse_caching;
                    opts.metadata_caching = spec.dfuse_caching;
                    let mount = DfuseMount::mount(dfs, &mut sched, opts);
                    Stack::Ior(Ior::new(
                        ior_config(spec),
                        IorBackend::Posix(Box::new(mount)),
                    ))
                }
                Scenario::FieldIo => {
                    let (mut fio, s) = FieldIo::new(daos, 0, cid).expect("field-io init");
                    exec(&mut sched, s);
                    fio.set_array_class(narrow_class(spec.data_class, ObjectClass::S1));
                    fio.size_check_on_read = spec.fieldio_size_check;
                    Stack::FieldIo(FieldIoWorkload::new(fio, procs, nodes, ops, spec.transfer))
                }
                Scenario::FdbDaos => {
                    let array = narrow_class(spec.data_class, ObjectClass::S1);
                    let kv = narrow_class(spec.meta_class, ObjectClass::S1);
                    let (fdb, s) = FdbDaos::new(daos, 0, cid, array, kv).expect("fdb init");
                    exec(&mut sched, s);
                    Stack::FdbDaos(FdbWorkload::new(fdb, procs, nodes, ops, spec.transfer))
                }
                _ => unreachable!(),
            };
            (deploy, stack)
        }
        Scenario::FdbLustre => {
            let stripes = StripeOpts {
                count: 8,
                size: 8 << 20,
            };
            let fs = LustreSystem::deploy(
                &topo,
                &mut sched,
                spec.servers,
                LustreDataMode::Sized,
                stripes,
            );
            let deploy = laps.lap();
            let fdb = FdbPosix::new(fs, cal.fdb_flush_bytes).expect("fdb init");
            let wl = FdbWorkload::new(fdb, procs, nodes, ops, spec.transfer);
            (deploy, Stack::FdbLustre(wl))
        }
        Scenario::FdbCeph => {
            let pool = CephPoolOpts {
                pg_num: spec.pg_num,
                replicas: 1,
                ec: None,
            };
            let ceph =
                CephSystem::deploy(&topo, &mut sched, spec.servers, CephDataMode::Sized, pool)
                    .expect("ceph deploy");
            let deploy = laps.lap();
            let wl = FdbWorkload::new(FdbCeph::new(ceph), procs, nodes, ops, spec.transfer);
            (deploy, Stack::FdbCeph(wl))
        }
        other => panic!("{} is in no benchmark workload", other.name()),
    };
    let setup = SetupSplit {
        cluster_build,
        deploy,
        format: laps.lap(),
    };
    (sched, stack, setup)
}

/// A workload whose `setup`/`op`/`finalize` calls are timed: the host
/// time the interface layers spend building each op's step chain.
struct Timed<'a, W> {
    inner: &'a mut W,
    spent: Duration,
}

impl<W> Timed<'_, W> {
    fn time<T>(&mut self, f: impl FnOnce(&mut W) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner);
        self.spent += t.elapsed();
        out
    }
}

impl<W: ProcWorkload> ProcWorkload for Timed<'_, W> {
    fn procs(&self) -> usize {
        self.inner.procs()
    }
    fn node_of(&self, proc: usize) -> usize {
        self.inner.node_of(proc)
    }
    fn setup(&mut self, proc: usize) -> Step {
        self.time(|w| w.setup(proc))
    }
    fn ops_per_proc(&self) -> usize {
        self.inner.ops_per_proc()
    }
    fn bytes_per_op(&self) -> f64 {
        self.inner.bytes_per_op()
    }
    fn op(&mut self, proc: usize, idx: usize) -> Step {
        self.time(|w| w.op(proc, idx))
    }
    fn finalize(&mut self, proc: usize) -> Step {
        self.time(|w| w.finalize(proc))
    }
    fn finalize_bytes(&self) -> f64 {
        self.inner.finalize_bytes()
    }
    fn finalize_in_window(&self) -> bool {
        self.inner.finalize_in_window()
    }
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
}

/// One `run_phase`, with its wall time and the time spent in callbacks.
fn timed_phase<W: ProcWorkload>(
    sched: &mut Scheduler,
    wl: &mut W,
    probe: Probe,
) -> (PhaseResult, f64, f64) {
    let t = Instant::now();
    let (result, in_callbacks) = if probe == Probe::Timed {
        let mut timed = Timed {
            inner: wl,
            spent: Duration::ZERO,
        };
        let r = run_phase(sched, &mut timed);
        (r, timed.spent)
    } else {
        (run_phase(sched, wl), Duration::ZERO)
    };
    (
        result,
        t.elapsed().as_secs_f64(),
        in_callbacks.as_secs_f64(),
    )
}

/// Write phase, switch to read, read phase.
struct Driven {
    write: PhaseResult,
    read: PhaseResult,
    phase_s: f64,
    op_build_s: f64,
    retry: RetryStats,
}

fn drive<W: ProcWorkload>(
    sched: &mut Scheduler,
    wl: &mut W,
    probe: Probe,
    to_read: impl FnOnce(&mut W),
    retry: impl FnOnce(&W) -> RetryStats,
) -> Driven {
    let (write, w_wall, w_cb) = timed_phase(sched, wl, probe);
    to_read(wl);
    let (read, r_wall, r_cb) = timed_phase(sched, wl, probe);
    Driven {
        write,
        read,
        phase_s: w_wall + r_wall,
        op_build_s: w_cb + r_cb,
        retry: retry(wl),
    }
}

fn self_ns_by_layer(log: &simkit::SpanLog) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for c in simkit::critical_path(log) {
        *by_layer.entry(c.layer).or_insert(0) += c.self_ns;
    }
    by_layer
}

fn built_pass(scen: Scenario, spec: &RunSpec, cal: &Calibration, probe: Probe) -> Outcome {
    let (mut sched, mut stack, _) = build(scen, spec, cal, probe == Probe::Spans);
    let sched = &mut sched;
    let d = match &mut stack {
        Stack::Ior(w) => drive(
            sched,
            w,
            probe,
            |w| w.set_phase(Phase::Read),
            |w| w.retry_stats(),
        ),
        Stack::FieldIo(w) => drive(
            sched,
            w,
            probe,
            |w| w.phase = Phase::Read,
            |w| w.fio.retry_stats(),
        ),
        Stack::FdbDaos(w) => drive(
            sched,
            w,
            probe,
            |w| w.phase = Phase::Read,
            |w| w.fdb.retry_stats(),
        ),
        Stack::FdbLustre(w) => drive(
            sched,
            w,
            probe,
            |w| w.phase = Phase::Read,
            |w| w.fdb.retry_stats(),
        ),
        Stack::FdbCeph(w) => drive(
            sched,
            w,
            probe,
            |w| w.phase = Phase::Read,
            |w| w.fdb.retry_stats(),
        ),
    };
    Outcome {
        phase_s: d.phase_s,
        op_build_s: d.op_build_s,
        write: d.write,
        read: d.read,
        digest: sched.digest(),
        engine: EngineCounts {
            recomputes: sched.stat_recomputes,
            flow_visits: sched.stat_flow_visits,
            fill_iters: sched.stat_fill_iters,
        },
        retry: d.retry,
        rebuild_shards: 0,
        scrub: ScrubReport::default(),
        self_ns: if probe == Probe::Spans {
            self_ns_by_layer(sched.spans())
        } else {
            BTreeMap::new()
        },
    }
}

/// `run_faulted_with`'s built-in fault plan, scrubbing unless the probe
/// says not to.
fn faulted_opts(probe: Probe) -> FaultedOpts {
    FaultedOpts {
        traced: probe == Probe::Spans,
        scrub: probe != Probe::NoScrub,
        ..FaultedOpts::default()
    }
}

fn faulted_pass(scen: FaultedScenario, spec: &RunSpec, cal: &Calibration, probe: Probe) -> Outcome {
    let opts = faulted_opts(probe);
    let t = Instant::now();
    let (report, exports) = run_faulted_with(spec, scen, cal, &opts);
    let phase_s = t.elapsed().as_secs_f64();
    let mut self_ns = BTreeMap::new();
    for c in exports.iter().flat_map(|e| &e.path) {
        *self_ns.entry(c.layer).or_insert(0) += c.self_ns;
    }
    Outcome {
        phase_s,
        op_build_s: 0.0,
        write: report.write,
        read: report.read,
        digest: report.digest,
        engine: EngineCounts::default(),
        retry: report.retry,
        rebuild_shards: report.rebuild.map_or(0, |r| r.shards_rebuilt as u64),
        scrub: report.scrub.unwrap_or_default(),
        self_ns,
    }
}

/// The deployment `run_faulted_with` performs before its write phase,
/// copied from it; [`reference`] checks the copy on every run.
fn faulted_build(
    scen: FaultedScenario,
    spec: &RunSpec,
    cal: &Calibration,
) -> (Scheduler, Stack, SetupSplit) {
    let mut laps = Laps::start();
    let mut sched = new_sched(spec, false);
    let topo = ClusterSpec::new(spec.servers, spec.client_nodes)
        .with_cal(cal.clone())
        .build(&mut sched);
    let cluster_build = laps.lap();
    let (daos, cid) = deploy_daos(&topo, &mut sched, spec.servers);
    let deploy = laps.lap();
    let stack = match scen {
        FaultedScenario::IorEasyRp2 | FaultedScenario::IorHardEc2p1 => {
            let mut cfg = ior_config(spec);
            let oclass = if scen == FaultedScenario::IorEasyRp2 {
                ObjectClass::RP_2
            } else {
                cfg.file_per_proc = false;
                cfg.access = ior_bench::AccessOrder::Random;
                ObjectClass::EC_2P1
            };
            let mut ior = Ior::new(cfg, IorBackend::Daos { daos, cid, oclass });
            ior.set_retry_policy(RetryPolicy::default(), spec.seed);
            Stack::Ior(ior)
        }
        FaultedScenario::FieldIoFaulted => {
            let (mut fio, s) =
                FieldIo::with_classes(daos, 0, cid, ObjectClass::EC_2P1, ObjectClass::RP_2)
                    .expect("field-io init");
            exec(&mut sched, s);
            fio.set_retry_policy(RetryPolicy::default(), spec.seed);
            let (procs, nodes) = (spec.procs(), spec.client_nodes);
            Stack::FieldIo(FieldIoWorkload::new(
                fio,
                procs,
                nodes,
                spec.ops_per_proc,
                spec.transfer,
            ))
        }
    };
    let setup = SetupSplit {
        cluster_build,
        deploy,
        format: laps.lap(),
    };
    (sched, stack, setup)
}

/// The healthy write phase on a rehearsed faulted deployment.
fn rehearsed_write(scen: FaultedScenario, spec: &RunSpec, cal: &Calibration) -> PhaseResult {
    let (mut sched, mut stack, _) = faulted_build(scen, spec, cal);
    match &mut stack {
        Stack::Ior(w) => run_phase(&mut sched, w),
        Stack::FieldIo(w) => run_phase(&mut sched, w),
        _ => unreachable!("faulted scenarios run IOR or Field I/O"),
    }
}
