//! Scenario builders: every system × interface × benchmark combination
//! the paper measures, constructed from scratch per run (one simulated
//! deployment per repetition, like the paper's re-deployed clusters).

use crate::driver::{run_phase, PhaseResult};
use crate::stats::Stats;
use crate::workloads::{FdbWorkload, FieldIoWorkload};
use ceph_sim::{CephDataMode, CephPoolOpts, CephSystem};
use cluster::bench::Phase;
use cluster::{Calibration, ClusterSpec, Topology};
use daos_core::{ContainerProps, DaosSystem, DataMode, ObjectClass};
use daos_dfs::{Dfs, DfsOpts};
use daos_dfuse::{DfuseMount, DfuseOpts};
use fdb_sim::{FdbCeph, FdbDaos, FdbPosix};
use field_io::FieldIo;
use hdf5_lite::H5Runtime;
use ior_bench::{Ior, IorBackend, IorConfig};
use lustre_sim::{LustreDataMode, LustreSystem, StripeOpts};
use simkit::{run, OpId, Scheduler, SplitMix64, World};
use std::cell::RefCell;
use std::rc::Rc;

/// One point of a sweep: deployment size, client shape, workload size.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Storage-server nodes.
    pub servers: usize,
    /// Client nodes.
    pub client_nodes: usize,
    /// Processes per client node.
    pub ppn: usize,
    /// Operations per process in each measured phase.
    pub ops_per_proc: usize,
    /// Transfer size per operation.
    pub transfer: u64,
    /// Object class for bulk data (Arrays/files); `SX` is the paper's
    /// default, `EC_2P1` in the redundancy experiments.
    pub data_class: ObjectClass,
    /// Object class for metadata entities (Key-Values/directories).
    pub meta_class: ObjectClass,
    /// Ceph placement groups.
    pub pg_num: usize,
    /// Override the DFUSE daemon thread count (ablation knob).
    pub fuse_threads: Option<usize>,
    /// Enable DFUSE client-side data+metadata caching (the paper runs
    /// with caching disabled; ablation knob).
    pub dfuse_caching: bool,
    /// Field I/O's per-read size check (ablation knob; the real tool
    /// always checks).
    pub fieldio_size_check: bool,
    /// IOR in-flight ops per process (1 = the paper's synchronous runs).
    pub queue_depth: usize,
    /// Base RNG seed (repetitions derive from it).
    pub seed: u64,
}

impl RunSpec {
    /// A spec with the paper's defaults and an auto-scaled op count.
    pub fn new(servers: usize, client_nodes: usize, ppn: usize) -> RunSpec {
        let procs = (client_nodes * ppn).max(1);
        RunSpec {
            servers,
            client_nodes,
            ppn,
            ops_per_proc: auto_ops(procs),
            transfer: 1 << 20,
            data_class: ObjectClass::SX,
            meta_class: ObjectClass::SX,
            pg_num: 1024,
            fuse_threads: None,
            dfuse_caching: false,
            fieldio_size_check: true,
            queue_depth: 1,
            seed: 42,
        }
    }

    /// Total parallel processes.
    pub fn procs(&self) -> usize {
        self.client_nodes * self.ppn
    }

    /// Reject a spec no deployment can run.  Every entry that takes a
    /// spec from outside (an archived schedule, a property test) checks
    /// it here before it deploys anything.
    pub(crate) fn check(&self) -> Result<(), String> {
        // every family deploys a pool over the servers, and a pool needs one
        if self.servers == 0 {
            return Err("spec.servers must be at least 1".into());
        }
        Ok(())
    }
}

/// Scale the per-process op count down from the paper's 10k so sweeps
/// stay tractable: steady-state bandwidth is reached long before.
pub fn auto_ops(procs: usize) -> usize {
    (40_000 / procs.max(1)).clamp(24, 256)
}

/// The benchmark × interface × store combinations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// IOR on native libdaos Arrays (Fig. 1).
    IorDaos,
    /// IOR on libdfs files (Fig. 1).
    IorDfs,
    /// IOR POSIX on a DFUSE mount (Fig. 1, 2).
    IorDfuse,
    /// IOR POSIX on DFUSE with the interception library (Fig. 1, 2).
    IorDfuseIl,
    /// IOR HDF5 backend, POSIX VFD on DFUSE+IL (Fig. 3 a/b).
    IorHdf5DfuseIl,
    /// IOR HDF5 backend, DAOS VOL connector (Fig. 3 c/d, Fig. 4).
    IorHdf5Daos,
    /// Field I/O on libdaos (Fig. 3 e/f).
    FieldIo,
    /// fdb-hammer on libdaos (Fig. 3 g/h, Fig. 6, 9).
    FdbDaos,
    /// IOR POSIX on Lustre (§III-E).
    IorLustre,
    /// fdb-hammer POSIX on Lustre (Fig. 7, 9).
    FdbLustre,
    /// IOR on librados (§III-F).
    IorCeph,
    /// fdb-hammer on librados (Fig. 8, 9).
    FdbCeph,
}

impl Scenario {
    /// Every paper scenario, in presentation order.
    pub const ALL: [Scenario; 12] = [
        Scenario::IorDaos,
        Scenario::IorDfs,
        Scenario::IorDfuse,
        Scenario::IorDfuseIl,
        Scenario::IorHdf5DfuseIl,
        Scenario::IorHdf5Daos,
        Scenario::FieldIo,
        Scenario::FdbDaos,
        Scenario::IorLustre,
        Scenario::FdbLustre,
        Scenario::IorCeph,
        Scenario::FdbCeph,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::IorDaos => "IOR/libdaos",
            Scenario::IorDfs => "IOR/DFS",
            Scenario::IorDfuse => "IOR/DFUSE",
            Scenario::IorDfuseIl => "IOR/DFUSE+IL",
            Scenario::IorHdf5DfuseIl => "IOR-HDF5/DFUSE+IL",
            Scenario::IorHdf5Daos => "IOR-HDF5/libdaos",
            Scenario::FieldIo => "Field I/O",
            Scenario::FdbDaos => "fdb-hammer/libdaos",
            Scenario::IorLustre => "IOR/Lustre",
            Scenario::FdbLustre => "fdb-hammer/Lustre",
            Scenario::IorCeph => "IOR/librados",
            Scenario::FdbCeph => "fdb-hammer/librados",
        }
    }
}

/// Write- and read-phase results of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Write-phase measurement.
    pub write: PhaseResult,
    /// Read-phase measurement.
    pub read: PhaseResult,
}

struct Sink;
impl World for Sink {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
}

pub(crate) fn exec(sched: &mut Scheduler, step: simkit::Step) {
    sched.submit(step, OpId(u64::MAX));
    run(sched, &mut Sink);
}

pub(crate) fn make_sched(spec: &RunSpec, with_monitor: bool) -> Scheduler {
    let mut sched = if with_monitor {
        Scheduler::with_monitor()
    } else {
        Scheduler::new()
    };
    // Performance knobs for large sweeps: batch near-simultaneous
    // completions (the quantum is far below any modelled latency but
    // merges whole waves of op completions into one fair-share solve),
    // and allow 2% slack in bottleneck selection.
    sched.set_coalescing(if spec.transfer >= (256 << 10) {
        100_000
    } else {
        2_000
    });
    sched.set_fairshare_tolerance(0.02);
    sched
}

/// Execute one scenario at one sweep point with the given calibration.
pub fn run_scenario(spec: &RunSpec, scen: Scenario, cal: &Calibration) -> RunResult {
    let mut sched = make_sched(spec, false);
    run_scenario_on(&mut sched, spec, scen, cal).0
}

/// Like [`run_scenario`], but also returns the scheduler's replay digest
/// (see [`simkit::trace::ReplayDigest`]): an order-sensitive hash of the
/// full `(time, op)` completion stream, including deployment and setup
/// traffic.  Two calls with equal arguments must return bit-identical
/// results *and* digests — the property the determinism harness checks
/// for every scenario (see [`crate::determinism`]).
pub fn run_scenario_digest(spec: &RunSpec, scen: Scenario, cal: &Calibration) -> (RunResult, u64) {
    let mut sched = make_sched(spec, false);
    let (result, _) = run_scenario_on(&mut sched, spec, scen, cal);
    (result, sched.digest())
}

/// Like [`run_scenario_digest`], but also returns the scheduler's exact
/// work counts `[stat_recomputes, stat_flow_visits, stat_fill_iters]`,
/// which replay as stably as the digest does.
pub fn run_scenario_work(
    spec: &RunSpec,
    scen: Scenario,
    cal: &Calibration,
) -> (RunResult, u64, [u64; 3]) {
    let mut sched = make_sched(spec, false);
    let (result, _) = run_scenario_on(&mut sched, spec, scen, cal);
    let work = [
        sched.stat_recomputes,
        sched.stat_flow_visits,
        sched.stat_fill_iters,
    ];
    (result, sched.digest(), work)
}

/// Like [`run_scenario_digest`], but with an engine-level fault
/// schedule installed before the run starts (event times are offsets
/// from run start).  Only engine-applied actions
/// ([`simkit::FaultAction::SlowDisk`] /
/// [`simkit::FaultAction::NicBrownout`]) take effect here — the generic
/// scenario drivers have no fault-aware world, so crash or delay events
/// would fire into the default no-op handler.  The chaos swarm uses
/// this to subject every scenario in [`Scenario::ALL`] to random
/// capacity weather and assert determinism still holds.  Fails on a
/// spec no deployment can run (no server) and when the plan does not
/// install (see [`simkit::Scheduler::install_faults`]).
pub fn run_scenario_chaos(
    spec: &RunSpec,
    scen: Scenario,
    cal: &Calibration,
    plan: &simkit::FaultPlan,
) -> Result<(RunResult, u64), String> {
    spec.check()?;
    let mut sched = make_sched(spec, false);
    // install once the cluster's disks and NICs exist (the plan's fault
    // surface), before any op completes
    let topo = build_cluster(&mut sched, spec, cal);
    let t0 = sched.now();
    sched.install_faults(plan.shifted(t0))?;
    let (result, _) = run_scenario_in(&mut sched, &topo, spec, scen, cal);
    Ok((result, sched.digest()))
}

/// Like [`run_scenario`], but with per-resource utilisation analysis:
/// returns the top-`top` resources by utilisation in each phase — the
/// saturation reasoning the paper applies to every figure.
pub fn analyze_scenario(
    spec: &RunSpec,
    scen: Scenario,
    cal: &Calibration,
    top: usize,
) -> (RunResult, Vec<ResourceUse>) {
    let mut sched = make_sched(spec, true);
    let (result, mid) = run_scenario_on(&mut sched, spec, scen, cal);
    let n = sched.resource_count();
    let end = sched.monitor().snapshot(n);
    let caps = sched.capacities().to_vec();
    let mut uses: Vec<ResourceUse> = (0..n)
        .filter(|&i| caps[i] > simkit::Rate::ZERO)
        .map(|i| {
            let w_units = mid.get(i).copied().unwrap_or(0.0);
            let r_units = end[i] - w_units;
            ResourceUse {
                name: sched
                    .resource_name(simkit::ResourceId(i as u32))
                    .to_string(),
                write_frac: if result.write.seconds > 0.0 {
                    w_units / caps[i].bytes_in(result.write.seconds).get()
                } else {
                    0.0
                },
                read_frac: if result.read.seconds > 0.0 {
                    r_units / caps[i].bytes_in(result.read.seconds).get()
                } else {
                    0.0
                },
            }
        })
        .collect();
    uses.sort_by(|a, b| {
        b.write_frac
            .max(b.read_frac)
            .partial_cmp(&a.write_frac.max(a.read_frac))
            .unwrap()
    });
    uses.truncate(top);
    (result, uses)
}

/// Utilisation of one resource across the two phases.
#[derive(Debug, Clone)]
pub struct ResourceUse {
    /// Resource name as registered with the scheduler.
    pub name: String,
    /// Mean utilisation during the write phase (0..=1, approximate:
    /// setup traffic is attributed to the write window).
    pub write_frac: f64,
    /// Mean utilisation during the read phase.
    pub read_frac: f64,
}

/// Register the cluster of `spec` on `sched`.
fn build_cluster(sched: &mut Scheduler, spec: &RunSpec, cal: &Calibration) -> Topology {
    ClusterSpec::new(spec.servers, spec.client_nodes)
        .with_cal(cal.clone())
        .build(sched)
}

pub(crate) fn run_scenario_on(
    sched: &mut Scheduler,
    spec: &RunSpec,
    scen: Scenario,
    cal: &Calibration,
) -> (RunResult, Vec<f64>) {
    let topo = build_cluster(sched, spec, cal);
    run_scenario_in(sched, &topo, spec, scen, cal)
}

/// [`run_scenario_on`] over a cluster already registered on `sched`.
fn run_scenario_in(
    sched: &mut Scheduler,
    topo: &Topology,
    spec: &RunSpec,
    scen: Scenario,
    cal: &Calibration,
) -> (RunResult, Vec<f64>) {
    let procs = spec.procs();
    let ior_cfg = |ops: usize| {
        let mut c = IorConfig::new(procs, spec.client_nodes, ops);
        c.transfer_size = spec.transfer;
        c.queue_depth = spec.queue_depth;
        c
    };

    match scen {
        Scenario::IorDaos
        | Scenario::IorDfs
        | Scenario::IorDfuse
        | Scenario::IorDfuseIl
        | Scenario::IorHdf5DfuseIl
        | Scenario::IorHdf5Daos => {
            let mut daos = DaosSystem::deploy(topo, sched, spec.servers, DataMode::Sized);
            let (cid, s) = daos.cont_create(0, ContainerProps::default());
            exec(sched, s);
            let daos = Rc::new(RefCell::new(daos));
            let dfs_opts = DfsOpts {
                file_class: spec.data_class,
                dir_class: spec.meta_class,
                chunk_size: 1 << 20,
            };
            let backend = match scen {
                Scenario::IorDaos => IorBackend::Daos {
                    daos: daos.clone(),
                    cid,
                    oclass: spec.data_class,
                },
                Scenario::IorDfs => {
                    let (dfs, s) = Dfs::format(daos.clone(), 0, cid, dfs_opts).expect("dfs");
                    exec(sched, s);
                    IorBackend::Dfs(dfs)
                }
                Scenario::IorDfuse | Scenario::IorDfuseIl => {
                    let (dfs, s) = Dfs::format(daos.clone(), 0, cid, dfs_opts).expect("dfs");
                    exec(sched, s);
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
                    IorBackend::Posix(Box::new(DfuseMount::mount(dfs, sched, opts)))
                }
                Scenario::IorHdf5DfuseIl => {
                    let (dfs, s) = Dfs::format(daos.clone(), 0, cid, dfs_opts).expect("dfs");
                    exec(sched, s);
                    let rt = H5Runtime::new(sched, spec.client_nodes, cal);
                    let mount = DfuseMount::mount(dfs, sched, DfuseOpts::with_interception());
                    IorBackend::Hdf5Posix {
                        rt,
                        fs: Box::new(mount),
                    }
                }
                Scenario::IorHdf5Daos => {
                    let rt = H5Runtime::new(sched, spec.client_nodes, cal);
                    IorBackend::Hdf5Daos {
                        rt,
                        daos: daos.clone(),
                        oclass: spec.data_class,
                    }
                }
                _ => unreachable!(),
            };
            let mut ior = Ior::new(ior_cfg(spec.ops_per_proc), backend);
            two_phase(sched, &mut ior, |w| w.set_phase(Phase::Read))
        }
        Scenario::FieldIo => {
            let mut daos = DaosSystem::deploy(topo, sched, spec.servers, DataMode::Sized);
            let (cid, s) = daos.cont_create(0, ContainerProps::default());
            exec(sched, s);
            let daos = Rc::new(RefCell::new(daos));
            let (mut fio, s) = FieldIo::new(daos, 0, cid).expect("fieldio");
            exec(sched, s);
            // paper: S1 Arrays unless the spec overrides for redundancy
            fio.set_array_class(narrow_class(spec.data_class, ObjectClass::S1));
            fio.size_check_on_read = spec.fieldio_size_check;
            let mut wl = FieldIoWorkload::new(
                fio,
                procs,
                spec.client_nodes,
                spec.ops_per_proc,
                spec.transfer,
            );
            two_phase(sched, &mut wl, |w| w.phase = Phase::Read)
        }
        Scenario::FdbDaos => {
            let mut daos = DaosSystem::deploy(topo, sched, spec.servers, DataMode::Sized);
            let (cid, s) = daos.cont_create(0, ContainerProps::default());
            exec(sched, s);
            let daos = Rc::new(RefCell::new(daos));
            // paper: S1 for both Arrays and Key-Values in fdb-hammer
            let array_class = narrow_class(spec.data_class, ObjectClass::S1);
            let kv_class = narrow_class(spec.meta_class, ObjectClass::S1);
            let (fdb, s) = FdbDaos::new(daos, 0, cid, array_class, kv_class).expect("fdb");
            exec(sched, s);
            run_fdb(sched, fdb, spec)
        }
        Scenario::IorLustre => {
            let fs = LustreSystem::deploy(
                topo,
                sched,
                spec.servers,
                LustreDataMode::Sized,
                StripeOpts {
                    count: 8,
                    size: 1 << 20,
                },
            );
            let mut ior = Ior::new(ior_cfg(spec.ops_per_proc), IorBackend::Posix(Box::new(fs)));
            two_phase(sched, &mut ior, |w| w.set_phase(Phase::Read))
        }
        Scenario::FdbLustre => {
            let fs = LustreSystem::deploy(
                topo,
                sched,
                spec.servers,
                LustreDataMode::Sized,
                // the paper's fdb runs: stripe over 8 OSTs, 8 MiB stripes
                StripeOpts {
                    count: 8,
                    size: 8 << 20,
                },
            );
            let fdb = FdbPosix::new(fs, cal.fdb_flush_bytes).expect("fdb");
            run_fdb(sched, fdb, spec)
        }
        Scenario::IorCeph => {
            let ceph = CephSystem::deploy(
                topo,
                sched,
                spec.servers,
                CephDataMode::Sized,
                CephPoolOpts {
                    pg_num: spec.pg_num,
                    replicas: 1,
                    ec: None,
                },
            )
            .expect("ceph");
            // per-process objects are capped at 132 MiB: the paper runs
            // only 100 × 1 MiB ops per process
            let ops = spec.ops_per_proc.min(100);
            let mut ior = Ior::new(ior_cfg(ops), IorBackend::Rados(ceph));
            two_phase(sched, &mut ior, |w| w.set_phase(Phase::Read))
        }
        Scenario::FdbCeph => {
            let ceph = CephSystem::deploy(
                topo,
                sched,
                spec.servers,
                CephDataMode::Sized,
                CephPoolOpts {
                    pg_num: spec.pg_num,
                    replicas: 1,
                    ec: None,
                },
            )
            .expect("ceph");
            let fdb = FdbCeph::new(ceph);
            run_fdb(sched, fdb, spec)
        }
    }
}

/// fdb uses `S1` wherever the spec asks for the generic `SX` default;
/// explicit redundancy classes pass through.
fn narrow_class(spec_class: ObjectClass, fdb_default: ObjectClass) -> ObjectClass {
    if spec_class == ObjectClass::SX {
        fdb_default
    } else {
        spec_class
    }
}

/// Drive write phase, snapshot the monitor, switch to read, drive read.
fn two_phase<W: cluster::bench::ProcWorkload>(
    sched: &mut Scheduler,
    wl: &mut W,
    to_read: impl FnOnce(&mut W),
) -> (RunResult, Vec<f64>) {
    let write = run_phase(sched, wl);
    let mid = sched.monitor().snapshot(sched.resource_count());
    to_read(wl);
    let read = run_phase(sched, wl);
    (RunResult { write, read }, mid)
}

fn run_fdb<B: fdb_sim::Fdb>(
    sched: &mut Scheduler,
    fdb: B,
    spec: &RunSpec,
) -> (RunResult, Vec<f64>) {
    let mut wl = FdbWorkload::new(
        fdb,
        spec.procs(),
        spec.client_nodes,
        spec.ops_per_proc,
        spec.transfer,
    );
    two_phase(sched, &mut wl, |w| w.phase = Phase::Read)
}

/// Repetition statistics of one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct PointStats {
    /// Write bandwidth (bytes/s).
    pub write_bw: Stats,
    /// Read bandwidth (bytes/s).
    pub read_bw: Stats,
    /// Write operation rate (ops/s).
    pub write_iops: Stats,
    /// Read operation rate (ops/s).
    pub read_iops: Stats,
}

/// Run a scenario `reps` times (the paper uses 3) with per-repetition
/// calibration perturbation, and aggregate.
pub fn run_reps(spec: &RunSpec, scen: Scenario, base: &Calibration, reps: usize) -> PointStats {
    let mut wbw = Vec::with_capacity(reps);
    let mut rbw = Vec::with_capacity(reps);
    let mut wio = Vec::with_capacity(reps);
    let mut rio = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut rng = SplitMix64::new(spec.seed ^ (0x9e37 + rep as u64 * 7919));
        let cal = base.perturb(&mut rng);
        let r = run_scenario(spec, scen, &cal);
        wbw.push(r.write.bandwidth());
        rbw.push(r.read.bandwidth());
        wio.push(r.write.iops());
        rio.push(r.read.iops());
    }
    PointStats {
        write_bw: Stats::from(&wbw),
        read_bw: Stats::from(&rbw),
        write_iops: Stats::from(&wio),
        read_iops: Stats::from(&rio),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::GIB;

    #[test]
    fn auto_ops_bounds() {
        assert_eq!(auto_ops(1), 256);
        assert_eq!(auto_ops(4096), 24);
        assert!(auto_ops(512) >= 24);
    }

    #[test]
    fn small_ior_daos_run_is_sane() {
        let mut spec = RunSpec::new(2, 2, 8);
        spec.ops_per_proc = 24;
        let r = run_scenario(&spec, Scenario::IorDaos, &Calibration::default());
        let w = r.write.bandwidth() / GIB;
        let rd = r.read.bandwidth() / GIB;
        assert!(w > 1.0 && w <= 2.0 * 3.86, "write {w} GiB/s");
        assert!(rd > w, "read {rd} should beat write {w}");
    }

    #[test]
    fn reps_produce_spread() {
        let mut spec = RunSpec::new(1, 1, 4);
        spec.ops_per_proc = 16;
        let p = run_reps(&spec, Scenario::IorDaos, &Calibration::default(), 3);
        assert_eq!(p.write_bw.n, 3);
        assert!(p.write_bw.mean > 0.0);
        assert!(
            p.write_bw.rel_std() < 0.2,
            "spread {}",
            p.write_bw.rel_std()
        );
        assert!(p.write_bw.std > 0.0, "perturbation must create spread");
    }
}

/// Which mount an mdtest run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdStore {
    /// DFUSE over DAOS (distributed metadata).
    Dfuse,
    /// Lustre (single MDS).
    Lustre,
}

/// Run the mdtest metadata benchmark: returns (create, stat, remove)
/// phase results.  Backs the paper's C4 metadata-performance claim with
/// the IO500-style workload it cites.
pub fn run_mdtest(spec: &RunSpec, store: MdStore, cal: &Calibration) -> [PhaseResult; 3] {
    use ior_bench::{MdPhase, Mdtest, MdtestConfig};
    let mut sched = make_sched(spec, false);
    // metadata ops are small: use the tight quantum
    sched.set_coalescing(2_000);
    let cspec = ClusterSpec::new(spec.servers, spec.client_nodes).with_cal(cal.clone());
    let topo = cspec.build(&mut sched);
    let fs: Box<dyn cluster::posix::PosixFs> = match store {
        MdStore::Dfuse => {
            let mut daos = DaosSystem::deploy(&topo, &mut sched, spec.servers, DataMode::Sized);
            let (cid, s) = daos.cont_create(0, ContainerProps::default());
            exec(&mut sched, s);
            let daos = Rc::new(RefCell::new(daos));
            let (dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).expect("dfs");
            exec(&mut sched, s);
            // mdtest runs use the kernel dentry cache (IO500 practice)
            let opts = DfuseOpts {
                metadata_caching: true,
                ..Default::default()
            };
            Box::new(DfuseMount::mount(dfs, &mut sched, opts))
        }
        MdStore::Lustre => Box::new(LustreSystem::deploy(
            &topo,
            &mut sched,
            spec.servers,
            LustreDataMode::Sized,
            StripeOpts::default(),
        )),
    };
    let mut md = Mdtest::new(
        MdtestConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc),
        fs,
    );
    let create = run_phase(&mut sched, &mut md);
    md.set_phase(MdPhase::Stat);
    let stat = run_phase(&mut sched, &mut md);
    md.set_phase(MdPhase::Remove);
    let remove = run_phase(&mut sched, &mut md);
    [create, stat, remove]
}
