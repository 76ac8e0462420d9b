//! # ior-bench — an IOR-like parallel I/O benchmark engine
//!
//! Reproduces the workload §II-A1 describes: concurrent processes each
//! create a file/object, synchronise, and issue a sequence of
//! equally-sized write or read operations.  The engine exposes every
//! backend the paper measures:
//!
//! * **libdaos** — one DAOS Array per process;
//! * **DFS** — one file per process via libdfs;
//! * **POSIX** — one file per process through any [`PosixFs`] mount
//!   (DFUSE, DFUSE+IL, or Lustre);
//! * **HDF5** — through `hdf5-lite`, either on a POSIX mount (the VFD)
//!   or natively on DAOS (the VOL connector, container per process);
//! * **librados** — one RADOS object per process (which is why the
//!   paper limits these runs to 100 × 1 MiB per process: the
//!   132 MiB object-size ceiling).
//!
//! The engine implements [`cluster::bench::ProcWorkload`]; the harness
//! in `benchkit` drives it and applies the paper's bandwidth definition.
//! The [`mdtest`] module adds the IO500-style metadata benchmark backing
//! the paper's metadata-performance claims (C4).

pub mod mdtest;

pub use mdtest::{MdPhase, Mdtest, MdtestConfig};

use ceph_sim::CephSystem;
use cluster::bench::{pin_round_robin, Phase, ProcWorkload};
use cluster::payload::Payload;
use cluster::posix::{FileId, PosixFs};
use daos_core::{ContainerId, DaosSystem, ObjectClass, Oid, RetryExec, RetryPolicy, RetryStats};
use daos_dfs::Dfs;
use hdf5_lite::{H5DaosFile, H5PosixFile, H5Runtime};
use simkit::Step;
use std::cell::RefCell;
use std::rc::Rc;

/// Op ordering within a file (IOR's `-z` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOrder {
    /// Consecutive offsets (the paper's runs).
    Sequential,
    /// A per-process pseudorandom permutation of the offsets.
    Random,
}

/// IOR run configuration (the subset of IOR options the paper uses).
#[derive(Debug, Clone)]
pub struct IorConfig {
    /// Parallel processes.
    pub procs: usize,
    /// Client nodes they are pinned over.
    pub client_nodes: usize,
    /// Transfer size per operation (1 MiB in most figures, 1 KiB in
    /// Fig. 2).
    pub transfer_size: u64,
    /// Operations per process (10k in the paper; scaled down by default
    /// in the harness).
    pub ops_per_proc: usize,
    /// One file/object per process (the paper's setting) or a single
    /// shared file.
    pub file_per_proc: bool,
    /// Offset ordering (`-z` for random).
    pub access: AccessOrder,
    /// In-flight operations per process (1 = synchronous; >1 models the
    /// libdaos event-queue / asynchronous descriptors).
    pub queue_depth: usize,
    /// Current phase.
    pub phase: Phase,
    /// Tolerate terminally-unavailable reads instead of aborting: the
    /// failed op costs nothing and is counted in
    /// [`Ior::unavailable_reads`].  Chaos runs over unreplicated data
    /// set this — data loss is the oracles' verdict to deliver, not the
    /// benchmark driver's.
    pub tolerate_unavailable: bool,
}

impl IorConfig {
    /// The paper's standard configuration at a chosen op count.
    pub fn new(procs: usize, client_nodes: usize, ops: usize) -> IorConfig {
        IorConfig {
            procs,
            client_nodes,
            transfer_size: 1 << 20,
            ops_per_proc: ops,
            file_per_proc: true,
            access: AccessOrder::Sequential,
            queue_depth: 1,
            phase: Phase::Write,
            tolerate_unavailable: false,
        }
    }
}

/// The storage backend an IOR run drives.
#[allow(clippy::large_enum_variant)] // backends are constructed once per run
pub enum IorBackend {
    /// Native libdaos: one Array per process.
    Daos {
        /// Shared deployed pool.
        daos: Rc<RefCell<DaosSystem>>,
        /// Container to create Arrays in.
        cid: ContainerId,
        /// Object class for the Arrays (`SX` in Fig. 1).
        oclass: ObjectClass,
    },
    /// libdfs: one file per process.
    Dfs(Dfs),
    /// Any POSIX mount: DFUSE, DFUSE+IL or Lustre.
    Posix(Box<dyn PosixFs>),
    /// HDF5 on a POSIX mount (the VFD driver).
    Hdf5Posix {
        /// HDF5 library runtime (per-node ceilings).
        rt: H5Runtime,
        /// The mount.
        fs: Box<dyn PosixFs>,
    },
    /// HDF5 through the DAOS VOL connector (container per process).
    Hdf5Daos {
        /// HDF5 library runtime.
        rt: H5Runtime,
        /// Shared deployed pool.
        daos: Rc<RefCell<DaosSystem>>,
        /// Object class for dataset objects.
        oclass: ObjectClass,
    },
    /// librados: one object per process.
    Rados(CephSystem),
}

enum ProcState {
    Empty,
    Array(Oid),
    File(FileId),
    H5Posix(H5PosixFile),
    H5Daos(H5DaosFile),
    Object(String),
}

/// An IOR run: configuration, backend, per-process state.
pub struct Ior {
    cfg: IorConfig,
    backend: IorBackend,
    pins: Vec<usize>,
    state: Vec<ProcState>,
    /// Per-process offset permutations for [`AccessOrder::Random`].
    shuffles: Vec<Vec<u32>>,
    /// Retry machinery around per-op backend calls (off by default).
    retry: RetryExec,
    /// Reads that failed terminally under
    /// [`IorConfig::tolerate_unavailable`].
    unavailable_reads: usize,
}

impl Ior {
    /// Create a run over a backend.
    pub fn new(cfg: IorConfig, backend: IorBackend) -> Ior {
        let pins = pin_round_robin(cfg.procs, cfg.client_nodes);
        let state = (0..cfg.procs).map(|_| ProcState::Empty).collect();
        let shuffles = match cfg.access {
            AccessOrder::Sequential => Vec::new(),
            AccessOrder::Random => (0..cfg.procs)
                .map(|p| {
                    let mut v: Vec<u32> = (0..cfg.ops_per_proc as u32).collect();
                    let mut rng = simkit::SplitMix64::new(0xacce55 ^ p as u64);
                    for i in (1..v.len()).rev() {
                        let j = rng.next_below(i as u64 + 1) as usize;
                        v.swap(i, j);
                    }
                    v
                })
                .collect(),
        };
        Ior {
            cfg,
            backend,
            pins,
            state,
            shuffles,
            retry: RetryExec::disabled(),
            unavailable_reads: 0,
        }
    }

    /// Configure retry/timeout/backoff around every benchmark op
    /// (`seed` drives the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    /// Reads that failed terminally and were tolerated (always 0 unless
    /// [`IorConfig::tolerate_unavailable`] is set).
    pub fn unavailable_reads(&self) -> usize {
        self.unavailable_reads
    }

    /// Switch phase (the paper always writes first, then reads).
    pub fn set_phase(&mut self, phase: Phase) {
        self.cfg.phase = phase;
    }

    /// The active configuration.
    pub fn config(&self) -> &IorConfig {
        &self.cfg
    }

    /// The backend (for post-run inspection in tests).
    pub fn backend(&self) -> &IorBackend {
        &self.backend
    }

    fn payload(&self) -> Payload {
        Payload::Sized(self.cfg.transfer_size)
    }

    fn op_offset(&self, proc: usize, idx: usize) -> u64 {
        let idx = match self.cfg.access {
            AccessOrder::Sequential => idx as u64,
            AccessOrder::Random => self.shuffles[proc][idx] as u64,
        };
        if self.cfg.file_per_proc {
            idx * self.cfg.transfer_size
        } else {
            // segmented shared file: process blocks side by side
            (proc as u64 * self.cfg.ops_per_proc as u64 + idx) * self.cfg.transfer_size
        }
    }

    fn posix_path(&self, proc: usize) -> String {
        if self.cfg.file_per_proc {
            format!("/ior/testFile.{proc:05}")
        } else {
            "/ior/testFile".to_string()
        }
    }
}

impl ProcWorkload for Ior {
    fn procs(&self) -> usize {
        self.cfg.procs
    }

    fn node_of(&self, proc: usize) -> usize {
        self.pins[proc]
    }

    fn ops_per_proc(&self) -> usize {
        self.cfg.ops_per_proc
    }

    fn bytes_per_op(&self) -> f64 {
        self.cfg.transfer_size as f64
    }

    fn queue_depth(&self) -> usize {
        self.cfg.queue_depth
    }

    fn setup(&mut self, proc: usize) -> Step {
        let node = self.pins[proc];
        if self.cfg.phase == Phase::Read && !matches!(self.state[proc], ProcState::Empty) {
            // read phase reuses write-phase files/objects
            return Step::Noop;
        }
        let path = self.posix_path(proc);
        let step = match &mut self.backend {
            IorBackend::Daos { daos, cid, oclass } => {
                let (oid, s) = daos
                    .borrow_mut()
                    .array_create(node, *cid, *oclass, 1 << 20)
                    .expect("array create");
                self.state[proc] = ProcState::Array(oid);
                s
            }
            IorBackend::Dfs(dfs) => {
                let mkdir = dfs.mkdir(node, "/ior").unwrap_or(Step::Noop);
                let (f, s) = dfs.open(node, &path, true).expect("open");
                self.state[proc] = ProcState::File(f);
                mkdir.then(s)
            }
            IorBackend::Posix(fs) => {
                let mkdir = fs.mkdir(node, "/ior").unwrap_or(Step::Noop);
                let (f, s) = fs.open(node, &path, true).expect("open");
                self.state[proc] = ProcState::File(f);
                mkdir.then(s)
            }
            IorBackend::Hdf5Posix { rt, fs } => {
                let mkdir = fs.mkdir(node, "/ior").unwrap_or(Step::Noop);
                let h5path = format!("/ior/testFile.{proc:05}.h5");
                let (h5, s) = H5PosixFile::create(rt, fs.as_mut(), node, &h5path).expect("h5");
                self.state[proc] = ProcState::H5Posix(h5);
                mkdir.then(s)
            }
            IorBackend::Hdf5Daos { rt, daos, oclass } => {
                let (h5, s) = H5DaosFile::create(rt, daos, node, *oclass).expect("h5");
                self.state[proc] = ProcState::H5Daos(h5);
                s
            }
            IorBackend::Rados(_) => {
                self.state[proc] = ProcState::Object(format!("ior.obj.{proc:05}"));
                Step::Noop
            }
        };
        Step::span("ior", "setup", 0, step)
    }

    fn op(&mut self, proc: usize, idx: usize) -> Step {
        let node = self.pins[proc];
        let off = self.op_offset(proc, idx);
        let len = self.cfg.transfer_size;
        let phase = self.cfg.phase;
        let payload = self.payload();
        let tolerate = self.cfg.tolerate_unavailable;
        let retry = &mut self.retry;
        let unavailable = &mut self.unavailable_reads;
        let step = match (&mut self.backend, &mut self.state[proc]) {
            (IorBackend::Daos { daos, cid, .. }, ProcState::Array(oid)) => match phase {
                Phase::Write => retry
                    .run_step(|| {
                        daos.borrow_mut()
                            .array_write(node, *cid, *oid, off, payload.clone())
                    })
                    .expect("write"),
                Phase::Read => {
                    match retry.run(|| daos.borrow_mut().array_read(node, *cid, *oid, off, len)) {
                        Ok((_, s)) => s,
                        Err(_) if tolerate => {
                            *unavailable += 1;
                            Step::Noop
                        }
                        Err(e) => panic!("read: {e:?}"),
                    }
                }
            },
            (IorBackend::Dfs(dfs), ProcState::File(f)) => match phase {
                Phase::Write => retry
                    .run_step(|| dfs.write(node, *f, off, payload.clone()))
                    .expect("write"),
                Phase::Read => retry.run(|| dfs.read(node, *f, off, len)).expect("read").1,
            },
            (IorBackend::Posix(fs), ProcState::File(f)) => match phase {
                Phase::Write => retry
                    .run_step(|| fs.write(node, *f, off, payload.clone()))
                    .expect("write"),
                Phase::Read => retry.run(|| fs.read(node, *f, off, len)).expect("read").1,
            },
            (IorBackend::Hdf5Posix { rt, fs }, ProcState::H5Posix(h5)) => {
                let name = format!("ds{idx:06}");
                match phase {
                    Phase::Write => retry
                        .run_step(|| h5.dataset_write(rt, fs.as_mut(), &name, payload.clone()))
                        .expect("write"),
                    Phase::Read => {
                        retry
                            .run(|| h5.dataset_read(rt, fs.as_mut(), &name))
                            .expect("read")
                            .1
                    }
                }
            }
            (IorBackend::Hdf5Daos { rt, .. }, ProcState::H5Daos(h5)) => {
                let name = format!("ds{idx:06}");
                match phase {
                    Phase::Write => retry
                        .run_step(|| h5.dataset_write(rt, &name, payload.clone()))
                        .expect("write"),
                    Phase::Read => retry.run(|| h5.dataset_read(rt, &name)).expect("read").1,
                }
            }
            (IorBackend::Rados(ceph), ProcState::Object(name)) => match phase {
                Phase::Write => retry
                    .run_step(|| ceph.write(node, name, off, payload.clone()))
                    .expect("write"),
                Phase::Read => {
                    retry
                        .run(|| ceph.read(node, name, off, len))
                        .expect("read")
                        .1
                }
            },
            _ => panic!("op before setup for proc {proc}"),
        };
        let name = match phase {
            Phase::Write => "write",
            Phase::Read => "read",
        };
        Step::span("ior", name, len, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::{ContainerProps, DataMode};
    use simkit::{run, OpId, Scheduler, SimTime, World};

    struct Sink(SimTime);
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    fn exec(sched: &mut Scheduler, step: Step) {
        sched.submit(step, OpId(0));
        run(sched, &mut Sink(SimTime::ZERO));
    }

    fn daos_backend() -> (Scheduler, IorBackend) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 2).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let backend = IorBackend::Daos {
            daos: Rc::new(RefCell::new(daos)),
            cid,
            oclass: ObjectClass::SX,
        };
        (sched, backend)
    }

    #[test]
    fn offsets_per_mode() {
        let (_s, backend) = daos_backend();
        let ior = Ior::new(IorConfig::new(4, 2, 10), backend);
        assert_eq!(ior.op_offset(3, 5), 5 << 20, "file-per-proc restarts at 0");
        let mut cfg = IorConfig::new(4, 2, 10);
        cfg.file_per_proc = false;
        let (_s2, backend2) = daos_backend();
        let ior2 = Ior::new(cfg, backend2);
        assert_eq!(
            ior2.op_offset(3, 5),
            (3 * 10 + 5) << 20,
            "shared file segments"
        );
    }

    #[test]
    fn daos_workload_runs_both_phases() {
        let (mut sched, backend) = daos_backend();
        let mut ior = Ior::new(IorConfig::new(4, 2, 8), backend);
        for p in 0..4 {
            exec(&mut sched, ior.setup(p));
        }
        for p in 0..4 {
            for i in 0..8 {
                exec(&mut sched, ior.op(p, i));
            }
        }
        let t_after_write = sched.now();
        ior.set_phase(Phase::Read);
        for p in 0..4 {
            exec(&mut sched, ior.setup(p));
            for i in 0..8 {
                exec(&mut sched, ior.op(p, i));
            }
        }
        assert!(sched.now() > t_after_write);
    }

    #[test]
    fn pinning_spreads_processes() {
        let (_s, backend) = daos_backend();
        let ior = Ior::new(IorConfig::new(8, 2, 1), backend);
        assert_eq!(ior.node_of(0), 0);
        assert_eq!(ior.node_of(1), 1);
        assert_eq!(ior.node_of(2), 0);
    }

    #[test]
    fn rados_backend_object_per_proc() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            2,
            ceph_sim::CephDataMode::Sized,
            ceph_sim::CephPoolOpts::default(),
        )
        .unwrap();
        let mut ior = Ior::new(IorConfig::new(2, 1, 4), IorBackend::Rados(ceph));
        for p in 0..2 {
            exec(&mut sched, ior.setup(p));
            for i in 0..4 {
                exec(&mut sched, ior.op(p, i));
            }
        }
        if let IorBackend::Rados(ceph) = ior.backend() {
            assert_eq!(ceph.object_count(), 2, "one object per process");
        }
    }

    #[test]
    fn hdf5_daos_backend_container_per_proc() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let rt = H5Runtime::new(&mut sched, 1, &topo.cal);
        let daos = Rc::new(RefCell::new(DaosSystem::deploy(
            &topo,
            &mut sched,
            2,
            DataMode::Sized,
        )));
        let mut ior = Ior::new(
            IorConfig::new(3, 1, 2),
            IorBackend::Hdf5Daos {
                rt,
                daos: daos.clone(),
                oclass: ObjectClass::SX,
            },
        );
        for p in 0..3 {
            exec(&mut sched, ior.setup(p));
            for i in 0..2 {
                exec(&mut sched, ior.op(p, i));
            }
        }
        // three processes -> three containers, each with 2 data objects
        // + 1 md KV
        for cid in 0..3u32 {
            let n = daos.borrow().object_count(ContainerId(cid)).unwrap();
            assert_eq!(n, 3);
        }
    }
}

#[cfg(test)]
mod access_order_tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::{ContainerProps, DaosSystem, DataMode};
    use simkit::{run, OpId, Scheduler, World};
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::rc::Rc;

    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }

    #[test]
    fn random_order_is_a_permutation() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 1, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let mut cfg = IorConfig::new(3, 1, 50);
        cfg.access = AccessOrder::Random;
        let ior = Ior::new(
            cfg,
            IorBackend::Daos {
                daos: Rc::new(RefCell::new(daos)),
                cid,
                oclass: ObjectClass::SX,
            },
        );
        for p in 0..3 {
            let offs: HashSet<u64> = (0..50).map(|i| ior.op_offset(p, i)).collect();
            assert_eq!(offs.len(), 50, "all offsets distinct");
            let max = *offs.iter().max().unwrap();
            assert_eq!(max, 49 << 20, "covers the full extent");
            // actually shuffled: not identical to sequential
            let seq: Vec<u64> = (0..50).map(|i| (i as u64) << 20).collect();
            let got: Vec<u64> = (0..50).map(|i| ior.op_offset(p, i)).collect();
            assert_ne!(got, seq, "proc {p} must be permuted");
        }
        // processes get different permutations
        let a: Vec<u64> = (0..50).map(|i| ior.op_offset(0, i)).collect();
        let b: Vec<u64> = (0..50).map(|i| ior.op_offset(1, i)).collect();
        assert_ne!(a, b);
    }
}
