//! An mdtest-like metadata benchmark.
//!
//! The paper's conclusion C4 rests on DAOS being "the only option that
//! can provide high performance both for large I/O as well as for
//! metadata and small I/O workloads", and cites the IO500 list — whose
//! metadata component is `mdtest`: concurrent processes creating,
//! stat-ing and removing large numbers of small files.  This module
//! implements that workload over any [`PosixFs`] mount, so the same run
//! drives DFUSE (backed by DAOS's distributed metadata) and Lustre
//! (backed by one MDS).

use cluster::bench::{pin_round_robin, ProcWorkload};
use cluster::payload::Payload;
use cluster::posix::PosixFs;
use simkit::Step;

/// Which mdtest phase a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdPhase {
    /// `mdtest-easy-write`: create files (plus a small write each).
    Create,
    /// `mdtest-easy-stat`: stat every file.
    Stat,
    /// `mdtest-easy-delete`: unlink every file.
    Remove,
}

/// mdtest configuration.
#[derive(Debug, Clone)]
pub struct MdtestConfig {
    /// Parallel processes.
    pub procs: usize,
    /// Client nodes they are pinned over.
    pub client_nodes: usize,
    /// Files per process and phase.
    pub files_per_proc: usize,
    /// Bytes written into each created file (3901 bytes in IO500's
    /// mdtest-hard; 0 for pure metadata).
    pub write_bytes: u64,
}

impl MdtestConfig {
    /// A standard configuration.
    pub fn new(procs: usize, client_nodes: usize, files_per_proc: usize) -> Self {
        MdtestConfig {
            procs,
            client_nodes,
            files_per_proc,
            write_bytes: 3901,
        }
    }
}

/// An mdtest run over a POSIX mount.
pub struct Mdtest {
    cfg: MdtestConfig,
    fs: Box<dyn PosixFs>,
    pins: Vec<usize>,
    phase: MdPhase,
}

impl Mdtest {
    /// Create the run; per-process directories are made during setup.
    pub fn new(cfg: MdtestConfig, fs: Box<dyn PosixFs>) -> Mdtest {
        let pins = pin_round_robin(cfg.procs, cfg.client_nodes);
        Mdtest {
            cfg,
            fs,
            pins,
            phase: MdPhase::Create,
        }
    }

    /// Switch to the next phase (the harness runs Create → Stat → Remove).
    pub fn set_phase(&mut self, phase: MdPhase) {
        self.phase = phase;
    }

    /// The active phase.
    pub fn phase(&self) -> MdPhase {
        self.phase
    }

    fn path(&self, proc: usize, idx: usize) -> String {
        format!("/mdtest/p{proc:04}/f{idx:06}")
    }
}

impl ProcWorkload for Mdtest {
    fn procs(&self) -> usize {
        self.cfg.procs
    }

    fn node_of(&self, proc: usize) -> usize {
        self.pins[proc]
    }

    fn ops_per_proc(&self) -> usize {
        self.cfg.files_per_proc
    }

    fn bytes_per_op(&self) -> f64 {
        match self.phase {
            MdPhase::Create => self.cfg.write_bytes as f64,
            _ => 0.0,
        }
    }

    fn setup(&mut self, proc: usize) -> Step {
        if self.phase != MdPhase::Create {
            return Step::Noop;
        }
        let node = self.pins[proc];
        let root = if proc == 0 {
            self.fs.mkdir(node, "/mdtest").unwrap_or(Step::Noop)
        } else {
            Step::Noop
        };
        let dir = self
            .fs
            .mkdir(node, &format!("/mdtest/p{proc:04}"))
            .expect("proc dir");
        root.then(dir)
    }

    fn op(&mut self, proc: usize, idx: usize) -> Step {
        let node = self.pins[proc];
        let path = self.path(proc, idx);
        match self.phase {
            MdPhase::Create => {
                let (f, open) = self.fs.open(node, &path, true).expect("create");
                let write = if self.cfg.write_bytes > 0 {
                    self.fs
                        .write(node, f, 0, Payload::Sized(self.cfg.write_bytes))
                        .expect("write")
                } else {
                    Step::Noop
                };
                let close = self.fs.close(node, f).expect("close");
                Step::span(
                    "mdtest",
                    "create",
                    self.cfg.write_bytes,
                    Step::seq([open, write, close]),
                )
            }
            MdPhase::Stat => Step::span(
                "mdtest",
                "stat",
                0,
                self.fs.stat(node, &path).expect("stat").1,
            ),
            MdPhase::Remove => Step::span(
                "mdtest",
                "remove",
                0,
                self.fs.unlink(node, &path).expect("unlink"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::{ContainerProps, DaosSystem, DataMode};
    use daos_dfs::{Dfs, DfsOpts};
    use daos_dfuse::{DfuseMount, DfuseOpts};
    use lustre_sim::{LustreDataMode, LustreSystem, StripeOpts};
    use simkit::{run, OpId, Scheduler, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }

    fn drive(sched: &mut Scheduler, md: &mut Mdtest) -> f64 {
        for p in 0..md.procs() {
            let s = md.setup(p);
            sched.submit(s, OpId(p as u64));
        }
        run(sched, &mut Sink);
        let t0 = sched.now();
        for p in 0..md.procs() {
            for i in 0..md.ops_per_proc() {
                let s = md.op(p, i);
                sched.submit(s, OpId(p as u64));
                run(sched, &mut Sink);
            }
        }
        sched.now().secs_since(t0)
    }

    #[test]
    fn full_cycle_on_dfuse() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let daos = Rc::new(RefCell::new(daos));
        let (dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).unwrap();
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let mount = DfuseMount::mount(dfs, &mut sched, DfuseOpts::default());
        let mut md = Mdtest::new(MdtestConfig::new(2, 1, 10), Box::new(mount));
        let t_create = drive(&mut sched, &mut md);
        md.set_phase(MdPhase::Stat);
        let t_stat = drive(&mut sched, &mut md);
        md.set_phase(MdPhase::Remove);
        let t_remove = drive(&mut sched, &mut md);
        assert!(t_create > 0.0 && t_stat > 0.0 && t_remove > 0.0);
        // files are gone afterwards
        assert!(md.fs.stat(0, "/mdtest/p0000/f000000").is_err());
    }

    #[test]
    fn lustre_mds_throttles_creates() {
        // identical workload on two Lustre systems differing only in MDS
        // rate: the slower MDS must slow the create phase
        let run_with = |mds_iops: f64| {
            let mut sched = Scheduler::new();
            let mut spec = ClusterSpec::new(1, 2);
            spec.cal.mds_iops = mds_iops;
            let topo = spec.build(&mut sched);
            let fs = LustreSystem::deploy(
                &topo,
                &mut sched,
                1,
                LustreDataMode::Sized,
                StripeOpts::default(),
            );
            let mut md = Mdtest::new(MdtestConfig::new(8, 2, 30), Box::new(fs));
            drive(&mut sched, &mut md)
        };
        let fast = run_with(200_000.0);
        let slow = run_with(5_000.0);
        assert!(slow > fast * 3.0, "slow MDS {slow:.4}s vs fast {fast:.4}s");
    }
}
