//! The DFUSE daemon model and the I/O interception library.
//!
//! DFUSE exposes a DFS namespace through the kernel FUSE layer.  Three
//! costs separate it from direct libdfs calls, and all three are
//! modelled per client node:
//!
//! 1. a fixed **kernel crossing** latency per application syscall;
//! 2. the daemon's **request pump** — a shared ops/s service sized by
//!    the FUSE thread count (the `--thread-count` option the paper sets
//!    to 24);
//! 3. the kernel↔user **data copy** bandwidth.
//!
//! Large application I/O additionally fragments into FUSE-sized requests
//! (`max_write`, 1 MiB), multiplying pump work — this is why DFUSE falls
//! behind under small or fragmented I/O (paper Fig. 2) while matching
//! libdaos for aligned 1 MiB transfers (Fig. 1).
//!
//! The **interception library** (`DfuseOpts::interception`) routes
//! read/write/fstat straight to libdfs from the application process,
//! skipping all three costs — metadata calls (open, stat, mkdir…) still
//! travel through the kernel, exactly like the real `libioil`.

use cluster::payload::{Payload, ReadPayload};
use cluster::posix::{FileId, FileStat, FsError, PosixFs};
use daos_core::{RetryExec, RetryPolicy, RetryStats};
use daos_dfs::Dfs;
use simkit::{Bytes, ResourceId, Scheduler, SimTime, Step};
use std::collections::BTreeSet;

/// Mount options (a subset of `dfuse` command-line options).
#[derive(Debug, Clone)]
pub struct DfuseOpts {
    /// FUSE daemon threads (paper: 24).
    pub fuse_threads: usize,
    /// Event-queue threads (paper: 12; affects the pump slightly).
    pub eq_threads: usize,
    /// Cache file data on the client node (paper: disabled).
    pub data_caching: bool,
    /// Cache metadata/lookups on the client node (paper: disabled).
    pub metadata_caching: bool,
    /// Route read/write through the interception library.
    pub interception: bool,
    /// Kernel readahead for sequential reads: detected sequential access
    /// prefetches ahead, so most crossings are absorbed by data already
    /// sitting in the kernel.
    pub readahead: bool,
}

impl Default for DfuseOpts {
    fn default() -> Self {
        DfuseOpts {
            fuse_threads: 24,
            eq_threads: 12,
            data_caching: false,
            metadata_caching: false,
            interception: false,
            readahead: false,
        }
    }
}

impl DfuseOpts {
    /// The paper's DFUSE+IL configuration.
    pub fn with_interception() -> Self {
        DfuseOpts {
            interception: true,
            ..Default::default()
        }
    }
}

/// A DFUSE mount on every client node, wrapping one DFS namespace.
pub struct DfuseMount {
    dfs: Dfs,
    opts: DfuseOpts,
    /// Per-client-node request pump (ops/s).
    pump: Vec<ResourceId>,
    /// Per-client-node kernel↔user copy bandwidth (bytes/s).
    copy: Vec<ResourceId>,
    crossing_ns: SimTime,
    il_op_ns: SimTime,
    max_req: f64,
    /// `(node, path-hash)` lookup cache entries (metadata caching).
    attr_cache: BTreeSet<(usize, u64)>,
    /// `(node, dir-path-hash)` -> resolved directory inode: the kernel
    /// dentry cache, which turns creates under a warm directory into
    /// parent-relative opens.
    dentry_cache: std::collections::BTreeMap<(usize, u64), daos_dfs::InodeId>,
    /// `(node, handle)` fully-cached files (data caching).
    data_cache: BTreeSet<(usize, u64)>,
    /// `(node, handle)` -> next expected offset (readahead detection).
    read_cursor: std::collections::BTreeMap<(usize, u64), u64>,
    /// Retry machinery around the DFS data path (off by default).
    retry: RetryExec,
}

fn path_key(path: &str) -> u64 {
    daos_core::dkey_hash(path.as_bytes())
}

impl DfuseMount {
    /// Mount `dfs` through DFUSE on every client node, creating the
    /// per-node daemon resources.
    pub fn mount(dfs: Dfs, sched: &mut Scheduler, opts: DfuseOpts) -> DfuseMount {
        let (cal, clients) = {
            let daos = dfs.daos().borrow();
            (daos.cal().clone(), daos.topology().client_count())
        };
        // Pump capacity: FUSE threads carry requests; the shared event
        // queues add some parallel slack but the thread count dominates.
        let pump_iops =
            cal.fuse_thread_iops * (opts.fuse_threads as f64 + 0.5 * opts.eq_threads as f64);
        let pump = (0..clients)
            .map(|c| sched.add_resource(format!("dfuse.cli{c}.pump"), pump_iops))
            .collect();
        let copy = (0..clients)
            .map(|c| sched.add_resource(format!("dfuse.cli{c}.copy"), cal.fuse_copy_bw.get()))
            .collect();
        DfuseMount {
            dfs,
            pump,
            copy,
            crossing_ns: cal.fuse_crossing_ns,
            il_op_ns: cal.il_op_ns,
            max_req: cal.fuse_max_req_bytes.get(),
            opts,
            attr_cache: BTreeSet::new(),
            dentry_cache: std::collections::BTreeMap::new(),
            data_cache: BTreeSet::new(),
            read_cursor: std::collections::BTreeMap::new(),
            retry: RetryExec::disabled(),
        }
    }

    /// Configure retry/timeout/backoff on the FUSE data path (`seed`
    /// drives the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    /// The wrapped DFS namespace.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Mutable access to the wrapped namespace (for tests/examples).
    pub fn dfs_mut(&mut self) -> &mut Dfs {
        &mut self.dfs
    }

    /// The active mount options.
    pub fn opts(&self) -> &DfuseOpts {
        &self.opts
    }

    /// Kernel crossing + pump + copy around an inner operation moving
    /// `bytes` (0 for pure metadata calls), traced as a "dfuse" span.
    fn fuse_wrap(&self, node: usize, bytes: f64, op: &'static str, inner: Step) -> Step {
        let nreq = (bytes / self.max_req).ceil().max(1.0);
        let copy = Step::transfer(Bytes(bytes), [self.copy[node]]);
        Step::span(
            "dfuse",
            op,
            bytes as u64,
            Step::seq([
                Step::delay(self.crossing_ns),
                Step::transfer(Bytes(nreq), [self.pump[node]]),
                copy,
                inner,
            ]),
        )
    }

    /// Interception-library path: client-side overhead only, traced as
    /// an "il" span so the library shows up as its own layer.
    fn il_wrap(&self, bytes: u64, op: &'static str, inner: Step) -> Step {
        Step::span("il", op, bytes, Step::delay(self.il_op_ns).then(inner))
    }
}

impl PosixFs for DfuseMount {
    fn mkdir(&mut self, client: usize, path: &str) -> Result<Step, FsError> {
        let inner = self.dfs.mkdir(client, path)?;
        Ok(self.fuse_wrap(client, 0.0, "mkdir", inner))
    }

    fn open(&mut self, client: usize, path: &str, create: bool) -> Result<(FileId, Step), FsError> {
        use cluster::posix::components;
        let comps = components(path);
        // dentry cache: when the parent directory was resolved before,
        // the kernel hands DFUSE the parent inode and the open becomes a
        // single parent-relative dfs call — no per-component walk
        if self.opts.metadata_caching {
            if let Some((name, parents)) = comps.split_last() {
                let dir_path = parents.join("/");
                let dir_key = (client, path_key(&dir_path));
                let parent = match self.dentry_cache.get(&dir_key) {
                    Some(&pid) => Some((pid, Step::Noop)),
                    None => match self.dfs.resolve(client, &dir_path, true) {
                        Ok((pid, walk)) => {
                            self.dentry_cache.insert(dir_key, pid);
                            Some((pid, walk))
                        }
                        Err(_) => None,
                    },
                };
                if let Some((pid, walk)) = parent {
                    let (f, open) = self.dfs.open_at(client, pid, name, create)?;
                    return Ok((f, self.fuse_wrap(client, 0.0, "open", walk.then(open))));
                }
            }
        }
        let (f, inner) = self.dfs.open(client, path, create)?;
        Ok((f, self.fuse_wrap(client, 0.0, "open", inner)))
    }

    fn write(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        data: Payload,
    ) -> Result<Step, FsError> {
        let bytes = data.len() as f64;
        let inner = {
            let retry = &mut self.retry;
            let dfs = &mut self.dfs;
            retry.run_step(|| dfs.write(client, f, offset, data.clone()))?
        };
        if self.opts.data_caching {
            self.data_cache.insert((client, f.0));
        }
        if self.opts.interception {
            Ok(self.il_wrap(bytes as u64, "write", inner))
        } else {
            Ok(self.fuse_wrap(client, bytes, "write", inner))
        }
    }

    fn read(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), FsError> {
        let served_from_cache = self.opts.data_caching && self.data_cache.contains(&(client, f.0));
        // readahead: a sequential read was already prefetched by the
        // kernel, so the application-side crossing latency is hidden
        let sequential = self
            .read_cursor
            .get(&(client, f.0))
            .is_some_and(|&next| next == offset);
        self.read_cursor.insert((client, f.0), offset + len);
        let prefetched = self.opts.readahead && sequential;
        let (data, inner) = {
            let retry = &mut self.retry;
            let dfs = &mut self.dfs;
            retry.run(|| dfs.read(client, f, offset, len))?
        };
        if self.opts.data_caching {
            self.data_cache.insert((client, f.0));
        }
        let inner = if served_from_cache { Step::Noop } else { inner };
        let step = if self.opts.interception {
            self.il_wrap(len, "read", inner)
        } else if prefetched {
            // pump + copy still happen; the crossing and the backend
            // read overlap with the application thanks to the prefetch
            let nreq = (len as f64 / self.max_req).ceil().max(1.0);
            Step::span(
                "dfuse",
                "read",
                len,
                Step::seq([
                    Step::transfer(Bytes(nreq), [self.pump[client]]),
                    Step::transfer(Bytes(len as f64), [self.copy[client]]),
                    Step::par([inner, Step::Noop]),
                ]),
            )
        } else {
            self.fuse_wrap(client, len as f64, "read", inner)
        };
        Ok((data, step))
    }

    fn fstat(&mut self, client: usize, f: FileId) -> Result<(FileStat, Step), FsError> {
        let (st, inner) = self.dfs.fstat(client, f)?;
        if self.opts.interception {
            Ok((st, self.il_wrap(0, "fstat", inner)))
        } else {
            Ok((st, self.fuse_wrap(client, 0.0, "fstat", inner)))
        }
    }

    fn stat(&mut self, client: usize, path: &str) -> Result<(FileStat, Step), FsError> {
        let cached =
            self.opts.metadata_caching && self.attr_cache.contains(&(client, path_key(path)));
        let (st, inner) = self.dfs.stat(client, path)?;
        if self.opts.metadata_caching {
            self.attr_cache.insert((client, path_key(path)));
        }
        let inner = if cached { Step::Noop } else { inner };
        Ok((st, self.fuse_wrap(client, 0.0, "stat", inner)))
    }

    fn close(&mut self, client: usize, f: FileId) -> Result<Step, FsError> {
        self.data_cache.remove(&(client, f.0));
        self.read_cursor.remove(&(client, f.0));
        let inner = self.dfs.close(client, f)?;
        Ok(self.fuse_wrap(client, 0.0, "close", inner))
    }

    fn unlink(&mut self, client: usize, path: &str) -> Result<Step, FsError> {
        self.attr_cache.remove(&(client, path_key(path)));
        // the removed entry might have been a cached directory
        self.dentry_cache.remove(&(client, path_key(path)));
        let inner = self.dfs.unlink(client, path)?;
        Ok(self.fuse_wrap(client, 0.0, "unlink", inner))
    }

    fn readdir(&mut self, client: usize, path: &str) -> Result<(Vec<String>, Step), FsError> {
        let (names, inner) = self.dfs.readdir(client, path)?;
        Ok((names, self.fuse_wrap(client, 0.0, "readdir", inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::{ContainerProps, DaosSystem, DataMode};
    use daos_dfs::DfsOpts;
    use simkit::{run, Leaf, OpId, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink(SimTime);
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    fn exec(sched: &mut Scheduler, step: Step) -> f64 {
        let t0 = sched.now();
        sched.submit(step, OpId(0));
        let mut w = Sink(SimTime::ZERO);
        run(sched, &mut w);
        w.0.secs_since(t0)
    }

    fn mounted(opts: DfuseOpts) -> (Scheduler, DfuseMount) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 2).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).unwrap();
        exec(&mut sched, s);
        let mount = DfuseMount::mount(dfs, &mut sched, opts);
        (sched, mount)
    }

    #[test]
    fn posix_round_trip_through_fuse() {
        let (mut sched, mut m) = mounted(DfuseOpts::default());
        exec(&mut sched, m.mkdir(0, "/d").unwrap());
        let (f, s) = m.open(0, "/d/file", true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            m.write(0, f, 0, Payload::Bytes(vec![5; 4096])).unwrap(),
        );
        let (r, s) = m.read(0, f, 0, 4096).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &[5u8; 4096][..]);
        let (st, s) = m.fstat(0, f).unwrap();
        exec(&mut sched, s);
        assert_eq!(st.size, 4096);
        exec(&mut sched, m.close(0, f).unwrap());
        exec(&mut sched, m.unlink(0, "/d/file").unwrap());
    }

    #[test]
    fn interception_is_faster_for_small_io() {
        let t_fuse = {
            let (mut sched, mut m) = mounted(DfuseOpts::default());
            let (f, s) = m.open(0, "/f", true).unwrap();
            exec(&mut sched, s);
            let mut t = 0.0;
            for i in 0..32u64 {
                t += exec(
                    &mut sched,
                    m.write(0, f, i * 1024, Payload::Bytes(vec![1; 1024]))
                        .unwrap(),
                );
            }
            t
        };
        let t_il = {
            let (mut sched, mut m) = mounted(DfuseOpts::with_interception());
            let (f, s) = m.open(0, "/f", true).unwrap();
            exec(&mut sched, s);
            let mut t = 0.0;
            for i in 0..32u64 {
                t += exec(
                    &mut sched,
                    m.write(0, f, i * 1024, Payload::Bytes(vec![1; 1024]))
                        .unwrap(),
                );
            }
            t
        };
        assert!(
            t_il < t_fuse * 0.7,
            "IL {t_il} should beat FUSE {t_fuse} clearly at 1 KiB"
        );
    }

    #[test]
    fn fragmentation_multiplies_pump_work() {
        // An 8 MiB write must cost 8 pump requests vs 1 for a 1 MiB one.
        let (mut sched, mut m) = mounted(DfuseOpts::default());
        let (f, s) = m.open(0, "/f", true).unwrap();
        exec(&mut sched, s);
        let step = m.write(0, f, 0, Payload::Sized(8 << 20)).unwrap();
        // count pump units in the step's program
        fn pump_units(s: &Step, pump: simkit::ResourceId) -> f64 {
            s.leaves()
                .map(|leaf| match leaf {
                    Leaf::Transfer { units, path } if path.contains(&pump) => units.get(),
                    _ => 0.0,
                })
                .sum()
        }
        assert_eq!(pump_units(&step, m.pump[0]), 8.0);
        exec(&mut sched, step);
    }

    #[test]
    fn metadata_cache_skips_lookup_cost() {
        let opts = DfuseOpts {
            metadata_caching: true,
            ..Default::default()
        };
        let (mut sched, mut m) = mounted(opts);
        exec(&mut sched, m.mkdir(0, "/a").unwrap());
        exec(&mut sched, m.mkdir(0, "/a/b").unwrap());
        // mkdir does not warm the cache: the first stat pays the lookups,
        // the second is served from the client-side attribute cache.
        let (_, s1) = m.stat(0, "/a/b").unwrap();
        let t_first = exec(&mut sched, s1);
        let (_, s2) = m.stat(0, "/a/b").unwrap();
        let t_cached = exec(&mut sched, s2);
        assert!(
            t_cached < t_first * 0.5,
            "cached {t_cached} vs first {t_first}"
        );
    }

    #[test]
    fn data_cache_serves_reread() {
        let opts = DfuseOpts {
            data_caching: true,
            ..Default::default()
        };
        let (mut sched, mut m) = mounted(opts);
        let (f, s) = m.open(0, "/f", true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            m.write(0, f, 0, Payload::Bytes(vec![9; 1 << 20])).unwrap(),
        );
        let (r1, s) = m.read(0, f, 0, 1 << 20).unwrap();
        let t_cached = exec(&mut sched, s);
        assert_eq!(r1.len(), 1 << 20);
        // compare with uncached mount
        let (mut sched2, mut m2) = mounted(DfuseOpts::default());
        let (f2, s) = m2.open(0, "/f", true).unwrap();
        exec(&mut sched2, s);
        exec(
            &mut sched2,
            m2.write(0, f2, 0, Payload::Bytes(vec![9; 1 << 20]))
                .unwrap(),
        );
        let (_, s) = m2.read(0, f2, 0, 1 << 20).unwrap();
        let t_uncached = exec(&mut sched2, s);
        assert!(
            t_cached < t_uncached * 0.8,
            "cached {t_cached} vs {t_uncached}"
        );
    }

    #[test]
    fn per_node_pumps_are_independent() {
        let (sched, m) = mounted(DfuseOpts::default());
        assert_ne!(m.pump[0], m.pump[1]);
        assert_ne!(m.copy[0], m.copy[1]);
        let _ = sched.now();
    }
}

#[cfg(test)]
mod readahead_tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::{ContainerProps, DaosSystem, DataMode};
    use daos_dfs::DfsOpts;
    use simkit::{run, OpId, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Done(SimTime);
    impl World for Done {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    fn exec(sched: &mut Scheduler, step: Step) -> f64 {
        let t0 = sched.now();
        sched.submit(step, OpId(0));
        let mut w = Done(SimTime::ZERO);
        run(sched, &mut w);
        w.0.secs_since(t0)
    }

    fn sequential_read_time(readahead: bool, sequential: bool) -> f64 {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).unwrap();
        exec(&mut sched, s);
        let opts = DfuseOpts {
            readahead,
            ..Default::default()
        };
        let mut m = DfuseMount::mount(dfs, &mut sched, opts);
        let (f, s) = m.open(0, "/ra", true).unwrap();
        exec(&mut sched, s);
        let n = 32u64;
        let blk = 64u64 << 10;
        exec(
            &mut sched,
            m.write(0, f, 0, Payload::Sized(n * blk)).unwrap(),
        );
        let mut total = 0.0;
        for i in 0..n {
            let off = if sequential {
                i * blk
            } else {
                // strided access defeats the readahead detector
                ((i * 7) % n) * blk
            };
            let (_, s) = m.read(0, f, off, blk).unwrap();
            total += exec(&mut sched, s);
        }
        total
    }

    #[test]
    fn readahead_speeds_up_sequential_reads() {
        let cold = sequential_read_time(false, true);
        let warm = sequential_read_time(true, true);
        assert!(
            warm < cold * 0.8,
            "readahead must hide crossings: {warm:.4}s vs {cold:.4}s"
        );
    }

    #[test]
    fn readahead_useless_for_random_access() {
        let off = sequential_read_time(true, false);
        let on = sequential_read_time(false, false);
        let ratio = off / on;
        assert!(
            (0.95..1.05).contains(&ratio),
            "random access gains nothing: ratio {ratio:.3}"
        );
    }
}
