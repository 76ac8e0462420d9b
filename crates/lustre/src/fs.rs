//! The Lustre-like distributed POSIX file system.
//!
//! Reproduces the architecture the paper deploys in §III-E: 16 OSS nodes
//! with 16 OSTs each (one per NVMe device) and **one** Metadata Service
//! node.  The defining performance property is the *centralised* MDS: all
//! namespace operations (open, create, close, stat, unlink) funnel
//! through a single finite service, which is exactly what caps
//! fdb-hammer's metadata-heavy read workload at ~40 GiB/s in Fig. 7
//! while bulk file-per-process I/O matches DAOS.
//!
//! File data is striped over `stripe_count` OSTs in `stripe_size` units
//! (the paper's fdb runs use 8 OSTs × 8 MiB).  Clients take extent locks
//! on first contact with a stripe (Lustre's distributed lock manager),
//! adding round trips that matter for shared-file workloads.

use cluster::payload::{Payload, ReadPayload};
use cluster::posix::{components, FileId, FileStat, FsError, PosixFs};
use cluster::Topology;
use daos_core::{RetryExec, RetryPolicy, RetryStats};
use simkit::{Bytes, ResourceId, Scheduler, SimTime, Step};
use std::collections::{BTreeMap, BTreeSet};

/// Data-mode mirror of the store (bytes or sizes only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LustreDataMode {
    /// Keep real bytes.
    Full,
    /// Track sizes only.
    Sized,
}

/// Striping configuration (`lfs setstripe`).
#[derive(Debug, Clone, Copy)]
pub struct StripeOpts {
    /// OSTs per file.
    pub count: usize,
    /// Stripe unit in bytes.
    pub size: u64,
}

impl Default for StripeOpts {
    fn default() -> Self {
        StripeOpts {
            count: 1,
            size: 1 << 20,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct OstId {
    server: u16,
    ost: u16,
}

#[derive(Debug)]
enum Node {
    Dir(BTreeMap<String, u32>),
    File(FileNode),
}

#[derive(Debug)]
struct FileNode {
    /// OSTs this file stripes over.
    layout: Vec<OstId>,
    stripe_size: u64,
    size: u64,
    data: FileData,
}

#[derive(Debug)]
enum FileData {
    Bytes(Vec<u8>),
    Sized,
}

/// The deployed file system: one MDS, `servers × osts_per_server` OSTs.
// simlint::sim_state — replay-visible simulation state
pub struct LustreSystem {
    topo: Topology,
    servers: usize,
    mode: LustreDataMode,
    stripe: StripeOpts,
    mds_svc: ResourceId,
    ost_svc: Vec<Vec<ResourceId>>,
    nodes: Vec<Node>,
    handles: BTreeMap<u64, u32>,
    next_handle: u64,
    /// Granted extent locks: (file node, ost index, client node).
    locks: BTreeSet<(u32, usize, usize)>,
    /// Round-robin allocator for stripe starting OSTs.
    next_ost: usize,
    op_ns: SimTime,
    rtt_ns: SimTime,
    lock_rtts: u32,
    /// Retry machinery around the data path (off by default).
    retry: RetryExec,
}

impl LustreSystem {
    /// Deploy over the first `servers` nodes of `topo` plus an implicit
    /// MDS node, creating service resources.
    pub fn deploy(
        topo: &Topology,
        sched: &mut Scheduler,
        servers: usize,
        mode: LustreDataMode,
        stripe: StripeOpts,
    ) -> LustreSystem {
        assert!(servers >= 1 && servers <= topo.server_count());
        let cal = &topo.cal;
        let mds_svc = sched.add_resource("lustre.mds", cal.mds_iops);
        let ost_svc = (0..servers)
            .map(|s| {
                (0..cal.osts_per_server)
                    .map(|o| sched.add_resource(format!("lustre.oss{s}.ost{o}"), cal.ost_svc_iops))
                    .collect()
            })
            .collect();
        LustreSystem {
            topo: topo.clone(),
            servers,
            mode,
            stripe,
            mds_svc,
            ost_svc,
            nodes: vec![Node::Dir(BTreeMap::new())],
            handles: BTreeMap::new(),
            next_handle: 1,
            locks: BTreeSet::new(),
            next_ost: 0,
            op_ns: cal.lustre_op_ns,
            rtt_ns: cal.net_rtt_ns,
            lock_rtts: cal.lustre_lock_rtts,
            retry: RetryExec::disabled(),
        }
    }

    /// Configure retry/timeout/backoff on the data path (`seed` drives
    /// the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    /// OSS nodes in the deployment.
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Striping in effect for new files.
    pub fn stripe(&self) -> StripeOpts {
        self.stripe
    }

    /// Change striping for subsequently created files (`lfs setstripe`).
    pub fn set_stripe(&mut self, stripe: StripeOpts) {
        self.stripe = stripe;
    }

    fn osts_per_server(&self) -> usize {
        self.ost_svc[0].len()
    }

    /// One metadata operation: client overhead, round trip, MDS service.
    fn mds_op(&self, n: f64) -> Step {
        Step::seq([
            Step::delay(self.op_ns),
            Step::delay(self.rtt_ns),
            Step::transfer(Bytes(n), [self.mds_svc]),
        ])
    }

    /// Allocate a file's stripe OSTs: a per-file pseudorandom draw
    /// rather than a literal contiguous round-robin window.
    ///
    /// Rationale: with contiguous windows, files created back-to-back
    /// share OST groups and their sequential writers stride over the
    /// group in lockstep — a convoy that leaves 7 of 8 OSTs idle at any
    /// instant.  Real Lustre avoids this through QOS-weighted allocation
    /// and, more importantly, client page-cache write-back that smears
    /// dirty data across all stripes of a file; a randomised layout is
    /// the fluid-model equivalent.
    fn alloc_layout(&mut self) -> Vec<OstId> {
        let total = self.servers * self.osts_per_server();
        let count = self.stripe.count.min(total);
        self.next_ost = self.next_ost.wrapping_add(1);
        let mut rng = simkit::SplitMix64::new(self.next_ost as u64);
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        while chosen.len() < count {
            let idx = rng.next_below(total as u64) as usize;
            if !chosen.contains(&idx) {
                chosen.push(idx);
            }
        }
        chosen
            .into_iter()
            .map(|idx| OstId {
                server: (idx / self.osts_per_server()) as u16,
                ost: (idx % self.osts_per_server()) as u16,
            })
            .collect()
    }

    fn ost_write(&self, client: usize, ost: OstId, bytes: f64) -> Step {
        let srv = &self.topo.servers[ost.server as usize];
        let cli = &self.topo.clients[client];
        let dev = ost.ost as usize % srv.nvme_w.len();
        Step::seq([
            Step::transfer(
                Bytes(1.0),
                [self.ost_svc[ost.server as usize][ost.ost as usize]],
            ),
            Step::transfer(
                Bytes(bytes),
                [cli.nic_tx, srv.nic_rx, srv.nvme_w[dev], srv.nvme_w_pool],
            ),
            Step::delay(self.topo.cal.nvme_write_lat_ns),
        ])
    }

    fn ost_read(&self, client: usize, ost: OstId, bytes: f64) -> Step {
        let srv = &self.topo.servers[ost.server as usize];
        let cli = &self.topo.clients[client];
        let dev = ost.ost as usize % srv.nvme_r.len();
        Step::seq([
            Step::transfer(
                Bytes(1.0),
                [self.ost_svc[ost.server as usize][ost.ost as usize]],
            ),
            Step::delay(self.topo.cal.nvme_read_lat_ns),
            Step::transfer(
                Bytes(bytes),
                [srv.nvme_r[dev], srv.nvme_r_pool, srv.nic_tx, cli.nic_rx],
            ),
        ])
    }

    fn resolve(&self, path: &str) -> Result<u32, FsError> {
        let mut cur = 0u32;
        for c in components(path) {
            match &self.nodes[cur as usize] {
                Node::Dir(entries) => cur = *entries.get(c).ok_or(FsError::NotFound)?,
                Node::File(_) => return Err(FsError::NotDir),
            }
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(u32, &'p str), FsError> {
        let comps = components(path);
        let (name, parents) = comps.split_last().ok_or(FsError::Exists)?;
        let pid = self.resolve(&parents.join("/"))?;
        match &self.nodes[pid as usize] {
            Node::Dir(_) => Ok((pid, name)),
            Node::File(_) => Err(FsError::NotDir),
        }
    }

    fn file_mut(&mut self, f: FileId) -> Result<(u32, &mut FileNode), FsError> {
        let id = *self.handles.get(&f.0).ok_or(FsError::BadHandle)?;
        match &mut self.nodes[id as usize] {
            Node::File(fnode) => Ok((id, fnode)),
            Node::Dir(_) => Err(FsError::IsDir),
        }
    }

    /// Extent-lock acquisition cost for the stripes of `[off, off+len)`
    /// not yet locked by this client; records the grants.
    fn lock_cost(&mut self, client: usize, id: u32, off: u64, len: u64) -> Step {
        let (nstripes, ss) = match &self.nodes[id as usize] {
            Node::File(f) => (f.layout.len(), f.stripe_size),
            Node::Dir(_) => return Step::Noop,
        };
        if len == 0 {
            return Step::Noop;
        }
        let first = (off / ss) as usize;
        let last = ((off + len - 1) / ss) as usize;
        let mut rtts = 0u64;
        for s in first..=last {
            let stripe_ost = s % nstripes;
            if self.locks.insert((id, stripe_ost, client)) {
                rtts += self.lock_rtts as u64;
            }
        }
        Step::delay(self.rtt_ns * rtts)
    }
}

impl FileNode {
    fn write(&mut self, offset: u64, data: &Payload, mode: LustreDataMode) {
        let len = data.len();
        self.size = self.size.max(offset + len);
        match (mode, &mut self.data) {
            (LustreDataMode::Full, FileData::Bytes(buf)) => {
                let end = (offset + len) as usize;
                if buf.len() < end {
                    buf.resize(end, 0);
                }
                match data.bytes() {
                    Some(bytes) => buf[offset as usize..end].copy_from_slice(bytes),
                    // sized payload in Full mode: synthetic zeros, but
                    // never clobber byte-mode storage
                    None => buf[offset as usize..end].fill(0),
                }
            }
            _ => self.data = FileData::Sized,
        }
    }

    fn read(&self, offset: u64, len: u64) -> ReadPayload {
        match &self.data {
            FileData::Bytes(buf) => {
                let mut out = vec![0u8; len as usize];
                let end = ((offset + len) as usize).min(buf.len());
                if (offset as usize) < end {
                    out[..end - offset as usize].copy_from_slice(&buf[offset as usize..end]);
                }
                ReadPayload::Bytes(out)
            }
            FileData::Sized => ReadPayload::Sized(len),
        }
    }

    /// Bytes touching each OST of the layout for `[off, off+len)`.
    fn stripe_bytes(&self, off: u64, len: u64) -> Vec<(usize, f64)> {
        let mut per: BTreeMap<usize, f64> = BTreeMap::new();
        let ss = self.stripe_size;
        let mut pos = off;
        let end = off + len;
        while pos < end {
            let stripe = pos / ss;
            let take = ((stripe + 1) * ss).min(end) - pos;
            // mix the stripe index so sequential writers do not march
            // over the layout in lockstep (write-back smearing)
            let mut z = stripe ^ 0x9e37_79b9_7f4a_7c15;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            *per.entry((z as usize) % self.layout.len()).or_default() += take as f64;
            pos += take;
        }
        let mut v: Vec<(usize, f64)> = per.into_iter().collect();
        v.sort_by_key(|&(i, _)| i);
        v
    }
}

impl PosixFs for LustreSystem {
    fn mkdir(&mut self, _client: usize, path: &str) -> Result<Step, FsError> {
        let (pid, name) = self.resolve_parent(path)?;
        if let Node::Dir(entries) = &self.nodes[pid as usize] {
            if entries.contains_key(name) {
                return Err(FsError::Exists);
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Dir(BTreeMap::new()));
        if let Node::Dir(entries) = &mut self.nodes[pid as usize] {
            entries.insert(name.to_string(), id);
        }
        Ok(Step::span("lustre", "mkdir", 0, self.mds_op(1.0)))
    }

    fn open(&mut self, client: usize, path: &str, create: bool) -> Result<(FileId, Step), FsError> {
        let _ = client;
        let id = match self.resolve(path) {
            Ok(id) => {
                if matches!(self.nodes[id as usize], Node::Dir(_)) {
                    return Err(FsError::IsDir);
                }
                id
            }
            Err(FsError::NotFound) if create => {
                let (pid, name) = self.resolve_parent(path)?;
                let layout = self.alloc_layout();
                let stripe_size = self.stripe.size;
                let id = self.nodes.len() as u32;
                self.nodes.push(Node::File(FileNode {
                    layout,
                    stripe_size,
                    size: 0,
                    data: match self.mode {
                        LustreDataMode::Full => FileData::Bytes(Vec::new()),
                        LustreDataMode::Sized => FileData::Sized,
                    },
                }));
                if let Node::Dir(entries) = &mut self.nodes[pid as usize] {
                    entries.insert(name.to_string(), id);
                }
                id
            }
            Err(e) => return Err(e),
        };
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, id);
        // open is an MDS transaction (create costs a second one for the
        // layout allocation)
        let ops = if create { 2.0 } else { 1.0 };
        Ok((FileId(h), Step::span("lustre", "open", 0, self.mds_op(ops))))
    }

    fn write(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        data: Payload,
    ) -> Result<Step, FsError> {
        // Take the executor out so the retried closure can borrow `self`.
        let bytes = data.len();
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run_step(|| self.write_inner(client, f, offset, data.clone()));
        self.retry = retry;
        Ok(Step::span("lustre", "write", bytes, r?))
    }

    fn read(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), FsError> {
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run(|| self.read_inner(client, f, offset, len));
        self.retry = retry;
        let (data, s) = r?;
        Ok((data, Step::span("lustre", "read", len, s)))
    }

    fn fstat(&mut self, client: usize, f: FileId) -> Result<(FileStat, Step), FsError> {
        let (_, fnode) = self.file_mut(f)?;
        let size = fnode.size;
        let nstripes = fnode.layout.len() as f64;
        // stat needs the MDS plus a size glimpse at every stripe OST
        let layout = fnode.layout.clone();
        let glimpses = layout
            .iter()
            .map(|&o| self.ost_read(client, o, 64.0))
            .collect::<Vec<_>>();
        let _ = nstripes;
        Ok((
            FileStat {
                size,
                is_dir: false,
            },
            Step::span(
                "lustre",
                "fstat",
                0,
                Step::seq([self.mds_op(1.0), Step::par(glimpses)]),
            ),
        ))
    }

    fn stat(&mut self, client: usize, path: &str) -> Result<(FileStat, Step), FsError> {
        let id = self.resolve(path)?;
        match &self.nodes[id as usize] {
            Node::Dir(_) => Ok((
                FileStat {
                    size: 0,
                    is_dir: true,
                },
                Step::span("lustre", "stat", 0, self.mds_op(1.0)),
            )),
            Node::File(fnode) => {
                let size = fnode.size;
                let layout = fnode.layout.clone();
                let glimpses = layout
                    .iter()
                    .map(|&o| self.ost_read(client, o, 64.0))
                    .collect::<Vec<_>>();
                Ok((
                    FileStat {
                        size,
                        is_dir: false,
                    },
                    Step::span(
                        "lustre",
                        "stat",
                        0,
                        Step::seq([self.mds_op(1.0), Step::par(glimpses)]),
                    ),
                ))
            }
        }
    }

    fn close(&mut self, _client: usize, f: FileId) -> Result<Step, FsError> {
        self.handles.remove(&f.0).ok_or(FsError::BadHandle)?;
        // Lustre close is an MDS transaction
        Ok(Step::span("lustre", "close", 0, self.mds_op(1.0)))
    }

    fn unlink(&mut self, _client: usize, path: &str) -> Result<Step, FsError> {
        let (pid, name) = self.resolve_parent(path)?;
        let id = match &self.nodes[pid as usize] {
            Node::Dir(entries) => *entries.get(name).ok_or(FsError::NotFound)?,
            Node::File(_) => return Err(FsError::NotDir),
        };
        if let Node::Dir(entries) = &self.nodes[id as usize] {
            if !entries.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        if let Node::Dir(entries) = &mut self.nodes[pid as usize] {
            entries.remove(name);
        }
        self.locks.retain(|&(fid, _, _)| fid != id);
        // unlink + OST object destroys
        Ok(Step::span("lustre", "unlink", 0, self.mds_op(2.0)))
    }

    fn readdir(&mut self, _client: usize, path: &str) -> Result<(Vec<String>, Step), FsError> {
        let id = self.resolve(path)?;
        match &self.nodes[id as usize] {
            Node::Dir(entries) => Ok((
                entries.keys().cloned().collect(),
                Step::span("lustre", "readdir", 0, self.mds_op(1.0)),
            )),
            Node::File(_) => Err(FsError::NotDir),
        }
    }
}

impl LustreSystem {
    fn write_inner(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        data: Payload,
    ) -> Result<Step, FsError> {
        let mode = self.mode;
        let (id, _) = self.file_mut(f)?;
        let locks = self.lock_cost(client, id, offset, data.len());
        let (_, fnode) = self.file_mut(f)?;
        let per_ost = fnode.stripe_bytes(offset, data.len());
        let layout = fnode.layout.clone();
        fnode.write(offset, &data, mode);
        let transfers = per_ost
            .into_iter()
            .map(|(i, bytes)| self.ost_write(client, layout[i], bytes))
            .collect::<Vec<_>>();
        Ok(Step::seq([
            Step::delay(self.op_ns),
            locks,
            Step::delay(self.rtt_ns),
            Step::par(transfers),
        ]))
    }

    fn read_inner(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), FsError> {
        let (id, _) = self.file_mut(f)?;
        let locks = self.lock_cost(client, id, offset, len);
        let (_, fnode) = self.file_mut(f)?;
        let data = fnode.read(offset, len);
        let per_ost = fnode.stripe_bytes(offset, len);
        let layout = fnode.layout.clone();
        let transfers = per_ost
            .into_iter()
            .map(|(i, bytes)| self.ost_read(client, layout[i], bytes))
            .collect::<Vec<_>>();
        Ok((
            data,
            Step::seq([
                Step::delay(self.op_ns),
                locks,
                Step::delay(self.rtt_ns),
                Step::par(transfers),
            ]),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, GIB, MIB};
    use simkit::{run, Leaf, OpId, World};

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

    fn system(servers: usize, clients: usize, stripe: StripeOpts) -> (Scheduler, LustreSystem) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(servers, clients).build(&mut sched);
        let fs = LustreSystem::deploy(&topo, &mut sched, servers, LustreDataMode::Full, stripe);
        (sched, fs)
    }

    #[test]
    fn posix_round_trip() {
        let (mut sched, mut fs) = system(2, 1, StripeOpts::default());
        exec(&mut sched, fs.mkdir(0, "/d").unwrap());
        let (f, s) = fs.open(0, "/d/file", true).unwrap();
        exec(&mut sched, s);
        let data: Vec<u8> = (0..200u8).collect();
        exec(
            &mut sched,
            fs.write(0, f, 50, Payload::Bytes(data.clone())).unwrap(),
        );
        let (r, s) = fs.read(0, f, 50, 200).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        let (st, s) = fs.fstat(0, f).unwrap();
        exec(&mut sched, s);
        assert_eq!(st.size, 250);
        exec(&mut sched, fs.close(0, f).unwrap());
        exec(&mut sched, fs.unlink(0, "/d/file").unwrap());
        assert_eq!(fs.open(0, "/d/file", false).unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn striping_spreads_bytes_over_osts() {
        let (mut sched, mut fs) = system(
            2,
            1,
            StripeOpts {
                count: 8,
                size: 1 << 20,
            },
        );
        let (f, s) = fs.open(0, "/f", true).unwrap();
        exec(&mut sched, s);
        let step = fs.write(0, f, 0, Payload::Sized(8 << 20)).unwrap();
        // the 8 MiB spread over the stripe OSTs (hashed routing may fold
        // some stripes onto the same OST, which aggregates their bytes)
        fn sum_transfers(s: &Step, out: &mut (usize, f64)) {
            for leaf in s.leaves() {
                if let Leaf::Transfer { units, .. } = leaf {
                    if units.get() >= 1.0 * MIB {
                        out.0 += 1;
                        out.1 += units.get();
                    }
                }
            }
        }
        let mut acc = (0usize, 0.0f64);
        sum_transfers(&step, &mut acc);
        assert!((4..=8).contains(&acc.0), "stripe fan-out {}", acc.0);
        assert!((acc.1 - 8.0 * MIB).abs() < 1.0, "all bytes accounted");
        exec(&mut sched, step);
    }

    #[test]
    fn files_spread_over_osts() {
        let (mut sched, mut fs) = system(
            1,
            1,
            StripeOpts {
                count: 1,
                size: 1 << 20,
            },
        );
        let mut osts = BTreeSet::new();
        for i in 0..64 {
            let (f, s) = fs.open(0, &format!("/f{i}"), true).unwrap();
            exec(&mut sched, s);
            let (id, fnode) = fs.file_mut(f).unwrap();
            let _ = id;
            osts.insert(fnode.layout[0]);
        }
        assert!(
            osts.len() >= 13,
            "64 single-stripe files must touch most of the 16 OSTs: {}",
            osts.len()
        );
    }

    #[test]
    fn extent_locks_granted_once_per_client() {
        let (mut sched, mut fs) = system(
            1,
            2,
            StripeOpts {
                count: 1,
                size: 1 << 20,
            },
        );
        let (f, s) = fs.open(0, "/f", true).unwrap();
        exec(&mut sched, s);
        let s1 = fs.write(0, f, 0, Payload::Sized(1024)).unwrap();
        let s2 = fs.write(0, f, 1024, Payload::Sized(1024)).unwrap();
        let d1 = s1.critical_delay_ns();
        let d2 = s2.critical_delay_ns();
        // first write pays a lock round trip, second does not
        assert!(d1 > d2);
        exec(&mut sched, s1);
        exec(&mut sched, s2);
        // another client must acquire its own lock
        let s3 = fs.write(1, f, 2048, Payload::Sized(1024)).unwrap();
        assert!(s3.critical_delay_ns() > d2);
        exec(&mut sched, s3);
    }

    #[test]
    fn bulk_write_approaches_hardware() {
        // 32 writers × 16 files on a 1-server system: aggregate must
        // approach the node's 3.86 GiB/s NVMe write bandwidth.
        let (mut sched, mut fs) = system(
            1,
            8,
            StripeOpts {
                count: 1,
                size: 1 << 20,
            },
        );
        let mut handles = Vec::new();
        for i in 0..32 {
            let (f, s) = fs.open(0, &format!("/f{i}"), true).unwrap();
            exec(&mut sched, s);
            handles.push(f);
        }
        let t0 = sched.now();
        // all writers in flight at once
        let mut steps = Vec::new();
        for (i, &f) in handles.iter().enumerate() {
            for j in 0..8u64 {
                steps.push(
                    fs.write(i % 8, f, j * (1 << 20), Payload::Sized(1 << 20))
                        .unwrap(),
                );
            }
        }
        for (i, s) in steps.into_iter().enumerate() {
            sched.submit(s, OpId(i as u64));
        }
        let mut w = Sink(SimTime::ZERO);
        run(&mut sched, &mut w);
        let bytes = 32.0 * 8.0 * MIB;
        let bw = bytes / w.0.secs_since(t0);
        // random single-stripe placement of 32 short-lived files leaves
        // some OSTs idle during the drain; the node pool still bounds it
        assert!(bw > 2.2 * GIB, "aggregate {} GiB/s", bw / GIB);
        assert!(
            bw <= 3.87 * GIB,
            "aggregate {} GiB/s exceeds node pool",
            bw / GIB
        );
    }

    #[test]
    fn mds_caps_metadata_rate() {
        // Two deployments differing only in MDS capacity: open/close
        // storms must take proportionally longer on the slower MDS.
        let time_with_mds = |iops: f64| {
            let mut sched = Scheduler::new();
            let mut spec = ClusterSpec::new(1, 4);
            spec.cal.mds_iops = iops;
            let topo = spec.build(&mut sched);
            let mut fs = LustreSystem::deploy(
                &topo,
                &mut sched,
                1,
                LustreDataMode::Sized,
                StripeOpts::default(),
            );
            let t0 = sched.now();
            let mut ops = Vec::new();
            for i in 0..200 {
                let (f, s) = fs.open(i % 4, &format!("/f{i}"), true).unwrap();
                ops.push(s);
                ops.push(fs.close(i % 4, f).unwrap());
            }
            for (i, s) in ops.into_iter().enumerate() {
                sched.submit(s, OpId(i as u64));
            }
            let mut w = Sink(SimTime::ZERO);
            run(&mut sched, &mut w);
            w.0.secs_since(t0)
        };
        let fast = time_with_mds(100_000.0);
        let slow = time_with_mds(10_000.0);
        assert!(slow > fast * 5.0, "slow {slow} vs fast {fast}");
    }
}
