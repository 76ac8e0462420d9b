//! The Ceph-like object store (librados model).
//!
//! Reproduces the §III-F baseline: 16 nodes with 16 OSDs each (one per
//! NVMe device), a monitor holding the cluster map, and placement-group
//! based object placement.  The performance-defining properties, all
//! modelled:
//!
//! * **no object sharding** — an object maps to one placement group and
//!   is served by that PG's primary OSD, so a single large object never
//!   exceeds one device's bandwidth (why IOR-per-process objects
//!   underperform, §III-F);
//! * **placement imbalance** — PGs map to OSDs by stable hashing; with
//!   few objects or few PGs, load skew *emerges* from the hash and
//!   stretches the makespan (the paper tunes `pg_num` to 1024 for this
//!   reason);
//! * **WAL write amplification** — BlueStore journals small/medium
//!   writes, multiplying device-level write bytes;
//! * **per-OSD read/write processing** — messenger/crc costs that keep
//!   Ceph below raw hardware even when balanced.

use cluster::payload::{Payload, ReadPayload};
use cluster::Topology;
use daos_core::{Retriable, RetryExec, RetryPolicy, RetryStats};
use simkit::{Bytes, ResourceId, Scheduler, SimTime, Step};
use std::collections::BTreeMap;

/// Data-mode mirror of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CephDataMode {
    /// Keep real bytes.
    Full,
    /// Track sizes only.
    Sized,
}

/// Errors surfaced by the librados-style API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadosError {
    /// Object does not exist.
    NoSuchObject,
    /// Write would exceed the configured maximum object size.
    ObjectTooLarge,
    /// Replica count exceeds available OSDs.
    BadPoolConfig,
}

impl Retriable for RadosError {
    /// The simulated RADOS surface has no transient failure mode today:
    /// every error is a hard precondition violation.  The classification
    /// exists so callers can wrap librados ops in the same `RetryExec`
    /// machinery as every other interface layer.
    fn is_retriable(&self) -> bool {
        false
    }
}

#[derive(Debug)]
struct RadosObject {
    size: u64,
    pg: u32,
    data: ObjectData,
}

#[derive(Debug)]
enum ObjectData {
    Bytes(Vec<u8>),
    Sized,
}

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct CephPoolOpts {
    /// Placement groups (the paper found 1024 optimal).
    pub pg_num: usize,
    /// Replica count (1 = no data protection, as in the paper's runs).
    pub replicas: usize,
    /// Erasure-coded pool: `(k, m)` data/coding chunks.  Mutually
    /// exclusive with `replicas > 1`.  This is the mechanism the paper
    /// references when noting that "Ceph cannot shard objects across
    /// OSDs unless enabling erasure-code or replication" (§III-F):
    /// with an EC profile, one object's data spreads over `k + m` OSDs.
    pub ec: Option<(u8, u8)>,
}

impl Default for CephPoolOpts {
    fn default() -> Self {
        CephPoolOpts {
            pg_num: 1024,
            replicas: 1,
            ec: None,
        }
    }
}

impl CephPoolOpts {
    /// An erasure-coded pool profile.
    pub fn erasure(k: u8, m: u8) -> Self {
        CephPoolOpts {
            pg_num: 1024,
            replicas: 1,
            ec: Some((k, m)),
        }
    }

    /// OSDs every PG maps to (replicas, or `k + m` for EC pools).
    pub fn width(&self) -> usize {
        match self.ec {
            Some((k, m)) => k as usize + m as usize,
            None => self.replicas,
        }
    }
}

/// The deployed cluster: monitor + OSDs + one pool.
pub struct CephSystem {
    topo: Topology,
    servers: usize,
    mode: CephDataMode,
    opts: CephPoolOpts,
    /// PG → OSD set (primary first), fixed at deploy (the cluster map).
    pg_map: Vec<Vec<u32>>,
    /// Per-OSD request service.
    osd_svc: Vec<ResourceId>,
    /// Per-OSD write-path processing bandwidth.
    osd_wbw: Vec<ResourceId>,
    /// Per-OSD read-path processing bandwidth.
    osd_rbw: Vec<ResourceId>,
    objects: BTreeMap<String, RadosObject>,
    wal_factor: f64,
    max_object: f64,
    op_ns: SimTime,
    rtt_ns: SimTime,
    /// Retry machinery around the data path (off by default).
    retry: RetryExec,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CephSystem {
    /// Deploy over the first `servers` nodes of `topo` (plus an implicit
    /// monitor node), creating OSD resources and the PG map.
    pub fn deploy(
        topo: &Topology,
        sched: &mut Scheduler,
        servers: usize,
        mode: CephDataMode,
        opts: CephPoolOpts,
    ) -> Result<CephSystem, RadosError> {
        assert!(servers >= 1 && servers <= topo.server_count());
        let cal = &topo.cal;
        let total_osds = servers * cal.osds_per_server;
        if opts.replicas == 0 || opts.width() > total_osds {
            return Err(RadosError::BadPoolConfig);
        }
        if opts.ec.is_some() && opts.replicas > 1 {
            return Err(RadosError::BadPoolConfig);
        }
        let mut osd_svc = Vec::with_capacity(total_osds);
        let mut osd_wbw = Vec::with_capacity(total_osds);
        let mut osd_rbw = Vec::with_capacity(total_osds);
        for s in 0..servers {
            for o in 0..cal.osds_per_server {
                osd_svc.push(sched.add_resource(format!("ceph.osd{s}.{o}.svc"), cal.osd_svc_iops));
                osd_wbw
                    .push(sched.add_resource(format!("ceph.osd{s}.{o}.w"), cal.osd_write_bw.get()));
                osd_rbw
                    .push(sched.add_resource(format!("ceph.osd{s}.{o}.r"), cal.osd_read_bw.get()));
            }
        }
        // PG → OSD mapping.  Primaries are assigned evenly (each OSD
        // serves ⌈pg_num/total⌉ or ⌊pg_num/total⌋ primaries, shuffled):
        // real deployments run the mgr balancer/upmap to reach exactly
        // this state, and the paper's PG-count tuning presumes it.  With
        // fewer PGs than OSDs the imbalance is unavoidable — the effect
        // the `pg_num` ablation shows.  Replicas/EC shards follow by
        // stable hashing on distinct OSDs.
        let width = opts.width();
        let mut primaries: Vec<u32> = (0..opts.pg_num)
            .map(|pg| (pg % total_osds) as u32)
            .collect();
        // seeded shuffle so PG ids do not trivially encode placement
        let mut rng = simkit::SplitMix64::new(0xcef1_0000 ^ opts.pg_num as u64);
        for i in (1..primaries.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            primaries.swap(i, j);
        }
        let pg_map = (0..opts.pg_num)
            .map(|pg| {
                let mut chosen: Vec<u32> = Vec::with_capacity(width);
                chosen.push(primaries[pg]);
                let mut salt = 0u64;
                while chosen.len() < width {
                    let osd = (mix((pg as u64) << 20 | salt) % total_osds as u64) as u32;
                    if !chosen.contains(&osd) {
                        chosen.push(osd);
                    }
                    salt += 1;
                }
                chosen
            })
            .collect();
        Ok(CephSystem {
            topo: topo.clone(),
            servers,
            mode,
            opts,
            pg_map,
            osd_svc,
            osd_wbw,
            osd_rbw,
            objects: BTreeMap::new(),
            wal_factor: cal.osd_wal_factor,
            max_object: cal.rados_max_object_bytes.get(),
            op_ns: cal.rados_op_ns,
            rtt_ns: cal.net_rtt_ns,
            retry: RetryExec::disabled(),
        })
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

    /// OSD nodes in the deployment.
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Pool configuration.
    pub fn opts(&self) -> CephPoolOpts {
        self.opts
    }

    /// PG responsible for an object name.
    pub fn pg_of(&self, name: &str) -> u32 {
        (mix(daos_hash(name)) % self.opts.pg_num as u64) as u32
    }

    /// OSD set (primary first) for a PG.
    pub fn osds_of_pg(&self, pg: u32) -> &[u32] {
        &self.pg_map[pg as usize]
    }

    /// Number of PGs whose primary lands on each OSD (balance
    /// diagnostics; the paper tuned `pg_num` against exactly this skew).
    pub fn primary_pgs_per_osd(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.osd_svc.len()];
        for osds in &self.pg_map {
            counts[osds[0] as usize] += 1;
        }
        counts
    }

    fn osd_node_dev(&self, osd: u32) -> (usize, usize) {
        let per = self.topo.cal.osds_per_server;
        ((osd as usize) / per, (osd as usize) % per)
    }

    fn osd_write_step(&self, client: usize, osd: u32, bytes: f64) -> Step {
        let (node, devi) = self.osd_node_dev(osd);
        let srv = &self.topo.servers[node];
        let cli = &self.topo.clients[client];
        let dev = srv.nvme_w[devi % srv.nvme_w.len()];
        Step::seq([
            Step::transfer(Bytes(1.0), [self.osd_svc[osd as usize]]),
            // reception and the WAL/apply drain pipeline: BlueStore
            // journals asynchronously while data keeps arriving
            Step::par([
                Step::transfer(
                    Bytes(bytes),
                    [cli.nic_tx, srv.nic_rx, self.osd_wbw[osd as usize]],
                ),
                Step::transfer(
                    Bytes(bytes * self.wal_factor),
                    [dev, self.topo.servers[node].nvme_w_pool],
                ),
            ]),
            Step::delay(self.topo.cal.nvme_write_lat_ns),
        ])
    }

    fn osd_read_step(&self, client: usize, osd: u32, bytes: f64) -> Step {
        let (node, devi) = self.osd_node_dev(osd);
        let srv = &self.topo.servers[node];
        let cli = &self.topo.clients[client];
        let dev = srv.nvme_r[devi % srv.nvme_r.len()];
        Step::seq([
            Step::transfer(Bytes(1.0), [self.osd_svc[osd as usize]]),
            Step::delay(self.topo.cal.nvme_read_lat_ns),
            Step::transfer(
                Bytes(bytes),
                [
                    dev,
                    srv.nvme_r_pool,
                    self.osd_rbw[osd as usize],
                    srv.nic_tx,
                    cli.nic_rx,
                ],
            ),
        ])
    }

    /// Write `data` at `offset` of `name`, creating the object if needed.
    pub fn write(
        &mut self,
        client: usize,
        name: &str,
        offset: u64,
        data: Payload,
    ) -> Result<Step, RadosError> {
        // Take the executor out so the retried closure can borrow `self`.
        let bytes = data.len();
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run_step(|| self.write_inner(client, name, offset, data.clone()));
        self.retry = retry;
        Ok(Step::span("rados", "write", bytes, r?))
    }

    fn write_inner(
        &mut self,
        client: usize,
        name: &str,
        offset: u64,
        data: Payload,
    ) -> Result<Step, RadosError> {
        let len = data.len();
        let new_size = offset + len;
        if new_size as f64 > self.max_object {
            return Err(RadosError::ObjectTooLarge);
        }
        let pg = self.pg_of(name);
        let obj = self.objects.entry(name.to_string()).or_insert(RadosObject {
            size: 0,
            pg,
            data: match self.mode {
                CephDataMode::Full => ObjectData::Bytes(Vec::new()),
                CephDataMode::Sized => ObjectData::Sized,
            },
        });
        obj.size = obj.size.max(new_size);
        if let ObjectData::Bytes(buf) = &mut obj.data {
            let end = new_size as usize;
            if buf.len() < end {
                buf.resize(end, 0);
            }
            match data.bytes() {
                Some(bytes) => buf[offset as usize..end].copy_from_slice(bytes),
                None => buf[offset as usize..end].fill(0),
            }
        }
        let osds = self.pg_map[pg as usize].clone();
        let step = match self.opts.ec {
            // EC pool: the object's stripe spreads over k data + m coding
            // chunks on distinct OSDs — this is how Ceph *does* shard
            Some((k, m)) => {
                let cell = len as f64 / k as f64;
                let writes = osds[..(k as usize + m as usize)]
                    .iter()
                    .map(|&o| self.osd_write_step(client, o, cell))
                    .collect::<Vec<_>>();
                Step::seq([
                    Step::delay(self.op_ns),
                    Step::delay(self.rtt_ns),
                    Step::par(writes),
                ])
            }
            // primary-copy replication: client sends to the primary,
            // which fans out to the replicas before acking
            None => {
                let primary = self.osd_write_step(client, osds[0], len as f64);
                let replicas = osds[1..]
                    .iter()
                    .map(|&o| self.osd_write_step(client, o, len as f64))
                    .collect::<Vec<_>>();
                Step::seq([
                    Step::delay(self.op_ns),
                    Step::delay(self.rtt_ns),
                    primary,
                    Step::par(replicas),
                ])
            }
        };
        Ok(step)
    }

    /// Append to an object (fdb-style usage).
    pub fn append(&mut self, client: usize, name: &str, data: Payload) -> Result<Step, RadosError> {
        let off = self.objects.get(name).map_or(0, |o| o.size);
        self.write(client, name, off, data)
    }

    /// Read `len` bytes at `offset` from the PG's primary OSD.
    pub fn read(
        &mut self,
        client: usize,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), RadosError> {
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run(|| self.read_inner(client, name, offset, len));
        self.retry = retry;
        let (data, s) = r?;
        Ok((data, Step::span("rados", "read", len, s)))
    }

    fn read_inner(
        &mut self,
        client: usize,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), RadosError> {
        let obj = self.objects.get(name).ok_or(RadosError::NoSuchObject)?;
        let data = match &obj.data {
            ObjectData::Bytes(buf) => {
                let mut out = vec![0u8; len as usize];
                let end = ((offset + len) as usize).min(buf.len());
                if (offset as usize) < end {
                    out[..end - offset as usize].copy_from_slice(&buf[offset as usize..end]);
                }
                ReadPayload::Bytes(out)
            }
            ObjectData::Sized => ReadPayload::Sized(len),
        };
        let osds = &self.pg_map[obj.pg as usize];
        let step = match self.opts.ec {
            // EC pool: read the k data chunks in parallel
            Some((k, _)) => {
                let cell = len as f64 / k as f64;
                let reads = osds[..k as usize]
                    .iter()
                    .map(|&o| self.osd_read_step(client, o, cell))
                    .collect::<Vec<_>>();
                Step::seq([
                    Step::delay(self.op_ns),
                    Step::delay(self.rtt_ns),
                    Step::par(reads),
                ])
            }
            None => Step::seq([
                Step::delay(self.op_ns),
                Step::delay(self.rtt_ns),
                self.osd_read_step(client, osds[0], len as f64),
            ]),
        };
        Ok((data, step))
    }

    /// Object size (`rados stat`).
    pub fn stat(&mut self, _client: usize, name: &str) -> Result<(u64, Step), RadosError> {
        let obj = self.objects.get(name).ok_or(RadosError::NoSuchObject)?;
        let primary = self.pg_map[obj.pg as usize][0];
        let step = Step::span(
            "rados",
            "stat",
            0,
            Step::seq([
                Step::delay(self.op_ns),
                Step::delay(self.rtt_ns),
                Step::transfer(Bytes(1.0), [self.osd_svc[primary as usize]]),
            ]),
        );
        Ok((obj.size, step))
    }

    /// Remove an object.
    pub fn remove(&mut self, client: usize, name: &str) -> Result<Step, RadosError> {
        let obj = self.objects.remove(name).ok_or(RadosError::NoSuchObject)?;
        let osds = self.pg_map[obj.pg as usize].clone();
        let ops = osds
            .iter()
            .map(|&o| self.osd_write_step(client, o, 64.0))
            .collect::<Vec<_>>();
        Ok(Step::span(
            "rados",
            "remove",
            0,
            Step::seq([
                Step::delay(self.op_ns),
                Step::delay(self.rtt_ns),
                Step::par(ops),
            ]),
        ))
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }
}

/// Stable name hash (rjenkins-flavoured in real Ceph; splitmix here).
fn daos_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, GIB, MIB};
    use simkit::{run, OpId, SimTime, World};

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

    fn system(servers: usize, clients: usize, opts: CephPoolOpts) -> (Scheduler, CephSystem) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(servers, clients).build(&mut sched);
        let sys = CephSystem::deploy(&topo, &mut sched, servers, CephDataMode::Full, opts).unwrap();
        (sched, sys)
    }

    #[test]
    fn object_round_trip() {
        let (mut sched, mut ceph) = system(2, 1, CephPoolOpts::default());
        let data: Vec<u8> = (0..255u8).collect();
        exec(
            &mut sched,
            ceph.write(0, "obj.1", 0, Payload::Bytes(data.clone()))
                .unwrap(),
        );
        let (r, s) = ceph.read(0, "obj.1", 0, 255).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        let (size, s) = ceph.stat(0, "obj.1").unwrap();
        exec(&mut sched, s);
        assert_eq!(size, 255);
        exec(&mut sched, ceph.remove(0, "obj.1").unwrap());
        assert_eq!(
            ceph.read(0, "obj.1", 0, 1).unwrap_err(),
            RadosError::NoSuchObject
        );
    }

    #[test]
    fn append_extends() {
        let (mut sched, mut ceph) = system(1, 1, CephPoolOpts::default());
        exec(
            &mut sched,
            ceph.append(0, "o", Payload::Bytes(vec![1; 10])).unwrap(),
        );
        exec(
            &mut sched,
            ceph.append(0, "o", Payload::Bytes(vec![2; 10])).unwrap(),
        );
        let (r, s) = ceph.read(0, "o", 0, 20).unwrap();
        exec(&mut sched, s);
        let b = r.bytes().unwrap();
        assert_eq!(&b[..10], &[1; 10]);
        assert_eq!(&b[10..], &[2; 10]);
    }

    #[test]
    fn max_object_size_enforced() {
        let (_sched, mut ceph) = system(1, 1, CephPoolOpts::default());
        let too_big = (132.0 * MIB) as u64 + 1;
        assert_eq!(
            ceph.write(0, "big", 0, Payload::Sized(too_big))
                .unwrap_err(),
            RadosError::ObjectTooLarge
        );
        assert!(ceph.write(0, "ok", 0, Payload::Sized(too_big - 1)).is_ok());
    }

    #[test]
    fn wal_amplification_hits_device() {
        let mut sched = Scheduler::with_monitor();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let mut ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            1,
            CephDataMode::Sized,
            CephPoolOpts::default(),
        )
        .unwrap();
        exec(
            &mut sched,
            ceph.write(0, "o", 0, Payload::Sized(1 << 20)).unwrap(),
        );
        let dev_bytes: f64 = topo.servers[0]
            .nvme_w
            .iter()
            .map(|&r| sched.monitor().units(r))
            .sum();
        let expect = (1u64 << 20) as f64 * topo.cal.osd_wal_factor;
        assert!(
            (dev_bytes - expect).abs() < 1.0,
            "dev {dev_bytes} vs {expect}"
        );
    }

    #[test]
    fn replication_writes_all_copies() {
        let mut sched = Scheduler::with_monitor();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            2,
            CephDataMode::Sized,
            CephPoolOpts {
                pg_num: 64,
                replicas: 3,
                ec: None,
            },
        )
        .unwrap();
        exec(
            &mut sched,
            ceph.write(0, "o", 0, Payload::Sized(1 << 20)).unwrap(),
        );
        let dev_bytes: f64 = topo
            .servers
            .iter()
            .flat_map(|s| s.nvme_w.iter())
            .map(|&r| sched.monitor().units(r))
            .sum();
        let expect = 3.0 * (1u64 << 20) as f64 * topo.cal.osd_wal_factor;
        assert!(
            (dev_bytes - expect).abs() < 1.0,
            "dev {dev_bytes} vs {expect}"
        );
    }

    #[test]
    fn more_pgs_engage_more_osds() {
        // with the balancer-even primary assignment, the pg_num effect
        // is coverage: fewer PGs than OSDs leaves OSDs without any
        // primaries at all
        let coverage = |pg_num: usize| {
            let (_s, ceph) = system(
                4,
                1,
                CephPoolOpts {
                    pg_num,
                    replicas: 1,
                    ec: None,
                },
            );
            ceph.primary_pgs_per_osd()
                .iter()
                .filter(|&&c| c > 0)
                .count()
        };
        assert_eq!(coverage(24), 24, "24 PGs engage 24 of 64 OSDs");
        assert_eq!(coverage(1024), 64, "plenty of PGs engage every OSD");
        // and counts are near-even when PGs are plentiful
        let (_s, ceph) = system(
            4,
            1,
            CephPoolOpts {
                pg_num: 1024,
                replicas: 1,
                ec: None,
            },
        );
        let counts = ceph.primary_pgs_per_osd();
        assert!(
            counts.iter().all(|&c| c == 16),
            "1024/64 = 16 each: {counts:?}"
        );
    }

    #[test]
    fn pg_mapping_is_stable_and_replicas_distinct() {
        let (_s, ceph) = system(
            2,
            1,
            CephPoolOpts {
                pg_num: 128,
                replicas: 3,
                ec: None,
            },
        );
        assert_eq!(ceph.pg_of("x"), ceph.pg_of("x"));
        for pg in 0..128u32 {
            let osds = ceph.osds_of_pg(pg);
            let mut u = osds.to_vec();
            u.sort();
            u.dedup();
            assert_eq!(u.len(), 3);
        }
    }

    #[test]
    fn single_object_bound_by_one_osd() {
        // 100 MiB to one object: one device + one OSD write path; no
        // sharding means the other 15 devices stay idle.
        let mut sched = Scheduler::with_monitor();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let mut ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            1,
            CephDataMode::Sized,
            CephPoolOpts::default(),
        )
        .unwrap();
        exec(
            &mut sched,
            ceph.write(0, "o", 0, Payload::Sized(100 << 20)).unwrap(),
        );
        let active_devs = topo.servers[0]
            .nvme_w
            .iter()
            .filter(|&&r| sched.monitor().units(r) > 0.0)
            .count();
        assert_eq!(active_devs, 1, "no sharding in RADOS");
        // the single stream is paced by the tighter of the OSD write
        // path and the device (burst) behind the WAL
        let bw_bound = topo
            .cal
            .osd_write_bw
            .min(topo.cal.nvme_dev_write_bw() * topo.cal.nvme_dev_burst / topo.cal.osd_wal_factor)
            .get();
        assert!(
            sched.now().as_secs_f64() >= (100 << 20) as f64 / bw_bound * 0.99,
            "single-object stream cannot beat one OSD: {} s",
            sched.now().as_secs_f64()
        );
        let _ = GIB;
    }
}

#[cfg(test)]
mod ec_pool_tests {
    use super::*;
    use cluster::{ClusterSpec, GIB, MIB};
    use simkit::{run, OpId, Scheduler, SimTime, World};

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

    #[test]
    fn ec_pool_shards_one_object_across_osds() {
        let mut sched = Scheduler::with_monitor();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            2,
            CephDataMode::Sized,
            CephPoolOpts::erasure(4, 2),
        )
        .unwrap();
        exec(
            &mut sched,
            ceph.write(0, "striped", 0, Payload::Sized(64 << 20))
                .unwrap(),
        );
        let active: usize = topo
            .servers
            .iter()
            .flat_map(|s| s.nvme_w.iter())
            .filter(|&&r| sched.monitor().units(r) > 0.0)
            .count();
        assert_eq!(active, 6, "k+m = 6 devices carry the object");
        // write amplification (k+m)/k on top of WAL
        let total: f64 = topo
            .servers
            .iter()
            .flat_map(|s| s.nvme_w.iter())
            .map(|&r| sched.monitor().units(r))
            .sum();
        let expect = (64u64 << 20) as f64 * 1.5 * topo.cal.osd_wal_factor;
        assert!((total - expect).abs() < 1.0, "{total} vs {expect}");
    }

    #[test]
    fn ec_pool_large_object_faster_than_plain_pool() {
        // the paper's point: without EC/replication a RADOS object is
        // single-OSD-bound; an EC profile shards it
        let run_one = |opts: CephPoolOpts| {
            let mut sched = Scheduler::new();
            let topo = ClusterSpec::new(2, 1).build(&mut sched);
            let mut ceph =
                CephSystem::deploy(&topo, &mut sched, 2, CephDataMode::Sized, opts).unwrap();
            exec(
                &mut sched,
                ceph.write(0, "big", 0, Payload::Sized(100 << 20)).unwrap(),
            )
        };
        let plain = run_one(CephPoolOpts::default());
        let ec = run_one(CephPoolOpts::erasure(4, 2));
        assert!(
            ec < plain * 0.6,
            "EC stripes must beat single-OSD: {ec:.3}s vs {plain:.3}s"
        );
        let _ = (GIB, MIB);
    }

    #[test]
    fn ec_pool_round_trips_bytes() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            2,
            CephDataMode::Full,
            CephPoolOpts::erasure(2, 1),
        )
        .unwrap();
        let mut rng = simkit::SplitMix64::new(3);
        let mut data = vec![0u8; 100_000];
        rng.fill_bytes(&mut data);
        exec(
            &mut sched,
            ceph.write(0, "o", 0, Payload::Bytes(data.clone())).unwrap(),
        );
        let (got, s) = ceph.read(0, "o", 0, data.len() as u64).unwrap();
        exec(&mut sched, s);
        assert_eq!(got.bytes().unwrap(), &data[..]);
    }

    #[test]
    fn ec_with_replicas_rejected() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let opts = CephPoolOpts {
            pg_num: 64,
            replicas: 2,
            ec: Some((2, 1)),
        };
        match CephSystem::deploy(&topo, &mut sched, 1, CephDataMode::Sized, opts) {
            Err(RadosError::BadPoolConfig) => {}
            Err(e) => panic!("wrong error {e:?}"),
            Ok(_) => panic!("EC + replicas must be rejected"),
        }
    }
}
