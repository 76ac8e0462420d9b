//! The cost model of DAOS operations: the step chains that a client
//! call, a round trip, a target write or read, an erasure-code pass, a
//! pool-metadata transaction, a server-to-server shard move and a
//! target-local scrub read cost on the deployed hardware.
//!
//! It is a value of its own inside [`DaosSystem`](crate::DaosSystem),
//! apart from the object store, so that a data op can build its cost
//! chain from the same borrow that updates its object.

use crate::pool::TargetId;
use cluster::{units, Calibration, Topology};
use simkit::{Bytes, ResourceId, Scheduler, SimTime, Step, StepBuf};
use std::collections::BTreeMap;

/// Per-engine service resources.
#[derive(Debug, Clone)]
pub(crate) struct ServerRes {
    /// RPC/data processing pipe of the engine (bytes/s, both directions).
    pub(crate) engine_xfer: ResourceId,
    /// Per-target request service (ops/s).
    pub(crate) tgt_svc: Vec<ResourceId>,
}

impl ServerRes {
    /// Register server `s`'s engine pipe and per-target request
    /// services in `sched`.
    pub(crate) fn add(sched: &mut Scheduler, cal: &Calibration, s: usize) -> ServerRes {
        ServerRes {
            engine_xfer: sched.add_resource(format!("daos{s}.engine"), cal.engine_xfer_bw.get()),
            tgt_svc: (0..cal.targets_per_server)
                .map(|t| sched.add_resource(format!("daos{s}.tgt{t}"), cal.target_svc_iops))
                .collect(),
        }
    }
}

/// Hardware, calibration and engine resources that op chains are built
/// over.
pub(crate) struct CostModel {
    pub(crate) topo: Topology,
    pub(crate) cal: Calibration,
    pub(crate) srv_res: Vec<ServerRes>,
    /// The pool metadata / container service replica group: a fixed-size
    /// service that does NOT scale with the server count.
    pub(crate) pool_md_svc: ResourceId,
    /// Per-server extra completion latency (ns) injected by
    /// delayed-completion faults; applied to every data-path op chain
    /// touching the server's targets.
    pub(crate) extra_delay: BTreeMap<u16, u64>,
}

impl CostModel {
    pub(crate) fn client_overhead(&self) -> Step {
        Step::delay(self.cal.libdaos_op_ns)
    }

    pub(crate) fn rtt(&self) -> Step {
        Step::delay(self.cal.net_rtt_ns)
    }

    pub(crate) fn dev_for(&self, t: TargetId) -> usize {
        t.target as usize % self.topo.servers[t.server as usize].nvme_w.len()
    }

    /// Request service + data movement + device latency for a write of
    /// `bytes` from `client` to target `t`, appended to `b`.
    pub(crate) fn write_to_target(&self, b: &mut StepBuf, client: usize, t: TargetId, bytes: f64) {
        let srv = &self.topo.servers[t.server as usize];
        let res = &self.srv_res[t.server as usize];
        let cli = &self.topo.clients[client];
        let dev = self.dev_for(t);
        // small writes land in the engine's write-ahead log (DRAM-backed
        // on these VMs) and skip the bulk device latency
        let lat = if bytes >= self.cal.bulk_io_threshold.get() {
            self.cal.nvme_write_lat_ns
        } else {
            self.cal.small_write_lat_ns
        };
        let lat = lat + self.extra_delay.get(&t.server).copied().unwrap_or(0);
        b.span("target", "write", bytes as u64, |b| {
            b.push(self.tgt_request_sized(t, bytes));
            b.push(Step::transfer(
                Bytes(bytes),
                [
                    cli.nic_tx,
                    srv.nic_rx,
                    res.engine_xfer,
                    srv.nvme_w[dev],
                    srv.nvme_w_pool,
                ],
            ));
            b.push(Step::delay(lat));
        });
    }

    /// Request-service cost at a target.  Small operations contend on
    /// the shared per-target service (the Fig. 2 IOPS ceilings); bulk
    /// transfers, whose service time is negligible against their data
    /// movement, pay it as a fixed delay — halving the simulator's event
    /// count for bandwidth workloads without changing where they
    /// saturate.
    pub(crate) fn tgt_request_sized(&self, t: TargetId, bytes: f64) -> Step {
        if bytes >= self.cal.bulk_io_threshold.get() {
            Step::delay(SimTime::from_nanos(units::ops_interval_ns(
                self.cal.target_svc_iops,
            )))
        } else {
            Step::transfer(
                Bytes(1.0),
                [self.srv_res[t.server as usize].tgt_svc[t.target as usize]],
            )
        }
    }

    /// Request service + data movement + device latency for a read of
    /// `bytes` from target `t` to `client`, appended to `b`.
    pub(crate) fn read_from_target(&self, b: &mut StepBuf, client: usize, t: TargetId, bytes: f64) {
        let srv = &self.topo.servers[t.server as usize];
        let res = &self.srv_res[t.server as usize];
        let cli = &self.topo.clients[client];
        let dev = self.dev_for(t);
        let extra = self.extra_delay.get(&t.server).copied().unwrap_or(0);
        b.span("target", "read", bytes as u64, |b| {
            b.push(self.tgt_request_sized(t, bytes));
            b.push(Step::delay(self.cal.nvme_read_lat_ns + extra));
            b.push(Step::transfer(
                Bytes(bytes),
                [
                    srv.nvme_r[dev],
                    srv.nvme_r_pool,
                    res.engine_xfer,
                    srv.nic_tx,
                    cli.nic_rx,
                ],
            ));
        });
    }

    /// Client-side erasure-code encode or decode of `bytes`.  Truncates
    /// to whole nanoseconds, where `Bytes / Rate` would round up.
    pub(crate) fn ec_codec(&self, bytes: f64) -> Step {
        let secs = bytes / self.cal.ec_encode_bw.get();
        Step::delay(SimTime::from_nanos(units::secs_to_ns(secs)))
    }

    /// Server-to-server shard move, appended to `b`: each source reads
    /// `read_each` bytes and ships them to `dst`'s server, which writes
    /// the `write_bytes` shard.  Rebuild, migration and checksum repair
    /// all move data this way.
    pub(crate) fn shard_move(
        &self,
        b: &mut StepBuf,
        sources: &[TargetId],
        read_each: f64,
        dst: TargetId,
        write_bytes: f64,
    ) {
        let dsts = &self.topo.servers[dst.server as usize];
        let dres = &self.srv_res[dst.server as usize];
        let ddev = self.dev_for(dst);
        b.span("rebuild", "move", write_bytes as u64, |b| {
            b.push(Step::delay(self.cal.net_rtt_ns));
            b.par(|b| {
                for &src in sources {
                    let ssrv = &self.topo.servers[src.server as usize];
                    let sres = &self.srv_res[src.server as usize];
                    let sdev = self.dev_for(src);
                    b.push(Step::transfer(
                        Bytes(read_each),
                        [
                            ssrv.nvme_r[sdev],
                            ssrv.nvme_r_pool,
                            sres.engine_xfer,
                            ssrv.nic_tx,
                            dsts.nic_rx,
                        ],
                    ));
                }
            });
            b.push(Step::transfer(
                Bytes(write_bytes),
                [dres.engine_xfer, dsts.nvme_w[ddev], dsts.nvme_w_pool],
            ));
            b.push(Step::delay(self.cal.nvme_write_lat_ns));
        });
    }

    /// Target-local scan, appended to `b`: each of `targets` reads
    /// `bytes_each` straight off its NVMe through the engine, with no
    /// client or network involvement but full contention with
    /// foreground traffic on the shared resources.
    pub(crate) fn scan_read(
        &self,
        b: &mut StepBuf,
        targets: impl Iterator<Item = TargetId>,
        bytes_each: f64,
    ) {
        b.par(|b| {
            for t in targets {
                let srv = &self.topo.servers[t.server as usize];
                let res = &self.srv_res[t.server as usize];
                b.seq(|b| {
                    b.push(Step::transfer(
                        Bytes(bytes_each),
                        [
                            srv.nvme_r[self.dev_for(t)],
                            srv.nvme_r_pool,
                            res.engine_xfer,
                        ],
                    ));
                    b.push(Step::delay(self.cal.nvme_read_lat_ns));
                });
            }
        });
    }

    /// `n` operations against the pool metadata replica group.
    pub(crate) fn pool_md_op(&self, n: f64) -> Step {
        Step::seq([self.rtt(), Step::transfer(Bytes(n), [self.pool_md_svc])])
    }
}
