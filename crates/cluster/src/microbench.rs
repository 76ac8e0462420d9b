//! Raw-hardware micro-benchmarks (§III-A of the paper).
//!
//! The paper measures the NVMe devices with parallel `dd` runs (1000
//! blocks of 100 MiB per device) and the network with `iperf`.  These
//! functions run the equivalent workloads on the simulated hardware and
//! return the aggregate bandwidths used as the "calculated optimum"
//! baselines in every figure.

use crate::spec::ClusterSpec;
use crate::units::{Bytes, MIB};
use simkit::{run, OpId, Scheduler, SimTime, Step, World};

/// Result of a micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MicroResult {
    /// Bytes moved in total.
    pub bytes: f64,
    /// Wall-clock seconds (simulated).
    pub seconds: f64,
}

impl MicroResult {
    /// Aggregate bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds
        } else {
            0.0
        }
    }
}

struct LastDone(SimTime);
impl World for LastDone {
    fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
        self.0 = sched.now();
    }
}

/// `dd`-equivalent: stream `blocks × block_bytes` to every NVMe device of
/// one server in parallel, write or read direction.
pub fn dd_all_devices(blocks: u64, block_bytes: f64, write: bool) -> MicroResult {
    let mut sched = Scheduler::new();
    let spec = ClusterSpec::new(1, 0);
    let topo = spec.build(&mut sched);
    let srv = &topo.servers[0];
    let (devs, pool) = if write {
        (&srv.nvme_w, srv.nvme_w_pool)
    } else {
        (&srv.nvme_r, srv.nvme_r_pool)
    };
    let total = blocks as f64 * block_bytes;
    for &dev in devs {
        // dd streams sequentially; in the fluid model one long transfer
        // per device is equivalent to 1000 back-to-back blocks.
        sched.submit(Step::transfer(Bytes(total), [dev, pool]), OpId(0));
    }
    let mut w = LastDone(SimTime::ZERO);
    run(&mut sched, &mut w);
    MicroResult {
        bytes: total * devs.len() as f64,
        seconds: w.0.as_secs_f64(),
    }
}

/// `iperf`-equivalent: one bulk stream between a client and a server.
pub fn iperf(bytes: f64, client_to_server: bool) -> MicroResult {
    let mut sched = Scheduler::new();
    let spec = ClusterSpec::new(1, 1);
    let topo = spec.build(&mut sched);
    let path = if client_to_server {
        topo.net_to_server(0, 0)
    } else {
        topo.net_to_client(0, 0)
    };
    sched.submit(Step::transfer(Bytes(bytes), path), OpId(0));
    let mut w = LastDone(SimTime::ZERO);
    run(&mut sched, &mut w);
    MicroResult {
        bytes,
        seconds: w.0.as_secs_f64(),
    }
}

/// The full §III-A hardware table: (dd write, dd read, iperf up, iperf
/// down) aggregate bandwidths in bytes/s.
pub fn hardware_table() -> [MicroResult; 4] {
    [
        dd_all_devices(1000, 100.0 * MIB, true),
        dd_all_devices(1000, 100.0 * MIB, false),
        iperf(50.0 * 1024.0 * MIB, true),
        iperf(50.0 * 1024.0 * MIB, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GIB;

    #[test]
    fn dd_matches_paper_aggregates() {
        let w = dd_all_devices(100, 100.0 * MIB, true);
        assert!(
            (w.bandwidth() / GIB - 3.86).abs() < 0.01,
            "{}",
            w.bandwidth() / GIB
        );
        let r = dd_all_devices(100, 100.0 * MIB, false);
        assert!(
            (r.bandwidth() / GIB - 7.0).abs() < 0.01,
            "{}",
            r.bandwidth() / GIB
        );
    }

    #[test]
    fn iperf_matches_50gbps() {
        for dir in [true, false] {
            let m = iperf(10.0 * GIB, dir);
            assert!((m.bandwidth() / GIB - 6.25).abs() < 0.01);
        }
    }

    #[test]
    fn hardware_table_is_consistent() {
        let t = hardware_table();
        assert!(
            t[0].bandwidth() < t[1].bandwidth(),
            "write slower than read"
        );
        assert!(
            (t[2].bandwidth() - t[3].bandwidth()).abs() < 1.0,
            "symmetric net"
        );
    }
}
