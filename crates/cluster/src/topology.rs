//! Instantiation of cluster hardware as scheduler resources.

use crate::calibration::Calibration;
use crate::spec::ClusterSpec;
use simkit::{ResourceId, Scheduler};

/// Hardware resources of one storage-server node.
#[derive(Debug, Clone)]
pub struct ServerNode {
    /// Outbound NIC direction (server → client traffic: reads).
    pub nic_tx: ResourceId,
    /// Inbound NIC direction (client → server traffic: writes).
    pub nic_rx: ResourceId,
    /// Per-device NVMe write bandwidth (burst).
    pub nvme_w: Vec<ResourceId>,
    /// Per-device NVMe read bandwidth (burst).
    pub nvme_r: Vec<ResourceId>,
    /// Node-aggregate NVMe write bandwidth (sustained; §III-A dd value).
    pub nvme_w_pool: ResourceId,
    /// Node-aggregate NVMe read bandwidth (sustained).
    pub nvme_r_pool: ResourceId,
}

/// Hardware resources of one benchmark-client node.
#[derive(Debug, Clone)]
pub struct ClientNode {
    /// Outbound NIC direction (client → server: writes).
    pub nic_tx: ResourceId,
    /// Inbound NIC direction (server → client: reads).
    pub nic_rx: ResourceId,
}

/// The built hardware topology.  Storage crates hold this (by shared
/// reference or clone — it is plain ids) and route transfers through it.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Storage-server nodes.
    pub servers: Vec<ServerNode>,
    /// Benchmark-client nodes.
    pub clients: Vec<ClientNode>,
    /// The calibration the topology was built with.
    pub cal: Calibration,
}

impl Topology {
    /// Create all hardware resources for `spec` in `sched`.
    pub fn build(spec: &ClusterSpec, sched: &mut Scheduler) -> Topology {
        let cal = &spec.cal;
        let ndev = spec.server.nvme_devices;
        let dev_w = cal.server_nvme_write_bw / ndev as f64 * cal.nvme_dev_burst;
        let dev_r = cal.server_nvme_read_bw / ndev as f64 * cal.nvme_dev_burst;
        let servers = (0..spec.servers)
            .map(|s| {
                // heterogeneous fleets scale a server's NVMe (devices and
                // node pool) without touching its NIC
                let speed = spec.server_speed(s);
                ServerNode {
                    nic_tx: sched.add_resource(format!("srv{s}.nic_tx"), cal.nic_bw.get()),
                    nic_rx: sched.add_resource(format!("srv{s}.nic_rx"), cal.nic_bw.get()),
                    nvme_w: (0..ndev)
                        .map(|d| {
                            sched.add_resource(format!("srv{s}.nvme{d}.w"), (dev_w * speed).get())
                        })
                        .collect(),
                    nvme_r: (0..ndev)
                        .map(|d| {
                            sched.add_resource(format!("srv{s}.nvme{d}.r"), (dev_r * speed).get())
                        })
                        .collect(),
                    nvme_w_pool: sched.add_resource(
                        format!("srv{s}.nvme.wpool"),
                        (cal.server_nvme_write_bw * speed).get(),
                    ),
                    nvme_r_pool: sched.add_resource(
                        format!("srv{s}.nvme.rpool"),
                        (cal.server_nvme_read_bw * speed).get(),
                    ),
                }
            })
            .collect();
        let clients = (0..spec.clients)
            .map(|c| ClientNode {
                nic_tx: sched.add_resource(format!("cli{c}.nic_tx"), cal.nic_bw.get()),
                nic_rx: sched.add_resource(format!("cli{c}.nic_rx"), cal.nic_bw.get()),
            })
            .collect();
        Topology {
            servers,
            clients,
            cal: cal.clone(),
        }
    }

    /// Network path for client `c` sending to server `s` (a write's data
    /// movement, before it reaches a device).
    pub fn net_to_server(&self, c: usize, s: usize) -> [ResourceId; 2] {
        [self.clients[c].nic_tx, self.servers[s].nic_rx]
    }

    /// Network path for server `s` sending to client `c` (a read's data
    /// movement).
    pub fn net_to_client(&self, s: usize, c: usize) -> [ResourceId; 2] {
        [self.servers[s].nic_tx, self.clients[c].nic_rx]
    }

    /// Number of storage-server nodes.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of benchmark-client nodes.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bytes, GIB};
    use simkit::{run, OpId, SimTime, Step, World};

    struct Done(SimTime);
    impl World for Done {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    #[test]
    fn resources_have_paper_capacities() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let s = &topo.servers[0];
        assert_eq!(s.nvme_w.len(), 16);
        // the node pools carry the measured aggregates; individual
        // devices get burst headroom above their sustained share
        assert!((sched.capacity(s.nvme_w_pool) - 3.86 * GIB).abs() < 1.0);
        assert!((sched.capacity(s.nvme_r_pool) - 7.0 * GIB).abs() < 1.0);
        let burst = topo.cal.nvme_dev_burst;
        assert!((sched.capacity(s.nvme_w[0]) - 3.86 * GIB / 16.0 * burst).abs() < 1.0);
        assert!((sched.capacity(s.nvme_r[0]) - 7.0 * GIB / 16.0 * burst).abs() < 1.0);
        assert!((sched.capacity(s.nic_tx) - 6.25 * GIB).abs() < 1.0);
    }

    #[test]
    fn single_network_flow_is_nic_bound() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let path = topo.net_to_server(0, 0);
        sched.submit(Step::transfer(Bytes(6.25 * GIB), path), OpId(0));
        let mut w = Done(SimTime::ZERO);
        run(&mut sched, &mut w);
        assert!((w.0.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn server_speeds_scale_nvme_but_not_nic() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(3, 1)
            .with_server_speeds(vec![1.0, 0.5])
            .build(&mut sched);
        let full = sched.capacity(topo.servers[0].nvme_w_pool);
        let half = sched.capacity(topo.servers[1].nvme_w_pool);
        assert!((half - full / 2.0).abs() < 1.0);
        // a server past the end of the speeds vector runs at full speed
        assert!((sched.capacity(topo.servers[2].nvme_w_pool) - full).abs() < 1.0);
        // per-device capacities scale with their node
        let dev_full = sched.capacity(topo.servers[0].nvme_w[0]);
        let dev_half = sched.capacity(topo.servers[1].nvme_w[0]);
        assert!((dev_half - dev_full / 2.0).abs() < 1.0);
        // NICs are unaffected: the mix is about device generations
        assert_eq!(
            sched.capacity(topo.servers[0].nic_tx),
            sched.capacity(topo.servers[1].nic_tx)
        );
    }

    #[test]
    fn distinct_nodes_distinct_resources() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 2).build(&mut sched);
        assert_ne!(topo.servers[0].nic_rx, topo.servers[1].nic_rx);
        assert_ne!(topo.clients[0].nic_tx, topo.clients[1].nic_tx);
        assert_ne!(topo.servers[0].nvme_w[0], topo.servers[0].nvme_r[0]);
    }
}
