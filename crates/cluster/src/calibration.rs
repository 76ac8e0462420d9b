//! Calibration constants for the simulated test system.
//!
//! Every tunable in the reproduction lives here, with its provenance.
//! Hardware numbers come straight from the paper (§II-B, §III-A); software
//! service rates and per-op overheads are calibrated so that the simulated
//! benchmarks land in the bandwidth regimes the paper reports, while all
//! *trends* (who saturates what, where scaling breaks) emerge from the
//! modelled mechanisms rather than from per-figure constants.

use crate::units::{Bytes, Rate, GIB, KIB, MIB};
use simkit::SimTime;

/// All model constants.  `Calibration::default()` is the paper's test
/// system; experiments that probe a knob (FUSE threads, PG count, …)
/// clone and modify it.
#[derive(Debug, Clone)]
pub struct Calibration {
    // ----- hardware (paper §II-B and §III-A) -----------------------------
    /// NVMe devices per server node (16 logical devices).
    pub nvme_devs_per_server: usize,
    /// Aggregate measured write bandwidth of one server's NVMe (3.86 GiB/s,
    /// §III-A `dd` measurement), divided evenly across devices at build
    /// time.
    pub server_nvme_write_bw: Rate,
    /// Aggregate measured read bandwidth of one server's NVMe (7 GiB/s).
    pub server_nvme_read_bw: Rate,
    /// Short-burst headroom of a single device over its sustained share
    /// of the node aggregate.  Server-side buffering (the WAL) and
    /// device-internal parallelism let one device absorb more than
    /// `aggregate/16` while the node-level pool enforces the measured
    /// aggregate; without this, queue-depth-1 workloads idle devices
    /// whenever placement is momentarily imbalanced and the whole model
    /// undershoots the paper's near-optimal utilisation.
    pub nvme_dev_burst: f64,
    /// Device access latency added per bulk I/O request (write).
    pub nvme_write_lat_ns: SimTime,
    /// Latency of small writes, which DAOS absorbs in its write-ahead
    /// log (kept in DRAM on these VMs, §II-B).
    pub small_write_lat_ns: SimTime,
    /// Requests at or above this size pay the bulk device latency.
    pub bulk_io_threshold: Bytes,
    /// Device access latency added per I/O request (read).
    pub nvme_read_lat_ns: SimTime,
    /// NIC bandwidth per node and direction (50 Gbps = 6.25 GiB/s,
    /// confirmed by the paper's iperf measurement).
    pub nic_bw: Rate,
    /// Network round-trip latency between a client and a server process.
    pub net_rtt_ns: SimTime,

    // ----- DAOS server ----------------------------------------------------
    /// DAOS targets per engine (one per NVMe device in the paper).
    pub targets_per_server: usize,
    /// Request-processing capacity of one target (ops/s).  Shapes the
    /// small-I/O (1 KiB) IOPS ceilings in Fig. 2.
    pub target_svc_iops: f64,
    /// Per-engine RPC/data processing bandwidth (bytes/s through an
    /// engine, both directions).  Slightly below the NIC: this is why the
    /// paper reads ~90 GiB/s from 16 servers instead of the 100 GiB/s
    /// network bound.
    pub engine_xfer_bw: Rate,
    /// Capacity of the pool's metadata/container service replica group
    /// (ops/s).  This group does **not** grow with the server count —
    /// the mechanism behind the HDF5-on-libdaos scaling collapse the
    /// paper attributes to container-per-process (§III-B, Fig. 4/5).
    pub pool_md_iops: f64,
    /// Per-server cost of a collective container create/open, ns.
    pub cont_collective_ns_per_server: SimTime,

    // ----- DAOS client ----------------------------------------------------
    /// Client-side software overhead per libdaos operation.
    pub libdaos_op_ns: SimTime,
    /// Additional client-side overhead per libdfs operation (namespace
    /// logic on top of libdaos).
    pub dfs_op_ns: SimTime,
    /// Client-side overhead per intercepted (IL) read/write.
    pub il_op_ns: SimTime,
    /// Client-side erasure-code encode throughput (bytes/s per process).
    pub ec_encode_bw: Rate,
    /// Bytes carried by a typical Key-Value index entry.
    pub kv_entry_bytes: Bytes,

    // ----- DFUSE ----------------------------------------------------------
    /// Application-visible latency of one FUSE round trip
    /// (syscall → kernel → user-space daemon → back).
    pub fuse_crossing_ns: SimTime,
    /// FUSE daemon threads per mount (paper used 24).
    pub fuse_threads: usize,
    /// Event-queue threads per mount (paper used 12).
    pub fuse_eq_threads: usize,
    /// Requests/s one FUSE daemon thread can shepherd (kernel queue
    /// handling, context switches).  The node-level request pump
    /// capacity is `fuse_threads × this`, and it is what separates
    /// DFUSE from DFUSE+IL at 1 KiB (Fig. 2).
    pub fuse_thread_iops: f64,
    /// Kernel↔user data copy bandwidth per client node through the FUSE
    /// mount (bytes/s).
    pub fuse_copy_bw: Rate,
    /// Largest single FUSE request; larger application I/O fragments.
    pub fuse_max_req_bytes: Bytes,

    // ----- Lustre ----------------------------------------------------------
    /// Metadata service capacity (ops/s) of the single MDS node.  Caps
    /// fdb-hammer read on Lustre (Fig. 7): every field retrieval opens
    /// and closes files.
    pub mds_iops: f64,
    /// OSTs per OSS node (16, one per NVMe device).
    pub osts_per_server: usize,
    /// Request-processing capacity of one OST (ops/s).
    pub ost_svc_iops: f64,
    /// Client-side overhead per Lustre POSIX call (kernel fs client).
    pub lustre_op_ns: SimTime,
    /// Extra round trips to acquire an extent lock on first access of a
    /// stripe by a client.
    pub lustre_lock_rtts: u32,

    // ----- Ceph -------------------------------------------------------------
    /// OSDs per node (16, one per NVMe device).
    pub osds_per_server: usize,
    /// Write amplification of the OSD WAL/journal on the device.
    pub osd_wal_factor: f64,
    /// Request-processing capacity of one OSD (ops/s).
    pub osd_svc_iops: f64,
    /// Per-OSD read-path processing bandwidth (crc, messenger copies).
    pub osd_read_bw: Rate,
    /// Per-OSD write-path processing bandwidth.
    pub osd_write_bw: Rate,
    /// Client-side overhead per librados operation.
    pub rados_op_ns: SimTime,
    /// Recommended maximum RADOS object size (132 MiB in the paper);
    /// larger writes are rejected by the simulated cluster too.
    pub rados_max_object_bytes: Bytes,

    // ----- applications -----------------------------------------------------
    /// Per-client-node throughput ceiling of the HDF5 library itself
    /// (bytes/s): internal locking and buffer management serialise the
    /// many-process-per-node runs.  This phenomenological knob reproduces
    /// the paper's observation that HDF5 tops out at roughly half the
    /// IOR bandwidth regardless of how many servers are added (Fig. 3
    /// a/b, Fig. 5); it applies to every HDF5 driver (DFUSE+IL and the
    /// DAOS VOL), while the VOL's container-per-process metadata ceiling
    /// (`pool_md_iops`) additionally caps the libdaos flavour.
    pub hdf5_client_bw: Rate,
    /// HDF5: small metadata I/Os issued alongside each dataset write on
    /// the POSIX VFD.
    pub hdf5_md_ops_per_write: u32,
    /// HDF5: size of one metadata I/O.
    pub hdf5_md_bytes: Bytes,
    /// HDF5 POSIX VFD fragments data I/O into pieces of at most this size
    /// (chunked layout), multiplying FUSE request counts.
    pub hdf5_fragment_bytes: Bytes,
    /// FDB POSIX backend: writers buffer this much data client-side and
    /// flush in one large sequential write.
    pub fdb_flush_bytes: Bytes,
    /// Key-Value index operations per field archived/retrieved
    /// (paper: "an average of 10 Key-Value operations ... for each of the
    /// 10k objects").
    pub kv_ops_per_field: u32,

    // ----- statistics --------------------------------------------------------
    /// Per-op multiplicative jitter amplitude on client overheads; gives
    /// the three repetitions a realistic non-zero standard deviation.
    pub jitter_amp: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            // hardware — measured values from §III-A
            nvme_devs_per_server: 16,
            server_nvme_write_bw: Rate(3.86 * GIB),
            server_nvme_read_bw: Rate(7.0 * GIB),
            nvme_dev_burst: 2.0,
            nvme_write_lat_ns: SimTime::from_micros(80),
            small_write_lat_ns: SimTime::from_micros(10),
            bulk_io_threshold: Bytes(64.0 * KIB),
            nvme_read_lat_ns: SimTime::from_micros(100),
            nic_bw: Rate(6.25 * GIB),
            net_rtt_ns: SimTime::from_micros(30),

            // DAOS server
            targets_per_server: 16,
            target_svc_iops: 60_000.0,
            engine_xfer_bw: Rate(5.75 * GIB),
            pool_md_iops: 16_000.0,
            cont_collective_ns_per_server: SimTime::from_micros(10),

            // DAOS client
            libdaos_op_ns: SimTime::from_micros(5),
            dfs_op_ns: SimTime::from_micros(3),
            il_op_ns: SimTime::from_micros(7),
            ec_encode_bw: Rate(8.0 * GIB),
            kv_entry_bytes: Bytes(512.0),

            // DFUSE
            fuse_crossing_ns: SimTime::from_micros(70),
            fuse_threads: 24,
            fuse_eq_threads: 12,
            fuse_thread_iops: 1_200.0,
            fuse_copy_bw: Rate(4.5 * GIB),
            fuse_max_req_bytes: Bytes(1.0 * MIB),

            // Lustre
            mds_iops: 180_000.0,
            osts_per_server: 16,
            ost_svc_iops: 30_000.0,
            lustre_op_ns: SimTime::from_micros(12),
            lustre_lock_rtts: 1,

            // Ceph
            osds_per_server: 16,
            osd_wal_factor: 1.55,
            osd_svc_iops: 25_000.0,
            osd_read_bw: Rate(430.0 * MIB),
            osd_write_bw: Rate(400.0 * MIB),
            rados_op_ns: SimTime::from_micros(10),
            rados_max_object_bytes: Bytes(132.0 * MIB),

            // applications
            hdf5_client_bw: Rate(1.15 * GIB),
            hdf5_md_ops_per_write: 2,
            hdf5_md_bytes: Bytes(4.0 * KIB),
            hdf5_fragment_bytes: Bytes(256.0 * KIB),
            fdb_flush_bytes: Bytes(64.0 * MIB),
            kv_ops_per_field: 10,

            jitter_amp: 0.04,
        }
    }
}

impl Calibration {
    /// Write bandwidth of a single NVMe device.
    pub fn nvme_dev_write_bw(&self) -> Rate {
        self.server_nvme_write_bw / self.nvme_devs_per_server as f64
    }

    /// Read bandwidth of a single NVMe device.
    pub fn nvme_dev_read_bw(&self) -> Rate {
        self.server_nvme_read_bw / self.nvme_devs_per_server as f64
    }

    /// Ideal aggregate write bandwidth of `n` servers (the paper's
    /// "calculated optimum": SSD-bound).
    pub fn ideal_write_bw(&self, servers: usize) -> Rate {
        self.server_nvme_write_bw * servers as f64
    }

    /// Ideal aggregate read bandwidth of `n` servers (network-bound per
    /// §III-A: 6.25 GiB/s per server).
    pub fn ideal_read_bw(&self, servers: usize) -> Rate {
        self.nic_bw.min(self.server_nvme_read_bw) * servers as f64
    }

    /// A slightly perturbed copy of the calibration, modelling run-to-run
    /// variability of a real deployment (thermal/placement/noisy
    /// neighbours).  Used to give the three benchmark repetitions a
    /// realistic non-zero standard deviation without breaking the
    /// lock-step symmetry within one run.
    pub fn perturb(&self, rng: &mut simkit::SplitMix64) -> Calibration {
        let amp = self.jitter_amp;
        let mut c = self.clone();
        c.server_nvme_write_bw *= rng.jitter(amp * 0.5);
        c.server_nvme_read_bw *= rng.jitter(amp * 0.5);
        c.engine_xfer_bw *= rng.jitter(amp * 0.5);
        c.nic_bw *= rng.jitter(amp * 0.25);
        c.target_svc_iops *= rng.jitter(amp);
        c.pool_md_iops *= rng.jitter(amp);
        c.mds_iops *= rng.jitter(amp);
        c.ost_svc_iops *= rng.jitter(amp);
        c.osd_svc_iops *= rng.jitter(amp);
        c.osd_read_bw *= rng.jitter(amp);
        c.osd_write_bw *= rng.jitter(amp);
        c.fuse_thread_iops *= rng.jitter(amp);
        c.fuse_copy_bw *= rng.jitter(amp);
        c.hdf5_client_bw *= rng.jitter(amp);
        c.libdaos_op_ns = c.libdaos_op_ns.scale(rng.jitter(amp));
        c.fuse_crossing_ns = c.fuse_crossing_ns.scale(rng.jitter(amp));
        c.net_rtt_ns = c.net_rtt_ns.scale(rng.jitter(amp));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hardware_numbers() {
        let c = Calibration::default();
        // §III-A: 3.86 GiB/s write, 7 GiB/s read per server; 16 devices.
        assert!(((c.nvme_dev_write_bw() * 16.0).get() - 3.86 * GIB).abs() < 1.0);
        assert!(((c.nvme_dev_read_bw() * 16.0).get() - 7.0 * GIB).abs() < 1.0);
        // §III-B: calculated optimum for 16 servers.
        assert!((c.ideal_write_bw(16).get() / GIB - 61.76).abs() < 0.01);
        assert!((c.ideal_read_bw(16).get() / GIB - 100.0).abs() < 0.01);
    }

    #[test]
    fn engine_bandwidth_between_ssd_write_and_nic() {
        let c = Calibration::default();
        assert!(c.engine_xfer_bw > c.server_nvme_write_bw);
        assert!(c.engine_xfer_bw < c.nic_bw);
    }
}
