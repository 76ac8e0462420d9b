//! Scale-out sweeps: delivered bandwidth versus server count, and the
//! paper's **+3.86 GiB/s per added server** claim.
//!
//! §III-A of the paper measures each storage server's local NVMe at
//! 3.86 GiB/s sustained write bandwidth, and the scaling experiments
//! hinge on aggregate IOR write bandwidth growing by about that much for
//! every server added.  This module reruns that ladder on the simulated
//! deployment: a geometric rung sweep (4 → 256 servers by default),
//! clients scaled with servers so the client side never bottlenecks,
//! and an optionally **heterogeneous** fleet (a repeating cycle of
//! per-server NVMe speed factors modelling mixed device generations).
//!
//! Every rung runs **twice from fresh state** and the two replay
//! digests must be byte-identical — the same determinism bar as the
//! chaos families.  The fitted least-squares slope of bandwidth over
//! server count is compared against `min(speed cycle) × 3.86 GiB/s` —
//! uniform placement spreads data evenly, so the slowest device
//! generation paces time-to-last-byte — with an EXPERIMENTS.md-style
//! shape verdict ([`Verdict`]).

use crate::driver::run_phase;
use crate::scenarios::{exec, make_sched, RunSpec};
use crate::verdict::Verdict;
use cluster::{Calibration, ClusterSpec, GIB};
use daos_core::{ContainerProps, DaosSystem, DataMode, ObjectClass};
use ior_bench::{Ior, IorBackend, IorConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of a scale-out sweep.
#[derive(Debug, Clone)]
pub struct ScaleoutConfig {
    /// Server counts to run, in order (the ladder).
    pub rungs: Vec<usize>,
    /// Client nodes per rung = `servers` (each client NIC carries
    /// 6.25 GiB/s against 3.86 GiB/s of server NVMe, so matching counts
    /// keeps the server side the bottleneck).
    /// Processes per client node.
    pub ppn: usize,
    /// Write ops per process.
    pub ops_per_proc: usize,
    /// Transfer size per op in bytes.
    pub transfer: u64,
    /// In-flight ops per process (saturation without a paper-scale
    /// process count).
    pub queue_depth: usize,
    /// Per-server NVMe speed factors, applied cyclically by rank —
    /// `[1.0]` is a homogeneous fleet.  The claim's expected slope
    /// scales by the cycle minimum (the slowest generation paces
    /// time-to-last-byte under uniform placement).
    pub speed_cycle: Vec<f64>,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        ScaleoutConfig {
            rungs: vec![4, 8, 16, 32, 64, 128, 256],
            ppn: 16,
            ops_per_proc: 16,
            transfer: 4 << 20,
            queue_depth: 2,
            // mixed device generations averaging to the calibrated speed
            speed_cycle: vec![1.0, 0.85, 1.15, 1.0],
        }
    }
}

/// One rung of the ladder.
#[derive(Debug, Clone)]
pub struct ScaleoutRung {
    /// Deployed servers.
    pub servers: usize,
    /// Client nodes.
    pub clients: usize,
    /// Delivered write bandwidth, GiB/s (first run).
    pub write_bw_gib: f64,
    /// Bandwidth per server at this rung.
    pub per_server_gib: f64,
    /// Replay digest of the first run.
    pub digest: u64,
    /// Both runs produced byte-identical digests and bandwidths.
    pub deterministic: bool,
}

/// The sweep's result: rungs, fitted slope, and the claim verdicts.
#[derive(Debug, Clone)]
pub struct ScaleoutReport {
    /// One entry per rung, in ladder order.
    pub rungs: Vec<ScaleoutRung>,
    /// Least-squares slope of bandwidth over server count, GiB/s per
    /// added server.
    pub slope_gib_per_server: f64,
    /// The claim's slope for this fleet: `min(speed_cycle) × 3.86`.
    pub expected_slope: f64,
    /// Shape verdicts (scaling linearity, slope band, determinism).
    pub verdicts: Vec<Verdict>,
}

impl ScaleoutReport {
    /// Every verdict green.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Aligned text table plus the verdict lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>12} {:>12} {:>7}  digest",
            "servers", "clients", "GiB/s", "GiB/s/srv", "replay"
        );
        for r in &self.rungs {
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>12.2} {:>12.2} {:>7} {:#018x}",
                r.servers,
                r.clients,
                r.write_bw_gib,
                r.per_server_gib,
                if r.deterministic { "ok" } else { "DIVERGE" },
                r.digest
            );
        }
        let _ = writeln!(
            out,
            "slope {:.2} GiB/s per server (claim {:.2})",
            self.slope_gib_per_server, self.expected_slope
        );
        out.push_str(&crate::verdict::render(&self.verdicts));
        out
    }

    /// The machine-readable artifact CI commits: rungs, slope, claim
    /// band and per-verdict results (hand-rolled JSON, stable field
    /// order).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"claim\": \"+3.86 GiB/s per added server\",\n");
        s.push_str(&format!(
            "  \"slope_gib_per_server\": {:.4},\n  \"expected_slope\": {:.4},\n  \"pass\": {},\n",
            self.slope_gib_per_server,
            self.expected_slope,
            self.passed()
        ));
        s.push_str("  \"rungs\": [\n");
        for (i, r) in self.rungs.iter().enumerate() {
            s.push_str(&format!(
                concat!(
                    "    {{\"servers\": {}, \"clients\": {}, \"write_bw_gib\": {:.4}, ",
                    "\"per_server_gib\": {:.4}, \"digest\": \"{:#018x}\", ",
                    "\"deterministic\": {}}}{}\n"
                ),
                r.servers,
                r.clients,
                r.write_bw_gib,
                r.per_server_gib,
                r.digest,
                r.deterministic,
                if i + 1 < self.rungs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"verdicts\": [\n");
        for (i, v) in self.verdicts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"claim\": \"{}\", \"pass\": {}, \"evidence\": \"{}\"}}{}\n",
                v.claim,
                v.pass,
                v.evidence,
                if i + 1 < self.verdicts.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// One measured run at `servers` servers: write-phase IOR over a fleet
/// with the cyclic speed mix, returning (bandwidth GiB/s, digest).
fn run_rung(cfg: &ScaleoutConfig, cal: &Calibration, servers: usize) -> (f64, u64) {
    let clients = servers;
    let mut spec = RunSpec::new(servers, clients, cfg.ppn);
    spec.ops_per_proc = cfg.ops_per_proc;
    spec.transfer = cfg.transfer;
    spec.queue_depth = cfg.queue_depth;
    let mut sched = make_sched(&spec, false);
    let speeds: Vec<f64> = (0..servers)
        .map(|s| cfg.speed_cycle[s % cfg.speed_cycle.len()])
        .collect();
    let topo = ClusterSpec::new(servers, clients)
        .with_cal(cal.clone())
        .with_server_speeds(speeds)
        .build(&mut sched);
    let mut daos_sys = DaosSystem::deploy(&topo, &mut sched, servers, DataMode::Sized);
    let (cid, s) = daos_sys.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos_sys));
    let mut ior_cfg = IorConfig::new(spec.procs(), clients, cfg.ops_per_proc);
    ior_cfg.transfer_size = cfg.transfer;
    ior_cfg.queue_depth = spec.queue_depth;
    let backend = IorBackend::Daos {
        daos: daos.clone(),
        cid,
        // each file shards over one server's worth of targets; the
        // placement hash spreads files across the fleet
        oclass: ObjectClass::Sharded(cal.targets_per_server as u16),
    };
    let mut ior = Ior::new(ior_cfg, backend);
    let write = run_phase(&mut sched, &mut ior);
    (write.bandwidth() / GIB, sched.digest())
}

/// Least-squares slope of `y` over `x`.
fn ls_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let num: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let den: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    num / den.max(1e-9)
}

/// Run the ladder under `cfg`: every rung twice from fresh state
/// (byte-identical digests required), then fit the slope and evaluate
/// the claim verdicts.
pub fn run_scaleout_with(cfg: &ScaleoutConfig, cal: &Calibration) -> ScaleoutReport {
    let mut rungs = Vec::with_capacity(cfg.rungs.len());
    for &servers in &cfg.rungs {
        let (bw_a, digest_a) = run_rung(cfg, cal, servers);
        let (bw_b, digest_b) = run_rung(cfg, cal, servers);
        rungs.push(ScaleoutRung {
            servers,
            clients: servers,
            write_bw_gib: bw_a,
            per_server_gib: bw_a / servers as f64,
            digest: digest_a,
            deterministic: digest_a == digest_b && bw_a == bw_b,
        });
    }
    let points: Vec<(f64, f64)> = rungs
        .iter()
        .map(|r| (r.servers as f64, r.write_bw_gib))
        .collect();
    let slope = ls_slope(&points);
    // uniform random placement spreads data evenly, so time-to-last-byte
    // is paced by the slowest device generation in the cycle
    let min_speed = cfg.speed_cycle.iter().copied().fold(f64::MAX, f64::min);
    let expected = min_speed * cal.server_nvme_write_bw.get() / GIB;

    let mut verdicts = Vec::new();
    // shape: every doubling of servers lands close to doubled bandwidth
    let mut worst_ratio = f64::MAX;
    let mut best_ratio = 0.0f64;
    for w in rungs.windows(2) {
        let growth = w[1].servers as f64 / w[0].servers as f64;
        let ratio = w[1].write_bw_gib / w[0].write_bw_gib.max(1e-9) / growth;
        worst_ratio = worst_ratio.min(ratio);
        best_ratio = best_ratio.max(ratio);
    }
    verdicts.push(Verdict {
        claim: "scaleout-linear".into(),
        expectation: "bandwidth grows ~linearly with server count".into(),
        pass: rungs.len() < 2 || (worst_ratio > 0.8 && best_ratio < 1.2),
        evidence: format!("per-doubling efficiency {worst_ratio:.2}..{best_ratio:.2}"),
    });
    // the NVMe rate is the ideal; random placement leaves some straggler
    // skew in time-to-last-byte, so the band admits up to 25% shortfall
    verdicts.push(Verdict {
        claim: "scaleout-slope".into(),
        expectation: format!("+{expected:.2} GiB/s per added server (§III-A NVMe rate)"),
        pass: slope > expected * 0.75 && slope < expected * 1.05,
        evidence: format!("fitted slope {slope:.2} GiB/s/server"),
    });
    verdicts.push(Verdict {
        claim: "scaleout-replay".into(),
        expectation: "every rung replays byte-identically".into(),
        pass: rungs.iter().all(|r| r.deterministic),
        evidence: format!(
            "{}/{} rungs deterministic",
            rungs.iter().filter(|r| r.deterministic).count(),
            rungs.len()
        ),
    });

    ScaleoutReport {
        rungs,
        slope_gib_per_server: slope,
        expected_slope: expected,
        verdicts,
    }
}

/// Run the default 4 → 256 ladder.
pub fn run_scaleout(cal: &Calibration) -> ScaleoutReport {
    run_scaleout_with(&ScaleoutConfig::default(), cal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short homogeneous ladder: slope lands inside the claim band
    /// and every rung replays identically.
    #[test]
    fn short_ladder_tracks_the_claim_slope() {
        let cfg = ScaleoutConfig {
            rungs: vec![4, 8, 16],
            speed_cycle: vec![1.0],
            ..ScaleoutConfig::default()
        };
        let report = run_scaleout_with(&cfg, &Calibration::default());
        assert_eq!(report.rungs.len(), 3);
        assert!(
            report.passed(),
            "short ladder verdicts:\n{}",
            report.render()
        );
    }

    /// A heterogeneous mix scales the expected slope by the cycle
    /// minimum.
    #[test]
    fn hetero_cycle_scales_expected_slope() {
        let cfg = ScaleoutConfig {
            rungs: vec![4, 8],
            speed_cycle: vec![0.5],
            ..ScaleoutConfig::default()
        };
        let report = run_scaleout_with(&cfg, &Calibration::default());
        let full = 3.86;
        assert!((report.expected_slope - 0.5 * full).abs() < 0.01);
    }

    #[test]
    fn json_artifact_has_stable_shape() {
        let cfg = ScaleoutConfig {
            rungs: vec![4],
            ..ScaleoutConfig::default()
        };
        let report = run_scaleout_with(&cfg, &Calibration::default());
        let json = report.render_json();
        let doc = simkit::json::parse(&json).expect("artifact parses");
        assert!(doc.get("slope_gib_per_server").is_some());
        assert!(doc.get("rungs").and_then(|r| r.as_arr()).is_some());
        assert_eq!(doc.get("rungs").unwrap().as_arr().unwrap().len(), 1);
    }
}
