//! The benchmark's workloads: which paper scenarios each one runs, at
//! which size, and which layer it is meant to load.

use crate::scenario::Kind;
use benchkit::{FaultedScenario, RunSpec, Scenario};
use cluster::Calibration;
use simkit::SplitMix64;

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// One scenario at one size.
#[derive(Debug, Clone)]
pub struct Run {
    /// Short name used in metric names.
    pub key: &'static str,
    pub kind: Kind,
    pub spec: RunSpec,
}

/// A named set of scenario runs.  One iteration runs each once, in order.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Host seconds of one untraced iteration on the 2-core machine the
    /// baseline in `BASELINE.md` was taken on.
    pub expected_s: f64,
    pub runs: Vec<Run>,
}

/// Keys of the scenarios the benchmark builds itself, in metric order.
pub const BUILT_KEYS: [&str; 8] = [
    "ior_libdaos",
    "ior_dfs",
    "ior_dfuse",
    "ior_dfuse_il",
    "fieldio",
    "fdb_libdaos",
    "fdb_lustre",
    "fdb_librados",
];

/// Keys of the scenarios run through `benchkit::run_faulted_with`.
pub const FAULTED_KEYS: [&str; 2] = ["fieldio_ec2p1_crash", "ior_easy_rp2_crash"];

pub const NAMES: [&str; 5] = [
    "fig1-bulk",
    "fig2-small",
    "scale-128",
    "fdb-stores",
    "rebuild-scrub",
];

/// Seed 0 is the paper calibration, whose digests equal `repro`'s; any
/// other seed perturbs it, giving held-out inputs.
pub fn calibration(seed: u64) -> Calibration {
    let cal = Calibration::default();
    if seed == 0 {
        cal
    } else {
        cal.perturb(&mut SplitMix64::new(seed))
    }
}

fn built(key: &'static str, scen: Scenario, spec: &RunSpec) -> Run {
    Run {
        key,
        kind: Kind::Built(scen),
        spec: spec.clone(),
    }
}

fn faulted(key: &'static str, scen: FaultedScenario, spec: RunSpec) -> Run {
    Run {
        key,
        kind: Kind::Faulted(scen),
        spec,
    }
}

/// `servers` storage servers, `nodes` × `ppn` client processes, `ops`
/// ops per process and phase, `transfer` bytes per op.
fn spec(servers: usize, nodes: usize, ppn: usize, ops: usize, transfer: u64, seed: u64) -> RunSpec {
    let mut s = RunSpec::new(servers, nodes, ppn);
    s.ops_per_proc = ops;
    s.transfer = transfer;
    if seed != 0 {
        s.seed = seed;
    }
    s
}

/// The workload called `name`, with inputs made from `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let w = match name {
        "fig1-bulk" => {
            let s = spec(8, 64, 16, 6, MIB, seed);
            Workload {
                name: "fig1-bulk",
                why: "Fig 1 interfaces (libdaos, DFS, DFUSE+IL) at 1 MiB with 1024 processes: about 1000 concurrent flows, so the engine's max-min re-solve leads host time",
                expected_s: 0.9,
                runs: vec![
                    built("ior_libdaos", Scenario::IorDaos, &s),
                    built("ior_dfs", Scenario::IorDfs, &s),
                    built("ior_dfuse_il", Scenario::IorDfuseIl, &s),
                ],
            }
        }
        "fig2-small" => {
            let s = spec(4, 32, 16, 32, KIB, seed);
            Workload {
                name: "fig2-small",
                why: "Fig 2 IOPS regime, 1 KiB on DFUSE and DFUSE+IL: many tiny ops on a 2 us coalescing quantum load the engine through event rate, not flow count",
                expected_s: 0.8,
                runs: vec![
                    built("ior_dfuse", Scenario::IorDfuse, &s),
                    built("ior_dfuse_il", Scenario::IorDfuseIl, &s),
                ],
            }
        }
        "scale-128" => Workload {
            name: "scale-128",
            why: "IOR on libdaos over a 128-server pool: per-op layout and pool-map cloning in the array path dominate, the engine barely shows",
            expected_s: 1.1,
            runs: vec![built(
                "ior_libdaos",
                Scenario::IorDaos,
                &spec(128, 16, 16, 20, MIB, seed),
            )],
        },
        "fdb-stores" => {
            let s = spec(16, 4, 16, 80, MIB, seed);
            Workload {
                name: "fdb-stores",
                why: "the same fdb-hammer ops on DAOS, Lustre and RADOS plus Field I/O at 16 servers: DAOS KV and array op construction lead host time",
                expected_s: 0.9,
                runs: vec![
                    built("fdb_libdaos", Scenario::FdbDaos, &s),
                    built("fdb_lustre", Scenario::FdbLustre, &s),
                    built("fdb_librados", Scenario::FdbCeph, &s),
                    built("fieldio", Scenario::FieldIo, &s),
                ],
            }
        }
        "rebuild-scrub" => Workload {
            name: "rebuild-scrub",
            why: "server crash with online rebuild, retries and a full background scrub pass beside foreground reads; the only workload that runs the scrubber",
            expected_s: 1.3,
            runs: vec![
                faulted(
                    "fieldio_ec2p1_crash",
                    FaultedScenario::FieldIoFaulted,
                    spec(8, 8, 8, 36, MIB, seed),
                ),
                faulted(
                    "ior_easy_rp2_crash",
                    FaultedScenario::IorEasyRp2,
                    spec(8, 8, 16, 36, MIB, seed),
                ),
            ],
        },
        _ => return None,
    };
    Some(w)
}

/// `--list`: every workload with its scenarios, sizes and expected time.
pub fn render_list() -> String {
    let mut out = String::new();
    for name in NAMES {
        let w = workload(name, 0).expect("listed workloads exist");
        out.push_str(&format!(
            "{}  ~{:.1} s per iteration\n  why: {}\n",
            w.name, w.expected_s, w.why
        ));
        for r in &w.runs {
            let s = &r.spec;
            let (name, scrub) = match r.kind {
                Kind::Built(scen) => (scen.name(), ""),
                Kind::Faulted(scen) => (scen.name(), ", scrub on"),
            };
            out.push_str(&format!(
                "  {:<20} {:<22} {} servers, {}x{} procs, {} ops, {} KiB{}\n",
                r.key,
                name,
                s.servers,
                s.client_nodes,
                s.ppn,
                s.ops_per_proc,
                s.transfer >> 10,
                scrub
            ));
        }
    }
    out
}
