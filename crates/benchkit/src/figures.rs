//! The paper's figures and tables as executable sweep definitions.
//!
//! Each `figN` function reproduces the corresponding figure's data: the
//! same benchmarks, deployment sizes and sweep axes, three repetitions
//! per point, mean ± stddev.  Sweep points run in parallel under rayon
//! (each point is an independent simulated deployment).

use crate::report::REPS;
use crate::scenarios::{run_reps, PointStats, RunSpec, Scenario};
use cluster::microbench;
use cluster::{Calibration, GIB, MIB};
use daos_core::ObjectClass;
use rayon::prelude::*;

/// One rendered data point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Sweep coordinate (processes per node, or server count).
    pub x: f64,
    /// Mean of the plotted metric.
    pub mean: f64,
    /// Standard deviation over repetitions.
    pub std: f64,
}

/// One curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points in x order.
    pub points: Vec<Point>,
}

/// One (sub-)figure: a set of curves with labelled axes.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `fig1a`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

/// Which metric a sweep plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Write bandwidth in GiB/s.
    WriteBw,
    /// Read bandwidth in GiB/s.
    ReadBw,
    /// Write KIOPS.
    WriteIops,
    /// Read KIOPS.
    ReadIops,
}

impl Metric {
    fn label(&self) -> &'static str {
        match self {
            Metric::WriteBw => "Write bandwidth [GiB/s]",
            Metric::ReadBw => "Read bandwidth [GiB/s]",
            Metric::WriteIops => "Write rate [KIOPS]",
            Metric::ReadIops => "Read rate [KIOPS]",
        }
    }

    fn extract(&self, p: &PointStats) -> (f64, f64) {
        match self {
            Metric::WriteBw => (p.write_bw.mean / GIB, p.write_bw.std / GIB),
            Metric::ReadBw => (p.read_bw.mean / GIB, p.read_bw.std / GIB),
            Metric::WriteIops => (p.write_iops.mean / 1e3, p.write_iops.std / 1e3),
            Metric::ReadIops => (p.read_iops.mean / 1e3, p.read_iops.std / 1e3),
        }
    }

    fn short(&self) -> &'static str {
        match self {
            Metric::WriteBw | Metric::WriteIops => "Write",
            Metric::ReadBw | Metric::ReadIops => "Read",
        }
    }
}

/// Client-node counts used as curve families in the optimisation plots.
const NODE_SERIES: [usize; 3] = [4, 16, 32];
/// Processes-per-node sweep (the paper sweeps 1..32 on 32-core VMs).
const PPN_SWEEP: [usize; 5] = [1, 4, 8, 16, 32];

/// A client-shape sweep against a fixed deployment: one `PointStats`
/// per (client nodes, ppn) point, computed once and shared by the
/// write- and read-metric figures.
fn client_sweep(
    scen: Scenario,
    servers: usize,
    cal: &Calibration,
    mutate: impl Fn(&mut RunSpec) + Sync,
) -> Vec<(usize, Vec<(usize, PointStats)>)> {
    NODE_SERIES
        .iter()
        .map(|&nodes| {
            let points: Vec<(usize, PointStats)> = PPN_SWEEP
                .par_iter()
                .map(|&ppn| {
                    let mut spec = RunSpec::new(servers, nodes, ppn);
                    mutate(&mut spec);
                    (ppn, run_reps(&spec, scen, cal, REPS))
                })
                .collect();
            (nodes, points)
        })
        .collect()
}

fn sweep_to_figure(
    sweep: &[(usize, Vec<(usize, PointStats)>)],
    id: &str,
    scen: Scenario,
    servers: usize,
    metric: Metric,
) -> Figure {
    let series = sweep
        .iter()
        .map(|(nodes, points)| Series {
            name: format!("{nodes} client nodes"),
            points: points
                .iter()
                .map(|(ppn, stats)| {
                    let (mean, std) = metric.extract(stats);
                    Point {
                        x: *ppn as f64,
                        mean,
                        std,
                    }
                })
                .collect(),
        })
        .collect();
    Figure {
        id: id.to_string(),
        title: format!(
            "{} — {}, {servers} server nodes",
            scen.name(),
            metric.short()
        ),
        x_label: "processes per client node".into(),
        y_label: metric.label().into(),
        series,
    }
}

/// Build the (write, read) figure pair of one optimisation sweep.
fn opt_pair(
    ids: (&str, &str),
    scen: Scenario,
    servers: usize,
    metrics: (Metric, Metric),
    cal: &Calibration,
    mutate: impl Fn(&mut RunSpec) + Sync,
) -> Vec<Figure> {
    let sweep = client_sweep(scen, servers, cal, mutate);
    vec![
        sweep_to_figure(&sweep, ids.0, scen, servers, metrics.0),
        sweep_to_figure(&sweep, ids.1, scen, servers, metrics.1),
    ]
}

/// §III-A hardware table.
pub fn hardware_table() -> Figure {
    let t = microbench::hardware_table();
    let names = [
        "dd write (16 NVMe)",
        "dd read (16 NVMe)",
        "iperf client→server",
        "iperf server→client",
    ];
    Figure {
        id: "hw".into(),
        title: "Raw hardware bandwidth (§III-A)".into(),
        x_label: "-".into(),
        y_label: "bandwidth [GiB/s]".into(),
        series: names
            .iter()
            .zip(t.iter())
            .map(|(n, m)| Series {
                name: n.to_string(),
                points: vec![Point {
                    x: 0.0,
                    mean: m.bandwidth() / GIB,
                    std: 0.0,
                }],
            })
            .collect(),
    }
}

/// Fig. 1: IOR through the four DAOS APIs, 16 servers, 1 MiB transfers.
pub fn fig1(cal: &Calibration) -> Vec<Figure> {
    let apis = [
        (("fig1a", "fig1b"), Scenario::IorDaos),
        (("fig1c", "fig1d"), Scenario::IorDfs),
        (("fig1e", "fig1f"), Scenario::IorDfuse),
        (("fig1g", "fig1h"), Scenario::IorDfuseIl),
    ];
    apis.iter()
        .flat_map(|(ids, scen)| {
            opt_pair(
                *ids,
                *scen,
                16,
                (Metric::WriteBw, Metric::ReadBw),
                cal,
                |_| {},
            )
        })
        .collect()
}

/// Fig. 2: DFUSE vs DFUSE+IL at 1 KiB, plotted as IOPS.
pub fn fig2(cal: &Calibration) -> Vec<Figure> {
    let cases = [
        (("fig2a", "fig2b"), Scenario::IorDfuse),
        (("fig2c", "fig2d"), Scenario::IorDfuseIl),
    ];
    cases
        .iter()
        .flat_map(|(ids, scen)| {
            opt_pair(
                *ids,
                *scen,
                16,
                (Metric::WriteIops, Metric::ReadIops),
                cal,
                |spec| {
                    spec.transfer = 1 << 10;
                    // small ops are cheap: run more of them per process
                    spec.ops_per_proc = (spec.ops_per_proc * 4).min(1024);
                },
            )
        })
        .collect()
}

/// Fig. 3: the application benchmarks against 16 servers.
pub fn fig3(cal: &Calibration) -> Vec<Figure> {
    let cases = [
        (("fig3a", "fig3b"), Scenario::IorHdf5DfuseIl),
        (("fig3c", "fig3d"), Scenario::IorHdf5Daos),
        (("fig3e", "fig3f"), Scenario::FieldIo),
        (("fig3g", "fig3h"), Scenario::FdbDaos),
    ];
    cases
        .iter()
        .flat_map(|(ids, scen)| {
            opt_pair(
                *ids,
                *scen,
                16,
                (Metric::WriteBw, Metric::ReadBw),
                cal,
                |_| {},
            )
        })
        .collect()
}

/// Fig. 4: IOR/libdaos and IOR-HDF5/libdaos against a 4-server pool.
pub fn fig4(cal: &Calibration) -> Vec<Figure> {
    let cases = [
        (("fig4a", "fig4b"), Scenario::IorDaos),
        (("fig4c", "fig4d"), Scenario::IorHdf5Daos),
    ];
    cases
        .iter()
        .flat_map(|(ids, scen)| {
            opt_pair(
                *ids,
                *scen,
                4,
                (Metric::WriteBw, Metric::ReadBw),
                cal,
                |_| {},
            )
        })
        .collect()
}

/// The scenarios plotted in the scalability figure.
pub const FIG5_SCENARIOS: [Scenario; 8] = [
    Scenario::IorDaos,
    Scenario::IorDfs,
    Scenario::IorDfuse,
    Scenario::IorDfuseIl,
    Scenario::IorHdf5DfuseIl,
    Scenario::IorHdf5Daos,
    Scenario::FieldIo,
    Scenario::FdbDaos,
];

/// Fig. 5: write/read scalability over 2–24 server nodes at the optimal
/// client shape (32 nodes × 16 processes).
pub fn fig5(cal: &Calibration) -> Vec<Figure> {
    let servers = [2usize, 4, 8, 16, 24];
    let sweeps: Vec<(Scenario, Vec<(usize, PointStats)>)> = FIG5_SCENARIOS
        .iter()
        .map(|&scen| {
            let points: Vec<(usize, PointStats)> = servers
                .par_iter()
                .map(|&srv| {
                    let spec = RunSpec::new(srv, 32, 16);
                    (srv, run_reps(&spec, scen, cal, REPS))
                })
                .collect();
            (scen, points)
        })
        .collect();
    [Metric::WriteBw, Metric::ReadBw]
        .iter()
        .enumerate()
        .map(|(i, &metric)| {
            let series: Vec<Series> = sweeps
                .iter()
                .map(|(scen, points)| Series {
                    name: scen.name().to_string(),
                    points: points
                        .iter()
                        .map(|(srv, stats)| {
                            let (mean, std) = metric.extract(stats);
                            Point {
                                x: *srv as f64,
                                mean,
                                std,
                            }
                        })
                        .collect(),
                })
                .collect();
            Figure {
                id: format!("fig5{}", ["a", "b"][i]),
                title: format!("{} scalability over DAOS server nodes", metric.short()),
                x_label: "DAOS server nodes".into(),
                y_label: metric.label().into(),
                series,
            }
        })
        .collect()
}

/// Figure ids of Fig. 6, `(write, read)` for IOR then fdb-hammer.  The
/// RF2 variant has ids of its own, so that its CSVs never overwrite the
/// EC figures the verdicts read.
pub(crate) fn fig6_ids(rf2: bool) -> [(&'static str, &'static str); 2] {
    if rf2 {
        [("fig6-rf2a", "fig6-rf2b"), ("fig6-rf2c", "fig6-rf2d")]
    } else {
        [("fig6a", "fig6b"), ("fig6c", "fig6d")]
    }
}

/// Fig. 6: redundancy — EC 2+1 Arrays/files, RP_2 Key-Values/dirs,
/// 16 servers.  With `rf2` the data class is RP_2 as well (the §III-D
/// replication paragraph).
pub fn fig6(cal: &Calibration, rf2: bool) -> Vec<Figure> {
    let (data_class, label) = if rf2 {
        (ObjectClass::RP_2, "RF2")
    } else {
        (ObjectClass::EC_2P1, "EC 2+1")
    };
    fig6_ids(rf2)
        .into_iter()
        .zip([Scenario::IorDaos, Scenario::FdbDaos])
        .flat_map(|(ids, scen)| {
            opt_pair(
                ids,
                scen,
                16,
                (Metric::WriteBw, Metric::ReadBw),
                cal,
                |spec| {
                    spec.data_class = data_class;
                    spec.meta_class = ObjectClass::RP_2;
                },
            )
        })
        .map(|mut f| {
            f.title = format!("{} ({label})", f.title);
            f
        })
        .collect()
}

/// Fig. 7: fdb-hammer POSIX on the 16+1-node Lustre system.
pub fn fig7(cal: &Calibration) -> Vec<Figure> {
    opt_pair(
        ("fig7a", "fig7b"),
        Scenario::FdbLustre,
        16,
        (Metric::WriteBw, Metric::ReadBw),
        cal,
        |_| {},
    )
}

/// Fig. 8: fdb-hammer on librados against the 16+1-node Ceph system.
pub fn fig8(cal: &Calibration) -> Vec<Figure> {
    opt_pair(
        ("fig8a", "fig8b"),
        Scenario::FdbCeph,
        16,
        (Metric::WriteBw, Metric::ReadBw),
        cal,
        |_| {},
    )
}

/// Fig. 9: fdb-hammer at 32 client nodes against DAOS, Lustre and Ceph.
pub fn fig9(cal: &Calibration) -> Vec<Figure> {
    let stores = [Scenario::FdbDaos, Scenario::FdbLustre, Scenario::FdbCeph];
    let sweeps: Vec<(Scenario, Vec<(usize, PointStats)>)> = stores
        .iter()
        .map(|&scen| {
            let points: Vec<(usize, PointStats)> = PPN_SWEEP
                .par_iter()
                .map(|&ppn| {
                    let spec = RunSpec::new(16, 32, ppn);
                    (ppn, run_reps(&spec, scen, cal, REPS))
                })
                .collect();
            (scen, points)
        })
        .collect();
    [Metric::WriteBw, Metric::ReadBw]
        .iter()
        .enumerate()
        .map(|(i, &metric)| {
            let series: Vec<Series> = sweeps
                .iter()
                .map(|(scen, points)| Series {
                    name: scen.name().to_string(),
                    points: points
                        .iter()
                        .map(|(ppn, stats)| {
                            let (mean, std) = metric.extract(stats);
                            Point {
                                x: *ppn as f64,
                                mean,
                                std,
                            }
                        })
                        .collect(),
                })
                .collect();
            Figure {
                id: format!("fig9{}", ["a", "b"][i]),
                title: format!(
                    "fdb-hammer at 32 client nodes, DAOS vs Lustre vs Ceph — {}",
                    metric.short()
                ),
                x_label: "processes per client node".into(),
                y_label: metric.label().into(),
                series,
            }
        })
        .collect()
}

/// §III-E text result: IOR POSIX on Lustre approaches the hardware
/// optimum for file-per-process I/O.
pub fn ior_lustre_table(cal: &Calibration) -> Figure {
    sweep_table(
        "ior-lustre",
        "IOR POSIX on Lustre (§III-E)",
        Scenario::IorLustre,
        cal,
    )
}

/// §III-F text result: IOR on librados only reaches about half of the
/// DAOS/Lustre bandwidth.
pub fn ior_ceph_table(cal: &Calibration) -> Figure {
    sweep_table(
        "ior-ceph",
        "IOR on librados against Ceph (§III-F)",
        Scenario::IorCeph,
        cal,
    )
}

fn sweep_table(id: &str, title: &str, scen: Scenario, cal: &Calibration) -> Figure {
    let points: Vec<(usize, PointStats)> = PPN_SWEEP
        .par_iter()
        .map(|&ppn| {
            let spec = RunSpec::new(16, 32, ppn);
            (ppn, run_reps(&spec, scen, cal, REPS))
        })
        .collect();
    let write = Series {
        name: "write".into(),
        points: points
            .iter()
            .map(|(ppn, p)| Point {
                x: *ppn as f64,
                mean: p.write_bw.mean / GIB,
                std: p.write_bw.std / GIB,
            })
            .collect(),
    };
    let read = Series {
        name: "read".into(),
        points: points
            .iter()
            .map(|(ppn, p)| Point {
                x: *ppn as f64,
                mean: p.read_bw.mean / GIB,
                std: p.read_bw.std / GIB,
            })
            .collect(),
    };
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: "processes per client node (32 client nodes)".into(),
        y_label: "bandwidth [GiB/s]".into(),
        series: vec![write, read],
    }
}

/// Peak value across a figure's series (used by shape assertions and the
/// experiment log).
pub fn peak(fig: &Figure) -> f64 {
    fig.series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.mean))
        .fold(0.0, f64::max)
}

/// The 1 MiB transfer constant used throughout the evaluation.
pub const TRANSFER_1MIB: f64 = MIB;

/// Ablations of the design choices DESIGN.md calls out.  Each figure
/// compares variants of one knob on the same workload: series =
/// variant, x = 0 for write, x = 1 for read (bandwidth in GiB/s, rate
/// in KIOPS for the FUSE-thread ablation).
pub fn ablations(cal: &Calibration) -> Vec<Figure> {
    fn variant_fig(
        id: &str,
        title: &str,
        y_label: &str,
        variants: Vec<(String, PointStats)>,
        iops: bool,
    ) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: "0 = write, 1 = read".into(),
            y_label: y_label.into(),
            series: variants
                .into_iter()
                .map(|(name, p)| Series {
                    name,
                    points: if iops {
                        vec![
                            Point {
                                x: 0.0,
                                mean: p.write_iops.mean / 1e3,
                                std: p.write_iops.std / 1e3,
                            },
                            Point {
                                x: 1.0,
                                mean: p.read_iops.mean / 1e3,
                                std: p.read_iops.std / 1e3,
                            },
                        ]
                    } else {
                        vec![
                            Point {
                                x: 0.0,
                                mean: p.write_bw.mean / GIB,
                                std: p.write_bw.std / GIB,
                            },
                            Point {
                                x: 1.0,
                                mean: p.read_bw.mean / GIB,
                                std: p.read_bw.std / GIB,
                            },
                        ]
                    },
                })
                .collect(),
        }
    }

    let mut figs = Vec::new();

    // A1: DFUSE thread count at 1 KiB I/O (the dfuse mount option the
    // paper sets to 24)
    let threads: Vec<(String, PointStats)> = [2usize, 8, 24, 48]
        .par_iter()
        .map(|&t| {
            let mut spec = RunSpec::new(8, 8, 16);
            spec.transfer = 1 << 10;
            spec.ops_per_proc = 256;
            spec.fuse_threads = Some(t);
            (
                format!("{t} FUSE threads"),
                run_reps(&spec, Scenario::IorDfuse, cal, REPS),
            )
        })
        .collect();
    figs.push(variant_fig(
        "abl-fuse-threads",
        "Ablation: DFUSE thread count, IOR 1 KiB",
        "rate [KIOPS]",
        threads,
        true,
    ));

    // A2: DFUSE client caching (disabled in every paper run)
    let caching: Vec<(String, PointStats)> = [false, true]
        .par_iter()
        .map(|&on| {
            let mut spec = RunSpec::new(8, 8, 16);
            spec.ops_per_proc = 48;
            spec.dfuse_caching = on;
            (
                if on {
                    "caching on".into()
                } else {
                    "caching off".into()
                },
                run_reps(&spec, Scenario::IorDfuse, cal, REPS),
            )
        })
        .collect();
    figs.push(variant_fig(
        "abl-dfuse-caching",
        "Ablation: DFUSE client caching, IOR 1 MiB (read re-hits the writer's cache)",
        "bandwidth [GiB/s]",
        caching,
        false,
    ));

    // A3: object class S1 vs SX for IOR Arrays (the paper found SX best)
    let classes: Vec<(String, PointStats)> =
        [ObjectClass::S1, ObjectClass::Sharded(4), ObjectClass::SX]
            .par_iter()
            .map(|&c| {
                let mut spec = RunSpec::new(8, 8, 16);
                spec.ops_per_proc = 48;
                spec.data_class = c;
                (
                    format!("{c}"),
                    run_reps(&spec, Scenario::IorDaos, cal, REPS),
                )
            })
            .collect();
    figs.push(variant_fig(
        "abl-object-class",
        "Ablation: Array object class, IOR on libdaos",
        "bandwidth [GiB/s]",
        classes,
        false,
    ));

    // A4: Ceph placement-group count (the paper tuned to 1024)
    let pgs: Vec<(String, PointStats)> = [32usize, 128, 1024, 4096]
        .par_iter()
        .map(|&pg| {
            let mut spec = RunSpec::new(8, 8, 16);
            spec.ops_per_proc = 48;
            spec.pg_num = pg;
            (
                format!("{pg} PGs"),
                run_reps(&spec, Scenario::FdbCeph, cal, REPS),
            )
        })
        .collect();
    figs.push(variant_fig(
        "abl-ceph-pgs",
        "Ablation: Ceph placement groups, fdb-hammer on librados",
        "bandwidth [GiB/s]",
        pgs,
        false,
    ));

    // A5: redundancy ladder none / EC 2+1 / RF2 on one workload
    let ladder: Vec<(String, PointStats)> = [
        ("none (SX)", ObjectClass::SX),
        ("EC_2P1", ObjectClass::EC_2P1),
        ("RP_2", ObjectClass::RP_2),
    ]
    .par_iter()
    .map(|(name, c)| {
        let mut spec = RunSpec::new(8, 8, 16);
        spec.ops_per_proc = 48;
        spec.data_class = *c;
        spec.meta_class = ObjectClass::RP_2;
        (
            name.to_string(),
            run_reps(&spec, Scenario::IorDaos, cal, REPS),
        )
    })
    .collect();
    figs.push(variant_fig(
        "abl-redundancy",
        "Ablation: redundancy ladder, IOR on libdaos",
        "bandwidth [GiB/s]",
        ladder,
        false,
    ));

    // A6: client queue depth — what the libdaos event-queue API buys a
    // single writer process (the paper's runs are synchronous, QD 1)
    let qds: Vec<(String, PointStats)> = [1usize, 2, 4, 16]
        .par_iter()
        .map(|&qd| {
            let mut spec = RunSpec::new(8, 2, 2);
            spec.ops_per_proc = 96;
            spec.queue_depth = qd;
            (
                format!("QD {qd}"),
                run_reps(&spec, Scenario::IorDaos, cal, REPS),
            )
        })
        .collect();
    figs.push(variant_fig(
        "abl-queue-depth",
        "Ablation: client queue depth, 4 IOR processes on libdaos",
        "bandwidth [GiB/s]",
        qds,
        false,
    ));

    // A7: Field I/O's per-read size check (the Field-I/O-vs-fdb-hammer
    // difference the paper discusses)
    let checks: Vec<(String, PointStats)> = [true, false]
        .par_iter()
        .map(|&on| {
            let mut spec = RunSpec::new(8, 8, 16);
            spec.ops_per_proc = 48;
            spec.fieldio_size_check = on;
            (
                if on {
                    "size check (Field I/O)".into()
                } else {
                    "no check (fdb-style)".into()
                },
                run_reps(&spec, Scenario::FieldIo, cal, REPS),
            )
        })
        .collect();
    figs.push(variant_fig(
        "abl-size-check",
        "Ablation: per-read size check in Field I/O",
        "bandwidth [GiB/s]",
        checks,
        false,
    ));

    figs
}

/// C4 metadata claim: mdtest (the IO500 metadata workload the paper
/// cites) on DFUSE-over-DAOS vs Lustre, same hardware.  Series =
/// store, x = phase (0 create, 1 stat, 2 remove), y = KIOPS.
pub fn mdtest_table(cal: &Calibration) -> Figure {
    use crate::scenarios::{run_mdtest, MdStore};
    let mut spec = RunSpec::new(16, 16, 16);
    spec.ops_per_proc = 48;
    let series: Vec<Series> = [
        (MdStore::Dfuse, "DFUSE (DAOS)"),
        (MdStore::Lustre, "Lustre"),
    ]
    .par_iter()
    .map(|&(store, name)| {
        let phases = run_mdtest(&spec, store, cal);
        Series {
            name: name.to_string(),
            points: phases
                .iter()
                .enumerate()
                .map(|(i, p)| Point {
                    x: i as f64,
                    mean: p.iops() / 1e3,
                    std: 0.0,
                })
                .collect(),
        }
    })
    .collect();
    Figure {
        id: "mdtest".into(),
        title: "mdtest metadata rates — DAOS vs Lustre (conclusion C4)".into(),
        x_label: "phase: 0 = create, 1 = stat, 2 = remove".into(),
        y_label: "rate [KIOPS]".into(),
        series,
    }
}
