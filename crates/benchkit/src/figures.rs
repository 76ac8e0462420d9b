//! The paper's figures and tables as executable sweep definitions.
//!
//! Each `figN` function reproduces the corresponding figure's data: the
//! same benchmarks, deployment sizes and sweep axes, three repetitions
//! per point, mean ± stddev.  A figure function only lists its run
//! points and the cells that read them.  One `Sweep` per target runs
//! every point once through [`par_map`], on every core (each point is an
//! independent simulated deployment, and results are placed by index),
//! and then fills in all of the target's figures.

use crate::par::par_map;
use crate::report::REPS;
use crate::scenarios::{run_reps, PointStats, RunSpec, Scenario};
use cluster::microbench;
use cluster::{Calibration, GIB, MIB};
use daos_core::ObjectClass;

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
/// The (write, read) bandwidth metrics of most figure pairs.
const BW: [Metric; 2] = [Metric::WriteBw, Metric::ReadBw];

/// One plotted value: `metric` of run point `point`, at `x` on the curve
/// named `series`.
struct Cell {
    series: String,
    x: f64,
    point: usize,
    metric: Metric,
}

/// A target's run points, each a `(RunSpec, Scenario)`, and the figures
/// whose cells read them.  A point runs once however many cells read it.
#[derive(Default)]
struct Sweep {
    points: Vec<(RunSpec, Scenario)>,
    figures: Vec<(Figure, Vec<Cell>)>,
}

impl Sweep {
    /// Add a run point; returns its index.
    fn point(&mut self, spec: RunSpec, scen: Scenario) -> usize {
        self.points.push((spec, scen));
        self.points.len() - 1
    }

    /// Add a figure.  Consecutive cells with the same series name form
    /// one curve, in cell order.
    fn figure(&mut self, id: &str, title: String, x_label: &str, y_label: &str, cells: Vec<Cell>) {
        let fig = Figure {
            id: id.into(),
            title,
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        };
        self.figures.push((fig, cells));
    }

    /// The figure pair `ids`, one per metric, over the same curves of
    /// `(series, x, point)`.
    fn pair(
        &mut self,
        ids: [&str; 2],
        metrics: [Metric; 2],
        title: impl Fn(Metric) -> String,
        x_label: &str,
        curves: &[(String, f64, usize)],
    ) {
        for (id, metric) in ids.into_iter().zip(metrics) {
            let cells = curves
                .iter()
                .map(|(series, x, point)| Cell {
                    series: series.clone(),
                    x: *x,
                    point: *point,
                    metric,
                })
                .collect();
            self.figure(id, title(metric), x_label, metric.label(), cells);
        }
    }

    /// One ablation figure of `scen`: a curve per named variant, x = 0
    /// for `metrics[0]` (write) and 1 for `metrics[1]` (read).
    fn variants(
        &mut self,
        id: &str,
        title: &str,
        y_label: &str,
        metrics: [Metric; 2],
        scen: Scenario,
        variants: impl IntoIterator<Item = (String, RunSpec)>,
    ) {
        let mut cells = Vec::new();
        for (name, spec) in variants {
            let point = self.point(spec, scen);
            for (x, metric) in metrics.into_iter().enumerate() {
                let series = name.clone();
                cells.push(Cell {
                    series,
                    x: x as f64,
                    point,
                    metric,
                });
            }
        }
        let x_label = "0 = write, 1 = read";
        self.figure(id, title.into(), x_label, y_label, cells);
    }

    /// Run every point once, on every core, and fill in the figures.
    fn figures(self, cal: &Calibration) -> Vec<Figure> {
        let stats = par_map(&self.points, |(spec, scen)| {
            run_reps(spec, *scen, cal, REPS)
        });
        let mut figs = Vec::with_capacity(self.figures.len());
        for (mut fig, cells) in self.figures {
            for c in cells {
                let (mean, std) = c.metric.extract(&stats[c.point]);
                let p = Point { x: c.x, mean, std };
                match fig.series.last_mut() {
                    Some(s) if s.name == c.series => s.points.push(p),
                    _ => fig.series.push(Series {
                        name: c.series,
                        points: vec![p],
                    }),
                }
            }
            figs.push(fig);
        }
        figs
    }
}

/// Client-shape sweeps against `servers` servers, one (write, read)
/// figure pair per case: a curve per client-node count, x = processes
/// per client node.
fn client_figs(
    cases: &[([&str; 2], Scenario)],
    servers: usize,
    metrics: [Metric; 2],
    cal: &Calibration,
    mutate: impl Fn(&mut RunSpec),
) -> Vec<Figure> {
    let mut sweep = Sweep::default();
    for &(ids, scen) in cases {
        let mut curves = Vec::new();
        for nodes in NODE_SERIES {
            for ppn in PPN_SWEEP {
                let mut spec = RunSpec::new(servers, nodes, ppn);
                mutate(&mut spec);
                let point = sweep.point(spec, scen);
                curves.push((format!("{nodes} client nodes"), ppn as f64, point));
            }
        }
        let title = |m: Metric| format!("{} — {}, {servers} server nodes", scen.name(), m.short());
        sweep.pair(ids, metrics, title, "processes per client node", &curves);
    }
    sweep.figures(cal)
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
        (["fig1a", "fig1b"], Scenario::IorDaos),
        (["fig1c", "fig1d"], Scenario::IorDfs),
        (["fig1e", "fig1f"], Scenario::IorDfuse),
        (["fig1g", "fig1h"], Scenario::IorDfuseIl),
    ];
    client_figs(&apis, 16, BW, cal, |_| {})
}

/// Fig. 2: DFUSE vs DFUSE+IL at 1 KiB, plotted as IOPS.
pub fn fig2(cal: &Calibration) -> Vec<Figure> {
    let cases = [
        (["fig2a", "fig2b"], Scenario::IorDfuse),
        (["fig2c", "fig2d"], Scenario::IorDfuseIl),
    ];
    let iops = [Metric::WriteIops, Metric::ReadIops];
    client_figs(&cases, 16, iops, cal, |spec| {
        spec.transfer = 1 << 10;
        // small ops are cheap: run more of them per process
        spec.ops_per_proc = (spec.ops_per_proc * 4).min(1024);
    })
}

/// Fig. 3: the application benchmarks against 16 servers.
pub fn fig3(cal: &Calibration) -> Vec<Figure> {
    let cases = [
        (["fig3a", "fig3b"], Scenario::IorHdf5DfuseIl),
        (["fig3c", "fig3d"], Scenario::IorHdf5Daos),
        (["fig3e", "fig3f"], Scenario::FieldIo),
        (["fig3g", "fig3h"], Scenario::FdbDaos),
    ];
    client_figs(&cases, 16, BW, cal, |_| {})
}

/// Fig. 4: IOR/libdaos and IOR-HDF5/libdaos against a 4-server pool.
pub fn fig4(cal: &Calibration) -> Vec<Figure> {
    let cases = [
        (["fig4a", "fig4b"], Scenario::IorDaos),
        (["fig4c", "fig4d"], Scenario::IorHdf5Daos),
    ];
    client_figs(&cases, 4, BW, cal, |_| {})
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
    let mut sweep = Sweep::default();
    let mut curves = Vec::new();
    for scen in FIG5_SCENARIOS {
        for srv in [2usize, 4, 8, 16, 24] {
            let point = sweep.point(RunSpec::new(srv, 32, 16), scen);
            curves.push((scen.name().to_string(), srv as f64, point));
        }
    }
    let title = |m: Metric| format!("{} scalability over DAOS server nodes", m.short());
    sweep.pair(["fig5a", "fig5b"], BW, title, "DAOS server nodes", &curves);
    sweep.figures(cal)
}

/// Figure ids of Fig. 6, `[write, read]` for IOR then fdb-hammer.  The
/// RF2 variant has ids of its own, so that its CSVs never overwrite the
/// EC figures the verdicts read.
pub(crate) fn fig6_ids(rf2: bool) -> [[&'static str; 2]; 2] {
    if rf2 {
        [["fig6-rf2a", "fig6-rf2b"], ["fig6-rf2c", "fig6-rf2d"]]
    } else {
        [["fig6a", "fig6b"], ["fig6c", "fig6d"]]
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
    let [ior, fdb] = fig6_ids(rf2);
    let cases = [(ior, Scenario::IorDaos), (fdb, Scenario::FdbDaos)];
    let mut figs = client_figs(&cases, 16, BW, cal, |spec| {
        spec.data_class = data_class;
        spec.meta_class = ObjectClass::RP_2;
    });
    for f in &mut figs {
        f.title = format!("{} ({label})", f.title);
    }
    figs
}

/// Fig. 7: fdb-hammer POSIX on the 16+1-node Lustre system.
pub fn fig7(cal: &Calibration) -> Vec<Figure> {
    client_figs(
        &[(["fig7a", "fig7b"], Scenario::FdbLustre)],
        16,
        BW,
        cal,
        |_| {},
    )
}

/// Fig. 8: fdb-hammer on librados against the 16+1-node Ceph system.
pub fn fig8(cal: &Calibration) -> Vec<Figure> {
    client_figs(
        &[(["fig8a", "fig8b"], Scenario::FdbCeph)],
        16,
        BW,
        cal,
        |_| {},
    )
}

/// Fig. 9: fdb-hammer at 32 client nodes against DAOS, Lustre and Ceph.
pub fn fig9(cal: &Calibration) -> Vec<Figure> {
    let mut sweep = Sweep::default();
    let mut curves = Vec::new();
    for scen in [Scenario::FdbDaos, Scenario::FdbLustre, Scenario::FdbCeph] {
        for ppn in PPN_SWEEP {
            let point = sweep.point(RunSpec::new(16, 32, ppn), scen);
            curves.push((scen.name().to_string(), ppn as f64, point));
        }
    }
    let title = |m: Metric| {
        let short = m.short();
        format!("fdb-hammer at 32 client nodes, DAOS vs Lustre vs Ceph — {short}")
    };
    sweep.pair(
        ["fig9a", "fig9b"],
        BW,
        title,
        "processes per client node",
        &curves,
    );
    sweep.figures(cal)
}

/// §III-E text result: IOR POSIX on Lustre approaches the hardware
/// optimum for file-per-process I/O.
pub fn ior_lustre_table(cal: &Calibration) -> Vec<Figure> {
    let title = "IOR POSIX on Lustre (§III-E)";
    sweep_table("ior-lustre", title, Scenario::IorLustre, cal)
}

/// §III-F text result: IOR on librados only reaches about half of the
/// DAOS/Lustre bandwidth.
pub fn ior_ceph_table(cal: &Calibration) -> Vec<Figure> {
    let title = "IOR on librados against Ceph (§III-F)";
    sweep_table("ior-ceph", title, Scenario::IorCeph, cal)
}

/// One figure of write and read bandwidth over the ppn sweep at 32
/// client nodes and 16 servers.
fn sweep_table(id: &str, title: &str, scen: Scenario, cal: &Calibration) -> Vec<Figure> {
    let mut sweep = Sweep::default();
    let points = PPN_SWEEP.map(|ppn| (ppn as f64, sweep.point(RunSpec::new(16, 32, ppn), scen)));
    let cells = [("write", Metric::WriteBw), ("read", Metric::ReadBw)]
        .into_iter()
        .flat_map(|(series, metric)| {
            points.iter().map(move |&(x, point)| Cell {
                series: series.into(),
                x,
                point,
                metric,
            })
        })
        .collect();
    let x_label = "processes per client node (32 client nodes)";
    sweep.figure(id, title.into(), x_label, "bandwidth [GiB/s]", cells);
    sweep.figures(cal)
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
    // the 8-server, 8 × 16-process deployment most ablations run on
    let spec = |ops_per_proc: usize| RunSpec {
        ops_per_proc,
        ..RunSpec::new(8, 8, 16)
    };
    let iops = [Metric::WriteIops, Metric::ReadIops];
    let mut sweep = Sweep::default();

    // A1: DFUSE thread count at 1 KiB I/O (the dfuse mount option the
    // paper sets to 24)
    sweep.variants(
        "abl-fuse-threads",
        "Ablation: DFUSE thread count, IOR 1 KiB",
        "rate [KIOPS]",
        iops,
        Scenario::IorDfuse,
        [2usize, 8, 24, 48].map(|t| {
            let spec = RunSpec {
                transfer: 1 << 10,
                fuse_threads: Some(t),
                ..spec(256)
            };
            (format!("{t} FUSE threads"), spec)
        }),
    );

    // A2: DFUSE client caching (disabled in every paper run)
    sweep.variants(
        "abl-dfuse-caching",
        "Ablation: DFUSE client caching, IOR 1 MiB (read re-hits the writer's cache)",
        "bandwidth [GiB/s]",
        BW,
        Scenario::IorDfuse,
        [("caching off", false), ("caching on", true)].map(|(name, on)| {
            let spec = RunSpec {
                dfuse_caching: on,
                ..spec(48)
            };
            (name.to_string(), spec)
        }),
    );

    // A3: object class S1 vs SX for IOR Arrays (the paper found SX best)
    sweep.variants(
        "abl-object-class",
        "Ablation: Array object class, IOR on libdaos",
        "bandwidth [GiB/s]",
        BW,
        Scenario::IorDaos,
        [ObjectClass::S1, ObjectClass::Sharded(4), ObjectClass::SX].map(|c| {
            let spec = RunSpec {
                data_class: c,
                ..spec(48)
            };
            (format!("{c}"), spec)
        }),
    );

    // A4: Ceph placement-group count (the paper tuned to 1024)
    sweep.variants(
        "abl-ceph-pgs",
        "Ablation: Ceph placement groups, fdb-hammer on librados",
        "bandwidth [GiB/s]",
        BW,
        Scenario::FdbCeph,
        [32usize, 128, 1024, 4096].map(|pg| {
            let spec = RunSpec {
                pg_num: pg,
                ..spec(48)
            };
            (format!("{pg} PGs"), spec)
        }),
    );

    // A5: redundancy ladder none / EC 2+1 / RF2 on one workload
    sweep.variants(
        "abl-redundancy",
        "Ablation: redundancy ladder, IOR on libdaos",
        "bandwidth [GiB/s]",
        BW,
        Scenario::IorDaos,
        [
            ("none (SX)", ObjectClass::SX),
            ("EC_2P1", ObjectClass::EC_2P1),
            ("RP_2", ObjectClass::RP_2),
        ]
        .map(|(name, c)| {
            let spec = RunSpec {
                data_class: c,
                meta_class: ObjectClass::RP_2,
                ..spec(48)
            };
            (name.to_string(), spec)
        }),
    );

    // A6: client queue depth — what the libdaos event-queue API buys a
    // single writer process (the paper's runs are synchronous, QD 1)
    sweep.variants(
        "abl-queue-depth",
        "Ablation: client queue depth, 4 IOR processes on libdaos",
        "bandwidth [GiB/s]",
        BW,
        Scenario::IorDaos,
        [1usize, 2, 4, 16].map(|qd| {
            let spec = RunSpec {
                ops_per_proc: 96,
                queue_depth: qd,
                ..RunSpec::new(8, 2, 2)
            };
            (format!("QD {qd}"), spec)
        }),
    );

    // A7: Field I/O's per-read size check (the Field-I/O-vs-fdb-hammer
    // difference the paper discusses)
    sweep.variants(
        "abl-size-check",
        "Ablation: per-read size check in Field I/O",
        "bandwidth [GiB/s]",
        BW,
        Scenario::FieldIo,
        [
            ("size check (Field I/O)", true),
            ("no check (fdb-style)", false),
        ]
        .map(|(name, on)| {
            let spec = RunSpec {
                fieldio_size_check: on,
                ..spec(48)
            };
            (name.to_string(), spec)
        }),
    );

    sweep.figures(cal)
}

/// C4 metadata claim: mdtest (the IO500 metadata workload the paper
/// cites) on DFUSE-over-DAOS vs Lustre, same hardware.  Series =
/// store, x = phase (0 create, 1 stat, 2 remove), y = KIOPS.
pub fn mdtest_table(cal: &Calibration) -> Figure {
    use crate::scenarios::{run_mdtest, MdStore};
    let spec = RunSpec {
        ops_per_proc: 48,
        ..RunSpec::new(16, 16, 16)
    };
    let stores = [
        (MdStore::Dfuse, "DFUSE (DAOS)"),
        (MdStore::Lustre, "Lustre"),
    ];
    let series = par_map(&stores, |&(store, name)| Series {
        name: name.to_string(),
        points: run_mdtest(&spec, store, cal)
            .iter()
            .enumerate()
            .map(|(i, p)| Point {
                x: i as f64,
                mean: p.iops() / 1e3,
                std: 0.0,
            })
            .collect(),
    });
    Figure {
        id: "mdtest".into(),
        title: "mdtest metadata rates — DAOS vs Lustre (conclusion C4)".into(),
        x_label: "phase: 0 = create, 1 = stat, 2 = remove".into(),
        y_label: "rate [KIOPS]".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cells_read_the_runs_they_name() {
        let cal = Calibration::default();
        let scens = [Scenario::IorDaos, Scenario::FdbDaos];
        let spec = |seed: u64| RunSpec {
            ops_per_proc: 12,
            seed,
            ..RunSpec::new(2, 2, 4)
        };
        let mut sweep = Sweep::default();
        let mut curves = Vec::new();
        let mut direct = Vec::new();
        for scen in scens {
            for seed in 0..3u64 {
                let point = sweep.point(spec(seed), scen);
                curves.push((scen.name().to_string(), seed as f64, point));
                direct.push(run_reps(&spec(seed), scen, &cal, REPS));
            }
        }
        let iops = [Metric::WriteIops, Metric::ReadIops];
        sweep.pair(["bw-w", "bw-r"], BW, |m| m.short().into(), "seed", &curves);
        sweep.pair(
            ["io-w", "io-r"],
            iops,
            |m| m.short().into(),
            "seed",
            &curves,
        );
        let figs = sweep.figures(&cal);

        let metrics = [BW[0], BW[1], iops[0], iops[1]];
        assert_eq!(figs.len(), metrics.len());
        for (fig, metric) in figs.iter().zip(metrics) {
            assert_eq!(fig.y_label, metric.label());
            assert_eq!(fig.series.len(), scens.len());
            for (series, (scen, want)) in fig.series.iter().zip(scens.iter().zip(direct.chunks(3)))
            {
                assert_eq!(series.name, scen.name());
                assert_eq!(series.points.len(), 3);
                for (seed, (p, want)) in series.points.iter().zip(want).enumerate() {
                    let (mean, std) = metric.extract(want);
                    assert_eq!(p.x, seed as f64);
                    assert_eq!(p.mean.to_bits(), mean.to_bits(), "{} {seed}", fig.id);
                    assert_eq!(p.std.to_bits(), std.to_bits(), "{} {seed}", fig.id);
                }
            }
        }
    }
}
