//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [targets...] [--out DIR] [--family NAME] [--seeds N] [--schedule FILE]
//!
//! targets: hw fig1 fig2 fig3 fig4 fig5 fig6 fig6-rf2 fig7 fig8 fig9
//!          lustre-ior ceph-ior faulted swarm replay shrink scaleout
//!          trace report bench-engine ablations mdtest analyze all quick
//! ```
//!
//! `swarm --family NAME` runs the seeded fault swarm (`--seeds N`,
//! default 8) over one chaos family: `faulted` (crashes, weather and
//! bit rot under the full oracle suite), `engine` (capacity weather
//! over every generic scenario, determinism oracle), `rebalance` (server
//! adds, drains and crashes aimed at migration traffic) or `integrity`
//! (bit-rot races against the checksum/scrub machinery, which also
//! writes the per-case `integrity.json` artifact).  A failing case
//! archives its schedule as `<family>-<scenario>-seed<N>.json`, with a
//! traced replay and a shrunken `.min.json` reproducer next to it.
//! `replay --schedule FILE` reruns an archived schedule of any family
//! byte-identically; `shrink --schedule FILE` delta-debugs a failing one
//! to a minimal reproducer.  `scaleout` runs the 4 → 256 server ladder
//! against the paper's +3.86 GiB/s-per-server claim and writes the
//! `scaleout.json` verdict artifact.
//!
//! Each figure is printed as an aligned table and saved as CSV under the
//! output directory (default `results/`).  `quick` runs a reduced set
//! used for smoke testing.  After the targets, the paper-claim verdicts
//! over every figure produced are printed, and `repro` exits 1 if any
//! claim failed.
//!
//! `report` runs every scenario twice with the full telemetry pipeline
//! on (windowed monitor, span log, metrics registry, SLO rules),
//! asserting byte-identical artifacts and untouched replay digests; it
//! writes per-scenario `report-*.report.{json,txt}` and
//! `report-*.counters.trace.json` artifacts plus a `SLO_report.json`
//! verdict summary, gated against the committed `SLO_baseline.json`.
//!
//! `bench-engine` runs the seeded engine workload families (see
//! `bench::engine_bench`), writes `BENCH_engine.json` under the output
//! directory, and exits non-zero if any family's events/sec fell more
//! than 10% below the committed `BENCH_engine.json` — or if a digest or
//! op count drifted at all (a determinism regression, not a slowdown).

use benchkit::chaos::{self, Family, FamilyOps};
use benchkit::faulted::{self, FaultedScenario};
use benchkit::figures::{self, Figure};
use benchkit::integrity::{render_integrity_json, IntegrityFamily};
use benchkit::report::{self, slug};
use benchkit::scenarios::{analyze_scenario, RunSpec, Scenario};
use cluster::{Calibration, GIB};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Write `data` to `out/name`, reporting where it went.
fn save(out: &Path, name: &str, data: &str) {
    let path = out.join(name);
    match std::fs::create_dir_all(out).and_then(|_| std::fs::write(&path, data)) {
        Ok(()) => println!("saved {}", path.display()),
        Err(e) => eprintln!("warning: could not save {}: {e}", path.display()),
    }
}

fn emit(figs: Vec<Figure>, out: &Path, all: &mut Vec<Figure>) {
    for f in figs {
        println!("{}", report::render_text(&f));
        if f.series.len() > 1 || f.series.iter().any(|s| s.points.len() > 2) {
            println!("{}", report::render_chart(&f, 56, 12));
        }
        if let Err(e) = report::save_csv(&f, out) {
            eprintln!("warning: could not save {}.csv: {e}", f.id);
        }
        all.push(f);
    }
}

/// Causal traces: run every scenario once with span recording on, print
/// the top critical-path contributors and save the Chrome trace JSON +
/// critical-path report per scenario.
fn run_traces(cal: &Calibration, out: &Path) {
    let mut spec = RunSpec::new(2, 2, 4);
    spec.ops_per_proc = 24;
    for scen in Scenario::ALL {
        let t = benchkit::trace_scenario(&spec, scen, cal);
        println!(
            "--- {} ({} spans, span digest {:#018x})",
            scen.name(),
            t.exports.span_count,
            t.exports.span_digest
        );
        print!("{}", t.exports.critical_path);
        let stem = format!("trace-{}", slug(scen.name()));
        if let Err(e) = report::save_trace(&t.exports, out, &stem) {
            eprintln!("warning: could not save {stem}: {e}");
        } else {
            println!("saved {}/{stem}.trace.json", out.display());
        }
    }
}

/// Bandwidth under failure: run every faulted scenario twice (replay
/// check), print the comparison and save the JSON artifact.
fn run_faulted_family(cal: &Calibration, out: &Path) {
    let spec = faulted::default_faulted_spec();
    let mut reports = Vec::new();
    let mut all_ok = true;
    println!(
        "{:<24} {:>10} {:>10} {:>8} {:>8} {:>12} {:>8}",
        "scenario", "write GiB/s", "read GiB/s", "retries", "rebuilt", "restored ms", "replay"
    );
    for scen in FaultedScenario::ALL {
        let rep = faulted::replay_faulted(&spec, scen, cal);
        let ok = rep.deterministic();
        all_ok &= ok;
        let r = &rep.runs[0];
        let rb = r.rebuild.clone().unwrap_or_default();
        println!(
            "{:<24} {:>10.2} {:>10.2} {:>8} {:>8} {:>12} {:>8}",
            scen.name(),
            r.write.bandwidth() / GIB,
            r.read.bandwidth() / GIB,
            r.retry.retries,
            rb.shards_rebuilt,
            r.redundancy_restored_secs
                .map_or("-".to_string(), |v| format!("{:.2}", v * 1e3)),
            if ok { "ok" } else { "DIVERGED" },
        );
        reports.push(rep.runs[0].clone());
        // a third, traced run: digest must match the untraced pair, and
        // the trace itself ships as a CI artifact
        let (traced, exports) = faulted::run_faulted_traced(&spec, scen, cal);
        if traced.digest != rep.runs[0].digest {
            eprintln!("{}: tracing perturbed the replay digest", scen.name());
            std::process::exit(1);
        }
        let stem = format!("faulted-{}", slug(scen.name()));
        if let Err(e) = report::save_trace(&exports, out, &stem) {
            eprintln!("warning: could not save {stem}: {e}");
        }
    }
    let json = faulted::render_json(&reports);
    save(out, "faulted.json", &json);
    if !all_ok {
        eprintln!("faulted replay diverged: determinism regression");
        std::process::exit(1);
    }
}

/// Archive a failing case and report what was written.
fn print_archive(
    family: FamilyOps,
    v: &chaos::ChaosVerdict,
    spec: &RunSpec,
    cal: &Calibration,
    out: &Path,
) {
    let a = match (family.archive)(v, spec, cal, out) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("warning: could not archive {}: {e}", v.scenario);
            return;
        }
    };
    println!("archived failing schedule: {}", a.path.display());
    match &a.shrunk {
        Some(shrunk) if shrunk.reproduced => {
            let min_path = a.path.with_extension("min.json");
            println!(
                "shrunk {} -> {} events ({} probes): {}",
                v.plan.len(),
                shrunk.plan.len(),
                shrunk.probes,
                min_path.display()
            );
            println!(
                "replay: cargo run --release --bin repro -- replay --schedule {}",
                min_path.display()
            );
        }
        Some(_) => eprintln!("shrinker could not reproduce the failure (flaky oracle?)"),
        None => {
            println!("not shrunk: only the determinism check failed, which one run cannot show")
        }
    }
}

/// Swarm one chaos family over seeds `0..seeds`, printing one line per
/// case.  The integrity family also writes the per-case
/// `integrity.json` artifact.  Failing cases are archived, traced and
/// shrunk; any failure exits non-zero.
fn run_swarm_target(cal: &Calibration, out: &Path, family: Option<&str>, seeds: u64) {
    let Some(family) = family.and_then(chaos::family) else {
        let names: Vec<&str> = chaos::FAMILIES.iter().map(|f| f.name).collect();
        eprintln!("swarm needs --family {}", names.join("|"));
        std::process::exit(2);
    };
    let seed_block: Vec<u64> = (0..seeds).collect();
    let spec = (family.default_spec)();
    println!("--- {} family ({seeds} seeds)", family.name);
    let report = (family.swarm)(&spec, cal, &seed_block).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    print!("{}", report.render());
    if family.name == IntegrityFamily::NAME {
        let json = render_integrity_json(&report.verdicts);
        save(out, "integrity.json", &json);
    }
    for v in report.failures() {
        print!("{}", v.oracle.render());
        print_archive(family, v, &spec, cal, out);
    }
    if !report.passed() {
        eprintln!("{} swarm found invariant violations", family.name);
        std::process::exit(1);
    }
}

/// Replay an archived schedule of any family byte-for-byte and print
/// the case line.  Plain `replay` exits non-zero when the archived
/// failure reproduces; `shrink` archives a failing schedule again under
/// `out/`, traced and shrunk to a minimal reproducer.
fn run_replay_target(cal: &Calibration, out: &Path, schedule: Option<&Path>, shrink: bool) {
    let Some(schedule) = schedule else {
        eprintln!("replay and shrink need --schedule FILE");
        std::process::exit(2);
    };
    let replayed = std::fs::read_to_string(schedule)
        .map_err(|e| format!("cannot read {}: {e}", schedule.display()))
        .and_then(|input| chaos::parse_schedule(&input))
        .and_then(|arch| chaos::replay(&arch, cal).map(|v| (arch, v)));
    let (arch, v) = replayed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("{}", v.render_line());
    if v.passed() && shrink {
        eprintln!("schedule does not fail any oracle; nothing to shrink");
        std::process::exit(1);
    }
    if !v.passed() {
        print!("{}", v.oracle.render());
        if !shrink {
            std::process::exit(1);
        }
        let family = chaos::family_of(v.scenario).expect("a replayed scenario has a family");
        print_archive(family, &v, &arch.spec, cal, out);
    }
}

/// The scale-out ladder: 4 → 256 servers against the paper's
/// +3.86 GiB/s-per-server claim, every rung replayed.  Writes the
/// `scaleout.json` verdict artifact; exits non-zero if any verdict
/// fails.
fn run_scaleout_target(cal: &Calibration, out: &Path) {
    let report = benchkit::scaleout::run_scaleout(cal);
    print!("{}", report.render());
    let json = report.render_json();
    save(out, "scaleout.json", &json);
    if !report.passed() {
        eprintln!("scale-out ladder failed a claim verdict");
        std::process::exit(1);
    }
}

/// The engine bench trajectory: run every seeded workload family,
/// write `BENCH_engine.json` under `out/`, and gate against the
/// committed copy at the repository root.  Digests and event counts
/// must match exactly (they are seeded and deterministic); events/sec
/// may not regress more than 10%.
#[allow(
    clippy::disallowed_methods,
    reason = "host throughput is what this target measures; no run reads the clock"
)]
fn run_bench_engine(out: &Path) {
    use bench::engine_bench::{
        calibration_spin, run_family, BENCH_OPS, CALIBRATION_ITERS, FAMILIES,
    };
    const REPS: usize = 5;
    const MAX_REGRESSION: f64 = 0.10;

    // Each timing window accumulates whole deterministic runs (or spin
    // blocks) until it is long enough to smother scheduler jitter; the
    // best rep stands in for the machine's attainable rate (the usual
    // defence against a noisy neighbour slowing one rep).
    const MIN_WINDOW_SECS: f64 = 0.15;
    // Timing windows per family and rep (see the scoring below).
    const WINDOWS: usize = 4;

    // Machine-speed reference, re-measured inside EVERY rep right
    // before the family windows: the gate compares the best events/sec
    // with the best spin rate, so a machine that is faster or slower
    // as a whole rescales both sides, while real per-event cost
    // changes still move the ratio.
    let spin_rate = || {
        let mut iters = 0u64;
        let t0 = Instant::now();
        loop {
            std::hint::black_box(calibration_spin(CALIBRATION_ITERS));
            iters += CALIBRATION_ITERS;
            let dt = t0.elapsed().as_secs_f64();
            if dt >= MIN_WINDOW_SECS {
                return iters as f64 / dt;
            }
        }
    };

    let mut best_eps = vec![0.0f64; FAMILIES.len()];
    let mut results: Vec<Option<bench::engine_bench::FamilyResult>> = vec![None; FAMILIES.len()];
    let mut cal = 0.0f64;
    for _ in 0..REPS {
        cal = cal.max(spin_rate());
        for (i, fam) in FAMILIES.iter().enumerate() {
            for _ in 0..WINDOWS {
                let mut events = 0u64;
                let t0 = Instant::now();
                let dt = loop {
                    let r = run_family(fam, BENCH_OPS);
                    if let Some(prev) = &results[i] {
                        assert_eq!(&r, prev, "{fam}: digest drifted between runs");
                    }
                    events += r.events;
                    results[i] = Some(r);
                    let dt = t0.elapsed().as_secs_f64();
                    if dt >= MIN_WINDOW_SECS {
                        break dt;
                    }
                };
                best_eps[i] = best_eps[i].max(events as f64 / dt);
            }
        }
    }
    println!("calibration spin: {cal:.0} iters/s");

    // Every family is judged on its best window over the best spin, in
    // events per million calibration iterations: a machine-speed-
    // independent cost figure (bigger is faster).  Contention only ever
    // slows a window, and on a shared VM it slows every family together
    // by 20-30% for tens of seconds at a time, which a per-rep median
    // of ratios does not cancel; the best of twenty windows is the
    // stable figure.
    let mut rows: Vec<(&str, u64, u64, f64, f64)> = Vec::new();
    for (i, fam) in FAMILIES.iter().enumerate() {
        let r = results[i].as_ref().expect("at least one rep ran");
        let norm = best_eps[i] / cal * 1e6;
        println!(
            "{:<8} {:>6} events  digest {:#018x}  {:>12.0} events/s  {:>10.1} per-Mspin",
            fam, r.events, r.digest, best_eps[i], norm
        );
        rows.push((fam, r.events, r.digest, best_eps[i], norm));
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|(name, events, digest, eps, norm)| {
            format!(
                "  {{\"name\":\"{name}\",\"events\":{events},\"digest\":\"{digest:#018x}\",\"events_per_sec\":{eps:.1},\"normalized\":{norm:.2}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n\"ops\":{BENCH_OPS},\n\"calibration_iters_per_sec\":{cal:.0},\n\"families\":[\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    save(out, "BENCH_engine.json", &json);

    let committed = Path::new("BENCH_engine.json");
    let prev = match std::fs::read_to_string(committed) {
        Ok(t) => t,
        Err(_) => {
            println!(
                "no committed {} — recorded a fresh trajectory point, nothing to gate against",
                committed.display()
            );
            return;
        }
    };
    let prev = simkit::json::parse(&prev).expect("committed BENCH_engine.json parses");
    let families = prev
        .get("families")
        .and_then(|f| f.as_arr())
        .expect("committed file lists families");
    let mut failed = false;
    for f in families {
        let name = f.get("name").and_then(|v| v.as_str()).expect("name");
        let events = f.get("events").and_then(|v| v.as_u64()).expect("events");
        let digest = f.get("digest").and_then(|v| v.as_str()).expect("digest");
        let norm = f
            .get("normalized")
            .and_then(|v| v.as_f64())
            .expect("normalized");
        let Some((_, now_events, now_digest, _, now_norm)) = rows.iter().find(|(n, ..)| *n == name)
        else {
            eprintln!("bench-engine: family `{name}` missing from this run");
            failed = true;
            continue;
        };
        let now_digest = format!("{now_digest:#018x}");
        if *now_events != events || now_digest != digest {
            eprintln!(
                "bench-engine: {name}: schedule drifted (events {events} -> {now_events}, digest {digest} -> {now_digest}) — determinism regression"
            );
            failed = true;
        } else if *now_norm < norm * (1.0 - MAX_REGRESSION) {
            eprintln!(
                "bench-engine: {name}: {now_norm:.1} events/Mspin is more than {:.0}% below the committed {norm:.1}",
                MAX_REGRESSION * 100.0
            );
            failed = true;
        } else {
            println!(
                "{name:<8} ok: {now_norm:.1} events/Mspin vs committed {norm:.1} ({:+.1}%)",
                (now_norm / norm - 1.0) * 100.0
            );
        }
    }
    if failed {
        eprintln!("bench-engine: trajectory gate failed");
        std::process::exit(1);
    }
}

/// Unified run reports: every scenario twice with the full telemetry
/// pipeline on (windowed monitor, span log, metrics registry, SLO
/// rules).  The double run is the determinism gate — the report JSON,
/// text and counter-track trace must be byte-identical, and the replay
/// digest must match the untelemetered run.  Artifacts land under
/// `out/` per scenario plus a `SLO_report.json` verdict summary, which
/// is gated against the committed `SLO_baseline.json`: any rule that
/// passed in the baseline must still pass.
fn run_report_target(cal: &Calibration, out: &Path) {
    use simkit::json::Json;
    let mut spec = RunSpec::new(2, 2, 4);
    spec.ops_per_proc = 24;
    let rules = benchkit::default_slo_rules();
    let mut summary: Vec<(String, Vec<simkit::SloVerdict>)> = Vec::new();
    for scen in Scenario::ALL {
        let (_, plain_digest) = benchkit::scenarios::run_scenario_digest(&spec, scen, cal);
        let a = benchkit::run_reported(&spec, scen, cal, &rules);
        let b = benchkit::run_reported(&spec, scen, cal, &rules);
        if a.report.replay_digest != plain_digest {
            eprintln!("{}: telemetry perturbed the replay digest", scen.name());
            std::process::exit(1);
        }
        if a.report.render_json() != b.report.render_json()
            || a.report.render_text() != b.report.render_text()
            || a.trace_json != b.trace_json
        {
            eprintln!(
                "{}: report artifacts not byte-identical across replays",
                scen.name()
            );
            std::process::exit(1);
        }
        print!("{}", a.report.render_text());
        let stem = format!("report-{}", slug(scen.name()));
        save(out, &format!("{stem}.report.json"), &a.report.render_json());
        save(out, &format!("{stem}.report.txt"), &a.report.render_text());
        save(out, &format!("{stem}.counters.trace.json"), &a.trace_json);
        summary.push((scen.name().to_string(), a.report.verdicts.clone()));
    }

    let scenarios: Vec<Json> = summary
        .iter()
        .map(|(name, verdicts)| {
            let slo = verdicts
                .iter()
                .map(|v| {
                    Json::Obj(vec![
                        ("rule".to_string(), Json::Str(v.rule.clone())),
                        ("pass".to_string(), Json::Bool(v.pass)),
                        ("observed".to_string(), Json::num_u64(v.observed)),
                        ("limit".to_string(), Json::num_u64(v.limit)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("scenario".to_string(), Json::Str(name.clone())),
                ("slo".to_string(), Json::Arr(slo)),
            ])
        })
        .collect();
    let mut json = Json::Obj(vec![("scenarios".to_string(), Json::Arr(scenarios))]).render();
    json.push('\n');
    save(out, "SLO_report.json", &json);

    let committed = Path::new("SLO_baseline.json");
    let prev = match std::fs::read_to_string(committed) {
        Ok(t) => t,
        Err(_) => {
            println!(
                "no committed {} — recorded fresh SLO verdicts, nothing to gate against",
                committed.display()
            );
            return;
        }
    };
    let prev = simkit::json::parse(&prev).expect("committed SLO_baseline.json parses");
    let scens = prev
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .expect("baseline lists scenarios");
    let mut failed = false;
    for s in scens {
        let name = s
            .get("scenario")
            .and_then(|v| v.as_str())
            .expect("scenario");
        let Some((_, verdicts)) = summary.iter().find(|(n, _)| n == name) else {
            eprintln!("report: scenario `{name}` missing from this run");
            failed = true;
            continue;
        };
        for rule in s.get("slo").and_then(|v| v.as_arr()).expect("slo array") {
            let rname = rule.get("rule").and_then(|v| v.as_str()).expect("rule");
            if !matches!(rule.get("pass"), Some(Json::Bool(true))) {
                continue;
            }
            match verdicts.iter().find(|v| v.rule == rname) {
                Some(v) if v.pass => {}
                Some(v) => {
                    eprintln!(
                        "report: {name}: SLO `{rname}` regressed (observed {} vs limit {})",
                        v.observed, v.limit
                    );
                    failed = true;
                }
                None => {
                    eprintln!("report: {name}: SLO `{rname}` missing from this run");
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("report: SLO verdict gate failed");
        std::process::exit(1);
    }
    println!("all baseline SLO verdicts held");
}

/// Bottleneck analysis: one representative point per scenario against a
/// 16-server deployment, with the top-utilised resources per phase —
/// the reasoning the paper applies when comparing measured bandwidth to
/// the "calculated optimum".
fn analyze(cal: &Calibration) {
    let scenarios = [
        Scenario::IorDaos,
        Scenario::IorDfs,
        Scenario::IorDfuse,
        Scenario::IorDfuseIl,
        Scenario::IorHdf5DfuseIl,
        Scenario::IorHdf5Daos,
        Scenario::FieldIo,
        Scenario::FdbDaos,
        Scenario::IorLustre,
        Scenario::FdbLustre,
        Scenario::IorCeph,
        Scenario::FdbCeph,
    ];
    for scen in scenarios {
        let spec = RunSpec::new(16, 32, 16);
        let (r, uses) = analyze_scenario(&spec, scen, cal, 5);
        println!(
            "
--- {} @ 16 servers, 32x16 clients: write {:.1} GiB/s, read {:.1} GiB/s",
            scen.name(),
            r.write.bandwidth() / GIB,
            r.read.bandwidth() / GIB
        );
        println!(
            "{:<24} {:>12} {:>12}",
            "resource", "write util", "read util"
        );
        for u in uses {
            println!(
                "{:<24} {:>11.1}% {:>11.1}%",
                u.name,
                u.write_frac * 100.0,
                u.read_frac * 100.0
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("results");
    let mut seeds: u64 = 8;
    let mut schedule: Option<PathBuf> = None;
    let mut family: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = PathBuf::from(it.next().expect("--out needs a directory"));
            }
            "--seeds" => {
                seeds = it
                    .next()
                    .expect("--seeds needs a count")
                    .parse()
                    .expect("--seeds needs a number");
            }
            "--schedule" => {
                schedule = Some(PathBuf::from(it.next().expect("--schedule needs a file")));
            }
            "--family" => {
                family = Some(it.next().expect("--family needs a name"));
            }
            "-h" | "--help" => {
                println!(
                    "usage: repro [hw|fig1..fig9|fig6-rf2|lustre-ior|ceph-ior|faulted|trace|report|bench-engine|ablations|mdtest|analyze|swarm|replay|shrink|scaleout|all|quick]* [--out DIR] [--family NAME] [--seeds N] [--schedule FILE]"
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "hw",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig6-rf2",
            "fig7",
            "fig8",
            "fig9",
            "lustre-ior",
            "ceph-ior",
            "faulted",
            "ablations",
            "mdtest",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let cal = Calibration::default();
    let mut collected: Vec<Figure> = Vec::new();
    for t in targets {
        #[allow(
            clippy::disallowed_methods,
            reason = "the `[t took Xs]` line reports host time; no run reads it"
        )]
        let t0 = Instant::now();
        println!("\n################ {t} ################");
        match t.as_str() {
            "hw" => emit(vec![figures::hardware_table()], &out, &mut collected),
            "fig1" => emit(figures::fig1(&cal), &out, &mut collected),
            "fig2" => emit(figures::fig2(&cal), &out, &mut collected),
            "fig3" => emit(figures::fig3(&cal), &out, &mut collected),
            "fig4" => emit(figures::fig4(&cal), &out, &mut collected),
            "fig5" => emit(figures::fig5(&cal), &out, &mut collected),
            "fig6" => emit(figures::fig6(&cal, false), &out, &mut collected),
            "fig6-rf2" => emit(figures::fig6(&cal, true), &out, &mut collected),
            "fig7" => emit(figures::fig7(&cal), &out, &mut collected),
            "fig8" => emit(figures::fig8(&cal), &out, &mut collected),
            "fig9" => emit(figures::fig9(&cal), &out, &mut collected),
            "lustre-ior" => emit(figures::ior_lustre_table(&cal), &out, &mut collected),
            "ceph-ior" => emit(figures::ior_ceph_table(&cal), &out, &mut collected),
            "faulted" => run_faulted_family(&cal, &out),
            "swarm" => run_swarm_target(&cal, &out, family.as_deref(), seeds),
            "replay" | "shrink" => {
                run_replay_target(&cal, &out, schedule.as_deref(), t == "shrink")
            }
            "scaleout" => run_scaleout_target(&cal, &out),
            "trace" => run_traces(&cal, &out),
            "report" => run_report_target(&cal, &out),
            "bench-engine" => run_bench_engine(&out),
            "ablations" => emit(figures::ablations(&cal), &out, &mut collected),
            "mdtest" => emit(vec![figures::mdtest_table(&cal)], &out, &mut collected),
            "analyze" => analyze(&cal),
            "quick" => {
                emit(vec![figures::hardware_table()], &out, &mut collected);
                emit(figures::fig4(&cal), &out, &mut collected);
            }
            other => {
                eprintln!("unknown target: {other}");
                std::process::exit(2);
            }
        }
        println!("[{t} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
    let verdicts = benchkit::verdict::evaluate(&collected);
    if !verdicts.is_empty() {
        println!("\n################ paper-claim verdicts ################");
        print!("{}", benchkit::verdict::render(&verdicts));
        let failed = verdicts.iter().filter(|v| !v.pass).count();
        println!(
            "\n{} of {} claims reproduced",
            verdicts.len() - failed,
            verdicts.len()
        );
        if failed > 0 {
            std::process::exit(1);
        }
    }
}
