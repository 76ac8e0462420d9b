//! Host-time benchmark of the paper scenarios, end to end and layer by
//! layer.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --list
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics: the
//! median host time of one iteration's measured phases, the median
//! set-up time, and peak RSS.  Host times are scaled to a reference
//! machine speed by a yardstick timed between iterations (see
//! `yardstick.rs`); the unscaled medians are printed
//! beside them as `raw.*`.  A traced run (`--trace 1`) prints the
//! per-layer metrics instead, and beside them the simulated results
//! (`sim.*`) that a host-time change must leave bit-identical.  Both
//! print one `name value unit` line per value, one line per replay
//! digest and one with the median yardstick time, then one JSON object
//! with the compared metrics as the last line.
//! Every pass is checked against benchkit's entry points; a mismatch or
//! a panic makes the run fail (exit 1).
//! See `README.md` next to `Cargo.toml`.

mod scenario;
mod workloads;
mod yardstick;

use scenario::{Kind, Outcome, Probe, Reference, SetupSplit};
use simkit::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, BUILT_KEYS, FAULTED_KEYS};
use yardstick::Yardstick;

/// Set-up-only rehearsals before each iteration; `setup_s` is their
/// median.  Set-up takes well under a millisecond, so it is sampled many
/// times, and spread over the run so that a slow spell of a shared host
/// cannot hold all samples.
const REHEARSALS_PER_ITERATION: usize = 15;

/// Span layers whose critical-path self-time share is reported.
const LAYERS: [&str; 13] = [
    "ior", "dfuse", "il", "libdfs", "libdaos", "target", "fdb", "fieldio", "lustre", "rados",
    "scrub", "rebuild", "retry",
];

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // an empty f64 sum is -0.0; print it as 0
        value: value + 0.0,
        unit,
    }
}

/// What one mode measured: the metrics `BENCHMARK.json` declares, and
/// values printed beside them that are not compared.
struct Measured {
    metrics: Vec<Metric>,
    /// `raw.*` host times before scaling, or `sim.*` simulated results.
    info: Vec<Metric>,
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs passes, checks each against benchkit's result, counts ops, and
/// keeps the host speed.
struct Checker<'a> {
    wl: &'a Workload,
    cal: cluster::Calibration,
    /// benchkit's result per run; `None` where it could not be had, which
    /// fails every pass of that run.
    refs: Vec<Option<Reference>>,
    attempted: u64,
    failed: u64,
    yardstick: Yardstick,
    /// Yardstick times at the latest boundary between iterations.
    boundary: [f64; yardstick::SAMPLES],
    /// Each iteration's yardstick time, in seconds.
    yardsticks: Vec<f64>,
}

impl<'a> Checker<'a> {
    /// Computes benchkit's result for every run (untimed).
    fn new(wl: &'a Workload, cal: cluster::Calibration) -> Checker<'a> {
        // before any simulator work touches the heap
        let mut yardstick = Yardstick::new();
        let refs = wl
            .runs
            .iter()
            .map(|r| {
                let got = catch_unwind(AssertUnwindSafe(|| {
                    scenario::reference(r.kind, &r.spec, &cal)
                }));
                match got {
                    Ok(Ok(want)) => Some(want),
                    Ok(Err(e)) => {
                        eprintln!("{}: {e}", r.key);
                        None
                    }
                    Err(_) => {
                        eprintln!("{}: reference run panicked", r.key);
                        None
                    }
                }
            })
            .collect();
        Checker {
            wl,
            cal,
            refs,
            attempted: 0,
            failed: 0,
            boundary: yardstick.samples(),
            yardstick,
            yardsticks: Vec::new(),
        }
    }

    /// Ends an iteration: times the yardstick again, and returns the
    /// iteration's speed, `REFERENCE_S` over the median yardstick time at
    /// its two ends.
    fn close_iteration(&mut self) -> f64 {
        let next = self.yardstick.samples();
        let both: Vec<f64> = self.boundary.iter().chain(&next).copied().collect();
        self.boundary = next;
        let t = median(&both);
        self.yardsticks.push(t);
        yardstick::REFERENCE_S / t
    }

    /// One pass of run `i`, with unscaled host times.  `None` when it
    /// panicked, lost ops, or its digest or bandwidths differ from
    /// benchkit's; its ops then count as failed.  A [`Probe::NoScrub`]
    /// pass has nothing to match and is checked for lost ops only.
    fn pass(&mut self, i: usize, probe: Probe) -> Option<Outcome> {
        let run = &self.wl.runs[i];
        let planned = 2 * (run.spec.procs() * run.spec.ops_per_proc) as u64;
        self.attempted += planned;
        let result = catch_unwind(AssertUnwindSafe(|| {
            scenario::pass(run.kind, &run.spec, &self.cal, probe)
        }));
        let Ok(o) = result else {
            eprintln!("{}: {probe:?} pass panicked", run.key);
            self.failed += planned;
            return None;
        };
        let mut ok = o.ops() == planned && o.retry.gave_up == 0;
        ok &= o.write.bandwidth() > 0.0 && o.read.bandwidth() > 0.0;
        if probe != Probe::NoScrub {
            let got = Reference::of(&o);
            let want = self.refs[i];
            if want != Some(got) {
                eprintln!(
                    "{}: {probe:?} pass gave {got:?}, benchkit {want:?}",
                    run.key
                );
                ok = false;
            }
        }
        if ok {
            Some(o)
        } else {
            self.failed += planned;
            None
        }
    }

    fn yardstick_ms(&self) -> f64 {
        median(&self.yardsticks) * 1e3
    }

    fn digests(&self) -> Vec<(&'static str, u64)> {
        let keys = self.wl.runs.iter().map(|r| r.key);
        keys.zip(&self.refs)
            .filter_map(|(k, r)| r.map(|r| (k, r.digest)))
            .collect()
    }
}

/// Multiplies `o`'s host times by `speed`.
fn scale(o: &mut Outcome, speed: f64) {
    o.phase_s *= speed;
    o.op_build_s *= speed;
}

/// Set-up samples, unscaled and at the reference speed.
#[derive(Default)]
struct Setups {
    raw: Vec<SetupSplit>,
    scaled: Vec<SetupSplit>,
}

impl Setups {
    /// Adds one iteration's rehearsals, which ran at `speed`.
    fn push(&mut self, rehearsed: Vec<SetupSplit>, speed: f64) {
        self.scaled
            .extend(rehearsed.iter().map(|s| s.scaled(speed)));
        self.raw.extend(rehearsed);
    }
}

/// Set-up-only rehearsals of every run of the workload; each sample is
/// summed over runs.
fn rehearse_setup(ck: &Checker) -> Vec<SetupSplit> {
    (0..REHEARSALS_PER_ITERATION)
        .map(|_| {
            let mut sum = SetupSplit::default();
            for r in &ck.wl.runs {
                sum.add(&scenario::rehearse_setup(r.kind, &r.spec, &ck.cal));
            }
            sum
        })
        .collect()
}

/// Component-by-component medians of set-up samples.
fn median_setup(samples: &[SetupSplit]) -> SetupSplit {
    let of = |f: fn(&SetupSplit) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    SetupSplit {
        cluster_build: of(|s| s.cluster_build),
        deploy: of(|s| s.deploy),
        format: of(|s| s.format),
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Untraced iterations for `seconds`, each after set-up rehearsals.
fn end_to_end(ck: &mut Checker, seconds: f64) -> Option<Measured> {
    let mut setups = Setups::default();
    let (mut host, mut host_raw) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let rehearsed = rehearse_setup(ck);
        let mut phases = 0.0;
        for i in 0..ck.wl.runs.len() {
            phases += ck.pass(i, Probe::Plain)?.phase_s;
        }
        let speed = ck.close_iteration();
        setups.push(rehearsed, speed);
        host.push(phases * speed);
        host_raw.push(phases);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let Some(rss) = peak_rss_mib() else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return None;
    };
    Some(Measured {
        metrics: vec![
            metric("host_s", median(&host), "s"),
            // the sum of the `setup.*` per-layer metrics
            metric("setup_s", median_setup(&setups.scaled).total(), "s"),
            metric("peak_rss_mib", rss, "MiB"),
        ],
        info: vec![
            metric("raw.host_s", median(&host_raw), "s"),
            metric("raw.setup_s", median_setup(&setups.raw).total(), "s"),
        ],
    })
}

/// The passes of one run in one traced round, at the reference speed.
struct Traced<'a> {
    key: &'a str,
    faulted: bool,
    /// Callbacks timed, spans off (for faulted runs: a plain pass).
    timed: Outcome,
    spans: Outcome,
    /// Faulted runs: the same run without the scrubber.
    unscrubbed: Option<Outcome>,
}

fn total(of: &[&Traced], f: impl Fn(&Traced) -> f64) -> f64 {
    of.iter().map(|t| f(t)).sum()
}

/// Every per-layer metric of one traced round, and its `sim.*` values.
fn layer_metrics(round: &[Traced]) -> Measured {
    let mut m = Vec::new();
    let mut sim = Vec::new();
    let built: Vec<&Traced> = round.iter().filter(|t| !t.faulted).collect();
    let find = |key: &str| built.iter().find(|t| t.key == key);
    let engine_s = |o: &Outcome| o.phase_s - o.op_build_s;
    let per_op_us = |s: f64, o: &Outcome| ratio(s * 1e6, o.ops() as f64);

    let all: Vec<&Traced> = round.iter().collect();
    let recomputes = total(&built, |t| t.timed.engine.recomputes as f64);
    let flow_visits = total(&built, |t| t.timed.engine.flow_visits as f64);
    let fill_iters = total(&built, |t| t.timed.engine.fill_iters as f64);
    m.push(metric(
        "simkit.engine_s",
        total(&built, |t| engine_s(&t.timed)),
        "s",
    ));
    m.push(metric("simkit.recomputes", recomputes, "count"));
    m.push(metric("simkit.flow_visits", flow_visits, "count"));
    m.push(metric("simkit.fill_iters", fill_iters, "count"));
    m.push(metric(
        "simkit.flow_visits_per_recompute",
        ratio(flow_visits, recomputes),
        "ratio",
    ));
    for key in BUILT_KEYS {
        let v = find(key).map_or(0.0, |t| per_op_us(engine_s(&t.timed), &t.timed));
        m.push(metric(format!("simkit.engine_us_per_op.{key}"), v, "us"));
    }
    m.push(metric(
        "iface.op_build_s",
        total(&built, |t| t.timed.op_build_s),
        "s",
    ));
    for key in BUILT_KEYS {
        let v = find(key).map_or(0.0, |t| per_op_us(t.timed.op_build_s, &t.timed));
        m.push(metric(format!("iface.op_build_us_per_op.{key}"), v, "us"));
    }

    let scrubbed: Vec<(&Outcome, &Outcome)> = round
        .iter()
        .filter_map(|t| t.unscrubbed.as_ref().map(|u| (&t.timed, u)))
        .collect();
    let scrub_s: f64 = scrubbed
        .iter()
        .map(|(on, off)| on.phase_s - off.phase_s)
        .sum();
    let units: u64 = scrubbed.iter().map(|(on, _)| on.scrub.units_scanned).sum();
    let waves: u64 = scrubbed.iter().map(|(on, _)| on.scrub.waves).sum();
    m.push(metric("core.scrub_s", scrub_s, "s"));
    m.push(metric(
        "core.scrub_us_per_unit",
        ratio(scrub_s * 1e6, units as f64),
        "us",
    ));
    let plain = total(&all, |t| t.timed.phase_s);
    let traced = total(&all, |t| t.spans.phase_s);
    m.push(metric(
        "trace.overhead_pct",
        100.0 * (ratio(traced, plain) - 1.0),
        "%",
    ));

    sim.push(metric("sim.scrub.units", units as f64, "count"));
    sim.push(metric("sim.scrub.waves", waves as f64, "count"));
    let mut retry = daos_core::RetryStats::default();
    for t in round {
        retry.merge(&t.timed.retry);
    }
    let useful = retry.attempts.saturating_sub(retry.retries + retry.gave_up);
    sim.push(metric("sim.retry.attempts", retry.attempts as f64, "count"));
    sim.push(metric("sim.retry.retries", retry.retries as f64, "count"));
    sim.push(metric(
        "sim.retry.useful_frac",
        ratio(useful as f64, retry.attempts as f64),
        "ratio",
    ));
    sim.push(metric(
        "sim.rebuild.shards",
        total(&all, |t| t.timed.rebuild_shards as f64),
        "count",
    ));
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for t in round {
        for (layer, ns) in &t.spans.self_ns {
            *self_ns.entry(layer).or_insert(0) += ns;
        }
    }
    let total_ns = self_ns.values().sum::<u64>() as f64;
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0) as f64;
        sim.push(metric(
            format!("sim.self_share.{layer}"),
            ratio(ns, total_ns),
            "ratio",
        ));
    }
    for key in BUILT_KEYS.iter().chain(&FAULTED_KEYS) {
        let Some(t) = round.iter().find(|t| t.key == *key) else {
            continue;
        };
        let gib_s = |bw: f64| bw / cluster::GIB;
        sim.push(metric(
            format!("sim.{key}.write_gib_s"),
            gib_s(t.timed.write.bandwidth()),
            "GiB/s",
        ));
        sim.push(metric(
            format!("sim.{key}.read_gib_s"),
            gib_s(t.timed.read.bandwidth()),
            "GiB/s",
        ));
    }
    let read_on: f64 = scrubbed.iter().map(|(on, _)| on.read.seconds).sum();
    let read_off: f64 = scrubbed.iter().map(|(_, off)| off.read.seconds).sum();
    if read_off > 0.0 {
        sim.push(metric(
            "sim.scrub.read_slowdown_pct",
            100.0 * (read_on / read_off - 1.0),
            "%",
        ));
    }
    Measured {
        metrics: m,
        info: sim,
    }
}

/// Traced rounds for `seconds`: per run a callback-timed pass, a span
/// pass, and for faulted runs a pass without the scrubber.  Timing
/// metrics are medians over rounds; counts and `sim.*` values repeat
/// exactly.
fn per_layer(ck: &mut Checker, seconds: f64) -> Option<Measured> {
    let wl = ck.wl;
    let mut setups = Setups::default();
    let mut rounds: Vec<Measured> = Vec::new();
    let t0 = Instant::now();
    loop {
        let rehearsed = rehearse_setup(ck);
        let mut round = Vec::new();
        for (i, run) in wl.runs.iter().enumerate() {
            let faulted = matches!(run.kind, Kind::Faulted(_));
            let timed = ck.pass(i, Probe::Timed)?;
            let spans = ck.pass(i, Probe::Spans)?;
            let unscrubbed = if faulted {
                Some(ck.pass(i, Probe::NoScrub)?)
            } else {
                None
            };
            round.push(Traced {
                key: run.key,
                faulted,
                timed,
                spans,
                unscrubbed,
            });
        }
        let speed = ck.close_iteration();
        setups.push(rehearsed, speed);
        for t in &mut round {
            for o in [&mut t.timed, &mut t.spans]
                .into_iter()
                .chain(t.unscrubbed.as_mut())
            {
                scale(o, speed);
            }
        }
        rounds.push(layer_metrics(&round));
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut out = rounds.pop().expect("at least one round");
    for (j, m) in out.metrics.iter_mut().enumerate() {
        let mut values: Vec<f64> = rounds.iter().map(|r| r.metrics[j].value).collect();
        values.push(m.value);
        m.value = median(&values);
    }
    let setup = median_setup(&setups.scaled);
    out.metrics.extend([
        metric("setup.cluster_build_s", setup.cluster_build, "s"),
        metric("setup.deploy_s", setup.deploy, "s"),
        metric("setup.format_s", setup.format, "s"),
    ]);
    Some(out)
}

/// What one invocation reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    measured: Measured,
    digests: Vec<(&'static str, u64)>,
    yardstick_ms: f64,
}

fn measure(wl: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut ck = Checker::new(wl, workloads::calibration(seed));
    let measured = if trace {
        per_layer(&mut ck, seconds)
    } else {
        end_to_end(&mut ck, seconds)
    };
    Report {
        correct: measured.is_some() && ck.failed == 0,
        attempted: ck.attempted,
        failed: ck.failed,
        measured: measured.unwrap_or(Measured {
            metrics: Vec::new(),
            info: Vec::new(),
        }),
        digests: ck.digests(),
        yardstick_ms: ck.yardstick_ms(),
    }
}

impl Report {
    fn render(&self) -> String {
        let mut out = String::new();
        let Measured { metrics, info } = &self.measured;
        for m in metrics.iter().chain(info) {
            out.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
        }
        for (key, digest) in &self.digests {
            out.push_str(&format!("digest.{key} {digest:#018x}\n"));
        }
        out.push_str(&format!("yardstick {} ms\n", self.yardstick_ms));
        let metrics = metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::num_f64(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        let json = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num_u64(self.attempted)),
            ("failed".into(), Json::num_u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        out.push_str(&json.render());
        out
    }
}

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       benchmark --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `Ok(None)` for `--list`.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err(bad("a finite number of seconds"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(out))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", workloads::render_list());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::workload(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {:?}; one of {}\n{USAGE}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = measure(&wl, args.seed, args.seconds, args.trace);
    println!("{}", report.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchkit::RunSpec;
    use std::collections::BTreeSet;

    /// The workload with every run shrunk to a few ops.
    fn tiny(name: &str) -> Workload {
        let mut wl = workloads::workload(name, 0).expect("workload exists");
        for run in &mut wl.runs {
            run.spec = match run.kind {
                Kind::Built(_) => {
                    let mut s = RunSpec::new(2, 2, 2);
                    s.ops_per_proc = 8;
                    s.transfer = run.spec.transfer;
                    s
                }
                Kind::Faulted(_) => {
                    let mut s = benchkit::default_faulted_spec();
                    s.ops_per_proc = 32;
                    s
                }
            };
        }
        wl
    }

    /// Metric names a section of `BENCHMARK.json` declares.
    fn declared(section: &str) -> BTreeSet<String> {
        let json = benchmark_json();
        let entries = json.get(section).and_then(Json::as_arr).expect(section);
        entries
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name"))
            .map(str::to_string)
            .collect()
    }

    fn benchmark_json() -> Json {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        simkit::json::parse(text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn workloads_match_the_declared_ones() {
        let json = benchmark_json();
        let declared: Vec<(&str, &str)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).expect(k);
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = workloads::NAMES
            .iter()
            .map(|n| workloads::workload(n, 0).expect("listed"))
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(ours, declared);
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
    }

    #[test]
    fn every_workload_runs_clean_and_prints_the_declared_metrics() {
        for name in workloads::NAMES {
            let wl = tiny(name);
            for (trace, section, info) in
                [(false, "end_to_end", "raw."), (true, "per_layer", "sim.")]
            {
                let r = measure(&wl, 0, 0.0, trace);
                assert!(r.correct && r.failed == 0, "{name} trace={trace}");
                assert_eq!(r.digests.len(), wl.runs.len(), "{name}");
                let Measured {
                    metrics,
                    info: extra,
                } = &r.measured;
                let names: BTreeSet<String> = metrics
                    .iter()
                    .chain(extra)
                    .map(|m| m.name.clone())
                    .collect();
                assert_eq!(
                    names.len(),
                    metrics.len() + extra.len(),
                    "{name}: duplicates"
                );
                for m in metrics.iter().chain(extra) {
                    assert!(valid_name(&m.name), "{name}: bad name {:?}", m.name);
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                }
                let compared: BTreeSet<String> = metrics.iter().map(|m| m.name.clone()).collect();
                assert_eq!(compared, declared(section), "{name}: {section} differs");
                assert!(extra.iter().all(|m| m.name.starts_with(info)), "{name}");
            }
        }
    }

    #[test]
    fn passes_reproduce_benchkit_under_every_probe() {
        let cal = workloads::calibration(7);
        for name in workloads::NAMES {
            for run in tiny(name).runs {
                let want = scenario::reference(run.kind, &run.spec, &cal);
                let want = want.unwrap_or_else(|e| panic!("{}: {e}", run.key));
                for probe in [Probe::Plain, Probe::Timed, Probe::Spans] {
                    let o = scenario::pass(run.kind, &run.spec, &cal, probe);
                    assert_eq!(Reference::of(&o), want, "{} {probe:?}", run.key);
                }
            }
        }
    }

    #[test]
    fn a_digest_mismatch_fails_the_run() {
        let wl = tiny("fig2-small");
        let mut ck = Checker::new(&wl, workloads::calibration(0));
        let planned = 2 * (wl.runs[0].spec.procs() * wl.runs[0].spec.ops_per_proc) as u64;
        ck.refs[0].as_mut().expect("reference").digest ^= 1;
        assert!(ck.pass(0, Probe::Plain).is_none());
        assert_eq!((ck.attempted, ck.failed), (planned, planned));
        assert!(ck.pass(1, Probe::Plain).is_some());
    }

    /// The `[profile.release]` settings of a manifest.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// A package of its own cannot inherit the repository's profile, so
    /// it keeps a copy; this holds the copy to the original, so that the
    /// benchmark keeps timing the code `repro` runs.
    #[test]
    fn release_profile_matches_the_repository_one() {
        let ours = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let repo = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert_eq!(release_profile(ours), release_profile(repo));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fig1-bulk --seed 4 --seconds 2 --trace 1")
            .expect("valid")
            .expect("not --list");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig1-bulk", 4, 2.0, true)
        );
        assert!(parse("--list").expect("valid").is_none());
        for bad in [
            "--trace 2",
            "--seed -1",
            "--seconds nan",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
