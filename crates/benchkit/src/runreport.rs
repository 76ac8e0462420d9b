//! Unified run reports: one artifact per run aggregating bandwidth,
//! windowed utilisation (with peak windows and busy intervals), tail
//! latencies up to p99.9, telemetry counter totals and SLO verdicts.
//!
//! A [`RunReport`] is collected from a scheduler that ran with the
//! telemetry registry, span recording and a windowed [`Monitor`] all
//! enabled — the three observers that, per their shared determinism
//! contract, never perturb the replay digest.  It renders two ways:
//!
//! * [`RunReport::render_json`] — stable field order via
//!   [`simkit::Json`], exact integers, byte-identical across replays
//!   (the artifact CI uploads and diffs);
//! * [`RunReport::render_text`] — the aligned human-readable summary.
//!
//! Beside it, [`SpanExports`] carries the span-derived artifacts of the
//! same run: the Chrome `trace_event` JSON (Perfetto-loadable, with the
//! telemetry counter tracks merged in when the registry is on), the
//! text critical-path report and the raw attribution rows.
//! [`run_reported`] is the one observed run of a plain scenario and
//! returns both; the faulted family collects [`SpanExports`] from its
//! traced runs the same way.
//!
//! The SLO half is declarative: a rule set ([`default_slo_rules`] for
//! the healthy scenario family, [`faulted_slo_rules`] for runs where
//! faults are *supposed* to fire) is evaluated after the run by
//! [`simkit::evaluate_slos`] and the verdicts land in the report.  The
//! repro harness's `report` target compares those verdicts against the
//! committed `SLO_baseline.json` and fails CI when a rule that passed
//! at the seed starts failing.

use crate::driver::PhaseResult;
use crate::scenarios::{make_sched, run_scenario_on, RunSpec, Scenario};
use cluster::Calibration;
use simkit::{
    chrome_trace_json_with_counters, critical_path, critical_path_report, evaluate_slos,
    layer_histograms, render_slo_text, Json, Monitor, PathContribution, Rate, ResourceId,
    Scheduler, SloInputs, SloRule, SloVerdict,
};
use std::fmt::Write as _;

/// Telemetry / monitor window width for reported runs: 10 ms of sim
/// time, fine enough that a small scenario still spans tens of windows,
/// coarse enough that counter-track exports stay a few hundred KiB.
pub const RUN_REPORT_WINDOW_NS: u64 = 10_000_000;

/// Utilisation fraction at or above which a window counts as busy for
/// the report's busy-interval rows.
pub const BUSY_THRESHOLD: f64 = 0.95;

/// The sweep point of `repro report` and its committed
/// `results/report-*` artifacts: 2 servers, 2 client nodes × 4
/// processes, 24 ops per process.
pub fn report_spec() -> RunSpec {
    let mut spec = RunSpec::new(2, 2, 4);
    spec.ops_per_proc = 24;
    spec
}

/// The SLO rule set for healthy runs: bounded tails, no endless
/// saturation, no faults, no exhausted retries.
pub fn default_slo_rules() -> Vec<SloRule> {
    vec![
        // No (layer, op) pair's p99.9 latency past 30 simulated seconds.
        SloRule::latency("tail-p999-bounded", "*", "*", 999, 30_000_000_000),
        // No resource pinned at >=99.9% capacity for 2000 consecutive
        // windows (20 s of sim time at the report window width).
        SloRule::utilisation_burn("no-endless-saturation", "*", 999, 2_000),
        SloRule::counter_ceiling("no-faults-fired", "engine.faults.fired", 0),
        SloRule::counter_ceiling("no-ops-gave-up", "daos.retry.gave_up", 0),
        // the end-to-end integrity contract: a verified read either
        // serves bytes whose checksum matches or refuses — never both
        SloRule::counter_ceiling("served-corrupt-never", "daos.csum.served_corrupt", 0),
        SloRule::counter_ceiling("scrub-all-repairable", "daos.scrub.unrepairable", 0),
    ]
}

/// The SLO rule set for the faulted/chaos/rebalance families: faults
/// fire by design, but tails stay bounded, retries must absorb every
/// failure, and the schedule stays within the chaos budget.
pub fn faulted_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule::latency("tail-p999-bounded", "*", "*", 999, 30_000_000_000),
        SloRule::counter_ceiling("no-ops-gave-up", "daos.retry.gave_up", 0),
        SloRule::counter_ceiling("faults-bounded", "engine.faults.fired", 64),
        // even under chaos, corrupt bytes are never served: detected rot
        // is repaired in place or the read refuses loudly
        SloRule::counter_ceiling("served-corrupt-never", "daos.csum.served_corrupt", 0),
        SloRule::counter_ceiling("scrub-all-repairable", "daos.scrub.unrepairable", 0),
    ]
}

/// One resource's utilisation row: the monitor's windowed series
/// summarised by mean, peak (with its window), and the intervals spent
/// at or above [`BUSY_THRESHOLD`].
#[derive(Debug, Clone)]
pub struct ResourceReport {
    /// Resource name as registered with the scheduler.
    pub name: String,
    /// Mean utilisation fraction over all windows.
    pub mean_fraction: f64,
    /// Peak single-window utilisation fraction.
    pub peak_fraction: f64,
    /// Index of the peak window (earliest on ties).
    pub peak_window: usize,
    /// Half-open `[start, end)` window runs at or above the busy
    /// threshold.
    pub busy: Vec<(usize, usize)>,
}

/// One `(layer, op)` latency row, quantiles from the span histograms.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Span layer.
    pub layer: &'static str,
    /// Operation within the layer.
    pub op: &'static str,
    /// Closed spans measured.
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
}

/// The unified per-run artifact.  Byte-identical across replays of the
/// same run in both renderings.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario display name.
    pub scenario: String,
    /// Write-phase bandwidth in GiB/s.
    pub write_gib: f64,
    /// Read-phase bandwidth in GiB/s.
    pub read_gib: f64,
    /// Replay digest over the `(time, op)` completion stream.
    pub replay_digest: u64,
    /// Span-stream digest.
    pub span_digest: u64,
    /// Telemetry/monitor window width.
    pub window_ns: u64,
    /// Windows the longest metric row spans.
    pub num_windows: usize,
    /// Per-resource utilisation rows (capacity resources only, ordered
    /// by registration).
    pub resources: Vec<ResourceReport>,
    /// Per-`(layer, op)` latency quantiles, key order.
    pub latencies: Vec<LatencyRow>,
    /// Telemetry totals, name order.
    pub counters: Vec<(String, u64)>,
    /// SLO verdicts, rule order.
    pub verdicts: Vec<SloVerdict>,
}

impl RunReport {
    /// Collect a report from a scheduler that ran with telemetry, spans
    /// and a windowed monitor enabled.
    pub fn collect(
        sched: &Scheduler,
        scenario: &str,
        write: &PhaseResult,
        read: &PhaseResult,
        rules: &[SloRule],
    ) -> RunReport {
        let tel = sched.telemetry();
        let hists = layer_histograms(sched.spans());
        let mon = sched.monitor();
        let caps = sched.capacities().to_vec();

        let mut utilisation: Vec<(String, Vec<f64>)> = Vec::new();
        let mut resources = Vec::new();
        for (i, &cap) in caps.iter().enumerate() {
            if cap <= Rate::ZERO {
                continue;
            }
            let r = ResourceId(i as u32);
            let fr = mon.window_fractions(r, cap);
            if fr.is_empty() {
                continue;
            }
            let mean = fr.iter().sum::<f64>() / fr.len() as f64;
            let (peak_window, peak_fraction) = mon.peak_window(r, cap).unwrap_or((0, 0.0));
            resources.push(ResourceReport {
                name: sched.resource_name(r).to_string(),
                mean_fraction: mean,
                peak_fraction,
                peak_window,
                busy: mon.busy_intervals(r, cap, BUSY_THRESHOLD),
            });
            utilisation.push((sched.resource_name(r).to_string(), fr));
        }

        let latencies = hists
            .iter()
            .map(|(&(layer, op), h)| {
                let (p50, p95, p99, p999, max) = h.summary();
                LatencyRow {
                    layer,
                    op,
                    count: h.count(),
                    p50,
                    p95,
                    p99,
                    p999,
                    max,
                }
            })
            .collect();

        let mut counters: Vec<(String, u64)> = tel
            .views()
            .iter()
            .map(|v| (v.name.to_string(), v.total))
            .collect();
        counters.sort();

        let verdicts = evaluate_slos(
            rules,
            &SloInputs {
                latencies: &hists,
                utilisation: &utilisation,
                telemetry: tel,
            },
        );

        RunReport {
            scenario: scenario.to_string(),
            write_gib: write.bandwidth() / cluster::GIB,
            read_gib: read.bandwidth() / cluster::GIB,
            replay_digest: sched.digest(),
            span_digest: sched.span_digest(),
            window_ns: tel.window_ns(),
            num_windows: tel.num_windows(),
            resources,
            latencies,
            counters,
            verdicts,
        }
    }

    /// True when every SLO rule passed.
    pub fn slo_ok(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// The report as a [`Json`] tree with stable field order.
    pub fn to_json(&self) -> Json {
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let resources = self
            .resources
            .iter()
            .map(|r| {
                obj(vec![
                    ("name", Json::Str(r.name.clone())),
                    (
                        "mean_fraction",
                        Json::Num(format!("{:.4}", r.mean_fraction)),
                    ),
                    (
                        "peak_fraction",
                        Json::Num(format!("{:.4}", r.peak_fraction)),
                    ),
                    ("peak_window", Json::num_u64(r.peak_window as u64)),
                    (
                        "busy",
                        Json::Arr(
                            r.busy
                                .iter()
                                .map(|&(s, e)| {
                                    Json::Arr(vec![
                                        Json::num_u64(s as u64),
                                        Json::num_u64(e as u64),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let latencies = self
            .latencies
            .iter()
            .map(|l| {
                obj(vec![
                    ("layer", Json::Str(l.layer.to_string())),
                    ("op", Json::Str(l.op.to_string())),
                    ("count", Json::num_u64(l.count)),
                    ("p50", Json::num_u64(l.p50)),
                    ("p95", Json::num_u64(l.p95)),
                    ("p99", Json::num_u64(l.p99)),
                    ("p999", Json::num_u64(l.p999)),
                    ("max", Json::num_u64(l.max)),
                ])
            })
            .collect();
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(name, total)| (name.clone(), Json::num_u64(*total)))
                .collect(),
        );
        let slo = self
            .verdicts
            .iter()
            .map(|v| {
                obj(vec![
                    ("rule", Json::Str(v.rule.clone())),
                    ("pass", Json::Bool(v.pass)),
                    ("observed", Json::num_u64(v.observed)),
                    ("limit", Json::num_u64(v.limit)),
                ])
            })
            .collect();
        obj(vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("write_bw_gib", Json::Num(format!("{:.3}", self.write_gib))),
            ("read_bw_gib", Json::Num(format!("{:.3}", self.read_gib))),
            (
                "replay_digest",
                Json::Str(format!("{:#018x}", self.replay_digest)),
            ),
            (
                "span_digest",
                Json::Str(format!("{:#018x}", self.span_digest)),
            ),
            ("window_ns", Json::num_u64(self.window_ns)),
            ("num_windows", Json::num_u64(self.num_windows as u64)),
            ("resources", Json::Arr(resources)),
            ("latency_ns", Json::Arr(latencies)),
            ("counters", counters),
            ("slo", Json::Arr(slo)),
        ])
    }

    /// Render the JSON artifact (stable order, trailing newline).
    pub fn render_json(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }

    /// Render the aligned text summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== run report: {} ==", self.scenario);
        let _ = writeln!(
            out,
            "bandwidth: write {:.3} GiB/s, read {:.3} GiB/s",
            self.write_gib, self.read_gib
        );
        let _ = writeln!(
            out,
            "replay digest {:#018x}, span digest {:#018x}",
            self.replay_digest, self.span_digest
        );
        let _ = writeln!(
            out,
            "telemetry: {} metrics over {} windows of {} ms",
            self.counters.len(),
            self.num_windows,
            self.window_ns / 1_000_000
        );
        let _ = writeln!(out, "\nutilisation (mean / peak @ window, busy runs):");
        for r in &self.resources {
            let busy: Vec<String> = r.busy.iter().map(|&(s, e)| format!("{s}..{e}")).collect();
            let _ = writeln!(
                out,
                "  {:<24} {:>6.3} / {:>6.3} @ {:<6} [{}]",
                r.name,
                r.mean_fraction,
                r.peak_fraction,
                r.peak_window,
                busy.join(", ")
            );
        }
        let _ = writeln!(out, "\nlatency (p50/p95/p99/p99.9/max) us:");
        for l in &self.latencies {
            let us = |ns: u64| ns as f64 / 1_000.0;
            let _ = writeln!(
                out,
                "  {:<10} {:<12} n={:<7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                l.layer,
                l.op,
                l.count,
                us(l.p50),
                us(l.p95),
                us(l.p99),
                us(l.p999),
                us(l.max)
            );
        }
        let _ = writeln!(out, "\ncounters:");
        for (name, total) in &self.counters {
            let _ = writeln!(out, "  {name:<40} {total:>12}");
        }
        let _ = writeln!(out, "\nslo:");
        out.push_str(&render_slo_text(&self.verdicts));
        out
    }
}

/// The span-derived artifacts of one traced run.
#[derive(Debug, Clone)]
pub struct SpanExports {
    /// Order-sensitive digest of the span open/close/mark stream (see
    /// [`simkit::SpanLog::digest`]); identical across replays.
    pub span_digest: u64,
    /// Number of spans recorded.
    pub span_count: usize,
    /// Chrome `trace_event` JSON, with the telemetry counter tracks
    /// merged in when the run had the registry on.
    pub chrome_json: String,
    /// Text critical-path + latency report.
    pub critical_path: String,
    /// Critical-path attribution rows, self-time descending.
    pub path: Vec<PathContribution>,
}

impl SpanExports {
    /// Collect every export from a scheduler that ran with spans on.
    pub fn collect(sched: &Scheduler) -> SpanExports {
        let log = sched.spans();
        let path = critical_path(log);
        SpanExports {
            span_digest: sched.span_digest(),
            span_count: log.len(),
            chrome_json: chrome_trace_json_with_counters(log, sched.telemetry()),
            critical_path: critical_path_report(log, &path),
            path,
        }
    }

    /// Top `n` critical-path contributors of `layer`, self-time
    /// descending (the rows are already globally sorted).
    pub fn top_of_layer(&self, layer: &str, n: usize) -> Vec<&PathContribution> {
        self.path
            .iter()
            .filter(|c| c.layer == layer)
            .take(n)
            .collect()
    }

    /// Every layer that appears on the critical path, in first-appearance
    /// (self-time descending) order.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for c in &self.path {
            if !seen.contains(&c.layer) {
                seen.push(c.layer);
            }
        }
        seen
    }
}

/// One reported run of a plain scenario.
#[derive(Debug, Clone)]
pub struct ReportedRun {
    /// The unified report.
    pub report: RunReport,
    /// The span exports; their Chrome JSON carries the telemetry
    /// counter tracks — load it in Perfetto to see spans and counters
    /// on one timeline.
    pub exports: SpanExports,
}

/// Run a plain scenario with telemetry, spans and a windowed monitor
/// all enabled, and collect the unified report plus the span exports.
/// The scheduler configuration is identical to
/// [`crate::run_scenario_digest`]'s, so the replay digest in the report
/// must equal the unobserved run's — the contract the span determinism
/// suite asserts for every scenario.
pub fn run_reported(
    spec: &RunSpec,
    scen: Scenario,
    cal: &Calibration,
    rules: &[SloRule],
) -> ReportedRun {
    let mut sched = make_sched(spec, false);
    sched.set_monitor(Monitor::windowed(RUN_REPORT_WINDOW_NS));
    sched.enable_spans();
    sched.enable_telemetry(RUN_REPORT_WINDOW_NS);
    let (result, _) = run_scenario_on(&mut sched, spec, scen, cal);
    ReportedRun {
        report: RunReport::collect(&sched, scen.name(), &result.write, &result.read, rules),
        exports: SpanExports::collect(&sched),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulted::{run_faulted_with, FaultedOpts, FaultedScenario};
    use crate::rebalance::{run_rebalance_with, RebalanceOpts, RebalanceScenario};
    use crate::scenarios::run_scenario_digest;

    fn small_spec() -> RunSpec {
        let mut spec = RunSpec::new(1, 1, 2);
        spec.ops_per_proc = 8;
        spec
    }

    #[test]
    fn reported_run_matches_untelemetered_digest() {
        let spec = small_spec();
        let cal = Calibration::default();
        let (_, plain) = run_scenario_digest(&spec, Scenario::IorDfs, &cal);
        let reported = run_reported(&spec, Scenario::IorDfs, &cal, &default_slo_rules());
        assert_eq!(
            reported.report.replay_digest, plain,
            "telemetry changed the schedule"
        );
        assert!(reported.report.num_windows > 0, "no windows sampled");
        assert!(
            reported
                .report
                .counters
                .iter()
                .any(|(n, _)| n == "engine.ops.completed"),
            "engine counters missing"
        );
    }

    #[test]
    fn healthy_run_passes_default_slos() {
        let r = run_reported(
            &small_spec(),
            Scenario::IorDaos,
            &Calibration::default(),
            &default_slo_rules(),
        );
        assert!(r.report.slo_ok(), "{:?}", r.report.verdicts);
        // json parses back and keeps the verdict count
        let parsed = simkit::json::parse(&r.report.render_json()).expect("valid json");
        assert_eq!(
            parsed.get("slo").and_then(|s| s.as_arr()).map(|a| a.len()),
            Some(default_slo_rules().len())
        );
        assert!(parsed.get("scenario").is_some());
    }

    #[test]
    fn report_folds_busy_intervals_and_tail_latencies() {
        let r = run_reported(
            &small_spec(),
            Scenario::IorDfuse,
            &Calibration::default(),
            &default_slo_rules(),
        );
        assert!(!r.report.resources.is_empty(), "no utilisation rows");
        assert!(!r.report.latencies.is_empty(), "no latency rows");
        for l in &r.report.latencies {
            assert!(l.p999 >= l.p99, "{}.{}: p99.9 below p99", l.layer, l.op);
            assert!(l.max >= l.p999);
        }
        let text = r.report.render_text();
        assert!(text.contains("p99.9"), "{text}");
        assert!(text.contains("slo:"));
    }

    #[test]
    fn faulted_report_carries_retry_and_rebuild_counters() {
        let mut spec = crate::faulted::default_faulted_spec();
        spec.ops_per_proc = 32;
        let cal = Calibration::default();
        let opts = FaultedOpts {
            traced: true,
            telemetry: true,
            ..FaultedOpts::default()
        };
        let (r, _) = run_faulted_with(&spec, FaultedScenario::IorEasyRp2, &cal, &opts);
        let run = r.run_report.as_ref().expect("telemetry report");
        let total = |name: &str| {
            run.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(total("daos.retry.attempts"), r.retry.attempts);
        assert_eq!(total("daos.retry.retries"), r.retry.retries);
        assert!(total("engine.faults.fired") > 0, "no faults counted");
        let rb = r.rebuild.as_ref().expect("rebuild ran");
        assert_eq!(
            total("daos.rebuild.shards_rebuilt"),
            rb.shards_rebuilt as u64
        );
        assert!(total("span.retry.backoff") > 0, "retry spans not counted");
        assert!(run.slo_ok(), "{:?}", run.verdicts);
        // telemetry+spans leave the faulted digest untouched
        let plain = crate::faulted::run_faulted(&spec, FaultedScenario::IorEasyRp2, &cal);
        assert_eq!(
            r.digest, plain.digest,
            "telemetry changed the faulted schedule"
        );
    }

    #[test]
    fn rebalance_report_carries_migration_counters() {
        let mut spec = crate::chaos::default_chaos_spec();
        spec.ops_per_proc = 24;
        let opts = RebalanceOpts {
            telemetry: true,
            ..RebalanceOpts::default()
        };
        let r = run_rebalance_with(
            &spec,
            RebalanceScenario::IorEasyRp2,
            &Calibration::default(),
            &opts,
        )
        .unwrap();
        let run = r.run_report.as_ref().expect("telemetry report");
        let total = |name: &str| {
            run.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(
            total("daos.migration.moves_done"),
            r.migration.moves_done as u64
        );
        assert!(
            total("engine.faults.fired") > 0,
            "membership events counted"
        );
    }
}
