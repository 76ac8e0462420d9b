//! Deterministic, digest-neutral telemetry: interned-name counters and
//! gauges sampled into fixed sim-time windows, plus an SLO rule engine.
//!
//! The paper explains every plateau by pointing at the saturated
//! resource; the whole-run means in [`crate::monitor`] answer *which*
//! resource but not *when*.  This module adds the time dimension: the
//! engine (and the storage layers above it) publish counters (monotonic
//! event counts: op completions, fair-share re-solves, retries, fault
//! activations) and gauges (instantaneous levels: in-flight flows,
//! pending timers, queue depths) into a [`Telemetry`] registry that
//! buckets every update into fixed `window_ns` windows of *simulated*
//! time.  Derived rates are computed at export time with integer
//! arithmetic only, so two identical runs export byte-identical
//! artifacts.
//!
//! Determinism contract (mirrors [`crate::span::SpanLog`]):
//!
//! * **Off by default.**  A disabled registry costs one branch per hook
//!   and allocates nothing.
//! * **Read-only.**  Telemetry observes the schedule; nothing it records
//!   feeds back into event times, flow rates, or the replay digest.
//!   Enabling it must leave every `(time, op)` completion digest
//!   byte-identical to an untelemetered run.
//! * **Replayable.**  Updates are keyed by sim time, which is itself
//!   deterministic, so two runs of the same workload produce identical
//!   window series and identical exports.
//!
//! The SLO half evaluates declarative rules — latency-quantile
//! thresholds over span histograms, utilisation burn windows over the
//! monitor's windowed series, counter ceilings over telemetry totals —
//! after the run, in sim time, producing per-rule [`SloVerdict`]s that
//! the benchmark harness folds into its run reports and CI gates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Histogram;
use crate::time::SimTime;
use crate::units::NS_PER_SEC_INT;

/// Identifier of a registered metric (dense, registration-ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(pub u32);

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count; windows hold per-window deltas.
    Counter,
    /// Instantaneous level; windows hold the per-window maximum.
    Gauge,
}

#[derive(Debug)]
struct Metric {
    name: String,
    kind: MetricKind,
    /// Counters: running total.  Gauges: current level.
    value: u64,
    /// Per-window samples: counter deltas or gauge maxima.  Rows grow
    /// lazily as sim time advances; gauge gaps are filled with the level
    /// carried across them, so the series is exact, not event-sampled.
    windows: Vec<u64>,
}

/// Read-only view of one metric for exporters.
#[derive(Debug, Clone, Copy)]
pub struct MetricView<'a> {
    /// Interned metric name.
    pub name: &'a str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Counter total / final gauge level.
    pub total: u64,
    /// Per-window series (see [`MetricKind`] for the sample meaning).
    pub windows: &'a [u64],
}

/// The telemetry registry: interned counters and gauges bucketed into
/// fixed sim-time windows.  Off by default; see the module docs for the
/// determinism contract.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    /// Window width in ns (0 while disabled).
    window_ns: u64,
    metrics: Vec<Metric>,
    names: BTreeMap<String, MetricId>,
    /// Fast path for span-derived counters: `(layer, op)` pairs are
    /// `&'static str`s, so the steady-state lookup never builds a name.
    span_keys: BTreeMap<(&'static str, &'static str), MetricId>,
    /// Per-resource in-flight flow gauges, indexed by resource id.
    res_gauges: Vec<Option<MetricId>>,
}

impl Telemetry {
    /// A registry that records nothing (the default; one branch of
    /// overhead per hook).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A recording registry sampling into `window_ns`-wide windows.
    pub fn enabled(window_ns: u64) -> Telemetry {
        assert!(window_ns > 0, "telemetry window width must be positive");
        Telemetry {
            enabled: true,
            window_ns,
            ..Telemetry::default()
        }
    }

    /// Whether sampling is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Window width in nanoseconds (0 while disabled).
    #[inline]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Intern `name` as a counter and return its id.  Re-registering an
    /// existing name returns the existing id (the kind must match).
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.intern(name, MetricKind::Counter)
    }

    /// Intern `name` as a gauge and return its id.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.intern(name, MetricKind::Gauge)
    }

    fn intern(&mut self, name: &str, kind: MetricKind) -> MetricId {
        if let Some(&id) = self.names.get(name) {
            debug_assert_eq!(self.metrics[id.0 as usize].kind, kind);
            return id;
        }
        let id = MetricId(self.metrics.len() as u32);
        self.metrics.push(Metric {
            name: name.to_string(),
            kind,
            value: 0,
            windows: Vec::new(),
        });
        self.names.insert(name.to_string(), id);
        id
    }

    #[inline]
    fn window_index(&self, at: SimTime) -> usize {
        (at.as_nanos() / self.window_ns) as usize
    }

    /// Add `delta` to counter `id` at sim time `at`.
    pub fn counter_add(&mut self, id: MetricId, at: SimTime, delta: u64) {
        if !self.enabled {
            return;
        }
        let w = self.window_index(at);
        let m = &mut self.metrics[id.0 as usize];
        debug_assert_eq!(m.kind, MetricKind::Counter);
        if m.windows.len() <= w {
            m.windows.resize(w + 1, 0);
        }
        m.windows[w] += delta;
        m.value += delta;
    }

    /// Add every `(name, value)` pair to its counter at sim time `at`,
    /// in order: how a storage layer publishes the totals it keeps
    /// outside the registry.  No-op (and no interning) when disabled.
    pub fn add_counters<'a>(
        &mut self,
        at: SimTime,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        for (name, value) in counters {
            let id = self.counter(name);
            self.counter_add(id, at, value);
        }
    }

    /// Set gauge `id` to `value` at sim time `at`.  Windows crossed
    /// since the previous update are filled with the carried level, so
    /// the per-window maxima are exact.
    pub fn gauge_set(&mut self, id: MetricId, at: SimTime, value: u64) {
        if !self.enabled {
            return;
        }
        let w = self.window_index(at);
        let m = &mut self.metrics[id.0 as usize];
        debug_assert_eq!(m.kind, MetricKind::Gauge);
        if m.windows.len() <= w {
            // The level held from the last sample up to this window.
            let carry = m.value;
            m.windows.resize(w + 1, carry);
        }
        m.value = value;
        m.windows[w] = m.windows[w].max(value);
    }

    /// Increment gauge `id` by one.
    #[inline]
    pub fn gauge_incr(&mut self, id: MetricId, at: SimTime) {
        if !self.enabled {
            return;
        }
        let v = self.metrics[id.0 as usize].value + 1;
        self.gauge_set(id, at, v);
    }

    /// Decrement gauge `id` by one (saturating).
    #[inline]
    pub fn gauge_decr(&mut self, id: MetricId, at: SimTime) {
        if !self.enabled {
            return;
        }
        let v = self.metrics[id.0 as usize].value.saturating_sub(1);
        self.gauge_set(id, at, v);
    }

    /// Count one span open for `(layer, op)` — the engine calls this on
    /// every span node it interprets, whether or not span *recording*
    /// is on, which is how retry/backoff, rebuild and migration-wave
    /// activity becomes a time series without the storage layers holding
    /// a scheduler reference.
    pub fn span_open(&mut self, at: SimTime, layer: &'static str, op: &'static str) {
        if !self.enabled {
            return;
        }
        let id = match self.span_keys.get(&(layer, op)) {
            Some(&id) => id,
            None => {
                let id = self.intern(&format!("span.{layer}.{op}"), MetricKind::Counter);
                self.span_keys.insert((layer, op), id);
                id
            }
        };
        self.counter_add(id, at, 1);
    }

    /// Per-resource in-flight flow gauge, interned on first use as
    /// `res.{name}.flows`.
    pub fn resource_gauge(&mut self, index: usize, name: &str) -> MetricId {
        if self.res_gauges.len() <= index {
            self.res_gauges.resize(index + 1, None);
        }
        match self.res_gauges[index] {
            Some(id) => id,
            None => {
                let id = self.intern(&format!("res.{name}.flows"), MetricKind::Gauge);
                self.res_gauges[index] = Some(id);
                id
            }
        }
    }

    /// Counter total (or current gauge level) of `name`; 0 if never
    /// registered.
    pub fn total(&self, name: &str) -> u64 {
        self.names
            .get(name)
            .map(|&id| self.metrics[id.0 as usize].value)
            .unwrap_or(0)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Widest window row across all metrics — the export length every
    /// row is padded to (counters with 0, gauges with the carried level).
    pub fn num_windows(&self) -> usize {
        self.metrics
            .iter()
            .map(|m| m.windows.len())
            .max()
            .unwrap_or(0)
    }

    /// Read-only views of every metric, in registration order.
    pub fn views(&self) -> Vec<MetricView<'_>> {
        self.metrics
            .iter()
            .map(|m| MetricView {
                name: &m.name,
                kind: m.kind,
                total: m.value,
                windows: &m.windows,
            })
            .collect()
    }

    /// The value metric `m` reports for window `w`, padding past the end
    /// of its row: counters report 0 (nothing happened), gauges report
    /// the carried level.
    fn window_value(m: &Metric, w: usize) -> u64 {
        match m.windows.get(w) {
            Some(&v) => v,
            None => match m.kind {
                MetricKind::Counter => 0,
                MetricKind::Gauge => m.value,
            },
        }
    }

    /// Derived per-second rate for a counter window delta, in integer
    /// arithmetic (exact for every representable input, so exports stay
    /// byte-stable).
    fn window_rate(&self, delta: u64) -> u64 {
        ((delta as u128 * NS_PER_SEC_INT as u128) / self.window_ns as u128) as u64
    }

    /// Perfetto counter-track events (`ph: "C"`) for every metric and
    /// window, comma-joined without a surrounding array — ready to merge
    /// into a Chrome `traceEvents` stream (see
    /// [`crate::metrics::chrome_trace_json_with_counters`]).  Counters
    /// emit both the per-window delta and the derived per-second rate as
    /// sub-tracks; gauges emit the per-window maximum.  Deterministic:
    /// metrics in registration order, windows in time order, integer
    /// formatting throughout.
    pub fn counter_events_json(&self) -> String {
        let mut out = String::new();
        if !self.enabled || self.metrics.is_empty() {
            return out;
        }
        let n = self.num_windows();
        let mut first = true;
        for m in &self.metrics {
            for w in 0..n {
                let v = Self::window_value(m, w);
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = crate::metrics::micros(w as u64 * self.window_ns);
                match m.kind {
                    MetricKind::Counter => {
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                             \"args\":{{\"value\":{v},\"rate\":{}}}}}",
                            m.name,
                            self.window_rate(v),
                        );
                    }
                    MetricKind::Gauge => {
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                             \"args\":{{\"value\":{v}}}}}",
                            m.name,
                        );
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// SLO rules
// ---------------------------------------------------------------------------

/// What an SLO rule checks.  Name fields support `*` (match anything)
/// and trailing-`*` prefix patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloKind {
    /// The `quantile_permille`-quantile latency of every matching
    /// `(layer, op)` histogram must stay at or below `max_ns`.
    LatencyQuantile {
        /// Layer pattern (`"libdaos"`, `"*"`).
        layer: String,
        /// Op pattern within the layer.
        op: String,
        /// Quantile in permille (999 = p99.9).
        quantile_permille: u32,
        /// Inclusive latency ceiling in nanoseconds.
        max_ns: u64,
    },
    /// No matching resource may sustain utilisation at or above
    /// `threshold_permille` for more than `max_windows` consecutive
    /// windows (a burn-rate budget over the monitor's windowed series).
    UtilisationBurn {
        /// Resource-name pattern.
        resource: String,
        /// Utilisation threshold in permille of capacity (950 = 95%).
        threshold_permille: u32,
        /// Longest tolerated consecutive-window burn.
        max_windows: u64,
    },
    /// The summed totals of every matching telemetry counter must stay
    /// at or below `max_total`.
    CounterCeiling {
        /// Metric-name pattern (`"daos.retry.*"`).
        metric: String,
        /// Inclusive ceiling on the summed totals.
        max_total: u64,
    },
}

/// A named SLO rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    /// Stable rule name, used in verdicts, reports and CI baselines.
    pub name: String,
    /// The check.
    pub kind: SloKind,
}

impl SloRule {
    /// Latency-quantile rule: the `quantile_permille` latency of every
    /// matching `(layer, op)` must stay at or below `max_ns`.
    pub fn latency(
        name: &str,
        layer: &str,
        op: &str,
        quantile_permille: u32,
        max_ns: u64,
    ) -> SloRule {
        SloRule {
            name: name.to_string(),
            kind: SloKind::LatencyQuantile {
                layer: layer.to_string(),
                op: op.to_string(),
                quantile_permille,
                max_ns,
            },
        }
    }

    /// Utilisation burn rule over the monitor's windowed series.
    pub fn utilisation_burn(
        name: &str,
        resource: &str,
        threshold_permille: u32,
        max_windows: u64,
    ) -> SloRule {
        SloRule {
            name: name.to_string(),
            kind: SloKind::UtilisationBurn {
                resource: resource.to_string(),
                threshold_permille,
                max_windows,
            },
        }
    }

    /// Counter-ceiling rule over telemetry totals.
    pub fn counter_ceiling(name: &str, metric: &str, max_total: u64) -> SloRule {
        SloRule {
            name: name.to_string(),
            kind: SloKind::CounterCeiling {
                metric: metric.to_string(),
                max_total,
            },
        }
    }
}

/// Outcome of one rule evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloVerdict {
    /// The rule's name.
    pub rule: String,
    /// Whether the observation stayed within the limit.
    pub pass: bool,
    /// Worst observed value (ns, consecutive windows, or counter total,
    /// depending on the rule kind).
    pub observed: u64,
    /// The rule's inclusive limit, in the same unit as `observed`.
    pub limit: u64,
}

/// Everything rule evaluation reads, collected after the run.
pub struct SloInputs<'a> {
    /// Per-`(layer, op)` latency histograms (see
    /// [`crate::metrics::layer_histograms`]).
    pub latencies: &'a BTreeMap<(&'static str, &'static str), Histogram>,
    /// Per-resource utilisation time series: `(name, window fractions)`
    /// (see [`crate::monitor::Monitor::window_fractions`]).
    pub utilisation: &'a [(String, Vec<f64>)],
    /// The telemetry registry (counter totals).
    pub telemetry: &'a Telemetry,
}

/// `*`-suffix / wildcard pattern match.
fn pat_matches(pat: &str, s: &str) -> bool {
    if pat == "*" {
        return true;
    }
    match pat.strip_suffix('*') {
        Some(prefix) => s.starts_with(prefix),
        None => pat == s,
    }
}

/// Longest run of consecutive windows at or above `threshold_permille`.
fn longest_burn(fractions: &[f64], threshold_permille: u32) -> u64 {
    let thr = threshold_permille as f64 / 1000.0;
    let mut best = 0u64;
    let mut cur = 0u64;
    for &f in fractions {
        if f >= thr {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 0;
        }
    }
    best
}

/// Evaluate `rules` against a finished run, producing one verdict per
/// rule, in rule order.  Pure and deterministic: identical inputs yield
/// identical verdicts.
pub fn evaluate_slos(rules: &[SloRule], inputs: &SloInputs) -> Vec<SloVerdict> {
    rules
        .iter()
        .map(|r| {
            let (observed, limit) = match &r.kind {
                SloKind::LatencyQuantile {
                    layer,
                    op,
                    quantile_permille,
                    max_ns,
                } => {
                    let q = *quantile_permille as f64 / 1000.0;
                    let worst = inputs
                        .latencies
                        .iter()
                        .filter(|((l, o), _)| pat_matches(layer, l) && pat_matches(op, o))
                        .map(|(_, h)| h.quantile(q))
                        .max()
                        .unwrap_or(0);
                    (worst, *max_ns)
                }
                SloKind::UtilisationBurn {
                    resource,
                    threshold_permille,
                    max_windows,
                } => {
                    let worst = inputs
                        .utilisation
                        .iter()
                        .filter(|(name, _)| pat_matches(resource, name))
                        .map(|(_, fr)| longest_burn(fr, *threshold_permille))
                        .max()
                        .unwrap_or(0);
                    (worst, *max_windows)
                }
                SloKind::CounterCeiling { metric, max_total } => {
                    let total: u64 = inputs
                        .telemetry
                        .views()
                        .iter()
                        .filter(|v| v.kind == MetricKind::Counter && pat_matches(metric, v.name))
                        .map(|v| v.total)
                        .sum();
                    (total, *max_total)
                }
            };
            SloVerdict {
                rule: r.name.clone(),
                pass: observed <= limit,
                observed,
                limit,
            }
        })
        .collect()
}

/// Render verdicts as an aligned text block (one line per rule).
pub fn render_slo_text(verdicts: &[SloVerdict]) -> String {
    let mut out = String::new();
    for v in verdicts {
        let _ = writeln!(
            out,
            "  {:<32} {:<4} observed {:>12} limit {:>12}",
            v.rule,
            if v.pass { "ok" } else { "FAIL" },
            v.observed,
            v.limit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Telemetry::disabled();
        let c = t.counter("x");
        t.counter_add(c, at(5), 3);
        t.span_open(at(5), "l", "o");
        assert_eq!(t.total("x"), 0);
        assert_eq!(t.window_ns(), 0);
        assert_eq!(t.counter_events_json(), "");
    }

    #[test]
    fn counters_bucket_into_windows() {
        let mut t = Telemetry::enabled(100);
        let c = t.counter("ops");
        t.counter_add(c, at(10), 1);
        t.counter_add(c, at(90), 2);
        t.counter_add(c, at(250), 4);
        assert_eq!(t.total("ops"), 7);
        let v = t.views();
        assert_eq!(v[0].windows, &[3, 0, 4]);
        assert_eq!(v[0].total, 7);
    }

    #[test]
    fn gauges_track_window_maxima_and_carry_across_gaps() {
        let mut t = Telemetry::enabled(100);
        let g = t.gauge("depth");
        t.gauge_incr(g, at(10)); // 1
        t.gauge_incr(g, at(20)); // 2
        t.gauge_decr(g, at(30)); // 1
                                 // Jump three windows ahead while the level is 1: the gap windows
                                 // must report the carried level, not zero.
        t.gauge_incr(g, at(350)); // 2
        let v = t.views();
        assert_eq!(v[0].windows, &[2, 1, 1, 2]);
        assert_eq!(v[0].total, 2);
    }

    #[test]
    fn span_counters_intern_per_layer_op() {
        let mut t = Telemetry::enabled(1000);
        t.span_open(at(1), "retry", "backoff");
        t.span_open(at(2), "retry", "backoff");
        t.span_open(at(3), "rebuild", "wave");
        assert_eq!(t.total("span.retry.backoff"), 2);
        assert_eq!(t.total("span.rebuild.wave"), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resource_gauges_intern_by_index() {
        let mut t = Telemetry::enabled(1000);
        let a = t.resource_gauge(3, "nvme0");
        let b = t.resource_gauge(3, "nvme0");
        assert_eq!(a, b);
        t.gauge_incr(a, at(5));
        assert_eq!(t.total("res.nvme0.flows"), 1);
    }

    #[test]
    fn export_is_deterministic_and_padded() {
        let build = || {
            let mut t = Telemetry::enabled(100);
            let c = t.counter("ops");
            let g = t.gauge("depth");
            t.counter_add(c, at(10), 5);
            t.gauge_set(g, at(10), 3);
            t.counter_add(c, at(250), 1);
            t
        };
        let a = build().counter_events_json();
        let b = build().counter_events_json();
        assert_eq!(a, b, "identical streams export byte-identically");
        // Counter rate: 5 events in a 100 ns window = 50M/s.
        assert!(a.contains("\"value\":5,\"rate\":50000000"), "{a}");
        // The gauge row is shorter than the counter row; padding carries
        // the final level into the trailing windows.
        let gauge_events: Vec<&str> = a.matches("\"name\":\"depth\"").collect();
        assert_eq!(gauge_events.len(), 3, "{a}");
        assert!(
            a.contains("\"ts\":0.200,\"pid\":0,\"args\":{\"value\":3}"),
            "{a}"
        );
    }

    #[test]
    fn slo_latency_quantile_matches_and_judges() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 50_000] {
            h.record(v);
        }
        let mut lat = BTreeMap::new();
        lat.insert(("libdaos", "update"), h);
        let tel = Telemetry::enabled(100);
        let inputs = SloInputs {
            latencies: &lat,
            utilisation: &[],
            telemetry: &tel,
        };
        let rules = [
            SloRule::latency("p999-tight", "libdaos", "*", 999, 1_000),
            SloRule::latency("p999-loose", "*", "*", 999, 100_000),
            SloRule::latency("no-match", "nope", "*", 999, 1),
        ];
        let v = evaluate_slos(&rules, &inputs);
        assert!(!v[0].pass, "{v:?}");
        assert!(v[1].pass);
        assert!(v[2].pass, "unmatched rules observe 0 and pass");
        assert_eq!(v[2].observed, 0);
    }

    #[test]
    fn slo_utilisation_burn_counts_consecutive_windows() {
        let util = vec![
            ("nvme0".to_string(), vec![0.99, 0.97, 0.96, 0.10, 0.99]),
            ("nic".to_string(), vec![0.10, 0.10]),
        ];
        let tel = Telemetry::enabled(100);
        let inputs = SloInputs {
            latencies: &BTreeMap::new(),
            utilisation: &util,
            telemetry: &tel,
        };
        let rules = [
            SloRule::utilisation_burn("burn-tight", "nvme*", 950, 2),
            SloRule::utilisation_burn("burn-loose", "*", 950, 3),
        ];
        let v = evaluate_slos(&rules, &inputs);
        assert_eq!(v[0].observed, 3);
        assert!(!v[0].pass);
        assert!(v[1].pass);
    }

    #[test]
    fn slo_counter_ceiling_sums_matching_totals() {
        let mut tel = Telemetry::enabled(100);
        let a = tel.counter("daos.retry.retries");
        let b = tel.counter("daos.retry.timeouts");
        tel.counter_add(a, at(1), 3);
        tel.counter_add(b, at(2), 2);
        let inputs = SloInputs {
            latencies: &BTreeMap::new(),
            utilisation: &[],
            telemetry: &tel,
        };
        let rules = [
            SloRule::counter_ceiling("retries-capped", "daos.retry.*", 4),
            SloRule::counter_ceiling("retries-ok", "daos.retry.*", 5),
        ];
        let v = evaluate_slos(&rules, &inputs);
        assert_eq!(v[0].observed, 5);
        assert!(!v[0].pass);
        assert!(v[1].pass);
    }

    #[test]
    fn slo_text_rendering_is_stable() {
        let v = vec![SloVerdict {
            rule: "r".to_string(),
            pass: true,
            observed: 1,
            limit: 2,
        }];
        assert_eq!(render_slo_text(&v), render_slo_text(&v));
        assert!(render_slo_text(&v).contains("ok"));
    }
}
