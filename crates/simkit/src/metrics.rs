//! Metrics derived from the span log: log2-bucketed latency histograms,
//! critical-path attribution, and two deterministic exporters (Chrome
//! `trace_event` JSON for Perfetto, and a text critical-path report).
//!
//! Everything here is a pure function of a [`SpanLog`]: iteration is in
//! span-id order and all formatting is integer-based, so two identical
//! logs export byte-identical artefacts — the property the benchkit
//! span-determinism tests assert.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::{SpanLog, SpanRecord};
use crate::time::SimTime;

/// A log2-bucketed histogram of nanosecond durations.
///
/// Bucket `i` holds values whose bit length is `i`: bucket 0 is exactly
/// `{0}`, bucket 1 is `{1}`, bucket 2 is `{2, 3}`, …, bucket 64 is
/// `[2^63, u64::MAX]`.  Quantiles report the bucket's inclusive upper
/// bound, so they are conservative (never under-estimate) and exact for
/// the 0 and 1 buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            max: 0,
            sum: 0,
        }
    }
}

/// Bucket index of `v`: its bit length (0 for `v == 0`).
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one duration.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`); exact `max()` for `q = 1.0`.  0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// (p50, p95, p99, p99.9, max) in nanoseconds.  The p99.9 column is
    /// the multi-tenant QoS tail the roadmap asks for: with log2
    /// buckets it is conservative like every other quantile, and it
    /// collapses onto `max` for histograms under 1000 samples.
    pub fn summary(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max,
        )
    }
}

/// Per-`(layer, op)` latency histograms over all *closed* spans.
pub fn layer_histograms(log: &SpanLog) -> BTreeMap<(&'static str, &'static str), Histogram> {
    let mut out: BTreeMap<(&'static str, &'static str), Histogram> = BTreeMap::new();
    for rec in log.records() {
        if rec.is_closed() {
            out.entry((rec.layer, rec.op))
                .or_default()
                .record(rec.duration_ns());
        }
    }
    out
}

/// Self-time attributed to one `(layer, op)` on the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathContribution {
    /// Layer of the spans this row aggregates.
    pub layer: &'static str,
    /// Operation within the layer.
    pub op: &'static str,
    /// Critical-path self-time (ns): wall time where a span of this kind
    /// was the deepest active span on the path that determined completion.
    pub self_ns: u64,
}

/// Extract the critical path of every span tree and aggregate self-time
/// per `(layer, op)`, sorted by self-time descending (ties by name).
///
/// The walk runs backwards from each span's end: the child whose end is
/// latest (but not past the cursor) is on the path; the gap between that
/// child's end and the cursor is the parent's own time (queueing, fixed
/// delays, its share of transfers).  Children that lose a parallel race
/// contribute nothing — exactly the paper's attribution question ("which
/// layer bounds the plateau").
pub fn critical_path(log: &SpanLog) -> Vec<PathContribution> {
    let recs = log.records();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        if !r.is_closed() {
            continue;
        }
        if r.parent.is_none() {
            roots.push(i);
        } else {
            children[r.parent.0 as usize - 1].push(i);
        }
    }
    let mut acc: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    for root in roots {
        attribute(root, recs, &children, &mut acc);
    }
    let mut out: Vec<PathContribution> = acc
        .into_iter()
        .map(|((layer, op), self_ns)| PathContribution { layer, op, self_ns })
        .collect();
    out.sort_by(|a, b| {
        b.self_ns
            .cmp(&a.self_ns)
            .then(a.layer.cmp(b.layer))
            .then(a.op.cmp(b.op))
    });
    out
}

fn attribute(
    idx: usize,
    recs: &[SpanRecord],
    children: &[Vec<usize>],
    acc: &mut BTreeMap<(&'static str, &'static str), u64>,
) {
    let s = &recs[idx];
    // Latest-ending child first; ties broken by start then id so the
    // walk is deterministic regardless of insertion order.
    let mut kids: Vec<usize> = children[idx].clone();
    kids.sort_by(|&a, &b| {
        (recs[b].end, recs[b].start, recs[b].id.0).cmp(&(recs[a].end, recs[a].start, recs[a].id.0))
    });
    let mut cursor = s.end;
    let mut self_ns = 0u64;
    for k in kids {
        let c = &recs[k];
        if c.end > cursor {
            // Covered by a sibling already on the path (parallel loser).
            continue;
        }
        self_ns += cursor.nanos_since(c.end);
        attribute(k, recs, children, acc);
        cursor = c.start.min(cursor);
        if cursor <= s.start {
            break;
        }
    }
    self_ns += cursor.nanos_since(s.start);
    *acc.entry((s.layer, s.op)).or_insert(0) += self_ns;
}

/// Total wall time attributed across all span trees: the sum of root
/// span durations (equals the sum of all critical-path self-times).
pub fn attributed_wall_ns(log: &SpanLog) -> u64 {
    log.records()
        .iter()
        .filter(|r| r.parent.is_none() && r.is_closed())
        .map(SpanRecord::duration_ns)
        .sum()
}

/// Format integer nanoseconds as microseconds with three decimals — the
/// `ts`/`dur` unit of the Chrome trace format — without ever touching
/// floating point, so output is byte-stable.
pub(crate) fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Export the span log as Chrome `trace_event` JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Each span becomes a complete event (`ph: "X"`) with `pid` 0 and `tid`
/// set to the span's root id, so every I/O tree renders as its own track
/// with layers nested by time.  Fault marks become global instant events
/// (`ph: "i"`).  Output is deterministic: spans in id order, marks in
/// firing order, integer-based formatting throughout.
pub fn chrome_trace_json(log: &SpanLog) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for r in log.records() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}/{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"bytes\":{},\"attempt\":{}}}}}",
            r.layer,
            r.op,
            r.layer,
            micros(r.start.as_nanos()),
            micros(r.duration_ns()),
            r.root.0,
            r.id.0,
            r.parent.0,
            r.bytes,
            r.attempt,
        );
    }
    for m in log.marks() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"fault {}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\
             \"pid\":0,\"tid\":{}}}",
            m.fault_id,
            micros(m.at.as_nanos()),
            m.span.0,
        );
    }
    out.push_str("]}");
    out
}

/// [`chrome_trace_json`] with the telemetry registry's Perfetto counter
/// tracks merged into the same `traceEvents` array: spans and fault
/// marks first, then one `ph: "C"` event per metric per window (see
/// [`crate::telemetry::Telemetry::counter_events_json`]).  Byte-stable
/// for identical inputs, like every exporter here.
pub fn chrome_trace_json_with_counters(
    log: &SpanLog,
    telemetry: &crate::telemetry::Telemetry,
) -> String {
    let mut out = chrome_trace_json(log);
    let counters = telemetry.counter_events_json();
    if !counters.is_empty() {
        debug_assert!(out.ends_with("]}"));
        out.truncate(out.len() - 2);
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str(&counters);
        out.push_str("]}");
    }
    out
}

/// Render a text critical-path + latency report from `log` and its
/// [`critical_path`] rows, which a caller that keeps them computes once.
///
/// The top section attributes wall time per `(layer, op)` along the
/// critical path ("62.1% dfuse/write"); the bottom lists per-layer
/// latency quantiles.  Deterministic for identical logs.
pub fn critical_path_report(log: &SpanLog, path: &[PathContribution]) -> String {
    let mut out = String::new();
    let total = attributed_wall_ns(log);
    let _ = writeln!(
        out,
        "critical path ({} attributed over {} spans):",
        SimTime::from_nanos(total),
        log.len()
    );
    for c in path {
        let pct = if total > 0 {
            c.self_ns as f64 * 100.0 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:>5.1}%  {:<24} {}",
            pct,
            format!("{}/{}", c.layer, c.op),
            SimTime::from_nanos(c.self_ns)
        );
    }
    let hists = layer_histograms(log);
    if !hists.is_empty() {
        let _ = writeln!(out, "latency (p50/p95/p99/p99.9/max):");
        for ((layer, op), h) in &hists {
            let (p50, p95, p99, p999, max) = h.summary();
            let _ = writeln!(
                out,
                "  {:<24} n={:<7} {} / {} / {} / {} / {}",
                format!("{layer}/{op}"),
                h.count(),
                SimTime::from_nanos(p50),
                SimTime::from_nanos(p95),
                SimTime::from_nanos(p99),
                SimTime::from_nanos(p999),
                SimTime::from_nanos(max)
            );
        }
    }
    if !log.marks().is_empty() {
        let _ = writeln!(out, "faults: {} fired during the run", log.marks().len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    #[test]
    fn bucket_edges() {
        // The satellite-mandated edges: 0, 1, u64::MAX.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_edge_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.01), 0, "smallest bucket is exact");
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), u64::MAX);
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.summary(), (0, 0, 0, 0, 0));
    }

    #[test]
    fn p999_separates_from_p99_at_scale() {
        // 10_000 samples: 9_990 at ~1k ns, 9 at ~1M, 1 at ~1G.  p99
        // stays in the 1k bucket, p99.9 must climb to the 1M bucket and
        // max to the outlier — the tail the roadmap's QoS reporting
        // needs visible.
        let mut h = Histogram::new();
        for _ in 0..9_989 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        h.record(1_073_741_824);
        let (p50, _, p99, p999, max) = h.summary();
        assert_eq!(p50, bucket_upper(bucket_of(1_000)));
        assert_eq!(p99, bucket_upper(bucket_of(1_000)));
        assert_eq!(p999, bucket_upper(bucket_of(1_000_000)));
        assert_eq!(max, 1_073_741_824);
        assert!(p999 > p99);
    }

    #[test]
    fn quantiles_are_conservative() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300, 1000] {
            h.record(v);
        }
        // All land in buckets 7 (64..=127) and 9/10; p50 reports an
        // upper bound >= the true median and <= max.
        let p50 = h.quantile(0.5);
        assert!((200..=1000).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.mean(), 400);
    }

    fn demo_log() -> SpanLog {
        // root [0, 100]
        //   child A [10, 40]         (libdaos)
        //   child B [40, 90]         (libdaos) -> grandchild [50, 90] (target)
        let mut log = SpanLog::recording();
        let root = log.open(SimTime::from_nanos(0), SpanId::NONE, "dfuse", "write", 8, 0);
        let a = log.open(SimTime::from_nanos(10), root, "libdaos", "update", 8, 0);
        log.close(SimTime::from_nanos(40), a);
        let b = log.open(SimTime::from_nanos(40), root, "libdaos", "update", 8, 0);
        let g = log.open(SimTime::from_nanos(50), b, "target", "nvme_w", 8, 0);
        log.close(SimTime::from_nanos(90), g);
        log.close(SimTime::from_nanos(90), b);
        log.close(SimTime::from_nanos(100), root);
        log
    }

    #[test]
    fn critical_path_attribution() {
        let log = demo_log();
        let path = critical_path(&log);
        let get = |layer: &str, op: &str| {
            path.iter()
                .find(|c| c.layer == layer && c.op == op)
                .map(|c| c.self_ns)
                .unwrap_or(0)
        };
        // dfuse self: [0,10] gap + [90,100] tail = 20
        // libdaos self: A [10,40] = 30, B [40,50] before grandchild = 10
        // target self: [50,90] = 40
        assert_eq!(get("dfuse", "write"), 20);
        assert_eq!(get("libdaos", "update"), 40);
        assert_eq!(get("target", "nvme_w"), 40);
        assert_eq!(attributed_wall_ns(&log), 100);
        assert_eq!(path.iter().map(|c| c.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn parallel_loser_contributes_nothing() {
        let mut log = SpanLog::recording();
        let root = log.open(SimTime::from_nanos(0), SpanId::NONE, "ior", "write", 0, 0);
        let slow = log.open(SimTime::from_nanos(0), root, "a", "slow", 0, 0);
        let fast = log.open(SimTime::from_nanos(0), root, "b", "fast", 0, 0);
        log.close(SimTime::from_nanos(30), fast);
        log.close(SimTime::from_nanos(100), slow);
        log.close(SimTime::from_nanos(100), root);
        let path = critical_path(&log);
        assert!(
            !path.iter().any(|c| c.layer == "b" && c.self_ns > 0),
            "parallel loser must not appear on the path: {path:?}"
        );
        assert_eq!(path.iter().map(|c| c.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn chrome_export_is_deterministic_and_wellformed() {
        let a = chrome_trace_json(&demo_log());
        let b = chrome_trace_json(&demo_log());
        assert_eq!(a, b, "identical logs export byte-identically");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"dfuse/write\""));
        assert!(a.contains("\"ts\":0.010"), "ns format to fractional us");
        // Balanced braces as a cheap well-formedness check.
        let open = a.matches('{').count();
        let close = a.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn report_mentions_dominant_layer() {
        let log = demo_log();
        let rep = critical_path_report(&log, &critical_path(&log));
        assert!(rep.contains("critical path"));
        assert!(rep.contains("libdaos/update"));
        assert!(rep.contains("40.0%"), "{rep}");
        assert!(rep.contains("latency (p50/p95/p99/p99.9/max):"));
    }

    #[test]
    fn counter_tracks_merge_into_chrome_trace() {
        use crate::telemetry::Telemetry;
        let log = demo_log();
        let mut tel = Telemetry::enabled(50);
        let c = tel.counter("ops");
        tel.counter_add(c, SimTime::from_nanos(10), 2);
        let a = chrome_trace_json_with_counters(&log, &tel);
        let b = chrome_trace_json_with_counters(&log, &tel);
        assert_eq!(a, b, "merged export is byte-stable");
        assert!(a.contains("\"ph\":\"X\""), "spans survive the merge");
        assert!(a.contains("\"ph\":\"C\""), "counter tracks present");
        assert!(a.contains("\"name\":\"ops\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        // An empty registry leaves the plain export untouched.
        let plain = chrome_trace_json_with_counters(&log, &Telemetry::disabled());
        assert_eq!(plain, chrome_trace_json(&log));
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(10), "0.010");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(12_345_678), "12345.678");
    }
}
