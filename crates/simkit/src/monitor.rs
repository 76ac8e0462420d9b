//! Resource utilisation accounting.
//!
//! The engine credits every resource with `rate × dt` units whenever
//! simulated time advances, giving exact busy integrals for the fluid
//! model.  Utilisation reports are used by the benchmark harness to
//! explain *which* resource bound each figure's plateau — the analysis
//! the paper performs by comparing against raw hardware bandwidth.
//!
//! Two granularities are kept:
//!
//! * **Totals** — one busy integral per resource, always accumulated.
//!   [`Monitor::report`] derives whole-run mean rates and fractions from
//!   these, but a whole-run mean under-reports utilisation for scenarios
//!   with long idle tails (setup barriers, drain phases).
//! * **Windows** — with [`Monitor::windowed`], the same credits are also
//!   apportioned into fixed-width time windows.  Because flow rates are
//!   constant across each settlement interval, uniform apportionment is
//!   exact, not an approximation.  [`Monitor::window_fractions`] then
//!   yields a utilisation *time series* per resource, from which peak and
//!   busy-interval utilisation fall out.

use crate::step::ResourceId;
use crate::time::SimTime;
use crate::units::Rate;

/// Per-resource busy accounting.
#[derive(Debug, Default, Clone)]
pub struct Monitor {
    /// Total units moved through each resource.
    busy_units: Vec<f64>,
    /// Window width in ns (0 = totals only).
    window_ns: u64,
    /// Per-resource, per-window units (outer: resource, inner: window).
    series: Vec<Vec<f64>>,
    enabled: bool,
}

/// One row of a utilisation report.
#[derive(Debug, Clone)]
pub struct Utilisation {
    /// Resource this row describes.
    pub resource: ResourceId,
    /// Units moved through the resource during the run.
    pub units: f64,
    /// Mean throughput over the interval, units/second.
    pub mean_rate: f64,
    /// Mean throughput as a fraction of capacity (0..=1).
    pub fraction: f64,
}

impl Monitor {
    /// A monitor that records nothing (zero overhead).
    pub fn disabled() -> Self {
        Monitor::default()
    }

    /// A recording monitor (whole-run totals only).
    pub fn enabled() -> Self {
        Monitor {
            enabled: true,
            ..Monitor::default()
        }
    }

    /// A recording monitor that additionally samples utilisation into
    /// fixed windows of `window_ns` nanoseconds.
    pub fn windowed(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window width must be positive");
        Monitor {
            enabled: true,
            window_ns,
            ..Monitor::default()
        }
    }

    /// Whether accounting is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Window width in nanoseconds (0 when windowing is off).
    #[inline]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Credit `units` of work to `r`, moved uniformly over `[t0, t1]`
    /// (the engine's settlement interval; flow rates are constant across
    /// it, so uniform apportionment into windows is exact).
    pub(crate) fn credit(&mut self, r: ResourceId, units: f64, t0: SimTime, t1: SimTime) {
        if !self.enabled {
            return;
        }
        let i = r.0 as usize;
        if self.busy_units.len() <= i {
            self.busy_units.resize(i + 1, 0.0);
        }
        self.busy_units[i] += units;
        if self.window_ns == 0 {
            return;
        }
        let span_ns = t1.nanos_since(t0);
        if self.series.len() <= i {
            self.series.resize(i + 1, Vec::new());
        }
        let row = &mut self.series[i];
        if span_ns == 0 {
            // Instantaneous credit: bill the window containing t1.
            let w = (t1.as_nanos() / self.window_ns) as usize;
            if row.len() <= w {
                row.resize(w + 1, 0.0);
            }
            row[w] += units;
            return;
        }
        let last = ((t1.as_nanos() - 1) / self.window_ns) as usize;
        if row.len() <= last {
            row.resize(last + 1, 0.0);
        }
        let mut cur = t0.as_nanos();
        let end = t1.as_nanos();
        while cur < end {
            let w = cur / self.window_ns;
            let w_end = ((w + 1) * self.window_ns).min(end);
            let frac = (w_end - cur) as f64 / span_ns as f64;
            row[w as usize] += units * frac;
            cur = w_end;
        }
    }

    /// Units moved through `r` so far.
    pub fn units(&self, r: ResourceId) -> f64 {
        self.busy_units.get(r.0 as usize).copied().unwrap_or(0.0)
    }

    /// Snapshot of all busy integrals, padded to `n` resources.
    pub fn snapshot(&self, n: usize) -> Vec<f64> {
        let mut v = self.busy_units.clone();
        v.resize(n.max(v.len()), 0.0);
        v
    }

    /// Per-window units moved through `r` (empty when windowing is off
    /// or the resource never moved anything).
    pub fn window_units(&self, r: ResourceId) -> &[f64] {
        self.series
            .get(r.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Utilisation time series for `r`: fraction of `capacity` used in
    /// each window.  Empty when windowing is off.
    pub fn window_fractions(&self, r: ResourceId, capacity: Rate) -> Vec<f64> {
        if self.window_ns == 0 || capacity <= Rate::ZERO {
            return Vec::new();
        }
        let w_secs = crate::units::ns_to_secs(self.window_ns);
        let per_window = capacity.bytes_in(w_secs);
        self.window_units(r)
            .iter()
            .map(|u| u / per_window.get())
            .collect()
    }

    /// Highest single-window utilisation fraction of `r` (0 when
    /// windowing is off).  This is the number the whole-run mean hides:
    /// a resource saturated for half the run and idle for the rest
    /// reports `fraction = 0.5` in [`Monitor::report`] but a peak of 1.0.
    pub fn peak_fraction(&self, r: ResourceId, capacity: Rate) -> f64 {
        self.window_fractions(r, capacity)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// The window holding the peak utilisation of `r`: `(window index,
    /// fraction)`.  `None` when windowing is off or nothing moved.  Ties
    /// resolve to the earliest window, so the answer is deterministic.
    pub fn peak_window(&self, r: ResourceId, capacity: Rate) -> Option<(usize, f64)> {
        let fr = self.window_fractions(r, capacity);
        let mut best: Option<(usize, f64)> = None;
        for (i, f) in fr.into_iter().enumerate() {
            if best.is_none_or(|(_, bf)| f > bf) {
                best = Some((i, f));
            }
        }
        best
    }

    /// Maximal runs of consecutive windows where `r`'s utilisation is at
    /// or above `threshold` (a fraction of capacity), as half-open
    /// `[start, end)` window-index ranges in time order.  This is the
    /// plateau-attribution primitive: "nvme busy ≥ 95% for windows
    /// 12..40" replaces hand-reading the series.
    pub fn busy_intervals(
        &self,
        r: ResourceId,
        capacity: Rate,
        threshold: f64,
    ) -> Vec<(usize, usize)> {
        let fr = self.window_fractions(r, capacity);
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &f) in fr.iter().enumerate() {
            match (f >= threshold, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    out.push((s, i));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push((s, fr.len()));
        }
        out
    }

    /// Utilisation report over `[t0, t1]` for resources with the given
    /// capacities (indexed by resource id).  A derived view over the
    /// whole-run totals; unchanged by windowing.
    pub fn report(&self, caps: &[Rate], t0: SimTime, t1: SimTime) -> Vec<Utilisation> {
        let dt = t1.secs_since(t0);
        (0..caps.len())
            .map(|i| {
                let units = self.busy_units.get(i).copied().unwrap_or(0.0);
                let mean_rate = if dt > 0.0 { units / dt } else { 0.0 };
                let fraction = if caps[i] > Rate::ZERO {
                    mean_rate / caps[i].get()
                } else {
                    0.0
                };
                Utilisation {
                    resource: ResourceId(i as u32),
                    units,
                    mean_rate,
                    fraction,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_records_nothing() {
        let mut m = Monitor::disabled();
        m.credit(ResourceId(0), 5.0, at(0), at(10));
        assert_eq!(m.units(ResourceId(0)), 0.0);
        assert!(m.window_units(ResourceId(0)).is_empty());
    }

    #[test]
    fn credit_accumulates() {
        let mut m = Monitor::enabled();
        m.credit(ResourceId(2), 5.0, at(0), at(10));
        m.credit(ResourceId(2), 2.5, at(10), at(20));
        assert!((m.units(ResourceId(2)) - 7.5).abs() < 1e-12);
        assert_eq!(m.units(ResourceId(0)), 0.0);
        assert_eq!(m.window_ns(), 0);
        assert!(m.window_fractions(ResourceId(2), Rate(1.0)).is_empty());
    }

    #[test]
    fn report_computes_fractions() {
        let mut m = Monitor::enabled();
        m.credit(ResourceId(0), 50.0, at(0), SimTime::from_secs_f64(1.0));
        let rep = m.report(&[Rate(100.0)], SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!((rep[0].mean_rate - 50.0).abs() < 1e-9);
        assert!((rep[0].fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn windows_apportion_uniformly() {
        let mut m = Monitor::windowed(100);
        // 10 units over [50, 250): 50ns in w0, 100ns in w1, 50ns in w2.
        m.credit(ResourceId(0), 10.0, at(50), at(250));
        let w = m.window_units(ResourceId(0));
        assert_eq!(w.len(), 3);
        assert!((w[0] - 2.5).abs() < 1e-12, "{w:?}");
        assert!((w[1] - 5.0).abs() < 1e-12);
        assert!((w[2] - 2.5).abs() < 1e-12);
        // Totals stay the derived whole-run view.
        assert!((m.units(ResourceId(0)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn window_boundary_is_half_open() {
        let mut m = Monitor::windowed(100);
        // [0, 100) lands entirely in window 0.
        m.credit(ResourceId(0), 4.0, at(0), at(100));
        let w = m.window_units(ResourceId(0));
        assert_eq!(w.len(), 1);
        assert!((w[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn peak_exceeds_whole_run_mean_with_idle_tail() {
        // Saturated for the first window, idle afterwards: the whole-run
        // mean dilutes to 0.25 while the peak stays at 1.0 — the
        // under-reporting the windowed view exists to fix.
        let cap = Rate(100.0); // units/s
        let w_ns = 1_000_000_000; // 1s windows
        let mut m = Monitor::windowed(w_ns);
        m.credit(ResourceId(0), 100.0, at(0), at(w_ns));
        m.credit(ResourceId(0), 0.0, at(3 * w_ns), at(4 * w_ns));
        let rep = m.report(&[cap], SimTime::ZERO, at(4 * w_ns));
        assert!((rep[0].fraction - 0.25).abs() < 1e-9);
        assert!((m.peak_fraction(ResourceId(0), cap) - 1.0).abs() < 1e-9);
        let f = m.window_fractions(ResourceId(0), cap);
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!(f[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn peak_window_and_busy_intervals() {
        let cap = Rate(10.0); // units/s
        let w_ns = 1_000_000_000; // 1s windows
        let mut m = Monitor::windowed(w_ns);
        // windows: [1.0, 1.0, 0.2, 0.95, 1.0] of capacity
        m.credit(ResourceId(0), 20.0, at(0), at(2 * w_ns));
        m.credit(ResourceId(0), 2.0, at(2 * w_ns), at(3 * w_ns));
        m.credit(ResourceId(0), 9.5, at(3 * w_ns), at(4 * w_ns));
        m.credit(ResourceId(0), 10.0, at(4 * w_ns), at(5 * w_ns));
        let (w, f) = m.peak_window(ResourceId(0), cap).unwrap();
        assert_eq!(w, 0, "ties resolve to the earliest window");
        assert!((f - 1.0).abs() < 1e-9);
        let busy = m.busy_intervals(ResourceId(0), cap, 0.9);
        assert_eq!(busy, vec![(0, 2), (3, 5)]);
        // A run ending at the series tail closes at the series length;
        // a threshold nothing reaches yields no intervals.
        assert!(m.busy_intervals(ResourceId(0), cap, 1.5).is_empty());
        // Windowing off: no peak window, no intervals.
        let plain = Monitor::enabled();
        assert!(plain.peak_window(ResourceId(0), cap).is_none());
        assert!(plain.busy_intervals(ResourceId(0), cap, 0.5).is_empty());
    }

    #[test]
    fn instantaneous_credit_bills_containing_window() {
        let mut m = Monitor::windowed(100);
        m.credit(ResourceId(0), 3.0, at(150), at(150));
        let w = m.window_units(ResourceId(0));
        assert_eq!(w.len(), 2);
        assert!((w[1] - 3.0).abs() < 1e-12);
    }
}
