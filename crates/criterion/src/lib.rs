//! Offline stand-in for [`criterion`](https://docs.rs/criterion).
//!
//! The build container has no registry access, so this shim provides
//! the bench-group API the workspace's benches use, backed by a plain
//! best-of-N wall-clock timer.  It reports `name: median ns/iter` lines
//! instead of criterion's statistical analysis — enough to compare hot
//! paths across commits without any external dependency.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark timer measures host time; it never feeds a simulation"
)]

use std::time::{Duration, Instant};

/// Prevent the optimiser from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Measurement backends (only wall time here).
pub mod measurement {
    /// Wall-clock measurement marker.
    pub struct WallTime;
}

/// How `iter_batched` sizes its batches (accepted, ignored).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration setup values.
    SmallInput,
    /// Large per-iteration setup values.
    LargeInput,
}

/// The benchmark context handed to `bench_function` closures.
pub struct Bencher {
    samples: u64,
    /// Collected per-sample mean ns/iter.
    results: Vec<f64>,
}

impl Bencher {
    /// Time `routine`, running it repeatedly per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            // adaptively pick an inner count so one sample is >= ~1 ms
            let mut iters = 1u64;
            loop {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                let dt = t0.elapsed();
                if dt >= Duration::from_millis(1) || iters >= 1 << 20 {
                    self.results.push(dt.as_nanos() as f64 / iters as f64);
                    break;
                }
                iters *= 4;
            }
        }
    }

    /// Time `routine` over fresh values from `setup` (setup untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.results.push(t0.elapsed().as_nanos() as f64);
        }
    }
}

/// A named group of benchmarks with shared settings.
pub struct BenchmarkGroup<'a, M = measurement::WallTime> {
    name: String,
    sample_size: u64,
    _criterion: &'a mut Criterion,
    _marker: std::marker::PhantomData<M>,
}

impl<M> BenchmarkGroup<'_, M> {
    /// Accepted for API compatibility; the shim has no warm-up phase.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim times a fixed sample count.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u64).clamp(1, 100);
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: self.sample_size,
            results: Vec::new(),
        };
        f(&mut b);
        let mut r = b.results;
        r.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = if r.is_empty() { 0.0 } else { r[r.len() / 2] };
        println!(
            "{}/{name}: {median:.0} ns/iter ({} samples)",
            self.name,
            r.len()
        );
        self
    }

    /// Finish the group (printing is immediate; nothing buffered).
    pub fn finish(&mut self) {}
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _criterion: self,
            _marker: std::marker::PhantomData,
        }
    }

    /// Run one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.benchmark_group("bench").bench_function(name, f);
        self
    }
}

/// Collect benchmark functions into a runner (mirrors criterion's macro).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running the given groups (mirrors criterion's macro).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_times_and_prints() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }
}
